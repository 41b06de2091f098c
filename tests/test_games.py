import numpy as np
import pytest

from pidlab.compatibility import is_simple_pid, roi, roi_primal
from pidlab.devices import (
    Pid,
    Povm,
    pad_pid_outcomes,
    random_pid,
    random_povm,
    random_simple_pid,
    rng_from_seed,
)
from pidlab.games import (
    DualFrame,
    GameSpec,
    PiGameSpec,
    _merge_groups,
    dummy_count_for_gap,
    game_value,
    ic_dual_frame,
    merge_game_outcomes,
    pguess_simple,
    pi_game_value,
    pi_pguess_simple,
    verify_robustness_bound,
    witness_ensemble,
    witness_game,
)
from pidlab.linalg import max_abs, phi_plus
from pidlab.presets import (
    maximally_entangled_assemblage,
    pauli_tetrahedron_povm,
    xz_pmd,
)
from pidlab.simulation import apply_free_simulation
from pidlab.devices import SimulationShape, random_free_simulation


def blind_game(n_m=2, n_n=3, d=2):
    """Referee ignores the returned system and draws n uniformly."""
    rng = rng_from_seed(90)
    probe = random_povm(rng, d, n_m)
    eff = np.zeros((n_m, n_n, d * d, d * d), dtype=complex)
    for m in range(n_m):
        for n in range(n_n):
            eff[m, n] = np.kron(probe.effects[m], np.eye(d)) / n_n
    return GameSpec(effects=eff, d_ref=d, dout=d)


def bell_check_game():
    proj = phi_plus(2) / 2
    eff = np.stack([proj, np.eye(4) - proj])[None, :, :, :]
    return GameSpec(effects=eff, d_ref=2, dout=2)


class TestGameValue:
    def test_blind_game_scores_uniform_for_any_strategy(self):
        g = blind_game()
        for seed in (91, 92):
            p = random_pid(2, 2, 2, 3, seed=seed)
            assert abs(game_value(g, p) - 1.0 / 3.0) <= 1e-10

    def test_bell_check_perfect_passthrough(self):
        g = bell_check_game()
        ident = Pid(2, 2, np.stack([phi_plus(2), np.zeros((4, 4))])[None, :, :, :])
        assert abs(game_value(g, ident) - 1.0) <= 1e-12

    def test_affine_in_strategy(self):
        g = blind_game(2, 2, 2)
        p1 = random_pid(2, 2, 2, 2, seed=93)
        p2 = random_pid(2, 2, 2, 2, seed=94)
        w = 0.37
        mixed = Pid(2, 2, w * p1.blocks + (1 - w) * p2.blocks)
        lhs = game_value(g, mixed)
        rhs = w * game_value(g, p1) + (1 - w) * game_value(g, p2)
        assert abs(lhs - rhs) <= 1e-10

    def test_shape_mismatch(self):
        g = blind_game()
        with pytest.raises(ValueError):
            game_value(g, random_pid(2, 2, 2, 2, seed=95))


def _merge_groups_loop(effects, tol=1e-12):
    """Reference: each column against every group representative in turn."""
    groups = []
    for n in range(effects.shape[1]):
        for grp in groups:
            if max_abs(effects[:, n] - effects[:, grp[0]]) <= tol:
                grp.append(n)
                break
        else:
            groups.append([n])
    return groups


class TestPguessSimple:
    def test_merge_groups_matches_column_loop(self):
        eff = witness_game(roi(random_pid(2, 2, 2, 2, seed=139)), n_dummy=512).effects
        assert _merge_groups(eff) == _merge_groups_loop(eff)
        # columns offset from column 0 in one entry: 1e-13 and 0.75e-12 merge
        # into the first group, though 0.75e-12 is also within 1e-12 of 1.5e-12
        offsets = (0.0, 1e-13, 1e-11, 1.5e-12, 0.75e-12)
        cols = np.repeat(eff[:, :1], len(offsets), axis=1)
        cols[0, :, 0, 0] += offsets
        assert _merge_groups(cols) == _merge_groups_loop(cols) == [[0, 1, 4], [2], [3]]

    def test_blind_game_benchmark(self):
        g = blind_game()
        res = pguess_simple(g)
        assert abs(res.value - 1.0 / 3.0) <= 1e-7
        assert abs(game_value(g, res.strategy) - res.value) <= 1e-8

    def test_at_least_deterministic_relabelings(self):
        g = bell_check_game()
        res = pguess_simple(g)
        # fixed channel with a deterministic guess is simple
        for n in range(2):
            blocks = np.zeros((1, 2, 4, 4), dtype=complex)
            blocks[0, n] = np.kron(np.eye(2), np.eye(2)) / 2  # depolarizing channel
            det = Pid(2, 2, blocks)
            assert res.value >= game_value(g, det) - 1e-8

    def test_recovered_strategy_is_simple_and_attaining(self):
        p = maximally_entangled_assemblage(xz_pmd())
        cert = roi(p)
        g = witness_game(cert, n_dummy=8)
        res = pguess_simple(g)
        assert abs(game_value(g, res.strategy) - res.value) <= 1e-7
        assert is_simple_pid(res.strategy).simple

    def test_merging_never_decreases_value(self):
        # coarse-graining guess labels can only make guessing easier
        g = bell_check_game()
        merged = merge_game_outcomes(g, [0, 0])
        assert pguess_simple(merged).value >= pguess_simple(g).value - 1e-8
        assert abs(pguess_simple(merged).value - 1.0) <= 1e-7


class TestWitnessGame:
    def cert(self):
        return roi(maximally_entangled_assemblage(xz_pmd()))

    def test_effects_form_a_povm(self):
        g = witness_game(self.cert(), n_dummy=16)
        assert g.is_valid(1e-9)

    def test_random_certificates_yield_povms(self):
        for seed in (139, 113, 114):
            cert = roi_primal(random_pid(2, 2, 2, 2, seed=seed))
            for n_dummy in (1, 5, 64):
                assert witness_game(cert, n_dummy=n_dummy).is_valid(1e-9)

    def test_zero_dual_gives_completion_only(self):
        cert = self.cert()
        import dataclasses

        zeroed = dataclasses.replace(cert, alpha=np.zeros_like(cert.alpha))
        g = witness_game(zeroed, n_dummy=4)
        assert g.is_valid(1e-12)
        assert max_abs(g.effects[:, :2]) == 0.0
        # every deterministic dummy guess scores 1/n_dummy
        assert abs(pguess_simple(g).value - 1.0 / 4.0) <= 1e-7

    def test_ratio_chain_bound(self):
        cert = self.cert()
        n_dummy = 64
        g = witness_game(cert, n_dummy=n_dummy)
        total = cert.alpha.sum(axis=(0, 1))
        c = float(np.linalg.eigvalsh((total + total.conj().T) / 2)[-1])
        p = maximally_entangled_assemblage(xz_pmd())
        num = game_value(g, pad_pid_outcomes(p, g.n_n))
        den = pguess_simple(g).value
        lower = (1.0 + cert.r) / (1.0 + c / (p.n_programs * n_dummy))
        assert num / den >= lower - 1e-5

    def test_dummy_count_helper(self):
        assert dummy_count_for_gap(2.0, 2, 2, 2, 0.1) == 320

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_dummy_count_rejects_non_positive_gap(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            dummy_count_for_gap(2.0, 2, 2, 2, eps)


class TestVerifyBound:
    def test_simple_device_ratios_are_one(self):
        s = random_simple_pid(2, 2, 2, 2, seed=96).pid
        report = verify_robustness_bound(s, schedule=(8, 64))
        assert report.cap_violations == 0
        for ratio in report.ratios:
            assert abs(ratio - 1.0) <= 1e-5

    def test_xz_schedule_converges(self):
        p = maximally_entangled_assemblage(xz_pmd())
        report = verify_robustness_bound(p, schedule=(8, 64, 512))
        assert report.cap_violations == 0
        assert all(
            report.ratios[i] <= report.ratios[i + 1] + 1e-9
            for i in range(len(report.ratios) - 1)
        )
        assert report.final_gap() <= 0.01
        assert abs(report.roi - (3.0 - 2.0 * np.sqrt(2.0))) <= 2e-4


class TestPiGames:
    def uniform_pi_game(self, n_m=2, n_n=2):
        rng = rng_from_seed(97)
        from pidlab.devices import random_state

        states = np.stack(
            [random_state(rng, 2) for _ in range(n_m)]
        )  # independent of n and l
        tet = pauli_tetrahedron_povm()
        ens = np.zeros((n_m, n_n, 4, 2, 2), dtype=complex)
        for m in range(n_m):
            for n in range(n_n):
                for l in range(4):
                    ens[m, n, l] = states[m] / (n_m * n_n * 4)
        # weight by the chance L yields l on the transformed state is immaterial
        # here; total probability normalizes to one
        ens = ens / np.real(np.einsum("mnlpp->", ens))
        return PiGameSpec(ensemble=ens, povm_l=tet)

    def test_value_independent_of_guess_for_blind_ensemble(self):
        g = self.uniform_pi_game()
        p = random_pid(2, 2, 2, 2, seed=98)
        v = pi_game_value(g, p)
        assert 0.0 <= v <= 1.0 + 1e-9

    def test_single_outcome_reduces_to_measurement_game(self):
        # L = {1} and a trivial-guess ensemble: the score only counts n' = n
        ens = np.zeros((1, 2, 1, 2, 2), dtype=complex)
        rng = rng_from_seed(99)
        from pidlab.devices import random_state

        ens[0, 0, 0] = random_state(rng, 2) * 0.5
        ens[0, 1, 0] = random_state(rng, 2) * 0.5
        g = PiGameSpec(ensemble=ens, povm_l=Povm(np.eye(1)[None, :, :]))
        p = random_pid(2, 1, 1, 2, seed=100)
        v = pi_game_value(g, p)
        # direct evaluation: sum_n Tr[Lambda_{n|0}[sigma_n]] with a trivial output
        # the application identity Lambda[s] = Tr[s^T J] pairs entries directly
        expect = 0.0
        for n in range(2):
            from pidlab.linalg import apply_choi

            expect += float(np.real(apply_choi(p.choi(0, n), ens[0, n, 0])[0, 0]))
        assert abs(v - expect) <= 1e-12

    def test_affine_in_strategy(self):
        g = self.uniform_pi_game()
        p1 = random_pid(2, 2, 2, 2, seed=101)
        p2 = random_pid(2, 2, 2, 2, seed=102)
        w = 0.41
        mixed = Pid(2, 2, w * p1.blocks + (1 - w) * p2.blocks)
        lhs = pi_game_value(g, mixed)
        rhs = w * pi_game_value(g, p1) + (1 - w) * pi_game_value(g, p2)
        assert abs(lhs - rhs) <= 1e-10

    def test_pi_pguess_simple_bounds_simple_strategies(self):
        g = self.uniform_pi_game()
        bench = pi_pguess_simple(g)
        for seed in (103, 104):
            s = random_simple_pid(2, 2, 2, 2, seed=seed).pid
            assert pi_game_value(g, s) <= bench.value + 1e-6
        # simulated simple devices stay below the benchmark too
        shape = SimulationShape(
            source_din=2, source_dout=2, source_programs=2, source_outcomes=2,
            target_din=2, target_dout=2, target_programs=2, target_outcomes=2,
            side_dim=2, n_branches=2, n_flags=2,
        )
        s = random_simple_pid(2, 2, 2, 2, seed=105).pid
        f = random_free_simulation(shape, seed=106)
        assert pi_game_value(g, apply_free_simulation(f, s)) <= bench.value + 1e-6

    def test_label_permutation_invariance(self):
        g = self.uniform_pi_game()
        perm = [2, 0, 3, 1]
        ens2 = g.ensemble[:, :, perm]
        pv2 = Povm(g.povm_l.effects[perm])
        g2 = PiGameSpec(ensemble=ens2, povm_l=pv2)
        assert abs(pi_pguess_simple(g).value - pi_pguess_simple(g2).value) <= 1e-6


class TestDualFrame:
    def test_tetrahedron_identity_target(self):
        tet = pauli_tetrahedron_povm()
        solver = ic_dual_frame(tet)
        target = np.kron(np.eye(2), np.eye(2))[None, None, :, :]
        frame = solver.solve(target)
        assert frame.residual <= 1e-10
        # the minimal-norm expansion of 1 (x) 1 is mu_l = 1 for every l
        for l in range(4):
            assert max_abs(frame.operators[0, 0, l] - np.eye(2)) <= 1e-8

    def test_projective_pair_not_ic(self):
        z_proj = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        with pytest.raises(ValueError):
            ic_dual_frame(Povm(z_proj))

    def test_round_trip_random_targets(self):
        tet = pauli_tetrahedron_povm()
        solver = ic_dual_frame(tet)
        rng = rng_from_seed(107)
        t = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        t = (t + t.conj().transpose(0, 1, 3, 2)) / 2
        frame = solver.solve(t)
        assert frame.residual <= 1e-8

    def test_witness_ensemble_zero_frame(self):
        tet = pauli_tetrahedron_povm()
        mu = np.zeros((1, 2, 4, 2, 2), dtype=complex)
        g = witness_ensemble(DualFrame(operators=mu, povm=tet, residual=0.0))
        assert g.is_valid(1e-9)
        assert max_abs(g.ensemble - np.eye(2) / (2 * 8)) <= 1e-12

    def test_witness_ensemble_random_frame_valid(self):
        tet = pauli_tetrahedron_povm()
        solver = ic_dual_frame(tet)
        rng = rng_from_seed(108)
        t = rng.standard_normal((2, 2, 4, 4)) + 1j * rng.standard_normal((2, 2, 4, 4))
        t = (t + t.conj().transpose(0, 1, 3, 2)) / 2
        frame = solver.solve(t)
        g = witness_ensemble(frame)
        defects = g.defects()
        assert defects["cp_defect"] <= 1e-10
        assert defects["normalization_defect"] <= 1e-9

    def test_separation_end_to_end(self):
        # a non-simple device is separated from simple ones in the induced game
        p = random_pid(2, 2, 2, 2, seed=139)  # strongly non-simple draw
        cert = roi(p)
        assert cert.r > 0.01
        tet = pauli_tetrahedron_povm()
        solver = ic_dual_frame(tet)
        frame = solver.solve(cert.alpha)
        g = witness_ensemble(frame)
        margin = pi_game_value(g, p) - pi_pguess_simple(g).value
        assert margin > 1e-6

    def test_separation_for_measurement_family(self):
        # with a trivial quantum output the IC POVM is the single trivial
        # effect and the game reduces to a measurement guessing game
        from pidlab.devices import pid_from_pmd

        device = pid_from_pmd(xz_pmd())
        cert = roi(device)
        trivial = Povm(np.eye(1)[None, :, :])
        frame = ic_dual_frame(trivial).solve(cert.alpha)
        g = witness_ensemble(frame)
        assert g.dout == 1 and g.n_l == 1
        margin = pi_game_value(g, device) - pi_pguess_simple(g).value
        assert margin > 1e-3
