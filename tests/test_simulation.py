import numpy as np
import pytest

from pidlab.compatibility import is_simple_pid, roi_primal
from pidlab.devices import (
    ClassicalChannel,
    FreeSimulation,
    Instrument,
    Pid,
    SimulationShape,
    identity_free_simulation,
    pad_pid_outcomes,
    pid_from_pmd,
    random_free_simulation,
    random_instrument,
    random_pid,
    random_pmd,
    random_simple_pid,
    random_state,
    random_stochastic,
    rng_from_seed,
    tensor_pid,
)
from pidlab.games import GameSpec, game_value, pguess_simple, witness_game
from pidlab.linalg import ChoiMatrix, choi_identity, choi_tensor, kron, max_abs
from pidlab.presets import maximally_entangled_assemblage, xz_pmd
from pidlab import simulation
from pidlab.simulation import (
    apply_free_simulation,
    apply_pmd_simulation,
    compose_parallel,
    compose_sequential,
    mix,
    reaching_simulation,
    seesaw_pguess,
)


def rand_sim_shape(side=2, k=2, l=2):
    return SimulationShape(
        source_din=2, source_dout=2, source_programs=2, source_outcomes=2,
        target_din=2, target_dout=2, target_programs=2, target_outcomes=2,
        side_dim=side, n_branches=k, n_flags=l,
    )


class TestApply:
    def test_identity_simulation_is_identity(self):
        p = random_pid(2, 2, 2, 2, seed=400)
        out = apply_free_simulation(identity_free_simulation(p), p)
        assert max_abs(out.blocks - p.blocks) <= 1e-12

    def test_trace_and_reprepare_gives_simple(self):
        p = random_pid(2, 2, 2, 2, seed=401)
        f0 = identity_free_simulation(p)
        sigma = random_state(rng_from_seed(402), 2)
        reprepare = ChoiMatrix(2, 2, kron(np.eye(2), sigma))
        f = FreeSimulation(
            shape=f0.shape, pre=f0.pre, post=Instrument((reprepare,)),
            p_cc=f0.p_cc, q_cc=f0.q_cc,
        )
        out = apply_free_simulation(f, p)
        assert out.is_valid(1e-9)
        assert is_simple_pid(out).simple

    def test_outputs_always_valid(self):
        shape = rand_sim_shape()
        for seed in range(25):
            p = random_pid(2, 2, 2, 2, seed=500 + seed)
            f = random_free_simulation(shape, seed=600 + seed)
            out = apply_free_simulation(f, p)
            assert out.is_valid(1e-9), f"seed {seed}: {out.defects()}"

    def test_simple_maps_to_simple(self):
        shape = rand_sim_shape()
        for seed in range(15):
            p = random_simple_pid(2, 2, 2, 2, seed=700 + seed).pid
            f = random_free_simulation(shape, seed=800 + seed)
            assert is_simple_pid(apply_free_simulation(f, p)).simple, f"seed {seed}"

    def test_linear_in_source_blocks(self):
        shape = rand_sim_shape()
        f = random_free_simulation(shape, seed=403)
        p1 = random_pid(2, 2, 2, 2, seed=404)
        p2 = random_pid(2, 2, 2, 2, seed=405)
        w = 0.3
        mixed = Pid(2, 2, w * p1.blocks + (1 - w) * p2.blocks)
        lhs = apply_free_simulation(f, mixed).blocks
        rhs = (
            w * apply_free_simulation(f, p1).blocks
            + (1 - w) * apply_free_simulation(f, p2).blocks
        )
        assert max_abs(lhs - rhs) <= 1e-10


class TestApplyPmd:
    def test_identity_components(self):
        m = random_pmd(rng_from_seed(406), 2, 2, 2)
        post = Instrument((choi_identity(2),))
        p_cc = ClassicalChannel(np.eye(2))
        q_cc = ClassicalChannel(np.eye(2))
        out = apply_pmd_simulation(post, p_cc, q_cc, m)
        assert max_abs(out.effects - m.effects) <= 1e-12

    def test_outcome_merging_gives_trivial_family(self):
        m = random_pmd(rng_from_seed(407), 2, 2, 2)
        post = Instrument((choi_identity(2),))
        p_cc = ClassicalChannel(np.eye(2))
        q_cc = ClassicalChannel(np.ones((1, 2)))  # merge both outcomes
        out = apply_pmd_simulation(post, p_cc, q_cc, m)
        assert out.n_outcomes == 1
        assert max_abs(out.effects[:, 0] - np.eye(2)) <= 1e-12

    def test_random_simulation_preserves_validity_and_compatibility(self):
        from pidlab.compatibility import is_compatible_pmd

        rng = rng_from_seed(408)
        z2 = np.diag([1.0, -1.0]).astype(complex)
        compatible = random_pmd(rng, 2, 1, 2)  # single program, trivially compatible
        post = random_instrument(rng, 2, 2, 2)
        p_cc = ClassicalChannel(random_stochastic(rng, 1 * 2, 2 * 2))
        q_cc = ClassicalChannel(random_stochastic(rng, 2, 2 * 2))
        out = apply_pmd_simulation(post, p_cc, q_cc, compatible)
        assert out.is_valid(1e-9)
        assert is_compatible_pmd(out).compatible


class TestPmdDevicePictureConsistency:
    def test_heisenberg_matches_device_picture(self):
        # the measurement-family transformation and the device-picture
        # transformation (instrument in the pre-processing, branch register
        # read out by the post-processing) are two independent code paths
        # that must give the same family
        rng = rng_from_seed(61)
        d_target, d_source = 2, 2
        n_k, n_l, n_y0, n_y1, n_x0, n_x1 = 2, 2, 2, 3, 2, 2
        m = random_pmd(rng, d_source, n_x0, n_x1)
        k_inst = random_instrument(rng, d_target, d_source, n_k)
        p_cc = ClassicalChannel(random_stochastic(rng, n_x0 * n_l, n_y0 * n_k))
        q_cc = ClassicalChannel(random_stochastic(rng, n_y1, n_x1 * n_l))
        out_pmd = apply_pmd_simulation(k_inst, p_cc, q_cc, m)

        register = [np.zeros((n_k, n_k), dtype=complex) for _ in range(n_k)]
        for k in range(n_k):
            register[k][k, k] = 1.0
        from pidlab.linalg import choi_of_prepare

        pre_mat = sum(
            choi_tensor(k_inst.branches[k], choi_of_prepare(register[k])).mat
            for k in range(n_k)
        )
        pre = ChoiMatrix(d_target, d_source * n_k, pre_mat)
        post = Instrument(tuple(ChoiMatrix(n_k, 1, register[k]) for k in range(n_k)))
        shape = SimulationShape(
            source_din=d_source, source_dout=1, source_programs=n_x0,
            source_outcomes=n_x1, target_din=d_target, target_dout=1,
            target_programs=n_y0, target_outcomes=n_y1,
            side_dim=n_k, n_branches=n_k, n_flags=n_l,
        )
        f = FreeSimulation(shape=shape, pre=pre, post=post, p_cc=p_cc, q_cc=q_cc)
        out_pid = apply_free_simulation(f, pid_from_pmd(m))
        assert max_abs(out_pid.blocks - pid_from_pmd(out_pmd).blocks) <= 1e-12


class TestCompose:
    def test_identity_composition_acts_like_f(self):
        p = random_pid(2, 2, 2, 2, seed=410)
        f = random_free_simulation(rand_sim_shape(), seed=411)
        ident = identity_free_simulation(apply_free_simulation(f, p))
        comp = compose_sequential(ident, f)
        lhs = apply_free_simulation(comp, p).blocks
        rhs = apply_free_simulation(f, p).blocks
        assert max_abs(lhs - rhs) <= 1e-12

    def test_sequential_matches_double_application(self):
        for seed in range(8):
            p = random_pid(2, 2, 2, 2, seed=420 + seed)
            f1 = random_free_simulation(rand_sim_shape(side=2), seed=430 + seed)
            f2 = random_free_simulation(rand_sim_shape(side=2), seed=440 + seed)
            comp = compose_sequential(f2, f1)
            lhs = apply_free_simulation(comp, p).blocks
            rhs = apply_free_simulation(f2, apply_free_simulation(f1, p)).blocks
            assert max_abs(lhs - rhs) <= 1e-9, f"seed {seed}"

    def test_sequential_associative_at_action_level(self):
        p = random_pid(2, 2, 2, 2, seed=450)
        fs = [random_free_simulation(rand_sim_shape(side=2), seed=451 + i) for i in range(3)]
        left = compose_sequential(fs[2], compose_sequential(fs[1], fs[0]))
        right = compose_sequential(compose_sequential(fs[2], fs[1]), fs[0])
        lhs = apply_free_simulation(left, p).blocks
        rhs = apply_free_simulation(right, p).blocks
        assert max_abs(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (
                random_pid(2, 2, 2, 2, seed=460),
                random_simple_pid(2, 2, 2, 2, seed=461).pid,
                random_free_simulation(rand_sim_shape(side=1, k=2, l=2), seed=462),
                random_free_simulation(rand_sim_shape(side=2, k=1, l=2), seed=463),
            ),
            # unequal sizes, so pre-processing legs listed out of order no longer line up
            lambda: (
                random_pid(2, 3, 2, 2, seed=1),
                random_pid(3, 2, 2, 1, seed=2),
                random_free_simulation(
                    SimulationShape(2, 3, 2, 2, 3, 2, 2, 3, side_dim=2, n_branches=2, n_flags=2), 11
                ),
                random_free_simulation(
                    SimulationShape(3, 2, 2, 1, 2, 3, 1, 2, side_dim=3, n_branches=1, n_flags=2), 12
                ),
            ),
        ],
        ids=["equal-dims", "unequal-dims"],
    )
    def test_parallel_matches_tensor_application(self, make):
        p1, p2, f1, f2 = make()
        par = compose_parallel(f1, f2)
        lhs = apply_free_simulation(par, tensor_pid(p1, p2)).blocks
        rhs = tensor_pid(
            apply_free_simulation(f1, p1), apply_free_simulation(f2, p2)
        ).blocks
        assert max_abs(lhs - rhs) <= 1e-9


class TestMix:
    def test_degenerate_weights(self):
        p = random_pid(2, 2, 2, 2, seed=470)
        f1 = random_free_simulation(rand_sim_shape(), seed=471)
        f2 = random_free_simulation(rand_sim_shape(), seed=472)
        m = mix([f1, f2], [1.0, 0.0])
        lhs = apply_free_simulation(m, p).blocks
        rhs = apply_free_simulation(f1, p).blocks
        assert max_abs(lhs - rhs) <= 1e-10

    def test_even_mixture_averages_actions(self):
        p = random_pid(2, 2, 2, 2, seed=473)
        f1 = random_free_simulation(rand_sim_shape(), seed=474)
        f2 = random_free_simulation(rand_sim_shape(), seed=475)
        m = mix([f1, f2], [0.5, 0.5])
        lhs = apply_free_simulation(m, p).blocks
        rhs = 0.5 * (
            apply_free_simulation(f1, p).blocks + apply_free_simulation(f2, p).blocks
        )
        assert max_abs(lhs - rhs) <= 1e-9

    def test_mix_identity_with_trace_and_reprepare(self):
        p = random_pid(2, 2, 2, 2, seed=476)
        f0 = identity_free_simulation(p)
        sigma = random_state(rng_from_seed(477), 2)
        f1 = FreeSimulation(
            shape=f0.shape, pre=f0.pre,
            post=Instrument((ChoiMatrix(2, 2, kron(np.eye(2), sigma)),)),
            p_cc=f0.p_cc, q_cc=f0.q_cc,
        )
        w = 0.7
        m = mix([f0, f1], [w, 1 - w])
        lhs = apply_free_simulation(m, p).blocks
        rhs = w * p.blocks + (1 - w) * apply_free_simulation(f1, p).blocks
        assert max_abs(lhs - rhs) <= 1e-9

    def test_mixture_output_valid(self):
        p = random_pid(2, 2, 2, 2, seed=478)
        fs = [random_free_simulation(rand_sim_shape(), seed=480 + i) for i in range(3)]
        m = mix(fs, [0.2, 0.5, 0.3])
        assert m.is_valid(1e-9)
        assert apply_free_simulation(m, p).is_valid(1e-9)


    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 0.0], [0.7, 0.2], [1.5, -0.5]])
    def test_weights_rejected_unless_a_distribution(self, weights):
        fs = [random_free_simulation(rand_sim_shape(), seed=480 + i) for i in range(2)]
        with pytest.raises(ValueError, match="mixing weights"):
            mix(fs, weights)


class TestReachability:
    def test_any_device_reaches_any_simple_target(self):
        for seed in range(5):
            p = random_pid(2, 2, 2, 2, seed=490 + seed)
            target = random_simple_pid(2, 2, 2, 3, seed=495 + seed)
            f = reaching_simulation(p, target.mother, target.table)
            out = apply_free_simulation(f, p)
            assert max_abs(out.blocks - target.pid.blocks) <= 1e-9, f"seed {seed}"

    @pytest.mark.parametrize("bad", [np.nan, 2.0])
    def test_table_rejected_unless_a_distribution(self, bad):
        target = random_simple_pid(2, 2, 2, 3, seed=495)
        table = target.table.copy()
        table[0, 0, 0] = bad
        with pytest.raises(ValueError, match="reaching table"):
            reaching_simulation(random_pid(2, 2, 2, 2, seed=490), target.mother, table)


class TestSeesaw:
    def bell_game(self):
        # two-outcome qubit game: referee checks for the entangled pair intact
        from pidlab.linalg import phi_plus

        proj = phi_plus(2) / 2
        effects = np.stack([proj, np.eye(4) - proj])[None, :, :, :]
        return GameSpec(effects=effects, d_ref=2, dout=2)

    def test_witness_game_identity_strategy_normalization(self):
        p = maximally_entangled_assemblage(xz_pmd())
        from pidlab.compatibility import roi

        cert = roi(p)
        g = witness_game(cert, n_dummy=16)
        total = cert.alpha.sum(axis=(0, 1))
        c = float(np.linalg.eigvalsh((total + total.conj().T) / 2)[-1])
        embedded = pad_pid_outcomes(p, g.n_n)
        val = game_value(g, embedded)
        expect = p.n_programs * (1.0 + cert.r) / c
        assert abs(val - expect) <= 1e-6

    def test_seesaw_finds_bell_preservation(self):
        p = random_pid(2, 2, 2, 2, seed=510)
        g = self.bell_game()
        res = seesaw_pguess(p, g, restarts=2, iters=8, seed=0, side_dim=2, n_branches=1)
        # value is certified by the returned strategy
        achieved = game_value(g, apply_free_simulation(res.simulation, p))
        assert abs(res.value - achieved) <= 1e-9
        # the identity wiring would score (1/2) Tr[phi/2 . phi] + ... ~ 1, and the
        # trivial guess floor is 1/2; the search must at least clear the floor
        assert res.value >= 0.5 - 1e-6

    def test_seesaw_simple_source_capped_by_benchmark(self):
        s = random_simple_pid(2, 2, 2, 2, seed=511).pid
        g = self.bell_game()
        res = seesaw_pguess(s, g, restarts=2, iters=8, seed=1, side_dim=2, n_branches=1)
        bench = pguess_simple(g).value
        assert res.value <= bench + 1e-6

    def test_seesaw_respects_robustness_cap(self):
        p = maximally_entangled_assemblage(xz_pmd())
        cert = roi_primal(p)
        g = witness_game(cert, n_dummy=8)
        res = seesaw_pguess(p, g, restarts=2, iters=6, seed=2, side_dim=2, n_branches=1)
        bench = pguess_simple(g).value
        assert res.value <= (1.0 + cert.r) * bench + 1e-5


@pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"iters": 0}, {"restarts": -1, "iters": 3}])
def test_seesaw_rejects_empty_search(kwargs):
    p = random_pid(2, 2, 2, 2, seed=1)
    game = witness_game(roi_primal(p), n_dummy=2)
    with pytest.raises(ValueError, match="restarts >= 1 and iters >= 1"):
        seesaw_pguess(p, game, **kwargs)


GRADIENT_SHAPES = [
    SimulationShape.from_wings((2, 2, 2, 2), (2, 2, 2, 3), side_dim=2, n_branches=2, n_flags=2),
    SimulationShape.from_wings((1, 2, 3, 2), (2, 1, 2, 2), side_dim=1, n_branches=2, n_flags=1),
    SimulationShape.from_wings((2, 3, 2, 2), (3, 2, 2, 2), side_dim=2, n_branches=1, n_flags=3),
]


def _random_game(shape: SimulationShape, seed: int) -> GameSpec:
    """Hermitian (not necessarily positive) score effects on the target shape of ``shape``."""
    d = shape.target_din * shape.target_dout
    rng = rng_from_seed(seed)
    z = rng.standard_normal((shape.target_programs, shape.target_outcomes, d, d, 2)) @ [1, 1j]
    return GameSpec(z + z.conj().swapaxes(-1, -2), d_ref=shape.target_din, dout=shape.target_dout)


@pytest.mark.parametrize("shape", GRADIENT_SHAPES, ids=["general", "no-side", "one-branch"])
def test_seesaw_gradients_pair_to_the_game_value(shape):
    # the value is linear in each factor the see-saw optimizes, so pairing that
    # factor with its gradient gives the value of the transformed device back
    for seed in range(3):
        p = random_pid(*shape.wing("source"), seed=530 + seed)
        f = random_free_simulation(shape, seed=540 + seed)
        g = _random_game(shape, seed=550 + seed)
        value = game_value(g, apply_free_simulation(f, p))
        factors = simulation._factors(f, p)
        factors["routing"] = simulation._contract({"q": factors["q"], "p": factors["p"]}, "routing")
        for wrt in ("routing", "pre", "post"):
            grad = simulation._seesaw_grad(p, g, f, wrt)
            paired = np.sum(grad * factors[wrt]).real
            assert abs(paired - value) <= 1e-12, (wrt, seed, paired, value)


def test_seesaw_plans_each_contraction_once(monkeypatch):
    calls = []
    plan = np.einsum_path
    monkeypatch.setattr(np, "einsum_path", lambda *a, **k: calls.append(a[0]) or plan(*a, **k))
    simulation._path.cache_clear()
    p = random_pid(2, 2, 2, 2, seed=560)
    g = TestSeesaw().bell_game()
    seesaw_pguess(p, g, restarts=2, iters=2, seed=0, side_dim=2, n_branches=1)
    assert calls
    calls.clear()
    seesaw_pguess(p, g, restarts=2, iters=2, seed=1, side_dim=2, n_branches=1)
    assert calls == []
