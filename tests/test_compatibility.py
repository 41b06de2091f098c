import dataclasses
import os

import numpy as np
import pytest

from pidlab import compatibility, io, sdp
from pidlab.compatibility import (
    CERT_TOL,
    ROI_AGREE_TOL,
    build_incoherent_extension,
    enumerate_strategies,
    gather_responses,
    is_compatible_pmd,
    is_simple_pid,
    readout_pmd,
    response_maps,
    roi,
    roi_dual,
    roi_pmd,
    roi_primal,
    scatter_responses,
    simplicity_residuals,
    verify_roi_certificate,
    witness_value,
)
from pidlab.devices import (
    Instrument,
    Pid,
    Pmd,
    pid_from_pmd,
    random_pid,
    random_pmd,
    random_simple_pid,
    rng_from_seed,
    steer,
)
from pidlab.linalg import ChoiMatrix, choi_from_kraus, kron, max_abs, min_eig
from pidlab.presets import (
    PAULI_X,
    PAULI_Z,
    maximally_entangled_assemblage,
    mub_pair_pmd,
    projective_pmd,
    xyz_pmd,
    xz_pmd,
)

# Exact robustness of the X/Z pair (and of the assemblage it steers from the
# maximally entangled state), certified analytically in TestXZOracle below.
XZ_ROI_EXACT = 3.0 - 2.0 * np.sqrt(2.0)


def _oracle_devices():
    """Every device fixture, the benchmark grid's base devices and a near-boundary draw."""
    fixture_dir = os.path.join(os.path.dirname(__file__), "fixtures")
    out = {}
    for name in ("entangled_xz_assemblage", "simple_device", "steered_device", "xz_pair"):
        dev = io.read_device(os.path.join(fixture_dir, name + ".json"))
        out[name] = pid_from_pmd(dev) if isinstance(dev, Pmd) else dev
    for dims in ((2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 2), (2, 3, 4, 2)):
        out[f"random_pid{dims}"] = random_pid(*dims, seed=1)
    out["random_simple_pid"] = random_simple_pid(2, 2, 2, 2, seed=1).pid
    out["mub_qutrit"] = maximally_entangled_assemblage(mub_pair_pmd(3))
    out["near_boundary"] = random_pid(2, 2, 2, 2, seed=384001152)
    return out


ORACLE_DEVICES = _oracle_devices()


class TestXZOracle:
    """Independent certificates pinning the benchmark value before trusting SDPs."""

    def assemblage(self):
        return maximally_entangled_assemblage(xz_pmd())

    def test_analytic_primal_feasible_point(self):
        # eta_(a,b) = (c*1 + u*(sign_a X + sign_b Z)) / 8 is feasible exactly at
        # c = 4 - 2*sqrt(2), u = 2*sqrt(2) - 2, so r <= c - 1 = 3 - 2*sqrt(2).
        c = 4.0 - 2.0 * np.sqrt(2.0)
        u = 2.0 * np.sqrt(2.0) - 2.0
        p = self.assemblage()
        signs = [1.0, -1.0]
        etas = {}
        for a in range(2):
            for b in range(2):
                etas[(a, b)] = (
                    c * np.eye(2) + u * (signs[a] * PAULI_X + signs[b] * PAULI_Z)
                ) / 8.0
        for eta in etas.values():
            assert min_eig(eta) >= -1e-12
        for x0, pauli in enumerate((PAULI_X, PAULI_Z)):
            for x1 in range(2):
                cover = sum(etas[f] for f in etas if f[x0] == x1)
                assert min_eig(cover - p.blocks[x0, x1]) >= -1e-12
        total = sum(e.trace().real for e in etas.values())
        assert abs(total - c) < 1e-12
        assert abs((total - 1.0) - XZ_ROI_EXACT) < 1e-12

    def test_analytic_dual_feasible_point(self):
        # alpha_(a|x) = beta0 (1 + sign_a P_x), beta_x = 1 gives the matching bound.
        beta0 = 2.0 / (2.0 + np.sqrt(2.0))
        p = self.assemblage()
        signs = [1.0, -1.0]
        alphas = np.stack(
            [
                np.stack([beta0 * (np.eye(2) + signs[a] * pauli) for a in range(2)])
                for pauli in (PAULI_X, PAULI_Z)
            ]
        )
        for x0 in range(2):
            for x1 in range(2):
                assert min_eig(alphas[x0, x1]) >= -1e-12
        for f in enumerate_strategies(2, 2):
            acc = sum(
                np.eye(2) - alphas[x0, f.mapping[x0]] for x0 in range(2)
            )
            assert min_eig(acc) >= -1e-12
        assert abs(witness_value(alphas, p) - XZ_ROI_EXACT) < 1e-12

    def test_symmetric_grid_corroboration(self):
        # coarse sweep over the symmetric family confirms no better mixing weights
        best = np.inf
        for c in np.linspace(1.0, 1.5, 251):
            for u in np.linspace(0.0, 1.5, 151):
                if c < np.sqrt(2.0) * u - 1e-12:
                    continue  # eta not PSD
                if c - 1.0 < abs(u - 1.0) - 1e-12:
                    continue  # covering constraint violated
                best = min(best, c - 1.0)
        assert abs(best - XZ_ROI_EXACT) < 5e-3


class TestSimplicity:
    def test_single_program_is_simple(self):
        p = random_pid(2, 2, 1, 3, seed=21)
        verdict = is_simple_pid(p)
        assert verdict.simple
        assert max(simplicity_residuals(p, verdict.certificate).values()) <= CERT_TOL
        recon = np.zeros_like(p.blocks)
        for f in verdict.certificate.strategies:
            recon[0, f.mapping[0]] += verdict.certificate.mother.branches[f.index].mat
        assert max_abs(recon - p.blocks) <= 1e-7

    def test_product_extension_steering_is_simple(self):
        v = kron(np.eye(2), np.array([[1.0], [0.0]]))
        e = choi_from_kraus([v])
        m = random_pmd(rng_from_seed(22), 2, 2, 2)
        verdict = is_simple_pid(steer(e, m))
        assert verdict.simple

    def test_xz_assemblage_is_not_simple(self):
        p = maximally_entangled_assemblage(xz_pmd())
        verdict = is_simple_pid(p)
        assert not verdict.simple
        w = verdict.witness
        assert w is not None and witness_value(w.alpha, p) > 1e-3

    def test_witness_soundness_on_simple_devices(self):
        p = maximally_entangled_assemblage(xz_pmd())
        w = is_simple_pid(p).witness
        for seed in range(50):
            s = random_simple_pid(1, 2, 2, 2, seed=seed).pid
            assert witness_value(w.alpha, s) <= 1e-6

    def test_separable_source_assemblage_is_simple(self):
        # xi = sum_g eta_g (x) eps_g steered by any measurement family is simple
        rng = rng_from_seed(30)
        from pidlab.devices import random_state
        from pidlab.linalg import choi_of_prepare, kron as lkron

        weights = np.array([0.45, 0.3, 0.25])
        xi = sum(
            w * lkron(random_state(rng, 2), random_state(rng, 2)) for w in weights
        )
        source = choi_of_prepare(xi)
        m = random_pmd(rng, 2, 2, 2)
        assemblage = steer(source, m)
        assert assemblage.din == 1
        assert is_simple_pid(assemblage).simple

    def test_rejected_certificate_raises(self, monkeypatch):
        p = random_simple_pid(2, 2, 2, 2, seed=1).pid
        monkeypatch.setattr(
            compatibility, "verify_roi_certificate", lambda p, cert: {"simple_cp": 1e-3}
        )
        with pytest.raises(ArithmeticError, match="simple_cp"):
            is_simple_pid(p)

    def test_negated_blocks_rejected_upstream(self):
        p = random_pid(2, 2, 2, 2, seed=23)
        assert p.is_valid()


class TestRoi:
    def test_simple_devices_have_zero_robustness(self):
        for seed in range(10):
            s = random_simple_pid(2, 2, 2, 2, seed=seed).pid
            assert roi_primal(s).r <= 1e-7

    def test_xz_benchmark_primal_dual_sem(self):
        p = maximally_entangled_assemblage(xz_pmd())
        prim = roi_primal(p)
        dual = roi_dual(p)
        assert abs(prim.r - XZ_ROI_EXACT) <= 2e-4
        assert abs(dual.r - XZ_ROI_EXACT) <= 2e-4
        assert abs(prim.r - dual.r) <= 1e-6

    def test_primal_dual_agree_on_random_devices(self):
        for seed in range(10):
            p = random_pid(2, 2, 2, 2, seed=100 + seed)
            prim = roi_primal(p)
            dual = roi_dual(p)
            assert abs(prim.r - dual.r) <= 1e-6
            assert dual.r <= prim.r + 1e-6  # weak duality

    def test_near_boundary_device_reaches_optimality(self):
        # roi_dual puts this device's robustness at 2.4e-5, close to the
        # simple boundary; roi_primal raises unless the solve is Optimal
        p = random_pid(2, 2, 2, 2, seed=384001152)
        assert abs(roi_primal(p).r - roi_dual(p).r) <= 1e-6

    def test_certificates_verify(self):
        p = maximally_entangled_assemblage(xz_pmd())
        cert = roi(p)
        res = verify_roi_certificate(p, cert)
        assert max(res.values()) <= 1e-6

    def test_roi_is_one_solve(self, monkeypatch):
        calls = []
        real_solve = sdp.solve

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(sdp, "solve", counting_solve)
        roi(maximally_entangled_assemblage(xz_pmd()))
        assert len(calls) == 1

    def test_roi_rejects_corrupted_certificate(self, monkeypatch):
        p = maximally_entangled_assemblage(xz_pmd())
        cert = roi_primal(p)
        alpha = cert.alpha.copy()
        vals, vecs = np.linalg.eigh(alpha[0, 0])
        vals[0] = -1e-5
        alpha[0, 0] = (vecs * vals) @ vecs.conj().T
        bad = dataclasses.replace(cert, alpha=alpha)
        monkeypatch.setattr(compatibility, "roi_primal", lambda *args: bad)
        with pytest.raises(ArithmeticError, match="alpha_psd"):
            roi(p)

    @pytest.mark.parametrize("name", sorted(ORACLE_DEVICES))
    def test_roi_agrees_with_independent_dual(self, name):
        p = ORACLE_DEVICES[name]
        assert abs(roi(p).r - roi_dual(p).r) <= ROI_AGREE_TOL

    def test_certificate_checks_noise_side(self):
        # r = 9.2e-4: the noise itself carries CP and TP defects of ~5e-7,
        # which are the solver's error divided by r.
        p = random_pid(2, 2, 2, 2, seed=1003)
        cert = roi_primal(p)
        res = verify_roi_certificate(p, cert)
        assert res["noise_psd"] <= CERT_TOL
        assert res["noise_tp"] <= CERT_TOL
        # give r * noise an eigenvalue of -1e-5, keeping the mixing identity exact
        scaled = cert.r * cert.noise.blocks
        vals, vecs = np.linalg.eigh(scaled[0, 0])
        vals[0] = -1e-5
        scaled[0, 0] = (vecs * vals) @ vecs.conj().T
        bad = dataclasses.replace(
            cert,
            noise=Pid(2, 2, scaled / cert.r),
            simple_mix=Pid(2, 2, (p.blocks + scaled) / (1.0 + cert.r)),
        )
        res = verify_roi_certificate(p, bad)
        assert res["mixing_identity"] <= CERT_TOL
        assert abs(res["noise_psd"] - 1e-5) <= 1e-9

    def test_certificate_recomputes_mother_residuals(self):
        p = random_simple_pid(2, 2, 2, 2, seed=1).pid
        cert = roi_primal(p)
        assert max(verify_roi_certificate(p, cert).values()) <= CERT_TOL
        branch = cert.simplicity.mother.branches[0].mat
        res = verify_roi_certificate(p, _with_mother_branch(cert, branch + 1e-5 * np.eye(4)))
        assert res["simple_matching"] > CERT_TOL
        assert res["simple_tp"] > CERT_TOL

    def test_certificate_checks_mother_cp(self):
        p = random_simple_pid(2, 2, 2, 2, seed=1).pid
        cert = roi_primal(p)
        vals, vecs = np.linalg.eigh(cert.simplicity.mother.branches[0].mat)
        vals[0] = -1e-5
        res = verify_roi_certificate(
            p, _with_mother_branch(cert, (vecs * vals) @ vecs.conj().T)
        )
        assert abs(res["simple_cp"] - 1e-5) <= 1e-9

    @pytest.mark.parametrize(
        "field, message",
        [("simplicity", "simple_mix but no simplicity"), ("beta", "alpha but no beta")],
    )
    def test_certificate_missing_field_named(self, field, message):
        p = random_pid(2, 2, 2, 2, seed=1)
        cert = dataclasses.replace(roi_primal(p), **{field: None})
        with pytest.raises(ValueError, match=message):
            verify_roi_certificate(p, cert)

    def test_optimal_noise_mixture_is_simple(self):
        p = random_pid(2, 2, 2, 2, seed=139)  # strongly non-simple draw
        cert = roi_primal(p)
        assert cert.r > 1e-3
        w = cert.r / (1.0 + cert.r)
        mixed = Pid(2, 2, (1 - w) * p.blocks + w * cert.noise.blocks)
        assert roi_primal(mixed).r <= 1e-6

    def test_mixing_with_simple_never_increases(self):
        p = random_pid(2, 2, 2, 2, seed=139)
        s = random_simple_pid(2, 2, 2, 2, seed=7).pid
        base = roi_primal(p).r
        for w in (0.25, 0.5, 0.75):
            mixed = Pid(2, 2, (1 - w) * p.blocks + w * s.blocks)
            assert roi_primal(mixed).r <= base + 1e-6

    def test_epr_mub_primal_dual_agreement(self):
        for pmd in (xz_pmd(), xyz_pmd()):
            p = maximally_entangled_assemblage(pmd)
            prim = roi_primal(p)
            dual = roi_dual(p)
            assert abs(prim.r - dual.r) <= 1e-6


class TestPmdCompatibility:
    def test_commuting_projective_pair_compatible(self):
        z2 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        z2b = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        verdict = is_compatible_pmd(projective_pmd([z2, z2b]))
        assert verdict.compatible
        assert verdict.parent.is_valid(1e-6)

    def test_xz_incompatible(self):
        verdict = is_compatible_pmd(xz_pmd())
        assert not verdict.compatible
        assert verdict.witness is not None

    def test_single_program_compatible(self):
        m = random_pmd(rng_from_seed(24), 2, 1, 3)
        assert is_compatible_pmd(m).compatible

    def test_parent_reproduces_effects(self):
        z2 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        z2b = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        m = projective_pmd([z2, z2b])
        verdict = is_compatible_pmd(m)
        g = verdict.parent.effects
        table = verdict.post_processing
        recon = np.einsum("yxg,gpq->xypq", table, g)
        assert max_abs(recon - m.effects) <= 1e-6

    def test_roi_pmd_xz_value(self):
        cert = roi_pmd(xz_pmd())
        assert abs(cert.r - XZ_ROI_EXACT) <= 2e-4
        assert abs(cert.r - cert.dual_r) <= 1e-6

    def test_roi_pmd_matching_assemblage_value(self):
        # the maximally entangled marginal makes the two robustness values equal
        a = roi_primal(maximally_entangled_assemblage(xz_pmd())).r
        b = roi_pmd(xz_pmd()).r
        assert abs(a - b) <= 1e-6

    def test_visibility_threshold(self):
        eta = 1.0 / np.sqrt(2.0)
        m = xz_pmd()
        noisy = eta * m.effects + (1 - eta) * np.broadcast_to(
            np.eye(2) / 2, m.effects.shape
        )
        cert = roi_pmd(Pmd(noisy))
        assert cert.r <= 1e-4
        slightly = Pmd((eta + 0.02) * m.effects + (1 - eta - 0.02) * np.broadcast_to(
            np.eye(2) / 2, m.effects.shape
        ))
        assert roi_pmd(slightly).r > 1e-5

    def test_compatible_pmd_zero_roi(self):
        z2 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        z2b = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        assert roi_pmd(projective_pmd([z2, z2b])).r <= 1e-7


class TestIncoherentExtension:
    def test_single_program_reconstruction(self):
        p = random_pid(2, 2, 1, 2, seed=25)
        verdict = is_simple_pid(p)
        ext = build_incoherent_extension(verdict.certificate)
        m = readout_pmd(verdict.certificate.strategies, 1, 2)
        recon = steer(ext, m)
        assert max_abs(recon.blocks - p.blocks) <= 1e-7

    def test_random_simple_reconstruction(self):
        for seed in (26, 27, 28):
            p = random_simple_pid(2, 2, 2, 2, seed=seed).pid
            verdict = is_simple_pid(p)
            assert verdict.simple
            cert = verdict.certificate
            ext = build_incoherent_extension(cert)
            m = readout_pmd(cert.strategies, p.n_programs, p.n_outcomes)
            recon = steer(ext, m)
            assert max_abs(recon.blocks - p.blocks) <= 1e-7

    def test_environment_marginal_is_classical(self):
        p = random_simple_pid(2, 2, 2, 2, seed=29).pid
        cert = is_simple_pid(p).certificate
        ext = build_incoherent_extension(cert)
        from pidlab.linalg import partial_trace

        n_env = cert.mother.n_branches
        env_choi = partial_trace(ext.mat, (2, 2, n_env), keep=(2,))
        off = env_choi - np.diag(np.diag(env_choi))
        assert max_abs(off) <= 1e-12


class TestFaithfulness:
    def test_simplicity_iff_zero_roi(self):
        for seed in range(30):
            if seed % 2:
                p = random_simple_pid(2, 2, 2, 2, seed=seed).pid
            else:
                p = random_pid(2, 2, 2, 2, seed=seed)
            verdict = is_simple_pid(p)
            r = roi_primal(p).r
            assert verdict.simple == (r <= 1e-6)


def _with_mother_branch(cert, mat):
    """``cert`` with the first branch of its mother instrument replaced by ``mat``."""
    mother = cert.simplicity.mother
    branches = (ChoiMatrix(mother.din, mother.dout, mat), *mother.branches[1:])
    simplicity = dataclasses.replace(cert.simplicity, mother=Instrument(branches))
    return dataclasses.replace(cert, simplicity=simplicity)


def test_strategy_cap():
    with pytest.raises(ValueError):
        enumerate_strategies(4, 16)


def _gather_loop(strategies, blocks):
    """``sum_x0 blocks[x0, f(x0)]`` per response, as a Python loop."""
    return np.stack([sum(blocks[x0, x1] for x0, x1 in enumerate(f.mapping)) for f in strategies])


def _scatter_loop(strategies, per_f, n_programs, n_outcomes):
    """``out[x0, f(x0)] += per_f[f]`` over responses in order, as a Python loop."""
    out = np.zeros((n_programs, n_outcomes, *per_f.shape[1:]), dtype=per_f.dtype)
    for f in strategies:
        for x0 in range(n_programs):
            out[x0, f.mapping[x0]] += per_f[f.index]
    return out


@pytest.mark.parametrize("n_programs, n_outcomes", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4)])
def test_response_table_matches_loops(n_programs, n_outcomes):
    rng = np.random.default_rng(np.random.Philox(48))
    strategies = enumerate_strategies(n_programs, n_outcomes)
    maps = response_maps(strategies)
    assert maps.shape == (len(strategies), n_programs)
    assert [tuple(row) for row in maps.tolist()] == [f.mapping for f in strategies]
    blocks = rng.standard_normal((n_programs, n_outcomes, 3, 3, 2)) @ [1.0, 1j]
    got = gather_responses(maps, blocks)
    assert got.tobytes() == _gather_loop(strategies, blocks).tobytes()
    per_f = rng.standard_normal((len(strategies), 3, 3, 2)) @ [1.0, 1j]
    got = scatter_responses(maps, per_f, n_outcomes)
    assert got.tobytes() == _scatter_loop(strategies, per_f, n_programs, n_outcomes).tobytes()
