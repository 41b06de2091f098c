import dataclasses

import numpy as np
import pytest

from pidlab.compatibility import (
    CERT_TOL,
    build_incoherent_extension,
    enumerate_strategies,
    is_compatible_pmd,
    is_simple_pid,
    readout_pmd,
    roi,
    roi_dual,
    roi_pmd,
    roi_primal,
    verify_roi_certificate,
    witness_value,
)
from pidlab.devices import (
    Pid,
    Pmd,
    random_pid,
    random_pmd,
    random_simple_pid,
    rng_from_seed,
    steer,
    validate_pid,
)
from pidlab.linalg import choi_from_kraus, kron, max_abs, min_eig
from pidlab.presets import (
    PAULI_X,
    PAULI_Z,
    maximally_entangled_assemblage,
    projective_pmd,
    xyz_pmd,
    xz_pmd,
)

# Exact robustness of the X/Z pair (and of the assemblage it steers from the
# maximally entangled state), certified analytically in TestXZOracle below.
XZ_ROI_EXACT = 3.0 - 2.0 * np.sqrt(2.0)


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
        assert verdict.certificate.ok()
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

    def test_negated_blocks_rejected_upstream(self):
        p = random_pid(2, 2, 2, 2, seed=23)
        assert validate_pid(p).ok()


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

    def test_certificates_verify(self):
        p = maximally_entangled_assemblage(xz_pmd())
        cert = roi(p)
        res = verify_roi_certificate(p, cert)
        assert max(res.values()) <= 1e-6

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


def test_strategy_cap():
    with pytest.raises(ValueError):
        enumerate_strategies(4, 16)
