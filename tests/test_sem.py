import sys
import types

import numpy as np
import pytest

import pidlab

from pidlab.compatibility import is_compatible_pmd, is_simple_pid, roi_pmd
from pidlab.devices import (
    Pid,
    random_pid,
    random_channel_choi,
    random_simple_pid,
    rng_from_seed,
)
from pidlab.linalg import max_abs, partial_trace, phi_plus
from pidlab.presets import maximally_entangled_assemblage, xz_pmd
from pidlab.sem import canonical_dilation, reconstruct_pid, sem, sem_monotone_value


def identity_channel_pid():
    return Pid(2, 2, phi_plus(2)[None, None, :, :])


class TestSem:
    def test_package_attribute_is_the_function(self):
        # pidlab.sem names the function; the module stays in sys.modules
        assert pidlab.sem is sem
        module = sys.modules["pidlab.sem"]
        assert isinstance(module, types.ModuleType)
        assert module.sem is sem

    def test_identity_channel_rank_one(self):
        res = sem(identity_channel_pid())
        assert res.rank == 1
        assert res.pmd.dim == 1
        assert np.allclose(res.pmd.effects[0, 0], [[1.0]], atol=1e-12)

    def test_proportional_blocks_give_uniform_family(self):
        j = random_channel_choi(rng_from_seed(40), 2, 2)
        n = 3
        blocks = np.stack([j.mat / n for _ in range(n)])[None, :, :, :]
        res = sem(Pid(2, 2, blocks))
        eye = np.eye(res.rank)
        for x1 in range(n):
            assert max_abs(res.pmd.effects[0, x1] - eye / n) <= 1e-10

    def test_maximally_entangled_assemblage_recovers_transposed_pmd(self):
        m = xz_pmd()
        res = sem(maximally_entangled_assemblage(m))
        assert res.rank == 2
        expect = m.effects.transpose(0, 1, 3, 2)
        assert max_abs(res.pmd.effects - expect) <= 1e-10

    def test_family_normalization(self):
        for seed in range(10):
            p = random_pid(2, 2, 2, 2, seed=200 + seed)
            res = sem(p)
            eye = np.eye(res.rank)
            for x0 in range(p.n_programs):
                total = res.pmd.effects[x0].sum(axis=0)
                assert max_abs(total - eye) <= 1e-8
            assert res.pmd.defects()["cp_defect"] <= 1e-8

    def test_deterministic_output(self):
        p = random_pid(2, 2, 2, 2, seed=210)
        a = sem(p)
        b = sem(Pid(p.din, p.dout, p.blocks.copy()))
        assert np.array_equal(a.pmd.effects, b.pmd.effects)

    def test_near_cutoff_warning(self):
        p = random_pid(2, 2, 2, 2, seed=211)
        top = float(np.linalg.eigvalsh(p.marginal())[-1])
        with pytest.warns(RuntimeWarning):
            sem(p, rank_tol=0.3 / top)


class TestCanonicalDilation:
    def test_identity_channel(self):
        d = canonical_dilation(identity_channel_pid())
        assert d.rank == 1
        assert d.isometry_defect() <= 1e-12

    def test_isometry_on_random_devices(self):
        for seed in range(10):
            p = random_pid(2, 2, 2, 2, seed=220 + seed)
            d = canonical_dilation(p)
            assert d.isometry_defect() <= 1e-9

    def test_marginal_reconstruction(self):
        from pidlab.linalg import choi_from_kraus

        for seed in range(10):
            p = random_pid(2, 2, 2, 2, seed=230 + seed)
            d = canonical_dilation(p)
            jv = choi_from_kraus([d.isometry])
            marg = partial_trace(jv.mat, (2, 2, d.rank), keep=(0, 1))
            assert max_abs(marg - p.marginal()) <= 1e-8


class TestReconstruction:
    def test_round_trip_full_and_rank_deficient(self):
        seeds = list(range(50))
        for i, seed in enumerate(seeds):
            env = [4, 2, 1][i % 3]  # env < 4 forces a rank-deficient marginal
            p = random_pid(2, 2, 2, 2, seed=300 + seed, env_dim=env)
            recon = reconstruct_pid(canonical_dilation(p), sem(p))
            assert max_abs(recon.blocks - p.blocks) <= 1e-7, f"seed {seed}"

    def test_round_trip_preserves_simplicity(self):
        for seed in (330, 331, 332):
            p = random_simple_pid(2, 2, 2, 2, seed=seed).pid
            recon = reconstruct_pid(canonical_dilation(p), sem(p))
            assert is_simple_pid(recon).simple

    def test_single_outcome_reconstruction(self):
        p = random_pid(2, 2, 2, 1, seed=333)
        recon = reconstruct_pid(canonical_dilation(p), sem(p))
        assert max_abs(recon.blocks - p.blocks) <= 1e-8
        assert max_abs(recon.blocks[0, 0] - p.marginal()) <= 1e-8


class TestMonotone:
    def test_simple_devices_score_zero(self):
        for seed in (340, 341):
            p = random_simple_pid(2, 2, 2, 2, seed=seed).pid
            assert sem_monotone_value(p) <= 1e-6

    def test_benchmark_equals_pmd_robustness(self):
        p = maximally_entangled_assemblage(xz_pmd())
        direct = roi_pmd(xz_pmd()).r
        assert abs(sem_monotone_value(p) - direct) <= 2e-4

    def test_faithfulness_sample(self):
        for seed in range(20):
            if seed % 2:
                p = random_simple_pid(2, 2, 2, 2, seed=350 + seed).pid
            else:
                p = random_pid(2, 2, 2, 2, seed=350 + seed)
            pid_simple = is_simple_pid(p).simple
            pmd_compat = is_compatible_pmd(sem(p).pmd).compatible
            assert pid_simple == pmd_compat, f"seed {350 + seed}"
