import numpy as np
import pytest

from pidlab.devices import (
    ClassicalChannel,
    Pid,
    Pmd,
    Povm,
    identity_free_simulation,
    pad_pid_outcomes,
    pid_from_pmd,
    product_strategy_weights,
    random_channel_choi,
    random_free_simulation,
    random_instrument,
    random_isometry,
    random_pid,
    random_pmd,
    random_povm,
    random_simple_pid,
    random_stochastic,
    rng_from_seed,
    simple_pid_from_mixture,
    steer,
    tensor_pid,
    SimulationShape,
)
from pidlab.games import GameSpec, PiGameSpec
from pidlab.linalg import choi_from_kraus, kron, max_abs, phi_plus
from pidlab.presets import maximally_entangled_assemblage, xz_pmd


def luders_pid(observable_projectors):
    """Single-program device measuring and collapsing onto the given projectors."""
    blocks = [[choi_from_kraus([p]).mat for p in observable_projectors]]
    d = observable_projectors[0].shape[0]
    return Pid(d, d, np.array(blocks))


Z_PROJ = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
X_PROJ = [np.full((2, 2), 0.5, dtype=complex), np.array([[0.5, -0.5], [-0.5, 0.5]])]


class TestValidatePid:
    def test_luders_instrument_valid(self):
        assert max(luders_pid(Z_PROJ).defects().values()) < 1e-12

    def test_signaling_family_rejected(self):
        x = luders_pid(X_PROJ)
        z = luders_pid(Z_PROJ)
        both = Pid(2, 2, np.concatenate([x.blocks, z.blocks], axis=0))
        assert both.defects()["nonsignaling_defect"] == pytest.approx(2.0, abs=1e-9)
        assert not both.is_valid()

    def test_negated_block_flagged(self):
        p = luders_pid(Z_PROJ)
        blocks = p.blocks.copy()
        blocks[0, 1] = -blocks[0, 1]
        assert Pid(2, 2, blocks).defects()["cp_defect"] > 0.1


class TestSteer:
    def test_product_extension_gives_scaled_identity_blocks(self):
        # E[rho] = rho (x) |0><0| : any measurement yields p(x1|x0) * identity blocks
        v = kron(np.eye(2), np.array([[1.0], [0.0]]))  # I (x) |0>
        e = choi_from_kraus([v])
        m = random_pmd(rng_from_seed(5), 2, 2, 2)
        out = steer(e, m)
        assert out.is_valid(1e-9)
        id_choi = phi_plus(2)
        for x0 in range(2):
            for x1 in range(2):
                w = m.effects[x0, x1, 0, 0].real
                assert max_abs(out.blocks[x0, x1] - w * id_choi) < 1e-12

    def test_maximally_entangled_assemblage_blocks(self):
        pid = maximally_entangled_assemblage(xz_pmd())
        assert pid.din == 1 and pid.dout == 2
        assert pid.is_valid(1e-12)
        m = xz_pmd()
        for x0 in range(2):
            for x1 in range(2):
                assert max_abs(pid.blocks[x0, x1] - m.effects[x0, x1].T / 2) < 1e-12

    def test_nonsignaling_for_random_pairs(self):
        rng = rng_from_seed(6)
        for k in range(20):
            e = random_channel_choi(rng, 2, 4)
            m = random_pmd(rng, 2, 2, 3)
            out = steer(e, m)
            assert out.defects()["nonsignaling_defect"] <= 1e-9

    def test_dimension_mismatch(self):
        e = random_channel_choi(rng_from_seed(7), 2, 4)
        m = random_pmd(rng_from_seed(8), 3, 2, 2)
        with pytest.raises(ValueError):
            steer(e, m)


class TestSamplers:
    def test_random_pid_valid_and_deterministic(self):
        p1 = random_pid(2, 2, 2, 2, seed=42)
        p2 = random_pid(2, 2, 2, 2, seed=42)
        assert np.array_equal(p1.blocks, p2.blocks)
        assert p1.is_valid(1e-9)

    def test_sampler_validation_sweep(self):
        for seed in range(500):
            if seed % 2:
                p = random_pid(2, 2, 2, 2, seed=seed)
            else:
                p = random_simple_pid(2, 2, 2, 2, seed=seed).pid
            assert p.is_valid(1e-9), f"seed {seed}"

    def test_random_simple_pid_mixture_identity(self):
        s = random_simple_pid(2, 2, 2, 3, seed=9)
        rebuilt = simple_pid_from_mixture(s.mother, s.table)
        assert max_abs(rebuilt.blocks - s.pid.blocks) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0])
    def test_mixture_table_rejected_unless_a_distribution(self, bad):
        s = random_simple_pid(2, 2, 2, 3, seed=9)
        table = s.table.copy()
        table[0, 0, 0] = bad
        with pytest.raises(ValueError, match="mixture table"):
            simple_pid_from_mixture(s.mother, table)

    def test_deterministic_table_relabels_branches(self):
        rng = rng_from_seed(10)
        mother = random_instrument(rng, 2, 2, 2)
        table = np.zeros((2, 2, 2))
        table[1, :, 0] = 1.0  # branch 0 -> outcome 1
        table[0, :, 1] = 1.0  # branch 1 -> outcome 0
        pid = simple_pid_from_mixture(mother, table)
        assert max_abs(pid.blocks[0, 1] - mother.branches[0].mat) < 1e-12
        assert max_abs(pid.blocks[0, 0] - mother.branches[1].mat) < 1e-12

    def test_env_dim_one_yields_rank_one_marginal(self):
        p = random_pid(2, 2, 2, 2, seed=11, env_dim=1)
        vals = np.linalg.eigvalsh(p.marginal())
        assert np.count_nonzero(vals > 1e-9) == 1

    def test_random_povm_and_instrument(self):
        rng = rng_from_seed(12)
        assert random_povm(rng, 3, 4).is_valid(1e-9)
        inst = random_instrument(rng, 2, 3, 2)
        assert inst.is_valid(1e-9)

    def test_random_stochastic_columns(self):
        t = random_stochastic(rng_from_seed(13), 4, 3)
        assert np.allclose(t.sum(axis=0), 1.0)
        assert t.min() >= 0

    def test_random_free_simulation_components_valid(self):
        shape = SimulationShape(
            source_din=2, source_dout=2, source_programs=2, source_outcomes=2,
            target_din=2, target_dout=2, target_programs=2, target_outcomes=2,
            side_dim=2, n_branches=2, n_flags=2,
        )
        f = random_free_simulation(shape, seed=14)
        assert f.is_valid(1e-9)

    def test_isometry_property(self):
        rng = rng_from_seed(15)
        v = random_isometry(rng, 3, 7)
        assert max_abs(v.conj().T @ v - np.eye(3)) < 1e-12


class TestConversions:
    def test_pid_from_pmd_blocks(self):
        m = xz_pmd()
        p = pid_from_pmd(m)
        assert p.dout == 1 and p.din == 2
        assert p.is_valid(1e-12)
        assert max_abs(p.blocks[0, 0] - m.effects[0, 0].T) < 1e-15

    def test_tensor_pid_validates(self):
        a = random_pid(2, 2, 2, 2, seed=16)
        b = random_simple_pid(2, 2, 2, 2, seed=17).pid
        t = tensor_pid(a, b)
        assert t.din == 4 and t.dout == 4
        assert t.n_programs == 4 and t.n_outcomes == 4
        assert t.is_valid(1e-8)

    def test_pad_outcomes(self):
        p = random_pid(2, 2, 2, 2, seed=18)
        q = pad_pid_outcomes(p, 5)
        assert q.n_outcomes == 5
        assert q.is_valid(1e-9)
        assert max_abs(q.blocks[:, :2] - p.blocks) == 0.0


class TestClassicalPieces:
    def test_classical_channel_checks(self):
        with pytest.raises(ValueError):
            ClassicalChannel(np.array([[0.5, 0.2], [0.4, 0.8]]))
        c = ClassicalChannel.deterministic([1, 0], n_out=2)
        assert np.allclose(c.table, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_classical_channel_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ClassicalChannel(np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_classical_channel_clips_small_negatives_read_only(self):
        c = ClassicalChannel(np.array([[-1e-13, 0.5], [1.0 + 1e-13, 0.5]]))
        assert c.table.min() == 0.0 and not c.table.flags.writeable
        with pytest.raises(ValueError, match="negative"):
            ClassicalChannel(np.array([[-1e-11, 0.5], [1.0 + 1e-11, 0.5]]))

    @pytest.mark.parametrize("mapping", [[-1, 0], [0, 2]])
    def test_deterministic_rejects_outcomes_out_of_range(self, mapping):
        with pytest.raises(ValueError, match="range"):
            ClassicalChannel.deterministic(mapping, 2)

    @pytest.mark.parametrize(
        "table", [[[0.5, np.nan], [0.5, 1.0]], [[0.5, 0.2], [0.5, 0.7]], [[1.5, 1.0], [-0.5, 0.0]]]
    )
    def test_product_strategy_weights_rejects_non_distributions(self, table):
        with pytest.raises(ValueError, match="strategy table"):
            product_strategy_weights(np.array(table))

    def test_product_strategy_weights(self):
        table = random_stochastic(rng_from_seed(19), 3, 2)  # table[x1, x0]
        w = product_strategy_weights(table)
        assert w.shape == (9,)
        assert np.isclose(w.sum(), 1.0)
        # responses enumerate row-major over programs: f = (f0, f1)
        for x0 in range(2):
            for x1 in range(3):
                mask = []
                for f0 in range(3):
                    for f1 in range(3):
                        f = (f0, f1)
                        mask.append(f[x0] == x1)
                assert np.isclose(w[np.array(mask)].sum(), table[x1, x0])

    def test_identity_simulation_shapes(self):
        p = random_pid(2, 2, 2, 3, seed=20)
        f = identity_free_simulation(p)
        assert f.is_valid(1e-9)
        assert f.p_table().shape == (2, 1, 2, 1)
        assert f.q_table().shape == (3, 3, 1)


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda a: Pid(2, 2, a), (2, 2, 4, 4)),
        (Pmd, (2, 2, 2, 2)),
        (Povm, (2, 2, 2)),
        (lambda a: GameSpec(a, d_ref=2, dout=2), (2, 2, 4, 4)),
        (lambda a: PiGameSpec(a, Povm(np.stack([np.eye(2) / 2] * 2))), (2, 2, 2, 2, 2)),
    ],
    ids=["pid", "pmd", "povm", "game", "pigame"],
)
def test_non_hermitian_stack_rejected(build, shape):
    stack = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()
    build(stack)
    stack[(0,) * (len(shape) - 2) + (0, 1)] = 1e-6
    with pytest.raises(ValueError, match="antisymmetric"):
        build(stack)
