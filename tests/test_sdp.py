import numpy as np
import pytest

from pidlab import sdp
from pidlab.compatibility import roi_dual
from pidlab.devices import Pid, pid_from_pmd, random_pid
from pidlab.sdp import (
    ComplexSdpBuilder,
    SdpProblem,
    SdpStatus,
    SolveOptions,
    embed_complex,
    hermitian_basis,
    solve,
    unembed_complex,
)
from pidlab.sem import sem


def rand_sym(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def rand_spd(rng, n):
    a = rng.standard_normal((n, n + 2))
    return a @ a.T + 0.1 * np.eye(n)


class TestEmbedComplex:
    def test_identity(self):
        assert np.allclose(embed_complex(np.eye(2)), np.eye(4))

    def test_pauli_y_pattern(self):
        y = np.array([[0, -1j], [1j, 0]])
        expect = np.array(
            [
                [0, 0, 0, 1],
                [0, 0, -1, 0],
                [0, -1, 0, 0],
                [1, 0, 0, 0],
            ],
            dtype=float,
        )
        assert np.allclose(embed_complex(y), expect)

    def test_doubled_spectrum_oracle(self):
        rng = np.random.default_rng(np.random.Philox(31))
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (a + a.conj().T) / 2
            ev_h = np.sort(np.linalg.eigvalsh(h))
            ev_e = np.sort(np.linalg.eigvalsh(embed_complex(h)))
            assert np.allclose(ev_e, np.sort(np.repeat(ev_h, 2)), atol=1e-10)

    def test_unembed_roundtrip(self):
        rng = np.random.default_rng(np.random.Philox(32))
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (a + a.conj().T) / 2
        assert np.allclose(unembed_complex(embed_complex(h)), h, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            embed_complex(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_embeds_matrix_by_matrix(self):
        rng = np.random.default_rng(np.random.Philox(36))
        a = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        h = a + a.conj().swapaxes(-1, -2)
        stacked = embed_complex(h)
        assert stacked.shape == (2, 3, 8, 8)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(stacked[i, j], embed_complex(h[i, j]))

    def test_stack_rejects_one_non_hermitian_member(self):
        h = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValueError):
            embed_complex(h)


def _single_block_problem(c, a_rows, rhs):
    dim = c.shape[0]
    return SdpProblem(
        blocks=(("x", dim),),
        objective=(c,),
        constraints=tuple(((a,), r) for a, r in zip(a_rows, rhs)),
    )


class TestSolveBasics:
    def test_smallest_eigenvalue(self):
        p = _single_block_problem(np.diag([1.0, 2.0]), [np.eye(2)], [1.0])
        sol = solve(p)
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_value - 1.0) <= 1e-7
        assert np.allclose(sol.primal_blocks[0], np.diag([1.0, 0.0]), atol=1e-5)

    def test_infeasible_negative_trace(self):
        p = _single_block_problem(np.zeros((2, 2)), [np.eye(2)], [-1.0])
        sol = solve(p)
        assert sol.status is SdpStatus.INFEASIBLE

    def test_rejects_asymmetric_data(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            _single_block_problem(bad, [np.eye(2)], [1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(np.random.Philox(33))
        c = rand_sym(rng, 3)
        a1 = rand_sym(rng, 3)
        p = _single_block_problem(c, [np.eye(3), a1], [1.0, 0.2])
        s1 = solve(p)
        s2 = solve(p)
        assert s1.primal_value == s2.primal_value
        assert np.array_equal(s1.primal_blocks[0], s2.primal_blocks[0])
        assert np.array_equal(s1.dual_multipliers, s2.dual_multipliers)


class TestGridOracle:
    def test_three_block_grid(self):
        # Three 2x2 blocks constrained to be equal with unit trace, so the
        # feasible set is the two-parameter family [[a, b], [b, 1-a]].
        rng = np.random.default_rng(np.random.Philox(34))
        for _ in range(5):
            cs = [rand_sym(rng, 2) for _ in range(3)]
            e01 = np.array([[0.0, 1.0], [1.0, 0.0]])
            e00 = np.diag([1.0, 0.0])
            zero = np.zeros((2, 2))
            rows = []
            for k in range(3):
                row = [zero, zero, zero]
                row[k] = np.eye(2)
                rows.append((tuple(row), 1.0))
            for k in (1, 2):
                row_a = [zero, zero, zero]
                row_a[0] = e00
                row_a[k] = -e00
                rows.append((tuple(row_a), 0.0))
                row_b = [zero, zero, zero]
                row_b[0] = e01
                row_b[k] = -e01
                rows.append((tuple(row_b), 0.0))
            p = SdpProblem(
                blocks=(("x1", 2), ("x2", 2), ("x3", 2)),
                objective=tuple(cs),
                constraints=tuple(rows),
            )
            sol = solve(p)
            assert sol.status is SdpStatus.OPTIMAL
            ctot = cs[0] + cs[1] + cs[2]
            best = np.inf
            for a in np.linspace(0.0, 1.0, 301):
                bmax = np.sqrt(max(a * (1 - a), 0.0))
                for b in np.linspace(-bmax, bmax, 301):
                    x = np.array([[a, b], [b, 1 - a]])
                    best = min(best, float(np.sum(ctot * x)))
            assert abs(sol.primal_value - best) <= 1e-4


class TestRandomFeasibleSuite:
    def test_kkt_and_weak_duality(self):
        rng = np.random.default_rng(np.random.Philox(35))
        opts = SolveOptions()
        for trial in range(50):
            nblk = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 5)) for _ in range(nblk)]
            m = int(rng.integers(2, 7))
            a_rows = [
                tuple(rand_sym(rng, d) for d in dims) for _ in range(m)
            ]
            x0 = [rand_spd(rng, d) for d in dims]
            s0 = [rand_spd(rng, d) for d in dims]
            y0 = rng.standard_normal(m)
            b = [sum(float(np.sum(a_rows[i][k] * x0[k])) for k in range(nblk)) for i in range(m)]
            c = tuple(
                sum(y0[i] * a_rows[i][k] for i in range(m)) + s0[k] for k in range(nblk)
            )
            p = SdpProblem(
                blocks=tuple((f"b{k}", dims[k]) for k in range(nblk)),
                objective=c,
                constraints=tuple((a_rows[i], b[i]) for i in range(m)),
            )
            sol = solve(p, opts)
            assert sol.status is SdpStatus.OPTIMAL, f"trial {trial}"
            # KKT residuals
            assert sol.primal_residual <= opts.feas_tol
            assert sol.dual_residual <= opts.feas_tol
            # weak duality (minimization)
            assert sol.dual_value <= sol.primal_value + 1e-9
            # feasible blocks
            for xb in sol.primal_blocks:
                assert np.linalg.eigvalsh(xb)[0] >= -opts.feas_tol


def _sparse_feasible_problem(rng, dims, supports, m):
    """Random strictly feasible SDP in which block k appears only in rows ``supports[k]``."""
    a_rows = [[np.zeros((d, d)) for d in dims] for _ in range(m)]
    for k, rows in enumerate(supports):
        for i in rows:
            a_rows[i][k] = rand_sym(rng, dims[k])
    x0 = [rand_spd(rng, d) for d in dims]
    s0 = [rand_spd(rng, d) for d in dims]
    y0 = rng.standard_normal(m)
    b = [sum(float(np.sum(a * x)) for a, x in zip(row, x0)) for row in a_rows]
    c = tuple(
        sum(y0[i] * a_rows[i][k] for i in range(m)) + s0[k] for k in range(len(dims))
    )
    return SdpProblem(
        blocks=tuple((f"b{k}", d) for k, d in enumerate(dims)),
        objective=c,
        constraints=tuple((tuple(row), bi) for row, bi in zip(a_rows, b)),
    )


def _reversed(p):
    return SdpProblem(
        blocks=p.blocks[::-1],
        objective=p.objective[::-1],
        constraints=tuple((row[::-1], rhs) for row, rhs in p.constraints),
    )


def _kkt_residuals(p, sol):
    """Primal, dual-cone and gap residuals recomputed from the returned blocks."""
    b = np.array([rhs for _, rhs in p.constraints])
    ax = np.array(
        [sum(float(np.sum(a * x)) for a, x in zip(row, sol.primal_blocks)) for row, _ in p.constraints]
    )
    y = sol.dual_multipliers
    slacks = [
        c - sum(y[i] * row[k] for i, (row, _) in enumerate(p.constraints))
        for k, c in enumerate(p.objective)
    ]
    c_scale = 1.0 + max(float(np.max(np.abs(c))) for c in p.objective)
    pobj = sum(float(np.sum(c * x)) for c, x in zip(p.objective, sol.primal_blocks))
    return {
        "primal": float(np.max(np.abs(b - ax))) / (1.0 + float(np.max(np.abs(b)))),
        "slack_match": max(float(np.max(np.abs(z - zs))) for z, zs in zip(slacks, sol.dual_slacks)),
        "slack_psd": max(0.0, -min(np.linalg.eigvalsh(z)[0] for z in slacks)) / c_scale,
        "x_psd": max(0.0, -min(np.linalg.eigvalsh(x)[0] for x in sol.primal_blocks)),
        "gap": abs(pobj - float(b @ y)) / (1.0 + abs(pobj)),
    }


# Sizes 2 and 3 interleaved; groups (2, 3 rows) = {b0, b2}, (3, 3 rows) = {b1, b5},
# (3, 2 rows) = {b3} and (2, 1 row) = {b4}, which appears in row 5 alone.
GROUPED_DIMS = (2, 3, 2, 3, 2, 3)
GROUPED_SUPPORTS = ((0, 1, 2), (1, 2, 3), (3, 4, 5), (0, 4), (5,), (2, 3, 5))


class TestGroupedLayout:
    def problem(self, seed):
        rng = np.random.default_rng(np.random.Philox(seed))
        return _sparse_feasible_problem(rng, GROUPED_DIMS, GROUPED_SUPPORTS, 6)

    def test_supports_are_the_rows_each_block_appears_in(self):
        p = self.problem(37)
        assert [tuple(s) for s in p.supports] == list(GROUPED_SUPPORTS)
        assert sdp._group_blocks(p) == [[0, 2], [1, 5], [3], [4]]

    def test_kkt_residuals(self):
        opts = SolveOptions()
        for seed in range(37, 42):
            p = self.problem(seed)
            sol = solve(p, opts)
            assert sol.status is SdpStatus.OPTIMAL
            assert [x.shape[0] for x in sol.primal_blocks] == list(GROUPED_DIMS)
            res = _kkt_residuals(p, sol)
            assert res["primal"] <= opts.feas_tol
            assert res["slack_match"] <= 1e-12
            assert res["slack_psd"] <= opts.feas_tol
            assert res["x_psd"] <= opts.feas_tol
            assert res["gap"] <= 1e-6

    def test_block_order_does_not_matter(self):
        for seed in range(37, 42):
            p = self.problem(seed)
            fwd = solve(p)
            rev = solve(_reversed(p))
            assert rev.status is SdpStatus.OPTIMAL
            assert abs(fwd.primal_value - rev.primal_value) <= 1e-8
            assert abs(fwd.iterations - rev.iterations) <= 1

    def test_assembly_matches_dense_reference(self):
        # The per-block loop over dense (m, d, d) stacks the grouped layout replaced.
        rng = np.random.default_rng(np.random.Philox(43))
        p = self.problem(43)
        m = p.n_constraints
        ws = [rand_spd(rng, d) for _, d in p.blocks]
        xs = [rand_sym(rng, d) for _, d in p.blocks]
        y = rng.standard_normal(m)
        h_ref = np.zeros((m, m))
        ax_ref = np.zeros(m)
        aty_ref = []
        for k, w in enumerate(ws):
            a = np.stack([row[k] for row, _ in p.constraints])
            h_ref += np.einsum("ipq,jpq->ij", a, np.einsum("pq,iqr,rs->ips", w, a, w))
            ax_ref += np.einsum("ipq,pq->i", a, xs[k])
            aty_ref.append(np.einsum("ipq,i->pq", a, y))
        h = np.zeros((m, m))
        ax = np.zeros(m)
        for members in sdp._group_blocks(p):
            grp = sdp._BlockGroup(p, members)
            grp.add_schur(np.stack([ws[k] for k in members]), h)
            ax += grp.apply_a(np.stack([xs[k] for k in members]), m)
            for k, aty in zip(members, grp.apply_at(y)):
                assert np.allclose(aty, aty_ref[k], rtol=0, atol=1e-12)
        assert np.allclose(h, h_ref, rtol=0, atol=1e-12 * np.max(np.abs(h_ref)))
        assert np.allclose(ax, ax_ref, rtol=0, atol=1e-12)


def _haar(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSchurPrecision:
    # Local-unitary rotations of random_pid(2, 2, 2, 2, seed=1), compressed to
    # their measurement family: the dual robustness program on these stops
    # with NumericalFailure when the Schur system is solved through
    # H^-1 = inv(L)^T inv(L) formed explicitly, instead of by two solves with
    # its Cholesky factor L.
    @pytest.mark.parametrize("s,i", [(43, 5), (43, 42), (41, 3), (41, 13), (41, 30)])
    def test_sem_dual_reaches_optimality(self, s, i):
        base = random_pid(2, 2, 2, 2, seed=1)
        rng = np.random.default_rng((s * 1_000_003 + i) * 16)
        w = np.kron(_haar(rng, base.din).T, _haar(rng, base.dout))
        p = Pid(base.din, base.dout, w @ base.blocks @ w.conj().T)
        cert = roi_dual(pid_from_pmd(sem(p).pmd))  # raises unless Optimal
        assert cert.r > 0.0


class TestComplexBuilder:
    def test_min_eigenvalue_complex(self):
        y = np.array([[0, -1j], [1j, 0]])
        b = ComplexSdpBuilder()
        b.add_block("x", 2)
        b.set_objective({"x": y})
        b.add_constraint({"x": np.eye(2)}, 1.0)
        res = b.solve()
        assert res.status is SdpStatus.OPTIMAL
        assert abs(res.value - (-1.0)) <= 1e-6
        x = res.blocks["x"]
        assert abs(np.trace(x).real - 1.0) <= 1e-6
        assert np.linalg.eigvalsh(x)[0] >= -1e-8

    def test_max_sense(self):
        h = np.array([[1.0, 0.5j], [-0.5j, -0.25]])
        b = ComplexSdpBuilder()
        b.add_block("x", 2)
        b.set_objective({"x": h}, sense="max")
        b.add_constraint({"x": np.eye(2)}, 1.0)
        res = b.solve()
        lam_max = np.linalg.eigvalsh(h)[-1]
        assert abs(res.value - lam_max) <= 1e-6

    def test_hermitian_basis_orthonormal(self):
        basis = hermitian_basis(3)
        assert len(basis) == 9
        for i, hi in enumerate(basis):
            for j, hj in enumerate(basis):
                ip = np.sum(hi.conj() * hj).real
                assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-12
