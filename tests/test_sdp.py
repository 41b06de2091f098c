import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlab import sdp
from pidlab.compatibility import roi_dual, roi_primal
from pidlab.devices import Pid, pid_from_pmd, random_pid
from pidlab.linalg import hermitize
from pidlab.sdp import (
    ComplexSdpBuilder,
    SdpProblem,
    SdpStatus,
    SolveOptions,
    hermitian_basis,
    kron_stack,
    solve,
    traceless_basis,
)
from pidlab.sem import sem


def embed_complex(h):
    """Real symmetric embedding ``[[Re, -Im], [Im, Re]]`` of a Hermitian matrix or stack, checked."""
    return sdp._embed(hermitize(h))


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
    """One block carrying ``a_rows[i]`` on row ``i``, each row its own matrix."""
    rows = np.arange(len(a_rows))
    return SdpProblem(
        blocks=(("x", c.shape[0]),),
        objective=(c,),
        columns=[(rows, rows, np.array(a_rows, dtype=float))],
        rhs=rhs,
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

    def test_rejects_malformed_columns(self):
        eye = np.eye(2)
        for rows, index in (([0, 2], [0, 0]), ([0], [1]), ([0, 1], [0]), ([-1], [0])):
            with pytest.raises(ValueError, match="in-range"):
                SdpProblem((("x", 2),), (eye,), columns=[(rows, index, [eye])], rhs=[1.0, 2.0])
        with pytest.raises(ValueError, match="block dim"):
            SdpProblem((("x", 2),), (eye,), columns=[([0], [0], [np.eye(3)])], rhs=[1.0])

    def test_rejects_complex_form_of_odd_size(self):
        h = np.eye(1, dtype=complex)
        with pytest.raises(ValueError, match="odd size"):
            SdpProblem((("x", 3),), (h,), columns=[([0], [0], [h])], rhs=[1.0])
        with pytest.raises(ValueError, match="block dim"):  # a complex block of size 4 holds 2 x 2 matrices
            SdpProblem((("x", 4),), (np.eye(4, dtype=complex),), columns=[([0], [0], [h])], rhs=[1.0])

    def test_block_in_no_constraint(self):
        # an empty block column: no row constrains the block, and min <1, X> puts it at zero
        p = SdpProblem(
            (("x", 2), ("free", 2)),
            (np.eye(2), np.eye(2)),
            columns=[([0], [0], [np.eye(2)]), ([], [], np.zeros((0, 2, 2)))],
            rhs=[1.0],
        )
        sol = solve(p)
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_value - 1.0) <= 1e-7
        assert np.abs(sol.primal_blocks[1]).max() <= 1e-7

    def test_iteration_cap_reported_as_such(self):
        p = _single_block_problem(np.diag([1.0, 2.0]), [np.eye(2)], [1.0])
        sol = solve(p, SolveOptions(max_iter=2))
        assert sol.status is SdpStatus.MAX_ITER
        assert sol.iterations == 2

    def test_iteration_cap_reports_returned_iterate(self):
        c = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.3], [0.0, 0.3, -1.0]])
        a_rows, rhs = [np.eye(3), np.diag([1.0, -1.0, 0.0])], np.array([1.0, 0.2])
        p = _single_block_problem(c, a_rows, rhs)
        for cap in (1, 2):
            sol = solve(p, SolveOptions(max_iter=cap))
            assert sol.status is SdpStatus.MAX_ITER
            rp = rhs - [np.sum(a * sol.primal_blocks[0]) for a in a_rows]
            assert abs(sol.primal_residual - np.max(np.abs(rp)) / 2.0) <= 1e-15

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


def _equal_unit_trace_columns():
    """Three 2x2 blocks of unit trace (rows 0-2) whose ``e00`` and ``e01`` entries
    equal block 0's (rows 3-4 for block 1, 5-6 for block 2), each block with its own matrices."""
    eye, pair = np.eye(2)[None], np.stack([np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    return [
        ([0, 3, 4, 5, 6], np.arange(5), np.concatenate([eye, pair, pair])),
        ([1, 3, 4], np.arange(3), np.concatenate([eye, -pair])),
        ([2, 5, 6], np.arange(3), np.concatenate([eye, -pair])),
    ]


class TestGridOracle:
    def test_three_block_grid(self):
        # Three 2x2 blocks constrained to be equal with unit trace, so the
        # feasible set is the two-parameter family [[a, b], [b, 1-a]].
        rng = np.random.default_rng(np.random.Philox(34))
        for _ in range(5):
            cs = [rand_sym(rng, 2) for _ in range(3)]
            p = SdpProblem(
                blocks=(("x1", 2), ("x2", 2), ("x3", 2)),
                objective=tuple(cs),
                columns=_equal_unit_trace_columns(),
                rhs=[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
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
            rows = np.arange(m)
            p = SdpProblem(
                blocks=tuple((f"b{k}", dims[k]) for k in range(nblk)),
                objective=c,
                columns=[(rows, rows, np.array([row[k] for row in a_rows])) for k in range(nblk)],
                rhs=b,
            )
            sol = solve(p, opts)
            assert sol.status is SdpStatus.OPTIMAL, f"trial {trial}"
            # KKT residuals
            assert sol.primal_residual <= sdp.FEAS_TOL
            assert sol.dual_residual <= sdp.FEAS_TOL
            # weak duality (minimization)
            assert sol.dual_value <= sol.primal_value + 1e-9
            # feasible blocks
            for xb in sol.primal_blocks:
                assert np.linalg.eigvalsh(xb)[0] >= -sdp.FEAS_TOL


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
    columns = []
    for k, rows in enumerate(supports):
        rows = sorted(rows)
        columns.append((rows, np.arange(len(rows)), np.array([a_rows[i][k] for i in rows])))
    return SdpProblem(
        blocks=tuple((f"b{k}", d) for k, d in enumerate(dims)), objective=c, columns=columns, rhs=b
    )


def _reversed(p):
    return SdpProblem(p.blocks[::-1], p.objective[::-1], columns=p.columns[::-1], rhs=p.rhs)


def _dense_column(p, k):
    """Block ``k``'s matrix on every one of the m rows, zero where it is absent."""
    col = p.columns[k]
    a = np.zeros((p.n_constraints, *col.mats.shape[1:]), dtype=col.mats.dtype)
    np.add.at(a, col.rows, col.mats[col.index])
    return a


def _kkt_residuals(p, sol):
    """Primal, dual-cone and gap residuals recomputed from the returned blocks."""
    b = p.rhs
    cols = [_dense_column(p, k) for k in range(len(p.blocks))]
    ax = sum(np.einsum("ipq,pq->i", a, x) for a, x in zip(cols, sol.primal_blocks))
    y = sol.dual_multipliers
    slacks = [c - np.einsum("i,ipq->pq", y, a) for c, a in zip(p.objective, cols)]
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
        assert [tuple(col.rows) for col in p.columns] == list(GROUPED_SUPPORTS)
        assert sdp._group_blocks(p) == [[0, 2], [1, 5], [3], [4]]

    def test_kkt_residuals(self):
        opts = SolveOptions()
        for seed in range(37, 42):
            p = self.problem(seed)
            sol = solve(p, opts)
            assert sol.status is SdpStatus.OPTIMAL
            assert [x.shape[0] for x in sol.primal_blocks] == list(GROUPED_DIMS)
            res = _kkt_residuals(p, sol)
            assert res["primal"] <= sdp.FEAS_TOL
            assert res["slack_match"] <= 1e-12
            assert res["slack_psd"] <= sdp.FEAS_TOL
            assert res["x_psd"] <= sdp.FEAS_TOL
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
        _check_assembly(self.problem(43), np.random.default_rng(np.random.Philox(43)))

    def test_shared_matrix_assembly_matches_dense_reference(self):
        rng = np.random.default_rng(np.random.Philox(44))
        p = _shared_matrix_problem(rng)
        assert [len(col.mats) for col in p.columns] == [3, 2, 2, 1]
        assert sdp._group_blocks(p) == [[0], [1, 2], [3]]
        _check_assembly(p, rng)

    def test_complex_form_assembly_matches_embedded_reference(self):
        rng = np.random.default_rng(np.random.Philox(48))
        p = _complex_form_problem(rng)
        assert sdp._group_blocks(p) == [[0, 1], [2], [3]]
        _check_assembly(p, rng)

    def test_complex_form_matches_embedded_problem(self):
        # the same program with every complex-form block passed as its embedding;
        # identity blocks are strictly feasible, and so are the slacks at y
        rng = np.random.default_rng(np.random.Philox(49))
        p = _complex_form_problem(rng)
        y = rng.standard_normal(p.n_constraints)
        cols = [_dense_column(p, k) for k in range(len(p.blocks))]
        p = SdpProblem(
            p.blocks,
            [np.einsum("i,ipq->pq", y, a) + np.eye(a.shape[1]) for a in cols],
            columns=p.columns,
            rhs=sum(np.einsum("ipp->i", a).real * (2 if np.iscomplexobj(a) else 1) for a in cols),
        )
        emb = SdpProblem(
            p.blocks,
            [embed_complex(c) if np.iscomplexobj(c) else c for c in p.objective],
            columns=[
                (col.rows, col.index, embed_complex(col.mats) if np.iscomplexobj(col.mats) else col.mats)
                for col in p.columns
            ],
            rhs=p.rhs,
        )
        sol, ref = solve(p), solve(emb)
        assert sol.status is ref.status is SdpStatus.OPTIMAL
        assert abs(sol.primal_value - ref.primal_value) <= 1e-7
        assert abs(sol.iterations - ref.iterations) <= 1
        for k in range(3):
            assert sol.primal_blocks[k].shape == (p.blocks[k][1] // 2,) * 2
            assert np.allclose(embed_complex(sol.primal_blocks[k]), ref.primal_blocks[k], atol=1e-6)


def _complex_form_problem(rng):
    """Column-form problem mixing blocks in complex form (sizes 4, 4, 6) with a real one.

    The two 4 x 4 blocks share ``U0`` and ``U1`` with different supports and
    signs; the real 2 x 2 block appears on every row.
    """
    u0, u1 = _rand_herm(rng, 2), _rand_herm(rng, 2)
    columns = [
        ([0, 1, 2, 3], [0, 1, 0, 1], [u0, u1]),
        ([1, 2, 4, 0], [0, 1, 1, 0], [u1, -u0]),
        ([0, 2, 3, 4], [0, 0, 1, 1], np.stack([_rand_herm(rng, 3), _rand_herm(rng, 3)])),
        ([0, 1, 2, 3, 4], [0] * 5, [rand_sym(rng, 2)]),
    ]
    objective = (_rand_herm(rng, 2), _rand_herm(rng, 2), _rand_herm(rng, 3), rand_sym(rng, 2))
    return SdpProblem(
        blocks=(("a", 4), ("b", 4), ("c", 6), ("r", 2)),
        objective=objective,
        columns=columns,
        rhs=rng.standard_normal(5),
    )


def _shared_matrix_problem(rng):
    """Column-form problem whose blocks reuse their matrices across rows.

    Block 0 carries ``U0`` on rows 0 and 2 and ``-U0`` on rows 4 and 5, as
    distinct matrices; blocks 1 and 2 form one group (3 x 3, four rows, two
    matrices) with different supports; block 3 has one matrix on every row.
    """
    u0, u1, u2 = (rand_sym(rng, 3) for _ in range(3))
    columns = [
        ([0, 1, 2, 3, 4, 5], [0, 1, 0, 1, 2, 2], [u0, u1, -u0]),
        ([1, 2, 4, 5], [0, 0, 1, 1], [u0, u1]),
        ([0, 3, 4, 5], [1, 0, 1, 0], [u1, u2]),
        ([0, 1, 2, 3, 4, 5], [0] * 6, [rand_sym(rng, 2)]),
    ]
    return SdpProblem(
        blocks=(("b0", 3), ("b1", 3), ("b2", 3), ("b3", 2)),
        objective=(rand_sym(rng, 3), rand_sym(rng, 3), rand_sym(rng, 3), rand_sym(rng, 2)),
        columns=columns,
        rhs=rng.standard_normal(6),
    )


def _check_assembly(p, rng):
    """Grouped H, A and A^T against the per-block loop over dense (m, d, d) stacks.

    Blocks given in complex form are drawn as Hermitian matrices and compared
    through their embeddings.
    """
    m = p.n_constraints
    cplx = [sdp._complex_form(p, k) for k in range(len(p.blocks))]
    ws = [_rand_hpd(rng, d // 2) if c else rand_spd(rng, d) for (_, d), c in zip(p.blocks, cplx)]
    xs = [_rand_herm(rng, d // 2) if c else rand_sym(rng, d) for (_, d), c in zip(p.blocks, cplx)]
    y = rng.standard_normal(m)

    def real(k, a):
        return embed_complex(a) if cplx[k] else a

    h_ref = np.zeros((m, m))
    ax_ref = np.zeros(m)
    aty_ref = []
    for k, w in enumerate(ws):
        a, w = real(k, _dense_column(p, k)), real(k, w)
        h_ref += np.einsum("ipq,jpq->ij", a, np.einsum("pq,iqr,rs->ips", w, a, w))
        ax_ref += np.einsum("ipq,pq->i", a, real(k, xs[k]))
        aty_ref.append(np.einsum("ipq,i->pq", a, y))
    h = np.zeros((m, m))
    ax = np.zeros(m)
    for members in sdp._group_blocks(p):
        grp = sdp._BlockGroup(p, members)
        # a real block is held as a complex one with zero imaginary part
        grp.add_schur(np.stack([ws[k] for k in members]).astype(complex), h)
        ax += grp.apply_a(np.stack([xs[k] for k in members]).astype(complex), m)
        for k, aty in zip(members, grp.apply_at(y)):
            assert np.allclose(real(k, aty), aty_ref[k], rtol=0, atol=1e-12)
    assert np.allclose(h, h_ref, rtol=0, atol=1e-12 * np.max(np.abs(h_ref)))
    assert np.allclose(ax, ax_ref, rtol=0, atol=1e-12)


@st.composite
def _statement_problems(draw):
    """A strictly feasible column-form problem, stated statement by statement.

    Each statement carries one of a few Hermitian (or, for real blocks,
    symmetric) stacks of 1-5 rows, on a set of blocks, over the next rows.  A
    block's matrices are its distinct stacks in first-use order, so a block
    on consecutive statements with new stacks has one run across them.
    Returns the problem with one ``mats`` object per distinct stack sequence,
    the same problem with a private copy per block, and the rng.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cplx = draw(st.booleans())
    c, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    draw_mat = (lambda: _rand_herm(rng, c)) if cplx else (lambda: rand_sym(rng, c))
    stacks = [np.stack([draw_mat() for _ in range(draw(st.integers(1, 5)))]) for _ in range(3)]
    everywhere = draw(st.booleans())  # every statement covers every block
    statements = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.sets(st.integers(0, n - 1), min_size=1)),
            min_size=1,
            max_size=6,
        )
    )
    terms = [[] for _ in range(n)]
    m = 0
    for key, blocks in statements:
        for k in range(n) if everywhere else sorted(blocks):
            terms[k].append((m, key))
        m += len(stacks[key])
    joined, shared, private = {}, [], []
    for block in terms:
        rows, index, offset = [], [], {}
        for first, key in block:
            k = len(stacks[key])
            offset.setdefault(key, sum(len(stacks[j]) for j in offset))
            rows += range(first, first + k)
            index += range(offset[key], offset[key] + k)
        keys = tuple(offset)
        if keys not in joined:
            empty = np.zeros((0, c, c), stacks[0].dtype)
            joined[keys] = np.concatenate([empty] + [stacks[j] for j in keys])
        shared.append((rows, index, joined[keys]))
        private.append((rows, index, joined[keys].copy()))
    d = 2 * c if cplx else c
    blocks = tuple((f"b{k}", d) for k in range(n))
    layout = SdpProblem(blocks, [np.eye(c)] * n, columns=shared, rhs=np.zeros(m))
    dense = [_dense_column(layout, k) for k in range(n)]
    weight = 2 if cplx else 1
    x0 = [_rand_hpd(rng, c) if cplx else rand_spd(rng, c) for _ in range(n)]
    s0 = [_rand_hpd(rng, c) if cplx else rand_spd(rng, c) for _ in range(n)]
    y0 = rng.standard_normal(m)
    rhs = sum(weight * np.einsum("ipq,qp->i", a, x).real for a, x in zip(dense, x0))
    obj = [np.einsum("i,ipq->pq", y0, a) + s for a, s in zip(dense, s0)]
    return (
        SdpProblem(blocks, obj, columns=shared, rhs=rhs),
        SdpProblem(blocks, obj, columns=private, rhs=rhs),
        rng,
    )


class TestRunAssembly:
    """The Schur complement added tile by tile over runs, against dense references."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=_statement_problems())
    def test_assembly_matches_dense_reference(self, case):
        shared, private, rng = case
        state = rng.bit_generator.state
        _check_assembly(shared, rng)
        rng.bit_generator.state = state
        _check_assembly(private, rng)
        for members in sdp._group_blocks(shared):
            sizes = {len(sdp._BlockGroup(p, members).mats) for p in (shared, private)}
            same = all(shared.columns[k].mats is shared.columns[members[0]].mats for k in members)
            assert sizes == ({1, len(members)} if same else {len(members)})

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(case=_statement_problems())
    def test_shared_stacks_solve_like_private_copies(self, case):
        shared, private, _ = case
        one, other = solve(shared), solve(private)
        assert one.status is other.status is SdpStatus.OPTIMAL
        assert one.iterations == other.iterations
        assert one.primal_value == other.primal_value
        assert np.array_equal(one.dual_multipliers, other.dual_multipliers)
        for x, z in zip(one.primal_blocks, other.primal_blocks):
            assert np.array_equal(x, z)

    def test_merged_and_split_runs(self):
        # block 0 carries U then V over adjacent statements, one run; block 1
        # carries them over statements apart, two runs; block 2 carries U twice
        rng = np.random.default_rng(np.random.Philox(50))
        u, v = np.stack([rand_sym(rng, 2) for _ in range(2)]), np.stack([rand_sym(rng, 2)])
        uv = np.concatenate([u, v])
        columns = [
            ([0, 1, 2], [0, 1, 2], uv),
            ([0, 1, 4], [0, 1, 2], uv),
            ([0, 1, 5, 6], [0, 1, 0, 1], u),
        ]
        p = SdpProblem([(k, 2) for k in range(3)], [np.eye(2)] * 3, columns=columns, rhs=np.ones(7))
        assert [sdp._runs(np.array([r]), np.array([i]))[0] for r, i, _ in columns] == [
            [(0, 0, 3)],
            [(0, 0, 2), (4, 2, 1)],
            [(0, 0, 2), (5, 0, 2)],
        ]
        assert sdp._group_blocks(p) == [[0, 1], [2]]
        _check_assembly(p, rng)


class TestStackChecks:
    def test_each_stack_object_checked_once(self, monkeypatch):
        calls = []
        check = sdp._check_mats

        def counting(stack, dim, what):
            calls.append((what, id(stack)))
            return check(stack, dim, what)

        monkeypatch.setattr(sdp, "_check_mats", counting)
        h = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
        other = h.copy()
        columns = [([0, 1], [0, 1], h)] * 4 + [([2, 3], [0, 1], other)]
        obj = [np.eye(2, dtype=complex)] * 5
        SdpProblem([(k, 4) for k in range(5)], obj, columns=columns, rhs=np.ones(4))
        assert [w for w, _ in calls].count("objective") == 5
        assert [i for w, i in calls if w == "constraint"] == [id(h), id(other)]

    def test_shared_stack_still_checked(self):
        bad = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        obj = [np.eye(2, dtype=complex)] * 2
        with pytest.raises(ValueError, match="antisymmetric"):
            SdpProblem([(0, 4), (1, 4)], obj, columns=[([0], [0], bad)] * 2, rhs=[1.0])
        eye = np.eye(2, dtype=complex)[None]
        with pytest.raises(ValueError, match="in-range"):  # rows and indices stay per block
            SdpProblem(
                [(0, 4), (1, 4)], [eye[0]] * 2, columns=[([0], [0], eye), ([0], [1], eye)], rhs=[1.0]
            )


class TestMemoryBudget:
    # peak traced memory of one robustness solve, build included, against the
    # bytes of its m x m Schur complement
    @pytest.mark.parametrize("dims,m", [((3, 3, 2, 2), 332), ((2, 3, 4, 2), 291)])
    def test_roi_primal_peak(self, dims, m, monkeypatch):
        sizes = []
        real_solve = sdp.solve

        def recording(problem, opts=None):
            sizes.append(problem.n_constraints)
            return real_solve(problem, opts)

        monkeypatch.setattr(sdp, "solve", recording)
        p = random_pid(*dims, seed=1)
        tracemalloc.start()
        try:
            roi_primal(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [m]
        assert peak <= 8 * (m * m * 8)


def _haar(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestCholeskySolver:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        m=st.sampled_from([1, 31, 32, 33, 64, 65, 332]),
        log_cond=st.floats(0.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_linalg_solve(self, m, log_cond, seed):
        sla = pytest.importorskip("scipy.linalg")  # an oracle here, never at run time
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        h = (q * np.logspace(0, -log_cond, m)) @ q.T
        h = (h + h.T) / 2
        r = rng.standard_normal(m)
        l = np.linalg.cholesky(h)
        v = sdp._CholeskySolver(l)(r)
        lu = np.linalg.solve(h, r)
        oracle = sla.solve_triangular(l, sla.solve_triangular(l, r, lower=True), lower=True, trans="T")
        eps = np.finfo(float).eps

        def rel_residual(x):
            return np.linalg.norm(h @ x - r) / (np.linalg.norm(h, 2) * np.linalg.norm(x))

        # a backward-stable bound, met by both references as well
        for x in (v, lu, oracle):
            assert rel_residual(x) <= 16 * m * eps
        for ref in (lu, oracle):
            assert np.linalg.norm(v - ref) <= 16 * m * eps * 10**log_cond * np.linalg.norm(ref)

    def test_newton_solves_use_the_factor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        statuses = []
        real_solve = sdp.solve

        def recording_solve(*args, **kwargs):
            sol = real_solve(*args, **kwargs)
            statuses.append((args[0].n_constraints, sol.status))
            return sol

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(sdp, "solve", recording_solve)
        roi_primal(random_pid(2, 3, 4, 2, seed=1))  # the benchmark's qubit-qutrit-4x2 device
        assert statuses == [(291, SdpStatus.OPTIMAL)]


class TestSchurPrecision:
    # Local-unitary rotations of random_pid(2, 2, 2, 2, seed=1), compressed to
    # their measurement family: the dual robustness program on these stops
    # with NumericalFailure when the Schur system is solved through
    # H^-1 = inv(L)^T inv(L) formed explicitly from its Cholesky factor L,
    # instead of by substitution with L.
    @pytest.mark.parametrize("s,i", [(43, 5), (43, 42), (41, 3), (41, 13), (41, 30)])
    def test_sem_dual_reaches_optimality(self, s, i):
        base = random_pid(2, 2, 2, 2, seed=1)
        rng = np.random.default_rng((s * 1_000_003 + i) * 16)
        w = np.kron(_haar(rng, base.din).T, _haar(rng, base.dout))
        p = Pid(base.din, base.dout, w @ base.blocks @ w.conj().T)
        cert = roi_dual(pid_from_pmd(sem(p).pmd))  # raises unless Optimal
        assert cert.r > 0.0


def _instrument_value(zs, din, dout, stacked):
    """Maximize sum_k Tr[Z_k J_k] over instruments; the TP rows in one statement or row by row."""
    b = ComplexSdpBuilder(din * dout)
    js = b.add_blocks(len(zs))
    b.set_objective(dict(zip(js, zs)), sense="max")
    basis = hermitian_basis(din)
    if stacked:
        tp = np.stack([np.kron(h, np.eye(dout)) for h in basis])
        b.add_constraint(dict.fromkeys(js, tp), [np.trace(h).real for h in basis])
    else:
        for h in basis:
            b.add_constraint({j: np.kron(h, np.eye(dout)) for j in js}, np.trace(h).real)
    return b.solve()


def _rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestSharedStacks:
    def test_stack_statement_matches_single_rows(self):
        rng = np.random.default_rng(np.random.Philox(45))
        for din, dout, n in ((2, 2, 3), (3, 2, 2), (2, 3, 4)):
            zs = [_rand_herm(rng, din * dout) for _ in range(n)]
            one = _instrument_value(zs, din, dout, stacked=True)
            rows = _instrument_value(zs, din, dout, stacked=False)
            assert one.status is rows.status is SdpStatus.OPTIMAL
            assert abs(one.primal_value - rows.primal_value) <= 1e-9
            assert one.iterations == rows.iterations

    def test_best_instrument_matches_single_rows(self, monkeypatch):
        iterations = []

        def counting(problem, opts=None):
            sol = solve(problem, opts)
            iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(sdp, "solve", counting)
        rng = np.random.default_rng(np.random.Philox(47))
        for din, dout, n in ((2, 2, 1), (2, 2, 3), (3, 2, 2), (2, 3, 4)):
            zs = [_rand_herm(rng, din * dout) for _ in range(n)]
            value, js, _ = sdp.best_instrument(zs, din, dout)
            rows = _instrument_value(zs, din, dout, stacked=False)
            assert rows.status is SdpStatus.OPTIMAL
            assert abs(value - rows.primal_value) <= 1e-9
            assert iterations[-2] == rows.iterations
            assert js.shape == (n, din * dout, din * dout)
        with pytest.raises(ArithmeticError, match="channel step"):
            sdp.best_instrument(zs[:1], din, dout, SolveOptions(max_iter=1), "channel step")

    @staticmethod
    def chain(cs, flip):
        """Blocks x = y = z stated over one basis stack, unit trace on y.

        Block x carries the basis in both equalities, or (``flip``) the basis
        in one and its negative in the other.  Returns the builder and the
        handles of x, y and z.
        """
        basis = hermitian_basis(2)
        neg = -basis
        zero = np.zeros(len(basis))
        b = ComplexSdpBuilder(2)
        x, y, z = handles = b.add_blocks(3)
        b.set_objective(dict(zip(handles, cs)))
        b.add_constraint({x: basis, y: neg}, zero)
        b.add_constraint({z: basis, x: neg} if flip else {x: basis, z: neg}, zero)
        b.add_constraint({y: np.eye(2)}, 1.0)
        return b, handles

    @pytest.mark.parametrize("flip", [False, True])
    def test_reused_matrix_under_both_signs(self, flip):
        rng = np.random.default_rng(np.random.Philox(46))
        for _ in range(5):
            cs = [_rand_herm(rng, 2) for _ in range(3)]
            b, (x, y, z) = self.chain(cs, flip)
            assert len(b._columns()[x].mats) == (8 if flip else 4)
            assert list(b._columns()[x].rows) == list(range(8))
            res = b.solve()
            assert res.status is SdpStatus.OPTIMAL
            assert abs(res.primal_value - np.linalg.eigvalsh(sum(cs))[0]) <= 1e-6
            assert res.primal_blocks.shape == (3, 2, 2)
            for other in (y, z):
                assert np.allclose(res.primal_blocks[other], res.primal_blocks[x], atol=1e-6)

    def test_each_stack_embedded_once(self, monkeypatch):
        # the builder checks each distinct stack once and hands it on unembedded
        calls = []
        check = sdp.hermitize

        def counting(h):
            calls.append(np.shape(h))
            return check(h)

        monkeypatch.setattr(sdp, "hermitize", counting)
        self.chain([np.eye(2)] * 3, flip=True)
        # three objective matrices, then basis, neg and the identity once each
        assert calls[3:] == [(4, 2, 2), (4, 2, 2), (1, 2, 2)]


class TestComplexBuilder:
    def test_unknown_block_rejected(self):
        b = ComplexSdpBuilder(2)
        b.add_blocks(1)
        for handle in (1, 7, -1, "x"):  # out of range, negative, not an integer
            with pytest.raises(ValueError, match="handle"):
                b.add_constraint({handle: np.eye(2)}, 5)
            with pytest.raises(ValueError, match="handle"):
                b.set_objective({handle: np.eye(2)})

    def test_handles_number_blocks_in_order(self):
        b = ComplexSdpBuilder(2)
        assert b.add_blocks(2).tolist() == [0, 1]
        assert b.add_blocks(0).tolist() == []
        assert b.add_blocks(3).tolist() == [2, 3, 4]

    def test_stack_must_match_rhs_and_block(self):
        b = ComplexSdpBuilder(2)
        (x,) = b.add_blocks(1)
        with pytest.raises(ValueError, match="block 0"):
            b.add_constraint({x: np.stack([np.eye(2)] * 3)}, [1.0, 2.0])
        with pytest.raises(ValueError, match="block 0"):
            b.add_constraint({x: np.eye(3)}, 1.0)

    def test_min_eigenvalue_complex(self):
        y = np.array([[0, -1j], [1j, 0]])
        b = ComplexSdpBuilder(2)
        (x,) = b.add_blocks(1)
        b.set_objective({x: y})
        b.add_constraint({x: np.eye(2)}, 1.0)
        res = b.solve()
        assert res.status is SdpStatus.OPTIMAL
        assert abs(res.primal_value - (-1.0)) <= 1e-6
        xm = res.primal_blocks[x]
        assert abs(np.trace(xm).real - 1.0) <= 1e-6
        assert np.linalg.eigvalsh(xm)[0] >= -1e-8
        # the slack of the single constraint: Y - y * 1 >= 0 with y = -1
        assert np.allclose(res.dual_slacks[x], y + np.eye(2), rtol=0, atol=1e-6)

    def test_max_sense(self):
        h = np.array([[1.0, 0.5j], [-0.5j, -0.25]])
        b = ComplexSdpBuilder(2)
        (x,) = b.add_blocks(1)
        b.set_objective({x: h}, sense="max")
        b.add_constraint({x: np.eye(2)}, 1.0)
        res = b.solve()
        lam_max = np.linalg.eigvalsh(h)[-1]
        assert abs(res.primal_value - lam_max) <= 1e-6
        with pytest.raises(ArithmeticError, match="toy"):
            b.solve(SolveOptions(max_iter=1)).require_optimal("toy")

    def test_hermitian_basis_orthonormal(self):
        basis = hermitian_basis(3)
        assert basis.shape == (9, 3, 3)
        assert np.array_equal(basis, basis.conj().swapaxes(1, 2))
        gram = np.einsum("ipq,jpq->ij", basis.conj(), basis)
        assert np.allclose(gram, np.eye(9), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_traceless_basis(self, n):
        basis = traceless_basis(n)
        assert basis.shape == (n * n - 1, n, n)
        assert np.array_equal(basis, basis.conj().swapaxes(1, 2))
        assert np.abs(np.trace(basis, axis1=1, axis2=2)).max(initial=0.0) <= 1e-15
        gram = np.einsum("ipq,jpq->ij", basis.conj(), basis).real
        # unit elements; the n - 1 diagonal ones (E_00 - E_kk)/sqrt 2 overlap
        # by 1/2, everything else is orthogonal
        expect = np.eye(n * n - 1)
        expect[: n - 1, : n - 1] += 0.5 * (1 - np.eye(n - 1))
        assert np.allclose(gram, expect, rtol=0, atol=1e-12)
        assert np.linalg.matrix_rank(gram) == n * n - 1  # spans the traceless matrices

    def test_kron_stack_matches_kron_loops(self):
        for din in range(1, 5):
            h_in, t_in = hermitian_basis(din), traceless_basis(din)
            for dout in range(1, 5):
                h_out, t_out = hermitian_basis(dout), traceless_basis(dout)
                eye = np.eye(dout)[None]
                for a, b in ((h_in, eye), (t_in, eye), (h_in, t_out), (t_out, h_out)):
                    shape = (len(a) * len(b), a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])
                    ref = np.array([np.kron(x, y) for x in a for y in b]).reshape(shape)
                    # bit for bit, signed zeros included
                    assert kron_stack(a, b).tobytes() == ref.tobytes(), (din, dout)


def _rand_hpd(rng, n):
    a = rng.standard_normal((n, n + 2)) + 1j * rng.standard_normal((n, n + 2))
    return a @ a.conj().T + 0.1 * np.eye(n)


def _random_complex_builder(rng, cdim, n, m):
    """Strictly feasible builder problem: n blocks, a trace row and m random Hermitian rows."""
    b = ComplexSdpBuilder(cdim)
    xs = b.add_blocks(n)
    stacks = [np.stack([np.eye(cdim)] + [_rand_herm(rng, cdim) for _ in range(m)]) for _ in xs]
    x0 = [_rand_hpd(rng, cdim) for _ in xs]
    s0 = [_rand_hpd(rng, cdim) for _ in xs]
    y0 = rng.standard_normal(m + 1)
    rhs = sum(np.einsum("kpq,qp->k", a, x).real for a, x in zip(stacks, x0))
    b.set_objective({x: np.einsum("k,kpq->pq", y0, a) + s for x, a, s in zip(xs, stacks, s0)})
    b.add_constraint(dict(zip(xs, stacks)), rhs)
    return b


def _exactly_hermitian(stack):
    return np.array_equal(stack, stack.conj().swapaxes(-1, -2))


class TestExactIterates:
    """Complex blocks come back exactly Hermitian; real blocks stay real."""

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        cdim=st.integers(2, 4),
        n=st.integers(1, 3),
        m=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_builder_blocks_exactly_hermitian(self, cdim, n, m, seed):
        res = _random_complex_builder(np.random.default_rng(seed), cdim, n, m).solve()
        assert res.status is SdpStatus.OPTIMAL
        for stack in (res.primal_blocks, res.dual_slacks):
            assert stack.shape == (n, cdim, cdim)
            assert _exactly_hermitian(stack)

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        dims=st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)]),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_best_instrument_exactly_hermitian(self, dims, n, seed):
        din, dout = dims
        rng = np.random.default_rng(seed)
        zs = [_rand_herm(rng, din * dout) for _ in range(n)]
        _, js, _ = sdp.best_instrument(zs, din, dout)
        assert _exactly_hermitian(js)
        res = _instrument_value(zs, din, dout, stacked=True)  # the same program, with its slacks
        assert res.status is SdpStatus.OPTIMAL
        assert _exactly_hermitian(res.primal_blocks) and _exactly_hermitian(res.dual_slacks)

    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_real_problems_return_real_blocks(self, seed):
        rng = np.random.default_rng(seed)
        p = _sparse_feasible_problem(rng, GROUPED_DIMS, GROUPED_SUPPORTS, 6)
        imag = []
        blocks = sdp._SizeClass.blocks

        def recording(cls, x):
            imag.append(float(np.abs(x.imag).max()))
            return blocks(cls, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp._SizeClass, "blocks", recording)
            sol = solve(p)
        assert sol.status is SdpStatus.OPTIMAL
        # held as complex blocks whose imaginary parts stay exactly zero
        assert imag and max(imag) == 0.0
        for xb, d in zip(sol.primal_blocks + sol.dual_slacks, GROUPED_DIMS * 2):
            assert np.isrealobj(xb) and xb.shape == (d, d)


# ---------------------------------------------------------------------------
# Schur blocks of Q (x) 1 stacks through a partial trace
# ---------------------------------------------------------------------------


@st.composite
def _kron_problems(draw):
    """A column-form problem whose blocks share one stack ``Q_i (x) 1_o``, with the rng.

    ``Q`` is a Hermitian basis of size ``a`` or a few random Hermitian
    matrices; the 1-3 blocks carry it on the same rows or on rows and in
    orders of their own.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, o, n = draw(st.integers(1, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        q = hermitian_basis(a)
    else:
        q = np.stack([_rand_herm(rng, a) for _ in range(draw(st.integers(1, 4)))])
    mats = kron_stack(q, np.eye(o)[None])
    u = len(mats)
    if draw(st.booleans()):
        columns = [(np.arange(u), np.arange(u), mats)] * n
        m = u
    else:
        m = u + draw(st.integers(0, 3))
        columns = [
            (np.sort(rng.choice(m, u, replace=False)), rng.permutation(u), mats) for _ in range(n)
        ]
    c = a * o
    problem = SdpProblem(
        [(k, 2 * c) for k in range(n)],
        [_rand_herm(rng, c) for _ in range(n)],
        columns=columns,
        rhs=rng.standard_normal(m),
    )
    return problem, (a, o), rng


def _group_schur(problem, w):
    """``H`` of ``problem``'s one block group at scalings ``w`` ``(B, n, c, c)``, and the group."""
    (members,) = sdp._group_blocks(problem)
    grp = sdp._BlockGroup(problem, members)
    h = np.zeros((len(w), problem.n_constraints, problem.n_constraints))
    grp.add_schur(w, h)
    return h, grp


class TestPartialTraceSchur:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=_kron_problems())
    def test_matches_generic_assembly(self, case):
        problem, (a, o), rng = case
        n, c = len(problem.blocks), a * o
        w = np.stack([np.stack([_rand_hpd(rng, c) for _ in range(n)]) for _ in range(2)])
        h, grp = _group_schur(problem, w)
        assert grp.kron is not None and grp.kron[1:] == (a, o)
        assert not hasattr(grp, "mats_tall") and not hasattr(grp, "mats_col")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp, "_kron_factor", lambda mats: None)
            ref, generic = _group_schur(problem, w)
        assert generic.kron is None
        assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(case=_kron_problems())
    def test_one_ulp_off_takes_the_generic_path(self, case):
        problem, _, rng = case
        rows, index, mats = problem.columns[0]
        bent = mats.copy()
        bent[0, 0, 0] = np.nextafter(bent[0, 0, 0].real, np.inf)
        columns = [(r, i, bent) for r, i, _ in problem.columns]
        problem = SdpProblem(problem.blocks, problem.objective, columns=columns, rhs=problem.rhs)
        w = np.stack([_rand_hpd(rng, bent.shape[-1]) for _ in problem.blocks])[None]
        h, grp = _group_schur(problem, w)
        assert grp.kron is None and hasattr(grp, "mats_tall")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp, "_kron_factor", lambda mats: None)
            ref, _ = _group_schur(problem, w)
        assert np.array_equal(h, ref)

    @pytest.mark.parametrize("din,dout", [(2, 2), (2, 8), (8, 2), (3, 1), (1, 3)])
    def test_instrument_stack_is_detected(self, din, dout):
        tp, _ = sdp._instrument_stack(din, dout)
        assert not tp.flags.writeable
        if dout == 1:  # no factor to trace out
            assert sdp._kron_factor(tp) is None
        else:
            (cols, vals), a, o = sdp._kron_factor(tp)
            assert (a, o) == (din, dout)
            q = np.zeros((din * din, din * din), dtype=complex)
            np.put_along_axis(q, cols, vals, axis=1)
            assert np.array_equal(q, hermitian_basis(din).reshape(din * din, -1))
            assert cols.shape[1] == min(2, din * din)  # a Hermitian basis element has 1 or 2 entries

    def test_robustness_groups_are_not_detected(self):
        groups = []
        real_init = sdp._BlockGroup.__init__

        def recording(grp, problem, members):
            real_init(grp, problem, members)
            groups.append(grp)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp._BlockGroup, "__init__", recording)
            for dims in ((2, 2, 2, 2), (1, 3, 2, 3), (2, 3, 4, 2)):
                p = random_pid(*dims, seed=1)
                roi_primal(p)
                roi_dual(p)
        assert groups and all(grp.kron is None for grp in groups)


# ---------------------------------------------------------------------------
# Problems of one structure solved in lockstep
# ---------------------------------------------------------------------------


def _recorded_batches(run):
    """The problem lists and options every ``solve_batch`` call of ``run()`` receives."""
    calls = []
    real = sdp.solve_batch

    def recording(problems, opts=None):
        calls.append((list(problems), opts))
        return real(problems, opts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve_batch", recording)
        run()
    return calls


def _assert_batch_matches_solves(problems, opts=None):
    """Each problem of a lockstep batch against its own ``solve``, to 1e-12."""
    batch = sdp.solve_batch(problems, opts)
    alone = [solve(p, opts) for p in problems]
    for one, other in zip(batch, alone):
        assert one.status is other.status
        assert one.iterations == other.iterations
        for a, b in ((one.primal_value, other.primal_value), (one.dual_value, other.dual_value)):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12, equal_nan=True)
        assert np.allclose(one.dual_multipliers, other.dual_multipliers, rtol=0, atol=1e-12, equal_nan=True)
        for x, z in zip(one.primal_blocks + one.dual_slacks, other.primal_blocks + other.dual_slacks):
            assert np.allclose(x, z, rtol=0, atol=1e-12, equal_nan=True)
    return batch


def _rotations(base, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = np.kron(_haar(rng, base.din).T, _haar(rng, base.dout))
        out.append(Pid(base.din, base.dout, w @ base.blocks @ w.conj().T))
    return out


def _mixed_devices():
    """Rotations of a non-simple and of a simple qubit device; their programs share one structure."""
    from pidlab.devices import random_simple_pid

    return _rotations(random_pid(2, 2, 2, 2, seed=1), 2, 11) + _rotations(
        random_simple_pid(2, 2, 2, 2, seed=1).pid, 2, 12
    )


def _roi_primal_problems(devices):
    calls = []
    real = sdp.solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve", lambda problem, opts=None: calls.append((problem, opts)) or real(problem, opts))
        for p in devices:
            try:
                roi_primal(p)
            except ArithmeticError:  # the problem is what is wanted, whatever its status
                pass
    return [problem for problem, _ in calls], calls[0][1]


class TestSolveBatch:
    def test_seesaw_steps(self):
        from pidlab.compatibility import roi
        from pidlab.games import witness_game
        from pidlab.simulation import seesaw_pguess

        p = random_pid(2, 2, 2, 2, seed=1)
        game = witness_game(roi(p), n_dummy=8)
        calls = _recorded_batches(lambda: seesaw_pguess(p, game, restarts=3, iters=2, seed=7))
        sizes = {(problems[0].n_constraints, len(problems)) for problems, _ in calls}
        assert {(4, 3), (64, 3)} <= sizes  # channel and instrument steps, three restarts each
        for problems, opts in calls:
            _assert_batch_matches_solves(problems, opts)

    def test_pguess_simple_programs(self):
        from pidlab.games import verify_robustness_bound

        p = random_pid(2, 2, 2, 2, seed=3)
        calls = _recorded_batches(lambda: verify_robustness_bound(p, schedule=(8, 64, 512)))
        # roi() solves one problem; the three games' benchmarks go as one batch
        assert [len(problems) for problems, _ in calls] == [1, 3]
        problems, opts = calls[1]
        assert len(problems[0].blocks) == 9
        _assert_batch_matches_solves(problems, opts)

    def test_roi_primal_programs_stopping_apart(self):
        problems, opts = _roi_primal_problems(_mixed_devices())
        batch = _assert_batch_matches_solves(problems, opts)
        assert len({sol.iterations for sol in batch}) > 1
        assert all(sol.status is SdpStatus.OPTIMAL for sol in batch)

    def test_one_problem_out_of_iterations(self):
        problems, opts = _roi_primal_problems(_mixed_devices())
        counts = [sol.iterations for sol in sdp.solve_batch(problems, opts)]
        short = replace(opts, max_iter=max(counts) - 1)
        batch = _assert_batch_matches_solves(problems, short)
        statuses = {sol.status for sol in batch}
        assert statuses == {SdpStatus.OPTIMAL, SdpStatus.MAX_ITER}
        for sol, count in zip(batch, counts):
            assert sol.iterations == min(count, short.max_iter)

    def test_numerical_failure_leaves_the_others(self):
        # a NaN in one objective breaks that problem's first scaling only
        problems, opts = _roi_primal_problems(_mixed_devices())
        bad = problems[1]
        objective = [c.copy() for c in bad.objective]
        objective[0][0, 0] = np.nan
        problems[1] = SdpProblem(bad.blocks, objective, columns=bad.columns, rhs=bad.rhs)
        batch = _assert_batch_matches_solves(problems, opts)
        assert [sol.status for sol in batch] == [
            SdpStatus.OPTIMAL, SdpStatus.NUMERICAL_FAILURE, SdpStatus.OPTIMAL, SdpStatus.OPTIMAL
        ]
        assert batch[1].iterations == 1

    def test_near_boundary_device_in_a_batch(self):
        # the Haar rotation of the edge device random_pid(2, 2, 2, 2, seed=1192)
        # on which roi_primal stops short of Optimal on some platforms
        base = random_pid(2, 2, 2, 2, seed=1192)
        rng = np.random.default_rng(7919 * 35 + 1192)
        w = np.kron(_haar(rng, base.din).T, _haar(rng, base.dout))
        edge = Pid(base.din, base.dout, w @ base.blocks @ w.conj().T)
        problems, opts = _roi_primal_problems([edge, *_mixed_devices()])
        batch = _assert_batch_matches_solves(problems, opts)
        assert all(sol.status is SdpStatus.OPTIMAL for sol in batch[1:])

    def test_rejects_mixed_structures(self):
        a, _ = _roi_primal_problems([random_pid(2, 2, 2, 2, seed=1)])
        b, _ = _roi_primal_problems([random_pid(2, 2, 3, 3, seed=1)])
        with pytest.raises(ValueError, match="same blocks and columns"):
            sdp.solve_batch(a + b)
        assert sdp.solve_batch([]) == sdp.best_instruments([], 2, 2) == []

    def test_callers_match_sequential_solves(self):
        from pidlab import games, simulation
        from pidlab.compatibility import roi

        def one_by_one(batch, din, dout, opts=None, what="instrument"):
            return [sdp.best_instrument(zs, din, dout, opts, what) for zs in batch]

        p = random_pid(2, 2, 2, 2, seed=2)
        game = games.witness_game(roi(p), n_dummy=8)

        def run():
            report = games.verify_robustness_bound(p, schedule=(8, 64))
            seesaw = simulation.seesaw_pguess(p, game, restarts=3, iters=3, seed=5)
            return report, seesaw

        report, seesaw = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(games, "best_instruments", one_by_one)
            mp.setattr(simulation, "best_instruments", one_by_one)
            ref_report, ref_seesaw = run()
        for a, b in zip(
            report.ratios + report.lower_bounds + report.benchmarks + (seesaw.value,),
            ref_report.ratios + ref_report.lower_bounds + ref_report.benchmarks + (ref_seesaw.value,),
        ):
            assert abs(a - b) <= 1e-12
        f, g = seesaw.simulation, ref_seesaw.simulation
        assert np.array_equal(f.p_cc.table, g.p_cc.table) and np.array_equal(f.q_cc.table, g.q_cc.table)
        assert np.allclose(f.pre.mat, g.pre.mat, rtol=0, atol=1e-12)
        for x, z in zip(f.post.branches, g.post.branches):
            assert np.allclose(x.mat, z.mat, rtol=0, atol=1e-12)


class TestObjectiveSense:
    @pytest.mark.parametrize("sense", ["maximize", "MAX", "", None])
    def test_unknown_sense_rejected(self, sense):
        b = ComplexSdpBuilder(2)
        (x,) = b.add_blocks(1)
        with pytest.raises(ValueError, match="sense"):
            b.set_objective({x: np.eye(2)}, sense=sense)
