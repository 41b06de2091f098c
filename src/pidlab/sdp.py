"""Dense semidefinite programming with primal-dual certificates.

Solves standard-form problems over real symmetric PSD blocks,

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_{i,b}, X_b> = b_i   (i = 1..m),   X_b >= 0,

with a Mehrotra-style predictor-corrector path-following method using
Nesterov-Todd scaling.

Constraints are stored by block column: a block keeps the rows it appears
in (its support), its distinct matrices, and per row an index into them, so
a matrix equality stated once over a Hermitian basis shares that basis with
every block it covers.  Blocks are grouped by size, support size and
distinct-matrix count and held as ``(n, d, d)`` stacks, so Cholesky, SVD,
inverse and step-length eigenvalues run once per group.  The Schur
complement ``H[i, j] = sum_b <A_{i,b}, W_b A_{j,b} W_b>`` is built per block
from its ``u`` distinct matrices (``U (W U W)^T``, ``u x u``) and scattered
into the rows of its support (the sparsity argument of Fujisawa, Kojima and
Nakata, Math. Prog. 79, 1997).  ``H`` is dense (a few hundred rows) and is
Cholesky-factored once per iteration, with the smallest ridge of a short
ladder at which it factors.  That one factor serves all three solves of the
iteration, the predictor, the corrector, and the corrector's Newton
correction for the primal residual that forming its direction leaves behind
(which keeps problems near the boundary of the cone primal feasible), by
blocked forward and back substitution; ``H^-1`` is never formed (as in
SDPT3, Toh, Todd and Tutuncu, 1999).  A solve that runs out of iterations
reports :attr:`SdpStatus.MAX_ITER`, with the residuals of the iterate it
returns.  Everything is deterministic, so identical inputs produce identical
iterates.

Complex Hermitian problems are handled by :class:`ComplexSdpBuilder`, over
blocks of one size named by integer handles.  It embeds every Hermitian
matrix ``H = P + iQ`` as the real symmetric matrix ``[[P, -Q], [Q, P]]``
(doubling traces and eigenvalue multiplicities), undoes the doubling when
reporting values, and returns the same :class:`SdpSolution` with its blocks
as complex stacks indexed by handle.  Bases for matrix constraints come from
:func:`hermitian_basis`, :func:`traceless_basis` and their Kronecker
products, :func:`kron_stack`.  :func:`best_instrument` is the one instrument
program built on it: maximize ``sum_k Tr[Z_k J_k]`` over trace-preserving
instruments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import hermitize, max_abs

__all__ = [
    "BlockColumn",
    "ComplexSdpBuilder",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "SolveOptions",
    "best_instrument",
    "embed_complex",
    "hermitian_basis",
    "kron_stack",
    "solve",
    "traceless_basis",
    "unembed_complex",
]

DIVERGENCE_LIMIT = 1e8
_PANEL = 32  # rows per panel of the Schur factor's substitution


class SdpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    NUMERICAL_FAILURE = "NumericalFailure"
    MAX_ITER = "MaxIterations"


@dataclass(frozen=True)
class SolveOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-7
    max_iter: int = 200
    step_frac: float = 0.98


class BlockColumn(NamedTuple):
    """One block's constraint data: row ``rows[j]`` carries ``mats[index[j]]``.

    ``mats`` ``(u, d, d)`` holds the block's distinct matrices; rows the
    block does not appear in are absent.
    """

    rows: np.ndarray
    index: np.ndarray
    mats: np.ndarray


class SdpProblem:
    """Block SDP data, held one block column at a time.

    ``columns[k]`` is block ``k``'s :class:`BlockColumn` and ``rhs`` the
    ``m`` right-hand sides.  Pass either ``columns`` and ``rhs``, or
    ``constraints`` as rows of ``(per-block matrices, rhs)``, in which case
    each nonzero matrix of a block becomes its own entry of that block's
    column.  Shapes, indices and symmetry are checked once per distinct
    matrix.
    """

    def __init__(self, blocks, objective, constraints=None, *, columns=None, rhs=None):
        self.blocks = tuple(blocks)
        self.objective = tuple(objective)
        dims = [d for _, d in self.blocks]
        if len(self.objective) != len(dims):
            raise ValueError("objective must provide one matrix per block")
        if (constraints is None) == (columns is None):
            raise ValueError("pass either constraints or columns and rhs")
        if constraints is not None:
            columns, rhs = _row_form_columns(constraints, dims)
        self.rhs = np.asarray(rhs, dtype=float).reshape(-1)
        self.columns = tuple(
            BlockColumn(np.asarray(r, np.intp), np.asarray(i, np.intp), np.asarray(a, float))
            for r, i, a in columns
        )
        if len(self.columns) != len(dims):
            raise ValueError("columns must provide one entry per block")
        for d, c, (rows, index, mats) in zip(dims, self.objective, self.columns):
            _check_mats(np.asarray(c, dtype=float)[None], d, "objective")
            _check_mats(mats, d, "constraint")
            if rows.ndim != 1 or rows.shape != index.shape or not np.all(
                (0 <= rows) & (rows < len(self.rhs)) & (0 <= index) & (index < len(mats))
            ):
                raise ValueError("block column rows and index must be matching in-range vectors")

    @property
    def n_constraints(self) -> int:
        return len(self.rhs)


def _row_form_columns(constraints, dims: list[int]):
    """Block columns and right-hand sides of ``(per-block matrices, rhs)`` rows."""
    if any(len(row) != len(dims) for row, _ in constraints):
        raise ValueError("constraint row must cover every block")
    columns = []
    for k, d in enumerate(dims):
        bad = {np.shape(row[k]) for row, _ in constraints} - {(d, d)}
        if bad:
            raise ValueError(f"constraint matrix shape {bad.pop()} does not match block dim {d}")
        col = np.array([row[k] for row, _ in constraints], dtype=float).reshape(-1, d, d)
        rows = np.flatnonzero(col.reshape(len(col), -1).any(axis=1))
        columns.append((rows, np.arange(len(rows)), col[rows]))
    return columns, [rhs for _, rhs in constraints]


def _check_mats(stack: np.ndarray, dim: int, what: str) -> None:
    """Check a ``(u, dim, dim)`` stack: shape, then symmetry of each matrix."""
    if stack.ndim != 3 or stack.shape[1:] != (dim, dim):
        raise ValueError(f"{what} matrix shape {stack.shape[1:]} does not match block dim {dim}")
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    if np.any(asym > 1e-12 * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))):
        raise ValueError(f"{what} matrix has an antisymmetric part")


@dataclass
class SdpSolution:
    """Primal-dual result of a solve.

    From :func:`solve`, ``primal_blocks`` and ``dual_slacks`` are lists with
    one real matrix per block; from :meth:`ComplexSdpBuilder.solve` they are
    complex ``(n, cdim, cdim)`` stacks indexed by block handle.
    """

    status: SdpStatus
    primal_value: float
    dual_value: float
    primal_blocks: list[np.ndarray] | np.ndarray
    dual_multipliers: np.ndarray
    dual_slacks: list[np.ndarray] | np.ndarray
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float

    def require_optimal(self, what: str = "SDP") -> "SdpSolution":
        """Return ``self``; raise ``ArithmeticError`` naming ``what`` unless optimal."""
        if self.status is not SdpStatus.OPTIMAL:
            raise ArithmeticError(f"{what} did not reach optimality: {self.status.value}")
        return self


def embed_complex(h: np.ndarray) -> np.ndarray:
    """Real symmetric embedding ``[[Re, -Im], [Im, Re]]`` of a Hermitian matrix.

    ``h`` is one matrix or a stack ``(..., n, n)``, embedded matrix by matrix.
    The embedding is PSD iff the input is, its eigenvalues are the doubled
    multiset of the input's, and traces double.
    """
    h = hermitize(h)
    re, im = h.real, h.imag
    return np.concatenate(
        [np.concatenate([re, -im], axis=-1), np.concatenate([im, re], axis=-1)], axis=-2
    )


def unembed_complex(x: np.ndarray) -> np.ndarray:
    """Project ``2n x 2n`` real symmetric matrices, one or a stack, back to Hermitian ``n x n``."""
    n2 = x.shape[-1]
    if n2 % 2:
        raise ValueError("embedded matrix must have even dimension")
    n = n2 // 2
    p = (x[..., :n, :n] + x[..., n:, n:]) / 2
    q = (x[..., n:, :n] - x[..., :n, n:]) / 2
    return hermitize(p + 1j * q, tol=1e-8)


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis ``(n*n, n, n)`` of n x n Hermitian matrices.

    The diagonal units come first, then for each ``k < l`` the real and the
    imaginary off-diagonal pair ``(E_kl + E_lk)/sqrt 2``, ``i(E_lk - E_kl)/sqrt 2``.
    """
    basis = np.zeros((n * n, n, n), dtype=complex)
    diag = np.arange(n)
    basis[diag, diag, diag] = 1.0
    k, l = np.triu_indices(n, 1)
    pos = n + 2 * np.arange(len(k))
    s = 1.0 / np.sqrt(2.0)
    basis[pos, k, l] = basis[pos, l, k] = s
    basis[pos + 1, k, l] = -1j * s
    basis[pos + 1, l, k] = 1j * s
    return basis


def traceless_basis(n: int) -> np.ndarray:
    """Basis ``(n*n - 1, n, n)`` of the traceless Hermitian matrices: ``(E_00 - E_kk)/sqrt 2``
    and the off-diagonal elements of :func:`hermitian_basis`.

    Every element has unit norm; the diagonal ones overlap by 1/2, so the basis is
    orthonormal only for ``n <= 2``.
    """
    h = hermitian_basis(n)
    return np.concatenate([(h[:1] - h[1:n]) / np.sqrt(2.0), h[n:]])


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a[i], b[j])`` for every pair, ``i`` major, from stacks ``a`` and ``b``."""
    (na, p, r), (nb, q, s) = np.shape(a), np.shape(b)
    out = np.asarray(a)[:, None, :, None, :, None] * np.asarray(b)[None, :, None, :, None, :]
    return out.reshape(na * nb, p * q, r * s)


# ---------------------------------------------------------------------------
# Core interior-point solver
# ---------------------------------------------------------------------------


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.swapaxes(-1, -2)) / 2


class _BlockGroup:
    """Blocks of one size ``d`` with ``r`` support rows and ``u`` distinct matrices.

    ``rows`` ``(n, r)`` holds each block's support rows and ``mats``
    ``(n, u, d, d)`` its distinct matrices; ``members`` are the blocks'
    positions in the problem.  Flat positions computed once per solve map
    each row to its matrix (``mat_pos``), each pair of rows to its entry of
    ``U (W U W)^T`` (``pair_pos``) and to its entry of H (``h_pos``).
    """

    def __init__(self, problem: SdpProblem, members: list[int]):
        cols = [problem.columns[k] for k in members]
        self.members = members
        self.dim = d = problem.blocks[members[0]][1]
        self.rows = np.stack([col.rows for col in cols])
        self.mats = np.stack([col.mats for col in cols])
        n, u = self.mats.shape[:2]
        self.mats_flat = self.mats.reshape(n, u, d * d)
        self.c = np.stack([np.asarray(problem.objective[k], dtype=float) for k in members])
        index = np.stack([col.index for col in cols])
        self.mat_pos = (index + u * np.arange(n)[:, None]).ravel()
        pair = index[:, :, None] * u + index[:, None, :]
        self.pair_pos = (pair + u * u * np.arange(n)[:, None, None]).ravel()
        self.h_pos = (self.rows[:, :, None] * problem.n_constraints + self.rows[:, None, :]).ravel()

    def apply_a(self, x: np.ndarray, m: int) -> np.ndarray:
        """``out[i] = sum_b <A_{i,b}, X_b>`` over this group, as an m-vector."""
        per_mat = (self.mats_flat @ x.reshape(len(self.members), -1, 1)).ravel()
        return np.bincount(self.rows.ravel(), per_mat[self.mat_pos], minlength=m)

    def apply_at(self, y: np.ndarray) -> np.ndarray:
        """``sum_i y_i A_{i,b}`` for each block of the group."""
        n, u = self.mats.shape[:2]
        coef = np.bincount(self.mat_pos, y[self.rows].ravel(), minlength=n * u)
        return (coef.reshape(n, 1, u) @ self.mats_flat).reshape(self.c.shape)

    def add_schur(self, w: np.ndarray, h: np.ndarray) -> None:
        """``H[i, j] += <A_{i,b}, W_b A_{j,b} W_b>``, from each block's distinct matrices."""
        n, u = self.mats.shape[:2]
        wuw = (w[:, None] @ self.mats @ w[:, None]).reshape(n, u, -1)
        per_pair = (self.mats_flat @ wuw.swapaxes(1, 2)).ravel()[self.pair_pos]
        h += np.bincount(self.h_pos, per_pair, minlength=h.size).reshape(h.shape)


class _NtScaling(NamedTuple):
    """Nesterov-Todd scaling of a group: ``W = G G^T``, ``G^-1 X G^-T = G^T S G = diag(d)``."""

    g: np.ndarray
    ginv: np.ndarray
    d: np.ndarray
    w: np.ndarray
    lx_inv: np.ndarray
    ls_inv: np.ndarray


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> _NtScaling:
    lx = np.linalg.cholesky(x)
    ls = np.linalg.cholesky(s)
    _, sv, vt = np.linalg.svd(ls.swapaxes(1, 2) @ lx)
    sv = np.maximum(sv, 1e-300)
    lx_inv = np.linalg.inv(lx)
    g = lx @ vt.swapaxes(1, 2) * (sv**-0.5)[:, None, :]
    ginv = (sv**0.5)[:, :, None] * (vt @ lx_inv)
    return _NtScaling(g, ginv, sv, g @ g.swapaxes(1, 2), lx_inv, np.linalg.inv(ls))


def _max_step(l_inv: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with X + alpha*Delta >= 0 on every block, given X = L L^T."""
    t = l_inv @ delta @ l_inv.swapaxes(1, 2)
    lam = float(np.min(np.linalg.eigvalsh(_sym(t))[:, 0]))
    if lam >= -1e-13:
        return np.inf
    return 1.0 / (-lam)


class _CholeskySolver:
    """Solve ``H v = r`` given ``H = L L^T`` by blocked forward and back substitution.

    ``L`` is cut into panels of ``_PANEL`` rows (one panel when it has
    fewer) whose diagonal blocks are inverted once per factor, in one
    batched call (a short last panel is padded with the identity); each
    solve is then matrix-vector products with those inverses and with
    ``L``'s off-diagonal panels.  ``H^-1`` is never formed.
    """

    def __init__(self, l: np.ndarray):
        m = len(l)
        w = min(_PANEL, m)
        self.l = l
        self.spans = [(a, min(a + w, m)) for a in range(0, m, w)]
        diag = np.tile(np.eye(w), (len(self.spans), 1, 1))
        for blk, (a, e) in zip(diag, self.spans):
            blk[: e - a, : e - a] = l[a:e, a:e]
        self.diag_inv = [
            inv[: e - a, : e - a] for inv, (a, e) in zip(np.linalg.inv(diag), self.spans)
        ]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        l = self.l
        z = np.empty_like(r)
        for (a, e), inv in zip(self.spans, self.diag_inv):
            z[a:e] = inv @ (r[a:e] - l[a:e, :a] @ z[:a])
        v = np.empty_like(r)
        for (a, e), inv in zip(self.spans[::-1], self.diag_inv[::-1]):
            v[a:e] = inv.T @ (z[a:e] - l[e:, a:e].T @ v[e:])
        return v


def _initial_point(groups, b, m):
    # primal blocks: identity scaled to roughly satisfy trace-like constraints
    tr = sum(grp.apply_a(np.broadcast_to(np.eye(grp.dim), grp.c.shape), m) for grp in groups)
    big = np.abs(tr) > 1e-9
    cands = np.abs(b[big]) / np.abs(tr[big])
    xi = float(np.clip(cands.max() if cands.size else 1.0, 1.0, 1e4))
    eta = float(np.clip(max(max_abs(grp.c) for grp in groups), 1.0, 1e4))
    x = [xi * np.broadcast_to(np.eye(grp.dim), grp.c.shape) for grp in groups]
    s = [eta * np.broadcast_to(np.eye(grp.dim), grp.c.shape) for grp in groups]
    return x, s, np.zeros(m)


def _group_blocks(problem: SdpProblem) -> list[list[int]]:
    """Block positions grouped by (size, support size, distinct-matrix count), in order."""
    groups: dict[tuple[int, int, int], list[int]] = {}
    for k, ((_, d), col) in enumerate(zip(problem.blocks, problem.columns)):
        groups.setdefault((d, len(col.rows), len(col.mats)), []).append(k)
    return list(groups.values())


def solve(problem: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Run the interior-point iteration and return a primal-dual certificate."""
    opts = opts or SolveOptions()
    m = problem.n_constraints
    if m == 0:
        raise ValueError("problems without equality constraints are not supported")
    ntot = sum(d for _, d in problem.blocks)
    b = problem.rhs
    groups = [_BlockGroup(problem, members) for members in _group_blocks(problem)]

    def apply_a(xs):
        return sum(grp.apply_a(xg, m) for grp, xg in zip(groups, xs))

    def inner(us, vs):
        return sum(float(np.sum(u * v)) for u, v in zip(us, vs))

    x, s, y = _initial_point(groups, b, m)
    b_scale = 1.0 + float(np.max(np.abs(b)))
    c_scale = 1.0 + max(max_abs(grp.c) for grp in groups)

    def residuals(x, s, y):
        """Primal and dual residuals of an iterate, and their scaled maxima."""
        rp = b - apply_a(x)
        rd = [grp.c - grp.apply_at(y) - sg for grp, sg in zip(groups, s)]
        return rp, rd, float(np.max(np.abs(rp))) / b_scale, max(max_abs(r) for r in rd) / c_scale

    status = SdpStatus.MAX_ITER
    it = 0
    for it in range(1, opts.max_iter + 1):
        rp, rd, pres, dres = residuals(x, s, y)
        mu = inner(x, s) / ntot
        pobj = inner((grp.c for grp in groups), x)
        dobj = float(b @ y)
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        if pres <= opts.feas_tol and dres <= opts.feas_tol and (
            gap_rel <= opts.gap_tol or mu * ntot <= opts.gap_tol
        ):
            status = SdpStatus.OPTIMAL
            break
        if dobj > DIVERGENCE_LIMIT:
            status = SdpStatus.INFEASIBLE
            break
        if pobj < -DIVERGENCE_LIMIT:
            status = SdpStatus.UNBOUNDED
            break

        try:
            nt = [_nt_scaling(xg, sg) for xg, sg in zip(x, s)]
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        h = np.zeros((m, m))
        for grp, sc in zip(groups, nt):
            grp.add_schur(sc.w, h)

        # the smallest ridge at which H factors; its factor serves every solve below
        h_scale = max(np.trace(h) / m, 1e-300)
        for ridge in (1e-14, 1e-12, 1e-10, 1e-8):
            try:
                solve_h = _CholeskySolver(np.linalg.cholesky(h + ridge * h_scale * np.eye(m)))
            except np.linalg.LinAlgError:
                continue
            break
        else:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        def newton_step(rc_scaled):
            """Given scaled complementarity RHS per group, return (dx, dy, ds)."""
            grcg = [sc.g @ rc @ sc.g.swapaxes(1, 2) for sc, rc in zip(nt, rc_scaled)]
            wrdw = [sc.w @ r @ sc.w for sc, r in zip(nt, rd)]
            dy = solve_h(rp - apply_a([gr - t for gr, t in zip(grcg, wrdw)]))
            ds = [r - grp.apply_at(dy) for grp, r in zip(groups, rd)]
            dx = [_sym(gr - sc.w @ dsg @ sc.w) for gr, sc, dsg in zip(grcg, nt, ds)]
            return dx, dy, ds

        # predictor (affine scaling): Rc = -D in scaled space, divided by L_D
        rc_aff = [-sc.d[:, None, :] * np.eye(grp.dim) for grp, sc in zip(groups, nt)]
        dx_a, dy_a, ds_a = newton_step(rc_aff)
        ap = min([_max_step(sc.lx_inv, d) for sc, d in zip(nt, dx_a)] + [1.0])
        ad = min([_max_step(sc.ls_inv, d) for sc, d in zip(nt, ds_a)] + [1.0])
        mu_aff = inner(
            [xg + ap * d for xg, d in zip(x, dx_a)], [sg + ad * d for sg, d in zip(s, ds_a)]
        ) / ntot
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0))

        # corrector: Rc = L_D^{-1}(sigma*mu*I - D^2 - H(dXhat dShat))
        rc = []
        for grp, sc, dxg, dsg in zip(groups, nt, dx_a, ds_a):
            d = sc.d
            dxh = sc.ginv @ dxg @ sc.ginv.swapaxes(1, 2)
            dsh = sc.g.swapaxes(1, 2) @ dsg @ sc.g
            rhs_mat = sigma * mu * np.eye(grp.dim) - (d * d)[:, None, :] * np.eye(grp.dim)
            rc.append((rhs_mat - _sym(dxh @ dsh)) / ((d[:, :, None] + d[:, None, :]) / 2))
        dx, dy, ds = newton_step(rc)
        # forming dx cancels terms of size |W|^2 |dy|, which leaves A dx off rp
        # by far more than the solve's own error once W is large; one Newton
        # correction for that residual keeps the iterates primal feasible
        dy_c = solve_h(rp - apply_a(dx))
        aty_c = [grp.apply_at(dy_c) for grp in groups]
        dx = [_sym(d + sc.w @ a @ sc.w) for d, sc, a in zip(dx, nt, aty_c)]
        ds = [d - a for d, a in zip(ds, aty_c)]
        dy = dy + dy_c
        ap = min(_max_step(sc.lx_inv, d) for sc, d in zip(nt, dx))
        ad = min(_max_step(sc.ls_inv, d) for sc, d in zip(nt, ds))
        ap = min(1.0, opts.step_frac * ap)
        ad = min(1.0, opts.step_frac * ad)
        x = [_sym(xg + ap * d) for xg, d in zip(x, dx)]
        s = [_sym(sg + ad * d) for sg, d in zip(s, ds)]
        y = y + ad * dy

    # reported for the iterate returned, which has moved on if the loop ran out
    _, _, pres, dres = residuals(x, s, y)
    pobj = inner((grp.c for grp in groups), x)
    dobj = float(b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    primal_blocks: list[np.ndarray] = [None] * len(problem.blocks)
    slacks: list[np.ndarray] = [None] * len(problem.blocks)
    for grp, xg in zip(groups, x):
        for k, xb, zb in zip(grp.members, xg, grp.c - grp.apply_at(y)):
            primal_blocks[k] = xb
            slacks[k] = zb
    return SdpSolution(
        status=status,
        primal_value=pobj,
        dual_value=dobj,
        primal_blocks=primal_blocks,
        dual_multipliers=y,
        dual_slacks=slacks,
        gap=gap,
        iterations=it,
        primal_residual=pres,
        dual_residual=dres,
    )


# ---------------------------------------------------------------------------
# Complex Hermitian layer
# ---------------------------------------------------------------------------


class ComplexSdpBuilder:
    """Assemble an SDP over complex Hermitian PSD blocks of one size ``cdim``.

    :meth:`add_blocks` returns integer handles, and objectives and
    constraints are dicts keyed by handle.  Matrices are embedded into real
    symmetric blocks; right-hand sides and the reported optimum are rescaled
    so values refer to the complex problem.  ``minimize`` is the default
    sense; pass ``sense="max"`` to flip.

    A constraint statement states ``k`` rows at once: each block's
    coefficient is a ``(k, cdim, cdim)`` stack, row ``i`` reading
    ``sum_b <A_b[i], X_b> = rhs[i]``.  Each distinct coefficient object is
    checked and embedded once, however many blocks and statements share it,
    so a coefficient must not be changed after it is passed.
    """

    def __init__(self, cdim: int):
        self.cdim = cdim
        self._obj: dict[int, np.ndarray] = {}
        # keyed by id(); the caller's object is kept so that its id stays unique
        self._mats: dict[int, tuple[object, np.ndarray]] = {}
        self._terms: list[list[tuple[int, int]]] = []
        self._rhs: list[np.ndarray] = []
        self._m = 0
        self._constant = 0.0
        self._sense = 1.0

    def add_blocks(self, n: int) -> np.ndarray:
        """Add ``n`` blocks and return their handles."""
        first = len(self._terms)
        self._terms.extend([] for _ in range(n))
        return np.arange(first, first + n)

    def _block(self, handle) -> int:
        if not isinstance(handle, (int, np.integer)) or not 0 <= handle < len(self._terms):
            raise ValueError(f"unknown block handle {handle!r}")
        return int(handle)

    def set_objective(
        self, coeffs: dict[int, np.ndarray], constant: float = 0.0, sense: str = "min"
    ) -> None:
        self._obj = {self._block(k): embed_complex(v) for k, v in coeffs.items()}
        self._constant = constant
        self._sense = -1.0 if sense == "max" else 1.0

    def add_constraint(self, coeffs: dict[int, np.ndarray], rhs) -> None:
        """State one row per entry of ``rhs``; a ``(cdim, cdim)`` coefficient takes a scalar."""
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        k, d = len(rhs), self.cdim
        for handle, a in coeffs.items():
            block = self._block(handle)
            if id(a) not in self._mats:
                self._mats[id(a)] = (a, embed_complex(np.reshape(a, (-1, *np.shape(a)[-2:]))))
            if self._mats[id(a)][1].shape != (k, 2 * d, 2 * d):
                raise ValueError(f"block {block} needs a ({k}, {d}, {d}) coefficient")
            self._terms[block].append((self._m, id(a)))
        self._rhs.append(rhs)
        self._m += k

    def _column(self, block: int) -> BlockColumn:
        """The block's support rows and distinct embedded matrices, in statement order."""
        d2 = 2 * self.cdim
        rows, index = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        mats, offset = [np.zeros((0, d2, d2))], {}
        for first, key in self._terms[block]:
            stack = self._mats[key][1]
            if key not in offset:
                offset[key] = sum(map(len, mats))
                mats.append(stack)
            rows.append(np.arange(first, first + len(stack)))
            index.append(np.arange(offset[key], offset[key] + len(stack)))
        return BlockColumn(np.concatenate(rows), np.concatenate(index), np.concatenate(mats))

    def solve(self, opts: SolveOptions | None = None) -> SdpSolution:
        """Solve; values and multipliers refer to the complex problem, blocks stack by handle."""
        n, d2 = len(self._terms), 2 * self.cdim
        zero = np.zeros((d2, d2))
        obj = [self._sense * self._obj.get(k, zero) for k in range(n)]
        columns = [self._column(k) for k in range(n)]
        rhs = 2.0 * np.concatenate([np.zeros(0), *self._rhs])
        sol = solve(SdpProblem([(k, d2) for k in range(n)], obj, columns=columns, rhs=rhs), opts)
        return replace(
            sol,
            primal_value=self._sense * sol.primal_value / 2.0 + self._constant,
            dual_value=self._sense * sol.dual_value / 2.0 + self._constant,
            primal_blocks=unembed_complex(np.stack(sol.primal_blocks)),
            dual_multipliers=self._sense * sol.dual_multipliers,
            dual_slacks=unembed_complex(self._sense * np.stack(sol.dual_slacks)),
        )


def best_instrument(
    zs, din: int, dout: int, opts: SolveOptions | None = None, what: str = "instrument"
) -> tuple[float, np.ndarray, float]:
    """Maximize ``sum_k Tr[Z_k J_k]`` over instruments ``din -> dout``, one branch per ``Z_k``.

    Returns the optimum, the branch Choi matrices ``(n, din*dout, din*dout)`` and the
    relative gap; raises ``ArithmeticError`` naming ``what`` unless the solve is optimal.
    """
    builder = ComplexSdpBuilder(din * dout)
    js = builder.add_blocks(len(zs))
    builder.set_objective(dict(zip(js, zs)), sense="max")
    h = hermitian_basis(din)
    tp = kron_stack(h, np.eye(dout)[None])
    builder.add_constraint(dict.fromkeys(js, tp), np.trace(h, axis1=1, axis2=2).real)
    res = builder.solve(opts).require_optimal(what)
    return res.primal_value, res.primal_blocks, res.gap
