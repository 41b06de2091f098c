"""Dense semidefinite programming with primal-dual certificates.

Solves standard-form problems over Hermitian PSD blocks,

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_{i,b}, X_b> = b_i   (i = 1..m),   X_b >= 0,

with ``<A, X> = Re tr(A X)``, by a Mehrotra-style predictor-corrector
path-following method using Nesterov-Todd scaling.  A block of size ``d``
is a ``d x d`` Hermitian matrix; a real symmetric block is the
zero-imaginary case.

Constraints are stated by block column, the one form :class:`SdpProblem`
takes: a block keeps the rows it appears in (its support), its distinct
matrices, and per row an index into them, so a matrix equality stated once
over a Hermitian basis shares that basis with every block it covers.
The solver holds every block's iterates ``X`` and ``S`` as complex
Hermitian ``(n, d, d)`` stacks; a real block's imaginary parts stay
exactly zero.  Work is split by where it is cheaper:

* factorizations run once per stack of blocks of one size: the
  Nesterov-Todd scaling (one Cholesky call and one inverse call for ``X``
  and ``S`` stacked together, one SVD) and the two step-length eigenvalue
  calls of each iteration, each for ``X`` and ``S`` together;
* the Schur complement ``H[i, j] = sum_b <A_{i,b}, W_b A_{j,b} W_b>`` runs in
  the real embedding ``E(V) = [[Re V, -Im V], [Im V, Re V]]`` at half
  width: ``E(W U W)`` is fixed by its first block column
  ``E(W) E(U) E(W)[:, :d]``, and ``Re tr(V Z)`` is the inner product of
  the first block columns of ``E(V)`` and ``E(Z)``.  It is built per block
  from its ``u`` distinct matrices, a ``u x u`` block added onto ``H`` run
  by run, a run being a stretch of consecutive rows that carry consecutive
  matrices (the sparsity argument of Fujisawa, Kojima and Nakata, Math.
  Prog. 79, 1997).  A stack of matrices that every block of a group
  carries is held once for the group.  ``A X`` and ``A^T y`` read the
  matrices as ``(re, im)`` pairs;
* a group whose shared stack is ``Q_i (x) 1_o`` for a divisor ``o > 1`` of
  ``d`` takes the structure instead of the embedding.  With ``W`` indexed by
  pairs ``(a, o)``, ``Re tr(A_t W A_s W) = Re(q_t Phi q_s^T)`` for the
  flattened ``Q``'s and the partial-trace contraction ``Phi[(a, b), (c, d)]
  = sum_{o, o'} W[(b, o), (c, o')] W[(d, o'), (a, o)]``, one ``(a^2, o^2) @
  (o^2, a^2)`` product per block; ``Phi`` is summed over each tile's blocks
  and the basis change ``q_t Phi q_s^T`` adds the tile, read from the
  nonzero entries of the ``q``'s (at most two per element of a Hermitian
  basis).  The path is chosen once per solve by testing the stack for exact
  equality with ``Q_i (x) 1_o``, the largest ``o`` first; nothing else
  selects it, and a stack one ulp off stays on the embedded path.  The
  trace-preserving rows ``H_i (x) 1`` of :func:`best_instrument` are such a
  stack;
* the remaining matrix products, a few dozen per iteration on ``d x d``
  stacks, stay complex, since building an embedded copy of an operand costs
  more than the complex product at these sizes.

``H`` is dense (a few hundred rows), is rebuilt in place each iteration and
is Cholesky-factored once per iteration, with the smallest ridge of a short
ladder at which it factors; the ridge is written onto its diagonal, and
besides ``H`` only the current factor has its size.
That one factor serves all three solves of the iteration, the predictor, the
corrector, and the corrector's Newton correction for the primal residual
that forming its direction leaves behind (which keeps problems near the
boundary of the cone primal feasible), by blocked forward and back
substitution; ``H^-1`` is never formed (as in SDPT3, Toh, Todd and Tutuncu,
1999).  A solve that runs out of iterations reports
:attr:`SdpStatus.MAX_ITER`, with the residuals of the iterate it returns.
Everything is deterministic, so identical inputs produce identical iterates.

There is one interior-point kernel, :func:`solve_batch`: it solves problems
of one structure, the same blocks and columns with other objectives and
right-hand sides, in lockstep.  Iterates, ``H`` and its factor carry a
leading batch axis, and every product, factorization and eigenvalue call
runs once for the batch, matrix by matrix as for one problem (the
substitutions with the Schur factor run problem by problem), so each
problem takes exactly the iterates it takes alone.  mu, sigma, step
lengths, termination and status are per problem; a problem that stops
(optimal, diverged, out of factorizations) leaves the batch with the
iterate it stopped at, and the rest go on.  :func:`solve` is the batch of
one.

Complex Hermitian problems are stated through :class:`ComplexSdpBuilder`,
over blocks of one size named by integer handles.  It passes its Hermitian
matrices to :func:`solve` as they are and returns the same
:class:`SdpSolution` with its blocks as exactly Hermitian stacks indexed by
handle.  Bases for matrix
constraints come from :func:`hermitian_basis`, :func:`traceless_basis` and
their Kronecker products, :func:`kron_stack`.  :func:`best_instrument` is
the one instrument program built on it: maximize ``sum_k Tr[Z_k J_k]`` over
trace-preserving instruments; :meth:`ComplexSdpBuilder.solve_batch` and
:func:`best_instruments` solve such programs for several objectives in
lockstep.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import check_hermitian, hermitize, max_abs

__all__ = [
    "BlockColumn",
    "ComplexSdpBuilder",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "SolveOptions",
    "best_instrument",
    "best_instruments",
    "hermitian_basis",
    "kron_stack",
    "solve",
    "solve_batch",
    "traceless_basis",
]

DIVERGENCE_LIMIT = 1e8
FEAS_TOL = 1e-8  # primal and dual residual of an optimal solution
STEP_FRAC = 0.98  # share of the largest step that keeps the iterates PSD
_PANEL = 32  # rows per panel of the Schur factor's substitution


class SdpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    NUMERICAL_FAILURE = "NumericalFailure"
    MAX_ITER = "MaxIterations"


@dataclass(frozen=True)
class SolveOptions:
    """Every program runs at ``SolveOptions()`` unless its caller passes others."""

    gap_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, not {self.max_iter!r}")
        if not 0.0 < self.gap_tol < np.inf:
            raise ValueError(f"gap_tol must be finite and positive, not {self.gap_tol!r}")


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

    ``blocks[k]`` is ``(name, d)`` for a ``d x d`` Hermitian block, whose
    objective and matrices are real or complex arrays; ``columns[k]`` is its
    :class:`BlockColumn` and ``rhs`` the ``m`` right-hand sides.  Shapes,
    symmetry and finiteness are checked once per distinct stack object,
    however many blocks carry it; rows and indices once per block.
    """

    def __init__(self, blocks, objective, *, columns, rhs):
        self.blocks = tuple(blocks)
        self.objective = tuple(_as_mats(c) for c in objective)
        dims = [d for _, d in self.blocks]
        if len(self.objective) != len(dims):
            raise ValueError("objective must provide one matrix per block")
        self.rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if not np.isfinite(self.rhs).all():
            raise ValueError("rhs has a NaN or infinite entry")
        self.columns = tuple(
            BlockColumn(np.asarray(r, np.intp), np.asarray(i, np.intp), _as_mats(a))
            for r, i, a in columns
        )
        if len(self.columns) != len(dims):
            raise ValueError("columns must provide one entry per block")
        checked = set()  # (id, size) of the stacks checked; self.columns keeps the ids alive
        for d, c, (rows, index, mats) in zip(dims, self.objective, self.columns):
            _check_mats(c[None], d, "objective")
            if (id(mats), d) not in checked:
                _check_mats(mats, d, "constraint")
                checked.add((id(mats), d))
            if rows.ndim != 1 or rows.shape != index.shape or not np.all(
                (0 <= rows) & (rows < len(self.rhs)) & (0 <= index) & (index < len(mats))
            ):
                raise ValueError("block column rows and index must be matching in-range vectors")

    @property
    def n_constraints(self) -> int:
        return len(self.rhs)


def _as_mats(a) -> np.ndarray:
    """``a`` as a float array, or a complex one when it is complex."""
    a = np.asarray(a)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def _check_mats(stack: np.ndarray, dim: int, what: str) -> None:
    """Check a ``(u, dim, dim)`` stack: shape, finiteness, then Hermiticity of each matrix."""
    if stack.ndim != 3 or stack.shape[1:] != (dim, dim):
        raise ValueError(f"{what} matrix shape {stack.shape[1:]} does not match block dim {dim}")
    if not np.isfinite(stack).all():
        raise ValueError(f"{what} matrix has a NaN or infinite entry")
    check_hermitian(stack, f"{what} matrix")


@dataclass
class SdpSolution:
    """Primal-dual result of a solve.

    ``primal_blocks`` and ``dual_slacks`` hold complex Hermitian matrices,
    with zero imaginary parts for real blocks: from :func:`solve` a list
    with one per block, from :meth:`ComplexSdpBuilder.solve` an
    ``(n, cdim, cdim)`` stack indexed by block handle.
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


def _embed(h: np.ndarray) -> np.ndarray:
    """``[[Re h, -Im h], [Im h, Re h]]`` of each matrix of a complex stack, unchecked."""
    c = h.shape[-1]
    out = np.empty(h.shape[:-2] + (2 * c, 2 * c))
    out[..., :c, :c] = out[..., c:, c:] = h.real
    out[..., c:, :c] = h.imag
    np.negative(h.imag, out=out[..., :c, c:])
    return out


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


def _ct(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part ``(a + a^H)/2``; exactly Hermitian, since ``x + y == y + x``."""
    return (a + _ct(a)) / 2


def _pairs(a: np.ndarray) -> np.ndarray:
    """The ``(re, im)`` pairs of a complex stack, as a float view."""
    return np.ascontiguousarray(a).view(float)


class _BlockGroup:
    """Blocks of one size ``d`` with ``r`` support rows and ``u`` distinct matrices.

    Matrices and iterates are complex Hermitian ``(d, d)`` stacks, with zero
    imaginary parts for real blocks.  ``rows`` ``(n, r)`` holds each block's
    support rows and ``members`` the blocks' positions in the problem.
    ``mats`` holds the distinct matrices, ``(1, u, d, d)`` when every member
    carries the same stack object and ``(n, u, d, d)`` otherwise; every
    product broadcasts over that leading axis, as over the embeddings
    derived from it.  ``mat_pos`` maps each support row to its entry of the
    ``(n, u)`` products of ``A X`` and ``A^T y``; the tiles of
    :func:`_schur_tiles` place the blocks' ``u x u`` Schur blocks in H.
    ``kron`` is ``((cols, vals), a, o)`` when the shared stack is ``Q_i (x)
    1_o`` (:func:`_kron_factor`), and then no embedding is built.

    The methods take a batch of problems, ``(B, n, d, d)`` iterates against
    ``(B, m)`` vectors and ``(B, m, m)`` Schur complements, or one problem's
    arrays without the batch axis.
    """

    def __init__(self, problem: SdpProblem, members: list[int]):
        cols = [problem.columns[k] for k in members]
        self.members = members
        self.dim = problem.blocks[members[0]][1]
        self.rows = np.stack([col.rows for col in cols])
        shared = all(col.mats is cols[0].mats for col in cols)
        mats = cols[0].mats[None] if shared else np.stack([col.mats for col in cols])
        self.mats = mats = np.ascontiguousarray(mats, dtype=complex)
        nm, u, c = mats.shape[:3]
        # Re tr(A X) = A pairs . X pairs, for apply_a and apply_at
        self.mats_pairs = mats.view(float).reshape(nm, u, 2 * c * c)
        index = np.stack([col.index for col in cols])
        self.mat_pos = (index + u * np.arange(len(members))[:, None]).ravel()
        self.batch_index: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        tiles = _schur_tiles(self.rows, index)
        self.kron = _kron_factor(mats[0]) if nm == 1 else None
        every = slice(None)
        if self.kron is not None:
            (q_cols, q_vals), a, _ = self.kron
            self.kron_tiles = [
                ((every, *place), which, not isinstance(which, int),
                 *_kron_terms((q_cols[mats_t], q_cols[mats_s]), (q_vals[mats_t], q_vals[mats_s]), a))
                for place, (which, mats_t, mats_s) in tiles
            ]
        else:
            # for the Schur complement: the embedded matrices E(U) stacked
            # into (2c u, 2c), and their first block columns
            emb = _embed(mats)
            self.mats_tall = emb.reshape(nm, u * 2 * c, 2 * c)
            self.mats_col = np.ascontiguousarray(emb[..., :c]).reshape(nm, u, 2 * c * c)
            # the tiles with the batch axis in front, and whether each sums blocks
            self.batch_tiles = [
                ((every, *place), (every, *terms), not isinstance(terms[0], int))
                for place, terms in tiles
            ]

    def _batch_index(self, nb: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Each support row's place among the ``nb * m`` rows and among the ``nb * n * u``
        per-matrix products of a batch of ``nb`` problems, flattened problem by problem.

        For one problem they are ``rows`` and ``mat_pos``; each batch size is built once.
        """
        index = self.batch_index.get((nb, m))
        if index is None:
            n, u = len(self.members), self.mats.shape[1]
            shift = np.arange(nb)[:, None]
            index = ((self.rows.ravel() + m * shift).ravel(), (self.mat_pos + n * u * shift).ravel())
            self.batch_index[nb, m] = index
        return index

    def apply_a(self, x: np.ndarray, m: int) -> np.ndarray:
        """``out[i] = sum_b <A_{i,b}, X_b>`` over this group, as an m-vector per problem.

        The bins of each problem follow its rows in the order one problem alone takes.
        """
        xp = _pairs(x).reshape(-1, len(self.members), 2 * self.dim**2, 1)
        rows, pos = self._batch_index(len(xp), m)
        per_mat = (self.mats_pairs @ xp).ravel()
        return np.bincount(rows, per_mat[pos], minlength=len(xp) * m).reshape(*x.shape[:-3], m)

    def apply_at(self, y: np.ndarray) -> np.ndarray:
        """``sum_i y_i A_{i,b}`` for each block of the group."""
        (n, u, c), lead, m = (len(self.members), *self.mats.shape[1:3]), y.shape[:-1], y.shape[-1]
        nb = y.size // m
        rows, pos = self._batch_index(nb, m)
        coef = np.bincount(pos, y.ravel()[rows], minlength=nb * n * u)
        out = coef.reshape(nb, n, 1, u) @ self.mats_pairs
        return out.view(complex).reshape(*lead, n, c, c)

    def add_schur(self, w: np.ndarray, h: np.ndarray, ew: np.ndarray | None = None) -> None:
        """``H[i, j] += <A_{i,b}, W_b A_{j,b} W_b>`` given the scalings ``W_b`` (and ``E(W_b)``).

        ``E(W U W)`` is fixed by its first block column ``E(W) E(U) E(W)[:, :c]``,
        and ``Re tr(V W U W)`` is that column's inner product with ``V``'s.
        The ``u x u`` blocks of these products go onto H tile by tile
        (:func:`_schur_tiles`): each tile is summed over its blocks first,
        in block order, and then added onto H once (numpy sums a stack of
        ``1 x 1`` tiles pairwise instead, which differs from that order from
        three blocks on).
        """
        n, (u, c), m = len(self.members), self.mats.shape[1:3], h.shape[-1]
        h = h.reshape(-1, m, m)
        if self.kron is not None:
            self._add_schur_kron(w.reshape(-1, n, c, c), h)
            return
        ew = (_embed(w) if ew is None else ew).reshape(-1, n, 2 * c, 2 * c)
        nb = len(ew)
        ue = (self.mats_tall @ ew[..., :c]).reshape(nb, n, u, 2 * c, c)
        wuw = (ew[:, :, None] @ ue).reshape(nb, n, u, 2 * c * c)
        per_block = self.mats_col @ wuw.swapaxes(2, 3)
        for place, terms, summed in self.batch_tiles:
            part = per_block[terms]
            tile = h[place]
            np.add(tile, part.sum(axis=1) if summed else part, out=tile)

    def _add_schur_kron(self, w: np.ndarray, h: np.ndarray) -> None:
        """:meth:`add_schur` for matrices ``A_i = Q_i (x) 1_o``, through a partial trace.

        With ``W`` indexed by pairs ``(a, o)``, ``Re tr(A_t W A_s W)`` is
        ``Re(q_t Phi q_s^T)`` for the flattened ``q = Q.reshape(u, a*a)`` and
        ``Phi[(a, b), (c, d)] = sum_{o, o'} W[(b, o), (c, o')] W[(d, o'), (a, o)]``,
        one ``(a^2, o^2) @ (o^2, a^2)`` product per block.  The products are
        summed over each tile's blocks in block order, and the basis change
        ``q_t Phi q_s^T`` (:func:`_kron_terms`) adds the whole tile onto H.
        ``w`` is ``(B, n, c, c)`` and ``h`` ``(B, m, m)``.
        """
        _, a, o = self.kron
        nb, n = w.shape[:2]
        w6 = w.reshape(nb, n, a, o, a, o)
        left = w6.transpose(0, 1, 2, 4, 3, 5).reshape(nb, n, a * a, o * o)
        right = w6.transpose(0, 1, 5, 3, 2, 4).reshape(nb, n, o * o, a * a)
        prod = (left @ right).reshape(nb, n, a**4)  # prod[(b, c), (d, a)] = Phi[(a, b), (c, d)]
        for place, which, summed, at, coef in self.kron_tiles:
            part = prod[:, which].sum(axis=1) if summed else prod[:, which]
            tile_h = coef[0] * part.take(at[0], axis=1)
            for at_k, coef_k in zip(at[1:], coef[1:]):
                tile_h += coef_k * part.take(at_k, axis=1)
            tile = h[place]
            np.add(tile, tile_h.real, out=tile)


def _kron_terms(cols: np.ndarray, vals: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """``at`` and ``coef``, ``(k*k, lt, ls)``, with ``(q_t Phi q_s^T)[t, s] = sum_j coef[j, t, s] P[at[j, t, s]]``.

    ``cols`` and ``vals`` hold the nonzero entries of the tile's rows ``q_t``
    and columns ``q_s`` (``(lt, k)`` and ``(ls, k)`` pairs, from
    :func:`_kron_factor`), and ``P`` is the flattened product
    ``P[(b, c), (d, a)] = Phi[(a, b), (c, d)]``.
    """
    (cols_t, cols_s), (vals_t, vals_s) = cols, vals
    (ra, rb), (rc, rd) = np.divmod(cols_t, a), np.divmod(cols_s, a)
    # term (j, l) of entry (t, s): q_t's j-th entry, Phi row (ra, rb), and q_s's l-th, column (rc, rd)
    at = ((rb.T[:, None, :, None] * a + rc.T[None, :, None, :]) * a + rd.T[None, :, None, :]) * a
    at = at + ra.T[:, None, :, None]
    coef = vals_t.T[:, None, :, None] * vals_s.T[None, :, None, :]
    k, lt, ls = len(vals_t.T), len(vals_t), len(vals_s)
    return at.reshape(k * k, lt, ls), coef.reshape(k * k, lt, ls)


def _kron_factor(mats: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], int, int] | None:
    """``((cols, vals), a, o)`` when every matrix of a ``(u, c, c)`` stack is exactly ``Q_i (x) 1_o``.

    ``o`` is the largest divisor ``o > 1`` of ``c`` that fits and ``a = c / o``.
    Row ``i`` of the flattened ``Q`` ``(u, a*a)`` is ``vals[i]`` at the columns
    ``cols[i]``, its nonzero entries in column order, padded with zeros to the
    longest row.  ``None`` when no divisor fits or the stack is empty.
    """
    u, c = mats.shape[:2]
    for o in range(c, 1, -1):
        if c % o or not u:
            continue
        a = c // o
        split = mats.reshape(u, a, o, a, o)
        q = split[:, :, 0, :, 0]
        if np.array_equal(split, q[:, :, None, :, None] * np.eye(o)[:, None, :]):
            q = q.reshape(u, a * a)
            nonzero = q != 0
            width = max(int(nonzero.sum(axis=1).max()), 1)
            cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
            return (cols, np.take_along_axis(q, cols, axis=1)), a, o
    return None


def _runs(rows: np.ndarray, index: np.ndarray) -> list[list[tuple[int, int, int]]]:
    """Per block, ``(first row, first matrix, length)`` of each maximal run of its column.

    ``rows`` and ``index`` are ``(n, r)``, one block per row.  A run is a
    maximal stretch of a block's support in which consecutive rows carry
    consecutive matrices, so the rows of one :class:`ComplexSdpBuilder`
    statement lie in one run, and a stack that a block carries in several
    statements starts a run in each.
    """
    n, r = rows.shape
    start = np.ones((n, r), dtype=bool)
    start[:, 1:] = (np.diff(rows) != 1) | (np.diff(index) != 1)
    flat = np.flatnonzero(start)  # each block's first entry starts a run
    runs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for b, first, mat, k in zip(
        (flat // r).tolist(),
        rows.ravel()[flat].tolist(),
        index.ravel()[flat].tolist(),
        np.diff(flat, append=n * r).tolist(),
    ):
        runs[b].append((first, mat, k))
    return runs


def _schur_tiles(rows: np.ndarray, index: np.ndarray) -> list[tuple[tuple, tuple]]:
    """``(place in H, index into the (n, u, u) Schur blocks)`` of each tile a group adds.

    Each block's runs are cut wherever a run of another block of the group
    starts or ends, so that two segments are equal or disjoint.  Each pair of
    one block's segments gives a term, a slice of its Schur block, and terms
    with the same place and slice form one tile, summed over its blocks in
    block order before it goes onto H.  A tile's blocks are one index when
    there is one, a slice when they are evenly spaced, else an index array.
    """
    runs = _runs(rows, index)
    cuts = sorted({x for block in runs for first, _, k in block for x in (first, first + k)})
    terms: dict[tuple[int, ...], list[int]] = {}
    for b, block in enumerate(runs):
        segments = []
        for first, mat, k in block:
            ends = [first, *cuts[bisect_right(cuts, first) : bisect_left(cuts, first + k)], first + k]
            segments += [(a, mat + a - first, e - a) for a, e in zip(ends, ends[1:])]
        for row_t, mat_t, len_t in segments:
            for row_s, mat_s, len_s in segments:
                terms.setdefault((row_t, row_s, mat_t, mat_s, len_t, len_s), []).append(b)
    tiles = []
    for (row_t, row_s, mat_t, mat_s, len_t, len_s), blocks in terms.items():
        if len(blocks) == 1:
            which = blocks[0]
        else:
            step = blocks[1] - blocks[0]
            even = step > 0 and blocks == list(range(blocks[0], blocks[-1] + 1, step))
            which = slice(blocks[0], blocks[-1] + 1, step) if even else np.array(blocks)
        place = (slice(row_t, row_t + len_t), slice(row_s, row_s + len_s))
        tiles.append((place, (which, slice(mat_t, mat_t + len_t), slice(mat_s, mat_s + len_s))))
    return tiles


class _SizeClass:
    """Groups whose blocks share a size; the iterates of all their blocks form one stack.

    Factorizations and matrix products run once per class; ``A``, ``A^T``
    and the Schur complement go group by group, over consecutive slices of
    the block axis, which follows the batch axis.
    """

    def __init__(self, groups: list[_BlockGroup]):
        self.groups = groups
        first = groups[0]
        self.dim = first.dim
        ends = np.cumsum([len(grp.members) for grp in groups])
        self.slices = [slice(e - len(grp.members), e) for grp, e in zip(groups, ends)]
        self.members = [k for grp in groups for k in grp.members]
        self.embeds = any(grp.kron is None for grp in groups)

    def apply_a(self, x: np.ndarray, m: int) -> np.ndarray:
        return sum(grp.apply_a(x[:, sl], m) for grp, sl in zip(self.groups, self.slices))

    def apply_at(self, y: np.ndarray) -> np.ndarray:
        parts = [grp.apply_at(y) for grp in self.groups]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def add_schur(self, w: np.ndarray, h: np.ndarray) -> None:
        ew = _embed(w) if self.embeds else None
        for grp, sl in zip(self.groups, self.slices):
            grp.add_schur(w[:, sl], h, None if ew is None else ew[:, sl])


class _NtScaling(NamedTuple):
    """Nesterov-Todd scaling of a class: ``W = G G^H``, ``G^-1 X G^-H = G^H S G = diag(d)``.

    ``gh`` is ``G^H``; ``l_inv`` stacks the inverses of the Cholesky factors
    of ``X`` and ``S``, in that order.
    """

    g: np.ndarray
    gh: np.ndarray
    ginv: np.ndarray
    d: np.ndarray
    w: np.ndarray
    l_inv: np.ndarray


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> _NtScaling:
    # X and S factor and invert in one call each
    lx, ls = l = np.linalg.cholesky(_pair(x, s))
    _, sv, vh = np.linalg.svd(_ct(ls) @ lx)
    sv = np.maximum(sv, 1e-300)
    l_inv = np.linalg.inv(l)
    g = lx @ _ct(vh) * (sv**-0.5)[..., None, :]
    gh = _ct(g)
    ginv = (sv**0.5)[..., :, None] * (vh @ l_inv[0])
    return _NtScaling(g, gh, ginv, sv, g @ gh, l_inv)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.stack((a, b))`` of two arrays of one shape and type."""
    out = np.empty((2, *a.shape), dtype=a.dtype)
    out[0], out[1] = a, b
    return out


def _max_steps(nt: list[_NtScaling], dx: list[np.ndarray], ds: list[np.ndarray]) -> tuple[list, list]:
    """Per problem, the largest steps along ``dX`` and ``dS`` that keep every block PSD.

    A step ``alpha`` keeps ``X + alpha dX`` PSD while the smallest eigenvalue
    ``lam`` of ``L^-1 dX L^-H`` is above ``-1/alpha`` (``X = L L^H``), and so
    for any ``alpha`` once ``lam >= -1e-13``; ``S`` likewise.  Both sides go
    through one eigenvalue call per class.
    """
    lams = []
    for sc, dxc, dsc in zip(nt, dx, ds):
        t = sc.l_inv @ _pair(dxc, dsc) @ _ct(sc.l_inv)
        lams.append(np.linalg.eigvalsh(_herm(t))[..., 0].min(axis=-1))
    lam_x, lam_s = reduce(np.minimum, lams).tolist()
    return tuple([np.inf if lam >= -1e-13 else 1.0 / (-lam) for lam in side] for side in (lam_x, lam_s))


@lru_cache(maxsize=32)
def _panel_layout(m: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray, np.ndarray]:
    """Panels of an m-row factor: their row spans, and the gather of their diagonal blocks.

    ``l.ravel()[index] * keep + pad`` stacks the diagonal blocks, a short
    last one padded with the identity.
    """
    w = min(_PANEL, m)
    spans = tuple((a, min(a + w, m)) for a in range(0, m, w))
    rows = np.array([a for a, _ in spans])[:, None] + np.arange(w)
    keep = (rows < m)[:, :, None] & (rows < m)[:, None, :]
    index = np.where(keep, rows[:, :, None] * m + rows[:, None, :], 0)
    pad = np.where(keep, 0.0, np.eye(w))
    for a in (index, keep, pad):
        a.flags.writeable = False
    return spans, index, keep, pad


class _CholeskySolver:
    """Solve ``H v = r`` given ``H = L L^T`` by blocked forward and back substitution.

    ``L`` is cut into panels of ``_PANEL`` rows (one panel when it has
    fewer) whose diagonal blocks are inverted once per factor, in one
    batched call (a short last panel is padded with the identity); each
    solve is then matrix-vector products with those inverses and with
    ``L``'s off-diagonal panels.  The panel layout is built once per size,
    and the first panel of each sweep needs no off-diagonal product.
    ``H^-1`` is never formed.  A stack of factors ``(B, m, m)`` solves
    right-hand sides ``(B, m)`` problem by problem, each with its own
    factor and two-dimensional products, which cost numpy less than
    products with a batch axis at these sizes.
    """

    def __init__(self, l: np.ndarray):
        m = l.shape[-1]
        self.l = l = l.reshape(-1, m, m)
        self.spans, index, keep, pad = _panel_layout(m)
        inv = np.linalg.inv(l.reshape(len(l), m * m).take(index, axis=1) * keep + pad)
        a, e = self.spans[-1]
        self.diag_inv = [[*inv_k[:-1], inv_k[-1, : e - a, : e - a]] for inv_k in inv]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        spans, shape = self.spans, r.shape
        rs = r.reshape(len(self.l), -1)
        vs = np.empty_like(rs)
        for l, inv, r, v in zip(self.l, self.diag_inv, rs, vs):
            z = np.empty_like(r)
            e = spans[0][1]
            z[:e] = inv[0] @ r[:e]
            for (a, e), d in zip(spans[1:], inv[1:]):
                z[a:e] = d @ (r[a:e] - l[a:e, :a] @ z[:a])
            a = spans[-1][0]
            v[a:] = inv[-1].T @ z[a:]
            for (a, e), d in zip(spans[-2::-1], inv[-2::-1]):
                v[a:e] = d.T @ (z[a:e] - l[e:, a:e].T @ v[e:])
        return vs.reshape(shape)


def _initial_point(classes, c, b, m):
    """Each problem's starting iterate; ``c`` holds each class's ``(B, n, d, d)`` objectives."""
    # primal blocks: identity scaled by xi, the largest ratio of a right-hand side to the
    # identity's row value, clipped to [1, 1e4]; a floor of 1e-4 saves iterations on the
    # robustness programs but fails acceptance criterion 6 (a monotone witness-ratio schedule)
    eye = [np.broadcast_to(np.eye(cls.dim, dtype=complex), cc.shape[1:]) for cls, cc in zip(classes, c)]
    tr = sum(cls.apply_a(e[None], m)[0] for cls, e in zip(classes, eye))
    big = np.abs(tr) > 1e-9
    xi, eta = [], []
    for k, bk in enumerate(b):
        cands = np.abs(bk[big]) / np.abs(tr[big])
        xi.append(float(np.clip(cands.max() if cands.size else 1.0, 1.0, 1e4)))
        eta.append(float(np.clip(max(max_abs(_pairs(cc[k])) for cc in c), 1.0, 1e4)))
    xi, eta = _col(xi), _col(eta)
    return [xi * e[None] for e in eye], [eta * e[None] for e in eye], np.zeros(b.shape)


def _col(v: list[float], axes: int = 3) -> np.ndarray | float:
    """Per-problem scalars against stacks with ``axes`` more axes; for one problem, its scalar."""
    return v[0] if len(v) == 1 else np.array(v).reshape(-1, *(1,) * axes)


def _max_abs_each(stacks: list[np.ndarray]) -> np.ndarray:
    """Largest entry magnitude of each problem over a list of ``(B, ...)`` complex stacks."""
    out = np.abs(_pairs(stacks[0])).reshape(len(stacks[0]), -1).max(axis=1)
    for a in stacks[1:]:
        np.maximum(out, np.abs(_pairs(a)).reshape(len(a), -1).max(axis=1), out=out)
    return out


def _take(tree, keep: np.ndarray):
    """The problems ``keep`` selects, from every array of a nested list, tuple or NamedTuple."""
    if isinstance(tree, np.ndarray):
        return tree[keep]
    if isinstance(tree, _NtScaling):  # l_inv holds X's and S's factors ahead of the problem axis
        return _NtScaling(*_take(tree[:-1], keep), tree.l_inv[:, keep])
    if isinstance(tree, tuple) and hasattr(tree, "_fields"):
        return type(tree)(*(_take(t, keep) for t in tree))
    return type(tree)(_take(t, keep) for t in tree)


def _scalings(x: list[np.ndarray], s: list[np.ndarray]) -> tuple[list[_NtScaling] | None, list[int]]:
    """Each class's NT scaling for the problems whose ``X`` and ``S`` factor, and those that do not."""
    try:
        return [_nt_scaling(xc, sc) for xc, sc in zip(x, s)], []
    except np.linalg.LinAlgError:
        pass
    failed = []
    for j in range(len(x[0])):
        try:
            for xc, sc in zip(x, s):
                _nt_scaling(xc[j], sc[j])
        except np.linalg.LinAlgError:
            failed.append(j)
    keep = np.ones(len(x[0]), dtype=bool)
    keep[failed] = False
    if not keep.any():
        return None, failed
    return [_nt_scaling(xc[keep], sc[keep]) for xc, sc in zip(x, s)], failed


def _schur_factors(h: np.ndarray) -> tuple[_CholeskySolver | None, list[int]]:
    """A solver with the Cholesky factor of each ``H`` of a ``(B, m, m)`` stack, and the
    problems none fits (``None`` when no ``H`` factors).

    Each ``H`` gets the smallest ridge of the ladder at which it factors,
    written onto its diagonal; the ladder restarts problem by problem only
    when some ``H`` of the stack fails at the first ridge.  The solver holds
    the only reference to the factors.
    """
    m = h.shape[-1]
    scale = np.array([max(np.trace(hk) / m, 1e-300) for hk in h])
    diag = h.diagonal(axis1=-2, axis2=-1).copy()
    on_diag = h.reshape(len(h), m * m)[:, :: m + 1]
    ladder = (1e-14, 1e-12, 1e-10, 1e-8)
    on_diag[...] = diag + ladder[0] * scale[:, None]
    try:
        return _CholeskySolver(np.linalg.cholesky(h)), []
    except np.linalg.LinAlgError:
        pass
    factors, failed = [], []
    for j, hj in enumerate(h):
        for ridge in ladder:
            on_diag[j] = diag[j] + ridge * scale[j]
            try:
                factors.append(np.linalg.cholesky(hj))
            except np.linalg.LinAlgError:
                continue
            break
        else:
            failed.append(j)
    return (_CholeskySolver(np.stack(factors)) if factors else None), failed


def _group_blocks(problem: SdpProblem) -> list[list[int]]:
    """Block positions grouped by (size, support size, distinct-matrix count), in order."""
    groups: dict[tuple[int, int, int], list[int]] = {}
    for k, ((_, d), col) in enumerate(zip(problem.blocks, problem.columns)):
        groups.setdefault((d, len(col.rows), len(col.mats)), []).append(k)
    return list(groups.values())


def _size_classes(problem: SdpProblem) -> list[_SizeClass]:
    """The problem's block groups, gathered by size in order."""
    classes: dict[int, list[_BlockGroup]] = {}
    for members in _group_blocks(problem):
        grp = _BlockGroup(problem, members)
        classes.setdefault(grp.dim, []).append(grp)
    return [_SizeClass(groups) for groups in classes.values()]


def _same_structure(p: SdpProblem, q: SdpProblem) -> bool:
    """Whether two problems have the same block sizes and the same columns."""
    if p.n_constraints != q.n_constraints or [d for _, d in p.blocks] != [d for _, d in q.blocks]:
        return False
    return all(
        np.array_equal(a.rows, b.rows)
        and np.array_equal(a.index, b.index)
        and (a.mats is b.mats or np.array_equal(a.mats, b.mats))
        for a, b in zip(p.columns, q.columns)
    )


def solve(problem: SdpProblem, opts: SolveOptions = SolveOptions()) -> SdpSolution:
    """Run the interior-point iteration and return a primal-dual certificate."""
    return solve_batch([problem], opts)[0]


def solve_batch(problems, opts: SolveOptions = SolveOptions()) -> list[SdpSolution]:
    """Solve problems of one structure in lockstep; one :class:`SdpSolution` per problem.

    The problems share block sizes and columns, and differ in objective and
    right-hand side.  Each follows the iteration it would follow alone, with
    its own mu, sigma, step lengths, termination and status; a problem that
    stops leaves the batch with the iterate it stopped at, and the others go
    on.
    """
    problems = list(problems)
    if not problems:
        return []
    first = problems[0]
    m = first.n_constraints
    if m == 0:
        raise ValueError("problems without equality constraints are not supported")
    if not all(_same_structure(first, p) for p in problems[1:]):
        raise ValueError("a batch needs problems with the same blocks and columns")
    ntot = sum(d for _, d in first.blocks)
    classes = _size_classes(first)
    nb = len(problems)

    def apply_a(xs):
        return sum(cls.apply_a(xc, m) for cls, xc in zip(classes, xs))

    def inner(us, vs):
        """``sum_b <U_b, V_b>`` of each problem."""
        return [
            sum(float(np.vdot(_pairs(u[k]), _pairs(v[k]))) for u, v in zip(us, vs)) for k in range(len(us[0]))
        ]

    def residuals(x, s, y, c, b, b_scale, c_scale):
        """Primal and dual residuals of each iterate, and their scaled maxima."""
        rp = b - apply_a(x)
        rd = [cc - cls.apply_at(y) - sc for cls, cc, sc in zip(classes, c, s)]
        return rp, rd, np.abs(rp).max(axis=1) / b_scale, _max_abs_each(rd) / c_scale

    # everything per problem carries a leading batch axis; the objectives
    # stack each class's blocks, (B, n, c, c)
    c_all = [np.array([[p.objective[k] for k in cls.members] for p in problems], dtype=complex) for cls in classes]
    b_all = np.array([p.rhs for p in problems])
    scales_all = (1.0 + np.abs(b_all).max(axis=1), 1.0 + _max_abs_each(c_all))
    x, s, y = _initial_point(classes, c_all, b_all, m)
    c, b, scales = c_all, b_all, scales_all

    status = [SdpStatus.MAX_ITER] * nb
    iterations = [0] * nb
    final: list = [None] * nb  # each problem's returned (x, s, y)
    active = np.arange(nb)  # the problems still iterating, by position in the batch

    def retire(stops: dict[int, SdpStatus], it: int, live: tuple) -> tuple | None:
        """Record the problems at the positions of ``stops`` as stopped with the iterates
        ``live[:3]``; the rest of each array of ``live``, or ``None`` when no problem is left."""
        nonlocal active
        keep = np.ones(len(active), dtype=bool)
        for j, why in stops.items():
            k = active[j]
            status[k], iterations[k], keep[j] = why, it, False
            final[k] = ([xc[j] for xc in live[0]], [sc[j] for sc in live[1]], live[2][j])
        active = active[keep]
        return _take(live, keep) if keep.any() else None

    it = 0
    h_all = np.empty((nb, m, m))  # the Schur complements, rebuilt in place each iteration
    for it in range(1, opts.max_iter + 1):
        rp, rd, pres, dres = residuals(x, s, y, c, b, *scales)
        mu = np.array(inner(x, s)) / ntot
        pobj = inner(c, x)
        dobj = [float(bk @ yk) for bk, yk in zip(b, y)]
        stops = {}
        for j, (pj, dj) in enumerate(zip(pobj, dobj)):
            gap_rel = abs(pj - dj) / (1.0 + abs(pj) + abs(dj))
            if pres[j] <= FEAS_TOL and dres[j] <= FEAS_TOL and (
                gap_rel <= opts.gap_tol or mu[j] * ntot <= opts.gap_tol
            ):
                stops[j] = SdpStatus.OPTIMAL
            elif dj > DIVERGENCE_LIMIT:
                stops[j] = SdpStatus.INFEASIBLE
            elif pj < -DIVERGENCE_LIMIT:
                stops[j] = SdpStatus.UNBOUNDED
        live = (x, s, y, c, b, scales, rp, rd, mu)
        if stops:
            live = retire(stops, it, live)
            if live is None:
                break
        nt, failed = _scalings(live[0], live[1])
        if failed:
            live = retire(dict.fromkeys(failed, SdpStatus.NUMERICAL_FAILURE), it, live)
            if live is None:
                break

        solve_h = None  # the last iteration's factor goes before this one is made
        h = h_all[: len(active)]
        h.fill(0.0)
        for cls, sc in zip(classes, nt):
            cls.add_schur(sc.w, h)
        # the smallest ridge at which H factors; its factor serves every solve below
        solve_h, failed = _schur_factors(h)
        if failed:
            live = retire(dict.fromkeys(failed, SdpStatus.NUMERICAL_FAILURE), it, (*live, nt))
            if live is None:
                break
            *live, nt = live
        x, s, y, c, b, scales, rp, rd, mu = live

        wrdw = [sc.w @ r @ sc.w for sc, r in zip(nt, rd)]

        def newton_step(grcg):
            """Given ``G Rc G^H`` per class for the scaled complementarity RHS, return (dx, dy, ds)."""
            dy = solve_h(rp - apply_a([gr - t for gr, t in zip(grcg, wrdw)]))
            ds = [r - cls.apply_at(dy) for cls, r in zip(classes, rd)]
            dx = [_herm(gr - sc.w @ dsc @ sc.w) for gr, sc, dsc in zip(grcg, nt, ds)]
            return dx, dy, ds

        # predictor (affine scaling): Rc = -D in scaled space, divided by L_D
        dx_a, dy_a, ds_a = newton_step([-(sc.g * sc.d[..., None, :]) @ sc.gh for sc in nt])
        ap, ad = (_col([min(step, 1.0) for step in side]) for side in _max_steps(nt, dx_a, ds_a))
        mu_aff = inner(
            [xc + ap * d for xc, d in zip(x, dx_a)], [sc + ad * d for sc, d in zip(s, ds_a)]
        )
        sigma_mu = []
        for v, mu_j in zip(mu_aff, mu.tolist()):
            sigma = float(np.clip((max(v / ntot, 0.0) / mu_j) ** 3, 1e-8, 1.0))
            sigma_mu.append(sigma * mu_j)

        # corrector: Rc = L_D^{-1}(sigma*mu*I - D^2 - H(dXhat dShat))
        grcg = []
        for cls, sc, dxc, dsc in zip(classes, nt, dx_a, ds_a):
            d = sc.d
            eye = np.eye(cls.dim)
            dxh = sc.ginv @ dxc @ _ct(sc.ginv)
            dsh = sc.gh @ dsc @ sc.g
            rhs_mat = _col(sigma_mu) * eye - (d * d)[..., None, :] * eye
            rc = (rhs_mat - _herm(dxh @ dsh)) / ((d[..., :, None] + d[..., None, :]) / 2)
            grcg.append(sc.g @ rc @ sc.gh)
        dx, dy, ds = newton_step(grcg)
        # forming dx cancels terms of size |W|^2 |dy|, which leaves A dx off rp
        # by far more than the solve's own error once W is large; one Newton
        # correction for that residual keeps the iterates primal feasible
        dy_c = solve_h(rp - apply_a(dx))
        aty_c = [cls.apply_at(dy_c) for cls in classes]
        dx = [_herm(d + sc.w @ a @ sc.w) for d, sc, a in zip(dx, nt, aty_c)]
        ds = [d - a for d, a in zip(ds, aty_c)]
        dy = dy + dy_c
        ap, ad = ([min(1.0, STEP_FRAC * step) for step in side] for side in _max_steps(nt, dx, ds))
        # x stays exactly Hermitian, as dx is; s is made so
        x = [xc + _col(ap) * d for xc, d in zip(x, dx)]
        s = [_herm(sc + _col(ad) * d) for sc, d in zip(s, ds)]
        y = y + _col(ad, 1) * dy
    else:
        for j, k in enumerate(active):  # out of iterations, with the iterate moved on
            iterations[k] = it
            final[k] = ([xc[j] for xc in x], [sc[j] for sc in s], y[j])

    # reported for the iterates returned
    x = [np.stack([final[k][0][i] for k in range(nb)]) for i in range(len(classes))]
    s = [np.stack([final[k][1][i] for k in range(nb)]) for i in range(len(classes))]
    y = np.stack([final[k][2] for k in range(nb)])
    _, _, pres, dres = residuals(x, s, y, c_all, b_all, *scales_all)
    pobj = inner(c_all, x)
    z = [_herm(cc - cls.apply_at(y)) for cls, cc in zip(classes, c_all)]
    out = []
    for k, problem in enumerate(problems):
        dobj = float(b_all[k] @ y[k])
        primal_blocks: list[np.ndarray] = [None] * len(problem.blocks)
        slacks: list[np.ndarray] = [None] * len(problem.blocks)
        for cls, xc, zc in zip(classes, x, z):
            for i, xb, zb in zip(cls.members, xc[k], zc[k]):
                primal_blocks[i] = xb
                slacks[i] = zb
        out.append(
            SdpSolution(
                status=status[k],
                primal_value=pobj[k],
                dual_value=dobj,
                primal_blocks=primal_blocks,
                dual_multipliers=y[k],
                dual_slacks=slacks,
                gap=abs(pobj[k] - dobj) / (1.0 + abs(pobj[k])),
                iterations=iterations[k],
                primal_residual=float(pres[k]),
                dual_residual=float(dres[k]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Complex Hermitian layer
# ---------------------------------------------------------------------------


class ComplexSdpBuilder:
    """Assemble an SDP over complex Hermitian PSD blocks of one size ``cdim``.

    :meth:`add_blocks` returns integer handles, and objectives and
    constraints are dicts keyed by handle.  ``minimize`` is the default
    sense; pass ``sense="max"`` to flip.  The objective has no constant
    term: a caller whose value carries one adds it to the result.

    A constraint statement states ``k`` rows at once: each block's
    coefficient is a ``(k, cdim, cdim)`` stack, row ``i`` reading
    ``sum_b <A_b[i], X_b> = rhs[i]``.  Each distinct coefficient object is
    checked and hermitized once, however many blocks and statements share it,
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

    def set_objective(self, coeffs: dict[int, np.ndarray], sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
        self._obj = self._objective(coeffs)
        self._sense = -1.0 if sense == "max" else 1.0

    def _objective(self, coeffs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        return {self._block(k): hermitize(v) for k, v in coeffs.items()}

    def add_constraint(self, coeffs: dict[int, np.ndarray], rhs) -> None:
        """State one row per entry of ``rhs``; a ``(cdim, cdim)`` coefficient takes a scalar."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim > 1:
            raise ValueError(f"rhs must be a scalar or a vector, not an array of shape {rhs.shape}")
        rhs = np.atleast_1d(rhs)
        k, d = len(rhs), self.cdim
        terms = []  # recorded once every coefficient has passed
        for handle, a in coeffs.items():
            block = self._block(handle)
            if id(a) not in self._mats:
                self._mats[id(a)] = (a, hermitize(np.reshape(a, (-1, *np.shape(a)[-2:]))))
            if self._mats[id(a)][1].shape != (k, d, d):
                raise ValueError(f"block {block} needs a ({k}, {d}, {d}) coefficient")
            terms.append((block, id(a)))
        for block, key in terms:
            self._terms[block].append((self._m, key))
        self._rhs.append(rhs)
        self._m += k

    def _columns(self) -> list[BlockColumn]:
        """Every block's support rows and distinct matrices, in statement order.

        Blocks whose statements use the same stacks in the same order share
        one ``mats`` object, which the solver then holds once.
        """
        d = self.cdim
        joined: dict[tuple[int, ...], np.ndarray] = {}
        columns = []
        for terms in self._terms:
            rows, index = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
            offset: dict[int, int] = {}
            u = 0
            for first, key in terms:
                k = len(self._mats[key][1])
                if key not in offset:
                    offset[key], u = u, u + k
                rows.append(np.arange(first, first + k))
                index.append(np.arange(offset[key], offset[key] + k))
            keys = tuple(offset)
            if keys not in joined:
                stacks = [self._mats[key][1] for key in keys]
                joined[keys] = np.concatenate([np.zeros((0, d, d), dtype=complex), *stacks])
            columns.append(BlockColumn(np.concatenate(rows), np.concatenate(index), joined[keys]))
        return columns

    def _problems(self, objectives: list[dict[int, np.ndarray]]) -> list[SdpProblem]:
        """One problem per objective, all over this builder's blocks, columns and rows."""
        n, d = len(self._terms), self.cdim
        zero = np.zeros((d, d), dtype=complex)
        blocks = [(k, d) for k in range(n)]
        columns = self._columns()
        rhs = np.concatenate([np.zeros(0), *self._rhs])
        return [
            SdpProblem(blocks, [self._sense * obj.get(k, zero) for k in range(n)], columns=columns, rhs=rhs)
            for obj in objectives
        ]

    def _result(self, sol: SdpSolution) -> SdpSolution:
        """A solver result with values and multipliers in this builder's sense, blocks stacked."""
        return replace(
            sol,
            primal_value=self._sense * sol.primal_value,
            dual_value=self._sense * sol.dual_value,
            primal_blocks=np.stack(sol.primal_blocks),
            dual_multipliers=self._sense * sol.dual_multipliers,
            dual_slacks=self._sense * np.stack(sol.dual_slacks),
        )

    def solve(self, opts: SolveOptions = SolveOptions()) -> SdpSolution:
        """Solve; values and multipliers follow the objective's sense, blocks stack by handle."""
        (problem,) = self._problems([self._obj])
        return self._result(solve(problem, opts))

    def solve_batch(self, objectives, opts: SolveOptions = SolveOptions()) -> list[SdpSolution]:
        """Solve once per objective, in lockstep (:func:`solve_batch`), as :meth:`solve` would.

        Each objective is a coefficient dict keyed by handle, in place of the
        one :meth:`set_objective` gave; its sense still holds.
        """
        problems = self._problems([self._objective(obj) for obj in objectives])
        return [self._result(sol) for sol in solve_batch(problems, opts)]


@lru_cache(maxsize=32)
def _instrument_stack(din: int, dout: int) -> tuple[np.ndarray, np.ndarray]:
    """The trace-preserving rows of instruments ``din -> dout``: ``H_i (x) 1`` and ``Tr H_i``."""
    h = hermitian_basis(din)
    tp, rhs = kron_stack(h, np.eye(dout)[None]), np.trace(h, axis1=1, axis2=2).real
    for a in (tp, rhs):
        a.flags.writeable = False
    return tp, rhs


def _instrument_builder(n: int, din: int, dout: int) -> tuple[ComplexSdpBuilder, np.ndarray]:
    """A maximizing builder over ``n`` branches of an instrument ``din -> dout``, and their handles."""
    builder = ComplexSdpBuilder(din * dout)
    js = builder.add_blocks(n)
    builder.set_objective({}, sense="max")
    tp, rhs = _instrument_stack(din, dout)
    builder.add_constraint(dict.fromkeys(js, tp), rhs)
    return builder, js


def best_instrument(
    zs, din: int, dout: int, opts: SolveOptions = SolveOptions(), what: str = "instrument"
) -> tuple[float, np.ndarray, float]:
    """Maximize ``sum_k Tr[Z_k J_k]`` over instruments ``din -> dout``, one branch per ``Z_k``.

    Returns the optimum, the branch Choi matrices ``(n, din*dout, din*dout)`` and the
    relative gap; raises ``ArithmeticError`` naming ``what`` unless the solve is optimal.
    """
    builder, js = _instrument_builder(len(zs), din, dout)
    builder.set_objective(dict(zip(js, zs)), sense="max")
    res = builder.solve(opts).require_optimal(what)
    return res.primal_value, res.primal_blocks, res.gap


def best_instruments(
    batch, din: int, dout: int, opts: SolveOptions = SolveOptions(), what: str = "instrument"
) -> list[tuple[float, np.ndarray, float]]:
    """:func:`best_instrument` for each score stack of ``batch``, solved in lockstep.

    The stacks have one length.  Raises ``ArithmeticError`` naming ``what``
    unless every solve is optimal.  An empty batch gives ``[]``.
    """
    if not batch:
        return []
    builder, js = _instrument_builder(len(batch[0]), din, dout)
    sols = builder.solve_batch([dict(zip(js, zs)) for zs in batch], opts)
    return [
        (res.primal_value, res.primal_blocks, res.gap)
        for res in (sol.require_optimal(what) for sol in sols)
    ]
