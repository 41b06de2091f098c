"""Dense semidefinite programming with primal-dual certificates.

Solves standard-form problems over real symmetric PSD blocks,

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_{i,b}, X_b> = b_i   (i = 1..m),   X_b >= 0,

with a Mehrotra-style predictor-corrector path-following method using
Nesterov-Todd scaling.

The blocks are grouped by their size and by the number of constraint rows
they appear in (their support), and each group is held as ``(n, d, d)``
stacks.  The Cholesky factorizations, SVDs, inverses and step-length
eigenvalues of a group run as one batched numpy call, and a block's
constraint matrices are stored only on its support rows.  The Schur
complement ``H[i, j] = sum_b <A_{i,b}, W_b A_{j,b} W_b>`` is assembled per
group on those rows and added into the rows and columns of ``H`` that they
occupy, so a block costs in proportion to the rows it appears in, not to
all ``m`` (the sparsity argument of Fujisawa, Kojima and Nakata, Math.
Prog. 79, 1997).  Problem sizes here are at most a few hundred constraints,
so ``H`` itself is dense and factored with Cholesky.  Everything is
deterministic: fixed initialization, no randomized pivoting, so identical
inputs produce identical iterates.

Complex Hermitian problems are handled by :class:`ComplexSdpBuilder`, which
embeds every Hermitian matrix ``H = P + iQ`` as the real symmetric matrix
``[[P, -Q], [Q, P]]`` (doubling traces and eigenvalue multiplicities) and
undoes the doubling when reporting values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import hermitize, max_abs

__all__ = [
    "ComplexSdpBuilder",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "SolveOptions",
    "embed_complex",
    "hermitian_basis",
    "solve",
    "unembed_complex",
]

DIVERGENCE_LIMIT = 1e8


class SdpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class SolveOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-7
    max_iter: int = 200
    step_frac: float = 0.98


@dataclass(frozen=True)
class SdpProblem:
    """Block SDP data.  ``constraints`` holds ``(per-block matrices, rhs)`` rows.

    Construction checks shapes and symmetry one block column at a time and
    records in ``supports``, per block, the constraint rows whose matrix for
    that block is nonzero; the solver reads only those rows.
    """

    blocks: tuple[tuple[str, int], ...]
    objective: tuple[np.ndarray, ...]
    constraints: tuple[tuple[tuple[np.ndarray, ...], float], ...]
    supports: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = [d for _, d in self.blocks]
        if len(self.objective) != len(dims):
            raise ValueError("objective must provide one matrix per block")
        if any(len(row) != len(dims) for row, _ in self.constraints):
            raise ValueError("constraint row must cover every block")
        supports = []
        for k, d in enumerate(dims):
            _stack_column([self.objective[k]], d, "objective")
            col = _stack_column([row[k] for row, _ in self.constraints], d, "constraint")
            supports.append(np.flatnonzero(col.reshape(len(col), d * d).any(axis=1)))
        object.__setattr__(self, "supports", tuple(supports))

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


def _stack_column(mats: list, dim: int, what: str) -> np.ndarray:
    """Stack one block's matrices ``(len(mats), dim, dim)``, checking each is symmetric."""
    shapes = {np.shape(a) for a in mats}
    if shapes - {(dim, dim)}:
        bad = next(iter(shapes - {(dim, dim)}))
        raise ValueError(f"{what} matrix shape {bad} does not match block dim {dim}")
    if not mats:
        return np.zeros((0, dim, dim))
    stack = np.asarray(np.stack(mats), dtype=float)
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    if np.any(asym > 1e-12 * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))):
        raise ValueError(f"{what} matrix has an antisymmetric part")
    return stack


@dataclass
class SdpSolution:
    status: SdpStatus
    primal_value: float
    dual_value: float
    primal_blocks: list[np.ndarray]
    dual_multipliers: np.ndarray
    dual_slacks: list[np.ndarray]
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float


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
    """Project a ``2n x 2n`` real symmetric matrix back to Hermitian ``n x n``."""
    n2 = x.shape[0]
    if n2 % 2:
        raise ValueError("embedded matrix must have even dimension")
    n = n2 // 2
    p = (x[:n, :n] + x[n:, n:]) / 2
    q = (x[n:, :n] - x[:n, n:]) / 2
    return hermitize(p + 1j * q, tol=1e-8)


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of n x n Hermitian matrices, diagonal first."""
    basis = []
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    s = 1.0 / np.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = s
            e[l, k] = s
            basis.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[k, l] = -1j * s
            f[l, k] = 1j * s
            basis.append(f)
    return basis


# ---------------------------------------------------------------------------
# Core interior-point solver
# ---------------------------------------------------------------------------


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.swapaxes(-1, -2)) / 2


class _BlockGroup:
    """Blocks of one size ``d`` that each appear in ``r`` constraint rows.

    ``rows`` ``(n, r)`` holds each block's support rows and ``a``
    ``(n, r, d, d)`` its constraint matrices on them; ``members`` are the
    blocks' positions in the problem.
    """

    def __init__(self, problem: SdpProblem, members: list[int]):
        self.members = members
        self.dim = d = problem.blocks[members[0]][1]
        self.rows = np.stack([problem.supports[k] for k in members])
        n, r = self.rows.shape
        self.a = np.array(
            [[problem.constraints[i][0][k] for i in rows] for k, rows in zip(members, self.rows)],
            dtype=float,
        ).reshape(n, r, d, d)
        self.c = np.stack([np.asarray(problem.objective[k], dtype=float) for k in members])
        self.a_flat = self.a.reshape(n, r, d * d)

    def apply_a(self, x: np.ndarray, m: int) -> np.ndarray:
        """``out[i] = sum_b <A_{i,b}, X_b>`` over this group, as an m-vector."""
        n = len(self.members)
        vals = self.a_flat @ x.reshape(n, -1, 1)
        return np.bincount(self.rows.ravel(), vals.ravel(), minlength=m)

    def apply_at(self, y: np.ndarray) -> np.ndarray:
        """``sum_i y_i A_{i,b}`` for each block of the group."""
        return (y[self.rows][:, None, :] @ self.a_flat).reshape(self.c.shape)

    def add_schur(self, w: np.ndarray, h: np.ndarray) -> None:
        """``H[i, j] += <A_{i,b}, W_b A_{j,b} W_b>`` on each block's support rows."""
        n, r = self.rows.shape
        m = len(h)
        waw = (w[:, None] @ self.a @ w[:, None]).reshape(n, r, -1)
        flat_h = h.reshape(-1)
        for rows, hb in zip(self.rows, self.a_flat @ waw.swapaxes(1, 2)):
            flat_h[(rows[:, None] * m + rows).ravel()] += hb.ravel()


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


def _initial_point(groups, b, m):
    # primal blocks: identity scaled to roughly satisfy trace-like constraints
    tr = sum(
        np.bincount(grp.rows.ravel(), np.trace(grp.a, axis1=2, axis2=3).ravel(), minlength=m)
        for grp in groups
    )
    big = np.abs(tr) > 1e-9
    cands = np.abs(b[big]) / np.abs(tr[big])
    xi = float(np.clip(cands.max() if cands.size else 1.0, 1.0, 1e4))
    eta = float(np.clip(max(max_abs(grp.c) for grp in groups), 1.0, 1e4))
    x = [xi * np.broadcast_to(np.eye(grp.dim), grp.c.shape) for grp in groups]
    s = [eta * np.broadcast_to(np.eye(grp.dim), grp.c.shape) for grp in groups]
    return x, s, np.zeros(m)


def _group_blocks(problem: SdpProblem) -> list[list[int]]:
    """Block positions grouped by (size, support size), in order of first appearance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, ((_, d), rows) in enumerate(zip(problem.blocks, problem.supports)):
        groups.setdefault((d, len(rows)), []).append(k)
    return list(groups.values())


def solve(problem: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Run the interior-point iteration and return a primal-dual certificate."""
    opts = opts or SolveOptions()
    m = problem.n_constraints
    if m == 0:
        raise ValueError("problems without equality constraints are not supported")
    ntot = sum(d for _, d in problem.blocks)
    b = np.array([rhs for _, rhs in problem.constraints], dtype=float)
    groups = [_BlockGroup(problem, members) for members in _group_blocks(problem)]

    def apply_a(xs):
        return sum(grp.apply_a(xg, m) for grp, xg in zip(groups, xs))

    def inner(us, vs):
        return sum(float(np.sum(u * v)) for u, v in zip(us, vs))

    x, s, y = _initial_point(groups, b, m)
    b_scale = 1.0 + float(np.max(np.abs(b)))
    c_scale = 1.0 + max(max_abs(grp.c) for grp in groups)

    status = SdpStatus.NUMERICAL_FAILURE
    it = 0
    pres = dres = np.inf
    for it in range(1, opts.max_iter + 1):
        rp = b - apply_a(x)
        rd = [grp.c - grp.apply_at(y) - sg for grp, sg in zip(groups, s)]
        mu = inner(x, s) / ntot
        pobj = inner((grp.c for grp in groups), x)
        dobj = float(b @ y)
        pres = float(np.max(np.abs(rp))) / b_scale
        dres = max(max_abs(r) for r in rd) / c_scale
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

        h_chol = None
        h_scale = max(np.trace(h) / m, 1e-300)
        for ridge in (1e-14, 1e-12, 1e-10, 1e-8):
            try:
                h_chol = np.linalg.cholesky(h + ridge * h_scale * np.eye(m))
                break
            except np.linalg.LinAlgError:
                continue
        if h_chol is None:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        def solve_h(rhs_vec):
            z = np.linalg.solve(h_chol, rhs_vec)
            return np.linalg.solve(h_chol.T, z)

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
        ap = min(_max_step(sc.lx_inv, d) for sc, d in zip(nt, dx))
        ad = min(_max_step(sc.ls_inv, d) for sc, d in zip(nt, ds))
        ap = min(1.0, opts.step_frac * ap)
        ad = min(1.0, opts.step_frac * ad)
        x = [_sym(xg + ap * d) for xg, d in zip(x, dx)]
        s = [_sym(sg + ad * d) for sg, d in zip(s, ds)]
        y = y + ad * dy

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
    """Assemble an SDP over complex Hermitian PSD blocks.

    Matrices are embedded into real symmetric blocks; right-hand sides and
    the reported optimum are rescaled so values refer to the complex problem.
    ``minimize`` is the default sense; pass ``sense="max"`` to flip.
    """

    def __init__(self):
        self._names: list[str] = []
        self._dims: dict[str, int] = {}
        self._obj: dict[str, np.ndarray] = {}
        self._rows: list[tuple[dict[str, np.ndarray], float]] = []
        self._constant = 0.0
        self._sense = 1.0

    def add_block(self, name: str, cdim: int) -> None:
        if name in self._dims:
            raise ValueError(f"duplicate block {name!r}")
        self._names.append(name)
        self._dims[name] = cdim

    def set_objective(
        self, coeffs: dict[str, np.ndarray], constant: float = 0.0, sense: str = "min"
    ) -> None:
        self._obj = {k: hermitize(v) for k, v in coeffs.items()}
        self._constant = constant
        self._sense = -1.0 if sense == "max" else 1.0

    def add_constraint(self, coeffs: dict[str, np.ndarray], rhs: float) -> None:
        self._rows.append(({k: hermitize(v) for k, v in coeffs.items()}, float(rhs)))

    def solve(self, opts: SolveOptions | None = None) -> "ComplexSdpResult":
        blocks = tuple((n, 2 * self._dims[n]) for n in self._names)
        zero = {n: np.zeros((2 * d, 2 * d)) for n, d in self._dims.items()}
        obj = tuple(
            self._sense * embed_complex(self._obj[n]) if n in self._obj else zero[n]
            for n in self._names
        )
        # each block is embedded in one call over the rows it appears in;
        # the rows it is absent from share one zero matrix
        columns = []
        for n in self._names:
            col = [zero[n]] * len(self._rows)
            present = [i for i, (coeffs, _) in enumerate(self._rows) if n in coeffs]
            if present:
                embedded = embed_complex(np.stack([self._rows[i][0][n] for i in present]))
                for i, a in zip(present, embedded):
                    col[i] = a
            columns.append(col)
        rows = [(row, 2.0 * rhs) for row, (_, rhs) in zip(zip(*columns), self._rows)]
        problem = SdpProblem(blocks=blocks, objective=obj, constraints=tuple(rows))
        sol = solve(problem, opts)
        value = self._sense * sol.primal_value / 2.0 + self._constant
        dual_value = self._sense * sol.dual_value / 2.0 + self._constant
        prim = {
            n: unembed_complex(x) for n, x in zip(self._names, sol.primal_blocks)
        }
        slack = {
            n: unembed_complex(self._sense * z)
            for n, z in zip(self._names, sol.dual_slacks)
        }
        return ComplexSdpResult(
            status=sol.status,
            value=value,
            dual_value=dual_value,
            blocks=prim,
            multipliers=self._sense * sol.dual_multipliers,
            dual_slacks=slack,
            gap=sol.gap,
            iterations=sol.iterations,
            primal_residual=sol.primal_residual,
            dual_residual=sol.dual_residual,
        )


@dataclass
class ComplexSdpResult:
    status: SdpStatus
    value: float
    dual_value: float
    blocks: dict[str, np.ndarray]
    multipliers: np.ndarray
    dual_slacks: dict[str, np.ndarray]
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float

    def require_optimal(self, what: str = "SDP") -> "ComplexSdpResult":
        if self.status is not SdpStatus.OPTIMAL:
            raise ArithmeticError(f"{what} did not reach optimality: {self.status.value}")
        return self
