"""Dense complex linear algebra and Choi-matrix calculus.

Conventions used throughout the package:

* Operators are ``numpy`` arrays of ``complex128`` in row-major layout.
* The Choi matrix of a map ``L : in -> out`` lives on ``in (x) out`` with the
  composite index ``k = i*dout + a`` (input-major) and is built from the
  unnormalized maximally entangled operator ``phi_plus``.
* A map is completely positive iff its Choi matrix is positive semidefinite
  and trace preserving iff the partial trace of the Choi matrix over the
  output factor is the identity on the input factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIZE_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-8

__all__ = [
    "ChoiMatrix",
    "apply_choi",
    "choi_from_kraus",
    "choi_identity",
    "choi_of_prepare",
    "choi_tensor",
    "choi_trace_map",
    "eig_hermitian",
    "hermitize",
    "hermiticity_defect",
    "kron",
    "link_product",
    "max_abs",
    "min_eig",
    "partial_trace",
    "phi_plus",
    "psd_pinv_sqrt",
    "trace_norm",
]


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude, 0.0 for empty arrays."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_defect(a: np.ndarray) -> float:
    return max_abs(a - a.conj().T)


def hermitize(a: np.ndarray, tol: float = HERMITIZE_TOL) -> np.ndarray:
    """Symmetrize ``(a + a^dag)/2`` after checking the drift is below ``tol``.

    ``a`` is one square matrix or a stack ``(..., n, n)`` of them.  Raises
    ``ValueError`` when any matrix drifts beyond ``tol`` scaled by its own
    largest entry; numerical routines downstream require exact Hermiticity.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    ah = a.conj().swapaxes(-1, -2)
    if a.size:
        flat = a.shape[:-2] + (-1,)
        defect = np.abs(a - ah).reshape(flat).max(axis=-1)
        bad = defect > tol * np.maximum(1.0, np.abs(a).reshape(flat).max(axis=-1))
        if bad.any():
            raise ValueError(
                f"matrix is not Hermitian: defect {float(np.max(defect[bad])):.3e} "
                f"exceeds {tol:.1e} (relative)"
            )
    return (a + ah) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major composite index ``i_a*rows_b + i_b``."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(m: np.ndarray, dims: list[int] | tuple[int, ...], keep) -> np.ndarray:
    """Trace out the tensor factors of ``m`` not listed in ``keep``.

    ``dims`` are the subsystem dimensions whose product must equal the matrix
    dimension; ``keep`` is an iterable of factor positions to retain, in the
    original order.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    t = m.reshape(dims + dims)
    k = len(dims)
    traced = [i for i in range(k) if i not in keep]
    for offset, i in enumerate(traced):
        # each trace removes one row and one column axis
        ax = i - offset
        t = np.trace(t, axis1=ax, axis2=ax + (k - offset))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def trace_norm(a: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(np.asarray(a), compute_uv=False)))


def min_eig(h: np.ndarray) -> float:
    """Smallest eigenvalue of a (numerically) Hermitian matrix."""
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0])


def _canonical_phase(vecs: np.ndarray, mag_tol: float = 1e-8) -> np.ndarray:
    """Fix each column's global phase so its first sizable entry is real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > mag_tol)
        if idx.size == 0:
            continue
        ph = col[idx[0]] / abs(col[idx[0]])
        out[:, j] = col / ph
    return out


def _lex_key(col: np.ndarray, mag_tol: float = 1e-8) -> tuple:
    key = []
    for c in col:
        mag = abs(c)
        key.append(round(mag, 10))
        key.append(round(float(np.angle(c)), 10) if mag > mag_tol else 0.0)
    return tuple(key)


def eig_hermitian(m: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition with descending eigenvalues and a fixed tie-break.

    Eigenvector phases are normalized (first sizable component real positive),
    and within a degenerate cluster the vectors are ordered by a lexicographic
    key on (magnitude, phase) per component, so repeated runs on identical
    input produce identical output.
    """
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, max_abs(m))
    if hermiticity_defect(m) > tol * scale:
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    vecs = _canonical_phase(vecs)
    # deterministic ordering inside (near-)degenerate clusters
    cluster_tol = 1e-8 * max(1.0, float(np.max(np.abs(vals))))
    i = 0
    n = len(vals)
    while i < n:
        j = i + 1
        while j < n and abs(vals[j] - vals[i]) <= cluster_tol:
            j += 1
        if j - i > 1:
            order = sorted(range(i, j), key=lambda k: _lex_key(vecs[:, k]), reverse=True)
            vecs[:, i:j] = vecs[:, order]
            vals[i:j] = vals[order]
        i = j
    return vals, vecs


def psd_pinv_sqrt(
    m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pseudo-inverse square root of a PSD matrix.

    Returns ``(sqrt_pinv, support_basis, rank)`` where eigenvalues below
    ``rank_tol`` times the largest eigenvalue are treated as zero and
    ``support_basis`` holds the retained eigenvectors as orthonormal columns
    (descending eigenvalue order).  Raises for significantly negative input.
    """
    vals, vecs = eig_hermitian(m)
    top = float(vals[0]) if len(vals) else 0.0
    if top <= 0.0:
        raise ValueError("psd_pinv_sqrt requires a nonzero PSD matrix")
    if vals[-1] < -rank_tol * top:
        raise ValueError(
            f"matrix has a significantly negative eigenvalue {vals[-1]:.3e}"
        )
    cut = rank_tol * top
    mask = vals > cut
    rank = int(np.count_nonzero(mask))
    kept_vals = vals[mask]
    kept_vecs = vecs[:, mask]
    sqrt_pinv = (kept_vecs * (kept_vals ** -0.5)) @ kept_vecs.conj().T
    return sqrt_pinv, kept_vecs, rank


def phi_plus(d: int) -> np.ndarray:
    """Unnormalized maximally entangled operator ``sum_ij |i><j| (x) |i><j|``."""
    v = np.eye(d, dtype=complex).reshape(d * d)
    return np.outer(v, v)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a CP map ``in -> out`` in the input-major basis."""

    din: int
    dout: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = hermitize(self.mat)
        n = self.din * self.dout
        if mat.shape != (n, n):
            raise ValueError(
                f"Choi matrix shape {mat.shape} does not match din*dout = {n}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.din * self.dout

    def cp_defect(self, tol_scale: float = 1.0) -> float:
        return max(0.0, -min_eig(self.mat)) * tol_scale

    def tp_defect(self) -> float:
        marg = partial_trace(self.mat, (self.din, self.dout), keep=(0,))
        return max_abs(marg - np.eye(self.din))

    def is_cp(self, tol: float = 1e-9) -> bool:
        return min_eig(self.mat) >= -tol

    def is_tp(self, tol: float = 1e-9) -> bool:
        return self.tp_defect() <= tol

    def as_tensor(self) -> np.ndarray:
        """Leg layout ``T[i, j, a, b] = J[(i, a), (j, b)]`` (in-row, in-col, out-row, out-col)."""
        t = self.mat.reshape(self.din, self.dout, self.din, self.dout)
        return t.transpose(0, 2, 1, 3)

    @staticmethod
    def from_tensor(t: np.ndarray, din: int, dout: int) -> "ChoiMatrix":
        mat = t.transpose(0, 2, 1, 3).reshape(din * dout, din * dout)
        return ChoiMatrix(din, dout, mat)


def choi_identity(d: int) -> ChoiMatrix:
    return ChoiMatrix(d, d, phi_plus(d))


def choi_trace_map(d: int) -> ChoiMatrix:
    """Choi of the trace map ``d -> 1``."""
    return ChoiMatrix(d, 1, np.eye(d, dtype=complex))


def choi_of_prepare(state: np.ndarray) -> ChoiMatrix:
    """Choi of the preparation map ``1 -> d`` emitting ``state`` (possibly subnormalized)."""
    state = np.asarray(state, dtype=complex)
    return ChoiMatrix(1, state.shape[0], state)


def choi_from_kraus(kraus: list[np.ndarray] | tuple[np.ndarray, ...]) -> ChoiMatrix:
    """Choi matrix ``sum_k (1 (x) K_k) phi_plus (1 (x) K_k)^dag``."""
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    dout, din = ops[0].shape
    if any(k.shape != (dout, din) for k in ops):
        raise ValueError("all Kraus operators must share the same shape")
    j = np.zeros((din * dout, din * dout), dtype=complex)
    for k in ops:
        # (1 (x) K) |phi_+> = sum_i |i> (x) K|i>, input-major composite index
        v = k.T.reshape(din * dout)
        j += np.outer(v, v.conj())
    return ChoiMatrix(din, dout, j)


def apply_choi(j: ChoiMatrix, rho: np.ndarray) -> np.ndarray:
    """Evaluate the map on ``rho`` via ``Tr_in[(rho^T (x) 1) J]``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (j.din, j.din):
        raise ValueError(f"state shape {rho.shape} does not match din {j.din}")
    t = j.as_tensor()  # T[i, k, a, b] = J[(i,a),(k,b)]
    return np.einsum("ik,ikab->ab", rho, t)


def link_product(j1: ChoiMatrix, j2: ChoiMatrix) -> ChoiMatrix:
    """Choi of the sequential composition ``second after first``.

    ``j1 : X -> Y`` and ``j2 : Y -> Z`` give the Choi of ``X -> Z``; in leg
    form this is the contraction ``C[x,x',z,z'] = sum F[x,x',y,y] G[y,y',z,z']``.
    """
    if j1.dout != j2.din:
        raise ValueError(f"cannot link: first output {j1.dout} != second input {j2.din}")
    t = np.einsum("xwab,abzv->xwzv", j1.as_tensor(), j2.as_tensor())
    return ChoiMatrix.from_tensor(t, j1.din, j2.dout)


def choi_tensor(j1: ChoiMatrix, j2: ChoiMatrix) -> ChoiMatrix:
    """Choi of the parallel composition, inputs ``in1 (x) in2``, outputs ``out1 (x) out2``."""
    t1 = j1.as_tensor()
    t2 = j2.as_tensor()
    t = np.einsum("ijab,klcd->ikjlacbd", t1, t2).reshape(
        j1.din * j2.din, j1.din * j2.din, j1.dout * j2.dout, j1.dout * j2.dout
    )
    return ChoiMatrix.from_tensor(t, j1.din * j2.din, j1.dout * j2.dout)
