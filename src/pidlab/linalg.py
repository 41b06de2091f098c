"""Dense complex linear algebra and Choi-matrix calculus.

Conventions used throughout the package:

* Operators are ``numpy`` arrays of ``complex128`` in row-major layout.
* The Choi matrix of a map ``L : in -> out`` lives on ``in (x) out`` with the
  composite index ``k = i*dout + a`` (input-major) and is built from the
  unnormalized maximally entangled operator ``phi_plus``.
* A map is completely positive iff its Choi matrix is positive semidefinite
  and trace preserving iff the partial trace of the Choi matrix over the
  output factor is the identity on the input factor.  :func:`psd_defect` and
  :func:`tp_defect` measure how far a matrix is from each, and every kind
  checked by its named defects (:class:`Validated`) is valid when none exceeds
  ``VALID_TOL`` or the tolerance a caller gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIZE_TOL = 1e-12
VALID_TOL = 1e-8  # the largest defect of a valid object, unless a caller gives a tolerance
DEFAULT_RANK_TOL = 1e-8
_MAG_TOL = 1e-8  # entries at most this large carry no phase in eig_hermitian's tie-breaks

__all__ = [
    "ChoiMatrix",
    "Validated",
    "apply_choi",
    "check_hermitian",
    "choi_from_kraus",
    "choi_identity",
    "choi_of_prepare",
    "choi_tensor",
    "choi_trace_map",
    "eig_hermitian",
    "hermitize",
    "kron",
    "link_product",
    "max_abs",
    "min_eig",
    "partial_trace",
    "phi_plus",
    "psd_defect",
    "tp_defect",
    "trace_norm",
]


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude, 0.0 for empty arrays."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def check_hermitian(a: np.ndarray, what: str = "matrix") -> None:
    """The package's one Hermiticity rule: raise ``ValueError`` naming ``what`` unless ``a``
    is a square matrix, or a stack ``(..., n, n)`` of them, and no entry of any matrix's
    ``a - a^dag`` exceeds ``HERMITIZE_TOL`` times ``max(1, its largest entry)``.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square {what}, got shape {a.shape}")
    if a.size:
        flat = a.shape[:-2] + (-1,)
        defect = np.abs(a - a.conj().swapaxes(-1, -2)).reshape(flat).max(axis=-1)
        bad = defect > HERMITIZE_TOL * np.maximum(1.0, np.abs(a).reshape(flat).max(axis=-1))
        if bad.any():
            raise ValueError(
                f"{what} has an antisymmetric part: defect {float(np.max(defect[bad])):.3e} "
                f"exceeds {HERMITIZE_TOL:.1e} (relative)"
            )


def hermitize(a: np.ndarray) -> np.ndarray:
    """``(a + a^dag)/2`` after :func:`check_hermitian`; exactly Hermitian ``a`` comes back as is."""
    a = np.asarray(a, dtype=complex)
    check_hermitian(a)
    return (a + a.conj().swapaxes(-1, -2)) / 2


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
    """Smallest eigenvalue of a (numerically) Hermitian matrix, or over a stack ``(..., n, n)``."""
    return float(np.linalg.eigvalsh((h + h.conj().swapaxes(-1, -2)) / 2)[..., 0].min())


def psd_defect(h: np.ndarray) -> float:
    """Distance of a Hermitian matrix, or the worst of a stack, from PSD: ``-min_eig`` or 0."""
    lowest = min_eig(h)
    return max(0.0, -lowest)


def tp_defect(mat: np.ndarray, din: int, dout: int, trace: float = 1.0) -> float:
    """Largest entry magnitude of ``Tr_out mat - trace * 1_in``, ``mat`` on ``din (x) dout``."""
    return max_abs(partial_trace(mat, (din, dout), keep=(0,)) - trace * np.eye(din))


class Validated:
    """Base of the kinds checked by named defects, each a distance from one defining condition."""

    def defects(self) -> dict[str, float]:
        """Each defect by name; all are 0 for an exactly valid object."""
        raise NotImplementedError

    def is_valid(self, tol: float = VALID_TOL) -> bool:
        """No defect exceeds ``tol``."""
        return all(v <= tol for v in self.defects().values())


def _canonical_phase(vecs: np.ndarray) -> np.ndarray:
    """Fix each column's global phase so its first sizable entry is real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > _MAG_TOL)
        if idx.size == 0:
            continue
        ph = col[idx[0]] / abs(col[idx[0]])
        out[:, j] = col / ph
    return out


def _lex_key(col: np.ndarray) -> tuple:
    key = []
    for c in col:
        mag = abs(c)
        key.append(round(mag, 10))
        key.append(round(float(np.angle(c)), 10) if mag > _MAG_TOL else 0.0)
    return tuple(key)


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition with descending eigenvalues and a fixed tie-break.

    Eigenvector phases are normalized (first sizable component real positive),
    and within a degenerate cluster the vectors are ordered by a lexicographic
    key on (magnitude, phase) per component, so repeated runs on identical
    input produce identical output.  ``m`` must pass :func:`check_hermitian`.
    """
    vals, vecs = np.linalg.eigh(hermitize(m))
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


def phi_plus(d: int) -> np.ndarray:
    """Unnormalized maximally entangled operator ``sum_ij |i><j| (x) |i><j|``."""
    v = np.eye(d, dtype=complex).reshape(d * d)
    return np.outer(v, v)


@dataclass(frozen=True)
class ChoiMatrix(Validated):
    """Choi matrix of a CP map ``in -> out`` in the input-major basis; valid as a channel."""

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

    def defects(self) -> dict[str, float]:
        return {
            "cp_defect": psd_defect(self.mat),
            "tp_defect": tp_defect(self.mat, self.din, self.dout),
        }

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
