"""Steering-equivalence mapping: devices compressed to measurement families.

The blocks of a device, conjugated by the pseudo-inverse square root of the
marginal Choi matrix and restricted to its support, form a measurement family
on a system of dimension ``rank(J_marginal)``.  The mapping is faithful (the
device is simple iff the measurement family is compatible) and the device is
recovered exactly from the family together with a canonical isometric
dilation of the marginal channel.

The support is identified with the abstract system through the deterministic
eigenbasis ordering of :func:`pidlab.linalg.eig_hermitian`; complex
conjugation in the dilation is entrywise in the computational basis.

Name clash: the package attribute ``pidlab.sem`` is the function :func:`sem`,
so ``import pidlab.sem as m`` gives the function.  This module is
``sys.modules["pidlab.sem"]``, and ``from pidlab.sem import ...`` still works.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .compatibility import roi_pmd
from .devices import Pid, Pmd
from .linalg import DEFAULT_RANK_TOL, eig_hermitian, max_abs
from .sdp import SolveOptions

__all__ = [
    "CanonicalDilation",
    "SemResult",
    "canonical_dilation",
    "reconstruct_pid",
    "sem",
    "sem_monotone_value",
]


@dataclass(frozen=True)
class SemResult:
    """Measurement family on the marginal support, plus the identification data."""

    pmd: Pmd
    support_basis: np.ndarray = field(repr=False)
    marginal_choi: np.ndarray = field(repr=False)
    rank: int
    near_cutoff: bool = False


@dataclass(frozen=True)
class CanonicalDilation:
    """Isometry ``din -> dout * rank`` dilating the marginal channel."""

    isometry: np.ndarray = field(repr=False)
    din: int
    dout: int
    rank: int

    def isometry_defect(self) -> float:
        v = self.isometry
        return max_abs(v.conj().T @ v - np.eye(self.din))


def _support_spectrum(p: Pid, rank_tol: float):
    marg = p.marginal(0)
    vals, vecs = eig_hermitian(marg)
    top = float(vals[0])
    if top <= 0.0:
        raise ValueError("marginal Choi matrix is numerically zero")
    cut = rank_tol * top
    mask = vals > cut
    rank = int(np.count_nonzero(mask))
    near = bool(np.any((vals > cut) & (vals < 10.0 * cut)))
    return marg, vals[mask], vecs[:, mask], rank, near


def sem(p: Pid, rank_tol: float = DEFAULT_RANK_TOL) -> SemResult:
    """Compress the device blocks to a measurement family on the marginal support."""
    marg, vals, vecs, rank, near = _support_spectrum(p, rank_tol)
    if near:
        warnings.warn(
            "marginal spectrum close to the rank cutoff; pseudo-inverse may amplify noise",
            RuntimeWarning,
            stacklevel=2,
        )
    # conjugate by the inverse square root directly in support coordinates
    inv_sqrt = vals**-0.5
    proj_blocks = np.einsum(
        "pi,xypq,qj->xyij", vecs.conj() * inv_sqrt[None, :], p.blocks, vecs * inv_sqrt[None, :],
        optimize=True,
    )
    return SemResult(
        pmd=Pmd(proj_blocks),
        support_basis=vecs,
        marginal_choi=marg,
        rank=rank,
        near_cutoff=near,
    )


def canonical_dilation(p: Pid, rank_tol: float = DEFAULT_RANK_TOL) -> CanonicalDilation:
    """Isometric dilation of the marginal channel matched to the support basis.

    With spectral decomposition ``J_marg = sum_i a_i |v_i><v_i|`` the isometry
    sends ``|j>`` to ``sum_i sqrt(a_i) (<j| (x) 1)|v_i> (x) |i>``; tracing out
    the ancilla recovers the marginal Choi matrix exactly.
    """
    _, vals, vecs, rank, _ = _support_spectrum(p, rank_tol)
    din, dout = p.din, p.dout
    v = np.zeros((dout * rank, din), dtype=complex)
    for i in range(rank):
        mat = vecs[:, i].reshape(din, dout)  # composite index (input, output)
        v[np.arange(dout) * rank + i, :] = np.sqrt(vals[i]) * mat.T
    return CanonicalDilation(isometry=v, din=din, dout=dout, rank=rank)


def reconstruct_pid(dilation: CanonicalDilation, s: SemResult) -> Pid:
    """Rebuild the device as ``Tr_ancilla[(1 (x) S^T) V rho V^dagger]`` blockwise."""
    if s.rank != dilation.rank:
        raise ValueError("dilation and measurement family have different ranks")
    din, dout, rank = dilation.din, dilation.dout, dilation.rank
    w = dilation.isometry.T.reshape(din, dout, rank)  # w[j, a, u] = V[(a,u), j]
    blocks = np.einsum(
        "xyus,iau,jbs->xyiajb", s.pmd.effects, w, w.conj(), optimize=True
    ).reshape(s.pmd.n_programs, s.pmd.n_outcomes, din * dout, din * dout)
    return Pid(din, dout, blocks)


def sem_monotone_value(p: Pid, opts: SolveOptions = SolveOptions()) -> float:
    """Incompatibility robustness of the compressed measurement family."""
    return roi_pmd(sem(p).pmd, opts).r
