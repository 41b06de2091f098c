"""Canonical devices used in benchmarks and examples."""

from __future__ import annotations

import numpy as np

from .devices import Pid, Pmd, Povm, steer
from .linalg import choi_of_prepare, phi_plus

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "maximally_entangled_assemblage",
    "mub_pair_pmd",
    "pauli_tetrahedron_povm",
    "projective_pmd",
    "xz_pmd",
    "xyz_pmd",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def projective_pmd(observables: list[np.ndarray]) -> Pmd:
    """Two-outcome projective measurements ``(1 +/- O)/2`` per program."""
    effects = []
    for o in observables:
        d = o.shape[0]
        effects.append([(np.eye(d) + o) / 2, (np.eye(d) - o) / 2])
    return Pmd(np.array(effects))


def xz_pmd() -> Pmd:
    return projective_pmd([PAULI_X, PAULI_Z])


def xyz_pmd() -> Pmd:
    return projective_pmd([PAULI_X, PAULI_Y, PAULI_Z])


def mub_pair_pmd(d: int) -> Pmd:
    """Rank-one measurements in the computational basis and the Fourier basis of dimension ``d``.

    The two bases are mutually unbiased; the assemblage
    ``maximally_entangled_assemblage(mub_pair_pmd(d))`` has robustness
    ``(sqrt(d) - 1) / (sqrt(d) + 1)``.
    """
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    bases = (np.eye(d, dtype=complex), fourier)
    return Pmd(np.array([[np.outer(b[:, k], b[:, k].conj()) for k in range(d)] for b in bases]))


def maximally_entangled_assemblage(m: Pmd) -> Pid:
    """Assemblage left on one half of ``phi_+ / d`` when the other half is measured.

    The blocks are ``M^T / d`` on the retained wing; the result is a device
    with trivial quantum input.
    """
    d = m.dim
    source = choi_of_prepare(phi_plus(d) / d)  # 1 -> A1 (x) E
    return steer(source, m)


def pauli_tetrahedron_povm() -> Povm:
    """Informationally complete qubit POVM from tetrahedron Bloch directions."""
    dirs = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    ) / np.sqrt(3.0)
    paulis = [PAULI_X, PAULI_Y, PAULI_Z]
    effects = [
        (np.eye(2) + sum(n[i] * paulis[i] for i in range(3))) / 4 for n in dirs
    ]
    return Povm(np.array(effects))
