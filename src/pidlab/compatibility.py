"""Simplicity membership and robustness of incompatibility.

A device is *simple* when its block family is a classical post-processing of
a single mother instrument.  Membership and the robustness measure both
reduce to semidefinite programs after refining the classical post-processing
into deterministic response functions (every conditional distribution is a
mixture of such responses, so the refinement is lossless).

The robustness primal, over response-indexed instrument blocks ``eta`` and a
scale ``t``, is

    minimize  t - 1
    s.t.      sum_{f : f(x0) = x1} eta_f  >=  J_{x1|x0}        (all x0, x1)
              Tr_out[ sum_f eta_f ]  =  t * identity,          eta_f >= 0,

and its conic dual, reported in the normalization used by the witness
constructions, is

    maximize  (1 / (din * n_programs)) * sum <alpha_{x1|x0}, J_{x1|x0}> - 1
    s.t.      alpha_{x1|x0} >= 0,
              sum_{x0} Tr[beta_{x0}] = din * n_programs,
              sum_{x0} (beta_{x0} (x) 1 - alpha_{f(x0)|x0}) >= 0  for all f.

Strong duality holds (both programs admit strictly feasible points), so the
two values agree and either side certifies the other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .devices import Instrument, Pid, Pmd, Povm, pid_from_pmd
from .linalg import ChoiMatrix, max_abs, min_eig, partial_trace
from .sdp import ComplexSdpBuilder, SolveOptions, hermitian_basis

__all__ = [
    "DeterministicStrategy",
    "RoiCertificate",
    "SimplicityCertificate",
    "build_incoherent_extension",
    "enumerate_strategies",
    "is_compatible_pmd",
    "is_simple_pid",
    "readout_pmd",
    "roi",
    "roi_dual",
    "roi_pmd",
    "roi_primal",
    "verify_roi_certificate",
    "witness_value",
]

STRATEGY_CAP = 4096
SIMPLE_TOL = 1e-6
CERT_TOL = 1e-7
ROI_OPTS = SolveOptions(feas_tol=1e-8, gap_tol=1e-9)


class DeterministicStrategy(NamedTuple):
    """Response function program -> outcome, with its lexicographic index."""

    mapping: tuple[int, ...]
    index: int


def enumerate_strategies(n_programs: int, n_outcomes: int) -> tuple[DeterministicStrategy, ...]:
    total = n_outcomes**n_programs
    if total > STRATEGY_CAP:
        raise ValueError(
            f"{n_outcomes}^{n_programs} = {total} response functions exceed the "
            f"supported cap of {STRATEGY_CAP}"
        )
    return tuple(
        DeterministicStrategy(mapping=m, index=i)
        for i, m in enumerate(itertools.product(range(n_outcomes), repeat=n_programs))
    )


@dataclass(frozen=True)
class SimplicityCertificate:
    """Mother instrument indexed by response functions reproducing the device."""

    strategies: tuple[DeterministicStrategy, ...]
    mother: Instrument
    matching_defect: float
    tp_defect: float

    def ok(self, tol: float = CERT_TOL) -> bool:
        return self.matching_defect <= tol and self.tp_defect <= tol


@dataclass(frozen=True)
class RoiCertificate:
    """Primal/dual data for the robustness program.

    ``alpha``/``beta`` follow the dual normalization above; ``noise`` is the
    optimal admixed device (when the robustness is positive) and
    ``simple_mix`` the simple device the mixture lands on.
    """

    r: float
    gap: float
    noise: Pid | None = None
    simple_mix: Pid | None = None
    simplicity: SimplicityCertificate | None = None
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    dual_r: float | None = None
    din: int = 0
    dout: int = 0


def _traceless_basis(n: int) -> list[np.ndarray]:
    """Orthogonal Hermitian functionals vanishing on multiples of the identity."""
    out = []
    for k in range(1, n):
        e = np.zeros((n, n), dtype=complex)
        e[0, 0] = 1.0
        e[k, k] = -1.0
        out.append(e / np.sqrt(2.0))
    s = 1.0 / np.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = s
            e[l, k] = s
            out.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[k, l] = -1j * s
            f[l, k] = 1j * s
            out.append(f)
    return out


def _unit_first_diag_basis(n: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis whose first element is the normalized identity."""
    basis = [np.eye(n, dtype=complex) / np.sqrt(n)]
    # Gram-Schmidt over diagonal units, deterministic order
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        for b in basis:
            e = e - np.sum(b.conj() * e) * b
        nrm = np.sqrt(np.sum(e.conj() * e).real)
        if nrm > 1e-12:
            basis.append(e / nrm)
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


def roi_primal(p: Pid, opts: SolveOptions | None = None) -> RoiCertificate:
    """Robustness via the primal program; the dual certificate is read off the multipliers."""
    strategies = enumerate_strategies(p.n_programs, p.n_outcomes)
    d = p.block_dim
    din = p.din
    builder = ComplexSdpBuilder()
    for f in strategies:
        builder.add_block(f"eta{f.index}", d)
    for x0 in range(p.n_programs):
        for x1 in range(p.n_outcomes):
            builder.add_block(f"slack{x0}_{x1}", d)
    builder.set_objective(
        {f"eta{f.index}": np.eye(d, dtype=complex) / din for f in strategies},
        constant=-1.0,
    )
    basis_d = hermitian_basis(d)
    for x0 in range(p.n_programs):
        for x1 in range(p.n_outcomes):
            covering = [f for f in strategies if f.mapping[x0] == x1]
            for h in basis_d:
                row = {f"eta{f.index}": h for f in covering}
                row[f"slack{x0}_{x1}"] = -h
                builder.add_constraint(
                    row, float(np.real(np.sum(h.conj() * p.blocks[x0, x1])))
                )
    if din > 1:
        eye_out = np.eye(p.dout, dtype=complex)
        for h in _traceless_basis(din):
            hi = np.kron(h, eye_out)
            builder.add_constraint({f"eta{f.index}": hi for f in strategies}, 0.0)
    res = builder.solve(opts or ROI_OPTS).require_optimal("robustness primal")

    eta = np.stack([res.blocks[f"eta{f.index}"] for f in strategies])
    t = float(np.real(eta.sum(axis=0).trace())) / din
    r = max(t - 1.0, -1e-8)
    omega = np.zeros_like(p.blocks)
    for f in strategies:
        for x0 in range(p.n_programs):
            omega[x0, f.mapping[x0]] += eta[f.index]
    simple_mix = Pid(p.din, p.dout, omega / t)
    mother = Instrument(
        tuple(ChoiMatrix(p.din, p.dout, eta[f.index] / t) for f in strategies)
    )
    cert_simplicity = _simplicity_certificate(simple_mix, strategies, mother)
    noise = None
    if r > 1e-8:
        noise = Pid(p.din, p.dout, (omega - p.blocks) / r)

    # dual certificate from the multipliers: the slack blocks' reduced costs are
    # the block functionals, and any response block exposes beta (x) 1.
    alpha_raw = np.stack(
        [
            np.stack(
                [res.dual_slacks[f"slack{x0}_{x1}"] for x1 in range(p.n_outcomes)]
            )
            for x0 in range(p.n_programs)
        ]
    )
    f0 = strategies[0]
    t0 = res.dual_slacks[f"eta{f0.index}"] + sum(
        alpha_raw[x0, f0.mapping[x0]] for x0 in range(p.n_programs)
    )
    b_op = partial_trace(t0, (din, p.dout), keep=(0,)) / p.dout
    scale = din * p.n_programs
    alpha = scale * alpha_raw
    beta = np.stack([din * b_op for _ in range(p.n_programs)])
    dual_r = float(
        np.real(np.einsum("xypq,xyqp->", alpha, p.blocks)) / scale - 1.0
    )
    return RoiCertificate(
        r=r,
        gap=res.gap,
        noise=noise,
        simple_mix=simple_mix,
        simplicity=cert_simplicity,
        alpha=alpha,
        beta=beta,
        dual_r=dual_r,
        din=p.din,
        dout=p.dout,
    )


def roi_dual(p: Pid, opts: SolveOptions | None = None) -> RoiCertificate:
    """Robustness via the explicit dual program (independent of :func:`roi_primal`)."""
    strategies = enumerate_strategies(p.n_programs, p.n_outcomes)
    d = p.block_dim
    din, dout = p.din, p.dout
    builder = ComplexSdpBuilder()
    for x0 in range(p.n_programs):
        for x1 in range(p.n_outcomes):
            builder.add_block(f"alpha{x0}_{x1}", d)
    for f in strategies:
        builder.add_block(f"w{f.index}", d)
    builder.set_objective(
        {
            f"alpha{x0}_{x1}": p.blocks[x0, x1] / (din * p.n_programs)
            for x0 in range(p.n_programs)
            for x1 in range(p.n_outcomes)
        },
        constant=-1.0,
        sense="max",
    )
    basis_d = hermitian_basis(d)
    f0 = strategies[0]

    def _alpha_counts(f: DeterministicStrategy) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for x0, x1 in enumerate(f.mapping):
            counts[(x0, x1)] = counts.get((x0, x1), 0) + 1
        return counts

    counts0 = _alpha_counts(f0)
    for f in strategies[1:]:
        counts = _alpha_counts(f)
        for h in basis_d:
            row: dict[str, np.ndarray] = {f"w{f.index}": h, f"w{f0.index}": -h}
            for (x0, x1), c in counts.items():
                key = f"alpha{x0}_{x1}"
                row[key] = row.get(key, 0) + c * h
            for (x0, x1), c in counts0.items():
                key = f"alpha{x0}_{x1}"
                row[key] = row.get(key, 0) - c * h
            row = {k: v for k, v in row.items() if max_abs(np.asarray(v, dtype=complex)) > 0}
            if row:
                builder.add_constraint(row, 0.0)
    # T := W_f0 + sum_x0 alpha_{f0(x0)|x0} must equal (something) (x) identity
    f_basis = hermitian_basis(din)
    g_basis = _unit_first_diag_basis(dout)
    for fj in f_basis:
        for gk in g_basis[1:]:
            h = np.kron(fj, gk)
            row = {f"w{f0.index}": h}
            for (x0, x1), c in counts0.items():
                key = f"alpha{x0}_{x1}"
                row[key] = row.get(key, 0) + c * h
            builder.add_constraint(row, 0.0)
    eye_d = np.eye(d, dtype=complex)
    row = {f"w{f0.index}": eye_d}
    for (x0, x1), c in counts0.items():
        key = f"alpha{x0}_{x1}"
        row[key] = row.get(key, 0) + c * eye_d
    builder.add_constraint(row, float(din * p.n_programs * dout))

    res = builder.solve(opts or ROI_OPTS).require_optimal("robustness dual")
    alpha = np.stack(
        [
            np.stack([res.blocks[f"alpha{x0}_{x1}"] for x1 in range(p.n_outcomes)])
            for x0 in range(p.n_programs)
        ]
    )
    t0 = res.blocks[f"w{f0.index}"] + sum(
        alpha[x0, f0.mapping[x0]] for x0 in range(p.n_programs)
    )
    b_op = partial_trace(t0, (din, dout), keep=(0,)) / dout
    beta = np.stack([b_op / p.n_programs for _ in range(p.n_programs)])
    return RoiCertificate(
        r=res.value, gap=res.gap, alpha=alpha, beta=beta, dual_r=res.value,
        din=p.din, dout=p.dout,
    )


def roi(p: Pid, opts: SolveOptions | None = None, agree_tol: float = 1e-6) -> RoiCertificate:
    """Primal and dual solves combined, with an agreement check."""
    prim = roi_primal(p, opts)
    dual = roi_dual(p, opts)
    if abs(prim.r - dual.r) > agree_tol:
        raise ArithmeticError(
            f"robustness primal/dual disagree: {prim.r} vs {dual.r}"
        )
    return RoiCertificate(
        r=prim.r,
        gap=max(prim.gap, dual.gap),
        noise=prim.noise,
        simple_mix=prim.simple_mix,
        simplicity=prim.simplicity,
        alpha=dual.alpha,
        beta=dual.beta,
        dual_r=dual.r,
        din=p.din,
        dout=p.dout,
    )


def _simplicity_certificate(
    target: Pid,
    strategies: tuple[DeterministicStrategy, ...],
    mother: Instrument,
) -> SimplicityCertificate:
    recon = np.zeros_like(target.blocks)
    for f in strategies:
        for x0 in range(target.n_programs):
            recon[x0, f.mapping[x0]] += mother.branches[f.index].mat
    matching = max_abs(recon - target.blocks)
    return SimplicityCertificate(
        strategies=strategies,
        mother=mother,
        matching_defect=matching,
        tp_defect=mother.tp_defect(),
    )


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    r: float
    certificate: SimplicityCertificate | None
    witness: RoiCertificate | None

    def __bool__(self) -> bool:
        return self.simple


def is_simple_pid(p: Pid, tol: float = SIMPLE_TOL, opts: SolveOptions | None = None) -> SimplicityVerdict:
    """Membership decision with a mother-instrument certificate or a dual witness.

    The decision runs the robustness program: a vanishing optimum exhibits a
    feasible mother instrument directly (the response blocks at scale one),
    and a positive optimum comes with separating functionals ``(alpha, beta)``
    whose value on every simple device is nonpositive.
    """
    cert = roi_primal(p, opts)
    if cert.r <= tol:
        # rebuild the certificate against the device itself rather than the mix
        assert cert.simplicity is not None
        refreshed = _simplicity_certificate(
            p, cert.simplicity.strategies, cert.simplicity.mother
        )
        return SimplicityVerdict(simple=True, r=cert.r, certificate=refreshed, witness=None)
    return SimplicityVerdict(simple=False, r=cert.r, certificate=None, witness=cert)


def witness_value(alpha: np.ndarray, p: Pid) -> float:
    """Evaluate a dual functional on a device: positive values refute simplicity."""
    scale = p.din * p.n_programs
    return float(np.real(np.einsum("xypq,xyqp->", alpha, p.blocks)) / scale - 1.0)


def verify_roi_certificate(
    p: Pid, cert: RoiCertificate, tol: float = CERT_TOL
) -> dict[str, float]:
    """Re-check every certificate identity without trusting the solver.

    Returns the residuals; all must be below the tolerance for a clean bill.
    """
    out: dict[str, float] = {}
    if cert.simple_mix is not None:
        mix = p.blocks + cert.r * (cert.noise.blocks if cert.noise is not None else 0.0)
        out["mixing_identity"] = max_abs(mix / (1.0 + cert.r) - cert.simple_mix.blocks)
        assert cert.simplicity is not None
        out["simple_matching"] = cert.simplicity.matching_defect
        out["simple_tp"] = cert.simplicity.tp_defect
        # The noise must be a device: checked on r * noise = (1+r) simple_mix - J,
        # since dividing by r would magnify the solver's error by 1/r.
        scaled_noise = (1.0 + cert.r) * cert.simple_mix.blocks - p.blocks
        out["noise_psd"] = max(
            0.0,
            max(
                -min_eig(scaled_noise[x0, x1])
                for x0 in range(p.n_programs)
                for x1 in range(p.n_outcomes)
            ),
        )
        out["noise_tp"] = max(
            max_abs(
                partial_trace(scaled_noise[x0].sum(axis=0), (p.din, p.dout), keep=(0,))
                - cert.r * np.eye(p.din)
            )
            for x0 in range(p.n_programs)
        )
    if cert.alpha is not None:
        out["alpha_psd"] = max(
            0.0,
            max(
                -min_eig(cert.alpha[x0, x1])
                for x0 in range(p.n_programs)
                for x1 in range(p.n_outcomes)
            ),
        )
        assert cert.beta is not None
        out["beta_trace"] = abs(
            sum(float(np.real(np.trace(cert.beta[x0]))) for x0 in range(p.n_programs))
            - p.din * p.n_programs
        )
        eye_out = np.eye(p.dout)
        worst = 0.0
        for f in enumerate_strategies(p.n_programs, p.n_outcomes):
            acc = sum(
                np.kron(cert.beta[x0], eye_out) - cert.alpha[x0, f.mapping[x0]]
                for x0 in range(p.n_programs)
            )
            worst = max(worst, max(0.0, -min_eig(acc)))
        out["dual_family_psd"] = worst
        if cert.dual_r is not None:
            out["dual_value_consistency"] = abs(witness_value(cert.alpha, p) - cert.dual_r)
    return out


def build_incoherent_extension(cert: SimplicityCertificate) -> ChoiMatrix:
    """Broadcast channel ``sum_f branch_f (x) |f><f|`` with a classical environment."""
    mother = cert.mother
    n_env = mother.n_branches
    din, dout = mother.din, mother.dout
    t = np.zeros((din, dout, n_env, din, dout, n_env), dtype=complex)
    for f in cert.strategies:
        bt = mother.branches[f.index].mat.reshape(din, dout, din, dout)
        t[:, :, f.index, :, :, f.index] = bt.transpose(0, 1, 2, 3)
    mat = t.reshape(din * dout * n_env, din * dout * n_env)
    return ChoiMatrix(din, dout * n_env, mat)


def readout_pmd(
    strategies: tuple[DeterministicStrategy, ...], n_programs: int, n_outcomes: int
) -> Pmd:
    """Environment measurement reading the response register and applying it."""
    n_env = len(strategies)
    effects = np.zeros((n_programs, n_outcomes, n_env, n_env), dtype=complex)
    for f in strategies:
        for x0 in range(n_programs):
            effects[x0, f.mapping[x0], f.index, f.index] = 1.0
    return Pmd(effects)


# ---------------------------------------------------------------------------
# Measurement-device specialization (trivial quantum output)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PmdCompatibilityVerdict:
    compatible: bool
    r: float
    parent: Povm | None
    post_processing: np.ndarray | None  # table[x1, x0, g]
    witness: RoiCertificate | None

    def __bool__(self) -> bool:
        return self.compatible


def is_compatible_pmd(
    m: Pmd, tol: float = SIMPLE_TOL, opts: SolveOptions | None = None
) -> PmdCompatibilityVerdict:
    """Joint-measurability decision via the trivial-output device embedding."""
    verdict = is_simple_pid(pid_from_pmd(m), tol=tol, opts=opts)
    if verdict.simple:
        cert = verdict.certificate
        assert cert is not None
        effects = np.stack([b.mat.T for b in cert.mother.branches])
        parent = Povm(effects)
        table = np.zeros((m.n_outcomes, m.n_programs, len(cert.strategies)))
        for f in cert.strategies:
            for x0 in range(m.n_programs):
                table[f.mapping[x0], x0, f.index] = 1.0
        return PmdCompatibilityVerdict(
            compatible=True, r=verdict.r, parent=parent, post_processing=table, witness=None
        )
    return PmdCompatibilityVerdict(
        compatible=False, r=verdict.r, parent=None, post_processing=None,
        witness=verdict.witness,
    )


def roi_pmd(m: Pmd, opts: SolveOptions | None = None) -> RoiCertificate:
    """Robustness of the measurement family (primal/dual agreement included)."""
    return roi(pid_from_pmd(m), opts)
