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

Strong duality holds (both programs admit strictly feasible points), so one
primal solve gives both sides: :func:`roi_primal` reads ``alpha``/``beta`` off
the multipliers and :func:`roi` re-checks both before accepting the value;
:func:`roi_dual` solves the dual itself, as an independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .devices import Instrument, Pid, Pmd, Povm, _pairing, pid_from_pmd
from .linalg import ChoiMatrix, max_abs, partial_trace, psd_defect, tp_defect
from .sdp import ComplexSdpBuilder, SolveOptions, hermitian_basis, kron_stack, traceless_basis

__all__ = [
    "DeterministicStrategy",
    "RoiCertificate",
    "SimplicityCertificate",
    "build_incoherent_extension",
    "enumerate_strategies",
    "gather_responses",
    "is_compatible_pmd",
    "is_simple_pid",
    "readout_pmd",
    "response_maps",
    "roi",
    "roi_dual",
    "roi_pmd",
    "roi_primal",
    "scatter_responses",
    "simplicity_residuals",
    "verify_roi_certificate",
    "witness_value",
]

STRATEGY_CAP = 4096
SIMPLE_TOL = 1e-6
CERT_TOL = 1e-7
ROI_AGREE_TOL = 1e-6  # |r - dual_r| accepted by roi()


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


def response_maps(strategies: tuple[DeterministicStrategy, ...]) -> np.ndarray:
    """``(n_f, n_programs)`` integer table whose row ``f`` is ``strategies[f].mapping``."""
    return np.array([f.mapping for f in strategies], dtype=np.intp)


def gather_responses(maps: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``out[f] = sum_x0 blocks[x0, maps[f, x0]]`` for every response ``f``, in ``x0`` order."""
    return blocks[np.arange(maps.shape[1]), maps].sum(axis=1)


def scatter_responses(maps: np.ndarray, per_f: np.ndarray, n_outcomes: int) -> np.ndarray:
    """``out[x0, x1] = sum_{f : maps[f, x0] = x1} per_f[f]``, accumulated in ``f`` order."""
    out = np.zeros((maps.shape[1], n_outcomes, *per_f.shape[1:]), dtype=per_f.dtype)
    np.add.at(out, (np.arange(maps.shape[1]), maps), per_f[:, None])
    return out


@dataclass(frozen=True)
class SimplicityCertificate:
    """Mother instrument indexed by response functions; :func:`simplicity_residuals` checks it."""

    strategies: tuple[DeterministicStrategy, ...]
    mother: Instrument


def simplicity_residuals(target: Pid, certificate: SimplicityCertificate) -> dict[str, float]:
    """How far the mother instrument is from reproducing ``target`` and from being CP and TP."""
    mother = certificate.mother
    branches = np.stack([b.mat for b in mother.branches])
    recon = scatter_responses(response_maps(certificate.strategies), branches, target.n_outcomes)
    defects = mother.defects()
    return {
        "simple_matching": max_abs(recon - target.blocks),
        "simple_cp": defects["cp_defect"],
        "simple_tp": defects["tp_defect"],
    }


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


def _primal_family(builder: ComplexSdpBuilder, maps: np.ndarray, p: Pid):
    """Response blocks ``eta_f``, each ``J_{x1|x0}`` covered up to a slack block and
    ``Tr_out sum_f eta_f`` proportional to 1; returns the ``eta`` and ``(x0, x1)`` slack handles."""
    etas = builder.add_blocks(len(maps))
    slacks = builder.add_blocks(p.n_programs * p.n_outcomes).reshape(p.n_programs, p.n_outcomes)
    # one statement per (x0, x1): the covering blocks minus the slack equal J_{x1|x0}
    basis = hermitian_basis(p.block_dim)
    neg_basis = -basis
    for x0, x1 in np.ndindex(p.n_programs, p.n_outcomes):
        row = dict.fromkeys(etas[maps[:, x0] == x1], basis)
        row[slacks[x0, x1]] = neg_basis
        builder.add_constraint(row, np.einsum("kpq,pq->k", basis.conj(), p.blocks[x0, x1]).real)
    traceless = kron_stack(traceless_basis(p.din), np.eye(p.dout)[None])
    builder.add_constraint(dict.fromkeys(etas, traceless), np.zeros(len(traceless)))
    return etas, slacks


def _dual_family(builder: ComplexSdpBuilder, maps: np.ndarray, a: np.ndarray, din: int, dout: int):
    """Blocks ``W_f`` with ``W_f + sum_x0 A_{f(x0)|x0} = Y (x) 1`` for every ``f``, the ``A`` being
    the ``(n_programs, n_outcomes)`` handles ``a``; returns the ``W`` handles."""
    ws = builder.add_blocks(len(maps))
    # the sum is the same for every f: rows W_f - W_f0 plus the A's where f and f0 differ
    basis = hermitian_basis(din * dout)
    neg_basis = -basis
    for f in range(1, len(maps)):
        row = {ws[f]: basis, ws[0]: neg_basis}
        for x0 in np.flatnonzero(maps[f] != maps[0]):
            row[a[x0, maps[f, x0]]] = basis
            row[a[x0, maps[0, x0]]] = neg_basis
        builder.add_constraint(row, np.zeros(len(basis)))
    # and the sum at f0 has no part outside (something) (x) identity
    t_basis = kron_stack(hermitian_basis(din), traceless_basis(dout))
    row = {**dict.fromkeys(a[np.arange(len(a)), maps[0]], t_basis), ws[0]: t_basis}
    builder.add_constraint(row, np.zeros(len(t_basis)))
    return ws


def _family_beta(w0: np.ndarray, a: np.ndarray, maps: np.ndarray, din: int, dout: int):
    """``Y`` read off ``W_f0 + sum_x0 A_{f0(x0)|x0} = Y (x) 1``."""
    t0 = w0 + gather_responses(maps[:1], a)[0]
    return partial_trace(t0, (din, dout), keep=(0,)) / dout


def roi_primal(p: Pid, opts: SolveOptions = SolveOptions()) -> RoiCertificate:
    """Robustness via the primal program; the dual certificate is read off the multipliers."""
    strategies = enumerate_strategies(p.n_programs, p.n_outcomes)
    maps = response_maps(strategies)
    din = p.din
    builder = ComplexSdpBuilder(p.block_dim)
    etas, slacks = _primal_family(builder, maps, p)
    builder.set_objective(dict.fromkeys(etas, np.eye(p.block_dim, dtype=complex) / din))
    res = builder.solve(opts).require_optimal("robustness primal")

    eta = res.primal_blocks[etas]
    t = float(np.real(eta.sum(axis=0).trace())) / din
    r = max(t - 1.0, -1e-8)
    omega = scatter_responses(maps, eta, p.n_outcomes)
    simple_mix = Pid(p.din, p.dout, omega / t)
    mother = Instrument(tuple(ChoiMatrix(p.din, p.dout, e / t) for e in eta))
    noise = Pid(p.din, p.dout, (omega - p.blocks) / r) if r > 1e-8 else None

    # dual certificate from the multipliers: the slack blocks' reduced costs are
    # the block functionals, and any response block exposes beta (x) 1.
    alpha_raw = res.dual_slacks[slacks]
    b_op = _family_beta(res.dual_slacks[etas[0]], alpha_raw, maps, din, p.dout)
    alpha = din * p.n_programs * alpha_raw
    beta = np.stack([din * b_op for _ in range(p.n_programs)])
    return RoiCertificate(
        r=r, gap=res.gap, noise=noise, simple_mix=simple_mix,
        simplicity=SimplicityCertificate(strategies, mother), alpha=alpha, beta=beta,
        dual_r=witness_value(alpha, p), din=p.din, dout=p.dout,
    )


def roi_dual(p: Pid, opts: SolveOptions = SolveOptions()) -> RoiCertificate:
    """Robustness via the explicit dual program (independent of :func:`roi_primal`)."""
    maps = response_maps(enumerate_strategies(p.n_programs, p.n_outcomes))
    din, dout, d = p.din, p.dout, p.block_dim
    builder = ComplexSdpBuilder(d)
    alphas = builder.add_blocks(p.n_programs * p.n_outcomes).reshape(p.n_programs, p.n_outcomes)
    scores = p.blocks.reshape(-1, d, d) / (din * p.n_programs)
    builder.set_objective(dict(zip(alphas.ravel(), scores)), sense="max")
    ws = _dual_family(builder, maps, alphas, din, dout)
    eye_d = np.eye(d, dtype=complex)[None]  # and the trace at f0 is fixed
    row = {**dict.fromkeys(alphas[np.arange(p.n_programs), maps[0]], eye_d), ws[0]: eye_d}
    builder.add_constraint(row, [float(din * p.n_programs * dout)])

    res = builder.solve(opts).require_optimal("robustness dual")
    alpha = res.primal_blocks[alphas]
    b_op = _family_beta(res.primal_blocks[ws[0]], alpha, maps, din, dout)
    beta = np.stack([b_op / p.n_programs for _ in range(p.n_programs)])
    r = res.primal_value - 1.0
    return RoiCertificate(r=r, gap=res.gap, alpha=alpha, beta=beta, dual_r=r, din=din, dout=dout)


def roi(p: Pid, opts: SolveOptions = SolveOptions()) -> RoiCertificate:
    """One primal solve, its certificate re-checked on both sides by :func:`verify_roi_certificate`.

    Raises ``ArithmeticError`` on a residual above ``CERT_TOL`` or ``|r - dual_r| > ROI_AGREE_TOL``.
    """
    cert = roi_primal(p, opts)
    bad = {k: v for k, v in verify_roi_certificate(p, cert).items() if v > CERT_TOL}
    if bad or abs(cert.r - cert.dual_r) > ROI_AGREE_TOL:
        raise ArithmeticError(
            f"robustness certificate rejected: r={cert.r}, dual r={cert.dual_r}, residuals {bad}"
        )
    return cert


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    r: float
    certificate: SimplicityCertificate | None
    witness: RoiCertificate | None

    def __bool__(self) -> bool:
        return self.simple


def is_simple_pid(p: Pid, opts: SolveOptions = SolveOptions()) -> SimplicityVerdict:
    """Membership decision with a mother-instrument certificate or a dual witness.

    The decision is :func:`roi` (so ``ArithmeticError`` on a rejected
    certificate) read against ``SIMPLE_TOL``: a vanishing optimum exhibits a
    mother instrument for ``simple_mix``, within ``r`` of the device, and a
    positive optimum comes with separating functionals ``(alpha, beta)``
    whose value on every simple device is nonpositive.
    """
    cert = roi(p, opts)
    if cert.r <= SIMPLE_TOL:
        return SimplicityVerdict(simple=True, r=cert.r, certificate=cert.simplicity, witness=None)
    return SimplicityVerdict(simple=False, r=cert.r, certificate=None, witness=cert)


def witness_value(alpha: np.ndarray, p: Pid) -> float:
    """Evaluate a dual functional on a device: positive values refute simplicity."""
    return _pairing(alpha, p.din, p) / (p.din * p.n_programs) - 1.0


def verify_roi_certificate(p: Pid, cert: RoiCertificate) -> dict[str, float]:
    """Re-check every certificate identity without trusting the solver.

    Returns the residuals; all must be below ``CERT_TOL`` for a clean bill.
    Raises ``ValueError`` when ``simple_mix`` comes without ``simplicity``,
    or ``alpha`` without ``beta``.
    """
    out: dict[str, float] = {}
    if cert.simple_mix is not None:
        mix = p.blocks + cert.r * (cert.noise.blocks if cert.noise is not None else 0.0)
        out["mixing_identity"] = max_abs(mix / (1.0 + cert.r) - cert.simple_mix.blocks)
        if cert.simplicity is None:
            raise ValueError("certificate has simple_mix but no simplicity")
        out.update(simplicity_residuals(cert.simple_mix, cert.simplicity))
        # The noise must be a device: checked on r * noise = (1+r) simple_mix - J,
        # since dividing by r would magnify the solver's error by 1/r.
        scaled_noise = (1.0 + cert.r) * cert.simple_mix.blocks - p.blocks
        out["noise_psd"] = psd_defect(scaled_noise)
        out["noise_tp"] = max(
            tp_defect(program.sum(axis=0), p.din, p.dout, trace=cert.r)
            for program in scaled_noise
        )
    if cert.alpha is not None:
        out["alpha_psd"] = psd_defect(cert.alpha)
        if cert.beta is None:
            raise ValueError("certificate has alpha but no beta")
        out["beta_trace"] = abs(
            sum(float(np.real(np.trace(cert.beta[x0]))) for x0 in range(p.n_programs))
            - p.din * p.n_programs
        )
        # sum_x0 (beta_x0 (x) 1 - alpha_{f(x0)|x0}) for every f, one batched eigvalsh
        kron_beta = kron_stack(cert.beta, np.eye(p.dout)[None])
        maps = response_maps(enumerate_strategies(p.n_programs, p.n_outcomes))
        acc = gather_responses(maps, kron_beta[:, None] - cert.alpha)
        out["dual_family_psd"] = psd_defect(acc)
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
        t[:, :, f.index, :, :, f.index] = bt
    mat = t.reshape(din * dout * n_env, din * dout * n_env)
    return ChoiMatrix(din, dout * n_env, mat)


def readout_pmd(
    strategies: tuple[DeterministicStrategy, ...], n_programs: int, n_outcomes: int
) -> Pmd:
    """Environment measurement reading the response register and applying it."""
    n_env = len(strategies)
    effects = np.zeros((n_programs, n_outcomes, n_env, n_env), dtype=complex)
    maps = response_maps(strategies)
    env = np.arange(n_env)
    # effects[x0, x1] = sum_{f : f(x0) = x1} |f><f|
    effects[:, :, env, env] = maps.T[:, None] == np.arange(n_outcomes)[:, None]
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


def is_compatible_pmd(m: Pmd, opts: SolveOptions = SolveOptions()) -> PmdCompatibilityVerdict:
    """Joint-measurability decision via the trivial-output device embedding."""
    verdict = is_simple_pid(pid_from_pmd(m), opts=opts)
    if verdict.simple:
        cert = verdict.certificate
        assert cert is not None
        effects = np.stack([b.mat.T for b in cert.mother.branches])
        parent = Povm(effects)
        maps = response_maps(cert.strategies)
        table = (maps.T == np.arange(m.n_outcomes)[:, None, None]).astype(float)
        return PmdCompatibilityVerdict(
            compatible=True, r=verdict.r, parent=parent, post_processing=table, witness=None
        )
    return PmdCompatibilityVerdict(
        compatible=False, r=verdict.r, parent=None, post_processing=None,
        witness=verdict.witness,
    )


def roi_pmd(m: Pmd, opts: SolveOptions = SolveOptions()) -> RoiCertificate:
    """Robustness of the measurement family through :func:`roi` (one re-checked primal solve)."""
    return roi(pid_from_pmd(m), opts)
