"""Guessing-game programs: device scores, simple-device benchmarks, and witnesses.

Two game kinds are provided, both defined in :mod:`pidlab.devices`.  In the
entangled-referee game (:class:`GameSpec`) the referee keeps one half of a
maximally entangled pair, receives a system back, and measures both with a
bipartite POVM indexed ``(m, n)``; the player, holding a non-signaling
device, later learns ``m`` and guesses ``n``.  In the post-information game
(:class:`PiGameSpec`) the referee instead sends a state drawn from an
ensemble indexed ``(m, n, l)`` and measures the returned system with a fixed
POVM, and the player must guess ``n`` without disturbing ``l``.

Every program here reads a game only through its score operators
``score[m, n]``: :func:`game_value` pairs them with a device, and the
strongest simple-device score of either kind is one semidefinite program over
deterministic-response instrument blocks, with identical score columns
merged.  Witness games built from robustness dual certificates give players
with a non-simple device a scoring ratio approaching ``1 + robustness`` as
dummy outcomes are appended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compatibility import (
    RoiCertificate,
    enumerate_strategies,
    gather_responses,
    response_maps,
    roi,
    scatter_responses,
)
from .devices import GameSpec, PiGameSpec, Pid, Povm, _pairing, pad_pid_outcomes
from .linalg import hermitize
from .sdp import SolveOptions, best_instrument, best_instruments, hermitian_basis

__all__ = [
    "BoundReport",
    "DualFrame",
    "DualFrameSolver",
    "GameSpec",
    "PiGameSpec",
    "PguessSimpleResult",
    "dummy_count_for_gap",
    "game_value",
    "ic_dual_frame",
    "merge_game_outcomes",
    "pguess_simple",
    "pi_game_value",
    "pi_pguess_simple",
    "verify_robustness_bound",
    "witness_ensemble",
    "witness_game",
]

_MERGE_TOL = 1e-12  # largest entry difference of two score columns merged as one label


def game_value(g: GameSpec | PiGameSpec, strategy: Pid) -> float:
    """Score ``sum Re Tr[S_{m,n} J_{n|m}]`` of a fixed device on the game's score operators."""
    return _pairing(g.score, g.din, strategy)


pi_game_value = game_value


def _merge_groups(score: np.ndarray) -> list[list[int]]:
    """Group outcome labels whose score columns agree across every program.

    A column joins the first group, in creation order, whose first column it
    matches to ``_MERGE_TOL``; each new group claims all its later matches at once.
    """
    n_n = score.shape[1]
    cols = np.moveaxis(score, 1, 0).reshape(n_n, -1)
    unclaimed = np.ones(n_n, dtype=bool)
    groups: list[list[int]] = []
    for n in range(n_n):
        if not unclaimed[n]:
            continue
        diff = np.abs(cols[n + 1 :] - cols[n]).max(axis=1, initial=0.0)
        later = n + 1 + np.flatnonzero(unclaimed[n + 1 :] & (diff <= _MERGE_TOL))
        unclaimed[later] = False
        groups.append([n, *later.tolist()])
    return groups


def merge_game_outcomes(g: GameSpec, labels: list[int]) -> GameSpec:
    """Coarse-grain guess labels: outcomes with equal ``labels`` entries are summed."""
    if len(labels) != g.n_n:
        raise ValueError("one label per outcome required")
    uniq = sorted(set(labels))
    eff = np.zeros(
        (g.n_m, len(uniq), g.effects.shape[2], g.effects.shape[3]), dtype=complex
    )
    for n, lab in enumerate(labels):
        eff[:, uniq.index(lab)] += g.effects[:, n]
    return GameSpec(effects=eff, d_ref=g.d_ref, dout=g.dout)


@dataclass(frozen=True)
class PguessSimpleResult:
    value: float
    strategy: Pid
    gap: float


def _simple_program(g: GameSpec | PiGameSpec) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The representative label of each merged group of ``g``'s outcomes, their response
    maps, and the instrument program whose branch ``f`` scores ``sum_x0 S[x0, f(x0)]``."""
    score = g.score
    reps = [grp[0] for grp in _merge_groups(score)]
    maps = response_maps(enumerate_strategies(g.n_m, len(reps)))
    return reps, maps, gather_responses(maps, score[:, reps])


def _simple_result(g, program, solution) -> PguessSimpleResult:
    """``g``'s result from its ``program``'s ``(value, branches, gap)``, zero off the merged labels."""
    (reps, maps, _), (value, js, gap) = program, solution
    d = g.din * g.dout
    blocks = np.zeros((g.n_m, g.n_n, d, d), dtype=complex)
    blocks[:, reps] = scatter_responses(maps, js, len(reps))
    return PguessSimpleResult(value=value, strategy=Pid(g.din, g.dout, blocks), gap=gap)


def _simple_benchmark(g: GameSpec | PiGameSpec, opts: SolveOptions, what: str):
    """Best score of ``g`` over simple devices: one program, solved by :func:`best_instrument`."""
    program = _simple_program(g)
    return _simple_result(g, program, best_instrument(program[2], g.din, g.dout, opts, what))


def pguess_simple(g: GameSpec, opts: SolveOptions = SolveOptions()) -> PguessSimpleResult:
    """Best winning probability over simple devices, with an attaining strategy.

    Outcome labels with identical score columns are merged before the
    response-function enumeration (a simple device gains nothing from
    distinguishing them), which keeps witness games with many dummy outcomes
    tractable.
    """
    return _simple_benchmark(g, opts, "simple-device benchmark")


def _pguess_simple_batch(
    games: list[GameSpec], opts: SolveOptions = SolveOptions()
) -> list[PguessSimpleResult]:
    """:func:`pguess_simple` of games of one shape, those with one merged label count solved in lockstep."""
    programs = [_simple_program(g) for g in games]
    by_count: dict[int, list[int]] = {}
    for i, (reps, _, _) in enumerate(programs):
        by_count.setdefault(len(reps), []).append(i)
    out: list[PguessSimpleResult] = [None] * len(games)
    for idx in by_count.values():
        g = games[idx[0]]
        batch = [programs[i][2] for i in idx]
        sols = best_instruments(batch, g.din, g.dout, opts, "simple-device benchmark")
        for i, sol in zip(idx, sols):
            out[i] = _simple_result(games[i], programs[i], sol)
    return out


def witness_game(cert: RoiCertificate, n_dummy: int = 64) -> GameSpec:
    """Game built from a robustness dual certificate, padded with dummy outcomes.

    The certificate functionals, scaled by the largest eigenvalue of their
    sum, become the effects for real outcome labels; the remainder of the
    identity is split uniformly over ``n_programs * n_dummy`` dummy labels.
    """
    if cert.alpha is None:
        raise ValueError("certificate carries no dual functionals")
    if n_dummy < 1:
        raise ValueError("need at least one dummy outcome")
    alpha = cert.alpha
    n_m, n_x1 = alpha.shape[0], alpha.shape[1]
    d = alpha.shape[2]
    total = hermitize(alpha.sum(axis=(0, 1)))
    c = max(float(np.linalg.eigvalsh(total)[-1]), 0.0)
    eff = np.zeros((n_m, n_x1 + n_dummy, d, d), dtype=complex)
    if c > 1e-12:
        eff[:, :n_x1] = alpha / c
    remainder = np.eye(d, dtype=complex) - eff[:, :n_x1].sum(axis=(0, 1))
    eff[:, n_x1:] = remainder[None, None, :, :] / (n_m * n_dummy)
    return GameSpec(effects=eff, d_ref=cert.din, dout=cert.dout)


def dummy_count_for_gap(
    c: float, d_ref: int, n_programs: int, n_outcomes: int, eps: float
) -> int:
    """Dummy-outcome count sufficient to bring the benchmark within ``eps``.

    Raises ``ValueError`` unless ``eps`` is positive.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return int(math.ceil(2.0 * c * d_ref * n_programs * n_outcomes / eps))


@dataclass(frozen=True)
class BoundReport:
    roi: float
    schedule: tuple[int, ...]
    ratios: tuple[float, ...]
    lower_bounds: tuple[float, ...]
    benchmarks: tuple[float, ...]
    cap_violations: int

    def final_gap(self) -> float:
        """Relative distance of the last ratio from ``1 + roi``."""
        return abs((1.0 + self.roi) - self.ratios[-1]) / (1.0 + self.roi)


def verify_robustness_bound(
    p: Pid,
    schedule: tuple[int, ...] = (8, 64, 512),
    opts: SolveOptions = SolveOptions(),
) -> BoundReport:
    """Witness-game ratio schedule converging upward to ``1 + robustness``.

    For each dummy count the achieved score is the best of (i) the device
    itself embedded with dummy outcomes ignored, and (ii) the strongest simple
    strategy, which any device can reach; both are genuinely attainable, so
    every ratio is a certified lower bound on the advantage and can never
    exceed ``1 + roi`` beyond numerical tolerance.  The schedule's simple
    benchmarks are solved in lockstep, one batch per merged label count.
    """
    cert = roi(p, opts)
    games = [witness_game(cert, n_dummy=n_dummy) for n_dummy in schedule]
    simples = _pguess_simple_batch(games, opts)
    ratios = []
    lower = []
    bench = []
    violations = 0
    for g, simple in zip(games, simples):
        num = game_value(g, pad_pid_outcomes(p, g.n_n))
        num = max(num, simple.value)
        ratio = num / simple.value
        ratios.append(ratio)
        lower.append(num)
        bench.append(simple.value)
        if ratio > 1.0 + cert.r + 1e-5:
            violations += 1
    return BoundReport(
        roi=cert.r,
        schedule=tuple(schedule),
        ratios=tuple(ratios),
        lower_bounds=tuple(lower),
        benchmarks=tuple(bench),
        cap_violations=violations,
    )


# ---------------------------------------------------------------------------
# Post-information games
# ---------------------------------------------------------------------------


def pi_pguess_simple(g: PiGameSpec, opts: SolveOptions = SolveOptions()) -> PguessSimpleResult:
    """Best post-information score over simple devices, identical score columns merged."""
    return _simple_benchmark(g, opts, "post-information benchmark")


# ---------------------------------------------------------------------------
# Dual frames over informationally complete POVMs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualFrame:
    """Hermitian expansion coefficients ``target = sum_l mu_l (x) L_l``."""

    operators: np.ndarray = field(repr=False)  # (..., n_l, d0, d0)
    povm: Povm
    residual: float


class DualFrameSolver:
    """Least-squares expansion over the span of an informationally complete POVM."""

    def __init__(self, povm: Povm):
        d1 = povm.dim
        self._povm = povm
        self._basis = hermitian_basis(d1)
        coords = np.array(
            [
                [float(np.real(np.sum(h.conj() * e))) for h in self._basis]
                for e in povm.effects
            ]
        )  # (n_l, d1^2)
        gram = coords @ coords.T
        rank = int(np.linalg.matrix_rank(gram, tol=1e-10))
        if rank < d1 * d1:
            raise ValueError(
                f"POVM spans only {rank} of {d1 * d1} Hermitian dimensions; "
                "not informationally complete"
            )
        self._coords = coords
        self._gram_pinv = np.linalg.pinv(gram, rcond=1e-12)

    def solve(self, targets: np.ndarray) -> DualFrame:
        """Minimal-norm operators expanding each target over the POVM.

        ``targets`` has shape ``(..., d0*d1, d0*d1)`` on the product of the
        retained factor and the measured factor (measured factor last).
        """
        targets = np.asarray(targets, dtype=complex)
        lead = targets.shape[:-2]
        d1 = self._povm.dim
        dd = targets.shape[-1]
        if dd % d1:
            raise ValueError("target dimension is not a multiple of the POVM dimension")
        d0 = dd // d1
        f_basis = hermitian_basis(d0)
        t = targets.reshape(lead + (d0, d1, d0, d1))
        # coefficients D[..., j, i] = <F_j (x) H_i, target>
        fd, hd = f_basis.conj(), self._basis.conj()
        coeff = np.real(np.einsum("jab,icd,...acbd->...ji", fd, hd, t, optimize=True))
        x = np.einsum("...ji,li,lk->...jk", coeff, self._coords, self._gram_pinv, optimize=True)
        # operators mu[..., l] = sum_j X[..., j, l] F_j
        mu = np.einsum("...jl,jab->...lab", x, f_basis, optimize=True)
        recon = np.einsum("...lab,lcd->...acbd", mu, self._povm.effects, optimize=True)
        residual = float(np.max(np.abs(recon.reshape(targets.shape) - targets)))
        return DualFrame(operators=mu, povm=self._povm, residual=residual)


def ic_dual_frame(povm: Povm) -> DualFrameSolver:
    """Builder for dual frames; raises if the POVM is not informationally complete."""
    return DualFrameSolver(povm)


def witness_ensemble(frame: DualFrame) -> PiGameSpec:
    """Shifted, normalized frame operators as a post-information game ensemble.

    Each operator's transpose is offset by the largest frame norm so all
    states are positive, and the whole family is scaled to total probability
    one.  A zero frame degenerates to the uniform maximally mixed ensemble.
    """
    pv = frame.povm
    mu = frame.operators
    if mu.ndim != 5:
        raise ValueError("expected frame operators indexed (m, n, l)")
    n_m, n_n, n_l, d0, _ = mu.shape
    norms = np.linalg.norm(mu.reshape(-1, d0, d0), ord=2, axis=(1, 2))
    c = float(np.max(norms)) if norms.size else 0.0
    count = n_m * n_n * n_l
    if c <= 1e-14:
        ens = np.broadcast_to(np.eye(d0) / (d0 * count), mu.shape).copy()
        return PiGameSpec(ensemble=ens, povm_l=pv)
    c_prime = float(np.real(np.einsum("mnlaa->", mu)))
    denom = c_prime + c * d0 * count
    ens = (mu.transpose(0, 1, 2, 4, 3) + c * np.eye(d0)[None, None, None, :, :]) / denom
    return PiGameSpec(ensemble=ens, povm_l=pv)
