"""Guessing games: strategy scores, simple-device benchmarks, and witnesses.

Two game families are provided.  In the entangled-referee game the referee
keeps one half of a maximally entangled pair, receives a system back, and
measures both with a bipartite POVM indexed ``(m, n)``; the player, holding a
non-signaling device, later learns ``m`` and guesses ``n``.  In the
post-information game the referee instead sends a state drawn from an
ensemble indexed ``(m, n, l)`` and measures the returned system with a fixed
POVM, and the player must guess ``n`` without disturbing ``l``.

The strongest simple-device score in either family is a semidefinite program
over deterministic-response instrument blocks.  Witness games built from
robustness dual certificates give players with a non-simple device a scoring
ratio approaching ``1 + robustness`` as dummy outcomes are appended.
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
from .devices import Pid, Povm, _hermitian_stack, pad_pid_outcomes
from .linalg import Validated, hermitize, max_abs, psd_defect
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

_MERGE_TOL = 1e-12  # largest entry difference of two effect columns merged as one label


@dataclass(frozen=True)
class GameSpec(Validated):
    """Bipartite POVM indexed ``(m, n)`` over referee factor ``d_ref`` and ``dout``."""

    effects: np.ndarray = field(repr=False)  # (n_m, n_n, D, D) with D = d_ref*dout
    d_ref: int
    dout: int

    def __post_init__(self):
        message = "effects must have shape (n_m, n_n, d_ref*dout, d_ref*dout)"
        eff = _hermitian_stack(self, "effects", 4, message)
        if eff.shape[2] != self.d_ref * self.dout:
            raise ValueError(message)

    @property
    def n_m(self) -> int:
        return self.effects.shape[0]

    @property
    def n_n(self) -> int:
        return self.effects.shape[1]

    def defects(self) -> dict[str, float]:
        d = self.d_ref * self.dout
        return {
            "cp_defect": psd_defect(self.effects),
            "completeness_defect": max_abs(self.effects.sum(axis=(0, 1)) - np.eye(d)),
        }


def _score_value(score: np.ndarray, norm: int, din: int, dout: int, strategy: Pid) -> float:
    """Value ``sum Tr[score[x0, x1] J_{x1|x0}] / norm`` of a fixed ``din`` -> ``dout`` device."""
    sizes = (din, dout, *score.shape[:2])
    if strategy.sizes != sizes:
        raise ValueError(f"strategy sizes {strategy.sizes} do not match the game's {sizes}")
    return float(np.real(np.einsum("mnpq,mnqp->", score, strategy.blocks)) / norm)


def game_value(g: GameSpec, strategy: Pid) -> float:
    """Winning probability of a fixed device: ``(1/d_ref) sum Tr[M_{m,n} J_{n|m}]``."""
    return _score_value(g.effects, g.d_ref, g.d_ref, g.dout, strategy)


def _merge_groups(effects: np.ndarray) -> list[list[int]]:
    """Group outcome labels whose effect columns agree across every program.

    A column joins the first group, in creation order, whose first column it
    matches to ``_MERGE_TOL``; each new group claims all its later matches at once.
    """
    n_n = effects.shape[1]
    cols = np.moveaxis(effects, 1, 0).reshape(n_n, -1)
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


def _simple_scores(scores: list[np.ndarray], norm: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The response maps of ``scores[0]``'s shape and each score's instrument program.

    The branch for response ``f`` scores ``sum_x0 score[x0, f(x0)] / norm``; the
    program's optimum is the best simple device's value ``sum Tr[score[x0, x1]
    J_{x1|x0}] / norm``.
    """
    maps = response_maps(enumerate_strategies(*scores[0].shape[:2]))
    return maps, [gather_responses(maps, score) / norm for score in scores]


def _best_simple(
    score: np.ndarray, norm: int, din: int, dout: int, opts: SolveOptions, what: str
) -> tuple[float, np.ndarray, float]:
    """Best simple device for the value ``sum Tr[score[x0, x1] J_{x1|x0}] / norm``.

    Returns the optimum, the device blocks ``(n_programs, n_outcomes, d, d)`` and
    the relative gap.
    """
    maps, (zs,) = _simple_scores([score], norm)
    value, js, gap = best_instrument(zs, din, dout, opts, what)
    return value, scatter_responses(maps, js, score.shape[1]), gap


def _merged_score(g: GameSpec) -> tuple[list[int], np.ndarray]:
    """Representative labels of the merged outcome groups, and their effect columns."""
    reps = [grp[0] for grp in _merge_groups(g.effects)]
    return reps, g.effects[:, reps]


def _unmerged(g: GameSpec, reps: list[int], value, merged, gap) -> PguessSimpleResult:
    """The result for ``g`` of its merged program's solution, with zero blocks off ``reps``."""
    d = g.d_ref * g.dout
    blocks = np.zeros((g.n_m, g.n_n, d, d), dtype=complex)
    blocks[:, reps] = merged
    return PguessSimpleResult(value=value, strategy=Pid(g.d_ref, g.dout, blocks), gap=gap)


def pguess_simple(
    g: GameSpec, opts: SolveOptions = SolveOptions()
) -> PguessSimpleResult:
    """Best winning probability over simple devices, with an attaining strategy.

    Outcome labels with identical effect columns are merged before the
    response-function enumeration (a simple device gains nothing from
    distinguishing them), which keeps witness games with many dummy outcomes
    tractable.
    """
    reps, score = _merged_score(g)
    value, merged, gap = _best_simple(
        score, g.d_ref, g.d_ref, g.dout, opts, "simple-device benchmark"
    )
    return _unmerged(g, reps, value, merged, gap)


def _pguess_simple_batch(
    games: list[GameSpec], opts: SolveOptions = SolveOptions()
) -> list[PguessSimpleResult]:
    """:func:`pguess_simple` of games of one shape, those with one merged label count solved in lockstep."""
    merged = [_merged_score(g) for g in games]
    by_count: dict[int, list[int]] = {}
    for i, (reps, _) in enumerate(merged):
        by_count.setdefault(len(reps), []).append(i)
    out: list[PguessSimpleResult] = [None] * len(games)
    for idx in by_count.values():
        g = games[idx[0]]
        maps, batch = _simple_scores([merged[i][1] for i in idx], g.d_ref)
        sols = best_instruments(batch, g.d_ref, g.dout, opts, "simple-device benchmark")
        for i, (value, js, gap) in zip(idx, sols):
            reps = merged[i][0]
            out[i] = _unmerged(games[i], reps, value, scatter_responses(maps, js, len(reps)), gap)
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


@dataclass(frozen=True)
class PiGameSpec(Validated):
    """State ensemble indexed ``(m, n, l)`` plus the referee's fixed POVM."""

    ensemble: np.ndarray = field(repr=False)  # (n_m, n_n, n_l, d0, d0)
    povm_l: Povm

    def __post_init__(self):
        message = "ensemble must have shape (n_m, n_n, n_l, d0, d0)"
        ens = _hermitian_stack(self, "ensemble", 5, message)
        if ens.shape[2] != self.povm_l.n_outcomes:
            raise ValueError("ensemble l-axis must match the POVM outcome count")

    @property
    def n_m(self) -> int:
        return self.ensemble.shape[0]

    @property
    def n_n(self) -> int:
        return self.ensemble.shape[1]

    @property
    def n_l(self) -> int:
        return self.ensemble.shape[2]

    @property
    def din(self) -> int:
        return self.ensemble.shape[3]

    @property
    def dout(self) -> int:
        return self.povm_l.dim

    def defects(self) -> dict[str, float]:
        """The ensemble's defects and the referee POVM's, the latter prefixed ``povm_l_``."""
        total = float(np.real(np.einsum("mnlpp->", self.ensemble)))
        return {
            "cp_defect": psd_defect(self.ensemble),
            "normalization_defect": abs(total - 1.0),
            **{f"povm_l_{k}": v for k, v in self.povm_l.defects().items()},
        }


def _pi_score(g: PiGameSpec) -> np.ndarray:
    """The Hermitian score stack ``sum_l sigma^T_{m,n,l} (x) L_l`` indexed ``(m, n)``."""
    d = g.din * g.dout
    score = np.einsum(
        "mnlji,luv->mniujv", g.ensemble, g.povm_l.effects, optimize=True
    ).reshape(g.n_m, g.n_n, d, d)
    return (score + score.conj().transpose(0, 1, 3, 2)) / 2


def pi_game_value(g: PiGameSpec, strategy: Pid) -> float:
    """Score ``sum Tr[(sigma^T_{m,n,l} (x) L_l) J_{n|m}]`` of a fixed device."""
    return _score_value(_pi_score(g), 1, g.din, g.dout, strategy)


def pi_pguess_simple(g: PiGameSpec, opts: SolveOptions = SolveOptions()) -> PguessSimpleResult:
    """Best post-information score over simple devices."""
    score = _pi_score(g)
    value, blocks, gap = _best_simple(score, 1, g.din, g.dout, opts, "post-information benchmark")
    return PguessSimpleResult(value=value, strategy=Pid(g.din, g.dout, blocks), gap=gap)


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
