"""Device families: programmable instruments and measurements, and their samplers.

A programmable instrument device (Pid) is a classically indexed family of CP
maps, non-signaling from the classical program to the quantum output: the
blocks of every program sum to one and the same channel.  Programmable
measurement devices (Pmd), instruments, POVMs, classical channels, the
structured pre/post/side-processing tuples used to transform devices and the
two kinds of guessing game are defined here together with seeded random
samplers for property tests.

A game is its score operators ``S[m, n]`` on ``din (x) dout``: a device
``J`` of that shape scores ``sum Re Tr[S[m, n] J_{n|m}]`` on it.

All samplers use the counter-based Philox generator, so a seed pins the
output bit-for-bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ChoiMatrix,
    Validated,
    choi_from_kraus,
    choi_identity,
    choi_tensor,
    hermitize,
    max_abs,
    psd_defect,
    tp_defect,
    trace_norm,
)

__all__ = [
    "ClassicalChannel",
    "FreeSimulation",
    "GameSpec",
    "Instrument",
    "Pid",
    "PiGameSpec",
    "Pmd",
    "Povm",
    "SimplePidSample",
    "SimulationShape",
    "identity_free_simulation",
    "pad_pid_outcomes",
    "pid_from_pmd",
    "product_strategy_weights",
    "random_channel_choi",
    "random_free_simulation",
    "random_instrument",
    "random_isometry",
    "random_pid",
    "random_pmd",
    "random_povm",
    "random_simple_pid",
    "random_state",
    "random_stochastic",
    "rng_from_seed",
    "simple_pid_from_mixture",
    "steer",
    "tensor_pid",
]

# the index sets a transformation's source and target both carry
_WINGS = ("din", "dout", "programs", "outcomes")


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


# ---------------------------------------------------------------------------
# Device types
# ---------------------------------------------------------------------------


def _measurement_defects(effects: np.ndarray, outcome_axes) -> dict[str, float]:
    """CP defect of ``effects``, and the largest entry of their sums over ``outcome_axes`` minus 1."""
    eye = np.eye(effects.shape[-1])
    return {
        "cp_defect": psd_defect(effects),
        "completeness_defect": max_abs(effects.sum(axis=outcome_axes) - eye),
    }


def _pairing(ops: np.ndarray, din: int, p: Pid) -> float:
    """``sum Re Tr[ops[m, n] J_{n|m}]`` of ``p``; ``ValueError`` unless ``p`` fits ``ops`` and ``din``."""
    sizes = (din, ops.shape[2] // din, *ops.shape[:2])
    if p.sizes != sizes:
        raise ValueError(f"strategy sizes {p.sizes} do not match the game's {sizes}")
    return float(np.real(np.einsum("mnpq,mnqp->", ops, p.blocks)))


def _hermitian_stack(obj, name: str, ndim: int, message: str) -> np.ndarray:
    """Set ``obj.<name>`` to its stack of matrices, hermitized and read-only.

    Raises ``ValueError(message)`` unless the stack has ``ndim`` axes and its
    matrices are square, and :func:`hermitize`'s error unless they are Hermitian.
    """
    a = np.asarray(getattr(obj, name), dtype=complex)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(message)
    a = hermitize(a)
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


@dataclass(frozen=True)
class Pid(Validated):
    """Family of CP-map Choi blocks indexed ``(program, outcome)``.

    ``blocks`` has shape ``(n_programs, n_outcomes, din*dout, din*dout)``.
    Construction only checks shapes and Hermiticity; :meth:`defects` measures
    the CP / non-signaling / marginal-TP conditions.
    """

    din: int
    dout: int
    blocks: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.din * self.dout
        if np.ndim(self.blocks) == 4 and np.shape(self.blocks)[2:] != (d, d):
            raise ValueError(
                f"block dimension {np.shape(self.blocks)[2:]} does not match din*dout = {d}"
            )
        message = "blocks must be a 4-d array (program, outcome, row, col)"
        _hermitian_stack(self, "blocks", 4, message)

    @property
    def n_programs(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.blocks.shape[1]

    @property
    def block_dim(self) -> int:
        return self.din * self.dout

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        """The device's wing ``(din, dout, programs, outcomes)``, as in :class:`SimulationShape`."""
        return self.din, self.dout, self.n_programs, self.n_outcomes

    def choi(self, x0: int, x1: int) -> ChoiMatrix:
        return ChoiMatrix(self.din, self.dout, self.blocks[x0, x1])

    def marginal(self, x0: int = 0) -> np.ndarray:
        """Choi matrix of the coarse-grained channel for program ``x0``."""
        return self.blocks[x0].sum(axis=0)

    def defects(self) -> dict[str, float]:
        """CP per block, non-signaling across programs, TP of the average marginal.

        The non-signaling defect is the largest trace-norm distance between the
        coarse-grained channels of two programs.
        """
        margs = [self.marginal(x0) for x0 in range(self.n_programs)]
        pairs = itertools.combinations(margs, 2)
        return {
            "cp_defect": psd_defect(self.blocks),
            "nonsignaling_defect": max((trace_norm(a - b) for a, b in pairs), default=0.0),
            "tp_defect": tp_defect(sum(margs) / len(margs), self.din, self.dout),
        }


@dataclass(frozen=True)
class Pmd(Validated):
    """Family of POVM effects indexed ``(program, outcome)`` on one system."""

    effects: np.ndarray = field(repr=False)

    def __post_init__(self):
        _hermitian_stack(self, "effects", 4, "effects must have shape (programs, outcomes, d, d)")

    @property
    def n_programs(self) -> int:
        return self.effects.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[1]

    @property
    def dim(self) -> int:
        return self.effects.shape[2]

    def defects(self) -> dict[str, float]:
        return _measurement_defects(self.effects, 1)


@dataclass(frozen=True)
class Povm(Validated):
    """Measurement effects on one system; ``factor_dims`` declares a tensor split."""

    effects: np.ndarray = field(repr=False)
    factor_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        eff = _hermitian_stack(self, "effects", 3, "effects must have shape (outcomes, d, d)")
        if self.factor_dims is not None:
            if int(np.prod(self.factor_dims)) != eff.shape[1]:
                raise ValueError("factor_dims do not multiply to the effect dimension")

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def defects(self) -> dict[str, float]:
        return _measurement_defects(self.effects, 0)


@dataclass(frozen=True)
class Instrument(Validated):
    """CP branches with a trace-preserving sum."""

    branches: tuple[ChoiMatrix, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("instrument needs at least one branch")
        din, dout = self.branches[0].din, self.branches[0].dout
        if any(b.din != din or b.dout != dout for b in self.branches):
            raise ValueError("all branches must share din/dout")
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def din(self) -> int:
        return self.branches[0].din

    @property
    def dout(self) -> int:
        return self.branches[0].dout

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def defects(self) -> dict[str, float]:
        return {
            "cp_defect": psd_defect(np.stack([b.mat for b in self.branches])),
            "tp_defect": tp_defect(sum(b.mat for b in self.branches), self.din, self.dout),
        }


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

    @property
    def din(self) -> int:
        return self.d_ref

    @property
    def score(self) -> np.ndarray:
        """The effects over ``d_ref``: the referee holds half a maximally entangled pair."""
        return self.effects / self.d_ref

    def defects(self) -> dict[str, float]:
        return _measurement_defects(self.effects, (0, 1))


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

    @property
    def score(self) -> np.ndarray:
        """The Hermitian score operators ``sum_l sigma^T_{m,n,l} (x) L_l``, indexed ``(m, n)``."""
        d = self.din * self.dout
        score = np.einsum(
            "mnlji,luv->mniujv", self.ensemble, self.povm_l.effects, optimize=True
        ).reshape(self.n_m, self.n_n, d, d)
        return (score + score.conj().transpose(0, 1, 3, 2)) / 2

    def defects(self) -> dict[str, float]:
        """The ensemble's defects and the referee POVM's, the latter prefixed ``povm_l_``."""
        total = float(np.real(np.einsum("mnlpp->", self.ensemble)))
        return {
            "cp_defect": psd_defect(self.ensemble),
            "normalization_defect": abs(total - 1.0),
            **{f"povm_l_{k}": v for k, v in self.povm_l.defects().items()},
        }


PROB_TOL = 1e-12  # the largest negative entry and column-sum error of a probability table


def _distribution(table, what: str) -> np.ndarray:
    """``table`` as a read-only probability table over its axis 0, small negatives clipped.

    Raises ``ValueError`` naming ``what`` unless every entry is finite and at
    least ``-PROB_TOL`` and every sum along axis 0 is within ``PROB_TOL`` of one.
    """
    t = np.asarray(table, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"{what}: every number must be finite")
    if (t < -PROB_TOL).any():
        raise ValueError(f"{what}: negative probability")
    if (abs(t.sum(axis=0) - 1.0) > PROB_TOL).any():
        raise ValueError(f"{what}: does not sum to one over its first index")
    t = np.clip(t, 0.0, None)
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class ClassicalChannel:
    """Conditional probability table ``table[out, in]``; columns sum to one."""

    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.ndim(self.table) != 2:
            raise ValueError("table must be 2-d (out, in)")
        object.__setattr__(self, "table", _distribution(self.table, "probability table"))

    @property
    def n_out(self) -> int:
        return self.table.shape[0]

    @property
    def n_in(self) -> int:
        return self.table.shape[1]

    @staticmethod
    def deterministic(mapping: list[int] | np.ndarray, n_out: int) -> "ClassicalChannel":
        """One-hot table sending each input ``i`` to the outcome ``mapping[i] < n_out``."""
        mapping = np.asarray(mapping, dtype=int)
        if mapping.ndim != 1 or ((mapping < 0) | (mapping >= n_out)).any():
            raise ValueError(f"mapping must list one outcome in range({n_out}) per input")
        return ClassicalChannel((np.arange(n_out)[:, None] == mapping).astype(float))


@dataclass(frozen=True)
class SimulationShape:
    """Index sets and dimensions of a device transformation.

    The transformation reads a *source* device and makes a *target* device.
    Each of the two is a wing ``(din, dout, programs, outcomes)``, stored in
    that order as the fields ``source_*`` and then ``target_*``; the side
    system, the post-processing branches and the classical flags complete the
    shape.  Every other size of the transformation is derived from these.
    """

    source_din: int
    source_dout: int
    source_programs: int
    source_outcomes: int
    target_din: int
    target_dout: int
    target_programs: int
    target_outcomes: int
    side_dim: int = 1
    n_branches: int = 1
    n_flags: int = 1

    @classmethod
    def from_wings(
        cls, source, target, side_dim: int = 1, n_branches: int = 1, n_flags: int = 1
    ) -> "SimulationShape":
        """Shape from the source and target wings, each ``(din, dout, programs, outcomes)``."""
        return cls(*source, *target, side_dim, n_branches, n_flags)

    def wing(self, end: str) -> tuple[int, int, int, int]:
        """``(din, dout, programs, outcomes)`` of the ``"source"`` or ``"target"`` device."""
        return tuple(getattr(self, f"{end}_{w}") for w in _WINGS)

    @property
    def pre_dims(self) -> tuple[int, int]:
        """``(din, dout)`` of the pre-processing channel: target input to source input and side."""
        return self.target_din, self.source_din * self.side_dim

    @property
    def post_dims(self) -> tuple[int, int]:
        """``(din, dout)`` of each post-processing branch: source output and side to target."""
        return self.source_dout * self.side_dim, self.target_dout

    @property
    def p_shape(self) -> tuple[int, int]:
        """Program routing table ``[(source program, flag), (target program, branch)]``."""
        return self.source_programs * self.n_flags, self.target_programs * self.n_branches

    @property
    def q_shape(self) -> tuple[int, int]:
        """Outcome routing table ``[target outcome, (source outcome, flag)]``."""
        return self.target_outcomes, self.source_outcomes * self.n_flags


@dataclass(frozen=True)
class FreeSimulation(Validated):
    """Pre/post/side processing connected only through classical memory.

    ``pre`` maps the target input to (source input (x) side system), ``post``
    is an instrument from (source output (x) side system) to the target
    output, ``p_cc`` routes ``(target program, branch) -> (source program,
    flag)`` and ``q_cc`` routes ``(source outcome, flag) -> target outcome``.
    """

    shape: SimulationShape
    pre: ChoiMatrix
    post: Instrument
    p_cc: ClassicalChannel
    q_cc: ClassicalChannel

    def __post_init__(self):
        s = self.shape
        if (self.pre.din, self.pre.dout) != s.pre_dims:
            raise ValueError("pre-processing channel dimensions do not match shape")
        if (self.post.din, self.post.dout) != s.post_dims or self.post.n_branches != s.n_branches:
            raise ValueError("post-processing instrument does not match shape")
        if self.p_cc.table.shape != s.p_shape:
            raise ValueError("program routing table does not match shape")
        if self.q_cc.table.shape != s.q_shape:
            raise ValueError("outcome routing table does not match shape")

    def p_table(self) -> np.ndarray:
        """Routing table reshaped to ``p[x0, l, y0, k]``."""
        s = self.shape
        return self.p_cc.table.reshape(
            s.source_programs, s.n_flags, s.target_programs, s.n_branches
        )

    def q_table(self) -> np.ndarray:
        """Routing table reshaped to ``q[y1, x1, l]``."""
        s = self.shape
        return self.q_cc.table.reshape(s.target_outcomes, s.source_outcomes, s.n_flags)

    def defects(self) -> dict[str, float]:
        """The defects of ``pre`` as a channel and of ``post``, prefixed ``pre_`` and ``post_``."""
        return {
            **{f"pre_{k}": v for k, v in self.pre.defects().items()},
            **{f"post_{k}": v for k, v in self.post.defects().items()},
        }


# ---------------------------------------------------------------------------
# Steering and conversions
# ---------------------------------------------------------------------------


def steer(e: ChoiMatrix, m: Pmd) -> Pid:
    """Device induced on the retained wing of a broadcast channel.

    ``e`` is the Choi matrix of a channel ``A0 -> A1 (x) E`` with the
    environment factor last; measuring ``E`` with the effects of ``m`` leaves
    the block family ``Tr_E[(1 (x) M_{x1|x0}) E[.]]`` on ``A0 -> A1``.
    """
    d_env = m.dim
    if e.dout % d_env:
        raise ValueError(
            f"broadcast output dim {e.dout} has no factor matching environment {d_env}"
        )
    dout = e.dout // d_env
    t = e.mat.reshape(e.din, dout, d_env, e.din, dout, d_env)
    blocks = np.einsum(
        "iaejbf,xyfe->xyiajb", t, m.effects, optimize=True
    ).reshape(m.n_programs, m.n_outcomes, e.din * dout, e.din * dout)
    return Pid(e.din, dout, blocks)


def pid_from_pmd(m: Pmd) -> Pid:
    """View a measurement family as an instrument family with trivial quantum output."""
    blocks = m.effects.transpose(0, 1, 3, 2)  # Choi of rho -> Tr[M rho] is M^T
    return Pid(m.dim, 1, blocks)


def tensor_pid(a: Pid, b: Pid) -> Pid:
    """Parallel composition; programs and outcomes pair up row-major."""
    blocks = np.empty(
        (
            a.n_programs * b.n_programs,
            a.n_outcomes * b.n_outcomes,
            a.block_dim * b.block_dim,
            a.block_dim * b.block_dim,
        ),
        dtype=complex,
    )
    for (xa, xb) in itertools.product(range(a.n_programs), range(b.n_programs)):
        for (ya, yb) in itertools.product(range(a.n_outcomes), range(b.n_outcomes)):
            j = choi_tensor(a.choi(xa, ya), b.choi(xb, yb))
            blocks[xa * b.n_programs + xb, ya * b.n_outcomes + yb] = j.mat
    return Pid(a.din * b.din, a.dout * b.dout, blocks)


def pad_pid_outcomes(p: Pid, n_outcomes: int) -> Pid:
    """Extend the outcome set with zero blocks (valid and non-signaling)."""
    if n_outcomes < p.n_outcomes:
        raise ValueError("cannot shrink the outcome set")
    blocks = np.zeros(
        (p.n_programs, n_outcomes, p.block_dim, p.block_dim), dtype=complex
    )
    blocks[:, : p.n_outcomes] = p.blocks
    return Pid(p.din, p.dout, blocks)


def simple_pid_from_mixture(mother: Instrument, table: np.ndarray) -> Pid:
    """Build ``sum_g table[x1, x0, g] * branch_g`` from a mother instrument."""
    table = _distribution(table, "mixture table")
    n_x1, n_x0, n_g = table.shape
    if n_g != mother.n_branches:
        raise ValueError("table branch axis does not match the instrument")
    branch_mats = np.stack([b.mat for b in mother.branches])
    blocks = np.einsum("yxg,gpq->xypq", table, branch_mats)
    return Pid(mother.din, mother.dout, blocks)


def product_strategy_weights(table: np.ndarray) -> np.ndarray:
    """Decompose a program-indexed outcome distribution into deterministic responses.

    ``table[x1, x0]`` is a distribution over outcomes per program; the result
    ``w`` is indexed by the flattened response function (outcome per program,
    row-major over programs) and satisfies
    ``sum_{f : f(x0) = x1} w[f] = table[x1, x0]`` via the product measure.
    """
    table = _distribution(table, "strategy table")
    n_x1, n_x0 = table.shape
    w = np.ones(1)
    for x0 in range(n_x0):
        w = np.einsum("f,a->fa", w, table[:, x0]).reshape(-1)
    return w


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_isometry(rng: np.random.Generator, d_from: int, d_to: int) -> np.ndarray:
    """Haar-random isometry via QR with a deterministic phase fix."""
    if d_to < d_from:
        raise ValueError("an isometry needs d_to >= d_from")
    g = _complex_gaussian(rng, d_to, d_from)
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()[None, :]


def random_state(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    a = _complex_gaussian(rng, d, rank or d)
    w = a @ a.conj().T
    return w / np.trace(w).real


def random_povm(rng: np.random.Generator, d: int, n_outcomes: int) -> Povm:
    """Generic full-rank effects from normalized Wishart matrices."""
    ws = np.stack([_complex_gaussian(rng, d, d) for _ in range(n_outcomes)])
    ws = np.einsum("kij,klj->kil", ws, ws.conj())
    total = ws.sum(axis=0)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * vals**-0.5) @ vecs.conj().T
    effects = np.einsum("ij,kjl,lm->kim", inv_sqrt, ws, inv_sqrt)
    return Povm(effects)


def random_pmd(rng: np.random.Generator, d: int, n_programs: int, n_outcomes: int) -> Pmd:
    effects = np.stack(
        [random_povm(rng, d, n_outcomes).effects for _ in range(n_programs)]
    )
    return Pmd(effects)


def random_channel_choi(rng: np.random.Generator, din: int, dout: int) -> ChoiMatrix:
    """Random channel via a Haar isometry into a ``din*dout`` environment traced out afterwards."""
    env = din * dout
    v = random_isometry(rng, din, dout * env)
    kraus = [v.reshape(dout, env, din)[:, e, :] for e in range(env)]
    return choi_from_kraus(kraus)


def random_instrument(
    rng: np.random.Generator,
    din: int,
    dout: int,
    n_branches: int,
) -> Instrument:
    # smallest ancilla making a Stinespring isometry possible
    env_per_branch = max(1, -(-din // (dout * n_branches)))
    v = random_isometry(rng, din, dout * n_branches * env_per_branch)
    resh = v.reshape(dout, n_branches, env_per_branch, din)
    branches = []
    for g in range(n_branches):
        kraus = [resh[:, g, e, :] for e in range(env_per_branch)]
        branches.append(choi_from_kraus(kraus))
    return Instrument(tuple(branches))


def random_stochastic(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    t = rng.gamma(1.0, 1.0, size=(n_out, n_in)) + 1e-12
    return t / t.sum(axis=0, keepdims=True)


def random_pid(
    din: int,
    dout: int,
    n_programs: int,
    n_outcomes: int,
    seed: int,
    env_dim: int | None = None,
) -> Pid:
    """Generic device: a random isometric broadcast extension steered by a random PMD."""
    rng = rng_from_seed(seed)
    env = env_dim if env_dim is not None else din * dout
    v = random_isometry(rng, din, dout * env)
    e = choi_from_kraus([v])
    m = random_pmd(rng, env, n_programs, n_outcomes)
    return steer(e, m)


@dataclass(frozen=True)
class SimplePidSample:
    pid: Pid
    mother: Instrument
    table: np.ndarray  # table[x1, x0, g]


def random_simple_pid(
    din: int,
    dout: int,
    n_programs: int,
    n_outcomes: int,
    seed: int,
) -> SimplePidSample:
    """Mixture of a random mother instrument, one branch per outcome, through a random
    classical channel."""
    rng = rng_from_seed(seed)
    mother = random_instrument(rng, din, dout, n_outcomes)
    table = np.stack(
        [random_stochastic(rng, n_outcomes, n_programs) for _ in range(n_outcomes)], axis=2
    )
    pid = simple_pid_from_mixture(mother, table)
    return SimplePidSample(pid=pid, mother=mother, table=table)


def identity_free_simulation(p: Pid) -> FreeSimulation:
    """The do-nothing transformation matched to the shape of ``p``."""
    shape = SimulationShape.from_wings(p.sizes, p.sizes)
    pre = choi_identity(p.din)
    post = Instrument((choi_identity(p.dout),))
    p_cc = ClassicalChannel(np.eye(p.n_programs))
    q_cc = ClassicalChannel(np.eye(p.n_outcomes))
    return FreeSimulation(shape=shape, pre=pre, post=post, p_cc=p_cc, q_cc=q_cc)


def random_free_simulation(shape: SimulationShape, seed: int) -> FreeSimulation:
    """Random transformation with Stinespring-sampled quantum parts and random tables."""
    rng = rng_from_seed(seed)
    pre = random_channel_choi(rng, *shape.pre_dims)
    post = random_instrument(rng, *shape.post_dims, shape.n_branches)
    p_cc = ClassicalChannel(random_stochastic(rng, *shape.p_shape))
    q_cc = ClassicalChannel(random_stochastic(rng, *shape.q_shape))
    return FreeSimulation(shape=shape, pre=pre, post=post, p_cc=p_cc, q_cc=q_cc)
