"""Applying and composing device transformations, and see-saw score search.

A transformation routes the target's quantum input through a pre-processing
channel into the source device plus a side system, feeds the source's quantum
output and the side system through a post-processing instrument, and wires
all classical data (program, outcome, instrument branch) through stochastic
tables.  Only classical memory crosses the temporal cut, so simple devices
map to simple devices.

Everything here works on Choi tensors with explicit legs; the application of
a transformation is a single contraction, and the same contraction with one
tensor removed yields the score gradient used by the see-saw heuristic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .devices import (
    ClassicalChannel,
    FreeSimulation,
    GameSpec,
    Instrument,
    Pid,
    Pmd,
    SimulationShape,
    _distribution,
    rng_from_seed,
    random_free_simulation,
)
from .games import game_value
from .linalg import (
    ChoiMatrix,
    choi_identity,
    choi_of_prepare,
    choi_tensor,
    choi_trace_map,
    link_product,
)
from .sdp import SolveOptions, best_instruments

_SEESAW_OPTS = SolveOptions(gap_tol=1e-8)

__all__ = [
    "SeesawResult",
    "apply_free_simulation",
    "apply_pmd_simulation",
    "compose_parallel",
    "compose_sequential",
    "mix",
    "reaching_simulation",
    "seesaw_pguess",
]


# Every factor of a transformation's action and the legs it carries, one letter
# per index; :func:`_contract` sums factors over the letters they share.
_LEGS = {
    "score": "wgbcuv",  # game score: target program w, outcome g, input b, c, output u, v
    "q": "gyl",  # outcome routing q[y1, x1, flag]
    "p": "xlwk",  # program routing p[x0, flag, y0, branch]
    "routing": "wgxyk",  # their product W[y0, y1, x0, x1, branch]
    "pre": "bcimjn",  # pre-processing: target input b, c to source input i, j and side m, n
    "source": "xyijpq",  # source device: program x, outcome y, input i, j, output p, q
    "post": "kpmqnuv",  # branch k: source output p, q and side m, n to target output u, v
    "measured": "xyvu",  # effects on the output of post, transposed (apply_pmd_simulation)
    "effects": "wgqp",  # effects on the input of post, with no side system, transposed
}


@lru_cache(maxsize=256)
def _path(spec: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """The greedy pairwise contraction order for ``spec`` on operands of ``shapes``.

    Intermediates may be of any size: numpy's default cap, the largest operand,
    can leave three or more factors to one loop without BLAS, which made one
    composed transformation's action about a thousand times slower.
    """
    ops = (np.broadcast_to(0.0, s) for s in shapes)
    return tuple(np.einsum_path(spec, *ops, optimize=("greedy", sys.maxsize))[0])


def _contract(factors: dict[str, np.ndarray], out: str) -> np.ndarray:
    """``factors``, named as in :data:`_LEGS`, summed over every leg but those of ``out``."""
    spec = ",".join(_LEGS[name] for name in factors) + "->" + _LEGS[out]
    ops = tuple(factors.values())
    return np.einsum(spec, *ops, optimize=_path(spec, tuple(t.shape for t in ops)))


def _factors(f: FreeSimulation, p: Pid) -> dict[str, np.ndarray]:
    """Every factor of the action of ``f`` on ``p``, with the legs of :data:`_LEGS`."""
    s = f.shape
    a0, d, a1 = s.source_din, s.side_dim, s.source_dout
    source = p.blocks.reshape(p.n_programs, p.n_outcomes, p.din, p.dout, p.din, p.dout)
    post = np.stack([b.as_tensor() for b in f.post.branches])
    return {
        "q": f.q_table(),
        "p": f.p_table(),
        "pre": f.pre.as_tensor().reshape(s.target_din, s.target_din, a0, d, a0, d),
        "source": source.transpose(0, 1, 2, 4, 3, 5),
        "post": post.reshape(s.n_branches, a1, d, a1, d, s.target_dout, s.target_dout),
    }


def apply_free_simulation(f: FreeSimulation, p: Pid) -> Pid:
    """Transform a device; the output is always a valid device of the target shape."""
    s = f.shape
    if p.sizes != s.wing("source"):
        raise ValueError("device does not match the transformation's source shape")
    gamma = _contract(_factors(f, p), "score")  # J[(b, u), (c, v)] of each target block
    d = s.target_din * s.target_dout
    blocks = gamma.transpose(0, 1, 2, 4, 3, 5).reshape(s.target_programs, s.target_outcomes, d, d)
    return Pid(s.target_din, s.target_dout, blocks)


def apply_pmd_simulation(
    post: Instrument,
    p_cc: ClassicalChannel,
    q_cc: ClassicalChannel,
    m,
):
    """Transform a measurement family through an instrument in the Heisenberg picture.

    The new effects are ``sum q p K_k^adj[M_{x1|x0}]``, with the adjoint taken
    via the Choi transpose identity; the result is a valid measurement family
    on the instrument's input space.
    """
    n_x0, n_x1 = m.n_programs, m.n_outcomes
    n_k = post.n_branches
    if post.dout != m.dim:
        raise ValueError("instrument output must match the measurement dimension")
    n_y0 = p_cc.n_in // n_k
    if p_cc.table.shape[0] % n_x0 or p_cc.n_in % n_k:
        raise ValueError("program routing table does not match the index sets")
    n_l = p_cc.table.shape[0] // n_x0
    n_y1 = q_cc.n_out
    if q_cc.n_in != n_x1 * n_l:
        raise ValueError("outcome routing table does not match the index sets")
    # K^adj[M][a, b] = sum M[v, u] J[(b, u), (a, v)]: the instrument is post with no side system
    kt = np.stack([b.as_tensor() for b in post.branches])
    factors = {
        "q": q_cc.table.reshape(n_y1, n_x1, n_l),
        "p": p_cc.table.reshape(n_x0, n_l, n_y0, n_k),
        "measured": m.effects,
        "post": kt.reshape(n_k, post.din, 1, post.din, 1, m.dim, m.dim),
    }
    return Pmd(_contract(factors, "effects"))


def _realized(
    shape: SimulationShape, pre: ChoiMatrix, post: Instrument, p: np.ndarray, q: np.ndarray
) -> FreeSimulation:
    """Transformation of ``shape`` with the routing tables ``p`` and ``q`` reshaped to its own."""
    return FreeSimulation(
        shape=shape,
        pre=pre,
        post=post,
        p_cc=ClassicalChannel(p.reshape(shape.p_shape)),
        q_cc=ClassicalChannel(q.reshape(shape.q_shape)),
    )


def compose_sequential(f2: FreeSimulation, f1: FreeSimulation) -> FreeSimulation:
    """Transformation equal to applying ``f1`` then ``f2`` (match at f1's target)."""
    s1, s2 = f1.shape, f2.shape
    if s1.wing("target") != s2.wing("source"):
        raise ValueError("shapes do not chain: f1 target differs from f2 source")
    shape = SimulationShape.from_wings(
        s1.wing("source"),
        s2.wing("target"),
        s1.side_dim * s2.side_dim,
        s1.n_branches * s2.n_branches,
        s1.n_flags * s2.n_flags,
    )
    id2 = choi_identity(s2.side_dim)
    pre = link_product(f2.pre, choi_tensor(f1.pre, id2))
    post = Instrument(
        tuple(
            link_product(choi_tensor(b1, id2), b2)
            for b1 in f1.post.branches
            for b2 in f2.post.branches
        )
    )
    p1 = f1.p_table()  # [x0, l1, y0, k1]
    p2 = f2.p_table()  # [y0, l2, z0, k2]
    p_comb = np.einsum("xlyk,yszj->xlszkj", p1, p2)
    q1 = f1.q_table()  # [y1, x1, l1]
    q2 = f2.q_table()  # [z1, y1, l2]
    q_comb = np.einsum("zys,yxl->zxls", q2, q1)
    return _realized(shape, pre, post, p_comb, q_comb)


def _swap_middle(j: ChoiMatrix, legs: tuple[int, ...], output: bool) -> ChoiMatrix:
    """``j`` with the middle two of the four factors ``legs`` of its output (or input) swapped."""
    legs = (j.din, *legs) if output else (*legs, j.dout)
    perm = (0, 1, 3, 2, 4) if output else (0, 2, 1, 3, 4)
    t = j.mat.reshape(legs + legs).transpose(perm + tuple(5 + a for a in perm))
    return ChoiMatrix(j.din, j.dout, t.reshape(j.mat.shape))


def compose_parallel(f1: FreeSimulation, f2: FreeSimulation) -> FreeSimulation:
    """Transformation acting on a tensor pair of devices wing by wing.

    Source and target systems pair up as products, with programs and outcomes
    flattened row-major in the same order as :func:`pidlab.devices.tensor_pid`.
    """
    s1, s2 = f1.shape, f2.shape
    shape = SimulationShape(
        **{a.name: getattr(s1, a.name) * getattr(s2, a.name) for a in fields(SimulationShape)}
    )
    # outputs of pre1 (x) pre2 come out as (A0 D1 A0' D2); reorder to (A0 A0' D1 D2)
    pre = _swap_middle(
        choi_tensor(f1.pre, f2.pre),
        (s1.source_din, s1.side_dim, s2.source_din, s2.side_dim),
        output=True,
    )
    # post branches expect (A1 D1 A1' D2); incoming order is (A1 A1' D1 D2)
    legs_in = (s1.source_dout, s1.side_dim, s2.source_dout, s2.side_dim)
    post = Instrument(
        tuple(
            _swap_middle(choi_tensor(b1, b2), legs_in, output=False)
            for b1 in f1.post.branches
            for b2 in f2.post.branches
        )
    )
    p_comb = np.einsum("xlyk,XLYK->xXlLyYkK", f1.p_table(), f2.p_table())
    q_comb = np.einsum("gyl,GYL->gGyYlL", f1.q_table(), f2.q_table())
    return _realized(shape, pre, post, p_comb, q_comb)


def mix(simulations: list[FreeSimulation], weights) -> FreeSimulation:
    """Probabilistic mixture realized with a classical flag register.

    The register is prepared alongside the side system with the mixing
    weights, each post-processing branch reads it out, and the flag wiring
    copies it into the classical routing, so the action equals the convex
    combination of the individual actions.
    """
    weights = _distribution(weights, "mixing weights")
    if len(simulations) != len(weights):
        raise ValueError("one weight per transformation required")
    s0 = simulations[0].shape
    if any(f.shape != s0 for f in simulations):
        raise ValueError("all transformations must share one shape")
    n_i = len(simulations)
    shape = replace(
        s0, side_dim=s0.side_dim * n_i, n_branches=s0.n_branches * n_i, n_flags=s0.n_flags * n_i
    )
    # pre: sum_i w_i F_i (x) |i><i| on the register
    pre_mat = sum(
        w * choi_tensor(f.pre, choi_of_prepare(_basis_state(n_i, i))).mat
        for i, (f, w) in enumerate(zip(simulations, weights))
    )
    pre = ChoiMatrix(*shape.pre_dims, pre_mat)
    id_ad = choi_identity(s0.post_dims[0])
    branches = []
    for k in range(s0.n_branches):
        for i in range(n_i):
            compress = ChoiMatrix(n_i, 1, _basis_state(n_i, i))
            reader = choi_tensor(id_ad, compress)
            branches.append(link_product(reader, simulations[i].post.branches[k]))
    post = Instrument(tuple(branches))
    p_comb = np.zeros((s0.source_programs, s0.n_flags, n_i, s0.target_programs, s0.n_branches, n_i))
    q_comb = np.zeros((s0.target_outcomes, s0.source_outcomes, s0.n_flags, n_i))
    for i, f in enumerate(simulations):
        p_comb[:, :, i, :, :, i] = f.p_table()
        q_comb[:, :, :, i] = f.q_table()
    return _realized(shape, pre, post, p_comb, q_comb)


def _basis_state(d: int, i: int) -> np.ndarray:
    s = np.zeros((d, d), dtype=complex)
    s[i, i] = 1.0
    return s


def reaching_simulation(
    source: Pid, mother: Instrument, table: np.ndarray
) -> FreeSimulation:
    """Transformation sending any device with the given source shape to a simple target.

    The target is ``sum_g table[y1, y0, g] branch_g``.  The pre-processing
    parks the target input in the side system and feeds a fixed state to the
    source; the post-processing discards the source output and runs the
    mother instrument on the side system; the routing plays program 0 and
    relays the branch outcome through the flag.
    """
    table = _distribution(table, "reaching table")
    n_y1, n_y0, n_g = table.shape
    if n_g != mother.n_branches:
        raise ValueError("table branch axis does not match the mother instrument")
    shape = SimulationShape.from_wings(
        source.sizes, (mother.din, mother.dout, n_y0, n_y1), mother.din, n_g, n_y1
    )
    fixed = np.zeros((source.din, source.din), dtype=complex)
    fixed[0, 0] = 1.0
    pre = choi_tensor(choi_of_prepare(fixed), choi_identity(mother.din))
    discard = choi_tensor(choi_trace_map(source.dout), choi_identity(mother.din))
    post = Instrument(tuple(link_product(discard, b) for b in mother.branches))
    p_comb = np.zeros((source.n_programs, n_y1, n_y0, n_g))
    p_comb[0] = table  # [l = y1, y0, g]
    q_comb = np.zeros((n_y1, source.n_outcomes, n_y1))
    for y1 in range(n_y1):
        q_comb[y1, :, y1] = 1.0
    return _realized(shape, pre, post, p_comb, q_comb)


# ---------------------------------------------------------------------------
# See-saw search for game scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeesawResult:
    value: float
    simulation: FreeSimulation


def _score_tensor(g: GameSpec) -> np.ndarray:
    """S6 with value = sum_{w,g,...} S6 * Gamma6 over matching legs."""
    t = g.score.reshape(g.n_m, g.n_n, g.din, g.dout, g.din, g.dout)
    # value = sum_{w,g} Tr[S J] with Gamma6[w,g,b,c,u,v] = J[(b,u),(c,v)],
    # so the elementwise pairing tensor is S6[w,g,b,c,u,v] = S[(c,v),(b,u)]
    return t.transpose(0, 1, 4, 2, 5, 3)


def _seesaw_grad(p: Pid, g: GameSpec, f: FreeSimulation, wrt: str) -> np.ndarray:
    """Score contracted with every factor but ``wrt`` ("routing", "pre" or "post"), on its legs."""
    factors = {"score": _score_tensor(g), **_factors(f, p)}
    drop = ("q", "p") if wrt == "routing" else (wrt,)
    return _contract({k: v for k, v in factors.items() if k not in drop}, wrt)


def seesaw_pguess(
    p: Pid,
    game: GameSpec,
    restarts: int = 8,
    iters: int = 50,
    seed: int = 0,
    side_dim: int | None = None,
    n_branches: int = 2,
) -> SeesawResult:
    """Alternating lower-bound search for the best freely-reachable game score.

    Fixing the routing tables, each quantum part is the solution of a
    channel- or instrument-constrained SDP on its linear score operator;
    fixing the quantum parts, each routing column is an argmax.  The value is
    nondecreasing over iterations and every iterate is a genuine
    transformation, so the result is always a valid lower bound.

    The restarts run in lockstep: each quantum step is one batched program
    (:func:`pidlab.sdp.best_instruments`) over the restarts still running,
    which follow the paths they would follow one by one.  Raises
    ``ValueError`` unless ``restarts`` and ``iters`` are at least 1.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("seesaw_pguess needs restarts >= 1 and iters >= 1")
    side = side_dim if side_dim is not None else p.din * p.dout
    shape = SimulationShape.from_wings(
        p.sizes, (game.din, game.dout, game.n_m, game.n_n), side, n_branches, game.n_n
    )
    rng = rng_from_seed(seed)
    # every restart's seed is drawn first, in restart order; the restarts then
    # sweep in lockstep, each quantum step one batched program over those
    # still running, and a restart stops on its own when its value stalls
    sims = [random_free_simulation(shape, seed=int(rng.integers(2**62))) for _ in range(restarts)]
    values = [-np.inf] * restarts
    running = list(range(restarts))
    for _ in range(iters):
        for r in running:
            sims[r] = _best_routing(p, game, sims[r])
        grads = [_seesaw_grad(p, game, sims[r], "pre") for r in running]
        zfs = [_score_matrices(g, shape.pre_dims) for g in grads]
        steps = best_instruments(zfs, *shape.pre_dims, _SEESAW_OPTS, "channel step")
        for r, (_, j_pre, _) in zip(running, steps):
            sims[r] = replace(sims[r], pre=ChoiMatrix(*shape.pre_dims, j_pre[0]))
        grads = [_seesaw_grad(p, game, sims[r], "post") for r in running]
        zks = [_score_matrices(g, shape.post_dims) for g in grads]
        steps = best_instruments(zks, *shape.post_dims, _SEESAW_OPTS, "instrument step")
        still = []
        for r, (_, jks, _) in zip(running, steps):
            post = Instrument(tuple(ChoiMatrix(*shape.post_dims, j) for j in jks))
            sims[r] = replace(sims[r], post=post)
            new_value = game_value(game, apply_free_simulation(sims[r], p))
            if new_value <= values[r] + 1e-8:
                values[r] = max(values[r], new_value)
            else:
                values[r] = new_value
                still.append(r)
        running = still
        if not running:
            break
    best = int(np.argmax(values))  # the first restart of the highest value
    achieved = game_value(game, apply_free_simulation(sims[best], p))
    return SeesawResult(value=achieved, simulation=sims[best])


def _best_routing(p: Pid, game: GameSpec, f: FreeSimulation) -> FreeSimulation:
    """Both routing tables of ``f`` set to their per-column argmax on the affine score."""
    grad_w = _seesaw_grad(p, game, f, "routing")
    coef_q = _contract({"routing": grad_w, "p": f.p_table()}, "q")
    f = replace(f, q_cc=_argmax_table(coef_q, f.q_cc.n_out))
    coef_p = _contract({"routing": grad_w, "q": f.q_table()}, "p")
    return replace(f, p_cc=_argmax_table(coef_p, f.p_cc.n_out))


def _argmax_table(coef: np.ndarray, n_out: int) -> ClassicalChannel:
    """One-hot table ``[out, in]`` picking each column's largest coefficient."""
    return ClassicalChannel.deterministic(coef.reshape(n_out, -1).argmax(axis=0), n_out)


def _score_matrices(grad: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Hermitian score matrices ``Z_k`` with ``sum grad * J = sum_k Tr[Z_k J_k]``.

    ``grad`` has the legs ``[k, a, b, i, j]`` of the Choi matrices
    ``J_k[(a, i), (b, j)]`` of dimensions ``dims = (din, dout)``; a channel
    is the instrument with one branch.
    """
    din, dout = dims
    z = grad.reshape(-1, din, din, dout, dout).transpose(0, 2, 4, 1, 3)
    z = z.reshape(-1, din * dout, din * dout)
    return (z + z.conj().transpose(0, 2, 1)) / 2
