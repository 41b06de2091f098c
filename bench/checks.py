"""Correctness checks recomputed with numpy alone.

Nothing here calls pidlab: every identity is evaluated from the raw arrays
an op returned, so a check cannot inherit a fault of the program it checks
(``verify_roi_certificate`` in particular is never consulted).  Each
``*_defects`` function returns named residuals; :func:`failures` compares
them with :data:`LIMITS` and names the ones that are out of bounds.

Limits sit between what correct outputs reach today (measured over many
seeds, see ``README.md``) and the corruptions ``selfcheck.py`` injects:
``r`` shifted by 1e-4, a negative eigenvalue in ``alpha``, a mixture off by
1e-6, a flipped exit code and a non-canonical file.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

PSD_TOL = 1e-7  # most negative eigenvalue allowed where a block must be PSD
LIMITS = {
    # robustness primal side
    "omega_minus_j_psd": 1e-6,  # solver slack reaches 1.3e-8 on qubit-qutrit-4x2
    "mix_routing": 1e-8,
    "mother_psd": PSD_TOL,
    "mother_tp": 1e-7,
    "strategies_complete": 0.0,
    # robustness dual side
    "alpha_psd": PSD_TOL,
    "beta_trace": 1e-7,
    "dual_family_psd": PSD_TOL,
    "dual_value_vs_r": 1e-6,
    # anchors
    "simple_r": 1e-6,  # pidlab's SIMPLE_TOL
    "mub_r": 1e-6,
    "xz_r": 1e-6,
    "rotation_invariance": 1e-6,
    # devices, games and simulations
    "pid_cp": 1e-8,
    "pid_nonsignaling": 1e-8,
    "pid_tp": 1e-7,
    "score_match": 1e-7,
    "witness_on_simple": 1e-6,
    "ratio_cap": 1e-5,
    "ratio_floor": 1e-9,
    "ratio_identity": 1e-12,
    "seesaw_cap": 1e-6,
    "pi_cap": 1e-6,
    "sim_channel_psd": 1e-8,
    "sim_tp": 1e-8,
    "sim_tables": 1e-9,
    "frame_residual": 1e-9,
    "reconstruct": 1e-9,
    "pmd_psd": 1e-9,
    "pmd_complete": 1e-9,
    "faithful": 0.0,
    # command line
    "exit_code": 0.0,
    "output_format": 0.0,
    "canonical": 0.0,
    "same_bytes": 0.0,
    "cap_violations": 0.0,
    "csv_rows": 0.0,
    "povm_valid": 1e-9,
}

XZ_ROI = 3.0 - 2.0 * math.sqrt(2.0)


def mub_roi(d: int) -> float:
    """Robustness of two MUBs in dimension ``d`` against arbitrary noise."""
    return (math.sqrt(d) - 1.0) / (math.sqrt(d) + 1.0)


def failures(defects: dict[str, float], where: str = "") -> list[str]:
    """Names (with values) of the defects above their limit; NaN always fails."""
    out = []
    for name, value in defects.items():
        limit = LIMITS[name]
        if not value <= limit:
            out.append(f"{where}{name}={value:.3g} > {limit:.3g}")
    return out


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2


def neg_eig(a: np.ndarray) -> float:
    """How far the most negative eigenvalue of (a stack of) Hermitian matrices goes below 0."""
    lam = np.linalg.eigvalsh(_herm(np.asarray(a, dtype=complex)))
    return float(max(0.0, -lam.min()))


def tr_out(m: np.ndarray, din: int, dout: int) -> np.ndarray:
    """Partial trace over the output factor of an input-major Choi matrix."""
    return np.trace(m.reshape(m.shape[:-2] + (din, dout, din, dout)), axis1=-3, axis2=-1)


def pid_defects(blocks: np.ndarray, din: int, dout: int) -> dict[str, float]:
    """CP of every block, equal coarse-grained channels, TP of the marginal."""
    marg = blocks.sum(axis=1)
    ns = 0.0
    for a, b in itertools.combinations(range(len(marg)), 2):
        ns = max(ns, float(np.abs(np.linalg.eigvalsh(_herm(marg[a] - marg[b]))).sum()))
    return {
        "pid_cp": neg_eig(blocks),
        "pid_nonsignaling": ns,
        "pid_tp": float(np.abs(tr_out(marg.mean(axis=0), din, dout) - np.eye(din)).max()),
    }


def score(effects: np.ndarray, blocks: np.ndarray, d_ref: int) -> float:
    """Winning probability ``sum_{m,n} Tr[M_{m,n} J_{n|m}] / d_ref``."""
    total = sum(
        np.trace(effects[m, n] @ blocks[m, n])
        for m in range(effects.shape[0])
        for n in range(effects.shape[1])
    )
    return float(np.real(total)) / d_ref


def witness_value(alpha: np.ndarray, blocks: np.ndarray, din: int) -> float:
    """Dual functional ``sum Tr[alpha J] / (din * n_programs) - 1``; <= 0 on simple devices."""
    n_prog = alpha.shape[0]
    total = sum(
        np.trace(alpha[x0, x1] @ blocks[x0, x1])
        for x0 in range(n_prog)
        for x1 in range(alpha.shape[1])
    )
    return float(np.real(total)) / (din * n_prog) - 1.0


# ---------------------------------------------------------------------------
# Robustness certificates
# ---------------------------------------------------------------------------


def primal_defects(blocks, din, dout, r, simple_mix, mappings, branches) -> dict[str, float]:
    """Feasibility of ``omega = (1+r) * simple_mix`` and of the mother instrument.

    ``omega - J`` is checked rather than the admixed noise, which divides
    solver error by ``r``.  ``mappings[f]`` is the response function that
    routes ``branches[f]``.
    """
    n_prog, n_out = blocks.shape[:2]
    omega = (1.0 + r) * simple_mix
    routed = np.zeros_like(simple_mix)
    for f, branch in zip(mappings, branches):
        for x0 in range(n_prog):
            routed[x0, f[x0]] += branch
    complete = sorted(map(tuple, mappings)) == list(
        itertools.product(range(n_out), repeat=n_prog)
    )
    return {
        "omega_minus_j_psd": neg_eig(omega - blocks),
        "mix_routing": float(np.abs(routed - simple_mix).max()),
        "mother_psd": neg_eig(branches),
        "mother_tp": float(np.abs(tr_out(branches.sum(axis=0), din, dout) - np.eye(din)).max()),
        "strategies_complete": 0.0 if complete else 1.0,
    }


def dual_defects(blocks, din, dout, r, alpha, beta) -> dict[str, float]:
    """Dual feasibility of ``(alpha, beta)`` and its value against ``r``.

    By weak duality every feasible dual point lower-bounds the robustness
    and every feasible primal point upper-bounds it, so a dual value equal
    to the primal ``r`` pins ``r``.
    """
    n_prog, n_out = alpha.shape[:2]
    beta_lift = np.stack([np.kron(b, np.eye(dout)) for b in beta])
    fam = [
        sum(beta_lift[x0] - alpha[x0, f[x0]] for x0 in range(n_prog))
        for f in itertools.product(range(n_out), repeat=n_prog)
    ]
    return {
        "alpha_psd": neg_eig(alpha),
        "beta_trace": abs(float(np.real(np.trace(beta, axis1=-2, axis2=-1).sum())) - din * n_prog),
        "dual_family_psd": neg_eig(np.stack(fam)),
        "dual_value_vs_r": abs(witness_value(alpha, blocks, din) - r),
    }


# ---------------------------------------------------------------------------
# Free simulations, post-information games, frames, compressed families
# ---------------------------------------------------------------------------


def apply_simulation(shape: dict, pre, post, p_table, q_table, blocks) -> np.ndarray:
    """Target blocks of a free simulation applied to a device, from the Choi definition.

    ``Gamma_{g|w} = sum p[(x,l),(w,k)] q[g,(y,l)] Post_k o (L_{y|x} (x) id_side) o Pre``
    with every map composed as ``Phi(|i><j|) = J[(i,.),(j,.)]``.
    """
    td, sd, side = shape["target_din"], shape["source_din"], shape["side_dim"]
    so, to = shape["source_dout"], shape["target_dout"]
    nx, ny = shape["source_programs"], shape["source_outcomes"]
    nw, ng = shape["target_programs"], shape["target_outcomes"]
    nk, nl = shape["n_branches"], shape["n_flags"]
    pre6 = pre.reshape(td, sd, side, td, sd, side)
    src = blocks.reshape(nx, ny, sd, so, sd, so)
    post7 = np.stack(post).reshape(nk, so, side, to, so, side, to)
    mid = np.einsum("iasjbt,xyacbe->ijxycset", pre6, src)
    out = np.einsum("ijxycset,kcsuetv->ijxykuv", mid, post7)
    p4 = p_table.reshape(nx, nl, nw, nk)
    q3 = q_table.reshape(ng, ny, nl)
    gamma = np.einsum("xlwk,gyl,ijxykuv->wgiujv", p4, q3, out)
    return gamma.reshape(nw, ng, td * to, td * to)


def simulation_defects(shape: dict, pre, post, p_table, q_table) -> dict[str, float]:
    """Pre-processing is a channel, post-processing an instrument, tables stochastic."""
    td, sd, side = shape["target_din"], shape["source_din"], shape["side_dim"]
    mid_dim = shape["source_dout"] * side
    post = np.stack(post)
    tables = 0.0
    for t in (p_table, q_table):
        tables = max(tables, float(max(0.0, -t.min())), float(np.abs(t.sum(axis=0) - 1.0).max()))
    return {
        "sim_channel_psd": max(neg_eig(pre), neg_eig(post)),
        "sim_tp": max(
            float(np.abs(tr_out(pre, td, sd * side) - np.eye(td)).max()),
            float(np.abs(tr_out(post.sum(axis=0), mid_dim, shape["target_dout"]) - np.eye(mid_dim)).max()),
        ),
        "sim_tables": tables,
    }


def pi_score(ensemble: np.ndarray, povm: np.ndarray, blocks: np.ndarray) -> float:
    """Post-information score ``sum Tr[(sigma_{m,n,l}^T (x) L_l) J_{n|m}]``."""
    total = 0.0
    for m in range(ensemble.shape[0]):
        for n in range(ensemble.shape[1]):
            op = sum(np.kron(ensemble[m, n, l].T, povm[l]) for l in range(len(povm)))
            total += float(np.real(np.trace(op @ blocks[m, n])))
    return total


def frame_residual(mu: np.ndarray, povm: np.ndarray, targets: np.ndarray) -> float:
    """Largest entry of ``sum_l mu_l (x) L_l - target`` over every target."""
    n_l, d0 = mu.shape[-3], mu.shape[-1]
    d = targets.shape[-1]
    worst = 0.0
    for ops, target in zip(mu.reshape(-1, n_l, d0, d0), targets.reshape(-1, d, d)):
        recon = sum(np.kron(ops[l], povm[l]) for l in range(n_l))
        worst = max(worst, float(np.abs(recon - target).max()))
    return worst


def pmd_defects(effects: np.ndarray) -> dict[str, float]:
    dim = effects.shape[-1]
    return {
        "pmd_psd": neg_eig(effects),
        "pmd_complete": float(np.abs(effects.sum(axis=1) - np.eye(dim)).max()),
    }


# ---------------------------------------------------------------------------
# Files written by the command line
# ---------------------------------------------------------------------------


def canonical_defect(text: str) -> float:
    """0 when the text is exactly its own canonical reserialization (docs/formats.md)."""
    try:
        again = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    except ValueError:
        return 1.0
    return 0.0 if again == text else 1.0


def decode_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def pid_from_file(doc: dict) -> tuple[np.ndarray, int, int]:
    return decode_matrix(doc["blocks"]), doc["din"], doc["dout"]
