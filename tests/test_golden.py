"""Golden outputs: CLI ``--json`` results on the fixtures and grid robustness values.

The reference file ``golden_outputs.json`` holds what these commands printed
when it was written.  The test re-runs each one and compares field by field:
values within ``VALUE_TOL``, verdicts, counts and exit codes exactly, and the
iteration counts of the grid solves within one.

``witness``'s ``device_score`` and ``simple_benchmark`` are left out: the game
is scaled by the robustness program's dual point, which is not unique near the
simple boundary, so rounding-level solver changes move both fields (by up to
7.8e-8 on the fixtures) while ``ratio`` holds.  They return once the
certificate is made canonical.

Regenerating the reference file is a reviewed change of its own:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

from pidlab import sdp
from pidlab.cli import main
from pidlab.compatibility import roi_primal
from pidlab.devices import Pid, random_pid, random_simple_pid

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_outputs.json")
VALUE_TOL = 1e-9
# fields that depend on which optimal dual point the solver lands on
NOT_UNIQUE = {"device_score", "simple_benchmark"}

PIDS = ("entangled_xz_assemblage", "simple_device", "steered_device")
COMMANDS = tuple(
    [cmd, f"tests/fixtures/{name}.json", *extra]
    for name in PIDS
    for cmd, *extra in (["roi"], ["roi", "--dual"], ["simplicity"], ["witness"])
) + (
    ["pguess-simple", "tests/fixtures/xz_witness_game.json"],
    ["sem", "tests/fixtures/steered_device.json"],
    ["verify-bound", "tests/fixtures/entangled_xz_assemblage.json", "--schedule", "8,64,512"],
)


def mub_qutrit_assemblage() -> Pid:
    """Assemblage ``P^T / 3`` of the computational and Fourier bases of a qutrit."""
    w = np.exp(2j * np.pi / 3)
    fourier = np.array([[w ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    bases = (np.eye(3, dtype=complex), fourier)
    proj = np.array([[np.outer(b[:, k], b[:, k].conj()) for k in range(3)] for b in bases])
    return Pid(1, 3, proj.transpose(0, 1, 3, 2) / 3)


# the robustness grid's base devices: (name, din, dout, programs, outcomes)
GRID = (
    ("qubit-2x2", 2, 2, 2, 2),
    ("qubit-2x2-simple", 2, 2, 2, 2),
    ("qubit-3x3", 2, 2, 3, 3),
    ("qutrit-2x2", 3, 3, 2, 2),
    ("qubit-qutrit-4x2", 2, 3, 4, 2),
    ("mub-qutrit", 1, 3, 2, 3),
)


def grid_device(name: str, *dims) -> Pid:
    if name == "mub-qutrit":
        return mub_qutrit_assemblage()
    if name.endswith("-simple"):
        return random_simple_pid(*dims, seed=1).pid
    return random_pid(*dims, seed=1)


def run_cli(argv: list[str]) -> dict:
    """Exit code and parsed ``--json`` output of one command, run from the repo root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(os.path.dirname(HERE))
    try:
        with contextlib.redirect_stdout(out):
            code = main(["--json", *argv])
    finally:
        os.chdir(cwd)
    return {"exit": code, "output": json.loads(out.getvalue())}


def run_grid(name: str, *dims) -> dict:
    """Robustness ``r`` of a grid base device and the iterations of its one solve."""
    iters = []
    inner = sdp.solve

    def counting(problem, opts=None):
        sol = inner(problem, opts)
        iters.append(sol.iterations)
        return sol

    sdp.solve = counting
    try:
        r = roi_primal(grid_device(name, *dims)).r
    finally:
        sdp.solve = inner
    return {"r": r, "iterations": iters}


def _compare(got, want, path: str) -> list[str]:
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [
            err
            for key in want
            if key not in NOT_UNIQUE
            for err in _compare(got[key], want[key], f"{path}.{key}")
        ]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [err for i, (g, w) in enumerate(zip(got, want)) for err in _compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool):
        return [] if abs(got - want) <= VALUE_TOL else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_reference_covers_every_case(golden):
    assert [c["argv"] for c in golden["cli"]] == [list(argv) for argv in COMMANDS]
    assert [g["name"] for g in golden["grid"]] == [g[0] for g in GRID]


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[" ".join(c[:2]) for c in COMMANDS])
def test_cli_matches_reference(golden, index):
    want = golden["cli"][index]
    assert _compare(run_cli(want["argv"]), {k: want[k] for k in ("exit", "output")}, "") == []


@pytest.mark.parametrize("shape", GRID, ids=[g[0] for g in GRID])
def test_grid_robustness_matches_reference(golden, shape):
    want = next(g for g in golden["grid"] if g["name"] == shape[0])
    got = run_grid(*shape)
    assert abs(got["r"] - want["r"]) <= VALUE_TOL, (got["r"], want["r"])
    assert len(got["iterations"]) == len(want["iterations"]) == 1
    assert abs(got["iterations"][0] - want["iterations"][0]) <= 1, (got, want)


def write_reference() -> None:
    ref = {
        "cli": [{"argv": list(argv), **run_cli(list(argv))} for argv in COMMANDS],
        "grid": [{"name": shape[0], **run_grid(*shape)} for shape in GRID],
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_reference()
