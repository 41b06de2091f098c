"""Cross-dimension sanity: nothing is specialized to qubit systems."""

import numpy as np

from pidlab.compatibility import is_simple_pid, roi_dual, roi_primal
from pidlab.devices import random_pid, random_simple_pid
from pidlab.games import GameSpec, game_value, pguess_simple
from pidlab.linalg import max_abs
from pidlab.sem import canonical_dilation, reconstruct_pid, sem


def test_rectangular_device_roi_and_round_trip():
    p = random_pid(2, 3, 2, 3, seed=42)
    assert p.is_valid(1e-9)
    prim = roi_primal(p)
    dual = roi_dual(p)
    assert abs(prim.r - dual.r) <= 1e-6
    recon = reconstruct_pid(canonical_dilation(p), sem(p))
    assert max_abs(recon.blocks - p.blocks) <= 1e-7


def test_qutrit_input_devices():
    s = random_simple_pid(3, 2, 2, 2, seed=43).pid
    assert is_simple_pid(s).simple
    g = random_pid(3, 2, 2, 2, seed=44)
    prim = roi_primal(g)
    dual = roi_dual(g)
    assert prim.r > 1e-3
    assert abs(prim.r - dual.r) <= 1e-6


def test_qutrit_referee_game_benchmark():
    # blind game on a qutrit referee: every strategy scores exactly 1/n
    rng = np.random.default_rng(np.random.Philox(45))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = a @ a.conj().T
    probe = [w / np.trace(w).real, np.eye(3) - w / np.trace(w).real]
    eff = np.zeros((2, 2, 9, 9), dtype=complex)
    for m in range(2):
        for n in range(2):
            eff[m, n] = np.kron(probe[m], np.eye(3)) / 2
    game = GameSpec(effects=eff, d_ref=3, dout=3)
    assert game.is_valid(1e-9)
    p = random_pid(3, 3, 2, 2, seed=46)
    assert abs(game_value(game, p) - 0.5) <= 1e-9
    assert abs(pguess_simple(game).value - 0.5) <= 1e-6
