"""Programmable instrument devices as Choi-matrix families.

Core surfaces: device types and samplers (:mod:`pidlab.devices`), simplicity
and robustness programs (:mod:`pidlab.compatibility`), the support-compressed
measurement family (:mod:`pidlab.sem`), device transformations
(:mod:`pidlab.simulation`), guessing games and witnesses
(:mod:`pidlab.games`), and the JSON/CLI front end (:mod:`pidlab.io`,
:mod:`pidlab.cli`).
"""

from .compatibility import (
    RoiCertificate,
    SimplicityCertificate,
    is_compatible_pmd,
    is_simple_pid,
    roi,
    roi_dual,
    roi_pmd,
    roi_primal,
)
from .devices import (
    ClassicalChannel,
    FreeSimulation,
    Instrument,
    Pid,
    Pmd,
    Povm,
    SimulationShape,
    random_free_simulation,
    random_pid,
    random_simple_pid,
    steer,
)
from .games import (
    GameSpec,
    PiGameSpec,
    game_value,
    pguess_simple,
    pi_game_value,
    pi_pguess_simple,
    verify_robustness_bound,
    witness_game,
)
from .linalg import ChoiMatrix
from .sdp import SdpProblem, SdpSolution, SdpStatus, SolveOptions, solve
from .sem import canonical_dilation, reconstruct_pid, sem, sem_monotone_value
from .simulation import (
    apply_free_simulation,
    apply_pmd_simulation,
    compose_parallel,
    compose_sequential,
    mix,
    seesaw_pguess,
)

__version__ = "0.1.0"
