"""Command-line front end.

Exit codes: 0 success, 1 negative analysis verdict (invalid device,
non-simple/incompatible classification), 2 usage error, 3 numerical failure.
With ``--json`` all results and errors are emitted as JSON objects (errors on
stderr).

A command writes its files first and prints its result only when every write
has succeeded: each returns both to :func:`main`, the one place that does either.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple

from . import io
from .compatibility import (
    is_simple_pid,
    roi,
    roi_dual,
    roi_primal,
    simplicity_residuals,
    verify_roi_certificate,
)
from .devices import (
    Pmd,
    SimulationShape,
    pad_pid_outcomes,
    pid_from_pmd,
    random_free_simulation,
    random_pid,
    random_simple_pid,
    steer,
)
from .games import (
    game_value,
    ic_dual_frame,
    pguess_simple,
    pi_game_value,
    verify_robustness_bound,
    witness_ensemble,
    witness_game,
)
from .linalg import VALID_TOL
from .sdp import SolveOptions
from .sem import sem, sem_monotone_value
from .simulation import apply_free_simulation

USAGE_ERROR = 2
NUMERICAL_FAILURE = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.code, self.parser = code, parser  # the parser of a usage error argparse found


class _Parser(argparse.ArgumentParser):
    """Parser that hands its usage errors to :func:`main`, which honours ``--json``."""

    def error(self, message):
        raise _CliError(message, USAGE_ERROR, self)


# a command's result (a payload, or a document's text), exit code and files as path -> text
_Result = tuple[dict | str, int, dict[str, str]]


def _emit(result: dict | str, as_json: bool) -> None:
    if isinstance(result, str):
        print(result, end="")
    elif as_json:
        print(json.dumps(result, indent=2, sort_keys=True, default=float))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")


def _out(path: str | None, obj, description: str) -> dict[str, str]:
    """The ``--out`` file holding ``obj`` as ``{path: text}``; none without ``--out``."""
    return {path: io.dumps(obj, metadata={"description": description})} if path else {}


# a device-file argument as parsed: its path and the kinds it accepts; main reads it
_DeviceFile = namedtuple("_DeviceFile", "path kinds")


def _device(*kinds: str):
    """Argument type of a device file of one of ``kinds``."""
    return lambda path: _DeviceFile(path, kinds)


def _checked(cast, ok, expected: str):
    """Argument type casting with ``cast`` and accepting the values for which ``ok`` holds."""

    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_count = _checked(int, lambda v: v >= 1, "an integer of at least 1")
_tolerance = _checked(float, lambda v: 0 <= v < math.inf, "a finite number of at least 0")
_seed = _checked(int, lambda v: 0 <= v < 2**128, "an integer from 0 to 2**128 - 1")


def _load(path: str, kinds: tuple[str, ...]):
    try:
        return io.read_device(path, kinds)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}", USAGE_ERROR)
    except io.DeviceFileError as exc:
        raise _CliError(f"{path}: {exc}", USAGE_ERROR)


def _cmd_validate(args) -> _Result:
    obj = args.file
    payload = {"kind": io.kind_of(obj), **obj.defects(), "valid": obj.is_valid(args.tol)}
    return payload, 0 if payload["valid"] else 1, {}


def _cmd_simplicity(args) -> _Result:
    pid = args.file
    verdict = is_simple_pid(pid, opts=args.opts)
    payload = {"simple": verdict.simple, "roi": verdict.r}
    if verdict.simple:
        res = simplicity_residuals(pid, verdict.certificate)
        payload["certificate_matching_defect"] = res["simple_matching"]
        payload["certificate_tp_defect"] = res["simple_tp"]
    return payload, 0 if verdict.simple else 1, {}


def _cmd_roi(args) -> _Result:
    pid = args.file
    cert = (roi_dual if args.dual else roi_primal)(pid, args.opts)
    payload = {"roi": cert.r, "gap": cert.gap}
    if cert.dual_r is not None:
        payload["dual_value"] = cert.dual_r
    residuals = verify_roi_certificate(pid, cert)
    payload["certificate_residual"] = max(residuals.values()) if residuals else 0.0
    files = {}
    if args.certificate:
        doc = {"roi": cert.r}
        for key in ("alpha", "beta"):
            value = getattr(cert, key)
            doc[key] = None if value is None else io._encode(value)
        files[args.certificate] = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return payload, 0, files


def _cmd_sem(args) -> _Result:
    pid = args.file
    res = sem(pid)
    payload = {
        "rank": res.rank,
        "dim": res.pmd.dim,
        "near_cutoff": res.near_cutoff,
        "monotone_value": sem_monotone_value(pid, args.opts),
    }
    return payload, 0, _out(args.out, res.pmd, "compressed family")


def _cmd_steer(args) -> _Result:
    if args.channel.n_branches != 1:
        raise _CliError("steering needs a single-branch broadcast channel", USAGE_ERROR)
    pid = steer(args.channel.branches[0], args.pmd)
    payload = {
        "din": pid.din,
        "dout": pid.dout,
        "nonsignaling_defect": pid.defects()["nonsignaling_defect"],
    }
    return payload, 0, _out(args.out, pid, "steered device")


def _cmd_simulate(args) -> _Result:
    out = apply_free_simulation(args.simulation, args.pid)
    valid = out.is_valid(args.tol)
    payload = {"valid": valid, "max_defect": max(out.defects().values())}
    return payload, 0 if valid else 1, _out(args.out, out, "transformed device")


def _cmd_game_value(args) -> _Result:
    game = args.game
    return {"value": game_value(game, pad_pid_outcomes(args.pid, game.n_n))}, 0, {}


def _cmd_pguess_simple(args) -> _Result:
    res = pguess_simple(args.game, args.opts)
    return {"value": res.value, "gap": res.gap}, 0, {}


def _cmd_witness(args) -> _Result:
    pid = args.file
    cert = roi(pid, args.opts)
    game = witness_game(cert, n_dummy=args.dummy)
    num = game_value(game, pad_pid_outcomes(pid, game.n_n))
    den = pguess_simple(game, args.opts).value
    payload = {
        "roi": cert.r,
        "n_outcomes": game.n_n,
        "device_score": num,
        "simple_benchmark": den,
        "ratio": max(num, den) / den,
    }
    return payload, 0, _out(args.out, game, "witness game")


def _cmd_verify_bound(args) -> _Result:
    report = verify_robustness_bound(args.file, schedule=args.schedule, opts=args.opts)
    payload = {
        "roi": report.roi,
        "schedule": list(report.schedule),
        "ratios": list(report.ratios),
        "cap_violations": report.cap_violations,
        "final_gap": report.final_gap(),
    }
    files = {}
    if args.csv:
        rows = zip(report.schedule, report.ratios, report.lower_bounds, report.benchmarks)
        files[args.csv] = "n_dummy,ratio,lower_bound,benchmark,roi\n" + "".join(
            f"{nd},{r:.17g},{lo:.17g},{be:.17g},{report.roi:.17g}\n" for nd, r, lo, be in rows
        )
    return payload, 0 if report.cap_violations == 0 else 1, files


def _cmd_sample(args) -> _Result:
    wing = (args.din, args.dout, args.programs, args.outcomes)
    if args.what == "pid":
        obj = random_pid(*wing, seed=args.seed)
    elif args.what == "simple-pid":
        obj = random_simple_pid(*wing, seed=args.seed).pid
    else:
        shape = SimulationShape.from_wings(wing, wing, side_dim=2, n_branches=2, n_flags=2)
        obj = random_free_simulation(shape, seed=args.seed)
    text = io.dumps(obj, metadata={"seed": args.seed, "description": f"sampled {args.what}"})
    if args.out:
        return {"written": args.out}, 0, {args.out: text}
    return text, 0, {}


def _cmd_pi_value(args) -> _Result:
    return {"value": pi_game_value(args.pigame, args.pid)}, 0, {}


def _cmd_pi_witness(args) -> _Result:
    povm = args.ic_povm
    pid = pid_from_pmd(args.file) if isinstance(args.file, Pmd) else args.file
    if povm.dim != pid.dout:
        raise _CliError(
            f"the POVM must act on the device's quantum output (dim {pid.dout}); "
            f"got dim {povm.dim}. A measurement family has a trivial output, so its "
            "informationally complete POVM is the single trivial effect.",
            USAGE_ERROR,
        )
    cert = roi(pid, args.opts)
    frame = ic_dual_frame(povm).solve(cert.alpha)
    game = witness_ensemble(frame)
    payload = {"roi": cert.r, "frame_residual": frame.residual}
    return payload, 0, _out(args.out, game, "witness ensemble")


def _add_common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    """Common flags, accepted both before and after the subcommand."""
    d = dict if top else (lambda **kw: {**kw, "default": argparse.SUPPRESS})
    parser.add_argument(
        "--tol", type=_tolerance, help="validation tolerance", **d(default=VALID_TOL)
    )
    parser.add_argument(  # every solve runs at SolveOptions() but for this cap
        "--max-iter", dest="opts", metavar="MAX_ITER", help="solver iteration cap",
        type=lambda text: SolveOptions(max_iter=_count(text)), **d(default=SolveOptions()),
    )
    parser.add_argument("--seed", type=_seed, help="sampler seed", **d(default=0))
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output", **d(default=False)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pidlab",
        description="Analyze programmable instrument devices stored as JSON files.",
    )
    _add_common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("validate", _cmd_validate, "check a device file's invariants")
    p.add_argument("file", type=_device(*io.KINDS))

    p = command("simplicity", _cmd_simplicity, "decide simplicity of a device")
    p.add_argument("file", type=_device("pid"))

    p = command("roi", _cmd_roi, "robustness of incompatibility")
    p.add_argument("file", type=_device("pid"))
    p.add_argument("--dual", action="store_true", help="solve the dual program")
    p.add_argument("--certificate", help="write the dual functionals to a JSON file")

    p = command("sem", _cmd_sem, "compress a device to its measurement family")
    p.add_argument("file", type=_device("pid"))
    p.add_argument("--out", help="write the family as a pmd file")

    p = command("steer", _cmd_steer, "steer a broadcast channel with a measurement family")
    p.add_argument("channel", type=_device("instrument"),
                   help="single-branch instrument file for the broadcast channel")
    p.add_argument("pmd", type=_device("pmd"))
    p.add_argument("--out", help="write the induced device")

    p = command("simulate", _cmd_simulate, "apply a transformation file to a device")
    p.add_argument("simulation", type=_device("simulation"))
    p.add_argument("pid", type=_device("pid"))
    p.add_argument("--out", help="write the transformed device")

    p = command("game-value", _cmd_game_value, "score of a device in a guessing game")
    p.add_argument("game", type=_device("game"))
    p.add_argument("pid", type=_device("pid"))

    p = command("pguess-simple", _cmd_pguess_simple, "best simple-device score of a game")
    p.add_argument("game", type=_device("game"))

    p = command("witness", _cmd_witness, "build a witness game from the robustness dual")
    p.add_argument("file", type=_device("pid"))
    p.add_argument("--dummy", type=_count, default=64, help="dummy outcome count")
    p.add_argument("--out", help="write the witness game")

    p = command("verify-bound", _cmd_verify_bound, "witness-game ratio schedule")
    p.add_argument("file", type=_device("pid"))
    p.add_argument("--schedule", default="8,64,512",
                   type=lambda text: tuple(map(_count, text.split(","))))
    p.add_argument("--csv", help="write schedule points as CSV")

    p = command("sample", _cmd_sample, "generate a random device or transformation")
    p.add_argument("what", choices=("pid", "simple-pid", "simulation"))
    p.add_argument("--din", type=_count, default=2)
    p.add_argument("--dout", type=_count, default=2)
    p.add_argument("--programs", type=_count, default=2)
    p.add_argument("--outcomes", type=_count, default=2)
    p.add_argument("--out", help="write to a file instead of stdout")

    p = command("pi-value", _cmd_pi_value, "score in a post-information game")
    p.add_argument("pigame", type=_device("pigame"))
    p.add_argument("pid", type=_device("pid"))

    p = command("pi-witness", _cmd_pi_witness, "witness ensemble over an IC POVM")
    p.add_argument("file", type=_device("pid", "pmd"), help="pid or pmd device file")
    p.add_argument("--ic-povm", type=_device("povm"), required=True,
                   help="informationally complete povm file")
    p.add_argument("--out", help="write the ensemble game")

    # after each command's own arguments, so --help lists them first
    for p in sub.choices.values():
        _add_common_flags(p, top=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    as_json = "--json" in argv  # until the arguments are parsed
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        for name, value in vars(args).items():
            if isinstance(value, _DeviceFile):
                setattr(args, name, _load(*value))
        result, code, files = args.func(args)
        for path, text in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        _emit(result, as_json)
        return code
    except SystemExit as exc:  # --help
        return exc.code or 0
    except _CliError as exc:
        if exc.parser is not None and not as_json:  # as argparse words it
            sys.stderr.write(f"{exc.parser.format_usage()}{exc.parser.prog}: error: {exc}\n")
        else:
            _error(str(exc), exc.code, as_json)
        return exc.code
    except ArithmeticError as exc:
        _error(f"numerical failure: {exc}", NUMERICAL_FAILURE, as_json)
        return NUMERICAL_FAILURE
    except ValueError as exc:
        _error(str(exc), USAGE_ERROR, as_json)
        return USAGE_ERROR
    except OSError as exc:
        # _load reports failed reads, so this one comes from writing an output file
        _error(f"cannot write {exc.filename}: {exc.strerror or exc}", USAGE_ERROR, as_json)
        return USAGE_ERROR


def _error(message: str, code: int, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"error": {"message": message, "code": code}}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
