"""Command-line front end.

Exit codes: 0 success, 1 negative analysis verdict (invalid device,
non-simple/incompatible classification), 2 usage error, 3 numerical failure.
With ``--json`` all results and errors are emitted as JSON objects (errors on
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

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
    Instrument,
    Pid,
    Pmd,
    SimulationShape,
    pad_pid_outcomes,
    pid_from_pmd,
    random_free_simulation,
    random_pid,
    random_simple_pid,
    steer,
    validate_pid,
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
from .sdp import SolveOptions
from .sem import sem, sem_monotone_value
from .simulation import apply_free_simulation

USAGE_ERROR = 2
NUMERICAL_FAILURE = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load(path: str, want=None):
    try:
        obj = io.read_device(path)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}", USAGE_ERROR)
    except io.DeviceFileError as exc:
        raise _CliError(f"{path}: {exc}", USAGE_ERROR)
    if want is not None and not isinstance(obj, want):
        raise _CliError(
            f"{path}: expected a {want.__name__.lower()} device file", USAGE_ERROR
        )
    return obj


def _opts(args) -> SolveOptions:
    return SolveOptions(
        feas_tol=min(args.tol, 1e-8),
        gap_tol=min(args.tol, 1e-9),
        max_iter=args.max_iter,
    )


def _cmd_validate(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, Pid):
        rep = validate_pid(obj)
        payload = {
            "kind": "pid",
            "cp_defect": rep.cp_defect,
            "nonsignaling_defect": rep.nonsignaling_defect,
            "tp_defect": rep.tp_defect,
            "valid": rep.ok(args.tol),
        }
        _emit(payload, args.json)
        return 0 if rep.ok(args.tol) else 1
    ok = obj.is_valid(args.tol)
    _emit({"kind": type(obj).__name__.lower(), "valid": ok}, args.json)
    return 0 if ok else 1


def _cmd_simplicity(args) -> int:
    pid = _load(args.file, Pid)
    verdict = is_simple_pid(pid, opts=_opts(args))
    payload = {"simple": verdict.simple, "roi": verdict.r}
    if verdict.simple:
        res = simplicity_residuals(pid, verdict.certificate)
        payload["certificate_matching_defect"] = res["simple_matching"]
        payload["certificate_tp_defect"] = res["simple_tp"]
    _emit(payload, args.json)
    return 0 if verdict.simple else 1


def _cmd_roi(args) -> int:
    pid = _load(args.file, Pid)
    if args.dual:
        cert = roi_dual(pid, _opts(args))
    else:
        cert = roi_primal(pid, _opts(args))
    payload = {"roi": cert.r, "gap": cert.gap}
    if cert.dual_r is not None:
        payload["dual_value"] = cert.dual_r
    residuals = verify_roi_certificate(pid, cert)
    payload["certificate_residual"] = max(residuals.values()) if residuals else 0.0
    _emit(payload, args.json)
    if args.certificate:
        doc = {"roi": cert.r}
        for key in ("alpha", "beta"):
            value = getattr(cert, key)
            doc[key] = None if value is None else io._encode(value)
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_sem(args) -> int:
    pid = _load(args.file, Pid)
    res = sem(pid)
    payload = {
        "rank": res.rank,
        "dim": res.pmd.dim,
        "near_cutoff": res.near_cutoff,
        "monotone_value": sem_monotone_value(pid, _opts(args)),
    }
    _emit(payload, args.json)
    if args.out:
        io.write_device(args.out, res.pmd, metadata={"description": "compressed family"})
    return 0


def _cmd_steer(args) -> int:
    chan = _load(args.channel, Instrument)
    if chan.n_branches != 1:
        raise _CliError("steering needs a single-branch broadcast channel", USAGE_ERROR)
    pmd = _load(args.pmd, Pmd)
    pid = steer(chan.branches[0], pmd)
    rep = validate_pid(pid)
    _emit(
        {
            "din": pid.din,
            "dout": pid.dout,
            "nonsignaling_defect": rep.nonsignaling_defect,
        },
        args.json,
    )
    if args.out:
        io.write_device(args.out, pid, metadata={"description": "steered device"})
    return 0


def _cmd_simulate(args) -> int:
    sim = _load(args.simulation)
    pid = _load(args.pid, Pid)
    out = apply_free_simulation(sim, pid)
    rep = validate_pid(out)
    _emit({"valid": rep.ok(args.tol), "max_defect": rep.max_defect()}, args.json)
    if args.out:
        io.write_device(args.out, out, metadata={"description": "transformed device"})
    return 0 if rep.ok(args.tol) else 1


def _cmd_game_value(args) -> int:
    game = _load(args.game)
    pid = _load(args.pid, Pid)
    _emit({"value": game_value(game, pad_pid_outcomes(pid, game.n_n))}, args.json)
    return 0


def _cmd_pguess_simple(args) -> int:
    game = _load(args.game)
    res = pguess_simple(game, _opts(args))
    _emit({"value": res.value, "gap": res.gap}, args.json)
    return 0


def _cmd_witness(args) -> int:
    pid = _load(args.file, Pid)
    cert = roi(pid, _opts(args))
    game = witness_game(cert, n_dummy=args.dummy)
    num = game_value(game, pad_pid_outcomes(pid, game.n_n))
    den = pguess_simple(game, _opts(args)).value
    _emit(
        {
            "roi": cert.r,
            "n_outcomes": game.n_n,
            "device_score": num,
            "simple_benchmark": den,
            "ratio": max(num, den) / den,
        },
        args.json,
    )
    if args.out:
        io.write_device(args.out, game, metadata={"description": "witness game"})
    return 0


def _cmd_verify_bound(args) -> int:
    pid = _load(args.file, Pid)
    schedule = tuple(int(s) for s in args.schedule.split(","))
    report = verify_robustness_bound(pid, schedule=schedule, opts=_opts(args))
    payload = {
        "roi": report.roi,
        "schedule": list(report.schedule),
        "ratios": list(report.ratios),
        "cap_violations": report.cap_violations,
        "final_gap": report.final_gap(),
    }
    _emit(payload, args.json)
    if args.csv:
        lines = ["n_dummy,ratio,lower_bound,benchmark,roi"]
        for nd, ratio, lo, be in zip(
            report.schedule, report.ratios, report.lower_bounds, report.benchmarks
        ):
            lines.append(
                ",".join([str(nd), _fmt(ratio), _fmt(lo), _fmt(be), _fmt(report.roi)])
            )
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if report.cap_violations == 0 else 1


def _cmd_sample(args) -> int:
    if args.what == "pid":
        obj = random_pid(args.din, args.dout, args.programs, args.outcomes, seed=args.seed)
    elif args.what == "simple-pid":
        obj = random_simple_pid(
            args.din, args.dout, args.programs, args.outcomes, seed=args.seed
        ).pid
    else:
        wing = (args.din, args.dout, args.programs, args.outcomes)
        shape = SimulationShape.from_wings(wing, wing, side_dim=2, n_branches=2, n_flags=2)
        obj = random_free_simulation(shape, seed=args.seed)
    text = io.dumps(obj, metadata={"seed": args.seed, "description": f"sampled {args.what}"})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"written": args.out}, args.json)
    else:
        print(text, end="")
    return 0


def _cmd_pi_value(args) -> int:
    game = _load(args.pigame)
    pid = _load(args.pid, Pid)
    _emit({"value": pi_game_value(game, pid)}, args.json)
    return 0


def _cmd_pi_witness(args) -> int:
    obj = _load(args.file)
    povm = _load(args.ic_povm)
    if isinstance(obj, Pmd):
        pid = pid_from_pmd(obj)
    elif isinstance(obj, Pid):
        pid = obj
    else:
        raise _CliError("pi-witness needs a pid or pmd device file", USAGE_ERROR)
    if povm.dim != pid.dout:
        raise _CliError(
            f"the POVM must act on the device's quantum output (dim {pid.dout}); "
            f"got dim {povm.dim}. A measurement family has a trivial output, so its "
            "informationally complete POVM is the single trivial effect.",
            USAGE_ERROR,
        )
    cert = roi(pid, _opts(args))
    frame = ic_dual_frame(povm).solve(cert.alpha)
    game = witness_ensemble(frame)
    _emit({"roi": cert.r, "frame_residual": frame.residual}, args.json)
    if args.out:
        io.write_device(args.out, game, metadata={"description": "witness ensemble"})
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    """Common flags, accepted both before and after the subcommand."""
    d = dict if top else (lambda **kw: {**kw, "default": argparse.SUPPRESS})
    parser.add_argument("--tol", type=float, help="validation tolerance", **d(default=1e-8))
    parser.add_argument("--max-iter", type=int, help="solver iteration cap", **d(default=200))
    parser.add_argument("--seed", type=int, help="sampler seed", **d(default=0))
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output", **d(default=False)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("file")

    p = command("simplicity", _cmd_simplicity, "decide simplicity of a device")
    p.add_argument("file")

    p = command("roi", _cmd_roi, "robustness of incompatibility")
    p.add_argument("file")
    p.add_argument("--dual", action="store_true", help="solve the dual program")
    p.add_argument("--certificate", help="write the dual functionals to a JSON file")

    p = command("sem", _cmd_sem, "compress a device to its measurement family")
    p.add_argument("file")
    p.add_argument("--out", help="write the family as a pmd file")

    p = command("steer", _cmd_steer, "steer a broadcast channel with a measurement family")
    p.add_argument("channel", help="single-branch instrument file for the broadcast channel")
    p.add_argument("pmd")
    p.add_argument("--out", help="write the induced device")

    p = command("simulate", _cmd_simulate, "apply a transformation file to a device")
    p.add_argument("simulation")
    p.add_argument("pid")
    p.add_argument("--out", help="write the transformed device")

    p = command("game-value", _cmd_game_value, "score of a device in a guessing game")
    p.add_argument("game")
    p.add_argument("pid")

    p = command("pguess-simple", _cmd_pguess_simple, "best simple-device score of a game")
    p.add_argument("game")

    p = command("witness", _cmd_witness, "build a witness game from the robustness dual")
    p.add_argument("file")
    p.add_argument("--dummy", type=int, default=64, help="dummy outcome count")
    p.add_argument("--out", help="write the witness game")

    p = command("verify-bound", _cmd_verify_bound, "witness-game ratio schedule")
    p.add_argument("file")
    p.add_argument("--schedule", default="8,64,512")
    p.add_argument("--csv", help="write schedule points as CSV")

    p = command("sample", _cmd_sample, "generate a random device or transformation")
    p.add_argument("what", choices=("pid", "simple-pid", "simulation"))
    p.add_argument("--din", type=int, default=2)
    p.add_argument("--dout", type=int, default=2)
    p.add_argument("--programs", type=int, default=2)
    p.add_argument("--outcomes", type=int, default=2)
    p.add_argument("--out", help="write to a file instead of stdout")

    p = command("pi-value", _cmd_pi_value, "score in a post-information game")
    p.add_argument("pigame")
    p.add_argument("pid")

    p = command("pi-witness", _cmd_pi_witness, "witness ensemble over an IC POVM")
    p.add_argument("file", help="pid or pmd device file")
    p.add_argument("--ic-povm", required=True, help="informationally complete povm file")
    p.add_argument("--out", help="write the ensemble game")

    # after each command's own arguments, so --help lists them first
    for p in sub.choices.values():
        _add_common_flags(p, top=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    as_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except _CliError as exc:
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
