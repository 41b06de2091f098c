"""pidlab benchmark: one workload, one closed-loop run, one JSON result line.

Usage::

    python3 bench/run.py --workload robustness-grid --seed 7 --seconds 30 --trace 0

Workloads are ``robustness-grid``, ``witness-games`` and ``cli-session``
(see ``bench/README.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps pidlab's public functions, prints the per-layer metrics
and writes every span to ``bench/out/``.  Every op's output is checked
against values computed apart from pidlab; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS thread, fixed before numpy loads: with two, a qutrit solve burns
# nearly twice its wall time in CPU and run-to-run spread grows.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 7
SETUP_REPEATS = 3  # set-ups per run (this process plus fresh children); setup_s is their median
SETUP_TIMEOUT_S = 60.0
P90_MIN_OPS = 100
OUT_DIR = os.path.join(workloads.BENCH_DIR, "out")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0, help="op time to accumulate")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args, tracer):
    """Import pidlab, generate the seeded inputs and run one untimed warm-up op."""
    workloads.load_pidlab()
    if tracer is not None:
        spans.install(tracer)
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, tracer)
    if tracer is not None:
        tracer.op = -1
    warm = wl.op(wl.warmup_index())
    problems = wl.check(warm)
    return wl, problems, time.perf_counter() - T_START


def child_setup_s(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                         cwd=workloads.ROOT, check=True)
    return float(json.loads(res.stdout.splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = spans.Tracer() if args.trace else None
    try:
        wl, problems, setup_s = setup(args, tracer)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load pidlab: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        if hasattr(wl, "close"):
            wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0 if not problems else 1
    setups = [setup_s]
    if not args.trace:
        setups += [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]

    op_times, failed, attempted, i = [], 0, 0, 0
    busy = 0.0
    try:
        while busy < args.seconds or attempted < wl.count_ops:
            for _ in range(wl.round_ops):
                if tracer is not None:
                    tracer.op = i
                t0 = time.perf_counter()
                try:
                    out = wl.op(i)
                except ArithmeticError as exc:  # solver failure reported by pidlab
                    out = None
                    failed += 1
                    print(f"op {i} failed: {exc}", file=sys.stderr)
                dt = time.perf_counter() - t0
                busy += dt
                attempted += 1
                if out is not None:
                    op_times.append(dt)
                    problems += wl.check(out)
                i += 1
    finally:
        if hasattr(wl, "close"):
            wl.close()

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    n = len(op_times)
    median_ms = statistics.median(op_times) * 1e3
    summary = {"workload": args.workload, "seed": args.seed, "samples": n, "busy_s": busy}
    if n >= P90_MIN_OPS:
        summary["op_ms_p90"] = statistics.quantiles(op_times, n=10, method="inclusive")[8] * 1e3
    if args.trace:
        metrics = layer_metrics(tracer, wl, n, median_ms)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
            {"children": getattr(wl, "child_reports", []), "op_times_s": op_times},
        )
    else:
        # the process that runs the op: a CLI child, or this process
        rss_kb = getattr(wl, "peak_rss_kb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": {"value": n / busy, "unit": "1/s"},
            "op_ms_p50": {"value": median_ms, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(tracer, wl, n_ops: int, median_ms: float) -> dict:
    """Per-layer numbers from the spans of this process and of traced CLI children."""
    all_spans = list(tracer.spans)
    children = getattr(wl, "child_reports", [])
    for rep in children:
        base = len(all_spans)
        for s in rep["spans"]:
            s = dict(s)
            if s["parent"] is not None:
                s["parent"] += base
            all_spans.append(s)
    child_time = [0.0] * len(all_spans)
    for s in all_spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    timed = lambda s: s["op"] is not None and s["op"] >= 0  # noqa: E731
    counted = lambda s: timed(s) and s["op"] < wl.count_ops  # noqa: E731

    def self_ms(layer, pick=timed, tag=None):
        return 1e3 * sum(
            s["end"] - s["start"] - child_time[k]
            for k, s in enumerate(all_spans)
            if s["name"] == layer and pick(s) and (tag is None or s["tag"] == tag)
        )

    def count(layer, key=None):
        hits = [s for s in all_spans if s["name"] == layer and counted(s)]
        return sum(s.get(key, 0) for s in hits) if key else len(hits)

    solve_ms = self_ms("sdp.solve")
    iters_all = sum(s["iters"] for s in all_spans if s["name"] == "sdp.solve" and timed(s))
    solves = count("sdp.solve")
    sampler_calls = [s["end"] - s["start"] for s in all_spans if s["name"] == "devices.sample"]
    cli_ops = [r for r in children if r["op"] >= 0]
    import_ms = sum(r["import_ms"] for r in cli_ops)
    main_ms = sum(r["main_ms"] for r in cli_ops)
    wall_ms = sum(r["wall_s"] * 1e3 for r in cli_ops)
    k = wl.count_ops
    out = {
        "sdp.solve_ms": ("ms/op", solve_ms / n_ops),
        **{f"sdp.solve_ms.{shape}": ("ms/op", self_ms("sdp.solve", tag=shape) / n_ops)
           for shape in workloads.SHAPES},
        "sdp.embed_ms": ("ms/op", self_ms("sdp.embed") / n_ops),
        "sdp.solves": ("count/op", solves / k),
        "sdp.iters": ("count/op", count("sdp.solve", "iters") / k),
        "sdp.ms_per_iter": ("ms", solve_ms / iters_all if iters_all else 0.0),
        "sdp.real_dim": ("count/solve", count("sdp.solve", "real_dim") / solves if solves else 0.0),
        "compatibility.build_ms": ("ms/op", self_ms("compatibility.build") / n_ops),
        "compatibility.verify_ms": ("ms/op", self_ms("compatibility.verify") / n_ops),
        "games.pguess_ms": ("ms/op", self_ms("games.pguess") / n_ops),
        "games.witness_ms": ("ms/op", self_ms("games.witness") / n_ops),
        "simulation.seesaw_ms": ("ms/op", self_ms("simulation.seesaw") / n_ops),
        "sem.compress_ms": ("ms/op", self_ms("sem.compress") / n_ops),
        "io.read_ms": ("ms/op", self_ms("io.read") / n_ops),
        "io.write_ms": ("ms/op", self_ms("io.write") / n_ops),
        "io.bytes_read": ("bytes/op", count("io.read", "bytes") / k),
        "io.bytes_written": ("bytes/op", count("io.write", "bytes") / k),
        "cli.import_ms": ("ms/op", import_ms / n_ops if cli_ops else 0.0),
        "cli.main_ms": ("ms/op", self_ms("cli.main") / n_ops),
        "cli.startup_ms": ("ms/op", (wall_ms - import_ms - main_ms) / n_ops if cli_ops else 0.0),
        "devices.sample_ms": ("ms", 1e3 * statistics.mean(sampler_calls) if sampler_calls else 0.0),
        "trace.op_ms_p50": ("ms", median_ms),
    }
    return {name: {"value": v, "unit": u} for name, (u, v) in out.items()}


if __name__ == "__main__":
    sys.exit(main())
