"""Repeat ``run.py`` over several seeds and report each metric's median and quartiles.

Usage::

    python3 bench/spread.py --workload witness-games --seeds 1-10 [--seconds 30] [--trace 0]

Runs one after another (never in parallel, so runs do not share cores) and
prints, per metric, the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``.  The raw result lines go to ``--log`` if given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log")
    args = ap.parse_args()
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        line = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()[-1]
        res = json.loads(line)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        if args.log:
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"seed": seed, **res}) + "\n")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
