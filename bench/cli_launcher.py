"""Traced ``pidlab`` command: import the CLI, wrap its layers, run ``main``.

Usage: ``python bench/cli_launcher.py <pidlab arguments>`` with
``BENCH_SPANS`` naming the file that receives the spans and ``BENCH_OP``
the op id they carry.  The untraced benchmark runs ``python -m pidlab.cli``
instead, so nothing here is on the measured path of ``--trace 0``.
"""

import os
import sys
import time

import spans

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter()
    import pidlab.cli

    t1 = time.perf_counter()
    tracer = spans.Tracer()
    tracer.op = int(os.environ["BENCH_OP"])
    spans.install(tracer)
    t2 = time.perf_counter()
    code = sys.modules["pidlab.cli"].main(sys.argv[1:])
    t3 = time.perf_counter()
    tracer.dump(
        os.environ["BENCH_SPANS"],
        {"import_ms": (t1 - t0) * 1e3, "main_ms": (t3 - t2) * 1e3},
    )
    sys.exit(code)
