"""Self-test of the benchmark's correctness checks.

Usage: ``python3 bench/selfcheck.py``.  Runs one real op of
``robustness-grid`` and three real ``cli-session`` commands, requires the
checks to accept them, then corrupts each output the way a faulty program
could and requires the named check to reject it:

* ``r`` shifted by 1e-4                -> ``dual_value_vs_r``
* ``alpha`` given a negative eigenvalue -> ``alpha_psd``
* the simple mixture off by 1e-6        -> ``mix_routing``
* a flipped exit code                   -> ``exit_code``
* a non-canonical device file           -> ``canonical``

Exits 0 when every case behaves, 1 otherwise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SEED = 7


def _replace_cert(out, shape, **changes):
    return [
        (s, p, dataclasses.replace(c, **changes) if s == shape else c) for s, p, c in out
    ]


def _negative_alpha(alpha: np.ndarray) -> np.ndarray:
    """Push the smallest eigenvalue of ``alpha[0, 0]`` to -1e-5."""
    vals, vecs = np.linalg.eigh(alpha[0, 0])
    v = vecs[:, 0]
    bad = alpha.copy()
    bad[0, 0] = alpha[0, 0] - (vals[0] + 1e-5) * np.outer(v, v.conj())
    return bad


def _shifted_mix(cert) -> object:
    blocks = np.array(cert.simple_mix.blocks)
    blocks[0, 0, 0, 0] += 1e-6
    return type(cert.simple_mix)(cert.simple_mix.din, cert.simple_mix.dout, blocks)


def main() -> int:
    workloads.load_pidlab()
    results = []

    def case(label, problems, expect):
        ok = (not problems) if expect is None else any(f"{expect}=" in p for p in problems)
        results.append(ok)
        verdict = "accepted" if not problems else f"rejected ({problems[0]})"
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {verdict}")

    grid = workloads.RobustnessGrid()
    grid.setup(SEED, None)
    out = grid.op(0)
    case("robustness-grid real op", grid.check(out), None)
    shape = "qubit-2x2"
    cert = next(c for s, _, c in out if s == shape)
    case("r shifted by 1e-4", grid.check(_replace_cert(out, shape, r=cert.r + 1e-4)), "dual_value_vs_r")
    case("alpha with a negative eigenvalue",
         grid.check(_replace_cert(out, shape, alpha=_negative_alpha(cert.alpha))), "alpha_psd")
    case("mixture off by 1e-6",
         grid.check(_replace_cert(out, shape, simple_mix=_shifted_mix(cert))), "mix_routing")

    cli = workloads.CliSession()
    cli.setup(SEED, None)
    try:
        sample = cli.op(0)
        case("cli sample pid real output", cli.check(sample), None)
        verdict = cli.op(3)  # simplicity of the steered device: exit 1
        case("cli simplicity (exit 1) real output", cli.check(verdict), None)
        case("flipped exit code", cli.check(dataclasses.replace(verdict, exit_code=1 - verdict.exit_code)),
             "exit_code")
        text = sample.files["sampled.json"]
        loose = json.dumps(json.loads(text), indent=1) + "\n"
        case("non-canonical file",
             cli.check(dataclasses.replace(sample, files={"sampled.json": loose})), "canonical")
    finally:
        cli.close()
    print(f"{sum(results)}/{len(results)} self-test cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
