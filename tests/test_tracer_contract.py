"""The benchmark's tracer (``bench/spans.py``) reaches into pidlab by name.

Run in a fresh interpreter, as the benchmark does: every entry of its
``LAYERS`` must resolve and be wrapped, and the ``sdp.solve`` spans must
carry the iteration count and the real dimension of the problem solved.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SCRIPT = r"""
import importlib.util, json, sys

sys.dont_write_bytecode = True  # leave bench/ as it is
root = sys.argv[1]
sys.path.insert(0, root + "/src")
import pidlab, pidlab.cli, pidlab.io, pidlab.presets  # what the benchmark loads

sdp = sys.modules["pidlab.sdp"]
solved = []
inner_solve = sdp.solve


def recording_solve(problem, opts=None):
    sol = inner_solve(problem, opts)
    solved.append({"iters": sol.iterations, "real_dim": sum(d for _, d in problem.blocks)})
    return sol


sdp.solve = recording_solve
spec = importlib.util.spec_from_file_location("spans", root + "/bench/spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)

unwrapped = []
for layer, modname, attr in spans.LAYERS:
    owner, name = sys.modules[modname], attr
    if "." in attr:
        cls, name = attr.split(".")
        owner = vars(getattr(owner, cls))
        fn = owner[name]
    else:
        fn = getattr(owner, name)
    if not hasattr(fn, "__wrapped__"):
        unwrapped.append(attr)

p = pidlab.io.read_device(sys.argv[2])
cert = sys.modules["pidlab.compatibility"].roi(p)
names = [s["name"] for s in tracer.spans]
solves = [
    {"iters": s.get("iters"), "real_dim": s.get("real_dim"),
     "parent": names[s["parent"]] if s["parent"] is not None else None}
    for s in tracer.spans if s["name"] == "sdp.solve"
]
print(json.dumps({
    "unwrapped": unwrapped, "solved": solved, "solves": solves, "names": sorted(set(names)),
    "shape": [p.n_programs, p.n_outcomes, p.block_dim], "r": cert.r,
}))
"""


def test_spans_resolve_and_count_solves():
    fixture = os.path.join(ROOT, "tests", "fixtures", "entangled_xz_assemblage.json")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, ROOT, fixture],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["unwrapped"] == []
    n_programs, n_outcomes, d = out["shape"]
    # roi() is one robustness primal: a block per response function and per
    # (program, outcome) slack
    real_dim = (n_outcomes**n_programs + n_programs * n_outcomes) * d
    assert out["solved"] == [{"iters": out["solved"][0]["iters"], "real_dim": real_dim}]
    assert out["solves"] == [dict(out["solved"][0], parent="sdp.embed")]
    assert out["solved"][0]["iters"] > 0
    assert {"sdp.embed", "compatibility.build", "compatibility.verify"} <= set(out["names"])
