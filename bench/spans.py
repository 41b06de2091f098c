"""Outside-in spans around pidlab's public functions.

:func:`install` wraps each function in :data:`LAYERS` and rebinds every
module attribute in ``sys.modules`` that holds it, so modules that imported
a function by name (``games.roi``, ``cli.roi_primal``) see the wrapper too.
Modules are reached through ``sys.modules`` because ``import pidlab.sem``
yields the function ``sem``, which the package re-exports over its
submodule.  Each call records one span in memory; :meth:`Tracer.dump`
writes them out when the run ends.

Only the standard library is imported here, so the traced CLI launcher can
install the wrappers without changing what the child imports.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (layer, module, attribute); ``Class.method`` names patch the class.
LAYERS = (
    ("sdp.solve", "pidlab.sdp", "solve"),
    ("sdp.embed", "pidlab.sdp", "ComplexSdpBuilder.solve"),
    ("compatibility.build", "pidlab.compatibility", "roi_primal"),
    ("compatibility.build", "pidlab.compatibility", "roi_dual"),
    ("compatibility.build", "pidlab.compatibility", "roi"),
    ("compatibility.verify", "pidlab.compatibility", "verify_roi_certificate"),
    ("games.pguess", "pidlab.games", "pguess_simple"),
    ("games.pguess", "pidlab.games", "pi_pguess_simple"),
    ("games.witness", "pidlab.games", "verify_robustness_bound"),
    ("games.witness", "pidlab.games", "witness_game"),
    ("games.witness", "pidlab.games", "ic_dual_frame"),
    ("games.witness", "pidlab.games", "DualFrameSolver.solve"),
    ("games.witness", "pidlab.games", "witness_ensemble"),
    ("simulation.seesaw", "pidlab.simulation", "seesaw_pguess"),
    ("sem.compress", "pidlab.sem", "sem"),
    ("sem.compress", "pidlab.sem", "canonical_dilation"),
    ("sem.compress", "pidlab.sem", "reconstruct_pid"),
    ("io.read", "pidlab.io", "read_device"),
    ("io.read", "pidlab.io", "loads"),
    ("io.write", "pidlab.io", "write_device"),
    ("io.write", "pidlab.io", "dumps"),
    ("cli.main", "pidlab.cli", "main"),
    ("devices.sample", "pidlab.devices", "random_pid"),
    ("devices.sample", "pidlab.devices", "random_simple_pid"),
)


def _solve_counts(args, out) -> dict:
    return {"iters": int(out.iterations), "real_dim": sum(d for _, d in args[0].blocks)}


def _file_bytes(args, out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _text_bytes(args, out) -> dict:
    return {"bytes": len(out.encode("utf-8"))}


# Bytes are counted once per file: ``read_device`` reports the file it read,
# and ``dumps`` the text that ``write_device`` (or the caller) writes.
COUNTERS = {
    ("pidlab.sdp", "solve"): _solve_counts,
    ("pidlab.io", "read_device"): _file_bytes,
    ("pidlab.io", "dumps"): _text_bytes,
}


class Tracer:
    """In-memory span recorder; spans of one op share ``op``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.tag: str | None = None

    def wrap(self, layer: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": layer,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "tag": self.tag,
            }
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if counter is not None:
                span.update(counter(args, out))
            return out

        return wrapper

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYERS`; pidlab must already be imported."""
    for layer, modname, attr in LAYERS:
        module = sys.modules[modname]
        counter = COUNTERS.get((modname, attr))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(layer, original, counter))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(layer, original, counter)
        for name, mod in list(sys.modules.items()):
            if name != "pidlab" and not name.startswith("pidlab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
