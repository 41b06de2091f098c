"""The three workloads: seeded inputs, one op, and the checks on its output.

Every workload is a single-client closed loop: the next op starts when the
previous one has returned.  An op's inputs depend only on ``(seed, op
index)``, so every run with the same seed replays the same op sequence.
pidlab is imported lazily by :func:`load_pidlab`, after ``run.py`` has fixed
the BLAS thread count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
from typing import Callable

import numpy as np

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURES = "tests/fixtures"

# (name, din, dout, programs, outcomes, base device).  Each op sees its base
# device under a fresh seeded local unitary, U_in on the input and U_out on
# the output: the numbers change, so nothing can be cached, while the
# robustness stays that of the base device.  Fixed base devices keep clear of
# the simple boundary, where roi_primal fails now and then (see CHANGES.md).
GRID = (
    ("qubit-2x2", 2, 2, 2, 2, "pid"),
    ("qubit-2x2-simple", 2, 2, 2, 2, "simple"),
    ("qubit-3x3", 2, 2, 3, 3, "pid"),
    ("qutrit-2x2", 3, 3, 2, 2, "pid"),
    ("qubit-qutrit-4x2", 2, 3, 4, 2, "pid"),
    ("mub-qutrit", 1, 3, 2, 3, "mub"),
)
SHAPES = tuple(g[0] for g in GRID)
BASE_SEED = 1  # sampler seed of every base device

# Distinct inputs per run; op i uses pool entry i % POOL, and the warm-up
# op uses one more entry, index POOL, that no timed op sees.
POOL = 48
SCHEDULE = (8, 64, 512)
# Two full see-saw sweeps per restart: the early stop only decides whether a
# third sweep runs, so every op does the same see-saw work.
SEESAW = {"restarts": 2, "iters": 2}
CMD_TIMEOUT_S = 120.0


def device_seed(seed: int, op: int, k: int = 0) -> int:
    return (seed * 1_000_003 + op) * 16 + k


def pool_index(i: int) -> int:
    return i if i == POOL else i % POOL


def load_pidlab():
    if not os.path.isfile(os.path.join(SRC, "pidlab", "__init__.py")):
        raise FileNotFoundError(f"pidlab sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import pidlab  # noqa: F401
    import pidlab.cli  # noqa: F401
    import pidlab.io  # noqa: F401
    import pidlab.presets  # noqa: F401


def _mod(name: str):
    # ``import pidlab.sem`` binds the function ``sem``; go through sys.modules.
    return sys.modules[name]


def mub_qutrit_assemblage():
    """Assemblage ``P^T / 3`` of the computational and Fourier bases of a qutrit.

    Its robustness is ``(sqrt 3 - 1)/(sqrt 3 + 1)``, and a local unitary keeps it so.
    """
    w = np.exp(2j * np.pi / 3)
    fourier = np.array([[w ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    bases = (np.eye(3, dtype=complex), fourier)
    proj = np.array([[np.outer(b[:, k], b[:, k].conj()) for k in range(3)] for b in bases])
    return _mod("pidlab.devices").Pid(1, 3, proj.transpose(0, 1, 3, 2) / 3)


def base_device(kind: str, dims):
    dev = _mod("pidlab.devices")
    if kind == "pid":
        return dev.random_pid(*dims, seed=BASE_SEED)
    if kind == "simple":
        return dev.random_simple_pid(*dims, seed=BASE_SEED).pid
    return mub_qutrit_assemblage()


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate(p, seed: int):
    """``p`` pre-processed by ``U_in`` and post-processed by ``U_out``, both Haar-random.

    On input-major Choi blocks this is ``J -> W J W^dagger`` with
    ``W = U_in^T (x) U_out``.
    """
    rng = np.random.default_rng(seed)
    w = np.kron(_haar(rng, p.din).T, _haar(rng, p.dout))
    return type(p)(p.din, p.dout, w @ p.blocks @ w.conj().T)


# ---------------------------------------------------------------------------
# robustness-grid
# ---------------------------------------------------------------------------


class RobustnessGrid:
    """``roi_primal`` then ``verify_roi_certificate`` on one fresh device per grid shape."""

    name = "robustness-grid"
    round_ops = 1
    count_ops = 3

    def setup(self, seed: int, tracer) -> None:
        bases = [base_device(kind, dims) for _, *dims, kind in GRID]
        self.pool = [
            [rotate(b, device_seed(seed, i, k)) for k, b in enumerate(bases)]
            for i in range(POOL + 1)
        ]
        self.tracer = tracer
        self.first_r: dict[str, float] = {}

    def warmup_index(self) -> int:
        return POOL

    def op(self, i: int):
        comp = _mod("pidlab.compatibility")
        out = []
        for shape, p in zip(SHAPES, self.pool[pool_index(i)]):
            if self.tracer is not None:
                self.tracer.tag = shape
            cert = comp.roi_primal(p)
            comp.verify_roi_certificate(p, cert)
            out.append((shape, p, cert))
        if self.tracer is not None:
            self.tracer.tag = None
        return out

    def check(self, out) -> list[str]:
        bad = []
        for shape, p, cert in out:
            bad += checks.failures(roi_cert_defects(p, cert), f"{shape}: ")
            first = self.first_r.setdefault(shape, cert.r)
            bad += checks.failures({"rotation_invariance": abs(cert.r - first)}, f"{shape}: ")
            if shape == "qubit-2x2-simple":
                bad += checks.failures({"simple_r": cert.r}, f"{shape}: ")
            if shape == "mub-qutrit":
                bad += checks.failures({"mub_r": abs(cert.r - checks.mub_roi(3))}, f"{shape}: ")
        return bad


def roi_cert_defects(p, cert) -> dict[str, float]:
    """Both certificate sides of a ``RoiCertificate`` from ``roi_primal`` or ``roi``."""
    strategies = cert.simplicity.strategies
    branches = np.stack([b.mat for b in cert.simplicity.mother.branches])
    return {
        **checks.primal_defects(
            p.blocks, p.din, p.dout, cert.r, cert.simple_mix.blocks,
            [f.mapping for f in strategies], branches,
        ),
        **checks.dual_defects(p.blocks, p.din, p.dout, cert.r, cert.alpha, cert.beta),
    }


# ---------------------------------------------------------------------------
# witness-games
# ---------------------------------------------------------------------------


class WitnessGames:
    """Ratio schedule, see-saw, post-information chain and compression on one qubit-2x2 device.

    The device is the ``qubit-2x2`` base device of the grid under a fresh
    seeded local unitary.
    """

    name = "witness-games"
    round_ops = 1
    count_ops = 6

    def setup(self, seed: int, tracer) -> None:
        base = base_device("pid", (2, 2, 2, 2))
        self.pool = [rotate(base, device_seed(seed, i)) for i in range(POOL + 1)]
        self.seeds = [device_seed(seed, i, 1) for i in range(POOL + 1)]
        self.povm = _mod("pidlab.presets").pauli_tetrahedron_povm()

    def warmup_index(self) -> int:
        return POOL

    def op(self, i: int) -> dict:
        games = _mod("pidlab.games")
        sim = _mod("pidlab.simulation")
        sem = _mod("pidlab.sem")
        p = self.pool[pool_index(i)]
        report = games.verify_robustness_bound(p, schedule=SCHEDULE)
        cert = _mod("pidlab.compatibility").roi(p)
        game = games.witness_game(cert, n_dummy=SCHEDULE[0])
        simple = games.pguess_simple(game)
        seesaw = sim.seesaw_pguess(p, game, seed=self.seeds[pool_index(i)], **SEESAW)
        frame = games.ic_dual_frame(self.povm).solve(cert.alpha)
        pigame = games.witness_ensemble(frame)
        pi_simple = games.pi_pguess_simple(pigame)
        pi_value = games.pi_game_value(pigame, p)
        family = sem.sem(p)
        rebuilt = sem.reconstruct_pid(sem.canonical_dilation(p), family)
        monotone = sem.sem_monotone_value(p)
        return dict(
            p=p, report=report, cert=cert, game=game, simple=simple, seesaw=seesaw,
            frame=frame, pigame=pigame, pi_simple=pi_simple, pi_value=pi_value,
            family=family, rebuilt=rebuilt, monotone=monotone,
        )

    def check(self, o: dict) -> list[str]:
        p, cert, rep, game = o["p"], o["cert"], o["report"], o["game"]
        r = cert.r
        bad = checks.failures(roi_cert_defects(p, cert), "roi: ")
        # ratio schedule
        for n, ratio, lo, be in zip(rep.schedule, rep.ratios, rep.lower_bounds, rep.benchmarks):
            bad += checks.failures(
                {
                    "ratio_identity": abs(ratio - lo / be),
                    "ratio_floor": max(0.0, 1.0 - ratio),
                    "ratio_cap": max(0.0, ratio - (1.0 + rep.roi)),
                },
                f"schedule {n}: ",
            )
        bad += checks.failures({"cap_violations": float(rep.cap_violations)}, "schedule: ")
        # the simple benchmark strategy of the 8-dummy game
        strat = o["simple"].strategy
        bad += checks.failures(
            {
                **checks.pid_defects(strat.blocks, strat.din, strat.dout),
                "score_match": abs(checks.score(game.effects, strat.blocks, game.d_ref) - o["simple"].value),
                "witness_on_simple": max(0.0, checks.witness_value(
                    cert.alpha, _merge_dummies(strat.blocks, p.n_outcomes), p.din)),
            },
            "pguess_simple: ",
        )
        # see-saw: a free simulation whose score is capped by (1 + r) * benchmark
        f = o["seesaw"].simulation
        shape = dataclasses.asdict(f.shape)
        post = [b.mat for b in f.post.branches]
        p_t, q_t = f.p_cc.table, f.q_cc.table
        reached = checks.apply_simulation(shape, f.pre.mat, post, p_t, q_t, p.blocks)
        reached_score = checks.score(game.effects, reached, game.d_ref)
        bad += checks.failures(
            {
                **checks.simulation_defects(shape, f.pre.mat, post, p_t, q_t),
                "score_match": abs(reached_score - o["seesaw"].value),
                "seesaw_cap": max(0.0, reached_score - (1.0 + r) * o["simple"].value),
            },
            "seesaw: ",
        )
        # post-information chain
        pig, pis = o["pigame"], o["pi_simple"]
        ens, povm = pig.ensemble, pig.povm_l.effects
        s_blocks = pis.strategy.blocks
        device_score = checks.pi_score(ens, povm, p.blocks)
        bad += checks.failures(
            {
                "frame_residual": checks.frame_residual(o["frame"].operators, povm, cert.alpha),
                "povm_valid": max(
                    checks.neg_eig(ens),
                    abs(float(np.real(np.trace(ens, axis1=-2, axis2=-1).sum())) - 1.0),
                ),
                **checks.pid_defects(s_blocks, p.din, p.dout),
                "score_match": max(
                    abs(checks.pi_score(ens, povm, s_blocks) - pis.value),
                    abs(device_score - o["pi_value"]),
                ),
                "witness_on_simple": max(0.0, checks.witness_value(cert.alpha, s_blocks, p.din)),
                "pi_cap": max(0.0, device_score - (1.0 + r) * pis.value),
            },
            "post-information: ",
        )
        # compression
        simple_dev = r <= checks.LIMITS["simple_r"]
        compatible = o["monotone"] <= checks.LIMITS["simple_r"]
        decided = all(abs(math.log10(max(v, 1e-300) / checks.LIMITS["simple_r"])) >= 1.0
                      for v in (r, o["monotone"]))
        bad += checks.failures(
            {
                **checks.pmd_defects(o["family"].pmd.effects),
                "reconstruct": float(np.abs(o["rebuilt"].blocks - p.blocks).max()),
                "faithful": float(decided and simple_dev != compatible),
            },
            "sem: ",
        )
        return bad


def _merge_dummies(blocks: np.ndarray, n_real: int) -> np.ndarray:
    """Coarse-grain every dummy outcome into outcome 0 (a simple device stays simple)."""
    merged = blocks[:, :n_real].copy()
    merged[:, 0] += blocks[:, n_real:].sum(axis=1)
    return merged


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Command:
    argv: list[str]
    exit_code: int
    check: Callable[["CliSession", "CommandResult"], dict] | None = None
    writes: tuple[str, ...] = ()  # session files the check reads back


@dataclasses.dataclass
class CommandResult:
    argv: list[str]
    exit_code: int
    stdout: str
    files: dict[str, str]


class CliSession:
    """One ``pidlab`` command per op, each in a fresh interpreter."""

    name = "cli-session"

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.peak_rss_kb = 0
        self.dir = os.path.join("bench", "out", f"session-{os.getpid()}")
        os.makedirs(os.path.join(ROOT, self.dir), exist_ok=True)
        self.script = self._script()
        self.round_ops = self.count_ops = len(self.script)
        self.sample_bytes = None
        self.child_reports: list[dict] = []
        with open(os.path.join(ROOT, FIXTURES, "entangled_xz_assemblage.json"), encoding="utf-8") as fh:
            self.fixture_xz = checks.pid_from_file(json.load(fh))

    def close(self) -> None:
        for name in os.listdir(os.path.join(ROOT, self.dir)):
            os.remove(os.path.join(ROOT, self.dir, name))
        os.rmdir(os.path.join(ROOT, self.dir))

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _script(self) -> list[Command]:
        fx = lambda name: f"{FIXTURES}/{name}.json"  # noqa: E731
        d = self._path
        xz = fx("entangled_xz_assemblage")
        return [
            Command(["--seed", str(self.seed), "sample", "pid", "--out", d("sampled.json")], 0,
                    _check_sample, ("sampled.json",)),
            Command(["validate", d("sampled.json")], 0, _check_valid),
            Command(["simplicity", fx("simple_device")], 0),
            Command(["simplicity", fx("steered_device")], 1),
            Command(["--json", "roi", xz], 0, _check_xz_roi),
            Command(["roi", xz, "--certificate", d("certificate.json")], 0, _check_certificate,
                    ("certificate.json",)),
            Command(["--json", "roi", xz, "--dual"], 0, _check_xz_roi),
            Command(["sem", fx("steered_device"), "--out", d("family.json")], 0, _check_family,
                    ("family.json",)),
            Command(["validate", d("family.json")], 0, _check_valid),
            Command(["steer", fx("product_broadcast"), fx("xz_pair"), "--out", d("steered.json")], 0,
                    _check_written_pid("steered.json"), ("steered.json",)),
            Command(["simulate", fx("random_transformation"), fx("steered_device"),
                     "--out", d("simulated.json")], 0, _check_written_pid("simulated.json"),
                    ("simulated.json",)),
            Command(["--json", "pguess-simple", fx("xz_witness_game")], 0, _check_probability),
            Command(["--json", "witness", xz, "--out", d("witness.json")], 0, _check_witness,
                    ("witness.json",)),
            Command(["--json", "verify-bound", xz, "--schedule", ",".join(map(str, SCHEDULE)),
                     "--csv", d("bound.csv")], 0, _check_bound, ("bound.csv",)),
            Command(["--json", "pi-witness", xz, "--ic-povm", fx("tetrahedron_povm"),
                     "--out", d("pigame.json")], 0, _check_pigame, ("pigame.json",)),
            Command(["--json", "pi-value", d("pigame.json"), xz], 0, _check_pi_value),
        ]

    def warmup_index(self) -> int:
        return 0

    def op(self, i: int) -> CommandResult:
        cmd = self.script[i % len(self.script)]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        report_path = None
        if self.tracer is not None:
            report_path = os.path.join(ROOT, self._path(f"spans-{i}.json"))
            env["BENCH_SPANS"] = report_path
            env["BENCH_OP"] = str(self.tracer.op)
            argv = [sys.executable, os.path.join(BENCH_DIR, "cli_launcher.py"), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "pidlab.cli", *cmd.argv]
        for name in cmd.writes:  # a stale file from the last round must not pass for new output
            if os.path.exists(os.path.join(ROOT, self._path(name))):
                os.remove(os.path.join(ROOT, self._path(name)))
        out_path = os.path.join(ROOT, self._path("stdout.txt"))
        with open(out_path, "w", encoding="utf-8") as out, open(os.devnull, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            watchdog = threading.Timer(CMD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode == 3 != cmd.exit_code:
            raise ArithmeticError(f"pidlab {' '.join(cmd.argv)} exited 3 (numerical failure)")
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        files = {}
        for name in cmd.writes:
            path = os.path.join(ROOT, self._path(name))
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    files[name] = fh.read()
        if report_path is not None and os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                rep = json.load(fh)
            os.remove(report_path)
            rep["wall_s"] = wall
            rep["op"] = self.tracer.op
            self.child_reports.append(rep)
        return CommandResult(cmd.argv, proc.returncode, stdout, files)

    def check(self, res: CommandResult) -> list[str]:
        cmd = next(c for c in self.script if c.argv == res.argv)
        where = f"{' '.join(res.argv)}: "
        defects = {
            "exit_code": float(res.exit_code != cmd.exit_code),
            "output_format": float(any(name not in res.files for name in cmd.writes)),
        }
        for name, text in res.files.items():
            if name.endswith(".json"):
                defects["canonical"] = max(defects.get("canonical", 0.0), checks.canonical_defect(text))
        if res.exit_code == cmd.exit_code and cmd.check is not None:
            try:
                defects.update(cmd.check(self, res))
            except (ValueError, KeyError, IndexError, StopIteration):  # output not as documented
                defects["output_format"] = 1.0
        return checks.failures(defects, where)


def _check_sample(wl: CliSession, res: CommandResult) -> dict:
    text = res.files["sampled.json"]
    if wl.sample_bytes is None:
        wl.sample_bytes = text
    blocks, din, dout = checks.pid_from_file(json.loads(text))
    return {"same_bytes": float(text != wl.sample_bytes), **checks.pid_defects(blocks, din, dout)}


def _check_valid(wl, res) -> dict:
    return {"exit_code": float("valid: True" not in res.stdout)}


def _check_xz_roi(wl, res) -> dict:
    return {"xz_r": abs(json.loads(res.stdout)["roi"] - checks.XZ_ROI)}


def _check_certificate(wl, res) -> dict:
    roi = float(next(line for line in res.stdout.splitlines() if line.startswith("roi:")).split()[1])
    doc = json.loads(res.files["certificate.json"])
    blocks, din, dout = wl.fixture_xz
    alpha = checks.decode_matrix(doc["alpha"])
    beta = checks.decode_matrix(doc["beta"])
    return {"xz_r": abs(roi - checks.XZ_ROI), **checks.dual_defects(blocks, din, dout, roi, alpha, beta)}


def _check_family(wl, res) -> dict:
    doc = json.loads(res.files["family.json"])
    return checks.pmd_defects(checks.decode_matrix(doc["effects"]))


def _check_written_pid(name: str):
    def check(wl, res) -> dict:
        blocks, din, dout = checks.pid_from_file(json.loads(res.files[name]))
        return checks.pid_defects(blocks, din, dout)

    return check


def _check_probability(wl, res) -> dict:
    value = json.loads(res.stdout)["value"]
    return {"ratio_floor": max(0.0, -value, value - 1.0)}


def _check_witness(wl, res) -> dict:
    out = json.loads(res.stdout)
    doc = json.loads(res.files["witness.json"])
    eff = checks.decode_matrix(doc["effects"])
    dim = eff.shape[-1]
    return {
        "xz_r": abs(out["roi"] - checks.XZ_ROI),
        "ratio_floor": max(0.0, 1.0 - out["ratio"]),
        "ratio_cap": max(0.0, out["ratio"] - (1.0 + out["roi"])),
        "povm_valid": max(checks.neg_eig(eff), float(np.abs(eff.sum(axis=(0, 1)) - np.eye(dim)).max())),
    }


def _check_bound(wl, res) -> dict:
    out = json.loads(res.stdout)
    rows = res.files["bound.csv"].splitlines()
    body = [dict(zip(rows[0].split(","), map(float, row.split(",")))) for row in rows[1:]]
    cap = max(max(0.0, b["ratio"] - (1.0 + b["roi"])) for b in body)
    identity = max(abs(b["ratio"] - b["lower_bound"] / b["benchmark"]) for b in body)
    return {
        "cap_violations": float(out["cap_violations"]),
        "csv_rows": float(rows[0] != "n_dummy,ratio,lower_bound,benchmark,roi"
                          or [int(b["n_dummy"]) for b in body] != list(SCHEDULE)),
        "ratio_cap": cap,
        "ratio_identity": identity,
        "xz_r": abs(out["roi"] - checks.XZ_ROI),
    }


def _pigame_arrays(text: str):
    doc = json.loads(text)
    return checks.decode_matrix(doc["ensemble"]), checks.decode_matrix(doc["povm_l"]["effects"])


def _check_pigame(wl, res) -> dict:
    ens, povm = _pigame_arrays(res.files["pigame.json"])
    return {
        "xz_r": abs(json.loads(res.stdout)["roi"] - checks.XZ_ROI),
        "povm_valid": max(
            checks.neg_eig(ens),
            abs(float(np.real(np.trace(ens, axis1=-2, axis2=-1).sum())) - 1.0),
        ),
    }


def _check_pi_value(wl, res) -> dict:
    with open(os.path.join(ROOT, wl._path("pigame.json")), encoding="utf-8") as fh:
        ens, povm = _pigame_arrays(fh.read())
    blocks, _, _ = wl.fixture_xz
    return {"score_match": abs(json.loads(res.stdout)["value"] - checks.pi_score(ens, povm, blocks))}


WORKLOADS = {w.name: w for w in (RobustnessGrid, WitnessGames, CliSession)}
