"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values tagged
as derived come from independent oracles implemented alongside the
assertions (analytic feasible/dual pairs, double-application, convex
combination, grid search); see tests/test_compatibility.py for the full
derivation of the benchmark constant.

Criterion 3 checks two robustness values of the X/Z benchmark device ``p``
(the assemblage ``M^T / 2`` of the X and Z measurements on ``phi_+ / 2``):

* Against arbitrary noise the robustness is ``3 - 2*sqrt(2)``, the two-MUB
  value ``(sqrt(d)-1)/(sqrt(d)+1)`` of Designolle et al. (NJP 21, 113053,
  2019); TestXZOracle in tests/test_compatibility.py pins it with analytic
  primal and dual points, and test_criterion_3_oracle_crosscheck checks it.
* Against trivial white noise ``N`` (blocks ``1 / (dout * n_outcomes)``) the
  mixture ``(p + r*N) / (1 + r)`` has blocks
  ``(eta * M^T + (1 - eta) * 1/2) / 2`` with ``eta = 1 / (1 + r)``: it is the
  assemblage of the unsharp measurements ``eta * M + (1 - eta) * 1/2``.
  Unsharp X and Z are jointly measurable exactly when ``eta <= 1/sqrt(2)``
  (Busch, Phys. Rev. D 33, 2253, 1986), so the smallest simple mixture sits
  at ``r = sqrt(2) - 1``; test_criterion_3_benchmark_value checks it.
"""

import numpy as np
import pytest

from pidlab.compatibility import (
    SIMPLE_TOL,
    is_compatible_pmd,
    is_simple_pid,
    roi_dual,
    roi_pmd,
    roi_primal,
)
from pidlab.devices import (
    Pid,
    SimulationShape,
    random_free_simulation,
    random_pid,
    random_simple_pid,
    tensor_pid,
)
from pidlab.games import verify_robustness_bound
from pidlab.linalg import max_abs
from pidlab.presets import maximally_entangled_assemblage, mub_pair_pmd, xz_pmd
from pidlab.sdp import SdpProblem, SdpStatus, SolveOptions, solve
from pidlab.sem import canonical_dilation, reconstruct_pid, sem, sem_monotone_value
from pidlab.simulation import (
    apply_free_simulation,
    compose_parallel,
    compose_sequential,
    mix,
)

QUBIT = dict(din=2, dout=2, n_programs=2, n_outcomes=2)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"[criterion {n}] FAIL - {detail}"


def _suite_devices():
    devices = []
    for seed in range(100):
        devices.append(("simple", random_simple_pid(seed=seed, **QUBIT).pid))
        devices.append(("generic", random_pid(seed=seed, **QUBIT)))
    return devices


@pytest.fixture(scope="module")
def suite():
    return _suite_devices()


def test_criterion_1_faithfulness(suite):
    disagreements = 0
    for kind, p in suite:
        verdict = is_simple_pid(p)
        zero_roi = verdict.r <= 1e-6
        compat = is_compatible_pmd(sem(p).pmd).compatible
        if not (verdict.simple == zero_roi == compat):
            disagreements += 1
        if kind == "simple" and not verdict.simple:
            disagreements += 1
    _verdict(
        1,
        disagreements == 0,
        f"membership, robustness threshold, and compressed-family compatibility "
        f"agree on {len(suite)} devices ({disagreements} disagreements)",
    )


def test_criterion_2_primal_dual_agreement(suite):
    worst = 0.0
    for _, p in suite:
        prim = roi_primal(p)
        dual = roi_dual(p)
        worst = max(worst, abs(prim.r - dual.r))
    _verdict(2, worst <= 1e-6, f"max primal-dual deviation {worst:.3e} (tol 1e-6)")


ROI_ROUTES = {
    "primal": lambda p: roi_primal(p).r,
    "dual": lambda p: roi_dual(p).r,
    "sem_pmd": lambda p: roi_pmd(sem(p).pmd).r,
}


@pytest.fixture(scope="module")
def benchmark_device():
    return maximally_entangled_assemblage(xz_pmd())


@pytest.fixture(scope="module")
def benchmark_routes(benchmark_device):
    return {name: route(benchmark_device) for name, route in ROI_ROUTES.items()}


def _white_noise_mixture(p: Pid, r: float) -> Pid:
    noise = np.eye(p.block_dim) / (p.dout * p.n_outcomes)
    return Pid(p.din, p.dout, (p.blocks + r * noise) / (1.0 + r))


def _white_noise_threshold(p: Pid, route) -> float:
    """Smallest ``r`` in [0, 1] whose white-noise mixture ``route`` finds simple, to 1e-5."""

    def simple(r: float) -> bool:
        return route(_white_noise_mixture(p, r)) <= SIMPLE_TOL

    lo, hi = 0.0, 1.0
    assert not simple(lo) and simple(hi), "white-noise bracket [0, 1] does not hold"
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if simple(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_3_benchmark_value(benchmark_device, benchmark_routes):
    r = benchmark_routes
    w = {
        name: _white_noise_threshold(benchmark_device, route)
        for name, route in ROI_ROUTES.items()
    }
    spread = max(w.values()) - min(w.values())
    stated = np.sqrt(2.0) - 1.0
    dev = max(abs(v - stated) for v in w.values())
    _verdict(
        3,
        spread <= 2e-4 and dev <= 2e-4,
        f"white-noise thresholds primal/dual/sem = "
        f"{w['primal']:.6f}/{w['dual']:.6f}/{w['sem_pmd']:.6f}, spread {spread:.1e}, "
        f"{dev:.1e} from sqrt(2)-1; arbitrary-noise robustness primal/dual/sem = "
        f"{r['primal']:.6f}/{r['dual']:.6f}/{r['sem_pmd']:.6f} "
        f"(3-2*sqrt(2); see tests/test_compatibility.py::TestXZOracle and "
        f"TestPmdCompatibility::test_visibility_threshold)",
    )


def test_criterion_3_oracle_crosscheck(benchmark_routes):
    # The derived value confirmed by the stated oracles: analytic primal and
    # dual certificates (tests/test_compatibility.py) pin 3 - 2*sqrt(2), and
    # all three computational routes land on it.
    exact = 3.0 - 2.0 * np.sqrt(2.0)
    dev = max(abs(v - exact) for v in benchmark_routes.values())
    print(
        f"[criterion 3 oracle] computed benchmark {benchmark_routes['primal']:.8f} "
        f"agrees with the certified value 3-2*sqrt(2) to {dev:.2e}"
    )
    assert dev <= 2e-4


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_mub_pair_closed_form(d):
    # two mutually unbiased bases: robustness (sqrt(d) - 1)/(sqrt(d) + 1)
    # (Designolle, Farkas and Kaniewski, NJP 21, 113053, 2019) on every route
    p = maximally_entangled_assemblage(mub_pair_pmd(d))
    exact = (np.sqrt(d) - 1.0) / (np.sqrt(d) + 1.0)
    got = {name: route(p) for name, route in ROI_ROUTES.items()}
    assert max(abs(v - exact) for v in got.values()) <= 1e-8, got


def test_criterion_4_transformation_suite():
    shape = SimulationShape(
        source_din=2, source_dout=2, source_programs=2, source_outcomes=2,
        target_din=2, target_dout=2, target_programs=2, target_outcomes=2,
        side_dim=2, n_branches=2, n_flags=2,
    )
    invalid = 0
    for i in range(500):
        p = (
            random_simple_pid(seed=9000 + i, **QUBIT).pid
            if i % 5 == 0
            else random_pid(seed=9000 + i, **QUBIT)
        )
        f = random_free_simulation(shape, seed=9500 + i)
        out = apply_free_simulation(f, p)
        if not out.is_valid(1e-8):
            invalid += 1
    simple_broken = 0
    for i in range(60):
        s = random_simple_pid(seed=9100 + i, **QUBIT).pid
        f = random_free_simulation(shape, seed=9600 + i)
        if not is_simple_pid(apply_free_simulation(f, s)).simple:
            simple_broken += 1
    comp_defect = 0.0
    for i in range(30):
        p = random_pid(seed=9200 + i, **QUBIT)
        f1 = random_free_simulation(shape, seed=9300 + i)
        f2 = random_free_simulation(shape, seed=9400 + i)
        seq = apply_free_simulation(compose_sequential(f2, f1), p).blocks
        two = apply_free_simulation(f2, apply_free_simulation(f1, p)).blocks
        comp_defect = max(comp_defect, max_abs(seq - two))
        m = mix([f1, f2], [0.3, 0.7])
        mixed = apply_free_simulation(m, p).blocks
        conv = 0.3 * apply_free_simulation(f1, p).blocks + 0.7 * apply_free_simulation(f2, p).blocks
        comp_defect = max(comp_defect, max_abs(mixed - conv))
    for i in range(10):
        pa = random_pid(seed=9700 + i, **QUBIT)
        pb = random_simple_pid(seed=9800 + i, **QUBIT).pid
        fa = random_free_simulation(
            SimulationShape(
                source_din=2, source_dout=2, source_programs=2, source_outcomes=2,
                target_din=2, target_dout=2, target_programs=2, target_outcomes=2,
                side_dim=1, n_branches=2, n_flags=2,
            ),
            seed=9900 + i,
        )
        fb = random_free_simulation(
            SimulationShape(
                source_din=2, source_dout=2, source_programs=2, source_outcomes=2,
                target_din=2, target_dout=2, target_programs=2, target_outcomes=2,
                side_dim=2, n_branches=1, n_flags=2,
            ),
            seed=9950 + i,
        )
        par = apply_free_simulation(compose_parallel(fa, fb), tensor_pid(pa, pb)).blocks
        wings = tensor_pid(
            apply_free_simulation(fa, pa), apply_free_simulation(fb, pb)
        ).blocks
        comp_defect = max(comp_defect, max_abs(par - wings))
    ok = invalid == 0 and simple_broken == 0 and comp_defect <= 1e-9
    _verdict(
        4,
        ok,
        f"500 transformed devices valid ({invalid} failures), simplicity preserved "
        f"({simple_broken} breaks), composition/mixture oracle defect {comp_defect:.2e}",
    )


def test_criterion_5_reconstruction_round_trip():
    worst = 0.0
    for i in range(50):
        env = [4, 2, 1][i % 3]
        p = random_pid(seed=9990 + i, env_dim=env, **QUBIT)
        recon = reconstruct_pid(canonical_dilation(p), sem(p))
        worst = max(worst, max_abs(recon.blocks - p.blocks))
    _verdict(5, worst <= 1e-7, f"50 round trips (marginal ranks 4/2/1), max defect {worst:.2e}")


def test_criterion_6_witness_ratio_schedule():
    schedule = (8, 64, 512)
    picked = []
    seed = 0
    while len(picked) < 20 and seed < 400:
        p = random_pid(seed=seed, **QUBIT)
        if roi_primal(p).r > 1e-4:
            picked.append(p)
        seed += 1
    assert len(picked) == 20
    violations = 0
    monotone_breaks = 0
    worst_gap = 0.0
    for p in picked:
        report = verify_robustness_bound(p, schedule=schedule)
        violations += report.cap_violations
        if any(
            report.ratios[i] > report.ratios[i + 1] + 1e-9
            for i in range(len(report.ratios) - 1)
        ):
            monotone_breaks += 1
        worst_gap = max(worst_gap, report.final_gap())
    simple_off = 0.0
    for s in range(5):
        rep = verify_robustness_bound(random_simple_pid(seed=s, **QUBIT).pid, schedule=schedule)
        violations += rep.cap_violations
        simple_off = max(simple_off, max(abs(x - 1.0) for x in rep.ratios))
    ok = violations == 0 and monotone_breaks == 0 and worst_gap <= 0.01 and simple_off <= 1e-5
    _verdict(
        6,
        ok,
        f"20 non-simple devices: monotone schedules ({monotone_breaks} breaks), "
        f"cap violations {violations}, final gap {worst_gap:.4f} (<= 1%); "
        f"simple devices stay at ratio 1 within {simple_off:.1e}",
    )


def test_criterion_7_monotone_under_transformations():
    shape = SimulationShape(
        source_din=2, source_dout=2, source_programs=2, source_outcomes=2,
        target_din=2, target_dout=2, target_programs=2, target_outcomes=2,
        side_dim=2, n_branches=2, n_flags=2,
    )
    increases = 0
    worst = -np.inf
    for i in range(100):
        p = random_pid(seed=700 + (i // 5), **QUBIT)
        base = sem_monotone_value(p)
        f = random_free_simulation(shape, seed=10_000 + i)
        after = sem_monotone_value(apply_free_simulation(f, p))
        worst = max(worst, after - base)
        if after > base + 1e-5:
            increases += 1
    _verdict(
        7,
        increases == 0,
        f"100 transformations: compressed-family robustness never rose "
        f"(max increase {worst:.2e}, tol 1e-5)",
    )


def test_criterion_8_solver_suite():
    rng = np.random.default_rng(np.random.Philox(777))
    opts = SolveOptions()
    failures = []
    for trial in range(50):
        nblk = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(nblk)]
        m = int(rng.integers(2, 7))

        def rsym(n):
            a = rng.standard_normal((n, n))
            return (a + a.T) / 2

        def rspd(n):
            a = rng.standard_normal((n, n + 2))
            return a @ a.T + 0.1 * np.eye(n)

        a_rows = [tuple(rsym(d) for d in dims) for _ in range(m)]
        x0 = [rspd(d) for d in dims]
        s0 = [rspd(d) for d in dims]
        y0 = rng.standard_normal(m)
        b = [
            sum(float(np.sum(a_rows[i][k] * x0[k])) for k in range(nblk))
            for i in range(m)
        ]
        c = tuple(
            sum(y0[i] * a_rows[i][k] for i in range(m)) + s0[k] for k in range(nblk)
        )
        rows = np.arange(m)
        p = SdpProblem(
            blocks=tuple((f"b{k}", dims[k]) for k in range(nblk)),
            objective=c,
            columns=[(rows, rows, np.array([row[k] for row in a_rows])) for k in range(nblk)],
            rhs=b,
        )
        sol = solve(p, opts)
        if (
            sol.status is not SdpStatus.OPTIMAL
            or sol.primal_residual > 1e-8
            or sol.dual_residual > 1e-8
            or sol.dual_value > sol.primal_value + 1e-9
            or min(np.linalg.eigvalsh(xb)[0] for xb in sol.primal_blocks) < -1e-8
        ):
            failures.append(trial)
    # grid oracle on two-parameter 2x2 feasible sets
    grid_dev = 0.0
    # rows 0-2: unit traces; rows 3-4 and 5-6: the e00 and e01 entries of
    # blocks 1 and 2 equal block 0's; each block carries its own matrices
    eye, pair = np.eye(2)[None], np.stack([np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    for _ in range(3):
        cs = [
            (lambda a: (a + a.T) / 2)(rng.standard_normal((2, 2))) for _ in range(3)
        ]
        prob = SdpProblem(
            blocks=(("x1", 2), ("x2", 2), ("x3", 2)),
            objective=tuple(cs),
            columns=[
                ([0, 3, 4, 5, 6], np.arange(5), np.concatenate([eye, pair, pair])),
                ([1, 3, 4], np.arange(3), np.concatenate([eye, -pair])),
                ([2, 5, 6], np.arange(3), np.concatenate([eye, -pair])),
            ],
            rhs=[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        )
        sol = solve(prob, opts)
        ctot = cs[0] + cs[1] + cs[2]
        best = np.inf
        for a in np.linspace(0.0, 1.0, 301):
            bmax = np.sqrt(max(a * (1 - a), 0.0))
            for bb in np.linspace(-bmax, bmax, 301):
                x = np.array([[a, bb], [bb, 1 - a]])
                best = min(best, float(np.sum(ctot * x)))
        grid_dev = max(grid_dev, abs(sol.primal_value - best))
    ok = not failures and grid_dev <= 1e-4
    _verdict(
        8,
        ok,
        f"50 random problems meet KKT/weak-duality at 1e-8 ({len(failures)} failures); "
        f"grid-search agreement {grid_dev:.2e} (tol 1e-4)",
    )
