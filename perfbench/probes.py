"""Fixed layer probes and the known-defect probe, run after the traced loop.

Throughputs are medians of three timed calls on 1e6 points.  Bytes are
computed from the sizes of the arrays passed in and returned (8-byte
floats), not measured: this machine's peak bandwidth is unknown, so no
bandwidth or roofline ratio is claimed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
from time import perf_counter

import numpy as np

import cases
from tracing import Tracer
from modpoisson import AccuracyError, cli, gegenbauer
from modpoisson.geometry import HalfSpacePoint
from modpoisson.kernels import KernelParams, kernel_K, kernel_KM_direct, kernel_KM_second
from modpoisson.quadrature import sphere_rule
from modpoisson.suites import run_suite
from modpoisson.verification import check_harmonicity

POINTS = 1_000_000
# angular orders of refinement levels 0-4 at the default angular_order = 48
SPHERE_ORDERS = {3: (48, 72, 108, 162, 243), 4: (32, 48, 72, 108, 162),
                 5: (24, 36, 54, 81, 121)}


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def layer_probes(rng) -> tuple[dict, dict]:
    """Kernel, Gegenbauer and sphere-rule probes: (metrics, computed bytes)."""
    x = HalfSpacePoint(n=3, r=1.5, theta=0.7, y_hat=np.array([1.0, 0.0]))
    yp = rng.normal(size=(POINTS, 2)) * 3.0
    t = rng.uniform(-1.0, 1.0, POINTS)
    z = rng.uniform(0.0, 0.9, POINTS)
    calls = {
        "kernels.K": (lambda: kernel_K(1.5, x, yp), 3),
        "kernels.KM": (lambda: kernel_KM_direct(KernelParams(1.5, 2), x, yp), 3),
        "kernels.KM2": (lambda: kernel_KM_second(KernelParams(1.5, 2, "second"), x, yp), 3),
        "gegenbauer.value": (lambda: gegenbauer.value(1.5, 6, t), 2),
        "gegenbauer.weighted_sum": (lambda: gegenbauer.weighted_sum(1.5, 6, t, z), 3),
    }
    metrics, computed = {}, {}
    for name, (fn, floats_per_point) in calls.items():
        metrics[f"{name}.mpts_s"] = POINTS / _median_time(fn) / 1e6
        computed[name] = floats_per_point * 8 * POINTS
    for n, orders in SPHERE_ORDERS.items():
        def build(n=n, orders=orders):
            for order in orders:
                sphere_rule(n, order)
        metrics[f"quadrature.sphere_rule.n{n}.ms"] = 1e3 * _median_time(build, 5)
    return metrics, computed


def map_probes(ref: dict) -> dict:
    """Each solution map once on its n = 3 plain-grid near input, and D on
    exp_decay at a fixed far point for n = 3, 4, 5: seconds (median of three
    solves) and data points per solve, on the same inputs every run."""
    metrics = {}

    def probe(t, coords):
        tr = Tracer()
        data, x, fn = tr.wrap(cases.make_data(t.data, t.n)), cases.point(coords), cases.solver(t)
        seconds = _median_time(lambda: fn(data, x))
        return seconds, sum(s.points for s in tr.spans) // 3

    for t in cases.plain_types():
        if t.n == 3 and t.case == "near":
            pool, values = cases.pool(ref, t)
            i = cases.usable_points(values, [t], len(pool))[0]
            metrics[f"quadrature.{t.map}.s"], metrics[f"quadrature.{t.map}.points"] = probe(
                t, pool[i])
    for n in (3, 4, 5):
        t = cases.OpType(f"probe/{n}/D", "D", "exp_decay", 0, n, "far", cases.PLAIN_TOL[n])
        coords = cases.plain_points(np.random.default_rng(n), n, "far", 1)[0]
        metrics[f"quadrature.n{n}.s"] = probe(t, coords)[0]
    return metrics


def _verify(suite: str, seed: int, out: str) -> int:
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--jobs", "1", "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def suites_probe(ref: dict, rng, scratch: str) -> dict:
    """Each of the seven light suites once through cli.main with a seeded
    suite seed; every call must exit 0 and write the suite's expected
    number of checks, all passing."""
    out = os.path.join(scratch, "verify.jsonl")
    metrics = {}
    for suite in cases.SUITES:
        start = perf_counter()
        code = _verify(suite, int(rng.integers(1, 2**31 - 1)), out)
        metrics[f"suites.{suite}.s"] = perf_counter() - start
        with open(out) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        if code != 0 or len(records) != ref["verify"]["checks"][suite] or not all(
                rec["pass"] for rec in records):
            raise RuntimeError(f"verify --suite {suite} failed (exit {code})")
        metrics[f"suites.{suite}.checks"] = len(records)
    return metrics


def cli_overhead(scratch: str, pairs: int = 15) -> float:
    """cli.main time minus run_suite time on the cheapest suite: the median
    of back-to-back pairs, so that drift in machine speed cancels."""
    out = os.path.join(scratch, "overhead.jsonl")
    diffs = []
    for _ in range(pairs):
        start = perf_counter()
        _verify("gegenbauer", 7, out)
        mid = perf_counter()
        run_suite("gegenbauer", 7)
        diffs.append(2 * mid - start - perf_counter())
    return statistics.median(diffs)


def verification_probe(ref: dict, rng) -> dict:
    """One harmonicity check as the harmonicity suite runs it (solution_u,
    M = 0, n = 3 kink-cut bump at 1e-10, h = 5e-3, tol = 1e-4) at a seeded
    pool point; solves are counted through the callable passed in."""
    t = cases.kink_types(3)[0]
    pool, values = cases.pool(ref, t)
    usable = cases.usable_points(values, [t], len(pool))
    p = np.asarray(pool[usable[int(rng.integers(len(usable)))]])
    fn, data = cases.solver(t), cases.kink_data(3)
    solves = 0

    def field(y):
        nonlocal solves
        solves += 1
        return fn(data, cases.point(y))

    start = perf_counter()
    report = check_harmonicity(field, [p], h=cases.FD_H, tol=cases.FD_TOL, name="solution_u")
    if not report.passed:
        raise RuntimeError(f"harmonicity check failed at {p.tolist()}: {report.residual:.3e}")
    return {"verification.solves_per_check": solves,
            "verification.check_s": perf_counter() - start}


def defect_probe(ref: dict, rng) -> dict:
    """Failures on up to two seeded inputs of each known defect class
    (README.md): n = 3 kink-cut solves at 1e-12, and n = 3 (op type, pool
    point) pairs that raise, or land outside their tolerance, at their own
    tolerance.  A class with no pair left reports 0."""
    types = [t for t in cases.kink_types(3) if t.big_m == 2]
    pool, values = cases.pool(ref, types[0])
    usable = cases.usable_points(values, types, len(pool))
    i = usable[int(rng.integers(len(usable)))]
    trials = {"defects.kink_1e-12.failed": [
        (t, pool[i], values[f"{t.key}/{i}"], cases.DEFECT_TOL) for t in types]}
    pairs = []  # (op type, coords, reference entry) of every known-defect pair
    for t in cases.kink_types(3) + cases.plain_types():
        if t.n != 3:
            continue
        pool, values = cases.pool(ref, t)
        pairs += [(t, coords, values[f"{t.key}/{j}"]) for j, coords in enumerate(pool)
                  if values[f"{t.key}/{j}"]["op"] != "ok"]
    for label, outcomes in (("raises", ("AccuracyError", "MemoryError")),
                            ("inaccurate", ("inaccurate",))):
        chosen = [p for p in pairs if p[2]["op"] in outcomes]
        picks = rng.choice(len(chosen), size=min(2, len(chosen)), replace=False)
        trials[f"defects.{label}.failed"] = [(*chosen[j], chosen[j][0].tol) for j in picks]
    metrics = {}
    for name, runs in trials.items():
        failed = 0
        for t, coords, value_ref, tol in runs:
            try:
                value = cases.solver(t, tol)(cases.make_data(t.data, t.n), cases.point(coords))
            except (AccuracyError, MemoryError):
                failed += 1
                continue
            # a pair that raised has no reference; converging is then enough
            if value_ref["value"] is not None and not cases.within(value, value_ref, tol):
                failed += 1
        metrics[name] = failed
    return metrics
