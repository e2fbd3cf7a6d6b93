"""Regenerate perfbench/reference.json: the fixed point pools and the
reference value of every (op type, pool point) pair.

Each reference is solved at the first step of its ladder that converges
today: tighter tolerances at the default resolution, then at a finer one
(more radial panels and a higher angular order), and last the op's own
tolerance at the finer resolution, so that a reference is never the op's
own computation.  The op itself is solved once at its own tolerance, and
its outcome (ok, inaccurate, or the error it raises) decides whether the
workloads draw the pair; every other pair is a known defect.

    python3 perfbench/make_reference.py [--sections kink3,...]

Takes about 10 minutes on a 2-core machine; sections already in the file
and not named are kept.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import tempfile
import time
from contextlib import redirect_stdout

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cases  # noqa: E402
from worker import AS_CAP  # noqa: E402
from modpoisson import AccuracyError, cli  # noqa: E402
from modpoisson.quadrature import QuadratureSpec  # noqa: E402

OUT = os.path.join(HERE, "reference.json")
POOL_SIZE = {"kink3": 16, "kink4": 4, "plain": 6}
POOL_SEED = {"kink3": 3, "kink4": 4, "plain": 5}
DEFAULT = {"radial_panels": QuadratureSpec.radial_panels,
           "angular_order": QuadratureSpec.angular_order}
FINE = {k: 2 * v for k, v in DEFAULT.items()}
# tighter tolerances tried in order at the default resolution, then at FINE;
# the op's own tolerance at FINE is the fallback
LADDER = {"kink/3": (1e-11, 3e-11), "kink/4": (1e-8,), "plain/3": (1e-11, 1e-10),
          "plain/4": (1e-11, 1e-10), "plain/5": (1e-7,)}


def _reference(t, coords) -> dict:
    """Reference value plus the op's own outcome: "ok", "inaccurate" (outside
    its tolerance of the reference) or the name of the error it raises."""
    data, x = cases.make_data(t.data, t.n), cases.point(coords)
    start = time.perf_counter()
    tighter = LADDER["/".join(t.key.split("/")[:2])]
    # finer resolution at n = 5 would not fit the address-space cap
    fine = tighter + (t.tol,) if t.n < 5 else ()
    ladder = [(tol, DEFAULT) for tol in tighter] + [(tol, FINE) for tol in fine]
    ref = None
    for tol, resolution in ladder:
        try:
            ref = {"value": cases.solver(t, tol, **resolution)(data, x), "tol": tol,
                   "resolution": [resolution["radial_panels"], resolution["angular_order"]]}
            break
        except (AccuracyError, MemoryError):
            continue
    try:
        op = cases.solver(t)(data, x)
    except (AccuracyError, MemoryError) as exc:
        op, outcome = None, type(exc).__name__
    else:
        outcome = "ok" if ref and cases.within(op, ref, t.tol) else "inaccurate"
    ref = ref or {"value": None, "tol": None, "resolution": None}
    ref["op"] = outcome
    err = "-" if op is None or ref["value"] is None else f"{abs(op - ref['value']):.2e}"
    print(f"{t.key} ref_tol={ref['tol']} res={ref['resolution']} value={ref['value']} "
          f"op_err={err} op={outcome} {time.perf_counter() - start:.1f}s", flush=True)
    return ref


def _pool_section(name: str, types, points: dict) -> dict:
    values = {}
    for t in types:
        for i, coords in enumerate(points[cases.pool_key(t)]):
            values[f"{t.key}/{i}"] = _reference(t, coords)
    return {"points": points, "values": values}


def build(section: str) -> dict:
    rng = np.random.default_rng(POOL_SEED.get(section, 0))
    if section == "kink3":
        points = {"3": cases.harmonicity_points(rng, 3, POOL_SIZE["kink3"])}
        return _pool_section(section, cases.kink_types(3), points)
    if section == "kink4":
        points = {"4": cases.harmonicity_points(rng, 4, POOL_SIZE["kink4"])}
        return _pool_section(section, cases.kink_types(4), points)
    if section == "plain":
        types = cases.plain_types()
        points = {}
        for t in types:
            if cases.pool_key(t) not in points:
                points[cases.pool_key(t)] = cases.plain_points(rng, t.n, t.case,
                                                                 POOL_SIZE["plain"])
        return _pool_section(section, types, points)
    if section == "verify":
        checks = {}
        with tempfile.TemporaryDirectory() as tmp:
            for suite in cases.SUITES:
                out = os.path.join(tmp, "r.jsonl")
                with redirect_stdout(io.StringIO()):
                    code = cli.main(["verify", "--suite", suite, "--seed", "42",
                                     "--jobs", "1", "--out", out])
                with open(out) as fh:
                    checks[suite] = sum(1 for line in fh if line.strip())
                print(f"verify/{suite} exit={code} checks={checks[suite]}", flush=True)
        return {"checks": checks}
    raise SystemExit(f"unknown section {section!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sections", default="kink3,kink4,plain,verify")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP, AS_CAP))
    for section in args.sections.split(","):
        built = build(section)
        table = {}
        if os.path.exists(OUT):
            with open(OUT) as fh:
                table = json.load(fh)
        table[section] = built
        with open(OUT, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
