"""modpoisson benchmark: one workload, measured from outside the library.

    python3 perfbench/run.py --workload kink-cut --seed 1 --seconds 45 --trace 0

Run from a checkout root; the library is imported from ./src.  The workload
runs in a child process under an address-space cap; set-up is timed in
that child and in SETUP_SAMPLES set-up-only children, and the median is
reported.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object; README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import AS_CAP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kink-cut", "plain-grid")
# op_tail_s percentile per workload: at a run's usual op count (60-90 and
# 275-325) it has at least ten ops beyond it, and it falls inside a group of
# like ops (n = 3 v solves with M = 0 and 1; n = 4 v solves) rather than on
# the edge between two groups
TAIL_PERCENTILE = {"kink-cut": 80.0, "plain-grid": 92.0}
SETUP_SAMPLES = 4
PROBES_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(args, role: str, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float], percentile: float) -> float:
    """Nearest-rank latency at `percentile`."""
    ordered = sorted(latencies)
    return ordered[math.ceil(percentile / 100.0 * len(ordered)) - 1]


def _environment(env: dict) -> dict:
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(f"{base}/{index}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{index}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{index}/size") as fh:
                caches[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: env[v] for v in THREAD_VARS},
        "caches": caches,
        "address_space_cap_bytes": AS_CAP,
        "loop": "closed, one caller, whole rounds",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="modpoisson benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "modpoisson", "__init__.py")):
        sys.stderr.write(f"error: no modpoisson sources under {ROOT}/src\n")
        return 2

    env = dict(os.environ)
    # one caller and no helper threads: BLAS stays single-threaded
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    # the loop ends within half a round of --seconds and set-up takes about
    # 3 s in all; the traced run's probes take about 20 s, allowed PROBES_S
    deadline = time.monotonic() + 2 * args.seconds + 20 + (PROBES_S if args.trace else 0)
    try:
        setups = [_child(args, "setup", env, 30)["setup_s"] for _ in range(SETUP_SAMPLES)]
        res = _child(args, "run", env, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: workload {args.workload} did not finish: {exc}\n")
        return 1
    setups.append(res["setup_s"])

    lat = res["latencies"]
    attempted, failed = len(lat), res["failed"]
    pct = TAIL_PERCENTILE[args.workload]
    tail = tail_latency(lat, pct)
    beyond = attempted - math.ceil(pct / 100.0 * attempted)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (attempted / res["elapsed_s"], "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print("env " + json.dumps(_environment(env)))
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in {res['rounds']} "
          f"rounds, {res['elapsed_s']:.2f} s")
    for name, (value, unit) in e2e.items():
        print(f"  {name:12s} {value:.6g} {unit}")
    print(f"  fail_frac    {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"  op_p50_s over {attempted} ops; op_tail_s is p{pct:g} of {attempted} ops "
          f"({beyond} beyond it); setup_s is the median of {len(setups)} set-ups")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {k: (v, units[k]) for k, v in res["layers"].items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:.6g} {unit}")
        for name, nbytes in res["computed_bytes"].items():
            print(f"  {name} probe: {nbytes / 1e6:.0f} MB computed from array sizes")
    else:
        metrics = e2e
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
