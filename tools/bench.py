"""Write BENCH_<label>.json: one measurement of a checkout's end-to-end speed.

    python3 tools/bench.py --label 26                        # this checkout
    python3 tools/bench.py --label 25 --root ../modpoisson-parent

It records, for the checkout at --root:

- both benchmark workloads' end-to-end metrics, each from one
  `perfbench/run.py --trace 0` run of --seconds at seed 1;
- the tier-1 pytest run over --tests: wall time and test counts;
- the cold start of a fixed grid of `modpoisson eval` / `expand` commands,
  each in its own fresh interpreter, as the median of --repeats runs;
- the wall time of `modpoisson verify --suite <suite> --seed 42` for every
  suite in the checkout's `modpoisson.suites.SUITES`, each run once in its
  own fresh interpreter;
- the commit (and whether the tree differs from it), the core count, and
  the Python, numpy and SciPy versions.

The traced per-layer metrics (`run.py --trace 1`) are not recorded.

The file is written to the root of the repository that holds this script.
Each metric is printed with its ratio to the same metric in the previous
BENCH file there: the one whose label sorts last before this label, numbers
first and in numeric order.  Exit status 1 if a workload op
failed, a test failed or a CLI or verify command exited non-zero; the file
is written either way.

File layout: {"label", "commit", "dirty", "machine": {"nproc", "python",
"numpy", "scipy"}, "settings": {"seconds", "seed", "repeats", "tests"},
"workloads": {name: {"correct", "attempted", "failed"}}, "metrics": {name:
{"value", "unit", "better"}}}.  Metric names are `<workload>.<metric>` for
the benchmark's end-to-end metrics, `tier1.wall_s`, `tier1.passed`,
`tier1.failed`, `cli.<command>.s` per grid command, `cli.total_s`, their
sum, and `verify.<suite>.s` per suite (`verify.harmonicity.s`, ...).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("kink-cut", "plain-grid")
# one seed for every file, so files differ only in the code and the machine
SEED = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the README's commands: a kernel grid, solves with and without a kink cut,
# a far n = 4 solve, an expansion table and the divergence table
CLI_GRID = {
    "eval_kernel_KM": "eval --kernel KM --lam 1.5 --M 2 --n 3 --r 1.0,2.0 --theta 0.0,0.5 "
                      "--yprime 2.0,0.0",
    "eval_D_exp_decay": "eval --solution D --data exp_decay --n 3 --r 1.5 --theta 0.6",
    "eval_u_bump": "eval --solution u --data bump --data-args center=2.0,radius=1.0 --M 1 "
                   "--n 3 --r 1.5,3.0 --theta 0.0,0.7",
    "eval_v_far_n4": "eval --solution v --data exp_decay --M 1 --n 4 --r 50.0 --theta 0.0,0.9",
    "expand_neumann": "expand --problem neumann --data exp_decay --n 3 --M 2 --radii 20,40",
    "expand_divergence": "expand --divergence 14 --n 3 --r 10 --theta-at 0.0",
}
CLI_MAIN = "import sys; from modpoisson.cli import main; sys.exit(main())"
VERIFY_SEED = 42


def _env(root: str) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _git(root: str, *args: str) -> str:
    return subprocess.run(["git", "-C", root, *args], stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def workload_metrics(root: str, name: str, seconds: int) -> tuple[dict, dict]:
    """(summary, metrics) of one `perfbench/run.py --trace 0` run."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", name,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=4 * seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: run.py exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {k: res[k] for k in ("correct", "attempted", "failed")}
    metrics = {f"{name}.{k}": {**m, "better": better.get(k)} for k, m in res["metrics"].items()}
    return summary, metrics


def tier1_metrics(root: str, tests: str) -> dict:
    """Wall time and pass/fail counts of the tier-1 command over `tests`."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", tests]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (\w+)", summary)}
    failed = counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)
    return {
        "tier1.wall_s": {"value": wall, "unit": "s", "better": "lower"},
        "tier1.passed": {"value": counts.get("passed", 0), "unit": "count", "better": "higher"},
        "tier1.failed": {"value": failed, "unit": "count", "better": "lower"},
    }


def cli_metrics(root: str, repeats: int) -> tuple[dict, list[str]]:
    """Median wall time of each grid command in a fresh interpreter, and
    the commands that exited non-zero."""
    metrics, failures, total = {}, [], 0.0
    for name, args in CLI_GRID.items():
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *args.split()], cwd=root,
                                  env=_env(root), stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                failures.append(f"{name} exited with {proc.returncode}")
        median = statistics.median(times)
        total += median
        metrics[f"cli.{name}.s"] = {"value": median, "unit": "s", "better": "lower"}
    metrics["cli.total_s"] = {"value": total, "unit": "s", "better": "lower"}
    return metrics, failures


def verify_metrics(root: str) -> tuple[dict, list[str]]:
    """Wall time of one `verify` run per suite of the checkout, each in a
    fresh interpreter, and the suites whose run exited non-zero."""
    env = _env(root)
    listing = subprocess.run(
        [sys.executable, "-c", "from modpoisson.suites import SUITES; print(*sorted(SUITES))"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True)
    metrics, failures = {}, []
    for suite in listing.stdout.split():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, "verify", "--suite", suite,
                               "--seed", str(VERIFY_SEED)], cwd=root, env=env,
                              stdout=subprocess.DEVNULL)
        metrics[f"verify.{suite}.s"] = {"value": time.perf_counter() - start, "unit": "s",
                                        "better": "lower"}
        if proc.returncode != 0:
            failures.append(f"verify --suite {suite} exited with {proc.returncode}")
    return metrics, failures


def _label_key(label: str):
    return (0, int(label), "") if label.isdigit() else (1, 0, label)


def previous_file(directory: str, label: str) -> str | None:
    """The BENCH file in `directory` whose label sorts last before `label`."""
    earlier = []
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        other = os.path.basename(path)[len("BENCH_"):-len(".json")]
        if _label_key(other) < _label_key(label):
            earlier.append((_label_key(other), path))
    return max(earlier)[1] if earlier else None


def print_comparison(bench: dict, previous: dict | None) -> None:
    old = previous["metrics"] if previous else {}
    if previous:
        print(f"ratios to BENCH_{previous['label']} (commit {previous['commit'][:10]})")
    for name, m in bench["metrics"].items():
        line = f"  {name:32s} {m['value']:12.6g} {m['unit']:6s}"
        before = old.get(name, {}).get("value")
        if before:
            line += f" x{m['value'] / before:.3f} (better is {m['better']})"
        print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--root", default=REPO, help="checkout to measure")
    parser.add_argument("--seconds", type=int, default=45, help="per workload run")
    parser.add_argument("--repeats", type=int, default=5, help="cold starts per CLI command")
    parser.add_argument("--tests", default="tests", help="pytest target, relative to --root")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    bench = {
        "label": args.label,
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": bool(_git(root, "status", "--porcelain")),
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "settings": {"seconds": args.seconds, "seed": SEED, "repeats": args.repeats,
                     "tests": args.tests},
        "workloads": {},
        "metrics": {},
    }
    for name in WORKLOADS:
        summary, metrics = workload_metrics(root, name, args.seconds)
        bench["workloads"][name] = summary
        bench["metrics"].update(metrics)
    bench["metrics"].update(tier1_metrics(root, args.tests))
    cli, failures = cli_metrics(root, args.repeats)
    bench["metrics"].update(cli)
    verify, verify_failures = verify_metrics(root)
    bench["metrics"].update(verify)
    failures += verify_failures

    out = os.path.join(REPO, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    prev_path = previous_file(REPO, args.label)
    previous = None
    if prev_path:
        with open(prev_path) as fh:
            previous = json.load(fh)
    print(f"wrote {out}")
    print_comparison(bench, previous)
    for line in failures:
        print(f"  FAILED {line}")
    ok = (all(w["correct"] for w in bench["workloads"].values()) and not failures
          and not bench["metrics"]["tier1.failed"]["value"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
