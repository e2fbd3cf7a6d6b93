"""One workload process: set up, run whole rounds for the requested time,
check every op, and print one JSON line with the raw results.

Started by run.py, never by hand: with --role setup it stops right after
set-up, so run.py can time set-up several times per run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# address-space cap: a solve that outgrows it raises MemoryError inside this
# process and counts as a failed op, instead of the machine running out
AS_CAP = 3 << 30


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP, AS_CAP))

    import numpy as np

    import workloads
    from tracing import NullTracer, Tracer

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
        ref = json.load(fh)
    rng = np.random.default_rng(args.seed)
    tr = Tracer() if args.trace else NullTracer()
    rounds = workloads.WORKLOADS[args.workload](ref, rng, tr)
    first = next(rounds)
    setup_s = time.monotonic() - args.spawned
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = {"setup_s": setup_s, **_timed_loop(first, rounds, args.seconds, tr)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
            result["layers"], result["computed_bytes"] = _layers(tr, result, ref, rng, scratch)
        tr.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


def _timed_loop(first, rounds, seconds: float, tr) -> dict:
    """Closed loop of whole rounds: one caller, each op starts when the
    previous one returns.  The run takes the whole number of rounds nearest
    to `seconds`, so it ends within half a round of it."""
    ops = []  # (round, key, latency, ok, error)
    start = time.perf_counter()
    ops_round = first
    r = 0
    while True:
        for op in ops_round:
            tr.op = len(ops)
            with tr.span("op"):
                t0 = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # every error is a failed op, recorded by type
                    out, err = None, type(exc).__name__
                latency = time.perf_counter() - t0
            ok = err is None and bool(op.check(out))
            ops.append((r, op.key, latency, ok, err))
        tr.op = None
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / (r + 1) >= seconds:
            break
        ops_round, r = next(rounds), r + 1
    elapsed = time.perf_counter() - start
    failures = [f"{key}: {err or 'outside reference tolerance'}"
                for _, key, _, ok, err in ops if not ok]
    return {"rounds": r + 1, "elapsed_s": elapsed, "latencies": [o[2] for o in ops],
            "ops": [[o[0], o[1]] for o in ops], "failed": len(failures),
            "failures": failures[:20]}


def _layers(tr, result: dict, ref: dict, rng, scratch: str) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, then the fixed probes."""
    import probes

    spans = tr.spans
    first_ops = {i for i, (r, _) in enumerate(result["ops"]) if r == 0}
    n_ops = len(result["ops"])
    # every op is one solution-map call, and data evaluators run only inside
    data_spans = [s for s in spans if s.name == "data.evaluator"]
    first_data = [s for s in data_spans if s.op in first_ops]
    data_time = sum(s.duration for s in data_spans)
    quad_time = sum(s.duration for s in spans if s.name.startswith("quadrature."))
    m = {
        "data.calls": len(first_data) / len(first_ops),
        "data.points": sum(s.points for s in first_data) / len(first_ops),
        "data.self_s": data_time / n_ops,
        "quadrature.self_s": (quad_time - data_time) / n_ops,
        "quadrature.points_per_s": sum(s.points for s in data_spans) / quad_time,
        "trace.ops_per_s": n_ops / result["elapsed_s"],
    }
    m.update(probes.map_probes(ref))
    m.update(probes.suites_probe(ref, rng, scratch))
    m["cli.verify.overhead_s"] = probes.cli_overhead(scratch)
    layer, computed = probes.layer_probes(rng)
    m.update(layer)
    m.update(probes.verification_probe(ref, rng))
    m.update(probes.defect_probe(ref, rng))
    return m, computed


if __name__ == "__main__":
    sys.exit(main())
