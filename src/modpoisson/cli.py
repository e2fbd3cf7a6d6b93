"""Command-line surface: evaluate kernels and solutions, tabulate expansions,
and run the verification suites.

Outputs are machine-readable: CSV with a header row or JSON lines, with
floats serialized at full precision so files round-trip exactly.  Exit
codes: 0 all checks pass, 1 any failure, 64 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .data import DATA_REGISTRY, make_data
from .errors import ModPoissonError
from .expansions import (
    AsymptoticExpansion,
    divergence_demo,
    exp_data_neumann_coefficient,
)
from .geometry import HalfSpacePoint
from .kernels import (
    KernelParams,
    kernel_K,
    kernel_KM_direct,
    kernel_KM_second,
)
from .quadrature import (
    QuadratureSpec,
    dirichlet_D,
    dirichlet_DM,
    integral_F,
    integral_F_second,
    neumann_N,
    neumann_NM,
    solution_u,
    solution_v,
)
from .suites import SUITES, run_suite

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise ModPoissonError(f"{text!r} is not a comma list of numbers")
    return values


def _parse_data_args(text: str | None) -> dict:
    """key=value pairs for the data factory: integers, floats, or true/false
    in any case; any other value, or a key given twice, is a usage error."""
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        if not piece.strip():
            continue
        key, _, value = piece.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ModPoissonError(f"--data-args gives {key!r} twice")
        if value.lower() in ("true", "false"):
            out[key] = value.lower() == "true"
            continue
        try:
            parsed = float(value)
        except ValueError:
            raise ModPoissonError(f"--data-args value {value!r} for {key!r} is not "
                                  "a number, true or false") from None
        if parsed.is_integer() and "." not in value and "e" not in value.lower():
            parsed = int(parsed)
        out[key] = parsed
    return out


def _format_value(v):
    """Floats at full precision; other values as the csv module writes them
    (None, a missing estimate, as an empty field)."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _emit(rows: list[dict], out: str | None, fmt: str):
    if not rows:
        return
    if fmt == "jsonl":
        text = "\n".join(json.dumps(r) for r in rows) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    # coefficient and evaluation rows of one table carry different fields:
    # the header is their union, and a field a row lacks is an empty cell
    header = list(dict.fromkeys(k for row in rows for k in row))
    target = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(row.get(k)) for k in header])
    finally:
        if out:
            target.close()


def _spec_from_args(args) -> QuadratureSpec:
    """The spec from the flags given; a flag left at None keeps the
    QuadratureSpec default."""
    given = {"abs_tol": args.abs_tol, "rel_tol": args.rel_tol}
    return QuadratureSpec(**{k: v for k, v in given.items() if v is not None})


def _grid_points(args):
    y_hat = np.asarray(_float_list(args.yhat), dtype=float) if args.yhat else None
    for r in _float_list(args.r):
        for theta in _float_list(args.theta):
            yield HalfSpacePoint(n=args.n, r=r, theta=theta, y_hat=y_hat)


def _ignored_flags(args) -> list[str]:
    """The eval or expand flags given on the command line that the target
    does not use; each of these flags defaults to None."""
    if args.command == "eval":
        unused = "--yprime" if args.solution else (
            "--data --data-args --abs-tol --rel-tol")
        if args.solution in ("D", "N", "DM", "NM", "u", "v"):
            unused += " --lam"
        if args.solution in ("D", "N") or args.kernel == "K":
            unused += " --M"
    elif args.divergence is not None:
        unused = ("--data --data-args --M --theta --radii --closed-form "
                  "--abs-tol --rel-tol")
    else:
        unused = "--r --theta-at"
        if args.problem != "neumann" or args.data not in (None, "exp_decay"):
            unused += " --closed-form"
    return [flag for flag in unused.split()
            if getattr(args, flag[2:].replace("-", "_")) is not None]


def cmd_eval(args) -> int:
    # --lam, --M and the quadrature flags default to None so that targets
    # can reject them; unset quadrature flags keep the QuadratureSpec defaults
    args.lam = 1.5 if args.lam is None else args.lam
    args.M = 0 if args.M is None else args.M
    spec = _spec_from_args(args)
    rows = []
    if args.kernel:
        if args.yprime is None:
            raise ModPoissonError("kernel evaluation needs --yprime")
        yp = np.asarray(_float_list(args.yprime))
        if yp.size != args.n - 1:
            raise ModPoissonError(f"--yprime needs n - 1 = {args.n - 1} components")
        if not np.all(np.isfinite(yp)):
            raise ModPoissonError("--yprime needs finite components")
        for x in _grid_points(args):
            if args.kernel == "K":
                value = kernel_K(args.lam, x, yp)
            elif args.kernel == "KM":
                value = kernel_KM_direct(KernelParams(args.lam, args.M), x, yp)
            else:
                value = kernel_KM_second(KernelParams(args.lam, args.M, "second"), x, yp)
            rows.append({
                "n": x.n, "r": x.r, "theta": x.theta, "kernel": args.kernel,
                "lam": args.lam, "M": args.M, "value": value,
                "error_estimate": None,  # a closed form: nothing to estimate
            })
    else:
        data = make_data(args.data, args.n, **_parse_data_args(args.data_args))
        ops = {
            "D": lambda x: dirichlet_D(data, x, spec, return_estimate=True),
            "N": lambda x: neumann_N(data, x, spec, return_estimate=True),
            "DM": lambda x: dirichlet_DM(args.M, data, x, spec, return_estimate=True),
            "NM": lambda x: neumann_NM(args.M, data, x, spec, return_estimate=True),
            "u": lambda x: solution_u(data, args.M, x, spec, return_estimate=True),
            "v": lambda x: solution_v(data, args.M, x, spec, return_estimate=True),
            "F": lambda x: integral_F(KernelParams(args.lam, args.M), data, x, spec,
                                      return_estimate=True),
            "F2": lambda x: integral_F_second(KernelParams(args.lam, args.M, "second"),
                                              data, x, spec, return_estimate=True),
        }
        op = ops[args.solution]
        for x in _grid_points(args):
            value, estimate = op(x)
            rows.append({
                "n": x.n, "r": x.r, "theta": x.theta, "target": args.solution,
                "data": data.name, "M": args.M, "value": value,
                "error_estimate": estimate,
            })
    _emit(rows, args.out, args.format)
    return 0


def cmd_expand(args) -> int:
    # the table flags default to None so that the other table can reject
    # them; unset quadrature flags keep the QuadratureSpec defaults
    defaults = {"data": "exp_decay", "M": 2, "theta": "0.0", "r": 10.0, "theta_at": 0.0}
    vars(args).update({k: v for k, v in defaults.items() if getattr(args, k) is None})
    spec = _spec_from_args(args)
    rows = []
    if args.divergence is not None:
        terms = divergence_demo(args.n, args.r, args.theta_at, args.divergence,
                                problem=args.problem)
        for k, magnitude in enumerate(terms):
            rows.append({"n": args.n, "r": args.r, "theta": args.theta_at, "k": k,
                         "order": 2 * k, "term_magnitude": float(magnitude)})
        _emit(rows, args.out, args.format)
        return 0
    data_args = _parse_data_args(args.data_args)
    data = make_data(args.data, args.n, **data_args)
    expansion = AsymptoticExpansion(args.problem, data, args.M, spec)
    # the closed form is for rate 1; exp(-a|y|) scales degree m by a^-(m+n-1)
    rate = float(data_args.get("rate", 1.0))
    thetas = _float_list(args.theta)
    radii = _float_list(args.radii) if args.radii else []
    for theta in thetas:
        for m in range(args.M):
            row = {"kind": "coefficient", "m": m, "theta": theta,
                   "value": expansion.coefficient(m, theta)}
            if args.closed_form:
                row["closed_form"] = (exp_data_neumann_coefficient(args.n, m, theta)
                                      * rate ** -(m + args.n - 1))
            rows.append(row)
        for r in radii:
            x = HalfSpacePoint(n=args.n, r=r, theta=theta)
            partial = expansion.partial_sum(x)
            direct = expansion.direct(x)
            rows.append({"kind": "evaluation", "m": args.M, "theta": theta, "r": r,
                         "partial_sum": partial, "direct": direct,
                         "remainder": direct - partial})
    _emit(rows, args.out, args.format)
    return 0


def _suite_records(name: str, seed: int) -> list[dict]:
    return [r.as_record() for r in run_suite(name, seed)]


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    seeds = [args.seed] * len(names)
    if args.jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            per_suite = list(pool.map(_suite_records, names, seeds))
    else:
        per_suite = list(map(_suite_records, names, seeds))
    records = [rec for suite_records in per_suite for rec in suite_records]
    lines = [json.dumps(rec) for rec in records]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    for rec in records:
        status = "PASS" if rec["pass"] else "FAIL"
        bound = rec["parameters"].get("strict_bound")
        tol = f"{rec['tolerance']:.3e}" if bound is None else f"< {bound:g}"
        print(f"{status:12s} {rec['name']}  residual={rec['residual']:.3e} tol={tol}")
    failed = sum(not rec["pass"] for rec in records)
    print(f"{len(records)} checks: {len(records) - failed} passed, {failed} failed")
    return 1 if failed else 0


def _int_at_least(low: int):
    """argparse type: an integer of at least low; anything else is a usage
    error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value
    return parse


def _apply_config(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config FILE as long options."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        return argv
    injected = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            injected += [f"--{key.strip().replace('_', '-')}", value.strip()]
    rest = argv[:idx] + argv[idx + 2:]
    # injected defaults go first so explicit flags win
    return rest[:1] + injected + rest[1:]


def build_parser() -> _Parser:
    parser = _Parser(prog="modpoisson",
                     description="Half-space Poisson integrals: evaluation, "
                                 "expansion, and certification")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def common(p):
        output(p)
        p.add_argument("--n", type=int, default=3, help="ambient dimension (2-5)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
        p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)

    p_eval = sub.add_parser("eval", help="evaluate kernels or solution integrals on a grid")
    common(p_eval)
    p_eval.add_argument("--kernel", choices=("K", "KM", "KM2"), default=None)
    p_eval.add_argument("--solution", choices=("D", "N", "DM", "NM", "u", "v", "F", "F2"),
                        default=None)
    p_eval.add_argument("--lam", type=float, default=None,
                        help="kernel exponent for K, KM, KM2, F and F2 (default 1.5)")
    p_eval.add_argument("--M", type=int, default=None,
                        help="modification order; not for D, N or K; at least 1 for KM2 "
                             "and F2 (default 0)")
    p_eval.add_argument("--r", default="1.0", help="comma list of radii")
    p_eval.add_argument("--theta", default="0.0", help="comma list of polar angles")
    p_eval.add_argument("--yhat", default=None, help="projection direction components")
    p_eval.add_argument("--yprime", default=None, help="boundary point components")
    p_eval.add_argument("--data", default=None, choices=sorted(DATA_REGISTRY))
    p_eval.add_argument("--data-args", dest="data_args", default=None,
                        help="comma list key=value for the data factory")

    p_exp = sub.add_parser("expand", help="asymptotic expansion tables")
    common(p_exp)
    p_exp.add_argument("--problem", choices=("dirichlet", "neumann"), default="neumann")
    p_exp.add_argument("--data", default=None, choices=sorted(DATA_REGISTRY),
                       help="default exp_decay")
    p_exp.add_argument("--data-args", dest="data_args", default=None)
    p_exp.add_argument("--M", type=int, default=None, help="default 2")
    p_exp.add_argument("--theta", default=None, help="comma list (default 0.0)")
    p_exp.add_argument("--radii", default=None)
    p_exp.add_argument("--closed-form", dest="closed_form", action="store_true", default=None,
                       help="neumann exp_decay only")
    p_exp.add_argument("--divergence", type=int, default=None,
                       help="emit term magnitudes up to this index instead")
    p_exp.add_argument("--r", type=float, default=None, help="with --divergence (default 10)")
    p_exp.add_argument("--theta-at", dest="theta_at", type=float, default=None,
                       help="with --divergence (default 0)")

    # the suites fix their own dimensions, tolerances and output format
    p_ver = sub.add_parser("verify", help="run a certification suite")
    output(p_ver)
    p_ver.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    p_ver.add_argument("--seed", type=_int_at_least(0), default=42)
    p_ver.add_argument("--jobs", type=_int_at_least(1), default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
    except OSError as exc:
        parser.error(f"cannot read --config file: {exc}")
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "eval" and bool(args.kernel) == bool(args.solution):
            parser.error("eval needs exactly one of --kernel or --solution")
        ignored = _ignored_flags(args)
        if ignored:
            target = (args.kernel or args.solution if args.command == "eval" else
                      "the divergence table" if args.divergence is not None else "an expansion")
            parser.error(f"{args.command} of {target} does not use " + ", ".join(ignored))
        return cmd_eval(args) if args.command == "eval" else cmd_expand(args)
    except ModPoissonError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
