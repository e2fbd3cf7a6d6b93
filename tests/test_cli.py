import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modpoisson.cli import main
from modpoisson.data import exp_decay
from modpoisson.expansions import exp_data_neumann_coefficient
from modpoisson.geometry import HalfSpacePoint
from modpoisson.kernels import KernelParams, kernel_KM_direct


def run_cli(args):
    return main(args)


class TestEval:
    def test_kernel_grid_rows(self, capsys, tmp_path):
        code = run_cli([
            "eval", "--kernel", "KM", "--lam", "1.5", "--M", "2", "--n", "3",
            "--r", "1.0,2.0", "--theta", "0.0,0.5", "--yprime", "2.0,0.0",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[0] == "n"
        assert len(lines) == 5

    def test_values_match_library_bit_for_bit(self, capsys):
        run_cli([
            "eval", "--kernel", "KM", "--lam", "1.5", "--M", "2", "--n", "3",
            "--r", "1.25", "--theta", "0.4", "--yprime", "2.0,-1.0",
        ])
        out = capsys.readouterr().out.strip().splitlines()
        reader = csv.DictReader(out)
        row = next(reader)
        x = HalfSpacePoint(n=3, r=1.25, theta=0.4)
        expected = kernel_KM_direct(KernelParams(1.5, 2), x, np.array([2.0, -1.0]))
        assert float(row["value"]) == expected

    def test_solution_values_match_library(self, capsys):
        run_cli([
            "eval", "--solution", "u", "--data", "bump", "--data-args",
            "center=2.0,radius=1.0", "--M", "0", "--n", "3",
            "--r", "1.5", "--theta", "0.4",
        ])
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        from modpoisson.data import bump
        from modpoisson.quadrature import QuadratureSpec, solution_u

        x = HalfSpacePoint(n=3, r=1.5, theta=0.4)
        expected = solution_u(bump(3, center=[2.0, 0.0], radius=1.0), 0, x,
                              QuadratureSpec())
        assert float(rows[0]["value"]) == expected

    def test_solution_rows_carry_measured_estimates(self, capsys):
        from modpoisson.data import bump
        from modpoisson.quadrature import QuadratureSpec, solution_u, solution_v

        x = HalfSpacePoint(n=3, r=1.5, theta=0.4)
        f = bump(3, center=[2.0, 0.0], radius=1.0)
        for target, solution in (("u", solution_u), ("v", solution_v)):
            run_cli(["eval", "--solution", target, "--data", "bump", "--data-args",
                     "center=2.0,radius=1.0", "--M", "1", "--n", "3", "--r", "1.5",
                     "--theta", "0.4"])
            row = next(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
            value, est = solution(f, 1, x, QuadratureSpec(), return_estimate=True)
            assert (float(row["value"]), float(row["error_estimate"])) == (value, est)

    def test_kernel_rows_carry_no_estimate(self, capsys):
        argv = ["eval", "--kernel", "KM", "--M", "2", "--r", "1.0", "--yprime", "2.0,0.0"]
        run_cli(argv)
        row = next(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert row["error_estimate"] == ""
        run_cli(argv + ["--format", "jsonl"])
        assert json.loads(capsys.readouterr().out)["error_estimate"] is None

    def test_sharpness_data_through_registry(self, capsys):
        code = run_cli([
            "eval", "--solution", "F", "--data", "sharpness_half_balls",
            "--lam", "0.5", "--M", "1", "--n", "3",
            "--r", "4.0", "--theta", "0.3",
        ])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert float(rows[0]["value"]) > 0

    def test_solution_round_trip_csv(self, tmp_path, capsys):
        out_file = tmp_path / "vals.csv"
        code = run_cli([
            "eval", "--solution", "D", "--data", "bump", "--data-args",
            "center=2.0,radius=1.0", "--n", "3", "--r", "1.5", "--theta", "0.3",
            "--out", str(out_file),
        ])
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        # full-precision serialization round-trips exactly
        val = float(rows[0]["value"])
        assert repr(val) == rows[0]["value"]

    def test_invalid_lambda_exits_usage(self, capsys):
        code = run_cli([
            "eval", "--kernel", "K", "--lam", "-1.0", "--n", "3",
            "--r", "1.0", "--theta", "0.0", "--yprime", "1.0,0.0",
        ])
        assert code == 64
        assert capsys.readouterr().out == ""

    def test_needs_exactly_one_target(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", "--n", "3"])
        assert err.value.code == 64

    @pytest.mark.parametrize("target, flag, value", [
        ("D", "--yprime", "1.0,0.0"), ("u", "--yprime", "1.0,0.0"),
        ("K", "--data", "bump"), ("KM", "--data-args", "radius=2.0"),
        *[(t, "--lam", "2.0") for t in ("D", "N", "DM", "NM", "u", "v")],
        *[(t, "--M", "1") for t in ("D", "N", "K")],
        ("K", "--abs-tol", "1e-6"), ("KM", "--rel-tol", "1e-6"),
    ])
    def test_rejects_flags_the_target_ignores(self, target, flag, value, capsys):
        if target in ("K", "KM"):
            args = ["--kernel", target, "--yprime", "1.0,0.0"]
        else:
            args = ["--solution", target, "--data", "bump"]
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", *args, flag, value])
        assert err.value.code == 64
        assert capsys.readouterr().err.endswith(f"does not use {flag}\n")


    def test_no_truncation_radius_flag(self, capsys):
        # the quadrature finds the truncation radius of global data itself
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", "--solution", "D", "--data", "exp_decay",
                     "--truncation-radius", "50"])
        assert err.value.code == 64
        assert "--truncation-radius" in capsys.readouterr().err

    def test_tuple_parameter_takes_one_number(self, capsys):
        # radii=5 is the one-shell train, radii=(5.0,)
        code = run_cli(["eval", "--solution", "D", "--data", "bump_train", "--data-args",
                        "radii=5", "--r", "1.5", "--format", "jsonl"])
        assert code == 0
        [row] = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        from modpoisson.data import bump_train
        from modpoisson.quadrature import dirichlet_D

        x = HalfSpacePoint(n=3, r=1.5, theta=0.0)
        assert row["value"] == dirichlet_D(bump_train(3, radii=(5.0,)), x)

    def test_one_center_with_two_amplitudes_is_a_usage_error(self, capsys):
        code = run_cli(["eval", "--solution", "D", "--data", "sharpness_half_balls",
                        "--data-args", "centers=4"])
        assert code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "one amplitude per center" in captured.err

    def test_data_args_take_true_and_false(self, capsys):
        # "False" is a boolean, not a truthy string
        code = run_cli(["eval", "--solution", "D", "--data", "bump", "--data-args",
                        "radius=2.0,normalized=False", "--r", "1.5", "--format", "jsonl"])
        assert code == 0
        [row] = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        from modpoisson.data import bump
        from modpoisson.quadrature import dirichlet_D

        x = HalfSpacePoint(n=3, r=1.5, theta=0.0)
        assert row["value"] == dirichlet_D(bump(3, radius=2.0), x)

    @pytest.mark.parametrize("command, args", [
        ("eval", ["--solution", "D", "--data", "bump", "--data-args", "radius=1.0,foo=1"]),
        ("eval", ["--solution", "D", "--data", "bump", "--data-args", "radius=abc"]),
        ("eval", ["--solution", "D", "--data", "bump", "--data-args", "n=4"]),
        ("expand", ["--data", "exp_decay", "--data-args", "rate=fast"]),
        ("eval", ["--kernel", "K", "--yprime", "1,2,3", "--n", "3"]),
        ("eval", ["--kernel", "K", "--yprime", "1,abc", "--n", "3"]),
        ("eval", ["--kernel", "K", "--yprime", "1,0", "--r", "x"]),
        ("eval", ["--kernel", "K", "--yprime", "nan,0", "--n", "3"]),
        ("eval", ["--kernel", "K", "--yprime", "1,0", "--yhat", "nan,0", "--theta", "0.5"]),
        ("eval", ["--kernel", "K", "--yprime", "1,0", "--yhat", "inf,0", "--theta", "0.5"]),
        # NaN and infinity are outside every range
        ("eval", ["--kernel", "K", "--yprime", "1,0", "--r", "inf"]),
        ("eval", ["--kernel", "K", "--yprime", "1,0", "--lam", "inf"]),
        ("eval", ["--solution", "D", "--data", "bump", "--data-args", "radius=nan"]),
        ("eval", ["--solution", "D", "--data", "bump", "--data-args", "center=nan"]),
        ("eval", ["--solution", "D", "--data", "bump_train", "--data-args", "width=nan"]),
        ("eval", ["--solution", "D", "--data", "exp_decay", "--data-args", "rate=inf"]),
        ("eval", ["--solution", "D", "--data", "exp_decay", "--rel-tol", "nan"]),
        ("eval", ["--solution", "D", "--data", "exp_decay", "--abs-tol", "inf"]),
        ("expand", ["--divergence", "3", "--r", "-1"]),
        ("expand", ["--divergence", "3", "--r", "0"]),
        ("expand", ["--divergence", "3", "--r", "nan"]),
        ("expand", ["--divergence", "3", "--theta-at", "nan"]),
        ("eval", ["--solution", "D", "--data", "shell_bump", "--data-args",
                  "r_in=1,r_out=inf"]),
        ("eval", ["--solution", "D", "--data", "poly_growth", "--data-args", "exponent=nan"]),
        # an empty comma list is no list of values
        ("eval", ["--solution", "D", "--data", "exp_decay", "--r", ","]),
        ("eval", ["--solution", "D", "--data", "exp_decay", "--theta", ","]),
        ("expand", ["--theta", ","]),
        # NaN in a sharpness family's parameters
        ("eval", ["--solution", "D", "--data", "sharpness_half_balls", "--data-args",
                  "centers=nan,psi=1", "--r", "1.5"]),
        ("eval", ["--solution", "D", "--data", "sharpness_super_balls", "--data-args",
                  "a=nan,b=1.5,amps=1", "--r", "1.5"]),
        # a key given twice would drop one of its values
        ("eval", ["--solution", "D", "--data", "bump", "--data-args", "radius=1,radius=3"]),
    ])
    def test_malformed_values_are_usage_errors(self, command, args, capsys):
        assert run_cli([command, *args]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("order", [None, "0"])
    def test_second_kind_solution_needs_m_of_one(self, order, capsys):
        # F2 solves at the M it reports, as KM2 does: below 1 is a usage error
        for target in (["--solution", "F2", "--data", "exp_decay"],
                       ["--kernel", "KM2", "--yprime", "1.0,0.0"]):
            argv = ["eval", *target] + (["--M", order] if order else [])
            assert run_cli(argv) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "second-kind kernels require M >= 1" in captured.err

    def test_second_kind_solution_row_reports_its_m(self, capsys):
        assert run_cli(["eval", "--solution", "F2", "--data", "exp_decay", "--M", "1",
                        "--r", "2.0", "--format", "jsonl"]) == 0
        [row] = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        from modpoisson.quadrature import integral_F_second

        x = HalfSpacePoint(n=3, r=2.0, theta=0.0)
        assert row["M"] == 1
        assert row["value"] == integral_F_second(KernelParams(1.5, 1, "second"),
                                                 exp_decay(3), x)

    def test_solution_takes_quadrature_flags(self, capsys):
        code = run_cli([
            "eval", "--solution", "D", "--data", "bump", "--n", "3",
            "--r", "1.5", "--theta", "0.3", "--abs-tol", "1e-6", "--format", "jsonl",
        ])
        assert code == 0
        [row] = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        from modpoisson.data import bump
        from modpoisson.quadrature import QuadratureSpec, dirichlet_D

        x = HalfSpacePoint(n=3, r=1.5, theta=0.3)
        assert row["value"] == dirichlet_D(bump(3), x, QuadratureSpec(abs_tol=1e-6))

    def test_no_environment_knob(self, monkeypatch, capsys):
        # no environment variable sets a flag: an unparseable worker count
        # in the environment changes nothing
        monkeypatch.setenv("MODPOISSON_JOBS", "two")
        assert run_cli(["eval", "--kernel", "K", "--yprime", "1.0,0.0"]) == 0
        capsys.readouterr()

    def test_unwritable_out_is_usage_error_before_any_solve(self, monkeypatch, tmp_path,
                                                            capsys):
        from modpoisson import cli

        solves = []
        monkeypatch.setattr(cli, "dirichlet_D", lambda *a, **k: solves.append(a))
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert run_cli(["eval", "--solution", "D", "--data", "bump",
                            "--out", str(out)]) == 64
            assert_one_error_line(capsys)
        assert solves == []


def assert_one_error_line(capsys):
    """A usage error prints nothing on stdout and one error line, with no
    traceback, on stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err
    assert "--out" in captured.err


class TestExpand:
    def test_closed_form_column(self, capsys):
        code = run_cli([
            "expand", "--problem", "neumann", "--data", "exp_decay", "--n", "3",
            "--M", "2", "--theta", "0.5", "--closed-form", "--format", "jsonl",
        ])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        coeffs = [r for r in rows if r["kind"] == "coefficient"]
        assert len(coeffs) == 2
        for r in coeffs:
            assert r["closed_form"] == pytest.approx(
                exp_data_neumann_coefficient(3, r["m"], 0.5), abs=1e-7
            )

    def test_closed_form_column_follows_the_rate(self, capsys):
        # the degree-m coefficient of exp(-a|y|) is a^-(m+n-1) times that of
        # exp(-|y|): 1/4 at m = 0 for a = 2, n = 3
        code = run_cli([
            "expand", "--problem", "neumann", "--data", "exp_decay", "--data-args", "rate=2",
            "--n", "3", "--M", "3", "--theta", "0.0", "--closed-form", "--format", "jsonl",
        ])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert rows[0]["closed_form"] == pytest.approx(0.25, rel=1e-14)
        for r in rows:
            assert r["closed_form"] == pytest.approx(
                2.0 ** -(r["m"] + 2) * exp_data_neumann_coefficient(3, r["m"], 0.0),
                rel=1e-14)
            assert r["value"] == pytest.approx(r["closed_form"], rel=1e-5, abs=1e-12)

    def test_divergence_table(self, capsys):
        code = run_cli([
            "expand", "--divergence", "10", "--n", "3", "--r", "10.0",
            "--theta-at", "0.0", "--format", "csv",
        ])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert len(rows) == 11
        mags = [float(r["term_magnitude"]) for r in rows]
        assert mags[-1] > mags[5]

    def test_divergence_table_far_orders(self, capsys):
        # terms past the turning order underflow at r = 1e6 and would
        # overflow at r = 1; neither raises
        for r in ("1e6", "1"):
            code = run_cli(["expand", "--divergence", "200", "--n", "3", "--r", r,
                            "--format", "csv"])
            assert code == 0
            rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
            assert len(rows) == 201
        assert float(rows[-1]["term_magnitude"]) == float("inf")

    def test_remainder_rows(self, capsys):
        code = run_cli([
            "expand", "--problem", "neumann", "--data", "exp_decay", "--n", "3",
            "--M", "0", "--theta", "0.0", "--radii", "15.0", "--format", "jsonl",
        ])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        evals = [r for r in rows if r["kind"] == "evaluation"]
        assert evals[0]["partial_sum"] == 0.0
        assert evals[0]["remainder"] == evals[0]["direct"]


    def test_csv_table_holds_both_row_kinds(self, capsys):
        # coefficient and evaluation rows carry different fields; each row
        # leaves the fields of the other kind empty
        code = run_cli(["expand", "--problem", "neumann", "--data", "exp_decay", "--n", "3",
                        "--M", "2", "--radii", "20,40"])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert [r["kind"] for r in rows] == ["coefficient"] * 2 + ["evaluation"] * 2
        for r in rows:
            assert None not in r.values()
        assert [r["m"] for r in rows[:2]] == ["0", "1"]
        assert all(r["r"] == "" and r["remainder"] == "" for r in rows[:2])
        assert all(r["value"] == "" for r in rows[2:])
        assert [float(r["r"]) for r in rows[2:]] == [20.0, 40.0]
        for r in rows[2:]:
            assert float(r["remainder"]) == float(r["direct"]) - float(r["partial_sum"])

    @pytest.mark.parametrize("argv", [
        ["--problem", "neumann", "--data", "exp_decay", "--n", "3", "--M", "4",
         "--theta", "0.0,0.5", "--radii", "20,40", "--closed-form", "--format", "jsonl"],
        ["--divergence", "14", "--n", "3", "--r", "10", "--theta-at", "0.0"],
        ["--divergence", "14", "--n", "5", "--problem", "dirichlet"],
    ])
    def test_documented_commands_run(self, argv, capsys):
        assert run_cli(["expand", *argv]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--data", "exp_decay"), ("--data-args", "rate=2"), ("--M", "1"),
        ("--theta", "0.3"), ("--radii", "5"), ("--closed-form", None),
        ("--abs-tol", "1e-3"), ("--rel-tol", "1e-3"), ("--truncation-radius", "50"),
    ])
    def test_divergence_rejects_expansion_flags(self, flag, value, capsys):
        argv = ["expand", "--divergence", "3", "--n", "3", flag] + ([value] if value else [])
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 64
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--r", "99"), ("--theta-at", "0.4")])
    def test_expansion_rejects_divergence_flags(self, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["expand", "--M", "1", "--theta", "0.3", flag, value])
        assert err.value.code == 64
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("other", [["--problem", "dirichlet"], ["--data", "bump"]])
    def test_closed_form_only_for_neumann_exp_decay(self, other, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["expand", "--M", "1", "--closed-form", *other])
        assert err.value.code == 64
        assert "--closed-form" in capsys.readouterr().err

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["expand", "--M", "1", "--radii", "20",
                        "--out", str(tmp_path / "missing" / "x.csv")]) == 64
        assert_one_error_line(capsys)
        assert not (tmp_path / "missing").exists()


class TestVerify:
    def test_single_suite_report(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        code = run_cli(["verify", "--suite", "gegenbauer", "--out", str(report)])
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert all(rec["pass"] for rec in records)
        out = capsys.readouterr().out
        assert "PASS" in out and "failed" in out

    def test_records_carry_exactly_the_report_fields(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        assert run_cli(["verify", "--suite", "kernels", "--out", str(report)]) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) == 2
        for rec in records:
            assert list(rec) == ["name", "parameters", "residual", "tolerance", "pass"]
        capsys.readouterr()

    def test_seeded_determinism(self, tmp_path):
        paths = []
        for i in (0, 1):
            p = tmp_path / f"report{i}.jsonl"
            run_cli(["verify", "--suite", "kernels", "--seed", "7", "--out", str(p)])
            paths.append(p.read_text())
        assert paths[0] == paths[1]

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "nonsense"])
        assert err.value.code == 64

    @pytest.mark.parametrize("flag, value", [
        ("--n", "4"), ("--format", "jsonl"), ("--abs-tol", "1e-6"),
        ("--rel-tol", "1e-6"), ("--truncation-radius", "50"),
    ])
    def test_rejects_flags_the_suites_ignore(self, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "gegenbauer", flag, value])
        assert err.value.code == 64
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, jobs, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "gegenbauer", "--jobs", jobs])
        assert err.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "--jobs" in captured.err

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_seed_is_a_non_negative_integer(self, seed, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "kernels", "--seed", seed])
        assert err.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed" in captured.err
        assert "Traceback" not in captured.err

    def test_unwritable_out_is_usage_error_before_any_suite(self, monkeypatch, tmp_path,
                                                            capsys):
        # 1 means a check failed, so an output path that cannot be written
        # must not reach the suites and report through it
        from modpoisson import suites

        runs = []
        monkeypatch.setitem(suites.SUITES, "gegenbauer", lambda seed=42: runs.append(seed))
        assert run_cli(["verify", "--suite", "gegenbauer",
                        "--out", str(tmp_path / "missing" / "r.jsonl")]) == 64
        assert_one_error_line(capsys)
        assert runs == []

    def test_exit_code_for_failure(self, monkeypatch, capsys):
        from modpoisson import suites
        from modpoisson.verification import CheckReport

        def fake_failing(seed=42):
            return [CheckReport("always_bad", residual=1.0, tolerance=0.1)]

        monkeypatch.setitem(suites.SUITES, "gegenbauer", fake_failing)
        assert run_cli(["verify", "--suite", "gegenbauer"]) == 1
        assert "FAIL" in capsys.readouterr().out


    def test_strict_bounds_print_as_strict(self, monkeypatch, tmp_path, capsys):
        # the text line shows a strict bound as "< bound"; the JSONL record
        # keeps the largest float below it as its tolerance
        from modpoisson import suites
        from modpoisson.verification import CheckReport

        def fake(seed=42):
            return [suites.strictly_below("sign", -1.0, 0.0),
                    suites.strictly_below("decay", 0.5, 1.0, {"k_star": 3}),
                    CheckReport("plain", 0.0, 1e-9)]

        monkeypatch.setitem(suites.SUITES, "gegenbauer", fake)
        report = tmp_path / "report.jsonl"
        assert run_cli(["verify", "--suite", "gegenbauer", "--out", str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("tol=< 0") and lines[1].endswith("tol=< 1")
        assert lines[2].endswith("tol=1.000e-09")
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [rec["tolerance"] for rec in records] == [-5e-324, 0.9999999999999999, 1e-9]
        assert records[1]["parameters"] == {"k_star": 3, "strict_bound": 1.0}


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=2.5\ntheta=0.1\n")
        code = run_cli([
            "eval", "--config", str(cfg), "--kernel", "K", "--lam", "1.0",
            "--n", "3", "--yprime", "1.0,0.0",
        ])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert float(rows[0]["r"]) == 2.5

    def test_explicit_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=2.5\n")
        code = run_cli([
            "eval", "--config", str(cfg), "--kernel", "K", "--lam", "1.0",
            "--n", "3", "--r", "4.0", "--theta", "0.0", "--yprime", "1.0,0.0",
        ])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().splitlines()))
        assert float(rows[0]["r"]) == 4.0

    def test_equals_form_is_usage_error(self, tmp_path, capsys):
        # only the separate "--config FILE" form is read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=2.5\n")
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", f"--config={cfg}", "--kernel", "K", "--yprime", "1.0,0.0"])
        assert err.value.code == 64
        assert "--config" in capsys.readouterr().err

    def test_second_config_is_usage_error(self, tmp_path, capsys):
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("r=2.5\n")
        second.write_text("r=4.0\n")
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", "--config", str(first), "--config", str(second),
                     "--kernel", "K", "--yprime", "1.0,0.0"])
        assert err.value.code == 64
        assert "--config" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as err:
            run_cli(["eval", "--config", str(missing), "--kernel", "K", "--yprime", "1.0,0.0"])
        assert err.value.code == 64
        err_text = capsys.readouterr().err
        assert "error: cannot read --config file" in err_text
        assert "missing.cfg" in err_text


# Run in a fresh interpreter: every solution map once at n = 3, then an eval
# through the CLI.  None of them needs SciPy, so none may import it.
_COLD_START = """
import sys
import modpoisson as mp
from modpoisson.cli import main

x = mp.HalfSpacePoint(n=3, r=1.5, theta=0.6)
spec = mp.QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
decay, growth, shell = mp.exp_decay(3), mp.poly_growth(3, 1.0), mp.shell_bump(3, 1.0, 3.0)
mp.dirichlet_D(decay, x, spec)
mp.neumann_N(decay, x, spec)
mp.dirichlet_DM(2, shell, x, spec)
mp.neumann_NM(2, shell, x, spec)
mp.integral_F(mp.KernelParams(1.5, 1), growth, x, spec)
mp.integral_F_second(mp.KernelParams(1.5, 2, "second"), decay, x, spec)
mp.solution_u(growth, 1, x, spec)
mp.solution_v(decay, 1, x, spec)
code = main(["eval", "--solution", "D", "--data", "bump", "--data-args",
             "center=2.0,radius=1.0", "--n", "3", "--r", "1.5", "--theta", "0.7"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3])
"""


class TestColdStart:
    def test_solves_and_eval_never_import_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 []"
