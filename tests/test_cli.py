"""CLI surface: document schemas, exit codes, config echo, determinism.

Everything runs in-process through cli.main(argv), so the suite stays
fast and failures keep their tracebacks; only the closed-pipe test needs
a subprocess, for a real stdout file descriptor.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import types
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from quartzeq import acceptance, cli

EPS = 2.0**-52


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_exit(argv):
    """run() for argv that argparse rejects: (SystemExit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def schema(name):
    return json.loads(resources.files("quartzeq.schemas").joinpath(name).read_text())


def check(doc, schema_name):
    jsonschema.validate(doc, schema(schema_name))
    jsonschema.validate(doc["config"], schema("config.schema.json"))


SCHEMA_FILES = [
    "asym.schema.json",
    "audit.schema.json",
    "config.schema.json",
    "equilibrium.schema.json",
    "reproduce.schema.json",
    "roots.schema.json",
    "simulate.schema.json",
    "verdict.schema.json",
]


@pytest.mark.parametrize("name", SCHEMA_FILES)
def test_shipped_schemas_are_valid_draft7(name):
    jsonschema.Draft7Validator.check_schema(schema(name))


class TestRoots:
    def test_golden_case(self):
        code, out, _ = run(["roots", "--k", "1", "--N", "1", "--alpha", "0.2", "--r", "1"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "roots.schema.json")
        assert doc["count"] == 2
        assert doc["classification"] == "two_roots"
        assert doc["roots"][0] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
        assert doc["roots"][1] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        assert doc["config"]["verb"] == "roots"

    def test_missing_flags_usage_error(self):
        code, _, err = run(["roots", "--k", "1", "--N", "1"])
        assert code == 2
        assert "usage error" in err

    def test_no_sign_change_is_numeric_error(self, monkeypatch):
        # a root bracket without a sign change breaks the solver's own
        # invariant, not the input's: forced here by an F that stays at 0
        from quartzeq import piecewise

        monkeypatch.setattr(piecewise, "_F_piecewise", lambda k, N, x: 0.0)
        code, out, err = run(["roots", "--k", "1", "--N", "1", "--alpha", "0.2", "--r", "1"])
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "QuartzeqError",
                                   "message": "no sign change on [0.0, 1.0]"}


class TestClassifyThreshold:
    def test_classify_weak(self):
        code, out, _ = run(["classify", "--a", "2", "--b", "0"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert doc["regime"] == "ThresholdWeak"
        assert doc["m_estimate"] is None  # classification alone does no numerics

    def test_threshold_estimates_m(self):
        code, out, _ = run(["threshold", "--a", "2", "--b", "0", "--alpha", "0.2"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert doc["m_estimate"] == pytest.approx(0.31988134137, abs=1e-6)
        assert doc["existence"] == "exists"
        assert doc["f_evaluations"] == 250
        # the scan sets its own extent: no grid settings to echo
        assert doc["config"]["numerics"] == {"a": 2.0, "b": 0.0, "alpha": 0.2, "r": 1.0}

    def test_threshold_past_1e6(self):
        # the peak of (3, 1.99) lies near x = 4.7e7, past the former
        # default grid's edge at 1e6
        code, out, _ = run(["threshold", "--a", "3", "--b", "1.99", "--alpha", "0.9"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert doc["m_estimate"] == pytest.approx(0.9454039041442371, abs=1e-12)
        assert doc["existence"] == "exists"

    def test_threshold_always_exists_shortcuts(self):
        code, out, _ = run(["threshold", "--a", "1", "--b", "1"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert doc["regime"] == "AlwaysExists"
        assert "note" in doc

    def test_strict_case_flags_supremum(self):
        code, out, _ = run(["threshold", "--a", "2", "--b", "1"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert doc["m_attained_at"] is None
        assert doc["attained"] == "supremum at infinity"
        assert doc["m_estimate"] == 1.0
        assert "f_evaluations" not in doc

    @pytest.mark.parametrize(
        "alpha,existence",
        [("0.995", "exists"), ("1.0", "not_exists"), ("1.02", "not_exists")],
    )
    def test_strict_threshold_is_one(self, alpha, existence):
        # F(1e6) = 0.99069 for (2, 1), but the supremum is exactly 1
        code, out, _ = run(["threshold", "--a", "2", "--b", "1", "--alpha", alpha])
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert (doc["m_estimate"], doc["m_error_bar"]) == (1.0, 0.0)
        assert doc["existence"] == existence

    def test_threshold_existence_reuses_the_m_scan(self, monkeypatch):
        # answering --alpha must not repeat the F scan behind m: neither
        # the grid nor the bracket rescans (every F is an evaluate row)
        from quartzeq import powerlaw

        calls = []
        real_evaluate = powerlaw.evaluate

        def counted_evaluate(fam, quantity, xs, *args, **kwargs):
            calls.extend(xs)
            return real_evaluate(fam, quantity, xs, *args, **kwargs)

        monkeypatch.setattr(powerlaw, "evaluate", counted_evaluate)
        base = ["threshold", "--a", "2", "--b", "0"]
        code, out, _ = run(base)
        assert code == 0
        # every F the estimate walked, and no other
        alone = len(calls)
        assert alone == json.loads(out)["f_evaluations"]
        calls.clear()
        code, out, _ = run(base + ["--alpha", "0.2"])
        assert code == 0 and json.loads(out)["existence"] == "exists"
        assert len(calls) == alone

    @pytest.mark.parametrize(
        "a,b,alpha,r,message",
        [
            ("2", "0", "-1", "-1", "alpha must be positive, got -1.0"),
            ("2", "0", "0.2", "0", "r must be positive, got 0.0"),
            ("1", "0.5", "-1", "1", "alpha must be positive, got -1.0"),
            ("1", "0.5", "3", "-0.5", "r must be positive, got -0.5"),
        ],
    )
    def test_threshold_rejects_bad_inflow(self, a, b, alpha, r, message):
        code, out, err = run(["threshold", "--a", a, "--b", b, "--alpha", alpha, "--r", r])
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"

    def test_inconsistent_exponents_usage_error(self):
        code, _, err = run(["threshold", "--a", "1", "--b", "5"])
        assert code == 2
        assert "usage error" in err


class TestEquilibrium:
    def test_single_point_json(self):
        code, out, _ = run(["equilibrium", "--family", "piecewise", "--k", "1", "--N", "1", "--x", "1"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "equilibrium.schema.json")
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["value"] == pytest.approx(0.25, abs=1e-12)

    def test_grid_csv_layout(self):
        code, out, _ = run(["equilibrium", "--family", "piecewise", "--k", "1", "--N", "1", "--count", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        echoed = json.loads(lines[0][len("# config: "):])
        jsonschema.validate(echoed, schema("config.schema.json"))
        assert lines[1] == "x,value,tail_bound,terms_used"
        assert len(lines) == 2 + 4

    def test_grid_rows_follow_spec(self):
        code, out, _ = run(["equilibrium", "--x-min", "0.1", "--x-max", "10", "--count", "7",
                            "--format", "json"])
        assert code == 0
        xs = [row["x"] for row in json.loads(out)["rows"]]
        assert len(xs) == 7 and xs[0] == 0.1 and xs[-1] == pytest.approx(10.0)
        assert all(xs[i] < xs[i + 1] for i in range(6))

    @pytest.mark.parametrize("flags,message", [
        (["--x-min", "1", "--x-max", "0.5"], "x_max must be >= x_min"),
        (["--count", "0"], "count must be >= 1, got 0"),
        (["--x-min", "0", "--spacing", "log"], "log spacing requires x_min > 0"),
    ], ids=["x_max-below-x_min", "count-0", "log-from-0"])
    def test_bad_grid_rejected(self, flags, message):
        code, out, err = run(["equilibrium", *flags])
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("flags", [["--spacing", "cubic"], ["--count", "2.5"]],
                             ids=["spacing-cubic", "count-2.5"])
    def test_bad_grid_flag_rejected(self, flags):
        code, out, err = run_exit(["equilibrium", *flags])
        assert code == 2 and out == ""
        assert f"argument {flags[0]}: invalid" in err

    def test_term_cap_exhaustion_is_numeric_error(self):
        # sum k_i M_i at kx = 1e5 decays by kx/(kx+1) per term, so ten terms
        # cannot reach the tolerance
        code, _, err = run(
            ["equilibrium", "--family", "piecewise", "--k", "1", "--N", "1",
             "--x", "1e5", "--quantity", "kM", "--term-cap", "10"]
        )
        assert code == 3
        diag = json.loads(err)
        assert diag["error"] == "ConvergenceError"
        assert diag["detail"]["terms_used"] == 10


    @pytest.mark.parametrize("pair, message", [((math.nan, 0.0), "non-finite series value nan"),
                                               ((1.0, -1.0), "negative tail bound -1.0")])
    def test_broken_bounded_value_is_numeric_error(self, monkeypatch, pair, message):
        # BoundedValue's checks guard the series kernel's own output, so a
        # failed one is a numeric failure, not a usage error
        from quartzeq import series

        monkeypatch.setattr(series, "_certified_pair", lambda *args: pair)
        code, out, err = run(["equilibrium", "--x", "1", "--quantity", "kM"])
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "QuartzeqError", "message": message}

    @pytest.mark.parametrize("argv", [
        ["equilibrium", "--x", "1", "--term-cap", "0"],
        ["equilibrium", "--x", "1", "--term-cap", "-3"],
        ["asym", "--a", "1", "--b", "0", "--compare-grid", "100", "--term-cap", "0"],
    ])
    def test_term_cap_below_one_is_usage_error(self, argv):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert err == f"usage error: term_cap must be >= 1, got {argv[-1]}\n"

    @pytest.mark.parametrize("quantity", ["F", "kM", "iqM"])
    def test_piecewise_rows_equal_its_table(self, quantity, tmp_path):
        # the piecewise family is the table of N + 2 rows: (k, 1, 0) for
        # cohorts 0..N, then (k, 0, 1), which the constant tail repeats
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"kind": "tabulated", "k": [1.5] * 5,
                                     "p": [1, 1, 1, 1, 0], "q": [0, 0, 0, 0, 1]}))
        grid = ["--quantity", quantity, "--r", "2", "--spacing", "linear",
                "--x-min", "0", "--x-max", "50", "--count", "26"]
        rows = []
        for family in (["--family", "piecewise", "--k", "1.5", "--N", "3"],
                       ["--family-config", str(table)]):
            code, out, _ = run(["equilibrium", *family, *grid])
            assert code == 0
            rows.append(out.splitlines()[1:])
        assert rows[0] == rows[1] and len(rows[0]) == 1 + 26

    def test_piecewise_N_of_true_is_usage_error(self, tmp_path):
        # config.schema.json rejects a boolean N, so no document may echo one
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"kind": "piecewise_constant", "k": 1.0, "N": True}))
        code, out, err = run(["equilibrium", "--family-config", str(path), "--x", "1"])
        assert code == 2 and out == ""
        assert err == "usage error: N must be an integer, got True\n"

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "tabulated", "k": ["a"], "p": [1], "q": [0]},
         "could not convert string to float: 'a'"),
        ({"kind": "tabulated", "k": [{"x": 1}], "p": [1], "q": [0]},
         "float() argument must be a string or a real number, not 'dict'"),
        ({"kind": "power_law", "p_exp": "x", "q_exp": 1, "k_exp": 0},
         "could not convert string to float: 'x'"),
        ({"kind": "piecewise_constant", "k": "x", "N": 1},
         "could not convert string to float: 'x'"),
    ], ids=["table-str", "table-dict", "power-law", "piecewise"])
    def test_non_numeric_family_config_is_usage_error(self, doc, message, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["equilibrium", "--family-config", str(path), "--x", "1"])
        assert code == 2 and out == ""
        assert err == f"usage error: family config values must be numbers: {message}\n"

    @pytest.mark.parametrize("flags", [[], ["--a", "2"], ["--b", "0"]], ids=["none", "a", "b"])
    def test_power_law_needs_a_and_b(self, flags):
        # other exponents and index-0 rates come only from --family-config
        code, out, err = run(["equilibrium", "--family", "power_law", "--x", "1", *flags])
        assert code == 2 and out == ""
        assert err.startswith("usage error: --family power_law needs both --a and --b")

    @pytest.mark.parametrize("verb,flags,message", [
        ("equilibrium", ["--a", "2", "--b", "0"],
         "the piecewise family does not read --a, --b"),
        ("equilibrium", ["--family", "piecewise", "--k", "1", "--b", "0"],
         "the piecewise family does not read --b"),
        ("equilibrium", ["--family", "power_law", "--a", "2", "--b", "0", "--k", "3"],
         "--family power_law does not read --k"),
        ("equilibrium", ["--family-config", "FILE", "--N", "2"],
         "--family-config does not read --N"),
        ("identity-audit", ["--family-config", "FILE", "--family", "piecewise"],
         "--family-config does not read --family"),
        ("simulate", ["--family", "power_law", "--a", "2", "--b", "0", "--N", "1",
                      "--alpha", "0.2", "--r", "1"],
         "--family power_law does not read --N"),
    ], ids=["ab-piecewise-default", "b-piecewise", "k-power-law", "N-config",
            "family-config", "simulate-N-power-law"])
    def test_family_from_two_sources_is_usage_error(self, verb, flags, message, tmp_path):
        # a family flag the family does not read would be silently dropped
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"kind": "piecewise_constant", "k": 1.0, "N": 1}))
        flags = [str(path) if f == "FILE" else f for f in flags]
        x = ["--x", "1"] if verb != "simulate" else []
        code, out, err = run([verb, *flags, *x])
        assert code == 2 and out == ""
        assert err == f"usage error: {message}: a family comes from one source\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_float_overflow_is_numeric_error(self, tmp_path):
        # (a, b) = (80, 79 - 1e-8): past i ~ 7e3, i^a is beyond the doubles
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"kind": "power_law", "p_exp": 0.0,
                                    "q_exp": 1.00000001, "k_exp": 78.99999999}))
        code, out, err = run(["equilibrium", "--family-config", str(path), "--x", "1e290"])
        assert code == 3 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "ConvergenceError"
        assert (diag["detail"]["series"], diag["detail"]["x"]) == ("H_series", 1e290)

    def test_piecewise_f_at_large_kx(self):
        # F is exact after N terms; its check must not need the slowly
        # converging sum k_i M_i.  The reference is F = y (1 - y) in exact
        # rationals.
        code, out, _ = run(
            ["equilibrium", "--family", "piecewise", "--k", "1", "--N", "1", "--x", "1e5"]
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        y = Fraction(10**5, 10**5 + 1)
        exact = float(y * (1 - y))
        pad = 16 * EPS * abs(row["value"])
        assert row["value"] - pad <= exact <= row["value"] + row["tail_bound"] + pad


class TestAsym:
    def test_expansion_with_comparison(self):
        code, out, _ = run(
            ["asym", "--a", "1", "--b", "-1", "--depth", "4", "--format", "json",
             "--compare-grid", "1000,10000,100000"]
        )
        assert code == 0
        doc = json.loads(out)
        check(doc, "asym.schema.json")
        powers = {t["power"]: t["coeff"] for t in doc["expansion"]["terms"]}
        assert powers[0.5] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
        residuals = [abs(row["residual"]) for row in doc["comparison"]]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_comparison_csv_default(self):
        code, out, _ = run(["asym", "--a", "1", "--b", "-1", "--compare-grid", "100,1000"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "x,direct,expansion,residual"
        assert len(lines) == 4


def test_identity_audit_residuals_vanish():
    code, out, _ = run(["identity-audit", "--family", "power_law", "--a", "2", "--b", "0", "--x", "3"])
    assert code == 0
    doc = json.loads(out)
    check(doc, "audit.schema.json")
    assert doc["G"]["residual"] <= 1e-10
    assert doc["d"]["residual"] <= 1e-10


class TestSimulate:
    def test_files_and_summary(self, tmp_path):
        csv_path = tmp_path / "traj.csv"
        sum_path = tmp_path / "summary.json"
        code, out, _ = run(
            ["simulate", "--family", "piecewise", "--k", "1", "--N", "1",
             "--alpha", "0.2", "--r", "1", "--imax", "30", "--t-end", "400",
             "--out", str(csv_path), "--summary-out", str(sum_path)]
        )
        assert code == 0
        doc = json.loads(sum_path.read_text())
        check(doc, "simulate.schema.json")
        assert doc["converged"] is True
        assert doc["x_final"] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-6)
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "t,x,total_cells,total_load,rhs_norm"
        assert len(lines) == 2 + doc["n_steps"]  # config + header + one row per sample

    def test_out_file_without_summary_out(self, tmp_path):
        # the series goes to the file and the summary JSON alone to stdout
        csv_path = tmp_path / "traj.csv"
        code, out, _ = run(
            ["simulate", "--family", "piecewise", "--k", "1", "--N", "1",
             "--alpha", "0.2", "--r", "1", "--imax", "10", "--t-end", "50",
             "--out", str(csv_path)]
        )
        assert code == 0
        doc = json.loads(out)
        check(doc, "simulate.schema.json")
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "t,x,total_cells,total_load,rhs_norm"
        assert len(lines) == 2 + doc["n_steps"]
        assert not any(line.startswith("# summary: ") for line in lines)

    def test_stdout_trailing_summary(self):
        code, out, _ = run(
            ["simulate", "--family", "piecewise", "--k", "1", "--N", "1",
             "--alpha", "0.2", "--r", "1", "--imax", "10", "--t-end", "50"]
        )
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("# summary: ")
        doc = json.loads(last[len("# summary: "):])
        check(doc, "simulate.schema.json")


class TestReproduce:
    def test_single_criterion_text(self):
        code, out, _ = run(["reproduce", "--criterion", "8"])
        assert code == 0
        assert "PASS criterion  8" in out
        assert "1/1 criteria passed" in out

    def test_single_criterion_json(self):
        code, out, _ = run(["reproduce", "--criterion", "8", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "reproduce.schema.json")
        assert doc["all_passed"] is True
        assert doc["results"][0]["number"] == 8

    @pytest.mark.parametrize("criterion", ["11", "0"])
    def test_unknown_criterion_is_usage_error(self, criterion, tmp_path):
        # exit 1 means failed checks, so a criterion that does not exist is not one
        code, out, err = run_exit(["reproduce", "--criterion", criterion])
        assert code == 2 and out == ""
        assert "argument --criterion: invalid choice: " + criterion in err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"criterion": [8, int(criterion)]}))
        code, out, err = run_exit(["--config", str(cfg), "reproduce"])
        assert code == 2 and out == ""
        assert "argument --criterion: invalid choice: " + criterion in err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 1.0, "N": 1, "alpha": 0.2, "r": 1.0}))
        code, out, _ = run(["--config", str(cfg), "roots"])
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 1.0, "N": 1, "alpha": 0.2, "r": 1.0}))
        code, out, _ = run(["--config", str(cfg), "roots", "--alpha", "0.3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 0.3
        assert doc["count"] == 0  # 0.3 sits above the threshold 0.25

    def test_missing_config_file_is_usage_error(self):
        code, _, err = run(["--config", "/nonexistent/cfg.json", "roots"])
        assert code == 2
        assert "usage error" in err

    def test_config_value_outside_choices_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "csv", "k": 1.0, "N": 1,
                                   "alpha": 0.2, "r": 1.0}))
        # exactly what a bad --format on the command line gives
        code, out, err = run_exit(["--config", str(cfg), "roots"])
        assert (code, out) == (2, "")
        assert "invalid choice" in err and "--format" in err
        # an explicit flag replaces the config value, and another verb may
        # accept it
        assert run(["--config", str(cfg), "roots", "--format", "json"])[0] == 0
        code, out, _ = run(["--config", str(cfg), "equilibrium", "--x", "1"])
        assert code == 0 and out.startswith("# config: ")

    def test_config_value_gets_the_flag_type(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"term_cap": 2.5}))
        code, out, err = run_exit(["--config", str(cfg), "equilibrium", "--x", "1"])
        assert (code, out) == (2, "")
        assert "--term-cap: invalid int value: '2.5'" in err

    def test_config_list_for_a_single_flag_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"x": [1, 2]}))
        code, out, err = run(["--config", str(cfg), "equilibrium"])
        assert (code, out) == (2, "")
        assert err.startswith("usage error: config value x=[1, 2] for equilibrium")

    def test_config_criterion_number_or_list(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"criterion": 3}))
        code, out, _ = run(["--config", str(cfg), "reproduce", "--format", "json"])
        assert code == 0
        assert json.loads(out)["config"]["numerics"]["criteria"] == [3]
        # a list repeats the flag; an explicit --criterion replaces the list
        cfg.write_text(json.dumps({"criterion": [8, 1]}))
        code, out, _ = run(["--config", str(cfg), "reproduce", "--format", "json"])
        assert [r["number"] for r in json.loads(out)["results"]] == [8, 1]
        code, out, _ = run(["--config", str(cfg), "reproduce", "--format", "json",
                            "--criterion", "8"])
        assert [r["number"] for r in json.loads(out)["results"]] == [8]

    def test_config_satisfies_required_flags(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": 2, "b": 0}))
        code, out, _ = run(["--config", str(cfg), "classify"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["a"], doc["b"], doc["regime"]) == (2.0, 0.0, "ThresholdWeak")


def test_closed_pipe_exits_141_silently():
    # the reader is gone before the first write, as in `quartzeq ... | head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quartzeq.cli", "roots", "--k", "1", "--N", "1",
             "--alpha", "0.2", "--r", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_byte_identical_reruns():
    argv = ["threshold", "--a", "2", "--b", "0"]
    first = run(argv)
    second = run(argv)
    assert first == second


def test_reproduce_text_is_byte_identical_across_reruns(monkeypatch):
    # the text document carries no wall time, so a clock that makes each
    # run take longer than the last changes no byte; only --format json's
    # runtime_s varies
    ticks = itertools.count()
    monkeypatch.setattr(acceptance, "time",
                        types.SimpleNamespace(perf_counter=lambda: 0.01 * next(ticks) ** 2))
    argv = ["reproduce", "--criterion", "1"]
    first, second = run(argv), run(argv)
    assert first[0] == 0 and first == second
    runtimes = [json.loads(run(argv + ["--format", "json"])[1])["results"][0]["runtime_s"]
                for _ in range(2)]
    assert runtimes[0] != runtimes[1]


def test_unknown_verb_exits_argparse():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--x", "1", "--format", "text"],
        ["roots", "--k", "1", "--N", "1", "--alpha", "0.2", "--r", "1", "--format", "csv"],
        ["classify", "--a", "2", "--b", "0", "--format", "csv"],
        ["threshold", "--a", "2", "--b", "0", "--format", "csv"],
        ["asym", "--a", "1", "--b", "-1", "--format", "text"],
        ["identity-audit", "--x", "1", "--format", "csv"],
        ["simulate", "--alpha", "0.2", "--r", "1", "--imax", "5", "--t-end", "1",
         "--format", "json"],
        ["reproduce", "--criterion", "8", "--format", "csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_format_the_verb_cannot_write_is_rejected(argv):
    # --format lists only what each verb writes, so the echoed format is
    # always the written one
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(argv)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert "invalid choice" in err.getvalue()


def test_every_float_flag_is_finite():
    # nan or inf would only fail later, as a traceback from the JSON
    # writer; every float flag, also one added later, takes finite values
    verbs = next(act for act in cli.build_parser()._actions
                 if isinstance(act, argparse._SubParsersAction)).choices
    flags = [(verb, act) for verb, sub in verbs.items() for act in sub._actions
             if act.type not in (None, int)]
    assert len(flags) > 20
    for verb, act in flags:
        assert act.type("2.5") in (2.5, [2.5]), (verb, act.dest)
        for text in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(argparse.ArgumentTypeError):
                act.type(text)
    for argv in (["equilibrium", "--x", "1", "--r", "nan"],
                 ["threshold", "--a", "2", "--b", "0", "--alpha", "nan"]):
        code, out, err = run_exit(argv)
        assert code == 2 and out == ""
        assert f"argument {argv[-2]}: need a finite number, got 'nan'" in err


_PIECEWISE = ["--family", "piecewise", "--k", "1", "--N", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--k", "1", "--N", "1", "--alpha", "0.2", "--r", "1", "--term-cap", "10"],
        ["roots", "--k", "1", "--N", "1", "--alpha", "0.2", "--r", "1", "--family", "piecewise"],
        ["classify", "--a", "2", "--b", "0", "--tol", "5"],
        ["classify", "--a", "2", "--b", "0", "--term-cap", "-3"],
        ["threshold", "--a", "2", "--b", "0", "--tol", "0.5"],
        ["threshold", "--a", "2", "--b", "0", "--term-cap", "10"],
        ["threshold", "--a", "2", "--b", "0", "--x-max", "1e4"],
        ["threshold", "--a", "2", "--b", "0", "--grid", "60"],
        ["equilibrium", "--family", "power_law", "--x", "1", "--p-exp", "1"],
        ["identity-audit", "--family", "power_law", "--x", "1", "--q-exp", "1"],
        ["simulate", "--family", "power_law", "--alpha", "0.2", "--r", "1", "--k-exp", "1"],
        ["identity-audit", *_PIECEWISE, "--x", "1", "--tol", "1e-6"],
        ["identity-audit", *_PIECEWISE, "--x", "1", "--term-cap", "10"],
        ["simulate", *_PIECEWISE, "--alpha", "0.2", "--r", "1", "--imax", "5",
         "--t-end", "1", "--term-cap", "10"],
        ["reproduce", "--criterion", "8", "--tol", "1e-6"],
        ["reproduce", "--criterion", "8", "--term-cap", "10"],
        ["equilibrium", "--x", "1", "--seed", "1"],
        ["roots", "--k", "1", "--N", "1", "--alpha", "0.2", "--r", "1", "--seed", "1"],
        ["classify", "--a", "2", "--b", "0", "--seed", "1"],
        ["threshold", "--a", "2", "--b", "0", "--seed", "1"],
        ["asym", "--a", "1", "--b", "-1", "--seed", "1"],
        ["identity-audit", *_PIECEWISE, "--x", "1", "--seed", "1"],
        ["simulate", *_PIECEWISE, "--alpha", "0.2", "--r", "1", "--imax", "5",
         "--t-end", "1", "--seed", "1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_the_verb_does_not_read_is_rejected(argv):
    # a settable value that changes nothing would only mislead
    code, out, err = run_exit(argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: " + argv[-2] in err


@pytest.mark.parametrize("argv", [
    ["equilibrium", "--x", "1"],
    ["equilibrium", "--count", "3"],
    ["roots", "--k", "1", "--N", "1", "--alpha", "0.2", "--r", "1"],
    ["classify", "--a", "2", "--b", "0"],
    ["threshold", "--a", "2", "--b", "1"],
    ["asym", "--a", "1", "--b", "-1", "--compare-grid", "100"],
    ["identity-audit", "--x", "1"],
    ["simulate", *_PIECEWISE, "--alpha", "0.2", "--r", "1", "--imax", "5", "--t-end", "1"],
    ["reproduce", "--criterion", "8", "--seed", "7"],
], ids=["equilibrium-json", "equilibrium-csv", "roots", "classify", "threshold", "asym",
        "identity-audit", "simulate", "reproduce"])
def test_only_reproduce_echoes_a_seed(argv):
    # the config schema lists every key a config may carry, and seed is not
    # one: only reproduce reads a seed, and it echoes it in its numerics
    code, out, _ = run(argv)
    assert code == 0
    line = next((ln for ln in out.splitlines() if ln.startswith("# config: ")), None)
    config = json.loads(line[len("# config: "):]) if line else json.loads(out)["config"]
    jsonschema.validate(config, schema("config.schema.json"))
    assert "seed" not in config
    assert config["numerics"].get("seed") == (7 if argv[0] == "reproduce" else None)
