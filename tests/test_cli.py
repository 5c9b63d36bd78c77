"""CLI surface: document schemas, exit codes, config echo, determinism.

Everything runs in-process through cli.main(argv); no subprocesses, so
the suite stays fast and failures keep their tracebacks.
"""

import contextlib
import io
import json
import math
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from quartzeq import cli

EPS = 2.0**-52


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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


class TestClassifyThreshold:
    def test_classify_weak(self):
        code, out, _ = run(["classify", "--a", "2", "--b", "0"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert doc["regime"] == "ThresholdWeak"
        assert doc["m_estimate"] is None  # classification alone does no numerics

    def test_threshold_estimates_m(self):
        code, out, _ = run(
            ["threshold", "--a", "2", "--b", "0", "--alpha", "0.2", "--x-max", "1e4", "--grid", "60"]
        )
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert doc["m_estimate"] == pytest.approx(0.31988134137, abs=1e-6)
        assert doc["existence"] == "exists"
        assert doc["f_evaluations"] > 0

    def test_threshold_always_exists_shortcuts(self):
        code, out, _ = run(["threshold", "--a", "1", "--b", "1"])
        assert code == 0
        doc = json.loads(out)
        check(doc, "verdict.schema.json")
        assert doc["regime"] == "AlwaysExists"
        assert "note" in doc

    def test_strict_case_flags_supremum(self):
        code, out, _ = run(["threshold", "--a", "2", "--b", "1", "--x-max", "1e4", "--grid", "60"])
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
        # answering --alpha must not repeat the F scan behind m
        from quartzeq import powerlaw

        calls = []
        real = powerlaw.F_equilibrium

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(powerlaw, "F_equilibrium", counted)
        base = ["threshold", "--a", "2", "--b", "0"]
        assert run(base)[0] == 0
        alone = len(calls)
        calls.clear()
        code, out, _ = run(base + ["--alpha", "0.2"])
        assert code == 0 and json.loads(out)["existence"] == "exists"
        assert alone > 0 and len(calls) == alone

    @pytest.mark.parametrize(
        "a,b,alpha,r,message",
        [
            ("2", "0", "-1", "-1", "alpha must be positive, got -1.0"),
            ("2", "0", "0.2", "0", "r must be positive, got 0.0"),
            ("2", "0", "nan", "1", "alpha must be positive, got nan"),
            ("1", "0.5", "-1", "1", "alpha must be positive, got -1.0"),
            ("1", "0.5", "3", "-0.5", "r must be positive, got -0.5"),
        ],
    )
    def test_threshold_rejects_bad_inflow(self, a, b, alpha, r, message):
        code, out, err = run(["threshold", "--a", a, "--b", b, "--x-max", "1e3",
                              "--grid", "20", "--alpha", alpha, "--r", r])
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


def test_byte_identical_reruns():
    argv = ["threshold", "--a", "2", "--b", "0", "--x-max", "1e4", "--grid", "60"]
    first = run(argv)
    second = run(argv)
    assert first == second


def test_unknown_verb_exits_argparse():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
