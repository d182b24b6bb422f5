import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import germlie
from germlie.cli import _config_dict, build_parser
from germlie.reports import Report

# the child interpreter imports germlie from the same source tree as the tests
_SRC = str(Path(germlie.__file__).resolve().parent.parent)


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "germlie", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestDeterminism:
    def test_identical_seeds_give_identical_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = run_cli("--suite", "lie-local", "--seed", "7",
                          "--trials", "40", "--out", str(out))
            assert res.returncode == 0, res.stderr
        assert (a / "report_lie-local.json").read_bytes() == \
            (b / "report_lie-local.json").read_bytes()

    def test_different_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("--suite", "lie-local", "--seed", "1", "--trials", "40",
                "--out", str(a))
        run_cli("--suite", "lie-local", "--seed", "2", "--trials", "40",
                "--out", str(b))
        assert (a / "report_lie-local.json").read_bytes() != \
            (b / "report_lie-local.json").read_bytes()

    def test_suite_alone_matches_its_part_of_all(self, tmp_path):
        res = run_cli("--suite", "all", "--seed", "5", "--trials", "16",
                      "--out", str(tmp_path / "all"))
        assert res.returncode == 0, res.stderr
        for suite in ("germ-space", "lie-local", "lie-global", "regularity", "complexify"):
            res = run_cli("--suite", suite, "--seed", "5", "--trials", "16",
                          "--out", str(tmp_path / suite))
            assert res.returncode == 0, res.stderr
            alone = json.loads((tmp_path / suite / f"report_{suite}.json").read_text())
            part = json.loads((tmp_path / "all" / f"report_{suite}.json").read_text())
            for rep in part["reports"]:
                assert rep["params"]["config"].pop("suite") == "all"
            for rep in alone["reports"]:
                assert rep["params"]["config"].pop("suite") == suite
            assert alone == part


class TestReportStatus:
    def test_passed_follows_status(self):
        rep = Report(check="demo", params={})
        assert rep.passed and rep.to_dict()["passed"]
        rep.status = "inconclusive"
        assert not rep.passed and not rep.to_dict()["passed"]
        rep.fail({"reason": "demo"})
        assert rep.status == "fail" and not rep.passed


class TestExitCodes:
    def test_pass_exits_zero(self, tmp_path):
        res = run_cli("--suite", "complexify", "--out", str(tmp_path / "r"))
        assert res.returncode == 0
        assert "PASS" in res.stdout

    def test_invalid_ratio_is_config_error(self, tmp_path):
        res = run_cli("--suite", "germ-space", "--r", "0.2",
                      "--out", str(tmp_path / "r"))
        assert res.returncode == 2
        assert "1/(2e)" in res.stderr

    def test_negative_trials_is_config_error(self, tmp_path):
        res = run_cli("--suite", "germ-space", "--trials", "-1",
                      "--out", str(tmp_path / "r"))
        assert res.returncode == 2
        assert "nonnegative" in res.stderr

    @pytest.mark.parametrize("suite, option, value", [
        ("lie-local", "--bch-order", "0"),
        ("germ-space", "--degree", "-1"),
        ("germ-space", "--degree", "300"),
    ])
    def test_out_of_range_option_is_config_error(self, tmp_path, suite, option, value):
        res = run_cli("--suite", suite, option, value, "--trials", "8",
                      "--out", str(tmp_path / "r"))
        assert res.returncode == 2
        assert "configuration error" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_base_radius_is_config_error(self, tmp_path, value):
        # rejected when the germ space is built, before any array sees it
        res = run_cli("--suite", "germ-space", "--rho0", value, "--trials", "8",
                      "--out", str(tmp_path / "r"))
        assert res.returncode == 2
        assert "base radius must be positive and finite" in res.stderr
        assert "RuntimeWarning" not in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("degree, message", [
        ("150", "cannot run at this configuration: not boundedly holomorphic"),
        ("200", "configuration error: level 2: the powers of radius 0.01"),
    ])
    def test_high_degree_exits_two_with_one_stderr_line(self, tmp_path, degree, message):
        # 150: the glueing check's Cauchy extraction rejects its test polynomial
        # (EvaluationError); 200: level 2's radius powers leave the float range
        # (StructureError) before any array holds inf or nan.  Warnings are errors.
        env = {**os.environ, "PYTHONWARNINGS": "error",
               "PYTHONPATH": os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
        res = subprocess.run([sys.executable, "-m", "germlie", "--suite", "germ-space",
                              "--degree", degree, "--trials", "4", "--out", str(tmp_path / "r")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 2
        assert res.stderr.splitlines() == [res.stderr.strip()]
        assert res.stderr.startswith(message)
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr

    def test_config_echoes_every_option_but_out(self):
        parser = build_parser()
        config = _config_dict(parser.parse_args(["--suite", "germ-space", "--out", "x"]))
        assert set(config) == {a.dest for a in parser._actions} - {"help", "out"}

    def test_unknown_suite_is_usage_error(self, tmp_path):
        res = run_cli("--suite", "nope", "--out", str(tmp_path / "r"))
        assert res.returncode == 2


class TestArtifacts:
    def test_report_schema_and_config_echo(self, tmp_path):
        out = tmp_path / "r"
        res = run_cli("--suite", "germ-space", "--seed", "3", "--trials", "30",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        doc = json.loads((out / "report_germ-space.json").read_text())
        assert doc["schema"] == 1
        assert doc["reports"]
        for rep in doc["reports"]:
            assert rep["schema"] == 1
            assert rep["params"]["config"]["seed"] == 3
            assert rep["status"] in ("pass", "fail", "inconclusive")

    def test_csv_summary_one_row_per_case(self, tmp_path):
        out = tmp_path / "r"
        run_cli("--suite", "germ-space", "--trials", "30", "--out", str(out))
        lines = (out / "summary_germ-space.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["n", "ell", "eps"]
        assert len(lines) == 1 + 6  # header + the (n, ell, eps) grid
