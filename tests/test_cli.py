import json
import math
import subprocess
import sys

import pytest

from cliffint.cli import parse_exact, run

from oracles import pair_to_float, sphere_monomial


def run_json(args, capsys):
    code = run(args + ["-q"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pizzetti_sphere_round_trip(capsys):
    code, doc = run_json(["pizzetti", "sphere", "--m", "3",
                          "--poly", "x1_1^2"], capsys)
    assert code == 0
    assert doc["command"] == "pizzetti sphere"
    exact = parse_exact(doc["value"])
    assert exact.to_float() == pytest.approx(doc["float"], rel=1e-14)
    assert doc["float"] == pytest.approx(
        pair_to_float(sphere_monomial((2, 0, 0), 3)), rel=1e-12)


def test_pizzetti_stiefel_methods_agree(capsys):
    args = ["pizzetti", "stiefel", "--m", "4", "--k", "2",
            "--poly", "x1_1^2*x2_2^2"]
    _, composed = run_json(args + ["--method", "composed"], capsys)
    _, explicit = run_json(args + ["--method", "explicit2"], capsys)
    assert composed["value"] == explicit["value"]
    assert composed["float"] == pytest.approx(explicit["float"], rel=1e-14)


def test_pizzetti_stiefel_extra_terms(capsys):
    args = ["pizzetti", "stiefel", "--m", "4", "--k", "2",
            "--poly", "x1_1^2*x2_2^2 - 3*x1_1*x1_2*x2_1*x2_2"]
    _, plain = run_json(args, capsys)
    for method in ("composed", "explicit2"):
        code, doc = run_json(args + ["--method", method, "--extra-terms", "2"], capsys)
        assert code == 0
        assert doc["value"] == plain["value"]
        assert run(args + ["--method", method, "--extra-terms", "-1", "-q"]) == 1


def test_oracle_mc_schema(capsys):
    code, doc = run_json(["oracle", "mc", "--m", "3", "--k", "1",
                          "--poly", "x1_1^2", "--n-samples", "2000",
                          "--seed", "3"], capsys)
    assert code == 0
    assert doc["n_samples"] == 2000 and doc["seed"] == 3
    exact = 4 * math.pi / 3
    assert abs(doc["mean"] - exact) < 6 * max(doc["standard_error"], 1e-12)


def test_integrate_implicit_sphere(capsys):
    code, doc = run_json(["integrate", "implicit", "--m", "3",
                          "--phases", "x1_1^2+x1_2^2+x1_3^2-1",
                          "--box=-1.6,1.6", "--n", "101"], capsys)
    assert code == 0
    assert doc["value"] == pytest.approx(4 * math.pi, rel=5e-3)


def test_integrate_oriented_circle(capsys):
    code, doc = run_json(["integrate", "oriented", "--m", "3",
                          "--phases", "x1_1^2+x1_2^2+x1_3^2-1;x1_3",
                          "--f", "x1_1", "--box=-1.6,1.6", "--n", "101"], capsys)
    assert code == 0
    assert doc["value"]["e13"] == pytest.approx(math.pi, rel=5e-3)


def test_verify_identities_all_green(capsys):
    code, doc = run_json(["verify", "identities", "--suite", "series",
                          "--trials", "5", "--seed", "7"], capsys)
    assert code == 0
    assert doc["failed"] == 0 and doc["passed"] > 0
    assert all(c["failed"] == 0 for c in doc["checks"].values())


def test_verify_cauchy_circle(capsys):
    code, doc = run_json(["verify", "cauchy", "--case", "circle",
                          "--n", "101"], capsys)
    assert code == 0
    assert doc["ok"] and doc["residual"] < doc["threshold"]


def test_out_file_round_trip(tmp_path, capsys):
    target = tmp_path / "res.json"
    code, doc = run_json(["pizzetti", "sphere", "--m", "2",
                          "--poly", "1", "--out", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text()) == doc
    assert doc["float"] == pytest.approx(2 * math.pi, rel=1e-14)


def test_boundary_contact_exit_code(capsys):
    code = run(["integrate", "implicit", "--m", "2", "--phases", "x1_1",
                "--box=-1,1", "--n", "64", "-q"])
    assert code == 1
    err = capsys.readouterr().err
    assert "boundary" in err.lower()


def test_usage_error_exit_code(capsys):
    assert run(["pizzetti", "sphere", "--m", "3"]) == 2


def test_bad_polynomial_reports_cleanly(capsys):
    code = run(["pizzetti", "sphere", "--m", "3", "--poly", "x9_9^", "-q"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cliffint", "pizzetti",
                           "sphere", "--m", "3", "--poly", "1", "-q"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["float"] == pytest.approx(4 * math.pi)


def test_quiet_suppresses_logging():
    # subprocess keeps pytest's own logging handlers out of the picture
    base = [sys.executable, "-m", "cliffint", "pizzetti", "sphere",
            "--m", "3", "--poly", "1"]
    loud = subprocess.run(base, capture_output=True, text=True)
    assert loud.returncode == 0 and "INFO" in loud.stderr
    quiet = subprocess.run(base + ["-q"], capture_output=True, text=True)
    assert quiet.returncode == 0 and quiet.stderr == ""
