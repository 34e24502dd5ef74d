import csv
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import factorial2k
from factorial2k import (
    contrast_matrix,
    effect_estimates,
    equal_scheme,
    ingest_csv,
    moment_estimates,
    product_scheme,
)
from factorial2k.cli import (
    EXIT_IDENTITY,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    resolve_scheme,
)
from factorial2k.core import FactorSpec
from factorial2k.errors import ParseError

from conftest import spy_calls


@pytest.fixture
def csv_2x2(tmp_path):
    path = tmp_path / "data.csv"
    rows = [
        (0, 0, 1.0), (0, 0, 3.0),
        (0, 1, 2.0), (0, 1, 4.0),
        (1, 0, 5.0), (1, 0, 7.0),
        (1, 1, 6.0), (1, 1, 10.0),
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["A", "B", "Y"])
        writer.writerows(rows)
    return str(path)


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_analyze_balanced(csv_2x2, tmp_path):
    code, payload = run_cli(
        ["analyze", "--input", csv_2x2, "--factors", "A,B"], tmp_path
    )
    assert code == EXIT_OK
    effects = payload["moment"]["effects"]
    assert effects["A"]["estimate"] == pytest.approx(4.5)
    assert effects["B"]["estimate"] == pytest.approx(1.5)
    assert effects["A:B"]["estimate"] == pytest.approx(1.0)
    assert payload["verification"]["pass"] is True
    assert payload["verification"]["max_rel_err"] <= 1e-8
    # equal scheme defaults the shifts to one half
    assert payload["delta"] == [0.5, 0.5]


def test_analyze_matches_library(csv_2x2, tmp_path):
    code, payload = run_cli(
        ["analyze", "--input", csv_2x2, "--factors", "A,B", "--scheme", "empirical"],
        tmp_path,
    )
    assert code == EXIT_OK
    data = ingest_csv(csv_2x2, FactorSpec(("A", "B")))
    rep = effect_estimates(data, equal_scheme(2))
    for label, i in (("A", 0), ("B", 1), ("A:B", 2)):
        entry = payload["moment"]["effects"][label]
        assert entry["estimate"] == pytest.approx(rep.estimate[i])
        assert entry["se"] == pytest.approx(rep.se[i])


def test_analyze_unsaturated_model(csv_2x2, tmp_path):
    code, payload = run_cli(
        [
            "analyze",
            "--input",
            csv_2x2,
            "--factors",
            "A,B",
            "--model",
            "A,B",
            "--delta",
            "0.5,0.5",
        ],
        tmp_path,
    )
    assert code == EXIT_OK
    assert payload["verification"]["identity"].startswith("unsaturated")
    assert payload["verification"]["pass"] is True
    # balanced data: additive coefficients equal the saturated main effects
    coefs = payload["regression"]["coefficients"]
    assert coefs["A"]["coefficient"] == pytest.approx(4.5)
    assert coefs["B"]["coefficient"] == pytest.approx(1.5)


def test_analyze_model_builds_one_design_and_two_fits(csv_2x2, tmp_path, monkeypatch):
    designs = spy_calls(monkeypatch, "regression", "build_design")
    fits = spy_calls(monkeypatch, "regression", "ols_fit")
    refits = spy_calls(monkeypatch, "regression", "unsaturated_fit")
    factorisations = spy_calls(monkeypatch, "regression", "_qr_solve")
    code, payload = run_cli(
        ["analyze", "--input", csv_2x2, "--factors", "A,B", "--model", "A,B"], tmp_path
    )
    assert code == EXIT_OK
    assert payload["verification"]["pass"] is True
    # the saturated fit solves coefficients only; HC0 comes from the one ols_fit
    assert (len(designs), len(fits), len(refits)) == (1, 1, 0)
    assert len(factorisations) == 3


def test_analyze_rejects_too_many_factors(csv_2x2, tmp_path, monkeypatch, capsys):
    builds = spy_calls(monkeypatch, "contrasts", "contrast_matrix")
    code, _ = run_cli(
        ["analyze", "--input", csv_2x2, "--factors", ",".join("ABCDEFGHIJKLM")], tmp_path
    )
    assert code == EXIT_VALIDATION
    assert "at most 12" in capsys.readouterr().err
    assert builds == []


def test_analyze_missing_factors(csv_2x2, tmp_path):
    code, _ = run_cli(["analyze", "--input", csv_2x2], tmp_path)
    assert code == EXIT_VALIDATION


def test_analyze_bad_delta_length(csv_2x2, tmp_path):
    code, _ = run_cli(
        ["analyze", "--input", csv_2x2, "--factors", "A,B", "--delta", "0.5"],
        tmp_path,
    )
    assert code == EXIT_VALIDATION


def test_analyze_missing_input_file(tmp_path, capsys):
    code, _ = run_cli(
        ["analyze", "--input", str(tmp_path / "absent.csv"), "--factors", "A,B"],
        tmp_path,
    )
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_unwritable_out(csv_2x2, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out.json"
    code = main(["analyze", "--input", csv_2x2, "--factors", "A,B", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_non_finite_outcome(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("A,B,Y\n0,0,1\n0,0,2\n0,1,3\n0,1,nan\n1,0,5\n1,0,6\n1,1,7\n1,1,8\n")
    code, _ = run_cli(["analyze", "--input", str(path), "--factors", "A,B"], tmp_path)
    assert code == EXIT_VALIDATION
    assert "line 5" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["1", "0,1,2.0,9"])
def test_analyze_rejects_row_with_wrong_field_count(tmp_path, capsys, bad_row):
    path = tmp_path / "ragged.csv"
    path.write_text(f"A,B,Y\n0,0,1\n{bad_row}\n1,0,5\n1,1,7\n")
    code, _ = run_cli(["analyze", "--input", str(path), "--factors", "A,B"], tmp_path)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith("error: line 3:")
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(factorial2k.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, factorial2k.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_resolve_scheme_product():
    s = resolve_scheme("product:0.3,0.6", None, 2)
    np.testing.assert_allclose(s.joint, product_scheme([0.3, 0.6]).joint)
    with pytest.raises(ParseError):
        resolve_scheme("product:0.3", None, 2)
    with pytest.raises(ParseError):
        resolve_scheme("bogus", None, 2)
    with pytest.raises(ParseError):
        resolve_scheme("empirical", None, 2)


def test_simulate_exact_unbiased(tmp_path):
    code, payload = run_cli(
        [
            "simulate",
            "--population",
            "heterogeneous",
            "--sizes",
            "2,2,2,2",
            "--seed",
            "11",
            "--exact",
        ],
        tmp_path,
    )
    assert code == EXIT_OK
    report = payload["report"]
    assert report["mode"] == "exact"
    assert report["assignments"] == 2520
    assert report["unbiasedness"]["pass"] is True
    assert report["unbiasedness"]["max_abs_bias"] <= 1e-8


def test_simulate_exact_builds_one_contrast_matrix(tmp_path, monkeypatch):
    builds = spy_calls(monkeypatch, "contrasts", "contrast_matrix")
    reports = spy_calls(monkeypatch, "estimation", "effect_estimates")
    code, payload = run_cli(
        ["simulate", "--population", "heterogeneous", "--sizes", "2,2,2,2", "--exact"],
        tmp_path,
    )
    assert code == EXIT_OK
    assert payload["report"]["assignments"] == 2520
    assert (len(builds), len(reports)) == (1, 0)


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
def test_simulate_exact_unbiased_under_offset(tmp_path, offset):
    # rounding grows with the outcome scale; it must not read as bias
    pop = tmp_path / "pop.csv"
    values = np.random.default_rng(9).normal(size=(8, 4)) + offset
    np.savetxt(pop, values, delimiter=",", header="00,01,10,11", comments="")
    code, payload = run_cli(
        ["simulate", "--population", str(pop), "--sizes", "2,2,2,2", "--exact"], tmp_path
    )
    assert code == EXIT_OK
    assert payload["report"]["unbiasedness"]["pass"] is True


def test_simulate_mc_deterministic(tmp_path):
    args = [
        "simulate",
        "--population",
        "constant",
        "--sizes",
        "3,3,3,3",
        "--seed",
        "4",
        "--reps",
        "50",
    ]
    code1, p1 = run_cli(args, tmp_path, "a.json")
    code2, p2 = run_cli(args, tmp_path, "b.json")
    assert code1 == code2 == EXIT_OK
    assert p1["report"] == p2["report"]
    assert p1["report"]["mode"] == "mc"


def test_simulate_exact_guard(tmp_path):
    # 40 units in 4 cells of 10 is far beyond the enumeration guard
    args = [
        "simulate",
        "--population",
        "constant",
        "--sizes",
        "10,10,10,10",
        "--seed",
        "1",
        "--exact",
    ]
    code, _ = run_cli(args, tmp_path)
    assert code == EXIT_VALIDATION
    code, payload = run_cli(args + ["--allow-mc", "--reps", "20"], tmp_path, "c.json")
    assert code == EXIT_OK
    assert payload["report"]["mode"] == "mc"


def test_simulate_sizes_validation(tmp_path):
    code, _ = run_cli(
        ["simulate", "--population", "constant", "--sizes", "2,1,2,2"], tmp_path
    )
    assert code == EXIT_VALIDATION


def test_simulate_population_csv(tmp_path):
    pop = tmp_path / "pop.csv"
    rng = np.random.default_rng(8)
    values = rng.normal(size=(8, 4))
    header = "00,01,10,11"
    np.savetxt(pop, values, delimiter=",", header=header, comments="")
    # cells of size one are rejected by the design
    code, _ = run_cli(
        ["simulate", "--population", str(pop), "--sizes", "2,2,1,1"], tmp_path
    )
    assert code == EXIT_VALIDATION
    code, payload = run_cli(
        ["simulate", "--population", str(pop), "--sizes", "2,2,2,2", "--reps", "30"],
        tmp_path,
        "ok.json",
    )
    assert code == EXIT_OK
    assert payload["report"]["reps"] == 30


def test_verify_pass(tmp_path):
    code, payload = run_cli(["verify", "--K", "3", "--seed", "2"], tmp_path)
    assert code == EXIT_OK
    assert payload["pass"] is True
    identities = payload["identities"]
    assert "saturated_coefficients" in identities
    assert "two_way_closed_form_map" in identities
    for name, rec in identities.items():
        assert rec["pass"], name


def test_verify_perturb_negative_control(tmp_path):
    code, payload = run_cli(
        ["verify", "--K", "3", "--seed", "2", "--perturb", "1e-3"], tmp_path
    )
    assert code == EXIT_IDENTITY
    assert payload["pass"] is False


def test_verify_bad_k(tmp_path):
    code, _ = run_cli(["verify", "--K", "1"], tmp_path)
    assert code == EXIT_VALIDATION


def test_env_var_default_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FACTORIAL2K_SEED", "123")
    from factorial2k.cli import build_parser

    args = build_parser().parse_args(["verify"])
    assert args.seed == 123


def test_stdout_when_no_out_flag(csv_2x2, capsys):
    code = main(["analyze", "--input", csv_2x2, "--factors", "A,B"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["moment"]["effects"]["A"]["estimate"] == pytest.approx(4.5)
