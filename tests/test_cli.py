import csv
import json
import os
from pathlib import Path
import stat
import subprocess
import sys

import numpy as np
import pytest

import factorial2k
from factorial2k import (
    cli,
    contrast_matrix,
    effect_estimates,
    equal_scheme,
    ingest_csv,
    moment_estimates,
    product_scheme,
)
from factorial2k.cli import (
    EXIT_IDENTITY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    resolve_scheme,
)
from factorial2k.core import (
    MAX_COVARIANCE_FACTORS,
    MAX_FACTORS,
    FactorSpec,
    cell_summary,
    parse_subset_label,
)
from factorial2k.errors import ParseError
from factorial2k.regression import ModelSpec, rel_err, saturated_fit, verify_omitted_relation
from factorial2k.simulate import DesignSizes

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


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def run_cli(args, tmp_path, name="out.json"):
    # strict JSON: NaN, Infinity and -Infinity fail the parse
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    payload = json.loads(out.read_text(), parse_constant=_reject_constant) if out.exists() else None
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


def test_analyze_csv_with_byte_order_mark(csv_2x2, tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_text("\ufeff" + Path(csv_2x2).read_text(), encoding="utf-8")
    _, want = run_cli(["analyze", "--input", csv_2x2, "--factors", "A,B"], tmp_path)
    code, payload = run_cli(["analyze", "--input", str(bom), "--factors", "A,B"], tmp_path)
    assert code == EXIT_OK
    assert payload["moment"] == want["moment"]


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
    factorisations = spy_calls(monkeypatch, "regression", "_coef_map")
    code, payload = run_cli(
        ["analyze", "--input", csv_2x2, "--factors", "A,B", "--model", "A,B"], tmp_path
    )
    assert code == EXIT_OK
    assert payload["verification"]["pass"] is True
    # the saturated coefficients come from the Kronecker inverse; one included-row
    # factorisation gives the unsaturated fit and Phi; no unit-row fit
    assert (len(designs), len(fits), len(refits)) == (1, 0, 0)
    assert len(factorisations) == 1


@pytest.mark.parametrize("model, factorisations", [([], 0), (["--model", "A,B"], 1)])
def test_analyze_factors_cell_rows_only(csv_2x2, tmp_path, monkeypatch, model, factorisations):
    # 8 units in 4 cells: every least-squares matrix has one row per cell
    solves = spy_calls(monkeypatch, "regression", "_coef_map")
    fits = spy_calls(monkeypatch, "regression", "ols_fit")
    code, _ = run_cli(["analyze", "--input", csv_2x2, "--factors", "A,B", *model], tmp_path)
    assert code == EXIT_OK
    assert fits == []
    assert [args[0].shape[0] for args in solves] == [4] * factorisations


def _write_experiment(path, K, rng, low=2, high=4):
    # low..high units per cell, outcomes around a random cell surface
    cells = np.repeat(np.arange(2 ** K), rng.integers(low, high + 1, size=2 ** K))
    y = rng.normal(0.0, 2.0, size=2 ** K)[cells] + rng.normal(size=cells.size)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list("ABCDEFGH"[:K]) + ["Y"])
        for c, v in zip(cells, y):
            writer.writerow([(c >> (K - 1 - k)) & 1 for k in range(K)] + [repr(float(v))])
    return str(path)


@pytest.mark.parametrize("model", [[], ["--model", "A,B,C,A:B"]])
def test_analyze_default_output_has_no_covariance_blocks(tmp_path, model):
    path = _write_experiment(tmp_path / "data.csv", 3, np.random.default_rng(5))
    code, payload = run_cli(["analyze", "--input", path, "--factors", "A,B,C", *model], tmp_path)
    assert code == EXIT_OK
    assert "covariance" not in payload["moment"]
    assert "robust_cov" not in payload["regression"]
    assert set(payload["moment"]["effects"]["A:B:C"]) == {"estimate", "se", "ci_low", "ci_high", "z"}
    assert set(payload["regression"]["coefficients"]["A"]) == {"coefficient", "robust_se"}


@pytest.mark.parametrize("scheme", ["equal", "empirical"])
@pytest.mark.parametrize("terms", [None, "A,B,C,A:B"])
def test_analyze_covariance_flag_writes_both_blocks(tmp_path, scheme, terms):
    path = _write_experiment(tmp_path / "data.csv", 3, np.random.default_rng(6))
    model = ["--model", terms] if terms else []
    argv = ["analyze", "--input", path, "--factors", "A,B,C", "--scheme", scheme, *model]
    code, payload = run_cli([*argv, "--covariance"], tmp_path)
    assert code == EXIT_OK

    data = ingest_csv(path, FactorSpec(("A", "B", "C")))
    resolved = resolve_scheme(scheme, cell_summary(data), 3)
    shifts = resolved.factor_one_probs()
    if terms:
        spec = ModelSpec(shifts, tuple(parse_subset_label(t, data.spec) for t in terms.split(",")))
        fit = verify_omitted_relation(data, spec)["fit"]
    else:
        fit = saturated_fit(data, shifts)[0]
    expected = effect_estimates(data, resolved).covariance
    assert rel_err(payload["moment"]["covariance"], expected) <= 1e-12
    assert rel_err(payload["regression"]["robust_cov"], fit.robust_cov) <= 1e-12
    # the flag adds the two blocks and changes nothing else
    _, default = run_cli(argv, tmp_path, name="default.json")
    del payload["moment"]["covariance"], payload["regression"]["robust_cov"]
    for flag, run in ((True, payload), (False, default)):
        assert run["config"]["args"].pop("covariance") is flag
        del run["config"]["args"]["out"]
    assert payload == default


def test_analyze_default_output_size_at_k8(tmp_path):
    path = _write_experiment(tmp_path / "data.csv", 8, np.random.default_rng(7))
    out = tmp_path / "out.json"
    code = main(["analyze", "--input", path, "--factors", "A,B,C,D,E,F,G,H", "--out", str(out)])
    assert code == EXIT_OK
    # the two 255x255 and 256x256 covariances alone would take about 4 MB
    assert out.stat().st_size < 100_000


def test_unexpected_exception_exits_internal_in_one_line(csv_2x2, tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "effect_estimates", broken)
    code, payload = run_cli(["analyze", "--input", csv_2x2, "--factors", "A,B"], tmp_path)
    err = capsys.readouterr().err
    assert (code, payload) == (EXIT_INTERNAL, None)
    assert err.count("\n") == 1
    assert err.startswith("internal error: KeyError:")
    assert "Traceback" not in err


def test_analyze_rejects_too_many_factors(csv_2x2, tmp_path, monkeypatch, capsys):
    builds = spy_calls(monkeypatch, "contrasts", "contrast_matrix")
    code, _ = run_cli(
        ["analyze", "--input", csv_2x2, "--factors", ",".join("ABCDEFGHIJKLM")], tmp_path
    )
    assert code == EXIT_VALIDATION
    assert "at most 12" in capsys.readouterr().err
    assert builds == []


@pytest.mark.parametrize("K", [MAX_COVARIANCE_FACTORS + 1, MAX_FACTORS])
def test_analyze_covariance_rejected_above_its_factor_limit(tmp_path, monkeypatch, capsys, K):
    # two 2^K x 2^K matrices of JSON: refused before the input is read
    ingests = spy_calls(monkeypatch, "core", "ingest_csv")
    labels = ",".join(f"F{k}" for k in range(K))
    argv = ["analyze", "--input", str(tmp_path / "absent.csv"), "--factors", labels]
    code, payload = run_cli([*argv, "--covariance"], tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    err = capsys.readouterr().err
    limit = MAX_COVARIANCE_FACTORS
    assert err == f"error: --covariance supports at most {limit} factors, got {K}\n"
    assert ingests == []
    # without the flag the same request reaches ingest
    assert run_cli(argv, tmp_path)[0] == EXIT_VALIDATION
    assert len(ingests) == 1


def test_analyze_rejects_factor_label_with_colon(tmp_path, capsys):
    # factor "A:B" and the A x B interaction would share the key "A:B"
    path = tmp_path / "colon.csv"
    path.write_text("A,B,A:B,Y\n" + "".join(
        f"{c >> 2 & 1},{c >> 1 & 1},{c & 1},{c + r}\n" for c in range(8) for r in (0.0, 0.5)
    ))
    code, payload = run_cli(["analyze", "--input", str(path), "--factors", "A,B,A:B"], tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert capsys.readouterr().err.startswith("error: factor label 'A:B' must be nonempty")


def test_analyze_rejects_outcome_column_that_is_a_factor(csv_2x2, tmp_path, capsys):
    argv = ["analyze", "--input", csv_2x2, "--factors", "A,B", "--outcome-col", "A"]
    code, payload = run_cli(argv, tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert capsys.readouterr().err == "error: outcome column 'A' is also a factor column\n"


def test_analyze_missing_factors(csv_2x2, tmp_path):
    code, _ = run_cli(["analyze", "--input", csv_2x2], tmp_path)
    assert code == EXIT_VALIDATION


def test_analyze_bad_delta_length(csv_2x2, tmp_path):
    code, _ = run_cli(
        ["analyze", "--input", csv_2x2, "--factors", "A,B", "--delta", "0.5"],
        tmp_path,
    )
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["analyze", "simulate", "simulate-exact"])
@pytest.mark.parametrize("alpha", ["1.5", "1", "0", "-0.1", "1e-17"])
def test_alpha_outside_unit_interval(csv_2x2, tmp_path, capsys, command, alpha):
    # 1 - 1e-17 / 2 rounds to 1.0, which has no Normal quantile
    requests = {
        "analyze": ["analyze", "--input", csv_2x2, "--factors", "A,B"],
        "simulate": ["simulate", "--population", "constant", "--sizes", "2,2,2,2", "--reps", "5"],
        "simulate-exact": ["simulate", "--population", "constant", "--sizes", "2,2,2,2", "--exact"],
    }
    code, payload = run_cli(requests[command] + ["--alpha", alpha], tmp_path)
    assert code == EXIT_VALIDATION
    assert payload is None
    assert capsys.readouterr().err.startswith("error: --alpha")


@pytest.mark.parametrize("delta", ["0.5", "0.5,0.5,0.5"])
def test_simulate_bad_delta_length(tmp_path, capsys, delta):
    code, payload = run_cli(
        ["simulate", "--population", "constant", "--sizes", "2,2,2,2", "--delta", delta],
        tmp_path,
    )
    assert code == EXIT_VALIDATION
    assert payload is None
    assert capsys.readouterr().err.startswith("error: --delta needs 2 values")


@pytest.mark.parametrize(
    "command, flag",
    [("analyze", "--delta"), ("analyze", "--model"), ("simulate", "--delta"), ("verify", "--delta")],
)
def test_empty_flag_is_rejected_not_defaulted(csv_2x2, tmp_path, capsys, command, flag):
    # an empty value reaches its parser instead of meaning "not given"
    requests = {
        "analyze": ["analyze", "--input", csv_2x2, "--factors", "A,B"],
        "simulate": ["simulate", "--population", "constant", "--sizes", "2,2,2,2", "--reps", "5"],
        "verify": ["verify", "--K", "2"],
    }
    code, payload = run_cli(requests[command] + [flag, ""], tmp_path)
    assert code == EXIT_VALIDATION
    assert payload is None
    assert capsys.readouterr().err.startswith("error: ")


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


def test_analyze_field_over_csv_limit_exits_with_message(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("A,B,Y\n0,0,1\n0,1," + " " * (csv.field_size_limit() + 1) + "2.5\n")
    code, payload = run_cli(["analyze", "--input", str(path), "--factors", "A,B"], tmp_path)
    err = capsys.readouterr().err
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert err.startswith("error: line 3: field larger than field limit")
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(factorial2k.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, factorial2k.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"



def test_cli_analyze_leaves_scipy_linalg_unloaded(csv_2x2, tmp_path):
    # every least-squares map comes from numpy's LAPACK, so scipy's BLAS never loads
    src = str(Path(factorial2k.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    args = ["analyze", "--input", csv_2x2, "--factors", "A,B", "--model", "A,B"]
    code = (
        "import sys, factorial2k.cli; "
        f"rc = factorial2k.cli.main({args!r} + ['--out', {str(tmp_path / 'o.json')!r}]); "
        "print(rc, 'scipy.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == f"{EXIT_OK} False"


def test_cli_commands_run_without_scipy(csv_2x2, tmp_path):
    # the Normal quantile and chi-square tail come from the standard library
    src = str(Path(factorial2k.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    pop = ["--population", "heterogeneous", "--sizes", "2,2,2,2"]
    runs = [
        ["analyze", "--input", csv_2x2, "--factors", "A,B"],
        ["analyze", "--input", csv_2x2, "--factors", "A,B", "--model", "A,B"],
        ["simulate", *pop, "--reps", "20"],
        ["simulate", *pop, "--exact"],
        ["verify", "--K", "2"],
    ]
    code = (
        "import sys, factorial2k.cli\n"
        f"for args in {runs!r}:\n"
        f"    rc = factorial2k.cli.main(args + ['--out', {str(tmp_path / 'o.json')!r}])\n"
        "    print(rc, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == [f"{EXIT_OK} False"] * len(runs)


def test_analyze_product_scheme_with_a_one_probability_of_one(tmp_path):
    # A's summed marginal lands an ulp past 1 unless it is clipped
    path = _write_experiment(tmp_path / "data.csv", 3, np.random.default_rng(8))
    argv = ["analyze", "--input", path, "--factors", "A,B,C", "--scheme", "product:1,0.08,0.1"]
    code, payload = run_cli(argv, tmp_path)
    assert code == EXIT_OK
    assert payload["verification"]["pass"] is True


def test_analyze_writes_one_line_of_json(csv_2x2, tmp_path):
    code, payload = run_cli(["analyze", "--input", csv_2x2, "--factors", "A,B"], tmp_path)
    text = (tmp_path / "out.json").read_text()
    assert code == EXIT_OK
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert json.loads(text) == payload


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


def test_simulate_exact_guard(tmp_path, capsys):
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
    code, payload = run_cli(args, tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert "drop --exact to run Monte Carlo" in capsys.readouterr().err
    # the same design without --exact is the Monte Carlo run
    code, payload = run_cli(args[:-1] + ["--reps", "20"], tmp_path, "c.json")
    assert code == EXIT_OK
    assert payload["report"]["mode"] == "mc"
    assert main(args + ["--allow-mc"]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--reps", "0"], "reps must be >= 1"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--workers", "0", "--reps", "0"], "reps must be >= 1"),
    ],
)
def test_simulate_exact_validates_reps_and_workers(tmp_path, capsys, flags, message):
    code, payload = run_cli(
        ["simulate", "--population", "heterogeneous", "--sizes", "2,2,2,2", "--exact", *flags],
        tmp_path,
    )
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert message in capsys.readouterr().err


def test_simulate_mc_never_counts_assignments(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("Monte Carlo formed the assignment count")

    monkeypatch.setattr(DesignSizes, "assignment_count", refuse)
    code, payload = run_cli(
        ["simulate", "--population", "heterogeneous", "--sizes", "2,2,2,2", "--reps", "20"],
        tmp_path,
    )
    assert code == EXIT_OK
    assert payload["report"]["mode"] == "mc"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_simulate_rejects_worker_count_below_one(tmp_path, capsys, workers):
    code, payload = run_cli(
        ["simulate", "--population", "heterogeneous", "--sizes", "2,2,2,2",
         "--reps", "5", "--workers", workers],
        tmp_path,
    )
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["analyze", "--factors", "A,B", "--scheme", "product:0.5,nan", "--delta", "0.5,0.5"],
         "each delta_k must lie in [0, 1]"),
        (["analyze", "--factors", "A,B", "--delta", "0.5,nan"], "each delta_k must lie in [0, 1]"),
        (["simulate", "--population", "heterogeneous", "--sizes", "2,2,2,2",
          "--delta", "nan,0.5", "--reps", "5"], "each delta_k must lie in [0, 1]"),
    ],
)
def test_non_finite_shifts_exit_with_message(csv_2x2, tmp_path, capsys, args, message):
    if args[0] == "analyze":
        args = args + ["--input", csv_2x2]
    code, payload = run_cli(args, tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert message in capsys.readouterr().err


def test_analyze_constant_cells_writes_null_z(tmp_path):
    # two equal outcomes per cell: every SE is 0, so no effect has a z statistic
    path = tmp_path / "constant.csv"
    path.write_text("A,B,Y\n0,0,1\n0,0,1\n0,1,2\n0,1,2\n1,0,3\n1,0,3\n1,1,3\n1,1,3\n")
    code, payload = run_cli(["analyze", "--input", str(path), "--factors", "A,B"], tmp_path)
    assert code == EXIT_OK
    effects = payload["moment"]["effects"]
    assert [effects[lb]["se"] for lb in ("A", "B", "A:B")] == [0.0, 0.0, 0.0]
    assert [effects[lb]["z"] for lb in ("A", "B", "A:B")] == [None, None, None]
    assert effects["A"]["estimate"] == pytest.approx(1.5)
    assert effects["A:B"]["estimate"] == pytest.approx(-1.0)


def test_emit_rejects_non_finite_numbers(tmp_path, monkeypatch, capsys):
    import factorial2k.cli as cli

    monkeypatch.setattr(cli, "run_identity_suite", lambda **kw: [{"name": "x", "value": float("nan")}])
    monkeypatch.setattr(cli, "suite_passed", lambda records: True)
    code, payload = run_cli(["verify", "--K", "2"], tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert "JSON compliant" in capsys.readouterr().err
    # the report is encoded before the file is opened, so an old one is left as it was
    old = tmp_path / "old.json"
    old.write_bytes(b"previous report\n")
    assert main(["verify", "--K", "2", "--out", str(old)]) == EXIT_VALIDATION
    assert old.read_bytes() == b"previous report\n"


def _write_report(directory, monkeypatch):
    # run from the file's directory, so that the --out in the report's config is
    # the same in every directory
    monkeypatch.chdir(directory)
    assert main(["verify", "--K", "2", "--seed", "1", "--out", "r.json"]) == EXIT_OK
    return (directory / "r.json").read_bytes()


@pytest.mark.parametrize("old_size", [1, 100_000], ids=["shorter", "longer"])
def test_out_overwrites_an_existing_file_in_place(tmp_path, monkeypatch, old_size):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "old").mkdir()
    fresh = _write_report(tmp_path / "fresh", monkeypatch)
    old = tmp_path / "old" / "r.json"
    old.write_bytes(b"x" * old_size)
    old.chmod(0o600)
    before = old.stat()
    # the whole file is the report: no tail of the old bytes is left
    assert _write_report(tmp_path / "old", monkeypatch) == fresh
    assert json.loads(fresh)["pass"] is True
    after = old.stat()
    assert (after.st_ino, after.st_uid, after.st_mode) == (before.st_ino, before.st_uid, before.st_mode)


def test_out_writes_through_a_symlink(tmp_path, monkeypatch):
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 100_000)
    link = tmp_path / "r.json"
    link.symlink_to(target)
    report = _write_report(tmp_path, monkeypatch)
    assert link.is_symlink() and os.readlink(link) == str(target)
    # the target holds the report alone
    assert json.loads(report)["pass"] is True


def test_out_to_a_file_that_cannot_be_truncated(tmp_path):
    assert main(["verify", "--K", "2", "--out", os.devnull]) == EXIT_OK


def test_out_creates_a_new_file_with_the_umask_applied(tmp_path):
    out = tmp_path / "new.json"
    umask = os.umask(0o027)
    try:
        assert main(["verify", "--K", "2", "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--population", "constant", "--sizes", "2,2", "--seed", "x"], EXIT_VALIDATION),
        (["analyze", "--input", "x.csv", "--factors", "A", "--alpha", "abc"], EXIT_VALIDATION),
        (["analyze", "--factors", "A"], EXIT_VALIDATION),
        (["verify", "--K", "2", "--bogus"], EXIT_VALIDATION),
        (["simulate", "--help"], EXIT_OK),
    ],
    ids=["bad-int", "bad-float", "missing-required", "unknown-flag", "help"],
)
def test_command_line_usage_exit_codes(capsys, argv, code):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    if code == EXIT_VALIDATION:
        # one line, no usage block
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert captured.out.startswith("usage: factorial2k simulate")


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


def test_verify_perturb_negative_control(tmp_path, monkeypatch):
    import factorial2k.verify as verify

    fit_exactly = verify.saturated_fit

    def perturbed(data, delta):
        fit, verification = fit_exactly(data, delta)
        return fit, {**verification, "coef_rel_err": verification["coef_rel_err"] + 1e-3}

    monkeypatch.setattr(verify, "saturated_fit", perturbed)
    code, payload = run_cli(["verify", "--K", "3", "--seed", "2"], tmp_path)
    assert code == EXIT_IDENTITY
    assert payload["pass"] is False
    assert payload["identities"]["saturated_coefficients"]["pass"] is False


def test_verify_bad_k(tmp_path):
    code, _ = run_cli(["verify", "--K", "1"], tmp_path)
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("K", [MAX_COVARIANCE_FACTORS + 1, MAX_FACTORS, 30])
def test_verify_rejected_above_its_factor_limit(tmp_path, monkeypatch, capsys, K):
    # the dense N x 2^K design took 20 s and 1 GB at K=11: refused before any work
    suites = spy_calls(monkeypatch, "verify", "run_identity_suite")
    code, payload = run_cli(["verify", "--K", str(K), "--delta", "0.5"], tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    limit = MAX_COVARIANCE_FACTORS
    assert capsys.readouterr().err == f"error: verify supports at most {limit} factors, got {K}\n"
    assert suites == []


def test_env_var_default_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("FACTORIAL2K_SEED", "123")
    code, payload = run_cli(["verify", "--K", "2"], tmp_path)
    assert code == EXIT_OK
    assert payload["config"]["args"]["seed"] == 123


SIMULATE_MC = ["simulate", "--population", "constant", "--sizes", "2,2,2,2", "--reps", "5"]


@pytest.mark.parametrize("argv, env, message", [
    (SIMULATE_MC + ["--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
    (["verify", "--K", "3", "--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
    (SIMULATE_MC, "-3", "FACTORIAL2K_SEED must be a non-negative integer, got -3"),
    (["verify", "--K", "3"], "abc", "FACTORIAL2K_SEED must be a non-negative integer, got 'abc'"),
])
def test_bad_seed_names_its_source(tmp_path, monkeypatch, capsys, argv, env, message):
    if env is not None:
        monkeypatch.setenv("FACTORIAL2K_SEED", env)
    code, payload = run_cli(argv, tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert capsys.readouterr().err == f"error: {message}\n"


def test_analyze_ignores_the_seed_variable(csv_2x2, tmp_path, monkeypatch):
    # analyze draws nothing, so it has no seed to check
    monkeypatch.setenv("FACTORIAL2K_SEED", "abc")
    code, _ = run_cli(["analyze", "--input", csv_2x2, "--factors", "A,B"], tmp_path)
    assert code == EXIT_OK


def test_request_too_large_for_memory_exits_validation(tmp_path, monkeypatch, capsys):
    # the population of --sizes 1000000000,2 would take 14.9 GiB; the
    # allocation is made to fail here instead of being attempted
    message = (
        "Unable to allocate 14.9 GiB for an array with shape (1000000002, 2) "
        "and data type float64"
    )

    class FailingGenerator:
        def normal(self, *args, **kwargs):
            raise MemoryError(message)

    monkeypatch.setattr(cli, "replicate_rng", lambda seed, r: FailingGenerator())
    argv = ["simulate", "--population", "heterogeneous", "--sizes", "1000000000,2", "--reps", "1"]
    code, payload = run_cli(argv, tmp_path)
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert not (tmp_path / "out.json").exists()
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def test_stdout_when_no_out_flag(csv_2x2, capsys):
    code = main(["analyze", "--input", csv_2x2, "--factors", "A,B"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["moment"]["effects"]["A"]["estimate"] == pytest.approx(4.5)


def test_simulate_population_and_sizes_must_agree(tmp_path, capsys):
    # 16 units with 4 potential outcomes each, against a design of 8 cells
    pop = tmp_path / "pop.csv"
    values = np.random.default_rng(10).normal(size=(16, 4))
    np.savetxt(pop, values, delimiter=",", header="00,01,10,11", comments="")
    code, _ = run_cli(
        ["simulate", "--population", str(pop), "--sizes", ",".join(["2"] * 8)], tmp_path
    )
    assert code == EXIT_VALIDATION
    assert "4 cells, --sizes gives 16 units in 8 cells" in capsys.readouterr().err


@pytest.mark.parametrize("cells", [3, 6, 2 ** (MAX_FACTORS + 1)])
def test_simulate_rejects_cell_count_before_population(tmp_path, monkeypatch, capsys, cells):
    # 2^(MAX_FACTORS + 1) cells of two units would be a 1 GiB population table
    def load(args, sizes):
        raise AssertionError("population built")

    monkeypatch.setattr(cli, "_load_population", load)
    sizes = ",".join(["2"] * cells)
    for population in ("no-three-way", "heterogeneous"):
        argv = ["simulate", "--population", population, "--sizes", sizes]
        code, payload = run_cli(argv, tmp_path)
        assert (code, payload) == (EXIT_VALIDATION, None)
        err = capsys.readouterr().err
        assert f"--sizes needs 2^K cells with 1 <= K <= {MAX_FACTORS}, got {cells}" in err


@pytest.mark.parametrize("mode", [[], ["--exact"]])
def test_simulate_non_finite_population(tmp_path, capsys, mode):
    pop = tmp_path / "pop.csv"
    values = np.random.default_rng(12).normal(size=(8, 4))
    values[5, 2] = np.nan
    np.savetxt(pop, values, delimiter=",", header="00,01,10,11", comments="")
    code, payload = run_cli(
        ["simulate", "--population", str(pop), "--sizes", "2,2,2,2", *mode], tmp_path
    )
    assert (code, payload) == (EXIT_VALIDATION, None)
    assert "values[5, 2] is nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, name",
    [(["--reps", "37", "--workers", "2"], "mc"), (["--exact"], "exact")],
)
def test_simulate_makes_no_per_assignment_calls(tmp_path, monkeypatch, mode, name):
    # Monte Carlo draws each block of replicates in one call
    observed = spy_calls(monkeypatch, "simulate", "observe")
    moments = spy_calls(monkeypatch, "estimation", "moment_estimates")
    drawn = spy_calls(monkeypatch, "simulate", "draw_assignment")
    code, payload = run_cli(
        ["simulate", "--population", "heterogeneous", "--sizes", "2,2,2,2", *mode], tmp_path
    )
    assert code == EXIT_OK
    assert payload["report"]["mode"] == name
    assert (len(observed), len(moments), len(drawn)) == (0, 0, 0)



@pytest.fixture
def plain_csv_2x2(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("A,B,Y\n0,0,1\n0,0,3\n0,1,2\n0,1,4\n1,0,5\n1,0,7\n1,1,6\n1,1,10\n")
    return str(path)


@pytest.mark.parametrize("model", [[], ["--model", "A,B"], ["--scheme", "empirical"]])
def test_analyze_computes_cell_moments_once(plain_csv_2x2, tmp_path, monkeypatch, model):
    passes = spy_calls(monkeypatch, "core", "_cell_moments")
    code, payload = run_cli(
        ["analyze", "--input", plain_csv_2x2, "--factors", "A,B", *model], tmp_path
    )
    assert code == EXIT_OK
    assert payload["moment"]["effects"]["A"]["estimate"] == pytest.approx(4.5)
    assert len(passes) == 1


@pytest.mark.parametrize("scheme", ["equal", "empirical"])
@pytest.mark.parametrize("model", [[], ["--model", "A"]], ids=["saturated", "model"])
def test_analyze_builds_no_contrast_matrix(plain_csv_2x2, tmp_path, monkeypatch, scheme, model):
    # estimates, SEs and both identity checks run on per-factor transforms;
    # the dense G is built only for --covariance
    with open(plain_csv_2x2, "a") as fh:
        fh.write("1,1,8\n")
    kernels = spy_calls(monkeypatch, "contrasts", "_dense_rows")
    argv = ["analyze", "--input", plain_csv_2x2, "--factors", "A,B", "--scheme", scheme, *model]
    code, payload = run_cli(argv, tmp_path)
    assert code == EXIT_OK
    assert payload["verification"]["pass"] is True
    assert len(kernels) == 0
    code, payload = run_cli([*argv, "--covariance"], tmp_path, name="cov.json")
    assert code == EXIT_OK
    assert "covariance" in payload["moment"]
    assert len(kernels) >= 1


def test_main_builds_parser_once_and_reads_seed_each_call(tmp_path, monkeypatch):
    import factorial2k.cli as cli

    cli._main_parser.cache_clear()
    builds = spy_calls(monkeypatch, "cli", "_build_parser")
    seeds = []
    for seed in ("5", "6"):
        monkeypatch.setenv("FACTORIAL2K_SEED", seed)
        code, payload = run_cli(["verify", "--K", "2"], tmp_path, name=f"v{seed}.json")
        assert code == EXIT_OK
        seeds.append(payload["config"]["args"]["seed"])
    assert seeds == [5, 6]
    assert len(builds) == 1
    # an explicit --seed still wins over the environment
    _, payload = run_cli(["verify", "--K", "2", "--seed", "9"], tmp_path)
    assert payload["config"]["args"]["seed"] == 9


def test_analyze_reaches_max_factors_without_a_dense_array(tmp_path, monkeypatch):
    # a default analyze at K = MAX_FACTORS forms no 2^K x 2^K array: the dense
    # contrast matrix alone would take 128 MiB
    import tracemalloc

    from factorial2k.core import MAX_FACTORS

    K = MAX_FACTORS
    labels = [f"F{k}" for k in range(K)]
    cells = np.repeat(np.arange(2 ** K), 2)
    y = np.random.default_rng(12).normal(size=cells.size) + cells % 7
    path = tmp_path / "wide.csv"
    prefix = ["".join(f"{(c >> (K - 1 - k)) & 1}," for k in range(K)) for c in range(2 ** K)]
    path.write_text(",".join(labels + ["Y"]) + "\n" + "".join(
        f"{prefix[c]}{v!r}\n" for c, v in zip(cells.tolist(), y.tolist())
    ))
    builds = spy_calls(monkeypatch, "contrasts", "contrast_matrix")
    tracemalloc.start()
    try:
        argv = ["analyze", "--input", str(path), "--factors", ",".join(labels)]
        code, payload = run_cli(argv, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert payload["verification"]["pass"] is True
    assert len(payload["moment"]["effects"]) == 2 ** K - 1
    assert builds == []
    assert peak < 32 * 2 ** 20, peak
