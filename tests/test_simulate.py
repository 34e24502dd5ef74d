import functools
import gzip
import itertools
import json
import os
from pathlib import Path
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from factorial2k import (
    DesignSizes,
    PotentialOutcomeTable,
    additive_spec,
    cell_summary,
    compare_saturated_unsaturated,
    default_spec,
    draw_assignment,
    effect_estimates,
    enumerate_assignments,
    equal_scheme,
    exact_expectations,
    from_joint,
    make_constant_effects_population,
    make_no_three_way_population,
    moment_estimates,
    monte_carlo,
    observe,
    pi_cross,
    true_effects,
)
from factorial2k.errors import (
    EstimatorFailureError,
    Factorial2kError,
    TooManyAssignmentsError,
)
from factorial2k.cli import EXIT_OK, EXIT_VALIDATION, main
from factorial2k.contrasts import contrast_matrix
from factorial2k.core import CellMoments, _cell_moments
from factorial2k import regression, simulate
from factorial2k.simulate import (
    BLOCK_ELEMENTS,
    replicate_rng,
    truth_covariance_of_cell_means,
    unsaturated_moment_map,
)
from factorial2k.regression import ModelSpec, build_design, ols_fit, omitted_algebra

from conftest import spy_calls


@pytest.fixture
def small_population():
    rng = np.random.default_rng(60)
    return PotentialOutcomeTable(rng.normal(2.0, 1.0, size=(8, 4)))


SIZES_2222 = DesignSizes(np.array([2, 2, 2, 2]))


def test_draw_assignment_partition(small_population):
    rng = replicate_rng(0, 0)
    cells = draw_assignment(SIZES_2222, rng)
    assert cells.shape == (8,)
    assert np.array_equal(np.bincount(cells, minlength=4), [2, 2, 2, 2])


def test_draw_assignment_reproducible():
    a = draw_assignment(SIZES_2222, replicate_rng(7, 3))
    b = draw_assignment(SIZES_2222, replicate_rng(7, 3))
    assert np.array_equal(a, b)


def test_assignment_counts():
    assert DesignSizes(np.array([2, 2])).assignment_count() == 6
    assert SIZES_2222.assignment_count() == 2520


def test_enumerate_assignments_small():
    out = list(enumerate_assignments(DesignSizes(np.array([2, 2]))))
    assert len(out) == 6
    as_tuples = {tuple(a) for a in out}
    assert len(as_tuples) == 6
    for a in out:
        assert np.array_equal(np.bincount(a, minlength=2), [2, 2])


def test_enumerate_assignments_2520():
    out = list(enumerate_assignments(SIZES_2222))
    assert len(out) == 2520
    assert len({tuple(a) for a in out}) == 2520


def test_enumeration_guard():
    sizes = DesignSizes(np.full(4, 5))
    assert sizes.assignment_count() > 10 ** 7
    with pytest.raises(TooManyAssignmentsError):
        list(enumerate_assignments(sizes))


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)])
def test_enumerate_assignments_lexicographic(sizes, monkeypatch):
    # the order fixes the blocks and so the exact reports bit for bit; the
    # default blocks hold every assignment, blocks of 1, 4 and 7 rows do not,
    # so their ranges cut the prefix tree at Q = 2, 3 and 4 cells
    base = np.repeat(np.arange(len(sizes)), sizes).tolist()
    want = sorted(set(itertools.permutations(base)))
    for rows in (BLOCK_ELEMENTS // len(base), 1, 4, 7):
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", rows * len(base))
        out = [tuple(a) for a in enumerate_assignments(DesignSizes(np.array(sizes)))]
        assert out == want, rows


def test_enumerate_assignments_many_units():
    first = next(enumerate_assignments(DesignSizes(np.array([2, 1200]))))
    np.testing.assert_array_equal(first, [0, 0] + [1] * 1200)


def test_enumerate_assignments_two_in_cell_zero_in_combination_order(monkeypatch):
    # blocks of 7 rows, so most blocks start and end inside a subtree
    sizes = DesignSizes(np.array([2, 60]))
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 7 * sizes.N)
    zeros = [tuple(np.flatnonzero(a == 0)) for a in enumerate_assignments(sizes)]
    assert zeros == list(itertools.combinations(range(sizes.N), 2))


def test_enumerate_assignments_at_largest_design_under_guard():
    # C(4472, 2) is just under the guard
    sizes = DesignSizes(np.array([2, 4470]))
    assert sizes.assignment_count() <= simulate.ENUMERATION_GUARD
    rows = enumerate_assignments(sizes)
    np.testing.assert_array_equal(next(rows), [0, 0] + [1] * 4470)
    np.testing.assert_array_equal(next(rows), [0, 1, 0] + [1] * 4469)


def test_enumeration_guard_forms_no_factorial():
    start = time.perf_counter()
    with pytest.raises(TooManyAssignmentsError):
        next(enumerate_assignments(DesignSizes([3_000_000, 3_000_000])))
    assert time.perf_counter() - start < 1.0


def test_exact_mean_and_cov_of_cell_means(small_population):
    table = small_population

    def est(data):
        return cell_summary(data, variances=False).means

    mean, cov = exact_expectations(table, SIZES_2222, est)
    np.testing.assert_allclose(mean, table.means, atol=1e-10)
    np.testing.assert_allclose(
        cov, truth_covariance_of_cell_means(table, SIZES_2222), atol=1e-10
    )


@pytest.mark.parametrize("offset, tol", [(1e4, 1e-10), (1e6, 1e-10), (1e8, 1e-8)])
def test_exact_cov_of_cell_means_under_offset(offset, tol):
    # the criterion-6 population shifted by a large common offset
    rng = np.random.default_rng(601)
    table = PotentialOutcomeTable(offset + rng.normal(0.0, 1.0, size=(8, 4)))
    _, cov = exact_expectations(
        table, SIZES_2222, lambda d: cell_summary(d, variances=False).means
    )
    truth = truth_covariance_of_cell_means(table, SIZES_2222)
    assert np.abs(cov - truth).max() <= tol * np.abs(truth).max()

def test_vhat_conservative_identity(small_population):
    table = small_population

    def est(data):
        return moment_estimates(data).v_hat

    mean_vhat, _ = exact_expectations(table, SIZES_2222, est)
    truth = truth_covariance_of_cell_means(table, SIZES_2222)
    np.testing.assert_allclose(
        np.diag(mean_vhat) - truth, table.covariance / table.N, atol=1e-10
    )


def test_unsaturated_fit_exact_mean_and_cov(small_population):
    table = small_population
    spec = additive_spec([0.3, 0.7])

    def est(data):
        return ols_fit(build_design(data, spec).included, data.outcome).coefficients[1:]

    mean, cov = exact_expectations(table, SIZES_2222, est)
    ref = observe(table, draw_assignment(SIZES_2222, replicate_rng(0, 0)))
    J = unsaturated_moment_map(ref, spec)
    from factorial2k import contrast_matrix, product_scheme

    G = contrast_matrix(product_scheme(spec.delta), 2).matrix
    tau = G @ table.means
    np.testing.assert_allclose(mean, J @ tau, atol=1e-10)
    JG = J @ G
    np.testing.assert_allclose(
        cov, JG @ truth_covariance_of_cell_means(table, SIZES_2222) @ JG.T, atol=1e-9
    )


def test_estimator_failure_reported(small_population):
    calls = {"n": 0}

    def flaky(data):
        calls["n"] += 1
        if calls["n"] % 7 == 0:
            raise Factorial2kError("boom")
        return np.array([0.0])

    with pytest.raises(EstimatorFailureError) as exc:
        exact_expectations(small_population, SIZES_2222, flaky)
    assert exc.value.failures == 2520 // 7


def test_constant_effects_population_structure():
    u = np.array([1.0, 2.0, 4.0, 8.0, 3.0, 5.0])
    m = np.array([0.0, 1.0, -1.0, 2.0])
    table = make_constant_effects_population(6, u, m)
    S = table.covariance
    np.testing.assert_allclose(S, np.full((4, 4), u.var(ddof=1)), atol=1e-12)
    zero = make_constant_effects_population(6, u, np.zeros(4))
    np.testing.assert_allclose(
        true_effects(zero, equal_scheme(2)), np.zeros(3), atol=1e-12
    )
    flat = make_constant_effects_population(4, np.zeros(4), m)
    np.testing.assert_allclose(flat.covariance, np.zeros((4, 4)), atol=1e-12)


def test_no_three_way_population_properties():
    table = make_no_three_way_population(40, 3, seed=61)
    rng = np.random.default_rng(62)
    for _ in range(5):
        scheme = from_joint(rng.dirichlet(np.ones(8)))
        tau = true_effects(table, scheme)
        # all third-order effects vanish (canonical order: last four entries
        # are the two-way rows 4..6 then the three-way at index 6)
        assert abs(tau[6]) <= 1e-10
        np.testing.assert_allclose(
            tau, true_effects(table, pi_cross(scheme)), atol=1e-10
        )


def test_monte_carlo_single_rep(small_population):
    def est(data):
        return cell_summary(data, variances=False).means

    report = monte_carlo(small_population, SIZES_2222, est, reps=1, seed=5)
    cells = draw_assignment(SIZES_2222, simulate._run_rng(5))
    expected = cell_summary(observe(small_population, cells), variances=False).means
    np.testing.assert_array_equal(report.est_mean, expected)


def test_monte_carlo_deterministic_across_workers(small_population):
    scheme = equal_scheme(2)
    truth = true_effects(small_population, scheme)

    def est(data):
        rep = effect_estimates(data, scheme)
        return rep.estimate, rep.covariance

    r1 = monte_carlo(
        small_population, SIZES_2222, est, reps=64, seed=9, truth=truth, workers=1
    )
    r8 = monte_carlo(
        small_population, SIZES_2222, est, reps=64, seed=9, truth=truth, workers=8
    )
    assert np.array_equal(r1.est_mean, r8.est_mean)
    assert np.array_equal(r1.est_cov, r8.est_cov)
    assert np.array_equal(r1.mean_estimated_cov, r8.mean_estimated_cov)
    assert np.array_equal(r1.coverage, r8.coverage)


def test_monte_carlo_matches_enumeration(small_population):
    def est(data):
        return cell_summary(data, variances=False).means

    exact_mean, exact_cov = exact_expectations(small_population, SIZES_2222, est)
    report = monte_carlo(small_population, SIZES_2222, est, reps=4000, seed=10)
    mc_se = np.sqrt(np.diag(exact_cov) / 4000)
    assert np.all(np.abs(report.est_mean - exact_mean) <= 4 * mc_se)


def test_compare_saturated_unsaturated_constant_effects():
    rng = np.random.default_rng(63)
    table = make_constant_effects_population(
        8, rng.normal(0, 1, 8), rng.normal(0, 2, 4)
    )
    report = compare_saturated_unsaturated(table, SIZES_2222, additive_spec([0.4, 0.8]))
    assert report["psd_ordering"]
    assert report["min_eig_difference"] >= -1e-9
    np.testing.assert_allclose(
        report["cov_unsaturated"], report["cov_unsaturated_formula"], atol=1e-9
    )


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4, 1e6, 1e8])
def test_compare_saturated_unsaturated_psd_verdict_is_scale_free(scale):
    # the ordering holds for constant effects and fails for this heterogeneous
    # table at every outcome scale.  Against a fixed -1e-9, rounding in the
    # constant-effects difference (-1.4e-6 at 1e4) read as a violation, and
    # the heterogeneous table's true violation (-1.1e-14 at 1e-6) as PSD
    rng = np.random.default_rng(63)
    constant = make_constant_effects_population(8, rng.normal(0, 1, 8), rng.normal(0, 2, 4))
    heterogeneous = PotentialOutcomeTable(np.random.default_rng(64).normal(size=(8, 4)))
    for table, psd in ((constant, True), (heterogeneous, False)):
        scaled = PotentialOutcomeTable(scale * table.values)
        report = compare_saturated_unsaturated(scaled, SIZES_2222, additive_spec([0.4, 0.8]))
        assert report["psd_ordering"] is psd


def test_compare_saturated_unsaturated_solves_coefficients_only(monkeypatch):
    fits = spy_calls(monkeypatch, "regression", "ols_fit")
    rng = np.random.default_rng(64)
    table = PotentialOutcomeTable(rng.normal(0.0, 1.0, size=(8, 4)))
    compare_saturated_unsaturated(table, SIZES_2222, additive_spec([0.5, 0.5]))
    assert fits == []


def test_compare_saturated_unsaturated_factors_each_model_once(monkeypatch):
    # the saturated map is the Kronecker inverse and the unsaturated one is
    # factored once, from the model's cell rows alone; J reuses the
    # unsaturated map, and no dataset is drawn to read the rows
    maps = spy_calls(monkeypatch, "regression", "_coef_map")
    draws = spy_calls(monkeypatch, "simulate", "draw_assignment")
    observed = spy_calls(monkeypatch, "simulate", "observe")
    rng = np.random.default_rng(65)
    table = PotentialOutcomeTable(rng.normal(0.0, 1.0, size=(8, 4)))
    report = compare_saturated_unsaturated(table, SIZES_2222, additive_spec([0.3, 0.6]))
    assert (len(maps), len(draws), len(observed)) == (1, 0, 0)
    np.testing.assert_allclose(
        report["cov_unsaturated"], report["cov_unsaturated_formula"], atol=1e-12
    )


def test_compare_saturated_unsaturated_rejects_model_of_other_k(small_population):
    with pytest.raises(ValueError, match="disagree on the number of factors"):
        compare_saturated_unsaturated(small_population, SIZES_2222, additive_spec([0.5] * 3))


def test_unsaturated_moment_map_is_identity_plus_omitted_map():
    rng = np.random.default_rng(66)
    sizes = np.array([1, 2, 1, 1, 3, 1, 2, 1])
    cells = rng.permutation(np.repeat(np.arange(8), sizes))
    data = observe(make_no_three_way_population(sizes.sum(), 3, 66), cells)
    spec = ModelSpec(rng.uniform(0, 1, 3), ((0,), (1,), (2,), (0, 2)))
    design = build_design(data, spec)
    J = unsaturated_moment_map(data, spec)
    np.testing.assert_allclose(J[:, design.included_pos], np.eye(4), atol=1e-12)
    np.testing.assert_allclose(J[:, design.omitted_pos], omitted_algebra(design).d, rtol=1e-12)
    # one definition, in the regression layer; simulate re-exports it
    assert simulate.unsaturated_moment_map is regression.unsaturated_moment_map


def test_sim_report_roundtrip(small_population):
    def est(data):
        return cell_summary(data, variances=False).means

    report = monte_carlo(small_population, SIZES_2222, est, reps=3, seed=1)
    d = report.to_dict()
    assert d["mode"] == "mc"
    assert d["reps"] == 3
    assert len(d["est_mean"]) == 4


def test_block_cell_moments_are_each_assignments_moment_estimates():
    # simulate's Vhat and proportions on a (B, N) block, row by row, bit for bit
    sizes = DesignSizes(np.array([2, 3, 2, 4]))
    rng = np.random.default_rng(63)
    table = PotentialOutcomeTable(1e4 + rng.normal(0.0, 1.0, size=(sizes.N, sizes.Q)))
    cells = np.array([draw_assignment(sizes, rng) for _ in range(25)])
    block = _cell_moments(cells, table.values[np.arange(sizes.N), cells], sizes.Q)
    assert isinstance(block, CellMoments)
    assert block.v_hat.shape == block.proportions.shape == (25, 4)
    for b, row in enumerate(cells):
        est = moment_estimates(observe(table, row))
        assert block.v_hat[b].tobytes() == est.v_hat.tobytes()
        assert block.proportions[b].tobytes() == est.proportions.tobytes()
        assert block.y_hat[b].tobytes() == est.y_hat.tobytes()


def test_population_csv_roundtrip(tmp_path, small_population):
    path = tmp_path / "pop.csv"
    small_population.to_csv(path)
    back = PotentialOutcomeTable.from_csv(path)
    np.testing.assert_allclose(back.values, small_population.values)


def _write_population(path, header, values):
    np.savetxt(path, values, delimiter=",", header=header, comments="")
    return str(path)


@pytest.mark.parametrize("order", [[3, 2, 1, 0], [2, 0, 3, 1]])
def test_population_csv_columns_follow_the_header(tmp_path, small_population, order):
    canonical = tmp_path / "pop.csv"
    small_population.to_csv(canonical)
    labels = ["00", "01", "10", "11"]
    moved = _write_population(
        tmp_path / "moved.csv",
        ",".join(labels[i] for i in order),
        small_population.values[:, order],
    )
    back = PotentialOutcomeTable.from_csv(moved)
    assert back.values.tobytes() == PotentialOutcomeTable.from_csv(canonical).values.tobytes()
    reports = []
    for path in (canonical, moved):
        out = tmp_path / "out.json"
        argv = ["simulate", "--population", str(path), "--sizes", "2,2,2,2", "--exact"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "header",
    ["foo", "00,00,10,11", "00,01,10", "00,01,10,11,00", "0,1,10,11", "00,01,10,11 ", "A,B,C,D"],
)
def test_simulate_rejects_population_header_without_each_cell_once(
    tmp_path, capsys, small_population, header
):
    path = _write_population(tmp_path / "pop.csv", header, small_population.values)
    with pytest.raises(ValueError, match="must name each of the 4 cells 00,01,10,11 exactly once"):
        PotentialOutcomeTable.from_csv(path)
    argv = ["simulate", "--population", path, "--sizes", "2,2,2,2", "--exact"]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: population header") and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_population_csv_with_byte_order_mark_reads_as_plain(tmp_path, small_population):
    # Excel's "CSV UTF-8" starts the header with a UTF-8 byte-order mark
    plain, marked = tmp_path / "pop.csv", tmp_path / "bom.csv"
    small_population.to_csv(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    back = PotentialOutcomeTable.from_csv(marked)
    assert back.values.tobytes() == PotentialOutcomeTable.from_csv(plain).values.tobytes()
    reports = []
    for path in (plain, marked):
        out = tmp_path / "out.json"
        argv = ["simulate", "--population", str(path), "--sizes", "2,2,2,2", "--exact"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]


def test_simulate_rejects_header_only_population_without_warning(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("00,01,10,11\n")
    with pytest.raises(ValueError, match="has no rows under its header"):
        PotentialOutcomeTable.from_csv(path)
    # numpy's warning would reach stderr only outside pytest's capture
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["simulate", "--population", str(path), "--sizes", "2,2,2,2", "--exact"]
    run = subprocess.run(
        [sys.executable, "-m", "factorial2k.cli", *argv], env=env, capture_output=True, text=True
    )
    assert run.returncode == EXIT_VALIDATION
    assert run.stderr.startswith("error: ") and len(run.stderr.splitlines()) == 1
    assert "Warning" not in run.stderr


def test_population_csv_with_url_like_relative_name_is_read_as_a_file(
    tmp_path, monkeypatch, small_population
):
    def no_network(*args, **kwargs):
        raise AssertionError("opened a URL")

    import urllib.request

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    (tmp_path / "http:" / "x").mkdir(parents=True)
    small_population.to_csv(tmp_path / "http:" / "x" / "p.csv")
    monkeypatch.chdir(tmp_path)
    back = PotentialOutcomeTable.from_csv("http://x/p.csv")
    np.testing.assert_array_equal(back.values, small_population.values)


def test_population_csv_named_gz_is_plain_text(tmp_path, small_population):
    # the name is never a reason to compress or decompress
    plain, named = tmp_path / "p.csv", tmp_path / "p.csv.gz"
    small_population.to_csv(plain)
    small_population.to_csv(named)
    assert named.read_bytes() == plain.read_bytes()
    back = PotentialOutcomeTable.from_csv(named)
    np.testing.assert_array_equal(back.values, PotentialOutcomeTable.from_csv(plain).values)


def test_simulate_rejects_gzip_population_without_traceback(tmp_path, capsys, small_population):
    plain = tmp_path / "p.csv"
    small_population.to_csv(plain)
    packed = tmp_path / "p.csv.gz"
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    argv = ["simulate", "--population", str(packed), "--sizes", "2,2,2,2", "--exact"]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_population_rejects_non_finite_outcomes():
    values = np.zeros((6, 4))
    values[3, 1] = np.nan
    values[4, 0] = np.inf
    with pytest.raises(ValueError, match=r"values\[3, 1\] is nan"):
        PotentialOutcomeTable(values)
    values[3, 1] = 0.0
    with pytest.raises(ValueError, match=r"values\[4, 0\] is inf"):
        PotentialOutcomeTable(values)


def test_simulation_rejects_population_of_other_shape(small_population):
    # a cell index past the table would alias into the next replicate's bins
    G = contrast_matrix(equal_scheme(1), 1).matrix
    with pytest.raises(ValueError, match="design has 8 units in 2 cells"):
        monte_carlo(small_population, DesignSizes(np.array([4, 4])), G, reps=2, seed=0)
    with pytest.raises(ValueError, match="population is 8 x 4"):
        exact_expectations(small_population, DesignSizes(np.array([2, 2, 2])), np.eye(3))


def _moment_callable(G):
    def est(data):
        m = moment_estimates(data)
        return G @ m.y_hat, (G * m.v_hat) @ G.T

    return est


def _rel(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


SIZES_BY_K = {1: [3, 4], 2: [2, 3, 2, 3], 3: [2, 3, 2, 2, 3, 2, 2, 3]}


@pytest.mark.parametrize("K", [1, 2, 3])
def test_moment_matrix_matches_per_table_adaptor(K, monkeypatch):
    # blocks of 7 replicates; 50 is not a multiple of 7
    sizes = DesignSizes(np.array(SIZES_BY_K[K]))
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 7 * sizes.N)
    rng = np.random.default_rng(70 + K)
    table = PotentialOutcomeTable(rng.normal(3.0, 1.0, size=(sizes.N, 2 ** K)))
    G = contrast_matrix(equal_scheme(K), K).matrix
    truth = G @ table.means
    kwargs = dict(reps=50, seed=K, truth=truth)
    batched = monte_carlo(table, sizes, G, **kwargs)
    adapted = monte_carlo(table, sizes, _moment_callable(G), **kwargs)
    assert batched.failures == adapted.failures == 0
    np.testing.assert_array_equal(batched.coverage, adapted.coverage)
    for field in ("est_mean", "est_cov", "mean_estimated_cov"):
        assert _rel(getattr(batched, field), getattr(adapted, field)) <= 1e-12, field


@pytest.mark.parametrize("K", [1, 2])
def test_exact_moment_matrix_matches_per_table_adaptor(K, monkeypatch):
    sizes = DesignSizes(np.array([3, 3] if K == 1 else [2, 2, 2, 2]))
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 97 * sizes.N)
    table = PotentialOutcomeTable(np.random.default_rng(80).normal(size=(sizes.N, 2 ** K)))
    G = contrast_matrix(equal_scheme(K), K).matrix
    mean, cov = exact_expectations(table, sizes, G)
    ref_mean, ref_cov = exact_expectations(table, sizes, lambda d: G @ moment_estimates(d).y_hat)
    assert _rel(mean, ref_mean) <= 1e-12
    assert _rel(cov, ref_cov) <= 1e-12
    np.testing.assert_allclose(mean, G @ table.means, rtol=1e-12, atol=1e-14)


def test_reports_identical_for_any_worker_count(small_population, monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 5 * small_population.N)
    G = contrast_matrix(equal_scheme(2), 2).matrix
    truth = G @ small_population.means
    for estimator in (G, _moment_callable(G)):
        reports = [
            monte_carlo(
                small_population, SIZES_2222, estimator, reps=23, seed=3, truth=truth, workers=w
            ).to_dict()
            for w in (1, 2, 8)
        ]
        assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("workers", [0, -1])
def test_monte_carlo_rejects_worker_count_below_one(small_population, workers):
    G = contrast_matrix(equal_scheme(2), 2).matrix
    with pytest.raises(ValueError, match="workers must be >= 1"):
        monte_carlo(small_population, SIZES_2222, G, reps=3, seed=1, workers=workers)


def test_block_size_bound_for_large_n(monkeypatch):
    moments = spy_calls(monkeypatch, "core", "_cell_moments")
    sizes = DesignSizes(np.full(4, 20000))
    table = PotentialOutcomeTable(np.random.default_rng(81).normal(size=(sizes.N, 4)))
    G = contrast_matrix(equal_scheme(2), 2).matrix
    report = monte_carlo(table, sizes, G, reps=30, seed=2)
    rows = BLOCK_ELEMENTS // sizes.N
    assert [args[0].shape for args in moments] == [(rows, sizes.N)] * 2 + [(30 - 2 * rows, sizes.N)]
    assert all(args[0].size <= BLOCK_ELEMENTS for args in moments)
    assert report.reps == 30 and report.failures == 0


def test_exact_enumeration_in_blocks(small_population, monkeypatch):
    blocks = spy_calls(monkeypatch, "simulate", "_ranked")
    G = np.eye(4)
    whole = exact_expectations(small_population, SIZES_2222, G)
    assert [len(args[2]) for args in blocks] == [2520]
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1000 * 8)
    blocked = exact_expectations(small_population, SIZES_2222, G)
    assert [len(args[2]) for args in blocks[1:]] == [1000, 1000, 520]
    assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]


def test_monte_carlo_counts_and_drops_failed_replicates(small_population, monkeypatch):
    # fails whenever unit 0 lands in cell 0; blocks of 4 replicates
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 4 * small_population.N)

    def est(data):
        if data.cell[0] == 0:
            raise Factorial2kError("unit 0 in cell 0")
        return cell_summary(data, variances=False).means

    rng = simulate._run_rng(4)
    draws = [draw_assignment(SIZES_2222, rng) for _ in range(40)]
    kept = [est(observe(small_population, cells)) for cells in draws if cells[0] != 0]
    for workers in (1, 2):
        report = monte_carlo(small_population, SIZES_2222, est, reps=40, seed=4, workers=workers)
        assert report.failures == 40 - len(kept) > 0
        assert _rel(report.est_mean, np.mean(kept, axis=0)) <= 1e-12



@pytest.mark.parametrize("seed", [0, 5, 41, 2 ** 40])
def test_run_stream_is_keyed_apart_from_the_population_stream(seed):
    # a built-in population is made from replicate_rng(seed, 0), the
    # generator of a plain seed too; the draws must not reuse its state
    state = simulate._run_rng(seed).bit_generator.state
    assert state != replicate_rng(seed, 0).bit_generator.state
    assert state != np.random.default_rng(seed).bit_generator.state
    sizes = DesignSizes(np.full(8, 16))
    table = PotentialOutcomeTable(np.zeros((sizes.N, 8)))
    seen = []

    def est(data):
        seen.append(data.cell)
        return np.zeros(1)

    monte_carlo(table, sizes, est, reps=1, seed=seed)
    assert not np.array_equal(seen[0], draw_assignment(sizes, replicate_rng(seed, 0)))


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_monte_carlo_draws_successive_assignments_of_one_stream(small_population, monkeypatch, rows):
    # blocks of `rows` replicates, each drawn by one call, give the rows of
    # successive single draws on the run's generator
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", rows * small_population.N)
    rng = simulate._run_rng(7)
    expected = np.array([draw_assignment(SIZES_2222, rng) for _ in range(10)])
    seen = []

    def est(data):
        seen.append(data.cell)
        return cell_summary(data, variances=False).means

    monte_carlo(small_population, SIZES_2222, est, reps=10, seed=7)
    np.testing.assert_array_equal(seen, expected)
    blocks = spy_calls(monkeypatch, "core", "_cell_moments")
    monte_carlo(small_population, SIZES_2222, np.eye(4), reps=10, seed=7)
    assert len(blocks) == -(-10 // rows)
    np.testing.assert_array_equal(np.vstack([args[0] for args in blocks]), expected)


@pytest.mark.parametrize("K, reps", [(2, 23), (5, 300)])
@pytest.mark.parametrize("chunk_rows", [None, 7, 1])
def test_reports_identical_for_any_block_size(K, reps, chunk_rows, monkeypatch):
    # blocks of 1, 5 and 2^20 / N replicates; chunks of the default size or
    # of 7 replicates, which cut the blocks.  At K=5 numpy's BLAS gives a row
    # of means @ G^T different last bits for different row counts, so only a
    # fixed chunk keeps the report bit-identical.  The failing callable drops
    # the replicates with unit 0 in cell 0, so its chunks hold fewer rows, and
    # chunks of 1 replicate some none
    sizes = DesignSizes(np.full(2 ** K, 2))
    rng = np.random.default_rng(90 + K)
    table = PotentialOutcomeTable(rng.normal(3.0, 1.0, size=(sizes.N, 2 ** K)))
    G = contrast_matrix(equal_scheme(K), K).matrix
    truth = G @ table.means
    if chunk_rows:
        monkeypatch.setattr(simulate, "REDUCE_ELEMENTS", chunk_rows * 2 * 2 ** K)
    moment = _moment_callable(G)

    def failing(data):
        if data.cell[0] == 0:
            raise Factorial2kError("unit 0 in cell 0")
        return moment(data)

    for estimator in (G, moment, failing):
        reports = []
        for elements in (sizes.N, 5 * sizes.N, 2 ** 20):
            monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", elements)
            reports.append(
                monte_carlo(table, sizes, estimator, reps=reps, seed=K, truth=truth).to_dict()
            )
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["coverage"] is not None
        assert (reports[0]["failures"] > 0) == (estimator is failing)


@pytest.mark.parametrize("chunk_rows", [None, 1])
def test_callable_with_some_covariances_reports_none(small_population, chunk_rows, monkeypatch):
    # covariances from some assignments only, within one chunk or across
    # chunks of one replicate: neither the mean estimated covariance nor the
    # coverage can be formed
    if chunk_rows:
        monkeypatch.setattr(simulate, "REDUCE_ELEMENTS", chunk_rows * 2 * SIZES_2222.Q)
    G = contrast_matrix(equal_scheme(2), 2).matrix
    moment = _moment_callable(G)

    def mixed(data):
        est, cov = moment(data)
        return est if data.cell[0] == 0 else (est, cov)

    truth = G @ small_population.means
    report = monte_carlo(small_population, SIZES_2222, mixed, reps=40, seed=4, truth=truth)
    assert report.failures == 0
    assert report.mean_estimated_cov is None and report.coverage is None
    full = monte_carlo(small_population, SIZES_2222, moment, reps=40, seed=4, truth=truth)
    assert full.mean_estimated_cov is not None and full.coverage is not None
    np.testing.assert_array_equal(report.est_mean, full.est_mean)


def test_observe_builds_spec_and_levels_once_per_K(monkeypatch, small_population):
    # a callable's Monte Carlo observes every replicate; the factor spec and
    # the 2^K x K level table are built once per K, not per replicate
    fresh = functools.cache(simulate._cell_levels.__wrapped__)
    monkeypatch.setattr(simulate, "_cell_levels", fresh)
    specs = spy_calls(monkeypatch, "core", "default_spec")
    tables = spy_calls(monkeypatch, "core", "enumerate_treatments")
    G = contrast_matrix(equal_scheme(2), 2).matrix
    builds = []
    for reps in (5, 60):
        monte_carlo(small_population, SIZES_2222, _moment_callable(G), reps=reps, seed=5)
        builds.append((len(specs), len(tables)))
    assert builds == [(1, 1), (1, 1)]
    cells = np.array([3, 2, 1, 0, 0, 1, 2, 3])
    data = observe(small_population, cells)
    assert data.spec == default_spec(2)
    np.testing.assert_array_equal(data.assignment, (cells[:, None] >> [1, 0]) & 1)
    np.testing.assert_array_equal(data.outcome, small_population.values[np.arange(8), cells])


def test_callable_covariances_are_not_held_per_replicate():
    # a replicate may keep its assignment, estimate and variances (about 2 KB
    # here) but not its 31 x 31 covariance (7.7 KB), nor a view into it
    sizes = DesignSizes(np.full(32, 3))
    table = PotentialOutcomeTable(np.random.default_rng(93).normal(size=(sizes.N, 32)))
    G = contrast_matrix(equal_scheme(5), 5).matrix
    estimator = _moment_callable(G)
    peaks = []
    for reps in (200, 1000):
        tracemalloc.start()
        monte_carlo(table, sizes, estimator, reps=reps, seed=1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 800 < len(G) ** 2 * 8 / 2


@pytest.mark.parametrize("sizes", [(3, 4), (2, 2, 2, 2)])
@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_exact_reports_identical_for_any_block_size(sizes, chunk_rows, monkeypatch):
    # blocks of 1, 5 and 2^20 / N assignments; chunks of the default size or
    # of 7 rows, which cut the blocks.  A chunk holds REDUCE_ELEMENTS //
    # (2Q) assignments, as when each row carried Vhat beside the cell means
    sizes = DesignSizes(np.array(sizes))
    count = sizes.assignment_count()
    rng = np.random.default_rng(92)
    table = PotentialOutcomeTable(rng.normal(3.0, 1.0, size=(sizes.N, sizes.Q)))
    K = sizes.Q.bit_length() - 1
    G = contrast_matrix(equal_scheme(K), K).matrix
    if chunk_rows:
        monkeypatch.setattr(simulate, "REDUCE_ELEMENTS", chunk_rows * 2 * sizes.Q)
    step = simulate.REDUCE_ELEMENTS // (2 * sizes.Q)
    chunks = []
    evaluator = simulate._block_evaluator

    def recording(*args, **kwargs):
        evaluate, finish = evaluator(*args, **kwargs)

        def chunk(blocks):
            out = evaluate(blocks)
            chunks.append(len(out[0]))
            return out

        return chunk, finish

    monkeypatch.setattr(simulate, "_block_evaluator", recording)
    results = []
    for elements in (sizes.N, 5 * sizes.N, 2 ** 20):
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", elements)
        chunks.clear()
        results.append([a.tobytes() for a in exact_expectations(table, sizes, G)])
        assert chunks == [step] * (count // step) + [count % step] * (count % step > 0)
    assert results[0] == results[1] == results[2]


def test_exact_matrix_forms_no_ss_or_vhat(small_population, monkeypatch):
    # exact moments of M Yhat need each assignment's cell means alone, which
    # the enumeration tree carries as cell sums: no kernel pass, no bincount;
    # Monte Carlo still reads every SS_z and Vhat without counting the
    # cells, which a complete randomization fixes at the design's sizes
    from factorial2k import core

    bincounts = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: bincounts.append(k) or bincount(*a, **k))
    passes = []

    def spy(*args, **kwargs):
        passes.append(core._cell_moments(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(simulate, "_cell_moments", spy)
    reads = []
    v_hat = CellMoments.v_hat
    monkeypatch.setattr(CellMoments, "v_hat", property(lambda m: reads.append(m) or v_hat.fget(m)))
    G = contrast_matrix(equal_scheme(2), 2).matrix
    exact_expectations(small_population, SIZES_2222, G)
    assert passes == [] and reads == [] and bincounts == []
    monte_carlo(small_population, SIZES_2222, G, reps=10, seed=1)
    assert len(passes) == 1 and passes[0].ss is not None and len(reads) == 1
    assert len(bincounts) == 2 and all("weights" in k for k in bincounts)
    np.testing.assert_array_equal(passes[0].counts, np.tile(SIZES_2222.sizes, (10, 1)))


@pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 3, 3), (2, 60)])
def test_carried_cell_sums_equal_the_kernel_means(sizes, monkeypatch):
    # the tree starts each cell sum at 0.0 and adds its outcomes in unit
    # order, as the kernel's bincount does, so under a 1e6 offset the means
    # agree bit for bit.  Blocks of 1 and 7 rows start and end mid-tree; of
    # their many ranges about 200, spread over the ranks, are checked
    sizes = DesignSizes(np.array(sizes))
    count = sizes.assignment_count()
    values = 1e6 + np.random.default_rng(94).normal(size=(sizes.N, sizes.Q))
    offsets = np.arange(sizes.N) * sizes.Q
    for rows in (BLOCK_ELEMENTS // sizes.N, 1, 7):
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", rows * sizes.N)
        ranges = [r for chunk in simulate._chunks(count, sizes.N, sizes.Q, lambda r: r) for r in chunk]
        assert sum(map(len, ranges)) == count
        for ranks in ranges[::max(1, len(ranges) // 200)]:
            cells = simulate._ranked(sizes, count, ranks)
            outcomes = values.ravel().take(cells + offsets)
            want = _cell_moments(cells, outcomes, sizes.Q, counts=sizes.sizes).means
            got = simulate._ranked(sizes, count, ranks, values) / sizes.sizes
            assert got.tobytes() == want.tobytes(), (rows, ranks[0])


def test_mean_estimated_cov_formed_once_matches_one_block(monkeypatch):
    # M diag(mean Vhat) M^T from the run's total, against the one-block run
    # and against Vhat averaged over the same draws one at a time
    sizes = DesignSizes(np.array(SIZES_BY_K[3]))
    table = PotentialOutcomeTable(np.random.default_rng(91).normal(3.0, 1.0, size=(sizes.N, 8)))
    G = contrast_matrix(equal_scheme(3), 3).matrix
    one = monte_carlo(table, sizes, G, reps=50, seed=6)
    blocks = spy_calls(monkeypatch, "core", "_cell_moments")
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 10 * sizes.N)
    blocked = monte_carlo(table, sizes, G, reps=50, seed=6)
    assert len(blocks) >= 5
    assert _rel(blocked.mean_estimated_cov, one.mean_estimated_cov) <= 1e-12
    rng = simulate._run_rng(6)
    v_bar = np.mean(
        [moment_estimates(observe(table, draw_assignment(sizes, rng))).v_hat for _ in range(50)],
        axis=0,
    )
    assert _rel(blocked.mean_estimated_cov, (G * v_bar) @ G.T) <= 1e-12
