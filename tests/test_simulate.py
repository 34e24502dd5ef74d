import itertools
import time

import numpy as np
import pytest

from factorial2k import (
    DesignSizes,
    PotentialOutcomeTable,
    additive_spec,
    cell_summary,
    compare_saturated_unsaturated,
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
from factorial2k.contrasts import contrast_matrix
from factorial2k import simulate
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


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3, 2), (3, 2, 2)])
def test_enumerate_assignments_lexicographic(sizes):
    # the order fixes the blocks and so the exact reports bit for bit
    base = np.repeat(np.arange(len(sizes)), sizes).tolist()
    out = [tuple(a) for a in enumerate_assignments(DesignSizes(np.array(sizes)))]
    assert out == sorted(set(itertools.permutations(base)))


def test_enumerate_assignments_many_units():
    first = next(enumerate_assignments(DesignSizes(np.array([2, 1200]))))
    np.testing.assert_array_equal(first, [0, 0] + [1] * 1200)


def test_unrank_exact_at_largest_design_under_guard():
    # C(4472, 2) is just under the guard, so count * N peaks near 4.5e10 here
    sizes = DesignSizes(np.array([2, 4470]))
    count = sizes.assignment_count()
    assert count <= simulate.ENUMERATION_GUARD
    out = simulate._assignments(sizes, count, [0, 1, count - 2, count - 1])
    np.testing.assert_array_equal(out[0], [0, 0] + [1] * 4470)
    np.testing.assert_array_equal(out[1], [0, 1, 0] + [1] * 4469)
    np.testing.assert_array_equal(out[2], [1] * 4469 + [0, 1, 0])
    np.testing.assert_array_equal(out[3], [1] * 4470 + [0, 0])


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
    cells = draw_assignment(SIZES_2222, replicate_rng(5, 0))
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


def test_compare_saturated_unsaturated_solves_coefficients_only(monkeypatch):
    fits = spy_calls(monkeypatch, "regression", "ols_fit")
    rng = np.random.default_rng(64)
    table = PotentialOutcomeTable(rng.normal(0.0, 1.0, size=(8, 4)))
    compare_saturated_unsaturated(table, SIZES_2222, additive_spec([0.5, 0.5]))
    assert fits == []


def test_compare_saturated_unsaturated_factors_each_model_once(monkeypatch):
    # one coefficient map per model, from the model's cell rows alone; J
    # reuses the unsaturated map, and no dataset is drawn to read the rows
    maps = spy_calls(monkeypatch, "regression", "_qr_solve")
    draws = spy_calls(monkeypatch, "simulate", "draw_assignment")
    observed = spy_calls(monkeypatch, "simulate", "observe")
    rng = np.random.default_rng(65)
    table = PotentialOutcomeTable(rng.normal(0.0, 1.0, size=(8, 4)))
    report = compare_saturated_unsaturated(table, SIZES_2222, additive_spec([0.3, 0.6]))
    assert (len(maps), len(draws), len(observed)) == (2, 0, 0)
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


def test_sim_report_roundtrip(small_population):
    def est(data):
        return cell_summary(data, variances=False).means

    report = monte_carlo(small_population, SIZES_2222, est, reps=3, seed=1)
    d = report.to_dict()
    assert d["mode"] == "mc"
    assert d["reps"] == 3
    assert len(d["est_mean"]) == 4


def test_population_csv_roundtrip(tmp_path, small_population):
    path = tmp_path / "pop.csv"
    small_population.to_csv(path)
    back = PotentialOutcomeTable.from_csv(path)
    np.testing.assert_allclose(back.values, small_population.values)


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
    moments = spy_calls(monkeypatch, "core", "_cell_moments")
    G = np.eye(4)
    whole = exact_expectations(small_population, SIZES_2222, G)
    assert [args[0].shape for args in moments] == [(2520, 8)]
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1000 * 8)
    blocked = exact_expectations(small_population, SIZES_2222, G)
    assert [args[0].shape[0] for args in moments[1:]] == [1000, 1000, 520]
    for got, want in zip(blocked, whole):
        assert _rel(got, want) <= 1e-12


def test_monte_carlo_counts_and_drops_failed_replicates(small_population, monkeypatch):
    # fails whenever unit 0 lands in cell 0; blocks of 4 replicates
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 4 * small_population.N)

    def est(data):
        if data.cell[0] == 0:
            raise Factorial2kError("unit 0 in cell 0")
        return cell_summary(data, variances=False).means

    draws = [draw_assignment(SIZES_2222, replicate_rng(4, r)) for r in range(40)]
    kept = [est(observe(small_population, cells)) for cells in draws if cells[0] != 0]
    for workers in (1, 2):
        report = monte_carlo(small_population, SIZES_2222, est, reps=40, seed=4, workers=workers)
        assert report.failures == 40 - len(kept) > 0
        assert _rel(report.est_mean, np.mean(kept, axis=0)) <= 1e-12

