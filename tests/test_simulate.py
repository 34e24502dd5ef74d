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
from factorial2k.simulate import (
    replicate_rng,
    truth_covariance_of_cell_means,
    unsaturated_moment_map,
)
from factorial2k.regression import build_design, ols_fit


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
