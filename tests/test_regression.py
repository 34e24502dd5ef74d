import numpy as np
import pytest

from factorial2k import (
    AssignmentTable,
    ModelSpec,
    additive_spec,
    build_design,
    contrast_matrix,
    default_spec,
    enumerate_subsets,
    moment_estimates,
    ols_fit,
    omitted_algebra,
    product_scheme,
    saturated_fit,
    saturated_spec,
    unsaturated_fit,
    verify_omitted_relation,
    wls_fit,
)
from factorial2k.errors import RankDeficientError
from factorial2k.regression import (
    _qr_solve,
    _wls,
    closed_form_two_way_omitted_map,
    effective_additive_weights,
    rel_err,
)
from factorial2k.verify import random_dataset

from conftest import make_dataset


def test_build_design_half_shift(balanced_2x2):
    design = build_design(balanced_2x2, saturated_spec([0.5, 0.5]))
    full = design.rows[design.cell]
    assert full.shape == (8, 4)
    assert set(np.unique(full[:, 1])) == {-0.5, 0.5}
    assert set(np.unique(full[:, 3])) == {-0.25, 0.25}


def test_build_design_zero_shift_is_dummy(balanced_2x2):
    design = build_design(balanced_2x2, saturated_spec([0.0, 0.0]))
    full = design.rows[design.cell]
    np.testing.assert_array_equal(full[:, 1], balanced_2x2.assignment[:, 0])
    np.testing.assert_array_equal(
        full[:, 3],
        balanced_2x2.assignment[:, 0] * balanced_2x2.assignment[:, 1],
    )


def test_build_design_sign_coding_relation(balanced_2x2):
    design = build_design(balanced_2x2, saturated_spec([0.5, 0.5]))
    signs = 2.0 * balanced_2x2.assignment - 1.0
    full = design.rows[design.cell]
    np.testing.assert_array_equal(full[:, 1], signs[:, 0] / 2)
    np.testing.assert_array_equal(full[:, 3], signs[:, 0] * signs[:, 1] / 4)


def test_ols_intercept_only():
    y = np.array([1.0, 2.0, 4.0, 9.0])
    X = np.ones((4, 1))
    fit = ols_fit(X, y)
    residuals = y - X @ fit.coefficients
    assert np.isclose(fit.coefficients[0], y.mean())
    assert np.isclose(fit.robust_cov[0, 0], (residuals ** 2).sum() / 16)


def test_ols_normal_equations_oracle(balanced_2x2):
    design = build_design(balanced_2x2, saturated_spec([0.5, 0.5]))
    X = design.included
    fit = ols_fit(X, balanced_2x2.outcome)
    oracle = np.linalg.solve(X.T @ X, X.T @ balanced_2x2.outcome)
    np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-12)
    np.testing.assert_allclose(fit.coef_noint, [4.5, 1.5, 1.0])
    residuals = balanced_2x2.outcome - X @ fit.coefficients
    assert np.abs(X.T @ residuals).max() <= 1e-9 * np.linalg.norm(
        balanced_2x2.outcome
    )


def test_ols_rank_deficient():
    X = np.column_stack([np.ones(5), np.arange(5.0), 2 * np.arange(5.0)])
    with pytest.raises(RankDeficientError):
        ols_fit(X, np.arange(5.0))


def test_saturated_fit_identities_random():
    rng = np.random.default_rng(41)
    for K in (1, 2, 3, 4):
        data = random_dataset(K, rng)
        delta = rng.uniform(0, 1, K)
        fit, verification = saturated_fit(data, delta)
        assert verification["coef_rel_err"] <= 1e-8
        assert verification["cov_rel_err"] <= 1e-8


def test_saturated_fit_arbitrary_delta_weights():
    rng = np.random.default_rng(42)
    data = random_dataset(2, rng)
    delta = np.array([0.3, 0.8])
    fit, _ = saturated_fit(data, delta)
    est = moment_estimates(data)
    G = contrast_matrix(product_scheme(delta), 2).matrix
    np.testing.assert_allclose(fit.coef_noint, G @ est.y_hat, atol=1e-10)


def test_saturated_fit_empirical_delta_average_partial():
    rng = np.random.default_rng(43)
    data = random_dataset(2, rng)
    ebar = data.assignment.mean(axis=0)
    fit_e, _ = saturated_fit(data, ebar)
    fit_0, _ = saturated_fit(data, np.zeros(2))
    g0 = fit_0.coef_noint
    assert np.isclose(fit_e.coef_noint[0], g0[0] + ebar[1] * g0[2])
    assert np.isclose(fit_e.coef_noint[1], g0[1] + ebar[0] * g0[2])
    assert np.isclose(fit_e.coef_noint[2], g0[2])


def test_saturated_fit_2x3():
    rng = np.random.default_rng(44)
    data = random_dataset(3, rng)
    delta = rng.uniform(0, 1, 3)
    _, verification = saturated_fit(data, delta)
    assert verification["coef_rel_err"] <= 1e-8
    assert verification["cov_rel_err"] <= 1e-8


def test_saturated_fit_empty_cell_rank_deficient():
    data = make_dataset(2, [3, 3, 3, 0], lambda c, rng: float(c) + 1)
    with pytest.raises(RankDeficientError):
        saturated_fit(data, [0.5, 0.5])


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_saturated_kronecker_map_matches_qr_oracle(K):
    # Kronecker inverse against the pivoted QR of the count-weighted cell rows
    rng = np.random.default_rng(80 + K)
    data = make_dataset(K, rng.integers(1, 6, size=2 ** K), lambda c, r: c + r.normal(), rng)
    delta = rng.uniform(0, 1, K)
    delta[::3], delta[1::3] = 0.0, 1.0
    rows = build_design(data, saturated_spec(delta)).rows
    counts, means, ss = data.moments
    oracle = _wls(_qr_solve(rows, counts), rows, counts, means, ss)
    fit, _ = saturated_fit(data, delta)
    assert rel_err(fit.coefficients, oracle.coefficients) <= 1e-12
    assert rel_err(fit.robust_cov, oracle.robust_cov) <= 1e-12


def test_unsaturated_additive_invariant_to_delta():
    rng = np.random.default_rng(45)
    data = random_dataset(2, rng)
    f1 = unsaturated_fit(data, additive_spec([0.0, 0.0]))
    f2 = unsaturated_fit(data, additive_spec([0.7, 0.2]))
    np.testing.assert_allclose(f1.coef_noint, f2.coef_noint, atol=1e-10)
    assert not np.isclose(f1.intercept, f2.intercept)


def test_balanced_additive_recovers_standard_effect(balanced_2x2):
    fit = unsaturated_fit(balanced_2x2, additive_spec([0.5, 0.5]))
    # equals the moment estimator of the equally weighted main effects
    np.testing.assert_allclose(fit.coef_noint, [4.5, 1.5], atol=1e-12)


def test_main_plus_two_way_shape():
    rng = np.random.default_rng(46)
    data = random_dataset(3, rng)
    spec = ModelSpec(
        np.full(3, 0.5), tuple(t for t in enumerate_subsets(3) if len(t) <= 2)
    )
    fit = unsaturated_fit(data, spec)
    assert fit.coef_noint.shape == (6,)


def test_omitted_algebra_balanced_half_shift_zero():
    data = make_dataset(2, [3, 3, 3, 3], lambda c, rng: float(c))
    design = build_design(data, additive_spec([0.5, 0.5]))
    algebra = omitted_algebra(design)
    np.testing.assert_allclose(algebra.d, np.zeros_like(algebra.d), atol=1e-14)
    # included columns orthogonal to the residual matrix
    residual_matrix = design.omitted_rows[design.cell] - design.included @ algebra.phi
    assert np.abs(design.included.T @ residual_matrix).max() <= 1e-9


def test_omitted_algebra_duplication_invariance():
    rng = np.random.default_rng(47)
    data = random_dataset(3, rng)
    spec = ModelSpec(rng.uniform(0, 1, 3), ((0,), (1,), (2,), (0, 1)))
    # Phi depends on the cell proportions alone: duplicating every unit keeps it
    doubled = AssignmentTable(
        data.spec, np.vstack([data.assignment] * 2), np.tile(data.outcome, 2)
    )
    phi = omitted_algebra(build_design(data, spec)).phi
    assert rel_err(omitted_algebra(build_design(doubled, spec)).phi, phi) <= 1e-8


def test_empty_cell_additive_model():
    # three nonempty cells: the included columns have full rank, the full design
    # not; with zero shifts the omitted A:B column is identically zero
    data = make_dataset(2, [3, 3, 3, 0], lambda c, rng: float(c) + 1)
    spec = additive_spec([0.0, 0.0])
    with pytest.raises(RankDeficientError):
        verify_omitted_relation(data, spec)
    d = omitted_algebra(build_design(data, spec)).d
    assert d.shape == (2, 1)
    assert np.isfinite(d).all()


def test_two_way_closed_form_map():
    rng = np.random.default_rng(48)
    for _ in range(5):
        data = random_dataset(3, rng)
        delta = rng.uniform(0, 1, 3)
        spec = ModelSpec(delta, tuple(t for t in enumerate_subsets(3) if len(t) <= 2))
        algebra = omitted_algebra(build_design(data, spec))
        e = np.bincount(data.cell, minlength=8) / data.N
        expected = closed_form_two_way_omitted_map(e, delta)
        assert rel_err(algebra.d.ravel(), expected) <= 1e-8


def test_additive_effective_weights():
    rng = np.random.default_rng(49)
    data = random_dataset(2, rng)
    e = np.bincount(data.cell, minlength=4) / data.N
    pi_first, pi_second = effective_additive_weights(e)
    est = moment_estimates(data)
    tau_a = np.array([est.y_hat[2] - est.y_hat[0], est.y_hat[3] - est.y_hat[1]])
    tau_b = np.array([est.y_hat[1] - est.y_hat[0], est.y_hat[3] - est.y_hat[2]])
    fit = unsaturated_fit(data, additive_spec(rng.uniform(0, 1, 2)))
    assert np.isclose(fit.coef_noint[0], pi_second @ tau_a, atol=1e-10)
    assert np.isclose(fit.coef_noint[1], pi_first @ tau_b, atol=1e-10)
    # weights reproduce sigma^-1 (e01^-1 + e11^-1, e00^-1 + e10^-1)
    sigma = (1 / e).sum()
    np.testing.assert_allclose(
        pi_second, [(1 / e[1] + 1 / e[3]) / sigma, (1 / e[0] + 1 / e[2]) / sigma]
    )


def test_verify_omitted_relation_balanced_exact():
    data = make_dataset(2, [4, 4, 4, 4], lambda c, rng: float(c ** 2))
    report = verify_omitted_relation(data, additive_spec([0.5, 0.5]))
    np.testing.assert_allclose(
        report["unsaturated_coef"], report["saturated_plus_coef"], atol=1e-12
    )
    assert report["orthogonal_centered"] <= 1e-10


def test_verify_omitted_relation_generic_nonzero_correction():
    rng = np.random.default_rng(50)
    data = random_dataset(3, rng)
    spec = ModelSpec(rng.uniform(0, 1, 3), ((0,), (1,), (2,)))
    report = verify_omitted_relation(data, spec)
    assert report["pass"]
    assert np.abs(report["correction"]).max() > 1e-8


def test_verify_omitted_relation_zero_omitted_coefficients():
    # additive cell surface with no noise: omitted interaction estimates vanish
    data = make_dataset(
        2, [3, 5, 4, 6], lambda c, rng: 2.0 * (c // 2) + 3.0 * (c % 2)
    )
    report = verify_omitted_relation(data, additive_spec([0.3, 0.9]))
    np.testing.assert_allclose(
        report["unsaturated_coef"], report["saturated_plus_coef"], atol=1e-10
    )
    np.testing.assert_allclose(report["correction"], 0.0, atol=1e-10)


def test_exact_criterion_matches_correction():
    rng = np.random.default_rng(51)
    for _ in range(5):
        data = random_dataset(3, rng)
        spec = ModelSpec(rng.uniform(0, 1, 3), ((0,), (1,), (2,), (1, 2)))
        report = verify_omitted_relation(data, spec)
        zero_correction = np.abs(report["correction"]).max() <= 1e-10
        zero_criterion = np.abs(report["exact_criterion"]).max() <= 1e-10
        assert zero_correction == zero_criterion


@pytest.mark.parametrize("K", [2, 3, 4])
def test_exact_criterion_matches_residual_regression_oracle(K):
    # oracle: the omitted coefficients from regressing y on the residual matrix
    rng = np.random.default_rng(60 + K)
    all_terms = enumerate_subsets(K)
    for _ in range(5):
        data = random_dataset(K, rng)
        n_terms = int(rng.integers(1, len(all_terms)))
        chosen = sorted(rng.choice(len(all_terms), size=n_terms, replace=False).tolist())
        spec = ModelSpec(rng.uniform(0, 1, K), tuple(all_terms[i] for i in chosen))
        report = verify_omitted_relation(data, spec)
        design = build_design(data, spec)
        omitted = design.omitted_rows[design.cell]
        R = omitted - design.included @ omitted_algebra(design).phi
        centered = omitted - omitted.mean(axis=0)
        oracle = (
            design.included[:, 1:].T
            @ centered
            @ np.linalg.solve(R.T @ R, R.T @ data.outcome)
        )
        assert rel_err(report["exact_criterion"], oracle) <= 1e-8
        np.testing.assert_array_equal(
            report["fit"].coefficients, unsaturated_fit(data, spec).coefficients
        )


def test_wls_weighted_sandwich_oracle():
    rng = np.random.default_rng(56)
    data = random_dataset(3, rng, min_cell=2, max_cell=9)
    spec = additive_spec(rng.uniform(0, 1, 3))
    fit = wls_fit(data, spec)
    X = build_design(data, spec).included
    w = 1.0 / np.bincount(data.cell)[data.cell]
    bread = np.linalg.inv(X.T @ (X * w[:, None]))
    beta = bread @ X.T @ (w * data.outcome)
    resid = data.outcome - X @ beta
    xw = X * (w * resid)[:, None]
    np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-10)
    np.testing.assert_allclose(fit.robust_cov, bread @ xw.T @ xw @ bread, rtol=1e-10)


@pytest.mark.parametrize("layout", ["random", "singletons", "empty_cell"])
@pytest.mark.parametrize("weighting", ["ols", "wls"])
def test_coefficient_map_hc0_matches_unit_sandwich(layout, weighting):
    # cell level: beta = A ybar, HC0 = A diag(RSS_z / N_z^2) A^T; oracle: the
    # explicit weighted sandwich over the unit rows
    rng = np.random.default_rng(57)
    sizes = rng.integers(2, 7, size=8)
    if layout == "singletons":
        sizes[1::3] = 1
    if layout == "empty_cell":
        sizes[5] = 0
    data = make_dataset(3, sizes, lambda c, r: c + r.normal(), rng)
    design = build_design(data, additive_spec(rng.uniform(0, 1, 3)))
    X = design.included_rows
    counts, means, ss = data.moments
    unit_w = np.ones(8) if weighting == "ols" else 1.0 / np.maximum(counts, 1)
    A = _qr_solve(X, counts * unit_w)
    fit = _wls(A, X, counts, means, ss)
    rss = ss + counts * (means - X @ (A @ means)) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        hc0 = A @ np.diag(np.where(counts > 0, rss / counts ** 2, 0.0)) @ A.T

    Xu, w, y = design.included, unit_w[data.cell], data.outcome
    bread = np.linalg.inv(Xu.T @ (Xu * w[:, None]))
    beta = bread @ Xu.T @ (w * y)
    xw = Xu * (w * (y - Xu @ beta))[:, None]
    sandwich = bread @ xw.T @ xw @ bread
    assert rel_err(A @ means, beta) <= 1e-10
    assert rel_err(fit.coefficients, beta) <= 1e-10
    assert rel_err(hc0, sandwich) <= 1e-10
    assert rel_err(fit.robust_cov, sandwich) <= 1e-10
    if layout == "empty_cell":
        assert not A[:, 5].any()


def _assert_matches_unit_rows(data, spec, fit, weights):
    # oracle: least squares on the explicit N-row design, sqrt(w)-scaled for WLS
    X = build_design(data, spec).included
    sw = np.sqrt(weights)
    oracle = ols_fit(X * sw[:, None], data.outcome * sw)
    assert rel_err(fit.coefficients, oracle.coefficients) <= 1e-10
    assert rel_err(fit.robust_cov, oracle.robust_cov) <= 1e-10


@pytest.mark.parametrize("layout", ["random", "singletons", "empty_cell"])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_cell_level_fits_match_unit_row_ols(K, layout):
    rng = np.random.default_rng(70 + K)
    sizes = rng.integers(2, 7, size=2 ** K)
    if layout == "singletons":
        sizes[::2] = 1
    if layout == "empty_cell":
        sizes[-1] = 0
    data = make_dataset(K, sizes, lambda c, r: c + r.normal(), rng)
    delta = rng.uniform(0, 1, K)
    spec = additive_spec(delta)
    unit_w = 1.0 / np.bincount(data.cell)[data.cell]
    _assert_matches_unit_rows(data, spec, unsaturated_fit(data, spec), np.ones(data.N))
    _assert_matches_unit_rows(data, spec, wls_fit(data, spec), unit_w)
    if layout == "random":
        sat = saturated_spec(delta)
        _assert_matches_unit_rows(data, sat, saturated_fit(data, delta)[0], np.ones(data.N))
        _assert_matches_unit_rows(data, sat, wls_fit(data, sat), unit_w)


def test_wls_balanced_equals_ols():
    data = make_dataset(2, [3, 3, 3, 3], lambda c, rng: float(2 * c + 1))
    spec = additive_spec([0.4, 0.6])
    np.testing.assert_allclose(
        wls_fit(data, spec).coefficients,
        unsaturated_fit(data, spec).coefficients,
        atol=1e-12,
    )


def test_wls_unsaturated_drops_balance_condition():
    rng = np.random.default_rng(52)
    data = random_dataset(2, rng, min_cell=2, max_cell=9)
    sat, _ = saturated_fit(data, np.full(2, 0.5))
    wfit = wls_fit(data, additive_spec([0.5, 0.5]))
    np.testing.assert_allclose(wfit.coef_noint, sat.coef_noint[:2], atol=1e-10)


def test_wls_saturated_equals_ols_saturated():
    rng = np.random.default_rng(53)
    data = random_dataset(2, rng)
    delta = np.full(2, 0.5)
    sat, _ = saturated_fit(data, delta)
    wsat = wls_fit(data, saturated_spec(delta))
    np.testing.assert_allclose(wsat.coef_noint, sat.coef_noint, atol=1e-10)


def test_hc0_invariant_to_column_permutation():
    rng = np.random.default_rng(54)
    data = random_dataset(3, rng)
    design = build_design(data, saturated_spec(rng.uniform(0, 1, 3)))
    X = design.included
    fit = ols_fit(X, data.outcome)
    perm = np.array([0, 3, 1, 6, 2, 5, 7, 4])  # keep intercept first
    fit_p = ols_fit(X[:, perm], data.outcome)
    inv = np.argsort(perm)
    np.testing.assert_allclose(fit_p.coefficients[inv], fit.coefficients, atol=1e-10)
    np.testing.assert_allclose(
        fit_p.robust_cov[np.ix_(inv, inv)], fit.robust_cov, atol=1e-10
    )


def test_sign_coding_scaling_exact():
    rng = np.random.default_rng(55)
    data = random_dataset(2, rng)
    half, _ = saturated_fit(data, np.full(2, 0.5))
    signs = 2.0 * data.assignment - 1.0
    Xs = np.column_stack(
        [np.ones(data.N), signs[:, 0], signs[:, 1], signs[:, 0] * signs[:, 1]]
    )
    sfit = ols_fit(Xs, data.outcome)
    np.testing.assert_allclose(
        half.coef_noint, sfit.coefficients[1:] * [2.0, 2.0, 4.0], atol=1e-12
    )


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(np.array([0.5, 0.5]), ())
    with pytest.raises(ValueError):
        ModelSpec(np.array([0.5, 0.5]), ((0,), (0,)))
    with pytest.raises(ValueError):
        ModelSpec(np.array([0.5, 0.5]), ((2,),))
    spec = ModelSpec(np.array([0.5, 0.5]), ((0, 1), (0,), (1,)))
    assert spec.terms == ((0,), (1,), (0, 1))
    assert spec.saturated
