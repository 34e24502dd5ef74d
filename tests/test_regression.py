import tracemalloc

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
    equal_scheme,
    enumerate_treatments,
    from_joint,
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
from factorial2k import regression
from factorial2k.contrasts import FactorMap, effect_map
from factorial2k.errors import IdentityViolationError, RankDeficientError
from factorial2k.estimation import RANK_RTOL
from factorial2k.regression import (
    _coef_map,
    _sandwich,
    _saturated_map,
    _wls,
    closed_form_two_way_omitted_map,
    effective_additive_weights,
    rel_err,
)
from factorial2k.simulate import DesignSizes, PotentialOutcomeTable, compare_saturated_unsaturated
from factorial2k.verify import random_dataset

from conftest import dense_cell_rows, make_dataset, spy_calls


def test_build_design_half_shift(balanced_2x2):
    design = build_design(balanced_2x2, saturated_spec([0.5, 0.5]))
    full = design.included
    assert full.shape == (8, 4)
    assert set(np.unique(full[:, 1])) == {-0.5, 0.5}
    assert set(np.unique(full[:, 3])) == {-0.25, 0.25}


def test_build_design_zero_shift_is_dummy(balanced_2x2):
    design = build_design(balanced_2x2, saturated_spec([0.0, 0.0]))
    full = design.included
    np.testing.assert_array_equal(full[:, 1], balanced_2x2.assignment[:, 0])
    np.testing.assert_array_equal(
        full[:, 3],
        balanced_2x2.assignment[:, 0] * balanced_2x2.assignment[:, 1],
    )


def test_build_design_sign_coding_relation(balanced_2x2):
    design = build_design(balanced_2x2, saturated_spec([0.5, 0.5]))
    signs = 2.0 * balanced_2x2.assignment - 1.0
    full = design.included
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
    # Kronecker inverse against the least-squares map of the count-weighted cell rows
    rng = np.random.default_rng(80 + K)
    data = make_dataset(K, rng.integers(1, 6, size=2 ** K), lambda c, r: c + r.normal(), rng)
    delta = rng.uniform(0, 1, K)
    delta[::3], delta[1::3] = 0.0, 1.0
    rows = dense_cell_rows(delta)
    oracle = _wls(_coef_map(rows, data.moments.counts), rows, data.moments)
    fit, _ = saturated_fit(data, delta)
    assert rel_err(fit.coefficients, oracle.coefficients) <= 1e-12
    assert rel_err(fit.robust_cov, oracle.robust_cov) <= 1e-12


def _shifts_with_bounds(K, seed):
    delta = np.random.default_rng(seed).uniform(0, 1, K)
    delta[::3], delta[1::3] = 0.0, 1.0
    return delta


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_design_rows_match_explicit_shifted_products(K):
    delta = _shifts_with_bounds(K, 90 + K)
    data = make_dataset(K, np.ones(2 ** K, dtype=int), lambda c, r: float(c))
    rows = build_design(data, saturated_spec(delta)).included_rows
    cells = enumerate_treatments(K)
    np.testing.assert_array_equal(rows[:, 0], np.ones(2 ** K))
    for j, subset in enumerate(enumerate_subsets(K), start=1):
        expected = [np.prod([z[k] - delta[k] for k in subset]) for z in cells]
        np.testing.assert_array_equal(rows[:, j], expected)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8])
def test_saturated_map_equals_product_scheme_contrasts(K):
    # the Kronecker inverse of the cell rows against G from per-factor passes
    delta = _shifts_with_bounds(K, 110 + K)
    A = _saturated_map(delta, np.ones(2 ** K))
    assert rel_err(A[1:], contrast_matrix(product_scheme(delta), K).matrix) <= 1e-15


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
    omitted = dense_cell_rows([0.5, 0.5])[:, 1 + design.omitted_pos]
    residual_matrix = omitted[design.cell] - design.included @ algebra.phi
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
        omitted = dense_cell_rows(spec.delta.delta)[:, 1 + design.omitted_pos][design.cell]
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
    A = _coef_map(X, counts * unit_w)
    fit = _wls(A, X, data.moments)
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



@pytest.mark.parametrize("seed", range(6))
def test_coef_map_inverts_random_tall_designs(seed):
    rng = np.random.default_rng(90 + seed)
    p = int(rng.integers(1, 9))
    n = p + int(rng.integers(0, 30))
    X = rng.normal(size=(n, p))
    w = rng.uniform(0.1, 5.0, size=n)
    A = _coef_map(X, w)
    np.testing.assert_allclose(A @ X, np.eye(p), rtol=0, atol=1e-12)
    assert rel_err(A, np.linalg.solve(X.T @ (X * w[:, None]), X.T * w)) <= 1e-12


def test_coef_map_zero_weight_rows_keep_full_rank():
    # rows of weight zero drop out of the fit; the rest still identify it
    rng = np.random.default_rng(96)
    X = rng.normal(size=(12, 4))
    w = rng.uniform(0.5, 2.0, size=12)
    w[[2, 7, 9]] = 0.0
    A = _coef_map(X, w)
    assert not A[:, [2, 7, 9]].any()
    np.testing.assert_allclose(A @ X, np.eye(4), rtol=0, atol=1e-12)
    keep = w > 0
    expected = np.zeros_like(A)
    expected[:, keep] = _coef_map(X[keep], w[keep])
    assert rel_err(A, expected) <= 1e-12


def test_coef_map_scalar_unit_weight():
    # ols_fit passes the scalar weight 1.0
    rng = np.random.default_rng(97)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    A = _coef_map(X, 1.0)
    assert rel_err(A, np.linalg.pinv(X)) <= 1e-12
    assert rel_err(ols_fit(X, y).coefficients, np.linalg.lstsq(X, y, rcond=None)[0]) <= 1e-12


def _rank_deficient_designs():
    rng = np.random.default_rng(98)
    X = rng.integers(-5, 6, size=(10, 4)).astype(np.float64)
    w = rng.uniform(0.5, 2.0, size=10)
    duplicated = X.copy()
    duplicated[:, 3] = duplicated[:, 1]
    collinear = X.copy()
    collinear[:, 2] = 2.0 * X[:, 0] - 3.0 * X[:, 1]
    few_weighted = w.copy()
    few_weighted[3:] = 0.0  # three weighted rows for four coefficients
    return {
        "duplicated_column": (duplicated, w),
        "collinear_column": (collinear, w),
        "zero_weights": (X, few_weighted),
    }


@pytest.mark.parametrize("case", ["duplicated_column", "collinear_column", "zero_weights"])
def test_coef_map_rank_deficient(case):
    X, w = _rank_deficient_designs()[case]
    with pytest.raises(RankDeficientError):
        _coef_map(X, w)


def test_coef_map_rejects_what_pivoted_qr_rejects():
    # sigma_min / sigma_max <= min|R_ii| / |R_11|: every design that the QR
    # diagonal rule rejects is rejected, across the rank threshold
    from scipy import linalg

    rng = np.random.default_rng(99)
    X = rng.normal(size=(20, 5))
    w = rng.uniform(0.5, 2.0, size=20)
    qr_rejects = []
    for eps in np.logspace(-14, -4, 41):
        Xe = X.copy()
        Xe[:, 4] = Xe[:, 0] + eps * rng.normal(size=20)
        R = linalg.qr(Xe * np.sqrt(w)[:, None], mode="r", pivoting=True)[0]
        diag = np.abs(np.diag(R))
        qr_rejects.append(bool((diag < RANK_RTOL * diag[0]).any()))
        if qr_rejects[-1]:
            with pytest.raises(RankDeficientError):
                _coef_map(Xe, w)
    # the sweep crosses the threshold
    assert any(qr_rejects) and not all(qr_rejects)


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
    for terms in (((2,),), ((0, 0),), ((-1,),)):
        with pytest.raises(ValueError):
            ModelSpec(np.array([0.5, 0.5]), terms)
    spec = ModelSpec(np.array([0.5, 0.5]), ((0, 1), (0,), (1,)))
    assert spec.terms == ((0,), (1,), (0, 1))
    assert spec.saturated


@pytest.mark.parametrize(
    "fit",
    [
        lambda data, shifts: saturated_fit(data, shifts),
        lambda data, shifts: build_design(data, additive_spec(shifts)),
        lambda data, shifts: unsaturated_fit(data, additive_spec(shifts)),
        lambda data, shifts: wls_fit(data, additive_spec(shifts)),
        lambda data, shifts: verify_omitted_relation(data, additive_spec(shifts)),
        lambda data, shifts: regression.unsaturated_moment_map(data, additive_spec(shifts)),
    ],
    ids=["saturated_fit", "build_design", "unsaturated_fit", "wls_fit",
         "verify_omitted_relation", "unsaturated_moment_map"],
)
def test_model_with_other_factor_count_is_rejected(fit):
    data = random_dataset(3, np.random.default_rng(58))
    with pytest.raises(ValueError, match="^data and model disagree on the number of factors$"):
        fit(data, [0.5, 0.5])


def _saturated_data(K, seed, low=2):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(low, 5, size=2 ** K)
    data = make_dataset(K, sizes, lambda c, r: 3.0 * c + r.normal(), rng)
    return data, _shifts_with_bounds(K, seed)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8])
def test_saturated_kronecker_apply_matches_dense_map(K):
    # gamma and the HC0 diagonal by per-factor applies against the dense Kronecker inverse
    data, delta = _saturated_data(K, 230 + K)
    counts, means, ss = data.moments
    A = _saturated_map(delta, counts)
    w = ss / counts ** 2
    fit, verification = saturated_fit(data, delta)
    assert rel_err(fit.coefficients, A @ means) <= 1e-13
    assert rel_err(fit.robust_var, (A * A) @ w) <= 1e-13
    assert "robust_cov" not in vars(fit)
    assert verification["cov_rel_err"] <= 1e-13
    assert verification["dense_cov_rel_err"] is None
    assert rel_err(fit.robust_cov, _sandwich(A, w)) <= 1e-13


def test_saturated_fit_dense_check_on_request():
    data, delta = _saturated_data(3, 241)
    _, verification = saturated_fit(data, delta, covariance=True)
    assert verification["dense_cov_rel_err"] <= 1e-13


def test_saturated_fit_skips_covariance_check_with_singleton_cell():
    data, delta = _saturated_data(3, 242, low=1)
    assert (data.moments[0] == 1).any()
    _, verification = saturated_fit(data, delta, covariance=True)
    assert verification["cov_rel_err"] is None
    assert verification["dense_cov_rel_err"] is None


def _wrong_probe_side(monkeypatch):
    # A's transpose applies the forward factors, so the fit side of the probe
    # applies A instead of A^T: its HC0 is then wrong off the diagonal only,
    # since the diagonal comes from the squared factors
    exact = regression.FactorMap

    def mutated(factors, order):
        A = exact(factors, order)
        A.T = exact([F.T for F in factors], order).T
        return A

    monkeypatch.setattr(regression, "FactorMap", mutated)


def _wrong_scheme_probe(monkeypatch):
    # G's transpose uses the equal scheme's lifted joint
    exact = regression.effect_map

    def mutated(scheme):
        G = exact(scheme)
        G.T = exact(equal_scheme(scheme.K)).T
        return G

    monkeypatch.setattr(regression, "effect_map", mutated)


@pytest.mark.parametrize("mutate", [_wrong_probe_side, _wrong_scheme_probe])
@pytest.mark.parametrize("K", [2, 3, 5])
def test_saturated_probe_catches_off_diagonal_mutation(monkeypatch, mutate, K):
    # the coefficients and the HC0 diagonal do not pass through the probe, so
    # only the probe can see these mutations; the dense check of the full
    # sandwiches caught the same errors
    data, _ = _saturated_data(K, 250 + K)
    delta = np.linspace(0.15, 0.7, K)  # no symmetric factor: A differs from A^T
    _, verification = saturated_fit(data, delta)
    assert verification["cov_rel_err"] <= 1e-13
    mutate(monkeypatch)
    with pytest.raises(IdentityViolationError):
        saturated_fit(data, delta)


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_saturated_and_design_maps_match_dense(K):
    # A and X^T applied, squared and transposed, on a vector and on blocks of
    # B columns, against the np.kron inverse and the dense cell rows; every
    # row set, a random subset of rows too, so T's scatter is checked
    rng = np.random.default_rng(280 + K)
    Q = 2 ** K
    delta = rng.uniform(0, 1, K)
    order = regression._term_order(K)
    A_dense, X = _saturated_map(delta, np.ones(Q)), dense_cell_rows(delta)
    subset = np.sort(rng.choice(Q, size=rng.integers(1, Q + 1), replace=False))
    for rows in (np.arange(Q), np.arange(1, Q), subset):
        A = FactorMap(regression._inverse_factors(delta), order[rows])
        X_t = FactorMap([F.T for F in regression._row_factors(delta)], order[rows])
        A_rows, X_rows = A_dense[rows], X[:, rows].T
        for shape in ((Q,), (Q, 1), (Q, 4), (Q, 3 ** K)):
            y, u = rng.normal(size=shape), rng.normal(size=(len(rows), *shape[1:]))
            assert rel_err(A(y), A_rows @ y) <= 1e-13
            assert rel_err(A.squared(y), (A_rows * A_rows) @ y) <= 1e-13
            assert rel_err(A.T(u), A_rows.T @ u) <= 1e-13
            assert rel_err(X_t(y), X_rows @ y) <= 1e-13
            assert rel_err(X_t.squared(y), (X_rows * X_rows) @ y) <= 1e-13
            assert rel_err(X_t.T(u), X_rows.T @ u) <= 1e-13


@pytest.mark.parametrize("K", range(1, 11))
def test_paired_maps_match_dense_kronecker_products(K):
    # a FactorMap holds its factors in Kronecker pairs, one pass per pair: G
    # over a general joint, the saturated map A at fractional shifts and the
    # design's X^T, applied, squared and transposed on a vector and on a block
    rng = np.random.default_rng(320 + K)
    Q = 2 ** K
    delta = rng.uniform(0.05, 0.95, K)
    scheme = from_joint(rng.dirichlet(np.ones(Q)))
    order = regression._term_order(K)
    maps = [
        (effect_map(scheme), contrast_matrix(scheme, K).matrix),
        (FactorMap(regression._inverse_factors(delta), order), _saturated_map(delta, np.ones(Q))),
        (FactorMap([F.T for F in regression._row_factors(delta)], order), dense_cell_rows(delta).T),
    ]
    for M, dense in maps:
        assert len(M.R) == (K + 1) // 2
        assert M.W is None or len(M.W) == (K + 1) // 2
        for shape in ((Q,), (Q, 3)):
            y, u = rng.normal(size=shape), rng.normal(size=(len(dense), *shape[1:]))
            assert rel_err(M(y), dense @ y) <= 1e-13
            assert rel_err(M.squared(y), (dense * dense) @ y) <= 1e-13
            assert rel_err(M.T(u), dense.T @ u) <= 1e-13


def test_saturated_fit_and_covariance_ordering_form_no_dense_g(monkeypatch):
    # the dense G is read only by the saturated fit's --covariance check
    kernels = spy_calls(monkeypatch, "contrasts", "_dense_rows")
    data, delta = _saturated_data(4, 290)
    saturated_fit(data, delta)
    table = PotentialOutcomeTable(np.random.default_rng(291).normal(size=(8, 4)))
    compare_saturated_unsaturated(table, DesignSizes(np.full(4, 2)), additive_spec([0.3, 0.6]))
    assert kernels == []
    saturated_fit(data, delta, covariance=True)
    assert len(kernels) == 1


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8])
def test_included_rows_equal_full_rows_bit_for_bit(K):
    # the one column builder, on the included, the omitted and every column,
    # against the dense Kronecker oracle; bytes, so signed zeros count
    rng = np.random.default_rng(260 + K)
    # zero and unit shifts give signed zeros; at least three other factors
    # from K=7 on make the product order show in the last bit
    delta = rng.uniform(0, 1, K)
    delta[::4], delta[1::4] = 0.0, 1.0
    all_terms = enumerate_subsets(K)
    chosen = sorted(rng.choice(len(all_terms), size=rng.integers(1, len(all_terms) + 1), replace=False))
    data = make_dataset(K, np.ones(2 ** K, dtype=int), lambda c, r: float(c))
    design = build_design(data, ModelSpec(delta, tuple(all_terms[i] for i in chosen)))
    full = dense_cell_rows(delta)
    included = np.concatenate([[0], 1 + design.included_pos])
    omitted = 1 + design.omitted_pos
    order = regression._term_order(K)
    assert design.included_rows.tobytes() == full[:, included].tobytes()
    assert regression._cell_rows(delta, order[omitted]).tobytes() == full[:, omitted].tobytes()
    assert regression._cell_rows(delta, order).tobytes() == full.tobytes()


@pytest.mark.parametrize("K", [2, 3, 5, 7])
def test_verify_omitted_relation_matches_dense_oracle(K):
    # the matrix-free correction and orthogonality diagnostics against the dense rows
    rng = np.random.default_rng(270 + K)
    all_terms = enumerate_subsets(K)
    data = random_dataset(K, rng)
    n_terms = int(rng.integers(1, len(all_terms)))
    chosen = sorted(rng.choice(len(all_terms), size=n_terms, replace=False).tolist())
    spec = ModelSpec(rng.uniform(0, 1, K), tuple(all_terms[i] for i in chosen))
    report = verify_omitted_relation(data, spec)

    counts, means, _ = data.moments
    design = build_design(data, spec)
    X_plus = design.included_rows
    X_minus = dense_cell_rows(spec.delta.delta)[:, 1 + design.omitted_pos]
    gamma = (_saturated_map(spec.delta.delta, counts) @ means)[1:]
    gamma_minus = gamma[design.omitted_pos]
    d = (_coef_map(X_plus, counts) @ X_minus)[1:]
    weighted_plus = X_plus.T * counts
    centered = X_minus - counts @ X_minus / counts.sum()
    assert rel_err(report["saturated_plus_coef"], gamma[design.included_pos]) <= 1e-12
    assert rel_err(report["correction"], d @ gamma_minus) <= 1e-10
    assert report["orthogonal_raw"] == pytest.approx(np.abs(weighted_plus @ X_minus).max(), rel=1e-12)
    assert report["orthogonal_centered"] == pytest.approx(
        np.abs(weighted_plus @ centered).max(), rel=1e-10, abs=1e-12
    )
    assert rel_err(report["exact_criterion"], weighted_plus[1:] @ centered @ gamma_minus) <= 1e-10


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6, 7])
def test_omitted_maps_match_dense_oracle(K):
    # Phi, D and J, read off A_+ and the factor-pair X^T, against A_+ applied
    # to the dense Kronecker cell rows: shifts at the bounds 0 and 1, unequal
    # counts and one empty cell.  Without cell z the full rows lose only the
    # direction X^{-1} e_z, whose full-interaction entry is +-1; that term is
    # always omitted, so the included rows of the nonempty cells keep full rank
    rng = np.random.default_rng(340 + K)
    delta = _shifts_with_bounds(K, 340 + K)
    all_terms = enumerate_subsets(K)
    chosen = rng.choice(len(all_terms) - 1, size=rng.integers(1, len(all_terms)), replace=False)
    spec = ModelSpec(delta, tuple(all_terms[i] for i in sorted(chosen)))
    sizes = rng.integers(1, 5, size=2 ** K)
    sizes[rng.integers(2 ** K)] = 0
    data = make_dataset(K, sizes, lambda c, r: r.normal(), rng)
    design = build_design(data, spec)
    full = _coef_map(design.included_rows, sizes) @ dense_cell_rows(delta)
    algebra = omitted_algebra(design)
    J = regression.unsaturated_moment_map(data, spec)
    assert rel_err(algebra.phi, full[:, 1 + design.omitted_pos]) <= 1e-12
    assert rel_err(algebra.d, full[1:, 1 + design.omitted_pos]) <= 1e-12
    assert rel_err(J, full[1:, 1:]) <= 1e-12
    np.testing.assert_array_equal(J[:, design.included_pos], np.eye(len(spec.terms)))


@pytest.mark.parametrize(
    "omitted_map",
    [
        lambda data, spec: omitted_algebra(build_design(data, spec)),
        lambda data, spec: regression.unsaturated_moment_map(data, spec),
    ],
    ids=["omitted_algebra", "unsaturated_moment_map"],
)
def test_omitted_maps_form_no_full_design(omitted_map):
    # at K=10 the dense 2^K x 2^K cell rows alone take 8 MiB; Phi, D and J
    # take X^T in factor pairs over the 2^K x 12 block A_+^T
    K = 10
    data = make_dataset(K, np.full(2 ** K, 2), lambda c, r: float(c % 7))
    spec = ModelSpec(np.full(K, 0.3), tuple((k,) for k in range(K)) + ((0, 1),))
    data.moments  # computed once and cached on the data, outside the traced region
    tracemalloc.start()
    try:
        omitted_map(data, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
