"""Acceptance suite: exact finite-sample identities and design-based checks.

Each test covers one acceptance criterion and prints a single pass/fail
line with the measured error so the suite doubles as a report.
"""

import time

import numpy as np
import pytest

from factorial2k import (
    DesignSizes,
    ModelSpec,
    PotentialOutcomeTable,
    additive_spec,
    build_design,
    cell_summary,
    compare_saturated_unsaturated,
    conditional_effect_row,
    effect_estimates,
    enumerate_subsets,
    equal_scheme,
    exact_expectations,
    from_joint,
    is_product,
    make_constant_effects_population,
    moment_estimates,
    make_no_three_way_population,
    monte_carlo,
    ols_fit,
    pi_cross,
    product_scheme,
    saturated_fit,
    treatment_based_fit,
    true_effects,
    unsaturated_fit,
    verify_omitted_relation,
    wls_fit,
)
from factorial2k.contrasts import contrast_matrix
from factorial2k.regression import (
    closed_form_two_way_omitted_map,
    effective_additive_weights,
    omitted_algebra,
    rel_err,
    saturated_spec,
)
from factorial2k.simulate import (
    add_three_way_term,
    truth_covariance_of_cell_means,
    unsaturated_moment_map,
)
from factorial2k.verify import random_dataset


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {num}] {name}: {status} ({detail})")


@pytest.fixture(scope="module")
def corpus():
    """200 random datasets, K in 1..4, unbalanced cells of 2..8 units."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(200):
        K = int(rng.integers(1, 5))
        data = random_dataset(K, rng)
        delta = rng.uniform(0.0, 1.0, K)
        out.append((data, delta))
    return out


def test_criterion_1_saturated_identities(corpus):
    start = time.perf_counter()
    worst = 0.0
    for data, delta in corpus:
        _, verification = saturated_fit(data, delta)
        worst = max(worst, verification["coef_rel_err"], verification["cov_rel_err"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _line(1, "saturated-fit coefficient and covariance identities",
          ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_treatment_based_identities(corpus):
    worst = 0.0
    for data, _ in corpus:
        beta, v0 = treatment_based_fit(data)
        est = moment_estimates(data)
        worst = max(worst, rel_err(beta, est.y_hat))
        worst = max(worst, rel_err(v0, np.diag((1 - 1 / est.counts) * est.v_hat)))
    ok = worst <= 1e-10
    _line(2, "treatment-based coefficient and HC0 identities",
          ok, f"max rel err {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_3_shift_triplet():
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(20):
        data = random_dataset(2, rng)
        est = moment_estimates(data)
        base_fit, _ = saturated_fit(data, np.zeros(2))
        rows = np.array(
            [
                conditional_effect_row((0,), (0,), 2),
                conditional_effect_row((1,), (0,), 2),
                conditional_effect_row((0, 1), (), 2),
            ]
        )
        worst = max(worst, rel_err(base_fit.coef_noint, rows @ est.y_hat))

        ebar = data.assignment.mean(axis=0)
        emp_fit, _ = saturated_fit(data, ebar)
        g0 = base_fit.coef_noint
        expected = np.array(
            [g0[0] + ebar[1] * g0[2], g0[1] + ebar[0] * g0[2], g0[2]]
        )
        worst = max(worst, rel_err(emp_fit.coef_noint, expected))

        half_fit, _ = saturated_fit(data, np.full(2, 0.5))
        signs = 2.0 * data.assignment - 1.0
        Xs = np.column_stack(
            [np.ones(data.N), signs[:, 0], signs[:, 1], signs[:, 0] * signs[:, 1]]
        )
        scaled = ols_fit(Xs, data.outcome).coefficients[1:] * np.array([2.0, 2.0, 4.0])
        worst = max(worst, rel_err(half_fit.coef_noint, scaled))
    ok = worst <= 1e-8
    _line(3, "location-shift triplet on random 2x2 data",
          ok, f"max rel err {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_4_omitted_term_algebra():
    rng = np.random.default_rng(401)
    worst_relation = 0.0
    for K in (2, 3, 4):
        all_terms = enumerate_subsets(K)
        for _ in range(10):
            data = random_dataset(K, rng)
            delta = rng.uniform(0.0, 1.0, K)
            size = int(rng.integers(1, len(all_terms)))
            chosen = rng.choice(len(all_terms), size=size, replace=False)
            spec = ModelSpec(delta, tuple(all_terms[i] for i in sorted(chosen)))
            report = verify_omitted_relation(data, spec)
            worst_relation = max(worst_relation, report["relation_rel_err"])

    worst_closed = 0.0
    two_way_terms = tuple(s for s in enumerate_subsets(3) if len(s) <= 2)
    for _ in range(10):
        data = random_dataset(3, rng)
        delta = rng.uniform(0.0, 1.0, 3)
        design = build_design(data, ModelSpec(delta, two_way_terms))
        d = omitted_algebra(design).d.ravel()
        props = np.bincount(data.cell, minlength=8) / data.N
        worst_closed = max(
            worst_closed, rel_err(d, closed_form_two_way_omitted_map(props, delta))
        )

    worst_weights = 0.0
    for _ in range(10):
        data = random_dataset(2, rng)
        delta = rng.uniform(0.0, 1.0, 2)
        fit = unsaturated_fit(data, additive_spec(delta))
        est = moment_estimates(data)
        props = np.bincount(data.cell, minlength=4) / data.N
        pi_first, pi_second = effective_additive_weights(props)
        tau_a = np.array(
            [est.y_hat[2] - est.y_hat[0], est.y_hat[3] - est.y_hat[1]]
        )
        tau_b = np.array(
            [est.y_hat[1] - est.y_hat[0], est.y_hat[3] - est.y_hat[2]]
        )
        expected = np.array([pi_second @ tau_a, pi_first @ tau_b])
        worst_weights = max(worst_weights, rel_err(fit.coef_noint, expected))

    ok = worst_relation <= 1e-8 and worst_closed <= 1e-8 and worst_weights <= 1e-10
    _line(4, "omitted-term relation, closed-form map, effective weights", ok,
          f"relation {worst_relation:.2e}, closed form {worst_closed:.2e}, "
          f"weights {worst_weights:.2e}")
    assert worst_relation <= 1e-8
    assert worst_closed <= 1e-8
    assert worst_weights <= 1e-10


def test_criterion_5_balanced_and_wls():
    rng = np.random.default_rng(501)
    worst_bal = 0.0
    worst_wls = 0.0
    for K in (2, 3):
        all_terms = enumerate_subsets(K)
        for _ in range(10):
            size = int(rng.integers(1, len(all_terms)))
            chosen = sorted(rng.choice(len(all_terms), size=size, replace=False))
            spec = ModelSpec(np.full(K, 0.5), tuple(all_terms[i] for i in chosen))
            plus_idx = [all_terms.index(t) for t in spec.terms]

            bal = random_dataset(K, rng, balanced=True)
            sat_bal, _ = saturated_fit(bal, np.full(K, 0.5))
            fit_bal = unsaturated_fit(bal, spec)
            worst_bal = max(
                worst_bal, rel_err(fit_bal.coef_noint, sat_bal.coef_noint[plus_idx])
            )

            data = random_dataset(K, rng)
            sat, _ = saturated_fit(data, np.full(K, 0.5))
            wfit = wls_fit(data, spec)
            worst_wls = max(
                worst_wls, rel_err(wfit.coef_noint, sat.coef_noint[plus_idx])
            )
    ok = worst_bal <= 1e-10 and worst_wls <= 1e-8
    _line(5, "balanced half-shift equality and WLS equality", ok,
          f"balanced {worst_bal:.2e}, wls {worst_wls:.2e}")
    assert worst_bal <= 1e-10
    assert worst_wls <= 1e-8


def test_criterion_6_enumeration_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(601)
    table = PotentialOutcomeTable(rng.normal(0.0, 1.0, size=(8, 4)))
    sizes = DesignSizes(np.array([2, 2, 2, 2]))
    delta = np.array([0.3, 0.7])
    spec = additive_spec(delta)

    mean_y, cov_y = exact_expectations(
        table, sizes, lambda d: cell_summary(d, variances=False).means
    )
    err_mean = np.abs(mean_y - table.means).max()
    truth_cov = truth_covariance_of_cell_means(table, sizes)
    err_cov = np.abs(cov_y - truth_cov).max()

    mean_vhat, _ = exact_expectations(table, sizes, lambda d: moment_estimates(d).v_hat)
    err_vhat = np.abs(np.diag(mean_vhat) - truth_cov - table.covariance / table.N).max()

    def uns(data):
        return ols_fit(build_design(data, spec).included, data.outcome).coefficients[1:]

    mean_u, cov_u = exact_expectations(table, sizes, uns)
    ref = random_dataset(2, np.random.default_rng(0), balanced=True, cell_size=2)
    J = unsaturated_moment_map(ref, spec)
    G = contrast_matrix(product_scheme(delta), 2).matrix
    err_bias = np.abs(mean_u - J @ (G @ table.means)).max()
    JG = J @ G
    err_thm4 = np.abs(cov_u - JG @ truth_cov @ JG.T).max()

    elapsed = time.perf_counter() - start
    worst = max(err_mean, err_cov, err_vhat, err_bias, err_thm4)
    ok = worst <= 1e-10 and elapsed < 30.0
    _line(6, "enumeration-exact design-based moments", ok,
          f"max abs err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_7_scheme_equivalence():
    table = make_no_three_way_population(30, 3, seed=701)
    rng = np.random.default_rng(702)
    schemes = []
    while len(schemes) < 50:
        s = from_joint(rng.dirichlet(np.ones(8)))
        if not is_product(s, tol=1e-6):
            schemes.append(s)
    worst = 0.0
    for s in schemes:
        worst = max(
            worst,
            np.abs(true_effects(table, s) - true_effects(table, pi_cross(s))).max(),
        )
    broken = add_three_way_term(table, (0, 1, 2), 2.0)
    gap = max(
        np.abs(true_effects(broken, s) - true_effects(broken, pi_cross(s))).max()
        for s in schemes
    )
    ok = worst <= 1e-12 and gap > 1e-6
    _line(7, "no-three-way scheme equivalence and its breakdown", ok,
          f"max gap {worst:.2e}, broken gap {gap:.2e}")
    assert worst <= 1e-12
    assert gap > 1e-6


def test_criterion_8_covariance_ordering():
    rng = np.random.default_rng(801)
    sizes = DesignSizes(np.array([2, 2, 2, 2]))
    worst = np.inf
    for _ in range(3):
        table = make_constant_effects_population(
            8, rng.normal(0.0, 1.0, 8), rng.normal(0.0, 2.0, 4)
        )
        spec = additive_spec(rng.uniform(0.0, 1.0, 2))
        report = compare_saturated_unsaturated(table, sizes, spec)
        worst = min(worst, report["min_eig_difference"])
    ok = worst >= -1e-9
    _line(8, "constant-effects covariance ordering", ok, f"min eig {worst:.2e}")
    assert worst >= -1e-9


def test_criterion_9_coverage():
    start = time.perf_counter()
    sizes = DesignSizes(np.full(4, 64))
    scheme = equal_scheme(2)
    rng = np.random.default_rng(901)

    def estimator(data):
        rep = effect_estimates(data, scheme)
        return rep.estimate, rep.covariance

    const = make_constant_effects_population(
        256, rng.normal(0.0, 1.0, 256), np.array([0.0, 1.0, 2.0, 4.0])
    )
    rep_c = monte_carlo(
        const, sizes, estimator, reps=10000, seed=902,
        truth=true_effects(const, scheme),
    )
    const_dev = np.abs(rep_c.coverage - 0.95).max()

    hetero = PotentialOutcomeTable(rng.normal(0.0, 1.0, size=(256, 4)))
    rep_h = monte_carlo(
        hetero, sizes, estimator, reps=10000, seed=903,
        truth=true_effects(hetero, scheme),
    )
    hetero_min = rep_h.coverage.min()

    elapsed = time.perf_counter() - start
    ok = const_dev <= 0.015 and hetero_min >= 0.935 and elapsed < 120.0
    _line(9, "Wald interval coverage", ok,
          f"constant dev {const_dev:.4f}, heterogeneous min {hetero_min:.4f}, "
          f"{elapsed:.0f}s")
    assert const_dev <= 0.015
    assert hetero_min >= 0.935
    assert elapsed < 120.0


def test_criterion_10_parallel_determinism():
    rng = np.random.default_rng(1001)
    table = PotentialOutcomeTable(rng.normal(0.0, 1.0, size=(24, 4)))
    sizes = DesignSizes(np.full(4, 6))
    scheme = equal_scheme(2)
    truth = true_effects(table, scheme)

    def estimator(data):
        rep = effect_estimates(data, scheme)
        return rep.estimate, rep.covariance

    reports = [
        monte_carlo(table, sizes, estimator, reps=500, seed=7, truth=truth, workers=w)
        for w in (1, 8)
    ]
    r1, r8 = reports
    same = (
        np.array_equal(r1.est_mean, r8.est_mean)
        and np.array_equal(r1.est_cov, r8.est_cov)
        and np.array_equal(r1.mean_estimated_cov, r8.mean_estimated_cov)
        and np.array_equal(r1.coverage, r8.coverage)
        and r1.failures == r8.failures
    )
    _line(10, "bit-identical reports across worker counts", same,
          "1 vs 8 threads, 500 replicates")
    assert same
