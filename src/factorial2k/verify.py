"""Batch verification of the exact numeric identities on generated data.

Each record compares two independently computed quantities and reports the
max relative error together with a pass flag at the identity tolerance.
The identities are exact in real arithmetic; the tolerance only absorbs
floating-point conditioning.
"""

import numpy as np

from .contrasts import conditional_effect_row
from .core import AssignmentTable, default_spec, enumerate_subsets
from .estimation import moment_estimates
from .regression import (
    IDENTITY_RTOL,
    ModelSpec,
    additive_spec,
    build_design,
    closed_form_two_way_omitted_map,
    effective_additive_weights,
    omitted_algebra,
    ols_fit,
    rel_err,
    saturated_fit,
    saturated_spec,
    treatment_based_fit,
    unsaturated_fit,
    verify_omitted_relation,
    wls_fit,
)

EXACT_RTOL = 1e-10


def random_dataset(K, rng, min_cell=2, max_cell=8, balanced=False, cell_size=4):
    """Random completely randomized dataset with nonempty cells."""
    spec = default_spec(K)
    Q = spec.Q
    if balanced:
        sizes = np.full(Q, cell_size, dtype=np.int64)
    else:
        sizes = rng.integers(min_cell, max_cell + 1, size=Q)
    cells = rng.permutation(np.repeat(np.arange(Q), sizes))
    surface = rng.normal(0.0, 2.0, size=Q)
    outcome = surface[cells] + rng.normal(0.0, 1.0, size=cells.size)
    levels = ((cells[:, None] >> np.arange(K - 1, -1, -1)) & 1).astype(np.int64)
    return AssignmentTable(spec, levels, outcome)


def _record(err, tol=IDENTITY_RTOL):
    return {"max_rel_err": float(err), "tol": tol, "pass": bool(err <= tol)}


def run_identity_suite(K=3, seed=0, balanced=False, delta=None):
    """Run all identity checks; returns {identity: record}."""
    if K < 2:
        raise ValueError("the identity suite needs at least two factors")
    rng = np.random.default_rng(seed)
    records = {}

    # saturated-fit identities on a K-factor dataset
    data = random_dataset(K, rng, balanced=balanced)
    if delta is None:
        delta_k = rng.uniform(0.0, 1.0, size=K)
    else:
        delta_k = np.asarray(delta, dtype=np.float64)
    _, verification = saturated_fit(data, delta_k)
    records["saturated_coefficients"] = _record(verification["coef_rel_err"])
    records["saturated_covariance"] = _record(verification["cov_rel_err"])

    # treatment-based regression identities
    beta, v0 = treatment_based_fit(data)
    est = moment_estimates(data)
    records["treatment_based_coefficients"] = _record(rel_err(beta, est.y_hat), EXACT_RTOL)
    records["treatment_based_covariance"] = _record(
        rel_err(v0, np.diag((1.0 - 1.0 / est.counts) * est.v_hat)), EXACT_RTOL
    )

    # 2x2 strategy identities
    d22 = random_dataset(2, rng)
    base_fit, _ = saturated_fit(d22, np.zeros(2))
    e22 = moment_estimates(d22)
    rows = np.vstack(
        [
            conditional_effect_row((0,), (0,), 2),  # first-factor effect at level 0
            conditional_effect_row((1,), (0,), 2),  # second-factor effect at level 0
            conditional_effect_row((0, 1), (), 2),
        ]
    )
    records["baseline_shift_conditional"] = _record(
        rel_err(base_fit.coef_noint, rows @ e22.y_hat)
    )

    ebar = d22.assignment.mean(axis=0)
    emp_fit, _ = saturated_fit(d22, ebar)
    g0 = base_fit.coef_noint
    expected = np.array([g0[0] + ebar[1] * g0[2], g0[1] + ebar[0] * g0[2], g0[2]])
    records["empirical_shift_average_partial"] = _record(rel_err(emp_fit.coef_noint, expected))

    half_fit, _ = saturated_fit(d22, np.full(2, 0.5))
    signs = 2.0 * d22.assignment - 1.0
    Xs = np.column_stack(
        [np.ones(d22.N), signs[:, 0], signs[:, 1], signs[:, 0] * signs[:, 1]]
    )
    sign_fit = ols_fit(Xs, d22.outcome)
    scaled = sign_fit.coefficients[1:] * np.array([2.0, 2.0, 4.0])
    records["half_shift_sign_coding"] = _record(rel_err(half_fit.coef_noint, scaled))

    # additive-fit effective weights on 2x2
    add_fit = unsaturated_fit(d22, additive_spec(rng.uniform(0.0, 1.0, 2)))
    e_z = np.bincount(d22.cell, minlength=4) / d22.N
    pi_first, pi_second = effective_additive_weights(e_z)
    tau_a = np.array(
        [
            conditional_effect_row((0,), (b,), 2) @ e22.y_hat
            for b in (0, 1)
        ]
    )
    tau_b = np.array(
        [
            conditional_effect_row((1,), (a,), 2) @ e22.y_hat
            for a in (0, 1)
        ]
    )
    expected = np.array([pi_second @ tau_a, pi_first @ tau_b])
    records["additive_effective_weights"] = _record(
        rel_err(add_fit.coef_noint, expected), EXACT_RTOL
    )

    # closed-form omitted map on 2^3, main effects plus two-way interactions
    d23 = random_dataset(3, rng)
    delta3 = rng.uniform(0.0, 1.0, 3)
    spec23 = ModelSpec(delta3, tuple(t for t in enumerate_subsets(3) if len(t) <= 2))
    design23 = build_design(d23, spec23)
    d_vec = omitted_algebra(design23).d.ravel()
    e3 = np.bincount(d23.cell, minlength=8) / d23.N
    records["two_way_closed_form_map"] = _record(
        rel_err(d_vec, closed_form_two_way_omitted_map(e3, delta3))
    )

    # unsaturated/saturated relation with a random included set
    all_terms = enumerate_subsets(K)
    n_terms = int(rng.integers(1, len(all_terms)))
    chosen = sorted(
        rng.choice(len(all_terms), size=n_terms, replace=False).tolist()
    )
    spec_rand = ModelSpec(delta_k, tuple(all_terms[i] for i in chosen))
    report = verify_omitted_relation(data, spec_rand)
    records["omitted_term_relation"] = _record(report["relation_rel_err"])

    # balanced design with half shifts: no correction at all
    bal = random_dataset(K, rng, balanced=True)
    spec_bal = ModelSpec(np.full(K, 0.5), spec_rand.terms)
    rep_bal = verify_omitted_relation(bal, spec_bal)
    records["balanced_half_shift"] = _record(
        rel_err(rep_bal["unsaturated_coef"], rep_bal["saturated_plus_coef"]), EXACT_RTOL
    )

    # weighted fit drops the balance requirement
    spec_unbal = ModelSpec(np.full(K, 0.5), spec_rand.terms)
    sat_unbal, _ = saturated_fit(data, np.full(K, 0.5))
    plus_idx = [all_terms.index(t) for t in spec_unbal.terms]
    wfit = wls_fit(data, spec_unbal)
    records["wls_unsaturated_match"] = _record(
        rel_err(wfit.coef_noint, sat_unbal.coef_noint[plus_idx])
    )
    wsat = wls_fit(data, saturated_spec(np.full(K, 0.5)))
    records["wls_saturated_match"] = _record(
        rel_err(wsat.coef_noint, sat_unbal.coef_noint)
    )

    return records


def suite_passed(records):
    return all(r["pass"] for r in records.values())
