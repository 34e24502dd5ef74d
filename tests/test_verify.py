import numpy as np
import pytest

from factorial2k import run_identity_suite, suite_passed
from factorial2k.verify import random_dataset


EXPECTED_NAMES = {
    "saturated_coefficients",
    "saturated_covariance",
    "treatment_based_coefficients",
    "treatment_based_covariance",
    "baseline_shift_conditional",
    "empirical_shift_average_partial",
    "half_shift_sign_coding",
    "additive_effective_weights",
    "two_way_closed_form_map",
    "omitted_term_relation",
    "balanced_half_shift",
    "wls_unsaturated_match",
    "wls_saturated_match",
}


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_suite_passes_random_data(seed):
    records = run_identity_suite(K=3, seed=seed)
    assert set(records) == EXPECTED_NAMES
    assert suite_passed(records)
    for name, rec in records.items():
        assert rec["max_rel_err"] <= rec["tol"], name


def test_suite_balanced_and_k4():
    assert suite_passed(run_identity_suite(K=3, seed=5, balanced=True))
    assert suite_passed(run_identity_suite(K=4, seed=6))


def test_suite_explicit_delta():
    records = run_identity_suite(K=2, seed=7, delta=np.array([0.2, 0.9]))
    assert suite_passed(records)


def test_perturb_negative_control(monkeypatch):
    import factorial2k.verify as verify

    fit_exactly = verify.saturated_fit

    def perturbed(data, delta):
        fit, verification = fit_exactly(data, delta)
        return fit, {**verification, "coef_rel_err": verification["coef_rel_err"] + 1e-3}

    monkeypatch.setattr(verify, "saturated_fit", perturbed)
    records = run_identity_suite(K=3, seed=0)
    assert not suite_passed(records)
    assert not records["saturated_coefficients"]["pass"]


def test_suite_rejects_single_factor():
    with pytest.raises(ValueError):
        run_identity_suite(K=1)


def test_random_dataset_shapes():
    rng = np.random.default_rng(9)
    data = random_dataset(3, rng)
    assert data.assignment.shape[1] == 3
    counts = np.bincount(data.cell, minlength=8)
    assert counts.min() >= 2
    balanced = random_dataset(2, rng, balanced=True, cell_size=5)
    assert np.array_equal(np.bincount(balanced.cell, minlength=4), [5, 5, 5, 5])
