import numpy as np
import pytest

from scipy import stats

from factorial2k import (
    AssignmentTable,
    cell_summary,
    default_spec,
    effect_estimates,
    empirical_scheme,
    equal_scheme,
    moment_estimates,
    product_scheme,
    treatment_based_fit,
)
from factorial2k.errors import EmptyCellError, SingletonCellError
from factorial2k.estimation import chi2_sf, normal_quantile
from factorial2k.verify import random_dataset

from conftest import make_dataset


def test_moment_estimates_balanced_example(balanced_2x2):
    est = moment_estimates(balanced_2x2)
    np.testing.assert_allclose(est.y_hat, [2.0, 3.0, 6.0, 8.0])
    # within-cell variances (2,2,2,8) over N_z = 2
    np.testing.assert_allclose(est.v_hat, [1.0, 1.0, 1.0, 4.0])


def test_moment_estimates_constant_outcomes():
    data = make_dataset(2, [2, 2, 2, 2], lambda c, rng: 5.0)
    est = moment_estimates(data)
    np.testing.assert_allclose(est.v_hat, np.zeros(4))


def test_moment_estimates_duplication_halves_vhat(balanced_2x2):
    est = moment_estimates(balanced_2x2)
    doubled = AssignmentTable(
        balanced_2x2.spec,
        np.vstack([balanced_2x2.assignment] * 2),
        np.concatenate([balanced_2x2.outcome] * 2),
    )
    est2 = moment_estimates(doubled)
    # duplication doubles N_z and rescales the unbiased variance by
    # 2(n-1)/(2n-1); with n = 2 per cell the entries shrink to a third
    np.testing.assert_allclose(est2.v_hat, est.v_hat / 3)


def test_moment_estimates_errors():
    data = make_dataset(2, [2, 2, 2, 1], lambda c, rng: float(c))
    with pytest.raises(SingletonCellError):
        moment_estimates(data)
    spec = default_spec(2)
    partial = AssignmentTable(spec, np.array([[0, 0], [0, 0]]), np.array([1.0, 2.0]))
    with pytest.raises(EmptyCellError):
        moment_estimates(partial)


def test_effect_estimates_balanced_example(balanced_2x2):
    rep = effect_estimates(balanced_2x2, equal_scheme(2))
    np.testing.assert_allclose(rep.estimate, [4.5, 1.5, 1.0])
    assert rep.labels == ("A", "B", "A:B")


def test_ci_half_width_normal_quantile(balanced_2x2):
    rep = effect_estimates(balanced_2x2, equal_scheme(2), alpha=0.05)
    np.testing.assert_allclose(rep.ci_half_width, 1.959964 * rep.se, rtol=1e-6)
    np.testing.assert_allclose(rep.ci_high - rep.estimate, rep.ci_half_width)


def test_baseline_scheme_gives_conditional_estimator(balanced_2x2):
    rep = effect_estimates(balanced_2x2, product_scheme([0.0, 0.0]))
    est = moment_estimates(balanced_2x2)
    # main effect of the first factor at baseline of the second
    assert np.isclose(rep.estimate[0], est.y_hat[2] - est.y_hat[0])


def test_covariance_psd_random_data():
    rng = np.random.default_rng(31)
    for K in (2, 3):
        data = random_dataset(K, rng)
        rep = effect_estimates(data, equal_scheme(K))
        eig = np.linalg.eigvalsh(rep.covariance)
        assert eig.min() >= -1e-10 * max(eig.max(), 1.0)


def test_report_invariant_to_row_permutation():
    rng = np.random.default_rng(32)
    data = random_dataset(2, rng)
    perm = rng.permutation(data.N)
    shuffled = AssignmentTable(
        data.spec, data.assignment[perm], data.outcome[perm]
    )
    r1 = effect_estimates(data, equal_scheme(2))
    r2 = effect_estimates(shuffled, equal_scheme(2))
    np.testing.assert_allclose(r1.estimate, r2.estimate, atol=1e-12)
    np.testing.assert_allclose(r1.covariance, r2.covariance, atol=1e-12)


def test_joint_test_chisquare(balanced_2x2):
    rep = effect_estimates(balanced_2x2, equal_scheme(2))
    full = rep.joint_test()
    assert full["df"] == 3
    assert full["statistic"] > 0
    sub = rep.joint_test(["A:B"])
    assert sub["df"] == 1
    assert np.isclose(sub["statistic"], rep.z_stat[2] ** 2)


def test_joint_test_degenerate_scheme(balanced_2x2):
    # point-mass weights give a singular covariance; pinv rank must drop
    rep = effect_estimates(balanced_2x2, product_scheme([0.0, 0.0]))
    out = rep.joint_test()
    assert out["df"] <= 3


def test_report_serialization(balanced_2x2):
    d = effect_estimates(balanced_2x2, equal_scheme(2)).to_dict()
    assert set(d["effects"]) == {"A", "B", "A:B"}
    assert d["effects"]["A"]["estimate"] == 4.5



def _scheme(name, data, rng):
    K = data.spec.K
    if name == "equal":
        return equal_scheme(K)
    if name == "empirical":
        return empirical_scheme(cell_summary(data))
    return product_scheme(rng.uniform(0.0, 1.0, size=K))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("scheme", ["equal", "empirical", "product"])
def test_se_is_root_diagonal_of_covariance(K, scheme):
    # the SEs come from (G o G) Vhat without forming G Vhat G^T
    rng = np.random.default_rng(140 + K)
    data = random_dataset(K, rng)
    rep = effect_estimates(data, _scheme(scheme, data, rng))
    se = rep.se
    assert "covariance" not in vars(rep)
    np.testing.assert_allclose(se, np.sqrt(np.diag(rep.covariance)), rtol=1e-13, atol=0)


def test_default_to_dict_forms_no_covariance(balanced_2x2):
    rep = effect_estimates(balanced_2x2, equal_scheme(2))
    assert "covariance" not in rep.to_dict()
    assert "covariance" not in vars(rep)
    full = rep.to_dict(covariance=True)
    assert "covariance" in vars(rep)
    assert full["covariance"] == rep.covariance.tolist()


@pytest.mark.parametrize("K", [2, 3, 4])
def test_joint_test_matches_explicit_wald_statistic(K):
    # oracle: est^T (G diag(Vhat) G^T)^{-1} est against chi-square(df)
    rng = np.random.default_rng(150 + K)
    data = random_dataset(K, rng)
    rep = effect_estimates(data, equal_scheme(K))
    est = moment_estimates(data)
    cov = rep.G @ np.diag(est.v_hat) @ rep.G.T
    for labels in (None, list(rep.labels[:K]), [rep.labels[-1]]):
        idx = [rep.labels.index(lb) for lb in (labels or rep.labels)]
        tau = rep.estimate[idx]
        statistic = tau @ np.linalg.solve(cov[np.ix_(idx, idx)], tau)
        out = rep.joint_test(labels)
        assert out["df"] == len(idx)
        assert out["statistic"] == pytest.approx(statistic, rel=1e-10)
        assert out["p_value"] == pytest.approx(stats.chi2.sf(statistic, len(idx)), rel=1e-8)


def test_normal_quantile_matches_scipy():
    special = pytest.importorskip("scipy.special")
    p = 1.0 - np.linspace(1e-6, 1.0 - 1e-6, 2001) / 2.0
    ours = np.array([normal_quantile(q) for q in p])
    np.testing.assert_allclose(ours, special.ndtri(p), rtol=1e-14, atol=0)


@pytest.mark.parametrize("df", [*range(1, 80), 127, 255, 511, 1023, 2047, 4095])
def test_chi2_sf_matches_scipy(df):
    special = pytest.importorskip("scipy.special")
    x = np.geomspace(1e-6, 10 * df + 2000, 200)
    ref = special.chdtrc(df, x)
    ours = np.array([chi2_sf(df, float(v)) for v in x])
    keep = ref > 1e-290
    assert keep.sum() > 50
    np.testing.assert_allclose(ours[keep], ref[keep], rtol=1e-11, atol=0)
    assert chi2_sf(df, 0.0) == chi2_sf(df, -3.0) == 1.0
    assert chi2_sf(df, float("inf")) == 0.0


def test_treatment_based_fit_balanced(balanced_2x2):
    beta, v0 = treatment_based_fit(balanced_2x2)
    np.testing.assert_allclose(beta, [2.0, 3.0, 6.0, 8.0])
    est = moment_estimates(balanced_2x2)
    # all N_z = 2, so the HC0 covariance is half of Vhat
    np.testing.assert_allclose(np.diag(v0), est.v_hat / 2)


def test_treatment_based_fit_constant_outcomes():
    data = make_dataset(2, [3, 3, 3, 3], lambda c, rng: 1.0)
    beta, v0 = treatment_based_fit(data)
    np.testing.assert_allclose(v0, np.zeros((4, 4)), atol=1e-14)


def test_treatment_based_identities_random():
    rng = np.random.default_rng(33)
    for K in (1, 2, 3):
        data = random_dataset(K, rng)
        beta, v0 = treatment_based_fit(data)
        est = moment_estimates(data)
        scale = np.abs(est.y_hat).max()
        assert np.abs(beta - est.y_hat).max() <= 1e-10 * scale
        expected = np.diag((1 - 1 / est.counts) * est.v_hat)
        vscale = max(np.abs(expected).max(), 1e-12)
        assert np.abs(v0 - expected).max() <= 1e-10 * vscale
