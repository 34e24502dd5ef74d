"""Location-shifted factor-based least squares with HC0 robust covariance.

A model is specified by per-factor location shifts delta and a set of
included interaction terms.  The saturated fit reproduces the moment
estimator of the general effects under the product weighting scheme built
from delta; unsaturated fits relate to the saturated coefficients through
the omitted-term coefficient matrix (the column-wise regression of the
omitted design columns on the included ones).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .contrasts import contrast_matrix
from .core import cell_summary, enumerate_subsets
from .errors import IdentityViolationError, RankDeficientError
from .estimation import RANK_RTOL, moment_estimates
from .weighting import ShiftVector, product_scheme

IDENTITY_RTOL = 1e-8
IDENTITY_ATOL = 1e-12


def rel_err(actual, expected):
    """Max elementwise error relative to the scale of ``expected``."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(float(np.max(np.abs(expected), initial=0.0)), IDENTITY_ATOL / IDENTITY_RTOL)
    return float(np.max(np.abs(actual - expected), initial=0.0)) / scale


@dataclass(frozen=True)
class ModelSpec:
    """Location shifts plus the interaction terms included beyond the intercept."""

    delta: ShiftVector
    terms: tuple  # tuple of factor-index tuples, canonical order

    def __post_init__(self):
        if not isinstance(self.delta, ShiftVector):
            object.__setattr__(self, "delta", ShiftVector(np.asarray(self.delta, float)))
        K = self.delta.K
        allowed = set(enumerate_subsets(K))
        terms = tuple(tuple(sorted(t)) for t in self.terms)
        if not terms:
            raise ValueError("terms must be nonempty")
        if len(set(terms)) != len(terms):
            raise ValueError("duplicate terms")
        for t in terms:
            if t not in allowed:
                raise ValueError(f"invalid term {t} for K={K}")
        # keep canonical (cardinality, lexicographic) order
        terms = tuple(sorted(terms, key=lambda t: (len(t), t)))
        object.__setattr__(self, "terms", terms)

    @property
    def K(self):
        return self.delta.K

    @property
    def saturated(self):
        return len(self.terms) == 2 ** self.K - 1


def saturated_spec(delta):
    delta = delta if isinstance(delta, ShiftVector) else ShiftVector(np.asarray(delta, float))
    return ModelSpec(delta, tuple(enumerate_subsets(delta.K)))


def additive_spec(delta):
    delta = delta if isinstance(delta, ShiftVector) else ShiftVector(np.asarray(delta, float))
    return ModelSpec(delta, tuple((k,) for k in range(delta.K)))


@dataclass(frozen=True)
class DesignMatrix:
    """Full, included, and omitted design columns for a model spec."""

    spec: ModelSpec
    full: np.ndarray  # N x 2^K, intercept first, then all terms canonically
    included: np.ndarray  # N x (1 + #terms), intercept first
    omitted: np.ndarray  # N x (2^K - 1 - #terms)
    included_pos: np.ndarray  # positions in the canonical term order
    omitted_pos: np.ndarray  # positions in the canonical term order


def build_design(data, spec):
    """Intercept plus shifted-product columns prod_{k in S}(Z_ik - delta_k)."""
    K = spec.K
    if data.spec.K != K:
        raise ValueError("data and model disagree on the number of factors")
    shifted = data.assignment.astype(np.float64) - spec.delta.delta
    subsets = enumerate_subsets(K)
    cols = [np.ones(data.N)]
    for s in subsets:
        cols.append(np.prod(shifted[:, list(s)], axis=1))
    full = np.column_stack(cols)
    included = set(spec.terms)
    is_plus = np.array([s in included for s in subsets])
    plus_pos, minus_pos = np.flatnonzero(is_plus), np.flatnonzero(~is_plus)
    return DesignMatrix(
        spec,
        full,
        full[:, np.concatenate([[0], 1 + plus_pos])],
        full[:, 1 + minus_pos],
        plus_pos,
        minus_pos,
    )


@dataclass(frozen=True)
class FitResult:
    """Least-squares output with HC0 sandwich covariance.

    ``coefficients[0]`` is the intercept; the remaining entries follow the
    model terms in canonical order.  ``robust_cov`` covers the full
    coefficient vector; ``robust_cov_noint`` drops the intercept row and
    column.
    """

    terms: tuple
    coefficients: np.ndarray
    residuals: np.ndarray
    robust_cov: np.ndarray

    @property
    def intercept(self):
        return float(self.coefficients[0])

    @property
    def coef_noint(self):
        return self.coefficients[1:]

    @property
    def robust_cov_noint(self):
        return self.robust_cov[1:, 1:]

    def to_dict(self, spec):
        labels = ["(Intercept)"] + [spec.subset_label(t) for t in self.terms]
        se = np.sqrt(np.clip(np.diag(self.robust_cov), 0.0, None))
        return {
            "coefficients": {
                lb: {"coefficient": float(c), "robust_se": float(s)}
                for lb, c, s in zip(labels, self.coefficients, se)
            },
            "robust_cov": self.robust_cov.tolist(),
        }


def _qr_solve(X):
    """Pivoted-QR least squares with a rank check.

    Returns ``(solve, gram_inverse)``: ``solve(rhs)`` gives the coefficients
    and ``gram_inverse()`` computes (X^T X)^{-1} from the same factors.
    Raises RankDeficientError when the numerical rank at the relative
    tolerance falls short of the column count.
    """
    n, p = X.shape
    if n < p:
        raise RankDeficientError(f"{n} rows cannot identify {p} coefficients")
    Q, R, piv = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0 or (diag < RANK_RTOL * diag[0]).any():
        raise RankDeficientError("design matrix is rank deficient")
    inv_perm = np.empty(p, dtype=np.intp)
    inv_perm[piv] = np.arange(p)

    def solve(rhs):
        beta = linalg.solve_triangular(R, Q.T @ rhs)
        return beta[inv_perm]

    def gram_inverse():
        r_inv = linalg.solve_triangular(R, np.eye(p))
        return (r_inv @ r_inv.T)[np.ix_(inv_perm, inv_perm)]

    return solve, gram_inverse


def _hc0(X, resid, gram_inv):
    meat = X.T @ (X * (resid ** 2)[:, None])
    return gram_inv @ meat @ gram_inv


def ols_fit(X, y, terms=()):
    """Plain least squares on an explicit design matrix, with HC0."""
    solve, gram_inverse = _qr_solve(X)
    beta = solve(y)
    resid = y - X @ beta
    return FitResult(tuple(terms), beta, resid, _hc0(X, resid, gram_inverse()))


def treatment_based_fit(data, check_tol=1e-8):
    """OLS of Y on the Q cell indicators without intercept, with HC0.

    Numerically this reproduces the moment route: the coefficients equal
    the cell means and the HC0 covariance equals diag(1 - 1/N_z) Vhat.
    Both identities are asserted; a violation signals an implementation
    bug.  Returns (coefficients, HC0 covariance).
    """
    est = moment_estimates(data)
    X = np.zeros((data.N, data.spec.Q))
    X[np.arange(data.N), data.cell] = 1.0
    fit = ols_fit(X, data.outcome)
    if rel_err(fit.coefficients, est.y_hat) > check_tol:
        raise IdentityViolationError("treatment-based coefficients != cell means")
    expected_v0 = np.diag((1.0 - 1.0 / est.counts) * est.v_hat)
    if rel_err(fit.robust_cov, expected_v0) > check_tol:
        raise IdentityViolationError("treatment-based HC0 != diag(1-1/N_z) Vhat")
    return fit.coefficients, fit.robust_cov


def saturated_fit(data, delta):
    """Saturated location-shifted fit, verified against the moment route.

    Returns (fit, verification) where verification records the max relative
    errors of the two coefficient/covariance identities against the moment
    estimator under the product scheme built from delta.  The covariance
    identity needs N_z >= 2 in every cell and is skipped (recorded as None)
    otherwise.
    """
    spec = saturated_spec(delta)
    design = build_design(data, spec)
    fit = ols_fit(design.included, data.outcome, spec.terms)
    G = contrast_matrix(product_scheme(spec.delta), spec.K).matrix
    summary = cell_summary(data, variances=False)
    verification = {
        "coef_rel_err": rel_err(fit.coef_noint, G @ summary.means),
        "cov_rel_err": None,
    }
    ok = verification["coef_rel_err"] <= IDENTITY_RTOL
    if (summary.counts >= 2).all():
        v_hat = summary.variances / summary.counts
        psi = (G * v_hat) @ G.T - (G * (v_hat / summary.counts)) @ G.T
        verification["cov_rel_err"] = rel_err(fit.robust_cov_noint, psi)
        ok = ok and verification["cov_rel_err"] <= IDENTITY_RTOL
    if not ok:
        raise IdentityViolationError(
            f"saturated-fit identities violated: {verification}"
        )
    return fit, verification


def unsaturated_fit(data, spec):
    """Least squares on the included terms only, with HC0."""
    design = build_design(data, spec)
    return ols_fit(design.included, data.outcome, spec.terms)


def wls_fit(data, spec):
    """Weighted least squares with unit weights 1/N_{Z_i}.

    Ordinary least squares on rows scaled by sqrt(w_i).  HC0 on those rows
    is the weighted sandwich with meat sum_i w_i^2 r_i^2 x_i x_i^T; the
    returned residuals are the unscaled y - X beta.
    """
    counts = np.bincount(data.cell, minlength=data.spec.Q)
    sw = np.sqrt(1.0 / counts[data.cell].astype(np.float64))
    X = build_design(data, spec).included
    fit = ols_fit(X * sw[:, None], data.outcome * sw, spec.terms)
    return replace(fit, residuals=data.outcome - X @ fit.coefficients)


@dataclass(frozen=True)
class OmittedTermAlgebra:
    """Column-wise regression of the omitted design columns on the included.

    ``phi`` includes the intercept row; ``d`` drops it and maps omitted
    saturated coefficients into the unsaturated ones.
    """

    phi: np.ndarray  # (1 + #included) x #omitted
    residual_matrix: np.ndarray  # N x #omitted
    d: np.ndarray  # #included x #omitted


def omitted_algebra(design):
    """Phi, the residual matrix, and D for a given design.

    Needs only the included columns to have full rank; the residual matrix
    may be rank deficient.  Phi is a deterministic function of the cell
    proportions alone, so it is unchanged when every unit is duplicated.
    """
    if design.omitted.shape[1] == 0:
        raise ValueError("model is saturated; nothing is omitted")
    solve, _ = _qr_solve(design.included)
    phi = solve(design.omitted)
    resid = design.omitted - design.included @ phi
    return OmittedTermAlgebra(phi, resid, phi[1:, :])


def verify_omitted_relation(data, spec):
    """Check the unsaturated/saturated coefficient relation and its criteria.

    Builds the design once, solves the saturated coefficients on all its
    columns and fits the unsaturated model on the included ones.  Reports
    the max relative error of
    ``coef(unsaturated) = coef(saturated, included) + D @ coef(saturated, omitted)``
    together with the two sufficient orthogonality conditions and the exact
    vanishing criterion ``F_+^T (F_- - mean F_-) gamma_-`` for the correction
    term.  By Frisch-Waugh-Lovell the saturated omitted coefficients
    ``gamma_-`` equal ``(R^T R)^{-1} R^T y`` for the residual matrix R of the
    omitted columns on the included ones, so the criterion reuses them.
    As rank([F_+ F_-]) = rank(F_+) + rank(R), the rank check of the full
    design also guards R.  The unsaturated ``FitResult`` is under ``fit``.
    """
    design = build_design(data, spec)
    gamma = _qr_solve(design.full)[0](data.outcome)[1:]
    uns_fit = ols_fit(design.included, data.outcome, spec.terms)
    algebra = omitted_algebra(design)

    gamma_plus = gamma[design.included_pos]
    gamma_minus = gamma[design.omitted_pos]
    predicted = gamma_plus + algebra.d @ gamma_minus

    F_plus = design.included
    F_minus = design.omitted
    centered_minus = F_minus - F_minus.mean(axis=0)
    report = {
        "fit": uns_fit,
        "relation_rel_err": rel_err(uns_fit.coef_noint, predicted),
        "correction": algebra.d @ gamma_minus,
        "orthogonal_raw": float(np.abs(F_plus.T @ F_minus).max()),
        "orthogonal_centered": float(np.abs(F_plus.T @ centered_minus).max()),
        "exact_criterion": F_plus[:, 1:].T @ centered_minus @ gamma_minus,
        "unsaturated_coef": uns_fit.coef_noint,
        "saturated_plus_coef": gamma_plus,
        "saturated_minus_coef": gamma_minus,
        "d": algebra.d,
    }
    report["pass"] = report["relation_rel_err"] <= IDENTITY_RTOL
    return report


def effective_additive_weights(proportions):
    """Weighting vectors targeted by the additive fit in a 2x2 experiment.

    Returns ``(pi_first, pi_second)``.  The additive coefficient of the
    first factor is ``pi_second`` applied to its conditional effects at the
    two levels of the second factor; the coefficient of the second factor
    is ``pi_first`` applied to its conditional effects at the two levels of
    the first.  Both depend only on the cell proportions e_z, not on the
    location shifts.
    """
    e = np.asarray(proportions, dtype=np.float64)
    if e.shape != (4,):
        raise ValueError("expected 4 cell proportions, order (00),(01),(10),(11)")
    inv = 1.0 / e
    sigma = inv.sum()
    pi_second = np.array([inv[1] + inv[3], inv[0] + inv[2]]) / sigma
    pi_first = np.array([inv[2] + inv[3], inv[0] + inv[1]]) / sigma
    return pi_first, pi_second


def closed_form_two_way_omitted_map(proportions, delta):
    """Closed-form D for the main-plus-two-way model in a 2^3 experiment.

    ``proportions`` are the 8 cell proportions in canonical order and
    ``delta`` the 3 location shifts; returns the length-6 vector mapping the
    omitted three-way coefficient into the six included ones.
    """
    e = np.asarray(proportions, dtype=np.float64)
    if e.shape != (8,):
        raise ValueError("expected 8 cell proportions")
    dA, dB, dC = np.asarray(delta, dtype=np.float64)
    inv = 1.0 / e
    sigma = inv.sum()
    # cell index for (a,b,c) is 4a + 2b + c
    v = np.array(
        [
            -(inv[0] + inv[4]),  # sum over a of 1/e(a00)
            -(inv[0] + inv[2]),  # sum over b of 1/e(0b0)
            -(inv[0] + inv[1]),  # sum over c of 1/e(00c)
            inv[0] + inv[2] + inv[4] + inv[6],  # sum over ab of 1/e(ab0)
            inv[0] + inv[1] + inv[4] + inv[5],  # sum over ac of 1/e(a0c)
            inv[0] + inv[1] + inv[2] + inv[3],  # sum over bc of 1/e(0bc)
        ]
    )
    upper = np.array([[dB, dC, 0.0], [dA, 0.0, dC], [0.0, dA, dB]])
    M = np.block([[np.eye(3), upper], [np.zeros((3, 3)), np.eye(3)]])
    w = np.array([dB * dC, dA * dC, dA * dB, dC, dB, dA])
    return M @ v / sigma - w
