"""Location-shifted factor-based least squares with HC0 robust covariance.

A model is specified by per-factor location shifts delta and a set of
included interaction terms.  The saturated fit reproduces the moment
estimator of the general effects under the product weighting scheme built
from delta; unsaturated fits relate to the saturated coefficients through
the omitted-term coefficient matrix (the column-wise regression of the
omitted design columns on the included ones).  Every fit runs on the 2^K
cell rows of the design, weighted by the cell counts: the saturated rows are
square and inverted in closed form as a Kronecker product, any other model
is solved by one pivoted QR.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .contrasts import contrast_matrix
from .core import enumerate_subsets, enumerate_treatments
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
    """Design rows x_z, one per cell; the unit-level matrices index them by cell."""

    spec: ModelSpec
    rows: np.ndarray  # 2^K x 2^K, intercept first, then all terms canonically
    included_rows: np.ndarray  # 2^K x (1 + #terms), intercept first
    omitted_rows: np.ndarray  # 2^K x (2^K - 1 - #terms)
    included_pos: np.ndarray  # positions in the canonical term order
    omitted_pos: np.ndarray  # positions in the canonical term order
    cell: np.ndarray  # (N,) cell index per unit

    @property
    def included(self):
        return self.included_rows[self.cell]


def _cell_rows(spec):
    """Cell rows of the model: all, included and omitted columns, and their term positions.

    Intercept plus shifted-product columns prod_{k in S}(z_k - delta_k), one
    row per cell; they depend on the shifts and K alone.
    """
    K = spec.K
    shifted = np.array(enumerate_treatments(K), dtype=np.float64) - spec.delta.delta
    subsets = enumerate_subsets(K)
    rows = np.column_stack(
        [np.ones(2 ** K)] + [np.prod(shifted[:, list(s)], axis=1) for s in subsets]
    )
    included = set(spec.terms)
    is_plus = np.array([s in included for s in subsets])
    plus_pos, minus_pos = np.flatnonzero(is_plus), np.flatnonzero(~is_plus)
    included_rows = rows[:, np.concatenate([[0], 1 + plus_pos])]
    return rows, included_rows, rows[:, 1 + minus_pos], plus_pos, minus_pos


def build_design(data, spec):
    """The model's cell rows with each unit's cell."""
    if data.spec.K != spec.K:
        raise ValueError("data and model disagree on the number of factors")
    return DesignMatrix(spec, *_cell_rows(spec), data.cell)


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

    def to_dict(self, spec, covariance=False):
        """Coefficients with robust SEs; the full ``robust_cov`` only on request."""
        labels = ["(Intercept)"] + [spec.subset_label(t) for t in self.terms]
        se = np.sqrt(np.clip(np.diag(self.robust_cov), 0.0, None))
        out = {
            "coefficients": {
                lb: {"coefficient": float(c), "robust_se": float(s)}
                for lb, c, s in zip(labels, self.coefficients, se)
            },
        }
        if covariance:
            out["robust_cov"] = self.robust_cov.tolist()
        return out


def _qr_solve(X, weights):
    """Weighted least-squares coefficient map A = (X^T W X)^{-1} X^T W.

    One pivoted QR of ``sqrt(weights) * X`` gives ``A[piv] = R^{-1} Q^T
    sqrt(W)``, so the coefficients of any right-hand side y are ``A @ y``.
    Raises RankDeficientError when the numerical rank at the relative
    tolerance falls short of the column count.
    """
    n, p = X.shape
    if n < p:
        raise RankDeficientError(f"{n} rows cannot identify {p} coefficients")
    sw = np.sqrt(weights)
    Q, R, piv = linalg.qr((X.T * sw).T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0 or (diag < RANK_RTOL * diag[0]).any():
        raise RankDeficientError("design matrix is rank deficient")
    A = np.empty((p, n))
    A[piv] = linalg.solve_triangular(R, Q.T * sw)
    return A


def _sandwich(M, v):
    """``M diag(v) M^T`` for v >= 0, as one symmetric product ``B B^T`` with B = M sqrt(v)."""
    B = M * np.sqrt(v)
    return B @ B.T


def _wls(A, rows, counts, means, ss, terms=()):
    """Least squares on cell rows with HC0, the kernel of every fit.

    ``A`` is the coefficient map of the cell rows x_z, weighted by N_z w_z:
    the N_z units of cell z share x_z and the per-unit weight w_z, with mean
    ybar_z and within-cell sum of squares SS_z.  Then beta = A ybar and
    HC0 = A diag(RSS_z / N_z^2) A^T with RSS_z = SS_z + N_z (ybar_z -
    x_z^T beta)^2; column z of A is N_z w_z (X^T W X)^{-1} x_z, so the
    weights cancel, and an empty cell contributes nothing.
    """
    beta = A @ means
    rss = ss + counts * (means - rows @ beta) ** 2
    return FitResult(tuple(terms), beta, _sandwich(A, rss / np.maximum(counts, 1) ** 2))


def ols_fit(X, y):
    """Plain least squares with HC0 on an explicit design matrix, each row its own cell."""
    return _wls(_qr_solve(X, 1.0), X, 1.0, np.asarray(y, dtype=np.float64), 0.0)


def treatment_based_fit(data):
    """OLS of Y on the Q cell indicators without intercept, with HC0.

    Numerically this reproduces the moment route: the coefficients equal
    the cell means and the HC0 covariance equals diag(1 - 1/N_z) Vhat.
    Both identities are asserted; a violation signals an implementation
    bug.  Returns (coefficients, HC0 covariance).
    """
    est = moment_estimates(data)
    fit = ols_fit(np.eye(data.spec.Q)[data.cell], data.outcome)
    if rel_err(fit.coefficients, est.y_hat) > IDENTITY_RTOL:
        raise IdentityViolationError("treatment-based coefficients != cell means")
    expected_v0 = np.diag((1.0 - 1.0 / est.counts) * est.v_hat)
    if rel_err(fit.robust_cov, expected_v0) > IDENTITY_RTOL:
        raise IdentityViolationError("treatment-based HC0 != diag(1-1/N_z) Vhat")
    return fit.coefficients, fit.robust_cov


def _saturated_map(delta, counts):
    """Coefficient map of the saturated fit: the inverse of its square cell rows.

    In bitmask order (factor k on bit K-1-k, as in the cell index) the
    saturated cell rows are ``X = kron_k [[1, -delta_k], [1, 1 - delta_k]]``,
    so ``X^{-1} = kron_k [[1 - delta_k, delta_k], [-1, 1]]``, the Yates map
    of the product scheme; its rows are put in intercept-then-canonical
    term order.  The count weights cancel in a square system, but an empty
    cell leaves its row without units and the model unidentified.
    """
    if not (counts > 0).all():
        raise RankDeficientError("an empty cell leaves the saturated model unidentified")
    A = np.ones((1, 1))
    for d in delta:
        A = np.kron(A, [[1.0 - d, d], [-1.0, 1.0]])
    K = len(delta)
    masks = [sum(1 << (K - 1 - k) for k in s) for s in enumerate_subsets(K)]
    return A[[0] + masks]


def saturated_fit(data, delta):
    """Saturated location-shifted fit, verified against the moment route.

    Returns (fit, verification) where verification records the max relative
    errors of the two coefficient/covariance identities against the moment
    estimator under the product scheme built from delta.  The covariance
    identity needs N_z >= 2 in every cell and is skipped (recorded as None)
    otherwise.  An empty cell raises RankDeficientError.  The fit comes from
    the Kronecker inverse of the cell rows and the check from the sign
    formula of G, two independent derivations.
    """
    spec = saturated_spec(delta)
    counts, means, ss = data.moments
    A = _saturated_map(spec.delta.delta, counts)
    # the fit interpolates every cell mean, so RSS_z = SS_z
    fit = FitResult(spec.terms, A @ means, _sandwich(A, ss / counts ** 2))
    del A  # Q x Q; freed before the check's Q x Q products
    G = contrast_matrix(product_scheme(spec.delta), spec.K).matrix
    verification = {"coef_rel_err": rel_err(fit.coef_noint, G @ means), "cov_rel_err": None}
    ok = verification["coef_rel_err"] <= IDENTITY_RTOL
    if (counts >= 2).all():
        # (1 - 1/N_z) Vhat_z = SS_z / N_z^2
        psi = _sandwich(G, ss / counts ** 2)
        verification["cov_rel_err"] = rel_err(fit.robust_cov_noint, psi)
        ok = ok and verification["cov_rel_err"] <= IDENTITY_RTOL
    if not ok:
        raise IdentityViolationError(f"saturated-fit identities violated: {verification}")
    return fit, verification


def unsaturated_fit(data, spec):
    """Least squares on the included terms only, with HC0."""
    counts, means, ss = data.moments
    rows = build_design(data, spec).included_rows
    A = _qr_solve(rows, counts)
    return _wls(A, rows, counts, means, ss, spec.terms)


def wls_fit(data, spec):
    """Weighted least squares with unit weights 1/N_{Z_i}, so each cell weighs one.

    HC0 is the weighted sandwich.
    """
    counts, means, ss = data.moments
    rows = build_design(data, spec).included_rows
    # the cell weight N_z w_z is one for every nonempty cell
    A = _qr_solve(rows, counts / np.maximum(counts, 1))
    return _wls(A, rows, counts, means, ss, spec.terms)


@dataclass(frozen=True)
class OmittedTermAlgebra:
    """Column-wise regression of the omitted design columns on the included.

    ``phi`` includes the intercept row; ``d`` drops it and maps omitted
    saturated coefficients into the unsaturated ones.
    """

    phi: np.ndarray  # (1 + #included) x #omitted
    d: np.ndarray  # #included x #omitted


def omitted_algebra(design):
    """Phi and D for a given design, by count-weighted cell rows.

    Phi = A_+ X_- is the coefficient map A_+ of the included rows applied
    to the omitted columns.  Needs only the included columns to have full
    rank.  Phi is a function of the cell proportions alone, so duplicating
    every unit keeps it.
    """
    if design.omitted_pos.size == 0:
        raise ValueError("model is saturated; nothing is omitted")
    counts = np.bincount(design.cell, minlength=design.rows.shape[0])
    phi = _qr_solve(design.included_rows, counts) @ design.omitted_rows
    return OmittedTermAlgebra(phi, phi[1:, :])


def verify_omitted_relation(data, spec):
    """Check the unsaturated/saturated coefficient relation and its criteria.

    Takes the saturated coefficients gamma from the Kronecker inverse of the
    cell rows and factors the included rows once, for the unsaturated fit
    (under ``fit``) and Phi.
    Reports the max relative error of
    ``coef(unsaturated) = coef(saturated, included) + D @ coef(saturated, omitted)``,
    the two sufficient orthogonality conditions and the exact vanishing
    criterion ``F_+^T (F_- - mean F_-) gamma_-``, with
    ``F_+^T F_- = X_+^T diag(N_z) X_-``.  As rank([F_+ F_-]) = rank(F_+) +
    rank(R) for the residual matrix R of F_- on F_+, and the full design has
    full rank exactly when no cell is empty, the empty-cell check also
    guards R.
    """
    design = build_design(data, spec)
    if design.omitted_pos.size == 0:
        raise ValueError("model is saturated; nothing is omitted")
    counts, means, ss = data.moments
    gamma = (_saturated_map(spec.delta.delta, counts) @ means)[1:]
    rows = design.included_rows
    A_plus = _qr_solve(rows, counts)
    uns_fit = _wls(A_plus, rows, counts, means, ss, spec.terms)
    d = (A_plus @ design.omitted_rows)[1:]
    gamma_plus, gamma_minus = gamma[design.included_pos], gamma[design.omitted_pos]

    # F_+^T as cell sums, and F_- centred at its count-weighted mean
    weighted_plus = rows.T * counts
    X_minus = design.omitted_rows
    centered_minus = X_minus - counts @ X_minus / counts.sum()
    report = {
        "fit": uns_fit,
        "relation_rel_err": rel_err(uns_fit.coef_noint, gamma_plus + d @ gamma_minus),
        "correction": d @ gamma_minus,
        "orthogonal_raw": float(np.abs(weighted_plus @ X_minus).max()),
        "orthogonal_centered": float(np.abs(weighted_plus @ centered_minus).max()),
        "exact_criterion": weighted_plus[1:] @ centered_minus @ gamma_minus,
        "unsaturated_coef": uns_fit.coef_noint,
        "saturated_plus_coef": gamma_plus,
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
