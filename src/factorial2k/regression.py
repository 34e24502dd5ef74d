"""Location-shifted factor-based least squares with HC0 robust covariance.

A model is specified by per-factor location shifts delta and a set of
included interaction terms.  The saturated fit reproduces the moment
estimator of the general effects under the product weighting scheme built
from delta; unsaturated fits relate to the saturated coefficients through
the omitted-term coefficient matrix (the column-wise regression of the
omitted design columns on the included ones): beta = J gamma with
J = (I, D).  Every fit runs on the 2^K cell rows of the design, weighted
by the cell counts, and reads the data only through its
``core.CellMoments``, which the kernel ``_wls`` takes whole (``ols_fit``
passes each unit as its own cell): the saturated rows are square and
inverted in closed form as a Kronecker product; any other model takes its
coefficient map from a QR factorization of its included rows and the SVD
of R, in numpy's LAPACK.  The saturated map A, the design's
transpose X^T and G are ``contrasts.FactorMap``s, applied in factor pairs
and never formed.  The omitted-term algebra is read off two maps alone,
the included rows' map A_+ and X^T: Phi = A_+ X_- is X^T applied to the
block A_+^T, D drops its intercept row, and J puts the identity on the
included columns.  ``_model_maps`` builds a model's included cell rows,
the only dense design columns (by ``_cell_rows``), and its X^T, for
``build_design`` and the exact covariance ordering alike; the dense
saturated map and HC0 covariance are formed only when they are read.
"""

from dataclasses import dataclass, field
from functools import cached_property
import random

import numpy as np

from .contrasts import FactorMap, contrast_matrix, effect_map
from .core import INTERCEPT_LABEL, CellMoments, canonical_masks, canonical_subsets
from .errors import IdentityViolationError, RankDeficientError
from .estimation import RANK_RTOL, moment_estimates
from .weighting import ShiftVector, product_scheme

IDENTITY_RTOL = 1e-8
IDENTITY_ATOL = 1e-12
# seeds the probe vector of the matrix-free saturated covariance check
PROBE_SEED = 0


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
        object.__setattr__(self, "delta", _shift_vector(self.delta))
        K = self.delta.K
        allowed = set(canonical_subsets(K))
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


def _shift_vector(delta):
    return delta if isinstance(delta, ShiftVector) else ShiftVector(np.asarray(delta, float))


def saturated_spec(delta):
    delta = _shift_vector(delta)
    return ModelSpec(delta, canonical_subsets(delta.K))


def additive_spec(delta):
    delta = _shift_vector(delta)
    return ModelSpec(delta, tuple((k,) for k in range(delta.K)))


def _term_order(K):
    """Subset bitmasks in coefficient order: the intercept (mask 0), then every term canonically."""
    return np.concatenate([[0], canonical_masks(K)])


def _row_factors(delta):
    """Per-factor cell rows ``[[1, -delta_k], [1, 1 - delta_k]]``; their Kronecker product is X.

    ``0.0 - d``, not ``-d``: a zero shift gives +0.0, as z_k - delta_k does.
    """
    return [np.array([[1.0, 0.0 - d], [1.0, 1.0 - d]]) for d in delta]


def _inverse_factors(delta):
    """Per-factor inverses ``[[1 - delta_k, delta_k], [-1, 1]]`` of the cell rows."""
    return [np.array([[1.0 - d, d], [-1.0, 1.0]]) for d in delta]


def _cell_rows(delta, masks):
    """Cell columns prod_{k in S}(z_k - delta_k), one row per cell, one column per bitmask S.

    The one builder of dense design columns, called for a model's included
    columns only; mask 0 is the intercept.  Each column is multiplied by
    z_k - delta_k for each factor k of its subset in ascending order, the
    products ``kron_k [[1, -delta_k], [1, 1 - delta_k]]`` forms, so every
    entry equals that dense array's bit for bit.
    """
    K = len(delta)
    cells = (np.arange(2 ** K)[:, None] >> np.arange(K - 1, -1, -1)) & 1
    shifted = cells - delta
    rows = np.ones((2 ** K, len(masks)))
    for k in range(K):
        holds = (masks >> (K - 1 - k)) & 1 == 1
        rows[:, holds] *= shifted[:, k : k + 1]
    return rows


def _model_maps(spec):
    """The model's included cell rows, intercept first, its included and omitted positions, and X^T.

    X^T is the transposed cell-row factors as a FactorMap whose rows are the
    intercept and the omitted columns: applied to a block it gives X_-^T
    times the block, and its transpose applied to ``(0, gamma_-)`` gives
    ``X_- gamma_-``; no omitted column is formed.
    """
    included = set(spec.terms)
    is_plus = np.array([s in included for s in canonical_subsets(spec.K)])
    plus_pos, minus_pos = np.flatnonzero(is_plus), np.flatnonzero(~is_plus)
    order, shifts = _term_order(spec.K), spec.delta.delta
    rows = _cell_rows(shifts, order[np.concatenate([[0], 1 + plus_pos])])
    design_t = FactorMap([F.T for F in _row_factors(shifts)], order[np.r_[0, 1 + minus_pos]])
    return rows, plus_pos, minus_pos, design_t


@dataclass(frozen=True)
class DesignMatrix:
    """Included design rows x_z, one per cell, and X^T; the unit-level matrix indexes the rows."""

    spec: ModelSpec
    included_rows: np.ndarray  # 2^K x (1 + #terms), intercept first
    included_pos: np.ndarray  # positions in the canonical term order
    omitted_pos: np.ndarray  # positions in the canonical term order
    design_t: FactorMap  # X^T over the intercept and the omitted columns
    cell: np.ndarray  # (N,) cell index per unit
    counts: np.ndarray  # (2^K,) units per cell

    @property
    def included(self):
        return self.included_rows[self.cell]


def build_design(data, spec):
    """The model's included cell rows and X^T with each unit's cell."""
    if data.spec.K != spec.K:
        raise ValueError("data and model disagree on the number of factors")
    return DesignMatrix(spec, *_model_maps(spec), data.cell, data.moments.counts)


@dataclass(frozen=True)
class FitResult:
    """Least-squares output with HC0 sandwich covariance.

    ``coefficients[0]`` is the intercept; the remaining entries follow the
    model terms in canonical order.  ``robust_var`` is the diagonal of the
    HC0 covariance; ``robust_cov``, formed by ``hc0`` when first read,
    covers the full coefficient vector, and ``robust_cov_noint`` drops the
    intercept row and column.
    """

    terms: tuple
    coefficients: np.ndarray
    robust_var: np.ndarray
    hc0: object = field(repr=False, compare=False)  # () -> the full HC0 covariance

    @cached_property
    def robust_cov(self):
        return self.hc0()

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
        if len(self.terms) == spec.Q - 1:  # saturated: every subset, canonically
            names = spec.effect_labels
        else:
            names = [spec.subset_label(t) for t in self.terms]
        labels = [INTERCEPT_LABEL, *names]
        se = np.sqrt(np.clip(self.robust_var, 0.0, None))
        out = {
            "coefficients": {
                lb: {"coefficient": c, "robust_se": s}
                for lb, c, s in zip(labels, self.coefficients.tolist(), se.tolist())
            },
        }
        if covariance:
            out["robust_cov"] = self.robust_cov.tolist()
        return out


def _coef_map(X, weights):
    """Weighted least-squares coefficient map A = (X^T W X)^{-1} X^T W.

    The thin SVD ``sqrt(weights) * X = U diag(sigma) V^T`` gives ``A = V
    diag(1/sigma) U^T sqrt(W)``, so the coefficients of any right-hand side
    y are ``A @ y``.  It is taken as a QR factorization ``sqrt(weights) * X
    = Q R`` and the SVD of the p x p R, ``U = Q U_R``: under OpenBLAS's
    default two threads on two cores, the SVD of the whole 256 x 37 design
    of a K=8 two-way model stalled for tens of milliseconds in up to 2% of
    calls, and the factored form did not.  Raises RankDeficientError when
    ``sigma_min < RANK_RTOL * sigma_max`` (or sigma_max is 0); as sigma_min
    <= min|R_ii| and sigma_max >= |R_11| for the R of any pivoted QR, this
    rejects every design that the QR diagonal test ``|R_ii| / |R_11|`` would.
    """
    n, p = X.shape
    if n < p:
        raise RankDeficientError(f"{n} rows cannot identify {p} coefficients")
    sw = np.sqrt(weights)
    Q, R = np.linalg.qr((X.T * sw).T)
    U, sigma, Vt = np.linalg.svd(R)
    if sigma[0] == 0.0 or sigma[-1] < RANK_RTOL * sigma[0]:
        raise RankDeficientError("design matrix is rank deficient")
    return (Vt.T / sigma) @ ((Q @ U).T * sw)


def _sandwich(M, v):
    """``M diag(v) M^T`` for v >= 0, as one symmetric product ``B B^T`` with B = M sqrt(v)."""
    B = M * np.sqrt(v)
    return B @ B.T


def _wls(A, rows, moments, terms=()):
    """Least squares on cell rows with HC0, the kernel of every fit.

    ``A`` is the coefficient map of the cell rows x_z, weighted by N_z w_z:
    the N_z units of cell z share x_z and the per-unit weight w_z, and
    ``moments`` holds their count N_z, mean ybar_z and within-cell sum of
    squares SS_z (a CellMoments).  Then beta = A ybar and
    HC0 = A diag(RSS_z / N_z^2) A^T with RSS_z = SS_z + N_z (ybar_z -
    x_z^T beta)^2; column z of A is N_z w_z (X^T W X)^{-1} x_z, so the
    weights cancel, and an empty cell contributes nothing.
    """
    counts, means, ss = moments
    beta = A @ means
    rss = ss + counts * (means - rows @ beta) ** 2
    cov = _sandwich(A, rss / np.maximum(counts, 1) ** 2)
    return FitResult(tuple(terms), beta, np.diag(cov).copy(), lambda: cov)


def ols_fit(X, y):
    """Plain least squares with HC0 on an explicit design matrix, each row its own cell."""
    return _wls(_coef_map(X, 1.0), X, CellMoments(1.0, np.asarray(y, dtype=np.float64), 0.0))


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
    _check_saturated(counts)
    A = np.ones((1, 1))
    for F in _inverse_factors(delta):
        A = np.kron(A, F)
    return A[_term_order(len(delta))]


def _check_saturated(counts):
    if not (counts > 0).all():
        raise RankDeficientError("an empty cell leaves the saturated model unidentified")


def _probe(n):
    """A fixed vector of n values uniform in [-1/2, 1/2), seeded.

    Drawn by the standard library's generator: analyze would otherwise
    never load numpy.random.
    """
    draws = np.frombuffer(random.Random(PROBE_SEED).randbytes(8 * n), dtype=np.uint64)
    return draws / 2.0 ** 64 - 0.5


def saturated_fit(data, delta, covariance=False):
    """Saturated location-shifted fit, verified against the moment route.

    Returns (fit, verification) where verification records the max relative
    errors of the coefficient and covariance identities against the moment
    estimator under the product scheme built from delta.  The fit applies
    the Kronecker inverse ``A`` of the cell rows in factor pairs; the check
    takes G from the 3^K lift of the product joint (``effect_map``): two
    independent derivations, neither a dense Q x Q array.  The coefficients
    must equal ``G ybar``.  The HC0 covariance without its intercept row
    and column (w_z = SS_z / N_z^2) must equal ``G diag(w) G^T``: its
    diagonal against ``(G o G) w``, and its product with one fixed seeded
    probe u, ``A diag(w) A^T (0, u)`` without its intercept entry against
    ``G diag(w) G^T u``, so an error off the diagonal shows as well.  The
    covariance identity needs N_z >= 2 in every cell and is skipped
    (recorded as None) otherwise.
    With ``covariance`` the dense HC0 is also formed and compared with the
    dense ``G diag(w) G^T`` (``dense_cov_rel_err``).  An empty cell raises
    RankDeficientError.
    """
    delta = _shift_vector(delta)
    if data.spec.K != delta.K:
        raise ValueError("data and model disagree on the number of factors")
    K, shifts = delta.K, delta.delta
    counts, means, ss = data.moments
    _check_saturated(counts)
    # the fit interpolates every cell mean, so RSS_z = SS_z
    w = ss / counts ** 2
    A = FactorMap(_inverse_factors(shifts), _term_order(K))
    fit = FitResult(
        canonical_subsets(K),
        A(means),
        A.squared(w),
        lambda: _sandwich(_saturated_map(shifts, counts), w),
    )
    scheme = product_scheme(delta)
    G = effect_map(scheme)
    verification = {
        "coef_rel_err": rel_err(fit.coef_noint, G(means)),
        "cov_rel_err": None,
        "dense_cov_rel_err": None,
    }
    errors = [verification["coef_rel_err"]]
    if (counts >= 2).all():
        u = _probe(2 ** K - 1)
        verification["cov_rel_err"] = max(
            rel_err(fit.robust_var[1:], G.squared(w)),
            rel_err(A(w * A.T(np.r_[0.0, u]))[1:], G(w * G.T(u))),
        )
        errors.append(verification["cov_rel_err"])
        if covariance:
            G_dense = contrast_matrix(scheme, K).matrix
            verification["dense_cov_rel_err"] = rel_err(fit.robust_cov_noint, _sandwich(G_dense, w))
            errors.append(verification["dense_cov_rel_err"])
    if not max(errors) <= IDENTITY_RTOL:
        raise IdentityViolationError(f"saturated-fit identities violated: {verification}")
    return fit, verification


def _included_fit(data, spec, cell_weights):
    """HC0 least squares on the model's included cell rows, cell z weighted by cell_weights[z]."""
    rows = build_design(data, spec).included_rows
    return _wls(_coef_map(rows, cell_weights), rows, data.moments, spec.terms)


def unsaturated_fit(data, spec):
    """Least squares on the included terms only, with HC0."""
    return _included_fit(data, spec, data.moments.counts)


def wls_fit(data, spec):
    """Weighted least squares with unit weights 1/N_{Z_i}, so each cell weighs one.

    HC0 is the weighted sandwich.
    """
    counts = data.moments.counts
    # the cell weight N_z w_z is one for every nonempty cell
    return _included_fit(data, spec, counts / np.maximum(counts, 1))


@dataclass(frozen=True)
class OmittedTermAlgebra:
    """Column-wise regression of the omitted design columns on the included.

    ``phi`` includes the intercept row; ``d`` drops it and maps omitted
    saturated coefficients into the unsaturated ones.
    """

    phi: np.ndarray  # (1 + #included) x #omitted
    d: np.ndarray  # #included x #omitted


def _phi(A_plus, design_t):
    """Phi = A_+ X_-, intercept row first: X^T applied to the block A_+^T, transposed."""
    return design_t(A_plus.T)[1:].T


def omitted_algebra(design):
    """Phi and D for a given design, by count-weighted cell rows.

    Phi = A_+ X_- is the coefficient map A_+ of the included rows applied
    to the omitted columns, read as the design's X^T applied to the block
    A_+^T, so no omitted column is formed.  Needs only the included columns
    to have full rank.  Phi is a function of the cell proportions alone, so
    duplicating every unit keeps it.
    """
    if design.omitted_pos.size == 0:
        raise ValueError("model is saturated; nothing is omitted")
    phi = _phi(_coef_map(design.included_rows, design.counts), design.design_t)
    return OmittedTermAlgebra(phi, phi[1:, :])


def _moment_map(A_plus, plus_pos, minus_pos, design_t):
    """J = (I, D) over all canonical terms: the identity on the included columns, D on the rest."""
    columns = np.hstack([np.eye(plus_pos.size), _phi(A_plus, design_t)[1:]])
    # the included columns, then the omitted, put back in canonical order
    return columns[:, np.argsort(np.r_[plus_pos, minus_pos])]


def unsaturated_moment_map(data, spec):
    """Selection-plus-correction matrix J = (I, D) over all canonical terms.

    D is ``omitted_algebra``'s, at the cell counts of ``data``: J maps the
    full saturated coefficient vector into the unsaturated one.
    """
    design = build_design(data, spec)
    A_plus = _coef_map(design.included_rows, design.counts)
    return _moment_map(A_plus, design.included_pos, design.omitted_pos, design.design_t)


def verify_omitted_relation(data, spec):
    """Check the unsaturated/saturated coefficient relation and its criteria.

    Takes the saturated coefficients gamma from the saturated map and
    factors the included rows once, for the unsaturated fit (under ``fit``)
    and the correction.
    Reports the max relative error of
    ``coef(unsaturated) = coef(saturated, included) + D @ coef(saturated, omitted)``,
    the two sufficient orthogonality conditions and the exact vanishing
    criterion ``F_+^T (F_- - mean F_-) gamma_-``, with
    ``F_+^T F_- = X_+^T diag(N_z) X_-``.  No 2^K x 2^K array is formed:
    with the design's X^T over the intercept and omitted columns, the
    correction ``D gamma_-`` is ``A_+ X^T.T((0, gamma_-))`` and ``X^T
    diag(N_z) X_+`` is X^T applied to the block ``diag(N_z) X_+``, the same
    two maps ``omitted_algebra`` reads Phi from.  As
    rank([F_+ F_-]) = rank(F_+) + rank(R) for the residual matrix R of F_-
    on F_+, and the full design has full rank exactly when no cell is empty,
    the empty-cell check also guards R.
    """
    design = build_design(data, spec)
    if design.omitted_pos.size == 0:
        raise ValueError("model is saturated; nothing is omitted")
    counts, means, _ = data.moments
    _check_saturated(counts)
    gamma = FactorMap(_inverse_factors(spec.delta.delta), _term_order(spec.K)[1:])(means)
    rows, X_t = design.included_rows, design.design_t
    A_plus = _coef_map(rows, counts)
    uns_fit = _wls(A_plus, rows, data.moments, spec.terms)
    gamma_plus, gamma_minus = gamma[design.included_pos], gamma[design.omitted_pos]
    correction = (A_plus @ X_t.T(np.r_[0.0, gamma_minus]))[1:]

    # F_+^T F_- as cell sums, and F_- centred at its count-weighted mean, whose
    # sums are row 0 (the intercept column of F_+)
    cross = X_t(counts[:, None] * rows)
    raw = cross[1:].T
    centered = raw - np.outer(cross[0], raw[0]) / counts.sum()
    report = {
        "fit": uns_fit,
        "relation_rel_err": rel_err(uns_fit.coef_noint, gamma_plus + correction),
        "correction": correction,
        "orthogonal_raw": float(np.abs(raw).max()),
        "orthogonal_centered": float(np.abs(centered).max()),
        "exact_criterion": centered[1:] @ gamma_minus,
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
