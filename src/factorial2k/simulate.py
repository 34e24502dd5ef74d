"""Design-based verification: enumeration-exact expectations and Monte Carlo.

Ground truth is a full potential-outcome table (one column per cell).  A
complete randomization fixes the cell sizes and draws a uniformly random
partition of the units; exact design-based moments of any estimator follow
by enumerating every assignment, and Monte Carlo covers designs too large
to enumerate.  Both cut an index range (lexicographic ranks or replicate
numbers) into the same blocks of assignments and reduce them in one driver.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy import special

from .contrasts import contrast_matrix
from .core import AssignmentTable, _cell_moments, default_spec, enumerate_treatments
from .errors import (
    EstimatorFailureError,
    Factorial2kError,
    TooManyAssignmentsError,
)
from .regression import _cell_rows, _qr_solve, build_design
from .weighting import product_scheme

ENUMERATION_GUARD = 10 ** 7
# bound on B * N, the cells of one block of B assignments of N units
BLOCK_ELEMENTS = 2 ** 20


@dataclass(frozen=True)
class PotentialOutcomeTable:
    """N x 2^K matrix of potential outcomes, one column per cell."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] < 2:
            raise ValueError("values must be N x Q with Q >= 2")
        K = int(round(np.log2(v.shape[1])))
        if 2 ** K != v.shape[1]:
            raise ValueError("column count must be a power of two")
        if not np.isfinite(v).all():
            i, j = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"potential outcomes must be finite; values[{i}, {j}] is {v[i, j]}")
        object.__setattr__(self, "values", v)

    @property
    def N(self):
        return self.values.shape[0]

    @property
    def Q(self):
        return self.values.shape[1]

    @property
    def K(self):
        return int(round(np.log2(self.values.shape[1])))

    @property
    def means(self):
        return self.values.mean(axis=0)

    @property
    def covariance(self):
        """Finite-population covariance S with divisor N - 1."""
        centered = self.values - self.means
        return centered.T @ centered / (self.N - 1)

    def to_csv(self, path):
        cells = enumerate_treatments(self.K)
        header = ",".join("".join(map(str, z)) for z in cells)
        np.savetxt(path, self.values, delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path):
        return cls(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


@dataclass(frozen=True)
class DesignSizes:
    """Cell sizes N_z of a completely randomized design; each N_z >= 2."""

    sizes: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sizes, dtype=np.int64)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("need one size per cell")
        if (s < 2).any():
            raise ValueError("every cell size must be at least 2")
        object.__setattr__(self, "sizes", s)

    @property
    def N(self):
        return int(self.sizes.sum())

    @property
    def Q(self):
        return self.sizes.size

    def assignment_count(self):
        """Multinomial coefficient N! / prod(N_z!)."""
        count = math.factorial(self.N)
        for n in self.sizes:
            count //= math.factorial(int(n))
        return count


def observe(table, cells):
    """Observed dataset from a potential-outcome table and a cell assignment."""
    cells = np.asarray(cells, dtype=np.int64)
    levels = np.array(enumerate_treatments(table.K), dtype=np.int64)[cells]
    outcome = table.values[np.arange(table.N), cells]
    return AssignmentTable(default_spec(table.K), levels, outcome)


def draw_assignment(sizes, rng):
    """Uniformly random partition of units into cells of the given sizes."""
    base = np.repeat(np.arange(sizes.Q), sizes.sizes)
    return rng.permutation(base)


def _blocks(n, N, make):
    """``make`` of consecutive ranges covering 0..n-1, each of at most
    BLOCK_ELEMENTS // N indices (at least one), in order."""
    rows = max(1, BLOCK_ELEMENTS // N)
    return (make(range(lo, min(lo + rows, n))) for lo in range(0, n, rows))


def _assignments(sizes, count, ranks):
    """(B, N) block of the assignments with the given lexicographic ranks.

    Position by position, of the ``count`` assignments sharing a row's
    prefix, count * left_v // (N - pos) put cell v next; the rank picks the
    first cell whose running total exceeds it and keeps its offset there.
    The guard keeps count * N below 5e10, so this is exact in int64.
    """
    rank = np.array(ranks, dtype=np.int64)
    rows = np.arange(rank.size)
    count = np.full(rank.size, count, dtype=np.int64)
    left = np.tile(sizes.sizes, (rank.size, 1))
    out = np.empty((rank.size, sizes.N), dtype=np.int64)
    for pos in range(sizes.N):
        share = count[:, None] * left // (sizes.N - pos)
        ends = np.cumsum(share, axis=1)
        v = (ends <= rank[:, None]).sum(axis=1)
        out[:, pos] = v
        count = share[rows, v]
        rank -= ends[rows, v] - count
        left[rows, v] -= 1
    return out


def _enumeration(sizes):
    """Blocks of every assignment in lexicographic order, behind the guard.

    Raises TooManyAssignmentsError above ENUMERATION_GUARD assignments,
    decided from lgamma: N! is formed only within a factor e of the guard.
    """
    log_count = math.lgamma(sizes.N + 1) - sum(math.lgamma(n + 1) for n in sizes.sizes)
    near = log_count < math.log(ENUMERATION_GUARD) + 1
    count = sizes.assignment_count() if near else math.inf
    if count > ENUMERATION_GUARD:
        raise TooManyAssignmentsError(
            f"about 10^{log_count / math.log(10):.1f} assignments exceed the enumeration "
            f"guard of {ENUMERATION_GUARD}; drop --exact to run Monte Carlo"
        )
    return _blocks(count, sizes.N, lambda ranks: _assignments(sizes, count, ranks))


def enumerate_assignments(sizes):
    """Every distinct assignment once, in lexicographic order: the rows of
    the blocks exact enumeration evaluates; guarded as ``exact_expectations``."""
    return (row for block in _enumeration(sizes) for row in block)


def _block_evaluator(table, sizes, estimator):
    """Map a (B, N) block of cell assignments to its estimates.

    Returns ``(estimates, failures, variances, cov_sum)``: the estimates of
    the assignments on which the estimator succeeded, in block order, the
    number on which it raised a package error, and, when the estimator
    gives covariances, their diagonals and their sum (else None).
    """
    if table.values.shape != (sizes.N, sizes.Q):
        raise ValueError(
            f"population is {table.N} x {table.Q} but the design has "
            f"{sizes.N} units in {sizes.Q} cells"
        )
    if not callable(estimator):
        M = np.asarray(estimator, dtype=np.float64)
        units = np.arange(table.N)

        def moments(cells):
            counts, means, ss = _cell_moments(cells, table.values[units, cells], table.Q)
            v = ss / (counts - 1) / counts
            return means @ M.T, 0, v @ (M * M).T, (M * v.sum(axis=0)) @ M.T

        return moments

    def per_table(cells):
        estimates, variances, failures, cov_sum = [], [], 0, 0.0
        for row in cells:
            try:
                out = estimator(observe(table, row))
            except Factorial2kError:
                failures += 1
                continue
            if isinstance(out, tuple):
                out, cov = out
                cov = np.asarray(cov, dtype=np.float64)
                variances.append(np.diag(cov))
                cov_sum = cov_sum + cov
            estimates.append(np.asarray(out, dtype=np.float64).ravel())
        if estimates and len(variances) == len(estimates):
            return np.array(estimates), failures, np.array(variances), cov_sum
        return np.array(estimates), failures, None, None

    return per_table


def _drive(blocks, evaluate, truth=None, alpha=0.05):
    """Evaluate blocks of assignments in order and reduce them in replicate order.

    Means and covariances accumulate deviations from the first estimate,
    which keeps them exact under a large common offset.
    Returns ``(n, failures, mean, cov, mean_cov, coverage)``; the last two
    are None without covariances, and coverage also without ``truth``.
    """
    zq = special.ndtri(1.0 - alpha / 2.0)
    n = failures = 0
    origin, cov_sum, have_cov = None, 0.0, True
    for est, failed, var, cov_part in map(evaluate, blocks):
        failures += failed
        if not est.size:
            continue
        if origin is None:
            origin = est[0]
            acc = np.zeros_like(origin)
            acc_sq = np.zeros((origin.size, origin.size))
            hits = np.zeros(origin.size)
        dev = est - origin
        acc += dev.sum(axis=0)
        acc_sq += dev.T @ dev
        n += est.shape[0]
        have_cov = have_cov and cov_part is not None
        if have_cov:
            cov_sum = cov_sum + cov_part
            if truth is not None:
                hits += (np.abs(est - truth) <= zq * np.sqrt(np.clip(var, 0.0, None))).sum(axis=0)
    if not n:
        return 0, failures, None, None, None, None
    shift = acc / n
    mean, cov = origin + shift, acc_sq / n - np.outer(shift, shift)
    mean_cov = cov_sum / n if have_cov else None
    coverage = hits / n if have_cov and truth is not None else None
    return n, failures, mean, cov, mean_cov, coverage


def exact_expectations(table, sizes, estimator):
    """Exact design-based mean and covariance of an estimator.

    ``estimator`` is a (P, Q) matrix M, the moment estimator M Yhat of the
    cell means, or a callable mapping an AssignmentTable to a flat vector.
    Lexicographic ranks are unranked into the blocks Monte Carlo uses: M is
    applied to a whole block's cell means from one cell-moment pass, a
    callable to ``observe`` of each assignment.  Above ENUMERATION_GUARD
    assignments, decided before any N! is formed, it raises
    TooManyAssignmentsError.  A callable's package errors are counted and
    reported via EstimatorFailureError: exact moments conditioned on success
    would not be exact.  (M Yhat cannot fail: each cell holds >= 2 units.)
    """
    evaluate = _block_evaluator(table, sizes, estimator)
    n, failures, mean, cov, _, _ = _drive(_enumeration(sizes), evaluate)
    if failures:
        raise EstimatorFailureError(
            f"estimator failed on {failures} of {n + failures} assignments", failures
        )
    return mean, cov


@dataclass(frozen=True)
class SimReport:
    """Summary of exact or Monte Carlo design-based moments of an estimator."""

    mode: str  # "exact" or "mc"
    reps: int
    seed: int | None
    est_mean: np.ndarray
    est_cov: np.ndarray
    mean_estimated_cov: np.ndarray | None
    coverage: np.ndarray | None
    alpha: float | None
    failures: int

    def to_dict(self):
        return {
            "mode": self.mode,
            "reps": self.reps,
            "seed": self.seed,
            "alpha": self.alpha,
            "failures": self.failures,
            "est_mean": self.est_mean.tolist(),
            "est_cov": self.est_cov.tolist(),
            "mean_estimated_cov": (
                None
                if self.mean_estimated_cov is None
                else self.mean_estimated_cov.tolist()
            ),
            "coverage": None if self.coverage is None else self.coverage.tolist(),
        }


def replicate_rng(seed, r):
    """Independent generator for replicate ``r``; order-independent."""
    return np.random.default_rng(np.random.SeedSequence((seed, r)))


def monte_carlo(table, sizes, estimator, reps, seed, truth=None, alpha=0.05, workers=1):
    """Monte Carlo design-based moments of an estimator over random draws.

    ``estimator`` takes one of two forms:

    * a (P, Q) matrix M, the moment estimator M Yhat of the cell means with
      the conservative covariance M diag(Vhat) M^T, Vhat_z = SS_z / (N_z - 1)
      / N_z.  It is evaluated on a whole block of assignments from one
      cell-moment pass and cannot fail (every cell holds at least two
      units); ``mean_estimated_cov`` is M diag(mean Vhat) M^T.
    * a callable mapping an AssignmentTable to a flat vector or a pair
      ``(estimate, covariance)``, applied to ``observe`` of each assignment.
      A replicate on which it raises a package error is counted in
      ``failures`` and dropped from every moment.

    With covariances and ``truth``, per-component Wald CI coverage at level
    ``alpha`` is recorded.  Replicate r draws from ``replicate_rng(seed, r)``.
    Replicate numbers are cut into the blocks exact enumeration cuts its
    ranks into, evaluated in order and reduced in replicate order.
    ``workers`` (>= 1) is accepted for compatibility and does not change the
    computation: the report is bit-identical for a fixed (seed, reps).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    evaluate = _block_evaluator(table, sizes, estimator)
    blocks = _blocks(reps, sizes.N, lambda replicates: np.array(
        [draw_assignment(sizes, replicate_rng(seed, r)) for r in replicates]
    ))
    if truth is not None:
        truth = np.asarray(truth, dtype=np.float64).ravel()
    n, failures, mean, cov, mean_cov, coverage = _drive(blocks, evaluate, truth, alpha)
    if not n:
        raise EstimatorFailureError("estimator failed on every replicate", reps)
    return SimReport("mc", reps, seed, mean, cov, mean_cov, coverage, alpha, failures)


def make_constant_effects_population(N, unit_effects, cell_offsets):
    """Y_i(z) = u_i + m(z): constant treatment effects across units.

    All entries of the finite-population covariance S equal the variance of
    the unit effects.
    """
    u = np.asarray(unit_effects, dtype=np.float64)
    m = np.asarray(cell_offsets, dtype=np.float64)
    if u.shape != (N,):
        raise ValueError("unit_effects must have length N")
    return PotentialOutcomeTable(u[:, None] + m[None, :])


def make_no_three_way_population(N, K, seed):
    """Random population whose mean surface has no three-way interactions.

    Each unit gets its own additive and pairwise coefficients, so effects
    are heterogeneous, yet every conditional effect of order >= 3 of the
    mean surface is zero by construction.
    """
    rng = np.random.default_rng(seed)
    cells = np.array(enumerate_treatments(K), dtype=np.float64)
    u = rng.normal(0.0, 1.0, size=N)
    a = rng.normal(0.0, 1.0, size=(N, K))
    values = u[:, None] + a @ cells.T
    for j in range(K):
        for k in range(j + 1, K):
            b = rng.normal(0.0, 1.0, size=N)
            values += b[:, None] * (cells[:, j] * cells[:, k])[None, :]
    return PotentialOutcomeTable(values)


def add_three_way_term(table, subset=(0, 1, 2), coefficient=1.0):
    """Return a copy of ``table`` with one three-way interaction injected."""
    cells = np.array(enumerate_treatments(table.K), dtype=np.float64)
    term = np.prod(cells[:, list(subset)], axis=1)
    return PotentialOutcomeTable(table.values + coefficient * term[None, :])


def truth_covariance_of_cell_means(table, sizes):
    """Design-based covariance of the cell means: diag(S(z,z)/N_z) - S/N."""
    S = table.covariance
    return np.diag(np.diag(S) / sizes.sizes) - S / table.N


def unsaturated_moment_map(data, spec):
    """Selection-plus-correction matrix (I, D) over all canonical terms.

    Maps the full saturated coefficient vector into the unsaturated one:
    J = A_+ X, the coefficient map of the count-weighted included rows
    applied to every design column, is the identity on the included terms
    and D on the omitted ones.
    """
    design = build_design(data, spec)
    counts = np.bincount(design.cell, minlength=design.rows.shape[0])
    return (_qr_solve(design.included_rows, counts) @ design.rows)[1:, 1:]


def compare_saturated_unsaturated(table, sizes, spec):
    """Exact covariance ordering between saturated and unsaturated fits.

    Every assignment has the same cell rows and sizes, so both models are
    factored once into their coefficient maps, which take the cell means to
    the coefficients, and the enumeration evaluates them on blocks of
    assignments.  Reports exact covariances of the included saturated and
    the unsaturated coefficients, whether their difference is PSD, and the
    closed-form unsaturated covariance J G (diag(S_zz/N_z) - S/N) G^T J^T
    from the potential outcomes, with J = A_+ X.
    """
    if spec.K != table.K:
        raise ValueError("population and model disagree on the number of factors")
    p = len(spec.terms)
    rows, included_rows, _, included_pos, _ = _cell_rows(spec)
    sat = _qr_solve(rows, sizes.sizes)[1:][included_pos]
    A_plus = _qr_solve(included_rows, sizes.sizes)
    mean, cov = exact_expectations(table, sizes, np.vstack([sat, A_plus[1:]]))
    mean_sat, mean_uns = mean[:p], mean[p:]
    cov_sat, cov_uns = cov[:p, :p], cov[p:, p:]

    J = (A_plus @ rows)[1:, 1:]
    G = contrast_matrix(product_scheme(spec.delta), spec.K).matrix
    JG = J @ G
    cov_formula = JG @ truth_covariance_of_cell_means(table, sizes) @ JG.T

    diff = cov_sat - cov_uns
    eigs = np.linalg.eigvalsh((diff + diff.T) / 2.0)
    return {
        "mean_saturated_plus": mean_sat,
        "mean_unsaturated": mean_uns,
        "cov_saturated_plus": cov_sat,
        "cov_unsaturated": cov_uns,
        "cov_unsaturated_formula": cov_formula,
        "min_eig_difference": float(eigs.min()),
        "psd_ordering": bool(eigs.min() >= -1e-9),
    }
