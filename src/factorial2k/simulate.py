"""Design-based verification: enumeration-exact expectations and Monte Carlo.

Ground truth is a full potential-outcome table (one column per cell).  A
complete randomization fixes the cell sizes and draws a uniformly random
partition of the units; exact design-based moments of any estimator follow
by enumerating every assignment, and Monte Carlo covers designs too large
to enumerate.
"""

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
import math

import numpy as np
from scipy import special

from .contrasts import contrast_matrix
from .core import AssignmentTable, default_spec, enumerate_treatments
from .errors import (
    EstimatorFailureError,
    Factorial2kError,
    TooManyAssignmentsError,
)
from .regression import _qr_solve, build_design, omitted_algebra
from .weighting import product_scheme

ENUMERATION_GUARD = 10 ** 7


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
        object.__setattr__(self, "values", v)

    @property
    def N(self):
        return self.values.shape[0]

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


def observe(table, cells, spec=None):
    """Observed dataset from a potential-outcome table and a cell assignment."""
    spec = spec or default_spec(table.K)
    cells = np.asarray(cells, dtype=np.int64)
    levels = np.array(enumerate_treatments(table.K), dtype=np.int64)[cells]
    outcome = table.values[np.arange(table.N), cells]
    return AssignmentTable(spec, levels, outcome)


def draw_assignment(sizes, rng):
    """Uniformly random partition of units into cells of the given sizes."""
    base = np.repeat(np.arange(sizes.Q), sizes.sizes)
    return rng.permutation(base)


def enumerate_assignments(sizes):
    """Every distinct assignment exactly once (lexicographic order).

    Guarded by the multinomial count; raises TooManyAssignmentsError above
    10^7 assignments.
    """
    total = sizes.assignment_count()
    if total > ENUMERATION_GUARD:
        raise TooManyAssignmentsError(
            f"{total} assignments exceed the guard of {ENUMERATION_GUARD}"
        )
    counts = sizes.sizes.copy()
    n = sizes.N
    seq = np.zeros(n, dtype=np.int64)

    def rec(pos):
        if pos == n:
            yield seq.copy()
            return
        for v in range(counts.size):
            if counts[v]:
                counts[v] -= 1
                seq[pos] = v
                yield from rec(pos + 1)
                counts[v] += 1

    return rec(0)


def exact_expectations(table, sizes, estimator, spec=None):
    """Exact design-based mean and covariance of an estimator.

    ``estimator`` maps an AssignmentTable to a flat vector.  Assignments on
    which the estimator raises a package error are counted and reported via
    EstimatorFailureError; exact moments are undefined in that case rather
    than silently conditioned on success.
    """
    spec = spec or default_spec(table.K)
    total = 0
    failures = 0
    origin = None
    for cells in enumerate_assignments(sizes):
        total += 1
        try:
            value = np.asarray(estimator(observe(table, cells, spec)), dtype=np.float64).ravel()
        except Factorial2kError:
            failures += 1
            continue
        if origin is None:
            # sums of deviations from one attained value keep the covariance
            # exact when the outcomes carry a large common offset
            origin = value
            acc = np.zeros_like(value)
            acc_sq = np.zeros((value.size, value.size))
        dev = value - origin
        acc += dev
        acc_sq += np.outer(dev, dev)
    if failures:
        raise EstimatorFailureError(
            f"estimator failed on {failures} of {total} assignments", failures
        )
    shift = acc / total
    return origin + shift, acc_sq / total - np.outer(shift, shift)


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


def monte_carlo(
    table,
    sizes,
    estimator,
    reps,
    seed,
    truth=None,
    alpha=0.05,
    workers=1,
    spec=None,
):
    """Monte Carlo design-based moments of an estimator over random draws.

    ``estimator`` maps an AssignmentTable to either a flat vector or a pair
    ``(estimate, covariance)``.  When a covariance is returned and ``truth``
    is given, per-component Wald CI coverage at level ``alpha`` is recorded.
    The report is bit-identical for a fixed (seed, reps) regardless of the
    worker count: replicate r draws from a seed derived from (seed, r) and
    results are reduced in replicate order.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    spec = spec or default_spec(table.K)
    zq = special.ndtri(1.0 - alpha / 2.0)

    estimates = [None] * reps
    covs = [None] * reps
    failed = np.zeros(reps, dtype=bool)

    def run(r):
        rng = replicate_rng(seed, r)
        cells = draw_assignment(sizes, rng)
        try:
            out = estimator(observe(table, cells, spec))
        except Factorial2kError:
            failed[r] = True
            return
        if isinstance(out, tuple):
            estimates[r], covs[r] = np.asarray(out[0], float).ravel(), out[1]
        else:
            estimates[r] = np.asarray(out, float).ravel()

    if workers <= 1:
        for r in range(reps):
            run(r)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(reps)))

    ok = [r for r in range(reps) if not failed[r]]
    if not ok:
        raise EstimatorFailureError("estimator failed on every replicate", reps)
    est = np.vstack([estimates[r] for r in ok])
    mean = est.mean(axis=0)
    centered = est - mean
    cov = centered.T @ centered / len(ok)

    mean_cov = None
    coverage = None
    have_cov = all(covs[r] is not None for r in ok)
    if have_cov:
        mean_cov = np.zeros_like(np.asarray(covs[ok[0]], float))
        for r in ok:
            mean_cov += covs[r]
        mean_cov /= len(ok)
        if truth is not None:
            truth = np.asarray(truth, float).ravel()
            hits = np.zeros(truth.size)
            for r in ok:
                se = np.sqrt(np.clip(np.diag(np.asarray(covs[r], float)), 0.0, None))
                hits += (np.abs(estimates[r] - truth) <= zq * se).astype(float)
            coverage = hits / len(ok)

    return SimReport(
        "mc", reps, seed, mean, cov, mean_cov, coverage, alpha, int(failed.sum())
    )


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


def make_no_three_way_population(N, K, seed, noise_scale=1.0):
    """Random population whose mean surface has no three-way interactions.

    Each unit gets its own additive and pairwise coefficients, so effects
    are heterogeneous, yet every conditional effect of order >= 3 of the
    mean surface is zero by construction.
    """
    rng = np.random.default_rng(seed)
    cells = np.array(enumerate_treatments(K), dtype=np.float64)
    u = rng.normal(0.0, noise_scale, size=N)
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
    columns follow the canonical term order, with identity on included
    terms and D on omitted terms.
    """
    design = build_design(data, spec)
    p = design.included_pos.size
    J = np.zeros((p, p + design.omitted_pos.size))
    J[np.arange(p), design.included_pos] = 1.0
    J[:, design.omitted_pos] = omitted_algebra(design).d
    return J


def compare_saturated_unsaturated(table, sizes, spec):
    """Exact covariance ordering between saturated and unsaturated fits.

    Enumerates all assignments once, solving both models' coefficients on
    one design per assignment, and reports exact covariances of the
    included saturated coefficients and the unsaturated coefficients,
    whether their difference is PSD, and the closed-form covariance of the
    unsaturated coefficients computed from the potential outcomes.
    """
    fspec = default_spec(table.K)
    p = len(spec.terms)

    def both(data):
        design = build_design(data, spec)
        sat = _qr_solve(design.full)[0](data.outcome)[1:][design.included_pos]
        uns = _qr_solve(design.included)[0](data.outcome)[1:]
        return np.concatenate([sat, uns])

    mean, cov = exact_expectations(table, sizes, both, fspec)
    mean_sat, mean_uns = mean[:p], mean[p:]
    cov_sat, cov_uns = cov[:p, :p], cov[p:, p:]

    # closed-form covariance from the potential outcomes
    rng = np.random.default_rng(0)
    reference = observe(table, draw_assignment(sizes, rng), fspec)
    J = unsaturated_moment_map(reference, spec)
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
