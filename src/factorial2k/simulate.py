"""Design-based verification: enumeration-exact expectations and Monte Carlo.

Ground truth is a full potential-outcome table (one column per cell).  A
complete randomization fixes the cell sizes and draws a uniformly random
partition of the units; exact design-based moments of any estimator follow
by enumerating every assignment, and Monte Carlo covers designs too large
to enumerate.  Both cut an index range (lexicographic ranks or replicate
numbers) into the same fixed chunks, each a run of blocks of assignments,
and reduce them in one driver; an exact block holds a fixed range of ranks
and is grown from the prefix tree of the assignments.  For a moment
estimator M Yhat the tree carries each prefix's cell sums down to the
assignments, so an exact block is their (B, Q) cell sums, not (B, N) rows.
"""

from dataclasses import dataclass
import functools
import math
import warnings

import numpy as np

from .contrasts import effect_map
from .core import AssignmentTable, _cell_moments, default_spec, enumerate_treatments
from .errors import (
    EstimatorFailureError,
    Factorial2kError,
    TooManyAssignmentsError,
)
from .estimation import normal_quantile
from .regression import IDENTITY_RTOL, _coef_map, _model_maps, _moment_map, _saturated_map
# re-exported: J in the exact moments J G Ybar and J G V G^T J^T
from .regression import unsaturated_moment_map
from .weighting import product_scheme

ENUMERATION_GUARD = 10 ** 7
# bound on B * N, the cells of one block of B assignments of N units
BLOCK_ELEMENTS = 2 ** 20
# bound on the entries of one chunk of rows of cell means and Vhat, 2Q per
# assignment, that is estimated and reduced at once; a chunk is a fixed range
# of indices with its blocks nested inside (see _chunks), so the arithmetic
# is the same for any BLOCK_ELEMENTS
REDUCE_ELEMENTS = 2 ** 20


@dataclass(frozen=True)
class PotentialOutcomeTable:
    """N x 2^K matrix of potential outcomes, one column per cell."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] < 2 or v.shape[1] & (v.shape[1] - 1):
            raise ValueError("values must be N x Q with Q a power of two >= 2")
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
        return self.Q.bit_length() - 1

    @property
    def means(self):
        return self.values.mean(axis=0)

    @property
    def covariance(self):
        """Finite-population covariance S with divisor N - 1."""
        centered = self.values - self.means
        return centered.T @ centered / (self.N - 1)

    def to_csv(self, path):
        """Write a header line of cell labels, then one row per unit, as plain text."""
        cells = enumerate_treatments(self.K)
        header = ",".join("".join(map(str, z)) for z in cells)
        with open(path, "w") as fh:
            np.savetxt(fh, self.values, delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path):
        """Read a table written by ``to_csv``, its columns in any order.

        The header must name each of the 2^K cell labels that ``to_csv``
        writes (``00``, ``01``, ... for K=2) exactly once, one per column;
        the columns are put in binary-counting order.  Any other header
        raises ValueError, as does a file with no rows under its header.  One
        leading UTF-8 byte-order mark is dropped from the header.  The file
        is opened as a local plain-text file whatever its name: numpy never
        takes the name for a URL and never decompresses it.
        """
        with open(path) as fh:
            labels = fh.readline().rstrip("\n").removeprefix("\ufeff").split(",")
            with warnings.catch_warnings():
                # a header-only file holds no data; it is rejected below
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, delimiter=",", ndmin=2)
        if not values.size:
            raise ValueError("population file has no rows under its header")
        table = cls(values)
        expected = ["".join(map(str, z)) for z in enumerate_treatments(table.K)]
        if sorted(labels) != expected:
            raise ValueError(
                f"population header {','.join(labels)!r} must name each of the "
                f"{table.Q} cells {','.join(expected)} exactly once"
            )
        return cls(table.values[:, [labels.index(label) for label in expected]])


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


@functools.cache
def _cell_levels(K):
    """The default FactorSpec of K factors and its read-only 2^K x K table of cell levels."""
    levels = np.array(enumerate_treatments(K), dtype=np.int64)
    levels.setflags(write=False)
    return default_spec(K), levels


def observe(table, cells):
    """Observed dataset from a potential-outcome table and a cell assignment."""
    cells = np.asarray(cells, dtype=np.int64)
    spec, levels = _cell_levels(table.K)
    outcome = table.values[np.arange(table.N), cells]
    return AssignmentTable(spec, levels[cells], outcome)


def draw_assignment(sizes, rng):
    """Uniformly random partition of units into cells of the given sizes."""
    base = np.repeat(np.arange(sizes.Q), sizes.sizes)
    return rng.permutation(base)


def _chunks(n, N, Q, make):
    """Chunks of ``make`` blocks covering the indices 0..n-1, in order.

    A chunk is a fixed range of REDUCE_ELEMENTS // (2Q) consecutive indices
    (replicate numbers or lexicographic ranks; at least one), the unit in
    which rows are estimated and reduced.  It is given as a generator of
    ``make(range)`` over consecutive sub-ranges of at most BLOCK_ELEMENTS // N
    indices (at least one, at most the chunk), so how the assignments are cut
    into blocks never moves a chunk boundary.  Every cell holds at least two
    units, so N >= 2Q and at the default constants a block is never cut by
    its chunk.
    """
    step = max(1, REDUCE_ELEMENTS // (2 * Q))
    rows = max(1, min(step, BLOCK_ELEMENTS // N))

    def blocks(chunk):
        return (make(chunk[i:i + rows]) for i in range(0, len(chunk), rows))

    return (blocks(range(n)[lo:lo + step]) for lo in range(0, n, step))


def _ranked(sizes, count, ranks, values=None):
    """The assignments with the consecutive lexicographic ``ranks``: a (B, N)
    block of rows, or with ``values`` (the N x Q potential outcomes) their
    (B, Q) cell sums.

    The prefix tree of the assignments grows one position at a time:
    ``np.flatnonzero`` of the cells left to each kept prefix lists its
    children in lexicographic order, as flat indices parent * Q + cell, and
    the children from the one holding the first rank to the one holding the
    last are kept; the list is sliced only on a level that the range cuts.
    Only those two boundary prefixes are counted, in Python ints: of the c
    assignments sharing a prefix with m positions to fill, c * n_v / m put
    cell v next.  Rows of the frontier are gathered by ``take`` along axis
    0.  With ``values`` each kept prefix carries its cell sums as well, and
    the level that places unit i adds its outcome in the chosen cell: every
    sum starts at 0.0 and adds its units in ascending order, as a weighted
    ``bincount`` of the rows would, so the sums are the same bit for bit.
    Without, the rows are read off the kept cells and parent pointers by
    one backtracking ``take`` per position.  The cells left to each prefix
    are int16: under ENUMERATION_GUARD no cell holds more than 4470 units.
    """
    Q, N = sizes.Q, sizes.N
    left = sizes.sizes[None, :].astype(np.int16)
    # row v takes one unit from cell v
    step = -np.eye(Q, dtype=np.int16)
    # the prefixes holding the first and the last rank: [cells left, count, offset]
    ends = [[sizes.sizes.tolist(), count, rank] for rank in (ranks[0], ranks[-1])]
    levels = []
    sums = np.zeros((1, Q))
    # the flat index of each row's cell 0 in the sums
    row_start = np.arange(0, len(ranks) * Q, Q)
    for m in range(N, 0, -1):
        child = np.flatnonzero(left)
        cut = []
        for end in ends:
            counts, c, rank = end
            kids = [v for v, n in enumerate(counts) if n]
            for i, v in enumerate(kids):
                share = c * counts[v] // m
                if rank < share:
                    break
                rank -= share
            counts[v] -= 1
            end[1:] = share, rank
            cut.append((i, len(kids) - 1 - i))
        if cut[0][0] or cut[1][1]:
            child = child[cut[0][0]:len(child) - cut[1][1]]
        parent, cell = np.divmod(child, Q)
        left = left.take(parent, axis=0)
        left += step.take(cell, axis=0)
        if values is None:
            levels.append((parent, cell))
        else:
            sums = sums.take(parent, axis=0)
            sums.ravel()[row_start[:len(cell)] + cell] += values[N - m].take(cell)
    if values is not None:
        return sums
    out = np.empty((len(ranks), N), dtype=np.int64)
    row = np.arange(len(ranks))
    for pos in range(N - 1, -1, -1):
        parent, cell = levels[pos]
        out[:, pos] = cell.take(row)
        row = parent.take(row)
    return out


def _enumeration(sizes, values=None):
    """Blocks of every assignment in lexicographic order, behind the guard:
    rows, or with ``values`` cell sums (see ``_ranked``).

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
    return _chunks(count, sizes.N, sizes.Q, lambda ranks: _ranked(sizes, count, ranks, values))


def enumerate_assignments(sizes):
    """Every distinct assignment once, in lexicographic order: the rows of
    the blocks exact enumeration evaluates; guarded as ``exact_expectations``."""
    return (row for chunk in _enumeration(sizes) for block in chunk for row in block)


def _block_evaluator(table, sizes, estimator, sums=False):
    """Map chunks of cell assignments to estimates; returns ``(evaluate, finish)``.

    ``evaluate(chunk)`` maps a chunk, an iterable of blocks, to
    ``(estimates, variances, parts, failures)`` and keeps no state: one row
    of estimates and one of their variances per assignment on which the
    estimator succeeded, in order, the rows of a covariance part the driver
    sums over the run, and the number of assignments on which the estimator
    raised a package error.  ``finish`` maps the mean part to the mean
    estimated covariance.

    A block is a (B, N) array of cell assignments, or for a matrix with
    ``sums`` the (B, Q) cell sums of B assignments that exact enumeration
    carries down its tree (``_ranked``).  For a matrix M the chunk's cell
    means are joined, so the estimates are ``means @ M^T``.  From sums the
    means are the sums over the design's cell sizes, which every assignment
    shares, and the variances and parts are None.  From rows each block's
    cell means and Vhat come from one pass of ``core._cell_moments``, given
    those sizes, so no block counts its cells, with the outcomes gathered by
    one flat ``take``; the variances are ``Vhat (M o M)^T`` and the parts
    the Vhat rows, so M diag(.) M^T is formed once per run.  A callable is
    applied to ``observe`` of each assignment; its covariances are summed in
    order into one P x P part per chunk, and the variances and parts are
    None unless every success gave one (and there was one).
    """
    if table.values.shape != (sizes.N, sizes.Q):
        raise ValueError(
            f"population is {table.N} x {table.Q} but the design has "
            f"{sizes.N} units in {sizes.Q} cells"
        )
    if not callable(estimator):
        M = np.asarray(estimator, dtype=np.float64)
        flat = table.values.ravel()
        offsets = np.arange(table.N) * table.Q

        def matrix(chunk):
            if sums:
                return (np.concatenate(list(chunk)) / sizes.sizes) @ M.T, None, None, 0
            moments = [
                _cell_moments(cells, flat.take(cells + offsets), table.Q, counts=sizes.sizes)
                for cells in chunk
            ]
            means = np.concatenate([m.means for m in moments])
            v = np.concatenate([m.v_hat for m in moments])
            return means @ M.T, v @ (M * M).T, v, 0

        return matrix, lambda v: (M * v) @ M.T

    def per_table(chunk):
        estimates, diagonals, total, failures = [], [], None, 0
        for row in (row for block in chunk for row in block):
            try:
                out = estimator(observe(table, row))
            except Factorial2kError:
                failures += 1
                continue
            if isinstance(out, tuple):
                out, cov = out
                cov = np.asarray(cov, dtype=np.float64)
                # a copy: the diagonal view would keep each P x P covariance alive
                diagonals.append(cov.diagonal().copy())
                total = cov if total is None else total + cov
            estimates.append(np.asarray(out, dtype=np.float64).ravel())
        if not diagonals or len(diagonals) < len(estimates):
            return np.array(estimates), None, None, failures
        return np.array(estimates), np.array(diagonals), total[None], failures

    return per_table, lambda cov: cov


def _drive(chunks, evaluate, finish, truth=None, alpha=0.05):
    """Evaluate chunks of assignments in order and reduce them in index order.

    Each chunk is evaluated once and its rows reduced at once.  Means and
    covariances accumulate deviations from the first estimate, which keeps
    them exact under a large common offset.  The covariance parts are summed
    here alone, one row at a time, and ``finish`` maps their mean to the mean
    estimated covariance.  Returns ``(n, failures, mean, cov,
    mean_estimated_cov, coverage)``; the last two are None unless every
    chunk with a success gave variances, and coverage also without ``truth``.
    """
    zq = normal_quantile(1.0 - alpha / 2.0)
    n = failures = 0
    origin = total = None
    have_var = True
    for est, var, part, failed in map(evaluate, chunks):
        failures += failed
        if not len(est):
            continue
        n += len(est)
        if origin is None:
            origin = est[0]
            acc = np.zeros_like(origin)
            acc_sq = np.zeros((origin.size, origin.size))
            hits = np.zeros(origin.size)
        dev = est - origin
        acc += dev.sum(axis=0)
        acc_sq += dev.T @ dev
        have_var = have_var and var is not None
        if have_var:
            total = (part if total is None else np.concatenate(([total], part))).cumsum(axis=0)[-1]
            if truth is not None:
                hits += (np.abs(est - truth) <= zq * np.sqrt(np.clip(var, 0.0, None))).sum(axis=0)
    if not n:
        return 0, failures, None, None, None, None
    shift = acc / n
    mean, cov = origin + shift, acc_sq / n - np.outer(shift, shift)
    mean_cov = finish(total / n) if have_var else None
    coverage = hits / n if have_var and truth is not None else None
    return n, failures, mean, cov, mean_cov, coverage


def exact_expectations(table, sizes, estimator):
    """Exact design-based mean and covariance of an estimator.

    ``estimator`` is a (P, Q) matrix M, the moment estimator M Yhat of the
    cell means, or a callable mapping an AssignmentTable to a flat vector.
    Assignments are enumerated in lexicographic order, in the chunks of
    ``_chunks``, fixed rank ranges cut as Monte Carlo cuts its replicate
    numbers, each block grown from the prefix tree of the assignments.  For
    M each block is the cell sums that the tree carries beside its prefixes,
    so no assignment row, outcome gather, SS_z or Vhat is formed, and M is
    applied to a whole chunk's cell means; a callable is applied to
    ``observe`` of each assignment, its rows read back off the tree.  Above
    ENUMERATION_GUARD assignments, decided before any N! is formed, it
    raises TooManyAssignmentsError.  A callable's package errors are counted
    and reported via EstimatorFailureError: exact moments conditioned on
    success would not be exact.  (M Yhat cannot fail: each cell holds >= 2
    units.)
    """
    sums = not callable(estimator)
    evaluate, finish = _block_evaluator(table, sizes, estimator, sums)
    chunks = _enumeration(sizes, table.values if sums else None)
    n, failures, mean, cov, _, _ = _drive(chunks, evaluate, finish)
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
    """Independent generator keyed by ``(seed, r)``; order-independent.

    ``SeedSequence(seed)`` and ``SeedSequence((seed, 0))`` give the same
    state, so key 0 is the generator of a plain ``seed``.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, r)))


def _run_rng(seed):
    """The one generator of a Monte Carlo run.

    Keyed as the second child of ``SeedSequence(seed)``, a state no
    ``replicate_rng(seed, r)`` and no plain ``seed`` gives, so the draws are
    independent of a population made from ``replicate_rng(seed, 0)``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))


def monte_carlo(table, sizes, estimator, reps, seed, truth=None, alpha=0.05, workers=1):
    """Monte Carlo design-based moments of an estimator over random draws.

    ``estimator`` takes one of two forms:

    * a (P, Q) matrix M, the moment estimator M Yhat of the cell means with
      the conservative covariance M diag(Vhat) M^T, Vhat_z = SS_z / (N_z - 1)
      / N_z.  It is evaluated on a whole block of assignments from one
      cell-moment pass, whose ``CellMoments.v_hat`` gives every Vhat, and
      cannot fail (every cell holds at least two units);
      ``mean_estimated_cov`` is M diag(mean Vhat) M^T, formed once.
    * a callable mapping an AssignmentTable to a flat vector or a pair
      ``(estimate, covariance)``, applied to ``observe`` of each assignment.
      A replicate on which it raises a package error is counted in
      ``failures`` and dropped from every moment.

    With covariances and ``truth``, per-component Wald CI coverage at level
    ``alpha`` is recorded.  A run draws from one stream, ``_run_rng(seed)``:
    replicate r is the (r+1)-th ``draw_assignment(sizes, rng)`` on it, and a
    block of B replicates is drawn by one ``rng.permuted`` call, which gives
    the same rows.  (Version 0.1.0 seeded each replicate on its own, so its
    reports for a fixed seed differ.)  Replicate numbers are cut into the
    chunks of ``_chunks``, the ranges exact enumeration cuts its
    lexicographic ranks into, evaluated in order and reduced in replicate
    order.  ``workers`` (>= 1) is accepted for compatibility and does not
    change the computation: the report is bit-identical for a fixed (seed,
    reps), whatever BLOCK_ELEMENTS.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    evaluate, finish = _block_evaluator(table, sizes, estimator)
    rng = _run_rng(seed)
    base = np.repeat(np.arange(sizes.Q), sizes.sizes)
    chunks = _chunks(reps, sizes.N, sizes.Q, lambda replicates: rng.permuted(
        np.tile(base, (len(replicates), 1)), axis=1
    ))
    if truth is not None:
        truth = np.asarray(truth, dtype=np.float64).ravel()
    n, failures, mean, cov, mean_cov, coverage = _drive(chunks, evaluate, finish, truth, alpha)
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


def compare_saturated_unsaturated(table, sizes, spec):
    """Exact covariance ordering between saturated and unsaturated fits.

    Every assignment has the same cell rows and sizes, so each model has one
    coefficient map taking the cell means to the coefficients: the saturated
    one is the Kronecker inverse of its cell rows, the unsaturated one A_+ is
    factored once, from the cell rows that ``build_design`` builds too
    (``_model_maps``).  The enumeration evaluates both on blocks of
    assignments.  Reports exact covariances of the included saturated and
    the unsaturated coefficients, whether their difference is PSD (its
    least eigenvalue at least -IDENTITY_RTOL times the largest entry of the
    saturated covariance, so rescaling the outcomes keeps the verdict), and
    the closed-form unsaturated covariance J G (diag(S_zz/N_z) - S/N) G^T J^T
    from the potential outcomes, with J = (I, D) and D read off A_+ and the
    model's X^T as in ``omitted_algebra``.
    """
    if spec.K != table.K:
        raise ValueError("population and model disagree on the number of factors")
    p = len(spec.terms)
    rows, included_pos, omitted_pos, design_t = _model_maps(spec)
    A_plus = _coef_map(rows, sizes.sizes)
    J = _moment_map(A_plus, included_pos, omitted_pos, design_t)
    sat = _saturated_map(spec.delta.delta, sizes.sizes)[1:][included_pos]
    mean, cov = exact_expectations(table, sizes, np.vstack([sat, A_plus[1:]]))
    mean_sat, mean_uns = mean[:p], mean[p:]
    cov_sat, cov_uns = cov[:p, :p], cov[p:, p:]

    JG = effect_map(product_scheme(spec.delta)).T(J.T).T
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
        "psd_ordering": bool(eigs.min() >= -IDENTITY_RTOL * np.abs(cov_sat).max()),
    }
