"""Factors, treatment cells, observed data, and cell-level summaries.

Conventions used throughout the package:

* Treatment cells are tuples of 0/1 levels, listed in binary-counting order
  with the last factor varying fastest.  The index of cell ``z`` is
  ``sum(z[k] * 2**(K-1-k))``.
* Factor subsets are tuples of sorted 0-based factor indices.  The canonical
  order over nonempty subsets is by cardinality first, lexicographic within
  cardinality: all singletons, then pairs, ..., ending with the full set.
"""

from dataclasses import dataclass, field
from itertools import combinations, product
import csv
import math

import numpy as np

from .errors import EmptyCellError, ParseError, SingletonCellError

# the dense (2^K - 1) x 2^K contrast matrix takes 128 MiB at K=12 and 32 GiB at K=16
MAX_FACTORS = 12


@dataclass(frozen=True)
class FactorSpec:
    """K binary factors with distinct human-readable labels."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 1:
            raise ValueError("need at least one factor")
        if len(labels) > MAX_FACTORS:
            raise ValueError(f"at most {MAX_FACTORS} factors supported")
        if len(set(labels)) != len(labels):
            raise ValueError("factor labels must be distinct")

    @property
    def K(self):
        return len(self.labels)

    @property
    def Q(self):
        return 2 ** self.K

    def subset_label(self, subset):
        """Label like ``A:B`` for a subset of factor indices."""
        return ":".join(self.labels[k] for k in subset)


def default_spec(K):
    """FactorSpec with labels A, B, C, ..."""
    return FactorSpec(tuple(chr(ord("A") + k) for k in range(K)))


def enumerate_treatments(K):
    """All 2^K cells in binary-counting order, last factor fastest.

    For K=2: (0,0), (0,1), (1,0), (1,1).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return [tuple(z) for z in product((0, 1), repeat=K)]


def cell_index(z):
    """Position of cell ``z`` in the binary-counting order."""
    idx = 0
    for level in z:
        idx = 2 * idx + level
    return idx


def enumerate_subsets(K):
    """All nonempty subsets of [K] in canonical (cardinality, lex) order."""
    out = []
    for m in range(1, K + 1):
        out.extend(tuple(c) for c in combinations(range(K), m))
    return out


def parse_subset_label(label, spec):
    """Parse a label like ``A:B`` into a sorted tuple of factor indices."""
    parts = label.split(":")
    try:
        idx = tuple(sorted(spec.labels.index(p) for p in parts))
    except ValueError:
        raise ParseError(f"unknown factor in term {label!r}")
    if len(set(idx)) != len(idx):
        raise ParseError(f"repeated factor in term {label!r}")
    return idx


@dataclass(frozen=True)
class AssignmentTable:
    """Observed data: per-unit factor levels and outcome."""

    spec: FactorSpec
    assignment: np.ndarray  # (N, K) of 0/1
    outcome: np.ndarray  # (N,)
    cell: np.ndarray = field(init=False)  # (N,) cell index per unit

    def __post_init__(self):
        z = np.asarray(self.assignment)
        y = np.asarray(self.outcome, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.spec.K:
            raise ValueError("assignment must be N x K")
        if y.shape != (z.shape[0],):
            raise ValueError("outcome length must match assignment rows")
        # checked before the integer cast, which would truncate 0.5 to 0
        if not ((z == 0) | (z == 1)).all():
            raise ValueError("factor levels must be 0/1")
        z = z.astype(np.int64, copy=False)
        object.__setattr__(self, "assignment", z)
        object.__setattr__(self, "outcome", y)
        weights = 2 ** np.arange(self.spec.K - 1, -1, -1, dtype=np.int64)
        object.__setattr__(self, "cell", z @ weights)

    @property
    def N(self):
        return self.outcome.shape[0]


@dataclass(frozen=True)
class CellSummary:
    """Per-cell counts, proportions, means, and unbiased variances."""

    spec: FactorSpec
    counts: np.ndarray  # (Q,)
    means: np.ndarray  # (Q,)
    variances: np.ndarray  # (Q,), nan where count < 2

    @property
    def N(self):
        return int(self.counts.sum())

    @property
    def proportions(self):
        return self.counts / self.N


def cell_summary(data, variances=True):
    """Counts, means, and within-cell variances per cell.

    Raises EmptyCellError when a cell has no units.  A cell with a single
    unit has a NaN variance, or raises SingletonCellError when
    ``variances`` are required.
    """
    Q = data.spec.Q
    counts = np.bincount(data.cell, minlength=Q)
    if (counts == 0).any():
        raise EmptyCellError(f"cells with no units: {np.flatnonzero(counts == 0).tolist()}")
    if variances and (counts < 2).any():
        raise SingletonCellError(f"cell {np.flatnonzero(counts < 2)[0]} has a single unit")
    means = np.bincount(data.cell, weights=data.outcome, minlength=Q) / counts
    deviation = data.outcome - means[data.cell]
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.bincount(data.cell, weights=deviation ** 2, minlength=Q) / (counts - 1)
    var[counts < 2] = np.nan
    return CellSummary(data.spec, counts, means, var)


def ingest_csv(path, spec, outcome_col="Y"):
    """Read an AssignmentTable from a CSV file with one column per factor.

    Factor columns are matched by label and parsed strictly as 0/1; the
    outcome column must parse as a float.  Row order is preserved.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file")
        missing = [c for c in (*spec.labels, outcome_col) if c not in header]
        if missing:
            raise ParseError(f"missing columns: {missing}")
        # a repeated column name refers to its last occurrence
        column = {name: i for i, name in enumerate(header)}
        factor_cols = [(label, column[label]) for label in spec.labels]
        y_col = column[outcome_col]
        levels, outcomes = [], []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != len(header):
                raise ParseError(
                    f"line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            z = []
            for label, i in factor_cols:
                value = row[i].strip()
                if value not in ("0", "1"):
                    raise ParseError(
                        f"line {lineno}: factor {label} has non-binary value {value!r}"
                    )
                z.append(int(value))
            try:
                y = float(row[y_col])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric outcome {row[y_col]!r}")
            if not math.isfinite(y):
                raise ParseError(f"line {lineno}: non-finite outcome {row[y_col]!r}")
            levels.append(z)
            outcomes.append(y)
    if not levels:
        raise ParseError("no data rows")
    return AssignmentTable(spec, np.array(levels), np.array(outcomes))
