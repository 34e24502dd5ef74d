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
import warnings

import numpy as np

from .errors import EmptyCellError, ParseError, SingletonCellError

# the dense (2^K - 1) x 2^K contrast matrix takes 128 MiB at K=12 and 32 GiB at K=16
MAX_FACTORS = 12
# bytes per read when checking that a CSV file is plain
READ_CHUNK = 1 << 20


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
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @property
    def moments(self):
        """Read-only counts, means and within-cell sums of squares, from one pass."""
        if "moments" not in self._cache:
            moments = _cell_moments(self.cell, self.outcome, self.spec.Q)
            for a in moments:
                a.setflags(write=False)
            self._cache["moments"] = moments
        return self._cache["moments"]


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


def _cell_moments(cells, outcomes, Q):
    """Counts, means and within-cell sums of squares per cell; zeros for an empty cell.

    ``cells`` (indices in 0..Q-1) and ``outcomes`` have shape (N,) for one
    table or (B, N) for a block of B assignments; the results have shape
    (Q,) or (B, Q).  Row b of a block uses bins b*Q .. b*Q + Q - 1 of one
    bincount, so each row's sums run in unit order, as for that row alone.
    """
    cells = np.asarray(cells)
    rows = 1 if cells.ndim == 1 else cells.shape[0]
    shape = cells.shape[:-1] + (Q,)
    flat = (cells.reshape(rows, -1) + Q * np.arange(rows)[:, None]).ravel()
    y = np.asarray(outcomes, dtype=np.float64).ravel()
    counts = np.bincount(flat, minlength=rows * Q)
    means = np.bincount(flat, weights=y, minlength=rows * Q) / np.maximum(counts, 1)
    deviation = y - means[flat]
    ss = np.bincount(flat, weights=deviation ** 2, minlength=rows * Q)
    return counts.reshape(shape), means.reshape(shape), ss.reshape(shape)


def cell_summary(data, variances=True):
    """Counts, means, and within-cell variances per cell.

    Raises EmptyCellError when a cell has no units.  A cell with a single
    unit has a NaN variance, or raises SingletonCellError when
    ``variances`` are required.
    """
    counts, means, ss = data.moments
    if (counts == 0).any():
        raise EmptyCellError(f"cells with no units: {np.flatnonzero(counts == 0).tolist()}")
    if variances and (counts < 2).any():
        raise SingletonCellError(f"cell {np.flatnonzero(counts < 2)[0]} has a single unit")
    var = ss / np.maximum(counts - 1, 1)
    var[counts < 2] = np.nan
    return CellSummary(data.spec, counts, means, var)


def ingest_csv(path, spec, outcome_col="Y"):
    """Read an AssignmentTable from a CSV file with one column per factor.

    Factor columns are matched by label and parsed strictly as 0/1; the
    outcome column must parse as a float.  Row order is preserved.  A plain
    comma-separated file is parsed in one vectorised pass; any other file,
    and every file with an error, is read row by row, which gives the same
    table or raises the same ParseError.
    """
    data = _read_plain(path, spec, outcome_col)
    return data if data is not None else _read_rows(path, spec, outcome_col)


def _plain_rows(path):
    """Data rows of a file that the csv module would split exactly at "," and "\n".

    None when the file holds a quote, carriage return or NUL byte, or a
    line too long for ``csv.field_size_limit()``: those are read row by row.
    """
    limit = csv.field_size_limit()
    lines, start, offset = 0, 0, 0  # start: offset of the current line
    with open(path, "rb") as fh:
        while chunk := fh.read(READ_CHUNK):
            if b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
                return None
            ends = offset + np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            # the length of each line that ends in this chunk, without its newline
            if (np.diff(ends, prepend=start - 1) - 1).max(initial=0) > limit:
                return None
            lines += ends.size
            start = int(ends[-1]) + 1 if ends.size else start
            offset += len(chunk)
    if offset - start > limit:
        return None
    # a last line without a newline is a row as well; the first line is the header
    return lines + (offset > start) - 1


def _read_plain(path, spec, outcome_col):
    """One np.loadtxt pass over a plain file, or None to leave it to _read_rows.

    Returns a table only when it equals _read_rows's: every line is one
    row of the header's field count, every factor field is exactly "0" or
    "1" and every outcome is finite.  Factor fields are read two characters
    wide, so "10" stays distinct from "1"; unused columns one wide.
    """
    rows = _plain_rows(path)
    if rows is None or rows < 1:
        return None
    try:
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\n").split(",")
            # a repeated column name refers to its last occurrence
            column = {name: i for i, name in enumerate(header)}
            if any(c not in column for c in (*spec.labels, outcome_col)):
                return None
            factor_cols = [column[label] for label in spec.labels]
            y_col = column[outcome_col]
            if y_col in factor_cols:
                return None
            types = ["U1"] * len(header)
            for i in factor_cols:
                types[i] = "U2"
            types[y_col] = "f8"
            dtype = np.dtype([(f"f{i}", t) for i, t in enumerate(types)])
            with warnings.catch_warnings():
                # a file of blank lines holds no data; the row count below sends it on
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1
                )
    except ValueError:  # also a field count, an outcome or a byte that does not decode
        return None
    if table.size != rows:  # loadtxt skipped a blank line
        return None
    levels = []
    for i in factor_cols:
        values = table[f"f{i}"]
        one = values == "1"
        if not (one | (values == "0")).all():
            return None
        levels.append(one)
    y = np.ascontiguousarray(table[f"f{y_col}"])
    if not np.isfinite(y).all():
        return None
    return AssignmentTable(spec, np.column_stack(levels), y)


def _csv_rows(reader):
    """The rows of a csv.reader, with the csv module's own errors as ParseError."""
    try:
        yield from reader
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ParseError(f"line {reader.line_num}: {exc}") from exc


def _read_rows(path, spec, outcome_col):
    """Row-by-row csv.reader parse: any csv dialect, and every ParseError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader)
        header = next(rows, None)
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
        for row in rows:
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
