"""Factors, treatment cells, observed data, and its per-cell moments.

Every estimator reads the data through ``CellMoments``: the counts N_z,
means Ybar_z and within-cell sums of squares SS_z of each cell, from one
pass, for one table or for a block of assignments.

Conventions used throughout the package:

* Treatment cells are tuples of 0/1 levels, listed in binary-counting order
  with the last factor varying fastest.  The index of cell ``z`` is
  ``sum(z[k] * 2**(K-1-k))``.
* Factor subsets are tuples of sorted 0-based factor indices.  The canonical
  order over nonempty subsets is by cardinality first, lexicographic within
  cardinality: all singletons, then pairs, ..., ending with the full set.
  The bitmask of a subset sets bit K-1-k for each factor k in it, as the
  cell index does for each factor at level 1.
"""

from dataclasses import dataclass, field
from itertools import combinations, product
import csv
import functools
import math
import os
from typing import NamedTuple
import warnings

import numpy as np

from .errors import DimensionMismatchError, EmptyCellError, ParseError, SingletonCellError

# analyze runs on per-factor transforms of 3^K entries (4 MiB at K=12); the dense contrast
# matrix of --covariance, simulate and verify takes 128 MiB at K=12 (32 GiB at K=16)
MAX_FACTORS = 12
# analyze --covariance writes two Q x Q matrices as JSON: at K=10 it took 1.7 s, 302 MB
# peak RSS and wrote 48 MB; at K=12, 43-45 s, 3.9-4.1 GB and 768 MB.  verify fits a dense
# N x Q treatment-based design: --K 10 took 3.7 s and 271 MB, --K 11 20.6 s and 955 MB
# (2-vCPU VM, OPENBLAS_NUM_THREADS=1), so verify stops at the same K
MAX_COVARIANCE_FACTORS = 10
# bytes per read when checking that a CSV file is plain
READ_CHUNK = 1 << 20
# names that np.loadtxt would open through a decompressor
COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


# the label of the intercept in a regression report
INTERCEPT_LABEL = "(Intercept)"


@dataclass(frozen=True)
class FactorSpec:
    """K binary factors with distinct human-readable labels.

    A label is nonempty, holds no ``:`` and is not ``(Intercept)``, so every
    subset label ``A:B`` names one subset and no coefficient shares the
    intercept's name.
    """

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
        for label in labels:
            if not label or ":" in label or label == INTERCEPT_LABEL:
                raise ValueError(
                    f"factor label {label!r} must be nonempty, hold no ':' and not be "
                    f"{INTERCEPT_LABEL!r}"
                )

    @property
    def K(self):
        return len(self.labels)

    @property
    def Q(self):
        return 2 ** self.K

    def subset_label(self, subset):
        """Label like ``A:B`` for a subset of factor indices."""
        return ":".join(self.labels[k] for k in subset)

    @functools.cached_property
    def effect_labels(self):
        """Labels of every nonempty subset in canonical order, built once."""
        return tuple(
            ":".join(c) for m in range(1, self.K + 1) for c in combinations(self.labels, m)
        )


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
    """All nonempty subsets of [K] in canonical (cardinality, lex) order, as a new list."""
    return list(canonical_subsets(K))


@functools.cache
def canonical_subsets(K):
    """The nonempty subsets of [K] in canonical order, as a tuple built once per K."""
    return tuple(c for m in range(1, K + 1) for c in combinations(range(K), m))


def subset_mask(subset, K):
    """Bitmask of a set of factor indices; each must lie in 0..K-1 and appear once."""
    mask = 0
    for k in subset:
        if not 0 <= k < K or mask >> (K - 1 - k) & 1:
            raise DimensionMismatchError(f"{tuple(subset)} is not a set of factors in 0..{K - 1}")
        mask |= 1 << (K - 1 - k)
    return mask


@functools.cache
def canonical_masks(K):
    """Bitmasks of the nonempty subsets of [K], in canonical order; read-only, built once per K.

    Factor 0 is the top bit, so within one cardinality lexicographic subset
    order is descending mask order.
    """
    masks = np.arange(1, 2 ** K, dtype=np.int64)
    size = ((masks[:, None] >> np.arange(K)) & 1).sum(axis=1)
    masks = masks[np.lexsort((-masks, size))]
    masks.setflags(write=False)
    return masks


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
        """The table's read-only CellMoments, from one pass, computed once."""
        if "moments" not in self._cache:
            moments = _cell_moments(self.cell, self.outcome, self.spec.Q)
            for a in moments:
                a.setflags(write=False)
            self._cache["moments"] = moments
        return self._cache["moments"]


class CellMoments(NamedTuple):
    """Per-cell counts N_z, means Ybar_z and within-cell sums of squares SS_z.

    Each field has shape (Q,) for one table, or (B, Q) for a block of B
    assignments, one row each.
    """

    counts: np.ndarray
    means: np.ndarray
    ss: np.ndarray

    @property
    def y_hat(self):
        """The moment estimate of the cell means, Yhat = Ybar."""
        return self.means

    @property
    def v_hat(self):
        """Diagonal of the conservative covariance, Vhat_z = SS_z / (N_z - 1) / N_z."""
        return self.ss / (self.counts - 1) / self.counts

    @property
    def proportions(self):
        """Cell proportions e_z = N_z / N, per row of a block."""
        return self.counts / self.counts.sum(axis=-1, keepdims=True)


def _cell_moments(cells, outcomes, Q, counts=None):
    """CellMoments of each row of assignments; zeros for an empty cell.

    ``cells`` (indices in 0..Q-1) and ``outcomes`` have shape (N,) for one
    table or (B, N) for a block of B assignments; the fields have shape
    (Q,) or (B, Q).  Row b of a block uses bins b*Q .. b*Q + Q - 1 of one
    bincount, so each row's sums run in unit order, as for that row alone.
    ``counts``, when given, are the N_z that every row shares, as in a
    complete randomization: they are not counted, and ``CellMoments.counts``
    is a read-only broadcast of them.  The kernel of a table's moments and
    of a Monte Carlo block; exact enumeration carries its cell sums down the
    assignment tree instead (``simulate._ranked``), in the same order.
    """
    cells = np.asarray(cells)
    rows = 1 if cells.ndim == 1 else cells.shape[0]
    shape = cells.shape[:-1] + (Q,)
    flat = (cells.reshape(rows, -1) + Q * np.arange(rows)[:, None]).ravel()
    y = np.asarray(outcomes, dtype=np.float64).ravel()
    if counts is None:
        counts = np.bincount(flat, minlength=rows * Q).reshape(shape)
    means = np.bincount(flat, weights=y, minlength=rows * Q).reshape(shape) / np.maximum(counts, 1)
    counts = np.broadcast_to(counts, shape)
    deviation = y - means.reshape(-1).take(flat)
    deviation *= deviation
    ss = np.bincount(flat, weights=deviation, minlength=rows * Q)
    return CellMoments(counts, means, ss.reshape(shape))


def cell_summary(data, variances=True):
    """The table's CellMoments, after checking that every cell can be estimated.

    Raises EmptyCellError when a cell has no units, and SingletonCellError
    when a cell has a single unit and ``variances`` are required.  Returns
    ``data.moments`` itself, not a copy.
    """
    counts = data.moments.counts
    if (counts == 0).any():
        raise EmptyCellError(f"cells with no units: {np.flatnonzero(counts == 0).tolist()}")
    if variances and (counts < 2).any():
        raise SingletonCellError(f"cell {np.flatnonzero(counts < 2)[0]} has a single unit")
    return data.moments


def ingest_csv(path, spec, outcome_col="Y"):
    """Read an AssignmentTable from a CSV file with one column per factor.

    Factor columns are matched by label and parsed strictly as 0/1; the
    outcome column must parse as a float.  Row order is preserved.  A plain
    comma-separated file is parsed in one vectorised pass; any other file,
    and every file with an error, is read row by row, which gives the same
    table or raises the same ParseError.  The outcome column may not be a
    factor column.
    """
    if outcome_col in spec.labels:
        raise ParseError(f"outcome column {outcome_col!r} is also a factor column")
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

    numpy's C reader parses the file straight from its path, in chunks.  A
    name ending in a compression suffix is left to _read_rows, since numpy
    would decompress it, and the path is made absolute, so numpy never reads
    it as a URL.  One leading byte-order mark is dropped from the header, as
    _read_rows does.  Returns a table only when it equals _read_rows's: every
    line is one row of the header's field count, every factor field is
    exactly "0" or "1" and every outcome is finite.  Factor fields are read
    two characters wide, so "10" stays distinct from "1"; unused columns one
    wide.
    """
    if os.path.splitext(path)[1] in COMPRESSED_SUFFIXES:
        return None
    rows = _plain_rows(path)
    if rows is None or rows < 1:
        return None
    try:
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\n").removeprefix("\ufeff").split(",")
        # a repeated column name refers to its last occurrence
        column = {name: i for i, name in enumerate(header)}
        if any(c not in column for c in (*spec.labels, outcome_col)):
            return None
        factor_cols = [column[label] for label in spec.labels]
        y_col = column[outcome_col]
        types = ["U1"] * len(header)
        for i in factor_cols:
            types[i] = "U2"
        types[y_col] = "f8"
        with warnings.catch_warnings():
            # a file of blank lines holds no data; the row count below sends it on
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                os.path.abspath(os.fsdecode(path)),
                dtype=[(f"f{i}", t) for i, t in enumerate(types)],
                delimiter=",", comments=None, quotechar=None, skiprows=1, ndmin=1,
            )
    except ValueError:  # also a field count, an outcome or a byte that does not decode
        return None
    if table.size != rows:  # loadtxt skipped a blank line
        return None
    # each factor field as its two UCS-4 code points: "0" is (48, 0) and "1" is (49, 0)
    codes = table.view([(f"f{i}", ("u4", 2) if t == "U2" else t) for i, t in enumerate(types)])
    levels = []
    for i in factor_cols:
        first, second = codes[f"f{i}"].T
        one = first == ord("1")
        if second.any() or not (one | (first == ord("0"))).all():
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
        if header:
            header[0] = header[0].removeprefix("\ufeff")
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
