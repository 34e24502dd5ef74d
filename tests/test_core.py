import csv
import re
from pathlib import Path

import numpy as np
import pytest

from factorial2k import (
    AssignmentTable,
    CellMoments,
    FactorSpec,
    cell_index,
    cell_summary,
    default_spec,
    enumerate_subsets,
    enumerate_treatments,
    ingest_csv,
    moment_estimates,
)
import factorial2k
from factorial2k import core
from factorial2k.core import MAX_FACTORS, _cell_moments
from factorial2k.errors import EmptyCellError, ParseError, SingletonCellError

from conftest import spy_calls


def test_enumerate_treatments_base_case():
    assert enumerate_treatments(1) == [(0,), (1,)]


def test_enumerate_treatments_2x2_order():
    assert enumerate_treatments(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_treatments_2x3_endpoints():
    cells = enumerate_treatments(3)
    assert len(cells) == 8
    assert cells[0] == (0, 0, 0)
    assert cells[-1] == (1, 1, 1)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_cell_index_bijection(K):
    cells = enumerate_treatments(K)
    assert len(set(cells)) == 2 ** K
    for i, z in enumerate(cells):
        assert cell_index(z) == i
        assert i == sum(z[k] * 2 ** (K - 1 - k) for k in range(K))


def test_subset_order_singletons_first():
    subsets = enumerate_subsets(3)
    assert subsets == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert subsets[-1] == (0, 1, 2)


@pytest.mark.parametrize("K", range(1, 13))
def test_canonical_masks_match_subset_masks(K):
    expected = [core.subset_mask(s, K) for s in enumerate_subsets(K)]
    masks = core.canonical_masks(K)
    assert masks.dtype == np.int64
    np.testing.assert_array_equal(masks, expected)


def test_package_and_project_versions_agree():
    # every run's config embeds the version; tomllib is not in Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r'^\[project\]$.*?^version = "([^"]+)"$', text, re.M | re.S)
    assert project.group(1) == factorial2k.__version__


def test_factor_spec_validation():
    with pytest.raises(ValueError):
        FactorSpec(())
    with pytest.raises(ValueError):
        FactorSpec(("A", "A"))
    assert default_spec(MAX_FACTORS).K == MAX_FACTORS == 12
    with pytest.raises(ValueError, match="at most 12"):
        default_spec(13)
    assert default_spec(3).labels == ("A", "B", "C")
    assert default_spec(2).subset_label((0, 1)) == "A:B"


@pytest.mark.parametrize("label", ["", "A:B", ":", "B:", "(Intercept)"])
def test_factor_spec_rejects_labels_that_collide(label):
    # "A:B" would name both a factor and the A x B interaction, and
    # "(Intercept)" a factor and the regression's intercept
    with pytest.raises(ValueError, match="must be nonempty"):
        FactorSpec(("A", "B", label))


@pytest.mark.parametrize("K", range(1, 13))
def test_effect_labels_name_every_subset_once(K):
    spec = FactorSpec(tuple(f"x{k}" for k in range(K)))
    expected = tuple(spec.subset_label(s) for s in enumerate_subsets(K))
    assert spec.effect_labels == expected
    assert len(set(expected)) == 2 ** K - 1
    assert core.canonical_subsets(K) == tuple(enumerate_subsets(K))
    assert core.canonical_subsets(K) is core.canonical_subsets(K)


def test_cell_summary_direct_arithmetic(balanced_2x2):
    s = cell_summary(balanced_2x2)
    assert np.array_equal(s.counts, [2, 2, 2, 2])
    # cell (00) outcomes {1,3}: mean 2, unbiased variance 2
    assert s.means[0] == 2.0
    assert (s.ss / (s.counts - 1))[0] == 2.0
    np.testing.assert_allclose(s.means, [2.0, 3.0, 6.0, 8.0])
    np.testing.assert_allclose(s.ss / (s.counts - 1), [2.0, 2.0, 2.0, 8.0])


def test_cell_summary_constant_data():
    spec = default_spec(2)
    levels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 2)
    data = AssignmentTable(spec, levels, np.full(8, 7.5))
    s = cell_summary(data)
    assert np.all(s.means == 7.5)
    assert np.all(s.ss / (s.counts - 1) == 0.0)


def test_cell_summary_weighted_mean_identity(balanced_2x2):
    s = cell_summary(balanced_2x2)
    total = balanced_2x2.outcome.sum()
    assert np.isclose((s.counts * s.means).sum(), total)


def test_cell_summary_empty_and_singleton_errors():
    spec = default_spec(2)
    data = AssignmentTable(spec, np.array([[0, 0], [0, 1], [1, 0]]), np.arange(3.0))
    with pytest.raises(EmptyCellError):
        cell_summary(data)
    full = AssignmentTable(
        spec, np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), np.arange(4.0)
    )
    with pytest.raises(SingletonCellError):
        cell_summary(full, variances=True)
    s = cell_summary(full, variances=False)
    np.testing.assert_allclose(s.means, [0.0, 1.0, 2.0, 3.0])


def test_ingest_csv_roundtrip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B,Y\n0,0,1.5\n0,1,2\n1,0,3\n1,1,4\n")
    data = ingest_csv(path, default_spec(2))
    assert data.N == 4
    np.testing.assert_allclose(data.outcome, [1.5, 2.0, 3.0, 4.0])
    assert np.array_equal(data.assignment[2], [1, 0])


def test_ingest_csv_missing_outcome(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B\n0,0\n")
    with pytest.raises(ParseError):
        ingest_csv(path, default_spec(2))


def test_ingest_csv_nonbinary_factor(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B,Y\n2,0,1.0\n")
    with pytest.raises(ParseError):
        ingest_csv(path, default_spec(2))


def test_ingest_csv_nonnumeric_outcome(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B,Y\n0,0,oops\n")
    with pytest.raises(ParseError):
        ingest_csv(path, default_spec(2))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_ingest_csv_non_finite_outcome(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(f"A,B,Y\n0,0,1.0\n0,1,{text}\n")
    with pytest.raises(ParseError, match="line 3"):
        ingest_csv(path, default_spec(2))


@pytest.mark.parametrize("bad_row, got", [("1", 1), ("0,1,2.0,9", 4)])
def test_ingest_csv_wrong_field_count(tmp_path, bad_row, got):
    path = tmp_path / "d.csv"
    path.write_text(f"A,B,Y\n0,0,1.0\n{bad_row}\n1,0,3.0\n")
    with pytest.raises(ParseError, match=f"line 3: expected 3 fields, got {got}"):
        ingest_csv(path, default_spec(2))


def test_assignment_table_level_validation():
    spec = default_spec(2)
    y = np.arange(2.0)
    for bad in ([[0.5, 0.0], [1.0, 1.0]], [[0, 1], [1.7, 0]], [[0, 2], [1, 1]]):
        with pytest.raises(ValueError, match="0/1"):
            AssignmentTable(spec, np.array(bad), y)
    for good in (np.array([[True, False], [False, True]]), np.array([[1.0, 0.0], [0.0, 1.0]])):
        data = AssignmentTable(spec, good, y)
        assert data.assignment.dtype == np.int64
        np.testing.assert_array_equal(data.cell, [2, 1])


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_cell_summary_matches_mask_loop(offset):
    # reference: one boolean mask per cell, as numpy's mean and var compute it
    rng = np.random.default_rng(5)
    spec = default_spec(3)
    cells = rng.permutation(np.repeat(np.arange(8), rng.integers(2, 9, size=8)))
    levels = (cells[:, None] >> np.arange(2, -1, -1)) & 1
    data = AssignmentTable(spec, levels, offset + rng.normal(0.0, 3.0, cells.size))
    s = cell_summary(data)
    for q in range(8):
        y = data.outcome[data.cell == q]
        assert s.counts[q] == y.size
        assert abs(s.means[q] - y.mean()) <= 1e-14 * abs(y.mean()) + 1e-14
        assert abs((s.ss / (s.counts - 1))[q] - y.var(ddof=1)) <= 1e-12 * y.var(ddof=1)


def test_cell_summary_returns_the_cached_moments(balanced_2x2):
    # one read-only object, no copy: the checks pass it through
    s = cell_summary(balanced_2x2)
    assert isinstance(s, CellMoments)
    assert s is balanced_2x2.moments is moment_estimates(balanced_2x2)
    assert not any(a.flags.writeable for a in s)
    np.testing.assert_array_equal(s.y_hat, s.means)
    np.testing.assert_array_equal(s.proportions, [0.25] * 4)


def test_cell_moments_block_equals_stacked_rows():
    # one offset bincount over a (B, N) block, against each row on its own
    rng = np.random.default_rng(6)
    cells = rng.integers(0, 8, size=(40, 30))
    cells[3] = 5  # a row with seven empty cells
    outcomes = 1e6 + rng.normal(0.0, 2.0, size=cells.shape)
    block = _cell_moments(cells, outcomes, 8)
    rows = [_cell_moments(c, y, 8) for c, y in zip(cells, outcomes)]
    for got, want in zip(block, zip(*rows)):
        assert got.shape == (40, 8)
        np.testing.assert_array_equal(got, np.stack(want))


@pytest.mark.parametrize("rows", [None, 40])
def test_cell_moments_with_given_counts_equal_counted(rows):
    # a complete randomization fixes N_z: every row of a block shares the design's counts
    rng = np.random.default_rng(7)
    sizes = np.array([2, 5, 3, 4, 2, 6, 3, 5])
    base = np.repeat(np.arange(8), sizes)
    cells = rng.permuted(np.tile(base, (rows or 1, 1)), axis=1)
    cells = cells[0] if rows is None else cells
    outcomes = 1e6 + rng.normal(0.0, 2.0, size=cells.shape)
    counted = _cell_moments(cells, outcomes, 8)
    given = _cell_moments(cells, outcomes, 8, counts=sizes)
    assert given.counts.shape == counted.counts.shape == cells.shape[:-1] + (8,)
    assert not given.counts.flags.writeable
    for name in CellMoments._fields:
        got, want = getattr(given, name), getattr(counted, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert given.v_hat.tobytes() == counted.v_hat.tobytes()


# ingest: a plain comma-separated file takes one np.loadtxt pass (_read_plain);
# every other file, and every error, the csv.reader loop (_read_rows)


def _ingest(monkeypatch, path, spec, **kwargs):
    """ingest_csv's table and whether the csv.reader loop ran."""
    rows = spy_calls(monkeypatch, "core", "_read_rows")
    data = ingest_csv(path, spec, **kwargs)
    return data, len(rows) == 1


def _assert_same_table(a, b):
    for name in ("assignment", "outcome", "cell"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _plain_text(rng, n, K=3, extra=False):
    labels = [chr(ord("A") + k) for k in range(K)]
    header = labels + ["Y"] + (["note"] if extra else [])
    lines = [",".join(header)]
    for _ in range(n):
        fields = [str(v) for v in rng.integers(0, 2, size=K)] + [repr(rng.normal(0.0, 1e3))]
        lines.append(",".join(fields + (["text"] if extra else [])))
    return "\n".join(lines) + "\n"


def _loadtxt_calls(monkeypatch):
    """Record the positional arguments of every np.loadtxt call."""
    calls, original = [], np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


@pytest.mark.parametrize("n", [1, 2, 5000, 60000])
@pytest.mark.parametrize("trailing_newline", [True, False])
def test_ingest_plain_file_takes_vectorised_path(tmp_path, monkeypatch, n, trailing_newline):
    text = _plain_text(np.random.default_rng(n), n)
    path = tmp_path / "d.csv"
    path.write_text(text if trailing_newline else text[:-1])
    assert (path.stat().st_size > core.READ_CHUNK) == (n == 60000)
    spec = default_spec(3)
    loads = _loadtxt_calls(monkeypatch)
    data, row_by_row = _ingest(monkeypatch, path, spec)
    assert not row_by_row
    # numpy's C reader reads a path in chunks, but a file handle line by line
    assert len(loads) == 1 and isinstance(loads[0][0], str) and Path(loads[0][0]).is_absolute()
    assert data.N == n
    _assert_same_table(data, core._read_rows(path, spec, "Y"))


def test_ingest_vectorised_extra_column_and_repeated_name(tmp_path, monkeypatch):
    spec = default_spec(2)
    path = tmp_path / "d.csv"
    path.write_text(_plain_text(np.random.default_rng(1), 30, K=2, extra=True))
    data, row_by_row = _ingest(monkeypatch, path, spec)
    assert not row_by_row
    _assert_same_table(data, core._read_rows(path, spec, "Y"))
    # a repeated name means its last column; the first A is read but not used
    path.write_text("A,B,A,Y,note\n1,0,0,1.5,x\n9,1,1,-2,yy\n0,0,1,3e2,\n")
    data, row_by_row = _ingest(monkeypatch, path, spec)
    assert not row_by_row
    np.testing.assert_array_equal(data.assignment, [[0, 0], [1, 1], [1, 0]])
    np.testing.assert_array_equal(data.outcome, [1.5, -2.0, 300.0])
    _assert_same_table(data, core._read_rows(path, spec, "Y"))


def test_ingest_url_like_relative_path_is_read_as_a_file(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("opened a URL")

    import urllib.request
    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    (tmp_path / "http:" / "x").mkdir(parents=True)
    (tmp_path / "http:" / "x" / "d.csv").write_text("A,B,Y\n1,0,2.5\n0,1,-1\n")
    monkeypatch.chdir(tmp_path)
    data, row_by_row = _ingest(monkeypatch, "http://x/d.csv", default_spec(2))
    assert not row_by_row
    np.testing.assert_array_equal(data.outcome, [2.5, -1.0])


@pytest.mark.parametrize("suffix", core.COMPRESSED_SUFFIXES)
def test_ingest_plain_file_with_compression_suffix_takes_row_by_row_path(
    tmp_path, monkeypatch, suffix
):
    # np.loadtxt would open the path through a decompressor
    path = tmp_path / f"x.csv{suffix}"
    path.write_text(_plain_text(np.random.default_rng(4), 50))
    spec = default_spec(3)
    loads = _loadtxt_calls(monkeypatch)
    data, row_by_row = _ingest(monkeypatch, path, spec)
    assert row_by_row and not loads
    _assert_same_table(data, core._read_rows(path, spec, "Y"))


def test_ingest_compressed_file_fails_as_row_by_row_read(tmp_path, monkeypatch):
    import bz2

    path = tmp_path / "x.csv.bz2"
    path.write_bytes(bz2.compress(_plain_text(np.random.default_rng(5), 200).encode()))
    spec = default_spec(3)
    with pytest.raises(Exception) as want:
        core._read_rows(path, spec, "Y")
    loads = _loadtxt_calls(monkeypatch)
    with pytest.raises(type(want.value)):
        ingest_csv(path, spec)
    assert not loads


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_ingest_strips_byte_order_mark_from_header(tmp_path, monkeypatch, newline):
    # Excel's "CSV UTF-8" files start with one
    path = tmp_path / "d.csv"
    text = "\ufeff" + _plain_text(np.random.default_rng(6), 40)
    path.write_text(text.replace("\n", newline), encoding="utf-8", newline="")
    spec = default_spec(3)
    data, row_by_row = _ingest(monkeypatch, path, spec)
    assert row_by_row == (newline == "\r\n")
    assert data.N == 40
    _assert_same_table(data, core._read_rows(path, spec, "Y"))


@pytest.mark.parametrize(
    "text, levels, outcome",
    [
        ('A,B,Y,note\n0,1,2.5,"x, y"\n1,0,-1,z\n', [[0, 1], [1, 0]], [2.5, -1.0]),
        # split at the quoted newline, both halves would be rows of four fields
        ('A,B,Y,note\n0,1,2.5,"x\n1,0,-1,y"\n', [[0, 1]], [2.5]),
        ('A,B,Y\n"0",1,"2.5"\n', [[0, 1]], [2.5]),
        ("A,B,Y,note\r\n0,1,2.5,x\r\n1,1,4,y\r\n", [[0, 1], [1, 1]], [2.5, 4.0]),
        ("A,B,Y\n0,1,2.5\n\n1,1,4\n\n", [[0, 1], [1, 1]], [2.5, 4.0]),
        ("A,B,Y\n 1 ,0, 2.5 \n", [[1, 0]], [2.5]),
        ("A,B,Y\n1,0,1_000\n", [[1, 0]], [1000.0]),
        ("A,B,Y\n1,0,١٢\n", [[1, 0]], [12.0]),
    ],
    ids=["quoted-comma", "quoted-newline", "quoted-values", "crlf", "blank-lines",
         "spaces", "underscore", "arabic-indic"],
)
def test_ingest_other_dialects_take_row_by_row_path(tmp_path, monkeypatch, text, levels, outcome):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    data, row_by_row = _ingest(monkeypatch, path, default_spec(2))
    assert row_by_row
    np.testing.assert_array_equal(data.assignment, levels)
    np.testing.assert_array_equal(data.outcome, outcome)


def test_ingest_line_over_csv_field_limit_takes_row_by_row_path(tmp_path, monkeypatch):
    # numpy would parse the padded outcome; the csv module refuses the field
    path = tmp_path / "d.csv"
    path.write_text("A,B,Y\n0,1," + " " * (csv.field_size_limit() + 1) + "2.5\n")
    rows = spy_calls(monkeypatch, "core", "_read_rows")
    with pytest.raises(ParseError, match="^line 2: field larger than field limit"):
        ingest_csv(path, default_spec(2))
    assert len(rows) == 1


@pytest.mark.parametrize(
    "body, message",
    [
        ("0.0,1,2.5\n", "line 2: factor A has non-binary value '0.0'"),
        ("1,10,2.5\n", "line 2: factor B has non-binary value '10'"),
        ("1,0,2.5\n01,1,3\n", "line 3: factor A has non-binary value '01'"),
        ("1,0,2.5\n0,1,NaN\n", "line 3: non-finite outcome 'NaN'"),
        ("1,0,2.5\n   \n0,1,3\n", "line 3: expected 3 fields, got 1"),
        ("1,0,2.5\n0,1,\n", "line 3: non-numeric outcome ''"),
        ("", "no data rows"),
        ("\n\n", "no data rows"),
    ],
)
def test_ingest_errors_come_from_row_by_row_path(tmp_path, monkeypatch, body, message):
    path = tmp_path / "d.csv"
    path.write_text("A,B,Y\n" + body)
    rows = spy_calls(monkeypatch, "core", "_read_rows")
    with pytest.raises(ParseError) as info:
        ingest_csv(path, default_spec(2))
    assert str(info.value) == message
    assert len(rows) == 1


def test_ingest_refuses_outcome_column_that_is_also_a_factor(tmp_path, monkeypatch):
    # the effects of B on B would be reported; refused before the file is read
    path = tmp_path / "d.csv"
    path.write_text("A,B\n0,1\n1,1\n")
    plain = spy_calls(monkeypatch, "core", "_read_plain")
    rows = spy_calls(monkeypatch, "core", "_read_rows")
    with pytest.raises(ParseError, match="outcome column 'B' is also a factor column"):
        ingest_csv(path, default_spec(2), outcome_col="B")
    assert (plain, rows) == ([], [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, message",
    [("", "empty file"), ("A,B,Y\n", "no data rows"), ("A,B,Y", "no data rows"),
     ("A,B,Y\n\n\n", "no data rows")],
)
def test_ingest_without_data_raises_no_warning(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        ingest_csv(path, default_spec(2))
    assert str(info.value) == message


def test_plain_row_count_and_line_limit_across_read_chunks(tmp_path):
    path = tmp_path / "d.csv"
    row = "0,1,2.5\n"
    n = 2 * core.READ_CHUNK // len(row) + 3
    path.write_text("A,B,Y\n" + row * n)
    assert core._plain_rows(path) == n
    path.write_text("A,B,Y\n" + row * n + "1,1,4")
    assert core._plain_rows(path) == n + 1
    # a line one byte over the csv field limit, straddling the first chunk boundary
    limit = csv.field_size_limit()
    k = (core.READ_CHUNK - limit // 2) // len(row)
    for length, rows in [(limit, k + 2), (limit + 1, None)]:
        long_row = "0,1," + " " * (length - 7) + "2.5\n"
        path.write_text("A,B,Y\n" + row * k + long_row + "1,0,3\n")
        assert core._plain_rows(path) == rows
