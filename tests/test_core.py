import numpy as np
import pytest

from factorial2k import (
    AssignmentTable,
    FactorSpec,
    cell_index,
    cell_summary,
    default_spec,
    enumerate_subsets,
    enumerate_treatments,
    ingest_csv,
)
from factorial2k.core import MAX_FACTORS
from factorial2k.errors import EmptyCellError, ParseError, SingletonCellError


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


def test_cell_summary_direct_arithmetic(balanced_2x2):
    s = cell_summary(balanced_2x2)
    assert np.array_equal(s.counts, [2, 2, 2, 2])
    # cell (00) outcomes {1,3}: mean 2, unbiased variance 2
    assert s.means[0] == 2.0
    assert s.variances[0] == 2.0
    np.testing.assert_allclose(s.means, [2.0, 3.0, 6.0, 8.0])
    np.testing.assert_allclose(s.variances, [2.0, 2.0, 2.0, 8.0])


def test_cell_summary_constant_data():
    spec = default_spec(2)
    levels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 2)
    data = AssignmentTable(spec, levels, np.full(8, 7.5))
    s = cell_summary(data)
    assert np.all(s.means == 7.5)
    assert np.all(s.variances == 0.0)


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
        assert abs(s.variances[q] - y.var(ddof=1)) <= 1e-12 * y.var(ddof=1)
