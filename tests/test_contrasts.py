import tracemalloc

import numpy as np
import pytest

from factorial2k import (
    conditional_effect_row,
    contrast_matrix,
    enumerate_subsets,
    enumerate_treatments,
    equal_scheme,
    from_joint,
    pi_cross,
    true_effects,
)
from factorial2k.contrasts import effect_map, kron_apply
from factorial2k.core import cell_index
from factorial2k.errors import DimensionMismatchError
from factorial2k.regression import rel_err
from factorial2k.simulate import make_no_three_way_population, add_three_way_term
from factorial2k.weighting import WeightingScheme, product_scheme

from conftest import spy_calls


def _row_recursive(subset, rest_levels, K):
    """Reference oracle: the m-way effect is the difference of two (m-1)-way
    effects at levels 1 and 0 of the added factor."""
    if len(subset) == 1:
        k = subset[0]
        row = np.zeros(2 ** K)
        for level, sign in ((1, 1.0), (0, -1.0)):
            z = [0] * K
            for j, lev in rest_levels.items():
                z[j] = lev
            z[k] = level
            row[cell_index(z)] += sign
        return row
    k = subset[-1]
    high = _row_recursive(subset[:-1], {**rest_levels, k: 1}, K)
    low = _row_recursive(subset[:-1], {**rest_levels, k: 0}, K)
    return high - low


def _recursive_conditional_row(subset, rest, K):
    complement = [k for k in range(K) if k not in subset]
    return _row_recursive(tuple(subset), dict(zip(complement, rest)), K)


def _recursive_contrast_matrix(scheme, K):
    """Weighted average of recursive conditional rows, skipping zero weights."""
    rows = []
    for subset in enumerate_subsets(K):
        complement = tuple(k for k in range(K) if k not in subset)
        if not complement:
            rows.append(_recursive_conditional_row(subset, (), K))
            continue
        weights = scheme.marginal(complement)
        row = np.zeros(2 ** K)
        for idx, rest in enumerate(enumerate_treatments(len(complement))):
            if weights[idx] != 0.0:
                row += weights[idx] * _recursive_conditional_row(subset, rest, K)
        rows.append(row)
    return np.vstack(rows)


def test_conditional_main_effect_2x2():
    # effect of the first factor at second-factor level 0: Ybar(10) - Ybar(00)
    row = conditional_effect_row((0,), (0,), 2)
    np.testing.assert_array_equal(row, [-1.0, 0.0, 1.0, 0.0])
    row1 = conditional_effect_row((0,), (1,), 2)
    np.testing.assert_array_equal(row1, [0.0, -1.0, 0.0, 1.0])


def test_conditional_two_way_2x3():
    # two-way effect of the first two factors at third-factor level c
    for c in (0, 1):
        row = conditional_effect_row((0, 1), (c,), 3)
        expected = np.zeros(8)
        for (a, b), sign in (((1, 1), 1), ((1, 0), -1), ((0, 1), -1), ((0, 0), 1)):
            expected[4 * a + 2 * b + c] = sign
        np.testing.assert_array_equal(row, expected)


def test_three_way_sign_convention():
    row = conditional_effect_row((0, 1, 2), (), 3)
    for i, (a, b, c) in enumerate(enumerate_treatments(3)):
        assert row[i] == (-1.0) ** (3 - (a + b + c))
        assert row[i] == (-1.0) ** (a + b + c + 1)


def test_recursion_order_irrelevance():
    # add first factor then second, vs second then first
    via_second = conditional_effect_row((0,), (1,), 2) - conditional_effect_row(
        (0,), (0,), 2
    )
    via_first = conditional_effect_row((1,), (1,), 2) - conditional_effect_row(
        (1,), (0,), 2
    )
    both = conditional_effect_row((0, 1), (), 2)
    np.testing.assert_array_equal(via_second, both)
    np.testing.assert_array_equal(via_first, both)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_recursion_matches_closed_form_exhaustively(K):
    for subset in enumerate_subsets(K):
        for rest in enumerate_treatments(K - len(subset)) if len(subset) < K else [()]:
            got = conditional_effect_row(subset, rest, K)
            np.testing.assert_array_equal(got, _recursive_conditional_row(subset, rest, K))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_contrast_matrix_equals_recursive_oracle(K):
    rng = np.random.default_rng(100 + K)
    point_mass = np.zeros(2 ** K)
    point_mass[rng.integers(2 ** K)] = 1.0
    schemes = [
        from_joint(rng.dirichlet(np.ones(2 ** K))),
        equal_scheme(K),
        product_scheme(rng.uniform(0, 1, K)),
        from_joint(point_mass),
    ]
    for scheme in schemes:
        got = contrast_matrix(scheme, K).matrix
        np.testing.assert_array_equal(got, _recursive_contrast_matrix(scheme, K))


def test_conditional_row_validation():
    with pytest.raises(DimensionMismatchError):
        conditional_effect_row((0,), (), 2)
    with pytest.raises(DimensionMismatchError):
        conditional_effect_row((), (0, 1), 2)
    with pytest.raises(ValueError):
        conditional_effect_row((0,), (0, 2), 3)

    # a factor index outside 0..K-1, or a repeated one
    for subset, rest, K in [((-1,), (0,), 2), ((5,), (0,), 2), ((2,), (0,), 2), ((0, 0), (0,), 3)]:
        with pytest.raises(DimensionMismatchError, match="not a set of factors"):
            conditional_effect_row(subset, rest, K)


def test_contrast_matrix_rejects_more_than_max_factors():
    with pytest.raises(DimensionMismatchError, match="1..12"):
        contrast_matrix(equal_scheme(13), 13)


def test_contrast_matrix_takes_no_marginals(monkeypatch):
    calls = []
    original = WeightingScheme.marginal
    monkeypatch.setattr(
        WeightingScheme, "marginal", lambda self, subset: calls.append(subset) or original(self, subset)
    )
    scheme = from_joint(np.random.default_rng(4).dirichlet(np.ones(2 ** 5)))
    assert contrast_matrix(scheme, 5).matrix.shape == (31, 32)
    assert calls == []


def test_general_effect_row_2x2_weights():
    s = from_joint([0.1, 0.2, 0.3, 0.4])
    pi_b = s.marginal((1,))
    row = contrast_matrix(s, 2).matrix[0]  # subset (0,)
    np.testing.assert_allclose(row, [-pi_b[0], -pi_b[1], pi_b[0], pi_b[1]])


def test_interaction_row_scheme_free():
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = from_joint(rng.dirichlet(np.ones(4)))
        np.testing.assert_allclose(
            contrast_matrix(s, 2).matrix[2], [1.0, -1.0, -1.0, 1.0]
        )


def test_general_effect_row_equal_scheme():
    row = contrast_matrix(equal_scheme(2), 2).matrix[0]
    np.testing.assert_allclose(row, [-0.5, -0.5, 0.5, 0.5])


def test_contrast_matrix_2x2_equal():
    cm = contrast_matrix(equal_scheme(2), 2)
    expected = np.array(
        [
            [-0.5, -0.5, 0.5, 0.5],
            [-0.5, 0.5, -0.5, 0.5],
            [1.0, -1.0, -1.0, 1.0],
        ]
    )
    np.testing.assert_allclose(cm.matrix, expected)
    assert cm.subsets == ((0,), (1,), (0, 1))


def test_contrast_matrix_2x3_equal_entries():
    # brute force from the sign formula and uniform weights
    cm = contrast_matrix(equal_scheme(3), 3)
    for subset, row in zip(cm.subsets, cm.matrix):
        scale = 2.0 ** -(3 - len(subset))
        complement = [k for k in range(3) if k not in subset]
        for i, z in enumerate(enumerate_treatments(3)):
            ones = sum(z[k] for k in subset)
            expected = ((-1.0) ** (len(subset) - ones)) * scale
            assert np.isclose(row[i], expected)


def test_contrast_matrix_product_scheme_matches_general():
    # a product joint gives the same matrix whether built from the joint or
    # from its one-dimensional marginals
    from factorial2k import product_scheme

    rng = np.random.default_rng(7)
    delta = rng.uniform(0, 1, 3)
    via_delta = contrast_matrix(product_scheme(delta), 3)
    via_joint = contrast_matrix(from_joint(product_scheme(delta).joint), 3)
    np.testing.assert_allclose(via_delta.matrix, via_joint.matrix, atol=1e-14)


def test_rows_orthogonal_to_ones():
    rng = np.random.default_rng(11)
    for K in (1, 2, 3, 4):
        s = from_joint(rng.dirichlet(np.ones(2 ** K)))
        cm = contrast_matrix(s, K)
        assert np.abs(cm.matrix @ np.ones(2 ** K)).max() <= 1e-12


def test_row_positive_part_sums():
    # positive entries of the row for S sum to 2^(|S|-1)
    rng = np.random.default_rng(12)
    s = from_joint(rng.dirichlet(np.ones(8)))
    cm = contrast_matrix(s, 3)
    for subset, row in zip(cm.subsets, cm.matrix):
        assert np.isclose(row[row > 0].sum(), 2.0 ** (len(subset) - 1))


def test_true_effects_constant_table():
    np.testing.assert_allclose(
        true_effects(np.full(4, 3.3), equal_scheme(2)), np.zeros(3), atol=1e-12
    )


def test_true_effects_balanced_example():
    tau = true_effects(np.array([2.0, 3.0, 6.0, 8.0]), equal_scheme(2))
    np.testing.assert_allclose(tau, [4.5, 1.5, 1.0])


def test_true_effects_additive_table():
    # Ybar(ab) = 2a + 3b has no interaction under any scheme
    ybar = np.array([0.0, 3.0, 2.0, 5.0])
    rng = np.random.default_rng(13)
    for _ in range(5):
        s = from_joint(rng.dirichlet(np.ones(4)))
        tau = true_effects(ybar, s)
        assert abs(tau[2]) <= 1e-12


def test_weighting_difference_identity_2x2():
    rng = np.random.default_rng(14)
    for _ in range(10):
        ybar = rng.normal(size=4)
        s1 = from_joint(rng.dirichlet(np.ones(4)))
        s2 = from_joint(rng.dirichlet(np.ones(4)))
        t1 = true_effects(ybar, s1)
        t2 = true_effects(ybar, s2)
        diff_b1 = s2.marginal((1,))[1] - s1.marginal((1,))[1]
        tau_ab = t1[2]
        assert np.isclose(t2[0] - t1[0], diff_b1 * tau_ab, atol=1e-12)


def test_no_three_way_scheme_equivalence():
    # with no three-way interactions, effects agree between any coherent
    # scheme and its product counterpart
    table = make_no_three_way_population(30, 3, seed=21)
    rng = np.random.default_rng(22)
    for _ in range(10):
        s = from_joint(rng.dirichlet(np.ones(8)))
        np.testing.assert_allclose(
            true_effects(table, s), true_effects(table, pi_cross(s)), atol=1e-12
        )


def test_three_way_term_breaks_equivalence():
    table = add_three_way_term(make_no_three_way_population(30, 3, seed=23), (0, 1, 2), 2.0)
    rng = np.random.default_rng(24)
    broken = False
    for _ in range(20):
        s = from_joint(rng.dirichlet(np.ones(8)))
        gap = np.abs(true_effects(table, s) - true_effects(table, pi_cross(s))).max()
        if gap > 1e-6:
            broken = True
            break
    assert broken


def test_contrast_matrix_cached_per_scheme_and_read_only():
    scheme = from_joint(np.random.default_rng(3).dirichlet(np.ones(8)))
    first = contrast_matrix(scheme, 3).matrix
    assert contrast_matrix(scheme, 3).matrix is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    # a second scheme with the same weights gets its own, equal matrix
    other = contrast_matrix(from_joint(scheme.joint.copy()), 3).matrix
    assert other is not first
    np.testing.assert_array_equal(other, first)



def test_contrast_matrix_peak_memory_is_about_one_matrix():
    # the rows are put in canonical order in place, not by a fancy-index copy
    K = 10
    scheme = from_joint(np.random.default_rng(10).dirichlet(np.ones(2 ** K)))
    tracemalloc.start()
    try:
        G = contrast_matrix(scheme, K).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (2 ** K - 1, 2 ** K)
    assert peak < 1.25 * G.nbytes


def _oracle_schemes(K, rng):
    """Dirichlet, equal and product joints, and one joint with zero-mass cells."""
    Q = 2 ** K
    sparse = rng.dirichlet(np.ones(Q))
    sparse[rng.choice(Q, size=Q // 2, replace=False)] = 0.0
    return [
        from_joint(rng.dirichlet(np.ones(Q))),
        equal_scheme(K),
        product_scheme(rng.uniform(0, 1, K)),
        from_joint(sparse / sparse.sum()),
    ]


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_contrast_matrix_is_signed_marginals_bit_for_bit(K):
    # G[S, z] = (-1)^(|S| - |z_S|) pi_{-S}(z_{-S}), compared by bytes so that
    # the sign of a zero weight counts; the law of no factors is exactly one
    rng = np.random.default_rng(220 + K)
    for scheme in _oracle_schemes(K, rng):
        expected = np.empty((2 ** K - 1, 2 ** K))
        for i, subset in enumerate(enumerate_subsets(K)):
            rest = [k for k in range(K) if k not in subset]
            weights = scheme.marginal(rest) if rest else np.ones(1)
            for z in range(2 ** K):
                levels = [(z >> (K - 1 - k)) & 1 for k in range(K)]
                w = weights[sum(levels[k] << (len(rest) - 1 - j) for j, k in enumerate(rest))]
                zeros = sum(1 - levels[k] for k in subset)
                expected[i, z] = -w if zeros % 2 else w
        assert contrast_matrix(scheme, K).matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8])
def test_general_effect_transforms_match_dense_contrast_matrix(K):
    # G y, (G o G) v and G^T u from the 3^K lift/reduce against the dense G
    rng = np.random.default_rng(200 + K)
    Q = 2 ** K
    y, v, u = rng.normal(size=Q) * 10, rng.uniform(0.1, 2.0, size=Q), rng.normal(size=Q - 1)
    for scheme in _oracle_schemes(K, rng):
        G, M = contrast_matrix(scheme, K).matrix, effect_map(scheme)
        assert rel_err(M(y), G @ y) <= 1e-13
        assert rel_err(M.squared(v), (G * G) @ v) <= 1e-13
        assert rel_err(M.T(u), G.T @ u) <= 1e-13


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_general_effect_transforms_take_a_block_of_columns(K):
    # B = 3^K too, where the 3^K lifted joint would broadcast along the wrong axis
    rng = np.random.default_rng(220 + K)
    Q = 2 ** K
    for B in (1, 4, 3 ** K):
        Y, V = rng.normal(size=(Q, B)) * 10, rng.uniform(0.1, 2.0, size=(Q, B))
        U = rng.normal(size=(Q - 1, B))
        for scheme in _oracle_schemes(K, rng):
            G, M = contrast_matrix(scheme, K).matrix, effect_map(scheme)
            effects, variances, back = M(Y), M.squared(V), M.T(U)
            assert effects.shape == variances.shape == (Q - 1, B)
            assert back.shape == (Q, B)
            for b in range(B):
                assert rel_err(effects[:, b], G @ Y[:, b]) <= 1e-13
                assert rel_err(variances[:, b], (G * G) @ V[:, b]) <= 1e-13
                assert rel_err(back[:, b], G.T @ U[:, b]) <= 1e-13


@pytest.mark.parametrize("K", [1, 3, 5])
def test_kron_apply_matches_dense_kronecker_product(K):
    rng = np.random.default_rng(210 + K)
    factors = [rng.normal(size=(rng.integers(1, 4), rng.integers(1, 4))) for _ in range(K)]
    dense = np.ones((1, 1))
    for F in factors:
        dense = np.kron(dense, F)
    x = rng.normal(size=dense.shape[1])
    X = rng.normal(size=(dense.shape[1], 3))
    np.testing.assert_allclose(kron_apply(factors, x), dense @ x, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(kron_apply(factors, X), dense @ X, rtol=1e-13, atol=1e-13)


def test_general_effects_form_no_contrast_matrix(monkeypatch):
    kernels = spy_calls(monkeypatch, "contrasts", "_dense_rows")
    G = effect_map(equal_scheme(4))
    G(np.arange(16.0))
    G.squared(np.ones(16))
    G.T(np.ones(15))
    G.T(np.ones((15, 3)))
    assert kernels == []
