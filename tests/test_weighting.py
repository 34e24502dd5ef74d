import numpy as np
import pytest

from factorial2k import (
    cell_summary,
    default_spec,
    empirical_scheme,
    equal_scheme,
    from_joint,
    is_product,
    pi_cross,
    product_scheme,
)
from factorial2k.core import AssignmentTable
from factorial2k.errors import DimensionMismatchError, InvalidMassError
from factorial2k.weighting import ShiftVector, WeightingScheme


def test_from_joint_uniform_marginals():
    s = from_joint([0.25, 0.25, 0.25, 0.25])
    np.testing.assert_allclose(s.marginal((0,)), [0.5, 0.5])
    np.testing.assert_allclose(s.marginal((1,)), [0.5, 0.5])


def test_from_joint_point_mass():
    s = from_joint([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(s.marginal((0,)), [1.0, 0.0])
    np.testing.assert_allclose(s.marginal((1,)), [1.0, 0.0])


def test_from_joint_summation():
    # joint (.1,.2,.3,.4) on (00),(01),(10),(11)
    s = from_joint([0.1, 0.2, 0.3, 0.4])
    assert np.isclose(s.marginal((0,))[1], 0.7)
    assert np.isclose(s.marginal((1,))[1], 0.6)


def test_from_joint_invalid():
    with pytest.raises(InvalidMassError):
        from_joint([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(InvalidMassError):
        from_joint([0.3, 0.3, 0.3, 0.3])


@pytest.mark.parametrize("size", [0, 1, 3, 6])
def test_from_joint_rejects_length_not_a_power_of_two_at_least_two(size):
    with pytest.raises(InvalidMassError, match=r"at least one factor|length 2\^K"):
        from_joint(np.full(size, 1.0 / max(size, 1)))


@pytest.mark.parametrize("K", [0, -1])
def test_scheme_needs_a_factor(K):
    with pytest.raises(InvalidMassError, match="at least one factor"):
        WeightingScheme(K, np.ones(1))


@pytest.mark.parametrize("subset", [(5,), (-1,), (2,), (0, 0)])
def test_marginal_rejects_factor_out_of_range_or_repeated(subset):
    with pytest.raises(DimensionMismatchError, match="not a set of factors"):
        equal_scheme(2).marginal(subset)


@pytest.mark.parametrize("K", [2, 3, 5])
def test_marginal_matches_multi_axis_sum(K):
    mass = np.random.default_rng(6 + K).dirichlet(np.ones(2 ** K))
    s = from_joint(mass)
    tensor = mass.reshape((2,) * K)
    for keep in [(), (0,), (K - 1,), (0, K - 1), tuple(range(K))]:
        drop = tuple(k for k in range(K) if k not in keep)
        np.testing.assert_allclose(
            s.marginal(keep), tensor.sum(axis=drop).reshape(-1), rtol=1e-14, atol=0
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_joint_rejects_non_finite(bad):
    with pytest.raises(InvalidMassError, match="finite"):
        from_joint([bad, 0.5, 0.25, 0.25])


@pytest.mark.parametrize("K", [1, 2, 3])
def test_equal_scheme(K):
    s = equal_scheme(K)
    np.testing.assert_allclose(s.joint, np.full(2 ** K, 2.0 ** -K))
    for k in range(K):
        np.testing.assert_allclose(s.marginal((k,)), [0.5, 0.5])


def test_empirical_scheme(balanced_2x2):
    s = empirical_scheme(cell_summary(balanced_2x2))
    np.testing.assert_allclose(s.joint, equal_scheme(2).joint)


def test_empirical_scheme_unbalanced():
    spec = default_spec(2)
    sizes = [2, 2, 2, 6]
    cells = np.repeat(np.arange(4), sizes)
    levels = np.column_stack([cells // 2, cells % 2])
    data = AssignmentTable(spec, levels, np.arange(12.0))
    s = empirical_scheme(cell_summary(data))
    np.testing.assert_allclose(s.joint, [1 / 6, 1 / 6, 1 / 6, 1 / 2])


def test_product_scheme_half_is_uniform():
    np.testing.assert_allclose(product_scheme([0.5, 0.5]).joint, np.full(4, 0.25))


def test_product_scheme_degenerate():
    s = product_scheme([0.0, 0.0])
    np.testing.assert_allclose(s.joint, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(s.marginal((0,)), [1.0, 0.0])


def test_product_scheme_mass():
    s = product_scheme([0.3, 0.6])
    assert np.isclose(s.joint[3], 0.18)
    assert is_product(s)


def test_product_scheme_marginals_exact():
    for delta in ([0.5, 0.25], [0.3, 0.6, 0.9]):
        s = product_scheme(delta)
        for k, d in enumerate(delta):
            np.testing.assert_allclose(
                s.marginal((k,)), [1.0 - d, d], rtol=0, atol=1e-15
            )


def test_shift_vector_bounds():
    with pytest.raises(ValueError):
        ShiftVector(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        ShiftVector(np.array([-0.1]))


def test_shift_vector_rejects_nan():
    with pytest.raises(ValueError, match=r"each delta_k must lie in \[0, 1\]"):
        ShiftVector(np.array([0.5, np.nan]))


def test_pi_cross_fixed_point_on_product():
    s = product_scheme([0.3, 0.6])
    np.testing.assert_allclose(pi_cross(s).joint, s.joint, atol=1e-15)


def test_one_probabilities_stay_in_the_unit_interval():
    # the summed joint puts factor 0's one-probability at 1.0000000000000002
    s = product_scheme([1.0, 0.08, 0.1])
    probs = s.factor_one_probs()
    assert ((probs >= 0) & (probs <= 1)).all()
    assert is_product(s)
    np.testing.assert_allclose(pi_cross(s).joint, s.joint, atol=1e-15)


@pytest.mark.parametrize("K", range(1, 11))
def test_one_probabilities_equal_the_one_factor_marginals_bit_for_bit(K):
    # read off the lifted joint in one gather, they sum the joint in the
    # order marginal((k,)) does
    rng = np.random.default_rng(150 + K)
    counts = rng.integers(1, 40, size=2 ** K)
    joints = [rng.dirichlet(np.ones(2 ** K)), counts / counts.sum(),
              product_scheme(rng.uniform(0, 1, K)).joint, np.full(2 ** K, 2.0 ** -K)]
    for joint in joints:
        scheme = from_joint(joint)
        marginals = np.clip([scheme.marginal((k,))[1] for k in range(K)], 0.0, 1.0)
        np.testing.assert_array_equal(scheme.factor_one_probs(), marginals)


def test_pi_cross_marginalize_then_multiply():
    s = from_joint([0.1, 0.2, 0.3, 0.4])
    # product of (.3,.7) x (.4,.6)
    np.testing.assert_allclose(pi_cross(s).joint, [0.12, 0.18, 0.28, 0.42])


def test_pi_cross_idempotent():
    rng = np.random.default_rng(3)
    for K in (2, 3, 4):
        mass = rng.dirichlet(np.ones(2 ** K))
        s = from_joint(mass)
        once = pi_cross(s)
        twice = pi_cross(once)
        assert np.abs(once.joint - twice.joint).max() <= 1e-12


def test_is_product():
    assert is_product(equal_scheme(3))
    assert not is_product(from_joint([0.1, 0.2, 0.3, 0.4]), tol=1e-9)
    rng = np.random.default_rng(4)
    for _ in range(5):
        assert is_product(product_scheme(rng.uniform(0, 1, 3)))


def test_tower_rule():
    rng = np.random.default_rng(5)
    mass = rng.dirichlet(np.ones(8))
    s = from_joint(mass)
    # marginal over (0,) from the joint equals row-sums of the (0,1) marginal
    pair = s.marginal((0, 1)).reshape(2, 2)
    np.testing.assert_allclose(pair.sum(axis=1), s.marginal((0,)), atol=1e-15)
