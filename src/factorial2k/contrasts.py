"""Conditional factorial effects and the general-effect contrast matrix.

Every effect is a linear map of the cell means with the closed form

    G[S, z] = (-1)^(|S| - |z_S|) * w(z_{-S}),

where ``w`` weighs the levels of the factors outside S (Dasgupta, Pillai &
Rubin 2015).  A general effect takes ``w`` from the scheme's marginal law of
those factors; a conditional effect puts a point mass on their fixed levels.
One kernel evaluates the formula for both.
"""

from dataclasses import dataclass

import numpy as np

from .core import MAX_FACTORS, cell_index, enumerate_subsets
from .errors import DimensionMismatchError


def _check_K(K):
    if not 1 <= K <= MAX_FACTORS:
        raise DimensionMismatchError(f"K must be in 1..{MAX_FACTORS}, got {K}")


def _sign_formula(subsets, weights, K):
    """Rows (-1)^(|S| - |z_S|) * w_S(z_{-S}) over every cell z, one per subset S.

    ``weights[i]`` is indexed by the levels of the factors outside
    ``subsets[i]`` in binary-counting order.
    """
    levels = (np.arange(2 ** K)[:, None] >> np.arange(K - 1, -1, -1)) & 1
    inside = np.zeros((len(subsets), K), dtype=np.int64)
    for i, subset in enumerate(subsets):
        inside[i, list(subset)] = 1
    outside = 1 - inside
    # place value of an outside factor among the outside factors, last fastest
    after = np.cumsum(outside[:, ::-1], axis=1)[:, ::-1] - outside
    rest_index = (outside << after) @ levels.T
    offsets = np.cumsum([0] + [w.size for w in weights[:-1]])
    odd = (inside.sum(axis=1)[:, None] - inside @ levels.T) % 2
    return np.where(odd, -1.0, 1.0) * np.concatenate(weights)[offsets[:, None] + rest_index]


def _complement_weights(subset, scheme):
    complement = tuple(k for k in range(scheme.K) if k not in subset)
    # with nothing outside the subset the weight is exactly one, not a sum
    return scheme.marginal(complement) if complement else np.ones(1)


def conditional_effect_row(subset, rest, K):
    """Coefficients on the cell means for the conditional effect of ``subset``.

    ``rest`` gives the fixed levels of the factors outside ``subset``, in
    ascending factor order.  Returns a length-2^K vector.
    """
    _check_K(K)
    subset = tuple(sorted(subset))
    if not subset:
        raise DimensionMismatchError("subset must be nonempty")
    rest = tuple(rest)
    if len(rest) != K - len(subset):
        raise DimensionMismatchError(
            f"expected {K - len(subset)} fixed levels, got {len(rest)}"
        )
    if not set(rest) <= {0, 1}:
        raise ValueError(f"fixed levels must be 0/1, got {rest}")
    point_mass = np.zeros(2 ** len(rest))
    point_mass[cell_index(rest)] = 1.0
    return _sign_formula([subset], [point_mass], K)[0]


@dataclass(frozen=True)
class ContrastMatrix:
    """(2^K - 1) x 2^K matrix mapping cell means to general effects."""

    K: int
    matrix: np.ndarray
    subsets: tuple
    scheme: object


def contrast_matrix(scheme, K):
    """Stack general-effect rows over the canonical subset order.

    Built once per scheme and cached on it, like its marginals; the matrix
    is read-only.
    """
    _check_K(K)
    if scheme.K != K:
        raise DimensionMismatchError("scheme and K disagree")
    # the cache holds no ContrastMatrix: one would hold the scheme back, and
    # the reference cycle would keep G alive until a full garbage collection
    if "contrast_matrix" not in scheme._cache:
        subsets = tuple(enumerate_subsets(K))
        weights = [_complement_weights(s, scheme) for s in subsets]
        rows = _sign_formula(subsets, weights, K)
        rows.setflags(write=False)
        scheme._cache["contrast_matrix"] = subsets, rows
    subsets, rows = scheme._cache["contrast_matrix"]
    return ContrastMatrix(K, rows, subsets, scheme)


def true_effects(means, scheme):
    """General effects G_pi @ Ybar for a cell-mean vector (or object with .means)."""
    ybar = np.asarray(getattr(means, "means", means), dtype=np.float64)
    K = scheme.K
    if ybar.shape != (2 ** K,):
        raise DimensionMismatchError(f"expected {2 ** K} cell means")
    return contrast_matrix(scheme, K).matrix @ ybar
