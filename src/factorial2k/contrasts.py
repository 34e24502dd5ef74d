"""Conditional factorial effects and the general-effect contrast matrix.

Every effect is a linear map of the cell means with the closed form

    G[S, z] = (-1)^(|S| - |z_S|) * pi_{-S}(z_{-S}),

where ``pi_{-S}`` is the law of the levels of the factors outside S
(Dasgupta, Pillai & Rubin 2015).  A general effect takes it from the
scheme's joint law; a conditional effect from a point mass on their fixed
levels.  One kernel builds the row of every subset at once by Yates's
algorithm on the joint: factor by factor, each row whose subset holds the
factor sums it out and signs the sum by its level.
"""

from dataclasses import dataclass

import numpy as np

from .core import MAX_FACTORS, canonical_masks, enumerate_subsets, subset_mask
from .errors import DimensionMismatchError


def _check_K(K):
    if not 1 <= K <= MAX_FACTORS:
        raise DimensionMismatchError(f"K must be in 1..{MAX_FACTORS}, got {K}")


def _yates_rows(joint, K):
    """Rows (-1)^(|S| - |z_S|) * pi_{-S}(z_{-S}) over every cell z, one per bitmask S.

    Row S starts as the joint; pass k, on the rows whose mask holds factor
    k, writes the sum over factor k's two levels back as -sum at level 0
    and +sum at level 1, in place through reshaped views.  Row 0 is the
    joint itself.  The full-interaction row starts as a point mass, so its
    weight is exactly one, not a sum.
    """
    Q = 2 ** K
    G = np.tile(joint, (Q, 1))
    G[-1] = np.arange(Q) == 0
    for k in range(K):
        outer, inner = 2 ** k, 2 ** (K - 1 - k)
        rows = G.reshape(outer, 2, inner, outer, 2, inner)[:, 1]
        low, high = rows[..., 0, :], rows[..., 1, :]
        high += low
        np.negative(high, out=low)
    return G


def _permute_rows(G, order):
    """Move row ``order[i]`` of G to row i, in place, for a permutation ``order``.

    Follows the permutation's cycles with one spare row, so the reordering
    never copies the whole array.
    """
    order = order.tolist()
    done = [False] * len(order)
    for start in range(len(order)):
        if done[start]:
            continue
        spare = G[start].copy()
        i = start
        while order[i] != start:
            G[i] = G[order[i]]
            done[i] = True
            i = order[i]
        G[i] = spare
        done[i] = True
    return G


def conditional_effect_row(subset, rest, K):
    """Coefficients on the cell means for the conditional effect of ``subset``.

    ``rest`` gives the fixed levels of the factors outside ``subset``, in
    ascending factor order.  Returns a length-2^K vector.
    """
    _check_K(K)
    mask = subset_mask(subset, K)
    if not mask:
        raise DimensionMismatchError("subset must be nonempty")
    outside = [k for k in range(K) if not mask >> (K - 1 - k) & 1]
    rest = tuple(rest)
    if len(rest) != len(outside):
        raise DimensionMismatchError(f"expected {len(outside)} fixed levels, got {len(rest)}")
    if not set(rest) <= {0, 1}:
        raise ValueError(f"fixed levels must be 0/1, got {rest}")
    point_mass = np.zeros(2 ** K)
    point_mass[sum(level << (K - 1 - k) for k, level in zip(outside, rest))] = 1.0
    return _yates_rows(point_mass, K)[mask]


@dataclass(frozen=True)
class ContrastMatrix:
    """(2^K - 1) x 2^K matrix mapping cell means to general effects."""

    matrix: np.ndarray
    subsets: tuple


def contrast_matrix(scheme, K):
    """Stack general-effect rows over the canonical subset order.

    Built once per scheme and cached on it, like its marginals; the matrix
    is read-only.
    """
    _check_K(K)
    if scheme.K != K:
        raise DimensionMismatchError("scheme and K disagree")
    if "contrast_matrix" not in scheme._cache:
        # the empty subset's row 0 goes last and is cut off
        order = np.append(canonical_masks(K), 0)
        rows = _permute_rows(_yates_rows(scheme.joint, K), order)[:-1]
        rows.setflags(write=False)
        scheme._cache["contrast_matrix"] = ContrastMatrix(rows, tuple(enumerate_subsets(K)))
    return scheme._cache["contrast_matrix"]


def true_effects(means, scheme):
    """General effects G_pi @ Ybar for a cell-mean vector (or object with .means)."""
    ybar = np.asarray(getattr(means, "means", means), dtype=np.float64)
    K = scheme.K
    if ybar.shape != (2 ** K,):
        raise DimensionMismatchError(f"expected {2 ** K} cell means")
    return contrast_matrix(scheme, K).matrix @ ybar
