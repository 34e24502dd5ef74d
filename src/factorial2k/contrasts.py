"""Conditional factorial effects and the general-effect contrast matrix.

Every effect is a linear map of the cell means with the closed form

    G[S, z] = (-1)^(|S| - |z_S|) * pi_{-S}(z_{-S}),

where ``pi_{-S}`` is the law of the levels of the factors outside S
(Dasgupta, Pillai & Rubin 2015).  A general effect takes it from the
scheme's joint law; a conditional effect from a point mass on their fixed
levels.

The estimates never need G itself.  Per factor, lift the cell means to
``(y0, y1, y1 - y0)`` and the joint to ``(p0, p1, p0 + p1)``: on the 3^K
lifted cells the joint holds every marginal ``pi_{-S}(z_{-S})`` at once and
the means every signed difference over S.  Their product, reduced per factor
by ``(a0, a1, a2) -> (a0 + a1, a2)``, is ``G y`` over every subset bitmask S,
in O(K 3^K).  The dense G is built only when it is read, by Yates's
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


def kron_apply(factors, x):
    """``(factors[0] kron factors[1] kron ...) @ x`` without forming the product.

    ``x`` has shape (n_0 n_1 ...,) or (n_0 n_1 ..., B), factor 0 on the
    slowest axis.  Each pass multiplies one factor into the leading axis and
    moves the result last, so after K passes the factor axes are back in
    order behind the batch axis: K small matrix products and K copies.
    """
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[1:]
    for M in factors:
        x = (M @ x.reshape(M.shape[1], -1)).T
    return x.reshape(*batch, -1).T


# Per factor: W lifts (y0, y1) to (y0, y1, y1 - y0), S to (a0, a1, a0 + a1), and R
# reduces (a0, a1, a2) to (a0 + a1, a2).  Lifted index 2 means "summed out".
_W = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
_S = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
_R = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _lifted_joint(scheme):
    """The joint lifted by S: at each lifted cell, the marginal of the factors not summed out.

    Cached on the scheme.  The law of no factors is exactly one, as in the
    closed form, not the rounded sum of the joint.
    """
    if "lifted_joint" not in scheme._cache:
        P = kron_apply([_S] * scheme.K, scheme.joint)
        P[-1] = 1.0
        P.setflags(write=False)
        scheme._cache["lifted_joint"] = P
    return scheme._cache["lifted_joint"]


def general_effects(scheme, y):
    """``G y`` in canonical subset order, with no dense G: ``R (P o W y)``."""
    K = scheme.K
    lifted = _lifted_joint(scheme) * kron_apply([_W] * K, y)
    return kron_apply([_R] * K, lifted)[canonical_masks(K)]


def general_effect_variances(scheme, v):
    """``(G o G) v``, the diagonal of ``G diag(v) G^T``: ``R (P^2 o S v)``."""
    K = scheme.K
    P = _lifted_joint(scheme)
    return kron_apply([_R] * K, P * P * kron_apply([_S] * K, v))[canonical_masks(K)]


def general_effects_transposed(scheme, u):
    """``G^T u`` for u in canonical subset order: ``W^T (P o R^T u)``."""
    K = scheme.K
    padded = np.zeros(2 ** K)
    padded[canonical_masks(K)] = u
    lifted = _lifted_joint(scheme) * kron_apply([_R.T] * K, padded)
    return kron_apply([_W.T] * K, lifted)


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


_DIFFERENCE = np.array([-1.0, 1.0])
_UNIT = np.eye(2)


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
    # the row is kron_k v_k: the signed difference (-1, 1) for a factor in the
    # subset, the unit vector of its fixed level for any other
    levels = dict(zip(outside, rest))
    row = np.ones(1)
    for k in range(K):
        row = np.kron(row, _UNIT[levels[k]] if k in levels else _DIFFERENCE)
    return row


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
