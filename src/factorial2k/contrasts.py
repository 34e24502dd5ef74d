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
in O(K 3^K).  ``effect_map`` is that map as a ``FactorMap``, the one type
for a per-factor linear map: it applies G, ``G o G`` and ``G^T`` to a vector
or a block, and the regression's saturated map and design are FactorMaps
too.  The dense G is built only when it is read, and from the same lifted
joint: ``G[S, z]`` is the lifted cell that sums out the factors of S and
keeps z's levels elsewhere, negated when z holds an odd number of S's
factors at level 0.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import MAX_FACTORS, canonical_masks, canonical_subsets, subset_mask
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


def _paired(factors):
    """Consecutive factors multiplied into Kronecker pairs, the last one alone when K is odd.

    ``kron(a, b)`` is one broadcast product, entry for entry the product
    np.kron forms, so applying the pairs takes ceil(K/2) passes.
    """
    pairs = [
        (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)
        for a, b in zip(factors[::2], factors[1::2])
    ]
    return pairs + list(factors[2 * len(pairs):])


class FactorMap:
    """The map ``kron(R) diag(P) kron(W)`` with its output rows taken in ``order``, never formed.

    ``R`` and ``W`` are given as one matrix per factor, factor 0 on the
    slowest axis, and stored multiplied into Kronecker pairs (``_paired``);
    with no ``P`` and ``W`` the map is ``kron(R)`` alone.  Each operation
    takes a vector or a (n, B) block of B columns:

    - ``M(y)``;
    - ``M.squared(v)``, ``(M o M) v`` as ``kron(R o R) diag(P^2) kron(W o W) v``,
      which holds when each output and input meet in at most one lifted
      cell, as they do in G and in any Kronecker product;
    - ``M.T(u)``, ``M^T u`` for u indexed like the output rows, scattered
      back to full index order here and nowhere else.
    """

    def __init__(self, R, order, P=None, W=None):
        self.R, self.order, self.P = _paired(R), order, P
        self.W = None if W is None else _paired(W)

    def _apply(self, R, P, W, x):
        if W is not None:
            x = (P * kron_apply(W, x).T).T
        return kron_apply(R, x)[self.order]

    def __call__(self, y):
        return self._apply(self.R, self.P, self.W, y)

    def squared(self, v):
        if self.W is None:
            return self._apply([F * F for F in self.R], None, None, v)
        return self._apply([F * F for F in self.R], self.P * self.P, [F * F for F in self.W], v)

    def T(self, u):
        u = np.asarray(u, dtype=np.float64)
        full = np.zeros((math.prod(len(F) for F in self.R), *u.shape[1:]))
        full[self.order] = u
        x = kron_apply([F.T for F in self.R], full)
        return x if self.W is None else kron_apply([F.T for F in self.W], (self.P * x.T).T)


def effect_map(scheme):
    """G as a FactorMap, ``R (P o W y)`` over the lifted joint, rows in canonical subset order."""
    K = scheme.K
    return FactorMap([_R] * K, canonical_masks(K), _lifted_joint(scheme), [_W] * K)


def _dense_rows(scheme):
    """G in canonical row order: ``G[S, z] = (-1)^popcount(S & ~z) * P[T(z & ~S) + 2 T(S)]``.

    ``T(m)`` is the lifted index of mask m's levels, bit j of m as base-3
    digit j, so the entry of P it reads is the marginal of the factors
    outside S at z's levels.  The full-interaction row reads ``P[-1]``,
    exactly one.  Rows are gathered into the preallocated G a chunk of about
    2^14 entries at a time, so no other 2^K x 2^K array is formed.
    """
    K, Q = scheme.K, 2 ** scheme.K
    P = _lifted_joint(scheme)
    cells = np.arange(Q)
    bits = (cells[:, None] >> np.arange(K)) & 1
    # T(m) and (-1)^popcount(m) for every mask m
    T, sign = bits @ 3 ** np.arange(K), 1.0 - 2.0 * (bits.sum(axis=1) & 1)
    masks = canonical_masks(K)
    G = np.empty((Q - 1, Q))
    step = max(1, 2 ** 14 // Q)
    for start in range(0, Q - 1, step):
        S = masks[start:start + step, None]
        np.multiply(P[T[cells & ~S] + 2 * T[S]], sign[S & ~cells], out=G[start:start + step])
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
        rows = _dense_rows(scheme)
        rows.setflags(write=False)
        scheme._cache["contrast_matrix"] = ContrastMatrix(rows, canonical_subsets(K))
    return scheme._cache["contrast_matrix"]


def true_effects(means, scheme):
    """General effects G_pi @ Ybar for a cell-mean vector (or object with .means), with no dense G."""
    ybar = np.asarray(getattr(means, "means", means), dtype=np.float64)
    K = scheme.K
    if ybar.shape != (2 ** K,):
        raise DimensionMismatchError(f"expected {2 ** K} cell means")
    return effect_map(scheme)(ybar)
