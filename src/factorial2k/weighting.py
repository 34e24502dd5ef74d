"""Coherent weighting schemes over treatment cells and their marginals.

A scheme is always stored constructively as a joint probability vector over
the 2^K cells; marginals for any factor subset are obtained by summation,
so every scheme here is coherent by construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .contrasts import _lifted_joint
from .core import subset_mask
from .errors import InvalidMassError

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class ShiftVector:
    """Per-factor location shifts delta_k, each in [0, 1]."""

    delta: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=np.float64)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("delta must be a nonempty vector")
        # NaN fails both comparisons
        if not ((d >= 0) & (d <= 1)).all():
            raise ValueError("each delta_k must lie in [0, 1]")
        object.__setattr__(self, "delta", d)

    @property
    def K(self):
        return self.delta.size


@dataclass(frozen=True)
class WeightingScheme:
    """Joint weights pi(z) over cells plus derived marginals.

    ``joint`` is a length-2^K probability vector in canonical cell order.
    ``marginal(subset)`` returns the marginal law of the factors in
    ``subset`` as a vector over their 2^|subset| level combinations, again
    in binary-counting order.
    """

    K: int
    joint: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.K < 1:
            raise InvalidMassError(f"a scheme needs at least one factor, got K={self.K}")
        mass = np.asarray(self.joint, dtype=np.float64)
        if mass.shape != (2 ** self.K,):
            raise InvalidMassError(f"joint must have length 2^K = {2 ** self.K}, got {mass.shape}")
        if not np.isfinite(mass).all():
            raise InvalidMassError("joint weights must be finite")
        if (mass < 0).any():
            raise InvalidMassError("joint weights must be nonnegative")
        if abs(mass.sum() - 1.0) > NORMALIZATION_TOL:
            raise InvalidMassError(f"joint weights sum to {mass.sum()!r}, not 1")
        object.__setattr__(self, "joint", mass)

    def marginal(self, subset):
        """Marginal weights of the factors in ``subset`` (sorted indices)."""
        subset = tuple(subset)
        if subset not in self._cache:
            subset_mask(subset, self.K)
            tensor = self.joint.reshape((2,) * self.K)
            # one factor at a time in factor order, as the lift sums, so G's
            # weights are bit-identical to these marginals
            for k in sorted(set(range(self.K)) - set(subset)):
                tensor = tensor.sum(axis=k, keepdims=True)
            self._cache[subset] = tensor.reshape(-1)
        return self._cache[subset]

    def factor_one_probs(self):
        """Vector of pi(factor k = 1) for k = 1..K.

        Read off the lifted joint in one gather: its cell with factor k at
        level 1 and every other factor summed out, base-3 index
        ``(3^K - 1) - 3^(K-1-k)``, sums the joint one factor at a time in
        factor order, as ``marginal((k,))`` does, so the two agree bit for
        bit.  Clipped to [0, 1]: the summed joint can land an ulp past 1.
        """
        index = 3 ** self.K - 1 - 3 ** np.arange(self.K - 1, -1, -1)
        return np.clip(_lifted_joint(self)[index], 0.0, 1.0)


def from_joint(mass):
    """Build a coherent scheme from a joint probability vector over cells."""
    mass = np.asarray(mass, dtype=np.float64)
    # floor(log2(size)); a size that is not a power of two >= 2 fails the checks
    return WeightingScheme(max(mass.size.bit_length() - 1, 0), mass)


def equal_scheme(K):
    """Uniform joint 2^-K per cell; every marginal is uniform."""
    Q = 2 ** K
    return WeightingScheme(K, np.full(Q, 1.0 / Q))


def empirical_scheme(moments):
    """Joint weights equal to the observed cell proportions e_z of a CellMoments."""
    return from_joint(moments.proportions)


def product_scheme(delta):
    """Product scheme with pi(z) = prod_k delta_k^z_k (1-delta_k)^(1-z_k).

    Built once per ShiftVector and cached on it, so every caller holding the
    same shifts shares the scheme and its contrast matrix.
    """
    if not isinstance(delta, ShiftVector):
        delta = ShiftVector(np.asarray(delta, dtype=np.float64))
    if "scheme" not in delta._cache:
        mass = np.ones(1)
        for d in delta.delta:
            mass = np.outer(mass, (1.0 - d, d)).ravel()
        delta._cache["scheme"] = WeightingScheme(delta.K, mass)
    return delta._cache["scheme"]


def pi_cross(scheme):
    """Product scheme matching the K one-dimensional marginals of ``scheme``.

    Idempotent; a fixed point exactly when the input is already a product
    scheme.
    """
    return product_scheme(scheme.factor_one_probs())


def is_product(scheme, tol=1e-9):
    """True iff the joint factorizes over factors within ``tol`` (max abs)."""
    return float(np.max(np.abs(scheme.joint - pi_cross(scheme).joint))) <= tol
