"""Moment estimators, conservative covariance, and Wald-type inference.

The moment route estimates cell means Yhat and the diagonal covariance
Vhat = diag(Shat(z,z)/N_z), both read off the data's ``core.CellMoments``,
which ``moment_estimates`` returns itself.  The effects G Yhat and their
variances (G o G) Vhat, the diagonal of G Vhat G^T, come from G's
per-factor map over the scheme's joint (``contrasts.effect_map``), with no
dense G.  The contrast matrix and the full covariance are formed only when
they are read.  Confidence intervals use exact Normal quantiles (the
design-based guarantees are asymptotic, so no t correction is applied).
Both distribution functions come from the standard library: the Normal
quantile from ``statistics.NormalDist`` and the chi-square tail from its
closed form for integer degrees of freedom.
"""

from dataclasses import dataclass
from functools import cached_property
import math
from statistics import NormalDist

import numpy as np

from .contrasts import contrast_matrix, effect_map
from .core import cell_summary
from .errors import DimensionMismatchError
from .weighting import WeightingScheme

RANK_RTOL = 1e-10


def normal_quantile(p):
    """The standard Normal quantile at p in (0, 1) (Wichura's AS 241)."""
    return NormalDist().inv_cdf(p)


def chi2_sf(df, x):
    """P(chi-square with integer df > x), summed in closed form.

    With h = x/2 the tail is a Poisson sum, sum_{j < df/2} e^-h h^j / j!,
    for even df, and erfc(sqrt h) + sum_{j < (df-1)/2} e^-h h^(j+1/2) /
    Gamma(j + 3/2) for odd df.  Each term is formed in log space so that
    nothing overflows.
    """
    if x <= 0:
        return 1.0
    h = x / 2.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)
    if df % 2:
        head, powers = math.erfc(math.sqrt(h)), (j + 0.5 for j in range((df - 1) // 2))
    else:
        head, powers = 0.0, range(df // 2)
    return head + math.fsum(math.exp(a * log_h - h - math.lgamma(a + 1)) for a in powers)


def moment_estimates(data):
    """Yhat and Vhat from the observed data: its CellMoments, which need N_z >= 2 per cell."""
    return cell_summary(data)


@dataclass(frozen=True)
class InferenceReport:
    """Effect estimates with covariance, Wald intervals, and z statistics.

    Keeps the scheme, the diagonal Vhat and the effect variances (G o G)
    Vhat; the contrast matrix G and ``covariance`` = G Vhat G^T are formed
    only when read.
    """

    labels: tuple
    estimate: np.ndarray  # (Q-1,) G Yhat
    variance: np.ndarray  # (Q-1,) (G o G) Vhat
    scheme: WeightingScheme
    v_hat: np.ndarray  # (Q,) diagonal of Vhat
    alpha: float

    @cached_property
    def G(self):
        return contrast_matrix(self.scheme, self.scheme.K).matrix

    @cached_property
    def covariance(self):
        return (self.G * self.v_hat) @ self.G.T

    @cached_property
    def se(self):
        return np.sqrt(self.variance)

    @property
    def z_stat(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.estimate / self.se

    @property
    def ci_half_width(self):
        return normal_quantile(1.0 - self.alpha / 2.0) * self.se

    @property
    def ci_low(self):
        return self.estimate - self.ci_half_width

    @property
    def ci_high(self):
        return self.estimate + self.ci_half_width

    def joint_test(self, labels=None):
        """Wald chi-square test that the selected effects are all zero.

        Uses the pseudoinverse of the covariance block with rank determined
        by a relative eigenvalue cutoff, since the covariance can be
        singular for degenerate weighting schemes.
        """
        if labels is None:
            idx = list(range(len(self.labels)))
        else:
            idx = [self.labels.index(lb) for lb in labels]
        est = self.estimate[idx]
        cov = self.covariance[np.ix_(idx, idx)]
        eigval, eigvec = np.linalg.eigh(cov)
        cutoff = RANK_RTOL * max(eigval.max(), 0.0)
        keep = eigval > cutoff
        rank = int(keep.sum())
        if rank == 0:
            return {"statistic": 0.0, "df": 0, "p_value": 1.0}
        inv = (eigvec[:, keep] / eigval[keep]) @ eigvec[:, keep].T
        statistic = float(est @ inv @ est)
        return {
            "statistic": statistic,
            "df": rank,
            "p_value": chi2_sf(rank, statistic),
        }

    def to_dict(self, covariance=False):
        """Per-effect estimates, SEs, CIs and z; the full ``covariance`` only on request."""
        half = self.ci_half_width
        columns = (self.estimate, self.se, self.estimate - half, self.estimate + half, self.z_stat)
        effects = {
            label: {
                "estimate": e,
                "se": s,
                "ci_low": low,
                "ci_high": high,
                # no z statistic without a standard error
                "z": z if s > 0 else None,
            }
            for label, e, s, low, high, z in zip(self.labels, *(c.tolist() for c in columns))
        }
        out = {"alpha": self.alpha, "effects": effects}
        if covariance:
            out["covariance"] = self.covariance.tolist()
        return out


def effect_estimates(data, scheme, alpha=0.05):
    """Moment estimator of the general effects with Wald-type inference."""
    est = moment_estimates(data)
    if scheme.K != data.spec.K:
        raise DimensionMismatchError("scheme and data disagree on the number of factors")
    G = effect_map(scheme)
    v_hat = est.v_hat
    return InferenceReport(
        data.spec.effect_labels, G(est.y_hat), G.squared(v_hat), scheme, v_hat, alpha
    )
