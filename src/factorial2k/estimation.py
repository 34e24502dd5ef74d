"""Moment estimators, conservative covariance, and Wald-type inference.

The moment route estimates cell means Yhat and the diagonal covariance
Vhat = diag(Shat(z,z)/N_z); effects and their covariance follow by the
contrast matrix.  Confidence intervals use exact Normal quantiles (the
design-based guarantees are asymptotic, so no t correction is applied).
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .contrasts import contrast_matrix
from .core import cell_summary

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class MomentEstimates:
    """Cell means and the diagonal of the conservative covariance estimator."""

    y_hat: np.ndarray  # (Q,)
    v_hat: np.ndarray  # (Q,) diagonal entries Shat(z,z)/N_z
    counts: np.ndarray  # (Q,)


def moment_estimates(data):
    """Yhat and Vhat from the observed data; requires N_z >= 2 per cell."""
    summary = cell_summary(data, variances=True)
    return MomentEstimates(
        summary.means, summary.variances / summary.counts, summary.counts
    )


@dataclass(frozen=True)
class InferenceReport:
    """Effect estimates with covariance, Wald intervals, and z statistics."""

    labels: tuple
    estimate: np.ndarray
    covariance: np.ndarray
    alpha: float

    @property
    def se(self):
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    @property
    def z_stat(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.estimate / self.se

    @property
    def ci_half_width(self):
        return special.ndtri(1.0 - self.alpha / 2.0) * self.se

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
            "p_value": float(special.chdtrc(rank, statistic)),
        }

    def to_dict(self, covariance=False):
        """Per-effect estimates, SEs, CIs and z; the full ``covariance`` only on request."""
        se, half, z = self.se, self.ci_half_width, self.z_stat
        low, high = self.estimate - half, self.estimate + half
        effects = {
            label: {
                "estimate": float(self.estimate[i]),
                "se": float(se[i]),
                "ci_low": float(low[i]),
                "ci_high": float(high[i]),
                # no z statistic without a standard error
                "z": float(z[i]) if se[i] > 0 else None,
            }
            for i, label in enumerate(self.labels)
        }
        out = {"alpha": self.alpha, "effects": effects}
        if covariance:
            out["covariance"] = self.covariance.tolist()
        return out


def effect_estimates(data, scheme, alpha=0.05):
    """Moment estimator of the general effects with Wald-type inference."""
    est = moment_estimates(data)
    cm = contrast_matrix(scheme, data.spec.K)
    G = cm.matrix
    tau = G @ est.y_hat
    cov = (G * est.v_hat) @ G.T
    labels = tuple(data.spec.subset_label(s) for s in cm.subsets)
    return InferenceReport(labels, tau, cov, alpha)
