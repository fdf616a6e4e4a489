"""Empirical marginal distributions and their latent-normal interval geometry.

Two cumulative conventions coexist on one fitted table:

* max-rank: ties get their maximum rank, denominator m, so the largest value
  maps to exactly 1. Used for interval censoring and median inversion.
* midpoint-rank: ties get their mean rank, denominator m + 1, so every value
  maps strictly inside (0, 1). Used for the rank-to-normal transform.
"""

import enum

import numpy as np

from .normals import std_normal_quantile


class EdfVariant(enum.Enum):
    MAX_RANK = "max_rank"
    MID_RANK = "mid_rank"


class Edf:
    """Empirical distribution of one column's observed values.

    Attributes
    ----------
    distinct : ndarray
        Sorted distinct observed values.
    counts : ndarray
        Multiplicities, same length as distinct.
    m_obs : int
        Number of observed entries (sum of counts).
    cum_max : ndarray
        Max-rank cumulative probabilities; strictly increasing, ends at 1.0.
    cum_mid : ndarray
        Midpoint-rank cumulative probabilities; strictly inside (0, 1).
    """

    def __init__(self, distinct, counts):
        distinct = np.asarray(distinct, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        if distinct.ndim != 1 or distinct.shape != counts.shape:
            raise ValueError("distinct and counts must be matching 1-d arrays")
        if distinct.size < 2:
            raise ValueError("need at least two distinct observed values")
        if np.any(~np.isfinite(distinct)) or np.any(np.diff(distinct) <= 0):
            raise ValueError("distinct values must be finite and strictly increasing")
        if np.any(counts <= 0):
            raise ValueError("counts must be positive")
        self.distinct = distinct
        self.counts = counts
        self.m_obs = int(counts.sum())
        cum_counts = np.cumsum(counts)
        self.cum_max = cum_counts / self.m_obs
        before = cum_counts - counts
        self.cum_mid = (before + (counts + 1) / 2.0) / (self.m_obs + 1)
        self._z_cuts = None

    def cumulative(self, variant):
        if variant is EdfVariant.MAX_RANK:
            return self.cum_max
        return self.cum_mid

    @property
    def z_cuts(self):
        """Latent cut grid: -inf, then quantiles of cum_max (last is +inf)."""
        if self._z_cuts is None:
            cuts = np.empty(self.distinct.size + 1)
            cuts[0] = -np.inf
            cuts[1:] = std_normal_quantile(self.cum_max)
            if np.any(np.diff(cuts) <= 0):
                raise ValueError("degenerate latent cut grid")
            self._z_cuts = cuts
        return self._z_cuts

    def __repr__(self):
        return "Edf(m_obs=%d, n_distinct=%d)" % (self.m_obs, self.distinct.size)


def fit_edf(values):
    """Fit the empirical distribution of one column.

    Parameters
    ----------
    values : array_like
        Observed entries; NaNs mark missing and are dropped.

    Returns
    -------
    Edf

    Raises
    ------
    ValueError
        If fewer than two distinct finite values are observed, or any
        observed value is infinite.
    """
    values = np.asarray(values, dtype=float).ravel()
    if np.any(np.isinf(values)):
        raise ValueError("observed values must be finite")
    observed = values[~np.isnan(values)]
    if observed.size == 0:
        raise ValueError("column has no observed values")
    distinct, counts = np.unique(observed, return_counts=True)
    return Edf(distinct, counts)


def edf_inverse(edf, y, variant=EdfVariant.MAX_RANK):
    """Generalized inverse: min(support) when y is at or below the first
    cumulative value, otherwise the largest s with cumulative(s) <= y.

    Values of y above the last cumulative value (possible for the midpoint
    variant, whose range stays below 1) map to max(support).
    """
    cum = edf.cumulative(variant)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("probability argument must lie in [0, 1]")
    idx = np.searchsorted(cum, y, side="right") - 1
    idx = np.clip(idx, 0, edf.distinct.size - 1)
    out = edf.distinct[idx]
    if out.ndim == 0:
        return float(out)
    return out


def _value_indices(edf, x):
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(edf.distinct, x)
    idx = np.minimum(idx, edf.distinct.size - 1)
    if np.any(edf.distinct[idx] != x):
        raise ValueError("value not observed in this column")
    return idx
