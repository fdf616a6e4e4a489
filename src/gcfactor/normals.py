"""Standard-normal kernels: density, CDF and quantile, plus the same-tail
log-space helpers of objective.compute_workspace's interval probabilities.

The density, CDF and quantile accept scalars or numpy arrays and
broadcast. Infinite endpoints are first-class: pdf(+-inf) = 0, cdf(-inf) =
0, cdf(+inf) = 1, quantile(0) = -inf, quantile(1) = +inf.
"""

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Same-tail switch: once both standardized endpoints lie beyond this
# distance on one side, the direct CDF difference starts losing digits (well
# before it underflows near 38.6), so the log-space path takes over.
_SIDE = 2.0


class IntervalUnderflowError(FloatingPointError):
    """Interval probability underflows even in log space (point too far outside)."""


def std_normal_pdf(x):
    """Density of N(0,1); zero at infinite arguments."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    finite = np.isfinite(x)
    out[finite] = np.exp(-0.5 * x[finite] ** 2 - _LOG_SQRT_2PI)
    if out.ndim == 0:
        return float(out)
    return out


def std_normal_cdf(x):
    """Phi(x), accurate to around 1e-16 relative in the body and both tails."""
    x = np.asarray(x, dtype=float)
    out = ndtr(x)
    if out.ndim == 0:
        return float(out)
    return out


def std_normal_quantile(p):
    """Inverse CDF on [0, 1]; p=0 and p=1 map to -inf/+inf, outside raises."""
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p > 1.0) | ~np.isfinite(p)):
        raise ValueError("quantile argument must lie in [0, 1]")
    out = ndtri(p)
    if out.ndim == 0:
        return float(out)
    return out


def _log_diff(hi, lo):
    # log(exp(hi) - exp(lo)) elementwise, hi >= lo; equal args give -inf
    with np.errstate(invalid="ignore"):
        d = lo - hi
    d = np.where(np.isneginf(lo), -np.inf, d)
    with np.errstate(divide="ignore"):
        return hi + np.log1p(-np.exp(d))


def _split_tails(x, y):
    """Sort standardized intervals (x, y] into the body and the same tails.

    Returns (tail, upper, xt, yt): the tail mask, which tail intervals sit
    in the upper tail, and the tail intervals reflected onto the upper tail,
    P(x < Z <= y) = P(-y <= Z < -x), so that xt >= _SIDE throughout.
    """
    upper_tail = x >= _SIDE
    tail = upper_tail | (y <= -_SIDE)
    upper = upper_tail[tail]
    xt = np.where(upper, x[tail], -y[tail])
    yt = np.where(upper, y[tail], -x[tail])
    return tail, upper, xt, yt


def _tail_log_prob(xt, yt):
    # log(Phi(-xt) - Phi(-yt)) from the log-CDFs, which stay accurate to
    # about -1e9
    return _log_diff(log_ndtr(-xt), log_ndtr(-yt))
