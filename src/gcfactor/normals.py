"""Standard-normal kernels: density, CDF, quantile, and stable interval log-probabilities.

Everything here accepts scalars or numpy arrays and broadcasts. Infinite
endpoints are first-class: pdf(+-inf) = 0, cdf(-inf) = 0, cdf(+inf) = 1,
quantile(0) = -inf, quantile(1) = +inf.
"""

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from collections import namedtuple

# Half-open latent interval (lower, upper]; endpoints may be +-inf.
ZInterval = namedtuple("ZInterval", ["lower", "upper"])

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


def log_interval_prob(lower, upper, theta=0.0, sigma=1.0):
    """log P(lower < Z <= upper) for Z ~ N(theta, sigma^2).

    Parameters
    ----------
    lower, upper : float or array
        Interval endpoints, lower < upper required; +-inf allowed.
    theta, sigma : float or array
        Location and scale; sigma must be positive.

    Returns
    -------
    float or ndarray
        The log probability. Computed directly where the interval has
        non-negligible mass, and via complementary log-space tails when both
        standardized endpoints land beyond 2 on one side, so results stay
        finite far beyond the point where Phi differences underflow.

    Raises
    ------
    IntervalUnderflowError
        If the probability underflows even in log space (the location is of
        order 1e16 interval-widths outside the interval).
    ValueError
        On a degenerate interval (lower >= upper) or nonpositive sigma.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    if np.any(~(lower < upper)):
        raise ValueError("interval must satisfy lower < upper")

    with np.errstate(invalid="ignore"):
        a = (lower - theta) / sigma
        b = (upper - theta) / sigma
    # keep the infinities when theta is infinite too
    a = np.where(np.isneginf(lower), -np.inf, a)
    b = np.where(np.isposinf(upper), np.inf, b)

    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=float)
    tail, _, xt, yt = _split_tails(a, b)
    body = ~tail
    if np.any(body):
        with np.errstate(divide="ignore"):
            out[body] = np.log(ndtr(b[body]) - ndtr(a[body]))
    if np.any(tail):
        out[tail] = _tail_log_prob(xt, yt)

    if np.any(np.isneginf(out)) or np.any(np.isnan(out)):
        raise IntervalUnderflowError(
            "interval probability underflowed in log space"
        )
    if out.ndim == 0:
        return float(out)
    return out
