"""Data-space estimates from a fitted interval-censored model: median and
mean imputation, per-entry distributions over the column support, and a
per-column interpolation curve that trades exact means for O(dq + m) cost.

Every estimator works on the latent means theta = U V^T and maps them back
through the column's empirical distribution, so estimates always live inside
the observed support.

Conditional means come from one kernel, _column_means. Summation by parts
turns the support-weighted expectation into a sum over the column's finite
cuts c_k with nonnegative weights w_k = d_k - d_{k-1} (the support steps):

    mean(theta) = d_0 + sum_k w_k Phi((theta - c_k) / sigma).

Cuts are grouped into bins no wider than sigma, and each bin's share is
expanded about its centre c_B in Hermite functions, the far-field
expansion of the fast Gauss transform (Greengard & Strain, 1991): with
x = (theta - c_B)/sigma and offsets delta_k = (c_B - c_k)/sigma, |delta| <= 1/2,

    sum_B A_0 Phi(x) + phi(x) sum_{p=1..P} (-1)^(p-1) A_p He_{p-1}(x),
    A_p = sum_k w_k delta_k^p / p!.

Cramer's inequality |He_n(x) phi(x)| <= 0.434 sqrt(n!) bounds the first
dropped term by 0.434 * range * r^(P+1) sqrt(P!) / (P+1)!, with range the
column's span; P = 19 puts it below 1e-16 * range at r = 1/2, and the
terms after it shrink by r / sqrt(P + 2) or faster. Each node then costs
one Phi, one phi and P multiply-adds per bin instead of one Phi per cut.
A column with few cuts for its bin count (binary columns, or sigma near
its floor) takes singleton bins with P = 0, where the same code is the
direct sum.
"""

import math

import numpy as np

from .gaussian import coca_impute, pca_impute
from .marginals import EdfVariant, edf_inverse
from .normals import std_normal_cdf, std_normal_pdf, std_normal_quantile

# anchors sit this many sigma beyond the outermost cut: the top/bottom atom
# then holds all but ~1e-19 of the mass, so pinning the anchor value to the
# support limit is exact at double precision
_ANCHOR_SIGMAS = 9.0
# chord cap (in sigma units): quantile-grid gaps wider than this are
# subdivided, and the gap between the grid and each anchor is filled at the
# same spacing, so no linear segment spans a strongly bent region
_MAX_GAP = 0.1
# every cut lies within this many sigma of its bin centre
_BIN_RADIUS = 0.5
# Hermite series arguments are clipped here, where phi is a hard zero, so
# He_n(x) phi(x) stays finite for any theta
_HERMITE_CLIP = 40.0


def _hermite_order(radius, tol=1e-16):
    """Least P whose first dropped Hermite term, by Cramer's bound, is
    below tol times the column range."""
    p = 0
    while (0.434 * radius ** (p + 1) * math.sqrt(math.factorial(p))
           / math.factorial(p + 1)) >= tol:
        p += 1
    return p


_HERMITE_ORDER = _hermite_order(_BIN_RADIUS)


def _require_xpca(model):
    if model.method != "xpca":
        raise ValueError("model was not fitted by xpca")


def _scope_mask(model, scope):
    if scope is None:
        return np.ones((model.m, model.n), dtype=bool)
    scope = np.asarray(scope, dtype=bool)
    if scope.shape != (model.m, model.n):
        raise ValueError("scope mask shape must match the model")
    return scope


class EntryDistribution:
    """Distribution of one entry over its column's observed support."""

    def __init__(self, support, probs):
        support = np.asarray(support, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if support.shape != probs.shape or support.ndim != 1:
            raise ValueError("support and probs must be matching vectors")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        self.renormalized = abs(total - 1.0) > 1e-10
        if self.renormalized:
            probs = probs / total
        self.support = support
        self.probs = probs

    def mean(self):
        return float(self.probs @ self.support)

    def __len__(self):
        return self.support.size


def _column_probs(theta_col, edf, sigma):
    # tiling intervals share endpoints, so the CDF differences telescope to
    # ndtr(+inf) - ndtr(-inf) = 1 with no renormalization
    zs = (edf.z_cuts[None, :] - np.asarray(theta_col, dtype=float)[:, None])
    zs = zs / sigma
    zs[:, 0] = -np.inf
    zs[:, -1] = np.inf
    return np.diff(std_normal_cdf(zs), axis=1)


def entry_distribution(model, i, j):
    """Probability of each support value for entry (i, j)."""
    _require_xpca(model)
    edf = model.marginals[j]
    theta = model.U[i] @ model.V[j]
    probs = _column_probs([theta], edf, model.sigma)[0]
    return EntryDistribution(edf.distinct, probs)


def _bin_moments(edf, sigma):
    """Bin centres and, in row p, each bin's moment A_p (p = 0..P).

    A bin holds the cuts of one nonempty cell of a sigma-wide grid. When
    the series would cost as many terms as there are cuts, every cut is its
    own bin with A_0 = w_k alone: the direct sum."""
    cuts = edf.z_cuts[1:-1]
    steps = np.diff(edf.distinct)
    cells = np.floor((cuts - cuts[0]) / sigma)
    starts = np.flatnonzero(np.diff(cells)) + 1
    if (starts.size + 1) * (_HERMITE_ORDER + 1) >= cuts.size:
        return cuts, steps[None, :]
    starts = np.concatenate([[0], starts])
    ends = np.append(starts[1:], cuts.size)
    centres = 0.5 * (cuts[starts] + cuts[ends - 1])
    delta = (np.repeat(centres, ends - starts) - cuts) / sigma
    # row p of the cumulative product is w_k delta_k^p / p!
    factors = np.empty((_HERMITE_ORDER + 1, cuts.size))
    factors[0] = steps
    factors[1:] = delta / np.arange(1.0, _HERMITE_ORDER + 1.0)[:, None]
    return centres, np.add.reduceat(np.cumprod(factors, axis=0), starts, axis=1)


def _column_means(theta_col, edf, sigma):
    """Exact conditional means at latent means theta_col, by the binned
    Hermite expansion in the module docstring, clipped to the support
    against roundoff."""
    centres, moments = _bin_moments(edf, sigma)
    x = np.asarray(theta_col, dtype=float)[:, None] - centres[None, :]
    x /= sigma
    mu = edf.distinct[0] + std_normal_cdf(x) @ moments[0]
    if moments.shape[0] > 1:
        # coefs[n] = (-1)^n A_{n+1} multiplies He_n; Clenshaw's recurrence
        # b_n = a_n + x b_{n+1} - (n+1) b_{n+2} leaves the series in b_0
        coefs = moments[1:].copy()
        coefs[1::2] *= -1.0
        np.clip(x, -_HERMITE_CLIP, _HERMITE_CLIP, out=x)
        b1 = np.zeros_like(x)
        b2 = np.zeros_like(x)
        tmp = np.empty_like(x)
        for n in range(coefs.shape[0] - 1, -1, -1):
            b2 *= -(n + 1.0)
            b2 += np.multiply(x, b1, out=tmp)
            b2 += coefs[n]
            b1, b2 = b2, b1
        mu += np.einsum("ij,ij->i", std_normal_pdf(x), b1)
    return np.clip(mu, edf.distinct[0], edf.distinct[-1])


def impute_median(model, scope=None):
    """Median estimates: the empirical quantile of Phi(theta) per entry.

    Uses the max-rank EDF with the literal largest-value-not-exceeding
    inverse, so every estimate is an observed value of its column."""
    _require_xpca(model)
    mask = _scope_mask(model, scope)
    theta = model.theta()
    out = np.full(theta.shape, np.nan)
    for j, edf in enumerate(model.marginals):
        rows = mask[:, j]
        if not rows.any():
            continue
        u = std_normal_cdf(theta[rows, j])
        out[rows, j] = edf_inverse(edf, u, EdfVariant.MAX_RANK)
    return out


def impute_mean(model, scope=None):
    """Exact means: support-weighted expectation of each entry distribution,
    clipped to the column support against summation roundoff."""
    _require_xpca(model)
    mask = _scope_mask(model, scope)
    theta = model.theta()
    out = np.full(theta.shape, np.nan)
    for j, edf in enumerate(model.marginals):
        rows = mask[:, j]
        if not rows.any():
            continue
        out[rows, j] = _column_means(theta[rows, j], edf, model.sigma)
    return out


class MeanCurve:
    """Piecewise-linear stand-in for one column's exact mean function.

    grid holds increasing theta nodes; values the exact means there, with
    the end nodes pinned to the support limits. Evaluation clamps beyond
    the grid, matching the saturation of the exact mean."""

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 3:
            raise ValueError("grid and values must be matching vectors (>= 3)")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("curve values must be nondecreasing")
        self.grid = grid
        self.values = values

    def __call__(self, theta):
        return np.interp(theta, self.grid, self.values)


def default_q(m):
    """Interpolation node count: a tenth of the rows, floored at 30."""
    return max(30, int(m) // 10)


def build_mean_curve(model, j, q):
    """Mean-curve nodes for column j: q-point standard-normal quantile grid,
    every gap wider than _MAX_GAP*sigma subdivided (the curve bends on the
    sigma scale around each cut, so chords must stay short relative to it),
    and exact-limit anchors _ANCHOR_SIGMAS*sigma beyond the outermost cuts
    where the curve has flattened onto min/max."""
    _require_xpca(model)
    if q < 3:
        raise ValueError("q must be at least 3")
    edf = model.marginals[j]
    sigma = model.sigma
    cuts = edf.z_cuts
    lo_anchor = cuts[1] - _ANCHOR_SIGMAS * sigma
    hi_anchor = cuts[-2] + _ANCHOR_SIGMAS * sigma

    ell = np.arange(2, q)
    interior = std_normal_quantile((ell - 1.0) / (q - 1.0))
    interior = interior[(interior > lo_anchor) & (interior < hi_anchor)]
    step = _MAX_GAP * sigma
    base = np.concatenate([[lo_anchor], interior, [hi_anchor]])
    gaps = np.diff(base)
    # cap keeps the grid finite when sigma sits near its floor (curve is
    # then a near-step function no interp grid can chase anyway)
    extra = np.clip(np.ceil(gaps / step) - 1.0, 0, 512).astype(np.int64)
    # each gap's interior points of np.linspace(a, b, extra + 2), bit for bit
    rank = np.arange(extra.sum()) - np.repeat(np.cumsum(extra) - extra, extra)
    fills = (rank + 1) * np.repeat(gaps / (extra + 1), extra) \
        + np.repeat(base[:-1], extra)
    inner = np.unique(np.concatenate([interior, fills]))

    grid = np.concatenate([[lo_anchor], inner, [hi_anchor]])
    values = np.empty_like(grid)
    values[1:-1] = _column_means(inner, edf, sigma)
    values[0] = edf.distinct[0]
    values[-1] = edf.distinct[-1]
    # exact means are nondecreasing in theta; undo any last-ulp inversions
    values = np.maximum.accumulate(values)
    return MeanCurve(grid, values)


def impute_mean_interp(model, curves=None, q=None, scope=None):
    """Mean estimates via per-column interpolation curves.

    curves, when given, must come from build_mean_curve on this model;
    otherwise they are built with q nodes (default max(30, m/10)), for the
    columns with a cell in scope only."""
    _require_xpca(model)
    mask = _scope_mask(model, scope)
    if curves is None:
        if q is None:
            q = default_q(model.m)
        curves = [build_mean_curve(model, j, q) if mask[:, j].any() else None
                  for j in range(model.n)]
    if len(curves) != model.n:
        raise ValueError("need one curve per column")
    theta = model.theta()
    out = np.full(theta.shape, np.nan)
    for j, curve in enumerate(curves):
        rows = mask[:, j]
        if rows.any():
            out[rows, j] = curve(theta[rows, j])
    return out


def impute(model, estimator="mean-interp", q=None, scope=None):
    """Method-appropriate estimates on the original scale.

    PCA and COCA models each have a single estimator (column-destandardized
    theta; empirical quantile of Phi(theta)); the estimator argument selects
    among the xpca flavors."""
    if model.method == "pca":
        return pca_impute(model)
    if model.method == "coca":
        return coca_impute(model)
    if estimator == "median":
        return impute_median(model, scope=scope)
    if estimator == "mean":
        return impute_mean(model, scope=scope)
    if estimator == "mean-interp":
        return impute_mean_interp(model, q=q, scope=scope)
    raise ValueError("estimator must be median, mean, or mean-interp")
