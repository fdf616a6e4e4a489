"""Interval-censored Gaussian likelihood: value and analytic derivatives.

Each observed entry contributes -log P(l < Z <= r) with Z ~ N(theta_ij,
sigma^2); unobserved entries contribute nothing and are never evaluated.
The kernel runs over flat length-nnz arrays of the observed entries, and
gradients and row Hessians are sparse products against the factors, so
memory is O(nnz * k) rather than O(m * n).

Everything reduces to four ratios per entry, with x = (l-theta)/s,
y = (r-theta)/s, p = Phi(y) - Phi(x):

    t1   = (phi(y) - phi(x)) / p
    t2   = (y phi(y) - x phi(x)) / p
    t_sq = (y^2 phi(y) - x^2 phi(x)) / p
    t3   = (y^3 phi(y) - x^3 phi(x)) / p

    d(entry loss)/dtheta      = t1 / sigma
    d2(entry loss)/dtheta2    = (t1^2 + t2) / sigma^2
    d(total loss)/dsigma      = sum t2 / sigma
    d2(total loss)/dsigma2    = sum (t2^2 + t3 - 2 t2) / sigma^2

and, in s = log sigma, d2(entry loss)/dtheta ds = (t_sq + t1 t2 - t1) / sigma
and d2(entry loss)/ds2 = t2^2 + t3 - t2, the pieces of factor_hessian's
Hessian-vector products.

When both endpoints sit in the same tail the direct CDF difference cancels
catastrophically, so p and every ratio are evaluated in log space there.
Terms like y*phi(y) at infinite endpoints take their analytic limit 0.
"""

import numpy as np
import scipy.sparse
from scipy.special import ndtr

from .marginals import _value_indices
from .normals import (
    IntervalUnderflowError,
    _log_diff,
    _split_tails,
    _tail_log_prob,
)

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class BoundsMatrix:
    """Latent censoring intervals (lower, upper] of the observed entries.

    Each observed entry is stored once, in row-major order: rows, cols,
    lower and upper are length-nnz arrays, with per-row and per-column
    counts; mask is the dense observed pattern. lower and upper may be
    given as m×n matrices, read at the observed entries only, or as
    length-nnz vectors in that order.
    """

    def __init__(self, lower, upper, mask):
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValueError("mask must be a matrix")
        self.rows, self.cols = np.nonzero(self.mask)
        self.lower = self._entries(lower)
        self.upper = self._entries(upper)
        if np.any(~(self.lower < self.upper)):
            raise ValueError("bounds must satisfy lower < upper on observed entries")
        self.row_counts = self.mask.sum(axis=1)
        self.col_counts = self.mask.sum(axis=0)
        self._indptr = np.concatenate([[0], np.cumsum(self.row_counts)])

    def _entries(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape == self.mask.shape:
            return values[self.rows, self.cols]
        if values.shape == self.rows.shape:
            return values
        raise ValueError("lower, upper, mask shapes must match")

    @property
    def shape(self):
        return self.mask.shape

    @property
    def nnz(self):
        return self.rows.size

    def observed_theta(self, U, V):
        """Latent means (U Vᵀ)_ij at the observed entries, without forming
        U Vᵀ."""
        return np.einsum("ik,ik->i", U.take(self.rows, axis=0),
                         V.take(self.cols, axis=0))

    def sparse(self, values):
        """The m×n CSR array holding values at the observed entries."""
        return scipy.sparse.csr_array((values, self.cols, self._indptr),
                                      shape=self.shape)


def build_bounds(data, edfs):
    """Censoring interval for every observed entry from its column's
    empirical distribution: (Phi^-1(F(x - eps)), Phi^-1(F(x))] with F the
    max-rank cumulative, which for any eps below the column's smallest
    value gap is the latent cut just below x and the one at x."""
    mask = data.mask
    rows, cols = np.nonzero(mask)
    lower = np.empty(rows.size)
    upper = np.empty(rows.size)
    # entries of each column, in row order, as one stable sort of cols
    order = np.argsort(cols, kind="stable")
    starts = np.concatenate([[0], np.cumsum(mask.sum(axis=0))])
    for j, edf in enumerate(edfs):
        at = order[starts[j]:starts[j + 1]]
        if not at.size:
            continue
        idx = _value_indices(edf, data.values[rows[at], j])
        cuts = edf.z_cuts
        lower[at] = cuts[idx]
        upper[at] = cuts[idx + 1]
    return BoundsMatrix(lower, upper, mask)


class DerivativeWorkspace:
    """Entry-wise pieces of the censored likelihood at one (theta, sigma).

    Arrays are flat over the observed entries, in the order of bounds:
    logp (log interval probability), A (d loss / d theta), D2 (d2 loss /
    d theta2), T2/Tsq/T3 (the ratios t2, t_sq and t3 of the scale
    derivatives). A value-only workspace carries logp alone and None for
    the rest.
    """

    __slots__ = ("logp", "A", "D2", "T2", "Tsq", "T3", "sigma", "bounds")

    def __init__(self, logp, A, D2, T2, Tsq, T3, sigma, bounds):
        self.logp = logp
        self.A = A
        self.D2 = D2
        self.T2 = T2
        self.Tsq = Tsq
        self.T3 = T3
        self.sigma = sigma
        self.bounds = bounds

    def nll(self):
        return -float(np.sum(self.logp))

    def row_nll(self):
        b = self.bounds
        return -np.bincount(b.rows, weights=self.logp, minlength=b.shape[0])

    def col_nll(self):
        b = self.bounds
        return -np.bincount(b.cols, weights=self.logp, minlength=b.shape[1])


def _log_phi(x):
    # log density; -inf at +-inf
    out = np.full_like(x, -np.inf)
    finite = np.isfinite(x)
    out[finite] = -0.5 * x[finite] ** 2 - _LOG_SQRT_2PI
    return out


def _log_xkphi(x, k):
    # log(x^k * phi(x)) for x > 0, with the x = +inf limit 0 mapped to -inf
    out = np.full_like(x, -np.inf)
    finite = np.isfinite(x)
    xf = x[finite]
    out[finite] = k * np.log(xf) - 0.5 * xf ** 2 - _LOG_SQRT_2PI
    return out


def _density_moments(x):
    # phi(x), x phi(x), x^2 phi(x) and x^3 phi(x) from one exp. Past
    # |x| = 40 the density is a hard zero, so clipping there gives the
    # limit 0 at infinite endpoints and dodges inf * 0.
    xc = np.clip(x, -40.0, 40.0)
    phi = np.exp(-0.5 * xc * xc - _LOG_SQRT_2PI)
    xphi = xc * phi
    return phi, xphi, xc * xphi, xc * xc * xphi


def compute_workspace(theta, sigma, bounds, derivs=True, on_underflow="raise"):
    """Evaluate logp (and, with derivs, the t-ratios) on every observed entry.

    theta holds the latent means at the observed entries, in the order of
    bounds; an m×n matrix is read at the observed entries only.

    Raises IntervalUnderflowError, naming an offending entry, if any interval
    probability is flush zero even in log space. With on_underflow="inf" the
    workspace comes back with logp = -inf at the bad entries instead, so a
    line search can treat the point as a rejected step.
    """
    sigma = float(sigma)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    theta = np.asarray(theta, dtype=float)
    if theta.shape == bounds.shape:
        theta = theta[bounds.rows, bounds.cols]
    elif theta.shape != (bounds.nnz,):
        raise ValueError("theta shape must match bounds")
    lower, upper = bounds.lower, bounds.upper

    with np.errstate(invalid="ignore"):
        x = (lower - theta) / sigma
        y = (upper - theta) / sigma
    x = np.where(np.isneginf(lower), -np.inf, x)
    y = np.where(np.isposinf(upper), np.inf, y)

    tail, upper_tail, xt, yt = _split_tails(x, y)
    body = ~tail

    logp = np.empty(bounds.nnz)
    if derivs:
        t1 = np.empty(bounds.nnz)
        T2 = np.empty(bounds.nnz)
        Tsq = np.empty(bounds.nnz)
        T3 = np.empty(bounds.nnz)

    if np.any(body):
        xb, yb = x[body], y[body]
        p = ndtr(yb) - ndtr(xb)
        with np.errstate(divide="ignore"):
            logp[body] = np.log(p)
        if derivs:
            pd = np.where(p > 0, p, 1.0)
            px, xpx, x2px, x3px = _density_moments(xb)
            py, ypy, y2py, y3py = _density_moments(yb)
            t1[body] = (py - px) / pd
            T2[body] = (ypy - xpx) / pd
            Tsq[body] = (y2py - x2px) / pd
            T3[body] = (y3py - x3px) / pd

    if np.any(tail):
        lp = _tail_log_prob(xt, yt)
        logp[tail] = lp
        if derivs:
            sign = np.where(upper_tail, -1.0, 1.0)
            # a rejected entry (lp = -inf) gives -inf - -inf = nan here; it
            # is zeroed with the other bad entries below. phi and x^2 phi
            # are even, so t1 and t_sq flip sign with the reflection, while
            # the odd x phi and x^3 phi leave t2 and t3 negative in both.
            with np.errstate(invalid="ignore"):
                t1[tail] = sign * np.exp(_log_diff(_log_phi(xt), _log_phi(yt)) - lp)
                T2[tail] = -np.exp(_log_diff(_log_xkphi(xt, 1), _log_xkphi(yt, 1)) - lp)
                Tsq[tail] = sign * np.exp(_log_diff(_log_xkphi(xt, 2),
                                                    _log_xkphi(yt, 2)) - lp)
                T3[tail] = -np.exp(_log_diff(_log_xkphi(xt, 3), _log_xkphi(yt, 3)) - lp)

    bad = np.isneginf(logp) | np.isnan(logp)
    if np.any(bad):
        if on_underflow != "inf":
            e = np.flatnonzero(bad)[0]
            raise IntervalUnderflowError(
                "interval probability underflowed at entry (%d, %d)"
                % (bounds.rows[e], bounds.cols[e]))
        logp[bad] = -np.inf
        if derivs:
            for arr in (t1, T2, Tsq, T3):
                arr[bad] = 0.0

    if not derivs:
        return DerivativeWorkspace(logp, None, None, None, None, None, sigma,
                                   bounds)
    A = t1 / sigma
    D2 = (t1 * t1 + T2) / sigma ** 2
    return DerivativeWorkspace(logp, A, D2, T2, Tsq, T3, sigma, bounds)


def grad_sigma(theta, sigma, bounds, workspace=None):
    ws = workspace or compute_workspace(theta, sigma, bounds)
    return float(np.sum(ws.T2)) / ws.sigma


def hess_sigma(theta, sigma, bounds, workspace=None):
    ws = workspace or compute_workspace(theta, sigma, bounds)
    return float(np.sum(ws.T2 * ws.T2 + ws.T3 - 2.0 * ws.T2)) / ws.sigma ** 2


def grad_factors(U, V, sigma, bounds, workspace=None):
    """(d NLL/dU, d NLL/dV) = (A V, A^T U) with A sparse on the observed
    entries."""
    ws = workspace or compute_workspace(bounds.observed_theta(U, V), sigma,
                                        bounds)
    A = bounds.sparse(ws.A)
    return A @ V, A.T @ U


def factor_hessian(U, V, workspace, ridge=0.0):
    """Hessian-vector products of NLL(U Vᵀ, e^s) + (ridge / 2)(||U||² +
    ||V||²) in (U, V, s = log sigma), at the point workspace was computed.

    Returns product(dU, dV, ds) -> (hU, hV, hs). With dtheta = dU Vᵀ +
    U dVᵀ at the observed entries, S = D2 ∘ dtheta + C ds and C the mixed
    derivative (t_sq + t1 t2 - t1) / sigma, the product is

        hU = S V + A dV + ridge dU
        hV = Sᵀ U + Aᵀ dU + ridge dV
        hs = sum C dtheta + ds sum (t2² + t3 - t2)

    S V is evaluated row by row without gathering dtheta: its i-th row is
    H_i dU_i + (sum_j D2_ij V_j dV_jᵀ) U_i + ds (C V)_i, with H_i the row
    Hessian of batched_row_hessians, and likewise for Sᵀ U. The row
    Hessians (ridge on their diagonals), C V, Cᵀ U and the sum are built
    here, once per point; each product is then two sparse products against
    k²-column tables of outer products and two against dV and dU,
    O(nnz k²).
    """
    ws = workspace
    b = ws.bounds
    k = U.shape[1]
    t1 = ws.A * ws.sigma
    C = b.sparse((ws.Tsq + t1 * ws.T2 - t1) / ws.sigma)
    CV, CU = C @ V, C.T @ U
    css = float(np.sum(ws.T2 * ws.T2 + ws.T3 - ws.T2))
    A, D2 = b.sparse(ws.A), b.sparse(ws.D2)
    HU = batched_row_hessians(V, ws, 0)
    HV = batched_row_hessians(U, ws, 1)
    HU[:, np.arange(k), np.arange(k)] += ridge
    HV[:, np.arange(k), np.arange(k)] += ridge

    def product(dU, dV, ds):
        P = D2 @ (V[:, :, None] * dV[:, None, :]).reshape(-1, k * k)
        Q = D2.T @ (U[:, :, None] * dU[:, None, :]).reshape(-1, k * k)
        hU = (np.einsum("ikl,il->ik", HU, dU)
              + np.einsum("ikl,il->ik", P.reshape(-1, k, k), U)
              + A @ dV + ds * CV)
        hV = (np.einsum("jkl,jl->jk", HV, dV)
              + np.einsum("jkl,jl->jk", Q.reshape(-1, k, k), V)
              + A.T @ dU + ds * CU)
        hs = float(np.sum(dU * CV) + np.sum(dV * CU)) + css * ds
        return hU, hV, hs

    return product


def batched_row_hessians(basis, workspace, axis):
    """All row Hessians at once: stacked k×k matrices.

    axis=0 gives the Hessians in U's rows, sum_j D2_ij v_j v_jᵀ with
    basis=V; axis=1 those in V's rows, sum_i D2_ij u_i u_iᵀ with basis=U.
    Both are one sparse product of D2 with the table of basis outer
    products.
    """
    k = basis.shape[1]
    outer = (basis[:, :, None] * basis[:, None, :]).reshape(-1, k * k)
    D2 = workspace.bounds.sparse(workspace.D2)
    H = D2 @ outer if axis == 0 else D2.T @ outer
    return H.reshape(-1, k, k)
