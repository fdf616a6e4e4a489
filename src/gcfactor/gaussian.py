"""Shared low-rank Gaussian machinery: column transforms, masked SSE
minimization, orthogonalization, and the PCA/COCA imputers."""

import functools

import numpy as np

from .data import ObservedMatrix
from .marginals import EdfVariant, edf_inverse, fit_edf
from .normals import std_normal_cdf, std_normal_quantile


class ZMatrix:
    """Latent-scale values on observed entries (NaN elsewhere), mask shared
    with the source data."""

    def __init__(self, values, mask):
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if values.shape != mask.shape:
            raise ValueError("values and mask shapes must match")
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("observed z values must be finite")
        self.values = np.where(mask, values, np.nan)
        self.mask = mask

    @property
    def shape(self):
        return self.values.shape

    def zero_filled(self):
        """The values with 0 in place of every unobserved entry."""
        return np.where(self.mask, self.values, 0.0)


class FactorModel:
    """Fitted low-rank factorization of the latent Gaussian matrix.

    U is m×k (scores), V is n×k (components), theta = U Vᵀ estimates the
    latent means, sigma the residual scale. marginals carries what the
    method needs to map back to data space: (mean, stddev) pairs for pca,
    per-column empirical distributions for coca/xpca. epsilon is the
    censoring offset (xpca only). info collects fit diagnostics.
    """

    def __init__(self, method, U, V, sigma, marginals, epsilon=None,
                 column_names=None, info=None):
        method = str(method).lower()
        if method not in ("pca", "coca", "xpca"):
            raise ValueError("unknown method %r" % method)
        self.method = method
        self.U = np.asarray(U, dtype=float)
        self.V = np.asarray(V, dtype=float)
        if self.U.ndim != 2 or self.V.ndim != 2 or self.U.shape[1] != self.V.shape[1]:
            raise ValueError("U and V must be 2-d with a shared rank")
        self.sigma = float(sigma)
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.marginals = list(marginals)
        if len(self.marginals) != self.V.shape[0]:
            raise ValueError("need one marginal per column")
        self.epsilon = None if epsilon is None else float(epsilon)
        if column_names is None:
            column_names = ["col%d" % j for j in range(self.V.shape[0])]
        self.column_names = list(column_names)
        if len(self.column_names) != self.V.shape[0]:
            raise ValueError("need one name per column")
        self.info = dict(info or {})

    @property
    def m(self):
        return self.U.shape[0]

    @property
    def n(self):
        return self.V.shape[0]

    @property
    def rank(self):
        return self.U.shape[1]

    def theta(self):
        return self.U @ self.V.T

    def __repr__(self):
        return "FactorModel(%s, %dx%d, rank=%d, sigma=%.4g)" % (
            self.method, self.m, self.n, self.rank, self.sigma)


def standardize(data):
    """Center and scale each column by its observed mean and population
    stddev. Returns (ZMatrix, list of (mean, stddev))."""
    stats = []
    z = np.array(data.values, dtype=float)
    for j in range(data.n):
        col = data.column_observed(j)
        mu = float(np.mean(col))
        sd = float(np.sqrt(np.mean((col - mu) ** 2)))
        if sd == 0.0:
            raise ValueError("column %d has zero standard deviation" % j)
        z[:, j] = (z[:, j] - mu) / sd
        stats.append((mu, sd))
    return ZMatrix(np.where(data.mask, z, 0.0), data.mask), stats


def coca_transform(data, ties="midpoint"):
    """Map observed values through their empirical CDF to normal scores.

    The midpoint-rank convention keeps every score strictly finite. ties="max"
    ranks tied values at their maximum rank over the same m+1 denominator
    (finite as well, but heavily skewed for discrete columns); it exists for
    comparing tie-handling strategies.
    """
    if ties not in ("midpoint", "max"):
        raise ValueError("ties must be 'midpoint' or 'max'")
    edfs = [fit_edf(data.column_observed(j)) for j in range(data.n)]
    z = np.zeros_like(data.values)
    for j, edf in enumerate(edfs):
        obs = data.mask[:, j]
        idx = np.searchsorted(edf.distinct, data.values[obs, j])
        if ties == "midpoint":
            u = edf.cum_mid[idx]
        else:
            u = np.cumsum(edf.counts)[idx] / (edf.m_obs + 1.0)
        z[obs, j] = std_normal_quantile(u)
    return ZMatrix(z, data.mask), edfs


@functools.lru_cache(maxsize=32)
def _lower_pairs(k):
    # (row, col) of each entry of a k×k lower triangle, column by column:
    # the order in which packed Gram matrices store their entries
    cols, rows = np.triu_indices(k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _solve_packed(H, g, shift):
    """Solve (H_i + shift_i I) x_i = g_i for every row i of a batch of
    small symmetric positive definite systems.

    H holds each row's lower triangle packed as (k(k+1)/2, rows) in
    _lower_pairs order, g is (k, rows), and shift is a scalar or one value
    per row. Returns x as (rows, k).

    A Cholesky factorization vectorized over rows: every numpy call works
    on whole vectors over rows, O(k) calls in all. The factor of row i is
    L[:k, :, i], computed column by column (left-looking); g rides along
    as row k of L, so the same column updates do the forward substitution,
    and a back substitution finishes. A non-positive or non-finite pivot
    raises np.linalg.LinAlgError.
    """
    k, m = g.shape
    rows, cols = _lower_pairs(k)
    L = np.empty((k + 1, k, m))
    L[rows, cols] = H
    L[k] = g
    pivots = L[:k].reshape(k * k, m)[::k + 1]   # the diagonal, as a view
    pivots += shift
    # a failed pivot turns into NaN, 0 or inf and is caught below; a
    # non-finite right-hand side gives a non-finite x quietly, as LAPACK does
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(k):
            if j:
                L[j:, j] -= np.einsum("ipm,pm->im", L[j:, :j], L[j, :j])
            np.sqrt(L[j, j], out=L[j, j])
            L[j + 1:, j] /= L[j, j]
        if not (pivots.min() > 0.0 and pivots.max() < np.inf):
            raise np.linalg.LinAlgError(
                "a row system is not positive definite")
        x = L[k]
        for i in range(k - 1, -1, -1):
            if i + 1 < k:
                x[i] -= np.einsum("pm,pm->m", L[i + 1:k, i], x[i + 1:])
            x[i] /= pivots[i]
    return x.T.copy()


def _solve_rows(W, Z0, basis, ridge):
    """One normal-equation solve per row of the updated factor:
    (basisᵀ diag(w_i) basis + ridge I) x_i = basisᵀ (w_i ⊙ z_i).

    The k(k+1)/2 distinct entries of every row's Gram matrix come from one
    matmul of the table of basis products b_ja b_jc (a ≥ c) against Wᵀ, as
    (pairs, rows), so each entry is a contiguous vector over rows; that
    costs O(rows·len(basis)·k²/2). _solve_packed then factorizes all rows
    at once, O(rows·k³/6). Z0 is zero off the mask, so w_i ⊙ z_i = z_i.
    W and Z0 may be transposed views: BLAS reads them in place.
    Returns the new factor (rows × k) and the right-hand sides as (k, rows).
    """
    rows, cols = _lower_pairs(basis.shape[1])
    H = (basis[:, rows] * basis[:, cols]).T @ W.T
    g = basis.T @ Z0.T
    return _solve_packed(H, g, ridge), g


def _masked_sse(Z0, W, U, V):
    R = (Z0 - U @ V.T) * W
    return float(np.sum(R * R))


def fit_gaussian(z, rank, max_sweeps=500, tol=1e-9, ridge=1e-8, svd=None):
    """Minimize the observed-entry SSE with a rank-`rank` factorization.

    Complete data goes straight through the truncated SVD. With missing
    entries, alternating least squares (exact block solves with a small
    ridge) starts from the SVD of the zero-filled matrix and stops when the
    relative SSE change drops below tol. svd, when given, is that SVD as
    np.linalg.svd(z.zero_filled(), full_matrices=False) returns it, so
    fits at several ranks can share one decomposition (fit_ranks).

    One sweep costs two masked Gram products, each a single BLAS matmul of
    the mask against the k(k+1)/2 distinct basis products (O(mnk²/2)
    flops), plus m + n k×k Cholesky solves, O((m + n)k³/6) flops in O(k)
    numpy calls vectorized over rows (_solve_rows). The stop test reads
    the SSE off the V-step normal equations, Σ z² − Σ_j v_jᵀ g_j −
    ridge·‖V‖², in O(nk) instead of forming U Vᵀ. That identity can cancel
    to a tiny negative number on exactly low-rank data, so the returned SSE
    and sigma are computed directly from the final factors.

    Returns (U, V, sigma, info) where sigma is the residual-scale MLE
    sqrt(SSE / #observed) and info records sweeps, convergence, and SSE.
    """
    values, mask = z.values, z.mask
    m, n = values.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError("rank must lie in [1, min(m, n)]")
    W = mask.astype(float)
    Z0 = z.zero_filled()
    n_obs = int(mask.sum())

    if svd is None:
        svd = np.linalg.svd(Z0, full_matrices=False)
    Us, s, Vt = svd
    U = Us[:, :rank] * s[:rank]
    V = Vt[:rank].T

    if mask.all():
        sse = float(np.sum(s[rank:] ** 2))
        sigma = np.sqrt(sse / n_obs)
        info = {"sweeps": 0, "converged": True, "sse": sse}
        return U, V, sigma, info

    total_sq = float(np.sum(Z0 * Z0))
    sse = _masked_sse(Z0, W, U, V)
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        U = _solve_rows(W, Z0, V, ridge)[0]
        V, g = _solve_rows(W.T, Z0.T, U, ridge)
        new_sse = (total_sq - float(np.sum(V.T * g))
                   - ridge * float(np.sum(V * V)))
        rel = abs(sse - new_sse) / max(sse, new_sse, 1e-300)
        sse = new_sse
        if rel < tol:
            converged = True
            break
    sse = _masked_sse(Z0, W, U, V)
    sigma = np.sqrt(sse / n_obs)
    info = {"sweeps": sweeps, "converged": converged, "sse": sse}
    return U, V, sigma, info


def thin_svd(U, V):
    """Thin SVD of U Vᵀ from k×k factors: (P, s, Q) with U Vᵀ = P diag(s) Qᵀ,
    orthonormal P (m×k) and Q (n×k), s nonincreasing."""
    Qu, Ru = np.linalg.qr(U)
    Qv, Rv = np.linalg.qr(V)
    P, s, Wt = np.linalg.svd(Ru @ Rv.T)
    return Qu @ P, s, Qv @ Wt.T


def orthogonalize(U, V):
    """Rotate factors so V has orthonormal columns and U absorbs the
    singular values (columns ordered by nonincreasing norm). The product
    U Vᵀ is unchanged up to roundoff."""
    P, s, Q = thin_svd(U, V)
    return P * s, Q


def fit_ranks(method, data, ranks, ties="midpoint", **opts):
    """Fit a pca or coca model at each rank in `ranks`, from one column
    transform and one SVD warm start shared by all of them.

    pca standardizes the columns, coca maps them to normal scores under
    the `ties` convention; each rank is then factorized and canonicalized.
    Every model equals, bit for bit, the one a separate fit at that rank
    returns, since each rank's ALS starts from the same SVD. opts go to
    fit_gaussian.
    """
    if method == "pca":
        z, marginals = standardize(data)
    elif method == "coca":
        z, marginals = coca_transform(data, ties=ties)
    else:
        raise ValueError("fit_ranks fits pca or coca, not %r" % method)
    svd = np.linalg.svd(z.zero_filled(), full_matrices=False)
    models = []
    for rank in ranks:
        U, V, sigma, info = fit_gaussian(z, rank, svd=svd, **opts)
        U, V = orthogonalize(U, V)
        if method == "coca":
            info["ties"] = ties
        models.append(FactorModel(method, U, V, sigma, marginals,
                                  column_names=data.column_names, info=info))
    return models


def fit_pca(data, rank, **opts):
    """Standardize columns, factorize, canonicalize."""
    return fit_ranks("pca", data, [rank], **opts)[0]


def fit_coca(data, rank, ties="midpoint", **opts):
    """Rank-transform columns to normal scores, factorize, canonicalize."""
    return fit_ranks("coca", data, [rank], ties=ties, **opts)[0]


def pca_impute(model):
    """Estimates on the original scale: theta restored by column stats."""
    if model.method != "pca":
        raise ValueError("model was not fitted by pca")
    theta = model.theta()
    mu = np.array([m0 for m0, _ in model.marginals])
    sd = np.array([s0 for _, s0 in model.marginals])
    return theta * sd + mu


def coca_impute(model):
    """Estimates pulled back through each column's empirical quantile
    function, under the same tie convention the model was fitted with;
    every estimate is an observed value of its column."""
    if model.method != "coca":
        raise ValueError("model was not fitted by coca")
    ties = model.info.get("ties", "midpoint")
    theta = model.theta()
    out = np.empty_like(theta)
    for j, edf in enumerate(model.marginals):
        u = std_normal_cdf(theta[:, j])
        if ties == "max":
            # the max-rank scores live on the over-(m+1) staircase, which
            # tops out at m/(m+1); rescale so the inverse walks the same
            # steps the transform used (the clip cannot change the result)
            u = np.minimum(u * (edf.m_obs + 1.0) / edf.m_obs, 1.0)
            out[:, j] = edf_inverse(edf, u, EdfVariant.MAX_RANK)
        else:
            out[:, j] = edf_inverse(edf, u, EdfVariant.MID_RANK)
    return out
