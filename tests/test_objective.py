import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from gcfactor.data import ObservedMatrix
from gcfactor.marginals import fit_edf, global_epsilon
from gcfactor.normals import IntervalUnderflowError, log_interval_prob
from gcfactor.objective import (
    BoundsMatrix,
    batched_row_hessians,
    build_bounds,
    compute_workspace,
    entry_d2theta,
    entry_dtheta,
    grad_factors,
    grad_sigma,
    hess_sigma,
    nll,
    row_hessian_u,
    row_hessian_v,
)


def rel_err(a, b, floor=1e-10):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def dense(bounds, values):
    """Scatter flat per-entry values onto the m×n grid, NaN elsewhere."""
    out = np.full(bounds.shape, np.nan)
    out[bounds.rows, bounds.cols] = values
    return out


def single_bounds(lo, hi):
    return BoundsMatrix(np.array([[lo]]), np.array([[hi]]), np.ones((1, 1), bool))


def mixed_instance(m=12, n=9, rank=2, missing=0.3, seed=0):
    """Random mixed-column data with its bounds and a random evaluation point."""
    rng = np.random.default_rng(seed)
    om = None
    while om is None:
        z = rng.normal(size=(m, rank)) @ rng.normal(size=(n, rank)).T / np.sqrt(rank)
        z += 0.4 * rng.normal(size=(m, n))
        x = z.copy()
        for j in range(n):
            kind = j % 3
            if kind == 0:
                x[:, j] = (z[:, j] > 0).astype(float)          # binary
            elif kind == 1:
                x[:, j] = np.round(z[:, j])                     # small ordinal
        hide = rng.random(size=(m, n)) < missing
        x = np.where(hide, np.nan, x)
        try:
            om = ObservedMatrix(x)
        except ValueError:  # masked a column into degeneracy; redraw
            continue
    edfs = [fit_edf(om.column_observed(j)) for j in range(n)]
    eps = global_epsilon(edfs)
    bounds = build_bounds(om, edfs, eps)
    U = rng.normal(scale=0.7, size=(m, rank))
    V = rng.normal(scale=0.7, size=(n, rank))
    sigma = rng.uniform(0.4, 1.2)
    return om, bounds, U, V, sigma


# ---------------------------------------------------------------- bounds

def test_build_bounds_binary_column():
    col = np.repeat([0.0, 1.0], [30, 70]).reshape(-1, 1) * np.ones((1, 2))
    om = ObservedMatrix(col)
    edfs = [fit_edf(om.column_observed(j)) for j in range(2)]
    bounds = build_bounds(om, edfs, 0.25)
    lower, upper = dense(bounds, bounds.lower), dense(bounds, bounds.upper)
    from scipy.special import ndtri
    c = ndtri(0.3)
    assert lower[0, 0] == -np.inf
    assert upper[0, 0] == pytest.approx(c, abs=1e-12)
    assert lower[-1, 0] == pytest.approx(c, abs=1e-12)
    assert np.isposinf(upper[-1, 0])


def test_build_bounds_reference_value():
    col = np.repeat([1.0, 2.0, 3.0, 4.0], [70, 301, 430, 199])
    om = ObservedMatrix(np.column_stack([col, np.tile([0.0, 1.0], 500)]))
    edfs = [fit_edf(om.column_observed(j)) for j in range(2)]
    bounds = build_bounds(om, edfs, global_epsilon(edfs))
    lower, upper = dense(bounds, bounds.lower), dense(bounds, bounds.upper)
    i = 70 + 301  # first row holding value 3
    assert lower[i, 0] == pytest.approx(-0.329206, abs=1e-5)
    assert upper[i, 0] == pytest.approx(0.845199, abs=1e-5)


def test_build_bounds_continuous_uniform_widths():
    from gcfactor.normals import std_normal_cdf
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(40, 1)) * np.ones((1, 2))
    om = ObservedMatrix(vals)
    edfs = [fit_edf(om.column_observed(j)) for j in range(2)]
    bounds = build_bounds(om, edfs, global_epsilon(edfs))
    lower, upper = dense(bounds, bounds.lower), dense(bounds, bounds.upper)
    widths = std_normal_cdf(upper[:, 0]) - std_normal_cdf(lower[:, 0])
    assert np.allclose(widths, 1.0 / 40.0, atol=1e-15)


# ---------------------------------------------------------------- nll

def test_nll_reference_values():
    b = single_bounds(-np.inf, 0.0)
    assert nll(np.zeros((1, 1)), 1.0, b) == pytest.approx(np.log(2), rel=1e-12)
    b = single_bounds(-np.inf, np.inf)
    assert nll(np.zeros((1, 1)), 1.0, b) == 0.0
    # two entries each holding the middle-mass interval of the reference column
    lo, hi = -0.32920598430265113, 0.84519853528205
    b = BoundsMatrix(np.full((1, 2), lo), np.full((1, 2), hi), np.ones((1, 2), bool))
    got = nll(np.zeros((1, 2)), 1.0, b)
    assert got == pytest.approx(1.687940, abs=1e-5)
    assert got == pytest.approx(-2 * np.log(0.430), abs=1e-5)


def test_nll_decreases_toward_interval():
    b = single_bounds(1.0, 2.0)
    vals = [nll(np.array([[t]]), 0.8, b) for t in (-2.0, -1.0, 0.0, 1.0, 1.5)]
    assert all(np.diff(vals) < 0)


def test_nll_underflow_reports_entry():
    b = BoundsMatrix(np.array([[0.5, 0.5]]),
                     np.array([[1.5, np.nextafter(0.5, 1.0)]]),
                     np.ones((1, 2), bool))
    with pytest.raises(IntervalUnderflowError, match=r"\(0, 1\)"):
        nll(np.zeros((1, 2)), 1.0, b)


def test_entry_argmin_inside_finite_interval():
    # golden-section search over theta: the minimizer sits inside [l, r]
    rng = np.random.default_rng(8)
    gr = (np.sqrt(5) - 1) / 2
    for _ in range(10):
        lo = rng.normal(scale=1.5)
        hi = lo + rng.uniform(0.2, 2.0)
        sigma = rng.uniform(0.3, 1.5)
        b = single_bounds(lo, hi)
        f = lambda t: nll(np.array([[t]]), sigma, b)
        a, c = lo - 5, hi + 5
        while c - a > 1e-6:
            d1, d2 = c - gr * (c - a), a + gr * (c - a)
            if f(d1) < f(d2):
                c = d2
            else:
                a = d1
        argmin = 0.5 * (a + c)
        assert lo - 1e-3 <= argmin <= hi + 1e-3


# ------------------------------------------------------- entry derivatives

def fd_dtheta(lo, hi, theta, sigma):
    h = 1e-5 * max(1.0, abs(theta))
    f = lambda t: -log_interval_prob(lo, hi, t, sigma)
    return (f(theta + h) - f(theta - h)) / (2 * h)


def fd_d2theta(lo, hi, theta, sigma):
    h = 1e-4 * max(1.0, abs(theta))
    f = lambda t: -log_interval_prob(lo, hi, t, sigma)
    return (f(theta + h) - 2 * f(theta) + f(theta - h)) / h ** 2


def test_entry_dtheta_examples():
    assert entry_dtheta((-1.3, 1.3), 0.0, 0.7) == 0.0
    assert abs(entry_dtheta((-np.inf, 5.0), -3.0, 1.0)) < 1e-3
    assert entry_dtheta((-np.inf, np.inf), 0.4, 1.0) == 0.0


def test_entry_dtheta_fd_agreement():
    rng = np.random.default_rng(13)
    for _ in range(40):
        lo = rng.normal(scale=2)
        hi = lo + rng.uniform(0.1, 3.0)
        if rng.random() < 0.2:
            lo = -np.inf
        if rng.random() < 0.2:
            hi = np.inf
        if not lo < hi:
            continue
        theta = rng.normal(scale=2)
        sigma = rng.uniform(0.3, 2.0)
        got = entry_dtheta((lo, hi), theta, sigma)
        want = fd_dtheta(lo, hi, theta, sigma)
        assert rel_err(got, want, floor=1e-6) < 1e-6


def test_entry_dtheta_deep_tail_stays_sane():
    # theta far outside: derivative magnitude ~ distance/sigma^2, no overflow
    got = entry_dtheta((10.0, 11.0), 0.0, 1.0)
    assert -10.2 < got < -9.9
    got = entry_dtheta((10.0, 11.0), 30.0, 1.0)
    assert 18.5 < got < 21.0


def test_entry_d2theta_examples_and_fd():
    assert entry_d2theta((-np.inf, np.inf), 1.0, 1.0) == 0.0
    # symmetric interval at the stationary point: curvature strictly positive
    val = entry_d2theta((-0.9, 0.9), 0.0, 1.1)
    assert val > 0
    rng = np.random.default_rng(17)
    for _ in range(30):
        lo = rng.normal(scale=1.5)
        hi = lo + rng.uniform(0.2, 2.5)
        theta = rng.normal(scale=1.5)
        sigma = rng.uniform(0.4, 1.6)
        got = entry_d2theta((lo, hi), theta, sigma)
        want = fd_d2theta(lo, hi, theta, sigma)
        assert rel_err(got, want, floor=1e-4) < 1e-4


# ------------------------------------------------------- sigma derivatives

def test_grad_sigma_flat_when_unbounded():
    b = BoundsMatrix(np.full((2, 2), -np.inf), np.full((2, 2), np.inf),
                     np.ones((2, 2), bool))
    assert grad_sigma(np.zeros((2, 2)), 0.7, b) == 0.0
    assert hess_sigma(np.zeros((2, 2)), 0.7, b) == 0.0


def test_grad_sigma_sign_on_symmetric_entry():
    a = 0.8
    b = single_bounds(-a, a)
    for sigma in (0.5, 1.0, 2.0):
        g = grad_sigma(np.zeros((1, 1)), sigma, b)
        assert g > 0  # growing sigma leaks mass out of the interval
        from gcfactor.normals import std_normal_pdf, std_normal_cdf
        p = std_normal_cdf(a / sigma) - std_normal_cdf(-a / sigma)
        expect = 2 * a * std_normal_pdf(a / sigma) / (sigma ** 2 * p)
        assert g == pytest.approx(expect, rel=1e-12)


def test_sigma_derivatives_fd_agreement():
    rng = np.random.default_rng(19)
    for trial in range(8):
        om, bounds, U, V, sigma = mixed_instance(seed=trial + 50)
        theta = U @ V.T
        f = lambda s: nll(theta, s, bounds)
        h = 1e-5 * sigma
        fd_g = (f(sigma + h) - f(sigma - h)) / (2 * h)
        fd_h = (f(sigma + h) - 2 * f(sigma) + f(sigma - h)) / h ** 2
        assert rel_err(grad_sigma(theta, sigma, bounds), fd_g) < 1e-5
        assert rel_err(hess_sigma(theta, sigma, bounds), fd_h, floor=1e-2) < 1e-4


# ------------------------------------------------------- factor derivatives

def test_grad_factors_zero_at_flat_entries():
    b = BoundsMatrix(np.full((3, 2), -np.inf), np.full((3, 2), np.inf),
                     np.ones((3, 2), bool))
    U = np.ones((3, 2))
    V = np.ones((2, 2))
    gU, gV = grad_factors(U, V, 1.0, b)
    assert np.all(gU == 0) and np.all(gV == 0)


def test_grad_factors_single_entry_chain_rule():
    mask = np.zeros((2, 2), bool)
    mask[0, 1] = True
    b = BoundsMatrix(np.where(mask, 0.3, np.nan), np.where(mask, 1.7, np.nan), mask)
    U = np.array([[0.5], [0.1]])
    V = np.array([[2.0], [-1.0]])
    ws = compute_workspace(U @ V.T, 0.9, b)
    gU, gV = grad_factors(U, V, 0.9, b, workspace=ws)
    assert (b.rows[0], b.cols[0]) == (0, 1)
    a = ws.A[0]
    assert gU[0, 0] == pytest.approx(a * V[1, 0], rel=1e-14)
    assert gU[1, 0] == 0.0
    assert gV[1, 0] == pytest.approx(a * U[0, 0], rel=1e-14)
    assert gV[0, 0] == 0.0


def test_grad_factors_fd_agreement():
    om, bounds, U, V, sigma = mixed_instance(m=10, n=8, seed=23)
    gU, gV = grad_factors(U, V, sigma, bounds)
    h = 1e-6

    def fd(mat, i, l, is_u):
        up, dn = mat.copy(), mat.copy()
        up[i, l] += h
        dn[i, l] -= h
        if is_u:
            return (nll(up @ V.T, sigma, bounds) - nll(dn @ V.T, sigma, bounds)) / (2 * h)
        return (nll(U @ up.T, sigma, bounds) - nll(U @ dn.T, sigma, bounds)) / (2 * h)

    for i in range(U.shape[0]):
        for l in range(U.shape[1]):
            assert rel_err(gU[i, l], fd(U, i, l, True), floor=1e-4) < 1e-5
    for j in range(V.shape[0]):
        for l in range(V.shape[1]):
            assert rel_err(gV[j, l], fd(V, j, l, False), floor=1e-4) < 1e-5


def test_row_hessians_match_fd_of_gradient():
    om, bounds, U, V, sigma = mixed_instance(m=9, n=7, seed=29)
    ws = compute_workspace(U @ V.T, sigma, bounds)
    h = 1e-6
    k = U.shape[1]
    for i in (0, 4, 8):
        H = row_hessian_u(V, ws, i)
        assert np.allclose(H, H.T)
        fd = np.zeros((k, k))
        for l in range(k):
            up, dn = U.copy(), U.copy()
            up[i, l] += h
            dn[i, l] -= h
            fd[:, l] = (grad_factors(up, V, sigma, bounds)[0][i]
                        - grad_factors(dn, V, sigma, bounds)[0][i]) / (2 * h)
        assert rel_err(H, fd, floor=1e-3) < 1e-4
    for j in (0, 3, 6):
        H = row_hessian_v(U, ws, j)
        fd = np.zeros((k, k))
        for l in range(k):
            up, dn = V.copy(), V.copy()
            up[j, l] += h
            dn[j, l] -= h
            fd[:, l] = (grad_factors(U, up, sigma, bounds)[1][j]
                        - grad_factors(U, dn, sigma, bounds)[1][j]) / (2 * h)
        assert rel_err(H, fd, floor=1e-3) < 1e-4


def test_row_hessian_trivial_forms():
    # unit curvatures with orthonormal V give the identity
    mask = np.ones((1, 3), bool)
    b = BoundsMatrix(np.full((1, 3), -1.0), np.full((1, 3), 1.0), mask)
    ws = compute_workspace(np.zeros((1, 3)), 1.0, b)
    ws.D2[:] = 1.0
    V = np.eye(3)
    assert np.allclose(row_hessian_u(V, ws, 0), np.eye(3))
    # k=1 reduces to sum d2 * v^2
    V1 = np.array([[0.5], [2.0], [-1.0]])
    ws.D2[:] = [1.0, 2.0, 3.0]
    got = row_hessian_u(V1, ws, 0)
    assert got[0, 0] == pytest.approx(1 * 0.25 + 2 * 4.0 + 3 * 1.0)


def test_batched_row_hessians_match_single():
    om, bounds, U, V, sigma = mixed_instance(m=8, n=6, seed=31)
    ws = compute_workspace(U @ V.T, sigma, bounds)
    HU = batched_row_hessians(V, ws, axis=0)
    HV = batched_row_hessians(U, ws, axis=1)
    k = U.shape[1]
    want_U = np.zeros((U.shape[0], k, k))
    want_V = np.zeros((V.shape[0], k, k))
    for i, j, d in zip(bounds.rows, bounds.cols, ws.D2):
        want_U[i] += d * np.outer(V[j], V[j])
        want_V[j] += d * np.outer(U[i], U[i])
    for i in range(U.shape[0]):
        assert np.allclose(HU[i], want_U[i], atol=1e-12)
    for j in range(V.shape[0]):
        assert np.allclose(HV[j], want_V[j], atol=1e-12)


def test_workspace_zero_off_mask():
    om, bounds, U, V, sigma = mixed_instance(seed=37)
    ws = compute_workspace(U @ V.T, sigma, bounds)
    # one slot per observed entry, in row-major order, and none elsewhere
    rows, cols = np.nonzero(om.mask)
    assert rows.size < om.mask.size
    assert np.array_equal(bounds.rows, rows) and np.array_equal(bounds.cols, cols)
    for arr in (ws.logp, ws.A, ws.D2, ws.T2, ws.T3):
        assert arr.shape == (rows.size,)
    assert np.sum(ws.row_nll()) == pytest.approx(ws.nll(), rel=1e-14)
    assert np.sum(ws.col_nll()) == pytest.approx(ws.nll(), rel=1e-14)
    assert np.isfinite(ws.nll())
    assert ws.nll() == pytest.approx(-np.sum(ws.logp))


# ------------------------------------------- dense reference kernel

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _ref_log_phi(x):
    out = np.full_like(x, -np.inf)
    finite = np.isfinite(x)
    out[finite] = -0.5 * x[finite] ** 2 - _LOG_SQRT_2PI
    return out


def _ref_log_xkphi(x, k):
    out = np.full_like(x, -np.inf)
    finite = np.isfinite(x)
    xf = x[finite]
    out[finite] = k * np.log(xf) - 0.5 * xf ** 2 - _LOG_SQRT_2PI
    return out


def _ref_log_diff(hi, lo):
    with np.errstate(invalid="ignore"):
        d = lo - hi
    d = np.where(np.isneginf(lo), -np.inf, d)
    with np.errstate(divide="ignore"):
        return hi + np.log1p(-np.exp(d))


def _ref_phi(x):
    out = np.zeros_like(x)
    finite = np.isfinite(x)
    out[finite] = np.exp(-0.5 * x[finite] ** 2 - _LOG_SQRT_2PI)
    return out


def _ref_xkphi(x, k):
    out = np.zeros_like(x)
    finite = np.isfinite(x)
    xf = np.clip(x[finite], -40.0, 40.0)
    out[finite] = xf ** k * np.exp(-0.5 * xf ** 2 - _LOG_SQRT_2PI)
    return out


def reference_workspace(theta, sigma, lower, upper, mask):
    """The m×n kernel the flat one replaced: every cell is evaluated, with
    unobserved cells parked on (-1, 1] and zeroed afterwards. Underflowing
    entries come back as logp = -inf with zero derivatives. Returns dense
    (logp, A, D2, T2, T3)."""
    with np.errstate(invalid="ignore"):
        x = (lower - theta) / sigma
        y = (upper - theta) / sigma
    x = np.where(np.isneginf(lower), -np.inf, x)
    y = np.where(np.isposinf(upper), np.inf, y)
    x = np.where(mask, x, -1.0)
    y = np.where(mask, y, 1.0)
    upper_tail = x >= 2.0
    lower_tail = y <= -2.0
    tail = upper_tail | lower_tail
    body = ~tail
    logp, A, D2, T2, T3 = (np.zeros(mask.shape) for _ in range(5))
    xb, yb = x[body], y[body]
    p = ndtr(yb) - ndtr(xb)
    with np.errstate(divide="ignore"):
        logp[body] = np.log(p)
    pd = np.where(p > 0, p, 1.0)
    t1 = (_ref_phi(yb) - _ref_phi(xb)) / pd
    t2 = (_ref_xkphi(yb, 1) - _ref_xkphi(xb, 1)) / pd
    A[body] = t1 / sigma
    D2[body] = (t1 * t1 + t2) / sigma ** 2
    T2[body] = t2
    T3[body] = (_ref_xkphi(yb, 3) - _ref_xkphi(xb, 3)) / pd
    xt = np.where(upper_tail[tail], x[tail], -y[tail])
    yt = np.where(upper_tail[tail], y[tail], -x[tail])
    sign = np.where(upper_tail[tail], -1.0, 1.0)
    lp = _ref_log_diff(log_ndtr(-xt), log_ndtr(-yt))
    logp[tail] = lp
    # an underflowing entry has lp = -inf: its ratios come out NaN here and
    # are zeroed below, as the flat kernel does
    with np.errstate(invalid="ignore"):
        t1 = sign * np.exp(_ref_log_diff(_ref_log_phi(xt), _ref_log_phi(yt))
                           - lp)
        t2 = -np.exp(_ref_log_diff(_ref_log_xkphi(xt, 1),
                                   _ref_log_xkphi(yt, 1)) - lp)
        A[tail] = t1 / sigma
        D2[tail] = (t1 * t1 + t2) / sigma ** 2
        T2[tail] = t2
        T3[tail] = -np.exp(_ref_log_diff(_ref_log_xkphi(xt, 3),
                                         _ref_log_xkphi(yt, 3)) - lp)
    bad = mask & (np.isneginf(logp) | np.isnan(logp))
    logp[bad] = -np.inf
    for arr in (A, D2, T2, T3):
        arr[bad] = 0.0
    for arr in (logp, A, D2, T2, T3):
        arr[~mask] = 0.0
    return logp, A, D2, T2, T3


def assert_close(got, want, rel=1e-12):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    if finite.any():
        assert rel_err(got[finite], want[finite]) < rel


def extreme_instance(seed, reject):
    """A mixed instance pushed into both tails: latent means up to about
    +-6 against cuts within +-2.5, sigma near 0.5, and with reject a few
    entries moved 1e20 away so their interval underflows even in log
    space."""
    om, bounds, U, V, _ = mixed_instance(m=14, n=11, rank=3, missing=0.35,
                                         seed=seed)
    rng = np.random.default_rng(seed + 1000)
    U, V = 2.0 * U, 1.5 * V
    theta = U @ V.T
    if reject:
        i, j = bounds.rows[::17], bounds.cols[::17]
        finite = np.isfinite(dense(bounds, bounds.lower)[i, j]) & np.isfinite(
            dense(bounds, bounds.upper)[i, j])
        theta[i[finite], j[finite]] = 1e20 * rng.choice([-1.0, 1.0], finite.sum())
    return bounds, U, V, theta, float(rng.uniform(0.4, 0.7))


@pytest.mark.parametrize("seed,reject", [(0, False), (1, False), (2, False),
                                         (3, True), (4, True)])
def test_flat_kernel_matches_dense_reference(seed, reject):
    bounds, U, V, theta, sigma = extreme_instance(seed, reject)
    lower, upper = dense(bounds, bounds.lower), dense(bounds, bounds.upper)
    ref = reference_workspace(theta, sigma, lower, upper, bounds.mask)
    flat = theta[bounds.rows, bounds.cols]
    ws = compute_workspace(flat, sigma, bounds, on_underflow="inf")

    # the instance covers the body, both tails, half lines and rejects
    with np.errstate(invalid="ignore"):
        x = (bounds.lower - flat) / sigma
        y = (bounds.upper - flat) / sigma
    assert np.any(x >= 2.0) and np.any(y <= -2.0)
    assert np.any((x < 2.0) & (y > -2.0))
    assert np.any(np.isneginf(bounds.lower)) and np.any(np.isposinf(bounds.upper))
    assert np.any(np.isneginf(ws.logp)) == reject

    at = (bounds.rows, bounds.cols)
    for got, want in zip((ws.logp, ws.A, ws.D2, ws.T2, ws.T3), ref):
        assert_close(got, want[at])
    assert_close(ws.nll(), -np.sum(ref[0]))
    assert_close(ws.row_nll(), -np.sum(ref[0], axis=1))
    assert_close(ws.col_nll(), -np.sum(ref[0], axis=0))

    gU, gV = grad_factors(U, V, sigma, bounds, workspace=ws)
    assert_close(gU, ref[1] @ V)
    assert_close(gV, ref[1].T @ U)
    assert_close(batched_row_hessians(V, ws, axis=0),
                 np.einsum("ij,jk,jl->ikl", ref[2], V, V))
    assert_close(batched_row_hessians(U, ws, axis=1),
                 np.einsum("ji,jk,jl->ikl", ref[2], U, U))


@pytest.mark.parametrize("fill", [np.nan, 1e300, -np.inf])
def test_kernel_never_reads_unobserved_cells(fill):
    om, bounds, U, V, sigma = mixed_instance(seed=41)
    theta = U @ V.T
    clean = compute_workspace(theta, sigma, bounds)
    dirty = np.where(bounds.mask, theta, fill)
    ws = compute_workspace(dirty, sigma, bounds)
    for name in ("logp", "A", "D2", "T2", "T3"):
        assert np.array_equal(getattr(ws, name), getattr(clean, name))
    flat = compute_workspace(theta[bounds.rows, bounds.cols], sigma, bounds)
    assert np.array_equal(flat.logp, clean.logp)


def test_rejected_tail_entry_raises_no_warning():
    # theta far below a finite interval: its log probability underflows in
    # the tail branch, and the rejected entry must come back quietly
    bounds = BoundsMatrix(np.array([[0.5, -np.inf]]), np.array([[1.5, 0.0]]),
                          np.ones((1, 2), dtype=bool))
    theta = np.array([[-1e20, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ws = compute_workspace(theta, 1.0, bounds, on_underflow="inf")
    assert np.isneginf(ws.logp[0]) and np.isfinite(ws.logp[1])
    for arr in (ws.A, ws.D2, ws.T2, ws.T3):
        assert arr[0] == 0.0 and np.isfinite(arr[1])
