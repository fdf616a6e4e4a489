import numpy as np
import pytest

from _support import single_bounds
from gcfactor.normals import (
    IntervalUnderflowError,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from gcfactor.objective import BoundsMatrix, compute_workspace


def trapezoid_log_prob(lo, hi, theta, sigma, n=1_000_000):
    # independent oracle: brute-force quadrature of the density
    z = np.linspace((lo - theta) / sigma, (hi - theta) / sigma, n)
    dens = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    return np.log(np.trapezoid(dens, z))


def test_pdf_reference_values():
    assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)
    assert std_normal_pdf(np.inf) == 0.0
    assert std_normal_pdf(-np.inf) == 0.0
    # symmetry
    x = np.linspace(-8, 8, 101)
    assert np.allclose(std_normal_pdf(x), std_normal_pdf(-x))


def test_cdf_reference_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(-np.inf) == 0.0
    assert std_normal_cdf(np.inf) == 1.0
    # classic table value
    assert std_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)


def test_quantile_endpoints_and_inverse():
    assert std_normal_quantile(0.0) == -np.inf
    assert std_normal_quantile(1.0) == np.inf
    assert std_normal_quantile(0.5) == 0.0
    p = np.linspace(1e-12, 1 - 1e-12, 501)
    x = std_normal_quantile(p)
    assert np.max(np.abs(std_normal_cdf(x) - p)) < 1e-12
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


def test_cdf_quantile_roundtrip_tail():
    # deep-tail roundtrip stays accurate in log space territory
    for p in (1e-300, 1e-100, 1e-20, 1e-5):
        x = std_normal_quantile(p)
        assert std_normal_cdf(x) == pytest.approx(p, rel=1e-10)


# The interval log-probability log P(lower < Z <= upper), Z ~ N(theta,
# sigma^2), is the logp of objective.compute_workspace; its same-tail
# log-space pieces live in normals. These tests evaluate it on BoundsMatrix
# instances of the intervals in question.

def test_log_interval_prob_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = rng.normal(scale=3)
        sigma = rng.uniform(0.2, 2.0)
        lo = theta + rng.uniform(-6, 4) * sigma
        hi = lo + rng.uniform(0.05, 4) * sigma
        got = compute_workspace(np.array([theta]), sigma, single_bounds(lo, hi),
                                derivs=False).logp[0]
        want = trapezoid_log_prob(lo, hi, theta, sigma, n=200_001)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


def test_log_interval_prob_far_tail_grid():
    # unit-width intervals pushed far out: exact where quadrature can follow,
    # finite and monotone where it cannot
    offs = np.array([0.0, 5.0, 10.0, 30.0])
    for theta in (-40.0, -10.0, 0.0, 10.0, 40.0):
        bounds = BoundsMatrix(theta + offs[None] - 0.5, theta + offs[None] + 0.5,
                              np.ones((1, offs.size), bool))
        logp = compute_workspace(np.full(offs.size, theta), 1.0, bounds,
                                 derivs=False).logp
        assert np.all(np.isfinite(logp))
        assert np.all(np.diff(logp) < 0)  # mass decays moving out the tail
        for off, got in zip(offs, logp):
            dens = np.exp(-0.5 * (np.linspace(off - 0.5, off + 0.5, 1_000_001)) ** 2)
            q = np.trapezoid(dens, dx=1e-6) / np.sqrt(2 * np.pi)
            if q > 0.0:
                assert got == pytest.approx(np.log(q), rel=1e-8)


def test_log_interval_prob_half_lines_and_full_line():
    ws = compute_workspace(np.array([0.3]), 1.7, single_bounds(-np.inf, np.inf),
                           derivs=False)
    assert ws.logp[0] == 0.0
    bounds = BoundsMatrix(np.array([[-np.inf, -1.0]]), np.array([[1.0, np.inf]]),
                          np.ones((1, 2), bool))
    got = compute_workspace(np.zeros(2), 1.0, bounds, derivs=False).logp
    assert got[0] == pytest.approx(np.log(std_normal_cdf(1.0)), rel=1e-14)
    assert got[1] == pytest.approx(np.log(std_normal_cdf(1.0)), rel=1e-14)


def test_log_interval_prob_tail_consistency_with_direct():
    # around the switch point the two computation paths must agree; past
    # a ~ 5.5 the direct difference itself loses precision, so stop there
    a = np.array([4.0, 4.9, 5.1, 5.5])
    bounds = BoundsMatrix(a[None], a[None] + 1.0, np.ones((1, a.size), bool))
    got = compute_workspace(np.zeros(a.size), 1.0, bounds, derivs=False).logp
    direct = np.log(std_normal_cdf(a + 1.0) - std_normal_cdf(a))
    for g, d in zip(got, direct):
        assert g == pytest.approx(d, rel=1e-9)


def test_log_interval_prob_survives_extreme_offsets():
    # far beyond where Phi underflows (~38.6) the log form keeps going
    got = compute_workspace(np.zeros(1), 1.0, single_bounds(100.0, 101.0),
                            derivs=False).logp[0]
    assert np.isfinite(got)
    assert got < -5000.0
    # ~ -lo^2/2 leading order
    assert got == pytest.approx(-100.0 ** 2 / 2, rel=0.05)


def test_log_interval_prob_underflow_raises():
    # an interval of one ulp in the body carries less mass than the CDF can
    # resolve; the probability is a hard zero and must surface as an error
    bounds = single_bounds(0.5, np.nextafter(0.5, 1.0))
    with pytest.raises(IntervalUnderflowError):
        compute_workspace(np.zeros(1), 1.0, bounds, derivs=False)


def test_log_interval_prob_invalid_arguments():
    with pytest.raises(ValueError):
        single_bounds(1.0, 1.0)
    with pytest.raises(ValueError):
        single_bounds(2.0, 1.0)
    bounds = single_bounds(0.0, 1.0)
    with pytest.raises(ValueError):
        compute_workspace(np.zeros(1), 0.0, bounds, derivs=False)
    with pytest.raises(ValueError):
        compute_workspace(np.zeros(1), -1.0, bounds, derivs=False)


def test_log_interval_prob_broadcasts():
    bounds = BoundsMatrix(np.array([[-np.inf, 0.0, 1.0]]),
                          np.array([[0.0, 1.0, np.inf]]), np.ones((1, 3), bool))
    got = compute_workspace(np.zeros(3), 1.0, bounds, derivs=False).logp
    assert got.shape == (3,)
    total = np.exp(got).sum()
    assert total == pytest.approx(1.0, abs=1e-14)
