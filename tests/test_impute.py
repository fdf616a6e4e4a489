"""Imputation tests: the four-value reference column with hand-checked
masses, saturation limits, quadrature cross-checks, distribution telescoping
on fitted models, monotonicity, support bounds, and interpolation accuracy
against the exact mean."""

import importlib
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from _support import planted
from gcfactor.fit import fit_xpca
from gcfactor.gaussian import FactorModel, fit_coca
from gcfactor.impute import (
    EntryDistribution,
    MeanCurve,
    build_mean_curve,
    default_q,
    entry_distribution,
    impute,
    impute_mean,
    impute_mean_interp,
    impute_median,
)
from gcfactor.marginals import fit_edf, global_epsilon
from gcfactor.normals import std_normal_pdf, std_normal_quantile


def reference_column():
    return np.repeat([1.0, 2.0, 3.0, 4.0], [70, 301, 430, 199])


def theta_model(thetas, column, sigma=1.0):
    """Single-column model whose latent means are exactly `thetas`."""
    edf = fit_edf(column)
    U = np.asarray(thetas, dtype=float).reshape(-1, 1)
    V = np.ones((1, 1))
    return FactorModel("xpca", U, V, sigma, [edf],
                       epsilon=global_epsilon([edf]))


def test_entry_distribution_matches_reference_masses():
    model = theta_model([0.0], reference_column())
    dist = entry_distribution(model, 0, 0)
    assert np.array_equal(dist.support, [1.0, 2.0, 3.0, 4.0])
    ref = np.array([0.070, 0.301, 0.430, 0.199])
    assert np.max(np.abs(dist.probs - ref)) <= 5e-16
    assert not dist.renormalized
    assert abs(dist.probs.sum() - 1.0) <= 1e-10


def test_distribution_saturates_to_extreme_atom():
    model = theta_model([10.0, -10.0], reference_column())
    hi = entry_distribution(model, 0, 0)
    lo = entry_distribution(model, 1, 0)
    assert hi.probs[-1] >= 1.0 - 1e-12
    assert lo.probs[0] >= 1.0 - 1e-12


def test_binary_probability_against_quadrature():
    column = np.repeat([0.0, 1.0], [70, 30])
    theta = std_normal_quantile(0.3)
    model = theta_model([theta], column)
    dist = entry_distribution(model, 0, 0)
    assert 0.0 < dist.probs[0] < 1.0
    cut = std_normal_quantile(0.7)
    t = np.linspace(theta - 14.0, cut, 400001)
    quad = np.trapezoid(std_normal_pdf(t - theta), t)
    assert abs(dist.probs[0] - quad) <= 1e-8 * quad


def test_fitted_model_distributions_telescope():
    data, _ = planted(40, 12, 2, 0.5, seed=3, missing=0.2, kinds="trinary")
    model = fit_xpca(data, rank=2)
    worst = 0.0
    for i in range(model.m):
        for j in range(model.n):
            dist = entry_distribution(model, i, j)
            assert not dist.renormalized
            worst = max(worst, abs(dist.probs.sum() - 1.0))
    assert worst <= 1e-10


def test_median_follows_quantile_convention():
    model = theta_model([0.0, 10.0, -10.0], reference_column())
    est = impute_median(model)
    assert est[0, 0] == 2.0
    assert est[1, 0] == 4.0
    assert est[2, 0] == 1.0


def test_mean_reference_value():
    model = theta_model([0.0], reference_column())
    est = impute_mean(model)
    assert abs(est[0, 0] - 2.758) <= 1e-12


def test_mean_saturates_to_support_limits():
    model = theta_model([12.0, -12.0], reference_column())
    est = impute_mean(model)
    assert abs(est[0, 0] - 4.0) <= 1e-12
    assert abs(est[1, 0] - 1.0) <= 1e-12


def test_mean_and_median_nondecreasing_in_theta():
    grid = np.linspace(-6.0, 6.0, 301)
    model = theta_model(grid, reference_column())
    med = impute_median(model)[:, 0]
    mu = impute_mean(model)[:, 0]
    assert np.all(np.diff(med) >= 0.0)
    assert np.all(np.diff(mu) >= -1e-12)


def test_binary_mean_is_probability_of_one():
    column = np.repeat([0.0, 1.0], [60, 40])
    model = theta_model([0.3], column)
    dist = entry_distribution(model, 0, 0)
    est = impute_mean(model)
    assert abs(est[0, 0] - dist.probs[1]) <= 1e-15
    assert 0.0 <= est[0, 0] <= 1.0


def test_estimates_stay_inside_support():
    data, _ = planted(50, 9, 2, 0.5, seed=7, missing=0.3, kinds="trinary")
    model = fit_xpca(data, rank=2)
    for est in (impute_median(model), impute_mean(model),
                impute_mean_interp(model)):
        for j, edf in enumerate(model.marginals):
            col = est[:, j]
            assert np.all(col >= edf.distinct[0] - 1e-12)
            assert np.all(col <= edf.distinct[-1] + 1e-12)


def test_mean_curve_shape_and_anchors():
    model = theta_model([0.0], reference_column())
    curve = build_mean_curve(model, 0, 3)
    assert np.all(np.diff(curve.grid) > 0.0)
    assert np.any(curve.grid == 0.0)
    assert curve.values[0] == 1.0
    assert curve.values[-1] == 4.0
    assert np.all(np.diff(curve.values) >= 0.0)
    with pytest.raises(ValueError):
        build_mean_curve(model, 0, 2)


def test_mean_curve_nodes_carry_exact_means():
    model = theta_model([0.0], reference_column(), sigma=0.7)
    curve = build_mean_curve(model, 0, 12)
    inner = curve.grid[1:-1]
    exact = impute_mean(theta_model(inner, reference_column(), sigma=0.7))[:, 0]
    assert np.max(np.abs(curve(inner) - exact)) <= 1e-12


def test_mean_curve_clamps_beyond_anchors():
    model = theta_model([0.0], reference_column())
    curve = build_mean_curve(model, 0, 8)
    assert curve(curve.grid[0] - 5.0) == 1.0
    assert curve(curve.grid[-1] + 5.0) == 4.0


def test_interpolated_mean_tracks_exact_mean():
    data, _ = planted(200, 12, 3, 0.5, seed=11, missing=0.2, kinds="trinary")
    model = fit_xpca(data, rank=3)
    exact = impute_mean(model)
    approx = impute_mean_interp(model, q=30)
    sds = np.array([np.std(data.column_observed(j)) for j in range(data.n)])
    err = np.max(np.abs(approx - exact) / sds, axis=0)
    assert float(err.max()) < 0.01


def test_default_q_floor_and_scaling():
    assert default_q(50) == 30
    assert default_q(299) == 30
    assert default_q(1000) == 100


def test_scope_restricts_output():
    data, _ = planted(20, 6, 2, 0.5, seed=13)
    model = fit_xpca(data, rank=2)
    scope = np.zeros((20, 6), dtype=bool)
    scope[3, 2] = True
    est = impute_mean(model, scope=scope)
    assert np.isfinite(est[3, 2])
    assert np.isnan(est[0, 0])
    assert np.count_nonzero(np.isfinite(est)) == 1


def test_dispatch_covers_every_method():
    data, _ = planted(25, 8, 2, 0.5, seed=17)
    xp = fit_xpca(data, rank=2)
    co = fit_coca(data, 2)
    for name in ("median", "mean", "mean-interp"):
        est = impute(xp, name)
        assert est.shape == (25, 8)
        assert np.all(np.isfinite(est))
    assert np.allclose(impute(co), impute(co, "median"))
    with pytest.raises(ValueError):
        impute(xp, "mode")
    with pytest.raises(ValueError):
        impute_mean(co)


def test_distribution_validation():
    with pytest.raises(ValueError):
        EntryDistribution([1.0, 2.0], [0.5, -0.5])
    d = EntryDistribution([1.0, 2.0], [0.25, 0.25])
    assert d.renormalized
    assert abs(d.probs.sum() - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        MeanCurve([0.0, 1.0, 0.5], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        MeanCurve([0.0, 1.0, 2.0], [1.0, 0.5, 3.0])


def direct_means(thetas, edf, sigma):
    """Support-weighted mean of each entry distribution, cut by cut."""
    zs = (edf.z_cuts[None, :] - np.asarray(thetas, dtype=float)[:, None])
    zs = zs / sigma
    zs[:, 0] = -np.inf
    zs[:, -1] = np.inf
    return np.diff(ndtr(zs), axis=1) @ edf.distinct


def exponential_column():
    # ~800 distinct values, the shape of the benchmark's tall columns
    return np.random.default_rng(5).exponential(size=800)


MEAN_KERNEL_CASES = {
    "binary": (np.repeat([0.0, 1.0], [60, 40]), 0.52),
    "800 values": (exponential_column(), 0.52),
    "sigma at floor": (exponential_column(), 1e-3),
}


@pytest.mark.parametrize("case", sorted(MEAN_KERNEL_CASES))
def test_mean_kernel_matches_direct_sum(case):
    column, sigma = MEAN_KERNEL_CASES[case]
    edf = fit_edf(column)
    span = edf.distinct[-1] - edf.distinct[0]
    cuts = edf.z_cuts[1:-1]
    body = np.linspace(cuts[0] - 3.0 * sigma, cuts[-1] + 3.0 * sigma, 4001)
    anchors = build_mean_curve(theta_model([0.0], column, sigma), 0, 3).grid
    # the last pair puts every bin's Hermite argument at its +-40 clip
    extremes = np.array([-1e20, 1e20, cuts[0] - 40.0 * sigma,
                         cuts[-1] + 40.0 * sigma])
    thetas = np.concatenate([body, anchors[[0, -1]], extremes])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = impute_mean(theta_model(thetas, column, sigma))[:, 0]
    want = direct_means(thetas, edf, sigma)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-13 * span
    # nondecreasing up to the same accuracy
    assert np.all(np.diff(got[:body.size]) >= -1e-13 * span)
    # the curve pins its anchors to the support limits; the kernel agrees,
    # and so it does at the extremes
    limits = edf.distinct[[0, -1, 0, -1, 0, -1]]
    assert np.max(np.abs(got[body.size:] - limits)) <= 1e-13 * span


def test_entry_distribution_reads_one_latent_mean(monkeypatch):
    data, _ = planted(30, 7, 2, 0.5, seed=23, missing=0.2, kinds="trinary")
    model = fit_xpca(data, rank=2)
    theta = model.theta()
    want = {}
    for i in range(model.m):
        for j, edf in enumerate(model.marginals):
            zs = (edf.z_cuts - theta[i, j]) / model.sigma
            zs[0], zs[-1] = -np.inf, np.inf
            want[i, j] = np.diff(ndtr(zs))

    def no_theta(self):
        raise AssertionError("entry_distribution built the whole theta")

    monkeypatch.setattr(FactorModel, "theta", no_theta)
    for (i, j), probs in want.items():
        dist = entry_distribution(model, i, j)
        assert np.max(np.abs(dist.probs - probs)) <= 1e-14


def test_scoped_interp_builds_only_needed_curves(monkeypatch):
    data, _ = planted(60, 9, 2, 0.5, seed=19, missing=0.3, kinds="trinary")
    model = fit_xpca(data, rank=2)
    full = impute_mean_interp(model)
    built = []

    def recording(model, j, q):
        built.append(j)
        return build_mean_curve(model, j, q)

    # the package namespace binds the name impute to the function
    module = importlib.import_module("gcfactor.impute")
    monkeypatch.setattr(module, "build_mean_curve", recording)
    scope = np.zeros((60, 9), dtype=bool)
    scope[[3, 17, 40], [1, 1, 6]] = True
    part = impute_mean_interp(model, scope=scope)
    assert built == [1, 6]
    assert np.array_equal(part[scope], full[scope])
    assert np.all(np.isnan(part[~scope]))
