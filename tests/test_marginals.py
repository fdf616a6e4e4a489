import numpy as np
import pytest

from gcfactor.data import ObservedMatrix
from gcfactor.marginals import Edf, EdfVariant, edf_inverse, fit_edf
from gcfactor.normals import std_normal_cdf
from gcfactor.objective import build_bounds


def reference_column():
    # 1000 ordinal responses with counts 70/301/430/199 on values 1..4
    return np.repeat([1.0, 2.0, 3.0, 4.0], [70, 301, 430, 199])


def test_fit_edf_counts_and_cumulatives():
    edf = fit_edf(reference_column())
    assert edf.m_obs == 1000
    assert np.array_equal(edf.distinct, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(edf.counts, [70, 301, 430, 199])
    # max-rank cumulative is exact rational arithmetic on these counts
    assert np.array_equal(edf.cum_max, [0.070, 0.371, 0.801, 1.000])
    # midpoint-rank: (before + (count+1)/2) / (m+1)
    expected_mid = np.array([35.5, 221.0, 586.5, 901.0]) / 1001.0
    assert np.array_equal(edf.cum_mid, expected_mid)
    assert edf.cum_mid[0] == pytest.approx(0.035465, abs=5e-7)
    assert edf.cum_mid[-1] == pytest.approx(0.900100, abs=5e-7)


def test_fit_edf_rejects_degenerate_columns():
    with pytest.raises(ValueError):
        fit_edf([3.0, 3.0, 3.0])
    with pytest.raises(ValueError):
        fit_edf([np.nan, np.nan])
    with pytest.raises(ValueError):
        fit_edf([1.0, np.inf])
    # NaNs are dropped, remaining values must still have two distinct
    edf = fit_edf([np.nan, 1.0, 2.0, np.nan, 1.0])
    assert edf.m_obs == 3


def test_eval_right_continuous_step():
    # the step function's value at each distinct value, in both conventions
    edf = fit_edf(reference_column())
    assert edf.cumulative(EdfVariant.MAX_RANK) is edf.cum_max
    assert edf.cum_max[0] == 0.070
    assert edf.cum_max[2] == 0.801
    assert edf.cum_max[3] == 1.0
    mid = edf.cumulative(EdfVariant.MID_RANK)[1]
    assert mid == pytest.approx(221.0 / 1001.0, abs=1e-15)


def test_eval_reaches_one_only_at_max():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.choice(rng.normal(size=6), size=40, replace=True)
        edf = fit_edf(vals)
        assert edf.cum_max[-1] == 1.0
        assert edf.cum_max[-2] < 1.0
        assert np.all(edf.cum_mid < 1.0) and np.all(edf.cum_mid > 0.0)
        assert np.all(np.diff(edf.cum_max) > 0)
        assert np.all(np.diff(edf.cum_mid) > 0)


def test_inverse_literal_convention():
    edf = fit_edf(reference_column())
    # at or below the first cumulative value -> min support
    assert edf_inverse(edf, 0.0) == 1.0
    assert edf_inverse(edf, 0.070) == 1.0
    # largest s with F(s) <= y: just above the first step it is still s=1
    assert edf_inverse(edf, 0.0701) == 1.0
    assert edf_inverse(edf, 0.371) == 2.0
    assert edf_inverse(edf, 0.5) == 2.0
    assert edf_inverse(edf, 0.801) == 3.0
    assert edf_inverse(edf, 0.9999) == 3.0
    assert edf_inverse(edf, 1.0) == 4.0


def test_inverse_midpoint_convention_and_median_example():
    edf = fit_edf(reference_column())
    # midpoint cumulative of value 3 is 0.5859 > 0.5, of value 2 is 0.2208,
    # so the generalized inverse at one half is 2
    assert edf_inverse(edf, 0.5, EdfVariant.MID_RANK) == 2.0
    # above the last midpoint cumulative -> max support
    assert edf_inverse(edf, 0.95, EdfVariant.MID_RANK) == 4.0
    with pytest.raises(ValueError):
        edf_inverse(edf, 1.5)


def test_inverse_eval_galois_property():
    # randomized: inverse(eval(x)) == x on distinct values, and
    # eval(inverse(y)) <= y wherever y is reachable
    rng = np.random.default_rng(11)
    for _ in range(25):
        vals = np.round(rng.normal(size=60), 1)
        try:
            edf = fit_edf(vals)
        except ValueError:
            continue
        for variant in EdfVariant:
            cum = edf.cumulative(variant)
            got = edf_inverse(edf, cum, variant)
            assert np.array_equal(got, edf.distinct)
            ys = rng.uniform(0, 1, size=30)
            xs = edf_inverse(edf, ys, variant)
            assert np.all(np.isin(xs, edf.distinct))
            inside = ys > cum[0]
            reachable = ys <= cum[-1]
            sel = inside & reachable
            at = np.searchsorted(edf.distinct, xs[sel])
            assert np.all(cum[at] <= ys[sel])


def test_two_value_column_midpoint_transform():
    edf = fit_edf([7.0, 9.0])
    assert np.allclose(edf.cum_mid, [1.0 / 3.0, 2.0 / 3.0])


def test_z_bounds_reference_values():
    edf = fit_edf(reference_column())
    b = build_bounds(ObservedMatrix(np.array([[3.0], [1.0], [4.0]])), [edf])
    lo, hi = b.lower, b.upper
    assert lo[0] == pytest.approx(-0.329206, abs=1e-5)
    assert hi[0] == pytest.approx(0.845199, abs=1e-5)
    assert lo[1] == -np.inf
    assert hi[1] == pytest.approx(-1.475791, abs=1e-5)
    assert np.isposinf(hi[2])


def test_z_bounds_tile_the_real_line():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = np.round(rng.normal(size=rng.integers(5, 80)), 1)
        try:
            edf = fit_edf(vals)
        except ValueError:
            continue
        b = build_bounds(ObservedMatrix(edf.distinct[:, None]), [edf])
        lo, hi = b.lower, b.upper
        # half-open intervals abut exactly and cover (-inf, +inf]
        assert lo[0] == -np.inf
        assert np.isposinf(hi[-1])
        assert np.array_equal(hi[:-1], lo[1:])
        # telescoping: widths in probability sum to exactly 1
        widths = std_normal_cdf(hi) - std_normal_cdf(lo)
        assert np.sum(widths) == pytest.approx(1.0, abs=1e-13)


def test_z_bounds_uniform_widths_when_all_distinct():
    vals = np.arange(25, dtype=float)
    edf = fit_edf(vals)
    b = build_bounds(ObservedMatrix(vals[:, None]), [edf])
    lo, hi = b.lower, b.upper
    widths = std_normal_cdf(hi) - std_normal_cdf(lo)
    assert np.allclose(widths, 1.0 / 25.0, atol=1e-15)


def test_z_bounds_rejects_unobserved_value():
    edf = fit_edf([1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="not observed"):
        build_bounds(ObservedMatrix(np.array([[3.0], [1.0]])), [edf])


def test_edf_constructor_validation():
    with pytest.raises(ValueError):
        Edf([1.0, 1.0], [2, 3])
    with pytest.raises(ValueError):
        Edf([1.0, 2.0], [2, 0])
    with pytest.raises(ValueError):
        Edf([2.0], [5])
