"""Acceptance suite: ten end-to-end criteria, one test (one pass/fail line
under pytest -v) per criterion, each asserting its stated numeric tolerance.

Run with `pytest tests/test_acceptance.py -v`. Criteria 5-7 refit models
dozens of times and dominate the runtime (several minutes total); everything
else finishes in seconds.
"""

import time

import numpy as np
import pytest

from _support import binary_continuous_instance, planted
from gcfactor.data import ObservedMatrix, mask_random
from gcfactor.fit import FitOptions, FitState, bcd_sweep, fit_xpca, gradient_maxnorm
from gcfactor.gaussian import FactorModel, coca_impute, fit_coca, fit_pca
from gcfactor.impute import entry_distribution, impute, impute_mean, impute_median
from gcfactor.marginals import fit_edf
from gcfactor.objective import (
    batched_row_hessians,
    build_bounds,
    compute_workspace,
    grad_factors,
    grad_sigma,
    hess_sigma,
)
from gcfactor.simulate import generate, named_spec, run_scenario, tie_method_experiment


def rel_err(got, want, floor):
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    return float(np.max(np.abs(got - want) / scale))


def test_criterion_01_derivative_correctness():
    # 10 random 20x15 rank-3 instances, 30% missing: analytic gradients
    # within 1e-5 of central differences, row Hessians within 1e-4, < 5 s.
    started = time.time()
    h = 1e-6
    for seed in range(10):
        bounds, U, V, sigma = binary_continuous_instance(seed)
        k = U.shape[1]

        gU, gV = grad_factors(U, V, sigma, bounds)
        fd_gU = np.empty_like(gU)
        fd_gV = np.empty_like(gV)
        for i in range(U.shape[0]):
            for l in range(k):
                up, dn = U.copy(), U.copy()
                up[i, l] += h
                dn[i, l] -= h
                fd_gU[i, l] = (
                    compute_workspace(up @ V.T, sigma, bounds, derivs=False).nll()
                    - compute_workspace(dn @ V.T, sigma, bounds, derivs=False).nll()
                ) / (2 * h)
        for j in range(V.shape[0]):
            for l in range(k):
                up, dn = V.copy(), V.copy()
                up[j, l] += h
                dn[j, l] -= h
                fd_gV[j, l] = (
                    compute_workspace(U @ up.T, sigma, bounds, derivs=False).nll()
                    - compute_workspace(U @ dn.T, sigma, bounds, derivs=False).nll()
                ) / (2 * h)
        assert rel_err(gU, fd_gU, floor=1e-3) < 1e-5
        assert rel_err(gV, fd_gV, floor=1e-3) < 1e-5

        hs = 1e-6 * sigma
        fd_gs = (compute_workspace(U @ V.T, sigma + hs, bounds, derivs=False).nll()
                 - compute_workspace(U @ V.T, sigma - hs, bounds, derivs=False).nll()
                 ) / (2 * hs)
        assert rel_err(grad_sigma(U @ V.T, sigma, bounds), fd_gs, floor=1e-3) < 1e-5
        fd_hs = (grad_sigma(U @ V.T, sigma + hs, bounds)
                 - grad_sigma(U @ V.T, sigma - hs, bounds)) / (2 * hs)
        assert rel_err(hess_sigma(U @ V.T, sigma, bounds), fd_hs, floor=1e-2) < 1e-4

        ws = compute_workspace(U @ V.T, sigma, bounds)
        HU = batched_row_hessians(V, ws, axis=0)
        HV = batched_row_hessians(U, ws, axis=1)
        for i in (0, 9, 19):
            H = HU[i]
            fd = np.empty((k, k))
            for l in range(k):
                up, dn = U.copy(), U.copy()
                up[i, l] += h
                dn[i, l] -= h
                fd[:, l] = (grad_factors(up, V, sigma, bounds)[0][i]
                            - grad_factors(dn, V, sigma, bounds)[0][i]) / (2 * h)
            assert rel_err(H, fd, floor=1e-2) < 1e-4
        for j in (0, 7, 14):
            H = HV[j]
            fd = np.empty((k, k))
            for l in range(k):
                up, dn = V.copy(), V.copy()
                up[j, l] += h
                dn[j, l] -= h
                fd[:, l] = (grad_factors(U, up, sigma, bounds)[1][j]
                            - grad_factors(U, dn, sigma, bounds)[1][j]) / (2 * h)
            assert rel_err(H, fd, floor=1e-2) < 1e-4
    elapsed = time.time() - started
    assert elapsed < 5.0, "derivative checks took %.2f s" % elapsed


def test_criterion_02_complete_pca_equals_truncated_svd():
    # complete-data PCA equals rank-k SVD truncation to 1e-8 relative
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(30, 20)) * rng.uniform(0.5, 3.0, size=20)
        X += rng.normal(size=20)
        data = ObservedMatrix(X)
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        Us, s, Vt = np.linalg.svd(Z, full_matrices=False)
        for k in (1, 3, 5):
            model = fit_pca(data, k)
            recon = (Us[:, :k] * s[:k]) @ Vt[:k]
            rel = np.linalg.norm(model.theta() - recon) / np.linalg.norm(recon)
            assert rel <= 1e-8, "rank %d seed %d: rel %g" % (k, seed, rel)


def test_criterion_03_edf_reference_numbers():
    edf = fit_edf(np.repeat([1.0, 2.0, 3.0, 4.0], [70, 301, 430, 199]))
    assert np.array_equal(edf.cum_max, [0.070, 0.371, 0.801, 1.000])
    assert edf.cum_mid[0] == pytest.approx(0.035465, abs=5e-7)
    # value 3 sits between the second and third cumulative cut
    assert edf.z_cuts[2] == pytest.approx(-0.329206, abs=1e-5)
    assert edf.z_cuts[3] == pytest.approx(0.845199, abs=1e-5)


def test_criterion_04_distribution_normalization():
    # every per-entry distribution on a fitted 100x100 model sums to 1
    data, _, _ = generate(100, 100, 3, 0.25, named_spec("mixed"), seed=(42, 0))
    train, _ = mask_random(data, 0.5, seed=1)
    model = fit_xpca(train, rank=3)
    worst = 0.0
    for i in range(train.m):
        for j in range(train.n):
            dist = entry_distribution(model, i, j)
            worst = max(worst, abs(float(dist.probs.sum()) - 1.0))
    assert worst <= 1e-10, "worst |sum - 1| = %g" % worst

    # theta=0, sigma=1 reduces every distribution to the column frequencies
    # (equality up to one float ulp through the normal CDF round trip)
    for j in range(0, train.n, 7):
        edf = fit_edf(train.column_observed(j))
        ident = FactorModel("xpca", np.zeros((4, 2)), np.zeros((1, 2)), 1.0,
                            [edf])
        dist = entry_distribution(ident, 0, 0)
        freq = edf.counts / edf.m_obs
        assert np.array_equal(dist.support, edf.distinct)
        assert np.max(np.abs(dist.probs - freq)) <= 1e-15


def test_criterion_05_mixed_scenario_direction():
    # 100x100 mixed, rank 3, sigma2 0.25, 50% holdout, 8 reps: holdout MSE
    # on the underlying mean must order XPCA < COCA and XPCA < PCA, the
    # latter in at least 7 of 8 reps, all inside 10 minutes
    started = time.time()
    res = run_scenario([100], named_spec("mixed"), holdout_frac=0.5, reps=8,
                       rank=3, sigma2=0.25, seed=0)
    elapsed = time.time() - started
    assert not res.failures
    assert elapsed < 600.0, "scenario took %.1f s" % elapsed

    means = {m: res.mean_mse(m, "mean", "holdout") for m in ("pca", "coca", "xpca")}
    per_rep = {m: [r.mse for r in sorted(
        (r for r in res.rows
         if r.method == m and r.metric == "mean" and r.split == "holdout"),
        key=lambda r: r.rep)] for m in ("pca", "xpca")}
    wins = sum(x < p for x, p in zip(per_rep["xpca"], per_rep["pca"]))

    assert means["xpca"] < means["coca"], (
        "xpca %(xpca).4f !< coca %(coca).4f" % means)
    assert means["xpca"] < means["pca"], (
        "xpca %.4f !< pca %.4f (xpca beats pca in %d/8 reps; "
        "xpca < coca holds: %.4f < %.4f)"
        % (means["xpca"], means["pca"], wins, means["xpca"], means["coca"]))
    assert wins >= 7, "xpca < pca in only %d/8 reps" % wins


def test_criterion_06_gaussian_equivalence_trend():
    # all-Gaussian data: |xpca - coca| holdout gap shrinks from 100 to 400
    # and ends below 0.02
    res = run_scenario([100, 400], named_spec("gaussian"), holdout_frac=0.5,
                       reps=3, rank=3, sigma2=0.25, seed=11,
                       methods=("coca", "xpca"))
    assert not res.failures
    gaps = {size: abs(res.mean_mse("xpca", "mean", "holdout", size=size)
                      - res.mean_mse("coca", "mean", "holdout", size=size))
            for size in (100, 400)}
    assert gaps[400] < gaps[100], "gap grew: %(100)g -> %(400)g" % {
        "100": gaps[100], "400": gaps[400]}
    assert gaps[400] < 0.02, "gap at 400 is %g" % gaps[400]


def test_criterion_07_tie_convention_experiment():
    # midpoint ties must beat max-rank ties with mean ratio below 0.9
    ratios = []
    for seed in range(5):
        mid, last = tie_method_experiment(seed=seed)
        assert mid < last, "seed %d: midpoint %g !< max-rank %g" % (seed, mid, last)
        ratios.append(mid / last)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio < 0.9, "mean ratio %.3f (per-seed %s)" % (
        mean_ratio, ["%.3f" % r for r in ratios])


def test_criterion_08_bcd_monotone_and_convergent():
    # 20 random starts on one 50x40 instance: every sweep lowers the NLL and
    # at least 18 starts meet the gradient tolerance within 500 sweeps
    data, _ = planted(50, 40, 3, 0.5, seed=17, missing=0.3, kinds="mixed")
    edfs = [fit_edf(data.column_observed(j)) for j in range(data.n)]
    bounds = build_bounds(data, edfs)
    opts = FitOptions(rank=3, optimizer="bcd")
    converged = 0
    for start in range(20):
        rng = np.random.default_rng(1000 + start)
        state = FitState(rng.normal(scale=0.3, size=(data.m, 3)),
                         rng.normal(scale=0.3, size=(data.n, 3)),
                         0.5, bounds)
        state.refresh_nll()
        for _ in range(500):
            bcd_sweep(state, opts)
            if gradient_maxnorm(state) < 1e-5 * (1.0 + abs(state.nll)):
                converged += 1
                break
        trace = np.asarray(state.trace)
        assert np.all(np.diff(trace) <= 0.0), (
            "start %d: NLL rose at sweep %d"
            % (start, int(np.argmax(np.diff(trace) > 0.0))))
    assert converged >= 18, "only %d/20 starts converged" % converged


def test_criterion_09_interpolated_mean_fidelity():
    # 200x30 fitted model, 30-node curves: interpolated means stay within
    # 0.01 column-standardized units of the exact quadrature means
    data, _ = planted(200, 30, 3, 0.5, seed=23, missing=0.3, kinds="trinary")
    model = fit_xpca(data, rank=3)
    exact = impute_mean(model)
    approx = impute(model, estimator="mean-interp", q=30)
    scales = np.array([np.std(data.column_observed(j)) for j in range(data.n)])
    worst = float(np.max(np.abs(approx - exact) / scales))
    assert worst < 0.01, "worst standardized gap %g" % worst


def test_criterion_10_bounded_imputation():
    # every COCA/XPCA estimate stays inside the observed column range, and
    # XPCA means on binary columns are proper probabilities
    data, _ = planted(60, 24, 3, 0.5, seed=31, missing=0.25, kinds="trinary")
    lo = np.array([data.column_observed(j).min() for j in range(data.n)])
    hi = np.array([data.column_observed(j).max() for j in range(data.n)])

    coca_est = coca_impute(fit_coca(data, 3))
    xmodel = fit_xpca(data, rank=3)
    estimates = [coca_est, impute_median(xmodel), impute_mean(xmodel),
                 impute(xmodel, estimator="mean-interp")]
    for est in estimates:
        assert np.all(est >= lo) and np.all(est <= hi)

    xpca_mean = estimates[2]
    for j in range(data.n):
        if set(np.unique(data.column_observed(j))) == {0.0, 1.0}:
            assert np.all(xpca_mean[:, j] >= 0.0)
            assert np.all(xpca_mean[:, j] <= 1.0)
