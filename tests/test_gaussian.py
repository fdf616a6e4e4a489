import numpy as np
import pytest

from gcfactor.data import ObservedMatrix, mask_random
from gcfactor.gaussian import (
    FactorModel,
    ZMatrix,
    _lower_pairs,
    _solve_packed,
    _solve_rows,
    coca_impute,
    coca_transform,
    fit_coca,
    fit_gaussian,
    fit_pca,
    orthogonalize,
    pca_impute,
    standardize,
)
from gcfactor.marginals import EdfVariant, edf_inverse


def random_matrix(m=20, n=12, rank=3, noise=0.1, missing=0.0, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(m, rank)) @ rng.normal(size=(n, rank)).T
    z += noise * rng.normal(size=(m, n))
    if missing:
        hide = rng.random(size=z.shape) < missing
        z = np.where(hide, np.nan, z)
    return ObservedMatrix(z)


def test_standardize_hand_examples():
    om = ObservedMatrix(np.array([[1.0, 0.0], [3.0, 0.0], [np.nan, 3.0], [np.nan, 3.0]]))
    z, stats = standardize(om)
    assert stats[0] == (2.0, 1.0)
    assert stats[1] == (1.5, 1.5)
    assert np.allclose(z.values[:2, 0], [-1.0, 1.0])
    assert np.allclose(z.values[:, 1], [-1.0, -1.0, 1.0, 1.0])


def test_standardize_shift_invariance():
    om = random_matrix(missing=0.2, seed=3)
    z1, _ = standardize(om)
    shifted = ObservedMatrix(om.values + 13.5, om.mask)
    z2, stats2 = standardize(shifted)
    assert np.allclose(z1.values[om.mask], z2.values[om.mask])
    assert stats2[0][0] != 0.0


def test_coca_transform_reference_value():
    col = np.repeat([1.0, 2.0, 3.0, 4.0], [70, 301, 430, 199])
    other = np.tile([0.0, 1.0], 500)
    om = ObservedMatrix(np.column_stack([col, other]))
    z, edfs = coca_transform(om)
    # midpoint probability of the lowest response is 35.5/1001; its normal
    # score lands at -1.805931 (independent oracle: high-precision erfinv)
    assert z.values[0, 0] == pytest.approx(-1.805931, abs=1e-5)
    assert np.all(np.isfinite(z.values[om.mask]))
    assert len(edfs) == 2


def test_coca_transform_two_value_column():
    om = ObservedMatrix(np.array([[7.0], [9.0]]) * np.ones((1, 2)))
    z, _ = coca_transform(om)
    assert np.allclose(z.values[:, 0], [-0.43073, 0.43073], atol=1e-5)


def test_coca_transform_max_ties_skew():
    col = np.tile([0.0, 1.0], 50)
    om = ObservedMatrix(np.column_stack([col, col[::-1]]))
    z_mid, _ = coca_transform(om, ties="midpoint")
    z_max, _ = coca_transform(om, ties="max")
    # midpoint scores are symmetric, max-rank scores are not
    assert np.allclose(z_mid.values[:, 0].sum(), 0.0, atol=1e-10)
    assert z_max.values[:, 0].sum() > 10.0
    with pytest.raises(ValueError):
        coca_transform(om, ties="bogus")


def test_fit_gaussian_complete_matches_truncated_svd():
    rng = np.random.default_rng(5)
    z = ZMatrix(rng.normal(size=(20, 15)), np.ones((20, 15), dtype=bool))
    for k in (1, 3, 5):
        U, V, sigma, info = fit_gaussian(z, k)
        Us, s, Vt = np.linalg.svd(z.values)
        recon = (Us[:, :k] * s[:k]) @ Vt[:k]
        assert np.linalg.norm(U @ V.T - recon) <= 1e-8 * np.linalg.norm(recon)
        # Eckart-Young: SSE equals the energy in the discarded singular values
        assert info["sse"] == pytest.approx(np.sum(s[k:] ** 2), rel=1e-6)
        assert sigma == pytest.approx(np.sqrt(np.sum(s[k:] ** 2) / z.values.size))


def test_fit_gaussian_exact_rank_one():
    a = np.arange(1.0, 9.0)
    b = np.array([2.0, -1.0, 0.5, 3.0])
    z = ZMatrix(np.outer(a, b), np.ones((8, 4), dtype=bool))
    U, V, sigma, info = fit_gaussian(z, 1)
    assert np.allclose(U @ V.T, np.outer(a, b), atol=1e-10)
    assert info["sse"] == pytest.approx(0.0, abs=1e-18)
    assert sigma == pytest.approx(0.0, abs=1e-10)


def test_fit_gaussian_missing_beats_zero_fill_baseline():
    rng = np.random.default_rng(11)
    n_converged = 0
    for trial in range(5):
        m, n, k = 30, 20, 3
        z_full = rng.normal(size=(m, k)) @ rng.normal(size=(n, k)).T
        z_full += 0.3 * rng.normal(size=(m, n))
        mask = rng.random(size=(m, n)) > 0.5
        z = ZMatrix(np.where(mask, z_full, 0.0), mask)
        U, V, sigma, info = fit_gaussian(z, k)
        # baseline: truncated SVD of the zero-filled matrix
        Z0 = np.where(mask, z_full, 0.0)
        Us, s, Vt = np.linalg.svd(Z0, full_matrices=False)
        base = (Us[:, :k] * s[:k]) @ Vt[:k]
        base_sse = np.sum((z_full - base)[mask] ** 2)
        assert info["sse"] <= base_sse + 1e-9
        # a longer budget never ends higher (sweeps only improve the SSE)
        short = fit_gaussian(z, k, max_sweeps=10)[3]
        assert info["sse"] <= short["sse"] + 1e-9
        n_converged += info["converged"]
    # slow plateau crawls may hit the sweep cap; most instances settle
    assert n_converged >= 3


def _reference_als(z, rank, max_sweeps=500, tol=1e-9, ridge=1e-8):
    # the straightforward masked ALS: per-row Gram matrices by einsum, the
    # right-hand side from W * Z0, and the SSE formed from U Vᵀ every sweep
    W = z.mask.astype(float)
    Z0 = np.where(z.mask, z.values, 0.0)
    Us, s, Vt = np.linalg.svd(Z0, full_matrices=False)
    U, V = Us[:, :rank] * s[:rank], Vt[:rank].T

    def solve_rows(W, Z0, basis):
        H = np.einsum("ij,jk,jl->ikl", W, basis, basis) + ridge * np.eye(rank)
        g = (W * Z0) @ basis
        return np.linalg.solve(H, g[:, :, None])[:, :, 0]

    def sse(U, V):
        R = (Z0 - U @ V.T) * W
        return float(np.sum(R * R))

    old = sse(U, V)
    for sweeps in range(1, max_sweeps + 1):
        U = solve_rows(W, Z0, V)
        V = solve_rows(W.T, Z0.T, U)
        new = sse(U, V)
        rel = abs(old - new) / max(old, new, 1e-300)
        old = new
        if rel < tol:
            return U, V, sweeps, True
    return U, V, max_sweeps, False


@pytest.mark.parametrize("true_rank, rank, missing, seed", [
    (1, 1, 0.3, 0),
    (2, 2, 0.5, 1),
    (3, 3, 0.4, 2),
    # over-specified ranks crawl along flat directions: two stop at the
    # sweep cap, two converge only after hundreds of sweeps
    (3, 4, 0.5, 3),
    (2, 4, 0.3, 4),
    (2, 4, 0.5, 7),
    (3, 4, 0.3, 8),
])
def test_fit_gaussian_matches_reference_als(true_rank, rank, missing, seed):
    om = random_matrix(m=40, n=25, rank=true_rank, noise=0.3,
                       missing=missing, seed=seed)
    z = ZMatrix(np.where(om.mask, om.values, 0.0), om.mask)
    U, V, sigma, info = fit_gaussian(z, rank)
    U_ref, V_ref, sweeps, converged = _reference_als(z, rank)
    assert info["sweeps"] == sweeps
    assert info["converged"] == converged
    theta_ref = U_ref @ V_ref.T
    assert np.linalg.norm(U @ V.T - theta_ref) <= 1e-8 * np.linalg.norm(theta_ref)


def test_fit_gaussian_reports_direct_sse_on_exact_low_rank():
    # on exactly rank-2 data the normal-equation SSE cancels to roundoff
    # and can come out negative; the reported SSE and sigma must not
    rng = np.random.default_rng(8)
    full = rng.normal(size=(40, 2)) @ rng.normal(size=(25, 2)).T
    mask = rng.random(size=full.shape) >= 0.4
    z = ZMatrix(np.where(mask, full, 0.0), mask)
    U, V, sigma, info = fit_gaussian(z, 2)
    direct = float(np.sum((full - U @ V.T)[mask] ** 2))
    assert info["sse"] >= 0.0
    assert info["sse"] == pytest.approx(direct, rel=1e-12, abs=1e-300)
    assert np.isfinite(sigma)
    assert sigma == pytest.approx(np.sqrt(direct / mask.sum()), rel=1e-12)


def test_fit_gaussian_rank_validation():
    z = ZMatrix(np.zeros((4, 3)), np.ones((4, 3), dtype=bool))
    with pytest.raises(ValueError):
        fit_gaussian(z, 0)
    with pytest.raises(ValueError):
        fit_gaussian(z, 4)


def _row_rel_err(got, want):
    # per-row relative error; a zero reference row must come back as zero
    err = np.linalg.norm(got - want, axis=1)
    scale = np.linalg.norm(want, axis=1)
    assert np.all(err[scale == 0] == 0)
    return float(np.max(err[scale > 0] / scale[scale > 0]))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
def test_solve_packed_matches_dense_solve(k):
    rng = np.random.default_rng(k)
    m = 60
    B = rng.normal(size=(m, k, k + 2))
    H = B @ B.transpose(0, 2, 1)
    H[0] = 0.0                          # a ridge-only row
    shift = rng.uniform(1e-3, 1.0, size=m)
    shift[0] = 1e-8
    g = rng.normal(size=(m, k))
    rows, cols = _lower_pairs(k)
    x = _solve_packed(H[:, rows, cols].T, g.T, shift)
    want = np.linalg.solve(H + shift[:, None, None] * np.eye(k),
                           g[:, :, None])[:, :, 0]
    assert x.shape == (m, k)
    assert _row_rel_err(x, want) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
def test_solve_rows_matches_dense_normal_equations(k):
    rng = np.random.default_rng(100 + k)
    m, n, ridge = 50, 200, 1e-8          # n ≫ k: well-conditioned Grams
    W = (rng.random(size=(m, n)) < 0.7).astype(float)
    W[3] = 0.0                          # a row with no observed entry
    Z0 = rng.normal(size=(m, n)) * W
    basis = rng.normal(size=(n, k))
    U, g = _solve_rows(W, Z0, basis, ridge)
    H = np.einsum("ij,jk,jl->ikl", W, basis, basis) + ridge * np.eye(k)
    want = np.linalg.solve(H, (Z0 @ basis)[:, :, None])[:, :, 0]
    assert np.array_equal(U[3], np.zeros(k))
    assert _row_rel_err(U, want) <= 1e-12
    assert np.allclose(g.T, Z0 @ basis, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("H", [
    np.array([[-1.0]]),
    np.zeros((2, 2)),                   # singular: zero pivot
    np.diag([1.0, -1e-3, 2.0]),         # fails at a later pivot
    np.array([[1.0, 2.0], [2.0, 1.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, np.inf]]),
])
def test_solve_packed_rejects_indefinite_systems(H):
    k = H.shape[0]
    rows, cols = _lower_pairs(k)
    good = np.eye(k)
    batch = np.stack([good, H, good])
    with pytest.raises(np.linalg.LinAlgError):
        _solve_packed(batch[:, rows, cols].T, np.ones((k, 3)), 0.0)


def test_orthogonalize_properties():
    rng = np.random.default_rng(17)
    for _ in range(10):
        U = rng.normal(size=(15, 4))
        V = rng.normal(size=(9, 4))
        U2, V2 = orthogonalize(U, V)
        prod = U @ V.T
        assert np.linalg.norm(U2 @ V2.T - prod) <= 1e-10 * np.linalg.norm(prod)
        assert np.max(np.abs(V2.T @ V2 - np.eye(4))) < 1e-10
        norms = np.linalg.norm(U2, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)
        # scale absorption: U*2, V/2 canonicalizes to the same factors
        U3, V3 = orthogonalize(2 * U, 0.5 * V)
        assert np.allclose(np.abs(U3), np.abs(U2), atol=1e-8)


def test_orthogonalize_idempotent_up_to_sign():
    rng = np.random.default_rng(23)
    U, V = orthogonalize(rng.normal(size=(10, 2)), rng.normal(size=(6, 2)))
    U2, V2 = orthogonalize(U, V)
    assert np.allclose(np.abs(U2), np.abs(U), atol=1e-10)
    assert np.allclose(np.abs(V2), np.abs(V), atol=1e-10)


def test_fit_pca_and_impute_round_trip():
    om = random_matrix(missing=0.25, seed=29)
    model = fit_pca(om, 3)
    assert model.method == "pca"
    est = pca_impute(model)
    # standardizing the estimates with the model stats reproduces theta
    mu = np.array([a for a, _ in model.marginals])
    sd = np.array([b for _, b in model.marginals])
    assert np.allclose((est - mu) / sd, model.theta(), atol=1e-12)


def test_pca_impute_reference_points():
    model = FactorModel("pca", np.zeros((3, 1)), np.zeros((2, 1)), 0.5,
                        [(10.0, 2.0), (-1.0, 0.5)])
    est = pca_impute(model)
    assert np.allclose(est[:, 0], 10.0)
    assert np.allclose(est[:, 1], -1.0)
    model.U[:] = 1.0
    model.V[:] = 1.0
    est = pca_impute(model)
    assert np.allclose(est[:, 0], 12.0)  # unit z, mu=10, sd=2
    # estimates may leave the observed range; nothing clips them
    model.U[:] = -3.0
    est = pca_impute(model)
    assert est[0, 1] < -1.0


def test_fit_coca_impute_in_support_and_median_convention():
    om = random_matrix(m=40, n=6, missing=0.2, seed=31)
    model = fit_coca(om, 2)
    est = coca_impute(model)
    for j, edf in enumerate(model.marginals):
        assert np.all(np.isin(est[:, j], edf.distinct))
    # saturation at extreme theta
    big = FactorModel("coca", np.full((2, 1), 50.0), np.array([[1.0], [-1.0]]),
                      0.1, model.marginals[:2])
    est = coca_impute(big)
    assert est[0, 0] == model.marginals[0].distinct[-1]
    assert est[0, 1] == model.marginals[1].distinct[0]


def test_coca_zero_theta_on_reference_column():
    col = np.repeat([1.0, 2.0, 3.0, 4.0], [70, 301, 430, 199])
    other = np.tile([0.0, 1.0], 500)
    om = ObservedMatrix(np.column_stack([col, other]))
    _, edfs = coca_transform(om)
    # theta = 0 maps through the midpoint quantile at one half; the largest
    # value whose midpoint cumulative stays at or below 0.5 is 2
    model = FactorModel("coca", np.zeros((1, 1)), np.zeros((2, 1)), 1.0, edfs)
    est = coca_impute(model)
    assert est[0, 0] == 2.0
    assert edf_inverse(edfs[0], 0.5, EdfVariant.MID_RANK) == 2.0


def test_method_dispatch_guards():
    om = random_matrix(seed=37)
    pca = fit_pca(om, 2)
    coca = fit_coca(om, 2)
    with pytest.raises(ValueError):
        coca_impute(pca)
    with pytest.raises(ValueError):
        pca_impute(coca)
    with pytest.raises(ValueError):
        FactorModel("nope", pca.U, pca.V, 1.0, pca.marginals)
