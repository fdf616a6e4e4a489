import csv

import numpy as np
import pytest

from gcfactor.data import (
    ObservedMatrix,
    load_csv,
    mask_random,
    split_folds,
    standardized_mse,
    write_csv,
)


def test_observed_matrix_basic():
    vals = np.array([[1.0, 2.0], [3.0, np.nan], [5.0, 4.0]])
    om = ObservedMatrix(vals)
    assert om.m == 3 and om.n == 2
    assert om.n_observed == 5
    assert np.array_equal(om.mask, ~np.isnan(vals))
    assert np.array_equal(om.column_observed(1), [2.0, 4.0])
    assert om.column_names == ["col0", "col1"]


def test_observed_matrix_rejects_degenerate():
    with pytest.raises(ValueError):
        ObservedMatrix(np.array([[1.0, np.nan], [2.0, np.nan]]))
    with pytest.raises(ValueError):
        ObservedMatrix(np.array([[1.0, 7.0], [2.0, 7.0]]))
    with pytest.raises(ValueError):
        ObservedMatrix(np.array([[np.inf, 1.0], [2.0, 2.0]]),
                       mask=np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        ObservedMatrix(np.zeros(3))


def test_observed_matrix_explicit_mask_hides_values():
    vals = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 9.0]])
    mask = np.array([[True, True], [True, True], [False, False]])
    om = ObservedMatrix(vals, mask)
    assert np.isnan(om.values[2, 0]) and np.isnan(om.values[2, 1])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(8, 3)) * np.pi
    vals[rng.random(size=vals.shape) < 0.3] = np.nan
    vals[:, 2] = [1, 2, 1, 2, 1, 2, 1, 2]  # keep every column two-valued
    vals[0, 0], vals[1, 0] = 0.1, 0.2
    vals[0, 1], vals[1, 1] = -1.5, 2.5
    om = ObservedMatrix(vals, column_names=["a", "b", "c"])
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    write_csv(om, p1)
    r1 = load_csv(p1)
    write_csv(r1, p2)
    r2 = load_csv(p2)
    assert r1.column_names == ["a", "b", "c"]
    assert np.array_equal(r1.mask, om.mask)
    # bit-identical round trip for finite doubles
    assert np.array_equal(
        r1.values[r1.mask], om.values[om.mask]
    )
    assert np.array_equal(r2.values[r2.mask], r1.values[r1.mask])


def test_load_csv_missing_tokens(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1.5,NA\n2.5,3.0\n,4.0\n")
    om = load_csv(p)
    assert om.n_observed == 4
    assert np.isnan(om.values[0, 1])
    assert np.isnan(om.values[2, 0])


def test_load_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(p)
    p.write_text("x,y\n1.0,oops\n2.0,3.0\n")
    with pytest.raises(ValueError, match="cannot parse"):
        load_csv(p)
    p.write_text("x,y\n1.0,NA\n2.0,NA\n")
    with pytest.raises(ValueError, match="no observed"):
        load_csv(p)
    p.write_text("x,y\n1.0,5.0\n2.0,5.0\n")
    with pytest.raises(ValueError, match="two distinct"):
        load_csv(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(p)
    p.write_text("x,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(p)


def test_standardized_mse_hand_value():
    est = np.array([[1.0, 0.0], [0.0, 2.0]])
    ref = np.zeros((2, 2))
    scope = np.array([[True, False], [False, True]])
    # residuals 1/1 and 2/2 -> squared 1 and 1 -> mean 1
    assert standardized_mse(est, ref, scope, [1.0, 2.0]) == 1.0
    # halving a scale doubles that residual: ((1/0.5)^2 + (2/1)^2) / 2
    assert standardized_mse(est, ref, scope, [0.5, 1.0]) == pytest.approx(4.0)


def test_standardized_mse_shift_invariance():
    rng = np.random.default_rng(2)
    est = rng.normal(size=(6, 4))
    ref = rng.normal(size=(6, 4))
    scope = rng.random(size=(6, 4)) < 0.5
    scope[0, 0] = True
    scales = rng.uniform(0.5, 2.0, size=4)
    base = standardized_mse(est, ref, scope, scales)
    shift = rng.normal(size=4)
    shifted = standardized_mse(est + shift, ref + shift, scope, scales)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_standardized_mse_validation():
    z = np.zeros((2, 2))
    with pytest.raises(ValueError):
        standardized_mse(z, z, np.zeros((2, 2), dtype=bool), [1.0, 1.0])
    with pytest.raises(ValueError):
        standardized_mse(z, z, np.ones((2, 2), dtype=bool), [1.0, 0.0])
    with pytest.raises(ValueError):
        standardized_mse(z, np.zeros((3, 2)), np.ones((2, 2), dtype=bool), [1.0, 1.0])


def matrix_for_folds(m=20, n=10, missing=0.2, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(m, n))
    vals[rng.random(size=vals.shape) < missing] = np.nan
    vals[:2] = rng.normal(size=(2, n))  # anchor two full rows
    return ObservedMatrix(vals)


def test_split_folds_balanced_and_deterministic():
    om = matrix_for_folds()
    for k in (2, 5, 7):
        fa = split_folds(om, k, seed=42)
        assert np.all((fa.fold >= -1) & (fa.fold < k))
        assert np.all((fa.fold >= 0) == om.mask)
        sizes = np.bincount(fa.fold[om.mask], minlength=k)
        assert sizes.max() - sizes.min() <= 1
        again = split_folds(om, k, seed=42)
        assert np.array_equal(fa.fold, again.fold)
        other = split_folds(om, k, seed=43)
        assert not np.array_equal(fa.fold, other.fold)


def test_split_folds_randomized_union_property():
    rng = np.random.default_rng(9)
    for _ in range(10):
        om = matrix_for_folds(seed=rng.integers(1 << 30))
        k = int(rng.integers(2, 8))
        fa = split_folds(om, k, seed=int(rng.integers(1 << 30)))
        union = np.zeros_like(om.mask)
        for fold_id in range(k):
            hm = fa.holdout_mask(fold_id)
            assert not np.any(hm & ~om.mask)
            assert not np.any(union & hm)
            union |= hm
        assert np.array_equal(union, om.mask)


def test_split_folds_validation():
    om = matrix_for_folds()
    with pytest.raises(ValueError):
        split_folds(om, 1, seed=0)
    with pytest.raises(ValueError):
        split_folds(om, om.n_observed + 1, seed=0)


def test_mask_random_fraction_and_reproducibility():
    om = matrix_for_folds(m=40, n=8, missing=0.1)
    train, hold = mask_random(om, 0.5, seed=7)
    assert hold.sum() == round(0.5 * om.n_observed)
    assert not np.any(hold & ~om.mask)
    assert np.array_equal(train.mask, om.mask & ~hold)
    t2, h2 = mask_random(om, 0.5, seed=7)
    assert np.array_equal(hold, h2)
    with pytest.raises(ValueError):
        mask_random(om, 0.0, seed=1)
    with pytest.raises(ValueError):
        mask_random(om, 1.0, seed=1)


def csv_writer_reference(matrix, path, na_token):
    # write_csv's csv.writer loop, kept as the byte reference
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(matrix.column_names)
        for i in range(matrix.m):
            writer.writerow([
                repr(float(matrix.values[i, j])) if matrix.mask[i, j]
                else na_token
                for j in range(matrix.n)
            ])


def test_write_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(9, 3)) * 10.0 ** rng.integers(-300, 300, (9, 3))
    vals[0] = [-0.0, 5e-324, 1e308]
    vals[rng.random(size=vals.shape) < 0.3] = np.nan
    vals[1:3, :] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    vals[3, :] = np.nan
    matrices = [
        ObservedMatrix(vals, column_names=["a,b", 'q"t', "c"]),
        ObservedMatrix(vals[:, :1], column_names=[""]),
    ]
    for matrix in matrices:
        for na in ("NA", "", "N,A", 'x"y', "nan", " "):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_csv(matrix, got, na_token=na)
            csv_writer_reference(matrix, want, na)
            assert got.read_bytes() == want.read_bytes(), (matrix.n, na)
