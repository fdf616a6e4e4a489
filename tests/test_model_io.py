"""Persistence tests: save/load round trips must be bit-exact for every
method (arrays travel as packed bytes, other floats through repr), version 1
files must still load, and malformed files must be rejected with clear
errors rather than half-loaded."""

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from _support import planted
from gcfactor.fit import FitOptions, fit_xpca
from gcfactor.gaussian import (
    FactorModel,
    coca_impute,
    fit_coca,
    fit_pca,
    pca_impute,
)
from gcfactor.impute import impute
from gcfactor.marginals import Edf
from gcfactor.model_io import load_model, save_model


def fitted_models():
    data, _ = planted(30, 8, 2, 0.5, seed=5, missing=0.2, kinds="trinary")
    yield data, fit_pca(data, 2)
    yield data, fit_coca(data, 2, ties="max")
    yield data, fit_xpca(data, FitOptions(rank=2, max_iterations=40, seed=3))


def test_round_trip_is_bit_exact(tmp_path):
    for data, model in fitted_models():
        path = tmp_path / ("%s.json" % model.method)
        save_model(model, path)
        loaded = load_model(path)

        assert loaded.method == model.method
        assert loaded.column_names == model.column_names
        assert np.array_equal(loaded.U, model.U)
        assert np.array_equal(loaded.V, model.V)
        assert loaded.sigma == model.sigma
        assert loaded.epsilon == model.epsilon

        if model.method == "pca":
            for (mu, sd), (mu2, sd2) in zip(model.marginals, loaded.marginals):
                assert mu == mu2 and sd == sd2
            before, after = pca_impute(model), pca_impute(loaded)
        elif model.method == "coca":
            for edf, edf2 in zip(model.marginals, loaded.marginals):
                assert np.array_equal(edf.distinct, edf2.distinct)
                assert np.array_equal(edf.counts, edf2.counts)
            assert loaded.info.get("ties") == model.info.get("ties")
            before, after = coca_impute(model), coca_impute(loaded)
        else:
            before, after = impute(model), impute(loaded)
        assert np.array_equal(before, after)


def test_impute_after_reload_without_refit(tmp_path):
    # the file alone must suffice: no access to the training data
    data, _ = planted(25, 6, 2, 0.5, seed=9, missing=0.15)
    model = fit_xpca(data, FitOptions(rank=2, max_iterations=30, seed=0))
    est = impute(model, estimator="median")
    path = tmp_path / "m.json"
    save_model(model, path)
    del model, data
    assert np.array_equal(impute(load_model(path), estimator="median"), est)


def test_round_trip_keeps_fit_penalty(tmp_path):
    data, _ = planted(25, 6, 2, 0.5, seed=9, missing=0.15, kinds="trinary")
    for ridge in (1.0, 0.0, 2.5):
        model = fit_xpca(data, FitOptions(rank=2, ridge=ridge))
        path = tmp_path / "m.json"
        save_model(model, path)
        info = load_model(path).info
        assert info["ridge"] == ridge
        assert info["penalty"] == model.info["penalty"]
        assert (info["penalty"] > 0.0) == (ridge > 0.0)


def corrupt(path, mutate):
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))


def test_rejects_malformed_files(tmp_path):
    data, _ = planted(20, 6, 2, 0.5, seed=2, missing=0.1)
    good = tmp_path / "good.json"
    save_model(fit_pca(data, 2), good)

    bad = tmp_path / "bad.json"

    bad.write_text(good.read_text())
    corrupt(bad, lambda p: p.update(format="something-else"))
    with pytest.raises(ValueError, match="not a model file"):
        load_model(bad)

    bad.write_text(good.read_text())
    corrupt(bad, lambda p: p.update(version=99))
    with pytest.raises(ValueError, match="version"):
        load_model(bad)

    bad.write_text(good.read_text())
    corrupt(bad, lambda p: p.pop("U"))
    with pytest.raises(ValueError, match="U"):
        load_model(bad)

    bad.write_text(good.read_text())
    corrupt(bad, lambda p: p.update(rank=5))
    with pytest.raises(ValueError):
        load_model(bad)

    bad.write_text("not json at all")
    with pytest.raises(ValueError):
        load_model(bad)


DATA = Path(__file__).parent / "data"


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_same_model(a, b):
    assert (a.method, a.column_names, a.info) == (b.method, b.column_names,
                                                   b.info)
    assert same_bits(a.U, b.U) and same_bits(a.V, b.V)
    assert same_bits(a.sigma, b.sigma) and a.epsilon == b.epsilon
    for x, y in zip(a.marginals, b.marginals, strict=True):
        if a.method == "pca":
            assert same_bits(x, y)
        else:
            assert same_bits(x.distinct, y.distinct)
            assert same_bits(x.counts, y.counts)


def imputations(model):
    if model.method == "pca":
        return [pca_impute(model)]
    if model.method == "coca":
        return [coca_impute(model)]
    return [impute(model, estimator=e) for e in ("median", "mean",
                                                 "mean-interp")]


def test_v1_files_load_as_their_v2_round_trip(tmp_path):
    # model-v1-*.json: pca, coca (ties="max") and xpca (max_iterations=40)
    # fits of planted(12, 5, 2, 0.5, seed=21, missing=0.2, kinds="trinary"),
    # written by the format-1 save_model
    for method in ("pca", "coca", "xpca"):
        v1_path = DATA / ("model-v1-%s.json" % method)
        assert json.loads(v1_path.read_text())["version"] == 1
        v1 = load_model(v1_path)
        v2_path = tmp_path / ("%s.json" % method)
        save_model(v1, v2_path)
        assert json.loads(v2_path.read_text())["version"] == 2
        v2 = load_model(v2_path)

        assert v1.method == method
        assert_same_model(v1, v2)
        for before, after in zip(imputations(v1), imputations(v2)):
            assert same_bits(before, after)


def test_v2_resave_is_byte_identical(tmp_path):
    for _, model in fitted_models():
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        save_model(load_model(first), second)
        text = first.read_text()
        assert text == second.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")


def test_extreme_floats_round_trip_bitwise(tmp_path):
    extremes = np.array([-1e308, -0.0, 5e-324, 1e308])
    U = np.column_stack([extremes, extremes[::-1]])
    V = U[:3].copy()
    edfs = [Edf(extremes, [1, 2, 3, 4]) for _ in range(3)]
    models = [
        FactorModel("xpca", U, V, 0.5, edfs),
        FactorModel("pca", U, V, 0.5, [(-0.0, 5e-324), (1e308, 1.0),
                                       (-1e308, 2.0)]),
    ]
    for model in models:
        path = tmp_path / ("%s.json" % model.method)
        save_model(model, path)
        loaded = load_model(path)
        assert_same_model(model, loaded)
        arrays = [loaded.U, loaded.V]
        if model.method == "xpca":
            arrays += [a for edf in loaded.marginals
                       for a in (edf.distinct, edf.counts)]
        for array in arrays:
            assert array.dtype.isnative and array.dtype.itemsize == 8
            assert array.flags.owndata and array.flags.writeable


def packed(array, dtype="<f8"):
    raw = np.ascontiguousarray(array, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def unpacked(text, dtype="<f8"):
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


def test_rejects_malformed_v2_files(tmp_path):
    data, _ = planted(20, 6, 2, 0.5, seed=2, missing=0.1)
    good = tmp_path / "good.json"
    save_model(fit_coca(data, 2), good)
    bad = tmp_path / "bad.json"

    def table(p):
        return p["marginals"]["tables"][0]

    def reverse_distinct(p):
        table(p)["distinct"] = packed(unpacked(table(p)["distinct"])[::-1])

    cases = [
        (lambda p: p.update(U=p["U"][:4] + "*" + p["U"][4:]),
         "field U is not valid base64"),
        (lambda p: p.update(U="é" + p["U"]), "field U is not valid"),
        (lambda p: p.update(V=packed(unpacked(p["V"])[:-1])),
         "field V holds"),
        (lambda p: table(p).update(counts=packed(
            np.append(unpacked(table(p)["counts"], "<i8"), 1), "<i8")),
         r"tables\[0\]\.distinct holds"),
        (lambda p: table(p).update(
            counts=table(p)["counts"][:-4] + "AA=="),
         r"tables\[0\]\.counts holds"),
        (lambda p: p.update(U=unpacked(p["U"]).tolist()),
         "field U must be a base64 string"),
        (lambda p: table(p).pop("counts"), "missing field 'counts'"),
        (reverse_distinct, "strictly increasing"),
        (lambda p: p.update(column_names=["a", "b"]), "one name per column"),
    ]
    for mutate, message in cases:
        bad.write_text(good.read_text())
        corrupt(bad, mutate)
        with pytest.raises(ValueError, match=message):
            load_model(bad)
