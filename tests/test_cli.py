"""Command-line behavior: exit codes (0 success, 1 runtime, 2 usage),
fit/impute round trips through model files, per-cell distribution output,
and determinism of simulate and cv under a fixed seed."""

import csv

import numpy as np
import pytest

from _support import planted
from gcfactor import cli as gc_cli
from gcfactor.cli import main
from gcfactor.data import load_csv, write_csv
from gcfactor.model_io import load_model


@pytest.fixture
def data_csv(tmp_path):
    data, _ = planted(30, 8, 2, 0.5, seed=5, missing=0.2, kinds="trinary")
    path = tmp_path / "data.csv"
    write_csv(data, path)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fit_impute_round_trip(data_csv, tmp_path):
    model = str(tmp_path / "model.json")
    out = str(tmp_path / "est.csv")
    assert main(["fit", "--method", "xpca", "--rank", "2", "--seed", "1",
                 "--max-iterations", "40",
                 "--input", data_csv, "--output", model]) == 0
    assert main(["impute", "--model", model, "--output", out]) == 0

    est = load_csv(out, na_token="__none__")
    data = load_csv(data_csv)
    assert (est.m, est.n) == (data.m, data.n)
    assert est.column_names == data.column_names
    assert not np.isnan(est.values).any()

    # refitting with the same seed reproduces the model file exactly
    model2 = str(tmp_path / "model2.json")
    assert main(["fit", "--method", "xpca", "--rank", "2", "--seed", "1",
                 "--max-iterations", "40",
                 "--input", data_csv, "--output", model2]) == 0
    assert open(model).read() == open(model2).read()


def test_fit_reports_unconverged_fit_on_stderr(data_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    args = ["fit", "--method", "xpca", "--rank", "2",
            "--input", data_csv, "--output", model]
    assert main(args + ["--optimizer", "bcd", "--max-iterations", "1"]) == 0
    stalled = capsys.readouterr()
    assert not load_model(model).info["converged"]
    assert stalled.err == ("warning: xpca rank 2 did not converge "
                           "(1 sweeps, 0 evals)\n")
    assert "warning" not in stalled.out
    assert "converged=False" in stalled.out

    assert main(args) == 0
    ok = capsys.readouterr()
    assert load_model(model).info["converged"]
    assert ok.err == ""


def test_impute_with_input_fills_only_missing(data_csv, tmp_path):
    model = str(tmp_path / "model.json")
    out = str(tmp_path / "completed.csv")
    assert main(["fit", "--method", "coca", "--rank", "2",
                 "--input", data_csv, "--output", model]) == 0
    assert main(["impute", "--model", model, "--input", data_csv,
                 "--output", out]) == 0
    data = load_csv(data_csv)
    completed = load_csv(out, na_token="__none__")
    assert not np.isnan(completed.values).any()
    assert np.array_equal(completed.values[data.mask], data.values[data.mask])


def test_impute_cells_and_distributions(data_csv, tmp_path):
    model = str(tmp_path / "model.json")
    cells_out = str(tmp_path / "cells.csv")
    dist_out = str(tmp_path / "dist.csv")
    assert main(["fit", "--method", "xpca", "--rank", "2", "--seed", "0",
                 "--max-iterations", "30",
                 "--input", data_csv, "--output", model]) == 0
    assert main(["impute", "--model", model, "--cells", "0,1", "--cells", "4,3",
                 "--output", cells_out, "--distributions", dist_out]) == 0

    rows = read_rows(cells_out)
    assert rows[0] == ["row", "col", "estimate"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("0", "1"), ("4", "3")]

    dist = read_rows(dist_out)
    assert dist[0] == ["row", "col", "value", "prob"]
    by_cell = {}
    for i, j, value, prob in dist[1:]:
        by_cell.setdefault((i, j), []).append(float(prob))
    assert set(by_cell) == {("0", "1"), ("4", "3")}
    for probs in by_cell.values():
        assert abs(sum(probs) - 1.0) < 1e-10


def test_usage_errors_exit_2(data_csv, tmp_path):
    model = str(tmp_path / "model.json")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--method", "pca", "--rank", "0",
              "--input", data_csv, "--output", model])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--method", "coca", "--rank", "2", "--optimizer", "bcd",
              "--input", data_csv, "--output", model])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--method", "pca", "--rank", "2", "--ties", "max",
              "--input", data_csv, "--output", model])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "weibull", "--sizes", "20",
              "--output", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_runtime_errors_exit_1(data_csv, tmp_path):
    model = str(tmp_path / "model.json")
    out = str(tmp_path / "out.csv")
    assert main(["fit", "--method", "pca", "--rank", "2",
                 "--input", data_csv, "--output", model]) == 0
    # estimator belongs to xpca; a pca model must refuse it
    assert main(["impute", "--model", model, "--estimator", "mean",
                 "--output", out]) == 1
    assert main(["impute", "--model", model, "--distributions",
                 str(tmp_path / "d.csv"), "--output", out]) == 1
    assert main(["impute", "--model", str(tmp_path / "nosuch.json"),
                 "--output", out]) == 1
    assert main(["impute", "--model", model, "--cells", "99,0",
                 "--output", out]) == 1
    assert main(["cv", "--input", data_csv, "--ranks", "40",
                 "--output", out]) == 1


def test_simulate_rows_and_determinism(tmp_path):
    out1 = str(tmp_path / "sim1.csv")
    out2 = str(tmp_path / "sim2.csv")
    args = ["simulate", "--spec", "gaussian", "--sizes", "30", "--reps", "2",
            "--rank", "2", "--methods", "pca,coca", "--seed", "4"]
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    assert open(out1).read() == open(out2).read()

    rows = read_rows(out1)
    assert rows[0] == ["size", "rep", "method", "metric", "split", "mse"]
    # 1 size x 2 reps x 2 methods x 2 metrics x 2 splits
    assert len(rows) - 1 == 16
    for row in rows[1:]:
        assert np.isfinite(float(row[5]))


def test_cv_schema_and_determinism(data_csv, tmp_path):
    out1 = str(tmp_path / "cv1.csv")
    out2 = str(tmp_path / "cv2.csv")
    args = ["cv", "--input", data_csv, "--folds", "4", "--ranks", "1..2",
            "--methods", "pca,coca", "--seed", "7"]
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    assert open(out1).read() == open(out2).read()

    rows = read_rows(out1)
    assert rows[0] == ["method", "rank", "mse"]
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("pca", "1"), ("pca", "2"), ("coca", "1"), ("coca", "2")]
    for row in rows[1:]:
        assert float(row[2]) > 0.0


def test_cv_reports_unconverged_fits_on_stderr(data_csv, tmp_path, capsys,
                                               monkeypatch):
    args = ["cv", "--input", data_csv, "--folds", "3", "--ranks", "1..2",
            "--methods", "pca", "--seed", "7"]
    out_ok = str(tmp_path / "ok.csv")
    assert main(args + ["--output", out_ok]) == 0
    ok = capsys.readouterr()
    assert ok.err == ""

    real_fit_pca = gc_cli.fit_pca

    def stalled_fit_pca(data, rank):
        model = real_fit_pca(data, rank)
        model.info["converged"] = False
        return model

    monkeypatch.setattr(gc_cli, "fit_pca", stalled_fit_pca)
    out_stalled = str(tmp_path / "stalled.csv")
    assert main(args + ["--output", out_stalled]) == 0
    stalled = capsys.readouterr()
    lines = stalled.err.splitlines()
    assert len(lines) == 6
    for line, (rank, fold) in zip(lines, [(r, f) for r in (1, 2)
                                          for f in (1, 2, 3)]):
        assert line.startswith("warning: pca rank %d fold %d of 3 did not "
                               "converge (" % (rank, fold))
        assert line.endswith(" sweeps)")
    assert stalled.out == ok.out.replace(out_ok, out_stalled)
    assert open(out_stalled, "rb").read() == open(out_ok, "rb").read()
