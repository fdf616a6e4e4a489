"""Command-line behavior: exit codes (0 success, 1 runtime, 2 usage),
fit/impute round trips through model files, per-cell distribution output,
and determinism of simulate and cv under a fixed seed."""

import csv
import io
import json

import numpy as np
import pytest

from _support import planted
from gcfactor import cli as gc_cli
from gcfactor.cli import main
from gcfactor.data import ObservedMatrix, load_csv, split_folds, write_csv
from gcfactor.gaussian import (
    FactorModel,
    coca_impute,
    fit_coca,
    fit_pca,
    pca_impute,
)
from gcfactor.impute import entry_distribution, impute
from gcfactor.model_io import load_model, save_model


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
    assert main(["fit", "--method", "xpca", "--rank", "2",
                 "--max-iterations", "40",
                 "--input", data_csv, "--output", model]) == 0
    assert main(["impute", "--model", model, "--output", out]) == 0

    est = load_csv(out, na_token="__none__")
    data = load_csv(data_csv)
    assert (est.m, est.n) == (data.m, data.n)
    assert est.column_names == data.column_names
    assert not np.isnan(est.values).any()

    # refitting reproduces the model file exactly
    model2 = str(tmp_path / "model2.json")
    assert main(["fit", "--method", "xpca", "--rank", "2",
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


def test_fit_summary_names_optimizer_and_stop_reason(data_csv, tmp_path,
                                                     capsys):
    model = str(tmp_path / "model.json")
    args = ["fit", "--method", "xpca", "--rank", "2",
            "--input", data_csv, "--output", model]
    for extra, optimizer, stop in (
            ([], "newton", "gradient tolerance"),
            (["--optimizer", "newton"], "newton", "gradient tolerance"),
            (["--optimizer", "lbfgs"], "lbfgs", None),
            (["--optimizer", "bcd", "--max-iterations", "1"], "bcd",
             "budget")):
        capsys.readouterr()
        assert main(args + extra) == 0
        info = load_model(model).info
        line = capsys.readouterr().out.splitlines()[2]
        assert line == ("optimizer=%s sweeps=%d evals=%d hessp=%d "
                        "converged=%s stop_reason=%s"
                        % (info["optimizer"], info["sweeps"], info["evals"],
                           info["hessp"], info["converged"],
                           info["stop_reason"]))
        assert info["optimizer"].split("+")[0] == optimizer
        assert stop is None or info["stop_reason"] == stop


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
    assert main(["fit", "--method", "xpca", "--rank", "2",
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


def test_impute_cells_match_whole_matrix(data_csv, tmp_path):
    model = str(tmp_path / "model.json")
    cells_out = str(tmp_path / "cells.csv")
    full_out = str(tmp_path / "full.csv")
    assert main(["fit", "--method", "xpca", "--rank", "2",
                 "--input", data_csv, "--output", model]) == 0
    cells = [(0, 1), (4, 3), (7, 3), (2, 0)]
    args = ["impute", "--model", model, "--output", cells_out]
    for i, j in cells:
        args += ["--cells", "%d,%d" % (i, j)]
    assert main(args) == 0
    assert main(["impute", "--model", model, "--output", full_out]) == 0
    full = np.array(read_rows(full_out)[1:], dtype=float)
    rows = read_rows(cells_out)[1:]
    assert [(int(r[0]), int(r[1])) for r in rows] == cells
    assert all(float(r[2]) == full[int(r[0]), int(r[1])] for r in rows)


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
    with pytest.raises(SystemExit) as exc:  # the fit has no seed
        main(["fit", "--method", "xpca", "--rank", "2", "--seed", "1",
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


def test_cv_equals_cold_per_fold_fits(data_csv, tmp_path):
    # cv shares each fold's transform and SVD across ranks; every pooled
    # MSE must still equal, to the last digit, the one from a separate
    # cold fit per fold and rank
    out = str(tmp_path / "cv.csv")
    assert main(["cv", "--input", data_csv, "--folds", "3", "--ranks", "1..3",
                 "--methods", "pca,coca", "--seed", "4",
                 "--output", out]) == 0
    data = load_csv(data_csv)
    folds = split_folds(data, 3, seed=4)
    fitters = {"pca": (fit_pca, pca_impute), "coca": (fit_coca, coca_impute)}
    want = []
    for method, (fit, imp) in fitters.items():
        for rank in (1, 2, 3):
            sq_sum, count = 0.0, 0
            for k in range(3):
                hold = folds.holdout_mask(k)
                train = ObservedMatrix(data.values, data.mask & ~hold)
                scales = np.array([np.std(train.column_observed(j))
                                   for j in range(train.n)])
                resid = (imp(fit(train, rank)) - data.values) / scales
                sq_sum += float(np.sum(resid[hold] ** 2))
                count += int(hold.sum())
            want.append([method, str(rank), repr(sq_sum / count)])
    assert read_rows(out)[1:] == want


def test_cv_reports_unconverged_fits_on_stderr(data_csv, tmp_path, capsys,
                                               monkeypatch):
    args = ["cv", "--input", data_csv, "--folds", "3", "--ranks", "1..2",
            "--methods", "pca", "--seed", "7"]
    out_ok = str(tmp_path / "ok.csv")
    assert main(args + ["--output", out_ok]) == 0
    ok = capsys.readouterr()
    assert ok.err == ""

    real_fit_ranks = gc_cli.fit_ranks

    def stalled_fit_ranks(method, data, ranks):
        models = real_fit_ranks(method, data, ranks)
        for model in models:
            model.info["converged"] = False
        return models

    monkeypatch.setattr(gc_cli, "fit_ranks", stalled_fit_ranks)
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


def csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def file_text(path):
    with open(path, newline="") as fh:
        return fh.read()


def test_csv_outputs_are_csv_writer_bytes(data_csv, tmp_path):
    # every CSV the CLI writes is byte for byte what csv.writer writes for
    # the same header and repr'd floats, names that need quoting included
    data = load_csv(data_csv)
    coca = fit_coca(data, 2)
    names = ["a,b", 'q"t', "plain"] + data.column_names[3:]
    model = FactorModel("xpca", coca.U, coca.V, coca.sigma, coca.marginals,
                        column_names=names)
    model_path = str(tmp_path / "model.json")
    save_model(model, model_path)
    est = impute(model)
    p = {name: str(tmp_path / name) for name in (
        "all.csv", "filled.csv", "cells.csv", "dist.csv", "cv.csv")}
    cells = [(0, 1), (4, 3), (29, 7)]
    cell_args = [arg for i, j in cells
                 for arg in ("--cells", "%d,%d" % (i, j))]

    assert main(["impute", "--model", model_path,
                 "--output", p["all.csv"]]) == 0
    assert main(["impute", "--model", model_path, "--input", data_csv,
                 "--output", p["filled.csv"]]) == 0
    assert main(["impute", "--model", model_path, "--output", p["cells.csv"],
                 "--distributions", p["dist.csv"]] + cell_args) == 0
    assert main(["cv", "--input", data_csv, "--folds", "3", "--ranks", "1..2",
                 "--methods", "pca", "--output", p["cv.csv"]]) == 0

    def matrix_rows(values):
        return [[repr(float(v)) for v in row] for row in values]

    filled = np.where(data.mask, data.values, est)
    dist_rows = []
    for i, j in cells:
        dist = entry_distribution(model, i, j)
        dist_rows += [[i, j, repr(float(v)), repr(float(q))]
                      for v, q in zip(dist.support, dist.probs)]
    cv_rows = [[r[0], int(r[1]), repr(float(r[2]))]
               for r in read_rows(p["cv.csv"])[1:]]
    want = {
        "all.csv": csv_writer_text(names, matrix_rows(est)),
        "filled.csv": csv_writer_text(names, matrix_rows(filled)),
        "cells.csv": csv_writer_text(["row", "col", "estimate"],
                                     [[i, j, repr(float(est[i, j]))]
                                      for i, j in cells]),
        "dist.csv": csv_writer_text(["row", "col", "value", "prob"],
                                    dist_rows),
        "cv.csv": csv_writer_text(["method", "rank", "mse"], cv_rows),
    }
    for name, text in want.items():
        assert file_text(p[name]) == text, name
    assert len(cv_rows) == 2


def test_impute_rejects_model_with_wrong_name_count(data_csv, tmp_path,
                                                    capsys):
    model = tmp_path / "model.json"
    out = tmp_path / "out.csv"
    assert main(["fit", "--method", "pca", "--rank", "2",
                 "--input", data_csv, "--output", str(model)]) == 0
    payload = json.loads(model.read_text())
    payload["column_names"] = payload["column_names"][:2]
    model.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["impute", "--model", str(model), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "one name per column" in err
    assert not out.exists()
