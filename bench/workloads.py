"""The three benchmark workloads: inputs from a seed, timed steps, checks.

Every workload has rank 3 and sigma^2 = 0.25, and scores held-out
mean-recovery MSE against the generating model's conditional means (the
paper's "mean" metric, residuals scaled by the training columns' stddevs).

  xpca-mixed-100  the paper's mixed scenario at 100x100, 50% held out;
                  PCA, COCA and XPCA fitted and imputed in the library.
  xpca-exp-tall   exponential columns, 4000x100, 80% held out; the same
                  library steps, with a model-file round trip.
  cli-pca-coca    an in-process CLI session on a 1000x100 mixed CSV with
                  30% missing; no likelihood-kernel call.

layers.md says why each was chosen and which layer each metric follows.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import statistics
import time
from collections import defaultdict

import numpy as np

import gcfactor as gc
import gcfactor.cli as gc_cli

RANK = 3
SIGMA2 = 0.25


class StepFailed(Exception):
    """A step raised or a CLI command exited non-zero; ends the pass."""


class Ops:
    """Counts attempted and failed operations for the fail fraction."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            self.errors.append("%s: %r" % (name, exc))
            raise StepFailed(name) from exc

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append("check failed: " + name)


def run_cli(argv):
    """One CLI command in this process, its console output kept out of the
    benchmark's own output; a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gc_cli.main(argv)
    if code != 0:
        raise RuntimeError("exit %r: %s" % (code, err.getvalue().strip()))


class Calibration:
    """Measures how fast the machine runs while a step is timed, so each
    timing can be scaled to a reference speed.

    On the shared 2-vCPU machine the bounds were set on, each core has slow
    spells of a few seconds in which interpreter-bound code runs up to twice
    as slowly and memory-bound numpy code about a third more slowly; the
    two cores' spells are unrelated. A sample times two fixed kernels:
    "numeric" (small-array numpy calls and one elementwise pass) and
    "interp" (a JSON round trip of a model-shaped payload and float parsing
    and formatting). Samples come in two kinds:

    - "during": small kernels run every INTERVAL_S by a timer signal in
      the benchmark's own thread while a long step runs. A long step
      (Steps.once) is scaled by the mean of the samples taken during it,
      and the time they took (spent) is left out of its time.
    - "between": full-size kernels run before, between and after the runs
      of a quick step, which is repeated (repeat), and of the set-ups. Each
      run is scaled by the samples on either side of it.

    Each workload says, per stage, what share of its work is of the
    "interp" kind (interp_share); a step's slowdown blends the two kernels'
    by that share. REFERENCE_S is each kernel's median time on that machine.
    """

    INTERVAL_S = 0.05
    MIN_SAMPLES = 3
    GAP_SHARE = 0.1
    REFERENCE_S = {"during": {"numeric": 0.0007, "interp": 0.0008},
                   "between": {"numeric": 0.006, "interp": 0.011}}

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.data = {"during": self._kernel_data(rng, 30, 8, 50_000, 60,
                                                 20, 2, 20),
                     "between": self._kernel_data(rng, 100, 20, 400_000, 2000,
                                                  100, 20, 60)}
        self.log = []
        self.spent = 0.0

    @staticmethod
    def _kernel_data(rng, side, loops, large, text, rows, tables, distinct):
        return {"small": rng.standard_normal((side, side)), "loops": loops,
                "large": rng.standard_normal(large),
                "text": [repr(float(v)) for v in rng.standard_normal(text)],
                "payload": {
                    "U": rng.standard_normal((rows, 3)).tolist(),
                    "tables": [
                        {"distinct": np.sort(
                            rng.standard_normal(distinct)).tolist(),
                         "counts": rng.integers(1, 5, distinct).tolist()}
                        for _ in range(tables)]}}

    def sample(self, kind):
        """One (numeric, interp) pair of kernel times."""
        d = self.data[kind]
        t0 = time.perf_counter()
        x = d["small"]
        for _ in range(d["loops"]):
            y = np.exp(-0.5 * x * x)
            np.where(x > 0, y, -y).sum()
            (x @ x.T).trace()
        np.exp(-d["large"] * d["large"]).sum()
        t1 = time.perf_counter()
        buf = io.StringIO()
        json.dump(d["payload"], buf, indent=1)
        np.array(json.loads(buf.getvalue())["U"], dtype=float)
        sum(float(t) for t in d["text"])
        ",".join(repr(float(t)) for t in d["text"])
        t2 = time.perf_counter()
        return t0, t1, t2

    def _on_timer(self, signum, frame):
        t0, t1, t2 = self.sample("during")
        self.log.append((0.5 * (t0 + t2), t1 - t0, t2 - t1))
        self.spent += t2 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def stop(self):
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _gap(self, after_s):
        """"between" samples covering at least GAP_SHARE of after_s (at
        least one), as mean kernel times over the reference."""
        ref = self.REFERENCE_S["between"]
        samples, t0 = [], time.perf_counter()
        while (not samples
               or time.perf_counter() - t0 < self.GAP_SHARE * after_s):
            s0, s1, s2 = self.sample("between")
            samples.append((s1 - s0, s2 - s1))
        return {"numeric": statistics.fmean(s[0] for s in samples)
                / ref["numeric"],
                "interp": statistics.fmean(s[1] for s in samples)
                / ref["interp"]}

    def repeat(self, fn, min_runs, max_runs, budget_s):
        """Run fn (idempotent) at least min_runs times and until budget_s
        has passed or max_runs runs, with "between" samples before the first
        run and after each. Returns the last result, the run times and the
        slowdown around each run: the mean of the gaps before and after."""
        gaps, times = [self._gap(0.0)], []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
            gaps.append(self._gap(times[-1]))
            if (len(times) >= max_runs or (len(times) >= min_runs and
                    time.perf_counter() - t_start >= budget_s)):
                break
        slows = [{k: 0.5 * (g0[k] + g1[k]) for k in g0}
                 for g0, g1 in zip(gaps, gaps[1:])]
        return result, times, slows

    def slowdown_during(self, t0, t1):
        """Mean kernel times over the reference of the samples taken
        between t0 and t1, or of the MIN_SAMPLES nearest to them."""
        inside = [s for s in self.log if t0 <= s[0] <= t1]
        if len(inside) < self.MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            inside = sorted(self.log, key=lambda s: abs(s[0] - mid))[
                :self.MIN_SAMPLES]
        ref = self.REFERENCE_S["during"]
        return {"numeric": statistics.fmean(s[1] for s in inside)
                / ref["numeric"],
                "interp": statistics.fmean(s[2] for s in inside)
                / ref["interp"]}

    @staticmethod
    def factor(slow, interp_share):
        return 1.0 / ((1.0 - interp_share) * slow["numeric"]
                      + interp_share * slow["interp"])


class Steps:
    """Runs the steps of one pass and times each into its end-to-end stage.

    With a calibration, a long step (Steps.once) runs once with "during"
    samples on, and counts at its time less the time the samples took,
    scaled by them. A quick step is run again (it is idempotent) through
    Calibration.repeat until its runs cover STEP_SAMPLE_S or STEP_REPEATS
    runs; it counts at the median of its runs, each scaled by the samples
    around it. Which steps are long is fixed per workload, not measured, so
    a step is timed the same way on every run. A stage's time is the sum of
    its steps' times; total_s sums them all. raw_seconds keeps the unscaled
    sums, and log every run's raw time and slowdown.
    """

    STEP_SAMPLE_S = 1.0
    STEP_REPEATS = 50

    def __init__(self, ops, calibration=None, interp_share=None):
        self.ops = ops
        self.calibration = calibration
        self.interp_share = interp_share or {}
        self.seconds = defaultdict(float)
        self.raw_seconds = defaultdict(float)
        self.log = []

    def __call__(self, stage, name, fn, *args):
        """A quick step: repeated."""
        return self._step(stage, name, fn, args, repeat=True)

    def once(self, stage, name, fn, *args):
        """A long step: run once with "during" samples."""
        return self._step(stage, name, fn, args, repeat=False)

    def cli(self, stage, argv, once=False):
        run = self.once if once else self
        return run(stage, "cli " + argv[0], run_cli, argv)

    def _step(self, stage, name, fn, args, repeat):
        cal = self.calibration
        if cal is None:
            t0 = time.perf_counter()
            result = self.ops.call(name, fn, *args)
            step = scaled = time.perf_counter() - t0
        else:
            result, step, scaled = self._calibrated(cal, stage, name, fn, args,
                                                    repeat)
        for key in (stage, "total_s"):
            self.raw_seconds[key] += step
            self.seconds[key] += scaled
        return result

    def _calibrated(self, cal, stage, name, fn, args, repeat):
        share = self.interp_share[stage]
        if not repeat:
            spent = cal.spent
            cal.resume()
            t0 = time.perf_counter()
            try:
                result = self.ops.call(name, fn, *args)
            finally:
                t1 = time.perf_counter()
                cal.pause()
            step = t1 - t0 - (cal.spent - spent)
            slow = cal.slowdown_during(t0, t1)
            self.log.append({"stage": stage, "step": name, "raw": [step],
                             "slowdown": [slow]})
            return result, step, step * cal.factor(slow, share)
        result, times, slows = cal.repeat(
            lambda: self.ops.call(name, fn, *args), 1, self.STEP_REPEATS,
            self.STEP_SAMPLE_S)
        self.log.append({"stage": stage, "step": name, "raw": times,
                         "slowdown": slows})
        return result, statistics.median(times), statistics.median(
            t * cal.factor(slow, share) for t, slow in zip(times, slows))


def draw(m, n, spec, holdout, data_key, mask_key):
    """One complete matrix from gcfactor.simulate.generate and a random
    held-out mask, seeded like run_scenario's draws (key + attempt): a draw
    whose training part leaves a column with one value is redrawn."""
    for attempt in range(50):
        try:
            data, theta, _ = gc.generate(m, n, RANK, SIGMA2, spec,
                                         seed=tuple(data_key) + (attempt, 0))
            train, hold = gc.mask_random(data, holdout,
                                         seed=tuple(mask_key) + (attempt, 1))
        except ValueError:
            continue
        return data, theta, train, hold
    raise RuntimeError("no usable draw for key %r" % (data_key,))


def fingerprint(data, theta, hold):
    """Summary of one generated instance. Float sums are compared with a
    relative tolerance, so BLAS kernels that round differently still match."""
    values = np.where(data.mask, data.values, 0.0).ravel()
    weights = (np.arange(values.size) % 7 + 1.0)
    packed = np.packbits(np.asarray(hold, dtype=bool))
    return {"shape": [data.m, data.n],
            "holdout": int(np.sum(hold)),
            "holdout_sha256": hashlib.sha256(packed.tobytes()).hexdigest()[:16],
            "values_sum": float(values.sum()),
            "values_sumsq": float(values @ values),
            "values_weighted": float(values @ weights),
            "theta_sum": float(theta.sum()),
            "theta_sumsq": float(np.sum(theta * theta))}


def instance_fingerprint(workload, seed):
    data, theta, _, hold = workload.instance(seed)
    return fingerprint(data, theta, hold)


def same_fingerprint(a, b):
    for key, value in a.items():
        if isinstance(value, float):
            if not math.isclose(value, b.get(key, math.nan), rel_tol=1e-9,
                                abs_tol=1e-9):
                return False
        elif value != b.get(key):
            return False
    return set(a) == set(b)


def column_scales(train):
    return np.array([np.std(train.column_observed(j)) for j in range(train.n)])


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class LibraryWorkload:
    """Fit PCA, COCA and XPCA in the library, impute with each default
    estimator, round-trip the XPCA model through a file and impute again."""

    def __init__(self, name, m, n, spec, holdout, order, seeded_mask,
                 long_steps, interp_share):
        self.name = name
        self.m, self.n = m, n
        self.spec = gc.named_spec(spec)
        self.holdout = holdout
        self.order = order
        self.seeded_mask = seeded_mask
        self.long_steps = long_steps
        self.interp_share = interp_share

    def instance(self, seed):
        key = (0, self.m, 0)
        mask_key = (seed, self.m, 0) if self.seeded_mask else key
        return draw(self.m, self.n, self.spec, self.holdout, key, mask_key)

    def setup(self, seed, workdir):
        data, theta, train, hold = self.instance(seed)
        means = gc.underlying_means(self.spec, theta, math.sqrt(SIGMA2))
        return {"data": data, "theta": theta, "train": train, "hold": hold,
                "means": means, "scales": column_scales(train),
                "model_path": os.path.join(workdir, "xpca.json"),
                "resave_path": os.path.join(workdir, "xpca-resaved.json")}

    def run(self, ctx, steps):
        def step(stage, name, fn, *args):
            run = steps.once if name in self.long_steps else steps
            return run(stage, name, fn, *args)

        train = ctx["train"]
        fitters = {"pca": lambda: gc.fit_pca(train, RANK),
                   "coca": lambda: gc.fit_coca(train, RANK),
                   "xpca": lambda: gc.fit_xpca(train, rank=RANK)}
        imputers = {"pca": gc.pca_impute, "coca": gc.coca_impute,
                    "xpca": gc.impute}
        models = {m: step("fit_s", "fit " + m, fitters[m]) for m in self.order}
        est = {m: step("impute_s", "impute " + m, imputers[m], models[m])
               for m in self.order}
        step("io_s", "save_model", gc.save_model, models["xpca"],
             ctx["model_path"])
        loaded = step("io_s", "load_model", gc.load_model, ctx["model_path"])
        est_loaded = step("impute_s", "impute loaded xpca", gc.impute, loaded)
        return {"models": models, "est": est, "loaded": loaded,
                "est_loaded": est_loaded}

    def check(self, ctx, out, ops, first):
        quality = {}
        for method in ("pca", "coca", "xpca"):
            mse = gc.standardized_mse(out["est"][method], ctx["means"],
                                      ctx["hold"], ctx["scales"])
            ops.check("%s holdout mse finite" % method, math.isfinite(mse))
            quality["%s_holdout_mse" % method] = mse
        ops.check("loaded-model imputation is bitwise identical",
                  _bitwise_equal(out["est_loaded"], out["est"]["xpca"]))
        gc.save_model(out["loaded"], ctx["resave_path"])
        ops.check("re-saving a loaded model reproduces the file",
                  _file_bytes(ctx["resave_path"])
                  == _file_bytes(ctx["model_path"]))
        if first is not None:
            ops.check("repeat iteration reproduces every estimate",
                      self.digest(out) == first)
        return quality

    def digest(self, out):
        """Hashes of every estimate, to compare later passes with the
        first without keeping its arrays."""
        return {m: _sha256(np.ascontiguousarray(est).tobytes())
                for m, est in out["est"].items()}

    def xpca_model(self, out):
        return out["models"]["xpca"]


def _read_records(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _truth_model(train, theta):
    # the generating factors as an xpca model: theta's top-RANK SVD with the
    # training columns' empirical distributions, so nothing is fitted
    Us, s, Vt = np.linalg.svd(theta, full_matrices=False)
    edfs = [gc.fit_edf(train.column_observed(j)) for j in range(train.n)]
    return gc.FactorModel("xpca", Us[:, :RANK] * s[:RANK], Vt[:RANK].T,
                          math.sqrt(SIGMA2), edfs,
                          column_names=train.column_names)


class CliWorkload:
    """A CLI session on a CSV: fit pca and coca, impute from every model,
    per-cell distributions from the generating model, cross-validation."""

    name = "cli-pca-coca"
    # CSV parsing and formatting make every CLI command interpreter-heavy
    interp_share = {"setup_s": 0.75, "fit_s": 0.75, "impute_s": 0.75,
                    "io_s": 1.0, "cv_s": 0.5}
    m, n = 1000, 100
    missing = 0.3
    n_cells = 300
    cv_ranks = (1, 4)
    cv_folds = 5
    # (method, rank) pairs the library recomputes to check the cv output
    cv_checked = (("pca", 3), ("coca", 3))

    def __init__(self):
        self.spec = gc.named_spec("mixed")

    def instance(self, seed):
        # a fixed matrix and mask: cv's ALS sweep counts, and so its time,
        # swing with the draw; the run seed picks the --cells instead
        key = (0, self.m, 0)
        return draw(self.m, self.n, self.spec, self.missing, key, key)

    def setup(self, seed, workdir):
        data, theta, train, hold = self.instance(seed)
        path = {name: os.path.join(workdir, name) for name in (
            "data.csv", "pca.json", "coca.json", "xpca.json",
            "xpca-resaved.json", "pca-filled.csv", "coca-filled.csv",
            "xpca-filled.csv", "cells.csv", "dist.csv", "cv.csv")}
        gc.write_csv(train, path["data.csv"])
        gc.save_model(_truth_model(train, theta), path["xpca.json"])
        rng = np.random.default_rng((seed, self.m, 2))
        missing = np.argwhere(hold)
        cells = missing[np.sort(rng.choice(len(missing), self.n_cells,
                                           replace=False))]
        cell_args = []
        for i, j in cells:
            cell_args += ["--cells", "%d,%d" % (i, j)]
        return {"data": data, "theta": theta, "train": train, "hold": hold,
                "means": gc.underlying_means(self.spec, theta,
                                             math.sqrt(SIGMA2)),
                "scales": column_scales(train), "path": path,
                "cells": [tuple(c) for c in cells.tolist()],
                "cell_args": cell_args}

    def run(self, ctx, step):
        p = ctx["path"]
        for method in ("pca", "coca"):
            step.cli("fit_s", ["fit", "--method", method, "--rank", str(RANK),
                               "--input", p["data.csv"],
                               "--output", p[method + ".json"]])
        for method in ("pca", "coca", "xpca"):
            step.cli("impute_s", ["impute", "--model", p[method + ".json"],
                                  "--input", p["data.csv"],
                                  "--output", p[method + "-filled.csv"]],
                     once=True)
        step.cli("impute_s", ["impute", "--model", p["xpca.json"],
                              "--output", p["cells.csv"],
                              "--distributions", p["dist.csv"]]
                 + ctx["cell_args"], once=True)
        step.cli("cv_s", ["cv", "--input", p["data.csv"],
                          "--methods", "pca,coca",
                          "--ranks", "%d..%d" % self.cv_ranks,
                          "--folds", str(self.cv_folds),
                          "--output", p["cv.csv"]], once=True)
        loaded = step("io_s", "load_model", gc.load_model, p["xpca.json"])
        step("io_s", "save_model", gc.save_model, loaded,
             p["xpca-resaved.json"])
        return {"loaded": loaded,
                "outputs": {name: _sha256(_file_bytes(p[name]))
                            for name in ("pca-filled.csv", "coca-filled.csv",
                                         "xpca-filled.csv", "cells.csv",
                                         "dist.csv", "cv.csv")}}

    def check(self, ctx, out, ops, first):
        p, train, hold = ctx["path"], ctx["train"], ctx["hold"]
        library = {
            "pca": gc.pca_impute(gc.load_model(p["pca.json"])),
            "coca": gc.coca_impute(gc.load_model(p["coca.json"])),
            "xpca": gc.impute(out["loaded"]),
        }
        quality = {}
        for method, est in library.items():
            filled = np.array(_read_records(p[method + "-filled.csv"])[1],
                              dtype=float)
            expect = np.where(train.mask, train.values, est)
            ops.check("cli impute --input matches the library (%s)" % method,
                      _bitwise_equal(filled, expect))
            mse = gc.standardized_mse(filled, ctx["means"], hold,
                                      ctx["scales"])
            ops.check("%s holdout mse finite" % method, math.isfinite(mse))
            quality["%s_holdout_mse" % method] = mse

        header, rows = _read_records(p["cells.csv"])
        ops.check("cli impute --cells matches the library",
                  header == ["row", "col", "estimate"]
                  and [(int(r[0]), int(r[1])) for r in rows] == ctx["cells"]
                  and all(float(r[2]) == library["xpca"][int(r[0]), int(r[1])]
                          for r in rows))
        header, rows = _read_records(p["dist.csv"])
        by_cell = defaultdict(list)
        for i, j, value, prob in rows:
            by_cell[int(i), int(j)].append((float(value), float(prob)))
        edfs = out["loaded"].marginals
        ops.check("every cell's distribution covers its column support",
                  list(by_cell) == ctx["cells"]
                  and all([v for v, _ in by_cell[c]]
                          == edfs[c[1]].distinct.tolist() for c in by_cell))
        ops.check("every cell's distribution sums to 1",
                  all(abs(math.fsum(q for _, q in recs) - 1.0) < 1e-9
                      for recs in by_cell.values()))
        ops.check("re-saving a loaded model reproduces the file",
                  _file_bytes(p["xpca-resaved.json"])
                  == _file_bytes(p["xpca.json"]))

        header, rows = _read_records(p["cv.csv"])
        cv = {(r[0], int(r[1])): float(r[2]) for r in rows}
        lo, hi = self.cv_ranks
        ops.check("cv reports every method and rank",
                  sorted(cv) == sorted((m, k) for m in ("pca", "coca")
                                       for k in range(lo, hi + 1))
                  and all(math.isfinite(v) and v > 0 for v in cv.values()))
        if first is None:
            for method, rank in self.cv_checked:
                ops.check("cv matches the library (%s rank %d)"
                          % (method, rank),
                          math.isclose(cv.get((method, rank), math.nan),
                                       self._library_cv(train, method, rank),
                                       rel_tol=1e-9))
        else:
            ops.check("repeat iteration reproduces every output file",
                      self.digest(out) == first)
        return quality

    def digest(self, out):
        return out["outputs"]

    def _library_cv(self, data, method, rank):
        """Pooled standardized holdout MSE over the folds the cv command
        draws with its default seed 0, from library calls alone."""
        fit, imp = {"pca": (gc.fit_pca, gc.pca_impute),
                    "coca": (gc.fit_coca, gc.coca_impute)}[method]
        folds = gc.split_folds(data, self.cv_folds, seed=0)
        sq_sum, count = 0.0, 0
        for k in range(folds.n_folds):
            hold = folds.holdout_mask(k)
            train = gc.ObservedMatrix(data.values, data.mask & ~hold,
                                      column_names=data.column_names)
            resid = (imp(fit(train, rank)) - data.values) / column_scales(train)
            sq_sum += float(np.sum(resid[hold] ** 2))
            count += int(hold.sum())
        return sq_sum / count

    def xpca_model(self, out):
        return out["loaded"]


# Every matrix is drawn with run_scenario's key (seed 0, rows, rep 0), so
# the mixed 100x100 one is the first instance `gcfactor simulate --spec mixed
# --sizes 100 --seed 0` draws. Solver paths swing with the draw, mask
# included, so only the tall exponential workload, whose path does not,
# takes its mask from the run seed (layers.md).
WORKLOADS = {
    "xpca-mixed-100": LibraryWorkload("xpca-mixed-100", 100, 100, "mixed",
                                      0.5, ("pca", "coca", "xpca"),
                                      seeded_mask=False,
                                      long_steps={"fit xpca"},
                                      interp_share={"setup_s": 0.5,
                                                    "fit_s": 0.5,
                                                    "impute_s": 0.75,
                                                    "io_s": 1.0}),
    "xpca-exp-tall": LibraryWorkload("xpca-exp-tall", 4000, 100,
                                     "exponential", 0.8,
                                     ("xpca", "pca", "coca"),
                                     seeded_mask=True,
                                     long_steps={"fit xpca", "impute xpca",
                                                 "impute loaded xpca"},
                                     # 4000-row arrays: memory-bound numpy
                                     interp_share={"setup_s": 0.25,
                                                   "fit_s": 0.25,
                                                   "impute_s": 0.75,
                                                   "io_s": 1.0}),
    "cli-pca-coca": CliWorkload(),
}
