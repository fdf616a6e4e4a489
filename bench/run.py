"""gcfactor benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The
script re-executes itself once to pin BLAS to one thread and to keep glibc
malloc from returning freed memory to the kernel (see PINNED_ENV).

--trace 0 sets the workload up at least five times and for at least a
second (setup_s is the median), then runs passes over its steps until the
next pass would overrun --seconds, and reports the median of each
end-to-end metric over the passes. Timings are scaled to a reference
machine speed sampled while they are taken by workloads.Calibration (see
layers.md). --trace 1
runs one plain pass and one traced pass, and reports the per-layer metrics,
the tracing overhead (traced minus plain total_s) and the exact-mean,
median and interpolated-mean imputation times on the workload's XPCA model.
The last stdout line is {"correct", "attempted", "failed", "metrics"}; a
fuller report and the spans go to bench/out/. layers.md describes the
workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

# One BLAS thread for a single-threaded baseline. glibc malloc keeps freed
# memory in the heap: by default it hands each large numpy temporary back to
# the kernel and maps it afresh, and on a virtual machine the page faults
# that follow took most of the time of a numpy operation and swung with the
# host's memory pressure. Both settings are read when a process starts.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SETUP_SAMPLE_S = 1.0


def pin_environment():
    """Re-execute this script under PINNED_ENV unless it already runs so."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ["BENCH_ENV_BEFORE_PINNING"] = json.dumps(
        {k: os.environ.get(k) for k in PINNED_ENV})
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)


def fail(message, code=2):
    print("bench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at %s" % ROOT)
    with open(path) as fh:
        return json.load(fh)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "gcfactor", "__init__.py")):
        fail("no gcfactor sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import gcfactor
    if not os.path.abspath(gcfactor.__file__).startswith(SRC + os.sep):
        fail("imported gcfactor from %s, not from %s" % (gcfactor.__file__, SRC))


def machine():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "env": {k: os.environ.get(k) for k in PINNED_ENV},
            "env_before_pinning": json.loads(
                os.environ.get("BENCH_ENV_BEFORE_PINNING", "{}"))}


def check_canary(workloads, workload, fingerprints):
    """Refuse to run if gcfactor.simulate now generates a different
    instance for the workload's seed-0 canary than the one recorded."""
    expected = fingerprints[workload.name]
    got = workloads.instance_fingerprint(workload, 0)
    if not workloads.same_fingerprint(expected, got):
        fail("workload %s: the generated inputs changed (seed-0 fingerprint "
             "%s, recorded %s); the benchmark no longer measures the same "
             "workload" % (workload.name, json.dumps(got),
                           json.dumps(expected)), code=3)


def one_iteration(workload, ctx, ops, first, calibration=None, tracer=None):
    """Run the workload's steps once (traced, if a tracer is given), then
    check their outputs with tracing off, against the first pass's digest
    if one is given. With a calibration, quick steps are repeated and every
    step is scaled to reference speed."""
    from workloads import StepFailed, Steps
    steps = Steps(ops, calibration, workload.interp_share)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = workload.run(ctx, steps)
        out["wall_s"] = time.perf_counter() - t0
    except StepFailed:
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["quality"] = workload.check(ctx, out, ops, first)
    out["digest"] = workload.digest(out)
    out["seconds"] = dict(steps.seconds)
    out["raw_seconds"] = dict(steps.raw_seconds)
    out["step_log"] = steps.log
    return out


def timed_setup(workload, seed, workdir, calibration):
    """Set up at least SETUP_REPEATS times and until SETUP_SAMPLE_S has
    passed. Returns the context, the set-up times and the slowdown around
    each."""
    return calibration.repeat(lambda: workload.setup(seed, workdir),
                              SETUP_REPEATS, 200, SETUP_SAMPLE_S)


def crossover(model):
    """Time the three XPCA estimators once each on one model."""
    import gcfactor as gc
    out = {}
    for key, fn in (("mean_s", gc.impute_mean), ("median_s", gc.impute_median),
                    ("mean_interp_s", gc.impute_mean_interp)):
        t0 = time.perf_counter()
        fn(model)
        out["impute.crossover." + key] = time.perf_counter() - t0
    return out


def fit_info(model):
    # zeros for a model that was not fitted here
    info = model.info
    return {"fit.evals": info.get("evals", 0),
            "fit.sweeps": info.get("sweeps", 0),
            "fit.skipped_blocks": info.get("skipped_blocks", 0),
            "fit.converged": int(bool(info.get("converged", False))),
            "fit.nll": info.get("nll", 0.0)}


def run_plain(workload, seed, seconds, workdir, ops, report):
    from workloads import Calibration
    calibration = Calibration()
    # later passes are compared with the first by digest, and only their
    # timings are kept, so peak memory does not grow with the pass count
    iterations, first, xpca_info = [], None, None
    calibration.start()
    try:
        ctx, setup_times, setup_slows = timed_setup(workload, seed, workdir,
                                                    calibration)
        start = time.perf_counter()
        while True:
            out = one_iteration(workload, ctx, ops, first, calibration)
            if out is None:
                break
            if first is None:
                first = out["digest"]
                xpca_info = fit_info(workload.xpca_model(out))
            iterations.append({key: out[key] for key in (
                "seconds", "raw_seconds", "quality", "step_log")})
            wall_s = out["wall_s"]
            del out
            # stop before a pass that would overrun; the first one's library
            # cross-checks are one-off, so predict from the last pass's steps
            if time.perf_counter() - start + wall_s > seconds:
                break
    finally:
        calibration.stop()
    if not iterations:
        return None
    report["setup"] = {"raw": setup_times, "slowdown": setup_slows}
    report["iterations"] = [{**it["seconds"], **it["quality"],
                             "raw": it["raw_seconds"], "steps": it["step_log"]}
                            for it in iterations]
    report["xpca_info"] = xpca_info
    share = workload.interp_share["setup_s"]
    setup_s = statistics.median(t * calibration.factor(slow, share)
                                for t, slow in zip(setup_times, setup_slows))
    metrics = {"setup_s": setup_s,
               "peak_mem_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for key in ("fit_s", "impute_s", "io_s", "total_s"):
        metrics[key] = statistics.median(it["seconds"][key]
                                         for it in iterations)
    for key in iterations[0]["quality"]:
        metrics[key] = statistics.median(it["quality"][key] for it in iterations)
    return metrics


def run_traced(workload, seed, workdir, ops, report, spans_path):
    from tracer import Tracer
    ctx = workload.setup(seed, workdir)
    plain = one_iteration(workload, ctx, ops, None)
    if plain is None:
        return None
    tracer = Tracer()
    traced = one_iteration(workload, ctx, ops, plain["digest"], tracer=tracer)
    tracer.write(spans_path)
    if traced is None:
        return None
    metrics = tracer.layer_metrics()
    metrics.update(fit_info(workload.xpca_model(traced)))
    metrics.update(crossover(workload.xpca_model(traced)))
    overhead = traced["seconds"]["total_s"] - plain["seconds"]["total_s"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / plain["seconds"]["total_s"]
    report["iterations"] = [plain["seconds"], traced["seconds"]]
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be nonnegative and --seconds positive")
    pin_environment()

    spec = load_spec()
    import_package()
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r (one of %s)"
             % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        check_canary(workloads, workload, json.load(fh))

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix=stem + "-", dir=OUT_DIR)
    ops = workloads.Ops()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(),
              "fingerprint": workloads.instance_fingerprint(workload,
                                                            args.seed)}
    try:
        if args.trace:
            metrics = run_traced(workload, args.seed, workdir, ops, report,
                                 os.path.join(OUT_DIR, stem + "-spans.json"))
        else:
            metrics = run_plain(workload, args.seed, args.seconds, workdir,
                                ops, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["errors"] = ops.errors
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if metrics is not None:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            fail("metrics not measured: %s" % ", ".join(missing))
        report["metrics"] = metrics
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"machine": report["machine"],
                      "fingerprint": report["fingerprint"],
                      "errors": ops.errors}))
    if metrics is None:
        fail("no repetition of %s completed: %s"
             % (args.workload, "; ".join(ops.errors)), code=1)
    print(json.dumps({
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))


if __name__ == "__main__":
    main()
