"""Command-line front end: fit models, impute, run benchmarks, cross-validate.

Exit codes: 0 on success, 1 on runtime failure (bad files, incompatible
model/estimator, fit errors), 2 on usage errors (argparse and value
validation). Every command taking --seed is deterministic for a fixed seed.
"""

import argparse
import csv
import sys

import numpy as np

from .data import ObservedMatrix, load_csv, split_folds
from .fit import fit_xpca
from .gaussian import fit_coca, fit_pca, fit_ranks
from .impute import entry_distribution, impute
from .model_io import load_model, save_model
from .simulate import named_spec, run_scenario


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _unit_fraction(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must lie strictly between 0 and 1")
    return value


def _int_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError("expected positive integers")
    return values


def _rank_list(text):
    # either "1,3,5" or an inclusive span "1..10"
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise argparse.ArgumentTypeError("expected LO..HI with integers")
        if lo < 1 or hi < lo:
            raise argparse.ArgumentTypeError("expected 1 <= LO <= HI")
        return list(range(lo, hi + 1))
    return _int_list(text)


def _method_list(text):
    methods = [tok.strip() for tok in text.split(",") if tok.strip()]
    for method in methods:
        if method not in ("pca", "coca", "xpca"):
            raise argparse.ArgumentTypeError("unknown method %r" % method)
    if not methods:
        raise argparse.ArgumentTypeError("need at least one method")
    return methods


def _cell(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected ROW,COL")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected integer ROW,COL")
    if i < 0 or j < 0:
        raise argparse.ArgumentTypeError("cell indices are 0-based and nonnegative")
    return i, j


def _write_rows(path, header, lines):
    """Write header through csv.writer, then lines, each already a data
    line as csv.writer would write it. Fields that are ints or float reprs
    never need quoting."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(lines)


def _write_matrix(path, values, column_names):
    values = np.asarray(values, dtype=float)
    if column_names is None:
        column_names = ["c%d" % j for j in range(values.shape[1])]
    _write_rows(path, column_names, (",".join(map(repr, row)) + "\r\n"
                                     for row in values.tolist()))


def cmd_fit(args):
    data = load_csv(args.input, na_token=args.na)
    if args.method == "pca":
        model = fit_pca(data, args.rank)
    elif args.method == "coca":
        model = fit_coca(data, args.rank, ties=args.ties or "midpoint")
    else:
        opts = {}
        if args.optimizer:
            opts["optimizer"] = args.optimizer
        if args.max_iterations is not None:
            opts["max_iterations"] = args.max_iterations
        if args.seed is not None:
            opts["seed"] = args.seed
        model = fit_xpca(data, rank=args.rank, **opts)
    save_model(model, args.output)

    info = model.info
    print("fitted %s: %dx%d rank %d" % (model.method, data.m, data.n, args.rank))
    if model.method == "xpca":
        print("nll=%r sigma=%r" % (info.get("nll"), model.sigma))
        print("optimizer=%s sweeps=%d evals=%d converged=%s"
              % (info.get("optimizer"), info.get("sweeps", 0),
                 info.get("evals", 0), info.get("converged")))
    else:
        print("sse=%r sigma=%r" % (info.get("sse"), model.sigma))
        print("sweeps=%d converged=%s"
              % (info.get("sweeps", 0), info.get("converged")))
    print("model written to %s" % args.output)
    note = _unconverged_note("%s rank %d" % (model.method, args.rank), model)
    if note:
        print(note, file=sys.stderr)
    return 0


def _unconverged_note(fit_name, model):
    """The stderr line for a fit that did not converge, else None: sweeps,
    plus evaluations for XPCA."""
    info = model.info
    if info["converged"]:
        return None
    spent = "%d sweeps" % info["sweeps"]
    if model.method == "xpca":
        spent += ", %d evals" % info["evals"]
    return "warning: %s did not converge (%s)" % (fit_name, spent)


def cmd_impute(args):
    model = load_model(args.model)
    m, n = model.U.shape[0], model.V.shape[0]
    if args.estimator is not None and model.method != "xpca":
        raise ValueError("--estimator applies only to xpca models; "
                         "this model was fitted by %s" % model.method)

    data = None
    if args.input:
        data = load_csv(args.input, na_token=args.na)
        if (data.m, data.n) != (m, n):
            raise ValueError("input shape %dx%d does not match the model's %dx%d"
                             % (data.m, data.n, m, n))

    # cells to report individually: explicit list, else the input's missing
    # entries, else none (whole-matrix output). An explicit list is also
    # the only part of the matrix that gets imputed.
    targets = None
    scope = None
    if args.cells:
        for i, j in args.cells:
            if i >= m or j >= n:
                raise ValueError("cell (%d, %d) is outside the %dx%d model"
                                 % (i, j, m, n))
        targets = list(args.cells)
        scope = np.zeros((m, n), dtype=bool)
        scope[tuple(np.array(targets).T)] = True
    elif data is not None:
        ii, jj = np.nonzero(~data.mask)
        targets = list(zip(ii.tolist(), jj.tolist()))

    estimates = impute(model, estimator=args.estimator or "mean-interp",
                       scope=scope)

    if args.cells:
        lines = ["%d,%d,%r\r\n" % (i, j, float(estimates[i, j]))
                 for i, j in targets]
        _write_rows(args.output, ["row", "col", "estimate"], lines)
    elif data is not None:
        completed = np.where(data.mask, data.values, estimates)
        _write_matrix(args.output, completed, model.column_names)
    else:
        _write_matrix(args.output, estimates, model.column_names)
    print("estimates written to %s" % args.output)

    if args.distributions:
        if model.method != "xpca":
            raise ValueError("--distributions requires an xpca model")
        cells = targets
        if cells is None:
            cells = [(i, j) for i in range(m) for j in range(n)]
        lines = []
        for i, j in cells:
            dist = entry_distribution(model, i, j)
            record = ("%d,%d," % (i, j) + "%r,%r\r\n").__mod__
            lines.append("".join(map(record, zip(dist.support.tolist(),
                                                 dist.probs.tolist()))))
        _write_rows(args.distributions, ["row", "col", "value", "prob"],
                    lines)
        print("distributions written to %s" % args.distributions)
    return 0


def cmd_simulate(args):
    result = run_scenario(
        sizes=args.sizes,
        spec=named_spec(args.spec),
        holdout_frac=args.holdout,
        reps=args.reps,
        rank=args.rank,
        methods=tuple(args.methods),
        sigma2=args.sigma2,
        seed=args.seed,
    )
    result.to_csv(args.output)
    print("wrote %d rows to %s" % (len(result.rows), args.output))
    for failure in result.failures:
        print("fit failure: size=%d rep=%d method=%s: %s" % failure,
              file=sys.stderr)
    return 0


def _cv_mse(data, folds, method, ranks):
    """Pooled standardized holdout MSE over all folds for one method at
    each rank, and per rank the stderr lines of its folds' fits that did
    not converge, in fold order.

    The loop runs over folds: each fold's training matrix and column
    scales, and for pca and coca its transform and SVD (fit_ranks), are
    built once and shared by every rank, then dropped.
    """
    sq_sums = [0.0] * len(ranks)
    notes = [[] for _ in ranks]
    count = 0
    for k in range(folds.n_folds):
        hold = folds.holdout_mask(k)
        train = ObservedMatrix(data.values, data.mask & ~hold,
                               column_names=data.column_names)
        scales = np.array([np.std(train.column_observed(j))
                           for j in range(train.n)])
        if method == "xpca":
            models = (fit_xpca(train, rank=rank) for rank in ranks)
        else:
            models = fit_ranks(method, train, ranks)
        for r, model in enumerate(models):
            note = _unconverged_note("%s rank %d fold %d of %d"
                                     % (method, ranks[r], k + 1,
                                        folds.n_folds), model)
            if note:
                notes[r].append(note)
            resid = (impute(model) - data.values) / scales
            sq_sums[r] += float(np.sum(resid[hold] ** 2))
        count += int(hold.sum())
    return [sq_sum / count for sq_sum in sq_sums], notes


def cmd_cv(args):
    data = load_csv(args.input, na_token=args.na)
    for rank in args.ranks:
        if rank > min(data.m, data.n):
            raise ValueError("rank %d exceeds min(m, n) = %d"
                             % (rank, min(data.m, data.n)))
    folds = split_folds(data, args.folds, seed=args.seed)
    lines = []
    for method in args.methods:
        mses, notes = _cv_mse(data, folds, method, args.ranks)
        for rank, mse, rank_notes in zip(args.ranks, mses, notes):
            for note in rank_notes:
                print(note, file=sys.stderr)
            lines.append("%s,%d,%r\r\n" % (method, rank, mse))
            print("%s rank %d: cv mse %.6g" % (method, rank, mse))
    _write_rows(args.output, ["method", "rank", "mse"], lines)
    print("wrote %d rows to %s" % (len(lines), args.output))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcfactor",
        description="Low-rank Gaussian-copula factorization of mixed data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV matrix")
    p_fit.add_argument("--method", required=True, choices=("pca", "coca", "xpca"))
    p_fit.add_argument("--rank", required=True, type=_positive_int)
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--output", required=True)
    p_fit.add_argument("--na", default="NA", help="missing-value token")
    p_fit.add_argument("--ties", choices=("midpoint", "max"),
                       help="tie convention for coca")
    p_fit.add_argument("--optimizer", choices=("lbfgs", "bcd"),
                       help="xpca optimization strategy")
    p_fit.add_argument("--max-iterations", type=_positive_int,
                       help="xpca iteration budget")
    p_fit.add_argument("--seed", type=int, help="xpca fit seed")
    p_fit.set_defaults(func=cmd_fit)

    p_imp = sub.add_parser("impute", help="impute from a saved model")
    p_imp.add_argument("--model", required=True)
    p_imp.add_argument("--output", required=True)
    p_imp.add_argument("--input", help="original CSV; fills only its missing "
                       "entries, keeping observed values")
    p_imp.add_argument("--cells", action="append", type=_cell, metavar="ROW,COL",
                       help="explicit 0-based cell, repeatable")
    p_imp.add_argument("--estimator", choices=("median", "mean", "mean-interp"),
                       help="xpca estimator (default mean-interp)")
    p_imp.add_argument("--distributions", metavar="PATH",
                       help="also write per-cell value/probability records")
    p_imp.add_argument("--na", default="NA")
    p_imp.set_defaults(func=cmd_impute)

    p_sim = sub.add_parser("simulate", help="run the synthetic benchmark")
    p_sim.add_argument("--spec", required=True,
                       choices=("gaussian", "exponential", "mixed"))
    p_sim.add_argument("--sizes", required=True, type=_int_list)
    p_sim.add_argument("--reps", type=_positive_int, default=8)
    p_sim.add_argument("--rank", type=_positive_int, default=3)
    p_sim.add_argument("--methods", type=_method_list,
                       default=["pca", "coca", "xpca"])
    p_sim.add_argument("--holdout", type=_unit_fraction, default=0.5)
    p_sim.add_argument("--sigma2", type=_unit_fraction, default=0.25)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_cv = sub.add_parser("cv", help="cross-validate methods and ranks on a CSV")
    p_cv.add_argument("--input", required=True)
    p_cv.add_argument("--folds", type=_positive_int, default=20)
    p_cv.add_argument("--ranks", required=True, type=_rank_list,
                      metavar="LO..HI|R1,R2,...")
    p_cv.add_argument("--methods", type=_method_list,
                      default=["pca", "coca", "xpca"])
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--na", default="NA")
    p_cv.add_argument("--output", required=True)
    p_cv.set_defaults(func=cmd_cv)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "fit" and args.method != "coca" and args.ties:
        parser.error("--ties applies only to --method coca")
    if getattr(args, "command", None) == "fit" and args.method != "xpca":
        for flag in ("optimizer", "max_iterations", "seed"):
            if getattr(args, flag) is not None:
                parser.error("--%s applies only to --method xpca"
                             % flag.replace("_", "-"))
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
