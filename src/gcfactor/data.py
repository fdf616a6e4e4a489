"""Observed-data container, CSV I/O, scoring, and fold assignment."""

import csv
import io

import numpy as np


class ObservedMatrix:
    """Numeric matrix with an observation mask.

    values holds NaN at unobserved positions; mask is True where observed.
    Each column must carry at least two distinct observed values, the minimum
    for any marginal fit downstream.
    """

    def __init__(self, values, mask=None, column_names=None):
        values = np.array(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be 2-d")
        if mask is None:
            mask = ~np.isnan(values)
        mask = np.array(mask, dtype=bool)
        if mask.shape != values.shape:
            raise ValueError("mask shape must match values")
        values = np.where(mask, values, np.nan)
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("observed entries must be finite")
        for j in range(values.shape[1]):
            col = values[mask[:, j], j]
            if col.size == 0:
                raise ValueError("column %d has no observed entries" % j)
            if np.unique(col).size < 2:
                raise ValueError("column %d has fewer than two distinct values" % j)
        if column_names is None:
            column_names = ["col%d" % j for j in range(values.shape[1])]
        column_names = [str(c) for c in column_names]
        if len(column_names) != values.shape[1]:
            raise ValueError("need one name per column")
        self.values = values
        self.mask = mask
        self.column_names = column_names

    @property
    def m(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[1]

    @property
    def n_observed(self):
        return int(self.mask.sum())

    def column_observed(self, j):
        """Observed entries of column j, in row order."""
        return self.values[self.mask[:, j], j]

    def __repr__(self):
        return "ObservedMatrix(%dx%d, %d observed)" % (self.m, self.n, self.n_observed)


class FoldAssignment:
    """Entry-wise fold ids: fold[i, j] in [0, n_folds) where observed, -1 elsewhere."""

    def __init__(self, fold, n_folds, seed):
        self.fold = np.asarray(fold, dtype=np.int64)
        self.n_folds = int(n_folds)
        self.seed = seed

    def holdout_mask(self, k):
        return self.fold == k


def load_csv(path, na_token="NA"):
    """Read a matrix with a header row; na_token or an empty field is missing.

    Rejects ragged rows, non-numeric fields, and columns that are entirely
    missing or constant.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: %s" % path)
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    "line %d has %d fields, expected %d" % (lineno, len(row), len(header))
                )
            parsed = []
            for name, tok in zip(header, row):
                tok = tok.strip()
                if tok == na_token or tok == "":
                    parsed.append(np.nan)
                    continue
                try:
                    parsed.append(float(tok))
                except ValueError:
                    raise ValueError(
                        "line %d, column %s: cannot parse %r" % (lineno, name, tok)
                    )
            rows.append(parsed)
    if not rows:
        raise ValueError("no data rows in %s" % path)
    return ObservedMatrix(np.array(rows, dtype=float), column_names=header)


def _csv_field(token):
    """token as csv.writer writes it between other fields of a record."""
    buf = io.StringIO()
    csv.writer(buf).writerow([token, ""])
    return buf.getvalue()[:-len(",\r\n")]


def write_csv(matrix, path, na_token="NA"):
    """Write with full-precision floats so a reload is bit-identical.

    The bytes are csv.writer's, but each row is one join of float reprs.
    Observed entries are finite, so "nan" appears in a row only as a whole
    missing field, which the NA token replaces.
    """
    na = _csv_field(na_token)
    values = np.where(matrix.mask, matrix.values, np.nan)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(matrix.column_names)
        for row in values.tolist():
            line = ",".join(map(repr, row)).replace("nan", na)
            if row and not line:
                line = '""'  # csv.writer quotes a record that would be blank
            fh.write(line + "\r\n")


def standardized_mse(estimate, reference, scope, column_scales):
    """Mean squared error over scope, residuals divided by per-column scales.

    scope is a boolean matrix selecting the entries to score; column_scales
    must be strictly positive (typically the fitting data's standard
    deviations).
    """
    estimate = np.asarray(estimate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scope = np.asarray(scope, dtype=bool)
    scales = np.asarray(column_scales, dtype=float)
    if estimate.shape != reference.shape or estimate.shape != scope.shape:
        raise ValueError("estimate, reference and scope shapes must match")
    if scales.shape != (estimate.shape[1],) or np.any(scales <= 0):
        raise ValueError("column_scales must be positive, one per column")
    if not scope.any():
        raise ValueError("scope selects no entries")
    resid = (estimate - reference) / scales
    return float(np.mean(resid[scope] ** 2))


def split_folds(matrix, n_folds, seed):
    """Assign observed entries to n_folds groups uniformly at random.

    Group sizes differ by at most one. The same seed reproduces the same
    assignment.
    """
    if n_folds < 2:
        raise ValueError("need at least two folds")
    if n_folds > matrix.n_observed:
        raise ValueError("more folds than observed entries")
    rng = np.random.default_rng(seed)
    obs_flat = np.flatnonzero(matrix.mask.ravel())
    order = rng.permutation(obs_flat.size)
    fold = np.full(matrix.m * matrix.n, -1, dtype=np.int64)
    fold[obs_flat[order]] = np.arange(obs_flat.size) % n_folds
    return FoldAssignment(fold.reshape(matrix.m, matrix.n), n_folds, seed)


def mask_random(matrix, fraction, seed):
    """Hold out a fraction of the observed entries completely at random.

    Returns (train, holdout_mask). Raises if the training part of any column
    degenerates (fewer than two distinct values).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    obs_flat = np.flatnonzero(matrix.mask.ravel())
    n_hold = int(round(fraction * obs_flat.size))
    chosen = rng.choice(obs_flat.size, size=n_hold, replace=False)
    holdout = np.zeros(matrix.m * matrix.n, dtype=bool)
    holdout[obs_flat[chosen]] = True
    holdout = holdout.reshape(matrix.m, matrix.n)
    train = ObservedMatrix(
        matrix.values, matrix.mask & ~holdout, column_names=matrix.column_names
    )
    return train, holdout
