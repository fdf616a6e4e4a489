"""Shared test helpers: planted low-rank data with per-column marginals,
the random evaluation points of the derivative checks, and one-entry
bounds."""

import numpy as np

from gcfactor.data import ObservedMatrix
from gcfactor.marginals import fit_edf
from gcfactor.objective import BoundsMatrix, build_bounds


def planted(m, n, k, sigma, seed, missing=0.0, kinds="mixed"):
    """Data generated from a low-rank Gaussian with per-column
    discretization; retries seeds until every column keeps two values.

    The mixed recipe interleaves continuous and 4-level ordinal columns.
    Binary columns are left out on purpose: with only half-line intervals a
    separable column drives its factor row to infinity (bounded NLL, no
    stationary point), which is real model behavior but useless for testing
    convergence. kinds="trinary" adds binary columns into the rotation for
    tests that exercise imputation rather than convergence.
    """
    recipes = {
        "mixed": ("cont", "ordinal"),
        "trinary": ("cont", "binary", "ordinal"),
        "cont": ("cont",),
        "binary": ("binary",),
        "ordinal": ("ordinal",),
    }
    cycle = recipes[kinds]
    for attempt in range(50):
        rng = np.random.default_rng(seed + 1000 * attempt)
        U = rng.normal(size=(m, k)) * np.sqrt((1.0 - sigma ** 2) / k)
        V = rng.normal(size=(n, k))
        Z = U @ V.T + sigma * rng.normal(size=(m, n))
        X = np.empty_like(Z)
        for j in range(n):
            kind = cycle[j % len(cycle)]
            if kind == "cont":
                X[:, j] = Z[:, j]
            elif kind == "binary":
                X[:, j] = (Z[:, j] > 0.0).astype(float)
            else:
                X[:, j] = np.digitize(Z[:, j], [-0.75, 0.0, 0.75]).astype(float)
        if missing > 0.0:
            drop = rng.random(X.shape) < missing
            X = np.where(drop, np.nan, X)
        try:
            return ObservedMatrix(X), (U, V, sigma, Z)
        except ValueError:
            continue
    raise RuntimeError("could not draw a valid planted matrix")


def binary_continuous_instance(seed, m=20, n=15, rank=3, missing=0.3):
    """Random evaluation point on data alternating binary and continuous
    columns; redraws when masking degenerates a column."""
    rng = np.random.default_rng(seed)
    while True:
        z = rng.normal(size=(m, rank)) @ rng.normal(size=(n, rank)).T / np.sqrt(rank)
        z += 0.5 * rng.normal(size=(m, n))
        x = z.copy()
        for j in range(0, n, 2):
            x[:, j] = (z[:, j] > 0).astype(float)
        x = np.where(rng.random(size=(m, n)) < missing, np.nan, x)
        try:
            data = ObservedMatrix(x)
            break
        except ValueError:
            continue
    edfs = [fit_edf(data.column_observed(j)) for j in range(n)]
    bounds = build_bounds(data, edfs)
    U = rng.normal(scale=0.7, size=(m, rank))
    V = rng.normal(scale=0.7, size=(n, rank))
    sigma = float(rng.uniform(0.4, 1.2))
    return bounds, U, V, sigma


def single_bounds(lo, hi):
    """One observed entry censored to (lo, hi]."""
    return BoundsMatrix(np.array([[lo]]), np.array([[hi]]), np.ones((1, 1), bool))
