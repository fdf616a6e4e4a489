"""Interval-likelihood fitting: coordinate descent with damped Newton blocks,
a quasi-Newton path over the flattened parameters, and the driver that warms
both from the rank-transform fit.

The objective is the censored negative log-likelihood from objective.py plus
the nuclear-norm penalty ridge * ||U Vᵀ||_*, minimized over (U, V, sigma)
with sigma kept at or above a small floor. The penalty is the minimum of
(ridge / 2)(||U||² + ||V||²) over all factorizations of the same theta, so
the fit is the MAP estimate under i.i.d. N(0, 1/ridge) factor priors; the
unit default matches the copula's unit-variance latent columns. It keeps
the fit finite where the likelihood alone has no maximizer (a binary column
whose labels are separable by the scores); ridge=0 fits the exact
likelihood. Convergence is declared on the max-norm of the full objective
gradient, measured in (U, V, log sigma) coordinates, falling below
GRAD_TOL * (1 + |NLL|) with NLL the likelihood term alone.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .gaussian import (
    FactorModel,
    coca_transform,
    fit_gaussian,
    orthogonalize,
    thin_svd,
)
from .marginals import global_epsilon
from .objective import (
    batched_row_hessians,
    build_bounds,
    compute_workspace,
    grad_factors,
    grad_sigma,
    hess_sigma,
)

GRAD_TOL = 1e-5
DEFAULT_RIDGE = 1.0

# damped-Newton block schedule: the ridge is retried doubled when a whole
# backtracking run fails, with the halvings budget split across retries
_LAMBDA_ATTEMPTS = 3
_HALVINGS_PER_ATTEMPT = 10


@dataclass
class FitOptions:
    """Knobs for the interval-likelihood fit.

    max_iterations bounds BCD sweeps or quasi-Newton objective evaluations,
    whichever optimizer runs; None picks 500 sweeps / 2000 evaluations.
    ridge weighs the nuclear-norm penalty; 0 fits the exact likelihood.
    """

    rank: int = 1
    optimizer: str = "lbfgs"
    max_iterations: int = None
    tol_rel_nll: float = 1e-8
    sigma_floor: float = 1e-4
    seed: int = 0
    lbfgs_memory: int = 10
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self):
        if int(self.rank) != self.rank or self.rank < 1:
            raise ValueError("rank must be a positive integer")
        self.rank = int(self.rank)
        if self.optimizer not in ("lbfgs", "bcd"):
            raise ValueError("optimizer must be 'lbfgs' or 'bcd'")
        if not self.tol_rel_nll > 0:
            raise ValueError("tol_rel_nll must be positive")
        if not 0 < self.sigma_floor < 1:
            raise ValueError("sigma_floor must lie in (0, 1)")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.lbfgs_memory < 1:
            raise ValueError("lbfgs_memory must be positive")
        if not 0 <= self.ridge < math.inf:
            raise ValueError("ridge must be finite and nonnegative")
        self.ridge = float(self.ridge)

    def iteration_budget(self):
        if self.max_iterations is not None:
            return int(self.max_iterations)
        return 500 if self.optimizer == "bcd" else 2000


def nuclear_penalty(U, V, ridge):
    """ridge * ||U Vᵀ||_* and its gradients in U and V.

    With U Vᵀ = P diag(s) Qᵀ the gradients are ridge P Qᵀ V and ridge Q Pᵀ U;
    both depend on theta only, not on how it is split into U and V.
    """
    if not ridge:
        return 0.0, np.zeros_like(U), np.zeros_like(V)
    P, s, Q = thin_svd(U, V)
    return (ridge * float(np.sum(s)), ridge * (P @ (Q.T @ V)),
            ridge * (Q @ (P.T @ U)))


class FitState:
    """Mutable optimizer state: current factors, scale, and bookkeeping.

    nll holds the minimized objective, the negative log-likelihood plus
    penalty (the bare likelihood term at ridge 0); penalty holds the
    penalty part, both at the current factors once evaluated.
    """

    def __init__(self, U, V, sigma, bounds, ridge=DEFAULT_RIDGE):
        self.U = np.array(U, dtype=float)
        self.V = np.array(V, dtype=float)
        self.sigma = float(sigma)
        self.bounds = bounds
        self.ridge = float(ridge)
        self.nll = None
        self.penalty = 0.0
        self.trace = []
        self.sweeps = 0
        self.evals = 0
        self.converged = False
        self.plateau = False
        self.lbfgs_failed = False
        self.skipped_blocks = 0
        self.notes = []

    def theta(self):
        return self.U @ self.V.T

    def observed_theta(self):
        return self.bounds.observed_theta(self.U, self.V)

    def refresh_nll(self):
        ws = compute_workspace(self.observed_theta(), self.sigma, self.bounds,
                               derivs=False)
        self.penalty = nuclear_penalty(self.U, self.V, self.ridge)[0]
        self.nll = ws.nll() + self.penalty
        return self.nll


def gradient_maxnorm(state):
    """Max-norm of the full objective gradient in (U, V, log sigma)
    coordinates."""
    ws = compute_workspace(state.observed_theta(), state.sigma, state.bounds)
    gU, gV = grad_factors(state.U, state.V, state.sigma, state.bounds,
                          workspace=ws)
    if state.ridge:
        _, pU, pV = nuclear_penalty(state.U, state.V, state.ridge)
        gU, gV = gU + pU, gV + pV
    gs = grad_sigma(None, state.sigma, state.bounds, workspace=ws)
    return max(float(np.max(np.abs(gU))), float(np.max(np.abs(gV))),
               abs(gs * state.sigma))


def _gradient_converged(state):
    return (gradient_maxnorm(state)
            < GRAD_TOL * (1.0 + abs(state.nll - state.penalty)))


def _phase_eval(U, V, sigma, bounds, axis, half_ridge):
    ws = compute_workspace(bounds.observed_theta(U, V), sigma, bounds,
                           derivs=False, on_underflow="inf")
    F = U if axis == 0 else V
    loss = ws.row_nll() if axis == 0 else ws.col_nll()
    return loss + half_ridge * np.sum(F * F, axis=1) if half_ridge else loss


def _rebalance(state):
    # (P sqrt(s), Q sqrt(s)) is the split of theta with the least
    # (||U||² + ||V||²) / 2, which then equals ||theta||_*
    P, s, Q = thin_svd(state.U, state.V)
    root = np.sqrt(s)
    state.U, state.V = P * root, Q * root


def _factor_phase(state, axis):
    """Damped-Newton pass over the rows of U (axis 0) or of V (axis 1).

    Each row backtracks independently; rows whose every retry still raises
    the loss are left untouched and counted as skipped. With a penalty the
    factors are first balanced, so that the per-row ridge
    (ridge / 2)(||U||² + ||V||²) touches the nuclear norm from above and
    lowering it lowers the penalized objective.
    """
    if state.ridge:
        _rebalance(state)
    U, V, sigma, bounds = state.U, state.V, state.sigma, state.bounds
    F = U if axis == 0 else V
    basis = V if axis == 0 else U
    k = F.shape[1]
    half_ridge = 0.5 * state.ridge

    ws = compute_workspace(bounds.observed_theta(U, V), sigma, bounds)
    loss = ws.row_nll() if axis == 0 else ws.col_nll()
    G = grad_factors(U, V, sigma, bounds, workspace=ws)[axis]
    H = batched_row_hessians(basis, ws, axis)
    if state.ridge:
        loss = loss + half_ridge * np.sum(F * F, axis=1)
        G = G + state.ridge * F
        H[:, np.arange(k), np.arange(k)] += state.ridge

    counts = bounds.row_counts if axis == 0 else bounds.col_counts
    pending = (counts > 0) & (np.max(np.abs(G), axis=1) > 0)
    newF = F.copy()
    lam = np.full(F.shape[0], 1e-8) * np.trace(H, axis1=1, axis2=2) / k
    lam = np.maximum(lam, 1e-300)

    for _ in range(_LAMBDA_ATTEMPTS):
        if not pending.any():
            break
        idx = np.flatnonzero(pending)
        Hp = H[idx] + lam[idx, None, None] * np.eye(k)
        try:
            step = np.linalg.solve(Hp, G[idx][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            lam[idx] *= 2.0
            continue
        good = np.all(np.isfinite(step), axis=1)
        alpha = np.ones(len(idx))
        accepted = np.zeros(len(idx), dtype=bool)
        for _ in range(_HALVINGS_PER_ATTEMPT + 1):
            open_ = good & ~accepted
            if not open_.any():
                break
            trial = newF.copy()
            rows = idx[open_]
            trial[rows] = F[rows] - alpha[open_, None] * step[open_]
            if axis == 0:
                lt = _phase_eval(trial, V, sigma, bounds, axis, half_ridge)
            else:
                lt = _phase_eval(U, trial, sigma, bounds, axis, half_ridge)
            ok = open_ & (lt[idx] <= loss[idx])
            took = idx[ok]
            newF[took] = trial[took]
            accepted |= ok
            alpha[~accepted] *= 0.5
        pending[idx[accepted]] = False
        lam[idx[~accepted]] *= 2.0

    state.skipped_blocks += int(pending.sum())
    if axis == 0:
        state.U = newF
    else:
        state.V = newF


def _sigma_phase(state, opts):
    """Scale update: Newton when the curvature is positive, otherwise a
    backtracked gradient step; never drops below the floor."""
    theta = state.observed_theta()
    ws = compute_workspace(theta, state.sigma, state.bounds)
    g = grad_sigma(None, state.sigma, state.bounds, workspace=ws)
    if g == 0.0:
        return
    h = hess_sigma(None, state.sigma, state.bounds, workspace=ws)
    nll0 = ws.nll()
    if h > 0 and np.isfinite(h):
        step = -g / h
    else:
        step = -math.copysign(0.2 * state.sigma, g)
    alpha = 1.0
    for _ in range(31):
        cand = max(state.sigma + alpha * step, opts.sigma_floor)
        wsc = compute_workspace(theta, cand, state.bounds, derivs=False,
                                on_underflow="inf")
        if wsc.nll() <= nll0:
            state.sigma = cand
            return
        alpha *= 0.5
    state.skipped_blocks += 1


def bcd_sweep(state, opts):
    """One full coordinate-descent sweep: every U row, every V row, sigma.

    The objective never increases across the sweep; if summation roundoff
    ever nudges it up, the sweep is undone and the state flagged as a
    plateau so the driver stops.
    """
    if state.nll is None:
        state.refresh_nll()
    start = state.nll
    saved = (state.U.copy(), state.V.copy(), state.sigma)

    _factor_phase(state, axis=0)
    _factor_phase(state, axis=1)
    _sigma_phase(state, opts)

    penalty = nuclear_penalty(state.U, state.V, state.ridge)[0]
    end = compute_workspace(state.observed_theta(), state.sigma, state.bounds,
                            derivs=False).nll() + penalty
    if end > start:
        state.U, state.V, state.sigma = saved
        state.plateau = True
    else:
        state.nll = end
        state.penalty = penalty
        state.trace.append(end)
    state.sweeps += 1
    return state


def _run_bcd(state, opts, budget):
    for _ in range(budget):
        prev = state.nll
        bcd_sweep(state, opts)
        if _gradient_converged(state):
            state.converged = True
            break
        if state.plateau:
            break
        rel = (prev - state.nll) / max(abs(prev), abs(state.nll), 1.0)
        if rel < opts.tol_rel_nll:
            break
    if not state.converged:
        state.converged = _gradient_converged(state)
    return state


def lbfgs_fit(state, opts):
    """Limited-memory quasi-Newton pass over (U, V, log sigma).

    Underflowing trial points are fed back as a huge finite loss with a zero
    gradient so the line search retreats. If the line search fails outright
    the best evaluated point is restored and lbfgs_failed set; the caller is
    expected to fall back to coordinate descent.
    """
    m, k = state.U.shape
    n = state.V.shape[0]
    bounds = state.bounds
    floor_log = math.log(opts.sigma_floor)
    x0 = np.concatenate([state.U.ravel(), state.V.ravel(),
                         [math.log(state.sigma)]])
    box = [(None, None)] * (m * k + n * k) + [(floor_log, None)]

    ridge = state.ridge
    best = {"f": math.inf, "x": None}
    last = {"x": None, "f": None}
    counter = {"evals": 0}

    def fun(x):
        counter["evals"] += 1
        U = x[: m * k].reshape(m, k)
        V = x[m * k: m * k + n * k].reshape(n, k)
        sigma = math.exp(x[-1])
        ws = compute_workspace(bounds.observed_theta(U, V), sigma, bounds,
                               on_underflow="inf")
        f = ws.nll()
        if not np.isfinite(f):
            return 1e30, np.zeros_like(x)
        gU, gV = grad_factors(U, V, sigma, bounds, workspace=ws)
        if ridge:
            pen, pU, pV = nuclear_penalty(U, V, ridge)
            f, gU, gV = f + pen, gU + pU, gV + pV
        gs = grad_sigma(None, sigma, bounds, workspace=ws) * sigma
        if f < best["f"]:
            best["f"] = f
            best["x"] = x.copy()
        last["x"], last["f"] = x.copy(), f
        return f, np.concatenate([gU.ravel(), gV.ravel(), [gs]])

    def record(xk):
        if last["x"] is not None and np.array_equal(xk, last["x"]):
            state.trace.append(last["f"])
        else:
            U = xk[: m * k].reshape(m, k)
            V = xk[m * k: m * k + n * k].reshape(n, k)
            ws = compute_workspace(bounds.observed_theta(U, V),
                                   math.exp(xk[-1]), bounds, derivs=False,
                                   on_underflow="inf")
            state.trace.append(ws.nll() + nuclear_penalty(U, V, ridge)[0])

    res = scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B", bounds=box, callback=record,
        options=dict(maxcor=opts.lbfgs_memory, maxfun=opts.iteration_budget(),
                     maxiter=opts.iteration_budget(),
                     ftol=opts.tol_rel_nll, gtol=1e-12, maxls=40))

    x = res.x
    f = float(res.fun)
    if best["x"] is not None and best["f"] < f:
        x, f = best["x"], best["f"]
    state.U = x[: m * k].reshape(m, k)
    state.V = x[m * k: m * k + n * k].reshape(n, k)
    state.sigma = math.exp(x[-1])
    state.nll = f
    state.penalty = nuclear_penalty(state.U, state.V, ridge)[0]
    state.evals += counter["evals"]
    state.lbfgs_failed = res.status == 2
    if state.lbfgs_failed:
        state.notes.append("line search failed: %s" % str(res.message))
    state.converged = _gradient_converged(state)
    return state


def _warm_start(data, opts):
    z, edfs = coca_transform(data)
    eps = global_epsilon(edfs)
    bounds = build_bounds(data, edfs, eps)
    U, V, sigma, info = fit_gaussian(z, opts.rank)
    sigma = min(max(sigma, opts.sigma_floor), 1.0)
    state = FitState(U, V, sigma, bounds, ridge=opts.ridge)
    state.penalty = nuclear_penalty(state.U, state.V, state.ridge)[0]
    # a near-interpolating warm start can strand entries outside machine
    # range; widen sigma until every observed interval carries probability
    while True:
        ws = compute_workspace(state.observed_theta(), state.sigma, bounds,
                               derivs=False, on_underflow="inf")
        if np.isfinite(ws.nll()) or state.sigma >= 1.0:
            state.nll = float(ws.nll()) + state.penalty
            break
        state.sigma = min(2.0 * state.sigma, 1.0)
    return state, edfs, eps


def fit_xpca(data, options=None, **kw):
    """Fit the interval-censored low-rank model to an ObservedMatrix.

    Accepts a FitOptions or keyword arguments for one. The rank-transform
    fit seeds the factors; the chosen optimizer refines them, with
    coordinate descent finishing the job whenever the quasi-Newton pass
    fails its line search or stops short of the gradient tolerance. Factors
    are orthogonalized at the end, which leaves theta and the objective
    unchanged. info["nll"] is the likelihood term and info["penalty"] the
    penalty at the fit; info["trace"] follows their sum.
    """
    opts = options if options is not None else FitOptions(**kw)
    if options is not None and kw:
        raise ValueError("pass FitOptions or keywords, not both")
    if opts.rank > min(data.m, data.n):
        raise ValueError("rank must not exceed min(m, n)")

    state, edfs, eps = _warm_start(data, opts)
    state.trace.append(state.nll)

    path = [opts.optimizer]
    if opts.optimizer == "lbfgs":
        lbfgs_fit(state, opts)
        if state.lbfgs_failed or not state.converged:
            path.append("bcd")
            state.converged = False
            state.plateau = False
            _run_bcd(state, opts, 500)
    else:
        _run_bcd(state, opts, opts.iteration_budget())

    nll_before = state.nll - state.penalty
    theta_before = state.observed_theta()
    U, V = orthogonalize(state.U, state.V)
    theta_after = state.bounds.observed_theta(U, V)
    drift = float(np.max(np.abs(theta_after - theta_before)))
    if drift > 1e-6 * (1.0 + float(np.max(np.abs(theta_before)))):
        raise RuntimeError("orthogonalization moved theta by %g" % drift)
    nll_after = compute_workspace(theta_after, state.sigma, state.bounds,
                                  derivs=False).nll()
    if abs(nll_after - nll_before) > 1e-6 * (1.0 + abs(nll_before)):
        raise RuntimeError("orthogonalization changed the objective")

    info = {
        "optimizer": "+".join(path),
        "nll": nll_after,
        "sweeps": state.sweeps,
        "evals": state.evals,
        "converged": bool(state.converged),
        "grad_maxnorm": gradient_maxnorm(state),
        "skipped_blocks": state.skipped_blocks,
        "trace": [float(t) for t in state.trace],
        "seed": opts.seed,
        "ridge": opts.ridge,
        "penalty": state.penalty,
    }
    if state.notes:
        info["notes"] = list(state.notes)
    return FactorModel("xpca", U, V, state.sigma, edfs, epsilon=eps,
                       column_names=data.column_names, info=info)
