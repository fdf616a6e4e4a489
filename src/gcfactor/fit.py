"""Interval-likelihood fitting: a trust-region Newton path, a quasi-Newton
path and coordinate descent with damped Newton blocks over the factors, and
the driver that warms them from the rank-transform fit.

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

Three optimizers refine the warm start:

- "newton" (the default): trust-region Newton over (U, V, log sigma) on the
  smooth factor-ridge form of the objective, NLL + (ridge / 2)(||U||² +
  ||V||²), which has the same minimizers and optimal value, with exact
  Hessian-vector products (objective.factor_hessian);
- "lbfgs": limited-memory quasi-Newton on the nuclear-norm form;
- "bcd": coordinate descent, damped Newton per factor row, then sigma.

When "newton" or "lbfgs" ends short of the gradient test (budget spent,
trust region collapsed, line search failed, relative-reduction stop),
coordinate descent finishes the fit and info["optimizer"] reads
"newton+bcd" or "lbfgs+bcd". info["stop_reason"] says how the last stage
ended: "gradient tolerance", "budget", "plateau", "line search failed" or
"trust region collapsed".
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .gaussian import (
    FactorModel,
    _lower_pairs,
    _solve_packed,
    coca_transform,
    fit_gaussian,
    orthogonalize,
    thin_svd,
)
from .objective import (
    batched_row_hessians,
    build_bounds,
    compute_workspace,
    factor_hessian,
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

    optimizer picks the path: "newton" (trust-region Newton, the default),
    "lbfgs" (quasi-Newton) or "bcd" (coordinate descent alone); the first
    two fall back to coordinate descent, for up to 500 sweeps, when they
    stop short of the gradient test. max_iterations bounds the trust-region
    iterations (one kernel call each), the quasi-Newton objective
    evaluations or the BCD sweeps, whichever path runs first; None picks
    2000 iterations or evaluations, or 500 sweeps. tol_rel_nll is the
    relative-reduction stop of L-BFGS and BCD, lbfgs_memory the L-BFGS
    history length. ridge weighs the nuclear-norm penalty; 0 fits the
    exact likelihood. Every path starts from the deterministic
    rank-transform fit, so equal options on equal data give equal fits.
    """

    rank: int = 1
    optimizer: str = "newton"
    max_iterations: int = None
    tol_rel_nll: float = 1e-8
    sigma_floor: float = 1e-4
    lbfgs_memory: int = 10
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self):
        if int(self.rank) != self.rank or self.rank < 1:
            raise ValueError("rank must be a positive integer")
        self.rank = int(self.rank)
        if self.optimizer not in ("newton", "lbfgs", "bcd"):
            raise ValueError("optimizer must be 'newton', 'lbfgs' or 'bcd'")
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
    penalty part, both at the current factors once evaluated. evals counts
    derivative kernel calls of the Newton and quasi-Newton paths, hessp
    the Hessian-vector products, and stop_reason says how the last path
    ended.
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
        self.hessp = 0
        self.stop_reason = None
        self.converged = False
        self.plateau = False
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


def _gradient_test(U, V, ridge, gU, gV, gs):
    """Max-norm of the full objective gradient in (U, V, log sigma)
    coordinates, from the likelihood's gradients gU, gV and gs = d NLL /
    d log sigma, and the nuclear penalty at U, V."""
    penalty = 0.0
    if ridge:
        penalty, pU, pV = nuclear_penalty(U, V, ridge)
        gU, gV = gU + pU, gV + pV
    return max(float(np.max(np.abs(gU))), float(np.max(np.abs(gV))),
               abs(gs)), penalty


def gradient_maxnorm(state):
    """Max-norm of the full objective gradient in (U, V, log sigma)
    coordinates."""
    ws = compute_workspace(state.observed_theta(), state.sigma, state.bounds)
    gU, gV = grad_factors(state.U, state.V, state.sigma, state.bounds,
                          workspace=ws)
    gs = grad_sigma(None, state.sigma, state.bounds, workspace=ws)
    return _gradient_test(state.U, state.V, state.ridge, gU, gV,
                          gs * state.sigma)[0]


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
    pair_row, pair_col = _lower_pairs(k)
    packed = H[:, pair_row, pair_col].T

    for _ in range(_LAMBDA_ATTEMPTS):
        if not pending.any():
            break
        idx = np.flatnonzero(pending)
        try:
            step = _solve_packed(packed[:, idx], G[idx].T, lam[idx])
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
    state.stop_reason = "budget"
    for _ in range(budget):
        prev = state.nll
        bcd_sweep(state, opts)
        if _gradient_converged(state):
            state.converged = True
            break
        rel = (prev - state.nll) / max(abs(prev), abs(state.nll), 1.0)
        if state.plateau or rel < opts.tol_rel_nll:
            state.stop_reason = "plateau"
            break
    if not state.converged:
        state.converged = _gradient_converged(state)
    if state.converged:
        state.stop_reason = "gradient tolerance"
    return state


def lbfgs_fit(state, opts):
    """Limited-memory quasi-Newton pass over (U, V, log sigma).

    Underflowing trial points are fed back as a huge finite loss with a zero
    gradient so the line search retreats. If the line search fails outright
    the best evaluated point is restored and stop_reason reads "line search
    failed"; the caller is expected to fall back to coordinate descent.
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
    state.converged = _gradient_converged(state)
    if res.status == 2:
        state.notes.append("line search failed: %s" % str(res.message))
        state.stop_reason = "line search failed"
    elif state.converged:
        state.stop_reason = "gradient tolerance"
    else:
        state.stop_reason = "budget" if res.status == 1 else "plateau"
    return state


def newton_fit(state, opts):
    """Trust-region Newton pass over (U, V, log sigma).

    Minimizes NLL(U Vᵀ, sigma) + (ridge / 2)(||U||² + ||V||²), starting
    from the balanced split of the current factors, where it equals the
    nuclear-norm objective, with the exact gradient and Hessian-vector
    products (objective.factor_hessian) in scipy's truncated-CG trust
    region (trust-ncg). The objective is scaled by 1 / (1 + |f0|), f0 its
    starting value, so that the CG forcing term, which scipy takes from the
    gradient norm, is relative to the objective's size. A trial point
    whose likelihood underflows, or whose sigma lies below the floor, has
    an infinite objective: the step is rejected and the region shrinks.
    Every accepted point is put to _gradient_converged's test, from its own
    workspace, and the pass stops when the test holds, after
    iteration_budget() iterations (one kernel call each), or when the
    trust region collapses (no predicted decrease left).
    """
    _rebalance(state)
    m, k = state.U.shape
    n = state.V.shape[0]
    bounds, ridge = state.bounds, state.ridge
    floor_log = math.log(opts.sigma_floor)

    def split(x):
        return x[:m * k].reshape(m, k), x[m * k:-1].reshape(n, k), x[-1]

    last = here = None

    def evaluate(x):
        # objective, gradient and workspace at x; scipy asks for the
        # objective and the gradient at a point in turn, so the last point
        # is kept
        nonlocal last
        if last is not None and np.array_equal(x, last["x"]):
            return last
        U, V, s = split(x)
        last = {"x": x.copy(), "f": math.inf, "g": np.zeros_like(x),
                "ws": None}
        if s >= floor_log:
            ws = compute_workspace(bounds.observed_theta(U, V), math.exp(s),
                                   bounds, on_underflow="inf")
            state.evals += 1
            if np.isfinite(ws.nll()):
                gU, gV = grad_factors(U, V, ws.sigma, bounds, workspace=ws)
                gs = float(np.sum(ws.T2))
                last.update(
                    f=ws.nll() + 0.5 * ridge * (np.sum(U * U)
                                                + np.sum(V * V)),
                    g=np.concatenate([(gU + ridge * U).ravel(),
                                      (gV + ridge * V).ravel(), [gs]]),
                    ws=ws, grads=(gU, gV, gs))
        return last

    def accept(x):
        # move to x, an evaluated point, and put it to _gradient_converged's
        # test from its workspace; returns the nuclear-norm objective there
        nonlocal here
        here = evaluate(x)
        U, V, _ = split(x)
        norm, penalty = _gradient_test(U, V, ridge, *here["grads"])
        nll = here["ws"].nll()
        state.converged = norm < GRAD_TOL * (1.0 + abs(nll))
        return nll + penalty

    # a sigma at the floor can round to just below it in log space
    x0 = np.concatenate([state.U.ravel(), state.V.ravel(),
                         [max(math.log(state.sigma), floor_log)]])
    start = evaluate(x0)
    if start["ws"] is None:
        raise ValueError("the likelihood underflows at the starting point")
    scale = 1.0 / (1.0 + abs(start["f"]))
    accept(x0)

    def fun(x):
        rec = evaluate(x)
        return rec["f"] * scale, rec["g"] * scale

    def hessp(x, p):
        # scipy builds each step at its current point, x0 or the point the
        # callback below accepted after the last step
        if "product" not in here:
            U, V, _ = split(here["x"])
            here["product"] = factor_hessian(U, V, here["ws"], ridge)
        state.hessp += 1
        hU, hV, hs = here["product"](*split(p))
        return np.concatenate([hU.ravel(), hV.ravel(), [hs]]) * scale

    def callback(intermediate_result):
        # runs after every iteration; a new x means the step was taken
        if not np.array_equal(intermediate_result.x, here["x"]):
            state.trace.append(accept(intermediate_result.x))
            if state.converged:
                raise StopIteration

    status = 0
    if not state.converged:
        status = scipy.optimize.minimize(
            fun, x0, jac=True, hessp=hessp, method="trust-ncg",
            callback=callback,
            options=dict(maxiter=opts.iteration_budget(), gtol=0.0)).status
    U, V, s = split(here["x"])
    state.U, state.V, state.sigma = U.copy(), V.copy(), math.exp(s)
    state.penalty = nuclear_penalty(state.U, state.V, ridge)[0]
    state.nll = here["ws"].nll() + state.penalty
    if state.converged:
        state.stop_reason = "gradient tolerance"
    elif status == 1:
        state.stop_reason = "budget"
    else:
        state.stop_reason = "trust region collapsed"
    return state


def _warm_start(data, opts):
    z, edfs = coca_transform(data)
    bounds = build_bounds(data, edfs)
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
    return state, edfs


def fit_xpca(data, options=None, **kw):
    """Fit the interval-censored low-rank model to an ObservedMatrix.

    Accepts a FitOptions or keyword arguments for one. The rank-transform
    fit seeds the factors; the chosen optimizer refines them, with
    coordinate descent finishing the job whenever the Newton or
    quasi-Newton pass stops short of the gradient tolerance. Factors
    are orthogonalized at the end, which leaves theta and the objective
    unchanged. info["nll"] is the likelihood term and info["penalty"] the
    penalty at the fit; info["trace"] follows their sum.
    """
    opts = options if options is not None else FitOptions(**kw)
    if options is not None and kw:
        raise ValueError("pass FitOptions or keywords, not both")
    if opts.rank > min(data.m, data.n):
        raise ValueError("rank must not exceed min(m, n)")

    state, edfs = _warm_start(data, opts)
    state.trace.append(state.nll)

    path = [opts.optimizer]
    if opts.optimizer == "bcd":
        _run_bcd(state, opts, opts.iteration_budget())
    else:
        (newton_fit if opts.optimizer == "newton" else lbfgs_fit)(state, opts)
        if state.stop_reason != "gradient tolerance":
            path.append("bcd")
            state.converged = False
            state.plateau = False
            _run_bcd(state, opts, 500)

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
        "hessp": state.hessp,
        "converged": bool(state.converged),
        "stop_reason": state.stop_reason,
        "grad_maxnorm": gradient_maxnorm(state),
        "skipped_blocks": state.skipped_blocks,
        "trace": [float(t) for t in state.trace],
        "ridge": opts.ridge,
        "penalty": state.penalty,
    }
    if state.notes:
        info["notes"] = list(state.notes)
    return FactorModel("xpca", U, V, state.sigma, edfs,
                       column_names=data.column_names, info=info)
