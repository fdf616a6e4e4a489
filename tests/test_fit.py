"""Optimizer tests: coordinate-descent monotonicity, quasi-Newton behavior,
warm starting, convergence flags, and agreement with the rank-transform fit
on purely continuous data."""

import numpy as np
import pytest

from _support import planted
from gcfactor.data import ObservedMatrix
from gcfactor.fit import (
    GRAD_TOL,
    FitOptions,
    FitState,
    bcd_sweep,
    fit_xpca,
    gradient_maxnorm,
    lbfgs_fit,
    newton_fit,
    nuclear_penalty,
)
from gcfactor.gaussian import fit_coca, orthogonalize
from gcfactor.objective import build_bounds, compute_workspace


def truth_nll(data, theta, sigma):
    """NLL of arbitrary parameters under the data's own interval geometry."""
    from gcfactor.marginals import fit_edf

    edfs = [fit_edf(data.column_observed(j)) for j in range(data.n)]
    bounds = build_bounds(data, edfs)
    return compute_workspace(theta, sigma, bounds, derivs=False).nll(), bounds


def make_state(data, rank, seed, scale=1.0):
    from gcfactor.marginals import fit_edf

    rng = np.random.default_rng(seed)
    edfs = [fit_edf(data.column_observed(j)) for j in range(data.n)]
    bounds = build_bounds(data, edfs)
    state = FitState(rng.normal(size=(data.m, rank)) * scale,
                     rng.normal(size=(data.n, rank)) * scale,
                     0.8, bounds)
    state.refresh_nll()
    return state


def test_options_validation():
    with pytest.raises(ValueError):
        FitOptions(rank=0)
    with pytest.raises(ValueError):
        FitOptions(rank=2, optimizer="newton-cg")
    with pytest.raises(ValueError):
        FitOptions(rank=2, tol_rel_nll=0.0)
    with pytest.raises(ValueError):
        FitOptions(rank=2, sigma_floor=0.0)
    with pytest.raises(ValueError):
        FitOptions(rank=2, max_iterations=0)
    with pytest.raises(ValueError):
        FitOptions(rank=2, ridge=-1.0)
    with pytest.raises(ValueError):
        FitOptions(rank=2, ridge=float("inf"))
    assert FitOptions(rank=2).ridge == 1.0
    assert FitOptions(rank=2, optimizer="bcd").iteration_budget() == 500
    assert FitOptions(rank=2).iteration_budget() == 2000
    assert FitOptions(rank=2, max_iterations=77).iteration_budget() == 77


def test_rank_exceeding_dimensions_rejected():
    data, _ = planted(12, 6, 2, 0.4, seed=3)
    with pytest.raises(ValueError):
        fit_xpca(data, rank=7)


def test_bcd_monotone_from_random_starts():
    data, _ = planted(30, 12, 2, 0.4, seed=11, missing=0.2)
    opts = FitOptions(rank=2, optimizer="bcd")
    for seed in range(6):
        state = make_state(data, 2, seed=seed)
        start = state.nll
        for _ in range(25):
            bcd_sweep(state, opts)
            if state.plateau:
                break
        trace = np.array(state.trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert state.nll < start
        assert state.skipped_blocks == 0


def test_bcd_driver_reaches_gradient_tolerance():
    data, _ = planted(36, 12, 2, 0.4, seed=5, missing=0.15)
    model = fit_xpca(data, rank=2, optimizer="bcd")
    assert model.info["converged"]
    assert model.info["grad_maxnorm"] < GRAD_TOL * (1.0 + abs(model.info["nll"]))
    trace = np.array(model.info["trace"])
    assert np.all(np.diff(trace) <= 0.0)


def test_bcd_stationary_state_barely_moves():
    # all-continuous: every per-row subproblem is strictly convex, so a
    # sweep from the optimum must be a near-no-op (ordinal saturation can
    # leave flat directions where theta drifts at constant NLL)
    data, _ = planted(24, 9, 2, 0.4, seed=7, kinds="cont")
    model = fit_xpca(data, rank=2, optimizer="bcd")
    edfs = model.marginals
    bounds = build_bounds(data, edfs)
    state = FitState(model.U, model.V, model.sigma, bounds)
    state.refresh_nll()
    before = state.nll
    bcd_sweep(state, FitOptions(rank=2, optimizer="bcd"))
    assert state.nll <= before
    assert before - state.nll <= 1e-6 * (1.0 + abs(before))
    assert np.max(np.abs(state.U @ state.V.T - model.theta())) < 1e-2


def test_fitted_nll_beats_generating_parameters():
    data, (U, V, sigma, _) = planted(40, 12, 2, 0.3, seed=13, kinds="cont")
    ref, _ = truth_nll(data, U @ V.T, sigma)
    model = fit_xpca(data, rank=2)
    assert model.info["nll"] <= ref + 1e-6 * (1.0 + abs(ref))


def test_sigma_floor_on_saturated_rank():
    data, _ = planted(8, 8, 3, 0.3, seed=17, kinds="cont")
    opts = FitOptions(rank=8)
    model = fit_xpca(data, opts)
    assert model.sigma <= 5.0 * opts.sigma_floor


def test_fit_deterministic():
    data, _ = planted(25, 10, 2, 0.4, seed=19, missing=0.1)
    a = fit_xpca(data, rank=2)
    b = fit_xpca(data, rank=2)
    assert a.info["trace"] == b.info["trace"]
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.V, b.V)
    assert a.sigma == b.sigma


def test_lbfgs_restart_from_optimum_stops_immediately():
    data, _ = planted(24, 9, 2, 0.4, seed=23)
    model = fit_xpca(data, rank=2)
    bounds = build_bounds(data, model.marginals)
    state = FitState(model.U, model.V, model.sigma, bounds)
    state.refresh_nll()
    before = state.nll
    lbfgs_fit(state, FitOptions(rank=2, optimizer="lbfgs"))
    assert state.evals <= 10
    assert state.nll <= before + 1e-12 * (1.0 + abs(before))


def test_lbfgs_iterate_trace_monotone():
    data, _ = planted(30, 12, 2, 0.4, seed=29, missing=0.2)
    model = fit_xpca(data, rank=2, optimizer="lbfgs")
    trace = np.array(model.info["trace"])
    assert trace.size >= 3
    assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))
    assert model.info["nll"] <= trace[0]


def test_lbfgs_budget_exhaustion_falls_back_to_bcd():
    data, _ = planted(24, 9, 2, 0.4, seed=31, missing=0.1)
    model = fit_xpca(data, rank=2, optimizer="lbfgs", max_iterations=3)
    assert model.info["optimizer"] == "lbfgs+bcd"
    assert model.info["converged"]


def test_output_is_orthogonalized():
    data, _ = planted(30, 10, 3, 0.4, seed=37)
    model = fit_xpca(data, rank=3)
    gram = model.V.T @ model.V
    assert np.allclose(gram, np.eye(3), atol=1e-8)
    norms = np.linalg.norm(model.U, axis=0)
    assert np.all(np.diff(norms) <= 1e-9)


def test_underflow_reported_as_infinite_loss():
    from gcfactor.normals import IntervalUnderflowError
    from gcfactor.objective import BoundsMatrix

    lo = np.array([[0.5]])
    hi = np.array([[np.nextafter(0.5, 1.0)]])
    bounds = BoundsMatrix(lo, hi, np.ones((1, 1), dtype=bool))
    with pytest.raises(IntervalUnderflowError):
        compute_workspace(np.zeros((1, 1)), 1.0, bounds, derivs=False)
    ws = compute_workspace(np.zeros((1, 1)), 1.0, bounds, derivs=True,
                           on_underflow="inf")
    assert np.isposinf(ws.nll())
    assert ws.A[0] == 0.0


def test_matches_rank_transform_fit_on_continuous_data():
    data, _ = planted(100, 100, 3, 0.5, seed=41, kinds="cont")
    xp = fit_xpca(data, rank=3)
    co = fit_coca(data, rank=3)
    a = xp.theta().ravel()
    b = co.theta().ravel()
    r = np.corrcoef(a, b)[0, 1]
    assert r >= 0.99


def test_separable_binary_column_flagged():
    # a binary column whose labels are a clean threshold of the latent score
    # has its likelihood supremum at infinite factor norm; the exact fit must
    # stay finite, keep the NLL monotone, and report non-convergence honestly
    rng = np.random.default_rng(3)
    u = np.sort(rng.normal(size=24))
    z = np.outer(u, np.ones(3)) + 0.05 * rng.normal(size=(24, 3))
    X = np.column_stack([z[:, 0], z[:, 1], (u > 0).astype(float)])
    data = ObservedMatrix(X)
    model = fit_xpca(data, rank=1, optimizer="bcd", max_iterations=40,
                     ridge=0.0)
    assert np.isfinite(model.info["nll"])
    assert not model.info["converged"]
    trace = np.array(model.info["trace"])
    assert np.all(np.diff(trace) <= 0.0)
    assert np.all(np.isfinite(model.theta()))

    # the default penalized objective has a minimizer on the same matrix
    model = fit_xpca(data, rank=1)
    assert model.info["converged"]
    assert model.info["grad_maxnorm"] < GRAD_TOL * (1.0 + abs(model.info["nll"]))
    assert np.all(np.isfinite(model.theta()))


def test_info_records_run_shape():
    data, _ = planted(20, 8, 2, 0.4, seed=43)
    model = fit_xpca(data, rank=2)
    info = model.info
    assert info["optimizer"] == "newton"
    assert info["evals"] >= 1
    assert info["trace"][0] >= info["nll"] - 1e-9
    assert "seed" not in info
    assert len(model.marginals) == data.n


def penalized_objective(state):
    """NLL plus ridge times the nuclear norm, computed without the fit
    module's own penalty code."""
    nll = compute_workspace(state.theta(), state.sigma, state.bounds,
                            derivs=False).nll()
    return nll + state.ridge * np.linalg.norm(state.theta(), "nuc")


def test_nuclear_penalty_matches_finite_differences():
    # same instance sizes, step and tolerances as acceptance criterion 1
    h = 1e-6
    for seed in range(10):
        rng = np.random.default_rng(seed)
        U = rng.normal(scale=0.7, size=(20, 3))
        V = rng.normal(scale=0.7, size=(15, 3))
        ridge = float(rng.uniform(0.3, 3.0))
        value, gU, gV = nuclear_penalty(U, V, ridge)
        nuc = ridge * np.linalg.norm(U @ V.T, "nuc")
        assert abs(value - nuc) <= 1e-12 * nuc

        def fd(F, which):
            out = np.empty_like(F)
            for idx in np.ndindex(*F.shape):
                up, dn = F.copy(), F.copy()
                up[idx] += h
                dn[idx] -= h
                args = ((up, V), (dn, V)) if which == 0 else ((U, up), (U, dn))
                out[idx] = (nuclear_penalty(*args[0], ridge)[0]
                            - nuclear_penalty(*args[1], ridge)[0]) / (2 * h)
            return out

        for got, want in ((gU, fd(U, 0)), (gV, fd(V, 1))):
            scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-3)
            assert np.max(np.abs(got - want) / scale) < 1e-5

    zero = nuclear_penalty(U, V, 0.0)
    assert zero[0] == 0.0
    assert not np.any(zero[1]) and not np.any(zero[2])


def test_penalized_objective_ignores_factor_split():
    data, _ = planted(30, 12, 3, 0.4, seed=47, missing=0.2, kinds="trinary")
    base = make_state(data, 3, seed=2)
    rng = np.random.default_rng(5)
    Uo, Vo = orthogonalize(base.U, base.V)
    c = rng.uniform(0.2, 5.0, size=3)
    splits = [(Uo, Vo), (base.U * c, base.V / c)]
    ref = base.nll
    assert ref == pytest.approx(penalized_objective(base), rel=1e-12)
    for U, V in splits:
        state = FitState(U, V, base.sigma, base.bounds)
        assert state.refresh_nll() == pytest.approx(ref, rel=1e-12)
        assert state.penalty == pytest.approx(base.penalty, rel=1e-12)
    # the fit stays stationary at its orthogonalized output
    model = fit_xpca(data, rank=3)
    assert model.info["converged"]
    state = FitState(model.U, model.V, model.sigma, base.bounds)
    state.refresh_nll()
    assert state.penalty == pytest.approx(model.info["penalty"], rel=1e-12)
    assert gradient_maxnorm(state) < GRAD_TOL * (1.0 + abs(model.info["nll"]))


def test_bcd_sweep_never_raises_penalized_objective():
    # binary columns make the bare likelihood separable at this size, so
    # every sweep here leans on the penalty
    data, _ = planted(40, 15, 3, 0.5, seed=53, missing=0.3, kinds="trinary")
    opts = FitOptions(rank=3, optimizer="bcd")
    for seed in range(4):
        for ridge in (0.3, 1.0, 3.0):
            state = make_state(data, 3, seed=seed, scale=0.5)
            state.ridge = ridge
            state.refresh_nll()
            trace = [state.nll]
            for _ in range(20):
                bcd_sweep(state, opts)
                assert not state.plateau
                trace.append(state.nll)
                assert state.nll == pytest.approx(penalized_objective(state),
                                                  rel=1e-10)
            assert np.all(np.diff(trace) <= 0.0)
            assert trace[-1] < trace[0]

    # the fit's orthogonalized factors split theta unevenly; a sweep from
    # them must still lower the objective on its own, not by being undone
    model = fit_xpca(data, rank=3)
    state = FitState(model.U, model.V, model.sigma, make_state(data, 3, 0).bounds)
    before = state.refresh_nll()
    bcd_sweep(state, opts)
    assert not state.plateau
    assert state.nll <= before


def test_info_records_ridge_and_penalty():
    data, _ = planted(20, 8, 2, 0.4, seed=43, kinds="trinary")
    model = fit_xpca(data, rank=2)
    assert model.info["ridge"] == 1.0
    nuc = np.linalg.norm(model.theta(), "nuc")
    assert model.info["penalty"] == pytest.approx(nuc, rel=1e-10)
    assert model.info["trace"][-1] == pytest.approx(
        model.info["nll"] + model.info["penalty"], rel=1e-10)
    exact = fit_xpca(data, rank=2, ridge=0.0)
    assert exact.info["ridge"] == 0.0
    assert exact.info["penalty"] == 0.0
    assert exact.info["trace"][-1] == pytest.approx(exact.info["nll"],
                                                    rel=1e-10)


def test_default_fit_converges_on_mixed_benchmark_draw():
    # the 100x100 half-binary scenario with half the cells held out: the
    # bare likelihood is separable there and never converges, the default
    # penalized fit does, with latent means on the scale of the data
    from gcfactor.data import mask_random
    from gcfactor.simulate import generate, named_spec

    data, _, _ = generate(100, 100, 3, 0.25, named_spec("mixed"),
                          seed=(0, 100, 0, 0, 0))
    train, _ = mask_random(data, 0.5, seed=(0, 100, 0, 0, 1))
    model = fit_xpca(train, rank=3)
    assert model.info["converged"]
    assert model.info["grad_maxnorm"] < GRAD_TOL * (1.0 + abs(model.info["nll"]))
    assert np.max(np.abs(model.theta())) < 10.0


def scenario_train(rep):
    """Training matrix of acceptance criterion 5's replication rep."""
    from gcfactor.simulate import _draw_instance, named_spec

    return _draw_instance(100, 3, 0.25, named_spec("mixed"), 0.5, 0, rep)[2]


def test_newton_converges_alone_on_mixed_scenario():
    # criterion 5's 8 reps: the default fit is the Newton path alone, and
    # it ends no higher than the quasi-Newton path's penalized objective
    for rep in range(8):
        train = scenario_train(rep)
        model = fit_xpca(train, rank=3)
        info = model.info
        assert info["optimizer"] == "newton"
        assert info["converged"] and info["sweeps"] == 0
        assert info["stop_reason"] == "gradient tolerance"
        # it stops at the first point that passes: 6-7 kernel calls and
        # 44-69 products on these draws, several hundred products if it
        # ran on to the trust region's own end
        assert info["evals"] <= 10 and 0 < info["hessp"] <= 150
        assert info["grad_maxnorm"] < GRAD_TOL * (1.0 + abs(info["nll"]))
        ref = fit_xpca(train, rank=3, optimizer="lbfgs").info
        ours, theirs = (info["nll"] + info["penalty"],
                        ref["nll"] + ref["penalty"])
        assert ours <= theirs + 1e-8 * abs(theirs), "rep %d" % rep


def test_newton_converges_at_over_specified_rank():
    for rep in range(2):
        model = fit_xpca(scenario_train(rep), rank=6)
        assert model.info["optimizer"] == "newton"
        assert model.info["converged"]
        assert model.info["stop_reason"] == "gradient tolerance"


def test_newton_restart_from_optimum_stops_at_once():
    data, _ = planted(24, 9, 2, 0.4, seed=23)
    model = fit_xpca(data, rank=2)
    bounds = build_bounds(data, model.marginals)
    state = FitState(model.U, model.V, model.sigma, bounds)
    state.refresh_nll()
    before = state.nll
    newton_fit(state, FitOptions(rank=2))
    # the starting evaluation plus at most two iterations
    assert state.evals <= 3 and len(state.trace) <= 2
    assert state.converged and state.stop_reason == "gradient tolerance"
    assert state.nll <= before + 1e-10 * (1.0 + abs(before))


def test_newton_trace_is_the_penalized_objective():
    data, _ = planted(30, 12, 2, 0.4, seed=29, missing=0.2, kinds="trinary")
    model = fit_xpca(data, rank=2)
    trace = np.array(model.info["trace"])
    assert trace.size >= 3
    assert trace[-1] == pytest.approx(
        model.info["nll"] + model.info["penalty"], rel=1e-12)
    assert trace[-1] < trace[0]


def test_newton_budget_exhaustion_falls_back_to_bcd():
    data, _ = planted(24, 9, 2, 0.4, seed=31, missing=0.1)
    model = fit_xpca(data, rank=2, max_iterations=1)
    assert model.info["optimizer"] == "newton+bcd"
    assert model.info["converged"]
    assert model.info["stop_reason"] == "gradient tolerance"
    assert model.info["evals"] == 2 and model.info["sweeps"] >= 1

    state = make_state(data, 2, seed=1)
    newton_fit(state, FitOptions(rank=2, max_iterations=1))
    assert not state.converged and state.stop_reason == "budget"


def test_newton_rejects_steps_below_the_sigma_floor(monkeypatch):
    # the saturated fit wants sigma -> 0: the Newton pass reaches the floor
    # and proposes steps past it, which are rejected without a kernel call
    import gcfactor.fit as fit_module

    data, _ = planted(8, 8, 3, 0.3, seed=17, kinds="cont")
    opts = FitOptions(rank=8, max_iterations=20)
    state, _ = fit_module._warm_start(data, opts)
    seen = []

    def spy(theta, sigma, bounds, **kw):
        seen.append(sigma)
        return compute_workspace(theta, sigma, bounds, **kw)

    monkeypatch.setattr(fit_module, "compute_workspace", spy)
    newton_fit(state, opts)
    assert min(seen) >= opts.sigma_floor
    assert opts.sigma_floor <= state.sigma <= 5.0 * opts.sigma_floor
    # 20 iterations and the start, less the trial points below the floor
    assert state.evals == len(seen) < 21
    assert state.stop_reason == "budget"


def test_stop_reason_names_how_each_path_ended():
    data, _ = planted(24, 9, 2, 0.4, seed=31, missing=0.1)
    for optimizer in ("newton", "lbfgs", "bcd"):
        info = fit_xpca(data, rank=2, optimizer=optimizer).info
        assert info["converged"]
        assert info["stop_reason"] == "gradient tolerance"
    info = fit_xpca(data, rank=2, optimizer="bcd", max_iterations=1).info
    assert not info["converged"] and info["stop_reason"] == "budget"
    # L-BFGS's own relative-reduction test stops it short of the gradient
    # test on criterion 5's first draw, and BCD finishes
    state = make_state(scenario_train(0), 3, seed=0, scale=0.3)
    lbfgs_fit(state, FitOptions(rank=3, optimizer="lbfgs"))
    assert not state.converged and state.stop_reason == "plateau"
