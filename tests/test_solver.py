import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emsolve import (
    DomainError,
    EvalCounter,
    GaussianMixture,
    Schedule,
    SolverConfig,
    build_integral_table,
    ddim_sample,
    ddim_step,
    degenerate_table,
    estimate_derivatives,
    estimate_derivatives_pseudo,
    lupdate,
    make_time_grid,
    multistep_sample,
    reference_solve,
    singlestep_sample,
)
import emsolve.solver
from emsolve.ems import DATA_PRED, NOISE_PRED, EmsConfig, EmsTable, estimate_table
from emsolve.integrals import Transition, g_map
from emsolve.schedule import EDM, UNIFORM_LAMBDA, VP_COSINE, VP_LINEAR
from emsolve.solver import _snap_grid, _taylor_weights, explicit_vandermonde_solution, taylor_rows

import sampler_golden
from test_models import closed_form_trajectory


def draw_separated(rng, n, lo=-2.0, hi=-0.1, min_gap=0.05):
    """Distinct lambda offsets with a floor on pairwise separation."""
    while True:
        deltas = rng.uniform(lo, hi, n)
        if n == 1 or np.min(np.abs(np.subtract.outer(deltas, deltas))[~np.eye(n, dtype=bool)]) > min_gap:
            return deltas


def g_value(tab, sched, model, j_anchor, j, x):
    a, b, c = g_map(tab, j_anchor, j)
    return a * x + b * model.eps(sched, x, float(tab.lambda_grid[j])) + c


# -- derivative estimation ------------------------------------------------------


def test_estimate_derivatives_single_offset():
    out = estimate_derivatives([0.5], [np.array([1.0, -2.0])])
    assert np.allclose(out[0], [2.0, -4.0])


def test_estimate_derivatives_two_by_two_by_hand():
    # rows: a + b = 1, 2a + 4b = 4  =>  (a, b) = (0, 1)
    out = estimate_derivatives([1.0, 2.0], [np.array([1.0]), np.array([4.0])])
    assert np.allclose(out[0], 0.0, atol=1e-14)
    assert np.allclose(out[1], 1.0, atol=1e-14)


def test_estimate_derivatives_polynomial_recovery():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        deltas = draw_separated(rng, n)
        coeffs = [rng.standard_normal(4) for _ in range(n)]
        diffs = [sum(c * d ** (k + 1) for k, c in enumerate(coeffs)) for d in deltas]
        out = estimate_derivatives(deltas, diffs)
        for k in range(n):
            assert np.max(np.abs(out[k] - coeffs[k])) < 1e-10


def test_estimate_derivatives_errors():
    with pytest.raises(ValueError):
        estimate_derivatives([0.5, 0.5], [np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError):
        estimate_derivatives([0.0], [np.zeros(2)])
    with pytest.raises(ValueError):
        estimate_derivatives([0.1, 0.2, 0.3, 0.4], [np.zeros(2)] * 4)


def test_pseudo_single_offset_identical_to_direct():
    g0, g1 = np.array([0.3, -1.0]), np.array([1.1, 0.4])
    direct = estimate_derivatives([-0.7], [g1 - g0])
    pseudo = estimate_derivatives_pseudo([-0.7], [g0, g1])
    assert np.array_equal(direct[0], pseudo[0])


def test_pseudo_equals_truncated_solves_on_quadratic():
    rng = np.random.default_rng(1)
    deltas = np.array([-0.3, -0.8])
    c1, c2, g0 = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
    gs = [g0] + [g0 + c1 * d + c2 * d**2 for d in deltas]
    pseudo = estimate_derivatives_pseudo(deltas, gs)
    for k in (1, 2):
        direct = estimate_derivatives(deltas[:k], [g - g0 for g in gs[1 : k + 1]])
        assert np.max(np.abs(pseudo[k - 1] - direct[k - 1])) < 1e-12
    # with three points the quadratic's top coefficient is recovered exactly
    assert np.max(np.abs(pseudo[1] - c2)) < 1e-12


def test_pseudo_first_derivative_uses_nearest_point_only():
    rng = np.random.default_rng(2)
    deltas = draw_separated(rng, 3)
    gs = [rng.standard_normal(4) for _ in range(4)]
    pseudo = estimate_derivatives_pseudo(deltas, gs)
    nearest = (gs[1] - gs[0]) / deltas[0]
    assert np.allclose(pseudo[0], nearest, atol=1e-14)
    full = estimate_derivatives(deltas, [g - gs[0] for g in gs[1:]])
    assert np.max(np.abs(pseudo[0] - full[0])) > 1e-6


def test_pseudo_recurrence_equals_truncated_solves():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        deltas = draw_separated(rng, n)
        gs = [rng.standard_normal(3) for _ in range(n + 1)]
        pseudo = estimate_derivatives_pseudo(deltas, gs)
        for k in range(1, n + 1):
            direct = estimate_derivatives(deltas[:k], [g - gs[0] for g in gs[1 : k + 1]])
            worst = max(worst, float(np.max(np.abs(pseudo[k - 1] - direct[k - 1]))))
    assert worst <= 1e-10


def test_pseudo_input_length_validation():
    with pytest.raises(ValueError):
        estimate_derivatives_pseudo([-0.5, -1.0], [np.zeros(2), np.zeros(2)])


def test_vandermonde_explicit_inverse_matches_elimination():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        deltas = draw_separated(rng, n)
        diffs = [rng.standard_normal(4) for _ in range(n)]
        sol = estimate_derivatives(deltas, diffs)
        closed = explicit_vandermonde_solution(deltas, diffs)
        worst = max(worst, float(np.max(np.abs(sol[-1] - closed))))
    assert worst <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_non_finite_offsets_raise(bad, position):
    deltas = [-0.3, -0.6]
    deltas[position] = bad
    with pytest.raises(ValueError, match="finite"):
        estimate_derivatives(deltas, [np.ones(2), np.ones(2)])
    with pytest.raises(ValueError, match="finite"):
        estimate_derivatives_pseudo(deltas, [np.zeros(2), np.ones(2), np.ones(2)])
    for pseudo in (False, True):
        with pytest.raises(ValueError, match="finite"):
            taylor_rows(deltas, pseudo)
    with pytest.raises(ValueError, match="finite"):
        estimate_derivatives([bad], [np.ones(2)])
    with pytest.raises(ValueError, match="finite"):
        estimate_derivatives_pseudo([bad], [np.zeros(2), np.ones(2)])


def test_taylor_rows_by_hand():
    # nodes (0, -1, 1): Lagrange bases 1 - x^2, (x^2 - x)/2, (x^2 + x)/2
    assert taylor_rows([-1.0, 1.0], False) == [[1.0, 0.0, -1.0], [0.0, -0.5, 0.5], [0.0, 0.5, 0.5]]
    # divided differences: f[x0, x1] = g0 - g1, f[x0, x1, x2] = -g0 + g1/2 + g2/2
    assert taylor_rows([-1.0, 1.0], True) == [[1.0, 1.0, -1.0], [0.0, -1.0, 0.5], [0.0, 0.0, 0.5]]
    assert taylor_rows([], False) == taylor_rows([], True) == [[1.0]]
    with pytest.raises(ValueError):
        taylor_rows([0.5, 0.5], False)


@st.composite
def _taylor_cases(draw):
    n = draw(st.integers(1, 3))
    deltas = draw(st.lists(st.floats(-2.0, -0.1), min_size=n, max_size=n))
    gaps = [abs(a - b) for i, a in enumerate(deltas) for b in deltas[i + 1 :]]
    assume(all(gap > 0.05 for gap in gaps))
    values = st.floats(-10.0, 10.0)
    gs = draw(hnp.arrays(float, (n + 1, 2, 3), elements=values))
    E = draw(hnp.arrays(float, (n + 1, 3), elements=st.floats(0.01, 1.0)))
    return deltas, gs, E, draw(st.booleans())


@settings(max_examples=200)
@given(case=_taylor_cases())
def test_plan_weights_equal_estimators_then_taylor_sum(case):
    """The plan's weights on g values give the estimators' Taylor sum, to 1e-12 of its max."""
    deltas, gs, E, pseudo = case
    coeffs = Transition(1.0, 1.0, np.ones(3), np.zeros(3), tuple(E))
    got = sum(v * g for v, g in zip(_taylor_weights(coeffs, deltas, pseudo), gs))
    if pseudo:
        g_hat = estimate_derivatives_pseudo(deltas, list(gs))
    else:
        g_hat = estimate_derivatives(deltas, [g - gs[0] for g in gs[1:]])
    want = gs[0] * E[0] + sum(math.factorial(k) * g_k * E[k] for k, g_k in enumerate(g_hat, 1))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("pseudo", [False, True])
def test_samplers_make_no_linear_solve(vp, mix4, mix_tab, monkeypatch, pseudo):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called on the sampling path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    with pytest.raises(AssertionError):
        estimate_derivatives([-0.3, -0.6], [np.ones(2), np.ones(2)])
    grid = make_time_grid(vp, 8, UNIFORM_LAMBDA, 1.0, 1e-3)
    noise = np.array([[0.3, -1.2, 0.8, 0.1], [1.5, 0.2, -0.4, -0.9]])
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * noise
    cfg = SolverConfig(
        order=3, grid=grid, corrector="full", pseudo_predictor=pseudo, pseudo_corrector=pseudo
    )
    x, _ = multistep_sample(mix4, vp, mix_tab, cfg, x0)
    assert np.all(np.isfinite(x))
    assert np.all(np.isfinite(singlestep_sample(mix4, vp, mix_tab, cfg, x0)))


# built once, outside the property's arguments: a failing example's report stays short
golden_tabs = functools.cache(sampler_golden.integral_tables)


@settings(max_examples=150)
@given(
    table=st.sampled_from(sampler_golden.TABLES),
    idx=st.lists(st.integers(0, 60), min_size=3, max_size=3),
    pair=hnp.arrays(float, (2, 4), elements=st.floats(-10.0, 10.0)),
)
def test_g_against_any_anchor_is_affine_in_g_against_the_first(table, idx, pair):
    """g at p against A = scale * (g at p against j0) + offset, one (scale, offset) for all p.

    scale = exp(-lambda_A) / b and offset = -scale * c from A's own map
    against j0, as the step plan takes them; to 1e-12 of the largest term.
    """
    tab = golden_tabs()[table]
    j0 = min(idx)
    anchor, p = idx[1], idx[2]
    x, eps = pair
    _, b_a, c_a = g_map(tab, j0, anchor)
    scale = np.exp(-tab.lambda_grid[anchor]) / b_a
    a0, b0, c0 = g_map(tab, j0, p)
    scaled = scale * (a0 * x + b0 * eps + c0)
    got = scaled - scale * c_a
    a, b, c = g_map(tab, anchor, p)
    want = a * x + b * eps + c
    size = np.max(np.abs([a * x, b * eps, c, scale * c_a]))
    assert np.max(np.abs(got - want)) <= 1e-12 * size


@pytest.mark.parametrize("sampler", [multistep_sample, singlestep_sample])
def test_samplers_form_each_g_value_once(vp, mix4, mix_tab, monkeypatch, sampler):
    """M + 1 g-maps for an M-step grid, and one g value per model call."""
    counts = {"g_map": 0, "_g_value": 0}

    def counting(name):
        original = getattr(emsolve.solver, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(emsolve.solver, name, counting(name))
    grid = make_time_grid(vp, 8, UNIFORM_LAMBDA, 1.0, 1e-3)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * np.array([[0.3, -1.2, 0.8, 0.1]] * 2)
    cfg = SolverConfig(order=3, grid=grid, corrector="full", pseudo_corrector=True)
    counted = EvalCounter(mix4)
    sampler(counted, vp, mix_tab, cfg, x0)
    assert counts == {"g_map": 9, "_g_value": 8} and counted.calls == 8


@pytest.mark.parametrize("ripple", [0.0, 10.0])
@pytest.mark.parametrize("sampler", [multistep_sample, singlestep_sample])
def test_plan_rejects_g_maps_that_overflow_over_the_run(vp, mix4, vp_lam_range, sampler, ripple):
    """s ~ 100 over a lambda span of ~11: exp(S_anchor - S_first) overflows, each step does not."""
    lam = np.linspace(*vp_lam_range, 241)
    s = np.repeat((100.0 + ripple * np.sin(lam))[:, None], 4, axis=1)
    zeros = np.zeros_like(s)
    tab = build_integral_table(EmsTable(lam, -s, s, zeros, zeros, vp))
    assert (tab.const_lsb is None) == (ripple > 0)
    grid = make_time_grid(vp, 10, UNIFORM_LAMBDA, 1.0, 1e-3)
    with pytest.raises(DomainError, match="step plan"):
        sampler(mix4, vp, tab, SolverConfig(order=2, grid=grid), np.zeros(4))


# -- local update -----------------------------------------------------------------


def test_lupdate_zero_span_is_identity(vp, vp_lam_range):
    tab = build_integral_table(degenerate_table(DATA_PRED, vp, 50, vp_lam_range, 3))
    x = np.array([0.4, -1.2, 2.0])
    out = lupdate(tab, (10, x, np.zeros(3)), [], 10)
    assert np.allclose(out, x, rtol=1e-14)


def test_lupdate_rejects_backward_target(vp, vp_lam_range):
    tab = build_integral_table(degenerate_table(DATA_PRED, vp, 50, vp_lam_range, 3))
    with pytest.raises(ValueError):
        lupdate(tab, (10, np.zeros(3), np.zeros(3)), [], 5)


@pytest.mark.parametrize("kind", ["vp-linear", "edm"])
def test_lupdate_first_order_equals_ddim(kind):
    from emsolve import Schedule

    sched = Schedule(kind)
    t_hi, t_lo = sched.t_domain[1], max(sched.t_domain[0], 1e-3)
    lam_range = (float(sched.lambda_of_t(t_hi)), float(sched.lambda_of_t(t_lo)))
    table = degenerate_table(NOISE_PRED, sched, 200, lam_range, 4)
    tab = build_integral_table(table)
    rng = np.random.default_rng(5)
    for _ in range(30):
        j_s = int(rng.integers(0, 200))
        j_t = int(rng.integers(j_s + 1, 201))
        x, eps = rng.standard_normal(4), rng.standard_normal(4)
        a, b, c = g_map(tab, j_s, j_s)
        got = lupdate(tab, (j_s, x, a * x + b * eps + c), [], j_t)
        want = ddim_step(
            sched,
            x,
            eps,
            float(sched.t_of_lambda(table.lambda_grid[j_s])),
            float(sched.t_of_lambda(table.lambda_grid[j_t])),
        )
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10


def test_lupdate_point_mass_exact_with_estimated_stats(vp, pg4):
    # fine, narrow grid keeps the coefficient quadrature error below 1e-8
    cfg = EmsConfig(num_timesteps=2000, num_datapoints=8, lam_range=(0.0, 0.5), seed=6)
    table = estimate_table(pg4, vp, cfg)
    tab = build_integral_table(table)
    rng = np.random.default_rng(7)
    lam0 = float(table.lambda_grid[0])
    x_s = vp.alpha_lambda(lam0) * pg4.x0 + vp.sigma_lambda(lam0) * rng.standard_normal(4)
    for extras_idx in ([], [400], [400, 800]):
        g_s = g_value(tab, vp, pg4, 0, 0, x_s)
        extras = []
        for j in extras_idx:
            # history on the exact trajectory (g is constant along it anyway)
            x_j = closed_form_trajectory(vp, pg4, x_s, lam0, float(table.lambda_grid[j]))
            extras.append((j, g_value(tab, vp, pg4, 0, j, x_j)))
        got = lupdate(tab, (0, x_s, g_s), extras, 2000)
        want = closed_form_trajectory(vp, pg4, x_s, lam0, float(table.lambda_grid[2000]))
        assert np.max(np.abs(got - want)) < 1e-8


# -- multistep sampler ---------------------------------------------------------------


def test_multistep_single_step_equals_first_order_update(vp, mix4, mix_tab):
    table = mix_tab.ems
    grid = make_time_grid(vp, 1, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(8)
    x0 = vp.sigma_lambda(table.lambda_grid[0]) * rng.standard_normal(4)
    got, trace = multistep_sample(mix4, vp, mix_tab, SolverConfig(order=3, grid=grid), x0)
    g0 = g_value(mix_tab, vp, mix4, 0, 0, x0)
    want = lupdate(mix_tab, (0, x0, g0), [], len(table.lambda_grid) - 1)
    assert np.array_equal(got, want)
    assert len(trace) == 1 and trace[0]["eps_norm"] is None


def test_multistep_point_mass_data_pred_order2(vp, pg4, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 200, vp_lam_range, 4)
    tab = build_integral_table(table)
    grid = make_time_grid(vp, 10, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(9)
    x0 = vp.sigma_lambda(table.lambda_grid[0]) * rng.standard_normal(4)
    got, _ = multistep_sample(pg4, vp, tab, SolverConfig(order=2, grid=grid), x0)
    want = closed_form_trajectory(
        vp, pg4, x0, float(table.lambda_grid[0]), float(table.lambda_grid[-1])
    )
    assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("sampler", [multistep_sample, singlestep_sample])
def test_samplers_reject_a_table_for_another_schedule(vp, edm, mix4, sampler):
    # lambdas inside both schedules' ranges: only the check stops the edm run
    tab = build_integral_table(degenerate_table(NOISE_PRED, vp, 200, (-3.0, 3.0), 4))
    t_start, t_end = float(vp.t_of_lambda(-3.0)), float(vp.t_of_lambda(3.0))
    cfg = SolverConfig(order=2, grid=make_time_grid(vp, 6, UNIFORM_LAMBDA, t_start, t_end))
    x0 = vp.sigma_lambda(-3.0) * np.random.default_rng(4).standard_normal(4)

    def final(sched):
        out = sampler(mix4, sched, tab, cfg, x0)
        return out[0] if sampler is multistep_sample else out

    with pytest.raises(ValueError, match="the table is for schedule"):
        final(edm)
    # an equal schedule held in another object samples the same bits
    assert np.array_equal(final(Schedule(VP_LINEAR)), final(vp))


@pytest.mark.parametrize("corrector,pseudo_c", [("none", False), ("full", False), ("full", True), ("half", False)])
def test_multistep_nfe_is_step_count(vp, mix4, mix_tab, corrector, pseudo_c):
    grid = make_time_grid(vp, 12, UNIFORM_LAMBDA, 1.0, 1e-3)
    counted = EvalCounter(mix4)
    order = 1 if corrector == "none" else 3
    cfg = SolverConfig(
        order=order, grid=grid, corrector=corrector, pseudo_corrector=pseudo_c
    )
    rng = np.random.default_rng(10)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal(4)
    multistep_sample(counted, vp, mix_tab, cfg, x0)
    assert counted.calls == 12


def test_multistep_pseudo_predictor_identity_low_order(vp, mix4, mix_tab):
    grid = make_time_grid(vp, 12, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(11)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal(4)
    for order in (1, 2):
        plain, _ = multistep_sample(mix4, vp, mix_tab, SolverConfig(order=order, grid=grid), x0)
        pseudo, _ = multistep_sample(
            mix4, vp, mix_tab, SolverConfig(order=order, grid=grid, pseudo_predictor=True), x0
        )
        assert np.max(np.abs(plain - pseudo)) <= 1e-12


def test_multistep_half_corrector_matches_full_late_only(vp, mix4, mix_tab):
    # half-corrector: identical to no-corrector while t > T/2, to full after
    grid = make_time_grid(vp, 10, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(12)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal(4)
    half, tr_half = multistep_sample(
        mix4, vp, mix_tab, SolverConfig(order=2, grid=grid, corrector="half"), x0
    )
    none, tr_none = multistep_sample(mix4, vp, mix_tab, SolverConfig(order=2, grid=grid), x0)
    full, _ = multistep_sample(
        mix4, vp, mix_tab, SolverConfig(order=2, grid=grid, corrector="full"), x0
    )
    early = [r["t"] > 0.5 for r in tr_half]
    for rh, rn, flag in zip(tr_half, tr_none, early):
        if flag:
            assert np.array_equal(rh["x"], rn["x"])
    assert not np.array_equal(half, none)
    assert not np.array_equal(half, full)


def test_multistep_trace_contents(vp, mix4, mix_tab):
    grid = make_time_grid(vp, 5, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(13)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal(4)
    _, trace = multistep_sample(mix4, vp, mix_tab, SolverConfig(order=2, grid=grid), x0)
    assert len(trace) == 5
    assert [r["t"] for r in trace] == sorted((r["t"] for r in trace), reverse=True)
    for row in trace[:-1]:
        assert row["eps_norm"] > 0 and row["g_norm"] > 0 and len(row["x"]) == 4
    assert trace[-1]["eps_norm"] is None


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_trace_rows_own_their_arrays(vp, mix4, mix_tab, shape):
    grid = make_time_grid(vp, 5, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(15)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal(shape)
    cfg = SolverConfig(order=3, grid=grid, corrector="full")
    x_final, trace = multistep_sample(mix4, vp, mix_tab, cfg, x0)
    for row in trace[:-1]:
        assert row["x"].shape == row["eps"].shape == shape
        assert row["x"].dtype == row["eps"].dtype == np.float64
    assert trace[-1]["x"].shape == shape and trace[-1]["x"].dtype == np.float64
    assert trace[-1]["eps"] is None
    assert np.array_equal(trace[-1]["x"], x_final)
    saved = [(row["x"].copy(), None if row["eps"] is None else row["eps"].copy()) for row in trace]
    x_final[...] = 0.0
    x0[...] = 0.0
    for row, (x, eps) in zip(trace, saved):
        assert np.array_equal(row["x"], x)
        assert eps is None or np.array_equal(row["eps"], eps)


def test_solver_config_validation(vp):
    grid = make_time_grid(vp, 4, UNIFORM_LAMBDA, 1.0, 1e-3)
    with pytest.raises(ValueError):
        SolverConfig(order=0, grid=grid)
    with pytest.raises(ValueError):
        SolverConfig(order=4, grid=grid)
    with pytest.raises(ValueError):
        SolverConfig(order=1, grid=grid, corrector="full")
    with pytest.raises(ValueError):
        SolverConfig(order=2, grid=grid, pseudo_corrector=True)
    with pytest.raises(ValueError):
        SolverConfig(order=2, grid=grid, corrector="sometimes")


def test_multistep_rejects_grid_finer_than_table(vp, mix4, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 8, vp_lam_range, 4)
    tab = build_integral_table(table)
    grid = make_time_grid(vp, 40, UNIFORM_LAMBDA, 1.0, 1e-3)
    with pytest.raises(ValueError, match="finer"):
        multistep_sample(mix4, vp, tab, SolverConfig(order=1, grid=grid), np.zeros(4))


@pytest.mark.parametrize("sampler", [multistep_sample, singlestep_sample])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_samplers_reject_non_finite_initial_state(vp, mix4, mix_tab, sampler, bad):
    grid = make_time_grid(vp, 6, UNIFORM_LAMBDA, 1.0, 1e-3)
    x0 = np.array([0.1, bad, -0.2, 0.3])
    with pytest.raises(DomainError, match="non-finite"):
        sampler(mix4, vp, mix_tab, SolverConfig(order=2, grid=grid), x0)
    with pytest.raises(DomainError, match="non-finite"):
        sampler(mix4, vp, mix_tab, SolverConfig(order=2, grid=grid), np.stack([np.zeros(4), x0]))


@pytest.mark.parametrize("sampler", [multistep_sample, singlestep_sample])
def test_samplers_reject_non_finite_final_state(vp, mix4, mix_tab, sampler):
    # a finite but huge initial state overflows the model's posterior to nan
    grid = make_time_grid(vp, 6, UNIFORM_LAMBDA, 1.0, 1e-3)
    with pytest.raises(DomainError, match="non-finite"), np.errstate(all="ignore"):
        sampler(mix4, vp, mix_tab, SolverConfig(order=2, grid=grid), np.full(4, 1e200))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ddim_sample_rejects_non_finite_states(vp, mix4, bad):
    ts = np.linspace(1.0, 1e-3, 7)
    with pytest.raises(DomainError, match="initial"):
        ddim_sample(mix4, vp, ts, np.array([0.1, bad, -0.2, 0.3]))
    # a finite but huge initial state overflows the model's posterior to nan
    with pytest.raises(DomainError, match="became non-finite"), np.errstate(all="ignore"):
        ddim_sample(mix4, vp, ts, np.full(4, 1e200))


# -- batch contract ---------------------------------------------------------------------


@st.composite
def _sampler_cases(draw):
    order = draw(st.integers(1, 3))
    corrector = "none" if order == 1 else draw(st.sampled_from(["none", "full", "half"]))
    pseudo_corrector = corrector != "none" and draw(st.booleans())
    return dict(
        rows=draw(st.integers(1, 6)),
        order=order,
        corrector=corrector,
        pseudo_predictor=draw(st.booleans()),
        pseudo_corrector=pseudo_corrector,
        nfe=draw(st.integers(1, 20)),
        table=draw(st.sampled_from(["estimated", NOISE_PRED, DATA_PRED])),
        seed=draw(st.integers(0, 2**16)),
    )


def _trace_row_of(step, i):
    """Row ``i`` of one step of a batched trace, without the norms over the whole batch."""
    return {
        "t": step["t"],
        "lambda": step["lambda"],
        "x": step["x"][i],
        "eps": None if step["eps"] is None else step["eps"][i],
    }


@settings(max_examples=20)
@given(case=_sampler_cases())
def test_batch_rows_equal_per_row_runs(vp, mix4, mix_tab, case):
    if case["table"] == "estimated":
        tab = mix_tab
    else:
        lam = mix_tab.lambda_grid
        tab = build_integral_table(
            degenerate_table(case["table"], vp, 240, (float(lam[0]), float(lam[-1])), 4)
        )
    grid = make_time_grid(vp, case["nfe"], UNIFORM_LAMBDA, 1.0, 1e-3)
    cfg = SolverConfig(
        order=case["order"],
        grid=grid,
        corrector=case["corrector"],
        pseudo_predictor=case["pseudo_predictor"],
        pseudo_corrector=case["pseudo_corrector"],
    )
    rng = np.random.default_rng(case["seed"])
    x0 = vp.sigma_lambda(tab.lambda_grid[0]) * rng.standard_normal((case["rows"], 4))
    batch, batch_trace = multistep_sample(mix4, vp, tab, cfg, x0)
    row_runs = [multistep_sample(mix4, vp, tab, cfg, x) for x in x0]
    assert np.array_equal(batch, np.stack([x for x, _ in row_runs]))
    for i, (_, row_trace) in enumerate(row_runs):
        assert len(batch_trace) == len(row_trace)
        for step, want in zip(batch_trace, row_trace):
            got = _trace_row_of(step, i)
            assert all(np.array_equal(got[key], want[key]) for key in got)
    batch = singlestep_sample(mix4, vp, tab, cfg, x0)
    rows = np.stack([singlestep_sample(mix4, vp, tab, cfg, x) for x in x0])
    assert np.array_equal(batch, rows)


# -- singlestep sampler ---------------------------------------------------------------


def test_singlestep_order1_equals_multistep(vp, mix4, mix_tab):
    grid = make_time_grid(vp, 12, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(14)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal(4)
    single = singlestep_sample(mix4, vp, mix_tab, SolverConfig(order=1, grid=grid), x0)
    multi, _ = multistep_sample(mix4, vp, mix_tab, SolverConfig(order=1, grid=grid), x0)
    assert np.array_equal(single, multi)


def test_singlestep_point_mass_exact(vp, pg4, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 240, vp_lam_range, 4)
    tab = build_integral_table(table)
    grid = make_time_grid(vp, 12, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(15)
    x0 = vp.sigma_lambda(table.lambda_grid[0]) * rng.standard_normal(4)
    got = singlestep_sample(pg4, vp, tab, SolverConfig(order=3, grid=grid), x0)
    want = closed_form_trajectory(
        vp, pg4, x0, float(table.lambda_grid[0]), float(table.lambda_grid[-1])
    )
    assert np.max(np.abs(got - want)) <= 1e-6


def test_singlestep_nfe_and_remainder_macro_step(vp, mix4, mix_tab):
    # 14 intervals with order 3: four full macro steps plus a remainder of 2
    grid = make_time_grid(vp, 14, UNIFORM_LAMBDA, 1.0, 1e-3)
    counted = EvalCounter(mix4)
    rng = np.random.default_rng(16)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal(4)
    singlestep_sample(counted, vp, mix_tab, SolverConfig(order=3, grid=grid), x0)
    assert counted.calls == 14


def test_singlestep_convergence_lower_bound(vp, mix4, mix_tab):
    # the guaranteed order is a lower bound; single trajectories show noisy
    # pre-asymptotic transients, so pool the error over a few initial states
    table = mix_tab.ems
    steps = (12, 24, 48, 96)
    seeds = (14, 17, 18, 19)
    inits = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x0 = vp.sigma_lambda(table.lambda_grid[0]) * rng.standard_normal(4)
        ref = reference_solve(
            mix4, vp, x0, float(table.lambda_grid[0]), float(table.lambda_grid[-1]), tol=1e-10
        )
        inits.append((x0, ref))
    for order in (2, 3):
        mean_errs = []
        for m in steps:
            grid = make_time_grid(vp, m, UNIFORM_LAMBDA, 1.0, 1e-3)
            errs = [
                np.linalg.norm(
                    singlestep_sample(mix4, vp, mix_tab, SolverConfig(order=order, grid=grid), x0)
                    - ref
                )
                for x0, ref in inits
            ]
            mean_errs.append(np.mean(errs))
        slope = np.polyfit(np.log(1.0 / np.array(steps)), np.log(mean_errs), 1)[0]
        assert order - 0.45 < slope < order + 1.5
        assert mean_errs[-1] < mean_errs[0]


# -- first-order baseline ----------------------------------------------------------


def test_ddim_step_zero_span(vp):
    x = np.array([1.0, -2.0])
    eps = np.array([0.3, 0.4])
    assert np.array_equal(ddim_step(vp, x, eps, 0.7, 0.7), x)


def test_ddim_step_point_mass_exact(vp, pg4):
    rng = np.random.default_rng(18)
    t_s, t_t = 0.8, 0.3
    lam_s, lam_t = float(vp.lambda_of_t(t_s)), float(vp.lambda_of_t(t_t))
    x_s = vp.alpha_lambda(lam_s) * pg4.x0 + vp.sigma_lambda(lam_s) * rng.standard_normal(4)
    got = ddim_step(vp, x_s, pg4.eps(vp, x_s, lam_s), t_s, t_t)
    want = closed_form_trajectory(vp, pg4, x_s, lam_s, lam_t)
    assert np.max(np.abs(got - want)) < 1e-12


def test_ddim_step_rejects_increasing_time(vp):
    with pytest.raises(ValueError):
        ddim_step(vp, np.zeros(2), np.zeros(2), 0.3, 0.7)


@st.composite
def _ddim_cases(draw):
    """A schedule, a Gaussian mixture of dimension 1-5, a batch size and an NFE of 1-12."""
    kind = draw(st.sampled_from([VP_LINEAR, VP_COSINE, EDM]))
    params = {}
    if kind == VP_LINEAR:
        params = {"beta0": draw(st.floats(0.01, 1.0)), "beta1": draw(st.floats(5.0, 30.0))}
    dim, comps = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=comps, max_size=comps)))
    model = GaussianMixture(
        weights=raw / raw.sum(),
        means=draw(hnp.arrays(np.float64, (comps, dim), elements=st.floats(-2.0, 2.0))),
        stds=draw(hnp.arrays(np.float64, comps, elements=st.floats(0.0, 1.5))),
    )
    return dict(
        sched=Schedule(kind, params),
        model=model,
        rows=draw(st.integers(1, 4)),
        nfe=draw(st.integers(1, 12)),
        trim=(draw(st.floats(0.0, 0.1)), draw(st.floats(0.0, 0.1))),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=50)
@given(case=_ddim_cases())
def test_noise_pred_first_order_equals_ddim(case):
    """Criterion 4 over whole runs: order 1 on the noise-prediction table is DDIM.

    The sampling grid is trimmed inside the table's range, so its points
    snap, and DDIM runs on the snapped times.  Errors are relative to the
    larger of the result and the initial state carried to the end, since
    a few large steps can cancel most of it.
    """
    sched, model = case["sched"], case["model"]
    t_hi, t_lo = sched.t_domain[1], max(sched.t_domain[0], 1e-3)
    lam_lo, lam_hi = float(sched.lambda_of_t(t_hi)), float(sched.lambda_of_t(t_lo))
    table = degenerate_table(NOISE_PRED, sched, 240, (lam_lo, lam_hi), model.dim)
    tab = build_integral_table(table)
    width = lam_hi - lam_lo
    t_start = float(sched.t_of_lambda(lam_lo + case["trim"][0] * width))
    t_end = float(sched.t_of_lambda(lam_hi - case["trim"][1] * width))
    grid = make_time_grid(sched, case["nfe"], UNIFORM_LAMBDA, t_start, t_end)
    rng = np.random.default_rng(case["seed"])
    x0 = sched.sigma_lambda(lam_lo) * rng.standard_normal((case["rows"], model.dim))
    got, _ = multistep_sample(model, sched, tab, SolverConfig(order=1, grid=grid), x0)
    ts = _snap_grid(table, sched, grid).ts
    want = ddim_sample(model, sched, ts, x0)
    scale = max(np.max(np.abs(want)), np.max(np.abs(x0)) * sched.alpha(ts[-1]) / sched.alpha(ts[0]))
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_ddim_sample_counts_evaluations(vp, mix4):
    ts = np.linspace(1.0, 1e-3, 9)
    counted = EvalCounter(mix4)
    ddim_sample(counted, vp, ts, np.zeros(4))
    assert counted.calls == 8


def test_guided_model_end_to_end(vp, mix4, pg4):
    from emsolve import Guided

    guided = Guided(cond=mix4, uncond=pg4, scale=1.5)
    lam_range = (float(vp.lambda_of_t(1.0)), float(vp.lambda_of_t(1e-3)))
    cfg = EmsConfig(num_timesteps=240, num_datapoints=256, lam_range=lam_range, seed=23)
    table = estimate_table(guided, vp, cfg)
    assert np.all(np.isfinite(table.l)) and np.all(np.isfinite(table.s))
    tab = build_integral_table(table)
    grid = make_time_grid(vp, 40, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(24)
    x0 = vp.sigma_lambda(table.lambda_grid[0]) * rng.standard_normal(4)
    counted = EvalCounter(guided)
    got, _ = multistep_sample(counted, vp, tab, SolverConfig(order=2, grid=grid, corrector="full"), x0)
    assert counted.calls == 40
    ref = reference_solve(
        guided, vp, x0, float(table.lambda_grid[0]), float(table.lambda_grid[-1]), tol=1e-10
    )
    assert np.linalg.norm(got - ref) < 1e-2
