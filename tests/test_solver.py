import copy
import dataclasses
import functools
import gc
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emsolve import (
    DomainError,
    EvalCounter,
    GaussianMixture,
    SamplerPlan,
    Schedule,
    SolverConfig,
    build_integral_table,
    degenerate_table,
    lupdate,
    make_time_grid,
    multistep_sample,
    plan_multistep,
    plan_singlestep,
    reference_solve,
    singlestep_sample,
)
import emsolve.solver
from emsolve.ems import DATA_PRED, NOISE_PRED, EmsConfig, EmsTable, estimate_table
from emsolve.integrals import IntegralTable, g_map
from emsolve.schedule import EDM, UNIFORM_LAMBDA, UNIFORM_T, VP_COSINE, VP_LINEAR, TimeGrid
from emsolve.solver import CORRECTORS, _plan, _taylor_rows

import sampler_golden
from oracles import (
    alpha_of_t,
    ddim_step,
    direct_lupdate,
    estimate_derivatives,
    estimate_derivatives_pseudo,
    explicit_vandermonde_solution,
    multistep_transitions,
    planned_arrays,
    rowmajor_run,
    sigma_of_t,
    singlestep_transitions,
    taylor_rows,
)
from test_models import closed_form_trajectory


def without_corrector(cfg):
    """``cfg`` with no corrector and no pseudo flags, which singlestep sampling rejects."""
    return dataclasses.replace(
        cfg, corrector="none", pseudo_predictor=False, pseudo_corrector=False
    )


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
            _taylor_rows(np.array([deltas]), pseudo)
    with pytest.raises(ValueError, match="finite"):
        estimate_derivatives([bad], [np.ones(2)])
    with pytest.raises(ValueError, match="finite"):
        estimate_derivatives_pseudo([bad], [np.zeros(2), np.ones(2)])


def test_taylor_rows_by_hand():
    def rows(deltas, pseudo):
        return _taylor_rows(np.array([deltas], dtype=float).reshape(1, -1), pseudo)[0].tolist()

    # nodes (0, -1, 1): Lagrange bases 1 - x^2, (x^2 - x)/2, (x^2 + x)/2
    assert rows([-1.0, 1.0], False) == [[1.0, 0.0, -1.0], [0.0, -0.5, 0.5], [0.0, 0.5, 0.5]]
    # divided differences: f[x0, x1] = g0 - g1, f[x0, x1, x2] = -g0 + g1/2 + g2/2
    assert rows([-1.0, 1.0], True) == [[1.0, 1.0, -1.0], [0.0, -1.0, 0.5], [0.0, 0.0, 0.5]]
    assert rows([], False) == rows([], True) == [[1.0]]


@pytest.mark.parametrize("pseudo", [False, True])
@pytest.mark.parametrize(
    "deltas, message",
    [
        ([0.0], "nonzero"),
        ([-0.5, 0.0], "nonzero"),
        ([0.5, 0.5], "distinct"),
        ([-0.1, -0.3, -0.1], "distinct"),
        ([-0.1, -0.2, -0.3, -0.4], "1..3 offsets"),
        ([-0.2, np.nan], "finite"),
        ([np.inf], "finite"),
    ],
)
def test_taylor_rows_rejects_bad_offsets(deltas, message, pseudo):
    good = [-0.7, -0.8, -0.9, -1.0][: len(deltas)]
    for offsets in ([deltas], [good, deltas]):  # alone, and as a later step's row
        with pytest.raises(ValueError, match=message):
            _taylor_rows(np.array(offsets), pseudo)
    with pytest.raises(ValueError, match=message):
        taylor_rows(deltas, pseudo)


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
    factorials = np.array([math.factorial(k) for k in range(len(E))], dtype=float)
    # the plan's fold of a step's rows with its k! E^k
    weights = np.matmul(_taylor_rows(np.array([deltas]), pseudo), E * factorials[:, None])[0]
    got = sum(v * g for v, g in zip(weights, gs))
    if pseudo:
        g_hat = estimate_derivatives_pseudo(deltas, list(gs))
    else:
        g_hat = estimate_derivatives(deltas, [g - gs[0] for g in gs[1:]])
    want = gs[0] * E[0] + sum(math.factorial(k) * g_k * E[k] for k, g_k in enumerate(g_hat, 1))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def _offset_rows(draw):
    """1-6 steps' rows of n = 0..3 distinct nonzero offsets, and a pseudo flag."""
    n = draw(st.integers(0, 3))
    offset = st.floats(-20.0, 20.0).filter(lambda v: abs(v) >= 1e-3)
    row = st.lists(offset, min_size=n, max_size=n, unique=True)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return np.array(rows, dtype=float).reshape(len(rows), n), draw(st.booleans())


@settings(max_examples=300)
@given(case=_offset_rows())
@example(case=(np.array([[-1.0, 1.0], [-0.3, -0.6]]), False))
@example(case=(np.array([[-0.4, -0.9, -1.3]]), True))
def test_grouped_taylor_rows_equal_the_list_oracle_bit_for_bit(case):
    offsets, pseudo = case
    got = _taylor_rows(offsets, pseudo)
    assert got.shape == offsets.shape[:1] + (offsets.shape[1] + 1,) * 2
    for rows, deltas in zip(got, offsets):
        assert rows.tobytes() == np.array(taylor_rows(deltas.tolist(), pseudo)).tobytes()


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
    tab = IntegralTable(mix_tab.ems)  # an empty plan memo: both samplers plan here
    x, _ = multistep_sample(mix4, vp, tab, cfg, x0)
    assert np.all(np.isfinite(x))
    assert np.all(np.isfinite(singlestep_sample(mix4, vp, tab, without_corrector(cfg), x0)))


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
    """One g_map call of M + 1 rows and one coefficient call per plan, one g value per model call.

    A fresh table, whose plan memo is empty, so the first call plans; the
    second call reuses that plan and forms its g values again.
    """
    calls = {"g_map": [], "transition_coefficients": [], "_g_value": []}

    def counting(name):
        original = getattr(emsolve.solver, name)

        def wrapper(*args):
            calls[name].append(args)
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(emsolve.solver, name, counting(name))
    grid = make_time_grid(vp, 8, UNIFORM_LAMBDA, 1.0, 1e-3)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * np.array([[0.3, -1.2, 0.8, 0.1]] * 2)
    cfg = SolverConfig(order=3, grid=grid, corrector="full", pseudo_corrector=True)
    if sampler is singlestep_sample:
        cfg = without_corrector(cfg)
    counted = EvalCounter(mix4)
    tab = IntegralTable(mix_tab.ems)
    sampler(counted, vp, tab, cfg, x0)
    counts = {name: len(args) for name, args in calls.items()}
    assert counts == {"g_map": 1, "transition_coefficients": 1, "_g_value": 8}
    assert np.shape(calls["g_map"][0][2]) == (9,) and counted.calls == 8
    assert np.shape(calls["transition_coefficients"][0][1]) == (8,)
    for args in calls.values():
        args.clear()
    sampler(counted, vp, tab, cfg, x0)
    counts = {name: len(args) for name, args in calls.items()}
    assert counts == {"g_map": 0, "transition_coefficients": 0, "_g_value": 8}


# -- the planner against its stacked restatement ----------------------------------------


@functools.cache
def planner_tables():
    """Estimated and constant tables on vp-linear, vp-cosine and edm, by "schedule/table" name.

    vp-linear has the golden tables (60 intervals) and the estimated one's
    first column as a one-column table, whose sums numpy adds pairwise; the
    others have 48 intervals over their whole lambda domain (from t = 1e-3
    on vp-cosine).
    """
    tabs = {f"{VP_LINEAR}/{name}": tab for name, tab in golden_tabs().items()}
    ems = golden_tabs()["estimated"].ems
    columns = {name: getattr(ems, name)[:, :1] for name in ("l", "s", "b", "l_dot")}
    tabs[f"{VP_LINEAR}/estimated-1d"] = build_integral_table(dataclasses.replace(ems, **columns))
    for kind in (VP_COSINE, EDM):
        sched = Schedule(kind)
        t_lo, t_hi = sched.t_domain
        lam_range = (float(sched.lambda_of_t(t_hi)), float(sched.lambda_of_t(max(t_lo, 1e-3))))
        cfg = EmsConfig(num_timesteps=48, num_datapoints=64, lam_range=lam_range, seed=5)
        tabs[f"{kind}/estimated"] = build_integral_table(
            estimate_table(sampler_golden.MODEL, sched, cfg)
        )
        for name in (NOISE_PRED, DATA_PRED):
            table = degenerate_table(name, sched, 48, lam_range, 4)
            tabs[f"{kind}/{name}"] = build_integral_table(table)
    return tabs


def assert_plan_bits(plan, want):
    """Every array of ``plan`` has the restatement's bytes and shape, and the reads are the same."""
    for name in ("lams", "ts", "sigmas", "scale", "alpha_s", "int_EB", "weights"):
        got = getattr(plan, name)
        assert got.shape == want[name].shape and got.tobytes() == want[name].tobytes(), name
    for got, expected in zip(plan.maps, want["maps"], strict=True):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), "maps"
    assert plan.targets == want["targets"]
    assert (plan.reads, plan.corrector_reads) == (want["reads"], want["corrector_reads"])


@st.composite
def _plan_cases(draw):
    """A table, a sampler, its settings, a grid kind and an NFE (often dividing the table's)."""
    table = draw(st.sampled_from(sorted(planner_tables())))
    intervals = len(planner_tables()[table].lambda_grid) - 1
    divisors = [k for k in range(1, 21) if intervals % k == 0]
    nfe = draw(st.sampled_from(divisors) | st.integers(1, 20))
    kind = draw(st.sampled_from([UNIFORM_LAMBDA, UNIFORM_T]))
    multistep = draw(st.booleans())
    order = draw(st.integers(1, 3))
    corrector = draw(st.sampled_from(CORRECTORS)) if multistep and order >= 2 else "none"
    kwargs = {
        "order": order,
        "corrector": corrector,
        "pseudo_predictor": multistep and draw(st.booleans()),
        "pseudo_corrector": corrector != "none" and draw(st.booleans()),
    }
    return table, multistep, kind, nfe, kwargs


FULL_PSEUDO = {"order": 3, "corrector": "full", "pseudo_predictor": True, "pseudo_corrector": True}
SINGLESTEP = {"order": 3, "corrector": "none", "pseudo_predictor": False, "pseudo_corrector": False}


@settings(max_examples=300)
@given(case=_plan_cases())
# one span of 6 on 60 intervals, spans 6 and 7 on 48, and the one-column table on uniform t
@example(case=(f"{VP_LINEAR}/estimated", True, UNIFORM_LAMBDA, 10, FULL_PSEUDO))
@example(case=(f"{EDM}/estimated", True, UNIFORM_LAMBDA, 7, {**FULL_PSEUDO, "corrector": "half"}))
@example(case=(f"{VP_LINEAR}/estimated-1d", True, UNIFORM_T, 12, FULL_PSEUDO))
@example(case=(f"{VP_COSINE}/{NOISE_PRED}", False, UNIFORM_LAMBDA, 16, SINGLESTEP))
@example(case=(f"{VP_LINEAR}/{DATA_PRED}", False, UNIFORM_T, 11, {**SINGLESTEP, "order": 2}))
def test_plans_have_the_stacked_planners_bits(case):
    """Every plan array has the bytes of the planner restated with schedule calls and span blocks.

    Multistep orders 1-3 with every corrector and both pseudo flags, and
    singlestep orders 1-3, on uniform-lambda and uniform-t grids whose
    NFE divides the table's interval count or not, over estimated and
    constant tables on three schedules.  Grids finer than the table are
    rejected as before.
    """
    table, multistep, kind, nfe, kwargs = case
    tab = planner_tables()[table]
    sched = tab.ems.schedule
    t_start, t_end = (float(sched.t_of_lambda(tab.lambda_grid[j])) for j in (0, -1))
    cfg = SolverConfig(grid=make_time_grid(sched, nfe, kind, t_start, t_end), **kwargs)
    idx = tab.ems.index_of(cfg.grid.lambdas)
    if np.any(np.diff(idx) <= 0):
        with pytest.raises(ValueError, match="finer than the coefficient table"):
            (plan_multistep if multistep else plan_singlestep)(tab, cfg)
        return
    if multistep:
        plan = plan_multistep(tab, cfg)
        transitions = multistep_transitions(cfg, sched.t_domain[1])
        want = planned_arrays(tab, idx, transitions, cfg.pseudo_predictor, cfg.pseudo_corrector)
    else:
        plan = plan_singlestep(tab, cfg)
        want = planned_arrays(tab, idx, singlestep_transitions(cfg.order, len(idx) - 1))
    assert_plan_bits(plan, want)


@settings(max_examples=150)
@given(
    table=st.sampled_from(sorted(planner_tables())),
    j_s=st.integers(0, 60),
    span=st.integers(0, 20),
    extras=st.lists(st.integers(0, 60), max_size=3, unique=True),
)
def test_lupdate_plans_have_the_stacked_planners_bits(table, j_s, span, extras):
    """``lupdate``'s one-step plan, extras before or after the anchor, has the same bits."""
    tab = planner_tables()[table]
    last = len(tab.lambda_grid) - 1
    j_s, j_t, extras = min(j_s, last), min(j_s + span, last), [min(j, last) for j in extras]
    assume(len(set(extras)) == len(extras) and j_s not in extras)
    idx, history = [j_s, j_t, *extras], tuple(range(2, len(extras) + 2))
    transitions = [(0, 1, history, None)]
    want = planned_arrays(tab, idx, lambda ts: transitions)
    assert_plan_bits(_plan(tab, idx, transitions), want)


def test_one_span_plans_skip_one_node_sums_and_span_sorting(monkeypatch):
    """A uniform-lambda plan whose NFE divides the table forms each group's Taylor rows once.

    Order 3 with a full pseudo corrector, NFE 10 on 60 intervals: one
    ``_taylor_rows`` call for each (node count, pseudo flag) group with two
    or more nodes, none for the first step's one-node sum, and no
    ``np.unique``: every step spans 6 intervals.
    """
    tab = IntegralTable(golden_tabs()["estimated"].ems)  # an empty plan memo
    grid = make_time_grid(sampler_golden.SCHED, 10, UNIFORM_LAMBDA, 1.0, 1e-3)
    cfg = SolverConfig(order=3, grid=grid, corrector="full", pseudo_corrector=True)
    assert set(np.diff(tab.ems.index_of(grid.lambdas))) == {6}
    calls, original = [], emsolve.solver._taylor_rows

    def counting(offsets, pseudo):
        calls.append((np.shape(offsets), pseudo))
        return original(offsets, pseudo)

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called on a one-span plan")

    monkeypatch.setattr(emsolve.solver, "_taylor_rows", counting)
    monkeypatch.setattr(np, "unique", refuse)
    plan = plan_multistep(tab, cfg)
    monkeypatch.undo()
    # predictor sums of 1, 2 and 3 nodes (1, 1 and 8 steps), pseudo corrector sums of 2, 3
    # and 4 (1, 1 and 7 steps): one call per group with 2 or more nodes
    assert sorted(calls) == sorted([
        ((1, 1), False), ((8, 2), False), ((1, 1), True), ((1, 2), True), ((7, 3), True),
    ])
    transitions = multistep_transitions(cfg, 1.0)
    want = planned_arrays(tab, tab.ems.index_of(grid.lambdas), transitions, False, True)
    assert_plan_bits(plan, want)


# Peak allocation of planning an order-3, full pseudo-corrector NFE-80 run on the 960-interval
# table, numpy 2.4.6: 185 KiB on uniform-t (spans 1..168, one block per span) and 253 KiB on
# uniform-lambda (spans 12 and 13, two blocks of ~40 pairs); the finished plan holds ~173 KiB.
# One block zero-padded to the longest span would hold 80 x 169 x 4 floats, 423 KiB, per array.
PLAN_PEAK_ALLOCATION = 384 * 1024


@pytest.mark.parametrize("kind", [UNIFORM_T, UNIFORM_LAMBDA])
def test_plan_peak_allocation(vp, mix_tab, kind):
    grid = make_time_grid(vp, 80, kind, 1.0, 1e-3)
    cfg = SolverConfig(order=3, grid=grid, corrector="full", pseudo_corrector=True)
    plan_multistep(mix_tab, cfg)
    tab = IntegralTable(mix_tab.ems)  # an empty plan memo: the measured call plans
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        plan_multistep(tab, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= PLAN_PEAK_ALLOCATION, peak / 1024


# Peak allocation of multistep_sample on a (4096, 4) state, order 3, full corrector, NFE 20,
# 960-interval table, numpy 2.4.6: 1516 KiB, the mixture's per-call (C, D, N) intermediates
# included.  A trace recorded along the way would add 20 rows of x and eps, ~5 MiB, on top.
SAMPLE_PEAK_ALLOCATION = 2048 * 1024


def test_multistep_sample_peak_allocation(vp, mix4, mix_tab):
    grid = make_time_grid(vp, 20, UNIFORM_LAMBDA, 1.0, 1e-3)
    cfg = SolverConfig(order=3, grid=grid, corrector="full")
    rng = np.random.default_rng(30)
    x0 = vp.sigma_lambda(mix_tab.lambda_grid[0]) * rng.standard_normal((4096, 4))
    multistep_sample(mix4, vp, mix_tab, cfg, x0)
    tab = IntegralTable(mix_tab.ems)  # an empty plan memo: the measured call plans
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        multistep_sample(mix4, vp, tab, cfg, x0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= SAMPLE_PEAK_ALLOCATION, peak / 1024


def test_multistep_sample_returns_the_plan_it_ran(vp, mix4, mix_tab):
    grid = make_time_grid(vp, 9, UNIFORM_LAMBDA, 1.0, 1e-3)
    cfg = SolverConfig(order=3, grid=grid, corrector="full", pseudo_corrector=True)
    rng = np.random.default_rng(31)
    x0 = vp.sigma_lambda(mix_tab.lambda_grid[0]) * rng.standard_normal((3, 4))
    x_final, plan = multistep_sample(mix4, vp, mix_tab, cfg, x0)
    assert isinstance(plan, SamplerPlan) and plan.ems is mix_tab.ems
    assert np.array_equal(plan.run(mix4, x0), x_final)
    assert np.array_equal(plan.lams, mix_tab.lambda_grid[mix_tab.ems.index_of(grid.lambdas)])


# -- the per-table plan memo ------------------------------------------------------------

MEMO_SETTINGS = [
    ("multistep", dict(order=3)),
    ("multistep", dict(order=2, corrector="full")),
    ("multistep", dict(order=3, corrector="half")),
    ("multistep", dict(order=3, corrector="full", pseudo_predictor=True, pseudo_corrector=True)),
    ("multistep", dict(order=2, corrector="half", pseudo_corrector=True)),
    ("singlestep", dict(order=3)),
]
PLANNERS = {"multistep": plan_multistep, "singlestep": plan_singlestep}
SAMPLERS = {"multistep": multistep_sample, "singlestep": singlestep_sample}


def memo_cfg(vp, nfe=9, **kwargs):
    return SolverConfig(grid=make_time_grid(vp, nfe, UNIFORM_LAMBDA, 1.0, 1e-3), **kwargs)


def assert_same_plan(got, want):
    """``got`` has the indices, every array's bytes and every read of ``want``."""
    assert got.idx == want.idx
    assert_plan_bits(got, vars(want))


def counting_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, a function or a method."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def counting_plans(monkeypatch):
    """Count the planner's ``_plan`` calls, which only a memo miss makes."""
    return counting_calls(monkeypatch, emsolve.solver, "_plan")


def memo(tab):
    """The plans the solver keeps for ``tab``, by key; empty for a table it never planned."""
    return emsolve.solver._PLANS.get(tab, {})


@pytest.mark.parametrize("kind, kwargs", MEMO_SETTINGS)
def test_a_memo_hit_is_a_cold_plan_naming_its_table(vp, mix4, mix_tab, monkeypatch, kind, kwargs):
    """A hit plans nothing, is the plan the miss stored and has a cold plan's bytes."""
    calls = counting_plans(monkeypatch)
    tab, cfg = IntegralTable(mix_tab.ems), memo_cfg(vp, **kwargs)
    cold = PLANNERS[kind](tab, cfg)
    warm = PLANNERS[kind](tab, cfg)
    assert len(calls) == 1 and cold.ems is tab.ems and warm is cold
    fresh = PLANNERS[kind](IntegralTable(tab.ems), cfg)
    assert len(calls) == 2
    assert_same_plan(cold, fresh)
    assert_same_plan(warm, fresh)
    rng = np.random.default_rng(34)
    x0 = vp.sigma_lambda(tab.lambda_grid[0]) * rng.standard_normal((3, 4))
    want = fresh.run(mix4, x0)
    for plan in (cold, warm):
        assert plan.run(mix4, x0).tobytes() == want.tobytes()
    # through the sampler: the first call on a fresh table plans, the second hits
    tab = IntegralTable(tab.ems)
    outs = [SAMPLERS[kind](mix4, vp, tab, cfg, x0) for _ in range(2)]
    assert len(calls) == 3
    for out in outs:
        x_final = out[0] if kind == "multistep" else out
        assert x_final.tobytes() == want.tobytes()


def test_the_memo_keys_on_every_setting_a_plan_depends_on(vp, mix_tab, monkeypatch):
    """An equal grid in a new config hits; a changed setting, grid or sampler kind misses."""
    calls = counting_plans(monkeypatch)
    tab = IntegralTable(mix_tab.ems)
    base = dict(order=3, corrector="full")
    plan_multistep(tab, memo_cfg(vp, **base))
    plan_multistep(tab, memo_cfg(vp, **base))  # a new SolverConfig and TimeGrid, equal values
    assert len(calls) == 1
    variants = [
        ("multistep", memo_cfg(vp, **{**base, "order": 2})),
        ("multistep", memo_cfg(vp, **{**base, "corrector": "half"})),
        ("multistep", memo_cfg(vp, order=3)),
        ("multistep", memo_cfg(vp, **base, pseudo_predictor=True)),
        ("multistep", memo_cfg(vp, **base, pseudo_corrector=True)),
        ("multistep", memo_cfg(vp, nfe=10, **base)),
        ("singlestep", memo_cfg(vp, order=3)),
        ("singlestep", memo_cfg(vp, order=2)),
    ]
    plans = [PLANNERS[kind](tab, cfg) for kind, cfg in variants]
    assert len(calls) == 1 + len(variants)
    again = [PLANNERS[kind](tab, cfg) for kind, cfg in variants]
    assert len(calls) == 1 + len(variants)
    for (kind, cfg), plan, hit in zip(variants, plans, again):
        assert_same_plan(hit, plan)
        assert_same_plan(plan, PLANNERS[kind](IntegralTable(tab.ems), cfg))
    # multistep and singlestep order 3 with no corrector share idx, order and flags
    multi, single = plans[2], plans[6]
    assert multi.idx == single.idx and multi.reads != single.reads


def test_the_memo_keeps_no_table_alive_and_no_copy_sees_it(vp, mix4, mix_tab, monkeypatch):
    """Refcounting frees a planned table, and its copies start with an empty memo."""
    tab = IntegralTable(mix_tab.ems)
    cfg = memo_cfg(vp, order=3, corrector="full")
    plan_singlestep(tab, memo_cfg(vp, order=3))
    plan = plan_multistep(tab, cfg)
    hit = plan_multistep(tab, cfg)
    assert len(memo(tab)) == 2 and "_plans" not in repr(tab)
    copies = [pickle.loads(pickle.dumps(tab)), copy.copy(tab), copy.deepcopy(tab)]
    copies.append(dataclasses.replace(tab))
    calls = counting_plans(monkeypatch)
    for other in copies:
        assert memo(other) == {}
        assert_same_plan(plan_multistep(other, cfg), plan)
    assert len(calls) == len(copies)
    ref, entries = weakref.ref(tab), len(emsolve.solver._PLANS)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del tab, plan
        assert ref() is None  # the hit holds the EMS table, not the integral table
        assert len(emsolve.solver._PLANS) == entries - 1  # and its memo went with it
        x0 = vp.sigma_lambda(mix_tab.lambda_grid[0]) * np.ones(4)
        assert np.isfinite(hit.run(mix4, x0)).all()
    finally:
        if enabled:
            gc.enable()


def test_a_memo_hit_is_the_stored_plan(vp, mix4, mix_tab):
    """Both planners and the samplers hand back the very plan object the miss stored."""
    tab = IntegralTable(mix_tab.ems)
    multi, single = memo_cfg(vp, order=3, corrector="full"), memo_cfg(vp, order=3)
    plan = plan_multistep(tab, multi)
    assert plan_multistep(tab, multi) is plan and plan.ems is tab.ems
    assert plan_singlestep(tab, single) is plan_singlestep(tab, single)
    x0 = vp.sigma_lambda(tab.lambda_grid[0]) * np.ones(4)
    assert multistep_sample(mix4, vp, tab, multi, x0)[1] is plan
    assert list(memo(tab).values()) == [plan, plan_singlestep(tab, single)]  # by identity


def test_a_failing_plan_raises_on_every_call_and_is_never_stored(
    vp, mix_tab, vp_lam_range, monkeypatch
):
    """A DomainError plan, a singlestep corrector and a too-fine grid raise each time."""
    lam = np.linspace(*vp_lam_range, 241)
    s = np.full((241, 4), 100.0)
    overflow = build_integral_table(EmsTable(lam, -s, s, 0 * s, 0 * s, vp))
    coarse = build_integral_table(degenerate_table(DATA_PRED, vp, 8, vp_lam_range, 4))
    tab = IntegralTable(mix_tab.ems)
    cfg = memo_cfg(vp, order=3, corrector="full")
    plan_multistep(tab, cfg)
    plan_singlestep(tab, without_corrector(cfg))
    stored = dict(memo(tab))
    calls = counting_plans(monkeypatch)
    for _ in range(2):
        with pytest.raises(DomainError, match="step plan"):
            plan_multistep(overflow, memo_cfg(vp, order=2))
        with pytest.raises(ValueError, match="singlestep sampling takes no corrector"):
            plan_singlestep(tab, cfg)
        with pytest.raises(ValueError, match="finer"):
            plan_multistep(coarse, memo_cfg(vp, nfe=40, order=1))
    assert len(calls) == 2  # only the overflowing table reached the planner
    assert memo(overflow) == {} and memo(coarse) == {} and memo(tab) == stored


def test_the_memo_never_exceeds_its_cap(vp, vp_lam_range, monkeypatch):
    """A table planned on more distinct grids than the cap clears its memo and stays correct."""
    cap = emsolve.solver._PLAN_MEMO_SIZE
    tab = build_integral_table(degenerate_table(NOISE_PRED, vp, 240, vp_lam_range, 4))
    calls = counting_plans(monkeypatch)
    sizes = []
    for nfe in range(1, cap + 6):
        plan_multistep(tab, memo_cfg(vp, nfe=nfe, order=1))
        sizes.append(len(memo(tab)))
    assert max(sizes) == cap and sizes[cap] == 1
    cfg = memo_cfg(vp, nfe=1, order=1)  # cleared with the rest, so planned again
    assert_same_plan(plan_multistep(tab, cfg), plan_multistep(IntegralTable(tab.ems), cfg))
    assert len(calls) == cap + 5 + 2


@pytest.mark.parametrize("kind, kwargs", MEMO_SETTINGS)
def test_a_warm_sampling_call_snaps_and_plans_nothing(vp, mix4, mix_tab, monkeypatch, kind, kwargs):
    """Only the cold call snaps its grid and plans; a new config or grid of equal values hits."""
    tab, cfg = IntegralTable(mix_tab.ems), memo_cfg(vp, **kwargs)
    x0 = vp.sigma_lambda(tab.lambda_grid[0]) * np.random.default_rng(35).standard_normal(4)
    plans = counting_plans(monkeypatch)
    snaps = counting_calls(monkeypatch, EmsTable, "index_of")
    checks = counting_calls(monkeypatch, emsolve.solver, "check_schedule")

    def final(cfg):
        out = SAMPLERS[kind](mix4, vp, tab, cfg, x0)
        return (out[0] if kind == "multistep" else out).tobytes()

    want = final(cfg)
    assert len(plans) == 1 and len(snaps) == 1
    equal_grid = dataclasses.replace(cfg, grid=TimeGrid(np.array(cfg.grid.lambdas)))
    for warm in (cfg, memo_cfg(vp, **kwargs), equal_grid):
        assert final(warm) == want
    assert len(plans) == 1 and len(snaps) == 1 and len(memo(tab)) == 1
    assert checks == []  # the table's own schedule passes by identity


def test_grids_that_snap_alike_get_one_entry_each_with_equal_plans(vp, mix_tab, monkeypatch):
    """The memo keys on the grid's lambdas, so grids of other values on the same indices miss."""
    tab = IntegralTable(mix_tab.ems)
    cfg = memo_cfg(vp, order=3, corrector="full")
    idx = tab.ems.index_of(cfg.grid.lambdas)
    snapped = dataclasses.replace(cfg, grid=TimeGrid(tab.lambda_grid[idx]))
    assert snapped.grid.lambdas.tobytes() != cfg.grid.lambdas.tobytes()
    assert np.array_equal(tab.ems.index_of(snapped.grid.lambdas), idx)
    calls = counting_plans(monkeypatch)
    for kind, first, second in [
        ("multistep", cfg, snapped),
        ("singlestep", without_corrector(cfg), without_corrector(snapped)),
    ]:
        plan, other = PLANNERS[kind](tab, first), PLANNERS[kind](tab, second)
        assert other is not plan
        assert_same_plan(other, plan)
        assert PLANNERS[kind](tab, second) is other and PLANNERS[kind](tab, first) is plan
    assert len(calls) == 4 and len(memo(tab)) == 4


@pytest.mark.parametrize(
    "flags",
    [dict(corrector="full"), dict(pseudo_predictor=True), dict(corrector="half", pseudo_corrector=True)],
)
def test_a_singlestep_call_with_a_corrector_names_a_bad_grid_first(
    vp, mix_tab, vp_lam_range, flags
):
    """A grid too fine or off the table raises its own error before the settings' error."""
    coarse = build_integral_table(degenerate_table(DATA_PRED, vp, 8, vp_lam_range, 4))
    tab = IntegralTable(mix_tab.ems)
    off = TimeGrid(tab.lambda_grid[-1] + np.array([1.0, 2.0]))
    for _ in range(2):
        with pytest.raises(ValueError, match="finer"):
            plan_singlestep(coarse, memo_cfg(vp, nfe=40, order=2, **flags))
        with pytest.raises(ValueError, match="outside the table range"):
            plan_singlestep(tab, SolverConfig(order=2, grid=off, **flags))
        with pytest.raises(ValueError, match="singlestep sampling takes no corrector"):
            plan_singlestep(tab, memo_cfg(vp, order=2, **flags))
    assert memo(coarse) == {} and memo(tab) == {}


class ScheduleDelegate:
    """Forwards every member to a schedule, as a tracing wrapper does; never == to it."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_the_schedule_check_takes_the_tables_schedule_by_identity_or_value(
    vp, edm, vp_lam_range, monkeypatch
):
    """A table's own schedule, a delegate included, passes unchecked; an equal one by value.

    Another schedule, a delegate of one and an object with no schedule members raise.
    """
    tab = build_integral_table(degenerate_table(NOISE_PRED, vp, 200, vp_lam_range, 4))
    delegate = ScheduleDelegate(vp)
    wrapped = dataclasses.replace(tab, ems=dataclasses.replace(tab.ems, schedule=delegate))
    check = emsolve.solver._check_schedule
    checks = counting_calls(monkeypatch, emsolve.solver, "check_schedule")
    check(vp, tab)
    check(delegate, wrapped)
    assert checks == []
    check(Schedule(VP_LINEAR), tab)
    assert len(checks) == 1
    for other, table in [(edm, tab), (ScheduleDelegate(edm), tab), (delegate, tab), (vp, wrapped)]:
        with pytest.raises(ValueError, match="the table is for schedule"):
            check(other, table)
    with pytest.raises(ValueError, match="expected a Schedule"):
        check(object(), tab)


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


@pytest.mark.parametrize("position", ["anchor", "target", "extra"])
@pytest.mark.parametrize("bad", [-1, -21, 21, 25])
def test_lupdate_checks_every_index_before_using_it(vp, vp_lam_range, position, bad):
    """An off-grid anchor, target or extra raises the package's IndexError, negative ones too.

    Before, ``-1`` wrapped to the last grid point and ``25`` reached numpy's bare
    IndexError.
    """
    tab = build_integral_table(degenerate_table(NOISE_PRED, vp, 20, vp_lam_range, 2))
    x = np.ones(2)
    j = {"anchor": 2, "target": 5, "extra": 1}
    j[position] = bad
    message = rf"^grid indices \({j['anchor']}, {bad}\) out of range \[0, 21\)$"
    with pytest.raises(IndexError, match=message):
        lupdate(tab, (j["anchor"], x, x), [(j["extra"], x)], j["target"])


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


def _lupdate_outcome(fn, tab, anchor, extras, j_t):
    try:
        return fn(tab, anchor, extras, j_t)
    except (IndexError, ValueError) as exc:
        return type(exc)


@settings(max_examples=50)
@given(
    table=st.sampled_from(sampler_golden.TABLES),
    j_s=st.integers(-1, 61),
    span=st.integers(-3, 30),
    extras=st.lists(st.integers(0, 60), max_size=3),
    values=hnp.arrays(float, (5, 4), elements=st.floats(-10.0, 10.0)),
)
@example(table="estimated", j_s=10, span=0, extras=[], values=np.ones((5, 4)))
@example(table="estimated", j_s=10, span=0, extras=[8, 13], values=np.ones((5, 4)))
@example(table=NOISE_PRED, j_s=-1, span=0, extras=[], values=np.ones((5, 4)))
@example(table=DATA_PRED, j_s=10, span=-5, extras=[], values=np.ones((5, 4)))
@example(table=DATA_PRED, j_s=20, span=10, extras=[19, 23, 14], values=np.ones((5, 4)))
@example(table=NOISE_PRED, j_s=20, span=10, extras=[17, 20], values=np.ones((5, 4)))
@example(table="estimated", j_s=20, span=10, extras=[23, 23], values=np.ones((5, 4)))
@example(table=NOISE_PRED, j_s=60, span=1, extras=[], values=np.ones((5, 4)))
def test_lupdate_equals_the_direct_update_bit_for_bit(table, j_s, span, extras, values):
    """The one-step plan gives the direct update's bits, or raises what the direct update raises.

    Extras lie before or after the anchor; a zero span, indices off the
    grid, a backward target and offsets that are zero or repeated cover
    the IndexError and ValueError cases.
    """
    tab = golden_tabs()[table]
    x_s, g_s, *gs = values
    anchor, pairs = (j_s, x_s, g_s), list(zip(extras, gs))
    want = _lupdate_outcome(direct_lupdate, tab, anchor, pairs, j_s + span)
    got = _lupdate_outcome(lupdate, tab, anchor, pairs, j_s + span)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want)


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
    trace = []
    got = plan_multistep(mix_tab, SolverConfig(order=3, grid=grid)).run(mix4, x0, trace)
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


@pytest.mark.parametrize("sampler", [multistep_sample, singlestep_sample])
@pytest.mark.parametrize("table_dim", [1, 2])
def test_samplers_reject_a_table_of_another_dimension(vp, mix4, sampler, table_dim):
    # the table's (table_dim,) fields would broadcast against the (4,) state
    tab = build_integral_table(degenerate_table(NOISE_PRED, vp, 200, (-3.0, 3.0), table_dim))
    t_start, t_end = float(vp.t_of_lambda(-3.0)), float(vp.t_of_lambda(3.0))
    cfg = SolverConfig(order=2, grid=make_time_grid(vp, 6, UNIFORM_LAMBDA, t_start, t_end))
    x0 = vp.sigma_lambda(-3.0) * np.random.default_rng(4).standard_normal(4)
    for x in (x0, np.stack([x0, -x0])):
        with pytest.raises(ValueError, match=f"for a table of dimension {table_dim}"):
            sampler(mix4, vp, tab, cfg, x)


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
    tr_half, tr_none = [], []
    half = plan_multistep(mix_tab, SolverConfig(order=2, grid=grid, corrector="half")).run(
        mix4, x0, tr_half
    )
    none = plan_multistep(mix_tab, SolverConfig(order=2, grid=grid)).run(mix4, x0, tr_none)
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
    trace = []
    plan_multistep(mix_tab, SolverConfig(order=2, grid=grid)).run(mix4, x0, trace)
    assert len(trace) == 5
    assert [r["t"] for r in trace] == sorted((r["t"] for r in trace), reverse=True)
    for row in trace[:-1]:
        assert row["eps_norm"] > 0 and row["g_norm"] > 0 and len(row["x"]) == 4
        # a (D,) run's norms stay np.linalg.norm's floats, which solve --trace writes
        assert type(row["eps_norm"]) is float
        assert row["eps_norm"] == float(np.linalg.norm(row["eps"]))
    assert trace[-1]["eps_norm"] is None


def test_batch_trace_norms_are_each_rows_own_norm(vp, mix4, mix_tab):
    """Each batch row's ``eps_norm`` is ``np.linalg.norm`` of its ``(D,)`` eps, bit for bit.

    ``np.linalg.norm(eps, axis=-1)`` sums the squares in another order: it
    differs in the last bit on about 12% of standard-normal ``(4,)`` rows.
    """
    grid = make_time_grid(vp, 10, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(16)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal((64, 4))
    trace = []
    plan_multistep(mix_tab, SolverConfig(order=2, grid=grid, corrector="full")).run(mix4, x0, trace)
    for row in trace[:-1]:
        assert row["eps_norm"].shape == row["g_norm"].shape == (64,)
        assert row["eps_norm"].tolist() == [float(np.linalg.norm(eps)) for eps in row["eps"]]


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_trace_rows_own_their_arrays(vp, mix4, mix_tab, shape):
    grid = make_time_grid(vp, 5, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng = np.random.default_rng(15)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng.standard_normal(shape)
    cfg = SolverConfig(order=3, grid=grid, corrector="full")
    trace = []
    x_final = plan_multistep(mix_tab, cfg).run(mix4, x0, trace)
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
    for order in (3.0, 2.5, "2", True, np.bool_(True)):
        with pytest.raises(ValueError, match="order must be an integer"):
            SolverConfig(order=order, grid=grid)
    with pytest.raises(ValueError, match="grid must be a TimeGrid"):
        SolverConfig(order=2, grid=grid.lambdas)
    assert SolverConfig(order=np.int64(2), grid=grid).order == 2


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
    """Row ``i`` of one step of a batched trace: every array and norm at row i."""
    shared = ("t", "lambda")
    return {k: v if k in shared or v is None else v[i] for k, v in step.items()}


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
    plan, batch_trace = plan_multistep(tab, cfg), []
    batch = plan.run(mix4, x0, batch_trace)
    row_traces = [[] for _ in x0]
    rows = [plan.run(mix4, x, trace) for x, trace in zip(x0, row_traces)]
    assert np.array_equal(batch, np.stack(rows))
    assert np.array_equal(multistep_sample(mix4, vp, tab, cfg, x0)[0], batch)
    for i, row_trace in enumerate(row_traces):
        assert len(batch_trace) == len(row_trace)
        for step, want in zip(batch_trace, row_trace):
            got = _trace_row_of(step, i)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[key], want[key]) for key in want)
            assert all(type(want[key]) in (float, type(None)) for key in ("eps_norm", "g_norm"))
    cfg = without_corrector(cfg)
    batch = singlestep_sample(mix4, vp, tab, cfg, x0)
    rows = np.stack([singlestep_sample(mix4, vp, tab, cfg, x) for x in x0])
    assert np.array_equal(batch, rows)


@pytest.mark.parametrize("planner", [plan_multistep, plan_singlestep])
def test_one_plan_runs_rows_and_batches_as_the_samplers_do(vp, mix4, mix_tab, planner):
    """A plan run twice, on (D,) then (B, D), gives the samplers' bits; its trace is opt-in."""
    cfg = SolverConfig(
        order=3, grid=make_time_grid(vp, 9, UNIFORM_LAMBDA, 1.0, 1e-3), corrector="half"
    )
    if planner is plan_singlestep:
        cfg = without_corrector(cfg)
    plan = planner(mix_tab, cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.reads = ()
    stacked = (plan.lams, plan.ts, plan.sigmas, *plan.maps, plan.scale, plan.alpha_s, plan.int_EB)
    assert not any(arr.flags.writeable for arr in stacked + (plan.weights,))
    rng = np.random.default_rng(22)
    sigma0 = vp.sigma_lambda(mix_tab.lambda_grid[0])
    for x0 in (sigma0 * rng.standard_normal(4), sigma0 * rng.standard_normal((3, 4))):
        trace = []
        got = plan.run(mix4, x0, trace)
        assert np.array_equal(plan.run(mix4, x0), got)
        assert [row["t"] for row in trace] == plan.ts[1:].tolist()
        assert [row["lambda"] for row in trace] == plan.lams[1:].tolist()
        if planner is plan_singlestep:
            assert np.array_equal(singlestep_sample(mix4, vp, mix_tab, cfg, x0), got)
            continue
        want, want_plan = multistep_sample(mix4, vp, mix_tab, cfg, x0)
        assert np.array_equal(got, want)
        want_trace = []
        want_plan.run(mix4, x0, want_trace)
        for row, want_row in zip(trace, want_trace, strict=True):
            assert all(np.array_equal(row[key], want_row[key]) for key in row)


@st.composite
def _rowmajor_cases(draw):
    """A golden table, a sampler config of either kind on either grid, and a state shape."""
    case = draw(_sampler_cases())
    singlestep = draw(st.booleans())
    if singlestep:
        case.update(corrector="none", pseudo_predictor=False, pseudo_corrector=False)
    case.update(
        singlestep=singlestep,
        kind=draw(st.sampled_from([UNIFORM_LAMBDA, UNIFORM_T])),
        nfe=draw(st.integers(1, 15)),
        shape=draw(st.sampled_from([(4,), (1, 4), (5, 4), (2, 3, 4)])),
    )
    return case


@settings(max_examples=80)
@given(case=_rowmajor_cases())
@example(
    case=dict(
        order=3,
        corrector="full",
        pseudo_predictor=True,
        pseudo_corrector=True,
        table="estimated",
        seed=1,
        singlestep=False,
        kind=UNIFORM_T,
        nfe=9,
        shape=(5, 4),
    )
)
def test_runs_equal_the_rowmajor_oracle_bit_for_bit(case):
    """``plan.run`` gives the bits of the step-by-step, row-major sampler, on rows and batches.

    Planning per group of steps and running coordinate-major reassociate no
    sum: the golden test's 1e-12 tolerance is near the predictor's own rounding.
    """
    tab = golden_tabs()[case["table"]]
    grid = make_time_grid(sampler_golden.SCHED, case["nfe"], case["kind"], 1.0, 1e-3)
    keys = ("order", "corrector", "pseudo_predictor", "pseudo_corrector")
    cfg = SolverConfig(grid=grid, **{key: case[key] for key in keys})
    plan = (plan_singlestep if case["singlestep"] else plan_multistep)(tab, cfg)
    rng = np.random.default_rng(case["seed"])
    x0 = sampler_golden.SCHED.sigma_lambda(tab.lambda_grid[0]) * rng.standard_normal(case["shape"])
    got = plan.run(sampler_golden.MODEL, x0)
    want = rowmajor_run(tab, plan, cfg, sampler_golden.MODEL, x0)
    assert got.shape == x0.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


# -- singlestep sampler ---------------------------------------------------------------


@pytest.mark.parametrize(
    "flags",
    [
        {"corrector": "full"},
        {"corrector": "half"},
        {"corrector": "full", "pseudo_corrector": True},
        {"pseudo_predictor": True},
    ],
)
def test_singlestep_rejects_corrector_and_pseudo_flags(vp, mix4, mix_tab, flags):
    # these settings used to be ignored, giving the plain run's bits
    cfg = SolverConfig(order=3, grid=make_time_grid(vp, 6, UNIFORM_LAMBDA, 1.0, 1e-3), **flags)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * np.ones(4)
    with pytest.raises(ValueError, match="singlestep sampling takes no corrector"):
        singlestep_sample(mix4, vp, mix_tab, cfg, x0)
    multistep_sample(mix4, vp, mix_tab, cfg, x0)  # the same config is fine for multistep

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


def _dpm_solver_pp_step(sched: Schedule, x_s, eps_s, t_s: float, t_t: float):
    """DPM-Solver++(1) (arXiv 2211.01095): the first-order data-prediction update."""
    h = sched.lambda_of_t(t_t) - sched.lambda_of_t(t_s)
    alpha_s, sigma_s = alpha_of_t(sched, t_s), sigma_of_t(sched, t_s)
    alpha_t, sigma_t = alpha_of_t(sched, t_t), sigma_of_t(sched, t_t)
    return (sigma_t / sigma_s) * x_s - alpha_t * np.expm1(-h) * (x_s - sigma_s * eps_s) / alpha_s


def _check_first_order_run(case, kind, step):
    """Order 1 on the ``kind`` degenerate table equals ``step`` looped over the snapped times.

    The sampling grid is trimmed inside the table's range, so its points
    snap.  Errors are relative to the larger of the result and the initial
    state carried to the end, since a few large steps can cancel most of it.
    """
    sched, model = case["sched"], case["model"]
    t_hi, t_lo = sched.t_domain[1], max(sched.t_domain[0], 1e-3)
    lam_lo, lam_hi = float(sched.lambda_of_t(t_hi)), float(sched.lambda_of_t(t_lo))
    table = degenerate_table(kind, sched, 240, (lam_lo, lam_hi), model.dim)
    tab = build_integral_table(table)
    width = lam_hi - lam_lo
    t_start = float(sched.t_of_lambda(lam_lo + case["trim"][0] * width))
    t_end = float(sched.t_of_lambda(lam_hi - case["trim"][1] * width))
    grid = make_time_grid(sched, case["nfe"], UNIFORM_LAMBDA, t_start, t_end)
    rng = np.random.default_rng(case["seed"])
    x0 = sched.sigma_lambda(lam_lo) * rng.standard_normal((case["rows"], model.dim))
    got, plan = multistep_sample(model, sched, tab, SolverConfig(order=1, grid=grid), x0)
    ts = plan.ts.tolist()
    want = x0
    for t_s, t_t in zip(ts[:-1], ts[1:]):
        want = step(sched, want, model.eps(sched, want, sched.lambda_of_t(t_s)), t_s, t_t)
    carried = np.max(np.abs(x0)) * alpha_of_t(sched, ts[-1]) / alpha_of_t(sched, ts[0])
    scale = max(np.max(np.abs(want)), carried)
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


@settings(max_examples=50)
@given(case=_ddim_cases())
def test_noise_pred_first_order_equals_ddim(case):
    """Criterion 4 over whole runs: order 1 on the noise-prediction table is DDIM."""
    _check_first_order_run(case, NOISE_PRED, ddim_step)


@settings(max_examples=50)
@given(case=_ddim_cases())
def test_data_pred_first_order_equals_dpm_solver_pp(case):
    """Order 1 on the data-prediction table is DPM-Solver++(1)."""
    _check_first_order_run(case, DATA_PRED, _dpm_solver_pp_step)


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
