import copy
import dataclasses
import functools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from emsolve import (
    DomainError,
    EmsConfig,
    EmsTable,
    IntegralTable,
    SolverConfig,
    build_integral_table,
    degenerate_table,
    estimate_table,
    g_map,
    lupdate,
    load_table,
    make_time_grid,
    plan_multistep,
    save_table,
    transition_coefficients,
)
from emsolve.integrals import _const_int_EB, poly_exp_integral
from emsolve.ems import DATA_PRED, NOISE_PRED
from emsolve.schedule import EDM, VP_COSINE, VP_LINEAR, Schedule

import sampler_golden
from oracles import (
    const_int_EB_two_branch,
    pair_g_map,
    pair_transition_coefficients,
    poly_exp_integral_two_branch,
    quadrature_table,
)

LAM_RANGE = (-4.0, 4.0)


def make_constant_table(sched, n, c_l, c_s, c_b, dim=None):
    dim = dim if dim is not None else len(np.atleast_1d(c_l))
    grid = np.linspace(*LAM_RANGE, n + 1)
    ones = np.ones((n + 1, dim))
    return EmsTable(
        lambda_grid=grid,
        l=ones * c_l,
        s=ones * c_s,
        b=ones * c_b,
        l_dot=np.zeros((n + 1, dim)),
        schedule=sched,
        meta={},
    )


@pytest.fixture(scope="module")
def smooth_table(vp):
    """Smoothly varying non-constant fields for identity/caching checks."""
    grid = np.linspace(*LAM_RANGE, 161)
    l = 0.5 + 0.4 * np.sin(grid)[:, None] * np.array([1.0, -0.5])
    s = -0.3 + 0.2 * np.cos(grid)[:, None] * np.array([0.7, 1.0])
    b = 0.1 * np.sin(0.5 * grid)[:, None] * np.array([1.0, 2.0])
    return EmsTable(
        lambda_grid=grid, l=l, s=s, b=b, l_dot=np.zeros((161, 2)), schedule=vp, meta={}
    )


# -- cumulative integrals ------------------------------------------------------


def test_build_zero_fields(vp):
    table = make_constant_table(vp, 40, [0.0], [0.0], [0.0])
    tab = quadrature_table(table)
    for name in ("L", "S", "B", "C"):
        assert np.max(np.abs(getattr(tab, name))) < 1e-14
    want = table.lambda_grid - table.lambda_grid[0]
    assert np.max(np.abs(tab.I[:, 0] - want)) < 1e-12
    assert np.all(np.diff(tab.I[:, 0]) > 0)


def test_build_unit_l_refines_to_exponential(vp):
    errs = []
    for n in (40, 80):
        table = make_constant_table(vp, n, [1.0], [0.0], [0.0])
        tab = quadrature_table(table)
        span = table.lambda_grid - table.lambda_grid[0]
        assert np.max(np.abs(tab.L[:, 0] - span)) < 1e-12
        errs.append(np.max(np.abs(tab.I[:, 0] - np.expm1(span))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_build_constant_b_polynomial_exact(vp):
    beta = 0.75
    table = make_constant_table(vp, 64, [0.0], [0.0], [beta])
    tab = quadrature_table(table)
    span = table.lambda_grid - table.lambda_grid[0]
    assert np.max(np.abs(tab.B[:, 0] - beta * span)) < 1e-12
    # C integrates a degree-1 polynomial: the trapezoid is exact
    assert np.max(np.abs(tab.C[:, 0] - beta * span**2 / 2.0)) < 1e-12


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"l": 800.0}, "C"),  # exp(L + S) overflows, and C takes inf * 0
        ({"s": -800.0}, "B"),  # exp(-S) overflows
        ({"l": 1e308}, "L"),  # the trapezoid's sum overflows
    ],
)
def test_build_rejects_fields_that_overflow(vp, fields, name):
    grid = np.linspace(0.0, 2.0, 5)
    arrays = {key: np.full((5, 2), fields.get(key, 0.0)) for key in ("l", "s", "b")}
    table = EmsTable(
        lambda_grid=grid, l_dot=np.zeros((5, 2)), schedule=vp, meta={}, **arrays
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the DomainError is the only signal
        with pytest.raises(DomainError, match=f"integral {name} has non-finite"):
            build_integral_table(table)


def test_integral_table_takes_only_ems(smooth_table):
    assert [f.name for f in dataclasses.fields(IntegralTable) if f.init] == ["ems"]
    tab = IntegralTable(smooth_table)
    with pytest.raises(TypeError):
        IntegralTable(smooth_table, tab.L)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(tab, L=tab.L)
    # what is not a table is refused when built, not when a field is first read
    with pytest.raises(ValueError, match="^expected an EmsTable, got a NoneType$"):
        IntegralTable(None)
    with pytest.raises(ValueError, match="^expected an EmsTable, got a str$"):
        build_integral_table("x")


def test_an_integral_table_holds_only_its_fields(vp, smooth_table):
    """No other module keeps state on a table: a planned table's attributes are its fields."""
    tab = IntegralTable(smooth_table)
    fields = {f.name for f in dataclasses.fields(IntegralTable)}
    assert set(vars(tab)) == fields
    grid = make_time_grid(vp, 8, "uniform-lambda", *vp.t_of_lambda(np.array(LAM_RANGE)))
    plan_multistep(tab, SolverConfig(order=3, grid=grid, corrector="full"))
    assert set(vars(tab)) == fields


@pytest.mark.parametrize("kind", [VP_LINEAR, VP_COSINE, EDM])
def test_grid_values_are_the_schedules_own_calls(kind):
    """t, alpha and sigma have the bits of the schedule's calls, on the grid and at its points.

    So do a replaced, deep-copied or unpickled table's; one built on another
    grid has that grid's.  The arrays are read-only.
    """
    sched = Schedule(kind)
    lo = sched.lam_domain[0]
    ems = degenerate_table(NOISE_PRED, sched, 40, (lo, lo + 8.0), 2)
    ems = dataclasses.replace(ems, l=ems.l + 0.1 * np.sin(ems.lambda_grid)[:, None])
    tab = build_integral_table(ems)
    shifted = degenerate_table(DATA_PRED, sched, 24, (lo + 0.5, lo + 6.0), 2)
    tables = [
        tab,
        copy.deepcopy(tab),
        pickle.loads(pickle.dumps(tab)),
        dataclasses.replace(tab, ems=shifted),
    ]
    points = np.array([0, 3, 3, 17, 24])
    for table in tables:
        grid = table.lambda_grid
        for name in ("t", "alpha", "sigma"):
            method = "t_of_lambda" if name == "t" else f"{name}_lambda"
            got, call = getattr(table, name), getattr(sched, method)
            assert same_bits(got, call(grid)) and not got.flags.writeable, name
            assert same_bits(got[points], call(grid[points])), name
            assert all(same_bits(got[j], call(float(grid[j]))) for j in points), name
    assert len(tables[-1].t) == 25


def test_integral_table_rejects_a_grid_off_the_schedule_domain(vp, tmp_path):
    """Built directly or loaded from a file, a table whose grid leaves the domain fails to build."""
    grid = np.linspace(-30.0, 2.0, 21)  # vp-linear's lambda domain is (-5.02, inf)
    zeros = np.zeros((21, 2))
    ems = EmsTable(grid, zeros, zeros - 1.0, zeros, zeros, vp)
    for build in (IntegralTable, build_integral_table):
        with pytest.raises(DomainError, match=r"lambda=-30\.0 outside schedule range"):
            build(ems)
    save_table(ems, tmp_path / "off.json")
    loaded = load_table(tmp_path / "off.json")  # the file itself is well formed
    with pytest.raises(DomainError, match=r"lambda=-30\.0 outside schedule range"):
        build_integral_table(loaded)


def test_a_replaced_table_samples_as_one_built_from_it(vp, mix4, vp_lam_range):
    """``replace(tab, ems=other)`` recomputes the integrals, so it samples as a fresh table."""
    cfg = EmsConfig(num_timesteps=60, num_datapoints=64, lam_range=vp_lam_range, seed=3)
    estimated = build_integral_table(estimate_table(mix4, vp, cfg))
    data_pred = degenerate_table(DATA_PRED, vp, 60, vp_lam_range, 4)
    swapped, built = dataclasses.replace(estimated, ems=data_pred), build_integral_table(data_pred)
    assert all(same_bits(getattr(swapped, n), getattr(built, n)) for n in "LSBCI")
    assert swapped.const_lsb is not None
    solver_cfg = SolverConfig(order=2, grid=make_time_grid(vp, 6, "uniform-lambda", 1.0, 1e-3))
    x_init = np.ones(4)
    got = plan_multistep(swapped, solver_cfg).run(mix4, x_init)
    assert same_bits(got, plan_multistep(built, solver_cfg).run(mix4, x_init))


# -- update coefficients ---------------------------------------------------------


def test_coeff_A_examples(vp):
    unit = quadrature_table(make_constant_table(vp, 64, [1.0], [0.0], [0.0]))
    zero = quadrature_table(make_constant_table(vp, 64, [0.0], [0.0], [0.0]))
    lam = unit.lambda_grid
    assert np.allclose(transition_coefficients(unit, 12, 12, 0).A, 1.0)
    A = transition_coefficients(unit, 10, 50, 0).A
    assert np.allclose(A, np.exp(lam[10] - lam[50]), atol=1e-12)
    assert np.allclose(transition_coefficients(zero, 3, 60, 0).A, 1.0, atol=1e-14)


def test_coeff_int_EB_examples(vp):
    zero_b = quadrature_table(make_constant_table(vp, 64, [0.4], [-0.2], [0.0]))
    assert np.allclose(transition_coefficients(zero_b, 5, 40, 0).int_EB, 0.0, atol=1e-14)
    assert np.allclose(transition_coefficients(zero_b, 7, 7, 0).int_EB, 0.0)
    # with l = s = 0 every integrand involved is polynomial of degree <= 1,
    # so the hand value beta h^2 / 2 is reproduced exactly
    beta = 0.6
    tab = quadrature_table(make_constant_table(vp, 64, [0.0], [0.0], [beta]))
    j_s, j_t = 16, 48
    h = tab.lambda_grid[j_t] - tab.lambda_grid[j_s]
    int_EB = transition_coefficients(tab, j_s, j_t, 0).int_EB
    assert float(int_EB[0]) == pytest.approx(beta * h**2 / 2.0, rel=1e-12)


def test_coeff_E0_examples(vp):
    flat = quadrature_table(make_constant_table(vp, 64, [0.5], [-0.5], [0.0]))
    h = flat.lambda_grid[40] - flat.lambda_grid[8]
    assert np.allclose(transition_coefficients(flat, 8, 40, 0).E[0], h, atol=1e-12)
    assert np.allclose(transition_coefficients(flat, 9, 9, 0).E[0], 0.0)
    errs = []
    for n in (64, 128):
        tab = quadrature_table(make_constant_table(vp, n, [0.0], [-1.0], [0.0]))
        j_s, j_t = n // 4, 3 * n // 4
        h = tab.lambda_grid[j_t] - tab.lambda_grid[j_s]
        E0 = transition_coefficients(tab, j_s, j_t, 0).E[0]
        errs.append(abs(float(E0[0]) - (1.0 - np.exp(-h))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_coeff_E0_identity_matches_direct_trapezoid(smooth_table):
    tab = build_integral_table(smooth_table)
    rng = np.random.default_rng(0)
    for _ in range(25):
        j_s = int(rng.integers(0, 150))
        j_t = int(rng.integers(j_s, 161))
        lam = smooth_table.lambda_grid[j_s : j_t + 1]
        ls = tab.L[j_s : j_t + 1] + tab.S[j_s : j_t + 1]
        direct = (
            np.trapezoid(np.exp(ls - ls[0]), dx=smooth_table.spacing, axis=0)
            if len(lam) >= 2
            else np.zeros(2)
        )
        assert np.max(np.abs(transition_coefficients(tab, j_s, j_t, 0).E[0] - direct)) < 1e-12


def test_coeff_Ek_flat_cases(vp):
    flat = quadrature_table(make_constant_table(vp, 64, [0.5], [-0.5], [0.0]))
    h = flat.lambda_grid[48] - flat.lambda_grid[16]
    # degree-1 integrand: trapezoid exact
    assert np.allclose(transition_coefficients(flat, 16, 48, 1).E[1], h**2 / 2.0, atol=1e-12)
    errs = []
    for n in (64, 128):
        tab = quadrature_table(make_constant_table(vp, n, [0.3], [-0.3], [0.0]))
        j_s, j_t = n // 4, 3 * n // 4
        hh = tab.lambda_grid[j_t] - tab.lambda_grid[j_s]
        errs.append(abs(float(transition_coefficients(tab, j_s, j_t, 2).E[2][0]) - hh**3 / 6.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    with pytest.raises(ValueError):
        transition_coefficients(flat, 0, 10, 4)
    with pytest.raises(ValueError):
        transition_coefficients(flat, 10, 5, 1)


def test_coeff_Ek_is_deterministic(smooth_table):
    # a step plan computes each E^k once; recomputing it must give the same bits
    tab = build_integral_table(smooth_table)
    first, again = (transition_coefficients(tab, 10, 90, 2).E[2] for _ in range(2))
    assert np.array_equal(first, again)


def test_g_coefficients_examples(vp, edm):
    zero = quadrature_table(make_constant_table(vp, 64, [0.0], [0.0], [0.0]))
    lam = float(zero.lambda_grid[30])
    a, b, c = g_map(zero, 30, 30)
    assert np.allclose(a, 0.0) and np.allclose(c, 0.0)
    assert np.allclose(b, np.exp(-lam), atol=1e-14)


def test_g_coefficients_data_pred_is_negative_data_prediction(vp):
    tab = quadrature_table(make_constant_table(vp, 64, [1.0], [0.0], [0.0], dim=3))
    j_a, j_l = 20, 44
    lam = float(tab.lambda_grid[j_l])
    a, b, c = g_map(tab, j_a, j_l)
    assert np.allclose(c, 0.0, atol=1e-14)
    rng = np.random.default_rng(1)
    x, eps = rng.standard_normal(3), rng.standard_normal(3)
    alpha, sigma = float(vp.alpha_lambda(lam)), float(vp.sigma_lambda(lam))
    data_prediction = (x - sigma * eps) / alpha
    assert np.allclose(a * x + b * eps + c, -data_prediction, rtol=1e-12)


def test_g_coefficients_zero_b_gives_zero_intercept(smooth_table, vp):
    table = EmsTable(
        lambda_grid=smooth_table.lambda_grid,
        l=smooth_table.l,
        s=smooth_table.s,
        b=np.zeros_like(smooth_table.b),
        l_dot=smooth_table.l_dot,
        schedule=vp,
        meta={},
    )
    tab = build_integral_table(table)
    _, _, c = g_map(tab, 15, 100)
    assert np.allclose(c, 0.0, atol=1e-14)


# -- closed forms ------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,h,k",
    [(0.5, 2.0, 0), (-1.0, 1.5, 2), (1e-5, 1.0, 1), (0.0, 1.0, 3), (-0.3, -0.7, 0), (2.0, 0.3, 3)],
)
def test_poly_exp_integral_against_quadrature(a, h, k):
    got = float(poly_exp_integral(np.array([a]), h, k)[0])
    want, _ = quad(lambda d: np.exp(a * d) * d**k / math.factorial(k), 0.0, h)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6),
    k=st.integers(0, 12),
)
@example(steps=[0.0, -0.0, 1.0, -1.0, 40.0, -40.0], k=4)
def test_poly_exp_integral_powers_have_python_float_power_bits(steps, k):
    """The powers h^m are built at once with the bits of the ``v**m`` list, for m <= 12.

    For k <= 4 a small column runs the series, which reads h^0 .. h^(k + 8);
    above, every column is large and the recurrence reads h^0 .. h^k.  Each
    step's result has the bits of the scalar two-branch form, and integer
    steps, a scalar or an array, have the bits and shape of the same steps
    as floats.
    """
    a = np.array([1e-5, -1.0] if k <= 4 else [0.5, -1.0])
    top = k + 9 if k <= 4 else k + 1
    built, original = [], np.float_power

    def spy(*args):
        built.append(original(*args))
        return built[-1]

    np.float_power = spy
    try:
        got = poly_exp_integral(a, np.array(steps), k)
    finally:
        np.float_power = original
    (powers,) = built
    assert same_bits(powers, np.array([[v**m for m in range(top)] for v in steps]))
    for row, v in zip(got, steps):
        assert same_bits(row, poly_exp_integral_two_branch(a, v, k)), v
    for ints in (2, np.array([1, 3])):
        floats = np.asarray(ints, dtype=float)
        assert same_bits(poly_exp_integral(a, ints, k), poly_exp_integral(a, floats, k)), ints


CLOSED_FORM_COLUMNS = {
    "all-small": [1e-5, -2e-4, 0.0],
    "all-large": [0.5, -1.0, 2.0],
    "mixed": [1e-5, -1.0, 0.0],
}


@pytest.mark.parametrize("columns", CLOSED_FORM_COLUMNS, ids=str)
def test_closed_forms_have_the_two_branch_bits(vp, columns, monkeypatch):
    """Each closed form evaluates only the branches its entries take, with the two-branch bits.

    ``c_s`` columns all below the series threshold, all above it, and mixed;
    steps of both signs and of length 0.  With every column small no
    ``expm1`` runs (the recurrence is skipped), and with every column large
    no ``zeros`` (the series is).
    """
    c_s = np.array(CLOSED_FORM_COLUMNS[columns])
    c_l, c_b = np.array([0.3, -0.7, 1.0]), np.array([0.2, -0.1, 0.5])
    h = np.array([0.0, 0.05, -0.3, 1.7, 4.0])
    calls = []

    def counting(name):
        original = getattr(np, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("expm1", "zeros"):
        monkeypatch.setattr(np, name, counting(name))
    powers = [poly_exp_integral(c_s, h, k) for k in range(4)]
    monkeypatch.undo()
    assert ("expm1" not in calls) == (columns == "all-small")
    assert ("zeros" not in calls) == (columns == "all-large")
    for k, got in enumerate(powers):
        for row, v in zip(got, h):
            assert same_bits(row, poly_exp_integral_two_branch(c_s, float(v), k)), (k, v)
    got = _const_int_EB(c_l, c_s, c_b, h)
    for row, v in zip(got, h):
        assert same_bits(row, const_int_EB_two_branch(c_l, c_s, c_b, float(v))), v
    # and through a constant table's coefficients
    tab = build_integral_table(make_constant_table(vp, 30, c_l, c_s, c_b))
    j_s, j_t = np.array([0, 4, 9, 9, 20]), np.array([30, 5, 9, 12, 28])
    batch = transition_coefficients(tab, j_s, j_t, 3)
    maps = g_map(tab, 7, j_t)
    for i, (a, b) in enumerate(zip(j_s, j_t)):
        want = pair_transition_coefficients(tab, a, b, 3)
        assert all(same_bits(x[i], y) for x, y in zip(batch[:4], want[:4]))
        assert all(same_bits(x[i], y) for x, y in zip(batch.E, want.E))
        assert all(same_bits(x[i], y) for x, y in zip(maps, pair_g_map(tab, 7, b)))


def test_closed_forms_are_refinement_limits(vp):
    c_l = np.array([0.7, 0.3]);  c_s = np.array([-0.4, 0.25]);  c_b = np.array([0.25, -0.5])
    errs = {"E0": [], "E2": [], "intEB": [], "g_c": []}
    for n in (80, 160):
        table = make_constant_table(vp, n, c_l, c_s, c_b)
        exact, tab = build_integral_table(table), quadrature_table(table)
        assert exact.const_lsb is not None
        j_s, j_t = n // 4, 3 * n // 4
        got = transition_coefficients(tab, j_s, j_t, 2)
        want = transition_coefficients(exact, j_s, j_t, 2)
        errs["E0"].append(np.max(np.abs(got.E[0] - want.E[0])))
        errs["E2"].append(np.max(np.abs(got.E[2] - want.E[2])))
        errs["intEB"].append(np.max(np.abs(got.int_EB - want.int_EB)))
        errs["g_c"].append(np.max(np.abs(g_map(tab, j_s, j_t)[2] - g_map(exact, j_s, j_t)[2])))
        assert np.max(np.abs(got.A - want.A)) < 1e-12
    for name, (e1, e2) in errs.items():
        assert e1 / e2 == pytest.approx(4.0, abs=0.5), name


def test_dispatch_uses_closed_forms_on_constant_tables(vp):
    c_l, c_s, c_b = np.array([0.0]), np.array([-1.0]), np.array([0.0])
    table = make_constant_table(vp, 32, c_l, c_s, c_b)
    tab = build_integral_table(table)  # detection on
    assert tab.const_lsb is not None
    E0 = transition_coefficients(tab, 4, 20, 0).E[0]
    h = float(table.lambda_grid[20] - table.lambda_grid[4])
    assert E0 == pytest.approx(1.0 - np.exp(-h), rel=1e-14)
    # quadrature at this resolution would be off by ~h0^2, far beyond 1e-14
    quad_E0 = transition_coefficients(quadrature_table(table), 4, 20, 0).E[0]
    assert float(quad_E0[0]) != pytest.approx(1.0 - np.exp(-h), rel=1e-10)


def test_dispatch_matches_functions_on_varying_tables(smooth_table):
    tab = build_integral_table(smooth_table)
    assert tab.const_lsb is None
    j_s, j_t = 10, 60
    L, S, B, C, I = tab.L, tab.S, tab.B, tab.C, tab.I
    tr = transition_coefficients(tab, j_s, j_t, 2)
    # the quadrature formulas, restated
    assert np.array_equal(tr.A, np.exp(L[j_s] - L[j_t]))
    want_EB = np.exp(-L[j_s]) * (C[j_t] - C[j_s] - B[j_s] * (I[j_t] - I[j_s]))
    assert np.array_equal(tr.int_EB, want_EB)
    assert np.array_equal(tr.E[0], np.exp(-L[j_s] - S[j_s]) * (I[j_t] - I[j_s]))
    lam = tab.lambda_grid[j_s : j_t + 1]
    ls = L[j_s : j_t + 1] + S[j_s : j_t + 1]
    w = np.exp(ls - ls[0]) * (lam - lam[0])[:, None] ** 2 / math.factorial(2)
    assert np.array_equal(tr.E[2], np.trapezoid(w, dx=smooth_table.spacing, axis=0))
    assert len(tr.E) == 3
    lam_t = tab.lambda_grid[j_t]
    ds = S[j_t] - S[j_s]
    want_g = (
        -np.exp(-ds) * smooth_table.l[j_t] / smooth_table.schedule.alpha_lambda(lam_t),
        np.exp(-ds - lam_t),
        -np.exp(S[j_s]) * (B[j_t] - B[j_s]),
    )
    for got, want in zip(g_map(tab, j_s, j_t), want_g):
        assert np.array_equal(got, want)


def test_index_errors(smooth_table):
    tab = build_integral_table(smooth_table)
    with pytest.raises(IndexError):
        transition_coefficients(tab, 0, 500, 0)
    with pytest.raises(ValueError):
        transition_coefficients(tab, 50, 10, 0)


@pytest.mark.parametrize("path", ["closed-form", "quadrature"])
def test_index_errors_on_both_coefficient_paths(vp, path):
    ems = degenerate_table(NOISE_PRED, vp, 20, LAM_RANGE, 2)
    tab = build_integral_table(ems) if path == "closed-form" else quadrature_table(ems)
    assert (tab.const_lsb is not None) == (path == "closed-form")
    x = np.ones(2)
    for j_s, j_t in ((-1, 5), (0, 21), (21, 21)):
        with pytest.raises(IndexError):
            transition_coefficients(tab, j_s, j_t, 1)
        with pytest.raises(IndexError):
            g_map(tab, j_s, j_t)
    with pytest.raises(IndexError):
        g_map(tab, 0, -1)
    with pytest.raises(ValueError):
        transition_coefficients(tab, 5, 2, 1)
    for n in (-1, 4):
        with pytest.raises(ValueError, match="n must be in"):
            transition_coefficients(tab, 2, 5, n)
    with pytest.raises(IndexError):
        lupdate(tab, (-1, x, x), [], -1)


# -- batched calls against the per-pair oracle ------------------------------------

@functools.cache
def golden_tabs():
    """The golden integral tables, and the estimated one's first column as a one-column table.

    numpy sums a lone column pairwise and wider rows in order, so the one-column
    table checks that each pair's E^k still sums exactly its own points.
    """
    tabs = sampler_golden.integral_tables()
    ems = tabs["estimated"].ems
    columns = {name: getattr(ems, name)[:, :1] for name in ("l", "s", "b", "l_dot")}
    tabs["estimated-1d"] = build_integral_table(dataclasses.replace(ems, **columns))
    return tabs


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()  # tells -0.0 from 0.0


@st.composite
def _index_batches(draw):
    """A table's name, index arrays ``j_s``/``j_t`` of mixed spans (0 included), and n.

    Some batches hold an off-grid or a backward pair, or an n outside [0, 3].
    """
    table = draw(st.sampled_from(sorted(golden_tabs())))
    size = len(golden_tabs()[table].lambda_grid)
    starts = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
    spans = draw(st.lists(st.integers(0, size - 1), min_size=len(starts), max_size=len(starts)))
    j_s = starts
    j_t = [min(j + m, size - 1) for j, m in zip(starts, spans)]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(j_s) - 1))
        j_s[k], j_t[k] = draw(
            st.sampled_from([(-1, j_t[k]), (j_s[k], size), (size, size), (j_t[k] + 1, j_t[k])])
        )
    n = draw(st.integers(-1, 4) if draw(st.booleans()) else st.integers(0, 3))
    return table, j_s, j_t, n


def _expected_error(calls):
    """The error a batch raises when the per-pair oracle fails on some pair: IndexError first."""
    errors = set()
    for call in calls:
        try:
            call()
        except (IndexError, ValueError) as exc:
            errors.add(type(exc))
    return IndexError if IndexError in errors else (ValueError if errors else None)


@settings(max_examples=150)
@given(case=_index_batches())
@example(case=("estimated", [7, 7, 0, 30], [7, 40, 60, 31], 3))
# steps whose h ** 3 numpy rounds differently from Python, on both closed forms
@example(case=(NOISE_PRED, [0, 5, 11, 12], [5, 5, 16, 60], 3))
@example(case=(DATA_PRED, [0, 0, 3, 7], [31, 5, 3, 40], 3))
# spans from 0 to 60 in one batch of the one-column table
@example(case=("estimated-1d", [0, 0, 0, 2, 9], [6, 7, 60, 12, 9], 3))
def test_batched_coefficients_equal_the_per_pair_oracle(case):
    """Each row of a batched call has the per-pair oracle's bits, and the batch its error type."""
    table, j_s, j_t, n = case
    tab = golden_tabs()[table]
    pairs = list(zip(j_s, j_t))
    error = _expected_error([functools.partial(pair_transition_coefficients, tab, a, b, n) for a, b in pairs])
    if error is not None:
        with pytest.raises(error):
            transition_coefficients(tab, np.array(j_s), np.array(j_t), n)
        return
    got = transition_coefficients(tab, np.array(j_s), np.array(j_t), n)
    assert len(got.E) == n + 1
    for i, (a, b) in enumerate(pairs):
        want = pair_transition_coefficients(tab, a, b, n)
        for got_row in (
            (*(field[i] for field in got[:4]), tuple(e[i] for e in got.E)),
            transition_coefficients(tab, a, b, n),  # the scalar call: a batch of one
        ):
            assert all(same_bits(x, y) for x, y in zip(got_row[:4], want[:4])), (i, a, b)
            assert len(got_row[4]) == len(want.E)
            assert all(same_bits(x, y) for x, y in zip(got_row[4], want.E)), (i, a, b)


@settings(max_examples=100)
@given(case=_index_batches())
def test_batched_g_maps_equal_the_per_pair_oracle(case):
    """Each row of a batched g_map has the per-pair oracle's bits; an off-grid index raises IndexError."""
    table, j_s, j_t, _ = case
    tab = golden_tabs()[table]
    anchor, points = j_s[0], np.array(j_t)
    error = _expected_error([functools.partial(pair_g_map, tab, anchor, j) for j in j_t])
    if error is not None:
        with pytest.raises(error):
            g_map(tab, anchor, points)
        return
    got = g_map(tab, anchor, points)
    for i, j in enumerate(j_t):
        want = pair_g_map(tab, anchor, j)
        assert all(same_bits(x[i], y) for x, y in zip(got, want)), (i, j)
        assert all(same_bits(x, y) for x, y in zip(g_map(tab, anchor, j), want)), (i, j)
