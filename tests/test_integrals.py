import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from emsolve import (
    DomainError,
    EmsTable,
    build_integral_table,
    coeff_A,
    coeff_E0,
    coeff_Ek,
    coeff_int_EB,
    g_coefficients,
)
from emsolve.integrals import (
    const_coeff_A,
    const_coeff_Ek,
    const_coeff_int_EB,
    const_g_coefficients,
    g_map,
    poly_exp_integral,
    transition_coefficients,
)

LAM_RANGE = (-4.0, 4.0)


def quadrature_table(table):
    """The integral table of ``table`` with its coefficients on the quadrature path."""
    return dataclasses.replace(build_integral_table(table), const_lsb=None)


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


# -- update coefficients ---------------------------------------------------------


def test_coeff_A_examples(vp):
    unit = quadrature_table(make_constant_table(vp, 64, [1.0], [0.0], [0.0]))
    zero = quadrature_table(make_constant_table(vp, 64, [0.0], [0.0], [0.0]))
    lam = unit.lambda_grid
    assert np.allclose(coeff_A(unit, 12, 12), 1.0)
    assert np.allclose(coeff_A(unit, 10, 50), np.exp(lam[10] - lam[50]), atol=1e-12)
    assert np.allclose(coeff_A(zero, 3, 60), 1.0, atol=1e-14)


def test_coeff_int_EB_examples(vp):
    zero_b = quadrature_table(make_constant_table(vp, 64, [0.4], [-0.2], [0.0]))
    assert np.allclose(coeff_int_EB(zero_b, 5, 40), 0.0, atol=1e-14)
    assert np.allclose(coeff_int_EB(zero_b, 7, 7), 0.0)
    # with l = s = 0 every integrand involved is polynomial of degree <= 1,
    # so the hand value beta h^2 / 2 is reproduced exactly
    beta = 0.6
    tab = quadrature_table(make_constant_table(vp, 64, [0.0], [0.0], [beta]))
    j_s, j_t = 16, 48
    h = tab.lambda_grid[j_t] - tab.lambda_grid[j_s]
    assert float(coeff_int_EB(tab, j_s, j_t)[0]) == pytest.approx(beta * h**2 / 2.0, rel=1e-12)


def test_coeff_E0_examples(vp):
    flat = quadrature_table(make_constant_table(vp, 64, [0.5], [-0.5], [0.0]))
    h = flat.lambda_grid[40] - flat.lambda_grid[8]
    assert np.allclose(coeff_E0(flat, 8, 40), h, atol=1e-12)
    assert np.allclose(coeff_E0(flat, 9, 9), 0.0)
    errs = []
    for n in (64, 128):
        tab = quadrature_table(make_constant_table(vp, n, [0.0], [-1.0], [0.0]))
        j_s, j_t = n // 4, 3 * n // 4
        h = tab.lambda_grid[j_t] - tab.lambda_grid[j_s]
        errs.append(abs(float(coeff_E0(tab, j_s, j_t)[0]) - (1.0 - np.exp(-h))))
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
        assert np.max(np.abs(coeff_E0(tab, j_s, j_t) - direct)) < 1e-12


def test_coeff_Ek_flat_cases(vp):
    flat = quadrature_table(make_constant_table(vp, 64, [0.5], [-0.5], [0.0]))
    h = flat.lambda_grid[48] - flat.lambda_grid[16]
    # degree-1 integrand: trapezoid exact
    assert np.allclose(coeff_Ek(flat, 16, 48, 1), h**2 / 2.0, atol=1e-12)
    errs = []
    for n in (64, 128):
        tab = quadrature_table(make_constant_table(vp, n, [0.3], [-0.3], [0.0]))
        j_s, j_t = n // 4, 3 * n // 4
        hh = tab.lambda_grid[j_t] - tab.lambda_grid[j_s]
        errs.append(abs(float(coeff_Ek(tab, j_s, j_t, 2)[0]) - hh**3 / 6.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    with pytest.raises(ValueError):
        coeff_Ek(flat, 0, 10, 4)
    with pytest.raises(ValueError):
        coeff_Ek(flat, 10, 5, 1)


def test_coeff_Ek_is_deterministic(smooth_table):
    # a step plan computes each E^k once; recomputing it must give the same bits
    tab = build_integral_table(smooth_table)
    assert np.array_equal(coeff_Ek(tab, 10, 90, 2), coeff_Ek(tab, 10, 90, 2))


def test_g_coefficients_examples(vp, edm):
    zero = quadrature_table(make_constant_table(vp, 64, [0.0], [0.0], [0.0]))
    lam = float(zero.lambda_grid[30])
    a, b, c = g_coefficients(zero, 30, 30)
    assert np.allclose(a, 0.0) and np.allclose(c, 0.0)
    assert np.allclose(b, np.exp(-lam), atol=1e-14)


def test_g_coefficients_data_pred_is_negative_data_prediction(vp):
    tab = quadrature_table(make_constant_table(vp, 64, [1.0], [0.0], [0.0], dim=3))
    j_a, j_l = 20, 44
    lam = float(tab.lambda_grid[j_l])
    a, b, c = g_coefficients(tab, j_a, j_l)
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
    _, _, c = g_coefficients(tab, 15, 100)
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


def test_closed_forms_are_refinement_limits(vp):
    c_l = np.array([0.7, 0.3]);  c_s = np.array([-0.4, 0.25]);  c_b = np.array([0.25, -0.5])
    errs = {"E0": [], "E2": [], "intEB": [], "g_c": []}
    for n in (80, 160):
        table = make_constant_table(vp, n, c_l, c_s, c_b)
        tab = quadrature_table(table)
        j_s, j_t = n // 4, 3 * n // 4
        lam_s, lam_t = float(table.lambda_grid[j_s]), float(table.lambda_grid[j_t])
        errs["E0"].append(
            np.max(np.abs(coeff_E0(tab, j_s, j_t) - const_coeff_Ek(c_l, c_s, lam_s, lam_t, 0)))
        )
        errs["E2"].append(
            np.max(np.abs(coeff_Ek(tab, j_s, j_t, 2) - const_coeff_Ek(c_l, c_s, lam_s, lam_t, 2)))
        )
        errs["intEB"].append(
            np.max(
                np.abs(coeff_int_EB(tab, j_s, j_t) - const_coeff_int_EB(c_l, c_s, c_b, lam_s, lam_t))
            )
        )
        g_c = g_coefficients(tab, j_s, j_t)[2]
        g_c_exact = const_g_coefficients(c_l, c_s, c_b, vp, lam_s, lam_t)[2]
        errs["g_c"].append(np.max(np.abs(g_c - g_c_exact)))
        assert np.max(np.abs(coeff_A(tab, j_s, j_t) - const_coeff_A(c_l, lam_s, lam_t))) < 1e-12
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
    assert float(coeff_E0(tab, 4, 20)[0]) != pytest.approx(1.0 - np.exp(-h), rel=1e-10)


def test_dispatch_matches_functions_on_varying_tables(smooth_table):
    tab = build_integral_table(smooth_table)
    assert tab.const_lsb is None
    tr = transition_coefficients(tab, 10, 60, 2)
    assert np.array_equal(tr.A, coeff_A(tab, 10, 60))
    assert np.array_equal(tr.int_EB, coeff_int_EB(tab, 10, 60))
    assert np.array_equal(tr.E[0], coeff_E0(tab, 10, 60))
    assert np.array_equal(tr.E[2], coeff_Ek(tab, 10, 60, 2))
    assert len(tr.E) == 3
    for got, want in zip(g_map(tab, 10, 60), g_coefficients(tab, 10, 60)):
        assert np.array_equal(got, want)


def test_index_errors(smooth_table):
    tab = build_integral_table(smooth_table)
    with pytest.raises(IndexError):
        coeff_A(tab, 0, 500)
    with pytest.raises(ValueError):
        coeff_E0(tab, 50, 10)
