"""Precomputed integrals of the EMS fields and the solver's update coefficients.

From the per-lambda fields l, s, b we precompute five cumulative trapezoidal
integrals over the table grid (all zero at the first grid point):

    L = int l           S = int s           B = int exp(-S) b
    C = int exp(L+S) B                      I = int exp(L+S)

Every coefficient of the exponential-integrator update is then an O(1)
combination of these: the linear damping A = exp(L_s - L_t), the bias term
int E*B, the zeroth-order weight E0, and the polynomial-weighted weights E^k
for the higher derivative terms.  E^k for k >= 1 has no cumulative shortcut
and is integrated per transition pair; a sampler's step plan computes the
coefficients of each of its transitions once.

When all three fields are constant across the grid (the degenerate
noise-prediction / data-prediction tables), every coefficient has a closed
form; :func:`transition_coefficients` and :func:`g_map` use those so that the
degenerate baselines are exact rather than quadrature-limited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ems import EmsTable
from .errors import DomainError


@dataclass(frozen=True, eq=False)
class IntegralTable:
    """Cumulative integrals of one EMS table, plus detected constant fields."""

    ems: EmsTable
    L: np.ndarray
    S: np.ndarray
    B: np.ndarray
    C: np.ndarray
    I: np.ndarray
    const_lsb: tuple | None = None

    @property
    def lambda_grid(self) -> np.ndarray:
        return self.ems.lambda_grid


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(y)
    np.cumsum((y[1:] + y[:-1]) * (0.5 * h), axis=0, out=out[1:])
    return out


def build_integral_table(ems: EmsTable) -> IntegralTable:
    """Cumulative trapezoid of the five integrals over the (uniform) grid.

    Constant fields are recorded in ``const_lsb``; with it set to None the
    coefficients of any table go through the quadrature path.  Raises
    :class:`DomainError` when an integral has a non-finite entry: fields too
    large for the grid overflow ``exp(L + S)``.
    """
    h0 = ems.spacing
    with np.errstate(over="ignore", invalid="ignore"):
        L = _cumtrapz(ems.l, h0)
        S = _cumtrapz(ems.s, h0)
        B = _cumtrapz(np.exp(-S) * ems.b, h0)
        ls_weight = np.exp(L + S)
        C = _cumtrapz(ls_weight * B, h0)
        I = _cumtrapz(ls_weight, h0)
    for name, arr in (("L", L), ("S", S), ("B", B), ("C", C), ("I", I)):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"integral {name} has non-finite entries; the fields overflow")
    const = None
    if ems.is_constant():
        const = (ems.l[0].copy(), ems.s[0].copy(), ems.b[0].copy())
    return IntegralTable(ems=ems, L=L, S=S, B=B, C=C, I=I, const_lsb=const)


# -- quadrature-backed coefficients -------------------------------------------


def _check_pair(tab: IntegralTable, j_s: int, j_t: int):
    n = len(tab.lambda_grid)
    if not (0 <= j_s < n and 0 <= j_t < n):
        raise IndexError(f"grid indices ({j_s}, {j_t}) out of range [0, {n})")
    if j_t < j_s:
        raise ValueError(f"need j_t >= j_s, got {j_t} < {j_s}")


def coeff_A(tab: IntegralTable, j_s: int, j_t: int) -> np.ndarray:
    """Linear damping exp(L_s - L_t), element-wise."""
    _check_pair(tab, j_s, j_t)
    return np.exp(tab.L[j_s] - tab.L[j_t])


def coeff_int_EB(tab: IntegralTable, j_s: int, j_t: int) -> np.ndarray:
    """The bias integral int_s^t E(lam) B(lam) dlam from the cumulatives."""
    _check_pair(tab, j_s, j_t)
    return np.exp(-tab.L[j_s]) * (
        tab.C[j_t] - tab.C[j_s] - tab.B[j_s] * (tab.I[j_t] - tab.I[j_s])
    )


def coeff_E0(tab: IntegralTable, j_s: int, j_t: int) -> np.ndarray:
    """Zeroth-order weight exp(-L_s - S_s) (I_t - I_s).

    Identical (to rounding) to a direct trapezoid of the scaling factor over
    the same grid points, because I is its cumulative trapezoid.
    """
    _check_pair(tab, j_s, j_t)
    return np.exp(-tab.L[j_s] - tab.S[j_s]) * (tab.I[j_t] - tab.I[j_s])


def coeff_Ek(tab: IntegralTable, j_s: int, j_t: int, k: int) -> np.ndarray:
    """Trapezoid of exp((L+S) - (L+S)_s) (lam - lam_s)^k / k! over [j_s, j_t]."""
    if not 1 <= k <= 3:
        raise ValueError(f"k must be in [1, 3], got {k}")
    _check_pair(tab, j_s, j_t)
    lam = tab.lambda_grid[j_s : j_t + 1]
    ls = tab.L[j_s : j_t + 1] + tab.S[j_s : j_t + 1]
    w = np.exp(ls - ls[0]) * (lam - lam[0])[:, None] ** k / math.factorial(k)
    if len(w) < 2:
        return np.zeros(tab.ems.dim)
    return np.trapezoid(w, dx=tab.ems.spacing, axis=0)


def g_coefficients(tab: IntegralTable, j_anchor: int, j_l: int):
    """Affine map (a, b, c) with g = a*x + b*eps + c at grid point j_l, anchored at j_anchor.

    The anchor sets the zero point of the S and B integrals; moving it scales
    and offsets g by the same (D,) vectors at every grid point.
    """
    n = len(tab.lambda_grid)
    if not (0 <= j_anchor < n and 0 <= j_l < n):
        raise IndexError(f"grid indices ({j_anchor}, {j_l}) out of range [0, {n})")
    sched = tab.ems.schedule
    lam_l = tab.lambda_grid[j_l]
    ds = tab.S[j_l] - tab.S[j_anchor]
    alpha_l = sched.alpha_lambda(lam_l)
    a = -np.exp(-ds) * tab.ems.l[j_l] / alpha_l
    b = np.exp(-ds - lam_l)  # exp(-ds) * sigma_l / alpha_l
    c = -np.exp(tab.S[j_anchor]) * (tab.B[j_l] - tab.B[j_anchor])
    return a, b, c


# -- closed forms for constant fields -------------------------------------------


def poly_exp_integral(a, h: float, k: int):
    """int_0^h exp(a d) d^k / k! dd, element-wise in ``a``; ``h`` may be negative.

    Series evaluation for small |a h| (where the recurrence cancels), exact
    integration-by-parts recurrence otherwise.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    small = np.abs(a) * max(1.0, abs(h)) < 1e-3

    series = np.zeros_like(a)
    for j in range(7, -1, -1):
        series = series * a + h ** (k + j + 1) / (
            math.factorial(j) * math.factorial(k) * (k + j + 1)
        )

    a_safe = np.where(small, 1.0, a)
    exact = np.expm1(a_safe * h) / a_safe
    for m in range(1, k + 1):
        exact = (np.exp(a_safe * h) * h**m / math.factorial(m) - exact) / a_safe

    return np.where(small, series, exact)


def const_coeff_A(c_l, lam_s: float, lam_t: float):
    return np.exp(-np.asarray(c_l) * (lam_t - lam_s))


def const_coeff_Ek(c_l, c_s, lam_s: float, lam_t: float, k: int):
    return poly_exp_integral(np.asarray(c_l) + np.asarray(c_s), lam_t - lam_s, k)


def const_coeff_int_EB(c_l, c_s, c_b, lam_s: float, lam_t: float):
    c_l = np.atleast_1d(np.asarray(c_l, dtype=float))
    c_s = np.atleast_1d(np.asarray(c_s, dtype=float))
    c_b = np.atleast_1d(np.asarray(c_b, dtype=float))
    h = lam_t - lam_s
    a = c_l + c_s
    small = np.abs(c_s) * max(1.0, abs(h)) < 1e-3
    # int exp(a d) (1 - exp(-c_s d)) / c_s dd; series in c_s when it is small
    series = (
        poly_exp_integral(a, h, 1)
        - c_s * poly_exp_integral(a, h, 2)
        + c_s**2 * poly_exp_integral(a, h, 3)
        - c_s**3 * poly_exp_integral(a, h, 4)
    )
    c_s_safe = np.where(small, 1.0, c_s)
    exact = (poly_exp_integral(a, h, 0) - poly_exp_integral(c_l, h, 0)) / c_s_safe
    return c_b * np.where(small, series, exact)


def const_g_coefficients(c_l, c_s, c_b, sched, lam_anchor: float, lam_l: float):
    ds = np.asarray(c_s) * (lam_l - lam_anchor)
    alpha_l = sched.alpha_lambda(lam_l)
    a = -np.exp(-ds) * np.asarray(c_l) / alpha_l
    b = np.exp(-ds - lam_l)
    c = -np.asarray(c_b) * poly_exp_integral(-np.asarray(c_s), lam_l - lam_anchor, 0)
    return a, b, c


# -- dispatch: closed forms on constant tables, quadrature otherwise ------------


class Transition(NamedTuple):
    """Every coefficient of one update from grid point j_s to grid point j_t.

    The update is x_t = alpha_t A (x_s / alpha_s - int_EB - sum_k k! g_k E[k]).
    """

    alpha_s: float
    alpha_t: float
    A: np.ndarray
    int_EB: np.ndarray
    E: tuple  # E^0 .. E^n


def transition_coefficients(tab: IntegralTable, j_s: int, j_t: int, n: int) -> Transition:
    """The coefficients of the update j_s -> j_t, with weights E^0 up to E^n."""
    lam_s, lam_t = float(tab.lambda_grid[j_s]), float(tab.lambda_grid[j_t])
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        A = const_coeff_A(c_l, lam_s, lam_t)
        int_EB = const_coeff_int_EB(c_l, c_s, c_b, lam_s, lam_t)
        E = tuple(const_coeff_Ek(c_l, c_s, lam_s, lam_t, k) for k in range(n + 1))
    else:
        A = coeff_A(tab, j_s, j_t)
        int_EB = coeff_int_EB(tab, j_s, j_t)
        E = (coeff_E0(tab, j_s, j_t),) + tuple(coeff_Ek(tab, j_s, j_t, k) for k in range(1, n + 1))
    sched = tab.ems.schedule
    return Transition(sched.alpha_lambda(lam_s), sched.alpha_lambda(lam_t), A, int_EB, E)


def g_map(tab: IntegralTable, j_anchor: int, j_l: int):
    """The affine map (a, b, c) of :func:`g_coefficients`, closed-form on constant tables."""
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        lam_anchor, lam_l = float(tab.lambda_grid[j_anchor]), float(tab.lambda_grid[j_l])
        return const_g_coefficients(c_l, c_s, c_b, tab.ems.schedule, lam_anchor, lam_l)
    return g_coefficients(tab, j_anchor, j_l)
