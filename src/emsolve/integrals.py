"""Precomputed integrals of the EMS fields and the solver's update coefficients.

From the per-lambda fields l, s, b we precompute five cumulative trapezoidal
integrals over the table grid (all zero at the first grid point):

    L = int l           S = int s           B = int exp(-S) b
    C = int exp(L+S) B                      I = int exp(L+S)

and, next to them, the schedule's t, alpha and sigma at every grid point,
one vectorized call each, which the samplers read instead of calling the
schedule.

Two functions give every coefficient the samplers use, for one index pair
or for arrays of them in one call (a sampler's step plan makes one call of
each).  :func:`transition_coefficients` gives each update's linear damping
A = exp(L_s - L_t), its bias term int E*B and its weights E^0 .. E^n; all
but E^k for k >= 1 are row reads of the cumulatives (``take``, at a
fraction of the cost of fancy indexing a 2-D array), and E^k is a
trapezoid over each pair's grid points, one block of every power for all
pairs of a span (all pairs, on a uniform grid whose step count divides the
table's).  :func:`g_map` gives the affine map from (x, eps) to the
reparameterized model output g at grid points.

When all three fields are constant across the grid (the degenerate
noise-prediction / data-prediction tables), every coefficient has a closed
form, which both functions use so that the degenerate baselines are exact
rather than quadrature-limited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ems import EmsTable
from .errors import DomainError, check_instance
from .schedule import read_only

_FACTORIALS = np.array([math.factorial(k) for k in range(4)], dtype=float)


@dataclass(frozen=True, eq=False)
class IntegralTable:
    """The cumulative trapezoids L, S, B, C, I of one EMS table, computed from it; read-only.

    ``t``, ``alpha`` and ``sigma`` hold the table's schedule at every grid
    point, with the bits of its own ``t_of_lambda``, ``alpha_lambda`` and
    ``sigma_lambda`` at any of them.  On constant fields (``ems.is_constant()``),
    ``const_lsb`` holds their values and the coefficients take closed forms;
    otherwise it is None and they take the quadrature path.
    Raises :class:`DomainError` when the grid leaves the schedule's lambda
    domain (whatever built the EMS table: :func:`~emsolve.ems.load_table`
    does not check it), and when an integral has a non-finite entry: fields
    too large for the grid overflow ``exp(L + S)``.
    """

    ems: EmsTable
    L: np.ndarray = field(init=False)
    S: np.ndarray = field(init=False)
    B: np.ndarray = field(init=False)
    C: np.ndarray = field(init=False)
    I: np.ndarray = field(init=False)
    t: np.ndarray = field(init=False)
    alpha: np.ndarray = field(init=False)
    sigma: np.ndarray = field(init=False)
    const_lsb: tuple | None = field(init=False)

    def __post_init__(self):
        check_instance(self.ems, EmsTable)
        ems, h0, sched = self.ems, self.ems.spacing, self.ems.schedule
        # the schedule at the grid points; t_of_lambda raises DomainError off its domain
        at_grid = (sched.t_of_lambda, sched.alpha_lambda, sched.sigma_lambda)
        for name, at in zip(("t", "alpha", "sigma"), at_grid):
            object.__setattr__(self, name, read_only(at(ems.lambda_grid)))
        with np.errstate(over="ignore", invalid="ignore"):
            L, S = _cumtrapz(ems.l, h0), _cumtrapz(ems.s, h0)
            B = _cumtrapz(np.exp(-S) * ems.b, h0)
            weight = np.exp(L + S)
            ints = dict(L=L, S=S, B=B, C=_cumtrapz(weight * B, h0), I=_cumtrapz(weight, h0))
        for name, arr in ints.items():
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"integral {name} has non-finite entries; the fields overflow")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # views of the table's read-only rows, not copies
        const = (ems.l[0], ems.s[0], ems.b[0]) if ems.is_constant() else None
        object.__setattr__(self, "const_lsb", const)

    def __reduce__(self):
        # through the constructor, as EmsTable's: a copy recomputes the same read-only integrals
        return type(self), (self.ems,)

    @property
    def lambda_grid(self) -> np.ndarray:
        return self.ems.lambda_grid


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(y)
    np.cumsum((y[1:] + y[:-1]) * (0.5 * h), axis=0, out=out[1:])
    return out


def build_integral_table(ems: EmsTable) -> IntegralTable:
    """``IntegralTable(ems)``: the integrals of ``ems``, closed forms on constant fields."""
    return IntegralTable(ems)


def check_grid_indices(tab: IntegralTable, j_a: np.ndarray, j_b: np.ndarray):
    """Raise IndexError unless the 1-D index arrays ``j_a`` and ``j_b`` are on the grid."""
    n = len(tab.lambda_grid)
    both = np.concatenate([j_a, j_b])
    if both.min() < 0 or both.max() >= n:
        j_a, j_b = np.broadcast_arrays(j_a, j_b)
        k = np.argmax((j_a < 0) | (j_a >= n) | (j_b < 0) | (j_b >= n))
        raise IndexError(f"grid indices ({j_a[k]}, {j_b[k]}) out of range [0, {n})")


def poly_exp_integral(a, h, k: int):
    """int_0^h exp(a d) d^k / k! dd, element-wise in ``a``; ``h`` may be negative.

    ``h`` is one step length, or an ``(S,)`` array of them, which gives the
    result a leading step axis.  Series evaluation for small |a h| (where the
    recurrence cancels), exact integration-by-parts recurrence otherwise;
    each branch is evaluated only when some entry takes it.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    h_col = np.asarray(h, dtype=float).reshape(-1, 1)
    small = np.abs(a) * np.maximum(1.0, np.abs(h_col)) < 1e-3
    some_small = small.any()
    # h^0 .. h^(k + 8) for the series, h^0 .. h^k for the recurrence alone.  float_power
    # calls the C library's pow, as Python's float ** does, so each power has the bits of
    # ``v**m``; numpy's array ** rounds some powers differently
    top = k + 9 if some_small else k + 1
    powers = np.float_power(h_col, np.arange(top))[:, :, None]

    if some_small:
        series = np.zeros(small.shape)
        for j in range(7, -1, -1):
            series = series * a + powers[:, k + j + 1] / (
                math.factorial(j) * math.factorial(k) * (k + j + 1)
            )
    if small.all():
        out = series
    else:
        a_safe = np.where(small, 1.0, a) if some_small else a
        out = np.expm1(a_safe * h_col) / a_safe
        for m in range(1, k + 1):
            out = (np.exp(a_safe * h_col) * powers[:, m] / math.factorial(m) - out) / a_safe
        if some_small:
            out = np.where(small, series, out)
    return out if np.ndim(h) else out[0]


def _const_int_EB(c_l, c_s, c_b, h: np.ndarray):
    """Closed form of int E*B over steps of lengths ``h``, ``(S,)``, with constant fields."""
    a = c_l + c_s
    small = np.abs(c_s) * np.maximum(1.0, np.abs(h))[:, None] < 1e-3
    some_small = small.any()
    # int exp(a d) (1 - exp(-c_s d)) / c_s dd; series in c_s when it is small
    if some_small:
        series = (
            poly_exp_integral(a, h, 1)
            - c_s * poly_exp_integral(a, h, 2)
            + c_s**2 * poly_exp_integral(a, h, 3)
            - c_s**3 * poly_exp_integral(a, h, 4)
        )
        if small.all():
            return c_b * series
    c_s_safe = np.where(small, 1.0, c_s) if some_small else c_s
    exact = (poly_exp_integral(a, h, 0) - poly_exp_integral(c_l, h, 0)) / c_s_safe
    return c_b * (np.where(small, series, exact) if some_small else exact)


def _trapezoid_moments(tab: IntegralTable, j_s: np.ndarray, j_t: np.ndarray, n: int) -> np.ndarray:
    """E^1 .. E^n of each pair j_s -> j_t, ``(n, S, D)``: a trapezoid over the pair's grid points.

    The pairs of one span share one block, and when every pair has the same
    span (a uniform grid whose step count divides the table's interval
    count) that block is all of them.  (A block zero-padded to the longest
    span would change numpy's pairwise sum of a one-column table.)
    """
    if n == 0:
        return np.empty((0, len(j_s), tab.ems.dim))
    span = j_t - j_s
    if (span == span[0]).all():
        return _span_moments(tab, j_s, span[0], n)
    E = np.empty((n, len(j_s), tab.ems.dim))
    for m in np.unique(span):
        rows = np.flatnonzero(span == m)
        E[:, rows] = _span_moments(tab, j_s[rows], m, n)
    return E


def _span_moments(tab: IntegralTable, j_s: np.ndarray, m: int, n: int) -> np.ndarray:
    """E^1 .. E^n, ``(n, G, D)``, of the pairs j_s -> j_s + m, from one point-major block.

    The block ``w`` is ``(n, m + 1, G, D)``: each power's integrand at the
    pairs' points.  Its trapezoid terms ``h (w[1:] + w[:-1]) / 2.0`` along
    the point axis, summed over it, are ``np.trapezoid``'s over one pair's
    points, so every row has the bits of a one-pair call: numpy adds a
    ``(m, D)`` array's rows in order, as the sum over the point axis does,
    but a one-column array's entries pairwise, as a sum along contiguous
    rows does.  A single point (m = 0) integrates to zeros.
    """
    points = np.arange(m + 1)[:, None] + j_s
    lam = tab.lambda_grid[points]
    ls = tab.L.take(points, axis=0) + tab.S.take(points, axis=0)
    scale, dlam = np.exp(ls - ls[0]), (lam - lam[0])[:, :, None]
    w = np.empty((n,) + scale.shape)
    for k in range(1, n + 1):
        np.multiply(scale, dlam**k, out=w[k - 1])
    del ls, scale  # a lower peak: the terms below are as large as w
    w /= _FACTORIALS[1 : n + 1, None, None, None]
    terms = w[:, 1:] + w[:, :-1]
    terms *= tab.ems.spacing
    terms /= 2.0
    if tab.ems.dim == 1:
        return np.ascontiguousarray(np.moveaxis(terms, 1, -2)).sum(axis=-2)
    return terms.sum(axis=1)


class Transition(NamedTuple):
    """Every coefficient of one update from grid point j_s to grid point j_t.

    The update is x_t = alpha_t A (x_s / alpha_s - int_EB - sum_k k! g_k E[k]).
    A batched call's fields carry a leading step axis.
    """

    alpha_s: float
    alpha_t: float
    A: np.ndarray  # linear damping exp(L_s - L_t)
    int_EB: np.ndarray  # the bias integral int_s^t E(lam) B(lam) dlam
    E: tuple  # E^0 .. E^n


def transition_coefficients(tab: IntegralTable, j_s, j_t, n: int) -> Transition:
    """The coefficients of the updates j_s -> j_t, with weights E^0 up to E^n (0 <= n <= 3).

    ``j_s`` and ``j_t`` are grid indices, or equal-length ``(S,)`` index
    arrays, which make ``alpha_s``/``alpha_t`` ``(S,)`` and ``A``,
    ``int_EB`` and each ``E^k`` ``(S, D)``; an index pair is a batch of one.
    E^k is the integral of exp((L+S) - (L+S)_s) (lam - lam_s)^k / k! over
    [lam_s, lam_t].  Closed forms on constant tables; otherwise A, int_EB and
    E^0 are read off the cumulatives (E^0 equals, to rounding, a direct
    trapezoid over the same grid points, because I is its cumulative
    trapezoid) and E^k for k >= 1 is a trapezoid over each pair's points.
    Raises IndexError for an index off the grid, then ValueError for a pair
    with j_t < j_s or an ``n`` outside [0, 3].
    """
    batched = np.ndim(j_s) > 0
    j_s, j_t = np.atleast_1d(j_s), np.atleast_1d(j_t)
    check_grid_indices(tab, j_s, j_t)
    backward = j_t < j_s
    if backward.any():
        k = np.argmax(backward)
        raise ValueError(f"need j_t >= j_s, got {j_t[k]} < {j_s[k]}")
    if not 0 <= n <= 3:
        raise ValueError(f"n must be in [0, 3], got {n}")
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        h = tab.lambda_grid[j_t] - tab.lambda_grid[j_s]
        A = np.exp(-c_l * h[:, None])
        int_EB = _const_int_EB(c_l, c_s, c_b, h)
        E = tuple(poly_exp_integral(c_l + c_s, h, k) for k in range(n + 1))
    else:
        L_s, S_s, B_s = (arr.take(j_s, axis=0) for arr in (tab.L, tab.S, tab.B))
        dI = tab.I.take(j_t, axis=0) - tab.I.take(j_s, axis=0)
        dC = tab.C.take(j_t, axis=0) - tab.C.take(j_s, axis=0)
        A = np.exp(L_s - tab.L.take(j_t, axis=0))
        int_EB = np.exp(-L_s) * (dC - B_s * dI)
        E = (np.exp(-L_s - S_s) * dI, *_trapezoid_moments(tab, j_s, j_t, n))
    coeffs = Transition(tab.alpha[j_s], tab.alpha[j_t], A, int_EB, E)
    if batched:
        return coeffs
    return Transition(*(value[0] for value in coeffs[:4]), tuple(e[0] for e in E))


def g_map(tab: IntegralTable, j_anchor: int, j_l):
    """Affine map (a, b, c) with g = a*x + b*eps + c at grid point j_l, anchored at j_anchor.

    ``j_l`` is a grid index or a ``(P,)`` index array, which gives ``(P, D)``
    ``a``, ``b`` and ``c``.  The anchor sets the zero point of the S and B
    integrals; moving it scales and offsets g by the same (D,) vectors at
    every grid point.  Closed form on constant tables.
    """
    batched = np.ndim(j_l) > 0
    j_l = np.atleast_1d(j_l)
    check_grid_indices(tab, np.atleast_1d(j_anchor), j_l)
    lam_l = tab.lambda_grid[j_l]
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        dlam = lam_l - tab.lambda_grid[j_anchor]
        ds = c_s * dlam[:, None]
        l_l = c_l
        c = -c_b * poly_exp_integral(-c_s, dlam, 0)
    else:
        ds = tab.S.take(j_l, axis=0) - tab.S[j_anchor]
        l_l = tab.ems.l.take(j_l, axis=0)
        c = -np.exp(tab.S[j_anchor]) * (tab.B.take(j_l, axis=0) - tab.B[j_anchor])
    lam_l = lam_l[:, None]
    a = -np.exp(-ds) * l_l / tab.alpha[j_l][:, None]
    b = np.exp(-ds - lam_l)  # exp(-ds) * sigma_l / alpha_l
    return (a, b, c) if batched else (a[0], b[0], c[0])
