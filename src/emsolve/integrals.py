"""Precomputed integrals of the EMS fields and the solver's update coefficients.

From the per-lambda fields l, s, b we precompute five cumulative trapezoidal
integrals over the table grid (all zero at the first grid point):

    L = int l           S = int s           B = int exp(-S) b
    C = int exp(L+S) B                      I = int exp(L+S)

Two functions give every coefficient the samplers use, for one index pair
or for arrays of them in one call (a sampler's step plan makes one call of
each).  :func:`transition_coefficients` gives each update's linear damping
A = exp(L_s - L_t), its bias term int E*B and its weights E^0 .. E^n; all
but E^k for k >= 1 are fancy-indexed reads of the cumulatives, and E^k is a
trapezoid over each pair's grid points, one block for all pairs of a span.
:func:`g_map` gives the affine map from (x, eps) to the reparameterized
model output g at grid points.

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
from .errors import DomainError


@dataclass(frozen=True, eq=False)
class IntegralTable:
    """The cumulative trapezoids L, S, B, C, I of one EMS table, computed from it; read-only.

    With ``closed_form`` set and constant fields, ``const_lsb`` holds their
    values and the coefficients take closed forms; otherwise it is None and
    they take the quadrature path.  Raises :class:`DomainError` when an
    integral has a non-finite entry: fields too large for the grid overflow
    ``exp(L + S)``.
    """

    ems: EmsTable
    closed_form: bool = True
    L: np.ndarray = field(init=False)
    S: np.ndarray = field(init=False)
    B: np.ndarray = field(init=False)
    C: np.ndarray = field(init=False)
    I: np.ndarray = field(init=False)
    const_lsb: tuple | None = field(init=False)

    def __post_init__(self):
        if not isinstance(self.ems, EmsTable):
            raise ValueError(f"expected an EmsTable, got a {type(self.ems).__name__}")
        if not isinstance(self.closed_form, bool):
            raise ValueError(f"closed_form must be a bool, got {self.closed_form!r}")
        ems, h0 = self.ems, self.ems.spacing
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
        const = (ems.l[0], ems.s[0], ems.b[0]) if self.closed_form and ems.is_constant() else None
        object.__setattr__(self, "const_lsb", const)

    def __reduce__(self):
        # through the constructor, as EmsTable's: a copy recomputes the same read-only integrals
        return type(self), (self.ems, self.closed_form)

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


def _check_indices(tab: IntegralTable, j_a: np.ndarray, j_b: np.ndarray):
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
    recurrence cancels), exact integration-by-parts recurrence otherwise.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    steps = np.ravel(h).tolist()
    # Python's float power: numpy's array ** rounds some powers differently
    powers = np.array([[v**m for m in range(k + 9)] for v in steps])[:, :, None]
    h_col = np.array(steps)[:, None]
    small = np.abs(a) * np.maximum(1.0, np.abs(h_col)) < 1e-3

    series = np.zeros(small.shape)
    for j in range(7, -1, -1):
        series = series * a + powers[:, k + j + 1] / (
            math.factorial(j) * math.factorial(k) * (k + j + 1)
        )

    a_safe = np.where(small, 1.0, a)
    exact = np.expm1(a_safe * h_col) / a_safe
    for m in range(1, k + 1):
        exact = (np.exp(a_safe * h_col) * powers[:, m] / math.factorial(m) - exact) / a_safe

    out = np.where(small, series, exact)
    return out if np.ndim(h) else out[0]


def _const_int_EB(c_l, c_s, c_b, h: np.ndarray):
    """Closed form of int E*B over steps of lengths ``h``, ``(S,)``, with constant fields."""
    a = c_l + c_s
    small = np.abs(c_s) * np.maximum(1.0, np.abs(h))[:, None] < 1e-3
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


def _trapezoid_moments(tab: IntegralTable, j_s: np.ndarray, j_t: np.ndarray, n: int) -> tuple:
    """E^1 .. E^n of each pair j_s -> j_t, ``(S, D)`` each: a trapezoid over the pair's grid points.

    The pairs of one span share a ``(G, span + 1, D)`` block of their points.
    Its trapezoid terms ``h (w[1:] + w[:-1]) / 2.0``, summed along the span
    axis, are ``np.trapezoid``'s over one pair's points, so every row has the
    bits of a one-pair call.  (A block zero-padded to the longest span would
    change numpy's pairwise sum of a one-column table.)
    """
    E = np.zeros((n, len(j_s), tab.ems.dim))
    span = j_t - j_s
    for m in np.unique(span) if n else ():
        rows = np.flatnonzero(span == m)
        points = j_s[rows, None] + np.arange(m + 1)
        lam = tab.lambda_grid[points]
        ls = tab.L[points] + tab.S[points]
        scale, dlam = np.exp(ls - ls[:, :1]), (lam - lam[:, :1])[:, :, None]
        for k in range(1, n + 1):
            # a single point (j_s == j_t) integrates to zeros
            w = scale * dlam**k / math.factorial(k)
            E[k - 1, rows] = (tab.ems.spacing * (w[:, 1:] + w[:, :-1]) / 2.0).sum(axis=1)
    return tuple(E)


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
    _check_indices(tab, j_s, j_t)
    backward = j_t < j_s
    if backward.any():
        k = np.argmax(backward)
        raise ValueError(f"need j_t >= j_s, got {j_t[k]} < {j_s[k]}")
    if not 0 <= n <= 3:
        raise ValueError(f"n must be in [0, 3], got {n}")
    lam_s, lam_t = tab.lambda_grid[j_s], tab.lambda_grid[j_t]
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        h = lam_t - lam_s
        A = np.exp(-c_l * h[:, None])
        int_EB = _const_int_EB(c_l, c_s, c_b, h)
        E = tuple(poly_exp_integral(c_l + c_s, h, k) for k in range(n + 1))
    else:
        L_s = tab.L[j_s]
        dI = tab.I[j_t] - tab.I[j_s]
        A = np.exp(L_s - tab.L[j_t])
        int_EB = np.exp(-L_s) * (tab.C[j_t] - tab.C[j_s] - tab.B[j_s] * dI)
        E = (np.exp(-L_s - tab.S[j_s]) * dI,) + _trapezoid_moments(tab, j_s, j_t, n)
    alphas = tab.ems.schedule.alpha_lambda(np.concatenate([lam_s, lam_t]))
    coeffs = Transition(alphas[: len(j_s)], alphas[len(j_s) :], A, int_EB, E)
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
    _check_indices(tab, np.atleast_1d(j_anchor), j_l)
    lam_l = tab.lambda_grid[j_l]
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        dlam = lam_l - tab.lambda_grid[j_anchor]
        ds = c_s * dlam[:, None]
        l_l = c_l
        c = -c_b * poly_exp_integral(-c_s, dlam, 0)
    else:
        ds = tab.S[j_l] - tab.S[j_anchor]
        l_l = tab.ems.l[j_l]
        c = -np.exp(tab.S[j_anchor]) * (tab.B[j_l] - tab.B[j_anchor])
    lam_l = lam_l[:, None]
    a = -np.exp(-ds) * l_l / tab.ems.schedule.alpha_lambda(lam_l)
    b = np.exp(-ds - lam_l)  # exp(-ds) * sigma_l / alpha_l
    return (a, b, c) if batched else (a[0], b[0], c[0])
