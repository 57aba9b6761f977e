"""Independent restatements that the tests check the library against.

No library path calls any of these.  Each restates a quantity the library
computes another way: derivative estimates by elimination and by the
divided-difference recurrence (against the plan's closed-form Taylor
weights), the classical DDIM update, with alpha and sigma as functions of
t (against order 1 on the noise-prediction table), f and f1 one point at a time and the per-sample
least-squares fit (against the one-sweep table), the sweep with one
scalar-lambda ``linearize`` call per grid point (against its blocks of grid
points, bit for bit), and a model's
derivatives from separate calls, part by part for a guided model (against
``linearize``), a mixture's eps in long double (against its float64
rounding), a mixture's eps, d_eps and J v in row-major arithmetic
(against the library's coordinate-major arithmetic, bit for bit), the
local update straight from its transition's coefficients and Taylor
weights (against ``lupdate``'s one-step plan, bit for bit), one step's
Taylor weights as Python lists (against the plan's weights, built per
group of steps, bit for bit), a whole sampler run planned step by step and run
row-major (against the plan's coordinate-major loop, bit for bit), a step
plan formed with the schedule's own calls, a Taylor-row call for every group
and one trapezoid block per span (against the plan read off the table's grid
values, bit for bit), the closed forms with both branches evaluated (against
the ones that evaluate only the branches they take, bit for bit), the
probability-flow ODE solved by scipy's ``solve_ivp`` one row at a time
(against the lockstep reference integrator), and that integrator with each
stage's sums formed afresh from a list of the stages (against its running
sums, bit for bit).  ``reference_states`` and ``quadrature_table`` are
helpers, not oracles: the first chains reference segments to give the
states at several lambdas, the second builds a constant table's integrals
on the quadrature path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from emsolve.ems import EmsTable, estimate_l_dot
from emsolve.models import REFERENCE_MAX_STEPS, Guided, reference_solve
from emsolve.schedule import Schedule
from emsolve.integrals import IntegralTable, Transition

# -- model evaluation ------------------------------------------------------------


def jvp(model, sched, x, lam, v):
    """(grad_x eps) @ v at (x, lambda), from one ``linearize`` call."""
    return model.linearize(sched, x, lam)[2](v)


def eps_along_ode(model, sched, x, lam):
    """``(eps, d_eps)`` at (x, lambda), from one ``linearize`` call."""
    return model.linearize(sched, x, lam)[:2]


def composed_linearize(model, sched, x, lam, v):
    """``(eps, d_eps, J v)`` with every quantity from a ``linearize`` call of its own.

    A guided model's come from its parts: each part's eps and d_eps, its
    JVP on the guidance gap and its JVP on ``v``, six part calls where
    ``Guided.linearize`` makes two.
    """
    if not isinstance(model, Guided):
        return (*eps_along_ode(model, sched, x, lam), jvp(model, sched, x, lam, v))
    s = model.scale
    eps_c, d_c = eps_along_ode(model.cond, sched, x, lam)
    eps_u, d_u = eps_along_ode(model.uncond, sched, x, lam)
    eps = s * eps_c + (1.0 - s) * eps_u
    gap = (sched.sigma_lambda(lam) * s * (1.0 - s)) * (eps_c - eps_u)
    d_eps = (
        s * d_c
        + (1.0 - s) * d_u
        + jvp(model.cond, sched, x, lam, gap)
        - jvp(model.uncond, sched, x, lam, gap)
    )
    jv = s * jvp(model.cond, sched, x, lam, v) + (1.0 - s) * jvp(model.uncond, sched, x, lam, v)
    return eps, d_eps, jv


def mixture_eps_longdouble(model, sched, x, lam):
    """``GaussianMixture.eps`` in ``np.longdouble``, from the schedule's float64 alpha and sigma.

    Posterior weights by a max-shifted softmax of log w_i N_i(x) (the
    (2 pi)^(D/2) factor, common to every component, is left out), then
    eps = sigma sum_i pi_i (x - alpha mu_i) / var_i.
    """
    ld = np.longdouble
    alpha, sigma = ld(sched.alpha_lambda(lam)), ld(sched.sigma_lambda(lam))
    x = np.asarray(x, dtype=float).astype(ld)
    var = alpha**2 * model.stds.astype(ld) ** 2 + sigma**2
    diff = x[..., None, :] - alpha * model.means.astype(ld)
    log_comp = np.log(model.weights.astype(ld)) - 0.5 * (
        model.dim * np.log(var) + np.sum(diff**2, axis=-1) / var
    )
    w = np.exp(log_comp - np.max(log_comp, axis=-1, keepdims=True))
    pi = w / np.sum(w, axis=-1, keepdims=True)
    return sigma * np.sum(pi[..., None] * diff / var[:, None], axis=-2)


def mixture_log_density(model, sched, x, lam):
    """log q_lambda(x) of a diffused ``GaussianMixture``, a logsumexp over its components.

    Component i is N(alpha mu_i, (alpha^2 s_i^2 + sigma^2) I); the score of
    this density, times -sigma, is the mixture's eps.
    """
    alpha, sigma = sched.alpha_lambda(lam), sched.sigma_lambda(lam)
    var = alpha**2 * model.stds**2 + sigma**2
    sq = np.sum((np.asarray(x, dtype=float)[..., None, :] - alpha * model.means) ** 2, axis=-1)
    log_comp = np.log(model.weights) - 0.5 * (model.dim * np.log(2.0 * np.pi * var) + sq / var)
    top = np.max(log_comp, axis=-1)
    return np.log(np.sum(np.exp(log_comp - top[..., None]), axis=-1)) + top


def _rowmajor_sum(a, axis=-1):
    """Sum over a short axis of a row-major array, as left-to-right slice additions."""
    tail = (slice(None),) * (-axis - 1)
    n = a.shape[axis]
    out = a[(..., 0) + tail]
    out = out.copy() if n == 1 else out + a[(..., 1) + tail]
    for k in range(2, n):
        out += a[(..., k) + tail]
    return out


def mixture_linearize_rowmajor(model, sched, x, lam, v):
    """``GaussianMixture.linearize``'s ``(eps, d_eps, J v)`` on row-major ``(..., C, D)`` arrays.

    The arithmetic the library ran before it went coordinate-major, step for
    step: every sum over the components or coordinates adds slices left to
    right along the last or second-last axis.  ``v`` may add leading axes to
    ``x``'s shape, as a probe stack does.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    alpha = float(sched.alpha_lambda(lam))
    sigma = float(sched.sigma_lambda(lam))
    c = float(sched.dlog_alpha_dlambda(lam))
    dim = model.dim
    var = alpha**2 * model.stds**2 + sigma**2
    diff = x[..., None, :] - alpha * model.means  # (..., C, D)
    sq = _rowmajor_sum(diff**2)  # (..., C)
    log_comp = np.log(model.weights) - 0.5 * (dim * np.log(2.0 * np.pi * var) + sq / var)
    w = np.exp(log_comp - np.max(log_comp, axis=-1, keepdims=True))
    pi = w / _rowmajor_sum(w)[..., None]
    g = diff / -var[:, None]
    mean_score = _rowmajor_sum(pi[..., None] * g, axis=-2)

    def hessian_terms(v, weights):
        return (
            _rowmajor_sum(weights[..., None] * g, axis=-2)
            - mean_score * _rowmajor_sum(mean_score * v)[..., None]
            - _rowmajor_sum(pi / var)[..., None] * v
        )

    eps = -sigma * mean_score
    flow = c * x - sigma * eps
    rate = 2.0 * c - 2.0 * sigma**2 / var
    a = -(sigma**2) * sq / var**2 - 0.5 * dim * rate
    weights = pi * (
        sigma**2 * _rowmajor_sum(g * mean_score[..., None, :])
        + (a - _rowmajor_sum(pi * a)[..., None])
        + c * _rowmajor_sum(mean_score * x)[..., None]
        - rate
    )
    hv = hessian_terms(flow, weights)
    pi_over_var = _rowmajor_sum(pi / var)[..., None]
    d_eps = (c - 1.0) * eps - sigma * (hv + c * (mean_score + pi_over_var * x))
    dots = _rowmajor_sum(g * v[..., None, :])
    jv = -sigma * hessian_terms(v, pi * dots)
    return eps, d_eps, jv


def forward_diffuse(sched: Schedule, x0, lam, rng: np.random.Generator):
    """Apply the forward noising transition: alpha * x0 + sigma * z, z ~ N(0, I)."""
    x0 = np.asarray(x0, dtype=float)
    alpha = sched.alpha_lambda(lam)
    sigma = sched.sigma_lambda(lam)
    return alpha * x0 + sigma * rng.standard_normal(x0.shape)


# -- the reference integrator ---------------------------------------------------------


def reference_solve_ivp(model, sched: Schedule, x_start, lam_start, lam_end, tol):
    """``reference_solve``'s end states by ``solve_ivp``'s DOP853, one ``(D,)`` row at a time."""
    x_start = np.asarray(x_start, dtype=float)
    rows = x_start.reshape(-1, x_start.shape[-1])

    def rhs(lam, x):
        return sched.dlog_alpha_dlambda(lam) * x - sched.sigma_lambda(lam) * model.eps(sched, x, lam)

    out = []
    for row in rows:
        sol = solve_ivp(rhs, (lam_start, lam_end), row, method="DOP853", rtol=tol, atol=tol)
        assert sol.success, sol.message
        out.append(sol.y[:, -1])
    return np.stack(out).reshape(x_start.shape)


def _dop853_terms(row):
    """A tableau row's (stage, coefficient) pairs with a nonzero coefficient, in stage order."""
    return [(k, float(c)) for k, c in enumerate(row) if c != 0]


def _stage_sum(terms, stages):
    """sum_k c_k stages[k] over ``terms``, added left to right."""
    (k, c), rest = terms[0], terms[1:]
    out = c * stages[k]
    for k, c in rest:
        out += c * stages[k]
    return out


def _row_sq(a):
    """Each row's squared norm of an (R, D) array, summed over D left to right."""
    out = a[:, 0] * a[:, 0]
    for d in range(1, a.shape[1]):
        out += a[:, d] * a[:, d]
    return out


def reference_solve_stagewise(model, sched: Schedule, x_start, lam_start, lam_end, tol):
    """``reference_solve`` with each stage's sum formed afresh from the list of stages.

    The lockstep DOP853 integrator on the tableau of scipy's ``DOP853``,
    each stage state, the new state and the two error estimates taken as
    sum_k c_k K_k over a list of the stage derivatives K_k.  Returns the end
    states, the number of rejected attempts and, for each row, the attempt
    at which it retired.  Takes well-formed arguments and a run that
    converges: it restates the arithmetic, not the integrator's checks.
    """
    stage_terms = [_dop853_terms(row[:i]) for i, row in enumerate(DOP853.A)]
    b_terms, e3_terms, e5_terms = map(_dop853_terms, (DOP853.B, DOP853.E3, DOP853.E5))
    nodes = [float(c) for c in DOP853.C]
    exponent = -1.0 / (DOP853.error_estimator_order + 1)
    safety, min_factor, max_factor = 0.9, 0.2, 10.0

    def rhs(lam, x):
        c = sched.dlog_alpha_dlambda(lam)[:, None]
        return c * x - sched.sigma_lambda(lam)[:, None] * model.eps(sched, x, lam)

    def initial_step(lam, y, f, span):
        scale = tol + np.abs(y) * tol
        root_dim = math.sqrt(y.shape[-1])
        d0 = np.sqrt(_row_sq(y / scale)) / root_dim
        d1 = np.sqrt(_row_sq(f / scale)) / root_dim
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        f1 = rhs(lam + h0, y + h0[:, None] * f)
        d2 = np.sqrt(_row_sq((f1 - f) / scale)) / root_dim / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** (-exponent),
        )
        return np.minimum(np.minimum(100.0 * h0, h1), span)

    x_start = np.asarray(x_start, dtype=float)
    y = x_start.reshape(-1, x_start.shape[-1])
    out = np.empty_like(y)
    retired_at = np.zeros(len(y), dtype=int)
    rejections = 0
    rows = np.arange(len(y))
    lam = np.full(len(y), float(lam_start))
    rejected = np.zeros(len(y), dtype=bool)
    with np.errstate(all="ignore"):
        f = rhs(lam, y)
        h_abs = initial_step(lam, y, f, lam_end - lam_start)
        for attempt in range(REFERENCE_MAX_STEPS):
            min_step = 10.0 * np.abs(np.nextafter(lam, np.inf) - lam)
            h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
            lam_new = np.minimum(lam + h_abs, lam_end)
            h = lam_new - lam
            stages = [f]
            for a_terms, c in zip(stage_terms[1:], nodes[1:]):
                dy = h[:, None] * _stage_sum(a_terms, stages)
                stages.append(rhs(lam + c * h, y + dy))
            y_new = y + h[:, None] * _stage_sum(b_terms, stages)
            f_new = rhs(lam_new, y_new)
            stages.append(f_new)

            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            err5 = _row_sq(_stage_sum(e5_terms, stages) / scale)
            err3 = _row_sq(_stage_sum(e3_terms, stages) / scale)
            error_norm = np.where(
                (err5 == 0) & (err3 == 0), 0.0, h * err5 / np.sqrt((err5 + 0.01 * err3) * y.shape[1])
            )
            accept = error_norm < 1
            rejections += int(np.sum(~accept))
            growth = safety * error_norm**exponent
            factor = np.where(accept, np.minimum(max_factor, growth), np.maximum(min_factor, growth))
            h_abs = h * np.where(accept & rejected, np.minimum(1.0, factor), factor)
            rejected = ~accept
            lam = np.where(accept, lam_new, lam)
            y = np.where(accept[:, None], y_new, y)
            f = np.where(accept[:, None], f_new, f)

            done = accept & (lam_new == lam_end)
            if done.any():
                out[rows[done]] = y[done]
                retired_at[rows[done]] = attempt
                keep = ~done
                if not keep.any():
                    return out.reshape(x_start.shape), rejections, retired_at
                rows, lam, y, f, h_abs, rejected = (
                    a[keep] for a in (rows, lam, y, f, h_abs, rejected)
                )
    raise AssertionError(f"no end within {REFERENCE_MAX_STEPS} attempts")


def reference_states(model, sched: Schedule, x_start, lam_start, lams, tol):
    """The reference states at each of the increasing ``lams``, as chained segment solves."""
    states, x = [], x_start
    for lam in map(float, lams):
        x = reference_solve(model, sched, x, lam_start, lam, tol=tol)
        states.append(x)
        lam_start = lam
    return np.stack(states)


# -- the statistics, one point at a time --------------------------------------------


def _f_and_f1(model, sched, l_row, l_dot_row, x, lam):
    """f and f1, its total lambda-derivative along the ODE, from one ``linearize`` call.

    f = (sigma eps - l x) / alpha and f1 = e^{-lambda} ((l - 1) eps + d_eps) - l_dot x / alpha.
    """
    eps, d_eps = eps_along_ode(model, sched, x, lam)
    alpha = sched.alpha_lambda(lam)
    f = (sched.sigma_lambda(lam) * eps - l_row * x) / alpha
    r = np.exp(-lam) * ((l_row - 1.0) * eps + d_eps)
    return f, r - l_dot_row * x / alpha


def block_layout(a):
    """``a``'s values, (..., P, K, D), as ``estimate_table`` lays a block out: a view of a C-contiguous (..., D, P, K)."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, -3)), -3, -1)


def pointwise_table(model, sched, cfg):
    """``estimate_table``'s arrays from one scalar-lambda ``linearize`` call per grid point.

    The sweep as it ran before it took grid points in blocks, step for step:
    the same draws, (K, D) samples laid out coordinate-major, l and each
    centred moment a contiguous row reduction over the point's K samples,
    then l's slope and the closed-form fit.  Returns (grid, l, l_dot, s, b).
    """
    grid = np.linspace(*cfg.lam_range, cfg.num_timesteps + 1)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x0 = model.sample_data(rng, cfg.num_datapoints)
    z = rng.standard_normal(x0.shape)
    probes = (rng.integers(0, 2, size=(cfg.probes_per_point,) + x0.shape) * 2 - 1).astype(float)
    x0, z, probes = (
        np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2) for a in (x0, z, probes)
    )
    k = cfg.num_datapoints
    l = np.empty((len(grid), model.dim))
    moments = np.empty((6,) + l.shape)
    for j, lam in enumerate(grid):
        alpha, sigma = sched.alpha_lambda(lam), sched.sigma_lambda(lam)
        xs = x0 * alpha + z * sigma
        eps, d_eps, apply_jacobian = model.linearize(sched, xs, lam)
        rows = np.ascontiguousarray((sigma * apply_jacobian(probes) * probes).swapaxes(-1, -2))
        l[j] = rows.sum(axis=-1).sum(axis=0) / (len(rows) * k)
        f = (eps * sigma - xs * l[j]) / alpha
        r = (d_eps + eps * (l[j] - 1.0)) * np.exp(-lam)
        samples = [np.ascontiguousarray(g.T) for g in (f, r, xs / alpha)]  # (D, K) rows
        means = [np.einsum("dk->d", g) / k for g in samples]
        centred = [g - m[:, None] for g, m in zip(samples, means)]
        moments[:, j] = means + [np.einsum("dk,dk->d", centred[0], g) / k for g in centred]
    mf, mr, my, vf, cfr, cfy = moments
    l_dot = estimate_l_dot(l, float((grid[-1] - grid[0]) / cfg.num_timesteps))
    s = (cfr - l_dot * cfy) / (vf + 1e-8 * (vf + mf * mf) + 1e-20)
    return grid, l, l_dot, s, (mr - l_dot * my) - s * mf


def eval_f(model, sched, table: EmsTable, x, lam):
    """The approximated nonlinearity f = (sigma eps - l * x) / alpha at a grid lambda."""
    j = table.index_of(lam)
    return _f_and_f1(model, sched, table.l[j], table.l_dot[j], x, table.lambda_grid[j])[0]


def eval_f1(model, sched, table: EmsTable, x, lam):
    """Total lambda-derivative of f along the ODE at a grid lambda."""
    j = table.index_of(lam)
    return _f_and_f1(model, sched, table.l[j], table.l_dot[j], x, table.lambda_grid[j])[1]


def estimate_sb(f_samples, f1_samples):
    """The library's least-squares fit of f1 against f, from (K, D) samples of each.

    The same closed form as ``estimate_table``'s, with f1 formed first: the
    table takes cov(f, r) - l_dot cov(f, y) where this takes cov(f, f1).
    """
    f = np.asarray(f_samples, dtype=float)
    f1 = np.asarray(f1_samples, dtype=float)
    if f.shape != f1.shape or f.ndim != 2 or f.shape[0] < 1:
        raise ValueError("f_samples and f1_samples must be matching nonempty (K, D) arrays")
    mf, mf1 = f.mean(axis=0), f1.mean(axis=0)
    df, df1 = f - mf, f1 - mf1
    var_f, cov = (df * df).mean(axis=0), (df * df1).mean(axis=0)
    # s = cov(f, f1) / (var(f) + floor), b = mean(f1) - s mean(f), from centred moments
    s = cov / (var_f + (1e-8 * (var_f + mf * mf) + 1e-20))
    return s, mf1 - s * mf


# -- derivative estimation and the first-order step ------------------------------------


def _check_deltas(deltas) -> list:
    """The offsets as floats; raises ValueError unless 1..3 finite, nonzero and distinct."""
    deltas = [float(d) for d in deltas]
    n = len(deltas)
    if not 1 <= n <= 3:
        raise ValueError(f"need 1..3 offsets, got {n}")
    if not all(map(math.isfinite, deltas)):
        raise ValueError(f"lambda offsets must be finite, got {deltas}")
    if 0.0 in deltas or len(set(deltas)) != n:
        raise ValueError(f"lambda offsets must be nonzero and distinct, got {deltas}")
    return deltas


def estimate_derivatives(deltas, g_diffs):
    """Solve the polynomial-matching system for (g^(1), g^(2)/2!, ..., g^(n)/n!).

    ``deltas[k]`` is the lambda offset of extra point k from the anchor and
    ``g_diffs[k]`` the difference of its g value from the anchor's.  The n x n
    system is solved by elimination with partial pivoting.
    """
    deltas = _check_deltas(deltas)
    n = len(deltas)
    if n == 1:
        return [np.asarray(g_diffs[0]) / deltas[0]]
    rhs = np.stack([np.asarray(g, dtype=float) for g in g_diffs])
    tail = rhs.shape[1:]
    matrix = np.vander(deltas, n + 1, increasing=True)[:, 1:]
    sol = np.linalg.solve(matrix, rhs.reshape(n, -1))
    return [sol[k].reshape(tail) for k in range(n)]


def estimate_derivatives_pseudo(deltas, g_values):
    """Divided-difference estimates matching :func:`estimate_derivatives` output.

    ``g_values`` holds the anchor's g first, then the g at each delta.  The
    k-th returned entry (g^(k)/k!) uses only the first k+1 points, via the
    triangular recurrence of divided differences, so it equals the exact
    solve only for k = n or on exactly-polynomial data.
    """
    deltas = _check_deltas(deltas)
    n = len(deltas)
    if len(g_values) != n + 1:
        raise ValueError(f"need {n + 1} g values (anchor first), got {len(g_values)}")
    if n == 1:
        return [(np.asarray(g_values[1]) - np.asarray(g_values[0])) / deltas[0]]
    offsets = [0.0] + deltas
    table = [np.asarray(g, dtype=float) for g in g_values]
    out = []
    for k in range(1, n + 1):
        table = [
            (table[i + 1] - table[i]) / (offsets[i + k] - offsets[i])
            for i in range(len(table) - 1)
        ]
        out.append(table[0])
    return out


def taylor_rows(deltas, pseudo: bool) -> list:
    """Scalar weights ``w[p][k]`` with g^(k)/k! estimated as ``sum_p w[p][k] g_p``, as lists.

    One step's weights, one node at a time, in Python floats.  The nodes
    are the anchor's offset 0 and then ``deltas``, and ``g_p`` is the g
    value at node p.  Full order multiplies out each node's Lagrange basis
    polynomial; pseudo order takes the divided-difference weights ``1 /
    prod_{q <= k, q != p} (x_p - x_q)`` for p <= k (zero above).  No offsets
    gives ``[[1.0]]``; offsets must be 1..3 finite, nonzero and distinct.
    """
    nodes = [0.0] + (_check_deltas(deltas) if len(deltas) else [])
    n = len(nodes)
    rows = []
    for p, x_p in enumerate(nodes):
        denom = 1.0
        if pseudo:
            row = [0.0] * n
            for k, x_k in enumerate(nodes):
                if k != p:
                    denom *= x_p - x_k
                if k >= p:
                    row[k] = 1.0 / denom
        else:
            row = [1.0]  # prod_{q != p} (x - x_q), increasing powers
            for x_q in nodes:
                if x_q != x_p:
                    row.insert(0, 0.0)
                    for i in range(len(row) - 1):
                        row[i] -= x_q * row[i + 1]
                    denom *= x_p - x_q
            row = [c / denom for c in row]
        rows.append(row)
    return rows


def explicit_vandermonde_solution(deltas, g_diffs):
    """Closed-form top coefficient g^(n)/n!, read off the library's full-order rows' last column."""
    rows = taylor_rows(deltas, False)
    return sum(row[-1] * np.asarray(g) for row, g in zip(rows[1:], g_diffs))


# -- the coefficients ---------------------------------------------------------------


def quadrature_table(ems: EmsTable) -> IntegralTable:
    """The integral table of ``ems`` with its last row of ``b`` one ulp higher.

    On constant fields the nudge sends the coefficients to the quadrature
    path.  That row enters only B and C at the last grid point, so every
    coefficient between earlier grid points keeps the bits the quadrature
    path gives on ``ems`` itself, which makes the table the quadrature
    reference for the closed forms.
    """
    b = np.array(ems.b)
    b[-1] = np.nextafter(b[-1], np.inf)
    return IntegralTable(dataclasses.replace(ems, b=b))


def poly_exp_integral_two_branch(a, h: float, k: int):
    """int_0^h exp(a d) d^k / k! dd for one step length ``h``, element-wise in ``a``.

    Both the series and the recurrence are evaluated for every entry, and
    ``np.where`` keeps one of them.
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


def const_int_EB_two_branch(c_l, c_s, c_b, h: float):
    """int E*B over one step of length ``h`` with constant fields, both branches evaluated."""
    a = c_l + c_s
    small = np.abs(c_s) * max(1.0, abs(h)) < 1e-3
    series = (
        poly_exp_integral_two_branch(a, h, 1)
        - c_s * poly_exp_integral_two_branch(a, h, 2)
        + c_s**2 * poly_exp_integral_two_branch(a, h, 3)
        - c_s**3 * poly_exp_integral_two_branch(a, h, 4)
    )
    c_s_safe = np.where(small, 1.0, c_s)
    exact = poly_exp_integral_two_branch(a, h, 0) - poly_exp_integral_two_branch(c_l, h, 0)
    exact = exact / c_s_safe
    return c_b * np.where(small, series, exact)


def _check_pair(tab, j_a: int, j_b: int):
    n = len(tab.lambda_grid)
    if not (0 <= j_a < n and 0 <= j_b < n):
        raise IndexError(f"grid indices ({j_a}, {j_b}) out of range [0, {n})")


def pair_transition_coefficients(tab, j_s: int, j_t: int, n: int) -> Transition:
    """``transition_coefficients`` of one pair: closed forms, cumulative reads, one trapezoid per E^k."""
    _check_pair(tab, j_s, j_t)
    if j_t < j_s:
        raise ValueError(f"need j_t >= j_s, got {j_t} < {j_s}")
    if not 0 <= n <= 3:
        raise ValueError(f"n must be in [0, 3], got {n}")
    lam_s, lam_t = float(tab.lambda_grid[j_s]), float(tab.lambda_grid[j_t])
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        h = lam_t - lam_s
        A = np.exp(-c_l * h)
        int_EB = const_int_EB_two_branch(c_l, c_s, c_b, h)
        E = tuple(poly_exp_integral_two_branch(c_l + c_s, h, k) for k in range(n + 1))
    else:
        L_s, L_t = tab.L[j_s], tab.L[j_t]
        dI = tab.I[j_t] - tab.I[j_s]
        A = np.exp(L_s - L_t)
        int_EB = np.exp(-L_s) * (tab.C[j_t] - tab.C[j_s] - tab.B[j_s] * dI)
        E = (np.exp(-L_s - tab.S[j_s]) * dI,)
        if n:
            lam = tab.lambda_grid[j_s : j_t + 1]
            ls = tab.L[j_s : j_t + 1] + tab.S[j_s : j_t + 1]
            scale, dlam = np.exp(ls - ls[0]), (lam - lam[0])[:, None]
            for k in range(1, n + 1):
                w = scale * dlam**k / math.factorial(k)
                E += (np.trapezoid(w, dx=tab.ems.spacing, axis=0),)
    sched = tab.ems.schedule
    return Transition(sched.alpha_lambda(lam_s), sched.alpha_lambda(lam_t), A, int_EB, E)


def pair_g_map(tab, j_anchor: int, j_l: int):
    """``g_map`` at one grid point: (a, b, c) with g = a*x + b*eps + c, anchored at ``j_anchor``."""
    _check_pair(tab, j_anchor, j_l)
    lam_anchor, lam_l = float(tab.lambda_grid[j_anchor]), float(tab.lambda_grid[j_l])
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        ds = c_s * (lam_l - lam_anchor)
        l_l = c_l
        c = -c_b * poly_exp_integral_two_branch(-c_s, lam_l - lam_anchor, 0)
    else:
        ds = tab.S[j_l] - tab.S[j_anchor]
        l_l = tab.ems.l[j_l]
        c = -np.exp(tab.S[j_anchor]) * (tab.B[j_l] - tab.B[j_anchor])
    a = -np.exp(-ds) * l_l / tab.ems.schedule.alpha_lambda(lam_l)
    b = np.exp(-ds - lam_l)
    return a, b, c


def direct_lupdate(tab, anchor: tuple, extras: list, j_t: int):
    """``lupdate`` straight from the pair's coefficients and full-order Taylor weights.

    x_t = alpha_t A (x_s / alpha_s - int_EB - sum_p V_p g_p), with the anchor's
    g first and ``V_p = sum_k k! w[p][k] E^k`` from ``taylor_rows``.
    """
    j_s, x_s, g_s = anchor
    grid = tab.lambda_grid
    coeffs = pair_transition_coefficients(tab, j_s, j_t, len(extras))
    deltas = [grid[j] - grid[j_s] for j, _ in extras]
    rows = taylor_rows(_check_deltas(deltas) if deltas else [], False)
    factorials = np.array([math.factorial(k) for k in range(len(rows))], dtype=float)
    weights = np.array(rows) @ (np.array(coeffs.E[: len(rows)]) * factorials[:, None])
    gs = [g_s] + [g for _, g in extras]
    total = weights[0] * gs[0]
    for v, g in zip(weights[1:], gs[1:]):
        total += v * g
    return coeffs.alpha_t * coeffs.A * (x_s / coeffs.alpha_s - coeffs.int_EB - total)


def _stacked_closed_forms(tab, h, n: int):
    """The closed-form (A, int_EB, E) of steps of lengths ``h``, stacked from one step at a time."""
    c_l, c_s, c_b = tab.const_lsb
    steps = [float(v) for v in h]
    A = np.exp(-c_l * h[:, None])
    int_EB = np.stack([const_int_EB_two_branch(c_l, c_s, c_b, v) for v in steps])
    E = tuple(
        np.stack([poly_exp_integral_two_branch(c_l + c_s, v, k) for v in steps])
        for k in range(n + 1)
    )
    return A, int_EB, E


def stacked_transition_coefficients(tab, j_s, j_t, n: int) -> Transition:
    """``transition_coefficients`` of index arrays, as the planner's one call formed them.

    The schedule's ``alpha_lambda`` on the pairs' lambdas; on other than
    constant tables, E^k for k >= 1 from one block per span (``np.unique``),
    summed per power.  No argument checks.
    """
    lam_s, lam_t = tab.lambda_grid[j_s], tab.lambda_grid[j_t]
    if tab.const_lsb is not None:
        A, int_EB, E = _stacked_closed_forms(tab, lam_t - lam_s, n)
    else:
        L_s = tab.L[j_s]
        dI = tab.I[j_t] - tab.I[j_s]
        A = np.exp(L_s - tab.L[j_t])
        int_EB = np.exp(-L_s) * (tab.C[j_t] - tab.C[j_s] - tab.B[j_s] * dI)
        moments = np.zeros((n, len(j_s), tab.ems.dim))
        span = j_t - j_s
        for m in np.unique(span) if n else ():
            rows = np.flatnonzero(span == m)
            points = j_s[rows, None] + np.arange(m + 1)
            lam = tab.lambda_grid[points]
            ls = tab.L[points] + tab.S[points]
            scale, dlam = np.exp(ls - ls[:, :1]), (lam - lam[:, :1])[:, :, None]
            for k in range(1, n + 1):
                w = scale * dlam**k / math.factorial(k)
                moments[k - 1, rows] = (tab.ems.spacing * (w[:, 1:] + w[:, :-1]) / 2.0).sum(axis=1)
        E = (np.exp(-L_s - tab.S[j_s]) * dI, *moments)
    alphas = tab.ems.schedule.alpha_lambda(np.concatenate([lam_s, lam_t]))
    return Transition(alphas[: len(j_s)], alphas[len(j_s) :], A, int_EB, E)


def stacked_g_map(tab, j_anchor: int, j_l):
    """``g_map`` of an index array, as the planner's one call formed it: the schedule's alpha."""
    lam_l = tab.lambda_grid[j_l]
    if tab.const_lsb is not None:
        c_l, c_s, c_b = tab.const_lsb
        dlam = lam_l - tab.lambda_grid[j_anchor]
        ds = c_s * dlam[:, None]
        l_l = c_l
        c = -c_b * np.stack([poly_exp_integral_two_branch(-c_s, float(v), 0) for v in dlam])
    else:
        ds = tab.S[j_l] - tab.S[j_anchor]
        l_l = tab.ems.l[j_l]
        c = -np.exp(tab.S[j_anchor]) * (tab.B[j_l] - tab.B[j_anchor])
    lam_l = lam_l[:, None]
    a = -np.exp(-ds) * l_l / tab.ems.schedule.alpha_lambda(lam_l)
    return a, np.exp(-ds - lam_l), c


def planned_arrays(tab, idx, transitions, pseudo_predictor=False, pseudo_corrector=False) -> dict:
    """A step plan's arrays by name, formed as before the integral table held t, alpha and sigma.

    ``idx`` and ``transitions`` are the planner's: table indices, and a
    function of the positions' times that gives (anchor, target, history,
    corrector) per step.  The times and sigmas come from the schedule's own
    calls, the coefficients from :func:`stacked_transition_coefficients` and
    :func:`stacked_g_map`, and every Taylor sum's rows from
    :func:`taylor_rows`, a one-node sum's ``[[1.0]]`` included, folded with
    the k! E^k by one stacked ``np.matmul`` per (node count, pseudo flag)
    group.  Also gives the reads, as (position, row) pairs per step.
    """
    sched = tab.ems.schedule
    idx = np.asarray(idx)
    lams = tab.lambda_grid[idx]
    ts = sched.t_of_lambda(lams)
    planned = list(transitions(ts))
    sums, reads, corrector_reads = [], [], []  # sums: (step, positions, pseudo flag) in row order

    def taylor_sum(i, positions, pseudo):
        start = sum(len(positions) for _, positions, _ in sums)
        sums.append((i, positions, pseudo))
        return tuple(zip(positions, range(start, start + len(positions))))

    for i, (anchor, target, history, corrector) in enumerate(planned):
        reads.append(taylor_sum(i, (anchor,) + history, pseudo_predictor))
        if corrector is not None:
            corrector = taylor_sum(i, (anchor, target) + corrector, pseudo_corrector)
        corrector_reads.append(corrector)
    anchors = np.array([anchor for anchor, *_ in planned])
    targets = [target for _, target, *_ in planned]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b, c = stacked_g_map(tab, idx[0], idx)
        n_max = max(len(positions) for _, positions, _ in sums) - 1
        coeffs = stacked_transition_coefficients(tab, idx[anchors], idx[targets], n_max)
        scales = np.exp(-lams[anchors])[:, None] / b[anchors]
        int_EB = coeffs.int_EB - scales * c[anchors] * coeffs.E[0]
        factorials = np.array([math.factorial(k) for k in range(n_max + 1)], dtype=float)
        moments = np.stack(coeffs.E, axis=1) * factorials[:, None]
        groups = {}
        for row, (i, positions, pseudo) in enumerate(sums):
            groups.setdefault((len(positions), pseudo), []).append(row)
        folded = [None] * len(sums)
        for (size, pseudo), members in groups.items():
            steps = [sums[row][0] for row in members]
            rows = np.array([
                taylor_rows([lams[p] - lams[planned[i][0]] for p in sums[row][1][1:]], pseudo)
                for row, i in zip(members, steps)
            ])
            for row, block in zip(members, np.matmul(rows, moments[steps, :size])):
                folded[row] = scales[sums[row][0]] * block
    return {
        "lams": lams, "ts": ts, "sigmas": sched.sigma_lambda(lams), "maps": (a, b, c),
        "scale": coeffs.alpha_t[:, None] * coeffs.A, "alpha_s": coeffs.alpha_s,
        "int_EB": int_EB, "weights": np.concatenate(folded), "targets": tuple(targets),
        "reads": tuple(reads), "corrector_reads": tuple(corrector_reads),
    }


def multistep_transitions(cfg, t_max: float):
    """The multistep planner's ``transitions`` for ``cfg``, on a schedule whose t ends at t_max."""

    def transitions(ts):
        num_steps = len(ts) - 1
        for m in range(1, num_steps + 1):
            n_m = min(cfg.order, m)
            n_c = n_m + 1 if cfg.pseudo_corrector else n_m
            corrected = (
                m < num_steps
                and cfg.corrector != "none"
                and n_c >= 2
                and (cfg.corrector == "full" or ts[m] <= 0.5 * t_max)
            )
            history = tuple(range(m - 2, m - 1 - n_m, -1))
            corrector = tuple(range(m - 2, m - n_c, -1)) if corrected else None
            yield m - 1, m, history, corrector

    return transitions


def singlestep_transitions(order: int, num_steps: int):
    """The singlestep planner's ``transitions`` over ``num_steps`` intervals."""
    steps = [
        (start, target, tuple(range(target - 1, start, -1)), None)
        for start in range(0, num_steps, order)
        for target in range(start + 1, min(start + order, num_steps) + 1)
    ]
    return lambda ts: steps


def rowmajor_run(tab, plan, cfg, model, x_init):
    """``plan.run(model, x_init)``'s final state, by the row-major loop and per-step planning.

    The sampler as it ran before its plans were stacked and its loop went
    coordinate-major: each step's coefficients from the per-pair oracles,
    its Taylor weights from :func:`taylor_rows` folded by one 2-D product,
    and states and g values ``(..., D)`` throughout, each update's sum added
    left to right.  Only the plan's positions are read, and the pseudo
    flags from ``cfg``; the coefficients come from ``tab``, the integral
    table the plan was built on.
    """
    assert plan.ems is tab.ems
    idx = plan.idx
    sched = tab.ems.schedule
    lams = tab.lambda_grid[list(idx)]
    maps = [pair_g_map(tab, idx[0], j) for j in idx]

    def g_value(p, x, eps):
        a, b, c = maps[p]
        return a * x + b * eps + c

    def step(anchor, target, sums):
        """The step's coefficients, with re-anchored int_EB, and each sum's weights."""
        n = max(len(reads) for reads, _ in sums) - 1
        coeffs = pair_transition_coefficients(tab, idx[anchor], idx[target], n)
        scale = np.exp(-lams[anchor]) / maps[anchor][1]  # g against the anchor, from g against j0
        int_EB = coeffs.int_EB - scale * maps[anchor][2] * coeffs.E[0]
        weights = []
        for reads, pseudo in sums:
            rows = taylor_rows([lams[p] - lams[anchor] for p in reads[1:]], pseudo)
            factorials = np.array([math.factorial(k) for k in range(len(rows))], dtype=float)
            moments = np.array(coeffs.E[: len(rows)]) * factorials[:, None]
            weights.append(scale * (np.array(rows) @ moments))
        return coeffs, int_EB, weights

    def update(coeffs, int_EB, x_s, weights, gs):
        total = weights[0] * gs[0]
        for v, g in zip(weights[1:], gs[1:]):
            total += v * g
        return coeffs.alpha_t * coeffs.A * (x_s / coeffs.alpha_s - int_EB - total)

    x = x_s = np.asarray(x_init, dtype=float)
    g = {0: g_value(0, x, model.eps(sched, x, lams[0]))}
    for i, target in enumerate(plan.targets):
        reads = [p for p, _ in plan.reads[i]]
        corrector = plan.corrector_reads[i]
        sums = [(reads, cfg.pseudo_predictor)]
        if corrector is not None:
            sums.append(([p for p, _ in corrector], cfg.pseudo_corrector))
        coeffs, int_EB, weights = step(reads[0], target, sums)
        x = update(coeffs, int_EB, x_s, weights[0], [g[p] for p in reads])
        if i == len(plan.targets) - 1:
            break
        g[target] = g_value(target, x, model.eps(sched, x, lams[target]))
        if corrector is not None:
            x = update(coeffs, int_EB, x_s, weights[1], [g[p] for p in sums[1][0]])
        x_s = x if plan.reads[i + 1][0][0] == target else x_s
    return x


def alpha_of_t(sched: Schedule, t):
    """alpha(t), the exponential of the schedule's closed-form log alpha(t)."""
    return np.exp(sched.log_alpha(t))


def sigma_of_t(sched: Schedule, t):
    """sigma(t): t on edm, sqrt(1 - alpha(t)^2) on the vp kinds, from log alpha(t)."""
    if sched.kind == "edm":
        return np.asarray(t, dtype=float)
    # -expm1(2 log alpha) = 1 - alpha^2, accurate for alpha near 1
    return np.sqrt(-np.expm1(2.0 * sched.log_alpha(t)))


def ddim_step(sched: Schedule, x_s, eps_s, t_s: float, t_t: float):
    """Classical first-order deterministic update from t_s down to t_t."""
    if t_t > t_s:
        raise ValueError(f"need t_t <= t_s, got {t_t} > {t_s}")
    alpha_s = alpha_of_t(sched, t_s)
    alpha_t = alpha_of_t(sched, t_t)
    sigma_s = sigma_of_t(sched, t_s)
    sigma_t = sigma_of_t(sched, t_t)
    x_s, eps_s = np.asarray(x_s, dtype=float), np.asarray(eps_s, dtype=float)
    return (alpha_t / alpha_s) * x_s - alpha_t * (sigma_s / alpha_s - sigma_t / alpha_t) * eps_s
