"""High-order exponential-integrator sampling on a precomputed step plan.

The local update transits from an anchor state to a later lambda by Taylor
expansion of the reparameterized model output g.  The needed
lambda-derivatives of g are estimated from previous function values, either
by matching a polynomial through all of them (full order) or by a
divided-difference recurrence that uses only the nearest k+1 values for the
k-th derivative ("pseudo" order, more stable at very few steps).  Both
estimates are linear in the g values, with scalar weights that depend only
on the step's lambda offsets, so they are computed in closed form when the
plan is built and folded with the E^k weights into one ``(D,)`` vector per g
value: a step makes no linear solve.  :func:`estimate_derivatives` (by
elimination) and :func:`estimate_derivatives_pseudo` (by the recurrence)
remain as independent references.

g's zero point is the anchor, but moving it scales and offsets g by the same
``(D,)`` vectors at every position, and a step's weights sum to E^0.  So the
plan of a sampler's (anchor, target, history, corrector) transitions folds
each step's re-anchoring into its weights and bias, and one loop forms each
position's g once, against the run's first grid point.  The multistep
corrector reuses the step's model evaluation (no extra NFE).  States may be
``(D,)`` or ``(B, D)``: rows never mix, so a batch gives the same bits as its
rows run one at a time.  Runs are sequential and can share the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ems import EmsTable
from .errors import DomainError
from .integrals import IntegralTable, Transition, g_map, transition_coefficients
from .models import ModelSpec
from .schedule import Schedule, TimeGrid, schedules_equal

CORRECTOR_NONE = "none"
CORRECTOR_FULL = "full"
CORRECTOR_HALF = "half"
CORRECTORS = (CORRECTOR_NONE, CORRECTOR_FULL, CORRECTOR_HALF)

_MAX_PREDICTOR_ORDER = 3
_FACTORIALS = np.array([math.factorial(k) for k in range(_MAX_PREDICTOR_ORDER + 1)], dtype=float)


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Sampler settings: predictor order, corrector strategy, timestep grid.

    ``order`` is the predictor's order (1 to 3).  A corrector of the same
    order runs after each step when ``corrector`` is "full".  "half" runs it
    only after the steps whose target time is at most half the schedule's
    upper time, ``0.5 * t_domain[1]``: t <= 0.5 on vp-linear, t <= 40 on edm.
    ``pseudo_corrector`` raises the corrector to order+1 using the
    divided-difference derivative estimates.  ``pseudo_predictor`` switches
    the predictor's derivative estimation to the divided-difference form at
    the same order.
    """

    order: int
    grid: TimeGrid
    corrector: str = CORRECTOR_NONE
    pseudo_predictor: bool = False
    pseudo_corrector: bool = False

    def __post_init__(self):
        if not 1 <= self.order <= _MAX_PREDICTOR_ORDER:
            raise ValueError(
                f"order must be in [1, {_MAX_PREDICTOR_ORDER}] (got {self.order}); "
                "4th order is available as the pseudo corrector on an order-3 run"
            )
        if self.corrector not in CORRECTORS:
            raise ValueError(f"unknown corrector {self.corrector!r}")
        if self.corrector != CORRECTOR_NONE and self.order < 2:
            raise ValueError("a corrector has order >= 2; use order >= 2 or corrector='none'")
        if self.pseudo_corrector and self.corrector == CORRECTOR_NONE:
            raise ValueError("pseudo_corrector requires a corrector strategy")


def _check_deltas(deltas) -> list:
    """The offsets as floats; raises ValueError unless 1..3 finite, nonzero and distinct."""
    deltas = [float(d) for d in deltas]
    n = len(deltas)
    if n < 1 or n > _MAX_PREDICTOR_ORDER:
        raise ValueError(f"need 1..{_MAX_PREDICTOR_ORDER} offsets, got {n}")
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
    """Scalar weights ``w[p][k]`` with g^(k)/k! estimated as ``sum_p w[p][k] g_p``.

    The nodes are the anchor's offset 0 and then ``deltas``, and ``g_p`` is
    the g value at node p.  Full order gives the coefficients of each node's
    Lagrange basis polynomial: the exact solution that
    :func:`estimate_derivatives` finds by elimination.  Pseudo order gives
    the divided-difference weights ``1 / prod_{q <= k, q != p} (x_p - x_q)``
    for p <= k (zero above), those of :func:`estimate_derivatives_pseudo`.
    No offsets gives ``[[1.0]]``.
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
    """Closed-form top coefficient g^(n)/n!, read off the full-order rows' last column."""
    rows = taylor_rows(deltas, False)
    return sum(row[-1] * np.asarray(g) for row, g in zip(rows[1:], g_diffs))


def _taylor_weights(coeffs: Transition, deltas, pseudo: bool) -> np.ndarray:
    """Anchor-first ``(n + 1, D)`` weights ``V_p = sum_k k! w[p][k] E^k`` of the g values read."""
    rows = taylor_rows(deltas, pseudo)
    n = len(rows)
    return np.array(rows) @ (np.array(coeffs.E[:n]) * _FACTORIALS[:n, None])


def lupdate(tab: IntegralTable, anchor: tuple, extras: list, j_t: int):
    """One local transition from the anchor grid point to grid point ``j_t``.

    ``anchor`` is (grid index, state, g value); ``extras`` is a
    nearest-first list of (grid index, g value) pairs supplying the higher
    derivative estimates, matched exactly (full order).  All g values must be
    expressed against this anchor.  Returns the approximated state at ``j_t``.
    """
    j_s, x_s, g_s = anchor
    grid = tab.lambda_grid
    lam_s, lam_t = float(grid[j_s]), float(grid[j_t])
    if lam_t < lam_s:
        raise ValueError(f"target lambda {lam_t} precedes anchor lambda {lam_s}")
    coeffs = transition_coefficients(tab, j_s, j_t, len(extras))
    weights = _taylor_weights(coeffs, [grid[j] - grid[j_s] for j, _ in extras], False)
    return _update(coeffs, x_s, weights, [g_s] + [g for _, g in extras])


def _update(coeffs: Transition, x_s, weights, gs):
    """The Taylor-expanded update: x_t = alpha_t A (x_s / alpha_s - int_EB - sum_p V_p g_p)."""
    total = weights[0] * gs[0]
    for v, g in zip(weights[1:], gs[1:]):
        total += v * g
    return coeffs.alpha_t * coeffs.A * (x_s / coeffs.alpha_s - coeffs.int_EB - total)


class _Grid(NamedTuple):
    """The sampling grid snapped to table indices, with its lambdas and times."""

    idx: list
    lams: np.ndarray
    ts: np.ndarray


def _snap_grid(table: EmsTable, sched: Schedule, grid: TimeGrid) -> _Grid:
    """Snap sampling lambdas to indices of ``sched``'s table; they must stay strictly increasing."""
    if not (sched is table.schedule or schedules_equal(sched, table.schedule)):
        raise ValueError(
            f"the table is for schedule {table.schedule.to_dict()}, not {sched.to_dict()}"
        )
    idx = [table.index_of(lam) for lam in grid.lambdas]
    if np.any(np.diff(idx) <= 0):
        raise ValueError(
            "sampling grid is finer than the coefficient table; "
            "increase the table's timestep count"
        )
    lams = table.lambda_grid[idx]
    return _Grid(idx, lams, np.asarray(sched.t_of_lambda(lams), dtype=float))


@dataclass(frozen=True, eq=False)
class _Step:
    """One planned transition; positions index the snapped grid.

    ``history`` and ``corrector`` are nearest-first positions whose g values
    feed the predictor and (after the target's own value) the corrector;
    ``corrector`` is None when the step is not corrected.  ``weights`` are
    the predictor's Taylor weights for the g values at ``(anchor,) +
    history``, ``corrector_weights`` the corrector's for ``(anchor, target) +
    corrector``.  Both act on g against the run's first grid point:
    they and ``coeffs.int_EB`` hold the step's re-anchoring.
    """

    anchor: int
    target: int
    history: tuple
    corrector: tuple | None
    coeffs: Transition
    weights: np.ndarray
    corrector_weights: np.ndarray | None


def _plan(
    tab: IntegralTable, grid: _Grid, transitions, pseudo_predictor=False, pseudo_corrector=False
):
    """The g-maps against the first grid position, and one step per transition.

    Raises DomainError when a map, weight or bias is non-finite: the
    re-anchoring scale exp(S_anchor - S_first) spans the whole run.
    """
    lams = grid.lams.tolist()
    steps = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        maps = [g_map(tab, grid.idx[0], j) for j in grid.idx]
        for anchor, target, history, corrector in transitions:
            # the corrector also reads the target's own g value, so it needs one more E^k
            n = len(history) if corrector is None else max(len(history), len(corrector) + 1)
            coeffs = transition_coefficients(tab, grid.idx[anchor], grid.idx[target], n)
            # against itself the anchor's map has b = exp(-lambda) and c = 0
            scale = np.exp(-lams[anchor]) / maps[anchor][1]
            deltas = [lams[p] - lams[anchor] for p in history]
            weights = scale * _taylor_weights(coeffs, deltas, pseudo_predictor)
            corrector_weights = None
            if corrector is not None:
                deltas = [lams[p] - lams[anchor] for p in (target,) + corrector]
                corrector_weights = scale * _taylor_weights(coeffs, deltas, pseudo_corrector)
            coeffs = coeffs._replace(int_EB=coeffs.int_EB - scale * maps[anchor][2] * coeffs.E[0])
            steps.append(_Step(anchor, target, history, corrector, coeffs, weights, corrector_weights))
    finite = [np.isfinite(v).all() for abc in maps for v in abc]
    finite += [np.isfinite(s.weights).all() and np.isfinite(s.coeffs.int_EB).all() for s in steps]
    if not all(finite):
        raise DomainError("the step plan has non-finite entries; the fields overflow over the grid")
    return maps, steps


def _run(model, sched, tab, grid, plan, x_init, trace=None):
    """Run ``plan`` over the snapped ``grid`` from ``x_init``; returns the final state.

    One model call on the initial state and one per step except the last,
    each followed by its position's g.  Appends one row per step to
    ``trace`` when a list is given.  Only the g values the next step reads
    and its anchor's state are kept: each plan here reads a run of positions
    whose start never moves back, and anchors each step at the previous
    step's anchor or target.
    """
    maps, steps = plan
    x = np.asarray(x_init, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("initial sampler state has non-finite entries")
    lams, ts = grid.lams, grid.ts
    x_s = x
    g = {0: _g_value(maps[0], x, model.eps(sched, x, lams[0]))}
    for i, step in enumerate(steps):
        a_pos, t_pos = step.anchor, step.target
        x = _update(step.coeffs, x_s, step.weights, [g[p] for p in (a_pos,) + step.history])
        if i == len(steps) - 1:
            if trace is not None:
                trace.append(_trace_row(ts[t_pos], lams[t_pos], x, None, None))
            break

        eps = model.eps(sched, x, lams[t_pos])
        g[t_pos] = _g_value(maps[t_pos], x, eps)
        if step.corrector is not None:
            gs = [g[p] for p in (a_pos, t_pos) + step.corrector]
            x_corr = _update(step.coeffs, x_s, step.corrector_weights, gs)
            # the trace's noise prediction for the corrected state, which keeps
            # the target's g value: a*dx + b*(l/sigma)*dx = 0 by construction
            eps = eps + tab.ems.l[grid.idx[t_pos]] * (x_corr - x) / sched.sigma_lambda(lams[t_pos])
            x = x_corr
        if trace is not None:
            trace.append(_trace_row(ts[t_pos], lams[t_pos], x, eps, g[t_pos]))
        following = steps[i + 1]
        x_s = x if following.anchor == t_pos else x_s
        g = {p: g[p] for p in (following.anchor,) + following.history + (following.corrector or ())}

    if not np.all(np.isfinite(x)):
        raise DomainError("sampler state became non-finite")
    return x


def _g_value(abc, x, eps):
    a, b, c = abc
    return a * x + b * eps + c


def _trace_row(t, lam, x, eps, g):
    """One trace row; ``x`` and ``eps`` are float64 copies the caller cannot alias."""
    return {
        "t": float(t),
        "lambda": float(lam),
        "x": np.array(x, dtype=np.float64),
        "eps": None if eps is None else np.array(eps, dtype=np.float64),
        "eps_norm": None if eps is None else float(np.linalg.norm(eps)),
        "g_norm": None if g is None else float(np.linalg.norm(g)),
    }


def multistep_sample(
    model: ModelSpec, sched: Schedule, tab: IntegralTable, cfg: SolverConfig, x_init
):
    """Multistep predictor-corrector sampling over the configured grid.

    Runs exactly ``M`` noise-prediction calls for an ``M``-interval grid:
    one on the initial state and one per step except the last (the
    corrector reuses the step's evaluation instead of adding one).  Early
    steps ramp the order up as history becomes available.  ``x_init`` may be
    ``(D,)`` or ``(B, D)``.  Returns the final state and a per-step trace.
    Raises ValueError unless ``sched`` equals ``tab.ems.schedule``.

    Each trace row holds the target's ``t`` and ``lambda``, its state ``x``
    and noise prediction ``eps`` as float64 arrays of the state's shape (the
    row's own copies; ``eps`` is None on the last row), and ``eps_norm`` and
    ``g_norm``, the 2-norms over the whole state, batch included.  ``g`` is
    taken against the run's first grid point, so ``g_norm`` is comparable
    across steps.
    """
    grid = _snap_grid(tab.ems, sched, cfg.grid)
    num_steps = len(grid.idx) - 1
    half_threshold = 0.5 * sched.t_domain[1]
    transitions = []
    for m in range(1, num_steps + 1):
        n_m = min(cfg.order, m)
        n_c = n_m + 1 if cfg.pseudo_corrector else n_m
        corrected = (
            m < num_steps
            and cfg.corrector != CORRECTOR_NONE
            and n_c >= 2
            and (cfg.corrector == CORRECTOR_FULL or grid.ts[m] <= half_threshold)
        )
        history = tuple(range(m - 2, m - 1 - n_m, -1))
        corrector = tuple(range(m - 2, m - n_c, -1)) if corrected else None
        transitions.append((m - 1, m, history, corrector))
    plan = _plan(tab, grid, transitions, cfg.pseudo_predictor, cfg.pseudo_corrector)
    trace = []
    return _run(model, sched, tab, grid, plan, x_init, trace), trace


def singlestep_sample(
    model: ModelSpec, sched: Schedule, tab: IntegralTable, cfg: SolverConfig, x_init
):
    """Singlestep sampling: independent macro steps of ``order`` substeps each.

    Derivatives are built only from values inside the current macro step,
    all anchored at its first point.  When the grid length is not a multiple
    of the order, the final macro step runs at the remainder's (lower)
    order.  Corrector and pseudo flags do not apply to this path.  ``x_init``
    may be ``(D,)`` or ``(B, D)``; returns the final state.  Raises
    ValueError unless ``sched`` equals ``tab.ems.schedule``.
    """
    grid = _snap_grid(tab.ems, sched, cfg.grid)
    total = len(grid.idx) - 1
    transitions = [
        (start, target, tuple(range(target - 1, start, -1)), None)
        for start in range(0, total, cfg.order)
        for target in range(start + 1, min(start + cfg.order, total) + 1)
    ]
    return _run(model, sched, tab, grid, _plan(tab, grid, transitions), x_init)


def ddim_step(sched: Schedule, x_s, eps_s, t_s: float, t_t: float):
    """Classical first-order deterministic update from t_s down to t_t."""
    if t_t > t_s:
        raise ValueError(f"need t_t <= t_s, got {t_t} > {t_s}")
    alpha_s = sched.alpha(t_s)
    alpha_t = sched.alpha(t_t)
    sigma_s = sched.sigma(t_s)
    sigma_t = sched.sigma(t_t)
    x_s, eps_s = np.asarray(x_s, dtype=float), np.asarray(eps_s, dtype=float)
    return (alpha_t / alpha_s) * x_s - alpha_t * (sigma_s / alpha_s - sigma_t / alpha_t) * eps_s


def ddim_sample(model: ModelSpec, sched: Schedule, timesteps, x_init):
    """Run the first-order baseline over a decreasing sequence of timesteps.

    Steps between the given times as they are, with no snapping to any
    table.  The CLI passes the sampling grid's times snapped to the table,
    so its DDIM runs see the same times as the table-driven samplers.
    Raises DomainError when the initial or final state is non-finite.
    """
    ts = np.asarray(timesteps, dtype=float)
    x = np.asarray(x_init, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("initial sampler state has non-finite entries")
    for i in range(len(ts) - 1):
        eps = model.eps(sched, x, sched.lambda_of_t(ts[i]))
        x = ddim_step(sched, x, eps, float(ts[i]), float(ts[i + 1]))
    if not np.all(np.isfinite(x)):
        raise DomainError("sampler state became non-finite")
    return x
