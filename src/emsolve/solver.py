"""High-order exponential-integrator sampling on a precomputed step plan.

The local update transits from an anchor state to a later lambda by Taylor
expansion of the reparameterized model output g.  The needed
lambda-derivatives of g are estimated from previous function values, either
by matching a polynomial through all of them (full order) or by a
divided-difference recurrence that uses only the nearest k+1 values for the
k-th derivative ("pseudo" order, more stable at very few steps).  Both
estimates are linear in the g values, with scalar weights that depend only
on the step's lambda offsets, so they are computed in closed form when the
:class:`SamplerPlan` is built and folded with the E^k weights into one
``(D,)`` vector per g value: a step makes no linear solve.

g's zero point is the anchor, but moving it scales and offsets g by the same
``(D,)`` vectors at every position, and a step's weights sum to E^0.  So the
plan of a sampler's (anchor, target, history, corrector) transitions folds
each step's re-anchoring into its weights and bias, and one loop forms each
position's g once, against the run's first grid point.  The multistep
corrector reuses the step's model evaluation (no extra NFE).  States may be
``(D,)`` or ``(B, D)``: rows never mix, so a batch gives the same bits as its
rows run one at a time.  A plan reads its schedule from the table; its runs
are sequential, can share the tables, and record a trace only when given a list.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ems import EmsTable
from .errors import DomainError
from .integrals import IntegralTable, Transition, g_map, transition_coefficients
from .models import ModelSpec
from .schedule import Schedule, TimeGrid, read_only

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
        integral = isinstance(self.order, numbers.Integral)
        if not (integral and 1 <= self.order <= _MAX_PREDICTOR_ORDER):
            raise ValueError(
                f"order must be an integer in [1, {_MAX_PREDICTOR_ORDER}] (got {self.order!r}); "
                "4th order is available as the pseudo corrector on an order-3 run"
            )
        if not isinstance(self.grid, TimeGrid):
            raise ValueError(f"grid must be a TimeGrid, got {type(self.grid).__name__}")
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


def taylor_rows(deltas, pseudo: bool) -> list:
    """Scalar weights ``w[p][k]`` with g^(k)/k! estimated as ``sum_p w[p][k] g_p``.

    The nodes are the anchor's offset 0 and then ``deltas``, and ``g_p`` is
    the g value at node p.  Full order gives the coefficients of each node's
    Lagrange basis polynomial: the exact solution of the polynomial-matching
    (Vandermonde) system.  Pseudo order gives the divided-difference weights
    ``1 / prod_{q <= k, q != p} (x_p - x_q)`` for p <= k (zero above): the
    k-th derivative uses only the nearest k+1 values.  No offsets gives
    ``[[1.0]]``; offsets must be 1..3 finite, nonzero and distinct.
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


def _taylor_weights(coeffs: Transition, deltas, pseudo: bool) -> np.ndarray:
    """Anchor-first ``(n + 1, D)`` weights ``V_p = sum_k k! w[p][k] E^k`` of the g values read."""
    rows = taylor_rows(deltas, pseudo)
    n = len(rows)
    return np.array(rows) @ (np.array(coeffs.E[:n]) * _FACTORIALS[:n, None])


def _update(coeffs: Transition, x_s, weights, gs):
    """The Taylor-expanded update: x_t = alpha_t A (x_s / alpha_s - int_EB - sum_p V_p g_p)."""
    total = weights[0] * gs[0]
    for v, g in zip(weights[1:], gs[1:]):
        total += v * g
    return coeffs.alpha_t * coeffs.A * (x_s / coeffs.alpha_s - coeffs.int_EB - total)


@dataclass(frozen=True, eq=False)
class _Step:
    """One planned transition; positions index the plan's ``idx``.

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


@dataclass(frozen=True, eq=False)
class SamplerPlan:
    """One sampler run's coefficients, from :func:`plan_multistep` or :func:`plan_singlestep`."""

    tab: IntegralTable
    idx: tuple  # the run's positions, as indices of ``tab``
    lams: np.ndarray  # their lambdas, times and sigmas, read-only
    ts: np.ndarray
    sigmas: np.ndarray
    maps: tuple  # their g-maps against the first position
    steps: tuple

    def run(self, model: ModelSpec, x_init, trace: list | None = None):
        """Run from ``x_init``, ``(D,)`` or ``(B, D)``; returns the final state.

        One model call on the initial state and one per step but the last,
        each followed by its position's g.  Raises ValueError unless D is the
        table's.  Appends one row per step to a ``trace`` list: the target's
        ``t`` and ``lambda``, its state ``x`` and noise prediction ``eps`` as
        float64 arrays of the state's shape (the row's own copies; ``eps`` is
        None on the last row), and ``eps_norm`` and ``g_norm``, 2-norms over
        the whole state, batch included (g is against the first position).
        """
        # reads never start earlier, anchors stay or move to the target: keep the next step's reads
        ems, idx, lams, maps = self.tab.ems, self.idx, self.lams, self.maps
        x = np.asarray(x_init, dtype=float)
        if x.shape[-1:] != (ems.dim,):
            raise ValueError(f"state of shape {x.shape} for a table of dimension {ems.dim}")
        if not np.all(np.isfinite(x)):
            raise DomainError("initial sampler state has non-finite entries")
        x_s = x
        g = {0: _g_value(maps[0], x, model.eps(ems.schedule, x, lams[0]))}
        for i, step in enumerate(self.steps):
            a_pos, t_pos = step.anchor, step.target
            x = _update(step.coeffs, x_s, step.weights, [g[p] for p in (a_pos,) + step.history])
            if i == len(self.steps) - 1:
                if trace is not None:
                    trace.append(_trace_row(self.ts[t_pos], lams[t_pos], x, None, None))
                break

            eps = model.eps(ems.schedule, x, lams[t_pos])
            g[t_pos] = _g_value(maps[t_pos], x, eps)
            if step.corrector is not None:
                gs = [g[p] for p in (a_pos, t_pos) + step.corrector]
                x_corr = _update(step.coeffs, x_s, step.corrector_weights, gs)
                if trace is not None:
                    # the trace's noise prediction for the corrected state, which keeps
                    # the target's g value: a*dx + b*(l/sigma)*dx = 0 by construction
                    eps = eps + ems.l[idx[t_pos]] * (x_corr - x) / self.sigmas[t_pos]
                x = x_corr
            if trace is not None:
                trace.append(_trace_row(self.ts[t_pos], lams[t_pos], x, eps, g[t_pos]))
            nxt = self.steps[i + 1]
            x_s = x if nxt.anchor == t_pos else x_s
            g = {p: g[p] for p in (nxt.anchor,) + nxt.history + (nxt.corrector or ())}

        if not np.all(np.isfinite(x)):
            raise DomainError("sampler state became non-finite")
        return x


def _plan(tab, idx, transitions, pseudo_predictor=False, pseudo_corrector=False):
    """The plan over table indices ``idx``, a step per transition that ``transitions(ts)`` yields.

    A transition is (anchor, target, history, corrector) in positions of ``idx``, whose times
    are ``ts``.  Every g-map comes from one :func:`g_map` call and every step's coefficients
    from one :func:`transition_coefficients` call.  Raises DomainError when a map, weight or
    bias is non-finite: the re-anchoring scale exp(S_anchor - S_first) spans the whole run.
    """
    idx, sched = np.asarray(idx), tab.ems.schedule
    lams = read_only(tab.lambda_grid[idx])
    ts = read_only(sched.t_of_lambda(lams))
    planned = list(transitions(ts))
    anchors = np.array([anchor for anchor, *_ in planned])
    # the corrector also reads the target's own g value, so it needs one more E^k
    ns = [len(h) if c is None else max(len(h), len(c) + 1) for *_, h, c in planned]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b, c = g_map(tab, idx[0], idx)
        targets = idx[[target for _, target, *_ in planned]]
        coeffs = transition_coefficients(tab, idx[anchors], targets, max(ns))
        # against itself the anchor's map has b = exp(-lambda) and c = 0
        scales = np.exp(-lams[anchors])[:, None] / b[anchors]
        int_EB = coeffs.int_EB - scales * c[anchors] * coeffs.E[0]
        lam, steps = lams.tolist(), []
        for i, (anchor, target, history, corrector) in enumerate(planned):
            E = tuple(e[i] for e in coeffs.E[: ns[i] + 1])
            step = Transition(coeffs.alpha_s[i], coeffs.alpha_t[i], coeffs.A[i], int_EB[i], E)
            deltas = [lam[p] - lam[anchor] for p in history]
            weights = scales[i] * _taylor_weights(step, deltas, pseudo_predictor)
            corrector_weights = None
            if corrector is not None:
                deltas = [lam[p] - lam[anchor] for p in (target,) + corrector]
                corrector_weights = scales[i] * _taylor_weights(step, deltas, pseudo_corrector)
            steps.append(_Step(anchor, target, history, corrector, step, weights, corrector_weights))
    finite = [np.isfinite(v).all() for v in (a, b, c, int_EB)]
    finite.append(np.isfinite(np.concatenate([s.weights for s in steps])).all())
    if not all(finite):
        raise DomainError("the step plan has non-finite entries; the fields overflow over the grid")
    sigmas = read_only(sched.sigma_lambda(lams))
    maps = tuple(zip(a, b, c))
    return SamplerPlan(tab, tuple(idx.tolist()), lams, ts, sigmas, maps, tuple(steps))


def _grid_indices(table: EmsTable, grid: TimeGrid) -> np.ndarray:
    """Snap ``grid``'s lambdas to indices of ``table``; they must stay strictly increasing."""
    idx = table.index_of(grid.lambdas)
    if np.any(np.diff(idx) <= 0):
        raise ValueError(
            "sampling grid is finer than the coefficient table; "
            "increase the table's timestep count"
        )
    return idx


def plan_multistep(tab: IntegralTable, cfg: SolverConfig) -> SamplerPlan:
    """The plan of multistep predictor-corrector sampling over the configured grid.

    Its run makes exactly ``M`` noise-prediction calls for an ``M``-interval
    grid: one on the initial state and one per step except the last (the
    corrector reuses the step's evaluation instead of adding one).  Early
    steps ramp the order up as history becomes available.
    """
    half_threshold = 0.5 * tab.ems.schedule.t_domain[1]

    def transitions(ts):
        num_steps = len(ts) - 1
        for m in range(1, num_steps + 1):
            n_m = min(cfg.order, m)
            n_c = n_m + 1 if cfg.pseudo_corrector else n_m
            corrected = (
                m < num_steps
                and cfg.corrector != CORRECTOR_NONE
                and n_c >= 2
                and (cfg.corrector == CORRECTOR_FULL or ts[m] <= half_threshold)
            )
            history = tuple(range(m - 2, m - 1 - n_m, -1))
            corrector = tuple(range(m - 2, m - n_c, -1)) if corrected else None
            yield m - 1, m, history, corrector

    idx = _grid_indices(tab.ems, cfg.grid)
    return _plan(tab, idx, transitions, cfg.pseudo_predictor, cfg.pseudo_corrector)


def plan_singlestep(tab: IntegralTable, cfg: SolverConfig) -> SamplerPlan:
    """The plan of singlestep sampling: independent macro steps of ``order`` substeps each.

    Derivatives are built only from values inside the current macro step,
    all anchored at its first point.  When the grid length is not a multiple
    of the order, the final macro step runs at the remainder's (lower)
    order.  Raises ValueError if ``cfg`` sets a corrector or a pseudo flag,
    which this path has no use for.
    """
    if cfg.corrector != CORRECTOR_NONE or cfg.pseudo_predictor or cfg.pseudo_corrector:
        raise ValueError("singlestep sampling takes no corrector and no pseudo flags")
    idx = _grid_indices(tab.ems, cfg.grid)
    total = len(idx) - 1
    transitions = [
        (start, target, tuple(range(target - 1, start, -1)), None)
        for start in range(0, total, cfg.order)
        for target in range(start + 1, min(start + cfg.order, total) + 1)
    ]
    return _plan(tab, idx, lambda ts: transitions)


def lupdate(tab: IntegralTable, anchor: tuple, extras: list, j_t: int):
    """One local transition from the anchor grid point to grid point ``j_t``.

    ``anchor`` is (grid index, state, g value) and ``extras`` a nearest-first list of (grid
    index, g value) pairs for the higher derivative estimates, matched exactly (full order),
    all g values against this anchor.  Returns the state at ``j_t`` from the single step of a
    plan whose first position, and so g's zero point, is the anchor.
    """
    j_s, x_s, g_s = anchor
    history = tuple(range(2, len(extras) + 2))
    idx = [j_s, j_t] + [j for j, _ in extras]
    (step,) = _plan(tab, idx, lambda ts: [(0, 1, history, None)]).steps
    return _update(step.coeffs, x_s, step.weights, [g_s] + [g for _, g in extras])


def _g_value(abc, x, eps):
    a, b, c = abc
    return a * x + b * eps + c


def _trace_row(t, lam, x, eps, g):
    return {
        "t": float(t),
        "lambda": float(lam),
        "x": np.array(x, dtype=np.float64),
        "eps": None if eps is None else np.array(eps, dtype=np.float64),
        "eps_norm": None if eps is None else float(np.linalg.norm(eps)),
        "g_norm": None if g is None else float(np.linalg.norm(g)),
    }


def _check_schedule(sched: Schedule, tab: IntegralTable):
    """Raise ValueError unless ``sched`` is, or equals, the schedule ``tab`` was built for."""
    # `is` first: a delegate wrapping the table's own schedule is not == to it
    if not (sched is tab.ems.schedule or sched == tab.ems.schedule):
        want, got = tab.ems.schedule.to_dict(), sched.to_dict()
        raise ValueError(f"the table is for schedule {want}, not {got}")


def multistep_sample(
    model: ModelSpec, sched: Schedule, tab: IntegralTable, cfg: SolverConfig, x_init
):
    """Plan with :func:`plan_multistep`, run from ``x_init``; returns the final state and plan."""
    _check_schedule(sched, tab)
    plan = plan_multistep(tab, cfg)
    return plan.run(model, x_init), plan


def singlestep_sample(
    model: ModelSpec, sched: Schedule, tab: IntegralTable, cfg: SolverConfig, x_init
):
    """Plan with :func:`plan_singlestep`, run from ``x_init``; returns the final state."""
    _check_schedule(sched, tab)
    return plan_singlestep(tab, cfg).run(model, x_init)
