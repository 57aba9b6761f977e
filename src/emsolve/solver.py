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
``(D,)`` vector per g value: a step makes no linear solve.  The plan builds
them per group of steps with the same node count and pseudo flag.

g's zero point is the anchor, but moving it scales and offsets g by the same
``(D,)`` vectors at every position, and a step's weights sum to E^0.  So the
plan of a sampler's (anchor, target, history, corrector) transitions folds
each step's re-anchoring into its weights and bias, and one loop forms each
position's g once, against the run's first grid point.  The multistep
corrector reuses the step's model evaluation (no extra NFE).  States may be
``(D,)`` or ``(B, D)``: rows never mix, so a batch gives the same bits as its
rows run one at a time; the loop runs coordinate-major, so the long batch
axis is every numpy call's inner loop.  A plan reads its schedule's values
off the table's grid; its runs are sequential, can share the tables, and
record a trace only when given a list.

Memo.  A plan is a value of its read-only table, the sampler kind, the
grid's lambdas, the order, the corrector and the two pseudo flags, so this
module keeps each :class:`IntegralTable`'s plans in a memo keyed by those
values (the lambdas as their bytes) and cleared when it holds
``_PLAN_MEMO_SIZE`` entries.  The memos live in a weak mapping keyed on the
table object, so a copy, pickle or ``replace`` of a table is a new key with
no plans.  :func:`plan_multistep` and :func:`plan_singlestep` check the
table and the settings on every call, but snap the grid to the table's
indices only on a miss: a hit, as from a new :class:`SolverConfig` with an
equal grid, snaps nothing and returns the stored plan itself.  Two grids whose different
lambdas snap alike get one entry each, with equal plans.  A plan that raises
is never stored.  A plan holds the table's :class:`EmsTable`, which holds no
integral table, so no memo keeps its table alive.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .ems import EmsTable
from .errors import (
    DomainError, check_floats, check_instance, check_int, check_items, check_members
)
from .integrals import IntegralTable, check_grid_indices, g_map, transition_coefficients
from .models import ModelSpec
from .schedule import Schedule, TimeGrid, check_schedule

CORRECTOR_NONE = "none"
CORRECTOR_FULL = "full"
CORRECTOR_HALF = "half"
CORRECTORS = (CORRECTOR_NONE, CORRECTOR_FULL, CORRECTOR_HALF)

_MAX_PREDICTOR_ORDER = 3
_FACTORIALS = np.array([math.factorial(k) for k in range(_MAX_PREDICTOR_ORDER + 1)], dtype=float)
# The cap on a table's plan memo, which is cleared when full.  sample-serial's runs
# plan 32 (sampler, settings) pairs on one table, bench-convergence's defaults 12.
_PLAN_MEMO_SIZE = 64
# each IntegralTable's plan memo, a dict from key to plan (see the module's "Memo." paragraph)
_PLANS = weakref.WeakKeyDictionary()


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
        check_int(self.order, "order", 1, _MAX_PREDICTOR_ORDER)
        check_instance(self.grid, TimeGrid, "grid")
        for name in ("pseudo_predictor", "pseudo_corrector"):
            check_instance(getattr(self, name), bool, name)
        if self.corrector not in CORRECTORS:
            raise ValueError(f"unknown corrector {self.corrector!r}")
        if self.corrector != CORRECTOR_NONE and self.order < 2:
            raise ValueError("a corrector has order >= 2; use order >= 2 or corrector='none'")
        if self.pseudo_corrector and self.corrector == CORRECTOR_NONE:
            raise ValueError("pseudo_corrector requires a corrector strategy")


def _taylor_rows(offsets, pseudo: bool) -> np.ndarray:
    """Scalar weights ``w[s, p, k]``: step s estimates g^(k)/k! as ``sum_p w[s, p, k] g_p``.

    ``offsets`` is ``(S, n)``: step s's nodes are the anchor's offset 0 and
    then row s, and ``g_p`` is the g value at node p.  Full order gives the
    coefficients of each node's Lagrange basis polynomial: the exact
    solution of the polynomial-matching (Vandermonde) system.  Pseudo order
    gives the divided-difference weights ``1 / prod_{q <= k, q != p} (x_p -
    x_q)`` for p <= k (zero above): the k-th derivative uses only the
    nearest k+1 values.  No offsets (n = 0) gives ``[[1.0]]`` per step;
    otherwise each row must hold 1..3 finite, nonzero and distinct offsets.
    Each entry takes the IEEE operations of the one-node-at-a-time
    recurrence in its order, so it has that recurrence's bits.
    """
    offsets = np.asarray(offsets, dtype=float)
    if not 0 <= offsets.shape[1] <= _MAX_PREDICTOR_ORDER:
        raise ValueError(f"need 1..{_MAX_PREDICTOR_ORDER} offsets, got {offsets.shape[1]}")
    if not np.isfinite(offsets).all():
        got = offsets[np.argmin(np.isfinite(offsets).all(axis=1))].tolist()
        raise ValueError(f"lambda offsets must be finite, got {got}")
    m = offsets.shape[1] + 1
    eye, upper, others = _node_layout(m)
    nodes = np.zeros((len(offsets), m))
    nodes[:, 1:] = offsets
    # gaps[s, p, q] = x_p - x_q, and 1.0 for q = p: a product over q skips p exactly
    gaps = nodes[:, :, None] - nodes[:, None, :]
    gaps += eye
    if not gaps.all():
        got = offsets[np.argmin(gaps.all(axis=(1, 2)))].tolist()
        raise ValueError(f"lambda offsets must be nonzero and distinct, got {got}")
    denoms = np.cumprod(gaps, axis=2)  # prod_{q <= k, q != p} (x_p - x_q), in node order
    if pseudo:
        return np.where(upper, 1.0 / denoms, 0.0)
    # node p's numerator prod_{q != p} (x - x_q), increasing powers, right-aligned in
    # ``poly`` as it grows by one power per node q; each pass reads the last pass's values
    x_q = nodes[:, others]  # x_q[s, p, j]: the j-th node other than p
    poly = np.zeros_like(gaps)
    poly[..., -1] = 1.0
    for k in range(m - 1):
        lo = m - 2 - k
        poly[..., lo:-1] -= x_q[..., k, None] * poly[..., lo + 1 :]
    return poly / denoms[..., -1:]


@functools.cache
def _node_layout(m: int) -> tuple:
    """For ``m`` nodes: the identity, the upper-triangle mask and, per node p, the other nodes."""
    j = np.arange(m - 1)
    layout = np.eye(m), np.triu(np.ones((m, m), dtype=bool)), j + (j >= np.arange(m)[:, None])
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _update(scale, x_s, alpha_s, int_EB, weights, g, reads):
    """The Taylor-expanded update: x_t = alpha_t A (x_s / alpha_s - int_EB - sum_p V_p g_p).

    ``scale`` is alpha_t A; each (position, row) of ``reads`` adds ``weights[row] * g[position]``.
    The sum is the one scratch array; every later product and the result share the returned one.
    """
    (p, row), *rest = reads
    total = weights[row] * g[p]
    out = None
    for p, row in rest:
        out = np.multiply(weights[row], g[p], out=out)
        total += out
    out = np.divide(x_s, alpha_s, out=out, order="C")
    out -= int_EB
    out -= total
    out *= scale
    return out


@dataclass(frozen=True, eq=False)
class SamplerPlan:
    """One sampler run's coefficients, from :func:`plan_multistep` or :func:`plan_singlestep`.

    Its arrays are read-only and stacked: per position, per step, and every
    step's Taylor weights, folded with its E^k and re-anchoring, as rows of
    one unpadded array.  A step reads g values as (position, weight row)
    pairs: the anchor's first, then nearest first.
    """

    ems: EmsTable  # the table's statistics, whose schedule, dim and l the run reads
    idx: tuple  # the run's positions, as indices of ``ems``
    lams: np.ndarray  # their lambdas, times and sigmas
    ts: np.ndarray
    sigmas: np.ndarray
    maps: tuple  # their g-maps (a, b, c) against the first position, (P, D) each
    targets: tuple  # each step's target position
    reads: tuple  # each step's predictor reads
    corrector_reads: tuple  # its corrector's, anchor and target first; None if not corrected
    scale: np.ndarray  # (S, D) alpha_t A
    alpha_s: np.ndarray  # (S,)
    int_EB: np.ndarray  # (S, D), with the step's re-anchoring
    weights: np.ndarray  # (R, D)

    def run(self, model: ModelSpec, x_init, trace: list | None = None):
        """Run from ``x_init``, ``(D,)`` or ``(B, D)``; returns the final state.

        One model call on the initial state and one per step but the last,
        each followed by its position's g.  A ``(B, D)`` state and its g
        values are held as ``(D, B)`` arrays against ``(D, 1)`` weight
        columns, reading the caller's state and each eps through their
        transposes; the final state is transposed back on exit.  Raises
        ValueError, before any model call, for a ``model`` without ``eps``, a
        ``trace`` that is neither None nor a list, or a state whose D is not
        the table's.  Appends one row per step to a ``trace`` list: the
        target's ``t`` and ``lambda``, its state ``x`` and noise prediction
        ``eps`` as C-ordered float64 arrays of the state's shape (the row's
        own copies; ``eps`` is None on the last row), and ``eps_norm`` and
        ``g_norm``, each row's 2-norm (g against the first position): a float
        for a ``(D,)`` state, else an array of its leading shape whose entries
        have the bits of each row's own run.
        """
        check_members(model, "model", ("eps",))
        if trace is not None:
            check_instance(trace, list, "trace")
        ems, lams, sigmas, last = self.ems, self.lams, self.sigmas, len(self.targets) - 1
        x = check_floats(x_init, "x_init")
        if x.shape[-1:] != (ems.dim,):
            raise ValueError(f"state of shape {x.shape} for a table of dimension {ems.dim}")
        if not np.isfinite(x).all():
            raise DomainError("initial sampler state has non-finite entries")
        # (D, 1) weight columns against (D, B) arrays, or the (D,) rows against a (D,) state
        col = (Ellipsis,) + (None,) * (x.ndim - 1)
        stacked = (*self.maps, self.scale, self.int_EB, self.weights, ems.l)
        a, b, c, scale, int_EB, weights, l = (arr[col] for arr in stacked)
        x = x_s = x.T  # the caller's array, read through its transpose by the first reads
        g = {0: _g_value(a[0], b[0], c[0], x, model.eps(ems.schedule, x.T, lams[0]).T)}
        # reads never start earlier, anchors stay or move to the target: keep the next step's reads
        for i, t_pos in enumerate(self.targets):
            step = scale[i], x_s, self.alpha_s[i], int_EB[i], weights, g
            x = _update(*step, self.reads[i])
            if i == last:
                break
            eps = model.eps(ems.schedule, x.T, lams[t_pos]).T
            g[t_pos] = _g_value(a[t_pos], b[t_pos], c[t_pos], x, eps)
            if self.corrector_reads[i] is not None:
                x_corr = _update(*step, self.corrector_reads[i])
                if trace is not None:
                    # the trace's noise prediction for the corrected state, which keeps
                    # the target's g value: a*dx + b*(l/sigma)*dx = 0 by construction
                    eps = eps + l[self.idx[t_pos]] * (x_corr - x) / sigmas[t_pos]
                x = x_corr
            if trace is not None:
                trace.append(_trace_row(self.ts[t_pos], lams[t_pos], x, eps, g[t_pos]))
            reads = self.reads[i + 1] + (self.corrector_reads[i + 1] or ())
            x_s = x if reads[0][0] == t_pos else x_s
            g = {p: g[p] for p, _ in reads if p != self.targets[i + 1]}
        if trace is not None:
            trace.append(_trace_row(self.ts[t_pos], lams[t_pos], x, None, None))
        x = np.ascontiguousarray(x.T)
        if not np.isfinite(x).all():
            raise DomainError("sampler state became non-finite")
        return x


def _plan(tab, idx, transitions, pseudo_predictor=False, pseudo_corrector=False):
    """The plan over table indices ``idx``, a step per entry of the list ``transitions``.

    A transition is (anchor, target, history, corrector) in positions of ``idx``; times,
    sigmas and alphas are read off the table's grid values.  Every g-map comes from one
    :func:`g_map` call and every step's coefficients from one
    :func:`transition_coefficients` call.  The Taylor weights are built per group of sums
    that share a node count and pseudo flag: one :func:`_taylor_rows` call and one stacked
    ``np.matmul`` with the k! E^k, which gives each step the bits of its own 2-D product.  A
    one-node sum's weight is 1.0, so its row is E^0 itself, with no call.  Raises
    DomainError when a map, weight or bias is non-finite: the re-anchoring scale
    exp(S_anchor - S_first) spans the whole run.
    """
    idx = np.asarray(idx)
    lams, ts = tab.lambda_grid[idx], tab.t[idx]
    # a Taylor sum's weights are consecutive rows, read as (position, row) pairs, anchor
    # first; sums are grouped by node count and pseudo flag, as their first rows
    groups, row_steps, read_at = {}, [], []

    def taylor_sum(i, positions, pseudo):
        start = len(row_steps)
        groups.setdefault((len(positions), pseudo), []).append(start)
        row_steps.extend([i] * len(positions))
        read_at.extend(positions)
        return tuple(zip(positions, range(start, len(row_steps))))

    reads, corrector_reads = [], []
    for i, (anchor, target, history, corrector) in enumerate(transitions):
        reads.append(taylor_sum(i, (anchor,) + history, pseudo_predictor))
        if corrector is not None:  # the corrector also reads the target's own g value
            corrector = taylor_sum(i, (anchor, target) + corrector, pseudo_corrector)
        corrector_reads.append(corrector)
    anchors, targets, *_ = zip(*transitions)
    anchors, row_steps = np.array(anchors), np.array(row_steps)
    offsets = lams[read_at] - lams[anchors[row_steps]]  # each row's lambda against its anchor
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b, c = g_map(tab, idx[0], idx)
        n_max = max(size for size, _ in groups) - 1
        coeffs = transition_coefficients(tab, idx[anchors], idx[list(targets)], n_max)
        # against itself the anchor's map has b = exp(-lambda) and c = 0
        scales = np.exp(-lams[anchors])[:, None] / b.take(anchors, axis=0)
        int_EB = coeffs.int_EB - scales * c.take(anchors, axis=0) * coeffs.E[0]
        moments = np.stack(coeffs.E, axis=1) * _FACTORIALS[: n_max + 1, None]  # (S, n + 1, D)
        folded = np.empty((len(row_steps), tab.ems.dim))
        for (size, pseudo), starts in groups.items():
            starts = np.array(starts)
            steps = row_steps[starts]
            if size == 1:
                # the product's sum starts from +0.0, which turns a -0.0 into 0.0
                folded[starts] = moments[steps, 0] + 0.0
                continue
            rows = starts[:, None] + np.arange(size)
            taylor = _taylor_rows(offsets[rows[:, 1:]], pseudo)
            folded[rows] = np.matmul(taylor, moments[steps, :size])
        weights = scales.take(row_steps, axis=0) * folded
    if not all(np.isfinite(v).all() for v in (a, b, c, int_EB, weights)):
        raise DomainError("the step plan has non-finite entries; the fields overflow over the grid")
    stacked = (coeffs.alpha_t[:, None] * coeffs.A, coeffs.alpha_s, int_EB, weights)
    sigmas = tab.sigma[idx]
    for arr in (lams, ts, sigmas, a, b, c, *stacked):
        arr.setflags(write=False)  # fresh arrays that only the plan holds: no read-only copies
    return SamplerPlan(
        tab.ems, tuple(idx.tolist()), lams, ts, sigmas, (a, b, c), targets, tuple(reads),
        tuple(corrector_reads), *stacked,
    )


def _grid_indices(tab: IntegralTable, cfg: SolverConfig) -> np.ndarray:
    """Snap ``cfg``'s grid to ``tab``'s indices, which must stay increasing."""
    idx = tab.ems.index_of(cfg.grid.lambdas)
    if (idx[1:] <= idx[:-1]).any():
        raise ValueError(
            "sampling grid is finer than the coefficient table; "
            "increase the table's timestep count"
        )
    return idx


def _memoized_plan(tab, cfg, kind, transitions) -> SamplerPlan:
    """``tab``'s memoized plan of ``kind`` over ``cfg``; on a miss, snap the grid and plan it.

    Checks ``tab`` and ``cfg`` first.  ``transitions(idx)`` builds a miss's transition
    list over the snapped indices (see the module's "Memo." paragraph).
    """
    check_instance(tab, IntegralTable)
    check_instance(cfg, SolverConfig)
    key = (
        kind, cfg.grid.lambdas.tobytes(), cfg.order, cfg.corrector,
        cfg.pseudo_predictor, cfg.pseudo_corrector,
    )
    plans = _PLANS.setdefault(tab, {})
    plan = plans.get(key)
    if plan is None:
        idx = _grid_indices(tab, cfg)
        plan = _plan(tab, idx, transitions(idx), cfg.pseudo_predictor, cfg.pseudo_corrector)
        if len(plans) >= _PLAN_MEMO_SIZE:
            plans.clear()
        plans[key] = plan
    return plan


def plan_multistep(tab: IntegralTable, cfg: SolverConfig) -> SamplerPlan:
    """The plan of multistep predictor-corrector sampling over the configured grid.

    Its run makes exactly ``M`` noise-prediction calls for an ``M``-interval
    grid: one on the initial state and one per step except the last (the
    corrector reuses the step's evaluation instead of adding one).  Early
    steps ramp the order up as history becomes available.  Checks ``tab``
    and ``cfg`` on every call, then returns ``tab``'s memoized plan for an
    equal grid and settings; only a miss snaps the grid and plans.
    """

    def transitions(idx):
        ts, num_steps = tab.t[idx], len(idx) - 1
        half_threshold = 0.5 * tab.ems.schedule.t_domain[1]
        steps = []
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
            steps.append((m - 1, m, history, corrector))
        return steps

    return _memoized_plan(tab, cfg, "multistep", transitions)


def plan_singlestep(tab: IntegralTable, cfg: SolverConfig) -> SamplerPlan:
    """The plan of singlestep sampling: independent macro steps of ``order`` substeps each.

    Derivatives are built only from values inside the current macro step,
    all anchored at its first point.  When the grid length is not a multiple
    of the order, the final macro step runs at the remainder's (lower)
    order.  Checks ``tab`` and ``cfg`` on every call, then returns ``tab``'s
    memoized plan for an equal grid and settings; only a miss snaps the grid
    and plans.  Raises ValueError if ``cfg`` sets a corrector or a pseudo
    flag, which this path has no use for, after the grid's own error: such a
    plan is never stored, so the call always misses and snaps.
    """

    def transitions(idx):
        if cfg.corrector != CORRECTOR_NONE or cfg.pseudo_predictor or cfg.pseudo_corrector:
            raise ValueError("singlestep sampling takes no corrector and no pseudo flags")
        total = len(idx) - 1
        return [
            (start, target, tuple(range(target - 1, start, -1)), None)
            for start in range(0, total, cfg.order)
            for target in range(start + 1, min(start + cfg.order, total) + 1)
        ]

    return _memoized_plan(tab, cfg, "singlestep", transitions)


def lupdate(tab: IntegralTable, anchor: tuple, extras: list, j_t: int):
    """One local transition from the anchor grid point to grid point ``j_t``.

    ``anchor`` is (grid index, state, g value) and ``extras`` a nearest-first list of (grid
    index, g value) pairs for the higher derivative estimates, matched exactly (full order),
    all g values against this anchor.  Returns the state at ``j_t`` from the single step of a
    plan whose first position, and so g's zero point, is the anchor; the state and the g
    values broadcast together.  Raises ValueError unless ``anchor`` is a triple and each
    extra a pair, then IndexError for an anchor, target or extra index off the grid, before
    any other check.
    """
    check_instance(tab, IntegralTable)
    j_s, x_s, g_s = check_items(anchor, "anchor", 3)
    extras = [check_items(pair, "each extra", 2) for pair in check_items(extras, "extras")]
    history = tuple(range(2, len(extras) + 2))
    idx = [j_s, j_t] + [j for j, _ in extras]
    check_grid_indices(tab, np.array(idx[:1]), np.array(idx))
    plan = _plan(tab, idx, [(0, 1, history, None)])
    # one shape for all, as the in-place update needs
    x_s, *gs = np.broadcast_arrays(x_s, g_s, *(g for _, g in extras))
    g = dict(zip((0,) + history, gs))
    step = plan.scale[0], x_s, plan.alpha_s[0], plan.int_EB[0], plan.weights, g
    return _update(*step, plan.reads[0])


def _g_value(a, b, c, x, eps):
    """g = a x + b eps + c, C-ordered whatever the memory order of ``x`` and ``eps``."""
    g = np.multiply(a, x, order="C")
    g += np.multiply(b, eps, order="C")
    g += c
    return g


def _trace_row(t, lam, x, eps, g):
    """A trace row from the loop's coordinate-major arrays, copied back to the state's layout."""
    x, eps, g = (None if v is None else np.array(v.T, order="C") for v in (x, eps, g))
    return {
        "t": float(t),
        "lambda": float(lam),
        "x": x,
        "eps": eps,
        "eps_norm": _row_norms(eps),
        "g_norm": _row_norms(g),
    }


def _row_norms(rows):
    """Each row's sqrt(row . row), a float for one row, as ``np.linalg.norm`` takes a 1-D array's.

    Stacked ``np.matmul`` forms each C-contiguous row's dot product as ``np.dot`` does.
    """
    if rows is None:
        return None
    norms = np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])
    return float(norms) if rows.ndim == 1 else norms


def _check_schedule(sched: Schedule, tab: IntegralTable):
    """Raise ValueError unless ``sched`` is, or equals, the schedule ``tab`` was built for."""
    if sched is tab.ems.schedule:  # checked when the table was built
        return
    check_schedule(sched)
    # a delegate wrapping the table's own schedule is not == to it: it passes by identity above
    if sched != tab.ems.schedule:
        want, got = tab.ems.schedule.to_dict(), sched.to_dict()
        raise ValueError(f"the table is for schedule {want}, not {got}")


def multistep_sample(
    model: ModelSpec, sched: Schedule, tab: IntegralTable, cfg: SolverConfig, x_init
):
    """Plan with :func:`plan_multistep`, check ``sched``, run from ``x_init``.

    Returns the final state and the plan.  A repeated (table, settings) pair
    reuses the table's memoized plan and snaps nothing: a grid of equal
    lambdas finds it, and the table's own schedule is accepted by identity.
    """
    plan = plan_multistep(tab, cfg)
    _check_schedule(sched, tab)
    return plan.run(model, x_init), plan


def singlestep_sample(
    model: ModelSpec, sched: Schedule, tab: IntegralTable, cfg: SolverConfig, x_init
):
    """Plan with :func:`plan_singlestep`, check ``sched``, run from ``x_init``.

    Returns the final state.  A repeated (table, settings) pair reuses the
    table's memoized plan and snaps nothing, as in :func:`multistep_sample`.
    """
    plan = plan_singlestep(tab, cfg)
    _check_schedule(sched, tab)
    return plan.run(model, x_init)
