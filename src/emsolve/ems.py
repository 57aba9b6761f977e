"""Empirical model statistics (EMS) on a uniform logSNR grid.

Three per-dimension coefficient fields drive the generalized exponential
integrator:

* ``l``: the mean diagonal of the scaled noise-predictor Jacobian,
  E[diag(sigma * grad_x eps)], estimated with a Rademacher-probe stochastic
  diagonal estimator.  It splits the ODE into a linear part that is integrated
  exactly and a nonlinearity that is made maximally insensitive to state error.
* ``s``, ``b``: the least-squares fit of the lambda-derivative of the
  nonlinearity f against f itself (slope and intercept), which minimizes the
  first-order discretization error of the resulting solver.

Estimation is one sweep over the grid: each grid point's one model call
reduces to l and six centred moments over the diffused datapoints (three
means, a variance and two covariances), and s and b follow in closed form
once l's slope is known.  The sweep keeps its (K, D) sample arrays and
probe terms coordinate-major, laid out (D, K), so l and each moment is a
contiguous row sum, and it keeps them in one workspace dict that it passes
to the model's ``linearize`` too: every grid point after the first reuses
the first point's arrays (and, for a mixture with one probe, all of them).
Tables are immutable once built and serialize to a versioned JSON file.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    TableFormatError, UnsupportedVersionError, check_instance, check_int, check_keyword,
    check_members, check_span,
)
from .models import ModelSpec, model_id, row_buffers
from .schedule import Schedule, check_lam_span, check_schedule, read_only

NOISE_PRED = "noise-pred"
DATA_PRED = "data-pred"

_FILE_VERSION = 1
_ABS_FLOOR = 1e-20
# the table's arrays in file order: the (rows,) lambda grid, then the (rows, D) fields
_ARRAYS = ("lambda_grid", "l", "s", "b", "l_dot")
# the key of the sweep's own arrays in the workspace it shares with the model
_SWEEP_KEY = "sweep"


@dataclass(frozen=True)
class EmsConfig:
    """Settings for one estimation run.

    ``num_timesteps`` is the number of grid intervals (the grid has one more point).
    """

    num_timesteps: int
    num_datapoints: int
    lam_range: tuple[float, float]
    probes_per_point: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("num_timesteps", "num_datapoints", "probes_per_point"):
            check_int(getattr(self, name), name, 1)
        check_int(self.seed, "seed", 0)
        object.__setattr__(self, "lam_range", check_span(self.lam_range, "lam_range"))


@dataclass(frozen=True, eq=False)
class EmsTable:
    """Coefficient vectors l, s, b and the finite-difference slope of l.

    Rows are indexed by a strictly increasing, uniformly spaced lambda grid.
    The arrays are read-only copies (see ``read_only``), and ``meta`` a read-only copy.
    ``schedule`` is a Schedule or a delegate with its members (``check_schedule``).
    """

    lambda_grid: np.ndarray
    l: np.ndarray
    s: np.ndarray
    b: np.ndarray
    l_dot: np.ndarray
    schedule: Schedule
    meta: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        check_schedule(self.schedule)
        check_instance(self.meta, Mapping, "meta")
        grid = read_only(self.lambda_grid, "lambda_grid")
        if grid.ndim != 1:
            raise ValueError(f"lambda_grid must be 1-D, got shape {grid.shape}")
        field_shape = grid.shape + np.shape(self.l)[-1:]
        for name in _ARRAYS:
            arr = grid if name == "lambda_grid" else read_only(getattr(self, name), name)
            expected = grid.shape if name == "lambda_grid" else field_shape
            if arr.shape != expected:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if self.dim < 1:
            raise ValueError(f"the fields need at least one column, got shape {field_shape}")
        if len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("lambda_grid must be strictly increasing with >= 2 points")
        h = np.diff(grid)
        if np.max(np.abs(h - h[0])) > 1e-12 * max(1.0, abs(grid[-1] - grid[0])):
            raise ValueError("lambda_grid must be uniformly spaced")
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    def __reduce__(self):
        # through the constructor, so a copy or an unpickled table is read-only and checked too
        return type(self), (*(getattr(self, name) for name in _ARRAYS), self.schedule, dict(self.meta))

    @property
    def dim(self) -> int:
        return np.asarray(self.l).shape[-1]

    @property
    def spacing(self) -> float:
        return _spacing(self.lambda_grid)

    def index_of(self, lam):
        """Snap a lambda, or an array of them, to the nearest grid index; error if off the grid's range.

        Ties round half to even.  Returns an int for a scalar, an index array
        for an array.
        """
        grid, h0 = self.lambda_grid, self.spacing
        lams = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore"):  # inf, not a warning
            offset = np.rint((lams - grid[0]) / h0)
        inside = (offset >= 0) & (offset < len(grid))  # False for NaN
        j = np.where(inside, offset, 0).astype(int)
        inside &= np.abs(lams - grid[j]) <= 0.5 * h0 + 1e-12
        if not inside.all():
            bad = lams.flat[np.argmin(inside)]
            raise ValueError(f"lambda={bad} outside the table range [{grid[0]}, {grid[-1]}]")
        return j if j.ndim else int(j)

    def is_constant(self) -> bool:
        """True when l, s, b are the same vector at every grid point."""
        return all(np.all(f == f[0]) for f in (self.l, self.s, self.b))


def _spacing(grid) -> float:
    """The step of a uniform lambda grid: its span over its number of intervals."""
    return float((grid[-1] - grid[0]) / (len(grid) - 1))


# -- estimators ---------------------------------------------------------------


def diag_probe_terms(sigma, jvps, probe_vectors, out=None):
    """Per-sample stochastic-diagonal terms (sigma * jvp(x, v)) * v.

    ``jvps`` holds the model's Jacobian-vector products at the probe vectors
    ``probe_vectors``, shape (probes, K, D) with +-1 entries.  The result
    follows ``jvps``' memory layout, or is written into ``out`` (``jvps``
    itself, say) if given; :func:`diag_estimate` reduces it to the diagonal
    estimate.
    """
    terms = np.multiply(sigma, jvps, out=out)
    terms *= probe_vectors
    return terms


def diag_estimate(terms):
    """The stochastic diagonal estimate: the mean of ``terms``, (probes, K, D), over probes and K.

    Each coordinate's K terms under one probe are summed as one contiguous
    row, which numpy sums pairwise (rounding error O(eps log K), against
    O(eps K) for a sequential sum), and the probes' row sums are then added
    in order.  Terms laid out coordinate-major, as the transpose of a
    C-contiguous (probes, D, K) array, are read in place; any other layout
    is first copied to that one, so every layout gives the same bits.
    """
    rows = np.ascontiguousarray(np.swapaxes(terms, -1, -2))
    return rows.sum(axis=-1).sum(axis=0) / (rows.shape[0] * rows.shape[-1])


def estimate_l_dot(l_values, spacing: float):
    """Finite-difference slope of l over the uniform grid.

    Central differences at interior points; one-sided second-order stencils
    at the two endpoints (first-order when the grid has only two points).
    """
    v = np.asarray(l_values, dtype=float)
    out = np.empty_like(v)
    h = float(spacing)
    if len(v) < 3:
        out[:] = (v[-1] - v[0]) / h
        return out
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def _f_and_r(l_row, x, lam, alpha, sigma, eps, d_eps, work):
    """f = (sigma eps - l x) / alpha and r = e^{-lambda} ((l - 1) eps + d_eps), in place.

    The total lambda-derivative of f along the ODE is f1 = r - l_dot x / alpha,
    so l_dot enters f1 only through its last, linear term.  f is formed in
    ``eps``'s memory and r in ``d_eps``'s, with ``work`` a scratch of their
    shape, and the bits are those of the expressions above.
    """
    d_eps += np.multiply(eps, l_row - 1.0, out=work)
    d_eps *= np.exp(-lam)
    eps *= sigma
    eps -= np.multiply(x, l_row, out=work)
    eps /= alpha
    return eps, d_eps


def _point_stats(model, sched, lam, x0, z, probes, workspace=None):
    """One grid point's share of the sweep, from one model call.

    Returns l and six (D,) moments over the K diffused points: the means of
    f, r and y = x/alpha, the variance of f and its covariances with r and
    y.  The moments are centred (each sample less its mean before the
    products), which keeps their digits where a coordinate's spread is far
    below its mean.  ``x0``, ``z`` and each probe are (K, D) transposes of
    C-contiguous (D, K) arrays, so every sample array here is too (the
    probe terms included), and l and each moment is a contiguous row
    reduction.

    ``workspace`` is the sweep's dict (a fresh one if None), which the model's
    ``linearize`` shares.  The sweep keeps the diffused points x there and
    writes every (K, D) array into memory it already has: the probe terms
    into the ``jvp``'s product, which is then the scratch of f and r, r into
    ``d_eps``, f into ``eps`` and y into x.  The last point's f is the next
    point's scratch for z sigma, so from the second point on a sweep of a
    mixture with one probe allocates no (K, D) array.
    """
    if workspace is None:
        workspace = {}
    slots = workspace.get(_SWEEP_KEY)
    if slots is None:  # x, and the memory of the last point's f
        slots = workspace[_SWEEP_KEY] = [np.empty_like(x0), None]
    xs, spare = slots
    alpha, sigma = sched.alpha_lambda(lam), sched.sigma_lambda(lam)
    np.multiply(x0, alpha, out=xs)
    xs += np.multiply(z, sigma, out=spare)
    eps, d_eps, jvp = model.linearize(sched, xs, lam, workspace=workspace)
    terms = jvp(probes)
    l_row = diag_estimate(diag_probe_terms(sigma, terms, probes, out=terms))
    f, r = _f_and_r(l_row[:, None], xs.T, lam, alpha, sigma, eps.T, d_eps.T, terms[0].T)
    slots[1] = eps
    xs /= alpha  # y, in x's memory: (D, K) rows as f and r are
    k = len(xs)
    samples = (f, r, xs.T)
    means = [np.einsum("dk->d", g) / k for g in samples]
    for g, m in zip(samples, means):
        g -= m[:, None]  # centred in place; f is centred before the products read it
    return l_row, means + [np.einsum("dk,dk->d", f, g) / k for g in samples]


def estimate_table(model: ModelSpec, sched: Schedule, cfg: EmsConfig) -> EmsTable:
    """Run the full estimation pipeline on a uniform lambda grid.

    One shared set of ``num_datapoints`` clean samples, diffusion noises, and
    probe vectors is drawn up front and transported to every grid lambda
    (common random numbers).  That keeps the Monte-Carlo error a smooth
    function of lambda, which the high-order solver's derivative estimates
    rely on; independently re-drawn points per grid lambda would leave
    grid-scale jitter in the fields and cap the observable convergence order.

    One sweep makes one ``linearize`` call per grid point, all with one
    workspace dict, and applies its ``jvp`` to the probe stack once; the
    model must accept the ``workspace`` argument (see
    ``ModelSpec.linearize``) and may keep its arrays there; the sweep
    overwrites the arrays each call returns (see :func:`_point_stats`).  The
    dict is dropped when the table is built.  One call gives l at that point (the
    pairwise mean of :func:`diag_estimate`), and f and r
    (see :func:`_f_and_r`), of which six centred moments are kept: the means
    of f, r and y = x/alpha, var f, cov(f, r) and cov(f, y).  After the
    sweep, l's slope is taken by finite differences, and since f1 = r -
    l_dot y is linear in l_dot, the least-squares fit of f1 against f
    follows in closed form:

        s = (cov(f, r) - l_dot cov(f, y)) / (var f + floor),
        b = (mean r - l_dot mean y) - s mean f,

    element-wise.  The floor, 1e-8 (var f + (mean f)^2) plus a tiny absolute
    term, regularizes the zero-variance case, as happens for a point-mass
    data distribution.  The sweep runs inside ``row_buffers(K)`` (see
    ``emsolve.models``): from K = 64 up to half of numpy's ufunc buffer, the
    buffer holds one row of K for the sweep's duration, which saves the
    copies of packed rows.  Bit-identical output for a fixed config; for
    the package's models, whatever the caller's buffer size.  Raises
    ValueError when ``model`` or ``sched`` lacks the members the sweep reads,
    ``model.linearize`` takes no ``workspace`` argument
    or ``cfg`` is not an :class:`EmsConfig`, and :class:`DomainError` when
    ``cfg.lam_range`` leaves the schedule's lambda domain.
    """
    check_schedule(sched)
    check_members(model, "model", ("linearize", "sample_data"))
    check_keyword(model.linearize, "workspace", "model.linearize")
    check_instance(cfg, EmsConfig)
    check_lam_span(sched, *cfg.lam_range, "lam_range")
    n_pts = cfg.num_timesteps + 1
    grid = np.linspace(*cfg.lam_range, n_pts)

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x0 = model.sample_data(rng, cfg.num_datapoints)
    z = rng.standard_normal(x0.shape)
    probes = (rng.integers(0, 2, size=(cfg.probes_per_point,) + x0.shape) * 2 - 1).astype(float)
    # coordinate-major: each (K, D) array the transpose of a C-contiguous (D, K) one
    x0, z, probes = (
        np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2) for a in (x0, z, probes)
    )

    l = np.empty((n_pts, model.dim))
    moments = np.empty((6, n_pts, model.dim))
    workspace = {}  # this sweep's, dropped with it
    with row_buffers(cfg.num_datapoints):
        for j, lam in enumerate(grid):
            l[j], moments[:, j] = _point_stats(model, sched, lam, x0, z, probes, workspace)
    mf, mr, my, vf, cfr, cfy = moments

    l_dot = estimate_l_dot(l, _spacing(grid))
    s = (cfr - l_dot * cfy) / (vf + 1e-8 * (vf + mf * mf) + _ABS_FLOOR)
    b = (mr - l_dot * my) - s * mf

    # Python ints: numpy integers from the config are not JSON-serializable
    meta = {"K": int(cfg.num_datapoints), "seed": int(cfg.seed), "model": model_id(model)}
    return EmsTable(lambda_grid=grid, l=l, s=s, b=b, l_dot=l_dot, schedule=sched, meta=meta)


def degenerate_table(kind: str, sched: Schedule, num_timesteps: int, lam_range, dim: int) -> EmsTable:
    """Constant table recovering a classical parameterization.

    ``noise-pred`` (l=0, s=-1, b=0) reproduces plain noise-prediction
    exponential integrators; ``data-pred`` (l=1, s=0, b=0) reproduces
    data-prediction ones.  Raises ValueError for a malformed argument, and
    :class:`DomainError` when ``lam_range`` leaves the schedule's lambda domain.
    """
    if kind == NOISE_PRED:
        l_val, s_val = 0.0, -1.0
    elif kind == DATA_PRED:
        l_val, s_val = 1.0, 0.0
    else:
        raise ValueError(f"unknown degenerate kind {kind!r}")
    check_schedule(sched)
    check_int(num_timesteps, "num_timesteps", 1)
    check_int(dim, "dim", 0)  # a table with no column is EmsTable's to refuse
    lam_lo, lam_hi = check_span(lam_range, "lam_range")
    check_lam_span(sched, lam_lo, lam_hi, "lam_range")
    n_pts = num_timesteps + 1
    grid = np.linspace(lam_lo, lam_hi, n_pts)
    ones = np.ones((n_pts, dim))
    return EmsTable(
        lambda_grid=grid,
        l=l_val * ones,
        s=s_val * ones,
        b=np.zeros((n_pts, dim)),
        l_dot=np.zeros((n_pts, dim)),
        schedule=sched,
        meta={"degenerate": kind},
    )


# -- persistence ---------------------------------------------------------------


def save_table(table: EmsTable, path) -> None:
    """Write an :class:`EmsTable` as versioned JSON with full float precision."""
    check_instance(table, EmsTable)
    payload = {
        "version": _FILE_VERSION,
        "schedule": table.schedule.to_dict(),
        **{name: getattr(table, name).tolist() for name in _ARRAYS},
        "meta": dict(table.meta),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_table(path) -> EmsTable:
    """Read a table written by :func:`save_table`.

    Raises :class:`TableFormatError` on malformed files (with line context
    where available) and on contents :class:`EmsTable` rejects, and
    :class:`UnsupportedVersionError` on version mismatch.  The table carries
    the stored schedule; the samplers raise ``ValueError`` when asked to
    sample it with another one.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TableFormatError(
            f"{path}: malformed table file at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise TableFormatError(f"{path}: expected a JSON object at top level")
    version = payload.get("version")
    if version != _FILE_VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported table version {version!r} (supported: {_FILE_VERSION})"
        )
    missing = {"schedule", *_ARRAYS} - set(payload)
    if missing:
        raise TableFormatError(f"{path}: missing keys {sorted(missing)}")
    try:
        return EmsTable(
            schedule=Schedule.from_dict(payload["schedule"]),
            meta=dict(payload.get("meta", {})),
            **{name: payload[name] for name in _ARRAYS},
        )
    except (ValueError, TypeError) as exc:
        raise TableFormatError(f"{path}: inconsistent table contents: {exc}") from exc
