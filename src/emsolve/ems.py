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

Estimation is one sweep over the grid in blocks of grid points, one model
call per block (at most ``_BLOCK_SAMPLES`` samples a call).  Each point
reduces to l and six centred moments over the diffused datapoints (three
means, a variance and two covariances), and s and b follow in closed form
once l's slope is known.  The sweep keeps a block's (P, K, D) sample arrays
and probe terms coordinate-major, laid out (D, P, K), so l and each moment
is a contiguous row sum over one point's K samples, with the bits of a
sweep one point at a time.  Every block after the first of its size reuses
that block's sample and probe arrays, and a mixture keeps the arrays that
outlive its call in a slot of the sweep's scope (``models.sweep_scope``).
Tables are immutable once built and serialize to a versioned JSON file.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    TableFormatError, UnsupportedVersionError, check_floats, check_instance, check_int,
    check_members, check_span,
)
from .models import ModelSpec, model_id, sweep_scope
from .schedule import Schedule, check_lam_span, check_schedule, read_only

NOISE_PRED = "noise-pred"
DATA_PRED = "data-pred"

_FILE_VERSION = 1
_ABS_FLOOR = 1e-20
# the table's arrays in file order: the (rows,) lambda grid, then the (rows, D) fields
_ARRAYS = ("lambda_grid", "l", "s", "b", "l_dot")


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
    """The stochastic diagonal estimate: the mean of ``terms``, (probes, ..., K, D), over probes and K.

    Returns the ``(..., D)`` means, one row per grid point of a block.
    Each coordinate's K terms under one probe are summed as one contiguous
    row, which numpy sums pairwise (rounding error O(eps log K), against
    O(eps K) for a sequential sum), and the probes' row sums are then added
    in order.  Terms laid out coordinate-major, each probe's a view of a
    C-contiguous (D, ..., K) array, are read in place; any other layout is
    first copied to that one, so every layout gives the same bits.
    """
    rows = np.ascontiguousarray(terms.transpose(0, -1, *range(1, terms.ndim - 1)))
    sums = rows.sum(axis=-1).sum(axis=0)  # (D, ...): D goes last
    return sums.transpose(*range(1, sums.ndim), 0) / (rows.shape[0] * rows.shape[-1])


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
    shape, and the bits are those of the expressions above.  The arrays are
    (D, P, K) rows; ``l_row`` is (D, P, 1) and the lambda terms (P, 1).
    """
    d_eps += np.multiply(eps, l_row - 1.0, out=work)
    d_eps *= np.exp(-lam)
    eps *= sigma
    eps -= np.multiply(x, l_row, out=work)
    eps /= alpha
    return eps, d_eps


def _rows(a):
    """The ``(D, P, K)`` view of a ``(P, K, D)`` block."""
    return a.transpose(2, 0, 1)


def _check_outputs(name, arrays, shape):
    """Raise ValueError unless each of ``arrays`` is a float64 array of ``shape``; reads no data."""
    for a in arrays:
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape):
            got = f"{a.dtype} of shape {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
            want = f"float64 arrays of shape {shape}"
            raise ValueError(f"the model's {name} must return {want}, got {got}")


def _point_stats(model, sched, lams, x0, z, probes, xs):
    """A block of grid points' share of the sweep, from one model call: ``(l, moments)``.

    ``lams`` is the block's (P, 1) column of lambdas.  l, (P, D), and six
    (D, P) moments over the K diffused points of each grid point: the means
    of f, r and y = x/alpha, the variance of f and its covariances with r
    and y.  The moments are centred (each sample less its mean before the
    products), which keeps their digits where a coordinate's spread is far
    below its mean.  ``x0`` and ``z`` are (K, D) transposes of C-contiguous
    (D, K) arrays, and ``xs`` and each probe of ``probes`` (P, K, D) views
    of C-contiguous (D, P, K) arrays, so every sample array here is too (the
    probe terms included), and l and each moment is a contiguous row
    reduction over one grid point's K samples: the bits of a block of one.

    The sweep writes only into arrays of this block: x into ``xs`` (z
    sigma is a temporary), the probe terms into the ``jvp``'s product,
    which is then the scratch of f and r, r into the returned ``d_eps``, f
    into the returned ``eps`` and y into ``xs``.  ``linearize`` must return
    float64 arrays of ``xs``'s shape and ``jvp`` of ``probes``' shape, or
    ValueError; no data is read to check it.
    """
    alpha, sigma = sched.alpha_lambda(lams), sched.sigma_lambda(lams)
    x = _rows(xs)
    np.multiply(x0.T[:, None], alpha, out=x)
    x += z.T[:, None] * sigma
    eps, d_eps, jvp = model.linearize(sched, xs, lams)
    _check_outputs("linearize", (eps, d_eps), xs.shape)
    terms = jvp(probes)
    _check_outputs("jvp", (terms,), probes.shape)
    l = diag_estimate(diag_probe_terms(sigma[..., None], terms, probes, out=terms))
    f, r = _f_and_r(
        l.T[..., None], x, lams, alpha, sigma, _rows(eps), _rows(d_eps), _rows(terms[0])
    )
    x /= alpha  # y, in x's memory: (D, P, K) rows as f and r are
    stats = np.empty((6,) + x.shape[:-1])
    for g, m in zip((f, r, x), stats):
        np.einsum("dpk->dp", g, out=m)
        m /= x.shape[-1]
        g -= m[..., None]  # centred in place; f is centred before the products read it
    for g, m in zip((f, r, x), stats[3:]):
        np.einsum("dpk,dpk->dp", f, g, out=m)
    stats[3:] /= x.shape[-1]
    return l, stats


def _block(rows):
    """The ``(..., P, K, D)`` view of ``(..., D, P, K)`` rows: the inverse of :func:`_rows`."""
    return rows.swapaxes(-3, -2).swapaxes(-2, -1)


# The most samples one ``linearize`` call of the sweep takes: a block holds
# P = max(1, _BLOCK_SAMPLES // K) grid points, so K >= 2048 makes one call per
# point.  On the 4-D mixture a sample's cost is flat up to a block of 4096 and
# rises after it (142, 159, 171 and 186 ns at 2048, 4096, 8192 and 16384), and
# a call's fixed cost is then paid once per block, not once per point.
_BLOCK_SAMPLES = 4096


def estimate_table(model: ModelSpec, sched: Schedule, cfg: EmsConfig) -> EmsTable:
    """Run the full estimation pipeline on a uniform lambda grid.

    One shared set of ``num_datapoints`` clean samples, diffusion noises, and
    probe vectors is drawn up front and transported to every grid lambda
    (common random numbers).  That keeps the Monte-Carlo error a smooth
    function of lambda, which the high-order solver's derivative estimates
    rely on; independently re-drawn points per grid lambda would leave
    grid-scale jitter in the fields and cap the observable convergence order.

    One sweep runs the grid in blocks of P = min(grid points, max(1,
    ``_BLOCK_SAMPLES`` // K)) points, the last block shorter if they do not
    divide evenly.  It makes one ``linearize`` call per block, the model's
    whole protocol (see ``ModelSpec.linearize``), on the block's (P, K, D)
    samples at the (P, 1) column of its lambdas, applies its ``jvp`` to the
    probe stack once and overwrites the arrays the call returns (see
    :func:`_point_stats`).  One call gives l at each of its points (the
    pairwise mean of :func:`diag_estimate`), and f and r (see
    :func:`_f_and_r`), of which six centred moments are kept: the means of
    f, r and y = x/alpha, var f, cov(f, r) and cov(f, y).  Every reduction
    runs over one point's K samples, so a table has the bits of one built
    a point at a time.  After the sweep, l's slope is taken by finite
    differences, and since f1 = r - l_dot y is linear in l_dot, the
    least-squares fit of f1 against f follows in closed form:

        s = (cov(f, r) - l_dot cov(f, y)) / (var f + floor),
        b = (mean r - l_dot mean y) - s mean f,

    element-wise.  The floor, 1e-8 (var f + (mean f)^2) plus a tiny absolute
    term, regularizes the zero-variance case, as happens for a point-mass
    data distribution.  The sweep runs inside ``models.sweep_scope(K)``,
    in which each mixture call keeps its eps, d_eps and the arrays its
    ``jvp`` reads from block to block and, from K = 64 up to half of numpy's
    ufunc buffer, numpy's buffer holds one row of K, which saves the copies
    of packed rows.  The model's lambda memo is left as it was.
    Bit-identical output for a fixed config; for the package's models,
    whatever the caller's buffer size.  Raises ValueError before any
    ``linearize`` call when ``model`` (a ``Guided`` pair's parts included)
    or ``sched`` lacks the members the sweep reads, ``model.sample_data``
    returns other than K finite rows of ``model.dim`` or ``cfg`` is not an
    :class:`EmsConfig`; ValueError when ``linearize`` or its ``jvp``
    returns other than float64 arrays of its input's shape; and
    :class:`DomainError` when ``cfg.lam_range`` leaves the schedule's lambda
    domain.
    """
    check_schedule(sched)
    check_members(model, "model", ("linearize", "sample_data", "to_dict"), ("dim", "kind"))
    check_instance(cfg, EmsConfig)
    check_lam_span(sched, *cfg.lam_range, "lam_range")
    n_pts = cfg.num_timesteps + 1
    grid = np.linspace(*cfg.lam_range, n_pts)

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    shape = (cfg.num_datapoints, model.dim)
    x0 = check_floats(model.sample_data(rng, shape[0]), "sample_data's output")
    if x0.shape != shape or not np.all(np.isfinite(x0)):
        raise ValueError(f"sample_data must return finite values of shape {shape}, got {x0.shape}")
    z = rng.standard_normal(x0.shape)
    probes = (rng.integers(0, 2, size=(cfg.probes_per_point,) + x0.shape) * 2 - 1).astype(float)
    # coordinate-major: each (K, D) array the transpose of a C-contiguous (D, K) one
    x0, z = (np.ascontiguousarray(a.T).T for a in (x0, z))
    probes = np.ascontiguousarray(probes.swapaxes(-1, -2))[:, :, None]  # (probes, D, 1, K)
    # before the sweep, so a model that has no id fails first; Python ints: numpy
    # integers from the config are not JSON-serializable
    meta = {"K": int(cfg.num_datapoints), "seed": int(cfg.seed), "model": model_id(model)}

    l = np.empty((n_pts, model.dim))
    moments = np.empty((6, n_pts, model.dim))
    size = min(n_pts, max(1, _BLOCK_SAMPLES // cfg.num_datapoints))
    # a block's diffused points and probe stack, made anew for a shorter last block
    xs = stack = None
    with sweep_scope(cfg.num_datapoints) as sweep:
        for start in range(0, n_pts, size):
            lams = grid[start : start + size, None]
            if xs is None or len(xs) != len(lams):
                xs = stack = None  # the last block's arrays go first
                xs = _block(np.empty((model.dim, len(lams), cfg.num_datapoints)))
                # a block of one reads the probes in place
                stack = np.broadcast_to(probes, probes.shape[:2] + xs.shape[:2])
                stack = _block(np.ascontiguousarray(stack))
            sweep.next_block()
            l_block, stats = _point_stats(model, sched, lams, x0, z, stack, xs)
            l[start : start + len(lams)] = l_block
            moments[:, start : start + len(lams)] = stats.swapaxes(1, 2)
    mf, mr, my, vf, cfr, cfy = moments

    l_dot = estimate_l_dot(l, _spacing(grid))
    s = (cfr - l_dot * cfy) / (vf + 1e-8 * (vf + mf * mf) + _ABS_FLOOR)
    b = (mr - l_dot * my) - s * mf

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
