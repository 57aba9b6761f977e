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

Estimation is a map-reduce over diffused datapoints: per-point terms can be
summed in any chunking (results agree to floating-point reassociation).
Tables are immutable once built and serialize to a versioned JSON file.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TableFormatError, UnsupportedVersionError
from .models import ModelSpec, model_id
from .schedule import Schedule, schedules_equal

NOISE_PRED = "noise-pred"
DATA_PRED = "data-pred"

_FILE_VERSION = 1
_ABS_FLOOR = 1e-20


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
        if self.num_timesteps < 1:
            raise ValueError("num_timesteps must be >= 1")
        if self.num_datapoints < 1:
            raise ValueError("num_datapoints must be >= 1")
        if self.probes_per_point < 1:
            raise ValueError("probes_per_point must be >= 1")
        lo, hi = self.lam_range
        if not lo < hi:
            raise ValueError(f"lam_range must be increasing, got {self.lam_range}")


@dataclass(frozen=True, eq=False)
class EmsTable:
    """Coefficient vectors l, s, b and the finite-difference slope of l.

    Rows are indexed by a strictly increasing, uniformly spaced lambda grid.
    """

    lambda_grid: np.ndarray
    l: np.ndarray
    s: np.ndarray
    b: np.ndarray
    l_dot: np.ndarray
    schedule: Schedule
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, dtype=float)
        object.__setattr__(self, "lambda_grid", grid)
        for name in ("l", "s", "b", "l_dot"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (len(grid), self.dim):
                raise ValueError(f"{name} has shape {arr.shape}, expected {(len(grid), self.dim)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("lambda_grid must be strictly increasing with >= 2 points")
        h = np.diff(grid)
        if np.max(np.abs(h - h[0])) > 1e-12 * max(1.0, abs(grid[-1] - grid[0])):
            raise ValueError("lambda_grid must be uniformly spaced")

    @property
    def dim(self) -> int:
        return np.asarray(self.l).shape[-1]

    @property
    def spacing(self) -> float:
        return float((self.lambda_grid[-1] - self.lambda_grid[0]) / (len(self.lambda_grid) - 1))

    def index_of(self, lam: float) -> int:
        """Snap a lambda to the nearest grid index; error if off the grid's range."""
        h0 = self.spacing
        j = int(round((float(lam) - self.lambda_grid[0]) / h0))
        if j < 0 or j >= len(self.lambda_grid) or abs(lam - self.lambda_grid[j]) > 0.5 * h0 + 1e-12:
            raise ValueError(
                f"lambda={lam} outside the table range "
                f"[{self.lambda_grid[0]}, {self.lambda_grid[-1]}]"
            )
        return j

    def is_constant(self) -> bool:
        """True when l, s, b are the same vector at every grid point."""
        return bool(
            np.all(self.l == self.l[0])
            and np.all(self.s == self.s[0])
            and np.all(self.b == self.b[0])
        )


# -- estimators ---------------------------------------------------------------


def diag_probe_terms(model: ModelSpec, sched: Schedule, lam, datapoints, probe_vectors):
    """Per-sample stochastic-diagonal terms (sigma * jvp(x, v)) * v.

    ``probe_vectors`` has shape (probes, K, D) with +-1 entries.  The mean of
    the returned array over its first two axes is the diagonal estimate; the
    terms may be summed in chunks of any size.
    """
    xs = np.asarray(datapoints, dtype=float)
    sigma = sched.sigma_lambda(lam)
    return (sigma * model.jvp(sched, xs, lam, probe_vectors)) * probe_vectors


def estimate_l(model, sched, lam, datapoints, rng):
    """Estimate E[diag(sigma * grad_x eps)] at one lambda, one +-1 probe per datapoint."""
    xs = np.asarray(datapoints, dtype=float)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValueError("datapoints must be a nonempty (K, D) array")
    v = rng.integers(0, 2, size=(1,) + xs.shape) * 2 - 1
    terms = diag_probe_terms(model, sched, lam, xs, v.astype(float))
    return terms.mean(axis=(0, 1))


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


def _f_and_f1(model, sched, l_row, l_dot_row, x, lam):
    """f = (sigma eps - l x) / alpha and f1, its total lambda-derivative along the ODE.

    One ``eps_along_ode`` call gives eps and its total derivative d_eps.
    """
    alpha = sched.alpha_lambda(lam)
    sigma = sched.sigma_lambda(lam)
    eps, d_eps = model.eps_along_ode(sched, x, lam)
    f = (sigma * eps - l_row * x) / alpha
    f1 = np.exp(-lam) * ((l_row - 1.0) * eps + d_eps) - l_dot_row * x / alpha
    return f, f1


def eval_f(model, sched, table: EmsTable, x, lam):
    """The approximated nonlinearity f = (sigma eps - l * x) / alpha at a grid lambda."""
    j = table.index_of(lam)
    return _f_and_f1(model, sched, table.l[j], table.l_dot[j], x, table.lambda_grid[j])[0]


def eval_f1(model, sched, table: EmsTable, x, lam):
    """Total lambda-derivative of f along the ODE at a grid lambda."""
    j = table.index_of(lam)
    return _f_and_f1(model, sched, table.l[j], table.l_dot[j], x, table.lambda_grid[j])[1]


def estimate_sb(f_samples, f1_samples, eps_floor=None):
    """Closed-form least-squares slope/intercept of f1 against f, element-wise.

    Returns (s, b) with s = cov(f, f1) / (var(f) + eps_floor) and
    b = mean(f1) - s * mean(f).  When ``eps_floor`` is None, a relative floor
    of 1e-8 * mean(f*f) plus a tiny absolute term regularizes the
    zero-variance case, as happens for a point-mass data distribution.
    """
    f = np.asarray(f_samples, dtype=float)
    f1 = np.asarray(f1_samples, dtype=float)
    if f.shape != f1.shape or f.ndim != 2 or f.shape[0] < 1:
        raise ValueError("f_samples and f1_samples must be matching nonempty (K, D) arrays")
    mf = f.mean(axis=0)
    mf1 = f1.mean(axis=0)
    mff = (f * f).mean(axis=0)
    mff1 = (f * f1).mean(axis=0)
    if eps_floor is None:
        eps_floor = 1e-8 * mff + _ABS_FLOOR
    s = (mff1 - mf * mf1) / (mff - mf * mf + eps_floor)
    b = mf1 - s * mf
    return s, b


def estimate_table(model: ModelSpec, sched: Schedule, cfg: EmsConfig) -> EmsTable:
    """Run the full estimation pipeline on a uniform lambda grid.

    One shared set of ``num_datapoints`` clean samples, diffusion noises, and
    probe vectors is drawn up front and transported to every grid lambda
    (common random numbers).  That keeps the Monte-Carlo error a smooth
    function of lambda, which the high-order solver's derivative estimates
    rely on; independently re-drawn points per grid lambda would leave
    grid-scale jitter in the fields and cap the observable convergence order.

    After l is estimated at every grid point (one ``jvp`` per point), its
    slope is taken by finite differences, and a second sweep over the same
    diffused points fits s and b (one ``eps_along_ode`` per point, whose
    closed-form d_eps gives f1).  Bit-identical output for a fixed config.
    Raises :class:`DomainError` when ``cfg.lam_range`` leaves the schedule's
    lambda domain.
    """
    lam_lo, lam_hi = cfg.lam_range
    dom_lo, dom_hi = sched.lam_domain
    if lam_lo < dom_lo or lam_hi > dom_hi:
        raise DomainError(
            f"lam_range {cfg.lam_range} outside the schedule's lambda domain [{dom_lo}, {dom_hi}]"
        )
    n_pts = cfg.num_timesteps + 1
    grid = np.linspace(lam_lo, lam_hi, n_pts)
    dim = model.dim

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x0 = model.sample_data(rng, cfg.num_datapoints)
    z = rng.standard_normal(x0.shape)
    probes = (rng.integers(0, 2, size=(cfg.probes_per_point,) + x0.shape) * 2 - 1).astype(float)

    def diffused(j):
        return sched.alpha_lambda(grid[j]) * x0 + sched.sigma_lambda(grid[j]) * z

    l = np.empty((n_pts, dim))
    for j in range(n_pts):
        terms = diag_probe_terms(model, sched, grid[j], diffused(j), probes)
        l[j] = terms.mean(axis=(0, 1))

    l_dot = estimate_l_dot(l, float(grid[1] - grid[0]))

    s = np.empty((n_pts, dim))
    b = np.empty((n_pts, dim))
    for j in range(n_pts):
        xs = diffused(j)
        f, f1 = _f_and_f1(model, sched, l[j], l_dot[j], xs, grid[j])
        s[j], b[j] = estimate_sb(f, f1)

    meta = {"K": cfg.num_datapoints, "seed": cfg.seed, "model": model_id(model)}
    return EmsTable(
        lambda_grid=grid, l=l, s=s, b=b, l_dot=l_dot, schedule=sched, meta=meta
    )


def degenerate_table(kind: str, sched: Schedule, num_timesteps: int, lam_range, dim: int) -> EmsTable:
    """Constant table recovering a classical parameterization.

    ``noise-pred`` (l=0, s=-1, b=0) reproduces plain noise-prediction
    exponential integrators; ``data-pred`` (l=1, s=0, b=0) reproduces
    data-prediction ones.
    """
    if kind == NOISE_PRED:
        l_val, s_val = 0.0, -1.0
    elif kind == DATA_PRED:
        l_val, s_val = 1.0, 0.0
    else:
        raise ValueError(f"unknown degenerate kind {kind!r}")
    lam_lo, lam_hi = lam_range
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
    """Write the table as versioned JSON with full float precision."""
    payload = {
        "version": _FILE_VERSION,
        "schedule": table.schedule.to_dict(),
        "lambda_grid": table.lambda_grid.tolist(),
        "l": table.l.tolist(),
        "s": table.s.tolist(),
        "b": table.b.tolist(),
        "l_dot": table.l_dot.tolist(),
        "meta": table.meta,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_table(path, expected_schedule: Schedule | None = None) -> EmsTable:
    """Read a table written by :func:`save_table`.

    Raises :class:`TableFormatError` on malformed files (with line context
    where available) and :class:`UnsupportedVersionError` on version
    mismatch.  If ``expected_schedule`` is given and differs from the stored
    one, a warning is emitted.
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
    missing = {"schedule", "lambda_grid", "l", "s", "b", "l_dot"} - set(payload)
    if missing:
        raise TableFormatError(f"{path}: missing keys {sorted(missing)}")
    try:
        sched = Schedule.from_dict(payload["schedule"])
        table = EmsTable(
            lambda_grid=np.asarray(payload["lambda_grid"], dtype=float),
            l=np.asarray(payload["l"], dtype=float),
            s=np.asarray(payload["s"], dtype=float),
            b=np.asarray(payload["b"], dtype=float),
            l_dot=np.asarray(payload["l_dot"], dtype=float),
            schedule=sched,
            meta=dict(payload.get("meta", {})),
        )
    except (ValueError, TypeError) as exc:
        raise TableFormatError(f"{path}: inconsistent table contents: {exc}") from exc
    if expected_schedule is not None and not schedules_equal(sched, expected_schedule):
        warnings.warn(
            f"{path}: table schedule {sched.to_dict()} does not match "
            f"the requested schedule {expected_schedule.to_dict()}",
            stacklevel=2,
        )
    return table
