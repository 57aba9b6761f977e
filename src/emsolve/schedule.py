"""Noise schedules, the t <-> logSNR change of variables, and sampling time grids.

A schedule defines the forward-process coefficients alpha(t) and sigma(t) of a
diffusion ODE, the half-logSNR lambda(t) = log(alpha/sigma), its inverse, and
the drift coefficient dlog(alpha)/dlambda that the solvers integrate against.
Schedules and time grids are immutable; share them freely across threads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    DomainError, check_floats, check_instance, check_int, check_members, check_real, check_span
)

VP_LINEAR = "vp-linear"
VP_COSINE = "vp-cosine"
EDM = "edm"

_KINDS = (VP_LINEAR, VP_COSINE, EDM)

# Standard continuous-time defaults: beta range for the linear VP schedule,
# small offset for the cosine schedule, sigma range for the EDM schedule.
_DEFAULT_PARAMS = {
    VP_LINEAR: {"beta0": 0.1, "beta1": 20.0},
    VP_COSINE: {"offset": 0.008},
    EDM: {},
}
_DEFAULT_T_DOMAIN = {
    VP_LINEAR: (0.0, 1.0),
    # t = 1 is numerically degenerate for the cosine schedule; stop where
    # beta(t) reaches ~999, as is conventional for this parameterization.
    VP_COSINE: (0.0, 0.9946),
    EDM: (0.002, 80.0),
}


def _cosine_log_alpha0(offset: float) -> float:
    return math.log(math.cos(offset / (1.0 + offset) * math.pi / 2.0))


@dataclass(frozen=True)
class Schedule:
    """Noise schedule: alpha/sigma as functions of time, invertible in logSNR.

    Supported kinds:

    * ``vp-linear``: variance preserving, log alpha(t) = -t^2 (beta1-beta0)/4
      - t beta0 / 2, sigma = sqrt(1 - alpha^2).
    * ``vp-cosine``: variance preserving, alpha(t) proportional to
      cos(pi/2 * (t+offset)/(1+offset)).  Experimental.
    * ``edm``: alpha = 1, sigma = t.

    lambda(t) = log(alpha/sigma) is strictly decreasing in t, so sampling
    toward small t moves toward large lambda.
    """

    kind: str = VP_LINEAR
    params: Mapping = field(default_factory=dict)
    t_domain: tuple[float, float] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {_KINDS}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        unknown = set(check_instance(self.params, Mapping, "params")) - set(merged)
        if unknown:
            raise ValueError(f"unknown params for {self.kind}: {sorted(unknown)}")
        merged.update(self.params)
        for name, value in merged.items():
            check_real(value, f"{self.kind} param {name}")
        if self.kind == VP_LINEAR:
            b0, b1 = merged["beta0"], merged["beta1"]
            if not (b0 >= 0 and b1 >= 0 and b0 + b1 > 0):
                raise ValueError(f"vp-linear needs beta0, beta1 >= 0, not both 0, got {merged}")
        object.__setattr__(self, "params", MappingProxyType(merged))
        default = isinstance(self.t_domain, (tuple, list)) and not self.t_domain
        lo, hi = check_span(_DEFAULT_T_DOMAIN[self.kind] if default else self.t_domain, "t_domain")
        if lo < 0:
            raise ValueError(f"t_domain must be two finite numbers with 0 <= lo < hi, got {lo, hi}")
        if self.kind == VP_COSINE and not (merged["offset"] >= 0 and hi <= 1):
            raise ValueError(f"vp-cosine needs offset >= 0 and t <= 1, got {merged}, {lo, hi}")
        object.__setattr__(self, "t_domain", (float(lo), float(hi)))

    def __reduce__(self):
        # through the constructor: a mappingproxy does not pickle
        return type(self), (self.kind, dict(self.params), self.t_domain)

    # -- t-domain quantities ------------------------------------------------

    def _check_t(self, t, need_positive_sigma=False):
        t = np.asarray(t, dtype=float)
        lo, hi = self.t_domain
        tol = 1e-12 * max(1.0, hi)
        if np.any(t < lo - tol) or np.any(t > hi + tol):
            raise DomainError(f"t={t} outside schedule domain [{lo}, {hi}]")
        # sigma(0) = 0 on vp schedules, where log(alpha/sigma) is undefined
        if need_positive_sigma and self.kind != EDM and np.any(t <= tol):
            raise DomainError(f"sigma(t) = 0 at t={t}; logSNR undefined")
        return t

    def log_alpha(self, t):
        """log alpha(t)."""
        t = self._check_t(t)
        if self.kind == VP_LINEAR:
            b0, b1 = self.params["beta0"], self.params["beta1"]
            return -0.25 * t**2 * (b1 - b0) - 0.5 * t * b0
        if self.kind == VP_COSINE:
            s = self.params["offset"]
            return np.log(np.cos((t + s) / (1.0 + s) * math.pi / 2.0)) - _cosine_log_alpha0(s)
        return np.zeros_like(np.asarray(t, dtype=float))

    def lambda_of_t(self, t):
        """Half-logSNR lambda(t) = log alpha(t) - log sigma(t)."""
        t = self._check_t(t, need_positive_sigma=True)
        if self.kind == EDM:
            return -np.log(t)
        la = self.log_alpha(t)
        return la - 0.5 * np.log(-np.expm1(2.0 * la))

    # -- lambda-domain quantities -------------------------------------------

    @cached_property
    def lam_domain(self) -> tuple[float, float]:
        """(lambda(t_max), lambda(t_min)) as an increasing pair; +inf at t_min = 0 (sigma = 0)."""
        lo, hi = self.t_domain
        lam_min = float(self.lambda_of_t(hi))
        if lo == 0.0:
            return lam_min, math.inf
        return lam_min, float(self.lambda_of_t(lo))

    def _check_lam(self, lam):
        lam = np.asarray(lam, dtype=float)
        lo, hi = self.lam_domain
        tol = 1e-9 * max(1.0, abs(lo))
        below, above = lam < lo - tol, lam > hi + tol
        if np.any(below) or np.any(above):
            # the farthest value, not a whole grid
            bad = lam[below].min() if np.any(below) else lam[above].max()
            raise DomainError(f"lambda={bad} outside schedule range [{lo}, {hi}]")
        return lam

    def t_of_lambda(self, lam):
        """Invert lambda(t).  Closed form for every supported kind."""
        lam = self._check_lam(lam)
        if self.kind == EDM:
            return np.exp(-lam)
        # On vp schedules 2 log alpha = -logaddexp(-2 lambda, 0).
        two_log_alpha = -np.logaddexp(-2.0 * lam, 0.0)
        if self.kind == VP_LINEAR:
            b0, b1 = self.params["beta0"], self.params["beta1"]
            # the root of (b1 - b0) t^2 / 2 + b0 t = -two_log_alpha, with
            # b1 - b0 cancelled so that a constant beta (b1 = b0) works too
            tmp = -2.0 * two_log_alpha * (b1 - b0)
            return -2.0 * two_log_alpha / (np.sqrt(b0**2 + tmp) + b0)
        s = self.params["offset"]
        return (
            np.arccos(np.exp(0.5 * two_log_alpha + _cosine_log_alpha0(s)))
            * 2.0
            * (1.0 + s)
            / math.pi
            - s
        )

    def alpha_lambda(self, lam):
        """alpha as a function of lambda (schedule-family closed form).

        Defined for every real lambda: the family curve extends smoothly past
        the t-domain's image, which derivative stencils rely on near the ends.
        """
        lam = np.asarray(lam, dtype=float)
        if self.kind == EDM:
            return np.ones_like(lam)
        return np.exp(-0.5 * np.logaddexp(-2.0 * lam, 0.0))

    def sigma_lambda(self, lam):
        """sigma as a function of lambda; defined for every real lambda."""
        lam = np.asarray(lam, dtype=float)
        if self.kind == EDM:
            return np.exp(-lam)
        return np.exp(-0.5 * np.logaddexp(2.0 * lam, 0.0))

    def dlog_alpha_dlambda(self, lam):
        """Drift coefficient dlog(alpha)/dlambda; sigma^2(lambda) on vp, 0 on edm."""
        lam = np.asarray(lam, dtype=float)
        if self.kind == EDM:
            return np.zeros_like(lam)
        return np.exp(-np.logaddexp(2.0 * lam, 0.0))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "t_domain": list(self.t_domain),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        if not isinstance(data, dict):
            raise ValueError(f"expected a schedule dict, got {type(data).__name__}")
        if "kind" not in data:
            raise ValueError("schedule dict missing key 'kind'")
        return cls(data["kind"], data.get("params", {}), data.get("t_domain", ()))


# The schedule methods the package calls.  A delegate that forwards them and
# the attributes (as a timing wrapper does) stands in for a Schedule.  The
# check reads ``t_domain`` but not ``lam_domain``, which reading would compute.
_SCHEDULE_METHODS = (
    "alpha_lambda", "sigma_lambda", "dlog_alpha_dlambda", "lambda_of_t", "t_of_lambda", "to_dict"
)


def check_schedule(sched) -> None:
    """Raise ValueError unless ``sched`` has the schedule members the package reads; calls none."""
    check_members(sched, "Schedule", _SCHEDULE_METHODS, ("t_domain",))


def check_lam_span(sched, lo, hi, name: str) -> None:
    """Raise DomainError unless [``lo``, ``hi``] lies in the schedule's lambda domain."""
    dom_lo, dom_hi = sched.lam_domain
    if lo < dom_lo or hi > dom_hi:
        span = f"[{lo}, {hi}] outside the schedule's lambda domain [{dom_lo}, {dom_hi}]"
        raise DomainError(f"{name} {span}")


def read_only(value, name: str = "value") -> np.ndarray:
    """A read-only float64 copy of ``value``, even of a read-only one; ValueError names ``name``."""
    arr = check_floats(value, name).copy()
    arr.setflags(write=False)
    return arr


UNIFORM_LAMBDA = "uniform-lambda"
UNIFORM_T = "uniform-t"


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """The lambdas a sampler visits, from ``lambdas[0]`` (high noise) to ``lambdas[-1]``.

    ``lambdas`` is a read-only copy of at least 2 finite, strictly increasing
    values.  A plan snaps them to its table's grid and samples at those points' times.
    """

    lambdas: np.ndarray

    def __post_init__(self):
        lambdas = read_only(self.lambdas, "lambdas")
        valid = lambdas.ndim == 1 and len(lambdas) >= 2 and np.isfinite(lambdas).all()
        if not (valid and (np.diff(lambdas) > 0).all()):
            raise ValueError(f"lambdas must be >= 2 finite, increasing values, got {lambdas}")
        object.__setattr__(self, "lambdas", lambdas)

    @property
    def num_steps(self) -> int:
        return len(self.lambdas) - 1


def make_time_grid(
    sched: Schedule, num_steps: int, kind: str, t_start: float, t_end: float
) -> TimeGrid:
    """Build a sampling grid of ``num_steps`` intervals from t_start down to t_end.

    ``uniform-lambda`` spaces the half-logSNR values evenly (the usual choice
    for exponential-integrator solvers); ``uniform-t`` spaces time evenly.
    """
    check_schedule(sched)
    check_int(num_steps, "num_steps", 1)
    if kind not in (UNIFORM_LAMBDA, UNIFORM_T):
        raise ValueError(f"unknown grid kind {kind!r}")
    if not check_real(t_start, "t_start") > check_real(t_end, "t_end"):
        raise ValueError(f"need t_start > t_end, got {t_start} <= {t_end}")
    if kind == UNIFORM_LAMBDA:
        lam_start, lam_end = float(sched.lambda_of_t(t_start)), float(sched.lambda_of_t(t_end))
        return TimeGrid(np.linspace(lam_start, lam_end, num_steps + 1))
    return TimeGrid(sched.lambda_of_t(np.linspace(t_start, t_end, num_steps + 1)))
