"""Noise schedules, the t <-> logSNR change of variables, and sampling time grids.

A schedule defines the forward-process coefficients alpha(t) and sigma(t) of a
diffusion ODE, the half-logSNR lambda(t) = log(alpha/sigma), its inverse, and
the drift coefficient dlog(alpha)/dlambda that the solvers integrate against.
Schedules and time grids are immutable; share them freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

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
    params: dict = field(default_factory=dict)
    t_domain: tuple[float, float] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {_KINDS}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ValueError(f"unknown params for {self.kind}: {sorted(unknown)}")
        merged.update(self.params)
        object.__setattr__(self, "params", merged)
        domain = tuple(self.t_domain) or _DEFAULT_T_DOMAIN[self.kind]
        if not (0.0 <= domain[0] < domain[1]):
            raise ValueError(f"invalid t_domain {domain}")
        object.__setattr__(self, "t_domain", (float(domain[0]), float(domain[1])))

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
            log_alpha0 = math.log(math.cos(s / (1.0 + s) * math.pi / 2.0))
            return np.log(np.cos((t + s) / (1.0 + s) * math.pi / 2.0)) - log_alpha0
        return np.zeros_like(np.asarray(t, dtype=float))

    def alpha(self, t):
        """alpha(t); 1 for edm, exp of the closed-form exponent for vp kinds."""
        return np.exp(self.log_alpha(t))

    def sigma(self, t):
        """sigma(t); sqrt(1 - alpha^2) for vp kinds, t for edm."""
        t = self._check_t(t)
        if self.kind == EDM:
            return np.asarray(t, dtype=float)
        # -expm1(2 log alpha) = 1 - alpha^2, accurate for alpha near 1
        return np.sqrt(-np.expm1(2.0 * self.log_alpha(t)))

    def lambda_of_t(self, t):
        """Half-logSNR lambda(t) = log alpha(t) - log sigma(t)."""
        t = self._check_t(t, need_positive_sigma=True)
        if self.kind == EDM:
            return -np.log(t)
        la = self.log_alpha(t)
        return la - 0.5 * np.log(-np.expm1(2.0 * la))

    # -- lambda-domain quantities -------------------------------------------

    @property
    def lam_domain(self) -> tuple[float, float]:
        """(lambda(t_max), lambda(t_min)) as an increasing pair; +inf at t_min=0 on vp."""
        lo, hi = self.t_domain
        lam_min = float(self.lambda_of_t(hi))
        if self.kind != EDM and lo == 0.0:
            return lam_min, math.inf
        return lam_min, float(self.lambda_of_t(lo))

    def _check_lam(self, lam):
        lam = np.asarray(lam, dtype=float)
        lo, hi = self.lam_domain
        tol = 1e-9 * max(1.0, abs(lo))
        if np.any(lam < lo - tol) or np.any(lam > hi + tol):
            raise DomainError(f"lambda={lam} outside schedule range [{lo}, {hi}]")
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
            tmp = -2.0 * two_log_alpha * (b1 - b0)
            return tmp / (np.sqrt(b0**2 + tmp) + b0) / (b1 - b0)
        s = self.params["offset"]
        log_alpha0 = math.log(math.cos(s / (1.0 + s) * math.pi / 2.0))
        return (
            np.arccos(np.exp(0.5 * two_log_alpha + log_alpha0))
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
        try:
            return cls(
                kind=data["kind"],
                params=dict(data.get("params", {})),
                t_domain=tuple(data.get("t_domain", ())),
            )
        except KeyError as exc:
            raise ValueError(f"schedule dict missing key {exc}") from exc


def schedules_equal(a: Schedule, b: Schedule) -> bool:
    """Same kind, parameters and time domain, compared exactly."""
    return a.kind == b.kind and a.params == b.params and a.t_domain == b.t_domain


UNIFORM_LAMBDA = "uniform-lambda"
UNIFORM_T = "uniform-t"


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Sampling timesteps t_0 = t_start > ... > t_M = t_end with their lambdas.

    ``lambdas`` is strictly increasing; both endpoints of ``timesteps`` are
    exact (not reconstructed through the lambda inversion).
    """

    timesteps: np.ndarray
    lambdas: np.ndarray

    @property
    def num_steps(self) -> int:
        return len(self.timesteps) - 1


def make_time_grid(
    sched: Schedule, num_steps: int, kind: str, t_start: float, t_end: float
) -> TimeGrid:
    """Build a sampling grid of ``num_steps`` intervals from t_start down to t_end.

    ``uniform-lambda`` spaces the half-logSNR values evenly (the usual choice
    for exponential-integrator solvers); ``uniform-t`` spaces time evenly.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if kind not in (UNIFORM_LAMBDA, UNIFORM_T):
        raise ValueError(f"unknown grid kind {kind!r}")
    if not t_start > t_end:
        raise ValueError(f"need t_start > t_end, got {t_start} <= {t_end}")
    lam_start = float(sched.lambda_of_t(t_start))
    lam_end = float(sched.lambda_of_t(t_end))
    if kind == UNIFORM_LAMBDA:
        lambdas = np.linspace(lam_start, lam_end, num_steps + 1)
        timesteps = np.asarray(sched.t_of_lambda(lambdas), dtype=float).copy()
        timesteps[0], timesteps[-1] = t_start, t_end
    else:
        timesteps = np.linspace(t_start, t_end, num_steps + 1)
        lambdas = np.asarray(sched.lambda_of_t(timesteps), dtype=float)
    return TimeGrid(timesteps=timesteps, lambdas=lambdas)
