"""Analytic noise-prediction models with exact derivatives, plus the reference solver.

Every model here has a closed-form marginal density under forward diffusion,
so the noise prediction eps(x, lambda) = -sigma * grad log q_lambda(x) is
exact, and so are its Jacobian-vector products.  That makes these models
usable as ground truth for solver-accuracy measurements: the probability-flow
ODE can be integrated to near machine precision with an adaptive
embedded Runge-Kutta pair (``reference_solve``).

All evaluation functions broadcast over leading axes: ``x`` may be shaped
``(D,)`` or ``(batch, D)``.  Evaluations are pure; RNG state is only consumed
by the sampling helpers, which take an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import logsumexp

from .errors import ConvergenceError
from .schedule import Schedule

_FD_LAMBDA_STEP = 1e-4


class ModelSpec:
    """Base class for analytic noise predictors."""

    kind = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def eps(self, sched: Schedule, x, lam):
        """Noise prediction eps(x, lambda) = -sigma * grad log q_lambda(x)."""
        raise NotImplementedError

    def jvp(self, sched: Schedule, x, lam, v):
        """Exact Jacobian-vector product (grad_x eps) @ v."""
        raise NotImplementedError

    def eps_dlambda(self, sched: Schedule, x, lam):
        """Partial derivative of eps w.r.t. lambda at fixed x.

        Analytic where the expression is short (point mass); central finite
        difference in lambda (step 1e-4) otherwise.
        """
        lam = float(lam)
        h = _FD_LAMBDA_STEP
        return (self.eps(sched, x, lam + h) - self.eps(sched, x, lam - h)) / (2.0 * h)

    def sample_data(self, rng: np.random.Generator, n: int):
        """Draw n i.i.d. points from the clean-data distribution q0."""
        raise NotImplementedError

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"x has dimension {x.shape[-1]}, model expects {self.dim}")
        return x

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class PointGaussian(ModelSpec):
    """Point mass q0 = delta(x0): eps(x, lambda) = (x - alpha x0) / sigma.

    The probability-flow ODE is linear for this model and every trajectory
    keeps (x - alpha x0) / sigma constant, which gives a closed-form solution
    used to validate the reference integrator itself.
    """

    x0: np.ndarray

    kind = "point-gaussian"

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1 or x0.size < 1:
            raise ValueError("x0 must be a vector of dimension >= 1")
        object.__setattr__(self, "x0", x0)

    @property
    def dim(self) -> int:
        return self.x0.size

    def eps(self, sched, x, lam):
        x = self._check_x(x)
        alpha = sched.alpha_lambda(lam)
        sigma = sched.sigma_lambda(lam)
        return (x - alpha * self.x0) / sigma

    def jvp(self, sched, x, lam, v):
        self._check_x(x)
        v = self._check_x(v)
        return v / sched.sigma_lambda(lam)

    def eps_dlambda(self, sched, x, lam):
        x = self._check_x(x)
        alpha = sched.alpha_lambda(lam)
        sigma = sched.sigma_lambda(lam)
        c = sched.dlog_alpha_dlambda(lam)
        # d(alpha)/dlambda = alpha c, d(log sigma)/dlambda = c - 1
        return -(alpha * c / sigma) * self.x0 - (c - 1.0) * ((x - alpha * self.x0) / sigma)

    def sample_data(self, rng, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        return np.tile(self.x0, (n, 1))

    def to_dict(self):
        return {"kind": self.kind, "x0": self.x0.tolist()}


@dataclass(frozen=True, eq=False)
class GaussianMixture(ModelSpec):
    """Isotropic Gaussian mixture q0 = sum_i w_i N(mu_i, s_i^2 I).

    Under forward diffusion the marginal stays a mixture with means
    alpha mu_i and variances alpha^2 s_i^2 + sigma^2, so the score, its
    Hessian-vector products, and the log-density are all closed form.
    """

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    kind = "gaussian-mixture"

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        s = np.atleast_1d(np.asarray(self.stds, dtype=float))
        if not (len(w) == len(mu) == len(s)):
            raise ValueError("weights, means, stds must have the same number of components")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()}, expected 1 within 1e-12")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if np.any(s < 0):
            raise ValueError("stds must be nonnegative")
        if mu.shape[1] < 1:
            raise ValueError("component dimension must be >= 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "stds", s)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _moments(self, sched, lam):
        alpha = float(sched.alpha_lambda(lam))
        sigma = float(sched.sigma_lambda(lam))
        var = alpha**2 * self.stds**2 + sigma**2  # per-component marginal variance
        return alpha, sigma, var

    def _posterior(self, x, alpha, var):
        """Posterior component weights pi_i(x) and per-component score terms."""
        diff = x[..., None, :] - alpha * self.means  # (..., C, D)
        sq = np.sum(diff**2, axis=-1)  # (..., C)
        log_comp = np.log(self.weights) - 0.5 * (self.dim * np.log(2.0 * np.pi * var) + sq / var)
        log_pi = log_comp - logsumexp(log_comp, axis=-1, keepdims=True)
        pi = np.exp(log_pi)
        comp_score = -diff / var[:, None]  # grad log N_i, (..., C, D)
        return pi, comp_score

    def log_density(self, sched, x, lam):
        """log q_lambda(x) of the diffused mixture."""
        x = self._check_x(x)
        alpha, _, var = self._moments(sched, lam)
        diff = x[..., None, :] - alpha * self.means
        sq = np.sum(diff**2, axis=-1)
        log_comp = np.log(self.weights) - 0.5 * (self.dim * np.log(2.0 * np.pi * var) + sq / var)
        return logsumexp(log_comp, axis=-1)

    def eps(self, sched, x, lam):
        x = self._check_x(x)
        alpha, sigma, var = self._moments(sched, lam)
        pi, comp_score = self._posterior(x, alpha, var)
        score = np.sum(pi[..., None] * comp_score, axis=-2)
        return -sigma * score

    def jvp(self, sched, x, lam, v):
        x = self._check_x(x)
        v = self._check_x(v)
        alpha, sigma, var = self._moments(sched, lam)
        pi, comp_score = self._posterior(x, alpha, var)
        mean_score = np.sum(pi[..., None] * comp_score, axis=-2)  # (..., D)
        dots = np.sum(comp_score * v[..., None, :], axis=-1)  # (..., C)
        # Hessian-vector product of log q:
        #   H v = sum_i pi_i g_i (g_i . v) - gbar (gbar . v) - (sum_i pi_i / v_i) v
        hv = (
            np.sum((pi * dots)[..., None] * comp_score, axis=-2)
            - mean_score * np.sum(mean_score * v, axis=-1, keepdims=True)
            - np.sum(pi / var, axis=-1, keepdims=True) * v
        )
        return -sigma * hv

    def sample_data(self, rng, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        return self.means[comp] + self.stds[comp, None] * z

    def to_dict(self):
        return {
            "kind": self.kind,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
        }


@dataclass(frozen=True, eq=False)
class Guided(ModelSpec):
    """Classifier-free combination: eps = scale * eps_cond + (1 - scale) * eps_uncond."""

    cond: ModelSpec
    uncond: ModelSpec
    scale: float = 1.0

    kind = "guided"

    def __post_init__(self):
        if self.cond.dim != self.uncond.dim:
            raise ValueError("cond and uncond models must share dimension")

    @property
    def dim(self) -> int:
        return self.cond.dim

    def eps(self, sched, x, lam):
        s = self.scale
        return s * self.cond.eps(sched, x, lam) + (1.0 - s) * self.uncond.eps(sched, x, lam)

    def jvp(self, sched, x, lam, v):
        s = self.scale
        return s * self.cond.jvp(sched, x, lam, v) + (1.0 - s) * self.uncond.jvp(sched, x, lam, v)

    def sample_data(self, rng, n):
        return self.cond.sample_data(rng, n)

    def to_dict(self):
        return {
            "kind": self.kind,
            "cond": self.cond.to_dict(),
            "uncond": self.uncond.to_dict(),
            "scale": self.scale,
        }


_MODEL_KINDS = {
    "point-gaussian": PointGaussian,
    "gaussian-mixture": GaussianMixture,
    "guided": Guided,
}


def model_from_dict(data: dict) -> ModelSpec:
    """Rebuild a model from its JSON dict form."""
    try:
        kind = data["kind"]
    except KeyError:
        raise ValueError("model dict missing 'kind'") from None
    if kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "point-gaussian":
        return PointGaussian(x0=np.asarray(data["x0"], dtype=float))
    if kind == "gaussian-mixture":
        return GaussianMixture(
            weights=np.asarray(data["weights"], dtype=float),
            means=np.asarray(data["means"], dtype=float),
            stds=np.asarray(data["stds"], dtype=float),
        )
    return Guided(
        cond=model_from_dict(data["cond"]),
        uncond=model_from_dict(data["uncond"]),
        scale=float(data["scale"]),
    )


def model_id(model: ModelSpec) -> str:
    """Short stable identifier: kind plus a digest of the parameters."""
    blob = json.dumps(model.to_dict(), sort_keys=True).encode()
    return f"{model.kind}-d{model.dim}-{hashlib.sha1(blob).hexdigest()[:8]}"


class EvalCounter(ModelSpec):
    """Delegating wrapper that counts noise-prediction calls (the NFE)."""

    def __init__(self, inner: ModelSpec):
        self.inner = inner
        self.calls = 0

    @property
    def kind(self):  # type: ignore[override]
        return self.inner.kind

    @property
    def dim(self):
        return self.inner.dim

    def eps(self, sched, x, lam):
        self.calls += 1
        return self.inner.eps(sched, x, lam)

    def jvp(self, sched, x, lam, v):
        return self.inner.jvp(sched, x, lam, v)

    def eps_dlambda(self, sched, x, lam):
        return self.inner.eps_dlambda(sched, x, lam)

    def sample_data(self, rng, n):
        return self.inner.sample_data(rng, n)

    def to_dict(self):
        return self.inner.to_dict()


def forward_diffuse(sched: Schedule, x0, lam, rng: np.random.Generator):
    """Apply the forward noising transition: alpha * x0 + sigma * z, z ~ N(0, I)."""
    x0 = np.asarray(x0, dtype=float)
    alpha = sched.alpha_lambda(lam)
    sigma = sched.sigma_lambda(lam)
    return alpha * x0 + sigma * rng.standard_normal(x0.shape)


def reference_solve(
    model: ModelSpec,
    sched: Schedule,
    x_start,
    lam_start: float,
    lam_end: float,
    tol: float = 1e-10,
    lam_eval=None,
):
    """Integrate the probability-flow ODE from lam_start up to lam_end.

    Solves dx/dlambda = (dlog alpha/dlambda) x - sigma * eps(x, lambda) with
    an adaptive 8th-order embedded Runge-Kutta pair at absolute and relative
    tolerance ``tol``.  This is the ground-truth oracle for all solver-error
    measurements.

    If ``lam_eval`` is given (an increasing array of lambdas inside the span),
    returns an array of states of shape ``(len(lam_eval),) + x_start.shape``;
    otherwise returns the final state.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if lam_end < lam_start:
        raise ValueError(f"need lam_end >= lam_start, got {lam_end} < {lam_start}")
    x_start = np.asarray(x_start, dtype=float)
    if lam_end == lam_start and lam_eval is None:
        return x_start.copy()
    shape = x_start.shape

    def rhs(lam, y):
        x = y.reshape(shape)
        c = sched.dlog_alpha_dlambda(lam)
        sigma = sched.sigma_lambda(lam)
        return (c * x - sigma * model.eps(sched, x, lam)).ravel()

    sol = solve_ivp(
        rhs,
        (lam_start, lam_end),
        x_start.ravel(),
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=None if lam_eval is None else np.asarray(lam_eval, dtype=float),
    )
    if not sol.success:
        raise ConvergenceError(f"reference integration failed: {sol.message}")
    if lam_eval is None:
        return sol.y[:, -1].reshape(shape)
    return sol.y.T.reshape((-1,) + shape)
