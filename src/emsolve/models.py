"""Analytic noise-prediction models with exact derivatives, plus the reference solver.

Every model here has a closed-form marginal density under forward diffusion,
so the noise prediction eps(x, lambda) = -sigma * grad log q_lambda(x) is
exact, and so are its Jacobian-vector products and its lambda-derivative
along the probability-flow ODE (``eps_along_ode``).  That makes these models
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

from .errors import ConvergenceError
from .schedule import Schedule


def _short_sum(a, axis=-1, keepdims=False):
    """``np.sum(a, axis)`` over a short axis, as left-to-right slice additions.

    ``axis`` is negative.  Below 8 terms np.sum adds in this order too, so the
    bits match; the slices skip np.sum's reduction set-up, which dominates on
    the mixture's short component and coordinate axes.  From 8 terms on the
    two differ by reassociation only.
    """
    tail = (slice(None),) * (-axis - 1)
    n = a.shape[axis]
    out = a[(..., 0) + tail]
    out = out.copy() if n == 1 else out + a[(..., 1) + tail]
    for k in range(2, n):
        out += a[(..., k) + tail]
    return np.expand_dims(out, axis) if keepdims else out


def _logsumexp(a, keepdims=False):
    """``scipy.special.logsumexp(a, axis=-1)`` of a real array, restated in numpy.

    The same arithmetic as scipy 1.17, without its array-API dispatch: every
    entry tied with the maximum leaves the sum and is counted instead, the
    result is log1p(sum of the others' exp(a - max) / count) + log(count) +
    max, and where that is not finite (all -inf, an inf, a NaN) it is the
    direct log(sum(exp(a))).
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    tied = a == a_max
    count = _short_sum(tied.astype(float), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = _short_sum(np.exp(np.where(tied, -np.inf, a) - a_max), keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(_short_sum(np.exp(a), keepdims=True)))
    return out if keepdims else out[..., 0]


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

    def eps_along_ode(self, sched: Schedule, x, lam):
        """eps and its total lambda-derivative along the probability-flow ODE.

        Returns ``(eps, d_eps)`` with d_eps = (d/dlambda) eps + J (c x - sigma eps),
        where J = grad_x eps and c = dlog alpha/dlambda: the rate at which eps
        changes on the trajectory through (x, lambda).  Closed form.
        """
        raise NotImplementedError

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

    def eps_along_ode(self, sched, x, lam):
        # (x - alpha x0) / sigma is constant along every trajectory
        eps = self.eps(sched, x, lam)
        return eps, np.zeros_like(eps)

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

    def _log_components(self, x, alpha, var):
        """Offsets x - alpha mu_i, their squared norms, and log w_i N_i(x)."""
        diff = x[..., None, :] - alpha * self.means  # (..., C, D)
        sq = _short_sum(diff**2)  # (..., C)
        log_comp = np.log(self.weights) - 0.5 * (self.dim * np.log(2.0 * np.pi * var) + sq / var)
        return diff, sq, log_comp

    def _posterior(self, x, alpha, var):
        """Posterior component weights pi_i(x), score terms grad log N_i, and |x - alpha mu_i|^2."""
        diff, sq, log_comp = self._log_components(x, alpha, var)
        log_pi = log_comp - _logsumexp(log_comp, keepdims=True)
        pi = np.exp(log_pi)
        # grad log N_i = -diff / var_i, (..., C, D), formed in diff's memory
        comp_score = np.divide(diff, -var[:, None], out=diff)
        return pi, comp_score, sq

    @staticmethod
    def _hessian_terms(pi, comp_score, mean_score, var, v, weights):
        """sum_i weights_i g_i - gbar (gbar . v) - (sum_i pi_i / var_i) v.

        With g_i = grad log N_i, gbar = sum_i pi_i g_i and weights_i =
        pi_i (g_i . v) this is the Hessian-vector product H v of log q.
        """
        return (
            _short_sum(weights[..., None] * comp_score, axis=-2)
            - mean_score * _short_sum(mean_score * v, keepdims=True)
            - _short_sum(pi / var, keepdims=True) * v
        )

    def log_density(self, sched, x, lam):
        """log q_lambda(x) of the diffused mixture."""
        x = self._check_x(x)
        alpha, _, var = self._moments(sched, lam)
        return _logsumexp(self._log_components(x, alpha, var)[2])

    def eps(self, sched, x, lam):
        x = self._check_x(x)
        alpha, sigma, var = self._moments(sched, lam)
        pi, comp_score, _ = self._posterior(x, alpha, var)
        score = _short_sum(pi[..., None] * comp_score, axis=-2)
        return -sigma * score

    def jvp(self, sched, x, lam, v):
        x = self._check_x(x)
        v = self._check_x(v)
        alpha, sigma, var = self._moments(sched, lam)
        pi, comp_score, _ = self._posterior(x, alpha, var)
        mean_score = _short_sum(pi[..., None] * comp_score, axis=-2)  # (..., D)
        dots = _short_sum(comp_score * v[..., None, :])  # (..., C)
        return -sigma * self._hessian_terms(pi, comp_score, mean_score, var, v, pi * dots)

    def eps_along_ode(self, sched, x, lam):
        x = self._check_x(x)
        alpha, sigma, var = self._moments(sched, lam)
        c = float(sched.dlog_alpha_dlambda(lam))
        pi, comp_score, sq = self._posterior(x, alpha, var)
        mean_score = _short_sum(pi[..., None] * comp_score, axis=-2)
        eps = -sigma * mean_score
        v = c * x - sigma * eps  # dx/dlambda on the ODE
        # lambda-partials at fixed x, from alpha mu_i = x + var_i g_i and
        # dvar_i = rate_i var_i (dalpha = c alpha, dsigma = (c - 1) sigma):
        #   dlog N_i = a_i - c g_i . x,  a_i = -sigma^2 |g_i|^2 - rate_i D / 2,
        #   dpi_i = pi_i (dlog N_i - sum_j pi_j dlog N_j),
        #   dg_i = c (g_i + x / var_i) - rate_i g_i.
        # d_eps = (c - 1) eps - sigma (sum_i (dpi_i g_i + pi_i dg_i) + H v).  In
        # the weights of the g_i, the Jacobian's g_i . v = c g_i . x +
        # sigma^2 g_i . gbar cancels the c g_i . x of dlog N_i.
        rate = 2.0 * c - 2.0 * sigma**2 / var
        a = -(sigma**2) * sq / var**2 - 0.5 * self.dim * rate
        weights = pi * (
            sigma**2 * _short_sum(comp_score * mean_score[..., None, :])
            + (a - _short_sum(pi * a, keepdims=True))
            + c * _short_sum(mean_score * x, keepdims=True)
            - rate
        )
        hv = self._hessian_terms(pi, comp_score, mean_score, var, v, weights)
        pi_over_var = _short_sum(pi / var, keepdims=True)
        d_eps = (c - 1.0) * eps - sigma * (hv + c * (mean_score + pi_over_var * x))
        return eps, d_eps

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

    def eps_along_ode(self, sched, x, lam):
        s = self.scale
        eps_c, d_c = self.cond.eps_along_ode(sched, x, lam)
        eps_u, d_u = self.uncond.eps_along_ode(sched, x, lam)
        eps = s * eps_c + (1.0 - s) * eps_u
        # Each part's d_eps follows that part's own ODE.  The guided velocity
        # differs from it by sigma (eps_part - eps), which the parts' Jacobians
        # carry into d_eps: sigma s (1 - s) (J_c - J_u) (eps_c - eps_u).
        gap = (sched.sigma_lambda(lam) * s * (1.0 - s)) * (eps_c - eps_u)
        d_eps = (
            s * d_c
            + (1.0 - s) * d_u
            + self.cond.jvp(sched, x, lam, gap)
            - self.uncond.jvp(sched, x, lam, gap)
        )
        return eps, d_eps

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


class EvalCounter:
    """Delegate that counts noise-prediction calls (the NFE); every other member is the model's."""

    def __init__(self, inner: ModelSpec):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        if name == "inner":  # not set yet while copy or pickle rebuilds the object
            raise AttributeError(name)
        return getattr(self.inner, name)

    def eps(self, sched, x, lam):
        self.calls += 1
        return self.inner.eps(sched, x, lam)


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
