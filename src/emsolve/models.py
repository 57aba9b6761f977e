"""Analytic noise-prediction models with exact derivatives, plus the reference solver.

Every model here has a closed-form marginal density under forward diffusion,
so the noise prediction eps(x, lambda) = -sigma * grad log q_lambda(x) is
exact, and so are its lambda-derivative along the probability-flow ODE and
its Jacobian-vector products (``linearize``).  That makes these models
usable as ground truth for solver-accuracy measurements: the probability-flow
ODE can be integrated to near machine precision with DOP853, an adaptive
embedded Runge-Kutta pair (``reference_solve``), whose rows all share one
model call per stage while each keeps its own step control.

All evaluation functions broadcast over leading axes: ``x`` may be shaped
``(D,)``, ``(batch, D)`` or ``(..., D)``, and a Jacobian-vector product's
``v`` may add leading axes to ``x``'s shape, as a stack of probes does.
``eps`` takes lambda as a scalar or as one value per row, an array of shape
``x.shape[:-1]``; ``linearize`` takes a scalar only.  A 0-d ``x``, a
non-finite lambda or a lambda array of the wrong shape raises ValueError.
Evaluations are pure; RNG state is only consumed by the sampling helpers,
which take an explicit ``numpy.random.Generator``.

Layout.  ``GaussianMixture`` computes coordinate-major: the N rows of ``x``
are read as a ``(D, N)`` view (no copy), the offsets x - alpha mu_i and the
component scores are ``(C, D, N)``, per-component terms ``(C, N)`` and a
probe stack ``(P, D, N)``.  With D and C at 2-4, the long N axis is then the
inner loop of every numpy call.  Sums over C or D add whole leading-axis
slices left to right (``_short_sum``, ``_short_dot``), in the order of a
row-major ``np.sum`` over the short axis, and the softmax's max takes
``np.maximum`` over component slices (``_short_max``), so the bits are those
of the row-major arithmetic.  Every output is a float64 array of the
caller's ``(..., D)`` shape that follows the input's layout: the transpose
of a C-contiguous ``(..., D, N)`` array for an input laid out so (such as
``a.T`` of a C-contiguous ``(D, N)`` array ``a``, as the sampler's state and
the estimator's samples are), C-contiguous otherwise.  The arithmetic is
element-wise, so both layouts give the same bits.

Buffers.  A mixture call writes into arrays it owns instead of taking a
fresh temporary per numpy call: the squared offsets are summed over D as
products into one ``(C, N)`` array, in which the log-components, the
softmax and the posterior weights are then formed; the offsets turn into
the component scores in place; ``eps`` sums the weighted scores straight
into the returned array and scales them there, and the softmax's max and
sum borrow one of its rows first.  ``linearize`` takes its temporaries from
one block, and its ``jvp`` writes into the product it returns.  Only
operations whose bits IEEE arithmetic fixes are reordered: ``+`` and ``*``
commuted, ``x * x`` for a square, ``out=`` forms of the same ufunc.

Sweeps.  Outside ``sweep_scope``, every output is a fresh array and no
buffer outlives its call (or, for the arrays a ``jvp`` reads, its ``jvp``).
``estimate_table`` runs its grid points inside ``sweep_scope(K)``, a context
this module owns as ``np.errstate`` owns numpy's state.  On the thread that
entered it, the i-th mixture ``linearize`` call of each grid point takes the
scope's i-th slot, which keeps the arrays of its input's shape and layout
for the next point: eps, d_eps, the arrays its ``jvp`` reads, and the
temporaries' block, which the ``jvp`` takes for its product and scratch
when they fit.  With one probe, no point after the first allocates an array
of the input's size.  Every call has a slot of its own, so ``Guided(m, m)``
and a user's wrapper alias nothing; a ``jvp`` whose slot a later call took
raises ValueError, and so does an ``x`` in the slot its call takes.  The
slots are dropped when the scope exits; nothing is kept on the model.

Memo.  The terms that depend on lambda only (sigma, the component
variances, alpha mu_i, D log(2 pi var_i) and -var_i) are computed once per
schedule object and scalar lambda and kept in a small memo on the model,
which is cleared when it holds ``_LAMBDA_MEMO_SIZE`` entries.  A sampler
run evaluates the model at the same few lambdas again and again.  The
parameters are read-only copies, so no entry goes stale; a copy, pickle
or ``replace`` rebuilds the model through its constructor with an empty
memo.  A lambda per row computes its terms afresh.

Iterator.  numpy 2.x runs a ufunc that broadcasts a ``(R, 1)`` column
against ``(R, n)`` coordinate-major rows through its buffered iterator.
When a row holds at most half of the ufunc buffer (8192 elements by
default), the iterator packs two or more rows into each buffer and copies
the broadcast column with them, and such a call costs about 3x the
element time of one whose rows are longer (1.1 against 0.33 ns an element
on ``(4, 4096)`` float64 rows, numpy 2.4.6, one thread).  So
``sweep_scope(K)`` enters ``row_buffers(K)``, which clamps the buffer to one
row of K for the sweep's duration.  It leaves rows shorter than
``_ROW_BUFFER_MIN_ROWS`` alone, whose calls a one-row buffer can make
slower, and rows longer than half the buffer, which take the fast path
already.  Buffering splits the work of the sweep's element-wise
calls, not their arithmetic, so the package's models give the same bits
under any buffer; a test pins a table's bits under ambient buffers of 16
to 32768 elements.  ``SamplerPlan.run`` runs unclamped: its batches of 64
to 4096 rows gained in-process, but no benchmark workload times them.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, check_floats, check_members, check_real
from .schedule import Schedule, check_lam_span, check_schedule, read_only


def _short_sum(a, out=None):
    """``np.sum(a, axis=0)`` bit for bit, as left-to-right additions of leading-axis slices.

    Below 8 terms this also matches ``np.sum`` over the same axis laid out
    last.  The slices skip np.sum's reduction set-up, which dominates on the
    mixture's short component and coordinate axes.  Written into ``out`` if given.
    """
    if len(a) == 1:
        if out is None:
            return a[0].copy()
        np.copyto(out, a[0])
        return out
    out = np.add(a[0], a[1], out=out)
    for k in range(2, len(a)):
        out += a[k]
    return out


def _short_max(a, out=None):
    """``np.max(a, axis=0)`` as ``np.maximum`` over leading-axis slices (``a[0]`` if only one)."""
    if len(a) == 1:
        return a[0]
    out = np.maximum(a[0], a[1], out=out)
    for k in range(2, len(a)):
        np.maximum(out, a[k], out=out)
    return out


def _short_dot(a, b, out=None, scratch=None):
    """sum_k a[k] * b[k] over the leading axis, added left to right as ``_short_sum`` adds.

    Written into ``out`` if given; each later product goes to ``scratch`` if given.
    """
    out = np.multiply(a[0], b[0], out=out)
    for k in range(1, len(a)):
        out += np.multiply(a[k], b[k], out=scratch)
    return out


def _scalar(lam) -> bool:
    """``np.ndim(lam) == 0``, without np.ndim's dispatch for an array or a Python or numpy float."""
    if isinstance(lam, np.ndarray):
        return lam.ndim == 0
    return isinstance(lam, float) or np.ndim(lam) == 0


def _columns(a, lead, n):
    """A ``lead + (n..., D)`` array with its n rows of D as a ``lead + (D, n)`` view."""
    return a.reshape(lead + (n, a.shape[-1])).swapaxes(-1, -2)


def _row_buffer(cols, shape, mem=None):
    """An empty float64 array of ``shape`` to return, and its ``(..., D, n)`` view to write into.

    ``cols`` is the input's ``_columns`` view.  When it is C-contiguous, the
    buffer is laid out as ``cols`` is and the returned array is its
    transpose, so the output keeps the input's layout; otherwise the
    returned array is C-contiguous.  The buffer is the flat array ``mem``
    if given, else fresh.
    """
    if cols.flags.c_contiguous:
        buf = np.empty(cols.shape) if mem is None else mem.reshape(cols.shape)
        return buf.swapaxes(-1, -2).reshape(shape), buf  # the reshape only splits axes: a view
    out = np.empty(shape) if mem is None else mem.reshape(shape)
    return out, _columns(out, cols.shape[:-2], cols.shape[-1])


# The shortest row that ``row_buffers`` clamps the buffer to.  On plan.run the
# clamp cost 2-13% below it; on the sweep it moved no time below K = 256
_ROW_BUFFER_MIN_ROWS = 64
_NO_SCOPE = contextlib.nullcontext()


def row_buffers(n):
    """A context in which numpy's ufunc buffer holds one coordinate-major row of ``n`` elements.

    Inside it the buffer is ``n`` rounded up to a multiple of 16, when that
    row is at least ``_ROW_BUFFER_MIN_ROWS`` long and at most half of the
    current buffer (``np.getbufsize()``); otherwise the context changes
    nothing.  The clamp is scoped by ``np.errstate``, so the caller's buffer
    size and error state come back on exit and on raise.  An element-wise
    call changes only where its buffered loop splits the work, never its
    arithmetic; a buffered reduction adds in blocks of the clamped size
    (see the module's "Iterator." paragraph and ``ModelSpec.linearize``).
    """
    if n < _ROW_BUFFER_MIN_ROWS or 2 * n > np.getbufsize():
        return _NO_SCOPE
    return _clamped_buffer(n + -n % 16)


@contextlib.contextmanager
def _clamped_buffer(size):
    with np.errstate():
        np.setbufsize(size)
        yield


def _block_size(shapes):
    """The length of the flat block in which ``_carve`` lays out arrays of ``shapes``."""
    return sum(size + size % 2 for size in map(math.prod, shapes))


def _carve(shapes, mem=None):
    """C-contiguous float64 arrays of ``shapes``, laid end to end in the flat array ``mem``.

    Each starts at an even offset, so it keeps a fresh array's 16-byte
    alignment.  Without ``mem`` they share one fresh block.
    """
    if mem is None:
        mem = np.empty(_block_size(shapes))
    arrays, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(mem[start : start + size].reshape(shape))
        start += size + size % 2
    return arrays


class _Workspace:
    """A mixture's ``linearize`` arrays for one input shape and layout: a slot of a sweep.

    ``owner`` is the token of the last call that took them, so the ``jvp``
    of an earlier call can tell that its memory was reused.
    """

    __slots__ = ("key", "arrays", "memory", "owner")

    def __init__(self, key, arrays):
        self.key, self.arrays = key, arrays
        # eps, d_eps, the block the jvp reads and the temporaries' memory
        self.memory = (arrays[0], arrays[2], arrays[4].base, arrays[-1])
        self.owner = None

    def holds(self, a) -> bool:
        """Whether ``a`` may share memory with the workspace's arrays."""
        return any(np.may_share_memory(a, m) for m in self.memory)

    def jvp_memory(self, size, v):
        """The temporaries' memory for a ``jvp``'s arrays of ``size``, or None.

        None if they do not fit it or its ``v`` lies in it.
        """
        mem = self.arrays[-1]
        return None if size > mem.size or np.may_share_memory(v, mem) else mem


# The cap on a mixture's per-lambda memo, which is cleared when full.  A sampler
# run evaluates at most its NFE lambdas: sample-serial's 32 runs visit 30 in
# all, and a bench-convergence command up to 80.
_LAMBDA_MEMO_SIZE = 128
# The size of the mixture's (C, D, N) offsets up to which a (C, D, N) temporary
# costs less than the numpy calls that avoid it
_SMALL_CALL = 4096


class _Sweep:
    """One ``sweep_scope``'s ``_Workspace`` slots by index, taken in call order at each point."""

    __slots__ = ("slots", "taken", "thread")

    def __init__(self):
        self.slots, self.taken, self.thread = {}, 0, threading.get_ident()

    def next_point(self):
        """A grid point starts: its first ``linearize`` call takes the first slot again."""
        self.taken = 0


# The sweep whose scope this context is in, if any
_SWEEP = contextvars.ContextVar("emsolve_sweep", default=None)


@contextlib.contextmanager
def sweep_scope(n):
    """The context of a table build's sweep over its ``n`` samples: yields its ``_Sweep``.

    Inside it, numpy's ufunc buffer is clamped by ``row_buffers(n)``, and
    each mixture ``linearize`` call on the entering thread takes the next of
    the scope's slots; the caller calls ``next_point()`` as each grid point
    starts (see the module's "Sweeps." paragraph).  On exit or raise the
    slots go and the caller's numpy state comes back.
    """
    sweep = _Sweep()
    token = _SWEEP.set(sweep)
    try:
        with row_buffers(n):
            yield sweep
    finally:
        _SWEEP.reset(token)


class ModelSpec:
    """Base class for analytic noise predictors."""

    kind = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def eps(self, sched: Schedule, x, lam):
        """Noise prediction eps(x, lambda) = -sigma * grad log q_lambda(x).

        ``lam`` is a scalar or has shape ``x.shape[:-1]``, one lambda per
        row.  Rows never mix: row i of ``eps(x, lams)`` is ``eps(x[i],
        lams[i])`` bit for bit.
        """
        raise NotImplementedError

    def linearize(self, sched: Schedule, x, lam):
        """eps at (x, lambda), its rate along the ODE, and its Jacobian: ``(eps, d_eps, jvp)``.

        ``estimate_table`` calls it plainly, ``linearize(sched, x, lam)``, once a grid point.
        d_eps = (d/dlambda) eps + J (c x - sigma eps), where J = grad_x eps
        and c = dlog alpha/dlambda: the rate at which eps changes on the
        probability-flow trajectory through (x, lambda).  ``jvp(v)`` is the
        exact product J v; ``v`` may carry extra leading axes, as a stack of
        probes does.  All closed form, from one evaluation of the model.
        ``lam`` must be a scalar.

        The returned ``eps`` and ``d_eps``, and each product ``jvp`` returns,
        are the caller's to overwrite: ``jvp`` never reads them.  Inside
        ``sweep_scope``, the package's mixtures reuse them at the next grid
        point, so a wrapper keeps none of them past its own call.  The sweep
        also clamps numpy's buffer (``row_buffers(K)``): a reduction that
        numpy buffers, such as a sum that casts its input, then adds blocks
        of K rounded up to a multiple of 16, and may differ in its last bits
        from the same call outside the sweep.
        """
        raise NotImplementedError

    def sample_data(self, rng: np.random.Generator, n: int):
        """Draw n i.i.d. points from the clean-data distribution q0."""
        raise NotImplementedError

    def _check_x(self, x):
        """``x`` as a float array of shape ``(..., dim)``; anything else raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            raise ValueError(f"x must have shape (..., {self.dim}), got a 0-d array")
        if x.shape[-1] != self.dim:
            raise ValueError(f"x has dimension {x.shape[-1]}, model expects {self.dim}")
        return x

    def _check_input(self, x, lam, per_row=True):
        """The argument check every evaluation makes: a finite lambda and ``_check_x(x)``.

        With ``per_row``, ``lam`` may also be an array of shape ``x.shape[:-1]``.
        """
        if _scalar(lam):
            if not math.isfinite(lam):
                raise ValueError(f"lambda must be finite, got {lam}")
            return self._check_x(x)
        if not per_row:
            raise ValueError(f"lambda must be a scalar here, got shape {np.shape(lam)}")
        x = self._check_x(x)
        lam = np.asarray(lam, dtype=float)
        if lam.shape != x.shape[:-1]:
            raise ValueError(f"lambda has shape {lam.shape}, expected a scalar or {x.shape[:-1]}")
        if not np.all(np.isfinite(lam)):
            raise ValueError("lambda must be finite")
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
        x0 = np.atleast_1d(read_only(self.x0, "x0"))
        if x0.ndim != 1 or x0.size < 1:
            raise ValueError("x0 must be a vector of dimension >= 1")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        object.__setattr__(self, "x0", x0)

    def __reduce__(self):
        # through the constructor: an unpickled or deep-copied array comes back writable
        return type(self), (self.x0,)

    @property
    def dim(self) -> int:
        return self.x0.size

    def eps(self, sched, x, lam):
        x = self._check_input(x, lam)
        alpha = sched.alpha_lambda(lam)[..., None]
        sigma = sched.sigma_lambda(lam)[..., None]
        return (x - alpha * self.x0) / sigma

    def linearize(self, sched, x, lam):
        # (x - alpha x0) / sigma is constant along every trajectory
        eps = self.eps(sched, self._check_input(x, lam, per_row=False), lam)
        sigma = sched.sigma_lambda(lam)

        def apply_jacobian(v):
            return self._check_x(v) / sigma

        return eps, np.zeros_like(eps), apply_jacobian

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
        w = np.atleast_1d(read_only(self.weights, "weights"))
        mu = np.atleast_2d(read_only(self.means, "means"))
        s = np.atleast_1d(read_only(self.stds, "stds"))
        if not (w.ndim == s.ndim == 1 and mu.ndim == 2 and len(w) == len(mu) == len(s)):
            shapes = f"{w.shape}, {mu.shape} and {s.shape}"
            raise ValueError(f"weights, means, stds must be (C,), (C, D) and (C,), got {shapes}")
        for name, value in (("weights", w), ("means", mu), ("stds", s)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
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
        # the coordinate-major constants of the arithmetic
        object.__setattr__(self, "_means", mu[:, :, None])
        object.__setattr__(self, "_log_weights", np.log(w)[:, None])
        object.__setattr__(self, "_stds_sq", (s**2)[:, None])
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        # through the constructor, as the tables': a copy starts with an empty memo
        return type(self), (self.weights, self.means, self.stds)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _lambda_terms(self, sched, lam):
        """The lambda-only terms: sigma, var_i, alpha mu_i, D log(2 pi var_i) and -var_i.

        For a scalar lambda: a float, then arrays of shape (C, 1), (C, D, 1),
        (C, 1) and (C, 1, 1), read from the model's memo.  Its key is the
        schedule object's identity and ``float(lam)``, and an entry holds
        its schedule, so a key never outlives the object it names; a full
        memo is cleared.  For a lambda per row: sigma (N,), then (C, N), (C,
        D, N), (C, N) and (C, 1, N) arrays, computed afresh, which broadcast
        against the (C, D, N) and (C, N) arrays as the scalar terms do.
        ``np.float_power`` squares with the C library's ``pow``, as Python's
        float ``**`` does, so a row's bits are the scalar path's;
        ``np.square`` differs from ``pow`` in the last bit for about 0.1% of
        inputs.
        """
        scalar = _scalar(lam)
        if scalar:
            key = (id(sched), float(lam))
            hit = self._memo.get(key)
            if hit is not None and hit[0] is sched:
                return hit[1]
            alpha = float(sched.alpha_lambda(lam))
            sigma = float(sched.sigma_lambda(lam))
            var = alpha**2 * self._stds_sq + sigma**2
        else:
            alpha = sched.alpha_lambda(lam).reshape(-1)
            sigma = sched.sigma_lambda(lam).reshape(-1)
            var = np.float_power(alpha, 2.0) * self._stds_sq + np.float_power(sigma, 2.0)
        log_norm = self.dim * np.log(2.0 * np.pi * var)
        terms = sigma, var, alpha * self._means, log_norm, -var[:, None]
        if scalar:
            if len(self._memo) >= _LAMBDA_MEMO_SIZE:
                self._memo.clear()
            self._memo[key] = sched, terms
        return terms

    def _posterior(self, sq, var, log_norm, row):
        """Posterior weights pi_i(x), (C, N), formed in the memory of ``sq`` = |x - alpha mu_i|^2.

        log w_i N_i(x) = log w_i - (D log(2 pi var_i) + sq_i / var_i) / 2, then a
        softmax over the components, whose max and sum take the (N,) array ``row``.
        """
        sq /= var
        sq += log_norm
        sq *= 0.5
        np.subtract(self._log_weights, sq, out=sq)
        sq -= _short_max(sq, out=row)
        np.exp(sq, out=sq)
        sq /= _short_sum(sq, out=row)
        return sq

    @staticmethod
    def _offsets(xt, alpha_means, diff=None, sq=None, scratch=None):
        """The offsets x - alpha mu_i, (C, D, N), and their squared norms, (C, N).

        The squares are summed over D left to right, as a row-major ``np.sum``
        adds them.  A large call forms them as products into the norms, with
        no (C, D, N) temporary; a small one squares the offsets in one call,
        which costs fewer numpy calls than D products.  Written into ``diff``
        and ``sq`` if given; a large call's products go to the (C, N) array
        ``scratch`` if given.
        """
        # order="C": by default a ufunc's output would follow the strided x.T,
        # and the squares' would follow diff, whose (C, N) slices are strided
        diff = np.subtract(xt, alpha_means, out=diff, order="C")
        by_coord = diff.swapaxes(0, 1)
        if diff.size <= _SMALL_CALL:
            return diff, _short_sum(np.multiply(by_coord, by_coord, order="C"), out=sq)
        if scratch is None:
            scratch = np.empty(by_coord.shape[1:])
        return diff, _short_dot(by_coord, by_coord, out=sq, scratch=scratch)

    @staticmethod
    def _hessian_terms(comp_score, mean_score, pi_over_var, v, weights, out, work, gbar_v):
        """sum_i weights_i g_i - gbar (gbar . v) - (sum_i pi_i / var_i) v, written into ``out``.

        With g_i = grad log N_i, gbar = sum_i pi_i g_i and weights_i =
        pi_i (g_i . v) this is the Hessian-vector product H v of log q.  ``v``
        is (D, N) or a (P, D, N) probe stack, and ``weights`` (C, N) or (P, C,
        N); ``work`` is a scratch of ``out``'s shape, and ``gbar . v`` is
        formed in ``gbar_v``, (N,) or (P, N).
        """
        # swapaxes(0, -2) brings the component or coordinate axis to the front
        _short_dot(weights.swapaxes(0, -2)[..., None, :], comp_score, out=out, scratch=work)
        _short_dot(mean_score, v.swapaxes(0, -2), out=gbar_v, scratch=work[..., 0, :])
        out -= np.multiply(mean_score, gbar_v[..., None, :], out=work)
        out -= np.multiply(pi_over_var, v, out=work)
        return out

    def eps(self, sched, x, lam):
        x = self._check_input(x, lam)
        sigma, var, alpha_means, log_norm, neg_var = self._lambda_terms(sched, lam)
        xt = _columns(x, (), x.size // self.dim)
        diff, sq = self._offsets(xt, alpha_means)
        out, out_t = _row_buffer(xt, x.shape)
        pi = self._posterior(sq, var, log_norm, out_t[0])  # a row of out, written last
        # diff turns into the component scores grad log N_i = -diff / var_i, then pi_i times them
        np.divide(diff, neg_var, out=diff)
        diff *= pi[:, None]
        _short_sum(diff, out=out_t)
        out_t *= -sigma
        return out

    def _linearize_arrays(self, xt, shape):
        """The arrays of a ``linearize`` call on ``xt``, the ``(D, N)`` view of an ``x`` of ``shape``.

        In order: eps and d_eps, each with its (D, N) view; the offsets (C,
        D, N), their squared norms (C, N), the mean score (D, N) and sum_i
        pi_i / var_i (N,), which the call's ``jvp`` reads, from one block;
        then the temporaries, two (D, N) and three (C, N) arrays, and
        ``free``, the flat memory they share, which the ``jvp`` takes for its
        own arrays once the call has returned.  These are four allocations
        where one would do: a workspace of one block, freed when a table
        build ends, raised glibc's dynamic trim threshold (twice the largest
        mapped chunk freed) above all that the build frees, so the heap was
        never trimmed after a build, and a benchmark process's peak resident
        memory read 1.5-2% higher.
        """
        num_comp, (dim, n) = len(self.weights), xt.shape
        kept = _carve([(num_comp, dim, n), (num_comp, n), (dim, n), (n,)])
        temps = [(dim, n)] * 2 + [(num_comp, n)] * 3
        free = np.empty(_block_size(temps))
        eps, d_eps = _row_buffer(xt, shape), _row_buffer(xt, shape)
        return (*eps, *d_eps, *kept, *_carve(temps, free), free)

    def _workspace(self, sweep, xt, shape):
        """The sweep's next slot with this input's arrays, refilled for a new shape or layout."""
        key = (len(self.weights), shape, xt.flags.c_contiguous)
        i = sweep.taken
        sweep.taken += 1
        ws = sweep.slots.get(i)
        if ws is None or ws.key != key:
            ws = sweep.slots[i] = _Workspace(key, self._linearize_arrays(xt, shape))
        elif ws.holds(xt):
            raise ValueError("x shares memory with the workspace's arrays; pass a copy")
        return ws

    def linearize(self, sched, x, lam):
        # apply_jacobian closes over this call's posterior, which it keeps alive
        x = self._check_input(x, lam, per_row=False)
        sigma, var, alpha_means, log_norm, neg_var = self._lambda_terms(sched, lam)
        c = float(sched.dlog_alpha_dlambda(lam))
        n = x.size // self.dim
        xt = _columns(x, (), n)
        sweep = _SWEEP.get()
        if sweep is None or sweep.thread != threading.get_ident():
            ws = token = None
            arrays = self._linearize_arrays(xt, x.shape)
        else:
            ws = self._workspace(sweep, xt, x.shape)
            arrays = ws.arrays
            ws.owner = token = object()
        (eps, eps_t, d_eps, d_eps_t, diff, sq, mean_score, pi_over_var,
         work, velocity, a, scratch, weights, _) = arrays
        diff, sq = self._offsets(xt, alpha_means, diff, sq, scratch=a)
        # lambda-partials at fixed x, from alpha mu_i = x + var_i g_i and
        # dvar_i = rate_i var_i (dalpha = c alpha, dsigma = (c - 1) sigma):
        #   dlog N_i = a_i - c g_i . x,  a_i = -sigma^2 |g_i|^2 - rate_i D / 2,
        #   dpi_i = pi_i (dlog N_i - sum_j pi_j dlog N_j),
        #   dg_i = c (g_i + x / var_i) - rate_i g_i.
        # d_eps = (c - 1) eps - sigma (sum_i (dpi_i g_i + pi_i dg_i) + H v).  In
        # the weights of the g_i, the Jacobian's g_i . v = c g_i . x +
        # sigma^2 g_i . gbar cancels the c g_i . x of dlog N_i.
        rate = 2.0 * c - 2.0 * sigma**2 / var
        # |g_i|^2 = sq_i / var_i^2: a_i, before sq turns into pi
        np.multiply(sq, -(sigma**2), out=a)
        a /= var**2
        a -= 0.5 * self.dim * rate
        pi = self._posterior(sq, var, log_norm, d_eps_t[0])  # a row of d_eps, written last
        comp_score = np.divide(diff, neg_var, out=diff)
        _short_dot(pi[:, None], comp_score, out=mean_score, scratch=work)
        np.multiply(mean_score, -sigma, out=eps_t)
        _short_dot(comp_score.swapaxes(0, 1), mean_score[:, None], out=weights, scratch=scratch)
        weights *= sigma**2
        # the (N,) dot products go to a row of velocity, which is not in use yet
        a -= _short_dot(pi, a, out=velocity[0], scratch=scratch[0])
        weights += a
        weights += np.multiply(
            _short_dot(mean_score, xt, out=velocity[0], scratch=scratch[0]), c, out=scratch[-1]
        )
        weights -= rate
        weights *= pi
        _short_sum(np.divide(pi, var, out=scratch), out=pi_over_var)
        # H applied to the ODE's velocity dx/dlambda = c x - sigma eps, into d_eps's memory
        np.multiply(xt, c, out=velocity)
        velocity -= np.multiply(eps_t, sigma, out=work)
        self._hessian_terms(
            comp_score, mean_score, pi_over_var, velocity, weights, d_eps_t, work, a[0]
        )
        # d_eps = (c - 1) eps - sigma (H v + c (gbar + (sum_i pi_i / var_i) x))
        rest = np.multiply(xt, pi_over_var, out=velocity)
        rest += mean_score
        rest *= c
        d_eps_t += rest
        d_eps_t *= sigma
        np.subtract(np.multiply(eps_t, c - 1.0, out=work), d_eps_t, out=d_eps_t)

        def apply_jacobian(v):
            """-sigma H v from this posterior; ``v`` may add leading axes, such as probes."""
            if ws is not None and ws.owner is not token:
                raise ValueError("a later linearize call has reused this jvp's workspace")
            v = self._check_x(v)
            shape = np.broadcast_shapes(v.shape, x.shape)
            if shape[len(shape) - x.ndim :] != x.shape:
                raise ValueError(f"v of shape {v.shape} does not end in x's shape {x.shape}")
            probes = (math.prod(shape[: len(shape) - x.ndim]),)
            vt = _columns(np.broadcast_to(v, shape), probes, n)  # (P, D, N)
            by_coord = vt.swapaxes(0, 1)[:, :, None]  # (D, P, 1, N)
            # the dot products' scratch (which then holds gbar . v), the dots, a scratch and out
            shapes = [probes + pi.shape] * 2 + [vt.shape, (vt.size,)]
            mem = None if ws is None else ws.jvp_memory(_block_size(shapes), v)
            if mem is None:  # fresh temporaries and a fresh product
                (scratch, dots, work), out_mem = _carve(shapes[:3]), None
            else:
                scratch, dots, work, out_mem = _carve(shapes, mem)
            _short_dot(comp_score.swapaxes(0, 1), by_coord, out=dots, scratch=scratch)  # (P, C, N)
            dots *= pi
            out, out_t = _row_buffer(vt, shape, out_mem)
            self._hessian_terms(
                comp_score, mean_score, pi_over_var, vt, dots, out_t, work, scratch[:, 0]
            )
            out_t *= -sigma
            return out

        return eps, d_eps, apply_jacobian

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
        for part in (self.cond, self.uncond):
            check_members(part, "model", ("eps", "linearize"), ("dim",))
        if self.cond.dim != self.uncond.dim:
            raise ValueError("cond and uncond models must share dimension")
        check_real(self.scale, "scale")

    @property
    def dim(self) -> int:
        return self.cond.dim

    def eps(self, sched, x, lam):
        s = self.scale
        return s * self.cond.eps(sched, x, lam) + (1.0 - s) * self.uncond.eps(sched, x, lam)

    def linearize(self, sched, x, lam):
        s = self.scale
        eps_c, d_c, jvp_c = self.cond.linearize(sched, x, lam)
        eps_u, d_u, jvp_u = self.uncond.linearize(sched, x, lam)
        eps = s * eps_c + (1.0 - s) * eps_u
        # Each part's d_eps follows that part's own ODE.  The guided velocity
        # differs from it by sigma (eps_part - eps), which the parts' Jacobians
        # carry into d_eps: sigma s (1 - s) (J_c - J_u) (eps_c - eps_u).
        gap = (sched.sigma_lambda(lam) * s * (1.0 - s)) * (eps_c - eps_u)
        d_eps = s * d_c + (1.0 - s) * d_u + jvp_c(gap) - jvp_u(gap)

        def apply_jacobian(v):
            return s * jvp_c(v) + (1.0 - s) * jvp_u(v)

        return eps, d_eps, apply_jacobian

    def sample_data(self, rng, n):
        return self.cond.sample_data(rng, n)

    def to_dict(self):
        return {
            "kind": self.kind,
            "cond": self.cond.to_dict(),
            "uncond": self.uncond.to_dict(),
            "scale": self.scale,
        }


_MODEL_KINDS = (PointGaussian.kind, GaussianMixture.kind, Guided.kind)  # ``in`` hashes nothing


def model_from_dict(data: dict) -> ModelSpec:
    """Rebuild a model from its JSON dict form; ValueError for a malformed one."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a model dict, got {type(data).__name__}")
    try:
        kind = data["kind"]
        if kind not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if kind == "point-gaussian":
            return PointGaussian(x0=data["x0"])
        if kind == "gaussian-mixture":
            return GaussianMixture(weights=data["weights"], means=data["means"], stds=data["stds"])
        cond, uncond = model_from_dict(data["cond"]), model_from_dict(data["uncond"])
        return Guided(cond, uncond, scale=float(check_real(data["scale"], "scale")))
    except KeyError as exc:
        raise ValueError(f"model dict missing key {exc}") from None


def model_id(model: ModelSpec) -> str:
    """Short stable identifier: kind plus a digest of the parameters."""
    blob = json.dumps(model.to_dict(), sort_keys=True).encode()
    return f"{model.kind}-d{model.dim}-{hashlib.sha1(blob).hexdigest()[:8]}"


class EvalCounter:
    """Delegate that counts ``eps`` calls (the NFE); it forwards ``linearize`` and all else."""

    def __init__(self, inner: ModelSpec):
        check_members(inner, "model", ("eps",))
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        if name == "inner":  # not set yet while copy or pickle rebuilds the object
            raise AttributeError(name)
        return getattr(self.inner, name)

    def eps(self, sched, x, lam):
        self.calls += 1
        return self.inner.eps(sched, x, lam)


# DOP853, the 8th-order embedded Runge-Kutta pair of Hairer, Norsett & Wanner,
# "Solving Ordinary Differential Equations I" (Ch. II), with the step-size
# control of its Sec. II.4.  The tableau is written out below: each entry is
# the float64 that scipy.integrate.DOP853 (1.17.1) holds, as the shortest
# literal that reads back to those bits.  The controller and the initial step
# restate scipy.integrate's rk.py and select_initial_step.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8  # -1 / (error estimator order 7 + 1)

# The nodes c_i, then each row's (stage, coefficient) pairs with a nonzero
# coefficient: the stage matrix a_ij, the weights b_j and the two error
# estimators' weights (their stage 12 is f at the new state, weight 0).
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
_A_TERMS = [
    [],
    [(0, 0.05260015195876773)],
    [(0, 0.0197250569845379), (1, 0.0591751709536137)],
    [(0, 0.02958758547680685), (2, 0.08876275643042054)],
    [(0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)],
    [(0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)],
    [(0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)],
    [
        (0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
        (5, -0.015319437748624402), (6, 0.008273789163814023),
    ],
    [
        (0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
        (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996),
    ],
    [
        (0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
        (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
        (8, -0.020331201708508627),
    ],
    [
        (0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
        (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
        (8, 2.4936055526796523), (9, -3.0467644718982196),
    ],
    [
        (0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
        (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
        (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636),
    ],
]
_B_TERMS = [
    (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.04471061572777259),
]
_E3_TERMS = [
    (0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.02265179219836082),
]
_E5_TERMS = [
    (0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
    (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
    (10, 0.08192320648511571), (11, -0.022355307863886294),
]

# The cap on a row's attempted steps.  A tol-1e-13 solve of the test mixture
# over vp-linear's or edm's sampling span takes 51 or 65.
REFERENCE_MAX_STEPS = 10_000


# The running sums of a step, one row each: A's rows 1-11 (the stage states), then B, E5 and E3
_SUMS = _A_TERMS[1:] + [_B_TERMS, _E5_TERMS, _E3_TERMS]
_B_ROW, _E5_ROW, _E3_ROW = range(len(_SUMS) - 3, len(_SUMS))
_NODES = np.array(_C[1:])[:, None]


def _stage_columns():
    """Per stage k, the rows lo:hi of ``_SUMS`` that weigh K_k, and their coefficients.

    Each stage's nonzero coefficients sit in one contiguous run of rows, and
    every row begins with stage 0, whose column covers them all.
    """
    dense = np.zeros((len(_SUMS), len(_C)))
    for i, terms in enumerate(_SUMS):
        for k, c in terms:
            dense[i, k] = c
    columns = []
    for k in range(len(_C)):
        (nonzero,) = np.nonzero(dense[:, k])
        lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
        columns.append((lo, hi, dense[lo:hi, k, None, None]))
    return columns


_STAGE_COLUMNS = _stage_columns()


def _row_sq(a):
    """The squared norm of each row of an (R, D) array, summed over D left to right."""
    return _short_dot(a.T, a.T)


def _initial_step(rhs, lam, y, f, span, tol):
    """Each row's first step, by the formula of scipy's ``select_initial_step``."""
    scale = tol + np.abs(y) * tol
    root_dim = math.sqrt(y.shape[-1])
    d0 = np.sqrt(_row_sq(y / scale)) / root_dim
    d1 = np.sqrt(_row_sq(f / scale)) / root_dim
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    f1 = rhs(lam + h0, y + h0[:, None] * f)
    d2 = np.sqrt(_row_sq((f1 - f) / scale)) / root_dim / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (-_ERROR_EXPONENT),
    )
    return np.minimum(np.minimum(100.0 * h0, h1), span)


def reference_solve(
    model: ModelSpec,
    sched: Schedule,
    x_start,
    lam_start: float,
    lam_end: float,
    tol: float = 1e-10,
):
    """Integrate the probability-flow ODE from lam_start up to lam_end, each row on its own.

    Solves dx/dlambda = (dlog alpha/dlambda) x - sigma * eps(x, lambda) for
    every row of ``x_start``, shaped ``(..., D)``, with DOP853 at absolute
    and relative tolerance ``tol``, and returns the end states in
    ``x_start``'s shape.  This is the ground-truth oracle for all
    solver-error measurements.

    Each row has its own lambda, step size and accept/reject state, and
    leaves the active set at lam_end; the active rows share one ``eps`` call
    per stage, with a lambda per row.  Rows never mix, so a row's result is
    the same bits alone or in any batch.  Each stage's derivative is added
    once into the running sums of the later stages, the new state and the
    two error estimates that weigh it, so every sum adds its terms in stage
    order and skips the zero ones.  Each accepted step keeps the row's
    local error estimate below tol * (1 + |x|) in DOP853's norm.  Accuracy
    contract: at tol 1e-10 over a schedule's sampling span, each row's end
    state lies within 10 * tol * max(1, max|x|) of a tol-1e-13 solve, with
    max|x| over that row's end state.  The tests gate it on mixtures and
    guided pairs under vp-linear, vp-cosine and edm (measured up to 2.6),
    and on the point mass's closed-form trajectory.

    Raises ValueError for a malformed argument (``tol`` must be positive,
    ``lam_end`` at least ``lam_start``) or a non-finite ``x_start``, and
    DomainError (a ValueError) for a span outside the schedule's lambda
    domain.  Raises
    ConvergenceError when a row's step falls below ten spacings of the
    floats at its lambda, when a row attempts more than
    ``REFERENCE_MAX_STEPS`` steps, or when a state or right-hand side turns
    non-finite.
    """
    check_members(model, "model", ("eps",))
    check_schedule(sched)
    if check_real(tol, "tol") <= 0:
        raise ValueError("tol must be positive")
    if check_real(lam_end, "lam_end") < check_real(lam_start, "lam_start"):
        raise ValueError(f"need lam_end >= lam_start, got {lam_end} < {lam_start}")
    check_lam_span(sched, lam_start, lam_end, "span")
    x_start = check_floats(x_start, "x_start")
    if x_start.ndim == 0:
        raise ValueError("x_start must have shape (..., D), got a 0-d array")
    if not np.all(np.isfinite(x_start)):
        raise ValueError("x_start must be finite")
    if lam_end == lam_start or x_start.size == 0:
        return x_start.copy()

    def rhs(lam, x, out=None):
        if not np.isfinite(x).all():
            raise ConvergenceError("reference integration reached a non-finite state")
        c = sched.dlog_alpha_dlambda(lam)[:, None]
        sigma = sched.sigma_lambda(lam)[:, None]
        eps = model.eps(sched, x, lam)
        out = np.multiply(c, x, out=out)
        out -= sigma * eps
        if not np.isfinite(out).all():
            raise ConvergenceError("reference integration reached a non-finite right-hand side")
        return out

    y = x_start.reshape(-1, x_start.shape[-1])
    out = np.empty_like(y)
    rows = np.arange(len(y))  # the active rows' indices into out
    lam = np.full(len(y), float(lam_start))
    rejected = np.zeros(len(y), dtype=bool)  # the row's last attempt was rejected
    # non-finite values are caught by the checks, not reported as warnings
    with np.errstate(all="ignore"):
        f = rhs(lam, y)
        h_abs = _initial_step(rhs, lam, y, f, lam_end - lam_start, tol)
        for _ in range(REFERENCE_MAX_STEPS):
            min_step = 10.0 * np.abs(np.nextafter(lam, np.inf) - lam)
            h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
            too_small = h_abs < min_step
            if too_small.any():
                at = np.argmax(too_small)
                raise ConvergenceError(
                    f"reference step fell below {min_step[at]:.3g} at lambda={lam[at]!r}"
                    f" on row {rows[at]}"
                )
            # the stages' lambdas, then the step's end
            stage_lam = np.empty((len(_C), len(lam)))
            lam_new = np.minimum(lam + h_abs, lam_end, out=stage_lam[-1])
            h = lam_new - lam
            h_col = h[:, None]
            np.multiply(_NODES, h, out=stage_lam[:-1])
            stage_lam[:-1] += lam
            sums = np.empty((len(_SUMS),) + y.shape)
            products, k_stage = np.empty_like(sums), np.empty_like(y)
            np.multiply(_STAGE_COLUMNS[0][2], f, out=sums)
            for k, (lo, hi, coef) in enumerate(_STAGE_COLUMNS[1:], start=1):
                state = sums[k - 1]  # stage k's sum is complete: it turns into y + h sum
                state *= h_col
                state += y
                rhs(stage_lam[k - 1], state, out=k_stage)
                sums[lo:hi] += np.multiply(coef, k_stage, out=products[lo:hi])
            y_new = sums[_B_ROW]
            y_new *= h_col
            y_new += y
            f_new = rhs(lam_new, y_new)

            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            err5 = _row_sq(np.divide(sums[_E5_ROW], scale, out=products[0]))
            err3 = _row_sq(np.divide(sums[_E3_ROW], scale, out=products[1]))
            error_norm = np.where(
                (err5 == 0) & (err3 == 0), 0.0, h * err5 / np.sqrt((err5 + 0.01 * err3) * y.shape[1])
            )
            if not np.isfinite(error_norm).all():
                raise ConvergenceError("reference integration's error estimate is not finite")
            accept = error_norm < 1
            growth = _SAFETY * error_norm**_ERROR_EXPONENT  # inf where the error is 0
            factor = np.where(
                accept, np.minimum(_MAX_FACTOR, growth), np.maximum(_MIN_FACTOR, growth)
            )
            # no growth on the step that follows a rejection
            h_abs = h * np.where(accept & rejected, np.minimum(1.0, factor), factor)
            rejected = ~accept
            lam = np.where(accept, lam_new, lam)
            y = np.where(accept[:, None], y_new, y)
            f = np.where(accept[:, None], f_new, f)

            done = accept & (lam_new == lam_end)
            if done.any():
                out[rows[done]] = y[done]
                keep = ~done
                if not keep.any():
                    return out.reshape(x_start.shape)
                rows, lam, y, f, h_abs, rejected = (
                    a[keep] for a in (rows, lam, y, f, h_abs, rejected)
                )
    raise ConvergenceError(f"reference integration took more than {REFERENCE_MAX_STEPS} steps")
