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
``eps`` and ``linearize`` take lambda as ``ModelSpec.eps`` states.  A 0-d
``x`` or a lambda outside that contract raises ValueError.
Evaluations are pure; RNG state is only consumed by the sampling helpers,
which take an explicit ``numpy.random.Generator``.

Layout.  ``GaussianMixture`` computes coordinate-major, on the rows of ``x``
as lanes that lambda broadcasts against: ``(N,)`` for one lambda or one per
row, ``(M, n)`` for an (M, 1) column, as a table build's.  The rows are read
as a ``(D,) + lanes`` view (no copy); the offsets x - alpha mu_i and the
component scores are ``(C, D) + lanes``, per-component terms ``(C,) +
lanes`` and a probe stack ``(Q, D) + lanes``, and the lambda-only terms
have lambda's own size.  With D and C at 2-4, the long last lane is then the
inner loop of every numpy call.  Sums over C or D add whole leading-axis
slices left to right (``_short_sum``, ``_short_dot``), in the order of a
row-major ``np.sum`` over the short axis, and the softmax's max takes
``np.maximum`` over component slices (``_short_max``), so the bits are those
of the row-major arithmetic, in any lanes.  Every output is a float64 array
of the caller's ``(..., D)`` shape that follows the input's layout: a view
of a C-contiguous ``(..., D) + lanes`` array for an input laid out so (as
the sampler's state and the estimator's blocks are), C-contiguous
otherwise.  The arithmetic is element-wise, so both layouts give the same
bits.

Buffers.  A mixture call writes into arrays it owns instead of taking a
fresh temporary per numpy call: the squared offsets are summed over D as
products into one ``(C,) + lanes`` array, in which the log-components, the
softmax and the posterior weights are then formed; the offsets turn into
the component scores in place; ``eps`` sums the weighted scores straight
into the returned array and scales them there, and the softmax's max and
sum borrow one of its rows first.  ``linearize`` takes its temporaries from
one fresh block, and its ``jvp`` takes its scratch from another and writes
into the product it returns.  Only operations whose bits IEEE arithmetic
fixes are reordered: ``+`` and ``*`` commuted, ``x * x`` for a square,
``out=`` forms of the same ufunc.

Sweeps.  Outside ``sweep_scope``, every output is a fresh array.
``estimate_table`` runs its blocks of grid points inside ``sweep_scope(K)``,
a context this module owns as ``np.errstate`` owns numpy's state.  On the
thread that entered it, the i-th mixture ``linearize`` call of each block
takes the scope's i-th slot.  A slot keeps what outlives its call, for the
next block of the same input shape and layout: eps, d_eps and the block
its ``jvp`` reads.  The call's temporaries and each ``jvp``'s scratch and
product are the call's own.  The ``jvp``'s block is the one that must
stay: taken afresh at every call, it made a second 60 x 4096 table build
fault its pages in again and again (about 12,000 minor faults against
about 200).  Every call has a slot of its own, so ``Guided(m, m)`` and a
user's wrapper alias nothing; a ``jvp`` whose slot a later call took raises
ValueError, and so does an ``x`` that lies in eps, d_eps or the ``jvp``'s
block of the slot its call takes.  The scope's state is the thread's own
(a ``threading.local``), so no other thread, and no copied context, sees
it.  The slots are dropped when the scope exits.

Memo.  The lambda-only terms (sigma, the component variances, alpha mu_i,
D log(2 pi var_i) and -var_i) are computed once per schedule object and
Python or NumPy float lambda and kept in a small memo on the model, which
is cleared when it holds ``_LAMBDA_MEMO_SIZE`` entries: a sampler run
evaluates the model at the same few lambdas again and again.  The
parameters are read-only copies, so no entry goes stale; a copy, pickle or
``replace`` rebuilds the model with an empty memo.  An array lambda, as a
table build's, computes its terms afresh and leaves the memo as it was.

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
import hashlib
import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, check_floats, check_members, check_real, is_real
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


def _broadcasts(shape, lead) -> bool:
    """Whether an array of ``shape`` broadcasts against ``lead`` without growing it."""
    return len(shape) <= len(lead) and all(
        s in (1, n) for s, n in zip(reversed(shape), reversed(lead))
    )


def _lanes(lam, lead):
    """``lam`` at its own size, and the rows of ``lead`` as the lanes it broadcasts against.

    A float comes back as it is, an array of one value (as a table build's
    block of one grid point) as a float and a lambda per row as ``(N,)``,
    all over lanes ``(N,)``.  An array that varies over ``lead``'s first k
    axes and not its other ones comes back as an ``(M, 1)`` column over
    lanes ``(M, n)``, M and n those axes' sizes.
    """
    if not isinstance(lam, np.ndarray):
        return lam, (math.prod(lead),)
    if lam.size == 1:
        return lam.item(), (math.prod(lead),)
    if lam.shape == lead:  # a lambda per row
        return lam.reshape(-1), (lam.size,)
    shape = (1,) * (len(lead) - lam.ndim) + lam.shape
    k = len(shape)
    while shape[k - 1] == 1:  # k > 0: the array holds more than one value
        k -= 1
    m, n = math.prod(lead[:k]), math.prod(lead[k:])
    if shape[:k] != lead[:k]:
        lam = np.broadcast_to(lam.reshape(shape), lead[:k] + shape[k:])
    return (lam.reshape(-1), (m,)) if n == 1 else (lam.reshape(m, 1), (m, n))


def _columns(a, lead, lanes):
    """A ``lead + (rows..., D)`` array as a ``lead + (D,) + lanes`` view."""
    cols = a.reshape(lead + lanes + a.shape[-1:]).swapaxes(-1, -2)
    return cols if len(lanes) == 1 else cols.swapaxes(-2, -3)


def _row_buffer(cols, shape, lanes):
    """A fresh float64 array of ``shape`` to return, and its ``(..., D) + lanes`` view to write into.

    ``cols`` is the input's ``_columns`` view.  When it is C-contiguous, the
    buffer is laid out as ``cols`` is, so the output keeps the input's
    layout; otherwise the returned array is C-contiguous.
    """
    if cols.flags.c_contiguous:
        buf = np.empty(cols.shape)
        out = buf if len(lanes) == 1 else buf.swapaxes(-3, -2)
        return out.swapaxes(-2, -1).reshape(shape), buf  # the reshape only splits axes: a view
    out = np.empty(shape)
    return out, _columns(out, cols.shape[: cols.ndim - 1 - len(lanes)], lanes)


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


def _carve(shapes, mem=None):
    """C-contiguous float64 arrays of ``shapes``, laid end to end in the flat array ``mem``.

    Each starts at an even offset, so it keeps a fresh array's 16-byte
    alignment.  Without ``mem`` they share one fresh block.
    """
    sizes = [math.prod(shape) for shape in shapes]
    if mem is None:
        mem = np.empty(sum(size + size % 2 for size in sizes))
    arrays, start = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(mem[start : start + size].reshape(shape))
        start += size + size % 2
    return arrays


class _Workspace:
    """A sweep's slot: the ``linearize`` arrays that outlive a call, for one input shape and layout.

    ``owner`` is the token of the last call that took them, so the ``jvp``
    of an earlier call can tell that its arrays were reused.
    """

    __slots__ = ("key", "arrays", "memory", "owner")

    def __init__(self, key, arrays):
        self.key, self.arrays = key, arrays
        self.memory = (arrays[0], arrays[2], arrays[4].base)  # eps, d_eps and the jvp's block
        self.owner = None

    def holds(self, a) -> bool:
        """Whether ``a`` may share memory with the workspace's arrays."""
        return any(np.may_share_memory(a, m) for m in self.memory)


# The cap on a mixture's per-lambda memo, which is cleared when full.  A sampler
# run evaluates at most its NFE lambdas: sample-serial's 32 runs visit 30 in
# all, and a bench-convergence command up to 80.
_LAMBDA_MEMO_SIZE = 128
# The size of the mixture's (C, D) + lanes offsets up to which a temporary of
# their size costs less than the numpy calls that avoid it
_SMALL_CALL = 4096


class _Sweep:
    """One ``sweep_scope``'s ``_Workspace`` slots by index, taken in call order in each block."""

    __slots__ = ("slots", "taken")

    def __init__(self):
        self.slots, self.taken = {}, 0

    def next_block(self):
        """A block of grid points starts: its first ``linearize`` call takes the first slot again."""
        self.taken = 0


class _Scope(threading.local):
    """The sweep whose ``sweep_scope`` this thread is in, if any: each thread sees its own."""

    sweep = None


_SCOPE = _Scope()


@contextlib.contextmanager
def sweep_scope(n):
    """The context of a table build's sweep over its ``n`` samples: yields its ``_Sweep``.

    Inside it, numpy's ufunc buffer is clamped by ``row_buffers(n)``, and
    each mixture ``linearize`` call on the entering thread takes the next of
    the scope's slots; the caller calls ``next_block()`` as each block of
    grid points starts (see the module's "Sweeps." paragraph).  On exit or
    raise the slots go and the caller's numpy state comes back.
    """
    sweep, outer = _Sweep(), _SCOPE.sweep
    _SCOPE.sweep = sweep
    try:
        with row_buffers(n):
            yield sweep
    finally:
        _SCOPE.sweep = outer


class ModelSpec:
    """Base class for analytic noise predictors."""

    kind = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def eps(self, sched: Schedule, x, lam):
        """Noise prediction eps(x, lambda) = -sigma * grad log q_lambda(x).

        The lambda contract, which ``linearize`` shares: ``lam`` is a
        finite scalar, or an array that broadcasts against ``x.shape[:-1]``
        without growing it, such as one lambda per row or the ``(P, 1)``
        column of ``estimate_table``'s ``(P, K, D)`` blocks; any other
        raises ValueError.  Rows never mix: each row has the bits of a call
        at its own lambda alone.
        """
        raise NotImplementedError

    def linearize(self, sched: Schedule, x, lam):
        """eps at (x, lambda), its rate along the ODE, and its Jacobian: ``(eps, d_eps, jvp)``.

        ``estimate_table`` calls it plainly, ``linearize(sched, x, lam)``,
        once per block of P grid points, with ``(P, K, D)`` samples and the
        ``(P, 1)`` column of their lambdas (the contract of ``eps``), so a
        model that takes a scalar lambda only no longer builds a table.
        d_eps = (d/dlambda) eps + J (c x - sigma eps), where J = grad_x eps
        and c = dlog alpha/dlambda: the rate at which eps changes on the
        probability-flow trajectory through (x, lambda).  ``jvp(v)`` is the
        exact product J v; ``v`` may carry extra leading axes, as a stack of
        probes does.  All closed form, from one evaluation of the model.

        The returned ``eps`` and ``d_eps``, and each product ``jvp`` returns,
        are the caller's to overwrite: ``jvp`` never reads them.  Inside
        ``sweep_scope``, the package's mixtures reuse eps and d_eps at the
        next block, so a wrapper keeps neither past its own call.  The
        sweep also clamps numpy's buffer (``row_buffers(K)``): a reduction
        that numpy buffers, such as a sum that casts its input, then adds
        blocks of K rounded up to a multiple of 16, and may differ in its
        last bits from the same call outside the sweep.
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

    def _check_input(self, x, lam):
        """``(_check_x(x), lam)``, with ``lam`` held to ``eps``'s contract; an array as float64.

        A real scalar comes back as it is.  A lambda that is not real (a
        string, None, a complex or bool value or array) raises ValueError,
        never a TypeError or a discarded imaginary part.
        """
        # a Python or NumPy float64, as a sampler's, takes the first test alone
        if isinstance(lam, float) or is_real(lam):
            if not math.isfinite(lam):
                raise ValueError(f"lambda must be finite, got {lam}")
            return self._check_x(x), lam
        x, lams = self._check_x(x), np.asarray(lam)
        if lams.dtype.kind not in "iuf":
            raise ValueError(f"lambda must be real, got {lam!r}")
        lam, lead = lams.astype(float, copy=False), x.shape[:-1]
        one = lam.size == 1  # as a table build's block of one grid point: checked as a float
        if not (lam.ndim <= len(lead) if one else _broadcasts(lam.shape, lead)):
            raise ValueError(
                f"lambda has shape {lam.shape}, expected a scalar or a shape that broadcasts"
                f" against {lead}"
            )
        if not (math.isfinite(lam.item()) if one else np.isfinite(lam).all()):
            raise ValueError("lambda must be finite")
        return x, lam

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
        x, lam = self._check_input(x, lam)
        alpha = sched.alpha_lambda(lam)[..., None]
        sigma = sched.sigma_lambda(lam)[..., None]
        return (x - alpha * self.x0) / sigma

    def linearize(self, sched, x, lam):
        # (x - alpha x0) / sigma is constant along every trajectory
        x, lam = self._check_input(x, lam)
        eps = self.eps(sched, x, lam)
        sigma = sched.sigma_lambda(lam)[..., None]

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
        # the coordinate-major constants of the arithmetic, against (N,) lanes
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

    def _lambda_terms(self, sched, lam, memo):
        """The lambda-only terms: sigma, var_i, alpha mu_i, D log(2 pi var_i) and -var_i.

        At lambda's own size (see ``_lanes``): for one lambda a scalar
        sigma, then (C, 1), (C, D, 1), (C, 1) and (C, 1, 1) arrays, with
        (N,) or (M, 1) for the 1 for a lambda per row or a column.  With
        ``memo``, a scalar's are read from the model's memo, keyed on the
        schedule object's identity and ``float(lam)``; an entry holds its
        schedule, so a key never outlives the object it names, and a full
        memo is cleared.  ``np.float_power`` squares with the C library's
        ``pow``, so each lambda's terms have its bits alone; ``np.square``
        differs from ``pow`` in the last bit for about 0.1% of inputs.
        """
        if memo:
            key = (id(sched), float(lam))
            hit = self._memo.get(key)
            if hit is not None and hit[0] is sched:
                return hit[1]
        alpha, sigma = sched.alpha_lambda(lam), sched.sigma_lambda(lam)
        stds_sq, means = self._stds_sq, self._means
        if isinstance(lam, np.ndarray) and lam.ndim == 2:  # an (M, 1) column: lanes (M, n)
            stds_sq, means = stds_sq[:, None], means[..., None]
        var = np.float_power(alpha, 2.0) * stds_sq + np.float_power(sigma, 2.0)
        log_norm = self.dim * np.log(2.0 * np.pi * var)
        terms = sigma, var, alpha * means, log_norm, -var[:, None]
        if memo:
            if len(self._memo) >= _LAMBDA_MEMO_SIZE:
                self._memo.clear()
            self._memo[key] = sched, terms
        return terms

    def _posterior(self, sq, var, log_norm, row):
        """Posterior weights pi_i(x), (C,) + lanes, formed in the memory of ``sq`` = |x - alpha mu_i|^2.

        log w_i N_i(x) = log w_i - (D log(2 pi var_i) + sq_i / var_i) / 2, then a
        softmax over the components, whose max and sum take the lanes' array ``row``.
        """
        sq /= var
        sq += log_norm
        sq *= 0.5
        log_weights = self._log_weights if sq.ndim == 2 else self._log_weights[:, None]
        np.subtract(log_weights, sq, out=sq)
        sq -= _short_max(sq, out=row)
        np.exp(sq, out=sq)
        sq /= _short_sum(sq, out=row)
        return sq

    @staticmethod
    def _offsets(xt, alpha_means, diff=None, sq=None, scratch=None):
        """The offsets x - alpha mu_i, (C, D) + lanes, and their squared norms, (C,) + lanes.

        The squares are summed over D left to right, as a row-major ``np.sum``
        adds them.  A large call forms them as products into the norms, with
        no (C, D) + lanes temporary; a small one squares the offsets in one
        call, which costs fewer numpy calls than D products.  Written into
        ``diff`` and ``sq`` if given; a large call's products go to the (C,)
        + lanes array ``scratch`` if given.
        """
        # order="C": by default a ufunc's output would follow the strided x.T,
        # and the squares' would follow diff, whose (C,) + lanes slices are strided
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
        is (D,) + lanes or a (Q, D) + lanes probe stack, and ``weights`` (C,)
        + lanes or (Q, C) + lanes; ``work`` is a scratch of ``out``'s shape,
        and ``gbar . v`` is formed in ``gbar_v``, lanes or (Q,) + lanes.
        """
        if v.ndim > mean_score.ndim:  # a probe stack: C, and D, go in front of its axis
            by_comp, by_coord = weights.swapaxes(0, 1)[:, :, None], v.swapaxes(0, 1)
            work_row, gbar_v_col = work[:, 0], gbar_v[:, None]
        else:
            by_comp, by_coord = weights[:, None], v
            work_row, gbar_v_col = work[0], gbar_v[None]
        _short_dot(by_comp, comp_score, out=out, scratch=work)
        _short_dot(mean_score, by_coord, out=gbar_v, scratch=work_row)
        out -= np.multiply(mean_score, gbar_v_col, out=work)
        out -= np.multiply(pi_over_var, v, out=work)
        return out

    def eps(self, sched, x, lam):
        x, lam = self._check_input(x, lam)
        memo = not isinstance(lam, np.ndarray)  # a scalar the caller passed
        lam, lanes = _lanes(lam, x.shape[:-1])
        sigma, var, alpha_means, log_norm, neg_var = self._lambda_terms(sched, lam, memo)
        xt = _columns(x, (), lanes)
        # the result before the temporaries: allocated after them, a sampler's
        # kept result would sit above the offsets' freed block, and the solver's
        # arrays splitting that hole grew a batch run's heap by one more block
        out, out_t = _row_buffer(xt, x.shape, lanes)
        scratch = None
        if len(var) * out_t.size > _SMALL_CALL and len(var) <= len(out_t):
            # out's memory is free until the last steps: a large call's products go there
            scratch = _carve([(len(var),) + lanes], out_t.ravel(order="K"))[0]
        diff, sq = self._offsets(xt, alpha_means, scratch=scratch)
        pi = self._posterior(sq, var, log_norm, out_t[0])  # a row of out, written last
        # diff turns into the component scores grad log N_i = -diff / var_i, then pi_i times them
        np.divide(diff, neg_var, out=diff)
        diff *= pi[:, None]
        _short_sum(diff, out=out_t)
        out_t *= -sigma
        return out

    def _linearize_arrays(self, xt, shape):
        """The arrays that outlive a ``linearize`` call on ``xt``, an ``x`` of ``shape`` as ``(D,) + lanes``.

        In order: eps and d_eps, each with its (D,) + lanes view, then the
        block that the call's ``jvp`` reads: the offsets (C, D) + lanes,
        their squared norms (C,) + lanes, the mean score (D,) + lanes and
        sum_i pi_i / var_i, lanes.  These are three allocations where one
        would do.  A slot of one block, freed when a table build ends,
        raised glibc's dynamic trim threshold (twice the largest mapped
        chunk freed) above all that the build frees, so the heap was never
        trimmed after a build, and a benchmark process's peak resident
        memory read 1.5-2% higher.
        """
        num_comp, dim, lanes = len(self.weights), xt.shape[0], xt.shape[1:]
        kept = _carve([(num_comp, dim, *lanes), (num_comp, *lanes), (dim, *lanes), lanes])
        return (*_row_buffer(xt, shape, lanes), *_row_buffer(xt, shape, lanes), *kept)

    def _workspace(self, sweep, xt, shape):
        """The sweep's next slot with this input's arrays, refilled for a new shape or layout."""
        key = (len(self.weights), shape, xt.shape, xt.flags.c_contiguous)
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
        x, lam = self._check_input(x, lam)
        memo = not isinstance(lam, np.ndarray)  # a scalar the caller passed
        lam, lanes = _lanes(lam, x.shape[:-1])
        sigma, var, alpha_means, log_norm, neg_var = self._lambda_terms(sched, lam, memo)
        c = sched.dlog_alpha_dlambda(lam)
        sigma_sq = np.float_power(sigma, 2.0)  # pow's bits, as the terms' squares
        xt = _columns(x, (), lanes)
        sweep = _SCOPE.sweep
        if sweep is None:
            ws = token = None
            arrays = self._linearize_arrays(xt, x.shape)
        else:
            ws = self._workspace(sweep, xt, x.shape)
            arrays = ws.arrays
            ws.owner = token = object()
        eps, eps_t, d_eps, d_eps_t, diff, sq, mean_score, pi_over_var = arrays
        # the temporaries, allocated after the arrays that outlive the call
        work, velocity, a, scratch, weights = _carve([xt.shape] * 2 + [sq.shape] * 3)
        diff, sq = self._offsets(xt, alpha_means, diff, sq, scratch=a)
        # lambda-partials at fixed x, from alpha mu_i = x + var_i g_i and
        # dvar_i = rate_i var_i (dalpha = c alpha, dsigma = (c - 1) sigma):
        #   dlog N_i = a_i - c g_i . x,  a_i = -sigma^2 |g_i|^2 - rate_i D / 2,
        #   dpi_i = pi_i (dlog N_i - sum_j pi_j dlog N_j),
        #   dg_i = c (g_i + x / var_i) - rate_i g_i.
        # d_eps = (c - 1) eps - sigma (sum_i (dpi_i g_i + pi_i dg_i) + H v).  In
        # the weights of the g_i, the Jacobian's g_i . v = c g_i . x +
        # sigma^2 g_i . gbar cancels the c g_i . x of dlog N_i.
        rate = 2.0 * c - 2.0 * sigma_sq / var
        # |g_i|^2 = sq_i / var_i^2: a_i, before sq turns into pi
        np.multiply(sq, -sigma_sq, out=a)
        a /= var**2
        a -= 0.5 * self.dim * rate
        pi = self._posterior(sq, var, log_norm, d_eps_t[0])  # a row of d_eps, written last
        comp_score = np.divide(diff, neg_var, out=diff)
        _short_dot(pi[:, None], comp_score, out=mean_score, scratch=work)
        np.multiply(mean_score, -sigma, out=eps_t)
        _short_dot(comp_score.swapaxes(0, 1), mean_score[:, None], out=weights, scratch=scratch)
        weights *= sigma_sq
        # the lanes' dot products go to a row of velocity, which is not in use yet
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
            vt = _columns(np.broadcast_to(v, shape), probes, lanes)  # (Q, D) + lanes
            by_coord = vt.swapaxes(0, 1)[:, :, None]  # (D, Q, 1) + lanes
            # the product first: an array that outlives a call goes before its temporaries
            out, out_t = _row_buffer(vt, shape, lanes)
            # the dot products' scratch (which then holds gbar . v), the dots and a scratch
            scratch, dots, work = _carve([probes + pi.shape] * 2 + [vt.shape])
            _short_dot(comp_score.swapaxes(0, 1), by_coord, out=dots, scratch=scratch)  # (Q, C) + lanes
            dots *= pi
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
        gap = (sched.sigma_lambda(lam)[..., None] * s * (1.0 - s)) * (eps_c - eps_u)
        d_eps = s * d_c + (1.0 - s) * d_u + jvp_c(gap) - jvp_u(gap)

        def apply_jacobian(v):
            return s * jvp_c(v) + (1.0 - s) * jvp_u(v)

        return eps, d_eps, apply_jacobian

    def sample_data(self, rng, n):
        check_members(self.cond, "cond model", ("sample_data",))
        return self.cond.sample_data(rng, n)

    def to_dict(self):
        for part in (self.cond, self.uncond):
            check_members(part, "model", ("to_dict",))
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
