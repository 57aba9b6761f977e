import contextvars
import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emsolve import (
    DomainError,
    EmsConfig,
    EmsTable,
    GaussianMixture,
    Guided,
    SolverConfig,
    TableFormatError,
    UnsupportedVersionError,
    build_integral_table,
    degenerate_table,
    estimate_table,
    load_table,
    make_time_grid,
    multistep_sample,
    save_table,
    singlestep_sample,
)
from emsolve.ems import (
    _BLOCK_SAMPLES, DATA_PRED, NOISE_PRED, _point_stats, diag_estimate, diag_probe_terms,
    estimate_l_dot,
)
from emsolve import models
from emsolve.models import ModelSpec
from emsolve.schedule import EDM, UNIFORM_LAMBDA, VP_COSINE, VP_LINEAR, Schedule

from oracles import (
    block_layout,
    eps_along_ode,
    estimate_sb,
    eval_f,
    eval_f1,
    forward_diffuse,
    jvp,
    pointwise_table,
    reference_states,
)


class ConstantModel(ModelSpec):
    """eps(x, lambda) = const: zero Jacobian everywhere."""

    kind = "constant"

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    @property
    def dim(self):
        return self.value.size

    def eps(self, sched, x, lam):
        return np.broadcast_to(self.value, np.shape(x)).copy()

    def linearize(self, sched, x, lam):
        eps = self.eps(sched, x, lam)
        return eps, np.zeros_like(eps), lambda v: np.zeros_like(np.asarray(v, dtype=float))

    def sample_data(self, rng, n):
        return rng.standard_normal((n, self.dim))

    def to_dict(self):
        return {"kind": self.kind, "value": self.value.tolist()}


def exact_diag(model, sched, lam, xs):
    """sigma * diagonal of grad eps via basis-vector JVPs (independent oracle)."""
    dim = xs.shape[-1]
    sigma = float(sched.sigma_lambda(lam))
    cols = []
    for d in range(dim):
        e = np.zeros(dim)
        e[d] = 1.0
        cols.append(sigma * jvp(model, sched, xs, lam, np.broadcast_to(e, xs.shape))[..., d])
    return np.stack(cols, axis=-1)


# -- stochastic diagonal estimator ------------------------------------------------


def table_datapoints(model, sched, cfg, lam):
    """The diffused points ``estimate_table`` transports to ``lam`` (its common random numbers)."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x0 = model.sample_data(rng, cfg.num_datapoints)
    z = rng.standard_normal(x0.shape)
    return sched.alpha_lambda(lam) * x0 + sched.sigma_lambda(lam) * z


def test_estimate_l_point_gaussian_exact(vp, pg4):
    cfg = EmsConfig(num_timesteps=8, num_datapoints=32, lam_range=(-1.0, 0.7), seed=0)
    table = estimate_table(pg4, vp, cfg)
    # sigma * grad eps = I, so every Rademacher probe contributes exactly 1
    assert np.max(np.abs(table.l - 1.0)) < 1e-14


def test_estimate_l_zero_jacobian(vp):
    model = ConstantModel([0.5, -1.0, 2.0])
    cfg = EmsConfig(num_timesteps=4, num_datapoints=16, lam_range=(-1.0, 1.0), seed=1)
    table = estimate_table(model, vp, cfg)
    assert np.array_equal(table.l, np.zeros((5, 3)))
    probes = np.where(np.random.default_rng(1).random((2, 16, 3)) < 0.5, -1.0, 1.0)
    x = np.ones((16, 3))
    terms = diag_probe_terms(vp.sigma_lambda(0.0), jvp(model, vp, x, 0.0, probes), probes)
    assert np.array_equal(terms, np.zeros((2, 16, 3)))


def test_estimate_l_within_three_standard_errors(vp, mix4):
    rng = np.random.default_rng(2)
    lam = 0.4
    k = 4096
    xs = forward_diffuse(vp, mix4.sample_data(rng, k), lam, rng)
    probe_rng = np.random.default_rng(3)
    v = (probe_rng.integers(0, 2, size=(1,) + xs.shape) * 2 - 1).astype(float)
    terms = diag_probe_terms(vp.sigma_lambda(lam), jvp(mix4, vp, xs, lam, v), v)[0]
    oracle = exact_diag(mix4, vp, lam, xs)
    resid = terms - oracle  # probe noise only: the datapoints are shared
    se = resid.std(axis=0, ddof=1) / np.sqrt(k)
    assert np.all(np.abs(resid.mean(axis=0)) <= 3 * se)


def test_estimate_l_unbiased_over_seeds(vp, mix4):
    lam = -0.5
    diffs = []
    for seed in range(400):
        cfg = EmsConfig(num_timesteps=1, num_datapoints=256, lam_range=(lam, 0.0), seed=100 + seed)
        est = estimate_table(mix4, vp, cfg).l[0]
        xs = table_datapoints(mix4, vp, cfg, lam)
        diffs.append(est - exact_diag(mix4, vp, lam, xs).mean(axis=0))
    diffs = np.array(diffs)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(len(diffs))
    assert np.all(np.abs(diffs.mean(axis=0)) <= 3 * se)


def test_ems_config_holds_its_checked_lam_range():
    cfg = EmsConfig(num_timesteps=4, num_datapoints=16, lam_range=[-1.0, 1.0])
    assert cfg.lam_range == (-1.0, 1.0) and type(cfg.lam_range) is tuple
    want = EmsConfig(4, 16, (-1.0, 1.0))
    assert cfg == want and hash(cfg) == hash(want) and repr(cfg) == repr(want)


def test_estimate_l_empty_datapoints(vp, mix4):
    with pytest.raises(ValueError, match="num_datapoints"):
        EmsConfig(num_timesteps=4, num_datapoints=0, lam_range=(-1.0, 1.0))


def test_chunked_reduction_matches_serial(vp, mix4):
    rng = np.random.default_rng(4)
    xs = forward_diffuse(vp, mix4.sample_data(rng, 512), 0.2, rng)
    v = (rng.integers(0, 2, size=(2,) + xs.shape) * 2 - 1).astype(float)
    terms = diag_probe_terms(vp.sigma_lambda(0.2), jvp(mix4, vp, xs, 0.2, v), v)
    serial = diag_estimate(terms)
    chunks = [terms[:, i : i + 128] for i in range(0, 512, 128)]
    partial = sum(c.sum(axis=(0, 1)) for c in reversed(chunks))
    parallel = partial / (2 * 512)
    assert np.max(np.abs(serial - parallel)) < 1e-10


def test_diag_estimate_has_the_same_bytes_in_every_layout(vp, mix4):
    rng = np.random.default_rng(5)
    xs = forward_diffuse(vp, mix4.sample_data(rng, 300), 0.2, rng)
    v = (rng.integers(0, 2, size=(2,) + xs.shape) * 2 - 1).astype(float)
    row_major = diag_probe_terms(vp.sigma_lambda(0.2), jvp(mix4, vp, xs, 0.2, v), v)
    coord_major = np.ascontiguousarray(row_major.swapaxes(-1, -2)).swapaxes(-1, -2)
    want = diag_estimate(row_major)
    strided = np.repeat(row_major, 2, axis=1)[:, ::2]
    for terms in (coord_major, np.asfortranarray(row_major), strided):
        assert diag_estimate(terms).tobytes() == want.tobytes()
    # each probe's K terms of a coordinate are one contiguous row sum; the probes add in order
    rows = coord_major.swapaxes(-1, -2)
    assert want.tobytes() == ((rows[0].sum(axis=-1) + rows[1].sum(axis=-1)) / 600).tobytes()


# the sweep's l against a long-double mean of the same probe terms, relative
# to max|l|, at K=4096: a pairwise row sum measured <= 1.6e-16 over these
# lambdas on three seeds, one or two probes; a sequential sum over K 5e-16 to
# 6e-15 per lambda, and >= 1.9e-15 at the worst of these four
L_LONG_DOUBLE_TOLERANCE = 5e-16


@pytest.mark.parametrize("probes_per_point", [1, 2])
def test_sweep_l_matches_a_long_double_mean(vp, mix4, probes_per_point):
    cfg = EmsConfig(3, 4096, (-3.0, 3.0), probes_per_point=probes_per_point, seed=9)
    table = estimate_table(mix4, vp, cfg)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x0 = mix4.sample_data(rng, cfg.num_datapoints)
    rng.standard_normal(x0.shape)
    probes = (rng.integers(0, 2, size=(probes_per_point,) + x0.shape) * 2 - 1).astype(float)
    rels = []
    for lam, got in zip(table.lambda_grid, table.l):
        xs = table_datapoints(mix4, vp, cfg, lam)
        terms = diag_probe_terms(vp.sigma_lambda(lam), jvp(mix4, vp, xs, lam, probes), probes)
        want = terms.astype(np.longdouble).mean(axis=(0, 1))
        rels.append(float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert max(rels) <= L_LONG_DOUBLE_TOLERANCE, rels


# -- slope of l --------------------------------------------------------------------


def test_estimate_l_dot_constant():
    values = np.ones((11, 3))
    assert np.array_equal(estimate_l_dot(values, 0.1), np.zeros((11, 3)))


def test_estimate_l_dot_affine_exact():
    grid = np.linspace(0.0, 1.0, 21)
    slope = np.array([2.0, -0.5])
    values = grid[:, None] * slope
    got = estimate_l_dot(values, float(grid[1] - grid[0]))
    assert np.max(np.abs(got - slope)) < 1e-10


def test_estimate_l_dot_quadratic_exact_cubic_second_order():
    # second-order stencils differentiate quadratics exactly; the O(h^2)
    # remainder shows up from cubics onward with the classic ratio-4 halving
    def errs(n, f, df):
        grid = np.linspace(-1.0, 1.0, n + 1)
        got = estimate_l_dot(f(grid)[:, None], float(grid[1] - grid[0]))
        return np.max(np.abs(got[:, 0] - df(grid)))

    assert errs(40, lambda g: g**2, lambda g: 2 * g) < 1e-12
    e1 = errs(40, lambda g: g**3, lambda g: 3 * g**2)
    e2 = errs(80, lambda g: g**3, lambda g: 3 * g**2)
    assert e1 / e2 == pytest.approx(4.0, abs=0.5)


# -- the reparameterized nonlinearity and its derivative -----------------------------


def test_eval_f_zero_l_is_scaled_eps(vp, mix4, vp_lam_range):
    table = degenerate_table(NOISE_PRED, vp, 50, vp_lam_range, 4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4)
    lam = float(table.lambda_grid[20])
    want = np.exp(-lam) * mix4.eps(vp, x, lam)
    assert np.allclose(eval_f(mix4, vp, table, x, lam), want, atol=1e-12)


def test_eval_f_data_pred_point_mass_constant(vp, pg4, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 50, vp_lam_range, 4)
    rng = np.random.default_rng(6)
    for j in (0, 17, 50):
        x = rng.standard_normal(4) * 3.0
        got = eval_f(pg4, vp, table, x, float(table.lambda_grid[j]))
        assert np.allclose(got, -pg4.x0, atol=1e-10)


def test_eval_f_at_origin(vp, mix4, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 50, vp_lam_range, 4)
    lam = float(table.lambda_grid[25])
    want = vp.sigma_lambda(lam) * mix4.eps(vp, np.zeros(4), lam) / vp.alpha_lambda(lam)
    assert np.allclose(eval_f(mix4, vp, table, np.zeros(4), lam), want, atol=1e-12)


def test_eval_f1_point_mass_data_pred_vanishes(vp, pg4, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 50, vp_lam_range, 4)
    rng = np.random.default_rng(7)
    for j in (3, 25, 47):
        x = rng.standard_normal(4)
        got = eval_f1(pg4, vp, table, x, float(table.lambda_grid[j]))
        assert np.max(np.abs(got)) < 1e-8


def test_eval_f1_matches_trajectory_finite_difference(vp, mix4):
    # grid spacing exactly 1e-4 so the stencil's neighbors are grid points
    lam_c = 0.3
    cfg = EmsConfig(
        num_timesteps=200, num_datapoints=256, lam_range=(lam_c - 0.01, lam_c + 0.01), seed=8
    )
    table = estimate_table(mix4, vp, cfg)
    j = 100
    h = table.spacing
    lam_lo = float(table.lambda_grid[j - 1])
    rng = np.random.default_rng(9)
    x_lo = forward_diffuse(vp, mix4.sample_data(rng, 1)[0], lam_lo, rng)
    states = reference_states(
        mix4, vp, x_lo, lam_lo, table.lambda_grid[j - 1 : j + 2], tol=1e-12
    )
    fd = (
        eval_f(mix4, vp, table, states[2], float(table.lambda_grid[j + 1]))
        - eval_f(mix4, vp, table, states[0], lam_lo)
    ) / (2 * h)
    got = eval_f1(mix4, vp, table, states[1], float(table.lambda_grid[j]))
    assert np.max(np.abs(got - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-5


# -- least-squares fit ---------------------------------------------------------------


def test_estimate_sb_exact_linear_fit():
    rng = np.random.default_rng(10)
    f = rng.standard_normal((64, 3))
    c, d = np.array([1.5, -2.0, 0.25]), np.array([0.1, 0.0, -3.0])
    s, b = estimate_sb(f, c * f + d)
    # hand evaluation of the floored fit: s = c var f / (var f + floor)
    var_f = f.var(axis=0)
    floor = 1e-8 * (f * f).mean(axis=0) + 1e-20
    want_s = c * var_f / (var_f + floor)
    assert np.max(np.abs(s - want_s)) < 1e-10
    assert np.max(np.abs(b - (d + (c - want_s) * f.mean(axis=0)))) < 1e-10


def test_estimate_sb_degenerate_constant_f():
    f = np.tile([2.0, -1.0], (32, 1))
    rng = np.random.default_rng(11)
    f1 = rng.standard_normal((32, 2))
    s, b = estimate_sb(f, f1)
    # hand evaluation: zero variance, floored denominator, intercept = mean(f1)
    mff = (f * f).mean(axis=0)
    floor = 1e-8 * mff + 1e-20
    num = (f * f1).mean(axis=0) - f.mean(axis=0) * f1.mean(axis=0)
    assert np.allclose(s, num / floor, atol=1e-12)
    assert np.max(np.abs(s)) < 1e-4
    assert np.allclose(b, f1.mean(axis=0) - s * f.mean(axis=0), atol=1e-12)


def test_estimate_sb_single_sample():
    f = np.array([[3.0, -1.0]])
    f1 = np.array([[0.5, 2.0]])
    s, b = estimate_sb(f, f1)
    assert np.array_equal(s, np.zeros(2))
    assert np.array_equal(b, f1[0])


def test_estimate_sb_first_order_optimality():
    rng = np.random.default_rng(12)
    f = rng.standard_normal((200, 3))
    f1 = 0.7 * f + 0.2 + 0.5 * rng.standard_normal((200, 3))
    s, b = estimate_sb(f, f1)

    def msr(sv, bv):
        return ((f1 - sv * f - bv) ** 2).mean(axis=0)

    base = msr(s, b)
    for d in range(3):
        for sign in (+1.0, -1.0):
            e = np.zeros(3)
            e[d] = sign * 1e-3
            assert np.all(msr(s + e, b) >= base - 1e-15)
            assert np.all(msr(s, b + e) >= base - 1e-15)


def test_estimate_sb_shape_errors():
    with pytest.raises(ValueError):
        estimate_sb(np.zeros((4, 2)), np.zeros((3, 2)))


# -- full pipeline ---------------------------------------------------------------------


class CallCounter(ModelSpec):
    """Delegate that counts every model method called on it, by name, and each ``jvp`` applied."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    @property
    def dim(self):
        return self.inner.dim

    def _call(self, name, *args, **kwargs):
        self.calls[name] += 1
        return getattr(self.inner, name)(*args, **kwargs)

    def eps(self, sched, x, lam):
        return self._call("eps", sched, x, lam)

    def linearize(self, sched, x, lam):
        eps, d_eps, apply_jacobian = self._call("linearize", sched, x, lam)

        def counted_jvp(v):
            self.calls["jvp"] += 1
            return apply_jacobian(v)

        return eps, d_eps, counted_jvp

    def sample_data(self, rng, n):
        return self.inner.sample_data(rng, n)

    def to_dict(self):
        return self.inner.to_dict()


def two_sweep_table(model, sched, cfg):
    """The two-sweep estimator (independent oracle): (grid, l, l_dot, s, b).

    A first sweep takes l from the model's JVPs at each grid point; after
    l's finite difference, a second sweep fits s and b to f and f1 samples
    from a second ``linearize`` call per grid point.
    """
    grid = np.linspace(*cfg.lam_range, cfg.num_timesteps + 1)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x0 = model.sample_data(rng, cfg.num_datapoints)
    z = rng.standard_normal(x0.shape)
    probes = (rng.integers(0, 2, size=(cfg.probes_per_point,) + x0.shape) * 2 - 1).astype(float)
    points = [sched.alpha_lambda(lam) * x0 + sched.sigma_lambda(lam) * z for lam in grid]
    l = np.array([
        diag_estimate(
            diag_probe_terms(sched.sigma_lambda(lam), jvp(model, sched, xs, lam, probes), probes)
        )
        for lam, xs in zip(grid, points)
    ])
    l_dot = estimate_l_dot(l, float((grid[-1] - grid[0]) / cfg.num_timesteps))
    s, b = np.empty_like(l), np.empty_like(l)
    for j, (lam, xs) in enumerate(zip(grid, points)):
        alpha, sigma = sched.alpha_lambda(lam), sched.sigma_lambda(lam)
        eps, d_eps = eps_along_ode(model, sched, xs, lam)
        f = (sigma * eps - l[j] * xs) / alpha
        f1 = np.exp(-lam) * ((l[j] - 1.0) * eps + d_eps) - l_dot[j] * xs / alpha
        s[j], b[j] = estimate_sb(f, f1)
    return grid, l, l_dot, s, b


def blocks(cfg):
    """The sizes of ``estimate_table``'s blocks of grid points for ``cfg``."""
    n_pts, size = cfg.num_timesteps + 1, max(1, _BLOCK_SAMPLES // cfg.num_datapoints)
    return [min(size, n_pts - start) for start in range(0, n_pts, size)]


@pytest.mark.parametrize("model_name", ["point-mass", "mixture"])
def test_estimate_table_makes_one_model_call_per_grid_point(vp, pg4, mix4, model_name):
    """At K = 4096 a block is one grid point."""
    counted = CallCounter({"point-mass": pg4, "mixture": mix4}[model_name])
    cfg = EmsConfig(num_timesteps=12, num_datapoints=4096, lam_range=(-2.0, 2.0), seed=3)
    estimate_table(counted, vp, cfg)
    assert counted.calls == {"linearize": 13, "jvp": 13}


@pytest.mark.parametrize(
    "num_datapoints, sizes",
    [(1, [13]), (32, [13]), (1000, [4, 4, 4, 1]), (1366, [2] * 6 + [1]), (2049, [1] * 13)],
)
@pytest.mark.parametrize("model_name", ["point-mass", "mixture"])
def test_estimate_table_makes_one_model_call_per_block(vp, pg4, mix4, model_name, num_datapoints, sizes):
    """Blocks of max(1, 4096 // K) grid points, the last one shorter; one call and one jvp each."""
    counted = CallCounter({"point-mass": pg4, "mixture": mix4}[model_name])
    cfg = EmsConfig(num_timesteps=12, num_datapoints=num_datapoints, lam_range=(-2.0, 2.0), seed=3)
    assert blocks(cfg) == sizes
    estimate_table(counted, vp, cfg)
    assert counted.calls == {"linearize": len(sizes), "jvp": len(sizes)}


class BlockRecorder(CallCounter):
    """A counting delegate that records where each call's arrays lie, and its ``jvp``'s block.

    ``shared`` records, per ``jvp`` product, whether it shares memory with the call's slot.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.seen, self.shared = [], []

    def linearize(self, sched, x, lam):
        eps, d_eps, apply_jacobian = super().linearize(sched, x, lam)
        sweep = models._SCOPE.sweep
        slot = sweep.slots[sweep.taken - 1]  # the one this call took

        def recorded_jvp(v):
            out = apply_jacobian(v)
            arrays = (x, eps, d_eps, slot.memory[2])
            self.seen.append(tuple(a.__array_interface__["data"][0] for a in arrays))
            self.shared.append(any(np.shares_memory(out, m) for m in slot.memory))
            return out

        return eps, d_eps, recorded_jvp


@pytest.mark.parametrize("guided", [False, True])
def test_a_sweep_reuses_one_workspace_at_every_point(vp, mix4, mix4b, guided):
    """Each mixture sees the same x, eps, d_eps and ``jvp`` block in every block of a size: one slot.

    13 points at K = 1024 make three blocks of 4 points, then one of 1,
    whose arrays are its own.  A guided pair forms its sums in fresh
    arrays; its parts, recorded here, each keep their own slot through the
    guidance gap's ``jvp`` and the probes'.  No J v product lies in a slot.
    """
    mixtures = [BlockRecorder(mix4), BlockRecorder(mix4b)] if guided else [BlockRecorder(mix4)]
    model = Guided(*mixtures, 2.5) if guided else mixtures[0]
    cfg = EmsConfig(num_timesteps=12, num_datapoints=1024, lam_range=(-2.0, 2.0), seed=3)
    assert blocks(cfg) == [4, 4, 4, 1]
    estimate_table(model, vp, cfg)
    per_block = 2 if guided else 1
    for recorder in mixtures:
        assert len(recorder.seen) == 4 * per_block
        assert len(set(recorder.seen[: 3 * per_block])) == 1
        assert recorder.seen[-1] not in recorder.seen[: 3 * per_block]
        assert recorder.shared == [False] * 4 * per_block


class SlotRecorder(CallCounter):
    """A counting delegate that records the sweep's slots as each call finds and leaves them."""

    def __init__(self, inner):
        super().__init__(inner)
        self.found, self.left = [], []

    def linearize(self, sched, x, lam):
        sweep = models._SCOPE.sweep
        self.found.append((sweep.taken, list(sweep.slots.values())))
        out = super().linearize(sched, x, lam)
        self.left.append((sweep.taken, list(sweep.slots.values())))
        return out


def test_the_sweeps_workspace_holds_only_the_models_entries(vp, mix4):
    """The sweep takes no slot itself: the model's call finds none taken in each block.

    Its slot keeps one set of arrays while the blocks keep their size, and
    the shorter last block refills it.
    """
    cfg = EmsConfig(num_timesteps=12, num_datapoints=1024, lam_range=(-2.0, 2.0), seed=3)
    model = SlotRecorder(mix4)
    assert table_bytes(estimate_table(model, vp, cfg)) == table_bytes(estimate_table(mix4, vp, cfg))
    assert model.found[0] == (0, []) and len(model.left) == len(blocks(cfg)) == 4
    (slot,) = model.left[0][1]
    assert model.found[1:] == [(0, [slot])] * 3 and model.left[:3] == [(1, [slot])] * 3
    (last,) = model.left[3][1]
    assert model.left[3][0] == 1 and last is not slot


def table_bytes(table):
    """The bytes of a table's arrays."""
    return [getattr(table, name).tobytes() for name in ("lambda_grid", "l", "s", "b", "l_dot")]


class Average:
    """A user's wrapper: the mean of two models' eps and d_eps, with the second's ``jvp`` alone.

    With ``copies`` it copies the first part's outputs before the second
    part's call; with ``both_jvps`` its ``jvp`` is the mean of both parts'.
    """

    kind = "average"

    def __init__(self, first, second, copies=False, both_jvps=False):
        self.first, self.second, self.copies, self.both_jvps = first, second, copies, both_jvps
        self.dim = first.dim

    def linearize(self, sched, x, lam):
        eps_a, d_a, jvp_a = self.first.linearize(sched, x, lam)
        if self.copies:
            eps_a, d_a = eps_a.copy(order="K"), d_a.copy(order="K")  # in their layout
        eps_b, d_b, jvp_b = self.second.linearize(sched, x, lam)
        if self.both_jvps:
            return 0.5 * (eps_a + eps_b), 0.5 * (d_a + d_b), lambda v: 0.5 * (jvp_a(v) + jvp_b(v))
        return 0.5 * (eps_a + eps_b), 0.5 * (d_a + d_b), jvp_b

    def sample_data(self, rng, n):
        return self.first.sample_data(rng, n)

    def to_dict(self):
        return {"kind": self.kind, "parts": [self.first.to_dict(), self.second.to_dict()]}


# a second two-component mixture: its arrays have the shapes of mix4's
MIX4_TWIN = GaussianMixture([0.7, 0.3], [[0.1, 0.2, -0.6, 0.3], [0.4, -0.5, 0.0, -0.2]], [0.6, 0.4])


@pytest.mark.parametrize("second", ["mix4b", "two-component"])
def test_a_wrapper_of_two_mixtures_builds_the_table_of_its_copying_twin(vp, mix4, mix4b, second):
    """Each part's call takes a slot of its own, so no part overwrites the other's outputs."""
    other = mix4b if second == "mix4b" else MIX4_TWIN
    cfg = EmsConfig(num_timesteps=8, num_datapoints=256, lam_range=(-2.0, 2.0), seed=1)
    want = estimate_table(Average(mix4, other, copies=True), vp, cfg)
    assert table_bytes(estimate_table(Average(mix4, other), vp, cfg)) == table_bytes(want)


def test_a_wrapper_that_returns_both_parts_jvps_builds(vp, mix4, mix4b):
    """Neither part's jvp finds its slot taken; the table is the two-sweep oracle's."""
    model = Average(mix4, mix4b, both_jvps=True)
    cfg = EmsConfig(num_timesteps=8, num_datapoints=256, lam_range=(-2.0, 2.0), seed=1)
    table = estimate_table(model, vp, cfg)
    grid, l, l_dot, s, b = two_sweep_table(model, vp, cfg)
    assert table.l.tobytes() == l.tobytes() and table.l_dot.tobytes() == l_dot.tobytes()
    for got, want in ((table.s, s), (table.b, b)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class Plain:
    """A delegate with ``linearize(sched, x, lam)`` and nothing of the package's."""

    kind = "plain"

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim

    def linearize(self, sched, x, lam):
        return self.inner.linearize(sched, x, lam)

    def sample_data(self, rng, n):
        return self.inner.sample_data(rng, n)

    def to_dict(self):
        return self.inner.to_dict()


def test_a_plain_delegate_builds_the_table_of_its_model(vp, mix4):
    cfg = EmsConfig(num_timesteps=12, num_datapoints=1024, lam_range=(-2.0, 2.0), seed=3)
    assert table_bytes(estimate_table(Plain(mix4), vp, cfg)) == table_bytes(
        estimate_table(mix4, vp, cfg)
    )


class OtherThread(Plain):
    """A delegate whose call at grid point ``point`` first runs its model on another thread.

    With ``copied``, that thread runs in a copy of the sweep's context, as
    ``asyncio.to_thread`` runs a call.  It records the sweep's slots taken
    and held around the thread's call, and whether the thread's outputs
    share memory with the sweep's call's.
    """

    def __init__(self, inner, point, copied):
        super().__init__(inner)
        self.calls, self.point, self.copied = 0, point, copied
        self.slots, self.shared = None, None

    def linearize(self, sched, x, lam):
        self.calls += 1
        if self.calls != self.point:
            return super().linearize(sched, x, lam)
        other = []

        def call(x):
            other.extend(self.inner.linearize(sched, x, lam))

        sweep = models._SCOPE.sweep
        before = sweep.taken, len(sweep.slots)
        run = contextvars.copy_context().run if self.copied else (lambda fn, arg: fn(arg))
        thread = threading.Thread(target=run, args=(call, x.copy()))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and len(other) == 3
        self.slots = before, (sweep.taken, len(sweep.slots))
        out = super().linearize(sched, x, lam)
        probe = np.ones((1,) + x.shape)
        ours, theirs = (out[:2] + (out[2](probe),)), (*other[:2], other[2](probe))
        self.shared = any(np.shares_memory(a, b) for a in ours for b in theirs)
        return out


@pytest.mark.parametrize("copied", [False, True])
def test_a_call_on_another_thread_takes_no_slot_of_the_sweep(vp, mix4, copied):
    """It gets fresh arrays, and the table keeps its bytes; call 3 is the third block of two points."""
    cfg = EmsConfig(num_timesteps=6, num_datapoints=2048, lam_range=(-2.0, 2.0), seed=3)
    assert blocks(cfg) == [2, 2, 2, 1]
    model = OtherThread(mix4, 3, copied)
    assert table_bytes(estimate_table(model, vp, cfg)) == table_bytes(
        estimate_table(mix4, vp, cfg)
    )
    assert model.slots == ((0, 1), (0, 1)) and model.shared is False


def test_tables_built_on_several_threads_at_once_keep_their_bytes(vp, mix4, mix4b):
    """Each thread's sweep scope is its own: four threads at once build the serial tables.

    41 points at K = 512 make five blocks of 8 and one of 1, so each slot
    is reused while the threads switch every 10 microseconds; three rounds.
    """
    pair = [mix4, Guided(mix4, mix4b, 2.5)]
    cfg = EmsConfig(num_timesteps=40, num_datapoints=512, lam_range=(-2.0, 2.0), seed=2)
    assert blocks(cfg) == [8] * 5 + [1]
    want = [table_bytes(estimate_table(model, vp, cfg)) for model in pair] * 2
    start = threading.Barrier(4)

    def build(i):
        start.wait(timeout=60)
        got[i] = table_bytes(estimate_table(pair[i % 2], vp, cfg))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            got = [None] * 4
            threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert got == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("fail_at", [None, 3])
def test_calls_after_a_sweep_get_fresh_arrays(vp, mix4, fail_at):
    """After ``estimate_table`` returns or raises, no call reuses another's memory."""
    cfg = EmsConfig(num_timesteps=4, num_datapoints=2048, lam_range=(-2.0, 2.0), seed=1)
    assert blocks(cfg) == [2, 2, 1]  # call 3 is the last block's
    if fail_at is None:
        estimate_table(mix4, vp, cfg)
    else:
        with pytest.raises(RuntimeError, match="model call 3 fails"):
            estimate_table(BufferSpy(mix4, fail_at), vp, cfg)
    assert models._SCOPE.sweep is None
    x = np.random.default_rng(0).standard_normal((256, 4))
    first, second = mix4.linearize(vp, x, 0.5), mix4.linearize(vp, x, 0.5)
    probe = np.ones((1, 256, 4))
    arrays = [(*out[:2], out[2](probe)) for out in (first, second)]
    assert not any(np.shares_memory(a, b) for a in arrays[0] for b in arrays[1])
    assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]]


@pytest.mark.parametrize("case", ["point-mass", "guided", "two-probes"])
def test_estimate_table_matches_two_sweep_oracle(vp, vp_lam_range, pg4, mix4, mix4b, case):
    guided = Guided(cond=mix4, uncond=mix4b, scale=2.5)
    model, cfg, floor = {
        # criterion 5's config; s and b are rounding noise there (|s| ~1e-18,
        # |b| ~1e-15), so they are held to 1e-12 of that criterion's 1e-6 bound
        "point-mass": (pg4, EmsConfig(48, 256, vp_lam_range, seed=21), 1e-6),
        "guided": (guided, EmsConfig(30, 128, vp_lam_range, seed=5), 0.0),
        "two-probes": (mix4, EmsConfig(30, 128, vp_lam_range, probes_per_point=2, seed=6), 0.0),
    }[case]
    table = estimate_table(model, vp, cfg)
    grid, l, l_dot, s, b = two_sweep_table(model, vp, cfg)
    assert table.lambda_grid.tobytes() == grid.tobytes()
    assert table.l.tobytes() == l.tobytes() and table.l_dot.tobytes() == l_dot.tobytes()
    for got, want in ((table.s, s), (table.b, b)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), floor)


# K with grids whose last block is partial where blocks hold more than one point:
# K = 1 takes the whole grid in one block, and K = 4096 one point per block
BLOCK_CASES = {1: 6, 63: 69, 64: 69, 100: 44, 1023: 6, 1024: 5, 1025: 6, 4096: 2}
BLOCK_MODELS = ["mixture", "guided", "guided-same", "point-mass"]


@pytest.mark.parametrize("name", BLOCK_MODELS)
@pytest.mark.parametrize("num_datapoints", sorted(BLOCK_CASES))
def test_blocked_tables_have_the_bytes_of_a_call_per_point(vp, pg4, mix4, mix4b, num_datapoints, name):
    """Every table array has the bits of the sweep with one scalar-lambda call per grid point.

    Each model meets 1, 2 and 3 probes over the K.
    """
    model = {
        "mixture": mix4,
        "guided": Guided(mix4, mix4b, 2.5),
        "guided-same": Guided(mix4, mix4, 7.5),
        "point-mass": pg4,
    }[name]
    num_probes = 1 + (sorted(BLOCK_CASES).index(num_datapoints) + BLOCK_MODELS.index(name)) % 3
    cfg = EmsConfig(
        BLOCK_CASES[num_datapoints], num_datapoints, (-3.0, 4.0), probes_per_point=num_probes, seed=4
    )
    sizes = blocks(cfg)
    assert len(sizes) == 1 or sizes[-1] < sizes[0] or sizes[0] == 1
    table = estimate_table(model, vp, cfg)
    grid, l, l_dot, s, b = pointwise_table(model, vp, cfg)
    assert table_bytes(table) == [a.tobytes() for a in (grid, l, s, b, l_dot)]


def longdouble_sb(model, sched, cfg, table):
    """s and b fitted in ``np.longdouble`` to the samples of ``table``'s sweep.

    f, r and y = x/alpha are formed in float64 from the table's own l, as
    the sweep forms them, so only the fit's arithmetic differs: centred
    moments and f1 = r - l_dot y, all in long double.
    """
    s = np.empty(table.l.shape, dtype=np.longdouble)
    b = np.empty_like(s)
    for j, lam in enumerate(table.lambda_grid):
        alpha, sigma = sched.alpha_lambda(lam), sched.sigma_lambda(lam)
        xs = table_datapoints(model, sched, cfg, lam)
        eps, d_eps, _ = model.linearize(sched, xs, lam)
        l_row = table.l[j]
        f = (sigma * eps - l_row * xs) / alpha
        r = np.exp(-lam) * ((l_row - 1.0) * eps + d_eps)
        f, r, y = (a.astype(np.longdouble) for a in (f, r, xs / alpha))
        f1 = r - table.l_dot[j].astype(np.longdouble) * y
        df, df1 = f - f.mean(axis=0), f1 - f1.mean(axis=0)
        var_f = (df * df).mean(axis=0)
        s[j] = (df * df1).mean(axis=0) / (var_f + 1e-8 * (var_f + f.mean(axis=0) ** 2) + 1e-20)
        b[j] = f1.mean(axis=0) - s[j] * f.mean(axis=0)
    return s, b


@pytest.mark.parametrize("case", ["golden", "guided", "guided-point-mass", "bench"])
def test_estimate_table_fit_matches_a_long_double_fit(vp, vp_lam_range, pg4, mix4, mix4b, case):
    # the golden table's config, the two-sweep oracle's guided case, a guided
    # pair whose f has a spread ~1e-4 of its mean at high lambda, and the
    # benchmark's table size; a fit from raw means, mean f^2 - (mean f)^2,
    # loses digits where f's spread is far below its mean (2.2e-8 of max|s|
    # on the third case)
    short = EmsConfig(30, 128, vp_lam_range, seed=5)
    model, cfg = {
        "golden": (mix4, EmsConfig(60, 256, vp_lam_range, seed=11)),
        "guided": (Guided(cond=mix4, uncond=mix4b, scale=2.5), short),
        "guided-point-mass": (Guided(cond=mix4, uncond=pg4, scale=2.5), short),
        "bench": (mix4, EmsConfig(240, 4096, vp_lam_range, seed=1)),
    }[case]
    table = estimate_table(model, vp, cfg)
    for name, got, want in zip("sb", (table.s, table.b), longdouble_sb(model, vp, cfg, table)):
        rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert rel <= 1e-12, (name, rel)


POINT_LAMBDAS = [-2.0, 1.0, 4.56, 6.5]


@pytest.mark.parametrize("lam", POINT_LAMBDAS)
def test_point_moments_match_long_double_on_their_own_scale(vp, pg4, mix4, lam):
    """Each point of one block of these four lambdas, against long double."""
    # at high lambda this guided pair's f and r spread ~1e-4 of their means;
    # a covariance with an uncentred r is then up to 6e-12 of std f * std r off
    model = Guided(cond=mix4, uncond=pg4, scale=2.5)
    rng = np.random.default_rng(3)
    x0 = model.sample_data(rng, 256)
    z = rng.standard_normal(x0.shape)
    probes = np.where(rng.random((1,) + x0.shape) < 0.5, -1.0, 1.0)
    x0_in, z_in = (np.ascontiguousarray(a.T).T for a in (x0, z))
    points = len(POINT_LAMBDAS)
    stack = block_layout(np.repeat(probes[:, None], points, axis=1))
    xs = block_layout(np.empty((points,) + x0.shape))
    lams = np.array(POINT_LAMBDAS)[:, None]
    l_rows, stats = _point_stats(model, vp, lams, x0_in, z_in, stack, xs)
    p = POINT_LAMBDAS.index(lam)
    l_row, got = l_rows[p], [m[:, p] for m in stats]
    alpha, sigma = vp.alpha_lambda(lam), vp.sigma_lambda(lam)
    xs = alpha * x0 + sigma * z
    eps, d_eps, _ = model.linearize(vp, xs, lam)
    f = (sigma * eps - l_row * xs) / alpha
    r = np.exp(-lam) * ((l_row - 1.0) * eps + d_eps)
    samples = [a.astype(np.longdouble) for a in (f, r, xs / alpha)]
    centred = [a - a.mean(axis=0) for a in samples]
    spread = [np.sqrt((d * d).mean(axis=0)) for d in centred]
    want = [a.mean(axis=0) for a in samples] + [(centred[0] * d).mean(axis=0) for d in centred]
    # each mean on the scale |mean| + std, each (co)variance on std f * std
    scale = [np.abs(w) + s for w, s in zip(want, spread)] + [spread[0] * s for s in spread]
    for name, g, w, sc in zip(("mf", "mr", "my", "vf", "cfr", "cfy"), got, want, scale):
        assert np.all(np.abs(g - w) <= 1e-14 * sc), (name, float(np.max(np.abs(g - w) / sc)))


# one estimate_table's peak allocation, in units of a block's (P, K, D) sample
# array's bytes: 13.35 at K=4096 (P=1) and 12.09 at K=1024 (P=4) by this
# measurement (numpy 2.4.6; 13.38 and 12.66 while a slot lent its call's
# temporaries to the jvp and the sweep wrote z sigma into the last eps, 13.82
# at K=4096 when the sweep first kept its arrays in one workspace, 14.06
# before that, 14.80 before the sweep was coordinate-major), so a copy of the
# samples per block would break it
ESTIMATE_PEAK_ALLOCATION = 14.75


def test_estimate_table_peak_allocation(vp, mix4, vp_lam_range):
    """At K=4096, one point a block, and at K=1024, blocks of 4 points and a last one of 1."""
    for num_datapoints, size in ((4096, 1), (1024, 4)):
        cfg = EmsConfig(
            num_timesteps=4, num_datapoints=num_datapoints, lam_range=vp_lam_range, seed=1
        )
        assert blocks(cfg)[0] == size
        estimate_table(mix4, vp, cfg)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            estimate_table(mix4, vp, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        block_bytes = size * cfg.num_datapoints * mix4.dim * 8
        assert peak <= ESTIMATE_PEAK_ALLOCATION * block_bytes, (size, peak / block_bytes)


# A second 60 x 4096 mixture build, in a fresh process: it prints that build's minor faults
SECOND_BUILD_FAULTS = """
import resource
from emsolve import EmsConfig, GaussianMixture, Schedule, estimate_table
vp = Schedule("vp-linear")
model = GaussianMixture([0.4, 0.6], [[0.6, -0.3, 0.25, -0.5], [-0.55, 0.4, -0.3, 0.45]], [0.8, 1.1])
cfg = EmsConfig(60, 4096, (float(vp.lambda_of_t(1.0)), float(vp.lambda_of_t(1e-3))), seed=1)
estimate_table(model, vp, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
estimate_table(model, vp, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux's minor-fault count")
def test_a_second_table_build_faults_few_pages():
    """A sweep slot keeps the arrays that outlive a call, so a second build reuses warm pages.

    A fresh process's second 60 x 4096 build made 120-232 minor faults.
    With the block the ``jvp`` reads taken afresh at each call, or with no
    slot at all, it made over 12,000 (numpy 2.4.6, glibc's malloc).  The
    test process's own heap, shaped by the tests before it, can hide that.
    """
    package = os.path.dirname(os.path.dirname(os.path.abspath(models.__file__)))
    path = os.pathsep.join(filter(None, (package, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", SECOND_BUILD_FAULTS], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300, check=True,
    )
    assert int(done.stdout) < 1000


def test_estimate_table_point_gaussian(vp, pg4, vp_lam_range):
    cfg = EmsConfig(num_timesteps=24, num_datapoints=64, lam_range=vp_lam_range, seed=13)
    table = estimate_table(pg4, vp, cfg)
    assert np.max(np.abs(table.l - 1.0)) <= 1e-12
    assert np.max(np.abs(table.s)) < 1e-4
    assert np.max(np.abs(table.b)) <= 1e-6
    assert table.meta["K"] == 64 and table.meta["seed"] == 13


def test_estimate_table_deterministic(vp, mix4):
    cfg = EmsConfig(num_timesteps=8, num_datapoints=32, lam_range=(-2.0, 2.0), seed=14)
    a = estimate_table(mix4, vp, cfg)
    b = estimate_table(mix4, vp, cfg)
    for name in ("lambda_grid", "l", "s", "b", "l_dot"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


# -- numpy's ufunc buffer ------------------------------------------------------------


class BufferSpy(CallCounter):
    """A counting delegate that records ``np.getbufsize()`` at each model call.

    Call number ``fail_at`` (if given) raises RuntimeError instead.
    """

    def __init__(self, inner, fail_at=None):
        super().__init__(inner)
        self.bufsizes = []
        self.fail_at = fail_at

    def _call(self, name, *args, **kwargs):
        self.bufsizes.append(np.getbufsize())
        if len(self.bufsizes) == self.fail_at:
            raise RuntimeError(f"model call {self.fail_at} fails")
        return super()._call(name, *args, **kwargs)


def under_buffer(bufsize, fn, *args):
    """``fn(*args)`` with numpy's ufunc buffer set to ``bufsize`` elements for the call."""
    with np.errstate():
        np.setbufsize(bufsize)
        return fn(*args)


# a caller's numpy state that differs from the defaults in the buffer and two error modes
CALLER_BUFSIZE, CALLER_ERR = 16384, {"divide": "raise", "over": "ignore"}

# every ambient buffer from 16 to 32768 elements, and K below, inside and above the
# range that ``row_buffers`` clamps at one buffer or another
BUFSIZES = [16 << k for k in range(12)]
BUFFER_DATAPOINTS = [8, 63, 64, 100, 2048, 4096, 4104, 16400]


@settings(max_examples=40)
@given(num_datapoints=st.sampled_from(BUFFER_DATAPOINTS), bufsize=st.sampled_from(BUFSIZES))
def test_a_table_has_the_same_bytes_under_any_ufunc_buffer(vp, mix4, num_datapoints, bufsize):
    cfg = EmsConfig(num_timesteps=3, num_datapoints=num_datapoints, lam_range=(-2.0, 3.0), seed=5)
    want = estimate_table(mix4, vp, cfg)
    got = under_buffer(bufsize, estimate_table, mix4, vp, cfg)
    for name in ("lambda_grid", "l", "s", "b", "l_dot"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("fail_at", [None, 3])
def test_a_sweep_restores_the_callers_buffer_and_error_state(vp, mix4, fail_at):
    spy = BufferSpy(mix4, fail_at)
    cfg = EmsConfig(num_timesteps=4, num_datapoints=4096, lam_range=(-2.0, 2.0), seed=1)
    with np.errstate(**CALLER_ERR):
        np.setbufsize(CALLER_BUFSIZE)
        want = np.getbufsize(), np.geterr()
        if fail_at is None:
            estimate_table(spy, vp, cfg)
        else:
            with pytest.raises(RuntimeError, match="model call 3 fails"):
                estimate_table(spy, vp, cfg)
        assert (np.getbufsize(), np.geterr()) == want
    assert spy.bufsizes == [4096] * (5 if fail_at is None else 3)


@pytest.mark.parametrize(
    "num_datapoints, seen", [(4096, 4096), (100, 112), (32, 8192), (4104, 8192)]
)
def test_a_sweep_runs_its_model_calls_under_a_one_row_buffer(vp, mix4, num_datapoints, seen):
    """K = 4096 runs under a buffer of 4096, K = 100 under 112, a multiple of 16.

    K = 32, too short to pay, and K = 4104, which takes numpy's fast path
    already, run under the default.
    """
    spy = BufferSpy(mix4)
    cfg = EmsConfig(num_timesteps=2, num_datapoints=num_datapoints, lam_range=(-2.0, 2.0), seed=1)
    estimate_table(spy, vp, cfg)
    assert np.getbufsize() == 8192
    assert spy.bufsizes == [seen] * len(blocks(cfg))  # one block of 3 points below K = 2048


def test_estimate_table_rejects_lam_range_outside_schedule(vp, edm, pg4):
    # vp-linear's lambda domain starts at -5.02; (-20, 30) used to overflow in exp
    with pytest.raises(DomainError, match="lam_range"):
        estimate_table(pg4, vp, EmsConfig(num_timesteps=8, num_datapoints=8, lam_range=(-20.0, 30.0)))
    lo, hi = edm.lam_domain
    with pytest.raises(DomainError, match="lam_range"):
        estimate_table(pg4, edm, EmsConfig(num_timesteps=8, num_datapoints=8, lam_range=(lo, hi + 0.1)))
    table = estimate_table(pg4, edm, EmsConfig(num_timesteps=8, num_datapoints=8, lam_range=(lo, hi)))
    assert table.lambda_grid[0] == lo and table.lambda_grid[-1] == hi


def test_degenerate_table_rejects_lam_range_outside_schedule(vp, edm):
    """As estimate_table: vp-linear's domain is (-5.02, inf), so (-30, 2) fails when built."""
    with pytest.raises(DomainError, match="lam_range"):
        degenerate_table(NOISE_PRED, vp, 20, (-30.0, 2.0), 4)
    lo, hi = edm.lam_domain
    with pytest.raises(DomainError, match="lam_range"):
        degenerate_table(DATA_PRED, edm, 8, (lo - 0.1, hi), 2)
    with pytest.raises(DomainError, match="lam_range"):
        degenerate_table(DATA_PRED, edm, 8, (lo, hi + 0.1), 2)
    table = degenerate_table(DATA_PRED, edm, 8, (lo, hi), 2)  # the domain's own ends are in it
    assert table.lambda_grid[0] == lo and table.lambda_grid[-1] == hi
    build_integral_table(table)
    with pytest.raises(ValueError, match="expected a Schedule"):
        degenerate_table(DATA_PRED, None, 8, (lo, hi), 2)


def test_estimate_table_standard_error_scaling(vp, mix4):
    def l_values(k, seed):
        cfg = EmsConfig(num_timesteps=2, num_datapoints=k, lam_range=(-0.5, 0.5), seed=seed)
        return estimate_table(mix4, vp, cfg).l[1]

    small = np.array([l_values(128, s) for s in range(20)])
    big = np.array([l_values(256, 1000 + s) for s in range(20)])
    ratio = small.std(axis=0, ddof=1) / big.std(axis=0, ddof=1)
    assert 1.1 < ratio.mean() < 1.8  # ~sqrt(2) with 20-seed sampling noise


def test_degenerate_tables(vp, vp_lam_range):
    dp = degenerate_table(DATA_PRED, vp, 10, vp_lam_range, 3)
    assert np.all(dp.l == 1.0) and np.all(dp.s == 0.0) and np.all(dp.b == 0.0)
    npred = degenerate_table(NOISE_PRED, vp, 10, vp_lam_range, 3)
    assert np.all(npred.l == 0.0) and np.all(npred.s == -1.0) and np.all(npred.b == 0.0)
    for t in (dp, npred):
        assert np.all(np.diff(t.lambda_grid) > 0)
        assert np.all(t.l_dot == 0.0)
        assert t.is_constant()
    with pytest.raises(ValueError):
        degenerate_table("v-pred", vp, 10, vp_lam_range, 3)
    with pytest.raises(ValueError, match="at least one column"):
        degenerate_table(DATA_PRED, vp, 10, vp_lam_range, 0)


# -- table type and persistence -----------------------------------------------------


def test_table_validation(vp):
    grid = np.linspace(0.0, 1.0, 5)
    ones = np.ones((5, 2))
    with pytest.raises(ValueError):
        EmsTable(lambda_grid=grid[::-1].copy(), l=ones, s=ones, b=ones, l_dot=ones, schedule=vp)
    with pytest.raises(ValueError):
        bad = ones.copy()
        bad[2, 1] = np.nan
        EmsTable(lambda_grid=grid, l=bad, s=ones, b=ones, l_dot=ones, schedule=vp)
    with pytest.raises(ValueError):
        EmsTable(
            lambda_grid=np.array([0.0, 0.1, 0.3, 0.6, 1.0]),
            l=ones, s=ones, b=ones, l_dot=ones, schedule=vp,
        )
    # a scalar field is a shape error, not an IndexError
    with pytest.raises(ValueError, match="l has shape"):
        EmsTable(lambda_grid=grid, l=1.0, s=ones, b=ones, l_dot=ones, schedule=vp)
    # planning reads the table's schedule, so a table without one is refused when built
    for sched, named in [(None, "NoneType"), ("vp-linear", "str"), (vp.to_dict(), "dict")]:
        with pytest.raises(ValueError, match=f"^expected a Schedule, got a {named} without"):
            EmsTable(lambda_grid=grid, l=ones, s=ones, b=ones, l_dot=ones, schedule=sched)


def test_tables_are_read_only(vp, vp_lam_range, mix_table, tmp_path):
    save_table(mix_table, tmp_path / "table.json")
    tables = [mix_table, load_table(tmp_path / "table.json")]
    tables.append(degenerate_table(DATA_PRED, vp, 20, vp_lam_range, 4))
    arrays = [getattr(t, name) for t in tables for name in ("lambda_grid", "l", "s", "b", "l_dot")]
    for ems in tables:
        tab = build_integral_table(ems)
        arrays += [tab.L, tab.S, tab.B, tab.C, tab.I, *(tab.const_lsb or ())]
    assert len(arrays) == 15 + 15 + 3  # the degenerate table's constant fields too
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_tables_copy_every_array(vp):
    grid, ones = np.linspace(0.0, 1.0, 5), np.ones((5, 2))
    table = EmsTable(lambda_grid=grid, l=ones, s=ones, b=ones, l_dot=ones, schedule=vp)
    ones[0, 0] = 7.0  # the caller's array stays writable and the table's copy unchanged
    assert table.l[0, 0] == 1.0 and table.l is not ones
    again = dataclasses.replace(table, meta={"copy": True})
    for n in ("lambda_grid", "l", "s", "b", "l_dot"):  # read-only arrays are copied too
        got, was = getattr(again, n), getattr(table, n)
        assert not got.flags.writeable and np.array_equal(got, was)
        assert not np.shares_memory(got, was), n
    tab = build_integral_table(table)
    rebuilt = dataclasses.replace(tab)
    for n in "LSBCI":  # recomputed from the same table: equal, read-only values
        got = getattr(rebuilt, n)
        assert not got.flags.writeable and np.array_equal(got, getattr(tab, n))
    assert tab.const_lsb[0].base is table.l  # a row of the table, not a copy


COPIES = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)), "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("protocol", sorted(COPIES))
def test_copied_tables_stay_read_only(vp, vp_lam_range, mix_table, tmp_path, protocol):
    """A copy rebuilds through the constructor: read-only arrays and meta, equal values and file."""
    for ems in (mix_table, degenerate_table(DATA_PRED, vp, 20, vp_lam_range, 4)):
        tab = build_integral_table(ems)
        tab_copy, ems_copy = COPIES[protocol](tab), COPIES[protocol](ems)
        names = ("lambda_grid", "l", "s", "b", "l_dot")
        pairs = [(getattr(t, n), getattr(ems, n)) for t in (ems_copy, tab_copy.ems) for n in names]
        pairs += [(getattr(tab_copy, n), getattr(tab, n)) for n in "LSBCI"]
        pairs += list(zip(tab_copy.const_lsb or (), tab.const_lsb or (), strict=True))
        for got, want in pairs:
            assert not got.flags.writeable and np.array_equal(got, want)
        save_table(ems, tmp_path / "original.json")
        for table in (ems, ems_copy, tab_copy.ems):
            assert table.schedule == ems.schedule and table.meta == ems.meta
            with pytest.raises(TypeError):
                table.meta["note"] = "edited"
            save_table(table, tmp_path / "copy.json")
            assert (tmp_path / "copy.json").read_bytes() == (tmp_path / "original.json").read_bytes()


def test_a_loaded_table_has_an_equal_read_only_schedule(tmp_path):
    sched = Schedule(VP_LINEAR, params={"beta0": 0.05, "beta1": 15.0})
    save_table(degenerate_table(DATA_PRED, sched, 8, (-3.0, 3.0), 2), tmp_path / "table.json")
    loaded = load_table(tmp_path / "table.json").schedule
    assert loaded == sched and loaded.to_dict() == sched.to_dict()
    with pytest.raises(TypeError):
        loaded.params["beta0"] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_table_rejects_non_finite_lambda_grid(vp, bad, where):
    grid = np.linspace(0.0, 1.0, 5)
    grid[where] = bad
    ones = np.ones((5, 2))
    with pytest.raises(ValueError, match="lambda_grid contains non-finite"):
        EmsTable(lambda_grid=grid, l=ones, s=ones, b=ones, l_dot=ones, schedule=vp)


def test_index_of_snapping(vp, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 100, vp_lam_range, 2)
    h0 = table.spacing
    assert table.index_of(float(table.lambda_grid[17])) == 17
    assert table.index_of(float(table.lambda_grid[17] + 0.4 * h0)) == 17
    with pytest.raises(ValueError):
        table.index_of(float(table.lambda_grid[-1] + h0))


def test_index_of_rounds_ties_half_to_even(vp):
    table = degenerate_table(DATA_PRED, vp, 8, (-4.0, 4.0), 2)  # unit spacing, exact ties
    lams = [-3.5, -2.5, -1.5, 3.5]
    assert [table.index_of(lam) for lam in lams] == [0, 2, 2, 8]
    assert table.index_of(np.array(lams)).tolist() == [0, 2, 2, 8]


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 1.7e308, -1.7e308])
def test_index_of_rejects_non_finite_lambda(vp, vp_lam_range, lam):
    """Non-finite lambdas, and finite ones whose grid offset overflows."""
    table = degenerate_table(DATA_PRED, vp, 10, vp_lam_range, 2)
    with pytest.raises(ValueError, match="outside the table range"):
        table.index_of(lam)


@st.composite
def _tables(draw):
    """A table with random schedule, dim and grid size, whose values are any finite floats."""
    kind = draw(st.sampled_from([VP_LINEAR, VP_COSINE, EDM]))
    params = {}
    if kind == VP_LINEAR:
        params = {"beta0": draw(st.floats(0.01, 1.0)), "beta1": draw(st.floats(5.0, 30.0))}
    sched = Schedule(kind, params)
    lam_lo = sched.lam_domain[0] + draw(st.floats(0.0, 4.0))
    lam_hi = lam_lo + draw(st.floats(1e-3, 10.0))
    n, dim = draw(st.integers(2, 60)), draw(st.integers(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    fields = {
        name: draw(hnp.arrays(np.float64, (n, dim), elements=finite))
        for name in ("l", "s", "b", "l_dot")
    }
    meta = {"seed": draw(st.integers(0, 2**31))}
    return EmsTable(lambda_grid=np.linspace(lam_lo, lam_hi, n), schedule=sched, meta=meta, **fields)


@settings(max_examples=40)
@given(table=_tables())
def test_save_load_round_trips_every_bit(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("round_trip") / "table.json"
    save_table(table, path)
    again = load_table(path)
    for name in ("lambda_grid", "l", "s", "b", "l_dot"):
        want, got = getattr(table, name), getattr(again, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0
    assert again.meta == table.meta
    assert again.schedule == table.schedule


@settings(max_examples=100)
@given(table=_tables(), u=st.floats(0.0, 1.0), beyond=st.floats(1e-6, 5.0))
def test_index_of_snaps_within_half_a_cell(table, u, beyond):
    grid, h = table.lambda_grid, table.spacing
    lam = float(grid[0] + u * (grid[-1] - grid[0]))
    j = table.index_of(lam)
    assert abs(lam - grid[j]) <= 0.5 * h + 1e-12
    assert abs(lam - grid[j]) <= np.min(np.abs(lam - grid)) + 1e-12  # the nearest point
    for outside in (grid[0] - (0.5 + beyond) * h, grid[-1] + (0.5 + beyond) * h):
        with pytest.raises(ValueError, match="outside the table range"):
            table.index_of(float(outside))


@settings(max_examples=100)
@given(
    table=_tables(),
    us=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=12),
    odd=st.sampled_from([None, np.nan, np.inf, -np.inf, 1.7e308]),
)
def test_index_of_snaps_an_array_as_each_lambda(table, us, odd):
    """The array form gives each lambda's index, or the ValueError one of them raises."""
    grid = table.lambda_grid
    lams = [float(grid[0] + u * (grid[-1] - grid[0])) for u in us]
    if odd is not None:
        lams[len(lams) // 2] = odd
    want = []
    for lam in lams:
        try:
            want.append(table.index_of(lam))
        except ValueError:
            with pytest.raises(ValueError, match="outside the table range"):
                table.index_of(np.array(lams))
            return
    got = table.index_of(np.array(lams))
    assert got.shape == (len(lams),) and got.tolist() == want


def test_save_load_round_trip(tmp_path, vp, mix4):
    cfg = EmsConfig(num_timesteps=6, num_datapoints=16, lam_range=(-1.0, 1.5), seed=15)
    table = estimate_table(mix4, vp, cfg)
    path = tmp_path / "table.json"
    save_table(table, path)
    again = load_table(path)
    for name in ("lambda_grid", "l", "s", "b", "l_dot"):
        assert np.array_equal(getattr(table, name), getattr(again, name))
    assert again.meta == table.meta
    assert again.schedule.to_dict() == vp.to_dict()


def test_save_load_table_from_numpy_integer_config(tmp_path, vp, mix4):
    ints = dict(num_timesteps=6, num_datapoints=16, probes_per_point=1, seed=15)
    python_table = estimate_table(mix4, vp, EmsConfig(lam_range=(-1.0, 1.5), **ints))
    numpy_ints = {name: np.int64(value) for name, value in ints.items()}
    table = estimate_table(mix4, vp, EmsConfig(lam_range=(-1.0, 1.5), **numpy_ints))
    save_table(python_table, tmp_path / "python.json")
    save_table(table, tmp_path / "numpy.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
    again = load_table(tmp_path / "numpy.json")
    assert again.meta == table.meta == {"K": 16, "seed": 15, "model": table.meta["model"]}
    for name in ("lambda_grid", "l", "s", "b", "l_dot"):
        assert np.array_equal(getattr(again, name), getattr(table, name))


def test_load_truncated_file(tmp_path, vp, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 4, vp_lam_range, 2)
    path = tmp_path / "table.json"
    save_table(table, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(TableFormatError, match="line"):
        load_table(path)


def test_load_version_mismatch(tmp_path, vp, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 4, vp_lam_range, 2)
    path = tmp_path / "table.json"
    save_table(table, path)
    payload = json.loads(path.read_text())
    payload["version"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(UnsupportedVersionError):
        load_table(path)


def test_load_missing_key(tmp_path, vp, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 4, vp_lam_range, 2)
    path = tmp_path / "table.json"
    save_table(table, path)
    payload = json.loads(path.read_text())
    del payload["l_dot"]
    path.write_text(json.dumps(payload))
    with pytest.raises(TableFormatError, match="l_dot"):
        load_table(path)


def test_load_top_level_list(tmp_path):
    path = tmp_path / "table.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(TableFormatError, match="expected a JSON object at top level"):
        load_table(path)


@pytest.mark.parametrize(
    "key, value", [("params", {"beta0": np.nan}), ("t_domain", [0.0, np.inf])]
)
def test_load_invalid_schedule(tmp_path, vp, vp_lam_range, key, value):
    table = degenerate_table(DATA_PRED, vp, 4, vp_lam_range, 2)
    path = tmp_path / "table.json"
    save_table(table, path)
    payload = json.loads(path.read_text())
    payload["schedule"][key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(TableFormatError, match="finite"):
        load_table(path)


def test_load_schedule_that_is_not_a_dict(tmp_path, vp, vp_lam_range):
    path = tmp_path / "table.json"
    save_table(degenerate_table(DATA_PRED, vp, 4, vp_lam_range, 2), path)
    payload = json.loads(path.read_text())
    payload["schedule"] = [1]
    path.write_text(json.dumps(payload))
    with pytest.raises(TableFormatError, match="expected a schedule dict, got list"):
        load_table(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_non_finite_lambda_grid(tmp_path, vp, vp_lam_range, bad):
    table = degenerate_table(DATA_PRED, vp, 4, vp_lam_range, 2)
    path = tmp_path / "table.json"
    save_table(table, path)
    payload = json.loads(path.read_text())
    payload["lambda_grid"][-1] = bad
    path.write_text(json.dumps(payload))  # NaN and Infinity tokens, which json reads back
    with pytest.raises(TableFormatError, match="lambda_grid contains non-finite"):
        load_table(path)


def test_load_schedule_mismatch_raises_when_sampled(tmp_path, vp, edm, mix4):
    # lambdas inside both schedules' ranges: only the schedule check stops the edm run
    table = degenerate_table(DATA_PRED, vp, 200, (-3.0, 3.0), 4)
    path = tmp_path / "table.json"
    save_table(table, path)
    tab = build_integral_table(load_table(path))
    grid = make_time_grid(edm, 6, UNIFORM_LAMBDA, float(np.exp(3.0)), float(np.exp(-3.0)))
    x0 = edm.sigma_lambda(-3.0) * np.ones(4)
    for sampler in (multistep_sample, singlestep_sample):
        with pytest.raises(ValueError, match="the table is for schedule"):
            sampler(mix4, edm, tab, SolverConfig(order=2, grid=grid), x0)


class Forwarding:
    """Forwards every attribute to a model or a schedule, as the benchmark's timing wrappers do."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_ems_config_validation(vp, mix4):
    with pytest.raises(ValueError):
        EmsConfig(num_timesteps=0, num_datapoints=8, lam_range=(-1.0, 1.0))
    with pytest.raises(ValueError):
        EmsConfig(num_timesteps=4, num_datapoints=0, lam_range=(-1.0, 1.0))
    with pytest.raises(ValueError):
        EmsConfig(num_timesteps=4, num_datapoints=8, lam_range=(1.0, -1.0))
    for lam_range in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="lam_range must be finite"):
            EmsConfig(num_timesteps=4, num_datapoints=8, lam_range=lam_range)
    for lam_range in (("a", "b"), (-1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="lam_range must be a pair of real numbers"):
            EmsConfig(num_timesteps=4, num_datapoints=8, lam_range=lam_range)
    with pytest.raises(ValueError):
        EmsConfig(num_timesteps=4, num_datapoints=8, lam_range=(-1.0, 1.0), probes_per_point=0)
    with pytest.raises(ValueError, match="seed"):
        EmsConfig(num_timesteps=4, num_datapoints=8, lam_range=(-1.0, 1.0), seed=-1)
    good = {"num_timesteps": 4, "num_datapoints": 8, "probes_per_point": 1, "seed": 0}
    for name, bad in (
        ("num_timesteps", 2.5),
        ("num_timesteps", 4.0),
        ("num_datapoints", 8.0),
        ("probes_per_point", 1.5),
        ("seed", 3.0),
        *((name, flag) for name in good for flag in (True, False, np.bool_(True))),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EmsConfig(lam_range=(-1.0, 1.0), **{**good, name: bad})
    numpy_ints = {name: np.int64(value) for name, value in good.items()}
    assert EmsConfig(lam_range=(-1.0, 1.0), **numpy_ints).num_timesteps == 4
    # estimation refuses a missing model or schedule before it reads either
    cfg = EmsConfig(lam_range=(-1.0, 1.0), **good)
    with pytest.raises(ValueError, match="^expected a model, got a NoneType without"):
        estimate_table(None, vp, cfg)
    with pytest.raises(ValueError, match="^expected a model, got a Schedule without"):
        estimate_table(vp, vp, cfg)
    with pytest.raises(ValueError, match="^expected a Schedule, got a NoneType without"):
        estimate_table(mix4, None, cfg)
    # the checks are structural: delegates that forward every member pass
    want = estimate_table(mix4, vp, cfg)
    got = estimate_table(Forwarding(mix4), Forwarding(vp), cfg)
    assert got.s.tobytes() == want.s.tobytes() and got.l.tobytes() == want.l.tobytes()
