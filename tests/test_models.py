import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853

from emsolve import (
    ConvergenceError,
    DomainError,
    EmsConfig,
    EvalCounter,
    GaussianMixture,
    Guided,
    PointGaussian,
    Schedule,
    SolverConfig,
    estimate_table,
    make_time_grid,
    model_from_dict,
    model_id,
    plan_multistep,
    reference_solve,
)
from emsolve import models
from emsolve.models import ModelSpec, _short_dot, _short_max, _short_sum
from emsolve.schedule import UNIFORM_LAMBDA

from oracles import (
    block_layout,
    composed_linearize,
    eps_along_ode,
    forward_diffuse,
    jvp,
    mixture_eps_longdouble,
    mixture_linearize_rowmajor,
    mixture_log_density,
    reference_solve_ivp,
    reference_solve_stagewise,
    reference_states,
)


def closed_form_trajectory(sched, pg, x_start, lam_start, lam_end):
    """The linear ODE of a point mass keeps (x - alpha x0) / sigma constant."""
    k = (x_start - sched.alpha_lambda(lam_start) * pg.x0) / sched.sigma_lambda(lam_start)
    return sched.alpha_lambda(lam_end) * pg.x0 + sched.sigma_lambda(lam_end) * k


# -- noise prediction -------------------------------------------------------


def test_eps_point_gaussian_recovers_noise(vp):
    pg = PointGaussian(x0=np.zeros(4))
    rng = np.random.default_rng(0)
    z = rng.standard_normal(4)
    lam = 0.8
    x = vp.sigma_lambda(lam) * z
    assert np.allclose(pg.eps(vp, x, lam), z, atol=1e-12)


def test_eps_degenerate_mixture_equals_point_gaussian(vp, pg4):
    mix = GaussianMixture(weights=[1.0], means=[pg4.x0], stds=[0.0])
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4)
    for lam in (-2.0, 0.0, 3.0):
        assert np.allclose(mix.eps(vp, x, lam), pg4.eps(vp, x, lam), atol=1e-12)


def test_eps_symmetric_mixture_zero_at_midpoint(vp):
    mix = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0], [1.0]], stds=[0.0, 0.0])
    assert mix.eps(vp, np.zeros(1), 0.5) == pytest.approx(0.0, abs=1e-14)


def test_eps_matches_score_of_log_density(vp, mix4):
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(100):
        lam = rng.uniform(-4.0, 4.0)
        x = rng.standard_normal(4) * 1.5
        grad = np.zeros(4)
        for d in range(4):
            e = np.zeros(4)
            e[d] = h
            up, down = (mixture_log_density(mix4, vp, x + s * e, lam) for s in (1, -1))
            grad[d] = (up - down) / (2 * h)
        want = -vp.sigma_lambda(lam) * grad
        got = mix4.eps(vp, x, lam)
        assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-12) < 1e-5


# -- Jacobian-vector products -------------------------------------------------


def test_jvp_point_gaussian(vp, pg4):
    rng = np.random.default_rng(3)
    x, v = rng.standard_normal(4), rng.standard_normal(4)
    lam = 1.1
    assert np.allclose(jvp(pg4, vp, x, lam, v), v / vp.sigma_lambda(lam), atol=1e-14)


def test_jvp_matches_finite_difference(vp, mix4):
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(25):
        lam = rng.uniform(-3.0, 3.0)
        x = rng.standard_normal(4)
        v = rng.standard_normal(4)
        fd = (mix4.eps(vp, x + h * v, lam) - mix4.eps(vp, x - h * v, lam)) / (2 * h)
        got = jvp(mix4, vp, x, lam, v)
        assert np.max(np.abs(got - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-5


def test_jvp_zero_vector(vp, mix4):
    assert np.allclose(jvp(mix4, vp, np.ones(4), 0.5, np.zeros(4)), 0.0)


def test_jvp_linearity(vp, mix4):
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = rng.uniform(-4.0, 4.0)
        x = rng.standard_normal(4)
        v, w = rng.standard_normal(4), rng.standard_normal(4)
        a, b = rng.standard_normal(2)
        combined = jvp(mix4, vp, x, lam, a * v + b * w)
        split = a * jvp(mix4, vp, x, lam, v) + b * jvp(mix4, vp, x, lam, w)
        assert np.max(np.abs(combined - split)) < 1e-9


# -- lambda-derivatives along the ODE ---------------------------------------------


def eps_dlambda(model, sched, x, lam):
    """The lambda-partial of eps at fixed x: d_eps minus the Jacobian term."""
    eps, d_eps = eps_along_ode(model, sched, x, lam)
    flow = sched.dlog_alpha_dlambda(lam) * x - sched.sigma_lambda(lam) * eps
    return d_eps - jvp(model, sched, x, lam, flow)


def richardson_eps_dlambda(model, sched, x, lam, h):
    """Central differences at steps h and h/2, Richardson-extrapolated (error O(h^4))."""

    def central(step):
        return (model.eps(sched, x, lam + step) - model.eps(sched, x, lam - step)) / (2 * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def test_eps_dlambda_point_gaussian_analytic(vp, pg4):
    rng = np.random.default_rng(6)
    h = 1e-5
    for _ in range(20):
        lam = rng.uniform(-4.0, 4.0)
        x = rng.standard_normal(4)
        fd = (pg4.eps(vp, x, lam + h) - pg4.eps(vp, x, lam - h)) / (2 * h)
        assert np.max(np.abs(eps_dlambda(pg4, vp, x, lam) - fd)) < 1e-6


def test_eps_dlambda_edm_point_mass_equals_eps(edm):
    pg = PointGaussian(x0=np.zeros(3))
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3)
    lam = -1.5  # sigma = exp(-lambda), so eps = x exp(lambda) and d/dlambda eps = eps
    assert np.allclose(eps_dlambda(pg, edm, x, lam), pg.eps(edm, x, lam), atol=1e-12)


def test_eps_dlambda_mixture_tail_matches_point_mass(vp):
    mix = GaussianMixture(weights=[0.5, 0.5], means=[[-10.0], [10.0]], stds=[0.0, 0.0])
    pg = PointGaussian(x0=np.array([10.0]))
    lam = 2.0
    x = vp.alpha_lambda(lam) * np.array([10.0]) + 0.1  # deep in one component's basin
    assert np.allclose(eps_dlambda(mix, vp, x, lam), eps_dlambda(pg, vp, x, lam), atol=1e-4)


@pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine", "edm"])
def test_mixture_d_eps_matches_richardson_difference(kind, mix4):
    sched = Schedule(kind)
    mix3 = GaussianMixture(
        weights=[0.2, 0.3, 0.5],
        means=[[1.0, 0.0, 0.5, 0.1], [-1.0, 0.5, 0.0, 0.2], [0.0, -1.0, 0.3, -0.4]],
        stds=[0.0, 0.3, 0.6],
    )
    lo, hi = max(sched.lam_domain[0], -4.0) + 0.1, min(sched.lam_domain[1], 4.0) - 0.1
    rng = np.random.default_rng(20)
    for model in (mix4, mix3):
        for _ in range(10):
            lam = rng.uniform(lo, hi)
            x = 1.5 * rng.standard_normal((3, 4))
            eps, d_eps = eps_along_ode(model, sched, x, lam)
            assert np.array_equal(eps, model.eps(sched, x, lam))
            flow = sched.dlog_alpha_dlambda(lam) * x - sched.sigma_lambda(lam) * eps
            want = richardson_eps_dlambda(model, sched, x, lam, 4e-3) + jvp(
                model, sched, x, lam, flow
            )
            assert np.max(np.abs(d_eps - want)) <= 1e-7 * np.max(np.abs(want))


def test_point_mass_d_eps_is_zero(vp, edm, pg4):
    rng = np.random.default_rng(21)
    for sched in (vp, edm):
        x = rng.standard_normal((5, 4))
        eps, d_eps = eps_along_ode(pg4, sched, x, 0.7)
        assert np.array_equal(eps, pg4.eps(sched, x, 0.7))
        assert np.array_equal(d_eps, np.zeros((5, 4)))


# The mixture's closed-form d_eps cancels terms of size |x| / sigma, so on
# states off the data it loses digits as sigma falls.  On a zero-std
# component, whose exact d_eps is 0, the largest |d_eps| over 1024 standard
# normal states and lambda up to 8 (edm: its domain's end) measured 3.5e-8 of
# max|eps| on the VP schedules (up to 9.7e-8 on other draws) and 9.2e-10 on
# edm (up to 3.1e-9), both at the top lambda.
D_EPS_CANCELLATION_TOLERANCE = {"vp-linear": 2e-7, "vp-cosine": 2e-7, "edm": 1e-8}


@pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine", "edm"])
def test_zero_std_component_d_eps_within_its_cancellation_bound(kind, mix4):
    sched = Schedule(kind)
    model = GaussianMixture(weights=[1.0], means=mix4.means[:1], stds=[0.0])
    x = np.random.default_rng(0).standard_normal((1024, 4))
    for lam in np.linspace(-4.0, min(sched.lam_domain[1], 8.0), 49):
        eps, d_eps, _ = model.linearize(sched, x, lam)
        rel = float(np.max(np.abs(d_eps)) / np.max(np.abs(eps)))
        assert rel <= D_EPS_CANCELLATION_TOLERANCE[kind], (lam, rel)


@pytest.mark.parametrize("scale", [1.0, 2.5, -0.5])
def test_guided_lambda_partial_is_linear(vp, mix4, pg4, scale):
    # the lambda-partial combines linearly; d_eps then follows the guided ODE
    guided = Guided(cond=mix4, uncond=pg4, scale=scale)
    rng = np.random.default_rng(22)
    for lam in (-2.0, 0.3, 2.5):
        x = rng.standard_normal((3, 4))
        eps, d_eps = eps_along_ode(guided, vp, x, lam)
        assert np.array_equal(eps, guided.eps(vp, x, lam))
        want = scale * eps_dlambda(mix4, vp, x, lam) + (1.0 - scale) * eps_dlambda(
            pg4, vp, x, lam
        )
        got = eps_dlambda(guided, vp, x, lam)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        fd = richardson_eps_dlambda(guided, vp, x, lam, 4e-3)
        flow = vp.dlog_alpha_dlambda(lam) * x - vp.sigma_lambda(lam) * eps
        assert np.max(np.abs(d_eps - fd - jvp(guided, vp, x, lam, flow))) <= 1e-7 * np.max(
            np.abs(d_eps)
        )


# -- rounding: the posterior's softmax and the short sums ---------------------------

# the float64 eps reads <= 8.3e-16 of max|eps| per lambda from the long-double one
EPS_LONG_DOUBLE_TOLERANCE = 2e-15


@pytest.mark.parametrize("model_name", ["mix4", "mix4b"])
@pytest.mark.parametrize("kind", ["vp-linear", "edm"])
def test_mixture_eps_matches_long_double(request, kind, model_name):
    """Within 2e-15 of max|eps| per lambda, at 40 lambdas x 1000 points x 2 seeds.

    The points reach 3 sigma into the diffused data's tails, where log w_i
    N_i(x) is large and normalizing the weights loses the most digits.
    """
    model, sched = request.getfixturevalue(model_name), Schedule(kind)
    t_max, t_min = sched.t_domain[1], max(sched.t_domain[0], 1e-3)
    lams = np.linspace(float(sched.lambda_of_t(t_max)), float(sched.lambda_of_t(t_min)), 40)
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        x0 = model.sample_data(rng, 1000)
        z = rng.standard_normal(x0.shape)
        for lam in lams:
            x = sched.alpha_lambda(lam) * x0 + 3.0 * sched.sigma_lambda(lam) * z
            want = mixture_eps_longdouble(model, sched, x, lam)
            rel = float(np.max(np.abs(model.eps(sched, x, lam) - want)) / np.max(np.abs(want)))
            assert rel <= EPS_LONG_DOUBLE_TOLERANCE, (seed, lam, rel)


@pytest.mark.parametrize("axis", [-1, -2])
@pytest.mark.parametrize("terms", range(1, 8))
def test_short_sum_matches_np_sum_bit_for_bit(axis, terms):
    """Leading-axis slice sums add in np.sum's order over a short last or second-last axis."""
    rng = np.random.default_rng(terms)
    shape = (50, 3, terms) if axis == -1 else (50, terms, 4)
    # magnitudes over 16 decades make any change of summation order visible
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    a_bytes, leading = a.tobytes(), np.moveaxis(a, axis, 0)
    assert np.array_equal(_short_sum(leading), np.sum(a, axis=axis))
    assert np.array_equal(_short_max(leading), np.max(a, axis=axis))
    b = rng.standard_normal(shape)
    assert np.array_equal(_short_dot(leading, np.moveaxis(b, axis, 0)), np.sum(a * b, axis=axis))
    row = a[0, 0] if axis == -1 else a[0, :, 0]
    assert np.array_equal(_short_sum(row), np.sum(row))
    assert a.tobytes() == a_bytes  # the first slice is copied, not summed into
    # the same bits written into given arrays, products through a scratch
    out, scratch = np.empty(leading.shape[1:]), np.empty(leading.shape[1:])
    assert _short_sum(leading, out=out) is out and np.array_equal(out, np.sum(a, axis=axis))
    assert np.array_equal(_short_max(leading, out=out), np.max(a, axis=axis))
    got = _short_dot(leading, np.moveaxis(b, axis, 0), out=out, scratch=scratch)
    assert got is out and np.array_equal(out, np.sum(a * b, axis=axis))
    assert a.tobytes() == a_bytes


@pytest.mark.parametrize("num_comp, dim", [(9, 3), (3, 9), (12, 10)])
def test_sums_of_8_or_more_terms_keep_each_rows_bits_in_a_batch(vp, num_comp, dim):
    """With 8 or more components or coordinates, a batch gives each row its lone call's bits.

    numpy's own reductions (``np.add.reduce``, ``np.maximum.reduce``) take 8 or
    more contiguous terms in another order than a batch's slice by slice, so a
    lone row would differ from the same row in a batch; ``_short_sum``,
    ``_short_max`` and ``_short_dot`` take every length left to right.  Checked
    for ``eps`` at one lambda and at one lambda per row, for ``linearize``'s eps,
    d_eps and J v (also against the row-major oracle) and for ``reference_solve``'s
    rows.
    """
    rng = np.random.default_rng(100 * num_comp + dim)
    weights = rng.uniform(0.1, 1.0, num_comp)
    model = GaussianMixture(
        weights=weights / weights.sum(),
        means=rng.uniform(-2.0, 2.0, (num_comp, dim)),
        stds=rng.uniform(0.0, 1.5, num_comp),
    )
    rows, lam = 5, 0.7
    x = 2.0 * rng.standard_normal((rows, dim))
    v = rng.standard_normal((2, rows, dim))
    lams = rng.uniform(-3.0, 3.0, rows)
    at_lam, per_row_lam = model.eps(vp, x, lam).copy(), model.eps(vp, x, lams).copy()
    eps, d_eps, apply_jacobian = model.linearize(vp, x, lam)
    batch = [a.copy() for a in (eps, d_eps, apply_jacobian(v))]
    want = mixture_linearize_rowmajor(model, vp, x, lam, v)
    assert [a.tobytes() for a in batch] == [a.tobytes() for a in want]
    for i in range(rows):
        assert model.eps(vp, x[i], lam).tobytes() == at_lam[i].tobytes()
        assert model.eps(vp, x[i], lams[i]).tobytes() == per_row_lam[i].tobytes()
        eps, d_eps, apply_jacobian = model.linearize(vp, x[i], lam)
        got = [a.tobytes() for a in (eps, d_eps, apply_jacobian(v[:, i]))]
        assert got == [batch[0][i].tobytes(), batch[1][i].tobytes(), batch[2][:, i].tobytes()]
    x_ref = vp.sigma_lambda(-2.0) * rng.standard_normal((3, dim))
    refs = reference_solve(model, vp, x_ref, -2.0, 1.0, tol=1e-6)
    for i in range(len(x_ref)):
        alone = reference_solve(model, vp, x_ref[i], -2.0, 1.0, tol=1e-6)
        assert alone.tobytes() == refs[i].tobytes()


# -- the coordinate-major arithmetic against the row-major one ------------------------


@settings(max_examples=150)
@given(
    num_comp=st.integers(1, 4),
    dim=st.integers(1, 6),
    layout=st.sampled_from(["(D,)", "(B, D)", "(B1, B2, D)", "(0, D)", "(4097, D)"]),
    rows=st.tuples(st.integers(1, 5), st.integers(1, 4)),
    num_probes=st.integers(1, 3),
    lam=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_matches_rowmajor_oracle_bit_for_bit(
    vp, num_comp, dim, layout, rows, num_probes, lam, seed
):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, num_comp)
    model = GaussianMixture(
        weights=weights / weights.sum(),
        means=rng.uniform(-2.0, 2.0, (num_comp, dim)),
        stds=rng.uniform(0.0, 1.5, num_comp),
    )
    # 4097 rows take the large-call path (more than _SMALL_CALL offsets) at every C and D
    assert models._SMALL_CALL < 4097
    lead = {
        "(D,)": (), "(B, D)": rows[:1], "(B1, B2, D)": rows, "(0, D)": (0,), "(4097, D)": (4097,)
    }[layout]
    x = 2.0 * rng.standard_normal(lead + (dim,))
    v = rng.standard_normal((num_probes,) + x.shape)
    x_bytes, v_bytes = x.tobytes(), v.tobytes()
    x.flags.writeable = False  # a write into an input raises
    v.flags.writeable = False
    eps, d_eps, apply_jacobian = model.linearize(vp, x, lam)
    got = (model.eps(vp, x, lam), eps, d_eps, apply_jacobian(v))
    want_eps, want_d_eps, want_jv = mixture_linearize_rowmajor(model, vp, x, lam, v)
    for g, w in zip(got, (want_eps, want_eps, want_d_eps, want_jv)):
        assert g.dtype == np.float64 and g.flags.c_contiguous
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert x.tobytes() == x_bytes and v.tobytes() == v_bytes


def laid_out(a, layout):
    """``a``'s values as a coordinate-major or a strided array."""
    if layout == "coordinate-major":  # each (N, D) the transpose of a C-contiguous (D, N)
        return np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
    wide = np.zeros(a.shape[:-2] + (2 * a.shape[-2], a.shape[-1]))  # every other row of it
    wide[..., ::2, :] = a
    return wide[..., ::2, :]


@settings(max_examples=60)
@given(
    name=st.sampled_from(["point", "mixture", "guided"]),
    layout=st.sampled_from(["coordinate-major", "strided"]),
    rows=st.integers(1, 40),
    num_probes=st.integers(1, 3),
    lam=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_outputs_follow_the_input_layout_with_the_same_bytes(
    vp, mix4, mix4b, pg4, mix_tab, name, layout, rows, num_probes, lam, seed
):
    model = per_row_models(mix4, mix4b, pg4)[name]
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.standard_normal((rows, 4))
    v = rng.standard_normal((num_probes, rows, 4))
    x_in, v_in = laid_out(x, layout), laid_out(v, layout)
    eps, d_eps, apply_jacobian = model.linearize(vp, x_in, lam)
    got = (model.eps(vp, x_in, lam), eps, d_eps, apply_jacobian(v_in))
    eps, d_eps, apply_jacobian = model.linearize(vp, x, lam)
    want = (model.eps(vp, x, lam), eps, d_eps, apply_jacobian(v))
    for g, w in zip(got, want):
        assert w.flags.c_contiguous
        assert g.shape == w.shape and np.ascontiguousarray(g).tobytes() == w.tobytes()
        if layout == "coordinate-major":
            assert g.swapaxes(-1, -2).flags.c_contiguous
    # the sampler reads the state and each eps through their transposes
    cfg = SolverConfig(order=3, grid=make_time_grid(vp, 6, UNIFORM_LAMBDA, 1.0, 1e-3))
    plan = plan_multistep(mix_tab, cfg)
    x0 = vp.sigma_lambda(plan.lams[0]) * x
    assert plan.run(mix4, laid_out(x0, layout)).tobytes() == plan.run(mix4, x0).tobytes()


# -- a sweep's workspace slots ------------------------------------------------------------


def addresses(*arrays):
    """Where each array's data starts."""
    return tuple(a.__array_interface__["data"][0] for a in arrays)


def stacked(per_point):
    """The bytes of a block's eps, d_eps and J v from each point's (eps, d_eps, J v)."""
    eps, d_eps, jv = zip(*per_point)
    return [np.stack(eps).tobytes(), np.stack(d_eps).tobytes(), np.stack(jv, axis=1).tobytes()]


# three blocks of two grid points each
BLOCK_LAMBDAS = [np.array([[-2.0], [-0.7]]), np.array([[0.5], [1.2]]), np.array([[3.0], [4.1]])]


@pytest.mark.parametrize("num_comp", [1, 2, 3])
@pytest.mark.parametrize("rows", [100, 1500])
@pytest.mark.parametrize("num_probes", [1, 2, 3])
def test_mixture_workspace_keeps_the_rowmajor_bytes(vp, num_comp, rows, num_probes):
    """Outside a sweep and in one slot reused over several blocks: each point's oracle bytes.

    Blocks of two points of 100 rows take the small-call path and of 1500
    the large one.  In every block eps, d_eps and the block the ``jvp``
    reads lie at the slot's one address, and the product, of one probe or
    more, is the call's own: it shares no memory with the slot.
    """
    rng = np.random.default_rng(100 * num_comp + rows + num_probes)
    weights = rng.uniform(0.1, 1.0, num_comp)
    model = GaussianMixture(
        weights=weights / weights.sum(),
        means=rng.uniform(-2.0, 2.0, (num_comp, 4)),
        stds=rng.uniform(0.0, 1.5, num_comp),
    )
    assert (num_comp * 4 * 2 * rows <= models._SMALL_CALL) == (rows == 100)
    blocks = []
    for lams in BLOCK_LAMBDAS:
        x = block_layout(2.0 * rng.standard_normal((2, rows, 4)))
        v = block_layout(rng.standard_normal((num_probes, 2, rows, 4)))
        want = stacked(
            mixture_linearize_rowmajor(model, vp, x[p], lams[p, 0], v[:, p]) for p in range(2)
        )
        eps, d_eps, apply_jacobian = model.linearize(vp, x, lams)
        assert [a.tobytes() for a in (eps, d_eps, apply_jacobian(v))] == want
        blocks.append((lams, x, v, want))
    seen = set()
    with models.sweep_scope(rows) as sweep:
        for lams, x, v, want in blocks:
            sweep.next_block()
            eps, d_eps, apply_jacobian = model.linearize(vp, x, lams)
            got = (eps, d_eps, apply_jacobian(v))
            assert [a.tobytes() for a in got] == want
            (slot,) = sweep.slots.values()
            assert slot.memory[:2] == (eps, d_eps)
            assert not any(np.shares_memory(got[2], m) for m in slot.memory)
            seen.add(addresses(eps, d_eps, slot.memory[2]))
    assert len(seen) == 1  # the slot's arrays in every block


@pytest.mark.parametrize("which", ["point", "guided", "guided-nested"])
@pytest.mark.parametrize("num_probes", [1, 3])
def test_workspace_keeps_the_bytes_of_separate_calls(vp, pg4, mix4, mix4b, which, num_probes):
    """Each block of a sweep: each point's bytes of every quantity from a call of its own."""
    guided = Guided(cond=mix4, uncond=mix4b, scale=2.5)
    model = {
        "point": pg4,
        "guided": guided,
        "guided-nested": Guided(cond=guided, uncond=Guided(mix4b, pg4, 1.5), scale=-2.0),
    }[which]
    rng = np.random.default_rng(num_probes)
    blocks = []
    for lams in BLOCK_LAMBDAS:
        x = block_layout(2.0 * rng.standard_normal((2, 700, 4)))
        v = block_layout(rng.standard_normal((num_probes, 2, 700, 4)))
        want = stacked(composed_linearize(model, vp, x[p], lams[p, 0], v[:, p]) for p in range(2))
        blocks.append((lams, x, v, want))
    with models.sweep_scope(700) as sweep:
        for lams, x, v, want in blocks:
            sweep.next_block()
            eps, d_eps, apply_jacobian = model.linearize(vp, x, lams)
            assert [a.tobytes() for a in (eps, d_eps, apply_jacobian(v))] == want


def test_workspace_arrays_never_feed_their_own_call(vp, mix4):
    """A ``jvp`` product is the call's own, so it may come back as x; an eps or d_eps x raises.

    A product of a product, and the products of one probe and of three,
    have the bytes of the calls outside the sweep and share no memory with
    the slot.  An x in eps or d_eps of the slot its call takes raises.
    """
    rng = np.random.default_rng(3)
    x = block_layout(rng.standard_normal((2, 300, 4)))
    v = block_layout(rng.standard_normal((1, 2, 300, 4)))
    lams = BLOCK_LAMBDAS[1]
    eps, d_eps, fresh = mix4.linearize(vp, x, lams)
    want = [a.tobytes() for a in (eps, d_eps, fresh(fresh(v)))]
    stacks = [np.stack([v[0]] * num_probes) for num_probes in (1, 3)]
    with models.sweep_scope(300) as sweep:
        sweep.next_block()
        eps, d_eps, apply_jacobian = mix4.linearize(vp, x, lams)
        twice = apply_jacobian(apply_jacobian(v))
        assert [a.tobytes() for a in (eps, d_eps, twice)] == want
        products = [apply_jacobian(stack) for stack in stacks]
        (slot,) = sweep.slots.values()
        assert not any(np.shares_memory(a, m) for a in (twice, *products) for m in slot.memory)
        for inside in (eps, d_eps):
            sweep.next_block()  # the call takes the slot that holds its x
            with pytest.raises(ValueError, match="shares memory with the workspace"):
                mix4.linearize(vp, inside, lams)
        sweep.next_block()
        again = mix4.linearize(vp, products[0][0], lams)[:2]
    assert [a.tobytes() for a in products] == [fresh(stack).tobytes() for stack in stacks]
    alone = mix4.linearize(vp, products[0][0], lams)[:2]
    assert [a.tobytes() for a in again] == [a.tobytes() for a in alone]


# -- one lambda per row -----------------------------------------------------------------


def per_row_models(mix4, mix4b, pg4):
    return {"point": pg4, "mixture": mix4, "guided": Guided(mix4, mix4b, 2.5)}


@settings(max_examples=100)
@given(
    name=st.sampled_from(["point", "mixture", "guided"]),
    kind=st.sampled_from(["vp-linear", "vp-cosine", "edm"]),
    lead=st.sampled_from([(1,), (5,), (2, 3)]),
    lam=st.floats(-8.0, 8.0),
    spread=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_eps_per_row_lambda_matches_scalar_calls_bit_for_bit(
    mix4, mix4b, pg4, name, kind, lead, lam, spread, seed
):
    model, sched = per_row_models(mix4, mix4b, pg4)[name], Schedule(kind)
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.standard_normal(lead + (4,))
    same = model.eps(sched, x, np.full(lead, lam))
    assert same.shape == x.shape and same.tobytes() == model.eps(sched, x, lam).tobytes()
    lams = lam + spread * rng.uniform(-1.0, 1.0, lead)
    got = model.eps(sched, x, lams)
    for i in np.ndindex(lead):
        assert got[i].tobytes() == model.eps(sched, x[i], lams[i]).tobytes()


def test_mixture_per_row_moments_are_the_scalar_path_bits(vp, mix4):
    """A lambda per row and a column of lambdas give each lambda's scalar terms, and ``c`` its bits."""
    # squaring the per-row alpha and sigma with np.square, not Python's float
    # ** 2, moves 19 of these 20001 lambdas' variances by an ulp
    lams = np.linspace(-8.0, 8.0, 20001)
    got = mix4._lambda_terms(vp, lams, memo=False)
    column = mix4._lambda_terms(vp, lams[:, None], memo=False)
    scalar = [mix4._lambda_terms(vp, lam, memo=True) for lam in lams]
    assert got[0].tobytes() == column[0].tobytes() == np.array([m[0] for m in scalar]).tobytes()
    # var, alpha mu, D log(2 pi var) and -var: the scalar terms' last axis is the rows'
    for k in range(1, 5):
        assert got[k].tobytes() == np.concatenate([m[k] for m in scalar], axis=-1).tobytes()
        assert column[k].shape == got[k].shape + (1,)
        assert column[k].tobytes() == got[k].tobytes()
    c = vp.dlog_alpha_dlambda(lams[:, None])
    assert c.tobytes() == np.array([vp.dlog_alpha_dlambda(lam) for lam in lams]).tobytes()


@pytest.mark.parametrize("name", ["point", "mixture", "guided"])
def test_eps_rejects_bad_per_row_lambda(vp, mix4, mix4b, pg4, name):
    """``eps`` and ``linearize``, which share the lambda contract, refuse the same lambdas."""
    model = per_row_models(mix4, mix4b, pg4)[name]
    x = np.zeros((3, 4))
    for evaluate in (model.eps, model.linearize):
        for lams in (np.zeros(2), np.zeros((3, 1)), np.zeros((1, 3)), np.zeros(4)):
            with pytest.raises(ValueError, match="lambda has shape"):
                evaluate(vp, x, lams)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="lambda must be finite"):
                evaluate(vp, x, np.array([0.0, bad, 1.0]))


@settings(max_examples=60)
@given(
    name=st.sampled_from(["point", "mixture", "guided", "guided-same"]),
    layout=st.sampled_from(["block", "strided"]),
    points=st.integers(1, 5),
    rows=st.sampled_from([1, 7, 40, 1100]),  # 1100 rows take the mixture's large-call path
    num_probes=st.integers(1, 3),
    lam=st.floats(-6.0, 6.0),
    spread=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_block_lambda_gives_the_bits_of_a_call_per_point(
    vp, mix4, mix4b, pg4, name, layout, points, rows, num_probes, lam, spread, seed
):
    """``linearize``, its ``jvp`` and ``eps`` at a (P, 1) column: each point's scalar-lambda bits."""
    model = {**per_row_models(mix4, mix4b, pg4), "guided-same": Guided(mix4, mix4, 7.5)}[name]
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.standard_normal((points, rows, 4))
    v = rng.standard_normal((num_probes, points, rows, 4))
    lams = lam + spread * rng.uniform(-1.0, 1.0, (points, 1))
    x_in, v_in = (block_layout(a) if layout == "block" else laid_out(a, "strided") for a in (x, v))
    eps, d_eps, apply_jacobian = model.linearize(vp, x_in, lams)
    got = [model.eps(vp, x_in, lams), eps, d_eps, apply_jacobian(v_in).swapaxes(0, 1)]
    for p in range(points):
        eps, d_eps, apply_jacobian = model.linearize(vp, x[p], lams[p, 0])
        want = (model.eps(vp, x[p], lams[p, 0]), eps, d_eps, apply_jacobian(v[:, p]))
        assert [g[p].tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("name", ["point", "mixture", "guided"])
def test_a_lambda_that_does_not_broadcast_against_the_rows_raises(vp, mix4, mix4b, pg4, name):
    """Against (2, 3) rows: any shape that broadcasts without growing them, and nothing else."""
    model = per_row_models(mix4, mix4b, pg4)[name]
    x = np.ones((2, 3, 4))
    want = model.eps(vp, x, np.full((2, 3), 0.5))
    for shape in ((), (1,), (3,), (1, 3), (2, 1), (2, 3), (1, 1)):
        lams = np.full(shape, 0.5)
        eps, d_eps, apply_jacobian = model.linearize(vp, x, lams)
        assert eps.tobytes() == model.eps(vp, x, lams).tobytes() == want.tobytes()
    for shape in ((2,), (3, 2), (2, 3, 1), (1, 2, 3), (4, 1), (0,), (1, 1, 1)):
        for evaluate in (model.eps, model.linearize):
            with pytest.raises(ValueError, match=rf"lambda has shape \({shape[0]},"):
                evaluate(vp, x, np.zeros(shape))
    for lams in (np.array([[0.0], [np.nan]]), np.array([[np.inf]])):
        with pytest.raises(ValueError, match="lambda must be finite"):
            model.linearize(vp, x, lams)


# eps's peak allocation on sample-batch's state, in units of the state's bytes:
# the row-major arithmetic reached 6.25 by this measurement.  The offsets (2),
# their norms (0.5) and the output (1) measured 3.503 (numpy 2.4.6).
EPS_PEAK_ALLOCATION = 3.51


def test_mixture_eps_peak_allocation(vp, mix4):
    x = np.random.default_rng(0).standard_normal((16384, 4))
    mix4.eps(vp, x, 0.3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mix4.eps(vp, x, 0.3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= EPS_PEAK_ALLOCATION * x.nbytes, peak / x.nbytes


# -- the per-lambda memo ---------------------------------------------------------


def fresh_copy(model):
    """An equal mixture with an empty memo."""
    return GaussianMixture(weights=model.weights, means=model.means, stds=model.stds)


def evaluate(model, sched, x, lam, v):
    """eps, then linearize's eps, d_eps and J v: the bytes of each."""
    eps, d_eps, apply_jacobian = model.linearize(sched, x, lam)
    return [a.tobytes() for a in (model.eps(sched, x, lam), eps, d_eps, apply_jacobian(v))]


def oracle_bytes(model, sched, x, lam, v):
    """``evaluate``'s bytes from the row-major oracle."""
    eps, d_eps, jv = mixture_linearize_rowmajor(model, sched, x, lam, v)
    return [a.tobytes() for a in (eps, eps, d_eps, jv)]


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["vp-linear", "vp-cosine", "edm"]),
    lam=st.floats(-6.0, 6.0) | st.sampled_from([0.0, -0.0]),
    rows=st.sampled_from([(), (3,), (600,)]),  # small calls and a large one
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_memo_keeps_the_bytes(mix4, kind, lam, rows, seed):
    """Cold, warm, after the cap clears the memo and through an equal schedule: the oracle's bytes.

    lambda and -lambda are two entries, except that +0.0 and -0.0 share one.
    """
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.standard_normal(rows + (4,))
    v = rng.standard_normal((2,) + x.shape)
    sched, model = Schedule(kind), fresh_copy(mix4)
    want = oracle_bytes(model, sched, x, lam, v)
    assert evaluate(model, sched, x, lam, v) == want  # cold
    assert len(model._memo) == 1
    assert evaluate(model, sched, x, lam, v) == want  # warm
    assert evaluate(model, sched, x, -lam, v) == oracle_bytes(model, sched, x, -lam, v)
    for other in np.linspace(7.0, 8.0, models._LAMBDA_MEMO_SIZE):
        model.eps(sched, x, other)
    assert (id(sched), float(lam)) not in model._memo  # cleared once the memo was full
    assert evaluate(model, sched, x, lam, v) == want
    assert evaluate(model, Schedule(kind), x, lam, v) == want  # equal, not the same object
    other = Schedule("edm" if kind != "edm" else "vp-linear")  # at the same lambda
    assert evaluate(model, other, x, lam, v) == oracle_bytes(model, other, x, lam, v)


def test_mixture_memo_never_holds_more_than_its_cap(mix4):
    model, x = fresh_copy(mix4), np.ones(4)
    for i in range(3 * models._LAMBDA_MEMO_SIZE + 5):
        model.eps(Schedule("vp-linear"), x, 0.5)  # a fresh schedule each time
        assert 1 <= len(model._memo) <= models._LAMBDA_MEMO_SIZE
    for (ident, _), (sched, _) in model._memo.items():
        assert ident == id(sched)  # each key's schedule is alive, held by its entry


def test_mixture_memo_is_not_state(vp, mix4):
    """The memo fills on a scalar lambda only, and every copy rebuilds the model without it."""
    model, x = fresh_copy(mix4), np.ones((3, 4))
    model.eps(vp, x, np.array([0.1, 0.2, 0.3]))
    assert model._memo == {}  # a lambda per row computes its terms afresh
    model.eps(vp, x, 0.1)
    assert len(model._memo) == 1
    copies = [pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)]
    for again in copies + [dataclasses.replace(model)]:
        assert again._memo == {} and again.to_dict() == model.to_dict()
        assert not any(getattr(again, n).flags.writeable for n in ("weights", "means", "stds"))
        assert again.eps(vp, x, 0.1).tobytes() == model.eps(vp, x, 0.1).tobytes()
    assert len(model._memo) == 1


@pytest.mark.parametrize("num_datapoints", [64, 4096])
def test_a_table_build_leaves_the_memo_as_it_found_it(vp, vp_lam_range, mix4, mix4b, num_datapoints):
    """A build adds no entry and evicts none of a sampler's: 241 points in blocks of 64, 7 of one.

    An entry per grid point, as scalar-lambda calls made, would clear the
    128-entry memo twice over a 241-point build.
    """
    parts = fresh_copy(mix4), fresh_copy(mix4b)
    sampler_lams = np.linspace(*vp_lam_range, 11)
    for part in parts:
        for lam in sampler_lams:
            part.eps(vp, np.ones(4), lam)
    before = [dict(part._memo) for part in parts]
    cfg = EmsConfig(240 if num_datapoints == 64 else 6, num_datapoints, vp_lam_range, seed=2)
    for model in (parts[0], Guided(*parts, 2.5)):
        estimate_table(model, vp, cfg)
        for part, memo in zip(parts, before):
            assert part._memo.keys() == memo.keys()
            assert all(part._memo[key] is entry for key, entry in memo.items())


def test_model_parameters_are_read_only(vp, pg4):
    """Writes into a model's arrays raise, and a caller's later write to its own array is not seen."""
    weights, stds = np.array([0.4, 0.6]), np.array([0.8, 1.1])
    means = np.array([[0.6, -0.3], [-0.5, 0.4]])
    mix = GaussianMixture(weights=weights, means=means, stds=stds)
    point = PointGaussian(x0=means[0])
    x = np.array([0.2, -0.1])
    want = [m.eps(vp, x, 0.3).tobytes() for m in (mix, point)]
    arrays = [mix.weights, mix.means, mix.stds, point.x0]
    arrays += [copy.deepcopy(point).x0, pickle.loads(pickle.dumps(point)).x0, pg4.x0]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.1
    weights[:], means[:], stds[:] = 0.5, 0.0, 0.1
    assert [m.eps(vp, x, 0.3).tobytes() for m in (mix, point)] == want
    assert point.to_dict() == {"kind": "point-gaussian", "x0": [0.6, -0.3]}


# -- data sampling and diffusion ------------------------------------------------


def test_sample_data_point_mass(pg4):
    rng = np.random.default_rng(8)
    out = pg4.sample_data(rng, 3)
    assert out.shape == (3, 4)
    assert np.all(out == pg4.x0)


def test_sample_data_mixture_mean(mix4):
    rng = np.random.default_rng(9)
    n = 10_000
    out = mix4.sample_data(rng, n)
    want = mix4.weights @ mix4.means
    # per-coordinate mixture variance: sum w (s^2 + mu^2) - mean^2
    second = mix4.weights @ (mix4.stds[:, None] ** 2 + mix4.means**2)
    pooled_std = np.sqrt(second - want**2)
    assert np.all(np.abs(out.mean(axis=0) - want) <= 4 * pooled_std / np.sqrt(n))


def test_sample_data_deterministic(mix4):
    a = mix4.sample_data(np.random.default_rng(10), 50)
    b = mix4.sample_data(np.random.default_rng(10), 50)
    assert np.array_equal(a, b)


def test_forward_diffuse_no_noise_limit(vp, pg4):
    lam = 12.0  # sigma ~ 6e-6
    out = forward_diffuse(vp, pg4.x0, lam, np.random.default_rng(11))
    assert np.max(np.abs(out - pg4.x0)) < 1e-4


def test_forward_diffuse_variance(vp):
    rng = np.random.default_rng(12)
    lam = -0.7
    draws = forward_diffuse(vp, np.zeros((10_000, 2)), lam, rng)
    var = draws.var(axis=0)
    assert np.all(np.abs(var / float(vp.sigma_lambda(lam)) ** 2 - 1.0) < 0.05)


def test_forward_diffuse_deterministic(vp, pg4):
    a = forward_diffuse(vp, pg4.x0, 0.3, np.random.default_rng(13))
    b = forward_diffuse(vp, pg4.x0, 0.3, np.random.default_rng(13))
    assert np.array_equal(a, b)


# -- guided combination ---------------------------------------------------------


def test_guided_scale_one_equals_cond(vp, mix4, pg4):
    guided = Guided(cond=mix4, uncond=pg4, scale=1.0)
    rng = np.random.default_rng(14)
    x = rng.standard_normal(4)
    assert np.array_equal(guided.eps(vp, x, 0.5), mix4.eps(vp, x, 0.5))


def test_guided_combination_and_sampling(vp, mix4, pg4):
    guided = Guided(cond=mix4, uncond=pg4, scale=2.5)
    rng = np.random.default_rng(15)
    x, v = rng.standard_normal(4), rng.standard_normal(4)
    want = 2.5 * mix4.eps(vp, x, 0.2) - 1.5 * pg4.eps(vp, x, 0.2)
    assert np.allclose(guided.eps(vp, x, 0.2), want, atol=1e-14)
    want_jvp = 2.5 * jvp(mix4, vp, x, 0.2, v) - 1.5 * jvp(pg4, vp, x, 0.2, v)
    assert np.allclose(jvp(guided, vp, x, 0.2, v), want_jvp, atol=1e-14)
    data = guided.sample_data(np.random.default_rng(16), 20)
    assert np.array_equal(data, mix4.sample_data(np.random.default_rng(16), 20))


def test_dimension_mismatch_raises(vp, mix4):
    with pytest.raises(ValueError):
        mix4.eps(vp, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        Guided(cond=mix4, uncond=PointGaussian(x0=np.zeros(2)), scale=1.0)
    with pytest.raises(ValueError, match="scale must be finite"):
        Guided(mix4, mix4, "2")


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.5, 0.6], means=[[0.0], [1.0]], stds=[1.0, 1.0])
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.5, 0.5], means=[[0.0], [1.0]], stds=[1.0, -1.0])
    with pytest.raises(ValueError):
        GaussianMixture(weights=[1.0], means=[[0.0, 1.0]], stds=[1.0, 2.0])
    with pytest.raises(ValueError, match="weights must be positive"):
        GaussianMixture(weights=[1.0, 0.0], means=[[0.0], [1.0]], stds=[1.0, 1.0])
    with pytest.raises(ValueError, match="component dimension must be >= 1"):
        GaussianMixture(weights=[1.0], means=[[]], stds=[1.0])


@pytest.mark.parametrize("x0", [np.zeros((2, 2)), np.zeros(0)], ids=["2-d", "empty"])
def test_point_gaussian_validation(x0):
    with pytest.raises(ValueError, match="x0 must be a vector of dimension >= 1"):
        PointGaussian(x0=x0)


def test_sample_data_rejects_no_draws(mix4, pg4):
    for model in (mix4, pg4):
        with pytest.raises(ValueError, match="n must be >= 1"):
            model.sample_data(np.random.default_rng(0), 0)


BAD_INPUT_CALLS = [
    ("mix4", "eps"),
    ("mix4", "linearize"),
    ("pg4", "eps"),
    ("pg4", "linearize"),
    ("guided", "eps"),
    ("guided", "linearize"),
]


def model_method(request, name, method):
    if name == "guided":
        model = Guided(request.getfixturevalue("mix4"), request.getfixturevalue("pg4"), 2.0)
    else:
        model = request.getfixturevalue(name)
    return getattr(model, method)


@pytest.mark.parametrize("name, method", BAD_INPUT_CALLS)
def test_models_reject_0d_x(request, vp, name, method):
    # a 0-d x raised a bare IndexError from x.shape[-1]
    with pytest.raises(ValueError, match=r"x must have shape \(\.\.\., 4\), got a 0-d array"):
        model_method(request, name, method)(vp, np.float64(0.5), 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, method", BAD_INPUT_CALLS)
def test_models_reject_non_finite_lambda(request, vp, name, method, lam):
    # a NaN lambda warned in logaddexp and returned NaN; +inf returned quietly
    with pytest.raises(ValueError, match="lambda must be finite"):
        model_method(request, name, method)(vp, np.zeros((3, 4)), lam)


def test_jvp_rejects_probes_that_do_not_end_in_x_shape(vp, mix4):
    apply_jacobian = mix4.linearize(vp, np.zeros((1, 4)), 0.0)[2]
    with pytest.raises(ValueError, match="x must have shape"):
        apply_jacobian(np.float64(1.0))
    with pytest.raises(ValueError, match="does not end in x's shape"):
        apply_jacobian(np.zeros((3, 4)))  # would broadcast x, not v
    # v still broadcasts against x: a (D,) v, or one with length-1 axes
    assert apply_jacobian(np.ones(4)).shape == (1, 4)
    assert apply_jacobian(np.ones((2, 1, 4))).shape == (2, 1, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["weights", "means", "stds", "x0"])
def test_models_reject_non_finite_parameters(field, bad):
    # a NaN weight passed the sum check: abs(nan - 1) > 1e-12 is False
    value = {
        "weights": [bad, 1.0],
        "means": [[0.0, bad], [1.0, 0.0]],
        "stds": [1.0, bad],
        "x0": [0.0, bad, 1.0],
    }[field]
    good = {"weights": [0.5, 0.5], "means": [[0.0, 1.0], [1.0, 0.0]], "stds": [1.0, 1.0]}
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        if field == "x0":
            PointGaussian(x0=value)
        else:
            GaussianMixture(**{**good, field: value})


# -- one call per model: linearize ---------------------------------------------------


@settings(max_examples=80)
@given(
    which=st.sampled_from(["point", "mixture", "mixture-b", "guided", "guided-nested"]),
    num_probes=st.sampled_from([1, 3]),
    lam=st.floats(-4.5, 4.5),
    scale=st.floats(-1.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_linearize_equals_composition_from_separate_calls_bit_for_bit(
    vp, pg4, mix4, mix4b, which, num_probes, lam, scale, seed
):
    guided = Guided(cond=mix4, uncond=mix4b, scale=scale)
    model = {
        "point": pg4,
        "mixture": mix4,
        "mixture-b": mix4b,
        "guided": guided,
        "guided-nested": Guided(cond=guided, uncond=Guided(mix4b, pg4, 1.5), scale=0.5 - scale),
    }[which]
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.standard_normal((6, 4))
    probes = (rng.integers(0, 2, size=(num_probes, 6, 4)) * 2 - 1).astype(float)
    eps, d_eps, apply_jacobian = model.linearize(vp, x, lam)
    got = (eps, d_eps, apply_jacobian(probes))
    want = composed_linearize(model, vp, x, lam, probes)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert eps.tobytes() == model.eps(vp, x, lam).tobytes()


@pytest.mark.parametrize("guided", [False, True])
def test_table_build_makes_one_posterior_per_mixture_per_grid_point(
    vp, mix4, mix4b, monkeypatch, guided
):
    """One per block: at K = 4096 a block is one grid point, and at K = 32 the whole grid."""
    model = Guided(cond=mix4, uncond=mix4b, scale=2.5) if guided else mix4
    posterior = GaussianMixture._posterior
    calls = []

    def counted(self, *args):
        calls.append(self)
        return posterior(self, *args)

    monkeypatch.setattr(GaussianMixture, "_posterior", counted)
    for num_datapoints, num_blocks in ((4096, 11), (32, 1)):
        calls.clear()
        cfg = EmsConfig(num_timesteps=10, num_datapoints=num_datapoints, lam_range=(-2.0, 2.0))
        estimate_table(model, vp, cfg)
        want = [mix4, mix4b] * num_blocks if guided else [mix4] * num_blocks
        assert calls == want  # models compare by identity


# -- serialization ---------------------------------------------------------------


def test_model_serialization_round_trip(mix4, pg4):
    for model in (pg4, mix4, Guided(cond=mix4, uncond=pg4, scale=3.0)):
        again = model_from_dict(model.to_dict())
        assert again.to_dict() == model.to_dict()
        assert model_id(again) == model_id(model)


@pytest.mark.parametrize("guided", [False, True])
def test_eval_counter_delegates_and_counts_only_eps(vp, mix4, pg4, guided):
    model = Guided(cond=mix4, uncond=pg4, scale=2.5) if guided else mix4
    counted = EvalCounter(model)
    assert (counted.dim, counted.kind) == (model.dim, model.kind)
    assert counted.to_dict() == model.to_dict() and model_id(counted) == model_id(model)
    rng = np.random.default_rng(3)
    x, v, lam = rng.standard_normal((5, 4)), rng.standard_normal((5, 4)), 0.4
    assert np.array_equal(jvp(counted, vp, x, lam, v), jvp(model, vp, x, lam, v))
    for got, want in zip(eps_along_ode(counted, vp, x, lam), eps_along_ode(model, vp, x, lam)):
        assert np.array_equal(got, want)
    draws = [m.sample_data(np.random.default_rng(5), 7) for m in (counted, model)]
    assert np.array_equal(*draws)
    cfg = EmsConfig(num_timesteps=16, num_datapoints=64, lam_range=(-2.0, 2.0), seed=1)
    got, want = estimate_table(counted, vp, cfg), estimate_table(model, vp, cfg)
    for name in ("lambda_grid", "l", "s", "b", "l_dot"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.meta == want.meta
    assert counted.calls == 0  # only eps counts
    assert np.array_equal(counted.eps(vp, x, lam), model.eps(vp, x, lam))
    assert counted.calls == 1
    again = pickle.loads(pickle.dumps(counted))
    assert (again.calls, again.to_dict()) == (1, model.to_dict())


@pytest.mark.parametrize("inner", [None, "mixture", {"kind": "point-gaussian", "x0": [0.0]}])
def test_eval_counter_rejects_a_non_model(inner):
    # the shared members check's message (errors.check_members), as estimate_table's
    named = type(inner).__name__
    with pytest.raises(ValueError, match=rf"^expected a model, got a {named} without \['eps'\]$"):
        EvalCounter(inner)


def test_model_from_dict_errors(mix4, pg4):
    with pytest.raises(ValueError):
        model_from_dict({"x0": [0.0]})
    with pytest.raises(ValueError):
        model_from_dict({"kind": "neural-net"})
    with pytest.raises(ValueError, match="^expected a model dict, got list$"):
        model_from_dict([1])
    with pytest.raises(ValueError, match="^expected a model dict, got list$"):
        model_from_dict({**Guided(cond=mix4, uncond=pg4, scale=2.0).to_dict(), "cond": [1]})
    mixture = mix4.to_dict()
    del mixture["means"]
    guided = Guided(cond=mix4, uncond=pg4, scale=2.0).to_dict()
    del guided["uncond"]
    for data, key in [({"kind": "point-gaussian"}, "x0"), (mixture, "means"), (guided, "uncond")]:
        with pytest.raises(ValueError, match=f"^model dict missing key '{key}'$"):
            model_from_dict(data)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_guided_rejects_non_finite_scale(mix4, pg4, scale):
    with pytest.raises(ValueError, match="scale"):
        Guided(cond=mix4, uncond=pg4, scale=scale)
    data = Guided(cond=mix4, uncond=pg4, scale=2.0).to_dict()
    data["scale"] = scale
    with pytest.raises(ValueError, match="scale"):
        model_from_dict(data)


# -- reference solver -------------------------------------------------------------


def test_reference_matches_closed_form(vp, pg4):
    rng = np.random.default_rng(17)
    x_start = rng.standard_normal(4)
    tol = 1e-10
    got = reference_solve(pg4, vp, x_start, -2.0, 3.0, tol=tol)
    want = closed_form_trajectory(vp, pg4, x_start, -2.0, 3.0)
    assert np.max(np.abs(got - want)) < 10 * tol


def test_reference_zero_span(vp, pg4):
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(reference_solve(pg4, vp, x, 0.5, 0.5), x)


def test_reference_tighter_tol_reduces_error(vp, pg4):
    rng = np.random.default_rng(18)
    x_start = rng.standard_normal(4)
    want = closed_form_trajectory(vp, pg4, x_start, -4.0, 4.0)

    def err(tol):
        return np.max(np.abs(reference_solve(pg4, vp, x_start, -4.0, 4.0, tol=tol) - want))

    assert err(5e-7) < err(1e-6)
    assert err(1e-10) < 1e-2 * err(1e-5)


def test_reference_invariant_drift(vp, pg4):
    rng = np.random.default_rng(19)
    x_start = rng.standard_normal(4)
    lams = np.linspace(-3.0, 3.5, 9)
    states = reference_states(pg4, vp, x_start, -3.0, lams, tol=1e-10)
    ks = [
        (s - vp.alpha_lambda(l) * pg4.x0) / vp.sigma_lambda(l) for s, l in zip(states, lams)
    ]
    drift = max(np.max(np.abs(k - ks[0])) for k in ks)
    assert drift < 1e-9


def test_reference_rows_match_the_point_mass_closed_form(vp, pg4):
    x_start = np.random.default_rng(20).standard_normal((8, 4))
    tol = 1e-10
    got = reference_solve(pg4, vp, x_start, -2.0, 3.0, tol=tol)
    want = closed_form_trajectory(vp, pg4, x_start, -2.0, 3.0)
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1))
    assert np.all(np.max(np.abs(got - want), axis=-1) < REFERENCE_TOL_MULTIPLE * tol * scale)


# reference_solve's accuracy contract: each row within this many tol * max(1,
# max|x|) of a tol-1e-13 solve; the rows measured here came within 2.6
REFERENCE_TOL_MULTIPLE = 10.0


@pytest.mark.parametrize(
    "name, kind",
    [("mix4", "vp-linear"), ("mix4", "edm"), ("guided", "vp-linear"), ("guided_point", "vp-cosine")],
)
def test_reference_rows_match_per_row_solve_ivp(request, name, kind):
    mix4 = request.getfixturevalue("mix4")
    model = {
        "mix4": mix4,
        "guided": Guided(mix4, request.getfixturevalue("mix4b"), 2.5),
        "guided_point": Guided(mix4, request.getfixturevalue("pg4"), 2.5),
    }[name]
    sched = Schedule(kind)
    t_start = 80.0 if kind == "edm" else 0.99
    lam0, lam1 = float(sched.lambda_of_t(t_start)), float(sched.lambda_of_t(sched.t_domain[0] + 1e-3))
    x_start = sched.sigma_lambda(lam0) * np.random.default_rng(21).standard_normal((4, 4))
    tol = 1e-10
    got = reference_solve(model, sched, x_start, lam0, lam1, tol=tol)
    want = reference_solve_ivp(model, sched, x_start, lam0, lam1, 1e-13)
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1))
    assert np.all(np.max(np.abs(got - want), axis=-1) < REFERENCE_TOL_MULTIPLE * tol * scale)


@pytest.mark.parametrize("kind", ["vp-linear", "edm"])
@pytest.mark.parametrize("name", ["point", "mixture", "guided"])
def test_reference_has_the_stagewise_loops_bits(mix4, mix4b, pg4, name, kind):
    model = per_row_models(mix4, mix4b, pg4)[name]
    sched = Schedule(kind)
    t_start = 80.0 if kind == "edm" else 0.99
    lam0, lam1 = float(sched.lambda_of_t(t_start)), float(sched.lambda_of_t(sched.t_domain[0] + 1e-3))
    # rows from 0.01 to 30 times the start's noise scale retire at different steps
    scales = np.array([0.01, 0.1, 1.0, 3.0, 10.0, 30.0])[:, None]
    x_start = sched.sigma_lambda(lam0) * scales * np.random.default_rng(22).standard_normal((6, 4))
    for tol in (1e-6, 1e-10):
        got = reference_solve(model, sched, x_start, lam0, lam1, tol=tol)
        want, rejections, retired_at = reference_solve_stagewise(
            model, sched, x_start, lam0, lam1, tol
        )
        assert got.tobytes() == want.tobytes(), tol
        assert len(set(retired_at)) > 1, tol
        # the point mass's trajectory on edm is smooth enough that no step is rejected
        assert rejections > 0 or (name, kind) == ("point", "edm"), tol


@settings(max_examples=15)
@given(
    name=st.sampled_from(["point", "mixture", "guided"]),
    n_rows=st.integers(1, 5),
    picks=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_reference_row_is_the_same_bits_alone_and_in_any_batch(
    vp, mix4, mix4b, pg4, name, n_rows, picks, seed
):
    model = per_row_models(mix4, mix4b, pg4)[name]
    rng = np.random.default_rng(seed)
    x = vp.sigma_lambda(-2.0) * rng.standard_normal((n_rows, 4))
    rows = [p % n_rows for p in picks]  # rows in any order, repeats included
    got = reference_solve(model, vp, x[rows], -2.0, 1.0, tol=1e-6)
    alone = {i: reference_solve(model, vp, x[i], -2.0, 1.0, tol=1e-6) for i in set(rows)}
    for i, state in zip(rows, got):
        assert state.tobytes() == alone[i].tobytes()
    grid = reference_solve(model, vp, x[rows].reshape(1, -1, 4), -2.0, 1.0, tol=1e-6)
    assert grid.shape == (1, len(rows), 4) and grid.tobytes() == got.tobytes()


class _Stub(ModelSpec):
    """A 4-D model whose eps is ``fn(x, lam)`` with lam broadcast per row."""

    def __init__(self, fn):
        self.fn = fn

    @property
    def dim(self):
        return 4

    def eps(self, sched, x, lam):
        x, lam = self._check_input(x, lam)
        return self.fn(x, np.broadcast_to(lam, x.shape[:-1])[..., None])


def test_reference_non_finite_rhs_raises(vp, mix4):
    # eps turns inf past lambda 0.5, partway through the span
    model = _Stub(lambda x, lam: np.where(lam > 0.5, np.inf, mix4.eps(vp, x, lam[..., 0])))
    with pytest.raises(ConvergenceError, match="non-finite"):
        reference_solve(model, vp, np.ones((3, 4)), -1.0, 2.0)


def test_reference_non_finite_state_raises(vp):
    # eps of 1e307 everywhere: every stage's right-hand side is finite, but a stage's sum is not
    model = _Stub(lambda x, lam: np.full(x.shape, 1e307))
    lam_start, lam_end = (float(vp.lambda_of_t(t)) for t in (1.0, 1e-3))
    with pytest.raises(ConvergenceError, match="^reference integration reached a non-finite state$"):
        reference_solve(model, vp, np.ones((2, 4)), lam_start, lam_end)


def test_reference_non_finite_error_estimate_raises(vp, mix4):
    # from the origin, a tolerance of 1e-200 scales the first step's error estimate past the floats
    lam_start, lam_end = (float(vp.lambda_of_t(t)) for t in (1.0, 1e-3))
    with pytest.raises(ConvergenceError, match="error estimate is not finite"):
        reference_solve(mix4, vp, np.zeros((1, 4)), lam_start, lam_end, tol=1e-200)


def test_reference_step_below_min_step_raises(vp):
    # a jump of 1e12 at lambda 0.5 needs steps near tol / 1e12, far below the floats' spacing
    model = _Stub(lambda x, lam: np.where(lam > 0.5, 1e12, 0.0) + 0.0 * x)
    with pytest.raises(ConvergenceError, match="step fell below"):
        reference_solve(model, vp, np.ones((2, 4)), -1.0, 2.0)


def test_reference_step_cap_raises(vp, mix4, monkeypatch):
    assert models.REFERENCE_MAX_STEPS == 10_000
    x = np.ones((2, 4))
    monkeypatch.setattr(models, "REFERENCE_MAX_STEPS", 200)
    assert np.all(np.isfinite(reference_solve(mix4, vp, x, -1.0, 2.0)))
    monkeypatch.setattr(models, "REFERENCE_MAX_STEPS", 3)
    with pytest.raises(ConvergenceError, match="more than 3 steps"):
        reference_solve(mix4, vp, x, -1.0, 2.0)


def test_reference_rejects_non_finite_or_0d_start(vp, mix4):
    with pytest.raises(ValueError, match="x_start must be finite"):
        reference_solve(mix4, vp, np.array([[0.0, 1.0, np.nan, 0.0]]), 0.0, 1.0)
    with pytest.raises(ValueError, match="0-d"):
        reference_solve(mix4, vp, np.float64(1.0), 0.0, 1.0)


def test_reference_argument_errors(vp, pg4):
    with pytest.raises(ValueError):
        reference_solve(pg4, vp, np.zeros(4), 1.0, 0.0)
    with pytest.raises(ValueError):
        reference_solve(pg4, vp, np.zeros(4), 0.0, 1.0, tol=0.0)


@pytest.mark.parametrize("kind", ["vp-linear", "edm"])
def test_reference_rejects_a_span_outside_the_schedule(kind, mix4):
    # vp-linear's domain is about [-5.02, inf) and edm's [-4.38, 6.21]; a span 50 below
    # its lower end used to be integrated as if the schedule extended there
    sched = Schedule(kind)
    lo, hi = sched.lam_domain
    x = np.zeros((2, 4))
    for span in ((lo - 50.0, min(hi, lo + 1.0)), (np.nextafter(lo, -np.inf), lo + 1.0)):
        with pytest.raises(DomainError, match="outside the schedule's lambda domain"):
            reference_solve(mix4, sched, x, *span)
    if np.isfinite(hi):
        with pytest.raises(DomainError, match="outside the schedule's lambda domain"):
            reference_solve(mix4, sched, x, hi - 1.0, hi + 0.1)
    # the domain's own ends are inside it
    end = min(hi, lo + 0.5)
    assert np.all(np.isfinite(reference_solve(mix4, sched, x, lo, end)))
    assert np.all(np.isfinite(reference_solve(mix4, sched, x, end - 0.5, end)))


@pytest.mark.parametrize(
    "lam_start, lam_end, tol",
    [
        (0.0, 1.0, np.nan),
        (0.0, 1.0, np.inf),
        (0.0, np.inf, 1e-8),
        (np.nan, 1.0, 1e-8),
        (-np.inf, 1.0, 1e-8),
        (0.0, np.nan, 1e-8),
    ],
)
def test_reference_rejects_non_finite_arguments(vp, mix4, lam_start, lam_end, tol):
    # each of these ran solve_ivp without end
    with pytest.raises(ValueError, match="finite"):
        reference_solve(mix4, vp, np.zeros(4), lam_start, lam_end, tol=tol)


def test_reference_tableau_is_scipys_dop853_bit_for_bit():
    def dense(rows, width):
        out = np.zeros((len(rows), width))
        for i, terms in enumerate(rows):
            stages = [k for k, _ in terms]
            assert stages == sorted(set(stages)), f"row {i} lists a stage twice or out of order"
            assert all(type(c) is float and c != 0 for _, c in terms), f"row {i}"
            out[i, stages] = [c for _, c in terms]
        return out

    # every entry is compared, so a missing or extra nonzero coefficient fails too
    n = DOP853.n_stages
    assert dense(models._A_TERMS, n).tobytes() == DOP853.A.tobytes()
    assert dense([models._B_TERMS], n)[0].tobytes() == DOP853.B.tobytes()
    assert dense([models._E3_TERMS], n + 1)[0].tobytes() == DOP853.E3.tobytes()
    assert dense([models._E5_TERMS], n + 1)[0].tobytes() == DOP853.E5.tobytes()
    assert np.array(models._C).tobytes() == DOP853.C.tobytes()
    assert models._ERROR_EXPONENT == -1.0 / (DOP853.error_estimator_order + 1)
    # the running sums add each stage's derivative over one run of rows with no zero
    # coefficient in it, and stage 0 starts every row
    sums = dense(models._SUMS, n)
    for k, (lo, hi, coef) in enumerate(models._STAGE_COLUMNS):
        assert np.array_equal(np.flatnonzero(sums[:, k]), np.arange(lo, hi)), k
        assert coef.ravel().tobytes() == sums[lo:hi, k].tobytes(), k
    assert models._STAGE_COLUMNS[0][:2] == (0, len(models._SUMS))


def test_the_package_imports_without_scipy():
    src = str(Path(models.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, emsolve, emsolve.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
