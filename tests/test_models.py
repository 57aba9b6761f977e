import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp as scipy_logsumexp

from emsolve import (
    EmsConfig,
    EvalCounter,
    GaussianMixture,
    Guided,
    PointGaussian,
    Schedule,
    estimate_table,
    forward_diffuse,
    model_from_dict,
    model_id,
    reference_solve,
)
from emsolve.models import _logsumexp, _short_sum


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
            grad[d] = (mix4.log_density(vp, x + e, lam) - mix4.log_density(vp, x - e, lam)) / (
                2 * h
            )
        want = -vp.sigma_lambda(lam) * grad
        got = mix4.eps(vp, x, lam)
        assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-12) < 1e-5


# -- Jacobian-vector products -------------------------------------------------


def test_jvp_point_gaussian(vp, pg4):
    rng = np.random.default_rng(3)
    x, v = rng.standard_normal(4), rng.standard_normal(4)
    lam = 1.1
    assert np.allclose(pg4.jvp(vp, x, lam, v), v / vp.sigma_lambda(lam), atol=1e-14)


def test_jvp_matches_finite_difference(vp, mix4):
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(25):
        lam = rng.uniform(-3.0, 3.0)
        x = rng.standard_normal(4)
        v = rng.standard_normal(4)
        fd = (mix4.eps(vp, x + h * v, lam) - mix4.eps(vp, x - h * v, lam)) / (2 * h)
        got = mix4.jvp(vp, x, lam, v)
        assert np.max(np.abs(got - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-5


def test_jvp_zero_vector(vp, mix4):
    assert np.allclose(mix4.jvp(vp, np.ones(4), 0.5, np.zeros(4)), 0.0)


def test_jvp_linearity(vp, mix4):
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = rng.uniform(-4.0, 4.0)
        x = rng.standard_normal(4)
        v, w = rng.standard_normal(4), rng.standard_normal(4)
        a, b = rng.standard_normal(2)
        combined = mix4.jvp(vp, x, lam, a * v + b * w)
        split = a * mix4.jvp(vp, x, lam, v) + b * mix4.jvp(vp, x, lam, w)
        assert np.max(np.abs(combined - split)) < 1e-9


# -- lambda-derivatives along the ODE ---------------------------------------------


def eps_dlambda(model, sched, x, lam):
    """The lambda-partial of eps at fixed x: d_eps minus the Jacobian term."""
    eps, d_eps = model.eps_along_ode(sched, x, lam)
    flow = sched.dlog_alpha_dlambda(lam) * x - sched.sigma_lambda(lam) * eps
    return d_eps - model.jvp(sched, x, lam, flow)


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
            eps, d_eps = model.eps_along_ode(sched, x, lam)
            assert np.array_equal(eps, model.eps(sched, x, lam))
            flow = sched.dlog_alpha_dlambda(lam) * x - sched.sigma_lambda(lam) * eps
            want = richardson_eps_dlambda(model, sched, x, lam, 4e-3) + model.jvp(
                sched, x, lam, flow
            )
            assert np.max(np.abs(d_eps - want)) <= 1e-7 * np.max(np.abs(want))


def test_point_mass_d_eps_is_zero(vp, edm, pg4):
    rng = np.random.default_rng(21)
    for sched in (vp, edm):
        x = rng.standard_normal((5, 4))
        eps, d_eps = pg4.eps_along_ode(sched, x, 0.7)
        assert np.array_equal(eps, pg4.eps(sched, x, 0.7))
        assert np.array_equal(d_eps, np.zeros((5, 4)))


@pytest.mark.parametrize("scale", [1.0, 2.5, -0.5])
def test_guided_lambda_partial_is_linear(vp, mix4, pg4, scale):
    # the lambda-partial combines linearly; d_eps then follows the guided ODE
    guided = Guided(cond=mix4, uncond=pg4, scale=scale)
    rng = np.random.default_rng(22)
    for lam in (-2.0, 0.3, 2.5):
        x = rng.standard_normal((3, 4))
        eps, d_eps = guided.eps_along_ode(vp, x, lam)
        assert np.array_equal(eps, guided.eps(vp, x, lam))
        want = scale * eps_dlambda(mix4, vp, x, lam) + (1.0 - scale) * eps_dlambda(
            pg4, vp, x, lam
        )
        got = eps_dlambda(guided, vp, x, lam)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        fd = richardson_eps_dlambda(guided, vp, x, lam, 4e-3)
        flow = vp.dlog_alpha_dlambda(lam) * x - vp.sigma_lambda(lam) * eps
        assert np.max(np.abs(d_eps - fd - guided.jvp(vp, x, lam, flow))) <= 1e-7 * np.max(
            np.abs(d_eps)
        )


# -- private reductions: restatements that keep np.sum's and scipy's bits ----------

_logsumexp_rows = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
    # a few repeated values force ties with the maximum
    elements=st.one_of(
        st.sampled_from([0.0, -1.5, 3.0, -np.inf, np.inf, np.nan]),
        st.floats(-800.0, 800.0),
    ),
)


@settings(max_examples=300)
@given(a=_logsumexp_rows, keepdims=st.booleans())
def test_logsumexp_restatement_matches_scipy_bit_for_bit(a, keepdims):
    with np.errstate(all="ignore"):
        want = scipy_logsumexp(a, axis=-1, keepdims=keepdims)
    got = _logsumexp(a, keepdims=keepdims)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("axis", [-1, -2])
@pytest.mark.parametrize("terms", range(1, 8))
def test_short_sum_matches_np_sum_bit_for_bit(axis, terms):
    rng = np.random.default_rng(terms)
    shape = (50, 3, terms) if axis == -1 else (50, terms, 4)
    # magnitudes over 16 decades make any change of summation order visible
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    for keepdims in (False, True):
        want = np.sum(a, axis=axis, keepdims=keepdims)
        assert np.array_equal(_short_sum(a, axis=axis, keepdims=keepdims), want)
    row = a[0, 0] if axis == -1 else a[0, :, 0]
    assert np.array_equal(_short_sum(row), np.sum(row))


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
    want_jvp = 2.5 * mix4.jvp(vp, x, 0.2, v) - 1.5 * pg4.jvp(vp, x, 0.2, v)
    assert np.allclose(guided.jvp(vp, x, 0.2, v), want_jvp, atol=1e-14)
    data = guided.sample_data(np.random.default_rng(16), 20)
    assert np.array_equal(data, mix4.sample_data(np.random.default_rng(16), 20))


def test_dimension_mismatch_raises(vp, mix4):
    with pytest.raises(ValueError):
        mix4.eps(vp, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        Guided(cond=mix4, uncond=PointGaussian(x0=np.zeros(2)), scale=1.0)


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.5, 0.6], means=[[0.0], [1.0]], stds=[1.0, 1.0])
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.5, 0.5], means=[[0.0], [1.0]], stds=[1.0, -1.0])
    with pytest.raises(ValueError):
        GaussianMixture(weights=[1.0], means=[[0.0, 1.0]], stds=[1.0, 2.0])


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
    assert np.array_equal(counted.jvp(vp, x, lam, v), model.jvp(vp, x, lam, v))
    for got, want in zip(counted.eps_along_ode(vp, x, lam), model.eps_along_ode(vp, x, lam)):
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


def test_model_from_dict_errors():
    with pytest.raises(ValueError):
        model_from_dict({"x0": [0.0]})
    with pytest.raises(ValueError):
        model_from_dict({"kind": "neural-net"})


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
    states = reference_solve(pg4, vp, x_start, -3.0, 3.5, tol=1e-10, lam_eval=lams)
    ks = [
        (s - vp.alpha_lambda(l) * pg4.x0) / vp.sigma_lambda(l) for s, l in zip(states, lams)
    ]
    drift = max(np.max(np.abs(k - ks[0])) for k in ks)
    assert drift < 1e-9


def test_reference_argument_errors(vp, pg4):
    with pytest.raises(ValueError):
        reference_solve(pg4, vp, np.zeros(4), 1.0, 0.0)
    with pytest.raises(ValueError):
        reference_solve(pg4, vp, np.zeros(4), 0.0, 1.0, tol=0.0)
