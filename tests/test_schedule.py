import numpy as np
import pytest

from emsolve import DomainError, Schedule, make_time_grid, schedules_equal
from emsolve.schedule import UNIFORM_LAMBDA, UNIFORM_T


def test_alpha_edm_is_one(edm):
    assert edm.alpha(80.0) == 1.0
    assert edm.alpha(0.002) == 1.0


def test_alpha_vp_linear_endpoints(vp):
    assert vp.alpha(0.0) == pytest.approx(1.0, abs=1e-15)
    # closed-form exponent at t=1: -(beta1-beta0)/4 - beta0/2 = -5.025
    assert vp.alpha(1.0) == pytest.approx(np.exp(-5.025), rel=1e-12)


def test_sigma_examples(vp, edm):
    assert edm.sigma(0.002) == 0.002
    assert vp.sigma(0.0) == 0.0
    assert vp.sigma(1.0) == pytest.approx(np.sqrt(1.0 - np.exp(-5.025) ** 2), rel=1e-12)


def test_lambda_examples(vp, edm):
    assert edm.lambda_of_t(1.0) == 0.0
    assert edm.lambda_of_t(80.0) == pytest.approx(-np.log(80.0), rel=1e-12)
    # symmetry point: alpha = sigma exactly where lambda = 0
    t_mid = float(vp.t_of_lambda(0.0))
    assert vp.alpha(t_mid) == pytest.approx(vp.sigma(t_mid), rel=1e-9)


def test_t_of_lambda_examples(vp, edm):
    assert edm.t_of_lambda(0.0) == pytest.approx(1.0, rel=1e-12)
    assert edm.t_of_lambda(-np.log(80.0)) == pytest.approx(80.0, abs=1e-6)
    lam = vp.lambda_of_t(0.5)
    assert vp.t_of_lambda(lam) == pytest.approx(0.5, rel=1e-9)


def test_domain_errors(vp, edm):
    with pytest.raises(DomainError):
        vp.alpha(1.5)
    with pytest.raises(DomainError):
        edm.sigma(100.0)
    with pytest.raises(DomainError):
        vp.lambda_of_t(0.0)  # sigma(0) = 0
    with pytest.raises(DomainError):
        edm.t_of_lambda(10.0)  # above lambda(t_min)


@pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine", "edm"])
def test_lambda_round_trip(kind):
    sched = Schedule(kind)
    lo, hi = sched.t_domain
    lo = max(lo, 1e-3)
    rng = np.random.default_rng(0)
    ts = rng.uniform(lo, hi, 1000)
    back = np.asarray(sched.t_of_lambda(sched.lambda_of_t(ts)))
    assert np.max(np.abs(back - ts) / ts) < 1e-9


@pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
def test_variance_preserving(kind):
    sched = Schedule(kind)
    ts = np.linspace(1e-4, sched.t_domain[1], 500)
    total = sched.alpha(ts) ** 2 + sched.sigma(ts) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_dlog_alpha_dlambda(vp, edm):
    assert edm.dlog_alpha_dlambda(2.0) == 0.0
    assert vp.dlog_alpha_dlambda(0.0) == pytest.approx(0.5, abs=1e-15)
    # central finite difference of log alpha over lambda, step 1e-4
    for lam in np.linspace(-4.5, 4.0, 40):
        h = 1e-4
        fd = (np.log(vp.alpha_lambda(lam + h)) - np.log(vp.alpha_lambda(lam - h))) / (2 * h)
        assert abs(float(vp.dlog_alpha_dlambda(lam)) - fd) < 1e-6


def test_make_time_grid_single_step(vp):
    g = make_time_grid(vp, 1, UNIFORM_LAMBDA, 1.0, 0.1)
    assert g.timesteps.tolist() == [1.0, 0.1]


def test_make_time_grid_edm_geometric_mean(edm):
    g = make_time_grid(edm, 2, UNIFORM_LAMBDA, 80.0, 0.002)
    assert g.timesteps[1] == pytest.approx(np.sqrt(80.0 * 0.002), rel=1e-12)


def test_make_time_grid_uniform_t(vp):
    g = make_time_grid(vp, 4, UNIFORM_T, 1.0, 0.2)
    assert np.allclose(g.timesteps, [1.0, 0.8, 0.6, 0.4, 0.2])


def test_uniform_lambda_spacing(vp):
    g = make_time_grid(vp, 37, UNIFORM_LAMBDA, 1.0, 1e-3)
    diffs = np.diff(g.lambdas)
    assert np.max(np.abs(diffs - diffs[0])) < 1e-12
    assert np.all(diffs > 0)
    assert g.timesteps[0] == 1.0 and g.timesteps[-1] == 1e-3


def test_make_time_grid_errors(vp):
    with pytest.raises(ValueError):
        make_time_grid(vp, 0, UNIFORM_LAMBDA, 1.0, 0.1)
    with pytest.raises(ValueError):
        make_time_grid(vp, 4, UNIFORM_LAMBDA, 0.1, 1.0)
    with pytest.raises(ValueError):
        make_time_grid(vp, 4, "geometric", 1.0, 0.1)


def test_schedule_serialization_round_trip():
    for kind, params in [("vp-linear", {"beta0": 0.05, "beta1": 15.0}), ("edm", {})]:
        sched = Schedule(kind, params=params)
        again = Schedule.from_dict(sched.to_dict())
        assert schedules_equal(sched, again)
    assert not schedules_equal(Schedule("vp-linear"), Schedule("edm"))
    # exact comparison: the smallest change to a parameter or the domain differs
    vp = Schedule("vp-linear")
    assert not schedules_equal(vp, Schedule("vp-linear", params={"beta1": 20.0 + 1e-12}))
    assert not schedules_equal(vp, Schedule("vp-linear", t_domain=(0.0, 1.0 - 1e-12)))
    assert schedules_equal(vp, Schedule("vp-linear", params={"beta0": 0.1}, t_domain=(0, 1)))


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("vp-quadratic")
    with pytest.raises(ValueError):
        Schedule("vp-linear", params={"gamma": 1.0})
    with pytest.raises(ValueError):
        Schedule("edm", t_domain=(5.0, 1.0))
