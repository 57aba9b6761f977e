import copy
import dataclasses
import math
import pickle
import re
from types import MappingProxyType

import numpy as np
import pytest

from emsolve import DomainError, Schedule, TimeGrid, make_time_grid
from emsolve.schedule import EDM, UNIFORM_LAMBDA, UNIFORM_T, VP_COSINE, VP_LINEAR


def alpha_at(sched, t):
    return sched.alpha_lambda(sched.lambda_of_t(t))


def sigma_at(sched, t):
    return sched.sigma_lambda(sched.lambda_of_t(t))


def test_alpha_edm_is_one(edm):
    assert alpha_at(edm, 80.0) == 1.0
    assert alpha_at(edm, 0.002) == 1.0


def test_alpha_vp_linear_endpoints(vp):
    # t = 0 is lambda = +inf, the top of vp-linear's lambda domain
    assert vp.alpha_lambda(vp.lam_domain[1]) == pytest.approx(1.0, abs=1e-15)
    # closed-form exponent at t=1: -(beta1-beta0)/4 - beta0/2 = -5.025
    assert alpha_at(vp, 1.0) == pytest.approx(np.exp(-5.025), rel=1e-12)


def test_sigma_examples(vp, edm):
    assert sigma_at(edm, 0.002) == pytest.approx(0.002, rel=1e-15)
    assert vp.sigma_lambda(vp.lam_domain[1]) == 0.0
    assert sigma_at(vp, 1.0) == pytest.approx(np.sqrt(1.0 - np.exp(-5.025) ** 2), rel=1e-12)


def test_lambda_examples(vp, edm):
    assert edm.lambda_of_t(1.0) == 0.0
    assert edm.lambda_of_t(80.0) == pytest.approx(-np.log(80.0), rel=1e-12)
    # symmetry point: alpha = sigma exactly where lambda = 0
    t_mid = float(vp.t_of_lambda(0.0))
    assert alpha_at(vp, t_mid) == pytest.approx(sigma_at(vp, t_mid), rel=1e-9)


def test_t_of_lambda_examples(vp, edm):
    assert edm.t_of_lambda(0.0) == pytest.approx(1.0, rel=1e-12)
    assert edm.t_of_lambda(-np.log(80.0)) == pytest.approx(80.0, abs=1e-6)
    lam = vp.lambda_of_t(0.5)
    assert vp.t_of_lambda(lam) == pytest.approx(0.5, rel=1e-9)


def test_domain_errors(vp, edm):
    with pytest.raises(DomainError):
        vp.log_alpha(1.5)
    with pytest.raises(DomainError):
        edm.lambda_of_t(100.0)
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
    total = alpha_at(sched, ts) ** 2 + sigma_at(sched, ts) ** 2
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
    assert g.lambdas.tolist() == [float(vp.lambda_of_t(1.0)), float(vp.lambda_of_t(0.1))]
    assert np.allclose(vp.t_of_lambda(g.lambdas), [1.0, 0.1], rtol=1e-12, atol=0.0)


def test_make_time_grid_edm_geometric_mean(edm):
    g = make_time_grid(edm, 2, UNIFORM_LAMBDA, 80.0, 0.002)
    assert edm.t_of_lambda(g.lambdas)[1] == pytest.approx(np.sqrt(80.0 * 0.002), rel=1e-12)


def test_make_time_grid_uniform_t(vp):
    g = make_time_grid(vp, 4, UNIFORM_T, 1.0, 0.2)
    assert np.allclose(vp.t_of_lambda(g.lambdas), [1.0, 0.8, 0.6, 0.4, 0.2])


def test_uniform_lambda_spacing(vp):
    g = make_time_grid(vp, 37, UNIFORM_LAMBDA, 1.0, 1e-3)
    diffs = np.diff(g.lambdas)
    assert np.max(np.abs(diffs - diffs[0])) < 1e-12
    assert np.all(diffs > 0)
    assert g.lambdas[0] == vp.lambda_of_t(1.0) and g.lambdas[-1] == vp.lambda_of_t(1e-3)


def test_time_grid_holds_read_only_increasing_lambdas():
    assert [f.name for f in dataclasses.fields(TimeGrid)] == ["lambdas"]
    lambdas = np.array([-1.0, 0.0, 2.0])
    g = TimeGrid(lambdas)
    lambdas[0] = 5.0  # the grid holds its own copy
    assert g.lambdas.tolist() == [-1.0, 0.0, 2.0] and g.num_steps == 2
    with pytest.raises(ValueError, match="read-only"):
        g.lambdas[0] = 0.0
    reversed_, repeated = [2.0, 0.0, -1.0], [0.0, 0.0, 1.0]
    for bad in (reversed_, repeated, [0.0, np.nan], [-np.inf, 0.0], [1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="lambdas must be"):
            TimeGrid(np.array(bad))


def test_make_time_grid_errors(vp):
    with pytest.raises(ValueError):
        make_time_grid(vp, 0, UNIFORM_LAMBDA, 1.0, 0.1)
    with pytest.raises(ValueError):
        make_time_grid(vp, 4, UNIFORM_LAMBDA, 0.1, 1.0)
    with pytest.raises(ValueError):
        make_time_grid(vp, 4, "geometric", 1.0, 0.1)
    for bad in (2.5, 4.0, "4"):
        with pytest.raises(ValueError, match="num_steps must be an integer"):
            make_time_grid(vp, bad, UNIFORM_LAMBDA, 1.0, 0.1)
    assert make_time_grid(vp, np.int64(4), UNIFORM_LAMBDA, 1.0, 0.1).num_steps == 4


def test_schedule_serialization_round_trip():
    for kind, params in [("vp-linear", {"beta0": 0.05, "beta1": 15.0}), ("edm", {})]:
        sched = Schedule(kind, params=params)
        again = Schedule.from_dict(sched.to_dict())
        assert sched == again
    assert Schedule("vp-linear") != Schedule("edm")
    # exact comparison: the smallest change to a parameter or the domain differs
    vp = Schedule("vp-linear")
    assert vp != Schedule("vp-linear", params={"beta1": 20.0 + 1e-12})
    assert vp != Schedule("vp-linear", t_domain=(0.0, 1.0 - 1e-12))
    assert vp == Schedule("vp-linear", params={"beta0": 0.1}, t_domain=(0, 1))


def test_schedule_params_are_read_only():
    """No write reaches a schedule's params, so its cached domain and its values agree."""
    params = {"beta1": 15.0}
    sched = Schedule(VP_LINEAR, params=params)
    lam_domain, lam = sched.lam_domain, sched.lambda_of_t(1.0)
    with pytest.raises(TypeError):
        sched.params["beta1"] = 5.0
    params["beta1"] = 5.0  # the caller's own dict
    assert sched.params == {"beta0": 0.1, "beta1": 15.0}
    assert sched.lam_domain == lam_domain and sched.lambda_of_t(1.0) == lam
    assert type(sched.to_dict()["params"]) is dict
    with pytest.raises(TypeError, match="unhashable"):
        hash(sched)
    with pytest.raises(ValueError, match="^params must be a Mapping, got a list$"):
        Schedule(EDM, params=[("beta1", 1.0)])


@pytest.mark.parametrize(
    "sched",
    [
        Schedule(VP_LINEAR, params={"beta0": 0.05}),
        Schedule(VP_COSINE),
        Schedule(EDM, t_domain=(0.0, 8.0)),
    ],
    ids=["vp-linear", "vp-cosine", "edm"],
)
def test_schedule_copies_are_equal_read_only_schedules(sched):
    """pickle, copy, deepcopy and ``replace`` rebuild through the constructor."""
    copies = [
        pickle.loads(pickle.dumps(sched)),
        copy.copy(sched),
        copy.deepcopy(sched),
        dataclasses.replace(sched),
        Schedule(sched.kind, MappingProxyType(dict(sched.params)), sched.t_domain),
    ]
    for again in copies:
        assert again == sched and repr(again) == repr(sched) and again.to_dict() == sched.to_dict()
        assert type(again.params) is MappingProxyType and again.lam_domain == sched.lam_domain
    assert dataclasses.replace(sched, t_domain=(0.5, 0.9)) != sched


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("vp-quadratic")
    with pytest.raises(ValueError):
        Schedule("vp-linear", params={"gamma": 1.0})
    with pytest.raises(ValueError):
        Schedule("edm", t_domain=(5.0, 1.0))
    with pytest.raises(ValueError, match="schedule dict missing key 'kind'"):
        Schedule.from_dict({"params": {}, "t_domain": [0.0, 1.0]})
    with pytest.raises(ValueError, match="^expected a schedule dict, got list$"):
        Schedule.from_dict([1])


@pytest.mark.parametrize(
    "kind, params",
    [
        ("vp-linear", {"beta0": np.nan}),
        ("vp-linear", {"beta1": np.inf}),
        ("vp-linear", {"beta0": -5.0, "beta1": 1.0}),
        ("vp-linear", {"beta0": 0.0, "beta1": 0.0}),
        ("vp-linear", {"beta0": "0.1"}),
        ("vp-cosine", {"offset": -1.0}),
        ("vp-cosine", {"offset": None}),
    ],
    ids=["nan", "inf", "negative-beta", "zero-betas", "string", "negative-offset", "none"],
)
def test_schedule_rejects_bad_params(kind, params):
    with pytest.raises(ValueError, match="param|needs"):
        Schedule(kind, params=params)


@pytest.mark.parametrize(
    "t_domain, message",
    [
        ((0.002, np.inf), "t_domain must be finite, got (0.002, inf)"),
        ((np.nan, 1.0), "t_domain must be finite, got (nan, 1.0)"),
        ((0.002, 1.0, 2.0), "t_domain must be a pair of real numbers, got (0.002, 1.0, 2.0)"),
        ((0.002,), "t_domain must be a pair of real numbers, got (0.002,)"),
        (("0", 1.0), "t_domain must be a pair of real numbers, got ('0', 1.0)"),
        ((-1.0, 1.0), "t_domain must be two finite numbers with 0 <= lo < hi, got (-1.0, 1.0)"),
    ],
    ids=["inf", "nan", "three-entries", "one-entry", "string", "negative"],
)
def test_schedule_rejects_bad_t_domain(t_domain, message):
    # the shared pair check's messages (errors.check_span), as EmsConfig's lam_range gets them
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Schedule("edm", t_domain=t_domain)


def test_vp_cosine_rejects_t_domain_past_one():
    # alpha's cosine turns negative past t = 1
    with pytest.raises(ValueError, match="t <= 1"):
        Schedule("vp-cosine", t_domain=(0.0, 1.5))
    assert Schedule("vp-cosine", t_domain=(0.0, 1.0)).lam_domain[1] == math.inf


def test_lam_domain_is_open_at_t_zero_on_every_kind():
    # sigma(0) = 0 makes lambda(0) = +inf, without taking log(0)
    assert Schedule("edm", t_domain=(0.0, 80.0)).lam_domain == (-math.log(80.0), math.inf)
    assert Schedule("vp-linear").lam_domain[1] == math.inf


@pytest.mark.parametrize(
    "sched",
    [Schedule(VP_LINEAR), Schedule(VP_COSINE), Schedule(EDM), Schedule(EDM, t_domain=(0.0, 80.0))],
    ids=["vp-linear", "vp-cosine", "edm", "edm-from-0"],
)
def test_lam_domain_is_computed_once(sched, monkeypatch):
    calls = []
    original = Schedule.lambda_of_t

    def counting(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(Schedule, "lambda_of_t", counting)
    fresh = Schedule.from_dict(sched.to_dict())  # a copy with no cached domain
    first = fresh.t_of_lambda(0.5)
    assert 1 <= len(calls) <= 2
    calls.clear()
    assert fresh.t_of_lambda(0.5) == first
    assert calls == []
    monkeypatch.undo()
    assert fresh.lam_domain == sched.lam_domain
    assert fresh == sched and repr(fresh) == repr(sched) and fresh.to_dict() == sched.to_dict()
    assert pickle.loads(pickle.dumps(fresh)) == sched


def test_constant_beta_inverts_lambda():
    # beta1 = beta0: log alpha is linear in t, and the inverse's quadratic degenerates
    sched = Schedule("vp-linear", params={"beta0": 1.0, "beta1": 1.0})
    assert sched.t_of_lambda(0.0) == math.log(2.0)  # alpha^2 = e^{-t} = 1/2
    ts = np.linspace(1e-3, 1.0, 1000)
    back = np.asarray(sched.t_of_lambda(sched.lambda_of_t(ts)))
    assert np.max(np.abs(back - ts)) <= 1e-15
