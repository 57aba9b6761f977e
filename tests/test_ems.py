import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emsolve import (
    DomainError,
    EmsConfig,
    EmsTable,
    TableFormatError,
    UnsupportedVersionError,
    degenerate_table,
    estimate_l,
    estimate_sb,
    estimate_table,
    eval_f,
    eval_f1,
    forward_diffuse,
    load_table,
    reference_solve,
    save_table,
)
from emsolve.ems import DATA_PRED, NOISE_PRED, diag_probe_terms, estimate_l_dot
from emsolve.models import ModelSpec
from emsolve.schedule import EDM, VP_COSINE, VP_LINEAR, Schedule


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

    def jvp(self, sched, x, lam, v):
        return np.zeros_like(np.asarray(v, dtype=float))


def exact_diag(model, sched, lam, xs):
    """sigma * diagonal of grad eps via basis-vector JVPs (independent oracle)."""
    dim = xs.shape[-1]
    sigma = float(sched.sigma_lambda(lam))
    cols = []
    for d in range(dim):
        e = np.zeros(dim)
        e[d] = 1.0
        cols.append(sigma * model.jvp(sched, xs, lam, np.broadcast_to(e, xs.shape))[..., d])
    return np.stack(cols, axis=-1)


# -- stochastic diagonal estimator ------------------------------------------------


def test_estimate_l_point_gaussian_exact(vp, pg4):
    rng = np.random.default_rng(0)
    xs = forward_diffuse(vp, pg4.sample_data(rng, 32), 0.7, rng)
    got = estimate_l(pg4, vp, 0.7, xs, rng)
    # sigma * grad eps = I, so every Rademacher probe contributes exactly 1
    assert np.max(np.abs(got - 1.0)) < 1e-14


def test_estimate_l_zero_jacobian(vp):
    model = ConstantModel([0.5, -1.0, 2.0])
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((16, 3))
    assert np.array_equal(estimate_l(model, vp, 0.0, xs, rng), np.zeros(3))


def test_estimate_l_within_three_standard_errors(vp, mix4):
    rng = np.random.default_rng(2)
    lam = 0.4
    k = 4096
    xs = forward_diffuse(vp, mix4.sample_data(rng, k), lam, rng)
    probe_rng = np.random.default_rng(3)
    v = (probe_rng.integers(0, 2, size=(1,) + xs.shape) * 2 - 1).astype(float)
    terms = diag_probe_terms(mix4, vp, lam, xs, v)[0]
    oracle = exact_diag(mix4, vp, lam, xs)
    resid = terms - oracle  # probe noise only: the datapoints are shared
    se = resid.std(axis=0, ddof=1) / np.sqrt(k)
    assert np.all(np.abs(resid.mean(axis=0)) <= 3 * se)


def test_estimate_l_unbiased_over_seeds(vp, mix4):
    lam = -0.5
    k = 256
    diffs = []
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        xs = forward_diffuse(vp, mix4.sample_data(rng, k), lam, rng)
        est = estimate_l(mix4, vp, lam, xs, rng)
        diffs.append(est - exact_diag(mix4, vp, lam, xs).mean(axis=0))
    diffs = np.array(diffs)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(len(diffs))
    assert np.all(np.abs(diffs.mean(axis=0)) <= 3 * se)


def test_estimate_l_empty_datapoints(vp, mix4):
    with pytest.raises(ValueError):
        estimate_l(mix4, vp, 0.0, np.empty((0, 4)), np.random.default_rng(0))


def test_chunked_reduction_matches_serial(vp, mix4):
    rng = np.random.default_rng(4)
    xs = forward_diffuse(vp, mix4.sample_data(rng, 512), 0.2, rng)
    v = (rng.integers(0, 2, size=(2,) + xs.shape) * 2 - 1).astype(float)
    terms = diag_probe_terms(mix4, vp, 0.2, xs, v)
    serial = terms.mean(axis=(0, 1))
    chunks = [terms[:, i : i + 128] for i in range(0, 512, 128)]
    partial = sum(c.sum(axis=(0, 1)) for c in reversed(chunks))
    parallel = partial / (2 * 512)
    assert np.max(np.abs(serial - parallel)) < 1e-10


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
    states = reference_solve(
        mix4, vp, x_lo, lam_lo, float(table.lambda_grid[j + 1]), tol=1e-12,
        lam_eval=table.lambda_grid[j - 1 : j + 2],
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
    s, b = estimate_sb(f, c * f + d, eps_floor=0.0)
    assert np.max(np.abs(s - c)) < 1e-10
    assert np.max(np.abs(b - d)) < 1e-10


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


def test_estimate_table_rejects_lam_range_outside_schedule(vp, edm, pg4):
    # vp-linear's lambda domain starts at -5.02; (-20, 30) used to overflow in exp
    with pytest.raises(DomainError, match="lam_range"):
        estimate_table(pg4, vp, EmsConfig(num_timesteps=8, num_datapoints=8, lam_range=(-20.0, 30.0)))
    lo, hi = edm.lam_domain
    with pytest.raises(DomainError, match="lam_range"):
        estimate_table(pg4, edm, EmsConfig(num_timesteps=8, num_datapoints=8, lam_range=(lo, hi + 0.1)))
    table = estimate_table(pg4, edm, EmsConfig(num_timesteps=8, num_datapoints=8, lam_range=(lo, hi)))
    assert table.lambda_grid[0] == lo and table.lambda_grid[-1] == hi


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


def test_index_of_snapping(vp, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 100, vp_lam_range, 2)
    h0 = table.spacing
    assert table.index_of(float(table.lambda_grid[17])) == 17
    assert table.index_of(float(table.lambda_grid[17] + 0.4 * h0)) == 17
    with pytest.raises(ValueError):
        table.index_of(float(table.lambda_grid[-1] + h0))


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
    again = load_table(path, expected_schedule=table.schedule)
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


def test_load_schedule_mismatch_warns(tmp_path, vp, edm, vp_lam_range):
    table = degenerate_table(DATA_PRED, vp, 4, vp_lam_range, 2)
    path = tmp_path / "table.json"
    save_table(table, path)
    with pytest.warns(UserWarning, match="schedule"):
        load_table(path, expected_schedule=edm)


def test_ems_config_validation():
    with pytest.raises(ValueError):
        EmsConfig(num_timesteps=0, num_datapoints=8, lam_range=(-1.0, 1.0))
    with pytest.raises(ValueError):
        EmsConfig(num_timesteps=4, num_datapoints=0, lam_range=(-1.0, 1.0))
    with pytest.raises(ValueError):
        EmsConfig(num_timesteps=4, num_datapoints=8, lam_range=(1.0, -1.0))
    with pytest.raises(ValueError):
        EmsConfig(num_timesteps=4, num_datapoints=8, lam_range=(-1.0, 1.0), probes_per_point=0)
