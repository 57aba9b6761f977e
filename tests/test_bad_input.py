"""Malformed arguments fail at the public boundary with the package's own errors.

One table lists the public constructors and once-per-run entry points and
another the two dict loaders (``model_from_dict``, ``Schedule.from_dict``),
each with valid arguments and the kind of each argument.  Hypothesis
replaces one argument with a malformed value of its kind; the call must
raise ValueError (``DomainError`` and the other package subclasses
included), never an AttributeError, a TypeError or an IndexError from
inside numpy, and never a warning (the suite turns warnings into errors).
Off-grid integer indices to ``lupdate``, ``transition_coefficients`` and
``g_map`` must raise the package's own IndexError, ``grid indices (a, b)
out of range [0, n)``; ``EmsTable.index_of`` takes lambdas, not indices,
and an off-grid one raises its ValueError, ``outside the table range``.
A constructor owns the arrays it keeps: no later write to an array the
caller passed, or to the base of a read-only view it passed, changes
anything built from it.

Left out: the per-call ``eps`` and ``linearize`` (hot paths with their own
inline checks, tested in ``test_models.py``; a ``workspace`` keyword, which
the protocol ``linearize(sched, x, lam)`` refuses with Python's TypeError,
and a ``jvp`` whose sweep slot a later call took are tested here), non-integer
grid indices (index lookups, not checked arguments), ``lupdate``'s states
and g values (its anchor triple and extra pairs are checked) and
``save_table``'s path.
"""

import dataclasses
import inspect
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsolve import (
    EmsConfig,
    EvalCounter,
    GaussianMixture,
    Guided,
    IntegralTable,
    PointGaussian,
    Schedule,
    SolverConfig,
    TimeGrid,
    build_integral_table,
    degenerate_table,
    estimate_table,
    g_map,
    lupdate,
    make_time_grid,
    model_from_dict,
    multistep_sample,
    plan_multistep,
    plan_singlestep,
    reference_solve,
    save_table,
    singlestep_sample,
    transition_coefficients,
)
from emsolve.ems import DATA_PRED, EmsTable
from emsolve.models import ModelSpec, sweep_scope
from emsolve.schedule import UNIFORM_LAMBDA

SCHED = Schedule("vp-linear")
OTHER_SCHED = Schedule("edm")
LAM_RANGE = (float(SCHED.lambda_of_t(1.0)), float(SCHED.lambda_of_t(1e-3)))
MIXTURE = GaussianMixture([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [0.5, 1.0])
POINT = PointGaussian([0.5, -0.5])
EMS = degenerate_table(DATA_PRED, SCHED, 20, LAM_RANGE, 2)
TAB = build_integral_table(EMS)
GRID = make_time_grid(SCHED, 4, UNIFORM_LAMBDA, 1.0, 1e-3)
SOLVER_CFG = SolverConfig(order=2, grid=GRID)
EMS_CFG = EmsConfig(num_timesteps=4, num_datapoints=8, lam_range=(-1.0, 1.0))
PLAN = plan_multistep(TAB, SOLVER_CFG)
X = np.zeros(2)
GUIDED_DICT = Guided(MIXTURE, POINT, 2.0).to_dict()

# -- malformed values by kind --------------------------------------------------------

_JUNK = [None, "x", {}, [], object(), 1j]
_NON_FINITE = [math.nan, math.inf, -math.inf]


def _not_int(lo, hi=None):
    """Values that are not an integer in [lo, hi]: other integers, floats, bools and junk."""
    outside = st.integers(max_value=lo - 1)
    if hi is not None:
        outside |= st.integers(min_value=hi + 1)
    odd = [True, False, np.bool_(True), "4", [4], np.array(4), *_JUNK]
    return outside | st.floats(allow_nan=True) | st.sampled_from(odd)


_NOT_REAL = st.sampled_from(
    [True, False, np.bool_(True), "1", [1.0], np.array(1.0), *_NON_FINITE, *_JUNK]
)
_NOT_SPAN = (
    st.sampled_from(
        [None, "ab", 1.0, {}, (0.0,), (0.0, 1.0, 2.0), (True, 2.0), ("0", 1.0), (0.0, None)]
    )
    | st.tuples(st.floats(-3.0, 3.0), st.sampled_from(_NON_FINITE))
    | st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(lambda p: (max(p), min(p)))
)
_PACKAGE_OBJECTS = [SCHED, MIXTURE, EMS, TAB, GRID, SOLVER_CFG, EMS_CFG, PLAN]


def _not_a(*valid):
    """Junk and package objects, less those in ``valid``."""
    return st.sampled_from(_JUNK + [1, 2.5, True] + [v for v in _PACKAGE_OBJECTS if v not in valid])


KINDS = {
    "count": _not_int(1),
    "seed": _not_int(0),
    "dim": _not_int(1),
    "order": _not_int(1, 3),
    "real": _NOT_REAL,
    "positive": _NOT_REAL | st.floats(max_value=0.0, allow_nan=False),
    "span": _NOT_SPAN,
    "choice": st.sampled_from([None, 1, ["x"], "", "geometric", b"none"]),
    "flag": st.sampled_from([None, 0, 1, "yes", "", np.bool_(True), [True]]),
    "floats": st.sampled_from(
        [None, {}, "x", object(), [{}], math.nan, [math.inf, 0.0], [[[math.nan]]]]
    ),
    "params": st.sampled_from(
        [None, [1], "x", 1, {"gamma": 1.0}, {"beta0": "x"}, {"beta0": math.nan}, {"beta0": True}]
    ),
    "model": _not_a(MIXTURE),
    "schedule": _not_a(SCHED),
    "table_schedule": _not_a(SCHED) | st.just(OTHER_SCHED),  # a schedule, but not the table's
    "ems": _not_a(EMS),
    "tab": _not_a(TAB),
    "solver_config": _not_a(SOLVER_CFG),
    "ems_config": _not_a(EMS_CFG),
    "grid": _not_a(GRID),
    "model_dict": st.sampled_from([None, [1], "x", {}, {"kind": "neural-net"}]),
    "mapping": st.sampled_from([None, [("K", 1)], "x", 1, object()]),
    "output_list": st.sampled_from(["x", {}, (), 1, np.zeros(2), object()]),
}

# -- the entry points ---------------------------------------------------------------

ENTRY_POINTS = [
    # name, function, valid keyword arguments, each checked argument's kind
    ("Schedule", Schedule, {"kind": "edm", "params": {}, "t_domain": (0.002, 80.0)},
     {"kind": "choice", "params": "params", "t_domain": "span"}),
    ("TimeGrid", TimeGrid, {"lambdas": [-1.0, 0.0, 1.0]}, {"lambdas": "floats"}),
    ("make_time_grid", make_time_grid,
     {"sched": SCHED, "num_steps": 4, "kind": UNIFORM_LAMBDA, "t_start": 1.0, "t_end": 0.1},
     {"sched": "schedule", "num_steps": "count", "kind": "choice", "t_start": "real",
      "t_end": "real"}),
    ("PointGaussian", PointGaussian, {"x0": [0.0, 1.0]}, {"x0": "floats"}),
    ("GaussianMixture", GaussianMixture,
     {"weights": [0.5, 0.5], "means": [[0.0, 1.0], [1.0, 0.0]], "stds": [0.5, 1.0]},
     {"weights": "floats", "means": "floats", "stds": "floats"}),
    ("Guided", Guided, {"cond": MIXTURE, "uncond": POINT, "scale": 2.0},
     {"cond": "model", "uncond": "model", "scale": "real"}),
    ("EvalCounter", EvalCounter, {"inner": MIXTURE}, {"inner": "model"}),
    ("EmsConfig", EmsConfig,
     {"num_timesteps": 4, "num_datapoints": 8, "lam_range": (-1.0, 1.0), "probes_per_point": 1,
      "seed": 0},
     {"num_timesteps": "count", "num_datapoints": "count", "lam_range": "span",
      "probes_per_point": "count", "seed": "seed"}),
    ("estimate_table", estimate_table, {"model": MIXTURE, "sched": SCHED, "cfg": EMS_CFG},
     {"model": "model", "sched": "schedule", "cfg": "ems_config"}),
    ("degenerate_table", degenerate_table,
     {"kind": DATA_PRED, "sched": SCHED, "num_timesteps": 20, "lam_range": LAM_RANGE, "dim": 2},
     {"kind": "choice", "sched": "schedule", "num_timesteps": "count", "lam_range": "span",
      "dim": "dim"}),
    ("EmsTable", EmsTable,
     {"lambda_grid": EMS.lambda_grid, "l": EMS.l, "s": EMS.s, "b": EMS.b, "l_dot": EMS.l_dot,
      "schedule": SCHED, "meta": {"K": 8}},
     {"lambda_grid": "floats", "l": "floats", "s": "floats", "b": "floats", "l_dot": "floats",
      "schedule": "schedule", "meta": "mapping"}),
    ("save_table", save_table, {"table": EMS, "path": os.devnull}, {"table": "ems"}),
    ("IntegralTable", IntegralTable, {"ems": EMS}, {"ems": "ems"}),
    ("build_integral_table", build_integral_table, {"ems": EMS}, {"ems": "ems"}),
    ("SolverConfig", SolverConfig,
     {"order": 2, "grid": GRID, "corrector": "full", "pseudo_predictor": False,
      "pseudo_corrector": False},
     {"order": "order", "grid": "grid", "corrector": "choice", "pseudo_predictor": "flag",
      "pseudo_corrector": "flag"}),
    ("plan_multistep", plan_multistep, {"tab": TAB, "cfg": SOLVER_CFG},
     {"tab": "tab", "cfg": "solver_config"}),
    ("plan_singlestep", plan_singlestep, {"tab": TAB, "cfg": SOLVER_CFG},
     {"tab": "tab", "cfg": "solver_config"}),
    ("SamplerPlan.run", PLAN.run, {"model": MIXTURE, "x_init": X, "trace": []},
     {"model": "model", "x_init": "floats", "trace": "output_list"}),
    *(
        (fn.__name__, fn,
         {"model": MIXTURE, "sched": SCHED, "tab": TAB, "cfg": SOLVER_CFG, "x_init": X},
         {"model": "model", "sched": "table_schedule", "tab": "tab", "cfg": "solver_config",
          "x_init": "floats"})
        for fn in (multistep_sample, singlestep_sample)
    ),
    ("reference_solve", reference_solve,
     {"model": MIXTURE, "sched": SCHED, "x_start": X, "lam_start": 0.0, "lam_end": 1.0,
      "tol": 1e-6},
     {"model": "model", "sched": "schedule", "x_start": "floats", "lam_start": "real",
      "lam_end": "real", "tol": "positive"}),
]
DROP = object()  # a loader test's marker for a left-out key
LOADERS = [
    # name, loader, a valid dict, each field's kind; leaving out a key not in OPTIONAL fails too
    ("guided", model_from_dict, GUIDED_DICT,
     {"kind": "choice", "cond": "model_dict", "uncond": "model_dict", "scale": "real"}),
    ("mixture", model_from_dict, MIXTURE.to_dict(),
     {"kind": "choice", "weights": "floats", "means": "floats", "stds": "floats"}),
    ("point", model_from_dict, POINT.to_dict(), {"kind": "choice", "x0": "floats"}),
    ("schedule", Schedule.from_dict, SCHED.to_dict(),
     {"kind": "choice", "params": "params", "t_domain": "span"}),
]
OPTIONAL = {Schedule.from_dict: {"params", "t_domain"}}


def _ids(table):
    return [row[0] for row in table]


@pytest.mark.parametrize(
    "name, fn, valid, kinds", ENTRY_POINTS + LOADERS, ids=_ids(ENTRY_POINTS + LOADERS)
)
def test_the_valid_arguments_are_valid(name, fn, valid, kinds):
    if fn in (model_from_dict, Schedule.from_dict):
        fn(valid)
    else:
        fn(**valid)


@pytest.mark.parametrize("name, fn, valid, kinds", ENTRY_POINTS, ids=_ids(ENTRY_POINTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_malformed_argument_raises_value_error(name, fn, valid, kinds, data):
    arg = data.draw(st.sampled_from(sorted(kinds)), label="argument")
    bad = data.draw(KINDS[kinds[arg]], label="value")
    with pytest.raises(ValueError):
        fn(**{**valid, arg: bad})


@pytest.mark.parametrize("name, loader, valid, kinds", LOADERS, ids=_ids(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_malformed_field_makes_the_loader_raise_value_error(name, loader, valid, kinds, data):
    key = data.draw(st.sampled_from(sorted(kinds)), label="field")
    values = KINDS[kinds[key]]
    if key not in OPTIONAL.get(loader, ()):
        values |= st.just(DROP)
    bad = data.draw(values, label="value")
    fields = {k: v for k, v in valid.items() if k != key}
    with pytest.raises(ValueError):
        loader(fields if bad is DROP else {**fields, key: bad})


@pytest.mark.parametrize("loader", [model_from_dict, Schedule.from_dict])
@settings(max_examples=30, deadline=None)
@given(
    data=st.sampled_from([None, [1], "x", 1, {}])
    | st.dictionaries(st.text(max_size=3), st.none())  # no key is "kind"
)
def test_the_loaders_reject_what_is_not_a_dict_with_a_kind(loader, data):
    with pytest.raises(ValueError):
        loader(data)


# -- grid indices --------------------------------------------------------------------

N = len(TAB.lambda_grid)
OFF_GRID = st.integers(-(2**62), -1) | st.integers(N, 2**62)
ON_GRID = st.integers(0, N - 1)
INDEX_ERROR = rf"^grid indices \(-?\d+, -?\d+\) out of range \[0, {N}\)$"


@settings(max_examples=100, deadline=None)
@given(off=OFF_GRID, on=ON_GRID, first=st.booleans(), batched=st.booleans())
def test_an_off_grid_index_raises_the_packages_index_error(off, on, first, batched):
    j_a, j_b = (off, on) if first else (on, off)
    if batched:
        j_a, j_b = np.array([on, j_a]), np.array([on, j_b])
    with pytest.raises(IndexError, match=INDEX_ERROR):
        transition_coefficients(TAB, j_a, j_b, 1)
    with pytest.raises(IndexError, match=INDEX_ERROR):
        g_map(TAB, off if first else on, j_b)


@settings(max_examples=100, deadline=None)
@given(off=OFF_GRID, on=ON_GRID, position=st.integers(0, 2))
def test_lupdate_raises_the_packages_index_error_for_an_off_grid_index(off, on, position):
    anchor, target, extra = (off if k == position else on for k in range(3))
    with pytest.raises(IndexError, match=INDEX_ERROR):
        lupdate(TAB, (anchor, X, X), [(extra, X)], target)


@settings(max_examples=100, deadline=None)
@given(cells=st.floats(0.5 + 1e-6, 1e6), below=st.booleans())
def test_an_off_grid_lambda_raises_index_ofs_value_error(cells, below):
    grid, h = EMS.lambda_grid, EMS.spacing
    lam = grid[0] - cells * h if below else grid[-1] + cells * h
    with pytest.raises(ValueError, match="outside the table range"):
        EMS.index_of(float(lam))


# -- the calls that escaped as TypeError or AttributeError, or were accepted -------------

ESCAPED = {
    "make_time_grid num_steps=True": lambda: make_time_grid(SCHED, True, UNIFORM_LAMBDA, 1.0, 0.1),
    "make_time_grid t_start='1'": lambda: make_time_grid(SCHED, 4, UNIFORM_LAMBDA, "1", 0.1),
    "degenerate lam_range (0, 'x')": lambda: degenerate_table(DATA_PRED, SCHED, 10, (0.0, "x"), 2),
    "degenerate lam_range None": lambda: degenerate_table(DATA_PRED, SCHED, 10, None, 2),
    "degenerate num_timesteps 10.5": lambda: degenerate_table(DATA_PRED, SCHED, 10.5, LAM_RANGE, 2),
    "degenerate num_timesteps True": lambda: degenerate_table(DATA_PRED, SCHED, True, LAM_RANGE, 2),
    "degenerate dim 2.5": lambda: degenerate_table(DATA_PRED, SCHED, 10, LAM_RANGE, 2.5),
    "reference tol True": lambda: reference_solve(MIXTURE, SCHED, X, 0.0, 1.0, tol=True),
    "reference tol 'x'": lambda: reference_solve(MIXTURE, SCHED, X, 0.0, 1.0, tol="x"),
    "reference lam_start 'a'": lambda: reference_solve(MIXTURE, SCHED, X, "a", 1.0),
    "reference sched None": lambda: reference_solve(MIXTURE, None, X, 0.0, 1.0),
    "reference model None": lambda: reference_solve(None, SCHED, X, 0.0, 1.0),
    "Guided(None, None)": lambda: Guided(None, None),
    "Guided scale True": lambda: Guided(MIXTURE, MIXTURE, True),
    "plan_multistep(None, cfg)": lambda: plan_multistep(None, SOLVER_CFG),
    "plan_multistep(tab, None)": lambda: plan_multistep(TAB, None),
    "plan_multistep(tab.ems, cfg)": lambda: plan_multistep(TAB.ems, SOLVER_CFG),
    "plan.run(None, x)": lambda: PLAN.run(None, X),
    "multistep_sample sched None": lambda: multistep_sample(MIXTURE, None, TAB, SOLVER_CFG, X),
    "estimate_table cfg None": lambda: estimate_table(MIXTURE, SCHED, None),
    "save_table(None, path)": lambda: save_table(None, os.devnull),
    "3-D means": lambda: GaussianMixture([1.0], [[[0.0, 1.0]]], [1.0]),
    "2-D weights": lambda: GaussianMixture([[1.0]], [[0.0, 1.0]], [1.0]),
    "2-D stds": lambda: GaussianMixture([1.0], [[0.0, 1.0]], [[1.0]]),
    "model kind a list": lambda: model_from_dict({"kind": ["x"]}),
    "guided scale None": lambda: model_from_dict({**GUIDED_DICT, "scale": None}),
    "schedule params a list": lambda: Schedule.from_dict({"kind": "edm", "params": [1]}),
    "Schedule(params=None)": lambda: Schedule(params=None),
    "EmsTable lambda_grid None": lambda: dataclasses.replace(EMS, lambda_grid=None),
    "EmsTable meta None": lambda: dataclasses.replace(EMS, meta=None),
    "TimeGrid lambdas None": lambda: TimeGrid(None),
    "lupdate anchor None": lambda: lupdate(TAB, None, [], 3),
    "lupdate anchor pair": lambda: lupdate(TAB, (0, X), [], 3),
    "lupdate extras None": lambda: lupdate(TAB, (0, X, X), None, 3),
    "lupdate extra triple": lambda: lupdate(TAB, (0, X, X), [(1, X, X)], 3),
}


@pytest.mark.parametrize("call", ESCAPED.values(), ids=ESCAPED.keys())
def test_a_call_that_escaped_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


# the values a ``workspace`` keyword once had to reject; the protocol now has no such argument
NO_WORKSPACE = {
    f"{name} linearize workspace {bad!r}": (model, bad)
    for name, model in (
        ("mixture", MIXTURE), ("point", POINT), ("guided", Guided(MIXTURE, POINT, 2.0)),
        ("spec", ModelSpec()),
    )
    for bad in ([], (), "x", 1)
}


@pytest.mark.parametrize("model, bad", NO_WORKSPACE.values(), ids=NO_WORKSPACE.keys())
def test_linearize_takes_no_workspace_argument(model, bad):
    """Each package model's ``linearize`` is ``(sched, x, lam)``: ``workspace=`` is a TypeError."""
    assert list(inspect.signature(model.linearize).parameters) == ["sched", "x", "lam"]
    with pytest.raises(TypeError, match="workspace"):
        model.linearize(SCHED, X, 0.0, workspace=bad)


@pytest.mark.parametrize("guided", [False, True])
def test_a_jvp_whose_workspace_was_reused_raises_value_error(guided):
    """Inside a sweep, the jvp of a call whose slot the next point's call took raises."""
    model = Guided(MIXTURE, MIXTURE, 2.0) if guided else MIXTURE
    x = np.ones((5, 2))
    with sweep_scope(len(x)) as sweep:
        sweep.next_point()
        _, _, stale = model.linearize(SCHED, x, 0.0)
        sweep.next_point()
        _, _, fresh = model.linearize(SCHED, x, 0.5)
        with pytest.raises(ValueError, match="reused this jvp's workspace"):
            stale(x)
        got = fresh(x)
    assert got.tobytes() == model.linearize(SCHED, x, 0.5)[2](x).tobytes()


def table_bytes(table):
    """The bytes of a table's arrays."""
    return [getattr(table, name).tobytes() for name in ("lambda_grid", "l", "s", "b", "l_dot")]


class WithoutWorkspace(ModelSpec):
    """The mixture behind a ``linearize`` without a workspace argument, as every model now is."""

    dim = MIXTURE.dim

    def eps(self, sched, x, lam):
        return MIXTURE.eps(sched, x, lam)

    def linearize(self, sched, x, lam):
        return MIXTURE.linearize(sched, x, lam)

    def sample_data(self, rng, n):
        return MIXTURE.sample_data(rng, n)

    def to_dict(self):
        return MIXTURE.to_dict()


def test_a_linearize_without_a_workspace_argument():
    """Such a model builds the mixture's table, alone and as either part of a ``Guided`` pair."""
    want = estimate_table(MIXTURE, SCHED, EMS_CFG)
    assert table_bytes(estimate_table(WithoutWorkspace(), SCHED, EMS_CFG)) == table_bytes(want)
    want = estimate_table(Guided(MIXTURE, MIXTURE, 2.0), SCHED, EMS_CFG)
    for pair in ((WithoutWorkspace(), MIXTURE), (MIXTURE, WithoutWorkspace())):
        got = estimate_table(Guided(*pair, 2.0), SCHED, EMS_CFG)
        assert table_bytes(got) == table_bytes(want)


class PositionalOnly(WithoutWorkspace):
    """The mixture behind a ``linearize`` that takes ``*args`` alone and records them."""

    def __init__(self):
        self.calls = []

    def linearize(self, *args, **kwargs):
        self.calls.append((len(args), kwargs))
        return MIXTURE.linearize(*args)


def test_a_linearize_taking_only_positional_arguments_builds():
    """The sweep reads no signature and passes ``(sched, x, lam)`` alone, once per grid point."""
    model = PositionalOnly()
    got = estimate_table(model, SCHED, EMS_CFG)
    assert table_bytes(got) == table_bytes(estimate_table(MIXTURE, SCHED, EMS_CFG))
    assert model.calls == [(3, {})] * (EMS_CFG.num_timesteps + 1)


# what ``estimate_table`` reads off a model: ``model_id`` reads ``to_dict``, ``dim`` and ``kind``
MEMBERS = {
    "linearize": MIXTURE.linearize, "sample_data": MIXTURE.sample_data, "to_dict": MIXTURE.to_dict,
    "dim": MIXTURE.dim, "kind": MIXTURE.kind,
}


@pytest.mark.parametrize("missing", sorted(MEMBERS))
def test_estimate_table_names_a_member_the_model_lacks(missing):
    """A duck-typed model with every member builds the mixture's table; one without says which."""
    assert table_bytes(estimate_table(SimpleNamespace(**MEMBERS), SCHED, EMS_CFG)) == table_bytes(
        estimate_table(MIXTURE, SCHED, EMS_CFG)
    )
    model = SimpleNamespace(**{name: v for name, v in MEMBERS.items() if name != missing})
    with pytest.raises(ValueError, match=rf"without \['{missing}'\]$"):
        estimate_table(model, SCHED, EMS_CFG)


def _with_nan(rng, n):
    data = MIXTURE.sample_data(rng, n)
    data[3, 1] = math.nan
    return data


BAD_DATA = {
    # the model's dim, its sample_data, the message
    "one row too many": (
        2, lambda rng, n: MIXTURE.sample_data(rng, n + 1), r"shape \(8, 2\), got \(9, 2\)$"
    ),
    "two columns for three": (3, MIXTURE.sample_data, r"shape \(8, 3\), got \(8, 2\)$"),
    "a NaN": (2, _with_nan, r"^sample_data must return finite values of shape \(8, 2\), got"),
    "not numbers": (2, lambda rng, n: [["a", "b"]] * n, "^sample_data's output must be an array"),
}


@pytest.mark.parametrize("dim, sample_data, message", BAD_DATA.values(), ids=BAD_DATA.keys())
def test_estimate_table_checks_the_models_samples(dim, sample_data, message):
    """K finite rows of ``model.dim`` or a ValueError naming ``sample_data``, before the sweep."""
    def linearize(*args):
        pytest.fail("the sweep started")

    model = SimpleNamespace(**{**MEMBERS, "dim": dim, "sample_data": sample_data})
    model.linearize = linearize
    with pytest.raises(ValueError, match=message):
        estimate_table(model, SCHED, EMS_CFG)


def test_a_plan_run_checks_its_trace_before_any_model_call():
    counted = EvalCounter(MIXTURE)
    with pytest.raises(ValueError, match="^trace must be a list, got a str$"):
        PLAN.run(counted, X, trace="x")
    assert counted.calls == 0


# -- what a constructor owns ----------------------------------------------------------


@st.composite
def held(draw, values):
    """``values`` as a caller passes them: ``(passed, bases)``, the array and the bases behind it.

    The passed array is a writable array, a read-only view of one, or a
    read-only view of a slice of a larger writable base.
    """
    arr = np.array(values, dtype=float)
    how = draw(st.sampled_from(["writable", "read-only view", "read-only slice"]), label="held as")
    if how == "writable":
        return arr, []
    base = arr
    if how == "read-only slice":
        base = np.zeros((2,) + arr.shape)
        base[1] = arr
    view = base.view() if how == "read-only view" else base[1]
    view.setflags(write=False)
    return view, [base]


def _owned_values(rng, n, dim, comps):
    """Valid constructor arguments of each class taking arrays, by class."""
    weights = rng.uniform(0.5, 1.0, comps)
    return {
        TimeGrid: {"lambdas": np.cumsum(rng.uniform(0.1, 1.0, n)) - 2.0},
        EmsTable: {
            "lambda_grid": np.linspace(-1.0, 1.0, n),
            **{name: rng.standard_normal((n, dim)) for name in ("l", "s", "b", "l_dot")},
        },
        GaussianMixture: {
            "weights": weights / weights.sum(),
            "means": rng.standard_normal((comps, dim)),
            "stds": rng.uniform(0.2, 1.5, comps),
        },
        PointGaussian: {"x0": rng.standard_normal(dim)},
    }


def _outputs(obj, seed):
    """The bits of a built table's ``index_of`` or a built model's ``eps``; nothing for a grid."""
    if isinstance(obj, EmsTable):
        return [obj.index_of(np.linspace(-1.0, 1.0, 7)).tobytes()]
    if isinstance(obj, ModelSpec):
        x = np.random.default_rng(seed).standard_normal((3, obj.dim))
        return [obj.eps(SCHED, x, 0.3).tobytes(), obj.eps(SCHED, x[0], 0.3).tobytes()]
    return []


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(), seed=st.integers(0, 2**16), n=st.integers(2, 6), dim=st.integers(1, 3),
    comps=st.integers(1, 3),
)
def test_a_constructor_owns_its_arrays(data, seed, n, dim, comps):
    """Writes to the arrays a caller passed, and to their bases, change nothing built from them.

    Every array attribute is read-only and shares no memory with a caller's
    array, and the attributes and the outputs keep their values.
    """
    rng = np.random.default_rng(seed)
    for cls, values in _owned_values(rng, n, dim, comps).items():
        passed, caller = {}, []
        for name, value in values.items():
            passed[name], bases = data.draw(held(value), label=f"{cls.__name__}.{name}")
            caller += [passed[name], *bases]
        obj = cls(**passed, **({"schedule": SCHED} if cls is EmsTable else {}))
        attrs = {name: getattr(obj, name) for name in values}
        want = {name: arr.copy() for name, arr in attrs.items()}
        want_outputs = _outputs(obj, seed)
        for arr in caller:
            if arr.flags.writeable:
                arr += 1.0
        for name, arr in attrs.items():
            assert not arr.flags.writeable, name
            assert not any(np.shares_memory(arr, theirs) for theirs in caller), name
            assert np.array_equal(getattr(obj, name), want[name]), name
        assert _outputs(obj, seed) == want_outputs, cls.__name__
