"""The benchmark under ``bench/`` imports the package by name and unpacks the samplers' results.

Every name it imports must resolve, and every result must have the shape it reads.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from emsolve import (
    EmsConfig,
    GaussianMixture,
    SolverConfig,
    build_integral_table,
    degenerate_table,
    estimate_table,
    make_time_grid,
    multistep_sample,
    singlestep_sample,
)
from emsolve.ems import NOISE_PRED
from emsolve.schedule import UNIFORM_LAMBDA

BENCH = Path(__file__).resolve().parent.parent / "bench"


def emsolve_imports(path):
    """``(module, name)`` for each name a file imports from ``emsolve`` or a submodule of it."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "emsolve":
                out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            out += [(name, None) for name in names if name.split(".")[0] == "emsolve"]
    return out


BENCH_FILES = sorted(BENCH.glob("*.py"))


def test_bench_imports_names_from_the_package():
    # guards the parametrization below against a moved bench directory
    assert any(emsolve_imports(path) for path in BENCH_FILES)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_imports_from_emsolve_resolve(path):
    for module, name in emsolve_imports(path):
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}"), (
                f"{path.name} imports {name} from {module}, which no longer has it"
            )


class _Delegate:
    """Forwards every attribute to a schedule, as the benchmark's timing wrapper does."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _CachingDelegate(_Delegate):
    """Like the benchmark's traced schedule: a wrapper per method, kept after its first lookup."""

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def wrapped(*args, **kwargs):
            return attr(*args, **kwargs)

        self.__dict__[name] = wrapped
        return wrapped


class _CountingModel(_Delegate):
    """Like the benchmark's traced model: counts its own ``eps`` calls, forwards all else."""

    def __init__(self, inner):
        super().__init__(inner)
        self.eps_calls = 0

    def eps(self, sched, x, lam):
        self.eps_calls += 1
        return self._inner.eps(sched, x, lam)


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_sampler_results_unpack_as_the_bench_does(vp, mix4, vp_lam_range, shape):
    """``x, _ = multistep_sample(...)``, and ``singlestep_sample(...)`` is the state itself.

    The benchmark passes a delegate schedule together with a table carrying
    that same delegate, which the samplers must accept.
    """
    tab = build_integral_table(degenerate_table(NOISE_PRED, vp, 200, vp_lam_range, 4))
    cfg = SolverConfig(order=2, grid=make_time_grid(vp, 6, UNIFORM_LAMBDA, 1.0, 1e-3))
    x_init = vp.sigma_lambda(vp_lam_range[0]) * np.random.default_rng(5).standard_normal(shape)
    sched = _Delegate(vp)
    traced = dataclasses.replace(tab, ems=dataclasses.replace(tab.ems, schedule=sched))
    for t in (tab, traced):
        x, _ = multistep_sample(mix4, t.ems.schedule, t, cfg, x_init)
        assert isinstance(x, np.ndarray) and x.shape == x_init.shape
        x = singlestep_sample(mix4, t.ems.schedule, t, cfg, x_init)
        assert isinstance(x, np.ndarray) and x.shape == x_init.shape


@pytest.mark.parametrize("delegate", [_Delegate, _CachingDelegate])
@pytest.mark.parametrize("shape", [(4,), (600, 4)])
def test_delegates_give_the_bare_bytes_with_the_memo_cold_and_warm(
    vp, mix4, vp_lam_range, delegate, shape
):
    """Wrapped model and schedule, as the benchmark traces them: the bare run's bytes.

    Each wrapped run makes its NFE in ``eps`` calls on the model delegate, so a
    traced run still records one model span per evaluation; the table built
    through the delegates is the bare table.
    """
    tab = build_integral_table(degenerate_table(NOISE_PRED, vp, 200, vp_lam_range, 4))
    grid = make_time_grid(vp, 8, UNIFORM_LAMBDA, 1.0, 1e-3)
    cfg = SolverConfig(order=3, grid=grid, corrector="full")
    x_init = vp.sigma_lambda(vp_lam_range[0]) * np.random.default_rng(6).standard_normal(shape)
    want = multistep_sample(mix4, vp, tab, cfg, x_init)[0].tobytes()
    model = GaussianMixture(weights=mix4.weights, means=mix4.means, stds=mix4.stds)  # empty memo
    sched = delegate(vp)
    traced = dataclasses.replace(tab, ems=dataclasses.replace(tab.ems, schedule=sched))
    counted = _CountingModel(model)
    for run in range(2):  # cold, then warm
        x, _ = multistep_sample(counted, sched, traced, cfg, x_init)
        assert x.tobytes() == want
        assert counted.eps_calls == (run + 1) * cfg.grid.num_steps
    assert all(entry[0] is sched for entry in model._memo.values())
    ems_cfg = EmsConfig(num_timesteps=8, num_datapoints=64, lam_range=(-2.0, 2.0), seed=2)
    bare = estimate_table(mix4, vp, ems_cfg)
    for _ in range(2):
        wrapped = estimate_table(counted, sched, ems_cfg)
        for name in ("l", "s", "b", "l_dot"):
            assert getattr(wrapped, name).tobytes() == getattr(bare, name).tobytes()
