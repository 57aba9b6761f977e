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
    SolverConfig,
    build_integral_table,
    degenerate_table,
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
