"""The benchmark under ``bench/`` imports the package by name; every such name must resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
