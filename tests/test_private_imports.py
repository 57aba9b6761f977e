"""No module of the package imports a private (``_``-prefixed) name from another.

Nor do the test oracles: an oracle that imports the code it checks cannot
catch a fault in it.
"""

import ast
from pathlib import Path

import pytest

import emsolve

MODULES = sorted(Path(emsolve.__file__).parent.glob("*.py"))
MODULES.append(Path(__file__).with_name("oracles.py"))


def _private(part):
    return part.startswith("_") and not (part.startswith("__") and part.endswith("__"))


def private_imports(path):
    """Each dotted name ``path`` imports from the package with a private part."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and (node.level or module.split(".")[0] == "emsolve"):
            dotted = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names if alias.name.split(".")[0] == "emsolve"]
        else:
            continue
        out += [name for name in dotted if any(map(_private, name.split(".")))]
    return out


def test_the_guard_reads_every_module():
    assert {"cli.py", "solver.py", "ems.py", "oracles.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_another(path):
    assert private_imports(path) == []
