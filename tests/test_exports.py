"""Every exported name resolves, so a deleted function cannot linger as a
stale entry of ``__all__``."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("polyball",) + tuple(
    f"polyball.{name}" for name in ("geometry", "gegenbauer", "polyalg",
                                    "kernels", "quadrature", "solver",
                                    "suites", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


# perfbench's tracer patches these names by getattr; read its tables without
# importing it, so that a renamed or deleted module or class fails here
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("MODULES",
                                                              "CLASSES"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_the_benchmark_tracer_finds_every_module_and_class():
    tables = _tracer_tables()
    assert set(tables) == {"MODULES", "CLASSES"}
    package = importlib.import_module("polyball")
    missing = [name for name in tables["MODULES"]
               if not hasattr(package, name)]
    missing += [f"{module}.{cls}" for module, cls in tables["CLASSES"]
                if not hasattr(getattr(package, module, None), cls)]
    assert not missing, f"perfbench/tracer.py names {missing}"
