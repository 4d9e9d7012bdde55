"""The package's modules form layers, and each imports only from layers
below it, so no module reaches up (or sideways) into another's concerns.

Every import is read with ``ast``, including imports inside functions.
"""

from __future__ import annotations

import ast
from pathlib import Path

import polyball

LAYERS = (("geometry",), ("gegenbauer", "polyalg", "quadrature"),
          ("kernels",), ("solver",), ("suites",), ("cli",))
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}
PACKAGE = Path(polyball.__file__).parent


def _package_imports(tree: ast.AST):
    """Names of the package modules that an import statement targets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .module import ...
                yield node.module.split(".")[0], node.lineno
            elif node.level == 1:  # from . import module, ...
                for alias in node.names:
                    yield alias.name, node.lineno
            elif node.module and node.module.split(".")[0] == "polyball":
                parts = node.module.split(".")
                targets = (parts[1:2] if len(parts) > 1
                           else [a.name for a in node.names])
                for target in targets:
                    yield target, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "polyball" and len(parts) > 1:
                    yield parts[1], node.lineno


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_imports_only_reach_lower_layers():
    violations = []
    for name, rank in RANK.items():
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for target, line in _package_imports(tree):
            if target == "__version__":  # the package attribute, not a module
                continue
            if RANK[target] >= rank:
                violations.append(f"{name}.py:{line} imports {target}")
    assert not violations, violations
