"""The package's modules form layers, and each imports only from layers
below it, so no module reaches up (or sideways) into another's concerns.

Every import is read with ``ast``, including imports inside functions.
LAPACK is reached only behind the polar-rule cache: a per-request LAPACK
call wakes threaded BLAS workers that keep spinning after it returns.
No module below the property suites draws random numbers: every bound and
rule size there is computed, not sampled.  A suite's rule takes its size
from a sizing function, unless it is listed with the reason it needs none.
Every public name is used by the package itself, or is kept on a list that
says why.  The solver, the suites and the command line hold points as real
rows and sector arrays: they build no ``RotatedVector``, and only the
per-point public wrappers read a sector index.  Every solver integral runs
through one block loop: one function cuts and multiplies the slices.  The
command line reaches the other modules through their public names only,
but for the names listed with the reason they stay.
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


# The one place that may call numpy.linalg beyond ``norm``; it is cached.
LAPACK_CALLERS = {("quadrature", "_polar_rule")}


def _linalg_uses(tree: ast.AST):
    """(enclosing function, line, name) of every numpy.linalg attribute
    other than ``norm``, and of every import from numpy.linalg."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Attribute)
                    and child.value.attr == "linalg"
                    and isinstance(child.value.value, ast.Name)
                    and child.value.value.id in ("np", "numpy")
                    and child.attr != "norm"):
                yield inner, child.lineno, child.attr
            elif isinstance(child, ast.ImportFrom) and (
                    (child.module or "").startswith("numpy.linalg")
                    or child.module == "numpy"
                    and any(a.name == "linalg" for a in child.names)):
                yield inner, child.lineno, "import"
            elif isinstance(child, ast.Import) and any(
                    a.name.startswith("numpy.linalg") for a in child.names):
                yield inner, child.lineno, "import"
            yield from walk(child, inner)
    yield from walk(tree, None)


def test_lapack_runs_only_behind_the_polar_rule_cache():
    violations = []
    for name in RANK:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for function, line, attr in _linalg_uses(tree):
            if (name, function) not in LAPACK_CALLERS:
                violations.append(f"{name}.py:{line} np.linalg.{attr}")
    assert not violations, violations
    assert hasattr(polyball.quadrature._polar_rule, "cache_info")


def _random_uses(tree: ast.AST):
    """(line, what) of every use of numpy.random or the random module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            yield node.lineno, f"{node.value.id}.random"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random" \
                        or alias.name.startswith("numpy.random"):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                (node.module or "").split(".")[0] == "random"
                or (node.module or "").startswith("numpy.random")
                or node.module == "numpy"
                and any(a.name == "random" for a in node.names)):
            yield node.lineno, f"from {node.module} import"


def test_no_random_numbers_below_the_suites():
    violations = []
    for name, rank in RANK.items():
        if rank >= RANK["suites"]:
            continue
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        violations += [f"{name}.py:{line} {what}"
                       for line, what in _random_uses(tree)]
    assert not violations, violations


# Suites whose rule has a fixed size, each with the reason it needs no
# sizing; every other suite's rule is sized by one of SIZERS.
FIXED_RULES = {
    "suite_far_cap": "its cap holds for any positive rule with unit mass",
}
SIZERS = {"resolution_for_exactness", "choose_rule", "choose_lie_rule"}


def _callee(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)


def test_suite_rules_take_their_size_from_a_sizing_function():
    tree = ast.parse((PACKAGE / "suites.py").read_text())
    fixed = {}
    for function in tree.body:
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and _callee(node) in ("sphere_rule", "LieSphereRule")):
                size = node.args[1] if len(node.args) > 1 else None
                if not (isinstance(size, ast.Call)
                        and _callee(size) in SIZERS):
                    fixed.setdefault(function.name, []).append(node.lineno)
    # each name listed builds a fixed rule, or is a stale allowlist entry
    assert set(fixed) == set(FIXED_RULES), fixed


def _point_objects(tree: ast.AST):
    """(line, what) of every ``RotatedVector(...)`` or ``.sector(...)``
    call and every ``sector_index`` read."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and _callee(node) in ("RotatedVector", "sector")):
            yield node.lineno, f"{_callee(node)}("
        if "sector_index" in (getattr(node, "attr", None),
                              getattr(node, "id", None)):
            yield node.lineno, "sector_index"


def test_batched_layers_build_no_rotated_points():
    violations = [f"{name}.py:{line} {what}"
                  for name in ("solver", "suites", "cli")
                  for line, what in _point_objects(
                      ast.parse((PACKAGE / f"{name}.py").read_text()))]
    assert not violations, violations


SLICE_PRODUCTS = {"_split", "_sliced_sums"}


def test_one_solver_function_cuts_and_multiplies_the_slices():
    # a shared rule, a Lie rule's base and a turned template are node sets
    # of one planner, so a second block loop is a second function here
    users = {}
    for function in ast.parse((PACKAGE / "solver.py").read_text()).body:
        for node in ast.walk(function):
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in SLICE_PRODUCTS:
                users.setdefault(getattr(function, "name", None),
                                 set()).add(name)
    assert list(users.values()) == [SLICE_PRODUCTS], users


# Public names that no package code reads, each with the reason it stays.
UNREFERENCED_PUBLIC = {
    "poisson_kernel": "perfbench/tests call it; a benchmark-only PR moves "
                      "it",
    "RotatedVector.sector": "perfbench/tests call it; a benchmark-only PR "
                            "moves it",
    "rule_from_json": "reads back the rule record that every table carries",
    "PropertyResult.passed": "the acceptance gate reads it",
    "BoundaryData": "perfbench's tracer names it; item 1 deletes it",
}


def _public_definitions(tree: ast.AST):
    """(name, first line, last line) of every public top-level function or
    class and every public method, methods named Class.method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield (f"{node.name}.{item.name}", item.lineno,
                           item.end_lineno)


def _name_reads(tree: ast.AST):
    """(name, line) of every variable or attribute read; a docstring or an
    ``__all__`` string is not a read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno


def test_every_public_name_is_read_by_package_code():
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text())
             for name in RANK}
    reads = {}
    for module, tree in trees.items():
        for name, line in _name_reads(tree):
            reads.setdefault(name, []).append((module, line))
    unread = set()
    for module, tree in trees.items():
        for name, first, last in _public_definitions(tree):
            if not any(where != module or not first <= line <= last
                       for where, line in reads.get(name.split(".")[-1], ())):
                unread.add(name)
    # each name listed is read by tests alone, or is a stale allowlist entry
    assert unread == set(UNREFERENCED_PUBLIC), ", ".join(
        sorted(unread ^ set(UNREFERENCED_PUBLIC)))


# Private names of other package modules that cli.py may read, each with
# the reason it stays.
CLI_PRIVATE_READS = {
    ("geometry", "_require_nodes"): "ROADMAP item 9: one work plan per "
                                    "request replaces the per-site node "
                                    "caps",
}


def _private_reads(tree: ast.AST):
    """(module, name) of every underscore name of another package module
    that ``tree`` imports (``from .module import _name``) or reads as an
    attribute of an imported module (``module._name``)."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names]
            if node.module is None:  # from . import module, ...
                modules.update(name for name in names if name in RANK)
            else:
                yield from ((node.module, name) for name in names
                            if name.startswith("_"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield node.value.id, node.attr


def test_the_command_line_reads_no_private_name_of_another_module():
    found = set(_private_reads(ast.parse((PACKAGE / "cli.py").read_text())))
    # each name listed is read, or is a stale allowlist entry
    assert found == set(CLI_PRIVATE_READS), sorted(
        found ^ set(CLI_PRIVATE_READS))


# Private names of other package modules that suites.py may read, each with
# the reason it stays.
SUITES_PRIVATE_READS = {
    ("geometry", "_require_nodes"): "ROADMAP item 9: one work plan per "
                                    "request replaces the per-site node "
                                    "caps",
    ("polyalg", "_require_monomials"): "ROADMAP item 9, as _require_nodes",
    ("polyalg", "_monomials"): "its order fixes every seeded sample",
    ("solver", "_integrals_at"): "sector-integrals integrates over one "
                                 "sphere, which no public call does",
    ("solver", "_POISSON"): "sector-integrals integrates over one sphere, "
                            "which no public call does",
    ("solver", "_sector_kernels"): "far-cap masks kernel values at the "
                                   "nodes",
}


def test_the_suites_read_only_their_listed_private_names():
    found = set(_private_reads(
        ast.parse((PACKAGE / "suites.py").read_text())))
    # each name listed is read, or is a stale allowlist entry
    assert found == set(SUITES_PRIVATE_READS), sorted(
        found ^ set(SUITES_PRIVATE_READS))
