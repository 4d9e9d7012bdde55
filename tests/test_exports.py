"""Every exported name resolves, so a deleted function cannot linger as a
stale entry of ``__all__``, and README's quick start runs, so it cannot
name an API the package no longer has."""

from __future__ import annotations

import ast
import contextlib
import importlib
import json
import re
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


# Functions that perfbench's counters and layers name but the package no
# longer has: ROADMAP item 1 drops or re-points each.  Pinned, so that a
# deletion that strands one more name has to list it here.
PERFBENCH_STALE = {
    "kernels.cauchy_hua", "kernels.poisson_boundary_form",
    "kernels.poisson_from_hua", "kernels.poisson_kernel_series",
    "kernels.zonal_harmonic", "kernels.zonal_polyharmonic",
    "polyalg.harmonic_almansi", "polyalg.harmonic_basis",
    "quadrature.lie_sphere_integral", "quadrature.lie_sphere_rule",
    "quadrature.rotated_inner_product", "quadrature.sphere_integral",
    "quadrature.weighted_dot", "solver.BoundaryData.sector_values",
    "solver.dirichlet_solve", "solver.hua_reproduce",
    "solver.poisson_integral", "solver.polyharmonic_limit_experiment",
    "solver.spectral_component",
}


def _perfbench_function_names() -> set:
    """The dotted function names of tracer.py's ``COUNTERS`` and of
    layers.py's ``LAYERS``, ``INTEGRALS`` and ``SECTOR_VALUES``, read with
    ``ast``; a layer entry's ``@variant`` suffix is dropped."""
    def text(node, constants):  # a string, a string constant, or their sum
        if isinstance(node, ast.BinOp):
            return text(node.left, constants) + text(node.right, constants)
        return constants[node.id] if isinstance(node, ast.Name) else node.value

    names = set()
    for path in (TRACER, TRACER.with_name("layers.py")):
        constants = {}
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Name)):
                continue
            target, value = node.targets[0].id, node.value
            if isinstance(value, ast.Constant):
                constants[target] = value.value
            if target == "COUNTERS":
                found = value.keys
            elif target == "LAYERS":  # layer -> (functions, counter)
                found = [e for v in value.values for e in v.elts[0].elts]
            elif target in ("INTEGRALS", "SECTOR_VALUES"):
                found = getattr(value, "elts", [value])
            else:
                continue
            names.update(text(e, constants).split("@")[0] for e in found)
    return names


def test_perfbench_names_no_more_missing_functions_than_listed():
    def resolves(name):
        module, *path = name.split(".")
        obj = importlib.import_module(f"polyball.{module}")
        for attr in path:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    stale = {name for name in _perfbench_function_names()
             if not resolves(name)}
    assert stale == PERFBENCH_STALE, sorted(stale ^ PERFBENCH_STALE)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


# one small request of each command
REQUESTS = {
    "kernel": {"n": 3, "p": 2,
               "pairs": [{"x": [0.2, 0.1, 0.0], "zeta": [0.6, 0.8, 0.0]}],
               "degrees": [0, 3]},
    "dirichlet": {"n": 2, "p": 2, "boundary": "x1^2 + x2",
                  "points": [[0.3, 0.1], [0.0, 0.5]], "sectors": [0, 1]},
    "hua-limit": {"n": 2, "u": "x1 x2", "z": [0.3, 0.1], "p_list": [1, 2]},
    "almansi": {"n": 2, "polynomial": "x1^2 x2"},
    "dims": {"n": 3, "degrees": [1, 2]},
    "verify": {"n": 2, "suites": ["route-agreement"]},
}


def test_traced_commands_write_the_untraced_tables(tmp_path, monkeypatch,
                                                   capsys):
    # perfbench's tracer wraps every public function and counts work from
    # some results, so a renamed function whose result a counter misreads
    # would break a traced benchmark run; each command's table and exit
    # code must be the same traced and untraced
    monkeypatch.syspath_prepend(str(TRACER.parents[1]))
    import polyball.cli
    from perfbench.tracer import Tracer

    tracer = Tracer(polyball)
    for command, config in REQUESTS.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        runs, spans = [], len(tracer.spans)
        for traced in (False, True):
            out = tmp_path / f"{command}-{traced}.out"
            with tracer if traced else contextlib.nullcontext():
                code = polyball.cli.main([command, "--config", str(path),
                                          "--out", str(out)])
            runs.append((code, capsys.readouterr().err,
                         out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1], command
        assert runs[0][:2] == (0, "") and len(tracer.spans) > spans, command
