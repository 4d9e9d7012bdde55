"""Tests of the benchmark's own code: generator, checker and tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import polyball
import polyball.cli
from polyball import polyalg
from polyball.geometry import RotatedVector

from perfbench import calibrate, checker, layers, run, workloads
from perfbench.tracer import CLASSES, MODULES, Tracer

ROOT = Path(__file__).resolve().parents[2]


def _snapshot():
    """Every module attribute, class attribute and module-level dict entry
    the tracer could touch, by identity."""
    owners = [polyball] + [getattr(polyball, m) for m in MODULES]
    owners += [getattr(getattr(polyball, m), c) for m, c in CLASSES]
    out = {}
    for owner in owners:
        for key, value in list(vars(owner).items()):
            out[(id(owner), key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    out[(id(value), k)] = v
    return out


def _send(request, tmp_path: Path, name: str):
    directory = tmp_path / name
    directory.mkdir()
    path = run.write_configs([request], directory)[0]
    return run.send(polyball.cli, path, directory / "out.json",
                    request.command)


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

def test_wrappers_restore_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer(polyball)
    original = polyball.kernels.principal_power
    with tracer:
        # module functions, `from .x import y` bindings, methods and
        # dispatch tables are all replaced
        assert polyball.geometry.principal_power is not original
        assert polyball.kernels.principal_power \
            is polyball.geometry.principal_power
        assert polyball.suites.SUITES["reproduction"] \
            is polyball.suites.suite_reproduction
        assert "render" in vars(polyball.cli.ResultTable)
        assert polyball.cli.ResultTable.render \
            is not before[(id(polyball.cli.ResultTable), "render")]
        changed = [k for k, v in _snapshot().items() if before.get(k) is not v]
        assert len(changed) > 100
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_restore_after_an_exception():
    before = _snapshot()
    with pytest.raises(ValueError):
        with Tracer(polyball):
            polyball.polyalg.MultiPoly.from_text("x1 +", n=2)
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer(polyball)
    tracer.request = 7
    x = RotatedVector.sector(0, 1, [0.3, 0.2])
    zeta = RotatedVector.sector(0, 1, [0.6, 0.8])
    with tracer:
        polyball.kernels.poisson_kernel(x, zeta, 1)
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names[0] == "kernels.poisson_kernel"
    assert "kernels.poisson_from_products" in names
    assert "geometry.principal_power" in names
    for nid, start, end, parent, request, _ in tracer.spans:
        assert request == 7 and start <= end
        if parent >= 0:
            p_start, p_end = tracer.spans[parent][1:3]
            assert p_start <= start <= end <= p_end
    stats = layers.function_stats(tracer.names, tracer.spans)
    top = stats["kernels.poisson_kernel"]
    assert 0.0 <= top.self_s < top.total_s
    assert sum(s.self_s for s in stats.values()) == pytest.approx(top.total_s)


def test_traced_and_untraced_tables_are_identical(tmp_path):
    request = workloads.dirichlet(workloads.rng_for("solve", 1, "t"), 2, 2, 4, 6)
    plain = _send(request, tmp_path, "plain")
    tracer = Tracer(polyball)
    with tracer:
        traced = _send(request, tmp_path, "traced")
    assert plain.table == traced.table
    assert run.verdict_of(request, traced).ok
    metrics = layers.layer_metrics(tracer.names, tracer.spans)
    assert metrics["cli.render.calls"][0] == 1
    assert metrics["kernels.at_nodes.elements"][0] > 0
    assert metrics["kernels.at_nodes.integral_values"][0] == 6


# --------------------------------------------------------------------------
# generator
# --------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.build(workload, 5, 1)
    again = workloads.build(workload, 5, 1)
    other = workloads.build(workload, 6, 1)
    assert [r.key() for r in first] == [r.key() for r in again]
    assert [r.oracle for r in first] == [r.oracle for r in again]
    assert {r.key() for r in first}.isdisjoint(
        r.key() for r in other if "gegenbauer" not in r.label)
    assert len(first) >= 100
    assert len({r.key() for r in first}) == len(first)


def test_generator_shapes_do_not_depend_on_the_seed():
    def shapes(seed):
        return sorted(r.label for r in workloads.build("solve", seed, 1))
    assert shapes(1) == shapes(2)


def test_algebra_has_exactly_one_gegenbauer_request():
    requests = workloads.build("algebra", 3, 60)
    assert sum("gegenbauer" in r.label for r in requests) == 1


def test_dirichlet_boundary_is_polyharmonic_and_oracle_matches():
    rng = workloads.rng_for("solve", 9, "t")
    for n, p, deg in ((2, 1, 6), (3, 2, 5), (3, 3, 6)):
        request = workloads.dirichlet(rng, n, p, deg, 16)
        q = polyalg.MultiPoly.from_text(request.config["boundary"], n=n)
        assert polyalg.is_polyharmonic(q, p)
        assert q.degree() == deg
        for coords, j, (re, im) in zip(request.config["points"],
                                       request.config["sectors"],
                                       request.oracle["values"]):
            want = q.evaluate(RotatedVector.sector(j, p, coords))
            assert abs(want - complex(re, im)) <= 1e-12 * max(1, abs(want))


# --------------------------------------------------------------------------
# checker
# --------------------------------------------------------------------------

def test_checker_accepts_real_tables(tmp_path):
    rng = workloads.rng_for("algebra", 2, "t")
    for i, request in enumerate((workloads.dims(rng),
                                 workloads.almansi(rng, 3, 2, 5),
                                 workloads.hua_limit(rng, 2, 0.4),
                                 workloads.kernel(rng, 3, 2, pairs=2))):
        outcome = _send(request, tmp_path, f"r{i}")
        verdict = run.verdict_of(request, outcome)
        assert verdict.ok, verdict.reasons


def test_checker_rejects_a_row_over_its_bound(tmp_path):
    request = workloads.dirichlet(workloads.rng_for("solve", 2, "t"), 2, 1, 3, 5)
    outcome = _send(request, tmp_path, "d")
    assert run.verdict_of(request, outcome).ok
    table = json.loads(outcome.table)
    error_at = table["columns"].index("abs_error")
    bound_at = table["columns"].index("bound")
    table["rows"][2][error_at] = 2.0 * table["rows"][2][bound_at]
    verdict = checker.check(request, 0, json.dumps(table))
    assert not verdict.ok
    assert any("over bound" in r for r in verdict.reasons)


def test_checker_rejects_a_value_off_the_independent_oracle(tmp_path):
    request = workloads.dirichlet(workloads.rng_for("solve", 3, "t"), 2, 2, 4, 5)
    table = json.loads(_send(request, tmp_path, "d").table)
    table["rows"][0][table["columns"].index("value_re")] += 1e-3
    verdict = checker.check(request, 0, json.dumps(table))
    assert any("independent oracle" in r for r in verdict.reasons)


def test_checker_rejects_status_row_count_and_exit_code(tmp_path):
    request = workloads.dims(workloads.rng_for("algebra", 4, "t"))
    table = json.loads(_send(request, tmp_path, "d").table)
    status_at = table["columns"].index("status")
    table["rows"][0][status_at] = "singular"
    assert not checker.check(request, 0, json.dumps(table)).ok
    table["rows"] = table["rows"][1:]
    assert any("rows, expected" in r for r in
               checker.check(request, 0, json.dumps(table)).reasons)
    text = _send(request, tmp_path, "e").table.decode()
    assert checker.check(request, 0, text).ok
    assert checker.check(request, 1, text).reasons == ["exit code 1"]
    assert not checker.check(request, 0, None).ok


def test_a_raised_exception_is_a_failed_request(tmp_path, monkeypatch):
    request = workloads.dims(workloads.rng_for("algebra", 5, "t"))

    def boom(argv):
        raise RuntimeError("injected")

    monkeypatch.setattr(polyball.cli, "main", boom)
    outcome = _send(request, tmp_path, "d")
    verdict = run.verdict_of(request, outcome)
    assert not verdict.ok
    assert verdict.reasons == ["raised RuntimeError: injected"]


def test_accuracy_digits():
    assert checker.accuracy_digits([1e-3, 1e-5]) == pytest.approx(3.0)
    assert checker.accuracy_digits([0.0]) == pytest.approx(16.0)


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no polyball sources" in proc.stderr


def test_spec_metrics_are_all_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    layer = layers.layer_metrics([], [])
    for metric in spec["per_layer"]:
        assert metric["name"] in layer
        assert layer[metric["name"]][1] == metric["unit"]


# --------------------------------------------------------------------------
# calibration and shape medians
# --------------------------------------------------------------------------

def test_local_factors_follow_the_machine_speed():
    slow = 2 * calibrate.REFERENCE_S
    samples = [slow] * 20 + [calibrate.REFERENCE_S] * 21
    factors = calibrate.local_factors(samples, 40)
    assert factors[0] == pytest.approx(0.5 ** calibrate.EXPONENT)
    assert factors[-1] == pytest.approx(1.0)
    spiked = list(samples)
    spiked[5] = 100 * slow  # one disturbed sample moves no factor
    assert calibrate.local_factors(spiked, 40) == factors


def test_one_disturbed_request_moves_no_time_metric():
    labels = ["a"] * 5 + ["b"] * 3
    times = [1.0, 1.1, 0.9, 1.0, 1.0, 3.0, 3.1, 2.9]
    disturbed = list(times)
    disturbed[1] = 50.0
    assert run.typical(labels, disturbed) == run.typical(labels, times)
    assert sum(run.typical(labels, times)) == pytest.approx(14.0)
