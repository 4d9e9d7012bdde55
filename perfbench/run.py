"""Benchmark of the polyball command line, end to end and layer by layer.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

One process is one closed-loop client with no threads of its own: it sends
each request through ``polyball.cli.main`` in-process, with a generated
JSON config file and ``--out``, and waits for the table before the next.
Every table is read back and checked.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each request untraced and traced, checks that
both tables are byte-identical, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  End-to-end times are in
reference seconds (see ``calibrate.py``) and count each request at the
median time of its shape.  Everything the run writes goes under
``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, checker, layers, machine, workloads  # noqa: E402
from perfbench.tracer import MODULES, Tracer  # noqa: E402

SETUP_PROBES = 4  # extra set-ups, each in a fresh interpreter


class ProgramMissing(RuntimeError):
    """polyball cannot be imported from this checkout's src/."""


class SetUpFailed(RuntimeError):
    """A warm-up request or a set-up probe failed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_cli():
    """polyball.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "polyball" / "cli.py").is_file():
        raise ProgramMissing(f"no polyball sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyball
    import polyball.cli

    if Path(polyball.__file__).resolve().parent != SRC / "polyball":
        raise ProgramMissing(f"polyball imported from {polyball.__file__}")
    return polyball, polyball.cli


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------

class Outcome:
    """Exit code, table bytes and timing of one request."""

    __slots__ = ("code", "table", "error", "wall_s", "cpu_s")

    def __init__(self, code, table, error, wall_s, cpu_s):
        self.code, self.table, self.error = code, table, error
        self.wall_s, self.cpu_s = wall_s, cpu_s


def send(cli, config_path: Path, out_path: Path, command: str) -> Outcome:
    """One request through cli.main, timed; the table is read afterwards."""
    argv = [command, "--config", str(config_path), "--out", str(out_path)]
    code = error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception as exc:  # a raised request is a failed request
        error = exc
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    table = None
    if out_path.exists():
        table = out_path.read_bytes()
        out_path.unlink()
    return Outcome(code, table, error, wall, cpu)


def verdict_of(request, outcome: Outcome) -> checker.Verdict:
    if outcome.error is not None:
        return checker.raised(outcome.error)
    text = None if outcome.table is None else outcome.table.decode("utf-8")
    return checker.check(request, outcome.code, text)


def write_configs(requests, directory: Path, prefix: str = "config") -> list:
    paths = []
    for i, request in enumerate(requests):
        path = directory / f"{prefix}-{i}.json"
        path.write_text(json.dumps(request.config), encoding="utf-8")
        paths.append(path)
    return paths


def set_up(args, work: Path):
    """Import polyball, generate the inputs and run one warm-up request of
    each command kind.  Returns (reference seconds, cli, package, requests,
    paths); the calibration samples are taken after the timed part."""
    start = time.perf_counter()
    package, cli = import_cli()
    # a traced run sends each request twice, so it takes half the list
    seconds = args.seconds / 2 if args.trace else args.seconds
    requests = workloads.build(args.workload, args.seed, seconds)
    warm = workloads.warmups(args.workload, args.seed)
    workloads.require_distinct(requests + warm)
    paths = write_configs(requests, work)
    warm_paths = write_configs(warm, work, prefix="warm")
    for request, path in zip(warm, warm_paths):
        outcome = send(cli, path, path.with_suffix(".out"), request.command)
        verdict = verdict_of(request, outcome)
        if not verdict.ok:
            raise SetUpFailed(f"warm-up {request.label}: "
                              + "; ".join(verdict.reasons))
    raw = time.perf_counter() - start
    speed = calibrate.factor([calibrate.sample()
                              for _ in range(2 * calibrate.WINDOW + 1)])
    return raw * speed, cli, package, requests, paths


def probe_setups(args, count: int) -> list:
    """Set-up times of ``count`` fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SetUpFailed("set-up probe: " + proc.stderr.strip())
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_plain(cli, requests, paths, work: Path) -> dict:
    """Tracing off: every request once, timed and checked, with a
    calibration sample before each request and after the last."""
    for _ in range(calibrate.WINDOW):
        calibrate.sample()
    raw, cpu, cal, ratios, failures = [], [], [calibrate.sample()], [], []
    for i, (request, path) in enumerate(zip(requests, paths)):
        outcome = send(cli, path, work / f"out-{i}.json", request.command)
        verdict = verdict_of(request, outcome)
        cal.append(calibrate.sample())
        raw.append(outcome.wall_s)
        cpu.append(outcome.cpu_s)
        ratios += verdict.ratios
        if not verdict.ok:
            failures.append((i, request.label, verdict.reasons))
    scale = calibrate.local_factors(cal, len(requests))
    labels = [r.label for r in requests]
    return {"times": [t * f for t, f in zip(raw, scale)],
            "cpu": [c * f for c, f in zip(cpu, scale)], "labels": labels,
            "raw_times": raw, "raw_cpu_s": math.fsum(cpu),
            "calibration": cal, "ratios": ratios, "failures": failures}


def run_traced(cli, package, requests, paths, work: Path) -> dict:
    """Each request untraced and traced, alternating which goes first so
    that warm caches favour neither; the two tables must be identical."""
    tracer = Tracer(package)
    plain_s = 0.0
    failures = []
    for i, (request, path) in enumerate(zip(requests, paths)):
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            out = work / f"out-{i}-{int(traced)}.json"
            if traced:
                tracer.request = i
                with tracer:
                    runs[traced] = send(cli, path, out, request.command)
            else:
                runs[traced] = send(cli, path, out, request.command)
        plain_s += runs[False].wall_s
        reasons = []
        for traced, outcome in runs.items():
            verdict = verdict_of(request, outcome)
            reasons += [("traced: " if traced else "") + r
                        for r in verdict.reasons]
        if runs[False].table != runs[True].table:
            reasons.append("traced table differs from the untraced table")
        if reasons:
            failures.append((i, request.label, reasons))
    return {"tracer": tracer, "plain_s": plain_s,
            "failures": failures}


def typical(labels, values) -> list:
    """Each request's value replaced by the median over the requests of its
    shape, so that one disturbed request moves no metric."""
    groups: dict = {}
    for label, value in zip(labels, values):
        groups.setdefault(label, []).append(value)
    medians = {label: statistics.median(v) for label, v in groups.items()}
    return [medians[label] for label in labels]


def end_to_end(setups, plain) -> dict:
    times = typical(plain["labels"], plain["times"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": math.fsum(times),
        "request_p50_s": percentile(times, 50),
        "request_p90_s": percentile(times, 90),
        "cpu_s": math.fsum(typical(plain["labels"], plain["cpu"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "accuracy_digits": checker.accuracy_digits(plain["ratios"]),
    }


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def _kinds(requests) -> str:
    counts = {}
    for request in requests:
        counts[request.command] = counts.get(request.command, 0) + 1
    return ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))


def print_failures(failures):
    for i, label, reasons in failures[:20]:
        print(f"FAILED request {i} ({label}): " + "; ".join(reasons[:3]))


def report_plain(spec, metrics, setups, plain):
    times, raw = plain["times"], plain["raw_times"]
    beyond = sum(t > percentile(times, 90) for t in times)
    speed = math.fsum(times) / math.fsum(raw)
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(setups), ", ".join(f"{s:.3f}" for s in setups)),
        "wall_s": f"measured {math.fsum(times):.4f} s, raw "
                  f"{math.fsum(raw):.4f} s",
        "request_p50_s": f"{len(times)} samples; measured "
                         f"{percentile(times, 50):.6f} s, raw "
                         f"{percentile(raw, 50):.6f} s",
        "request_p90_s": f"{len(times)} samples, {beyond} beyond p90; "
                         f"measured {percentile(times, 90):.6f} s, raw "
                         f"{percentile(raw, 90):.6f} s",
        "cpu_s": "user+sys of all threads, BLAS workers included; "
                 f"{metrics['cpu_s'] / metrics['wall_s']:.2f}x wall; raw "
                 f"{plain['raw_cpu_s']:.4f} s",
        "peak_rss_mb": "peak resident set of the process",
        "accuracy_digits": f"over {len(plain['ratios'])} oracle rows",
    }
    print("end-to-end (tracing off; one closed-loop client, no threads). "
          "Times are in reference seconds: each request's time is scaled by "
          f"({calibrate.REFERENCE_S} s / median calibration sample around it)"
          f" ** {calibrate.EXPONENT} (mean scale this run {speed:.3f}), then "
          "taken as the "
          "median over the requests of its shape; 'measured' skips that "
          "median, 'raw' skips both.")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<16} {metrics[m['name']]:>14.6f} {m['unit']:<6}"
              f" {m['better']} is better; {notes[m['name']]}")
    failed = len(plain["failures"])
    print(f"  {'failed_frac':<16} {failed / len(times):>14.6f} "
          f"({failed} of {len(times)} requests)")


def report_layers(layer, traced):
    print("per-layer (traced run; self time = span minus child spans; "
          "no queues or threads, so no wait time exists):")
    overhead = layer["tracing.overhead_s"][0]
    print(f"  traced wall_s {layer['traced_s'][0]:.4f} s, untraced wall_s "
          f"{traced['plain_s']:.4f} s, tracing overhead {overhead:.4f} s "
          f"({overhead / traced['plain_s']:+.1%} of untraced wall_s); "
          "raw seconds")
    print(f"  {'layer':<26} {'calls':>8} {'self_s':>9} {'share':>6}  "
          f"{'work (per call)':<34} should move")
    for name, (_, count_name) in layers.LAYERS.items():
        calls = layer[f"{name}.calls"][0]
        if not calls:
            continue
        work = ""
        if count_name:
            count = layer[f"{name}.{count_name}"][0]
            work = f"{count_name} {count} ({count / calls:.1f})"
        print(f"  {name:<26} {calls:>8} {layer[name + '.self_s'][0]:>9.4f}"
              f" {layer[name + '.self_share'][0]:>5.1f}%  {work:<34} "
              f"{layers.MOVES[name]}")
    print("  (share: self time over the traced wall_s; per call: work "
          "count over calls)")
    values = layer["kernels.at_nodes.integral_values"][0]
    if values:
        print(f"  kernels.at_nodes.elements_per_value "
              f"{layer['kernels.at_nodes.elements_per_value'][0]:.1f} "
              f"(base: {values} integral values); "
              f"{layers.MOVES['kernels.at_nodes.elements_per_value']}")
    lookups = layer["solver.boundary_lookups"][0]
    if lookups:
        print(f"  solver.boundary_cache_hit_ratio "
              f"{layer['solver.boundary_cache_hit_ratio'][0]:.3f} "
              f"(base: {lookups} sector_values calls); "
              f"{layers.MOVES['solver.boundary_cache_hit_ratio']}")
    for key, (value, _) in layer.items():
        if key.startswith("suites.") and key.endswith(".self_s"):
            total = layer[key[:-len("self_s")] + "total_s"][0]
            print(f"  {key:<36} {value:>10.4f} s (total {total:.4f} s); "
                  f"{layers.MOVES['suites']}")
    print("  module self time (s): " + ", ".join(
        f"{m} {layer[f'module.{m}.self_s'][0]:.4f}" for m in MODULES)
        + f"; {layer['spans'][0]} spans; {layers.MOVES['modules']}")


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"error: cannot read {spec_path}: {err}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, spec, work)
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SetUpFailed as err:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, work: Path) -> int:
    setup_s, cli, package, requests, paths = set_up(args, work)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    facts = machine.facts(ROOT, SRC / "polyball")
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"requests: {len(requests)} ({_kinds(requests)}), every config "
          "distinct")
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        setups = [setup_s] + probe_setups(args, SETUP_PROBES)
        plain = run_plain(cli, requests, paths, work)
        values = end_to_end(setups, plain)
        report_plain(spec, values, setups, plain)
        print_failures(plain["failures"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        failed = len(plain["failures"])
        detail = {"setups": setups,
                  **{k: plain[k] for k in ("labels", "times", "raw_times",
                                           "cpu", "calibration",
                                           "failures")}}
    else:
        traced = run_traced(cli, package, requests, paths, work)
        tracer = traced["tracer"]
        layer = layers.layer_metrics(tracer.names, tracer.spans,
                                     traced["plain_s"])
        report_layers(layer, traced)
        print_failures(traced["failures"])
        tracer.dump(stem.with_suffix(".spans.jsonl.gz"), tracer.spans[0][1]
                    if tracer.spans else 0.0)
        metrics = {m["name"]: {"value": layer[m["name"]][0],
                               "unit": m["unit"]} for m in spec["per_layer"]}
        failed = len(traced["failures"])
        detail = {"layers": layer, "failures": traced["failures"]}
    result = {"correct": failed == 0, "attempted": len(requests),
              "failed": failed, "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(
        {"args": vars(args), "machine": facts, "result": result,
         "detail": detail}, indent=1, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
