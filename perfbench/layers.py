"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the durations of its child spans.
Each layer below groups wrapped functions; a layer reports its calls, self
time and, where the function has a counter in ``tracer.COUNTERS``, the work
it did.  ``MOVES`` says which end-to-end metric, on which workload, each
layer should move.
"""

from __future__ import annotations

from collections import defaultdict

from .tracer import COUNTERS, MODULES

# zonal_from_products counts elements for array calls only; a count of 0
# marks a pointwise (scalar) call.
ZONAL = "kernels.zonal_from_products"

# layer -> (functions, name of the work count or None)
LAYERS = {
    "geometry.principal_power": (("geometry.principal_power",), "elements"),
    "kernels.at_nodes": (("kernels.poisson_from_products",
                          "kernels.boundary_form_values", ZONAL + "@array"),
                         "elements"),
    "kernels.pointwise": (("kernels.poisson_kernel", "kernels.cauchy_hua",
                           "kernels.zonal_polyharmonic",
                           "kernels.zonal_harmonic",
                           "kernels.poisson_boundary_form",
                           "kernels.poisson_from_hua",
                           "kernels.pair_invariants", ZONAL + "@scalar"),
                          None),
    "kernels.series": (("kernels.poisson_kernel_series",), "terms"),
    "kernels.truncation": (("kernels.truncation_degree",), "degree_sum"),
    "quadrature.rule": (("quadrature.sphere_rule", "quadrature.lie_sphere_rule",
                         "quadrature.resolution_for_exactness"), "nodes"),
    "quadrature.reduce": (("quadrature.compensated_sum",
                           "quadrature.sphere_integral",
                           "quadrature.weighted_dot",
                           "quadrature.rotated_inner_product",
                           "quadrature.lie_sphere_integral"), "values"),
    "quadrature.serialize": (("quadrature.rule_to_json",
                              "quadrature.rule_from_json"), None),
    "cli.render": (("cli.ResultTable.render",), "bytes"),
    "cli.validate": (("cli.RunConfig.from_mapping",), None),
    "polyalg.almansi": (("polyalg.harmonic_almansi",
                         "polyalg.polyharmonic_almansi",
                         "polyalg.polyharmonic_split",
                         "polyalg.almansi_reassemble"), None),
    "polyalg.basis": (("polyalg.polyharmonic_basis",
                       "polyalg.harmonic_basis"), None),
    "polyalg.laplacian": (("polyalg.MultiPoly.laplacian",
                           "polyalg.is_polyharmonic"), None),
    "polyalg.parse": (("polyalg.MultiPoly.from_text",), None),
    "polyalg.eval": (("polyalg.MultiPoly.eval_at",
                      "polyalg.MultiPoly.evaluate"), "points"),
    "gegenbauer.eval": (("gegenbauer.gegenbauer",
                         "gegenbauer.gegenbauer_explicit",
                         "gegenbauer.generating_function",
                         "gegenbauer.generating_partial_sum"), None),
    "solver.poisson_integral": (("solver.poisson_integral",), None),
    "solver.hua_reproduce": (("solver.hua_reproduce",), None),
    "solver.limit": (("solver.polyharmonic_limit_experiment",), None),
    "solver.choose_rule": (("solver.choose_rule",), None),
}

MOVES = {
    "geometry.principal_power": "wall_s on solve and reproduce; "
                                "no change on algebra",
    "kernels.at_nodes": "wall_s on solve and reproduce",
    "kernels.at_nodes.elements_per_value": "wall_s on reproduce "
                                           "(no change on solve)",
    "kernels.pointwise": "request_p50_s on solve",
    "kernels.series": "request_p50_s on solve",
    "kernels.truncation": "wall_s and peak_rss_mb on solve and reproduce",
    "quadrature.rule": "wall_s and peak_rss_mb on solve and reproduce",
    "quadrature.reduce": "wall_s on solve and reproduce",
    "quadrature.serialize": "request_p50_s and request_p90_s on solve",
    "cli.render": "request_p50_s and request_p90_s on solve",
    "cli.validate": "request_p50_s and request_p90_s on solve",
    "polyalg.almansi": "wall_s on algebra",
    "polyalg.basis": "wall_s on algebra and reproduce",
    "polyalg.laplacian": "wall_s on algebra",
    "polyalg.parse": "wall_s on algebra",
    "polyalg.eval": "wall_s on algebra and reproduce",
    "gegenbauer.eval": "wall_s on algebra",
    "solver.poisson_integral": "wall_s on solve and reproduce",
    "solver.hua_reproduce": "wall_s on solve and reproduce",
    "solver.limit": "wall_s on solve",
    "solver.choose_rule": "wall_s on solve",
    "solver.boundary_cache_hit_ratio": "wall_s on solve and reproduce",
    "suites": "wall_s on reproduce and algebra",
    "modules": "wall_s on every workload",
}

# Entry points whose results are integral values; a nested entry point
# is part of its caller's value.  The suites also reduce node arrays
# themselves with compensated_sum.
INTEGRALS = ("solver.poisson_integral", "solver.spectral_component",
             "solver.hua_reproduce", "solver.dirichlet_solve",
             "solver.polyharmonic_limit_experiment",
             "quadrature.sphere_integral", "quadrature.weighted_dot",
             "quadrature.rotated_inner_product",
             "quadrature.lie_sphere_integral")
SECTOR_VALUES = "solver.BoundaryData.sector_values"


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.count = 0


def function_stats(names: list, spans: list) -> dict:
    """Calls, self time, total time and work count per function name."""
    child_s = [0.0] * len(spans)
    for nid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: dict = defaultdict(Stat)
    for i, (nid, start, end, _, _, count) in enumerate(spans):
        name = names[nid]
        if name == ZONAL:
            name += "@array" if count else "@scalar"
        stat = stats[name]
        stat.calls += 1
        stat.total_s += end - start
        stat.self_s += end - start - child_s[i]
        stat.count += count
    return stats


def integral_values(names: list, spans: list) -> int:
    """Integral values computed: outermost integral entry points, plus
    compensated_sum calls made directly by a suite."""
    integral = {i for i, name in enumerate(names) if name in INTEGRALS}
    within = [False] * len(spans)  # an ancestor is an integral entry point
    total = 0
    for i, (nid, _, _, parent, _, count) in enumerate(spans):
        within[i] = parent >= 0 and (within[parent]
                                     or spans[parent][0] in integral)
        if within[i]:
            continue
        if nid in integral:
            total += count
        elif (names[nid] == "quadrature.compensated_sum" and parent >= 0
              and names[spans[parent][0]].startswith("suites.suite_")):
            total += 1
    return total


def cache_hits(names: list, spans: list) -> tuple:
    """(sector_values calls that ran no evaluator, all sector_values calls)."""
    has_child = [False] * len(spans)
    for _, _, _, parent, _, _ in spans:
        if parent >= 0:
            has_child[parent] = True
    calls = hits = 0
    for i, (nid, *_rest) in enumerate(spans):
        if names[nid] == SECTOR_VALUES:
            calls += 1
            hits += not has_child[i]
    return hits, calls


def layer_metrics(names: list, spans: list, untraced_s: float = 0.0) -> dict:
    """Every per-layer metric: name -> (value, unit).  A layer's
    ``self_share`` is its self time as a percentage of ``traced_s``, the
    time of the outermost spans; ``tracing.overhead_s`` is ``traced_s``
    minus ``untraced_s``, the time of the same requests untraced."""
    stats = function_stats(names, spans)
    traced_s = sum(end - start for _, start, end, parent, _, _ in spans
                   if parent < 0)
    out = {"traced_s": (traced_s, "s"),
           "tracing.overhead_s": (traced_s - untraced_s, "s")}
    for layer, (functions, count_name) in LAYERS.items():
        parts = [stats[f] for f in functions if f in stats]
        self_s = sum(s.self_s for s in parts)
        out[f"{layer}.calls"] = (sum(s.calls for s in parts), "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.self_share"] = (
            100.0 * self_s / traced_s if traced_s else 0.0, "%")
        if count_name:
            work = sum(stats[f].count for f in functions
                       if f in stats and f.split("@")[0] in COUNTERS)
            out[f"{layer}.{count_name}"] = (work, "count")
    values = integral_values(names, spans)
    elements = out["kernels.at_nodes.elements"][0]
    out["kernels.at_nodes.integral_values"] = (values, "count")
    out["kernels.at_nodes.elements_per_value"] = (
        elements / values if values else 0.0, "elements/value")
    hits, lookups = cache_hits(names, spans)
    out["solver.boundary_lookups"] = (lookups, "count")
    out["solver.boundary_cache_hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio")
    for name, stat in sorted(stats.items()):
        if name.startswith("suites.suite_"):
            suite = name[len("suites.suite_"):].replace("_", "-")
            out[f"suites.{suite}.self_s"] = (stat.self_s, "s")
            out[f"suites.{suite}.total_s"] = (stat.total_s, "s")
    for module in MODULES:
        parts = [s for f, s in stats.items() if f.startswith(module + ".")]
        out[f"module.{module}.self_s"] = (sum(s.self_s for s in parts), "s")
        out[f"module.{module}.calls"] = (sum(s.calls for s in parts),
                                         "count")
    out["spans"] = (len(spans), "count")
    return out
