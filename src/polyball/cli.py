"""Command-line surface: JSON-configured experiments, machine-readable tables.

An experiment is a single JSON document passed via ``--config``, the one
spelling of every input: no flag overrides a key.  A command takes only
the keys its run reads (``seed`` only in ``verify``, ``tolerance`` in all
but ``dims``) and rejects others; ``kernel`` reads its point pairs only
from its ``pairs`` list.  Each run lays out a table over public batched
calls of the lower modules.  Results are emitted as one table (CSV or
JSON) whose rows end with the fixed numeric columns

    value_re, value_im, reference_re, reference_im, abs_error, bound

preceded by command-specific input columns (always including ``status``).
Empty reference/bound cells mark informational rows.  Table metadata carries
the normalized configuration, its SHA-256 hash, package versions, and the
quadrature rule when one drove the run, always sized by
``solver.choose_rule`` (no key sets it), recorded by its (n, resolution)
and a digest of its nodes and weights (``quadrature.rule_to_json``).  A
``dirichlet`` run at n >= 3 records its pole-aligned template, whose
azimuth resolution comes from the data degree, and the number of nodes
turned to its points, unless the shared rule makes fewer values.  A report
rebuilds its rule bit for bit wherever ``sphere_rule`` yields the same
bits; ``rule_from_json`` detects a rule that differs and refuses it.

CSV cells print floats with 17 significant digits; the JSON emitter writes
native floats.  Both parse back to identical binary values.

Exit codes: 0 all rows pass; 1 a measured error exceeded its bound;
2 configuration or parse error (including per-row rejected inputs);
3 numerical singularity in a required row; 4 internal error (an exception
no validation anticipated, reported as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import platform
import sys
from itertools import chain, compress
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, kernels, polyalg, quadrature, solver, suites
from .geometry import lie_norm, sector_phases, sector_points
from .kernels import ROUTE_GEGENBAUER_DIFF, ROUTES
from .polyalg import MultiPoly, dim_H, dim_Hp, dim_P

__all__ = ["main", "run_command", "RunConfig", "ResultTable", "ConfigError"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_INTERNAL = 4

_indented = json.JSONEncoder(indent=2, sort_keys=True, check_circular=False,
                             allow_nan=False).encode
_cell_lines = json.JSONEncoder(separators=(",\n      ", ": "),
                               check_circular=False, allow_nan=False).encode
_MIN_CELLS = 512  # cells in a JSON table before a lookup of distinct ones pays
VALUE_COLUMNS = ("value_re", "value_im", "reference_re", "reference_im",
                 "abs_error", "bound")


class ConfigError(ValueError):
    """Invalid configuration document or unparsable embedded text."""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

def _as_int(value, key: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key} must be <= {maximum}")
    return value


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be finite")
    return out


def _as_str(value, key: str, cfg=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string")
    return value


def _as_vector(value, key: str, cfg: dict) -> list:
    if not isinstance(value, list) or len(value) != cfg["n"]:
        raise ConfigError(f"{key} must be a list of {cfg['n']} numbers")
    return [_as_float(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _as_complex_entry(value, key: str) -> list:
    """A coordinate given either as a real number or as an [re, im] pair."""
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"{key} must be a number or an [re, im] pair")
        return [_as_float(value[0], f"{key}[0]"), _as_float(value[1], f"{key}[1]")]
    return [_as_float(value, key), 0.0]


def _required(message: str):
    """The default of a key that must be given: raises ``message``."""
    def default(cfg):
        raise ConfigError(message)
    return default


def _int(minimum=None, maximum=None):
    return lambda value, key, cfg: _as_int(value, key, minimum, maximum)


def _sector(value, key: str, cfg: dict) -> int:
    return _as_int(value, key, 0, cfg["p"] - 1)


def _listed(check):
    """A non-empty list, each entry checked by ``check``."""
    def read(value, key, cfg):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key} must be a non-empty list")
        return [check(v, f"{key}[{i}]", cfg) for i, v in enumerate(value)]
    return read


def _named(names, unknown: str):
    """A string in ``names``; ``unknown`` words any other string."""
    def read(value, key, cfg):
        if _as_str(value, key) not in names:
            raise ConfigError(unknown.format(value))
        return value
    return read


def _tolerance(value, key: str, cfg: dict) -> float | None:
    if value is not None and _as_float(value, key) <= 0:
        raise ConfigError(f"{key} must be positive")
    return value if value is None else float(value)


def _coordinates(value, key: str, cfg: dict) -> list:
    if not isinstance(value, list) or len(value) != cfg["n"]:
        raise ConfigError(f"{key} must be a list of {cfg['n']} coordinates")
    return [_as_complex_entry(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _increasing(value, key: str, cfg: dict) -> list:
    value = _listed(_int(1))(value, key, cfg)
    if any(b <= a for a, b in zip(value, value[1:])):
        raise ConfigError(f"{key} must be strictly increasing")
    return value


def _read(table: dict, raw: dict, cfg=None, at: str = "") -> dict:
    """The keys of ``table`` read from ``raw`` in table order and named
    with the prefix ``at``: into ``cfg`` at the top level, into a dict of
    its own for a pairs entry.  Each entry is a pair (``check(value, name,
    cfg)``, default); a callable default is computed as ``default(cfg)``
    from the keys checked before, or raises for a required key."""
    out = {}
    cfg = out if cfg is None else cfg
    for key, (check, default) in table.items():
        value = (raw[key] if key in raw else default(cfg) if callable(default)
                 else default)
        out[key] = check(value, at + key, cfg)
    return out


_COMMON = {"n": (_int(2), _required("n is required")), "p": (_int(1), 1),
           "tolerance": (_tolerance, None)}
_PAIR = {"x": (_as_vector, None), "zeta": (_as_vector, None),
         "x_sector": (_sector, 0), "zeta_sector": (_sector, 0)}


def _pair(value, key: str, cfg: dict) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    unknown = sorted(value.keys() - _PAIR.keys())
    if unknown:
        raise ConfigError(f"unknown keys in {key}: " + ", ".join(unknown))
    return _read(_PAIR, value, cfg, f"{key}.")


def _sectors(value, key: str, cfg: dict) -> list:
    if not isinstance(value, list) or len(value) != len(cfg["points"]):
        raise ConfigError(f"{key} must list one sector index per point")
    return [_sector(s, f"{key}[{i}]", cfg) for i, s in enumerate(value)]


class RunConfig:
    """Validated, normalized experiment configuration for one command: the
    keys of its table, defaults materialized."""

    def __init__(self, command: str, data: dict):
        self.command = command
        self.data = data

    @classmethod
    def from_mapping(cls, command: str, raw) -> "RunConfig":
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        table = _COMMANDS[command].table
        unknown = sorted(raw.keys() - table.keys())
        if unknown:
            raise ConfigError(
                f"unknown configuration keys for {command}: "
                + ", ".join(unknown))
        return cls(command, _read(table, raw))

    @property
    def n(self) -> int:
        return self.data["n"]

    @property
    def p(self) -> int:
        return self.data["p"]

    @property
    def row_tolerance(self) -> float | None:
        tolerance = self.data.get("tolerance")
        return (_COMMANDS[self.command].tolerance if tolerance is None
                else tolerance)


# --------------------------------------------------------------------------
# result tables
# --------------------------------------------------------------------------

class ResultTable:
    """Input and value cells as one list per column, with metadata."""

    def __init__(self, command: str, input_columns, metadata: dict):
        self.command = command
        self.columns = tuple(input_columns) + VALUE_COLUMNS
        self.status_index = list(input_columns).index("status")
        self.cells = tuple([] for _ in self.columns)
        self.metadata = metadata

    @property
    def rows(self) -> list:
        """A copy of the cells row by row."""
        return [list(row) for row in zip(*self.cells)]

    def add(self, inputs, value=None, reference=None, error=None, bound=None):
        cells = list(inputs)
        for w in (value, reference):
            if w is None:
                cells += [None, None]
            else:
                w = complex(w)
                cells += [float(w.real) + 0.0, float(w.imag) + 0.0]
        cells += [w if w is None else float(w) + 0.0 for w in (error, bound)]
        if len(cells) != len(self.columns):
            raise ValueError("row shape mismatch")
        for column, cell in zip(self.cells, cells):
            column.append(cell)

    def exit_code(self) -> int:
        status = self.cells[self.status_index]
        return (EXIT_CONFIG if "rejected" in status else EXIT_SINGULAR
                if "singular" in status else EXIT_TOLERANCE if any(
                    e is not None and b is not None and not e <= b
                    for e, b in zip(*self.cells[-2:])) else EXIT_OK)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self._render_json()
        if fmt != "csv":
            raise ValueError(f"unknown format {fmt!r}")
        buf = io.StringIO()
        meta = json.dumps(self.metadata, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
        buf.write(f"# {meta}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(zip(*[map(_csv_cell, col) for col in self.cells]))
        return buf.getvalue()

    def _render_json(self) -> str:
        r"""``json.dumps(table, indent=2, sort_keys=True)`` plus a newline,
        byte for byte.  Past ``_MIN_CELLS`` cells, one C-encoder call formats
        each distinct cell once, in a lookup per number type (as keys 1 ==
        1.0 == True and 0.0 == -0.0; a value cell is never -0.0); smaller or
        colliding tables go whole through the C encoder, one cell a line."""
        table = {"columns": list(self.columns), "metadata": self.metadata}
        kinds = [set(map(type, c)) for c in self.cells[:-len(VALUE_COLUMNS)]]
        numbers = [frozenset(kind & {float, int, bool}) for kind in kinds]
        if not self.cells[0] or not set().union(*kinds) <= {
                float, int, bool, str, type(None)}:  # no nested cells
            return _indented({**table, "rows": list(
                map(list, zip(*self.cells)))}) + "\n"
        if len(self.cells[0]) * len(self.cells) <= _MIN_CELLS or any(
                len(number) > 1 or float in number and any(
                    c == 0.0 and math.copysign(1.0, c) < 0.0
                    for c in col if isinstance(c, float))
                for number, col in zip(numbers, self.cells)):
            rows = _cell_lines(list(map(list, zip(*self.cells))))[2:-2].split(
                "],\n      [")  # no encoded string holds a raw newline
        else:
            numbers += [frozenset({float})] * len(VALUE_COLUMNS)
            lookups = {key: dict.fromkeys(chain(*compress(self.cells, map(
                key.__eq__, numbers)))) for key in dict.fromkeys(numbers)}
            texts = iter(json.dumps([*chain(*lookups.values())], separators=(
                "\n", ": "), allow_nan=False)[1:-1].split("\n"))
            lookups = {key: dict(zip(lookup, texts))
                       for key, lookup in lookups.items()}
            rows = map(",\n      ".join, zip(*[
                map(lookups[number].__getitem__, col)
                for number, col in zip(numbers, self.cells)]))
        return _indented({**table, "rows": []})[:-4] + "[\n    [\n      " \
            + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]\n}\n"


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        if not math.isfinite(cell):  # as the JSON encoder refuses it
            raise ValueError(f"non-finite table cell {cell!r}")
        return format(cell, ".17g")
    return str(cell)


def _metadata(cfg: RunConfig, rule=None) -> dict:
    effective = dict(cfg.data)
    blob = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return {
        "command": cfg.command,
        "config": effective,
        "config_sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        "versions": {
            "polyball": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "rule": None if rule is None else quadrature.rule_to_json(rule),
    }


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _kernel_rows(block, at, cells, outside, singular=False, failed=False):
    """Rows ``at`` of each pair's ``kernel`` cells: rejected outside the
    domain, singular for a vanished denominator, rejected for a value past
    the doubles or a refused series, else ok with cells + 0.0 (no -0.0)."""
    for mask, status in [(True, "ok"), (failed, "rejected"),  # last wins
                         (singular, "singular"), (outside, "rejected")]:
        block[4, :, at][mask] = status
    block[5:5 + len(cells), :, at] = np.asarray(cells) + 0.0
    block[5:5 + len(cells), :, at][:, outside | singular | failed] = None


def run_kernel(cfg: RunConfig) -> ResultTable:
    """Every kernel is evaluated as arrays over all pairs at once; array
    operations act on each pair alone, so a pair's rows do not depend on
    the rest of its batch.  Routes, degrees and scales share one table of
    powers of B and P (``kernels.zonal_routes``)."""
    table = ResultTable("kernel",
                        ("pair", "kernel", "m", "route", "status"),
                        _metadata(cfg))
    tol = cfg.row_tolerance
    n, p, which = cfg.n, cfg.p, cfg.data["kernels"]
    pairs = cfg.data["pairs"]
    x_coords, zeta_coords = (np.array([pair[key] for pair in pairs])
                             for key in ("x", "zeta"))
    xs = sector_points(x_coords, [pair["x_sector"] for pair in pairs], p)
    zetas = sector_points(zeta_coords, [pair["zeta_sector"] for pair in pairs],
                          p)
    B, x2, zb2 = kernels.pair_invariants(xs, zetas)
    P = x2 * zb2
    degrees = cfg.data["degrees"] if "zonal" in which else []
    try:  # (degree, route, pair) values, their largest route gaps, scales
        values, gaps, scales = kernels.zonal_routes(n, degrees, p, B, P)
    except OverflowError as err:  # exact coefficients > 2^1024
        raise ConfigError(str(err)) from err
    bound = tol * np.fmax(1.0, scales)
    ref = values[:, [ROUTES.index(ROUTE_GEGENBAUER_DIFF)] * len(ROUTES)]
    # each pair's rows: zonal by degree and route, then poisson and hua
    extra = [name for name in ("poisson", "hua") if name in which]
    zonal = len(degrees) * len(ROUTES)
    block = np.empty((len(table.columns), len(xs), zonal + len(extra)),
                     dtype=object)  # of None
    block[0] = np.arange(len(xs))[:, None]
    block[1:4] = np.array([("zonal", m, route) for m in degrees for route in
                           ROUTES] + [(name, "", "closed-form") for name in
                                      extra], dtype=object).T[:, None]
    # a zonal value, gap or bound past the doubles rejects its three rows
    _kernel_rows(block, slice(zonal), np.array([
        values.real, values.imag, ref.real, ref.imag, gaps,
        np.broadcast_to(bound[:, None], gaps.shape)]).transpose(0, 3, 1, 2)
        .reshape(len(VALUE_COLUMNS), len(xs), zonal), np.repeat(~(
            np.isfinite(values).all(axis=1) & np.isfinite(bound)
            & np.isfinite(gaps).all(axis=1)).T, len(ROUTES), axis=1))
    try:  # the poisson and hua rows only; n^2 minors may pass the node cap
        lie = (lie_norm(xs) * lie_norm(zetas)
               if {"poisson", "hua"} & set(which) else None)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if "poisson" in which:
        inside, on_sphere = kernels.sector_masks(x_coords, zeta_coords)
        closed, singular, finite = kernels.poisson_masked(n, p, x2, B, zb2)
        try:  # aligned pairs attain the tail bound, so ask for tol / 100
            truth, _, tails, refusals = kernels.poisson_series(
                n, p, B, P, lie.tolist(), max(tol / 100.0, 1e-13))
        except ValueError as err:  # the term table is above the node cap
            raise ConfigError(f"poisson series: {err}") from err
        # libm's hypot, as Python's abs takes it (numpy's complex abs differs)
        error, size = (np.hypot(z.real, z.imag) for z in (closed - truth,
                                                          closed))
        _kernel_rows(block, zonal + extra.index("poisson"), [
            closed.real, closed.imag, truth.real, truth.imag, error,
            tails + tol * np.fmax(1.0, size)], ~(inside & on_sphere),
            singular, ~finite | [err is not None for err in refusals])
    if "hua" in which:
        hua, singular, finite = kernels.cauchy_hua_masked(n, x2, B, zb2)
        _kernel_rows(block, zonal + extra.index("hua"), [hua.real, hua.imag],
                     ~(lie < 1.0), singular, ~finite)
    for column, cells in zip(table.cells, block.reshape(len(block), -1)):
        column.extend(cells.tolist())
    return table


def _polynomial(cfg: RunConfig, key: str, what: str, orders=()) -> list:
    """``cfg.data[key]`` parsed, then its exact Poisson integral over each
    of ``orders`` (``polyalg.poisson_polynomial``); unparsable text, a
    ladder past its step cap, or a coefficient of any of them past the
    double range that every command evaluates in, is a ConfigError."""
    try:
        q = MultiPoly.from_text(cfg.data[key], n=cfg.n)
        out = [q] + [polyalg.poisson_polynomial(q, p) for p in orders]
        for f in out:
            f.coefficient_scale()
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from err
    return out


def _build_rule(cfg: RunConfig, where: str, p: int, degree: int,
                radius: float, points: int | None = None):
    """``choose_rule``'s rule for degree-``degree`` data up to ``radius`` at
    ``points`` real points (dirichlet) or complex ones (None).  Its
    refusals, raised before any rule or sector phase is built, are
    configuration errors."""
    try:  # SeriesToleranceError is a ValueError
        return solver.choose_rule(cfg.n, p, degree, radius, max(
            cfg.row_tolerance / 10.0, 1e-13), points)
    except ValueError as err:
        raise ConfigError(f"no quadrature rule for {where}: {err}") from err


def _add_checked(table: ResultTable, inputs: tuple, value: complex,
                 want: complex, bound: float):
    """A row of ``value`` against the reference ``want`` within ``bound``;
    rejected, with empty cells, when any of them or the error is past the
    double range (data too large for the quadrature's doubles)."""
    error = abs(value - want)
    if math.isfinite(error) and math.isfinite(bound):
        table.add(inputs + ("ok",), value=value, reference=want, error=error,
                  bound=bound)
    else:
        table.add(inputs + ("rejected",))


def run_dirichlet(cfg: RunConfig) -> ResultTable:
    n, p = cfg.n, cfg.p
    tol = cfg.row_tolerance
    q, u_p = _polynomial(cfg, "boundary", "boundary polynomial", [p])
    coords = np.array(cfg.data["points"], dtype=float)
    sectors = np.array(cfg.data["sectors"])
    radii = kernels.point_radii(coords)
    interior = radii < 1.0 - 1e-9
    radius = float(np.max(radii[interior], initial=0.0))
    turns = int(np.sum(interior))
    rule = _build_rule(cfg, f"radius {radius!r}", p, q.degree(), radius,
                       turns)
    coord_names = tuple(f"x{i + 1}" for i in range(n))
    metadata = _metadata(cfg, rule)
    if rule.azimuth is not None:
        metadata["rule"]["nodes"] = p * turns * rule.count
    table = ResultTable("dirichlet",
                        ("point", "sector") + coord_names + ("status",),
                        metadata)
    inside = coords[interior], sectors[interior]
    values = iter(solver.poisson_integrals([q], p, *inside, rule)[:, 0])
    wants = iter(solver.sector_values([u_p], sector_phases(range(p), p),
                                      inside[1], inside[0])[:, 0])
    for i, (pt, j, ok) in enumerate(zip(cfg.data["points"],
                                        cfg.data["sectors"], interior)):
        inputs = (i, j, *pt)
        if not ok:
            table.add(inputs + ("rejected",))
            continue
        want = complex(next(wants))
        _add_checked(table, inputs, complex(next(values)), want,
                     tol * max(1.0, abs(want)))
    return table


def run_verify(cfg: RunConfig) -> ResultTable:
    table = ResultTable("verify", ("suite", "property", "status"),
                        _metadata(cfg))
    for name in cfg.data["suites"]:
        try:
            rows = suites.run_suite(name, cfg.n, cfg.p, cfg.data["seed"],
                                    cfg.data["tolerance"])
        except ValueError as err:
            raise ConfigError(f"suite {name}: {err}") from err
        for row in rows:
            table.add((row.suite, row.name, "ok"), value=row.deviation,
                      reference=0.0, error=row.deviation,
                      bound=row.tolerance)
    return table


def run_hua_limit(cfg: RunConfig) -> ResultTable:
    tol = cfg.row_tolerance
    u, *exact = _polynomial(cfg, "u", "u polynomial", cfg.data["p_list"])
    zc = np.array([complex(re, im) for re, im in cfg.data["z"]])
    try:  # n^2 minors above the node cap raise
        radius, p_list = lie_norm(zc), cfg.data["p_list"]
    except ValueError as err:
        raise ConfigError(f"z: {err}") from err
    if not radius < 1.0:
        raise ConfigError("z must lie in the open Lie ball")
    rule = _build_rule(cfg, f"Lie norm {radius!r}", max(p_list), u.degree(),
                       radius)
    # |u| <= sum |c_alpha| on the Lie sphere, where every |w^alpha| <= 1, so
    # a rule proven to tail * sum |c_alpha| <= tol / 100 sizes the hua row
    u_max = sum(abs(complex(a / u.denom, b / u.denom))
                for a, b in u.terms.values())
    try:
        lie = solver.choose_lie_rule(cfg.n, max(u.degree(), 0), radius,
                                     tol / 100.0 / max(1.0, u_max))
    except ValueError as err:
        raise ConfigError(f"no Lie-sphere rule for Lie norm {radius!r}: "
                          f"{err}") from err
    hua = complex(solver.hua_integrals([u], zc[None], lie)[0, 0])
    table = ResultTable("hua-limit", ("p", "status"), _metadata(cfg, rule))
    for p, u_p in zip(p_list, exact):
        value = solver.lie_ball_poisson_integrals([u], p, zc[None], rule)
        _add_checked(table, (p,), complex(value[0, 0]), u_p.evaluate(zc), tol)
    _add_checked(table, ("hua",), hua, u.evaluate(zc), tol)
    return table


def run_almansi(cfg: RunConfig) -> ResultTable:
    n, p = cfg.n, cfg.p
    bound = cfg.row_tolerance
    [q] = _polynomial(cfg, "polynomial", "polynomial")
    table = ResultTable("almansi",
                        ("component", "degree", "polynomial", "status"),
                        _metadata(cfg))
    try:  # a component may pass the double range or the int-to-text limit
        components = polyalg.polyharmonic_almansi(q, p)
        for k, comp in enumerate(components):
            table.add((k, comp.degree(), comp.to_text(), "ok"),
                      value=comp.coefficient_scale(), reference=0.0,
                      error=polyalg.laplacian_power(comp, p)
                      .coefficient_scale(), bound=bound)
        mismatch = (polyalg.almansi_reassemble(components, n, p)
                    - q).coefficient_scale()
        table.add(("reassembly", q.degree(), q.to_text(), "ok"),
                  value=q.coefficient_scale(), reference=0.0,
                  error=mismatch, bound=bound)
    except ValueError as err:
        raise ConfigError(f"polynomial: {err}") from err
    return table


def run_dims(cfg: RunConfig) -> ResultTable:
    table = ResultTable("dims",
                        ("n", "p", "m", "dim_P", "dim_H", "status"),
                        _metadata(cfg))
    for m in cfg.data["degrees"]:
        try:
            value = float(dim_Hp(cfg.n, m, cfg.p))
        except OverflowError:
            raise ConfigError(f"degree {m}: dim H_m^p is past the double "
                              "range") from None
        table.add((cfg.n, cfg.p, m, dim_P(cfg.n, m), dim_H(cfg.n, m), "ok"),
                  value=value)
    return table


class _Command(NamedTuple):
    help: str
    tolerance: float | None  # default row tolerance; None: per row or none
    table: dict  # key -> entry, in check order (see _read)
    run: Callable  # RunConfig -> ResultTable


_COMMANDS = {
    "kernel": _Command(
        "evaluate zonal/Poisson/Cauchy-Hua kernels at point pairs", 1e-10, {
            **_COMMON,
            "pairs": (_listed(_pair),
                      _required("pairs (a list of x/zeta pairs) is required")),
            "degrees": (_listed(_int(0)), [0, 1, 2, 3, 4]),
            "kernels": (_listed(_named(
                ("zonal", "poisson", "hua"),
                "unknown kernel {!r} (choose from zonal, poisson, hua)")),
                ["zonal", "poisson"]),
        }, run_kernel),
    "dirichlet": _Command(
        "solve the Dirichlet problem for polynomial boundary data at "
        "interior points", 1e-9, {
            **_COMMON,
            "boundary": (_as_str,
                         _required("boundary (polynomial text) is required")),
            "points": (_listed(_as_vector), None),
            "sectors": (_sectors, lambda cfg: [0] * len(cfg["points"])),
        }, run_dirichlet),
    "verify": _Command("run named verification suites", None, {
        "n": _COMMON["n"], "p": _COMMON["p"],
        "seed": (_int(0, 2 ** 64 - 1), 0), "tolerance": _COMMON["tolerance"],
        "suites": (_listed(_named(suites.SUITES, "unknown suite {!r} (known: "
                                  + ", ".join(sorted(suites.SUITES)) + ")")),
                   None),
    }, run_verify),
    "hua-limit": _Command(
        "rising-order limit experiment against the Cauchy-Hua integral",
        1e-6, {
            **{key: _COMMON[key] for key in ("n", "tolerance")},
            "u": (_as_str, _required("u (holomorphic polynomial text) is "
                                     "required")),
            "z": (_coordinates, None),
            "p_list": (_increasing, [1, 2, 4, 8]),
        }, run_hua_limit),
    "almansi": _Command("exact Almansi decomposition of a polynomial", 0.0, {
        **_COMMON,
        "polynomial": (_as_str, _required("polynomial (text) is required")),
    }, run_almansi),
    "dims": _Command(
        "dimension tables for harmonic and polyharmonic spaces", None,
        {"n": _COMMON["n"], "p": _COMMON["p"],
         "degrees": (_listed(_int(0)), list(range(9)))}, run_dims),
}
# dispatch through a plain dict of the runners, which a tracer can patch
_RUNNERS = {name: command.run for name, command in _COMMANDS.items()}


def run_command(command: str, config: dict) -> ResultTable:
    """Programmatic entry: validate a configuration mapping and run it."""
    cfg = RunConfig.from_mapping(command, config)
    # a value past the double range gets a row status or a ConfigError,
    # never a numpy warning on stderr
    with np.errstate(all="ignore"):
        return _RUNNERS[command](cfg)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` leaves it unchanged, so
    every ``main`` call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="polyball",
        description="Kernel and solver experiments on unions of rotated "
                    "balls, driven by a single JSON configuration.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help,
                             description=command.help)
        cmd.add_argument("--config", required=True,
                         help="path to the JSON experiment document")
        cmd.add_argument("--out", help="write the table here instead of stdout")
        cmd.add_argument("--format", choices=("csv", "json"), default="json",
                         help="table format (default json)")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        table = run_command(args.command, _load_config(args.config))
        text = table.render(args.format)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # a gap in validation, not a failed bound
        message = " ".join(str(err).splitlines())
        print(f"error: internal error: {type(err).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fp:
                fp.write(text)
        except OSError as err:
            print(f"error: cannot write output: {err}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    return table.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
