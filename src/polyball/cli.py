"""Command-line surface: JSON-configured experiments, machine-readable tables.

An experiment is a single JSON document passed via ``--config``; the
``--seed`` and ``--tolerance`` flags override the top-level scalar fields of
the same names, and nothing else.  Unknown configuration keys are rejected.
Results are emitted as one table (CSV or JSON) whose rows end with the fixed
numeric columns

    value_re, value_im, reference_re, reference_im, abs_error, bound

preceded by command-specific input columns (always including ``status``).
Empty reference/bound cells mark informational rows.  Table metadata carries
the normalized configuration, its SHA-256 hash, package versions, and the
serialized quadrature rule when one drove the run, so a report is enough to
reproduce the run bit-identically.

CSV cells print floats with 17 significant digits; the JSON emitter writes
native floats.  Both parse back to identical binary values.

Exit codes: 0 all rows pass; 1 a measured error exceeded its bound;
2 configuration or parse error (including per-row rejected inputs);
3 numerical singularity in a required row.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import platform
import sys

import numpy as np

from . import __version__, kernels, polyalg, quadrature, solver, suites
from .geometry import RotatedVector, bilinear_square, lie_norm
from .kernels import ROUTE_GEGENBAUER_DIFF, ROUTES
from .polyalg import MultiPoly, dim_H, dim_Hp, dim_P

__all__ = ["main", "run_command", "RunConfig", "ResultTable", "ConfigError"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3

VALUE_COLUMNS = ("value_re", "value_im", "reference_re", "reference_im",
                 "abs_error", "bound")

_COMMON_KEYS = {"n", "p", "seed", "tolerance"}
_ALLOWED_KEYS = {
    "kernel": _COMMON_KEYS | {"x", "zeta", "x_sector", "zeta_sector",
                              "pairs", "degrees", "kernels"},
    "dirichlet": _COMMON_KEYS | {"resolution", "boundary", "points",
                                 "sectors"},
    "verify": _COMMON_KEYS | {"suites"},
    "hua-limit": (_COMMON_KEYS - {"p"}) | {"u", "z", "p_list", "resolution",
                                           "angular"},
    "almansi": _COMMON_KEYS | {"polynomial"},
    "dims": _COMMON_KEYS | {"degrees"},
}
_DEFAULT_TOLERANCE = {
    "kernel": 1e-10,
    "dirichlet": 1e-9,
    "verify": None,  # per-property defaults
    "hua-limit": 1e-6,
    "almansi": 0.0,
    "dims": None,
}


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


def _as_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string")
    return value


def _as_vector(value, key: str, n: int) -> list:
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{key} must be a list of {n} numbers")
    return [_as_float(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _as_complex_entry(value, key: str) -> list:
    """A coordinate given either as a real number or as an [re, im] pair."""
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"{key} must be a number or an [re, im] pair")
        return [_as_float(value[0], f"{key}[0]"), _as_float(value[1], f"{key}[1]")]
    return [_as_float(value, key), 0.0]


class RunConfig:
    """Validated, normalized experiment configuration for one command."""

    def __init__(self, command: str, n: int, p: int, seed: int,
                 tolerance, data: dict):
        self.command = command
        self.n = n
        self.p = p
        self.seed = seed
        self.tolerance = tolerance
        self.data = data

    @classmethod
    def from_mapping(cls, command: str, raw) -> "RunConfig":
        if command not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown command {command!r}")
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        allowed = _ALLOWED_KEYS[command]
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ConfigError(
                f"unknown configuration keys for {command}: "
                + ", ".join(unknown))
        n = _as_int(raw.get("n", None), "n", minimum=2) if "n" in raw \
            else None
        if n is None:
            raise ConfigError("n is required")
        p = _as_int(raw.get("p", 1), "p", minimum=1)
        seed = _as_int(raw.get("seed", 0), "seed", minimum=0,
                       maximum=2 ** 64 - 1)
        tolerance = raw.get("tolerance")
        if tolerance is not None:
            tolerance = _as_float(tolerance, "tolerance")
            if tolerance <= 0:
                raise ConfigError("tolerance must be positive")
        data = _NORMALIZERS[command](raw, n, p)
        cfg = cls(command, n, p, seed, tolerance, data)
        return cfg

    def effective(self) -> dict:
        """The fully normalized configuration (defaults materialized)."""
        out = {"n": self.n, "seed": self.seed, "tolerance": self.tolerance}
        if self.command != "hua-limit":
            out["p"] = self.p
        out.update(self.data)
        return out

    @property
    def row_tolerance(self) -> float | None:
        if self.tolerance is not None:
            return self.tolerance
        return _DEFAULT_TOLERANCE[self.command]


def _normalize_kernel(raw: dict, n: int, p: int) -> dict:
    if "pairs" in raw and ("x" in raw or "zeta" in raw):
        raise ConfigError("give either pairs or a single x/zeta, not both")
    pairs = []
    if "pairs" in raw:
        if not isinstance(raw["pairs"], list) or not raw["pairs"]:
            raise ConfigError("pairs must be a non-empty list")
        for i, entry in enumerate(raw["pairs"]):
            if not isinstance(entry, dict):
                raise ConfigError(f"pairs[{i}] must be an object")
            unknown = sorted(set(entry) - {"x", "zeta", "x_sector",
                                           "zeta_sector"})
            if unknown:
                raise ConfigError(f"unknown keys in pairs[{i}]: "
                                  + ", ".join(unknown))
            pairs.append({
                "x": _as_vector(entry.get("x"), f"pairs[{i}].x", n),
                "zeta": _as_vector(entry.get("zeta"), f"pairs[{i}].zeta", n),
                "x_sector": _as_int(entry.get("x_sector", 0),
                                    f"pairs[{i}].x_sector", 0, p - 1),
                "zeta_sector": _as_int(entry.get("zeta_sector", 0),
                                       f"pairs[{i}].zeta_sector", 0, p - 1),
            })
    else:
        if "x" not in raw or "zeta" not in raw:
            raise ConfigError("kernel needs x and zeta (or a pairs list)")
        pairs.append({
            "x": _as_vector(raw["x"], "x", n),
            "zeta": _as_vector(raw["zeta"], "zeta", n),
            "x_sector": _as_int(raw.get("x_sector", 0), "x_sector", 0, p - 1),
            "zeta_sector": _as_int(raw.get("zeta_sector", 0), "zeta_sector",
                                   0, p - 1),
        })
    degrees = raw.get("degrees", [0, 1, 2, 3, 4])
    if not isinstance(degrees, list) or not degrees:
        raise ConfigError("degrees must be a non-empty list")
    degrees = [_as_int(m, f"degrees[{i}]", 0) for i, m in enumerate(degrees)]
    which = raw.get("kernels", ["zonal", "poisson"])
    if not isinstance(which, list) or not which:
        raise ConfigError("kernels must be a non-empty list")
    for name in which:
        if name not in ("zonal", "poisson", "hua"):
            raise ConfigError(f"unknown kernel {name!r} "
                              "(choose from zonal, poisson, hua)")
    return {"pairs": pairs, "degrees": degrees, "kernels": list(which)}


def _normalize_resolution(raw: dict) -> object:
    resolution = raw.get("resolution", "auto")
    if resolution == "auto":
        return "auto"
    return _as_int(resolution, "resolution", minimum=4)


def _normalize_dirichlet(raw: dict, n: int, p: int) -> dict:
    boundary = _as_str(raw.get("boundary"), "boundary") if "boundary" in raw \
        else None
    if boundary is None:
        raise ConfigError("boundary (polynomial text) is required")
    points = raw.get("points")
    if not isinstance(points, list) or not points:
        raise ConfigError("points must be a non-empty list")
    points = [_as_vector(pt, f"points[{i}]", n) for i, pt in enumerate(points)]
    sectors = raw.get("sectors", [0] * len(points))
    if not isinstance(sectors, list) or len(sectors) != len(points):
        raise ConfigError("sectors must list one sector index per point")
    sectors = [_as_int(s, f"sectors[{i}]", 0, p - 1)
               for i, s in enumerate(sectors)]
    return {"boundary": boundary, "points": points, "sectors": sectors,
            "resolution": _normalize_resolution(raw)}


def _normalize_verify(raw: dict, n: int, p: int) -> dict:
    names = raw.get("suites")
    if not isinstance(names, list) or not names:
        raise ConfigError("suites must be a non-empty list")
    for name in names:
        if name not in suites.SUITES:
            known = ", ".join(sorted(suites.SUITES))
            raise ConfigError(f"unknown suite {name!r} (known: {known})")
    return {"suites": list(names)}


def _normalize_hua_limit(raw: dict, n: int, p: int) -> dict:
    u = _as_str(raw.get("u"), "u") if "u" in raw else None
    if u is None:
        raise ConfigError("u (holomorphic polynomial text) is required")
    z = raw.get("z")
    if not isinstance(z, list) or len(z) != n:
        raise ConfigError(f"z must be a list of {n} coordinates")
    z = [_as_complex_entry(v, f"z[{i}]") for i, v in enumerate(z)]
    p_list = raw.get("p_list", [1, 2, 4, 8])
    if not isinstance(p_list, list) or not p_list:
        raise ConfigError("p_list must be a non-empty list")
    p_list = [_as_int(q, f"p_list[{i}]", 1) for i, q in enumerate(p_list)]
    if any(b <= a for a, b in zip(p_list, p_list[1:])):
        raise ConfigError("p_list must be strictly increasing")
    angular = _as_int(raw.get("angular", 64), "angular", minimum=4)
    return {"u": u, "z": z, "p_list": p_list, "angular": angular,
            "resolution": _normalize_resolution(raw)}


def _normalize_almansi(raw: dict, n: int, p: int) -> dict:
    text = _as_str(raw.get("polynomial"), "polynomial") \
        if "polynomial" in raw else None
    if text is None:
        raise ConfigError("polynomial (text) is required")
    return {"polynomial": text}


def _normalize_dims(raw: dict, n: int, p: int) -> dict:
    degrees = raw.get("degrees", list(range(9)))
    if not isinstance(degrees, list) or not degrees:
        raise ConfigError("degrees must be a non-empty list")
    return {"degrees": [_as_int(m, f"degrees[{i}]", 0)
                        for i, m in enumerate(degrees)]}


_NORMALIZERS = {
    "kernel": _normalize_kernel,
    "dirichlet": _normalize_dirichlet,
    "verify": _normalize_verify,
    "hua-limit": _normalize_hua_limit,
    "almansi": _normalize_almansi,
    "dims": _normalize_dims,
}


# --------------------------------------------------------------------------
# result tables
# --------------------------------------------------------------------------

class ResultTable:
    """Rows of input cells plus the fixed numeric columns, with metadata."""

    def __init__(self, command: str, input_columns, metadata: dict):
        self.command = command
        self.columns = tuple(input_columns) + VALUE_COLUMNS
        self.status_index = list(input_columns).index("status")
        self.rows: list = []
        self.metadata = metadata

    def add(self, inputs, value=None, reference=None, error=None, bound=None):
        cells = list(inputs)
        for w in (value, reference):
            if w is None:
                cells += [None, None]
            else:
                w = complex(w)
                cells += [float(w.real) + 0.0, float(w.imag) + 0.0]
        cells.append(None if error is None else float(error) + 0.0)
        cells.append(None if bound is None else float(bound) + 0.0)
        if len(cells) != len(self.columns):
            raise ValueError("row shape mismatch")
        self.rows.append(cells)

    def exit_code(self) -> int:
        code = EXIT_OK
        error_at = self.columns.index("abs_error")
        bound_at = self.columns.index("bound")
        for row in self.rows:
            status = row[self.status_index]
            if status == "rejected":
                return EXIT_CONFIG
            if status == "singular":
                code = max(code, EXIT_SINGULAR)
            elif (row[error_at] is not None and row[bound_at] is not None
                    and row[error_at] > row[bound_at]):
                code = max(code, EXIT_TOLERANCE)
        return code

    def to_json_obj(self) -> dict:
        return {"metadata": self.metadata,
                "columns": list(self.columns),
                "rows": [list(r) for r in self.rows]}

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_json_obj(), indent=2,
                              sort_keys=True) + "\n"
        if fmt != "csv":
            raise ValueError(f"unknown format {fmt!r}")
        buf = io.StringIO()
        meta = json.dumps(self.metadata, sort_keys=True,
                          separators=(",", ":"))
        buf.write(f"# {meta}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_csv_cell(c) for c in row])
        return buf.getvalue()


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        return format(cell, ".17g")
    return str(cell)


def _metadata(cfg: RunConfig, rule=None) -> dict:
    effective = cfg.effective()
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

def _rotated(coords, j: int, p: int) -> RotatedVector:
    return RotatedVector.sector(j, p, np.asarray(coords, dtype=float))


def run_kernel(cfg: RunConfig) -> ResultTable:
    table = ResultTable("kernel",
                        ("pair", "kernel", "m", "route", "status"),
                        _metadata(cfg))
    tol = cfg.row_tolerance
    n, p = cfg.n, cfg.p
    for i, pair in enumerate(cfg.data["pairs"]):
        x = _rotated(pair["x"], pair["x_sector"], p)
        zeta = _rotated(pair["zeta"], pair["zeta_sector"], p)
        if "zonal" in cfg.data["kernels"]:
            B, x2, zb2 = kernels.pair_invariants(x, zeta)
            for m in cfg.data["degrees"]:
                values = {route: complex(kernels.zonal_from_products(
                    n, m, p, B, x2 * zb2, route)) for route in ROUTES}
                reference = values[ROUTE_GEGENBAUER_DIFF]
                scale = max(1.0, suites._zonal_term_scale(n, m, p, B,
                                                          x2 * zb2))
                for route in ROUTES:
                    gap = max(abs(values[route] - values[other])
                              for other in ROUTES if other != route)
                    table.add((i, "zonal", m, route, "ok"),
                              value=values[route], reference=reference,
                              error=gap, bound=tol * scale)
        if "poisson" in cfg.data["kernels"]:
            try:
                closed = kernels.poisson_kernel(x, zeta, p)
                series = kernels.poisson_kernel_series(
                    x, zeta, p, tol=max(tol / 10.0, 1e-13))
                table.add((i, "poisson", "", "closed-form", "ok"),
                          value=closed, reference=series.value,
                          error=abs(closed - series.value),
                          bound=series.tail_bound + tol * max(1.0, abs(closed)))
            except kernels.SingularKernelError:
                table.add((i, "poisson", "", "closed-form", "singular"))
            except ValueError:
                table.add((i, "poisson", "", "closed-form", "rejected"))
        if "hua" in cfg.data["kernels"]:
            try:
                value = kernels.cauchy_hua(x.to_complex(), zeta.to_complex())
                table.add((i, "hua", "", "closed-form", "ok"), value=value)
            except kernels.SingularKernelError:
                table.add((i, "hua", "", "closed-form", "singular"))
            except ValueError:
                table.add((i, "hua", "", "closed-form", "rejected"))
    return table


def run_dirichlet(cfg: RunConfig) -> ResultTable:
    n, p = cfg.n, cfg.p
    tol = cfg.row_tolerance
    try:
        q = MultiPoly.from_text(cfg.data["boundary"], n=n)
    except ValueError as err:
        raise ConfigError(f"boundary polynomial: {err}") from err
    data = solver.BoundaryData.from_polynomial(q, p)
    reproduces = polyalg.is_polyharmonic(q, p)
    points = [np.asarray(pt, dtype=float) for pt in cfg.data["points"]]
    radii = [float(np.linalg.norm(pt)) for pt in points]
    interior = [r < 1.0 - 1e-9 for r in radii]
    admissible = [r for r, ok in zip(radii, interior) if ok]
    radius = max(admissible) if admissible else 0.0
    if cfg.data["resolution"] == "auto":
        try:
            rule = solver.choose_rule(n, p, data, radius=radius,
                                      tol=max(tol / 10.0, 1e-13),
                                      seed=cfg.seed)
        except ValueError as err:  # SeriesToleranceError is one
            raise ConfigError(f"no quadrature rule for radius {radius!r}: "
                              f"{err}") from err
    else:
        rule = quadrature.sphere_rule(n, cfg.data["resolution"],
                                      seed=cfg.seed if n >= 4 else None)
    coord_names = tuple(f"x{i + 1}" for i in range(n))
    table = ResultTable("dirichlet",
                        ("point", "sector") + coord_names + ("status",),
                        _metadata(cfg, rule))
    for i, (pt, j) in enumerate(zip(points, cfg.data["sectors"])):
        inputs = (i, j) + tuple(float(c) for c in pt)
        if not interior[i]:
            table.add(inputs + ("rejected",))
            continue
        x = _rotated(pt, j, p)
        value = solver.poisson_integral(data, x, rule)
        if reproduces:
            want = q.evaluate(x)
            table.add(inputs + ("ok",), value=value, reference=want,
                      error=abs(value - want),
                      bound=tol * max(1.0, abs(want)))
        else:
            table.add(inputs + ("ok",), value=value)
    return table


def run_verify(cfg: RunConfig) -> ResultTable:
    table = ResultTable("verify", ("suite", "property", "status"),
                        _metadata(cfg))
    for name in cfg.data["suites"]:
        try:
            rows = suites.run_suite(name, n=cfg.n, p=cfg.p, seed=cfg.seed,
                                    tolerance=cfg.tolerance)
        except ValueError as err:
            raise ConfigError(f"suite {name}: {err}") from err
        for row in rows:
            table.add((row.suite, row.name, "ok"), value=row.deviation,
                      reference=0.0, error=row.deviation,
                      bound=row.tolerance)
    return table


def _limit_error_bound(u: MultiPoly, zc: np.ndarray, p: int) -> float:
    """A priori bound on |u_p(z) - u(z)| from the exact harmonic ladder of
    u: on the rotated spheres (z^2)^k collapses to (z^2)^{k mod p}, so the
    discrepancy is at most sum_k |(z^2)^{k mod p} - (z^2)^k| |h_k(z)|."""
    z2 = complex(bilinear_square(zc))
    total = 0.0
    for _, comp in sorted(u.homogeneous_components().items()):
        for k, h in enumerate(polyalg.harmonic_almansi(comp)):
            if k >= p:
                total += abs(z2 ** (k % p) - z2 ** k) * abs(h.evaluate(zc))
    return total


def run_hua_limit(cfg: RunConfig) -> ResultTable:
    n = cfg.n
    tol = cfg.row_tolerance
    try:
        u = MultiPoly.from_text(cfg.data["u"], n=n)
    except ValueError as err:
        raise ConfigError(f"u polynomial: {err}") from err
    zc = np.array([complex(re, im) for re, im in cfg.data["z"]])
    if not lie_norm(zc) < 1.0:
        raise ConfigError("z must lie in the open Lie ball")
    p_list = cfg.data["p_list"]
    if cfg.data["resolution"] == "auto":
        degree = max(u.degree(), 0)
        trunc = kernels.truncation_degree(n, max(p_list), lie_norm(zc),
                                          max(tol / 10.0, 1e-13))
        rule = quadrature.sphere_rule(
            n, quadrature.resolution_for_exactness(n, degree + trunc + 4))
    else:
        rule = quadrature.sphere_rule(n, cfg.data["resolution"],
                                      seed=cfg.seed if n >= 4 else None)
    result = solver.polyharmonic_limit_experiment(
        u, zc, p_list, rule, angular=cfg.data["angular"])
    table = ResultTable("hua-limit", ("p", "status"), _metadata(cfg, rule))
    for p, value, error in result.rows:
        bound = _limit_error_bound(u, zc, p) + tol
        table.add((p, "ok"), value=value, reference=result.reference,
                  error=error, bound=bound)
    table.add(("hua", "ok"), value=result.hua_value,
              reference=result.reference, error=result.hua_error, bound=tol)
    return table


def run_almansi(cfg: RunConfig) -> ResultTable:
    n, p = cfg.n, cfg.p
    bound = cfg.row_tolerance
    try:
        q = MultiPoly.from_text(cfg.data["polynomial"], n=n)
    except ValueError as err:
        raise ConfigError(f"polynomial: {err}") from err
    try:
        components = polyalg.polyharmonic_almansi(q, p)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    table = ResultTable("almansi",
                        ("component", "degree", "polynomial", "status"),
                        _metadata(cfg))
    residuals = []
    for k, comp in enumerate(components):
        out = comp
        for _ in range(p):
            out = out.laplacian()
        residual = out.coefficient_scale()
        residuals.append(residual)
        table.add((k, comp.degree(), comp.to_text(), "ok"),
                  value=comp.coefficient_scale(), reference=0.0,
                  error=residual, bound=bound)
    mismatch = (polyalg.almansi_reassemble(components, n, p)
                - q).coefficient_scale()
    table.add(("reassembly", q.degree(), q.to_text(), "ok"),
              value=q.coefficient_scale(), reference=0.0, error=mismatch,
              bound=bound)
    return table


def run_dims(cfg: RunConfig) -> ResultTable:
    table = ResultTable("dims",
                        ("n", "p", "m", "dim_P", "dim_H", "status"),
                        _metadata(cfg))
    for m in cfg.data["degrees"]:
        table.add((cfg.n, cfg.p, m, dim_P(cfg.n, m), dim_H(cfg.n, m), "ok"),
                  value=float(dim_Hp(cfg.n, m, cfg.p)))
    return table


_RUNNERS = {
    "kernel": run_kernel,
    "dirichlet": run_dirichlet,
    "verify": run_verify,
    "hua-limit": run_hua_limit,
    "almansi": run_almansi,
    "dims": run_dims,
}


def run_command(command: str, config: dict) -> ResultTable:
    """Programmatic entry: validate a configuration mapping and run it."""
    cfg = RunConfig.from_mapping(command, config)
    return _RUNNERS[command](cfg)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyball",
        description="Kernel and solver experiments on unions of rotated "
                    "balls, driven by a single JSON configuration.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "kernel": "evaluate zonal/Poisson/Cauchy-Hua kernels at point pairs",
        "dirichlet": "solve the Dirichlet problem for polynomial boundary "
                     "data at interior points",
        "verify": "run named verification suites",
        "hua-limit": "rising-order limit experiment against the Cauchy-Hua "
                     "integral",
        "almansi": "exact Almansi decomposition of a polynomial",
        "dims": "dimension tables for harmonic and polyharmonic spaces",
    }
    for name, text in descriptions.items():
        cmd = sub.add_parser(name, help=text, description=text)
        cmd.add_argument("--config", required=True,
                         help="path to the JSON experiment document")
        cmd.add_argument("--out", help="write the table here instead of stdout")
        cmd.add_argument("--format", choices=("csv", "json"), default="json",
                         help="table format (default json)")
        cmd.add_argument("--seed", type=int,
                         help="override the top-level seed field")
        cmd.add_argument("--tolerance", type=float,
                         help="override the top-level tolerance field")
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
        raw = _load_config(args.config)
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.tolerance is not None:
            raw["tolerance"] = args.tolerance
        table = run_command(args.command, raw)
        text = table.render(args.format)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
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
