"""Rebuild ``corpus.json``, the requests whose tables must stay
byte-identical (``tests/test_golden.py``).

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py          # rebuild
    PYTHONPATH=src python tests/golden/make_golden.py --check  # compare

The cases are every ``dirichlet``, ``hua-limit`` and ``kernel`` request of
one pass of the benchmark's solve template on seeds 5 and 6
(``perfbench.workloads``), ``dirichlet`` requests whose data are not
p-polyharmonic, at the probe shapes below, ``kernel`` requests that pin
every status other than ``ok`` (the examples of README and of
``tests/test_cli.py``), every request of one pass of the algebra template
on the same seeds, the algebra workload's one ``verify gegenbauer``,
``almansi`` requests whose texts use every number form the reader takes,
every request of one pass of the reproduce template on seed 5, the
``verify`` suites that no template runs (``SUITE_PROBES``) at n in {2, 3}
and p in {1, 2} on seed 5, the other suites but gegenbauer at the shapes
of those that no template runs them at (``SUITE_GAPS``), and one
``verify`` table that exits 1.  ``hua-convergence`` takes no p, so its
p = 2 cases repeat the value cells of its p = 1 cases: they pin that p is
unread, and a change that starts to read it fails them.  Each case keeps
its config, its exit code, the sha256 of its JSON and CSV renders and a
short digest of each column; a table of at most ``KEPT_ROWS`` rows also
keeps its value cells.  The file
records the Python and numpy versions the digests were taken on.  A change
that alters printed bits rebuilds the file in the same commit and names the
tables that changed, and why.  ``--check`` writes nothing: for every case
whose exit code or digests differ from the committed file, or that it
lacks, it prints the name, the columns that changed and, where the cells
are kept, the largest change of each changed value column relative to
max(1, |cell|); it exits 1 if there is such a case.

The same run rebuilds ``errors.json``: the same configs broken on purpose
(``error_cases``), each refused by validation, with its exit code and its
``error:`` line.  Every key of every command gets each of its faults
alone; then come configs with two or three faults on distinct keys, which
pin the order of the checks, and last a ``kernel`` config with a pairs
list and, beside it, a top-level ``x_sector`` or ``zeta_sector``
(``SECTOR_KEYS``), which no draw gives.  The keys and faults are those of
the first draw, so a rebuild draws the same configs; the keys that have
since left a table (a top-level ``kernel`` pair, ``resolution``, ``seed``
outside ``verify``) pin their unknown-key refusals.  ``--check`` runs the
committed refusals through ``cli.main`` again and names those whose exit
code or line changed, with the recorded and the new exit code and line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402
from polyball import cli, polyalg  # noqa: E402

OUT = Path(__file__).resolve().parent / "corpus.json"
ERRORS = OUT.with_name("errors.json")
SEEDS = (5, 6)
# tables of at most this many rows keep their value cells (every table but
# the kernel tables, which run to hundreds of rows)
KEPT_ROWS = 64
# (n, p, degree) of the non-polyharmonic dirichlet probes, 4 points each
PROBES = ((2, 1, 5), (3, 1, 4), (3, 2, 5), (2, 3, 7), (3, 3, 6), (4, 2, 4))
# (n, p, text) of almansi requests in the number forms the workloads never
# write: complex literals, decimals, exponents, signs and repeated factors
TEXT_PROBES = (
    (2, 1, "(3/4,-2/3) * x1^3 x2 + (0,5) * x2^4 + 0.25 x1^2 x2^2 "
           "- 1e-3 * x1^4"),
    (2, 2, "-(-1.5,2.5e1) x1^2 x2^4 + -x2^6 + 7/3 x1 x1^5 - (.5,0) x1^3 x2^3"),
    (3, 2, "(1,1) x1^5 + (-2,0.5) x2^5 + (0,-7/3) x3^5 + x1 x2 x3^3 "
           "+ 2. x1^2 x2^2 x3 - 3E2 x3^4 x1"),
    (4, 1, "(12/18,-0.125) x1 x2 x3 x4 + 100/4 x4^4 + 0.000 x1^4"),
)


E1 = [1.0, 0.0]
# (name, config) of kernel requests whose rows are not all ok
KERNEL_PROBES = (
    ("singular pair", {"n": 2, "pairs": [
        {"x": [0.999999999, 0], "zeta": [1, 0]}, {"x": [0.5, 0], "zeta": E1}],
        "kernels": ["poisson", "hua"]}),
    ("x outside the balls", {"n": 2, "p": 2, "pairs": [
        {"x": [1.5, 0], "zeta": E1}], "kernels": ["zonal", "poisson", "hua"]}),
    ("zeta off the sphere", {"n": 2, "pairs": [
        {"x": [0.5, 0], "zeta": [0.5, 0]}],
        "kernels": ["zonal", "poisson", "hua"]}),
    ("series refused", {"n": 2, "pairs": [
        {"x": [1.0 - 1e-7, 0], "zeta": [0, 1]}],
        "kernels": ["poisson", "hua"]}),
    ("zonal rows rejected", {"n": 2, "p": 2, "pairs": [
        {"x": [0.5, 0], "zeta": [1, 1e300]}], "degrees": [4],
        "kernels": ["zonal", "poisson", "hua"]}),
    ("closed forms overflow", {"n": 400, "pairs": [
        {"x": [0.9] + [0] * 399, "zeta": [1] + [0] * 399}],
        "kernels": ["zonal", "poisson", "hua"]}),
    ("tail bound overflows", {"n": 300, "pairs": [
        {"x": [0.9] + [0] * 299, "zeta": [1] + [0] * 299}],
        "kernels": ["poisson"]}),
    ("domain edges", {"n": 2, "p": 2, "pairs": [
        {"x": [1.0, 0], "zeta": E1}, {"x": [0.6, 0.8], "zeta": [0, 1]},
        {"x": [0.3, 0], "zeta": [1.0 + 9e-13, 0], "zeta_sector": 1},
        {"x": [0.3, 0], "zeta": [1.0 - 2e-12, 0], "x_sector": 1}],
        "kernels": ["poisson", "hua"]}),
)

# the suites that no workload template requests
SUITE_PROBES = ("route-agreement", "series-identity", "hua-convergence",
                "kernel-symmetry")
# (suite, n, p) where the templates run the other suites at n in {2, 3}
# and p in {1, 2} nowhere; gegenbauer ignores n and p, and the algebra
# template's case covers it
SUITE_GAPS = (("diagonal-dim", 3, 1), ("diagonal-dim", 3, 2),
              ("hua-reproduction", 3, 1), ("hua-reproduction", 3, 2),
              ("almansi", 2, 1), ("almansi", 3, 1), ("almansi", 3, 2),
              ("reproduction", 3, 2), ("orthogonality", 3, 2),
              ("far-cap", 3, 2), ("sector-integrals", 3, 2))


def kernel_batch(n: int, p: int) -> dict:
    """Seven random pairs on mixed sectors with a singular, an outside, an
    off-sphere and a series-refused pair among them."""
    rng = np.random.default_rng(40 + n)
    e1 = [1.0] + [0.0] * (n - 1)
    pairs = []
    for k in range(7):
        x, zeta = rng.standard_normal((2, n))
        pairs.append({"x": ((0.05 + 0.13 * k) * x
                            / np.linalg.norm(x)).tolist(),
                      "zeta": (zeta / np.linalg.norm(zeta)).tolist(),
                      "x_sector": int(rng.integers(p)),
                      "zeta_sector": int(rng.integers(p))})
    pairs[2:2] = [{"x": [0.999999999] + e1[1:], "zeta": e1},
                  {"x": [1.5] + e1[1:], "zeta": e1},
                  {"x": [0.5] + e1[1:], "zeta": [0.5] + e1[1:]},
                  {"x": [1.0 - 1e-7] + e1[1:], "zeta": e1[1:] + [1.0]}]
    return {"n": n, "p": p, "pairs": pairs, "degrees": list(range(9)),
            "kernels": ["zonal", "poisson", "hua"]}


def kernel_cases() -> list:
    return ([(f"kernel probe {name}", "kernel", config)
             for name, config in KERNEL_PROBES]
            + [("kernel probe p=3 mixed batch", "kernel", kernel_batch(5, 3))])


def solve_cases() -> list:
    cases = []
    for seed in SEEDS:
        rng = workloads.rng_for("solve", seed, "requests")
        for i, req in enumerate(workloads._solve_pass(rng)):
            if req.command in ("dirichlet", "hua-limit", "kernel"):
                cases.append((f"solve seed {seed} #{i} {req.label}",
                              req.command, req.config))
    return cases


def reproduce_cases() -> list:
    rng = workloads.rng_for("reproduce", SEEDS[0], "requests")
    return [(f"reproduce seed {SEEDS[0]} #{i} {req.label}", req.command,
             req.config)
            for i, req in enumerate(workloads._reproduce_pass(rng))]


def algebra_cases() -> list:
    cases = [(f"almansi text probe {i}", "almansi",
              {"n": n, "p": p, "polynomial": text})
             for i, (n, p, text) in enumerate(TEXT_PROBES)]
    for seed in SEEDS:
        rng = workloads.rng_for("algebra", seed, "requests")
        for i, req in enumerate(workloads._algebra_pass(rng)):
            cases.append((f"algebra seed {seed} #{i} {req.label}",
                          req.command, req.config))
    # the suite ignores n, p and seed; the workload draws a seed all the same
    req = workloads.verify(workloads.rng_for("algebra", SEEDS[0], "requests"),
                           2, 1, "gegenbauer")
    cases.append((req.label, req.command, req.config))
    return cases


def suite_case(suite: str, n: int, p: int, **extra) -> tuple:
    name = " ".join([f"verify {suite} n={n} p={p} seed {SEEDS[0]}"]
                    + [f"{key} {value}" for key, value in extra.items()])
    return name, "verify", {"n": n, "p": p, "seed": SEEDS[0],
                            "suites": [suite], **extra}


def suite_cases() -> list:
    return [suite_case(suite, n, p)
            for suite in SUITE_PROBES for n in (2, 3) for p in (1, 2)]


def gap_cases() -> list:
    """``SUITE_GAPS``, and one table that exits 1: diagonal-dim held to a
    tolerance below its rounding."""
    return ([suite_case(*gap) for gap in SUITE_GAPS]
            + [suite_case("diagonal-dim", 2, 1, tolerance=1e-30)])


def probe_case(n: int, p: int, degree: int) -> tuple:
    """Gaussian-integer data with x1^degree (degree >= 2p, so Delta^p of
    it is not 0) and a term of every degree up to ``degree``, and 4
    interior points spread over the sectors."""
    rng = random.Random(f"golden:{n}:{p}:{degree}")
    terms = [f"({rng.randint(1, 5)},{rng.randint(-5, 5)}) * x1^{degree}"]
    for d in range(degree + 1):
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        exps = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        monomial = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        coeff = f"({rng.randint(-5, 5) or 1},{rng.randint(-5, 5)})"
        terms.append(f"{coeff} * {monomial}" if monomial else coeff)
    text = " + ".join(terms)
    if polyalg.is_polyharmonic(polyalg.MultiPoly.from_text(text, n), p):
        raise ValueError(f"probe data {text!r} are {p}-polyharmonic")
    points = []
    for _ in range(4):
        x = [rng.gauss(0.0, 1.0) for _ in range(n)]
        scale = rng.uniform(0.1, 0.8) / sum(c * c for c in x) ** 0.5
        points.append([scale * c for c in x])
    config = {"n": n, "p": p, "boundary": text, "points": points,
              "sectors": [k % p for k in range(4)]}
    return f"probe n={n} p={p} deg={degree}", "dirichlet", config


# --------------------------------------------------------------------------
# error lines: corpus configs broken on purpose, refused by validation
# --------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")
# the keys each command accepted before seed left every table but verify's,
# tolerance left dims', resolution left dirichlet's and hua-limit's, and
# kernel's pair keys left its top level, in no particular order: kept, so
# that a rebuild draws the same configs in the same order, and those that
# give a key that left pin its unknown-key refusal; "unknown" adds a key
# outside these
KEYS = {
    "kernel": ("n", "p", "seed", "tolerance", "x", "zeta", "x_sector",
               "zeta_sector", "pairs", "degrees", "kernels"),
    "dirichlet": ("n", "p", "seed", "tolerance", "boundary", "points",
                  "sectors", "resolution"),
    "verify": ("n", "p", "seed", "tolerance", "suites"),
    "hua-limit": ("n", "seed", "tolerance", "u", "z", "p_list",
                  "resolution"),
    "almansi": ("n", "p", "seed", "tolerance", "polynomial"),
    "dims": ("n", "p", "seed", "tolerance", "degrees"),
}
ERROR_CASES = 1000  # configs drawn with two or three faults
# pair keys that _where puts in a pairs entry, given beside the list once
SECTOR_KEYS = ("x_sector", "zeta_sector")
MAX_BYTES = 2048  # the largest config JSON kept


def _pick(rng, values, config):
    value = rng.choice(values)
    return value(config) if callable(value) else value


def _where(rng, config, key):
    """The mapping that holds ``key``: the config, or, for a pair key of a
    pairs list, one of its entries."""
    pairs = config.get("pairs")
    pairs = [entry for entry in pairs if isinstance(entry, dict)] \
        if isinstance(pairs, list) else []
    if key in ("x", "zeta", "x_sector", "zeta_sector") and pairs:
        return rng.choice(pairs)
    return config


def put(key, kind, *values):
    """Set ``key`` to one of ``values`` (a callable takes the config)."""
    def fault(rng, config):
        _where(rng, config, key)[key] = _pick(rng, values, config)
        return f"{key}: {kind}"
    return fault


def drop(key):
    def fault(rng, config):
        _where(rng, config, key).pop(key, None)
        return f"{key}: missing"
    return fault


def item(key, kind, *values, depth=1):
    """Set one entry of the list at ``key`` (``depth`` 2: one coordinate
    of one entry) to one of ``values``."""
    def fault(rng, config):
        at = _where(rng, config, key)
        cells = at.get(key)
        for _ in range(depth - 1):
            if not isinstance(cells, list) or not cells:
                break
            cells = rng.choice(cells)
        if not isinstance(cells, list) or not cells:
            at[key] = _pick(rng, values, config)
        else:
            cells[rng.randrange(len(cells))] = _pick(rng, values, config)
        return f"{key}: {kind}"
    return fault


def resize(key, depth=1):
    """Add or drop the last entry of the list at ``key`` (``depth`` 2: of
    one of its entries)."""
    def fault(rng, config):
        cells = _where(rng, config, key).get(key)
        for _ in range(depth - 1):
            if isinstance(cells, list) and cells:
                cells = rng.choice(cells)
        if isinstance(cells, list) and cells and rng.random() < 0.5:
            cells.pop()
        elif isinstance(cells, list):
            cells.append(cells[-1] if cells else 0.5)
        return f"{key}: length"
    return fault


def _n(config):
    return config.get("n") if isinstance(config.get("n"), int) else 2


def _p(config):
    return config.get("p") if isinstance(config.get("p"), int) else 1


def conflict(rng, config):
    """Give both a pairs list and a top-level x or zeta."""
    n = _n(config)
    if "pairs" in config:
        config[rng.choice(("x", "zeta"))] = [0.5] * n
    else:
        config["pairs"] = [{"x": [0.5] * n, "zeta": [1.0] + [0.0] * (n - 1)}]
    return "pairs: conflict"


_VECTOR = (
    drop, lambda k: put(k, "type", 0.5, "x", {}, None, True),
    lambda k: resize(k),
    lambda k: item(k, "type", "0", None, True, [0.5]),
    lambda k: item(k, "non-finite", NAN, INF, -INF))
_SECTOR = (
    lambda k: put(k, "type", "0", 0.0, True, None, [0]),
    lambda k: put(k, "below", -1, -2 ** 63),
    lambda k: put(k, "above", _p, lambda c: _p(c) + 3, 2 ** 64))
_TEXT = (drop, lambda k: put(k, "type", 1, None, ["x1"], True, {"x1": 1}))
_NAMES = (
    lambda k: put(k, "type", "zonal", None, 1, {}),
    lambda k: put(k, "empty", []),
    lambda k: item(k, "type", 1, None, ["hua"], True),
    lambda k: item(k, "value", "nope", "Zonal", "far_cap", ""))
_DEGREES = (
    lambda k: put(k, "type", 3, "0", {}, None),
    lambda k: put(k, "empty", []),
    lambda k: item(k, "type", "1", 1.5, None, True),
    lambda k: item(k, "below", -1, -10))
_RESOLUTION = (
    lambda k: put(k, "type", "4", "Auto", 4.5, True, None, [8]),
    lambda k: put(k, "below", 3, 0, -4))
_SOME_KEYS = ("extra", "P", "Seed", "tol", "x ", "u", "pairs", "resolution",
              "p", "suites", "boundary", "degrees", "z", "sectors")
FAULTS = {
    "n": (drop, lambda k: put(k, "type", "2", 2.0, True, None, [2]),
          lambda k: put(k, "below", 1, 0, -3),
          lambda k: put(k, "changed", lambda c: _n(c) + 1)),
    "p": (lambda k: put(k, "type", "1", 1.0, False, None),
          lambda k: put(k, "below", 0, -1),
          lambda k: put(k, "changed", 1)),
    "seed": (lambda k: put(k, "type", "0", 0.5, True, [0]),
             lambda k: put(k, "below", -1),
             lambda k: put(k, "above", 2 ** 64, 2 ** 70)),
    "tolerance": (lambda k: put(k, "type", "1e-6", True, [1e-6], {}),
                  lambda k: put(k, "below", 0, 0.0, -1e-6),
                  lambda k: put(k, "non-finite", NAN, INF, -INF)),
    "x": _VECTOR, "zeta": _VECTOR,
    "x_sector": _SECTOR, "zeta_sector": _SECTOR,
    "pairs": (drop, lambda k: put(k, "type", {}, "pairs", None, 3),
              lambda k: put(k, "empty", []),
              lambda k: item(k, "type", "x", 3, None, [0.5, 0.0]),
              lambda k: item(k, "unknown", {"x": [0.5, 0.0], "zeta": [1.0, 0.0],
                                            "y": 1}, {"X_sector": 0}),
              lambda k: conflict),
    "degrees": _DEGREES, "kernels": _NAMES, "suites": _NAMES,
    "boundary": _TEXT, "u": _TEXT, "polynomial": _TEXT,
    "points": (drop, lambda k: put(k, "type", None, {}, "p", [0.5]),
               lambda k: put(k, "empty", []),
               lambda k: item(k, "type", "x", 0.5, None, {}),
               lambda k: resize(k, depth=2),
               lambda k: item(k, "type", "0", None, True, depth=2),
               lambda k: item(k, "non-finite", NAN, INF, -INF, depth=2)),
    "sectors": (lambda k: put(k, "type", None, 0, "0", {}),
                lambda k: resize(k),
                lambda k: item(k, "type", "0", 1.5, None, True),
                lambda k: item(k, "below", -1),
                lambda k: item(k, "above", _p, lambda c: _p(c) + 1)),
    "resolution": _RESOLUTION,
    "z": (drop, lambda k: put(k, "type", "z", 0.5, None, {}),
          lambda k: resize(k),
          lambda k: item(k, "type", "0", None, True, {}),
          lambda k: item(k, "length", [0.1], [0.1, 0.2, 0.3], []),
          lambda k: item(k, "type", [0.1, "0"], [None, 0.0], [True, 0.0]),
          lambda k: item(k, "non-finite", NAN, INF, [0.1, NAN], [INF, 0.0])),
    "p_list": (lambda k: put(k, "type", 4, "1", None, {}),
               lambda k: put(k, "empty", []),
               lambda k: item(k, "type", "2", 1.5, True, None),
               lambda k: item(k, "below", 0, -1),
               lambda k: put(k, "order", [1, 1], [2, 1], [1, 4, 3],
                             [1, 2, 2, 8])),
}


def break_config(rng, command: str, config: dict, faults) -> tuple:
    """A copy of ``config`` with the faults ``(key, index)`` (an index of
    None: one drawn) and their labels.  A pairs list keeps at most three
    pairs, in order; "unknown" adds a key the command does not accept."""
    config = json.loads(json.dumps(config))
    if isinstance(config.get("pairs"), list) and len(config["pairs"]) > 3:
        kept = sorted(rng.sample(range(len(config["pairs"])), 3))
        config["pairs"] = [config["pairs"][i] for i in kept]
    labels = []
    for key, index in faults:
        if key == "unknown":
            extra = rng.choice([k for k in _SOME_KEYS
                                if k not in KEYS[command]])
            config[extra] = rng.choice([1, "x", None, [0.5]])
            labels.append(f"{extra}: unknown")
            continue
        if index is None:
            index = rng.randrange(len(FAULTS[key]))
        labels.append(FAULTS[key][index](key)(rng, config))
    return config, labels


def _accepted(cfg):
    raise RuntimeError("validation accepted the config")


def refusal(command: str, config: dict, path: Path) -> tuple:
    """``cli.main``'s exit code and stderr on ``config``, written to
    ``path``, with every runner replaced by one that raises: a config that
    validation accepts ends with exit 4, and nothing runs."""
    path.write_text(json.dumps(config))
    runners, err = dict(cli._RUNNERS), io.StringIO()
    cli._RUNNERS.update(dict.fromkeys(runners, _accepted))
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path)])
    finally:
        cli._RUNNERS.update(runners)
    return code, err.getvalue()


def error_cases(cases: list, path: Path) -> list:
    """Configs of ``cases`` broken with a fixed seed, each refused by
    validation: for every key of every command, each of its faults alone,
    twice, then ``ERROR_CASES`` draws of two or three faults on
    distinct keys, then, with no draw, ``SECTOR_KEYS`` beside the first
    three pairs of the first ``kernel`` config with a pairs list.  Each
    keeps its config, faults, exit code and stderr line.  A config above
    ``MAX_BYTES`` of JSON, or drawn before, is dropped."""
    rng = random.Random("golden:error-lines")
    bases = {}
    for _, command, config in cases:
        if command == "kernel" and len(config["pairs"]) == 1:
            # a one-pair probe with its pair at the top level, the spelling
            # that kernel took when the draws were first made: so a rebuild
            # draws the same configs
            config = {**{k: v for k, v in config.items() if k != "pairs"},
                      **config["pairs"][0]}
        bases.setdefault(command, []).append(config)
    plans = [(command, [(key, index)]) for command in KEYS
             for key in KEYS[command] for index in range(len(FAULTS[key]))
             for _ in range(2)]
    plans += [(command, [("unknown", None)]) for command in KEYS
              for _ in range(2)]
    for _ in range(ERROR_CASES):
        command = rng.choice(sorted(KEYS))
        keys = rng.sample(KEYS[command] + ("unknown",), rng.choice((2, 2, 3)))
        plans.append((command, [(key, None) for key in keys]))
    plans = [(command, *break_config(rng, command, rng.choice(
        bases[command]), faults)) for command, faults in plans]
    base = next(c for c in bases["kernel"] if "pairs" in c)
    plans += [("kernel", {**base, "pairs": base["pairs"][:3], key: 0},
               [f"{key}: beside pairs"]) for key in SECTOR_KEYS]
    out, seen = [], set()
    for command, config, labels in plans:
        text = json.dumps(config, sort_keys=True)
        if len(text) > MAX_BYTES or (command, text) in seen:
            continue
        seen.add((command, text))
        code, stderr = refusal(command, config, path)
        if code == cli.EXIT_CONFIG:
            out.append({"command": command, "config": config,
                        "faults": labels, "exit": code, "stderr": stderr})
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(name: str, command: str, config: dict) -> dict:
    table = cli.run_command(command, config)
    case = {"name": name, "command": command, "config": config,
            "exit": table.exit_code(), "json": digest(table.render("json")),
            "csv": digest(table.render("csv")),
            "columns": {column: digest(json.dumps(cells))[:16]
                        for column, cells in zip(table.columns,
                                                 zip(*table.rows))}}
    if len(table.rows) <= KEPT_ROWS:
        start = len(table.columns) - len(cli.VALUE_COLUMNS)
        case["values"] = [",".join("" if c is None else repr(c)
                                   for c in row[start:])
                          for row in table.rows]
    return case


def _cells(rows: list) -> list:
    return [[None if c == "" else float(c) for c in row.split(",")]
            for row in rows]


def describe(new: dict, old: dict | None) -> str | None:
    """What differs between a built case and its committed case: the exit
    code, the changed columns and the largest change of each changed value
    column relative to max(1, |cell|); None when nothing does."""
    if old is None:
        return "not in the committed corpus"
    if all(new[k] == old[k] for k in ("exit", "json", "csv")):
        return None
    parts = [] if new["exit"] == old["exit"] \
        else [f"exit {old['exit']} -> {new['exit']}"]
    columns = [c for c in new["columns"]
               if new["columns"][c] != old["columns"].get(c)]
    parts.append(f"columns {', '.join(columns)}" if columns
                 else "metadata only")
    if "values" not in new or "values" not in old:
        parts.append("cells not kept")
    elif len(new["values"]) != len(old["values"]):
        parts.append(f"rows {len(old['values'])} -> {len(new['values'])}")
    else:
        pairs = list(zip(_cells(old["values"]), _cells(new["values"])))
        for k, column in enumerate(cli.VALUE_COLUMNS):
            if column in columns:
                worst = max((abs(b[k] - a[k]) / max(1.0, abs(a[k]))
                             for a, b in pairs
                             if a[k] is not None and b[k] is not None),
                            default=float("nan"))
                parts.append(f"{column} {worst:.2e}")
    return "; ".join(parts)


def main(argv=None) -> int:
    check = "--check" in (sys.argv[1:] if argv is None else argv)
    cases = (solve_cases() + [probe_case(*shape) for shape in PROBES]
             + kernel_cases() + algebra_cases() + reproduce_cases()
             + suite_cases())
    # errors.json breaks configs of ``cases`` only, so its draws do not
    # depend on the gap cases
    tables = cases + gap_cases()
    corpus = {"versions": {"python": platform.python_version(),
                           "numpy": np.__version__},
              "cases": [record(*case) for case in tables]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        if check:
            changed = [(case, now) for case in json.loads(
                ERRORS.read_text())["cases"] if (now := refusal(
                    case["command"], case["config"], path))
                != (case["exit"], case["stderr"])]
        else:
            errors = error_cases(cases, path)
    if check:
        for case, (code, stderr) in changed:
            print(f"{case['command']} {json.dumps(case['config'])[:120]}: "
                  f"error line changed from exit {case['exit']} "
                  f"{case['stderr']!r} to exit {code} {stderr!r}")
        print(f"{len(changed)} error lines differ from {ERRORS}")
        committed = {case["name"]: case
                     for case in json.loads(OUT.read_text())["cases"]}
        differ = 0
        for case in corpus["cases"]:
            note = describe(case, committed.get(case["name"]))
            if note is not None:
                differ += 1
                print(f"{case['name']}: {note}")
        print(f"{differ} of {len(tables)} cases differ from {OUT}")
        return 1 if differ or changed else 0
    OUT.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(tables)} cases written to {OUT}")
    ERRORS.write_text("{\"cases\": [\n" + ",\n".join(
        json.dumps(case, sort_keys=True) for case in errors) + "\n]}\n")
    print(f"{len(errors)} refused configs written to {ERRORS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
