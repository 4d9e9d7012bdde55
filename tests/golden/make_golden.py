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
on the same seeds, the algebra workload's one ``verify
gegenbauer``, ``almansi`` requests whose texts use every number form the
reader takes, and every request of one pass of the reproduce template on
seed 5.  Each case keeps its config, its exit code, the sha256 of its JSON
and CSV renders and a short digest of each column; a table of at most
``KEPT_ROWS`` rows also keeps its value cells.  The file records the Python
and numpy versions the digests were taken on.  A change that alters printed
bits rebuilds the file in the same commit and names the tables that
changed, and why.  ``--check`` writes nothing: for every case whose exit
code or digests differ from the committed file, or that it lacks, it prints
the name, the columns that changed and, where the cells are kept, the
largest change of each changed value column relative to max(1, |cell|);
it exits 1 if there is such a case.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from polyball import cli, polyalg  # noqa: E402

OUT = Path(__file__).resolve().parent / "corpus.json"
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
    ("x outside the balls", {"n": 2, "p": 2, "x": [1.5, 0], "zeta": E1,
                             "kernels": ["zonal", "poisson", "hua"]}),
    ("zeta off the sphere", {"n": 2, "x": [0.5, 0], "zeta": [0.5, 0],
                             "kernels": ["zonal", "poisson", "hua"]}),
    ("series refused", {"n": 2, "x": [1.0 - 1e-7, 0], "zeta": [0, 1],
                        "kernels": ["poisson", "hua"]}),
    ("zonal rows rejected", {"n": 2, "p": 2, "x": [0.5, 0],
                             "zeta": [1, 1e300], "degrees": [4],
                             "kernels": ["zonal", "poisson", "hua"]}),
    ("closed forms overflow", {"n": 400, "x": [0.9] + [0] * 399,
                               "zeta": [1] + [0] * 399,
                               "kernels": ["zonal", "poisson", "hua"]}),
    ("tail bound overflows", {"n": 300, "x": [0.9] + [0] * 299,
                              "zeta": [1] + [0] * 299,
                              "kernels": ["poisson"]}),
    ("domain edges", {"n": 2, "p": 2, "pairs": [
        {"x": [1.0, 0], "zeta": E1}, {"x": [0.6, 0.8], "zeta": [0, 1]},
        {"x": [0.3, 0], "zeta": [1.0 + 9e-13, 0], "zeta_sector": 1},
        {"x": [0.3, 0], "zeta": [1.0 - 2e-12, 0], "x_sector": 1}],
        "kernels": ["poisson", "hua"]}),
)


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
             + kernel_cases() + algebra_cases() + reproduce_cases())
    corpus = {"versions": {"python": platform.python_version(),
                           "numpy": np.__version__},
              "cases": [record(*case) for case in cases]}
    if check:
        committed = {case["name"]: case
                     for case in json.loads(OUT.read_text())["cases"]}
        differ = 0
        for case in corpus["cases"]:
            note = describe(case, committed.get(case["name"]))
            if note is not None:
                differ += 1
                print(f"{case['name']}: {note}")
        print(f"{differ} of {len(cases)} cases differ from {OUT}")
        return 1 if differ else 0
    OUT.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(cases)} cases written to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
