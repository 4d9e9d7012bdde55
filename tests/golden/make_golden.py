"""Rebuild ``corpus.json``, the requests whose tables must stay
byte-identical (``tests/test_golden.py``).

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

The cases are every ``dirichlet`` and ``hua-limit`` request of one pass of
the benchmark's solve template on seeds 5 and 6 (``perfbench.workloads``),
and ``dirichlet`` requests whose data are not p-polyharmonic, at the probe
shapes below.  Each case keeps its config, its exit code and the sha256 of
its JSON and CSV renders; the file records the Python and numpy versions
the digests were taken on.  A change that alters printed bits rebuilds the
file in the same commit and names the tables that changed, and why.
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
# (n, p, degree) of the non-polyharmonic dirichlet probes, 4 points each
PROBES = ((2, 1, 5), (3, 1, 4), (3, 2, 5), (2, 3, 7), (3, 3, 6), (4, 2, 4))


def solve_cases() -> list:
    cases = []
    for seed in SEEDS:
        rng = workloads.rng_for("solve", seed, "requests")
        for i, req in enumerate(workloads._solve_pass(rng)):
            if req.command in ("dirichlet", "hua-limit"):
                cases.append((f"solve seed {seed} #{i} {req.label}",
                              req.command, req.config))
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
    return {"name": name, "command": command, "config": config,
            "exit": table.exit_code(), "json": digest(table.render("json")),
            "csv": digest(table.render("csv"))}


def main() -> int:
    cases = solve_cases() + [probe_case(*shape) for shape in PROBES]
    corpus = {"versions": {"python": platform.python_version(),
                           "numpy": np.__version__},
              "cases": [record(*case) for case in cases]}
    OUT.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(cases)} cases written to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
