"""Golden corpus: every request in ``golden/corpus.json`` still exits with
its recorded code and renders its recorded bytes, in JSON and in CSV.

The corpus holds every ``dirichlet``, ``hua-limit`` and ``kernel`` request
of the benchmark's solve template on two seeds, ``dirichlet`` requests of
data that are not p-polyharmonic, ``kernel`` requests with singular,
rejected and overflowing pairs, every request of the algebra template on
the same seeds, one ``verify gegenbauer``, every request of the
reproduce template on one seed, and the four suites that no template runs
(route-agreement, series-identity, hua-convergence, kernel-symmetry) at
n in {2, 3} and p in {1, 2}; ``golden/make_golden.py`` rebuilds it, and
with ``--check`` names the cases that differ, their changed columns and the
largest change of each.  The
digests cover numpy's elementwise functions and the versions the metadata
records, so they are compared only on the Python and numpy versions the
corpus was built with; elsewhere the exit codes are compared and the test
is skipped, not passed.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from polyball import cli

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"


def test_golden_tables_are_byte_identical():
    corpus = json.loads(CORPUS.read_text())
    codes, changed = [], []
    for case in corpus["cases"]:
        table = cli.run_command(case["command"], case["config"])
        if table.exit_code() != case["exit"]:
            codes.append(case["name"])
        for fmt in ("json", "csv"):
            text = table.render(fmt)
            if hashlib.sha256(text.encode("utf-8")).hexdigest() != case[fmt]:
                changed.append(f"{case['name']} ({fmt})")
    assert not codes, f"exit codes changed: {codes}"
    here = {"python": platform.python_version(), "numpy": np.__version__}
    if here != corpus["versions"]:
        pytest.skip(f"digests taken on {corpus['versions']}, not {here}")
    assert not changed, f"tables changed: {changed}"
