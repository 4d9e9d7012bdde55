"""Checks a request's outcome: exit code, the ``--out`` table and its rows.

A request passes when ``cli.main`` returned 0 without raising, the table
parses, names the right command, has the row count the config implies,
every ``status`` is ``ok``, every non-informational row stays within its
bound, and the rows an independent oracle covers agree with it.

Rows checked against an oracle also give an accuracy ratio
abs_error / bound; ``accuracy_digits`` of a run is -log10 of the largest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# Row count of each suite's report.
SUITE_ROWS = {
    "reproduction": 1, "orthogonality": 1, "sector-integrals": 2,
    "far-cap": 2, "hua-reproduction": 1, "diagonal-dim": 2, "almansi": 4,
    "gegenbauer": 2,
}

# verify rows whose deviation is measured against an independent oracle:
# whole suites, or single properties of the algebra suites.
ORACLE_SUITES = {"reproduction", "orthogonality", "sector-integrals",
                 "hua-reproduction"}
ORACLE_PROPERTIES = {("diagonal-dim", "max-diagonal-vs-dimension-gap"),
                     ("gegenbauer", "recurrence-vs-explicit")}

DIGITS_FLOOR = 1e-16


@dataclass
class Verdict:
    """Outcome of one request: failure reasons and oracle ratios."""

    reasons: list = field(default_factory=list)
    ratios: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons


def accuracy_digits(ratios) -> float:
    """min over rows of -log10(max(error / bound, 1e-16))."""
    return -math.log10(max(max(ratios), DIGITS_FLOOR))


def raised(exc: BaseException) -> Verdict:
    return Verdict([f"raised {type(exc).__name__}: {exc}"])


def _expected_rows(command: str, config: dict, oracle: dict) -> int:
    if command == "kernel":
        per_pair = 0
        for name in config["kernels"]:
            per_pair += 3 * len(config["degrees"]) if name == "zonal" else 1
        return per_pair * len(config["pairs"])
    if command == "dirichlet":
        return len(config["points"])
    if command == "verify":
        return sum(SUITE_ROWS[s] for s in config["suites"])
    if command == "hua-limit":
        return len(config.get("p_list", [1, 2, 4, 8])) + 1
    if command == "almansi":  # one row per block of p ladder steps + 1
        ladder = oracle["degree"] // 2 + 1
        return -(-ladder // config.get("p", 1)) + 1
    if command == "dims":
        return len(config["degrees"])
    raise ValueError(f"unknown command {command!r}")


def _informational(command: str, row: dict) -> bool:
    return command == "dims" or (command == "kernel"
                                 and row["kernel"] == "hua")


def check(request, code, text: str | None) -> Verdict:
    """Verdict for a request that returned ``code`` and wrote ``text``."""
    verdict = Verdict()
    if code != 0:
        verdict.reasons.append(f"exit code {code}")
    if text is None:
        verdict.reasons.append("no table written")
        return verdict
    try:
        table = json.loads(text)
        columns = table["columns"]
        rows = [dict(zip(columns, r)) for r in table["rows"]]
        command = table["metadata"]["command"]
    except (ValueError, KeyError, TypeError) as err:
        verdict.reasons.append(f"unreadable table: {err}")
        return verdict
    if command != request.command:
        verdict.reasons.append(f"table is for {command!r}")
    want_rows = _expected_rows(request.command, request.config,
                               request.oracle)
    if len(rows) != want_rows:
        verdict.reasons.append(f"{len(rows)} rows, expected {want_rows}")
    for i, row in enumerate(rows):
        _check_row(request, i, row, verdict)
    _check_oracle(request, rows, verdict)
    return verdict


def _check_row(request, i: int, row: dict, verdict: Verdict):
    if row.get("status") != "ok":
        verdict.reasons.append(f"row {i} status {row.get('status')!r}")
        return
    error, bound = row.get("abs_error"), row.get("bound")
    if _informational(request.command, row):
        return
    if error is None or bound is None:
        verdict.reasons.append(f"row {i} has no error bound")
    elif not error <= bound:
        verdict.reasons.append(f"row {i} error {error!r} over bound {bound!r}")


def _check_oracle(request, rows: list, verdict: Verdict):
    """Compare rows with the generator's oracle and collect ratios."""
    command, oracle = request.command, request.oracle
    if command == "dirichlet" and len(rows) == len(oracle["values"]):
        for row, (re, im) in zip(rows, oracle["values"]):
            if row["bound"] is None or row["value_re"] is None:
                continue
            value = complex(row["value_re"], row["value_im"])
            ratio = max(abs(value - complex(re, im)),
                        row["abs_error"]) / row["bound"]
            _ratio(verdict, ratio, f"point {row['point']}")
    elif command == "hua-limit":
        want = complex(*oracle["reference"])
        for row in rows:
            if row["p"] == "hua" and row["bound"]:
                value = complex(row["value_re"], row["value_im"])
                _ratio(verdict, abs(value - want) / row["bound"],
                       "Cauchy-Hua row")
    elif command == "kernel":
        for row in rows:
            if row["kernel"] == "poisson" and row["bound"]:
                verdict.ratios.append(row["abs_error"] / row["bound"])
    elif command == "verify":
        for row in rows:
            key = (row["suite"], row["property"])
            if (row["suite"] in ORACLE_SUITES or key in ORACLE_PROPERTIES) \
                    and row["bound"]:
                verdict.ratios.append(row["abs_error"] / row["bound"])
    elif command == "dims":
        got = [[row["dim_P"], row["dim_H"], row["value_re"]] for row in rows]
        if got != oracle["dims"]:
            verdict.reasons.append("dimension table differs from the formula")


def _ratio(verdict: Verdict, ratio: float, where: str):
    verdict.ratios.append(ratio)
    if ratio > 1.0:
        verdict.reasons.append(f"{where} misses the independent oracle")
