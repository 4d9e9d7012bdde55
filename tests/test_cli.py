"""Command-line interface: config validation, tables, exit codes.

All invocations go through cli.main() with a config written to tmp_path, so
exit codes are the function's return values.  CSV cells print floats with 17
significant digits and must parse back to the exact doubles of the JSON
emitter; reruns must be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyball import cli, geometry, kernels, polyalg, quadrature, solver
from polyball.gegenbauer import gegenbauer_coefficients
from polyball.geometry import RotatedVector, lie_norm
from polyball.kernels import ROUTE_GEGENBAUER_DIFF

VALUE_COLS = ["value_re", "value_im", "reference_re", "reference_im",
              "abs_error", "bound"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse_strictly(text, fmt="json"):
    """Parse a table, failing on NaN and Infinity, which are not JSON."""
    if fmt == "json":
        return json.loads(text, parse_constant=_refuse_constant)
    head, *lines = text.splitlines()
    cells = [c for row in csv.reader(lines[1:]) for c in row]
    assert not {"inf", "-inf", "nan"} & set(cells), "non-finite CSV cell"
    return json.loads(head[2:], parse_constant=_refuse_constant)


def run(tmp_path, command, config, *flags):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "table.json"
    fmt = "csv" if "--format=csv" in flags else "json"
    argv = [command, "--config", str(cfg), "--out", str(out),
            "--format", fmt]
    argv += [f for f in flags if not f.startswith("--format")]
    code = cli.main(argv)
    text = out.read_text() if out.exists() else ""
    if text:
        parse_strictly(text, fmt)
    return code, text


def rows_by(table_text, **match):
    obj = json.loads(table_text)
    cols = obj["columns"]
    out = []
    for row in obj["rows"]:
        d = dict(zip(cols, row))
        if all(d.get(k) == v for k, v in match.items()):
            out.append(d)
    return out


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------

def test_unknown_keys_are_rejected(tmp_path, capsys):
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "pairs": [{"x": [0.5, 0], "zeta": [1, 0]}],
                      "extra": 1})
    assert (code, text) == (cli.EXIT_CONFIG, "")
    assert capsys.readouterr().err \
        == "error: unknown configuration keys for kernel: extra\n"


@pytest.mark.parametrize("extra,key", [
    ({"x_sector": "junk", "zeta_sector": [1]}, "x_sector"),
    ({"zeta_sector": 0}, "zeta_sector"),
    ({"x_sector": 1}, "x_sector")])
def test_sector_keys_beside_a_pairs_list_are_refused(tmp_path, capsys, extra,
                                                     key):
    # a sector is read only inside a pairs entry: beside the list it is an
    # unknown key, valid value or not, and every such key is named, key first
    config = {"n": 2, "p": 2, "pairs": [{"x": [0.5, 0], "zeta": [1, 0]}],
              **extra}
    line = f"error: unknown configuration keys for kernel: " \
        f"{', '.join(sorted(extra))}\n"
    assert line.startswith(f"error: unknown configuration keys for kernel: "
                           f"{key}")
    code, text = run(tmp_path, "kernel", config)
    assert (code, text) == (cli.EXIT_CONFIG, "")
    assert capsys.readouterr().err == line
    # the unknown keys are refused before the pairs list is read
    config["pairs"] = [{"x": [0.5], "zeta": [1, 0]}]
    assert run(tmp_path, "kernel", config)[0] == cli.EXIT_CONFIG
    assert capsys.readouterr().err == line


def test_n_is_required_and_validated(tmp_path):
    code, _ = run(tmp_path, "dims", {"degrees": [1]})
    assert code == cli.EXIT_CONFIG
    code, _ = run(tmp_path, "dims", {"n": 1})
    assert code == cli.EXIT_CONFIG


def test_malformed_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["dims", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert cli.main(["dims", "--config", str(tmp_path / "none.json")]) \
        == cli.EXIT_CONFIG
    capsys.readouterr()


def test_bad_polynomial_text_is_config_error(tmp_path, capsys):
    code, _ = run(tmp_path, "almansi", {"n": 2, "polynomial": "x1 + y^"})
    assert code == cli.EXIT_CONFIG
    code, _ = run(tmp_path, "almansi", {"n": 2, "polynomial": "x1^2 + x1"})
    assert code == cli.EXIT_CONFIG  # inhomogeneous input
    capsys.readouterr()


def test_unknown_suite_is_config_error(tmp_path, capsys):
    code, _ = run(tmp_path, "verify", {"n": 2, "suites": ["nope"]})
    assert code == cli.EXIT_CONFIG
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("command,config,message", [
    ("verify", {"n": 2, "suites": [["far-cap"]]}, "suites[0]"),
    ("verify", {"n": 2, "suites": ["far-cap", {"a": 1}]}, "suites[1]"),
    ("kernel", {"n": 2, "pairs": [{"x": [0.5, 0], "zeta": [1, 0]}],
                "kernels": [["hua"]]}, "kernels[0]"),
])
def test_suite_and_kernel_names_must_be_strings(tmp_path, capsys, command,
                                                config, message):
    # an unhashable suite name once ended in an internal error (exit 4)
    code, text = run(tmp_path, command, config)
    assert (code, text) == (cli.EXIT_CONFIG, "")
    assert capsys.readouterr().err == f"error: {message} must be a string\n"


def _schema_texts() -> tuple:
    """README's "Configuration schema" common-fields paragraph, and each
    command's text: from its paragraph to the next command's."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("### Configuration schema\n")[1].split("\n### ")[0]
    starts = sorted((re.search(rf"^`{name}` ", schema, re.MULTILINE).start(),
                     name) for name in cli._COMMANDS)
    ends = [at for at, _ in starts[1:]] + [len(schema)]
    return schema[:starts[0][0]], {name: schema[at:end] for (at, name), end
                                   in zip(starts, ends)}


def test_readme_default_tolerances_match_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.findall(r"^`([a-z-]+)` [^\n]*\(default tolerance ([^)]+)\)",
                        readme, re.MULTILINE)
    assert {name: float(tol) for name, tol in stated} == {
        name: command.tolerance for name, command in cli._COMMANDS.items()
        if command.tolerance}
    # each key of each table is named where README describes it: a key
    # that every command but one takes among the common fields, the others
    # in the command's text, with its default in a paragraph or item that
    # names it
    common, texts = _schema_texts()
    for name, command in cli._COMMANDS.items():
        pair = cli._PAIR if "pairs" in command.table else {}
        for key, (_, default) in {**command.table, **pair}.items():
            text = common if key in cli._COMMON else texts[name]
            items = [" ".join(item.split()) for item in re.split(
                r"\n\n|\n- ", text) if f"`{key}`" in item]
            assert items, f"README does not name {name}'s {key}"
            # a computed default, or a required key's refusal, is its own
            if default is not None and not callable(default):
                want = f"default `{json.dumps(default)}`"
                assert any(want in item for item in items), \
                    f"README does not give {name}'s {key} {want}"


def test_every_key_table_entry_is_a_check_and_default_pair():
    # one entry kind for _read: no cross-key rule, and no placeholder for a
    # key that such a rule reads
    for table in [cli._PAIR] + [c.table for c in cli._COMMANDS.values()]:
        for key, entry in table.items():
            assert isinstance(entry, tuple) and len(entry) == 2 \
                and callable(entry[0]), key


# the violations of each key: a config with exactly that fault; DROP
# removes the key
DROP = object()
VALID = {
    "kernel": {"n": 2, "p": 2, "tolerance": 1e-8,
               "pairs": [{"x": [0.5, 0.0], "zeta": [1.0, 0.0], "x_sector": 0,
                          "zeta_sector": 0}],
               "degrees": [0, 1], "kernels": ["zonal"]},
    "dirichlet": {"n": 2, "p": 2, "tolerance": 1e-8,
                  "boundary": "x1", "points": [[0.1, 0.2]], "sectors": [0]},
    "verify": {"n": 2, "p": 1, "seed": 1, "tolerance": 1e-6,
               "suites": ["almansi"]},
    "hua-limit": {"n": 2, "tolerance": 1e-6, "u": "x1",
                  "z": [0.1, [0.1, 0.1]], "p_list": [1, 2]},
    "almansi": {"n": 2, "p": 1, "tolerance": 1e-6, "polynomial": "x1^2"},
    "dims": {"n": 2, "p": 1, "degrees": [0, 1]},
}
_VECTOR_FAULTS = {"missing": DROP, "type": "x", "length": [0.5],
                  "non-finite": [math.nan, 0.0]}
_SECTOR_FAULTS = {"type": 1.0, "below": -1, "above": 2}
VIOLATIONS = {
    "n": {"missing": DROP, "type": 2.0, "below": 1},
    "p": {"type": True, "below": 0},
    "seed": {"type": "1", "below": -1, "above": 2 ** 64},
    "tolerance": {"type": "1e-6", "below": 0.0, "non-finite": math.inf},
    "x": _VECTOR_FAULTS, "zeta": _VECTOR_FAULTS,
    "x_sector": _SECTOR_FAULTS, "zeta_sector": _SECTOR_FAULTS,
    "pairs": {"missing": DROP, "type": {}, "length": [],
              "unknown": [{"x": [0.5, 0.0], "zeta": [1.0, 0.0], "w": 0}]},
    "degrees": {"type": 2, "length": [], "below": [-1]},
    "kernels": {"type": "zonal", "length": []},
    "boundary": {"missing": DROP, "type": 1},
    "points": {"missing": DROP, "type": {}, "length": [[0.1]],
               "non-finite": [[math.inf, 0.0]]},
    "sectors": {"type": 1, "length": [1, 1], "below": [-1], "above": [2]},
    "suites": {"missing": DROP, "type": "almansi", "length": []},
    "u": {"missing": DROP, "type": ["x1"]},
    "z": {"missing": DROP, "type": "z", "length": [0.1],
          "non-finite": [math.nan, 0.1]},
    "p_list": {"type": 2, "length": [], "below": [0]},
    "polynomial": {"missing": DROP, "type": None},
}


def _with(config: dict, key: str, value) -> dict:
    config = json.loads(json.dumps(config))
    if value is DROP:
        config.pop(key)
    else:
        config[key] = value
    return config


def _violations():
    """(command, name, class, config) for each violation of each key of
    each table, of each pair key inside a pairs entry, and each key of the
    other tables, or of a pair, that the command does not accept."""
    every = set(cli._PAIR).union(*(c.table for c in cli._COMMANDS.values()))
    for command, table in ((name, c.table) for name, c in
                           cli._COMMANDS.items()):
        valid = VALID[command]
        for key in table:
            for kind, value in VIOLATIONS[key].items():
                yield command, key, kind, _with(valid, key, value)
        for key in cli._PAIR if "pairs" in table else ():
            for kind, value in VIOLATIONS[key].items():
                yield command, f"pairs[0].{key}", kind, {
                    **valid, "pairs": [_with(valid["pairs"][0], key, value)]}
        for key in sorted(every - table.keys()):
            yield command, key, "unknown", {**valid, key: 1}


def _refuses(command: str, config: dict) -> bool:
    try:
        cli.RunConfig.from_mapping(command, config)
    except cli.ConfigError:
        return True
    return False


def test_every_key_violation_is_one_error_line_that_names_the_key(
        tmp_path, capsys, monkeypatch):
    # every runner raises: a fault that validation misses ends with exit 4
    def accepted(cfg):
        raise RuntimeError("validation accepted the config")

    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli._RUNNERS,
                                                       accepted))
    keys = {key for command in cli._COMMANDS.values() for key in command.table}
    assert set(VIOLATIONS) == keys | set(cli._PAIR)
    assert all(not _refuses(command, config)
               for command, config in VALID.items())
    path, wrong = tmp_path / "config.json", []
    for command, name, kind, config in _violations():
        path.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(path)])
        out, err = capsys.readouterr()
        if not (code == cli.EXIT_CONFIG and out == "" and err.count("\n") == 1
                and err.startswith("error: ") and re.search(
                    rf"(^|[^\w.]){re.escape(name)}\b", err[7:])):
            wrong.append((command, name, kind, code, err))
    assert not wrong, wrong
    # a key is required exactly where it has a "missing" violation; an
    # absent key with a default takes it
    for command, table in ((n, c.table) for n, c in cli._COMMANDS.items()):
        for key in table:
            config = {k: v for k, v in VALID[command].items() if k != key}
            assert _refuses(command, config) == \
                ("missing" in VIOLATIONS[key]), (command, key)
    [pair] = VALID["kernel"]["pairs"]
    for key in cli._PAIR:
        config = {**VALID["kernel"],
                  "pairs": [{k: v for k, v in pair.items() if k != key}]}
        assert _refuses("kernel", config) == ("missing" in VIOLATIONS[key]), \
            key


# the keys that no run of the command reads: only verify's suites draw
# random samples, and dims' rows carry no bound
UNREAD = [(command, "seed") for command in ("kernel", "dirichlet",
                                            "hua-limit", "almansi", "dims")]
UNREAD.append(("dims", "tolerance"))


# and the second spellings: a kernel pair at the top level, and a rule
# resolution, with a value that each once took
SPELLINGS = {"x": [0.5, 0.0], "zeta": [1.0, 0.0], "x_sector": 0,
             "zeta_sector": 0, "resolution": "auto"}


@pytest.mark.parametrize("command,key", UNREAD + [
    ("kernel", key) for key in cli._PAIR] + [
    (command, "resolution") for command in ("dirichlet", "hua-limit")])
def test_a_key_that_no_run_reads_is_refused(tmp_path, capsys, command, key):
    config = {**VALID[command],
              key: {"seed": 0, "tolerance": 1e-6, **SPELLINGS}[key]}
    assert run(tmp_path, command, config) == (cli.EXIT_CONFIG, "")
    assert capsys.readouterr().err \
        == f"error: unknown configuration keys for {command}: {key}\n"
    if key in cli._PAIR:  # nor does a pair key stand in for a pairs list
        config.pop("pairs")
        assert run(tmp_path, command, config) == (cli.EXIT_CONFIG, "")
        assert capsys.readouterr().err \
            == f"error: unknown configuration keys for {command}: {key}\n"
        config.pop(key)
        assert run(tmp_path, command, config) == (cli.EXIT_CONFIG, "")
        assert capsys.readouterr().err \
            == "error: pairs (a list of x/zeta pairs) is required\n"


@pytest.mark.parametrize("command,key", [
    (command, key) for command in cli._COMMANDS
    for key in ("seed", "tolerance")])
def test_a_flag_that_no_run_reads_is_a_usage_error(tmp_path, capsys,
                                                   command, key):
    # the configuration is the one spelling of every input: no command
    # takes a --seed or --tolerance flag, even where it reads the key
    with pytest.raises(SystemExit) as stop:
        run(tmp_path, command, VALID[command], f"--{key}", "1")
    assert stop.value.code == 2
    assert f"unrecognized arguments: --{key} 1" in capsys.readouterr().err


def test_verify_seed_flag_sets_the_seed(tmp_path):
    # the seed key, the one spelling of the seed, sets it.  p = 2, where
    # the three routes round differently, so seeds differ
    config = {"n": 2, "p": 2, "suites": ["route-agreement"]}
    tables = [run(tmp_path, "verify", {**config, **seed})[1]
              for seed in ({"seed": 9}, {}, {"seed": 9})]
    assert tables[0] == tables[2] and rows_by(tables[0]) != rows_by(tables[1])
    assert json.loads(tables[0])["metadata"]["config"]["seed"] == 9


# --------------------------------------------------------------------------
# kernel command
# --------------------------------------------------------------------------

def test_kernel_poisson_spot_value_three(tmp_path):
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "p": 1,
                      "pairs": [{"x": [0.5, 0], "zeta": [1, 0]}]})
    assert code == 0
    [row] = rows_by(text, kernel="poisson")
    assert row["value_re"] == pytest.approx(3.0, rel=1e-12)
    assert row["value_im"] == 0.0
    assert row["abs_error"] <= row["bound"]


def test_kernel_at_origin_gives_unit_values(tmp_path):
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "p": 2,
                      "pairs": [{"x": [0, 0], "zeta": [0.6, 0.8]}],
                      "degrees": [0], "kernels": ["zonal", "poisson", "hua"]})
    assert code == 0
    for row in json.loads(text)["rows"]:
        d = dict(zip(json.loads(text)["columns"], row))
        assert d["value_re"] == pytest.approx(1.0, abs=1e-14)
        assert d["value_im"] == pytest.approx(0.0, abs=1e-14)


def test_kernel_route_gaps_within_tolerance_on_stock_config(tmp_path):
    code, text = run(tmp_path, "kernel",
                     {"n": 3, "p": 2, "pairs": [
                         {"x": [0.3, -0.2, 0.4], "zeta": [0.6, 0.48, 0.64],
                          "x_sector": 1}],
                      "degrees": [0, 2, 5, 8]})
    assert code == 0
    for row in rows_by(text, kernel="zonal"):
        assert row["abs_error"] <= row["bound"]
        assert row["abs_error"] <= 1e-10 * max(1.0, abs(row["reference_re"]))


def test_kernel_singular_row_continues_and_exits_three(tmp_path):
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "pairs": [
                         {"x": [0.999999999, 0], "zeta": [1, 0]},
                         {"x": [0.5, 0], "zeta": [1, 0]}],
                      "kernels": ["poisson"]})
    assert code == cli.EXIT_SINGULAR
    rows = rows_by(text, kernel="poisson")
    assert rows[0]["status"] == "singular"
    assert rows[0]["value_re"] is None
    assert rows[1]["status"] == "ok"
    assert rows[1]["value_re"] == pytest.approx(3.0, rel=1e-12)


def test_kernel_sector_index_range_is_validated(tmp_path, capsys):
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "p": 2, "pairs": [
                         {"x": [0.5, 0], "zeta": [1, 0], "x_sector": 2}]})
    assert (code, text) == (cli.EXIT_CONFIG, "")
    assert capsys.readouterr().err \
        == "error: pairs[0].x_sector must be <= 1\n"


@pytest.mark.parametrize("n,p,degree", [(2, 1, 1500), (5, 2, 800)])
def test_kernel_degree_past_double_range_is_config_error(tmp_path, capsys,
                                                         n, p, degree):
    # a log-scale bound on the Gegenbauer coefficients refuses the degree
    # before any exact table is built
    code, text = run(tmp_path, "kernel",
                     {"n": n, "p": p, "pairs": [
                         {"x": [0.1] * n, "zeta": [1] + [0] * (n - 1)}],
                      "degrees": [degree],
                      "kernels": ["zonal"]})
    assert code == cli.EXIT_CONFIG
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: degree {degree}: the zonal coefficients")
    assert err.count("\n") == 1


def test_certain_coefficient_overflow_builds_no_exact_table(tmp_path, capsys,
                                                           monkeypatch):
    def built(*args):
        raise AssertionError("an exact coefficient table was built")

    monkeypatch.setattr(kernels, "_zonal_p_coeffs", built)
    monkeypatch.setattr(kernels, "_explicit_p_coeffs", built)
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "pairs": [{"x": [0.1, 0.1], "zeta": [1, 0]}],
                      "degrees": [1500], "kernels": ["zonal"]})
    assert (code, text) == (cli.EXIT_CONFIG, "")
    assert capsys.readouterr().err \
        == "error: degree 1500: the zonal coefficients overflow a double\n"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(1026, 2 ** 64))
@example(n=2, m=1026)
@example(n=3, m=2 ** 63)
def test_kernel_refuses_a_huge_degree_before_any_coefficient(
        tmp_path_factory, n, m):
    # the k = 0 coefficient alone passes 2^1025 at every m > 1025; its
    # loop over m/2 terms took 0.75 s at m = 10^6 and did not end at 2^63.
    # The fastest of three calls is timed
    path = tmp_path_factory.mktemp("degree") / "config.json"
    path.write_text(json.dumps({"n": n, "pairs": [
                                    {"x": [0.1] * n,
                                     "zeta": [1.0] + [0.0] * (n - 1)}],
                                "degrees": [m], "kernels": ["zonal"]}))
    elapsed = []
    for _ in range(3):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["kernel", "--config", str(path)])
        elapsed.append(time.perf_counter() - start)
        assert (code, out.getvalue()) == (cli.EXIT_CONFIG, "")
        assert err.getvalue() == (f"error: degree {m}: the zonal "
                                  "coefficients overflow a double\n")
    assert min(elapsed) < 0.01


@pytest.mark.parametrize("n", [5, 8])
def test_coefficient_overflow_bound_is_sound_at_its_first_degree(n):
    # the first degree the log-scale bound refuses does overflow exactly
    m = next(m for m in range(1000) if kernels._coefficients_overflow(n, m))
    table = gegenbauer_coefficients(Fraction(n, 2), m)
    with pytest.raises(OverflowError):
        float(max(abs(c) for c in table))


def test_kernel_series_bound_past_double_range_is_a_rejected_row(tmp_path):
    # at n = 300 the series tail bound overflows a double: one rejected
    # row, not a traceback
    n = 300
    code, text = run(tmp_path, "kernel",
                     {"n": n, "p": 1, "pairs": [
                         {"x": [0.9] + [0] * (n - 1),
                          "zeta": [1] + [0] * (n - 1)}],
                      "kernels": ["poisson"]})
    assert code == cli.EXIT_CONFIG
    assert [row["status"] for row in rows_by(text)] == ["rejected"]


def test_kernel_series_past_the_node_cap_is_refused_before_it_is_built(
        tmp_path, capsys, monkeypatch):
    # at r = 0.995 the series asks for M + 1 terms a pair; the first pair
    # count past the node cap is refused before the term table is built
    terms = kernels.truncation_degree(2, 1, 0.995, 1e-12) + 1
    pairs = geometry._MAX_NODES // terms + 1

    def built(*args):
        raise AssertionError("series terms built")

    monkeypatch.setattr(kernels, "_series_terms", built)
    code, text = run(tmp_path, "kernel", {
        "n": 2, "kernels": ["poisson"],
        "pairs": [{"x": [0.995, 0], "zeta": [1, 0]}] * pairs})
    assert (code, text) == (cli.EXIT_CONFIG, "")
    assert capsys.readouterr().err == (
        f"error: poisson series: {pairs} pairs: {pairs * terms} series "
        "terms exceed the node cap\n")


@st.composite
def kernel_configs(draw):
    # 1-4 pairs, one of them aligned near |x| = 1, where the closed forms
    # are singular
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 50, 400]))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        x, zeta = rng.standard_normal((2, n))
        x *= draw(st.floats(0.0, 0.999999)) / np.linalg.norm(x)
        pairs.append({"x": x.tolist(),
                      "zeta": (zeta / np.linalg.norm(zeta)).tolist(),
                      "x_sector": draw(st.integers(0, p - 1)),
                      "zeta_sector": draw(st.integers(0, p - 1))})
    aligned = pairs[draw(st.integers(0, len(pairs) - 1))]
    aligned["x"] = [(1.0 - 1e-9) * c for c in aligned["zeta"]]
    aligned["x_sector"] = aligned["zeta_sector"]
    # a finite coordinate anywhere in the double range
    far = pairs[draw(st.integers(0, len(pairs) - 1))][
        draw(st.sampled_from(["x", "zeta"]))]
    far[draw(st.integers(0, n - 1))] = draw(st.floats(-1.7e308, 1.7e308))
    return {"n": n, "p": p, "pairs": pairs,
            "degrees": draw(st.lists(st.integers(0, 40), min_size=1,
                                     max_size=3)),
            "kernels": draw(st.lists(st.sampled_from(["zonal", "poisson",
                                                      "hua"]),
                                     min_size=1, unique=True))}


def assert_contract(tmp_path_factory, command, config) -> str:
    """Exit 0-3 with either a strict-JSON table and a silent stderr, or one
    "error:" line and no table; never a traceback, a warning or exit 4.
    Returns what was written to stderr."""
    path = tmp_path_factory.mktemp("contract") / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(path)])
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2, 3), err.getvalue()
    if out.getvalue():
        assert err.getvalue() == ""
        parse_strictly(out.getvalue())
    else:
        assert code == cli.EXIT_CONFIG
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 \
            and err.getvalue().endswith("\n")
    return err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kernel_configs())
@example({"n": 400, "p": 1,
          "pairs": [{"x": [0.9] + [0] * 399, "zeta": [1] + [0] * 399}],
          "kernels": ["zonal", "poisson", "hua"]})
@example({"n": 400, "p": 1,
          "pairs": [{"x": [0.9] + [0] * 399, "zeta": [1] + [0] * 399}],
          "kernels": ["hua"]})
@example({"n": 2, "p": 2,
          "pairs": [{"x": [0.5, 0], "zeta": [1, 1e300]}],  # NaN zonal
          "kernels": ["zonal"], "degrees": [4]})
def test_kernel_contract_holds_on_generated_configs(tmp_path_factory,
                                                    config):
    assert_contract(tmp_path_factory, "kernel", config)


@pytest.mark.parametrize("config,line", [pytest.param(
    {"n": 2, "p": 1, "pairs": [{"x": [0.1, 0.1], "zeta": [1, 0]}],
     "degrees": [1500], "kernels": ["zonal"]},
    "degree 1500: the zonal coefficients overflow a double",
    id="degree-past-the-doubles")])
def test_refused_kernel_contract_examples_print_their_exact_line(
        tmp_path_factory, config, line):
    # the kernel contract's refused examples, each with its one error line
    assert assert_contract(tmp_path_factory, "kernel", config) \
        == f"error: {line}\n"


_COEFFICIENTS = st.one_of(
    st.integers(-99, 99).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(
        "{0[0]}/{0[1]}".format),
    st.sampled_from(["0.25", "-1.5", "1e3", "2.5e-4"]),
    st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9)).map(
        "({0[0]}/{0[1]},{0[2]})".format))


@st.composite
def almansi_configs(draw):
    # 1-4 terms of one degree, or of two degrees (refused as not
    # homogeneous); degree at most 6 keeps n = 8 inside the monomial cap
    n = draw(st.integers(2, 8))
    degrees = [draw(st.integers(0, 6))]
    if draw(st.booleans()):
        degrees.append(draw(st.integers(0, 6)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = sorted(draw(st.lists(st.integers(0, degrees[-1]),
                                    min_size=n - 1, max_size=n - 1)))
        exps = [b - a for a, b in zip([0] + cuts, cuts + [degrees[-1]])]
        monomial = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        terms.append(f"{draw(_COEFFICIENTS)} * {monomial}" if monomial
                     else draw(_COEFFICIENTS))
        degrees.reverse()
    # p past deg / 2 leaves one component
    return {"n": n, "p": draw(st.integers(1, 8)),
            "polynomial": " + ".join(terms)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(almansi_configs())
@example({"n": 8, "p": 1, "polynomial": "x1^9"})  # monomial cap
@example({"n": 3, "p": 2, "polynomial": "x1^2 + 3/0 * x2^2"})  # zero denom
def test_almansi_contract_holds_on_generated_configs(tmp_path_factory,
                                                     config):
    assert_contract(tmp_path_factory, "almansi", config)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "n": st.sampled_from([2, 3, 4, 5, 6, 7, 8, 50, 400]),
    "p": st.integers(1, 3),
    "degrees": st.lists(st.integers(0, 60), min_size=1, max_size=5)}))
@example({"n": 2000, "p": 1, "degrees": [2, 300]})  # dim past the doubles
def test_dims_contract_holds_on_generated_configs(tmp_path_factory, config):
    assert_contract(tmp_path_factory, "dims", config)


# values that no field accepts, or that only some fields accept
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.sampled_from([0.5, -1.5, 1e300, float("inf"), "", "x1",
                                   "auto", [], [1], [[0.5]], {}, {"a": 1}]))


def maybe_broken(draw, config: dict) -> dict:
    """The config, or the config with one key dropped, set to junk, or
    added unknown."""
    config = dict(config)
    how = draw(st.sampled_from(["keep", "keep", "drop", "junk", "extra"]))
    key = draw(st.sampled_from(sorted(config)))
    if how == "drop":
        del config[key]
    elif how == "junk":
        config[key] = draw(_JUNK)
    elif how == "extra":
        config["extra"] = draw(_JUNK)
    return config


def polynomial_text(draw, n: int, degree: int) -> str:
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.integers(0, degree), min_size=n, max_size=n))
        monomial = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        terms.append(f"{draw(_COEFFICIENTS)} * {monomial}" if monomial
                     else draw(_COEFFICIENTS))
    return " + ".join(terms)


@st.composite
def dirichlet_configs(draw):
    # points inside at radius <= 0.8, on the sphere or outside; p past the
    # node cap is refused before any sector is built
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.one_of(st.integers(1, 3), st.just(2 ** 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        x = rng.standard_normal(n)
        radius = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0, 1.5]))
        points.append((x * radius / np.linalg.norm(x)).tolist())
    return maybe_broken(draw, {
        "n": n, "p": p, "boundary": polynomial_text(draw, n, 2),
        "points": points,
        "sectors": [draw(st.integers(0, min(p, 3) - 1)) for _ in points],
        "resolution": draw(st.sampled_from(["auto", 4, 12]))})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dirichlet_configs())
@example({"n": 2, "boundary": "1e300 * x1^12",  # values past the doubles
          "points": [[0.3, 0.1], [0.2, 0.0]]})
def test_dirichlet_contract_holds_on_generated_configs(tmp_path_factory,
                                                       config):
    assert_contract(tmp_path_factory, "dirichlet", config)


# the suites that refuse a p past the node cap before building, and
# almansi, which p past deg / 2 leaves with one component
_P_SUITES = ["far-cap", "sector-integrals", "reproduction", "orthogonality",
             "diagonal-dim", "almansi"]


@st.composite
def verify_configs(draw):
    entry = st.one_of(st.sampled_from(_P_SUITES + ["nope"]), _JUNK)
    return maybe_broken(draw, {
        "n": draw(st.sampled_from([2, 3, 9, 400])),
        "p": draw(st.one_of(st.integers(1, 2), st.just(2 ** 40))),
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
        "suites": draw(st.lists(entry, min_size=1, max_size=2))})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(verify_configs())
@example({"n": 2, "suites": [["far-cap"]]})  # an unhashable entry
@example({"n": 2, "suites": [{"far-cap": 1}]})
def test_verify_contract_holds_on_generated_configs(tmp_path_factory,
                                                    config):
    assert_contract(tmp_path_factory, "verify", config)


@st.composite
def hua_limit_configs(draw):
    # z of Lie norm 0.3 or 0.6, or on or past the Lie sphere
    n = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z *= draw(st.sampled_from([0.3, 0.6, 1.0, 1.5])) / lie_norm(z)
    return maybe_broken(draw, {
        "n": n, "u": polynomial_text(draw, n, 3),
        "z": [[c.real, c.imag] if draw(st.booleans()) else c.real
              for c in z],
        "p_list": draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)),
        "resolution": draw(st.sampled_from(["auto", 4, 12]))})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(hua_limit_configs())
@example({"n": 2, "u": "x1^2", "z": [1e300, 0.1]})  # an overflowing norm
@example({"n": 2, "u": "1e300 * x1^12", "z": [0.3, 0.1]})
def test_hua_limit_contract_holds_on_generated_configs(tmp_path_factory,
                                                       config):
    assert_contract(tmp_path_factory, "hua-limit", config)


def _pair_rows(table) -> dict:
    """Each pair's rows without the pair cell, every cell by its repr."""
    rows = {}
    for row in table.rows:
        rows.setdefault(row[0], []).append([repr(c) for c in row[1:]])
    return rows


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (5, 3)])
def test_kernel_pair_rows_do_not_depend_on_the_batch(n, p):
    # a pair's rows in a batch of ok, singular and rejected pairs are the
    # rows of the same pair sent alone, bit for bit
    rng = np.random.default_rng(40 + n)
    e1 = [1.0] + [0.0] * (n - 1)
    e2 = [0.0, 1.0] + [0.0] * (n - 2)
    pairs = []
    for k in range(7):
        x, zeta = rng.standard_normal((2, n))
        pairs.append({"x": (0.05 + 0.13 * k) * x / np.linalg.norm(x),
                      "zeta": zeta / np.linalg.norm(zeta),
                      "x_sector": int(rng.integers(p)),
                      "zeta_sector": int(rng.integers(p))})
    pairs = [{key: v.tolist() if isinstance(v, np.ndarray) else v
              for key, v in pair.items()} for pair in pairs]
    pairs[2:2] = [{"x": [0.999999999] + e1[1:], "zeta": e1},  # singular
                  {"x": [1.5] + e1[1:], "zeta": e1},  # outside the ball
                  {"x": [0.5] + e1[1:], "zeta": [0.5] + e1[1:]},  # off-sphere
                  {"x": [1.0 - 1e-7] + e1[1:], "zeta": e2}]  # series refused
    config = {"n": n, "p": p, "pairs": pairs, "degrees": list(range(9)),
              "kernels": ["zonal", "poisson", "hua"]}
    table = cli.run_command("kernel", config)
    statuses = {row[1]: set() for row in table.rows}
    for row in table.rows:
        statuses[row[1]].add(row[4])
    assert statuses["poisson"] == {"ok", "singular", "rejected"}
    assert statuses["hua"] == {"ok", "singular", "rejected"}
    batched = _pair_rows(table)
    for i, pair in enumerate(pairs):
        alone = cli.run_command("kernel", dict(config, pairs=[pair]))
        assert _pair_rows(alone)[0] == batched[i], i


def _csv_of_rows(table) -> str:
    """The CSV render written row by row with ``csv.writer``."""
    buf = io.StringIO()
    buf.write("# " + json.dumps(table.metadata, sort_keys=True,
                                separators=(",", ":")) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows([["" if c is None else format(c, ".17g")
                       if isinstance(c, float) else c for c in row]
                      for row in table.rows])
    return buf.getvalue()


_PAIR_CASES = ("ok", "outside", "off-sphere", "singular", "outside-lie")


@st.composite
def mixed_kernel_requests(draw):
    # 1-16 pairs of five cases: ok; x outside the ball; zeta off the
    # sphere; an aligned singular pair; a hua pair outside the Lie domain
    # (zeta off the sphere with L(x) L(zeta) = 1.2)
    n, p = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    e1 = [1.0] + [0.0] * (n - 1)
    pairs = []
    for case in draw(st.lists(st.sampled_from(_PAIR_CASES), min_size=1,
                              max_size=16)):
        u, v = (w / np.linalg.norm(w) for w in rng.standard_normal((2, n)))
        radius, scale = {"ok": (rng.uniform(0.0, 0.9), 1.0),
                         "outside": (1.5, 1.0), "off-sphere": (0.5, 0.5),
                         "outside-lie": (0.6, 2.0)}.get(case, (None, None))
        j = int(rng.integers(p))
        pairs.append({"x": [0.999999999] + e1[1:], "zeta": e1,
                      "x_sector": j, "zeta_sector": j}
                     if case == "singular" else
                     {"x": (radius * u).tolist(), "zeta": (scale * v).tolist(),
                      "x_sector": j, "zeta_sector": int(rng.integers(p))})
    degrees = draw(st.permutations(range(9)))[:draw(st.integers(1, 9))]
    kernels_ = draw(st.permutations(["zonal", "poisson", "hua"]))
    return {"n": n, "p": p, "pairs": pairs, "degrees": list(degrees),
            "kernels": kernels_[:draw(st.integers(1, 3))]}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mixed_kernel_requests())
def test_kernel_column_blocks_do_not_depend_on_the_batch(config):
    # the rows that run_kernel writes as column blocks over all pairs are,
    # cell for cell, the rows of each pair sent alone (pair index 0 there),
    # and both renders equal the encoders run on those rows
    table = cli.run_command("kernel", config)
    batched = _pair_rows(table)
    for i, pair in enumerate(config["pairs"]):
        alone = cli.run_command("kernel", dict(config, pairs=[pair]))
        assert [row[0] for row in alone.rows] == [0] * len(alone.rows)
        assert _pair_rows(alone)[0] == batched[i], i
    assert [row[0] for row in table.rows] == sorted(
        row[0] for row in table.rows)
    obj = {"metadata": table.metadata, "columns": list(table.columns),
           "rows": table.rows}
    assert_same_text(table.render("json"),
                     json.dumps(obj, indent=2, sort_keys=True) + "\n")
    assert_same_text(table.render("csv"), _csv_of_rows(table))


def test_kernel_request_makes_one_zonal_call_per_degree_and_route(
        monkeypatch):
    # the overflow check runs once per degree; the three routes, every
    # degree and the term scales share one table of each of B, P, |B| and
    # |P|, in which each distinct power is built once per request
    calls = {"zonal": 0, "overflow": 0}
    built = {}  # table -> exponents built in it

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def missing(table, j):
        built.setdefault(id(table), []).append(j)
        return build(table, j)

    build = kernels._Powers.__missing__
    monkeypatch.setattr(kernels._Powers, "__missing__", missing)
    monkeypatch.setattr(kernels, "zonal_from_products",
                        counted("zonal", kernels.zonal_from_products))
    monkeypatch.setattr(kernels, "_coefficients_overflow",
                        counted("overflow", kernels._coefficients_overflow))
    rng = np.random.default_rng(3)
    pairs = [{"x": (0.05 * k * v / np.linalg.norm(v)).tolist(),
              "zeta": (w / np.linalg.norm(w)).tolist()}
             for k, (v, w) in enumerate(rng.standard_normal((16, 2, 3)))]
    table = cli.run_command("kernel", {"n": 3, "p": 2, "pairs": pairs,
                                       "degrees": list(range(9))})
    assert len(table.rows) == 16 * (9 * 3 + 1)
    assert calls == {"zonal": 27, "overflow": 9}
    # B^0..8 and |B|^0..8, P^0..4 and |P|^0..4: 28 distinct powers
    assert sorted(sorted(js) for js in built.values()) == \
        2 * [list(range(5))] + 2 * [list(range(9))]


def _status(fn, *args) -> tuple:
    """(status, value) of a kernel function: rejected for a ValueError,
    singular for a SingularKernelError."""
    try:
        return "ok", fn(*args)
    except kernels.SingularKernelError:
        return "singular", None
    except ValueError:
        return "rejected", None


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (5, 3), (9, 2)])
@np.errstate(all="ignore")  # the last pair's values pass the doubles
def test_kernel_rows_agree_with_the_per_point_functions(n, p):
    # every row against its pair alone: the batched kernels on the pair's
    # one-row (1, n) stack, and poisson_kernel on its RotatedVector points.
    # Statuses are equal, and the reference zonal route, the closed forms
    # and the series references equal bit for bit, as the batched functions
    # the command runs act on each pair alone
    tol = cli._COMMANDS["kernel"].tolerance
    rng = np.random.default_rng(70 + n)
    e1 = [1.0] + [0.0] * (n - 1)
    pairs = []
    for _ in range(8):
        x, zeta = rng.standard_normal((2, n))
        pairs.append({"x": (rng.uniform(0, 0.95) * x
                            / np.linalg.norm(x)).tolist(),
                      "zeta": (zeta / np.linalg.norm(zeta)).tolist(),
                      "x_sector": int(rng.integers(p)),
                      "zeta_sector": int(rng.integers(p))})
    pairs += [{"x": [0.999999999] + e1[1:], "zeta": e1},  # singular
              {"x": [1.5] + e1[1:], "zeta": e1},  # outside the ball
              {"x": [0.5] + e1[1:], "zeta": [0.5] + e1[1:]},  # off-sphere
              {"x": [1.0 - 1e-7] + e1[1:], "zeta": e1[1:] + [1.0]},
              {"x": [0.5] + e1[1:], "zeta": [1.0, 1e300] + e1[2:]}]
    table = cli.run_command("kernel", {
        "n": n, "p": p, "pairs": pairs, "degrees": list(range(9)),
        "kernels": ["zonal", "poisson", "hua"]})
    statuses = set()
    for i, kernel, m, route, status, *cells in table.rows:
        pair = pairs[i]
        x, zeta = (RotatedVector.sector(pair.get(f"{key}_sector", 0), p,
                                        np.array(pair[key]))
                   for key in ("x", "zeta"))
        xs, zetas = x.to_complex()[None], zeta.to_complex()[None]
        B, x2, zb2 = kernels.pair_invariants(xs, zetas)
        lie = (lie_norm(xs) * lie_norm(zetas)).tolist()
        value = None if cells[0] is None else complex(cells[0], cells[1])
        statuses.add((kernel, status))
        if kernel == "zonal":
            # no pair here overflows a route or a scale but not the value
            [want] = kernels.zonal_from_products(n, m, p, B, x2 * zb2)
            assert status == ("ok" if np.isfinite(want) else "rejected")
            if status == "ok" and route == ROUTE_GEGENBAUER_DIFF:
                assert value == want
        elif kernel == "poisson":
            want_status, want = _status(kernels.poisson_kernel, x, zeta, p)
            if want_status == "ok":
                [truth], _, [tail], [refusal] = kernels.poisson_series(
                    n, p, B, x2 * zb2, lie, tol / 100.0)
                if refusal is not None:
                    want_status = "rejected"
            assert status == want_status, (i, kernel)
            if status == "ok":
                assert value == want
                assert complex(cells[2], cells[3]) == truth
                assert cells[5] == tail + tol * max(1.0, abs(value))
        else:
            want_status, want = _status(kernels.cauchy_hua_from_products, n,
                                        x2, B, zb2)
            if not lie[0] < 1.0:  # outside the Lie domain
                want_status = "rejected"
            assert status == want_status, (i, kernel)
            if status == "ok":
                assert value == want[0]
    assert {"singular", "rejected", "ok"} <= {s for k, s in statuses
                                               if k == "poisson"}


# --------------------------------------------------------------------------
# dirichlet command
# --------------------------------------------------------------------------

def test_dirichlet_linear_boundary_reproduces(tmp_path):
    code, text = run(tmp_path, "dirichlet",
                     {"n": 2, "p": 1, "boundary": "x1",
                      "points": [[0.3, 0.4]]})
    assert code == 0
    [row] = rows_by(text, point=0)
    assert row["value_re"] == pytest.approx(0.3, abs=1e-9)
    assert row["reference_re"] == 0.3
    assert row["abs_error"] <= row["bound"]


def test_dirichlet_constant_boundary_gives_ones(tmp_path):
    code, text = run(tmp_path, "dirichlet",
                     {"n": 2, "p": 3, "boundary": "1",
                      "points": [[0.1, 0.0], [0.0, 0.7]],
                      "sectors": [0, 2]})
    assert code == 0
    for row in json.loads(text)["rows"]:
        d = dict(zip(json.loads(text)["columns"], row))
        assert d["value_re"] == pytest.approx(1.0, abs=1e-9)


def test_dirichlet_biharmonic_boundary_reproduces(tmp_path):
    code, text = run(tmp_path, "dirichlet",
                     {"n": 2, "p": 2, "boundary": "x1^2 + x2^2",
                      "points": [[0.25, 0.33], [0.5, -0.1]],
                      "sectors": [0, 1]})
    assert code == 0
    for row in json.loads(text)["rows"]:
        d = dict(zip(json.loads(text)["columns"], row))
        assert d["abs_error"] <= 1e-9


def test_dirichlet_exterior_point_rejected_per_row(tmp_path):
    code, text = run(tmp_path, "dirichlet",
                     {"n": 2, "boundary": "x1",
                      "points": [[0.2, 0.2], [1.5, 0.0]]})
    assert code == cli.EXIT_CONFIG
    rows = json.loads(text)["rows"]
    cols = json.loads(text)["columns"]
    states = [dict(zip(cols, r))["status"] for r in rows]
    assert states == ["ok", "rejected"]


def test_dirichlet_rows_equal_the_per_point_poisson_integrals():
    # one batched integral for every interior point; no value depends on
    # the batch, so each equals its own one-point (1 x 1) integral bit for
    # bit
    config = {"n": 3, "p": 2, "boundary": "x1^2 x2 + (0,1) x3 - 2",
              "points": [[0.1, 0.2, 0.3], [1.5, 0.0, 0.0],
                         [-0.4, 0.1, 0.2], [0.0, 0.0, 0.05]],
              "sectors": [0, 1, 1, 0]}
    table = cli.run_command("dirichlet", config)
    rule = quadrature.rule_from_json(table.metadata["rule"])
    q = polyalg.MultiPoly.from_text(config["boundary"], n=3)
    states = []
    for row, point, j in zip(table.rows, config["points"],
                             config["sectors"]):
        cells = dict(zip(table.columns, row))
        states.append(cells["status"])
        if cells["status"] == "ok":
            [[want]] = solver.poisson_integrals([q], 2, [point], [j], rule)
            assert (cells["value_re"], cells["value_im"]) == (
                want.real + 0.0, want.imag + 0.0)
    assert states == ["ok", "rejected", "ok", "ok"]


def test_aligned_dirichlet_builds_a_twentieth_of_the_shared_kernel_values(
        monkeypatch):
    # each point turns a template whose azimuth is sized by the data degree;
    # a fall back to the rule shared by every point would build over 20
    # times the kernel values
    rng = np.random.default_rng(16)
    points = []
    for k in range(16):
        y = rng.standard_normal(3)
        points.append(list(y * (0.8 if k == 0 else rng.uniform(0.1, 0.8))
                           / np.linalg.norm(y)))
    config = {"n": 3, "p": 2, "points": points,
              "boundary": "x1^5 - 3 x1 x2^2 x3^2 + (0,1) x2^3 + x3 - 1",
              "sectors": [k % 2 for k in range(16)]}
    built = []
    poisson = kernels.poisson_from_products

    def counted(n, p, x2, B, zb2):
        built.append(np.broadcast(x2, B, zb2).size)
        return poisson(n, p, x2, B, zb2)

    monkeypatch.setattr(kernels, "poisson_from_products", counted)
    table = cli.run_command("dirichlet", config)
    assert [row[table.status_index] for row in table.rows] == ["ok"] * 16
    shared = solver.choose_rule(3, 2, 5, 0.8,
                                cli._COMMANDS["dirichlet"].tolerance / 10.0)
    assert 20 * sum(built) <= 16 * 2 * shared.count


def _u_p_oracle(q, p: int, z) -> complex:
    """u_p(z) = sum over q's homogeneous parts and their harmonic ladders
    [h_0, h_1, ...] of (z.z)^{k mod p} h_k(z): on the rotated spheres
    (x.x)^p = 1, so |x|^{2k} collapses to its residue power."""
    z = np.asarray(z, dtype=complex)
    z2 = complex(np.sum(z * z))
    return sum(z2 ** (k % p) * h.evaluate(z)
               for comp in q.homogeneous_components().values()
               for k, h in enumerate(polyalg.polyharmonic_almansi(comp, 1)))


@st.composite
def non_polyharmonic_requests(draw):
    # data of degree <= 6 with Delta^p q != 0, 1-3 interior points and a
    # point of the Lie ball
    n, p = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    terms = []
    for degree in [draw(st.integers(2 * p, 6))] + draw(
            st.lists(st.integers(0, 6), max_size=3)):
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n - 1,
                                    max_size=n - 1)))
        exps = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        monomial = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        terms.append(f"{draw(_COEFFICIENTS)} * {monomial}" if monomial
                     else draw(_COEFFICIENTS))
    text = " + ".join(terms)
    assume(not polyalg.is_polyharmonic(polyalg.MultiPoly.from_text(text, n),
                                       p))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        x = rng.standard_normal(n)
        points.append((x * draw(st.floats(0.0, 0.8)) / np.linalg.norm(x))
                      .tolist())
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z *= draw(st.sampled_from([0.3, 0.6])) / lie_norm(z)
    return {"n": n, "p": p, "text": text, "points": points,
            "sectors": [draw(st.integers(0, p - 1)) for _ in points],
            "z": z.tolist()}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(non_polyharmonic_requests())
def test_every_integral_meets_the_exact_poisson_integral(request_):
    # every dirichlet row and every hua-limit order row of data that are
    # not p-polyharmonic meets u_p, computed here from the harmonic ladder,
    # within the row's printed bound
    n, p, text = request_["n"], request_["p"], request_["text"]
    q = polyalg.MultiPoly.from_text(text, n)
    table = cli.run_command("dirichlet", {
        "n": n, "p": p, "boundary": text, "points": request_["points"],
        "sectors": request_["sectors"]})
    zs = [RotatedVector.sector(j, p, np.array(pt)).to_complex()
          for pt, j in zip(request_["points"], request_["sectors"])]
    z = np.array(request_["z"])
    table_hua = cli.run_command("hua-limit", {
        "n": n, "u": text, "z": [[c.real, c.imag] for c in z],
        "p_list": [1, 2, 3]})
    rows = [(dict(zip(table.columns, row)), x, p)
            for row, x in zip(table.rows, zs)]
    rows += [(dict(zip(table_hua.columns, row)), z, row[0])
             for row in table_hua.rows[:-1]]
    for cells, x, order in rows:
        want = _u_p_oracle(q, order, x)
        value = complex(cells["value_re"], cells["value_im"])
        reference = complex(cells["reference_re"], cells["reference_im"])
        assert cells["status"] == "ok"
        assert abs(reference - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(value - want) <= cells["bound"], (order, value, want)
    assert (table.exit_code(), table_hua.exit_code()) == (0, 0)


@pytest.mark.parametrize("point", [[0.99999999, 0], [0.9999, 0]])
def test_dirichlet_unresolvable_radius_is_config_error(tmp_path, capsys,
                                                       point):
    # interior points too close to the sphere for any truncation degree
    # (r >= 1 - 1e-6) or for the term cap (SeriesToleranceError)
    code, text = run(tmp_path, "dirichlet",
                     {"n": 2, "boundary": "x1", "points": [point]})
    assert code == cli.EXIT_CONFIG
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: no quadrature rule for radius")
    assert err.count("\n") == 1


def assert_records(record, rule):
    """The rule record holds no array and rebuilds ``rule`` bit for bit."""
    assert not any(isinstance(v, list) for v in record.values())
    back = quadrature.rule_from_json(record)
    np.testing.assert_array_equal(back.nodes, rule.nodes)
    np.testing.assert_array_equal(back.weights, rule.weights)


def test_dirichlet_table_records_its_rule_compactly(tmp_path):
    points = [[0.05 * k, -0.03 * k, 0.02] for k in range(16)]
    code, text = run(tmp_path, "dirichlet",
                     {"n": 3, "p": 2, "boundary": "x1^2 - x2^2 + x1 x3",
                      "points": points})
    assert code == 0
    assert len(text.encode()) < 10_000
    radius = max(float(np.linalg.norm(pt)) for pt in points)
    assert_records(json.loads(text)["metadata"]["rule"],
                   solver.choose_rule(3, 2, 2, radius, 1e-10, aligned=True))


def test_dirichlet_four_dimensional_harmonic_boundary_reproduces(tmp_path):
    code, text = run(tmp_path, "dirichlet",
                     {"n": 4, "p": 1,
                      "boundary": "x1 x2 x3 + x1^3 - 3 * x1 x4^2",
                      "points": [[0.1, 0.2, -0.1, 0.05], [0.0, 0.0, 0.3, 0.0],
                                 [0.15, -0.15, 0.15, -0.15]]})
    assert code == 0
    obj = json.loads(text)
    rule = obj["metadata"]["rule"]
    assert (rule["type"], rule["kind"]) == ("pole-aligned", "gauss-product")
    # radius 0.3, tol 1e-10: truncation M = 24, so polar exactness
    # 3 + 24 + 4 = 31 (resolution 16); degree-3 data need an S^2 factor of
    # exactness 3 (resolution 2: 2 polar nodes x 4 angles)
    assert (rule["resolution"], rule["azimuth"]) == (16, 2)
    assert (rule["polar_exactness"], rule["exactness"]) == (31, 3)
    assert rule["count"] == 128  # 16 * 2 * 4, against 2 * 16^3 = 8192
    assert rule["nodes"] == 3 * 128  # three points, one sector each
    assert "seed" not in rule
    for row in obj["rows"]:
        d = dict(zip(obj["columns"], row))
        assert d["status"] == "ok"
        assert d["abs_error"] <= d["bound"]


@pytest.mark.parametrize("command,config", [
    # the rules that choose_rule sizes: for many dimensions, or for a point
    # near the sphere
    ("dirichlet", {"n": 8, "boundary": "x1", "points": [[0.1] + [0.0] * 7]}),
    ("dirichlet", {"n": 3, "boundary": "x1", "points": [[0.99, 0.0, 0.0]]}),
    ("hua-limit", {"n": 2, "u": "x1^2", "z": [0.4, 0.2],
                   "p_list": [1, 1048576]}),
    ("verify", {"n": 6, "suites": ["reproduction"]}),
    ("verify", {"n": 6, "suites": ["hua-reproduction"]}),
])
def test_rules_above_the_node_cap_are_config_errors(tmp_path, capsys,
                                                    command, config):
    # refused from the node count alone: no large array is ever built
    tracemalloc.start()
    try:
        code, text = run(tmp_path, command, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CONFIG
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "the node cap" in err
    assert err.count("\n") == 1
    assert peak < 1 << 24


@pytest.mark.parametrize("command,config", [
    ("dirichlet", {"n": 2, "p": 10 ** 6, "boundary": "x1",
                   "points": [[0.1, 0.2]]}),
    ("dirichlet", {"n": 3, "p": 10 ** 18, "boundary": "x1^2",
                   "points": [[0.1, 0.2, 0.0]]}),
    ("hua-limit", {"n": 2, "u": "x1^2", "z": [0.3, 0.1],
                   "p_list": [1, 10 ** 6]}),
    # 5000 sectors of the 26-node template fit the cap; turned to each of
    # 17 points they do not
    ("dirichlet", {"n": 3, "p": 5000, "boundary": "x1",
                   "points": [[0.1, 0.2, 0.0]] * 17}),
])
def test_sectors_above_the_node_cap_are_config_errors(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      config):
    # p sectors of the rule are refused from the counts alone, before any
    # array of sector phases exists
    def no_phases(*args):
        raise AssertionError("sector phases built")

    for module in (solver, cli):
        monkeypatch.setattr(module, "sector_phases", no_phases)
    code, text = run(tmp_path, command, config)
    assert (code, text) == (cli.EXIT_CONFIG, "")
    err = capsys.readouterr().err
    assert err.startswith("error: p=") and "the node cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command,config", [
    ("kernel", {"n": 20000, "pairs": [{"x": [0.1] + [0.0] * 19999,
                                       "zeta": [1.0] + [0.0] * 19999}]}),
    ("hua-limit", {"n": 20000, "u": "x1", "z": [0.1] + [0.0] * 19999}),
    *[("verify", {"n": 100000, "suites": [suite]})
      for suite in ("series-identity", "hua-convergence")],
    *[("verify", {"n": 2 ** 40, "suites": [suite]})
      for suite in ("route-agreement", "series-identity", "kernel-symmetry",
                    "hua-convergence")],
])
def test_lie_norms_and_sampled_vectors_are_counted_before_they_are_built(
        tmp_path, capsys, command, config):
    # a Lie norm's n^2 minors per point (n >= 1,449) and a suite's sampled
    # coordinates (points x n) are refused from their counts; these inputs
    # ended in MemoryError, exit 4
    tracemalloc.start()
    try:
        code, text = run(tmp_path, command, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, text) == (cli.EXIT_CONFIG, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "the node cap" in err
    assert err.count("\n") == 1
    assert peak < 1 << 24


@pytest.mark.parametrize("suite", ["series-identity", "hua-convergence"])
def test_lie_norm_suites_refuse_minors_past_the_cap_at_once(tmp_path, capsys,
                                                            suite):
    # at n = 10,000 the sampled points fit the node cap but the minors of
    # their Lie norms do not; these requests ran past 30 s, and then drew
    # 72 MB (series-identity) and 19 MB of points before the refusal
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, text = run(tmp_path, "verify", {"n": 10000, "suites": [suite]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 4 << 20
    assert (code, text) == (cli.EXIT_CONFIG, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n=10000: 100000000 Lie-norm minors exceed" in err


def test_kernel_symmetry_refuses_a_poisson_value_that_underflows(tmp_path,
                                                                 capsys):
    # at n = 3000 a same-sector Poisson value underflows to 0, so its phase
    # is not measurable: the sample is refused, with no division by zero
    # (once an internal error, exit 4) and no NaN row
    code, text = run(tmp_path, "verify",
                     {"n": 3000, "suites": ["kernel-symmetry"]})
    assert (code, text) == (cli.EXIT_CONFIG, "")
    err = capsys.readouterr().err
    assert err.startswith("error: suite kernel-symmetry: n=3000: ")
    assert err.count("\n") == 1
    code, _ = run(tmp_path, "verify",
                  {"n": 1000, "suites": ["kernel-symmetry"]})
    assert code == cli.EXIT_OK


@settings(max_examples=40, deadline=None)
@given(n=st.integers(geometry._MAX_NODES + 1, 2 ** 64),
       text=st.sampled_from(["x1", "3", "(0,2) x2^3 - x1"]))
def test_almansi_refuses_a_huge_n_before_any_exponent_tuple(n, text):
    # n exponents per term are counted against the node cap before any
    # tuple is built: n = 2^40 ran past 10 s.  The fastest of three runs
    # is timed, so that one pause of the collector does not count
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(cli.ConfigError, match="exponents of .* terms "
                           "exceed the node cap"):
            cli.run_command("almansi", {"n": n, "polynomial": text})
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.01


@pytest.mark.parametrize("command,config,line", [
    ("hua-limit", {"n": 1449, "u": "x1", "z": [0.1] + [0.0] * 1448},
     "z: n=1449: 2099601 Lie-norm minors exceed the node cap"),
    ("almansi", {"n": 2 ** 21 + 1, "polynomial": "x1"},
     "polynomial: n=2097153: 2097153 exponents of 1 terms exceed the node "
     "cap"),
    ("dirichlet", {"n": 2, "p": 10 ** 6, "boundary": "x1",
                   "points": [[0.1, 0.2]]},
     "p=1000000: 23000000 sector nodes exceed the node cap"),
    ("verify", {"n": 2 ** 40, "suites": ["route-agreement"]},
     "suite route-agreement: n=1099511627776: 219902325555200 sampled "
     "coordinates exceed the node cap"),
])
def test_node_cap_refusals_print_their_exact_error_line(tmp_path, capsys,
                                                        command, config,
                                                        line):
    # one refusal per site that words the cap as "{size}: {count} {what}
    # exceed the node cap": Lie-norm minors, polynomial exponents, sector
    # nodes and a suite's sampled coordinates
    assert run(tmp_path, command, config) == (cli.EXIT_CONFIG, "")
    assert capsys.readouterr().err == f"error: {line}\n"


# --------------------------------------------------------------------------
# verify command
# --------------------------------------------------------------------------

def test_verify_emits_one_row_per_property_and_passes(tmp_path):
    code, text = run(tmp_path, "verify",
                     {"n": 2, "p": 2,
                      "suites": ["diagonal-dim", "kernel-symmetry"]})
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) >= 5
    for row in json.loads(text)["rows"]:
        d = dict(zip(json.loads(text)["columns"], row))
        assert d["abs_error"] <= d["bound"]


def test_verify_tolerance_flag_forces_failure_exit(tmp_path):
    # the tolerance key, the one spelling of the tolerance
    code, _ = run(tmp_path, "verify",
                  {"n": 2, "suites": ["diagonal-dim"], "tolerance": 1e-30})
    assert code == cli.EXIT_TOLERANCE


def assert_monomial_cap_refusal(code, text, err):
    assert code == cli.EXIT_CONFIG
    assert text == ""
    assert err.startswith("error: ") and "monomials" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("suite", ["diagonal-dim", "almansi"])
def test_monomial_suites_refuse_sizes_past_the_cap(tmp_path, capsys, suite):
    # n=9 has 12,870 monomials of degree 8, past the cap of 8,192
    code, text = run(tmp_path, "verify", {"n": 9, "suites": [suite]})
    assert_monomial_cap_refusal(code, text, capsys.readouterr().err)


@pytest.mark.parametrize("suite", ["diagonal-dim", "almansi"])
def test_monomial_cap_is_checked_before_any_enumeration(tmp_path, capsys,
                                                        monkeypatch, suite):
    # n=400 has about 1.5e15 monomials of degree 8: enumerating none of
    # them shows the refusal comes from the count alone
    def enumerate_none(n, m):
        raise AssertionError(f"monomials of degree {m} enumerated")

    monkeypatch.setattr(polyalg, "_monomials", enumerate_none)
    code, text = run(tmp_path, "verify", {"n": 400, "suites": [suite]})
    assert_monomial_cap_refusal(code, text, capsys.readouterr().err)


# --------------------------------------------------------------------------
# hua-limit command
# --------------------------------------------------------------------------

def test_hua_limit_table_shape_and_trailing_row(tmp_path):
    code, text = run(tmp_path, "hua-limit",
                     {"n": 2, "u": "x1^2", "z": [0.4, 0.2],
                      "p_list": [1, 2, 4, 8]})
    assert code == 0
    obj = json.loads(text)
    rows = [dict(zip(obj["columns"], r)) for r in obj["rows"]]
    assert [row["p"] for row in rows] == [1, 2, 4, 8, "hua"]
    # each order row checks its quadrature against the exact u_p(z); the
    # convergence u_p(z) -> u(z) reads from the reference column against
    # the hua row's u(z)
    u_z = complex(rows[-1]["reference_re"], rows[-1]["reference_im"])
    gaps = [abs(complex(row["reference_re"], row["reference_im"]) - u_z)
            for row in rows[:-1]]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] == pytest.approx(0.4, abs=1e-9)
    assert all(row["abs_error"] <= row["bound"] for row in rows)
    record = obj["metadata"]["rule"]
    assert record["type"] == "sphere"
    assert_records(record, solver.choose_rule(
        2, 8, 2, lie_norm(np.array([0.4, 0.2])), 1e-7))


def test_hua_limit_constant_data_has_zero_errors(tmp_path):
    code, text = run(tmp_path, "hua-limit",
                     {"n": 2, "u": "1", "z": [[0.1, 0.2], [0.0, 0.1]],
                      "p_list": [1, 2]})
    assert code == 0
    for row in json.loads(text)["rows"]:
        d = dict(zip(json.loads(text)["columns"], row))
        # constant data has zero ladder discrepancy; only quadrature dust
        assert d["abs_error"] <= d["bound"]
        assert d["abs_error"] <= 1e-9


def test_hua_limit_unresolvable_z_is_config_error(tmp_path, capsys):
    # z too close to the Lie sphere for the series term cap
    code, text = run(tmp_path, "hua-limit",
                     {"n": 2, "u": "x1^2", "z": [0.9999, 0]})
    assert code == cli.EXIT_CONFIG
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: no quadrature rule for Lie norm")
    assert err.count("\n") == 1


def test_hua_limit_rejects_exterior_z_and_bad_p_list(tmp_path, capsys):
    code, _ = run(tmp_path, "hua-limit",
                  {"n": 2, "u": "x1", "z": [1.2, 0.0]})
    assert code == cli.EXIT_CONFIG
    code, _ = run(tmp_path, "hua-limit",
                  {"n": 2, "u": "x1", "z": [0.3, 0.0], "p_list": [2, 2]})
    assert code == cli.EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("n,u,z", [
    (2, "1/2 x1^2 + (0,1/4) x1 x2", [[0.3, 0.1], [-0.2, 0.25]]),
    (3, "1/2 x1 x3 - (0,1/4) x2^3", [[0.2, -0.1], 0.3, [0.0, 0.15]]),
])
def test_hua_limit_rows_equal_the_one_point_lie_ball_integrals(n, u, z):
    # each order row is one batched Lie-ball Poisson integral and the hua
    # row one Cauchy-Hua integral, so each equals its own 1 x 1 call bit
    # for bit
    table = cli.run_command("hua-limit", {"n": n, "u": u, "z": z})
    rule = quadrature.rule_from_json(table.metadata["rule"])
    q = polyalg.MultiPoly.from_text(u, n=n)
    zc = np.array([complex(*c) if isinstance(c, list) else c for c in z])
    # sum |c_alpha| <= 1 here, so the Lie rule is sized to tolerance / 100
    lie = solver.choose_lie_rule(n, q.degree(), lie_norm(zc), 1e-6 / 100)
    wants = [solver.lie_ball_poisson_integrals([q], p, zc[None], rule)[0, 0]
             for p in (1, 2, 4, 8)]
    wants.append(solver.hua_integrals([q], zc[None], lie)[0, 0])
    assert [row[0] for row in table.rows] == [1, 2, 4, 8, "hua"]
    for row, want in zip(table.rows, wants):
        cells = dict(zip(table.columns, row))
        assert cells["status"] == "ok"
        assert (cells["value_re"], cells["value_im"]) == (
            want.real + 0.0, want.imag + 0.0)


# --------------------------------------------------------------------------
# almansi and dims commands
# --------------------------------------------------------------------------

def test_almansi_exposes_components_with_zero_residuals(tmp_path):
    code, text = run(tmp_path, "almansi", {"n": 2, "p": 2,
                                           "polynomial": "x1^4"})
    assert code == 0
    obj = json.loads(text)
    comps = [dict(zip(obj["columns"], r)) for r in obj["rows"]]
    assert comps[-1]["component"] == "reassembly"
    assert all(c["abs_error"] == 0.0 for c in comps)
    assert comps[1]["polynomial"] == "3/8"


# (n, p, polynomial) -> (polynomial, value_re, abs_error) of each row, the
# reassembly row last; recorded when coefficients were still Fraction pairs,
# so a change of the exact representation cannot drift the tables unseen
ALMANSI_GOLDEN = [
    ((3, 1, "x1^2 x2 - 3/4 x3^3 + 2 x1 x2 x3"), [
        ("-3/10 * x3^3 + -1/5 * x2^1 x3^2 + 9/20 * x2^2 x3^1 + -1/5 * x2^3 + "
         "2 * x1^1 x2^1 x3^1 + 9/20 * x1^2 x3^1 + 4/5 * x1^2 x2^1",
         2.0, 0.0),
        ("-9/20 * x3^1 + 1/5 * x2^1",
         0.45, 0.0),
        ("-3/4 * x3^3 + 2 * x1^1 x2^1 x3^1 + 1 * x1^2 x2^1",
         2.0, 0.0),
    ]),
    ((4, 2, "x1^4 - 2/3 x2^2 x3 x4 + 5 x4^4"), [
        ("17/4 * x4^4 + -3/2 * x3^2 x4^2 + -3/4 * x3^4 + -3/2 * x2^2 x4^2 + "
         "-2/3 * x2^2 x3^1 x4^1 + -3/2 * x2^2 x3^2 + -3/4 * x2^4 + "
         "-3/2 * x1^2 x4^2 + -3/2 * x1^2 x3^2 + -3/2 * x1^2 x2^2 + 1/4 * x1^4",
         4.25, 0.0),
        ("3/4",
         0.75, 0.0),
        ("5 * x4^4 + -2/3 * x2^2 x3^1 x4^1 + 1 * x1^4",
         5.0, 0.0),
    ]),
    ((5, 3, "x1^6 + 1/7 x2^3 x5^3 - x3^2 x4^4 + 0.25 x1 x2 x3 x4 x5^2"), [
        ("-4/105 * x5^6 + -4/35 * x4^2 x5^4 + -4/35 * x4^4 x5^2 + "
         "-4/105 * x4^6 + -4/35 * x3^2 x5^4 + -8/35 * x3^2 x4^2 x5^2 + "
         "-39/35 * x3^2 x4^4 + -4/35 * x3^4 x5^2 + -4/35 * x3^4 x4^2 + "
         "-4/105 * x3^6 + -4/35 * x2^2 x5^4 + -8/35 * x2^2 x4^2 x5^2 + "
         "-4/35 * x2^2 x4^4 + -8/35 * x2^2 x3^2 x5^2 + "
         "-8/35 * x2^2 x3^2 x4^2 + -4/35 * x2^2 x3^4 + 1/7 * x2^3 x5^3 + "
         "-4/35 * x2^4 x5^2 + -4/35 * x2^4 x4^2 + -4/35 * x2^4 x3^2 + "
         "-4/105 * x2^6 + 1/4 * x1^1 x2^1 x3^1 x4^1 x5^2 + "
         "-4/35 * x1^2 x5^4 + -8/35 * x1^2 x4^2 x5^2 + -4/35 * x1^2 x4^4 + "
         "-8/35 * x1^2 x3^2 x5^2 + -8/35 * x1^2 x3^2 x4^2 + "
         "-4/35 * x1^2 x3^4 + -8/35 * x1^2 x2^2 x5^2 + "
         "-8/35 * x1^2 x2^2 x4^2 + -8/35 * x1^2 x2^2 x3^2 + "
         "-4/35 * x1^2 x2^4 + -4/35 * x1^4 x5^2 + -4/35 * x1^4 x4^2 + "
         "-4/35 * x1^4 x3^2 + -4/35 * x1^4 x2^2 + 101/105 * x1^6",
         1.1142857142857143, 0.0),
        ("4/105",
         0.0380952380952381, 0.0),
        ("-1 * x3^2 x4^4 + 1/7 * x2^3 x5^3 + 1/4 * x1^1 x2^1 x3^1 x4^1 x5^2 + "
         "1 * x1^6",
         1.0, 0.0),
    ]),
    ((3, 2, "(1,-2) * x1^3 x2 + (0,1/3) * x3^4 - 5/6 x1 x2^2 x3"), [
        ("(0,4/15) * x3^4 + (0,-2/15) * x2^2 x3^2 + (0,-1/15) * x2^4 + "
         "-5/6 * x1^1 x2^2 x3^1 + (0,-2/15) * x1^2 x3^2 + "
         "(0,-2/15) * x1^2 x2^2 + (1,-2) * x1^3 x2^1 + (0,-1/15) * x1^4",
         2.23606797749979, 0.0),
        ("(0,1/15)",
         0.06666666666666667, 0.0),
        ("(0,1/3) * x3^4 + -5/6 * x1^1 x2^2 x3^1 + (1,-2) * x1^3 x2^1",
         2.23606797749979, 0.0),
    ]),
    ((4, 3, "(3/2,1/5) * x1^2 x4^5 + x2 x3^2 x4^4 - 7 x1^7"), [
        ("(-3/64,-1/160) * x4^7 + (-9/64,-3/160) * x3^2 x4^5 + "
         "(-9/64,-3/160) * x3^4 x4^3 + (-3/64,-1/160) * x3^6 x4^1 + "
         "-1/160 * x2^1 x4^6 + 157/160 * x2^1 x3^2 x4^4 + "
         "-3/160 * x2^1 x3^4 x4^2 + -1/160 * x2^1 x3^6 + "
         "(-9/64,-3/160) * x2^2 x4^5 + (-9/32,-3/80) * x2^2 x3^2 x4^3 + "
         "(-9/64,-3/160) * x2^2 x3^4 x4^1 + -3/160 * x2^3 x4^4 + "
         "-3/80 * x2^3 x3^2 x4^2 + -3/160 * x2^3 x3^4 + "
         "(-9/64,-3/160) * x2^4 x4^3 + (-9/64,-3/160) * x2^4 x3^2 x4^1 + "
         "-3/160 * x2^5 x4^2 + -3/160 * x2^5 x3^2 + "
         "(-3/64,-1/160) * x2^6 x4^1 + -1/160 * x2^7 + 49/32 * x1^1 x4^6 + "
         "147/32 * x1^1 x3^2 x4^4 + 147/32 * x1^1 x3^4 x4^2 + "
         "49/32 * x1^1 x3^6 + 147/32 * x1^1 x2^2 x4^4 + "
         "147/16 * x1^1 x2^2 x3^2 x4^2 + 147/32 * x1^1 x2^2 x3^4 + "
         "147/32 * x1^1 x2^4 x4^2 + 147/32 * x1^1 x2^4 x3^2 + "
         "49/32 * x1^1 x2^6 + (87/64,29/160) * x1^2 x4^5 + "
         "(-9/32,-3/80) * x1^2 x3^2 x4^3 + (-9/64,-3/160) * x1^2 x3^4 x4^1 + "
         "-3/160 * x1^2 x2^1 x4^4 + -3/80 * x1^2 x2^1 x3^2 x4^2 + "
         "-3/160 * x1^2 x2^1 x3^4 + (-9/32,-3/80) * x1^2 x2^2 x4^3 + "
         "(-9/32,-3/80) * x1^2 x2^2 x3^2 x4^1 + -3/80 * x1^2 x2^3 x4^2 + "
         "-3/80 * x1^2 x2^3 x3^2 + (-9/64,-3/160) * x1^2 x2^4 x4^1 + "
         "-3/160 * x1^2 x2^5 + 147/32 * x1^3 x4^4 + 147/16 * x1^3 x3^2 x4^2 + "
         "147/32 * x1^3 x3^4 + 147/16 * x1^3 x2^2 x4^2 + "
         "147/16 * x1^3 x2^2 x3^2 + 147/32 * x1^3 x2^4 + "
         "(-9/64,-3/160) * x1^4 x4^3 + (-9/64,-3/160) * x1^4 x3^2 x4^1 + "
         "-3/160 * x1^4 x2^1 x4^2 + -3/160 * x1^4 x2^1 x3^2 + "
         "(-9/64,-3/160) * x1^4 x2^2 x4^1 + -3/160 * x1^4 x2^3 + "
         "147/32 * x1^5 x4^2 + 147/32 * x1^5 x3^2 + 147/32 * x1^5 x2^2 + "
         "(-3/64,-1/160) * x1^6 x4^1 + -1/160 * x1^6 x2^1 + -175/32 * x1^7",
         9.1875, 0.0),
        ("(3/64,1/160) * x4^1 + 1/160 * x2^1 + -49/32 * x1^1",
         1.53125, 0.0),
        ("1 * x2^1 x3^2 x4^4 + (3/2,1/5) * x1^2 x4^5 + -7 * x1^7",
         7.0, 0.0),
    ]),
]


@pytest.mark.parametrize("request_, want", ALMANSI_GOLDEN)
def test_almansi_tables_match_their_recorded_columns(tmp_path, request_,
                                                     want):
    n, p, text = request_
    code, table = run(tmp_path, "almansi",
                      {"n": n, "p": p, "polynomial": text})
    assert code == 0
    assert [(r["polynomial"], r["value_re"], r["abs_error"])
            for r in rows_by(table)] == want


@pytest.mark.parametrize("command,config", [
    ("almansi", {"n": 3, "polynomial": "1/0 * x1^2"}),
    ("almansi", {"n": 3, "polynomial": "(1,1/0) * x1"}),
    ("almansi", {"n": 3, "polynomial": "x1^2 + 3/0"}),
    ("dirichlet", {"n": 2, "boundary": "x1 + 2/0 * x2",
                   "points": [[0.3, 0.1]]}),
    ("hua-limit", {"n": 2, "u": "-5/0 * x1^2", "z": [0.4, 0.2]}),
])
def test_zero_denominators_are_config_errors(tmp_path, capsys, command,
                                             config):
    code, text = run(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert text == ""
    assert err.startswith("error: ") and "zero denominator" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command,config", [
    ("almansi", {"n": 2, "polynomial": "1e400 * x1"}),
    ("almansi", {"n": 2, "polynomial": "1e5000 * x1"}),
    ("dirichlet", {"n": 2, "boundary": "1e5000 * x1",
                   "points": [[0.3, 0.1]]}),
    ("hua-limit", {"n": 2, "u": "1e400 * x1", "z": [0.4, 0.2]}),
    # in range, but a harmonic component of x1^12 is not
    ("almansi", {"n": 2, "polynomial": "1e308 * x1^12"}),
])
def test_coefficients_past_the_double_range_are_config_errors(
        tmp_path, capsys, command, config):
    code, text = run(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert text == ""
    assert err.startswith("error: ") and "past the double range" in err
    assert err.count("\n") == 1


def test_coefficients_past_the_text_digit_limit_are_named(tmp_path, capsys):
    # 1e-5000 is a Fraction with a 5,001-digit denominator, which Python
    # will not print; the error line names the coefficient, not the
    # interpreter setting
    code, text = run(tmp_path, "almansi",
                     {"n": 2, "polynomial": "1e-5000 * x1"})
    err = capsys.readouterr().err
    assert (code, text) == (cli.EXIT_CONFIG, "")
    assert err == ("error: polynomial: the coefficient of x1^1, about "
                   "1e-5000, has more than 4300 digits\n")


@pytest.mark.parametrize("command,key,extra", [
    ("almansi", "polynomial", {}),
    ("dirichlet", "boundary", {"points": [[0.3, 0.1]]}),
    ("hua-limit", "u", {"z": [0.4, 0.2]}),
])
@pytest.mark.parametrize("number", ["1e-10000000", "1e10000000", "1e-8601"])
def test_decimal_exponents_past_the_cap_are_refused_before_the_power(
        tmp_path, capsys, command, key, extra, number):
    # 10 ** 10,000,000 alone takes seconds to build and reduce; the reader
    # refuses the exponent before it, in well under 10 ms
    config = {"n": 2, key: f"{number} * x1", **extra}
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        code, text = run(tmp_path, command, config)
        elapsed.append(time.perf_counter() - start)
        err = capsys.readouterr().err
        assert (code, text) == (cli.EXIT_CONFIG, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"the exponent of '{number}' is outside [-8600, 8600]" in err
    assert min(elapsed) < 0.01


def test_almansi_refuses_polynomials_past_the_monomial_cap(tmp_path, capsys,
                                                          monkeypatch):
    # n=5 has 10,626 monomials of degree 20, past the cap of 8,192; the
    # refusal comes before any ladder is built
    def no_ladder(q, p):
        raise AssertionError("Almansi ladder built")

    monkeypatch.setattr(polyalg, "_almansi", no_ladder)
    code, text = run(tmp_path, "almansi", {"n": 5, "polynomial": "x1^20"})
    assert_monomial_cap_refusal(code, text, capsys.readouterr().err)


@pytest.mark.parametrize("command,config", [
    ("almansi", {"n": 2, "polynomial": "x1^2000"}),
    ("dirichlet", {"n": 2, "boundary": "x1^2000", "points": [[0.3, 0.1]]}),
    ("hua-limit", {"n": 2, "u": "x1^2000", "z": [0.3, 0.1]}),
])
def test_ladders_past_the_step_cap_are_refused_before_any_is_built(
        monkeypatch, command, config):
    # the ladder of x1^2000 took more than 120 s; its steps are counted
    # from n and the degree alone
    def no_ladder(q, p):
        raise AssertionError("Almansi ladder built")

    monkeypatch.setattr(polyalg, "_blocks", no_ladder)
    elapsed = []  # the fastest of three, so one collector pause is not timed
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(cli.ConfigError, match="Almansi ladders of "
                           "degree 2000 take more than the cap"):
            cli.run_command(command, config)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.01


def _ladder_steps(n: int, m: int) -> int:
    # component d = m - 2k: floor(d/2) + 1 Horner terms of dim P_d
    # monomials, each shifted n ways
    return sum(n * (d // 2 + 1) * math.comb(n + d - 1, n - 1)
               for d in range(m, -1, -2))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_the_step_cap_refuses_its_first_degree(n):
    m = next(m for m in range(200)
             if _ladder_steps(n, m) > polyalg._MAX_LADDER_STEPS)
    def x1(power):
        return polyalg.MultiPoly.monomial(n, (power,) + (0,) * (n - 1))

    polyalg._require_ladder(x1(m - 1))
    with pytest.raises(ValueError, match=f"degree {m} take more"):
        polyalg._require_ladder(x1(m))


def test_polyharmonic_data_never_reach_the_step_cap(monkeypatch):
    # (x1 + i x2)^160 is harmonic: its own integral, found with no ladder,
    # although a ladder of degree 160 is past the cap
    monkeypatch.setattr(polyalg, "_blocks", None)
    m = 160
    assert _ladder_steps(2, m) > polyalg._MAX_LADDER_STEPS
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # i^j
    text = " + ".join(f"({re * math.comb(m, j)},{im * math.comb(m, j)}) "
                      f"* x1^{m - j} x2^{j}"
                      for j, (re, im) in ((j, unit[j % 4])
                                          for j in range(m + 1)))
    q = polyalg.MultiPoly.from_text(text, 2)
    assert polyalg.poisson_polynomial(q, 1) is q
    table = cli.run_command("dirichlet", {"n": 2, "boundary": text,
                                          "points": [[0.5, 0.2]]})
    assert [row[table.status_index] for row in table.rows] == ["ok"]
    # the same degree, not harmonic, is refused, again with no ladder
    with pytest.raises(ValueError, match="Almansi ladders of degree 160 "
                       "take more than the cap"):
        polyalg.poisson_polynomial(
            q + polyalg.MultiPoly.monomial(2, (m, 0)), 1)


@pytest.mark.parametrize("bits", [1024, 5000])
def test_the_step_cap_weighs_each_step_by_the_numerator_bits(bits):
    # data of b bits weigh 1 + b // 1024 per shift-add, so the cap refuses
    # them at the first degree whose weighted steps pass it
    weight = 1 + bits // polyalg._STEP_BITS
    m = next(m for m in range(200)
             if weight * _ladder_steps(2, m) > polyalg._MAX_LADDER_STEPS)

    def x1(power):
        return polyalg.MultiPoly.monomial(2, (power, 0), 2 ** (bits - 1))

    polyalg._require_ladder(x1(m - 1))
    with pytest.raises(ValueError, match=f"degree {m} on {bits}-bit "
                       "numerators take more"):
        polyalg._require_ladder(x1(m))


def test_hundred_digit_ratios_are_refused_before_any_ladder(monkeypatch):
    # dense degree-144 data with 100-digit numerators and denominators have
    # a 14,000-digit common denominator; their ladder ran 17 s before the
    # components were refused as past the int-to-text limit
    def no_ladder(q, p):
        raise AssertionError("Almansi ladder built")

    monkeypatch.setattr(polyalg, "_blocks", no_ladder)
    rng = np.random.default_rng(144)

    def digits():
        return "".join(map(str, rng.integers(1, 10, size=100)))

    text = " + ".join(f"{digits()}/{digits()} * x1^{144 - j} x2^{j}"
                      for j in range(145))
    start = time.perf_counter()
    with pytest.raises(cli.ConfigError, match="Almansi ladders of degree "
                       "144 on [0-9]+-bit numerators take more than the cap"):
        cli.run_command("almansi", {"n": 2, "polynomial": text})
    assert time.perf_counter() - start < 0.5


def test_warm_exact_requests_construct_no_fraction():
    """Warm almansi, dirichlet, verify almansi and verify gegenbauer
    requests build no Fraction: exact values are integer numerators from
    the text to the table.  Each shape runs once first, which builds the
    lru-cached tables that hold Fractions and are excluded here: the zonal
    coefficients ``kernels._zonal_p_coeffs``, built from
    gegenbauer_coefficients, and ``kernels._explicit_p_coeffs``."""
    def requests(seed):
        rng = np.random.default_rng(seed)

        def number():
            return f"{rng.integers(-9, 10)}/{rng.integers(1, 10)}"

        text = (f"({number()},{number()}) * x1^5 + {number()} * x1^2 x2^3 "
                f"+ 0.25 x3^5 + -1e-2 x1 x2 x3^3")
        mixed = text + " + (1.5,2) x2^2"
        return [
            ("almansi", {"n": 3, "p": 2, "polynomial": text}),
            ("almansi", {"n": 3, "p": 3, "polynomial": text}),
            ("dirichlet", {"n": 3, "p": 2, "boundary": mixed,
                           "points": [[0.3, -0.1, 0.2], [0.1, 0.4, 0.0]],
                           "sectors": [0, 1]}),
            ("verify", {"n": 2, "p": 2, "seed": seed, "suites": ["almansi"]}),
            ("verify", {"n": 2, "p": 1, "seed": seed,
                        "suites": ["gegenbauer"]}),
        ]

    for command, config in requests(0):
        cli.run_command(command, config).render("json")
    built = vars(Fraction)["__new__"]
    count = 0

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return built.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        assert Fraction(1, 3) and count == 1  # the count sees constructions
        count = 0
        for command, config in requests(1):
            cli.run_command(command, config).render("json")
    finally:
        Fraction.__new__ = built
    assert count == 0


@pytest.mark.parametrize("p,powers", [(1, 1), (1600, 0)])
def test_almansi_builds_radial_powers_only_for_a_second_component(
        monkeypatch, p, powers):
    # past deg / 2 the decomposition has one component, so |x|^{2p} is not
    # built, and Delta^p stops at its first zero; at p = 1600 both took
    # seconds
    counts = {"__pow__": 0, "laplacian": 0}
    for name in counts:
        def counted(self, *args, _name=name, _fn=getattr(polyalg.MultiPoly,
                                                         name)):
            counts[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(polyalg.MultiPoly, name, counted)
    polyalg._radial_power.cache_clear()  # so |x|^{2p} is counted if built
    table = cli.run_command("almansi", {"n": 2, "p": p,
                                        "polynomial": "x1^2 + 3 * x1 x2"})
    assert [row[-2] for row in table.rows] == [0.0] * len(table.rows)
    assert counts["__pow__"] == powers
    assert counts["laplacian"] <= 6


def test_dims_tabulates_dimension_formulas(tmp_path):
    code, text = run(tmp_path, "dims", {"n": 3, "p": 2,
                                        "degrees": [4, 5]})
    assert code == 0
    rows = [dict(zip(json.loads(text)["columns"], r))
            for r in json.loads(text)["rows"]]
    assert rows[0]["dim_P"] == 15 and rows[0]["value_re"] == 14.0
    assert rows[1]["dim_P"] == 21 and rows[1]["value_re"] == 18.0


# --------------------------------------------------------------------------
# emitters and metadata
# --------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [
    [],
    [[0, "a],\n  [b", 1.5], ["\"q\" \\ é ☃ \u2028", "],", -2]],
    [[None, -0.0, 0.0], [1e300, 5e-324, 7]],
])
def test_json_render_equals_the_indented_encoder(rows):
    # the rows go through the C encoder and are indented after; the bytes
    # are those of the pure-Python encoder with indent=2
    table = cli.ResultTable("dims", ("status", "a", "b"),
                            {"z": [1, {"y": None}], "a": "é\n"})
    for row in rows:
        table.add(row)
    obj = {"metadata": table.metadata, "columns": list(table.columns),
           "rows": table.rows}
    assert table.render("json") == json.dumps(obj, indent=2,
                                              sort_keys=True) + "\n"


_ODD_TEXTS = ["", "\x00", '"q"', "],", "],\n      [", "a\nb", "\\",
              "é ☃ \u2028"]
_TABLE_CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0.0, -0.0, 1, 1.0, True, 0.5, -2.5, 5e-324, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_ODD_TEXTS), st.text(max_size=4))
_VALUES = st.sampled_from([0.0, 1.0, -0.5, 0.1, 1e-300, 7e22])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.integers(0, 600),
       pools=st.lists(st.lists(_TABLE_CELLS, min_size=1, max_size=3),
                      min_size=1, max_size=4),
       values=st.lists(_VALUES, min_size=1, max_size=4),
       nested=st.booleans(), bad=st.sampled_from([None, math.nan, math.inf]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(rows=600, pools=[[0.0, -0.0], [1, 1.0, True], [None, "],\n"]],
         values=[0.0, 0.5], nested=False, bad=None, seed=1)
@example(rows=600, pools=[[0.0, 2.0], [None, 1.5], ["x\x00"]],
         values=[0.0, 0.5, 1.0], nested=False, bad=None, seed=2)
@example(rows=600, pools=[[0.0, 2.0]], values=[0.5], nested=False,
         bad=math.inf, seed=3)
@example(rows=600, pools=[["é"]], values=[0.5, 0.0], nested=True, bad=None,
         seed=4)
def test_json_render_equals_the_indented_encoder_on_generated_tables(
        rows, pools, values, nested, bad, seed):
    # tables of many repeated floats format each distinct one once; the
    # bytes stay those of the indented encoder whatever the cells: signed
    # zeros, 1, 1.0 and True in one column, nulls, text that looks like
    # JSON, a list cell.  A non-finite cell still raises ValueError
    rng = np.random.default_rng(seed)

    def pick(pool):
        return pool[rng.integers(len(pool))]

    table = cli.ResultTable("dims", [f"c{i}" for i in range(len(pools))]
                            + ["status"], {"z": [1.5, None]})
    for _ in range(rows):
        value = complex(pick(values), pick(values))
        table.add([pick(pool) for pool in pools] + ["ok"], value=value,
                  reference=pick([value, None]), error=pick(values),
                  bound=pick([None, *values]))
    if rows and nested:
        table.cells[0][rng.integers(rows)] = [1, [2.5, "a"], {"b": None}]
    if rows and bad is not None:
        at = rng.integers(rows)
        table.cells[rng.integers(len(table.columns))][at] = bad
        with pytest.raises(ValueError):
            table.render("json")
        return
    obj = {"metadata": table.metadata, "columns": list(table.columns),
           "rows": table.rows}
    assert_same_text(table.render("json"),
                     json.dumps(obj, indent=2, sort_keys=True) + "\n")


def assert_same_text(got: str, want: str):
    """got == want, reported by the first difference: pytest's own diff of
    two long texts takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"at {at}: {got[at - 60:at + 60]!r} != "
                    f"{want[at - 60:at + 60]!r}")


def test_kernel_tables_format_each_distinct_float_once(monkeypatch):
    # a kernel table repeats most of its floats, so its rows take the
    # lookup of distinct floats, not one encoder call on the whole rows,
    # and keep the indented encoder's bytes
    pairs = [{"x": [0.1 * k, 0.2], "zeta": [0.6, 0.8]} for k in range(8)]
    table = cli.run_command("kernel", {"n": 2, "p": 2, "pairs": pairs})
    obj = {"metadata": table.metadata, "columns": list(table.columns),
           "rows": table.rows}
    want = json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def whole_rows(rows):
        raise AssertionError("the rows were encoded whole")

    monkeypatch.setattr(cli, "_cell_lines", whole_rows)
    assert_same_text(table.render("json"), want)


def test_kernel_tables_are_written_and_rendered_as_columns(monkeypatch):
    # a 16-pair, 9-degree request writes its 432 zonal rows as column
    # blocks, with no per-row call (at most two add calls a pair, for its
    # poisson and hua rows), and its JSON render never reads the rows back
    calls = []
    add = cli.ResultTable.add

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add(self, *args, **kwargs)

    def no_rows(self):
        raise AssertionError("the columns were rebuilt from the rows")

    rng = np.random.default_rng(32)
    pairs = [{"x": (0.05 * k * v / np.linalg.norm(v)).tolist(),
              "zeta": (w / np.linalg.norm(w)).tolist(), "x_sector": k % 2}
             for k, (v, w) in enumerate(rng.standard_normal((16, 2, 4)))]
    config = {"n": 4, "p": 2, "pairs": pairs, "degrees": list(range(9)),
              "kernels": ["zonal", "poisson", "hua"]}
    want = cli.run_command("kernel", config)
    want = (want.render("json"), want.render("csv"), want.exit_code())
    monkeypatch.setattr(cli.ResultTable, "add", counted)
    monkeypatch.setattr(cli.ResultTable, "rows", property(no_rows))
    table = cli.run_command("kernel", config)
    assert len(calls) <= 2 * len(pairs)
    assert [len(column) for column in table.cells] == \
        [16 * (9 * 3 + 2)] * len(table.columns)
    assert (table.render("json"), table.render("csv"),
            table.exit_code()) == want


def _row_scan_exit_code(table) -> int:
    """The exit code as it was read row by row before the columns."""
    code = cli.EXIT_OK
    for row in table.rows:
        status = row[table.status_index]
        if status == "rejected":
            return cli.EXIT_CONFIG
        if status == "singular":
            code = max(code, cli.EXIT_SINGULAR)
        elif (row[-2] is not None and row[-1] is not None
                and not row[-2] <= row[-1]):
            code = max(code, cli.EXIT_TOLERANCE)
    return code


_BOUNDS = st.sampled_from([0.0, 5e-324, 1e-10, 0.5, 1.0, 1e300])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(
    st.sampled_from(["ok", "ok", "singular", "rejected"]),
    st.one_of(st.none(), _BOUNDS), st.one_of(st.none(), _BOUNDS),
    st.sampled_from([0.5, 1.0, 2.0])), max_size=12))
def test_exit_code_reads_the_columns_as_the_row_scan_did(rows):
    # statuses ok, singular and rejected; None and float error and bound
    # cells; errors above, equal to and below their bound.  rejected
    # outranks both others, and singular (3) outranks a tolerance failure
    # (1), the larger code, as the row scan took it
    table = cli.ResultTable("dims", ("status",), {})
    for status, error, bound, ratio in rows:
        if error is not None and bound is not None:
            error = bound * ratio
        table.add((status,), value=1.0, error=error, bound=bound)
    assert table.exit_code() == _row_scan_exit_code(table)
    statuses = {status for status, *_ in rows}
    if "rejected" in statuses:
        assert table.exit_code() == cli.EXIT_CONFIG
    elif "singular" in statuses:
        assert table.exit_code() == cli.EXIT_SINGULAR


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
def test_no_render_holds_a_non_finite_cell(fmt, cell):
    # NaN and Infinity are not JSON; a row that carries one is a gap in
    # its command's statuses, which main reports as an internal error
    table = cli.ResultTable("dims", ("status", "a"), {})
    table.add(["ok", 1.0])
    table.add(["ok", cell])
    with pytest.raises(ValueError):
        table.render(fmt)


def test_csv_and_json_payloads_are_identical(tmp_path):
    config = {"n": 2, "p": 2, "pairs": [{"x": [0.4, 0.1], "zeta": [0.8, 0.6]}],
              "kernels": ["zonal", "poisson"], "degrees": [0, 3]}
    _, json_text = run(tmp_path, "kernel", config)
    _, csv_text = run(tmp_path, "kernel", config, "--format=csv")
    obj = json.loads(json_text)
    lines = csv_text.splitlines()
    assert json.loads(lines[0][2:]) == obj["metadata"]
    reader = list(csv.reader(lines[1:]))
    assert reader[0] == obj["columns"]
    for csv_row, json_row in zip(reader[1:], obj["rows"]):
        for cell, want in zip(csv_row, json_row):
            if want is None:
                assert cell == ""
            elif isinstance(want, float):
                assert float(cell) == want  # 17 digits round-trip exactly
            else:
                assert cell == str(want)


def test_csv_floats_use_17_significant_digits(tmp_path):
    _, csv_text = run(tmp_path, "dirichlet",
                      {"n": 2, "boundary": "x1", "points": [[0.3, 0.4]]},
                      "--format=csv")
    data_line = csv_text.splitlines()[2]
    assert "0.29999999999999999" in data_line  # repr-exact 0.3 cell


def test_reruns_are_byte_identical(tmp_path):
    config = {"n": 2, "p": 2, "boundary": "x1^2", "points": [[0.3, 0.1]]}
    _, first = run(tmp_path, "dirichlet", config)
    _, second = run(tmp_path, "dirichlet", config)
    assert first == second


def test_metadata_records_effective_config_and_hash(tmp_path):
    code, text = run(tmp_path, "verify", {"n": 2, "suites": ["almansi"],
                                          "seed": 9, "tolerance": 1e-8})
    assert code == 0
    meta = json.loads(text)["metadata"]
    assert meta["command"] == "verify"
    assert meta["config"]["seed"] == 9
    assert meta["config"]["tolerance"] == 1e-8
    assert len(meta["config_sha256"]) == 64
    assert set(meta["versions"]) == {"polyball", "numpy", "python"}


def test_flag_overrides_feed_back_into_the_run(tmp_path):
    # rerunning from the emitted effective config reproduces the table
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "pairs": [{"x": [0.5, 0], "zeta": [1, 0]}],
                      "tolerance": 1e-9})
    assert code == 0
    effective = json.loads(text)["metadata"]["config"]
    code2, text2 = run(tmp_path, "kernel", effective)
    assert code2 == 0
    assert text2 == text


def test_unwritable_out_path_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "degrees": [0, 1]}))
    out = tmp_path / "missing" / "x.csv"
    code = cli.main(["dims", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_stdout_emission_when_no_out_path(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "p": 1, "degrees": [0, 1]}))
    code = cli.main(["dims", "--config", str(cfg)])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["metadata"]["command"] == "dims"


def test_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    # a valid call, a usage error, a valid call: one parser tree (the root
    # and one parser per command) serves all three, and the usage error
    # leaves nothing behind in it
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 3, "p": 2, "degrees": [0, 4, 7]}))
    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    assert cli.main(["dims", "--config", str(cfg), "--out", str(first),
                     "--format", "csv"]) == 0
    with pytest.raises(SystemExit) as usage:
        cli.main(["dims", "--config", str(cfg), "--format", "xml"])
    assert usage.value.code == 2
    assert cli.main(["dims", "--config", str(cfg), "--out", str(last),
                     "--format", "csv"]) == 0
    assert len(made) == 1 + len(cli._RUNNERS)
    assert last.read_bytes() == first.read_bytes()


def test_an_unexpected_exception_is_one_error_line_and_exit_four(
        tmp_path, capsys, monkeypatch):
    # an exception no validation anticipated is neither a traceback nor
    # exit 1, which means a measured error exceeded its bound
    def broken(cfg):
        raise RuntimeError("runner broke\non two lines")

    monkeypatch.setitem(cli._RUNNERS, "dims", broken)
    code, text = run(tmp_path, "dims", {"n": 2, "degrees": [0, 1]})
    assert (code, text) == (cli.EXIT_INTERNAL, "")
    assert capsys.readouterr().err == (
        "error: internal error: RuntimeError: runner broke on two lines\n")
