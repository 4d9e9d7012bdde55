"""Command-line interface: config validation, tables, exit codes.

All invocations go through cli.main() with a config written to tmp_path, so
exit codes are the function's return values.  CSV cells print floats with 17
significant digits and must parse back to the exact doubles of the JSON
emitter; reruns must be byte-identical.
"""

from __future__ import annotations

import csv
import json

import pytest

from polyball import cli

VALUE_COLS = ["value_re", "value_im", "reference_re", "reference_im",
              "abs_error", "bound"]


def run(tmp_path, command, config, *flags):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "table.json"
    fmt = "csv" if "--format=csv" in flags else "json"
    argv = [command, "--config", str(cfg), "--out", str(out),
            "--format", fmt]
    argv += [f for f in flags if not f.startswith("--format")]
    code = cli.main(argv)
    return code, out.read_text() if out.exists() else ""


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
    code, _ = run(tmp_path, "kernel",
                  {"n": 2, "x": [0.5, 0], "zeta": [1, 0], "extra": 1})
    assert code == cli.EXIT_CONFIG
    assert "extra" in capsys.readouterr().err


def test_n_is_required_and_validated(tmp_path):
    code, _ = run(tmp_path, "dims", {"degrees": [1]})
    assert code == cli.EXIT_CONFIG
    code, _ = run(tmp_path, "dims", {"n": 1})
    assert code == cli.EXIT_CONFIG


def test_resolution_floor(tmp_path):
    code, _ = run(tmp_path, "dirichlet",
                  {"n": 2, "boundary": "x1", "points": [[0.1, 0.1]],
                   "resolution": 3})
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


# --------------------------------------------------------------------------
# kernel command
# --------------------------------------------------------------------------

def test_kernel_poisson_spot_value_three(tmp_path):
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "p": 1, "x": [0.5, 0], "zeta": [1, 0]})
    assert code == 0
    [row] = rows_by(text, kernel="poisson")
    assert row["value_re"] == pytest.approx(3.0, rel=1e-12)
    assert row["value_im"] == 0.0
    assert row["abs_error"] <= row["bound"]


def test_kernel_at_origin_gives_unit_values(tmp_path):
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "p": 2, "x": [0, 0], "zeta": [0.6, 0.8],
                      "degrees": [0], "kernels": ["zonal", "poisson", "hua"]})
    assert code == 0
    for row in json.loads(text)["rows"]:
        d = dict(zip(json.loads(text)["columns"], row))
        assert d["value_re"] == pytest.approx(1.0, abs=1e-14)
        assert d["value_im"] == pytest.approx(0.0, abs=1e-14)


def test_kernel_route_gaps_within_tolerance_on_stock_config(tmp_path):
    code, text = run(tmp_path, "kernel",
                     {"n": 3, "p": 2, "x": [0.3, -0.2, 0.4],
                      "zeta": [0.6, 0.48, 0.64], "x_sector": 1,
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


def test_kernel_sector_index_range_is_validated(tmp_path):
    code, _ = run(tmp_path, "kernel",
                  {"n": 2, "p": 2, "x": [0.5, 0], "zeta": [1, 0],
                   "x_sector": 2})
    assert code == cli.EXIT_CONFIG


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


def test_dirichlet_explicit_resolution_is_used(tmp_path):
    code, text = run(tmp_path, "dirichlet",
                     {"n": 2, "boundary": "x1", "points": [[0.2, 0.1]],
                      "resolution": 64})
    assert code == 0
    assert json.loads(text)["metadata"]["rule"]["resolution"] == 64


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
    code, _ = run(tmp_path, "verify",
                  {"n": 2, "suites": ["diagonal-dim"]},
                  "--tolerance", "1e-30")
    assert code == cli.EXIT_TOLERANCE


# --------------------------------------------------------------------------
# hua-limit command
# --------------------------------------------------------------------------

def test_hua_limit_table_shape_and_trailing_row(tmp_path):
    code, text = run(tmp_path, "hua-limit",
                     {"n": 2, "u": "x1^2", "z": [0.4, 0.2],
                      "p_list": [1, 2, 4, 8]})
    assert code == 0
    obj = json.loads(text)
    ps = [dict(zip(obj["columns"], r))["p"] for r in obj["rows"]]
    assert ps == [1, 2, 4, 8, "hua"]
    errs = [dict(zip(obj["columns"], r))["abs_error"] for r in obj["rows"]]
    assert all(b <= a + 1e-12 for a, b in zip(errs[:-2], errs[1:-1]))
    assert errs[0] == pytest.approx(0.4, abs=1e-9)


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


def test_hua_limit_rejects_exterior_z_and_bad_p_list(tmp_path, capsys):
    code, _ = run(tmp_path, "hua-limit",
                  {"n": 2, "u": "x1", "z": [1.2, 0.0]})
    assert code == cli.EXIT_CONFIG
    code, _ = run(tmp_path, "hua-limit",
                  {"n": 2, "u": "x1", "z": [0.3, 0.0], "p_list": [2, 2]})
    assert code == cli.EXIT_CONFIG
    capsys.readouterr()


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

def test_csv_and_json_payloads_are_identical(tmp_path):
    config = {"n": 2, "p": 2, "x": [0.4, 0.1], "zeta": [0.8, 0.6],
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
    config = {"n": 2, "p": 2, "boundary": "x1^2", "points": [[0.3, 0.1]],
              "seed": 5}
    _, first = run(tmp_path, "dirichlet", config)
    _, second = run(tmp_path, "dirichlet", config)
    assert first == second


def test_metadata_records_effective_config_and_hash(tmp_path):
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "x": [0.5, 0], "zeta": [1, 0]},
                     "--seed", "9", "--tolerance", "1e-8")
    assert code == 0
    meta = json.loads(text)["metadata"]
    assert meta["command"] == "kernel"
    assert meta["config"]["seed"] == 9
    assert meta["config"]["tolerance"] == 1e-8
    assert len(meta["config_sha256"]) == 64
    assert set(meta["versions"]) == {"polyball", "numpy", "python"}


def test_flag_overrides_feed_back_into_the_run(tmp_path):
    # rerunning from the emitted effective config reproduces the table
    code, text = run(tmp_path, "kernel",
                     {"n": 2, "x": [0.5, 0], "zeta": [1, 0]},
                     "--tolerance", "1e-9")
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
