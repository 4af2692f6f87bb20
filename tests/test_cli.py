"""CLI adapters: pipelines, exit codes, strict config, byte determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from buffon import harness as hz
from buffon import steinhaus as sh
from buffon.cli import main
from buffon.discrepancy import SupConfig, load_report, local_discrepancy
from buffon.geometry import ConvexBody, Line, dump_body, unit_square


@pytest.fixture()
def body_path(tmp_path):
    path = tmp_path / "square.json"
    dump_body(unit_square(), path)
    return str(path)


def test_build_then_disc_pipeline(tmp_path, body_path, capsys):
    set_path = str(tmp_path / "set.json")
    assert main(["build", "--body", body_path, "--length", "20000",
                 "--seed", "1", "--out", set_path]) == 0
    out = capsys.readouterr().out
    assert "L_actual=20000.0" in out
    report_path = str(tmp_path / "report.json")
    assert main(["disc", "--set", set_path, "--theta-res", "24",
                 "--offset-res", "24", "--refine", "1", "--seed", "2",
                 "--out", report_path]) == 0
    out = capsys.readouterr().out
    assert "sup_estimate = " in out and out.endswith("\n")
    report = load_report(report_path)
    sset = sh.load_manifest(set_path)
    witness = Line(report.witness_theta, report.witness_offset)
    assert local_discrepancy(sset, witness, sh.total_length(sset)) == report.sup_estimate


_FRESH_WITNESS_SCRIPT = """
import sys
from buffon import steinhaus as sh
from buffon.discrepancy import load_report, local_discrepancy
from buffon.geometry import Line

sset = sh.load_manifest(sys.argv[1])
report = load_report(sys.argv[2])
line = Line(report.witness_theta, report.witness_offset)
print(repr(local_discrepancy(sset, line, sh.total_length(sset))))
"""


def test_witness_reproducible_in_fresh_process(tmp_path, body_path, capsys):
    set_path = str(tmp_path / "set.json")
    report_path = str(tmp_path / "report.json")
    assert main(["build", "--body", body_path, "--length", "2000",
                 "--seed", "11", "--out", set_path]) == 0
    assert main(["disc", "--set", set_path, "--theta-res", "16",
                 "--offset-res", "16", "--refine", "0", "--seed", "12",
                 "--out", report_path]) == 0
    capsys.readouterr()
    report = load_report(report_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_WITNESS_SCRIPT, set_path, report_path],
        capture_output=True, text=True, check=True, env=env)
    fresh = float(result.stdout.strip())
    assert fresh == report.sup_estimate


def test_oracle_check_reports_agreement(body_path, capsys):
    assert main(["oracle-check", "--body", body_path, "--n", "32",
                 "--eps", "0.01", "--lines", "500", "--seed", "7"]) == 0
    assert "500/500 agree" in capsys.readouterr().out


def test_oracle_check_compares_every_line_near_a_fine_grid(tmp_path, capsys):
    """On an off-centre disk at eps=0.001 a line passing within 1e-9 of a
    grid-segment endpoint was once skipped (exit 2); now each is compared."""
    path = tmp_path / "disk.json"
    path.write_text('{"disk": {"center": [0.1, -0.05], "radius": 0.8}}')
    assert main(["oracle-check", "--body", str(path), "--n", "40", "--eps", "0.001",
                 "--lines", "2000", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert "2000/2000 agree" in captured.out and captured.err == ""


@pytest.mark.parametrize("mode", ["shifted", "zero"])
def test_oracle_check_refuses_a_negative_family_count(body_path, capsys, mode):
    assert main(["oracle-check", "--body", body_path, "--mode", mode, "--n", "-1",
                 "--eps", "0.1", "--lines", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: n: need at least one family")
    assert "Traceback" not in captured.err and captured.out == ""


def test_oracle_check_mismatch_exits_2(body_path, capsys, monkeypatch):
    fake = hz.OracleCheck(
        comparisons=2, agreements=1, skipped=0,
        mismatches=((0.5, 0.25, 3, 4),))
    monkeypatch.setattr(hz, "run_oracle_check", lambda *a, **k: fake)
    assert main(["oracle-check", "--body", body_path, "--n", "4",
                 "--eps", "0.1", "--lines", "2"]) == 2
    captured = capsys.readouterr()
    assert "mismatch: theta=0.5" in captured.out
    assert "internal assertion failed" in captured.err


def test_oracle_check_skip_only_exits_2_without_blaming_agreement(
        body_path, capsys, monkeypatch):
    fake = hz.OracleCheck(
        comparisons=1999, agreements=1999, skipped=1, mismatches=())
    monkeypatch.setattr(hz, "run_oracle_check", lambda *a, **k: fake)
    assert main(["oracle-check", "--body", body_path, "--n", "4",
                 "--eps", "0.1", "--lines", "2000"]) == 2
    captured = capsys.readouterr()
    assert "1999/1999 agree" in captured.out
    assert "mismatch" not in captured.out
    assert "no compared line disagreed" in captured.err
    assert "1 lines skipped as exceptional" in captured.err
    assert "disagreement" not in captured.err


def test_disc_refuses_a_manifest_with_a_nan_shift(tmp_path, body_path, capsys):
    set_path = tmp_path / "set.json"
    assert main(["build", "--body", body_path, "--length", "2000", "--seed", "1",
                 "--out", str(set_path)]) == 0
    manifest = json.loads(set_path.read_text())
    manifest["shifts"][0] = float("nan")
    set_path.write_text(json.dumps(manifest))  # json writes and reads NaN
    capsys.readouterr()
    assert main(["disc", "--set", str(set_path), "--theta-res", "8",
                 "--offset-res", "8"]) == 1
    assert "error: shifts" in capsys.readouterr().err


def test_sweep_and_plot_are_byte_deterministic(tmp_path, body_path, capsys):
    args = ["sweep", "--body", body_path, "--mode", "shifted",
            "--l-min", "2000", "--l-max", "20000", "--points", "4",
            "--theta-res", "16", "--offset-res", "16", "--refine", "0",
            "--seed", "5"]
    c1, c2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", c1]) == 0
    assert main(args + ["--out", c2]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert main(["plot", "--csv", c1, "--out", str(tmp_path / "fig"),
                 "--deflate", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "exponent=" in out
    dat = (tmp_path / "fig.dat").read_text()
    gp = (tmp_path / "fig.gp").read_text()
    assert dat.startswith("# L y_plotted y_raw")
    assert 'plot "fig.dat"' in gp and "set logscale xy" in gp
    points_used = int(out.split("points=")[1].split()[0])
    assert len(dat.splitlines()) - 1 == points_used


def test_sweep_exits_2_on_an_internal_assertion_and_writes_no_csv(
        tmp_path, body_path, capsys, monkeypatch):
    """Only a length the planner refuses (or a lattice too fine to allocate)
    becomes a NaN row: an internal assertion leaves run_sweep, and `buffon
    sweep` exits 2 with no CSV, as `buffon disc` does."""
    def broken(*args):
        raise AssertionError("envelope broken")

    monkeypatch.setattr(hz, "estimate_sup", broken)
    with pytest.raises(AssertionError, match="envelope broken"):
        hz.run_sweep(unit_square(), [1e3, 2e3], "shifted", SupConfig())
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--body", body_path, "--l-min", "1e3", "--l-max", "2e3",
                 "--points", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "internal assertion failed: envelope broken\n"
    assert not out.exists()


def _four_row_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    hz.write_sweep_csv([
        hz.SweepRow(L_target=x, M=x, n=16, eps=0.01, seed=0, L_actual=x,
                    sup_estimate=1.0, max_abs_z=1.0, quadrature_max=1.0,
                    padding_count=0)
        for x in (1e3, 1e4, 1e5, 1e6)], csv_path)
    return csv_path


def test_plot_refuses_a_field_outside_the_csv(tmp_path, capsys):
    csv_path = _four_row_csv(tmp_path)
    for name in ("error", "wall_time_seconds"):
        capsys.readouterr()
        assert main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "fig"),
                     "--y-field", name]) == 1
        assert "error: field" in capsys.readouterr().err
    assert not (tmp_path / "fig.dat").exists()


@pytest.mark.parametrize("column, cell", [
    *((column, "abc") for column in hz.SweepRow.CSV_FIELDS), ("n", "1.5")])
def test_plot_refuses_a_cell_that_does_not_parse(tmp_path, capsys, column, cell):
    """The message names the file line and the column of the bad cell."""
    csv_path = _four_row_csv(tmp_path)
    lines = csv_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[hz.SweepRow.CSV_FIELDS.index(column)] = cell
    lines[3] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "fig")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: csv: line 4, column {column}: ") and repr(cell) in err
    assert "Traceback" not in err and not (tmp_path / "fig.dat").exists()


def test_tails_writes_table(tmp_path, body_path, capsys):
    out_path = tmp_path / "tails.txt"
    assert main(["tails", "--body", body_path, "--n", "64", "--eps", "0.02",
                 "--x0", "0.1", "--y0", "0.1", "--x1", "0.9", "--y1", "0.8",
                 "--trials", "10000", "--s-values", "0,8", "--seed", "3",
                 "--out", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert printed == out_path.read_text()
    assert "s=8.0 empirical=" in printed
    assert "violations=0" in printed


def test_length_study_prints_summary(body_path, capsys):
    assert main(["length-study", "--body", body_path, "--n", "16",
                 "--eps", "0.05", "--trials", "1000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    for key in ("expected=", "hoeffding_band=", "max_abs_deviation=", "mean_L="):
        assert key in out


def test_validation_exit_codes(tmp_path, body_path, capsys):
    assert main(["build", "--length", "100"]) == 1
    assert "body" in capsys.readouterr().err
    assert main(["sweep", "--body", body_path, "--l-min", "10", "--l-max", "5",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "l_min" in capsys.readouterr().err
    assert main(["disc", "--set", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["tails", "--body", body_path, "--n", "8", "--eps", "0.1",
                 "--x0", "0.1", "--y0", "0.1", "--x1", "0.9", "--y1", "0.8",
                 "--s-values", "1,zap"]) == 1
    assert "s_values" in capsys.readouterr().err
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_build_refuses_length_below_e_plus_diameter(tmp_path, body_path, capsys):
    """The planner reserves one diameter, so the square needs L > e + sqrt(2)."""
    out = tmp_path / "set.json"
    assert main(["build", "--body", body_path, "--length", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: L: ") and "4.1325" in err
    assert not out.exists()


_UNIT_DISK = ConvexBody.disk((0.0, 0.0), 1.0 / math.sqrt(math.pi))


@pytest.mark.parametrize("eps", ["nan", "inf", "-1", "1e-300"])
@pytest.mark.parametrize("command", [
    (unit_square(), ["length-study", "--n", "16", "--trials", "1000"]),
    (unit_square(), ["tails", "--n", "8", "--x0", "0.1", "--y0", "0.1", "--x1", "0.9",
                     "--y1", "0.8", "--trials", "10000"]),
    (unit_square(), ["oracle-check", "--n", "16", "--lines", "10"]),
    (_UNIT_DISK, ["length-study", "--n", "16", "--trials", "1000"]),
    (_UNIT_DISK, ["oracle-check", "--n", "16", "--lines", "10"]),
])
def test_studies_refuse_a_non_finite_or_negative_eps(tmp_path, capsys, command, eps):
    """A pitch at which body scale / eps reaches 2^52 (1e-300) is refused too:
    its lattice indices would not be exact integers."""
    body, argv = command
    dump_body(body, tmp_path / "body.json")
    assert main([*argv, "--body", str(tmp_path / "body.json"), "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: eps: ") and captured.out == ""


@pytest.mark.parametrize("command", [["length-study", "--trials", "1000"],
                                     ["oracle-check", "--lines", "1"]])
def test_a_lattice_too_large_to_allocate_exits_1(tmp_path, capsys, command):
    """A unit-area disk at pitch 1e-14 has about 1e14 lattice lines: numpy
    refuses their array at once (it exceeds the address space), and the
    command says so in an error line, not a traceback."""
    path = tmp_path / "disk.json"
    dump_body(ConvexBody.disk((0.0, 0.0), 1.0 / math.sqrt(math.pi)), path)
    assert main([*command, "--body", str(path), "--n", "1", "--eps", "1e-14"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: memory: ") and "Traceback" not in captured.err


def test_malformed_numbers_exit_1_naming_the_field(tmp_path, body_path, capsys):
    bodies = [({"disk": {"center": [0, 0], "radius": "1"}}, "disk.radius"),
              ({"polygon": [["a", 0], [1, 0], [1, 1]]}, "polygon")]
    for spec, field in bodies:
        path = tmp_path / "bad_body.json"
        path.write_text(json.dumps(spec))
        assert main(["build", "--body", str(path), "--length", "2000",
                     "--out", str(tmp_path / "unused.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    set_path = tmp_path / "set.json"
    assert main(["build", "--body", body_path, "--length", "2000",
                 "--out", str(set_path)]) == 0
    for key, value in (("n", "x"), ("eps", "a"), ("seed", "x"), ("seed", True)):
        manifest = json.loads(set_path.read_text())
        manifest[key] = value
        bad = tmp_path / "bad_set.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["disc", "--set", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and "Traceback" not in err
    manifest = json.loads(set_path.read_text())
    manifest["seed"] = -1  # as `buffon build --seed -1` writes it
    bad.write_text(json.dumps(manifest))
    assert sh.load_manifest(bad).seed == -1


def test_config_file_strict_and_overridable(tmp_path, body_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    # run and required are set on the parsed arguments, but are no flags
    for unknown in ("oops", "run", "required"):
        cfg.write_text(json.dumps({"n": 8, "eps": 0.1, "lines": 200, unknown: 1}))
        assert main(["oracle-check", "--body", body_path,
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config: unknown field {unknown!r}")
    cfg.write_text(json.dumps({"n": 8, "eps": 0.1, "lines": 200}))
    assert main(["oracle-check", "--body", body_path,
                 "--config", str(cfg)]) == 0
    assert "200/200 agree" in capsys.readouterr().out
    # explicit flag beats the config value
    assert main(["oracle-check", "--body", body_path, "--config", str(cfg),
                 "--lines", "100"]) == 0
    assert "100/100 agree" in capsys.readouterr().out
    # a config value is parsed as the same text on the command line would be
    segment = {"n": 8, "eps": 0.1, "x0": 0.1, "y0": 0.1, "x1": 0.9, "y1": 0.8}
    for command, fields, field, value in (
            ("sweep", {"l_min": 2000, "l_max": 4000, "out": "x.csv"}, "points", 3.5),
            ("tails", segment, "trials", 100000.0),
            ("oracle-check", {"n": 8, "eps": 0.1}, "lines", 20.0)):
        cfg.write_text(json.dumps({**fields, field: value}))
        assert main([command, "--body", body_path, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    # and null still means no value
    monkeypatch.chdir(tmp_path)
    cfg.write_text(json.dumps({"n": 16, "eps": 0.05, "trials": 1000, "out": None}))
    assert main(["length-study", "--body", body_path, "--config", str(cfg)]) == 0
    assert "mean_L=" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "square.json"]


def test_malformed_config_is_a_config_error(tmp_path, body_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{bad")
    assert main(["length-study", "--body", body_path, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: invalid JSON in {cfg}") and "Traceback" not in err
    cfg.write_text("[1]")
    assert main(["length-study", "--body", body_path, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: config: config file must hold a JSON object\n"
