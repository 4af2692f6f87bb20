"""CLI adapters: pipelines, exit codes, strict config, byte determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from buffon import harness as hz
from buffon import steinhaus as sh
from buffon.cli import main
from buffon.discrepancy import SupConfig, decompose
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
    report = json.loads(Path(report_path).read_text())
    sset = sh.load_manifest(set_path)
    witness = Line(report["witness_theta"], report["witness_offset"])
    terms = decompose(sset, witness, sh.total_length(sset))
    assert abs(terms["signed_error"]) == report["sup_estimate"]


_FRESH_WITNESS_SCRIPT = """
import json
import sys
from pathlib import Path
from buffon import steinhaus as sh
from buffon.discrepancy import decompose
from buffon.geometry import Line

sset = sh.load_manifest(sys.argv[1])
report = json.loads(Path(sys.argv[2]).read_text())
line = Line(report["witness_theta"], report["witness_offset"])
print(repr(abs(decompose(sset, line, sh.total_length(sset))["signed_error"])))
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
    report = json.loads(Path(report_path).read_text())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_WITNESS_SCRIPT, set_path, report_path],
        capture_output=True, text=True, check=True, env=env)
    fresh = float(result.stdout.strip())
    assert fresh == report["sup_estimate"]


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
    assert captured.err.startswith("error: n: need an integer >= 1, got -1")
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


def test_disc_refuses_a_manifest_whose_padding_leaves_the_body(tmp_path, body_path, capsys):
    """A padding segment moved 5 units off the unit square keeps the stated
    total length, yet a set's padding must lie in its body: disc exits 1."""
    set_path = tmp_path / "set.json"
    assert main(["build", "--body", body_path, "--length", "2000", "--seed", "1",
                 "--out", str(set_path)]) == 0
    manifest = json.loads(set_path.read_text())
    assert manifest["padding"]
    manifest["padding"][0] = [[x + 5.0, y] for x, y in manifest["padding"][0]]
    set_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["disc", "--set", str(set_path), "--theta-res", "8",
                 "--offset-res", "8"]) == 1
    assert capsys.readouterr().err.startswith("error: padding: endpoint")


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


@pytest.mark.parametrize("deflate", ["=1e308", "=-1e308", "=inf", "=nan"])
def test_plot_refuses_a_deflation_outside_the_float_range(tmp_path, capsys, deflate):
    """A non-finite exponent is refused; one whose power overflows or
    underflows on every row leaves no usable row."""
    csv_path = _four_row_csv(tmp_path)
    assert main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "fig"),
                 f"--deflate{deflate}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
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


@pytest.mark.parametrize("flag, value", [
    ("l_max", "inf"), ("l_max", "nan"), ("l_min", "nan"), ("l_min", "-inf")])
def test_a_sweep_bound_that_is_not_finite_is_named(tmp_path, body_path, capsys, flag, value):
    """A non-finite --l-min or --l-max exits 1 naming that flag's field: inf
    was once refused as lengths not increasing, and nan as a bad l_min."""
    bounds = {"l_min": "1e3", "l_max": "1e4", flag: value}
    assert main(["sweep", "--body", body_path, f"--l-min={bounds['l_min']}",
                 f"--l-max={bounds['l_max']}", "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: need a finite length")
    assert not (tmp_path / "x.csv").exists()


def test_a_sweep_whose_length_ratio_overflows_names_l_max(tmp_path, body_path, capsys):
    """Finite bounds whose ratio l-max / l-min overflows exit 1 naming l_max,
    not as target lengths that fail to increase."""
    assert main(["sweep", "--body", body_path, "--l-min", "1e-300", "--l-max", "1e300",
                 "--points", "3", "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: l_max: l-max / l-min overflows")
    assert not (tmp_path / "x.csv").exists()


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
    for s_values in ("nan,8", "-3", ""):
        assert main(["tails", "--body", body_path, "--n", "8", "--eps", "0.1",
                     "--x0", "0.1", "--y0", "0.1", "--x1", "0.9", "--y1", "0.8",
                     f"--s-values={s_values}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: s_values: ") and err.count("\n") == 1
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
    """A pitch below the clip's floor (1e-300) is refused too: the clip would
    take many lattice lines as running along one edge."""
    body, argv = command
    dump_body(body, tmp_path / "body.json")
    assert main([*argv, "--body", str(tmp_path / "body.json"), "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: eps: ") and captured.out == ""


def test_a_lattice_too_large_to_allocate_exits_1(tmp_path, capsys):
    """A unit-area disk at pitch 2e-14, just above its floor of 1.93e-14, has
    about 6e13 lattice lines: the oracle check clips every one, numpy refuses
    their array at once (it exceeds the address space), and the command says
    so in an error line, not a traceback."""
    path = tmp_path / "disk.json"
    dump_body(ConvexBody.disk((0.0, 0.0), 1.0 / math.sqrt(math.pi)), path)
    assert main(["oracle-check", "--lines", "1", "--body", str(path), "--n", "1",
                 "--eps", "2e-14"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: memory: ") and "Traceback" not in captured.err


def test_length_study_of_a_disk_at_its_pitch_floor_exits_0(tmp_path, capsys):
    """The same disk and pitch in a length study: a disk's family length takes
    a fixed number of slices per family whatever the pitch, so the study runs
    and its families stay within its 2 diam bound."""
    path = tmp_path / "disk.json"
    dump_body(ConvexBody.disk((0.0, 0.0), 1.0 / math.sqrt(math.pi)), path)
    assert main(["length-study", "--trials", "1000", "--body", str(path), "--n", "1",
                 "--eps", "2e-14"]) == 0
    captured = capsys.readouterr()
    fields = dict(line.split("=") for line in captured.out.splitlines())
    assert captured.err == "" and float(fields["max_abs_deviation"]) <= 4.0 / math.sqrt(math.pi)


def test_length_study_refuses_a_pitch_within_the_clip_band(tmp_path, capsys):
    """On the 8 x 0.125 rectangle a pitch of 5.7e-14 lies below twice the clip's
    along-edge band (2.74e-13), where lattice lines past an extreme edge would
    count as running along it and the 2 diam family bound could fail: refused."""
    path = tmp_path / "rect.json"
    dump_body(ConvexBody.polygon([[0, 0], [8, 0], [8, 0.125], [0, 0.125]]), path)
    assert main(["length-study", "--body", str(path), "--n", "4", "--eps", "5.7e-14",
                 "--trials", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: eps: ") and captured.out == ""


def test_build_and_disc_a_large_body_at_the_unit_squares_relative_length(tmp_path, capsys):
    """A 100 x 100 square at L = 1e6 is the unit square at L = 1e4: it builds
    (n = 25, eps = 0.25) and its set is searched; a 10 x 10 square at L = 30 is
    short of e sqrt|Omega| + diam = 41.325, and the one message names that."""
    path = tmp_path / "big.json"
    dump_body(ConvexBody.polygon([[0, 0], [100, 0], [100, 100], [0, 100]]), path)
    set_path = str(tmp_path / "set.json")
    assert main(["build", "--body", str(path), "--length", "1e6", "--out", set_path]) == 0
    assert capsys.readouterr().out.startswith("n=25 eps=0.25")
    assert main(["disc", "--set", set_path, "--theta-res", "16", "--offset-res", "16",
                 "--refine", "0"]) == 0
    dump_body(ConvexBody.polygon([[0, 0], [10, 0], [10, 10], [0, 10]]), path)
    capsys.readouterr()
    assert main(["build", "--body", str(path), "--length", "30", "--out", set_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: L: ") and err.endswith("= 41.325\n") and err.count("\n") == 1


def test_sweep_refuses_zero_workers(tmp_path, body_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--body", body_path, "--l-min", "1e3", "--l-max", "2e3",
                 "--workers", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: workers: ") and not out.exists()


@pytest.mark.parametrize("command", [
    ["build", "--length", "2000", "--out", "set.json"],
    ["sweep", "--l-min", "1e3", "--l-max", "2e3", "--out", "sweep.csv"],
    ["oracle-check", "--n", "3", "--eps", "0.1", "--lines", "10"],
    ["tails", "--n", "16", "--eps", "0.05", "--x0", "0.1", "--y0", "0.1", "--x1", "0.9",
     "--y1", "0.8", "--trials", "10000", "--s-values", "1"],
    ["length-study", "--n", "4", "--eps", "0.1", "--trials", "1000"]], ids=lambda c: c[0])
def test_a_negative_seed_exits_1(tmp_path, body_path, capsys, monkeypatch, command):
    """--seed -1 is refused, naming the seed, as disc --seed -1 is."""
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--body", body_path, "--seed", "-1", *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed: ") and captured.out == ""
    assert not list(tmp_path.glob("set.json")) + list(tmp_path.glob("sweep.csv"))


def test_plot_takes_no_seed(tmp_path, capsys):
    """plot draws nothing at random, so --seed is an unknown flag there."""
    csv_path = _four_row_csv(tmp_path)
    assert main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "fig"),
                 "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: arguments: ") and err.count("\n") == 1
    assert not (tmp_path / "fig.dat").exists()


@pytest.fixture()
def no_shift_drawn(monkeypatch):
    """Every mode's shift rule, and sample_shifts, raise: a drawn shift exits 2."""
    def draw(*args):
        raise AssertionError("a shift was drawn")

    for mode, (n_rule, _) in sh.MODES.items():
        monkeypatch.setitem(sh.MODES, mode, (n_rule, draw))
    monkeypatch.setattr(sh, "sample_shifts", draw)


@pytest.mark.parametrize("mode, length", [("zero", "1e300"), ("zero", "1e40"),
                                          ("shifted", "1e25")])
def test_build_refuses_an_unbuildable_length_before_drawing_a_shift(
        tmp_path, body_path, capsys, no_shift_drawn, mode, length):
    """The lattice is checked first: no shift is drawn, and the refusal comes
    at once."""
    out = tmp_path / "set.json"
    started = time.perf_counter()
    code = main(["build", "--body", body_path, "--mode", mode, "--length", length,
                 "--out", str(out)])
    assert code == 1 and time.perf_counter() - started < 2.0
    assert capsys.readouterr().err.startswith("error: eps: ") and not out.exists()


@pytest.mark.parametrize("mode", ["shifted", "zero"])
def test_oracle_check_refuses_a_pitch_below_the_floor_before_drawing_a_shift(
        body_path, capsys, no_shift_drawn, mode):
    """200,000 families at pitch 1e-20: the set's lattice is refused before
    any of its shifts is drawn."""
    started = time.perf_counter()
    code = main(["oracle-check", "--body", body_path, "--mode", mode, "--n", "200000",
                 "--eps", "1e-20", "--lines", "1"])
    assert code == 1 and time.perf_counter() - started < 2.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error: eps: ") and captured.out == ""


def test_malformed_numbers_exit_1_naming_the_field(tmp_path, body_path, capsys):
    bodies = [({"disk": {"center": [0, 0], "radius": "1"}}, "disk.radius"),
              ({"polygon": [["a", 0], [1, 0], [1, 1]]}, "polygon"),
              ({"polygon": [[0, 0], [1, 0, 5], [1, 1]]}, "polygon")]  # ragged
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
    # a float n or seed is refused like any other non-integer, a negative seed
    # as `buffon build --seed -1` refuses it
    for key, value in (("n", "x"), ("n", 16.0), ("eps", "a"), ("seed", "x"), ("seed", True),
                       ("seed", 1.0), ("seed", -1)):
        manifest = json.loads(set_path.read_text())
        manifest[key] = value
        bad = tmp_path / "bad_set.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["disc", "--set", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and "Traceback" not in err


def test_config_file_strict_and_overridable(tmp_path, body_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    # run is set on the parsed arguments but is no flag; line abbreviates --lines
    for unknown in ("oops", "run", "required", "line", "config"):
        cfg.write_text(json.dumps({"n": 8, "eps": 0.1, "lines": 200, unknown: 1}))
        assert main(["oracle-check", "--body", body_path,
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"--{unknown}" in err
        assert "Traceback" not in err
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
        assert err.startswith("error: ") and f"argument --{field}: " in err
        assert "Traceback" not in err
    # and null leaves the flag's default
    monkeypatch.chdir(tmp_path)
    cfg.write_text(json.dumps({"n": 16, "eps": 0.05, "trials": 1000, "out": None}))
    assert main(["length-study", "--body", body_path, "--config", str(cfg)]) == 0
    assert "mean_L=" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "square.json"]


def test_a_null_config_entry_leaves_the_flag_default(tmp_path, body_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(hz, "length_study", lambda body, n, eps, trials, seed: {
        "trials": trials})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 16, "eps": 0.05, "trials": None}))
    assert main(["length-study", "--body", body_path, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "trials=10000\n"
    called = {}

    def run_sweep(body, l_values, *args, **kwargs):
        called["points"] = len(l_values)
        return []

    monkeypatch.setattr(hz, "run_sweep", run_sweep)
    cfg.write_text(json.dumps({"l_min": 2000, "l_max": 4000, "points": None,
                               "out": str(tmp_path / "x.csv")}))
    assert main(["sweep", "--body", body_path, "--config", str(cfg)]) == 0
    assert called == {"points": 8}


def test_flags_are_not_abbreviated(tmp_path, body_path, capsys):
    """--theta was once taken as --theta-res."""
    set_path = str(tmp_path / "set.json")
    assert main(["build", "--body", body_path, "--length", "2000",
                 "--out", set_path]) == 0
    capsys.readouterr()
    assert main(["disc", "--set", set_path, "--theta", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--theta 16" in err and "Traceback" not in err


def test_malformed_config_is_a_config_error(tmp_path, body_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{bad")
    assert main(["length-study", "--body", body_path, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: invalid JSON in {cfg}") and "Traceback" not in err
    cfg.write_text("[1]")
    assert main(["length-study", "--body", body_path, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: config: config file must hold a JSON object\n"
