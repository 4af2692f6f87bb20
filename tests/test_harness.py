"""Experiment drivers: sweep pipeline, CSV determinism, fits, studies."""

import dataclasses
import math

import numpy as np
import pytest

from buffon.geometry import (PARALLEL, ConvexBody, Line, ValidationError, rounding_bound,
                             unit_square)
from buffon import counting
from buffon import harness as hz
from buffon import steinhaus as sh
from buffon.counting import (ExceptionalLineError, count_line, count_lines, oracle_count,
                             segment_crossings)
from buffon.discrepancy import SupConfig

from test_geometry import random_polygon
from test_steinhaus import _scaled

SMALL_CONFIG = SupConfig(
    theta_resolution=24, offset_resolution=24, refine_rounds=1, seed=0)


@pytest.fixture(scope="module")
def small_sweep():
    return hz.run_sweep(
        unit_square(), [2000.0, 6000.0, 20000.0, 60000.0], "shifted",
        SMALL_CONFIG, seed=5)


def test_sweep_rows_complete_and_consistent(small_sweep):
    assert len(small_sweep) == 4
    for row in small_sweep:
        assert row.error is None
        assert abs(row.L_actual - row.L_target) <= 1e-9 * row.L_target
        m, n, eps = sh._plan(unit_square(), row.L_target, "shifted", unit_square().diameter)
        assert (row.M, row.n) == (m, n)
        assert row.eps == pytest.approx(eps, rel=1e-12)
        assert row.sup_estimate > 0
        # sampled triangle inequality: sup below the component maxima
        envelope = (row.quadrature_max + row.max_abs_z + row.padding_count)
        assert row.sup_estimate <= envelope + 1e-6 + 1e-4 * row.L_target * 1e-9


def test_sweep_deterministic_and_worker_invariant(small_sweep):
    again = hz.run_sweep(
        unit_square(), [2000.0, 6000.0, 20000.0, 60000.0], "shifted",
        SMALL_CONFIG, seed=5)
    parallel = hz.run_sweep(
        unit_square(), [2000.0, 6000.0, 20000.0, 60000.0], "shifted",
        SMALL_CONFIG, seed=5, workers=2)
    for a, b, c in zip(small_sweep, again, parallel):
        for name in hz.SweepRow.CSV_FIELDS:
            assert getattr(a, name) == getattr(b, name) == getattr(c, name)


def test_sweep_zero_mode_probe_reaches_coherent_z():
    rows = hz.run_sweep(
        unit_square(), [1000.0], "zero", SMALL_CONFIG, seed=1)
    (row,) = rows
    assert row.error is None
    assert row.n == sh._plan(unit_square(), 1000.0, "zero", unit_square().diameter)[1]
    assert row.n / 4 <= row.max_abs_z <= row.n


def test_sweep_requires_increasing_lengths():
    with pytest.raises(ValidationError):
        hz.run_sweep(unit_square(), [100.0, 100.0], "shifted", SMALL_CONFIG)


@pytest.mark.parametrize("field, call", [
    ("points", lambda: hz.length_grid(1e3, 1e4, 1)),
    ("workers", lambda: hz.run_sweep(unit_square(), [1e3], "shifted", SMALL_CONFIG,
                                     workers=-1)),
    pytest.param("workers", lambda: hz.run_sweep(unit_square(), [1e3], "shifted",
                                                 SMALL_CONFIG, workers=0), id="workers-0"),
    ("n_values", lambda: hz.coherence_study(unit_square(), [16, 32], [0.01], trials=10)),
    # eps >= n sqrt|Omega|: the coherence bound's log would not be positive
    pytest.param("eps", lambda: hz.coherence_study(unit_square(), [1], [2.0]), id="eps-log"),
    pytest.param("eps", lambda: hz.coherence_study(unit_square(), [16], [16.0], trials=10),
                 id="eps-log-zero"),
    # counts are integers, never floats or booleans, whatever their value
    pytest.param("n", lambda: hz.coherence_study(unit_square(), [16.5], [0.01], trials=10),
                 id="n-float"),
    pytest.param("n", lambda: hz.coherence_study(unit_square(), [16.0], [0.01], trials=10),
                 id="n-integral-float"),
    pytest.param("trials", lambda: hz.coherence_study(unit_square(), [16], [0.01], trials=10.0),
                 id="coherence-trials-float"),
    pytest.param("trials", lambda: hz.coherence_study(unit_square(), [16], [0.01], trials=True),
                 id="coherence-trials-bool"),
    pytest.param("trials", lambda: hz.z_tail_study(unit_square(), 64, 0.02, (0.1, 0.1),
                                                   (0.9, 0.8), 10_000.0, [1]),
                 id="tail-trials-float"),
    pytest.param("trials", lambda: hz.length_study(unit_square(), 16, 0.05, 1_000.0),
                 id="length-trials-float"),
    pytest.param("lines", lambda: hz.run_oracle_check(sh.SteinhausSet(
        body=unit_square(), n=4, eps=0.25, shifts=np.zeros(4)), 10.0), id="lines-float"),
    pytest.param("lines", lambda: hz.run_oracle_check(sh.SteinhausSet(
        body=unit_square(), n=4, eps=0.25, shifts=np.zeros(4)), True), id="lines-bool"),
])
def test_sweep_and_study_refusals_name_their_field(field, call):
    with pytest.raises(ValidationError) as info:
        call()
    assert info.value.field == field


SEEDED = {
    "mode_set": lambda seed: sh.mode_set(unit_square(), 3, 0.1, "shifted", seed),
    "build_exact": lambda seed: sh.build_exact(unit_square(), 1e4, "shifted", seed),
    "run_sweep": lambda seed: hz.run_sweep(unit_square(), [1e3, 1e4], "zero", SMALL_CONFIG,
                                           seed=seed),
    "run_oracle_check": lambda seed: hz.run_oracle_check(sh.SteinhausSet(
        body=unit_square(), n=3, eps=0.1, shifts=np.zeros(3)), 10, seed=seed),
    "length_study": lambda seed: hz.length_study(unit_square(), 4, 0.1, 1_000, seed=seed),
    "z_tail_study": lambda seed: hz.z_tail_study(unit_square(), 16, 0.05, (0.1, 0.1),
                                                 (0.9, 0.8), 10_000, [1.0], seed=seed),
    "coherence_study": lambda seed: hz.coherence_study(
        ConvexBody.disk((0.0, 0.0), 0.5), [4], [0.1], trials=10, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, 1.0, True, None, "1"])
@pytest.mark.parametrize("call", sorted(SEEDED))
def test_every_seed_is_a_count_at_least_zero(call, seed):
    """A seed is an int >= 0 wherever one is taken, as SupConfig requires: a
    float seed once built a set whose manifest would not load, and True drew
    the "True/..." streams."""
    with pytest.raises(ValidationError) as info:
        SEEDED[call](seed)
    assert info.value.field == "seed"


@pytest.mark.parametrize("field, value", [
    ("workers", True), ("workers", 1.5), ("workers", 2.0),
    ("points", 2.5), ("points", 3.0), ("points", True)])
def test_workers_and_points_are_counts(field, value):
    """run_sweep's worker count and length_grid's point count are counts, never
    floats or booleans; a float point count once raised a bare TypeError."""
    call = {"workers": lambda: hz.run_sweep(unit_square(), [1e3, 1e4], "zero", SMALL_CONFIG,
                                            workers=value),
            "points": lambda: hz.length_grid(1e3, 1e4, value)}[field]
    with pytest.raises(ValidationError) as info:
        call()
    assert info.value.field == field


def test_sweep_records_an_allocation_failure_on_its_row(monkeypatch):
    """A lattice too fine to allocate is a failed row, as a refused length is."""
    def exhausted(*args):
        raise MemoryError("lattice")

    monkeypatch.setattr(hz, "estimate_sup", exhausted)
    (row,) = hz.run_sweep(unit_square(), [1e3], "shifted", SMALL_CONFIG)
    assert row.error == "MemoryError: lattice" and math.isnan(row.sup_estimate)


def test_sweep_row_length_check_fires(monkeypatch):
    """A padded set that misses its target length aborts the sweep (build_exact
    checks the padded set's length)."""
    measure = sh.total_length
    monkeypatch.setattr(sh, "total_length", lambda sset: measure(sset) * (1 + 1e-8))
    with pytest.raises(AssertionError, match="^adjusted length .* misses target 1000.0$"):
        hz.run_sweep(unit_square(), [1e3], "shifted", SMALL_CONFIG)


def test_sweep_records_row_errors_instead_of_raising():
    rows = hz.run_sweep(
        unit_square(), [3.0, 2000.0], "shifted", SMALL_CONFIG, seed=2)
    assert rows[0].error is not None and "L" in rows[0].error
    assert math.isnan(rows[0].sup_estimate)
    assert rows[1].error is None


def test_csv_round_trip_and_byte_determinism(tmp_path, small_sweep):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    hz.write_sweep_csv(small_sweep, p1)
    hz.write_sweep_csv(small_sweep, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(hz.SweepRow.CSV_FIELDS) == (
        "L_target,M,n,eps,seed,L_actual,sup_estimate,max_abs_z,quadrature_max,padding_count")
    assert "wall_time" not in header and "error" not in header
    back = hz.read_sweep_csv(p1)
    for a, b in zip(small_sweep, back):
        for name in hz.SweepRow.CSV_FIELDS:
            assert getattr(a, name) == getattr(b, name)


def test_csv_round_trips_failed_rows_as_nan(tmp_path):
    rows = hz.run_sweep(unit_square(), [3.0], "shifted", SMALL_CONFIG, seed=2)
    path = tmp_path / "bad.csv"
    hz.write_sweep_csv(rows, path)
    (back,) = hz.read_sweep_csv(path)
    assert math.isnan(back.sup_estimate) and math.isnan(back.M)
    assert back.n == 0


def test_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,header\n")
    with pytest.raises(ValidationError):
        hz.read_sweep_csv(path)
    header = ",".join(hz.SweepRow.CSV_FIELDS)
    path.write_text(header + "\n1.0,2.0\n")
    with pytest.raises(ValidationError):
        hz.read_sweep_csv(path)


def _synthetic_rows(xs, ys, n=16):
    return [
        hz.SweepRow(
            L_target=x, M=x, n=n, eps=0.01, seed=0, L_actual=x,
            sup_estimate=y, max_abs_z=y, quadrature_max=y, padding_count=0)
        for x, y in zip(xs, ys)
    ]


def test_fit_slope_exact_power_law():
    xs = [10.0**k for k in range(3, 9)]
    fit = hz.fit_slope(_synthetic_rows(xs, [x**0.3 for x in xs]))
    assert fit.exponent == pytest.approx(0.3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 6


def test_fit_slope_deflates_log_factor():
    xs = [10.0**k for k in range(3, 9)]
    ys = [2.5 * x**0.2 * math.log(x) ** 0.4 for x in xs]
    fit = hz.fit_slope(_synthetic_rows(xs, ys), log_correction=0.4)
    assert fit.exponent == pytest.approx(0.2, abs=1e-6)
    assert fit.intercept == pytest.approx(math.log(2.5), abs=1e-6)
    raw = hz.fit_slope(_synthetic_rows(xs, ys))
    assert raw.exponent > 0.2 + 0.005  # undeflated slope absorbs the log


def test_fit_slope_skips_non_asymptotic_and_failed_rows():
    xs = [10.0**k for k in range(3, 9)]
    rows = _synthetic_rows(xs, [x**0.25 for x in xs])
    rows[0] = hz.SweepRow(**{**rows[0].__dict__, "n": 4})
    rows[1] = hz.SweepRow(**{**rows[1].__dict__, "error": "boom"})
    fit = hz.fit_slope(rows)
    assert fit.points_used == 4
    assert fit.exponent == pytest.approx(0.25, abs=1e-12)


def test_fit_points_skip_non_positive_values_and_small_lengths(tmp_path):
    """Rows as read_sweep_csv returns them from a user's CSV: a non-finite or
    non-positive coordinate is skipped, and so is L <= 1 under a log correction."""
    xs = [1e3, 2e3, 3e3, 4e3, 5e3, 6e3, 1.0, 0.5]
    ys = [2.0, math.nan, math.inf, 0.0, -1.0, 3.0, 4.0, 5.0]
    path = tmp_path / "user.csv"
    hz.write_sweep_csv(_synthetic_rows(xs, ys), path)
    rows = hz.read_sweep_csv(path)
    assert [(x, y) for x, y, _ in hz.fit_points(rows)] == [
        (1e3, 2.0), (6e3, 3.0), (1.0, 4.0), (0.5, 5.0)]
    assert [(x, y) for x, y, _ in hz.fit_points(rows, log_correction=0.5)] == [
        (1e3, 2.0), (6e3, 3.0)]


def test_fit_points_refuse_a_non_finite_correction_and_skip_an_overflowing_one():
    xs = [2.0, 1e3, 1e6]
    rows = _synthetic_rows(xs, [1.0] * 3)
    for correction in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="^log_correction:"):
            hz.fit_points(rows, log_correction=correction)
    # (log 2)^±400 is 2.1e-64 or 4.7e63; (log 1e3)^400 overflows, ^-400 underflows to 0
    for correction in (400.0, -400.0):
        assert [x for x, _, _ in hz.fit_points(rows, log_correction=correction)] == [2.0]
    assert hz.fit_points(rows, log_correction=1e308) == []
    # the power is finite but the quotient is not: 1e300 / 2.1e-64 overflows to
    # inf and 1e-300 / 4.7e63 underflows to 0, so both rows are skipped
    for y, correction in ((1e300, 400.0), (1e-300, -400.0)):
        assert hz.fit_points(_synthetic_rows([2.0], [y]), log_correction=correction) == []


def test_fit_slope_validation():
    xs = [10.0, 100.0, 1000.0]
    with pytest.raises(ValidationError):
        hz.fit_slope(_synthetic_rows(xs, [1.0] * 3))
    same_x = _synthetic_rows([10.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValidationError):
        hz.fit_slope(same_x)
    good = _synthetic_rows([10.0**k for k in range(4)], [1.0] * 4)
    for name in ("no_such_field", "error", "wall_time_seconds"):  # fields outside the CSV
        with pytest.raises(ValidationError, match=f"'{name}'"):
            hz.fit_slope(good, y_field=name)


def test_z_tail_study_bands_and_determinism():
    body = unit_square()
    s1 = hz.z_tail_study(
        body, 64, 0.02, (0.1, 0.1), (0.9, 0.8), 10_000, [0, 4, 8, 12], seed=3)
    s2 = hz.z_tail_study(
        body, 64, 0.02, (0.1, 0.1), (0.9, 0.8), 10_000, [0, 4, 8, 12], seed=3)
    assert s1 == s2
    assert s1.violations == 0
    assert s1.rows[0].empirical_tail <= 1.0
    assert s1.rows[0].hoeffding_bound == 2.0
    assert abs(s1.mean_z) <= 4 * math.sqrt(64 / 10_000) / 2
    for row in s1.rows:
        assert row.empirical_tail <= row.hoeffding_bound + row.sampling_band


def test_z_tail_study_same_in_any_shift_blocks(monkeypatch):
    """The shifts are drawn in row blocks of KERNEL_CHUNK // n rows; one block,
    the default blocks and 777-row blocks (12 of them plus a partial one)
    give the same study."""
    args = (unit_square(), 64, 0.02, (0.1, 0.1), (0.9, 0.8), 10_000, [0, 4, 8, 12])
    default = hz.z_tail_study(*args, seed=5)
    for rows in (10_000, 777):
        monkeypatch.setattr(hz, "KERNEL_CHUNK", 64 * rows)
        assert hz.z_tail_study(*args, seed=5) == default


def test_z_tail_study_validation():
    body = unit_square()
    with pytest.raises(ValidationError):
        hz.z_tail_study(body, 64, 0.02, (0.1, 0.1), (0.9, 0.8), 100, [1])
    with pytest.raises(ValidationError):
        hz.z_tail_study(body, 64, 0.02, (5.0, 5.0), (0.9, 0.8), 10_000, [1])
    # the bound 2 exp(-2 s^2 / n) holds only at finite s >= 0, and an empty
    # list checks nothing
    for s_values in ([], [math.nan, 8], [-3], [math.inf], [8, -1e-300]):
        with pytest.raises(ValidationError) as info:
            hz.z_tail_study(body, 64, 0.02, (0.1, 0.1), (0.9, 0.8), 10_000, s_values)
        assert info.value.field == "s_values"


def test_length_study_square_and_disk():
    res = hz.length_study(unit_square(), 32, 0.05, 2_000, seed=1)
    assert res["expected"] == pytest.approx(640.0)
    assert abs(res["mean_L"] - res["expected"]) <= res["hoeffding_band"]
    assert res["max_abs_deviation"] <= 2 * math.sqrt(2.0)
    disk = ConvexBody.disk((0.3, -0.2), 0.8)
    res = hz.length_study(disk, 16, 0.07, 1_000, seed=2)
    assert res["expected"] == pytest.approx(16 * disk.area / 0.07)
    assert abs(res["mean_L"] - res["expected"]) <= res["hoeffding_band"]
    assert res["max_abs_deviation"] <= 2 * 1.6
    with pytest.raises(ValidationError):
        hz.length_study(unit_square(), 16, 0.05, 10)


def test_length_study_makes_one_family_length_call(monkeypatch):
    calls = []
    family_length_many = hz.family_length_many
    monkeypatch.setattr(hz, "family_length_many", lambda *a: (
        calls.append(a) or family_length_many(*a)))
    hz.length_study(unit_square(), 64, 0.05, 1_000, seed=4)
    assert len(calls) == 1


def test_length_study_names_the_worst_family(monkeypatch):
    def lengths(body, eps, shifts):
        out = np.full(shifts.shape, body.area / eps)
        out[:, 2] += 3.0  # 2*diameter of the unit square is 2.83
        out[5, 4] -= 4.0
        return out
    monkeypatch.setattr(hz, "family_length_many", lengths)
    with pytest.raises(AssertionError, match="family 4 deviates by 4.0"):
        hz.length_study(unit_square(), 8, 0.05, 1_000)


def test_length_study_holds_its_bound_at_the_finest_admitted_pitch():
    """At 1.001 times the pitch floor every family stays within 2 diam of
    |Omega| / eps on a thin rectangle, the unit square and a triangle."""
    for body in (ConvexBody.polygon([(0, 0), (8, 0), (8, 0.125), (0, 0.125)]), unit_square(),
                 ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])):
        floor = 2.0 * (rounding_bound(body.scale) + PARALLEL * body.scale)
        with pytest.raises(ValidationError, match="^eps:"):
            hz.length_study(body, 4, floor, 1000)
        for seed in range(8):
            study = hz.length_study(body, 4, 1.001 * floor, 1000, seed=seed)
            assert study["max_abs_deviation"] <= 2.0 * body.diameter


def test_coherence_study_separates_modes():
    rows = hz.coherence_study(
        unit_square(), [16, 64, 256], [16e-4, 64e-4, 256e-4],
        trials=2_000, seed=2)
    ratios = []
    for row in rows:
        assert row.zero_probe >= 0.4 * row.n
        assert row.random_max <= row.random_bound
        ratios.append(row.zero_probe / row.random_max)
    assert ratios[0] < ratios[1] < ratios[2]


def test_coherence_study_requires_origin_inside():
    off_body = ConvexBody.polygon([(2, 2), (3, 2), (3, 3), (2, 3)])
    with pytest.raises(ValidationError, match="origin"):
        hz.coherence_study(off_body, [16], [0.01], trials=10)


def test_coherence_study_refuses_fewer_than_one_trial():
    for trials in (0, -1):
        with pytest.raises(ValidationError, match="trials"):
            hz.coherence_study(unit_square(), [16], [0.01], trials=trials)


def test_coherence_study_on_disk_through_origin():
    disk = ConvexBody.disk((0.0, 0.5), 0.5)  # origin on the boundary
    (row,) = hz.coherence_study(disk, [32], [0.002], trials=200)
    assert row.zero_probe >= 0.4 * 32
    assert row.random_max <= row.random_bound


def test_coherence_study_with_an_empty_probe_fan_reads_zero():
    """The square [-1, 0]^2 holds the origin as its corner, and every ray of
    the fan leaves it at once: no probe chord, so both maxima are 0.0."""
    corner = ConvexBody.polygon([(-1, -1), (0, -1), (0, 0), (-1, 0)])
    for n in (16, 64):
        assert hz._probe_exits(corner, n) == []
    rows = hz.coherence_study(corner, [16, 64], [16e-4, 64e-4], trials=50, seed=1)
    assert [(r.zero_probe, r.random_max) for r in rows] == [(0.0, 0.0)] * 2


def test_coherence_study_equals_the_two_path_reference():
    """Row 0 of the fused shift matrix is the zero-shift probe and rows 1:
    the stream's (trials, n) draw: each maximum equals, bit for bit, the one
    from separate z_samples calls on np.zeros((1, n)) and on that draw."""
    trials, seed = 300, 4
    for body in (unit_square(), ConvexBody.disk((0.1, -0.05), 0.8)):
        for n, eps in ((16, 16e-4), (64, 64e-4)):
            draw = hz.rng.stream(seed, f"coherence/{n}").random((trials, n))
            zero = random_max = 0.0
            for exit_point in hz._probe_exits(body, n):
                z0 = counting.z_samples(n, eps, np.zeros(2), exit_point, np.zeros((1, n)))
                zr = counting.z_samples(n, eps, np.zeros(2), exit_point, draw)
                zero = max(zero, abs(float(z0[0])))
                random_max = max(random_max, float(np.max(np.abs(zr))))
            assert zero > 0.0 and random_max > 0.0
            (row,) = hz.coherence_study(body, [n], [eps], trials=trials, seed=seed)
            assert (row.zero_probe, row.random_max) == (zero, random_max)


@pytest.mark.parametrize("body", [unit_square(), ConvexBody.disk((0.1, -0.05), 0.8)],
                         ids=["square", "disk"])
def test_studies_and_sweep_are_scale_covariant_to_the_bit(body):
    """Scaling the body, the lengths and the pitches by 2^k scales every length
    the sweep and the studies report by 2^k to the bit, and leaves the rest as
    it was: the row seeds, the length study's slack, the coherence bound and
    the probe's cutoff are all read in the body's unit.  The coherence study
    runs on the origin-centred square, so its probe chords start inside the
    body rather than at a corner."""
    centred = body if body.kind == "disk" else ConvexBody.polygon(
        [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    point = body.vertices.mean(axis=0) if body.kind == "polygon" else body.center
    x, y = point + (-0.3, -0.2), point + (0.35, 0.25)
    config = SupConfig(16, 16, 1, 0)

    def run(f):
        scaled = _scaled(body, f)
        sset, _ = sh.build_exact(scaled, 3000.0 * f, "shifted", 8)
        return (hz.run_sweep(scaled, [1e4 * f, 1e5 * f], "shifted", config, seed=3),
                hz.coherence_study(_scaled(centred, f), [16, 64], [16e-4 * f, 64e-4 * f],
                                   trials=50, seed=1),
                hz.length_study(scaled, 16, 0.05 * f, 1_000, seed=2),
                hz.z_tail_study(scaled, 16, 0.02 * f, x * f, y * f, 10_000, [1.0, 3.0], seed=4),
                hz.run_oracle_check(sset, 200, seed=5))

    sweep, coherence, length, tails, oracle = run(1.0)
    assert all(row.error is None for row in sweep) and oracle.comparisons > 150
    assert all(row.zero_probe > 0.0 and row.random_max > 0.0 for row in coherence)
    for k in (-40, -20, 20, 40):
        f = 2.0**k
        got = run(f)
        assert got[0] == [dataclasses.replace(
            row, L_target=row.L_target * f, M=row.M * f, eps=row.eps * f,
            L_actual=row.L_actual * f, wall_time_seconds=new.wall_time_seconds)
            for row, new in zip(sweep, got[0])], k
        assert got[1] == [dataclasses.replace(row, eps=row.eps * f) for row in coherence], k
        assert got[2] == {name: value * f for name, value in length.items()}, k
        assert got[3] == dataclasses.replace(tails, eps=tails.eps * f), k
        assert got[4] == dataclasses.replace(oracle, mismatches=tuple(
            (theta, offset * f, a, b) for theta, offset, a, b in oracle.mismatches)), k


def test_oracle_check_random_shifts():
    rng = np.random.default_rng(9)
    sset = sh.SteinhausSet(
        body=unit_square(), n=16, eps=0.08, shifts=rng.uniform(0, 1, 16))
    check = hz.run_oracle_check(sset, 400, seed=4)
    assert check.all_agree
    assert check.comparisons == 400
    assert check.mismatches == ()


def test_oracle_check_zero_shift_square():
    """Axis-aligned edges of the square lie exactly on unshifted lattice
    lines; counts must still agree with the geometric oracle there."""
    sset = sh.SteinhausSet(
        body=unit_square(), n=4, eps=0.25, shifts=np.zeros(4))
    check = hz.run_oracle_check(sset, 300, seed=11)
    assert check.all_agree
    with pytest.raises(ValidationError):
        hz.run_oracle_check(sset, 0)


def per_line_check(sset, thetas, offsets):
    """The oracle check one line at a time, as it was before batching: each
    line is compared once, unless either side screens it out."""
    agreements = skipped = 0
    max_family_deviation = 0.0
    mismatches = []
    for theta, offset in zip(thetas, offsets):
        line = Line(float(theta), float(offset))
        try:
            fast = count_line(sset, line)
            reference = oracle_count(sset, line)
        except ExceptionalLineError:
            skipped += 1
            continue
        _, deviation = count_lines(sset, [line.theta], [line.offset])
        max_family_deviation = max(max_family_deviation, float(deviation[0]))
        padding_hits, _ = segment_crossings(sset.padding, [line.theta], [line.offset],
                                            rounding_bound(sset.scale))
        if fast.total == reference and fast.padding_hits == padding_hits[0]:
            agreements += 1
        else:
            mismatches.append((line.theta, line.offset, fast.total, reference))
    return hz.OracleCheck(
        comparisons=len(thetas) - skipped, agreements=agreements, skipped=skipped,
        mismatches=tuple(mismatches), max_family_deviation=max_family_deviation)


def through_endpoints(points, gen):
    """A line at a random angle through each point."""
    thetas = gen.uniform(0.0, math.pi, len(points))
    return thetas, points[:, 0] * np.cos(thetas) + points[:, 1] * np.sin(thetas)


def oracle_case(name):
    """A set and its lines: 120 random lines over the body's offset extents
    +- 0.05, then lines through grid-segment and padding endpoints, which
    are screened."""
    gen = np.random.default_rng(31)
    if name == "padded":
        sset, _ = sh.build_exact(unit_square(), 3000.0, "shifted", 8)
        assert sset.padding_count > 0
    else:
        body, n, eps, shifts = {
            "polygon": (random_polygon(gen), 9, 0.02, None),
            "polygon-fine": (random_polygon(gen), 3, 0.001, None),
            "disk": (ConvexBody.disk((0.1, -0.05), 0.8), 7, 0.03, None),
            "square-zero": (unit_square(), 4, 0.25, np.zeros(4)),
        }[name]
        sset = sh.SteinhausSet(body=body, n=n, eps=eps, shifts=(
            sh.sample_shifts(n, 5) if shifts is None else shifts))
    thetas = math.pi * gen.random(120)
    lo, hi = sset.body.offset_extents(thetas)
    offsets = gen.uniform(lo - 0.05, hi + 0.05)
    segments, _, _ = sset.grid_segments
    ends = segments[gen.choice(len(segments), 12, replace=False), gen.integers(0, 2, 12)]
    pads = sset.padding.reshape(-1, 2)[:6]
    extra = [through_endpoints(points, gen) for points in (ends, pads)]
    return (sset, np.concatenate([thetas] + [t for t, _ in extra]),
            np.concatenate([offsets] + [p for _, p in extra]))


@pytest.mark.parametrize("name", ["polygon", "polygon-fine", "disk", "square-zero", "padded"])
def test_batched_oracle_check_equals_per_line_loop(name):
    sset, thetas, offsets = oracle_case(name)
    check = hz._check_lines(sset, thetas, offsets)
    assert check == per_line_check(sset, thetas, offsets)
    assert check.agreements == check.comparisons and check.mismatches == ()
    # the random lines are all compared; the lines through endpoints are screened
    assert check.skipped == len(thetas) - 120


def test_batched_oracle_check_in_small_blocks(monkeypatch):
    sset, thetas, offsets = oracle_case("padded")
    expected = hz._check_lines(sset, thetas, offsets)
    segments = len(sset.grid_segments[0])
    monkeypatch.setattr(counting, "KERNEL_CHUNK", 7 * segments)
    rows = counting.KERNEL_CHUNK // segments  # lines per oracle block
    assert len(thetas) >= 3 * rows and len(thetas) % rows
    assert hz._check_lines(sset, thetas, offsets) == expected


def test_oracle_check_calls_do_not_grow_with_lines(monkeypatch):
    sset = sh.SteinhausSet(body=unit_square(), n=7, eps=0.05, shifts=sh.sample_shifts(7, 2))
    calls = {"kernel": 0, "sign test": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(counting, "_line_block", counted("kernel", counting._line_block))
    monkeypatch.setattr(hz, "segment_crossings", counted("sign test", hz.segment_crossings))
    for lines in (250, 1000):
        calls.update({"kernel": 0, "sign test": 0})
        check = hz.run_oracle_check(sset, lines, seed=3)
        assert check.comparisons == lines
        # one kernel line block; one sign test for the grid, one for the padding
        assert counting._workspace(sset)[0] >= lines
        assert calls["kernel"] == 1
        assert calls["sign test"] <= 2


def test_oracle_mismatch_records_the_offset_compared(monkeypatch):
    sset = sh.SteinhausSet(body=unit_square(), n=5, eps=0.05, shifts=sh.sample_shifts(5, 6))
    theta, offset = through_endpoints(sset.grid_segments[0][[40], 0], np.random.default_rng(2))
    with pytest.raises(ExceptionalLineError):
        count_line(sset, Line(float(theta[0]), float(offset[0])))
    crossings = hz.segment_crossings
    monkeypatch.setattr(hz, "segment_crossings",
                        lambda *args: (crossings(*args)[0] + 1, crossings(*args)[1]))
    check = hz._check_lines(sset, theta, offset)
    assert check.skipped == 1 and check.mismatches == ()  # the endpoint line
    theta, offset = np.append(theta, 0.7), np.append(offset, 0.4)  # an ordinary line
    check = hz._check_lines(sset, theta, offset)
    ((theta_m, offset_m, fast, reference),) = check.mismatches
    assert theta_m == theta[1] and offset_m == offset[1]  # the offset drawn, unmoved
    assert count_line(sset, Line(theta_m, offset_m)).total == fast == reference - 1
