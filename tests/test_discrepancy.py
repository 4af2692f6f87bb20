"""Discrepancy terms and the sup estimator: goldens, identities, monotonicity."""

import json
import math
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buffon.cli import main
from buffon.geometry import ConvexBody, Line, ValidationError, dump_body, unit_square
from buffon import discrepancy
from buffon import steinhaus as sh
from buffon.rng import stream
from buffon.counting import ExceptionalLineError, count_line, evaluate_lines, z_samples
from buffon.discrepancy import (
    DiscrepancyReport,
    _phase,
    _terms,
    _top,
    SupConfig,
    angular_sum,
    crofton_target,
    decompose,
    estimate_sup,
    format_report,
    load_report,
    local_discrepancy,
    max_quadrature_deviation,
    save_report,
)

from test_geometry import random_polygon


def test_crofton_target_goldens():
    assert crofton_target(math.pi, 2.0, 1.0) == 1.0
    assert crofton_target(0.0, 1.0, 0.5) == 0.0
    assert crofton_target(100.0, 1.0, 0.7) == pytest.approx(
        44.56338406573, abs=1e-9)
    for bad in [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -0.1)]:
        with pytest.raises(ValidationError):
            crofton_target(*bad)
    # elementwise in h, with the scalar bits at each element
    h = np.array([0.0, 0.5, 0.7])
    assert crofton_target(100.0, 1.0, h).tolist() == [
        crofton_target(100.0, 1.0, float(x)) for x in h]
    with pytest.raises(ValidationError, match="^h:"):
        crofton_target(1.0, 1.0, np.array([0.5, -0.1]))


def test_angular_sum_goldens():
    assert angular_sum(1, 0.0) == 1.0
    assert angular_sum(2, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert abs(angular_sum(100, 0.37) - 200.0 / math.pi) < 0.05
    with pytest.raises(ValidationError):
        angular_sum(0, 0.1)


@given(st.integers(1, 60), st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_angular_sum_matches_direct_loop(n, theta):
    want = math.fsum(abs(math.cos(theta - math.pi * k / n)) for k in range(n))
    assert angular_sum(n, theta) == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.integers(1, 40), st.floats(0, math.pi))
@settings(max_examples=100, deadline=None)
def test_angular_sum_period_pi_over_n(n, theta):
    assert angular_sum(n, theta + math.pi / n) == pytest.approx(
        angular_sum(n, theta), rel=1e-12, abs=1e-10)


def _angular_sum_loop(n, thetas):
    """The n-term sum, in row blocks so the (angles x families) matrix stays small."""
    angles = math.pi * np.arange(n) / n
    return np.concatenate([
        np.abs(np.cos(thetas[lo:lo + 256, None] - angles[None, :])).sum(axis=1)
        for lo in range(0, thetas.size, 256)])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 37, 554, 4096])
def test_angular_sum_closed_form_on_arrays_and_seams(n):
    """The closed form switches branch where (theta + pi/2) mod (pi/n) wraps
    to 0: check every seam in [-pi/2, pi/2], the floats on both sides of
    it, and random angles, against the n-term sum."""
    seams = math.pi * np.arange(n + 1) / n - math.pi / 2
    thetas = np.concatenate([
        seams, np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf),
        np.random.default_rng(n).uniform(-10, 10, 300)])
    got = angular_sum(n, thetas)
    assert got.shape == thetas.shape
    # atol for n=1 only: |cos| vanishes on its seams
    np.testing.assert_allclose(got, _angular_sum_loop(n, thetas), rtol=1e-12, atol=1e-15)
    assert isinstance(angular_sum(n, 0.3), float)


def test_max_quadrature_deviation_matches_brute_force_on_c3_grid():
    """The deviation cancels two sums of size 2n/pi, so it is compared to
    1e-12 of that size."""
    thetas = stream(9001, "quadrature").uniform(0, math.pi, 10_000)
    for n in (4, 64, 512, 4096):
        brute = float(np.abs(_angular_sum_loop(n, thetas) - 2 * n / math.pi).max())
        assert max_quadrature_deviation(n, thetas) == pytest.approx(
            brute, rel=0, abs=1e-12 * 2 * n / math.pi)


def test_quadrature_deviation_decays_like_one_over_n():
    rng = np.random.default_rng(31)
    thetas = rng.uniform(0, math.pi, 2000)
    for n in (4, 16, 128):
        dev = max_quadrature_deviation(n, thetas)
        brute = max(abs(angular_sum(n, t) - 2 * n / math.pi) for t in thetas[:50])
        assert dev >= brute - 1e-12
        assert 0.1 < dev * n < 0.6


def test_local_discrepancy_missing_line_is_zero():
    rng = np.random.default_rng(32)
    sset = sh.SteinhausSet(
        body=unit_square(), n=8, eps=0.05, shifts=rng.uniform(0, 1, 8))
    assert local_discrepancy(sset, Line(0.3, 9.0), 100.0) == 0.0


def test_decomposition_reconstructs_signed_error():
    rng = np.random.default_rng(33)
    for body in [unit_square(), random_polygon(rng), ConvexBody.disk((0.1, 0.0), 0.7)]:
        n = int(rng.integers(4, 50))
        sset = sh.SteinhausSet(
            body=body, n=n, eps=float(rng.uniform(0.01, 0.1)),
            shifts=rng.uniform(0, 1, n))
        length = sh.total_length(sset) * float(rng.uniform(0.9, 1.1))
        for _ in range(40):
            line = Line(rng.uniform(0, math.pi), rng.uniform(-1.0, 1.0))
            try:
                terms = decompose(sset, line, length)
            except ExceptionalLineError:
                continue
            rebuilt = (terms["quadrature_term"] + terms["z_term"]
                       + terms["padding_term"]
                       + terms["length_normalization_term"])
            assert terms["signed_error"] == pytest.approx(rebuilt, abs=1e-8)
            assert local_discrepancy(sset, line, length) == abs(
                terms["signed_error"])
            # triangle inequality form, term by term
            envelope = (abs(terms["quadrature_term"]) + abs(terms["z_term"])
                        + terms["padding_term"]
                        + abs(terms["length_normalization_term"]))
            assert abs(terms["signed_error"]) <= envelope + 1e-8


def test_local_discrepancy_propagates_exceptional():
    sset = sh.SteinhausSet(
        body=unit_square(), n=1, eps=0.25, shifts=np.array([0.0]))
    with pytest.raises(ExceptionalLineError):
        local_discrepancy(sset, Line(0.0, 0.5), 4.0)


def test_unshifted_corner_chords_have_coherent_error():
    """Chords with one endpoint at the common point of every unshifted family
    carry |Z| on the order of n/2: endpoint errors all share one sign."""
    n = 128
    best = 0.0
    for phi in np.linspace(math.pi / 2 - math.pi / n, math.pi / 2, 9)[1:]:
        exit_point = (math.cos(phi), math.sin(phi))
        z = z_samples(n, 0.005, (0.0, 0.0), exit_point, np.zeros((1, n)))
        best = max(best, abs(float(z[0])))
    assert best >= 0.4 * n


def test_sup_config_validation(small_set):
    sset, _ = small_set
    for length in (math.nan, -1.0):
        with pytest.raises(ValidationError, match="^length:"):
            estimate_sup(sset, length, SupConfig())
    with pytest.raises(ValidationError):
        SupConfig(theta_resolution=7)
    with pytest.raises(ValidationError):
        SupConfig(offset_resolution=4)
    with pytest.raises(ValidationError):
        SupConfig(refine_rounds=-1)
    with pytest.raises(ValidationError):
        SupConfig(seed=-2)
    for name in ("theta_resolution", "offset_resolution", "refine_rounds", "seed"):
        with pytest.raises(ValidationError, match=f"^{name}:"):
            SupConfig(**{name: True})  # a saved report may hold no boolean


@pytest.fixture(scope="module")
def small_set():
    rng = np.random.default_rng(34)
    sset = sh.SteinhausSet(
        body=unit_square(), n=16, eps=0.04, shifts=rng.uniform(0, 1, 16))
    return sset, sh.total_length(sset)


def test_estimate_sup_dominates_grid_lines(small_set):
    sset, length = small_set
    config = SupConfig(theta_resolution=16, offset_resolution=16,
                       refine_rounds=0, seed=5)
    report = estimate_sup(sset, length, config)
    # grid lines are a subset of the evaluated samples: max dominates
    thetas = math.pi * np.arange(16) / 16
    lo, hi = sset.body.offset_extents(thetas)
    for theta, glo, ghi in zip(thetas, lo, hi):
        for j in range(16):
            line = Line(float(theta), float(glo + (ghi - glo) * j / 16))
            try:
                value = local_discrepancy(sset, line, length)
            except ExceptionalLineError:
                continue
            assert report.sup_estimate >= value - 1e-9


def test_estimate_sup_monotone_under_doubling(small_set):
    sset, length = small_set
    sups = []
    for res in (16, 32, 64):
        config = SupConfig(theta_resolution=res, offset_resolution=res,
                           refine_rounds=0, seed=9)
        sups.append(estimate_sup(sset, length, config).sup_estimate)
    assert sups[0] <= sups[1] + 1e-12
    assert sups[1] <= sups[2] + 1e-12


def test_estimate_sup_monotone_in_refine_rounds(small_set):
    sset, length = small_set
    sups = []
    for rounds in (0, 1, 2):
        config = SupConfig(theta_resolution=24, offset_resolution=24,
                           refine_rounds=rounds, seed=9)
        sups.append(estimate_sup(sset, length, config).sup_estimate)
    assert sups[0] <= sups[1] + 1e-12
    assert sups[1] <= sups[2] + 1e-12


def test_estimate_sup_witness_recomputes_and_is_deterministic(small_set):
    sset, length = small_set
    config = SupConfig(theta_resolution=32, offset_resolution=32,
                       refine_rounds=1, seed=2)
    r1 = estimate_sup(sset, length, config)
    r2 = estimate_sup(sset, length, config)
    assert r1.to_dict() == r2.to_dict()
    # the witness re-attains the estimate bit for bit, in its own kernel row
    # and in the search's batch
    witness = Line(r1.witness_theta, r1.witness_offset)
    assert local_discrepancy(sset, witness, length) == r1.sup_estimate
    batch = evaluate_lines(sset, np.array([witness.theta]), np.array([witness.offset]))
    assert batch.h[0] == r1.witness_chord_length
    signed = _terms(sset, length, batch.total, batch.padding_hits, batch.mean_term, batch.h)[3]
    assert abs(signed[0]) == r1.sup_estimate
    assert r1.samples_evaluated >= 32 * 32 + (32 * 32) // 8
    assert r1.max_abs_z >= abs(r1.witness_z_term) - 1e-9
    assert r1.envelope_upper >= r1.sup_estimate - 1e-9
    assert r1.max_padding_hits <= sset.padding_count


def test_envelope_violation_names_its_line_and_disc_exits_2(
        monkeypatch, small_set, tmp_path, capsys):
    """One included line pushed far past its envelope stops the search, and
    the message names its theta and offset."""
    sset, length = small_set
    config = SupConfig(theta_resolution=16, offset_resolution=16, refine_rounds=0)
    batches, pushed = [], []
    evaluate, terms = discrepancy.evaluate_lines, discrepancy._terms
    monkeypatch.setattr(discrepancy, "evaluate_lines",
                        lambda *args: batches.append(evaluate(*args)) or batches[-1])

    def push_one(*args):
        quad, norm, crof, signed = terms(*args)
        batch = batches[-1]
        k = int(np.flatnonzero(batch.valid & ~batch.exceptional)[0])
        pushed.append((batch.theta[k], batch.offset[k]))
        signed[k] += 1e6
        return quad, norm, crof, signed

    monkeypatch.setattr(discrepancy, "_terms", push_one)
    with pytest.raises(AssertionError, match="^decomposition inequality violated: ") as info:
        estimate_sup(sset, length, config)
    theta, offset = pushed[0]
    assert f"theta={theta!r} offset={offset!r} " in str(info.value)
    set_path = tmp_path / "set.json"
    sh.save_manifest(sset, set_path)
    capsys.readouterr()
    assert main(["disc", "--set", str(set_path), "--theta-res", "16",
                 "--offset-res", "16", "--refine", "0"]) == 2
    assert capsys.readouterr().err.startswith(
        "internal assertion failed: decomposition inequality violated: ")


def test_witness_recount_mismatch_names_the_witness(monkeypatch, small_set):
    sset, length = small_set
    config = SupConfig(theta_resolution=16, offset_resolution=16, refine_rounds=0)
    report = estimate_sup(sset, length, config)
    recount = discrepancy.decompose

    def shifted(*args):
        terms = recount(*args)
        return {**terms, "signed_error": terms["signed_error"] + 1.0}

    monkeypatch.setattr(discrepancy, "decompose", shifted)
    with pytest.raises(AssertionError, match="^witness recomputation mismatch: ") as info:
        estimate_sup(sset, length, config)
    assert str(info.value).endswith(
        f"theta={report.witness_theta!r} offset={report.witness_offset!r}")


def test_witness_recounted_as_exceptional_is_an_internal_fault(
        monkeypatch, small_set, tmp_path, capsys):
    """The witness's search row was not exceptional, so a recount that finds it
    exceptional is the kernel disagreeing with itself: an AssertionError that
    names the witness, and `buffon disc` exits 2, not 1."""
    sset, length = small_set
    config = SupConfig(theta_resolution=16, offset_resolution=16, refine_rounds=0)
    report = estimate_sup(sset, length, config)

    def exceptional(sset, line):
        raise ExceptionalLineError(line.theta, line.offset, "recount")

    monkeypatch.setattr(discrepancy, "count_line", exceptional)
    with pytest.raises(AssertionError, match="^witness recomputation mismatch: ") as info:
        estimate_sup(sset, length, config)
    assert str(info.value).endswith(
        f"theta={report.witness_theta!r} offset={report.witness_offset!r}")
    set_path = tmp_path / "set.json"
    sh.save_manifest(sset, set_path)
    capsys.readouterr()
    assert main(["disc", "--set", str(set_path), "--theta-res", "16",
                 "--offset-res", "16", "--refine", "0"]) == 2
    assert capsys.readouterr().err.startswith(
        "internal assertion failed: witness recomputation mismatch: ")


def test_estimate_sup_counts_base_samples_exactly(small_set):
    sset, length = small_set
    config = SupConfig(theta_resolution=16, offset_resolution=16,
                       refine_rounds=0, seed=1)
    report = estimate_sup(sset, length, config)
    assert report.samples_evaluated == 16 * 16 + (16 * 16) // 8


def test_estimate_sup_separates_unshifted_from_shifted():
    body = unit_square()
    n, eps = 64, 0.01
    zero = sh.SteinhausSet(body=body, n=n, eps=eps, shifts=np.zeros(n))
    rnd = sh.SteinhausSet(body=body, n=n, eps=eps,
                          shifts=sh.sample_shifts(n, 7))
    config = SupConfig(theta_resolution=48, offset_resolution=48,
                       refine_rounds=1, seed=3)
    sup_zero = estimate_sup(zero, sh.total_length(zero), config).sup_estimate
    sup_rnd = estimate_sup(rnd, sh.total_length(rnd), config).sup_estimate
    assert sup_zero > 1.5 * sup_rnd
    assert sup_zero >= 0.4 * n


def test_estimate_sup_handles_single_family():
    sset = sh.SteinhausSet(
        body=unit_square(), n=1, eps=0.125, shifts=np.array([0.25]))
    config = SupConfig(theta_resolution=8, offset_resolution=8,
                       refine_rounds=1, seed=0)
    report = estimate_sup(sset, sh.total_length(sset), config)
    # one family of vertical lines: a near-vertical chord threads the gap
    # between lattice lines, crossing none while the target stays ~5.1
    assert report.sup_estimate >= 5.0
    assert report.witness_total == 0


def test_targeted_stream_is_prefix_stable_and_aims_c_rows_at_vertices():
    """The first k lines of a longer stream are the k-line stream; every line
    is finite with theta in [0, pi); on a polygon each row whose first
    uniform is >= 0.5 (variant C) passes within eps 2^-3 of a vertex, which
    few of the other rows (variant A) do."""
    square, disk = unit_square(), ConvexBody.disk((0.1, -0.05), 0.8)
    shifts = np.random.default_rng(35).uniform(0, 1, 16)
    for sset in (sh.SteinhausSet(body=square, n=1, eps=0.125, shifts=[0.25]),
                 sh.SteinhausSet(body=square, n=16, eps=0.04, shifts=shifts),
                 sh.SteinhausSet(body=disk, n=1, eps=0.125, shifts=[0.25]),
                 sh.SteinhausSet(body=disk, n=16, eps=0.04, shifts=shifts)):
        th, off = discrepancy._targeted_lines(sset, 1024, 9)
        short = discrepancy._targeted_lines(sset, 256, 9)
        assert th[:256].tolist() == short[0].tolist()
        assert off[:256].tolist() == short[1].tolist()
        assert np.all(np.isfinite(off)) and np.all((th >= 0.0) & (th < math.pi))
        if sset.body.kind != "polygon":
            continue
        verts = sset.body.vertices
        miss = np.abs(np.cos(th)[:, None] * verts[:, 0] + np.sin(th)[:, None] * verts[:, 1]
                      - off[:, None]).min(axis=1)
        near = miss <= sset.eps * 2.0 ** -3 + 1e-15
        pick_c = stream(9, "targeted").random((1024, 12))[:, 0] >= 0.5
        assert 400 < pick_c.sum() < 624 and np.all(near[pick_c])
        assert near[~pick_c].mean() < 0.2


def test_estimate_sup_without_admissible_lines_is_refused():
    """At a pitch below twice an endpoint's tolerance every valid line is
    exceptional, so the refine round has no candidate (an empty phase) and
    the search, having counted no line, is refused with its counts.
    (No set length is measured: the search takes the length, 40, as given.)"""
    # just above the pitch floor of 3.42e-14: an endpoint's tolerance, at least
    # 3 rounding_bound(1) = 2.13e-14 (kappa >= 1), exceeds half a pitch
    sset = sh.SteinhausSet(body=ConvexBody.disk((0, 0), 1), n=1, eps=3.5e-14,
                           shifts=[0.5])
    with pytest.raises(ValidationError, match=r"^eps: no sampled line could be counted "
                       r"at pitch 3.5e-14: 64 of 72 were exceptional"):
        estimate_sup(sset, 40.0, SupConfig(8, 8, 1, 0))


def test_search_that_counts_no_line_is_refused_at_1e14(tmp_path, capsys):
    """The planner admits the zero-shift square at L = 1e14, but every sampled
    line that meets the body is exceptional there: the library refuses the
    search, and `buffon disc` exits 1 with one error line."""
    body_path, set_path = tmp_path / "square.json", tmp_path / "set.json"
    dump_body(unit_square(), body_path)
    assert main(["build", "--body", str(body_path), "--mode", "zero", "--length", "1e14",
                 "--out", str(set_path)]) == 0
    sset = sh.load_manifest(set_path)
    with pytest.raises(ValidationError, match=r"^eps: .* 268 of 288 were exceptional "
                                              r"and the rest missed the body"):
        estimate_sup(sset, sh.total_length(sset), SupConfig(16, 16, 1, 0))
    capsys.readouterr()
    assert main(["disc", "--set", str(set_path), "--theta-res", "16",
                 "--offset-res", "16", "--refine", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: eps: ") and out.err.count("\n") == 1


def _padded_polygon_set():
    body = random_polygon(np.random.default_rng(61), 6)
    base = sh.SteinhausSet(body=body, n=12, eps=0.05,
                           shifts=np.random.default_rng(62).uniform(0, 1, 12))
    sset = sh.adjust_length(base, sh.grid_length(base) + 3.7)
    assert sset.padding_count >= 3
    return sset, sh.total_length(sset), SupConfig(16, 16, 2, 3)


def _padded_disk_set():
    base = sh.SteinhausSet(body=ConvexBody.disk((0.3, -0.2), 0.6), n=12, eps=0.05,
                           shifts=np.random.default_rng(63).uniform(0, 1, 12))
    sset = sh.adjust_length(base, sh.grid_length(base) + 2.9)
    assert sset.padding_count >= 3
    return sset, sh.total_length(sset), SupConfig(16, 16, 2, 3)


@pytest.mark.parametrize("case", [_padded_polygon_set, _padded_disk_set])
def test_report_counts_and_maxima_are_those_of_the_evaluated_lines(monkeypatch, case):
    """One evaluate_lines call per phase (grid, targeted, each refine round),
    then one decompose recount of the witness; the report's counts and
    maxima are exactly those of the included lines of the recorded batches."""
    sset, length, config = case()
    batches, recounts = [], []
    evaluate, recount = discrepancy.evaluate_lines, discrepancy.decompose
    monkeypatch.setattr(discrepancy, "evaluate_lines",
                        lambda *args: batches.append(evaluate(*args)) or batches[-1])
    monkeypatch.setattr(discrepancy, "decompose",
                        lambda *args: recounts.append(args) or recount(*args))
    report = estimate_sup(sset, length, config)
    assert len(batches) == 2 + config.refine_rounds and len(recounts) == 1
    assert report.samples_evaluated == sum(b.theta.size for b in batches)
    assert report.excluded_lines == sum(int(b.exceptional.sum()) for b in batches)
    batch = evaluate_lines(sset, np.concatenate([b.theta for b in batches]),
                           np.concatenate([b.offset for b in batches]))
    include = batch.valid & ~batch.exceptional
    quad, norm, _, _ = _terms(sset, length, batch.total, batch.padding_hits,
                              batch.mean_term, batch.h)
    max_quad, max_z, max_norm = (float(np.abs(v[include]).max(initial=0.0))
                                 for v in (quad, batch.z, norm))
    assert report.max_abs_quadrature == max_quad and report.max_abs_z == max_z
    assert report.max_padding_hits == int(batch.padding_hits[include].max(initial=0))
    assert report.envelope_upper == max_quad + max_z + sset.padding_count + max_norm
    assert type(report.max_abs_z) is float and type(report.max_padding_hits) is int
    assert "np." not in format_report(report)
    assert include.any() and report.max_padding_hits > 0


def test_report_round_trip_and_strict_keys(tmp_path, small_set):
    sset, length = small_set
    config = SupConfig(theta_resolution=16, offset_resolution=16,
                       refine_rounds=0, seed=4)
    report = estimate_sup(sset, length, config)
    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report
    data = report.to_dict()
    data["unexpected"] = 1
    with pytest.raises(ValidationError):
        DiscrepancyReport.from_dict(data)
    del data["unexpected"]
    del data["sup_estimate"]
    with pytest.raises(ValidationError):
        DiscrepancyReport.from_dict(data)
    text = format_report(report)
    for name in ("sup_estimate", "witness_theta", "max_abs_z",
                 "envelope_upper", "samples_evaluated"):
        assert name in text


@pytest.mark.parametrize("value", ["x", True, None])
def test_report_refuses_a_value_of_the_wrong_type_naming_its_field(tmp_path, value):
    """Every field is a number of its type: a string, a boolean or null is
    refused, on loading as on from_dict, with the field's name."""
    data = {name: 0 if kind is int else 1.5
            for name, kind in get_type_hints(DiscrepancyReport).items()}
    assert DiscrepancyReport.from_dict(data).to_dict() == data
    path = tmp_path / "report.json"
    for name in data:
        path.write_text(json.dumps({**data, name: value}))
        with pytest.raises(ValidationError) as info:
            load_report(path)
        assert info.value.field == name


@pytest.mark.parametrize("text", ["{not json", "5"])
def test_load_report_refuses_malformed_json_and_non_objects(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        load_report(path)
    assert info.value.field == "report"


def test_report_json_is_deterministic(tmp_path, small_set):
    sset, length = small_set
    config = SupConfig(theta_resolution=16, offset_resolution=16,
                       refine_rounds=1, seed=8)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_report(estimate_sup(sset, length, config), p1)
    save_report(estimate_sup(sset, length, config), p2)
    assert p1.read_bytes() == p2.read_bytes()
    parsed = json.loads(p1.read_text())
    assert parsed["theta_resolution"] == 16


def test_witness_tie_break_is_smallest_theta_then_offset():
    """Among lines of equal maximal local value the witness is the
    lexicographically smallest (theta, offset), whatever the batch order."""
    # No lattice line meets the disk (pitch 10, lines at x = +-5, ...), so
    # every count is 0 and the local value 2 L h / (pi |Omega|) depends on
    # |offset| alone: offsets +-0.25 tie at every angle, 0.5 is lower.
    sset = sh.SteinhausSet(body=ConvexBody.disk((0.0, 0.0), 1.0), n=1,
                           eps=10.0, shifts=np.array([0.5]))
    thetas = np.repeat([0.3, 0.1, 2.0, 1.0], 3)
    offsets = np.tile([0.25, 0.5, -0.25], 4)
    tied = sorted((t, p) for t in (0.3, 0.1, 2.0, 1.0) for p in (-0.25, 0.25))
    rng = np.random.default_rng(0)
    for _ in range(8):
        order = rng.permutation(len(thetas))
        cut = int(rng.integers(1, len(thetas)))
        phases = [_phase(sset, 40.0, thetas[part], offsets[part])
                  for part in (order[:cut], order[cut:])]
        th, po, values = _top(phases, len(thetas))
        assert values[0] == values[7] > values[8]
        assert list(zip(th[:8].tolist(), po[:8].tolist())) == tied
    # the search's grid ties every angle at offset 0: the witness is theta 0
    report = estimate_sup(sset, 40.0, SupConfig(8, 8, 1, 0))
    assert (report.witness_theta, report.witness_offset) == (0.0, 0.0)


def _fake_phases(rng, sizes):
    """Phases as _phase returns them, of lines drawn from few angles, offsets
    and local values, so ties are common."""
    return [(size, 0, rng.choice([0.1, 0.2, 3.0], size), rng.choice([-1.0, 0.0, 0.5], size),
             rng.choice([0.0, 1.0, 2.5, 7.0], size), 0.0, 0.0, 0, 0.0) for size in sizes]


def _full_sort_top(phases, count):
    th, po, lv = (np.concatenate(a) for a in list(zip(*phases))[2:5])
    order = np.lexsort((po, th, -lv))[:count]
    return th[order], po[order], lv[order]


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 60), min_size=1, max_size=4),
       count=st.integers(1, 150), seed=st.integers(0, 2**32 - 1))
def test_top_partition_equals_the_full_sort(sizes, count, seed):
    """_top sorts only the lines at or above the count-th largest value, ties
    at the cut included: its lines and their order are the full lexsort's,
    whether count is below the included lines (ties straddling the cut),
    above them, or there are none."""
    phases = _fake_phases(np.random.default_rng(seed), sizes)
    for got, want in zip(_top(phases, count), _full_sort_top(phases, count)):
        assert np.array_equal(got, want)


def test_top_keeps_every_tie_at_the_cut():
    """Seven lines tie at the 3rd largest value: the two taken are the
    lexicographically smallest of the seven, not the first two partitioned."""
    th = np.array([3.0, 0.2, 0.1, 0.2, 3.0, 0.1, 0.2, 0.1, 3.0])
    po = np.array([0.0, 0.5, 0.5, -1.0, -1.0, 0.0, 0.0, -1.0, 0.5])
    lv = np.array([1.0, 2.5, 2.5, 2.5, 2.5, 2.5, 7.0, 2.5, 2.5])
    phases = [(9, 0, th[:4], po[:4], lv[:4], 0.0, 0.0, 0, 0.0),
              (9, 0, th[4:], po[4:], lv[4:], 0.0, 0.0, 0, 0.0)]
    cth, cpo, clv = _top(phases, 3)
    assert clv.tolist() == [7.0, 2.5, 2.5]
    assert list(zip(cth.tolist(), cpo.tolist())) == [(0.2, 0.0), (0.1, -1.0), (0.1, 0.0)]
    for count in (3, 9, 12):
        for got, want in zip(_top(phases, count), _full_sort_top(phases, count)):
            assert np.array_equal(got, want)
    empty = _fake_phases(np.random.default_rng(0), [0, 0])
    assert all(a.size == 0 for a in _top(empty, 100))
