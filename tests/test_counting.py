"""Counting oracles: integer-scan and geometric cross-checks of the O(1) formula."""

import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buffon.geometry import (TANGENCY_CUTOFF, ConvexBody, Line, ValidationError, rounding_bound,
                             unit_square)
from buffon import steinhaus as sh
from buffon import counting
from buffon.counting import (
    ExceptionalLineError,
    count_in_interval,
    count_line,
    evaluate_lines,
    oracle_count,
    segment_crossings,
    z_samples,
)
from buffon.harness import run_oracle_check

from test_geometry import chord_of, random_polygon


def scan_count(a, b, eps, u):
    """Brute-force integer scan of #{q : eps (q + u) in [a, b)}."""
    qlo = math.floor(a / eps - u) - 2
    qhi = math.ceil(b / eps - u) + 2
    return sum(1 for q in range(qlo, qhi + 1) if a <= eps * (q + u) < b)


def lattice_distance(x, eps, u):
    """Exact distance (in projection units) from x to the nearest eps*(q+u)."""
    t = Fraction(x) / Fraction(eps) - Fraction(u)
    frac = t - math.floor(t)
    return float(min(frac, 1 - frac) * Fraction(eps))


def test_count_in_interval_frozen_examples():
    assert count_in_interval(0.0, 1.0, 0.5, 0.0) == 2  # 0 and 0.5
    assert count_in_interval(0.3, 0.3, 0.1, 0.77) == 0  # empty half-open
    assert count_in_interval(0.25, 1.0, 0.25, 0.0) == 3  # 0.25, 0.5, 0.75; 1.0 out
    assert count_in_interval(0.0, 1.0, 0.25, 0.5) == 4  # 0.125 .. 0.875
    assert count_in_interval(-1.0, 1.0, 0.5, 0.25) == 4  # -0.875 .. 0.625


@given(
    st.floats(-5, 5),
    st.floats(0, 3),
    st.floats(0.01, 2.0),
    st.floats(0, 1, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_count_in_interval_matches_scan(a, width, eps, u):
    b = a + width
    # The formula is only contracted away from lattice values (the same
    # 1e-9 screen the exceptional-line policy applies): with an endpoint ON
    # a lattice point (e.g. a=1.1, b=1.11, eps=0.01) the half-open count is
    # float-indeterminate and formula and scan legitimately differ by 1.
    assume(lattice_distance(a, eps, u) > 1e-9)
    assume(lattice_distance(b, eps, u) > 1e-9)
    assert count_in_interval(a, b, eps, u) == scan_count(a, b, eps, u)


@given(st.floats(-5, 5), st.floats(0, 3), st.floats(0.01, 2.0), st.floats(0, 1, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_count_within_one_of_mean(a, width, eps, u):
    b = a + width
    n = count_in_interval(a, b, eps, u)
    assert abs(n - (b - a) / eps) <= 1.0 + 1e-12


def test_count_line_unit_square_single_family():
    sset = sh.SteinhausSet(body=unit_square(), n=1, eps=0.25, shifts=np.array([0.5]))
    bd = count_line(sset, Line(math.pi / 2, 0.37))
    assert bd.total == 4
    assert bd.mean_term == pytest.approx(4.0, abs=1e-12)
    assert bd.z == pytest.approx(0.0, abs=1e-12)
    assert bd.padding_hits == 0
    # parallel and coincident with the lattice line x = 0.375: exceptional
    with pytest.raises(ExceptionalLineError):
        count_line(sset, Line(0.0, 0.375))
    # parallel but strictly between lattice lines: zero crossings
    assert count_line(sset, Line(0.0, 0.3)).total == 0


def kernel_rows(sset, thetas, ps):
    """The kernel's batch of the lines and their raw (lines x families)
    counts, collected from _eval_blocks' family blocks."""
    batch = counting._new_batch(thetas, ps)
    per_family = np.empty((len(batch.theta), sset.n))
    for rows, counts in counting._eval_blocks(sset, batch):
        per_family[rows] = counts
    return batch, per_family


def test_z_identity_and_mean_term_recomputation():
    rng = np.random.default_rng(21)
    for body in [unit_square(), random_polygon(rng), ConvexBody.disk((0, 0.2), 0.9)]:
        n = int(rng.integers(2, 40))
        sset = sh.SteinhausSet(
            body=body, n=n, eps=float(rng.uniform(0.02, 0.2)),
            shifts=rng.uniform(0, 1, n),
        )
        for _ in range(60):
            line = Line(rng.uniform(0, math.pi), rng.uniform(-1.2, 1.2))
            try:
                bd = count_line(sset, line)
            except ExceptionalLineError:
                continue
            # decomposition identity is exact in floats by construction
            assert bd.mean_term == bd.total - bd.z
            _, per_family = kernel_rows(sset, [line.theta], [line.offset])
            assert bd.total == int(per_family[0].sum())
            # mean_term independently: (h / eps) * sum_k |t . nu_k|
            ch = chord_of(body, line)
            if ch is None:
                assert bd.total == 0 and bd.chord_length == 0.0
                continue
            start, end, length = ch
            assert bd.chord_length == length
            t = (end - start) / length
            want = length / sset.eps * float(np.abs(sset.directions @ t).sum())
            assert bd.mean_term == pytest.approx(want, rel=1e-12, abs=1e-9)
            # per-family counts match the scalar formula
            for k in range(sset.n):
                pa = float(start @ sset.directions[k])
                pb = float(end @ sset.directions[k])
                want_k = count_in_interval(
                    min(pa, pb), max(pa, pb), sset.eps, sset.shifts[k]
                )
                assert per_family[0, k] == want_k


def test_per_family_error_below_one():
    rng = np.random.default_rng(22)
    body = random_polygon(rng)
    sset = sh.SteinhausSet(
        body=body, n=32, eps=0.03, shifts=rng.uniform(0, 1, 32)
    )
    thetas = rng.uniform(0, math.pi, 500)
    ps = rng.uniform(-1.2, 1.2, 500)
    batch, deviation = counting.count_lines(sset, thetas, ps)
    ok = np.flatnonzero(batch.valid & ~batch.exceptional)
    assert ok.size > 100
    assert np.all(deviation[ok] <= 1.0 + 1e-9)


def test_family_deviation_is_one_lines_formula():
    """count_lines' deviation of each line is max_k |N_k - (h/eps) |t . nu_k||
    with t . nu_k from one matrix-vector product, as for the line alone, and
    equals the line's own count_lines deviation, bit for bit."""
    rng = np.random.default_rng(23)
    sset = sh.SteinhausSet(body=ConvexBody.disk((0.1, -0.05), 0.8), n=101, eps=0.003,
                           shifts=rng.uniform(0, 1, 101))
    thetas = rng.uniform(0, math.pi, 300)
    ps = rng.uniform(-0.8, 0.8, 300)
    batch, deviation = counting.count_lines(sset, thetas, ps)
    _, per_family = kernel_rows(sset, thetas, ps)
    ok = np.flatnonzero(batch.valid & ~batch.exceptional)
    assert ok.size > 100
    for i in ok:
        _, alone = counting.count_lines(sset, thetas[i:i + 1], ps[i:i + 1])
        tangent = np.array([-math.sin(thetas[i]), math.cos(thetas[i])])
        mean_k = batch.h[i] / sset.eps * np.abs(sset.directions @ tangent)
        assert deviation[i] == alone[0] == np.max(np.abs(per_family[i] - mean_k))


def test_oracle_agreement_smoke():
    """count_line vs geometric segment-crossing oracle, exact equality."""
    rng = np.random.default_rng(23)
    bodies = [random_polygon(rng) for _ in range(3)]
    bodies += [unit_square(), ConvexBody.disk((0.1, -0.2), 0.8)]
    checked = 0
    for body in bodies:
        for n in (1, 2, 7):
            sset = sh.SteinhausSet(
                body=body, n=n, eps=0.08, shifts=rng.uniform(0, 1, n)
            )
            box_lo, box_hi = body.support_many(np.eye(2))
            lo = box_lo.min() - 0.1
            hi = box_hi.max() + 0.1
            thetas = rng.uniform(0, math.pi, 120)
            ps = rng.uniform(lo, hi, 120)
            batch = evaluate_lines(sset, thetas, ps)
            for i in range(batch.theta.size):
                if batch.exceptional[i]:
                    continue
                line = Line(float(batch.theta[i]), float(batch.offset[i]))
                try:
                    want = oracle_count(sset, line)
                except ExceptionalLineError:
                    continue  # oracle's endpoint screen is stricter
                assert int(batch.total[i]) == want, (body.kind, n, line)
                checked += 1
    assert checked > 1500


def test_padding_hits_match_geometric_count_and_bound():
    rng = np.random.default_rng(24)
    body = unit_square()
    base = sh.SteinhausSet(body=body, n=6, eps=0.09, shifts=rng.uniform(0, 1, 6))
    sset = sh.adjust_length(base, sh.grid_length(base) + 2.9)
    assert sset.padding_count >= 5
    thetas = rng.uniform(0, math.pi, 400)
    ps = rng.uniform(-0.2, 1.2, 400)
    batch = evaluate_lines(sset, thetas, ps)
    hit_some = 0
    for i in range(batch.theta.size):
        if batch.exceptional[i]:
            continue
        line = Line(float(batch.theta[i]), float(batch.offset[i]))
        hits, _ = segment_crossings(sset.padding, [line.theta], [line.offset],
                                    rounding_bound(sset.scale))
        assert batch.padding_hits[i] == hits[0]
        assert batch.padding_hits[i] <= sset.padding_count
        hit_some += int(batch.padding_hits[i] > 0)
    assert hit_some > 20


def endpoint_error(sset, x, y) -> float:
    """Z(x, y) under the set's own shifts: a one-row z_samples call."""
    return float(z_samples(sset.n, sset.eps, x, y, sset.shifts[None, :])[0])


def test_endpoint_error_basics():
    sset = sh.SteinhausSet(body=unit_square(), n=1, eps=0.25, shifts=np.array([0.0]))
    # x = y: empty interval in every family
    assert endpoint_error(sset, (0.3, 0.4), (0.3, 0.4)) == 0.0
    # frozen: family (1,0), interval [0, 0.6): three lattice hits, mean 2.4
    got = endpoint_error(sset, (0.0, 0.3), (0.6, 0.8))
    assert got == pytest.approx(0.6, abs=1e-12)
    # symmetry in the endpoints
    rng = np.random.default_rng(25)
    sset2 = sh.SteinhausSet(
        body=unit_square(), n=9, eps=0.04, shifts=rng.uniform(0, 1, 9)
    )
    for _ in range(50):
        x = rng.uniform(0, 1, 2)
        y = rng.uniform(0, 1, 2)
        assert endpoint_error(sset2, x, y) == endpoint_error(sset2, y, x)


def test_endpoint_error_matches_chord_z():
    rng = np.random.default_rng(26)
    body = random_polygon(rng)
    sset = sh.SteinhausSet(body=body, n=17, eps=0.05, shifts=rng.uniform(0, 1, 17))
    for _ in range(80):
        line = Line(rng.uniform(0, math.pi), rng.uniform(-1.0, 1.0))
        try:
            bd = count_line(sset, line)
        except ExceptionalLineError:
            continue
        ch = chord_of(body, line)
        if ch is None:
            continue
        assert endpoint_error(sset, ch[0], ch[1]) == pytest.approx(
            bd.z, abs=1e-10
        )


def test_z_samples_vectorization_matches_scalar():
    rng = np.random.default_rng(27)
    n, eps = 13, 0.07
    x = np.array([0.1, 0.2])
    y = np.array([0.8, 0.9])
    shifts = rng.uniform(0, 1, size=(50, n))
    zs = z_samples(n, eps, x, y, shifts)
    body = unit_square()
    for i in range(len(shifts)):
        sset = sh.SteinhausSet(body=body, n=n, eps=eps, shifts=shifts[i])
        assert zs[i] == endpoint_error(sset, x, y)
    # all within the per-family band: |Z| <= n
    assert np.all(np.abs(zs) <= n)


@pytest.mark.parametrize("thetas, offsets", [
    ([math.nan], [0.5]), ([0.1], [math.inf]), ([0.1, 0.2], [0.5]), ([[0.1]], [[0.5]])],
    ids=["nan", "inf", "unequal", "2-d"])
def test_malformed_line_batches_are_refused(thetas, offsets):
    """A non-finite angle or offset, unequal lengths or 2-D input is refused,
    naming the lines, before the clip: not counted as a miss, warned about,
    or left to numpy's broadcasting."""
    sset = sh.SteinhausSet(body=unit_square(), n=3, eps=0.1, shifts=np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (evaluate_lines, counting.count_lines):
            with pytest.raises(ValidationError, match="^lines: "):
                entry(sset, thetas, offsets)


@pytest.mark.parametrize("field, x, y, shifts", [
    ("shifts", (0.1, 0.1), (0.9, 0.8), np.zeros(3)),
    ("shifts", (0.1, 0.1), (0.9, 0.8), np.zeros((2, 4))),
    ("segment", (0.1, math.nan), (0.9, 0.8), np.zeros((2, 3))),
    ("segment", (0.1, 0.1), (math.inf, 0.8), np.zeros((2, 3)))],
    ids=["1-d shifts", "wrong n", "nan endpoint", "inf endpoint"])
def test_z_samples_refuses_malformed_input(field, x, y, shifts):
    """z_samples takes a (trials, n) shift matrix and finite endpoints; a NaN
    endpoint once gave a NaN Z."""
    with pytest.raises(ValidationError) as info:
        z_samples(3, 0.1, x, y, shifts)
    assert info.value.field == field


def test_evaluate_lines_flags_exactly_grid_lines_and_endpoints():
    """With zero shifts on the square, the lines flagged exceptional are
    exactly those along a grid line (the edges among them) and those through
    a grid-segment endpoint.  The lines halfway between grid lines end on
    pinned edges and are counted, like random lines; a second evaluation
    gives the same batch, and count_line agrees on every counted line."""
    rng = np.random.default_rng(28)
    sset = sh.SteinhausSet(body=unit_square(), n=4, eps=0.125, shifts=np.zeros(4))
    # axis-aligned: x, y = q/8 for q = 1..9 (8 is an edge, 9 misses), then halfway
    on = np.arange(1, 10) * 0.125
    axis = np.concatenate([on, on - 0.0625])
    along = np.concatenate([on <= 1.0, np.zeros(9, dtype=bool)])
    ends = sset.grid_segments[0].reshape(-1, 2)[rng.choice(2 * len(sset.grid_segments[0]), 20)]
    through = rng.uniform(0, math.pi, 20)
    random = rng.uniform(0, math.pi, 40)
    lo, hi = sset.body.offset_extents(random)
    thetas = np.concatenate([np.zeros(18), np.full(18, math.pi / 2), through, random])
    ps = np.concatenate([axis, axis, ends[:, 0] * np.cos(through) + ends[:, 1] * np.sin(through),
                         rng.uniform(lo, hi)])
    expect = np.concatenate([along, along, np.ones(20, dtype=bool), np.zeros(40, dtype=bool)])
    b1 = evaluate_lines(sset, thetas, ps)
    b2 = evaluate_lines(sset, thetas, ps)
    for f in fields(counting.LineBatch):
        assert np.array_equal(getattr(b1, f.name), getattr(b2, f.name)), f.name
    assert np.array_equal(b1.offset, ps) and not b1.jittered.any()
    assert np.array_equal(b1.exceptional, expect)
    for i in np.flatnonzero(b1.valid & ~b1.exceptional):
        line = Line(float(b1.theta[i]), float(b1.offset[i]))
        assert int(b1.total[i]) == count_line(sset, line).total  # raises if exceptional


def test_evaluate_lines_across_chunks_matches_line_by_line():
    """Lines at n=8000 take several kernel blocks: 600 on the padded square,
    the last block partial, and 37 blocks and one line on an off-centre
    padded disk.  Every field of a line, z and mean_term too, is the same to
    the bit in a one-line evaluation and in count_line.  Lines through
    grid-segment endpoints in a later block are exceptional."""
    rng = np.random.default_rng(31)
    n = 8000
    block = max(16, counting.KERNEL_CHUNK // n)  # evaluate_lines' family-block length
    cases = [(unit_square(), 600), (ConvexBody.disk((0.1, -0.2), 0.8), 37 * block + 1)]
    for body, m in cases:
        assert m // block >= 3 and m % block
        sset = sh.SteinhausSet(body=body, n=n, eps=0.001, shifts=rng.uniform(0, 1, n),
                               padding=sh.make_padding(body, n, 2.0))
        thetas = rng.uniform(0, math.pi, m)
        lo, hi = body.offset_extents(thetas)
        ps = lo - 0.1 + (hi - lo + 0.2) * rng.uniform(0, 1, m)
        # the lattice line nearest the centroid of each of 40 families ends
        # on the boundary at `start`; put a line through each of those points
        ks = rng.integers(0, n, 40)
        centre = np.mean(body.support_many(np.eye(2)), axis=0)
        q = np.floor(sset.directions[ks] @ centre / sset.eps - sset.shifts[ks])
        start, _, _, valid = body.chord_batch(math.pi * ks / n, sset.eps * (q + sset.shifts[ks]))
        assert valid.all()
        tail = slice(520, 560)
        later = tail.start // block * block  # start of the block holding the tail
        assert later >= block
        thetas[tail] = rng.uniform(0, math.pi, 40)
        ps[tail] = start[:, 0] * np.cos(thetas[tail]) + start[:, 1] * np.sin(thetas[tail])
        batch = evaluate_lines(sset, thetas, ps)
        assert batch.exceptional[tail].any()
        assert batch.padding_hits.any()

        one = [evaluate_lines(sset, thetas[i:i + 1], ps[i:i + 1]) for i in range(m)]
        for f in fields(counting.LineBatch):
            want = np.concatenate([getattr(b, f.name) for b in one])
            assert np.array_equal(getattr(batch, f.name), want), f.name

        for i in np.flatnonzero(batch.valid & ~batch.exceptional):
            bd = count_line(sset, Line(float(batch.theta[i]), float(batch.offset[i])))
            assert bd.total == batch.total[i] and bd.padding_hits == batch.padding_hits[i]
            assert bd.z == batch.z[i] and bd.mean_term == batch.mean_term[i]


@pytest.mark.parametrize("n, eps, zero_shifts", [(2, 0.25, True), (6, 0.1, False)])
def test_parallel_coincident_lines_in_a_batch(monkeypatch, n, eps, zero_shifts):
    """Lines at a family's angle are exceptional exactly when they lie on one
    of its lattice lines, wherever they sit in a multi-block batch.  With two
    families and zero shifts the lines along the square's edges are flagged
    as lines along a boundary edge (their endpoints are pinned)."""
    monkeypatch.setattr(counting, "KERNEL_CHUNK", 16 * n)  # 16-line blocks
    rng = np.random.default_rng(41)
    shifts = np.zeros(n) if zero_shifts else rng.uniform(0, 1, n)
    body = unit_square()
    sset = sh.SteinhausSet(body=body, n=n, eps=eps, shifts=shifts)
    # 40 ordinary lines, then per family its lattice lines across the square
    # and the lines halfway between them
    thetas, ps = [rng.uniform(0, math.pi, 40)], [rng.uniform(-0.2, 1.2, 40)]
    expect = [np.zeros(40, dtype=bool)]
    smin, smax = body.support_many(sset.directions)
    for k in range(n):
        q = np.arange(math.ceil(smin[k] / eps - shifts[k]),
                      math.floor(smax[k] / eps - shifts[k]) + 1)
        on = eps * (q + shifts[k])
        offs = np.concatenate([on, on[:-1] + 0.5 * eps])
        thetas.append(np.full(offs.size, math.pi * k / n))
        ps.append(offs)
        expect.append(np.arange(offs.size) < on.size)
    order = rng.permutation(sum(t.size for t in thetas))
    thetas, ps, expect = (np.concatenate(v)[order] for v in (thetas, ps, expect))
    assert thetas.size > 3 * 16 and thetas.size % 16
    batch = evaluate_lines(sset, thetas, ps)
    flagged = batch.exceptional
    assert np.array_equal(flagged, expect)
    for t, p, want in zip(thetas, ps, expect):
        if want:
            with pytest.raises(ExceptionalLineError):
                count_line(sset, Line(float(t), float(p)))
        else:
            count_line(sset, Line(float(t), float(p)))


def test_invalid_lines_count_zero():
    sset = sh.SteinhausSet(body=unit_square(), n=3, eps=0.1, shifts=np.zeros(3))
    batch = evaluate_lines(sset, np.array([0.3]), np.array([9.0]))
    assert not batch.valid[0]
    assert batch.total[0] == 0
    assert batch.z[0] == 0.0
    assert batch.padding_hits[0] == 0
    bd = count_line(sset, Line(0.3, 9.0))
    assert bd.total == 0 and bd.z == 0.0


@pytest.mark.parametrize("theta, family, start, total", [
    (math.pi / 2 - 1e-3, 0, 1.0, 9), (math.pi / 2 + 1e-3, 0, 1.0, 9),
    (1e-3, 1, 0.0, 10), (math.pi - 1e-3, 1, 1.0, 10)])
def test_chords_between_opposite_pinned_edges_count_both_edges(theta, family, start, total):
    """On the zero-shift square (n=2, eps=1/8) a line through (0.5, 0.37)
    nearly along a family's normal runs from one pinned edge of that family
    to the opposite one, and both edges' lattice lines count: 9 in that
    family, plus x = 0.5 for the nearly vertical lines.  The chord starts on
    the family's max side, or near theta = 0 on its min side.  count_line is
    the line's evaluate_lines row."""
    sset = sh.SteinhausSet(body=unit_square(), n=2, eps=0.125, shifts=np.zeros(2))
    assert {(k, q) for k, _, q in sset.pinned_edges} == {(0, 0.0), (0, 8.0), (1, 0.0), (1, 8.0)}
    offset = 0.5 * math.cos(theta) + 0.37 * math.sin(theta)
    assert sset.body.chord_batch([theta], [offset])[0][0, family] == start
    batch, per_family = kernel_rows(sset, [theta], [offset])
    assert per_family[0, family] == 9 and not batch.exceptional[0]
    row = evaluate_lines(sset, [theta], [offset])
    bd = count_line(sset, Line(theta, offset))
    assert bd.total == row.total[0] == batch.total[0] == total
    assert (bd.z, bd.mean_term, bd.chord_length) == (row.z[0], row.mean_term[0], row.h[0])


@pytest.mark.parametrize("shift, pinned, compared", [
    (4e-13, [], 190),  # x = 1 + 1e-13, outside the square beyond the band
    (1 - 4e-13, [], 190),  # x = -1e-13
    (4e-15, [(0, 1, 4.0), (0, 3, 0.0)], 200),  # x = 1e-15 and 1 + 1e-15, within it
    (4.4e-14, [], 1),  # x = 1 + 1.1e-14, beyond the band of about 1.0e-14
])
def test_lattice_lines_next_to_an_edge_are_pinned_within_the_band(shift, pinned, compared):
    """A lattice line is pinned exactly when the clip finds it along an edge;
    one beyond the band is no segment, so no segment end has an unbounded
    tolerance and the oracle compares lines near it."""
    body = unit_square()
    sset = sh.SteinhausSet(body=body, n=1, eps=0.25, shifts=[shift])
    assert sset.pinned_edges == pinned
    assert np.all(np.isfinite(sset.grid_segments[2]))
    three = sh.SteinhausSet(body=body, n=3, eps=0.25, shifts=[shift, 0.3, 0.6])
    check = run_oracle_check(three, 200, seed=0)
    assert check.comparisons >= compared and check.agreements == check.comparisons


def test_lattice_line_just_beyond_the_band_is_exceptional_not_pinned():
    """x = 1 + 1.1e-14 lies beyond the clip's band, though within
    rounding_bound(sset.scale): it is not in the set, and a line ending on
    the edge next to it is exceptional rather than counted."""
    sset = sh.SteinhausSet(body=unit_square(), n=1, eps=0.25, shifts=[4.4e-14])
    assert rounding_bound(sset.body.scale) < 1.1e-14 < rounding_bound(sset.scale)
    segments = sset.grid_segments[0]
    d = segments[:, 1] - segments[:, 0]
    assert len(segments) == 4 and sh.grid_length(sset) == math.fsum(np.hypot(*d.T)) == 4.0
    with pytest.raises(ExceptionalLineError):
        count_line(sset, Line(math.pi / 2, 0.5))


def test_evaluated_set_is_freed_after_del():
    """The counting kernel keeps no reference to a set once callers drop it
    (its pinned-edge data lives on the set itself)."""
    sset = sh.SteinhausSet(body=unit_square(), n=4, eps=0.125, shifts=np.zeros(4))
    evaluate_lines(sset, np.array([0.3, 1.1]), np.array([0.4, 0.6]))
    assert sset.pinned_edges
    ref = weakref.ref(sset)
    del sset
    gc.collect()
    assert ref() is None


def _padded_disk_set(n, eps, delta, seed):
    rng = np.random.default_rng(seed)
    body = ConvexBody.disk((0.1, -0.2), 0.8)
    return sh.SteinhausSet(body=body, n=n, eps=eps, shifts=rng.uniform(0, 1, n),
                           padding=sh.make_padding(body, n, delta))


def _lines_through_endpoints(sset, rng, m, through):
    """m random lines over the body, `through` of them through grid-segment
    endpoints and `through` through padding-segment endpoints."""
    thetas = rng.uniform(0, math.pi, m)
    lo, hi = sset.body.offset_extents(thetas)
    ps = lo - 0.1 + (hi - lo + 0.2) * rng.uniform(0, 1, m)
    segments = sset.grid_segments[0].reshape(-1, 2)
    points = [segments[rng.integers(0, len(segments), through)]]
    if sset.padding_count:
        points.append(sset.padding.reshape(-1, 2)[rng.integers(0, 2 * sset.padding_count, through)])
    points = np.concatenate(points)
    at = rng.choice(m, len(points), replace=False)
    ps[at] = points[:, 0] * np.cos(thetas[at]) + points[:, 1] * np.sin(thetas[at])
    return thetas, ps


def _tiled(blocks, rows):
    """Whether the slices, in any order, tile the rows one after another."""
    blocks = sorted(blocks, key=lambda block: block.start)
    return ([block.start for block in blocks] + [rows.stop]
            == [rows.start] + [block.stop for block in blocks])


def _evaluate_in_recorded_blocks(monkeypatch, sset, m):
    """evaluate_lines on m lines over 3 CPUs, with the rows of each part, each
    line block and each family block it ran, and each family block's (lines,
    families) shape; the parts' threads append them in any order.  The parts
    tile the batch, the line blocks each part and the family blocks each
    line block; every block holds at most KERNEL_CHUNK elements of each of
    its planes."""
    parts, line_blocks, family_blocks = [], [], []
    eval_blocks, line_block = counting._eval_blocks, counting._line_block

    def recorded_part(sset, batch, rows=slice(0, None)):
        parts.append(rows)
        yield from eval_blocks(sset, batch, rows)

    def recorded(sset, batch, rows, planes, fam_rows):
        line_blocks.append(rows)
        for part, per_family in line_block(sset, batch, rows, planes, fam_rows):
            family_blocks.append((part, per_family.shape))
            yield part, per_family

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(counting, "_eval_blocks", recorded_part)
    monkeypatch.setattr(counting, "_line_block", recorded)
    thetas, ps = _lines_through_endpoints(sset, np.random.default_rng(52), m, 0)
    batch = evaluate_lines(sset, thetas, ps)
    assert _tiled(parts, slice(0, m))
    for part in parts:
        assert _tiled([rows for rows in line_blocks if part.start <= rows.start < part.stop], part)
    edges = 0 if sset.body.vertices is None else len(sset.body.vertices)
    longest = max(rows.stop - rows.start for rows in line_blocks)
    assert longest * max(sset.padding_count, edges) <= counting.KERNEL_CHUNK
    assert {n for _, (_, n) in family_blocks} == {sset.n}
    assert max(lines for _, (lines, _) in family_blocks) * sset.n <= counting.KERNEL_CHUNK
    for rows in line_blocks:
        assert _tiled([block for block, _ in family_blocks if rows.start <= block.start < rows.stop], rows)
    return batch, parts, line_blocks, family_blocks


def test_kernel_blocks_count_padding_segments(monkeypatch):
    """A line block holds at most KERNEL_CHUNK elements of (lines x padding
    segments), also when the padding outnumbers the families, and a family
    block at most KERNEL_CHUNK elements of (lines x families)."""
    sset = _padded_disk_set(40, 0.01, 150.0, seed=51)
    assert sset.padding_count > 5 * sset.n
    batch, _, line_blocks, _ = _evaluate_in_recorded_blocks(monkeypatch, sset, 1000)
    assert batch.padding_hits.any()
    assert len(line_blocks) > 3


def test_family_blocks_tile_each_line_block(monkeypatch):
    """With few families a line block holds several family blocks, and its
    (lines x edges) clip temporaries stay within KERNEL_CHUNK elements."""
    sset = sh.SteinhausSet(body=unit_square(), n=100, eps=0.01,
                           shifts=np.random.default_rng(50).uniform(0, 1, 100))
    _, parts, line_blocks, family_blocks = _evaluate_in_recorded_blocks(monkeypatch, sset, 10_000)
    assert len(parts) == 3
    assert len(line_blocks) > 2 and len(family_blocks) > 2 * len(line_blocks)


@pytest.mark.parametrize("case", ["padded disk", "zero-shift square"])
def test_reused_workspace_leaks_nothing_between_blocks(monkeypatch, case):
    """In 16-line family blocks inside longer line blocks over one workspace,
    every LineBatch field and every count_lines deviation equals its family
    block evaluated alone, in a fresh workspace and batch poisoned with NaN,
    True and -1, to the bit.  Lines pass through grid-segment and padding
    endpoints; the square takes the pinned-edge path."""
    rng = np.random.default_rng(53)
    if case == "padded disk":
        sset = _padded_disk_set(80, 0.02, 3.0, seed=54)
    else:
        base = sh.SteinhausSet(body=unit_square(), n=80, eps=0.05, shifts=np.zeros(80))
        sset = sh.adjust_length(base, sh.grid_length(base) + 1.3)
        assert sset.pinned_edges
    assert sset.padding_count
    block = 16
    monkeypatch.setattr(counting, "KERNEL_CHUNK", block * max(sset.n, sset.padding_count))
    m = 6 * block + 5
    line_rows, fam_rows, _ = counting._workspace(sset)
    assert fam_rows == block and 2 * block < line_rows < m
    thetas, ps = _lines_through_endpoints(sset, rng, m, 12)
    batch, deviation = counting.count_lines(sset, thetas, ps)
    assert batch.exceptional.any() and (batch.valid & ~batch.exceptional).sum() > m // 2
    assert batch.padding_hits.any()
    parts = [slice(lo, min(lo + fam_rows, start + line_rows, m))
             for start in range(0, m, line_rows)
             for lo in range(start, min(start + line_rows, m), fam_rows)]
    assert len(parts) > len(range(0, m, line_rows))
    for part in parts:
        alone = counting._new_batch(thetas[part], ps[part])
        for f in fields(counting.LineBatch):
            if f.name not in ("theta", "offset", "jittered"):
                field = getattr(alone, f.name)
                field.fill(np.nan if field.dtype == float else field.dtype.type(-1))
        _, _, planes = counting._workspace(sset)
        planes.fill(np.nan)  # and True in its bool views
        want = np.empty(len(alone.theta))
        for rows, per_family in counting._line_block(
                sset, alone, slice(0, len(alone.theta)), planes, fam_rows):
            want[rows] = counting.family_deviation(sset, alone, rows, per_family)
        for f in fields(counting.LineBatch):
            assert np.array_equal(getattr(batch, f.name)[part], getattr(alone, f.name)), f.name
        assert np.array_equal(deviation[part], want)


_FRESH_FAULTS_SCRIPT = """
import math, os, resource
import numpy as np
from buffon import counting, steinhaus as sh
from buffon.geometry import ConvexBody

os.sched_getaffinity = lambda pid: {0, 1, 2}  # three parts on any host
rng = np.random.default_rng(55)
body = ConvexBody.disk((0.1, -0.2), 0.8)
sset = sh.SteinhausSet(body=body, n=500, eps=0.004, shifts=rng.uniform(0, 1, 500),
                       padding=sh.make_padding(body, 500, 600.0))
chunk = counting.KERNEL_CHUNK // sset.padding_count
thetas = rng.uniform(0, math.pi, 21 * chunk + 7)
ps = rng.uniform(-0.5, 0.5, thetas.size)
for _ in range(2):  # warm: the set's caches, the allocator, every part's workspace
    counting.evaluate_lines(sset, thetas, ps)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
counting.evaluate_lines(sset, thetas, ps)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, sset.padding_count,
      thetas.size * sset.n // (2 * counting.KERNEL_CHUNK))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults are counted in ru_minflt on Linux")
def test_warm_kernel_blocks_take_no_page_faults():
    """A warm evaluate_lines over 21 line blocks of a padded disk set (n=500,
    and 3x as many padding segments, as in a zero-shift disk set), split in
    three parts, faults in almost nothing: each part's thread reuses its own
    workspace and temporaries.  A fault-count guard that times nothing.  It
    runs in a fresh interpreter, so earlier tests do not shape the
    allocator's state; the third call is measured, since the second still
    faults every part's workspace in."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _FRESH_FAULTS_SCRIPT],
                            capture_output=True, text=True, check=True, env=env)
    faults, padding_count, parts = (int(v) for v in result.stdout.split())
    assert padding_count > 2 * 500 and parts >= 3
    assert faults <= 64, faults


# -- exact reference for the rounding bound -------------------------------------


def _sign_sqrt(x, y, d):
    """Sign of x + y sqrt(d) for rationals x, y and d >= 0."""
    sx, sy = (x > 0) - (x < 0), ((y > 0) - (y < 0)) if d else 0
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    diff = x * x - y * y * d
    return sx * ((diff > 0) - (diff < 0))


def _ceil_lattice(a, w, d, eps, u, guess):
    """Least integer m with eps (m + u) >= a + w sqrt(d), searched from guess."""
    m = int(guess)
    while _sign_sqrt(eps * (m + u) - a, -w, d) < 0:
        m += 1
    while _sign_sqrt(eps * (m - 1 + u) - a, -w, d) >= 0:
        m -= 1
    return m


def exact_counts(sset, theta, p):
    """Per-family counts and padding hits of the line {x : x . (c, s) = p} in
    exact rationals on the kernel's float inputs: c and s as numpy computes
    them, p, the vertices or centre and radius, the family normals, eps, the
    shifts and the padding.  Counts follow the kernel's conventions: half-open
    intervals, and a chord endpoint on a pinned edge counts that edge's
    lattice value on either side.  A disk's endpoints F -+ sqrt(D) tangent
    are placed against lattice values by squaring with sign cases.  Returns
    (counts, padding hits, squared chord length)."""
    F = Fraction
    c, s = (F(float(v[0])) for v in (np.cos([theta]), np.sin([theta])))
    p, eps, norm2 = F(float(p)), F(sset.eps), c * c + s * s
    tangent = (-s, c)
    body = sset.body
    if body.kind == "disk":
        cx, cy = (F(float(v)) for v in body.center)
        d = c * cx + s * cy - p
        disc = (F(body.radius) ** 2 * norm2 - d * d) / (norm2 * norm2)  # half-chord^2 / |tangent|^2
        foot = (cx - d * c / norm2, cy - d * s / norm2)
        ends = None if disc <= 0 else [(foot, -1, disc), (foot, 1, disc)]
        binding, length2 = (None, None), max(4 * disc * norm2, 0)
    else:
        verts = [tuple(F(float(x)) for x in v) for v in body.vertices]
        base = (p * c / norm2, p * s / norm2)
        lo, hi, feasible, rows = None, None, True, []
        for j, v in enumerate(verts):
            w = verts[(j + 1) % len(verts)]
            e = (w[0] - v[0], w[1] - v[1])
            a = e[0] * (base[1] - v[1]) - e[1] * (base[0] - v[0])
            b = e[0] * tangent[1] - e[1] * tangent[0]
            rows.append((a, b))
            if b == 0:
                feasible &= a >= 0
            elif b > 0:
                lo = -a / b if lo is None else max(lo, -a / b)
            else:
                hi = -a / b if hi is None else min(hi, -a / b)
        ends = None if not feasible or lo >= hi else [
            ((base[0] + t * tangent[0], base[1] + t * tangent[1]), 0, 0) for t in (lo, hi)]
        binding = (None, None) if ends is None else tuple(
            {j for j, (a, b) in enumerate(rows) if a + t * b == 0} for t in (lo, hi))
        length2 = 0 if ends is None else (hi - lo) ** 2 * norm2
    counts = []
    for k, (nx, ny) in enumerate(sset.directions):
        if ends is None:
            counts.append(0)
            continue
        nx, ny, u = F(float(nx)), F(float(ny)), F(float(sset.shifts[k]))
        w = tangent[0] * nx + tangent[1] * ny
        side = []
        for (point, sign, disc), edges in zip(ends, binding):
            a = point[0] * nx + point[1] * ny
            pinned = [q for kk, j, q in sset.pinned_edges if kk == k and edges and j in edges]
            approx = float(a) + sign * float(w) * math.sqrt(float(disc))
            side.append((approx, a, sign * w, disc, pinned))
        if _sign_sqrt(side[0][1] - side[1][1], side[0][2] - side[1][2], side[0][3]) > 0:
            side.reverse()  # min side first: the disk's ends share one sqrt(disc)
        (g0, a0, w0, d0, pin0), (g1, a1, w1, d1, pin1) = side
        lo_q = int(pin0[0]) if pin0 else _ceil_lattice(a0, w0, d0, eps, u, math.ceil(g0 / sset.eps - float(u)))
        hi_q = int(pin1[0]) + 1 if pin1 else _ceil_lattice(a1, w1, d1, eps, u, math.ceil(g1 / sset.eps - float(u)))
        counts.append(hi_q - lo_q)
    hits = 0
    for seg in sset.padding:
        sides = [c * F(float(x)) + s * F(float(y)) - p for x, y in seg]
        hits += sides[0] * sides[1] < 0
    return counts, hits, length2


def _stress_lines(sset, rng, m):
    """m random lines over the body; lines through 12 grid-segment endpoints
    and, if padded, 6 padding endpoints, each offset by 0, +-1, +-4 and +-64
    ulps; on a polygon, lines through 24 points where a lattice line meets
    an edge, tilted 2^-10 .. 2^-30 off the edge."""
    thetas = rng.uniform(0, math.pi, m)
    lo, hi = sset.body.offset_extents(thetas)
    lines = [(thetas, rng.uniform(lo - 0.05, hi + 0.05))]
    segments = sset.grid_segments[0].reshape(-1, 2)
    points = [segments[rng.choice(len(segments), 12, replace=False)]]
    if sset.padding_count:
        points.append(sset.padding.reshape(-1, 2)[rng.choice(2 * sset.padding_count, 6)])
    points = np.concatenate(points)
    through = rng.uniform(0, math.pi, len(points))
    ps = points[:, 0] * np.cos(through) + points[:, 1] * np.sin(through)
    for ulps in (0, 1, -1, 4, -4, 64, -64):
        lines.append((through, ps + ulps * np.spacing(ps)))
    if sset.body.kind == "polygon":
        v, e, _ = sset.body._edge_data
        # a grid-segment endpoint X on edge j: cross(e_j, X - v_j) ~ 0
        dist = np.abs(e[None, :, 0] * (segments[:, None, 1] - v[None, :, 1])
                      - e[None, :, 1] * (segments[:, None, 0] - v[None, :, 0]))
        on_edge = np.flatnonzero(dist.min(axis=1) <= 1e-12)
        pick = rng.choice(on_edge, 24)
        edge = np.argmin(dist[pick], axis=1)
        tilt = np.exp2(-rng.uniform(10, 30, 24)) * rng.choice([-1.0, 1.0], 24)
        theta = np.arctan2(e[edge, 1], e[edge, 0]) + math.pi / 2 + tilt
        x = segments[pick]
        lines.append(Line.normalize_many(theta, x[:, 0] * np.cos(theta) + x[:, 1] * np.sin(theta)))
    return tuple(np.concatenate(v) for v in zip(*lines))


@pytest.mark.parametrize("case", ["polygon", "disk", "zero-shift square", "padded square"])
def test_unflagged_lines_count_as_exact_arithmetic(case):
    """The rounding bound is sound: every valid line the kernel does not flag
    has the per-family counts and padding hits of exact rational arithmetic
    on the kernel's float inputs, also on lines that pass a few ulps from a
    grid-segment or padding endpoint and lines nearly along an edge.  An
    invalid line's exact chord is at most about the tangency cutoff."""
    rng = np.random.default_rng(61)
    if case == "polygon":
        sset = sh.SteinhausSet(body=random_polygon(rng), n=9, eps=0.02,
                               shifts=rng.uniform(0, 1, 9))
    elif case == "disk":
        sset = _padded_disk_set(7, 0.03, 1.5, seed=62)
    elif case == "zero-shift square":
        sset = sh.SteinhausSet(body=unit_square(), n=4, eps=0.125, shifts=np.zeros(4))
        assert sset.pinned_edges
    else:
        base = sh.SteinhausSet(body=unit_square(), n=5, eps=0.05, shifts=rng.uniform(0, 1, 5))
        sset = sh.adjust_length(base, sh.grid_length(base) + 2.5)
        assert sset.padding_count
    thetas, ps = _stress_lines(sset, rng, 150)
    batch, per_family = kernel_rows(sset, thetas, ps)
    assert len(batch.total) == len(thetas)
    compared = 0
    cutoff = TANGENCY_CUTOFF * sset.body.diameter
    for i in np.flatnonzero(~batch.exceptional):
        counts, hits, length2 = exact_counts(sset, thetas[i], ps[i])
        if not batch.valid[i]:
            assert length2 <= (2 * cutoff) ** 2, (thetas[i], ps[i])
            continue
        assert list(per_family[i]) == counts, (thetas[i], ps[i])
        assert batch.padding_hits[i] == hits, (thetas[i], ps[i])
        compared += 1
    assert batch.exceptional.any() and compared > 100


def _per_element_batch(sset, thetas, ps):
    """The kernel's per-family counts and LineBatch fields, one (lines x
    families) array per step: a line is exceptional when some family has
    |x - rint(x)| eps <= tol at an endpoint (pinned entries masked), when it
    runs along an edge, or when it passes within rounding_bound(sset.scale)
    of a padding endpoint (the padding rule).  An invalid line counts zero in
    every family."""
    start, end, h, valid, tol_s, tol_e, edge_s, edge_e, along = sset.body.chord_bounds(thetas, ps)
    lattice = rounding_bound(sset.scale)
    at_s = start @ sset.directions.T / sset.eps - sset.shifts
    at_e = end @ sset.directions.T / sset.eps - sset.shifts
    n_lo, n_hi = np.ceil(np.minimum(at_s, at_e)), np.ceil(np.maximum(at_s, at_e))
    near_s = np.abs(at_s - np.rint(at_s)) * sset.eps <= (tol_s + lattice)[:, None]
    near_e = np.abs(at_e - np.rint(at_e)) * sset.eps <= (tol_e + lattice)[:, None]
    for k, j, q in sset.pinned_edges:
        on_s, on_e = edge_s == j, edge_e == j
        near_s[on_s, k] = near_e[on_e, k] = False
        s_is_min = at_s[:, k] <= at_e[:, k]
        n_lo[:, k] = np.where(np.where(s_is_min, on_s, on_e), q, n_lo[:, k])
        n_hi[:, k] = np.where(np.where(s_is_min, on_e, on_s), q + 1.0, n_hi[:, k])
    per_family = np.where(valid[:, None], n_hi - n_lo, 0.0)
    total = per_family.sum(axis=1)
    nu = np.column_stack([np.cos(thetas), np.sin(thetas)])
    sig0, sig1 = (nu @ sset.padding[:, i].T - ps[:, None] for i in (0, 1))
    hits = np.sum(sig0 * sig1 < 0.0, axis=1)
    exceptional = ((near_s | near_e).any(axis=1) | (along >= 0)
                   | (np.minimum(np.abs(sig0), np.abs(sig1)) <= lattice).any(axis=1)) & valid
    zero = ~valid | exceptional
    z = total - h / sset.eps * sh.angular_sum(sset.n, thetas + math.pi / 2)
    fields = dict(theta=thetas, offset=ps, valid=valid, h=h,
                  total=np.where(zero, 0.0, total).astype(np.int64),
                  z=np.where(zero, 0.0, z), mean_term=np.where(zero, 0.0, total - z),
                  padding_hits=np.where(zero, 0, hits), exceptional=exceptional,
                  jittered=np.zeros(len(thetas), dtype=bool))
    return per_family, fields


def _screen_case(monkeypatch, case, rng):
    """A set and its _stress_lines: a padded disk with more padding segments
    than families over 900 random lines, or a zero-shift square with pinned
    edges or a random polygon over 150, the last two in small line and
    family blocks."""
    if case == "padded disk":
        sset, m = _padded_disk_set(40, 0.01, 150.0, seed=58), 900
        assert sset.padding_count > sset.n
    elif case == "zero-shift square":
        base = sh.SteinhausSet(body=unit_square(), n=4, eps=0.125, shifts=np.zeros(4))
        sset, m = sh.adjust_length(base, sh.grid_length(base) + 1.3), 150
        assert sset.pinned_edges and sset.padding_count
        monkeypatch.setattr(counting, "KERNEL_CHUNK", 16 * 5)
    else:
        sset, m = sh.SteinhausSet(body=random_polygon(rng), n=30, eps=0.02,
                                  shifts=rng.uniform(0, 1, 30)), 150
        monkeypatch.setattr(counting, "KERNEL_CHUNK", 16 * 30)
    return (sset, *_stress_lines(sset, rng, m))


@pytest.mark.parametrize("case", ["padded disk", "zero-shift square", "polygon"])
def test_min_reduced_screen_equals_the_per_element_screen(monkeypatch, case):
    """The kernel's near-lattice screen, one min over the families of
    |x - rint(x)| per endpoint, flags exactly the lines a per-element screen
    flags, and every other LineBatch field and per-family count is the same
    to the bit, on lines a few ulps from grid-segment and padding endpoints
    and nearly along edges.  The disk batch spans several line blocks, with
    more padding segments than families; the square and the polygon run in
    small line and family blocks."""
    rng = np.random.default_rng(57)
    sset, thetas, ps = _screen_case(monkeypatch, case, rng)
    line_rows, fam_rows, _ = counting._workspace(sset)
    assert line_rows < len(thetas)
    batch, per_family = kernel_rows(sset, thetas, ps)
    want_counts, want = _per_element_batch(sset, thetas, ps)
    assert batch.exceptional.any() and not batch.exceptional.all()
    for f in fields(counting.LineBatch):
        assert np.array_equal(getattr(batch, f.name), want[f.name]), f.name
    assert np.array_equal(per_family, want_counts)


@pytest.mark.parametrize("body", [unit_square(), ConvexBody.disk((0.0, 0.0), 1 / math.sqrt(math.pi))],
                         ids=["square", "disk"])
def test_random_lines_at_large_length_are_counted(body):
    """At M=3e8 (n=1357, eps=1357/3e8 on a unit-area body) at most 0.1 % of
    20,000 random lines are flagged; an absolute 1e-9 screen flagged 70 %.
    The set is built directly, so no grid length is summed."""
    n = 1357
    sset = sh.SteinhausSet(body=body, n=n, eps=n * body.area / 3e8, shifts=sh.sample_shifts(n, 7))
    rng = np.random.default_rng(71)
    thetas = rng.uniform(0, math.pi, 20_000)
    lo, hi = body.offset_extents(thetas)
    batch = evaluate_lines(sset, thetas, rng.uniform(lo, hi))
    assert batch.valid.all()
    assert batch.exceptional.sum() <= 20


@pytest.mark.parametrize("case", ["padded disk", "zero-shift square", "polygon"])
def test_split_batches_keep_every_bit(monkeypatch, case):
    """evaluate_lines cut into the parts of 1, 2, 3 or 7 CPUs (more threads
    than this machine may have, switching as often as they can), on a batch
    that no part count divides, fills every LineBatch field with the same
    bits, and count_line of a line gives its row's: the lines of
    test_min_reduced_screen_equals_the_per_element_screen, pinned edges and
    padding included."""
    sset, thetas, ps = _screen_case(monkeypatch, case, np.random.default_rng(57))
    if case == "padded disk":
        monkeypatch.setattr(counting, "KERNEL_CHUNK", 16 * sset.n)
    keep = len(thetas) - (len(thetas) - 1) % 42  # 1 more than a multiple of 2, 3 and 7
    thetas, ps = thetas[:keep], ps[:keep]
    assert keep * sset.n >= 7 * counting.KERNEL_CHUNK  # 7 CPUs get 7 parts
    batches, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the parts' threads take turns as often as they can
    try:
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            batches.append(evaluate_lines(sset, thetas, ps))
    finally:
        sys.setswitchinterval(interval)
    for batch in batches[1:]:
        for f in fields(counting.LineBatch):
            assert getattr(batch, f.name).tobytes() == getattr(batches[0], f.name).tobytes(), f.name
    batch = batches[-1]
    assert batch.exceptional.any() and (batch.valid & ~batch.exceptional).any()
    for i in range(0, keep, 7):
        if batch.exceptional[i]:
            with pytest.raises(ExceptionalLineError):
                count_line(sset, Line(thetas[i], ps[i]))
            continue
        bd = count_line(sset, Line(thetas[i], ps[i]))
        row = (batch.total[i], batch.z[i], batch.mean_term[i], batch.padding_hits[i], batch.h[i])
        got = (bd.total, bd.z, bd.mean_term, bd.padding_hits, bd.chord_length)
        assert np.array(got).tobytes() == np.array(row, dtype=float).tobytes(), i


def _recorded_parts(monkeypatch, sset, thetas, ps):
    """evaluate_lines' batch, and the rows of each part it cut the batch into."""
    parts, eval_blocks = [], counting._eval_blocks

    def recorded(sset, batch, rows=slice(0, None)):
        parts.append(rows)
        yield from eval_blocks(sset, batch, rows)

    monkeypatch.setattr(counting, "_eval_blocks", recorded)
    batch = evaluate_lines(sset, thetas, ps)
    monkeypatch.setattr(counting, "_eval_blocks", eval_blocks)
    assert _tiled(parts, slice(0, len(thetas)))
    return batch, parts


@pytest.mark.parametrize("cpu_count, parts", [(None, 1), (1, 1), (3, 3)])
def test_split_without_an_affinity_mask_uses_the_cpu_count(monkeypatch, cpu_count, parts):
    """Where os has no sched_getaffinity (macOS, Windows), a batch is cut into
    os.cpu_count() parts, one when that is unknown, with the bytes of one
    part."""
    sset, thetas, ps = _screen_case(monkeypatch, "polygon", np.random.default_rng(57))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one, single = _recorded_parts(monkeypatch, sset, thetas, ps)
    assert len(single) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    batch, cut = _recorded_parts(monkeypatch, sset, thetas, ps)
    assert len(cut) == parts
    for f in fields(counting.LineBatch):
        assert getattr(batch, f.name).tobytes() == getattr(one, f.name).tobytes(), f.name


def test_a_one_line_batch_is_one_part_at_any_n(monkeypatch):
    """count_line's one-line batch is one part however many line-families it
    holds, so no part is empty and no thread starts."""
    sset = sh.SteinhausSet(body=unit_square(), n=64, eps=0.05,
                           shifts=np.random.default_rng(59).uniform(0, 1, 64))
    monkeypatch.setattr(counting, "KERNEL_CHUNK", 16)  # 64 families = 2 * (2 KERNEL_CHUNK)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    batch, cut = _recorded_parts(monkeypatch, sset, [0.3], [0.4])
    assert cut == [slice(0, 1)]
    assert count_line(sset, Line(0.3, 0.4)).total == batch.total[0] > 0


@pytest.mark.parametrize("started_by_multiprocessing, parts", [(False, 4), (True, 1)])
def test_a_pool_worker_counts_in_one_part(monkeypatch, started_by_multiprocessing, parts):
    """A process that multiprocessing started, such as one of run_sweep's
    workers, shares the CPUs with its pool, so it does not split a batch."""
    sset, thetas, ps = _screen_case(monkeypatch, "polygon", np.random.default_rng(57))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    parent = object() if started_by_multiprocessing else None
    monkeypatch.setattr(counting.multiprocessing, "parent_process", lambda: parent)
    _, cut = _recorded_parts(monkeypatch, sset, thetas, ps)
    assert len(cut) == parts
