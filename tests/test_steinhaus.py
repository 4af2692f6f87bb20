"""Construction tests: directions, shifts, lengths, planning, padding, manifests.

Length oracles: the grid length must match the sum of chord lengths of every
clipped lattice line, and the slice sum (slice_lengths at every lattice
offset) that family_length_many replaces with one closed form per polygon
piece, and on a disk with Euler-Maclaurin between each family's end lines.
"""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from buffon.counting import count_line
from buffon.discrepancy import SupConfig, estimate_sup
from buffon.geometry import ConvexBody, Line, ValidationError, unit_square
from buffon import geometry, steinhaus as sh

from test_geometry import get_bodies, random_polygon


def test_direction_exact_formula():
    assert np.allclose(sh.directions(7)[0], [1.0, 0.0])
    d = sh.directions(4)[2]
    assert d[0] == pytest.approx(0.0, abs=1e-15)
    assert d[1] == pytest.approx(1.0)
    n = 12
    dirs = sh.directions(n)
    assert dirs.shape == (n, 2)
    for k in range(n):
        a = math.pi * k / n
        assert np.allclose(dirs[k], [math.cos(a), math.sin(a)])


def test_sample_shifts_deterministic_and_uniform():
    a = sh.sample_shifts(3, 99)
    b = sh.sample_shifts(3, 99)
    assert np.array_equal(a, b)
    c = sh.sample_shifts(3, 100)
    assert not np.array_equal(a, c)
    # prefix stability: family k's shift does not depend on n
    long = sh.sample_shifts(10, 99)
    assert np.array_equal(long[:3], a)
    big = sh.sample_shifts(100_000, 7)
    assert np.all((big >= 0.0) & (big < 1.0))
    assert abs(big.mean() - 0.5) < 0.01


@pytest.mark.parametrize("n", [3.0, 0, -1, True])
def test_sample_shifts_refuses_a_family_count_that_is_not_a_count(n):
    """n is an int >= 1, as in check_lattice: 3.0 once ended in a TypeError."""
    with pytest.raises(ValidationError) as info:
        sh.sample_shifts(n, 1)
    assert info.value.field == "n"


def slice_sum(body, eps, shifts, add=lambda g: g.sum(axis=1)):
    """Oracle: each family's slice lengths summed by add at every lattice
    offset eps (q + u) that can meet the body, shape (trials, n)."""
    dirs = sh.directions(shifts.shape[1])
    smin, smax = body.support_many(dirs)
    lengths = np.empty(shifts.shape)
    for k, nu in enumerate(dirs):
        q = np.arange(math.floor(smin[k] / eps) - 2, math.ceil(smax[k] / eps) + 2, dtype=float)
        offsets = eps * (q[None, :] + shifts[:, k, None])
        g = body.slice_lengths(nu, offsets.ravel()).reshape(offsets.shape)
        lengths[:, k] = add(g)
    return lengths


def many_sided_polygon(rng, m):
    """A strictly convex m-gon: sorted angles on a shifted ellipse."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=m))
    a, b = rng.uniform(0.3, 1.0, size=2)
    pts = np.column_stack([a * np.cos(angles), b * np.sin(angles)])
    try:
        return ConvexBody.polygon(pts + rng.uniform(-0.3, 0.3, size=2))
    except ValidationError:  # two angles too close for strict convexity
        return many_sided_polygon(rng, m)


def test_family_length_unit_square_midshift():
    """Four interior slices of the unit square: exactly |Omega| / eps."""
    lengths = sh.family_length_many(unit_square(), 0.25, np.array([[0.5]]))
    assert lengths[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_family_length_unit_square_zero_shift_counts_boundary():
    """With U=0 the lattice lines x=0 and x=1 lie in the boundary: 5 slices."""
    body = unit_square()
    lengths = sh.family_length_many(body, 0.25, np.array([[0.0]]))
    assert lengths[0, 0] == pytest.approx(5.0, abs=1e-12)
    # deviation 1 respects the two-sided variation bound 2 * diam
    assert abs(5.0 - 1.0 / 0.25) <= 2.0 * body.diameter


def assert_grid_length_is_the_clipped_length(sset):
    """Each family length, and the grid length, is the fsum of the lengths of
    the grid segments chord_bounds clips, to 1e-12 relative."""
    segments, fams, _ = sset.grid_segments
    d = segments[:, 1] - segments[:, 0]
    seg_lengths = np.hypot(d[:, 0], d[:, 1])
    lengths = sh.family_length_many(sset.body, sset.eps, sset.shifts[None, :])[0]
    for k in range(sset.n):
        want = math.fsum(seg_lengths[fams == k])
        assert lengths[k] == pytest.approx(want, rel=1e-12, abs=1e-12), k
    assert sh.grid_length(sset) == pytest.approx(math.fsum(seg_lengths), rel=1e-12)


def test_family_length_matches_chord_clipping_oracle():
    rng = np.random.default_rng(11)
    bodies = [random_polygon(rng) for _ in range(3)]
    bodies.append(ConvexBody.disk((0.1, 0.4), 0.9))
    for body in bodies:
        n = int(rng.integers(1, 9))
        eps = float(rng.uniform(0.05, 0.3))
        assert_grid_length_is_the_clipped_length(sh.SteinhausSet(
            body=body, n=n, eps=eps, shifts=rng.uniform(0, 1, size=n)))
    # unshifted grids with edges along lattice lines: regular polygons with n
    # a multiple of their symmetry, and the zero-mode squares at L = 1e5 and
    # 1e6, whose family n/2 (normal (6.1e-17, 1)) has a lattice line along
    # the bottom edge
    for body, n in ((regular_polygon(6), 12), (regular_polygon(8), 24)):
        assert_grid_length_is_the_clipped_length(
            sh.SteinhausSet(body=body, n=n, eps=0.05, shifts=np.zeros(n)))
    for length, n in ((1e5, 46), (1e6, 100)):
        _, plan_n, eps = _plan(unit_square(), length, "zero")
        assert plan_n == n
        assert_grid_length_is_the_clipped_length(sh.SteinhausSet(
            body=unit_square(), n=n, eps=eps, shifts=np.zeros(n)))


def test_family_length_mean_and_deviation_bound():
    """E_U[family length] = |Omega| / eps; |deviation| <= 2 diam always."""
    rng = np.random.default_rng(12)
    for body in [unit_square(), ConvexBody.disk((0.0, 0.0), 1.0), random_polygon(rng)]:
        eps = 0.08
        u = rng.uniform(0, 1, size=(4000, 7))
        lengths = sh.family_length_many(body, eps, u)
        expected = body.area / eps
        dev = lengths - expected
        assert np.max(np.abs(dev)) <= 2.0 * body.diameter + 1e-9
        sd = 2.0 * body.diameter / math.sqrt(len(u))
        assert np.all(np.abs(lengths.mean(axis=0) - expected) < 6.0 * sd)


def test_family_length_many_matches_slice_sum():
    """Per piece exact: within 1e-13 of the slice sum per (row, family) and
    1e-14 on the fsum grid total, on polygons of 3 to 199 sides."""
    rng = np.random.default_rng(21)
    for case in range(24):
        few = case % 2 == 0
        body = random_polygon(rng) if few else many_sided_polygon(rng, int(rng.integers(9, 200)))
        n = int(rng.integers(1, 201))
        eps = float(10 ** rng.uniform(-3.0 if few else -2.0, -1.0))
        trials = int(rng.integers(2, 30)) if few else 1
        shifts = rng.uniform(0, 1, size=(trials, n)) if case % 4 < 2 else np.zeros((trials, n))
        got = sh.family_length_many(body, eps, shifts)
        want = slice_sum(body, eps, shifts)
        assert got.shape == (trials, n)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        for row_got, row_want in zip(got, want):
            assert math.fsum(row_got) == pytest.approx(math.fsum(row_want), rel=1e-14)


def regular_polygon(m, radius=0.7, center=(0.1, 0.0)):
    angles = 2 * math.pi * np.arange(m) / m
    return ConvexBody.polygon(np.column_stack(
        [center[0] + radius * np.cos(angles), center[1] + radius * np.sin(angles)]))


@pytest.mark.parametrize("body", [unit_square(), regular_polygon(6), regular_polygon(8)],
                         ids=["square", "hexagon", "octagon"])
def test_family_length_many_edges_perpendicular_to_families(body):
    """Edges perpendicular to a family's normal, where the slice length
    jumps to zero past the edge, as in regular polygons with n a multiple of
    their symmetry: the projections must match slice_lengths' to the bit."""
    rng = np.random.default_rng(23)
    for n in (4, 12, 24, 120):
        for eps in (0.05, 0.003):
            shifts = np.vstack([np.zeros(n), rng.uniform(0, 1, size=(3, n))])
            np.testing.assert_allclose(sh.family_length_many(body, eps, shifts),
                                       slice_sum(body, eps, shifts), rtol=1e-13, atol=0)


SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
EDGES_ON_LATTICE = [(0.0625, 0), (0.9375, 0), (0.9375, 2), (0.0625, 2)]


@pytest.mark.parametrize("vertices, eps, u, slices", [
    # zero-shift unit square: x = 0, 0.25, ..., 1, both edges on lattice lines
    (SQUARE, 0.25, 0.0, 5),
    # one ulp more pitch puts 4 eps one rounding past the edge x = 1
    (SQUARE, np.nextafter(0.25, 1.0), 0.0, 5),
    # 0.1 * 1 == 0.1 is on the left edge; 0.1 * 7 rounds one ulp past the
    # right edge at 0.7
    ([(0.1, 0), (0.7, 0), (0.7, 0.5), (0.1, 0.5)], 0.1, 0.0, 7),
    # shifted lattice exactly through both edges: 0.125 (q + 0.5), q = 0..7
    (EDGES_ON_LATTICE, 0.125, 0.5, 8),
    # one ulp less pitch: q = 0 falls one rounding short of the left edge
    (EDGES_ON_LATTICE, np.nextafter(0.125, 0.0), 0.5, 8),
    # 0.45 / 0.09 rounds to 5, but 0.09 * 5 is one ulp short of the left edge
    ([(0.45, 0), (0.8, 0), (0.8, 1), (0.45, 1)], 0.09, 0.0, 4),
    # 0.07 / 0.01 rounds above 7, but 0.01 * 7 == 0.07 is on the left edge
    ([(0.07, 0), (0.5, 0), (0.5, 1), (0.07, 1)], 0.01, 0.0, 44),
    # x = 1 + 1e-13 and x = -1e-13 lie outside the square beyond the clip's
    # band; x = 1e-15 and 1 + 1e-15 lie within it
    (SQUARE, 0.25, 4e-13, 4),
    (SQUARE, 0.25, 1 - 4e-13, 4),
    (SQUARE, 0.25, 4e-15, 5),
])
def test_family_length_many_lattice_on_breakpoints(vertices, eps, u, slices):
    """A lattice line that the clip finds along an edge of a rectangle is a
    line of the set, and one it finds outside is not: the family length, the
    slice sum, the clipped grid segments and the kernel's count of a line
    across the family all agree."""
    body = ConvexBody.polygon(vertices)
    (_, y0), (_, y1) = body.vertices[0], body.vertices[2]
    sset = sh.SteinhausSet(body=body, n=1, eps=float(eps), shifts=[u])
    shifts = sset.shifts[None, :]
    got = sh.family_length_many(body, sset.eps, shifts)[0, 0]
    assert got == slice_sum(body, sset.eps, shifts)[0, 0] == slices * (y1 - y0)
    assert sh.grid_length(sset) == got
    assert count_line(sset, Line(math.pi / 2, 0.5 * (y0 + y1))).total == slices
    assert_grid_length_is_the_clipped_length(sset)


def test_family_length_many_disk_matches_slice_sum():
    """A disk's closed form is within 1e-13 of the fsum of its slices per
    (row, family) and 1e-14 on each row's fsum total: random centres and radii,
    pitches from 3e-5 r to r / 2 (the coarse ones leave families of at most
    2K + 1 lines, which take the slice sum alone), zero and random shifts,
    1 to 3 rows."""
    rng = np.random.default_rng(22)
    short = 0
    for case in range(40):
        r = float(10 ** rng.uniform(-1.5, 0.5))
        body = ConvexBody.disk(rng.uniform(-1, 1, 2), r)
        eps = r * float(10 ** rng.uniform(-4.5, -0.3))
        n, trials = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        shifts = rng.uniform(0, 1, (trials, n)) if case % 2 else np.zeros((trials, n))
        short += 2 * r / eps + 3 <= 2 * sh.END_LINES + 1  # at most that many lines
        got = sh.family_length_many(body, eps, shifts)
        want = slice_sum(body, eps, shifts, lambda g: [math.fsum(row) for row in g])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        for row_got, row_want in zip(got, want):
            assert math.fsum(row_got) == pytest.approx(math.fsum(row_want), rel=1e-14)
    assert short >= 4


@pytest.mark.parametrize("center, eps", [((0.0, 0.0), 2e-14), ((0.0, 0.0), 1e-12),
                                         ((0.0, 0.0), 1e-10), ((0.3, -0.2), 4e-14)])
def test_disk_family_lengths_hold_2_diam_at_tiny_pitch(center, eps):
    """Down to just above a unit-area disk's pitch floor (1.93e-14 centred,
    3.16e-14 at (0.3, -0.2)) every family lies within 2 diam of |Omega| / eps.
    The interior's integral is pi r^2 less two segments written in their
    depths below the boundary: the antiderivative x g + r^2 asin(x / r) in
    the coordinates amplifies their rounding by r / g near +-r, and at
    2e-14 missed |Omega| / eps by thousands."""
    body = ConvexBody.disk(center, 1.0 / math.sqrt(math.pi))
    shifts = np.vstack([np.zeros(7), np.random.default_rng(3).uniform(0, 1, (50, 7))])
    lengths = sh.family_length_many(body, eps, shifts)
    assert np.max(np.abs(lengths - body.area / eps)) <= 2.0 * body.diameter


def test_grid_length_requests_at_most_n_e_slices(monkeypatch):
    """A polygon's grid length asks for one slice per family and vertex, plus
    the lattice lines next outside a family's extremes where an edge sits at
    one (its slice there is nonzero): at most 2 per such family.  Here the
    bottom edge is parallel to family n/2's lattice lines (n = 554 is even)."""
    body = ConvexBody.polygon([(0, 0), (1, 0), (1.2, 0.7), (0.4, 1.1), (-0.1, 0.6)])
    sset = sh.mode_set(body, 554, 554 * body.area / (3e7 - body.diameter), "shifted", 3)
    z = np.sort(body.vertex_projections(sset.directions), axis=1)[:, [0, -1]]
    with_edge = np.count_nonzero(np.any(body.slice_lengths(sset.directions, z) != 0.0, axis=1))
    assert sset.n % 2 == 0 and with_edge == 1
    requested = []
    slice_lengths = ConvexBody.slice_lengths
    monkeypatch.setattr(ConvexBody, "slice_lengths", lambda self, nu, s: (
        requested.append(np.size(s)) or slice_lengths(self, nu, s)))
    sh.grid_length(sset)
    assert 0 < sum(requested) <= sset.n * len(body.vertices) + 2 * with_edge


def test_grid_segments_lie_on_their_lattice_lines():
    rng = np.random.default_rng(13)
    body = random_polygon(rng)
    sset = sh.SteinhausSet(
        body=body, n=5, eps=0.11, shifts=rng.uniform(0, 1, size=5)
    )
    segments, fams, _ = sset.grid_segments
    for seg, k in zip(segments, fams):
        nu = sset.directions[k]
        for pt in seg:
            v = float(pt @ nu) / sset.eps - sset.shifts[k]
            assert abs(v - round(v)) < 1e-9
            assert body.contains(pt)


def test_grid_segments_clip_in_bounded_blocks(monkeypatch):
    """The clip works in blocks of KERNEL_CHUNK // edges lines whoever calls
    it: chord_bounds, chord_batch, a polygon's slice_lengths and grid_segments
    each clip in blocks of at most 9 lines, the last one partial, and give the
    arrays that one block gives."""
    rng = np.random.default_rng(13)
    clip_block = ConvexBody._clip_block
    for body in (random_polygon(rng), ConvexBody.disk((0.1, -0.05), 0.8)):
        shifts = rng.uniform(0, 1, size=5)
        thetas = rng.uniform(0, math.pi, 40)
        lo, hi = body.offset_extents(thetas)
        offsets = lo - 0.1 + (hi - lo + 0.2) * rng.uniform(0, 1, 40)
        nu = np.column_stack([np.cos(thetas), np.sin(thetas)])
        calls = {
            "chord_bounds": lambda: body.chord_bounds(thetas, offsets),
            "chord_batch": lambda: body.chord_batch(thetas, offsets),
            "grid_segments": lambda: sh.SteinhausSet(
                body=body, n=5, eps=0.11, shifts=shifts).grid_segments,
        }
        if body.kind == "polygon":  # a disk's slices have their own closed form
            calls["slice_lengths"] = lambda: (body.slice_lengths(nu, offsets[:, None]),)
        edges = 1 if body.vertices is None else len(body.vertices)
        for name, call in calls.items():
            runs = []  # (lines per clip block, arrays), in one block and in 9-line blocks
            for chunk in (geometry.KERNEL_CHUNK, 9 * edges):
                blocks = []
                with monkeypatch.context() as patch:
                    patch.setattr(geometry, "KERNEL_CHUNK", chunk)
                    patch.setattr(ConvexBody, "_clip_block", lambda self, nu, p: (
                        blocks.append(len(p)) or clip_block(self, nu, p)))
                    runs.append((blocks, call()))
            (one, whole), (blocks, blocked) = runs
            assert len(one) == 1 and sum(blocks) == one[0], name
            assert max(blocks) == 9 and len(blocks) >= 3 and 0 < blocks[-1] < 9, name
            assert all(np.array_equal(a, b) for a, b in zip(whole, blocked)), name


def _traced(call):
    """call's value and the peak bytes tracemalloc sees while it runs."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_polygon_family_lengths_clip_within_a_bounded_peak():
    """A polygon's family lengths clip their 148 x 199 slices in bounded
    blocks: on a 199-gon at n = 148 the traced peak stays within 16 MiB
    (260 MiB when one clip took every slice at once)."""
    angles = np.sort(np.random.default_rng(5).uniform(0, 2 * math.pi, 199))
    body = ConvexBody.polygon(np.column_stack([np.cos(angles), np.sin(angles)]))
    n = 148
    shifts = np.random.default_rng(6).uniform(0, 1, (1, n))
    eps = n * body.area / 1e6
    _, peak = _traced(lambda: sh.family_length_many(body, eps, shifts))
    assert peak <= 16 * 2**20


def test_disk_family_lengths_row_by_row_within_a_bounded_peak():
    """A disk's family lengths hold 2K + 1 slices per (row, family), not one per
    lattice line: 1000 x 4 shifts at eps = 2e-4 (8,000 lines a family) peak
    within 3 MiB traced (one float per lattice line of every row would take
    244 MiB), and each row equals to the bit its own one-row call."""
    body = ConvexBody.disk((0.1, -0.05), 0.8)
    shifts = np.random.default_rng(7).uniform(0, 1, (1000, 4))
    lengths, peak = _traced(lambda: sh.family_length_many(body, 2e-4, shifts))
    assert peak <= 3 * 2**20
    for row, u in zip(lengths, shifts):
        assert np.array_equal(row, sh.family_length_many(body, 2e-4, u[None, :])[0])


def test_disk_grid_length_takes_2k_plus_5_square_roots_per_family(monkeypatch):
    """A disk's grid length takes 2K + 1 slices per family and two square roots
    at each end of its interior, whatever L: at L = 1e8 and 1e12 (about 9e4 and
    2.4e7 lattice lines per family) at most (2K + 5) n square roots."""
    body = ConvexBody.disk((0.1, -0.05), 0.8)
    rng = np.random.default_rng(8)
    sqrt, taken = np.sqrt, []
    monkeypatch.setattr(np, "sqrt", lambda x, *a, **kw: taken.append(np.size(x)) or sqrt(x, *a, **kw))
    for length in (1e8, 1e12):
        _, n, eps = _plan(body, length)
        sset = sh.SteinhausSet(body=body, n=n, eps=eps, shifts=rng.uniform(0, 1, n))
        assert 2 * body.radius / eps > 8e4
        taken.clear()
        sh.grid_length(sset)
        assert 0 < sum(taken) <= (2 * sh.END_LINES + 5) * n


def _plan(body, length, mode="shifted"):
    """The first build attempt's plan (M, n, eps): a slack of one body diameter."""
    return sh._plan(body, length, mode, body.diameter)


def test_plan_build_golden_n_for_unit_area():
    m, n, eps = _plan(unit_square(), 1e6)
    assert m == 1e6 - math.sqrt(2.0)
    assert n == 148  # floor(M^(2/5) / (ln M)^(1/5)), M = 1e6 - sqrt(2)
    assert eps == pytest.approx(148 / m, rel=1e-12)
    # the coupling n / eps = M / |Omega| is exact by construction
    assert n * unit_square().area / eps == pytest.approx(m, rel=1e-12)


def test_plan_build_margin_and_errors():
    """Both modes reserve one body diameter below the target."""
    disk = ConvexBody.disk((0.4, -0.3), 0.25)
    for mode in sh.MODES:
        assert sh.build_exact(disk, 1e6, mode, seed=0)[1] == 1e6 - 0.5
    with pytest.raises(ValidationError, match="^L:"):
        sh.build_exact(unit_square(), 2.5, "shifted", seed=0)
    for length in (1.0, math.inf):
        with pytest.raises(ValidationError, match=r"^L: target length \S+ must be finite"):
            sh.build_exact(unit_square(), length, "shifted", seed=0)
    # (30 - 10 sqrt 2) / 10 = 1.59 <= e: too short in the body's unit
    big = ConvexBody.polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    with pytest.raises(ValidationError, match=r"^L: .* = 41\.325$"):
        sh.build_exact(big, 30.0, "shifted", seed=0)


def _scaled(body, factor):
    if body.kind == "disk":
        return ConvexBody.disk(body.center * factor, body.radius * factor)
    return ConvexBody.polygon(body.vertices * factor)


def test_build_and_search_are_scale_covariant_to_the_bit():
    """Scaling the body and L by 2^k scales eps, the padding, the length and
    the witness offset by 2^k to the bit, and leaves n, the shifts, the sup
    and the line counts as they were: the plan reads L in the body's unit.  At
    k = -40 the padding residual is about 1e-12 (L = 9.1e-9): a padding
    tolerance of 1e-9 max(L, 1) would skip it and miss L by 1e-4 L."""
    angles = np.sort(np.random.default_rng(11).uniform(0, 2 * np.pi, 9))
    bodies = [unit_square(), ConvexBody.disk((0.1, -0.05), 0.8),
              ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]),
              ConvexBody.polygon(np.column_stack([np.cos(angles), np.sin(angles)]))]
    config = SupConfig(32, 32, 1, 0)

    def run(body, mode, factor):
        sset, _ = sh.build_exact(_scaled(body, factor), 1e4 * factor, mode, seed=5)
        return sset, estimate_sup(sset, sh.total_length(sset), config)

    for body, mode in itertools.product(bodies, sh.MODES):
        base, base_report = run(body, mode, 1.0)
        for k in (-40, -20, 3, 20):
            factor = 2.0**k
            sset, report = run(body, mode, factor)
            case = (body.kind, body.area, mode, k)
            assert sset.n == base.n and np.array_equal(sset.shifts, base.shifts), case
            assert sset.eps == base.eps * factor, case
            assert np.array_equal(sset.padding, base.padding * factor), case
            assert sh.total_length(sset) == sh.total_length(base) * factor, case
            assert (report.sup_estimate, report.witness_theta, report.witness_offset,
                    report.excluded_lines, report.samples_evaluated) == (
                base_report.sup_estimate, base_report.witness_theta,
                base_report.witness_offset * factor, base_report.excluded_lines,
                base_report.samples_evaluated), case


def test_plan_build_zero_exact_cube_root():
    body = unit_square()
    # floor((10^6)^(1/3)) exactly, despite float cube roots
    assert _plan(body, 1e6, "zero")[1] == 100
    assert _plan(body, 999.0, "zero")[1] == 9
    assert _plan(body, 1000.0, "zero")[1] == 10


def _exact_cube_root_floor(m: int) -> int:
    """floor(m^(1/3)) of an integer m >= 0, by integer bisection."""
    lo, hi = 0, 1 << (m.bit_length() // 3 + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**3 <= m else (lo, mid - 1)
    return lo


def test_cube_root_floor_at_cube_boundaries():
    """k^3 - 1, k^3 and k^3 + 1 as floats, and the floats next to k^3, for k
    up to 5e13 (above every zero-mode n the pitch floor admits); at 1e300 a
    finite int comes back at once."""
    ks = {1, 2, 3, 100, 2**17, 5 * 10**13}
    ks |= {int(k) for k in np.exp(np.random.default_rng(23).uniform(0, math.log(5e13), 300))}
    for k in sorted(ks):
        cube = float(k**3)
        for length in (float(k**3 - 1), cube, float(k**3 + 1),
                       math.nextafter(cube, 0.0), math.nextafter(cube, math.inf)):
            assert sh._cube_root_floor(length) == _exact_cube_root_floor(int(length)), length
    assert 1e6 ** (1 / 3) < 100.0 and sh._cube_root_floor(1e6) == 100
    started = time.perf_counter()
    n = sh._cube_root_floor(1e300)
    assert isinstance(n, int) and abs(n - 1e100) < 1e90
    assert time.perf_counter() - started < 1.0


def test_plan_build_zero_too_small_names_minimal_length():
    body = unit_square()
    minimal = math.e + body.diameter
    for mode in sh.MODES:
        with pytest.raises(ValidationError, match="^L:") as info:
            sh.build_exact(body, 3.0, mode, seed=0)
        assert float(str(info.value).rsplit("= ", 1)[1]) == pytest.approx(minimal, rel=1e-5)
        with pytest.raises(ValidationError, match="^L:"):
            sh.build_exact(body, minimal * (1 - 1e-5), mode, seed=0)
    m, n, _ = _plan(body, minimal * (1 + 1e-5), "zero")
    assert n == 1 and m > math.e


def test_unknown_mode_is_refused_naming_mode():
    """A bad mode is named before the length is looked at (2.5 is too short)."""
    with pytest.raises(ValidationError, match="^mode:"):
        sh.build_exact(unit_square(), 2.5, "bogus", 0)
    for mode in ("bogus", ["zero"]):
        with pytest.raises(ValidationError, match="^mode:"):
            sh.mode_set(unit_square(), 3, 0.1, mode, 0)


def test_mode_set_refuses_a_pitch_below_the_floor_before_drawing_a_shift(monkeypatch):
    def draw(*args):
        raise AssertionError("a shift was drawn")

    for mode, (n_rule, _) in sh.MODES.items():
        monkeypatch.setitem(sh.MODES, mode, (n_rule, draw))
    for mode in sh.MODES:
        with pytest.raises(ValidationError, match="^eps: "):
            sh.mode_set(unit_square(), 3, 1e-20, mode, 0)
        with pytest.raises(ValidationError, match="^n: need an integer >= 1, got 0$"):
            sh.mode_set(unit_square(), 0, 0.1, mode, 0)


def test_padding_direction_never_parallel_to_families():
    for n in range(1, 80):
        t = sh.padding_direction(n)
        dirs = sh.directions(n)
        tangents = np.column_stack([-dirs[:, 1], dirs[:, 0]])
        assert np.min(np.abs(dirs @ t)) > 1e-12, n
        assert np.min(np.abs(tangents @ t)) > 1e-12, n


def test_make_padding_lengths_and_disjointness():
    body = ConvexBody.polygon([(0, 0), (2, 0), (2, 2), (0, 2)])  # rho = 1
    segs = sh.make_padding(body, n=4, delta=1.7)
    assert segs.shape[0] == 2
    d = segs[:, 1] - segs[:, 0]
    lengths = np.hypot(d[:, 0], d[:, 1])
    assert sorted(lengths) == pytest.approx([0.7, 1.0])
    assert float(lengths.sum()) == pytest.approx(1.7, abs=1e-12)
    # pairwise disjoint: parallel segments at distinct offsets
    t = sh.padding_direction(4)
    normal = np.array([-t[1], t[0]])
    offs = segs[:, 0] @ normal
    assert len(np.unique(np.round(offs, 12))) == len(offs)
    center, rho = sh.padding_disk(body)
    for seg in segs:
        for pt in seg:
            assert np.hypot(*(pt - center)) <= rho + 1e-12
    assert sh.make_padding(body, 4, 0.0).shape == (0, 2, 2)
    # more segments than float spacing can separate: refused before any is laid
    with pytest.raises(ValidationError, match="^delta: "):
        sh.make_padding(body, 4, 2e9)
    # segment count bound: ceil(delta / rho) + 1
    for delta in [0.3, 1.0, 2.45, 7.2]:
        got = sh.make_padding(body, 9, delta)
        assert got.shape[0] <= math.ceil(delta / rho) + 1
        dd = got[:, 1] - got[:, 0]
        assert np.hypot(dd[:, 0], dd[:, 1]).sum() == pytest.approx(delta, abs=1e-9)


def test_padding_disk_for_disk_body_is_half_radius():
    body = ConvexBody.disk((2.0, 1.0), 0.8)
    center, rho = sh.padding_disk(body)
    assert np.allclose(center, [2.0, 1.0])
    assert rho == pytest.approx(0.4)


def test_padding_disk_of_square_rectangle_and_regular_polygon():
    center, rho = sh.padding_disk(unit_square())
    # exact, so padding (and with it every sweep byte) sits where it always did
    assert center.tolist() == [0.5, 0.5] and rho == 0.5
    # the centroid, not one of the largest disks' centres on the midline
    center, rho = sh.padding_disk(ConvexBody.polygon([(0, 0), (3, 0), (3, 1), (0, 1)]))
    assert center.tolist() == [1.5, 0.5] and rho == 0.5
    # regular m-gon with circumradius R: inradius R cos(pi / m)
    m, big_r = 1000, 2.0
    a = 2 * math.pi * np.arange(m) / m
    center, rho = sh.padding_disk(
        ConvexBody.polygon(big_r * np.column_stack([np.cos(a), np.sin(a)])))
    assert rho == pytest.approx(big_r * math.cos(math.pi / m), rel=1e-14)
    assert np.allclose(center, 0.0, atol=1e-12)


def brute_inscribed_disk(body):
    """Reference: of the circles touching any three edge lines, the largest
    that fits inside every edge (the LP optimum sits on such a vertex)."""
    v = body.vertices
    e = np.roll(v, -1, axis=0) - v
    nu = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    rows = np.column_stack([nu, np.ones(len(v))])
    b = np.sum(nu * v, axis=1)
    trios = np.array(list(itertools.combinations(range(len(v)), 3)))
    sol = np.linalg.solve(rows[trios], b[trios][:, :, None])[:, :, 0]
    fits = np.all(sol @ rows.T <= b + 1e-12 * body.diameter, axis=1)
    best = sol[fits][np.argmax(sol[fits, 2])]
    return best[:2], best[2]


def test_padding_disk_inside_random_polygons():
    """The centroid's disk lies inside the body, and its radius is at least
    2/3 of the inradius: the centroid is a third of the least width from every
    supporting line, and the inradius is at most half that width."""
    rng = np.random.default_rng(4)
    bodies = list(get_bodies()[:5])
    while len(bodies) < 200:  # points on a circle, then a random shear
        angles = np.sort(rng.uniform(0, 2 * math.pi, int(rng.integers(3, 13))))
        if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 0.02:
            continue
        shear = np.array([[1.0, rng.uniform(-2, 2)], [0.0, rng.uniform(0.1, 3)]])
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        bodies.append(ConvexBody.polygon(circle @ shear.T))
    for body in bodies:
        center, rho = sh.padding_disk(body)
        _, largest = brute_inscribed_disk(body)
        assert (2.0 / 3.0) * (1 - 1e-12) * largest <= rho <= largest * (1 + 1e-12), body.vertices
        for _ in range(200):
            phi = rng.uniform(0, 2 * math.pi)
            pt = center + (rho * 0.999) * np.array([math.cos(phi), math.sin(phi)])
            assert body.contains(pt), body.vertices


def test_adjust_length_exact_and_errors():
    rng = np.random.default_rng(14)
    body = unit_square()
    sset = sh.SteinhausSet(body=body, n=8, eps=0.07, shifts=rng.uniform(0, 1, 8))
    base = sh.grid_length(sset)
    target = base + 3.21
    adjusted = sh.adjust_length(sset, target)
    assert sh.total_length(adjusted) == pytest.approx(target, rel=1e-12)
    assert abs(sh.total_length(adjusted) - target) <= 1e-9 * target
    # delta = 0: unchanged geometry, no padding
    same = sh.adjust_length(sset, base)
    assert same.padding_count == 0
    assert sh.total_length(same) == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValidationError, match="exceeds target"):
        sh.adjust_length(sset, base - 1.0)


def test_adjust_length_changes_only_the_padding():
    """Every other field of the set, a seed included, is carried over as it is."""
    sset = sh.mode_set(unit_square(), 8, 0.07, "shifted", 5)
    padded = sh.adjust_length(sset, sh.grid_length(sset) + 3.21)
    assert padded.padding_count > 0 and sset.padding_count == 0
    for f in dataclasses.fields(sh.SteinhausSet):
        if f.name != "padding":
            ours, theirs = getattr(padded, f.name), getattr(sset, f.name)
            assert ours is theirs or np.array_equal(ours, theirs), f.name


def test_build_exact_hits_target_both_modes():
    """Exact length, and padding of less than two diameters: the plan
    reserves one diameter, and the grid strays from M by O(1)."""
    rng = np.random.default_rng(12)
    bodies = (unit_square(), ConvexBody.disk((0.3, -0.2), 0.6), random_polygon(rng))
    for body in bodies:
        for mode in ("shifted", "zero"):
            for L in (1e3, 2000.0, 35000.0, 1e5, 1e7):
                sset, m = sh.build_exact(body, L, mode, seed=5)
                actual = sh.total_length(sset)
                assert abs(actual - L) <= 1e-9 * L, (mode, L)
                assert m == L - body.diameter
                assert sset.padding_length < 2 * body.diameter, (body.kind, mode, L)
                if mode == "zero":
                    assert np.all(sset.shifts == 0.0)
                # padding segment count stays within the layout bound
                _, rho = sh.padding_disk(body)
                delta = actual - sh.grid_length(sset)
                assert sset.padding_count <= math.ceil(max(delta, 0.0) / rho) + 1


def test_build_exact_doubles_slack_on_overshoot(monkeypatch):
    """At L=1e8 seed 1 the square's grid exceeds M = L - sqrt(2) by 1.66, and
    so exceeds L: the slack doubles, and each build measures its grid once."""
    calls, attempts = [], []
    measure, plan_attempt = sh.grid_length, sh._plan
    monkeypatch.setattr(sh, "grid_length", lambda sset: calls.append(sset) or measure(sset))
    monkeypatch.setattr(sh, "_plan", lambda *a: attempts.append(plan_attempt(*a)) or attempts[-1])
    sset, m = sh.build_exact(unit_square(), 1e8, "shifted", seed=1)
    assert len(attempts) == 2 and len(calls) == 2
    assert [p[0] for p in attempts] == [1e8 - math.sqrt(2), m]
    assert m == 1e8 - 2 * math.sqrt(2)
    assert sh.total_length(sset) == 1e8


_FRESH_BUILD_SCRIPT = """
import sys
import numpy as np
from buffon.geometry import ConvexBody, unit_square
from buffon.steinhaus import build_exact

angles = np.sort(np.random.default_rng(7).uniform(0, 2 * np.pi, 9))
polygon = ConvexBody.polygon(np.column_stack([np.cos(angles), 0.6 * np.sin(angles)]))
for body in (unit_square(), polygon):
    sset, _ = build_exact(body, 3000.0, "shifted", 1)
    print(sset.padding_count)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_build_exact_needs_no_scipy():
    """Padding a polygon finds its inscribed disk with numpy alone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _FRESH_BUILD_SCRIPT],
                            capture_output=True, text=True, check=True, env=env)
    *padding_counts, scipy_modules = result.stdout.splitlines()
    assert all(int(count) > 0 for count in padding_counts)  # both were padded
    assert scipy_modules == "[]"


def test_grid_length_measured_once_per_set(monkeypatch, tmp_path):
    calls = []
    measure = sh.grid_length
    monkeypatch.setattr(sh, "grid_length", lambda sset: calls.append(sset) or measure(sset))
    body = unit_square()
    sset, _ = sh.build_exact(body, 5000.0, "shifted", seed=3)
    sh.total_length(sset)
    path = tmp_path / "set.json"
    sh.save_manifest(sset, path)
    assert len(calls) == 1
    calls.clear()
    sh.total_length(sh.load_manifest(path))
    assert len(calls) == 1


def test_manifest_round_trip_and_strictness(tmp_path):
    body = unit_square()
    sset, _ = sh.build_exact(body, 1500.0, "shifted", seed=42)
    path = tmp_path / "set.json"
    sh.save_manifest(sset, path)
    again = sh.load_manifest(path)
    assert again.n == sset.n
    assert again.eps == sset.eps
    assert np.array_equal(again.shifts, sset.shifts)
    assert np.array_equal(again.padding, sset.padding)
    assert sh.total_length(again) == pytest.approx(sh.total_length(sset), rel=1e-12)
    # byte-identical re-serialization
    path2 = tmp_path / "set2.json"
    sh.save_manifest(again, path2)
    assert path.read_bytes() == path2.read_bytes()

    manifest = json.loads(path.read_text())
    manifest["flavor"] = "ranch"
    with pytest.raises(ValidationError, match="unknown"):
        sh.set_from_manifest(manifest)
    del manifest["flavor"]
    del manifest["eps"]
    with pytest.raises(ValidationError, match="missing"):
        sh.set_from_manifest(manifest)
    manifest = json.loads(path.read_text())
    manifest["total_length"] = manifest["total_length"] * 1.001
    with pytest.raises(ValidationError, match="total_length"):
        sh.set_from_manifest(manifest)
    manifest = json.loads(path.read_text())
    manifest["eps"] = 1e-300  # body scale / eps far above 2^52
    with pytest.raises(ValidationError, match="^eps: "):
        sh.set_from_manifest(manifest)
    manifest = json.loads(path.read_text())
    manifest["n"] = 2.5
    with pytest.raises(ValidationError, match="^n: need an integer"):
        sh.set_from_manifest(manifest)
    manifest = json.loads(path.read_text())
    manifest["padding"] = [[[0.2, 0.2], [0.3, 0.3]], [[0.2, 0.4], [0.3]]]  # ragged
    with pytest.raises(ValidationError, match="^padding: need numbers"):
        sh.set_from_manifest(manifest)


@pytest.mark.parametrize("field, value", [
    ("shifts", [math.nan]), ("padding", [[[0.2, 0.2], [math.inf, 0.3]]]),
    ("padding", [[[0.2, math.nan], [0.3, 0.3]]]), ("total_length", math.nan),
    ("total_length", math.inf)])
def test_manifest_refuses_non_finite_values(field, value):
    """json reads NaN and Infinity; each such value is refused, naming its
    field, where a NaN shift once dropped its family from the grid length."""
    sset = sh.SteinhausSet(body=unit_square(), n=3, eps=0.1, shifts=np.array([0.1, 0.5, 0.7]))
    manifest = sh.set_to_manifest(sset)
    if field == "shifts":
        value = value + manifest["shifts"][1:]
    manifest[field] = value
    with pytest.raises(ValidationError, match=f"^{field}:"):
        sh.set_from_manifest(json.loads(json.dumps(manifest)))


@pytest.mark.parametrize("field, value", [
    ("n", 16.0), ("n", 0), ("n", True), ("n", "16"),
    ("seed", 1.5), ("seed", 1.0), ("seed", -1), ("seed", True), ("seed", "1")])
def test_manifest_n_and_seed_are_counts(field, value):
    """A manifest's n is an int >= 1 and its seed null or an int >= 0, as
    check_count reads every count; a float n once loaded, a float seed not."""
    sset = sh.SteinhausSet(body=unit_square(), n=3, eps=0.1, shifts=np.array([0.1, 0.5, 0.7]),
                           seed=7)
    manifest = json.loads(json.dumps(sh.set_to_manifest(sset)))
    assert sh.set_from_manifest(dict(manifest, seed=None)).seed is None
    manifest[field] = value
    with pytest.raises(ValidationError, match=f"^{field}: need an integer >= "):
        sh.set_from_manifest(manifest)


def test_set_validation():
    body = unit_square()
    with pytest.raises(ValidationError, match="shifts"):
        sh.SteinhausSet(body=body, n=3, eps=0.1, shifts=np.array([0.1, 0.2]))
    with pytest.raises(ValidationError, match="shifts"):
        sh.SteinhausSet(body=body, n=2, eps=0.1, shifts=np.array([0.1, 1.0]))
    with pytest.raises(ValidationError, match="eps"):
        sh.SteinhausSet(body=body, n=1, eps=0.0, shifts=np.array([0.1]))
    with pytest.raises(ValidationError, match="n"):
        sh.SteinhausSet(body=body, n=0, eps=0.1, shifts=np.zeros(0))
    # a count is an int: a float, even an integral one, or a boolean is refused
    for n in (16.0, 2.5, True):
        with pytest.raises(ValidationError, match="^n: need an integer >= 1"):
            sh.SteinhausSet(body=body, n=n, eps=0.1, shifts=np.zeros(16))
    with pytest.raises(ValidationError, match="^padding: need segments"):
        sh.SteinhausSet(body=body, n=1, eps=0.1, shifts=np.zeros(1), padding=[0.2, 0.2, 0.3])
