"""Geometry oracles: brute-force clipping against the vectorized chord path.

The reference oracle intersects a line with every polygon edge *segment*
independently (no interval clipping), so agreement with ``chord_batch`` is a
real cross-check, not a tautology.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buffon.geometry import (
    ConvexBody,
    Line,
    ValidationError,
    body_from_dict,
    body_to_dict,
    rounding_bound,
    unit_square,
    unit_vector,
)


def random_polygon(rng, m=None, scale=1.0):
    """A random strictly convex polygon: points on an ellipse, jittered radii."""
    m = m or int(rng.integers(3, 9))
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=m))
    while np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 0.15:
        angles = np.sort(rng.uniform(0, 2 * math.pi, size=m))
    radii = rng.uniform(0.5, 1.0, size=m) * scale
    pts = np.column_stack([np.cos(angles), np.sin(angles)]) * radii[:, None]
    pts += rng.uniform(-0.3, 0.3, size=2)
    try:
        return ConvexBody.polygon(pts)
    except ValidationError:
        return random_polygon(rng, m, scale)


def oracle_chord(body, line):
    """Brute-force chord: intersect the line with each boundary element."""
    nu = np.array([math.cos(line.theta), math.sin(line.theta)])
    t = np.array([-math.sin(line.theta), math.cos(line.theta)])
    p = line.offset
    hits = []
    if body.kind == "disk":
        d = float(body.center @ nu) - p
        if abs(d) >= body.radius:
            return None
        half = math.sqrt(body.radius**2 - d * d)
        foot = body.center - d * nu
        return foot - half * t, foot + half * t
    v = body.vertices
    m = len(v)
    for i in range(m):
        a, b = v[i], v[(i + 1) % m]
        sa = float(a @ nu) - p
        sb = float(b @ nu) - p
        if sa == sb == 0.0:
            hits += [a, b]
        elif min(sa, sb) <= 0.0 <= max(sa, sb) and sa != sb:
            tau = sa / (sa - sb)
            hits.append(a + tau * (b - a))
    if not hits:
        return None
    params = [float(h @ t) for h in hits]
    lo, hi = min(params), max(params)
    if hi - lo <= 1e-12 * body.diameter:
        return None
    base = p * nu
    return base + lo * t, base + hi * t


def chord_of(body, line):
    """(start, end, length) of the line's chord from chord_batch, or None for a
    miss or tangency."""
    start, end, length, valid = body.chord_batch(np.array([line.theta]),
                                                 np.array([line.offset]))
    return (start[0], end[0], float(length[0])) if valid[0] else None


BODIES = None


def get_bodies():
    global BODIES
    if BODIES is None:
        rng = np.random.default_rng(20260814)
        BODIES = [random_polygon(rng) for _ in range(5)]
        BODIES.append(ConvexBody.disk((0.2, -0.1), 0.8))
        BODIES.append(unit_square())
    return BODIES


def test_chord_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for body in get_bodies():
        box_lo, box_hi = body.support_many(np.eye(2))
        lo = box_lo.min() - 0.2
        hi = box_hi.max() + 0.2
        for _ in range(400):
            line = Line(rng.uniform(0, math.pi), rng.uniform(lo, hi))
            got = chord_of(body, line)
            want = oracle_chord(body, line)
            if want is None:
                assert got is None or got[2] <= 1e-9 * body.diameter
                continue
            assert got is not None, (body.kind, line)
            (g0, g1, _), (w0, w1) = got, want
            d_direct = np.hypot(*(g0 - w0)) + np.hypot(*(g1 - w1))
            d_swap = np.hypot(*(g0 - w1)) + np.hypot(*(g1 - w0))
            assert min(d_direct, d_swap) < 1e-9 * (1 + body.diameter)


def test_chord_endpoints_on_line_and_boundary():
    rng = np.random.default_rng(2)
    for body in get_bodies():
        for _ in range(100):
            line = Line(rng.uniform(0, math.pi), rng.uniform(-1.5, 1.5))
            ch = chord_of(body, line)
            if ch is None:
                continue
            start, end, length = ch
            nu = np.array([math.cos(line.theta), math.sin(line.theta)])
            assert abs(float(start @ nu) - line.offset) < 1e-9
            assert abs(float(end @ nu) - line.offset) < 1e-9
            assert body.contains(start)
            assert body.contains(end)
            assert length == pytest.approx(float(np.hypot(*(end - start))), rel=1e-12)


@pytest.mark.parametrize("theta, offset", [(math.nan, 0.0), (0.0, math.inf)])
def test_line_refuses_a_non_finite_parameter(theta, offset):
    with pytest.raises(ValidationError, match="^line: "):
        Line(theta, offset)


def test_line_normalization_identifies_theta_plus_pi(monkeypatch):
    line = Line(1.0, 0.3)
    same = Line(1.0 + math.pi, -0.3)
    assert same.theta == pytest.approx(1.0)
    assert same.offset == pytest.approx(0.3)
    assert type(same.theta) is float and type(same.offset) is float
    # the batch form the sup search uses is the same map, bit for bit, also
    # next to the seams at multiples of pi
    seams = np.arange(-4, 5) * math.pi
    thetas = np.concatenate([np.linspace(-20.0, 20.0, 4001), seams,
                             np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf),
                             [-5e-324]])
    offsets = np.linspace(-1.0, 1.0, thetas.size)
    th, off = Line.normalize_many(thetas, offsets)
    assert np.all((th >= 0.0) & (th < math.pi))
    for t, p, want_t, want_p in zip(thetas, offsets, th, off):
        got = Line(float(t), float(p))
        assert (got.theta, got.offset) == (want_t, want_p)
    # -5e-324 / pi underflows to -0.0; the angle goes to +0.0 with its offset
    tiny = Line(-5e-324, 0.3)
    assert (tiny.theta, tiny.offset) == (0.0, 0.3) and not np.signbit(tiny.theta)
    assert (th[-1], off[-1]) == (0.0, offsets[-1]) and not np.signbit(th[-1])
    # a line already in [0, pi) keeps its fields without a numpy call
    monkeypatch.setattr(Line, "normalize_many", None)
    assert Line(1.0, -0.3).offset == -0.3 and Line(0.0, 2.0).theta == 0.0
    # and they cut identical chords
    body = get_bodies()[0]
    c1, c2 = chord_of(body, line), chord_of(body, same)
    if c1 is not None:
        assert c2 is not None
        assert np.allclose(c1[0], c2[0], atol=1e-12) or np.allclose(
            c1[0], c2[1], atol=1e-12
        )


@given(st.floats(-4, 4), st.floats(0, math.pi, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_slice_matches_chord_length(s, theta):
    body = get_bodies()[2]
    nu = (math.cos(theta), math.sin(theta))
    (g,) = body.slice_lengths(nu, np.array([s]))
    ch = chord_of(body, Line(theta, s))
    want = ch[2] if ch is not None else 0.0
    assert g == pytest.approx(want, abs=1e-9)


def test_one_band_decides_outside_and_along():
    """A line parallel to the square's right edge x = 1 is along it (edge 1,
    the edge its chord) within the edge's rounding band, outside the body
    beyond it, and an ordinary chord inside it; slices take the same clip."""
    sq = unit_square()
    band = rounding_bound(sq.scale)  # |e| = 1 and beta = 0
    offsets = 1.0 + np.array([-1e-13, -0.9 * band, 0.0, 0.9 * band, 1.1 * band, 1e-13])
    _, _, length, valid, _, _, _, _, along = sq.chord_bounds(np.zeros(6), offsets)
    assert along.tolist() == [-1, 1, 1, 1, -1, -1]
    assert valid.tolist() == [True] * 4 + [False] * 2
    assert length.tolist() == [1.0] * 4 + [0.0] * 2
    assert np.array_equal(sq.slice_lengths((1.0, 0.0), offsets), length)


def test_slice_lengths_are_the_chord_lengths_bit_for_bit():
    """Slices skip the endpoint bounds, not the clip: on a 199-gon a slice has
    its chord's length to the bit wherever the two see the same normal."""
    rng = np.random.default_rng(5)
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=199))
    body = ConvexBody.polygon(np.column_stack([0.8 * np.cos(angles), 0.5 * np.sin(angles)]))
    thetas = rng.uniform(0, math.pi, 2000)
    nu = np.column_stack([np.cos(thetas), np.sin(thetas)])
    same = np.all(unit_vector(nu) == nu, axis=1)
    assert np.count_nonzero(same) > 1000
    lo, hi = body.offset_extents(thetas)
    offsets = rng.uniform(lo - 0.1, hi + 0.1)
    slices = body.slice_lengths(nu[same], offsets[same, None])[:, 0]
    assert np.array_equal(slices, body.chord_bounds(thetas[same], offsets[same])[2])


@pytest.mark.parametrize("body", [
    random_polygon(np.random.default_rng(8), 7), ConvexBody.disk((0.2, -0.1), 0.7)])
def test_chord_batch_is_the_clip_of_chord_bounds_bit_for_bit(body):
    """chord_batch is chord_bounds with the endpoint bounds dropped: its four
    arrays are chord_bounds' first four to the bit, on lines that miss the
    body, lines tangent to it (offset at a support extreme) and lines
    through it."""
    rng = np.random.default_rng(9)
    thetas = rng.uniform(0, math.pi, 600)
    lo, hi = body.offset_extents(thetas)
    offsets = np.concatenate([rng.uniform(lo[:200], hi[:200]),
                              lo[200:300], hi[300:400],
                              lo[400:500] - rng.uniform(1e-3, 1.0, 100),
                              hi[500:] + rng.uniform(1e-3, 1.0, 100)])
    got = body.chord_batch(thetas, offsets)
    want = body.chord_bounds(thetas, offsets)[:4]
    assert np.all(got[3][:200]) and not np.any(got[3][400:])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_slice_concavity_on_support():
    """g is concave on its support: midpoint value >= mean of endpoints."""
    rng = np.random.default_rng(3)
    for body in get_bodies():
        for _ in range(250):
            theta = rng.uniform(0, math.pi)
            nu = (math.cos(theta), math.sin(theta))
            (lo,), (hi,) = body.support_many(np.array([nu]))
            a, b = np.sort(rng.uniform(lo, hi, size=2))
            ga, gb, gm = body.slice_lengths(nu, np.array([a, b, 0.5 * (a + b)]))
            assert gm >= 0.5 * (ga + gb) - 1e-9 * body.diameter


def test_slice_of_unit_square_axis():
    sq = unit_square()
    # boundary slices of the closed body have full edge length
    g = sq.slice_lengths((1.0, 0.0), np.array([0.5, 0.0, 1.0, -1e-9]))
    assert g[:3] == pytest.approx([1.0, 1.0, 1.0])
    assert g[3] == 0.0
    assert sq.slice_lengths((0.0, 1.0), np.array([0.25]))[0] == pytest.approx(1.0)
    d = math.sqrt(0.5)
    assert sq.slice_lengths((d, d), np.array([d]))[0] == pytest.approx(math.sqrt(2.0))


def test_slice_lengths_of_a_direction_stack_equal_single_calls():
    """A (K, 2) stack with (K, m) offsets gives the single-direction rows,
    bit for bit on a polygon; a zero direction anywhere is refused."""
    rng = np.random.default_rng(4)
    dirs = np.column_stack([np.cos(np.arange(9) * 0.37), np.sin(np.arange(9) * 0.37)]) * 1.5
    s = rng.uniform(-1.5, 1.5, size=(9, 40))
    for body in get_bodies():
        rows = [body.slice_lengths(nu, sk) for nu, sk in zip(dirs, s)]
        stacked = body.slice_lengths(dirs, s)
        assert stacked.shape == (9, 40)
        if body.kind == "polygon":
            assert np.array_equal(stacked, rows)
        np.testing.assert_allclose(stacked, rows, rtol=0, atol=1e-12)
    with pytest.raises(ValidationError):
        unit_square().slice_lengths(np.vstack([dirs[:2], [0.0, 0.0]]), s[:3])


def test_disk_slice_lengths_equal_the_closed_form_bit_for_bit():
    """A disk's slices are 2 sqrt(max(r^2 - (s - c)^2, 0)) with c = nu . centre,
    computed in place in one array: every bit equals the plain expression, for
    one direction and for a stack, inside and outside the disk."""
    rng = np.random.default_rng(5)
    body = ConvexBody.disk((0.31, -0.17), 0.73)
    dirs = np.column_stack([np.cos(np.arange(7) * 0.41), np.sin(np.arange(7) * 0.41)]) * 0.6
    s = rng.uniform(-1.3, 1.3, size=(7, 500))

    def closed_form(nu, svals):
        nu = unit_vector(nu)
        return 2.0 * np.sqrt(np.maximum(
            body.radius**2 - (svals - (nu @ body.center)[..., None]) ** 2, 0.0))

    stacked = body.slice_lengths(dirs, s)
    assert np.array_equal(stacked, closed_form(dirs, s))
    assert np.any(stacked == 0.0) and np.any(stacked > 0.0)
    for nu, sk in zip(dirs, s):
        assert np.array_equal(body.slice_lengths(nu, sk), closed_form(nu, sk))


def test_area_diameter_bbox():
    sq = unit_square()
    assert sq.area == pytest.approx(1.0)
    assert sq.diameter == pytest.approx(math.sqrt(2.0))
    box_lo, box_hi = sq.support_many(np.eye(2))
    assert box_lo.tolist() == [0.0, 0.0] and box_hi.tolist() == [1.0, 1.0]
    disk = ConvexBody.disk((1.0, 2.0), 0.5)
    assert disk.area == pytest.approx(math.pi * 0.25)
    assert disk.diameter == pytest.approx(1.0)
    box_lo, box_hi = disk.support_many(np.eye(2))
    assert box_lo.tolist() == [0.5, 1.5] and box_hi.tolist() == [1.5, 2.5]
    # triangle (0,0),(2,0),(0,2): area 2, diameter 2*sqrt(2)
    tri = ConvexBody.polygon([(0, 0), (2, 0), (0, 2)])
    assert tri.area == pytest.approx(2.0)
    assert tri.diameter == pytest.approx(2 * math.sqrt(2))


def test_validation_rejects_bad_polygons():
    with pytest.raises(ValidationError):
        ConvexBody.polygon([(0, 0), (1, 0), (2, 0), (0, 1)])  # collinear triple
    with pytest.raises(ValidationError):
        ConvexBody.polygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise
    with pytest.raises(ValidationError):
        ConvexBody.polygon([(0, 0), (1, 0)])  # too few
    with pytest.raises(ValidationError):
        ConvexBody.polygon([(0, 0), (1, 0), (1, 0), (0, 1)])  # repeated vertex
    with pytest.raises(ValidationError):
        ConvexBody.disk((0, 0), -1.0)
    with pytest.raises(ValidationError):
        # non-convex quad (reflex vertex)
        ConvexBody.polygon([(0, 0), (2, 0), (0.1, 0.1), (0, 2)])
    with pytest.raises(ValidationError, match="^polygon: vertices must be finite"):
        ConvexBody.polygon([(0, 0), (1, 0), (math.inf, 1)])
    with pytest.raises(ValidationError, match="^disk.center: need a finite point"):
        ConvexBody.disk((math.inf, 0), 1.0)


def test_inscribed_disk_of_square_and_disk():
    sq = unit_square()
    center, rho = sq.inscribed_disk
    # exact, so padding (and with it every sweep byte) sits where it always did
    assert center.tolist() == [0.5, 0.5] and rho == 0.5
    d = ConvexBody.disk((3.0, -1.0), 0.7)
    center, rho = d.inscribed_disk
    assert np.allclose(center, [3.0, -1.0])
    assert rho == pytest.approx(0.7)
    # a rectangle's centre is not unique: any point on its midline will do
    center, rho = ConvexBody.polygon([(0, 0), (3, 0), (3, 1), (0, 1)]).inscribed_disk
    assert rho == pytest.approx(0.5, abs=1e-12)
    assert center[1] == pytest.approx(0.5, abs=1e-12) and 0.5 <= center[0] <= 2.5
    # regular m-gon with circumradius R: inradius R cos(pi / m).  Adjacent edge
    # lines are nearly parallel, so the 3x3 solves lose about 1e-12.
    m, big_r = 1000, 2.0
    a = 2 * math.pi * np.arange(m) / m
    center, rho = ConvexBody.polygon(
        big_r * np.column_stack([np.cos(a), np.sin(a)])).inscribed_disk
    assert rho == pytest.approx(big_r * math.cos(math.pi / m), rel=1e-11)
    assert np.allclose(center, 0.0, atol=1e-9)


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


def test_inscribed_disk_inside_random_polygons():
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
        center, rho = body.inscribed_disk
        assert rho > 0
        _, want = brute_inscribed_disk(body)
        assert rho == pytest.approx(want, rel=1e-12), body.vertices
        for _ in range(200):
            phi = rng.uniform(0, 2 * math.pi)
            pt = center + (rho * 0.999) * np.array([math.cos(phi), math.sin(phi)])
            assert body.contains(pt), body.vertices


def test_body_dict_round_trip():
    for body in get_bodies():
        again = body_from_dict(body_to_dict(body))
        assert again.kind == body.kind
        assert again.area == pytest.approx(body.area, rel=1e-15)
    with pytest.raises(ValidationError):
        body_from_dict({"polygon": [[0, 0], [1, 0], [1, 1]], "extra": 1})
    with pytest.raises(ValidationError):
        body_from_dict({"disk": {"center": [0, 0], "radius": 1, "color": "red"}})
    with pytest.raises(ValidationError):
        body_from_dict({"ball": {}})
    with pytest.raises(ValidationError, match="^body: specification must be a JSON object"):
        body_from_dict([])


def test_support_interval_matches_vertex_extremes():
    rng = np.random.default_rng(5)
    body = get_bodies()[1]
    thetas = rng.uniform(0, 2 * math.pi, 100)
    units = np.column_stack([np.cos(thetas), np.sin(thetas)])
    lo, hi = body.support_many(units)
    assert np.array_equal((lo, hi), body.offset_extents(thetas))
    for nu, nu_lo, nu_hi in zip(units, lo, hi):
        proj = body.vertices @ nu
        assert nu_lo == pytest.approx(float(proj.min()))
        assert nu_hi == pytest.approx(float(proj.max()))
        # all of the body lies in the slab
        for _ in range(10):
            t = rng.uniform(0, 1, size=len(body.vertices))
            t /= t.sum()
            point = t @ body.vertices
            assert nu_lo - 1e-12 <= float(point @ nu) <= nu_hi + 1e-12
