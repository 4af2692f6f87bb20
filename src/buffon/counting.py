"""Exact crossing counts of lines against a Steinhaus set.

For a chord whose endpoint projections onto family k's normal are a <= b,
the number of lattice lines of that family the chord crosses is

    N_k = #{q : eps (q + U_k) in [a, b)} = ceil(b/eps - U_k) - ceil(a/eps - U_k),

an O(1) integer formula.  The half-open convention resolves boundary ties
deterministically; N_k differs from the mean (b - a)/eps by less than one.

Summed over the families, the means are the mean term

    mean_term = (h/eps) sum_k |t . nu_k| = (h/eps) angular_sum(n, theta + pi/2),

with h the chord length and t the line's unit tangent, taken in closed form
(steinhaus.angular_sum); z = total - mean_term is its complement.  Both
are functions of the line's angle, chord length and integer total alone, so
they do not depend on the batch the line is evaluated in.  The
per-family deviation max_k |N_k - (b_k - a_k)/eps| is family_deviation,
which count_line and count_lines report (a LineBatch does not carry it).

A line is *exceptional* when float rounding could change its count (a
measure-zero set of line space): ConvexBody.chord_bounds gives each
chord endpoint a forward error bound c 2^-53 S (1 + kappa), S the body's
coordinate scale and kappa the endpoint's conditioning, and a line is
exceptional when an endpoint's lattice coordinate lies within that bound
plus its own rounding, rounding_bound(sset.scale), of a lattice value (the
line passes next to the point where that grid segment meets the boundary,
or runs along it), when the clip finds it along a boundary edge, or when it
passes within rounding_bound(sset.scale) of a padding-segment endpoint.
An endpoint on an edge that the clip finds a lattice line along (pinned,
SteinhausSet.pinned_edges: e.g. an axis-aligned body under zero shifts) is
a stable crossing: it is counted on either side, though the half-open
convention would drop it on the max side.

Every other line is counted as exact arithmetic on the kernel's float
inputs would count it; exceptional ones are not (count_line raises, batches
zero their counts).  The oracle flags a line within a grid-segment
endpoint's tolerance (its clipping bound plus the sign test's rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import KERNEL_CHUNK, Line, rounding_bound
from .steinhaus import SteinhausSet, angular_sum, directions

__all__ = [
    "ExceptionalLineError",
    "count_in_interval",
    "CountBreakdown",
    "LineBatch",
    "evaluate_lines",
    "count_line",
    "oracle_count",
    "oracle_padding_hits",
    "z_samples",
]


class ExceptionalLineError(ValueError):
    """The line's crossing count is ambiguous under perturbation."""

    def __init__(self, theta: float, offset: float, reason: str):
        self.theta = theta
        self.offset = offset
        super().__init__(
            f"exceptional line theta={theta!r} offset={offset!r}: {reason}"
        )


def count_in_interval(a, b, eps: float, u, out=None):
    """#{q : eps (q + u) in [a, b)}; zero when a == b.  Broadcasts over
    arrays; the counts are integer-valued floats.  out, two float buffers of
    the broadcast shape, takes the counts in out[0] (out[1] is scratch)."""
    if out is None:
        out = np.empty((2, *np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(u))))
    hi, lo = out[0, ...], out[1, ...]
    np.ceil(np.subtract(np.divide(b, eps), u, out=hi), out=hi)
    np.ceil(np.subtract(np.divide(a, eps), u, out=lo), out=lo)
    return np.subtract(hi, lo, out=hi)[()]  # a scalar for scalar input


@dataclass(frozen=True, eq=False)
class CountBreakdown:
    """Per-family counts with the exact decomposition total = mean_term + z:
    mean_term is the closed form, z its complement, chord_length the clipped
    chord's (0 for a miss), and max_abs_dev the largest per-family
    |N_k - mean_k| (a batch does not carry it)."""

    per_family: np.ndarray
    total: int
    mean_term: float
    z: float
    padding_hits: int
    chord_length: float
    max_abs_dev: float


@dataclass(eq=False)
class LineBatch:
    """Vectorized evaluation results; jittered is always False (no line moves)."""

    theta: np.ndarray
    offset: np.ndarray
    valid: np.ndarray
    h: np.ndarray
    total: np.ndarray
    z: np.ndarray
    mean_term: np.ndarray
    padding_hits: np.ndarray
    exceptional: np.ndarray
    jittered: np.ndarray


def _workspace(sset: SteinhausSet, lines: int) -> tuple:
    """Lines per line block, lines per family block, and the five flat float
    planes that every block of a batch of lines takes its views from.

    A line block bounds the per-line work: its (padding x lines) planes hold
    at most KERNEL_CHUNK elements, and it holds at most KERNEL_CHUNK // 16
    lines (16 at least); the clip bounds its own temporaries.
    A family block bounds the (families x lines) planes: KERNEL_CHUNK // n of
    a line block's lines (16 at least).  From one family block on, a plane
    takes KERNEL_CHUNK elements (16 lines if wider) whatever n is, so sets
    reuse one heap block."""
    fams, pads = sset.n, sset.padding_count
    line_rows = max(16, KERNEL_CHUNK // max(16, pads))
    fam_rows = min(line_rows, max(16, KERNEL_CHUNK // fams))
    width = max(fams, pads)
    size = max(KERNEL_CHUNK, 16 * width) if lines >= fam_rows else lines * width
    return line_rows, fam_rows, np.empty((5, size))


def _new_batch(thetas, offsets) -> LineBatch:
    """A batch of the lines, whose other fields the kernel fills."""
    theta = np.array(thetas, dtype=float)
    lines = len(theta)
    return LineBatch(
        theta=theta, offset=np.array(offsets, dtype=float), valid=np.empty(lines, dtype=bool),
        h=np.empty(lines), total=np.empty(lines, dtype=np.int64), z=np.empty(lines),
        mean_term=np.empty(lines), padding_hits=np.empty(lines, dtype=np.int64),
        exceptional=np.empty(lines, dtype=bool), jittered=np.zeros(lines, dtype=bool))


def _line_block(sset: SteinhausSet, batch: LineBatch, rows: slice, planes, fam_rows: int):
    """The kernel on the batch's lines[rows], one line block: each line's
    clip, tolerances, mean term, padding hits and fields once, its lattice
    coordinates in family blocks of fam_rows lines.  Yields each family
    block's (rows, raw (lines x families) counts), a view into the planes
    that the next family block overwrites.  h and valid of those rows are
    filled by then, the other fields once the line block is done; they
    carry zero counts for invalid and exceptional lines, the raw counts do
    not."""
    thetas, ps = batch.theta[rows], batch.offset[rows]
    start, end, h, valid, tol_s, tol_e, edge_s, edge_e, along = sset.body.chord_bounds(thetas, ps)
    batch.h[rows], batch.valid[rows] = h, valid
    # the screens' tolerance: an endpoint's bound plus its lattice coordinate's rounding
    lattice = rounding_bound(sset.scale)
    tol_s, tol_e = tol_s + lattice, tol_e + lattice
    n, eps = sset.n, sset.eps
    total = np.empty(len(h))
    exceptional = along >= 0
    for lo in range(0, len(h), fam_rows):
        block = slice(lo, lo + fam_rows)
        m = len(h[block])
        # (families x lines) planes: a reduction over the families runs along
        # whole rows of lines, a few vector passes rather than a short one per line
        at_s, at_e, n_lo, n_hi, per_family = planes[:, : n * m].reshape(5, n, m)
        # each endpoint's lattice coordinate x . nu_k / eps - U_k, every temporary
        # written with out=; rounding is monotone, so their min and max are
        # count_in_interval's a/eps - U_k and b/eps - U_k to the bit
        for point, at in ((start[block], at_s), (end[block], at_e)):
            np.matmul(sset.directions, point.T, out=at)
            at /= eps
            at -= sset.shifts[:, None]
        np.ceil(np.minimum(at_s, at_e, out=n_lo), out=n_lo)
        np.ceil(np.maximum(at_s, at_e, out=n_hi), out=n_hi)

        # An endpoint next to the point where a grid segment meets the boundary:
        # with g_k = |x_k - rint(x_k)|, fl(g eps) is monotone in g, so "some k has
        # fl(g_k eps) <= tol" is the one test fl(min_k g_k eps) <= tol.  An
        # endpoint whose binding edge lies on a lattice line is a pinned, stable
        # crossing (the lattice line there IS part of the set), so its gap is
        # +inf; its count takes the edge's lattice value on the min side, and on
        # the max side, where the half-open convention would drop it.
        for at, tol, edge in ((at_s, tol_s, edge_s[block]), (at_e, tol_e, edge_e[block])):
            gap = np.subtract(at, np.rint(at, out=per_family), out=per_family)
            np.abs(gap, out=gap)
            for k, j, _ in sset.pinned_edges:
                gap[k, edge == j] = np.inf
            exceptional[block] |= np.min(gap, axis=0) * eps <= tol[block]
        for k, j, q in sset.pinned_edges:
            on_s, on_e = edge_s[block] == j, edge_e[block] == j
            s_is_min = at_s[k] <= at_e[k]
            n_lo[k] = np.where(np.where(s_is_min, on_s, on_e), q, n_lo[k])
            n_hi[k] = np.where(np.where(s_is_min, on_e, on_s), q + 1.0, n_hi[k])

        np.subtract(n_hi, n_lo, out=per_family)
        total[block] = np.sum(per_family, axis=0)
        yield slice(rows.start + lo, rows.start + lo + m), per_family.T

    # mean term (h/eps) sum_k |t . nu_k| in closed form, t the line's tangent
    z = total - h / eps * angular_sum(n, thetas + math.pi / 2)
    mean_term = total - z

    hits = np.zeros(len(h), dtype=np.int64)
    if sset.padding_count:
        # (padding x lines) views of the planes the family blocks are done with
        shape = (sset.padding_count, len(h))
        sig0, sig1, product = planes[:3, : math.prod(shape)].reshape(3, *shape)
        near = planes[3].view(bool)[: math.prod(shape)].reshape(shape)
        nu = np.stack([np.cos(thetas), np.sin(thetas)])
        np.matmul(sset.padding[:, 0, :], nu, out=sig0)
        sig0 -= ps
        np.matmul(sset.padding[:, 1, :], nu, out=sig1)
        sig1 -= ps
        crossing = np.less(np.multiply(sig0, sig1, out=product), 0.0, out=near)
        hits = np.sum(crossing, axis=0, dtype=np.int64)
        np.minimum(np.abs(sig0, out=sig0), np.abs(sig1, out=sig1), out=sig0)
        exceptional |= np.any(np.less_equal(sig0, lattice, out=near), axis=0)

    exceptional &= valid
    zero = ~valid | exceptional
    batch.total[rows] = np.where(zero, 0.0, total)
    batch.z[rows] = np.where(zero, 0.0, z)
    batch.mean_term[rows] = np.where(zero, 0.0, mean_term)
    batch.padding_hits[rows] = np.where(zero, 0, hits)
    batch.exceptional[rows] = exceptional


def _eval_blocks(sset: SteinhausSet, batch: LineBatch):
    """One kernel pass over a batch from _new_batch, filled in place: line
    blocks of a few thousand lines, all in one workspace, so the working
    memory neither grows with the lines nor is allocated again per block.
    Yields every family block's (rows, per-family counts) as _line_block
    does; the batch is complete once the generator is exhausted."""
    line_rows, fam_rows, planes = _workspace(sset, len(batch.theta))
    for lo in range(0, len(batch.theta), line_rows):
        yield from _line_block(sset, batch, slice(lo, lo + line_rows), planes, fam_rows)


def family_deviation(sset: SteinhausSet, batch: LineBatch, rows: slice,
                     per_family) -> np.ndarray:
    """max_k |N_k - mean_k| of the batch's lines[rows], whose per-family counts
    are given, mean_k = (h/eps) |t . nu_k| with t the tangent; one
    matrix-vector product per line, so a row has one line's bits."""
    theta, h, valid = batch.theta[rows], batch.h[rows], batch.valid[rows]
    tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    mean_k = h[:, None] / sset.eps * np.abs(
        (sset.directions[None] @ tangents[:, :, None])[..., 0])
    return np.max(np.abs(np.where(valid[:, None], per_family, 0.0) - mean_k), axis=1)


def count_lines(sset: SteinhausSet, thetas, offsets) -> tuple[LineBatch, np.ndarray]:
    """evaluate_lines, and each line's family_deviation."""
    batch = _new_batch(thetas, offsets)
    deviation = np.empty(len(batch.theta))
    for rows, per_family in _eval_blocks(sset, batch):
        deviation[rows] = family_deviation(sset, batch, rows, per_family)
    return batch, deviation


def evaluate_lines(
    sset: SteinhausSet, thetas: np.ndarray, offsets: np.ndarray
) -> LineBatch:
    """Count every line in one kernel pass.  Exceptional lines keep zeroed
    counts; callers exclude them from suprema (a null set of line space)."""
    batch = _new_batch(thetas, offsets)
    for _ in _eval_blocks(sset, batch):
        pass
    return batch


def count_line(sset: SteinhausSet, line: Line) -> CountBreakdown:
    """Exact per-family crossing counts of one line; raises on exceptional.

    Invariants: total = sum(per_family) and mean_term = total - z exactly.
    mean_term is the closed form of the summed per-family means
    mean_k = (h/eps) |t . nu_k| = (h/eps) |sin(theta - pi k / n)|, and z its
    complement, both bit-equal to the line's row in evaluate_lines;
    max_abs_dev = max_k |per_family[k] - mean_k| is below one.
    """
    batch = _new_batch([line.theta], [line.offset])
    for rows, per_family in _eval_blocks(sset, batch):
        counts = np.where(batch.valid[0], per_family[0], 0.0).astype(np.int64)
        deviation = float(family_deviation(sset, batch, rows, per_family)[0])
    if batch.exceptional[0]:
        raise ExceptionalLineError(
            line.theta, line.offset, "line within its rounding bound of a "
            "grid-segment endpoint, along a grid line or boundary edge, or near "
            "a padding endpoint")
    return CountBreakdown(
        per_family=counts,
        total=int(batch.total[0]),
        mean_term=float(batch.mean_term[0]),
        z=float(batch.z[0]),
        padding_hits=int(batch.padding_hits[0]),
        chord_length=float(batch.h[0]),
        max_abs_dev=deviation,
    )


def segment_crossings(segments: np.ndarray, thetas, offsets,
                      tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Strict sign-change crossings of each line with the (S, 2, 2) segments, and
    whether a segment endpoint lies within its tolerance of it (a scalar, or
    (S, 2) per endpoint); no arithmetic shared with count_in_interval.  Lines go
    in blocks of at most KERNEL_CHUNK line-segment elements; a line's signs do
    not depend on its block."""
    offsets = np.asarray(offsets, dtype=float)
    normals = np.column_stack([np.cos(thetas), np.sin(thetas)])
    hits, near = np.zeros(len(thetas), dtype=np.int64), np.zeros(len(thetas), dtype=bool)
    rows = max(1, KERNEL_CHUNK // max(len(segments), 1))
    ends = np.ascontiguousarray(np.transpose(segments, (1, 2, 0)))  # (endpoint, x|y, S)
    tolerance = np.broadcast_to(tolerance, (len(segments), 2)).T  # (endpoint, S)
    widest = np.max(tolerance, initial=0.0)
    # one workspace for every block: fresh arrays this size are page-faulted in again
    work = np.empty((min(rows, len(thetas)), 3, len(segments)))
    for lo in range(0, len(thetas) if len(segments) else 0, rows):
        nu = normals[lo : lo + rows, None, :]
        sig, product = work[: len(nu), :2], work[: len(nu), 2]
        np.matmul(nu[:, None], ends[None], out=sig[:, :, None])  # a gemv per line and endpoint
        sig -= offsets[lo : lo + rows, None, None]
        crossing = np.multiply(sig[:, 0], sig[:, 1], out=product) < 0.0
        hits[lo : lo + rows] = [np.count_nonzero(c) for c in crossing]
        # only a line within the widest tolerance of some endpoint needs the full test
        close = lo + np.flatnonzero(np.abs(sig, out=sig).min(axis=(1, 2)) <= widest)
        near[close] = (sig[close - lo] <= tolerance).any(axis=(1, 2))
    return hits, near


def oracle_count(sset: SteinhausSet, line: Line) -> int:
    """Geometric reference count: strict crossings with every clipped grid
    segment.  Raises when a segment endpoint lies within its tolerance of
    the line, since a strict sign test is unreliable there."""
    segments, _, tolerance = sset.grid_segments
    hits, near = segment_crossings(segments, [line.theta], [line.offset], tolerance)
    if near[0]:
        raise ExceptionalLineError(line.theta, line.offset, "grid-segment endpoint "
                                   "within its rounding bound of the line")
    return int(hits[0])


def oracle_padding_hits(sset: SteinhausSet, line: Line) -> int:
    """Strict crossings of the line with the padding segments."""
    return int(segment_crossings(sset.padding, [line.theta], [line.offset],
                                 rounding_bound(sset.scale))[0][0])


def z_samples(n: int, eps: float, x, y, shifts: np.ndarray) -> np.ndarray:
    """The endpoint error Z(x, y) = sum_k (N_k - (b_k - a_k)/eps) for each row
    of a (trials, n) shift matrix, in blocks of KERNEL_CHUNK // n rows counted
    into one buffer.

    A pure formula on the segment [x, y] (points need not span a full
    chord); no exceptional-line screening is applied, so probes may sit
    exactly on lattice points and resolve by the half-open convention.
    The mean term is one scalar, (|y - x|/eps) angular_sum(n, psi) with psi
    the angle of y - x; the segment is oriented canonically first, so
    Z(x, y) and Z(y, x) are equal to the bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if tuple(y) < tuple(x):
        x, y = y, x
    shifts = np.asarray(shifts, dtype=float)
    dx, dy = y - x
    mean = math.hypot(dx, dy) / eps * angular_sum(n, math.atan2(dy, dx))
    dirs = directions(n)
    px = dirs @ x
    py = dirs @ y
    a = np.minimum(px, py)[None, :]
    b = np.maximum(px, py)[None, :]
    out = np.empty(len(shifts))
    rows = max(1, KERNEL_CHUNK // max(n, 1))
    work = np.empty((2, min(rows, len(shifts)), n))  # every block counts into it
    for lo in range(0, len(shifts), rows):
        block = shifts[lo : lo + rows]
        counts = count_in_interval(a, b, eps, block, out=work[:, : len(block)])
        out[lo : lo + rows] = np.sum(counts, axis=1) - mean
    return out
