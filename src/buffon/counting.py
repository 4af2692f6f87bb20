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
which count_lines reports (a LineBatch does not carry it).  count_line is
a line's row of evaluate_lines.

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
convention would drop it on the max side.  Its lattice coordinate becomes
q - 1/2 when the chord's other end lies above the edge's lattice value q,
else q + 1/2, so the one ceil counts q.

Every other line is counted as exact arithmetic on the kernel's float
inputs would count it; exceptional ones are not (count_line raises, batches
zero their counts).  The oracle flags a line within a grid-segment
endpoint's tolerance (its clipping bound plus the sign test's rounding).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import KERNEL_CHUNK, Line, ValidationError, rounding_bound
from .steinhaus import SteinhausSet, angular_sum, directions

__all__ = [
    "ExceptionalLineError",
    "count_in_interval",
    "CountBreakdown",
    "LineBatch",
    "evaluate_lines",
    "count_line",
    "oracle_count",
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
    """One line's count with the exact decomposition total = mean_term + z:
    mean_term is the closed form, z its complement, and chord_length the
    clipped chord's (0 for a miss)."""

    total: int
    mean_term: float
    z: float
    padding_hits: int
    chord_length: float


@dataclass(eq=False)
class LineBatch:
    """Vectorized evaluation results; jittered is always False (no line moves)."""

    theta: np.ndarray
    offset: np.ndarray
    valid: np.ndarray
    h: np.ndarray
    total: np.ndarray
    z: np.ndarray
    padding_hits: np.ndarray
    exceptional: np.ndarray
    jittered: np.ndarray


def _workspace(sset: SteinhausSet) -> tuple:
    """Lines per line block, lines per family block, and the planes every
    block of a part takes its views from: 3 float, 1 for the padding's bools.

    A line block bounds the per-line work: its (padding x lines) planes hold
    at most KERNEL_CHUNK elements, and it holds at most KERNEL_CHUNK // 32
    lines (16 at least); the clip bounds its own temporaries.
    A family block bounds the (families x lines) planes: KERNEL_CHUNK // n of
    a line block's lines (16 at least).  A plane takes KERNEL_CHUNK elements
    (16 lines if wider) whatever n and the batch are, so sets reuse one heap
    block; np.empty commits only the pages a short batch touches."""
    fams, pads = sset.n, sset.padding_count
    line_rows = max(16, KERNEL_CHUNK // max(32, pads))
    fam_rows = min(line_rows, max(16, KERNEL_CHUNK // fams))
    return line_rows, fam_rows, np.empty((4, max(KERNEL_CHUNK, 16 * max(fams, pads))))


def _new_batch(thetas, offsets) -> LineBatch:
    """A batch of the lines, whose other fields the kernel fills; refuses
    anything but two equally long 1-D arrays of finite numbers."""
    theta, offset = np.array(thetas, dtype=float), np.array(offsets, dtype=float)
    if not (theta.ndim == 1 and theta.shape == offset.shape
            and np.isfinite(theta).all() and np.isfinite(offset).all()):
        raise ValidationError("lines", "need equally long 1-D arrays of finite angles and "
                              f"offsets, got shapes {theta.shape} and {offset.shape}")
    lines = len(theta)
    return LineBatch(
        theta=theta, offset=offset, valid=np.empty(lines, dtype=bool),
        h=np.empty(lines), total=np.empty(lines, dtype=np.int64), z=np.empty(lines),
        padding_hits=np.empty(lines, dtype=np.int64),
        exceptional=np.empty(lines, dtype=bool), jittered=np.zeros(lines, dtype=bool))


def _line_block(sset: SteinhausSet, batch: LineBatch, rows: slice, planes, fam_rows: int):
    """The kernel on the batch's lines[rows], one line block: each line's
    clip, tolerances, mean term, padding hits and fields once, its lattice
    coordinates in family blocks of fam_rows lines.  Yields each family
    block's (rows, raw (lines x families) counts), a view into the planes
    that the next family block overwrites.  h and valid of those rows are
    filled by then, the other fields once the line block is done; they
    carry zero counts for invalid and exceptional lines, the raw counts for
    invalid lines only."""
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
        at_s, at_e, per_family = planes[:3, : n * m].reshape(3, n, m)
        # each endpoint's lattice coordinate x . nu_k / eps - U_k, every temporary
        # written with out=; rounding is monotone, so their min and max are
        # count_in_interval's a/eps - U_k and b/eps - U_k to the bit
        for point, at in ((start[block], at_s), (end[block], at_e)):
            np.matmul(sset.directions, point.T, out=at)
            at /= eps
            at -= sset.shifts[:, None]

        # An endpoint next to the point where a grid segment meets the boundary:
        # with g_k = |x_k - rint(x_k)|, fl(g eps) is monotone in g, so "some k has
        # fl(g_k eps) <= tol" is the one test fl(min_k g_k eps) <= tol.  An
        # endpoint whose binding edge lies on a lattice line is a pinned, stable
        # crossing (the lattice line there IS part of the set), so its gap is +inf.
        for at, tol, edge in ((at_s, tol_s, edge_s[block]), (at_e, tol_e, edge_e[block])):
            gap = np.subtract(at, np.rint(at, out=per_family), out=per_family)
            np.abs(gap, out=gap)
            for k, j, _ in sset.pinned_edges:
                gap[k, edge == j] = np.inf
            exceptional[block] |= np.min(gap, axis=0) * eps <= tol[block]
        # A pinned endpoint of edge j takes the coordinate q - 1/2 when the
        # chord's other end lies above q, else q + 1/2: the ceil below counts q
        # on either side.  Another pinned q of the family lies at least 1 away,
        # so its endpoint stays on its side of this q.
        for k, j, q in sset.pinned_edges:
            for at, other, edge in ((at_s, at_e, edge_s[block]), (at_e, at_s, edge_e[block])):
                np.copyto(at[k], np.where(other[k] > q, q - 0.5, q + 0.5),
                          where=valid[block] & (edge == j))
        # ceil is monotone, so |ceil(x_e) - ceil(x_s)| is ceil(max) - ceil(min);
        # an invalid line's endpoints are both 0, so its counts are 0
        np.ceil(at_s, out=at_s)
        np.ceil(at_e, out=at_e)
        np.abs(np.subtract(at_e, at_s, out=per_family), out=per_family)

        total[block] = np.sum(per_family, axis=0)
        yield slice(rows.start + lo, rows.start + lo + m), per_family.T

    # mean term (h/eps) sum_k |t . nu_k| in closed form, t the line's tangent
    z = total - h / eps * angular_sum(n, thetas + math.pi / 2)

    # (padding x lines) views of the planes the family blocks are done with;
    # without padding they are empty, so no line hits or nears a segment
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
    batch.padding_hits[rows] = np.where(zero, 0, hits)
    batch.exceptional[rows] = exceptional


def _eval_blocks(sset: SteinhausSet, batch: LineBatch, rows: slice = slice(0, None)):
    """One kernel pass over the batch's lines[rows] (a batch from _new_batch),
    filled in place in line blocks, all in one workspace, so the working
    memory neither grows with the lines nor is allocated again per block.
    Yields every family block's (rows, per-family counts) as _line_block
    does; those rows are complete once the generator is exhausted."""
    line_rows, fam_rows, planes = _workspace(sset)
    start, stop, _ = rows.indices(len(batch.theta))
    for lo in range(start, stop, line_rows):
        yield from _line_block(sset, batch, slice(lo, min(lo + line_rows, stop)), planes, fam_rows)


def family_deviation(sset: SteinhausSet, batch: LineBatch, rows: slice,
                     per_family) -> np.ndarray:
    """max_k |N_k - mean_k| of the batch's lines[rows], whose per-family counts
    are given, mean_k = (h/eps) |t . nu_k| with t the tangent; one
    matrix-vector product per line, so a row has one line's bits."""
    theta, h = batch.theta[rows], batch.h[rows]
    tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    mean_k = h[:, None] / sset.eps * np.abs(
        (sset.directions[None] @ tangents[:, :, None])[..., 0])
    return np.max(np.abs(per_family - mean_k), axis=1)


def count_lines(sset: SteinhausSet, thetas, offsets) -> tuple[LineBatch, np.ndarray]:
    """evaluate_lines, and each line's family_deviation."""
    batch = _new_batch(thetas, offsets)
    deviation = np.empty(len(batch.theta))
    for rows, per_family in _eval_blocks(sset, batch):
        deviation[rows] = family_deviation(sset, batch, rows, per_family)
    return batch, deviation


def evaluate_lines(sset: SteinhausSet, thetas: np.ndarray, offsets: np.ndarray) -> LineBatch:
    """Count every line in one kernel pass, one contiguous part per usable CPU
    (one in a process multiprocessing started, whose pool shares the CPUs) of
    one line and 2 KERNEL_CHUNK line-families at least, each in its own
    workspace; count_line's one line is one part, so no thread starts.  No row
    depends on its part; exceptional lines keep zeroed counts, which suprema skip."""
    batch = _new_batch(thetas, offsets)
    lines = len(batch.theta)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cpus = 1 if multiprocessing.parent_process() else cpus
    count = max(1, min(cpus, lines, lines * sset.n // (2 * KERNEL_CHUNK)))
    first, *rest = (_eval_blocks(sset, batch, slice(lines * i // count, lines * (i + 1) // count))
                    for i in range(count))
    with ThreadPoolExecutor(count) as pool:
        others = pool.map(list, rest)  # each part's blocks, run to the end on a thread of its own
        list(first)
        list(others)  # re-raises a part's exception
    return batch


def count_line(sset: SteinhausSet, line: Line) -> CountBreakdown:
    """The line's row of evaluate_lines; raises on an exceptional line."""
    batch = evaluate_lines(sset, [line.theta], [line.offset])
    if batch.exceptional[0]:
        raise ExceptionalLineError(
            line.theta, line.offset, "line within its rounding bound of a "
            "grid-segment endpoint, along a grid line or boundary edge, or near "
            "a padding endpoint")
    total, z = batch.total[0], batch.z[0]
    return CountBreakdown(total=int(total), mean_term=float(total - z), z=float(z),
                          padding_hits=int(batch.padding_hits[0]), chord_length=float(batch.h[0]))


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
    for lo in range(0, len(thetas), rows):
        nu = normals[lo : lo + rows, None, :]
        sig, product = work[: len(nu), :2], work[: len(nu), 2]
        np.matmul(nu[:, None], ends[None], out=sig[:, :, None])  # a gemv per line and endpoint
        sig -= offsets[lo : lo + rows, None, None]
        crossing = np.multiply(sig[:, 0], sig[:, 1], out=product) < 0.0
        hits[lo : lo + rows] = np.count_nonzero(crossing, axis=1)
        # only a line within the widest tolerance of some endpoint needs the full test
        close = lo + np.flatnonzero(np.abs(sig, out=sig).min(axis=(1, 2), initial=np.inf) <= widest)
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
    if not 0.0 < eps < math.inf:
        raise ValidationError("eps", f"need a finite pitch > 0, got {eps!r}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (x.shape == y.shape == (2,) and np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("segment", f"need finite points (x, y), got {x} and {y}")
    if tuple(y) < tuple(x):
        x, y = y, x
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 2 or shifts.shape[1] != n:
        raise ValidationError("shifts", f"need a (trials, {n}) matrix, got shape {shifts.shape}")
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
