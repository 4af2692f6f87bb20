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

A line is *exceptional* when its count is ambiguous under perturbation
(a measure-zero set of line space).  Three conditions, all at
EXCEPTIONAL_TOL absolute in offset units:

  1. parallel-and-coincident: the projection interval degenerates (width
     below tolerance) on top of a lattice value — the line runs along a
     grid line;
  2. a chord endpoint projects within tolerance of a lattice value, i.e.
     the line passes next to the point where that grid segment meets the
     boundary, so the crossing may sit just outside the segment.  When the
     boundary edge carrying the chord endpoint is itself collinear with
     that family's lattice line (an axis-aligned body under zero shifts),
     the crossing is pinned — it stays strictly inside the segment for
     every nearby line — so this case is NOT exceptional; a pinned
     crossing is counted exactly once (the min-side lattice value is
     included despite float noise, and the max-side value that the
     half-open convention would drop is added back);
  3. the line passes within tolerance of a padding-segment endpoint.

Exceptional lines are never counted: scalar entry points raise, and the
batch evaluator retries with a deterministic offset jitter of
+-(attempt * JITTER_SCALE * eps) for attempt = 1 .. JITTER_ATTEMPTS.  The
oracle's segment_crossings flags a line that passes within tolerance of a
grid-segment endpoint, and oracle_count then raises.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .geometry import Line
from .steinhaus import EXCEPTIONAL_TOL, KERNEL_CHUNK, SteinhausSet, angular_sum, directions

__all__ = [
    "EXCEPTIONAL_TOL",
    "JITTER_SCALE",
    "JITTER_ATTEMPTS",
    "ExceptionalLineError",
    "count_in_interval",
    "CountBreakdown",
    "LineBatch",
    "evaluate_lines",
    "count_line",
    "oracle_count",
    "oracle_padding_hits",
    "endpoint_error",
    "z_samples",
    "jitter_delta",
]

JITTER_SCALE = 1e-7
JITTER_ATTEMPTS = 4  # jitters evaluate_lines tries before excluding a line
# Elements per (shifts x families) z_samples block, as KERNEL_CHUNK per kernel block
Z_CHUNK = 65_536


class ExceptionalLineError(ValueError):
    """The line's crossing count is ambiguous under perturbation."""

    def __init__(self, theta: float, offset: float, reason: str):
        self.theta = theta
        self.offset = offset
        super().__init__(
            f"exceptional line theta={theta!r} offset={offset!r}: {reason}"
        )


def count_in_interval(a, b, eps: float, u):
    """#{q : eps (q + u) in [a, b)}; zero when a == b.  Broadcasts over
    arrays; the counts are integer-valued floats."""
    return np.ceil(b / eps - u) - np.ceil(a / eps - u)


def jitter_delta(theta: float, offset: float, eps: float, attempt: int) -> float:
    """Deterministic jitter for an exceptional line, scaled by attempt."""
    digest = hashlib.blake2b(
        struct.pack("<ddq", theta, offset, attempt), digest_size=8
    ).digest()
    sign = 1.0 if digest[0] & 1 else -1.0
    return sign * attempt * JITTER_SCALE * eps


@dataclass(frozen=True, eq=False)
class CountBreakdown:
    """Per-family counts with the exact decomposition total = mean_term + z:
    mean_term is the closed form, z its complement, and max_abs_dev the
    largest per-family |N_k - mean_k| (a batch does not carry it)."""

    per_family: np.ndarray
    total: int
    mean_term: float
    z: float
    padding_hits: int
    max_abs_dev: float


@dataclass(eq=False)
class LineBatch:
    """Vectorized evaluation results; offsets reflect any applied jitter."""

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


def _lattice_gap(x, eps, out=None):
    """|x - rint(x)| * eps: distance to the nearest lattice value; out is not x."""
    out = np.subtract(x, np.rint(x, out=out), out=out)
    np.abs(out, out=out)
    out *= eps
    return out


def _workspace(sset: SteinhausSet, rows: int) -> tuple:
    """Buffers for _eval_arrays blocks of up to rows lines: (lines x families)
    floats and masks, then (lines x padding) floats and a mask."""
    fams, pads = (rows, sset.n), (rows, sset.padding_count)
    return (np.empty((7, *fams)), np.empty((2, *fams), dtype=bool),
            np.empty((3, *pads)), np.empty(pads, dtype=bool))


def _eval_arrays(sset: SteinhausSet, thetas, ps, work: tuple):
    """One kernel pass: the batch, with the counts of invalid and exceptional
    lines zeroed, and the raw (lines x families) per-family counts, a view
    into the workspace (from _workspace) that the next pass overwrites."""
    floats, masks, pad, pad_mask = (w[..., : len(thetas), :] for w in work)
    proj_s, proj_e, alpha, beta, n_lo, n_hi, per_family = floats
    start, end, h, valid = sset.body.chord_batch(thetas, ps)
    dirs_t = sset.directions.T
    np.matmul(start, dirs_t, out=proj_s)
    np.matmul(end, dirs_t, out=proj_e)
    # count_in_interval's formula, kept as alpha/beta: the screens need them;
    # every temporary is written with out=, and each element keeps its arithmetic
    np.divide(np.minimum(proj_s, proj_e, out=alpha), sset.eps, out=alpha)
    alpha -= sset.shifts
    np.divide(np.maximum(proj_s, proj_e, out=beta), sset.eps, out=beta)
    beta -= sset.shifts
    np.ceil(alpha, out=n_lo)
    np.ceil(beta, out=n_hi)

    # Chord endpoints sitting on a lattice-aligned boundary edge are pinned,
    # stable crossings (the lattice line there IS part of the set): include
    # the min-side value despite float noise around the lattice point, and
    # include the max-side value that the half-open convention would drop.
    pinned_a = pinned_b = None
    if sset.pinned_edges:
        pinned_s = np.zeros(proj_s.shape, dtype=bool)
        pinned_e = np.zeros(proj_e.shape, dtype=bool)
        for k, off, tau, span_lo, span_hi in sset.pinned_edges:
            ts = start @ tau
            te = end @ tau
            pinned_s[:, k] |= (
                (np.abs(proj_s[:, k] - off) <= EXCEPTIONAL_TOL)
                & (ts >= span_lo) & (ts <= span_hi))
            pinned_e[:, k] |= (
                (np.abs(proj_e[:, k] - off) <= EXCEPTIONAL_TOL)
                & (te >= span_lo) & (te <= span_hi))
        s_is_min = proj_s <= proj_e
        pinned_a = np.where(s_is_min, pinned_s, pinned_e)
        pinned_b = np.where(s_is_min, pinned_e, pinned_s)
        np.copyto(n_lo, np.rint(alpha), where=pinned_a)
        np.copyto(n_hi, np.rint(beta) + 1.0, where=pinned_b)

    np.subtract(n_hi, n_lo, out=per_family)
    total = np.sum(per_family, axis=1)
    # mean term (h/eps) sum_k |t . nu_k| in closed form, t the line's tangent
    z = total - h / sset.eps * angular_sum(sset.n, thetas + math.pi / 2)
    mean_term = total - z

    # chord endpoint next to the point where a grid segment meets the boundary
    near_a, near_b = masks
    np.less_equal(_lattice_gap(alpha, sset.eps, out=n_lo), EXCEPTIONAL_TOL, out=near_a)
    np.less_equal(_lattice_gap(beta, sset.eps, out=n_hi), EXCEPTIONAL_TOL, out=near_b)
    if pinned_a is not None:
        near_a &= ~pinned_a
        near_b &= ~pinned_b
    exceptional = np.any(np.logical_or(near_a, near_b, out=near_a), axis=1)

    # parallel to a family and on one of its lattice lines (degenerate intervals)
    width = np.multiply(np.subtract(beta, alpha, out=proj_s), sset.eps, out=proj_s)
    at = np.flatnonzero(np.less_equal(width, EXCEPTIONAL_TOL, out=near_a))  # flat indices
    mid = 0.5 * (alpha.take(at) + beta.take(at))
    coincident = _lattice_gap(mid, sset.eps) <= EXCEPTIONAL_TOL + 0.5 * width.take(at)
    exceptional[at[coincident] // width.shape[1]] = True

    hits = np.zeros(len(h), dtype=np.int64)
    if sset.padding_count:
        nu = np.column_stack([np.cos(thetas), np.sin(thetas)])
        sig0, sig1, product = pad
        np.matmul(nu, sset.padding[:, 0, :].T, out=sig0)
        sig0 -= ps[:, None]
        np.matmul(nu, sset.padding[:, 1, :].T, out=sig1)
        sig1 -= ps[:, None]
        crossing = np.less(np.multiply(sig0, sig1, out=product), 0.0, out=pad_mask)
        hits = np.sum(crossing, axis=1, dtype=np.int64)
        np.minimum(np.abs(sig0, out=sig0), np.abs(sig1, out=sig1), out=sig0)
        exceptional |= np.any(np.less_equal(sig0, EXCEPTIONAL_TOL, out=pad_mask), axis=1)

    exceptional &= valid
    zero = ~valid | exceptional
    batch = LineBatch(  # copies of the inputs: a jitter retry writes into the batch
        theta=np.array(thetas, dtype=float),
        offset=np.array(ps, dtype=float),
        valid=valid,
        h=h,
        total=np.where(zero, 0.0, total).astype(np.int64),
        z=np.where(zero, 0.0, z),
        mean_term=np.where(zero, 0.0, mean_term),
        padding_hits=np.where(zero, 0, hits),
        exceptional=exceptional,
        jittered=np.zeros(len(h), dtype=bool),
    )
    return batch, per_family


def _eval_blocks(sset: SteinhausSet, thetas: np.ndarray, ps: np.ndarray):
    """_eval_arrays in blocks of about KERNEL_CHUNK line-family and line-padding
    elements (at least 16 lines), all in one workspace, so the working memory
    neither grows with the lines nor is allocated again per block; one block
    even for no lines, so an empty batch still has every field.  A block's
    per-family counts are valid until the next block is asked for."""
    chunk = max(16, KERNEL_CHUNK // max(sset.n, sset.padding_count, 1))
    work = _workspace(sset, min(chunk, len(thetas)))
    for lo in range(0, max(len(thetas), 1), chunk):
        yield _eval_arrays(sset, thetas[lo : lo + chunk], ps[lo : lo + chunk], work)


def _joined(batches: list) -> LineBatch:
    return LineBatch(**{f.name: np.concatenate([getattr(b, f.name) for b in batches])
                        for f in fields(LineBatch)})


def family_deviation(sset: SteinhausSet, batch: LineBatch, per_family) -> np.ndarray:
    """max_k |N_k - mean_k| per line, mean_k = (h/eps) |t . nu_k| with t the
    tangent; one matrix-vector product per line, so a row has one line's bits."""
    tangents = np.column_stack([-np.sin(batch.theta), np.cos(batch.theta)])
    mean_k = batch.h[:, None] / sset.eps * np.abs(
        (sset.directions[None] @ tangents[:, :, None])[..., 0])
    return np.max(np.abs(np.where(batch.valid[:, None], per_family, 0.0) - mean_k), axis=1)


def count_lines(sset: SteinhausSet, thetas, offsets) -> tuple[LineBatch, np.ndarray]:
    """evaluate_lines with no jitter (exceptional lines keep zeroed counts),
    and each line's family_deviation."""
    parts = [(b, family_deviation(sset, b, per_family))
             for b, per_family in _eval_blocks(sset, thetas, offsets)]
    return _joined([b for b, _ in parts]), np.concatenate([d for _, d in parts])


def evaluate_lines(
    sset: SteinhausSet, thetas: np.ndarray, offsets: np.ndarray
) -> LineBatch:
    """Count every line, jittering exceptional ones deterministically.

    Lines still exceptional after JITTER_ATTEMPTS jitters keep
    exceptional=True and zeroed counts; callers exclude them from suprema
    (they form a null set of line space).  Each jitter attempt retries every
    line still exceptional at once, in blocks like the first pass.
    """
    thetas = np.asarray(thetas, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    batch = _joined([b for b, _ in _eval_blocks(sset, thetas, offsets)])
    for attempt in range(1, JITTER_ATTEMPTS + 1):
        idx = np.flatnonzero(batch.exceptional)
        if idx.size == 0:
            break
        ps = np.array([offsets[i] + jitter_delta(thetas[i], offsets[i], sset.eps, attempt)
                       for i in idx])
        retry = _joined([b for b, _ in _eval_blocks(sset, thetas[idx], ps)])
        for f in fields(LineBatch):
            getattr(batch, f.name)[idx] = getattr(retry, f.name)
        batch.jittered[idx] = True
    return batch


def count_line(sset: SteinhausSet, line: Line) -> CountBreakdown:
    """Exact per-family crossing counts of one line; raises on exceptional.

    Invariants: total = sum(per_family) and mean_term = total - z exactly.
    mean_term is the closed form of the summed per-family means
    mean_k = (h/eps) |t . nu_k| = (h/eps) |sin(theta - pi k / n)|, and z its
    complement, both bit-equal to the line's row in evaluate_lines;
    max_abs_dev = max_k |per_family[k] - mean_k| is below one.
    """
    batch, per_family = next(_eval_blocks(
        sset, np.array([line.theta]), np.array([line.offset])))
    if batch.exceptional[0]:
        raise ExceptionalLineError(
            line.theta, line.offset, "line within tolerance of a grid-segment "
            "endpoint, parallel-coincident with a lattice line, or near a "
            "padding endpoint; jitter the offset and retry"
        )
    return CountBreakdown(
        per_family=np.where(batch.valid[0], per_family[0], 0.0).astype(np.int64),
        total=int(batch.total[0]),
        mean_term=float(batch.mean_term[0]),
        z=float(batch.z[0]),
        padding_hits=int(batch.padding_hits[0]),
        max_abs_dev=float(family_deviation(sset, batch, per_family)[0]),
    )


def segment_crossings(segments: np.ndarray, thetas, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Strict sign-change crossings of each line with the (S, 2, 2) segments, and
    whether a segment endpoint lies within EXCEPTIONAL_TOL of it; no arithmetic
    shared with count_in_interval.  Lines go in blocks of at most KERNEL_CHUNK
    line-segment elements; a line's signs do not depend on its block."""
    offsets = np.asarray(offsets, dtype=float)
    normals = np.column_stack([np.cos(thetas), np.sin(thetas)])
    hits, near = np.zeros(len(thetas), dtype=np.int64), np.zeros(len(thetas), dtype=bool)
    rows = max(1, KERNEL_CHUNK // max(len(segments), 1))
    ends = np.ascontiguousarray(np.transpose(segments, (1, 2, 0)))  # (endpoint, x|y, S)
    # one workspace for every block: fresh arrays this size are page-faulted in again
    work = np.empty((min(rows, len(thetas)), 3, len(segments)))
    for lo in range(0, len(thetas) if len(segments) else 0, rows):
        nu = normals[lo : lo + rows, None, :]
        sig, product = work[: len(nu), :2], work[: len(nu), 2]
        np.matmul(nu[:, None], ends[None], out=sig[:, :, None])  # a gemv per line and endpoint
        sig -= offsets[lo : lo + rows, None, None]
        crossing = np.multiply(sig[:, 0], sig[:, 1], out=product) < 0.0
        hits[lo : lo + rows] = [np.count_nonzero(c) for c in crossing]
        near[lo : lo + rows] = np.abs(sig, out=sig).min(axis=(1, 2)) <= EXCEPTIONAL_TOL
    return hits, near


def oracle_count(sset: SteinhausSet, line: Line) -> int:
    """Geometric reference count: strict crossings with every clipped grid
    segment.  Raises when a segment endpoint lies within EXCEPTIONAL_TOL of
    the line, since a strict sign test is unreliable there."""
    hits, near = segment_crossings(sset.grid_segments[0], [line.theta], [line.offset])
    if near[0]:
        raise ExceptionalLineError(line.theta, line.offset, "grid-segment endpoint "
                                   "within tolerance of the line (caller must jitter)")
    return int(hits[0])


def oracle_padding_hits(sset: SteinhausSet, line: Line) -> int:
    """Strict crossings of the line with the padding segments."""
    return int(segment_crossings(sset.padding, [line.theta], [line.offset])[0][0])


def endpoint_error(sset: SteinhausSet, x, y) -> float:
    """The endpoint-error functional Z(x, y) = sum_k (N_k - (b_k - a_k)/eps).

    A pure formula on the segment [x, y] (points need not span a full
    chord); no exceptional-line screening is applied, so probes may sit
    exactly on lattice points and resolve by the half-open convention.
    """
    return float(z_samples(sset.n, sset.eps, x, y, sset.shifts[None, :])[0])


def z_samples(n: int, eps: float, x, y, shifts: np.ndarray) -> np.ndarray:
    """Z(x, y) for each row of a (trials, n) shift matrix, vectorized.

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
    rows = max(1, Z_CHUNK // max(n, 1))
    for lo in range(0, len(shifts), rows):
        counts = count_in_interval(a, b, eps, shifts[lo : lo + rows])
        out[lo : lo + rows] = np.sum(counts, axis=1) - mean
    return out
