"""Crofton target, the per-line error decomposition, quadrature sum, and a sup estimator.

The estimator reports a certified lower bound for the essential supremum of
|crossings - Crofton target| over lines: every value it returns was attained
by an explicitly evaluated, non-exceptional line (the witness).  At report
time the witness is recounted by the same kernel: that guards the search's
bookkeeping, not the count, until an exact recount (ROADMAP: certify the
witness in exact arithmetic) makes it independent.  Alongside, the report
carries the envelope upper bound implied by the exact decomposition

    count + padding_hits - crofton
        = quadrature_term + z_term + padding_term + length_normalization_term,

whose per-line validity is asserted on every sampled line.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .geometry import Line, ValidationError, check_count, write_json
from .steinhaus import SteinhausSet, angular_sum
from .counting import ExceptionalLineError, count_line, evaluate_lines
from . import rng as rng_mod

__all__ = [
    "crofton_target",
    "max_quadrature_deviation",
    "decompose",
    "SupConfig",
    "DiscrepancyReport",
    "format_report",
    "save_report",
    "estimate_sup",
]

DELTA_LOG2_MIN = -40.0  # targeted points sit 2^-40 .. 2^-3 lattice units away
DELTA_LOG2_MAX = -3.0
TOP_CANDIDATES = 100
LOCAL_GRID = 11  # 11 x 11 refinement stencil per candidate
EQUALITY_TOL = 1e-9


def crofton_target(length: float, area: float, h):
    """Expected crossing count of a chord of length h: 2 * length * h / (pi * area),
    elementwise in h."""
    if not np.all(length >= 0.0):
        raise ValidationError("length", f"length must be >= 0, got {length}")
    if not np.all(area > 0.0):
        raise ValidationError("area", f"area must be > 0, got {area}")
    if not np.all(h >= 0.0):
        raise ValidationError("h", f"chord length must be >= 0, got {h}")
    return 2.0 * length * h / (math.pi * area)


def max_quadrature_deviation(n: int, thetas: np.ndarray) -> float:
    """max over thetas of |angular_sum(n, theta) - 2 n / pi|."""
    dev = np.abs(angular_sum(n, thetas) - 2.0 * n / math.pi)
    return float(dev.max(initial=0.0))


def _terms(sset: SteinhausSet, length: float, total, padding_hits, mean_term, h):
    """(quadrature term, length normalization term, Crofton target, signed
    error), elementwise over lines."""
    area = sset.body.area
    quad = mean_term - (2.0 * sset.n / math.pi) * (h / sset.eps)
    norm = (2.0 * h / (math.pi * area)) * (sset.n * area / sset.eps - length)
    crof = crofton_target(length, area, h)
    return quad, norm, crof, total + padding_hits - crof


def decompose(sset: SteinhausSet, line: Line, length: float) -> dict:
    """Exact decomposition terms of the signed error at one line.

    Raises on exceptional lines (propagated from the counting kernel).
    """
    bd = count_line(sset, line)
    h = bd.chord_length
    quad, norm, crof, signed = _terms(
        sset, length, bd.total, bd.padding_hits, bd.mean_term, h)
    return {
        "quadrature_term": quad,
        "z_term": bd.z,
        "padding_term": float(bd.padding_hits),
        "length_normalization_term": norm,
        "chord_length": h,
        "crofton": crof,
        "total": bd.total,
        "signed_error": signed,
    }


@dataclass(frozen=True)
class SupConfig:
    theta_resolution: int = 192
    offset_resolution: int = 192
    refine_rounds: int = 2
    seed: int = 0

    def __post_init__(self):
        """Each field an integer at or above its least value; a boolean is
        refused, so a saved report holds JSON integers."""
        for name, least in (("theta_resolution", 8), ("offset_resolution", 8),
                            ("refine_rounds", 0), ("seed", 0)):
            check_count(name, getattr(self, name), least)


@dataclass(frozen=True)
class DiscrepancyReport:
    sup_estimate: float
    witness_theta: float
    witness_offset: float
    witness_total: int
    witness_quadrature_term: float
    witness_z_term: float
    witness_padding_term: float
    witness_length_normalization_term: float
    witness_chord_length: float
    witness_crofton: float
    samples_evaluated: int
    excluded_lines: int
    theta_resolution: int
    offset_resolution: int
    refine_rounds: int
    seed: int
    length: float
    max_abs_z: float
    max_abs_quadrature: float
    max_padding_hits: int
    envelope_upper: float

    def to_dict(self) -> dict:
        return asdict(self)


def format_report(report: DiscrepancyReport) -> str:
    """One `name = repr(value)` line per report field, in field order."""
    return "".join(f"{f.name} = {getattr(report, f.name)!r}\n"
                   for f in fields(DiscrepancyReport))


def save_report(report: DiscrepancyReport, path) -> None:
    write_json(report.to_dict(), path)


def _targeted_lines(sset: SteinhausSet, count: int, seed: int):
    """Deterministic prefix-stable stream of lines through near-lattice points.

    Rows draw a fixed number of uniforms each, so the first k lines of a
    longer stream equal the k lines of a shorter one (doubling monotonicity).
    Two variants: (A) a line through two independently chosen near-lattice
    points; (C) on a polygon, for half the rows, a line through a perturbed
    body vertex, tilted off an adjacent edge direction by a log-spread angle —
    endpoint errors align along chords that hug a boundary edge near a
    lattice-heavy corner.
    """
    n, eps = sset.n, sset.eps
    body = sset.body
    dirs = sset.directions
    tangents = np.column_stack([-dirs[:, 1], dirs[:, 0]])
    qlo = sset.q_ranges[:, 0].astype(float)
    qspan = sset.q_ranges[:, 1] - qlo + 1.0

    u = rng_mod.stream(seed, "targeted").random((count, 12))
    delta = eps * np.exp2(DELTA_LOG2_MIN + (DELTA_LOG2_MAX - DELTA_LOG2_MIN) * u[:, 4])

    # variant A: the line through two points, each within delta of a uniformly
    # chosen lattice line of a uniformly chosen family
    k1, k2 = k = np.minimum((u[:, [1, 6]] * n).astype(np.int64), n - 1).T
    s1, s2 = (eps * (qlo[k] + np.floor(u[:, [2, 7]].T * qspan[k]) + sset.shifts[k])
              + np.where(u[:, [5, 10]].T < 0.5, -delta, delta))
    tan1, tan2 = tangents[k1], tangents[k2]
    t1lo, t1hi = body.support_many(tan1)
    t2lo, t2hi = body.support_many(tan2)
    p1 = s1[:, None] * dirs[k1] + (t1lo + u[:, 3] * (t1hi - t1lo))[:, None] * tan1
    p2 = s2[:, None] * dirs[k2] + (t2lo + u[:, 8] * (t2hi - t2lo))[:, None] * tan2
    d = p2 - p1
    dist = np.hypot(d[:, 0], d[:, 1])
    tiny = dist < 1e-9 * body.diameter
    d[tiny] = tan1[tiny]
    thetas = np.arctan2(d[:, 1], d[:, 0]) + math.pi / 2.0
    offsets = np.cos(thetas) * p1[:, 0] + np.sin(thetas) * p1[:, 1]

    # variant C: perturbed body vertex, tilted off an adjacent edge direction
    if body.kind == "polygon":
        verts = body.vertices
        n_verts = len(verts)
        vidx = np.minimum((u[:, 1] * n_verts).astype(np.int64), n_verts - 1)
        edge_prev = verts[vidx] - verts[(vidx - 1) % n_verts]
        edge_next = verts[(vidx + 1) % n_verts] - verts[vidx]
        edge = np.where(u[:, 7, None] < 0.5, edge_prev, edge_next)
        # lines parallel to the edge have normal angle = edge angle + pi/2
        base_angle = np.arctan2(edge[:, 1], edge[:, 0]) + math.pi / 2.0
        tilt = (math.pi / 2.0) * np.exp2(-20.0 * u[:, 8]) * np.where(
            u[:, 5] < 0.5, -1.0, 1.0)
        theta_c = np.where(u[:, 6] < 0.5, math.pi * u[:, 3], base_angle + tilt)
        wobble = 2.0 * math.pi * u[:, 9]
        cx = verts[vidx, 0] + delta * np.cos(wobble)
        cy = verts[vidx, 1] + delta * np.sin(wobble)
        offs_c = np.cos(theta_c) * cx + np.sin(theta_c) * cy
        pick_c = u[:, 0] >= 0.5
        thetas = np.where(pick_c, theta_c, thetas)
        offsets = np.where(pick_c, offs_c, offsets)
    return Line.normalize_many(thetas, offsets)


def _phase(sset: SteinhausSet, length: float, thetas, offsets) -> tuple:
    """One search phase: a single evaluate_lines call whose every included line
    must satisfy the envelope inequality.

    Returns (lines, excluded, theta, offset, local, max |quadrature|, max |z|,
    max padding hits, max |normalization|); the arrays hold the included
    lines and the maxima run over them (0 when there are none).
    """
    batch = evaluate_lines(sset, thetas, offsets)
    include = batch.valid & ~batch.exceptional
    mean_term = batch.total - batch.z
    quad, norm, crof, signed = _terms(sset, length, batch.total,
                                      batch.padding_hits, mean_term, batch.h)
    local = np.abs(signed)
    # slack: 1e-9 absolute plus a few ulps of the large cancelling terms
    slack = EQUALITY_TOL + 1e-13 * (np.abs(crof) + np.abs(mean_term))
    envelope = (np.abs(quad) + np.abs(batch.z) + batch.padding_hits
                + np.abs(norm) + slack)
    bad = include & (local > envelope)
    if np.any(bad):
        i = int(np.where(bad)[0][0])
        raise AssertionError(
            "decomposition inequality violated: "
            f"theta={batch.theta[i]!r} offset={batch.offset[i]!r} "
            f"local={local[i]!r} envelope={envelope[i]!r}")
    maxima = [np.abs(v[include]).max(initial=0)
              for v in (quad, batch.z, batch.padding_hits, norm)]
    return (len(batch.theta), int(batch.exceptional.sum()), batch.theta[include],
            batch.offset[include], local[include], *maxima)


def _top(phases: list, count: int):
    """The count largest local values over the phases with their lines, largest
    first; ties go to the lexicographically smallest (theta, offset).  Only the
    lines at or above the count-th largest value are sorted, every tie at the
    cut among them, so the order is the full sort's."""
    th, po, lv = (np.concatenate(a) for a in list(zip(*phases))[2:5])
    if count < len(lv):
        keep = lv >= np.partition(lv, len(lv) - count)[len(lv) - count]
        th, po, lv = th[keep], po[keep], lv[keep]
    order = np.lexsort((po, th, -lv))[:count]
    return th[order], po[order], lv[order]


def estimate_sup(
    sset: SteinhausSet, length: float, config: SupConfig
) -> DiscrepancyReport:
    """Structured search for the largest local discrepancy.

    The search is a list of phases, one evaluate_lines call each: the base
    grid (theta_resolution angles uniform on [0, pi), offset_resolution
    offsets spanning the body's support slab per angle, both nested under
    doubling), a prefix-stable targeted stream of lines through near-lattice
    points, then refine_rounds rounds of 10x-finer local grids around the top
    candidates so far (an empty phase when there are none).  The report is
    built from the phase list at the end.  It carries a certified lower bound:
    the reported value is re-attained by the witness line at report time.  A
    search in which no line could be counted is refused (a ValidationError of
    eps), since it bounds nothing.
    """
    if not (length >= 0.0) or not math.isfinite(length):
        raise ValidationError("length", f"length must be finite and >= 0, got {length}")
    r_theta, r_off = config.theta_resolution, config.offset_resolution

    theta_grid = math.pi * np.arange(r_theta) / r_theta
    lo, hi = sset.body.offset_extents(theta_grid)
    frac = np.arange(r_off) / r_off
    offs = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    phases = [_phase(sset, length, np.repeat(theta_grid, r_off), offs.ravel())]
    t_th, t_off = _targeted_lines(sset, (r_theta * r_off) // 8, config.seed)
    phases.append(_phase(sset, length, t_th, t_off))

    d_theta = math.pi / r_theta
    d_off = float(np.median(hi - lo)) / r_off
    stencil = np.arange(LOCAL_GRID) - LOCAL_GRID // 2
    for round_idx in range(config.refine_rounds):
        step_t = d_theta / (10.0 ** (round_idx + 1))
        step_p = d_off / (10.0 ** (round_idx + 1))
        cth, cpo, _ = _top(phases, TOP_CANDIDATES)
        grid_t = cth[:, None, None] + step_t * stencil[None, :, None]
        grid_p = cpo[:, None, None] + step_p * stencil[None, None, :]
        grid_t, grid_p = np.broadcast_arrays(grid_t, grid_p)
        nth, npo = Line.normalize_many(grid_t.ravel(), grid_p.ravel())
        phases.append(_phase(sset, length, nth, npo))

    lines, excluded, *_, quad, z, hits, norm = zip(*phases)
    wth, wpo, wlv = _top(phases, 1)
    if wth.size == 0:
        raise ValidationError(
            "eps", f"no sampled line could be counted at pitch {sset.eps:.3g}: "
                   f"{sum(excluded)} of {sum(lines)} were exceptional and the rest "
                   f"missed the body; a coarser pitch (a smaller L) is needed")
    witness = Line(float(wth[0]), float(wpo[0]))
    at = f"theta={witness.theta!r} offset={witness.offset!r}"
    try:
        terms = decompose(sset, witness, length)
    except ExceptionalLineError as exc:  # its search row was not exceptional
        raise AssertionError(f"witness recomputation mismatch: exceptional at {at}") from exc
    sup_value = abs(terms.pop("signed_error"))
    if sup_value != wlv[0]:  # the same kernel row, so the same bits
        raise AssertionError("witness recomputation mismatch: "
                             f"search={float(wlv[0])!r} recomputed={sup_value!r} {at}")
    max_quad, max_z, max_hits, max_norm = (max(m).item() for m in (quad, z, hits, norm))
    return DiscrepancyReport(
        sup_estimate=sup_value,
        witness_theta=witness.theta,
        witness_offset=witness.offset,
        **{f"witness_{key}": value for key, value in terms.items()},
        samples_evaluated=sum(lines),
        excluded_lines=sum(excluded),
        theta_resolution=r_theta,
        offset_resolution=r_off,
        refine_rounds=config.refine_rounds,
        seed=config.seed,
        length=length,
        max_abs_z=max_z,
        max_abs_quadrature=max_quad,
        max_padding_hits=max_hits,
        envelope_upper=max_quad + max_z + sset.padding_count + max_norm,
    )
