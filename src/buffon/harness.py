"""Experiment drivers: scaling sweeps over the target length, Hoeffding-tail
and length-concentration studies, the unshifted-vs-shifted coherence study,
CSV emission, and log-log slope fitting.  Z is evaluated by z_samples alone.

Determinism contract: every study takes an integer seed and derives all
randomness from named streams, so identical inputs give byte-identical CSV
output regardless of worker count or completion order.  Wall-clock timings
are kept on the row objects for console display but never serialized.

Lengths are read in the body's unit sqrt|Omega| (seeds by L / sqrt|Omega|, slack 1e-9 sqrt|Omega|,
coherence log(n sqrt|Omega| / eps), probe cutoff TANGENCY_CUTOFF diam), so scaling every length
by 2^k scales each output length by 2^k and keeps every other output, to the bit.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import rng
# count_line and oracle_count are not called here: perfbench/tracing.py wraps these names
from .counting import count_line, count_lines, oracle_count, segment_crossings, z_samples
from .discrepancy import SupConfig, estimate_sup
from .geometry import (KERNEL_CHUNK, TANGENCY_CUTOFF, ConvexBody, ValidationError,
                       check_count, rounding_bound)
from .steinhaus import (SteinhausSet, build_exact, check_lattice, family_length_many,
                        total_length)

__all__ = [
    "SweepRow",
    "SlopeFit",
    "ZTailRow",
    "ZTailStudy",
    "CoherenceRow",
    "OracleCheck",
    "run_sweep",
    "write_sweep_csv",
    "read_sweep_csv",
    "fit_slope",
    "z_tail_study",
    "length_study",
    "coherence_study",
    "run_oracle_check",
]

MIN_FIT_POINTS = 4
MIN_ASYMPTOTIC_N = 8
PROBE_FAN = 17  # rays in the coherence probe's fan


@dataclass(frozen=True)
class SweepRow:
    """One point of a scaling sweep: build at L_target, estimate the sup.

    The fields without a default are the CSV columns, in order, each written
    and read as its annotated type.  wall_time_seconds and error are
    runtime-only: timings are not reproducible, and a row whose length the
    planner refuses (or whose lattice cannot be allocated) carries the
    message here instead of aborting the sweep.
    """

    L_target: float
    M: float
    n: int
    eps: float
    seed: int
    L_actual: float
    sup_estimate: float
    max_abs_z: float
    quadrature_max: float
    padding_count: int
    wall_time_seconds: float = 0.0
    error: Optional[str] = None


_CSV_TYPES = {f.name: get_type_hints(SweepRow)[f.name]
              for f in fields(SweepRow) if f.default is MISSING}
SweepRow.CSV_FIELDS = tuple(_CSV_TYPES)


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares fit of log(y) against log(x)."""

    exponent: float
    intercept: float
    r_squared: float
    points_used: int


def _sweep_worker(payload) -> SweepRow:
    """Run one sweep row from a picklable payload.  A length the planner
    refuses or a lattice too fine to allocate is recorded on the row; any
    other failure, an internal assertion among them, propagates."""
    body, l_target, mode, row_seed, config = payload
    started = time.perf_counter()
    try:
        sset, m_expected = build_exact(body, l_target, mode, row_seed)
        l_actual = total_length(sset)
        report = estimate_sup(sset, l_actual, config)
        return SweepRow(
            L_target=float(l_target),
            M=m_expected,
            n=sset.n,
            eps=sset.eps,
            seed=row_seed,
            L_actual=l_actual,
            sup_estimate=report.sup_estimate,
            max_abs_z=report.max_abs_z,
            quadrature_max=report.max_abs_quadrature,
            padding_count=sset.padding_count,
            wall_time_seconds=time.perf_counter() - started,
        )
    except (ValidationError, MemoryError) as exc:  # the sweep goes on past a refused row
        failed = {name: 0 if kind is int else math.nan for name, kind in _CSV_TYPES.items()}
        failed.update(
            L_target=float(l_target),
            seed=row_seed,
            wall_time_seconds=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
        )
        return SweepRow(**failed)


def length_grid(l_min: float, l_max: float, points: int) -> list[float]:
    """points target lengths from l_min to l_max, evenly spaced in log L."""
    check_count("points", points, 2)
    for name, value in (("l_min", l_min), ("l_max", l_max)):
        if not math.isfinite(value):
            raise ValidationError(name, f"need a finite length, got {value!r}")
    if not (0 < l_min < l_max):
        raise ValidationError("l_min", "need 0 < l-min < l-max")
    ratio = l_max / l_min
    if not math.isfinite(ratio):
        raise ValidationError("l_max", f"l-max / l-min overflows, got {l_max!r} / {l_min!r}")
    return [l_min * ratio ** (i / (points - 1)) for i in range(points)]


def run_sweep(
    body: ConvexBody,
    l_values: Sequence[float],
    mode: str,
    config: SupConfig,
    seed: int = 0,
    workers: int = 1,
) -> list[SweepRow]:
    """Full pipeline per target length: plan, build, pad to exact length,
    estimate the sup.  Each row draws its own seed, derived from (L / sqrt|Omega|,
    seed), so worker count never changes the result, only the wall time.  A
    length the planner refuses, or a lattice too fine to allocate, is recorded
    on its row; an internal assertion propagates.
    """
    l_values = [float(l) for l in l_values]
    if any(b <= a for a, b in zip(l_values, l_values[1:])):
        raise ValidationError("l_values", "target lengths must be increasing")
    check_count("seed", seed, 0)
    check_count("workers", workers, 1)
    unit = math.sqrt(body.area)
    payloads = [(body, l, mode, rng.derive_seed(seed, f"sweep/{mode}/{l / unit!r}"), config)
                for l in l_values]
    if workers == 1 or len(payloads) <= 1:
        return [_sweep_worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, payloads))


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Header plus one line per row, shortest round-trip float representation.

    Byte-identical for identical rows: timings and error text are excluded
    (failed rows serialize their numeric fields as nan).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SweepRow.CSV_FIELDS)
        for row in rows:
            writer.writerow(
                [repr(kind(getattr(row, name))) for name, kind in _CSV_TYPES.items()])


def read_sweep_csv(path) -> list[SweepRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(SweepRow.CSV_FIELDS):
            raise ValidationError(
                "csv", f"unexpected header {header!r}; expected "
                f"{list(SweepRow.CSV_FIELDS)!r}")
        rows = []
        for record in reader:
            if len(record) != len(SweepRow.CSV_FIELDS):
                raise ValidationError(
                    "csv", f"expected {len(SweepRow.CSV_FIELDS)} cells, got "
                    f"{len(record)}")
            values = {}
            for name, cell in zip(SweepRow.CSV_FIELDS, record):
                try:
                    values[name] = _CSV_TYPES[name](cell)
                except ValueError as exc:
                    raise ValidationError(
                        "csv", f"line {reader.line_num}, column {name}: {exc}") from None
            rows.append(SweepRow(**values))
    return rows


def fit_points(
    rows: Sequence[SweepRow],
    y_field: str = "sup_estimate",
    log_correction: Optional[float] = None,
) -> list[tuple]:
    """The (x, y, y_fitted) points a slope fit uses, in row order.

    x is the row's L_target and y its y_field; y_fitted is y divided by
    (log x)^log_correction when a correction is given, else y itself.  Rows
    are skipped when they carry an error, when n < MIN_ASYMPTOTIC_N
    (non-asymptotic builds), when either coordinate or y_fitted is non-finite
    or non-positive (the correction's power included: it may leave the float
    range), or when a correction is given and x <= 1.  A non-finite
    correction is refused.
    """
    if y_field not in SweepRow.CSV_FIELDS:
        raise ValidationError(
            "field", f"{y_field!r} is not one of the CSV columns {SweepRow.CSV_FIELDS}")
    if log_correction is not None and not math.isfinite(log_correction):
        raise ValidationError(
            "log_correction", f"need a finite exponent, got {log_correction!r}")
    points = []
    for row in rows:
        if row.error is not None or row.n < MIN_ASYMPTOTIC_N:
            continue
        x = row.L_target
        y = fitted = getattr(row, y_field)
        if not (math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0):
            continue
        if log_correction is not None:
            if x <= 1.0:
                continue
            try:
                fitted = y / math.log(x) ** log_correction
            except (OverflowError, ZeroDivisionError):
                continue
            if not (math.isfinite(fitted) and fitted > 0):
                continue
        points.append((x, y, fitted))
    return points


def fit_slope(
    rows: Sequence[SweepRow],
    y_field: str = "sup_estimate",
    log_correction: Optional[float] = None,
) -> SlopeFit:
    """OLS on (log x, log y) over the fit_points of the rows.  With
    log_correction = c, y is divided by (log x)^c before fitting, deflating a
    known logarithmic factor so the fitted exponent isolates the power law.
    """
    points = fit_points(rows, y_field, log_correction)
    xs = [math.log(x) for x, _, _ in points]
    ys = [math.log(fitted) for _, _, fitted in points]
    if len(xs) < MIN_FIT_POINTS:
        raise ValidationError(
            "rows", f"need at least {MIN_FIT_POINTS} usable rows, got {len(xs)}")
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValidationError("rows", "degenerate fit: all x values equal")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = math.fsum(
        (y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return SlopeFit(
        exponent=slope, intercept=intercept, r_squared=r_squared,
        points_used=len(xs))


# -- endpoint-error tail study ------------------------------------------------


@dataclass(frozen=True)
class ZTailRow:
    s: float
    empirical_tail: float
    hoeffding_bound: float
    sampling_band: float


@dataclass(frozen=True)
class ZTailStudy:
    n: int
    eps: float
    trials: int
    mean_z: float
    rows: tuple[ZTailRow, ...]

    @property
    def violations(self) -> int:
        """Rows where the empirical tail exceeds bound + band."""
        return sum(
            1 for r in self.rows
            if r.empirical_tail > r.hoeffding_bound + r.sampling_band)


def z_tail_study(
    body: ConvexBody,
    n: int,
    eps: float,
    x,
    y,
    trials: int,
    s_values: Sequence[float],
    seed: int = 0,
) -> ZTailStudy:
    """Empirical tail of |Z(x, y)| over independently resampled shifts,
    against the bound 2 exp(-2 s^2 / n) plus a 3-sigma binomial band, at
    one or more thresholds s, each finite and >= 0 (where the bound holds).

    The segment endpoints are fixed; only the lattice shifts resample.  The
    body argument pins the study to a concrete geometry (endpoints should
    lie inside it) but Z itself depends only on the segment.
    """
    check_count("trials", trials, 10_000)
    check_count("seed", seed, 0)
    s_values = [float(s) for s in s_values]
    if not s_values or not all(0.0 <= s < math.inf for s in s_values):
        raise ValidationError(
            "s_values", f"need one or more finite thresholds >= 0, got {s_values}")
    check_lattice(body, n, eps)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, point in (("x", x), ("y", y)):
        if point.shape != (2,):
            raise ValidationError(name, f"need a point (x, y), got shape {point.shape}")
        if not body.contains(point):
            raise ValidationError(name, f"segment endpoint {point} outside body")
    # the shifts are drawn in row blocks, so the (trials, n) matrix is never
    # held whole; Philox fills in order, so the blocks equal one large draw
    draws = rng.stream(seed, "ztail")
    block = max(1, KERNEL_CHUNK // n)
    z = np.concatenate([
        z_samples(n, eps, x, y, draws.random((min(block, trials - lo), n)))
        for lo in range(0, trials, block)])
    rows = []
    for s in s_values:
        empirical = float(np.count_nonzero(np.abs(z) > s)) / trials
        bound = 2.0 * math.exp(-2.0 * s * s / n)
        p_eff = min(bound, 1.0)
        band = 3.0 * math.sqrt(p_eff * (1.0 - p_eff) / trials)
        rows.append(ZTailRow(s, empirical, bound, band))
    return ZTailStudy(
        n=n, eps=eps, trials=trials, mean_z=float(np.mean(z)),
        rows=tuple(rows))


# -- length concentration ------------------------------------------------------


def length_study(
    body: ConvexBody, n: int, eps: float, trials: int, seed: int = 0
) -> dict:
    """Monte Carlo check of grid-length concentration.

    Every per-direction deviation from area/eps is asserted <= 2 * diameter (a
    hard geometric bound) + 1e-9 sqrt|Omega|; the returned band is a 3-sigma
    sub-Gaussian envelope for the mean of the total over trials.
    """
    check_count("trials", trials, 1_000)
    check_count("seed", seed, 0)
    check_lattice(body, n, eps)
    lengths = family_length_many(body, eps, rng.stream(seed, "length").random((trials, n)))
    worst = np.max(np.abs(lengths - body.area / eps), axis=0)
    k = int(np.argmax(worst))
    bound = 2.0 * body.diameter
    if worst[k] > bound + 1e-9 * math.sqrt(body.area):
        raise AssertionError(
            f"family {k} deviates by {float(worst[k])!r} > 2*diameter = {bound!r}")
    return {
        "mean_L": float(np.mean(lengths.sum(axis=1))),
        "expected": n * body.area / eps,
        "max_abs_deviation": float(worst[k]),
        "hoeffding_band": 3.0 * body.diameter * math.sqrt(n / trials),
    }


# -- unshifted-vs-shifted coherence study --------------------------------------


def _probe_exits(body: ConvexBody, n: int) -> list[np.ndarray]:
    """Boundary exit points of the PROBE_FAN rays from the origin whose angles
    split the window (pi/2 - pi/n, pi/2] evenly; a ray that leaves the body
    within the clip's tangency scale (t <= TANGENCY_CUTOFF diam) has none."""
    angles = np.linspace(math.pi / 2 - math.pi / n, math.pi / 2, PROBE_FAN + 1)[1:]
    # the line through the origin along each ray: its chord ends at the exit
    _, end, _, valid = body.chord_batch(angles - math.pi / 2, np.zeros(PROBE_FAN))
    t = end[:, 0] * np.cos(angles) + end[:, 1] * np.sin(angles)
    return list(end[valid & (t > TANGENCY_CUTOFF * body.diameter)])


@dataclass(frozen=True)
class CoherenceRow:
    n: int
    eps: float
    zero_probe: float
    random_max: float
    random_bound: float


def coherence_study(
    body: ConvexBody,
    n_values: Sequence[int],
    eps_values: Sequence[float],
    trials: int = 2_000,
    seed: int = 0,
) -> list[CoherenceRow]:
    """Max |Z| over a fan of probe chords from the origin, under zero shifts
    and under resampled shifts.

    With zero shifts every family has a lattice line through the origin, so
    chords leaving it within pi/n of the steepest direction (the fan's
    window) add same-sign errors over all families: |Z| grows like n.
    Random shifts keep the max over trials below 4 sqrt(n log(n sqrt|Omega| /
    eps)); an eps >= n sqrt|Omega|, where that log is not positive, is refused.
    One z_samples call per exit point evaluates both: row 0 of the shift matrix
    is zero, rows 1: are the trials.  An empty fan reads 0.0 on both sides.
    """
    if len(n_values) != len(eps_values):
        raise ValidationError("n_values", "need one eps per n")
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    if not body.contains(np.zeros(2)):
        raise ValidationError(
            "body", "coherence study needs the origin inside the body")
    unit = math.sqrt(body.area)
    rows = []
    for n, eps in zip(n_values, eps_values):
        eps = float(eps)
        check_lattice(body, n, eps)
        if not n * unit / eps > 1.0:  # the bound's log(n sqrt|Omega| / eps) is positive
            raise ValidationError("eps", f"need eps < n sqrt|Omega| = {n * unit:.6g}, got {eps}")
        # filled in place after the stream: np.zeros or the other order peaks 0.2 MB higher
        draws = rng.stream(seed, f"coherence/{n}")
        shifts = np.empty((trials + 1, n))
        shifts[0] = 0.0
        draws.random(out=shifts[1:])
        zero = random_max = 0.0
        for exit_point in _probe_exits(body, n):
            z = np.abs(z_samples(n, eps, np.zeros(2), exit_point, shifts))
            zero = max(zero, float(z[0]))
            random_max = max(random_max, float(np.max(z[1:])))
        rows.append(CoherenceRow(
            n=n, eps=eps, zero_probe=zero,
            random_max=random_max,
            random_bound=4.0 * math.sqrt(n * math.log(n * unit / eps)),
        ))
    return rows


# -- oracle cross-validation ---------------------------------------------------


@dataclass(frozen=True)
class OracleCheck:
    comparisons: int
    agreements: int
    skipped: int
    mismatches: tuple[tuple[float, float, int, int], ...]  # theta, offset, totals
    max_family_deviation: float = 0.0

    @property
    def all_agree(self) -> bool:
        return self.skipped == 0 and self.agreements == self.comparisons


def run_oracle_check(sset: SteinhausSet, lines: int, seed: int = 0) -> OracleCheck:
    """Compare the lattice counter against the geometric crossing oracle on
    random lines.

    Both see the same lines, in one kernel pass and one pass of the oracle's
    strict sign test, each in KERNEL_CHUNK blocks.  Grid totals and padding
    hits must both agree; a mismatch records the line.  A line either side
    screens out as exceptional is not compared but counted in ``skipped``.
    """
    check_count("lines", lines, 1)
    check_count("seed", seed, 0)
    u = rng.stream(seed, "oracle").random((lines, 2))
    thetas = math.pi * u[:, 0]
    lo, hi = sset.body.offset_extents(thetas)
    margin = 0.05 * sset.body.diameter
    return _check_lines(sset, thetas, (lo - margin) + (hi - lo + 2 * margin) * u[:, 1])


def _check_lines(sset: SteinhausSet, thetas: np.ndarray, offsets: np.ndarray) -> OracleCheck:
    """run_oracle_check on the given lines."""
    batch, deviation = count_lines(sset, thetas, offsets)
    segments, _, tolerance = sset.grid_segments
    hits, near = segment_crossings(segments, thetas, offsets, tolerance)
    ok = ~(batch.exceptional | near)
    pads = segment_crossings(sset.padding, thetas[ok], offsets[ok],
                             rounding_bound(sset.scale))[0]
    agree = (batch.total[ok] == hits[ok]) & (batch.padding_hits[ok] == pads)
    return OracleCheck(
        comparisons=int(ok.sum()), agreements=int(agree.sum()), skipped=int((~ok).sum()),
        mismatches=tuple((float(thetas[i]), float(offsets[i]), int(batch.total[i]), int(hits[i]))
                         for i in np.flatnonzero(ok)[~agree]),
        max_family_deviation=float(np.max(deviation[ok], initial=0.0)))
