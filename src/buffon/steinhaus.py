"""Randomly shifted Steinhaus line sets clipped to a convex body.

The set S(n, eps, U) is the union over families k = 0..n-1 of the parallel
line family {x : x . nu_k = eps (q + U_k), q integer} intersected with the
body, where nu_k = (cos(pi k / n), sin(pi k / n)) and the shifts U_k are iid
uniform on [0, 1) (all zero for the unshifted baseline).  An optional set of
pairwise disjoint padding segments inside an inscribed disk tops the total
length up to an exact target.

Parameter planning reserves a slack of one body diameter below the target
length L, aims the grid at M = L - diam, and couples the lattice pitch
through eps = n |Omega| / M so the expected total grid length is exactly M.
The rules read the lengths in the body's own unit, l = L / sqrt|Omega| and
m = M / sqrt|Omega|, so scaling the body and L together scales eps with them
and leaves n as it was.  A build mode is the pair of rules in MODES, the only
place a mode is looked up: "shifted" takes n ~ m^(2/5) (log m)^(-1/5)
directions and samples the shifts, "zero" (the unshifted baseline) takes
n = floor(l^(1/3)) and zero shifts.  The pitch is fixed, and mode_set admits
it, before the shifts are drawn; only a grid that overshoots L (rare) is
rebuilt with a doubled slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import (PARALLEL, ConvexBody, ValidationError, as_float_array,
                       body_from_dict, body_to_dict, check_count, check_object, read_json,
                       rounding_bound, unit_vector, write_json)
from .rng import stream

__all__ = [
    "directions",
    "angular_sum",
    "sample_shifts",
    "SteinhausSet",
    "total_length",
    "adjust_length",
    "build_exact",
    "save_manifest",
    "load_manifest",
]


def directions(n: int) -> np.ndarray:
    """All family normals, shape (n, 2)."""
    a = np.pi * np.arange(n) / n
    return np.column_stack([np.cos(a), np.sin(a)])


def angular_sum(n: int, theta):
    """sum_k |cos(theta - pi k / n)| over the n family normals, elementwise
    in theta, in closed form: the sum has period pi/n, and on one period it
    is cos(pi/(2n) - s) / sin(pi/(2n)) with s = (theta + pi/2) mod (pi/n)."""
    check_count("n", n, 1)
    half = math.pi / (2 * n)
    s = np.mod(np.asarray(theta, dtype=float) + math.pi / 2, math.pi / n)
    return np.cos(half - s) / math.sin(half)


def sample_shifts(n: int, seed: int) -> np.ndarray:
    """One uniform [0,1) shift per family, from a per-family labeled stream.

    Family k's shift depends only on (seed, k), so any prefix of families is
    reproducible regardless of n-order of evaluation.  n is an int >= 1, seed an int >= 0.
    """
    check_count("n", n, 1)
    check_count("seed", seed, 0)
    return np.array([stream(seed, f"shift/{k}").random() for k in range(n)])


def check_lattice(body: ConvexBody, n: int, eps: float) -> None:
    """Refuse, naming the field, unless n is an integer >= 1 and the pitch eps is finite and
    above twice the clip's along-edge band at S = body.scale, rounding_bound(S) + PARALLEL S:
    then at most one lattice line runs along each extreme edge of a family, which keeps the
    family within 2 diam of |Omega| / eps, and S / eps < 2^45 keeps indices exact."""
    check_count("n", n, 1)
    floor = 2.0 * (rounding_bound(body.scale) + PARALLEL * body.scale)
    if not (math.isfinite(eps) and eps > floor):
        raise ValidationError("eps", f"need a finite pitch above {floor:.6g}, got {eps}")


def _index_range(body: ConvexBody, dirs: np.ndarray, eps: float, shifts: np.ndarray):
    """Per direction and shift u, the least and greatest q +- 1 with eps (q + u) in the support."""
    smin, smax = body.support_many(dirs)
    return np.ceil(smin / eps - shifts) - 1, np.floor(smax / eps - shifts) + 1


@dataclass(eq=False)
class SteinhausSet:
    """A built set: body, n families at pitch eps, shifts, padding segments.

    Never mutated after construction, so its derived quantities, the grid
    length among them, are cached on first use.
    """

    body: ConvexBody
    n: int
    eps: float
    shifts: np.ndarray
    padding: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))
    seed: Optional[int] = None

    def __post_init__(self):
        check_lattice(self.body, self.n, self.eps)
        if self.seed is not None:
            check_count("seed", self.seed, 0)
        self.shifts = np.asarray(self.shifts, dtype=float)
        if self.shifts.shape != (self.n,):
            raise ValidationError("shifts", f"need exactly n={self.n} shifts")
        if not np.all((self.shifts >= 0.0) & (self.shifts < 1.0)):  # NaN fails too
            raise ValidationError("shifts", "shifts must lie in [0, 1)")
        self.padding = np.asarray(self.padding, dtype=float)
        if self.padding.size % 4:
            raise ValidationError("padding", "need segments [[x0, y0], [x1, y1]]")
        if not np.all(np.isfinite(self.padding)):
            raise ValidationError("padding", "padding coordinates must be finite")
        self.padding = self.padding.reshape(-1, 2, 2)

    @cached_property
    def directions(self) -> np.ndarray:
        return directions(self.n)

    @cached_property
    def q_ranges(self) -> np.ndarray:
        """Per-family inclusive lattice index range, support extremes +- 1."""
        lo, hi = _index_range(self.body, self.directions, self.eps, self.shifts)
        return np.column_stack([lo, hi]).astype(np.int64)

    @property
    def padding_count(self) -> int:
        return int(self.padding.shape[0])

    @cached_property
    def padding_length(self) -> float:
        d = self.padding[:, 1] - self.padding[:, 0]
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))

    @cached_property
    def measured_grid_length(self) -> float:
        """grid_length(self), summed once per set."""
        return grid_length(self)

    @cached_property
    def scale(self) -> float:
        """The coordinate scale S of the set's rounding bounds: the body's plus
        one pitch, which bounds each lattice offset of a line meeting the body."""
        return self.body.scale + self.eps

    def _clip_lattice(self, fams: np.ndarray, q: np.ndarray) -> tuple:
        """chord_bounds of the lattice lines eps (q + U_k) of families fams."""
        return self.body.chord_bounds(math.pi * fams / self.n, self.eps * (q + self.shifts[fams]))

    @cached_property
    def grid_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The clipped lattice segments that meet the body: (segments (S,2,2),
        family index (S,), tolerance (S,2)), how near a line may pass each end
        before a sign test cannot tell its side (clipping plus test rounding)."""
        fams = np.repeat(np.arange(self.n), self.q_ranges[:, 1] - self.q_ranges[:, 0] + 1)
        q = np.concatenate([np.arange(lo, hi + 1, dtype=float) for lo, hi in self.q_ranges])
        start, end, _, valid, bound_s, bound_e, _, _, _ = self._clip_lattice(fams, q)
        tolerance = np.column_stack([bound_s, bound_e]) + rounding_bound(self.scale)
        return np.stack([start[valid], end[valid]], axis=1), fams[valid], tolerance[valid]

    @cached_property
    def pinned_edges(self) -> list[tuple[int, int, float]]:
        """(family k, edge j, lattice index q) for every lattice line that the
        clip finds along a polygon edge j; only the lines nearest each family's
        support extremes can be.  A chord endpoint whose binding edge is j is a
        pinned crossing of that lattice line, not an exceptional one."""
        smin, smax = self.body.support_many(self.directions)
        q = np.rint(np.column_stack([smin, smax]) / self.eps - self.shifts[:, None]).ravel()
        fams = np.repeat(np.arange(self.n), 2)
        along = self._clip_lattice(fams, q)[-1]
        return sorted({(int(k), int(j), float(q_k)) for k, j, q_k in zip(fams, along, q) if j >= 0})


def family_length_many(body: ConvexBody, eps: float, shifts: np.ndarray) -> np.ndarray:
    """Each family's length in the body, (trials, n) for (trials, n) shifts.

    On a polygon the slice length g (the clipped chord's, as slice_lengths
    gives it) is linear between sorted vertex projections z, so the lattice
    offsets eps (q + u) of a half-open piece [z_i, z_i+1) sum to count *
    g(mean offset): O(E) per (row, family).  Where an edge sits at an extreme
    (g is nonzero there), the lattice value next outside [z_min, z_max) adds
    its slice: the edge's length when the clip finds the line along the edge,
    0 when it finds it outside.  A disk takes _disk_lengths' closed form:
    O(END_LINES) per (row, family), whatever the pitch.
    """
    u = np.asarray(shifts, dtype=float)
    dirs = directions(u.shape[1])
    if body.kind == "disk":
        return _disk_lengths(body, eps, u, dirs)
    z = np.sort(body.vertex_projections(unit_vector(dirs)), axis=1)  # as slice_lengths has them
    g = body.slice_lengths(dirs, z)

    def first(zk):  # least q with eps (q + u) >= zk
        q = np.ceil(zk / eps - u)
        q -= eps * (q - 1.0 + u) >= zk
        return q + (eps * (q + u) < zk)

    lengths = np.zeros(u.shape)
    lo = bottom = first(z[:, 0])
    for i in range(1, z.shape[1]):
        hi = first(z[:, i])
        width = np.where(z[:, i] > z[:, i - 1], z[:, i] - z[:, i - 1], 1.0)
        t = (eps * (0.5 * (lo + hi - 1.0) + u) - z[:, i - 1]) / width
        lengths += np.where(hi > lo, (hi - lo) * (g[:, i - 1] + t * (g[:, i] - g[:, i - 1])), 0.0)
        lo = hi
    # the lattice values next outside [z_min, z_max), where an edge sits there
    for q, extreme in ((bottom - 1.0, g[:, 0]), (lo, g[:, -1])):
        edge = extreme != 0.0
        lengths[:, edge] += body.slice_lengths(dirs[edge], eps * (q[:, edge] + u[:, edge]).T).T
    return lengths


END_LINES = 16  # K, the lattice lines a disk family sums slice by slice at each end


def _disk_lengths(body: ConvexBody, eps: float, u: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """A disk's family lengths: the K = END_LINES lattice lines nearest each end
    of a family's index range summed by slice_lengths, the lines between them
    by Euler-Maclaurin through the f^(7) term (p = 4), f(x) = 2 sqrt(r^2 - x^2)
    at offset x from the centre; a family of at most 2K + 1 lines is summed
    slice by slice alone.  Every even derivative of f is negative on (-r, r),
    so the remainder is at most 2 zeta(8) / (2 pi)^8 eps^7 |f^(7)(x1) -
    f^(7)(x0)|, about 4e-4 sqrt(r eps) K^-6.5 per family (2.5e-14 on the
    unit-area disk at L = 3e7, eps = 1.8e-5).  At p = 3 the truncation reached
    3e-14 of a family's length at about 2K + 4 lines, where the interior is
    shortest; p = 4 keeps it near rounding.  Each end of the interior
    [x0, x1] is written in its depth d >= (K - 1) eps below the boundary
    (x0 + r, r - x1): the integral is pi r^2 less two segments r^2 (t - sin t)
    / 2 at central angle t = 4 asin(sqrt(d / 2r)), and f = 2 g, g = sqrt(d (2r
    - d)): near +-r an asin or a difference of squares of the coordinates
    would amplify their rounding by r / g."""
    r, k = body.radius, END_LINES
    smin, smax = body.support_many(dirs)
    lo, hi = _index_range(body, dirs, eps, u)
    long = hi - lo > 2 * k
    # q = lo + j for j = 0..2K, a long family's j >= K moved up to its last K
    # lines and hi + 1: every q past hi lies outside the disk
    s = lo[..., None] + np.arange(2 * k + 1)
    s[..., k:] += np.where(long, hi - lo - 2 * k + 1, 0.0)[..., None]
    s += u[..., None]
    s *= eps  # the offsets eps (q + u)
    explicit = body.slice_lengths(dirs, s).sum(axis=-1)
    # the interior's end depths; a short family's are r, finite and unused
    d = np.where(long, [eps * (lo + k + u) - smin, smax - eps * (hi - k + u)], r)
    g, a = np.sqrt(d * (2.0 * r - d)), r - d  # a = -x0, x1: f's odd derivatives are odd in x
    t = 4.0 * np.arcsin(np.sqrt(d / (2.0 * r)))
    segment = 0.5 * r * r * (t - np.sin(t))  # off by about r^2 ulp(t): below an ulp of pi r^2
    ends = (g - segment / eps - eps / 6.0 * a / g + eps**3 / 120.0 * r * r * a / g**5
            - eps**5 / 1008.0 * r * r * a * (3.0 * r * r + 4.0 * a * a) / g**9
            + eps**7 / 1920.0 * r * r * a * (5.0 * r**4 + 20.0 * r * r * a * a + 8.0 * a**4) / g**13)
    return explicit + np.where(long, math.pi * r * r / eps + ends[0] + ends[1], 0.0)


def grid_length(sset: SteinhausSet) -> float:
    """Sum of every family's length; sets cache it as measured_grid_length."""
    return math.fsum(family_length_many(sset.body, sset.eps, sset.shifts[None, :])[0])


def total_length(sset: SteinhausSet) -> float:
    """Grid length plus padding length."""
    return sset.measured_grid_length + sset.padding_length


# -- parameter planning ------------------------------------------------------


def _cube_root_floor(length: float) -> int:
    """floor(l^(1/3)) of a length l in body units: exact while the float root is
    off by less than 1/2, as it is at every l whose zero-mode plan check_lattice
    admits; finite for any l."""
    n = round(length ** (1.0 / 3.0))
    return n - (n**3 > length)


MODES = {
    # mode: (n from (l, m), L and M in body units; shifts from (n, seed))
    "shifted": (lambda length, m: int(m**0.4 / math.log(m) ** 0.2), sample_shifts),
    "zero": (lambda length, m: _cube_root_floor(length), lambda n, seed: np.zeros(n)),
}


def _check_mode(mode: str) -> str:
    if not (isinstance(mode, str) and mode in MODES):
        raise ValidationError("mode", f"expected one of {sorted(MODES)}, got {mode!r}")
    return mode


def mode_set(body: ConvexBody, n: int, eps: float, mode: str, seed: int) -> SteinhausSet:
    """The set of a build mode at (n, eps): the lattice and the seed (an int
    >= 0) are admitted before the mode's shifts are drawn, sampled
    ("shifted") or all zero ("zero")."""
    check_lattice(body, n, eps)
    check_count("seed", seed, 0)
    shifts = MODES[_check_mode(mode)][1](n, seed)
    return SteinhausSet(body=body, n=n, eps=eps, shifts=shifts, seed=seed)


def _plan(body: ConvexBody, target_length: float, mode: str,
          slack: float) -> tuple[float, int, float]:
    """(M, n, eps): the grid aims at expected length M = L - slack, n from the
    mode's rule at l = L / sqrt|Omega| and m = M / sqrt|Omega|, and eps =
    n |Omega| / M; mode_set admits the lattice.  Refuses an unknown mode, then
    any L unless it is finite with m > e."""
    rule = MODES[_check_mode(mode)][0]
    unit = math.sqrt(body.area)
    m_expected = target_length - slack
    if not (math.isfinite(target_length) and m_expected / unit > math.e):
        raise ValidationError(
            "L",
            f"target length {target_length} must be finite, and M = L - {slack:.6g} "
            f"must exceed e sqrt|Omega|: L must exceed e sqrt|Omega| + {slack:.6g} "
            f"= {math.e * unit + slack:.6g}",
        )
    n = rule(target_length / unit, m_expected / unit)
    return float(m_expected), n, float(n * body.area / m_expected)


# -- exact-length padding ---------------------------------------------------


def padding_direction(n: int) -> np.ndarray:
    """Unit segment direction at angle pi (2n + 3) / (4n).

    An odd multiple of pi/(4n) is never parallel to a family normal nor to a
    family's lattice lines (those all sit at even multiples), for every n.
    """
    a = math.pi * (2 * n + 3) / (4 * n)
    return np.array([math.cos(a), math.sin(a)])


def padding_disk(body: ConvexBody) -> tuple[np.ndarray, float]:
    """Disk that receives padding: the concentric half-radius disk of a disk
    body; for a polygon, the disk at its area centroid that reaches the nearest
    edge line.  Any disk inside the body will do, and the centroid lies at
    least a third of the least width from every supporting line
    (Minkowski-Radon), so rho >= (2/3) inradius."""
    if body.kind == "disk":
        return body.center.copy(), 0.5 * body.radius
    v = body.vertices
    nxt = np.roll(v, -1, axis=0)
    cross = v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]
    center = np.sum((v + nxt) * cross[:, None], axis=0) / (6.0 * body.area)
    e, rel = nxt - v, center - v  # inward distance to edge line i: e_i x rel_i / |e_i|
    return center, float(np.min((e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0])
                                / np.hypot(e[:, 0], e[:, 1])))


def make_padding(body: ConvexBody, n: int, delta: float) -> np.ndarray:
    """Pairwise disjoint parallel segments of total length exactly delta.

    Segments of length rho (the padding-disk radius), the last one shortened,
    stacked at spacing rho / ceil(delta / rho) inside the padding disk.
    """
    if delta <= 0.0:
        return np.zeros((0, 2, 2))
    center, rho = padding_disk(body)
    count = math.ceil(delta / rho)
    spacing = rho / count
    if spacing < 1e-9 * rho:
        raise ValidationError(
            "delta",
            f"padding length {delta} needs {count} segments in a disk of radius "
            f"{rho:.3g}; spacing would collapse below float resolution",
        )
    t = padding_direction(n)
    normal = np.array([-t[1], t[0]])
    lengths = np.full(count, rho)
    lengths[-1] = delta - rho * (count - 1)
    offsets = (np.arange(count) - 0.5 * (count - 1)) * spacing
    centers = center[None, :] + offsets[:, None] * normal[None, :]
    half = 0.5 * lengths[:, None] * t[None, :]
    segments = np.stack([centers - half, centers + half], axis=1)

    cos_norm = directions(n) @ t
    cos_tang = directions(n) @ normal
    if np.any(cos_norm == 0.0) or np.any(cos_tang == 0.0):  # pragma: no cover
        raise AssertionError(
            f"padding direction parallel to a family direction at n={n}"
        )
    return segments


def adjust_length(sset: SteinhausSet, target_length: float) -> SteinhausSet:
    """Top the set up to exactly target_length with padding segments.

    Replaces any existing padding.  Errors if the grid alone already exceeds
    the target beyond tolerance.
    """
    base = sset.measured_grid_length
    delta = target_length - base
    tol = 1e-9 * abs(target_length)
    if delta < -tol:
        raise ValidationError(
            "target_length",
            f"grid length {base:.6g} already exceeds target {target_length:.6g}",
        )
    padding = make_padding(sset.body, sset.n, delta) if delta > tol else np.zeros((0, 2, 2))
    padded = replace(sset, padding=padding)
    padded.measured_grid_length = base  # the same grid, so the same sum
    return padded


def build_exact(
    body: ConvexBody, target_length: float, mode: str, seed: int
) -> tuple[SteinhausSet, float]:
    """Plan, build, and pad to the exact target length: (set, M), M the grid
    length the final plan aimed at.

    The plan reserves a slack s of one body diameter below the target; the
    padding tops up what the grid falls short of L (missing L by 1e-9 L is an
    internal error).  Should the grid still overshoot L, s doubles and the set
    is rebuilt.  Each attempt's set comes from mode_set, so its lattice is
    admitted before a shift is drawn.  At every pitch check_lattice admits,
    each family lies within 2 diam of |Omega| / eps, so s >= 2 n diam cannot
    overshoot, and the planner refuses once (L - s) / sqrt|Omega| <= e: the
    doubling ends either way.  An unknown mode is refused before L is read.
    """
    slack = body.diameter
    while True:
        m_expected, n, eps = _plan(body, target_length, mode, slack)
        sset = mode_set(body, n, eps, mode, seed)
        if sset.measured_grid_length <= target_length:
            padded = adjust_length(sset, target_length)
            l_actual = total_length(padded)
            if abs(l_actual - target_length) > 1e-9 * target_length:
                raise AssertionError(
                    f"adjusted length {l_actual!r} misses target {target_length!r}")
            return padded, m_expected
        slack *= 2.0


# -- manifests ---------------------------------------------------------------


def set_to_manifest(sset: SteinhausSet) -> dict:
    return {
        "body": body_to_dict(sset.body),
        "n": sset.n,
        "eps": sset.eps,
        "seed": sset.seed,
        "shifts": [float(u) for u in sset.shifts],
        "padding": [
            [[float(a), float(b)] for a, b in seg] for seg in sset.padding
        ],
        "total_length": total_length(sset),
    }


_MANIFEST_KEYS = {"body", "n", "eps", "seed", "shifts", "padding", "total_length"}


def set_from_manifest(manifest: dict) -> SteinhausSet:
    check_object(manifest, "manifest", _MANIFEST_KEYS)
    sset = SteinhausSet(  # check_count refuses its n, and its seed unless null
        body=body_from_dict(manifest["body"]),
        n=manifest["n"],
        eps=float(as_float_array(manifest["eps"], "eps", ndim=0)),
        shifts=as_float_array(manifest["shifts"], "shifts"),
        padding=as_float_array(manifest["padding"], "padding"),
        seed=manifest["seed"],
    )
    for point in sset.padding.reshape(-1, 2):
        if not sset.body.contains(point):
            raise ValidationError("padding", f"endpoint {point.tolist()} lies outside the body")
    stored = float(as_float_array(manifest["total_length"], "total_length", ndim=0))
    if not math.isfinite(stored):
        raise ValidationError("total_length", f"need a finite length, got {stored!r}")
    actual = total_length(sset)
    if not abs(actual - stored) <= 1e-9 * abs(stored):
        raise ValidationError(
            "total_length",
            f"manifest states {stored!r} but the set measures {actual!r}",
        )
    return sset


def save_manifest(sset: SteinhausSet, path) -> None:
    write_json(set_to_manifest(sset), path)


def load_manifest(path) -> SteinhausSet:
    return set_from_manifest(read_json(path, "manifest"))
