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
A build mode is the pair of rules in MODES, the only place a mode is looked
up: "shifted" takes n ~ M^(2/5) (log M)^(-1/5) directions and samples the
shifts, "zero" (the unshifted baseline) takes n = floor(L^(1/3)) and zero
shifts.  The pitch is fixed before the shifts are drawn; only a grid that
overshoots L (rare) is rebuilt with a doubled slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import (KERNEL_CHUNK, ConvexBody, ValidationError, as_float_array,
                       body_from_dict, body_to_dict, check_object, read_json,
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
    if n < 1:
        raise ValidationError("n", f"n must be >= 1, got {n}")
    half = math.pi / (2 * n)
    s = np.mod(np.asarray(theta, dtype=float) + math.pi / 2, math.pi / n)
    return np.cos(half - s) / math.sin(half)


def sample_shifts(n: int, seed: int) -> np.ndarray:
    """One uniform [0,1) shift per family, from a per-family labeled stream.

    Family k's shift depends only on (seed, k), so any prefix of families is
    reproducible regardless of n-order of evaluation.
    """
    return np.array([stream(seed, f"shift/{k}").random() for k in range(n)])


def mode_shifts(mode: str, n: int, seed: int) -> np.ndarray:
    """The shifts of a build mode: sampled ("shifted") or all zero ("zero")."""
    if n < 1:
        raise ValidationError("n", f"need at least one family, got n={n}")
    return MODES[_check_mode(mode)][1](n, seed)


def check_lattice(body: ConvexBody, n: int, eps: float) -> None:
    """Refuse, naming the field, unless n >= 1 and the pitch eps is finite with
    body.scale / eps < 2^52, so that every lattice index is an exact integer."""
    if n < 1:
        raise ValidationError("n", f"need at least one family, got n={n}")
    if not (math.isfinite(eps) and body.scale < 2.0**52 * eps):
        raise ValidationError("eps", f"need a finite pitch above body scale / 2^52, got {eps}")


def _index_range(body: ConvexBody, dirs: np.ndarray, eps: float, shifts: np.ndarray):
    """Per direction, the least and greatest q +- 1 with eps (q + u) in the support, over rows u."""
    smin, smax = body.support_many(dirs)
    return (np.min(np.ceil(smin / eps - shifts), axis=0) - 1,
            np.max(np.floor(smax / eps - shifts), axis=0) + 1)


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
        lo, hi = _index_range(self.body, self.directions, self.eps, self.shifts[None, :])
        return np.column_stack([lo, hi]).astype(np.int64)

    @property
    def padding_count(self) -> int:
        return int(self.padding.shape[0])

    @cached_property
    def padding_length(self) -> float:
        if self.padding_count == 0:
            return 0.0
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
    0 when it finds it outside.  A disk sums every slice that can meet it, in
    blocks of KERNEL_CHUNK // (lattice lines) rows.
    """
    u = np.asarray(shifts, dtype=float)
    dirs = directions(u.shape[1])
    if body.kind == "disk":
        lo, hi = _index_range(body, dirs, eps, u)  # one row: the set's q_ranges
        lengths = np.empty(u.shape)
        steps = np.arange(np.max(hi - lo) + 1)
        rows = max(1, KERNEL_CHUNK // steps.size)
        work = np.empty(min(len(u), rows) * steps.size)  # a block's offsets, family by family
        for r in range(0, len(u), rows):
            block = slice(r, r + rows)
            for k, nu in enumerate(dirs):
                m = int(hi[k] - lo[k] + 1)
                s = work[: len(u[block]) * m].reshape(-1, m)
                np.add(steps[:m], lo[k], out=s)
                s += u[block, k, None]
                s *= eps  # eps (lo_k + i + u_k)
                lengths[block, k] = body.slice_lengths(nu, s.ravel()).reshape(s.shape).sum(axis=1)
        return lengths
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
        if np.any(edge):
            lengths[:, edge] += body.slice_lengths(dirs[edge], eps * (q[:, edge] + u[:, edge]).T).T
    return lengths


def grid_length(sset: SteinhausSet) -> float:
    """Sum of every family's length; sets cache it as measured_grid_length."""
    return math.fsum(family_length_many(sset.body, sset.eps, sset.shifts[None, :])[0])


def total_length(sset: SteinhausSet) -> float:
    """Grid length plus padding length."""
    return sset.measured_grid_length + sset.padding_length


# -- parameter planning ------------------------------------------------------


def _cube_root_floor(length: float) -> int:
    """floor(L^(1/3)) exactly (float powers round 100.0 down to 99.999...)."""
    n = int(length ** (1.0 / 3.0))
    while (n + 1) ** 3 <= length:
        n += 1
    while n > 0 and n**3 > length:
        n -= 1
    return n


MODES = {
    # mode: (n from (L, M), shifts from (n, seed))
    "shifted": (lambda length, m: int(m**0.4 / math.log(m) ** 0.2), sample_shifts),
    "zero": (lambda length, m: _cube_root_floor(length), lambda n, seed: np.zeros(n)),
}


def _check_mode(mode: str) -> str:
    if not (isinstance(mode, str) and mode in MODES):
        raise ValidationError("mode", f"expected one of {sorted(MODES)}, got {mode!r}")
    return mode


def _plan(body: ConvexBody, target_length: float, mode: str,
          slack: float) -> tuple[float, int, float]:
    """(M, n, eps): the grid aims at expected length M = L - slack, n from
    the mode's rule and eps = n |Omega| / M."""
    if not (math.isfinite(target_length) and target_length > 1.0):
        raise ValidationError("L", "target length must be finite and > 1")
    m_expected = target_length - slack
    if m_expected <= math.e:
        raise ValidationError(
            "L",
            f"target length {target_length} too small: expected grid length "
            f"M = L - {slack:.6g} must exceed e, so L must exceed e + {slack:.6g} "
            f"= {math.e + slack:.6g}",
        )
    n = MODES[mode][0](target_length, m_expected)
    eps = n * body.area / m_expected
    if eps > 1.0:
        raise ValidationError(
            "L",
            f"target length {target_length} gives lattice pitch eps={eps:.3g} > 1 for "
            f"this body; increase L or shrink the body",
        )
    return float(m_expected), n, float(eps)


# -- exact-length padding ---------------------------------------------------


def padding_direction(n: int) -> np.ndarray:
    """Unit segment direction at angle pi (2n + 3) / (4n).

    An odd multiple of pi/(4n) is never parallel to a family normal nor to a
    family's lattice lines (those all sit at even multiples), for every n.
    """
    a = math.pi * (2 * n + 3) / (4 * n)
    return np.array([math.cos(a), math.sin(a)])


def padding_disk(body: ConvexBody) -> tuple[np.ndarray, float]:
    """Disk that receives padding: largest inscribed disk at the Chebyshev
    center for polygons, the concentric half-radius disk for a disk body."""
    if body.kind == "disk":
        return body.center.copy(), 0.5 * body.radius
    return body.inscribed_disk


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
    tol = 1e-9 * max(abs(target_length), 1.0)
    if delta < -tol:
        raise ValidationError(
            "target_length",
            f"grid length {base:.6g} already exceeds target {target_length:.6g}",
        )
    padding = make_padding(sset.body, sset.n, delta) if delta > tol else np.zeros((0, 2, 2))
    padded = SteinhausSet(
        body=sset.body,
        n=sset.n,
        eps=sset.eps,
        shifts=sset.shifts.copy(),
        padding=padding,
        seed=sset.seed,
    )
    padded.measured_grid_length = base  # the same grid, so the same sum
    return padded


def build_exact(
    body: ConvexBody, target_length: float, mode: str, seed: int
) -> tuple[SteinhausSet, float]:
    """Plan, build, and pad to the exact target length: (set, M), M the grid
    length the final plan aimed at.

    The plan reserves a slack s of one body diameter below the target; the
    padding tops up what the grid falls short of L.  Should the grid still
    overshoot L, s doubles and the set is rebuilt.  Each family lies within
    2 diam of |Omega| / eps, so s >= 2 n diam cannot overshoot, and the
    planner refuses once L - s <= e: the doubling ends either way.
    """
    _check_mode(mode)
    slack = body.diameter
    while True:
        m_expected, n, eps = _plan(body, target_length, mode, slack)
        sset = SteinhausSet(body=body, n=n, eps=eps, shifts=mode_shifts(mode, n, seed),
                            seed=seed)
        if sset.measured_grid_length <= target_length:
            return adjust_length(sset, target_length), m_expected
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
    n = float(as_float_array(manifest["n"], "n", ndim=0))
    if not n.is_integer():
        raise ValidationError("n", f"need an integer, got {manifest['n']!r}")
    seed = manifest["seed"]
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ValidationError("seed", f"need an integer or null, got {seed!r}")
    sset = SteinhausSet(
        body=body_from_dict(manifest["body"]),
        n=int(n),
        eps=float(as_float_array(manifest["eps"], "eps", ndim=0)),
        shifts=as_float_array(manifest["shifts"], "shifts"),
        padding=as_float_array(manifest["padding"], "padding"),
        seed=seed,
    )
    stored = float(as_float_array(manifest["total_length"], "total_length", ndim=0))
    if not math.isfinite(stored):
        raise ValidationError("total_length", f"need a finite length, got {stored!r}")
    actual = total_length(sset)
    if not abs(actual - stored) <= 1e-9 * max(abs(stored), 1.0):
        raise ValidationError(
            "total_length",
            f"manifest states {stored!r} but the set measures {actual!r}",
        )
    return sset


def save_manifest(sset: SteinhausSet, path) -> None:
    write_json(set_to_manifest(sset), path)


def load_manifest(path) -> SteinhausSet:
    return set_from_manifest(read_json(path, "manifest"))
