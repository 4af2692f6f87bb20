"""Convex bodies, lines, chords, and slice lengths in the plane.

A line is parameterized by its unit normal angle ``theta`` in [0, pi) and
signed offset ``p``: the point set {x : x . nu(theta) = p} with
nu(theta) = (cos theta, sin theta).  The pairs (theta + pi, -p) and
(theta, p) describe the same line; constructors normalize to theta in
[0, pi).

A convex body is either a strictly convex polygon with counter-clockwise
vertices or a disk.  A polygon has one clip, ConvexBody._clip: chords, grid
segments and slice lengths all come from it, so a line within PARALLEL (1e-14)
of an edge's direction is parallel to it for all three, and the clip alone decides
whether it runs along the edge (within its rounding band; the edge is then
its chord) or outside the body.  A disk's slices have their own closed form.
Chords shorter than ``TANGENCY_CUTOFF * diameter`` are treated as absent
(tangency).  The clip also bounds the rounding error of every chord endpoint
(see ``rounding_bound``), and it works in blocks of KERNEL_CHUNK // edges
lines, so no caller sizes a block by the body.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "ValidationError",
    "Line",
    "ConvexBody",
    "unit_square",
    "body_from_dict",
    "body_to_dict",
    "load_body",
    "dump_body",
]

# Chords shorter than this fraction of the diameter count as tangencies.
TANGENCY_CUTOFF = 1e-12
# c 2^-53 in rounding_bound.  To first order chord_batch's endpoints are off
# by at most about 24 ulps of S (1 + kappa): alpha and beta carry 13 ulps of S
# and 3 (relative to the edge), which the clip -alpha/beta divides by sin, and
# the sums forming start and end 5 more; a disk's half-chord sqrt(r^2 - d^2)
# carries 15 ulps of S^2 over 2 half.  A dot product and a lattice coordinate
# carry 4 ulps of S, which rounding_bound(S) covers on its own.
ROUNDING = 64 * 2.0**-53
PARALLEL = 1e-14  # a line within this sine of an edge's direction is parallel to it
# Elements per (families x lines) counting-kernel block, per (edges x lines)
# clipping block and per (padding x lines) kernel line block: 0.5 MB per
# float64 temporary, so a block stays in cache.
KERNEL_CHUNK = 65_536


def rounding_bound(scale, kappa=0.0):
    """The forward error bound c 2^-53 S (1 + kappa): S bounds every coordinate
    and offset in the computation and kappa is its conditioning."""
    return ROUNDING * scale * (1.0 + kappa)


class ValidationError(ValueError):
    """Invalid user-supplied data; carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def read_json(path, field: str):
    """The JSON value in the file at path; malformed JSON is refused as a
    ValidationError of field."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(field, f"invalid JSON in {path}: {exc}") from exc


def write_json(value, path) -> None:
    """value as compact JSON, sorted keys and no spaces, and a newline."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def check_object(value, field: str, keys) -> dict:
    """value, if it is a JSON object with exactly the given keys; otherwise a
    ValidationError of field naming the unknown and the missing keys."""
    if not isinstance(value, dict):
        raise ValidationError(field, f"need a JSON object, got {type(value).__name__}")
    problems = [f"{word} fields {sorted(names)}" for word, names in (
        ("unknown", set(value) - set(keys)), ("missing", set(keys) - set(value))) if names]
    if problems:
        raise ValidationError(field, "; ".join(problems))
    return value


def check_count(field: str, value, least: int) -> None:
    """Refuse a count, naming the field, unless it is an int (a bool is not) >= least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValidationError(field, f"need an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class Line:
    """An unoriented line with normal angle in [0, pi) and signed offset."""

    theta: float
    offset: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.offset)):
            raise ValidationError("line", "theta and offset must be finite")
        if not 0.0 <= self.theta < math.pi:
            theta, offset = Line.normalize_many(self.theta, self.offset)
            object.__setattr__(self, "theta", float(theta))
            object.__setattr__(self, "offset", float(offset))

    @staticmethod
    def normalize_many(thetas, offsets):
        """Map (theta, p) into [0, pi) x R with the (theta + pi, -p) identification."""
        k = np.floor(thetas / math.pi)
        theta = thetas - k * math.pi
        seam = theta >= math.pi  # guard against rounding at the seam
        odd = (k + seam) % 2 != 0
        theta = np.where(seam, theta - math.pi, theta)
        # -5e-324 / pi underflows to -0.0, so k = 0 leaves it negative; 0.0 is
        # the nearest angle in range (pi - 5e-324 rounds to pi)
        return np.where(theta < 0.0, 0.0, theta), np.where(odd, -offsets, offsets)


def as_float_array(value, field: str, ndim: Optional[int] = None) -> np.ndarray:
    """Numbers (nested ndim deep, if given) as a float array.  Strings,
    booleans, nulls and ragged lists raise a ValidationError naming the field."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "iuf" and ndim in (None, arr.ndim):
            return arr.astype(float)
    except ValueError:  # ragged nesting
        pass
    raise ValidationError(field, f"need numbers, got {value!r}")


def unit_vector(nu) -> np.ndarray:
    """nu, or each row of a (K, 2) stack, scaled to unit length by math.hypot
    (numpy's hypot rounds some directions differently)."""
    nu = np.asarray(nu, dtype=float)
    norm = np.array([math.hypot(x, y) for x, y in nu.reshape(-1, 2)])
    if np.any((norm == 0.0) | ~np.isfinite(norm)):
        raise ValidationError("nu", "direction must be a nonzero finite vector")
    return nu / norm.reshape(nu.shape[:-1] + (1,))


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """A strictly convex polygon (CCW vertices) or a disk."""

    kind: str
    vertices: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def polygon(vertices) -> "ConvexBody":
        arr = as_float_array(vertices, "polygon")
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
            raise ValidationError("polygon", "need an (m, 2) array with m >= 3")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("polygon", "vertices must be finite")
        edges = np.roll(arr, -1, axis=0) - arr
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(lengths == 0.0):
            raise ValidationError("polygon", "repeated consecutive vertices")
        nxt_edges = np.roll(edges, -1, axis=0)
        crosses = edges[:, 0] * nxt_edges[:, 1] - edges[:, 1] * nxt_edges[:, 0]
        # a turn of sine at most 1e-12 is flat; a sine, as PARALLEL is one, is scale-free
        flat = np.abs(crosses) <= 1e-12 * lengths * np.roll(lengths, -1)
        if np.any(flat):
            i = int(np.argmax(flat))
            raise ValidationError(
                "polygon", f"collinear triple at vertex index {i} (not strictly convex)"
            )
        if np.any(crosses < 0.0):
            i = int(np.argmax(crosses < 0.0))
            raise ValidationError(
                "polygon",
                f"vertices must wind counter-clockwise and be strictly convex "
                f"(reflex turn at index {i})",
            )
        return ConvexBody(kind="polygon", vertices=arr)

    @staticmethod
    def disk(center, radius: float) -> "ConvexBody":
        c = as_float_array(center, "disk.center")
        if c.shape != (2,) or not np.all(np.isfinite(c)):
            raise ValidationError("disk.center", "need a finite point [x, y]")
        radius = float(as_float_array(radius, "disk.radius", ndim=0))
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValidationError("disk.radius", "radius must be positive and finite")
        return ConvexBody(kind="disk", center=c, radius=radius)

    # -- cached scalar properties -----------------------------------------

    @cached_property
    def area(self) -> float:
        if self.kind == "disk":
            return math.pi * self.radius**2
        v = self.vertices
        nxt = np.roll(v, -1, axis=0)
        return 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))

    @cached_property
    def diameter(self) -> float:
        if self.kind == "disk":
            return 2.0 * self.radius
        v = self.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return math.sqrt(float(np.max(d2)))

    @cached_property
    def scale(self) -> float:
        """max |x| over the body, the coordinate scale of its chords."""
        if self.kind == "disk":
            return math.hypot(*self.center) + self.radius
        return float(np.max(np.hypot(self.vertices[:, 0], self.vertices[:, 1])))

    @cached_property
    def _edge_data(self):
        """Per-edge start point, edge vector, and length (polygon only)."""
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        return v, e, np.hypot(e[:, 0], e[:, 1])

    # -- support and membership -------------------------------------------

    def contains(self, point) -> bool:
        """Whether the point lies in the body, up to 1e-9 body diameters."""
        p = np.asarray(point, dtype=float)
        tol = 1e-9 * self.diameter
        if self.kind == "disk":
            return float(np.hypot(*(p - self.center))) <= self.radius + tol
        v, e, elen = self._edge_data
        rel = p[None, :] - v
        cross = e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]
        return bool(np.all(cross >= -tol * elen))

    def support_many(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) of x . u over the body, per row of an (N, 2) array of
        unit directions."""
        if self.kind == "disk":
            c = units @ self.center
            return c - self.radius, c + self.radius
        proj = units @ self.vertices.T
        return proj.min(axis=1), proj.max(axis=1)

    def offset_extents(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Offset range of lines at each normal angle that can meet the body."""
        th = np.asarray(thetas, dtype=float)
        return self.support_many(np.column_stack([np.cos(th), np.sin(th)]))

    # -- chords -------------------------------------------------------------

    def chord_batch(self, thetas: np.ndarray, offsets: np.ndarray):
        """Clip many lines at once.

        Returns (start (N,2), end (N,2), length (N,), valid (N,)); entries of
        invalid lines are zero.  A line is invalid when it misses the body or
        meets it in a chord shorter than the tangency cutoff.  These are
        chord_bounds' first four arrays; its bounds are computed and dropped.
        """
        return self.chord_bounds(thetas, offsets)[:4]

    def chord_bounds(self, thetas: np.ndarray, offsets: np.ndarray):
        """chord_batch's four arrays, then forward error bounds of the chord
        endpoints: bound_start, bound_end, edge_start, edge_end (meaningless on
        invalid lines) and along.

        Each endpoint lies within its bound, rounding_bound(self.scale, kappa),
        of the exact one of the line x . (c, s) = p, with c and s the computed
        cos and sin of theta.  On a disk kappa is scale / half-chord and there
        are no edges (-1).  On a polygon kappa is 1/|sin| of the angle between
        the line and the endpoint's binding edge; where other clips lie within
        the bounds of it (near a vertex) the largest kappa counts and the edge
        is -1, undecided.  along is the edge taken as parallel that the clip
        finds the line along, within its rounding band (-1 for none): the exact
        line may leave the body there, unless it lies on the edge.
        """
        thetas = np.asarray(thetas, dtype=float)
        nu = np.column_stack([np.cos(thetas), np.sin(thetas)])
        return self._clip(nu, np.asarray(offsets, dtype=float))

    def _clip(self, nu: np.ndarray, offsets: np.ndarray):
        """The one clip of the lines x . nu = offset, nu one unit normal per row,
        slices included: chord_bounds' nine arrays.  It clips in blocks of
        KERNEL_CHUNK // edges lines, so its (edges x lines) temporaries stay
        bounded whoever calls it; a line's arrays do not depend on its block."""
        step = max(1, KERNEL_CHUNK // (1 if self.vertices is None else len(self.vertices)))
        return tuple(np.concatenate(part) for part in zip(*(
            self._clip_block(nu[lo : lo + step], offsets[lo : lo + step])
            for lo in range(0, max(len(offsets), 1), step))))

    def _clip_block(self, nu: np.ndarray, offsets: np.ndarray):
        """_clip's nine arrays for one block of lines."""
        tangent = np.column_stack([-nu[:, 1], nu[:, 0]])
        base = offsets[:, None] * nu
        cutoff = TANGENCY_CUTOFF * self.diameter

        if self.kind == "disk":
            # elementwise, not a matvec: a line's chord does not depend on its batch
            d = nu[:, 0] * self.center[0] + nu[:, 1] * self.center[1] - offsets
            h2 = self.radius**2 - d * d
            valid = h2 > (0.5 * cutoff) ** 2
            half = np.sqrt(np.where(valid, h2, 0.0))
            foot = self.center[None, :] - d[:, None] * nu
            start = foot - half[:, None] * tangent
            end = foot + half[:, None] * tangent
            length = 2.0 * half
            # kappa = scale / half-chord, no edges
            along = edge_s = edge_e = np.full(len(offsets), -1)
            bound_s = bound_e = rounding_bound(self.scale, np.divide(
                self.scale, half, out=np.full(len(half), np.inf), where=valid))
        else:
            # per edge (v, e) and line, as (edges, lines) arrays so that reductions
            # over the edges run along whole rows: base + t tangent is inside
            # where alpha + t beta >= 0; |beta| <= PARALLEL |e| counts as parallel
            v, e, elen = self._edge_data
            elen = elen[:, None]
            alpha = (e[:, 0, None] * (base[:, 1] - v[:, 1, None])
                     - e[:, 1, None] * (base[:, 0] - v[:, 0, None]))
            beta = e[:, 0, None] * tangent[:, 1] - e[:, 1, None] * tangent[:, 0]
            pos = beta > PARALLEL * elen
            neg = beta < -PARALLEL * elen
            crossing = pos | neg
            clip = -alpha / np.where(crossing, beta, 1.0)
            t_lo = np.max(np.where(pos, clip, -np.inf), axis=0)  # the chord's ends
            t_hi = np.min(np.where(neg, clip, np.inf), axis=0)
            err = rounding_bound(self.scale, np.divide(  # per edge and line, its clip's
                elen, np.abs(beta), out=np.full(beta.shape, np.inf), where=crossing))
            bounds, edges = [], []
            for side, t in ((pos, t_lo), (neg, t_hi)):
                err_b = np.max(np.where(side & (clip == t), err, 0.0), axis=0)  # the binding clip's
                near = side & (np.abs(clip - t) <= err + err_b)
                bounds.append(np.max(np.where(near, err, 0.0), axis=0))
                edges.append(np.where(np.count_nonzero(near, axis=0) == 1,
                                      np.argmax(near, axis=0), -1))
            (bound_s, bound_e), (edge_s, edge_e) = bounds, edges
            # a parallel edge's alpha + t beta keeps its sign over the chord beyond a
            # band, its rounding plus |beta| times the chord's reach: outside below it
            reach = np.nan_to_num(np.maximum(np.abs(t_lo), np.abs(t_hi)), posinf=0.0)
            band = elen * rounding_bound(self.scale) + np.abs(beta) * reach
            on = ~crossing & (np.abs(alpha) <= band)  # along the edge
            along = np.where(np.any(on, axis=0), np.argmax(on, axis=0), -1)
            length = t_hi - t_lo
            valid = (~np.any(~crossing & (alpha < -band), axis=0)
                     & np.isfinite(length) & (length > cutoff))
            length = np.where(valid, length, 0.0)
            start = base + np.where(valid, t_lo, 0.0)[:, None] * tangent
            end = start + length[:, None] * tangent

        start = np.where(valid[:, None], start, 0.0)
        end = np.where(valid[:, None], end, 0.0)
        return start, end, length, valid, bound_s, bound_e, edge_s, edge_e, along

    # -- slices --------------------------------------------------------------

    def vertex_projections(self, nu) -> np.ndarray:
        """x . nu at each polygon vertex, (..., E) for nu of shape (..., 2);
        elementwise, so a direction's row does not depend on its stack."""
        return nu[..., 0, None] * self.vertices[:, 0] + nu[..., 1, None] * self.vertices[:, 1]

    def slice_lengths(self, nu, svals: np.ndarray) -> np.ndarray:
        """Lengths of the slices {x . nu = s} intersect body, vectorized in s;
        a (K, 2) stack of directions takes (K, m) offsets, and on a polygon its
        rows equal single-direction calls bit for bit.  A polygon slice is the
        chord chord_bounds clips, so a slice line along a polygon edge has the
        edge's full length (unshifted grids aligned with the boundary).
        """
        nu = unit_vector(nu)
        s = np.asarray(svals, dtype=float)

        if self.kind == "disk":  # 2 sqrt(max(r^2 - (s - c)^2, 0)), in one array
            h = np.subtract(s, (nu @ self.center)[..., None])
            np.subtract(self.radius**2, np.square(h, out=h), out=h)
            np.sqrt(np.maximum(h, 0.0, out=h), out=h)
            h *= 2.0
            return h

        # one line per offset, each with its own row's direction
        normals = np.broadcast_to(nu[..., None, :], s.shape + (2,)).reshape(-1, 2)
        return self._clip(normals, s.ravel())[2].reshape(s.shape)


def unit_square() -> ConvexBody:
    return ConvexBody.polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


# -- body specification files ---------------------------------------------


def body_from_dict(spec: dict) -> ConvexBody:
    if not isinstance(spec, dict):
        raise ValidationError("body", "specification must be a JSON object")
    keys = set(spec)
    if keys == {"polygon"}:
        return ConvexBody.polygon(spec["polygon"])
    if keys == {"disk"}:
        disk = check_object(spec["disk"], "disk", ("center", "radius"))
        return ConvexBody.disk(disk["center"], disk["radius"])
    raise ValidationError(
        "body", f'need exactly one of "polygon" or "disk", got keys {sorted(keys)}'
    )


def body_to_dict(body: ConvexBody) -> dict:
    if body.kind == "disk":
        return {"disk": {"center": [float(x) for x in body.center], "radius": body.radius}}
    return {"polygon": [[float(x), float(y)] for x, y in body.vertices]}


def load_body(path) -> ConvexBody:
    return body_from_dict(read_json(path, "body"))


def dump_body(body: ConvexBody, path) -> None:
    write_json(body_to_dict(body), path)
