"""Oriented-box kernel: world-frame corners, footprints, 3D IoU, projections.

Coordinate conventions: the up axis is +z, the front of a cabinet faces -y,
and the world origin sits at a cabinet corner so that valid assemblies lie
in the first octant. Boxes rotate about the vertical (z) axis only, which
keeps every overlap query an exact 2D convex-polygon problem times a 1D
interval overlap.

All lengths are millimeters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .program import CabinetModel

UP_AXIS = "+z"
FRONT_DIRECTION = "-y"

#: Absolute tolerance for clipping predicates, in millimeters.
CLIP_EPS = 1e-9

#: Numerical slack allowed when checking the first-octant placement rule.
OCTANT_EPS = 1e-6

Point2 = tuple[float, float]
Segment = tuple[Point2, Point2]

VIEW_FRONT = "front"
VIEW_TOP = "top"
VIEW_SIDE = "side"
VIEW_SECTION = "section"
VIEW_KINDS = (VIEW_FRONT, VIEW_TOP, VIEW_SIDE, VIEW_SECTION)

# Orthographic projections: world axis indices for (horizontal, vertical).
# Section views share the front-view projection plane.
_VIEW_AXES = {
    VIEW_FRONT: (0, 2),  # onto xz, viewed along +y
    VIEW_TOP: (0, 1),    # onto xy, viewed along -z
    VIEW_SIDE: (1, 2),   # onto yz, viewed along +x
    VIEW_SECTION: (0, 2),
}


@dataclass(frozen=True)
class OrientedBox:
    """A 3D box: center position, extents, and rotation about the z axis.

    Sizes must be strictly positive and finite, and so must their product
    (the volume, which every IoU divides by); the rotation angle is
    canonicalized into [0, 360) degrees on construction.
    """

    position: tuple[float, float, float]
    size: tuple[float, float, float]
    rotation_deg: float = 0.0

    def __post_init__(self) -> None:
        position = tuple(float(c) for c in self.position)
        size = tuple(float(c) for c in self.size)
        if len(position) != 3 or len(size) != 3:
            raise ValueError("position and size must be 3-vectors")
        if not all(math.isfinite(c) for c in position + size):
            raise ValueError("box coordinates must be finite")
        if not all(c > 0 for c in size):
            raise ValueError(f"box size components must be positive, got {size}")
        if not math.isfinite(size[0] * size[1] * size[2]):
            raise ValueError("box volume must be finite")
        rotation = float(self.rotation_deg)
        if not math.isfinite(rotation):
            raise ValueError("rotation must be finite")
        rotation = rotation % 360.0
        if rotation >= 360.0:  # float modulo can round up to the divisor
            rotation = 0.0
        if rotation == 0.0:
            rotation = 0.0  # normalize -0.0
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "rotation_deg", rotation)

    def translated(self, offset) -> "OrientedBox":
        ox, oy, oz = offset
        px, py, pz = self.position
        return OrientedBox((px + ox, py + oy, pz + oz), self.size, self.rotation_deg)

    @property
    def volume(self) -> float:
        sx, sy, sz = self.size
        return sx * sy * sz

    @property
    def z_interval(self) -> tuple[float, float]:
        z = self.position[2]
        h = self.size[2] / 2.0
        return z - h, z + h


def _rot2(deg: float) -> tuple[float, float]:
    """(cos, sin) of a z rotation; exact for multiples of 90 degrees."""
    if deg % 90.0 == 0.0:
        quarter = int(deg // 90.0) % 4
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[quarter]
    rad = math.radians(deg)
    return math.cos(rad), math.sin(rad)


def box_footprint(box: OrientedBox) -> list[Point2]:
    """CCW xy-plane footprint of the box (4 vertices)."""
    c, s = _rot2(box.rotation_deg)
    hx = box.size[0] / 2.0
    hy = box.size[1] / 2.0
    px, py = box.position[0], box.position[1]
    verts = []
    for lx, ly in ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)):
        verts.append((px + c * lx - s * ly, py + s * lx + c * ly))
    return verts


def box_corners(box: OrientedBox) -> np.ndarray:
    """The 8 world-frame corners, shape (8, 3).

    Corners 0-3 are the bottom footprint in CCW order, corners 4-7 the top.
    """
    footprint = box_footprint(box)
    z0, z1 = box.z_interval
    corners = np.empty((8, 3), dtype=float)
    for i, (x, y) in enumerate(footprint):
        corners[i] = (x, y, z0)
        corners[i + 4] = (x, y, z1)
    return corners


_BOX_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),  # bottom ring
    (4, 5), (5, 6), (6, 7), (7, 4),  # top ring
    (0, 4), (1, 5), (2, 6), (3, 7),  # verticals
)


def polygon_area(poly: Iterable[Point2]) -> float:
    """Unsigned area of a simple polygon (shoelace)."""
    verts = list(poly)
    if len(verts) < 3:
        return 0.0
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


def clip_convex(subject: list[Point2], clip: list[Point2]) -> list[Point2]:
    """Sutherland-Hodgman intersection of two convex CCW polygons.

    Points exactly on a clip edge count as inside (within CLIP_EPS), so
    clipping a polygon against itself returns it unchanged.
    """
    output = list(subject)
    if not output or len(clip) < 3:
        return []
    for (ex0, ey0), (ex1, ey1) in zip(clip, clip[1:] + clip[:1]):
        if not output:
            return []
        dx, dy = ex1 - ex0, ey1 - ey0

        def side(p: Point2) -> float:
            return dx * (p[1] - ey0) - dy * (p[0] - ex0)

        polygon, output = output, []
        prev = polygon[-1]
        prev_side = side(prev)
        for curr in polygon:
            curr_side = side(curr)
            if curr_side >= -CLIP_EPS:
                if prev_side < -CLIP_EPS:
                    output.append(_edge_intersection(prev, curr, prev_side, curr_side))
                output.append(curr)
            elif prev_side >= -CLIP_EPS:
                output.append(_edge_intersection(prev, curr, prev_side, curr_side))
            prev, prev_side = curr, curr_side
    return _dedupe_ring(output)


def _edge_intersection(p: Point2, q: Point2, sp: float, sq: float) -> Point2:
    t = sp / (sp - sq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _dedupe_ring(verts: list[Point2]) -> list[Point2]:
    out: list[Point2] = []
    for v in verts:
        if out and abs(v[0] - out[-1][0]) <= CLIP_EPS and abs(v[1] - out[-1][1]) <= CLIP_EPS:
            continue
        out.append(v)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) <= CLIP_EPS and abs(out[0][1] - out[-1][1]) <= CLIP_EPS:
        out.pop()
    return out


def box_aabb(box: OrientedBox) -> tuple[np.ndarray, np.ndarray]:
    """World-frame axis-aligned bounds of a (possibly rotated) box."""
    corners = box_corners(box)
    return corners.min(axis=0), corners.max(axis=0)


def iou3d(a: OrientedBox, b: OrientedBox, *, method: str = "rotated") -> float:
    """Intersection-over-union of two z-rotated boxes, in [0, 1].

    The default computes the exact overlap as (footprint polygon
    intersection area) x (z interval overlap). ``method="aabb"`` instead
    compares the boxes' world-frame AABBs, for diagnostics and testing.
    Face-tangent boxes (zero-volume intersection) score exactly 0.
    """
    if method == "aabb":
        lo_a, hi_a = box_aabb(a)
        lo_b, hi_b = box_aabb(b)
        overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
        if np.any(overlap <= 0):
            return 0.0
        inter = float(np.prod(overlap))
        vol_a = float(np.prod(hi_a - lo_a))
        vol_b = float(np.prod(hi_b - lo_b))
        return inter / (vol_a + vol_b - inter)
    if method != "rotated":
        raise ValueError(f"unknown IoU method {method!r}")

    za0, za1 = a.z_interval
    zb0, zb1 = b.z_interval
    overlap_z = min(za1, zb1) - max(za0, zb0)
    if overlap_z <= 0:
        return 0.0
    foot_a = box_footprint(a)
    foot_b = box_footprint(b)
    inter_area = polygon_area(clip_convex(foot_a, foot_b))
    if inter_area <= 0:
        return 0.0
    # Volumes go through the same footprint-area route as the intersection
    # so that identical boxes score exactly 1.0.
    vol_a = polygon_area(foot_a) * a.size[2]
    vol_b = polygon_area(foot_b) * b.size[2]
    inter = inter_area * overlap_z
    return inter / (vol_a + vol_b - inter)


def model_aabb(model: "CabinetModel") -> tuple[np.ndarray, np.ndarray]:
    """Tight world-frame AABB over all instance boxes of a model."""
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)
    for instance in model.instances:
        corners = box_corners(instance.box)
        lo = np.minimum(lo, corners.min(axis=0))
        hi = np.maximum(hi, corners.max(axis=0))
    return lo, hi


def project_box(box: OrientedBox, view: str) -> list[Segment]:
    """Orthographic wireframe of the box's 12 edges in a principal view.

    Degenerate (point) projections are dropped and collinear overlapping
    segments are merged, so an axis-aligned box projects to exactly the
    4 silhouette segments.
    """
    ax_h, ax_v = view_axes(view)
    corners = box_corners(box)
    segments: list[Segment] = []
    for i, j in _BOX_EDGES:
        p = (float(corners[i][ax_h]), float(corners[i][ax_v]))
        q = (float(corners[j][ax_h]), float(corners[j][ax_v]))
        if _dist2(p, q) > CLIP_EPS * CLIP_EPS:
            segments.append((p, q))
    return merge_segments(segments)


def view_axes(view: str) -> tuple[int, int]:
    try:
        return _VIEW_AXES[view]
    except KeyError:
        raise ValueError(f"unknown view kind {view!r}") from None


def _dist2(p: Point2, q: Point2) -> float:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


#: Rounding (decimal places) used to group segments onto the same carrier line.
_LINE_KEY_DECIMALS = 6


def merge_segments(segments: Iterable[Segment], *, gap_tol: float = 1e-9) -> list[Segment]:
    """Merge collinear segments that overlap or touch (within gap_tol).

    Output endpoints are taken verbatim from the inputs (never recomputed),
    which makes the merge idempotent. The result is sorted deterministically
    by carrier line and position along it.
    """
    groups: dict[tuple, list[tuple[float, float, Point2, Point2]]] = {}
    for p, q in segments:
        if _dist2(p, q) <= gap_tol * gap_tol:
            continue
        dx, dy = q[0] - p[0], q[1] - p[1]
        norm = math.hypot(dx, dy)
        ux, uy = dx / norm, dy / norm
        if uy < 0 or (uy == 0 and ux < 0):  # canonical direction
            ux, uy = -ux, -uy
            p, q = q, p
        # Carrier line key: direction plus signed offset from the origin.
        offset = ux * p[1] - uy * p[0]
        key = (
            round(ux, _LINE_KEY_DECIMALS),
            round(uy, _LINE_KEY_DECIMALS),
            round(offset, _LINE_KEY_DECIMALS),
        )
        t0 = p[0] * ux + p[1] * uy
        t1 = q[0] * ux + q[1] * uy
        groups.setdefault(key, []).append((t0, t1, p, q))

    merged: list[Segment] = []
    for key in sorted(groups):
        intervals = sorted(groups[key], key=lambda item: (item[0], item[1]))
        current = None
        for t0, t1, p, q in intervals:
            if current is None:
                current = [t0, t1, p, q]
                continue
            if t0 <= current[1] + gap_tol:
                if t1 > current[1]:
                    current[1], current[3] = t1, q
            else:
                merged.append((current[2], current[3]))
                current = [t0, t1, p, q]
        if current is not None:
            merged.append((current[2], current[3]))
    return merged
