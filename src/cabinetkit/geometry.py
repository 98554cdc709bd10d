"""Oriented-box kernel: footprints, bounds, 3D IoU, projections.

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
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .program import CabinetModel

#: Absolute tolerance for clipping predicates and for dropping and joining
#: drawn segments, in millimeters.
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


class BoxError(ValueError):
    """An invalid `OrientedBox` argument; `argument` names it."""

    def __init__(self, message: str, argument: str):
        super().__init__(message)
        self.argument = argument  # "position", "size" or "rotation"


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
            argument = "position" if len(position) != 3 else "size"
            raise BoxError("position and size must be 3-vectors", argument)
        if not all(math.isfinite(c) for c in position + size):
            argument = "size" if all(math.isfinite(c) for c in position) else "position"
            raise BoxError("box coordinates must be finite", argument)
        if not all(c > 0 for c in size):
            raise BoxError(f"box size components must be positive, got {size}", "size")
        if not math.isfinite(size[0] * size[1] * size[2]):
            raise BoxError("box volume must be finite", "size")
        rotation = float(self.rotation_deg)
        if not math.isfinite(rotation):
            raise BoxError("rotation must be finite", "rotation")
        rotation = rotation % 360.0
        if rotation >= 360.0:  # float modulo can round up to the divisor
            rotation = 0.0
        if rotation == 0.0:
            rotation = 0.0  # normalize -0.0
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "rotation_deg", rotation)

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


def pairwise_iou(boxes_a: Sequence[OrientedBox], boxes_b: Sequence[OrientedBox]) -> np.ndarray:
    """IoU of every (a, b) pair of z-rotated boxes, shape (len(a), len(b)).

    A pair of right-angle boxes (rotations that are multiples of 90 degrees)
    scores the exact AABB product: the overlaps of the two boxes' bounds on
    each axis multiplied, over volumes taken from the same bounds, so that
    identical boxes score exactly 1.0. Any other pair scores its footprint
    intersection area times its z overlap (`_clip_iou`); the clipping runs
    only for pairs that overlap in z and whose xy bounds are not apart by
    more than the clipping tolerance can bridge. Pairs that only touch
    (zero-volume intersection) score 0, exactly so when both boxes are at
    right angles or the touch is in z.
    """
    iou = np.zeros((len(boxes_a), len(boxes_b)))
    if iou.size == 0:
        return iou
    lo_a, hi_a, right_a = box_bounds(boxes_a)
    lo_b, hi_b, right_b = box_bounds(boxes_b)
    overlap = np.minimum(hi_a[:, None], hi_b[None]) - np.maximum(lo_a[:, None], lo_b[None])
    ox, oy, oz = overlap[..., 0], overlap[..., 1], overlap[..., 2]
    ext_a, ext_b = hi_a - lo_a, hi_b - lo_b
    vol_a = ext_a[:, 0] * ext_a[:, 1] * ext_a[:, 2]
    vol_b = ext_b[:, 0] * ext_b[:, 1] * ext_b[:, 2]
    inter = ox * oy * oz
    right = right_a[:, None] & right_b[None]
    product = (ox > 0) & (oy > 0) & (oz > 0) & right
    np.divide(inter, (vol_a[:, None] + vol_b[None]) - inter, out=iou, where=product)
    if right.all():
        return iou

    # Clipping keeps vertices up to CLIP_EPS / |edge| outside each edge of
    # the clip polygon, at most 2 * CLIP_EPS / |edge| past its AABB. `reach`
    # doubles that and adds CLIP_EPS: pairs apart in x or y by more clip to
    # nothing. The z test is the one `_clip_iou` makes.
    edge_a = np.array([min(box.size[0], box.size[1]) for box in boxes_a])
    edge_b = np.array([min(box.size[0], box.size[1]) for box in boxes_b])
    reach = CLIP_EPS + 4.0 * CLIP_EPS / np.minimum(edge_a[:, None], edge_b[None])
    clip = ~right & (oz > 0) & (ox > -reach) & (oy > -reach)
    rows, cols = (index.tolist() for index in np.nonzero(clip))
    feet_a = {i: box_footprint(boxes_a[i]) for i in set(rows)}
    feet_b = {j: box_footprint(boxes_b[j]) for j in set(cols)}
    for i, j in zip(rows, cols):
        iou[i, j] = _clip_iou(boxes_a[i], feet_a[i], boxes_b[j], feet_b[j])
    return iou


def box_bounds(boxes: Sequence[OrientedBox]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World-frame AABBs as (lo, hi), each of shape (n, 3), and the right-angle mask.

    This is the one place a box's world extent is worked out. A right-angle
    box's bounds are field arithmetic (center -/+ half size, x and y swapped
    on odd quarter turns), which is bit-identical to its corners; a rotated
    box's xy bounds come from its footprint corners.
    """
    n = len(boxes)
    position = np.array([box.position for box in boxes]).reshape(n, 3)
    half = np.array([box.size for box in boxes]).reshape(n, 3) / 2.0
    rotation = np.array([box.rotation_deg for box in boxes])
    right = rotation % 90.0 == 0.0
    odd = (rotation == 90.0) | (rotation == 270.0)
    half[odd, :2] = half[odd, 1::-1]
    lo = position - half
    hi = position + half
    for i in np.flatnonzero(~right).tolist():
        xs, ys = zip(*box_footprint(boxes[i]))
        lo[i, :2] = min(xs), min(ys)
        hi[i, :2] = max(xs), max(ys)
    return lo, hi, right


def _clip_iou(a: OrientedBox, foot_a: list[Point2], b: OrientedBox, foot_b: list[Point2]) -> float:
    za0, za1 = a.z_interval
    zb0, zb1 = b.z_interval
    overlap_z = min(za1, zb1) - max(za0, zb0)
    if overlap_z <= 0:
        return 0.0
    inter_area = polygon_area(clip_convex(foot_a, foot_b))
    if inter_area <= 0:
        return 0.0
    # Volumes go through the same footprint areas and z intervals as the
    # intersection, so that identical boxes score exactly 1.0. Capped by both
    # volumes, which rounding can leave below it, the score stays in [0, 1].
    vol_a = polygon_area(foot_a) * (za1 - za0)
    vol_b = polygon_area(foot_b) * (zb1 - zb0)
    inter = min(inter_area * overlap_z, vol_a, vol_b)
    return inter / (vol_a + vol_b - inter) if inter > 0 else 0.0


def iou3d(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection-over-union of two z-rotated boxes, in [0, 1].

    The 1 x 1 case of `pairwise_iou`, which defines the score.
    """
    return float(pairwise_iou((a,), (b,))[0, 0])


def model_aabb(model: "CabinetModel") -> tuple[np.ndarray, np.ndarray]:
    """Tight world-frame AABB over all instance boxes of a model."""
    lo, hi, _ = box_bounds([instance.box for instance in model.instances])
    return lo.min(axis=0), hi.max(axis=0)


def project_box(box: OrientedBox, view: str) -> list[Segment]:
    """Orthographic wireframe of the box in a principal view, unmerged.

    The top view is the footprint's four edges. The other views span the
    footprint along the view's horizontal axis: a horizontal across that
    span at each end of the z interval, and a vertical over the z interval
    at each footprint corner. A right-angle box thus gives each vertical
    twice in `front`, `side` and `section`; `render_views` merges each view
    once, which removes them and drops segments no longer than CLIP_EPS.
    """
    ax_h, _ = view_axes(view)
    footprint = box_footprint(box)
    if view == VIEW_TOP:
        segments = list(zip(footprint, footprint[1:] + footprint[:1]))
    else:
        z0, z1 = box.z_interval
        hs = [corner[ax_h] for corner in footprint]
        segments = [((min(hs), z), (max(hs), z)) for z in (z0, z1)]
        segments += [((h, z0), (h, z1)) for h in hs]
    return segments


def view_axes(view: str) -> tuple[int, int]:
    try:
        return _VIEW_AXES[view]
    except KeyError:
        raise ValueError(f"unknown view kind {view!r}") from None


def _dist2(p: Point2, q: Point2) -> float:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


#: Rounding (decimal places) used to group segments onto the same carrier line.
_LINE_KEY_DECIMALS = 6


def merge_segments(segments: Iterable[Segment]) -> list[Segment]:
    """Merge collinear segments that overlap or touch (within CLIP_EPS).

    Output endpoints are taken verbatim from the inputs (never recomputed),
    which makes the merge idempotent for segments longer than about 1e-6 mm.
    A carrier line is keyed by direction and offset rounded to 6 decimals, so
    a merged tilted segment shorter than that can get a different key. The
    result is sorted deterministically by carrier line and position along it.
    """
    groups: dict[tuple, list[tuple[float, float, Point2, Point2]]] = {}
    for p, q in segments:
        if _dist2(p, q) <= CLIP_EPS * CLIP_EPS:
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
            if t0 <= current[1] + CLIP_EPS:
                if t1 > current[1]:
                    current[1], current[3] = t1, q
            else:
                merged.append((current[2], current[3]))
                current = [t0, t1, p, q]
        if current is not None:
            merged.append((current[2], current[3]))
    return merged
