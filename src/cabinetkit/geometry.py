"""Oriented-box kernel: footprints, bounds, 3D IoU, projections.

Coordinate conventions: the up axis is +z, the front of a cabinet faces -y,
and the world origin sits at a cabinet corner so that valid assemblies lie
in the first octant. Boxes rotate about the vertical (z) axis only, which
keeps every overlap query an exact 2D convex-polygon problem times a 1D
interval overlap. A box's world extent is worked out in one routine
(`_extents`): field arithmetic for a right-angle box, the min and max of
its `footprints` row for a tilted one. `box_extents`, `project_boxes` and
`pairwise_iou` read it, and the last two reuse the tilted boxes' footprint
rows it built. `pairwise_iou` clips all of a call's convex footprint
pairs at once, as padded numpy arrays (`_clip_areas`), in the float
operation order of the per-pair Sutherland-Hodgman loop that the tests keep
as its reference, so its scores equal that loop's bit for bit.

All lengths are millimeters. `OrientedBox` admits one domain, positions
within +-1e6 mm and sizes from 0.1 to 1e6 mm, and the code here relies on
it: no extent, volume or gap overflows, and a box scores exactly 1.0
against itself.
"""

from __future__ import annotations

import itertools
import math
import operator
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

#: The box domain, in millimeters: every position component lies in
#: [-MAX_MM, MAX_MM] and every size component in [MIN_SIZE_MM, MAX_MM]. At
#: 1e6 mm a coordinate's ulp (1.2e-10 mm) is still below CLIP_EPS. Under
#: 0.1 mm, a tilted box far from the origin can score below 1.0 against
#: itself, because its footprint's shoelace sum cancels.
MAX_MM = 1e6
MIN_SIZE_MM = 0.1

#: How far apart in x or y two footprints' bounds can be and still clip to
#: an area. Clipping keeps vertices up to CLIP_EPS / |edge| outside each edge
#: of the clip polygon, at most 2 * CLIP_EPS / |edge| past its bounds; this
#: doubles that for the shortest edge the domain allows and adds CLIP_EPS.
_REACH_MM = CLIP_EPS + 4.0 * CLIP_EPS / MIN_SIZE_MM

Point2 = tuple[float, float]
Point3 = tuple[float, float, float]
Segment = tuple[Point2, Point2]
#: A box's world-frame extent: its smallest and its largest (x, y, z).
Extent = tuple[Point3, Point3]

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


_DOMAIN_ERRORS = {
    "position": f"position out of domain: each component must lie in [{-MAX_MM:g}, {MAX_MM:g}] mm",
    "size": f"size out of domain: each component must lie in [{MIN_SIZE_MM:g}, {MAX_MM:g}] mm",
    "rotation": "rotation must be finite",
}


@dataclass(frozen=True)
class OrientedBox:
    """A 3D box: center position, extents, and rotation about the z axis.

    A box lies in one domain, checked here and nowhere downstream: each
    position component within +-MAX_MM (1e6 mm), each size component from
    MIN_SIZE_MM (0.1 mm) to MAX_MM, and a finite rotation, which is
    canonicalized into [0, 360) degrees. Anything else raises `BoxError`
    naming the argument at fault.
    """

    position: tuple[float, float, float]
    size: tuple[float, float, float]
    rotation_deg: float = 0.0

    def __post_init__(self) -> None:
        argument = "position"
        try:
            position = tuple(map(float, self.position))
            argument = "size"
            size = tuple(map(float, self.size))
            argument = "rotation"
            rotation = float(self.rotation_deg)
        except OverflowError:  # an integer beyond the float range
            raise BoxError(_DOMAIN_ERRORS[argument], argument) from None
        if len(position) != 3 or len(size) != 3:
            argument = "position" if len(position) != 3 else "size"
            raise BoxError("position and size must be 3-vectors", argument)
        # Chained comparisons are false for NaN, so they reject it with inf.
        px, py, pz = position
        if not (-MAX_MM <= px <= MAX_MM and -MAX_MM <= py <= MAX_MM and -MAX_MM <= pz <= MAX_MM):
            raise BoxError(_DOMAIN_ERRORS["position"], "position")
        sx, sy, sz = size
        if not (
            MIN_SIZE_MM <= sx <= MAX_MM and MIN_SIZE_MM <= sy <= MAX_MM and MIN_SIZE_MM <= sz <= MAX_MM
        ):
            raise BoxError(_DOMAIN_ERRORS["size"], "size")
        if not math.isfinite(rotation):
            raise BoxError(_DOMAIN_ERRORS["rotation"], "rotation")
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


#: The x and y signs of each CCW footprint corner's offset from the center.
_CORNER_X, _CORNER_Y = np.array([(-1.0, 1.0, 1.0, -1.0), (-1.0, -1.0, 1.0, 1.0)])


def footprints(boxes: Sequence[OrientedBox]) -> np.ndarray:
    """CCW xy-plane footprints of the boxes, shape (n, 4, 2): the one footprint routine.

    Each box turns by `_rot2`'s (cos, sin), and each corner (lx, ly) of its
    half size lands at px + c*lx - s*ly, py + s*lx + c*ly, in that float order.
    """
    fields = [(*box.position[:2], *box.size[:2], *_rot2(box.rotation_deg)) for box in boxes]
    px, py, sx, sy, c, s = np.array(fields).reshape(-1, 6, 1).swapaxes(0, 1)
    lx, ly = sx / 2.0 * _CORNER_X, sy / 2.0 * _CORNER_Y
    return np.stack((px + c * lx - s * ly, py + s * lx + c * ly), axis=2)


def pairwise_iou(boxes_a: Sequence[OrientedBox], boxes_b: Sequence[OrientedBox]) -> np.ndarray:
    """IoU of every (a, b) pair of z-rotated boxes, shape (len(a), len(b)).

    A pair of right-angle boxes (rotations that are multiples of 90 degrees)
    scores the exact AABB product: the overlaps of the two boxes' bounds on
    each axis multiplied, over volumes taken from the same bounds, so that
    identical boxes score exactly 1.0. Any other pair scores its footprint
    intersection area times its z overlap, over volumes taken from each
    footprint's area and z interval, capped so the score stays in [0, 1].
    The clipping runs only for pairs that overlap in z and whose xy bounds
    are not apart by more than the clipping tolerance can bridge, and all of
    a call's pairs are clipped at once (`_clip_areas`), from each side's
    footprints, built once per call and shared with its bounds, each area
    worked out once. Pairs that only touch (zero-volume intersection) score
    0, exactly so when both boxes are at right angles or the touch is in z.
    Every score is finite because every box lies in the `OrientedBox` domain.
    """
    iou = np.zeros((len(boxes_a), len(boxes_b)))
    if iou.size == 0:
        return iou
    lo_a, hi_a, right_a, feet_a = _extent_arrays(boxes_a)
    lo_b, hi_b, right_b, feet_b = _extent_arrays(boxes_b)
    # Every pair takes the AABB arithmetic, and only right-angle pairs that
    # overlap keep it.
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

    # Pairs apart in x or y by more than clipping can bridge clip to nothing.
    rows, cols = np.nonzero(~right & (oz > 0) & (ox > -_REACH_MM) & (oy > -_REACH_MM))
    if rows.size == 0:
        return iou
    feet_a = _all_footprints(boxes_a, right_a, feet_a)
    feet_b = _all_footprints(boxes_b, right_b, feet_b)
    # Lanes whose crossing is inf or NaN (an edge not crossed) are multiplied
    # before `_clip_areas` drops them.
    with np.errstate(invalid="ignore"):
        area_a = _ring_area(feet_a[..., 0], feet_a[..., 1], np.full(len(feet_a), 4))
        area_b = _ring_area(feet_b[..., 0], feet_b[..., 1], np.full(len(feet_b), 4))
        inter_area = _clip_areas(feet_a[rows], feet_b[cols])
        # Volumes go through the same footprint areas and z intervals as the
        # intersection, so that identical boxes score exactly 1.0. Capped by
        # both volumes, which rounding can leave below it, the score stays in
        # [0, 1]; each `where` is a step of Python's min(inter, vol_a, vol_b).
        vol_a = area_a[rows] * (hi_a[rows, 2] - lo_a[rows, 2])
        vol_b = area_b[cols] * (hi_b[cols, 2] - lo_b[cols, 2])
        inter = inter_area * oz[rows, cols]
        inter = np.where(vol_a < inter, vol_a, inter)
        inter = np.where(vol_b < inter, vol_b, inter)
        scored = (inter_area > 0) & (inter > 0)
        inter, vol_a, vol_b = inter[scored], vol_a[scored], vol_b[scored]
        iou[rows[scored], cols[scored]] = inter / (vol_a + vol_b - inter)
    return iou


def _clip_areas(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Intersection area of each pair of convex CCW quads, shape (pairs,).

    Sutherland-Hodgman on every pair at once: row p clips ring `subject[p]`
    (shape (pairs, 4, 2)) by each edge of `clip[p]` in turn. Points on an
    edge or up to CLIP_EPS outside it count as inside, so a quad clipped by
    itself comes back unchanged. Rings are padded arrays with a vertex count
    per row, sized from the counts. Per edge, each vertex emits the edge's
    crossing of its incoming side (when exactly one end is inside), then
    itself (when inside), in ring order. The clipped ring then drops each
    vertex within CLIP_EPS (per axis) of the last one kept and each
    trailing vertex within CLIP_EPS of the first, and gives its shoelace
    area. Every float operation is the one the per-pair loop makes, in its
    order, so the areas agree with it bit for bit.
    """
    pairs = len(subject)
    lane = np.arange(pairs)
    x, y = subject[..., 0], subject[..., 1]
    count = np.full(pairs, 4)
    for k in range(4):
        ex0, ey0 = clip[:, k, 0, None], clip[:, k, 1, None]
        ex1, ey1 = clip[:, (k + 1) % 4, 0, None], clip[:, (k + 1) % 4, 1, None]
        dx, dy = ex1 - ex0, ey1 - ey0
        side = dx * (y - ey0) - dy * (x - ex0)
        inside = side >= -CLIP_EPS
        last = np.maximum(count - 1, 0)
        px, py, p_side, p_inside = (
            np.concatenate((v[lane, last, None], v[:, :-1]), axis=1) for v in (x, y, side, inside)
        )
        valid = np.arange(x.shape[1]) < count[:, None]
        # Lanes where the edge is not crossed divide by zero; they are dropped.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = p_side / (p_side - side)
        emit = np.stack((valid & (inside != p_inside), valid & inside), axis=2).reshape(pairs, -1)
        count = emit.sum(axis=1)
        if not count.any():
            return np.zeros(pairs)
        x = _compact(np.stack((px + t * (x - px), x), axis=2).reshape(pairs, -1), emit, count)
        y = _compact(np.stack((py + t * (y - py), y), axis=2).reshape(pairs, -1), emit, count)

    keep = np.zeros(x.shape, dtype=bool)
    keep[:, 0] = count > 0
    kept_x, kept_y = x[:, 0], y[:, 0]
    for k in range(1, x.shape[1]):
        near = (np.abs(x[:, k] - kept_x) <= CLIP_EPS) & (np.abs(y[:, k] - kept_y) <= CLIP_EPS)
        keep[:, k] = (k < count) & ~near
        kept_x = np.where(keep[:, k], x[:, k], kept_x)
        kept_y = np.where(keep[:, k], y[:, k], kept_y)
    count = keep.sum(axis=1)
    x, y = _compact(x, keep, count), _compact(y, keep, count)
    while True:
        last = np.maximum(count - 1, 0)
        near_x = np.abs(x[:, 0] - x[lane, last]) <= CLIP_EPS
        pop = (count > 1) & near_x & (np.abs(y[:, 0] - y[lane, last]) <= CLIP_EPS)
        if not pop.any():
            return _ring_area(x, y, count)
        count = count - pop


def _compact(values: np.ndarray, keep: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each row's `keep` entries, in order, at its front; zeros pad the rest."""
    slots = np.arange(count.max()) < count[:, None]
    out = np.zeros(slots.shape)
    out[slots] = values[keep]
    return out


def _ring_area(x: np.ndarray, y: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Unsigned shoelace area of each row's first `count` vertices; 0 below 3.

    The cross terms are summed column by column, in ring order, as a scalar
    loop would add them.
    """
    lane = np.arange(len(x))
    last = np.maximum(count - 1, 0)
    next_x = np.concatenate((x[:, 1:], x[:, :1]), axis=1)
    next_y = np.concatenate((y[:, 1:], y[:, :1]), axis=1)
    next_x[lane, last] = x[:, 0]
    next_y[lane, last] = y[:, 0]
    acc = np.cumsum(x * next_y - next_x * y, axis=1)[lane, last]
    return np.where(count >= 3, np.abs(acc) / 2.0, 0.0)


def box_extents(boxes: Sequence[OrientedBox]) -> list[Extent]:
    """World-frame extent of each box as (lo, hi) float triples (`_extents`)."""
    return _extents(boxes)[0]


def _extents(boxes: Sequence[OrientedBox]) -> tuple[list[Extent], list[int], np.ndarray]:
    """Each box's world extent, the indices of the tilted boxes, and their footprints.

    This is the one place a box's world extent is worked out. A right-angle
    box's extent is its center -/+ half size, x and y swapped on odd quarter
    turns, which equals its corners bit for bit. A tilted box's xy extent is
    the min and max of its row of the `footprints` array, shape (tilted, 4, 2),
    returned for the callers that draw or clip it.
    """
    extents: list[Extent] = []
    tilted: list[int] = []
    for index, box in enumerate(boxes):
        (px, py, pz), (sx, sy, sz), rotation = box.position, box.size, box.rotation_deg
        if rotation == 90.0 or rotation == 270.0:  # rotations lie in [0, 360)
            sx, sy = sy, sx
        elif rotation != 0.0 and rotation != 180.0:
            tilted.append(index)
        hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
        extents.append(((px - hx, py - hy, pz - hz), (px + hx, py + hy, pz + hz)))
    if not tilted:
        return extents, tilted, np.empty((0, 4, 2))
    feet = footprints([boxes[i] for i in tilted])
    lows, highs = feet.min(axis=1).tolist(), feet.max(axis=1).tolist()
    for index, (x0, y0), (x1, y1) in zip(tilted, lows, highs):
        (_, _, z0), (_, _, z1) = extents[index]
        extents[index] = ((x0, y0, z0), (x1, y1, z1))
    return extents, tilted, feet


def _extent_arrays(
    boxes: Sequence[OrientedBox],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_extents` as arrays: lo and hi, each (n, 3), the right-angle mask, the tilted footprints."""
    extents, tilted, feet = _extents(boxes)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(extents))
    bounds = np.fromiter(flat, float, 6 * len(boxes)).reshape(len(boxes), 2, 3)
    right = np.ones(len(boxes), dtype=bool)
    right[tilted] = False
    return bounds[:, 0], bounds[:, 1], right, feet


def _all_footprints(
    boxes: Sequence[OrientedBox], right: np.ndarray, tilted_feet: np.ndarray
) -> np.ndarray:
    """`footprints(boxes)`, reusing the tilted boxes' rows that `_extents` built.

    `footprints` works box by box, so every row equals the whole-list call's.
    """
    feet = np.empty((len(boxes), 4, 2))
    feet[~right] = tilted_feet
    square = np.flatnonzero(right)
    if square.size:
        feet[square] = footprints([boxes[i] for i in square.tolist()])
    return feet


def iou3d(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection-over-union of two z-rotated boxes, in [0, 1].

    The 1 x 1 case of `pairwise_iou`, which defines the score.
    """
    return float(pairwise_iou((a,), (b,))[0, 0])


def model_aabb(model: "CabinetModel") -> tuple[np.ndarray, np.ndarray]:
    """Tight world-frame AABB over all instance boxes of a model."""
    extents = box_extents([instance.box for instance in model.instances])
    lo = np.array([min(column) for column in zip(*(lo for lo, _ in extents))])
    hi = np.array([max(column) for column in zip(*(hi for _, hi in extents))])
    return lo, hi


def project_boxes(boxes: Sequence[OrientedBox], view: str) -> list[Segment]:
    """Orthographic wireframes of the boxes in a principal view, unmerged.

    Box by box, a right-angle box is the four edges of its extent's rectangle
    in the view's plane. A tilted box's top view is its footprint's four
    edges; its other views span the footprint along the view's horizontal
    axis: a horizontal across that span at each end of the z interval, then
    a vertical over the z interval at each footprint corner. `render_views`
    merges each view once, which also drops segments no longer than
    CLIP_EPS.
    """
    ax_h, ax_v = view_axes(view)
    extents, tilted, feet = _extents(boxes)
    ring_of = dict(zip(tilted, feet.tolist()))
    segments: list[Segment] = []
    for index, (lo, hi) in enumerate(extents):
        h0, h1 = lo[ax_h], hi[ax_h]
        ring = ring_of.get(index)
        if ring is None:
            v0, v1 = lo[ax_v], hi[ax_v]
            segments += (
                ((h0, v0), (h1, v0)), ((h0, v1), (h1, v1)),
                ((h0, v0), (h0, v1)), ((h1, v0), (h1, v1)),
            )
        elif view == VIEW_TOP:
            corners = list(map(tuple, ring))
            segments += zip(corners, corners[1:] + corners[:1])
        else:
            z0, z1 = lo[2], hi[2]
            segments += (((h0, z0), (h1, z0)), ((h0, z1), (h1, z1)))
            segments += [((corner[ax_h], z0), (corner[ax_h], z1)) for corner in ring]
    return segments


def view_axes(view: str) -> tuple[int, int]:
    try:
        return _VIEW_AXES[view]
    except KeyError:
        raise ValueError(f"unknown view kind {view!r}") from None


#: Rounding (decimal places) used to group segments onto the same carrier line.
_LINE_KEY_DECIMALS = 6


def merge_segments(segments: Iterable[Segment]) -> list[Segment]:
    """Merge collinear segments that overlap or touch (within CLIP_EPS).

    Output endpoints are taken verbatim from the inputs (never recomputed),
    which makes the merge idempotent for segments longer than about 1e-6 mm.
    A carrier line is keyed by direction and offset rounded to 6 decimals, so
    a merged tilted segment shorter than that can get a different key. The
    result is sorted deterministically by carrier line and position along it.

    A horizontal or vertical segment takes its key and positions straight
    from its coordinates: (1, 0, y) along x, or (0, 1, -x) along y, with the
    offset still rounded to 6 decimals. These equal by value the direction,
    offset and projections that any other segment works out with `hypot`.
    """
    eps2 = CLIP_EPS * CLIP_EPS
    groups: dict[tuple, list[tuple[float, float, Point2, Point2]]] = {}
    for p, q in segments:
        if p[1] == q[1]:  # horizontal: direction (1, 0)
            if (p[0] - q[0]) ** 2 <= eps2:
                continue
            if q[0] < p[0]:
                p, q = q, p
            key = (1.0, 0.0, round(p[1], _LINE_KEY_DECIMALS))
            t0, t1 = p[0], q[0]
        elif p[0] == q[0]:  # vertical: direction (0, 1)
            if (p[1] - q[1]) ** 2 <= eps2:
                continue
            if q[1] < p[1]:
                p, q = q, p
            key = (0.0, 1.0, round(-p[0], _LINE_KEY_DECIMALS))
            t0, t1 = p[1], q[1]
        else:
            dx, dy = q[0] - p[0], q[1] - p[1]
            if dx**2 + dy**2 <= eps2:
                continue
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
    by_position = operator.itemgetter(0, 1)
    for key in sorted(groups):
        intervals = sorted(groups[key], key=by_position)
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
