"""Shared test oracles, kept independent of the code paths they check."""

import dataclasses
import itertools
import math
from typing import Iterable

import numpy as np
from hypothesis import strategies as st

from cabinetkit import CabinetModel, OrientedBox, SynthSpec, generate, make_instance
from cabinetkit.drawing import (
    ANNOTATION_COLOR,
    ANNOTATION_STROKE_PX,
    ARROW_PX,
    DEFAULT_CANVAS_PX,
    FONT_PX,
    GEOMETRY_COLOR,
    GEOMETRY_STROKE_PX,
    LAYERS,
    SYMBOL_COLOR,
    SYMBOL_SHELF_CIRCLE,
    DimensionSet,
    PlacedView,
    Sheet,
    SymbolMark,
)
from cabinetkit.geometry import CLIP_EPS, Point2, Segment


def awkward_text(min_size: int = 0, line_breaks: bool = True):
    """Text that must survive emission and parsing unchanged.

    It is drawn from the characters that carry meaning in the YAML subset,
    plus line breaks, or it is a word that would be written plain but for
    its trailing line break. With `line_breaks` False it is only the first
    kind, without line breaks.
    """
    if not line_breaks:
        return st.text(",[]#:'\"\\- \tabM1", min_size=min_size, max_size=10)
    return st.text(",[]#:'\"\\- \n\tabM1", min_size=min_size, max_size=10) | st.from_regex(
        r"[A-Za-z][A-Za-z0-9 .-]{0,8}\n", fullmatch=True
    )


def brute_force_best_total(iou: np.ndarray) -> float:
    """Best total IoU over all assignments, by explicit permutation search."""
    n, m = iou.shape
    if n <= m:
        return max(
            sum(iou[i, perm[i]] for i in range(n))
            for perm in itertools.permutations(range(m), n)
        )
    return max(
        sum(iou[perm[j], j] for j in range(m))
        for perm in itertools.permutations(range(n), m)
    )


def aabb_iou_oracle(a: OrientedBox, b: OrientedBox) -> float:
    """Plain axis-aligned IoU from the box fields (valid for 90-degree grids)."""

    def bounds(box):
        quarter = int(box.rotation_deg // 90.0) % 4
        sx, sy, sz = box.size
        if quarter % 2 == 1:
            sx, sy = sy, sx
        lo = np.array(box.position) - np.array((sx, sy, sz)) / 2.0
        hi = np.array(box.position) + np.array((sx, sy, sz)) / 2.0
        return lo, hi

    lo_a, hi_a = bounds(a)
    lo_b, hi_b = bounds(b)
    overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    if np.any(overlap <= 0):
        return 0.0
    inter = float(np.prod(overlap))
    va = float(np.prod(hi_a - lo_a))
    vb = float(np.prod(hi_b - lo_b))
    return inter / (va + vb - inter)


def box_footprint(box: OrientedBox) -> list[Point2]:
    """CCW xy footprint of the box (4 vertices), corner by corner: the reference."""
    if box.rotation_deg % 90.0 == 0.0:
        quarter = int(box.rotation_deg // 90.0)
        c, s = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[quarter]
    else:
        c, s = math.cos(math.radians(box.rotation_deg)), math.sin(math.radians(box.rotation_deg))
    hx, hy = box.size[0] / 2.0, box.size[1] / 2.0
    px, py = box.position[0], box.position[1]
    return [(px + c * lx - s * ly, py + s * lx + c * ly)
            for lx, ly in ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy))]


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


def clip_iou(a: OrientedBox, b: OrientedBox) -> float:
    """IoU as footprint clipping times z overlap, pair by pair, with no prefilter.

    This is the rule `pairwise_iou` applies, all pairs at once, to pairs with
    a box that is not at a right angle: the reference for its array clipper
    and its prefilter.
    """
    foot_a, foot_b = box_footprint(a), box_footprint(b)
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


def domain_corner_boxes() -> list[OrientedBox]:
    """Boxes at the corners of the box domain, and boxes within CLIP_EPS of a tilted one.

    Positions reach +-1e6 mm and sizes 0.1 and 1e6 mm, turned 0.5 or 45
    degrees, by quarter turns or by +-1e-12 degrees.
    """
    boxes = [
        OrientedBox((0, 1e6, 500), (100, 100, 100), 0.5),
        OrientedBox((0, -1e6, 500), (100, 100, 100), 0.5),
        OrientedBox((0, 0, 0), (10, 10, 10)),
        OrientedBox((0, 0, 0), (2155, 1e6, 2131), 296),
        OrientedBox((100, 50, 0), (600, 18, 1000)),
        OrientedBox((0, 0, 0), (1e6, 0.1, 0.1), 45),
        OrientedBox((0, 0, 0), (1e6, 0.1, 0.1), 90),
        OrientedBox((1e6, -1e6, 1e6), (1e6, 1e6, 1e6), 270),
        OrientedBox((-1e6, -1e6, -1e6), (1e6, 1e6, 0.1), 45),
        OrientedBox((1e6, 1e6, 1e6), (0.1, 0.1, 0.1), 0.5),
        OrientedBox((1e6, 1e6, 1e6), (0.1, 0.2, 0.3), 90),
        OrientedBox((0, 0, 0), (0.1, 0.1, 0.1), 1e-12),
        OrientedBox((0, 0, 0), (0.1, 0.1, 0.1), -1e-12),
        OrientedBox((0.05, 0, 0), (0.1, 0.1, 0.1)),
    ]
    anchor = OrientedBox((1000, 1000, 1000), (300, 200, 100), 7.5)
    c, s = math.cos(math.radians(7.5)), math.sin(math.radians(7.5))
    for gap in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9):
        d = 250 + gap
        boxes.append(OrientedBox((1000 + c * d, 1000 + s * d, 1000), (200, 200, 100), 7.5))
        boxes.append(OrientedBox((1000 - s * d, 1000 + c * d, 1000), (300, 300, 100), 7.5 + gap))
        boxes.append(OrientedBox((1000, 1000, 1100 + gap), (300, 200, 100), 7.5))
    return boxes + [anchor, OrientedBox(anchor.position, anchor.size, 7.5 + 1e-12)]


def box_corners(box: OrientedBox) -> np.ndarray:
    """The 8 world-frame corners, shape (8, 3): the bottom footprint, then the top."""
    z0, z1 = box.z_interval
    return np.array([(x, y, z) for z in (z0, z1) for x, y in box_footprint(box)])


_BOX_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),  # bottom ring
    (4, 5), (5, 6), (6, 7), (7, 4),  # top ring
    (0, 4), (1, 5), (2, 6), (3, 7),  # verticals
)


#: World axis indices (horizontal, vertical) of each view's drawing plane.
_VIEW_AXES = {"front": (0, 2), "top": (0, 1), "side": (1, 2), "section": (0, 2)}


def project_box_oracle(box: OrientedBox, view: str):
    """One box's merged wireframe, by projecting all 12 box edges: the reference."""
    ax_h, ax_v = _VIEW_AXES[view]
    corners = box_corners(box)
    segments = []
    for i, j in _BOX_EDGES:
        p = (float(corners[i][ax_h]), float(corners[i][ax_v]))
        q = (float(corners[j][ax_h]), float(corners[j][ax_v]))
        if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 > CLIP_EPS * CLIP_EPS:
            segments.append((p, q))
    return merge_segments_oracle(segments)


def _dist2(p: Point2, q: Point2) -> float:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


#: Rounding (decimal places) used to group segments onto the same carrier line.
_LINE_KEY_DECIMALS = 6


def merge_segments_oracle(segments: Iterable[Segment]) -> list[Segment]:
    """Merge collinear segments that overlap or touch (within CLIP_EPS): the reference.

    Every segment works out its direction and carrier line with `hypot`.

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


def random_box(rng, *, lo=50.0, hi=2000.0, min_size=30.0, max_size=800.0,
               rotations=(0.0,)) -> OrientedBox:
    position = tuple(rng.uniform(lo, hi, 3))
    size = tuple(rng.uniform(min_size, max_size, 3))
    rotation = float(rng.choice(rotations))
    return OrientedBox(position, size, rotation)


def random_box_model(rng, catalog, n, **kwargs) -> CabinetModel:
    ids = list(catalog.model_ids)
    instances = tuple(
        make_instance(catalog, str(rng.choice(ids)), random_box(rng, **kwargs))
        for _ in range(n)
    )
    return CabinetModel(instances)


def tilted(model: CabinetModel, seed: int) -> CabinetModel:
    """`model` with every box turned about z by 1 to 12 degrees either way."""
    rng = np.random.default_rng([seed, 1])
    instances = []
    for inst in model.instances:
        angle = rng.uniform(1.0, 12.0) * (1.0 if rng.random() < 0.5 else -1.0)
        box = OrientedBox(inst.box.position, inst.box.size, inst.box.rotation_deg + angle)
        instances.append(dataclasses.replace(inst, box=box))
    return CabinetModel(tuple(instances))


def synthesized_models(catalog, seed: int) -> list[CabinetModel]:
    """A default-spec and a 40-48-box model for `seed`, each also tilted."""
    models = []
    for spec in (SynthSpec(seed=seed), SynthSpec(seed=seed, count_range=(40, 48))):
        model = generate(spec, catalog)
        models += [model, tilted(model, seed)]
    return models


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    if text[-1] != "0":
        return text
    text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def to_svg_oracle(sheet: Sheet, layers: frozenset[str] = LAYERS) -> str:
    """The former `drawing.to_svg`, formatting every number where it is used: the reference."""
    if not LAYERS.issuperset(layers):
        raise ValueError(f"unknown layers: {', '.join(sorted(set(layers) - LAYERS))}")
    c = DEFAULT_CANVAS_PX
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{c}" height="{c}" '
        f'viewBox="0 0 {c} {c}">',
    ]
    if "geometry" in layers:
        lines.append(
            f'<g id="geometry" fill="none" stroke="{GEOMETRY_COLOR}" '
            f'stroke-width="{_fmt(GEOMETRY_STROKE_PX)}">'
        )
        scale = sheet.scale
        for placed in sheet.views:
            dx, dy = placed.dx, placed.dy
            for p, q in placed.view.segments:  # `Sheet.to_px`, inlined
                lines.append(
                    f'<line x1="{_fmt(scale * p[0] + dx)}" y1="{_fmt(dy - scale * p[1])}" '
                    f'x2="{_fmt(scale * q[0] + dx)}" y2="{_fmt(dy - scale * q[1])}"/>'
                )
        lines.append("</g>")
    if "annotation" in layers:
        lines.append(
            f'<g id="annotation" fill="none" stroke="{ANNOTATION_COLOR}" '
            f'stroke-width="{_fmt(ANNOTATION_STROKE_PX)}" '
            f'font-size="{_fmt(FONT_PX)}">'
        )
        for placed in sheet.views:
            for ann in placed.view.annotations:
                if isinstance(ann, DimensionSet):
                    lines.extend(_svg_dimension(sheet, placed, ann))
                else:
                    lines.extend(_svg_symbol(sheet, placed, ann))
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _svg_line(a: tuple[str, str], b: tuple[str, str]) -> str:
    """A line between two points given as formatted (x, y) text."""
    return f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}"/>'


def _svg_dimension(sheet: Sheet, placed: PlacedView, dim: DimensionSet):
    line_a, line_b = _line_points(dim)
    start_x, start_y = sheet.to_px(placed, dim.start)
    end_x, end_y = sheet.to_px(placed, dim.end)
    a_px = sheet.to_px(placed, line_a)
    b_px = sheet.to_px(placed, line_b)
    # Each point is formatted once, though lines and arrows share them.
    start = (_fmt(start_x), _fmt(start_y))
    end = (_fmt(end_x), _fmt(end_y))
    a = (_fmt(a_px[0]), _fmt(a_px[1]))
    b = (_fmt(b_px[0]), _fmt(b_px[1]))
    out = [
        _svg_line(start, a),
        _svg_line(end, b),
        _svg_line(a, b),
        _svg_arrow(a_px, b_px, a),
        _svg_arrow(b_px, a_px, b),
    ]
    mid_x = (a_px[0] + b_px[0]) / 2.0
    mid_y = (a_px[1] + b_px[1]) / 2.0
    # Nudge the label off the dimension line, against the px-space normal.
    ux, uy = _unit(a_px, b_px)
    tx = mid_x + uy * (FONT_PX * 0.45)
    ty = mid_y - ux * (FONT_PX * 0.45) if ux != 0 else mid_y - FONT_PX * 0.35
    out.append(
        f'<text x="{_fmt(tx)}" y="{_fmt(ty)}" text-anchor="middle" '
        f'stroke="none" fill="{ANNOTATION_COLOR}">{dim.label}</text>'
    )
    return out


def _svg_arrow(tip: Point2, other: Point2, tip_text: tuple[str, str]) -> str:
    """Filled arrowhead at `tip` (formatted as `tip_text`), pointing away from `other`."""
    ux, uy = _unit(other, tip)
    bx = tip[0] - ux * ARROW_PX
    by = tip[1] - uy * ARROW_PX
    half = ARROW_PX * 0.3
    p1 = (bx - uy * half, by + ux * half)
    p2 = (bx + uy * half, by - ux * half)
    return (
        f'<path d="M {tip_text[0]} {tip_text[1]} L {_fmt(p1[0])} {_fmt(p1[1])} '
        f'L {_fmt(p2[0])} {_fmt(p2[1])} Z" fill="{ANNOTATION_COLOR}" stroke="none"/>'
    )


def _svg_symbol(sheet: Sheet, placed: PlacedView, mark: SymbolMark):
    cx, cy = sheet.to_px(placed, mark.anchor)
    if mark.kind == SYMBOL_SHELF_CIRCLE:
        radius = sheet.scale * mark.width / 2.0
        return [
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
            f'stroke="{SYMBOL_COLOR}"/>'
        ]
    # Door opening triangle: hinge edge on the left, apex at mid right.
    w = sheet.scale * mark.width / 2.0
    h = sheet.scale * mark.height / 2.0
    return [
        f'<path d="M {_fmt(cx - w)} {_fmt(cy - h)} L {_fmt(cx - w)} {_fmt(cy + h)} '
        f'L {_fmt(cx + w)} {_fmt(cy)} Z" stroke="{SYMBOL_COLOR}"/>'
    ]


def _line_points(dim: DimensionSet) -> tuple[Point2, Point2]:
    """The former `DimensionSet.line_points`: the span shifted by the offset."""
    ux, uy = _unit(dim.start, dim.end)
    px, py = -uy * dim.offset, ux * dim.offset
    return (
        (dim.start[0] + px, dim.start[1] + py),
        (dim.end[0] + px, dim.end[1] + py),
    )


def _unit(start: Point2, end: Point2) -> Point2:
    dx, dy = end[0] - start[0], end[1] - start[1]
    norm = math.hypot(dx, dy)
    return (dx / norm, dy / norm)
