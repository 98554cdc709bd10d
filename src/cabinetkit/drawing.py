"""Engineering-drawing synthesis: views, annotations, layout, SVG.

A drawing is built in stages, each a pure function:

1. ``render_views`` projects every instance box into the requested
   orthographic views (wireframe, no hidden-line removal) and merges
   collinear overlapping segments — the *geometry layer*.
2. ``annotate`` adds the *annotation layer*: overall and per-instance
   dimension sets plus functional symbols (a circle for adjustable
   shelves, a triangle for doors and their opening direction).
3. ``inject_noise`` optionally degrades the geometry layer (segment
   drops, endpoint jitter, spurious strokes), deterministically per seed.
4. ``layout_sheet`` places the views on the fixed 512 x 512 px canvas
   with one uniform scale: the canonical three-view set
   puts top at the top left, front at the bottom left, and side at the
   bottom right; other view counts fall back to a row-major grid.
5. ``to_svg`` serializes with ``geometry`` and ``annotation`` as separate
   named groups so either layer can be toggled independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from . import geometry
from .catalog import PrimitiveCatalog
from .geometry import Point2, Segment
from .program import CabinetModel

DEFAULT_CANVAS_PX = 512
MARGIN_PX = 22.0
VIEW_GAP_PX = 26.0

# Instance spans at least this long are dimensioned. Dimension lines sit
# DIM_OFFSET_MM outside the view's geometry, stacked DIM_SPACING_MM apart.
MIN_EXTENT_MM = 100.0
DIM_OFFSET_MM = 60.0
DIM_SPACING_MM = 45.0

ROLE_ADJUSTABLE_SHELF = "adjustable_shelf"
ROLE_DOOR = "door"

SYMBOL_SHELF_CIRCLE = "adjustable_shelf_circle"
SYMBOL_DOOR_TRIANGLE = "door_opening_triangle"

LAYERS = frozenset({"geometry", "annotation"})

# The one drawing style; sizes in px.
GEOMETRY_STROKE_PX = 1.0
ANNOTATION_STROKE_PX = 0.75
ARROW_PX = 6.0
FONT_PX = 10.0
GEOMETRY_COLOR = "#000000"
ANNOTATION_COLOR = "#333333"
SYMBOL_COLOR = "#d40000"


@dataclass(frozen=True)
class DimensionSet:
    """A measured span with extension lines; its label is the span in whole mm.

    The span must be finite and nonzero, the offset finite, and the line
    points the offset moves the span to finite; anything else raises
    ValueError naming the fields and the values.
    """

    start: Point2
    end: Point2
    offset: float  # signed perpendicular offset of the dimension line, mm
    _line: tuple[Point2, Point2] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (x0, y0), (x1, y1) = self.start, self.end
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        # Chained comparisons are false for NaN, so they reject it with inf.
        # The span is finite only if both ends are.
        if not 0.0 < length < math.inf:
            raise ValueError(
                f"start and end must be finite and apart, got {self.start!r} and {self.end!r}"
            )
        offset = self.offset
        if not -math.inf < offset < math.inf:
            raise ValueError(f"offset must be finite, got {offset!r}")
        # The span turned a quarter and scaled by the offset (`_unit`'s arithmetic).
        px, py = -(dy / length) * offset, (dx / length) * offset
        line = (ax, ay), (bx, by) = (x0 + px, y0 + py), (x1 + px, y1 + py)
        if not (
            -math.inf < ax < math.inf and -math.inf < ay < math.inf
            and -math.inf < bx < math.inf and -math.inf < by < math.inf
        ):
            raise ValueError(
                f"offset {offset!r} moves start {self.start!r} and end {self.end!r} "
                f"out of the float range, to {line!r}"
            )
        object.__setattr__(self, "_line", line)

    @property
    def length(self) -> float:
        return math.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1])

    @property
    def label(self) -> str:
        return str(int(round(self.length)))

    def line_points(self) -> tuple[Point2, Point2]:
        """Endpoints of the dimension line (span shifted by the offset), worked out once."""
        return self._line


def _unit(start: Point2, end: Point2) -> Point2:
    dx, dy = end[0] - start[0], end[1] - start[1]
    norm = math.hypot(dx, dy)
    return (dx / norm, dy / norm)


@dataclass(frozen=True)
class SymbolMark:
    """A functional symbol anchored in view coordinates.

    The anchor must be finite and the width and height finite and positive;
    anything else raises ValueError naming the field and the value.
    """

    kind: str
    anchor: Point2
    width: float = 60.0
    height: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in (SYMBOL_SHELF_CIRCLE, SYMBOL_DOOR_TRIANGLE):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        # Chained comparisons are false for NaN, so they reject it with inf.
        ax, ay = self.anchor
        if not (-math.inf < ax < math.inf and -math.inf < ay < math.inf):
            raise ValueError(f"anchor must be finite, got {self.anchor!r}")
        if not 0.0 < self.width < math.inf:
            raise ValueError(f"width must be finite and positive, got {self.width!r}")
        if not 0.0 < self.height < math.inf:
            raise ValueError(f"height must be finite and positive, got {self.height!r}")


Annotation = DimensionSet | SymbolMark


@dataclass
class ViewDrawing:
    """One orthographic view: geometry segments plus annotations (mm).

    `drawn` lists the indices of the model instances whose boxes the view
    draws; `annotate` dimensions and marks only those.
    """

    kind: str
    segments: list[Segment] = field(default_factory=list)
    annotations: list[Annotation] = field(default_factory=list)
    drawn: tuple[int, ...] = ()


def render_views(model: CabinetModel, views: list[str]) -> list[ViewDrawing]:
    """Draw each requested view: its boxes' wireframes, merged once.

    A right-angle box draws as the rectangle of its extent in the view's
    plane, a tilted one from its footprint (`geometry.project_boxes`).
    Exact duplicate segments are dropped before the merge; the merge keeps
    the first of equal intervals and no later one extends it, so the
    drawing is the same.

    A ``section`` view draws, front-style, only the instances whose box
    reaches behind the cut plane at the model's mid depth, that is whose
    largest world y is greater than the midpoint of the model's y extent.
    """
    boxes = [instance.box for instance in model.instances]
    out: list[ViewDrawing] = []
    for kind in views:
        drawn = tuple(range(len(boxes)))
        if kind == geometry.VIEW_SECTION:
            extents = geometry.box_extents(boxes)
            cut = (min(lo[1] for lo, _ in extents) + max(hi[1] for _, hi in extents)) / 2.0
            drawn = tuple(i for i, (_, hi) in enumerate(extents) if hi[1] > cut)
        segments = geometry.project_boxes([boxes[i] for i in drawn], kind)
        # Exact duplicates, the edges that neighbouring boxes share (8% of
        # default-spec segments in `front`, 32% in `top`, 40% in `side`), add
        # nothing to the merge.
        segments = dict.fromkeys(segments)
        out.append(ViewDrawing(kind, geometry.merge_segments(segments), drawn=drawn))
    return out


def annotate(
    views: list[ViewDrawing], model: CabinetModel, catalog: PrimitiveCatalog
) -> list[ViewDrawing]:
    """Add dimension sets and functional symbols to rendered views.

    Each view gets its overall width and height, the spans of the instances
    it draws that are at least MIN_EXTENT_MM long, and, in front and
    section views, a symbol for each drawn shelf or door.
    """
    extents = geometry.box_extents([instance.box for instance in model.instances])
    out: list[ViewDrawing] = []
    for view in views:
        # Each drawn instance's (h0, v0, h1, v1) extent in this view's plane.
        ax_h, ax_v = geometry.view_axes(view.kind)
        rects = [
            (lo[ax_h], lo[ax_v], hi[ax_h], hi[ax_v]) for lo, hi in (extents[i] for i in view.drawn)
        ]
        annotations = list(view.annotations)
        bbox = _segments_bbox(view.segments)
        if bbox is not None:
            h0, v0, h1, v1 = bbox
            if h1 > h0:
                annotations.append(DimensionSet((h0, v0), (h1, v0), -DIM_OFFSET_MM))
            if v1 > v0:
                annotations.append(DimensionSet((h0, v0), (h0, v1), DIM_OFFSET_MM))
            annotations.extend(_instance_dims(rects, bbox))
        if view.kind in (geometry.VIEW_FRONT, geometry.VIEW_SECTION):
            instances = [model.instances[i] for i in view.drawn]
            annotations.extend(_symbols(instances, rects, catalog))
        out.append(ViewDrawing(view.kind, list(view.segments), annotations, view.drawn))
    return out


def _instance_dims(rects, view_bbox) -> list[DimensionSet]:
    """Dimension salient instance spans: widths above, heights to the right."""
    _, _, view_h1, view_v1 = view_bbox
    dims: list[DimensionSet] = []
    seen_h: set[tuple[int, int]] = set()
    seen_v: set[tuple[int, int]] = set()
    h_stack = 0
    v_stack = 0
    for h0, v0, h1, v1 in rects:
        if h1 - h0 >= MIN_EXTENT_MM:
            key = (round(h0), round(h1))
            if key not in seen_h:
                seen_h.add(key)
                offset = (view_v1 - v1) + DIM_OFFSET_MM + h_stack * DIM_SPACING_MM
                dims.append(DimensionSet((h0, v1), (h1, v1), offset))
                h_stack += 1
        if v1 - v0 >= MIN_EXTENT_MM:
            key = (round(v0), round(v1))
            if key not in seen_v:
                seen_v.add(key)
                offset = (view_h1 - h1) + DIM_OFFSET_MM + v_stack * DIM_SPACING_MM
                dims.append(DimensionSet((h1, v0), (h1, v1), -offset))
                v_stack += 1
    return dims


def _symbols(instances, rects, catalog: PrimitiveCatalog) -> list[SymbolMark]:
    marks: list[SymbolMark] = []
    for instance, (h0, v0, h1, v1) in zip(instances, rects):
        schema = catalog.get(instance.model_id)
        if schema is None or schema.role is None:
            continue
        anchor = ((h0 + h1) / 2.0, (v0 + v1) / 2.0)
        if schema.role == ROLE_ADJUSTABLE_SHELF:
            marks.append(SymbolMark(SYMBOL_SHELF_CIRCLE, anchor))
        elif schema.role == ROLE_DOOR:
            marks.append(
                SymbolMark(SYMBOL_DOOR_TRIANGLE, anchor, width=h1 - h0, height=v1 - v0)
            )
    return marks


@dataclass(frozen=True)
class NoiseSpec:
    """Degradation rates; the defaults are placeholders, not reported values."""

    p_drop: float = 0.05
    jitter_sigma: float = 2.0
    p_spurious: float = 0.02

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_spurious"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if not 0.0 <= self.jitter_sigma <= geometry.MAX_MM:
            raise ValueError(
                f"jitter_sigma must lie in [0, {geometry.MAX_MM:g}] mm, got {self.jitter_sigma!r}"
            )


def inject_noise(views: list[ViewDrawing], spec: NoiseSpec, seed: int) -> list[ViewDrawing]:
    """Deterministically degrade the geometry layer; annotations untouched.

    Each kept segment's endpoints move by one row of normal jitter, taken as
    Python floats, so the noisy geometry stays Python floats.
    """
    if seed < 0:
        raise ValueError(f"noise seed must be non-negative, got {seed!r}")
    rng = np.random.default_rng(seed)
    out: list[ViewDrawing] = []
    for view in views:
        segments: list[Segment] = []
        for p, q in view.segments:
            if rng.random() < spec.p_drop:
                continue
            if spec.jitter_sigma > 0:
                jx0, jy0, jx1, jy1 = rng.normal(0.0, spec.jitter_sigma, size=4).tolist()
                p = (p[0] + jx0, p[1] + jy0)
                q = (q[0] + jx1, q[1] + jy1)
            segments.append((p, q))
        if spec.p_spurious > 0 and view.segments:
            bbox = _segments_bbox(view.segments)
            count = int(rng.binomial(len(view.segments), spec.p_spurious))
            for _ in range(count):
                segments.append(_spurious_segment(rng, bbox))
        out.append(ViewDrawing(view.kind, segments, list(view.annotations), view.drawn))
    return out


def _spurious_segment(rng, bbox) -> Segment:
    h0, v0, h1, v1 = bbox
    x = rng.uniform(h0, h1)
    y = rng.uniform(v0, v1)
    length = rng.uniform(5.0, 30.0)
    angle = rng.uniform(0.0, 2 * math.pi)
    return ((x, y), (x + length * math.cos(angle), y + length * math.sin(angle)))


@dataclass(frozen=True)
class PlacedView:
    """A view with its affine placement: px = scale*h + dx, py = dy - scale*v."""

    view: ViewDrawing
    dx: float
    dy: float


@dataclass(frozen=True)
class Sheet:
    """Placed views on the DEFAULT_CANVAS_PX square; `scale` is px per mm."""

    scale: float
    views: tuple[PlacedView, ...]

    def to_px(self, placed: PlacedView, point: Point2) -> Point2:
        return (self.scale * point[0] + placed.dx, placed.dy - self.scale * point[1])


def _segments_bbox(segments) -> tuple[float, float, float, float] | None:
    if not segments:
        return None
    hs, vs = zip(*chain.from_iterable(segments))
    return min(hs), min(vs), max(hs), max(vs)


def _view_extent(view: ViewDrawing) -> tuple[float, float, float, float]:
    """Bounding box of geometry plus annotation construction points (mm)."""
    points: list[Point2] = list(chain.from_iterable(view.segments))
    for ann in view.annotations:
        if isinstance(ann, DimensionSet):
            a, b = ann.line_points()
            points.extend((ann.start, ann.end, a, b))
        else:
            ax, ay = ann.anchor
            points.append((ax - ann.width / 2, ay - ann.height / 2))
            points.append((ax + ann.width / 2, ay + ann.height / 2))
    if not points:
        return 0.0, 0.0, 1.0, 1.0
    hs, vs = zip(*points)
    return min(hs), min(vs), max(hs), max(vs)


def layout_sheet(views: list[ViewDrawing]) -> Sheet:
    """Place 1-5 views on the canvas with one shared scale.

    The canonical {front, top, side} set follows the third-angle layout
    (top above front, side right of front, aligned). Any other combination
    uses a row-major grid of uniform cells.
    """
    if not 1 <= len(views) <= 5:
        raise ValueError("a sheet holds between 1 and 5 views")
    kinds = [v.kind for v in views]
    if sorted(kinds) == ["front", "side", "top"]:
        return _layout_canonical(views)
    return _layout_grid(views)


def _room(gaps: int) -> float:
    """Pixels the views share along one side of the canvas, between `gaps` gaps."""
    return DEFAULT_CANVAS_PX - 2 * MARGIN_PX - gaps * VIEW_GAP_PX


def _layout_canonical(views) -> Sheet:
    by_kind = {v.kind: v for v in views}
    front = _view_extent(by_kind["front"])
    top = _view_extent(by_kind["top"])
    side = _view_extent(by_kind["side"])

    # Column 1 (front under top) shares the x axis; row heights: the top
    # view's depth above, front/side height below.
    col1_h0 = min(front[0], top[0])
    col1_h1 = max(front[2], top[2])
    col2_w = side[2] - side[0]
    row_top_v0, row_top_v1 = top[1], top[3]
    row_bot_v0 = min(front[1], side[1])
    row_bot_v1 = max(front[3], side[3])

    total_w = (col1_h1 - col1_h0) + col2_w
    total_h = (row_top_v1 - row_top_v0) + (row_bot_v1 - row_bot_v0)
    avail = _room(1)
    scale = min(avail / total_w, avail / total_h)

    origin_x = (DEFAULT_CANVAS_PX - (scale * total_w + VIEW_GAP_PX)) / 2.0
    origin_y = (DEFAULT_CANVAS_PX - (scale * total_h + VIEW_GAP_PX)) / 2.0
    col1_x = origin_x
    col2_x = origin_x + scale * (col1_h1 - col1_h0) + VIEW_GAP_PX
    row_top_base = origin_y + scale * (row_top_v1 - row_top_v0)  # py of v = row_top_v0
    row_bot_base = row_top_base + VIEW_GAP_PX + scale * (row_bot_v1 - row_bot_v0)

    placed = []
    for view in views:  # preserve caller order
        if view.kind == "top":
            placed.append(
                PlacedView(view, col1_x - scale * col1_h0, row_top_base + scale * row_top_v0)
            )
        elif view.kind == "front":
            placed.append(
                PlacedView(view, col1_x - scale * col1_h0, row_bot_base + scale * row_bot_v0)
            )
        else:
            placed.append(
                PlacedView(view, col2_x - scale * side[0], row_bot_base + scale * row_bot_v0)
            )
    return Sheet(scale=scale, views=tuple(placed))


_GRID_SHAPES = {1: (1, 1), 2: (1, 2), 3: (1, 3), 4: (2, 2), 5: (2, 3)}


def _layout_grid(views) -> Sheet:
    rows, cols = _GRID_SHAPES[len(views)]
    extents = [_view_extent(v) for v in views]
    cell_w = max(e[2] - e[0] for e in extents)
    cell_h = max(e[3] - e[1] for e in extents)
    avail_w = _room(cols - 1)
    avail_h = _room(rows - 1)
    scale = min(avail_w / (cols * cell_w), avail_h / (rows * cell_h))
    used_w = cols * scale * cell_w + (cols - 1) * VIEW_GAP_PX
    used_h = rows * scale * cell_h + (rows - 1) * VIEW_GAP_PX
    origin_x = (DEFAULT_CANVAS_PX - used_w) / 2.0
    origin_y = (DEFAULT_CANVAS_PX - used_h) / 2.0

    placed = []
    for index, (view, extent) in enumerate(zip(views, extents)):
        row, col = divmod(index, cols)
        cell_x = origin_x + col * (scale * cell_w + VIEW_GAP_PX)
        cell_y = origin_y + row * (scale * cell_h + VIEW_GAP_PX)
        # center the view inside its cell
        w = extent[2] - extent[0]
        h = extent[3] - extent[1]
        pad_x = (cell_w - w) * scale / 2.0
        pad_y = (cell_h - h) * scale / 2.0
        dx = cell_x + pad_x - scale * extent[0]
        dy = cell_y + pad_y + scale * extent[3]
        placed.append(PlacedView(view, dx, dy))
    return Sheet(scale=scale, views=tuple(placed))


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    if text[-1] != "0":
        return text
    text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def to_svg(sheet: Sheet, layers: frozenset[str] = LAYERS) -> str:
    """Deterministic SVG holding the named groups in `layers`, a subset of LAYERS.

    The annotation layer formats each distinct number once per call: about
    70% of its numbers repeat one before them. The geometry layer formats
    each number as it comes, since jittered endpoints rarely repeat.
    """
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
        texts: dict[float, str] = {}

        def fmt(value: float) -> str:
            text = texts.get(value)
            if text is None:
                text = texts[value] = _fmt(value)
            return text

        lines.append(
            f'<g id="annotation" fill="none" stroke="{ANNOTATION_COLOR}" '
            f'stroke-width="{fmt(ANNOTATION_STROKE_PX)}" '
            f'font-size="{fmt(FONT_PX)}">'
        )
        for placed in sheet.views:
            for ann in placed.view.annotations:
                if isinstance(ann, DimensionSet):
                    lines.extend(_svg_dimension(sheet, placed, ann, fmt))
                else:
                    lines.extend(_svg_symbol(sheet, placed, ann, fmt))
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _svg_line(a: tuple[str, str], b: tuple[str, str]) -> str:
    """A line between two points given as formatted (x, y) text."""
    return f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}"/>'


def _svg_dimension(
    sheet: Sheet, placed: PlacedView, dim: DimensionSet, fmt: Callable[[float], str]
) -> list[str]:
    line_a, line_b = dim.line_points()
    start_x, start_y = sheet.to_px(placed, dim.start)
    end_x, end_y = sheet.to_px(placed, dim.end)
    a_px = sheet.to_px(placed, line_a)
    b_px = sheet.to_px(placed, line_b)
    # Each point is formatted once, though lines and arrows share them.
    start = (fmt(start_x), fmt(start_y))
    end = (fmt(end_x), fmt(end_y))
    a = (fmt(a_px[0]), fmt(a_px[1]))
    b = (fmt(b_px[0]), fmt(b_px[1]))
    out = [
        _svg_line(start, a),
        _svg_line(end, b),
        _svg_line(a, b),
        _svg_arrow(a_px, b_px, a, fmt),
        _svg_arrow(b_px, a_px, b, fmt),
    ]
    mid_x = (a_px[0] + b_px[0]) / 2.0
    mid_y = (a_px[1] + b_px[1]) / 2.0
    # Nudge the label off the dimension line, against the px-space normal.
    ux, uy = _unit(a_px, b_px)
    tx = mid_x + uy * (FONT_PX * 0.45)
    ty = mid_y - ux * (FONT_PX * 0.45) if ux != 0 else mid_y - FONT_PX * 0.35
    out.append(
        f'<text x="{fmt(tx)}" y="{fmt(ty)}" text-anchor="middle" '
        f'stroke="none" fill="{ANNOTATION_COLOR}">{dim.label}</text>'
    )
    return out


def _svg_arrow(
    tip: Point2, other: Point2, tip_text: tuple[str, str], fmt: Callable[[float], str]
) -> str:
    """Filled arrowhead at `tip` (formatted as `tip_text`), pointing away from `other`."""
    ux, uy = _unit(other, tip)
    bx = tip[0] - ux * ARROW_PX
    by = tip[1] - uy * ARROW_PX
    half = ARROW_PX * 0.3
    p1 = (bx - uy * half, by + ux * half)
    p2 = (bx + uy * half, by - ux * half)
    return (
        f'<path d="M {tip_text[0]} {tip_text[1]} L {fmt(p1[0])} {fmt(p1[1])} '
        f'L {fmt(p2[0])} {fmt(p2[1])} Z" fill="{ANNOTATION_COLOR}" stroke="none"/>'
    )


def _svg_symbol(
    sheet: Sheet, placed: PlacedView, mark: SymbolMark, fmt: Callable[[float], str]
) -> list[str]:
    cx, cy = sheet.to_px(placed, mark.anchor)
    if mark.kind == SYMBOL_SHELF_CIRCLE:
        radius = sheet.scale * mark.width / 2.0
        return [
            f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(radius)}" '
            f'stroke="{SYMBOL_COLOR}"/>'
        ]
    # Door opening triangle: hinge edge on the left, apex at mid right.
    w = sheet.scale * mark.width / 2.0
    h = sheet.scale * mark.height / 2.0
    return [
        f'<path d="M {fmt(cx - w)} {fmt(cy - h)} L {fmt(cx - w)} {fmt(cy + h)} '
        f'L {fmt(cx + w)} {fmt(cy)} Z" stroke="{SYMBOL_COLOR}"/>'
    ]
