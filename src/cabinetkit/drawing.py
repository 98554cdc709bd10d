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
   as a table with one uniform scale, aligning views on the world axes
   they share: the canonical three-view set puts top at the top left,
   front at the bottom left, and side at the bottom right; any other set
   fills a row-major grid. Each column spans its views' horizontal
   extents and each row their vertical ones.
5. ``to_svg`` serializes with ``geometry`` and ``annotation`` as separate
   named groups so either layer can be toggled independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress
from operator import add

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
        # The span's unit vector turned a quarter and scaled by the offset.
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
    it draws that are at least MIN_EXTENT_MM long and not already
    dimensioned, and, in front and section views, a symbol for each drawn
    shelf or door. Spans and symbols are taken in a canonical order, sorted
    by the instance's rect in the view and then by symbol kind, so the
    annotations do not depend on the order of the model's instances.
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
            annotations.extend(_instance_dims(sorted(rects), bbox))
        if view.kind in (geometry.VIEW_FRONT, geometry.VIEW_SECTION):
            instances = [model.instances[i] for i in view.drawn]
            annotations.extend(_symbols(instances, rects, catalog))
        out.append(ViewDrawing(view.kind, list(view.segments), annotations, view.drawn))
    return out


def _instance_dims(rects, view_bbox) -> list[DimensionSet]:
    """Dimension salient instance spans: widths above, heights to the right.

    A span is dimensioned once: one whose ends round to the same whole mm
    as the overall span or an earlier instance span is skipped.
    """
    view_h0, view_v0, view_h1, view_v1 = view_bbox
    dims: list[DimensionSet] = []
    seen_h = {(round(view_h0), round(view_h1))}
    seen_v = {(round(view_v0), round(view_v1))}
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
    """A symbol per shelf or door with a role, sorted by its rect and then its kind."""
    marks: list[tuple[tuple[float, float, float, float], str]] = []
    for instance, rect in zip(instances, rects):
        schema = catalog.get(instance.model_id)
        if schema is None:
            continue
        if schema.role == ROLE_ADJUSTABLE_SHELF:
            marks.append((rect, SYMBOL_SHELF_CIRCLE))
        elif schema.role == ROLE_DOOR:
            marks.append((rect, SYMBOL_DOOR_TRIANGLE))
    out: list[SymbolMark] = []
    for (h0, v0, h1, v1), kind in sorted(marks):
        anchor = ((h0 + h1) / 2.0, (v0 + v1) / 2.0)
        if kind == SYMBOL_SHELF_CIRCLE:
            out.append(SymbolMark(kind, anchor))
        else:
            out.append(SymbolMark(kind, anchor, width=h1 - h0, height=v1 - v0))
    return out


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

    The noise comes from four draws per call, each skipped when its rate or
    sigma is 0, in this order: one row of normal endpoint jitter per segment
    of all views, in view order, so a segment's jitter depends only on the
    seed, the sigma and its place; one uniform per segment, which drops it
    below `p_drop`; one binomial count of spurious strokes per view; and one
    row of four uniforms per stroke. The noisy geometry stays Python floats.
    """
    if seed < 0:
        raise ValueError(f"noise seed must be non-negative, got {seed!r}")
    rng = np.random.default_rng(seed)
    sizes = [len(view.segments) for view in views]
    total = sum(sizes)
    segments = list(chain.from_iterable(view.segments for view in views))
    if spec.jitter_sigma > 0:
        jitter = rng.normal(0.0, spec.jitter_sigma, size=(total, 4)).tolist()
        segments = [
            ((p[0] + jx0, p[1] + jy0), (q[0] + jx1, q[1] + jy1))
            for (p, q), (jx0, jy0, jx1, jy1) in zip(segments, jitter)
        ]
    keep = None
    if spec.p_drop > 0:
        keep = (rng.random(total) >= spec.p_drop).tolist()
    counts, strokes = [0] * len(views), iter(())
    if spec.p_spurious > 0:
        counts = rng.binomial(sizes, spec.p_spurious).tolist()
        strokes = iter(rng.random((sum(counts), 4)).tolist())
    out: list[ViewDrawing] = []
    end = 0
    for view, size, count in zip(views, sizes, counts):
        start, end = end, end + size
        kept = segments[start:end]
        if keep is not None:
            kept = list(compress(kept, keep[start:end]))
        if count:
            bbox = _segments_bbox(view.segments)
            kept += [_spurious_segment(bbox, *next(strokes)) for _ in range(count)]
        out.append(ViewDrawing(view.kind, kept, list(view.annotations), view.drawn))
    return out


def _spurious_segment(bbox, u_h: float, u_v: float, u_length: float, u_angle: float) -> Segment:
    """A stroke 5-30 mm long at any angle, placed by uniforms in [0, 1).

    It lies inside `bbox` along each axis that is at least as long as the
    stroke's extent there, and spans the bbox along the others.
    """
    h0, v0, h1, v1 = bbox
    length = 5.0 + 25.0 * u_length
    angle = 2.0 * math.pi * u_angle
    dh, dv = length * math.cos(angle), length * math.sin(angle)
    # The stroke's lower end along each axis is uniform over the room left.
    h = h0 + u_h * (h1 - h0 - abs(dh)) + max(-dh, 0.0)
    v = v0 + u_v * (v1 - v0 - abs(dv)) + max(-dv, 0.0)
    return ((h, v), (h + dh, v + dv))


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


# The canonical set's table cells (row, column): third-angle projection.
_CANONICAL_CELLS = {"top": (0, 0), "front": (1, 0), "side": (1, 1)}
# Rows and columns of the table of any other set, filled row-major.
_GRID_SHAPES = {1: (1, 1), 2: (1, 2), 3: (1, 3), 4: (2, 2), 5: (2, 3)}


def layout_sheet(views: list[ViewDrawing]) -> Sheet:
    """Place 1-5 views on the canvas as a table, with one shared scale.

    Each view takes a cell (row, column). The canonical {front, top, side}
    set follows the third-angle layout: top above front, side right of
    front. Any other set fills a row-major grid of 1x1, 1x2, 1x3, 2x2 or
    2x3 cells. A column spans its views' horizontal extents and a row their
    vertical ones, so views in one column share their horizontal placement
    and views in one row their vertical one. The scale fits the columns and
    rows between VIEW_GAP_PX gaps into the canvas less MARGIN_PX each side,
    the table is centred, and each view sits at its column's left edge and
    its row's base. Views whose extents leave no positive, finite scale
    (extents a float range apart, or a single point) raise ValueError
    naming the extents.
    """
    if not 1 <= len(views) <= 5:
        raise ValueError("a sheet holds between 1 and 5 views")
    extents = [_view_extent(v) for v in views]
    kinds = [v.kind for v in views]
    if sorted(kinds) == ["front", "side", "top"]:
        rows, cols = 2, 2
        cells = [_CANONICAL_CELLS[kind] for kind in kinds]
    else:
        rows, cols = _GRID_SHAPES[len(views)]
        cells = [divmod(index, cols) for index in range(len(views))]
    # The ends of each column's horizontal extents and each row's vertical ones.
    col_ends: list[list[float]] = [[] for _ in range(cols)]
    row_ends: list[list[float]] = [[] for _ in range(rows)]
    for (row, col), (h0, v0, h1, v1) in zip(cells, extents):
        col_ends[col] += (h0, h1)
        row_ends[row] += (v0, v1)
    col_h0 = [min(ends) for ends in col_ends]
    row_v0 = [min(ends) for ends in row_ends]
    widths = [max(ends) - h0 for ends, h0 in zip(col_ends, col_h0)]
    heights = [max(ends) - v0 for ends, v0 in zip(row_ends, row_v0)]
    # Summed left to right: `sum` rounds differently from Python 3.12 on.
    total_w, total_h = reduce(add, widths), reduce(add, heights)
    scale = min(_fit(_room(cols - 1), total_w), _fit(_room(rows - 1), total_h))
    if not 0.0 < scale < math.inf:
        named = ", ".join(f"{kind} {extent!r}" for kind, extent in zip(kinds, extents))
        raise ValueError(
            f"view extents (h0, v0, h1, v1) leave no positive finite scale, "
            f"got {scale!r}: {named}"
        )
    # Columns left to right from the table's left edge; each dx puts the
    # column's h0 at its left edge.
    x = (DEFAULT_CANVAS_PX - (scale * total_w + (cols - 1) * VIEW_GAP_PX)) / 2.0
    col_dx = []
    for h0, width in zip(col_h0, widths):
        col_dx.append(x - scale * h0)
        x = x + scale * width + VIEW_GAP_PX
    # Rows top to bottom; each dy puts the row's v0 at its base.
    y = (DEFAULT_CANVAS_PX - (scale * total_h + (rows - 1) * VIEW_GAP_PX)) / 2.0
    row_dy = []
    for v0, height in zip(row_v0, heights):
        base = y + scale * height
        row_dy.append(base + scale * v0)
        y = base + VIEW_GAP_PX
    placed = tuple(
        PlacedView(view, col_dx[col], row_dy[row]) for view, (row, col) in zip(views, cells)
    )
    return Sheet(scale=scale, views=placed)


def _room(gaps: int) -> float:
    """Pixels the views share along one side of the canvas, between `gaps` gaps."""
    return DEFAULT_CANVAS_PX - 2 * MARGIN_PX - gaps * VIEW_GAP_PX


def _fit(room: float, length: float) -> float:
    """The scale that fits `length` mm into `room` px; any scale fits nothing."""
    return room / length if length > 0 else math.inf


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    if text[-1] != "0":
        return text
    text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


class _Texts(dict):
    """Formatted numbers by value: `texts[value]` formats each value once."""

    def __missing__(self, value: float) -> str:
        text = self[value] = _fmt(value)
        return text


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
    scale = sheet.scale
    if "geometry" in layers:
        lines.append(
            f'<g id="geometry" fill="none" stroke="{GEOMETRY_COLOR}" '
            f'stroke-width="{_fmt(GEOMETRY_STROKE_PX)}">'
        )
        for placed in sheet.views:
            dx, dy = placed.dx, placed.dy
            for p, q in placed.view.segments:  # `Sheet.to_px`, inlined
                lines.append(
                    f'<line x1="{_fmt(scale * p[0] + dx)}" y1="{_fmt(dy - scale * p[1])}" '
                    f'x2="{_fmt(scale * q[0] + dx)}" y2="{_fmt(dy - scale * q[1])}"/>'
                )
        lines.append("</g>")
    if "annotation" in layers:
        texts = _Texts()
        lines.append(
            f'<g id="annotation" fill="none" stroke="{ANNOTATION_COLOR}" '
            f'stroke-width="{texts[ANNOTATION_STROKE_PX]}" '
            f'font-size="{texts[FONT_PX]}">'
        )
        half = ARROW_PX * 0.3
        nudge = FONT_PX * 0.45
        for placed in sheet.views:
            dx, dy = placed.dx, placed.dy
            for ann in placed.view.annotations:
                if not isinstance(ann, DimensionSet):
                    lines.extend(_svg_symbol(sheet, placed, ann, texts))
                    continue
                # Extension lines from the span's ends `s` and `e` to the
                # dimension line's ends `a` and `b`, the dimension line, an
                # arrowhead at each of its ends and the label, all in px;
                # each point is formatted once.
                (ax, ay), (bx, by) = ann.line_points()
                ax, ay = scale * ax + dx, dy - scale * ay
                bx, by = scale * bx + dx, dy - scale * by
                (sx, sy), (ex, ey) = ann.start, ann.end
                sx, sy = texts[scale * sx + dx], texts[dy - scale * sy]
                ex, ey = texts[scale * ex + dx], texts[dy - scale * ey]
                a_x, a_y, b_x, b_y = texts[ax], texts[ay], texts[bx], texts[by]
                # The unit vector from a to b; the arrowhead at a points along
                # its negation, which is exact.
                ux, uy = bx - ax, by - ay
                norm = math.hypot(ux, uy)
                ux, uy = ux / norm, uy / norm
                # Arrowhead bases, one ARROW_PX back from each tip.
                cx, cy = ax + ux * ARROW_PX, ay + uy * ARROW_PX
                fx, fy = bx - ux * ARROW_PX, by - uy * ARROW_PX
                # The label sits off the line's middle, against the px-space normal.
                tx = (ax + bx) / 2.0 + uy * nudge
                ty = (ay + by) / 2.0
                ty = ty - ux * nudge if ux != 0 else ty - FONT_PX * 0.35
                lines += (
                    f'<line x1="{sx}" y1="{sy}" x2="{a_x}" y2="{a_y}"/>',
                    f'<line x1="{ex}" y1="{ey}" x2="{b_x}" y2="{b_y}"/>',
                    f'<line x1="{a_x}" y1="{a_y}" x2="{b_x}" y2="{b_y}"/>',
                    f'<path d="M {a_x} {a_y} L {texts[cx + uy * half]} {texts[cy - ux * half]} '
                    f'L {texts[cx - uy * half]} {texts[cy + ux * half]} Z" '
                    f'fill="{ANNOTATION_COLOR}" stroke="none"/>',
                    f'<path d="M {b_x} {b_y} L {texts[fx - uy * half]} {texts[fy + ux * half]} '
                    f'L {texts[fx + uy * half]} {texts[fy - ux * half]} Z" '
                    f'fill="{ANNOTATION_COLOR}" stroke="none"/>',
                    f'<text x="{texts[tx]}" y="{texts[ty]}" text-anchor="middle" '
                    f'stroke="none" fill="{ANNOTATION_COLOR}">{ann.label}</text>',
                )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _svg_symbol(
    sheet: Sheet, placed: PlacedView, mark: SymbolMark, texts: _Texts
) -> list[str]:
    cx, cy = sheet.to_px(placed, mark.anchor)
    if mark.kind == SYMBOL_SHELF_CIRCLE:
        radius = sheet.scale * mark.width / 2.0
        return [
            f'<circle cx="{texts[cx]}" cy="{texts[cy]}" r="{texts[radius]}" '
            f'stroke="{SYMBOL_COLOR}"/>'
        ]
    # Door opening triangle: hinge edge on the left, apex at mid right.
    w = sheet.scale * mark.width / 2.0
    h = sheet.scale * mark.height / 2.0
    return [
        f'<path d="M {texts[cx - w]} {texts[cy - h]} L {texts[cx - w]} {texts[cy + h]} '
        f'L {texts[cx + w]} {texts[cy]} Z" stroke="{SYMBOL_COLOR}"/>'
    ]
