import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cabinetkit import (
    CabinetModel,
    OrientedBox,
    SynthSpec,
    generate,
    make_instance,
)
from cabinetkit.drawing import (
    ANNOTATION_COLOR,
    DEFAULT_CANVAS_PX,
    LAYERS,
    MARGIN_PX,
    SYMBOL_DOOR_TRIANGLE,
    SYMBOL_SHELF_CIRCLE,
    DimensionSet,
    NoiseSpec,
    PlacedView,
    Sheet,
    SymbolMark,
    ViewDrawing,
    _fmt,
    annotate,
    inject_noise,
    layout_sheet,
    render_views,
    to_svg,
)
from cabinetkit.geometry import MAX_MM, model_aabb

from helpers import box_corners, synthesized_models, tilted, to_svg_oracle


NOISE_VIEWS = ["front", "top", "side", "section"]


def geometry_group(svg: str) -> str:
    match = re.search(r'<g id="geometry".*?</g>', svg, re.S)
    assert match, "geometry group missing"
    return match.group(0)


class TestRenderViews:
    def test_single_box_front_view(self, catalog):
        model = CabinetModel(
            (make_instance(catalog, "M-DOOR", OrientedBox((5, 5, 5), (4, 2, 6))),)
        )
        views = render_views(model, ["front"])
        assert len(views) == 1
        assert len(views[0].segments) == 4

    def test_shared_edge_emitted_once(self, catalog):
        a = make_instance(catalog, "M-SHFX", OrientedBox((5, 5, 5), (10, 10, 10)))
        b = make_instance(catalog, "M-SHFX", OrientedBox((15, 5, 5), (10, 10, 10)))
        views = render_views(CabinetModel((a, b)), ["front"])
        # 3 verticals (the shared x=10 edge once) + merged top and bottom runs
        segments = views[0].segments
        assert len(segments) == 5
        shared = [s for s in segments if s[0][0] == 10 and s[1][0] == 10]
        assert len(shared) == 1

    def test_any_view_subset(self, catalog, simple_model):
        for kinds in (["front"], ["top", "side"], ["front", "top", "side", "section"]):
            views = render_views(simple_model, kinds)
            assert [v.kind for v in views] == kinds

    def test_section_cuts_by_depth(self, catalog):
        front_box = make_instance(catalog, "M-DOOR", OrientedBox((5, 1, 5), (4, 2, 6)))
        back_box = make_instance(catalog, "M-SHFX", OrientedBox((5, 9, 5), (4, 2, 6)))
        model = CabinetModel((front_box, back_box))
        section = render_views(model, ["section"])[0]
        assert len(section.segments) == 4  # only the back instance

    def test_section_of_synthesized_models(self, catalog):
        """The default cut at mid depth draws every box that reaches behind it."""
        for seed in range(20):
            model = generate(SynthSpec(seed=seed), catalog)
            section = render_views(model, ["section"])[0]
            lo, hi = model_aabb(model)
            cut = (lo[1] + hi[1]) / 2.0
            far = [box_corners(inst.box)[:, 1].max() for inst in model.instances]
            assert section.drawn == tuple(i for i, y in enumerate(far) if y > cut)
            assert section.segments
            drawn_ids = [model.instances[i].model_id for i in section.drawn]
            assert "M-DOOR" not in drawn_ids and "M-BB01" in drawn_ids
            # Symbols mark only the drawn instances: shelves, never doors.
            marks = [
                a for a in annotate([section], model, catalog)[0].annotations
                if isinstance(a, SymbolMark)
            ]
            assert len(marks) == drawn_ids.count("M-SHAD")
            assert all(m.kind == "adjustable_shelf_circle" for m in marks)

    def test_view_count_limits(self, catalog, simple_model):
        with pytest.raises(ValueError):
            layout_sheet(render_views(simple_model, []))
        with pytest.raises(ValueError):
            layout_sheet(render_views(simple_model, ["front"] * 6))

    def test_front_bbox_matches_model_aabb(self, catalog, simple_model):
        view = render_views(simple_model, ["front"])[0]
        lo, hi = model_aabb(simple_model)
        hs = [c for p, q in view.segments for c in (p[0], q[0])]
        vs = [c for p, q in view.segments for c in (p[1], q[1])]
        assert abs(min(hs) - lo[0]) < 1e-6 and abs(max(hs) - hi[0]) < 1e-6
        assert abs(min(vs) - lo[2]) < 1e-6 and abs(max(vs) - hi[2]) < 1e-6


class TestAnnotate:
    def test_overall_width_label(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front"]), simple_model, catalog)
        labels = [a.label for a in views[0].annotations if isinstance(a, DimensionSet)]
        assert "1200" in labels  # overall width
        assert "1800" in labels  # overall height

    def test_adjustable_shelf_circle(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front"]), simple_model, catalog)
        circles = [
            a for a in views[0].annotations
            if isinstance(a, SymbolMark) and a.kind == "adjustable_shelf_circle"
        ]
        assert len(circles) == 1
        shelf = simple_model.instances[2]
        assert circles[0].anchor == (shelf.box.position[0], shelf.box.position[2])

    def test_door_triangle(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front"]), simple_model, catalog)
        triangles = [
            a for a in views[0].annotations
            if isinstance(a, SymbolMark) and a.kind == "door_opening_triangle"
        ]
        assert len(triangles) == 1

    def test_min_extent_threshold(self, catalog):
        """A 100 mm span is dimensioned, a 99 mm span is not."""
        at = make_instance(catalog, "M-SHFX", OrientedBox((100, 50, 50), (100, 40, 40)))
        below = make_instance(catalog, "M-SHFX", OrientedBox((300, 50, 50), (99, 40, 40)))
        model = CabinetModel((at, below))
        view = annotate(render_views(model, ["front"]), model, catalog)[0]
        spans = sorted(
            (a.start, a.end) for a in view.annotations if isinstance(a, DimensionSet)
        )
        overall = [((50.0, 30.0), (349.5, 30.0)), ((50.0, 30.0), (50.0, 70.0))]
        assert spans == sorted(overall + [((50.0, 70.0), (150.0, 70.0))])

    def test_labels_parse_back_to_span(self, catalog):
        for seed in range(10):
            model = generate(SynthSpec(seed=seed))
            views = annotate(render_views(model, ["front", "top", "side"]), model, catalog)
            for view in views:
                for ann in view.annotations:
                    if isinstance(ann, DimensionSet):
                        measured = math.hypot(
                            ann.end[0] - ann.start[0], ann.end[1] - ann.start[1]
                        )
                        assert int(ann.label) == round(measured)
                        assert abs(int(ann.label) - measured) < 1e-9


    def test_no_instance_dimension_repeats_the_overall_span(self, catalog):
        """In the 200 pinned default-spec models, each overall span is dimensioned once."""
        from drawing_cases import DEFAULT_SEEDS, VIEWS

        for seed in DEFAULT_SEEDS:
            model = generate(SynthSpec(seed=seed), catalog)
            for view in annotate(render_views(model, VIEWS), model, catalog):
                hs, vs = zip(*(p for segment in view.segments for p in segment))
                overall_h = (round(min(hs)), round(max(hs)))
                overall_v = (round(min(vs)), round(max(vs)))
                dims = [a for a in view.annotations if isinstance(a, DimensionSet)]
                widths = [(round(d.start[0]), round(d.end[0])) for d in dims if d.start[1] == d.end[1]]
                heights = [(round(d.start[1]), round(d.end[1])) for d in dims if d.start[0] == d.end[0]]
                assert len(widths) + len(heights) == len(dims)
                assert widths.count(overall_h) == 1, (seed, view.kind)
                assert heights.count(overall_v) == 1, (seed, view.kind)
                assert len(set(widths)) == len(widths) and len(set(heights)) == len(heights)


@st.composite
def permuted_models(draw):
    """A default-spec model, its instances in another order, and whether it is tilted."""
    seed = draw(st.integers(0, 10**6))
    model = generate(SynthSpec(seed=seed))
    if draw(st.booleans()):
        model = tilted(model, seed)
    order = draw(st.permutations(range(len(model))))
    return seed, model, CabinetModel(tuple(model.instances[i] for i in order))


@given(permuted_models(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_drawing_does_not_depend_on_the_instance_order(catalog, case, noisy):
    seed, model, permuted = case

    def svg(m):
        views = annotate(render_views(m, ["front", "top", "side", "section"]), m, catalog)
        if noisy:
            views = inject_noise(views, NoiseSpec(0.05, 0.5, 0.05), seed=seed)
        return to_svg(layout_sheet(views))

    assert svg(permuted) == svg(model)


# Each view's table cell (row, column): the third-angle cells of the
# canonical set, and the row-major cells of any other set, by its size.
CANONICAL_CELLS = {"top": (0, 0), "front": (1, 0), "side": (1, 1)}
GRID_COLUMNS = {1: 1, 2: 2, 3: 3, 4: 2, 5: 3}


def table_cells(kinds: list[str]) -> list[tuple[int, int]]:
    if sorted(kinds) == ["front", "side", "top"]:
        return [CANONICAL_CELLS[kind] for kind in kinds]
    return [divmod(index, GRID_COLUMNS[len(kinds)]) for index in range(len(kinds))]


class TestLayout:
    @given(
        st.lists(st.sampled_from(NOISE_VIEWS), min_size=1, max_size=5),
        st.integers(0, 30),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @example(["front", "top", "side"], 0, False)
    @example(["front", "section"], 4, False)
    @example(["top", "front", "side", "section", "top"], 3, True)
    def test_views_share_their_column_and_row_placement_inside_the_margin(
        self, catalog, kinds, seed, tilt
    ):
        model = generate(SynthSpec(seed=seed), catalog)
        if tilt:
            model = tilted(model, seed)
        sheet = layout_sheet(annotate(render_views(model, kinds), model, catalog))
        cells = table_cells(kinds)
        for a, cell_a in zip(sheet.views, cells):
            for b, cell_b in zip(sheet.views, cells):
                if cell_a[1] == cell_b[1]:
                    assert a.dx == b.dx
                if cell_a[0] == cell_b[0]:
                    assert a.dy == b.dy
        lo, hi = MARGIN_PX - 1e-6, DEFAULT_CANVAS_PX - MARGIN_PX + 1e-6
        for placed in sheet.views:
            for seg in placed.view.segments:
                for p in seg:
                    x, y = sheet.to_px(placed, p)
                    assert lo <= x <= hi and lo <= y <= hi

    def test_canonical_alignment(self, catalog, simple_model):
        views = render_views(simple_model, ["front", "top", "side"])
        sheet = layout_sheet(views)
        placed = {p.view.kind: p for p in sheet.views}
        # top is directly above front: identical x transform
        assert placed["top"].dx == placed["front"].dx
        # side is right of front: identical vertical transform
        assert placed["side"].dy == placed["front"].dy
        top_bottom = max(
            sheet.to_px(placed["top"], p)[1]
            for seg in placed["top"].view.segments for p in seg
        )
        front_top = min(
            sheet.to_px(placed["front"], p)[1]
            for seg in placed["front"].view.segments for p in seg
        )
        assert top_bottom < front_top

    def test_single_view_centered_and_fits(self, catalog, simple_model):
        views = render_views(simple_model, ["front"])
        sheet = layout_sheet(views)
        points = [
            sheet.to_px(sheet.views[0], p)
            for seg in sheet.views[0].view.segments for p in seg
        ]
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        canvas, margin = DEFAULT_CANVAS_PX, MARGIN_PX
        assert min(xs) >= margin - 1e-6 and max(xs) <= canvas - margin + 1e-6
        assert min(ys) >= margin - 1e-6 and max(ys) <= canvas - margin + 1e-6
        # centered: symmetric slack
        assert abs((min(xs) - margin) - (canvas - margin - max(xs))) < 1e-6

    def test_scale_fills_canvas(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front"]), simple_model, catalog)
        sheet = layout_sheet(views)
        points = []
        for placed in sheet.views:
            for seg in placed.view.segments:
                points.extend(sheet.to_px(placed, p) for p in seg)
            for ann in placed.view.annotations:
                if isinstance(ann, DimensionSet):
                    a, b = ann.line_points()
                    points.extend(
                        sheet.to_px(placed, p) for p in (ann.start, ann.end, a, b)
                    )
        span_x = max(p[0] for p in points) - min(p[0] for p in points)
        span_y = max(p[1] for p in points) - min(p[1] for p in points)
        expected = DEFAULT_CANVAS_PX - 2 * MARGIN_PX
        assert max(span_x, span_y) == pytest.approx(expected, abs=1e-6)

    def test_all_views_inside_canvas(self, catalog):
        for seed in (1, 5, 9):
            model = generate(SynthSpec(seed=seed))
            for kinds in (["front"], ["front", "top"], ["front", "top", "side"],
                          ["front", "top", "side", "section"]):
                views = annotate(render_views(model, kinds), model, catalog)
                sheet = layout_sheet(views)
                for placed in sheet.views:
                    for seg in placed.view.segments:
                        for p in seg:
                            x, y = sheet.to_px(placed, p)
                            assert -1e-6 <= x <= DEFAULT_CANVAS_PX + 1e-6
                            assert -1e-6 <= y <= DEFAULT_CANVAS_PX + 1e-6

    def test_views_a_float_range_apart_raise_instead_of_writing_nan(self):
        """Each dimension set is valid, but the view's width overflows to inf."""
        view = ViewDrawing(
            "front",
            [((0.0, 0.0), (10.0, 0.0))],
            [
                DimensionSet((-1e308, 0.0), (-9e307, 0.0), 1.0),
                DimensionSet((9e307, 0.0), (1e308, 0.0), 1.0),
            ],
        )
        pattern = r"leave no positive finite scale, got 0\.0: front \(-1e\+308, 0\.0, 1e\+308, 1\.0\)$"
        with pytest.raises(ValueError, match=pattern):
            layout_sheet([view])

    def test_views_whose_widths_overflow_together_raise(self):
        """Each view is 1e308 mm wide; side by side they are wider than the float range."""
        view = ViewDrawing("front", [((-5e307, 0.0), (5e307, 0.0)), ((0.0, 0.0), (0.0, 1.0))])
        with pytest.raises(ValueError, match=r"leave no positive finite scale, got 0\.0: front"):
            layout_sheet([view, view])

    def test_a_single_point_view_raises(self):
        view = ViewDrawing("front", [((1.0, 2.0), (1.0, 2.0))])
        with pytest.raises(ValueError, match=r"got inf: front \(1\.0, 2\.0, 1\.0, 2\.0\)$"):
            layout_sheet([view])

    def test_a_flat_view_takes_its_scale_from_its_width(self):
        sheet = layout_sheet([ViewDrawing("front", [((0.0, 0.0), (10.0, 0.0))])])
        assert sheet.scale == (DEFAULT_CANVAS_PX - 2 * MARGIN_PX) / 10.0
        assert "nan" not in to_svg(sheet)

    def test_default_canvas_is_512(self, catalog, simple_model):
        svg = to_svg(layout_sheet(render_views(simple_model, ["front"])))
        assert DEFAULT_CANVAS_PX == 512
        assert 'width="512" height="512" viewBox="0 0 512 512"' in svg


class TestNoise:
    def test_identity_spec(self, catalog, simple_model):
        views = render_views(simple_model, ["front", "top"])
        assert inject_noise(views, NoiseSpec(0, 0, 0), seed=3) == views

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_rates_leave_the_geometry_unchanged(self, catalog, seed):
        for model in synthesized_models(catalog, seed):
            views = annotate(render_views(model, NOISE_VIEWS), model, catalog)
            assert inject_noise(views, NoiseSpec(0.0, 0.0, 0.0), seed=seed) == views

    def test_drop_all_keeps_annotations(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front"]), simple_model, catalog)
        noisy = inject_noise(views, NoiseSpec(1.0, 0.0, 0.0), seed=3)
        assert noisy[0].segments == []
        assert noisy[0].annotations == views[0].annotations

    @pytest.mark.parametrize("seed", range(5))
    def test_drop_all_keeps_no_geometry_and_every_annotation(self, catalog, seed):
        for model in synthesized_models(catalog, seed):
            views = annotate(render_views(model, NOISE_VIEWS), model, catalog)
            noisy = inject_noise(views, NoiseSpec(1.0, 2.0, 0.0), seed=seed)
            assert [v.segments for v in noisy] == [[] for _ in views]
            assert [v.annotations for v in noisy] == [v.annotations for v in views]
            assert [(v.kind, v.drawn) for v in noisy] == [(v.kind, v.drawn) for v in views]

    @pytest.mark.parametrize("seed", range(5))
    def test_spurious_strokes_lie_inside_the_view_bbox(self, catalog, seed):
        """Every original segment dropped, one stroke per segment instead."""
        for model in synthesized_models(catalog, seed):
            views = render_views(model, NOISE_VIEWS)
            noisy = inject_noise(views, NoiseSpec(1.0, 0.0, 1.0), seed=seed)
            for view, strokes in zip(views, noisy):
                assert len(strokes.segments) == len(view.segments)
                hs, vs = zip(*(p for segment in view.segments for p in segment))
                h0, v0, h1, v1 = min(hs), min(vs), max(hs), max(vs)
                tol = 1e-9 * max(abs(h0), abs(h1), abs(v0), abs(v1))
                for (ax, ay), (bx, by) in strokes.segments:
                    assert 5.0 - 1e-9 <= math.hypot(bx - ax, by - ay) <= 30.0 + 1e-9
                    for x in (ax, bx):
                        assert h0 - tol <= x <= h1 + tol
                    for y in (ay, by):
                        assert v0 - tol <= y <= v1 + tol

    @pytest.mark.parametrize("seed", range(5))
    def test_jitter_depends_only_on_the_seed_and_the_place(self, catalog, seed):
        """Segment k of the views, in view order, moves by row k of one normal draw."""
        model = generate(SynthSpec(seed=seed), catalog)
        views = annotate(render_views(model, NOISE_VIEWS), model, catalog)
        segments = [segment for view in views for segment in view.segments]
        rows = np.random.default_rng(seed).normal(0.0, 1.5, size=(len(segments), 4)).tolist()
        expected = [
            ((p[0] + a, p[1] + b), (q[0] + c, q[1] + d))
            for (p, q), (a, b, c, d) in zip(segments, rows)
        ]
        jittered = inject_noise(views, NoiseSpec(0.0, 1.5, 0.0), seed=seed)
        assert [s for view in jittered for s in view.segments] == expected
        # Drops and spurious strokes draw after the jitter: the segments kept
        # are the same rows, in order, and the strokes follow them per view.
        noisy = inject_noise(views, NoiseSpec(0.3, 1.5, 0.2), seed=seed)
        kept_count = 0
        for plain, degraded in zip(jittered, noisy):
            rows = iter(plain.segments)
            kept = [s for s in degraded.segments if any(s == row for row in rows)]
            assert degraded.segments[:len(kept)] == kept
            kept_count += len(kept)
        assert 0 < kept_count < len(segments)

    def test_seed_determinism(self, catalog, simple_model):
        views = render_views(simple_model, ["front", "top", "side"])
        spec = NoiseSpec(0.3, 1.5, 0.2)
        a = inject_noise(views, spec, seed=11)
        b = inject_noise(views, spec, seed=11)
        c = inject_noise(views, spec, seed=12)
        assert a == b
        assert a != c

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_drop=1.5)

    @pytest.mark.parametrize("field, value", [
        ("p_drop", math.nan), ("p_spurious", -0.5), ("p_spurious", math.inf),
        ("jitter_sigma", math.nan), ("jitter_sigma", -1.0), ("jitter_sigma", 1e18),
    ])
    def test_errors_name_the_field_and_the_value(self, field, value):
        pattern = rf"^{field} must lie in \[0, .*got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=pattern):
            NoiseSpec(**{field: value})

    def test_jitter_up_to_the_box_domain_stays_finite(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front", "top"]), simple_model, catalog)
        noisy = inject_noise(views, NoiseSpec(0.0, 1e6, 0.0), seed=1)
        svg = to_svg(layout_sheet(noisy))
        assert "nan" not in svg and "inf" not in svg

    def test_noisy_geometry_is_python_floats(self, simple_model):
        views = render_views(simple_model, ["front", "top", "side"])
        noisy = inject_noise(views, NoiseSpec(0.1, 1.5, 0.3), seed=5)
        coords = [c for view in noisy for segment in view.segments for point in segment for c in point]
        assert coords and {type(c) for c in coords} == {float}

    def test_negative_seed_rejected(self, simple_model):
        with pytest.raises(ValueError, match=r"^noise seed must be non-negative, got -1$"):
            inject_noise(render_views(simple_model, ["front"]), NoiseSpec(), seed=-1)


class TestSvg:
    def test_well_formed_xml_with_viewbox(self, catalog, simple_model):
        views = annotate(
            render_views(simple_model, ["front", "top", "side"]), simple_model, catalog
        )
        svg = to_svg(layout_sheet(views))
        root = ET.fromstring(svg)
        assert root.attrib["viewBox"] == "0 0 512 512"
        ids = [g.attrib["id"] for g in root if g.tag.endswith("g")]
        assert ids == ["geometry", "annotation"]

    def test_layer_toggles(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front"]), simple_model, catalog)
        sheet = layout_sheet(views)
        geo_only = to_svg(sheet, layers=frozenset({"geometry"}))
        assert '<g id="annotation"' not in geo_only
        ann_only = to_svg(sheet, layers=frozenset({"annotation"}))
        assert '<g id="geometry"' not in ann_only

    def test_unknown_layer_rejected(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front"]), simple_model, catalog)
        with pytest.raises(ValueError, match="unknown layers: wires"):
            to_svg(layout_sheet(views), layers=frozenset({"geometry", "wires"}))

    def test_layer_separation_equality(self, catalog):
        for seed in range(8):
            model = generate(SynthSpec(seed=seed))
            views = annotate(
                render_views(model, ["front", "top", "side"]), model, catalog
            )
            sheet = layout_sheet(views)
            full = to_svg(sheet)
            geo_only = to_svg(sheet, layers=frozenset({"geometry"}))
            assert geometry_group(full) == geometry_group(geo_only)

    def test_symbols_are_red(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front"]), simple_model, catalog)
        svg = to_svg(layout_sheet(views))
        assert svg.count('stroke="#d40000"') == 2  # circle + triangle

    def test_arrowheads_take_the_annotation_colour(self, catalog, simple_model):
        views = annotate(render_views(simple_model, ["front", "top"]), simple_model, catalog)
        svg = to_svg(layout_sheet(views))
        # No element sets `color`, so currentColor would render black.
        assert "currentColor" not in svg
        arrows = re.findall(r'<path d="[^"]*Z" fill="([^"]*)"', svg)
        assert arrows and set(arrows) == {ANNOTATION_COLOR}

    def test_byte_identical_across_runs(self, catalog, simple_model):
        def run():
            views = annotate(
                render_views(simple_model, ["front", "top", "side"]),
                simple_model,
                catalog,
            )
            noisy = inject_noise(views, NoiseSpec(0.1, 1.0, 0.05), seed=42)
            return to_svg(layout_sheet(noisy))

        assert run() == run()


@given(st.floats(-1e4, 1e4) | st.floats(allow_nan=False))
@settings(max_examples=1000, deadline=None)
@example(-0.004)
@example(-0.005)
@example(10.0)
@example(0.10)
@example(-100.5)
def test_fmt_is_fixed_point_with_zeros_stripped(value):
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    assert _fmt(value) == ("0" if text == "-0" else text)


class TestAnnotationValues:
    """Annotations reject values that would write a broken SVG, naming the field."""

    @pytest.mark.parametrize("start, end", [
        ((0, 0), (0, 0)),
        ((5.0, 5.0), (5.0, 5.0)),
        ((0.0, 0.0), (math.nan, 0.0)),
        ((0.0, math.nan), (1.0, 0.0)),
        ((0.0, 0.0), (math.inf, 0.0)),
        ((-math.inf, 0.0), (0.0, 1.0)),
        ((1e308, 0.0), (-1e308, 0.0)),  # finite ends, infinite span
    ])
    def test_dimension_span_must_be_finite_and_nonzero(self, start, end):
        got = f"{start!r} and {end!r}"
        pattern = rf"^start and end must be finite and apart, got {re.escape(got)}$"
        with pytest.raises(ValueError, match=pattern):
            DimensionSet(start, end, 10.0)

    @pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan])
    def test_dimension_offset_must_be_finite(self, offset):
        pattern = rf"^offset must be finite, got {re.escape(repr(offset))}$"
        with pytest.raises(ValueError, match=pattern):
            DimensionSet((0.0, 0.0), (10.0, 0.0), offset)

    @pytest.mark.parametrize("start, end, offset", [
        ((1e308, 0.0), (1e308, 1.0), -1e308),  # line at x = inf
        ((0.0, -1.7e308), (1.0, -1.7e308), -1.7e308),  # line at y = -inf
        ((1.7e308, 1.7e308), (1.7e308 - 1e300, 1.7e308 + 1e300), -1e308),  # tilted
        ((0.0, 0.0), (1e308, 1e308), -1.2e308),  # only the end's x overflows
    ])
    def test_dimension_line_points_must_be_finite(self, start, end, offset):
        # Ends and offset are finite, but the offset moves the span out of range.
        dx, dy = end[0] - start[0], end[1] - start[1]
        length = math.hypot(dx, dy)
        px, py = -(dy / length) * offset, (dx / length) * offset
        line = ((start[0] + px, start[1] + py), (end[0] + px, end[1] + py))
        assert not all(map(math.isfinite, line[0] + line[1]))
        got = (
            f"offset {offset!r} moves start {start!r} and end {end!r} "
            f"out of the float range, to {line!r}"
        )
        with pytest.raises(ValueError, match=rf"^{re.escape(got)}$"):
            DimensionSet(start, end, offset)

    def test_dimension_line_points_at_the_float_range_are_kept(self):
        dim = DimensionSet((1e308, 0.0), (1e308, 1.0), -7e307)
        assert dim.line_points() == ((1.7e308, 0.0), (1.7e308, 1.0))

    @pytest.mark.parametrize(
        "anchor", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_symbol_anchor_must_be_finite(self, anchor):
        pattern = rf"^anchor must be finite, got {re.escape(repr(anchor))}$"
        with pytest.raises(ValueError, match=pattern):
            SymbolMark(SYMBOL_SHELF_CIRCLE, anchor)

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -5.0, 0.0, -0.0])
    def test_symbol_size_must_be_finite_and_positive(self, field, value):
        pattern = rf"^{field} must be finite and positive, got {re.escape(repr(value))}$"
        for kind in (SYMBOL_SHELF_CIRCLE, SYMBOL_DOOR_TRIANGLE):
            with pytest.raises(ValueError, match=pattern):
                SymbolMark(kind, (0.0, 0.0), **{field: value})


# Numbers that stress the formatter: two-decimal ties (.xx5), values that
# print as -0.00, signed zeros, and magnitudes up to the box domain.
SVG_NUMBERS = (
    st.integers(-10**8, 10**8).map(lambda k: k / 100.0 + 0.005)
    | st.floats(-0.005, 0.005)
    | st.sampled_from([0.0, -0.0, 0.005, -0.005, 0.015, -0.015, 2.675, MAX_MM, -MAX_MM])
    | st.floats(MAX_MM - 1.0, MAX_MM)
    | st.floats(-MAX_MM, MAX_MM)
)
SVG_POINTS = st.tuples(SVG_NUMBERS, SVG_NUMBERS)


@st.composite
def dimension_sets(draw):
    start = draw(SVG_POINTS)
    direction = draw(st.sampled_from(["horizontal", "vertical", "tilted"]))
    if direction == "horizontal":
        end = (draw(SVG_NUMBERS), start[1])
    elif direction == "vertical":
        end = (start[0], draw(SVG_NUMBERS))
    else:
        end = draw(SVG_POINTS)
    assume(0.0 < math.hypot(end[0] - start[0], end[1] - start[1]) < math.inf)
    return DimensionSet(start, end, draw(SVG_NUMBERS))


SYMBOL_SIZES = st.floats(0.1, MAX_MM) | st.integers(1, 10**6).map(lambda k: k / 100.0 + 0.005)
SYMBOLS = st.builds(
    SymbolMark, st.sampled_from([SYMBOL_SHELF_CIRCLE, SYMBOL_DOOR_TRIANGLE]), SVG_POINTS,
    SYMBOL_SIZES, SYMBOL_SIZES,
)


@st.composite
def sheets(draw):
    """Hand-built sheets: unit scale and no offset print the view coordinates themselves."""
    placed = []
    for _ in range(draw(st.integers(1, 3))):
        view = ViewDrawing(
            "front",
            draw(st.lists(st.tuples(SVG_POINTS, SVG_POINTS), max_size=6)),
            draw(st.lists(dimension_sets() | SYMBOLS, max_size=6)),
        )
        if draw(st.booleans()):
            placed.append(PlacedView(view, 0.0, 0.0))
        else:
            placed.append(PlacedView(view, draw(SVG_NUMBERS), draw(SVG_NUMBERS)))
    scale = draw(st.sampled_from([1.0, 0.1]) | st.floats(1e-3, 10.0))
    return Sheet(scale, tuple(placed))


def _outcome(render, sheet, layers):
    try:
        return render(sheet, layers)
    except ArithmeticError as exc:  # a dimension line that vanishes in px
        return type(exc)


LAYER_SETS = [LAYERS, frozenset({"geometry"}), frozenset({"annotation"}), frozenset()]


@given(sheets(), st.sampled_from(LAYER_SETS))
@settings(max_examples=400, deadline=None)
def test_to_svg_equals_the_former_formatter_byte_for_byte(sheet, layers):
    assert _outcome(to_svg, sheet, layers) == _outcome(to_svg_oracle, sheet, layers)
