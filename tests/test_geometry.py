import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cabinetkit import (
    CabinetModel,
    OrientedBox,
    SynthSpec,
    annotate,
    generate,
    make_instance,
    render_views,
    validate,
)
from cabinetkit import drawing, geometry
from cabinetkit.geometry import (
    CLIP_EPS,
    MAX_MM,
    MIN_SIZE_MM,
    OCTANT_EPS,
    BoxError,
    VIEW_KINDS,
    box_extents,
    footprints,
    iou3d,
    merge_segments,
    model_aabb,
    pairwise_iou,
    project_boxes,
)
from cabinetkit.metrics import iou_matrix
from helpers import (
    aabb_iou_oracle,
    box_corners,
    box_footprint,
    clip_convex,
    clip_iou,
    domain_corner_boxes,
    merge_segments_oracle,
    polygon_area,
    project_box_oracle,
    random_box,
)

SQRT2 = math.sqrt(2.0)


def box(pos, size, rot=0.0):
    return OrientedBox(pos, size, rot)


finite_pos = st.floats(-4000, 4000)
positive_size = st.floats(1.0, 2000.0)
rotations = st.floats(-720, 720)


@st.composite
def boxes(draw):
    return OrientedBox(
        (draw(finite_pos), draw(finite_pos), draw(finite_pos)),
        (draw(positive_size), draw(positive_size), draw(positive_size)),
        draw(rotations),
    )


class TestOrientedBox:
    def test_rotation_canonicalized(self):
        assert box((0, 0, 0), (1, 1, 1), 450).rotation_deg == 90
        assert box((0, 0, 0), (1, 1, 1), -90).rotation_deg == 270
        assert box((0, 0, 0), (1, 1, 1), 360).rotation_deg == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            box((0, 0, 0), (1, 0, 1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            box((math.nan, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            box((0, 0, 0), (math.inf, 1, 1))

    def test_overflowing_volume_rejected(self):
        with pytest.raises(BoxError, match="size out of domain"):
            box((0, 0, 0), (1e120, 1e120, 1e120))
        assert box((0, 0, 0), (MAX_MM, MAX_MM, MAX_MM)).volume == 1e18

    def test_domain_bounds_are_accepted(self):
        for position in (-MAX_MM, 0.0, MAX_MM):
            for size in (MIN_SIZE_MM, MAX_MM):
                b = box((position, -position, position), (size, size, size), -1e-12)
                assert b.position == (position, -position, position)
                assert b.size == (size, size, size)

    @pytest.mark.parametrize("argument, value", [
        ("position", -math.nextafter(MAX_MM, math.inf)),
        ("position", math.nextafter(MAX_MM, math.inf)),
        ("position", math.inf),
        ("position", math.nan),
        ("position", 10 ** 400),
        ("size", math.nextafter(MIN_SIZE_MM, 0.0)),
        ("size", 0.0999),
        ("size", 0.0),
        ("size", -1.0),
        ("size", math.nextafter(MAX_MM, math.inf)),
        ("size", math.inf),
        ("size", math.nan),
        ("size", 10 ** 400),
    ])
    @pytest.mark.parametrize("component", [0, 1, 2])
    def test_values_outside_the_domain_name_their_argument(self, argument, value, component):
        vectors = {"position": [1.0, 2.0, 3.0], "size": [4.0, 5.0, 6.0]}
        vectors[argument][component] = value
        with pytest.raises(BoxError, match=f"^{argument} out of domain") as err:
            box(vectors["position"], vectors["size"], 7.5)
        assert err.value.argument == argument

    @pytest.mark.parametrize("value", [math.inf, math.nan, -10 ** 400])
    def test_non_finite_rotation_names_its_argument(self, value):
        with pytest.raises(BoxError, match="rotation must be finite") as err:
            box((1, 2, 3), (4, 5, 6), value)
        assert err.value.argument == "rotation"

    def test_overflowing_bounds_box_is_rejected(self):
        # Its center plus half its size passes the largest float.
        with pytest.raises(BoxError) as err:
            box((1.7e308, 0, 0), (1e308, 1, 1))
        assert err.value.argument == "position"

    @given(boxes())
    def test_rotation_always_in_range(self, b):
        assert 0.0 <= b.rotation_deg < 360.0


class TestCorners:
    def test_identity_rotation(self):
        b = box((0, 0, 0), (2, 2, 2))
        assert box_footprint(b) == [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        assert b.z_interval == (-1, 1)

    def test_quarter_turn_swaps_footprint(self):
        xs, ys = zip(*box_footprint(box((0, 0, 0), (2, 4, 2), 90)))
        assert min(xs) == -2 and max(xs) == 2
        assert min(ys) == -1 and max(ys) == 1

    def test_rotated_cube_footprint_vertex(self):
        foot = box_footprint(box((0, 0, 0), (1, 1, 1), 45))
        assert any(
            abs(x - SQRT2 / 2) < 1e-12 and abs(y) < 1e-12 for x, y in foot
        )


class TestClip:
    def test_self_clip_is_identity(self):
        poly = box_footprint(box((3, 4, 0), (2, 5, 1), 30))
        assert clip_convex(poly, poly) == poly

    def test_disjoint_is_empty(self):
        a = box_footprint(box((0, 0, 0), (1, 1, 1)))
        b = box_footprint(box((5, 5, 0), (1, 1, 1)))
        assert clip_convex(a, b) == []

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_clip_properties(self, seed):
        rng = np.random.default_rng(seed)
        a = box_footprint(random_box(rng, rotations=(0, 15, 37, 90, 145)))
        b = box_footprint(random_box(rng, rotations=(0, 15, 37, 90, 145)))
        result = clip_convex(a, b)
        area = polygon_area(result)
        assert area <= min(polygon_area(a), polygon_area(b)) + 1e-6
        # convex and CCW: every cross product non-negative
        if len(result) >= 3:
            n = len(result)
            for i in range(n):
                ox, oy = result[i]
                ax, ay = result[(i + 1) % n]
                bx, by = result[(i + 2) % n]
                cross = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
                assert cross >= -1e-6


class TestIoU:
    def test_identical_is_exactly_one(self):
        for rot in (0, 45, 90, 137):
            b = box((100, 50, 25), (30, 40, 50), rot)
            assert iou3d(b, b) == 1.0

    def test_disjoint_z_is_zero(self):
        a = box((0, 0, 0), (2, 2, 2))
        b = box((0, 0, 10), (2, 2, 2))
        assert iou3d(a, b) == 0.0

    def test_offset_unit_cubes_analytic(self):
        a = box((0, 0, 0), (1, 1, 1))
        b = box((0.5, 0, 0), (1, 1, 1))
        assert abs(iou3d(a, b) - 1.0 / 3.0) < 1e-9

    def test_tangent_boxes_are_zero(self):
        a = box((0, 0, 0), (2, 2, 2))
        assert iou3d(a, box((2, 0, 0), (2, 2, 2))) == 0.0  # shared face in x
        assert iou3d(a, box((0, 0, 2), (2, 2, 2))) == 0.0  # shared face in z

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = random_box(rng, rotations=(0, 30, 45, 90, 215))
        b = random_box(rng, rotations=(0, 30, 45, 90, 215))
        assert abs(iou3d(a, b) - iou3d(b, a)) <= 1e-12
        shift = rng.uniform(-500, 500, 3)
        a2, b2 = (OrientedBox(np.add(x.position, shift), x.size, x.rotation_deg) for x in (a, b))
        assert abs(iou3d(a, b) - iou3d(a2, b2)) <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_right_angle_rotations_match_aabb_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_box(rng, rotations=(0, 90, 180, 270))
        b = random_box(rng, rotations=(0, 90, 180, 270))
        assert abs(iou3d(a, b) - aabb_iou_oracle(a, b)) <= 1e-9

    def test_monotone_shrink(self):
        rng = np.random.default_rng(5)
        outer = box((0, 0, 0), (100, 100, 100))
        previous = 1.0
        for t in np.linspace(1.0, 0.05, 20):
            inner = box((0, 0, 0), (100 * t, 100 * t, 100 * t))
            current = iou3d(outer, inner)
            assert current <= previous + 1e-12
            previous = current

    @given(
        boxes(),
        st.sampled_from([0.0, 90.0, 180.0, 270.0]) | rotations,
        st.floats(1e-13, 1e-3) | st.floats(-1e-3, -1e-13),
    )
    @example(
        box(
            (525.767879203114, 659.6447523886255, 1643.991867620766),
            (72.52089977352583, 99.10001633632679, 973.5030316222037),
        ),
        90.0,
        1.7246616946463914e-12,
    )
    @settings(max_examples=300, deadline=None)
    def test_near_identical_pairs_stay_in_unit_interval(self, b, rotation, turn):
        # The clipped area can come out a few ulps above a footprint's own.
        plain = OrientedBox(b.position, b.size, rotation)
        turned = OrientedBox(b.position, b.size, rotation + turn)
        matrix = pairwise_iou([plain, turned], [plain, turned])
        assert ((matrix >= 0.0) & (matrix <= 1.0)).all()
        assert matrix[0, 0] == matrix[1, 1] == 1.0

    def test_huge_tilted_footprint_scores_zero_both_ways(self):
        # A 1e40 mm footprint's area rounded to 0, so the union was 0: such a
        # door is outside the domain now, and the longest door inside it is
        # scored the same both ways.
        with pytest.raises(BoxError, match="size out of domain"):
            box((0, 0, 0), (2155, 1e40, 2131), 296)
        door = box((0, 0, 0), (2155, MAX_MM, 2131), 296)
        side = box((100, 50, 0), (600, 18, 1000))
        assert 0.0 < iou3d(door, side) == iou3d(side, door) < 1e-5
        assert iou3d(door, box((1e6, 50, 0), (600, 18, 1000))) == 0.0

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            a = random_box(rng, rotations=(0, 10, 45, 80))
            b = random_box(rng, rotations=(0, 10, 45, 80))
            v = iou3d(a, b)
            assert 0.0 <= v <= 1.0


RIGHT_ANGLES = (0.0, 90.0, 180.0, 270.0)
MIXED_ROTATIONS = RIGHT_ANGLES + (1.0, 30.0, 45.0, 137.0, 351.5)
GAPS_MM = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)


def _axes(rotation_deg):
    """The box's own x and y axes in the world frame (exact at right angles)."""
    if rotation_deg % 90.0 == 0.0:
        c, s = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[int(rotation_deg // 90.0)]
    else:
        c, s = math.cos(math.radians(rotation_deg)), math.sin(math.radians(rotation_deg))
    return (c, s), (-s, c)


def _neighbours(rng, anchor):
    """Boxes beside `anchor` along its x, y and z axes, GAPS_MM apart (< 0: overlapping)."""
    out = []
    px, py, pz = anchor.position
    for gap in GAPS_MM:
        size = tuple(rng.uniform(30.0, 800.0, 3))
        rotation = anchor.rotation_deg if rng.random() < 0.8 else float(rng.choice(MIXED_ROTATIONS))
        for axis, (ux, uy) in enumerate(_axes(anchor.rotation_deg)):
            d = (anchor.size[axis] + size[axis]) / 2.0 + gap
            out.append(OrientedBox((px + ux * d, py + uy * d, pz), size, rotation))
        d = (anchor.size[2] + size[2]) / 2.0 + gap
        out.append(OrientedBox((px, py, pz + d), size, rotation))
    return out


def _boxes(rng, rotations, n):
    return [random_box(rng, rotations=rotations) for _ in range(n)]


def _model(catalog, boxes):
    return CabinetModel(tuple(make_instance(catalog, "M-DOOR", b) for b in boxes))


def _right_angle(box):
    return box.rotation_deg % 90.0 == 0.0


def _oracle(a, b):
    """The score `pairwise_iou` must give, bit for bit, from the pairwise references."""
    if _right_angle(a) and _right_angle(b):
        with np.errstate(all="ignore"):  # the oracle's own numpy overflows on huge boxes
            return aabb_iou_oracle(a, b)
    return clip_iou(a, b)


def _oracle_matrix(boxes_a, boxes_b):
    values = [_oracle(a, b) for a in boxes_a for b in boxes_b]
    return np.array(values, dtype=float).reshape(len(boxes_a), len(boxes_b))


def _rotations():
    """Any angle, quarter turns, or a quarter turn plus a 1e-12 to 12 degree tilt either way."""
    tilt = st.floats(-12.0, math.log10(12.0)).map(lambda e: 10.0 ** e)
    tilted = st.builds(lambda r, t, sign: r + sign * t, st.sampled_from(RIGHT_ANGLES), tilt,
                       st.sampled_from([-1.0, 1.0]))
    return st.sampled_from(RIGHT_ANGLES) | st.floats(0.0, 360.0) | tilted


@st.composite
def _iou_sides(draw):
    """Two sides of boxes at one scale, sizes 0.1 to 1e5 mm, crowded so that pairs overlap.

    Each side is right-angle, tilted or mixed; side b may add boxes that touch
    a's first box within CLIP_EPS.
    """
    scale = 10.0 ** draw(st.floats(0.0, 5.0))

    def side():
        rotations = draw(st.sampled_from([st.sampled_from(RIGHT_ANGLES), _rotations()]))
        boxes = []
        for _ in range(draw(st.integers(0, 6))):
            turn = draw(rotations)
            position = tuple(scale * draw(st.floats(0.0, 2.0)) for _ in range(3))
            size = tuple(scale * draw(st.floats(0.1, 1.0)) for _ in range(3))
            boxes.append(OrientedBox(position, size, turn))
        return boxes

    boxes_a, boxes_b = side(), side()
    if boxes_a and draw(st.booleans()):
        boxes_b += _neighbours(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), boxes_a[0])
    return boxes_a, boxes_b


DOMAIN_POSITIONS = st.sampled_from([-MAX_MM, 0.0, MAX_MM]) | st.floats(-MAX_MM, MAX_MM)
DOMAIN_SIZES = st.sampled_from([MIN_SIZE_MM, MAX_MM]) | st.floats(-1.0, 6.0).map(
    lambda e: min(max(10.0 ** e, MIN_SIZE_MM), MAX_MM)
)


@st.composite
def _domain_corner_side(draw):
    """Boxes at the corners of the domain and inside it, then boxes within CLIP_EPS of the first.

    A neighbour sits beside the first box along one of its axes, either
    way, GAPS_MM apart; one that would leave the domain is not drawn.
    """
    def sizes():
        return tuple(draw(DOMAIN_SIZES) for _ in range(3))

    boxes = [
        OrientedBox(tuple(draw(DOMAIN_POSITIONS) for _ in range(3)), sizes(), draw(_rotations()))
        for _ in range(draw(st.integers(1, 5)))
    ]
    anchor = boxes[0]
    for _ in range(draw(st.integers(0, 4))):
        size = sizes()
        axis = draw(st.integers(0, 2))
        d = (anchor.size[axis] + size[axis]) / 2.0 + draw(st.sampled_from(GAPS_MM))
        d *= draw(st.sampled_from([-1.0, 1.0]))
        ux, uy = _axes(anchor.rotation_deg)[axis] if axis < 2 else (0.0, 0.0)
        offset = (ux * d, uy * d, d if axis == 2 else 0.0)
        position = tuple(p + o for p, o in zip(anchor.position, offset))
        if max(map(abs, position)) <= MAX_MM:
            boxes.append(OrientedBox(position, size, anchor.rotation_deg))
    return boxes


class TestFootprints:
    """`footprints` against the corner-by-corner `box_footprint` oracle.

    Boxes at quarter turns, tilted 1e-12 to 12 degrees off one, at any
    angle, and at the corners of the box domain.
    """

    @given(st.lists(
        st.builds(OrientedBox, st.tuples(*[DOMAIN_POSITIONS] * 3), st.tuples(*[DOMAIN_SIZES] * 3),
                  _rotations() | st.floats(-720.0, 720.0)),
        max_size=8,
    ))
    @example(domain_corner_boxes())
    @settings(max_examples=300, deadline=None)
    def test_equal_scalar_footprints_bit_for_bit(self, boxes):
        expected = np.array([box_footprint(b) for b in boxes]).reshape(len(boxes), 4, 2)
        assert footprints(boxes).tobytes() == expected.tobytes()


class TestPairwiseIoU:
    """The batched kernel against iou3d, the AABB oracle and unfiltered clipping."""

    @given(st.integers(0, 10_000), st.sampled_from([RIGHT_ANGLES, MIXED_ROTATIONS, (30.0,)]))
    @settings(max_examples=40, deadline=None)
    def test_kernel_equals_references(self, catalog, seed, rotations):
        rng = np.random.default_rng(seed)
        pred = _boxes(rng, rotations, int(rng.integers(1, 10)))
        pred += _neighbours(rng, pred[0])
        gt = _boxes(rng, rotations, int(rng.integers(1, 10))) + pred[:2]
        matrix = iou_matrix(_model(catalog, pred), _model(catalog, gt))
        assert matrix.shape == (len(pred), len(gt))
        assert ((matrix >= 0.0) & (matrix <= 1.0)).all()
        for i, a in enumerate(pred):
            for j, b in enumerate(gt):
                assert matrix[i, j] == iou3d(a, b)
                if _right_angle(a) and _right_angle(b):
                    assert abs(matrix[i, j] - aabb_iou_oracle(a, b)) <= 1e-12
                else:
                    assert matrix[i, j] == clip_iou(a, b)

    @pytest.mark.parametrize("rotations", [RIGHT_ANGLES, MIXED_ROTATIONS, (30.0,)])
    def test_builds_each_footprint_at_most_once(self, rotations):
        rng = np.random.default_rng(4)
        side_a, side_b = _boxes(rng, rotations, 12), _boxes(rng, rotations, 9)
        built = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "footprints", lambda boxes: built.extend(boxes) or footprints(boxes))
            matrix = pairwise_iou(side_a, side_b)
        assert matrix.tobytes() == pairwise_iou(side_a, side_b).tobytes()
        assert len(built) <= len(side_a) + len(side_b)
        if rotations is RIGHT_ANGLES:
            assert built == []

    def test_xy_prefilter_keeps_what_clipping_bridges(self):
        # A box tilted by a hair, its corner within the clipping tolerance
        # of an axis-aligned face: clipping may score a sliver although the
        # xy AABBs are (barely) apart, and the prefilter must let it through.
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = box((1000, 1000, 1000), rng.uniform(1, 800, 3) * 10.0 ** rng.uniform(-1, 0),
                    float(rng.choice([0.0, 90.0])))
            size = rng.uniform(1, 800, 3) * 10.0 ** rng.uniform(-1, 0)
            tilt = 10.0 ** rng.uniform(-12, -2) * rng.choice([-1, 1])
            lo_a, hi_a = box_corners(a).min(axis=0), box_corners(a).max(axis=0)
            b = box((0, 0, 1000), size, tilt)
            lo_b, hi_b = box_corners(b).min(axis=0), box_corners(b).max(axis=0)
            gap = float(rng.choice([0.0, 1e-13, -1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 3e-9]))
            dx = hi_a[0] - lo_b[0] + gap
            dy = rng.uniform(lo_a[1] - hi_b[1], hi_a[1] - lo_b[1])
            b = box((dx, dy, 1000), size, tilt)
            assert pairwise_iou([a], [b])[0, 0] == clip_iou(a, b)
            assert pairwise_iou([b], [a])[0, 0] == clip_iou(b, a)

    @pytest.mark.parametrize("rotation", RIGHT_ANGLES)
    def test_face_tangent_right_angle_pairs_score_zero(self, rotation):
        a = box((100, 200, 300), (40, 60, 80), rotation)
        (ux, uy), (vx, vy) = _axes(rotation)
        touching = [
            box((100 + 45 * ux, 200 + 45 * uy, 300), (50, 60, 80), rotation),
            box((100 + 35 * vx, 200 + 35 * vy, 300), (40, 10, 80), rotation),
            box((100, 200, 390), (40, 60, 100), rotation),
        ]
        assert (pairwise_iou([a], touching) == 0.0).all()
        assert (pairwise_iou(touching, [a]) == 0.0).all()

    def test_empty_sides(self):
        boxes = [box((0, 0, 0), (1, 1, 1)), box((5, 0, 0), (1, 1, 1), 30)]
        assert pairwise_iou([], boxes).shape == (0, 2)
        assert pairwise_iou(boxes, []).shape == (2, 0)
        assert pairwise_iou([], []).shape == (0, 0)

    @pytest.mark.parametrize("size", [1e-10, 1e-4])
    @pytest.mark.parametrize("rotation", RIGHT_ANGLES)
    def test_tiny_right_angle_box_self_iou_is_one(self, size, rotation):
        # Clipping scored boxes this small 0.0 (1e-10 mm) and up to
        # 1.00000000026 (1e-4 mm). They are outside the domain now, and the
        # smallest box inside it scores exactly 1.0 wherever it lies.
        for position in ((0, 0, 0), (1, 2, 3), (250.5, 100.25, 30), (1000, 2000, 500),
                         (MAX_MM, -MAX_MM, MAX_MM)):
            with pytest.raises(BoxError, match="size out of domain"):
                box(position, (size, 2 * size, 3 * size), rotation)
            b = box(position, (MIN_SIZE_MM, 2 * MIN_SIZE_MM, 3 * MIN_SIZE_MM), rotation)
            assert iou3d(b, b) == 1.0

    @given(_iou_sides())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_scalar_oracle(self, sides):
        boxes_a, boxes_b = sides
        assert pairwise_iou(boxes_a, boxes_b).tobytes() == _oracle_matrix(boxes_a, boxes_b).tobytes()

    def test_extreme_boxes_score_without_warnings(self):
        boxes = domain_corner_boxes()
        for side in (boxes, boxes[::-1]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                matrix = pairwise_iou(side, side)
            assert matrix.tobytes() == _oracle_matrix(side, side).tobytes()

    @given(_domain_corner_side())
    @settings(max_examples=200, deadline=None)
    def test_domain_corners_score_in_unit_interval_without_warnings(self, boxes):
        for side in (boxes, boxes[::-1]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                matrix = pairwise_iou(side, side)
            assert ((matrix >= 0.0) & (matrix <= 1.0)).all()  # False for NaN
            assert (np.diag(matrix) == 1.0).all()
            assert matrix.tobytes() == _oracle_matrix(side, side).tobytes()


class TestProjection:
    def test_axis_aligned_front_view_is_rectangle(self):
        segments = merge_segments(project_boxes([box((5, 5, 5), (2, 4, 6))], "front"))
        assert len(segments) == 4

    def test_rotated_top_view_is_rotated_rectangle(self):
        segments = project_boxes([box((0, 0, 0), (2, 4, 2), 45)], "top")
        assert len(segments) == 4

    def test_rotated_front_view_has_interior_lines(self):
        segments = project_boxes([box((0, 0, 0), (2, 4, 2), 45)], "front")
        assert len(segments) == 6

    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError):
            project_boxes([box((0, 0, 0), (1, 1, 1))], "rear")


#: Coordinates of drawn segments: ints, signed zeros, domain ends and floats.
_MERGE_COORDS = st.one_of(
    st.integers(-20, 20),
    st.sampled_from((0.0, -0.0, 0.5, -3.25, MAX_MM, -MAX_MM)),
    st.floats(-1e3, 1e3),
)
#: Segment lengths and chain gaps around CLIP_EPS, and ordinary ones.
_MERGE_STEPS = st.sampled_from((
    0, 0.0, -0.0, CLIP_EPS / 2, CLIP_EPS, math.nextafter(CLIP_EPS, 1.0), 2 * CLIP_EPS,
    1e-6, 1, 2.5, 400.0,
))


@st.composite
def merge_inputs(draw):
    """Horizontal, vertical and tilted segments, reversed, repeated, chained and shifted."""
    segments = []
    kinds = ("horizontal", "vertical", "tilted", "duplicate", "chain", "shifted")
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("duplicate", "chain", "shifted") and segments:
            p, q = draw(st.sampled_from(segments))
            if kind == "shifted":  # move the segment across its carrier key's rounding
                shift = draw(st.sampled_from((CLIP_EPS, 4e-7, 4e-6, -4e-6)))
                p, q = (p[0] + shift, p[1] + shift), (q[0] + shift, q[1] + shift)
            elif kind == "chain":  # continue the segment after a gap
                gap, length = draw(_MERGE_STEPS), draw(_MERGE_STEPS)
                dx, dy = q[0] - p[0], q[1] - p[1]
                if dy == 0:
                    p, q = (q[0] + gap, q[1]), (q[0] + gap + length, q[1])
                elif dx == 0:
                    p, q = (q[0], q[1] + gap), (q[0], q[1] + gap + length)
                else:
                    p, q = (q[0] + gap, q[1]), (q[0] + gap + dx, q[1] + dy)
        else:
            p = (draw(_MERGE_COORDS), draw(_MERGE_COORDS))
            length = draw(_MERGE_STEPS)
            if kind == "horizontal":
                q = (p[0] + length, p[1])
            elif kind == "vertical":
                q = (p[0], p[1] + length)
            else:
                q = (draw(_MERGE_COORDS), draw(_MERGE_COORDS))
        segments.append((q, p) if draw(st.booleans()) else (p, q))
    return segments


class TestMergeSegments:
    @given(merge_inputs())
    @settings(max_examples=1000, deadline=None)
    @example([((0, 0), (CLIP_EPS, 0)), ((0.0, -0.0), (5, 0.0)), ((5, 0.0), (0.0, 0.0))])
    @example([((-0.0, 3), (-0.0, 1)), ((0.0, 1), (0, 3.0)), ((0, 3 + CLIP_EPS), (0, 4))])
    @example([((1, 1), (1 + CLIP_EPS / 2, 1)), ((2, 2), (2, 2 + math.nextafter(CLIP_EPS, 1.0)))])
    def test_equals_oracle(self, segments):
        # `repr` tells ints, floats and zero signs apart.
        assert repr(merge_segments(segments)) == repr(merge_segments_oracle(segments))

    @given(merge_inputs())
    @settings(max_examples=300, deadline=None)
    def test_exact_duplicates_change_nothing(self, segments):
        # `render_views` drops exact duplicates before it merges.
        assert repr(merge_segments(dict.fromkeys(segments))) == repr(merge_segments(segments))

    def test_duplicates_collapse(self):
        seg = ((0.0, 0.0), (10.0, 0.0))
        assert merge_segments([seg, seg]) == [seg]

    def test_overlapping_collinear_merge(self):
        merged = merge_segments([((0, 0), (6, 0)), ((4, 0), (10, 0))])
        assert merged == [((0, 0), (10, 0))]

    def test_touching_merge_but_gap_stays(self):
        merged = merge_segments([((0, 0), (5, 0)), ((5, 0), (9, 0))])
        assert merged == [((0, 0), (9, 0))]
        kept = merge_segments([((0, 0), (4, 0)), ((5, 0), (9, 0))])
        assert len(kept) == 2

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        segments = project_boxes([random_box(rng, rotations=(0, 45, 90)) for _ in range(12)], "front")
        once = merge_segments(segments)
        assert merge_segments(once) == once

    def test_parallel_lines_stay_apart(self):
        merged = merge_segments([((0, 0), (5, 0)), ((0, 1), (5, 1))])
        assert len(merged) == 2


class TestModelAabb:
    def test_single_cube_centered_at_origin(self, catalog):
        model = CabinetModel(
            (make_instance(catalog, "M-DOOR", box((0, 0, 0), (1, 1, 1))),)
        )
        lo, hi = model_aabb(model)
        assert np.allclose(lo, (-0.5, -0.5, -0.5))
        assert np.allclose(hi, (0.5, 0.5, 0.5))

    def test_stacked_boxes_union(self, catalog):
        model = CabinetModel(
            (
                make_instance(catalog, "M-DOOR", box((0, 0, 1), (2, 2, 2))),
                make_instance(catalog, "M-DOOR", box((0, 0, 3), (2, 2, 2))),
            )
        )
        lo, hi = model_aabb(model)
        assert lo[2] == 0 and hi[2] == 4

    def test_matches_corner_enumeration(self, catalog):
        rng = np.random.default_rng(77)
        instances = tuple(
            make_instance(catalog, "M-SIDE", random_box(rng, rotations=(0, 30, 90)))
            for _ in range(10)
        )
        model = CabinetModel(instances)
        lo, hi = model_aabb(model)
        corners = np.vstack([box_corners(inst.box) for inst in model.instances])
        assert np.allclose(lo, corners.min(axis=0))
        assert np.allclose(hi, corners.max(axis=0))


QUARTER_TURNS = st.sampled_from([0.0, 90.0, 180.0, 270.0, -90.0, 450.0])
SMALL_TILTS = st.floats(1.0, 12.0) | st.floats(-12.0, -1.0)  # as in eval-dense-rotated


@st.composite
def bounded_boxes(draw, positions=st.floats(-MAX_MM, MAX_MM)):
    """Boxes of the domain at quarter turns, small tilts and any angle, from smallest to largest."""
    size = st.floats(MIN_SIZE_MM, 1.0) | st.floats(1.0, 1e4) | st.floats(1e4, MAX_MM)
    rotation = draw(QUARTER_TURNS | SMALL_TILTS | st.floats(-720.0, 720.0))
    return OrientedBox(
        (draw(positions), draw(positions), draw(positions)),
        (draw(size), draw(size), draw(size)),
        rotation,
    )


def _corner_bounds(boxes):
    """Each box's lo and hi, and whether it is at a right angle, from its 8 corners: the reference."""
    corners = [box_corners(b) for b in boxes]
    lo = np.array([c.min(axis=0) for c in corners]).reshape(len(boxes), 3)
    hi = np.array([c.max(axis=0) for c in corners]).reshape(len(boxes), 3)
    right = np.array([b.rotation_deg % 90.0 == 0.0 for b in boxes], dtype=bool)
    return lo, hi, right


def _corner_extents(boxes):
    """`box_extents` by enumerating each box's 8 corners: the reference."""
    lo, hi, _ = _corner_bounds(boxes)
    return [(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]


def _extent_bounds(boxes):
    """`box_extents` as lo and hi arrays (no right-angle mask)."""
    extents = box_extents(boxes)
    assert {type(c) for lo, hi in extents for c in lo + hi} == {float}
    bounds = np.array(extents).reshape(len(boxes), 2, 3)
    return bounds[:, 0], bounds[:, 1], None


def _array_bounds(boxes):
    """The arrays `pairwise_iou` reads; the tilted footprints are `footprints`' rows."""
    lo, hi, right, feet = geometry._extent_arrays(boxes)
    tilted = [b for b, r in zip(boxes, right) if not r]
    assert feet.tobytes() == (footprints(tilted) if tilted else np.empty((0, 4, 2))).tobytes()
    return lo, hi, right


def _signed_zero_boxes():
    """Boxes centred on +-0.0, or with a face on 0.0, at each quarter turn and tilted."""
    centres = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (-0.05, 0.05, -0.05), (0.05, -0.0, 0.05)]
    return [
        OrientedBox(centre, (0.1, 0.1, 0.1), rotation)
        for centre in centres
        for rotation in RIGHT_ANGLES + (1e-12, 7.5)
    ]


class TestBoxExtents:
    """`box_extents`, its arrays, and everything built on them, against corner enumeration."""

    @pytest.mark.parametrize("bounds", [_array_bounds, _extent_bounds], ids=["arrays", "extents"])
    @given(boxes=st.lists(bounded_boxes(), min_size=1, max_size=8))
    @example(boxes=domain_corner_boxes())
    @example(boxes=_signed_zero_boxes())
    @settings(max_examples=300, deadline=None)
    def test_equals_corner_enumeration_bit_for_bit(self, bounds, boxes):
        lo, hi, right = bounds(boxes)
        ref_lo, ref_hi, ref_right = _corner_bounds(boxes)
        assert lo.tobytes() == ref_lo.tobytes()
        assert hi.tobytes() == ref_hi.tobytes()
        assert right is None or (right == ref_right).all()

    @given(st.lists(bounded_boxes(positions=st.floats(-300.0, 3000.0)), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_models_match_corner_enumeration(self, catalog, boxes):
        model = _model(catalog, boxes)
        corners = np.vstack([box_corners(b) for b in boxes])
        lo, hi = model_aabb(model)
        assert lo.tobytes() == corners.min(axis=0).tobytes()
        assert hi.tobytes() == corners.max(axis=0).tobytes()

        expected = [
            f"instance {index}: box extends outside the first octant "
            f"(min corner coordinate {box_corners(b).min():.6f} mm)"
            for index, b in enumerate(boxes)
            if box_corners(b).min() < -OCTANT_EPS
        ]
        octant = [d.message for d in validate(model, catalog) if d.code == "octant"]
        assert octant == expected

    @given(st.lists(bounded_boxes(positions=st.floats(0.0, 3000.0)), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_annotate_matches_corner_enumeration(self, catalog, boxes):
        model = _model(catalog, boxes)
        views = render_views(model, ["front", "top", "side", "section"])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(drawing, "MIN_EXTENT_MM", 1e-9)  # dimension every instance
            annotated = annotate(views, model, catalog)
            patch.setattr(geometry, "box_extents", _corner_extents)
            reference = annotate(views, model, catalog)
        assert annotated == reference


def _segment_bits(segments):
    """Segments as bytes, so that a comparison also tells 0.0 from -0.0."""
    return np.array(segments, dtype=float).reshape(-1, 4).tobytes()


def _turned(model, rng, turn):
    """The model with every box turned about its center by `turn(rng)` degrees."""
    return CabinetModel(tuple(
        replace(inst, box=OrientedBox(inst.box.position, inst.box.size,
                                      inst.box.rotation_deg + float(turn(rng))))
        for inst in model.instances
    ))


TURNS = {
    "none": lambda rng: 0.0,
    "quarter": lambda rng: rng.choice(RIGHT_ANGLES),
    "tilt": lambda rng: rng.uniform(1.0, 12.0) * rng.choice([-1.0, 1.0]),
    "any": lambda rng: rng.uniform(-720.0, 720.0),
    "45": lambda rng: 45.0,
}


class TestProjectionOracle:
    """`project_boxes` against projecting all 12 box edges (`project_box_oracle`)."""

    @given(bounded_boxes())
    @settings(max_examples=500, deadline=None)
    def test_equals_twelve_edge_projection_bit_for_bit(self, b):
        for view in VIEW_KINDS:
            merged = merge_segments(project_boxes([b], view))
            assert _segment_bits(merged) == _segment_bits(project_box_oracle(b, view))

    @pytest.mark.parametrize("rotation", RIGHT_ANGLES + (None,))
    def test_domain_corners_equal_twelve_edge_projection(self, rotation):
        # A right-angle box draws the rectangle of its extent: at each quarter
        # turn, and (None) at the turns the domain corner boxes have.
        boxes = domain_corner_boxes() + _signed_zero_boxes()
        if rotation is not None:
            boxes = [OrientedBox(b.position, b.size, rotation) for b in boxes]
        for b in boxes:
            for view in VIEW_KINDS:
                merged = merge_segments(project_boxes([b], view))
                assert _segment_bits(merged) == _segment_bits(project_box_oracle(b, view))

    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(TURNS)),
        st.none() | st.lists(bounded_boxes(), min_size=1, max_size=8),
    )
    @example(3, "quarter", None)
    @example(0, "none", [OrientedBox(b.position, b.size, 90.0) for b in domain_corner_boxes()])
    @example(0, "none", domain_corner_boxes())
    @example(0, "none", _signed_zero_boxes())
    @settings(max_examples=80, deadline=None)
    def test_render_views_matches_twelve_edge_projection(self, catalog, seed, turn, boxes):
        # The reference merges each box and then each view.
        if boxes is None:
            model = _turned(generate(SynthSpec(seed=seed), catalog), np.random.default_rng(seed), TURNS[turn])
        else:
            model = _model(catalog, boxes)
        views = render_views(model, list(VIEW_KINDS))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "project_boxes",
                          lambda boxes, view: [s for b in boxes for s in project_box_oracle(b, view)])
            reference = render_views(model, list(VIEW_KINDS))
        assert [v.kind for v in views] == [v.kind for v in reference]
        for view, ref in zip(views, reference):
            assert _segment_bits(view.segments) == _segment_bits(ref.segments)
