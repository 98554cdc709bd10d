import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cabinetkit import (
    CabinetModel,
    OrientedBox,
    PrimitiveInstance,
    SynthSpec,
    generate,
    iou3d,
    make_instance,
)
from cabinetkit.codec import (
    LENGTH_BINS,
    LENGTH_RESOLUTION_MM,
    MAX_COMMANDS,
    ROTATION_BINS,
    CodecError,
    Command,
    CommandSequence,
    decode,
    dequantize_length,
    dequantize_rotation,
    encode,
    format_commands,
    parse_commands,
    quantize_length,
    quantize_rotation,
)


class TestLengthBins:
    def test_protocol_constants(self):
        assert LENGTH_BINS == 1500
        assert LENGTH_RESOLUTION_MM == 3.0
        assert ROTATION_BINS == 4

    def test_zero(self):
        assert quantize_length(0) == 0

    def test_mid(self):
        assert quantize_length(1500.0) == 500

    def test_top_edge_clamps(self):
        assert quantize_length(4500) == 1499
        assert quantize_length(99999) == 1499
        assert quantize_length(-5) == 0

    def test_bin_centers(self):
        assert dequantize_length(0) == 1.5
        assert dequantize_length(500) == 1501.5

    def test_out_of_range_bin_rejected(self):
        with pytest.raises(CodecError):
            dequantize_length(1500)
        with pytest.raises(CodecError):
            dequantize_length(-1)

    @given(v=st.floats(0, 4497))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_error_bound(self, v):
        assert abs(dequantize_length(quantize_length(v)) - v) <= 1.5


class TestRotationBins:
    @pytest.mark.parametrize(
        "deg,expected_bin,expected_deg",
        [
            (0, 0, 0.0),
            (89, 1, 90.0),
            (269, 3, 270.0),
            (45, 1, 90.0),   # half-way rounds up
            (135, 2, 180.0),
            (315, 0, 0.0),   # 315 rounds up to 360 -> bin 0
            (-90, 3, 270.0),
            (720, 0, 0.0),
        ],
    )
    def test_nearest_multiple(self, deg, expected_bin, expected_deg):
        b = quantize_rotation(deg)
        assert b == expected_bin
        assert dequantize_rotation(b) == expected_deg

    def test_multiples_are_exact(self):
        for k in range(8):
            deg = 90.0 * k
            assert dequantize_rotation(quantize_rotation(deg)) == deg % 360.0


class TestCommands:
    def test_bin_ranges_enforced(self):
        with pytest.raises(CodecError):
            Command(0, (0, 0, 1500), (1, 1, 1), 0)
        with pytest.raises(CodecError):
            Command(0, (0, 0, 0), (1, 1, 1), 4)
        with pytest.raises(CodecError):
            Command(-1, (0, 0, 0), (1, 1, 1), 0)

    def test_sequence_length_cap(self):
        command = Command(0, (1, 1, 1), (1, 1, 1), 0)
        CommandSequence((command,) * MAX_COMMANDS)
        with pytest.raises(CodecError):
            CommandSequence((command,) * (MAX_COMMANDS + 1))


class TestEncodeDecode:
    def test_single_instance(self, catalog, simple_model):
        seq = encode(simple_model, catalog)
        assert len(seq) == len(simple_model)
        assert seq.token_count == 8 * len(simple_model) + 2

    def test_unknown_model_rejected(self, catalog):
        from cabinetkit import PrimitiveInstance

        bad = CabinetModel(
            (
                PrimitiveInstance(
                    model_id="M-NOPE", box=OrientedBox((1, 1, 1), (1, 1, 1))
                ),
            )
        )
        with pytest.raises(KeyError):
            encode(bad, catalog)

    def test_ids_and_order_preserved(self, catalog):
        for seed in range(10):
            model = generate(SynthSpec(seed=seed), catalog)
            decoded = decode(encode(model, catalog), catalog)
            assert len(decoded) == len(model)
            assert [i.model_id for i in decoded.instances] == [
                i.model_id for i in model.instances
            ]

    def test_box_error_bounds(self, catalog):
        # The 0.98 floor needs the full >=300mm extent range: when all three
        # extents sit right at 300 the worst-case quantization loss dips to
        # ~0.97, so tiny boxes alone would be an unfair sample.
        rng = np.random.default_rng(2)
        for _ in range(100):
            position = tuple(rng.uniform(200, 4000, 3))
            size = tuple(rng.uniform(300, 2000, 3))
            rotation = float(rng.choice((0.0, 90.0, 180.0, 270.0)))
            model = CabinetModel(
                (make_instance(catalog, "M-DOOR", OrientedBox(position, size, rotation)),)
            )
            decoded = decode(encode(model, catalog), catalog)
            a = model.instances[0].box
            b = decoded.instances[0].box
            for axis in range(3):
                assert abs(a.position[axis] - b.position[axis]) <= 1.5
                assert abs(a.size[axis] - b.size[axis]) <= 1.5
            assert b.rotation_deg == a.rotation_deg
            assert iou3d(a, b) >= 0.98

    def test_decoded_params_are_defaults(self, catalog, simple_model):
        decoded = decode(encode(simple_model, catalog), catalog)
        base = decoded.instances[0]
        assert base.model_id == "M-BB01"
        assert base.params == catalog.require("M-BB01").defaults()
        assert decoded.instances[1].params == {}

    def test_empty_sequence_rejected(self, catalog):
        with pytest.raises(CodecError):
            decode(CommandSequence(()), catalog)

    def test_one_warning_counts_clamped_lengths(self, catalog, caplog):
        inside = OrientedBox((100, 100, 100), (50, 50, 50))
        outside = OrientedBox((-100, -100, -100), (5000, 5000, 5000))
        model = CabinetModel(
            tuple(make_instance(catalog, "M-SIDE", b) for b in (inside, outside, inside))
        )
        with caplog.at_level(logging.WARNING, logger="cabinetkit.codec"):
            encode(model, catalog)
        assert [r.getMessage() for r in caplog.records] == [
            "6 length(s) outside [0, 4500] mm clamped"
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cabinetkit.codec"):
            encode(CabinetModel((make_instance(catalog, "M-SIDE", inside),)), catalog)
        assert caplog.records == []


class TestWireFormat:
    def test_round_trip(self, catalog, simple_model):
        seq = encode(simple_model, catalog)
        text = format_commands(seq)
        lines = text.strip().splitlines()
        assert lines[0] == "<s>"
        assert lines[-1] == "</s>"
        assert len(lines) == len(simple_model) + 2
        assert parse_commands(text) == seq

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 3\n</s>\n",                      # missing start
            "<s>\n0 1 2 3 4 5 6 0\n",             # missing end
            "<s>\n0 1 2 3\n</s>\n",               # wrong arity
            "<s>\n0 1 2 3 4 5 6 nine\n</s>\n",    # non-integer
            "<s>\n0 1 2 3 4 5 1500 0\n</s>\n",    # bin out of range
            "<s>\n<s>\n</s>\n</s>\n",             # duplicated sentinels
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(CodecError):
            parse_commands(text)

    def test_injective_on_grid_models(self, catalog):
        rng = np.random.default_rng(8)
        seen = {}
        for _ in range(200):
            position = tuple(float(3 * int(v) + 1.5) for v in rng.integers(10, 800, 3))
            size = tuple(float(3 * int(v) + 1.5) for v in rng.integers(10, 200, 3))
            model = CabinetModel(
                (make_instance(catalog, "M-DOOR", OrientedBox(position, size)),)
            )
            key = format_commands(encode(model, catalog))
            if key in seen:
                assert seen[key] == (position, size)
            seen[key] = (position, size)


# Positions and sizes at and around the bin edges and the clamp range
# [0, 4500] mm, the box domain's ends, and anything in between.
CODEC_POSITIONS = (
    st.sampled_from([0.0, -0.0, 2.9999999999999996, 3.0, 4497.0, 4499.999999999999, 4500.0,
                     4500.000000000001, -1e-300, -3.0, 1e6, -1e6])
    | st.integers(-1000, 2000).map(lambda k: k * LENGTH_RESOLUTION_MM)
    | st.floats(-10.0, 4510.0)
    | st.floats(-1e6, 1e6)
)
CODEC_SIZES = (
    st.sampled_from([0.1, 2.9999999999999996, 3.0, 4499.999999999999, 4500.0,
                     4500.000000000001, 1e6])
    | st.integers(1, 2000).map(lambda k: k * LENGTH_RESOLUTION_MM)
    | st.floats(0.1, 4510.0)
    | st.floats(0.1, 1e6)
)
CODEC_ROTATIONS = (
    st.integers(-16, 16).map(lambda k: k * 45.0)
    | st.sampled_from([44.99999999999999, 45.00000000000001, 359.99999999999994, -0.0])
    | st.floats(-1e6, 1e6)
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def codec_instances(draw, model_ids):
    """An instance of any catalog ID or an unknown one; now and then a field is
    made non-finite behind `OrientedBox`'s back, as no parser would allow."""
    position = tuple(draw(CODEC_POSITIONS) for _ in range(3))
    size = tuple(draw(CODEC_SIZES) for _ in range(3))
    box = OrientedBox(position, size, draw(CODEC_ROTATIONS))
    field = draw(st.sampled_from([None] * 6 + ["position", "size", "rotation_deg"]))
    if field == "rotation_deg":
        object.__setattr__(box, field, draw(NON_FINITE))
    elif field is not None:
        values = list(getattr(box, field))
        values[draw(st.integers(0, 2))] = draw(NON_FINITE)
        object.__setattr__(box, field, tuple(values))
    model_id = draw(st.sampled_from(model_ids) | st.just("M-NOPE"))
    return PrimitiveInstance(model_id=model_id, box=box)


def reference_commands(model, catalog) -> tuple[str, int]:
    """The wire text field by field from the quantizers and the catalog's slot order,
    and the number of lengths outside [0, 4500] mm."""
    lines = ["<s>"]
    clamped = 0
    for instance in model.instances:
        if instance.model_id not in catalog.model_ids:
            raise KeyError(f"unknown model_id {instance.model_id!r}")
        lengths = instance.box.position + instance.box.size
        tokens = [catalog.model_ids.index(instance.model_id)]
        tokens += [quantize_length(c) for c in lengths]
        tokens.append(quantize_rotation(instance.box.rotation_deg))
        clamped += sum(not 0.0 <= c <= 4500.0 for c in lengths)
        lines.append(" ".join(map(str, tokens)))
    lines.append("</s>")
    return "\n".join(lines) + "\n", clamped


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_encode_equals_the_per_field_reference(catalog, data):
    from unittest import mock

    from cabinetkit import codec

    instances = data.draw(st.lists(codec_instances(catalog.model_ids), min_size=1, max_size=8))
    model = CabinetModel(tuple(instances))
    try:
        expected, clamped = reference_commands(model, catalog)
    except (KeyError, CodecError) as exc:
        with mock.patch.object(codec.logger, "warning") as warning:
            with pytest.raises(type(exc)) as raised:
                encode(model, catalog)
        assert str(raised.value) == str(exc)
        assert warning.call_args_list == []
        return
    with mock.patch.object(codec.logger, "warning") as warning:
        assert format_commands(encode(model, catalog)) == expected
    calls = [mock.call("%d length(s) outside [0, %.0f] mm clamped", clamped, 4500.0)]
    assert warning.call_args_list == (calls if clamped else [])


# A right-angle box decodes to the same quarter turn. Along each world axis
# an end of its extent of length s moves by at most 2.25 mm (1.5 mm of
# position, half of 1.5 mm of size), so the overlap of the two extents is at
# least s - 2.25 mm and their union at most s + 2.25 mm. The IoU is at least
# the product of these ratios, each above (s - 3) / (s + 3).
@given(
    st.tuples(*[st.floats(0.0, 4500.0, exclude_max=True)] * 3),
    st.tuples(*[st.floats(3.0, 4500.0, exclude_min=True, exclude_max=True)] * 3),
    st.sampled_from([0.0, 90.0, 180.0, 270.0]),
)
@settings(max_examples=300, deadline=None)
@example((1.5, 2248.5, 4499.99), (4.5, 1000.0, 4499.0), 90.0)
@example((0.0, 0.0, 0.0), (5.999, 5.999, 5.999), 0.0)
def test_decoded_right_angle_box_keeps_a_size_bounded_iou(catalog, position, size, rotation):
    box = OrientedBox(position, size, rotation)
    model = CabinetModel((make_instance(catalog, "M-DOOR", box),))
    decoded = decode(encode(model, catalog), catalog).instances[0].box
    assert iou3d(box, decoded) >= math.prod((s - 3.0) / (s + 3.0) for s in size)
