import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml  # independent reader for format conformance
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cabinetkit import (
    CabinetModel,
    OrientedBox,
    PrimitiveInstance,
    SynthSpec,
    emit_python,
    emit_yaml,
    generate,
    make_instance,
    parse_python,
    parse_yaml,
    validate,
)
import cabinetkit
from cabinetkit import program, ryaml
from cabinetkit.diagnostics import has_errors
from helpers import awkward_text, synthesized_models, tilted
from parse_cases import _YAML_ALPHABET, _mutate

_DOOR_YAML = """\
cabinet:
- id: M-DOOR
  position: [10, 10, 10]
  size: [5, 5, 5]
  rotation: 0
"""

TWO_STATEMENTS = """\
b0 = Box(position=(300, 200, 1000), size=(600, 400, 2000), rotation=0)
m0 = Model(id="M-BB01", box=b0, N=2, NKA=298, NKB=298, DBXX=1)
"""


class TestParsePython:
    def test_two_statement_block(self, catalog):
        result = parse_python(TWO_STATEMENTS, catalog)
        assert result.ok
        model = result.model
        assert len(model) == 1
        inst = model.instances[0]
        assert inst.model_id == "M-BB01"
        assert inst.box.position == (300.0, 200.0, 1000.0)
        assert inst.box.size == (600.0, 400.0, 2000.0)
        assert tuple(inst.params.items()) == (
            ("N", 2), ("NKA", 298), ("NKB", 298), ("DBXX", 1),
        )

    def test_empty_params(self, catalog):
        text = (
            "b0 = Box(position=(10, 10, 10), size=(5, 5, 5), rotation=0)\n"
            'm0 = Model(id="M-DOOR", box=b0)\n'
        )
        result = parse_python(text, catalog)
        assert result.ok
        assert result.model.instances[0].params == {}
        assert result.model.instances[0].name == "door"

    def test_vector_arity_error_has_span(self, catalog):
        text = (
            "b0 = Box(position=(300, 200, 1000), size=(600, 400), rotation=0)\n"
            'm0 = Model(id="M-DOOR", box=b0)\n'
        )
        result = parse_python(text, catalog)
        assert not result.ok
        syntax = [d for d in result.diagnostics if d.code == "syntax"]
        assert syntax and syntax[0].span is not None
        assert 0 <= syntax[0].span.offset < len(text)
        assert "3 components" in syntax[0].message

    def test_unknown_model_is_found_by_validate_at_the_id(self, catalog):
        text = (
            "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
            'm0 = Model(id="M-MYSTERY", box=b0, QQ=12)\n'
        )
        result = parse_python(text, catalog)
        assert result.ok and result.diagnostics == []
        # unknown params preserved verbatim, as text
        assert result.model.instances[0].params == {"QQ": "12"}
        found = validate(result.model, catalog, spans=result.id_spans())
        assert [(d.severity, d.code, str(d.span)) for d in found] == [
            ("error", "unknown-model", "2:15")
        ]

    def test_empty_model_id_is_an_error_at_the_id(self, catalog):
        text = (
            "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
            'm0 = Model(id="", box=b0)\n'
        )
        result = parse_python(text, catalog)
        assert not result.ok
        assert [(d.severity, d.code, str(d.span)) for d in result.diagnostics] == [
            ("error", "empty-id", "2:15")
        ]

    def test_unknown_param_on_known_model_preserved_as_text(self, catalog):
        text = (
            "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
            'm0 = Model(id="M-DOOR", box=b0, ZZ=4.5)\n'
        )
        result = parse_python(text, catalog)
        assert result.ok
        assert result.model.instances[0].params == {"ZZ": "4.5"}

    def test_schema_violation_is_found_by_validate_at_the_id(self, catalog):
        text = (
            "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
            'm0 = Model(id="M-BB01", box=b0, N=1, NKA=300, DBXX=9)\n'
        )
        result = parse_python(text, catalog)
        assert result.ok and result.diagnostics == []
        assert result.model.instances[0].params == {"N": 1, "NKA": 300, "DBXX": 9}
        found = validate(result.model, catalog, spans=result.id_spans())
        assert [(d.severity, d.code, str(d.span)) for d in found] == [
            ("error", "param-value", "2:15"),
            ("warning", "width-closure", "2:15"),
        ]

    def test_duplicate_param_key_is_error(self, catalog):
        text = (
            "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
            'm0 = Model(id="M-DOOR", box=b0, AA=1, AA=2)\n'
        )
        assert not parse_python(text, catalog).ok

    def test_box_reference_must_match(self, catalog):
        text = (
            "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
            'm0 = Model(id="M-DOOR", box=b9)\n'
        )
        result = parse_python(text, catalog)
        assert not result.ok

    def test_comments_discarded(self, catalog):
        text = (
            "# a comment line\n"
            "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)  # trailing\n"
            'm0 = Model(id="M-DOOR", box=b0)\n'
        )
        result = parse_python(text, catalog)
        assert result.ok
        assert emit_python(result.model, catalog).count("#") == 0

    def test_error_recovery_reports_multiple(self, catalog):
        text = (
            "b0 = Box(position=(1, 1), size=(1, 1, 1), rotation=0)\n"
            "b1 = Bax(nothing)\n"
            "b2 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
            'm2 = Model(id="M-DOOR", box=b2)\n'
        )
        result = parse_python(text, catalog)
        assert not result.ok
        assert sum(d.severity == "error" for d in result.diagnostics) >= 2


class TestByteOrderMark:
    """Both parsers drop one leading U+FEFF, from str and from bytes, as PyYAML does."""

    SYNTAXES = [(emit_python, parse_python), (emit_yaml, parse_yaml)]

    @pytest.mark.parametrize("emit, parse", SYNTAXES)
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_one_leading_bom_is_dropped(self, emit, parse, as_bytes, catalog):
        model = generate(SynthSpec(seed=5), catalog)
        text = "\ufeff" + emit(model, catalog)
        result = parse(text.encode("utf-8") if as_bytes else text, catalog)
        assert result.model == model and result.diagnostics == []
        assert result.id_spans() == parse(emit(model, catalog), catalog).id_spans()

    @pytest.mark.parametrize("text, parse", [
        ("\ufeff" + TWO_STATEMENTS.replace("b0 =", "b0 = =", 1), parse_python),
        ("\ufeff" + _DOOR_YAML.replace("rotation: 0", "rotation: [0"), parse_yaml),
    ])
    def test_spans_count_from_after_the_bom(self, text, parse, catalog):
        assert parse(text, catalog).diagnostics == parse(text[1:], catalog).diagnostics
        assert parse(text, catalog).diagnostics

    @pytest.mark.parametrize("emit, parse", SYNTAXES)
    def test_only_one_bom_is_dropped(self, emit, parse, catalog):
        text = "\ufeff\ufeff" + emit(generate(SynthSpec(seed=5), catalog), catalog)
        result = parse(text, catalog)
        assert result.model is None
        assert [diag.code for diag in result.diagnostics] == ["syntax"]


class TestParseYaml:
    def test_single_entry(self, catalog):
        text = """\
cabinet:
- id: M-DOOR
  position: [450, 9, 1000]
  size: [564, 18, 1764]
  rotation: 0
"""
        result = parse_yaml(text, catalog)
        assert result.ok
        inst = result.model.instances[0]
        assert inst.model_id == "M-DOOR"
        assert inst.name == "door"  # filled from the catalog
        assert inst.box.size == (564.0, 18.0, 1764.0)

    def test_rotation_canonicalized(self, catalog):
        text = """\
cabinet:
- id: M-DOOR
  position: [10, 10, 10]
  size: [5, 5, 5]
  rotation: 450
"""
        result = parse_yaml(text, catalog)
        assert result.ok
        assert result.model.instances[0].box.rotation_deg == 90.0

    def test_instance_count_filter(self, catalog):
        def doc(n):
            entries = []
            for i in range(n):
                entries.append(
                    f"- id: M-SHFX\n  position: [{100 + i * 40}, 100, 100]\n"
                    f"  size: [30, 30, 30]\n  rotation: 0"
                )
            return "cabinet:\n" + "\n".join(entries) + "\n"

        ok48 = parse_yaml(doc(48), catalog)
        assert ok48.ok
        assert validate(ok48.model, catalog, filters=True) == []

        ok49 = parse_yaml(doc(49), catalog)
        assert ok49.ok  # parse succeeds; the filter flags it
        diags = validate(ok49.model, catalog, filters=True)
        assert any(d.code == "filter-count" for d in diags)

    def test_emitted_yaml_readable_by_standard_reader(self, catalog, simple_model):
        data = yaml.safe_load(emit_yaml(simple_model, catalog))
        assert [e["id"] for e in data["cabinet"]] == ["M-BB01", "M-DOOR", "M-SHAD"]
        entry = data["cabinet"][0]
        assert entry["position"] == [600, 200, 900]
        assert entry["params"]["DBXX"] == 1

    def test_anchor_rejected(self, catalog):
        text = "cabinet:\n- id: &a M-DOOR\n  position: [1, 1, 1]\n  size: [1, 1, 1]\n  rotation: 0\n"
        result = parse_yaml(text, catalog)
        assert not result.ok

    @pytest.mark.parametrize(
        "text, key",
        [
            ("version: 2\n" + _DOOR_YAML, "version"),
            (_DOOR_YAML + "cabinets: []\n", "cabinets"),
            (_DOOR_YAML.replace("cabinet:", "cabinets:"), "cabinets"),
        ],
        ids=["before", "after", "instead"],
    )
    def test_unknown_top_level_key_is_syntax_error(self, catalog, text, key):
        result = parse_yaml(text, catalog)
        assert not result.ok
        diag = result.diagnostics[0]
        assert (diag.code, diag.message) == ("syntax", f"unknown top-level key {key!r}")
        assert (diag.span.offset, diag.span.length) == (text.index(key + ":"), len(key))

    @pytest.mark.parametrize(
        "value", ["5", "5.0", "[a]", "[]", "\n    first: a"], ids=["int", "float", "seq", "empty", "map"]
    )
    def test_name_must_be_a_string(self, catalog, value):
        text = _DOOR_YAML.replace("  position:", f"  name: {value}\n  position:")
        result = parse_yaml(text, catalog)
        assert not result.ok
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("syntax", "'name' must be a string")
        ]
        assert result.diagnostics[0].span.offset == text.index(value.strip())


    def test_empty_model_id_is_an_error_at_the_id(self, catalog):
        door = CabinetModel((make_instance(catalog, "M-DOOR", OrientedBox((9, 9, 9), (5, 5, 5))),))
        emitted = emit_yaml(door, catalog)  # laid out for the one-regex accept path
        texts = [_DOOR_YAML.replace("M-DOOR", '""'), _DOOR_YAML.replace("M-DOOR", "''"),
                 emitted.replace("- id: M-DOOR", '- id: ""')]
        for text in texts:
            result = parse_yaml(text, catalog)
            assert not result.ok
            assert [(d.severity, d.code, str(d.span)) for d in result.diagnostics] == [
                ("error", "empty-id", "2:7")
            ]


def _accept_path_agrees(text: str, catalog) -> bool:
    """Whether the accept path took `text`; asserts that it read it as `ryaml` does."""
    try:
        model = program._read_emitted_yaml(text, catalog)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            program._parse_yaml_tree(text, catalog)
        return True
    if model is None:
        return False
    reference = program._parse_yaml_tree(text, catalog)
    assert reference.diagnostics == []
    assert repr(model) == repr(reference.model)
    return True


@st.composite
def emitted_yaml(draw, catalog):
    """An emitted default-spec program, maybe tilted, maybe with an awkward
    name, maybe with an instance the catalog does not accept."""
    seed = draw(st.integers(0, 10_000))
    model = generate(SynthSpec(seed=seed), catalog)
    if draw(st.booleans()):
        model = tilted(model, seed)
    if draw(st.booleans()):
        first = dataclasses.replace(model.instances[0], name=draw(awkward_text()))
        model = CabinetModel((first,) + model.instances[1:])
    if draw(st.booleans()):
        k = draw(st.integers(0, len(model) - 1))
        instance = model.instances[k]
        drift = draw(st.sampled_from(["id", "param", "value"]))
        if drift == "id":
            instance = dataclasses.replace(instance, model_id="M-MYSTERY")
        else:
            key = "QQ" if drift == "param" else "DBXX"
            value = draw(st.sampled_from([9, 1.5, -0.0, "x"]))
            instance = dataclasses.replace(instance, params={**instance.params, key: value})
        model = CabinetModel(model.instances[:k] + (instance,) + model.instances[k + 1:])
    return emit_yaml(model, catalog)


class TestYamlAcceptPath:
    @pytest.mark.parametrize("seed", range(8))
    def test_emitted_programs_never_reach_the_node_reader(self, catalog, monkeypatch, seed):
        def node_reader(text):
            raise AssertionError("parse_yaml read an emitted program through ryaml.parse")

        monkeypatch.setattr(ryaml, "parse", node_reader)
        for model in synthesized_models(catalog, seed):
            result = parse_yaml(emit_yaml(model, catalog), catalog)
            assert result.diagnostics == []
            assert result.model == model

    def test_catalog_findings_never_reach_the_node_reader(self, catalog, monkeypatch):
        def node_reader(text):
            raise AssertionError("parse_yaml read an emitted program through ryaml.parse")

        monkeypatch.setattr(ryaml, "parse", node_reader)
        door = OrientedBox((10, 10, 10), (5, 5, 5))
        unknown_id = PrimitiveInstance("M-MYSTERY", door, params={"QQ": 12})
        unknown_param = make_instance(catalog, "M-SIDE", door, {"FOO": 1.5})
        bad_value = make_instance(catalog, "M-BB01", door, {"N": 1, "NKA": 300, "DBXX": 9})
        text = emit_yaml(CabinetModel((unknown_id, unknown_param, bad_value)), catalog)
        result = parse_yaml(text.replace("FOO: 1.5\n", "FOO: 1.50\n"), catalog)
        assert result.diagnostics == []
        assert result.model == CabinetModel((
            dataclasses.replace(unknown_id, params={"QQ": "12"}),
            dataclasses.replace(unknown_param, params={"FOO": "1.50"}),
            bad_value,
        ))
        found = validate(result.model, catalog)
        assert {"unknown-model", "unknown-param", "param-value"} <= {d.code for d in found}

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_accept_path_agrees_with_the_node_reader(self, catalog, data):
        text = data.draw(emitted_yaml(catalog))
        assert _accept_path_agrees(text, catalog)
        rng = data.draw(st.randoms(use_true_random=False))
        for _ in range(4):
            _accept_path_agrees(_mutate(text, rng, _YAML_ALPHABET), catalog)


class TestRoundTrip:
    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_python_round_trip_generated(self, seed, catalog):
        model = generate(SynthSpec(seed=seed), catalog)
        result = parse_python(emit_python(model, catalog), catalog)
        assert result.ok and result.diagnostics == []
        assert result.model == model
        for a, b in zip(model.instances, result.model.instances):
            assert tuple(a.params.items()) == tuple(b.params.items())

    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_yaml_round_trip_generated(self, seed, catalog):
        model = generate(SynthSpec(seed=seed), catalog)
        result = parse_yaml(emit_yaml(model, catalog), catalog)
        assert result.ok and result.diagnostics == []
        assert result.model == model

    @given(
        model_id=awkward_text(min_size=1),
        name=awkward_text(),
        text=awkward_text(),
    )
    @settings(max_examples=200, deadline=None)
    def test_yaml_round_trip_of_arbitrary_text(self, model_id, name, text, catalog):
        assume(model_id not in catalog)
        inst = PrimitiveInstance(
            model_id=model_id,
            box=OrientedBox((300, 200, 100), (600, 400, 200)),
            name=name,
            params={"TXT": text},
        )
        model = CabinetModel((inst, inst))
        assert parse_yaml(emit_yaml(model, catalog), catalog).model == model

    # Line breaks are left out: the Python syntax has no escape for them.
    @given(
        model_id=awkward_text(min_size=1, line_breaks=False),
        text=awkward_text(line_breaks=False),
    )
    @example(model_id='ab"', text="")
    @example(model_id="x\\", text='a\\"b')
    @settings(max_examples=200, deadline=None)
    def test_python_round_trip_of_arbitrary_text(self, model_id, text, catalog):
        assume(model_id not in catalog)
        inst = PrimitiveInstance(
            model_id=model_id,
            box=OrientedBox((300, 200, 100), (600, 400, 200)),
            params={"TXT": text},
        )
        model = CabinetModel((inst, inst))
        assert parse_python(emit_python(model, catalog), catalog).model == model

    @pytest.mark.parametrize("model_id, text", [("M-X\n", ""), ("M-X", "a\nb")])
    def test_python_refuses_line_breaks(self, model_id, text, catalog):
        inst = PrimitiveInstance(
            model_id=model_id,
            box=OrientedBox((300, 200, 100), (600, 400, 200)),
            params={"TXT": text},
        )
        value = model_id if "\n" in model_id else text
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            emit_python(CabinetModel((inst,)), catalog)

    def test_python_syntax_drops_the_name(self, catalog):
        inst = make_instance(catalog, "M-BB01", OrientedBox((300, 200, 100), (600, 400, 200)))
        named = dataclasses.replace(inst, name="fid shelf")
        model = CabinetModel((named,))
        assert parse_yaml(emit_yaml(model, catalog), catalog).model == model
        back = parse_python(emit_python(model, catalog), catalog).model
        assert back.instances[0].name == inst.name == "base box"
        assert back == CabinetModel((inst,))

    def test_fractional_and_rotated_values(self, catalog):
        inst = make_instance(
            catalog,
            "M-DOOR",
            OrientedBox((10.5, 0.25, 3.125), (1.1, 2.2, 3.3), 137.5),
        )
        model = CabinetModel((inst,))
        for emit, parse in (
            (emit_python, parse_python),
            (emit_yaml, parse_yaml),
        ):
            result = parse(emit(model, catalog), catalog)
            assert result.ok
            assert result.model == model

    def test_text_params_round_trip(self, catalog):
        inst = PrimitiveInstance(
            model_id="M-UNKNOWN",
            box=OrientedBox((1, 1, 1), (1, 1, 1)),
            params={"TXT": 'he said "hi"\\later', "NUM": 42, "REAL": 4.25},
        )
        model = CabinetModel((inst,))
        for emit, parse in (
            (emit_python, parse_python),
            (emit_yaml, parse_yaml),
        ):
            result = parse(emit(model, catalog), catalog)
            assert result.ok
            got = result.model.instances[0].params
            assert got["TXT"] == 'he said "hi"\\later'
            # unknown-model params come back as verbatim text
            assert got["NUM"] == "42"
            assert got["REAL"] == "4.25"

    def test_float_params_keep_their_type(self, catalog):
        inst = make_instance(
            catalog,
            "M-BB01",
            OrientedBox((10, 10, 10), (5, 5, 5)),
            {"N": 1, "NKA": 1e16, "DBXX": 1},
        )
        model = CabinetModel((inst,))
        for emit, parse in ((emit_python, parse_python), (emit_yaml, parse_yaml)):
            text = emit(model, catalog)
            assert "10000000000000000.0" in text
            result = parse(text, catalog)
            assert result.ok and result.model == model
            assert isinstance(result.model.instances[0].params["NKA"], float)

    def test_emission_deterministic(self, catalog, simple_model):
        assert emit_python(simple_model, catalog) == emit_python(simple_model, catalog)
        assert emit_yaml(simple_model, catalog) == emit_yaml(simple_model, catalog)

    def test_two_statements_per_primitive(self, catalog, simple_model):
        lines = [l for l in emit_python(simple_model, catalog).splitlines() if l]
        assert len(lines) == 2 * len(simple_model)
        assert all(" = Box(" in l for l in lines[0::2])
        assert all(" = Model(" in l for l in lines[1::2])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_yaml_longer_than_python(self, seed, catalog):
        model = generate(SynthSpec(seed=seed), catalog)
        assert len(emit_yaml(model, catalog)) > len(emit_python(model, catalog))


class TestTotality:
    @given(text=st.text(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_python_parser_never_raises(self, text, catalog):
        result = parse_python(text, catalog)
        for diag in result.diagnostics:
            if diag.span is not None:
                assert 0 <= diag.span.offset <= len(text)

    @given(text=st.text(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_yaml_parser_never_raises(self, text, catalog):
        parse_yaml(text, catalog)

    @given(blob=st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_parsers_accept_arbitrary_bytes(self, blob, catalog):
        parse_python(blob, catalog)
        parse_yaml(blob, catalog)

    def test_huge_numbers_become_diagnostics(self, catalog):
        digits = "9" * 400
        text = (
            f"b0 = Box(position=({digits}, 1, 1), size=(1, 1, 1), rotation=0)\n"
            'm0 = Model(id="M-DOOR", box=b0)\n'
        )
        result = parse_python(text, catalog)
        assert not result.ok

    HUGE = "9" * 400  # an integer that converts to an infinite float
    BIG = "1" + "0" * 200  # finite, but far outside the box domain
    JUST_OVER = "1000000.0000000001"  # the float after the domain's 1e6 mm bound
    POSITION = "position out of domain: each component must lie in [-1e+06, 1e+06] mm"
    SIZE = "size out of domain: each component must lie in [0.1, 1e+06] mm"

    @pytest.mark.parametrize(
        "box_args, argument, message",
        [
            (f"position=({HUGE}, 1, 1), size=(1, 1, 1), rotation=0",
             "position=", POSITION),
            (f"rotation=0, size=(1, 1, 1), position=(1, {HUGE}, 1)",
             "position=", POSITION),
            (f"position=(1, 1, 1), size=(1, 1, {HUGE}), rotation=0",
             "size=", SIZE),
            ("size=(1, 0, 1), position=(1, 1, 1), rotation=0",
             "size=", SIZE),
            (f"position=(1, 1, 1), size=({BIG}, {BIG}, 1), rotation=0",
             "size=", SIZE),
            (f"position=(1, 1, 1), size=(1, 1, 1), rotation={HUGE}",
             "rotation=", "rotation must be finite"),
            (f"rotation={HUGE}, position=(1, 1, 1), size=(1, 1, 1)",
             "rotation=", "rotation must be finite"),
            # YAML entries: "key: " is the argument, and the span starts
            # at the node after it (a flow "[", a block "-" or the number).
            (f"position: [{HUGE}, 1, 1]\n  size: [1, 1, 1]\n  rotation: 0",
             "position: ", POSITION),
            ("position: [1, 1, 1]\n  size: [1, -1, 1]\n  rotation: 0",
             "size: ", SIZE),
            ("rotation: 0\n  position: [1, 1, 1]\n  size:\n  - 1\n  - 0\n  - 1",
             "size:\n  ", SIZE),
            (f"position: [1, 1, 1]\n  size: [{BIG}, {BIG}, 1]\n  rotation: 0",
             "size: ", SIZE),
            (f"position: [1, 1, 1]\n  size: [1, 1, 1]\n  rotation: {HUGE}",
             "rotation: ", "rotation must be finite"),
            # Values just outside the box domain, in both syntaxes.
            ("position=(1, 1, 1), size=(1, 0.0999, 1), rotation=0", "size=", SIZE),
            (f"position=(1, 1, 1), size=(1, 1, {JUST_OVER}), rotation=0", "size=", SIZE),
            (f"position=(1, -{JUST_OVER}, 1), size=(1, 1, 1), rotation=0", "position=", POSITION),
            (f"position=(1, 1, -{HUGE}), size=(1, 1, 1), rotation=0", "position=", POSITION),
            ("position: [1, 1, 1]\n  size: [0.0999, 1, 1]\n  rotation: 0", "size: ", SIZE),
            (f"position: [1, 1, 1]\n  size: [{JUST_OVER}, 1, 1]\n  rotation: 0", "size: ", SIZE),
            (f"position: [{JUST_OVER}, 1, 1]\n  size: [1, 1, 1]\n  rotation: 0", "position: ", POSITION),
            (f"position: [1, 1, 1]\n  size: [1, {HUGE}, 1]\n  rotation: 0", "size: ", SIZE),
        ],
    )
    def test_box_rejection_points_at_the_argument(self, catalog, box_args, argument, message):
        if argument.endswith("="):
            text = f"b0 = Box({box_args})\n" 'm0 = Model(id="M-DOOR", box=b0)\n'
            [diag] = parse_python(text, catalog).diagnostics
        else:
            text = f"cabinet:\n- id: M-DOOR\n  {box_args}\n"
            [diag] = parse_yaml(text, catalog).diagnostics
        assert (diag.severity, diag.code, diag.message) == ("error", "syntax", message)
        offset = text.index(argument) + len(argument)  # the vector's "(" or the number
        line = text.count("\n", 0, offset) + 1
        column = offset - (text.rfind("\n", 0, offset) + 1) + 1
        assert (diag.span.line, diag.span.column, diag.span.offset) == (line, column, offset)

    OVERFLOW = "9" * 400 + ".0"

    def test_overflowing_float_literal_python(self, catalog):
        model_line = f'm0 = Model(id="M-DOOR", box=b0, ZZ={self.OVERFLOW})'
        text = "b0 = Box(position=(10, 10, 10), size=(5, 5, 5), rotation=0)\n" + model_line + "\n"
        result = parse_python(text, catalog)
        assert not result.ok
        [diag] = result.diagnostics
        assert (diag.severity, diag.code) == ("error", "syntax")
        assert "out of range" in diag.message
        column = model_line.index(self.OVERFLOW) + 1
        assert (diag.span.line, diag.span.column) == (2, column)
        assert (diag.span.offset, diag.span.length) == (text.index(self.OVERFLOW), len(self.OVERFLOW))

    def test_overflowing_float_literal_yaml(self, catalog):
        text = (
            "cabinet:\n- id: M-DOOR\n  position: [10, 10, 10]\n  size: [5, 5, 5]\n"
            f"  rotation: 0\n  params:\n    ZZ: {self.OVERFLOW}\n"
        )
        result = parse_yaml(text, catalog)
        assert not result.ok
        [diag] = result.diagnostics
        assert (diag.severity, diag.code) == ("error", "syntax")
        assert "out of range" in diag.message
        assert (diag.span.line, diag.span.column) == (7, 9)
        assert (diag.span.offset, diag.span.length) == (text.index(self.OVERFLOW), len(self.OVERFLOW))

    def test_overlong_integer_literal_is_syntax_error(self, catalog):
        digits = "9" * 5000  # past Python's int() digit limit
        text = (
            "b0 = Box(position=(10, 10, 10), size=(5, 5, 5), rotation=0)\n"
            f'm0 = Model(id="M-DOOR", box=b0, ZZ={digits})\n'
        )
        assert [d.code for d in parse_python(text, catalog).diagnostics] == ["syntax"]
        yaml_text = f"cabinet:\n- id: M-DOOR\n  params:\n    ZZ: {digits}\n"
        assert [d.code for d in parse_yaml(yaml_text, catalog).diagnostics] == ["syntax"]

    def test_huge_box_is_rejected_and_eval_terminates(self):
        big = "1" + "0" * 120
        text = (
            f"b0 = Box(position=(10, 10, 10), size=({big}, {big}, {big}), rotation=0)\n"
            'm0 = Model(id="M-DOOR", box=b0)\n'
        )
        script = (
            "from cabinetkit import builtin_catalog, evaluate_sample, parse_python\n"
            "catalog = builtin_catalog()\n"
            f"result = parse_python({text!r}, catalog)\n"
            "if result.ok:\n"
            "    evaluate_sample(result.model, result.model, catalog)\n"
            "print('; '.join(str(d) for d in result.diagnostics))\n"
        )
        package_root = str(Path(cabinetkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=package_root)
        # A subprocess, so that a hang is killed at the bound instead of
        # stalling the suite.
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"1:38: error: {self.SIZE} [syntax]"


class TestValidate:
    def test_valid_model_is_clean(self, catalog, simple_model):
        assert validate(simple_model, catalog, filters=True) == []

    def test_oversize_model_flagged(self, catalog):
        inst = make_instance(
            catalog, "M-SIDE", OrientedBox((2500, 100, 100), (5000, 100, 100))
        )
        diags = validate(CabinetModel((inst,)), catalog, filters=True)
        assert any(d.code == "filter-size" for d in diags)

    def test_undersize_model_flagged(self, catalog):
        inst = make_instance(catalog, "M-SIDE", OrientedBox((30, 30, 30), (50, 50, 50)))
        diags = validate(CabinetModel((inst,)), catalog, filters=True)
        assert any(d.code == "filter-size" for d in diags)

    def test_octant_violation_flagged(self, catalog):
        inst = make_instance(catalog, "M-SIDE", OrientedBox((10, 10, 10), (400, 30, 30)))
        diags = validate(CabinetModel((inst,)), catalog)
        assert any(d.code == "octant" for d in diags)

    def test_domain_violation_flagged(self, catalog):
        inst = make_instance(
            catalog,
            "M-BB01",
            OrientedBox((300, 300, 300), (600, 600, 600)),
            {"N": 1, "NKA": 300, "DBXX": 5},
        )
        diags = validate(CabinetModel((inst,)), catalog)
        assert any(d.code == "param-value" for d in diags)

    def test_width_closure_warning(self, catalog):
        inst = make_instance(
            catalog,
            "M-BB01",
            OrientedBox((300, 300, 300), (600, 600, 600)),
            {"N": 2, "NKA": 500, "NKB": 500, "DBXX": 1},
        )
        diags = validate(CabinetModel((inst,)), catalog)
        closure = [d for d in diags if d.code == "width-closure"]
        assert closure and closure[0].severity == "warning"

    def test_negative_int_beyond_float_range_keeps_its_sign(self, catalog):
        text = (
            "b0 = Box(position=(300, 300, 300), size=(600, 600, 600), rotation=0)\n"
            'm0 = Model(id="M-BB01", box=b0, N=2, NKA=298, NKB=-' + "9" * 400 + ", DBXX=1)\n"
        )
        diags = validate(parse_python(text, catalog).model, catalog)
        assert [(d.code, d.severity) for d in diags] == [("param-value", "error")]

    def test_empty_model_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CabinetModel(())
