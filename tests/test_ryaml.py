import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cabinetkit import ryaml
from cabinetkit.ryaml import RYamlError, ScalarNode, SeqNode


def to_plain(node):
    """A parsed node tree as plain Python values."""
    if isinstance(node, ScalarNode):
        return node.value
    if isinstance(node, SeqNode):
        return [to_plain(item) for item in node.items]
    return {key: to_plain(value) for key, value in node.pairs.items()}


def loads(text):
    """Parse and convert to plain Python values in one step."""
    return to_plain(ryaml.parse(text))


def test_scalars_are_typed():
    data = loads("a: 1\nb: 1.5\nc: hello\nd: \"quoted\"\ne: -3\n")
    assert data == {"a": 1, "b": 1.5, "c": "hello", "d": "quoted", "e": -3}
    assert isinstance(data["a"], int)
    assert isinstance(data["b"], float)


def test_nested_blocks_and_sequences():
    text = """\
top:
  child: 1
  items:
  - 10
  - 20
list:
- name: first
  value: 2
- name: second
  value: 3
"""
    data = loads(text)
    assert data["top"] == {"child": 1, "items": [10, 20]}
    assert data["list"] == [
        {"name": "first", "value": 2},
        {"name": "second", "value": 3},
    ]


def test_flow_sequence():
    assert loads("v: [1, 2.5, x]\n") == {"v": [1, 2.5, "x"]}


def test_comments_are_discarded():
    text = "# leading\na: 1  # trailing\n# footer\n"
    assert loads(text) == {"a": 1}


def test_hash_inside_string_is_kept():
    assert loads('a: "x # y"\n') == {"a": "x # y"}


def test_plain_scalar_with_spaces():
    assert loads("name: base box\n") == {"name": "base box"}


@pytest.mark.parametrize(
    "text",
    [
        "a: &anchor 1\n",
        "a: *alias\n",
        "a: !!int 5\n",
        "a: |\n  block\n",
        "a: {x: 1}\n",
        "---\na: 1\n",
    ],
)
def test_unsupported_features_rejected(text):
    with pytest.raises(RYamlError):
        ryaml.parse(text)


def test_duplicate_keys_rejected():
    with pytest.raises(RYamlError, match="duplicate"):
        ryaml.parse("a: 1\na: 2\n")


def test_tab_indentation_rejected():
    with pytest.raises(RYamlError, match="tab"):
        ryaml.parse("a:\n\tb: 1\n")


def test_spans_point_into_input():
    text = "outer:\n  bad: [1, 2\n"
    with pytest.raises(RYamlError) as err:
        ryaml.parse(text)
    span = err.value.span
    assert 0 <= span.offset < len(text)
    assert span.line == 2


def test_single_quoted_strings():
    assert loads("a: 'it''s'\n") == {"a": "it's"}


def test_quoted_flow_items_may_hold_separators():
    text = """v: ['a, b', "[c]", 'd]', "e\\"f, g", 'it''s, ok', 1]\n"""
    assert loads(text) == {"v": ["a, b", "[c]", "d]", 'e"f, g', "it's, ok", 1]}


def test_string_escapes_round_trip():
    for value in ['with "quotes"', "back\\slash", "tab\there", "new\nline", "1.5", "no", "M-X\n"]:
        rendered = ryaml.format_string(value)
        assert loads(f"k: {rendered}\n") == {"k": value}


def test_format_scalar_preserves_types():
    assert ryaml.format_scalar(3) == "3"
    assert ryaml.format_scalar(3.0) == "3.0"
    assert loads("k: 3.0\n")["k"] == 3.0
    assert isinstance(loads("k: 3.0\n")["k"], float)


def test_format_float_keeps_a_decimal_point():
    for value in (3.0, -0.0, 0.1, 2.5e-7, 1e15, 1e16, -1.5e22):
        text = ryaml.format_float(value)
        assert "." in text and "e" not in text
        read = ryaml.read_number(text)
        assert isinstance(read, float) and read == value
    assert ryaml.format_float(-0.0) == "-0.0"
    assert ryaml.format_float(1e16) == "10000000000000000.0"
    with pytest.raises(ValueError):
        ryaml.format_float(float("inf"))


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=2000, deadline=None)
@example(-0.0)
@example(1e16)
@example(1e-05)
@example(123456789012345.67)
@example(5e-324)
@example(sys.float_info.max)
@example(-sys.float_info.min)
def test_format_positional_equals_decimal_form(value):
    assert ryaml.format_positional(value) == format(Decimal(repr(value)), "f")


def test_format_positional_rejects_non_finite():
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            ryaml.format_positional(value)


def test_out_of_range_numbers_rejected_at_the_literal():
    literal = "9" * 400 + ".0"
    with pytest.raises(RYamlError, match="out of range") as info:
        ryaml.parse(f"a: 1\nb: {literal}\n")
    span = info.value.span
    assert (span.line, span.column, span.offset, span.length) == (2, 4, 8, len(literal))
    assert loads("a: 0." + "0" * 400 + "1\n") == {"a": 0.0}  # underflow is finite


def test_empty_document_rejected():
    with pytest.raises(RYamlError, match="empty"):
        ryaml.parse("   \n# only a comment\n")


def test_missing_value_rejected():
    with pytest.raises(RYamlError, match="missing value"):
        ryaml.parse("a:\nb: 1\n")


@pytest.mark.parametrize("text, line, column", [
    ("a:\n  - ", 2, 3),
    ("cabinet:\n- id: M-SIDE\n  position:\n  - 1\n  - ", 5, 3),
    ("- ", 1, 1),
])
def test_document_cut_where_a_value_is_due_points_at_its_last_record(text, line, column):
    with pytest.raises(RYamlError, match="expected a value") as err:
        ryaml.parse(text)
    assert (err.value.span.line, err.value.span.column) == (line, column)
