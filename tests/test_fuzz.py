"""Structure-aware fuzzing: emitted programs, mutated, through every stage after parsing.

Each input is a synthesized program in one syntax, plain or tilted, with
one to three mutations: a number replaced (0, 0.05, a bound of the box
domain or one ulp past it, 41, 309 or 400 digits, or the number negated),
a line dropped or duplicated, or a character cut or inserted. A mutant
that parses goes through validation, IoU, evaluation, the codec, both
emitters, and `perturb` followed by drawing. The perturbation, the views,
the noise and its seed, and the SVG layers are drawn too, from their
domains and the ends of them.

The oracle: no exception but the documented ones (`CodecError`, `KeyError`
for an ID outside the catalog, `ValueError` from `emit_python` for a line
break); every IoU finite and in [0, 1]; a model scores IoU exactly 1.0 and
F1 1.0 against itself; no `nan` or `inf` in the SVG; and each input done
within `BOUND_S` seconds.
"""

import functools
import math
import re
import time
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabinetkit import (
    NoiseSpec,
    PerturbSpec,
    SynthSpec,
    annotate,
    decode,
    emit_python,
    emit_yaml,
    encode,
    evaluate_sample,
    format_commands,
    generate,
    inject_noise,
    layout_sheet,
    parse_commands,
    parse_python,
    parse_yaml,
    perturb,
    render_views,
    to_svg,
    validate,
)
from cabinetkit.codec import CodecError
from cabinetkit.drawing import LAYERS
from cabinetkit.geometry import MAX_MM, VIEW_KINDS, pairwise_iou
from helpers import tilted

#: Wall-clock bound for one input, parse to SVG, in seconds.
BOUND_S = 10.0

SYNTAXES = {"python": (emit_python, parse_python), "yaml": (emit_yaml, parse_yaml)}

# A number not inside a name such as `box_3` or `M-BB01`.
_NUMBER_RE = re.compile(r"(?<![\w.])[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?![\w.])")
_JUST_OVER = repr(math.nextafter(1e6, math.inf))
_NUMBERS = ["0", "0.05", "0.1", "1000000", "-1000000", _JUST_OVER, "-" + _JUST_OVER,
            "1" + "0" * 40, "1" + "0" * 308, "9" * 400]
_INSERTED = list(" ,()[]{}:=-+.#'\"\\\n\t0123456789eM")


@functools.lru_cache(maxsize=None)
def _source(syntax: str, seed: int, turned: bool) -> tuple[str, object]:
    """An emitted program and its model: `generate` for `seed`, maybe tilted 1-12 degrees."""
    from cabinetkit import builtin_catalog

    catalog = builtin_catalog()
    model = generate(SynthSpec(seed=seed), catalog)
    if turned:
        model = tilted(model, seed)
    return SYNTAXES[syntax][0](model, catalog), model


def _replace_number(draw, text):
    spans = [m.span() for m in _NUMBER_RE.finditer(text)]
    if not spans:
        return text
    start, end = draw(st.sampled_from(spans))
    value = draw(st.sampled_from(_NUMBERS + ["-" + text[start:end].lstrip("+-")]))
    return text[:start] + value + text[end:]


def _drop_line(draw, text):
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, max(len(lines) - 1, 0)))
    return "".join(lines[:i] + lines[i + 1:])


def _duplicate_line(draw, text):
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, max(len(lines) - 1, 0)))
    return "".join(lines[:i + 1] + lines[i:])


def _cut_character(draw, text):
    i = draw(st.integers(0, max(len(text) - 1, 0)))
    return text[:i] + text[i + 1:]


def _insert_character(draw, text):
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.sampled_from(_INSERTED)) + text[i:]


MUTATIONS = (_replace_number, _replace_number, _drop_line, _duplicate_line, _cut_character, _insert_character)


@st.composite
def mutants(draw, syntax):
    """(mutated text, source model) for a synthesized program in `syntax`."""
    text, model = _source(syntax, draw(st.integers(0, 5)), draw(st.booleans()))
    for _ in range(draw(st.integers(1, 3))):
        text = draw(st.sampled_from(MUTATIONS))(draw, text)
    return text, model


class StageInputs(NamedTuple):
    """What the stages after parsing take besides the model; the defaults change nothing."""

    perturbation: PerturbSpec = PerturbSpec()
    views: tuple[str, ...] = VIEW_KINDS
    noise: NoiseSpec = NoiseSpec()
    noise_seed: int = 0
    layers: frozenset[str] = LAYERS


_RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_LENGTHS_MM = st.sampled_from([0.0, 1.0, MAX_MM]) | st.floats(0.0, MAX_MM)
_SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def stage_inputs(draw):
    """`StageInputs` from the domain of each: 1 to 5 views, any layers, rates and lengths."""
    return StageInputs(
        perturbation=PerturbSpec(draw(_SEEDS), draw(_LENGTHS_MM), *(draw(_RATES) for _ in range(4))),
        views=tuple(draw(st.lists(st.sampled_from(VIEW_KINDS), min_size=1, max_size=5))),
        noise=NoiseSpec(draw(_RATES), draw(_LENGTHS_MM), draw(_RATES)),
        noise_seed=draw(_SEEDS),
        layers=frozenset(draw(st.sets(st.sampled_from(sorted(LAYERS))))),
    )


def _check_scores(matrix):
    assert ((matrix >= 0.0) & (matrix <= 1.0)).all(), matrix  # False for NaN


def exercise(text: str, syntax: str, source, catalog, inputs: StageInputs) -> None:
    """Run `text` through every stage after parsing and check the oracle."""
    result = SYNTAXES[syntax][1](text, catalog)
    model = result.model
    if model is None:
        return
    validate(model, catalog, filters=True)

    boxes = [instance.box for instance in model.instances]
    source_boxes = [instance.box for instance in source.instances]
    _check_scores(pairwise_iou(boxes, source_boxes))
    _check_scores(pairwise_iou(source_boxes, boxes))
    own = pairwise_iou(boxes, boxes)
    _check_scores(own)
    assert (own.diagonal() == 1.0).all()
    assert evaluate_sample(model, model, catalog).f1 == 1.0

    try:
        sequence = encode(model, catalog)
    except (KeyError, CodecError):  # an ID outside the catalog, or too many commands
        pass
    else:
        assert decode(parse_commands(format_commands(sequence)), catalog) == decode(sequence, catalog)

    emit_yaml(model, catalog)
    try:
        emit_python(model, catalog)
    except ValueError as exc:
        assert "cannot emit a line break" in str(exc)

    perturbed = perturb(model, inputs.perturbation, catalog)
    _check_scores(pairwise_iou([instance.box for instance in perturbed.instances], boxes))
    evaluate_sample(perturbed, model, catalog)
    views = annotate(render_views(perturbed, list(inputs.views)), perturbed, catalog)
    noisy = inject_noise(views, inputs.noise, seed=inputs.noise_seed)
    svg = to_svg(layout_sheet(noisy), inputs.layers)
    assert "nan" not in svg.lower() and "inf" not in svg.lower()


def _timed(text, syntax, source, catalog, inputs):
    start = time.perf_counter()
    exercise(text, syntax, source, catalog, inputs)
    assert time.perf_counter() - start < BOUND_S


@pytest.mark.parametrize("syntax", sorted(SYNTAXES))
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_programs_keep_the_oracle(catalog, syntax, data):
    text, source = data.draw(mutants(syntax))
    _timed(text, syntax, source, catalog, data.draw(stage_inputs()))


def _side_program(syntax, position, size, rotation):
    """One `M-SIDE` box in `syntax`."""
    if syntax == "python":
        return (f"b0 = Box(position=({position}), size=({size}), rotation={rotation})\n"
                'm0 = Model(id="M-SIDE", box=b0)\n')
    return f"cabinet:\n- id: M-SIDE\n  position: [{position}]\n  size: [{size}]\n  rotation: {rotation}\n"


# Mutants found by fuzzing before boxes had a domain. Each rendered with a
# traceback (1e40 mm tall, 1e300 mm deep, at x = 1e20 or y = 1e308 mm),
# scored 0.0 against itself (0.001 mm at 1e6 mm) or overflowed (1.7e308 mm).
FOUND = [
    ("9, 300, 900", "18, 600, 1" + "0" * 40, 0),
    ("9, 300, 900", "18, 1" + "0" * 300 + ", 1800", 0),
    ("1" + "0" * 20 + ", 300, 900", "18, 400, 2000", 0),
    ("9, 1" + "0" * 308 + ", 900", "18, 400, 2000", 0.5),
    ("1000000, 1000000, 1000000", "0.001, 0.001, 0.001", 0.5),
    ("17" + "0" * 307 + ", 0, 0", "1" + "0" * 308 + ", 1, 1", 0),
]


@pytest.mark.parametrize("syntax", sorted(SYNTAXES))
@pytest.mark.parametrize("position, size, rotation", FOUND,
                         ids=["1e40-tall", "1e300-deep", "x-1e20", "y-1e308", "tiny-far", "bounds-overflow"])
def test_found_mutants_keep_the_oracle(catalog, syntax, position, size, rotation):
    text = _side_program(syntax, position, size, rotation)
    _timed(text, syntax, generate(SynthSpec(seed=0), catalog), catalog, StageInputs())
