"""Pinned parser outcomes; run as a script to re-record them.

Three fixtures hold malformed and edge-case inputs together with what the
parser returned for each:

* `parse_python`: every diagnostic (severity, code, message, line, column,
  offset, length) and the parsed model, if any;
* `ryaml.parse`, the reader behind `parse_yaml` and `load_catalog`: every
  node's type, value and span plus every key span, or the error message
  and its span;
* `parse_yaml`: every diagnostic and the model's `repr` (so ints, floats
  and -0.0 stay apart), or the exception it raised.

For each program that parses, the `parse_python` and `parse_yaml`
fixtures also hold what `validate` finds in the model, placed at the
parser's ID spans, so the catalog findings stay pinned.

The inputs are hand-written lexical edge cases plus seeded mutants of
emitted programs (and, for YAML, of the catalog texts). The `parse_yaml`
fixture also holds whole emitted programs, default-spec and 40-48 boxes,
with and without tilted boxes.

Usage: python3 tests/parse_cases.py --write
Only re-record on a commit whose outcomes are trusted.
"""

import argparse
import json
import random
import re
import sys
from pathlib import Path

FIXTURE = Path(__file__).parent / "data" / "parse_python_pinned.json"
YAML_FIXTURE = Path(__file__).parent / "data" / "parse_yaml_pinned.json"
YAML_MODELS_FIXTURE = Path(__file__).parent / "data" / "parse_yaml_models_pinned.json"

_BOX = "b0 = Box(position=(300, 200, 1000), size=(600, 400, 2000), rotation=0)"
_MODEL = 'm0 = Model(id="M-BB01", box=b0, N=2, NKA=298, NKB=298, DBXX=1)'
_DOOR_BOX = "b0 = Box(position=(10, 10, 10), size=(5, 5, 5), rotation=0)"

EDGE_CASES = [
    "",
    "\n",
    "\n\n\n",
    "\r\n",
    "\r",
    " \t ",
    "# only a comment",
    "# comment\n# another\n",
    f"{_BOX}\n{_MODEL}\n",
    f"{_BOX}\n{_MODEL}",  # no trailing newline
    f"{_BOX}\r\n{_MODEL}\r\n",  # CRLF
    f"{_BOX}\r\n{_MODEL}",
    f"\t{_BOX}\n\t{_MODEL}\t\n",
    "b0\t=\tBox(position=(1,\t1, 1), size=(1, 1, 1),\trotation=0)\n"
    'm0 = Model(id="M-DOOR",\tbox=b0, N=)\n',
    f"# header\n\n{_BOX}  # trailing\n\n# between\n{_MODEL} # end\n",
    f"{_BOX}\n{_MODEL}\n# no newline after comment",
    f'{_DOOR_BOX}\nm0 = Model(id="M-DOOR, box=b0)\n',  # unterminated
    f'{_DOOR_BOX}\nm0 = Model(id="M-DOOR',  # unterminated at end of input
    f'{_DOOR_BOX}\nm0 = Model(id="abc\\"\n',  # escaped quote at end of line
    f'{_DOOR_BOX}\nm0 = Model(id="abc\\\\", box=b0)\n',  # escaped backslash
    f'{_DOOR_BOX}\nm0 = Model(id="abc\\\\\\", box=b0)\n',
    f'{_DOOR_BOX}\nm0 = Model(id="abc\\',
    f'{_DOOR_BOX}\nm0 = Model(id="a\\nb", box=b0)\n',  # other escapes are literal
    f'{_DOOR_BOX}\nm0 = Model(id="M-DOOR", box=b0, TXT="he said \\"hi\\"")\n',
    f'{_DOOR_BOX}\nm0 = Model(id="M-Q", box=b0, TXT="a # not a comment", N=1)\n',
    f'{_DOOR_BOX}\nm0 = Model(id="\U0001f642é", box=b0, N=)\n',  # columns count characters
    'b0 = Box(position=(١, 2, 3), size=(1, 1, 1), rotation=0)\n',  # Arabic-Indic digit
    "b0 = Box(position=(², 2, 3), size=(1, 1, 1), rotation=0)\n",  # superscript two
    "b0 = Box(position=(１, 2, 3), size=(1, 1, 1), rotation=0)\n",  # fullwidth one
    "b0 = Box(position=(+, 2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(., 2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(+., 2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(-, 2, 3), size=(1, 1, 1), rotation=0)\n",
    "+",
    ".",
    "-",
    "b0 = Box(position=(-5, .5, 5.), size=(+1, 1.25, 1), rotation=-90)\n"
    'm0 = Model(id="M-DOOR", box=b0)\n',
    "b0 = Box(position=(1.2.3, 2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(12abc, 2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(1e5, 2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(1--2, 2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(1, 2, 3)\x00, size=(1, 1, 1), rotation=0)\n",
    "\x00",
    "\x0c\x0b",
    f'{_DOOR_BOX}\nm0 = Model(id="M-\rDOOR", box=b0, N=\r)\n',  # CR inside a string
    "bö = Box(position=(1, 2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(",
    "b0 = Box(\n",
    "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)",
    "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(1,\n2, 3), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(1, 2), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(1, 2, 3, 4), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(size=(1, 1, 1), rotation=0)\nm0 = Model(id=\"M-DOOR\", box=b0)\n",
    "b0 = Box(position=(1, 1, 1), size=(1, 0, 1), rotation=0)\n",
    "b0 = Box(position=(1, 1, 1), position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n",
    "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0, color=3)\n",
    "b0 = Bax(position=(1, 1, 1))\n",
    "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0) extra\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\", box=b9)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=M, box=b0)\n",
    f"{_DOOR_BOX}\nm0 = Model(box=b0)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\")\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\", id=\"M-DOOR\", box=b0)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\", box=b0, box=b0)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\", box=b0, AA=1, AA=2)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\", box=b0, lower=1)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\", box=b0, AA=b0)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\", box=b0, ZZ=4.5, YY=-0.0, XX=\"t\")\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-MYSTERY\", box=b0, QQ=12, RR=1.50)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-BB01\", box=b0, N=1, NKA=300, DBXX=9)\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-BB01\", box=b0, N=2.5, NKA=\"x\")\n",
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-BB01\", box=b0, N=2, NKA=500, NKB=500, DBXX=1)\n",
    "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
    "b1 = Bax(nothing)\n"
    "b2 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n"
    'm2 = Model(id="M-DOOR", box=b2)\n',
    "b0 = Box(position=(" + "9" * 400 + ", 1, 1), size=(1, 1, 1), rotation=0)\n"
    'm0 = Model(id="M-DOOR", box=b0)\n',
    "b0 = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=" + "7" * 40 + ".25)\n"
    'm0 = Model(id="M-DOOR", box=b0)\n',
    f"{_DOOR_BOX}\nm0 = Model(id=\"M-DOOR\", box=b0, BIG={'1' * 200}, TINY=0.{'0' * 400}1)\n",
    "x" * 2000 + " = Box(position=(1, 1, 1), size=(1, 1, 1), rotation=0)\n",
    # parameters the catalog does not know keep their literal
    f'{_DOOR_BOX}\nm0 = Model(id="M-SIDE", box=b0, FOO=1.50, BAR=007, BAZ=+3)\n',
]

_ALPHABET = list("\"\\\n\r\t #+-.=(),0123456789abcxyzBMN_") + [
    "\x00", "١", "²", "é", "\U0001f642", "'", ";", "[", "\\\"", "\\\\",
]
_NUMBERS = ["0", "-0", "-1", ".5", "1.", "+7", "99999", "0.001", "123456789012", "1e5", "-.25"]


def _emitted_programs(count: int) -> list[str]:
    from cabinetkit import SynthSpec, builtin_catalog, emit_python, generate

    catalog = builtin_catalog()
    programs = []
    for seed in range(count):
        lines = emit_python(generate(SynthSpec(seed=seed), catalog), catalog).splitlines(True)
        start = 2 * (seed % (len(lines) // 2))
        programs.append("".join(lines[start:start + 2 + 2 * (seed % 2)]))
    return programs


def _tokens(text: str) -> list[str]:
    """Coarse lexical pieces for mutation; joining them gives `text` back."""
    return re.findall(r'"[^"\n]*"|[0-9.+-]+|[A-Za-z_][A-Za-z0-9_]*|\s+|.', text)


def _mutate(text: str, rng: random.Random, alphabet: list[str] = _ALPHABET) -> str:
    for _ in range(rng.randint(1, 3)):
        pieces = _tokens(text)
        if not pieces:
            return text
        k = rng.randrange(len(pieces))
        op = rng.randrange(7)
        if op == 0:  # drop a token
            del pieces[k]
        elif op == 1:  # duplicate a token
            pieces.insert(k, pieces[k])
        elif op == 2:  # insert a character
            pieces.insert(k, rng.choice(alphabet))
        elif op == 3:  # replace a character
            pieces[k] = rng.choice(alphabet)
        elif op == 4:  # swap a number
            numbers = [i for i, p in enumerate(pieces) if p[:1].isdigit() or p[:1] in "+-."]
            if numbers:
                pieces[rng.choice(numbers)] = rng.choice(_NUMBERS)
        elif op == 5:  # swap two tokens
            j = rng.randrange(len(pieces))
            pieces[k], pieces[j] = pieces[j], pieces[k]
        else:  # truncate
            return "".join(pieces)[: rng.randrange(len(text) + 1)]
        text = "".join(pieces)
    return text


def case_inputs() -> list[str]:
    """All inputs of the fixture, in a fixed order."""
    rng = random.Random(20241216)
    cases = list(EDGE_CASES)
    for program in _emitted_programs(60):
        cases.append(program)
        for _ in range(5):
            cases.append(_mutate(program, rng))
            # The draw that once chose each mutant's parse mode; it stays so
            # that every later mutant is the same text as before.
            rng.random()
    return cases


def outcome(text: str, catalog) -> dict:
    """What parse_python returns for `text`, as plain JSON values."""
    from cabinetkit import parse_python

    result = parse_python(text, catalog)
    diagnostics = _diagnostics(result.diagnostics)
    model = None
    if result.model is not None:
        model = [
            [
                inst.model_id,
                inst.name,
                list(inst.box.position),
                list(inst.box.size),
                inst.box.rotation_deg,
                [[key, value] for key, value in inst.params.items()],
            ]
            for inst in result.model.instances
        ]
    return {
        "text": text,
        "diagnostics": diagnostics,
        "model": model,
        "validate": _validate(result, catalog),
    }


def _diagnostics(diagnostics) -> list[list]:
    return [
        [d.severity, d.code, d.message]
        + ([d.span.line, d.span.column, d.span.offset, d.span.length] if d.span else [])
        for d in diagnostics
    ]


def _validate(result, catalog) -> list[list] | None:
    """What `validate` finds in a parsed model, at the parser's ID spans."""
    from cabinetkit import validate

    if result.model is None:
        return None
    return _diagnostics(validate(result.model, catalog, spans=result.id_spans()))


YAML_EDGE_CASES = [
    "",
    "\n",
    "# only a comment\n",
    "a: 1\n",
    "a: 1",
    "a",
    "a:b\n",
    "a :b\n",
    "1: x\n",
    "_a.b-c: 1\n",
    "a: b: c\n",
    "a: 1\na: 2\n",
    "a:\nb: 1\n",
    "a:\n",
    "a: 1\nb\n",
    "a:\n  b: 1\n c: 2\n",
    "a:\n  b: 1\n    c: 2\n",
    "a: 1\n  b: 2\n",
    # comments: a `#` outside quotes that opens the line or follows a space or tab
    "#\n",
    "a: 1 # c\n",
    "a: 1# c\n",
    "a: 1\t# c\n",
    "a: x#y\n",
    "a:#\n",
    "a: #\n",
    "# c\na: 1 # d\n# e",
    "a: 'x # y'\n",
    'a: "x # y"\n',
    'a: "x \\" # y"\n',
    "a: 'it''s # x'\n",
    "a: it's # c\n",
    'a: x"y # z\n',
    'a: "unterminated # c\n',
    "a: 'unterminated # c\n",
    'a: "ends in backslash\\\n',
    "a: '' # c\n",
    'a: "" # c\n',
    "- # c\n",
    "- a # c\n",
    "a: [1, 2] # c\n",
    "a: [1, '#', 2] # c\n",
    "a: 'x' # c 'y\n",
    # double-quoted escapes
    'a: "x\\ny"\n',
    'a: "x\\ty"\n',
    'a: "x\\"y"\n',
    'a: "x\\\\y"\n',
    'a: "x\\qy"\n',
    'a: "x\\u0041"\n',
    'a: "x\\ "\n',
    'a: "x\\qy\n',
    'a: "x\\\n',
    'a: "x\\"\n',
    'a: "x\\\\"\n',
    'a: "abc" tail\n',
    'a: "abc"  \n',
    'a: ""\n',
    '"top level"\n',
    '"top" level\n',
    # single-quoted strings
    "a: ''\n",
    "a: ''''\n",
    "a: 'it''s'\n",
    "a: 'x'''\n",
    "a: 'x\n",
    "a: 'x''\n",
    "a: 'x' y\n",
    "a: 'x\\n'\n",
    "'top'\n",
    # sequence entries
    "- 1\n- 2\n",
    "- a: 1\n  b: 2\n",
    "-  a: 1\n   b: 2\n",
    "-   a: 1\n  b: 2\n",
    "- a: 1\n    b: 2\n",
    "- a:\n  - x\n",
    "- a:\n    b: 1\n",
    "- a:\n",
    "- a: 1\n- a: 2\n",
    "- a: 1\n  a: 2\n",
    "-\n  a: 1\n",
    "-\n- b\n",
    "-\n",
    "-",
    "- ",
    "- - a\n",
    "- -\n",
    "- - a: 1\n",
    "- \tx\n",
    "-\tx\n",
    "- \ta: 1\n",
    "- \t[1]\n",
    "- a\n  b\n",
    "- [1, 2]\n- x\n",
    "- x\nb: 1\n",
    "a: 1\n- x\n",
    "-x\n",
    "-1\n",
    "- 'q'\n",
    '- "q" tail\n',
    # indentless sequences
    "a:\n- 1\n- 2\nb: 3\n",
    "a:\n- x: 1\n  y: 2\nb:\n- 3\n",
    "a:\n  - 1\n  - 2\n",
    "a:\n- 1\n  - 2\n",
    "a:\n- 1\n - 2\n",
    "a:\n  b:\n  - 1\n  c: 2\n",
    # tabs, CR / CRLF, document markers
    "a:\n\tb: 1\n",
    "\ta: 1\n",
    "a: 1\t\n",
    "a:\t1\n",
    "a: 1\r\nb: 2\r\n",
    "a: 1\rb: 2\n",
    "a: 1\r\r\n",
    "a: 'x\ry'\n",
    "---\n",
    "a: 1\n---\n",
    "...\n",
    "  ---\n",
    "--- # c\n",
    "- ---\n",
    "a: ---\n",
    # unsupported lead characters
    "a: &x 1\n",
    "a: *x\n",
    "a: !t 1\n",
    "a: |\n  x\n",
    "a: >\n",
    "a: {x: 1}\n",
    "%YAML 1.2\n",
    "? a\n",
    "a: @x\n",
    "a: `x\n",
    "&a\n",
    "- *a\n",
    "a: [&a]\n",
    "a: [*a, b]\n",
    "a: [1, {b}]\n",
    # flow sequences
    "a: [1, 2.5, x]\n",
    "a: []\n",
    "a: [ ]\n",
    "a: [,]\n",
    "a: [1,]\n",
    "a: [,1]\n",
    "a: [1, , 2]\n",
    "a: [1, [2]]\n",
    "a: [[1]]\n",
    "a: [1, 2\n",
    "a: [1, 2] x\n",
    "a: [a]b]\n",
    "a: [a b, c d]\n",
    "a: [1 2]\n",
    "[1, 2]\n",
    "a: [\t1 ,\t2 ]\n",
    # quoted flow items
    "a: ['a,b']\n",
    'a: ["a,b", c]\n',
    'a: ["a[b"]\n',
    'a: ["a]b"]\n',
    "a: ['[x]', ']', '[']\n",
    "a: ['x' y, z]\n",
    'a: ["x" [y]]\n',
    'a: ["a\\q", b]\n',
    'a: ["a\\q, b"]\n',
    'a: ["a]\n',
    'a: ["a]b]\n',
    "a: ['a, b]\n",
    "a: ['a, b\n",
    "a: [ 'a' , \"b\" ]\n",
    "a: ['it''s, ok']\n",
    'a: ["x\\", y"]\n',
    'a: ["x\\", y]\n',
    "a: ['', \"\"]\n",
    "a: [x'y, z']\n",
    "a: [x, 'y, z']\n",
    "a: ['y, z' , ]\n",
    "a: [1, 'a, b', 2.5]\n",
    # numbers
    "a: 1.\n",
    "a: .5\n",
    "a: +1\n",
    "a: -0\n",
    "a: -0.0\n",
    "a: 1e5\n",
    "a: 1.2.3\n",
    "a: 00012\n",
    "a: " + "9" * 400 + ".0\n",
    "a: [" + "9" * 400 + ".0]\n",
    "a: 0." + "0" * 400 + "1\n",
]

_YAML_ALPHABET = list("\"'\\\n\r\t #-:,[]{}&*!|>%?@`0123456789.abxyz_") + [
    "- ", "---", "''", "\\n", "\\q", '\\"', " #", "  ", "\n  ", "\n- ", "é",
]
_FLOW_PIECES = [
    "a", "b c", "1", "-2.5", " ", "", ",", "[", "]", "#", " #", "\\", "\\n", "''",
    "'a, b'", "'[x]'", "'it''s'", "'", '"', '"a, b"', '"x]"', '"[y"', '"q\\"r"',
    '"bad\\q"', "&", "{",
]


def _emitted_yaml(count: int) -> list[str]:
    """One or two entries of each of `count` emitted YAML programs."""
    from cabinetkit import SynthSpec, builtin_catalog, emit_yaml, generate

    catalog = builtin_catalog()
    programs = []
    for seed in range(count):
        lines = emit_yaml(generate(SynthSpec(seed=seed), catalog), catalog).splitlines(True)
        starts = [i for i, line in enumerate(lines) if line.startswith("- ")] + [len(lines)]
        k = seed % (len(starts) - 1)
        end = starts[min(k + 1 + seed % 2, len(starts) - 1)]
        programs.append("cabinet:\n" + "".join(lines[starts[k]:end]))
    return programs


def _catalog_texts() -> list[str]:
    from importlib import resources

    from cabinetkit import builtin_catalog
    from cabinetkit.catalog import save_catalog

    shipped = resources.files("cabinetkit").joinpath("data/mini_catalog.yaml").read_text("utf-8")
    return [shipped, save_catalog(builtin_catalog())]


def yaml_case_inputs() -> list[str]:
    """All inputs of the YAML fixture, in a fixed order."""
    rng = random.Random(20250301)
    cases = list(YAML_EDGE_CASES)
    for program in _emitted_yaml(40):
        cases.append(program)
        cases.extend(_mutate(program, rng, _YAML_ALPHABET) for _ in range(5))
    for text in _catalog_texts():
        cases.append(text)
        lines = text.splitlines(True)
        for _ in range(40):
            start = rng.randrange(len(lines))
            window = "".join(lines[start:start + rng.randint(2, 10)])
            cases.append(_mutate(window, rng, _YAML_ALPHABET))
    for _ in range(200):
        items = [rng.choice(_FLOW_PIECES) for _ in range(rng.randint(1, 4))]
        cases.append("k: [" + rng.choice([", ", ",", " , "]).join(items) + "]\n")
    return cases


def _span(span) -> list[int]:
    return [span.line, span.column, span.offset, span.length]


def _node(node) -> list:
    from cabinetkit import ryaml

    if isinstance(node, ryaml.ScalarNode):
        return ["scalar", type(node.value).__name__, node.value, _span(node.span)]
    if isinstance(node, ryaml.SeqNode):
        return ["seq", _span(node.span), [_node(item) for item in node.items]]
    pairs = [[key, _span(node.key_spans[key]), _node(value)] for key, value in node.pairs.items()]
    return ["map", _span(node.span), pairs]


def yaml_outcome(text: str) -> dict:
    """What ryaml.parse returns for `text`, as plain JSON values."""
    from cabinetkit import ryaml

    try:
        node = ryaml.parse(text)
    except ryaml.RYamlError as exc:
        return {"text": text, "error": [exc.message] + _span(exc.span), "node": None}
    return {"text": text, "error": None, "node": _node(node)}


_BB01 = (
    "- id: M-BB01\n  name: base box\n"
    "  position:\n  - 300\n  - 200\n  - 1000\n"
    "  size:\n  - 600\n  - 400\n  - 2000\n"
    "  rotation: 0\n"
    "  params:\n    N: 2\n    NKA: 298\n    NKB: 266\n    DBXX: 1\n"
)
_DOOR = (
    "- id: M-DOOR\n"
    "  position:\n  - 10\n  - 10\n  - 10\n"
    "  size:\n  - 5\n  - 5\n  - 5\n"
    "  rotation: 0\n"
)
_PROGRAM = "cabinet:\n" + _BB01 + _DOOR


def _bb01(old: str, new: str) -> str:
    """`_PROGRAM` with one piece of its first entry replaced."""
    assert old in _BB01
    return "cabinet:\n" + _BB01.replace(old, new, 1) + _DOOR


def _door(old: str, new: str) -> str:
    """`_PROGRAM` with one piece of its second entry replaced."""
    assert old in _DOOR
    return "cabinet:\n" + _BB01 + _DOOR.replace(old, new, 1)


# An M-SIDE, which has no parameters, given three in literals that a
# number's canonical form would change.
_SIDE = _DOOR.replace("M-DOOR", "M-SIDE") + "  params:\n    FOO: 1.50\n    BAR: 007\n    BAZ: +3\n"
_NAME = "  name: base box\n"
_ROTATION = "  rotation: 0\n"
_PARAMS = "  params:\n    N: 2\n    NKA: 298\n    NKB: 266\n    DBXX: 1\n"

YAML_PROGRAM_CASES = [
    _PROGRAM,
    _PROGRAM[:-1],  # no final line feed
    _PROGRAM.replace("\n", "\r\n"),
    _PROGRAM.replace("- id: M-DOOR", "\n# a door\n- id: M-DOOR"),
    _bb01(_ROTATION, "  rotation: 0 # upright\n"),
    _bb01(_ROTATION, "  rotation:  0\n"),
    _bb01(_ROTATION, "  rotation: 0 \n"),
    _bb01("  - 300\n", "  -  300\n"),
    _bb01("  position:", "   position:"),
    _bb01(_ROTATION + _PARAMS, _PARAMS + _ROTATION),
    _bb01("  position:\n  - 300\n  - 200\n  - 1000\n", "  position: [300, 200, 1000]\n"),
    _bb01("  size:\n  - 600\n  - 400\n  - 2000\n", "  size:\n    - 600\n    - 400\n    - 2000\n"),
    _bb01("  - 2000\n", ""),
    _bb01("  - 2000\n", "  - 2000\n  - 1\n"),
    # names
    _bb01(_NAME, ""),
    _bb01(_NAME, "  name: base box \n"),
    _bb01(_NAME, "  name: base box\t\n"),
    _bb01(_NAME, '  name: "base box"\n'),
    _bb01(_NAME, "  name: 'base box'\n"),
    _bb01(_NAME, "  name: 'it''s'\n"),
    _bb01(_NAME, '  name: "a\\nb\\tc\\"d\\\\e"\n'),
    _bb01(_NAME, '  name: "a\\qb"\n'),
    _bb01(_NAME, '  name: "a\\u0041"\n'),
    _bb01(_NAME, '  name: "open\n'),
    _bb01(_NAME, '  name: ""\n'),
    _bb01(_NAME, '  name: "a" tail\n'),
    _bb01(_NAME, "  name: a: b\n"),
    _bb01(_NAME, "  name: a # c\n"),
    _bb01(_NAME, "  name: a#b\n"),
    _bb01(_NAME, "  name: it's\n"),
    _bb01(_NAME, "  name: yes\n"),
    _bb01(_NAME, "  name: x\ty\n"),
    _bb01(_NAME, "  name: a\rb\n"),
    _bb01(_NAME, "  name: caf\u00e9 \U0001f642\n"),
    _bb01(_NAME, "  name: -x\n"),
    _bb01(_NAME, "  name: 12abc\n"),
    _bb01(_NAME, "  name: 5\n"),
    _bb01(_NAME, "  name: 5.0\n"),
    _bb01(_NAME, "  name: [a]\n"),
    _bb01(_NAME, "  name: []\n"),
    _bb01(_NAME, "  name:\n    first: a\n"),
    _bb01(_NAME, "  name:\n  - a\n"),
    _bb01(_NAME, "  name: &a x\n"),
    # model IDs
    _bb01("- id: M-BB01", '- id: "M-BB01"'),
    _bb01("- id: M-BB01", "- id: 'M-BB01'"),
    _door("- id: M-DOOR", '- id: "M-\\"Q\\\\"'),
    _door("- id: M-DOOR", "- id: M-MYSTERY"),
    _door("- id: M-DOOR", '- id: ""'),
    _door("- id: M-DOOR", "- id: 5"),
    _door("- id: M-DOOR", "- id: [M-DOOR]"),
    _door("- id: M-DOOR", "- id: M-DOOR "),
    _door("- id: M-DOOR", "-  id: M-DOOR"),
    _door("- id: M-DOOR\n", "-\n  id: M-DOOR\n"),
    # numbers
    _door("  - 10\n  - 10\n  - 10\n", "  - -0\n  - -0.0\n  - +5\n"),
    _door("  - 10\n  - 10\n  - 10\n", "  - .5\n  - 5.\n  - 00012\n"),
    _door("  - 10\n  - 10\n  - 10\n", "  - 1e5\n  - 10\n  - 10\n"),
    _door("  - 10\n  - 10\n  - 10\n", "  - 10\n  - 10\n  - '10'\n"),
    _door("  - 10\n  - 10\n  - 10\n", "  - " + "9" * 400 + "\n  - 10\n  - 10\n"),
    _door("  - 10\n  - 10\n  - 10\n", "  - " + "9" * 400 + ".0\n  - 10\n  - 10\n"),
    _door("  - 10\n  - 10\n  - 10\n", "  - " + "9" * 5000 + "\n  - 10\n  - 10\n"),
    _door("  - 5\n  - 5\n  - 5\n", "  - 5\n  - 0\n  - 5\n"),
    _door("  - 5\n  - 5\n  - 5\n", "  - 5\n  - 5\n  - -5\n"),
    _door("  - 5\n  - 5\n  - 5\n", "  - 1" + "0" * 200 + "\n  - 1" + "0" * 200 + "\n  - 5\n"),
    _door(_ROTATION, "  rotation: -90\n"),
    _door(_ROTATION, "  rotation: 450\n"),
    _door(_ROTATION, "  rotation: 7.25\n"),
    _door(_ROTATION, "  rotation: -0.0\n"),
    _door(_ROTATION, "  rotation: '0'\n"),
    _door(_ROTATION, "  rotation: [0]\n"),
    _door(_ROTATION, ""),
    # parameters
    _bb01("    N: 2\n", "    N: 2.0\n"),
    _bb01("    N: 2\n", "    N: -0\n"),
    _bb01("    N: 2\n", '    N: "2"\n'),
    _bb01("    NKA: 298\n", "    NKA: 298.5\n"),
    _bb01("    NKA: 298\n", "    NKA: -0.0\n"),
    _bb01("    NKA: 298\n", "    NKA: 1" + "0" * 400 + ".0\n"),
    _bb01("    DBXX: 1\n", "    DBXX: 9\n"),
    _bb01("    DBXX: 1\n", "    DBXX: 1\n    DBXX: 2\n"),
    _bb01("    DBXX: 1\n", "    DBXX: 1\n    n: 1\n"),
    _bb01("    DBXX: 1\n", "    DBXX: 1\n    N1: 1\n"),
    _bb01("    DBXX: 1\n", "    DBXX: 1\n    A.B: 1\n"),
    _bb01("    DBXX: 1\n", "    DBXX: 1\n    QQ: 1\n"),
    _bb01("    DBXX: 1\n", "    DBXX: 1\n    QQ: plain words\n"),
    _bb01("    DBXX: 1\n", '    DBXX: 1\n    QQ: "a\\tb"\n'),
    _bb01("    DBXX: 1\n", "    DBXX: 1\n    QQ: [1]\n"),
    _bb01("    DBXX: 1\n", "    DBXX:\n"),
    _bb01("    NKB: 266\n", ""),
    _bb01(_PARAMS, "  params:\n"),
    _bb01(_PARAMS, "  params: [1]\n"),
    _bb01(_PARAMS, "  params:\n    N: 1\n    NKA: 300\n    DBXX: 1\n"),
    _door(_ROTATION, _ROTATION + "  params:\n    TXT: x\n"),
    # parameters the catalog does not know keep their literal: the emitted
    # layout, then two that only the node reader takes
    "cabinet:\n" + _BB01 + _SIDE,
    "cabinet:\n" + _BB01 + _SIDE.replace("1.50\n", "1.50 # c\n"),
    "cabinet:\n" + _BB01 + _SIDE.replace("\n  - 10\n  - 10\n  - 10\n", " [10, 10, 10]\n"),
    "cabinet:\n" + _BB01 + _DOOR.replace("M-DOOR", "M-MYSTERY").replace(
        _ROTATION, _ROTATION + "  params:\n    QQ: 12\n    RR: 1.50\n    SS: -0.0\n    TT: 'x'\n"
    ),
    # entry and document layout
    _bb01(_ROTATION, _ROTATION + "  color: red\n"),
    _door(_ROTATION, _ROTATION + "  \n"),
    "version: 2\n" + _PROGRAM,
    _PROGRAM + "version: 2\n",
    _PROGRAM + "cabinets: []\n",
    _PROGRAM.replace("cabinet:", "cabinets:"),
    _PROGRAM + "cabinets:\n" + _DOOR,
    "cabinet:\n",
    "cabinet: []\n",
    "cabinet: x\n",
    "cabinet:\n- 5\n",
    "cabinet:\n- [1]\n",
    "- id: M-DOOR\n",
    "",
    "# empty\n",
    "cabinet:\n" + "".join("  " + line for line in _DOOR.splitlines(True)),
    " cabinet:\n" + _DOOR,
    "cabinet: \n" + _DOOR,
    "\ufeffcabinet:\n" + _DOOR,
    "cabinet:\n" + _DOOR * 2,
]


def _yaml_programs() -> list[str]:
    """Emitted programs: default-spec and 40-48-box models, also tilted."""
    from cabinetkit import builtin_catalog, emit_yaml
    from helpers import synthesized_models

    catalog = builtin_catalog()
    programs = []
    for seed in range(12):
        models = synthesized_models(catalog, seed)
        if seed >= 2:  # only two seeds of the 40-48-box kind, to keep the file small
            models = models[:2]
        programs.extend(emit_yaml(model, catalog) for model in models)
    return programs


def yaml_program_inputs() -> list[str]:
    """All inputs of the parse_yaml fixture, in a fixed order."""
    rng = random.Random(20261018)
    cases = list(YAML_PROGRAM_CASES)
    for program in _yaml_programs():
        cases.append(program)
        cases.extend(_mutate(program, rng, _YAML_ALPHABET) for _ in range(3))
    return cases


def yaml_model_outcome(text: str, catalog) -> dict:
    """What parse_yaml returns for `text`, as plain JSON values."""
    from cabinetkit import parse_yaml

    try:
        result = parse_yaml(text, catalog)
    except ValueError as exc:
        return {"text": text, "raises": f"{type(exc).__name__}: {exc}"}
    model = None if result.model is None else repr(result.model)
    return {
        "text": text,
        "diagnostics": _diagnostics(result.diagnostics),
        "model": model,
        "validate": _validate(result, catalog),
    }


def dumps(cases: list[dict]) -> str:
    """One case per line, ASCII only, so the file diffs case by case."""
    return "[\n" + ",\n".join(json.dumps(case, ensure_ascii=True) for case in cases) + "\n]\n"


def main_script() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true", help="re-record the fixtures")
    args = parser.parse_args()
    if not args.write:
        parser.error("pass --write to re-record the fixtures")
    from cabinetkit import builtin_catalog

    catalog = builtin_catalog()
    cases = [outcome(text, catalog) for text in case_inputs()]
    yaml_cases = [yaml_outcome(text) for text in yaml_case_inputs()]
    model_cases = [yaml_model_outcome(text, catalog) for text in yaml_program_inputs()]
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    for path, recorded in (
        (FIXTURE, cases), (YAML_FIXTURE, yaml_cases), (YAML_MODELS_FIXTURE, model_cases)
    ):
        path.write_text(dumps(recorded), encoding="utf-8")
        print(f"wrote {len(recorded)} cases to {path}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main_script())
