"""Cabinet shape programs: AST, two text syntaxes, and model validation.

A shape program is an ordered list of primitive instances, each carrying a
catalog model ID, an oriented box (the model-agnostic pose/size), and an
ordered map of model-specific parameters. The same model can be written in
two syntaxes:

* Python-style, two statements per primitive::

    box_0 = Box(position=(300, 200, 1000), size=(600, 400, 2000), rotation=0)
    model_0 = Model(id="M-BB01", box=box_0, N=2, NKA=298, NKB=266, DBXX=1)

* YAML (restricted subset), a ``cabinet:`` sequence of entries with fields
  ``id``, ``name`` (optional), ``position``, ``size``, ``rotation`` and
  ``params`` (optional).

Parsing never raises on malformed input; it returns diagnostics with source
spans, and only for what stops a program from being read. Checking a parsed
model against the catalog (unknown model IDs, the parameter schemas) is the
job of `validate`. Emission is deterministic and
round-trips exactly, ``parse(emit(model)) == model``, with one exception:
the Python syntax has no ``name``, so ``parse_python`` gives every instance
its catalog name (or none for an unknown ID). YAML keeps the name.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import geometry, ryaml
from .catalog import NK_KEY_RE, PARAM_KEY_RE, ParamValue, PrimitiveCatalog, validate_params
from .diagnostics import Diagnostic, SourceSpan, error, warning
from .geometry import BoxError, OrientedBox

MAX_INSTANCES = 48
SIZE_FILTER_MM = (100.0, 4500.0)

#: A byte order mark; `_decode` drops one at the start of a program text.
BOM = "\ufeff"


@dataclass(frozen=True)
class PrimitiveInstance:
    """One placed catalog primitive: model ID, box, model-specific params."""

    model_id: str
    box: OrientedBox
    name: str = ""
    params: dict[str, ParamValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class CabinetModel:
    """An ordered list of primitive instances; the unit of every pipeline."""

    instances: tuple[PrimitiveInstance, ...]

    def __post_init__(self) -> None:
        instances = tuple(self.instances)
        if not instances:
            raise ValueError("a cabinet model must contain at least one instance")
        object.__setattr__(self, "instances", instances)

    def __len__(self) -> int:
        return len(self.instances)


def make_instance(
    catalog: PrimitiveCatalog,
    model_id: str,
    box: OrientedBox,
    params: dict[str, ParamValue] | None = None,
) -> PrimitiveInstance:
    """Build an instance with its display name filled from the catalog."""
    schema = catalog.get(model_id)
    name = schema.name if schema is not None else ""
    return PrimitiveInstance(model_id=model_id, box=box, name=name, params=dict(params or {}))


@dataclass
class ParseResult:
    """Outcome of a parse: a model, or None and the errors that stopped the read.

    A parser reports only what keeps a program from being read (`syntax`,
    `encoding`, `empty`, `empty-id`, `duplicate-param`), so a parsed model
    comes with no diagnostics; `validate` checks it against the catalog.
    `id_spans()` gives the source span of each instance's model ID, for
    `validate` to place its findings. It is worked out on request, so that
    reading clean input spends nothing on it.
    """

    model: CabinetModel | None
    diagnostics: list[Diagnostic]
    id_spans: Callable[[], list[SourceSpan | None]] = field(default=list, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.model is not None


def _quote_py(text: str) -> str:
    if "\n" in text:
        raise ValueError(f"cannot emit a line break in a Python string: {text!r}")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_float(value) -> float:
    """Lossy float conversion that maps out-of-range ints to signed inf (not a crash)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# ---------------------------------------------------------------------------
# Python-style syntax.

_TOKEN_NAME = "name"
_TOKEN_NUMBER = "number"
_TOKEN_STRING = "string"
_TOKEN_OP = "op"
_TOKEN_NEWLINE = "newline"
_TOKEN_EOF = "eof"

# One alternative per token kind, tried in order at each position. A string
# may hold the escapes \" and \\ and otherwise literal backslashes; the
# lookahead keeps a backslash before a quote from matching alone, so the
# regex cannot backtrack into a closing quote that an escape consumed.
_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r]+|#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<op>[=(),])"
    r'|(?P<string>"(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*")'
    rf"|(?P<number>{ryaml.NUMBER_PATTERN})"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<mismatch>.)"
)
_ESCAPE_RE = re.compile(r'\\(["\\])')
_NEWLINE_RE = re.compile(r"\n")

#: A token is a plain tuple (kind, text, offset, length). The text of a
#: string token is its unescaped value; its length covers the quotes.
_Token = tuple[str, str, int, int]


class _SyntaxError(Exception):
    def __init__(self, message: str, token: _Token):
        super().__init__(message)
        self.message = message
        self.token = token


def _tokenize(text: str) -> list[_Token]:
    """Tokens of `text`, ending with one EOF token.

    Blank and comment-only lines yield no newline token. Input that does
    not end in a newline still gets a newline token after its last token,
    at offset len(text).
    """
    tokens: list[_Token] = []
    append = tokens.append
    line_has_tokens = False
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "skip":
            continue
        if kind == _TOKEN_NEWLINE:
            if line_has_tokens:
                append((kind, "\n", match.start(), 1))
                line_has_tokens = False
            continue
        token_text = match.group()
        start = match.start()
        if kind == "mismatch":
            token = (kind, token_text, start, 1)
            if token_text == '"':
                raise _SyntaxError("unterminated string literal", token)
            raise _SyntaxError(f"unexpected character {token_text!r}", token)
        if kind == _TOKEN_STRING:
            value = token_text[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(r"\1", value)
            append((kind, value, start, len(token_text)))
        else:
            append((kind, token_text, start, len(token_text)))
        line_has_tokens = True
    end = len(text)
    if line_has_tokens:
        append((_TOKEN_NEWLINE, "\n", end, 1))
    append((_TOKEN_EOF, "", end, 0))
    return tokens


class _LineIndex:
    """Source spans for tokens; the newline table is built on first use."""

    def __init__(self, text: str):
        self.text = text
        self._line_starts: list[int] | None = None

    def span(self, token: _Token) -> SourceSpan:
        _, _, offset, length = token
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in _NEWLINE_RE.finditer(self.text)]
        line = bisect.bisect_right(self._line_starts, offset)
        column = offset - self._line_starts[line - 1] + 1
        if length and offset == len(self.text):
            # The newline token closing input that lacks a final newline:
            # its line and column lie past the last character, its offset
            # on that character.
            offset -= 1
        return SourceSpan(line, column, offset, length)


class _PyParser:
    """Recursive-descent parser for the two-statements-per-primitive grammar."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token[0] != _TOKEN_EOF:
            self.pos += 1
        return token

    def accept_op(self, op: str) -> bool:
        """Consume `op` when it is the next token; report whether it was."""
        token = self.tokens[self.pos]
        if token[0] == _TOKEN_OP and token[1] == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> _Token:
        token = self.tokens[self.pos]
        if token[0] != _TOKEN_OP or token[1] != op:
            raise _SyntaxError(f"expected {op!r}", token)
        self.pos += 1
        return token

    def expect_name(self, what: str = "identifier") -> _Token:
        token = self.tokens[self.pos]
        if token[0] != _TOKEN_NAME:
            raise _SyntaxError(f"expected {what}", token)
        self.pos += 1
        return token

    def expect_newline(self) -> None:
        token = self.tokens[self.pos]
        if token[0] == _TOKEN_EOF:
            return
        if token[0] != _TOKEN_NEWLINE:
            raise _SyntaxError("expected end of statement", token)
        self.pos += 1

    def skip_to_newline(self) -> None:
        while self.peek()[0] not in (_TOKEN_NEWLINE, _TOKEN_EOF):
            self.advance()
        if self.peek()[0] == _TOKEN_NEWLINE:
            self.advance()

    def at_eof(self) -> bool:
        return self.tokens[self.pos][0] == _TOKEN_EOF

    def number(self, what: str) -> tuple[float | int, _Token]:
        token = self.tokens[self.pos]
        if token[0] != _TOKEN_NUMBER:
            raise _SyntaxError(f"expected a number for {what}", token)
        self.pos += 1
        return _number_value(token), token

    def vector3(self, what: str) -> tuple[tuple[float | int, float | int, float | int], _Token]:
        open_token = self.expect_op("(")
        values: list[float | int] = []
        while True:
            value, _ = self.number(what)
            values.append(value)
            if not self.accept_op(","):
                break
        close = self.expect_op(")")
        if len(values) != 3:
            offset = open_token[2]  # the span covers "(" through ")"
            raise _SyntaxError(
                f"{what} must have exactly 3 components, got {len(values)}",
                (_TOKEN_OP, "(", offset, close[2] - offset + 1),
            )
        return (values[0], values[1], values[2]), open_token


def _number_value(token: _Token) -> float | int:
    try:
        return ryaml.read_number(token[1])
    except ValueError as exc:
        raise _SyntaxError(str(exc), token) from None


def parse_python(text: str | bytes, catalog: PrimitiveCatalog) -> ParseResult:
    """Parse the Python-style syntax. Never raises on malformed input."""
    decoded, diags = _decode(text)
    if decoded is None:
        return ParseResult(None, diags)
    lines = _LineIndex(decoded)
    try:
        parser = _PyParser(_tokenize(decoded))
    except _SyntaxError as exc:
        diags.append(error("syntax", exc.message, lines.span(exc.token)))
        return ParseResult(None, diags)

    instances: list[PrimitiveInstance] = []
    id_spans: list[Callable[[], SourceSpan]] = []
    while not parser.at_eof():
        try:
            instance = _parse_primitive(parser, lines, catalog, diags, id_spans)
        except _SyntaxError as exc:
            diags.append(error("syntax", exc.message, lines.span(exc.token)))
            parser.skip_to_newline()
            continue
        if instance is not None:
            instances.append(instance)

    if not instances and not diags:
        diags.append(error("empty", "program defines no primitives"))
    if diags:
        return ParseResult(None, diags)
    return ParseResult(CabinetModel(tuple(instances)), [], lambda: [span() for span in id_spans])


def _parse_primitive(
    parser: _PyParser,
    lines: _LineIndex,
    catalog: PrimitiveCatalog,
    diags: list[Diagnostic],
    id_spans: list[Callable[[], SourceSpan]],
) -> PrimitiveInstance | None:
    """One Box and Model statement pair; a kept instance's ID span goes to `id_spans`."""
    # Statement 1: <var> = Box(position=(...), size=(...), rotation=r)
    box_var = parser.expect_name("box variable name")
    parser.expect_op("=")
    ctor = parser.expect_name("Box constructor")
    if ctor[1] != "Box":
        raise _SyntaxError(f"expected Box constructor, got {ctor[1]!r}", ctor)
    parser.expect_op("(")
    fields: dict[str, tuple] = {}
    while True:
        key = parser.expect_name("Box argument name")
        parser.expect_op("=")
        name = key[1]
        if name in ("position", "size"):
            value = parser.vector3(name)
        elif name == "rotation":
            value = parser.number("rotation")
        else:
            raise _SyntaxError(f"unknown Box argument {name!r}", key)
        if name in fields:
            raise _SyntaxError(f"duplicate Box argument {name!r}", key)
        fields[name] = value
        if not parser.accept_op(","):
            break
    parser.expect_op(")")
    parser.expect_newline()
    for required in ("position", "size", "rotation"):
        if required not in fields:
            raise _SyntaxError(f"Box is missing argument {required!r}", ctor)
    try:
        box = OrientedBox(
            position=fields["position"][0],
            size=fields["size"][0],
            rotation_deg=fields["rotation"][0],
        )
    except BoxError as exc:
        raise _SyntaxError(str(exc), fields[exc.argument][1]) from None

    # Statement 2: <var> = Model(id="...", box=<box_var>, KEY=value, ...)
    if parser.at_eof():
        raise _SyntaxError(
            f"box {box_var[1]!r} is not followed by a Model statement", box_var
        )
    parser.expect_name("model variable name")
    parser.expect_op("=")
    ctor = parser.expect_name("Model constructor")
    if ctor[1] != "Model":
        raise _SyntaxError(f"expected Model constructor, got {ctor[1]!r}", ctor)
    parser.expect_op("(")

    model_id: str | None = None
    id_token = ctor
    box_ref: str | None = None
    params: dict[str, ParamValue] = {}
    raw_params: dict[str, str] = {}
    while True:
        key = parser.expect_name("Model argument name")
        name = key[1]
        if name == "id":
            parser.expect_op("=")
            token = parser.peek()
            if token[0] != _TOKEN_STRING:
                raise _SyntaxError("model id must be a string literal", token)
            parser.advance()
            if model_id is not None:
                raise _SyntaxError("duplicate 'id' argument", key)
            model_id, id_token = token[1], token
        elif name == "box":
            parser.expect_op("=")
            ref = parser.expect_name("box variable reference")
            if box_ref is not None:
                raise _SyntaxError("duplicate 'box' argument", key)
            box_ref = ref[1]
            if box_ref != box_var[1]:
                raise _SyntaxError(
                    f"Model references box {box_ref!r} but the preceding statement "
                    f"defines {box_var[1]!r}",
                    ref,
                )
        else:
            if not PARAM_KEY_RE.match(name):
                raise _SyntaxError(
                    f"parameter key {name!r} must match [A-Z][A-Z0-9]*", key
                )
            parser.expect_op("=")
            token = parser.peek()
            if token[0] == _TOKEN_NUMBER:
                parser.advance()
                value: ParamValue = _number_value(token)
                raw_params[name] = token[1]
            elif token[0] == _TOKEN_STRING:
                parser.advance()
                value = token[1]
            else:
                raise _SyntaxError(f"parameter {name} must be a number or string", token)
            if name in params:
                diags.append(
                    error("duplicate-param", f"duplicate parameter key {name!r}", lines.span(key))
                )
            params[name] = value
        if not parser.accept_op(","):
            break
    parser.expect_op(")")
    parser.expect_newline()
    if model_id is None:
        raise _SyntaxError("Model is missing the 'id' argument", ctor)
    if box_ref is None:
        raise _SyntaxError("Model is missing the 'box' argument", ctor)
    id_span = functools.partial(lines.span, id_token)
    instance = _finish_instance(model_id, None, id_span, box, params, raw_params, catalog, diags)
    if instance is not None:
        id_spans.append(id_span)
    return instance


def _finish_instance(
    model_id: str,
    name: str | None,
    id_span: Callable[[], SourceSpan | None],
    box: OrientedBox,
    params: dict[str, ParamValue],
    raw_params: dict[str, str],
    catalog: PrimitiveCatalog,
    diags: list[Diagnostic],
) -> PrimitiveInstance | None:
    """The instance, or None after reporting an empty ID at `id_span()`.

    `name` is None when the entry gives none; the catalog's name is used
    then. `raw_params` holds the source text of each number parameter.
    """
    if not model_id:
        diags.append(error("empty-id", "model ID must be non-empty", id_span()))
        return None
    schema = catalog.get(model_id)
    # Catalog drift: parameters the catalog does not know keep their source text.
    kept: dict[str, ParamValue] = {
        key: value
        if schema is not None and schema.schema_for(key) is not None
        else raw_params.get(key, str(value))
        for key, value in params.items()
    }
    if name is None:
        name = schema.name if schema is not None else ""
    return PrimitiveInstance(model_id=model_id, box=box, name=name, params=kept)


def emit_python(model: CabinetModel, catalog: PrimitiveCatalog) -> str:
    """Deterministic Python-style emission; two statements per primitive.

    A string holding a line break, which the syntax cannot write, raises ValueError.
    """
    lines: list[str] = []
    for k, instance in enumerate(model.instances):
        px, py, pz = (ryaml.format_box_number(c) for c in instance.box.position)
        sx, sy, sz = (ryaml.format_box_number(c) for c in instance.box.size)
        rot = ryaml.format_box_number(instance.box.rotation_deg)
        lines.append(
            f"box_{k} = Box(position=({px}, {py}, {pz}), "
            f"size=({sx}, {sy}, {sz}), rotation={rot})"
        )
        args = [f"id={_quote_py(instance.model_id)}", f"box=box_{k}"]
        for key, value in instance.params.items():
            rendered = _quote_py(value) if isinstance(value, str) else ryaml.format_scalar(value)
            args.append(f"{key}={rendered}")
        lines.append(f"model_{k} = Model({', '.join(args)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# YAML syntax.


def parse_yaml(text: str | bytes, catalog: PrimitiveCatalog) -> ParseResult:
    """Parse the YAML syntax (restricted subset). Never raises on bad input.

    Text laid out the way `emit_yaml` writes it is read entry by entry with
    one regex (`_read_emitted_yaml`). Any other text, and any text that
    would yield a diagnostic, is read through `ryaml.parse`, the only
    source of diagnostics and spans.
    """
    decoded, diags = _decode(text)
    if decoded is None:
        return ParseResult(None, diags)
    model = _read_emitted_yaml(decoded, catalog)
    if model is not None:
        return ParseResult(model, [], lambda: _parse_yaml_tree(decoded, catalog).id_spans())
    return _parse_yaml_tree(decoded, catalog)


# One emitted string: plain (a letter, then no `#`, quote or colon, and no
# trailing space), or double-quoted on one line with only the escapes \n,
# \t, \" and \\. Both read back the same through `ryaml.parse`.
_YAML_STRING = r'[A-Za-z](?:[^\n#\'":]*[^\s#\'":])?|"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*"'
_YAML_NUMBER = ryaml.NUMBER_PATTERN
_YAML_VECTOR = rf"\n  - ({_YAML_NUMBER})\n  - ({_YAML_NUMBER})\n  - ({_YAML_NUMBER})\n"
_YAML_ENTRY_RE = re.compile(
    rf"- id: ({_YAML_STRING})\n"
    rf"(?:  name: ({_YAML_STRING})\n)?"
    rf"  position:{_YAML_VECTOR}"
    rf"  size:{_YAML_VECTOR}"
    rf"  rotation: ({_YAML_NUMBER})\n"
    rf"(?:  params:\n((?:    [A-Z][A-Z0-9]*: (?:{_YAML_NUMBER}|{_YAML_STRING})\n)+))?"
)
_YAML_PARAM_RE = re.compile(rf"    ([A-Z][A-Z0-9]*): (?:({_YAML_NUMBER})|({_YAML_STRING}))\n")
_YAML_HEADER = "cabinet:\n"


def _yaml_string(token: str) -> str:
    if token[0] == '"':
        return ryaml.unescape(token[1:-1])
    return token


def _read_emitted_yaml(text: str, catalog: PrimitiveCatalog) -> CabinetModel | None:
    """The model of `text` when it is laid out as `emit_yaml` writes and parses clean.

    Returns None when an entry strays from that layout, a literal is out
    of range, a box is rejected, a parameter key repeats or an ID is
    empty; `parse_yaml` then reads the whole text again through
    `ryaml.parse`.
    """
    if not text.startswith(_YAML_HEADER):
        return None
    instances: list[PrimitiveInstance] = []
    diags: list[Diagnostic] = []
    pos, end = len(_YAML_HEADER), len(text)
    while pos < end:
        entry = _YAML_ENTRY_RE.match(text, pos)
        if entry is None:
            return None
        pos = entry.end()
        model_id, name, *numbers, params_block = entry.groups()
        try:
            px, py, pz, sx, sy, sz, rotation = [ryaml.read_number(number) for number in numbers]
            box = OrientedBox(position=(px, py, pz), size=(sx, sy, sz), rotation_deg=rotation)
        except ValueError:  # a literal out of range, or a BoxError
            return None
        params: dict[str, ParamValue] = {}
        raw_params: dict[str, str] = {}
        if params_block is not None:
            for item in _YAML_PARAM_RE.finditer(params_block):
                key, number, string = item.groups()
                if key in params:
                    return None
                if number is None:
                    params[key] = _yaml_string(string)
                    continue
                try:
                    params[key] = ryaml.read_number(number)
                except ValueError:
                    return None
                raw_params[key] = number
        name = None if name is None else _yaml_string(name)
        instance = _finish_instance(
            _yaml_string(model_id), name, lambda: None, box, params, raw_params, catalog, diags
        )
        if instance is None:
            return None
        instances.append(instance)
    if not instances:
        return None
    return CabinetModel(tuple(instances))


def _parse_yaml_tree(text: str, catalog: PrimitiveCatalog) -> ParseResult:
    """`parse_yaml` through the `ryaml` node tree, with diagnostics and spans."""
    diags: list[Diagnostic] = []
    try:
        root = ryaml.parse(text)
    except ryaml.RYamlError as exc:
        diags.append(error("syntax", exc.message, exc.span))
        return ParseResult(None, diags)

    if isinstance(root, ryaml.MapNode):
        for key in root.pairs:
            if key != "cabinet":
                diags.append(error("syntax", f"unknown top-level key {key!r}", root.key_spans[key]))
    if not isinstance(root, ryaml.MapNode) or not isinstance(
        root.get("cabinet"), ryaml.SeqNode
    ):
        diags.append(error("syntax", "document must contain a 'cabinet:' sequence", _span_of(root)))
        return ParseResult(None, diags)

    entries = root.get("cabinet")
    assert isinstance(entries, ryaml.SeqNode)
    instances: list[PrimitiveInstance] = []
    id_spans: list[SourceSpan | None] = []
    for index, entry in enumerate(entries.items):
        instance = _instance_from_yaml(index, entry, text, catalog, diags)
        if instance is not None:
            instances.append(instance)
            id_spans.append(entry.get("id").span)

    if not instances and not diags:
        diags.append(error("empty", "cabinet sequence is empty", _span_of(entries)))
    if diags:
        return ParseResult(None, diags)
    return ParseResult(CabinetModel(tuple(instances)), [], lambda: id_spans)


def _instance_from_yaml(
    index: int,
    entry: ryaml.Node,
    text: str,
    catalog: PrimitiveCatalog,
    diags: list[Diagnostic],
) -> PrimitiveInstance | None:
    if not isinstance(entry, ryaml.MapNode):
        diags.append(error("syntax", f"cabinet entry {index} must be a mapping", _span_of(entry)))
        return None
    allowed = {"id", "name", "position", "size", "rotation", "params"}
    ok = True
    for key in entry.pairs:
        if key not in allowed:
            diags.append(
                error("syntax", f"unknown field {key!r} in cabinet entry", entry.key_spans[key])
            )
            ok = False

    id_node = entry.get("id")
    if not isinstance(id_node, ryaml.ScalarNode) or not isinstance(id_node.value, str):
        diags.append(error("syntax", f"cabinet entry {index} requires a string 'id'", _span_of(entry)))
        return None
    name_node = entry.get("name")
    if name_node is not None and not (
        isinstance(name_node, ryaml.ScalarNode) and isinstance(name_node.value, str)
    ):
        diags.append(error("syntax", "'name' must be a string", _span_of(name_node)))
        ok = False

    position = _vector_from_yaml(entry, "position", diags)
    size = _vector_from_yaml(entry, "size", diags)
    rotation_node = entry.get("rotation")
    rotation = 0.0
    if rotation_node is None:
        diags.append(error("syntax", f"cabinet entry {index} requires 'rotation'", _span_of(entry)))
        ok = False
    elif not isinstance(rotation_node, ryaml.ScalarNode) or isinstance(rotation_node.value, str):
        diags.append(error("syntax", "'rotation' must be a number", _span_of(rotation_node)))
        ok = False
    else:
        rotation = rotation_node.value

    params: dict[str, ParamValue] = {}
    raw_params: dict[str, str] = {}
    params_node = entry.get("params")
    if params_node is not None:
        if not isinstance(params_node, ryaml.MapNode):
            diags.append(error("syntax", "'params' must be a mapping", _span_of(params_node)))
            ok = False
        else:
            for key, value_node in params_node.pairs.items():
                if not PARAM_KEY_RE.match(key):
                    diags.append(
                        error(
                            "syntax",
                            f"parameter key {key!r} must match [A-Z][A-Z0-9]*",
                            params_node.key_spans[key],
                        )
                    )
                    ok = False
                    continue
                if not isinstance(value_node, ryaml.ScalarNode):
                    diags.append(
                        error("syntax", f"parameter {key} must be a scalar", _span_of(value_node))
                    )
                    ok = False
                    continue
                params[key] = value_node.value
                if not isinstance(value_node.value, str):
                    span = value_node.span
                    raw_params[key] = text[span.offset:span.offset + span.length]

    if position is None or size is None or not ok:
        return None
    try:
        box = OrientedBox(position=position, size=size, rotation_deg=rotation)
    except BoxError as exc:
        diags.append(error("syntax", str(exc), _span_of(entry.get(exc.argument))))
        return None

    name = None if name_node is None else name_node.value
    return _finish_instance(
        id_node.value, name, lambda: id_node.span, box, params, raw_params, catalog, diags
    )


def _vector_from_yaml(
    entry: ryaml.MapNode, key: str, diags: list[Diagnostic]
) -> tuple[float | int, float | int, float | int] | None:
    node = entry.get(key)
    if node is None:
        diags.append(error("syntax", f"cabinet entry requires {key!r}", _span_of(entry)))
        return None
    if not isinstance(node, ryaml.SeqNode):
        diags.append(error("syntax", f"{key!r} must be a 3-sequence", _span_of(node)))
        return None
    values: list[float | int] = []
    for item in node.items:
        if not isinstance(item, ryaml.ScalarNode) or isinstance(item.value, str):
            diags.append(error("syntax", f"{key!r} components must be numbers", _span_of(item)))
            return None
        values.append(item.value)
    if len(values) != 3:
        diags.append(
            error("syntax", f"{key!r} must have exactly 3 components, got {len(values)}", _span_of(node))
        )
        return None
    return values[0], values[1], values[2]


def _span_of(node) -> SourceSpan | None:
    return getattr(node, "span", None)


def emit_yaml(model: CabinetModel, catalog: PrimitiveCatalog) -> str:
    """Deterministic YAML emission with the fixed field order."""
    lines = ["cabinet:"]
    for instance in model.instances:
        lines.append(f"- id: {ryaml.format_string(instance.model_id)}")
        if instance.name:
            lines.append(f"  name: {ryaml.format_string(instance.name)}")
        lines.append("  position:")
        for component in instance.box.position:
            lines.append(f"  - {ryaml.format_box_number(component)}")
        lines.append("  size:")
        for component in instance.box.size:
            lines.append(f"  - {ryaml.format_box_number(component)}")
        lines.append(f"  rotation: {ryaml.format_box_number(instance.box.rotation_deg)}")
        if instance.params:
            lines.append("  params:")
            for key, value in instance.params.items():
                lines.append(f"    {key}: {ryaml.format_scalar(value)}")
    return "\n".join(lines) + "\n"


def _decode(text: str | bytes) -> tuple[str | None, list[Diagnostic]]:
    """The program text, without one leading byte order mark (U+FEFF).

    Spans count from the character after the mark, as PyYAML reads it.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            span = SourceSpan(1, 1, exc.start, max(1, exc.end - exc.start))
            return None, [error("encoding", "input is not valid UTF-8", span)]
    return text.removeprefix(BOM), []


# ---------------------------------------------------------------------------
# Validation.


def validate(
    model: CabinetModel,
    catalog: PrimitiveCatalog,
    *,
    filters: bool = False,
    spans: Sequence[SourceSpan | None] = (),
) -> list[Diagnostic]:
    """Check model invariants and, optionally, the dataset-filter rules.

    Returns all violations as diagnostics; an empty list means valid. Given
    `spans`, one per instance (`ParseResult.id_spans()`), each finding about
    an instance carries its instance's span.
    """
    diags: list[Diagnostic] = []
    extents = geometry.box_extents([instance.box for instance in model.instances])
    lowest = [min(lo) for lo, _ in extents]
    for index, instance in enumerate(model.instances):
        found: list[Diagnostic] = []
        schema = catalog.get(instance.model_id)
        if schema is None:
            found.append(
                error(
                    "unknown-model",
                    f"instance {index}: unknown model ID {instance.model_id!r}",
                )
            )
        else:
            for diag in validate_params(schema, instance.params):
                found.append(
                    Diagnostic(diag.severity, diag.code, f"instance {index}: {diag.message}")
                )
            found.extend(_check_width_closure(index, instance, schema, catalog))
        if lowest[index] < -geometry.OCTANT_EPS:
            found.append(
                error(
                    "octant",
                    f"instance {index}: box extends outside the first octant "
                    f"(min corner coordinate {lowest[index]:.6f} mm)",
                )
            )
        span = spans[index] if spans else None
        diags.extend(found if span is None else [replace(diag, span=span) for diag in found])

    if filters:
        if len(model.instances) > MAX_INSTANCES:
            diags.append(
                error(
                    "filter-count",
                    f"model has {len(model.instances)} primitives; the dataset "
                    f"filter allows at most {MAX_INSTANCES}",
                )
            )
        model_lo = [min(column) for column in zip(*(lo for lo, _ in extents))]
        model_hi = [max(column) for column in zip(*(hi for _, hi in extents))]
        max_dim = max(hi - lo for lo, hi in zip(model_lo, model_hi))
        if not SIZE_FILTER_MM[0] <= max_dim <= SIZE_FILTER_MM[1]:
            diags.append(
                error(
                    "filter-size",
                    f"model extent {max_dim:.1f} mm is outside the allowed "
                    f"range [{SIZE_FILTER_MM[0]:.0f}, {SIZE_FILTER_MM[1]:.0f}] mm",
                )
            )
    return diags


def _check_width_closure(index, instance, schema, catalog) -> list[Diagnostic]:
    """Warn when divided-space widths plus dividers exceed the box interior."""
    nk_values = [
        v for k, v in instance.params.items()
        if NK_KEY_RE.match(k) and isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if not nk_values or schema.schema_for("N") is None:
        return []
    n = instance.params.get("N")
    if not isinstance(n, int) or isinstance(n, bool):
        return []
    thickness = catalog.divider_thickness_mm
    interior = instance.box.size[0] - 2 * thickness
    needed = sum(map(_to_float, nk_values)) + _to_float(n - 1) * thickness
    if needed > interior + 1e-6:
        return [
            warning(
                "width-closure",
                f"instance {index}: divided-space widths ({needed:.1f} mm with "
                f"dividers) exceed the interior width ({interior:.1f} mm)",
            )
        ]
    return []
