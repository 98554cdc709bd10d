"""Restricted YAML subset reader.

Supports exactly what the toolkit's file formats need, deterministically:
block mappings, block sequences, flow sequences of scalars, plain scalars
(int / decimal / string), and quoted strings. Anchors, aliases, tags, flow
mappings, block scalars, and multi-document streams are rejected. Every
node carries a source span so callers can report precise diagnostics. The
lexical rules are listed in docs/formats.md.

Scalars are rendered here (`format_*`), so that every format writes numbers
and strings the same way; the layout of emitted documents is left to each
format (shape programs, catalogs), so that byte-level output stays under
that format's control.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal

from .diagnostics import SourceSpan

#: A number literal in both shape-program syntaxes and in this subset: an
#: optional sign, ASCII digits and at most one decimal point, no exponent.
#: With a decimal point it is a float, without one an int.
NUMBER_PATTERN = r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)"
_NUMBER_RE = re.compile(NUMBER_PATTERN)

# Leading characters of YAML features outside the subset.
_UNSUPPORTED_LEAD = {
    "&": "anchor",
    "*": "alias",
    "!": "tag",
    "|": "block scalar",
    ">": "block scalar",
    "{": "flow mapping",
    "%": "directive",
    "?": "complex mapping key",
    "@": "reserved indicator",
    "`": "reserved indicator",
}

Scalar = int | float | str


class RYamlError(Exception):
    """Syntax or subset violation, with the offending location."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


@dataclass
class ScalarNode:
    value: Scalar
    span: SourceSpan


@dataclass
class SeqNode:
    items: list["Node"]
    span: SourceSpan


@dataclass
class MapNode:
    pairs: dict[str, "Node"]
    key_spans: dict[str, SourceSpan]
    span: SourceSpan

    def get(self, key: str) -> "Node | None":
        return self.pairs.get(key)


Node = ScalarNode | SeqNode | MapNode


def parse(text: str) -> Node:
    """Parse a single document; raises RYamlError on any problem."""
    lines = _logical_lines(text)
    if not lines:
        raise RYamlError("empty document", SourceSpan(1, 1, 0, 0))
    parser = _Parser(lines)
    node = parser.parse_node(0)
    trailing = parser.peek()
    if trailing is not None:
        raise RYamlError("content after end of document", trailing.span())
    return node


#: A quoted scalar: double-quoted with backslash escapes, or single-quoted
#: with ``''`` for a quote (so ``'x''`` is still open). This one rule decides
#: where comments start and where quoted scalars and quoted flow items end.
_QUOTED = r'"[^"\\]*(?:\\.[^"\\]*)*"|\'[^\']*(?:\'\'[^\']*)*\'(?!\')'
_QUOTED_RE = re.compile(_QUOTED)
# What a line holds before its comment. A comment is a `#` outside quotes
# that opens the line or follows a space or tab; an unclosed quote runs to
# the end of the line.
_CONTENT_RE = re.compile(rf"(?:{_QUOTED}|[\"'].*|[^\"'#]+|(?<=[^ \t])#)*")
# One flow-sequence item, up to the next comma outside its leading quote.
_FLOW_ITEM_RE = re.compile(rf"\s*(?:{_QUOTED})?[^,]*")
_ENTRY_RE = re.compile(r"-(?: +|\Z)")
# ``key: value`` or ``key:``; the match ends where the inline value starts.
_KEY_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_.\-]*):(?: \s*|\Z)")
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


@dataclass
class _Line:
    """One record of the document, classified once when it is read.

    A ``- rest`` line gives two records: the entry, and `rest` anchored at
    its own column, so a mapping that starts after the dash continues on
    the lines below at that column.
    """

    indent: int
    text: str
    line_no: int
    offset: int  # char offset of the first content character
    entry: bool = False  # a sequence entry: ``- ...`` or ``-``
    key: str | None = None  # the key of a ``key: value`` or ``key:`` record
    value: int | None = 0  # where the inline value starts in `text`; None if absent

    def span(self, start: int = 0, length: int | None = None) -> SourceSpan:
        if length is None:
            length = max(1, len(self.text) - start)
        return SourceSpan(self.line_no, self.indent + start + 1, self.offset + start, length)


def _record(indent: int, text: str, line_no: int, offset: int) -> _Line:
    key = _KEY_RE.match(text)
    if key is None:
        return _Line(indent, text, line_no, offset)
    value = key.end() if key.end() < len(text) else None
    return _Line(indent, text, line_no, offset, key=key[1], value=value)


def _logical_lines(text: str) -> list[_Line]:
    out: list[_Line] = []
    offset = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        stripped = line.lstrip(" ")
        indent = len(line) - len(stripped)
        if stripped.startswith("\t"):
            raise RYamlError(
                "tab characters are not allowed in indentation",
                SourceSpan(line_no, 1, offset, 1),
            )
        content = _CONTENT_RE.match(stripped)[0].rstrip()
        if content == "---" or content == "...":
            raise RYamlError(
                "multi-document streams are not supported",
                SourceSpan(line_no, indent + 1, offset + indent, 3),
            )
        start = offset + indent
        entry = _ENTRY_RE.match(content)
        if entry is not None:
            out.append(_Line(indent, content, line_no, start, entry=True, value=None))
            col = entry.end()
            if col < len(content):
                out.append(_record(indent + col, content[col:], line_no, start + col))
        elif content:
            out.append(_record(indent, content, line_no, start))
        offset += len(raw) + 1
    return out


class _Parser:
    def __init__(self, lines: list[_Line]):
        self.lines = lines
        self.pos = 0

    def peek(self) -> _Line | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def parse_node(self, min_indent: int) -> Node:
        line = self.peek()
        if line is None or line.indent < min_indent:
            # A document that ends where a value is due is reported at its last record.
            raise RYamlError("expected a value", (line or self.lines[-1]).span())
        if line.entry:
            return self._parse_sequence(line.indent)
        if line.key is not None:
            return self._parse_mapping(line.indent)
        self.pos += 1
        return _parse_inline(line)

    def _parse_mapping(self, indent: int) -> MapNode:
        first = self.peek()
        assert first is not None
        pairs: dict[str, Node] = {}
        key_spans: dict[str, SourceSpan] = {}
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                break
            if line.indent > indent:
                raise RYamlError("unexpected indentation", line.span())
            if line.entry:
                break
            key = line.key
            if key is None:
                raise RYamlError("expected 'key: value'", line.span())
            if key in pairs:
                raise RYamlError(f"duplicate key {key!r}", line.span(0, len(key)))
            key_spans[key] = line.span(0, len(key))
            self.pos += 1
            if line.value is not None:
                pairs[key] = _parse_inline(line)
                continue
            nxt = self.peek()
            if nxt is not None and nxt.indent > indent:
                pairs[key] = self.parse_node(indent + 1)
            elif nxt is not None and nxt.indent == indent and nxt.entry:
                pairs[key] = self._parse_sequence(indent)
            else:
                raise RYamlError(f"missing value for key {key!r}", line.span())
        return MapNode(pairs, key_spans, first.span(0, 1))

    def _parse_sequence(self, indent: int) -> SeqNode:
        first = self.peek()
        assert first is not None
        items: list[Node] = []
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                break
            if line.indent > indent:
                raise RYamlError("unexpected indentation", line.span())
            if not line.entry:
                break
            self.pos += 1
            items.append(self.parse_node(indent + 1))
        return SeqNode(items, first.span(0, 1))


def _parse_inline(line: _Line) -> Node:
    """The value of a record that holds one inline: a scalar or a flow sequence."""
    start = line.value
    assert start is not None
    text = line.text[start:]
    if text.startswith("["):
        return _parse_flow_seq(line, start)
    value, consumed = _parse_scalar_token(text, line, start)
    if text[consumed:].strip():
        raise RYamlError("unexpected trailing content", line.span(start + consumed))
    return value


def _parse_flow_seq(line: _Line, start: int) -> SeqNode:
    text = line.text[start:]
    if not text.endswith("]"):
        raise RYamlError("unterminated flow sequence", line.span(start))
    items: list[Node] = []
    if text[1:-1].strip():
        cursor = 1  # position within `text`
        while cursor < len(text):
            piece = _FLOW_ITEM_RE.match(text, cursor, len(text) - 1)[0]
            stripped = piece.strip()
            if not stripped:
                raise RYamlError("empty flow sequence element", line.span(start + cursor))
            if "[" in stripped and stripped[0] not in "\"'":
                raise RYamlError(
                    "nested flow sequences are not supported",
                    line.span(start + cursor),
                )
            lead = len(piece) - len(piece.lstrip())
            node, consumed = _parse_scalar_token(stripped, line, start + cursor + lead)
            if consumed != len(stripped):
                raise RYamlError(
                    "unexpected content in flow sequence",
                    line.span(start + cursor + lead + consumed),
                )
            items.append(node)
            cursor += len(piece) + 1
    return SeqNode(items, line.span(start, len(text)))


def _parse_scalar_token(text: str, line: _Line, start: int) -> tuple[ScalarNode, int]:
    """Parse one scalar at the start of `text`; returns (node, chars consumed)."""
    lead = text[0]
    if lead in _UNSUPPORTED_LEAD:
        raise RYamlError(
            f"{_UNSUPPORTED_LEAD[lead]}s are not supported by this YAML subset",
            line.span(start),
        )
    if lead in "\"'":
        quoted = _QUOTED_RE.match(text)
        body = text[1 : quoted.end() - 1] if quoted else text[1:]
        if lead == "'":
            value = body.replace("''", "'")
        else:
            for escape in _ESCAPE_RE.finditer(body):
                if escape[1] not in _ESCAPES:
                    raise RYamlError(
                        f"unknown escape \\{escape[1]}", line.span(start + 1 + escape.start(), 2)
                    )
            value = unescape(body)
        if quoted is None:
            raise RYamlError("unterminated string", line.span(start))
        return ScalarNode(value, line.span(start, quoted.end())), quoted.end()
    token = text.strip()
    span = line.span(start, len(token))
    if _NUMBER_RE.fullmatch(token):
        try:
            return ScalarNode(read_number(token), span), len(text)
        except ValueError as exc:
            raise RYamlError(str(exc), span) from None
    return ScalarNode(token, span), len(text)


def unescape(body: str) -> str:
    """The value of a double-quoted scalar from its `body`, whose escapes are all known."""
    return _ESCAPE_RE.sub(lambda escape: _ESCAPES[escape[1]], body)


def read_number(token: str) -> int | float:
    """The value of a `NUMBER_PATTERN` literal.

    Raises ValueError when the value does not fit: a decimal that overflows
    a float, or an integer longer than Python's int() accepts.
    """
    try:
        if "." not in token:
            return int(token)
        value = float(token)
    except ValueError:
        raise ValueError("number literal is out of range") from None
    if math.isinf(value):
        raise ValueError("number literal is out of range")
    return value


def format_scalar(value: Scalar) -> str:
    """Render a scalar the way the subset parses it back (type-preserving)."""
    if isinstance(value, bool):
        raise TypeError("booleans are not part of the subset")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return format_string(value)


def format_float(value: float) -> str:
    """Type-preserving float rendering: always carries a decimal point."""
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return f"{value:.1f}"
    text = format_positional(value)
    return text if "." in text else text + ".0"


def format_box_number(value: float) -> str:
    """Minimal-digit rendering of a float-valued coordinate, angle or length."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format_positional(value)


def format_positional(value: float) -> str:
    """Shortest decimal that reads back as exactly `value`, with no exponent.

    That is `repr(value)` itself unless it has an exponent, which `Decimal`
    then writes out in positional form.
    """
    if not math.isfinite(value):
        raise ValueError("non-finite numbers cannot be serialized")
    text = repr(value)
    return text if "e" not in text else format(Decimal(text), "f")


_PLAIN_SAFE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.\- ]*")
_WORDY = {"true", "false", "null", "yes", "no", "on", "off"}


def format_string(value: str) -> str:
    """Emit plain when unambiguous, double-quoted otherwise."""
    if (
        _PLAIN_SAFE_RE.fullmatch(value)
        and not value.endswith(" ")
        and value.lower() not in _WORDY
    ):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'
