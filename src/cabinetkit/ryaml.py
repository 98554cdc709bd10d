"""Restricted YAML subset reader.

Supports exactly what the toolkit's file formats need, deterministically:
block mappings, block sequences, flow sequences of scalars, plain scalars
(int / decimal / string), and quoted strings. Anchors, aliases, tags, flow
mappings, block scalars, and multi-document streams are rejected. Every
node carries a source span so callers can report precise diagnostics.

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
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")

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


def to_plain(node: Node):
    """Convert a node tree to plain Python values."""
    if isinstance(node, ScalarNode):
        return node.value
    if isinstance(node, SeqNode):
        return [to_plain(item) for item in node.items]
    return {key: to_plain(value) for key, value in node.pairs.items()}


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


def loads(text: str):
    """Parse and convert to plain Python values in one step."""
    return to_plain(parse(text))


@dataclass
class _Line:
    indent: int
    text: str
    line_no: int
    offset: int  # char offset of the first content character

    def span(self, start: int = 0, length: int | None = None) -> SourceSpan:
        if length is None:
            length = max(1, len(self.text) - start)
        return SourceSpan(self.line_no, self.indent + start + 1, self.offset + start, length)


def _strip_comment(line: str) -> str:
    """Drop a trailing comment; ``#`` must be preceded by whitespace and unquoted."""
    quote: str | None = None
    i = 0
    while i < len(line):
        ch = line[i]
        if quote is not None:
            if quote == '"' and ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in ('"', "'"):
            quote = ch
        elif ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
        i += 1
    return line


def _logical_lines(text: str) -> list[_Line]:
    out: list[_Line] = []
    offset = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        stripped = line.lstrip(" ")
        indent = len(line) - len(stripped)
        if "\t" in line[:indent] or stripped.startswith("\t"):
            raise RYamlError(
                "tab characters are not allowed in indentation",
                SourceSpan(line_no, 1, offset, 1),
            )
        content = _strip_comment(stripped).rstrip()
        if content == "---" or content == "...":
            raise RYamlError(
                "multi-document streams are not supported",
                SourceSpan(line_no, indent + 1, offset + indent, 3),
            )
        if content:
            out.append(_Line(indent, content, line_no, offset + indent))
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
            span = line.span() if line else SourceSpan(1, 1, 0, 0)
            raise RYamlError("expected a value", span)
        if line.text.startswith("- ") or line.text == "-":
            return self._parse_sequence(line.indent)
        if _split_key(line.text) is not None:
            return self._parse_mapping(line.indent)
        node = self._parse_inline(line, 0)
        self.pos += 1
        return node

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
            if line.text.startswith("- ") or line.text == "-":
                break
            split = _split_key(line.text)
            if split is None:
                raise RYamlError("expected 'key: value'", line.span())
            key, rest = split
            if key in pairs:
                raise RYamlError(f"duplicate key {key!r}", line.span(0, len(key)))
            key_spans[key] = line.span(0, len(key))
            if rest:
                rest_col = len(line.text) - len(rest)
                pairs[key] = self._parse_inline(line, rest_col)
                self.pos += 1
            else:
                self.pos += 1
                nxt = self.peek()
                if nxt is not None and nxt.indent > indent:
                    pairs[key] = self.parse_node(indent + 1)
                elif (
                    nxt is not None
                    and nxt.indent == indent
                    and (nxt.text.startswith("- ") or nxt.text == "-")
                ):
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
            if not (line.text.startswith("- ") or line.text == "-"):
                break
            rest = line.text[2:] if line.text.startswith("- ") else ""
            rest = rest.lstrip(" ")
            if not rest:
                self.pos += 1
                items.append(self.parse_node(indent + 1))
                continue
            rest_col = len(line.text) - len(rest)
            if _split_key(rest) is not None:
                # Inline mapping start: re-anchor the remainder as its own line
                # so the mapping parser picks up the following keys at the same
                # column.
                self.lines[self.pos] = _Line(
                    line.indent + rest_col, rest, line.line_no, line.offset + rest_col
                )
                items.append(self._parse_mapping(line.indent + rest_col))
            else:
                items.append(self._parse_inline(line, rest_col))
                self.pos += 1
        return SeqNode(items, first.span(0, 1))

    def _parse_inline(self, line: _Line, start: int) -> Node:
        text = line.text[start:]
        if text.startswith("["):
            return self._parse_flow_seq(line, start)
        value, consumed = _parse_scalar_token(text, line, start)
        trailing = text[consumed:].strip()
        if trailing:
            raise RYamlError(
                "unexpected trailing content", line.span(start + consumed)
            )
        return value

    def _parse_flow_seq(self, line: _Line, start: int) -> SeqNode:
        text = line.text[start:]
        if not text.endswith("]"):
            raise RYamlError("unterminated flow sequence", line.span(start))
        inner = text[1:-1]
        items: list[Node] = []
        if inner.strip():
            cursor = 1  # position within `text`
            for piece in inner.split(","):
                stripped = piece.strip()
                if not stripped:
                    raise RYamlError("empty flow sequence element", line.span(start + cursor))
                if "[" in stripped:
                    raise RYamlError(
                        "nested flow sequences are not supported",
                        line.span(start + cursor),
                    )
                lead = len(piece) - len(piece.lstrip())
                node, consumed = _parse_scalar_token(
                    stripped, line, start + cursor + lead
                )
                if consumed != len(stripped):
                    raise RYamlError(
                        "unexpected content in flow sequence",
                        line.span(start + cursor + lead + consumed),
                    )
                items.append(node)
                cursor += len(piece) + 1
        return SeqNode(items, line.span(start, len(text)))


def _split_key(text: str) -> tuple[str, str] | None:
    """Split ``key: value`` / ``key:``; None when the line is not a mapping entry."""
    colon = text.find(":")
    if colon <= 0:
        return None
    key = text[:colon]
    if not _KEY_RE.match(key):
        return None
    rest = text[colon + 1 :]
    if rest and not rest.startswith(" "):
        return None
    return key, rest.strip()


def _parse_scalar_token(text: str, line: _Line, start: int) -> tuple[ScalarNode, int]:
    """Parse one scalar at the start of `text`; returns (node, chars consumed)."""
    if not text:
        raise RYamlError("expected a scalar", line.span(start))
    lead = text[0]
    if lead in _UNSUPPORTED_LEAD:
        raise RYamlError(
            f"{_UNSUPPORTED_LEAD[lead]}s are not supported by this YAML subset",
            line.span(start),
        )
    if lead == '"':
        return _parse_double_quoted(text, line, start)
    if lead == "'":
        return _parse_single_quoted(text, line, start)
    token = text.strip()
    span = line.span(start, len(token))
    if _NUMBER_RE.fullmatch(token):
        try:
            return ScalarNode(read_number(token), span), len(text)
        except ValueError as exc:
            raise RYamlError(str(exc), span) from None
    return ScalarNode(token, span), len(text)


def _parse_double_quoted(text: str, line: _Line, start: int) -> tuple[ScalarNode, int]:
    out: list[str] = []
    i = 1
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                break
            esc = text[i + 1]
            if esc == "n":
                out.append("\n")
            elif esc == "t":
                out.append("\t")
            elif esc in ('"', "\\"):
                out.append(esc)
            else:
                raise RYamlError(f"unknown escape \\{esc}", line.span(start + i, 2))
            i += 2
            continue
        if ch == '"':
            return ScalarNode("".join(out), line.span(start, i + 1)), i + 1
        out.append(ch)
        i += 1
    raise RYamlError("unterminated string", line.span(start))


def _parse_single_quoted(text: str, line: _Line, start: int) -> tuple[ScalarNode, int]:
    out: list[str] = []
    i = 1
    while i < len(text):
        ch = text[i]
        if ch == "'":
            if i + 1 < len(text) and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return ScalarNode("".join(out), line.span(start, i + 1)), i + 1
        out.append(ch)
        i += 1
    raise RYamlError("unterminated string", line.span(start))


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


def format_positional(value: float) -> str:
    """Shortest decimal that reads back as exactly `value`, with no exponent."""
    if not math.isfinite(value):
        raise ValueError("non-finite numbers cannot be serialized")
    return format(Decimal(repr(value)), "f")


_PLAIN_SAFE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.\- ]*$")
_WORDY = {"true", "false", "null", "yes", "no", "on", "off"}


def format_string(value: str) -> str:
    """Emit plain when unambiguous, double-quoted otherwise."""
    if (
        _PLAIN_SAFE_RE.match(value)
        and not value.endswith(" ")
        and value.lower() not in _WORDY
    ):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'
