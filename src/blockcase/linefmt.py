"""Line grammar shared by the tree and registry formats.

Both formats are indentation-nested, two spaces per level, one node per
line: a kind token first, then bare tokens, quoted strings and key="value"
attributes. Lines end at LF, CRLF or CR and at nothing else. Lines whose
first non-space character is ``#`` are comments, blank lines are ignored,
and tabs are rejected in indentation so every document has a single
canonical byte form. In a quoted string ``\\\\``, ``\\"``, ``\\n``, ``\\t``
and ``\\r`` are escapes; a backslash before any other character is kept as
written. ``read_node_line`` reads the ``kind id "text" key="value"...``
shape that both formats use for their nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Sequence

ID_PATTERN = re.compile(r"\A[A-Za-z0-9.'\-_]+\Z")


@dataclass(frozen=True, slots=True)
class SourceSpan:
    line: int
    column: int


@dataclass(frozen=True, slots=True)
class ParseError:
    span: SourceSpan
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.code}: {self.message}"


class ParseFailure(Exception):
    """A document could not be parsed; carries every detected error."""

    def __init__(self, errors: Sequence[ParseError]):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    column: int


@dataclass(frozen=True, slots=True)
class QString:
    text: str
    column: int


@dataclass(frozen=True, slots=True)
class Attr:
    key: str
    value: str
    column: int


@dataclass(frozen=True, slots=True)
class LexedLine:
    span: SourceSpan
    level: int
    kind: str | None  # None when the line failed to lex; kept for parent recovery
    atoms: tuple


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_REVERSE = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_ESCAPE = re.compile(r'\\([\\"ntr])')
_LINE_END = re.compile(r"\r\n?|\n")
_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
# One atom after optional white space: a quoted string (group 1), a key and
# its quoted value (groups 2 and 3; 3 is None when no closed string follows
# the "=") or a bare token (group 4). Nothing matches at the end of the line
# or at an opening quote that is never closed.
_ATOM = re.compile(rf'\s*(?:{_QUOTED}|([^\s"=]*)=(?:{_QUOTED})?|([^\s"=]+))?', re.S)


def quote(text: str) -> str:
    """Render text as a double-quoted string with canonical escapes."""
    return '"' + text.translate(_REVERSE) + '"'


def _unescape(body: str) -> str:
    return _ESCAPE.sub(lambda m: _ESCAPES[m[1]], body) if "\\" in body else body


def lex(text: str) -> tuple[list[LexedLine], list[ParseError]]:
    """Split a document into lexed lines, recovering after per-line errors.

    Lines that fail to lex are kept as placeholders (kind None) at their
    indentation level so that the children of a bad line do not produce a
    cascade of secondary errors.
    """
    lines: list[LexedLine] = []
    errors: list[ParseError] = []
    prev_level = -1

    for line_no, raw in enumerate(_LINE_END.split(text), start=1):
        if raw.strip() == "":
            continue
        stripped = raw.lstrip(" \t")
        if stripped.startswith("#"):
            continue

        indent = raw[: len(raw) - len(stripped)]
        bad = False
        if "\t" in indent:
            errors.append(
                ParseError(
                    SourceSpan(line_no, indent.index("\t") + 1), "BadIndent", "tabs are not allowed in indentation"
                )
            )
            bad = True
        spaces = len(indent)
        if not bad and spaces % 2 != 0:
            errors.append(
                ParseError(SourceSpan(line_no, spaces), "BadIndent", "indentation must use two spaces per level")
            )
            bad = True
        level = spaces // 2
        if not bad and level > prev_level + 1:
            errors.append(
                ParseError(
                    SourceSpan(line_no, 1),
                    "BadIndent",
                    f"indentation jumps from level {max(prev_level, 0)} to level {level}",
                )
            )
            level = prev_level + 1
            bad = True
        prev_level = level

        atoms: list = []
        pos = len(indent)
        while True:
            match = _ATOM.match(raw, pos)
            pos = match.end()
            quoted, key, value, word = match.groups()
            if word is not None:
                atoms.append(Token(word, match.start(4) + 1))
            elif quoted is not None:
                atoms.append(QString(_unescape(quoted), match.start(1)))  # group 1 starts after the quote
            elif value is not None:
                atoms.append(Attr(key, _unescape(value), match.start(2) + 1))
            elif key is None and pos == len(raw):
                break
            elif raw.startswith('"', pos):
                errors.append(
                    ParseError(
                        SourceSpan(line_no, pos + 1), "UnterminatedString", "string is not closed before end of line"
                    )
                )
                bad = True
                break
            else:
                errors.append(
                    ParseError(
                        SourceSpan(line_no, match.start(2) + 1),
                        "BadAttribute",
                        f"attribute {key!r} needs a quoted value",
                    )
                )
                bad = True
                break

        kind = None
        if not bad:
            if atoms and isinstance(atoms[0], Token):
                kind = atoms[0].text
            else:
                errors.append(
                    ParseError(SourceSpan(line_no, len(indent) + 1), "BadKind", "line must start with a kind token")
                )
        lines.append(LexedLine(SourceSpan(line_no, len(indent) + 1), level, kind, tuple(atoms)))

    return lines, errors


def read_node_line(
    line: LexedLine, allowed: Collection[str], errors: list[ParseError], required: Sequence[str] = ()
) -> tuple[str, str, dict[str, str]] | None:
    """Read a ``kind id "text" key="value"...`` line into (id, text, attrs).

    The id must match ``ID_PATTERN``, every attribute key must be in
    ``allowed`` and appear once, and every key in ``required`` must appear.
    Each problem found is appended to ``errors``, and then None is returned.
    """
    kind, rest = line.kind, line.atoms[1:]
    if not rest or not isinstance(rest[0], Token):
        errors.append(ParseError(line.span, "BadKind", f"{kind} line needs a node id"))
        return None
    node_id = rest[0].text
    if not ID_PATTERN.match(node_id):
        errors.append(
            ParseError(SourceSpan(line.span.line, rest[0].column), "BadKind", f"invalid node id {node_id!r}")
        )
        return None
    if len(rest) < 2 or not isinstance(rest[1], QString):
        errors.append(ParseError(line.span, "BadKind", f"{kind} {node_id} needs a quoted text"))
        return None

    attrs: dict[str, str] = {}
    failed = len(errors)
    for atom in rest[2:]:
        span = SourceSpan(line.span.line, atom.column)
        if not isinstance(atom, Attr):
            errors.append(ParseError(span, "BadKind", "unexpected trailing content after the node text"))
        elif atom.key not in allowed:
            errors.append(ParseError(span, "BadAttribute", f"attribute {atom.key!r} is not allowed on {kind}"))
        elif atom.key in attrs:
            errors.append(ParseError(span, "BadAttribute", f"attribute {atom.key!r} appears twice"))
        else:
            attrs[atom.key] = atom.value
    for key in required:
        if key not in attrs:
            errors.append(ParseError(line.span, "BadAttribute", f"{kind} {node_id} is missing the {key} attribute"))
    if len(errors) > failed:
        return None
    return node_id, rest[1].text, attrs
