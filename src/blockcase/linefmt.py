"""Line grammar shared by the tree and registry formats.

Both formats are indentation-nested, two spaces per level, one node per
line: a kind token first, then bare tokens, quoted strings and key="value"
attributes. Lines end at LF, CRLF or CR and at nothing else. Lines whose
first non-space character is ``#`` are comments, blank lines are ignored,
and tabs are rejected in indentation so every document has a single
canonical byte form. In a quoted string ``\\\\``, ``\\"``, ``\\n``, ``\\t``
and ``\\r`` are escapes; a backslash before any other character is kept as
written. ``read_node_line`` reads the ``kind id "text" key="value"...``
shape that both formats use for their nodes. ``lex`` reads a line of that
shape with one match; every other line goes through the atom scanner, the
one source of lexing errors.
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


# Plain slots classes: the lexer builds many, and frozen ones cost several
# times as much to build.
@dataclass(slots=True)
class Token:
    text: str
    column: int


@dataclass(slots=True)
class QString:
    text: str
    column: int


@dataclass(slots=True)
class Attr:
    key: str
    value: str
    column: int


@dataclass(slots=True, eq=False)
class LexedLine:
    """A line that is neither blank nor a comment.

    ``line_no`` and ``column`` locate its first character; ``span`` builds
    them into a ``SourceSpan`` when an error needs one. ``kind`` is None when
    the line failed to lex; such a line is kept so that its children find a
    parent. ``node`` is set when one match read the line as a node line:
    (id, id column, text, ((key, value, column), ...), kind column, text
    column). Such a line builds its ``atoms`` on first use.
    """

    line_no: int
    column: int
    level: int
    kind: str | None
    _atoms: tuple | None
    node: tuple | None = None

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line_no, self.column)

    @property
    def atoms(self) -> tuple:
        if self._atoms is None:
            node_id, id_column, text, attrs, kind_column, text_column = self.node
            self._atoms = (
                Token(self.kind, kind_column),
                Token(node_id, id_column),
                QString(text, text_column),
                *(Attr(*attr) for attr in attrs),
            )
        return self._atoms


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_REVERSE = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_ESCAPE = re.compile(r'\\([\\"ntr])')
LINE_END = re.compile(r"\r\n?|\n")
_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_KEY = r'[^\s"=]*'
_BARE = r'[^\s"=]+'
# One atom after optional white space: a quoted string (group 1), a key and
# its quoted value (groups 2 and 3; 3 is None when no closed string follows
# the "=") or a bare token (group 4). Nothing matches at the end of the line
# or at an opening quote that is never closed.
_ATOM = re.compile(rf'\s*(?:{_QUOTED}|({_KEY})=(?:{_QUOTED})?|({_BARE}))?', re.S)
_ATTR = re.compile(rf'\s*({_KEY})={_QUOTED}', re.S)
# A whole line that _ATOM splits into Token Token QString Attr* without
# error: the kind (group 1), the id (group 2), the text (group 3) and the
# attributes (group 4, read by _ATTR). Two bare tokens need white space
# between them, or _ATOM would read them as one.
_NODE_LINE = re.compile(rf'\s*({_BARE})\s+({_BARE})\s*{_QUOTED}((?:{_ATTR.pattern})*)\s*', re.S)


def quote(text: str) -> str:
    """Render text as a double-quoted string with canonical escapes."""
    return '"' + text.translate(_REVERSE) + '"'


def _unescape(body: str) -> str:
    return _ESCAPE.sub(lambda m: _ESCAPES[m[1]], body) if "\\" in body else body


def _scan(raw: str, pos: int) -> tuple[list, tuple[int, str, str] | None]:
    """Split ``raw`` into atoms from ``pos``; the first error stops it, as (column, code, message)."""
    atoms: list = []
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
            return atoms, None
        elif raw.startswith('"', pos):
            return atoms, (pos + 1, "UnterminatedString", "string is not closed before end of line")
        else:
            return atoms, (match.start(2) + 1, "BadAttribute", f"attribute {key!r} needs a quoted value")


def lex(text: str) -> tuple[list[LexedLine], list[ParseError]]:
    """Split a document into lexed lines, recovering after per-line errors.

    Lines that fail to lex are kept as placeholders (kind None) at their
    indentation level so that the children of a bad line do not produce a
    cascade of secondary errors.
    """
    lines: list[LexedLine] = []
    errors: list[ParseError] = []
    prev_level = -1

    for line_no, raw in enumerate(LINE_END.split(text), start=1):
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

        # a line with bad indentation goes to the scanner, which reports its other errors too
        node = None if bad else _NODE_LINE.fullmatch(raw, spaces)
        if node is not None:
            found = _ATTR.finditer(raw, *node.span(4)) if node[4] else ()
            attrs = tuple((a[1], _unescape(a[2]), a.start(1) + 1) for a in found)
            shape = (node[2], node.start(2) + 1, _unescape(node[3]), attrs, node.start(1) + 1, node.start(3))
            lines.append(LexedLine(line_no, spaces + 1, level, node[1], None, shape))
            continue

        atoms, error = _scan(raw, spaces)
        if error is not None:
            errors.append(ParseError(SourceSpan(line_no, error[0]), error[1], error[2]))
            bad = True
        kind = None
        if not bad:
            if atoms and isinstance(atoms[0], Token):
                kind = atoms[0].text
            else:
                errors.append(
                    ParseError(SourceSpan(line_no, spaces + 1), "BadKind", "line must start with a kind token")
                )
        lines.append(LexedLine(line_no, spaces + 1, level, kind, tuple(atoms)))

    return lines, errors


def read_node_line(
    line: LexedLine, allowed: Collection[str], errors: list[ParseError], required: Sequence[str] = ()
) -> tuple[str, str, dict[str, str]] | None:
    """Read a ``kind id "text" key="value"...`` line into (id, text, attrs).

    The id must match ``ID_PATTERN``, every attribute key must be in
    ``allowed`` and appear once, and every key in ``required`` must appear.
    Each problem found is appended to ``errors``, and then None is returned.
    """
    kind = line.kind
    if line.node is not None:
        node_id, column, text, attrs, _, _ = line.node
    else:
        rest = line.atoms[1:]
        if not rest or not isinstance(rest[0], Token):
            errors.append(ParseError(line.span, "BadKind", f"{kind} line needs a node id"))
            return None
        node_id, column = rest[0].text, rest[0].column
        text = rest[1].text if len(rest) > 1 and isinstance(rest[1], QString) else None
        # an atom that is not an attribute has no key
        attrs = [(a.key, a.value, a.column) if isinstance(a, Attr) else (None, None, a.column) for a in rest[2:]]
    if not ID_PATTERN.match(node_id):
        errors.append(ParseError(SourceSpan(line.line_no, column), "BadKind", f"invalid node id {node_id!r}"))
        return None
    if text is None:
        errors.append(ParseError(line.span, "BadKind", f"{kind} {node_id} needs a quoted text"))
        return None

    values: dict[str, str] = {}
    failed = len(errors)
    for key, value, column in attrs:
        if key is None:
            message = "BadKind", "unexpected trailing content after the node text"
        elif key not in allowed:
            message = "BadAttribute", f"attribute {key!r} is not allowed on {kind}"
        elif key in values:
            message = "BadAttribute", f"attribute {key!r} appears twice"
        else:
            values[key] = value
            continue
        errors.append(ParseError(SourceSpan(line.line_no, column), *message))
    for key in required:
        if key not in values:
            errors.append(ParseError(line.span, "BadAttribute", f"{kind} {node_id} is missing the {key} attribute"))
    if len(errors) > failed:
        return None
    return node_id, text, values
