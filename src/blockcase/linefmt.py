"""Line grammar shared by the tree and registry formats.

Both formats are indentation-nested, two spaces per level, one node per
line: a kind token first, then bare tokens, quoted strings and key="value"
attributes. Lines end at LF, CRLF or CR and at nothing else. Lines whose
first non-space character is ``#`` are comments, blank lines are ignored,
and tabs are rejected in indentation so every document has a single
canonical byte form. In a quoted string ``\\\\``, ``\\"``, ``\\n``, ``\\t``
and ``\\r`` are escapes; a backslash before any other character is kept as
written. ``lex`` reads a document into lines through the atom scanner, the
one source of lexing errors, and ``read_node_line`` reads the ``kind id
"text" key="value"...`` shape that both formats use for their nodes: the
registry reader and ``cae_dsl._diagnose``, which lists a flawed tree
document's errors, use both. ``cae_dsl.parse`` builds the tree of a document
without a flaw in one pass over the ``LINE`` matches, with ``skipped``
(the one statement of a blank or comment line, which ``lex`` applies too),
``unescape`` and ``node_attrs``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Iterator, Sequence

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
    parent.
    """

    line_no: int
    column: int
    level: int
    kind: str | None
    atoms: tuple

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line_no, self.column)


_REVERSE = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})
LINE_END = re.compile(r"\r\n?|\n")
# White space and quoted strings never cross a line end: these patterns read lines in place in a document.
_WS = r"[^\S\r\n]"
_QUOTED = r'"([^"\\\r\n]*(?:\\[^\r\n][^"\\\r\n]*)*)"'
_KEY = r'[^\s"=]*'
_BARE = r'[^\s"=]+'
# One atom after optional white space: a quoted string (group 1), a key and
# its quoted value (groups 2 and 3; 3 is None when no closed string follows
# the "=") or a bare token (group 4). Nothing matches at the end of the line
# or at an opening quote that is never closed.
_ATOM = re.compile(rf'{_WS}*(?:{_QUOTED}|({_KEY})=(?:{_QUOTED})?|({_BARE}))?')
_ATTR = re.compile(rf'{_WS}*({_KEY})={_QUOTED}')
# One line and its line end. A node line (_ATOM splits it into Token Token QString Attr* without error
# after an indent of spaces) has the indent (group 1), kind (2), id (3), text (4) and attributes (5, read
# by _ATTR; 6 and 7 are _ATTR's own groups); any other line is group 8, without its line end, and has
# group 1 None. The indent is one run of spaces, since ``re`` reads a repeated character far faster than
# a repeated group: its width may be odd, and a reader must refuse that as a bad indentation. Two bare
# tokens need white space between them, or _ATOM would read them as one. Every line matches, so
# ``finditer`` reads a document line by line.
_NODE = rf'( *)(?![ \t#]){_WS}*({_BARE}){_WS}+({_BARE}){_WS}*{_QUOTED}((?:{_ATTR.pattern})*){_WS}*'
LINE = re.compile(rf"(?:{_NODE}|([^\r\n]*))(?:\r\n?|\n|\Z)")


def quote(text: str) -> str:
    """Render text as a double-quoted string with canonical escapes."""
    if "\\" in text or '"' in text or "\n" in text or "\t" in text or "\r" in text:
        return '"' + text.translate(_REVERSE) + '"'
    return f'"{text}"'  # nothing to escape: a substring search is far cheaper than ``translate``


def unescape(body: str) -> str:
    """The text of a quoted string's body: each escape replaced by the character it stands for."""
    if "\\" not in body:
        return body
    # Escapes are read from the left, so each pair of backslashes is one; in the parts between the pairs no
    # backslash is next to another, and one before any character but " n t r is kept as written.
    parts = body.split("\\\\")
    for i, part in enumerate(parts):
        if "\\" in part:
            parts[i] = part.replace('\\"', '"').replace("\\n", "\n").replace("\\t", "\t").replace("\\r", "\r")
    return "\\".join(parts)


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
            atoms.append(QString(unescape(quoted), match.start(1)))  # group 1 starts after the quote
        elif value is not None:
            atoms.append(Attr(key, unescape(value), match.start(2) + 1))
        elif key is None and pos == len(raw):
            return atoms, None
        elif raw.startswith('"', pos):
            return atoms, (pos + 1, "UnterminatedString", "string is not closed before end of line")
        else:
            return atoms, (match.start(2) + 1, "BadAttribute", f"attribute {key!r} needs a quoted value")


def skipped(raw: str) -> bool:
    """Whether a line, without its line end, is blank or a comment: no reader sees such a line."""
    stripped = raw.lstrip(" \t")
    return not stripped or stripped[0] == "#" or raw.isspace()


def lex(text: str) -> tuple[list[LexedLine], list[ParseError]]:
    """Split a document into lexed lines, recovering after per-line errors.

    A line that fails to lex is kept as a placeholder (kind None) at its level, so its children find a parent.
    """
    lines: list[LexedLine] = []
    errors: list[ParseError] = []
    prev_level = -1
    for line_no, raw in enumerate(LINE_END.split(text), start=1):
        if skipped(raw):
            continue

        stripped = raw.lstrip(" \t")
        indent = raw[: len(raw) - len(stripped)]
        bad = False
        if "\t" in indent:
            column = indent.index("\t") + 1
            errors.append(ParseError(SourceSpan(line_no, column), "BadIndent", "tabs are not allowed in indentation"))
            bad = True
        spaces = len(indent)
        if not bad and spaces % 2 != 0:
            message = "indentation must use two spaces per level"
            errors.append(ParseError(SourceSpan(line_no, spaces), "BadIndent", message))
            bad = True
        level = spaces // 2
        if not bad and level > prev_level + 1:
            message = f"indentation jumps from level {max(prev_level, 0)} to level {level}"
            errors.append(ParseError(SourceSpan(line_no, 1), "BadIndent", message))
            level = prev_level + 1
            bad = True

        atoms, error = _scan(raw, spaces)
        if error is not None:
            errors.append(ParseError(SourceSpan(line_no, error[0]), error[1], error[2]))
            bad = True
        kind = None
        if not bad:
            if atoms and isinstance(atoms[0], Token):
                kind = atoms[0].text
            else:
                message = "line must start with a kind token"
                errors.append(ParseError(SourceSpan(line_no, spaces + 1), "BadKind", message))
        lines.append(LexedLine(line_no, spaces + 1, level, kind, tuple(atoms)))
        prev_level = level
    return lines, errors


def node_attrs(node: re.Match) -> Iterator[tuple[str, str, int]]:
    """(key, value, column) of each attribute of a node line's ``LINE`` match."""
    before = node.start() - 1
    return ((a[1], unescape(a[2]), a.start(1) - before) for a in _ATTR.finditer(node.string, *node.span(5)))


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
        errors.append(ParseError(SourceSpan(line.line_no, rest[0].column), "BadKind", f"invalid node id {node_id!r}"))
        return None
    if len(rest) < 2 or not isinstance(rest[1], QString):
        errors.append(ParseError(line.span, "BadKind", f"{kind} {node_id} needs a quoted text"))
        return None
    text = rest[1].text

    values: dict[str, str] = {}
    if len(rest) == 2 and not required:
        return node_id, text, values
    failed = len(errors)
    for atom in rest[2:]:
        if not isinstance(atom, Attr):
            message = "BadKind", "unexpected trailing content after the node text"
        elif atom.key not in allowed:
            message = "BadAttribute", f"attribute {atom.key!r} is not allowed on {kind}"
        elif atom.key in values:
            message = "BadAttribute", f"attribute {atom.key!r} appears twice"
        else:
            values[atom.key] = atom.value
            continue
        errors.append(ParseError(SourceSpan(line.line_no, atom.column), *message))
    for key in required:
        if key not in values:
            errors.append(ParseError(line.span, "BadAttribute", f"{kind} {node_id} is missing the {key} attribute"))
    if len(errors) > failed:
        return None
    return node_id, text, values
