"""Line-oriented document lexer shared by the tree and registry formats.

Both formats are indentation-nested, two spaces per level, one node per
line: a kind token first, then bare tokens, quoted strings and key="value"
attributes. Lines whose first non-space character is ``#`` are comments,
blank lines are ignored, and tabs are rejected so every document has a
single canonical byte form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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
_REVERSE = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def quote(text: str) -> str:
    """Render text as a double-quoted string with canonical escapes."""
    out = []
    for ch in text:
        out.append(_REVERSE.get(ch, ch))
    return '"' + "".join(out) + '"'


def _scan_qstring(raw: str, start: int, line_no: int) -> tuple[str, int] | ParseError:
    """Scan a quoted string beginning at raw[start] == '\"'.

    Returns (text, index-after-closing-quote) or a ParseError when the line
    ends before the closing quote.
    """
    i = start + 1
    out = []
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            if nxt in _ESCAPES:
                out.append(_ESCAPES[nxt])
                i += 2
                continue
            out.append(ch)
            i += 1
            continue
        if ch == '"':
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    return ParseError(
        SourceSpan(line_no, start + 1), "UnterminatedString", "string is not closed before end of line"
    )


def _is_token_char(ch: str) -> bool:
    return not ch.isspace() and ch not in ('"', "=")


def lex(text: str) -> tuple[list[LexedLine], list[ParseError]]:
    """Split a document into lexed lines, recovering after per-line errors.

    Lines that fail to lex are kept as placeholders (kind None) at their
    indentation level so that the children of a bad line do not produce a
    cascade of secondary errors.
    """
    lines: list[LexedLine] = []
    errors: list[ParseError] = []
    prev_level = -1

    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        i = len(indent)
        while i < len(raw):
            ch = raw[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch == '"':
                scanned = _scan_qstring(raw, i, line_no)
                if isinstance(scanned, ParseError):
                    errors.append(scanned)
                    bad = True
                    break
                text_val, i = scanned
                atoms.append(QString(text_val, col))
                continue
            j = i
            while j < len(raw) and _is_token_char(raw[j]):
                j += 1
            word = raw[i:j]
            if j < len(raw) and raw[j] == "=":
                if j + 1 >= len(raw) or raw[j + 1] != '"':
                    errors.append(
                        ParseError(SourceSpan(line_no, col), "BadAttribute", f"attribute {word!r} needs a quoted value")
                    )
                    bad = True
                    break
                scanned = _scan_qstring(raw, j + 1, line_no)
                if isinstance(scanned, ParseError):
                    errors.append(scanned)
                    bad = True
                    break
                value, i = scanned
                atoms.append(Attr(word, value, col))
                continue
            atoms.append(Token(word, col))
            i = j

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
