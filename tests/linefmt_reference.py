"""The ``.cae``/``.risk`` reader before node lines were read by one match: the reference.

``lex`` and ``read_node_line`` are verbatim copies of ``blockcase.linefmt``,
and ``_build_node`` and ``parse`` of ``blockcase.cae_dsl``, as they were
when every line went through the atom scanner and ``parse`` built each node
twice. It is the reference for ``linefmt.lex``, which again reads every line
through the atom scanner, for the errors that ``cae_dsl._diagnose`` lists and
for the trees that ``cae_dsl._read_flawless``, the one-pass read, builds.
``test_linefmt.py`` checks that the reader gives the same lines, atoms,
errors and results as this reference on random documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Sequence

from blockcase.cae_dsl import _ARGUMENT_KINDS, _ATTRS, _EVIDENCE_KINDS, _NODE_CLASS
from blockcase.cae_model import (
    ArgumentNode,
    CaeTree,
    ClaimNode,
    EvidenceNode,
    Node,
    misplaced_child,
    with_children,
)
from blockcase.linefmt import ID_PATTERN, Attr, ParseError, ParseFailure, QString, SourceSpan, Token


@dataclass(frozen=True, slots=True)
class LexedLine:
    span: SourceSpan
    level: int
    kind: str | None  # None when the line failed to lex; kept for parent recovery
    atoms: tuple


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE = re.compile(r'\\([\\"ntr])')
_LINE_END = re.compile(r"\r\n?|\n")
_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
# One atom after optional white space: a quoted string (group 1), a key and
# its quoted value (groups 2 and 3; 3 is None when no closed string follows
# the "=") or a bare token (group 4). Nothing matches at the end of the line
# or at an opening quote that is never closed.
_ATOM = re.compile(rf'\s*(?:{_QUOTED}|([^\s"=]*)=(?:{_QUOTED})?|([^\s"=]+))?', re.S)


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


def _build_node(kind: str, node_id: str, text: str, attrs: dict[str, str]) -> Node:
    tag = attrs.get("tag")
    if kind in _ARGUMENT_KINDS:
        return ArgumentNode(node_id, _ARGUMENT_KINDS[kind], text, tag=tag)
    if kind in _EVIDENCE_KINDS:
        return EvidenceNode(
            node_id, _EVIDENCE_KINDS[kind], text, reference=attrs.get("ref"), digest=attrs.get("digest"), tag=tag
        )
    return ClaimNode(node_id, text, tag=tag, side=kind == "side-claim")


def parse(text: str) -> CaeTree:
    """Parse a document into a tree; raises ``ParseFailure`` with all errors.

    No partial tree is ever returned: either every line is acceptable and
    the assembled tree comes back, or the full error list is raised.
    """
    lines, errors = lex(text)

    nodes: dict[str, Node] = {}
    children: dict[str, list[str]] = {}
    root_id: str | None = None
    # stack frames: [level, node class or None, node_id or None, saw_argument]
    stack: list[list] = []

    for line in lines:
        while stack and stack[-1][0] >= line.level:
            stack.pop()

        node_class = _NODE_CLASS.get(line.kind)
        if node_class is None:
            if line.kind is not None:  # None: the line failed to lex and is already reported
                errors.append(ParseError(line.span, "BadKind", f"unknown kind {line.kind!r}"))
            stack.append([line.level, None, None, False])
            continue

        shape = read_node_line(line, _ATTRS[node_class], errors)
        if shape is not None and "digest" in shape[2] and "ref" not in shape[2]:
            errors.append(ParseError(line.span, "BadAttribute", "digest requires a ref attribute"))
            shape = None
        if shape is None:
            stack.append([line.level, node_class, None, False])
            continue
        node_id, node_text, attrs = shape

        attach = True
        if line.level == 0:
            if root_id is not None:
                errors.append(
                    ParseError(line.span, "ChildRuleViolation", "a document holds a single root claim")
                )
                attach = False
            elif node_class is not ClaimNode:
                errors.append(ParseError(line.span, "ChildRuleViolation", "the root node must be a claim"))
                attach = False
        elif not stack or stack[-1][0] != line.level - 1:
            errors.append(ParseError(line.span, "BadIndent", "no line at the enclosing indentation level"))
            attach = False
        elif stack[-1][1] is not None:  # a parent line that failed is not checked again
            parent = stack[-1]
            misplaced = misplaced_child(parent[1], node_class, parent[3])
            if misplaced is not None:
                errors.append(ParseError(line.span, "ChildRuleViolation", misplaced.value))
                attach = False
            elif node_class is ArgumentNode:
                parent[3] = True

        if node_id in nodes:
            errors.append(ParseError(line.span, "DuplicateId", f"duplicate node id {node_id!r}"))
            stack.append([line.level, node_class, None, False])
            continue

        node = _build_node(line.kind, node_id, node_text, attrs)
        nodes[node_id] = node
        children[node_id] = []
        if attach:
            if line.level == 0:
                root_id = node_id
            else:
                parent_id = stack[-1][2]
                if parent_id is not None:
                    children[parent_id].append(node_id)
        stack.append([line.level, node_class, node_id, False])

    if root_id is None and not errors:
        errors.append(ParseError(SourceSpan(1, 1), "ChildRuleViolation", "document has no root claim"))
    if errors:
        raise ParseFailure(errors)

    return CaeTree(root=root_id, nodes=with_children(nodes, children))
