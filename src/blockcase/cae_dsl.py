"""Text format for assurance trees, DOT rendering and evidence linking.

One node per line, nested by two-space indentation::

    claim C0 "the system is dependable"
      decomposition A0 "argument over subsystems"
        claim C1 "subsystem one behaves"
          proof P1 "test report" ref="report.json" digest="9f..."
        claim C2 "subsystem two behaves"

Kinds are ``claim``, ``side-claim``, ``decomposition``, ``substitution``,
``concretization``, ``hypothesis`` and ``proof``. Attribute keys are
restricted to ``ref`` and ``digest`` (evidence only) and ``tag``; unknown
keys are errors rather than silently ignored, to protect assurance
documents from typos. ``serialize`` emits the canonical byte form, and
``parse(serialize(t))`` reproduces ``t`` exactly, including child order.

``parse`` rejects lines that do not lex, bad indentation, unknown kinds,
unknown or repeated attributes, a digest without a ref, invalid or
duplicate ids, and any document that does not hold exactly one root claim.
It also rejects, at the offending child's line, a node that breaks the
child rule: evidence is a leaf, no claim sits directly under a claim, no
argument sits under an argument, and a claim has at most one argument.
That rule is stated once, in ``cae_model.misplaced_child``, which
``check_well_formed`` applies too. The remaining rules, argument arity and
side-claim placement, are left to ``check_well_formed`` so that checking
tools can report them as findings instead of refusing to read the document.

A tree is built in one place: a pass over the ``LINE`` matches, which
stops at a document's first flaw. Only then does ``_diagnose``, the only
place here that makes a ``ParseError``, read the document again to list
every error; it builds no node. Both reads look the child rule up in
``cae_model.child_rows``, its table form.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from pathlib import Path

from .cae_model import (
    ArgumentKind,
    ArgumentNode,
    CaeTree,
    ClaimNode,
    EvidenceKind,
    EvidenceNode,
    Node,
    _new_argument,
    _new_claim,
    _new_evidence,
    child_rows,
)
from .determinism import file_sha256
from .linefmt import (ID_PATTERN, LINE, LINE_END, ParseError, ParseFailure, SourceSpan, lex, node_attrs, quote,
                      read_node_line, skipped, unescape)

__all__ = [
    "SourceSpan",
    "ParseError",
    "ParseFailure",
    "KINDS",
    "parse",
    "serialize",
    "to_dot",
    "link_evidence",
    "LinkIssue",
    "verify_links",
]

_ARGUMENT_KINDS = {k.value: k for k in ArgumentKind}
_EVIDENCE_KINDS = {k.value: k for k in EvidenceKind}
# kind token -> the class of node it declares
_NODE_CLASS = {
    "claim": ClaimNode,
    "side-claim": ClaimNode,
    **dict.fromkeys(_ARGUMENT_KINDS, ArgumentNode),
    **dict.fromkeys(_EVIDENCE_KINDS, EvidenceNode),
}
KINDS = frozenset(_NODE_CLASS)
# node class -> the attribute keys its lines may carry
_ATTRS = {ClaimNode: {"tag"}, ArgumentNode: {"tag"}, EvidenceNode: {"ref", "digest", "tag"}}
_ROWS = child_rows(_NODE_CLASS)
# the row above the root: one claim joins it, then nothing
_ROOT_ROW = {kind: ({}, _ROWS[cls, False], None) for kind, cls in _NODE_CLASS.items() if cls is ClaimNode}


def parse(text: str) -> CaeTree:
    """Parse a document into a tree; raises ``ParseFailure`` with all errors.

    No partial tree is ever returned: either every line is acceptable and
    the tree comes back, or the full error list is raised. The tree is built
    in one pass that stops at a document's first flaw; only then does
    ``_diagnose`` read the document again and list every error. The cyclic
    garbage collector, if it runs, is paused during the one pass: what it
    builds holds no cycle, so a collection would only walk the growing tree.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = _read_flawless(text)
    finally:
        if enabled:
            gc.enable()
    if tree is not None:
        return tree
    errors = _diagnose(text)
    if not errors:  # the two reads disagree: a fault of this module, never of the document
        raise RuntimeError("the one-pass read refused a document in which the diagnosis finds no error")
    raise ParseFailure(errors)


def _read_flawless(text: str) -> CaeTree | None:
    """The tree of a document in which ``_diagnose`` finds no error; None at the first flaw.

    A flaw is a line that is neither skipped nor a node line that joins the
    tree (its indentation, kind, place, id and attributes all acceptable),
    or an id that ``ID_PATTERN`` refuses, checked once for all ids at the end.
    """
    nodes: dict[str, Node | None] = {}  # in document order; a claim or an argument is None until the end
    pending: list[tuple[str, str, str, str | None, list[str]]] = []  # (id, kind, text, tag, child ids)
    top = [_ROOT_ROW, []]
    frames = {-1: top}  # level -> [row, child ids] of the latest line at that level
    level = -1
    for line in LINE.finditer(text):
        indent, kind, node_id, node_text, attrs, _, _, other = line.groups()
        if other is not None:
            if skipped(other):
                continue
            return None
        width = len(indent)
        if width & 1 or width > 2 * level + 2:  # an odd indentation or a jump
            return None
        level = width >> 1
        parent = frames[level - 1]
        step = parent[0].get(kind)
        if step is None or step[2] is not None or node_id in nodes:  # an unknown kind, a misplaced node, a repeated id
            return None
        parent[0], row, _ = step
        parent[1].append(node_id)
        if "\\" in node_text:
            node_text = unescape(node_text)
        tag = ref = digest = None
        if attrs:
            allowed, values = _ATTRS[_NODE_CLASS[kind]], {}
            for key, value, _ in node_attrs(line):
                if key not in allowed or key in values:
                    return None
                values[key] = value
            if "digest" in values and "ref" not in values:
                return None
            tag, ref, digest = values.get("tag"), values.get("ref"), values.get("digest")
        evidence_kind = _EVIDENCE_KINDS.get(kind)
        if evidence_kind is not None:
            nodes[node_id] = _new_evidence(node_id, evidence_kind, node_text, ref, digest, tag)
            frames[level] = [row, None]
        else:
            nodes[node_id] = None
            children: list[str] = []
            pending.append((node_id, kind, node_text, tag, children))
            frames[level] = [row, children]
    # ids are never empty, so all of them match ID_PATTERN (one character class, repeated) when their join does
    if not top[1] or not ID_PATTERN.match("".join(nodes)):
        return None
    for node_id, kind, node_text, tag, children in pending:
        argument_kind = _ARGUMENT_KINDS.get(kind)
        if argument_kind is not None:
            nodes[node_id] = _new_argument(node_id, argument_kind, node_text, tuple(children), tag)
        else:
            nodes[node_id] = _new_claim(node_id, node_text, tuple(children), tag, kind == "side-claim")
    return CaeTree(root=top[1][0], nodes=nodes)


def _diagnose(text: str) -> list[ParseError]:
    """Every error of a document, line by line after its lexing errors; builds no node."""
    lines, errors = lex(text)  # the lexing errors, reported before those found here
    seen: set[str] = set()
    root_id: str | None = None
    # stack[level]: [the child row of the latest line at that level, None if its children go unchecked], None if skipped
    stack: list[list | None] = []

    for line in lines:
        level, kind = line.level, line.kind
        del stack[level:]
        stack += [None] * (level - len(stack))  # the levels that a bad indentation skipped

        node_class = _NODE_CLASS.get(kind)
        if node_class is None:
            if kind is not None:  # None: the line failed to lex and is already reported
                errors.append(ParseError(line.span, "BadKind", f"unknown kind {kind!r}"))
            stack.append([None])
            continue

        shape = read_node_line(line, _ATTRS[node_class], errors)
        if shape is not None and "digest" in shape[2] and "ref" not in shape[2]:
            errors.append(ParseError(line.span, "BadAttribute", "digest requires a ref attribute"))
        elif shape is not None:
            node_id = shape[0]
            if level == 0:
                if root_id is not None:
                    errors.append(ParseError(line.span, "ChildRuleViolation", "a document holds a single root claim"))
                elif node_class is not ClaimNode:
                    errors.append(ParseError(line.span, "ChildRuleViolation", "the root node must be a claim"))
                elif node_id not in seen:
                    root_id = node_id
            elif stack[-1] is None:
                errors.append(ParseError(line.span, "BadIndent", "no line at the enclosing indentation level"))
            elif stack[-1][0] is not None:  # a parent line that failed is not checked again
                parent = stack[-1]
                next_row, _, misplaced = parent[0][kind]
                if misplaced is not None:
                    errors.append(ParseError(line.span, "ChildRuleViolation", misplaced.value))
                else:
                    parent[0] = next_row
            if node_id in seen:
                errors.append(ParseError(line.span, "DuplicateId", f"duplicate node id {node_id!r}"))
            seen.add(node_id)
        stack.append([_ROWS[node_class, False]])

    if root_id is None and not errors:
        errors.append(ParseError(SourceSpan(1, 1), "ChildRuleViolation", "document has no root claim"))
    return errors


def _kind_token(node: Node) -> str:
    if isinstance(node, ClaimNode):
        return "side-claim" if node.side else "claim"
    return node.kind.value


def _attr_pairs(node: Node) -> list[tuple[str, str]]:
    """The (key, value) attributes of a node's line, in key order."""
    if not isinstance(node, EvidenceNode):
        return [] if node.tag is None else [("tag", node.tag)]
    pairs = (("digest", node.digest), ("ref", node.reference), ("tag", node.tag))
    return [pair for pair in pairs if pair[1] is not None]


def serialize(tree: CaeTree) -> str:
    """Canonical text form: stable bytes for equal trees, LF line endings."""
    tree.preorder()  # refuses a cycle, which this walk would follow forever
    out: list[str] = []
    stack = [(tree.root, 0)]
    while stack:
        nid, level = stack.pop()
        node = tree.nodes[nid]
        attrs = "".join(f" {k}={quote(v)}" for k, v in _attr_pairs(node))
        out.append(f"{'  ' * level}{_kind_token(node)} {nid} {quote(node.text)}{attrs}\n")
        stack.extend((child, level + 1) for child in reversed(node.children))
    return "".join(out)


_FILL = {ClaimNode: "lightblue", ArgumentNode: "gold", EvidenceNode: "palegreen"}
# the label prefix of each argument and evidence kind
_LABEL = {kind: f"{kind.value.capitalize()}: " for kind in (*ArgumentKind, *EvidenceKind)}


def to_dot(tree: CaeTree) -> str:
    """Deterministic DOT rendering: claims blue, arguments yellow, evidence green.

    Nodes are emitted in document order and edges in child order, so equal
    trees always yield byte-equal output. Only texts are escaped, and only
    those that hold a quote, a backslash or a line break: an id that
    ``parse`` accepts or ``check_well_formed`` passes matches ``ID_PATTERN``,
    which leaves all of them out.
    """
    nodes = tree.nodes
    lines = ["digraph cae {"]
    edges: list[str] = []
    for nid in tree.preorder():
        node = nodes[nid]
        text = node.text
        if "\\" in text or '"' in text or "\n" in text or "\r" in text:
            # a line break, cut as .cae lines are cut, is one DOT \n: each statement stays on one line
            text = "\\n".join(LINE_END.split(text.replace("\\", "\\\\").replace('"', '\\"')))
        cls = type(node)
        kind = "" if cls is ClaimNode else _LABEL[node.kind]
        lines.append(f'  "{nid}" [label="{nid}\\n{kind}{text}", style=filled, fillcolor={_FILL[cls]}]')
        if cls is not EvidenceNode:
            for child in node.children:
                edges.append(f'  "{nid}" -> "{child}"')
    return "\n".join([*lines, *edges, "}", ""])


def link_evidence(tree: CaeTree, node_id: str, reference: str, digest: str) -> CaeTree:
    """Return a tree where the named evidence carries the locator and digest.

    Relinking overwrites both fields; every other node is unchanged.
    """
    nodes = dict(tree.nodes)
    nodes[node_id] = replace(tree.evidence(node_id), reference=reference, digest=digest)
    return CaeTree(root=tree.root, nodes=nodes)


@dataclass(frozen=True, slots=True)
class LinkIssue:
    node_id: str
    code: str  # missing-file or digest-mismatch
    detail: str


def verify_links(tree: CaeTree, base_dir: Path | str, only: set[str] | None = None) -> list[LinkIssue]:
    """Check that referenced evidence files exist and match their digests.

    Relative references resolve against ``base_dir`` (normally the directory
    of the document that carries them). Evidence without a reference is
    skipped; evidence with a reference but no digest is only checked for
    existence. ``only`` restricts the check to the given node ids.
    """
    nodes = tree.nodes
    issues: list[LinkIssue] = []
    for nid in tree.preorder():
        if only is not None and nid not in only:
            continue
        node = nodes[nid]
        if type(node) is not EvidenceNode or node.reference is None:
            continue
        target = Path(base_dir, node.reference)  # an absolute reference stands for itself
        if not target.is_file():
            issues.append(LinkIssue(nid, "missing-file", f"referenced file {node.reference!r} does not exist"))
            continue
        if node.digest is not None and file_sha256(target) != node.digest:
            issues.append(LinkIssue(nid, "digest-mismatch", f"file {node.reference!r} does not match the digest"))
    return issues
