"""Claim-argument-evidence trees: structure, well-formedness and status.

A tree's root is a claim. A claim is refined by at most one argument step
(a decomposition into subclaims, a substitution by a claim about an
equivalent object, or a concretization of an abstract notion) and may also
cite evidence directly. Arguments introduce subclaims, optionally a
side-claim (a claim node marked ``side``) covering the validity of the
inference itself, and evidence.
Evidence leaves are either hypotheses (accepted without demonstration) or
proofs (demonstrated facts); the distinction drives status evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

from .linefmt import ID_PATTERN


class ArgumentKind(enum.Enum):
    DECOMPOSITION = "decomposition"
    SUBSTITUTION = "substitution"
    CONCRETIZATION = "concretization"


class EvidenceKind(enum.Enum):
    HYPOTHESIS = "hypothesis"
    PROOF = "proof"


class Status(enum.IntEnum):
    """Verdict lattice; a parent's status is the minimum over what supports it.

    A hypothesis anywhere below a claim caps that claim at ASSUMED, i.e.
    "holds under stated assumptions"; a claim with no development at all is
    UNDEVELOPED.
    """

    UNDEVELOPED = 0
    ASSUMED = 1
    SUPPORTED = 2


class CaeError(Exception):
    """Base class for tree construction and lookup failures."""


@dataclass(frozen=True, slots=True)
class Violation:
    node_id: str
    rule: str
    message: str


class RuleError(CaeError):
    """A tree breaks a structural rule; ``violation`` names the rule, the node and the case."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"{violation.node_id}: {violation.rule}: {violation.message}")


class UnknownNodeError(CaeError):
    pass


class NotEvidenceError(CaeError):
    pass


class EmptyCriteriaError(CaeError):
    pass


@dataclass(frozen=True, slots=True)
class ClaimNode:
    id: str
    text: str
    children: tuple[str, ...] = ()
    tag: str | None = None
    side: bool = False  # a side-claim: the claim that its argument step is valid


@dataclass(frozen=True, slots=True)
class ArgumentNode:
    id: str
    kind: ArgumentKind
    text: str
    children: tuple[str, ...] = ()
    tag: str | None = None


@dataclass(frozen=True, slots=True)
class EvidenceNode:
    id: str
    kind: EvidenceKind
    text: str
    reference: str | None = None
    digest: str | None = None
    tag: str | None = None

    @property
    def children(self) -> tuple[str, ...]:
        return ()


Node = ClaimNode | ArgumentNode | EvidenceNode


def _slot_builder(cls: type) -> Callable[..., Node]:
    """A constructor of the frozen slots class ``cls`` that takes every field, in order, positionally.

    It sets each slot through its descriptor, at about half the cost of the
    generated frozen ``__init__`` (``object.__setattr__`` per field), and
    builds the node ``cls(...)`` builds. ``parse`` builds every node this way.
    """
    names = [f.name for f in fields(cls)]
    namespace = {"new": object.__new__, "cls": cls, **{f"set_{name}": getattr(cls, name).__set__ for name in names}}
    body = "".join(f"\n    set_{name}(node, {name})" for name in names)
    exec(f"def build({', '.join(names)}):\n    node = new(cls){body}\n    return node", namespace)
    return namespace["build"]


_new_claim = _slot_builder(ClaimNode)
_new_argument = _slot_builder(ArgumentNode)
_new_evidence = _slot_builder(EvidenceNode)


@dataclass(frozen=True)
class CaeTree:
    """Immutable tree: a root claim id and an id -> node map."""

    root: str
    nodes: dict[str, Node]

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node with id {node_id!r}") from None

    def evidence(self, node_id: str) -> EvidenceNode:
        """The evidence node ``node_id``; only evidence can cite a report."""
        node = self.node(node_id)
        if not isinstance(node, EvidenceNode):
            raise NotEvidenceError(f"node {node_id!r} is not evidence")
        return node

    def preorder(self, start: str | None = None) -> list[str]:
        """Document order from ``start`` (default: the root), each node before its children; skips absent ids.

        A walk that reaches more ids than the map holds, through a cycle or a
        second parent, raises ``RuleError`` naming ``start``.
        """
        order, stack = [], [self.root if start is None else start]
        while stack:
            nid = stack.pop()
            node = self.nodes.get(nid)
            if node is None:
                continue
            order.append(nid)
            if type(node) is not EvidenceNode and node.children:
                stack += node.children[::-1]
                if len(order) > len(self.nodes):
                    break
        if len(order) > len(self.nodes):
            raise RuleError(Violation(order[0], "StructureRule", "a walk from it meets a cycle or a second parent"))
        return order


class Misplacement(enum.Enum):
    """The cases of the child rule; each value states its case."""

    EVIDENCE_LEAF = "evidence cannot have children"
    CLAIM_UNDER_CLAIM = "a claim cannot sit directly under a claim"
    ARGUMENT_UNDER_ARGUMENT = "an argument cannot sit under an argument"
    SECOND_ARGUMENT = "a claim is refined by at most one argument"


def misplaced_child(parent: type[Node], child: type[Node], parent_has_argument: bool) -> Misplacement | None:
    """The child rule: which case, if any, a ``child`` node under ``parent`` breaks.

    Both arguments are node classes. ``parent_has_argument`` says whether an
    earlier child of the parent is an argument. This is the one statement of
    where a node may sit; ``parse`` and ``check_well_formed`` both apply it,
    through its table ``child_rows``.
    """
    if parent is EvidenceNode:
        return Misplacement.EVIDENCE_LEAF
    if child is ClaimNode:
        return Misplacement.CLAIM_UNDER_CLAIM if parent is ClaimNode else None
    if child is ArgumentNode:
        if parent is ArgumentNode:
            return Misplacement.ARGUMENT_UNDER_ARGUMENT
        if parent_has_argument:
            return Misplacement.SECOND_ARGUMENT
    return None


def with_children(nodes: dict[str, Node], children: dict[str, list[str]]) -> dict[str, Node]:
    """The node map with each claim and argument rebuilt to hold its child ids, in order."""
    return {
        nid: (node if isinstance(node, EvidenceNode) else replace(node, children=tuple(children[nid])))
        for nid, node in nodes.items()
    }


def build_tree(root: ClaimNode, entries: Sequence[tuple[str, Node]]) -> CaeTree:
    """Assemble a tree from a root claim and (parent id, node) pairs.

    Insertion order of the pairs becomes child order. The ``children`` field
    of the supplied nodes is ignored and rebuilt from the pairs. A duplicate
    id, an unknown parent (a node named as its own parent is one) or a child
    under evidence cannot be put into a ``CaeTree`` and raise at once. Every
    other structural rule is left to ``check_well_formed`` on the assembled
    tree. Either way the ``RuleError`` carries the first violation, so any
    tree this function returns passes ``check_well_formed`` with no findings.
    """
    table: dict[str, Node] = {root.id: root}
    children: dict[str, list[str]] = {root.id: []}

    for parent_id, node in entries:
        parent = table.get(parent_id)
        if node.id in table:
            raise RuleError(Violation(node.id, "StructureRule", f"duplicate node id {node.id!r}"))
        if parent is None:
            raise RuleError(Violation(node.id, "StructureRule", f"parent {parent_id!r} is not in the tree"))
        if isinstance(parent, EvidenceNode):
            raise RuleError(Violation(parent_id, "ChildRuleViolation", Misplacement.EVIDENCE_LEAF.value))
        table[node.id] = node
        children[node.id] = []
        children[parent_id].append(node.id)

    tree = CaeTree(root=root.id, nodes=with_children(table, children))
    violations = check_well_formed(tree)
    if violations:
        raise RuleError(violations[0])
    return tree


def child_rows(keys: dict) -> dict[tuple[type[Node], bool], dict]:
    """``misplaced_child`` as a table, one row per (parent class, parent already has an argument).

    A row maps each key of ``keys`` (a kind token or a node class, for the class it maps to) to (the
    parent's row once such a node has joined, the node's own first row, the case it breaks or None).
    """
    rows = {(cls, saw): {} for cls in (ClaimNode, ArgumentNode, EvidenceNode) for saw in (False, True)}
    for (parent, saw), row in rows.items():
        for key, child in keys.items():
            next_row = rows[parent, saw or child is ArgumentNode]
            row[key] = next_row, rows[child, False], misplaced_child(parent, child, saw)
    return rows


_ROWS = child_rows({cls: cls for cls in (ClaimNode, ArgumentNode, EvidenceNode)})
_SITS_UNDER = {
    Misplacement.CLAIM_UNDER_CLAIM: "claim {!r} sits directly under claim {!r}",
    Misplacement.ARGUMENT_UNDER_ARGUMENT: "argument {!r} sits under argument {!r}",
}


def check_well_formed(tree: CaeTree) -> list[Violation]:
    """Report every structural rule the tree breaks; empty means well-formed.

    Unlike ``build_tree`` this never raises: violations are data, so callers
    can list all of them (the checking command relies on that). Ids and
    reachability are checked node by node only when a check of all fails.
    """
    out: list[Violation] = []
    nodes = tree.nodes
    root_node = nodes.get(tree.root)
    if root_node is None:
        out.append(Violation(tree.root, "RootRule", "root id is not present in the node map"))
        return out
    if not isinstance(root_node, ClaimNode):
        out.append(Violation(tree.root, "RootRule", "root node must be a claim"))

    # an empty id is invalid; the others all are valid when their join is (ID_PATTERN: one character class, repeated)
    if "" in nodes or not ID_PATTERN.match("".join(nodes)) or [node.id for node in nodes.values()] != list(nodes):
        for nid, node in nodes.items():
            if not ID_PATTERN.match(nid):
                out.append(Violation(nid, "IdRule", f"node id {nid!r} is not a valid token"))
            elif node.id != nid:
                out.append(Violation(nid, "IdRule", f"node id {node.id!r} differs from its key {nid!r}"))

    found: list[Violation] = []  # digest and child rule findings, reported after every structure finding
    sides: list[str] = []  # side-claims
    parent_of: dict[str, str] = {}  # each child's first parent
    parent_count: dict[str, int] = {}  # only children with more than one parent
    for nid, node in nodes.items():
        cls = type(node)
        if cls is EvidenceNode:
            if node.digest is not None and node.reference is None:
                found.append(Violation(nid, "DigestRule", "evidence carries a digest but no reference"))
            continue
        if cls is ClaimNode and node.side:
            sides.append(nid)
        row = _ROWS[cls, False]
        subclaims = extra_arguments = 0
        for child in node.children:
            kid = nodes.get(child)
            if kid is None:
                out.append(Violation(nid, "StructureRule", f"child {child!r} is not in the node map"))
                continue
            if child in parent_of:
                parent_count[child] = parent_count.get(child, 1) + 1
            else:
                parent_of[child] = nid
            kid_cls = type(kid)
            row, _, misplaced = row[kid_cls]
            if misplaced is None:
                if kid_cls is ClaimNode and not kid.side:
                    subclaims += 1
            elif misplaced is Misplacement.SECOND_ARGUMENT:
                extra_arguments += 1
            else:
                found.append(Violation(nid, "ChildRuleViolation", _SITS_UNDER[misplaced].format(kid.id, nid)))
        if extra_arguments:
            found.append(Violation(nid, "MultipleArguments", f"claim has {extra_arguments + 1} argument children"))
        if cls is ArgumentNode and subclaims < (needed := 2 if node.kind is ArgumentKind.DECOMPOSITION else 1):
            message = f"{node.kind.value} argument needs at least {needed} subclaim(s), has {subclaims}"
            found.append(Violation(nid, "ArityViolation", message))

    for child in parent_of if parent_count else ():
        if child in parent_count:
            out.append(Violation(child, "StructureRule", f"node has {parent_count[child]} parents"))
    if tree.root in parent_of:
        out.append(Violation(tree.root, "StructureRule", "root node has a parent"))

    reachable, stack = set(), [tree.root]
    while stack:
        nid = stack.pop()
        if nid not in reachable and nid in nodes:
            reachable.add(nid)
            stack += nodes[nid].children
    if len(reachable) != len(nodes):
        unreachable = [nid for nid in nodes if nid not in reachable]
        out += [Violation(nid, "StructureRule", "node is not reachable from the root") for nid in unreachable]

    out += found
    for nid in sorted(sides):
        if not isinstance(nodes.get(parent_of.get(nid)), ArgumentNode):
            out.append(Violation(nid, "SideFlagViolation", "side-claim does not sit under an argument"))
    return out


def node_status(tree: CaeTree, node_id: str) -> Status:
    """Evaluate a node under the minimum rule.

    Proof -> SUPPORTED, hypothesis -> ASSUMED. A claim with no children is
    UNDEVELOPED; otherwise a claim takes the minimum over its argument child
    and its direct evidence. An argument takes the minimum over all of its
    children, side-claims included. So a node takes the least status of the
    leaves below it. A child id missing from the map raises ``UnknownNodeError``.
    """
    tree.node(node_id)
    nodes = tree.nodes
    order = tree.preorder(node_id)
    least = Status.SUPPORTED
    edges = 0  # one fewer than the walk's length when no child id is missing from the map
    for nid in order:
        node = nodes[nid]
        if type(node) is EvidenceNode:
            if node.kind is EvidenceKind.HYPOTHESIS and least is Status.SUPPORTED:
                least = Status.ASSUMED
        elif node.children:
            edges += len(node.children)
        else:
            least = Status.UNDEVELOPED
    if edges + 1 != len(order):  # name the first child id that is not in the map
        tree.node(next(child for nid in order for child in nodes[nid].children if child not in nodes))
    return least


def assumptions_of(tree: CaeTree, node_id: str) -> list[str]:
    """Ids of every hypothesis leaf below the node, in document order."""
    tree.node(node_id)
    nodes = tree.nodes
    return [
        nid
        for nid in tree.preorder(node_id)
        if type(nodes[nid]) is EvidenceNode and nodes[nid].kind is EvidenceKind.HYPOTHESIS
    ]


def instantiate_template(
    app_name: str,
    validity_criteria: Sequence[str],
    consistency_criteria: Sequence[str],
    include_liveness: bool,
) -> CaeTree:
    """Instantiate the generic justification template for one application.

    The root claim is decomposed over the functional elements of the ledger
    service: registering only valid transactions and answering reads
    consistently, each concretized into one undeveloped placeholder subclaim
    per supplied criterion, plus (optionally) eventual registration of valid
    transactions. The resulting tree is well-formed and its root evaluates
    to UNDEVELOPED until the placeholders are developed.
    """
    if not validity_criteria or not consistency_criteria:
        raise EmptyCriteriaError("both criteria lists must be nonempty")

    root = ClaimNode("C0", f"{app_name} is dependable and secure")
    entries: list[tuple[str, Node]] = [
        ("C0", ArgumentNode("A0", ArgumentKind.DECOMPOSITION, "Argument over the functional elements delivered by the ledger service")),
        ("A0", ClaimNode("C1", f"{app_name} registers only valid transactions")),
        ("C1", ArgumentNode("A1", ArgumentKind.CONCRETIZATION, "Validity is made concrete by the application's validity criteria")),
    ]
    entries += [("A1", ClaimNode(f"C1.{i}", criterion)) for i, criterion in enumerate(validity_criteria, start=1)]
    entries.append(("A0", ClaimNode("C2", f"{app_name} answers consistently to read requests")))
    entries.append(
        ("C2", ArgumentNode("A2", ArgumentKind.CONCRETIZATION, "Consistency is made concrete by the application's consistency criteria"))
    )
    entries += [("A2", ClaimNode(f"C2.{i}", criterion)) for i, criterion in enumerate(consistency_criteria, start=1)]
    if include_liveness:
        entries.append(("A0", ClaimNode("C3", f"{app_name} registers any valid transaction eventually")))

    return build_tree(root, entries)
