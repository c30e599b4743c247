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
from typing import Callable, Iterator, Sequence

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

    It sets each slot through its descriptor, where the generated frozen
    ``__init__`` goes through ``object.__setattr__`` once per field, at about
    twice the cost. The node it builds is the one ``cls(...)`` builds: as
    frozen, equal, hashable and ``repr``-identical. ``parse`` builds every
    node of a document this way.
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

    def preorder(self, start: str | None = None) -> Iterator[str]:
        """Document order: each node before its children, children in order."""
        stack = [start if start is not None else self.root]
        while stack:
            nid = stack.pop()
            node = self.nodes.get(nid)
            if node is None:
                continue
            yield nid
            stack.extend(reversed(node.children))


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
    where a node may sit; ``parse`` and ``check_well_formed`` both apply it.
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


def check_well_formed(tree: CaeTree) -> list[Violation]:
    """Report every structural rule the tree breaks; empty means well-formed.

    Unlike ``build_tree`` this never raises: violations are data, so callers
    can list all of them (the checking command relies on that).
    """
    out: list[Violation] = []
    nodes = tree.nodes
    root_node = nodes.get(tree.root)
    if root_node is None:
        out.append(Violation(tree.root, "RootRule", "root id is not present in the node map"))
        return out
    if not isinstance(root_node, ClaimNode):
        out.append(Violation(tree.root, "RootRule", "root node must be a claim"))

    for nid, node in nodes.items():
        if not ID_PATTERN.match(nid or ""):
            out.append(Violation(nid, "IdRule", f"node id {nid!r} is not a valid token"))
        elif node.id != nid:
            out.append(Violation(nid, "IdRule", f"node id {node.id!r} differs from its key {nid!r}"))

    parent_of: dict[str, str] = {}  # each child's first parent
    parent_count: dict[str, int] = {}  # only children with more than one parent
    for nid, node in nodes.items():
        for child in node.children:
            if child not in nodes:
                out.append(Violation(nid, "StructureRule", f"child {child!r} is not in the node map"))
            elif child in parent_of:
                parent_count[child] = parent_count.get(child, 1) + 1
            else:
                parent_of[child] = nid

    for child in parent_of:
        if child in parent_count:
            out.append(Violation(child, "StructureRule", f"node has {parent_count[child]} parents"))
    if tree.root in parent_of:
        out.append(Violation(tree.root, "StructureRule", "root node has a parent"))

    reachable = set()
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        if nid in reachable or nid not in nodes:
            continue
        reachable.add(nid)
        stack.extend(nodes[nid].children)
    for nid in nodes:
        if nid not in reachable:
            out.append(Violation(nid, "StructureRule", "node is not reachable from the root"))

    for nid, node in nodes.items():
        if isinstance(node, EvidenceNode):
            if node.digest is not None and node.reference is None:
                out.append(Violation(nid, "DigestRule", "evidence carries a digest but no reference"))
            continue
        parent_kind = type(node)
        arguments = subclaims = extra_arguments = 0
        for kid in [nodes[c] for c in node.children if c in nodes]:
            misplaced = misplaced_child(parent_kind, type(kid), arguments > 0)
            if misplaced is Misplacement.CLAIM_UNDER_CLAIM:
                out.append(
                    Violation(nid, "ChildRuleViolation", f"claim {kid.id!r} sits directly under claim {nid!r}")
                )
            elif misplaced is Misplacement.ARGUMENT_UNDER_ARGUMENT:
                out.append(
                    Violation(nid, "ChildRuleViolation", f"argument {kid.id!r} sits under argument {nid!r}")
                )
            elif misplaced is Misplacement.SECOND_ARGUMENT:
                extra_arguments += 1
            if isinstance(kid, ArgumentNode):
                arguments += 1
            elif isinstance(kid, ClaimNode) and not kid.side:
                subclaims += 1
        if extra_arguments:
            out.append(Violation(nid, "MultipleArguments", f"claim has {arguments} argument children"))
        if isinstance(node, ArgumentNode):
            needed = 2 if node.kind is ArgumentKind.DECOMPOSITION else 1
            if subclaims < needed:
                out.append(
                    Violation(
                        nid,
                        "ArityViolation",
                        f"{node.kind.value} argument needs at least {needed} subclaim(s), has {subclaims}",
                    )
                )

    for nid in sorted(nid for nid, node in nodes.items() if isinstance(node, ClaimNode) and node.side):
        if not isinstance(nodes.get(parent_of.get(nid)), ArgumentNode):
            out.append(Violation(nid, "SideFlagViolation", "side-claim does not sit under an argument"))

    return out


def node_status(tree: CaeTree, node_id: str) -> Status:
    """Evaluate a node under the minimum rule.

    Proof -> SUPPORTED, hypothesis -> ASSUMED. A claim with no children is
    UNDEVELOPED; otherwise a claim takes the minimum over its argument child
    and its direct evidence. An argument takes the minimum over all of its
    children, side-claims included.
    """
    tree.node(node_id)
    status: dict[str, Status] = {}
    for nid in reversed(list(tree.preorder(node_id))):  # children before their parent
        node = tree.nodes[nid]
        if isinstance(node, EvidenceNode):
            status[nid] = Status.SUPPORTED if node.kind is EvidenceKind.PROOF else Status.ASSUMED
        elif not node.children:
            status[nid] = Status.UNDEVELOPED
        else:
            status[nid] = min(status[child] for child in node.children)
    return status[node_id]


def assumptions_of(tree: CaeTree, node_id: str) -> list[str]:
    """Ids of every hypothesis leaf below the node, in document order."""
    tree.node(node_id)
    return [
        nid
        for nid in tree.preorder(node_id)
        if isinstance(tree.nodes[nid], EvidenceNode) and tree.nodes[nid].kind is EvidenceKind.HYPOTHESIS
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
    for i, criterion in enumerate(validity_criteria, start=1):
        entries.append(("A1", ClaimNode(f"C1.{i}", criterion)))
    entries.append(("A0", ClaimNode("C2", f"{app_name} answers consistently to read requests")))
    entries.append(
        ("C2", ArgumentNode("A2", ArgumentKind.CONCRETIZATION, "Consistency is made concrete by the application's consistency criteria"))
    )
    for i, criterion in enumerate(consistency_criteria, start=1):
        entries.append(("A2", ClaimNode(f"C2.{i}", criterion)))
    if include_liveness:
        entries.append(("A0", ClaimNode("C3", f"{app_name} registers any valid transaction eventually")))

    return build_tree(root, entries)
