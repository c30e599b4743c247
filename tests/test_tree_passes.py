"""The tree checks and walks against frozen copies of their earlier, plainer forms.

``check_well_formed``, ``node_status``, ``assumptions_of``, ``to_dot`` and
``verify_links`` each make one tight pass over a tree. The reference copies
below are the generator-walk versions they replaced, kept here unchanged
(their walker is ``_reference_preorder``, but for ``reference_serialize``,
which checks the tree with ``CaeTree.preorder`` first and is the form
``serialize`` has again). On any node map, well-formed or not, each
function must give what its reference gives, in the same order, with two
exceptions that are stated and tested:

- a walk that reaches more ids than the map holds (a cycle, or a node with
  a second parent) raises ``RuleError``; the references loop forever on a
  cycle;
- ``node_status`` on a subtree with a child id missing from the map raises
  ``UnknownNodeError``; the reference raised ``KeyError``.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from conftest import cae_trees
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcase.cae_dsl import LinkIssue, serialize, to_dot, verify_links
from blockcase.cae_model import (
    ArgumentKind,
    ArgumentNode,
    CaeTree,
    ClaimNode,
    EvidenceKind,
    EvidenceNode,
    Misplacement,
    RuleError,
    Status,
    UnknownNodeError,
    Violation,
    assumptions_of,
    check_well_formed,
    misplaced_child,
    node_status,
)
from blockcase.determinism import file_sha256, sha256_hex
from blockcase.linefmt import ID_PATTERN, LINE_END

# ---------------------------------------------------------------- reference copies


def _reference_preorder(tree, start=None):
    stack = [start if start is not None else tree.root]
    while stack:
        nid = stack.pop()
        node = tree.nodes.get(nid)
        if node is None:
            continue
        yield nid
        stack.extend(reversed(node.children))


def reference_check_well_formed(tree):
    out = []
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

    parent_of = {}
    parent_count = {}
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


def reference_node_status(tree, node_id):
    tree.node(node_id)
    status = {}
    for nid in reversed(list(_reference_preorder(tree, node_id))):
        node = tree.nodes[nid]
        if isinstance(node, EvidenceNode):
            status[nid] = Status.SUPPORTED if node.kind is EvidenceKind.PROOF else Status.ASSUMED
        elif not node.children:
            status[nid] = Status.UNDEVELOPED
        else:
            status[nid] = min(status[child] for child in node.children)
    return status[node_id]


def reference_assumptions_of(tree, node_id):
    tree.node(node_id)
    return [
        nid
        for nid in _reference_preorder(tree, node_id)
        if isinstance(tree.nodes[nid], EvidenceNode) and tree.nodes[nid].kind is EvidenceKind.HYPOTHESIS
    ]


_FILL = {ClaimNode: "lightblue", ArgumentNode: "gold", EvidenceNode: "palegreen"}


def _reference_dot_escape(text):
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return "\\n".join(LINE_END.split(text)) if "\n" in text or "\r" in text else text


def reference_to_dot(tree):
    lines = ["digraph cae {"]
    order = list(_reference_preorder(tree))
    for nid in order:
        node = tree.nodes[nid]
        if isinstance(node, ClaimNode):
            label = f"{nid}\\n{_reference_dot_escape(node.text)}"
        else:
            label = f"{nid}\\n{node.kind.value.capitalize()}: {_reference_dot_escape(node.text)}"
        lines.append(f'  "{nid}" [label="{label}", style=filled, fillcolor={_FILL[type(node)]}]')
    for nid in order:
        for child in tree.nodes[nid].children:
            lines.append(f'  "{nid}" -> "{child}"')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_verify_links(tree, base_dir, only=None):
    base = Path(base_dir)
    issues = []
    for nid in _reference_preorder(tree):
        node = tree.nodes[nid]
        if not isinstance(node, EvidenceNode) or node.reference is None:
            continue
        if only is not None and nid not in only:
            continue
        target = Path(node.reference)
        if not target.is_absolute():
            target = base / target
        if not target.is_file():
            issues.append(LinkIssue(nid, "missing-file", f"referenced file {node.reference!r} does not exist"))
            continue
        if node.digest is not None and file_sha256(target) != node.digest:
            issues.append(LinkIssue(nid, "digest-mismatch", f"file {node.reference!r} does not match the digest"))
    return issues


_REFERENCE_REVERSE = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})


def _reference_quote(text):
    return '"' + text.translate(_REFERENCE_REVERSE) + '"'


def _reference_kind_token(node):
    if isinstance(node, ClaimNode):
        return "side-claim" if node.side else "claim"
    return node.kind.value


def _reference_attr_pairs(node):
    if not isinstance(node, EvidenceNode):
        return [] if node.tag is None else [("tag", node.tag)]
    pairs = (("digest", node.digest), ("ref", node.reference), ("tag", node.tag))
    return [pair for pair in pairs if pair[1] is not None]


def reference_serialize(tree):
    tree.preorder()  # refuses a cycle, which this walk would follow forever
    out = []
    stack = [(tree.root, 0)]
    while stack:
        nid, level = stack.pop()
        node = tree.nodes[nid]
        attrs = "".join(f" {k}={_reference_quote(v)}" for k, v in _reference_attr_pairs(node))
        out.append(f"{'  ' * level}{_reference_kind_token(node)} {nid} {_reference_quote(node.text)}{attrs}\n")
        stack.extend((child, level + 1) for child in reversed(node.children))
    return "".join(out)


# ---------------------------------------------------------------- node maps, well-formed or not

_EVIDENCE_BYTES = b"evidence\n"
_GOOD_DIGEST = sha256_hex(_EVIDENCE_BYTES)


@pytest.fixture(scope="module")
def evidence_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("evidence")
    (base / "ok.txt").write_bytes(_EVIDENCE_BYTES)
    (base / "sub").mkdir()
    return base


# a reference that exists, one that does not, one through a directory, one with a trailing slash, a directory
_REFERENCES = ("ok.txt", "gone.txt", "sub/../ok.txt", "ok.txt/", "sub", "")
_TEXTS = ("plain", 'a "quoted" word', "back\\slash", "two\nlines", "cr\r\nlf", "lone\rcr", "")
_IDS = ("N0", "N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "N9")
_BAD_IDS = ("bad id", "", "N\n", "é", 'q"')


@st.composite
def node_maps(draw):
    """A node map with a root id: a random tree, then broken in the ways the checks must report.

    Node i > 0 hangs under a random earlier node, whatever the two kinds, so
    misplaced children and side-claims off an argument come up by themselves.
    Then extra edges give second parents and cycles, dropped nodes leave
    missing children and orphans, an id may be invalid or differ from its
    key, and the map's insertion order is shuffled.
    """
    n = draw(st.integers(1, 9))
    keys = list(_IDS[:n])
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        keys[i] = draw(st.sampled_from(_BAD_IDS).filter(lambda bad: bad not in keys))
    kinds = [draw(st.sampled_from(("claim", "side", "argument", "evidence"))) for _ in keys]
    if draw(st.booleans()):
        kinds[0] = "claim"
    children: dict[str, list[str]] = {key: [] for key in keys}
    for i in range(1, n):
        children[keys[draw(st.integers(0, i - 1))]].append(keys[i])
    for _ in range(draw(st.integers(0, 2))):  # a second parent, or a cycle when it points up
        children[draw(st.sampled_from(keys))].append(draw(st.sampled_from(keys)))
    if draw(st.booleans()):  # a child that is not in the map
        children[draw(st.sampled_from(keys))].append("GONE")

    nodes = {}
    for key, kind in zip(keys, kinds):
        node_id = key if draw(st.integers(0, 9)) else draw(st.sampled_from(_IDS + _BAD_IDS))
        text = draw(st.sampled_from(_TEXTS))
        kids = tuple(children[key])
        if kind in ("claim", "side"):
            nodes[key] = ClaimNode(node_id, text, kids, side=kind == "side")
        elif kind == "argument":
            nodes[key] = ArgumentNode(node_id, draw(st.sampled_from(list(ArgumentKind))), text, kids)
        else:  # evidence: its children, if any were drawn, are lost, which orphans them
            reference = draw(st.none() | st.sampled_from(_REFERENCES))
            digest = draw(st.sampled_from((None, _GOOD_DIGEST, "0" * 64)))
            nodes[key] = EvidenceNode(node_id, draw(st.sampled_from(list(EvidenceKind))), text, reference, digest)
    for key in draw(st.lists(st.sampled_from(keys[1:] or keys), max_size=2, unique=True)):  # orphans below it
        del nodes[key]
    order = draw(st.permutations(list(nodes)))
    root = keys[0] if draw(st.integers(0, 9)) else draw(st.sampled_from(keys + ["GONE"]))
    return CaeTree(root=root, nodes={key: nodes[key] for key in order})


def _reference_walk_overflows(tree, start=None):
    """Whether the reference walk from ``start`` reaches more ids than the map holds (on a cycle, forever)."""
    limit = len(tree.nodes)
    return len(list(itertools.islice(_reference_preorder(tree, start), limit + 1))) > limit


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except (KeyError, RuleError, UnknownNodeError) as exc:
        return "raises", exc


# ---------------------------------------------------------------- the differential properties


@settings(max_examples=400, deadline=None)
@given(node_maps())
def test_check_well_formed_reports_what_the_reference_reports(tree):
    assert check_well_formed(tree) == reference_check_well_formed(tree)


@settings(max_examples=300, deadline=None)
@given(node_maps())
def test_walks_give_what_the_reference_walks_give(tree):
    if _reference_walk_overflows(tree):
        for walk in (to_dot, serialize):
            with pytest.raises(RuleError):
                walk(tree)
    else:
        assert to_dot(tree) == reference_to_dot(tree)
    for nid in tree.nodes:
        if _reference_walk_overflows(tree, nid):
            for check in (node_status, assumptions_of):
                with pytest.raises(RuleError) as caught:
                    check(tree, nid)
                assert caught.value.violation.rule == "StructureRule"
            continue
        assert assumptions_of(tree, nid) == reference_assumptions_of(tree, nid)
        kind, status = _outcome(node_status, tree, nid)
        expected_kind, expected = _outcome(reference_node_status, tree, nid)
        assert kind == expected_kind
        if kind == "value":
            assert status is expected
        else:  # a child id missing from the map: the reference failed to look it up
            assert isinstance(expected, KeyError) and isinstance(status, UnknownNodeError)


def _serialized(write, tree):
    """What ``write`` gives, or the type and arguments of what it raises."""
    kind, result = _outcome(write, tree)
    return (kind, result) if kind == "value" else (kind, type(result), result.args)


@settings(max_examples=300, deadline=None)
@given(node_maps())
def test_serialize_gives_what_the_reference_gives_on_any_node_map(tree):
    # a cycle or a second parent past the node count raises RuleError, a child missing from the map KeyError
    assert _serialized(serialize, tree) == _serialized(reference_serialize, tree)


@settings(max_examples=200, deadline=None)
@given(cae_trees())
def test_serialize_writes_the_bytes_of_the_reference(tree):
    assert serialize(tree) == reference_serialize(tree)


@pytest.mark.parametrize(
    ("children", "expected"),
    [
        pytest.param(("C1", "P1", "P1"), RuleError, id="overflow-on-an-evidence-leaf"),
        pytest.param(("C1", "C1", "P1"), RuleError, id="overflow-on-a-claim-without-children"),
        pytest.param(("C1", "P1", "GONE"), KeyError, id="missing-child"),
        pytest.param(("GONE", "C1", "C1", "P1"), RuleError, id="overflow-after-a-missing-child"),
    ],
)
def test_serialize_raises_what_the_reference_raises(children, expected):
    tree = CaeTree(
        root="C0",
        nodes={
            "C0": ClaimNode("C0", "root", ("A0",)),
            "A0": ArgumentNode("A0", ArgumentKind.DECOMPOSITION, "split", children),
            "C1": ClaimNode("C1", "one"),
            "P1": EvidenceNode("P1", EvidenceKind.PROOF, "leaf"),
        },
    )
    assert _serialized(serialize, tree) == _serialized(reference_serialize, tree)
    assert _serialized(serialize, tree)[1] is expected


@settings(max_examples=150, deadline=None)
@given(tree=node_maps(), only=st.none() | st.sets(st.sampled_from(_IDS)))
def test_verify_links_gives_what_the_reference_gives(evidence_dir, tree, only):
    if _reference_walk_overflows(tree):
        with pytest.raises(RuleError):
            verify_links(tree, evidence_dir, only=only)
    else:
        assert verify_links(tree, evidence_dir, only=only) == reference_verify_links(tree, evidence_dir, only=only)
        assert verify_links(tree, str(evidence_dir), only=only) == reference_verify_links(tree, evidence_dir, only)


def test_the_node_maps_reach_every_case():
    """The strategy draws every kind of tree the differential properties are meant to cover."""
    rules, walks = set(), set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(node_maps())
    def record(tree):
        violations = reference_check_well_formed(tree)
        rules.update(v.rule for v in violations)
        rules.update(v.message for v in violations if v.rule == "StructureRule")
        if not violations:
            walks.add("well-formed")
        if _reference_walk_overflows(tree):
            walks.add("overflow")
            return
        order = list(_reference_preorder(tree))
        if list(tree.nodes) != order:
            walks.add("insertion order is not preorder")
        if len(set(order)) < len(order):
            walks.add("a node met twice within the node count")
        if order and _outcome(reference_node_status, tree, tree.root)[0] == "raises":
            walks.add("a child missing from the map under the root")

    record()
    assert {"IdRule", "DigestRule", "ChildRuleViolation", "MultipleArguments", "ArityViolation",
            "SideFlagViolation", "RootRule", "node is not reachable from the root", "root node has a parent"} <= rules
    assert any(message.startswith("child ") for message in rules)
    assert any(message.endswith(" parents") for message in rules)
    assert walks == {
        "well-formed",
        "overflow",
        "insertion order is not preorder",
        "a node met twice within the node count",
        "a child missing from the map under the root",
    }


# ---------------------------------------------------------------- a cycle ends every walk


def _cycle():
    """``C0 -> A0 -> C0``: ``check_well_formed`` reports it, and no walk may follow it forever."""
    return CaeTree(
        root="C0",
        nodes={
            "C0": ClaimNode("C0", "root", ("A0",)),
            "A0": ArgumentNode("A0", ArgumentKind.SUBSTITUTION, "back to the root", ("C0",)),
        },
    )


@pytest.mark.parametrize(
    "walk",
    [
        pytest.param(lambda tree: node_status(tree, "C0"), id="node_status"),
        pytest.param(lambda tree: assumptions_of(tree, "C0"), id="assumptions_of"),
        pytest.param(to_dot, id="to_dot"),
        pytest.param(lambda tree: verify_links(tree, "."), id="verify_links"),
        pytest.param(serialize, id="serialize"),
        pytest.param(CaeTree.preorder, id="preorder"),
    ],
)
def test_every_walk_refuses_a_cycle(walk):
    with pytest.raises(RuleError) as caught:
        walk(_cycle())
    assert caught.value.violation == Violation("C0", "StructureRule", "a walk from it meets a cycle or a second parent")
    assert check_well_formed(_cycle()) == [Violation("C0", "StructureRule", "root node has a parent")]


def test_a_walk_that_meets_a_second_parent_past_the_node_count_names_its_start():
    tree = CaeTree(
        root="C0",
        nodes={
            "C0": ClaimNode("C0", "root", ("A0",)),
            "A0": ArgumentNode("A0", ArgumentKind.DECOMPOSITION, "split", ("C1", "C1", "C2")),
            "C1": ClaimNode("C1", "shared"),
            "C2": ClaimNode("C2", "last"),
        },
    )
    with pytest.raises(RuleError) as caught:
        tree.preorder()
    assert caught.value.violation.node_id == "C0"
    assert tree.preorder("A0") == ["A0", "C1", "C1", "C2"]  # four ids, no more than the map holds


def test_preorder_is_a_list_in_document_order():
    tree = CaeTree(
        root="C0",
        nodes={
            "P1": EvidenceNode("P1", EvidenceKind.PROOF, "late in the map"),
            "C0": ClaimNode("C0", "root", ("A0", "P0")),
            "A0": ArgumentNode("A0", ArgumentKind.SUBSTITUTION, "swap", ("C1",)),
            "C1": ClaimNode("C1", "swapped", ("P1", "GONE")),
            "P0": EvidenceNode("P0", EvidenceKind.HYPOTHESIS, "direct"),
        },
    )
    assert tree.preorder() == ["C0", "A0", "C1", "P1", "P0"]
    assert tree.preorder("C1") == ["C1", "P1"]
    assert tree.preorder("GONE") == []
