from __future__ import annotations

import dataclasses
import gc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockcase import corpus_text
from blockcase.cae_dsl import (
    ParseFailure,
    link_evidence,
    parse,
    serialize,
    to_dot,
    verify_links,
)
from blockcase.cae_model import (
    ArgumentNode,
    CaeTree,
    ClaimNode,
    EvidenceNode,
    NotEvidenceError,
    check_well_formed,
    instantiate_template,
)
from blockcase.determinism import sha256_hex
from conftest import CAE_NAMES, cae_trees, deep_cae


def errors_of(text):
    with pytest.raises(ParseFailure) as exc_info:
        parse(text)
    return exc_info.value.errors


class TestParse:
    def test_single_claim_line(self):
        tree = parse('claim C0 "root"\n')
        assert tree.root == "C0"
        assert list(tree.nodes) == ["C0"]
        assert tree.nodes["C0"].text == "root"

    def test_proof_under_proof_is_a_child_rule_error_at_the_inner_line(self):
        text = 'claim C0 "root"\n  proof P0 "outer"\n    proof P1 "inner"\n'
        errors = errors_of(text)
        assert [(e.code, e.span.line) for e in errors] == [("ChildRuleViolation", 3)]

    def test_endorser_subtree_carries_exactly_the_three_proofs(self):
        tree = parse(corpus_text("fig5.cae"))
        argument = tree.nodes["A1c.1"]
        evidence_below = {
            nid
            for nid in tree.preorder("A1c.1")
            if isinstance(tree.nodes[nid], EvidenceNode)
        }
        assert isinstance(argument, ArgumentNode)
        assert evidence_below == {"P1c.1.1", "P1c.1.2", "P1c.1.3"}

    def test_tab_indentation_rejected(self):
        errors = errors_of('claim C0 "root"\n\tproof P0 "x"\n')
        assert errors[0].code == "BadIndent"
        assert errors[0].span.line == 2

    def test_odd_indentation_rejected(self):
        assert errors_of('claim C0 "root"\n   proof P0 "x"\n')[0].code == "BadIndent"

    def test_indent_jump_rejected(self):
        assert errors_of('claim C0 "root"\n      proof P0 "x"\n')[0].code == "BadIndent"

    def test_a_line_under_an_odd_indentation_that_jumps_has_no_parent(self):
        # an odd indentation is reported alone, so the line sits at level 3 and the next line finds no level 1
        errors = errors_of('claim C0 "root"\n       claim C1 "x"\n    proof P0 "y"\n')
        assert [(e.span.line, e.span.column, e.code, e.message) for e in errors] == [
            (2, 7, "BadIndent", "indentation must use two spaces per level"),
            (3, 5, "BadIndent", "no line at the enclosing indentation level"),
        ]

    def test_unterminated_string(self):
        errors = errors_of('claim C0 "never closed\n')
        assert errors[0].code == "UnterminatedString"
        assert errors[0].span == type(errors[0].span)(1, 10)

    def test_unknown_kind(self):
        assert errors_of('goal C0 "root"\n')[0].code == "BadKind"

    def test_unknown_attribute(self):
        assert errors_of('claim C0 "root" color="red"\n')[0].code == "BadAttribute"

    def test_ref_attribute_restricted_to_evidence(self):
        assert errors_of('claim C0 "root" ref="x"\n')[0].code == "BadAttribute"

    def test_digest_requires_ref(self):
        text = 'claim C0 "root"\n  proof P0 "x" digest="%s"\n' % ("0" * 64)
        assert errors_of(text)[0].code == "BadAttribute"

    def test_duplicate_id(self):
        errors = errors_of('claim C0 "root"\n  proof C0 "again"\n')
        assert [e.code for e in errors] == ["DuplicateId"]

    def test_second_root_rejected(self):
        errors = errors_of('claim C0 "root"\nclaim C1 "another"\n')
        assert [e.code for e in errors] == ["ChildRuleViolation"]

    def test_root_must_be_a_claim(self):
        assert errors_of('proof P0 "root"\n')[0].code == "ChildRuleViolation"

    def test_second_argument_under_a_claim(self):
        text = (
            'claim C0 "root"\n'
            '  concretization A0 "first"\n'
            '    claim C1 "sub"\n'
            '  concretization A1 "second"\n'
            '    claim C2 "sub"\n'
        )
        errors = errors_of(text)
        assert [(e.code, e.span.line) for e in errors] == [("ChildRuleViolation", 4)]

    def test_comments_and_blank_lines_are_ignored(self):
        text = '# a comment\n\nclaim C0 "root"\n\n  # another\n  proof P0 "x"\n'
        tree = parse(text)
        assert set(tree.nodes) == {"C0", "P0"}

    def test_empty_document(self):
        assert errors_of("")[0].code == "ChildRuleViolation"

    def test_multiple_errors_all_reported(self):
        text = 'claim C0 "root"\n  goal X "bad kind"\n  proof P0 "ok" nope="x"\n'
        codes = {e.code for e in errors_of(text)}
        assert codes == {"BadKind", "BadAttribute"}

    def test_arity_is_a_checker_finding_not_a_parse_error(self):
        # a representable but ill-formed document parses; the checker reports it
        text = 'claim C0 "root"\n  decomposition A0 "split"\n    claim C1 "only one"\n'
        tree = parse(text)
        assert [v.rule for v in check_well_formed(tree)] == ["ArityViolation"]

    def test_side_claim_under_argument_round_trips(self):
        text = (
            'claim C0 "root"\n'
            '  decomposition A0 "split"\n'
            '    claim C1 "left"\n'
            '    claim C2 "right"\n'
            '    side-claim S0 "the split is exhaustive"\n'
        )
        tree = parse(text)
        assert [nid for nid, node in tree.nodes.items() if isinstance(node, ClaimNode) and node.side] == ["S0"]
        assert serialize(tree) == text

    def test_error_lines_pinpoint_the_culprit(self):
        # removing the line named by each error removes that error
        text = 'claim C0 "root"\n  proof P0 "ok"\n  claim C1 "bad spot"\n'
        errors = errors_of(text)
        assert len(errors) == 1
        lines = text.splitlines(keepends=True)
        del lines[errors[0].span.line - 1]
        parse("".join(lines))  # no failure once the culprit is gone


class TestSerialize:
    def test_corpus_files_are_canonical_fixpoints(self):
        for name in CAE_NAMES:
            text = corpus_text(name)
            assert serialize(parse(text)) == text, name

    def test_attributes_sorted_by_key(self):
        tree = parse('claim C0 "r"\n  proof P0 "x" digest="%s" ref="f" tag="t"\n' % ("a" * 64))
        line = serialize(tree).splitlines()[1]
        assert line == f'  proof P0 "x" digest="{"a" * 64}" ref="f" tag="t"'

    def test_line_separators_in_text_round_trip(self):
        # str.splitlines breaks at \x85, which quote writes as it is
        tree = instantiate_template("demo\x85app", ["v"], ["c"], False)
        assert parse(serialize(tree)) == tree

    def test_escapes_round_trip(self):
        tricky = 'quote " backslash \\ newline \n tab \t end'
        tree = parse(serialize(parse(f"claim C0 {_quote(tricky)}\n")))
        assert tree.nodes["C0"].text == tricky


def _quote(text):
    from blockcase.linefmt import quote

    return quote(text)


@settings(max_examples=settings.default.max_examples * 4 // 5, deadline=None)  # ten times that when thorough
@given(cae_trees())
def test_round_trip_reproduces_the_tree(tree):
    assert parse(serialize(tree)) == tree


@settings(max_examples=settings.default.max_examples * 2 // 5, deadline=None)  # ten times that when thorough
@given(cae_trees())
def test_parsed_nodes_are_the_frozen_nodes_their_constructors_build(tree):
    # parse builds each node through its slots; the drawn tree's nodes come from the constructors
    for nid, node in parse(serialize(tree)).nodes.items():
        built = tree.nodes[nid]
        assert (node, hash(node), repr(node)) == (built, hash(built), repr(built))
        for field in dataclasses.fields(node):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field.name, getattr(built, field.name))
        changes = {"text": built.text + "x"}
        if isinstance(node, EvidenceNode):  # the fields link_evidence replaces
            changes.update(reference="r", digest="d")
        assert dataclasses.replace(node, **changes) == dataclasses.replace(built, **changes)


@settings(max_examples=40, deadline=None)
@given(cae_trees())
def test_serialize_is_a_fixpoint(tree):
    once = serialize(tree)
    assert serialize(parse(once)) == once


def test_round_trip_of_a_tree_3000_levels_deep():
    text = deep_cae(1500)
    tree = parse(text)
    assert serialize(tree) == text
    assert parse(serialize(tree)) == tree


def test_a_tree_whose_text_does_not_parse_is_not_called_clean():
    # an id with a trailing newline serializes to two lines that parse rejects
    tree = CaeTree(root="C0\n", nodes={"C0\n": ClaimNode("C0\n", "root")})
    with pytest.raises(ParseFailure):
        parse(serialize(tree))
    assert [v.rule for v in check_well_formed(tree)] == ["IdRule"]


@st.composite
def misplaced_trees(draw):
    """A well-formed tree with one claim or argument moved under a parent it may not sit under.

    Returns (moved id, new parent id, tree). The move appends the node as the
    parent's last child: a claim under a claim, an argument under an
    argument, or an argument under a claim that already has one.
    """
    tree = draw(cae_trees())
    parent_of = {child: nid for nid, node in tree.nodes.items() for child in node.children}
    moves: dict[str, list[tuple[str, str]]] = {}  # broken case -> (moved id, new parent id)
    for moved, node in tree.nodes.items():
        if moved == tree.root or isinstance(node, EvidenceNode):
            continue
        subtree = set(tree.preorder(moved))
        for parent, host in tree.nodes.items():
            if parent in subtree or parent == parent_of[moved]:
                continue
            if isinstance(node, ClaimNode) and isinstance(host, ClaimNode):
                moves.setdefault("claim under claim", []).append((moved, parent))
            elif isinstance(node, ArgumentNode) and isinstance(host, ArgumentNode):
                moves.setdefault("argument under argument", []).append((moved, parent))
            elif isinstance(node, ArgumentNode) and any(isinstance(tree.nodes[c], ArgumentNode) for c in host.children):
                moves.setdefault("second argument", []).append((moved, parent))
    assume(moves)
    moved, parent = draw(st.sampled_from(moves[draw(st.sampled_from(sorted(moves)))]))
    old_parent = parent_of[moved]
    nodes = dict(tree.nodes)
    kept = tuple(c for c in nodes[old_parent].children if c != moved)
    nodes[old_parent] = dataclasses.replace(nodes[old_parent], children=kept)
    nodes[parent] = dataclasses.replace(nodes[parent], children=nodes[parent].children + (moved,))
    return moved, parent, CaeTree(root=tree.root, nodes=nodes)


@settings(max_examples=80, deadline=None)
@given(misplaced_trees())
def test_parse_and_the_checker_agree_on_the_child_rule(case):
    moved, parent, tree = case
    text = serialize(tree)
    line = next(n for n, row in enumerate(text.split("\n"), start=1) if row.split()[1] == moved)
    assert [(e.code, e.span.line) for e in errors_of(text)] == [("ChildRuleViolation", line)]
    rules = {v.rule for v in check_well_formed(tree) if v.node_id == parent}
    assert rules & {"ChildRuleViolation", "MultipleArguments"}


class TestToDot:
    def test_single_claim_digraph(self):
        dot = to_dot(parse('claim C0 "root"\n'))
        assert dot.startswith("digraph cae {")
        assert dot.count("->") == 0
        assert dot.count("fillcolor=lightblue") == 1

    def test_substitution_corpus_counts(self, corpus_trees):
        dot = to_dot(corpus_trees["fig6.cae"])
        assert dot.count("[label=") == 9
        assert dot.count("->") == 8
        assert dot.count("fillcolor=gold") == 2
        assert dot.count("fillcolor=palegreen") == 3

    def test_endorser_corpus_has_four_evidence_nodes_three_under_argument(self, corpus_trees):
        tree = corpus_trees["fig5.cae"]
        dot = to_dot(tree)
        assert dot.count("fillcolor=palegreen") == 4
        under_argument = [
            nid for nid in tree.preorder("A1c.1") if isinstance(tree.nodes[nid], EvidenceNode)
        ]
        assert len(under_argument) == 3

    def test_evidence_labels_carry_their_kind(self, corpus_trees):
        dot = to_dot(corpus_trees["fig6.cae"])
        assert "H2c.2s'\\nHypothesis: " in dot
        assert "P2c.2s.1\\nProof: " in dot

    def test_rendering_is_deterministic(self, corpus_trees):
        tree = corpus_trees["fig4.cae"]
        assert to_dot(tree) == to_dot(tree)

    def test_each_line_break_in_a_text_is_one_dot_newline(self):
        # LF, CR and CRLF, as the .cae format cuts lines; an escaped backslash before n stays text
        dot = to_dot(parse('claim C0 "a\\nb\\rc\\r\\nd\\\\n"\n  proof P0 "e\\n"\n'))
        assert dot.split("\n") == [
            "digraph cae {",
            '  "C0" [label="C0\\na\\nb\\nc\\nd\\\\n", style=filled, fillcolor=lightblue]',
            '  "P0" [label="P0\\nProof: e\\n", style=filled, fillcolor=palegreen]',
            '  "C0" -> "P0"',
            "}",
            "",
        ]
        assert "\r" not in dot


class TestLinkEvidence:
    def test_link_attaches_reference_and_digest(self, corpus_trees):
        digest = "b" * 64
        tree = link_evidence(corpus_trees["fig5.cae"], "P1c.1.3", "campaign.json", digest)
        node = tree.nodes["P1c.1.3"]
        assert (node.reference, node.digest) == ("campaign.json", digest)
        # everything else untouched
        assert tree.nodes["P1c.1.1"] == corpus_trees["fig5.cae"].nodes["P1c.1.1"]

    def test_link_requires_an_evidence_node(self, corpus_trees):
        with pytest.raises(NotEvidenceError):
            link_evidence(corpus_trees["fig5.cae"], "C1c.1", "x", "0" * 64)

    def test_relinking_overwrites(self, corpus_trees):
        tree = link_evidence(corpus_trees["fig5.cae"], "P1c.1.3", "one.json", "1" * 64)
        tree = link_evidence(tree, "P1c.1.3", "two.json", "2" * 64)
        node = tree.nodes["P1c.1.3"]
        assert (node.reference, node.digest) == ("two.json", "2" * 64)


class TestVerifyLinks:
    def test_missing_file_reported(self, tmp_path, corpus_trees):
        tree = link_evidence(corpus_trees["fig5.cae"], "P1c.1.3", "gone.json", "0" * 64)
        issues = verify_links(tree, tmp_path)
        assert [issue.code for issue in issues] == ["missing-file"]

    def test_digest_mismatch_reported(self, tmp_path, corpus_trees):
        (tmp_path / "report.json").write_bytes(b"payload")
        tree = link_evidence(corpus_trees["fig5.cae"], "P1c.1.3", "report.json", "0" * 64)
        issues = verify_links(tree, tmp_path)
        assert [issue.code for issue in issues] == ["digest-mismatch"]

    def test_matching_digest_is_clean(self, tmp_path, corpus_trees):
        payload = b"payload"
        (tmp_path / "report.json").write_bytes(payload)
        tree = link_evidence(corpus_trees["fig5.cae"], "P1c.1.3", "report.json", sha256_hex(payload))
        assert verify_links(tree, tmp_path) == []

    def test_unreferenced_evidence_is_skipped(self, tmp_path, corpus_trees):
        assert verify_links(corpus_trees["fig5.cae"], tmp_path) == []


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("refused", [False, True], ids=["flawless", "refused"])
def test_parse_leaves_the_cyclic_collector_as_it_found_it(enabled, refused):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if refused:
            with pytest.raises(ParseFailure):
                parse('claim C0 "root"\n  claim C1 "under a claim"\n')
        else:
            parse(corpus_text("fig5.cae"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
