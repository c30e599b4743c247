from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from blockcase.cae_model import (
    ArgumentKind,
    ArgumentNode,
    CaeTree,
    ClaimNode,
    EmptyCriteriaError,
    EvidenceKind,
    EvidenceNode,
    RuleError,
    Status,
    UnknownNodeError,
    Violation,
    assumptions_of,
    build_tree,
    check_well_formed,
    instantiate_template,
    node_status,
)
from conftest import cae_trees


def proof(node_id, text="demonstrated"):
    return EvidenceNode(node_id, EvidenceKind.PROOF, text)


def hypo(node_id, text="assumed"):
    return EvidenceNode(node_id, EvidenceKind.HYPOTHESIS, text)


def refused_rule(root, entries):
    """The rule that ``build_tree`` names when it refuses the tree."""
    with pytest.raises(RuleError) as caught:
        build_tree(root, entries)
    return caught.value.violation.rule


def minimal_decomposition():
    return build_tree(
        ClaimNode("C0", "root"),
        [
            ("C0", ArgumentNode("A0", ArgumentKind.DECOMPOSITION, "split")),
            ("A0", ClaimNode("C1", "left")),
            ("A0", ClaimNode("C2", "right")),
            ("C0", proof("P0")),
            ("C1", proof("P1")),
            ("C2", proof("P2")),
        ],
    )


class TestBuildTree:
    def test_minimal_decomposition_has_seven_nodes(self):
        tree = minimal_decomposition()
        assert len(tree.nodes) == 7
        assert set(tree.nodes) == {"C0", "A0", "C1", "C2", "P0", "P1", "P2"}

    def test_child_order_follows_insertion_order(self):
        tree = minimal_decomposition()
        assert tree.nodes["A0"].children == ("C1", "C2")

    def test_evidence_cannot_have_children(self):
        with pytest.raises(RuleError) as caught:
            build_tree(
                ClaimNode("C0", "root"),
                [("C0", proof("P0")), ("P0", ClaimNode("C1", "under a proof"))],
            )
        assert caught.value.violation == Violation("P0", "ChildRuleViolation", "evidence cannot have children")

    def test_claim_under_claim_is_rejected(self):
        assert refused_rule(ClaimNode("C0", "root"), [("C0", ClaimNode("C1", "nested"))]) == "ChildRuleViolation"

    def test_second_argument_under_one_claim_is_rejected(self):
        entries = [
            ("C0", ArgumentNode("A0", ArgumentKind.CONCRETIZATION, "first")),
            ("A0", ClaimNode("C1", "sub")),
            ("C0", ArgumentNode("A1", ArgumentKind.CONCRETIZATION, "second")),
        ]
        assert refused_rule(ClaimNode("C0", "root"), entries) == "MultipleArguments"

    def test_duplicate_id_rejected(self):
        entries = [("C0", proof("P0")), ("C0", proof("P0"))]
        assert refused_rule(ClaimNode("C0", "root"), entries) == "StructureRule"

    def test_unknown_parent_rejected(self):
        assert refused_rule(ClaimNode("C0", "root"), [("CX", proof("P0"))]) == "StructureRule"

    def test_self_parent_is_a_cycle(self):
        # the node is not in the tree yet, so its own id is an unknown parent
        assert refused_rule(ClaimNode("C0", "root"), [("P0", proof("P0"))]) == "StructureRule"

    def test_decomposition_needs_two_subclaims(self):
        entries = [
            ("C0", ArgumentNode("A0", ArgumentKind.DECOMPOSITION, "split")),
            ("A0", ClaimNode("C1", "only one")),
        ]
        assert refused_rule(ClaimNode("C0", "root"), entries) == "ArityViolation"

    @pytest.mark.parametrize(
        ("root", "entries", "rule"),
        [
            pytest.param(ClaimNode("C 0", "root"), [], "IdRule", id="space-in-root-id"),
            pytest.param(ClaimNode("C0\n", "root"), [], "IdRule", id="trailing-newline-root-id"),
            pytest.param(ClaimNode("C0", "root"), [("C0", proof("P0\n"))], "IdRule", id="trailing-newline-id"),
            pytest.param(
                ClaimNode("C0", "root"),
                [("C0", EvidenceNode("P0", EvidenceKind.PROOF, "x", digest="9f"))],
                "DigestRule",
                id="digest-without-reference",
            ),
            pytest.param(
                ClaimNode("C0", "root", side=True), [], "SideFlagViolation", id="flagged-claim-not-under-argument"
            ),
            pytest.param(proof("P0"), [], "RootRule", id="evidence-root"),
        ],
    )
    def test_rule_break_raises_its_error(self, root, entries, rule):
        assert refused_rule(root, entries) == rule

    def test_substitution_subtree_shape(self):
        # the ordering-service substitution pattern: a substituted claim plus
        # an assumption under the argument, developed by a decomposition
        tree = build_tree(
            ClaimNode("C2c.2", "ordering service delivers"),
            [
                ("C2c.2", ArgumentNode("A2c.2", ArgumentKind.SUBSTITUTION, "transpose to the engine")),
                ("A2c.2", ClaimNode("C2c.2s", "engine delivers")),
                ("C2c.2s", ArgumentNode("A2c.2s", ArgumentKind.DECOMPOSITION, "over the engine faults")),
                ("A2c.2s", ClaimNode("C2c.2s.1", "engine bugs eliminated")),
                ("C2c.2s.1", proof("P2c.2s.1")),
                ("A2c.2s", ClaimNode("C2c.2s.2", "design faults prevented")),
                ("C2c.2s.2", proof("P2c.2s.2")),
                ("A2c.2", hypo("H2c.2s'")),
            ],
        )
        assert check_well_formed(tree) == []
        assert node_status(tree, "C2c.2") is Status.ASSUMED


class TestCheckWellFormed:
    def test_corpus_trees_are_clean(self, corpus_trees):
        for name, tree in corpus_trees.items():
            assert check_well_formed(tree) == [], name

    def test_underfilled_decomposition_reports_arity(self):
        tree = CaeTree(
            root="C0",
            nodes={
                "C0": ClaimNode("C0", "root", ("A0",)),
                "A0": ArgumentNode("A0", ArgumentKind.DECOMPOSITION, "split", ("C1",)),
                "C1": ClaimNode("C1", "only one"),
            },
        )
        assert [v.rule for v in check_well_formed(tree)] == ["ArityViolation"]

    def test_side_flagged_root_reports_side_flag(self):
        tree = CaeTree(root="C0", nodes={"C0": ClaimNode("C0", "root", side=True)})
        assert "SideFlagViolation" in [v.rule for v in check_well_formed(tree)]

    def test_two_parents_reported(self):
        tree = CaeTree(
            root="C0",
            nodes={
                "C0": ClaimNode("C0", "root", ("A0",)),
                "A0": ArgumentNode("A0", ArgumentKind.CONCRETIZATION, "arg", ("C1", "C1")),
                "C1": ClaimNode("C1", "sub"),
            },
        )
        assert any(v.rule == "StructureRule" for v in check_well_formed(tree))

    def test_node_id_that_differs_from_its_key_reports_id_rule(self):
        tree = CaeTree(root="C0", nodes={"C0": ClaimNode("X", "root")})
        assert [(v.node_id, v.rule) for v in check_well_formed(tree)] == [("C0", "IdRule")]

    def test_build_tree_output_always_passes(self):
        assert check_well_formed(minimal_decomposition()) == []

    @pytest.mark.parametrize(
        ("root", "nodes", "found"),
        [
            pytest.param(
                "C9",
                {"C0": ClaimNode("C0", "root")},
                [("C9", "RootRule", "root id is not present in the node map")],
                id="missing-root",
            ),
            pytest.param(
                "C0",
                {"C0": ClaimNode("C0", "root", ("P9",))},
                [("C0", "StructureRule", "child 'P9' is not in the node map")],
                id="child-missing-from-the-map",
            ),
            pytest.param(
                "C0",
                {
                    "C0": ClaimNode("C0", "root", ("A0",)),
                    "A0": ArgumentNode("A0", ArgumentKind.SUBSTITUTION, "back to the root", ("C0",)),
                },
                [("C0", "StructureRule", "root node has a parent")],
                id="root-with-a-parent",
            ),
            pytest.param(
                "C0",
                {"C0": ClaimNode("C0", "root"), "P0": proof("P0")},
                [("P0", "StructureRule", "node is not reachable from the root")],
                id="unreachable-node",
            ),
        ],
    )
    def test_structure_findings(self, root, nodes, found):
        violations = check_well_formed(CaeTree(root=root, nodes=nodes))
        assert [(v.node_id, v.rule, v.message) for v in violations] == found


class TestNodeStatus:
    def test_proof_only_tree_is_supported(self):
        tree = minimal_decomposition()
        assert node_status(tree, tree.root) is Status.SUPPORTED

    def test_childless_claim_is_undeveloped(self):
        tree = build_tree(ClaimNode("C0", "root"), [])
        assert node_status(tree, "C0") is Status.UNDEVELOPED

    def test_hypothesis_caps_the_subtree_at_assumed(self, corpus_trees):
        tree = corpus_trees["fig6.cae"]
        assert node_status(tree, "C2c.2") is Status.ASSUMED
        # the developed substituted claim itself is fully demonstrated
        assert node_status(tree, "C2c.2s") is Status.SUPPORTED

    def test_risk_analysis_assumption_drives_the_endorser_claim(self, corpus_trees):
        # min rule applied by hand: the three proofs make the argument
        # SUPPORTED, the direct hypothesis drags the claim down to ASSUMED;
        # re-encoding that hypothesis as a proof lifts the claim.
        tree = corpus_trees["fig5.cae"]
        assert node_status(tree, "A1c.1") is Status.SUPPORTED
        assert node_status(tree, "C1c.1") is Status.ASSUMED

        lifted_nodes = dict(tree.nodes)
        lifted_nodes["H1c.1'"] = dataclasses.replace(tree.nodes["H1c.1'"], kind=EvidenceKind.PROOF)
        lifted = CaeTree(tree.root, lifted_nodes)
        assert node_status(lifted, "C1c.1") is Status.SUPPORTED

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            node_status(minimal_decomposition(), "nope")

    def test_status_ignores_disjoint_subtrees(self):
        tree = minimal_decomposition()
        # demote the right branch; the left branch keeps its verdict
        nodes = dict(tree.nodes)
        nodes["P2"] = dataclasses.replace(tree.nodes["P2"], kind=EvidenceKind.HYPOTHESIS)
        edited = CaeTree(tree.root, nodes)
        assert node_status(edited, "C1") == node_status(tree, "C1")
        assert node_status(edited, tree.root) is Status.ASSUMED


def _hypotheses_in_document_order(tree, start):
    # independent preorder walk used as the oracle
    out, stack = [], [start]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, EvidenceNode) and node.kind is EvidenceKind.HYPOTHESIS:
            out.append(nid)
        stack.extend(reversed(node.children))
    return out


class TestAssumptionsOf:
    def test_substitution_corpus_has_one_assumption(self, corpus_trees):
        tree = corpus_trees["fig6.cae"]
        assert assumptions_of(tree, tree.root) == ["H2c.2s'"]

    def test_proof_only_subtree_has_none(self):
        tree = minimal_decomposition()
        assert assumptions_of(tree, "C1") == []

    def test_matches_independent_preorder_walk(self, corpus_trees):
        for tree in corpus_trees.values():
            assert assumptions_of(tree, tree.root) == _hypotheses_in_document_order(tree, tree.root)

    def test_supported_root_implies_no_assumptions(self, corpus_trees):
        for tree in corpus_trees.values():
            for nid in tree.nodes:
                if node_status(tree, nid) is Status.SUPPORTED:
                    assert assumptions_of(tree, nid) == []


class TestTemplate:
    def test_three_functional_claims_with_liveness(self):
        tree = instantiate_template("demo", [f"V{i}" for i in range(1, 8)], ["reads agree"], True)
        functional = tree.nodes["A0"].children
        assert functional == ("C1", "C2", "C3")
        assert check_well_formed(tree) == []
        assert all(
            node_status(tree, leaf) is Status.UNDEVELOPED
            for leaf in tree.nodes
            if not tree.nodes[leaf].children
        )

    def test_liveness_flag_off_gives_two_claims(self):
        tree = instantiate_template("demo", ["v"], ["c"], False)
        assert tree.nodes["A0"].children == ("C1", "C2")

    def test_root_stays_undeveloped_until_placeholders_develop(self):
        tree = instantiate_template("demo", ["v"], ["c"], True)
        assert node_status(tree, "C0") is Status.UNDEVELOPED

    def test_empty_criteria_rejected(self):
        with pytest.raises(EmptyCriteriaError):
            instantiate_template("demo", [], ["c"], True)
        with pytest.raises(EmptyCriteriaError):
            instantiate_template("demo", ["v"], [], True)

    def test_criteria_become_placeholder_subclaims(self):
        tree = instantiate_template("demo", ["emitters are legit", "nonces are fresh"], ["c"], False)
        texts = [tree.nodes[c].text for c in tree.nodes["A1"].children]
        assert texts == ["emitters are legit", "nonces are fresh"]

    def test_template_survives_the_text_format(self):
        from blockcase.cae_dsl import parse, serialize

        tree = instantiate_template("demo", ["v1", "v2"], ["c1"], True)
        assert parse(serialize(tree)) == tree


@settings(max_examples=60, deadline=None)
@given(cae_trees())
def test_generated_trees_are_well_formed(tree):
    assert check_well_formed(tree) == []


@settings(max_examples=60, deadline=None)
@given(cae_trees())
def test_supported_nodes_carry_no_assumptions(tree):
    for nid in tree.nodes:
        if node_status(tree, nid) is Status.SUPPORTED:
            assert assumptions_of(tree, nid) == []


@settings(max_examples=60, deadline=None)
@given(cae_trees())
def test_promoting_a_hypothesis_never_demotes_any_node(tree):
    hyps = [
        nid
        for nid, node in tree.nodes.items()
        if isinstance(node, EvidenceNode) and node.kind is EvidenceKind.HYPOTHESIS
    ]
    before = {nid: node_status(tree, nid) for nid in tree.nodes}
    for hid in hyps:
        nodes = dict(tree.nodes)
        nodes[hid] = dataclasses.replace(tree.nodes[hid], kind=EvidenceKind.PROOF)
        promoted = CaeTree(tree.root, nodes)
        for nid, old in before.items():
            assert node_status(promoted, nid) >= old
