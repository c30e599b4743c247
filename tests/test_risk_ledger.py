from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcase import corpus_text
from blockcase.cae_model import ClaimNode, EvidenceKind, EvidenceNode, build_tree
from blockcase.linefmt import ParseFailure
from blockcase.risk_ledger import (
    ACCEPTED_AS_IS,
    COVERED,
    DANGLING,
    FearedEvent,
    Mitigation,
    MitigationCategory,
    Risk,
    RiskRegistry,
    UNCOVERED,
    coverage_check,
    parse_registry,
    serialize_registry,
)
from conftest import node_texts


def registry_errors(text):
    with pytest.raises(ParseFailure) as exc_info:
        parse_registry(text)
    return exc_info.value.errors


def make_risk(risk_id, mitigations=(), accept=None):
    return Risk(
        id=risk_id,
        description="something goes wrong",
        feared_events=frozenset({FearedEvent.VALID_REJECTED}),
        criticality="Medium",
        likelihood="Possible",
        mitigations=tuple(mitigations),
        accepted_as_is=accept,
    )


class TestParseRegistry:
    def test_endorser_corpus_has_six_risks_in_order(self, endorser_registry):
        assert [risk.id for risk in endorser_registry] == ["R1", "R2", "R3", "R4", "R5", "R6"]
        assert endorser_registry.risks[2].description == "Crashes of endorser peers"
        assert endorser_registry.risks[4].feared_events == frozenset({FearedEvent.INVALID_ACCEPTED})

    def test_lf_crlf_cr_and_no_final_line_end_read_alike(self, endorser_registry):
        text = corpus_text("endorser_risks.risk")
        copies = [text, text.replace("\n", "\r\n"), text.replace("\n", "\r"), text.rstrip("\n")]
        assert len(set(copies)) == 4
        assert [parse_registry(copy) for copy in copies] == [endorser_registry] * 4

    def test_empty_file_is_an_empty_registry(self):
        assert len(parse_registry("")) == 0

    def test_duplicate_risk_ids_rejected(self):
        text = (
            'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            'risk R1 "b" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
        )
        assert [e.code for e in registry_errors(text)] == ["DuplicateId"]

    def test_bad_category(self):
        text = (
            'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            '  mitigation shrugging evidence="P1"\n'
        )
        assert registry_errors(text)[0].code == "BadCategory"

    @pytest.mark.parametrize(
        ("lines", "error"),
        [
            pytest.param(
                'risk R1 "a" criticality="Dire" events="ValidRejected" likelihood="Rare"\n',
                (1, "BadAttribute", "criticality must be one of ('Low', 'Medium', 'High')"),
                id="bad-criticality",
            ),
            pytest.param(
                'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Daily"\n',
                (1, "BadAttribute", "likelihood must be one of ('Rare', 'Possible', 'Frequent')"),
                id="bad-likelihood",
            ),
            pytest.param(
                'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
                '  mitigation evidence="P1"\n',
                (2, "BadCategory", "mitigation line needs a category token"),
                id="mitigation-without-a-category",
            ),
        ],
    )
    def test_each_refusal_names_its_line(self, lines, error):
        assert [(e.span.line, e.code, e.message) for e in registry_errors(lines)] == [error]

    @pytest.mark.parametrize(
        ("top", "error"),
        [
            pytest.param('risk R2 "b', (3, "UnterminatedString"), id="line-that-fails-to-lex"),
            pytest.param('riskk R2 "b" criticality="Low" events="ValidRejected" likelihood="Rare"', (3, "BadKind"),
                         id="line-that-is-not-a-risk"),
        ],
    )
    def test_the_children_of_a_bad_top_level_line_are_skipped(self, top, error):
        # they belong to the bad line, not to the risk above it
        text = (
            'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            '  accept "argued acceptable"\n'
            f"{top}\n"
            '  accept "charged to nobody"\n'
            '  mitigation tolerance evidence="P2"\n'
            '    accept "too deep, under the bad line"\n'
        )
        assert [(e.span.line, e.code) for e in registry_errors(text)] == [error]

    def test_a_too_deep_line_is_reported_once_and_the_lines_under_it_are_skipped(self):
        text = (
            'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            '  mitigation tolerance evidence="P1"\n'
            '    accept "level 2"\n'
            '      accept "level 3"\n'
            '        bogus "level 4"\n'
            '  accept "back under the risk"\n'
            '    accept "too deep again"\n'
        )
        assert [(e.span.line, e.code) for e in registry_errors(text)] == [
            (3, "ChildRuleViolation"), (7, "ChildRuleViolation")
        ]

    def test_bad_feared_event(self):
        text = 'risk R1 "a" criticality="Low" events="Meteor" likelihood="Rare"\n'
        assert registry_errors(text)[0].code == "BadFearedEvent"

    def test_missing_attributes(self):
        assert registry_errors('risk R1 "a" events="ValidRejected"\n')[0].code == "BadAttribute"

    def test_a_mitigation_line_with_a_quoted_text_is_refused(self):
        # the line has the node shape, so this checks the atoms the registry reads from it
        text = (
            'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            '  mitigation prevention "x"\n'
        )
        assert [(e.span.line, e.span.column, e.code, e.message) for e in registry_errors(text)] == [
            (2, 3, "BadAttribute", "mitigation takes exactly one evidence attribute")
        ]

    def test_evidence_id_with_an_escaped_newline_rejected(self):
        text = (
            'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            '  mitigation tolerance evidence="P1\\n"\n'
        )
        assert [e.code for e in registry_errors(text)] == ["BadAttribute"]

    def test_nested_too_deep(self):
        text = (
            'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            '  mitigation tolerance evidence="P1"\n'
            '    accept "too deep"\n'
        )
        assert registry_errors(text)[0].code == "ChildRuleViolation"

    @pytest.mark.parametrize(
        ("line", "error"),
        [
            ('risk "a"', (1, "BadKind", "risk line needs a node id")),
            ('risk R/1 "a"', (6, "BadKind", "invalid node id 'R/1'")),
            ("risk R1 a", (1, "BadKind", "risk R1 needs a quoted text")),
            ('risk R1 "a" RISK', (13, "BadKind", "unexpected trailing content after the node text")),
            ('risk R1 "a" owner="me"', (13, "BadAttribute", "attribute 'owner' is not allowed on risk")),
            ('risk R1 "a" likelihood="Rare"', (72, "BadAttribute", "attribute 'likelihood' appears twice")),
        ],
    )
    def test_risk_lines_share_the_node_line_errors(self, line, error):
        text = f'{line} criticality="Low" events="ValidRejected" likelihood="Rare"\n'
        assert [(e.span.column, e.code, e.message) for e in registry_errors(text)] == [error]

    def test_each_missing_attribute_is_reported_after_a_bad_one(self):
        errors = registry_errors('risk R1 "a" owner="me"\n')
        assert [(e.span.column, e.code) for e in errors] == [(13, "BadAttribute")] + [(1, "BadAttribute")] * 3
        assert errors[-1].message == "risk R1 is missing the likelihood attribute"

    def test_accept_line(self):
        text = (
            'risk R1 "a" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            '  accept "residual risk argued acceptable"\n'
        )
        registry = parse_registry(text)
        assert registry.risks[0].accepted_as_is == "residual risk argued acceptable"


class TestSerializeRegistry:
    def test_corpus_is_a_canonical_fixpoint(self):
        text = corpus_text("endorser_risks.risk")
        assert serialize_registry(parse_registry(text)) == text

    def test_round_trip_preserves_content(self):
        registry = RiskRegistry(
            (
                make_risk("R1", [Mitigation(MitigationCategory.TOLERANCE, "P9")]),
                make_risk("R2", accept="cheap to retry"),
            )
        )
        assert parse_registry(serialize_registry(registry)) == registry

    def test_events_serialized_in_sorted_order(self):
        risk = Risk(
            id="R1",
            description="d",
            feared_events=frozenset({FearedEvent.VALID_REJECTED, FearedEvent.INVALID_ACCEPTED}),
            criticality="Low",
            likelihood="Rare",
        )
        line = serialize_registry(RiskRegistry((risk,))).splitlines()[0]
        assert 'events="InvalidAccepted,ValidRejected"' in line


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(node_texts, st.none() | node_texts), max_size=4))
def test_registry_round_trip_keeps_any_text(rows):
    registry = RiskRegistry(
        tuple(
            dataclasses.replace(make_risk(f"R{i}", accept=accept), description=description)
            for i, (description, accept) in enumerate(rows)
        )
    )
    assert parse_registry(serialize_registry(registry)) == registry


class TestCoverage:
    def test_corpus_registry_fully_covered_by_endorser_tree(self, endorser_registry, corpus_trees):
        report = coverage_check(endorser_registry, corpus_trees["fig5.cae"])
        assert [entry.bucket for entry in report.entries] == [COVERED] * 6
        assert report.clean

    def test_missing_evidence_is_dangling(self, corpus_trees):
        registry = RiskRegistry((make_risk("R1", [Mitigation(MitigationCategory.TOLERANCE, "P404")]),))
        report = coverage_check(registry, corpus_trees["fig5.cae"])
        assert report.entries[0].bucket == DANGLING
        assert report.entries[0].missing == ("P404",)

    def test_acceptance_without_mitigations(self, corpus_trees):
        registry = RiskRegistry((make_risk("R1", accept="tolerable"),))
        assert coverage_check(registry, corpus_trees["fig5.cae"]).entries[0].bucket == ACCEPTED_AS_IS

    def test_nothing_at_all_is_uncovered(self, corpus_trees):
        registry = RiskRegistry((make_risk("R1"),))
        assert coverage_check(registry, corpus_trees["fig5.cae"]).entries[0].bucket == UNCOVERED

    def test_evidence_buckets_take_precedence_over_acceptance(self, corpus_trees):
        registry = RiskRegistry(
            (
                make_risk("R1", [Mitigation(MitigationCategory.TOLERANCE, "P1c.1.3")], accept="also fine"),
                make_risk("R2", [Mitigation(MitigationCategory.TOLERANCE, "P404")], accept="also fine"),
            )
        )
        report = coverage_check(registry, corpus_trees["fig5.cae"])
        assert [entry.bucket for entry in report.entries] == [COVERED, DANGLING]

    def test_every_risk_lands_in_exactly_one_bucket(self, endorser_registry, corpus_trees):
        mixed = RiskRegistry(
            endorser_registry.risks
            + (
                make_risk("R7"),
                make_risk("R8", accept="fine"),
                make_risk("R9", [Mitigation(MitigationCategory.FORECASTING, "P404")]),
            )
        )
        report = coverage_check(mixed, corpus_trees["fig5.cae"])
        assert len(report.entries) == len(mixed)
        assert sum(report.counts.values()) == len(mixed)

    def test_adding_evidence_never_uncovers(self, endorser_registry, corpus_trees):
        tree = corpus_trees["fig5.cae"]
        before = coverage_check(endorser_registry, tree)
        grown = build_tree(
            ClaimNode("C0", "root"),
            [("C0", EvidenceNode(nid, EvidenceKind.PROOF, "p")) for nid in ("P1c.1.1", "P1c.1.2", "P1c.1.3", "PX")],
        )
        after = coverage_check(endorser_registry, grown)
        for entry_before, entry_after in zip(before.entries, after.entries):
            if entry_before.bucket == COVERED:
                assert entry_after.bucket == COVERED
