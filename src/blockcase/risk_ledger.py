"""Risk registry: feared events, fault classes, mitigations and coverage.

The registry is a flat document in the tree format's line grammar: a
``risk`` is a node line, with ``mitigation`` and ``accept`` lines under it::

    risk R3 "Crashes of endorser peers" criticality="Medium" events="ValidRejected" likelihood="Possible"
      mitigation tolerance evidence="P1c.1.3"

Every risk must either cite mitigation evidence that resolves inside an
assurance tree or carry an explicit acceptability justification; the
coverage check reports which of the two holds (or fails) for each risk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cae_model import CaeTree, EvidenceNode
from .linefmt import ID_PATTERN, Attr, LexedLine, ParseError, ParseFailure, QString, Token, lex, quote, read_node_line


class FearedEvent(enum.Enum):
    INVALID_ACCEPTED = "InvalidAccepted"
    VALID_REJECTED = "ValidRejected"
    INCONSISTENT_READ = "InconsistentRead"


class MitigationCategory(enum.Enum):
    PREVENTION = "prevention"
    ELIMINATION = "elimination"
    TOLERANCE = "tolerance"
    FORECASTING = "forecasting"


CRITICALITY_LEVELS = ("Low", "Medium", "High")
LIKELIHOOD_LEVELS = ("Rare", "Possible", "Frequent")

_EVENT_BY_NAME = {e.value: e for e in FearedEvent}
_CATEGORY_BY_NAME = {c.value: c for c in MitigationCategory}


@dataclass(frozen=True, slots=True)
class Mitigation:
    category: MitigationCategory
    evidence_id: str


@dataclass(frozen=True, slots=True)
class Risk:
    id: str
    description: str
    feared_events: frozenset[FearedEvent]
    criticality: str
    likelihood: str
    mitigations: tuple[Mitigation, ...] = ()
    accepted_as_is: str | None = None


@dataclass(frozen=True, slots=True)
class RiskRegistry:
    risks: tuple[Risk, ...] = ()

    def __iter__(self):
        return iter(self.risks)

    def __len__(self) -> int:
        return len(self.risks)


_RISK_ATTRS = ("criticality", "events", "likelihood")


def _read_risk_line(line: LexedLine, errors: list[ParseError]) -> tuple[str, str, frozenset, str, str] | None:
    shape = read_node_line(line, _RISK_ATTRS, errors, required=_RISK_ATTRS)
    if shape is None:
        return None
    risk_id, description, attrs = shape
    span = line.span
    events: set[FearedEvent] = set()
    for name in attrs["events"].split(","):
        event = _EVENT_BY_NAME.get(name.strip())
        if event is None:
            errors.append(ParseError(span, "BadFearedEvent", f"unknown feared event {name.strip()!r}"))
            return None
        events.add(event)
    for key, levels in (("criticality", CRITICALITY_LEVELS), ("likelihood", LIKELIHOOD_LEVELS)):
        if attrs[key] not in levels:
            errors.append(ParseError(span, "BadAttribute", f"{key} must be one of {levels}"))
            return None
    return risk_id, description, frozenset(events), attrs["criticality"], attrs["likelihood"]


def parse_registry(text: str) -> RiskRegistry:
    """Parse a registry document, preserving risk order; raises ParseFailure. Each risk is built once."""
    lines, errors = lex(text)

    risks: dict[str, list] = {}  # risk id -> [risk line fields, mitigations, accept justification or None]
    current: list | None = None  # the entry of ``risks`` that the child lines below it add to
    skip_under: int | None = None  # the level of a bad or misplaced line: the lines nested under it are skipped
    for line in lines:
        if skip_under is not None and line.level > skip_under:
            continue
        skip_under = None
        if line.level == 0:
            current, skip_under = None, 0  # until the line reads as a new risk
            if line.kind is None:  # failed to lex, already reported
                continue
            if line.kind != "risk":
                errors.append(ParseError(line.span, "BadKind", "top-level lines must be risks"))
                continue
            fields = _read_risk_line(line, errors)
            if fields is None:
                continue
            if fields[0] in risks:
                errors.append(ParseError(line.span, "DuplicateId", f"duplicate risk id {fields[0]!r}"))
                continue
            current = risks[fields[0]] = [fields, [], None]
            skip_under = None
            continue

        if line.kind is None:  # failed to lex, already reported
            skip_under = line.level
            continue
        if line.level != 1 or current is None:
            errors.append(ParseError(line.span, "ChildRuleViolation", "mitigation and accept lines sit under a risk"))
            skip_under = line.level
            continue
        rest = line.atoms[1:]
        if line.kind == "mitigation":
            if not rest or not isinstance(rest[0], Token):
                problem = "BadCategory", "mitigation line needs a category token"
            elif (category := _CATEGORY_BY_NAME.get(rest[0].text)) is None:
                problem = "BadCategory", f"unknown mitigation category {rest[0].text!r}"
            elif len(rest) != 2 or not isinstance(rest[1], Attr) or rest[1].key != "evidence":
                problem = "BadAttribute", "mitigation takes exactly one evidence attribute"
            elif not ID_PATTERN.match(rest[1].value):
                problem = "BadAttribute", f"invalid evidence id {rest[1].value!r}"
            else:
                current[1].append(Mitigation(category, rest[1].value))
                continue
        elif line.kind == "accept":
            if len(rest) != 1 or not isinstance(rest[0], QString):
                problem = "BadKind", "accept line carries a single quoted justification"
            elif current[2] is not None:
                problem = "ChildRuleViolation", "a risk carries at most one accept line"
            else:
                current[2] = rest[0].text
                continue
        else:
            problem = "BadKind", f"unknown kind {line.kind!r} under a risk"
        errors.append(ParseError(line.span, *problem))

    if errors:
        raise ParseFailure(errors)
    return RiskRegistry(tuple([Risk(*fields, tuple(cited), accepted) for fields, cited, accepted in risks.values()]))


def serialize_registry(registry: RiskRegistry) -> str:
    """Canonical registry text; a fixpoint of parse followed by serialize."""
    out: list[str] = []
    for risk in registry:
        events = ",".join(sorted(e.value for e in risk.feared_events))
        out.append(
            f"risk {risk.id} {quote(risk.description)}"
            f' criticality={quote(risk.criticality)} events={quote(events)} likelihood={quote(risk.likelihood)}\n'
        )
        for mitigation in risk.mitigations:
            out.append(f"  mitigation {mitigation.category.value} evidence={quote(mitigation.evidence_id)}\n")
        if risk.accepted_as_is is not None:
            out.append(f"  accept {quote(risk.accepted_as_is)}\n")
    return "".join(out)


COVERED = "Covered"
ACCEPTED_AS_IS = "AcceptedAsIs"
UNCOVERED = "Uncovered"
DANGLING = "Dangling"
_BUCKETS = (COVERED, ACCEPTED_AS_IS, UNCOVERED, DANGLING)


@dataclass(frozen=True, slots=True)
class CoverageEntry:
    risk_id: str
    bucket: str
    missing: tuple[str, ...] = ()  # evidence ids absent from the tree, for Dangling


@dataclass(frozen=True, slots=True)
class CoverageReport:
    entries: tuple[CoverageEntry, ...]
    counts: dict[str, int]

    @property
    def clean(self) -> bool:
        return self.counts[UNCOVERED] == 0 and self.counts[DANGLING] == 0


def coverage_check(registry: RiskRegistry, tree: CaeTree) -> CoverageReport:
    """Place every risk in exactly one bucket, in registry order.

    Covered: every cited evidence id resolves to an evidence node in the
    tree. Dangling: some cited id does not. AcceptedAsIs: no mitigations but
    an explicit justification. Uncovered: neither mitigations nor acceptance.
    """
    entries: list[CoverageEntry] = []
    counts = {bucket: 0 for bucket in _BUCKETS}
    for risk in registry:
        if risk.mitigations:
            missing = tuple(
                m.evidence_id
                for m in risk.mitigations
                if not isinstance(tree.nodes.get(m.evidence_id), EvidenceNode)
            )
            bucket = DANGLING if missing else COVERED
            entries.append(CoverageEntry(risk.id, bucket, missing))
        elif risk.accepted_as_is is not None:
            entries.append(CoverageEntry(risk.id, ACCEPTED_AS_IS))
        else:
            entries.append(CoverageEntry(risk.id, UNCOVERED))
        counts[entries[-1].bucket] += 1
    return CoverageReport(tuple(entries), counts)
