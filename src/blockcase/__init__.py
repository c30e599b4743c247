"""Assurance cases for blockchain applications.

Builds and checks claim-argument-evidence trees, keeps a risk registry
tied to the evidence those trees cite, and produces that evidence with a
deterministic execute-order-validate pipeline simulator and an exact
endorsement-policy analyzer.
"""

__version__ = "0.1.0"

from .cae_model import (
    ArgumentKind,
    ArgumentNode,
    CaeTree,
    ClaimNode,
    EvidenceKind,
    EvidenceNode,
    Status,
    assumptions_of,
    build_tree,
    check_well_formed,
    instantiate_template,
    node_status,
)
from .cae_dsl import link_evidence, parse, serialize, to_dot, verify_links
from .corpus import corpus_path, corpus_text
from .linefmt import ParseError, ParseFailure, SourceSpan
from .policy_analysis import (
    And,
    CampaignReport,
    EndorsementPolicy,
    Or,
    OutOf,
    Sig,
    all_of,
    any_of,
    censorship_possible,
    censorship_tolerance,
    emit_evidence_report,
    eval_policy,
    fraud_possible,
    fraud_tolerance,
    max_byzantine,
    min_blocking_sets,
    min_satisfying_sets,
    monte_carlo_campaign,
    out_of,
    parse_policy,
    policy_digest,
    serialize_policy,
)
from .risk_ledger import (
    CoverageReport,
    FearedEvent,
    MitigationCategory,
    Risk,
    RiskRegistry,
    coverage_check,
    parse_registry,
    serialize_registry,
)
