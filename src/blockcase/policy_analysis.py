"""Exact endorsement-policy tolerance analysis and Monte Carlo campaigns.

Exact analysis enumerates signer subsets (bounded at 20 identities, kept
fast with a vectorized truth table) to find minimal satisfying sets,
minimal blocking sets and the fraud/censorship tolerance of a policy. The
Monte Carlo campaign samples endorser fault assignments, replays each
distinct one once through the pipeline simulator, and reports feared-event
success rates with normal-approximation confidence intervals; equal inputs
always produce byte-equal reports.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__, eov_sim
from .determinism import CounterRng, canonical_json_bytes, sha256_hex
from .eov_sim.scenario import CENSORING, CRASHED, DOSED, FRAUDULENT, HONEST
from .policy import (  # the whole algebra, which callers may also import from here
    And,
    EndorsementPolicy,
    Or,
    OutOf,
    PolicyError,
    Sig,
    all_of,
    any_of,
    eval_policy,
    identities,
    out_of,
    parse_policy,
    policy_digest,
    serialize_policy,
)

MAX_IDENTITIES = 20

LABEL_MODES = frozenset({HONEST, FRAUDULENT, CENSORING, CRASHED})
FAULT_MODES = (CENSORING, CRASHED, DOSED, FRAUDULENT)  # draw order for campaigns


class TooManyIdentitiesError(PolicyError):
    """Exact analysis is bounded to keep subset enumeration tractable."""


class BadProbabilityError(ValueError):
    pass


class IoFailure(Exception):
    """Evidence report could not be written."""


def _bounded_identities(policy: EndorsementPolicy) -> list[str]:
    idents = sorted(identities(policy))
    if len(idents) > MAX_IDENTITIES:
        raise TooManyIdentitiesError(f"policy has {len(idents)} identities, the exact bound is {MAX_IDENTITIES}")
    return idents


def _sat_table(policy: EndorsementPolicy, idents: list[str]) -> np.ndarray:
    """Boolean satisfaction over every signer subset, indexed by bitmask."""
    index = {ident: i for i, ident in enumerate(idents)}
    masks = np.arange(1 << len(idents), dtype=np.uint32)

    def walk(node: EndorsementPolicy) -> np.ndarray:
        if isinstance(node, Sig):
            return ((masks >> index[node.identity]) & 1).astype(bool)
        tables = [walk(c) for c in node.children]
        if isinstance(node, And):
            out = tables[0].copy()
            for t in tables[1:]:
                out &= t
            return out
        if isinstance(node, Or):
            out = tables[0].copy()
            for t in tables[1:]:
                out |= t
            return out
        total = np.zeros(len(masks), dtype=np.int16)
        for t in tables:
            total += t
        return total >= node.k

    return walk(policy)


def _minimal_masks(good: np.ndarray, n: int) -> np.ndarray:
    """Masks in ``good`` none of whose one-smaller subsets are also good.

    Valid for monotone predicates, where local minimality equals inclusion
    minimality.
    """
    masks = np.arange(len(good), dtype=np.uint32)
    minimal = good.copy()
    for b in range(n):
        has_bit = ((masks >> b) & 1).astype(bool)
        minimal &= ~(has_bit & good[masks ^ np.uint32(1 << b)])
    return np.flatnonzero(minimal)


def _mask_to_set(mask: int, idents: list[str]) -> frozenset[str]:
    return frozenset(idents[b] for b in range(len(idents)) if mask >> b & 1)


def _canonical_sets(masks: np.ndarray, idents: list[str]) -> list[frozenset[str]]:
    sets = [_mask_to_set(int(m), idents) for m in masks]
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def min_satisfying_sets(policy: EndorsementPolicy) -> list[frozenset[str]]:
    """All inclusion-minimal signer sets that satisfy the policy."""
    idents = _bounded_identities(policy)
    sat = _sat_table(policy, idents)
    return _canonical_sets(_minimal_masks(sat, len(idents)), idents)


def min_blocking_sets(policy: EndorsementPolicy) -> list[frozenset[str]]:
    """All inclusion-minimal identity sets whose removal unsatisfies the policy."""
    idents = _bounded_identities(policy)
    n = len(idents)
    sat = _sat_table(policy, idents)
    masks = np.arange(1 << n, dtype=np.uint32)
    full = np.uint32((1 << n) - 1)
    blocking = ~sat[full ^ masks]
    return _canonical_sets(_minimal_masks(blocking, n), idents)


def _check_labeling(policy: EndorsementPolicy, labeling: Mapping[str, str]) -> None:
    idents = identities(policy)
    if set(labeling) != set(idents):
        raise PolicyError("labeling domain must equal the policy's identity set")
    bad = {m for m in labeling.values() if m not in LABEL_MODES}
    if bad:
        raise PolicyError(f"unknown labeling mode(s) {sorted(bad)}")


def fraud_possible(policy: EndorsementPolicy, labeling: Mapping[str, str]) -> bool:
    """Whether the fraudulent identities alone can satisfy the policy.

    Only fraudulent endorsers sign an invalid transaction, and the policy is
    monotone, so this reduces to evaluating it on the fraudulent set.
    """
    _bounded_identities(policy)
    _check_labeling(policy, labeling)
    return eval_policy(policy, {i for i, m in labeling.items() if m == FRAUDULENT})


def censorship_possible(policy: EndorsementPolicy, labeling: Mapping[str, str]) -> bool:
    """Whether the non-honest identities can block a valid transaction.

    Censoring, crashed and (worst case) fraudulent identities all withhold
    their signature from the targeted valid transaction, so the policy must
    be satisfiable from the responsive honest identities alone.
    """
    _bounded_identities(policy)
    _check_labeling(policy, labeling)
    return not eval_policy(policy, {i for i, m in labeling.items() if m == HONEST})


def fraud_tolerance(policy: EndorsementPolicy) -> int:
    """Largest f such that any f fraudulent endorsers cannot commit fraud."""
    return min(len(s) for s in min_satisfying_sets(policy)) - 1


def censorship_tolerance(policy: EndorsementPolicy) -> int:
    """Largest c such that removing any c endorsers keeps the policy satisfiable."""
    return min(len(s) for s in min_blocking_sets(policy)) - 1


def max_byzantine(n: int) -> int:
    """Largest b with b/n strictly below one third."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (n + 2) // 3 - 1


@dataclass(frozen=True, slots=True)
class CampaignReport:
    policy_digest: str
    config_digest: str
    seed: int
    n_runs: int
    fault_probabilities: dict[str, float]
    fraud_successes: int
    censorship_successes: int
    fraud_success_rate: float
    censorship_success_rate: float
    fraud_ci95_halfwidth: float
    censorship_ci95_halfwidth: float
    tool: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_dict())


def _ci95_halfwidth(rate: float, n: int) -> float:
    return 1.96 * math.sqrt(rate * (1.0 - rate) / n)


def _normalize_probabilities(fault_probabilities: Mapping[str, float]) -> dict[str, float]:
    probs = {mode: 0.0 for mode in FAULT_MODES}
    for mode, p in fault_probabilities.items():
        if mode not in probs:
            raise BadProbabilityError(f"unknown fault mode {mode!r}")
        if not 0.0 <= p <= 1.0:
            raise BadProbabilityError(f"probability for {mode!r} must lie in [0, 1]")
        probs[mode] = float(p)
    if sum(probs.values()) > 1.0 + 1e-12:
        raise BadProbabilityError("fault probabilities sum beyond 1")
    return probs


def draw_behavior_modes(
    endorsers: Sequence[str], probs: Mapping[str, float], seed: int, run_index: int
) -> dict[str, str]:
    """Independently draw one fault mode per endorser for a campaign run."""
    rng = CounterRng(seed, stream=run_index)
    modes: dict[str, str] = {}
    for endorser in endorsers:
        u = rng.uniform()
        accumulated = 0.0
        chosen = HONEST
        for mode in FAULT_MODES:
            accumulated += probs[mode]
            if u < accumulated:
                chosen = mode
                break
        modes[endorser] = chosen
    return modes


def monte_carlo_campaign(
    base_config,
    fault_probabilities: Mapping[str, float],
    n_runs: int,
    seed: int,
) -> CampaignReport:
    """Sample endorser fault assignments and replay them through the simulator.

    A run counts as a fraud success when it commits a transaction that is
    invalid against the ground truth, and as a censorship success when some
    ground-truth-valid transaction never reaches the ordering service
    (endorsement refusals or a policy shortfall). The simulator is a pure
    function of the configuration, so each distinct assignment is simulated
    once and its outcome counted for every run that drew it; the report is
    the same as replaying every run. Deterministic in
    (base_config, fault_probabilities, n_runs, seed).
    """
    if n_runs < 1:
        raise BadProbabilityError("n_runs must be at least 1")
    probs = _normalize_probabilities(fault_probabilities)
    eov_sim.validate_config(base_config)
    config_digest = eov_sim.scenario_digest(base_config)
    endorsers = sorted(base_config.msp_endorsers)
    valid_tx_ids = {p.tx_id for _, p in base_config.workload if p.op.ground_truth_valid}

    assignments = Counter(
        tuple(draw_behavior_modes(endorsers, probs, seed, run_index).values()) for run_index in range(n_runs)
    )
    fraud_hits = 0
    censorship_hits = 0
    for assignment, runs in assignments.items():
        behaviors = {
            endorser: eov_sim.behavior_from_mode(mode, horizon=base_config.horizon)
            for endorser, mode in zip(endorsers, assignment)
            if mode != HONEST
        }
        result = eov_sim.simulate(
            base_config.with_behaviors(behaviors), config_digest=config_digest, check=False
        )
        if result.report.feared_event_counts[eov_sim.FearedEvent.INVALID_ACCEPTED] > 0:
            fraud_hits += runs
        if valid_tx_ids - result.submitted_tx_ids:
            censorship_hits += runs

    fraud_rate = fraud_hits / n_runs
    censorship_rate = censorship_hits / n_runs
    return CampaignReport(
        policy_digest=policy_digest(base_config.policy),
        config_digest=config_digest,
        seed=seed,
        n_runs=n_runs,
        fault_probabilities=probs,
        fraud_successes=fraud_hits,
        censorship_successes=censorship_hits,
        fraud_success_rate=fraud_rate,
        censorship_success_rate=censorship_rate,
        fraud_ci95_halfwidth=_ci95_halfwidth(fraud_rate, n_runs),
        censorship_ci95_halfwidth=_ci95_halfwidth(censorship_rate, n_runs),
        tool=f"blockcase {__version__}",
    )


def emit_evidence_report(report: CampaignReport | Mapping, path: Path | str) -> tuple[int, str]:
    """Write a canonical evidence document; returns (bytes written, digest).

    Accepts a campaign report or any mapping of analysis results; either way
    the document is sorted-key JSON, so emitting equal content twice yields
    identical bytes and an identical digest.
    """
    data = report.to_dict() if isinstance(report, CampaignReport) else dict(report)
    payload = canonical_json_bytes(data)
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write evidence report to {path}: {exc}") from exc
    return len(payload), sha256_hex(payload)
