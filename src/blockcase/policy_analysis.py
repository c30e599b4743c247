"""Exact endorsement-policy tolerance analysis and Monte Carlo campaigns.

Exact analysis enumerates signer subsets (bounded at 20 identities, kept
fast with truth tables held as integer bitsets) to find minimal satisfying sets,
minimal blocking sets and the fraud/censorship tolerance of a policy. The
Monte Carlo campaign samples endorser fault assignments and reports
feared-event success rates with normal-approximation confidence intervals.
A run whose answering endorsers fail the policy submits nothing, so its
outcome is stated; any other run's is fixed by the policy's verdict on its
fraudulent endorsers, and one assignment per verdict (every endorser honest
or fraudulent) runs through the simulator's ordering/commit stage: at most
two simulations per campaign. Peer replay is skipped, because neither
outcome bit reads a peer state. Equal inputs give byte-equal reports.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import compress
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__, eov_sim
from .determinism import MASK64, CounterRng, canonical_json_bytes, placed_rows, sha256_hex, uniform_bounds
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
    verdicts_of,
)

MAX_IDENTITIES = 20

LABEL_MODES = frozenset({HONEST, FRAUDULENT, CENSORING, CRASHED})
FAULT_MODES = (CENSORING, CRASHED, DOSED, FRAUDULENT)  # draw order for campaigns


class TooManyIdentitiesError(PolicyError):
    """Exact analysis is bounded to keep subset enumeration tractable."""


class BadProbabilityError(ValueError):
    """A campaign input is out of range; ``argument`` names the parameter of
    ``monte_carlo_campaign`` it came in: the probabilities, the run count or the seed."""

    def __init__(self, argument: str, message: str) -> None:
        super().__init__(message)
        self.argument = argument


class IoFailure(Exception):
    """Evidence report could not be written."""


def _bounded_identities(policy: EndorsementPolicy) -> list[str]:
    idents = sorted(identities(policy))
    if len(idents) > MAX_IDENTITIES:
        raise TooManyIdentitiesError(f"policy has {len(idents)} identities, the exact bound is {MAX_IDENTITIES}")
    return idents


def _holders(i: int, n: int) -> int:
    """Bitset of the masks over ``n`` identities that contain identity ``i``."""
    width = 1 << i
    t = ((1 << width) - 1) << width  # 2^i ones above 2^i zeros
    width <<= 1
    while width < 1 << n:
        t |= t << width
        width <<= 1
    return t


def _sat_table(policy: EndorsementPolicy, idents: list[str]) -> int:
    """Satisfaction over every signer subset: bit ``m`` is set when mask ``m`` satisfies."""
    index = {ident: i for i, ident in enumerate(idents)}

    def walk(node: EndorsementPolicy) -> int:
        if isinstance(node, Sig):
            return _holders(index[node.identity], len(idents))
        tables = [walk(c) for c in node.children]
        if isinstance(node, And):
            return functools.reduce(operator.and_, tables)
        if isinstance(node, Or):
            return functools.reduce(operator.or_, tables)
        at_least = [-1] + [0] * node.k  # at_least[j]: masks where at least j children hold
        for t in tables:
            for j in range(node.k, 0, -1):
                at_least[j] |= at_least[j - 1] & t
        return at_least[node.k]

    return walk(policy)


def _minimal_masks(policy: EndorsementPolicy, *, blocking: bool) -> tuple[list[int], list[str]]:
    """Inclusion-minimal satisfying (or blocking) signer masks, and the identities they index.

    A mask is minimal when none of its one-smaller subsets is also good;
    for monotone predicates that equals inclusion minimality. Identity ``i``
    is bit ``n-1-i``.
    """
    idents = _bounded_identities(policy)
    n = len(idents)
    good = _sat_table(policy, idents[::-1])
    if blocking:  # m blocks when full ^ m does not satisfy: the table read backwards, negated
        good = ~int(format(good, f"0{1 << n}b")[::-1], 2) & ((1 << (1 << n)) - 1)
    minimal = good
    for b in range(n):
        minimal &= ~(_holders(b, n) & (good << (1 << b)))
    return [m for m, bit in enumerate(format(minimal, "b")[::-1]) if bit == "1"], idents


def minimal_sets(policy: EndorsementPolicy, *, blocking: bool = False) -> list[tuple[str, ...]]:
    """Inclusion-minimal satisfying (or blocking) sets as sorted name tuples, smallest first, then by name."""
    masks, idents = _minimal_masks(policy, blocking=blocking)
    width = f"0{len(idents)}b"  # the first identity is the highest bit
    ordered = sorted(masks, key=lambda m: (m.bit_count(), -m))  # of one size, a larger mask lists smaller names
    return [tuple(ident for ident, bit in zip(idents, format(m, width)) if bit == "1") for m in ordered]


def min_satisfying_sets(policy: EndorsementPolicy) -> list[frozenset[str]]:
    """All inclusion-minimal signer sets that satisfy the policy."""
    return [frozenset(names) for names in minimal_sets(policy)]


def min_blocking_sets(policy: EndorsementPolicy) -> list[frozenset[str]]:
    """All inclusion-minimal identity sets whose removal unsatisfies the policy."""
    return [frozenset(names) for names in minimal_sets(policy, blocking=True)]


def _labeled(policy: EndorsementPolicy, labeling: Mapping[str, str], mode: str) -> set[str]:
    """The identities ``labeling`` gives ``mode``, once the labeling is checked against the policy."""
    if set(labeling) != set(_bounded_identities(policy)):
        raise PolicyError("labeling domain must equal the policy's identity set")
    bad = {m for m in labeling.values() if m not in LABEL_MODES}
    if bad:
        raise PolicyError(f"unknown labeling mode(s) {sorted(bad)}")
    return {i for i, m in labeling.items() if m == mode}


def fraud_possible(policy: EndorsementPolicy, labeling: Mapping[str, str]) -> bool:
    """Whether the fraudulent identities alone can satisfy the policy.

    Only fraudulent endorsers sign an invalid transaction, and the policy is
    monotone, so this reduces to evaluating it on the fraudulent set.
    """
    return eval_policy(policy, _labeled(policy, labeling, FRAUDULENT))


def censorship_possible(policy: EndorsementPolicy, labeling: Mapping[str, str]) -> bool:
    """Whether the non-honest identities can block a valid transaction.

    Censoring, crashed and (worst case) fraudulent identities all withhold
    their signature from the targeted valid transaction, so the policy must
    be satisfiable from the responsive honest identities alone.
    """
    return not eval_policy(policy, _labeled(policy, labeling, HONEST))


def fraud_tolerance(policy: EndorsementPolicy) -> int:
    """Largest f such that any f fraudulent endorsers cannot commit fraud."""
    return min(m.bit_count() for m in _minimal_masks(policy, blocking=False)[0]) - 1


def censorship_tolerance(policy: EndorsementPolicy) -> int:
    """Largest c such that removing any c endorsers keeps the policy satisfiable."""
    return min(m.bit_count() for m in _minimal_masks(policy, blocking=True)[0]) - 1


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
            raise BadProbabilityError("fault_probabilities", f"unknown fault mode {mode!r}")
        if not 0.0 <= p <= 1.0:
            raise BadProbabilityError("fault_probabilities", f"probability for {mode!r} must lie in [0, 1]")
        probs[mode] = float(p) + 0.0  # -0.0 becomes 0.0, so the report has one byte form
    if sum(probs.values()) > 1.0 + 1e-12:
        raise BadProbabilityError("fault_probabilities", "fault probabilities sum beyond 1")
    return probs


def draw_behavior_modes(
    endorsers: Sequence[str], probs: Mapping[str, float], seed: int, run_index: int
) -> dict[str, str]:
    """Independently draw one fault mode per endorser for a campaign run.

    ``monte_carlo_campaign`` draws the same modes in one batched pass; this
    run-at-a-time form is the reference the tests hold it to.
    """
    rng = CounterRng(seed, stream=run_index)
    modes: dict[str, str] = {}
    for endorser in endorsers:
        x = rng.u64()
        accumulated = 0.0
        chosen = HONEST
        for mode in FAULT_MODES:
            accumulated += probs[mode]
            if x < accumulated * 2.0**64:
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
    (endorsement refusals or a policy shortfall). Both bits are read from
    the canonical commit log and the submitted ids, so a run goes through
    the simulator's ordering/commit stage (``eov_sim.run_pipeline``) only;
    no peer replays its blocks. The draws replace the base's
    ``endorser_behaviors``: every run draws each MSP endorser's mode afresh.

    The draws are ``draw_behavior_modes``'s, taken in one pass over the
    runs. Its thresholds after the silent modes and after fraudulent are
    summed here by the same float additions in the same order, and
    ``placed_rows`` places each draw's digest among their ``uniform_bounds``
    by its exact rule: draw ``x`` lies below ``t`` when ``x < t * 2.0**64``.
    A place is 0 for a silent mode (censoring, crashed or dosed), 1 for
    fraudulent and 2 for honest.

    Each run has two endorser sets: A, the answering ones (honest or
    fraudulent), and F, the fraudulent ones. A run whose A fails the policy
    is silenced: it counts no fraud, and censorship exactly when the base
    has a ground-truth-valid proposal. The other runs are grouped by the
    verdict on F, each group simulated once for all its runs. That equals
    simulating every run as drawn:
    - a silent endorser adds no ``Endorsement``: a crashed one and a DoS
      over the whole horizon (``dosed(0, horizon)``, within which
      ``run_pipeline`` steps) never reach ``endorse``, and a censoring
      answer is a refusal, a ``RefusalRecord`` that neither bit reads;
    - for each proposal the endorsing set is A when execution succeeds, F
      when it fails (honest endorsers refuse with V2), and empty when the
      emitter is unregistered or the nonce replayed (V1, V3), since the
      state, seen nonces and emitters are one for all of a proposal's
      endorsers;
    - every endorsement carries the same read/write set: ``claimed_effects``
      equals ``execute_chaincode`` whenever execution succeeds, both going
      through ``_transfer_effects``;
    - policies are monotone and never satisfied by the empty set, so when A
      fails nothing is ever submitted, whatever F's verdict; otherwise
      whether a proposal is submitted reads only the verdict on its
      endorsing set;
    - at validation V4 repeats that verdict, V5 always passes, V6 finds the
      read/write sets equal, and only then is endorser order read, by
      taking ``endorsements[0]``'s writes.
    So a silenced run submits nothing, ``committed`` and ``submitted_tx_ids``
    are equal across a group, and there are at most two groups: F fails, F
    holds. Each distinct place tuple is classed once, for all the runs that
    drew it; F, a subset of A, is asked about only when A holds. A group is
    simulated with every endorser honest when F fails, fraudulent when F
    holds, each in its group: the policy names only MSP endorsers, so all
    of them satisfy it, and the empty set satisfies none.
    Deterministic in (base_config, fault_probabilities, n_runs, seed).
    """
    if n_runs < 1:
        raise BadProbabilityError("n_runs", "run count must be at least 1")
    probs = _normalize_probabilities(fault_probabilities)
    if not 0 <= seed <= MASK64:
        raise BadProbabilityError("seed", "seed must be an unsigned 64-bit integer")
    config_digest = eov_sim.scenario_digest(base_config)
    endorsers = sorted(base_config.msp_endorsers)
    proposals = base_config.proposals()
    valid_tx_ids = {p.tx_id for p in proposals if p.op.ground_truth_valid}

    silent = probs[CENSORING] + probs[CRASHED] + probs[DOSED]
    bounds = uniform_bounds([silent, silent + probs[FRAUDULENT]])
    drawn = Counter(map(tuple, placed_rows(seed, range(n_runs), len(endorsers), bounds)))

    holds = verdicts_of(base_config.policy)
    runs_in: Counter[str] = Counter()  # keyed by the mode a class is simulated in; silenced runs are in none
    for places, runs in drawn.items():  # place 0 is silent, 1 fraudulent, 2 honest
        if holds(frozenset(compress(endorsers, places))):  # else the run is silenced
            fraudulent = frozenset(compress(endorsers, map((1).__eq__, places)))
            runs_in[FRAUDULENT if holds(fraudulent) else HONEST] += runs

    fraud_hits = 0
    censorship_hits = n_runs - runs_in.total() if valid_tx_ids else 0  # a silenced run submits nothing
    for mode, runs in runs_in.items():
        behaviors = dict.fromkeys(endorsers, eov_sim.EndorserBehavior(mode))
        run = eov_sim.run_pipeline(base_config.with_behaviors(behaviors))
        if eov_sim.detect_feared_events(run.committed, (), proposals)[eov_sim.FearedEvent.INVALID_ACCEPTED] > 0:
            fraud_hits += runs
        if valid_tx_ids - run.submitted_tx_ids:
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
