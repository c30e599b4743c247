"""Deterministic execute-order-validate pipeline with injectable faults.

The run has two stages. The ordering/commit stage (``run_pipeline``) steps
through the horizon, stopping once no later step can change the run: each
step delivers the scheduled proposals to every endorser, assembles the
endorsed ones into submissions, lets the ordering cluster cut at most one
block (FIFO, majority quorum, one idle step after a leader crash) and
commits any cut block to the canonical state that the endorsers execute
against. The peer replay stage (``simulate``) then
validates the ordered blocks on every peer, block by block. Validating after
ordering rather than in the step that cut the block changes nothing, because
peer states never feed back into endorsement or ordering. The whole run is a
pure function of its configuration: identical configs yield byte-identical
reports.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from ..determinism import canonical_json_bytes
from ..policy import Verdicts, verdicts_of
from ..risk_ledger import FearedEvent
from .scenario import (
    CENSORING,
    CRASHED,
    DOSED,
    FRAUDULENT,
    HONEST,
    EndorserBehavior,
    HONEST_BEHAVIOR,
    ScenarioConfig,
    TxProposal,
    scenario_digest,
)
from .state import AppFailure, KvStore, ReadWriteSet, claimed_effects, execute_chaincode

V1, V2, V3 = "V1", "V2", "V3"
V4, V5, V6, V7 = "V4", "V5", "V6", "V7"


@dataclass(frozen=True, slots=True)
class Endorsement:
    endorser_id: str
    rwset: ReadWriteSet
    signature_valid: bool = True


@dataclass(frozen=True, slots=True)
class RefusalRecord:
    tx_id: str
    endorser_id: str
    failed_criterion: str | None  # V1..V3, None for censorship
    reason: str


def _answering_mode(behavior: EndorserBehavior, step: int) -> str | None:
    """The mode in which an endorser answers at ``step``: honest, fraudulent or
    censoring, or None when it stays silent (crashed, or inside its denial-of-
    service window, outside which it is honest)."""
    mode = behavior.mode
    if mode == CRASHED:
        return None
    if mode == DOSED:
        return None if behavior.from_step <= step <= behavior.to_step else HONEST
    return mode


def endorse(
    mode: str,
    proposal: TxProposal,
    state: KvStore,
    seen_nonces: set[tuple[str, int]],
    msp_emitters: frozenset[str],
) -> ReadWriteSet | tuple[str | None, str]:
    """The answer every endorser answering a proposal in ``mode`` gives: the
    read/write set it endorses, or the ``(criterion, reason)`` of its refusal.

    Honest endorsers check emitter legitimacy, replay freshness and a clean
    chaincode execution, in that order, and refuse on the first failure.
    Fraudulent endorsers skip the execution check and endorse the claimed
    effects, but still refuse illegitimate emitters and replays. Censoring
    endorsers refuse everything, under no criterion. Crashed endorsers, and
    DoS endorsers inside their window, never answer, so nothing asks them
    (``_answering_mode``).
    """
    if mode == CENSORING:
        return None, "censorship"
    client = proposal.client_id
    if client not in msp_emitters:
        return V1, f"emitter {client!r} is not registered with the MSP"
    if (client, proposal.nonce) in seen_nonces:
        return V3, f"nonce {proposal.nonce} of {client!r} was already acknowledged"
    if mode == FRAUDULENT:
        return claimed_effects(state, proposal.op)
    try:
        return execute_chaincode(state, proposal.op)
    except AppFailure as failure:
        return V2, f"chaincode execution failed: {failure}"


@dataclass(frozen=True, slots=True)
class Submission:
    proposal: TxProposal
    endorsements: tuple[Endorsement, ...]


@dataclass(frozen=True, slots=True)
class Block:
    block_no: int
    submissions: tuple[Submission, ...]


def assemble_submission(
    proposal: TxProposal, endorsements: Sequence[Endorsement], holds: Verdicts
) -> Submission | None:
    """Bundle the endorsements for the ordering service, or None when the
    collected endorsing identities do not satisfy the policy (``holds``)."""
    if not holds(frozenset([e.endorser_id for e in endorsements])):
        return None
    return Submission(proposal, tuple(endorsements))


@dataclass(frozen=True, slots=True)
class OrdererCluster:
    n: int
    batch_size: int
    crashed: frozenset[int] = frozenset()
    leader: int | None = 0
    leader_ready_at: int = 0  # election takes one idle step
    next_block_no: int = 1

    @property
    def quorum(self) -> int:
        return self.n // 2 + 1

    @property
    def alive(self) -> int:
        return self.n - len(self.crashed)

    @property
    def live(self) -> bool:
        return self.alive >= self.quorum


def ordering_step(
    cluster: OrdererCluster,
    pending: deque,
    step: int,
    crash_schedule: Iterable[tuple[int, int]],
) -> tuple[list[Block], OrdererCluster]:
    """Advance the ordering service by one step, consuming from ``pending``.

    Crashes scheduled for this step land first. A crashed leader hands over
    to the next alive index (wrapping), which starts working the following
    step. With a ready leader and a live majority, one block of up to
    ``batch_size`` submissions is cut in FIFO order; otherwise nothing is
    emitted. A step in which no crash lands and no block is cut returns the
    given cluster itself.
    """
    landing = {index for s, index in crash_schedule if s == step} if crash_schedule else ()
    if landing or cluster.leader in cluster.crashed:
        crashed = cluster.crashed.union(landing)
        leader = cluster.leader
        ready_at = cluster.leader_ready_at
        if leader is not None and leader in crashed:
            order = ((leader + offset) % cluster.n for offset in range(1, cluster.n + 1))
            leader = next((index for index in order if index not in crashed), None)
            ready_at = step + 1
        cluster = OrdererCluster(cluster.n, cluster.batch_size, crashed, leader, ready_at, cluster.next_block_no)
    if not (pending and cluster.live and cluster.leader is not None and step >= cluster.leader_ready_at):
        return [], cluster
    batch = tuple(pending.popleft() for _ in range(min(cluster.batch_size, len(pending))))
    following = OrdererCluster(
        cluster.n, cluster.batch_size, cluster.crashed, cluster.leader, cluster.leader_ready_at, cluster.next_block_no + 1
    )
    return [Block(cluster.next_block_no, batch)], following


def validate_block(
    state: KvStore,
    block: Block,
    msp_endorsers: frozenset[str],
    holds: Verdicts,
    skip_v7: bool,
) -> list[tuple[bool, str | None]]:
    """Validate a block and apply it to ``state`` itself; return the (valid, criterion) flags.

    Per transaction, in order: the endorsing set satisfies the policy
    (``holds``), the endorsers are legitimate with valid signatures, all
    endorsements agree on the effects, and (unless the peer is injected
    with ``skip_v7``) every read still sees the version it was computed
    against. Valid transactions apply their writes immediately, so later
    transactions in the same block see them. Reporting stops at the first
    failed criterion.
    """
    flags: list[tuple[bool, str | None]] = []
    for index, submission in enumerate(block.submissions):
        endorsements = submission.endorsements
        failed = _failed_criterion(state, endorsements, msp_endorsers, holds, skip_v7)
        if failed is None:
            state.apply_writes(endorsements[0].rwset.writes, (block.block_no, index))
            flags.append((True, None))
        else:
            flags.append((False, failed))
    return flags


def _failed_criterion(
    state: KvStore,
    endorsements: Sequence[Endorsement],
    msp_endorsers: frozenset[str],
    holds: Verdicts,
    skip_v7: bool,
) -> str | None:
    """The first of V4–V7 that a transaction fails against ``state``, or None."""
    if not holds(frozenset([e.endorser_id for e in endorsements])):
        return V4
    for e in endorsements:
        if e.endorser_id not in msp_endorsers or not e.signature_valid:
            return V5
    rwset = endorsements[0].rwset
    for e in endorsements[1:]:
        if e.rwset != rwset:
            return V6
    if not skip_v7:
        for key, version in rwset.reads:
            if state.version(key) != version:
                return V7
    return None


@dataclass(frozen=True, slots=True)
class CommittedTx:
    block_no: int
    tx_id: str
    valid: bool
    failed_criterion: str | None  # V4..V7 when invalid


@dataclass(frozen=True, slots=True)
class PeerDigest:
    peer: int
    block_height: int
    digest: str


@dataclass(frozen=True)
class RunReport:
    """One run's outcome. The run draws nothing at random, so ``config_digest`` fixes every field."""

    committed: tuple[CommittedTx, ...]
    endorsement_refusals: tuple[RefusalRecord, ...]
    feared_event_counts: dict[FearedEvent, int]
    per_peer_state_digest: tuple[PeerDigest, ...]
    liveness_lost_at: int | None
    config_digest: str

    def to_dict(self) -> dict:
        return {
            "committed": [[c.block_no, c.tx_id, c.valid, c.failed_criterion] for c in self.committed],
            "endorsement_refusals": [
                [r.tx_id, r.endorser_id, r.failed_criterion, r.reason] for r in self.endorsement_refusals
            ],
            "feared_event_counts": {event.value: count for event, count in self.feared_event_counts.items()},
            "per_peer_state_digest": [[d.peer, d.block_height, d.digest] for d in self.per_peer_state_digest],
            "liveness_lost_at": self.liveness_lost_at,
            "config_digest": self.config_digest,
        }

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_dict())

    @property
    def clean(self) -> bool:
        return all(count == 0 for count in self.feared_event_counts.values())


def detect_feared_events(
    committed: Sequence[CommittedTx],
    per_peer_digests: Sequence[PeerDigest],
    proposals: Sequence[TxProposal],
) -> dict[FearedEvent, int]:
    """Recount the three feared events from the run traces.

    A committed-valid transaction whose ground truth says invalid counts as
    an accepted invalid; a ground-truth-valid proposal that never committed
    as valid counts as a rejected valid, wherever it died; and each pair of
    peers disagreeing on the state digest at an equal height counts once per
    (height, pair): the pairs of records at one height, less those that also
    share a digest.
    """
    ground_truth = {p.tx_id: p.op.ground_truth_valid for p in proposals}
    committed_valid = {entry.tx_id for entry in committed if entry.valid}

    invalid_accepted = sum(
        1 for entry in committed if entry.valid and ground_truth.get(entry.tx_id) is False
    )
    valid_rejected = sum(
        1 for p in proposals if p.op.ground_truth_valid and p.tx_id not in committed_valid
    )

    at_height = Counter(record.block_height for record in per_peer_digests)
    with_digest = Counter((record.block_height, record.digest) for record in per_peer_digests)
    inconsistent = sum(comb(n, 2) for n in at_height.values()) - sum(comb(n, 2) for n in with_digest.values())

    return {
        FearedEvent.INVALID_ACCEPTED: invalid_accepted,
        FearedEvent.VALID_REJECTED: valid_rejected,
        FearedEvent.INCONSISTENT_READ: inconsistent,
    }


@dataclass(frozen=True)
class PipelineRun:
    """The ordering/commit stage's record: what was refused, ordered and committed."""

    committed: tuple[CommittedTx, ...]
    refusals: tuple[RefusalRecord, ...]
    blocks: tuple[Block, ...]
    canonical_state: KvStore
    submitted_tx_ids: frozenset[str]
    liveness_lost_at: int | None


def run_pipeline(config: ScenarioConfig) -> PipelineRun:
    """Endorse, order and commit steps 0..horizon against the canonical state.

    Each proposal asks ``endorse`` once per answering mode (honest, which
    includes a DoS endorser outside its window, fraudulent and censoring)
    and builds every answering endorser's ``Endorsement`` or
    ``RefusalRecord`` from its mode's answer, in sorted endorser order. A
    censoring answer is a refusal; crashed endorsers, and DoS endorsers
    inside their window, never reach ``endorse``. That equals asking each
    endorser, since ``endorse`` takes no endorser and between one
    proposal's endorsers the canonical state, the seen nonces and the MSP
    emitters do not change. One ``verdicts_of`` memo serves both the submission
    check and V4. The steps stop early once the workload is exhausted,
    nothing is pending and no scheduled crash remains: no later step could
    cut a block or lose liveness. No peer runs here.
    """
    endorsers = [(e, config.endorser_behaviors.get(e, HONEST_BEHAVIOR)) for e in sorted(config.msp_endorsers)]
    holds = verdicts_of(config.policy)
    msp_endorsers, msp_emitters = config.msp_endorsers, config.msp_emitters
    schedule = config.orderers.crash_schedule

    by_step: dict[int, list[TxProposal]] = {}
    for step, proposal in config.workload:
        by_step.setdefault(step, []).append(proposal)
    last_event = max([*by_step, *(step for step, _ in schedule)], default=0)

    canonical_state = KvStore()
    cluster = OrdererCluster(n=config.orderers.n, batch_size=config.orderers.batch_size)
    pending: deque[Submission] = deque()
    seen_nonces: set[tuple[str, int]] = set()
    submitted: set[str] = set()
    refusals: list[RefusalRecord] = []
    committed: list[CommittedTx] = []
    blocks_log: list[Block] = []
    liveness_lost_at: int | None = None

    for step in range(config.horizon + 1):
        proposals = by_step.get(step, ())
        if proposals:  # who answers, and in which mode, holds for every proposal of the step
            answering = [(e, mode) for e, b in endorsers if (mode := _answering_mode(b, step)) is not None]
            modes = dict.fromkeys(mode for _, mode in answering)
        for proposal in proposals:
            answers = {mode: endorse(mode, proposal, canonical_state, seen_nonces, msp_emitters) for mode in modes}
            endorsements: list[Endorsement] = []
            for endorser_id, mode in answering:
                answer = answers[mode]
                if isinstance(answer, ReadWriteSet):
                    endorsements.append(Endorsement(endorser_id, answer))
                else:
                    refusals.append(RefusalRecord(proposal.tx_id, endorser_id, *answer))
            seen_nonces.add((proposal.client_id, proposal.nonce))
            submission = assemble_submission(proposal, endorsements, holds)
            if submission is not None:
                pending.append(submission)
                submitted.add(proposal.tx_id)

        cut, cluster = ordering_step(cluster, pending, step, schedule)
        if liveness_lost_at is None and not cluster.live:
            liveness_lost_at = step

        for block in cut:
            blocks_log.append(block)
            flags = validate_block(canonical_state, block, msp_endorsers, holds, False)
            for (valid, failed), submission in zip(flags, block.submissions):
                committed.append(CommittedTx(block.block_no, submission.proposal.tx_id, valid, failed))
        if step >= last_event and not pending:
            break

    return PipelineRun(
        committed=tuple(committed),
        refusals=tuple(refusals),
        blocks=tuple(blocks_log),
        canonical_state=canonical_state,
        submitted_tx_ids=frozenset(submitted),
        liveness_lost_at=liveness_lost_at,
    )


@dataclass(frozen=True)
class SimResult:
    """Run report plus the raw material tests work from."""

    report: RunReport
    run: PipelineRun
    peer_states: tuple[KvStore, ...]


def simulate(config: ScenarioConfig) -> SimResult:
    """Run the ordering/commit stage, then replay its blocks on every peer; no step of it is random."""
    run = run_pipeline(config)

    peer_states = [KvStore() for _ in range(config.peers)]
    digests: list[PeerDigest] = []
    holds = verdicts_of(config.policy)
    for block in run.blocks:
        for peer, state in enumerate(peer_states):
            validate_block(state, block, config.msp_endorsers, holds, peer in config.skip_v7_peers)
            # the digest is a function of the entries alone, so a peer whose
            # state equals its predecessor's shares that peer's digest
            if peer == 0 or state != peer_states[peer - 1]:
                state_digest = state.digest()
            digests.append(PeerDigest(peer, block.block_no, state_digest))

    report = RunReport(
        committed=run.committed,
        endorsement_refusals=run.refusals,
        feared_event_counts=detect_feared_events(run.committed, digests, config.proposals()),
        per_peer_state_digest=tuple(digests),
        liveness_lost_at=run.liveness_lost_at,
        config_digest=scenario_digest(config),
    )
    return SimResult(report=report, run=run, peer_states=tuple(peer_states))


def run_scenario(config: ScenarioConfig) -> RunReport:
    """The pipeline as a pure function from configuration to report."""
    return simulate(config).report
