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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..determinism import canonical_json_bytes
from ..policy import EndorsementPolicy, eval_policy
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
    validate_config,
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
    endorser_id: str,
    behavior: EndorserBehavior,
    proposal: TxProposal,
    state: KvStore,
    seen_nonces: set[tuple[str, int]],
    msp_emitters: frozenset[str],
    step: int,
) -> Endorsement | RefusalRecord | None:
    """One endorser's reaction to a proposal: it endorses, refuses or stays silent.

    Honest endorsers check emitter legitimacy, replay freshness and a clean
    chaincode execution, in that order, and return a ``RefusalRecord`` of
    the first failure. Fraudulent endorsers skip the execution check and
    endorse the claimed effects, but still refuse illegitimate emitters and
    replays. Censoring endorsers refuse everything; crashed ones never
    answer (``None``), and neither does an endorser inside its denial-of-
    service window, which is honest outside it.
    """
    mode = _answering_mode(behavior, step)
    if mode is None:
        return None
    tx_id, client = proposal.tx_id, proposal.client_id
    if mode == CENSORING:
        return RefusalRecord(tx_id, endorser_id, None, "censorship")

    if client not in msp_emitters:
        return RefusalRecord(tx_id, endorser_id, V1, f"emitter {client!r} is not registered with the MSP")
    if (client, proposal.nonce) in seen_nonces:
        return RefusalRecord(tx_id, endorser_id, V3, f"nonce {proposal.nonce} of {client!r} was already acknowledged")
    if mode == FRAUDULENT:
        return Endorsement(endorser_id, claimed_effects(state, proposal.op))
    try:
        rwset = execute_chaincode(state, proposal.op)
    except AppFailure as failure:
        return RefusalRecord(tx_id, endorser_id, V2, f"chaincode execution failed: {failure}")
    return Endorsement(endorser_id, rwset)


@dataclass(frozen=True, slots=True)
class Submission:
    proposal: TxProposal
    endorsements: tuple[Endorsement, ...]


@dataclass(frozen=True, slots=True)
class Block:
    block_no: int
    submissions: tuple[Submission, ...]


def _satisfies(
    policy: EndorsementPolicy, endorsements: Sequence[Endorsement], verdicts: dict[frozenset[str], bool] | None
) -> bool:
    """Whether the endorsing identities satisfy the policy.

    ``verdicts`` memoizes ``eval_policy`` per endorsing set for the calls
    that share it; None evaluates afresh.
    """
    signers = frozenset([e.endorser_id for e in endorsements])
    if verdicts is None:
        return eval_policy(policy, signers)
    verdict = verdicts.get(signers)
    if verdict is None:
        verdict = verdicts[signers] = eval_policy(policy, signers)
    return verdict


def assemble_submission(
    proposal: TxProposal,
    endorsements: Sequence[Endorsement],
    policy: EndorsementPolicy,
    verdicts: dict[frozenset[str], bool] | None = None,
) -> Submission | None:
    """Bundle the endorsements for the ordering service, or None when the
    collected endorsing identities do not satisfy the policy (looked up in
    ``verdicts`` when given)."""
    if not _satisfies(policy, endorsements, verdicts):
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
    peer_state: KvStore,
    block: Block,
    msp_endorsers: frozenset[str],
    policy: EndorsementPolicy,
    skip_v7: bool,
    verdicts: dict[frozenset[str], bool] | None = None,
) -> tuple[list[tuple[bool, str | None]], KvStore]:
    """Validate and apply a block on a copy of the peer state.

    Per transaction, in order: the endorsing set satisfies the policy
    (looked up in ``verdicts`` when given), the endorsers are legitimate
    with valid signatures, all endorsements agree on the effects, and
    (unless the peer is injected with ``skip_v7``) every read still sees
    the version it was computed against. Valid transactions
    apply their writes immediately, so later transactions in the same block
    see them. Reporting stops at the first failed criterion.
    """
    state = peer_state.copy()
    flags: list[tuple[bool, str | None]] = []
    for index, submission in enumerate(block.submissions):
        endorsements = submission.endorsements
        failed = _failed_criterion(state, endorsements, msp_endorsers, policy, skip_v7, verdicts)
        if failed is None:
            state.apply_writes(endorsements[0].rwset.writes, (block.block_no, index))
            flags.append((True, None))
        else:
            flags.append((False, failed))
    return flags, state


def _failed_criterion(
    state: KvStore,
    endorsements: Sequence[Endorsement],
    msp_endorsers: frozenset[str],
    policy: EndorsementPolicy,
    skip_v7: bool,
    verdicts: dict[frozenset[str], bool] | None,
) -> str | None:
    """The first of V4–V7 that a transaction fails against ``state``, or None."""
    if not _satisfies(policy, endorsements, verdicts):
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
    committed: tuple[CommittedTx, ...]
    endorsement_refusals: tuple[RefusalRecord, ...]
    feared_event_counts: dict[FearedEvent, int]
    per_peer_state_digest: tuple[PeerDigest, ...]
    liveness_lost_at: int | None
    seed: int
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
            "seed": self.seed,
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
    (height, pair).
    """
    ground_truth = {p.tx_id: p.op.ground_truth_valid for p in proposals}
    committed_valid = {entry.tx_id for entry in committed if entry.valid}

    invalid_accepted = sum(
        1 for entry in committed if entry.valid and ground_truth.get(entry.tx_id) is False
    )
    valid_rejected = sum(
        1 for p in proposals if p.op.ground_truth_valid and p.tx_id not in committed_valid
    )

    by_height: dict[int, list[tuple[int, str]]] = {}
    for record in per_peer_digests:
        by_height.setdefault(record.block_height, []).append((record.peer, record.digest))
    inconsistent = 0
    for height in sorted(by_height):
        peers = sorted(by_height[height])
        for i in range(len(peers)):
            for j in range(i + 1, len(peers)):
                if peers[i][1] != peers[j][1]:
                    inconsistent += 1

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

    Each proposal calls ``endorse`` once per answering mode (honest, which
    includes a DoS endorser outside its window, fraudulent and censoring),
    for the first endorser in sorted order that answers in it, and stamps
    that outcome with every other such endorser's id, in sorted endorser
    order. That equals calling ``endorse`` per endorser: between one
    proposal's endorsers the canonical state, the seen nonces and the MSP
    emitters do not change, and the outcome reads the endorser only to
    carry its id. One memo of the policy's verdict per endorsing set serves
    both the submission check and V4. The steps stop early once the
    workload is exhausted, nothing is pending and no scheduled crash
    remains: no later step could cut a block or lose liveness.

    The config is taken as valid; ``simulate`` checks it. No peer runs here.
    """
    endorsers = [(e, config.endorser_behaviors.get(e, HONEST_BEHAVIOR)) for e in sorted(config.msp_endorsers)]
    policy = config.policy
    msp_endorsers = config.msp_endorsers
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
    verdicts: dict[frozenset[str], bool] = {}

    for step in range(config.horizon + 1):
        proposals = by_step.get(step, ())
        if proposals:  # who answers, and in which mode, holds for every proposal of the step
            answering = [(e, b, mode) for e, b in endorsers if (mode := _answering_mode(b, step)) is not None]
        for proposal in proposals:
            endorsements: list[Endorsement] = []
            outcomes: dict[str, Endorsement | RefusalRecord] = {}  # answering mode -> its first outcome
            for endorser_id, behavior, mode in answering:
                outcome = outcomes.get(mode)
                if outcome is None:
                    outcome = outcomes[mode] = endorse(
                        endorser_id, behavior, proposal, canonical_state, seen_nonces, config.msp_emitters, step
                    )
                elif isinstance(outcome, Endorsement):
                    outcome = Endorsement(endorser_id, outcome.rwset, outcome.signature_valid)
                else:
                    outcome = RefusalRecord(outcome.tx_id, endorser_id, outcome.failed_criterion, outcome.reason)
                if isinstance(outcome, Endorsement):
                    endorsements.append(outcome)
                else:
                    refusals.append(outcome)
            seen_nonces.add((proposal.client_id, proposal.nonce))
            submission = assemble_submission(proposal, endorsements, policy, verdicts)
            if submission is not None:
                pending.append(submission)
                submitted.add(proposal.tx_id)

        cut, cluster = ordering_step(cluster, pending, step, schedule)
        if liveness_lost_at is None and not cluster.live:
            liveness_lost_at = step

        for block in cut:
            blocks_log.append(block)
            flags, canonical_state = validate_block(canonical_state, block, msp_endorsers, policy, False, verdicts)
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
    """Check the config, run the ordering/commit stage, then replay its blocks on every peer."""
    validate_config(config)
    run = run_pipeline(config)

    peer_states = [KvStore() for _ in range(config.peers)]
    digests: list[PeerDigest] = []
    verdicts: dict[frozenset[str], bool] = {}
    for block in run.blocks:
        for peer in range(config.peers):
            _, updated = validate_block(
                peer_states[peer], block, config.msp_endorsers, config.policy, peer in config.skip_v7_peers, verdicts
            )
            # the digest is a function of the entries alone, so a peer whose
            # state equals its predecessor's shares that peer's digest
            if peer == 0 or updated != peer_states[peer - 1]:
                state_digest = updated.digest()
            peer_states[peer] = updated
            digests.append(PeerDigest(peer, block.block_no, state_digest))

    report = RunReport(
        committed=run.committed,
        endorsement_refusals=run.refusals,
        feared_event_counts=detect_feared_events(run.committed, digests, config.proposals()),
        per_peer_state_digest=tuple(digests),
        liveness_lost_at=run.liveness_lost_at,
        seed=config.seed,
        config_digest=scenario_digest(config),
    )
    return SimResult(report=report, run=run, peer_states=tuple(peer_states))


def run_scenario(config: ScenarioConfig) -> RunReport:
    """The pipeline as a pure function from configuration to report."""
    return simulate(config).report
