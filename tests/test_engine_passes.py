"""The ordering/commit stage against frozen copies of its earlier forms.

``ordering_step`` skips the crash scan when the schedule is empty and builds
its clusters with the constructor, ``validate_block`` checks V5–V7 with
plain loops, and ``_satisfies`` builds its signer set from a list. The
reference copies below are the versions they replaced, kept here
unchanged, with the ``run_pipeline`` that called them. On every input each
function must give what its reference gives: the same blocks, clusters,
pending queue, flags, states and runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockcase import eov_sim as sim
from blockcase.eov_sim.engine import V4, V5, V6, V7, _answering_mode
from blockcase.policy import eval_policy
from blockcase.policy_analysis import CENSORING, CRASHED, DOSED, FRAUDULENT, HONEST, all_of, any_of
from simgen import random_scenario
from test_policy_analysis import nested_policies

ALL_MODES = (HONEST, FRAUDULENT, CENSORING, CRASHED, DOSED)

# ---------------------------------------------------------------- reference copies


def _reference_satisfies(policy, endorsements, verdicts):
    signers = frozenset(e.endorser_id for e in endorsements)
    if verdicts is None:
        return eval_policy(policy, signers)
    verdict = verdicts.get(signers)
    if verdict is None:
        verdict = verdicts[signers] = eval_policy(policy, signers)
    return verdict


def reference_assemble_submission(proposal, endorsements, policy, verdicts=None):
    if not _reference_satisfies(policy, endorsements, verdicts):
        return None
    return sim.Submission(proposal, tuple(endorsements))


def reference_ordering_step(cluster, pending, step, crash_schedule):
    landing = {index for s, index in crash_schedule if s == step}
    if landing or cluster.leader in cluster.crashed:
        crashed = cluster.crashed | landing
        leader = cluster.leader
        ready_at = cluster.leader_ready_at
        if leader is not None and leader in crashed:
            order = ((leader + offset) % cluster.n for offset in range(1, cluster.n + 1))
            leader = next((index for index in order if index not in crashed), None)
            ready_at = step + 1
        cluster = replace(cluster, crashed=crashed, leader=leader, leader_ready_at=ready_at)
    if not (pending and cluster.live and cluster.leader is not None and step >= cluster.leader_ready_at):
        return [], cluster
    batch = tuple(pending.popleft() for _ in range(min(cluster.batch_size, len(pending))))
    return [sim.Block(cluster.next_block_no, batch)], replace(cluster, next_block_no=cluster.next_block_no + 1)


def reference_validate_block(peer_state, block, msp_endorsers, policy, skip_v7, verdicts=None):
    state = peer_state.copy()
    flags = []
    for index, submission in enumerate(block.submissions):
        endorsements = submission.endorsements
        failed = None
        if not _reference_satisfies(policy, endorsements, verdicts):
            failed = V4
        elif any(e.endorser_id not in msp_endorsers or not e.signature_valid for e in endorsements):
            failed = V5
        elif any(e.rwset != endorsements[0].rwset for e in endorsements[1:]):
            failed = V6
        elif not skip_v7 and any(state.version(key) != version for key, version in endorsements[0].rwset.reads):
            failed = V7
        if failed is None:
            state.apply_writes(endorsements[0].rwset.writes, (block.block_no, index))
            flags.append((True, None))
        else:
            flags.append((False, failed))
    return flags, state


def reference_run_pipeline(config):
    endorsers = [(e, config.endorser_behaviors.get(e, sim.HONEST_BEHAVIOR)) for e in sorted(config.msp_endorsers)]
    policy = config.policy
    msp_endorsers = config.msp_endorsers
    schedule = config.orderers.crash_schedule

    by_step = {}
    for step, proposal in config.workload:
        by_step.setdefault(step, []).append(proposal)
    last_event = max([*by_step, *(step for step, _ in schedule)], default=0)

    canonical_state = sim.KvStore()
    cluster = sim.OrdererCluster(n=config.orderers.n, batch_size=config.orderers.batch_size)
    pending = deque()
    seen_nonces = set()
    submitted = set()
    refusals = []
    committed = []
    blocks_log = []
    liveness_lost_at = None
    verdicts = {}

    for step in range(config.horizon + 1):
        proposals = by_step.get(step, ())
        if proposals:
            answering = [(e, b, mode) for e, b in endorsers if (mode := _answering_mode(b, step)) is not None]
        for proposal in proposals:
            endorsements = []
            outcomes = {}
            for endorser_id, behavior, mode in answering:
                outcome = outcomes.get(mode)
                if outcome is None:
                    outcome = outcomes[mode] = sim.endorse(
                        endorser_id, behavior, proposal, canonical_state, seen_nonces, config.msp_emitters, step
                    )
                elif isinstance(outcome, sim.Endorsement):
                    outcome = sim.Endorsement(endorser_id, outcome.rwset, outcome.signature_valid)
                else:
                    outcome = sim.RefusalRecord(outcome.tx_id, endorser_id, outcome.failed_criterion, outcome.reason)
                if isinstance(outcome, sim.Endorsement):
                    endorsements.append(outcome)
                else:
                    refusals.append(outcome)
            seen_nonces.add((proposal.client_id, proposal.nonce))
            submission = reference_assemble_submission(proposal, endorsements, policy, verdicts)
            if submission is not None:
                pending.append(submission)
                submitted.add(proposal.tx_id)

        cut, cluster = reference_ordering_step(cluster, pending, step, schedule)
        if liveness_lost_at is None and not cluster.live:
            liveness_lost_at = step

        for block in cut:
            blocks_log.append(block)
            flags, canonical_state = reference_validate_block(
                canonical_state, block, msp_endorsers, policy, False, verdicts
            )
            for (valid, failed), submission in zip(flags, block.submissions):
                committed.append(sim.CommittedTx(block.block_no, submission.proposal.tx_id, valid, failed))
        if step >= last_event and not pending:
            break

    return sim.PipelineRun(
        committed=tuple(committed),
        refusals=tuple(refusals),
        blocks=tuple(blocks_log),
        canonical_state=canonical_state,
        submitted_tx_ids=frozenset(submitted),
        liveness_lost_at=liveness_lost_at,
    )


# ---------------------------------------------------------------- inputs


@st.composite
def scenarios(draw):
    """A random base with every behavior mode on offer, orderer crashes and ``skip_v7`` peers,
    under its own policy or a random nested one."""
    skip_v7 = draw(st.sets(st.integers(0, 3)))
    config = random_scenario(draw(st.integers(0, 2**16)), behavior_modes=ALL_MODES, skip_v7=skip_v7)
    if draw(st.booleans()):
        config = replace(config, policy=draw(nested_policies(max_depth=3, idents=sorted(config.msp_endorsers))))
    return config


def assert_blocks_validate_alike(config, blocks):
    """Every peer, ``skip_v7`` or not, validates every block as the reference does."""
    for peer in range(config.peers):
        skip_v7 = peer in config.skip_v7_peers
        state = reference_state = sim.KvStore()
        verdicts, reference_verdicts = {}, {}
        for block in blocks:
            flags, state = sim.validate_block(state, block, config.msp_endorsers, config.policy, skip_v7, verdicts)
            expected, reference_state = reference_validate_block(
                reference_state, block, config.msp_endorsers, config.policy, skip_v7, reference_verdicts
            )
            assert (flags, state) == (expected, reference_state)
        assert verdicts == reference_verdicts


@settings(deadline=None)
@given(scenarios())
@example(random_scenario(3, behavior_modes=ALL_MODES, skip_v7={0, 2}))
def test_the_pipeline_and_its_validations_equal_the_reference(config):
    run = sim.run_pipeline(config)
    assert run == reference_run_pipeline(config)
    assert_blocks_validate_alike(config, run.blocks)


def test_the_scenarios_reach_every_mode_crash_schedules_and_skip_v7_peers():
    configs = [random_scenario(seed, behavior_modes=ALL_MODES, skip_v7={seed % 3}) for seed in range(40)]
    modes = {b.mode for config in configs for b in config.endorser_behaviors.values()}
    assert modes == set(ALL_MODES) - {HONEST}  # honest endorsers get no entry
    assert sum(bool(config.orderers.crash_schedule) for config in configs) >= 5
    assert any(config.skip_v7_peers and max(config.skip_v7_peers) < config.peers for config in configs)


@st.composite
def ordering_inputs(draw):
    """Any cluster state, its leader possibly among the crashed or gone, a pending queue and a schedule."""
    n = draw(st.integers(1, 5))
    crashed = frozenset(draw(st.sets(st.integers(0, n - 1))))
    cluster = sim.OrdererCluster(
        n=n,
        batch_size=draw(st.integers(1, 3)),
        crashed=crashed,
        leader=draw(st.none() | st.integers(0, n - 1)),
        leader_ready_at=draw(st.integers(0, 4)),
        next_block_no=draw(st.integers(1, 9)),
    )
    step = draw(st.integers(0, 4))
    schedule = tuple(draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, n - 1)), max_size=4)))
    return cluster, draw(st.integers(0, 5)), step, schedule


def pending_of(count):
    return deque(sim.Submission(sim.TxProposal(f"t{i}", "c1", i, sim.ChaincodeOp.noop()), ()) for i in range(count))


@settings(deadline=None)
@given(ordering_inputs())
@example((sim.OrdererCluster(n=3, batch_size=2, crashed=frozenset({0})), 3, 1, ()))
@example((sim.OrdererCluster(n=3, batch_size=2, crashed=frozenset({0})), 3, 1, ((1, 1),)))
def test_ordering_step_equals_the_reference(case):
    cluster, count, step, schedule = case
    pending, reference_pending = pending_of(count), pending_of(count)
    blocks, updated = sim.ordering_step(cluster, pending, step, schedule)
    assert (blocks, updated) == reference_ordering_step(cluster, reference_pending, step, schedule)
    assert pending == reference_pending


def test_a_cluster_built_with_a_crashed_leader_orders_as_the_reference():
    cluster = sim.OrdererCluster(n=3, batch_size=2, crashed=frozenset({0}))
    for schedule in ((), ((0, 2),), ((1, 1),)):
        ours, theirs = cluster, cluster
        pending, reference_pending = pending_of(5), pending_of(5)
        for step in range(4):
            blocks, ours = sim.ordering_step(ours, pending, step, schedule)
            expected, theirs = reference_ordering_step(theirs, reference_pending, step, schedule)
            assert (blocks, ours, pending) == (expected, theirs, reference_pending)
    assert sim.ordering_step(cluster, pending_of(1), 0, ())[1].leader == 1


# ---------------------------------------------------------------- hand-built blocks

E3 = ("E1", "E2", "E3")
STALE = (("k", (5, 5)),)


def submission(tx_id, endorsements, nonce):
    return sim.Submission(sim.TxProposal(tx_id, "c1", nonce, sim.ChaincodeOp.noop()), tuple(endorsements))


def rwset(reads=(), writes=(("k", 1),)):
    return sim.ReadWriteSet(frozenset(reads), frozenset(writes))


# case -> (the endorsements of the failing transaction, the policy, the criterion it fails)
FAILING = {
    "policy-shortfall": ([sim.Endorsement("E1", rwset())], all_of(E3), V4),
    "foreign-endorser": ([sim.Endorsement("E9", rwset())], any_of((*E3, "E9")), V5),
    "invalid-signature": ([sim.Endorsement("E1", rwset()), sim.Endorsement("E2", rwset(), signature_valid=False)],
                          any_of(E3), V5),
    "diverging-rwsets": ([sim.Endorsement("E1", rwset()), sim.Endorsement("E2", rwset(writes=(("k", 2),)))],
                         any_of(E3), V6),
    "stale-read": ([sim.Endorsement("E1", rwset(reads=STALE)), sim.Endorsement("E2", rwset(reads=STALE))],
                   any_of(E3), V7),
}


@pytest.mark.parametrize("case", sorted(FAILING))
@pytest.mark.parametrize("skip_v7", [False, True])
def test_a_block_failing_one_criterion_validates_as_the_reference(case, skip_v7):
    endorsements, policy, criterion = FAILING[case]
    valid = sim.Endorsement("E3", rwset(writes=(("j", 7),)))
    block = sim.Block(2, (submission("t0", [valid], 1), submission("t1", endorsements, 2),
                          submission("t2", [valid], 3)))
    start = sim.KvStore({"k": (1, (1, 0))})
    flags, state = sim.validate_block(start, block, frozenset(E3), policy, skip_v7)
    assert (flags, state) == reference_validate_block(start, block, frozenset(E3), policy, skip_v7)
    expected = None if criterion == V7 and skip_v7 else criterion  # a skip_v7 peer lets a stale read commit
    assert flags[1] == (expected is None, expected)
    assert start == sim.KvStore({"k": (1, (1, 0))})
