from __future__ import annotations

from collections import deque
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcase import eov_sim as sim
from blockcase.eov_sim import engine
from blockcase.policy_analysis import (
    CENSORING, CRASHED, DOSED, FRAUDULENT, HONEST, all_of, any_of, eval_policy, verdicts_of,
)
from blockcase.risk_ledger import FearedEvent
from simgen import random_scenario, replay_committed
from test_engine_passes import reference_answering_mode
from test_policy_analysis import nested_policies

E3 = ["E1", "E2", "E3"]


def proposal(tx_id, op, client="c1", nonce=None):
    return sim.TxProposal(tx_id, client, nonce if nonce is not None else hash(tx_id) % 1000, op)


def basic_config(workload, *, policy=None, behaviors=None, endorsers=E3, peers=1,
                 skip=frozenset(), orderers=None, horizon=4):
    return sim.ScenarioConfig(
        msp_emitters=frozenset({"c1", "c2"}),
        msp_endorsers=frozenset(endorsers),
        endorser_behaviors=behaviors or {},
        policy=policy if policy is not None else any_of(endorsers),
        orderers=orderers or sim.OrdererConfig(n=3, batch_size=10),
        peers=peers,
        skip_v7_peers=frozenset(skip),
        workload=tuple(workload),
        horizon=horizon,
    )


class TestExecuteChaincode:
    def test_transfer_reads_both_keys_and_writes_updated_balances(self):
        state = sim.KvStore({"a": (10, (1, 0)), "b": (0, (1, 1))})
        rwset = sim.execute_chaincode(state, sim.ChaincodeOp.transfer("a", "b", 5))
        assert rwset.reads == frozenset({("a", (1, 0)), ("b", (1, 1))})
        assert rwset.writes == frozenset({("a", 5), ("b", 5)})

    def test_overdraw_fails(self):
        state = sim.KvStore({"a": (3, (1, 0))})
        with pytest.raises(sim.AppFailure):
            sim.execute_chaincode(state, sim.ChaincodeOp.transfer("a", "b", 5))

    def test_noop_has_empty_effects(self):
        assert sim.execute_chaincode(sim.KvStore(), sim.ChaincodeOp.noop()) == sim.EMPTY_RWSET

    def test_set_reads_version_zero_for_fresh_keys(self):
        rwset = sim.execute_chaincode(sim.KvStore(), sim.ChaincodeOp.set("k", 7))
        assert rwset.reads == frozenset({("k", sim.VERSION_ZERO)})
        assert rwset.writes == frozenset({("k", 7)})

    def test_execution_does_not_mutate_state(self):
        state = sim.KvStore({"a": (10, (1, 0))})
        sim.execute_chaincode(state, sim.ChaincodeOp.transfer("a", "b", 5))
        assert state == sim.KvStore({"a": (10, (1, 0))})

    def test_claimed_effects_skip_the_guard(self):
        rwset = sim.claimed_effects(sim.KvStore(), sim.ChaincodeOp.transfer("a", "b", 5))
        assert rwset.writes == frozenset({("a", -5), ("b", 5)})

    def test_transfer_validation(self):
        with pytest.raises(ValueError):
            sim.ChaincodeOp.transfer("a", "b", 0)
        with pytest.raises(ValueError):
            sim.ChaincodeOp.transfer("a", "a", 1)

    def test_rwsets_reject_duplicate_keys(self):
        with pytest.raises(ValueError):
            sim.ReadWriteSet(frozenset({("k", (0, 0)), ("k", (1, 0))}), frozenset())
        with pytest.raises(ValueError):
            sim.ReadWriteSet(frozenset(), frozenset({("k", 1), ("k", 2)}))


class TestEndorse:
    def endorse(self, mode, prop, *, state=None, seen=frozenset()):
        return sim.endorse(mode, prop, state or sim.KvStore(), set(seen), frozenset({"c1"}))

    def test_unknown_emitter_refused_first(self):
        criterion, _ = self.endorse(HONEST, proposal("t", sim.ChaincodeOp.noop(), client="mallory"))
        assert criterion == sim.V1

    def test_replayed_nonce_refused(self):
        prop = proposal("t", sim.ChaincodeOp.noop(), nonce=9)
        assert self.endorse(HONEST, prop, seen={("c1", 9)}) == (sim.V3, "nonce 9 of 'c1' was already acknowledged")

    def test_replay_by_an_illegitimate_emitter_reports_the_earlier_criterion(self):
        prop = proposal("t", sim.ChaincodeOp.noop(), client="mallory", nonce=9)
        criterion, _ = self.endorse(HONEST, prop, seen={("mallory", 9)})
        assert criterion == sim.V1

    def test_failed_execution_refused(self):
        criterion, reason = self.endorse(HONEST, proposal("t", sim.ChaincodeOp.transfer("a", "b", 5)))
        assert criterion == sim.V2 and reason.startswith("chaincode execution failed: ")

    def test_honest_endorses_the_executed_effects(self):
        op = sim.ChaincodeOp.set("k", 3)
        assert self.endorse(HONEST, proposal("t", op)) == sim.execute_chaincode(sim.KvStore(), op)

    def test_fraudulent_endorses_a_guard_violating_op(self):
        op = sim.ChaincodeOp.transfer("a", "b", 5, valid=False)
        assert self.endorse(FRAUDULENT, proposal("t", op)) == sim.claimed_effects(sim.KvStore(), op)

    def test_fraudulent_still_refuses_identity_and_replay_failures(self):
        refusal = self.endorse(FRAUDULENT, proposal("t", sim.ChaincodeOp.noop(), client="mallory"))
        assert refusal[0] == sim.V1
        replay = self.endorse(FRAUDULENT, proposal("t", sim.ChaincodeOp.noop(), nonce=3), seen={("c1", 3)})
        assert replay[0] == sim.V3

    def test_censoring_refuses_everything(self):
        for client in ("c1", "mallory"):
            assert self.endorse(CENSORING, proposal("t", sim.ChaincodeOp.noop(), client=client)) == (None, "censorship")


class TestAssembleSubmission:
    NOOP = proposal("t", sim.ChaincodeOp.noop())

    def test_any_policy_accepts_a_single_endorsement(self):
        endorsement = sim.Endorsement("E2", sim.EMPTY_RWSET)
        submission = sim.assemble_submission(self.NOOP, [endorsement], verdicts_of(any_of(E3)))
        assert submission is not None and submission.endorsements == (endorsement,)

    def test_all_policy_needs_every_endorser(self):
        endorsements = [sim.Endorsement("E1", sim.EMPTY_RWSET), sim.Endorsement("E3", sim.EMPTY_RWSET)]
        assert sim.assemble_submission(self.NOOP, endorsements, verdicts_of(all_of(E3))) is None

    def test_empty_endorsements_never_satisfy(self):
        assert sim.assemble_submission(self.NOOP, [], verdicts_of(any_of(E3))) is None


class TestOrderingStep:
    def cluster(self, n=3, batch=10):
        return sim.OrdererCluster(n=n, batch_size=batch)

    def submissions(self, count):
        return deque(
            sim.Submission(proposal(f"t{i}", sim.ChaincodeOp.noop(), nonce=i), ()) for i in range(count)
        )

    def test_fifo_batch(self):
        blocks, cluster = sim.ordering_step(self.cluster(), self.submissions(2), 0, ())
        assert len(blocks) == 1
        assert [s.proposal.tx_id for s in blocks[0].submissions] == ["t0", "t1"]
        assert cluster.next_block_no == 2

    def test_batch_size_caps_a_block(self):
        pending = self.submissions(5)
        blocks, _ = sim.ordering_step(self.cluster(batch=2), pending, 0, ())
        assert len(blocks[0].submissions) == 2 and len(pending) == 3

    def test_non_leader_crash_keeps_cutting(self):
        blocks, cluster = sim.ordering_step(self.cluster(), self.submissions(1), 0, [(0, 2)])
        assert len(blocks) == 1 and cluster.live

    def test_two_crashes_of_three_stop_everything(self):
        pending = self.submissions(1)
        blocks, cluster = sim.ordering_step(self.cluster(), pending, 0, [(0, 1), (0, 2)])
        assert blocks == [] and not cluster.live and len(pending) == 1

    def test_leader_crash_costs_one_idle_step(self):
        pending = self.submissions(2)
        blocks, cluster = sim.ordering_step(self.cluster(), pending, 3, [(3, 0)])
        assert blocks == [] and cluster.leader == 1 and cluster.leader_ready_at == 4
        blocks, cluster = sim.ordering_step(cluster, pending, 4, ())
        assert len(blocks) == 1

    def test_wrap_around_election(self):
        cluster = replace(self.cluster(), crashed=frozenset({1}), leader=2)
        blocks, cluster = sim.ordering_step(cluster, self.submissions(1), 5, [(5, 2)])
        assert cluster.leader == 0 and blocks == []

    def test_an_idle_step_returns_the_cluster_it_was_given(self):
        cluster = self.cluster()
        assert sim.ordering_step(cluster, deque(), 2, [(3, 1)]) == ([], cluster)
        assert sim.ordering_step(cluster, deque(), 2, [(3, 1)])[1] is cluster

    def test_a_cluster_built_with_a_crashed_leader_hands_over_without_a_new_crash(self):
        cluster = replace(self.cluster(), crashed=frozenset({0}))
        for pending in (deque(), self.submissions(1)):
            blocks, updated = sim.ordering_step(cluster, pending, 2, ())
            assert blocks == [] and (updated.leader, updated.leader_ready_at) == (1, 3)


def endorsed_submission(tx_id, reads, writes, endorsers=("E1",), nonce=None, rwsets=None):
    rwset = sim.ReadWriteSet(frozenset(reads), frozenset(writes))
    endorsements = tuple(
        sim.Endorsement(e, rwsets[i] if rwsets else rwset) for i, e in enumerate(endorsers)
    )
    return sim.Submission(proposal(tx_id, sim.ChaincodeOp.noop(), nonce=nonce), endorsements)


class TestValidateBlock:
    def validate(self, block, *, state=None, policy=None, skip=False, endorsers=E3):
        state = sim.KvStore() if state is None else state
        flags = sim.validate_block(state, block, frozenset(endorsers), verdicts_of(policy or any_of(E3)), skip)
        return flags, state

    def test_same_key_conflict_invalidates_the_second_tx(self):
        block = sim.Block(1, (
            endorsed_submission("t1", [("k", sim.VERSION_ZERO)], [("k", 1)], nonce=1),
            endorsed_submission("t2", [("k", sim.VERSION_ZERO)], [("k", 2)], nonce=2),
        ))
        flags, state = self.validate(block)
        assert flags == [(True, None), (False, sim.V7)]
        assert state.entries["k"] == (1, (1, 0))

    def test_disjoint_keys_both_commit(self):
        block = sim.Block(1, (
            endorsed_submission("t1", [("a", sim.VERSION_ZERO)], [("a", 1)], nonce=1),
            endorsed_submission("t2", [("b", sim.VERSION_ZERO)], [("b", 2)], nonce=2),
        ))
        flags, state = self.validate(block)
        assert flags == [(True, None), (True, None)]
        assert state.entries == {"a": (1, (1, 0)), "b": (2, (1, 1))}

    def test_diverging_endorsements_fail_the_consistency_check(self):
        rwsets = [
            sim.ReadWriteSet(frozenset(), frozenset({("k", 1)})),
            sim.ReadWriteSet(frozenset(), frozenset({("k", 2)})),
        ]
        block = sim.Block(1, (endorsed_submission("t1", [], [], endorsers=("E1", "E2"), nonce=1, rwsets=rwsets),))
        flags, _ = self.validate(block)
        assert flags == [(False, sim.V6)]

    def test_divergence_reported_before_a_stale_read(self):
        stale = [("k", (5, 5))]
        rwsets = [
            sim.ReadWriteSet(frozenset(stale), frozenset({("k", 1)})),
            sim.ReadWriteSet(frozenset(stale), frozenset({("k", 2)})),
        ]
        block = sim.Block(1, (endorsed_submission("t1", stale, [], endorsers=("E1", "E2"), nonce=1, rwsets=rwsets),))
        flags, _ = self.validate(block)
        assert flags == [(False, sim.V6)]  # first failure wins, V7 never reached

    def test_policy_shortfall_reported_before_anything_else(self):
        block = sim.Block(1, (
            endorsed_submission("t1", [("k", (9, 9))], [("k", 1)], endorsers=("E9",), nonce=1),
        ))
        flags, _ = self.validate(block, policy=all_of(E3))
        assert flags == [(False, sim.V4)]

    def test_illegitimate_endorser_fails_after_policy(self):
        block = sim.Block(1, (endorsed_submission("t1", [], [("k", 1)], endorsers=("E1",), nonce=1),))
        flags, _ = self.validate(block, endorsers=["E2", "E3"], policy=any_of(["E1", "E2", "E3"]))
        assert flags == [(False, sim.V5)]

    def test_bad_signature_fails_the_legitimacy_check(self):
        rwset = sim.ReadWriteSet(frozenset(), frozenset({("k", 1)}))
        submission = sim.Submission(
            proposal("t1", sim.ChaincodeOp.noop(), nonce=1),
            (sim.Endorsement("E1", rwset, signature_valid=False),),
        )
        flags, _ = self.validate(sim.Block(1, (submission,)))
        assert flags == [(False, sim.V5)]

    def test_skip_v7_applies_conflicting_writes(self):
        block = sim.Block(1, (
            endorsed_submission("t1", [("k", sim.VERSION_ZERO)], [("k", 1)], nonce=1),
            endorsed_submission("t2", [("k", sim.VERSION_ZERO)], [("k", 2)], nonce=2),
        ))
        flags, state = self.validate(block, skip=True)
        assert flags == [(True, None), (True, None)]
        assert state.entries["k"] == (2, (1, 1))

    def test_the_block_is_applied_to_the_state_it_is_given(self):
        state = sim.KvStore({"k": (5, (1, 0)), "j": (1, (1, 1))})
        block = sim.Block(2, (endorsed_submission("t1", [("k", (1, 0))], [("k", 9)], nonce=1),
                              endorsed_submission("t2", [("j", (9, 9))], [("j", 7)], nonce=2)))
        assert self.validate(block, state=state) == ([(True, None), (False, sim.V7)], state)
        assert state.entries == {"k": (9, (2, 0)), "j": (1, (1, 1))}


class TestRunScenario:
    def test_fault_free_run_has_no_feared_events(self):
        config = basic_config(
            [
                (0, proposal("t1", sim.ChaincodeOp.set("a", 10), nonce=1)),
                (1, proposal("t2", sim.ChaincodeOp.transfer("a", "b", 4), nonce=2)),
            ]
        )
        report = sim.run_scenario(config)
        assert set(report.feared_event_counts.values()) == {0}
        assert [c.tx_id for c in report.committed if c.valid] == ["t1", "t2"]

    def test_one_fraudulent_endorser_under_any_policy_commits_an_invalid_tx(self):
        config = basic_config(
            [(0, proposal("bad", sim.ChaincodeOp.transfer("ghost", "sink", 5, valid=False), nonce=1))],
            behaviors={"E1": sim.EndorserBehavior(FRAUDULENT)},
        )
        report = sim.run_scenario(config)
        assert report.feared_event_counts[FearedEvent.INVALID_ACCEPTED] >= 1

    def test_one_censoring_endorser_under_all_policy_rejects_a_valid_tx(self):
        config = basic_config(
            [(0, proposal("good", sim.ChaincodeOp.set("a", 1), nonce=1))],
            policy=all_of(E3),
            behaviors={"E2": sim.EndorserBehavior(CENSORING)},
        )
        report = sim.run_scenario(config)
        assert report.feared_event_counts[FearedEvent.VALID_REJECTED] == 1
        assert any(r.reason == "censorship" for r in report.endorsement_refusals)

    def test_replayed_nonce_is_refused_and_counts_nothing(self):
        config = basic_config(
            [
                (0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=7)),
                (1, proposal("t1-replay", sim.ChaincodeOp.set("a", 1, valid=False), nonce=7)),
            ]
        )
        report = sim.run_scenario(config)
        assert {r.failed_criterion for r in report.endorsement_refusals} == {sim.V3}
        assert set(report.feared_event_counts.values()) == {0}

    def test_same_seed_same_bytes(self):
        config = random_scenario(11)
        assert sim.run_scenario(config).to_json_bytes() == sim.run_scenario(config).to_json_bytes()

    def test_behavior_map_insertion_order_does_not_matter(self):
        workload = [(0, proposal("good", sim.ChaincodeOp.set("a", 1), nonce=1))]
        forward = {"E1": sim.EndorserBehavior(CENSORING), "E3": sim.EndorserBehavior(CRASHED)}
        backward = {"E3": sim.EndorserBehavior(CRASHED), "E1": sim.EndorserBehavior(CENSORING)}
        report_a = sim.run_scenario(basic_config(workload, behaviors=forward))
        report_b = sim.run_scenario(basic_config(workload, behaviors=backward))
        assert report_a.to_json_bytes() == report_b.to_json_bytes()

    def test_report_counts_match_a_recount_from_the_traces(self):
        for seed in range(6):
            config = random_scenario(seed)
            report = sim.run_scenario(config)
            recount = sim.detect_feared_events(
                report.committed, report.per_peer_state_digest, config.proposals()
            )
            assert recount == report.feared_event_counts

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(sim.PeerDigest, st.integers(0, 3), st.integers(0, 3), st.sampled_from("abc")),
                    max_size=24))
    def test_inconsistent_reads_by_digest_class_equal_the_pairwise_count(self, digests):
        """Repeated peers and heights included: each pair of records at one height with different digests counts."""
        pairwise = sum(
            a.block_height == b.block_height and a.digest != b.digest
            for i, a in enumerate(digests) for b in digests[i + 1:]
        )
        assert sim.detect_feared_events((), digests, ())[FearedEvent.INCONSISTENT_READ] == pairwise

    def test_skip_v7_peer_diverges_from_every_correct_peer(self):
        config = basic_config(
            [
                (0, proposal("t1", sim.ChaincodeOp.set("k", 1), nonce=1)),
                (0, proposal("t2", sim.ChaincodeOp.set("k", 2), nonce=2)),
            ],
            peers=3,
            skip={2},
        )
        report = sim.run_scenario(config)
        assert report.feared_event_counts[FearedEvent.INCONSISTENT_READ] >= 2  # against both correct peers

    def test_committed_versions_strictly_increase_per_key(self):
        for seed in range(4):
            result = sim.simulate(random_scenario(seed))
            last_version: dict[str, tuple[int, int]] = {}
            entries = iter(result.report.committed)
            for block in result.run.blocks:
                for index, submission in enumerate(block.submissions):
                    entry = next(entries)
                    if not entry.valid:
                        continue
                    for key, _ in submission.endorsements[0].rwset.writes:
                        version = (block.block_no, index)
                        assert version > last_version.get(key, (0, 0))
                        last_version[key] = version

    def test_sequential_replay_matches_every_correct_peer(self):
        for seed in range(8):
            config = random_scenario(seed)
            result = sim.simulate(config)
            oracle = replay_committed(result)
            for peer, state in enumerate(result.peer_states):
                if peer not in config.skip_v7_peers:
                    assert state == oracle, f"seed {seed} peer {peer}"


def own_digests(config, result):
    """Each peer's state digest after each block, from that peer's own validation chain."""
    digests = {}
    holds = verdicts_of(config.policy)
    for peer in range(config.peers):
        state = sim.KvStore()
        for block in result.run.blocks:
            sim.validate_block(state, block, config.msp_endorsers, holds, peer in config.skip_v7_peers)
            digests[peer, block.block_no] = state.digest()
    return digests


class TestPeerDigests:
    def conflicting_writes(self, skip):
        """Same-key writes in one block, so a skip_v7 peer applies what the others refuse."""
        return basic_config(
            [
                (0, proposal("t1", sim.ChaincodeOp.set("k", 1), nonce=1)),
                (0, proposal("t2", sim.ChaincodeOp.set("k", 2), nonce=2)),
                (1, proposal("t3", sim.ChaincodeOp.set("j", 3), nonce=3)),
                (2, proposal("t4", sim.ChaincodeOp.set("j", 4), nonce=4)),
                (2, proposal("t5", sim.ChaincodeOp.set("j", 5), nonce=5)),
            ],
            peers=4,
            skip=skip,
        )

    def assert_every_digest_is_the_peers_own(self, config):
        result = sim.simulate(config)
        expected = own_digests(config, result)
        reported = result.report.per_peer_state_digest
        assert len(reported) == len(expected)
        for record in reported:
            assert record.digest == expected[record.peer, record.block_height], record
        return reported

    @pytest.mark.parametrize("skip", [{1}, {0}, {3}, {1, 2}, {0, 2}])
    def test_a_diverging_peer_never_reports_a_neighbours_digest(self, skip):
        reported = self.assert_every_digest_is_the_peers_own(self.conflicting_writes(skip=frozenset(skip)))
        by_height: dict[int, set[str]] = {}
        for record in reported:
            by_height.setdefault(record.block_height, set()).add(record.digest)
        assert any(len(digests) > 1 for digests in by_height.values())  # the peers did diverge

    @pytest.mark.parametrize("seed", range(6))
    def test_random_runs_with_an_interior_skip_v7_peer(self, seed):
        config = random_scenario(seed, peers_range=(4, 4), skip_v7=frozenset({1}))
        self.assert_every_digest_is_the_peers_own(config)


class TestPipelineStage:
    @pytest.mark.parametrize("seed", range(10))
    def test_the_ordering_commit_stage_is_what_simulate_reports(self, seed):
        config = random_scenario(seed, behavior_modes=(HONEST, FRAUDULENT, CENSORING, CRASHED, DOSED),
                                 peers_range=(3, 4), skip_v7=frozenset({seed % 3}))
        run, result = sim.run_pipeline(config), sim.simulate(config)
        assert run.committed == result.report.committed
        assert run.refusals == result.report.endorsement_refusals
        assert run.liveness_lost_at == result.report.liveness_lost_at
        assert run == result.run

    @pytest.mark.parametrize("seed", range(10))
    def test_every_peer_state_is_a_store_of_its_own(self, seed):
        """Equal peers hold equal stores, never one shared store: ``validate_block`` updates the store it is given."""
        config = random_scenario(seed, behavior_modes=ALL_MODES, peers_range=(3, 4), skip_v7=frozenset({seed % 3}))
        result = sim.simulate(config)
        stores = [*result.peer_states, result.run.canonical_state]
        assert len({id(store) for store in stores}) == len(stores)


def reference_ordering_step(cluster, pending, step, crash_schedule):
    """``ordering_step`` as it was before an idle step returned its cluster unchanged."""
    crashed = cluster.crashed | {index for s, index in crash_schedule if s == step}
    leader = cluster.leader
    ready_at = cluster.leader_ready_at
    if leader is not None and leader in crashed:
        order = ((leader + offset) % cluster.n for offset in range(1, cluster.n + 1))
        leader = next((index for index in order if index not in crashed), None)
        ready_at = step + 1

    updated = replace(cluster, crashed=crashed, leader=leader, leader_ready_at=ready_at)
    if not (updated.live and leader is not None and step >= ready_at and pending):
        return [], updated
    batch = tuple(pending.popleft() for _ in range(min(cluster.batch_size, len(pending))))
    return [sim.Block(cluster.next_block_no, batch)], replace(updated, next_block_no=cluster.next_block_no + 1)


def per_endorser_pipeline(config):
    """The ordering/commit stage as a plain loop, the reference ``run_pipeline`` must equal.

    It asks ``endorse`` once per answering endorser per proposal, with no
    memo, builds that endorser's record from the answer, evaluates the
    policy afresh at submission and at V4, and steps through every step
    0..horizon.
    """
    endorser_order = sorted(config.msp_endorsers)
    fresh = partial(eval_policy, config.policy)  # no memo: every call evaluates the policy
    by_step = {}
    for step, tx in config.workload:
        by_step.setdefault(step, []).append(tx)
    canonical_state = sim.KvStore()
    cluster = sim.OrdererCluster(n=config.orderers.n, batch_size=config.orderers.batch_size)
    pending, seen_nonces, submitted = deque(), set(), set()
    refusals, committed, blocks_log, liveness_lost_at = [], [], [], None
    for step in range(config.horizon + 1):
        for tx in by_step.get(step, ()):
            endorsements = []
            for endorser_id in endorser_order:
                mode = reference_answering_mode(config.endorser_behaviors.get(endorser_id, sim.HONEST_BEHAVIOR), step)
                if mode is None:
                    continue
                answer = sim.endorse(mode, tx, canonical_state, seen_nonces, config.msp_emitters)
                if isinstance(answer, sim.ReadWriteSet):
                    endorsements.append(sim.Endorsement(endorser_id, answer))
                else:
                    criterion, reason = answer
                    refusals.append(sim.RefusalRecord(tx.tx_id, endorser_id, criterion, reason))
            seen_nonces.add((tx.client_id, tx.nonce))
            submission = sim.assemble_submission(tx, endorsements, fresh)
            if submission is not None:
                pending.append(submission)
                submitted.add(tx.tx_id)
        cut, cluster = reference_ordering_step(cluster, pending, step, config.orderers.crash_schedule)
        if liveness_lost_at is None and not cluster.live:
            liveness_lost_at = step
        for block in cut:
            blocks_log.append(block)
            flags = sim.validate_block(canonical_state, block, config.msp_endorsers, fresh, False)
            for (valid, failed), submission in zip(flags, block.submissions):
                committed.append(sim.CommittedTx(block.block_no, submission.proposal.tx_id, valid, failed))
    return sim.PipelineRun(tuple(committed), tuple(refusals), tuple(blocks_log), canonical_state,
                           frozenset(submitted), liveness_lost_at)


ALL_MODES = (HONEST, FRAUDULENT, CENSORING, CRASHED, DOSED)
DIFFERENTIAL_SEEDS = range(40)


class TestRunPipelineMatchesThePerEndorserLoop:
    def assert_equal_runs(self, config):
        run, reference = sim.run_pipeline(config), per_endorser_pipeline(config)
        assert run.committed == reference.committed
        assert run.refusals == reference.refusals
        assert run.blocks == reference.blocks
        assert run.submitted_tx_ids == reference.submitted_tx_ids
        assert run.liveness_lost_at == reference.liveness_lost_at
        assert run == reference
        return run

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_random_scenarios(self, seed):
        self.assert_equal_runs(random_scenario(seed, behavior_modes=ALL_MODES))

    def test_the_random_scenarios_use_every_mode_partial_dos_windows_and_crash_schedules(self):
        configs = [random_scenario(seed, behavior_modes=ALL_MODES) for seed in DIFFERENTIAL_SEEDS]
        behaviors = [b for config in configs for b in config.endorser_behaviors.values()]
        assert {b.mode for b in behaviors} == set(ALL_MODES) - {HONEST}  # honest endorsers get no entry
        assert any(b.mode == DOSED and 0 < b.from_step for b in behaviors)
        assert sum(bool(config.orderers.crash_schedule) for config in configs) >= 5

    @pytest.mark.parametrize("policy", [any_of(E3), all_of(E3)], ids=["any", "all"])
    def test_a_crash_after_the_last_proposal_still_costs_liveness(self, policy):
        workload = [(0, proposal("t0", sim.ChaincodeOp.set("a", 1), nonce=1)),
                    (1, proposal("t1", sim.ChaincodeOp.transfer("a", "b", 1), nonce=2))]
        config = basic_config(workload, policy=policy, behaviors={"E2": sim.dosed(1, 2)}, horizon=9,
                              orderers=sim.OrdererConfig(n=3, batch_size=4, crash_schedule=((5, 0), (7, 1))))
        assert self.assert_equal_runs(config).liveness_lost_at == 7

    def test_pending_submissions_outlive_the_workload(self):
        workload = [(0, proposal(f"t{i}", sim.ChaincodeOp.set(f"k{i}", i), nonce=i + 1)) for i in range(4)]
        config = basic_config(workload, behaviors={"E3": sim.EndorserBehavior(FRAUDULENT)}, horizon=8,
                              orderers=sim.OrdererConfig(n=3, batch_size=1, crash_schedule=((1, 0),)))
        run = self.assert_equal_runs(config)
        assert len(run.blocks) == 4 and run.liveness_lost_at is None  # cut at steps 0, 2, 3 and 4

    def test_a_dos_endorser_is_silent_inside_its_window_and_honest_outside_it(self):
        workload = [(step, proposal(f"t{step}", sim.ChaincodeOp.noop(), nonce=step)) for step in range(1, 6)]
        run = self.assert_equal_runs(basic_config(workload, behaviors={"E1": sim.dosed(2, 4)}, horizon=5))
        signers = {s.proposal.tx_id: {e.endorser_id for e in s.endorsements} for b in run.blocks for s in b.submissions}
        assert signers == {"t1": set(E3), "t2": {"E2", "E3"}, "t3": {"E2", "E3"}, "t4": {"E2", "E3"}, "t5": set(E3)}
        assert run.refusals == ()

    def test_a_crashed_endorser_leaves_no_record(self):
        workload = [(0, proposal("t0", sim.ChaincodeOp.set("a", 1), nonce=1)),
                    (0, proposal("t1", sim.ChaincodeOp.transfer("a", "b", 5), nonce=2))]
        run = self.assert_equal_runs(basic_config(workload, behaviors={"E2": sim.EndorserBehavior(CRASHED)}))
        assert [e.endorser_id for b in run.blocks for s in b.submissions for e in s.endorsements] == ["E1", "E3"]
        assert [(r.tx_id, r.endorser_id, r.failed_criterion) for r in run.refusals] == [("t1", "E1", sim.V2),
                                                                                         ("t1", "E3", sim.V2)]

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_endorse_is_asked_once_per_answering_mode_and_every_record_carries_its_answer(self, monkeypatch, seed):
        config = random_scenario(seed, behavior_modes=ALL_MODES)
        asked, real = {}, engine.endorse

        def endorse(mode, tx, *args):
            assert (tx.tx_id, mode) not in asked
            asked[tx.tx_id, mode] = real(mode, tx, *args)
            return asked[tx.tx_id, mode]

        monkeypatch.setattr(engine, "endorse", endorse)
        run = sim.run_pipeline(config)
        modes = {}  # (tx_id, endorser_id) -> the mode that endorser answers the proposal in
        for step, tx in config.workload:
            for endorser_id in config.msp_endorsers:
                mode = reference_answering_mode(config.endorser_behaviors.get(endorser_id, sim.HONEST_BEHAVIOR), step)
                if mode is not None:
                    modes[tx.tx_id, endorser_id] = mode
        assert set(asked) == {(tx_id, mode) for (tx_id, _), mode in modes.items()}
        answers = {(tx_id, e): asked[tx_id, mode] for (tx_id, e), mode in modes.items()}
        refused = {key: answer for key, answer in answers.items() if not isinstance(answer, sim.ReadWriteSet)}
        assert len(run.refusals) == len(refused)
        assert {(r.tx_id, r.endorser_id): (r.failed_criterion, r.reason) for r in run.refusals} == refused
        for block in run.blocks:
            for submission in block.submissions:
                tx_id = submission.proposal.tx_id
                assert submission.endorsements == tuple(
                    sim.Endorsement(e, answers[tx_id, e])
                    for e in sorted(config.msp_endorsers) if (tx_id, e) in answers and (tx_id, e) not in refused
                )


@st.composite
def silenced_endorsers(draw):
    """A random base under a random nested policy, and one of its endorsers."""
    base = random_scenario(draw(st.integers(0, 63)), behavior_modes=(HONEST, FRAUDULENT, CENSORING, CRASHED, DOSED))
    endorsers = sorted(base.msp_endorsers)
    policy = draw(nested_policies(max_depth=3, idents=endorsers))
    return replace(base, policy=policy), draw(st.sampled_from(endorsers))


@settings(max_examples=60, deadline=None)
@given(silenced_endorsers())
def test_censoring_crashed_and_whole_horizon_dos_endorsers_commit_alike(case):
    """None of the three silent modes adds an endorsement, so only the refusal records tell them apart."""
    base, endorser = case
    runs = {
        mode: sim.run_pipeline(base.with_behaviors({**base.endorser_behaviors, endorser: behavior}))
        for mode, behavior in (
            (CENSORING, sim.EndorserBehavior(CENSORING)),
            (CRASHED, sim.EndorserBehavior(CRASHED)),
            (DOSED, sim.dosed(0, base.horizon)),
        )
    }
    crashed = runs[CRASHED]
    for run in runs.values():
        assert (run.committed, run.blocks, run.submitted_tx_ids) == (
            crashed.committed, crashed.blocks, crashed.submitted_tx_ids
        )
    assert runs[DOSED].refusals == crashed.refusals
    own = [r for r in runs[CENSORING].refusals if r.endorser_id == endorser]
    assert all((r.failed_criterion, r.reason) == (None, "censorship") for r in own)
    assert tuple(r for r in runs[CENSORING].refusals if r.endorser_id != endorser) == crashed.refusals


class TestOrderingLiveness:
    def workload(self, steps):
        return [
            (step, proposal(f"t{i}", sim.ChaincodeOp.set(f"key{i}", i), nonce=i + 1))
            for i, step in enumerate(steps)
        ]

    def test_minority_crashes_still_commit_everything(self):
        config = basic_config(
            self.workload([0, 1, 5, 6]),
            orderers=sim.OrdererConfig(n=5, crash_schedule=((2, 0), (4, 1))),
            horizon=12,
        )
        report = sim.run_scenario(config)
        assert report.liveness_lost_at is None
        assert report.feared_event_counts[FearedEvent.VALID_REJECTED] == 0

    def test_majority_crashes_halt_block_production_safely(self):
        config = basic_config(
            self.workload([0, 1, 5, 7]),
            orderers=sim.OrdererConfig(n=5, crash_schedule=((2, 0), (4, 1), (6, 2))),
            horizon=12,
        )
        report = sim.run_scenario(config)
        assert report.liveness_lost_at == 6
        assert report.feared_event_counts[FearedEvent.VALID_REJECTED] >= 1  # the step-7 tx starves
        assert report.feared_event_counts[FearedEvent.INVALID_ACCEPTED] == 0
        assert report.feared_event_counts[FearedEvent.INCONSISTENT_READ] == 0

    def test_crashes_of_orderers_never_break_safety(self):
        for seed in range(10):
            config = random_scenario(seed, behavior_modes=(HONEST,), orderer_crashes=True)
            report = sim.run_scenario(config)
            assert report.feared_event_counts[FearedEvent.INVALID_ACCEPTED] == 0
            assert report.feared_event_counts[FearedEvent.INCONSISTENT_READ] == 0


class TestScenarioDocuments:
    @pytest.mark.parametrize(
        "seed, options",
        [
            (5, {"skip_v7": {0}}),
            (1, {"behavior_modes": (HONEST, FRAUDULENT, CENSORING, CRASHED, DOSED), "skip_v7": {1}}),
            (3, {"behavior_modes": (HONEST, DOSED), "peers_range": (3, 5), "skip_v7": {0, 2}}),
            (8, {"behavior_modes": (HONEST, FRAUDULENT, DOSED), "seed_funds": False}),
            (13, {"orderer_crashes": False, "behavior_modes": (HONEST, CENSORING)}),
            (21, {}),
            (34, {"behavior_modes": (DOSED,), "peers_range": (4, 4), "skip_v7": {3}}),
        ],
        ids=["skip_v7", "all-modes", "dos-windows", "unfunded", "no-orderer-crashes", "defaults", "all-dosed"],
    )
    def test_round_trip(self, seed, options):
        config = random_scenario(seed, **options)
        parsed = sim.parse_scenario(sim.scenario_bytes(config).decode("utf-8"))
        assert parsed == config
        assert sim.scenario_digest(parsed) == sim.scenario_digest(config)

    def test_report_bytes_are_canonical(self):
        report = sim.run_scenario(random_scenario(3))
        data = report.to_json_bytes()
        assert data == sim.run_scenario(random_scenario(3)).to_json_bytes()
        assert data.endswith(b"\n")

    def test_config_validation(self):
        tx = proposal("t", sim.ChaincodeOp.noop(), nonce=1)
        config = basic_config([(0, tx)])
        for changes, message in (
            ({"peers": 0}, "peer count must lie in 1..1000"),
            ({"horizon": -1}, "horizon must lie in 0..1000000"),
            ({"orderers": sim.OrdererConfig(n=0)}, "orderer count must lie in 1..1000"),
            ({"skip_v7_peers": frozenset({5})}, "skip_v7 peer 5 is out of range"),
            ({"endorser_behaviors": {"EX": sim.HONEST_BEHAVIOR}},
             "behaviors name endorsers outside the MSP set: ['EX']"),
            ({"workload": ((9, tx),)}, "workload step 9 is outside 0..horizon"),
            ({"orderers": sim.OrdererConfig(n=3, batch_size=0)}, "batch size must be at least 1"),
            ({"orderers": sim.OrdererConfig(n=3, crash_schedule=((1, 3),))},
             "crash schedule entry (1, 3) is out of range"),
            ({"orderers": sim.OrdererConfig(n=3, crash_schedule=((-1, 0),))},
             "crash schedule entry (-1, 0) is out of range"),
        ):
            with pytest.raises(sim.ConfigInvalid) as caught:
                replace(config, **changes)  # building the broken config raises
            assert str(caught.value) == message
        with pytest.raises(sim.ConfigInvalid, match=r"^behaviors name endorsers outside the MSP set: \['EX'\]$"):
            config.with_behaviors({"EX": sim.HONEST_BEHAVIOR})

    @pytest.mark.parametrize(
        ("mode", "window", "message"),
        [
            (DOSED, (5, 2), "a denial-of-service window needs from_step <= to_step"),
            (DOSED, (None, 2), "a denial-of-service window needs from_step <= to_step"),
            (DOSED, (-5, -1), "a denial-of-service window starts at step 0 or later"),
            (HONEST, (1, 2), "behavior 'honest' does not take a step window"),
        ],
    )
    def test_a_bad_behavior_window_is_refused(self, mode, window, message):
        with pytest.raises(sim.ConfigInvalid) as caught:
            sim.EndorserBehavior(mode, *window)
        assert str(caught.value) == message

    def test_duplicate_tx_ids_rejected(self):
        with pytest.raises(sim.ConfigInvalid, match="^duplicate tx_id 't'$"):
            basic_config(
                [
                    (0, proposal("t", sim.ChaincodeOp.noop(), nonce=1)),
                    (1, proposal("t", sim.ChaincodeOp.noop(), nonce=2)),
                ]
            )

    def test_malformed_json_rejected(self):
        with pytest.raises(sim.ConfigInvalid):
            sim.parse_scenario("{not json")
        with pytest.raises(sim.ConfigInvalid):
            sim.parse_scenario('{"horizon": 3}')
        with pytest.raises(sim.ConfigInvalid, match="^scenario document must be a JSON object$"):
            sim.parse_scenario("[1, 2]")
