from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockcase import __version__, eov_sim as sim
from blockcase.determinism import MASK64
from blockcase.policy_analysis import (
    BadProbabilityError,
    CENSORING,
    CRASHED,
    DOSED,
    FAULT_MODES,
    FRAUDULENT,
    HONEST,
    CampaignReport,
    IoFailure,
    _ci95_halfwidth,
    _normalize_probabilities,
    all_of,
    any_of,
    censorship_possible,
    draw_behavior_modes,
    emit_evidence_report,
    eval_policy,
    fraud_possible,
    monte_carlo_campaign,
    out_of,
    parse_policy,
    policy_digest,
    serialize_policy,
)
from simgen import KEYS, random_scenario
from test_policy_analysis import nested_policies

E3 = ["E1", "E2", "E3"]
HONEST_E3 = {e: HONEST for e in E3}


def fraud_base(policy=None):
    return sim.fraud_probe_scenario(policy or out_of(2, E3), HONEST_E3)


class TestCampaign:
    def test_zero_probabilities_give_zero_rates(self):
        report = monte_carlo_campaign(fraud_base(), {}, 200, seed=1)
        assert report.fraud_success_rate == 0.0
        assert report.censorship_success_rate == 0.0
        assert report.fraud_ci95_halfwidth == 0.0

    def test_certain_fraud_under_any_policy(self):
        report = monte_carlo_campaign(fraud_base(any_of(E3)), {FRAUDULENT: 1.0}, 100, seed=1)
        assert report.fraud_success_rate == 1.0

    def test_certain_censorship_under_all_policy(self):
        base = sim.censorship_probe_scenario(all_of(E3), HONEST_E3)
        report = monte_carlo_campaign(base, {CENSORING: 1.0}, 100, seed=1)
        assert report.censorship_success_rate == 1.0

    def test_threshold_fraud_rate_tracks_the_binomial_tail(self):
        p = 0.3
        report = monte_carlo_campaign(fraud_base(), {FRAUDULENT: p}, 4000, seed=5)
        closed_form = 3 * p * p * (1 - p) + p**3
        assert abs(report.fraud_success_rate - closed_form) <= report.fraud_ci95_halfwidth

    def test_deterministic_given_equal_inputs(self):
        a = monte_carlo_campaign(fraud_base(), {FRAUDULENT: 0.2}, 300, seed=9)
        b = monte_carlo_campaign(fraud_base(), {FRAUDULENT: 0.2}, 300, seed=9)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_different_seeds_differ(self):
        a = monte_carlo_campaign(fraud_base(), {FRAUDULENT: 0.2}, 300, seed=1)
        b = monte_carlo_campaign(fraud_base(), {FRAUDULENT: 0.2}, 300, seed=2)
        assert a.fraud_successes != b.fraud_successes or a.to_json_bytes() != b.to_json_bytes()

    def test_bad_probabilities_rejected(self):
        for probs in ({"levitating": 0.1}, {FRAUDULENT: 1.5}, {FRAUDULENT: 0.7, CENSORING: 0.7}):
            with pytest.raises(BadProbabilityError):
                monte_carlo_campaign(fraud_base(), probs, 10, seed=0)
        with pytest.raises(BadProbabilityError):
            monte_carlo_campaign(fraud_base(), {}, 0, seed=0)
        for seed in (-1, 1 << 64):
            with pytest.raises(BadProbabilityError, match="seed must be an unsigned 64-bit integer"):
                monte_carlo_campaign(fraud_base(), {}, 10, seed=seed)

    def test_report_carries_digests_and_tool_version(self):
        report = monte_carlo_campaign(fraud_base(), {FRAUDULENT: 0.1}, 50, seed=3)
        assert report.policy_digest and report.config_digest
        assert report.n_runs == 50 and report.seed == 3
        assert report.tool.startswith("blockcase ")


def drawn_behaviors(base, modes):
    """Each endorser's behavior as a campaign run draws it: a drawn DoS covers the whole horizon."""
    return {
        e: sim.dosed(0, base.horizon) if mode == DOSED else sim.EndorserBehavior(mode)
        for e, mode in modes.items()
        if mode != HONEST
    }


def run_by_run_campaign(base, fault_probabilities, n_runs, seed):
    """Oracle: one full simulation (peer replay included) per run, with no sharing between runs."""
    probs = _normalize_probabilities(fault_probabilities)
    endorsers = sorted(base.msp_endorsers)
    valid_tx_ids = {p.tx_id for _, p in base.workload if p.op.ground_truth_valid}
    fraud_hits = censorship_hits = 0
    for run_index in range(n_runs):
        modes = draw_behavior_modes(endorsers, probs, seed, run_index)
        result = sim.simulate(base.with_behaviors(drawn_behaviors(base, modes)))
        fraud_hits += result.report.feared_event_counts[sim.FearedEvent.INVALID_ACCEPTED] > 0
        censorship_hits += bool(valid_tx_ids - result.run.submitted_tx_ids)
    fraud_rate, censorship_rate = fraud_hits / n_runs, censorship_hits / n_runs
    return CampaignReport(
        policy_digest=policy_digest(base.policy),
        config_digest=sim.scenario_digest(base),
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


def campaign_base(scenario_seed, policy_text):
    """A random scenario under the given policy, plus one guard-violating transfer."""
    base = random_scenario(scenario_seed)
    invalid = sim.TxProposal("bad", sorted(base.msp_emitters)[0], 999,
                             sim.ChaincodeOp.transfer("unfunded", "sink", 5, valid=False))
    return replace(base, policy=parse_policy(policy_text), workload=base.workload + ((0, invalid),))


ALL_FAULTS = {FRAUDULENT: 0.15, CENSORING: 0.1, CRASHED: 0.1, DOSED: 0.1}
# asymmetric policies, so that a memo that lost track of which endorser drew which mode would miscount;
# scenario seeds 1 and 3 draw 3 endorsers, 0 and 4 draw 5
ORACLE_CASES = [
    (1, "or(E1,and(E2,E3))"),
    (3, "outof(2,E1,E2,E3)"),
    (0, "outof(2,E1,and(E2,E3),or(E4,E5))"),
    (4, "and(E5,outof(2,E1,E2,E3,E4))"),
]


class TestCampaignMatchesRunByRunOracle:
    @pytest.mark.parametrize("scenario_seed, policy_text", ORACLE_CASES)
    @pytest.mark.parametrize("campaign_seed", [0, 7])
    def test_counts_and_bytes_match(self, scenario_seed, policy_text, campaign_seed):
        base = campaign_base(scenario_seed, policy_text)
        report = monte_carlo_campaign(base, ALL_FAULTS, 150, campaign_seed)
        oracle = run_by_run_campaign(base, ALL_FAULTS, 150, campaign_seed)
        assert (report.fraud_successes, report.censorship_successes) == (
            oracle.fraud_successes, oracle.censorship_successes
        )
        assert report.to_json_bytes() == oracle.to_json_bytes()
        assert 0 < oracle.fraud_successes < 150 and 0 < oracle.censorship_successes < 150  # neither is constant

    def test_the_cases_cover_both_policy_sizes(self):
        assert {len(campaign_base(seed, text).msp_endorsers) for seed, text in ORACLE_CASES} == {3, 5}


@st.composite
def fault_probabilities(draw):
    """Per-mode probabilities at the edges of the draw path, the modes left out staying at zero.

    Free values (0.0, the smallest subnormal 5e-324, or up to 0.25 each),
    halvings that sum to exactly 1.0 (every partial sum is exact), or one
    mode at 1.0 with the others at zero.
    """
    modes = draw(st.lists(st.sampled_from(FAULT_MODES), unique=True, max_size=len(FAULT_MODES)))
    shape = draw(st.sampled_from(("free", "sum-one", "certain")))
    if not modes or shape == "free":
        return {mode: draw(st.sampled_from((0.0, 5e-324)) | st.floats(0.0, 0.25)) for mode in modes}
    if shape == "certain":
        return {mode: 1.0 if i == 0 else 0.0 for i, mode in enumerate(modes)}
    return {mode: 0.5 ** min(i + 1, len(modes) - 1) for i, mode in enumerate(modes)}


@st.composite
def campaign_cases(draw):
    """A random base whose policy is nested, may repeat identities and may leave MSP endorsers unnamed,
    with its fault probabilities and a campaign seed from the whole 64-bit range."""
    scenario_seed = draw(st.integers(0, 15))
    endorsers = sorted(random_scenario(scenario_seed).msp_endorsers)
    named = endorsers[: draw(st.integers(1, len(endorsers)))]
    policy = draw(nested_policies(max_depth=3, idents=named))
    campaign_seed = draw(st.sampled_from((0, MASK64)) | st.integers(0, MASK64))
    return campaign_base(scenario_seed, serialize_policy(policy)), draw(fault_probabilities()), campaign_seed


EDGE_BASE = campaign_base(0, "outof(2,E1,and(E2,E3),or(E4,E5))")


@settings(max_examples=settings.default.max_examples * 2 // 5, deadline=None)  # ten times that when thorough
@given(campaign_cases())
@example((EDGE_BASE, ALL_FAULTS, 0))
@example((EDGE_BASE, {FRAUDULENT: 0.5, CENSORING: 0.25, DOSED: 0.25}, MASK64))  # sums to exactly 1.0
@example((EDGE_BASE, {CRASHED: 1.0, FRAUDULENT: 0.0}, 0))
@example((EDGE_BASE, {FRAUDULENT: 1.0}, MASK64))
@example((EDGE_BASE, {CENSORING: 5e-324, FRAUDULENT: 0.3, DOSED: 5e-324}, 0))
@example((fraud_base(), ALL_FAULTS, 0))  # no ground-truth-valid proposal: a silenced run counts no censorship
@example((fraud_base(), {CRASHED: 1.0}, MASK64))  # every run silenced, and none of them censored
def test_symmetry_reduced_campaign_matches_the_oracle(case):
    base, probabilities, campaign_seed = case
    report = monte_carlo_campaign(base, probabilities, 60, campaign_seed)
    assert report.to_json_bytes() == run_by_run_campaign(base, probabilities, 60, campaign_seed).to_json_bytes()


def verdict_class(policy, modes):
    """The policy's verdicts on a run's answering (honest or fraudulent) endorsers and on its fraudulent ones."""
    answering = {e for e, mode in modes.items() if mode in (HONEST, FRAUDULENT)}
    fraudulent = {e for e, mode in modes.items() if mode == FRAUDULENT}
    return eval_policy(policy, answering), eval_policy(policy, fraudulent)


# one mode for every endorser that puts an assignment in each verdict class, keyed by (verdict on A, verdict on F);
# a campaign simulates the classes in which A holds in their mode, and states the outcome of the first
UNIFORM_MODE = {(False, False): CRASHED, (True, False): HONEST, (True, True): FRAUDULENT}


@given(st.data())
def test_each_uniform_assignment_lies_in_its_verdict_class(data):
    """All crashed, all honest and all fraudulent fall in the three classes, whichever endorsers the policy names."""
    endorsers = [f"E{i}" for i in range(1, data.draw(st.integers(1, 6)) + 1)]
    named = endorsers[: data.draw(st.integers(1, len(endorsers)))]
    policy = data.draw(nested_policies(max_depth=3, idents=named))
    for verdicts, mode in UNIFORM_MODE.items():
        assert verdict_class(policy, dict.fromkeys(endorsers, mode)) == verdicts
    for silent in (CENSORING, DOSED):
        assert verdict_class(policy, dict.fromkeys(endorsers, silent)) == (False, False)


def pipeline_under(base, modes):
    """The ordering/commit stage of ``base`` with each endorser in its mode, as a campaign run draws it."""
    return sim.run_pipeline(base.with_behaviors(drawn_behaviors(base, modes)))


def refused_base(scenario_seed, policy_text):
    """``campaign_base`` plus a proposal from an emitter the MSP does not know (V1) and one that
    replays the nonce of the guard-violating transfer (V3)."""
    base = campaign_base(scenario_seed, policy_text)
    stranger = sim.TxProposal("stranger", "unregistered", 1, sim.ChaincodeOp.set("k1", 7, valid=False))
    replay = sim.TxProposal("replay", sorted(base.msp_emitters)[0], 999, sim.ChaincodeOp.set("k2", 9, valid=False))
    return replace(base, workload=base.workload + ((1, stranger), (1, replay)))


def test_refused_bases_reach_every_honest_refusal():
    criteria = {
        r.failed_criterion for seed in range(16) for r in pipeline_under(refused_base(seed, "E1"), {}).refusals
    }
    assert criteria == {sim.V1, sim.V2, sim.V3}


@pytest.mark.parametrize("scenario_seed, policy_text", ORACLE_CASES)
def test_refused_proposals_leave_the_report_equal_to_the_oracle(scenario_seed, policy_text):
    base = refused_base(scenario_seed, policy_text)
    report = monte_carlo_campaign(base, ALL_FAULTS, 120, 5)
    assert report.to_json_bytes() == run_by_run_campaign(base, ALL_FAULTS, 120, 5).to_json_bytes()


@st.composite
def same_base_assignments(draw):
    """A refused base under a nested policy that may repeat identities and leave MSP endorsers unnamed,
    and four to six assignments of campaign modes, so that at least two share a verdict class."""
    scenario_seed = draw(st.integers(0, 15))
    endorsers = sorted(random_scenario(scenario_seed).msp_endorsers)
    named = endorsers[: draw(st.integers(1, len(endorsers)))]
    policy = draw(nested_policies(max_depth=3, idents=named))
    modes = st.fixed_dictionaries({e: st.sampled_from((HONEST, *FAULT_MODES)) for e in endorsers})
    return refused_base(scenario_seed, serialize_policy(policy)), draw(st.lists(modes, min_size=4, max_size=6))


@settings(deadline=None)  # the loaded profile's budget: ten times as many when thorough
@given(same_base_assignments())
def test_assignments_of_one_verdict_class_commit_alike(case):
    base, assignments = case
    endorsers = sorted(base.msp_endorsers)
    of_class = {}  # each class's outcome under its uniform assignment
    for verdicts, mode in UNIFORM_MODE.items():
        uniform = dict.fromkeys(endorsers, mode)
        assert verdict_class(base.policy, uniform) == verdicts
        run = pipeline_under(base, uniform)
        of_class[verdicts] = (run.committed, run.submitted_tx_ids)
    for modes in assignments:
        run = pipeline_under(base, modes)
        assert (run.committed, run.submitted_tx_ids) == of_class[verdict_class(base.policy, modes)]
    assert of_class[False, False] == ((), frozenset())  # answering endorsers that fail the policy submit nothing


stores = st.dictionaries(
    st.sampled_from(KEYS), st.tuples(st.integers(0, 60), st.tuples(st.integers(0, 3), st.integers(0, 3))), max_size=3
).map(sim.KvStore)
chaincode_ops = st.one_of(
    st.just(sim.ChaincodeOp.noop()),
    st.builds(sim.ChaincodeOp.set, st.sampled_from(KEYS), st.integers(0, 50)),
    st.tuples(st.permutations(KEYS), st.integers(1, 60)).map(
        lambda t: sim.ChaincodeOp.transfer(t[0][0], t[0][1], t[1])
    ),
)


@given(stores, chaincode_ops)
def test_claimed_effects_equal_the_executed_effects_whenever_execution_succeeds(state, op):
    claimed = sim.claimed_effects(state, op)
    try:
        executed = sim.execute_chaincode(state, op)
    except sim.AppFailure:
        return
    assert claimed == executed


H, F = HONEST, FRAUDULENT
# pairs of assignments that agree on the verdict over their answering endorsers but not over their
# fraudulent ones: a campaign that grouped runs by the first verdict alone would count them alike
SPLIT_BY_THE_FRAUDULENT_VERDICT = [
    ("outof(2,E1,E2,E3)", {"E1": F, "E2": F, "E3": H}, {"E1": F, "E2": H, "E3": H}),
    ("or(E1,and(E2,E3))", {"E1": F, "E2": H, "E3": H}, {"E1": H, "E2": F, "E3": H}),
    ("and(E1,outof(2,E2,E3,E4))", {"E1": F, "E2": F, "E3": F, "E4": CRASHED}, {"E1": F, "E2": F, "E3": H, "E4": H}),
]


@pytest.mark.parametrize("policy_text, fraud, no_fraud", SPLIT_BY_THE_FRAUDULENT_VERDICT)
def test_the_fraudulent_verdict_splits_an_overdraft(policy_text, fraud, no_fraud):
    base = fraud_base(parse_policy(policy_text))
    assert verdict_class(base.policy, fraud) == (True, True) and verdict_class(base.policy, no_fraud) == (True, False)
    assert [c.valid for c in pipeline_under(base, fraud).committed] == [True]
    assert pipeline_under(base, no_fraud).committed == ()


class TestSimulationsPerCampaign:
    def count_simulations(self, monkeypatch, base, n_runs):
        """The configs one campaign simulates, and the distinct ordered assignments its runs draw."""
        oracle = run_by_run_campaign(base, ALL_FAULTS, n_runs, 11)
        calls = []
        real = sim.run_pipeline

        def counting(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(sim, "run_pipeline", counting)
        assert monte_carlo_campaign(base, ALL_FAULTS, n_runs, seed=11).to_json_bytes() == oracle.to_json_bytes()
        endorsers, probs = sorted(base.msp_endorsers), _normalize_probabilities(ALL_FAULTS)
        ordered = {tuple(draw_behavior_modes(endorsers, probs, 11, run).items()) for run in range(n_runs)}
        return calls, ordered

    def test_a_threshold_simulates_at_most_two_assignments(self, monkeypatch):
        base = campaign_base(0, "outof(3,E1,E2,E3,E4,E5)")
        calls, ordered = self.count_simulations(monkeypatch, base, 500)
        assert 0 < len(calls) <= 2  # verdict classes in which A holds: F fails, F holds
        assert len(calls) < len(ordered)

    def test_asymmetric_policy_simulates_each_outcome_class(self, monkeypatch):
        base = campaign_base(1, "or(and(E1,E2),and(E1,E3))")
        endorsers = sorted(base.msp_endorsers)
        assert len(endorsers) == 3
        calls, ordered = self.count_simulations(monkeypatch, base, 300)
        simulated = [
            tuple((e, config.endorser_behaviors[e].mode if e in config.endorser_behaviors else HONEST) for e in endorsers)
            for config in calls
        ]
        drawn_classes = {verdict_class(base.policy, dict(assignment)) for assignment in ordered}
        assert len(drawn_classes) == 3
        simulated_classes = [verdicts for verdicts in drawn_classes if verdicts[0]]  # A holds
        assert sorted(verdict_class(base.policy, dict(modes)) for modes in simulated) == sorted(simulated_classes)
        # each such class is simulated once, with every endorser in the mode of its class
        assert sorted(simulated) == sorted(
            tuple((e, UNIFORM_MODE[verdicts]) for e in endorsers) for verdicts in simulated_classes
        )

    @settings(max_examples=settings.default.max_examples // 5, deadline=None)
    @given(campaign_cases())
    @example((EDGE_BASE, ALL_FAULTS, 0))  # draws all three classes
    def test_each_drawn_class_is_simulated_once_with_every_endorser_in_its_mode(self, case):
        base, probabilities, campaign_seed = case
        calls = []
        real = sim.run_pipeline
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "run_pipeline", lambda config: calls.append(config) or real(config))
            monte_carlo_campaign(base, probabilities, 60, campaign_seed)
        endorsers, probs = sorted(base.msp_endorsers), _normalize_probabilities(probabilities)
        drawn_classes = {
            verdict_class(base.policy, draw_behavior_modes(endorsers, probs, campaign_seed, run)) for run in range(60)
        }
        simulated_modes = []
        for config in calls:  # every endorser is in one mode
            mode = config.endorser_behaviors[endorsers[0]].mode
            assert config.endorser_behaviors == dict.fromkeys(endorsers, sim.EndorserBehavior(mode))
            simulated_modes.append(mode)
        # only the classes in which A holds are simulated, each once, all honest or all fraudulent
        assert sorted(simulated_modes) == sorted(UNIFORM_MODE[verdicts] for verdicts in drawn_classes if verdicts[0])

    def test_a_campaign_in_which_nothing_is_submittable_simulates_nothing(self, monkeypatch):
        calls = []
        real = sim.run_pipeline
        monkeypatch.setattr(sim, "run_pipeline", lambda config: calls.append(config) or real(config))
        base = campaign_base(0, "outof(3,E1,E2,E3,E4,E5)")
        report = monte_carlo_campaign(base, {CENSORING: 0.5, CRASHED: 0.25, DOSED: 0.25}, 200, seed=4)
        assert (report.fraud_successes, report.censorship_successes) == (0, 200)
        assert calls == []  # every endorser is silent, so every run is stated


class TestCampaignRunsOnlyTheOrderingCommitStage:
    def test_one_validation_per_cut_block_and_no_digest(self, monkeypatch):
        from blockcase.eov_sim import engine

        runs, validations, digests = [], [], []
        real_run, real_validate, real_digest = sim.run_pipeline, engine.validate_block, sim.KvStore.digest

        def run_pipeline(config):
            runs.append(real_run(config))
            return runs[-1]

        def validate_block(*args):
            validations.append(args[1])
            return real_validate(*args)

        def digest(store):
            digests.append(store)
            return real_digest(store)

        monkeypatch.setattr(sim, "run_pipeline", run_pipeline)
        monkeypatch.setattr(engine, "validate_block", validate_block)
        monkeypatch.setattr(sim.KvStore, "digest", digest)
        base = replace(campaign_base(4, "and(E5,outof(2,E1,E2,E3,E4))"), peers=4, skip_v7_peers=frozenset({1}))
        monte_carlo_campaign(base, ALL_FAULTS, 200, seed=3)
        assert validations == [block for run in runs for block in run.blocks] and validations
        assert digests == []

    @pytest.mark.parametrize("scenario_seed, policy_text", ORACLE_CASES)
    def test_diverging_peers_leave_the_report_equal_to_the_full_simulation_oracle(self, scenario_seed, policy_text):
        base = replace(campaign_base(scenario_seed, policy_text), peers=4, skip_v7_peers=frozenset({0, 2}))
        report = monte_carlo_campaign(base, ALL_FAULTS, 120, 5)
        assert report.to_json_bytes() == run_by_run_campaign(base, ALL_FAULTS, 120, 5).to_json_bytes()


class TestAnalyzerSimulatorAgreement:
    def test_probe_outcomes_match_the_exact_analysis(self):
        from blockcase.determinism import CounterRng
        from test_policy_analysis import random_policy

        rng = CounterRng(404, stream=9)
        modes = [HONEST, FRAUDULENT, CENSORING, "crashed"]
        for _ in range(40):
            idents = [f"E{i}" for i in range(1, 3 + rng.randrange(4))]
            policy = random_policy(rng, idents)
            labeling = {i: modes[rng.randrange(4)] for i in idents}

            fraud_run = sim.run_scenario(sim.fraud_probe_scenario(policy, labeling))
            seen_fraud = fraud_run.feared_event_counts[sim.FearedEvent.INVALID_ACCEPTED] >= 1
            assert seen_fraud == fraud_possible(policy, labeling)

            censor_run = sim.run_scenario(sim.censorship_probe_scenario(policy, labeling))
            seen_censorship = censor_run.feared_event_counts[sim.FearedEvent.VALID_REJECTED] >= 1
            assert seen_censorship == censorship_possible(policy, labeling)


class TestEvidenceReport:
    def test_emit_is_stable_and_returns_the_file_digest(self, tmp_path):
        report = monte_carlo_campaign(fraud_base(), {FRAUDULENT: 0.1}, 50, seed=3)
        path = tmp_path / "evidence.json"
        size_a, digest_a = emit_evidence_report(report, path)
        size_b, digest_b = emit_evidence_report(report, path)
        assert (size_a, digest_a) == (size_b, digest_b)
        assert path.stat().st_size == size_a
        from blockcase.determinism import file_sha256

        assert file_sha256(path) == digest_a

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        report = monte_carlo_campaign(fraud_base(), {}, 5, seed=0)
        with pytest.raises(IoFailure):
            emit_evidence_report(report, tmp_path)  # a directory, not a file

    def test_plain_analysis_results_can_be_emitted(self, tmp_path):
        results = {"fraud_tolerance": 1, "censorship_tolerance": 1, "policy": "outof(2,E1,E2,E3)"}
        path = tmp_path / "analysis.json"
        _, digest = emit_evidence_report(results, path)
        assert path.read_bytes().startswith(b"{\n")
        assert emit_evidence_report(results, path)[1] == digest
