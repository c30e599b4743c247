"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; on failure the line is part of the captured output.
"""

from __future__ import annotations

import itertools
import shutil

from blockcase import corpus_path, corpus_text, eov_sim as sim
from blockcase.cae_dsl import parse, serialize, to_dot
from blockcase.cae_model import ArgumentNode, EvidenceNode, check_well_formed
from blockcase.cli import FINDINGS, OK, main
from blockcase.determinism import CounterRng
from blockcase.policy_analysis import (
    CENSORING,
    CRASHED,
    DOSED,
    FRAUDULENT,
    HONEST,
    all_of,
    any_of,
    censorship_possible,
    censorship_tolerance,
    eval_policy,
    fraud_possible,
    fraud_tolerance,
    identities,
    max_byzantine,
    monte_carlo_campaign,
    out_of,
)
from blockcase.risk_ledger import FearedEvent
from simgen import random_scenario, replay_committed
from test_policy_analysis import random_policy

E3 = ["E1", "E2", "E3"]
CAE_NAMES = ("fig2.cae", "fig3.cae", "fig4.cae", "fig5.cae", "fig6.cae")

REQUIRED_NODE_IDS = {
    "C1c", "C1c.1", "C1c.2", "C1c.3", "C1c.4",
    "C2c", "C2c.1", "C2c.2", "C2c.3",
    "C2c.2s", "C2c.2s.1", "C2c.2s.2",
    "H1c'", "H2c'", "H2c.2s'",
    "P1c.1.1", "P1c.1.2", "P1c.1.3",
    "P2c.2s.1", "P2c.2s.2",
}

CAMPAIGN_SEEDS = range(20, 40)  # fixed, documented seed window for criterion 9


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_corpus_fidelity():
    trees = {name: parse(corpus_text(name)) for name in CAE_NAMES}
    violations = {name: check_well_formed(tree) for name, tree in trees.items()}
    all_ids = set().union(*(tree.nodes.keys() for tree in trees.values()))
    missing = REQUIRED_NODE_IDS - all_ids

    endorser_tree = trees["fig5.cae"]
    under_argument = {
        nid
        for nid in endorser_tree.preorder("A1c.1")
        if isinstance(endorser_tree.nodes[nid], EvidenceNode)
    }
    argument_is_argument = isinstance(endorser_tree.nodes["A1c.1"], ArgumentNode)

    ok = (
        all(not v for v in violations.values())
        and not missing
        and argument_is_argument
        and under_argument == {"P1c.1.1", "P1c.1.2", "P1c.1.3"}
    )
    criterion(
        1,
        ok,
        f"5 corpus files clean, {len(REQUIRED_NODE_IDS)} required ids present, "
        f"3 evidence leaves under the endorser argument",
    )


def test_criterion_02_extreme_policies():
    exact_ok = all(
        censorship_tolerance(all_of([f"E{i}" for i in range(1, n + 1)])) == 0
        and fraud_tolerance(any_of([f"E{i}" for i in range(1, n + 1)])) == 0
        for n in range(2, 9)
    )

    censor_labeling = {"E1": CENSORING, "E2": HONEST, "E3": HONEST}
    censor_report = sim.run_scenario(sim.censorship_probe_scenario(all_of(E3), censor_labeling))
    censor_ok = censor_report.feared_event_counts[FearedEvent.VALID_REJECTED] >= 1

    fraud_labeling = {"E1": FRAUDULENT, "E2": HONEST, "E3": HONEST}
    fraud_report = sim.run_scenario(sim.fraud_probe_scenario(any_of(E3), fraud_labeling))
    fraud_ok = fraud_report.feared_event_counts[FearedEvent.INVALID_ACCEPTED] >= 1

    criterion(
        2,
        exact_ok and censor_ok and fraud_ok,
        "all-of-n censorable by 1, any-of-n defraudable by 1 (n=2..8), simulator reproduces both",
    )


def test_criterion_03_threshold_duality():
    checked = 0
    ok = True
    for n in range(1, 9):
        idents = [f"E{i}" for i in range(1, n + 1)]
        for k in range(1, n + 1):
            policy = out_of(k, idents)
            # subset brute force, straight from the definitions
            brute_fraud = min(
                len(combo)
                for size in range(n + 1)
                for combo in itertools.combinations(idents, size)
                if eval_policy(policy, frozenset(combo))
            ) - 1
            brute_censorship = max(
                c
                for c in range(n + 1)
                if all(
                    eval_policy(policy, frozenset(idents) - frozenset(removed))
                    for removed in itertools.combinations(idents, c)
                )
            )
            ok = ok and fraud_tolerance(policy) == k - 1 == brute_fraud
            ok = ok and censorship_tolerance(policy) == n - k == brute_censorship
            checked += 1
    criterion(3, ok and checked == 36, f"duality exact for all {checked} k-of-n policies, n<=8")


def test_criterion_04_analyzer_simulator_agreement():
    rng = CounterRng(1105, stream=41)
    modes = [HONEST, FRAUDULENT, CENSORING, CRASHED]
    pairs = 0
    agreed = 0
    while pairs < 200:
        idents = [f"E{i}" for i in range(1, 2 + rng.randrange(5))]  # up to 6 identities
        policy = random_policy(rng, idents)
        labeling = {i: modes[rng.randrange(4)] for i in identities(policy)}
        pairs += 1

        fraud_run = sim.run_scenario(sim.fraud_probe_scenario(policy, labeling))
        fraud_agrees = (
            fraud_run.feared_event_counts[FearedEvent.INVALID_ACCEPTED] >= 1
        ) == fraud_possible(policy, labeling)

        censor_run = sim.run_scenario(sim.censorship_probe_scenario(policy, labeling))
        censor_agrees = (
            censor_run.feared_event_counts[FearedEvent.VALID_REJECTED] >= 1
        ) == censorship_possible(policy, labeling)

        if fraud_agrees and censor_agrees:
            agreed += 1
    criterion(4, agreed == pairs, f"{agreed}/{pairs} randomized (policy, labeling) pairs agree")


def test_criterion_05_consistency():
    inconsistent = 0
    for seed in range(100):
        config = random_scenario(seed, behavior_modes=(HONEST, CRASHED, DOSED))
        report = sim.run_scenario(config)
        inconsistent += report.feared_event_counts[FearedEvent.INCONSISTENT_READ]

    conflicting = sim.ScenarioConfig(
        msp_emitters=frozenset({"c1"}),
        msp_endorsers=frozenset(E3),
        endorser_behaviors={},
        policy=any_of(E3),
        orderers=sim.OrdererConfig(n=3, batch_size=10),
        peers=3,
        skip_v7_peers=frozenset({2}),
        workload=(
            (0, sim.TxProposal("t1", "c1", 1, sim.ChaincodeOp.set("k", 1))),
            (0, sim.TxProposal("t2", "c1", 2, sim.ChaincodeOp.set("k", 2))),
        ),
        horizon=2,
    )
    injected = sim.run_scenario(conflicting).feared_event_counts[FearedEvent.INCONSISTENT_READ]
    criterion(
        5,
        inconsistent == 0 and injected >= 1,
        f"0 inconsistent reads over 100 crash/DoS scenarios; injected validation skip yields {injected}",
    )


def test_criterion_06_mvcc_oracle_equivalence():
    mismatches = 0
    runs = 0
    for seed in range(100, 200):
        config = random_scenario(seed, behavior_modes=(HONEST, CRASHED, DOSED))
        result = sim.simulate(config)
        oracle = replay_committed(result)
        runs += 1
        for peer, state in enumerate(result.peer_states):
            if peer not in config.skip_v7_peers and state != oracle:
                mismatches += 1
    criterion(6, mismatches == 0, f"{runs} randomized workloads replay to identical stores")


def test_criterion_07_cft_ordering():
    def workload(steps):
        return tuple(
            (step, sim.TxProposal(f"t{i}", "c1", i + 1, sim.ChaincodeOp.set(f"key{i}", i)))
            for i, step in enumerate(steps)
        )

    def config(crashes):
        return sim.ScenarioConfig(
            msp_emitters=frozenset({"c1"}),
            msp_endorsers=frozenset(E3),
            endorser_behaviors={},
            policy=any_of(E3),
            orderers=sim.OrdererConfig(n=5, crash_schedule=crashes),
            peers=2,
            workload=workload([0, 1, 5, 7]),
            horizon=12,
        )

    two = sim.run_scenario(config(((2, 0), (4, 1))))
    two_ok = (
        two.feared_event_counts[FearedEvent.VALID_REJECTED] == 0
        and two.liveness_lost_at is None
    )

    three = sim.run_scenario(config(((2, 0), (4, 1), (6, 2))))
    three_ok = (
        three.liveness_lost_at == 6
        and three.feared_event_counts[FearedEvent.INVALID_ACCEPTED] == 0
        and three.feared_event_counts[FearedEvent.INCONSISTENT_READ] == 0
        and three.feared_event_counts[FearedEvent.VALID_REJECTED] >= 1
    )
    criterion(7, two_ok and three_ok, "2 of 5 crashes commit everything; 3 halt safely")


def test_criterion_08_byzantine_bound():
    ok = max_byzantine(3) == 0 and max_byzantine(4) == 1
    for n in range(1, 101):
        b = max_byzantine(n)
        ok = ok and b / n < 1 / 3 <= (b + 1) / n
    criterion(8, ok, "strict one-third bound holds for n=1..100")


def test_criterion_09_campaign_statistics():
    base = sim.fraud_probe_scenario(out_of(2, E3), {e: HONEST for e in E3})
    ok = True
    summary = []
    for p in (0.1, 0.3):
        closed_form = 3 * p * p * (1 - p) + p**3
        inside = 0
        for seed in CAMPAIGN_SEEDS:
            report = monte_carlo_campaign(base, {FRAUDULENT: p}, 10000, seed)
            if abs(report.fraud_success_rate - closed_form) <= report.fraud_ci95_halfwidth:
                inside += 1
        summary.append(f"p={p}: {inside}/20 seeds inside the reported CI")
        ok = ok and inside >= 19
    criterion(9, ok, "; ".join(summary))


def test_criterion_10_determinism(tmp_path, capsys):
    config = random_scenario(7)
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(sim.scenario_bytes(config))
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["sim", "run", str(scenario), "--out", str(first)])
    main(["sim", "run", str(scenario), "--out", str(second)])
    sim_ok = first.read_bytes() == second.read_bytes()

    policy_file = tmp_path / "policy.txt"
    policy_file.write_text("outof(2,E1,E2,E3)\n")
    ev1, ev2 = tmp_path / "e1.json", tmp_path / "e2.json"
    for out in (ev1, ev2):
        main(["policy", "campaign", str(policy_file), "--runs", "200", "--seed", "5",
              "--prob", "fraudulent=0.4", "--out", str(out)])
    campaign_ok = ev1.read_bytes() == ev2.read_bytes()

    dot1, dot2 = tmp_path / "a.dot", tmp_path / "b.dot"
    main(["cae", "render", str(corpus_path("fig6.cae")), "--out", str(dot1)])
    main(["cae", "render", str(corpus_path("fig6.cae")), "--out", str(dot2)])
    render_ok = dot1.read_bytes() == dot2.read_bytes()

    tree = parse(corpus_text("fig5.cae"))
    serialize_ok = serialize(tree) == serialize(tree) and to_dot(tree) == to_dot(tree)

    capsys.readouterr()  # drop the CLI chatter before printing the verdict
    criterion(
        10,
        sim_ok and campaign_ok and render_ok and serialize_ok,
        "sim run, policy campaign, cae render and serialize are byte-deterministic",
    )


def test_criterion_11_end_to_end_justification_loop(tmp_path, capsys):
    for name in ("fig5.cae", "endorser_risks.risk"):
        shutil.copy(corpus_path(name), tmp_path / name)
    cae = tmp_path / "fig5.cae"
    registry = tmp_path / "endorser_risks.risk"
    report = tmp_path / "campaign.json"
    policy_file = tmp_path / "policy.txt"
    policy_file.write_text("outof(2,E1,E2,E3)\n")

    link_code = main(["policy", "campaign", str(policy_file), "--runs", "100", "--seed", "8",
                      "--out", str(report), "--link", f"{cae}:P1c.1.3"])
    covered_code = main(["risk", "coverage", str(registry), str(cae)])
    out = capsys.readouterr().out
    all_covered = all(f"R{i}: Covered" in out for i in range(1, 7))

    report.unlink()
    missing_code = main(["risk", "coverage", str(registry), str(cae)])

    # restore the report, then corrupt the recorded digest
    main(["policy", "campaign", str(policy_file), "--runs", "100", "--seed", "8",
          "--out", str(report), "--link", f"{cae}:P1c.1.3"])
    text = cae.read_text()
    good_digest = text.split('digest="', 1)[1][:64]
    flipped = ("0" if good_digest[0] != "0" else "1") + good_digest[1:]
    cae.write_text(text.replace(good_digest, flipped))
    corrupt_code = main(["risk", "coverage", str(registry), str(cae)])

    capsys.readouterr()
    criterion(
        11,
        link_code == OK
        and covered_code == OK
        and all_covered
        and missing_code == FINDINGS
        and corrupt_code == FINDINGS,
        "campaign links into the tree, coverage passes, then flags a deleted or corrupted report",
    )
