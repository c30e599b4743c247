from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcase import corpus_path, corpus_text, eov_sim as sim, parse
from blockcase import cae_dsl, cli
from blockcase.cli import FINDINGS, INTERNAL_ERROR, IO_ERROR, OK, PARSE_ERROR, main
from blockcase.eov_sim.scenario import MAX_HORIZON, MAX_ORDERERS, MAX_PEERS
from blockcase.policy_analysis import FRAUDULENT, all_of, out_of
from conftest import deep_cae
from test_eov_sim import basic_config, proposal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workdir(tmp_path):
    for name in ("fig5.cae", "endorser_risks.risk"):
        shutil.copy(corpus_path(name), tmp_path / name)
    return tmp_path


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["cae", "check"], ["file"]),
        (["cae", "render"], ["file", "--out"]),
        (["cae", "status"], ["file"]),
        (["risk", "coverage"], ["registry", "cae"]),
        (["sim", "run"], ["scenario", "--seed", "--out"]),
        (["policy", "tolerance"], ["policy"]),
        (["policy", "campaign"], ["policy", "--runs", "--seed", "--scenario", "--prob", "--out", "--link"]),
    ],
)
def test_help_lists_the_documented_flags(capsys, argv, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out


# the choices that the top level and each group list, in order
LEVEL_CHOICES = [
    ([], "cae,risk,sim,policy"),
    (["cae"], "check,render,status"),
    (["risk"], "coverage"),
    (["sim"], "run"),
    (["policy"], "tolerance,campaign"),
]


@pytest.mark.parametrize(("argv", "choices"), LEVEL_CHOICES)
def test_each_level_lists_its_choices_in_help_and_usage_errors(capsys, argv, choices):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--help"])
    assert exit_info.value.code == 0
    assert f"{{{choices}}}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["bogus"])
    assert exit_info.value.code == PARSE_ERROR
    listed = ", ".join(f"'{choice}'" for choice in choices.split(","))
    assert f"invalid choice: 'bogus' (choose from {listed})" in capsys.readouterr().err


COMMANDS = [["cae", "check"], ["cae", "render"], ["cae", "status"], ["risk", "coverage"], ["sim", "run"],
            ["policy", "tolerance"], ["policy", "campaign"]]
# command lines that argparse answers itself: each command's help, each command with a required argument
# missing, and a --runs or --seed that is no integer
PARSER_EXITS = [
    *([*command, "--help"] for command in COMMANDS),
    *COMMANDS,
    ["cae", "render", "tree.cae"],
    ["risk", "coverage", "registry.risk"],
    ["policy", "campaign", "policy.txt"],
    ["sim", "run", "scenario.json", "--seed", "x"],
    ["policy", "campaign", "policy.txt", "--out", "r.json", "--runs", "x"],
    ["policy", "campaign", "policy.txt", "--out", "r.json", "--seed", "1.5"],
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_a_command_parser_answers_as_the_whole_tree_does(capsys, argv):
    assert sorted(map(tuple, COMMANDS)) == sorted(cli._COMMANDS)
    outcomes = []
    for parse in (lambda: main(argv), lambda: cli.build_parser().parse_args(argv)):
        with pytest.raises(SystemExit) as exit_info:
            parse()
        outcomes.append((exit_info.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    if "--help" in argv:
        assert (code, err) == (OK, "") and out.startswith(f"usage: blockcase {argv[0]} {argv[1]} ")
    else:
        assert (code, out) == (PARSE_ERROR, "") and f"blockcase {argv[0]} {argv[1]}: error: " in err


def test_main_calls_the_handler_the_module_binds_when_main_is_called(monkeypatch):
    called = []
    monkeypatch.setattr(cli, "cmd_policy_campaign", lambda args: called.append(("campaign", args.policy)) or OK)
    monkeypatch.setattr(cli, "cmd_cae_check", lambda args: called.append(("check", args.file)) or FINDINGS)
    assert main(["policy", "campaign", "policy.txt", "--out", "r.json"]) == OK
    assert main(["cae", "check", "tree.cae"]) == FINDINGS
    assert called == [("campaign", "policy.txt"), ("check", "tree.cae")]


class TestCaeCommands:
    def test_check_clean_corpus(self, capsys):
        code, out, _ = run(capsys, "cae", "check", str(corpus_path("fig3.cae")))
        assert code == OK
        assert "0 violation(s); root status: Undeveloped" in out

    def test_check_reports_findings_with_code_one(self, capsys, tmp_path):
        doc = tmp_path / "thin.cae"
        doc.write_text('claim C0 "root"\n  decomposition A0 "split"\n    claim C1 "solo"\n')
        code, out, _ = run(capsys, "cae", "check", str(doc))
        assert code == FINDINGS
        assert "ArityViolation" in out

    def test_check_malformed_file_is_a_parse_error(self, capsys, tmp_path):
        doc = tmp_path / "broken.cae"
        doc.write_text('claim C0 "unclosed\n')
        code, _, err = run(capsys, "cae", "check", str(doc))
        assert code == PARSE_ERROR
        assert "UnterminatedString" in err and "1:10" in err

    def test_a_document_the_two_reads_disagree_on_is_an_internal_error(self, capsys, monkeypatch):
        # the one-pass read refuses a document in which the diagnosis finds no error: never an empty parse failure
        monkeypatch.setattr(cae_dsl, "_read_flawless", lambda text: None)
        code, out, err = run(capsys, "cae", "check", str(corpus_path("fig5.cae")))
        assert code == INTERNAL_ERROR
        assert out == ""
        assert err.startswith("internal error: RuntimeError: ") and err.count("\n") == 1
        assert "ParseFailure" not in err

    def test_check_missing_file_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "cae", "check", str(tmp_path / "absent.cae"))
        assert code == IO_ERROR

    def test_render_is_deterministic(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.dot", tmp_path / "b.dot"
        assert run(capsys, "cae", "render", str(corpus_path("fig6.cae")), "--out", str(out_a))[0] == OK
        assert run(capsys, "cae", "render", str(corpus_path("fig6.cae")), "--out", str(out_b))[0] == OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_render_one_claim_digraph(self, capsys, tmp_path):
        doc = tmp_path / "one.cae"
        doc.write_text('claim C0 "root"\n')
        out = tmp_path / "one.dot"
        run(capsys, "cae", "render", str(doc), "--out", str(out))
        dot = out.read_text()
        assert dot.count("[label=") == 1 and "->" not in dot

    def test_render_endorser_corpus_counts_evidence(self, capsys, tmp_path):
        out = tmp_path / "fig5.dot"
        run(capsys, "cae", "render", str(corpus_path("fig5.cae")), "--out", str(out))
        assert out.read_text().count("fillcolor=palegreen") == 4

    def test_render_has_no_format_option(self, capsys, tmp_path):
        out = tmp_path / "fig5.dot"
        with pytest.raises(SystemExit) as exit_info:
            main(["cae", "render", str(corpus_path("fig5.cae")), "--out", str(out), "--format", "dot"])
        assert exit_info.value.code == PARSE_ERROR
        assert "unrecognized arguments: --format dot" in capsys.readouterr().err
        assert not out.exists()

    def test_status_lists_assumptions(self, capsys):
        code, out, _ = run(capsys, "cae", "status", str(corpus_path("fig6.cae")))
        assert code == OK
        assert "root C2c.2: Assumed" in out
        assert "H2c.2s'" in out


class TestRiskCoverage:
    def test_corpus_coverage_is_clean(self, capsys, workdir):
        code, out, _ = run(
            capsys, "risk", "coverage", str(workdir / "endorser_risks.risk"), str(workdir / "fig5.cae")
        )
        assert code == OK
        assert [line for line in out.splitlines() if line.endswith(": Covered")] == [
            f"R{i}: Covered" for i in range(1, 7)
        ]

    def test_dangling_reference_is_a_finding(self, capsys, workdir):
        registry = workdir / "extra.risk"
        registry.write_text(
            corpus_text("endorser_risks.risk")
            + 'risk R7 "Unlinked" criticality="Low" events="ValidRejected" likelihood="Rare"\n'
            + '  mitigation tolerance evidence="P404"\n'
        )
        code, out, _ = run(capsys, "risk", "coverage", str(registry), str(workdir / "fig5.cae"))
        assert code == FINDINGS
        assert "R7: Dangling (missing: P404)" in out

    def test_empty_registry_is_clean(self, capsys, workdir, tmp_path):
        empty = tmp_path / "empty.risk"
        empty.write_text("")
        code, out, _ = run(capsys, "risk", "coverage", str(empty), str(workdir / "fig5.cae"))
        assert code == OK
        assert "risks: 0" in out


class TestSimRun:
    def scenario_file(self, tmp_path, config, name="scenario.json"):
        path = tmp_path / name
        path.write_bytes(sim.scenario_bytes(config))
        return path

    def test_fault_free_scenario_exits_zero(self, capsys, tmp_path):
        config = basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))])
        path = self.scenario_file(tmp_path, config)
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "sim", "run", str(path), "--out", str(report_path))
        assert code == OK
        assert report_path.exists()
        assert "InvalidAccepted: 0" in out

    def test_censoring_scenario_exits_one(self, capsys, tmp_path):
        config = basic_config(
            [(0, proposal("good", sim.ChaincodeOp.set("a", 1), nonce=1))],
            policy=all_of(["E1", "E2", "E3"]),
            behaviors={"E2": sim.EndorserBehavior("censoring")},
        )
        path = self.scenario_file(tmp_path, config)
        code, out, _ = run(capsys, "sim", "run", str(path), "--out", str(tmp_path / "r.json"))
        assert code == FINDINGS
        assert "ValidRejected: 1" in out

    def test_same_inputs_same_bytes(self, capsys, tmp_path):
        config = basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))])
        path = self.scenario_file(tmp_path, config)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "sim", "run", str(path), "--out", str(a))
        run(capsys, "sim", "run", str(path), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_the_config_digest(self, capsys, tmp_path):
        config = basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))])
        path = self.scenario_file(tmp_path, config)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "sim", "run", str(path), "--out", str(a))
        run(capsys, "sim", "run", str(path), "--seed", "99", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_bad_scenario_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert run(capsys, "sim", "run", str(path))[0] == PARSE_ERROR


class TestPolicyCommands:
    def policy_file(self, tmp_path, text):
        path = tmp_path / "policy.txt"
        path.write_text(text)
        return path

    def test_tolerance_of_all_policy(self, capsys, tmp_path):
        path = self.policy_file(tmp_path, "all(E1,E2,E3)\n")
        code, out, _ = run(capsys, "policy", "tolerance", str(path))
        assert code == OK
        assert "fraud tolerance: 2" in out
        assert "censorship tolerance: 0" in out
        assert "minimal satisfying sets: {E1,E2,E3}" in out

    def test_tolerance_identity_bound(self, capsys, tmp_path):
        path = self.policy_file(tmp_path, "any(" + ",".join(f"E{i}" for i in range(25)) + ")")
        assert run(capsys, "policy", "tolerance", str(path))[0] == PARSE_ERROR

    def test_tolerance_identity_bound_names_the_file(self, capsys, tmp_path):
        path = self.policy_file(tmp_path, "any(" + ",".join(f"E{i}" for i in range(1, 22)) + ")")
        code, out, err = run(capsys, "policy", "tolerance", str(path))
        assert (code, out, err) == (PARSE_ERROR, "", f"{path}: policy has 21 identities, the exact bound is 20\n")

    def test_zero_probability_campaign_exits_zero(self, capsys, tmp_path):
        path = self.policy_file(tmp_path, "outof(2,E1,E2,E3)")
        out_path = tmp_path / "evidence.json"
        code, out, _ = run(
            capsys, "policy", "campaign", str(path), "--runs", "50", "--seed", "4", "--out", str(out_path)
        )
        assert code == OK
        assert "rate 0.0000" in out
        assert out_path.exists()

    def test_campaign_with_faults_exits_one_and_is_deterministic(self, capsys, tmp_path):
        path = self.policy_file(tmp_path, "outof(2,E1,E2,E3)")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code_a, *_ = run(capsys, "policy", "campaign", str(path), "--runs", "60", "--seed", "4",
                         "--prob", "fraudulent=0.5", "--out", str(a))
        code_b, *_ = run(capsys, "policy", "campaign", str(path), "--runs", "60", "--seed", "4",
                         "--prob", "fraudulent=0.5", "--out", str(b))
        assert code_a == code_b == FINDINGS
        assert a.read_bytes() == b.read_bytes()

    def test_a_repeated_prob_mode_is_a_parse_error(self, capsys, tmp_path):
        path = self.policy_file(tmp_path, "outof(2,E1,E2,E3)")
        out_path = tmp_path / "evidence.json"
        code, out, err = run(capsys, "policy", "campaign", str(path), "--prob", "fraudulent=0.9",
                             "--prob", "fraudulent=0.1", "--out", str(out_path))
        assert (code, out, err) == (PARSE_ERROR, "", "--prob gives mode 'fraudulent' more than once\n")
        assert not out_path.exists()

    def test_campaign_accepts_a_base_scenario_file(self, capsys, tmp_path):
        config = basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))])
        scenario = tmp_path / "base.json"
        scenario.write_bytes(sim.scenario_bytes(config))
        policy = self.policy_file(tmp_path, "all(E1,E2,E3)")  # replaces the scenario's policy
        out_path = tmp_path / "evidence.json"
        code, out, _ = run(
            capsys, "policy", "campaign", str(policy), "--scenario", str(scenario),
            "--runs", "40", "--seed", "1", "--prob", "censoring=1.0", "--out", str(out_path),
        )
        assert code == FINDINGS
        assert "censorship: 40/40" in out

    def test_a_base_that_sets_endorser_behaviors_is_refused_before_the_campaign_runs(
        self, capsys, monkeypatch, tmp_path
    ):
        # under sim run this base commits an invalid transfer; a campaign would replace its behaviors unsaid
        fraud = sim.EndorserBehavior(FRAUDULENT)
        config = basic_config([(0, proposal("bad", sim.ChaincodeOp.transfer("a", "b", 5, valid=False), nonce=1))],
                              policy=out_of(2, ["E1", "E2", "E3"]), behaviors={"E2": fraud, "E1": fraud})
        scenario = tmp_path / "base.json"
        scenario.write_bytes(sim.scenario_bytes(config))
        assert run(capsys, "sim", "run", str(scenario))[0] == FINDINGS
        policy = self.policy_file(tmp_path, "outof(2,E1,E2,E3)")
        out_path = tmp_path / "evidence.json"
        monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
        result = run(capsys, "policy", "campaign", str(policy), "--scenario", str(scenario), "--runs", "50",
                     "--out", str(out_path))
        assert result == (PARSE_ERROR, "", f"--scenario: {scenario} sets endorser_behaviors for E1, E2; a campaign "
                                           "draws every endorser's behavior, so its base must leave them out\n")
        assert not out_path.exists()

    def test_a_negative_zero_probability_writes_the_report_of_no_flag(self, capsys, tmp_path):
        path = self.policy_file(tmp_path, "outof(2,E1,E2,E3)")
        reports = []
        for name, flags in (("plain.json", ()), ("negative-zero.json", ("--prob", "fraudulent=-0.0"))):
            reports.append(tmp_path / name)
            code, *_ = run(capsys, "policy", "campaign", str(path), "--runs", "30", "--seed", "3",
                           "--prob", "crashed=0.2", *flags, "--out", str(reports[-1]))
            assert code == FINDINGS
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert b'"fraudulent": 0.0' in reports[0].read_bytes()

    def test_campaign_link_updates_the_tree_and_coverage_verifies(self, capsys, workdir):
        policy = self.policy_file(workdir, "outof(2,E1,E2,E3)")
        report = workdir / "campaign.json"
        cae = workdir / "fig5.cae"
        code, out, _ = run(
            capsys, "policy", "campaign", str(policy), "--runs", "40", "--seed", "2",
            "--out", str(report), "--link", f"{cae}:P1c.1.3",
        )
        assert code == OK
        assert 'ref="campaign.json"' in cae.read_text()

        code, out, _ = run(capsys, "risk", "coverage", str(workdir / "endorser_risks.risk"), str(cae))
        assert code == OK and "link issues: 0" in out

        report.unlink()
        code, out, _ = run(capsys, "risk", "coverage", str(workdir / "endorser_risks.risk"), str(cae))
        assert code == FINDINGS and "missing-file" in out


    def test_campaign_link_rewrites_one_line_and_the_tree_still_checks(self, capsys, workdir):
        policy = self.policy_file(workdir, "outof(2,E1,E2,E3)")
        cae = workdir / "fig5.cae"
        before = cae.read_text().splitlines()
        code, *_ = run(capsys, "policy", "campaign", str(policy), "--runs", "20",
                       "--out", str(workdir / "linked.json"), "--link", f"{cae}:P1c.1.3")
        assert code == OK
        after = cae.read_text().splitlines()
        assert len(after) == len(before)
        changed = [(old, new) for old, new in zip(before, after) if old != new]
        assert len(changed) == 1  # serialize rewrote the tree, but only the linked evidence line differs
        old, new = changed[0]
        assert old.lstrip().startswith("proof P1c.1.3 ") and new.startswith(old) and 'ref="linked.json"' in new
        assert run(capsys, "cae", "check", str(cae))[0] == OK
        assert run(capsys, "risk", "coverage", str(workdir / "endorser_risks.risk"), str(cae))[0] == OK


@pytest.mark.parametrize(
    "argv",
    [
        ["cae", "check", "{bad}"],
        ["risk", "coverage", "{bad}", "{cae}"],
        ["risk", "coverage", "{reg}", "{bad}"],
        ["sim", "run", "{bad}"],
        ["policy", "tolerance", "{bad}"],
        ["policy", "campaign", "{bad}", "--out", "{out}"],
        ["policy", "campaign", "{policy}", "--scenario", "{bad}", "--out", "{out}"],
    ],
)
def test_input_that_is_not_utf8_is_a_parse_error(capsys, workdir, argv):
    bad = workdir / "latin1.txt"
    bad.write_bytes("claim C0 \"caf\xe9\"\n".encode("latin-1"))
    policy = workdir / "policy.txt"
    policy.write_text("E1")
    paths = {"bad": bad, "cae": workdir / "fig5.cae", "reg": workdir / "endorser_risks.risk",
             "policy": policy, "out": workdir / "out.json"}
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == PARSE_ERROR
    assert err.startswith(f"{bad}: ") and "Traceback" not in err
    assert not (workdir / "out.json").exists()


def one_tx_scenario(path):
    path.write_bytes(sim.scenario_bytes(basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))])))
    return path


@pytest.mark.parametrize(
    "argv, marked",
    [
        (["cae", "check", "{cae}"], "cae"),
        (["risk", "coverage", "{reg}", "{cae}"], "reg"),
        (["risk", "coverage", "{reg}", "{cae}"], "cae"),
        (["sim", "run", "{scenario}"], "scenario"),
        (["policy", "tolerance", "{policy}"], "policy"),
        (["policy", "campaign", "{policy}", "--runs", "20", "--out", "{out}"], "policy"),
        (["policy", "campaign", "{policy}", "--scenario", "{scenario}", "--runs", "20", "--out", "{out}"],
         "scenario"),
    ],
)
def test_a_leading_byte_order_mark_is_read_past(capsys, workdir, argv, marked):
    policy = workdir / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)\n")
    paths = {"cae": workdir / "fig5.cae", "reg": workdir / "endorser_risks.risk",
             "scenario": one_tx_scenario(workdir / "scenario.json"), "policy": policy, "out": workdir / "out.json"}
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (OK, "")
    paths[marked].write_bytes("\ufeff".encode("utf-8") + paths[marked].read_bytes())
    assert run(capsys, *argv)[:2] == (code, out)


@pytest.mark.parametrize("command", ["cae-render", "sim-run", "policy-campaign"])
def test_an_output_path_that_cannot_be_written_is_an_io_error_naming_it(capsys, workdir, command):
    if command == "cae-render":
        out = workdir / "missing" / "x.dot"
        argv = ["cae", "render", str(workdir / "fig5.cae"), "--out", str(out)]
    elif command == "sim-run":
        out = workdir / "missing" / "r.json"
        argv = ["sim", "run", str(one_tx_scenario(workdir / "scenario.json")), "--out", str(out)]
    else:
        out = workdir / "missing" / "c.json"
        policy = workdir / "policy.txt"
        policy.write_text("outof(2,E1,E2,E3)")
        argv = ["policy", "campaign", str(policy), "--runs", "20", "--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (IO_ERROR, "")
    assert err.startswith(f"cannot write {out}: ") and "file not found" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(endorser_behaviors=[]), "malformed scenario document"),
        (lambda doc: doc["peers"].update(count=2, skip_v7=[True]), "expected an integer, got true"),
        (lambda doc: doc["workload"][0].__setitem__(0, False), "expected an integer, got false"),
        (lambda doc: doc.update(endorser_behaviors={"E1": {"mode": "dosed", "from_step": "0", "to_step": "x"}}),
         "malformed scenario document"),
        (lambda doc: doc["workload"][0][1]["op"].update(ground_truth_valid="false"),
         "ground_truth_valid must be true or false"),
        (lambda doc: doc["workload"][0][1]["op"].update(ground_truth_valid=0),
         "ground_truth_valid must be true or false"),
        (lambda doc: doc["workload"][0][1]["op"].update(ground_truth_valid=1),
         "ground_truth_valid must be true or false"),
        (lambda doc: doc["workload"][0][1]["op"].update(key=[1]), "workload[0][1].op.key: expected a string"),
        (lambda doc: doc.update(msp_emitters="c1"), 'msp_emitters: expected a list, got "c1"'),
        (lambda doc: doc["workload"][0][1]["op"].update(value=1.5),
         "workload[0][1].op.value: expected an integer, got 1.5"),
        (lambda doc: doc.update(horizon="2"), 'horizon: expected an integer, got "2"'),
        (lambda doc: doc["workload"][0][1].update(tx_id=5), "workload[0][1].tx_id: expected a string, got 5"),
        (lambda doc: doc.update(policy=5), "policy: expected a string, got 5"),
        (lambda doc: doc["orderers"].update(crash_schedule=["12"]),
         'orderers.crash_schedule[0]: expected a list of length 2, got "12"'),
    ],
    ids=["behaviors-not-an-object", "skip_v7-true", "workload-step-false", "dos-window-not-a-number",
         "ground-truth-string", "ground-truth-zero", "ground-truth-one", "op-key-list", "emitters-string",
         "op-value-float", "horizon-string", "tx_id-number", "policy-number", "crash-entry-string"],
)
def test_scenario_with_wrongly_typed_fields_is_a_parse_error(capsys, tmp_path, edit, message):
    config = basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))])
    doc = sim.scenario_to_dict(config)
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sim", "run", str(path))
    assert (code, out) == (PARSE_ERROR, "")
    assert err.startswith(f"{path}: ") and message in err


def test_scenario_nested_too_deeply_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"workload": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "sim", "run", str(path))
    assert (code, out, err) == (PARSE_ERROR, "", f"{path}: scenario nests too deeply to read\n")


def nested_policy(depth):
    """``and(and(...(E1,E2)...),E3)`` with ``depth`` operators nested inside one another."""
    text = "and(E1,E2)"
    for _ in range(depth - 1):
        text = f"and({text},E3)"
    return text


@pytest.mark.parametrize("command", ["tolerance", "campaign", "sim-run"])
@pytest.mark.parametrize("depth, accepted", [(100, True), (101, False)])
def test_policy_nesting_is_bounded_at_100_operators(capsys, tmp_path, command, depth, accepted):
    policy = tmp_path / "policy.txt"
    policy.write_text(nested_policy(depth))
    out = tmp_path / "out.json"
    if command == "tolerance":
        argv = ["policy", "tolerance", str(policy)]
    elif command == "campaign":
        argv = ["policy", "campaign", str(policy), "--runs", "20", "--out", str(out)]
    else:
        doc = sim.scenario_to_dict(basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))]))
        doc["policy"] = nested_policy(depth)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        argv = ["sim", "run", str(scenario)]
    code, _, err = run(capsys, *argv)
    assert "Traceback" not in err
    if accepted:
        assert code == OK, err
    else:
        assert code == PARSE_ERROR
        assert "policy nests deeper than 100 operators" in err
        assert not out.exists()


def test_status_and_campaign_link_handle_a_tree_3000_levels_deep(capsys, tmp_path):
    tree = tmp_path / "deep.cae"
    tree.write_text(deep_cae(1500))
    policy = tmp_path / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)")

    code, out, err = run(capsys, "cae", "status", str(tree))
    assert (code, err) == (OK, "")
    assert "root C0: Supported" in out

    out_path = tmp_path / "campaign.json"
    code, _, err = run(capsys, "policy", "campaign", str(policy), "--runs", "20", "--out", str(out_path),
                       "--link", f"{tree}:P0")
    assert code in (OK, FINDINGS) and "Traceback" not in err
    assert 'ref="campaign.json"' in tree.read_text()


def _no_simulation(*args, **kwargs):
    raise AssertionError("a simulation started")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(horizon=2**70), f"horizon must lie in 0..{MAX_HORIZON}"),
        (lambda doc: doc.update(horizon=MAX_HORIZON + 1), f"horizon must lie in 0..{MAX_HORIZON}"),
        (lambda doc: doc["peers"].update(count=MAX_PEERS + 1), f"peer count must lie in 1..{MAX_PEERS}"),
        (lambda doc: doc["orderers"].update(n=MAX_ORDERERS + 1), f"orderer count must lie in 1..{MAX_ORDERERS}"),
    ],
    ids=["horizon-2**70", "horizon-over", "peers-over", "orderers-over"],
)
def test_oversized_scenario_is_refused_before_any_simulation(capsys, monkeypatch, tmp_path, edit, message):
    monkeypatch.setattr(sim, "simulate", _no_simulation)
    monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
    monkeypatch.setattr(sim, "run_scenario", _no_simulation)
    doc = sim.scenario_to_dict(basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))]))
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(sim.ConfigInvalid) as refused:
        sim.parse_scenario(path.read_text())
    assert str(refused.value) == message

    policy = tmp_path / "policy.txt"
    policy.write_text("any(E1,E2,E3)")
    out = tmp_path / "out.json"
    for argv in (["sim", "run", str(path)],
                 ["policy", "campaign", str(policy), "--scenario", str(path), "--out", str(out)]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout, err) == (PARSE_ERROR, "", f"{path}: {message}\n")
    assert not out.exists()


def test_scenario_at_the_size_bounds_is_accepted():
    doc = sim.scenario_to_dict(basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))]))
    doc.update(horizon=MAX_HORIZON)
    doc["peers"].update(count=MAX_PEERS)
    doc["orderers"].update(n=MAX_ORDERERS)
    config = sim.parse_scenario(json.dumps(doc))
    assert (config.horizon, config.peers, config.orderers.n) == (MAX_HORIZON, MAX_PEERS, MAX_ORDERERS)


def test_campaign_names_the_scenario_file_it_refuses(capsys, tmp_path):
    doc = sim.scenario_to_dict(basic_config([(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1))]))
    doc.update(horizon="2")
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    policy = tmp_path / "policy.txt"
    policy.write_text("any(E1,E2,E3)")
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, "policy", "campaign", str(policy), "--scenario", str(scenario),
                            "--out", str(out))
    assert (code, stdout) == (PARSE_ERROR, "")
    assert err == f'{scenario}: malformed scenario document: horizon: expected an integer, got "2"\n'

    scenario.write_text(json.dumps(dict(doc, horizon=4)))
    policy.write_text("any(E1,E9)")  # the scenario's endorsers do not include E9
    code, _, err = run(capsys, "policy", "campaign", str(policy), "--scenario", str(scenario), "--out", str(out))
    assert (code, err) == (PARSE_ERROR, f"{scenario}: policy names identities outside the endorser set: ['E9']\n")

    policy.write_text("any(E1,E2,E3)")  # a --prob error is not the scenario's and keeps no prefix
    code, _, err = run(capsys, "policy", "campaign", str(policy), "--scenario", str(scenario),
                       "--prob", "fraudulent=2", "--out", str(out))
    assert (code, err) == (PARSE_ERROR, "--prob: probability for 'fraudulent' must lie in [0, 1]\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "link, code, message",
    [
        ("{cae}:NOPE", PARSE_ERROR, "{cae}: no node with id 'NOPE'\n"),
        ("{cae}:C1c.1", PARSE_ERROR, "{cae}: node 'C1c.1' is not evidence\n"),
        ("nocolon", PARSE_ERROR, "--link takes <cae-file>:<evidence-id>, got 'nocolon'\n"),
        ("{missing}:P1", IO_ERROR, "file not found: {missing}\n"),
    ],
    ids=["unknown-id", "not-evidence", "no-colon", "missing-file"],
)
def test_a_bad_link_is_refused_before_the_campaign_runs(capsys, monkeypatch, workdir, link, code, message):
    monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
    policy = workdir / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)")
    cae, out = workdir / "fig5.cae", workdir / "campaign.json"
    before = cae.read_bytes()
    paths = {"cae": cae, "missing": workdir / "missing.cae"}
    result = run(capsys, "policy", "campaign", str(policy), "--runs", "20", "--prob", "fraudulent=0.3",
                 "--out", str(out), "--link", link.format(**paths))
    assert result == (code, "", message.format(**paths))
    assert not out.exists()
    assert cae.read_bytes() == before


@pytest.mark.parametrize("role", ["cae-check", "scenario", "link"])
def test_a_directory_as_an_input_is_an_io_error_naming_it(capsys, monkeypatch, workdir, role):
    monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
    folder, out = workdir / "folder", workdir / "campaign.json"
    folder.mkdir()
    policy = workdir / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)")
    argv = {
        "cae-check": ["cae", "check", str(folder)],
        "scenario": ["policy", "campaign", str(policy), "--runs", "20", "--out", str(out), "--scenario", str(folder)],
        "link": ["policy", "campaign", str(policy), "--runs", "20", "--out", str(out), "--link", f"{folder}:P1"],
    }[role]
    before = sorted(workdir.iterdir())
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (IO_ERROR, "")
    assert err.startswith(f"cannot read {folder}: ") and err.count("\n") == 1
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("out", ["fig5.cae", "./sub/../fig5.cae"], ids=["same-name", "same-file"])
def test_a_report_over_its_link_tree_is_refused_before_the_campaign_runs(capsys, monkeypatch, workdir, out):
    monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
    monkeypatch.chdir(workdir)
    (workdir / "sub").mkdir()
    Path("policy.txt").write_text("outof(2,E1,E2,E3)")
    before = sorted(workdir.iterdir()), Path("fig5.cae").read_bytes()
    result = run(capsys, "policy", "campaign", "policy.txt", "--runs", "20", "--out", out, "--link", "fig5.cae:P1c.1.3")
    assert result == (PARSE_ERROR, "", f"--out {out} is the --link tree fig5.cae; write the report elsewhere\n")
    assert (sorted(workdir.iterdir()), Path("fig5.cae").read_bytes()) == before


@pytest.mark.parametrize(
    "argv, target, message",
    [
        (["cae", "render", "fig5.cae"], "fig5.cae", "is the tree fig5.cae; write the DOT elsewhere"),
        (["sim", "run", "scenario.json"], "scenario.json", "is the scenario scenario.json; write the report elsewhere"),
        (["policy", "campaign", "policy.txt", "--runs", "20"], "policy.txt",
         "is the policy policy.txt; write the report elsewhere"),
        (["policy", "campaign", "policy.txt", "--runs", "20", "--scenario", "scenario.json"], "scenario.json",
         "is the scenario scenario.json; write the report elsewhere"),
    ],
    ids=["render", "sim-run", "campaign-policy", "campaign-scenario"],
)
@pytest.mark.parametrize("spelling", ["{}", "./sub/../{}", "link-to-{}"], ids=["same-name", "same-file", "hard-link"])
def test_an_output_over_its_own_input_is_refused_before_anything_is_written(
    capsys, monkeypatch, workdir, argv, target, message, spelling
):
    monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
    monkeypatch.chdir(workdir)
    (workdir / "sub").mkdir()
    one_tx_scenario(workdir / "scenario.json")
    Path("policy.txt").write_text("outof(1,E1)")
    out = spelling.format(target)
    if spelling.startswith("link-to-"):  # another name of the input's inode: a write through it truncates the input
        os.link(target, out)
    before = sorted(workdir.iterdir()), Path(target).read_bytes()
    assert run(capsys, *argv, "--out", out) == (PARSE_ERROR, "", f"--out {out} {message}\n")
    assert (sorted(workdir.iterdir()), Path(target).read_bytes()) == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cae", "render", "absent.cae"], "is the tree absent.cae; write the DOT elsewhere"),
        (["policy", "campaign", "absent.cae"], "is the policy absent.cae; write the report elsewhere"),
    ],
    ids=["render", "campaign-policy"],
)
def test_an_output_over_a_missing_input_by_the_same_path_is_refused(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run(capsys, *argv, "--out", "sub/../absent.cae") == (PARSE_ERROR, "", f"--out sub/../absent.cae {message}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("with_scenario", [False, True], ids=["default-base", "scenario"])
def test_a_campaign_seed_out_of_range_is_a_parse_error(capsys, monkeypatch, tmp_path, seed, with_scenario):
    monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
    policy = tmp_path / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)")
    out = tmp_path / "out.json"
    argv = ["policy", "campaign", str(policy), "--runs", "20", "--seed", seed, "--out", str(out)]
    if with_scenario:  # the file's own seed is valid, so only the campaign's check sees the flag
        argv += ["--scenario", str(one_tx_scenario(tmp_path / "scenario.json"))]
    assert run(capsys, *argv) == (PARSE_ERROR, "", "--seed: seed must be an unsigned 64-bit integer\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--runs", "0"], "--runs: run count must be at least 1"),
        (["--prob", "evil=0.1"], "--prob: unknown fault mode 'evil'"),
        (["--prob", "fraudulent=0.7", "--prob", "crashed=0.7"], "--prob: fault probabilities sum beyond 1"),
    ],
    ids=["runs-0", "unknown-mode", "sum-beyond-1"],
)
def test_a_refused_campaign_argument_names_its_flag(capsys, monkeypatch, tmp_path, flags, message):
    monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
    policy = tmp_path / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)")
    out = tmp_path / "out.json"
    argv = ["policy", "campaign", str(policy), *flags, "--out", str(out)]
    assert run(capsys, *argv) == (PARSE_ERROR, "", message + "\n")
    assert not out.exists()


def test_a_prob_value_that_is_not_a_number_is_a_parse_error_naming_the_flag(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sim, "run_pipeline", _no_simulation)
    policy = tmp_path / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)")
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, "policy", "campaign", str(policy), "--prob", "fraudulent=abc", "--out", str(out))
    assert (code, stdout, err) == (PARSE_ERROR, "", "--prob takes mode=number, got 'fraudulent=abc'\n")
    assert not out.exists()


def test_a_value_error_inside_a_campaign_is_an_internal_error_not_a_usage_error(capsys, monkeypatch, tmp_path):
    def stray(*args, **kwargs):
        raise ValueError("stray")

    monkeypatch.setattr(sim, "run_pipeline", stray)
    policy = tmp_path / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)")
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, "policy", "campaign", str(policy), "--runs", "20", "--out", str(out))
    assert (code, stdout, err) == (INTERNAL_ERROR, "", "internal error: ValueError: stray\n")
    assert not out.exists()


def test_an_unexpected_exception_is_an_internal_error_not_a_finding(capsys, monkeypatch, tmp_path):
    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_policy_tolerance", crash)
    policy = tmp_path / "policy.txt"
    policy.write_text("outof(2,E1,E2,E3)")
    code, out, err = run(capsys, "policy", "tolerance", str(policy))
    assert (code, out, err) == (INTERNAL_ERROR, "", "internal error: RuntimeError: boom second line\n")


def test_argparse_exits_are_left_alone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["policy", "campaign"])  # --out is required
    assert exit_info.value.code == 2


# characters that matter to the line grammar, then any other character; the fuzz tests write
# a lone surrogate with "surrogatepass", which gives bytes that are not UTF-8
_FUZZ_CHARS = st.sampled_from(' \t"\\=#\n\r\x0c\x85\u2028') | st.characters()


@st.composite
def mutated(draw, text):
    """``text`` with one to four characters or lines inserted, deleted or duplicated."""
    for _ in range(draw(st.integers(1, 4))):
        lines = text.split("\n")
        edit = draw(st.sampled_from(("insert char", "delete char", "duplicate char", "insert line",
                                     "delete line", "duplicate line")))
        if edit.endswith("char"):
            at = draw(st.integers(0, max(len(text) - 1, 0)))
            if edit == "insert char":
                text = text[:at] + draw(_FUZZ_CHARS) + text[at:]
            elif edit == "delete char":
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + text[at:at + 1] + text[at:]
        else:
            at = draw(st.integers(0, len(lines) - 1))
            if edit == "insert line":
                lines.insert(at, draw(st.text(_FUZZ_CHARS, max_size=12)))
            elif edit == "delete line":
                del lines[at]
            else:
                lines.insert(at, lines[at])
            text = "\n".join(lines)
    return text


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the registry is sometimes left intact, so that risk coverage reads a mutated tree
@settings(max_examples=100, deadline=None)
@given(mutated(corpus_text("fig5.cae")), mutated(corpus_text("endorser_risks.risk")) | st.just(None))
def test_mutated_line_format_documents_exit_cleanly_and_deterministically(cae_text, risk_text):
    with tempfile.TemporaryDirectory() as tmp:
        cae, risk, dot = Path(tmp, "tree.cae"), Path(tmp, "risks.risk"), Path(tmp, "tree.dot")
        cae.write_bytes(cae_text.encode("utf-8", "surrogatepass"))
        risk_text = corpus_text("endorser_risks.risk") if risk_text is None else risk_text
        risk.write_bytes(risk_text.encode("utf-8", "surrogatepass"))
        for argv in (["cae", "check", str(cae)], ["cae", "status", str(cae)],
                     ["cae", "render", str(cae), "--out", str(dot)], ["risk", "coverage", str(risk), str(cae)]):
            first = _main_output(argv)
            code, _, err = first
            assert code in (OK, FINDINGS, PARSE_ERROR), (argv, first)
            assert "internal error" not in err
            assert _main_output(argv)[:2] == first[:2]


_POLICY = "outof(2,E1,E2,E3)\n"
_SCENARIO = sim.scenario_to_dict(basic_config(
    [(0, proposal("t1", sim.ChaincodeOp.set("a", 1), nonce=1)),
     (1, proposal("t2", sim.ChaincodeOp.transfer("a", "b", 1), nonce=2))],
    behaviors={"E2": sim.EndorserBehavior("censoring")}, peers=2, skip={1},
    orderers=sim.OrdererConfig(n=3, batch_size=2, crash_schedule=((1, 0),)),
))
_CAMPAIGN_BASE = dict(_SCENARIO, endorser_behaviors={})  # a campaign refuses a base that sets behaviors
# these fields bound how long a valid document runs (up to MAX_HORIZON steps), so no edit touches them
_SIZE_KEYS = ("horizon", "count", "n")
_SIZE_FIELD = re.compile(r'"(?:%s)": \d+' % "|".join(_SIZE_KEYS))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _containers(value):
    """Every list and object in a JSON document."""
    if isinstance(value, (list, dict)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


@st.composite
def mutated_scenario(draw):
    """``_SCENARIO`` or ``_CAMPAIGN_BASE`` with JSON values, then characters, inserted, deleted or duplicated."""
    doc = copy.deepcopy(draw(st.sampled_from((_SCENARIO, _CAMPAIGN_BASE))))
    for _ in range(draw(st.integers(0, 3))):
        container = draw(st.sampled_from(list(_containers(doc))))
        edit = draw(st.sampled_from(("insert", "delete", "duplicate")))
        if isinstance(container, list):
            at = draw(st.integers(0, len(container)))
            if edit == "insert":
                container.insert(at, draw(_JSON_VALUES))
            elif at < len(container):
                if edit == "delete":
                    del container[at]
                else:
                    container.insert(at, copy.deepcopy(container[at]))
            continue
        keys = sorted(key for key in container if key not in _SIZE_KEYS)
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        if edit == "insert":
            container[key + draw(st.sampled_from(("", "_")))] = draw(_JSON_VALUES)
        elif edit == "delete":
            del container[key]
        else:
            container[key] = copy.deepcopy(container[draw(st.sampled_from(keys))])
    text = json.dumps(doc)
    for _ in range(draw(st.integers(0, 3))):
        sizes = [match.span() for match in _SIZE_FIELD.finditer(text)]
        edit = draw(st.sampled_from(("insert", "delete", "duplicate")))
        last = len(text) if edit == "insert" else len(text) - 1  # an insert may also touch a field's end
        at = draw(st.sampled_from([i for i in range(last + 1)
                                   if not any(start <= i < end + (edit == "insert") for start, end in sizes)]))
        if edit == "insert":
            text = text[:at] + draw(_FUZZ_CHARS) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + text[at] + text[at:]
    return text


# an id of fig5.cae (evidence or not), or any other text; None runs the campaign without --link
_LINK_IDS = st.none() | st.sampled_from(sorted(parse(corpus_text("fig5.cae")).nodes)) | st.text(_FUZZ_CHARS, max_size=6)


@settings(max_examples=60, deadline=None)
@given(mutated(_POLICY) | st.just(_POLICY), mutated_scenario(), _LINK_IDS)
def test_mutated_policies_and_scenarios_exit_cleanly_and_deterministically(policy_text, scenario_text, evidence_id):
    with tempfile.TemporaryDirectory() as tmp:
        policy, scenario, out = Path(tmp, "policy.txt"), Path(tmp, "scenario.json"), Path(tmp, "out.json")
        policy.write_bytes(policy_text.encode("utf-8", "surrogatepass"))
        scenario.write_bytes(scenario_text.encode("utf-8", "surrogatepass"))
        cae = Path(tmp, "fig5.cae")
        shutil.copy(corpus_path("fig5.cae"), cae)
        campaign = ["policy", "campaign", str(policy), "--runs", "20", "--prob", "fraudulent=0.3", "--out", str(out)]
        if evidence_id is not None:
            campaign += ["--link", f"{cae}:{evidence_id}"]
        for argv, inputs in ((["policy", "tolerance", str(policy)], (policy,)),
                             (campaign, (policy, cae)),
                             (campaign + ["--scenario", str(scenario)], (policy, scenario, cae)),
                             (["sim", "run", str(scenario)], (scenario,))):
            out.unlink(missing_ok=True)
            cae_before = cae.read_bytes()
            first = _main_output(argv)
            code, _, err = first
            assert code in (OK, FINDINGS, PARSE_ERROR, IO_ERROR), (argv, first)
            assert "internal error" not in err
            if code == PARSE_ERROR:
                prefixes = tuple(f"{path}: " for path in inputs) + ("--link ", "--scenario: ")
                assert all(line.startswith(prefixes) for line in err.rstrip("\n").split("\n")), (argv, first)
            if code in (PARSE_ERROR, IO_ERROR):  # a refused input leaves nothing written
                assert not out.exists() and cae.read_bytes() == cae_before, (argv, first)
            assert _main_output(argv)[:2] == first[:2]
