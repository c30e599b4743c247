"""Canonical bytes pinned across commits.

Other tests compare two code paths of one commit; these hold the sha256 of
run reports, campaign reports, the DOT and canonical text of the corpus
trees and the stdout of the tree and registry commands fixed, so a change
that alters any of those bytes fails here. A change that alters them on
purpose (a new state digest, say) updates the literals and says so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import shutil

import pytest

from blockcase import corpus_path, corpus_text, parse
from blockcase import eov_sim as sim
from blockcase.cae_dsl import serialize
from blockcase.cli import main
from blockcase.eov_sim.scenario import CENSORING, CRASHED, DOSED, FRAUDULENT, HONEST
from blockcase.policy_analysis import monte_carlo_campaign
from simgen import random_scenario
from test_campaign import ALL_FAULTS, ORACLE_CASES, campaign_base

RUN_REPORTS = {
    0: "bb63687e4692bf605548a88ec6bbe33745ca661c0a2c81494ea509b539926340",
    1: "fd60a32de31c92c011ce5f7241f2631b80c3de81ad42eb2e78bb8ad927654cbb",
    2: "37a80f8f7f1e60d3aadd8d18eb6903f110c40cf244c3e08ac190c59272f30c46",
}

CAMPAIGN_REPORTS = {
    ORACLE_CASES[0]: "90653e48dbfba2514b1821bf93d1425ccbdf7ea9a1f8e28d262a018007127543",
    ORACLE_CASES[1]: "8748ee4b6fb064eda7751c62d1b500d0be9372b82458fe788bf07db06da52a5c",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", sorted(RUN_REPORTS))
def test_run_report_bytes_are_pinned(seed):
    config = random_scenario(seed, behavior_modes=(HONEST, FRAUDULENT, CENSORING, CRASHED, DOSED),
                             peers_range=(3, 4), skip_v7=frozenset({seed % 3}))
    assert sha256(sim.simulate(config).report.to_json_bytes()) == RUN_REPORTS[seed]


@pytest.mark.parametrize("scenario_seed, policy_text", sorted(CAMPAIGN_REPORTS))
def test_campaign_report_bytes_are_pinned(scenario_seed, policy_text):
    report = monte_carlo_campaign(campaign_base(scenario_seed, policy_text), ALL_FAULTS, 300, seed=5)
    assert sha256(report.to_json_bytes()) == CAMPAIGN_REPORTS[scenario_seed, policy_text]


# (DOT written by ``cae render``, ``serialize`` of the parsed tree) per corpus figure
TREE_OUTPUTS = {
    "fig2.cae": ("3ccda1afd6b795a3f9a6a08ab509955fb8a5a31ed8e06199b36fcc8415ccf104",
                 "6461bf7f1df13c6c24f992560f643ee16bd80daee92a4995631aab279490bbd8"),
    "fig3.cae": ("14ff27025f473d2cf76109860f239d3f24209784213e83ca4a7173e73d359c7e",
                 "578fa522ceb3f77c927668500eeac07c0550df39329fc923b672e4b47e686982"),
    "fig4.cae": ("6de3bc1739ffed696b1f41abf3f6037ac02f8e8bf134e4ff09518aa84575370f",
                 "00f9e824566527b89d8d727114dadfeaf7aac8f21febcccd781725555fddf45c"),
    "fig5.cae": ("90a185f23f5a2bb99a4034b009557b05e3c84aa7d627477f1c81312880985849",
                 "4ccbde0291a69979f816e63cdd633a3247cd20fcdc1969cda8e05382cd3c4001"),
    "fig6.cae": ("78c1f86e0e78c5f2fe87ba3388c98aa7892c21fe7e247ef1638e9aa07e9697b0",
                 "9d196e35badb080f3b1caa2eabd291c06b244c7664394d209f50768b77182846"),
}

# stdout of each command, run from a directory that holds copies of fig5.cae and endorser_risks.risk
GATE_STDOUT = {
    ("cae", "check", "fig5.cae"): "5bfe96ce627e37d31ff8a8809688dd4a15b920486f5b09de4eb8fb53d3096254",
    ("cae", "status", "fig5.cae"): "2e4e5d7e89856861b68cb0a9176dfa918f2441464ecac782ac1726237eab31b4",
    ("risk", "coverage", "endorser_risks.risk", "fig5.cae"):
        "056fef001c72f7be4690b74cf16ef6358f320aafa64bf4bd60a28edad2db190b",
}


@pytest.mark.parametrize("name", sorted(TREE_OUTPUTS))
def test_tree_output_bytes_are_pinned(name, tmp_path):
    dot = tmp_path / "tree.dot"
    assert main(["cae", "render", str(corpus_path(name)), "--out", str(dot)]) == 0
    assert (sha256(dot.read_bytes()), sha256(serialize(parse(corpus_text(name))).encode())) == TREE_OUTPUTS[name]


@pytest.mark.parametrize("argv", sorted(GATE_STDOUT))
def test_gate_command_stdout_is_pinned(argv, tmp_path, monkeypatch, capsys):
    for name in ("fig5.cae", "endorser_risks.risk"):
        shutil.copy(corpus_path(name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    assert sha256(capsys.readouterr().out.encode()) == GATE_STDOUT[argv]
