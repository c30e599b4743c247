"""Canonical bytes pinned across commits.

Other tests compare two code paths of one commit; these hold the sha256 of
a run report and of a campaign report fixed, so a change that alters either
document's bytes fails here. A change that alters them on purpose (a new
state digest, say) updates the literals and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from blockcase import eov_sim as sim
from blockcase.eov_sim.scenario import CENSORING, CRASHED, DOSED, FRAUDULENT, HONEST
from blockcase.policy_analysis import monte_carlo_campaign
from simgen import random_scenario
from test_campaign import ALL_FAULTS, ORACLE_CASES, campaign_base

RUN_REPORTS = {
    0: "c7eb4891c1d4982543da64bf0174a34bb80c58c9c0881c7b45dd3a229e32c305",
    1: "6e123bcd6b42a55e2893e76d9e6d735b227725c88aaaa0cfe3f1a38939acf21c",
    2: "4bf722732d732af0d8ebac9107f939dd379ba59f8899f8bc5b783182a7531470",
}

CAMPAIGN_REPORTS = {
    ORACLE_CASES[0]: "919e5747872203f39933ee88002f2f8225a3c2edc2242d704575ea8e740d24ae",
    ORACLE_CASES[1]: "af90bad976f10fe0bad2938a20d61026ae1e1528a1e2a198ae1b345807316f03",
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
