"""Scenario configuration: topology, faults, workload, and its canonical file form.

A scenario file is a JSON document with sorted keys; its canonical bytes
feed the config digest echoed in every run report, so a report can always
be traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping

from ..determinism import MASK64, canonical_json_bytes, sha256_hex
from ..policy import EndorsementPolicy, identities, parse_policy, serialize_policy
from .state import ChaincodeOp, json_int

HONEST = "honest"
FRAUDULENT = "fraudulent"
CENSORING = "censoring"
CRASHED = "crashed"
DOSED = "dosed"
BEHAVIOR_MODES = frozenset({HONEST, FRAUDULENT, CENSORING, CRASHED, DOSED})


class ConfigInvalid(ValueError):
    """The scenario violates a structural constraint."""


@dataclass(frozen=True, slots=True)
class EndorserBehavior:
    mode: str = HONEST
    from_step: int | None = None  # denial-of-service window, inclusive
    to_step: int | None = None

    def __post_init__(self):
        if self.mode not in BEHAVIOR_MODES:
            raise ConfigInvalid(f"unknown endorser behavior {self.mode!r}")
        if self.mode == DOSED:
            if self.from_step is None or self.to_step is None or self.from_step > self.to_step:
                raise ConfigInvalid("a denial-of-service window needs from_step <= to_step")
        elif self.from_step is not None or self.to_step is not None:
            raise ConfigInvalid(f"behavior {self.mode!r} does not take a step window")

    def to_dict(self) -> dict:
        out: dict = {"mode": self.mode}
        if self.mode == DOSED:
            out["from_step"] = self.from_step
            out["to_step"] = self.to_step
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "EndorserBehavior":
        window = (None if data.get(key) is None else json_int(data[key]) for key in ("from_step", "to_step"))
        return cls(data.get("mode", HONEST), *window)


HONEST_BEHAVIOR = EndorserBehavior(HONEST)


def dosed(from_step: int, to_step: int) -> EndorserBehavior:
    return EndorserBehavior(DOSED, from_step, to_step)


def behavior_from_mode(mode: str, *, horizon: int) -> EndorserBehavior:
    """Campaign draws name a mode; a drawn DoS covers the whole horizon."""
    if mode == DOSED:
        return EndorserBehavior(DOSED, 0, horizon)
    return EndorserBehavior(mode)


@dataclass(frozen=True, slots=True)
class TxProposal:
    tx_id: str
    client_id: str
    nonce: int
    op: ChaincodeOp

    def to_dict(self) -> dict:
        return {"tx_id": self.tx_id, "client_id": self.client_id, "nonce": self.nonce, "op": self.op.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "TxProposal":
        return cls(data["tx_id"], data["client_id"], json_int(data["nonce"]), ChaincodeOp.from_dict(data["op"]))


@dataclass(frozen=True, slots=True)
class OrdererConfig:
    n: int
    batch_size: int = 10
    crash_schedule: tuple[tuple[int, int], ...] = ()  # (step, orderer index)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "batch_size": self.batch_size,
            "crash_schedule": [list(entry) for entry in self.crash_schedule],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OrdererConfig":
        return cls(
            json_int(data["n"]),
            json_int(data.get("batch_size", 10)),
            tuple((json_int(step), json_int(index)) for step, index in data.get("crash_schedule", [])),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    msp_emitters: frozenset[str]
    msp_endorsers: frozenset[str]
    endorser_behaviors: dict[str, EndorserBehavior]
    policy: EndorsementPolicy
    orderers: OrdererConfig
    peers: int
    skip_v7_peers: frozenset[int] = frozenset()
    workload: tuple[tuple[int, TxProposal], ...] = ()
    horizon: int = 0
    seed: int = 0

    def with_behaviors(self, behaviors: Mapping[str, EndorserBehavior]) -> "ScenarioConfig":
        return replace(self, endorser_behaviors=dict(behaviors))

    def proposals(self) -> list[TxProposal]:
        return [proposal for _, proposal in self.workload]


def validate_config(config: ScenarioConfig) -> None:
    """Raise ``ConfigInvalid`` on the first structural violation."""
    if not 0 <= config.seed <= MASK64:
        raise ConfigInvalid("seed must be an unsigned 64-bit integer")
    if config.peers < 1:
        raise ConfigInvalid("at least one peer is required")
    if config.orderers.n < 1 or config.orderers.batch_size < 1:
        raise ConfigInvalid("orderer count and batch size must be at least 1")
    for step, index in config.orderers.crash_schedule:
        if step < 0 or not 0 <= index < config.orderers.n:
            raise ConfigInvalid(f"crash schedule entry ({step}, {index}) is out of range")
    for peer in config.skip_v7_peers:
        if not 0 <= peer < config.peers:
            raise ConfigInvalid(f"skip_v7 peer {peer} is out of range")
    unknown = set(config.endorser_behaviors) - config.msp_endorsers
    if unknown:
        raise ConfigInvalid(f"behaviors name endorsers outside the MSP set: {sorted(unknown)}")
    outside = identities(config.policy) - config.msp_endorsers
    if outside:
        raise ConfigInvalid(f"policy names identities outside the endorser set: {sorted(outside)}")
    if config.horizon < 0:
        raise ConfigInvalid("horizon must not be negative")
    tx_ids = set()
    for step, proposal in config.workload:
        if step < 0 or step > config.horizon:
            raise ConfigInvalid(f"workload step {step} is outside 0..horizon")
        if proposal.tx_id in tx_ids:
            raise ConfigInvalid(f"duplicate tx_id {proposal.tx_id!r}")
        tx_ids.add(proposal.tx_id)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "msp_emitters": sorted(config.msp_emitters),
        "msp_endorsers": sorted(config.msp_endorsers),
        "endorser_behaviors": {e: b.to_dict() for e, b in config.endorser_behaviors.items()},
        "policy": serialize_policy(config.policy),
        "orderers": config.orderers.to_dict(),
        "peers": {"count": config.peers, "skip_v7": sorted(config.skip_v7_peers)},
        "workload": [[step, proposal.to_dict()] for step, proposal in config.workload],
        "horizon": config.horizon,
        "seed": config.seed,
    }


def scenario_from_dict(data: dict) -> ScenarioConfig:
    try:
        peers = data.get("peers", {})
        return ScenarioConfig(
            msp_emitters=frozenset(data["msp_emitters"]),
            msp_endorsers=frozenset(data["msp_endorsers"]),
            endorser_behaviors={
                e: EndorserBehavior.from_dict(b) for e, b in data.get("endorser_behaviors", {}).items()
            },
            policy=parse_policy(data["policy"]),
            orderers=OrdererConfig.from_dict(data["orderers"]),
            peers=json_int(peers["count"]),
            skip_v7_peers=frozenset(json_int(p) for p in peers.get("skip_v7", [])),
            workload=tuple((json_int(step), TxProposal.from_dict(p)) for step, p in data.get("workload", [])),
            horizon=json_int(data["horizon"]),
            seed=json_int(data.get("seed", 0)),
        )
    except ConfigInvalid:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed scenario document: {exc}") from exc


def scenario_bytes(config: ScenarioConfig) -> bytes:
    """Canonical scenario document bytes (these feed the config digest)."""
    return canonical_json_bytes(scenario_to_dict(config))


def scenario_digest(config: ScenarioConfig) -> str:
    return sha256_hex(scenario_bytes(config))


def parse_scenario(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("scenario document must be a JSON object")
    config = scenario_from_dict(data)
    validate_config(config)
    return config


def _probe_base(
    policy: EndorsementPolicy,
    behaviors: dict[str, EndorserBehavior],
    proposal: TxProposal,
    seed: int,
) -> ScenarioConfig:
    return ScenarioConfig(
        msp_emitters=frozenset({proposal.client_id}),
        msp_endorsers=frozenset(identities(policy)),
        endorser_behaviors=behaviors,
        policy=policy,
        orderers=OrdererConfig(n=1, batch_size=4),
        peers=1,
        workload=((0, proposal),),
        horizon=1,
        seed=seed,
    )


def fraud_probe_scenario(
    policy: EndorsementPolicy, labeling: Mapping[str, str], *, seed: int = 0
) -> ScenarioConfig:
    """Single invalid transaction under the given fault labeling.

    The transaction overdraws an unfunded account, so honest endorsers refuse
    it at execution while fraudulent ones endorse the claimed effects.
    """
    behaviors = {
        endorser: EndorserBehavior(mode) for endorser, mode in labeling.items() if mode != HONEST
    }
    proposal = TxProposal(
        "probe-invalid", "probe-client", 1, ChaincodeOp.transfer("unfunded", "sink", 5, valid=False)
    )
    return _probe_base(policy, behaviors, proposal, seed)


def censorship_probe_scenario(
    policy: EndorsementPolicy, labeling: Mapping[str, str], *, seed: int = 0
) -> ScenarioConfig:
    """Single valid transaction under the given fault labeling.

    Identities labeled fraudulent withhold their signature here (the worst
    case for the targeted transaction), so only honest endorsers sign.
    """
    behaviors: dict[str, EndorserBehavior] = {}
    for endorser, mode in labeling.items():
        if mode == HONEST:
            continue
        behaviors[endorser] = EndorserBehavior(CENSORING if mode == FRAUDULENT else mode)
    proposal = TxProposal("probe-valid", "probe-client", 1, ChaincodeOp.set("k", 1))
    return _probe_base(policy, behaviors, proposal, seed)
