"""Scenario configuration: topology, faults, workload, and its canonical file form.

This module owns the scenario document format: ``scenario_to_dict`` writes
it and ``scenario_from_dict`` reads it, checking every field's JSON type, so
no other code reads or writes scenario JSON. A scenario file is a JSON
document with sorted keys; its canonical bytes feed the config digest echoed
in every run report, so a report can always be traced back to the exact
configuration that produced it. A run is deterministic, so a scenario holds no
seed; an older document's ``seed`` key is ignored like any other unknown key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping

from ..determinism import canonical_json_bytes, sha256_hex
from ..policy import EndorsementPolicy, identities, parse_policy, serialize_policy
from .state import NOOP, SET, TRANSFER, ChaincodeOp

HONEST = "honest"
FRAUDULENT = "fraudulent"
CENSORING = "censoring"
CRASHED = "crashed"
DOSED = "dosed"
BEHAVIOR_MODES = frozenset({HONEST, FRAUDULENT, CENSORING, CRASHED, DOSED})

# upper bounds on a scenario's size, so that no document can make a run step for ever
MAX_HORIZON = 1_000_000
MAX_PEERS = 1_000
MAX_ORDERERS = 1_000


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
            if self.from_step < 0:
                raise ConfigInvalid("a denial-of-service window starts at step 0 or later")
        elif self.from_step is not None or self.to_step is not None:
            raise ConfigInvalid(f"behavior {self.mode!r} does not take a step window")


HONEST_BEHAVIOR = EndorserBehavior(HONEST)


def dosed(from_step: int, to_step: int) -> EndorserBehavior:
    return EndorserBehavior(DOSED, from_step, to_step)


@dataclass(frozen=True, slots=True)
class TxProposal:
    tx_id: str
    client_id: str
    nonce: int
    op: ChaincodeOp


@dataclass(frozen=True, slots=True)
class OrdererConfig:
    n: int
    batch_size: int = 10
    crash_schedule: tuple[tuple[int, int], ...] = ()  # (step, orderer index)


@dataclass(frozen=True)
class ScenarioConfig:
    """A run's whole configuration, valid once built: every construction, ``replace``
    and ``with_behaviors`` goes through ``validate_config``. It fixes the run
    completely, so it takes no seed."""

    msp_emitters: frozenset[str]
    msp_endorsers: frozenset[str]
    endorser_behaviors: dict[str, EndorserBehavior]
    policy: EndorsementPolicy
    orderers: OrdererConfig
    peers: int
    skip_v7_peers: frozenset[int] = frozenset()
    workload: tuple[tuple[int, TxProposal], ...] = ()
    horizon: int = 0

    def __post_init__(self):
        validate_config(self)

    def with_behaviors(self, behaviors: Mapping[str, EndorserBehavior]) -> "ScenarioConfig":
        return replace(self, endorser_behaviors=dict(behaviors))

    def proposals(self) -> list[TxProposal]:
        return [proposal for _, proposal in self.workload]


def validate_config(config: ScenarioConfig) -> None:
    """Raise ``ConfigInvalid`` on the first structural violation."""
    if not 1 <= config.peers <= MAX_PEERS:
        raise ConfigInvalid(f"peer count must lie in 1..{MAX_PEERS}")
    if not 1 <= config.orderers.n <= MAX_ORDERERS:
        raise ConfigInvalid(f"orderer count must lie in 1..{MAX_ORDERERS}")
    if config.orderers.batch_size < 1:
        raise ConfigInvalid("batch size must be at least 1")
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
    if not 0 <= config.horizon <= MAX_HORIZON:
        raise ConfigInvalid(f"horizon must lie in 0..{MAX_HORIZON}")
    tx_ids = set()
    for step, proposal in config.workload:
        if step < 0 or step > config.horizon:
            raise ConfigInvalid(f"workload step {step} is outside 0..horizon")
        if proposal.tx_id in tx_ids:
            raise ConfigInvalid(f"duplicate tx_id {proposal.tx_id!r}")
        tx_ids.add(proposal.tx_id)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """The scenario document; ``scenario_from_dict`` reads it back to an equal config."""
    return {
        "msp_emitters": sorted(config.msp_emitters),
        "msp_endorsers": sorted(config.msp_endorsers),
        "endorser_behaviors": {
            e: {"mode": b.mode, **({"from_step": b.from_step, "to_step": b.to_step} if b.mode == DOSED else {})}
            for e, b in config.endorser_behaviors.items()
        },
        "policy": serialize_policy(config.policy),
        "orderers": {
            "n": config.orderers.n,
            "batch_size": config.orderers.batch_size,
            "crash_schedule": [list(entry) for entry in config.orderers.crash_schedule],
        },
        "peers": {"count": config.peers, "skip_v7": sorted(config.skip_v7_peers)},
        "workload": [
            [step, {"tx_id": p.tx_id, "client_id": p.client_id, "nonce": p.nonce, "op": {
                "kind": p.op.kind,
                "ground_truth_valid": p.op.ground_truth_valid,
                **{name: getattr(p.op, name) for name in _OP_FIELDS[p.op.kind]},
            }}]
            for step, p in config.workload
        ],
        "horizon": config.horizon,
    }


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Read a scenario document, refusing any field whose JSON type is wrong.

    Optional fields take their defaults and unknown keys are ignored. Raises
    ``ConfigInvalid`` naming the path of the first bad field.
    """
    try:
        behaviors, behaviors_at = _field(data, "endorser_behaviors", "", dict, {})
        orderers, orderers_at = _field(data, "orderers", "", dict)
        crashes, crashes_at = _field(orderers, "crash_schedule", orderers_at, list, [])
        peers, peers_at = _field(data, "peers", "", dict, {})
        workload, workload_at = _field(data, "workload", "", list, [])
        return ScenarioConfig(
            msp_emitters=frozenset(_items(data, "msp_emitters", "", str)),
            msp_endorsers=frozenset(_items(data, "msp_endorsers", "", str)),
            endorser_behaviors={e: _read_behavior(*_field(behaviors, e, behaviors_at, dict)) for e in behaviors},
            policy=parse_policy(_get(data, "policy", "", str)),
            orderers=OrdererConfig(
                _get(orderers, "n", orderers_at, int),
                _get(orderers, "batch_size", orderers_at, int, 10),
                tuple(tuple(_items(crashes, i, crashes_at, int, size=2)) for i in range(len(crashes))),
            ),
            peers=_get(peers, "count", peers_at, int),
            skip_v7_peers=frozenset(_items(peers, "skip_v7", peers_at, int, [])),
            workload=tuple(_read_step(*_field(workload, i, workload_at, list, size=2)) for i in range(len(workload))),
            horizon=_get(data, "horizon", "", int),
        )
    except ConfigInvalid:
        raise
    except ValueError as exc:  # ChaincodeOp's own checks and parse_policy's PolicyError
        raise ConfigInvalid(f"malformed scenario document: {exc}") from exc


def _read_behavior(data: dict, at: str) -> EndorserBehavior:
    window = (None if data.get(key) is None else _get(data, key, at, int) for key in ("from_step", "to_step"))
    return EndorserBehavior(_get(data, "mode", at, str, HONEST), *window)


def _read_step(entry: list, at: str) -> tuple[int, TxProposal]:
    step = _get(entry, 0, at, int)
    proposal, proposal_at = _field(entry, 1, at, dict)
    op, op_at = _field(proposal, "op", proposal_at, dict)
    kind = _get(op, "kind", op_at, str)
    fields = {name: _get(op, name, op_at, json_type) for name, json_type in _OP_FIELDS.get(kind, {}).items()}
    valid = _get(op, "ground_truth_valid", op_at, bool, True)
    return step, TxProposal(
        _get(proposal, "tx_id", proposal_at, str),
        _get(proposal, "client_id", proposal_at, str),
        _get(proposal, "nonce", proposal_at, int),
        ChaincodeOp(kind, ground_truth_valid=valid, **fields),
    )


_ABSENT = object()
# how an error message states each JSON type a field can be required to have
_EXPECTED = {int: ": expected an integer", str: ": expected a string", bool: " must be true or false",
             dict: ": expected an object", list: ": expected a list"}
# the fields each op kind carries in a document, with their JSON types
_OP_FIELDS = {SET: {"key": str, "value": int}, TRANSFER: {"from_key": str, "to_key": str, "amount": int}, NOOP: {}}


def _field(container, key, where: str, kind: type, default=_ABSENT, size: int | None = None) -> tuple:
    """Member or item ``key`` of a document object or list and its path, if its JSON type is ``kind``.

    The type must match exactly, so ``true`` is not an integer and neither
    are ``1.5`` and ``"2"``. ``default`` stands in for an absent member, and
    ``size`` fixes the length of a list.
    """
    path = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}" if where else key
    value = container.get(key, default) if isinstance(container, dict) else container[key]
    if type(value) is not kind or (size is not None and len(value) != size):
        got = "nothing" if value is _ABSENT else "an object" if isinstance(value, dict) else (
            f"a list of length {len(value)}" if isinstance(value, list) else json.dumps(value))
        expected = _EXPECTED[kind] + ("" if size is None else f" of length {size}")
        raise ConfigInvalid(f"malformed scenario document: {path}{expected}, got {got}")
    return value, path


def _get(container, key, where: str, kind: type, default=_ABSENT):
    return _field(container, key, where, kind, default)[0]


def _items(container, key, where: str, kind: type, default=_ABSENT, size: int | None = None) -> list:
    """A list whose items all have JSON type ``kind``."""
    items, path = _field(container, key, where, list, default, size)
    return [_get(items, i, path, kind) for i in range(len(items))]


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
    except ValueError as exc:  # an integer longer than Python's limit on int conversion
        raise ConfigInvalid(f"scenario cannot be read: {exc}") from exc
    except RecursionError as exc:
        raise ConfigInvalid("scenario nests too deeply to read") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("scenario document must be a JSON object")
    return scenario_from_dict(data)


def standalone_scenario(
    policy: EndorsementPolicy,
    proposals: tuple[TxProposal, ...],
    behaviors: Mapping[str, EndorserBehavior] | None = None,
    *,
    orderers: OrdererConfig = OrdererConfig(n=1, batch_size=4),
    horizon: int = 1,
) -> ScenarioConfig:
    """A scenario around a policy: its identities endorse, one peer validates, every proposal comes at step 0."""
    return ScenarioConfig(
        msp_emitters=frozenset(p.client_id for p in proposals),
        msp_endorsers=frozenset(identities(policy)),
        endorser_behaviors=dict(behaviors or {}),
        policy=policy,
        orderers=orderers,
        peers=1,
        workload=tuple((0, p) for p in proposals),
        horizon=horizon,
    )


def fraud_probe_scenario(policy: EndorsementPolicy, labeling: Mapping[str, str]) -> ScenarioConfig:
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
    return standalone_scenario(policy, (proposal,), behaviors)


def censorship_probe_scenario(policy: EndorsementPolicy, labeling: Mapping[str, str]) -> ScenarioConfig:
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
    return standalone_scenario(policy, (proposal,), behaviors)
