"""Versioned key-value state and the modeled chaincode operations.

The chaincode is deliberately tiny: ``set`` writes one key, ``transfer``
moves a positive amount between two balances and fails when the source
balance is short, ``noop`` touches nothing. Execution computes a read/write
set against the current state but never applies it; only block validation
assigns versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..determinism import canonical_json_bytes, sha256_hex

VERSION_ZERO = (0, 0)  # committed blocks start at 1, so (0, 0) marks "never written"


class AppFailure(Exception):
    """The business rule of an operation is violated (a validity failure)."""


@dataclass(frozen=True, slots=True)
class ReadWriteSet:
    reads: frozenset[tuple[str, tuple[int, int]]]
    writes: frozenset[tuple[str, int]]

    def __post_init__(self):
        if len({k for k, _ in self.reads}) != len(self.reads):
            raise ValueError("duplicate key in read set")
        if len({k for k, _ in self.writes}) != len(self.writes):
            raise ValueError("duplicate key in write set")


EMPTY_RWSET = ReadWriteSet(frozenset(), frozenset())

SET = "set"
TRANSFER = "transfer"
NOOP = "noop"


@dataclass(frozen=True, slots=True)
class ChaincodeOp:
    """One modeled operation plus the scenario author's ground-truth verdict.

    ``ground_truth_valid`` states whether the operation respects the business
    logic and the submitting client's intent; detectors compare committed
    outcomes against it.
    """

    kind: str
    key: str | None = None
    value: int | None = None
    from_key: str | None = None
    to_key: str | None = None
    amount: int | None = None
    ground_truth_valid: bool = True

    def __post_init__(self):
        if self.kind == SET:
            if self.key is None or self.value is None:
                raise ValueError("set needs a key and a value")
        elif self.kind == TRANSFER:
            if self.from_key is None or self.to_key is None or self.amount is None:
                raise ValueError("transfer needs from_key, to_key and amount")
            if self.amount <= 0:
                raise ValueError("transfer amount must be positive")
            if self.from_key == self.to_key:
                raise ValueError("transfer endpoints must differ")
        elif self.kind != NOOP:
            raise ValueError(f"unknown op kind {self.kind!r}")

    @classmethod
    def set(cls, key: str, value: int, *, valid: bool = True) -> "ChaincodeOp":
        return cls(SET, key=key, value=value, ground_truth_valid=valid)

    @classmethod
    def transfer(cls, from_key: str, to_key: str, amount: int, *, valid: bool = True) -> "ChaincodeOp":
        return cls(TRANSFER, from_key=from_key, to_key=to_key, amount=amount, ground_truth_valid=valid)

    @classmethod
    def noop(cls, *, valid: bool = True) -> "ChaincodeOp":
        return cls(NOOP, ground_truth_valid=valid)


class KvStore:
    """Versioned store: key -> (value, (block_no, tx_index))."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, tuple[int, tuple[int, int]]] | None = None):
        self.entries = dict(entries) if entries else {}

    def value(self, key: str) -> int:
        entry = self.entries.get(key)
        return entry[0] if entry else 0

    def version(self, key: str) -> tuple[int, int]:
        entry = self.entries.get(key)
        return entry[1] if entry else VERSION_ZERO

    def copy(self) -> "KvStore":
        return KvStore(self.entries)

    def apply_writes(self, writes: frozenset[tuple[str, int]], version: tuple[int, int]) -> None:
        for key, value in writes:
            self.entries[key] = (value, version)

    def digest(self) -> str:
        payload = {key: [value, list(version)] for key, (value, version) in self.entries.items()}
        return sha256_hex(canonical_json_bytes(payload))

    def __eq__(self, other) -> bool:
        return isinstance(other, KvStore) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"KvStore({self.entries!r})"


def execute_chaincode(state: KvStore, op: ChaincodeOp) -> ReadWriteSet:
    """Compute the operation's effects against the state without applying them.

    Raises ``AppFailure`` when the business rule is violated (an overdrawn
    transfer), which an honest endorser turns into a validity refusal.
    """
    if op.kind == NOOP:
        return EMPTY_RWSET
    if op.kind == SET:
        return ReadWriteSet(
            frozenset({(op.key, state.version(op.key))}),
            frozenset({(op.key, op.value)}),
        )
    balance = state.value(op.from_key)
    if balance < op.amount:
        raise AppFailure(f"balance of {op.from_key!r} is {balance}, cannot move {op.amount}")
    return _transfer_effects(state, op, balance)


def claimed_effects(state: KvStore, op: ChaincodeOp) -> ReadWriteSet:
    """Effects as a fraudulent endorser claims them: business guards skipped."""
    if op.kind != TRANSFER:
        return execute_chaincode(state, op)
    return _transfer_effects(state, op, state.value(op.from_key))


def _transfer_effects(state: KvStore, op: ChaincodeOp, balance: int) -> ReadWriteSet:
    return ReadWriteSet(
        frozenset({(op.from_key, state.version(op.from_key)), (op.to_key, state.version(op.to_key))}),
        frozenset({(op.from_key, balance - op.amount), (op.to_key, state.value(op.to_key) + op.amount)}),
    )
