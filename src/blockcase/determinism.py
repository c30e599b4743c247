"""Deterministic bytes and deterministic randomness.

Every document this package writes (scenario files, run reports, evidence
documents) goes through ``canonical_json_bytes`` and every digest through
``sha256_hex``, so equal values always produce equal bytes and equal hashes,
independent of platform, locale or wall clock.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Iterable, Iterator

MASK64 = (1 << 64) - 1
_U64 = struct.Struct(">Q")


def sha256_hex(data: bytes) -> str:
    """Hex digest (64 lowercase chars) of the given bytes."""
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path | str) -> str:
    return sha256_hex(Path(path).read_bytes())


def canonical_json_bytes(obj) -> bytes:
    """The one canonical JSON form: sorted keys, two-space indent, LF, UTF-8."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= MASK64:
        raise ValueError("seed must be an unsigned 64-bit integer")


def _stream_prefix(seed: int, stream: int):
    return hashlib.sha256(b"blockcase.rng" + struct.pack(">QQ", seed, stream & MASK64))


class CounterRng:
    """Counter-based generator: draw i depends only on (seed, stream, i).

    Streams are independent by construction, so consumers can hand one stream
    per campaign run and reordering or skipping runs cannot perturb the draws
    of any other run.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        _check_seed(seed)
        # the prefix is hashed once; each draw hashes only its counter onto a copy
        self._prefix = _stream_prefix(seed, stream)
        self._counter = 0

    def u64(self) -> int:
        hasher = self._prefix.copy()
        hasher.update(struct.pack(">Q", self._counter))
        block = hasher.digest()
        self._counter += 1
        return int.from_bytes(block[:8], "big")

    def uniform(self) -> float:
        """Float in [0, 1)."""
        return self.u64() / 2.0**64

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.u64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def uniform_rows(seed: int, streams: Iterable[int], n: int) -> Iterator[list[float]]:
    """Per stream, the first ``n`` values of ``CounterRng(seed, stream).uniform()``.

    The same draws taken in a batch, with one prefix hash per stream and
    one SHA-256 per draw, but no ``CounterRng`` object or method call.
    """
    _check_seed(seed)
    counters = [_U64.pack(i) for i in range(n)]
    for stream in streams:
        prefix = _stream_prefix(seed, stream)
        row = []
        for counter in counters:
            hasher = prefix.copy()
            hasher.update(counter)
            row.append(_U64.unpack_from(hasher.digest())[0] / 2.0**64)
        yield row
