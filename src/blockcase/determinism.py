"""Deterministic bytes and deterministic randomness.

Every document this package writes (scenario files, run reports, evidence
documents) goes through ``canonical_json_bytes`` and every digest through
``sha256_hex``, so equal values always produce equal bytes and equal hashes,
independent of platform, locale or wall clock.

A draw is a 64-bit word ``x``, placed with no float made from it: ``x`` lies
below a threshold ``t`` when ``x < t * 2.0**64``. Scaling by a power of two is
exact, and Python compares an int with a float exactly.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Sequence

MASK64 = (1 << 64) - 1
_U64 = struct.Struct(">Q")
_INFINITY = float("inf")
# above every 32-byte digest: the bound of a threshold that no draw reaches
_UNREACHED = b"\xff" * 33


def sha256_hex(data: bytes) -> str:
    """Hex digest (64 lowercase chars) of the given bytes."""
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path | str) -> str:
    return sha256_hex(Path(path).read_bytes())


def canonical_json_bytes(obj) -> bytes:
    """The one canonical JSON form: sorted keys, two-space indent, LF, UTF-8.

    The bytes of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False)`` plus a final LF, for dicts with ``str`` keys,
    lists, tuples, strings, ints, floats, booleans and None, written
    without ``json``'s pure-Python indent encoder. A non-``str`` key raises
    ``TypeError``.
    """
    parts: list[str] = []
    _write_json(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts).encode("utf-8")


def _write_json(value, parts: list[str], newline: str) -> None:
    """Append ``value``'s canonical text to ``parts``; ``newline`` is LF plus the current indent.

    Types are tested in ``json``'s order, so a ``bool`` is not an ``int``
    and subclasses are written as their base type is.
    """
    if isinstance(value, str):
        parts.append(encode_basestring(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            parts.append("NaN")
        elif value == _INFINITY:
            parts.append("Infinity")
        elif value == -_INFINITY:
            parts.append("-Infinity")
        else:
            parts.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            parts.append(lead)
            _write_json(item, parts, inner)
            lead = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):  # keys of mixed types raise TypeError here
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(lead)
            parts.append(encode_basestring(key))
            parts.append(": ")
            _write_json(value[key], parts, inner)
            lead = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _seeded(seed: int):
    """The SHA-256 state after the generator's tag and ``seed``; a stream's prefix continues a copy of it."""
    if not 0 <= seed <= MASK64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return hashlib.sha256(b"blockcase.rng" + _U64.pack(seed))


class CounterRng:
    """Counter-based generator: draw i depends only on (seed, stream, i).

    Draw i is the first 8 bytes, big-endian, of the SHA-256 of
    ``b"blockcase.rng"`` followed by seed, stream and i as 8 big-endian
    bytes each (the stream taken mod 2**64); ``placed_rows`` hashes the
    same bytes. Draw ``x`` lies below a threshold ``t`` when ``x < t * 2.0**64``.

    Streams are independent by construction, so consumers can hand one stream
    per campaign run and reordering or skipping runs cannot perturb the draws
    of any other run.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        # the prefix (tag, seed, stream) is hashed once; each draw hashes only its counter onto a copy
        self._prefix = _seeded(seed)
        self._prefix.update(_U64.pack(stream & MASK64))
        self._counter = 0

    def u64(self) -> int:
        hasher = self._prefix.copy()
        hasher.update(struct.pack(">Q", self._counter))
        block = hasher.digest()
        self._counter += 1
        return int.from_bytes(block[:8], "big")

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.u64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def uniform_bounds(thresholds: Sequence[float]) -> list[bytes]:
    """Per threshold ``t``, the least ``x`` in ``[0, 2**64)`` with ``x >= t * 2**64``, as 8 big-endian bytes.

    That is the ceiling of the exact ``t * 2.0**64``; a threshold that no
    ``x`` reaches gets 33 bytes of 0xff, above every digest. A digest is at
    or above a bound exactly when the ``u64`` of its first 8 bytes is, so
    ``bisect_right(bounds, digest)`` counts the thresholds that ``u64`` is not below.
    """
    bounds = []
    for t in thresholds:
        scaled = t * 2.0**64
        bounds.append(_U64.pack(math.ceil(scaled)) if scaled <= MASK64 else _UNREACHED)
    return bounds


def placed_rows(seed: int, streams: Iterable[int], n: int, bounds: Sequence[bytes]) -> Iterator[list[int]]:
    """Per stream, where each of its first ``n`` draws falls among ``bounds`` (from ``uniform_bounds``).

    Entry ``i`` of a row is ``bisect_right(bounds, digest)`` for draw ``i``
    of ``CounterRng(seed, stream)``: the number of thresholds ``t``, among
    those the bounds came from, with ``u64() >= t * 2**64``. The tag and
    seed are hashed once, and each stream's prefix continues a copy of
    that state with the stream's 8 bytes; then one SHA-256 per draw and
    one byte compare per bound; no ``u64`` or float is made.
    """
    seeded = _seeded(seed)
    counters = [_U64.pack(i) for i in range(n)]
    for stream in streams:
        prefix = seeded.copy()
        prefix.update(_U64.pack(stream & MASK64))
        row = []
        for counter in counters:
            hasher = prefix.copy()
            hasher.update(counter)
            row.append(bisect_right(bounds, hasher.digest()))
        yield row
