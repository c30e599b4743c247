from __future__ import annotations

import hashlib
import struct

import pytest

from blockcase.determinism import MASK64, CounterRng, uniform_rows


def reference_u64(seed: int, stream: int, i: int) -> int:
    """Draw ``i`` of ``(seed, stream)``, hashed in one piece."""
    data = b"blockcase.rng" + struct.pack(">QQ", seed, stream & MASK64) + struct.pack(">Q", i)
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


@pytest.mark.parametrize("seed, stream", [(0, 0), (MASK64, 2**64 + 5), (404, 9)])
def test_the_stream_equals_the_reference(seed, stream):
    rng = CounterRng(seed, stream)
    assert [rng.u64() for _ in range(8)] == [reference_u64(seed, stream, i) for i in range(8)]


def test_the_stream_keeps_its_values():
    # literals, so that a change to the stream cannot pass unnoticed: every campaign's draws depend on it
    rng = CounterRng(404, stream=9)
    assert [rng.u64() for _ in range(8)] == [
        4071447617414339566, 422501707749492905, 13589166997817295414, 8810107980425452064,
        5191931539203760770, 16093822177585083890, 11292443708391942341, 4917499900959946958,
    ]


@pytest.mark.parametrize("seed, streams", [(0, range(3)), (MASK64, [2**64 + 5, 0, 7]), (404, range(9, 12))])
def test_uniform_rows_equal_each_streams_uniform_draws(seed, streams):
    rows = list(uniform_rows(seed, streams, 6))
    assert rows == [[rng.uniform() for _ in range(6)] for rng in (CounterRng(seed, stream) for stream in streams)]
