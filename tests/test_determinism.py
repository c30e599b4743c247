from __future__ import annotations

import hashlib
import json
import struct
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockcase import policy_analysis
from blockcase.determinism import MASK64, CounterRng, canonical_json_bytes, placed_rows, uniform_bounds
from blockcase.eov_sim.scenario import CENSORING, CRASHED, DOSED, FRAUDULENT


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


# ---------------------------------------------------------------- draw placement

THRESHOLDS = [0.1, 0.25, 0.25, 0.7]


def placed(thresholds, x: int) -> int:
    """The reference place of word ``x``: how many thresholds ``t`` it is not below, ``x >= t * 2**64``."""
    return sum(x >= t * 2**64 for t in thresholds)


@pytest.mark.parametrize("seed, streams", [(0, range(3)), (MASK64, [2**64 + 5, 0, 7]), (404, range(9, 12))])
def test_placed_rows_place_uniform_draws(seed, streams):
    rows = list(placed_rows(seed, streams, 6, uniform_bounds(THRESHOLDS)))
    assert rows == [
        [placed(THRESHOLDS, rng.u64()) for _ in range(6)] for rng in (CounterRng(seed, stream) for stream in streams)
    ]


def digest_of(x: int, tail: bytes) -> bytes:
    """A 32-byte digest whose first 8 bytes are the big-endian ``x``."""
    return x.to_bytes(8, "big") + tail


TAILS = (b"\x00" * 24, b"\xff" * 24)
TOP = 2**64 - 1024  # from here up, a float division x / 2**64 would round to 1.0
UNREACHED = b"\xff" * 33


def assert_placed_exactly(thresholds, xs):
    """Each digest falls among the bounds where the reference places its word."""
    bounds = uniform_bounds(thresholds)
    for x in xs:
        if 0 <= x <= MASK64:
            for tail in TAILS:
                assert bisect_right(bounds, digest_of(x, tail)) == placed(thresholds, x), (x, tail)


@pytest.mark.parametrize("threshold", [0.0, 5e-324, 0.1, 0.25, 1.0, 1.0 + 1e-13])
def test_a_bound_places_the_draws_around_it_as_its_threshold_does(threshold):
    (bound,) = uniform_bounds([threshold])
    ends = [0, TOP - 1, TOP, MASK64]
    if len(bound) == 8:
        x = int.from_bytes(bound, "big")
        assert x >= threshold * 2**64 and (x == 0 or x - 1 < threshold * 2**64)
        ends += range(x - 2, x + 3)
    else:
        assert bound == UNREACHED and MASK64 < threshold * 2**64
    assert_placed_exactly([threshold], ends)


def test_the_named_bounds():
    values = uniform_bounds([0.0, 5e-324, 0.25, 1.0, 1.0 + 1e-13])
    assert values[:3] == [(0).to_bytes(8, "big"), (1).to_bytes(8, "big"), (2**62).to_bytes(8, "big")]
    assert values[3:] == [UNREACHED, UNREACHED]  # no word reaches 1.0 or more, so none is placed past it
    assert bisect_right(values[3:], b"\xff" * 32) == 0
    for tail in TAILS:  # 0.25 * 2**64 is the integer 2**62: the word below it lies below the bound
        assert bisect_right(values[2:3], digest_of(2**62 - 1, tail)) == 0
        assert bisect_right(values[2:3], digest_of(2**62, tail)) == 1


def test_a_top_draw_is_placed_within_thresholds_that_end_at_one():
    """With cumulative thresholds that end at exactly 1.0, every word lies below the last one, so
    no draw lands in the slot past it (a campaign's honest slot, which then has probability 0)."""
    thresholds = [0.25, 0.5, 0.75, 1.0]
    bounds = uniform_bounds(thresholds)
    for x in (TOP - 1, TOP, MASK64):
        assert placed(thresholds, x) == 3
        for tail in TAILS:
            assert bisect_right(bounds, digest_of(x, tail)) == 3, (x, tail)


def test_a_campaign_top_draw_is_fraudulent_when_fraudulent_has_probability_one(monkeypatch):
    """With ``fraudulent=1.0`` the run-at-a-time reference and the campaign's placement both give
    the top words the fraudulent mode, never the honest one."""
    words = iter([TOP - 1, TOP, MASK64])

    class TopDraws:
        def __init__(self, seed, stream=0):
            pass

        def u64(self):
            return next(words)

    monkeypatch.setattr(policy_analysis, "CounterRng", TopDraws)
    probabilities = {CENSORING: 0.0, CRASHED: 0.0, DOSED: 0.0, FRAUDULENT: 1.0}
    endorsers = ["E1", "E2", "E3"]
    assert policy_analysis.draw_behavior_modes(endorsers, probabilities, 0, 0) == dict.fromkeys(endorsers, FRAUDULENT)
    bounds = uniform_bounds([0.0, 1.0])  # the cumulative thresholds after the silent modes and after fraudulent
    for x in (TOP - 1, TOP, MASK64):
        for tail in TAILS:
            assert bisect_right(bounds, digest_of(x, tail)) == 1, (x, tail)  # a campaign's fraudulent place


thresholds_sets = st.lists(
    st.sampled_from((0.0, 5e-324, 0.25, 0.5, 1.0, 1.0 + 1e-13)) | st.floats(0.0, 1.0 + 1e-12), min_size=1, max_size=5
).map(sorted)


@settings(deadline=None)
@given(thresholds=thresholds_sets, data=st.data())
@example(thresholds=[0.0, 0.0, 1.0], data=None)
def test_byte_placement_equals_exact_placement(thresholds, data):
    """At each bound and two either side of it, at the ends of the range and at drawn values."""
    bounds = uniform_bounds(thresholds)
    xs = [0, 1, TOP - 1025, TOP - 1, TOP, MASK64]
    for bound in bounds:
        if len(bound) == 8:
            x = int.from_bytes(bound, "big")
            xs += range(x - 2, x + 3)
    if data is not None:
        xs += data.draw(st.lists(st.integers(0, MASK64), max_size=20))
    assert_placed_exactly(thresholds, xs)


# ---------------------------------------------------------------- canonical JSON

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from((-0.0, 1e16, float("nan"), float("inf"), float("-inf")))
    | st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\n\r\t\x00\x7f\x85\u2028\u2029'))
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children) | st.tuples(children, children) | st.dictionaries(st.text(), children),
    max_leaves=25,
)


@settings(deadline=None)
@given(json_values)
@example({"b": [], "a": {}, "c": (), " ": [-0.0, 1e16, float("nan"), float("inf"), 10**30]})
def test_canonical_json_bytes_equal_json_dumps(value):
    expected = (json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    assert canonical_json_bytes(value) == expected


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}]])
def test_canonical_json_bytes_refuse_a_key_that_is_not_a_string(value):
    with pytest.raises(TypeError):
        canonical_json_bytes(value)


def test_canonical_json_bytes_refuse_a_value_json_cannot_write():
    with pytest.raises(TypeError):
        canonical_json_bytes({"a": {1, 2}})
