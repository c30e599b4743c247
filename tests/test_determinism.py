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
from blockcase.eov_sim.scenario import CENSORING, CRASHED, DOSED, FRAUDULENT, HONEST


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


@pytest.mark.parametrize("seed, streams", [(0, range(3)), (MASK64, [2**64 + 5, 0, 7]), (404, range(9, 12))])
def test_placed_rows_place_uniform_draws(seed, streams):
    rows = list(placed_rows(seed, streams, 6, uniform_bounds(THRESHOLDS)))
    assert rows == [
        [bisect_right(THRESHOLDS, rng.uniform()) for _ in range(6)]
        for rng in (CounterRng(seed, stream) for stream in streams)
    ]


def digest_of(x: int, tail: bytes) -> bytes:
    """A 32-byte digest whose first 8 bytes are the big-endian ``x``."""
    return x.to_bytes(8, "big") + tail


TAILS = (b"\x00" * 24, b"\xff" * 24)
TOP = 2**64 - 1024  # from here up, x / 2**64 rounds to 1.0


def assert_placed_alike(thresholds, xs):
    """Each digest falls among the bounds where its uniform value falls among the thresholds."""
    bounds = uniform_bounds(thresholds)
    for x in xs:
        if 0 <= x <= MASK64:
            for tail in TAILS:
                assert bisect_right(bounds, digest_of(x, tail)) == bisect_right(thresholds, x / 2.0**64), (x, tail)


@pytest.mark.parametrize("threshold", [0.0, 5e-324, 0.1, 1.0, 1.0 + 1e-13])
def test_a_bound_places_the_draws_around_it_as_its_threshold_does(threshold):
    (bound,) = uniform_bounds([threshold])
    ends = [0, TOP - 1, TOP, MASK64]
    if len(bound) == 8:
        x = int.from_bytes(bound, "big")
        assert x / 2.0**64 >= threshold and (x == 0 or (x - 1) / 2.0**64 < threshold)
        ends += [x - 1, x, x + 1]
    assert_placed_alike([threshold], ends)


def test_the_named_bounds():
    values = uniform_bounds([0.0, 5e-324, 1.0, 1.0 + 1e-13])
    assert values[:3] == [(0).to_bytes(8, "big"), (1).to_bytes(8, "big"), TOP.to_bytes(8, "big")]
    assert values[3] == b"\xff" * 33  # no draw reaches a threshold above 1.0, so none is placed past it
    assert bisect_right(values[3:], b"\xff" * 32) == 0


def test_a_draw_of_one_is_placed_past_thresholds_that_sum_to_one():
    """``uniform()`` is 1.0 for the top 1,024 ``u64`` values. With cumulative thresholds that end at
    exactly 1.0, such a draw lands past every threshold, in the slot that has probability 0 (a
    campaign's honest slot), and the byte placement keeps that."""
    thresholds = [0.25, 0.5, 0.75, 1.0]
    assert TOP / 2.0**64 == 1.0 and (TOP - 1) / 2.0**64 < 1.0
    bounds = uniform_bounds(thresholds)
    for tail in TAILS:
        assert bisect_right(bounds, digest_of(TOP, tail)) == bisect_right(thresholds, 1.0) == 4
        assert bisect_right(bounds, digest_of(TOP - 1, tail)) == 3


def test_a_campaign_draw_of_one_is_honest_although_honest_has_probability_zero(monkeypatch):
    """With ``fraudulent=1.0`` the run-at-a-time reference and the campaign's placement both give
    such a draw the honest mode, as they always have."""

    class TopDraws:
        def __init__(self, seed, stream=0):
            pass

        def uniform(self):
            return TOP / 2.0**64

    monkeypatch.setattr(policy_analysis, "CounterRng", TopDraws)
    probabilities = {CENSORING: 0.0, CRASHED: 0.0, DOSED: 0.0, FRAUDULENT: 1.0}
    assert policy_analysis.draw_behavior_modes(["E1"], probabilities, 0, 0) == {"E1": HONEST}
    bounds = uniform_bounds([0.0, 1.0])  # the cumulative thresholds after the silent modes and after fraudulent
    assert bisect_right(bounds, digest_of(TOP, TAILS[0])) == 2  # a campaign's honest place
    assert bisect_right(bounds, digest_of(TOP - 1, TAILS[1])) == 1  # its fraudulent place


thresholds_sets = st.lists(
    st.sampled_from((0.0, 5e-324, 0.5, 1.0, 1.0 + 1e-13)) | st.floats(0.0, 1.0 + 1e-12), min_size=1, max_size=5
).map(sorted)


@settings(deadline=None)
@given(thresholds=thresholds_sets, data=st.data())
@example(thresholds=[0.0, 0.0, 1.0], data=None)
def test_byte_placement_equals_float_placement(thresholds, data):
    """At each bound and two either side of it, at the ends of the range and at drawn values."""
    bounds = uniform_bounds(thresholds)
    xs = [0, 1, TOP - 1025, TOP - 1, TOP, MASK64]
    for bound in bounds:
        if len(bound) == 8:
            x = int.from_bytes(bound, "big")
            xs += range(x - 2, x + 3)
    if data is not None:
        xs += data.draw(st.lists(st.integers(0, MASK64), max_size=20))
    assert_placed_alike(thresholds, xs)


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
