from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockcase.determinism import CounterRng
from blockcase.policy_analysis import (
    And,
    CENSORING,
    CRASHED,
    FRAUDULENT,
    HONEST,
    Or,
    OutOf,
    PolicyError,
    Sig,
    TooManyIdentitiesError,
    all_of,
    any_of,
    censorship_possible,
    censorship_tolerance,
    eval_policy,
    fraud_possible,
    fraud_tolerance,
    identities,
    max_byzantine,
    min_blocking_sets,
    min_satisfying_sets,
    minimal_sets,
    out_of,
    parse_policy,
    policy_digest,
    serialize_policy,
    verdicts_of,
)

E3 = ["E1", "E2", "E3"]


# -- brute-force oracles, kept independent of the library's enumeration path --

def all_subsets(idents):
    return [frozenset(combo) for size in range(len(idents) + 1) for combo in itertools.combinations(idents, size)]


def inclusion_minimal(sets):
    """The sets that contain no other one, smallest first and in canonical order."""
    minimal = []
    for s in sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))):
        if not any(t <= s for t in minimal):
            minimal.append(s)
    return minimal


def brute_min_satisfying(policy):
    idents = sorted(identities(policy))
    return inclusion_minimal(s for s in all_subsets(idents) if eval_policy(policy, s))


def brute_min_blocking(policy):
    idents = frozenset(identities(policy))
    return inclusion_minimal(s for s in all_subsets(sorted(idents)) if not eval_policy(policy, idents - s))


def brute_fraud_tolerance(policy):
    # largest f such that no fraudulent subset of size <= f satisfies the policy
    idents = sorted(identities(policy))
    for f in range(len(idents), -1, -1):
        if all(
            not eval_policy(policy, frozenset(combo))
            for size in range(f + 1)
            for combo in itertools.combinations(idents, size)
        ):
            return f
    raise AssertionError("unreachable: the empty set never satisfies")


def brute_censorship_tolerance(policy):
    # largest c such that removing any c identities keeps the policy satisfiable
    idents = sorted(identities(policy))
    for c in range(len(idents), -1, -1):
        if all(
            eval_policy(policy, frozenset(idents) - frozenset(removed))
            for removed in itertools.combinations(idents, c)
        ):
            return c
    raise AssertionError("unreachable: removing nothing keeps it satisfiable")


def random_policy(rng: CounterRng, idents):
    shape = rng.randrange(6)
    if shape == 0:
        return all_of(idents)
    if shape == 1:
        return any_of(idents)
    if shape == 2:
        return out_of(1 + rng.randrange(len(idents)), idents)
    if shape == 3 and len(idents) >= 3:
        return Or((Sig(idents[0]), And(tuple(Sig(i) for i in idents[1:]))))
    if shape == 4 and len(idents) >= 3:
        return And((Sig(idents[0]), Or(tuple(Sig(i) for i in idents[1:]))))
    return OutOf(1 + rng.randrange(len(idents)), tuple(Sig(i) for i in idents))


@st.composite
def nested_policies(draw, max_depth=4, idents=None):
    """A policy up to ``max_depth`` operators deep over ``idents`` (default 1-10 identities), which may repeat."""
    if idents is None:
        idents = [f"E{i}" for i in range(1, draw(st.integers(1, 10)) + 1)]

    def node(depth):
        if depth == max_depth or draw(st.integers(0, 2)) == 0:
            return Sig(draw(st.sampled_from(idents)))
        children = tuple(node(depth + 1) for _ in range(draw(st.integers(2, 3))))
        kind = draw(st.sampled_from((And, Or, OutOf)))
        return OutOf(draw(st.integers(1, len(children))), children) if kind is OutOf else kind(children)

    return node(0)


class TestEval:
    def test_all_needs_every_signer(self):
        assert eval_policy(all_of(E3), {"E1", "E2"}) is False
        assert eval_policy(all_of(E3), set(E3)) is True

    def test_threshold(self):
        assert eval_policy(out_of(2, E3), {"E1", "E3"}) is True
        assert eval_policy(out_of(2, E3), {"E3"}) is False

    def test_empty_signers_never_satisfy(self):
        for policy in (all_of(E3), any_of(E3), out_of(1, E3)):
            assert eval_policy(policy, set()) is False

    def test_all_and_any_extremes(self):
        leaves = frozenset(E3)
        for size in range(4):
            for combo in itertools.combinations(E3, size):
                signers = set(combo)
                assert eval_policy(all_of(E3), signers) == (signers >= leaves)
                assert eval_policy(any_of(E3), signers) == bool(signers & leaves)


class TestMinimalSets:
    def test_all_of_three(self):
        assert min_satisfying_sets(all_of(E3)) == [frozenset(E3)]

    def test_out_of_two_matches_brute_force(self):
        policy = out_of(2, E3)
        assert min_satisfying_sets(policy) == brute_min_satisfying(policy)
        assert min_satisfying_sets(policy) == [
            frozenset({"E1", "E2"}),
            frozenset({"E1", "E3"}),
            frozenset({"E2", "E3"}),
        ]

    def test_nested_or(self):
        policy = Or((Sig("E1"), And((Sig("E2"), Sig("E3")))))
        assert min_satisfying_sets(policy) == [frozenset({"E1"}), frozenset({"E2", "E3"})]

    def test_random_policies_match_brute_force(self):
        rng = CounterRng(2024, stream=1)
        for _ in range(40):
            idents = [f"E{i}" for i in range(1, 3 + rng.randrange(3))]
            policy = random_policy(rng, idents)
            assert min_satisfying_sets(policy) == brute_min_satisfying(policy)

    def test_identity_bound(self):
        with pytest.raises(TooManyIdentitiesError):
            min_satisfying_sets(any_of([f"E{i}" for i in range(21)]))


class TestPossibility:
    def test_single_fraudulent_defeats_any_of(self):
        labeling = {"E1": FRAUDULENT, "E2": HONEST, "E3": HONEST}
        assert fraud_possible(any_of(E3), labeling) is True

    def test_all_of_resists_two_fraudulent(self):
        labeling = {"E1": FRAUDULENT, "E2": FRAUDULENT, "E3": HONEST}
        assert fraud_possible(all_of(E3), labeling) is False

    def test_no_fraudulent_no_fraud(self):
        labeling = {e: HONEST for e in E3}
        assert fraud_possible(out_of(2, E3), labeling) is False

    def test_single_censor_defeats_all_of(self):
        labeling = {"E1": CENSORING, "E2": HONEST, "E3": HONEST}
        assert censorship_possible(all_of(E3), labeling) is True

    def test_any_of_survives_two_censors(self):
        labeling = {"E1": CENSORING, "E2": CENSORING, "E3": HONEST}
        assert censorship_possible(any_of(E3), labeling) is False

    def test_all_honest_cannot_be_censored(self):
        labeling = {e: HONEST for e in E3}
        assert censorship_possible(all_of(E3), labeling) is False

    def test_crashed_and_fraudulent_count_as_unavailable_for_censorship(self):
        labeling = {"E1": CRASHED, "E2": FRAUDULENT, "E3": HONEST}
        assert censorship_possible(out_of(2, E3), labeling) is True

    def test_labeling_domain_must_match(self):
        with pytest.raises(PolicyError):
            fraud_possible(any_of(E3), {"E1": HONEST})

    def test_relabeling_towards_fraud_is_monotone(self):
        rng = CounterRng(7, stream=2)
        modes = [HONEST, FRAUDULENT, CENSORING, CRASHED]
        for _ in range(30):
            idents = [f"E{i}" for i in range(1, 3 + rng.randrange(3))]
            policy = random_policy(rng, idents)
            labeling = {i: modes[rng.randrange(4)] for i in idents}
            honest = [i for i in idents if labeling[i] == HONEST]
            if fraud_possible(policy, labeling) and honest:
                flipped = dict(labeling)
                flipped[honest[0]] = FRAUDULENT
                assert fraud_possible(policy, flipped) is True
            if censorship_possible(policy, labeling) and honest:
                flipped = dict(labeling)
                flipped[honest[0]] = CENSORING
                assert censorship_possible(policy, flipped) is True


class TestTolerances:
    def test_extreme_policies(self):
        assert fraud_tolerance(all_of(E3)) == 2
        assert fraud_tolerance(any_of(E3)) == 0
        assert censorship_tolerance(all_of(E3)) == 0
        assert censorship_tolerance(any_of(E3)) == 2

    def test_threshold_policy(self):
        assert fraud_tolerance(out_of(2, E3)) == 1
        assert censorship_tolerance(out_of(2, E3)) == 1

    def test_matches_brute_force_on_random_policies(self):
        rng = CounterRng(99, stream=3)
        for _ in range(25):
            idents = [f"E{i}" for i in range(1, 3 + rng.randrange(3))]
            policy = random_policy(rng, idents)
            assert fraud_tolerance(policy) == brute_fraud_tolerance(policy)
            assert censorship_tolerance(policy) == brute_censorship_tolerance(policy)

    def test_blocking_sets_of_a_threshold(self):
        # blocking OutOf(2,3) needs two removals; all three pairs are minimal
        assert min_blocking_sets(out_of(2, E3)) == [
            frozenset({"E1", "E2"}),
            frozenset({"E1", "E3"}),
            frozenset({"E2", "E3"}),
        ]


@settings(max_examples=60, deadline=None)
@given(nested_policies())
@example(parse_policy("outof(2,E1,E1,E2)"))
@example(parse_policy("and(or(E1,outof(2,E2,E2,and(E3,E1))),or(E4,and(E5,outof(1,E6,E6))))"))
@example(parse_policy("or(and(Zed,alpha),outof(2,Beta,E10,E2,alpha))"))
def test_nested_policies_match_brute_force(policy):
    assert min_satisfying_sets(policy) == brute_min_satisfying(policy)
    assert min_blocking_sets(policy) == brute_min_blocking(policy)
    # the name tuples come sorted, smallest set first, then lexically, as the CLI prints them
    assert minimal_sets(policy) == [tuple(sorted(s)) for s in brute_min_satisfying(policy)]
    assert minimal_sets(policy, blocking=True) == [tuple(sorted(s)) for s in brute_min_blocking(policy)]
    assert fraud_tolerance(policy) == brute_fraud_tolerance(policy)
    assert censorship_tolerance(policy) == brute_censorship_tolerance(policy)
    # the memo answers as eval_policy does, on a first lookup and on a repeated one
    subsets, holds = all_subsets(sorted(identities(policy))), verdicts_of(policy)
    assert [holds(s) for s in subsets + subsets] == [eval_policy(policy, s) for s in subsets] * 2


@pytest.mark.parametrize("k", [1, 3, 18, 20])
def test_threshold_over_twenty_identities_has_closed_forms(k):
    policy = out_of(k, [f"E{i}" for i in range(1, 21)])
    satisfying, blocking = min_satisfying_sets(policy), min_blocking_sets(policy)
    assert len(satisfying) == math.comb(20, k) and {len(s) for s in satisfying} == {k}
    assert len(blocking) == math.comb(20, 21 - k) and {len(s) for s in blocking} == {21 - k}
    assert (fraud_tolerance(policy), censorship_tolerance(policy)) == (k - 1, 20 - k)


class TestMaxByzantine:
    def test_reference_points(self):
        assert max_byzantine(3) == 0
        assert max_byzantine(4) == 1
        assert max_byzantine(1) == 0

    def test_strict_third_bound(self):
        for n in range(1, 101):
            b = max_byzantine(n)
            assert b / n < 1 / 3 <= (b + 1) / n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_byzantine(0)


class TestPolicyText:
    def test_round_trip(self):
        for policy in (
            Sig("E1"),
            all_of(E3),
            any_of(E3),
            out_of(2, E3),
            Or((Sig("E1"), And((Sig("E2"), OutOf(1, (Sig("E3"), Sig("E4"))))))),
        ):
            assert parse_policy(serialize_policy(policy)) == policy

    def test_sugar_names(self):
        assert parse_policy("all(E1,E2,E3)") == all_of(E3)
        assert parse_policy("any(E1, E2, E3)") == any_of(E3)

    def test_whitespace_and_comments(self):
        text = "# the governance rule\noutof( 2 , E1, E2,\n  E3 )\n"
        assert parse_policy(text) == out_of(2, E3)
        assert parse_policy("or(E1, # a\r\nE2, # b\rE3) # c\n") == any_of(E3)
        # a comment runs to LF, CRLF or CR; every other separator is comment text
        for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            assert parse_policy(f"or(E1 # note{sep},E9\n, E2, E3)") == any_of(E3)
            assert parse_policy(f"outof(2,E1,E2,E3) # two{sep}of three") == out_of(2, E3)
            assert parse_policy(f"or({sep}E1,{sep}E2,E3{sep}){sep}") == any_of(E3)

    def test_an_error_offset_counts_into_the_text_as_written(self):
        with pytest.raises(PolicyError, match="trailing content at offset 20"):
            parse_policy("# the rule\r\nE1 # x\n E2")

    def test_malformed_expressions(self):
        for bad in ("", "and(E1)", "outof(4,E1,E2)", "E1)", "pick(E1,E2)", "outof(x,E1,E2)"):
            with pytest.raises(PolicyError):
                parse_policy(bad)

    def test_digest_tracks_the_canonical_text(self):
        assert policy_digest(out_of(2, E3)) == policy_digest(parse_policy("outof(2,E1,E2,E3)"))
        assert policy_digest(all_of(E3)) != policy_digest(any_of(E3))
