"""Gap automata, regularity classification, greedy expansions, gap blowup."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skelparity import DiscountedSumCondition, Lasso, lasso_value
from skelparity.conditions import (
    ds_frontier,
    gap,
    right_congruence_automaton,
)
from skelparity.discounting import (
    classify_ds,
    ds_cycle_consistency_demo,
    gap_automaton,
    greedy_expansion,
    infinite_gap_sequence,
)
from skelparity.errors import InfiniteIndexError, InputError
from skelparity.skeletons import enumerate_cycle_supports, closed_walk

from conftest import states_on
from gap_oracle import discounted_lasso_sum, ds_congruence_automaton, gap_direct

HALF = Fraction(1, 2)

EXPECTED_HALF_TWO = {
    ("0", 0): "0", ("0", 1): "2", ("0", -1): "-2", ("0", 2): "top", ("0", -2): "-4",
    ("2", -1): "2", ("2", 0): "top", ("2", 1): "top", ("2", 2): "top", ("2", -2): "0",
    ("-2", 1): "-2", ("-2", -1): "bot", ("-2", -2): "bot", ("-2", 2): "0", ("-2", 0): "-4",
    ("-4", 2): "-4", ("-4", 1): "bot", ("-4", 0): "bot", ("-4", -1): "bot", ("-4", -2): "bot",
}


# -- classification ---------------------------------------------------------------


def test_classification_three_cases():
    assert classify_ds(Fraction(2, 5), 1).verdict == "three-class"
    got = classify_ds(HALF, 2)
    assert (got.verdict, got.states) == ("finite-gap", 6)
    assert classify_ds(Fraction(2, 3), 1).verdict == "infinite-index"


@pytest.mark.parametrize("lam", ["1/2", "1/3", "2/3", "3/4", "2/5", "5/7", "1/10"])
def test_ds_frontier_is_ceil_of_inverse_minus_one(lam):
    lam = Fraction(lam)
    for k in range(12):
        assert (k < ds_frontier(lam)) == (k < 1 / lam - 1)
        assert (k >= ds_frontier(lam)) == (k >= math.ceil(1 / lam - 1))


def test_classification_follows_finite_index():
    lambdas = ["1/2", "1/3", "1/4", "2/5", "2/3", "3/4", "5/7", "1/10", "2/7", "3/10"]
    for lam, k in itertools.product(map(Fraction, lambdas), range(5)):
        cond = DiscountedSumCondition(lam, k)
        assert cond.finite_index == (lam.numerator == 1 or k < 1 / lam - 1), (lam, k)
        got = classify_ds(lam, k)
        assert (got.verdict == "infinite-index") == (not cond.finite_index), (lam, k)
        if got.verdict != "infinite-index":
            three = k < 1 / lam - 1
            assert got.verdict == ("three-class" if three else "finite-gap"), (lam, k)
            assert got.states == len(gap_automaton(lam, k).skeleton.states)


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)])
def test_every_entry_point_checks_the_discount_range(lam):
    calls = [
        lambda: DiscountedSumCondition(lam, 1),
        lambda: gap([1], lam, 1),
        lambda: classify_ds(lam, 1),
        lambda: gap_automaton(lam, 1),
        lambda: greedy_expansion(Fraction(0), lam, 1, 2),
        lambda: ds_cycle_consistency_demo(lam, 1, 2),
        lambda: infinite_gap_sequence(lam, 2),
    ]
    for call in calls:
        with pytest.raises(InputError, match="0 < lambda < 1"):
            call()


def test_classification_boundaries():
    assert classify_ds(HALF, 0).verdict == "three-class"  # 0 < 1/lam - 1 = 1
    assert classify_ds(HALF, 1).verdict == "finite-gap"
    assert classify_ds(Fraction(1, 3), 1).verdict == "three-class"
    assert classify_ds(Fraction(1, 3), 2).verdict == "finite-gap"
    assert classify_ds(Fraction(3, 4), 1).verdict == "infinite-index"


# -- the gap automaton --------------------------------------------------------------


def test_gap_automaton_half_two_table():
    ga = gap_automaton(HALF, 2)
    assert set(ga.skeleton.states) == {"0", "2", "top", "-2", "-4", "bot"}
    table = {
        (s, c): t for s, c, t in ga.skeleton.transitions
    }
    for (s, c), t in EXPECTED_HALF_TWO.items():
        assert table[(s, c)] == t, (s, c)
    for c in range(-2, 3):
        assert table[("top", c)] == "top"
        assert table[("bot", c)] == "bot"


def test_gap_automaton_edge_recurrence():
    # every finite-to-finite edge satisfies g' = (g + c) / lam exactly
    ga = gap_automaton(HALF, 2)
    for s, c, t in ga.skeleton.transitions:
        g, g2 = ga.gaps[s], ga.gaps[t]
        if g.kind == "finite" and g2.kind == "finite":
            assert g2.value == (g.value + c) / HALF
        elif g.kind == "finite":
            raw = (g.value + c) / HALF
            assert (g2.kind == "top") == (raw >= Fraction(2) / (1 - HALF))
            assert (g2.kind == "bot") == (raw < -Fraction(2) / (1 - HALF))
        else:
            assert g2 == g


def test_gap_automaton_k_zero_is_all_winning():
    # with k = 0 the inclusive top clamp triggers already at the empty word
    ga = gap_automaton(HALF, 0)
    assert len(ga.skeleton.states) == 1
    assert ga.bot_state is None
    assert lasso_value(DiscountedSumCondition(HALF, 0), Lasso.make((), (0,))) == "win"


def test_gap_automaton_one_third_by_bfs():
    ga = gap_automaton(Fraction(1, 3), 1)
    assert set(ga.skeleton.states) == {"0", "top", "bot"}


def test_gap_automaton_matches_congruence_construction():
    # both library paths against the word-level construction of the oracle
    for lam, k in [
        (HALF, 1), (HALF, 2), (HALF, 3), (Fraction(1, 3), 1), (Fraction(1, 3), 2),
        (Fraction(1, 4), 2), (Fraction(2, 5), 1), (Fraction(1, 5), 3),
    ]:
        cond = DiscountedSumCondition(lam, k)
        reference = ds_congruence_automaton(cond)
        assert gap_automaton(lam, k).skeleton == reference, (lam, k)
        assert right_congruence_automaton(cond) == reference, (lam, k)


def test_gap_automaton_infinite_index_error():
    with pytest.raises(InfiniteIndexError):
        gap_automaton(Fraction(2, 3), 1)


def test_finite_gap_cycles_close_at_zero():
    # every cycle on a finite-gap state yields a continuation summing to 0,
    # hence winning: the exact reason support reasoning is safe here
    ga = gap_automaton(HALF, 2)
    sk = ga.skeleton
    from skelparity.skeletons import bfs, word_to

    parents = {s: (parent, c) for s, parent, c in bfs(sk.init, sk.alphabet, sk.step)}
    rng = random.Random(5)
    supports = enumerate_cycle_supports(sk)
    finite_states = [s for s in sk.states if ga.gaps[s].kind == "finite"]
    checked = 0
    for sup in supports:
        anchors = [s for s in sorted(states_on(sk, sup)) if s in finite_states]
        if not anchors:
            continue
        anchor = rng.choice(anchors)
        walk = closed_walk(sk, sup, anchor=anchor)
        lasso = Lasso.make(word_to(parents, anchor), walk)
        assert discounted_lasso_sum(lasso, HALF) == 0
        assert lasso_value(DiscountedSumCondition(HALF, 2), lasso) == "win"
        checked += 1
    assert checked >= 19


# -- greedy expansion ---------------------------------------------------------------


def test_greedy_documented_case():
    digits, rem = greedy_expansion(Fraction(1, 3), HALF, 1, 6)
    assert digits == (0, 0, 1, 0, 1, 0)
    assert rem == Fraction(1, 48)


def test_greedy_zero_and_extremes():
    assert greedy_expansion(Fraction(0), HALF, 1, 5) == ((0,) * 5, Fraction(0))
    digits, rem = greedy_expansion(Fraction(2), HALF, 1, 5)
    assert digits == (1,) * 5
    assert rem == Fraction(1) * HALF**5 / (1 - HALF)


def test_greedy_is_optimal_among_digit_strings():
    # oracle: exhaustive search over all digit strings, minimizing the
    # remainder subject to staying at or below the target
    lam, k, n = HALF, 1, 6
    for x in [Fraction(1, 3), Fraction(5, 7), Fraction(13, 8), Fraction(2)]:
        digits, rem = greedy_expansion(x, lam, k, n)
        best = None
        for combo in itertools.product(range(k + 1), repeat=n):
            total = sum(d * lam**i for i, d in enumerate(combo))
            if total <= x and (best is None or total > best):
                best = total
        assert x - best == rem
        assert rem >= 0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.integers(-1000, 1000),
    st.integers(1, 64),
)
def test_greedy_remainder_tail_bound(numerator, n):
    lam, k = HALF, 1
    bound = Fraction(k) / (1 - lam)
    x = Fraction(numerator, 500) * bound / 2
    digits, rem = greedy_expansion(x, lam, k, n)
    assert abs(rem) <= bound * lam**n
    assert (rem >= 0) if x >= 0 else (rem <= 0)
    assert all(abs(d) <= k for d in digits)
    # remainders shrink as digits are added
    _, rem_shorter = greedy_expansion(x, lam, k, max(n - 1, 0))
    assert abs(rem) <= abs(rem_shorter)


def test_greedy_preconditions():
    with pytest.raises(InputError):
        greedy_expansion(Fraction(5), HALF, 1, 4)  # out of range
    with pytest.raises(InputError):
        greedy_expansion(Fraction(1, 3), Fraction(2, 5), 1, 4)  # k too small


# -- the infinite gap witness ----------------------------------------------------------


def test_gap_sequence_two_thirds():
    out = infinite_gap_sequence(Fraction(2, 3), 20)
    gaps = out["gaps"]
    assert gaps[0] == Fraction(3, 2)
    assert gaps[1] == Fraction(3, 4)
    assert len(set(gaps)) == 20
    assert all(g.denominator == 2**i for i, g in enumerate(gaps, start=1))
    assert out["denominators_are_powers"] and out["pairwise_distinct"] and out["in_range"]


def test_gap_sequence_matches_prefix_gaps():
    # the recurrence agrees with evaluating the word prefix by prefix
    lam = Fraction(2, 3)
    out = infinite_gap_sequence(lam, 10)
    k = 1  # ceil(1/lam - 1)
    word = out["colors"]
    for i in range(1, 11):
        g = gap_direct(word[:i], lam, k)
        assert g.kind == "finite"
        assert g.value == out["gaps"][i - 1]


def test_gap_sequence_rejects_unit_numerator():
    with pytest.raises(InputError):
        infinite_gap_sequence(HALF, 5)


# -- the interval demo ------------------------------------------------------------------


def test_demo_all_consistent():
    report = ds_cycle_consistency_demo(HALF, 2, 100, seed=0)
    assert report.samples == 100
    assert report.all_consistent
    assert report.strict_resolved > 0


def test_demo_zero_samples_vacuous():
    report = ds_cycle_consistency_demo(HALF, 2, 0, seed=0)
    assert report.all_consistent
