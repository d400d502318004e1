"""Lasso oracles, gaps, residual comparison, right-congruence automata."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skelparity import (
    DiscountedSumCondition,
    DpaCondition,
    Lasso,
    MeanPayoffCondition,
    MullerCondition,
    ParityAutomaton,
    Skeleton,
    TotalPayoffCondition,
    gap,
    lasso_value,
    residual_compare,
    right_congruence_automaton,
    sees_all_colors_condition,
    trivial_skeleton,
)
from skelparity import conditions
from skelparity.conditions import (
    GAP_BOT,
    GAP_TOP,
    compare_states,
    discounted_sum,
    _quotient_by_equivalence,
    finite_gap,
    lasso_judge,
)
from skelparity.errors import (
    InfiniteIndexError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
)
from skelparity.skeletons import enumerate_cycle_supports, support_transitions

import lasso_oracle
import muller_residual_oracle
import parity_oracle
from gap_oracle import discounted_lasso_sum, gap_direct

HALF = Fraction(1, 2)


# -- lasso evaluation ---------------------------------------------------------


def test_lasso_needs_period():
    with pytest.raises(InputError):
        Lasso.make(["a"], [])


def test_dpa_lasso_on_contrast_automaton(contrast_automaton):
    cond = DpaCondition(contrast_automaton)
    assert lasso_value(cond, Lasso.make([], ["b"])) == "lose"
    assert lasso_value(cond, Lasso.make([], ["a", "a"])) == "win"
    assert lasso_value(cond, Lasso.make(["a"], ["b"])) == "win"
    assert lasso_value(cond, Lasso.make([], ["c"])) == "lose"


def test_ds_lasso_geometric_series():
    # hand computation: alternating +1/-1 sums to 1/(1+lam)
    cond = DiscountedSumCondition(HALF, 2)
    lasso = Lasso.make([], [1, -1])
    assert discounted_lasso_sum(lasso, HALF) == Fraction(2, 3)
    assert lasso_value(cond, lasso) == "win"
    # partial-sum convergence cross-check
    word = [1, -1] * 40
    partial = discounted_sum(word, HALF)
    tail = HALF ** len(word) * cond.max_ds
    assert partial - tail <= Fraction(2, 3) <= partial + tail


def test_mean_payoff_lasso():
    cond = MeanPayoffCondition()
    assert lasso_value(cond, Lasso.make([], [1, -1, -1])) == "lose"
    assert lasso_value(cond, Lasso.make([-1], [1, -1, 1])) == "win"


def test_total_payoff_lasso():
    cond = TotalPayoffCondition()
    assert lasso_value(cond, Lasso.make([], [1, -1])) == "win"  # sum 0, peak 1
    assert lasso_value(cond, Lasso.make([-2], [1, -1])) == "lose"  # peak -1
    assert lasso_value(cond, Lasso.make([-5], [1])) == "win"  # diverges up
    assert lasso_value(cond, Lasso.make([5], [-1])) == "lose"  # diverges down


def test_alphabet_is_enforced(gen_buchi):
    with pytest.raises(InputError):
        lasso_value(gen_buchi, Lasso.make([], ["z"]))
    with pytest.raises(InputError):
        lasso_value(DiscountedSumCondition(HALF, 1), Lasso.make([], [2]))


_BINARY_DPA = DpaCondition(
    ParityAutomaton.make(trivial_skeleton((0, 1)), {("m0", 0): 0, ("m0", 1): 1})
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lasso_value(DiscountedSumCondition(HALF, 1), Lasso.make((), (True,))),
        lambda: lasso_value(_BINARY_DPA, Lasso.make((), (True,))),
        lambda: residual_compare(_BINARY_DPA, (True,), ()),
    ],
    ids=["ds-lasso", "dpa-lasso", "dpa-residuals"],
)
def test_boolean_colors_are_refused(call):
    # True == 1 and 1 is a color of each condition, but a boolean is not
    # a color, as no skeleton takes one
    with pytest.raises(InputError):
        call()


from conftest import build_contrast_automaton

_LASSO_CONDITIONS = [
    ("dpa-contrast", lambda: DpaCondition(build_contrast_automaton())),
    ("muller-gen-buchi", lambda: sees_all_colors_condition(("a", "b", "c"), ("a", "b"))),
    ("ds", lambda: DiscountedSumCondition(HALF, 2)),
    ("ds-third", lambda: DiscountedSumCondition(Fraction(1, 3), 1)),
    ("mp", MeanPayoffCondition),
    ("tp", TotalPayoffCondition),
]


@pytest.mark.parametrize("name,make", _LASSO_CONDITIONS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_lasso_value_rotation_and_repetition(name, make, data):
    cond_obj = make()
    alphabet = tuple(cond_obj.alphabet) if cond_obj.alphabet else (-1, 0, 1)
    letters = st.sampled_from(alphabet)
    prefix = tuple(data.draw(st.lists(letters, max_size=4)))
    period = tuple(data.draw(st.lists(letters, min_size=1, max_size=4)))
    base = lasso_value(cond_obj, Lasso(prefix, period))
    assert lasso_value(cond_obj, Lasso(prefix, period * 2)) == base
    cut = data.draw(st.integers(0, len(period)))
    v1, v2 = period[:cut], period[cut:]
    assert lasso_value(cond_obj, Lasso(prefix + v1, v2 + v1)) == base


def _judge_colors(cond, alphabet, prefix, period) -> str:
    """The judge compiled over ``alphabet``, asked with the color indices
    of ``prefix`` and ``period``."""
    index = {c: i for i, c in enumerate(alphabet)}
    judge = lasso_judge(cond, alphabet)
    return judge([index[c] for c in prefix], [index[c] for c in period])


@st.composite
def _ds_lassos(draw):
    """Any rational lambda in (0, 1), k <= 3, a prefix of length <= 4 (often
    empty) and a period of length <= 8."""
    b = draw(st.integers(2, 12))
    lam = Fraction(draw(st.integers(1, b - 1)), b)
    k = draw(st.integers(0, 3))
    colors = st.integers(-k, k)
    prefix = tuple(draw(st.lists(colors, max_size=4)))
    period = tuple(draw(st.lists(colors, min_size=1, max_size=8)))
    return lam, k, prefix, period


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ds_lassos())
@example((HALF, 2, (), (1, -2)))  # these two sum to exactly 0
@example((Fraction(2, 3), 3, (), (2, -3)))
@example((Fraction(3, 7), 1, (-1,), (1,)))
def test_ds_judge_signs_the_fraction_sum(case):
    lam, k, prefix, period = case
    cond = DiscountedSumCondition(lam, k)
    want = lasso_oracle.reference_value(cond, Lasso(prefix, period))
    assert _judge_colors(cond, cond.alphabet, prefix, period) == want


@st.composite
def _automaton_lassos(draw):
    """A random reachable skeleton over {a, b} with 1 to 4 states, with a
    random priority and a random 0/1 weight on every transition, and a
    lasso with a prefix of length <= 4 and a period of length <= 6."""
    n = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(n)]
    upd = {(s, c): draw(st.sampled_from(states)) for s in states for c in "ab"}
    reach, work = {"q0"}, ["q0"]
    while work:
        s = work.pop()
        for c in "ab":
            if upd[(s, c)] not in reach:
                reach.add(upd[(s, c)])
                work.append(upd[(s, c)])
    sk = Skeleton.make(sorted(reach), "q0", "ab", {t: v for t, v in upd.items() if t[0] in reach})
    pri = {(s, c): draw(st.integers(0, 4)) for s, c, _ in sk.transitions}
    weight = {(s, c): draw(st.integers(0, 1)) for s, c, _ in sk.transitions}
    letters = st.sampled_from("ab")
    prefix = tuple(draw(st.lists(letters, max_size=4)))
    period = tuple(draw(st.lists(letters, min_size=1, max_size=6)))
    return ParityAutomaton.make(sk, pri), weight, Lasso(prefix, period)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_automaton_lassos())
def test_dpa_and_muller_judges_value_the_entered_cycle(case):
    aut, weight, lasso = case
    muller = MullerCondition(
        aut.skeleton, predicate=lambda sup: sum(weight[t] for t in sup) % 2 == 0
    )
    for cond in (DpaCondition(aut), muller):
        want = lasso_oracle.reference_value(cond, lasso)
        assert _judge_colors(cond, cond.alphabet, lasso.prefix, lasso.period) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_automaton_lassos(), st.data())
def test_judges_over_any_alphabet_agree_with_reference(case, data):
    # every kind of judge, compiled over a drawn order of a drawn subset of
    # the condition's alphabet, as verification compiles it over the
    # alphabet of the automaton's skeleton
    aut, weight, _ = case
    sk = aut.skeleton
    even = lambda sup: sum(weight[t] for t in sup) % 2 == 0
    supports = (
        frozenset(support_transitions(sk, g)) for g in enumerate_cycle_supports(sk)
    )
    b = data.draw(st.integers(2, 9))
    lam = Fraction(data.draw(st.integers(1, b - 1)), b)
    for cond in (
        DpaCondition(aut),
        MullerCondition(sk, predicate=even),
        MullerCondition(sk, winning_supports=frozenset(filter(even, supports))),
        DiscountedSumCondition(lam, data.draw(st.integers(0, 3))),
        MeanPayoffCondition(),
        TotalPayoffCondition(),
    ):
        colors = cond.alphabet or range(-3, 4)
        alphabet = data.draw(st.permutations(colors).map(tuple))
        alphabet = alphabet[: data.draw(st.integers(1, len(alphabet)))]
        letters = st.sampled_from(alphabet)
        prefix = tuple(data.draw(st.lists(letters, max_size=4)))
        period = tuple(data.draw(st.lists(letters, min_size=1, max_size=6)))
        want = lasso_oracle.reference_value(cond, Lasso(prefix, period))
        assert _judge_colors(cond, alphabet, prefix, period) == want
        assert lasso_value(cond, Lasso(prefix, period)) == want


# -- gaps -----------------------------------------------------------------------


def test_gap_documented_values():
    assert gap([], HALF, 2) == finite_gap(0)
    assert gap([1], HALF, 2) == finite_gap(2)
    assert gap([2], HALF, 2) == GAP_TOP  # top is inclusive at 4
    assert gap([-2], HALF, 2) == finite_gap(-4)  # bot is strict below -4
    assert gap([-2, -1], HALF, 2) == GAP_BOT


def test_gap_clamps_absorb():
    assert gap([2, -2, -2, -2], HALF, 2) == GAP_TOP
    assert gap([-2, -2, 2, 2], HALF, 2) == GAP_BOT


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2, 2), max_size=10))
def test_gap_incremental_equals_direct_formula(word):
    assert gap(word, HALF, 2) == gap_direct(word, HALF, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-2, 2), max_size=5),
    st.lists(st.integers(-2, 2), min_size=1, max_size=5),
)
def test_gap_decides_lasso_value(prefix, period):
    cond = DiscountedSumCondition(HALF, 2)
    g = gap(prefix, HALF, 2)
    value = lasso_value(cond, Lasso.make(prefix, period))
    if g == GAP_TOP:
        assert value == "win"
    elif g == GAP_BOT:
        assert value == "lose"
    else:
        tail = discounted_lasso_sum(Lasso.make([], period), HALF)
        assert (value == "win") == (tail >= -g.value)


# -- residual comparison --------------------------------------------------------


def test_residual_compare_reflexive(ab_prefix_condition):
    assert residual_compare(ab_prefix_condition, ["a"], ["a"]) == "equal"
    assert residual_compare(ab_prefix_condition, [], []) == "equal"


def test_residual_compare_incomparable(ab_prefix_condition):
    # oracle by hand: after the empty word only ab... wins; after "a" only b...
    # wins; continuation "b..." separates one way, "ab..." the other
    assert residual_compare(ab_prefix_condition, [], ["a"]) == "incomparable"
    # sampled cross-check
    cond = ab_prefix_condition
    sk = cond.automaton.skeleton
    sep1 = Lasso.make(("b",), ("a",))  # wins after "a", loses after ""
    assert lasso_value(cond, Lasso(("a",) + sep1.prefix, sep1.period)) == "win"
    assert lasso_value(cond, sep1) == "lose"
    sep2 = Lasso.make(("a", "b"), ("a",))  # wins after "", loses after "a"
    assert lasso_value(cond, sep2) == "win"
    assert lasso_value(cond, Lasso(("a",) + sep2.prefix, sep2.period)) == "lose"


def test_residual_compare_strict_inclusion_on_gap_automaton():
    from skelparity.discounting import gap_automaton

    ga = gap_automaton(HALF, 2)
    aut = ParityAutomaton.make(
        ga.skeleton,
        {
            (s, c): (1 if ga.skeleton.step(s, c) == "bot" or s == "bot" else 0)
            for s, c, _ in ga.skeleton.transitions
        },
    )
    cond = DpaCondition(aut)
    # (-1) reaches gap -2; the empty word stays at gap 0
    assert ga.skeleton.run_end([-1]) == "-2"
    # the discounted sum itself is decided on its own gap automaton
    for c in (cond, DiscountedSumCondition(HALF, 2)):
        assert residual_compare(c, [-1], []) == "less"
        assert residual_compare(c, [], [-1]) == "greater"
        assert residual_compare(c, [1, -1], [1, -1]) == "equal"


def test_residual_compare_requires_automaton_backing():
    with pytest.raises(PreconditionError):
        residual_compare(MeanPayoffCondition(), [1], [-1])
    with pytest.raises(InfiniteIndexError):
        residual_compare(DiscountedSumCondition(Fraction(2, 5), 2), [1], [-1])


def test_residual_compare_builds_one_automaton(monkeypatch, ab_prefix_condition):
    calls = []
    build = conditions.support_automaton

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(conditions, "support_automaton", counted)
    assert residual_compare(ab_prefix_condition, ["a"], ["a", "b"]) == "less"
    assert len(calls) == 1


def _gap_rank(name: str):
    # bot below every finite gap, top above
    if name in ("bot", "top"):
        return 2 * (name == "top"), 0
    return 1, Fraction(name)


_FINITE_INDEX_PAIRS = [
    (lam, k)
    for lam in map(Fraction, ("1/2", "1/3", "1/4", "1/5", "1/7", "2/5", "2/3", "3/7"))
    for k in range(5)
    if DiscountedSumCondition(lam, k).finite_index
]


@pytest.mark.parametrize("lam, k", _FINITE_INDEX_PAIRS, ids=str)
def test_discounted_residuals_follow_the_gap_order(lam, k):
    # the rc states are named by their gaps; distinct gaps never compare
    # equal, so the gap automaton is its own right-congruence quotient.
    # Its relation takes one SCC pass: at lambda = 1/2, k = 4, enumerating
    # the supports of its square would exceed the default cap
    cond = DiscountedSumCondition(lam, k)
    states = right_congruence_automaton(cond).states
    order = {-1: "less", 0: "equal", 1: "greater"}
    for q1 in states:
        for q2 in states:
            a, b = _gap_rank(q1), _gap_rank(q2)
            assert compare_states(cond, q1, q2) == order[(a > b) - (a < b)]


def test_compare_states_rejects_unknown_states(ab_prefix_condition):
    with pytest.raises(InputError):
        compare_states(ab_prefix_condition, "[ε]", "nowhere")


def _two_letter_dpa(targets, priorities) -> ParityAutomaton:
    """DPA with q_i --a--> q_targets[2i] and q_i --b--> q_targets[2i+1],
    cut down to the states reachable from q0."""
    reach, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for t in targets[2 * i : 2 * i + 2]:
            if t not in reach:
                reach.add(t)
                todo.append(t)
    pairs = [((f"q{i}", c), 2 * i + j) for i in reach for j, c in enumerate("ab")]
    sk = Skeleton.make(
        [f"q{i}" for i in reach], "q0", "ab", {t: f"q{targets[k]}" for t, k in pairs}
    )
    return ParityAutomaton.make(sk, {t: priorities[k] for t, k in pairs})


_CONVERSE = {"less": "greater", "greater": "less", "equal": "equal", "incomparable": "incomparable"}


@st.composite
def _small_dpa_tables(draw):
    """(targets, priorities) of a 2-letter DPA with 1 to 4 states."""
    n = draw(st.integers(1, 4))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=2 * n, max_size=2 * n))
    priorities = draw(st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n))
    return targets, priorities


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tables=_small_dpa_tables())
# some pair products of this DPA have over 100k cycle supports
@example(tables=([2, 2, 0, 3, 1, 1, 3, 0], [2, 0, 0, 0, 0, 2, 3, 2]))
def test_parity_residuals_match_support_enumeration(tables):
    aut = _two_letter_dpa(*tables)
    cond = DpaCondition(aut)
    # the same language as a Muller condition, decided by classifying every
    # cycle support of the pair product; cheap only on tiny automata
    muller = MullerCondition(
        aut.skeleton, predicate=lambda sup: aut.max_support_priority(sup) % 2 == 0
    )
    states = aut.skeleton.states
    for i, q1 in enumerate(states):
        for q2 in states[i:]:
            want = parity_oracle.relation(aut, q1, q2)
            assert compare_states(cond, q1, q2) == want
            assert compare_states(cond, q2, q1) == _CONVERSE[want]
            if len(states) <= 2:
                assert compare_states(muller, q1, q2) == want


def _muller_table(n: int, alphabet: str, targets, wins: int) -> MullerCondition:
    """Muller condition on the skeleton with q_i --alphabet[j]--> q_targets[i *
    len(alphabet) + j], cut down to the states reachable from q0, whose k-th
    cycle support wins iff bit k of ``wins`` is set."""
    letters = len(alphabet)
    reach, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for t in targets[i * letters : (i + 1) * letters]:
            if t not in reach:
                reach.add(t)
                todo.append(t)
    upd = {
        (f"q{i}", c): f"q{targets[i * letters + j]}" for i in reach for j, c in enumerate(alphabet)
    }
    sk = Skeleton.make([f"q{i}" for i in reach], "q0", alphabet, upd)
    supports = enumerate_cycle_supports(sk)
    table = frozenset(
        frozenset(support_transitions(sk, g)) for k, g in enumerate(supports) if wins >> k & 1
    )
    return MullerCondition(sk, table)


@st.composite
def _small_muller_tables(draw):
    """(states, alphabet, targets, wins) of :func:`_muller_table`: 1 to 3
    states over 1 to 3 letters, and any table."""
    n, letters = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=n * letters, max_size=n * letters))
    return n, "abc"[:letters], targets, draw(st.integers(0, (1 << 200) - 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table=_small_muller_tables())
# one state: the only pair is (q0, q0), and the relation is empty
@example(table=(1, "ab", [0, 0], 0b101))
# three states, three letters, 106 supports: the ordered pairs of distinct
# states are less, greater and incomparable, and the rc has three states
@example(table=(3, "abc", [0, 1, 0, 2, 1, 0, 0, 1, 1], 0x1256A95FC7724FB51630A65C761))
def test_muller_residuals_match_per_pair_enumeration(table):
    cond = _muller_table(*table)
    states = cond.skeleton.states
    for q1 in states:
        for q2 in states:
            assert compare_states(cond, q1, q2) == muller_residual_oracle.relation(cond, q1, q2)
    assert right_congruence_automaton(cond) == muller_residual_oracle.rc_automaton(cond)


def test_rc_of_fifty_state_dpa_within_a_second():
    rng = random.Random(50)
    n = 50
    targets = [rng.randrange(n) for _ in range(2 * n)]
    parent_slots: set[int] = set()
    for i in range(1, n):  # an edge from a lower state into each state
        slot = rng.choice([k for k in range(2 * i) if k not in parent_slots])
        parent_slots.add(slot)
        targets[slot] = i
    aut = _two_letter_dpa(targets, [rng.randint(0, 3) for _ in range(2 * n)])
    assert len(aut.skeleton.states) == n
    start = time.perf_counter()
    rc = right_congruence_automaton(DpaCondition(aut))
    assert time.perf_counter() - start < 1.0
    assert 1 <= len(rc.states) <= n


# -- right congruence -------------------------------------------------------------


def test_rc_of_ds_half_two_matches_expected_table(ds_half_two):
    rc = right_congruence_automaton(ds_half_two)
    assert set(rc.states) == {"0", "2", "-2", "-4", "top", "bot"}
    assert rc.init == "0"
    table = {(s, c): t for s, c, t in rc.transitions}
    assert table[("0", 1)] == "2"
    assert table[("0", 2)] == "top"
    assert table[("2", -2)] == "0"
    assert table[("2", -1)] == "2"
    assert table[("-2", 0)] == "-4"
    assert table[("-4", 2)] == "-4"
    assert all(table[("bot", c)] == "bot" for c in range(-2, 3))


def test_rc_of_ab_prefix_language(ab_prefix_condition):
    rc = right_congruence_automaton(ab_prefix_condition)
    assert set(rc.states) == {"[ε]", "[a]", "[ab]", "[b]"}
    assert rc.init == "[ε]"


def test_rc_of_prefix_independent_condition_is_trivial():
    sk = trivial_skeleton(["a", "b"])
    buchi_a = ParityAutomaton.make(sk, {("m0", "a"): 0, ("m0", "b"): 1})
    rc = right_congruence_automaton(DpaCondition(buchi_a))
    assert len(rc.states) == 1


def test_rc_infinite_index_is_an_error():
    with pytest.raises(InfiniteIndexError):
        right_congruence_automaton(DiscountedSumCondition(Fraction(2, 3), 1))


def test_rc_unsupported_for_payoff_conditions():
    with pytest.raises(PreconditionError):
        right_congruence_automaton(MeanPayoffCondition())


def test_rc_three_class_case():
    rc = right_congruence_automaton(DiscountedSumCondition(Fraction(2, 5), 1))
    assert set(rc.states) == {"0", "top", "bot"}


def test_rc_states_pairwise_distinct(ab_prefix_condition):
    rc = right_congruence_automaton(ab_prefix_condition)
    # distinct classes must stay distinguishable through the original automaton
    sk = ab_prefix_condition.automaton.skeleton
    for q1 in sk.states:
        for q2 in sk.states:
            got = compare_states(ab_prefix_condition, q1, q2)
            assert (got == "equal") == (q1 == q2)


def test_quotient_by_a_non_congruence_is_an_internal_fault():
    # p and q are declared equivalent, but their a-successors q and r are
    # not: no residual equivalence does that, so the fault is the
    # relation's, not the input's
    sk = Skeleton.make(["p", "q", "r"], "p", ["a"], {("p", "a"): "q", ("q", "a"): "r", ("r", "a"): "r"})
    with pytest.raises(InternalConsistencyError):
        _quotient_by_equivalence(sk, lambda x, y: x == y or {x, y} == {"p", "q"})


def test_rc_quotients_redundant_states(gen_buchi, switch_skeleton):
    # a parity automaton with two copies of the same residual collapses
    aut = ParityAutomaton.make(
        switch_skeleton,
        {
            ("init", "a"): 1,
            ("init", "b"): 2,
            ("init", "c"): 1,
            ("m2", "a"): 2,
            ("m2", "b"): 1,
            ("m2", "c"): 1,
        },
    )
    rc = right_congruence_automaton(DpaCondition(aut))
    assert len(rc.states) == 1  # the language is prefix-independent
