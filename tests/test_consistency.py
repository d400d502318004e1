"""Prefix-independence and cycle-consistency checks, plus the mean-payoff demo."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from skelparity import (
    DpaCondition,
    Lasso,
    MullerCondition,
    Skeleton,
    enumerate_cycle_supports,
    lasso_value,
    product,
    right_congruence_automaton,
    trivial_skeleton,
)
from skelparity.consistency import (
    SupportAnalysis,
    _first_open_state,
    _first_pair,
    check_cycle_consistency,
    check_prefix_independence,
    mp_counterexample_report,
)
from skelparity.conditions import MeanPayoffCondition
from skelparity.errors import InputError
from skelparity.skeletons import SupportIndex, support_transitions

from conftest import (
    ABC,
    build_contrast_automaton,
    build_gen_buchi,
    build_switch_skeleton,
    states_on,
)


# -- prefix independence --------------------------------------------------------


def test_ab_prefix_fails_on_a_blind_skeleton(ab_prefix_condition, a_blind_skeleton):
    report = check_prefix_independence(ab_prefix_condition, a_blind_skeleton)
    assert not report.passed
    assert report.witness["w1"] == []
    assert report.witness["w2"] == ["a"]
    # self-certifying: the two prefixes genuinely differ on some continuation
    cond = ab_prefix_condition
    w1, w2 = tuple(report.witness["w1"]), tuple(report.witness["w2"])
    separator = Lasso.make(("b",), ("a",))
    v1 = lasso_value(cond, Lasso(w1 + separator.prefix, separator.period))
    v2 = lasso_value(cond, Lasso(w2 + separator.prefix, separator.period))
    assert v1 != v2


def test_prefix_independence_stops_at_the_first_conflict(ab_prefix_condition, monkeypatch):
    # "a" and "b" both lead to state 1 of a 200-state chain, but to two
    # classes of the ab-prefix condition: the search stops there, after
    # the two steps out of state 0, and explores no more of chain x classes
    names = [f"s{i:03d}" for i in range(200)]
    upd = {(s, c): names[min(i + 1, 199)] for i, s in enumerate(names) for c in "ab"}
    chain = Skeleton.make(names, names[0], "ab", upd)
    steps = []
    step = Skeleton.step
    monkeypatch.setattr(
        Skeleton, "step", lambda sk, s, c: steps.append(sk is chain) or step(sk, s, c)
    )
    report = check_prefix_independence(ab_prefix_condition, chain)
    assert report.witness == {"kind": "prefix-pair", "state": "s001", "w1": ["a"], "w2": ["b"]}
    assert steps.count(True) == 2


def test_gen_buchi_passes_on_switch_skeleton(gen_buchi, switch_skeleton):
    assert check_prefix_independence(gen_buchi, switch_skeleton).passed


def test_prefix_independent_condition_on_trivial(gen_buchi, trivial_abc):
    assert check_prefix_independence(gen_buchi, trivial_abc).passed


def test_ds_prefix_independence_on_own_congruence(ds_half_two):
    from skelparity.conditions import right_congruence_automaton

    rc = right_congruence_automaton(ds_half_two)
    assert check_prefix_independence(ds_half_two, rc).passed
    assert not check_prefix_independence(ds_half_two, trivial_skeleton(range(-2, 3))).passed


# -- cycle consistency -----------------------------------------------------------


def test_gen_buchi_fails_on_trivial(gen_buchi, trivial_abc):
    report = check_cycle_consistency(gen_buchi, trivial_abc)
    assert not report.passed
    w = report.witness
    assert [t[1] for t in w["support1"]] == ["a"]
    assert [t[1] for t in w["support2"]] == ["b"]
    assert w["family_value"] == "lose" and w["union_value"] == "win"
    # witness re-verification through the word oracle alone
    assert lasso_value(gen_buchi, Lasso.make([], ["a"])) == "lose"
    assert lasso_value(gen_buchi, Lasso.make([], ["b"])) == "lose"
    assert lasso_value(gen_buchi, Lasso.make([], ["a", "b"])) == "win"


def test_gen_buchi_passes_on_switch_skeleton_cycles(gen_buchi, switch_skeleton):
    assert check_cycle_consistency(gen_buchi, switch_skeleton).passed


def test_recognized_language_is_consistent_on_own_skeleton(contrast_automaton):
    cond = DpaCondition(contrast_automaton)
    sk = contrast_automaton.skeleton
    assert check_prefix_independence(cond, sk).passed
    assert check_cycle_consistency(cond, sk).passed


def test_cycle_consistency_refuses_payoff_conditions(trivial_abc):
    with pytest.raises(InputError):
        check_cycle_consistency(MeanPayoffCondition(), trivial_skeleton([-1, 1]))


# -- stability under products (random skeletons) ----------------------------------


def _random_skeleton(seed: int, alphabet, max_states=3) -> Skeleton:
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    states = [f"r{i}" for i in range(n)]
    upd = {(s, c): rng.choice(states) for s in states for c in alphabet}
    reach = {"r0"}
    work = ["r0"]
    while work:
        s = work.pop()
        for c in alphabet:
            if upd[(s, c)] not in reach:
                reach.add(upd[(s, c)])
                work.append(upd[(s, c)])
    return Skeleton.make(
        sorted(reach), "r0", alphabet, {k: v for k, v in upd.items() if k[0] in reach}
    )


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_consistency_stable_under_product(seed):
    cond = build_gen_buchi()
    base = build_switch_skeleton()
    other = _random_skeleton(seed, ABC)
    prod = product(base, other)
    assert check_prefix_independence(cond, prod).passed
    assert check_cycle_consistency(cond, prod).passed


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_recognized_language_stable_under_product(seed):
    aut = build_contrast_automaton()
    cond = DpaCondition(aut)
    prod = product(aut.skeleton, _random_skeleton(seed, ABC))
    assert check_prefix_independence(cond, prod).passed
    assert check_cycle_consistency(cond, prod).passed


def _pairwise_union_witness(analysis):
    """The union-closure witness of ``analysis.cycle_consistency()`` by
    definition: at each state, in the order of the skeleton's transitions,
    the supports through it in canonical order are compared pairwise, and
    the first same-value pair whose union has the other value is reported."""
    sk = analysis.skeleton
    value_of = dict(analysis.classified())
    for q in dict.fromkeys(s for s, _, _ in sk.transitions):
        through = [g for g in analysis.supports if q in states_on(sk, g)]
        for i, g1 in enumerate(through):
            for g2 in through[i + 1 :]:
                if value_of[g1] == value_of[g2] != value_of[g1 | g2]:
                    return {
                        "kind": "support-pair",
                        "state": q,
                        "support1": [list(t) for t in support_transitions(sk, g1)],
                        "support2": [list(t) for t in support_transitions(sk, g2)],
                        "family_value": value_of[g1],
                        "union_value": value_of[g1 | g2],
                    }
    return None


def test_cycle_consistency_matches_pairwise_reference():
    # seeded Muller tables on 1- to 3-state skeletons over {a, b}, each half
    # winning, against 1- or 2-state memories: both verdicts occur
    verdicts = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        d = _random_skeleton(rng.randrange(10**6), "ab")
        table = frozenset(g for g in enumerate_cycle_supports(d) if rng.random() < 0.5)
        cond = MullerCondition(skeleton=d, winning_supports=table)
        m = _random_skeleton(rng.randrange(10**6), "ab", max_states=2)
        analysis = SupportAnalysis(cond, product(m, right_congruence_automaton(cond)))
        if any(len(values) > 1 for values in analysis.value_sets):
            continue
        report = analysis.cycle_consistency()
        want = _pairwise_union_witness(analysis)
        assert report.witness == want, seed
        assert report.passed == (want is None)
        verdicts[report.verdict] += 1
    assert verdicts["pass"] >= 20 and verdicts["fail"] >= 20, verdicts


def test_union_closure_matches_long_concatenations(gen_buchi, switch_skeleton):
    # sampling: random concatenations of same-value cycles keep that value
    from skelparity.conditions import right_congruence_automaton
    from skelparity.skeletons import bfs_words, closed_walk, enumerate_cycle_supports

    from conftest import states_on

    rc = right_congruence_automaton(gen_buchi)
    prod = product(switch_skeleton, rc)
    prefixes = bfs_words(prod.init, prod.alphabet, prod.step)
    supports = enumerate_cycle_supports(prod)
    rng = random.Random(7)
    for _ in range(40):
        state = rng.choice(prod.states)
        through = [g for g in supports if state in states_on(prod, g)]
        walks = {
            g: closed_walk(prod, g, anchor=state)
            for g in through
        }
        values = {
            g: lasso_value(gen_buchi, Lasso.make(prefixes[state], tuple(walks[g])))
            for g in through
        }
        for target in ("win", "lose"):
            family = [g for g in through if values[g] == target]
            if not family:
                continue
            picks = [rng.choice(family) for _ in range(rng.randint(1, 4))]
            union = 0
            for g in picks:
                union |= g
            long_period = sum((tuple(walks[g]) for g in picks), ())
            assert (
                lasso_value(gen_buchi, Lasso.make(prefixes[state], long_period))
                == target
            )
            assert values[union] == target


# -- union closure of the same-value families through one state --------------------


@st.composite
def _valued_union_closed_family(draw):
    """Masks closed under union, in drawn order, each valued "win" or "lose"
    at random or by a rule (top bit parity or holding a bit, under which
    both families are closed; holding all bits of a set, under which the
    losing one need not be)."""
    # widths on both sides of 22 bits and beyond a 64-bit word
    width = draw(st.integers(*draw(st.sampled_from([(3, 22), (23, 63), (64, 120)]))))
    mask = st.integers(1, (1 << width) - 1)
    widest = draw(st.integers(1 << (width - 1), (1 << width) - 1))
    family = {widest, *draw(st.lists(mask, min_size=2, max_size=5))}
    while True:
        grown = family | {a | b for a in family for b in family}
        if grown == family:
            break
        family = grown
    masks = draw(st.permutations(sorted(family)))
    rule = draw(st.sampled_from(["random", "top-bit", "holds-bit", "holds-all"]))
    if rule == "random":
        wins = draw(st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)))
    elif rule == "top-bit":
        wins = [m.bit_length() % 2 == 0 for m in masks]
    else:
        need = draw(mask) if rule == "holds-all" else 1 << draw(st.integers(0, width - 1))
        wins = [m & need == need for m in masks]
    return masks, ["win" if w else "lose" for w in wins]


def _first_flip_by_definition(masks, values):
    value_of = dict(zip(masks, values))
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if values[i] == values[j] and value_of[masks[i] | masks[j]] != values[i]:
                return i, j
    return None


def _first_union_flip(through: list, values: list):
    """Index pair (i, j), canonical order, whose same-value union flips value.

    ``through`` must contain every support mask through the state, so every
    union mask indexes back into it, and ``values`` holds two values at
    most.  The masks are tested by ``_first_open_state`` on a
    ``SupportIndex`` of ``through``, as the supports of one state; only a
    failing state is scanned pairwise for the first pair.
    """
    width = max(through, default=0).bit_length()
    index = SupportIndex(through, width)
    family = sum(1 << k for k, v in enumerate(values) if v == values[0])
    if _first_open_state(index, [(1 << width) - 1], family) is None:
        return None
    return _first_pair(through, values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_valued_union_closed_family())
def test_first_union_flip_matches_pairwise_definition(family):
    masks, values = family
    assert _first_union_flip(masks, values) == _first_flip_by_definition(masks, values)


# -- mean payoff demonstration ------------------------------------------------------


def test_mp_report_small():
    report = mp_counterexample_report(3)
    assert report.verdict == "fail"
    assert report.witness["zero_positions"] == [2, 6, 12]
    rows = report.details["table"]
    assert rows[1]["mean_payoff"] == "-1/3"


def test_mp_report_periods_are_losing():
    cond = MeanPayoffCondition()
    for n in range(6):
        period = (1,) * n + (-1,) * (n + 1)
        assert lasso_value(cond, Lasso.make([], period)) == "lose"


def test_mp_report_rejects_zero():
    with pytest.raises(InputError):
        mp_counterexample_report(0)
