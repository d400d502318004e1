"""Support values read off the condition's automaton: cross-checks against
bounded lassos, the two-valued support witness, and its agreement with
synthesis."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from skelparity import (
    DiscountedSumCondition,
    DpaCondition,
    MullerCondition,
    ParityAutomaton,
    Skeleton,
    product,
    trivial_skeleton,
)
from skelparity.cli import main
from skelparity.conditions import (
    LOSE,
    WIN,
    Lasso,
    lasso_value,
    right_congruence_automaton,
    support_automaton,
)
from skelparity.consistency import SupportAnalysis, check_cycle_consistency
from skelparity.serialize import canonical_json, condition_to_dict, skeleton_to_dict
from skelparity.skeletons import bit_indices, enumerate_cycle_supports, support_transitions
from skelparity.synthesis import SynthesisStageError, synthesize

import lasso_oracle
from conftest import build_two_valued_dpa, mask_of


def _skeleton(states, alphabet, upd) -> Skeleton:
    """The part of a complete table reachable from ``states[0]``."""
    reach, work = {states[0]}, [states[0]]
    while work:
        s = work.pop()
        for c in alphabet:
            if upd[(s, c)] not in reach:
                reach.add(upd[(s, c)])
                work.append(upd[(s, c)])
    return Skeleton.make(
        sorted(reach), states[0], alphabet, {k: v for k, v in upd.items() if k[0] in reach}
    )


@st.composite
def _skeletons(draw, alphabet, max_states, prefix="m"):
    states = [f"{prefix}{i}" for i in range(draw(st.integers(1, max_states)))]
    return _skeleton(
        states, alphabet, {(s, c): draw(st.sampled_from(states)) for s in states for c in alphabet}
    )


@st.composite
def _dpas(draw):
    """A DPA over {a, b} with 1 to 4 states and priorities 0 to 3."""
    sk = draw(_skeletons("ab", 4, prefix="q"))
    pri = {(s, c): draw(st.integers(0, 3)) for s, c, _ in sk.transitions}
    return DpaCondition(ParityAutomaton.make(sk, pri))


FALSE_PASS = build_two_valued_dpa()
AB = trivial_skeleton("ab")


def _check_against_lassos(cond, sk, max_prefix, max_period):
    """The analysis of ``sk`` claims every value that a bounded lasso
    entering a support takes, its supports are those of ``sk``, and each
    value of a two-valued support comes with a lasso that rechecks."""
    analysis = SupportAnalysis(cond, sk)
    assert analysis.supports == enumerate_cycle_supports(sk)
    claimed = {
        frozenset(support_transitions(sk, g)): values
        for g, values in zip(analysis.supports, analysis.value_sets)
    }
    for cycle, values in lasso_oracle.cycle_values(cond, sk, max_prefix, max_period).items():
        assert values <= claimed[cycle], (sorted(cycle), values, claimed[cycle])
    for i, values in enumerate(analysis.value_sets):
        if len(values) > 1:
            support = frozenset(support_transitions(sk, analysis.supports[i]))
            lassos = analysis.lassos(i)
            assert set(lassos) == {WIN, LOSE}
            for value, lasso in lassos.items():
                assert lasso_value(cond, lasso) == value
                assert lasso_oracle.entered_cycle(sk, lasso)[1] == support


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cond=_dpas(), m=_skeletons("ab", 2), with_rc=st.booleans())
@example(cond=FALSE_PASS, m=AB, with_rc=True)
def test_dpa_support_values_match_lassos(cond, m, with_rc):
    sk = product(m, right_congruence_automaton(cond)) if with_rc else m
    _check_against_lassos(cond, sk, max_prefix=3, max_period=6)


@st.composite
def _muller_tables(draw):
    """A Muller condition tabulating a random set of winning supports of a
    skeleton over {a, b} with 1 or 2 states."""
    sk = draw(_skeletons("ab", 2, prefix="d"))
    supports = enumerate_cycle_supports(sk)
    wins = draw(st.lists(st.booleans(), min_size=len(supports), max_size=len(supports)))
    return MullerCondition(sk, winning_supports=frozenset(g for g, w in zip(supports, wins) if w))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cond=_muller_tables(), m=_skeletons("ab", 2))
def test_muller_support_values_match_lassos(cond, m):
    _check_against_lassos(cond, m, max_prefix=3, max_period=6)


# below the frontier k < 1/lambda - 1, where the gap automaton has the
# three states top, 0 and bot (top alone when k = 0)
_THREE_CLASS = st.sampled_from(
    [(Fraction(2, 5), 0), (Fraction(2, 5), 1), (Fraction(2, 3), 0), (Fraction(3, 4), 0),
     (Fraction(5, 7), 0), (Fraction(2, 7), 1), (Fraction(3, 10), 1)]
)


@st.composite
def _ds_pairs(draw):
    """A discounted sum with a finite gap automaton, lambda = 1/2 or 1/3
    with k = 1 or 2 or a three-class pair, and a skeleton over its colors
    with 1 or 2 states."""
    integral = st.tuples(st.sampled_from([Fraction(1, 2), Fraction(1, 3)]), st.integers(1, 2))
    lam, k = draw(st.one_of(integral, _THREE_CLASS))
    return DiscountedSumCondition(lam, k), draw(_skeletons(tuple(range(-k, k + 1)), 2))


@settings(max_examples=24, deadline=None, derandomize=True)
@given(_ds_pairs())
@example((DiscountedSumCondition(Fraction(1, 2), 1), trivial_skeleton([-1, 0, 1])))
@example((DiscountedSumCondition(Fraction(2, 5), 1), trivial_skeleton([-1, 0, 1])))
def test_ds_support_values_match_lassos(pair):
    cond, m = pair
    if cond.k == 1:
        _check_against_lassos(cond, m, max_prefix=2, max_period=4)
    else:
        _check_against_lassos(cond, m, max_prefix=1, max_period=3)


# -- the one valuation of transition sets ------------------------------------------


def _check_valuation(cond, reference):
    """``support_automaton`` weighs every transition of ``D`` by one bit,
    and its value of the OR of the weights over each cycle support of ``D``
    is ``reference`` of that support's transition set."""
    sk, weights, value = support_automaton(cond)
    assert len(weights) == len(sk.transitions)
    assert all(w.bit_count() == 1 for w in weights)
    for g in enumerate_cycle_supports(sk):
        ored = reduce(or_, (weights[i] for i in bit_indices(g)))
        assert value(ored) == reference(frozenset(support_transitions(sk, g)))


@st.composite
def _sparse_dpas(draw):
    """A DPA over {a, b} with 1 to 4 states, its priorities drawn from up
    to four levels in [0, 10**6]."""
    sk = draw(_skeletons("ab", 4, prefix="q"))
    levels = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    pri = {(s, c): draw(st.sampled_from(levels)) for s, c, _ in sk.transitions}
    return DpaCondition(ParityAutomaton.make(sk, pri))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_sparse_dpas())
def test_parity_valuation_is_the_parity_of_the_top_priority(cond):
    aut = cond.automaton
    _check_valuation(cond, lambda sup: WIN if aut.max_support_priority(sup) % 2 == 0 else LOSE)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_muller_tables())
def test_muller_valuation_is_the_table(cond):
    table = cond.winning_supports
    _check_valuation(cond, lambda sup: WIN if mask_of(cond.skeleton, sup) in table else LOSE)


# -- the two-valued support witness ------------------------------------------------


def _run_cli(*argv) -> tuple[dict, int]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return json.loads(buf.getvalue()), code


@pytest.fixture
def false_pass_files(tmp_path):
    cond = tmp_path / "cond.json"
    cond.write_text(canonical_json(condition_to_dict(FALSE_PASS)))
    sk = tmp_path / "ab.json"
    sk.write_text(canonical_json(skeleton_to_dict(AB)))
    return str(cond), str(sk)


def test_two_valued_support_fails_cycle_consistency(false_pass_files):
    cond, sk = false_pass_files
    report, code = _run_cli("check", "cycle-consistency", "--condition", cond, "--skeleton", sk)
    assert code == 1 and report["verdict"] == "fail"
    witness = report["witness"]
    assert witness["kind"] == "support-values"
    # both lassos recheck through the word oracle and enter the reported
    # support of m x rc
    a = product(AB, right_congruence_automaton(FALSE_PASS))
    support = frozenset((s, c) for s, c in witness["support"])
    assert support == {("m0|[ε]", "a"), ("m0|[ε]", "b")}
    for key, value in (("winning", WIN), ("losing", LOSE)):
        lasso = Lasso.make(witness[key]["prefix"], witness[key]["period"])
        assert lasso_value(FALSE_PASS, lasso) == value
        assert lasso_oracle.entered_cycle(a, lasso)[1] == support


def test_two_valued_support_stops_synthesis_at_cycle_consistency(false_pass_files):
    cond, sk = false_pass_files
    report, code = _run_cli("synthesize", "--condition", cond, "--skeleton", sk)
    assert code == 1
    assert report["stage"] == "cycle-consistency"
    assert report["witness"]["kind"] == "support-values"


def test_two_valued_support_is_a_verification_mismatch():
    # a^omega wins and b^omega loses, as the one-state automaton says; it
    # makes {a, b} lose, so the mismatch carries the winning value
    from skelparity.synthesis import verify_synthesis

    aut = ParityAutomaton.make(AB, {("m0", "a"): 0, ("m0", "b"): 1})
    report = verify_synthesis(aut, FALSE_PASS, samples=0)
    assert not report.passed
    assert report.support_mismatch == {
        "support": [["m0", "a"], ["m0", "b"]],
        "max_priority": 1,
        "oracle": WIN,
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cond=_dpas(), m=_skeletons("ab", 2))
@example(cond=FALSE_PASS, m=AB)
def test_cycle_consistency_passes_iff_synthesis_succeeds(cond, m):
    passed = check_cycle_consistency(cond, m).passed
    try:
        synthesize(cond, m, samples=200, allow_transient=True)
    except SynthesisStageError as exc:
        assert not passed, exc
        assert exc.stage == "cycle-consistency"
    else:
        assert passed
