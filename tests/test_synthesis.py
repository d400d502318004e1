"""Cycle competition, the class preorder, priorities, and full synthesis."""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skelparity import (
    DiscountedSumCondition,
    DpaCondition,
    Lasso,
    MullerCondition,
    ParityAutomaton,
    Skeleton,
    enumerate_cycle_supports,
    lasso_value,
    product,
    right_congruence_automaton,
    trivial_skeleton,
)
from skelparity.conditions import _cycle_walker, _walk_tables
from skelparity.consistency import SupportAnalysis
from skelparity.errors import InputError, PreconditionError, TransientTransitionError
from skelparity.skeletons import support_transitions
from skelparity.synthesis import (
    SynthesisStageError,
    assign_priorities,
    build_cycle_preorder,
    classify_supports,
    linear_extension,
    synthesize,
    validate_extension,
    verify_synthesis,
    walk_lassos,
)

from conftest import (
    CONTRAST_PRIORITIES,
    build_a_blind_skeleton,
    build_ab_prefix_automaton,
    build_contrast_muller,
    build_contrast_skeleton,
    build_gen_buchi,
    build_switch_skeleton,
    contrast_label,
    mask_of,
    states_on,
)
import lasso_oracle
from lasso_oracle import random_lasso
from preorder_oracle import (
    as_frozensets,
    competing_witness,
    dominates,
    reference_priorities,
    reference_table,
    support_states,
)

f = frozenset

AA = f({("m1", "a"), ("m2", "a")})
M1B = f({("m1", "b")})
M1C = f({("m1", "c")})
M2B = f({("m2", "b")})


def contrast_mask(transitions) -> int:
    return mask_of(build_contrast_skeleton(), transitions)


@pytest.fixture(scope="module")
def contrast_classified():
    return classify_supports(build_contrast_skeleton(), build_contrast_muller())


@pytest.fixture(scope="module")
def contrast_values(contrast_classified):
    return as_frozensets(build_contrast_skeleton(), contrast_classified)


@pytest.fixture(scope="module")
def contrast_table():
    return build_cycle_preorder(build_contrast_skeleton(), build_contrast_muller())


# -- classification -------------------------------------------------------------


def test_classify_contrast_supports(contrast_values):
    values = contrast_values
    assert values[M1B] == "lose"
    assert values[AA] == "win"
    assert values[M2B] == "win"
    assert values[M1C] == "lose"
    assert len(values) == 22


def test_classify_switch_with_gen_buchi():
    sk = build_switch_skeleton()
    values = as_frozensets(sk, classify_supports(sk, build_gen_buchi()))
    assert values[f({("init", "b"), ("m2", "a")})] == "win"
    assert values[f({("init", "a")})] == "lose"


def test_classify_refuses_inconsistent_pairs():
    with pytest.raises(PreconditionError):
        classify_supports(trivial_skeleton(("a", "b", "c")), build_gen_buchi())


def test_classify_refuses_non_union_invariant():
    from skelparity.conditions import MeanPayoffCondition

    with pytest.raises(PreconditionError):
        classify_supports(trivial_skeleton((-1, 1)), MeanPayoffCondition())


# -- competition and domination ---------------------------------------------------


def test_non_competing_pair(contrast_values):
    assert competing_witness(M1B, M2B, contrast_values) is None


def test_witness_for_cross_competition(contrast_values):
    assert competing_witness(M1C, M2B, contrast_values) == AA


def test_shared_state_pairs_compete(contrast_values):
    zeta = competing_witness(M1B, AA, contrast_values)
    assert zeta is not None
    assert dominates(AA, M1B, zeta, contrast_values) == AA


def test_losing_loop_dominates_crossing_cycle(contrast_values):
    zeta = competing_witness(M1C, AA, contrast_values)
    assert dominates(M1C, AA, zeta, contrast_values) == M1C


def test_contrast_dominates_far_loop(contrast_values):
    zeta = competing_witness(M1C, M2B, contrast_values)
    assert dominates(M1C, M2B, zeta, contrast_values) == M1C


def test_witness_requires_opposite_values(contrast_values):
    with pytest.raises(InputError):
        competing_witness(M1B, M1C, contrast_values)


def test_witness_independence(contrast_values):
    # any two valid witnesses must agree on who dominates
    values = contrast_values
    supports = list(values)
    rng = random.Random(3)
    pairs = [
        (g1, g2)
        for g1 in supports
        for g2 in supports
        if values[g1] == "win" and values[g2] == "lose"
    ]
    for g1, g2 in rng.sample(pairs, 25):
        witnesses = []
        for zeta in supports:
            zs = support_states(zeta)
            if not (zs & support_states(g1)) or not (zs & support_states(g2)):
                continue
            if (
                values[g1 | zeta] == values[g1]
                and values[g2 | zeta] == values[g2]
            ):
                witnesses.append(zeta)
        outcomes = {
            dominates(g1, g2, zeta, contrast_values) for zeta in witnesses
        }
        assert len(outcomes) <= 1


# -- the class table ---------------------------------------------------------------


def test_contrast_table_has_four_classes(contrast_table):
    assert len(contrast_table.classes) == 4
    by_id = {e.class_id: e for e in contrast_table.classes}
    assert by_id[contrast_label(M1B)].value == "lose"
    assert by_id[contrast_label(AA)].value == "win"
    assert by_id[contrast_label(M2B)].value == "win"
    assert by_id[contrast_label(M1C)].value == "lose"


def test_contrast_class_memberships(contrast_table):
    cls = contrast_table.class_of
    assert cls[contrast_mask(AA)] == cls[contrast_mask({("m1", "a"), ("m2", "b"), ("m2", "a")})]
    assert cls[contrast_mask(M2B)] == cls[contrast_mask({("m2", "c")})]
    for g, _ in contrast_table.supports:
        if g & contrast_mask(M1C):
            assert cls[g] == contrast_label(M1C)


def test_contrast_hasse_diagram(contrast_table):
    assert sorted(contrast_table.hasse_edges()) == sorted(
        [
            (contrast_label(M1B), contrast_label(AA)),
            (contrast_label(AA), contrast_label(M1C)),
            (contrast_label(M2B), contrast_label(M1C)),
        ]
    )


def test_order_is_strict_and_transitive(contrast_table):
    order = contrast_table.order
    ids = [e.class_id for e in contrast_table.classes]
    for a in ids:
        assert (a, a) not in order
    for a, b in order:
        for c, d in order:
            if b == c:
                assert (a, d) in order


def test_class_relations_respect_equivalence(contrast_table):
    # members of one class relate identically to every other class
    for e1 in contrast_table.classes:
        for e2 in contrast_table.classes:
            if e1.class_id == e2.class_id:
                continue
            related = (e1.class_id, e2.class_id) in contrast_table.order
            del related  # uniformity was verified during construction
    assert contrast_table.competes <= {
        (a.class_id, b.class_id)
        for a in contrast_table.classes
        for b in contrast_table.classes
        if a.value != b.value
    }
    assert contrast_table.dominates <= contrast_table.competes


PREORDER_PAIRS = {
    "contrast": lambda: (build_contrast_muller(), build_contrast_skeleton()),
    "gen-buchi-switch": lambda: (build_gen_buchi(), build_switch_skeleton()),
    "ab-prefix": lambda: (
        DpaCondition(build_ab_prefix_automaton()), trivial_skeleton(("a", "b"))
    ),
    "ds-half-k2": lambda: (
        DiscountedSumCondition(Fraction(1, 2), 2), trivial_skeleton(range(-2, 3))
    ),
    "ds-third-k2": lambda: (
        DiscountedSumCondition(Fraction(1, 3), 2), trivial_skeleton(range(-2, 3))
    ),
}


def _assert_preorder_matches_reference(table):
    sk = table.skeleton
    ref = reference_table(as_frozensets(sk, table.supports))
    classes = {
        e.class_id: frozenset(frozenset(support_transitions(sk, g)) for g in e.members)
        for e in table.classes
    }
    assert classes == ref["classes"]
    assert table.competes == ref["competes"]
    assert table.dominates == ref["dominates"]
    assert table.order == ref["order"]


@pytest.mark.parametrize("name", sorted(PREORDER_PAIRS))
def test_preorder_matches_reference(name):
    cond, sk = PREORDER_PAIRS[name]()
    result = synthesize(cond, sk, samples=50, allow_transient=True)
    _assert_preorder_matches_reference(result.table)


@st.composite
def _small_dpa_pairs(draw):
    """A random DPA over {a, b} with 2 or 3 states, all reachable, and a
    memory skeleton with 1 or 2 states."""
    n = draw(st.integers(2, 3))
    states = [f"q{i}" for i in range(n)]
    upd = {(s, c): draw(st.sampled_from(states)) for s in states for c in "ab"}
    reach, work = {"q0"}, ["q0"]
    while work:
        s = work.pop()
        for c in "ab":
            if upd[(s, c)] not in reach:
                reach.add(upd[(s, c)])
                work.append(upd[(s, c)])
    sk = Skeleton.make(
        sorted(reach), "q0", "ab", {k: v for k, v in upd.items() if k[0] in reach}
    )
    pri = {(s, c): draw(st.integers(0, 3)) for s, c, _ in sk.transitions}
    memory = [f"m{i}" for i in range(draw(st.integers(1, 2)))]
    mupd = {(s, c): draw(st.sampled_from(memory)) for s in memory for c in "ab"}
    mupd[("m0", "b")] = memory[-1]  # every memory state is reachable
    return DpaCondition(ParityAutomaton.make(sk, pri)), Skeleton.make(memory, "m0", "ab", mupd)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_dpa_pairs())
def test_preorder_matches_reference_on_random_dpas(pair):
    cond, m = pair
    base = product(right_congruence_automaton(cond), m)
    try:
        table = build_cycle_preorder(base, cond)
    except PreconditionError:
        assume(False)
    _assert_preorder_matches_reference(table)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_dpa_pairs())
def test_priorities_match_reference_on_random_dpas(pair):
    cond, m = pair
    base = product(right_congruence_automaton(cond), m)
    try:
        table = build_cycle_preorder(base, cond)
    except PreconditionError:
        assume(False)
    pgamma = linear_extension(table)
    aut = assign_priorities(base, table, pgamma, allow_transient=True)
    got = {(s, c): p for s, c, p in aut.priorities}
    assert got == reference_priorities(base, table, pgamma)


def test_all_win_condition_collapses_to_single_class():
    sk = trivial_skeleton(("a", "b"))
    cond = MullerCondition.tabulate(sk, lambda sup: True)
    table = build_cycle_preorder(sk, cond)
    assert len(table.classes) == 1
    assert table.order == frozenset()
    assert linear_extension(table) == {table.classes[0].class_id: 0}


# -- numbering and priorities --------------------------------------------------------


HANDPICKED_NUMBERING = {
    "[(m1,c)]": 5,
    "[(m1,a)(m2,a)]": 2,
    "[(m2,b)]": 4,
    "[(m1,b)]": 1,
}


def test_validator_accepts_handpicked_numbering(contrast_table):
    validate_extension(contrast_table, HANDPICKED_NUMBERING)


def test_validator_rejects_nonmonotone_and_bad_parity(contrast_table):
    bad = dict(HANDPICKED_NUMBERING, **{"[(m1,c)]": 1})  # below [(m2,b)]
    with pytest.raises(InputError):
        validate_extension(contrast_table, bad)
    bad2 = dict(HANDPICKED_NUMBERING, **{"[(m2,b)]": 3})  # odd on a win class
    with pytest.raises(InputError):
        validate_extension(contrast_table, bad2)


def test_greedy_extension_values(contrast_table):
    assert linear_extension(contrast_table) == {
        "[(m1,c)]": 3,
        "[(m1,a)(m2,a)]": 2,
        "[(m2,b)]": 0,
        "[(m1,b)]": 1,
    }


def test_greedy_extension_is_valid_and_monotone(contrast_table):
    pg = linear_extension(contrast_table)
    validate_extension(contrast_table, pg)
    for lo, hi in contrast_table.order:
        assert pg[lo] < pg[hi]


def test_assign_with_handpicked_numbering(contrast_table, contrast_skeleton):
    aut = assign_priorities(contrast_skeleton, contrast_table, HANDPICKED_NUMBERING)
    pri = {(s, c): p for s, c, p in aut.priorities}
    assert pri[("m1", "c")] == 5
    assert pri[("m1", "a")] == pri[("m2", "a")] == 2
    assert pri[("m2", "b")] == pri[("m2", "c")] == 4
    assert pri[("m1", "b")] == 1


def test_assign_with_greedy_numbering_recovers_original(contrast_table, contrast_skeleton):
    aut = assign_priorities(
        contrast_skeleton, contrast_table, linear_extension(contrast_table)
    )
    assert {(s, c): p for s, c, p in aut.priorities} == CONTRAST_PRIORITIES


def test_assign_rejects_transient_transitions_by_default(ab_prefix_condition):
    sk = ab_prefix_condition.automaton.skeleton
    table = build_cycle_preorder(sk, ab_prefix_condition)
    pg = linear_extension(table)
    with pytest.raises(TransientTransitionError):
        assign_priorities(sk, table, pg)
    aut = assign_priorities(sk, table, pg, allow_transient=True)
    assert verify_synthesis(aut, ab_prefix_condition, samples=300).passed


# -- verification ------------------------------------------------------------------


def test_verify_accepts_original_automaton(contrast_automaton, contrast_muller):
    report = verify_synthesis(contrast_automaton, contrast_muller, samples=500)
    assert report.passed
    assert report.supports_checked == 22


def test_verify_flags_mutated_priority(contrast_automaton, contrast_muller):
    mutated = ParityAutomaton.make(
        contrast_automaton.skeleton,
        {**{(s, c): p for s, c, p in contrast_automaton.priorities}, ("m1", "c"): 2},
    )
    report = verify_synthesis(mutated, contrast_muller, samples=200)
    assert not report.passed
    assert report.support_mismatch["support"] == [["m1", "c"]]
    # the witness re-verifies: even maximal priority yet a losing cycle
    assert report.support_mismatch["max_priority"] % 2 == 0
    assert lasso_value(contrast_muller, Lasso.make([], ["c"])) == "lose"


def _random_dpa(rng: random.Random) -> DpaCondition:
    """A DPA over {a, b} with 2 to 4 states, all reachable, priorities 0-3."""
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    upd = {(s, c): rng.choice(states) for s in states for c in "ab"}
    reach, work = {"q0"}, ["q0"]
    while work:
        s = work.pop()
        for c in "ab":
            if upd[(s, c)] not in reach:
                reach.add(upd[(s, c)])
                work.append(upd[(s, c)])
    sk = Skeleton.make(sorted(reach), "q0", "ab", {k: v for k, v in upd.items() if k[0] in reach})
    pri = {(s, c): rng.randint(0, 3) for s, c, _ in sk.transitions}
    return DpaCondition(ParityAutomaton.make(sk, pri))


def _reference_support_mismatch(aut: ParityAutomaton, cond):
    # the first support, in the analysis' order, whose values are not the
    # parity of the max of its transitions' priorities
    sk = aut.skeleton
    analysis = SupportAnalysis(cond, sk)
    for sup, values in zip(analysis.supports, analysis.value_sets):
        rows = support_transitions(sk, sup)
        top = max(aut.priority(s, c) for s, c in rows)
        parity = "win" if top % 2 == 0 else "lose"
        if values != {parity}:
            oracle = "lose" if parity == "win" else "win"
            return {"support": [list(t) for t in rows], "max_priority": top, "oracle": oracle}
    return None


def test_support_mismatch_matches_reference_loop():
    # every +-1 priority mutation of synthesized automata for random DPAs
    # and for the discounted sum with lambda = 1/2, k = 2
    rng = random.Random(17)
    pairs = [(DiscountedSumCondition(Fraction(1, 2), 2), trivial_skeleton(range(-2, 3)))]
    pairs += [
        (_random_dpa(rng), rng.choice([trivial_skeleton("ab"), build_a_blind_skeleton()]))
        for _ in range(12)
    ]
    mismatches = Counter()
    synthesized = 0
    for cond, memory in pairs:
        try:
            aut = synthesize(cond, memory, samples=0, allow_transient=True).automaton
        except (PreconditionError, SynthesisStageError):
            continue
        synthesized += 1
        pri = {(s, c): p for s, c, p in aut.priorities}
        mutations = [pri] + [
            {**pri, t: pri[t] + d} for t in pri for d in (-1, 1) if pri[t] + d >= 0
        ]
        for mutation in mutations:
            mutated = ParityAutomaton.make(aut.skeleton, mutation)
            got = verify_synthesis(mutated, cond, samples=0).support_mismatch
            assert got == _reference_support_mismatch(mutated, cond)
            mismatches[got is None] += 1
    assert synthesized >= 5
    assert mismatches[True] > 10 and mismatches[False] > 20, mismatches


def _synthesized_mutations(cond, sk, transient) -> list:
    """The automaton synthesized for ``cond`` on ``sk`` and each of its
    one-step priority mutations."""
    aut = synthesize(cond, sk, allow_transient=transient).automaton
    pri = {(s, c): p for s, c, p in aut.priorities}
    return [
        ParityAutomaton.make(aut.skeleton, pri if t is None else {**pri, t: pri[t] + 1})
        for t in [None, *pri]
    ]


@pytest.mark.parametrize(
    "name", ["gen-buchi-switch", "ab-prefix", "contrast-table", "ds-half-k2", "one-state-ab-prefix"]
)
def test_verify_lasso_witness_matches_reference_loop(name):
    # for each automaton, the first sampled lasso mismatch and the lasso
    # count agree with a reference loop over the same seeded lassos.  The
    # walk runs on the skeleton whose runs the support analysis valued.  In
    # the synthesized automata and their one-step priority mutations the
    # condition's automaton (one state for gen-buchi, four for ab-prefix,
    # two for the contrast table) has its state fixed by the automaton's,
    # so that skeleton is the automaton's own.  In the one-state automata
    # over {a, b}, with every pair of priorities in 0..2, the 4-state
    # ab-prefix automaton's state is not fixed, so it is the lift
    if name == "one-state-ab-prefix":
        cond = DpaCondition(build_ab_prefix_automaton())
        automata = [
            ParityAutomaton.make(trivial_skeleton("ab"), {("m0", "a"): pa, ("m0", "b"): pb})
            for pa, pb in itertools.product(range(3), repeat=2)
        ]
    else:
        cond, sk, transient = {
            "gen-buchi-switch": (build_gen_buchi(), build_switch_skeleton(), False),
            "ab-prefix": (DpaCondition(build_ab_prefix_automaton()), trivial_skeleton("ab"), True),
            "contrast-table": (build_contrast_muller(), trivial_skeleton("abc"), False),
            "ds-half-k2": (DiscountedSumCondition(Fraction(1, 2), 2), trivial_skeleton(range(-2, 3)), True),
        }[name]
        automata = _synthesized_mutations(cond, sk, transient)
    for mutated in automata:
        lifted = SupportAnalysis(cond, mutated.skeleton)._lift is not None
        assert lifted == (name == "one-state-ab-prefix")
    found = 0
    for mutated in automata:
        report = verify_synthesis(mutated, cond, seed=3)
        rng = random.Random(3)
        want, checked = None, 0
        while want is None and checked < 1000:
            checked += 1
            lasso = random_lasso(rng, mutated.skeleton.alphabet)
            got = lasso_oracle.reference_value(DpaCondition(mutated), lasso)
            oracle = lasso_oracle.reference_value(cond, lasso)
            if got != oracle:
                want = {"prefix": list(lasso.prefix), "period": list(lasso.period),
                        "automaton": got, "oracle": oracle}
        assert (report.lasso_mismatch, report.lassos_checked) == (want, checked)
        found += want is not None
    assert found


@st.composite
def _rotation_skeletons(draw):
    """A skeleton of 1 to 6 states over 1 to 9 colors whose first color
    steps state ``j`` to ``j + 1`` modulo the states, so every state is
    reachable and a period of such steps closes only after several blocks;
    the other colors lead anywhere.  Transition ``i`` weighs ``1 << i``."""
    n_states = draw(st.integers(1, 6))
    alphabet = [f"c{i}" for i in range(draw(st.integers(1, 9)))]
    upd = {(j, alphabet[0]): (j + 1) % n_states for j in range(n_states)}
    for j in range(n_states):
        for c in alphabet[1:]:
            upd[j, c] = draw(st.integers(0, n_states - 1))
    return Skeleton.make(range(n_states), 0, alphabet, upd)


_ROTATION_6 = Skeleton.make(range(6), 0, ["c0", "c1"], {
    (j, c): (j + 1) % 6 for j in range(6) for c in ("c0", "c1")
})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**64), _rotation_skeletons())
@example(seed=0, sk=_ROTATION_6)  # periods of 1, 2, 4 or 5 colors need 3 or more blocks
def test_walk_lassos_walk_the_stream_of_random_lasso(seed, sk):
    # the same lassos, as indices and as colors, from the same stream: a
    # Python whose Random._randbelow draws differently fails here.  Each
    # lasso's OR of weights is that of the reference walker, also when the
    # first block of the period does not end where it began
    alphabet = sk.alphabet
    n = len(alphabet)
    weights = [1 << i for i in range(len(sk.transitions))]
    walk = _cycle_walker(sk, weights, alphabet)
    indices, colors, kernel = (random.Random(seed) for _ in range(3))
    drawn = []
    judge = lambda mask, prefix, period: drawn.append((mask, prefix, period)) or (0, 0)
    nxt, w, init = _walk_tables(sk, weights, alphabet)
    assert walk_lassos(kernel, nxt, w, init, alphabet, 40, judge) == (40, None)
    assert len(drawn) == 40
    for mask, prefix, period in drawn:
        assert random_lasso(indices, range(n)) == Lasso(tuple(prefix), tuple(period))
        assert random_lasso(colors, alphabet) == Lasso(
            tuple(alphabet[i] for i in prefix), tuple(alphabet[i] for i in period)
        )
        assert mask == walk(prefix, period)
    assert kernel.getstate() == indices.getstate() == colors.getstate()


def test_verify_trivial_all_win():
    sk = trivial_skeleton(("a",))
    aut = ParityAutomaton.make(sk, {("m0", "a"): 0})
    cond = MullerCondition.tabulate(sk, lambda sup: True)
    assert verify_synthesis(aut, cond, samples=50).passed


# -- end-to-end synthesis -------------------------------------------------------------


def test_synthesize_gen_buchi_on_switch(gen_buchi, switch_skeleton):
    result = synthesize(gen_buchi, switch_skeleton)
    assert len(result.automaton.skeleton.states) == 2
    assert result.verify.passed


def test_synthesized_gen_buchi_agrees_on_all_short_lassos(gen_buchi, switch_skeleton):
    # exhaustive agreement over every lasso of total length up to 6
    aut_cond = DpaCondition(synthesize(gen_buchi, switch_skeleton).automaton)
    alphabet = ("a", "b", "c")
    for total in range(1, 7):
        for letters in itertools.product(alphabet, repeat=total):
            for cut in range(total):
                lasso = Lasso.make(letters[:cut], letters[cut:])
                assert lasso_value(aut_cond, lasso) == lasso_value(gen_buchi, lasso)


def test_synthesize_ab_prefix(ab_prefix_condition):
    result = synthesize(
        ab_prefix_condition, trivial_skeleton(("a", "b")), allow_transient=True
    )
    assert len(result.automaton.skeleton.states) == 4
    assert result.verify.passed
    # exhaustive small-lasso agreement with the direct language description
    aut_cond = DpaCondition(result.automaton)
    alphabet = ("a", "b")
    for total in range(1, 6):
        for cut in range(total):
            for letters in itertools.product(alphabet, repeat=total):
                prefix, period = letters[:cut], letters[cut:]
                lasso = Lasso.make(prefix, period)
                word = (prefix + period * 8)[:8]
                expected = "win" if word[:2] == ("a", "b") else "lose"
                assert lasso_value(aut_cond, lasso) == expected
                assert lasso_value(ab_prefix_condition, lasso) == expected


def test_synthesize_ds_half_two(ds_half_two):
    result = synthesize(
        ds_half_two, trivial_skeleton(range(-2, 3)), allow_transient=True
    )
    sk = result.automaton.skeleton
    assert len(sk.states) == 6
    # all transitions at or into the sink class are odd, everything else even
    pri = {(s, c): p for s, c, p in result.automaton.priorities}
    for (s, c), p in pri.items():
        into_bot = s.startswith("bot") or sk.step(s, c).startswith("bot")
        assert (p % 2 == 1) == into_bot


# discounted sums below the frontier, k < 1/lambda - 1: the gap automaton
# has the states top, 0 and bot, or top alone when k = 0
THREE_CLASS = [("2/5", 0), ("2/5", 1), ("2/3", 0), ("3/4", 0), ("5/7", 0), ("2/7", 1), ("3/10", 1)]


@pytest.mark.parametrize("lam, k", THREE_CLASS)
def test_synthesize_and_verify_three_class_discounted_sums(lam, k):
    cond = DiscountedSumCondition(Fraction(lam), k)
    alphabet = list(range(-k, k + 1))
    for seed in range(6):
        rng = random.Random(f"{lam}:{k}:{seed}")
        states = [f"m{i}" for i in range(rng.randint(1, 2))]
        upd = {(s, c): rng.choice(states) for s in states for c in alphabet}
        upd["m0", alphabet[-1]] = states[-1]  # every state is reachable
        memory = Skeleton.make(states, "m0", alphabet, upd)
        result = synthesize(cond, memory, allow_transient=True)
        assert result.verify.passed, (lam, k, seed)
        again = verify_synthesis(result.automaton, cond, samples=2000, seed=seed + 1)
        assert again.passed and again.lassos_checked == 2000, (lam, k, seed)


def test_synthesize_contrast_muller(contrast_muller, contrast_skeleton):
    result = synthesize(contrast_muller, contrast_skeleton)
    assert result.verify.passed
    assert len(result.table.classes) == 4


def test_synthesize_requires_union_invariance():
    from skelparity.conditions import TotalPayoffCondition

    with pytest.raises(PreconditionError):
        synthesize(TotalPayoffCondition(), trivial_skeleton((-1, 1)))


def test_synthesize_propagates_stage_failures():
    # every state of (congruence automaton x skeleton) fixes its congruence
    # class, so the pipeline runs no prefix-independence stage; cycle
    # consistency is checked on that product itself, and its witness names
    # a state of it
    cond = MullerCondition.tabulate(
        trivial_skeleton(("a", "b")), lambda sup: {c for _, c in sup} == {"a", "b"}
    )
    m = trivial_skeleton(("a", "b"))
    with pytest.raises(SynthesisStageError) as exc:
        synthesize(cond, m)
    assert exc.value.stage == "cycle-consistency"
    assert exc.value.witness["state"] == "[ε]|m0"
    assert exc.value.witness["state"] in product(right_congruence_automaton(cond), m).states


def test_synthesize_builds_congruence_and_supports_once(
    monkeypatch, gen_buchi, switch_skeleton
):
    # one support analysis serves the consistency check, the classification
    # and the support-parity verification
    calls = Counter()
    for original in (right_congruence_automaton, enumerate_cycle_supports):

        def counting(*args, original=original, **kwargs):
            calls[original.__name__] += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "skelparity" or name.startswith("skelparity."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    result = synthesize(gen_buchi, switch_skeleton)
    assert result.verify.passed
    assert calls == {"right_congruence_automaton": 1, "enumerate_cycle_supports": 1}


# -- support-level laws on synthesized instances ---------------------------------------


def _synthesized_instances():
    yield synthesize(build_gen_buchi(), build_switch_skeleton())
    yield synthesize(build_contrast_muller(), build_contrast_skeleton())
    yield synthesize(
        DiscountedSumCondition(Fraction(1, 2), 1),
        trivial_skeleton(range(-1, 2)),
        allow_transient=True,
    )


@pytest.mark.parametrize("idx", range(3))
def test_max_priority_parity_law_exhaustive(idx):
    result = list(_synthesized_instances())[idx]
    aut = result.automaton
    for sup, value in result.table.supports:
        even = aut.max_support_priority(support_transitions(aut.skeleton, sup)) % 2 == 0
        assert even == (value == "win")


@pytest.mark.parametrize("idx", range(3))
def test_shared_state_same_value_unions(idx):
    result = list(_synthesized_instances())[idx]
    values = dict(result.table.supports)
    supports = list(values)
    rng = random.Random(idx)
    for _ in range(60):
        g1, g2 = rng.choice(supports), rng.choice(supports)
        if values[g1] != values[g2]:
            continue
        if not (states_on(result.base, g1) & states_on(result.base, g2)):
            continue
        assert values[g1 | g2] == values[g1]


def test_pipeline_on_random_automata():
    # round trip: a random automaton's language, given only through its
    # winning supports, resynthesizes into an automaton that verifies both
    # exhaustively and against the word oracle
    from skelparity.errors import CapExceeded

    done = 0
    seed = 0
    while done < 40:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        states = [f"q{i}" for i in range(n)]
        upd = {(s, c): rng.choice(states) for s in states for c in ("a", "b")}
        reach = {"q0"}
        work = ["q0"]
        while work:
            s = work.pop()
            for c in ("a", "b"):
                if upd[(s, c)] not in reach:
                    reach.add(upd[(s, c)])
                    work.append(upd[(s, c)])
        sk = Skeleton.make(
            sorted(reach), "q0", ("a", "b"),
            {k: v for k, v in upd.items() if k[0] in reach},
        )
        pri = {(s, c): rng.randint(0, 4) for s, c, _ in sk.transitions}
        cond = MullerCondition.tabulate(sk, lambda sup: max(pri[t] for t in sup) % 2 == 0)
        try:
            result = synthesize(
                cond, sk, samples=100, seed=seed, allow_transient=True, cap=2000
            )
        except CapExceeded:
            continue
        assert result.verify.passed, seed
        done += 1
