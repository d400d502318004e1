"""Skeletons, products, cycle supports, color abstraction."""

import itertools
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import or_

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from skelparity import (
    ParityAutomaton,
    Skeleton,
    color_abstraction,
    enumerate_cycle_supports,
    product,
    trivial_skeleton,
)
from skelparity.discounting import gap_automaton
from skelparity.errors import CapExceeded, InputError
from skelparity.skeletons import (
    bfs_words,
    closed_walk,
    cut_cycles,
    lift,
    mask_map,
    pair_words,
    support_transitions,
)

from conftest import build_colliding_pair, build_contrast_skeleton, build_switch_skeleton
from preorder_oracle import support_key
from support_oracle import reference_cycle_supports

ABC = ("a", "b", "c")


def _random_skeleton(rng, alphabet=("a", "b"), max_states=4) -> Skeleton:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    upd = {(s, c): rng.choice(states) for s in states for c in alphabet}
    reach = {"q0"}
    frontier = ["q0"]
    while frontier:
        s = frontier.pop()
        for c in alphabet:
            t = upd[(s, c)]
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    return Skeleton.make(
        sorted(reach), "q0", alphabet, {k: v for k, v in upd.items() if k[0] in reach}
    )


@st.composite
def skeletons(draw, alphabet=("a", "b"), max_states=4):
    import random

    seed = draw(st.integers(0, 10**9))
    return _random_skeleton(random.Random(seed), alphabet, max_states)


# -- construction and runs ----------------------------------------------------


def test_rejects_partial_update_map():
    with pytest.raises(InputError):
        Skeleton.make(["q"], "q", ["a", "b"], {("q", "a"): "q"})


def test_rejects_unreachable_states():
    with pytest.raises(InputError):
        Skeleton.make(
            ["q", "r"], "q", ["a"], {("q", "a"): "q", ("r", "a"): "r"}
        )


def test_run_three_letters(switch_skeleton):
    assert switch_skeleton.run(["a", "c", "b"]) == ["init", "init", "init", "m2"]


def test_run_empty_word(switch_skeleton):
    assert switch_skeleton.run([]) == ["init"]


def test_run_rejects_unknown_color(switch_skeleton):
    with pytest.raises(InputError):
        switch_skeleton.run(["a", "z"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(skeletons(), st.lists(st.sampled_from(["a", "b"]), max_size=6), st.lists(st.sampled_from(["a", "b"]), max_size=6))
def test_run_prefix_compositionality(sk, u, v):
    full = sk.run(u + v)
    head = sk.run(u)
    assert full[: len(u) + 1] == head
    assert sk.run(v, start=head[-1]) == full[len(u):]


# -- products -----------------------------------------------------------------


def test_product_with_trivial_is_isomorphic(switch_skeleton):
    assert product(switch_skeleton, trivial_skeleton(ABC)).isomorphic(switch_skeleton)


def test_product_with_self_stays_diagonal(switch_skeleton):
    assert product(switch_skeleton, switch_skeleton).isomorphic(switch_skeleton)


def test_product_alphabet_mismatch(switch_skeleton):
    with pytest.raises(InputError):
        product(switch_skeleton, trivial_skeleton(["a", "b"]))


def test_product_reachable_part(ab_prefix_automaton, a_blind_skeleton):
    # brute-force oracle: breadth-first over explicit state pairs
    left = ab_prefix_automaton.skeleton
    right = a_blind_skeleton
    pairs = {(left.init, right.init)}
    frontier = [(left.init, right.init)]
    while frontier:
        s1, s2 = frontier.pop()
        for c in left.alphabet:
            t = (left.step(s1, c), right.step(s2, c))
            if t not in pairs:
                pairs.add(t)
                frontier.append(t)
    prod = product(left, right)
    assert len(prod.states) == len(pairs) == 5
    expected = {f"{a}|{b}" for a, b in pairs}
    assert set(prod.states) == expected
    assert "[ε]|init" in expected and "[ab]|m2" in expected


def test_product_rejects_colliding_pair_names():
    with pytest.raises(InputError, match=r"\('a', 'b\|c'\) and \('a\|b', 'c'\)"):
        product(*build_colliding_pair())


@settings(max_examples=20, deadline=None, derandomize=True)
@given(skeletons(max_states=3), skeletons(max_states=3), skeletons(max_states=2))
def test_product_associative_up_to_isomorphism(m1, m2, m3):
    assert product(product(m1, m2), m3).isomorphic(product(m1, product(m2, m3)))


# -- breadth-first search -----------------------------------------------------


def _least_shortest_words(sk: Skeleton) -> dict:
    """Brute force: every word of length < |states| in order of length, then
    lexicographically in alphabet order; the first to reach a state is its
    least shortest word."""
    words = {}
    for n in range(len(sk.states)):
        for word in itertools.product(sk.alphabet, repeat=n):
            words.setdefault(sk.run_end(word), word)
    return words


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda k: skeletons(alphabet=ABC[:k], max_states=5)))
@example(build_switch_skeleton())
def test_bfs_words_are_least_shortest_words_in_discovery_order(sk):
    words = bfs_words(sk.init, sk.alphabet, sk.step)
    assert words == _least_shortest_words(sk)
    rank = {c: i for i, c in enumerate(sk.alphabet)}
    assert list(words) == sorted(words, key=lambda s: (len(words[s]), [rank[c] for c in words[s]]))


def test_long_chain_reachability_holds_no_words():
    # the reachability checks of construction and canonical_form search
    # without words, so a chain costs linear memory, not quadratic
    n = 5000
    states = [f"s{i}" for i in range(n)]
    upd = {(states[i], "a"): states[min(i + 1, n - 1)] for i in range(n)}
    tracemalloc.start()
    try:
        sk = Skeleton.make(states, states[0], ["a"], upd)
        _, table = sk.canonical_form()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == n
    assert peak < 30_000_000


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            skeletons(alphabet=ABC[:k], max_states=5), skeletons(alphabet=ABC[:k], max_states=5)
        )
    )
)
def test_pair_words_and_lift_match_product(pair):
    m1, m2 = pair
    words = pair_words(m1, m2)
    prod = product(m1, m2)
    assert set(words) == {tuple(s.split("|")) for s in prod.states}
    for (a, b), w in words.items():
        assert (m1.run_end(w), m2.run_end(w)) == (a, b)
    lifted, pair_of = lift(m1, m2, words)
    assert lifted.isomorphic(prod)
    assert lifted.init == "l0"
    assert list(pair_of.values()) == list(words)


# -- cycle supports -----------------------------------------------------------


def _oracle_supports(sk):
    """Exhaustive subset filter with an independent connectivity test."""
    transitions = [(s, c) for s, c, _ in sk.transitions]

    def strongly_connected(subset):
        verts = {s for s, _ in subset} | {sk.step(s, c) for s, c in subset}
        start = next(iter(verts))
        succ = {v: set() for v in verts}
        pred = {v: set() for v in verts}
        for s, c in subset:
            succ[s].add(sk.step(s, c))
            pred[sk.step(s, c)].add(s)

        def sweep(adj):
            seen = {start}
            work = [start]
            while work:
                v = work.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        work.append(w)
            return seen

        return sweep(succ) == verts and sweep(pred) == verts

    out = set()
    for r in range(1, len(transitions) + 1):
        for combo in itertools.combinations(transitions, r):
            if strongly_connected(combo):
                out.add(frozenset(combo))
    return out


def _decoded(sk, masks) -> list:
    return [frozenset(support_transitions(sk, g)) for g in masks]


def walk_transitions(m, start, word) -> frozenset:
    """Transition set traversed when reading ``word`` from ``start``."""
    out = set()
    s = start
    for c in word:
        out.add((s, c))
        s = m.step(s, c)
    return frozenset(out)


def test_supports_of_switch_skeleton(switch_skeleton):
    got = _decoded(switch_skeleton, enumerate_cycle_supports(switch_skeleton))
    assert len(got) == 22
    assert set(got) == _oracle_supports(switch_skeleton)
    assert got == sorted(got, key=support_key)


def test_supports_single_self_loop():
    sk = trivial_skeleton(["a"])
    assert enumerate_cycle_supports(sk) == [1]
    assert _decoded(sk, [1]) == [frozenset({("m0", "a")})]


def test_supports_of_contrast_skeleton(contrast_skeleton):
    got = set(_decoded(contrast_skeleton, enumerate_cycle_supports(contrast_skeleton)))
    for expected in (
        {("m1", "b")},
        {("m1", "c")},
        {("m2", "b")},
        {("m2", "c")},
        {("m1", "a"), ("m2", "a")},
    ):
        assert frozenset(expected) in got
    assert got == _oracle_supports(contrast_skeleton)


def test_supports_cap_is_enforced(switch_skeleton):
    with pytest.raises(CapExceeded):
        enumerate_cycle_supports(switch_skeleton, cap=5)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(skeletons(max_states=3))
def test_supports_match_oracle_and_admit_covering_walks(sk):
    masks = enumerate_cycle_supports(sk)
    got = _decoded(sk, masks)
    assert set(got) == _oracle_supports(sk)
    assert got == sorted(got, key=support_key)
    for mask, sup in zip(masks, got):
        anchor = min(s for s, _ in sup)
        walk = closed_walk(sk, mask, anchor=anchor)
        assert walk_transitions(sk, anchor, walk) == sup
        assert sk.run_end(walk, start=anchor) == anchor


def _chain(n: int) -> Skeleton:
    """States q0 .. q(n-1): ``a`` steps to the next one, cyclically, and
    ``b`` steps back three, stopping at q0."""
    states = [f"q{i}" for i in range(n)]
    upd = {}
    for i, s in enumerate(states):
        upd[(s, "a")] = states[(i + 1) % n]
        upd[(s, "b")] = states[max(0, i - 3)]
    return Skeleton.make(states, "q0", "ab", upd)


def _gadgets(k: int) -> Skeleton:
    """k three-state gadgets x -a-> y -a-> z -a-> x, with ``b`` a loop on x,
    a step back from z to y, and a step from y to the next gadget's x (a
    loop on the last y): 3k states, and supports only inside gadgets."""
    states = [f"q{i}" for i in range(3 * k)]
    upd = {}
    for j in range(k):
        x, y, z = states[3 * j : 3 * j + 3]
        upd.update({(x, "a"): y, (y, "a"): z, (z, "a"): x, (x, "b"): x, (z, "b"): y})
        upd[(y, "b")] = states[3 * j + 3] if j + 1 < k else y
    return Skeleton.make(states, "q0", "ab", upd)


def _ab(targets: str) -> Skeleton:
    """States p, q, r, ... over {a, b}: the i-th state steps by ``a`` to
    ``targets[2 * i]`` and by ``b`` to ``targets[2 * i + 1]``."""
    states = "pqrs"[: len(targets) // 2]
    upd = {(s, c): targets[2 * i + j] for i, s in enumerate(states) for j, c in enumerate("ab")}
    return Skeleton.make(list(states), "p", "ab", upd)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda k: skeletons(alphabet=ABC[:k], max_states=5)))
@example(build_switch_skeleton())
@example(build_contrast_skeleton())
@example(gap_automaton(Fraction(1, 2), 2).skeleton)
@example(_chain(9))  # 9 states: the enumerator's state maps read two half tables
@example(_gadgets(6))  # 18 states: they read one table per byte
# the three outcomes of an exclude: p -a-> q and p -b-> q are parallel, so
# excluding one leaves q reached by the other
@example(_ab("qqpp"))
# with p -a-> q included, excluding the only way back q -a-> p splits two
# endpoints of included transitions, and the branch dies with no reach
@example(_ab("qppq"))
# with the loop p -a-> p included, excluding p -b-> q splits off q, which
# no included transition touches: the component is recomputed as {p}
@example(_ab("pqpp"))
# with p -a-> p and p -b-> r included, excluding q -a-> p splits off q,
# whose target p is touched but not q: the component is recomputed as {p, r}
@example(_ab("prpqqp"))
def test_supports_match_reference_enumerator_in_order(sk):
    assert enumerate_cycle_supports(sk) == reference_cycle_supports(sk)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from([(0, 0), (1, 8), (9, 16), (17, 40)])
    .flatmap(lambda r: st.integers(*r))
    .flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 2**130), min_size=n, max_size=n),
            st.lists(st.integers(0, 2**n - 1), max_size=20),
        )
    )
)
def test_mask_map_is_the_or_of_the_images(case):
    images, masks = case
    image_of = mask_map(images)
    for mask in [0, 2 ** len(images) - 1, *masks]:
        want = 0
        for i, image in enumerate(images):
            if mask >> i & 1:
                want |= image
        assert image_of(mask) == want


@st.composite
def _weighted_graphs(draw):
    """(n, arcs, allowed, need): at most 8 arcs ``(u, v, weight)`` on the
    nodes ``0 .. n-1``, n <= 4, with weights and masks of 2 or 3 bits;
    ``allowed`` is every bit half of the time, and ``need`` lies in it."""
    n = draw(st.integers(1, 4))
    every = (1 << draw(st.integers(2, 3))) - 1
    weight = st.integers(0, every)
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, weight), max_size=8))
    allowed = every if draw(st.booleans()) else draw(weight)
    return n, arcs, allowed, draw(weight) & allowed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_weighted_graphs())
# a cycle whose root learns its low link only from its last node
@example((3, [(0, 1, 1), (1, 2, 2), (2, 0, 1)], 3, 3))
def test_cut_cycles_is_the_union_of_strongly_connected_arc_sets(case):
    # brute force: every nonempty set of arcs inside ``allowed`` that is
    # strongly connected and whose weights OR to a superset of ``need``
    n, arcs, allowed, need = case
    inside = [a for a in arcs if not a[2] & ~allowed]
    want = set()
    for r in range(1, len(inside) + 1):
        for chosen in itertools.combinations(inside, r):
            graph = nx.DiGraph([a[:2] for a in chosen])
            ored = reduce(or_, (a[2] for a in chosen))
            if ored & need == need and nx.is_strongly_connected(graph):
                want.update(graph)
    assert cut_cycles(n, arcs, allowed, need) == want


def test_supports_cap_boundary(switch_skeleton):
    n = len(enumerate_cycle_supports(switch_skeleton))
    assert len(enumerate_cycle_supports(switch_skeleton, cap=n)) == n
    with pytest.raises(CapExceeded):
        enumerate_cycle_supports(switch_skeleton, cap=n - 1)


# -- color abstraction --------------------------------------------------------


def test_abstraction_keeps_contrasting_colors_apart(contrast_automaton):
    result = color_abstraction(contrast_automaton)
    assert result["classes"] == [["a"], ["b"], ["c"]]


def test_abstraction_merges_duplicated_color():
    sk = Skeleton.make(
        ["q", "r"],
        "q",
        ["a", "b", "b2"],
        {
            ("q", "a"): "r",
            ("q", "b"): "q",
            ("q", "b2"): "q",
            ("r", "a"): "q",
            ("r", "b"): "r",
            ("r", "b2"): "r",
        },
    )
    aut = ParityAutomaton.make(
        sk, {(s, c): (1 if c == "a" else 0) for s, c, _ in sk.transitions}
    )
    result = color_abstraction(aut)
    assert ["b", "b2"] in result["classes"]
    assert result["representative"]["b2"] == "b"


def test_abstraction_identity_on_gap_automaton():
    ga = gap_automaton(Fraction(1, 2), 2)
    aut = ParityAutomaton.make(
        ga.skeleton,
        {
            (s, c): (1 if "bot" in (s, ga.skeleton.step(s, c)) else 0)
            for s, c, _ in ga.skeleton.transitions
        },
    )
    result = color_abstraction(aut)
    assert all(len(cls) == 1 for cls in result["classes"])


def test_abstraction_preserves_lasso_acceptance():
    # replacing every color by its class representative never changes the
    # verdict of the automaton on ultimately periodic words
    import random

    from skelparity import DpaCondition, Lasso, lasso_value

    sk = Skeleton.make(
        ["q", "r"],
        "q",
        ["a", "b", "b2"],
        {
            ("q", "a"): "r",
            ("q", "b"): "q",
            ("q", "b2"): "q",
            ("r", "a"): "q",
            ("r", "b"): "r",
            ("r", "b2"): "r",
        },
    )
    aut = ParityAutomaton.make(
        sk, {(s, c): (1 if c == "a" else 0) for s, c, _ in sk.transitions}
    )
    rep = color_abstraction(aut)["representative"]
    cond = DpaCondition(aut)
    rng = random.Random(11)
    for _ in range(200):
        prefix = tuple(rng.choice(sk.alphabet) for _ in range(rng.randint(0, 5)))
        period = tuple(rng.choice(sk.alphabet) for _ in range(rng.randint(1, 5)))
        mapped = Lasso(
            tuple(rep[c] for c in prefix), tuple(rep[c] for c in period)
        )
        assert lasso_value(cond, Lasso(prefix, period)) == lasso_value(cond, mapped)
