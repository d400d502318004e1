"""Shared fixtures: the small machines used across the suite.

Plain ``build_*`` functions construct the objects; fixtures wrap them so
hypothesis-driven tests can use the builders directly.
"""

from fractions import Fraction

import pytest

from skelparity import (
    DiscountedSumCondition,
    DpaCondition,
    MullerCondition,
    ParityAutomaton,
    Skeleton,
    sees_all_colors_condition,
    trivial_skeleton,
)
from skelparity.skeletons import support_label, support_transitions

ABC = ("a", "b", "c")


def build_switch_skeleton() -> Skeleton:
    """Two states over {a,b,c}: b moves right, a moves back, c stays put."""
    return Skeleton.make(
        ["init", "m2"],
        "init",
        ABC,
        {
            ("init", "a"): "init",
            ("init", "c"): "init",
            ("init", "b"): "m2",
            ("m2", "b"): "m2",
            ("m2", "c"): "m2",
            ("m2", "a"): "init",
        },
    )


def build_gen_buchi() -> MullerCondition:
    """Sees both a and b infinitely often (alphabet {a,b,c})."""
    return sees_all_colors_condition(ABC, ["a", "b"])


def build_ab_prefix_automaton() -> ParityAutomaton:
    """Automaton for the words starting with 'ab', on the four-class skeleton."""
    sk = Skeleton.make(
        ["[ε]", "[a]", "[ab]", "[b]"],
        "[ε]",
        ["a", "b"],
        {
            ("[ε]", "a"): "[a]",
            ("[ε]", "b"): "[b]",
            ("[a]", "a"): "[b]",
            ("[a]", "b"): "[ab]",
            ("[ab]", "a"): "[ab]",
            ("[ab]", "b"): "[ab]",
            ("[b]", "a"): "[b]",
            ("[b]", "b"): "[b]",
        },
    )
    pri = {
        ("[ε]", "a"): 1,
        ("[ε]", "b"): 1,
        ("[a]", "a"): 1,
        ("[a]", "b"): 0,
        ("[ab]", "a"): 0,
        ("[ab]", "b"): 0,
        ("[b]", "a"): 1,
        ("[b]", "b"): 1,
    }
    return ParityAutomaton.make(sk, pri)


def build_a_blind_skeleton() -> Skeleton:
    """Two states over {a,b} that ignore a at the initial state."""
    return Skeleton.make(
        ["init", "m2"],
        "init",
        ["a", "b"],
        {
            ("init", "a"): "init",
            ("init", "b"): "m2",
            ("m2", "a"): "m2",
            ("m2", "b"): "m2",
        },
    )


def build_colliding_pair() -> tuple[Skeleton, Skeleton]:
    """Skeletons whose reachable pairs (a, b|c) and (a|b, c) share a name."""
    m1 = Skeleton.make(
        ["a", "a|b"],
        "a",
        ["x", "y"],
        {("a", "x"): "a|b", ("a", "y"): "a", ("a|b", "x"): "a", ("a|b", "y"): "a|b"},
    )
    m2 = Skeleton.make(
        ["c", "b|c"],
        "b|c",
        ["x", "y"],
        {("b|c", "x"): "c", ("b|c", "y"): "b|c", ("c", "x"): "b|c", ("c", "y"): "c"},
    )
    return m1, m2


CONTRAST_PRIORITIES = {
    ("m1", "a"): 2,
    ("m1", "b"): 1,
    ("m1", "c"): 3,
    ("m2", "a"): 2,
    ("m2", "b"): 0,
    ("m2", "c"): 0,
}


def build_contrast_skeleton() -> Skeleton:
    """Two states over {a,b,c}: a swaps sides, b and c self-loop."""
    return Skeleton.make(
        ["m1", "m2"],
        "m1",
        ABC,
        {
            ("m1", "a"): "m2",
            ("m1", "b"): "m1",
            ("m1", "c"): "m1",
            ("m2", "a"): "m1",
            ("m2", "b"): "m2",
            ("m2", "c"): "m2",
        },
    )


def build_contrast_automaton() -> ParityAutomaton:
    """The skeleton above with priorities contrasting the two self-loop pairs."""
    return ParityAutomaton.make(build_contrast_skeleton(), CONTRAST_PRIORITIES)


def build_contrast_muller() -> MullerCondition:
    """The same language given by its winning supports instead of priorities."""
    return MullerCondition.tabulate(
        build_contrast_skeleton(), lambda sup: max(CONTRAST_PRIORITIES[t] for t in sup) % 2 == 0
    )


def build_two_valued_dpa() -> DpaCondition:
    """A DPA over {a, b} that loses (ab)^omega and (abb)^omega but wins
    (aab)^omega: on the one-state skeleton, the support {a, b} has both
    values."""
    sk = Skeleton.make(
        ["r0", "r1", "r2", "r3"],
        "r0",
        ["a", "b"],
        {
            ("r0", "a"): "r2", ("r0", "b"): "r0", ("r1", "a"): "r1", ("r1", "b"): "r0",
            ("r2", "a"): "r0", ("r2", "b"): "r3", ("r3", "a"): "r1", ("r3", "b"): "r0",
        },
    )
    pri = {
        ("r0", "a"): 1, ("r0", "b"): 1, ("r1", "a"): 2, ("r1", "b"): 1,
        ("r2", "a"): 2, ("r2", "b"): 1, ("r3", "a"): 0, ("r3", "b"): 1,
    }
    return DpaCondition(ParityAutomaton.make(sk, pri))


def mask_of(sk: Skeleton, transitions) -> int:
    """The support mask of a set of transitions of ``sk``."""
    bit = {(s, c): 1 << i for i, (s, c, _) in enumerate(sk.transitions)}
    return sum(bit[t] for t in transitions)


def states_on(sk: Skeleton, mask: int) -> set:
    """The states a support mask passes through."""
    return {s for s, _ in support_transitions(sk, mask)}


def contrast_label(transitions) -> str:
    """The class-id label of a support of the contrast skeleton."""
    sk = build_contrast_skeleton()
    return support_label(sk, mask_of(sk, transitions))


@pytest.fixture
def switch_skeleton() -> Skeleton:
    return build_switch_skeleton()


@pytest.fixture
def gen_buchi() -> MullerCondition:
    return build_gen_buchi()


@pytest.fixture
def ab_prefix_automaton() -> ParityAutomaton:
    return build_ab_prefix_automaton()


@pytest.fixture
def ab_prefix_condition(ab_prefix_automaton) -> DpaCondition:
    return DpaCondition(ab_prefix_automaton)


@pytest.fixture
def a_blind_skeleton() -> Skeleton:
    return build_a_blind_skeleton()


@pytest.fixture
def contrast_skeleton() -> Skeleton:
    return build_contrast_skeleton()


@pytest.fixture
def contrast_automaton() -> ParityAutomaton:
    return build_contrast_automaton()


@pytest.fixture
def contrast_muller() -> MullerCondition:
    return build_contrast_muller()


@pytest.fixture
def ds_half_two() -> DiscountedSumCondition:
    return DiscountedSumCondition(Fraction(1, 2), 2)


@pytest.fixture
def trivial_abc() -> Skeleton:
    return trivial_skeleton(ABC)
