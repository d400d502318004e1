"""Per-pair reference for comparing the residuals of Muller condition states.

For one pair (q1, q2) it builds the pair product of the condition's skeleton
with itself reachable from (q1, q2), enumerates every cycle support of it,
and values each side of each support by the condition's own table, looked
up by the mask of the side's projection.  Some word wins from q1 and loses
from q2 iff some support's q1 side wins and its q2 side loses.  One
enumeration per pair, so it is meant for skeletons of a few states.  Of the
library it uses the product and the public support enumerator (checked
against :mod:`support_oracle`), not the single pass over the square of the
automaton that it is the reference for.
"""

from functools import reduce
from operator import or_

from skelparity import MullerCondition, Skeleton
from skelparity.conditions import LOSE, WIN, _quotient_by_equivalence
from skelparity.skeletons import (
    DEFAULT_SUPPORT_CAP,
    bfs,
    enumerate_cycle_supports,
    lift,
    support_transitions,
)


def flags(cond: MullerCondition, q1, q2, cap: int = DEFAULT_SUPPORT_CAP) -> tuple[bool, bool]:
    """(some word wins from q1 and loses from q2, the converse)."""
    sk = cond.skeleton
    step = lambda p, c: (sk.step(p[0], c), sk.step(p[1], c))
    pairs = [p for p, _, _ in bfs((q1, q2), sk.alphabet, step)]
    pair, sides = lift(sk, sk, pairs)
    # two transitions of the pair may project onto one: their bits are OR'd
    bit = {(s, c): 1 << i for i, (s, c, _) in enumerate(sk.transitions)}
    table = cond.winning_supports
    flips = set()  # the q1-side values of the supports whose sides differ
    for mask in enumerate_cycle_supports(pair, cap):
        rows = support_transitions(pair, mask)
        v1, v2 = (
            WIN if reduce(or_, (bit[sides[s][side], c] for s, c in rows)) in table else LOSE
            for side in (0, 1)
        )
        if v1 != v2:
            flips.add(v1)
    return WIN in flips, LOSE in flips


def relation(cond: MullerCondition, q1, q2, cap: int = DEFAULT_SUPPORT_CAP) -> str:
    """``less``, ``greater``, ``equal`` or ``incomparable``, as
    :func:`skelparity.conditions.compare_states` names them."""
    win1_lose2, lose1_win2 = flags(cond, q1, q2, cap)
    if win1_lose2 and lose1_win2:
        return "incomparable"
    if win1_lose2:
        return "greater"
    if lose1_win2:
        return "less"
    return "equal"


def rc_automaton(cond: MullerCondition, cap: int = DEFAULT_SUPPORT_CAP) -> Skeleton:
    """The right-congruence automaton, quotiented pair by pair."""
    return _quotient_by_equivalence(
        cond.skeleton, lambda a, b: relation(cond, a, b, cap) == "equal"
    )
