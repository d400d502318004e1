"""Skeleton-relative prefix-independence and cycle-consistency checks.

Both checks work on the product of the analyzed skeleton with the
condition's right-congruence automaton, so that the winning continuations
are constant per product state.  Failures come with small, independently
re-checkable witnesses.

:class:`SupportAnalysis` is the one support analysis per (condition,
skeleton): it enumerates the cycle supports once and values each (state,
support) pair at most once.  The cycle-consistency check reads it, and so
do support classification and the support-parity verification of
:mod:`skelparity.synthesis`; synthesis builds it directly on
(right-congruence automaton x skeleton), whose states already fix their
congruence class, so it needs neither a prefix-independence stage nor a
second product with the congruence automaton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .conditions import (
    Condition,
    Lasso,
    lasso_value,
    right_congruence_automaton,
)
from .errors import InputError, InternalConsistencyError
from .skeletons import (
    DEFAULT_SUPPORT_CAP,
    Color,
    Skeleton,
    State,
    closed_walk,
    enumerate_cycle_supports,
    out_masks,
    product,
    support_transitions,
)


@dataclass(frozen=True)
class ConsistencyReport:
    verdict: str  # "pass" | "fail"
    witness: Optional[dict] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == "fail" and self.witness is None:
            raise InputError("failing reports must carry a witness")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def shortest_words_to_states(sk: Skeleton) -> dict[State, tuple[Color, ...]]:
    """Shortest (then lexicographically least) word reaching each state."""
    words: dict[State, tuple[Color, ...]] = {sk.init: ()}
    queue = deque([sk.init])
    while queue:
        s = queue.popleft()
        for c in sk.alphabet:
            t = sk.step(s, c)
            if t not in words:
                words[t] = words[s] + (c,)
                queue.append(t)
    return words


def check_prefix_independence(
    cond: Condition, m: Skeleton, cap: int = DEFAULT_SUPPORT_CAP
) -> ConsistencyReport:
    """Do all finite words reaching the same state of ``m`` share their
    winning continuations?

    Implemented as a breadth-first search of the product of ``m`` with the
    right-congruence automaton; a state of ``m`` paired with two distinct
    congruence classes yields two shortest witness prefixes.
    """
    rc = right_congruence_automaton(cond, cap=cap)
    seen: dict[tuple[State, State], tuple[Color, ...]] = {}
    first_class: dict[State, tuple[State, tuple[Color, ...]]] = {}
    start = (m.init, rc.init)
    seen[start] = ()
    first_class[m.init] = (rc.init, ())
    queue = deque([start])
    while queue:
        s, cls = queue.popleft()
        word = seen[(s, cls)]
        for c in m.alphabet:
            t = (m.step(s, c), rc.step(cls, c))
            if t in seen:
                continue
            w2 = word + (c,)
            seen[t] = w2
            ts, tcls = t
            if ts not in first_class:
                first_class[ts] = (tcls, w2)
            elif first_class[ts][0] != tcls:
                w1 = first_class[ts][1]
                return ConsistencyReport(
                    verdict="fail",
                    witness={
                        "kind": "prefix-pair",
                        "state": ts,
                        "w1": list(w1),
                        "w2": list(w2),
                    },
                    details={"congruence_states": len(rc.states)},
                )
            queue.append(t)
    return ConsistencyReport(
        verdict="pass", details={"congruence_states": len(rc.states)}
    )


class SupportAnalysis:
    """The cycle supports of one skeleton and their values under one condition.

    Meant for a skeleton each of whose states fixes the condition's
    right-congruence class (a product with the right-congruence automaton,
    or a skeleton that passed the prefix-independence check), so that every
    state has well-defined winning continuations.  Holds the shortest
    prefix word of each state, the support masks in canonical order, and
    the indices of the supports through each state.  The value of a support
    at a state comes from the word oracle on the prefix of the state
    followed by a closed walk anchored there; each (state, support) value is
    computed at most once.
    """

    def __init__(self, cond: Condition, sk: Skeleton, cap: int = DEFAULT_SUPPORT_CAP):
        self.cond = cond
        self.skeleton = sk
        self.prefix_words = shortest_words_to_states(sk)
        self.supports = enumerate_cycle_supports(sk, cap=cap)
        # the union of two supports through q is again a support through q,
        # so every such union indexes back into the supports
        self.index_of_mask = {mask: i for i, mask in enumerate(self.supports)}
        self.through: dict[State, list[int]] = {}
        for q, leaving in out_masks(sk).items():
            self.through[q] = [i for i, g in enumerate(self.supports) if g & leaving]
        self._values: dict[tuple[State, int], str] = {}

    def value(self, state: State, i: int) -> str:
        """Value of support ``i`` anchored at ``state``, a state on it."""
        key = (state, i)
        if key not in self._values:
            walk = closed_walk(self.skeleton, self.supports[i], anchor=state)
            self._values[key] = lasso_value(
                self.cond, Lasso.make(self.prefix_words[state], walk)
            )
        return self._values[key]

    def least_state_values(self) -> list[tuple[int, str]]:
        """Each support mask, in canonical order, with its value at its
        least state, the source of its lowest transition."""
        trans = self.skeleton.transitions
        return [
            (g, self.value(trans[(g & -g).bit_length() - 1][0], i))
            for i, g in enumerate(self.supports)
        ]

    def cycle_consistency(self) -> ConsistencyReport:
        """Are the winning and the losing supports through every state
        closed under union?  The first same-value pair, in state order and
        then canonical order, whose union flips value is the witness."""
        sk = self.skeleton
        for q in sk.states:
            through = self.through[q]
            masks = [self.supports[i] for i in through]
            values = [self.value(q, i) for i in through]
            pair = _first_union_flip(masks, values)
            if pair is not None:
                i, j = pair
                union = self.index_of_mask[masks[i] | masks[j]]
                return ConsistencyReport(
                    verdict="fail",
                    witness={
                        "kind": "support-pair",
                        "state": q,
                        "support1": [list(t) for t in support_transitions(sk, masks[i])],
                        "support2": [list(t) for t in support_transitions(sk, masks[j])],
                        "family_value": values[i],
                        "union_value": self.value(q, union),
                    },
                    details={"supports": len(self.supports)},
                )
        return ConsistencyReport(
            verdict="pass", details={"supports": len(self.supports)}
        )


def check_cycle_consistency(
    cond: Condition, m: Skeleton, cap: int = DEFAULT_SUPPORT_CAP
) -> ConsistencyReport:
    """Are the winning and the losing cycle families on every state closed
    under union?

    Works on the product with the right-congruence automaton so cycle values
    are well defined per state; values are established through the word
    oracle, anchored at the state under scrutiny.  For union-invariant
    conditions, closure under pairwise unions is equivalent to consistency
    of arbitrary infinite concatenations.
    """
    if not cond.union_invariant:
        raise InputError(
            "cycle-consistency check unsupported for conditions whose cycle "
            "values are not determined by transition sets; use the dedicated "
            "demonstrations instead"
        )
    rc = right_congruence_automaton(cond, cap=cap)
    return SupportAnalysis(cond, product(m, rc), cap=cap).cycle_consistency()


def _first_union_flip(through: list, values: list):
    """Index pair (i, j), canonical order, whose same-value union flips value.

    ``through`` must contain every support mask through the state, so every
    union mask indexes back into it.  The family of masks of one value is
    closed under union iff no mask ``u`` of the other value equals the union
    of the family's masks inside ``u``: pairwise closure gives closure under
    every finite union, and a pair whose union leaves the family makes that
    union such a ``u``.  The test keeps, per transition, a bitset of the
    family members containing it, so each ``u`` costs one pass over the
    transitions; only a failing family is scanned pairwise for the first
    pair.
    """
    if not any(
        _union_leaves_family(
            [m for m, v in zip(through, values) if v == value],
            [m for m, v in zip(through, values) if v != value],
        )
        for value in set(values)
    ):
        return None
    value_of = dict(zip(through, values))
    for i, m1 in enumerate(through):
        v1 = values[i]
        for j in range(i + 1, len(through)):
            if values[j] == v1 and value_of[m1 | through[j]] != v1:
                return i, j
    raise InternalConsistencyError("a union leaves its family but no pair flips")


def _union_leaves_family(family: list, others: list) -> bool:
    """Does some mask of ``others`` equal the union of the masks of
    ``family`` that it contains?"""
    covered = 0
    for m in family:
        covered |= m
    columns = []  # (transition bit, bitset of the family members holding it)
    bit = 1
    while bit <= covered:
        if covered & bit:
            columns.append((bit, sum(1 << k for k, m in enumerate(family) if m & bit)))
        bit <<= 1
    everyone = (1 << len(family)) - 1
    for u in others:
        if u & ~covered:
            continue
        outside = 0
        for b, members in columns:
            if not u & b:
                outside |= members
        inside = everyone & ~outside
        if all(inside & members for b, members in columns if u & b):
            return True
    return False


def mp_counterexample_report(n_max: int) -> ConsistencyReport:
    """Exact demonstration that the mean-payoff threshold condition is not
    cycle-consistent for any skeleton.

    Uses the word family ``w_n = 1^n (-1)^(n+1)``: each ``(w_n)^omega`` has
    mean payoff ``-1/(2n+1) < 0`` (a losing cycle wherever it loops), yet the
    concatenation ``w_0 w_1 w_2 ...`` keeps returning to running sum 0 at
    position ``n^2 + n``, so its limsup average is 0 and the word wins.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    rows = []
    for n in range(n_max + 1):
        period = (1,) * n + (-1,) * (n + 1)
        mp = Fraction(sum(period), len(period))
        expected = Fraction(-1, 2 * n + 1)
        if mp != expected:
            raise InputError(f"mean payoff mismatch at n={n}")
        rows.append({"n": n, "period_length": len(period), "mean_payoff": str(mp)})

    word: list[int] = []
    for n in range(n_max + 1):
        word += [1] * n + [-1] * (n + 1)
    running = 0
    zero_positions = set()
    for i, c in enumerate(word, start=1):
        running += c
        if running == 0:
            zero_positions.add(i)
    checked = []
    for n in range(1, n_max + 1):
        pos = n * n + n
        if pos not in zero_positions:
            raise InternalConsistencyError(
                f"mean-payoff counterexample does not verify: running sum "
                f"not zero at position {pos}"
            )
        checked.append(pos)

    return ConsistencyReport(
        verdict="fail",
        witness={
            "kind": "word-family",
            "family": "w_n = 1^n (-1)^(n+1)",
            "losing_periods_verified": n_max + 1,
            "zero_positions": checked,
            "statement": (
                "every (w_n)^omega is losing, but the concatenation "
                "w_0 w_1 w_2 ... attains mean payoff 0 and wins"
            ),
        },
        details={"table": rows},
    )
