"""Skeleton-relative prefix-independence and cycle-consistency checks.

Both checks work on the product of the analyzed skeleton with the
condition's right-congruence automaton, so that the winning continuations
are constant per product state.  Failures come with small, independently
re-checkable witnesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .conditions import (
    Condition,
    Lasso,
    lasso_value,
    right_congruence_automaton,
    WIN,
)
from .errors import InputError, InternalConsistencyError
from .skeletons import (
    DEFAULT_SUPPORT_CAP,
    Color,
    Skeleton,
    State,
    Transition,
    closed_walk,
    enumerate_cycle_supports,
    product,
    sorted_support,
    support_key,
    support_states,
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


def _value_at(
    cond: Condition,
    prod: Skeleton,
    prefix_words: dict[State, tuple[Color, ...]],
    state: State,
    support: frozenset[Transition],
) -> str:
    walk = closed_walk(prod, support, anchor=state)
    return lasso_value(cond, Lasso.make(prefix_words[state], walk))


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
    prod = product(m, rc)
    prefix_words = shortest_words_to_states(prod)
    supports = enumerate_cycle_supports(prod, cap=cap)

    # Bitmask representation: the union of two supports through q is again a
    # support through q, so every union value is already tabulated and the
    # pairwise scan is pure integer work.
    transitions = [(s, c) for s, c, _ in prod.transitions]
    bit = {t: 1 << i for i, t in enumerate(transitions)}
    mask_of = {g: sum(bit[t] for t in g) for g in supports}
    from_mask = {mask_of[g]: g for g in supports}

    for q in prod.states:
        through = [
            mask_of[g]
            for g in sorted(supports, key=support_key)
            if q in support_states(g)
        ]
        values = [
            _value_at(cond, prod, prefix_words, q, from_mask[mask])
            for mask in through
        ]
        pair = _first_union_flip(through, values, len(transitions))
        if pair is not None:
            i, j = pair
            g1, g2 = from_mask[through[i]], from_mask[through[j]]
            union_value = values[through.index(through[i] | through[j])]
            return ConsistencyReport(
                verdict="fail",
                witness={
                    "kind": "support-pair",
                    "state": q,
                    "support1": [list(t) for t in sorted_support(g1)],
                    "support2": [list(t) for t in sorted_support(g2)],
                    "family_value": values[i],
                    "union_value": union_value,
                },
                details={"supports": len(supports)},
            )
    return ConsistencyReport(verdict="pass", details={"supports": len(supports)})


def _first_union_flip(through: list, values: list, n_bits: int):
    """Index pair (i, j), canonical order, whose same-value union flips value.

    ``through`` must contain every support mask through the state, so every
    union mask indexes back into it.
    """
    if not through:
        return None
    if n_bits <= 22:
        table = np.full(1 << n_bits, 2, dtype=np.uint8)
        masks = np.array(through, dtype=np.int64)
        codes = np.array([0 if v == WIN else 1 for v in values], dtype=np.uint8)
        table[masks] = codes
        for i in range(len(through)):
            row = masks[i] | masks[i + 1 :]
            same = codes[i + 1 :] == codes[i]
            bad = same & (table[row] != codes[i])
            if bad.any():
                return i, i + 1 + int(np.argmax(bad))
        return None
    value_of = dict(zip(through, values))
    for i, m1 in enumerate(through):
        v1 = values[i]
        for j in range(i + 1, len(through)):
            if values[j] == v1 and value_of[m1 | through[j]] != v1:
                return i, j
    return None


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
