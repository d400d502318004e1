"""Skeleton-relative prefix-independence and cycle-consistency checks.

Both checks work on the product of the analyzed skeleton with the
condition's right-congruence automaton, so that the winning continuations
are constant per product state.  Failures come with small, independently
re-checkable witnesses.

:class:`SupportAnalysis` is the one support analysis per (condition,
skeleton): it enumerates the cycle supports once and reads the value set
of each off the condition's own automaton, with no closed walk and no word
oracle.  The cycle-consistency check reads it, and so do support
classification and the support-parity verification of
:mod:`skelparity.synthesis`; synthesis builds it directly on
(right-congruence automaton x skeleton), whose states already fix their
congruence class, so it needs neither a prefix-independence stage nor a
second product with the congruence automaton.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .conditions import (
    LOSE,
    WIN,
    Condition,
    Lasso,
    right_congruence_automaton,
    support_automaton,
)
from .errors import InputError, InternalConsistencyError, cap_stage
from .skeletons import (
    DEFAULT_SUPPORT_CAP,
    Color,
    Skeleton,
    State,
    SupportIndex,
    _pair_step,
    bfs,
    bit_indices,
    closed_walk,
    color_key,
    enumerate_cycle_supports,
    lift,
    mask_map,
    out_masks,
    pair_words,
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


def check_prefix_independence(
    cond: Condition, m: Skeleton, cap: int = DEFAULT_SUPPORT_CAP
) -> ConsistencyReport:
    """Do all finite words reaching the same state of ``m`` share their
    winning continuations?

    Implemented as a breadth-first search of the product of ``m`` with the
    right-congruence automaton that stops at the first state of ``m`` found
    paired with two distinct congruence classes; the two shortest witness
    prefixes are then rebuilt from the parent of each pair.
    """
    rc = right_congruence_automaton(cond, cap=cap)
    parent: dict[tuple[State, State], tuple] = {}
    first_pair: dict[State, tuple[State, State]] = {}

    def word(pair) -> list[Color]:
        colors = []
        while parent[pair][0] is not None:
            pair, c = parent[pair]
            colors.append(c)
        return colors[::-1]

    for pair, before, c in bfs((m.init, rc.init), m.alphabet, _pair_step(m, rc)):
        parent[pair] = (before, c)
        first = first_pair.setdefault(pair[0], pair)
        if first != pair:
            return ConsistencyReport(
                verdict="fail",
                witness={
                    "kind": "prefix-pair",
                    "state": pair[0],
                    "w1": word(first),
                    "w2": word(pair),
                },
                details={"congruence_states": len(rc.states)},
            )
    return ConsistencyReport(
        verdict="pass", details={"congruence_states": len(rc.states)}
    )


class SupportAnalysis:
    """The cycle supports of one skeleton and their values under one condition.

    The value set of a support is the set of values of the words whose run
    on the skeleton repeats exactly that support.  It is read off the
    condition's own automaton ``D`` (:func:`support_automaton`), with no
    walk and no word oracle.  When the state of ``D`` is a function of the
    skeleton state, checked by one breadth-first search of (skeleton x
    ``D``), a support has one value: that of its projection onto ``D``.
    Otherwise the supports of the lift ``L`` = (skeleton x ``D``) are
    enumerated and valued; their projections onto the skeleton are exactly
    its supports, and a support projected from lifted supports of both
    values has both.  Supports are masks in canonical order.
    """

    def __init__(self, cond: Condition, sk: Skeleton, cap: int = DEFAULT_SUPPORT_CAP):
        self.skeleton = sk
        aut, weights, value_of = support_automaton(cond, cap)
        value = functools.cache(value_of)
        extra = set(sk.alphabet) - set(aut.alphabet)
        if extra:
            raise InputError(
                f"color {min(extra, key=color_key)!r} not in the condition's alphabet"
            )
        pairs = [p for p, _, _ in bfs((sk.init, aut.init), sk.alphabet, _pair_step(sk, aut))]
        d_weight = {(s, c): x for (s, c, _), x in zip(aut.transitions, weights)}
        d_of = dict(pairs)
        if len(d_of) == len(pairs):
            with cap_stage("cycle-supports"):
                self.supports = enumerate_cycle_supports(sk, cap=cap)
            to_d = mask_map([d_weight[d_of[s], c] for s, c, _ in sk.transitions])
            self.value_sets = [frozenset((value(to_d(g)),)) for g in self.supports]
            self._lift = None
        else:
            lifted_sk, pair_of = lift(sk, aut, pairs)
            with cap_stage("lifted-supports"):
                lifted = enumerate_cycle_supports(lifted_sk, cap=cap)
            a_bit = {(s, c): 1 << i for i, (s, c, _) in enumerate(sk.transitions)}
            to_a = mask_map([a_bit[pair_of[s][0], c] for s, c, _ in lifted_sk.transitions])
            to_d = mask_map([d_weight[pair_of[s][1], c] for s, c, _ in lifted_sk.transitions])
            # support mask -> {value: index of its first lifted support of that value}
            first: dict[int, dict[str, int]] = {}
            for j, h in enumerate(lifted):
                first.setdefault(to_a(h), {}).setdefault(value(to_d(h)), j)
            self.supports = sorted(first, key=lambda g: (g.bit_count(), tuple(bit_indices(g))))
            self.value_sets = [frozenset(first[g]) for g in self.supports]
            self._lift = (lifted_sk, lifted, first, pair_of, aut)

    @functools.cached_property
    def index(self) -> SupportIndex:
        """The transposed index of :attr:`supports`, built on first use."""
        return SupportIndex(self.supports, len(self.skeleton.transitions))

    def classified(self) -> list[tuple[int, str]]:
        """Each support mask, in canonical order, with its one value."""
        return [(g, v) for g, (v,) in zip(self.supports, self.value_sets)]

    def lassos(self, i: int) -> dict[str, Lasso]:
        """For a support of several values, one lasso per value whose run
        on the skeleton repeats exactly that support: a shortest prefix to
        the least state of the first lifted support of that value, then a
        closed walk covering it.  The prefixes come from :func:`pair_words`,
        built here, as only a support of two values needs them."""
        lifted_sk, lifted, first, pair_of, aut = self._lift
        words = pair_words(self.skeleton, aut)
        out = {}
        for v, j in first[self.supports[i]].items():
            h = lifted[j]
            anchor = lifted_sk.transitions[(h & -h).bit_length() - 1][0]
            out[v] = Lasso.make(words[pair_of[anchor]], closed_walk(lifted_sk, h, anchor))
        return out

    def cycle_consistency(self) -> ConsistencyReport:
        """Does every support have one value, and are the winning and the
        losing supports through every state closed under union?  The
        canonically first support of two values is the witness, with a
        winning and a losing lasso; otherwise the first same-value pair, in
        state order and then canonical order, whose union flips value.

        The union-closure test reads :attr:`index`: the supports through a
        state are ``holding`` of the transitions leaving it, and
        :func:`_first_open_state` finds the first state that fails.  Only
        that state is scanned pairwise for the witness pair."""
        sk = self.skeleton
        details = {"supports": len(self.supports)}
        for i, values in enumerate(self.value_sets):
            if len(values) > 1:
                lassos = self.lassos(i)
                return ConsistencyReport(
                    verdict="fail",
                    witness={
                        "kind": "support-values",
                        "support": [list(t) for t in support_transitions(sk, self.supports[i])],
                        **{
                            key: {"prefix": list(lassos[v].prefix), "period": list(lassos[v].period)}
                            for key, v in (("winning", WIN), ("losing", LOSE))
                        },
                    },
                    details=details,
                )
        value_of = dict(self.classified())
        index = self.index
        leaving = list(out_masks(sk).items())
        win = sum(1 << k for k, g in enumerate(self.supports) if value_of[g] == WIN)
        p = _first_open_state(index, [out for _, out in leaving], win)
        if p is not None:
            q, out = leaving[p]
            masks = [self.supports[k] for k in bit_indices(index.holding(out))]
            values = [value_of[g] for g in masks]
            i, j = _first_pair(masks, values)
            return ConsistencyReport(
                verdict="fail",
                witness={
                    "kind": "support-pair",
                    "state": q,
                    "support1": [list(t) for t in support_transitions(sk, masks[i])],
                    "support2": [list(t) for t in support_transitions(sk, masks[j])],
                    "family_value": values[i],
                    "union_value": value_of[masks[i] | masks[j]],
                },
                details=details,
            )
        return ConsistencyReport(verdict="pass", details=details)


def check_cycle_consistency(
    cond: Condition, m: Skeleton, cap: int = DEFAULT_SUPPORT_CAP
) -> ConsistencyReport:
    """Does every cycle support have one value, and are the winning and the
    losing cycle families on every state closed under union?

    Works on the product with the right-congruence automaton; the values
    of its supports are read off the condition's own automaton by
    :class:`SupportAnalysis`.  A support of two values fails first, with a
    winning and a losing lasso as the witness.  Cycle values depend on
    transition sets alone, so closure under pairwise unions is equivalent
    to consistency of arbitrary infinite concatenations.  The gap search
    and :func:`support_automaton` decide which conditions are accepted:
    they refuse infinite-index discounted sums and mean and total payoff.
    """
    rc = right_congruence_automaton(cond, cap=cap)
    return SupportAnalysis(cond, product(m, rc), cap=cap).cycle_consistency()


def _first_open_state(index: SupportIndex, leaving: list, win: int):
    """The least ``q`` whose winning or losing supports through it are not
    closed under union, or None.

    ``leaving[q]`` is the mask of the transitions leaving state ``q``, so
    the supports through it are ``index.holding(leaving[q])``, and ``win``
    is the bitset of the winning supports.  The supports of one value
    through ``q`` are closed under union iff no support ``u`` of the other
    value through ``q`` is the union of those inside it: pairwise closure
    gives closure under every finite union, and a pair whose union leaves
    the family makes that union such a ``u``.  Each ``u`` reads the
    opposite-value supports inside it once, as ``~not_inside(u)``; those
    through ``q`` have union ``u`` iff they hit ``col[t]`` for every
    transition ``t`` of ``u``.  If ``u`` fails at some state, all of them
    hit every ``col[t]`` too, and that one test, which stops at the first
    ``col[t]`` they miss, rules out most ``u`` before any state is tested;
    the list of the ``col[t]`` is built only for the ``u`` that pass it.
    Only states below the least failing one found so far are tested.
    """
    col = index.col
    lose = index.everyone ^ win
    first = len(leaving)
    for u, g in enumerate(index.supports):
        inside = (lose if win >> u & 1 else win) & ~index.not_inside(u)
        if not inside:
            continue
        if not all(map(inside.__and__, map(col.__getitem__, bit_indices(g)))):
            continue
        cols = [col[t] for t in bit_indices(g)]
        for q in range(first):
            if g & leaving[q] and all(map((inside & index.holding(leaving[q])).__and__, cols)):
                first = q
                break
    return first if first < len(leaving) else None


def _first_pair(through: list, values: list) -> tuple[int, int]:
    """The canonically first index pair of same-value masks of ``through``
    whose union has the other value; there must be one."""
    value_of = dict(zip(through, values))
    for i, m1 in enumerate(through):
        v1 = values[i]
        for j in range(i + 1, len(through)):
            if values[j] == v1 and value_of[m1 | through[j]] != v1:
                return i, j
    raise InternalConsistencyError("a union leaves its family but no pair flips")


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
