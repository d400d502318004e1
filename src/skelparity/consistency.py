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
    Skeleton,
    State,
    SupportIndex,
    bfs,
    bit_indices,
    closed_walk,
    enumerate_cycle_supports,
    mask_map,
    out_masks,
    pair_product,
    pair_search,
    product,
    product_skeleton,
    support_transitions,
    word_to,
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

    Implemented as the search of the product of ``m`` with the
    right-congruence automaton (:func:`pair_search`) that stops at the
    first state of ``m`` found paired with two distinct congruence classes.
    It records each pair's (parent, color), and :func:`word_to` reads back
    the two witness prefixes, the shortest words reaching the two pairs.
    """
    rc = right_congruence_automaton(cond, cap=cap)
    parent: dict[tuple[State, State], tuple] = {}
    first_pair: dict[State, tuple[State, State]] = {}
    for pair, before, c in pair_search(m, rc):
        parent[pair] = (before, c)
        first = first_pair.setdefault(pair[0], pair)
        if first != pair:
            return ConsistencyReport(
                verdict="fail",
                witness={
                    "kind": "prefix-pair",
                    "state": pair[0],
                    "w1": word_to(parent, first),
                    "w2": word_to(parent, pair),
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
    walk and no word oracle, on the product of the skeleton and ``D``
    built once by :func:`pair_product`.  When the state of ``D`` is a
    function of the skeleton state (the product has as many states as the
    skeleton), a support has one value: that of its projection onto ``D``.
    Otherwise the supports of the lift ``L``, the product named ``l0, l1,
    ...``, are enumerated and valued; their projections onto the skeleton
    are exactly its supports, and a support projected from lifted supports
    of both values has both.  Supports are masks in canonical order.

    It keeps ``D``'s cached :attr:`value` and the product, which
    verification walks: cell ``x`` leads to pair ``succ[x]`` by the
    skeleton's transition ``images[x]``, of weight ``d_weights[x]`` in ``D``.
    The pairs are of state indices, so in the layout of the integer form
    (:attr:`~skelparity.skeletons.Skeleton.targets`) cell ``k * n + c`` of
    pair ``(a, d)`` is the skeleton's transition ``a * n + c`` and ``D``'s
    transition ``d * n + c``, ``n`` colors.
    """

    def __init__(self, cond: Condition, sk: Skeleton, cap: int = DEFAULT_SUPPORT_CAP):
        self.skeleton = sk
        aut, weights, value_of = support_automaton(cond, cap)
        self.value = value = functools.cache(value_of)
        pairs, self.succ = pair_product(sk, aut)
        n = len(sk.alphabet)
        self.images = [a * n + c for a, _ in pairs for c in range(n)]
        self.d_weights = [weights[d * n + c] for _, d in pairs for c in range(n)]
        if len(pairs) == len(sk.states):
            with cap_stage("cycle-supports"):
                self.supports = enumerate_cycle_supports(sk, cap=cap)
            # each skeleton transition is the image of one cell
            to_d = mask_map([d for _, d in sorted(zip(self.images, self.d_weights))])
            self.value_sets = [frozenset((value(to_d(g)),)) for g in self.supports]
            self._lift = None
        else:
            names = [f"l{k}" for k in range(len(pairs))]
            lifted_sk = product_skeleton(sk.alphabet, names, self.succ)
            with cap_stage("lifted-supports"):
                lifted = enumerate_cycle_supports(lifted_sk, cap=cap)
            # the lift's states are its names sorted, l0, l1, l10, ...
            order = sorted(range(len(names)), key=names.__getitem__)
            cells = [k * n + c for k in order for c in range(n)]
            to_a = mask_map([1 << self.images[x] for x in cells])
            to_d = mask_map([self.d_weights[x] for x in cells])
            # support mask -> {value: index of its first lifted support of that value}
            first: dict[int, dict[str, int]] = {}
            for j, h in enumerate(lifted):
                first.setdefault(to_a(h), {}).setdefault(value(to_d(h)), j)
            self.supports = sorted(first, key=lambda g: (g.bit_count(), tuple(bit_indices(g))))
            self.value_sets = [frozenset(first[g]) for g in self.supports]
            self._lift = (lifted_sk, lifted, first)

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
        closed walk covering it.  The prefixes are read with :func:`word_to`
        off one :func:`bfs` of the lift, searched here, as only a support of
        two values needs them."""
        lifted_sk, lifted, first = self._lift
        found = bfs(lifted_sk.init, self.skeleton.alphabet, lifted_sk.step)
        parents = {node: (parent, c) for node, parent, c in found}
        out = {}
        for v, j in first[self.supports[i]].items():
            h = lifted[j]
            anchor = lifted_sk.transitions[(h & -h).bit_length() - 1][0]
            out[v] = Lasso.make(word_to(parents, anchor), closed_walk(lifted_sk, h, anchor))
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
        leaving = out_masks(sk)
        win = sum(1 << k for k, g in enumerate(self.supports) if value_of[g] == WIN)
        p = _first_open_state(index, leaving, win)
        if p is not None:
            masks = [self.supports[k] for k in bit_indices(index.holding(leaving[p]))]
            values = [value_of[g] for g in masks]
            i, j = _first_pair(masks, values)
            return ConsistencyReport(
                verdict="fail",
                witness={
                    "kind": "support-pair",
                    "state": sk.states[p],
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
    checked = []
    # the running sum of w_0 w_1 ... and the length of the blocks before
    # w_n, kept block by block: the word itself is never built
    running = start = 0
    for n in range(n_max + 1):
        period = (1,) * n + (-1,) * (n + 1)
        mp = Fraction(sum(period), len(period))
        expected = Fraction(-1, 2 * n + 1)
        if mp != expected:
            raise InputError(f"mean payoff mismatch at n={n}")
        rows.append({"n": n, "period_length": len(period), "mean_payoff": str(mp)})
        pos = n * n + n  # inside w_n, which starts after position start
        if n:
            if running + sum(period[: pos - start]) != 0:
                raise InternalConsistencyError(
                    f"mean-payoff counterexample does not verify: running sum "
                    f"not zero at position {pos}"
                )
            checked.append(pos)
        running += sum(period)
        start += len(period)

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
