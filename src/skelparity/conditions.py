"""Winning conditions and their word-level oracles.

A condition is a set of infinite color words.  Concrete families supported
here: languages of deterministic parity automata, Muller conditions given
by a table of the winning cycle supports of a fixed skeleton, as int masks
over its transitions, discounted-sum threshold conditions over integer
colors, and mean-payoff / total-payoff threshold conditions.

Ultimately periodic words (finite prefix + non-empty period) are the finite
currency for evaluating conditions; all arithmetic is exact, rational or
integer, never floating point.  The residuals of parity, Muller and
finite-index discounted-sum conditions are compared through one relation
per condition, read off the square of its automaton
(:func:`residual_relation`) by the one SCC kernel
:func:`~skelparity.skeletons.cut_cycles`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (
    CapExceeded,
    InfiniteIndexError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    cap_stage,
)
from .skeletons import (
    DEFAULT_SUPPORT_CAP,
    Color,
    ParityAutomaton,
    Skeleton,
    State,
    Transition,
    arc_cycle_supports,
    bfs,
    bit_indices,
    cut_cycles,
    enumerate_cycle_supports,
    mask_map,
    support_transitions,
    trivial_skeleton,
    word_to,
)

WIN = "win"
LOSE = "lose"


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic word ``prefix . period^omega``."""

    prefix: tuple[Color, ...]
    period: tuple[Color, ...]

    def __post_init__(self):
        if not self.period:
            raise InputError("lasso period must be non-empty")

    @classmethod
    def make(cls, prefix: Iterable[Color], period: Iterable[Color]) -> "Lasso":
        return cls(tuple(prefix), tuple(period))


# ---------------------------------------------------------------------------
# condition specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpaCondition:
    """The language of a deterministic parity automaton."""

    automaton: ParityAutomaton

    @property
    def alphabet(self):
        return self.automaton.skeleton.alphabet


@dataclass(frozen=True)
class MullerCondition:
    """Membership decided by the set of skeleton transitions seen infinitely often.

    ``winning_supports`` is the table of the winning cycle supports of
    ``skeleton``, as masks over its transitions (bit ``i`` is
    ``skeleton.transitions[i]``); every other support loses.
    """

    skeleton: Skeleton
    winning_supports: frozenset[int]

    def __post_init__(self):
        # a set of transitions never equals a mask, so it would never win
        if not all(type(g) is int for g in self.winning_supports):
            raise InputError("winning supports are int masks over the skeleton's transitions")

    @classmethod
    def tabulate(cls, sk: Skeleton, wins: Callable, cap: int = DEFAULT_SUPPORT_CAP):
        """The table of the cycle supports of ``sk`` whose transition sets
        ``wins`` accepts, asked once per support; raises
        :class:`CapExceeded` when ``sk`` has more than ``cap`` supports."""
        supports = enumerate_cycle_supports(sk, cap)
        return cls(sk, frozenset(g for g in supports if wins(frozenset(support_transitions(sk, g)))))

    @property
    def alphabet(self):
        return self.skeleton.alphabet


def sees_all_colors_condition(alphabet: Iterable[Color], needed: Iterable[Color]) -> MullerCondition:
    """Words that see every color of ``needed`` infinitely often."""
    need = frozenset(needed)
    return MullerCondition.tabulate(
        trivial_skeleton(alphabet), lambda sup: need <= {c for _, c in sup}
    )


@dataclass(frozen=True)
class DiscountedSumCondition:
    """Words whose discounted sum with factor ``lam`` is >= 0; colors are
    the integers in [-k, k].

    The one place that decides what a pair (lambda, k) allows: building
    the condition is the only check of ``0 < lambda < 1`` and ``k >= 0``
    behind every entry point that takes both, and :attr:`finite_index` the
    only test of whether the gap automaton exists.
    """

    lam: Fraction
    k: int

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise InputError("discount factor must satisfy 0 < lambda < 1")
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError(f"k must be an integer, got {self.k!r}")
        if self.k < 0:
            raise InputError("k must be a natural number")

    @property
    def alphabet(self) -> range:
        return range(-self.k, self.k + 1)

    @property
    def finite_index(self) -> bool:
        """Whether the right congruence has finitely many classes: lambda =
        1/n (integer gaps), or k below :func:`ds_frontier` (three classes)."""
        return self.lam.numerator == 1 or self.k < ds_frontier(self.lam)

    @property
    def max_ds(self) -> Fraction:
        return Fraction(self.k) / (1 - self.lam)


@dataclass(frozen=True)
class MeanPayoffCondition:
    """Words whose limsup Cesaro average is >= 0; integer colors."""

    @property
    def alphabet(self):
        return None


@dataclass(frozen=True)
class TotalPayoffCondition:
    """Words whose limsup of partial sums is >= 0; integer colors."""

    @property
    def alphabet(self):
        return None


Condition = (
    DpaCondition
    | MullerCondition
    | DiscountedSumCondition
    | MeanPayoffCondition
    | TotalPayoffCondition
)


def _check_word(cond: Condition, word: Sequence[Color]):
    # a boolean would pass for 0 or 1: refused, as no skeleton takes one
    alpha = cond.alphabet
    if alpha is None:
        for c in word:
            if not isinstance(c, int) or isinstance(c, bool):
                raise InputError(f"color {c!r} is not an integer")
        return
    # a range, the discounted-sum colors, tests an int in constant time
    # but would scan itself for anything else
    ranged = isinstance(alpha, range)
    allowed = alpha if ranged else set(alpha)
    for c in word:
        if isinstance(c, bool) or ranged and not isinstance(c, int) or c not in allowed:
            raise InputError(f"color {c!r} not in the condition's alphabet")


# ---------------------------------------------------------------------------
# discounted sums and gaps
# ---------------------------------------------------------------------------


def discounted_sum(word: Sequence[int], lam: Fraction) -> Fraction:
    total = Fraction(0)
    power = Fraction(1)
    for c in word:
        total += power * c
        power *= lam
    return total


@dataclass(frozen=True)
class GapValue:
    """Residual class of a finite word under a discounted-sum condition."""

    kind: str  # "top" | "bot" | "finite"
    value: Fraction | None = None

    def __post_init__(self):
        if self.kind not in ("top", "bot", "finite"):
            raise InputError(f"bad gap kind {self.kind!r}")
        if (self.kind == "finite") != (self.value is not None):
            raise InputError("finite gaps carry a value, top/bot do not")

    @property
    def name(self) -> str:
        return str(self.value) if self.kind == "finite" else self.kind


GAP_TOP = GapValue("top")
GAP_BOT = GapValue("bot")


def finite_gap(q: Fraction | int) -> GapValue:
    return GapValue("finite", Fraction(q))


def _clamp_gap(raw: Fraction, max_ds: Fraction) -> GapValue:
    # Top is inclusive, Bot is strict-below: with the >= 0 threshold, a word
    # at gap exactly -max_ds still has one winning continuation.
    if raw >= max_ds:
        return GAP_TOP
    if raw < -max_ds:
        return GAP_BOT
    return finite_gap(raw)


def gap_step(g: GapValue, c: int, lam: Fraction, k: int) -> GapValue:
    """One-letter update ``gap(wc) = (gap(w) + c) / lam``; top/bot absorb."""
    if g.kind != "finite":
        return g
    if not isinstance(c, int) or isinstance(c, bool) or abs(c) > k:
        raise InputError(f"color {c!r} outside [-{k}, {k}]")
    return _clamp_gap((g.value + c) / lam, Fraction(k) / (1 - lam))


def gap(word: Sequence[int], lam: Fraction, k: int) -> GapValue:
    """Gap of a finite word, computed incrementally with absorbing clamps.

    The clamp applies to the empty word as well: with k = 0 every word sits
    at the inclusive top boundary already.
    """
    g = _clamp_gap(Fraction(0), DiscountedSumCondition(lam, k).max_ds)
    for c in word:
        g = gap_step(g, c, lam, k)
    return g


def ds_frontier(lam: Fraction) -> int:
    """``ceil(1/lam - 1)``, the regularity frontier of a discounted sum:
    with colors in [-k, k], a smaller ``k`` gives three gap classes, and a
    ``k`` at or above it finitely many integer gaps when lambda = 1/n and
    infinitely many values otherwise."""
    p, q = lam.numerator, lam.denominator
    return -(-(q - p) // p)


def _gap_bfs(cond: DiscountedSumCondition, cap: int) -> tuple[Skeleton, dict[State, GapValue]]:
    """Breadth-first exploration of the gaps reachable from the empty word
    under :func:`gap_step`; states are named by their gap.  The search ends
    only when finitely many gaps are reachable, so it refuses a condition
    without :attr:`~DiscountedSumCondition.finite_index` up front: this is
    the one place that raises :class:`InfiniteIndexError`.  Finding more
    than ``cap`` gaps raises :class:`CapExceeded` (stage ``gap-automaton``)."""
    lam, k = cond.lam, cond.k
    if not cond.finite_index:
        raise InfiniteIndexError(
            "the right congruence of this discounted-sum condition has "
            f"infinite index (lambda={lam} is not 1/n and k={k} >= ceil(1/lambda - 1)); "
            "no finite-state automaton exists"
        )
    alphabet = range(-k, k + 1)
    upd: dict[Transition, State] = {}

    def step(g: GapValue, c: int) -> GapValue:
        # each gap is stepped once per color, so the search records the map
        g2 = gap_step(g, c, lam, k)
        upd[(g.name, c)] = g2.name
        return g2

    names: dict[State, GapValue] = {}
    with cap_stage("gap-automaton"):
        for g, _, _ in bfs(gap((), lam, k), alphabet, step):
            names[g.name] = g
            if len(names) > cap:
                raise CapExceeded(f"gap search exceeded cap {cap}", cap)
    sk = Skeleton.make(names, next(iter(names)), alphabet, upd)
    return sk, names


# ---------------------------------------------------------------------------
# lasso evaluation
# ---------------------------------------------------------------------------


def _walk_tables(sk: Skeleton, weights: Sequence[int], alphabet: Sequence[Color]) -> tuple:
    """``(nxt, w, init)``: the flat tables that run ``sk`` on color indices
    into ``alphabet``, and its initial row.  State ``j`` is the row ``j *
    len(alphabet)``, so ``row + c`` is the cell of color index ``c``: ``nxt``
    holds the row it leads to and ``w`` the weight of its transition."""
    n = len(alphabet)
    row = {s: j * n for j, s in enumerate(sk.states)}
    cell = {(s, c): (row[t], x) for (s, c, t), x in zip(sk.transitions, weights)}
    nxt, w = zip(*(cell[s, c] for s in sk.states for c in alphabet))
    return nxt, w, row[sk.init]


def _close_cycle(nxt, w, period, s: int, starts: list, blocks: list) -> int:
    """The OR of ``w`` over the cycle that ``period`` repeats from row ``s``,
    given the start rows and the ORs of the blocks read before: the period
    is read block by block until a block starts where an earlier one did,
    and the cycle is the blocks from that one on (at most one per state)."""
    while s not in starts:
        starts.append(s)
        mask = 0
        for c in period:
            c += s
            mask |= w[c]
            s = nxt[c]
        blocks.append(mask)
    mask = 0
    for block in blocks[starts.index(s) :]:
        mask |= block
    return mask


def _cycle_walker(
    sk: Skeleton, weights: Sequence[int], alphabet: Sequence[Color]
) -> Callable[[Sequence[int], Sequence[int]], int]:
    """The walker of :func:`lasso_judge`: it runs ``sk`` on a lasso of color
    indices into ``alphabet`` and returns the OR of ``weights`` over the
    cycle it repeats, closed by :func:`_close_cycle` as in the sampler
    ``synthesis.walk_lassos`` of verification, which walks as it draws."""
    nxt, w, init = _walk_tables(sk, weights, alphabet)

    def walk(prefix, period):
        s = init
        for c in prefix:
            s = nxt[s + c]
        return _close_cycle(nxt, w, period, s, [], [])

    return walk


def lasso_judge(
    cond: Condition, alphabet: Sequence[Color]
) -> Callable[[Sequence[int], Sequence[int]], str]:
    """The value of ``prefix . period^omega`` as a function of (prefix,
    period) given as color indices into ``alphabet``, compiled once for the
    condition and the alphabet over int tables.  The colors are not checked
    (:func:`lasso_value` checks them).

    A parity or Muller judge walks the condition's automaton
    (:func:`_cycle_walker`) with the weights and the value of
    :func:`support_automaton`, asking the value once per OR of weights.
    A discounted sum with lambda = a/b, a prefix of length ``p`` and a
    period of length ``q`` wins iff ``P (b^q - a^q) + a^p D >= 0``, where
    ``P`` and ``D`` are the sums ``c_0 b^(n-1) + c_1 a b^(n-2) + ... +
    c_(n-1) a^(n-1)`` over the ``n`` colors ``c_i`` of the prefix and of
    the period, summed inline over the indices: that is the discounted sum
    times ``b^p (b^q - a^q) / b > 0``, in exact integers.  Mean and total
    payoff add the period colors.
    """
    if isinstance(cond, (DpaCondition, MullerCondition)):
        sk, weights, value = support_automaton(cond)
        walk = _cycle_walker(sk, weights, alphabet)
        value = functools.cache(value)
        return lambda prefix, period: value(walk(prefix, period))
    color = alphabet.__getitem__
    if isinstance(cond, DiscountedSumCondition):
        a, b = cond.lam.numerator, cond.lam.denominator

        def ds(prefix, period):
            p_sum, a_p = 0, 1
            for c in prefix:
                p_sum = p_sum * b + alphabet[c] * a_p
                a_p *= a
            d_sum, a_q = 0, 1
            for c in period:
                d_sum = d_sum * b + alphabet[c] * a_q
                a_q *= a
            return WIN if p_sum * (b ** len(period) - a_q) + a_p * d_sum >= 0 else LOSE

        return ds
    if isinstance(cond, MeanPayoffCondition):
        return lambda prefix, period: WIN if sum(map(color, period)) >= 0 else LOSE
    if isinstance(cond, TotalPayoffCondition):
        return lambda prefix, period: _total_payoff(
            list(map(color, prefix)), list(map(color, period))
        )
    raise InputError(f"unknown condition type {type(cond).__name__}")


def _total_payoff(prefix: Sequence[int], period: Sequence[int]) -> str:
    period_sum = sum(period)
    if period_sum > 0:
        return WIN
    if period_sum < 0:
        return LOSE
    best = None
    running = sum(prefix)
    for c in period:
        running += c
        best = running if best is None else max(best, running)
    return WIN if best >= 0 else LOSE


def lasso_value(cond: Condition, lasso: Lasso) -> str:
    """Win iff the infinite word ``prefix . period^omega`` is in the condition."""
    _check_word(cond, lasso.prefix)
    _check_word(cond, lasso.period)
    # payoff conditions take any integers: index the lasso's own colors
    alphabet = cond.alphabet or tuple(dict.fromkeys((*lasso.prefix, *lasso.period)))
    index = alphabet.index
    judge = lasso_judge(cond, alphabet)
    return judge(list(map(index, lasso.prefix)), list(map(index, lasso.period)))


def support_automaton(
    cond: Condition, cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[Skeleton, list[int], Callable[[int], str]]:
    """The condition's automaton ``D``, the weights of its transitions and
    the value of their ORs: the one valuation of transition sets.

    ``weights[i]`` is a one-bit weight of ``D.transitions[i]``.  A word is
    in the condition iff ``value`` of the OR of the weights of the support
    its run on ``D`` repeats (the transitions seen infinitely often) is
    ``win``.  For a Muller condition ``D`` is its skeleton and the weight
    is the transition's own bit, so an OR is a support mask, valued by a
    lookup in the table.  Every other such ``D`` is a parity automaton, and
    the weight is the bit of the priority's rank among the distinct
    priorities, so the highest bit of an OR is the rank of the top
    priority, whose parity is the value; the bits stay few however large
    the priorities are.  That is a DPA's own automaton, or a discounted
    sum's gap automaton (:func:`_gap_bfs`, which finds at most ``cap``
    gaps and refuses infinite index) with priority 1 on the transitions
    leaving bot and 0 elsewhere: a cycle at a finite gap sums to exactly 0
    and wins, a cycle at top wins and one at bot loses.  Other conditions
    have no such automaton and raise :class:`PreconditionError`.
    """
    if isinstance(cond, MullerCondition):
        sk, table = cond.skeleton, cond.winning_supports
        value = lambda mask: WIN if mask in table else LOSE
        return sk, [1 << i for i in range(len(sk.transitions))], value
    if isinstance(cond, DpaCondition):
        sk = cond.automaton.skeleton
        pri = [cond.automaton.priority(s, c) for s, c, _ in sk.transitions]
    elif isinstance(cond, DiscountedSumCondition):
        sk, gaps = _gap_bfs(cond, cap)
        pri = [int(gaps[s] == GAP_BOT) for s, _, _ in sk.transitions]
    else:
        raise PreconditionError(
            "no automaton values the cycle supports of this condition: cycle "
            "values depend on transition sets alone only for parity, Muller and "
            "discounted-sum conditions with a finite gap automaton"
        )
    levels = sorted(set(pri))
    bit = {p: 1 << r for r, p in enumerate(levels)}
    value = lambda mask: LOSE if levels[mask.bit_length() - 1] % 2 else WIN
    return sk, [bit[p] for p in pri], value


# ---------------------------------------------------------------------------
# residual comparison (exact, on the condition's automaton)
# ---------------------------------------------------------------------------


def residual_relation(
    cond: Condition, cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[Skeleton, frozenset[tuple[State, State]]]:
    """The condition's automaton ``D`` (:func:`support_automaton`, which
    takes ``cap``) and the pairs (q1, q2) of its states such that some word
    wins from q1 and loses from q2: the residual relation that
    :func:`compare_states`, :func:`residual_compare` and
    :func:`right_congruence_automaton` read.

    Such a word exists iff (q1, q2) reaches, in the square ``D x D`` whose
    edges carry the weights of both sides, side by side in one int, a
    cycle support whose left OR wins and whose right OR loses.  Every ``D``
    but a Muller skeleton is a parity automaton weighted by rank bits: for
    a winning rank bit ``x1`` and a losing one ``x2``, the components that
    :func:`cut_cycles` finds in the square cut to left weight <= x1 and
    right weight <= x2, with inner edges of left weight x1 and of right
    weight x2, hold such supports.  For Muller the supports of the square
    off its diagonal, where both sides agree, are enumerated once within
    ``cap``; a support's mirror marks the converse pairs.  One state has no
    pair off the diagonal, so its relation is empty.
    """
    sk, weights, value = support_automaton(cond, cap)
    states = sk.states
    n = len(states)
    if n == 1:
        return sk, frozenset()
    number = {s: i for i, s in enumerate(states)}
    moves: list[list[tuple[int, int]]] = [[] for _ in states]
    for (s, _, t), w in zip(sk.transitions, weights):
        moves[number[s]].append((number[t], w))
    # square edges (u, v, weight): node a*n + b is (a, b), and the weight
    # is the left one with the right one shifted above it
    shift = max(weights).bit_length()
    edges = [
        (a * n + b, ta * n + tb, wa | wb << shift)
        for a in range(n)
        for b in range(n)
        for (ta, wa), (tb, wb) in zip(moves[a], moves[b])
    ]
    good: set[int] = set()  # pairs on a support that wins left and loses right
    if not isinstance(cond, MullerCondition):
        ranks = [1 << r for r in range(shift)]
        for x1 in (x for x in ranks if value(x) == WIN):
            for x2 in (x for x in ranks if value(x) == LOSE):
                allowed = 2 * x1 - 1 | (2 * x2 - 1) << shift
                good |= cut_cycles(n * n, edges, allowed, x1 | x2 << shift)
    else:
        # the diagonal pairs are the nodes a * (n + 1)
        off = [e for e in edges if e[0] % (n + 1) and e[1] % (n + 1)]
        with cap_stage("right-congruence"):
            supports = arc_cycle_supports(n * n, [e[:2] for e in off], cap)
        both = mask_map([e[2] for e in off])
        nodes = mask_map([1 << e[0] for e in off])
        left = (1 << shift) - 1
        for mask in supports:
            w = both(mask)
            if value(w & left) == WIN and value(w >> shift) == LOSE:
                good.update(bit_indices(nodes(mask)))
    preds: list[list[int]] = [[] for _ in range(n * n)]
    for u, v, _ in edges:
        preds[v].append(u)
    stack = list(good)
    while stack:
        for u in preds[stack.pop()]:
            if u not in good:
                good.add(u)
                stack.append(u)
    return sk, frozenset((states[u // n], states[u % n]) for u in good)


# the relation of (q1, q2) by whether (q1, q2) and (q2, q1) are win-lose pairs
_VERDICT = {
    (False, False): "equal",
    (True, False): "greater",
    (False, True): "less",
    (True, True): "incomparable",
}


def compare_states(
    cond: Condition, q1: State, q2: State, cap: int = DEFAULT_SUPPORT_CAP
) -> str:
    """Exact comparison of the residual languages of two states of the
    condition's automaton, read off :func:`residual_relation`.

    ``cap`` bounds the support enumeration of Muller conditions and the gap
    search of discounted sums; parity conditions ignore it.
    """
    sk, win_lose = residual_relation(cond, cap)
    for q in (q1, q2):
        if q not in sk.states:
            raise InputError(f"unknown state {q!r}")
    return _VERDICT[(q1, q2) in win_lose, (q2, q1) in win_lose]


def residual_compare(
    cond: Condition, w1: Sequence[Color], w2: Sequence[Color], cap: int = DEFAULT_SUPPORT_CAP
) -> str:
    """Compare the winning continuations of two finite words.

    ``less`` means w1's continuations are a strict subset of w2's.  Decided
    exactly by :func:`residual_relation`, built once, on the states the
    words lead its automaton to; the relation refuses what it cannot build,
    and ``cap`` bounds it as in :func:`compare_states`.
    """
    _check_word(cond, w1)
    _check_word(cond, w2)
    sk, win_lose = residual_relation(cond, cap)
    q1, q2 = sk.run_end(w1), sk.run_end(w2)
    return _VERDICT[(q1, q2) in win_lose, (q2, q1) in win_lose]


# ---------------------------------------------------------------------------
# right-congruence automata
# ---------------------------------------------------------------------------


def _word_label(word: Sequence[Color]) -> str:
    if not word:
        return "[ε]"
    if all(isinstance(c, str) and len(c) == 1 for c in word):
        return "[" + "".join(word) + "]"
    return "[" + ",".join(str(c) for c in word) + "]"


def _quotient_by_equivalence(
    sk: Skeleton, equivalent: Callable[[State, State], bool]
) -> Skeleton:
    """Quotient of a skeleton by a residual-language equivalence on states,
    always a right congruence: one that is not is an internal fault.  Each
    class is labeled by its shortest word, the least in color order: the
    :func:`word_to` of one :func:`bfs` over the quotient."""
    states = list(sk.states)
    class_of: dict[State, int] = {}
    reps: list[State] = []
    for s in states:
        for i, r in enumerate(reps):
            if equivalent(s, r):
                class_of[s] = i
                break
        else:
            class_of[s] = len(reps)
            reps.append(s)
    for s in states:
        for c in sk.alphabet:
            a = class_of[sk.step(s, c)]
            b = class_of[sk.step(reps[class_of[s]], c)]
            if a != b:
                raise InternalConsistencyError(
                    "state equivalence is not a congruence; quotient undefined"
                )

    found = bfs(class_of[sk.init], sk.alphabet, lambda i, c: class_of[sk.step(reps[i], c)])
    parents = {cls: (parent, c) for cls, parent, c in found}
    labels = {cls: _word_label(word_to(parents, cls)) for cls in parents}
    upd = {
        (labels[class_of[r]], c): labels[class_of[sk.step(r, c)]]
        for r in reps
        for c in sk.alphabet
    }
    return Skeleton.make(list(labels.values()), labels[class_of[sk.init]], sk.alphabet, upd)


def right_congruence_automaton(
    cond: Condition, cap: int = DEFAULT_SUPPORT_CAP
) -> Skeleton:
    """Minimal-state automaton of the condition's right congruence.

    States are labeled by the class they denote: a shortest representative
    word for automaton-backed conditions, the gap value for discounted sums.
    A discounted sum's classes are its reachable gaps, at most ``cap``
    (:func:`_gap_bfs`, which refuses infinite index).  Any other condition
    is quotiented by :func:`residual_relation`, computed once, which
    refuses mean and total payoff; ``cap`` bounds its Muller enumeration.
    """
    if isinstance(cond, DiscountedSumCondition):
        return _gap_bfs(cond, cap)[0]
    sk, win_lose = residual_relation(cond, cap)
    return _quotient_by_equivalence(
        sk, lambda a, b: (a, b) not in win_lose and (b, a) not in win_lose
    )

