"""Discounted-sum specialization: gap automata and regularity frontiers.

For the threshold condition "discounted sum >= 0" over integer colors in
[-k, k] with rational factor lambda, the residual class of a finite word is
captured by its gap (discounted sum rescaled to the present).  The gap
state space is finite exactly when k < 1/lambda - 1 (three classes) or
lambda = 1/n (integer gaps); otherwise the class count is infinite, which
this module also demonstrates constructively.  Every entry point taking
(lambda, k) builds a :class:`DiscountedSumCondition`, which checks the
pair and decides that rule (``finite_index``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .conditions import (
    DiscountedSumCondition,
    _gap_bfs,
    discounted_sum,
    ds_frontier,
    lasso_judge,
    WIN,
    LOSE,
)
from .errors import InputError
from .skeletons import DEFAULT_SUPPORT_CAP, Skeleton, State


@dataclass(frozen=True)
class DsClassification:
    lam: Fraction
    k: int
    verdict: str  # "three-class" | "finite-gap" | "infinite-index"
    states: Optional[int] = None


def classify_ds(lam: Fraction, k: int) -> DsClassification:
    """Decide whether the gap space is finite, and how.

    Three classes when k < 1/lambda - 1: the first non-zero color settles
    the game, so 0 is the only finite gap and the gap automaton has at most
    three states.  Otherwise finitely many integer gaps when lambda = 1/n,
    and so at least 0, -1/lambda, top and bot; infinitely many values for
    every other pair (:attr:`DiscountedSumCondition.finite_index`).
    Counting more than ``DEFAULT_SUPPORT_CAP`` gaps raises :class:`CapExceeded`.
    """
    cond = DiscountedSumCondition(Fraction(lam), k)
    if not cond.finite_index:
        return DsClassification(cond.lam, k, "infinite-index")
    states = len(_gap_bfs(cond, DEFAULT_SUPPORT_CAP)[0].states)
    verdict = "three-class" if states <= 3 else "finite-gap"
    return DsClassification(cond.lam, k, verdict, states=states)


@dataclass(frozen=True, eq=False)
class GapAutomaton:
    """Skeleton whose states are the reachable gap values."""

    skeleton: Skeleton
    lam: Fraction
    k: int
    gaps: dict  # state name -> GapValue

    @property
    def bot_state(self) -> Optional[State]:
        return "bot" if "bot" in self.gaps else None


def gap_automaton(lam: Fraction, k: int) -> GapAutomaton:
    """Breadth-first exploration of gap values under the one-letter update.

    States are the reachable gaps from 0 (top/bot absorbing); an infinite
    word is winning exactly when its run never reaches bot.  Equals the
    right-congruence automaton of the condition up to state relabeling,
    and like it raises :class:`InfiniteIndexError` for a pair without
    finite index and :class:`CapExceeded` beyond ``DEFAULT_SUPPORT_CAP``
    gaps.
    """
    cond = DiscountedSumCondition(Fraction(lam), k)
    sk, gaps = _gap_bfs(cond, DEFAULT_SUPPORT_CAP)
    return GapAutomaton(skeleton=sk, lam=cond.lam, k=k, gaps=gaps)


# ---------------------------------------------------------------------------
# greedy expansions in base 1/lambda
# ---------------------------------------------------------------------------


def greedy_expansion(
    x: Fraction, lam: Fraction, k: int, n_digits: int
) -> tuple[tuple[int, ...], Fraction]:
    """Greedy digits of ``x`` in base ``1/lam`` with digits in [-k, k].

    Each digit is the largest integer in {0..k} keeping the partial sum at
    or below ``x`` (mirrored for negative ``x``).  Returns the digits and the
    exact remainder ``x - sum(digit_i * lam^i)``; its magnitude obeys the
    tail bound ``(k / (1 - lam)) * lam^n_digits``.
    """
    x, cond = Fraction(x), DiscountedSumCondition(Fraction(lam), k)
    lam = cond.lam
    if n_digits < 0:
        raise InputError("n_digits must be a natural number")
    if k < ds_frontier(lam):
        raise InputError(
            f"digit bound too small: need k >= ceil(1/lambda - 1) = "
            f"{ds_frontier(lam)}"
        )
    bound = cond.max_ds
    if not (-bound <= x <= bound):
        raise InputError(f"x must lie in [{-bound}, {bound}]")
    if x < 0:
        digits, rem = greedy_expansion(-x, lam, k, n_digits)
        return tuple(-d for d in digits), -rem
    digits = []
    partial = Fraction(0)
    power = Fraction(1)
    for _ in range(n_digits):
        best = min(k, (x - partial) // power)
        digits.append(int(best))
        partial += best * power
        power *= lam
    return tuple(digits), x - partial


def infinite_gap_sequence(lam: Fraction, n_terms: int) -> dict:
    """Witness that the gap space is infinite when lambda = p/q with p >= 2.

    Starting from the gap of the single color 1 and always subtracting the
    integer part before rescaling, the resulting gaps are pairwise distinct:
    the reduced denominator of the i-th gap is exactly p^i, and all gaps
    stay in (0, 1/lambda].
    """
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise InputError("discount factor must satisfy 0 < lambda < 1")
    if lam.numerator < 2:
        raise InputError(
            "not applicable: for lambda = 1/n the gap space is finite"
        )
    if n_terms < 1:
        raise InputError("n_terms must be >= 1")
    p = lam.numerator
    gaps: list[Fraction] = []
    colors: list[int] = []
    g = Fraction(1) / lam
    c = 1
    for i in range(1, n_terms + 1):
        gaps.append(g)
        colors.append(c)
        c = -int(g)  # -floor: g is a positive non-integer beyond the first step
        g = (g + c) / lam
    denominators_ok = all(g.denominator == p**i for i, g in enumerate(gaps, start=1))
    distinct = len(set(gaps)) == len(gaps)
    in_range = all(
        (0 < g <= 1 / lam) if i == 1 else (0 < g < 1 / lam)
        for i, g in enumerate(gaps, start=1)
    )
    return {
        "lam": lam,
        "gaps": gaps,
        "colors": colors,
        "denominators_are_powers": denominators_ok,
        "pairwise_distinct": distinct,
        "in_range": in_range,
    }


# ---------------------------------------------------------------------------
# interval-certified cycle-consistency demonstration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DsDemoReport:
    samples: int
    consistent: int
    strict_resolved: int
    unrefuted_at_depth: int
    failures: tuple
    seed: int

    @property
    def all_consistent(self) -> bool:
        return self.consistent == self.samples and not self.failures


_SIGN_CHECK_ROUNDS = 64


def _interval_sign_check(
    prefix: Sequence[int],
    chunks: Sequence[Sequence[int]],
    cond: DiscountedSumCondition,
    expect: str,
) -> str:
    """Confine the discounted sum of prefix . chunk1 chunk2 ... to an
    interval and compare against the expected side of 0.

    Returns "confirmed", "unrefuted" (non-strict side, interval still
    straddles 0 after ``_SIGN_CHECK_ROUNDS`` chunks) or "violated".
    """
    lam, bound = cond.lam, cond.max_ds
    word: list[int] = list(prefix)
    i = 0
    for _ in range(_SIGN_CHECK_ROUNDS):
        word += list(chunks[i % len(chunks)])
        i += 1
        partial = discounted_sum(word, lam)
        tail = lam ** len(word) * bound
        low, high = partial - tail, partial + tail
        if expect == LOSE:
            if high < 0:
                return "confirmed"
            if low >= 0:
                return "violated"
        else:
            if low >= 0:
                return "confirmed"
            if high < 0:
                return "violated"
    return "unrefuted"


def ds_cycle_consistency_demo(
    lam: Fraction, k: int, samples: int, seed: int = 0
) -> DsDemoReport:
    """Randomized check that same-value cycle families stay on their side.

    Samples a prefix and a family of finite words all winning (or all
    losing) as cycles after it, interleaves them randomly, and confirms the
    sign of the resulting discounted sum within a rigorous interval bound.
    Losing families carry a strict margin, so their intervals always
    resolve; winning families may sit exactly on the threshold, in which
    case the check reports them unrefuted at the exploration depth.
    """
    cond = DiscountedSumCondition(Fraction(lam), k)
    if samples < 0:
        raise InputError("samples must be a natural number")
    judge = lasso_judge(cond, cond.alphabet)

    def value(prefix, period):  # color c is index c + k of the alphabet
        return judge([c + k for c in prefix], [c + k for c in period])

    consistent = 0
    strict = 0
    unrefuted = 0
    failures = []
    for i in range(samples):
        rng = random.Random(f"{seed}:{i}")
        prefix = tuple(rng.randint(-k, k) for _ in range(rng.randint(0, 4)))
        target = rng.choice((WIN, LOSE))
        size = rng.randint(1, 3)
        family: list[tuple[int, ...]] = []
        attempts = 0
        while len(family) < size and attempts < 200:
            attempts += 1
            cand = tuple(rng.randint(-k, k) for _ in range(rng.randint(1, 4)))
            if value(prefix, cand) == target:
                family.append(cand)
        if not family:
            consistent += 1  # vacuous: no same-value family found
            continue
        order = [rng.randrange(len(family)) for _ in range(16)]
        chunks = [family[j] for j in order]
        outcome = _interval_sign_check(prefix, chunks, cond, target)
        if outcome == "confirmed":
            consistent += 1
            strict += 1
        elif outcome == "unrefuted":
            consistent += 1
            unrefuted += 1
        else:
            failures.append(
                {"sample": i, "prefix": list(prefix), "family": [list(v) for v in family], "target": target}
            )
    return DsDemoReport(
        samples=samples,
        consistent=consistent,
        strict_resolved=strict,
        unrefuted_at_depth=unrefuted,
        failures=tuple(failures),
        seed=seed,
    )
