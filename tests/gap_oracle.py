"""Word-level reference for the discounted-sum gaps and right congruence.

Deliberately independent of the one-letter recurrence (``gap_step``) that
the library's gap automaton and right-congruence automaton are built on:
every gap here comes from the defining formula applied to a whole word.
"""

from collections import deque
from fractions import Fraction

from skelparity import Skeleton
from skelparity.conditions import (
    GAP_BOT,
    GAP_TOP,
    DiscountedSumCondition,
    discounted_sum,
    finite_gap,
)
from skelparity.errors import InputError


def discounted_lasso_sum(lasso, lam: Fraction) -> Fraction:
    """Exact discounted sum of ``prefix . period^omega``, in fractions."""
    n = len(lasso.prefix)
    m = len(lasso.period)
    return discounted_sum(lasso.prefix, lam) + lam**n * discounted_sum(
        lasso.period, lam
    ) / (1 - lam**m)


def gap_direct(word, lam: Fraction, k: int):
    """Gap from the defining formula DS(w)/lam^|w|, clamped once at the end.

    Top is inclusive (at least k/(1-lam)), bot is strictly below
    -k/(1-lam).  Agrees with the incremental gap because both clamps are
    absorbing under the one-letter recurrence.
    """
    for c in word:
        if not isinstance(c, int) or isinstance(c, bool) or abs(c) > k:
            raise InputError(f"color {c!r} outside [-{k}, {k}]")
    raw = discounted_sum(word, lam) / lam ** len(word)
    max_ds = Fraction(k) / (1 - lam)
    if raw >= max_ds:
        return GAP_TOP
    if raw < -max_ds:
        return GAP_BOT
    return finite_gap(raw)


def ds_congruence_automaton(cond: DiscountedSumCondition) -> Skeleton:
    """Breadth-first quotient of the words by their directly computed gap.

    Terminates only for conditions with finitely many gaps.
    """
    lam, k = cond.lam, cond.k
    alphabet = list(range(-k, k + 1))
    init_gap = gap_direct((), lam, k)
    states = {init_gap: init_gap.name}
    words = {init_gap: ()}
    upd = {}
    queue = deque([init_gap])
    while queue:
        g = queue.popleft()
        w = words[g]
        for c in alphabet:
            g2 = gap_direct(w + (c,), lam, k)
            if g2 not in states:
                states[g2] = g2.name
                words[g2] = w + (c,)
                queue.append(g2)
            upd[(states[g], c)] = states[g2]
    return Skeleton.make(list(states.values()), states[init_gap], alphabet, upd)
