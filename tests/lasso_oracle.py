"""Word-level references for lassos.

``random_lasso`` is the reference sampler whose stream
``synthesis.walk_lassos`` draws as color indices.  ``reference_value``
values a lasso from the cycle it enters or from exact sums, the reference
for the compiled judges of ``conditions.lasso_judge``.  ``cycle_values``
gives the values of all lassos with bounded prefix and period, grouped by
the cycle their run on a skeleton repeats (``entered_cycle``): every value
found is a value of that cycle's support; with small bounds some values
may be missed."""

import random
from fractions import Fraction
from itertools import product

from skelparity.conditions import (
    DpaCondition,
    Lasso,
    MeanPayoffCondition,
    MullerCondition,
    TotalPayoffCondition,
    lasso_value,
)

from gap_oracle import discounted_lasso_sum


def random_lasso(rng: random.Random, alphabet, max_len: int = 6) -> Lasso:
    """The reference sampler of verification: ``synthesis.walk_lassos``
    draws the same stream as color indices, walking each lasso as it goes."""
    prefix = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
    period = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
    return Lasso(prefix, period)


def entered_cycle(sk, lasso: Lasso):
    """State and transition set of the cycle a lasso eventually repeats:
    the period is read block by block until a block starts at a state
    that started an earlier one."""
    s = sk.run_end(lasso.prefix)
    index = {s: 0}
    states = [s]
    cur = s
    while True:
        cur = sk.run_end(lasso.period, start=cur)
        if cur in index:
            first = index[cur]
            break
        index[cur] = len(states)
        states.append(cur)
    start = states[first]
    trans = set()
    c = start
    for _ in range(len(states) - first):
        for col in lasso.period:
            trans.add((c, col))
            c = sk.step(c, col)
    return start, frozenset(trans)


def reference_value(cond, lasso: Lasso) -> str:
    """The value of a lasso under any condition: from the cycle it enters
    (parity, Muller), its discounted sum in fractions, its average in
    fractions (mean payoff), or the top of its partial sums over the
    second pass of the period (total payoff; for a zero-sum period they
    repeat from there on)."""
    if isinstance(cond, DpaCondition):
        _, cycle = entered_cycle(cond.automaton.skeleton, lasso)
        return "win" if cond.automaton.max_support_priority(cycle) % 2 == 0 else "lose"
    if isinstance(cond, MullerCondition):
        return cond.support_value(entered_cycle(cond.skeleton, lasso)[1])
    if isinstance(cond, MeanPayoffCondition):
        return "win" if Fraction(sum(lasso.period), len(lasso.period)) >= 0 else "lose"
    if isinstance(cond, TotalPayoffCondition):
        drift = sum(lasso.period)
        if drift:
            return "win" if drift > 0 else "lose"
        word = lasso.prefix + lasso.period * 2
        partial = [sum(word[: i + 1]) for i in range(len(word))]
        return "win" if max(partial[-len(lasso.period) :]) >= 0 else "lose"
    return "win" if discounted_lasso_sum(lasso, cond.lam) >= 0 else "lose"


def cycle_values(cond, sk, max_prefix: int, max_period: int) -> dict:
    """{transition set of an entered cycle: set of lasso values}."""
    found: dict = {}
    for n in range(max_prefix + 1):
        for prefix in product(sk.alphabet, repeat=n):
            for m in range(1, max_period + 1):
                for period in product(sk.alphabet, repeat=m):
                    lasso = Lasso(prefix, period)
                    _, cycle = entered_cycle(sk, lasso)
                    found.setdefault(cycle, set()).add(lasso_value(cond, lasso))
    return found
