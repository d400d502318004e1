"""Word-level reference for support values: the values of all lassos with
bounded prefix and period, grouped by the cycle their run on a skeleton
repeats (``entered_cycle``).  Every value found is a value of that cycle's
support; with small bounds some values may be missed."""

from itertools import product

from skelparity.conditions import Lasso, entered_cycle, lasso_value


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
