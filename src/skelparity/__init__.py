"""Skeleton-based analysis of omega-regular winning conditions.

The package turns a characterization of omega-regular languages through
chromatic memory skeletons into executable machinery:

- :mod:`skelparity.skeletons`: skeletons, parity automata, cycle supports;
- :mod:`skelparity.conditions`: winning conditions, lasso oracles, the
  automata that value cycle supports, gaps, residual comparison,
  right-congruence automata;
- :mod:`skelparity.consistency`: prefix-independence and cycle-consistency
  checks, plus the mean-payoff counterexample report;
- :mod:`skelparity.synthesis`: the cycle-competition preorder and the
  priority-assignment pipeline producing deterministic parity automata;
- :mod:`skelparity.games`: finite edge-colored arenas, a certified parity
  solver, skeleton-based strategies, and desk-scale experiments;
- :mod:`skelparity.discounting`: discounted-sum specializations (gap
  automata, regularity classification, greedy expansions);
- :mod:`skelparity.cli`: the ``skelparity`` command-line entry point.
"""

from .skeletons import (
    ParityAutomaton,
    Skeleton,
    color_abstraction,
    enumerate_cycle_supports,
    product,
    trivial_skeleton,
)
from .conditions import (
    Condition,
    DiscountedSumCondition,
    DpaCondition,
    Lasso,
    MeanPayoffCondition,
    MullerCondition,
    TotalPayoffCondition,
    gap,
    lasso_value,
    residual_compare,
    right_congruence_automaton,
    sees_all_colors_condition,
)

__all__ = [
    "Condition",
    "DiscountedSumCondition",
    "DpaCondition",
    "Lasso",
    "MeanPayoffCondition",
    "MullerCondition",
    "ParityAutomaton",
    "Skeleton",
    "TotalPayoffCondition",
    "color_abstraction",
    "enumerate_cycle_supports",
    "gap",
    "lasso_value",
    "product",
    "residual_compare",
    "right_congruence_automaton",
    "sees_all_colors_condition",
    "trivial_skeleton",
]
