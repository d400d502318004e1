"""The paper's competition preorder on transition sets: the reference for the
bitset class table of :mod:`skelparity.synthesis`.

Supports here are frozensets of transitions, valued through a dict in
canonical support order.  Every opposite-value pair is compared by scanning
all supports for the least witness, so the cost is cubic in the number of
supports; meant for instances with at most a few hundred.
"""

from __future__ import annotations

from typing import Mapping, Optional

from skelparity.errors import InputError
from skelparity.skeletons import support_transitions, transition_key


def support_key(support: frozenset):
    """Canonical order on transition sets: by size, then lexicographically."""
    return (len(support), tuple(sorted(transition_key(t) for t in support)))


def support_states(support: frozenset) -> frozenset:
    return frozenset(s for s, _ in support)


def label(support: frozenset) -> str:
    parts = "".join(f"({s},{c})" for s, c in sorted(support, key=transition_key))
    return f"[{parts}]"


def as_frozensets(m, classified) -> dict:
    """{transition set: value}, in canonical order, from the (mask, value)
    pairs of skeleton ``m``."""
    values = ((frozenset(support_transitions(m, g)), v) for g, v in classified)
    return dict(sorted(values, key=lambda item: support_key(item[0])))


def competing_witness(g1, g2, values: Mapping) -> Optional[frozenset]:
    """Canonically least support linking two opposite-value supports while
    preserving both their values, or None if the two do not compete."""
    if g1 not in values or g2 not in values:
        raise InputError("both supports must come from the classified table")
    if values[g1] == values[g2]:
        raise InputError("competition is defined for opposite-value supports")
    s1, s2 = support_states(g1), support_states(g2)
    for zeta in values:
        zs = support_states(zeta)
        if not (zs & s1) or not (zs & s2):
            continue
        if values[g1 | zeta] == values[g1] and values[g2 | zeta] == values[g2]:
            return zeta
    return None


def dominates(g1, g2, zeta, values: Mapping) -> frozenset:
    """Which of two competing supports keeps its value in the combined cycle."""
    if values[g1] == values[g2]:
        raise InputError("domination is defined for opposite-value supports")
    zs = support_states(zeta)
    if (
        not (zs & support_states(g1))
        or not (zs & support_states(g2))
        or values[g1 | zeta] != values[g1]
        or values[g2 | zeta] != values[g2]
    ):
        raise InputError("zeta is not a valid witness for this pair")
    combined = values[g1 | g2 | zeta]
    return g1 if combined == values[g1] else g2


def reference_table(values: Mapping) -> dict:
    """Classes and the class-level competition, domination and order.

    Same-value supports are ordered through an intermediate opposite-value
    support, and supports are quotiented by equal (value, competition set,
    domination set); a class is named by the label of its least member.
    """
    supports = list(values)
    compar = {g: set() for g in supports}
    dom = {g: set() for g in supports}
    for i, g1 in enumerate(supports):
        for g2 in supports[i + 1 :]:
            if values[g1] == values[g2]:
                continue
            zeta = competing_witness(g1, g2, values)
            if zeta is None:
                continue
            compar[g1].add(g2)
            compar[g2].add(g1)
            winner = dominates(g1, g2, zeta, values)
            dom[winner].add(g2 if winner == g1 else g1)

    below = {g: set(dom[g]) for g in supports}
    for g1 in supports:
        for g2 in supports:
            if g1 == g2 or values[g1] != values[g2]:
                continue
            if any(g2 in dom[mid] and mid in dom[g1] for mid in compar[g1]):
                below[g1].add(g2)

    groups: dict = {}
    for g in supports:
        groups.setdefault((values[g], frozenset(compar[g]), frozenset(dom[g])), []).append(g)
    class_of = {}
    classes = {}
    for members in groups.values():
        members.sort(key=support_key)
        cid = label(members[0])
        classes[cid] = frozenset(members)
        for g in members:
            class_of[g] = cid
    return {
        "classes": classes,
        "competes": frozenset((class_of[a], class_of[b]) for a in supports for b in compar[a]),
        "dominates": frozenset((class_of[a], class_of[b]) for a in supports for b in dom[a]),
        "order": frozenset((class_of[b], class_of[a]) for a in supports for b in below[a]),
    }


def reference_priorities(m, table, pgamma: Mapping) -> dict:
    """{transition: priority} by the paper's transfer rule, scanned pairwise.

    A transition on some support gets the least class number among the
    inclusion-minimal supports holding it, found by comparing every pair of
    them.  A transient one gets the least class number of a support through
    a state reachable from its target.
    """
    number = {
        frozenset(support_transitions(m, g)): pgamma[table.class_of[g]] for g, _ in table.supports
    }
    out = {}
    for s, c, target in m.transitions:
        holding = [g for g in number if (s, c) in g]
        if holding:
            minimal = [g for g in holding if not any(h < g for h in holding)]
            out[(s, c)] = min(number[g] for g in minimal)
            continue
        reached, todo = {target}, [target]
        while todo:
            state = todo.pop()
            for color in m.alphabet:
                nxt = m.step(state, color)
                if nxt not in reached:
                    reached.add(nxt)
                    todo.append(nxt)
        out[(s, c)] = min(n for g, n in number.items() if support_states(g) & reached)
    return out
