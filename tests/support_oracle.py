"""The string-keyed branch-and-prune cycle-support enumerator: the reference
for the bitmask enumerator :func:`skelparity.enumerate_cycle_supports`.

It walks the same include-first decision tree over the transitions in bit
order, but prunes each branch with a full networkx SCC pass over the
transitions still available, so it returns the same list in the same
order, at a cost of one SCC decomposition per node.  Meant for instances
with at most a few thousand supports.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from skelparity.errors import CapExceeded, InputError
from skelparity.skeletons import DEFAULT_SUPPORT_CAP, Skeleton, Transition


def _completion_exists(
    m: Skeleton,
    included: set[Transition],
    remaining: Sequence[Transition],
) -> bool:
    """Can ``included`` be extended inside ``included + remaining`` to a support?"""
    arcs = [(s, m.step(s, c)) for s, c in included]
    arcs += [(s, m.step(s, c)) for s, c in remaining]
    if not arcs:
        return False
    sccs = nx.strongly_connected_components(nx.DiGraph(arcs))
    comp = {v: k for k, scc in enumerate(sccs) for v in scc}
    if included:
        ids = set()
        for s, c in included:
            t = m.step(s, c)
            if comp[s] != comp[t]:
                return False
            ids.add(comp[s])
        return len(ids) == 1
    return any(comp[s] == comp[m.step(s, c)] for s, c in remaining)


def reference_cycle_supports(m: Skeleton, cap: int = DEFAULT_SUPPORT_CAP) -> list[int]:
    """All supports of ``m`` as masks in canonical order, with the same
    ``cap`` semantics as the library's enumerator."""
    if cap <= 0:
        raise InputError("cap must be positive")
    edges = [(s, c) for s, c, _ in m.transitions]
    found: list[int] = []
    included: set[Transition] = set()
    mask = 0
    # depth-first over include/exclude decisions on bits 0, 1, ..., the
    # include branch first; a (idx, True) frame drops edges[idx] again and
    # starts the exclude branch
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        idx, backtrack = stack.pop()
        if backtrack:
            included.discard(edges[idx])
            mask ^= 1 << idx
            stack.append((idx + 1, False))
            continue
        if not _completion_exists(m, included, edges[idx:]):
            continue
        if idx == len(edges):
            if included:
                found.append(mask)
                if len(found) > cap:
                    raise CapExceeded(
                        f"cycle-support enumeration exceeded cap {cap}", cap
                    )
            continue
        included.add(edges[idx])
        mask |= 1 << idx
        stack.append((idx, True))
        stack.append((idx + 1, False))
    found.sort(key=int.bit_count)
    return found
