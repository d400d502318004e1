"""Polynomial reference for comparing the residuals of parity automaton states.

Works on the pair product reachable from (q1, q2), with networkx SCCs, and
shares no code with the library's pass over the square of the automaton.
"""

import networkx as nx

from skelparity import ParityAutomaton


def _pair_arcs(aut: ParityAutomaton, q1, q2) -> list:
    """Arcs (u, v, left priority, right priority) of the pair product
    reachable from (q1, q2)."""
    sk = aut.skeleton
    arcs, seen, todo = [], {(q1, q2)}, [(q1, q2)]
    while todo:
        u = todo.pop()
        for c in sk.alphabet:
            v = (sk.step(u[0], c), sk.step(u[1], c))
            arcs.append((u, v, aut.priority(u[0], c), aut.priority(u[1], c)))
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return arcs


def wins_and_loses(aut: ParityAutomaton, q1, q2) -> bool:
    """Does some word win from q1 and lose from q2?

    Such a word loops, from some point on, on the arcs of one strongly
    connected set whose left maximum p1 is even and whose right maximum p2
    is odd; and every component of the pair product cut to left priority
    <= p1 and right priority <= p2 that holds an inner arc of left priority
    p1 and one of right priority p2 gives such a loop.
    """
    arcs = _pair_arcs(aut, q1, q2)
    for p1 in {x for _, _, x, _ in arcs if x % 2 == 0}:
        for p2 in {y for _, _, _, y in arcs if y % 2 == 1}:
            kept = [(u, v, x, y) for u, v, x, y in arcs if x <= p1 and y <= p2]
            graph = nx.DiGraph([(u, v) for u, v, _, _ in kept])
            for comp in nx.strongly_connected_components(graph):
                inner = [(x, y) for u, v, x, y in kept if u in comp and v in comp]
                if any(x == p1 for x, _ in inner) and any(y == p2 for _, y in inner):
                    return True
    return False


def relation(aut: ParityAutomaton, q1, q2) -> str:
    """How the residual language of q1 compares with that of q2."""
    more, less = wins_and_loses(aut, q1, q2), wins_and_loses(aut, q2, q1)
    if more and less:
        return "incomparable"
    return "greater" if more else "less" if less else "equal"
