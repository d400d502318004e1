"""Brute-force reference for the parity-game solver.

Decides winning regions by trying every pair of positional strategies, so it
shares nothing with the library's attractor-based solver.
"""

import itertools

from skelparity.errors import CapExceeded
from skelparity.games import GameEdge, ParityGame


def brute_force_regions(g: ParityGame) -> dict:
    """Winning regions by exhaustive enumeration of positional strategies.

    Positional determinacy of parity games justifies restricting both
    players to positional strategies.  Intended as a testing oracle; capped
    at 12 states and out-degree 4.
    """
    if len(g.states) > 12:
        raise CapExceeded("brute force capped at 12 states", 12)
    if any(len(es) > 4 for es in g.out_edges_map.values()):
        raise CapExceeded("brute force capped at out-degree 4", 4)

    def play_winner(start, choice: dict) -> int:
        seen: dict = {}
        path: list[GameEdge] = []
        v = start
        while v not in seen:
            seen[v] = len(path)
            e = choice[v]
            path.append(e)
            v = e[2]
        cycle = path[seen[v]:]
        top = max(e[3] for e in cycle)
        return 1 if top % 2 == 0 else 2

    def owned(player: int):
        return [s for s in g.states if g.owner[s] == player]

    def profiles(player: int):
        states = owned(player)
        return (
            dict(zip(states, combo))
            for combo in itertools.product(*(g.out_edges_map[s] for s in states))
        )

    def winning_region(player: int) -> frozenset:
        opponent = 3 - player
        region: set = set()
        for mine in profiles(player):
            candidates = set(g.states) - region
            for theirs in profiles(opponent):
                choice = {**mine, **theirs}
                candidates = {
                    s for s in candidates if play_winner(s, choice) == player
                }
                if not candidates:
                    break
            region |= candidates
        return frozenset(region)

    return {1: winning_region(1), 2: winning_region(2)}
