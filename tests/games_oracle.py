"""References for the parity-game solver and the strategy check.

``brute_force_regions`` decides winning regions by trying every pair of
positional strategies, so it shares nothing with the library's
attractor-based solver.  ``reference_verify_strategy`` checks a strategy by
building the restricted game as a ``ParityGame`` of its own and solving it
from scratch, the reference for ``games.verify_strategy``, which reruns the
solver on the product game's subdivision instead.
"""

import itertools

from skelparity.errors import CapExceeded, InputError
from skelparity.games import (
    GameEdge,
    ParityGame,
    StrategyReport,
    _gedge_key,
    _gstate_key,
    solve_parity,
)


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


def reference_verify_strategy(game: ParityGame, full, strat, player: int) -> StrategyReport:
    """``verify_strategy`` by a second game: keep only the strategy's edges
    at the player's states of its region, solve that game anew, and walk
    the opponent's strategy from the least offending state."""
    if player not in (1, 2):
        raise InputError("player must be 1 or 2")
    region = full.regions[player]
    opponent = 3 - player

    restricted_edges = []
    for v, outs in game.out_edges_map.items():
        if game.owner[v] != player or v not in region:
            restricted_edges += outs
            continue
        s, m = v
        chosen = strat.nxt.get(v)
        if chosen is None:
            return StrategyReport(
                passed=False, region_size=len(region), witness={"undefined_at": [s, m]}
            )
        kept = [e for e in outs if (s, e[1], e[2][0]) == tuple(chosen)]
        if not kept:
            return StrategyReport(
                passed=False,
                region_size=len(region),
                witness={"illegal_move_at": [s, m], "move": list(chosen)},
            )
        restricted_edges += kept
    # a subsequence of the canonically sorted edges is still sorted
    restricted = ParityGame(game.states, game.owners, tuple(restricted_edges))
    res = solve_parity(restricted)
    offenders = sorted(res.regions[opponent] & region, key=_gstate_key)
    if not offenders:
        return StrategyReport(passed=True, region_size=len(region))

    start = offenders[0]
    choice = dict(res.strategy[opponent])
    walk_state = start
    seen: dict = {}
    colors: list = []
    while walk_state not in seen:
        seen[walk_state] = len(colors)
        e = choice.get(walk_state)
        if e is None:
            e = min(restricted.out_edges_map[walk_state], key=_gedge_key)
        colors.append(e[1])
        walk_state = e[2]
    cut = seen[walk_state]
    witness = {"state": [start[0], start[1]], "prefix": colors[:cut], "period": colors[cut:]}
    return StrategyReport(passed=False, region_size=len(region), witness=witness)
