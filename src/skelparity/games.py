"""Finite edge-colored arenas, parity-game solving and skeleton strategies.

The solver is the classical recursive attractor decomposition, run on a
state-priority subdivision of the edge-priority game whose nodes are
integers in canonical order, and certified in tests against a brute-force
enumeration of positional strategies.  Each game builds its subdivision
once.  Strategies computed on a product game project to next-move tables
keyed by (arena state, memory state); a product game is built and solved
once per arena.  The strategy check leaves the player's other moves out of
the product's subdivision instead of building a second game; a strategy
that keeps its region closed and lets no cycle of the opponent's parity
form there passes by SCC passes alone, and only the rest rerun the solver.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .conditions import Condition, Lasso
from .errors import InputError
from .skeletons import Color, ParityAutomaton, Skeleton, State, color_key, cut_cycles

Edge = tuple  # (src, color, dst)
GameEdge = tuple  # (src, color, dst, priority)


def _check_graph(states: Sequence, owners: Sequence, edges: Sequence) -> None:
    """The checks an arena and a parity game share: the owners cover
    exactly the states, each is player 1 or 2, every state has an edge
    out, and every edge ``(s, color, t, ...)`` joins two states."""
    state_set = set(states)
    owner = dict(owners)
    if set(owner) != state_set:
        raise InputError("owner map must cover exactly the states")
    # 1.0 and true equal 1, but are no player
    if not all(type(p) is int and p in (1, 2) for p in owner.values()):
        raise InputError("owners must be player 1 or player 2")
    sources = {e[0] for e in edges}
    blocked = [s for s in states if s not in sources]
    if blocked:
        raise InputError(f"blocking states (no outgoing edge): {blocked}")
    for e in edges:
        if e[0] not in state_set or e[2] not in state_set:
            raise InputError(f"edge uses unknown state: {(e[0], e[2])}")


@dataclass(frozen=True, eq=False)
class Arena:
    """Two-player edge-colored game graph; every state has an outgoing edge."""

    states: tuple[State, ...]
    owners: tuple[tuple[State, int], ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        _check_graph(self.states, self.owners, self.edges)

    @classmethod
    def make(
        cls,
        states: Iterable[State],
        owner: Mapping[State, int],
        edges: Iterable[Edge],
    ) -> "Arena":
        sts = tuple(sorted(set(states)))
        rows = tuple(sorted(owner.items()))
        edg = tuple(
            sorted(set(tuple(e) for e in edges), key=lambda e: (e[0], color_key(e[1]), e[2]))
        )
        return cls(states=sts, owners=rows, edges=edg)

    @cached_property
    def owner(self) -> dict[State, int]:
        return dict(self.owners)

    @cached_property
    def alphabet(self) -> tuple[Color, ...]:
        return tuple(sorted({c for _, c, _ in self.edges}, key=color_key))


def _gstate_key(v):
    return str(v)


def _gedge_key(e: GameEdge):
    return (_gstate_key(e[0]), color_key(e[1]), _gstate_key(e[2]), e[3])


class Subdivision(NamedTuple):
    """A parity game as int nodes; see :attr:`ParityGame.subdivision`."""

    index: dict  # state -> node
    succ: list  # node -> ascending successor nodes
    pri: list  # node -> priority
    owner: list  # node -> player
    preds: list  # node -> ascending predecessor nodes


@dataclass(frozen=True, eq=False)
class ParityGame:
    """Arena with a natural-number priority on every edge."""

    states: tuple
    owners: tuple
    edges: tuple[GameEdge, ...]

    def __post_init__(self):
        _check_graph(self.states, self.owners, self.edges)
        for e in self.edges:
            if not isinstance(e[3], int) or isinstance(e[3], bool) or e[3] < 0:
                raise InputError("edge priorities must be natural numbers")

    @classmethod
    def make(cls, states, owner: Mapping, edges: Iterable[GameEdge]) -> "ParityGame":
        sts = tuple(sorted(set(states), key=_gstate_key))
        rows = tuple(sorted(owner.items(), key=lambda kv: _gstate_key(kv[0])))
        edg = tuple(sorted(set(tuple(e) for e in edges), key=_gedge_key))
        return cls(states=sts, owners=rows, edges=edg)

    @cached_property
    def owner(self) -> dict:
        return dict(self.owners)

    @cached_property
    def out_edges_map(self) -> dict:
        out: dict = {s: [] for s in self.states}
        for e in self.edges:
            out[e[0]].append(e)
        return out

    @cached_property
    def subdivision(self) -> "Subdivision":
        """The state-priority game the solver runs on, built once per game.

        Node ``i < n`` is ``states[i]``, with priority 0, which never
        raises the limsup since priorities are naturals; node ``n + j`` is
        the midpoint of ``edges[j]``, owned by player 1, with the edge's
        priority and the edge's target as its one successor.
        ``ParityGame.make`` sorts the states by name and the edges by
        (source, color, target, priority), so this numbering is the
        canonical node order (states first, then edges), and every queue
        order and ``min`` tie-break of the solver compares plain ints.
        """
        n = len(self.states)
        index = {s: i for i, s in enumerate(self.states)}
        succ: list = [[] for _ in range(n)]
        pri = [0] * n
        owner = [self.owner[s] for s in self.states]
        for j, e in enumerate(self.edges):
            succ[index[e[0]]].append(n + j)
            succ.append([index[e[2]]])
            pri.append(e[3])
            owner.append(1)
        # built in ascending node order, so every list is already sorted
        preds: list = [[] for _ in succ]
        for u, vs in enumerate(succ):
            for v in vs:
                preds[v].append(u)
        return Subdivision(index, succ, pri, owner, preds)

    def flip_parity(self) -> "ParityGame":
        """Add one to every priority, swapping the winning parities."""
        return ParityGame.make(
            self.states,
            self.owner,
            [(u, c, v, p + 1) for u, c, v, p in self.edges],
        )


def product_game(arena: Arena, aut: ParityAutomaton) -> ParityGame:
    """Arena steered by the automaton; states are (arena state, memory state).

    Contains the reachable part from every (s, initial memory) pair; each
    arena edge (s, c, s') yields a game edge ((s, m), c, (s', upd(m, c)))
    carrying the automaton's priority for (m, c).
    """
    sk = aut.skeleton
    arena_colors = set(arena.alphabet)
    if not arena_colors <= set(sk.alphabet):
        raise InputError("arena colors must be contained in the automaton alphabet")
    out_by_state: dict[State, list[Edge]] = {s: [] for s in arena.states}
    for e in arena.edges:
        out_by_state[e[0]].append(e)
    starts = [(s, sk.init) for s in arena.states]
    seen = set(starts)
    queue = deque(starts)
    edges: list[GameEdge] = []
    while queue:
        s, m = queue.popleft()
        for (_, c, t) in out_by_state[s]:
            m2 = sk.step(m, c)
            target = (t, m2)
            edges.append(((s, m), c, target, aut.priority(m, c)))
            if target not in seen:
                seen.add(target)
                queue.append(target)
    owner = {(s, m): arena.owner[s] for (s, m) in seen}
    return ParityGame.make(seen, owner, edges)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Solution:
    regions: dict  # player -> frozenset of states
    strategy: dict  # player -> {state: GameEdge}


def _zielonka(sub: Subdivision, alive: set) -> tuple[dict, dict]:
    """Regions and strategies, as sets of nodes and maps from a node to
    its chosen successor, of the subdivision restricted to ``alive``: the
    recursive attractor decomposition.  Nodes outside ``alive`` are never
    visited, and nodes are compared only by ``sorted``, ``min`` and set
    membership.  Every node a player owns in its own region has an entry
    in that player's strategy: by induction, the first branch fills in the
    player's other nodes, and the second takes the strategies of both
    subgames and of the escape attractor, which cover the opponent's
    region."""
    succ, pri, owner, preds = sub.succ, sub.pri, sub.owner, sub.preds

    def attractor(alive: set, target: set, player: int):
        attr = set(target)
        strat: dict = {}
        # live successors left per opponent node, counted on first reach
        counters: dict = {}
        queue = deque(sorted(target))
        while queue:
            v = queue.popleft()
            for u in preds[v]:
                if u not in alive or u in attr:
                    continue
                if owner[u] == player:
                    attr.add(u)
                    strat[u] = v
                    queue.append(u)
                else:
                    left = counters.get(u)
                    if left is None:
                        left = sum(1 for w in succ[u] if w in alive)
                    counters[u] = left - 1
                    if left == 1:
                        attr.add(u)
                        queue.append(u)
        return attr, strat

    def zielonka(alive: set):
        if not alive:
            return {1: set(), 2: set()}, {1: {}, 2: {}}
        d = max(pri[v] for v in alive)
        p = 1 if d % 2 == 0 else 2
        o = 3 - p
        target = {v for v in alive if pri[v] == d}
        attr, attr_strat = attractor(alive, target, p)
        regions, strats = zielonka(alive - attr)
        if not regions[o]:
            strat_p = dict(strats[p])
            strat_p.update(attr_strat)
            for v in alive:
                if owner[v] == p and v not in strat_p:
                    strat_p[v] = min(w for w in succ[v] if w in alive)
            return {p: set(alive), o: set()}, {p: strat_p, o: {}}
        escape, escape_strat = attractor(alive, regions[o], o)
        regions2, strats2 = zielonka(alive - escape)
        strat_o = dict(strats2[o])
        strat_o.update(strats[o])
        strat_o.update(escape_strat)
        return (
            {p: regions2[p], o: regions2[o] | escape},
            {p: strats2[p], o: strat_o},
        )

    return zielonka(alive)


def solve_parity(g: ParityGame) -> Solution:
    """Exact regions and uniform positional strategies for both players.

    Recursive attractor decomposition on all nodes of the game's integer
    subdivision (:attr:`ParityGame.subdivision`), which carries the edge
    priorities on inserted midpoints.
    """
    sub = g.subdivision
    n = len(g.states)
    regions, strats = _zielonka(sub, set(range(len(sub.succ))))
    out_regions = {
        player: frozenset(g.states[i] for i in range(n) if i in regions[player])
        for player in (1, 2)
    }
    out_strategy: dict = {1: {}, 2: {}}
    for player in (1, 2):
        for i in range(n):
            if sub.owner[i] == player and i in regions[player]:
                out_strategy[player][g.states[i]] = g.edges[strats[player][i] - n]
    return Solution(regions=out_regions, strategy=out_strategy)


# ---------------------------------------------------------------------------
# skeleton strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SkeletonStrategy:
    """Next-move table keyed by (arena state, memory state)."""

    skeleton: Skeleton
    nxt: dict  # (arena state, memory state) -> arena Edge


def strategy_project(
    arena: Arena, aut: ParityAutomaton, positional: Mapping
) -> SkeletonStrategy:
    """Forget the game pairing: a positional strategy on the product becomes
    a next-move function on (arena state, memory state)."""
    nxt = {}
    for (s, m), edge in positional.items():
        nxt[(s, m)] = (s, edge[1], edge[2][0])
    return SkeletonStrategy(skeleton=aut.skeleton, nxt=nxt)


@dataclass(frozen=True)
class StrategyReport:
    passed: bool
    region_size: int
    witness: Optional[dict] = None


def verify_strategy(
    game: ParityGame,
    full: Solution,
    strat: SkeletonStrategy,
    player: int,
) -> StrategyReport:
    """Optimality check: fix the strategy, give the opponent everything.

    ``game`` is the product game and ``full`` its solution.  The game is
    restricted to the strategy's edges on the player's states inside the
    player's winning region; the opponent must then win nowhere inside that
    region.  The restricted game is ``game``'s subdivision with the
    midpoints of the other edges of those states left out, which is its
    own subdivision in the same node order.  When the kept edges never
    leave the region, the region is a one-player game for the opponent,
    and a pass is decided by SCC passes alone
    (:func:`_opponent_wins_nowhere`).  Otherwise, and whenever the opponent
    may win somewhere, the solver reruns on the restricted game and decides.
    So every failure and every witness comes from the solver: a witness
    lasso re-checkable against the condition, the opponent's strategy from
    the first offending state, against the least kept edge elsewhere.  A
    strategy with no move, or with a move the arena lacks, at a player's
    state in the region fails with the witness ``undefined_at``, or
    ``illegal_move_at`` and the ``move``, instead.
    """
    if player not in (1, 2):
        raise InputError("player must be 1 or 2")
    region = full.regions[player]
    opponent = 3 - player
    sub = game.subdivision
    n = len(game.states)
    edges = game.edges

    alive = set(range(len(sub.succ)))
    inside = set()  # the state nodes of the region
    for i, v in enumerate(game.states):
        if v not in region:
            continue
        inside.add(i)
        if sub.owner[i] != player:
            continue
        s, m = v
        chosen = strat.nxt.get(v)
        if chosen is None:
            return StrategyReport(
                passed=False,
                region_size=len(region),
                witness={"undefined_at": [s, m]},
            )
        move = tuple(chosen)
        dropped = [w for w in sub.succ[i] if (s, edges[w - n][1], edges[w - n][2][0]) != move]
        if len(dropped) == len(sub.succ[i]):
            return StrategyReport(
                passed=False,
                region_size=len(region),
                witness={"illegal_move_at": [s, m], "move": list(chosen)},
            )
        alive.difference_update(dropped)
    if _opponent_wins_nowhere(sub, alive, inside, opponent):
        return StrategyReport(passed=True, region_size=len(region))
    regions, strats = _zielonka(sub, alive)
    offenders = [i for i in range(n) if i in regions[opponent] and game.states[i] in region]
    if not offenders:
        return StrategyReport(passed=True, region_size=len(region))

    start = walk = offenders[0]
    seen: dict = {}
    colors: list[Color] = []
    while walk not in seen:
        seen[walk] = len(colors)
        if sub.owner[walk] == opponent and walk in regions[opponent]:
            e = edges[strats[opponent][walk] - n]
        else:
            e = edges[min(w for w in sub.succ[walk] if w in alive) - n]
        colors.append(e[1])
        walk = sub.index[e[2]]
    cut = seen[walk]
    s, m = game.states[start]
    witness = {"state": [s, m], "prefix": colors[:cut], "period": colors[cut:]}
    return StrategyReport(passed=False, region_size=len(region), witness=witness)


def _opponent_wins_nowhere(sub: Subdivision, alive: set, inside: set, opponent: int) -> bool:
    """Whether the state nodes ``inside`` are closed under the edges whose
    midpoints are ``alive``, and no cycle among them has a top priority of
    ``opponent``'s parity.  Both together mean the opponent wins nowhere in
    ``inside``: where the other player has one move left at each of its
    nodes, the rest is a one-player game for the opponent, who wins exactly
    from where such a cycle is reachable.  A False proves nothing.

    One :func:`cut_cycles` pass per priority ``d`` of the opponent's
    parity on the arcs between the nodes, each weighted by the bit of its
    priority's rank: a cycle with top priority ``d`` exists iff an arc of
    priority ``d`` joins two nodes of one component of the arcs of priority
    at most ``d``.
    """
    succ, pri = sub.succ, sub.pri
    arcs = []  # (source, target, priority) between state nodes
    for u in inside:
        for w in succ[u]:
            if w in alive:
                v = succ[w][0]
                if v not in inside:
                    return False
                arcs.append((u, v, pri[w]))
    bit = {p: 1 << r for r, p in enumerate(sorted({p for _, _, p in arcs}))}
    arcs = [(u, v, bit[p]) for u, v, p in arcs]
    odd = opponent == 2  # player 1 wins by an even top priority, player 2 by odd
    n = len(sub.index)
    return not any(cut_cycles(n, arcs, 2 * x - 1, x) for d, x in bit.items() if d % 2 == odd)


# ---------------------------------------------------------------------------
# arena generators for the negative examples
# ---------------------------------------------------------------------------


def _chain(edges: list, namer, src: State, word: Sequence[Color], dst: State):
    """Edges spelling ``word`` from src to dst through fresh states."""
    cur = src
    for i, c in enumerate(word):
        nxt = dst if i == len(word) - 1 else namer()
        edges.append((cur, c, nxt))
        cur = nxt


def _lasso_tail(edges: list, namer, src: State, lasso: Lasso):
    """Edges spelling ``prefix . period^omega`` from src; cycle on fresh states."""
    cur = src
    for c in lasso.prefix:
        nxt = namer()
        edges.append((cur, c, nxt))
        cur = nxt
    first = namer()
    edges.append((cur, lasso.period[0], first))
    cyc = first
    for c in lasso.period[1:]:
        nxt = namer()
        edges.append((cyc, c, nxt))
        cyc = nxt
    edges.append((cyc, lasso.period[0], first))


def _namer(prefix: str):
    counter = itertools.count()
    return lambda: f"{prefix}{next(counter)}"


def counterexample_arena(kind: str, **params) -> Arena:
    """Finite renderings of the one-player arenas refuting memory bounds.

    ``choice-loop``: a prefix chain into a loop state offering one returning
    chain per family word (family must be non-empty words).

    ``merged-chains``: two prefix chains merging into one state, from which
    two ultimately periodic suffixes depart as exact lassos.

    ``gap-branches``: a first-player choice among prefix chains into a
    second-player state answering with ultimately periodic responses.
    """
    if kind == "choice-loop":
        w: Sequence[Color] = params.get("w", ())
        family: Sequence[Sequence[Color]] = params.get("family", ())
        player: int = params.get("player", 2)
        if not family:
            raise InputError("choice-loop needs a non-empty family")
        if any(len(v) == 0 for v in family):
            raise InputError("family words must be non-empty")
        fresh = _namer("t")
        edges: list[Edge] = []
        loop = "loop"
        for v in family:
            _chain(edges, fresh, loop, v, loop)
        if w:
            # empty prefix collapses the entry state into the loop state
            _chain(edges, fresh, "start", w, loop)
        states = {s for e in edges for s in (e[0], e[2])}
        return Arena.make(states, {s: player for s in states}, edges)

    if kind == "merged-chains":
        w1 = params["w1"]
        w2 = params["w2"]
        s1: Lasso = params["suffix1"]
        s2: Lasso = params["suffix2"]
        if len(w1) == 0 or len(w2) == 0:
            raise InputError("merged-chains needs non-empty prefix words")
        edges: list[Edge] = []
        _chain(edges, _namer("a"), "start1", w1, "merge")
        _chain(edges, _namer("b"), "start2", w2, "merge")
        _lasso_tail(edges, _namer("u"), "merge", s1)
        _lasso_tail(edges, _namer("v"), "merge", s2)
        states = {s for e in edges for s in (e[0], e[2])}
        return Arena.make(states, {s: 1 for s in states}, edges)

    if kind == "gap-branches":
        branches: Sequence[Sequence[Color]] = params["branches"]
        responses: Sequence[Lasso] = params["responses"]
        depth: Optional[int] = params.get("depth")
        if depth is not None:
            if depth < 1 or depth > len(branches):
                raise InputError("depth must select at least one branch")
            branches = branches[:depth]
        if not branches or not responses:
            raise InputError("gap-branches needs branches and responses")
        if any(len(b) == 0 for b in branches):
            raise InputError("branch words must be non-empty")
        edges: list[Edge] = []
        for i, b in enumerate(branches):
            _chain(edges, _namer(f"b{i}_"), "choose", b, "answer")
        for i, r in enumerate(responses):
            _lasso_tail(edges, _namer(f"r{i}_"), "answer", r)
        states = {s for e in edges for s in (e[0], e[2])}
        owner = {s: 2 if s == "answer" or s.startswith("r") else 1 for s in states}
        return Arena.make(states, owner, edges)

    raise InputError(f"unknown arena kind {kind!r}")


# ---------------------------------------------------------------------------
# randomized lift experiment
# ---------------------------------------------------------------------------


def random_arena(rng: random.Random, max_states: int, alphabet: Sequence[Color]) -> Arena:
    """Uniform owners, out-degree 1-3, colors and targets uniform."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    owner = {s: rng.choice((1, 2)) for s in states}
    edges = set()
    for s in states:
        degree = rng.randint(1, 3)
        first = (s, rng.choice(alphabet), rng.choice(states))
        edges.add(first)
        for _ in range(degree - 1):
            edges.add((s, rng.choice(alphabet), rng.choice(states)))
    return Arena.make(states, owner, edges)


@dataclass(frozen=True, eq=False)
class LiftReport:
    arenas: int
    checks: int
    passes: int
    failures: tuple
    seed: int

    @property
    def all_passed(self) -> bool:
        return not self.failures


def lift_experiment(
    cond: Condition,
    m: Skeleton,
    n_arenas: int,
    max_states: int,
    seed: int = 0,
) -> LiftReport:
    """Synthesize once, then watch projected strategies win random games.

    For each random two-player arena, the product game with the synthesized
    automaton is solved, both players' positional strategies are projected
    onto the memory skeleton, and each projection is verified optimal.
    The synthesis checks its automaton on 200 lassos drawn from ``seed``.
    """
    if max_states < 1:
        raise InputError("max_states must be >= 1")
    if n_arenas < 0:
        raise InputError("n_arenas must be >= 0")
    from .synthesis import synthesize

    result = synthesize(cond, m, samples=200, seed=seed, allow_transient=True)
    aut = result.automaton
    alphabet = aut.skeleton.alphabet
    failures = []
    checks = 0
    for i in range(n_arenas):
        rng = random.Random(f"{seed}:{i}")
        arena = random_arena(rng, max_states, alphabet)
        game = product_game(arena, aut)
        solution = solve_parity(game)
        for player in (1, 2):
            checks += 1
            strat = strategy_project(arena, aut, solution.strategy[player])
            report = verify_strategy(game, solution, strat, player)
            if not report.passed:
                failures.append({"arena_index": i, "player": player, "witness": report.witness})
    return LiftReport(
        arenas=n_arenas,
        checks=checks,
        passes=checks - len(failures),
        failures=tuple(failures),
        seed=seed,
    )
