"""Arenas, the certified parity solver, strategies, and the lift experiment."""

import functools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from skelparity import (
    DiscountedSumCondition,
    DpaCondition,
    Lasso,
    ParityAutomaton,
    lasso_value,
    trivial_skeleton,
)
from skelparity import games
from skelparity.errors import CapExceeded, InputError
from skelparity.games import (
    Arena,
    ParityGame,
    SkeletonStrategy,
    counterexample_arena,
    lift_experiment,
    product_game,
    random_arena,
    solve_parity,
    strategy_project,
    verify_strategy,
)
from skelparity.synthesis import synthesize

from conftest import build_ab_prefix_automaton
from games_oracle import brute_force_regions, reference_verify_strategy


def _gen_buchi_ab():
    """Sees a and b infinitely often over the two-letter alphabet."""
    from skelparity import sees_all_colors_condition

    return sees_all_colors_condition(("a", "b"), ("a", "b"))


def _switch_ab():
    from skelparity import Skeleton

    return Skeleton.make(
        ["init", "m2"],
        "init",
        ["a", "b"],
        {
            ("init", "a"): "init",
            ("init", "b"): "m2",
            ("m2", "b"): "m2",
            ("m2", "a"): "init",
        },
    )


@pytest.fixture(scope="module")
def gen_buchi_automaton():
    return synthesize(_gen_buchi_ab(), _switch_ab()).automaton


# -- arenas ---------------------------------------------------------------------


def test_arena_must_be_non_blocking():
    with pytest.raises(InputError):
        Arena.make(["s", "t"], {"s": 1, "t": 2}, [("s", "a", "t")])


def test_arena_owner_must_cover_states():
    with pytest.raises(InputError):
        Arena.make(["s"], {}, [("s", "a", "s")])


# -- product games ----------------------------------------------------------------


def test_product_game_two_states(gen_buchi_automaton):
    arena = Arena.make(["s"], {"s": 1}, [("s", "a", "s"), ("s", "b", "s")])
    game = product_game(arena, gen_buchi_automaton)
    assert len(game.states) == 2
    assert {e[3] for e in game.edges} <= {0, 1, 2, 3}


def test_product_with_trivial_memory_keeps_arena_shape():
    sk = trivial_skeleton(("a", "b"))
    aut = ParityAutomaton.make(sk, {("m0", "a"): 0, ("m0", "b"): 1})
    arena = Arena.make(
        ["s", "t"], {"s": 1, "t": 2}, [("s", "a", "t"), ("t", "b", "s")]
    )
    game = product_game(arena, aut)
    assert len(game.states) == len(arena.states)
    # constant priority per color
    for _, c, _, p in game.edges:
        assert p == (0 if c == "a" else 1)


def test_product_game_four_states(ab_prefix_automaton):
    arena = Arena.make(["s"], {"s": 1}, [("s", "a", "s"), ("s", "b", "s")])
    game = product_game(arena, ab_prefix_automaton)
    assert len(game.states) == 4


@pytest.mark.parametrize("owner", [3, 0, True, 1.0])
def test_parity_game_owner_must_be_a_player(owner):
    # an owner 3 used to solve, with its state won by player 2
    with pytest.raises(InputError, match="owners must be player 1 or player 2"):
        ParityGame.make(["s"], {"s": owner}, [("s", "a", "s", 1)])


def test_parity_game_edge_must_reach_a_state():
    # an edge into an unknown state used to make solve_parity raise KeyError
    with pytest.raises(InputError, match=r"edge uses unknown state: \('s', 't'\)"):
        ParityGame.make(["s"], {"s": 1}, [("s", "a", "s", 0), ("s", "b", "t", 1)])


def test_arena_and_parity_game_name_blocking_states_alike():
    with pytest.raises(InputError, match=r"^blocking states \(no outgoing edge\): \['t'\]$"):
        ParityGame.make(["s", "t"], {"s": 1, "t": 2}, [("s", "a", "t", 0)])
    with pytest.raises(InputError, match=r"^blocking states \(no outgoing edge\): \['t'\]$"):
        Arena.make(["s", "t"], {"s": 1, "t": 2}, [("s", "a", "t")])


# -- solving -------------------------------------------------------------------------


def test_solve_single_even_loop():
    g = ParityGame.make(["s"], {"s": 1}, [("s", "a", "s", 0)])
    assert solve_parity(g).regions[1] == frozenset(["s"])


def test_solve_picks_best_parity():
    g = ParityGame.make(["s"], {"s": 1}, [("s", "a", "s", 1), ("s", "b", "s", 2)])
    sol = solve_parity(g)
    assert sol.regions[1] == frozenset(["s"])
    assert sol.strategy[1]["s"][3] == 2


def test_solve_opponent_picks_odd():
    g = ParityGame.make(
        ["s", "t"],
        {"s": 2, "t": 2},
        [("s", "a", "s", 1), ("s", "b", "t", 2), ("t", "a", "s", 2)],
    )
    assert solve_parity(g).regions[2] == frozenset(["s", "t"])


def _random_game(rng: random.Random) -> ParityGame:
    n = rng.randint(1, 6)
    states = [f"s{i}" for i in range(n)]
    owner = {s: rng.choice((1, 2)) for s in states}
    edges = set()
    for s in states:
        for _ in range(rng.randint(1, 3)):
            edges.add((s, rng.choice("ab"), rng.choice(states), rng.randint(0, 2)))
    return ParityGame.make(states, owner, edges)


def test_solver_matches_brute_force_on_200_games():
    disagreements = 0
    for seed in range(200):
        g = _random_game(random.Random(seed))
        fast = solve_parity(g).regions
        slow = brute_force_regions(g)
        if fast != slow:
            disagreements += 1
        assert fast[1] | fast[2] == frozenset(g.states)
        assert not fast[1] & fast[2]
    assert disagreements == 0


def test_parity_flip_with_ownership_swap_swaps_regions():
    # flipping every priority's parity turns each play's winner around, so
    # together with swapped ownership the two regions trade places
    for seed in range(40):
        g = _random_game(random.Random(1000 + seed))
        sol = solve_parity(g)
        mirrored = ParityGame.make(
            g.states,
            {s: 3 - p for s, p in g.owners},
            [(u, c, v, p + 1) for u, c, v, p in g.edges],
        )
        flipped = solve_parity(mirrored)
        assert flipped.regions[1] == sol.regions[2]
        assert flipped.regions[2] == sol.regions[1]


def test_parity_flip_alone_need_not_swap_regions():
    # counterexample: the controlling player just picks a different loop
    g = ParityGame.make(
        ["s"], {"s": 2}, [("s", "a", "s", 1), ("s", "b", "s", 2)]
    )
    assert solve_parity(g).regions[2] == frozenset(["s"])
    assert solve_parity(g.flip_parity()).regions[2] == frozenset(["s"])


def test_solver_strategies_win_for_their_player():
    # fixing the winner's strategy leaves the opponent no escape
    for seed in range(40):
        g = _random_game(random.Random(2000 + seed))
        sol = solve_parity(g)
        for player in (1, 2):
            region = sol.regions[player]
            restricted = [
                e
                for e in g.edges
                if not (
                    g.owner[e[0]] == player
                    and e[0] in region
                    and sol.strategy[player][e[0]] != e
                )
            ]
            res = solve_parity(ParityGame.make(g.states, g.owner, restricted))
            assert not (res.regions[3 - player] & region)


def test_solver_strategies_cover_their_regions():
    # every node a player owns in its own region has a move in that
    # player's strategy, into the region, on full games and with moves left
    # out as the strategy check leaves them out: solve_parity and
    # verify_strategy look the moves up with no fallback
    from skelparity.games import _zielonka

    covered = 0
    for seed in range(300):
        rng = random.Random(3000 + seed)
        sub = _random_game(rng).subdivision
        full = set(range(len(sub.succ)))
        restricted = set(full)
        for v in range(len(sub.index)):
            restricted -= set(rng.sample(sub.succ[v], rng.randrange(len(sub.succ[v]))))
        for alive in (full, restricted):
            regions, strats = _zielonka(sub, alive)
            assert regions[1] | regions[2] == alive
            for player in (1, 2):
                for v in regions[player]:
                    if sub.owner[v] == player:
                        assert strats[player][v] in regions[player]
                        assert strats[player][v] in sub.succ[v]
                        covered += 1
    assert covered > 3000


def test_brute_force_caps():
    states = [f"s{i}" for i in range(13)]
    g = ParityGame.make(
        states, {s: 1 for s in states}, [(s, "a", states[0], 0) for s in states]
    )
    with pytest.raises(CapExceeded):
        brute_force_regions(g)


# -- strategies ------------------------------------------------------------------------


def test_projected_strategy_passes(gen_buchi_automaton):
    arena = Arena.make(["s"], {"s": 1}, [("s", "a", "s"), ("s", "b", "s")])
    game = product_game(arena, gen_buchi_automaton)
    sol = solve_parity(game)
    strat = strategy_project(arena, gen_buchi_automaton, sol.strategy[1])
    report = verify_strategy(game, sol, strat, 1)
    assert report.passed
    # the projection alternates between the two memory states
    chosen_colors = {m: e[1] for (s, m), e in strat.nxt.items()}
    assert set(chosen_colors.values()) == {"a", "b"}


def test_constant_choice_fails_with_lasso_witness(gen_buchi_automaton):
    arena = Arena.make(["s"], {"s": 1}, [("s", "a", "s"), ("s", "b", "s")])
    bad = SkeletonStrategy(
        skeleton=gen_buchi_automaton.skeleton,
        nxt={
            ("s", m): ("s", "a", "s")
            for m in gen_buchi_automaton.skeleton.states
        },
    )
    game = product_game(arena, gen_buchi_automaton)
    report = verify_strategy(game, solve_parity(game), bad, 1)
    assert not report.passed
    lasso = Lasso.make(report.witness["prefix"], report.witness["period"])
    assert lasso_value(_gen_buchi_ab(), lasso) == "lose"


def test_verify_strategy_checks_coverage(gen_buchi_automaton):
    arena = Arena.make(["s"], {"s": 1}, [("s", "a", "s"), ("s", "b", "s")])
    game = product_game(arena, gen_buchi_automaton)
    report = verify_strategy(
        game,
        solve_parity(game),
        SkeletonStrategy(skeleton=gen_buchi_automaton.skeleton, nxt={}),
        1,
    )
    assert not report.passed


def test_verify_strategy_reports_a_move_the_arena_lacks(gen_buchi_automaton):
    arena = Arena.make(["s"], {"s": 1}, [("s", "a", "s"), ("s", "b", "s")])
    game = product_game(arena, gen_buchi_automaton)
    report = verify_strategy(
        game,
        solve_parity(game),
        SkeletonStrategy(
            skeleton=gen_buchi_automaton.skeleton,
            nxt={("s", m): ("s", "c", "s") for m in gen_buchi_automaton.skeleton.states},
        ),
        1,
    )
    assert not report.passed
    assert report.region_size == 2
    assert report.witness == {
        "illegal_move_at": ["s", gen_buchi_automaton.skeleton.init],
        "move": ["s", "c", "s"],
    }


def _strategy_variants(rng: random.Random, arena: Arena, projected: SkeletonStrategy):
    """The projected strategy, and unless it is empty the same with one
    move changed to another arena move (when there is one), one move
    missing and one move the arena lacks."""
    yield "projected", projected
    if not projected.nxt:
        return
    key = rng.choice(sorted(projected.nxt, key=str))
    others = [e for e in arena.edges if e[0] == key[0] and e != tuple(projected.nxt[key])]
    if others:
        changed = {**projected.nxt, key: rng.choice(others)}
        yield "changed", SkeletonStrategy(projected.skeleton, changed)
    missing = {k: e for k, e in projected.nxt.items() if k != key}
    yield "missing", SkeletonStrategy(projected.skeleton, missing)
    illegal = (key[0], "illegal", key[0])
    yield "illegal", SkeletonStrategy(projected.skeleton, {**projected.nxt, key: illegal})


@pytest.mark.parametrize("name", ["gen-buchi", "ds-half-k2"])
def test_verify_strategy_matches_restricted_game_reference(name, gen_buchi_automaton):
    # the check on the product's subdivision against solving the restricted
    # game as a ParityGame of its own, on seeded random arenas
    aut = {
        "gen-buchi": lambda: gen_buchi_automaton,
        "ds-half-k2": lambda: synthesize(
            DiscountedSumCondition(Fraction(1, 2), 2),
            trivial_skeleton(range(-2, 3)),
            allow_transient=True,
        ).automaton,
    }[name]()
    kinds = Counter()
    for seed in range(60):
        rng = random.Random(f"{name}:{seed}")
        arena = random_arena(rng, 8, aut.skeleton.alphabet)
        game = product_game(arena, aut)
        sol = solve_parity(game)
        for player in (1, 2):
            projected = strategy_project(arena, aut, sol.strategy[player])
            for kind, strat in _strategy_variants(rng, arena, projected):
                got = verify_strategy(game, sol, strat, player)
                assert got == reference_verify_strategy(game, sol, strat, player)
                if got.passed:
                    kinds[kind, "passed"] += 1
                else:
                    kinds[kind, next(iter(got.witness))] += 1
    assert kinds["projected", "passed"] == 120
    assert kinds["missing", "undefined_at"] and kinds["illegal", "illegal_move_at"]
    assert kinds["changed", "state"], kinds  # lasso witnesses


@functools.cache
def _synthesized(name: str) -> ParityAutomaton:
    cond, memory = {
        "gen-buchi": (_gen_buchi_ab(), _switch_ab()),
        "ab-prefix": (DpaCondition(build_ab_prefix_automaton()), trivial_skeleton("ab")),
        "ds-half-k1": (DiscountedSumCondition(Fraction(1, 2), 1), trivial_skeleton(range(-1, 2))),
    }[name]
    return synthesize(cond, memory, allow_transient=True).automaton


@st.composite
def _arena_games(draw):
    """A synthesized automaton and a small arena over its alphabet: 1 to 4
    states, each with 1 to 3 moves."""
    aut = _synthesized(draw(st.sampled_from(["gen-buchi", "ab-prefix", "ds-half-k1"])))
    alphabet = aut.skeleton.alphabet
    n = draw(st.integers(1, 4))
    states = [f"s{i}" for i in range(n)]
    owner = {s: draw(st.sampled_from((1, 2))) for s in states}
    move = st.tuples(st.sampled_from(alphabet), st.sampled_from(states))
    edges = [(s, c, t) for s in states for c, t in draw(st.lists(move, min_size=1, max_size=3))]
    return aut, Arena.make(states, owner, edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_arena_games(), st.data())
def test_verify_strategy_fast_path_matches_solver_reference(case, data):
    # the SCC pass decides a pass without the solver; the report of every
    # strategy, optimal, with one move changed or with one move leaving the
    # region, equals that of solving the restricted game anew
    aut, arena = case
    game = product_game(arena, aut)
    sol = solve_parity(game)
    for player in (1, 2):
        projected = strategy_project(arena, aut, sol.strategy[player])
        region = sol.regions[player]
        mine = sorted(
            (v for v in region if game.owner[v] == player), key=games._gstate_key
        )
        variants = {"optimal": projected}
        if mine:
            v = data.draw(st.sampled_from(mine))
            moves = [(v[0], e[1], e[2][0]) for e in game.out_edges_map[v]]
            variants["changed"] = SkeletonStrategy(
                projected.skeleton, {**projected.nxt, v: data.draw(st.sampled_from(moves))}
            )
            leaving = [
                (w, (w[0], e[1], e[2][0]))
                for w in mine
                for e in game.out_edges_map[w]
                if e[2] not in region
            ]
            if leaving:
                w, out = data.draw(st.sampled_from(leaving))
                variants["leaving"] = SkeletonStrategy(projected.skeleton, {**projected.nxt, w: out})
        for kind, strat in variants.items():
            with mock.patch.object(games, "_zielonka", wraps=games._zielonka) as solver:
                got = verify_strategy(game, sol, strat, player)
            assert got == reference_verify_strategy(game, sol, strat, player), kind
            if kind == "optimal":
                # an optimal strategy keeps its region closed and passes
                # by the SCC pass alone
                assert got.passed and not solver.called


# -- generators ---------------------------------------------------------------------------


def test_choice_loop_with_winning_cycle(gen_buchi_automaton):
    arena = counterexample_arena("choice-loop", w=(), family=[("a", "b")])
    assert len(arena.states) == 2
    game = product_game(arena, gen_buchi_automaton)
    assert solve_parity(game).regions[1] == frozenset(game.states)


def test_choice_loop_interleavings_of_winning_cycles(gen_buchi_automaton):
    arena = counterexample_arena(
        "choice-loop", w=("b",), family=[("a", "b"), ("b", "a")]
    )
    game = product_game(arena, gen_buchi_automaton)
    assert solve_parity(game).regions[1] == frozenset(game.states)


def test_choice_loop_losing_family_lets_the_chooser_win(gen_buchi_automaton):
    arena = counterexample_arena("choice-loop", w=(), family=[("a",), ("b",)])
    game = product_game(arena, gen_buchi_automaton)
    assert solve_parity(game).regions[2] == frozenset(game.states)


def test_choice_loop_requires_family():
    with pytest.raises(InputError):
        counterexample_arena("choice-loop", w=("a",), family=[])


def test_merged_chains_shape():
    arena = counterexample_arena(
        "merged-chains",
        w1=("a",),
        w2=("b",),
        suffix1=Lasso.make((), ("a",)),
        suffix2=Lasso.make((), ("b",)),
    )
    assert len(arena.states) == 5
    assert {"start1", "start2", "merge"} <= set(arena.states)
    # both suffix words are realized exactly
    outs = {e[0]: e for e in arena.edges if e[0].startswith(("u", "v"))}
    assert all(e[2] == e[0] for e in outs.values())


def test_gap_branches_truncation():
    responses = [Lasso.make((-1,), (0,)), Lasso.make((), (1, -1))]
    arena = counterexample_arena(
        "gap-branches",
        branches=[(1,), (1, -1), (1, -1, 1)],
        responses=responses,
        depth=3,
    )
    owner = arena.owner
    assert owner["choose"] == 1 and owner["answer"] == 2
    arena2 = counterexample_arena(
        "gap-branches",
        branches=[(1,), (1, -1), (1, -1, 1)],
        responses=responses,
        depth=1,
    )
    assert len(arena2.states) < len(arena.states)
    with pytest.raises(InputError):
        counterexample_arena(
            "gap-branches", branches=[(1,)], responses=responses, depth=5
        )


# -- lift experiment -------------------------------------------------------------------------


def test_lift_experiment_small():
    report = lift_experiment(_gen_buchi_ab(), _switch_ab(), 15, 6, seed=0)
    assert report.checks == 30
    assert report.all_passed


def test_lift_experiment_empty():
    report = lift_experiment(_gen_buchi_ab(), _switch_ab(), 0, 6, seed=0)
    assert report.checks == 0
    assert report.all_passed


def test_random_arena_is_well_formed():
    for seed in range(30):
        arena = random_arena(random.Random(seed), 8, ("a", "b", "c"))
        assert 1 <= len(arena.states) <= 8
        out_degree = Counter(src for src, _, _ in arena.edges)
        assert all(1 <= out_degree[s] <= 3 for s in arena.states)
