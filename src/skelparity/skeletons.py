"""Finite skeletons, parity automata and cycle supports.

A skeleton is a finite deterministic machine over a finite color alphabet
with no acceptance condition.  A parity automaton attaches a natural-number
priority to every transition.  A cycle support is a set of transitions whose
induced directed graph is strongly connected; it is the finite proxy used
everywhere in this package for the (infinite) family of cycles of a skeleton.
A support is an int bitmask over the skeleton's transitions: bit ``i`` is
``m.transitions[i]``, and :func:`support_transitions` decodes it.

All types are immutable after construction and every function is pure, so
everything here is safe to call concurrently.  Iteration order is canonical
throughout: integer colors sort numerically before string colors, states
sort as strings, transitions sort by (state, color), and supports sort by
(size, ascending bit indices), which is (size, sorted transitions), so that
outputs are reproducible bit-exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import CapExceeded, InputError

Color = int | str
State = str
Transition = tuple[State, Color]
Node = TypeVar("Node", bound=Hashable)

DEFAULT_SUPPORT_CAP = 100_000


def color_key(c: Color):
    """Total order on colors: integers numerically, then strings."""
    if isinstance(c, bool):
        raise InputError("booleans are not valid colors")
    if isinstance(c, int):
        return (0, c, "")
    return (1, 0, str(c))


def transition_key(t: Transition):
    return (t[0], color_key(t[1]))


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def support_transitions(m: Skeleton, mask: int) -> tuple[Transition, ...]:
    """The transitions of the support ``mask`` of ``m``, in canonical order."""
    trans = m.transitions
    return tuple(trans[i][:2] for i in bit_indices(mask))


def out_masks(m: Skeleton) -> dict[State, int]:
    """For each state, the mask of the transitions leaving it.  A support
    passes through a state iff it holds one of them."""
    out: dict[State, int] = {}
    for i, (s, _, _) in enumerate(m.transitions):
        out[s] = out.get(s, 0) | 1 << i
    return out


def mask_map(images: Sequence[int]) -> Callable[[int], int]:
    """The map ``mask -> OR of images[i] over the set bits i of mask``.

    The mask is read in chunks of at most eight bits, each from a table of
    the ORs of its chunk's images, built by doubling: the entries below
    ``1 << b`` OR'd with image ``b`` give those from ``1 << b`` up.  Up to
    eight images make one table; up to sixteen make two of half the bits
    each, read by one mask and one shift; more make one 256-entry table
    per byte of the mask.  So each nonzero chunk costs one lookup.
    """

    def table_of(chunk: Sequence[int]) -> list[int]:
        out = [0]
        for image in chunk:
            out += [x | image for x in out]
        return out

    if len(images) <= 8:
        return table_of(images).__getitem__
    if len(images) <= 16:
        half = (len(images) + 1) // 2
        low, high, bits = table_of(images[:half]), table_of(images[half:]), (1 << half) - 1
        return lambda mask: low[mask & bits] | high[mask >> half]
    tables = [table_of(images[lo : lo + 8]) for lo in range(0, len(images), 8)]
    width = len(tables)

    def image_of(mask: int) -> int:
        out = 0
        for table, byte in zip(tables, mask.to_bytes(width, "little")):
            if byte:
                out |= table[byte]
        return out

    return image_of


class SupportIndex:
    """The transposed form of a list of supports over ``width`` transitions.

    Supports are numbered by their position in the list, and a set of
    supports is a bitset over these numbers.  ``col[t]`` is the set of the
    supports holding transition ``t``.  ``holding(mask)``, the OR of
    ``col`` over the transitions of ``mask``, is the set of the supports
    holding one of them: for the transitions leaving a state, the supports
    through it.  ``not_inside(k)`` is ``holding`` of the transitions
    outside support ``k``, the complement of the supports contained in it.
    """

    def __init__(self, supports: Sequence[int], width: int):
        self.supports = supports
        self.everyone = (1 << len(supports)) - 1
        self._width = width
        # one pass over the supports' bits: row k of a bit matrix is support
        # k, written most significant first, and column t is one numeral
        rows = "".join([format(g, f"0{width}b") for g in reversed(supports)])
        self.col = [int(rows[width - 1 - t :: width] or "0", 2) for t in range(width)]
        self.holding = mask_map(self.col)

    def not_inside(self, k: int) -> int:
        return self.holding((1 << self._width) - 1 ^ self.supports[k])


def support_label(m: Skeleton, mask: int) -> str:
    """Human-readable canonical name, e.g. ``[(m1,a)(m2,a)]``."""
    parts = "".join(f"({s},{c})" for s, c in support_transitions(m, mask))
    return f"[{parts}]"


@dataclass(frozen=True)
class Skeleton:
    """Finite deterministic machine: (states, init, total update map).

    Invariants enforced at construction: the update map is total over
    states x alphabet, and every state is reachable from ``init``.
    """

    states: tuple[State, ...]
    init: State
    alphabet: tuple[Color, ...]
    transitions: tuple[tuple[State, Color, State], ...]

    def __post_init__(self):
        state_set = set(self.states)
        if not state_set:
            raise InputError("skeleton needs at least one state")
        if self.init not in state_set:
            raise InputError(f"initial state {self.init!r} not a state")
        if not self.alphabet:
            raise InputError("alphabet must be non-empty")
        alphabet = set(self.alphabet)
        seen: set[Transition] = set()
        for s, c, t in self.transitions:
            if s not in state_set or t not in state_set:
                raise InputError(f"transition ({s!r},{c!r},{t!r}) uses unknown state")
            if c not in alphabet:
                raise InputError(f"transition color {c!r} not in alphabet")
            if (s, c) in seen:
                raise InputError(f"duplicate transition source ({s!r},{c!r})")
            seen.add((s, c))
        missing = {(s, c) for s in self.states for c in self.alphabet} - seen
        if missing:
            missing = tuple(sorted(missing, key=transition_key))
            raise InputError(f"update map not total, missing {missing}")
        unreachable = state_set.difference(
            s for s, _, _ in bfs(self.init, self.alphabet, self.step)
        )
        if unreachable:
            raise InputError(f"unreachable states: {sorted(unreachable)}")

    @classmethod
    def make(
        cls,
        states: Iterable[State],
        init: State,
        alphabet: Iterable[Color],
        upd: Mapping[Transition, State],
    ) -> "Skeleton":
        alpha = tuple(sorted(set(alphabet), key=color_key))
        sts = tuple(sorted(set(states)))
        trans = tuple(
            (s, c, upd[(s, c)])
            for s in sts
            for c in alpha
            if (s, c) in upd
        )
        return cls(states=sts, init=init, alphabet=alpha, transitions=trans)

    @cached_property
    def _upd(self) -> dict[Transition, State]:
        return {(s, c): t for s, c, t in self.transitions}

    def step(self, state: State, color: Color) -> State:
        try:
            return self._upd[(state, color)]
        except KeyError:
            raise InputError(f"unknown transition ({state!r},{color!r})") from None

    def run(self, word: Sequence[Color], start: State | None = None) -> list[State]:
        """States visited while reading ``word``; length ``len(word)+1``."""
        s = self.init if start is None else start
        out = [s]
        for c in word:
            s = self.step(s, c)
            out.append(s)
        return out

    def run_end(self, word: Sequence[Color], start: State | None = None) -> State:
        s = self.init if start is None else start
        for c in word:
            s = self.step(s, c)
        return s

    def canonical_form(self) -> tuple:
        """Isomorphism invariant: BFS relabeling in canonical color order."""
        found = bfs(self.init, self.alphabet, self.step)
        number = {s: i for i, (s, _, _) in enumerate(found)}
        table = tuple(
            tuple(number[self.step(s, c)] for c in self.alphabet) for s in number
        )
        return (self.alphabet, table)

    def isomorphic(self, other: "Skeleton") -> bool:
        return self.canonical_form() == other.canonical_form()


def trivial_skeleton(alphabet: Iterable[Color]) -> Skeleton:
    alpha = tuple(sorted(set(alphabet), key=color_key))
    return Skeleton.make(["m0"], "m0", alpha, {("m0", c): "m0" for c in alpha})


def bfs(
    start: Node, alphabet: Sequence[Color], step: Callable[[Node, Color], Node]
) -> Iterator[tuple[Node, Node | None, Color | None]]:
    """Every node reachable from ``start`` under ``step``, in discovery
    order, with the (parent, color) of the step that discovered it;
    ``start`` comes first, with ``(None, None)``.

    Breadth-first, first in first out, with colors tried in ``alphabet``
    order.  Product state names, lift numbering, witness words and
    right-congruence labels all follow this order.  It holds one set of
    the nodes seen and no words: a caller that needs a node's word keeps
    the (parent, color) pairs and reads it back with :func:`word_to`.
    """
    yield start, None, None
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for c in alphabet:
            nxt = step(node, c)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                yield nxt, node, c


def word_to(parents: Mapping[Node, tuple], node: Node) -> list[Color]:
    """The colors from the start of a :func:`bfs` to ``node``, read back
    through ``parents[x] = (parent, color)`` as :func:`bfs` yielded them,
    the start mapped to ``(None, None)``.  That is the shortest word
    reaching ``node``, and among those the least in ``alphabet`` order."""
    colors = []
    parent, c = parents[node]
    while parent is not None:
        colors.append(c)
        parent, c = parents[parent]
    return colors[::-1]


def pair_search(m1: Skeleton, m2: Skeleton, steps: list | None = None) -> Iterator[tuple]:
    """:func:`bfs` over the state pairs of ``m1`` and ``m2`` from their
    initial states, in ``m1.alphabet`` order: the one search of a product
    of two skeletons.  When called, before any step, it applies the one
    alphabet rule of the package: both read the same colors, or
    :class:`InputError` names the least color (:func:`color_key`) that only
    one reads.  Each step's pair is appended to ``steps``, if given."""
    only = set(m1.alphabet) ^ set(m2.alphabet)
    if only:
        raise InputError(f"color {min(only, key=color_key)!r} is read by one side of a product only")
    step1, step2 = m1.step, m2.step

    def step(p, c):
        q = step1(p[0], c), step2(p[1], c)
        if steps is not None:
            steps.append(q)
        return q

    return bfs((m1.init, m2.init), m1.alphabet, step)


def pair_product(m1: Skeleton, m2: Skeleton) -> tuple[list[tuple[State, State]], list[int]]:
    """The pairs of :func:`pair_search`, in its order, and the product
    stepped once: ``succ[k * len(m1.alphabet) + c]`` is the index of the
    pair that color index ``c`` leads pair ``k`` to."""
    steps: list[tuple[State, State]] = []
    pairs = [p for p, _, _ in pair_search(m1, m2, steps)]
    index = {p: k for k, p in enumerate(pairs)}
    return pairs, [index[q] for q in steps]


def product_skeleton(alphabet: Sequence, names: Sequence[State], succ: Sequence[int]) -> Skeleton:
    """The product ``succ`` of :func:`pair_product` as a skeleton whose
    state ``names[k]`` is pair ``k``; ``names[0]`` is initial."""
    n = len(alphabet)
    upd = {(names[x // n], alphabet[x % n]): names[k] for x, k in enumerate(succ)}
    return Skeleton.make(names, names[0], alphabet, upd)


def product(m1: Skeleton, m2: Skeleton) -> Skeleton:
    """Reachable part of the direct product; states are named ``s1|s2``.

    Raises :class:`InputError` as :func:`pair_search` does, and when two
    distinct reachable pairs get the same name, which state names holding
    ``|`` can cause.
    """
    pairs, succ = pair_product(m1, m2)
    names = [f"{a}|{b}" for a, b in pairs]
    first: dict[State, tuple[State, State]] = {}
    for pair, key in zip(pairs, names):
        if first.setdefault(key, pair) != pair:
            raise InputError(f"product pairs {first[key]} and {pair} are both named {key!r}")
    return product_skeleton(m1.alphabet, names, succ)


@dataclass(frozen=True)
class ParityAutomaton:
    """Skeleton plus a priority on every transition (transition-based acceptance)."""

    skeleton: Skeleton
    priorities: tuple[tuple[State, Color, int], ...]

    def __post_init__(self):
        keys = {(s, c) for s, c, _ in self.priorities}
        expected = {(s, c) for s, c, _ in self.skeleton.transitions}
        if keys != expected:
            raise InputError("priorities must cover exactly the skeleton transitions")
        for _, _, p in self.priorities:
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
                raise InputError("priorities must be natural numbers")

    @classmethod
    def make(cls, skeleton: Skeleton, priority: Mapping[Transition, int]) -> "ParityAutomaton":
        rows = tuple(
            (s, c, priority[(s, c)])
            for s, c, _ in skeleton.transitions
        )
        return cls(skeleton=skeleton, priorities=rows)

    @cached_property
    def _pri(self) -> dict[Transition, int]:
        return {(s, c): p for s, c, p in self.priorities}

    def priority(self, state: State, color: Color) -> int:
        try:
            return self._pri[(state, color)]
        except KeyError:
            raise InputError(f"unknown transition ({state!r},{color!r})") from None

    def max_support_priority(self, support: Iterable[Transition]) -> int:
        return max(self.priority(s, c) for s, c in support)


# ---------------------------------------------------------------------------
# strongly connected components and cycle supports
# ---------------------------------------------------------------------------


def cut_cycles(n: int, arcs: Iterable[tuple[int, int, int]], allowed: int, need: int) -> set[int]:
    """The nodes of the strongly connected components of the graph on
    ``0 .. n-1`` cut to the arcs ``(u, v, weight)`` with no weight bit
    outside ``allowed``, whose inner arcs OR to a superset of ``need``; a
    node with no inner arc lies on no cycle and is never returned.  The one
    SCC kernel of the package: Tarjan's algorithm, iterative, on lists."""
    kept = [a for a in arcs if not a[2] & ~allowed]
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in kept:
        succ[u].append(v)
    # 1 + discovery order (0 while unvisited), low link, and the root of
    # the node's component once it is popped off the stack
    number, low, root_of, stack, count = [0] * n, [0] * n, [-1] * n, [], 0
    for root in range(n):
        if number[root] or not succ[root]:
            continue
        count += 1
        number[root] = low[root] = count
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if not number[w]:
                    count += 1
                    number[w] = low[w] = count
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if root_of[w] < 0 and number[w] < low[v]:
                    low[v] = number[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == number[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        root_of[w] = v
    ors: dict[int, int] = {}
    for u, v, w in kept:
        if root_of[u] == root_of[v]:
            ors[root_of[u]] = ors.get(root_of[u], 0) | w
    good = {r for r, x in ors.items() if x & need == need}
    return {v for v in range(n) if root_of[v] in good}


def enumerate_cycle_supports(m: Skeleton, cap: int = DEFAULT_SUPPORT_CAP) -> list[int]:
    """All transition subsets inducing a strongly connected graph, as
    masks in canonical order: :func:`arc_cycle_supports` of ``m``'s
    transitions over its numbered states."""
    index = {s: i for i, s in enumerate(m.states)}
    arcs = [(index[s], index[t]) for s, _, t in m.transitions]
    return arc_cycle_supports(len(m.states), arcs, cap)


def arc_cycle_supports(
    n: int, arcs: Sequence[tuple[int, int]], cap: int = DEFAULT_SUPPORT_CAP
) -> list[int]:
    """The cycle supports of the graph on states ``0 .. n-1`` whose
    transition ``i`` runs from ``arcs[i][0]`` to ``arcs[i][1]``, as masks
    over the transitions in canonical order.  The graph need not be
    reachable from one state.

    Depth-first over include/exclude decisions on the transitions in bit
    order, include first, on int bitmasks (states are numbered, so a state
    set is a mask too).  The lowest included transition ``j`` fixes the
    anchor, its source state.  Each branch carries ``comp``, the anchor's
    strongly connected component in the graph of the transitions not
    excluded, as ``pool``: the transitions of that graph with both endpoints
    in ``comp``.  Invariant: every included transition is in ``pool``.
    Only ``pool`` transitions are offered for inclusion (any other lies on
    no cycle through the anchor, and excluding it leaves ``comp`` as it
    is), so an include keeps the invariant with no test.  Excluding a
    ``pool`` transition ``u -> v`` leaves ``comp`` whole iff ``u == v`` or
    ``u`` still reaches ``v`` inside ``pool``, which one forward reach from
    ``u`` settles, stopping as soon as it meets ``v``.  Otherwise ``u`` and
    ``v`` now lie in different components, so the branch dies at once if
    both are endpoints of included transitions; if not, ``comp`` is
    recomputed by one forward and one backward bitset reach from the
    anchor, and the branch lives iff the endpoints of the included
    transitions stay in it.  So every branch ends in a support, at the
    cost of at most one stopping reach and one pair of reaches per exclude
    inside ``comp``, plus one pair per transition ``j``, which starts
    supports iff both its endpoints lie in the anchor's component over the
    transitions ``j, j+1, ...``.

    Include-first order emits equal-size masks by ascending bit indices, so
    a stable sort by size gives the canonical order.  Raises
    :class:`CapExceeded` as soon as the count passes ``cap``.
    """
    if cap <= 0:
        raise InputError("cap must be positive")
    src: list[int] = []
    dst: list[int] = []
    ends: list[int] = []
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    in_arcs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    out_edges = [0] * n
    in_edges = [0] * n
    for i, (a, b) in enumerate(arcs):
        src.append(1 << a)
        dst.append(1 << b)
        ends.append(1 << a | 1 << b)
        out_arcs[a].append((1 << i, 1 << b))
        in_arcs[b].append((1 << i, 1 << a))
        out_edges[a] |= 1 << i
        in_edges[b] |= 1 << i
    leaving, entering = mask_map(out_edges), mask_map(in_edges)

    def reach(start: int, pool: int, arcs: list[list[tuple[int, int]]], stop: int = 0) -> int:
        """The states ``start`` reaches over ``pool``; once they hold
        ``stop``, only some of them, ``stop`` among them."""
        seen = todo = start
        while todo and not seen & stop:
            low = todo & -todo
            todo ^= low
            for edge, w in arcs[low.bit_length() - 1]:
                if pool & edge and not seen & w:
                    seen |= w
                    todo |= w
        return seen

    def component(anchor: int, pool: int) -> tuple[int, int]:
        """The anchor's component in the graph of ``pool``, and the pool
        transitions inside it."""
        comp = reach(anchor, pool, out_arcs) & reach(anchor, pool, in_arcs)
        return comp, pool & leaving(comp) & entering(comp)

    found: list[int] = []
    everything = (1 << len(arcs)) - 1
    for j, first in enumerate(ends):
        bit = 1 << j
        anchor = src[j]
        comp, pool = component(anchor, everything ^ (bit - 1))
        if first & ~comp:
            continue
        # frames: (included, undecided pool transitions, pool, included
        # endpoints); the exclude branch is pushed first, so it runs second
        stack = [(bit, pool ^ bit, pool, first)]
        while stack:
            included, rest, pool, touched = stack.pop()
            if not rest:
                found.append(included)
                if len(found) > cap:
                    raise CapExceeded(
                        f"cycle-support enumeration exceeded cap {cap}", cap
                    )
                continue
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            u, v, kept = src[i], dst[i], pool ^ low
            if u == v or reach(u, kept, out_arcs, v) & v:
                stack.append((included, rest, kept, touched))
            elif touched & ends[i] != ends[i]:
                comp, kept = component(anchor, kept)
                if not touched & ~comp:
                    stack.append((included, rest & kept, kept, touched))
            stack.append((included | low, rest, pool, touched | ends[i]))
    found.sort(key=int.bit_count)
    return found


def closed_walk(m: Skeleton, support: int, anchor: State) -> list[Color]:
    """Colors of a deterministic closed walk from ``anchor`` covering the support.

    The walk traverses every transition of the support at least once and
    returns to the anchor.  From the anchor, it takes the least uncovered
    transition of the support, in canonical order, until none is left,
    then returns to the anchor; each leg to a transition's source, and the
    return, is the :func:`word_to` of a :func:`bfs` from the current state
    inside the support, stopped at its target.  Strong connectivity
    guarantees existence.
    """
    trans = support_transitions(m, support)
    if not trans:
        raise InputError("empty support has no covering walk")
    on = set(trans)
    if anchor not in {s for s, _ in trans}:
        raise InputError(f"anchor {anchor!r} is not on the support")

    def path_colors(src: State, dst: State) -> list[Color]:
        def step(s: State, c: Color) -> State:
            # a transition off the support leads back to src, which bfs has seen
            return m.step(s, c) if (s, c) in on else src

        parents: dict[State, tuple] = {}
        for node, parent, c in bfs(src, m.alphabet, step):
            parents[node] = (parent, c)
            if node == dst:
                return word_to(parents, dst)
        raise InputError("support is not strongly connected")

    walk: list[Color] = []
    current = anchor
    uncovered = set(trans)

    def traverse(colors: list[Color]):
        nonlocal current
        for c in colors:
            uncovered.discard((current, c))
            walk.append(c)
            current = m.step(current, c)

    for target in trans:  # canonical order: the least uncovered one first
        if target in uncovered:
            traverse(path_colors(current, target[0]))
            traverse([target[1]])
    traverse(path_colors(current, anchor))
    return walk


def color_abstraction(aut: ParityAutomaton) -> dict:
    """Coarsest merge of colors acting identically on every state.

    Two colors are merged iff they induce the same successor and the same
    priority at every state.  Returns the partition plus a map from each
    color to the canonical representative of its class.
    """
    sk = aut.skeleton
    signature: dict[Color, tuple] = {}
    for c in sk.alphabet:
        signature[c] = tuple(
            (sk.step(s, c), aut.priority(s, c)) for s in sk.states
        )
    groups: dict[tuple, list[Color]] = {}
    for c in sk.alphabet:
        groups.setdefault(signature[c], []).append(c)
    classes = sorted(
        (sorted(g, key=color_key) for g in groups.values()),
        key=lambda g: color_key(g[0]),
    )
    representative = {c: cls[0] for cls in classes for c in cls}
    return {"classes": [list(cls) for cls in classes], "representative": representative}
