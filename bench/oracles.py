"""Correctness oracles computed apart from the program.

Every function here reads plain JSON documents (the files the benchmark
writes and the reports the command line prints) and answers with its own
graph algorithms, built on networkx.  Nothing is imported from the program,
so an oracle and the command it checks share no code.

- Generalized Buechi ("see a and b infinitely often") consistency: a
  skeleton fails iff some state lies both on a cycle with an a-edge and no
  b-edge and on a cycle with a b-edge and no a-edge, decided by the SCCs of
  the b-free and the a-free subgraphs.
- Parity residuals and language equality: some word wins from q1 and loses
  from q2 iff, for an even p1 and an odd p2, the pair product restricted to
  left priority <= p1 and right priority <= p2 has an SCC holding a left-p1
  edge and a right-p2 edge.  The same test compares a parity automaton with
  a Muller table, support by support.
- Discounted sums: exact rational closed forms of every lasso up to a fixed
  length.
- Cycle supports: unions of vertex-overlapping simple cycles, used to size
  the input pools.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

import networkx as nx

WIN, LOSE = "win", "lose"


class Machine:
    """Deterministic transition table of a skeleton or parity-automaton document."""

    def __init__(self, doc: dict):
        self.alphabet = list(doc["alphabet"])
        self.states = list(doc["states"])
        self.init = doc["init"]
        self.delta = {(s, c): t for s, c, t in doc["upd"]}
        self.prio = {(s, c): p for s, c, p in doc.get("priority", ())}
        self.edges = [(s, c, t) for s, c, t in doc["upd"]]

    def run(self, word, start=None):
        s = self.init if start is None else start
        for c in word:
            s = self.delta[(s, c)]
        return s

    def lasso_parity_value(self, prefix, period) -> str:
        """Value of ``prefix . period^omega`` under this machine's priorities."""
        s = self.run(prefix)
        first_seen = {}
        starts = []
        while s not in first_seen:
            first_seen[s] = len(starts)
            starts.append(s)
            s = self.run(period, start=s)
        top = -1
        for q in starts[first_seen[s]:]:
            for c in period:
                top = max(top, self.prio[(q, c)])
                q = self.delta[(q, c)]
        return WIN if top % 2 == 0 else LOSE


class OracleMismatch(AssertionError):
    """A report disagrees with the oracle."""


def require(cond: bool, message: str):
    if not cond:
        raise OracleMismatch(message)


def _components(nodes, arcs) -> dict:
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(arcs)
    return {v: i for i, comp in enumerate(nx.strongly_connected_components(g)) for v in comp}


def is_strongly_connected(edges) -> bool:
    """True iff the (src, color, dst) edge set is non-empty and strongly connected."""
    if not edges:
        return False
    g = nx.DiGraph()
    g.add_edges_from((s, t) for s, _, t in edges)
    return nx.is_strongly_connected(g)


# -- cycle supports ------------------------------------------------------------


class TooManySupports(Exception):
    pass


def cycle_supports(edges, limit: int | None = None) -> dict:
    """Every strongly connected edge subset, as {edge bitmask: vertex bitmask}.

    Each such subset is a union of simple cycles that overlap in vertices,
    so the closure of the simple cycles under unions with an overlapping
    cycle reaches all of them.  Raises :class:`TooManySupports` past
    ``limit``.
    """
    g = nx.DiGraph()
    parallel: dict = {}
    for i, (s, _, t) in enumerate(edges):
        g.add_edge(s, t)
        parallel.setdefault((s, t), []).append(i)
    vid = {v: i for i, v in enumerate(g.nodes)}
    cycles = []
    for cyc in nx.simple_cycles(g):
        hops = [(cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc))]
        vmask = sum(1 << vid[v] for v in cyc)
        for choice in itertools.product(*(parallel[h] for h in hops)):
            cycles.append((sum(1 << i for i in choice), vmask))
    found: dict = {}
    stack = []
    for em, vm in cycles:
        if em not in found:
            found[em] = vm
            stack.append((em, vm))
    while stack:
        em, vm = stack.pop()
        for cem, cvm in cycles:
            if vm & cvm and cem & ~em:
                union = em | cem
                if union not in found:
                    found[union] = vm | cvm
                    if limit is not None and len(found) > limit:
                        raise TooManySupports(limit)
                    stack.append((union, vm | cvm))
    if limit is not None and len(found) > limit:
        raise TooManySupports(limit)
    return found


# -- generalized Buechi on a skeleton --------------------------------------------


def gen_buchi_value(colors) -> str:
    colors = set(colors)
    return WIN if {"a", "b"} <= colors else LOSE


def gen_buchi_conflict_states(m: Machine) -> list:
    """States on both an (a, no b) cycle and a (b, no a) cycle."""

    def on_cycle_with(need: str, banned: str) -> set:
        kept = [(s, c, t) for s, c, t in m.edges if c != banned]
        comp = _components(m.states, [(s, t) for s, _, t in kept])
        good = {comp[s] for s, c, t in kept if c == need and comp[s] == comp[t]}
        return {q for q in m.states if comp[q] in good}

    return sorted(on_cycle_with("a", "b") & on_cycle_with("b", "a"))


def _base_state(name: str, m: Machine) -> str:
    """Map a state of (m x one-state congruence) back to its state of m."""
    if name in m.states:
        return name
    base = name.rsplit("|", 1)[0]
    require(base in m.states, f"witness state {name!r} is not a product state of the skeleton")
    return base


def check_gen_buchi_consistency(m: Machine, report: dict, code: int):
    """Check a ``check cycle-consistency`` report for generalized Buechi on ``m``."""
    conflicts = gen_buchi_conflict_states(m)
    if not conflicts:
        require(code == 0 and report.get("verdict") == "pass",
                f"oracle says consistent, report says {report.get('verdict')!r}")
        return
    require(code == 1 and report.get("verdict") == "fail",
            f"oracle finds conflicts at {conflicts[:3]}, report says {report.get('verdict')!r}")
    w = report["witness"]
    require(w.get("kind") == "support-pair", "witness is not a support pair")
    state = _base_state(w["state"], m)
    require(state in conflicts, f"witness state {state!r} has no conflict")
    sides = []
    for key in ("support1", "support2"):
        rows = [(_base_state(s, m), c) for s, c in w[key]]
        edges = [(s, c, m.delta[(s, c)]) for s, c in rows if (s, c) in m.delta]
        require(len(edges) == len(rows), f"{key} uses a transition not in the skeleton")
        require(is_strongly_connected(edges), f"{key} is not strongly connected")
        require(state in {s for s, _, _ in edges}, f"{key} misses the witness state")
        sides.append(edges)
    v1 = gen_buchi_value(c for _, c, _ in sides[0])
    v2 = gen_buchi_value(c for _, c, _ in sides[1])
    union = gen_buchi_value(c for _, c, _ in sides[0] + sides[1])
    require(v1 == v2 == w["family_value"], "the two supports do not share the family value")
    require(union == w["union_value"] != v1, "the union does not flip the value")


# -- parity automata: residuals, quotients, language equality ------------------------


def product(a: Machine, qa, b: Machine, qb):
    """Reachable synchronous product from (qa, qb) over ``a``'s alphabet:
    its nodes and its (u, color, v) arcs, nodes being state pairs."""
    start = (qa, qb)
    seen = {start}
    queue = deque([start])
    arcs = []
    while queue:
        x, y = queue.popleft()
        for c in a.alphabet:
            nxt = (a.delta[(x, c)], b.delta[(y, c)])
            arcs.append(((x, y), c, nxt))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen, arcs


def pair_product(a: Machine, qa, b: Machine, qb):
    """Reachable pair product from (qa, qb): nodes and (u, v, left prio, right prio) arcs."""
    nodes, arcs = product(a, qa, b, qb)
    return nodes, [(u, v, a.prio[(u[0], c)], b.prio[(u[1], c)]) for u, c, v in arcs]


def parity_flags(a: Machine, qa, b: Machine, qb) -> tuple[bool, bool]:
    """(some word wins from qa in a and loses from qb in b, the converse)."""
    nodes, arcs = pair_product(a, qa, b, qb)
    left = sorted({x for _, _, x, _ in arcs})
    right = sorted({y for _, _, _, y in arcs})

    def cycle_with_maxima(p1, p2) -> bool:
        kept = [(u, v, x, y) for u, v, x, y in arcs if x <= p1 and y <= p2]
        comp = _components(nodes, [(u, v) for u, v, _, _ in kept])
        inner = [(comp[u], x, y) for u, v, x, y in kept if comp[u] == comp[v]]
        tops_left = {k for k, x, _ in inner if x == p1}
        return any(k in tops_left for k, _, y in inner if y == p2)

    def flag(left_parity: int) -> bool:
        return any(
            cycle_with_maxima(p1, p2)
            for p1 in left
            if p1 % 2 == left_parity
            for p2 in right
            if p2 % 2 != left_parity
        )

    return flag(0), flag(1)


def residual_relation(a: Machine, q1, q2) -> str:
    win_lose, lose_win = parity_flags(a, q1, a, q2)
    if win_lose and lose_win:
        return "incomparable"
    if win_lose:
        return "greater"
    if lose_win:
        return "less"
    return "equal"


def word_label(word) -> str:
    if not word:
        return "[ε]"
    if all(isinstance(c, str) and len(c) == 1 for c in word):
        return "[" + "".join(word) + "]"
    return "[" + ",".join(str(c) for c in word) + "]"


def expected_rc_skeleton(a: Machine) -> dict:
    """The right-congruence quotient of ``a``, its states named by the
    shortest (breadth-first, alphabet-order) word reaching each class."""
    reps: list = []
    class_of: dict = {}
    for s in a.states:
        for i, r in enumerate(reps):
            if residual_relation(a, s, r) == "equal":
                class_of[s] = i
                break
        else:
            class_of[s] = len(reps)
            reps.append(s)
    labels = {class_of[a.init]: ()}
    queue = deque([class_of[a.init]])
    while queue:
        k = queue.popleft()
        for c in a.alphabet:
            nxt = class_of[a.delta[(reps[k], c)]]
            if nxt not in labels:
                labels[nxt] = labels[k] + (c,)
                queue.append(nxt)
    name = {k: word_label(w) for k, w in labels.items()}
    upd = sorted(
        [name[k], c, name[class_of[a.delta[(reps[k], c)]]]]
        for k in labels
        for c in a.alphabet
    )
    return {"init": name[class_of[a.init]], "states": sorted(name.values()), "upd": upd}


def check_rc_report(a: Machine, report: dict, code: int):
    require(code == 0, f"rc-automaton exited {code}")
    want = expected_rc_skeleton(a)
    got = report["skeleton"]
    require(got["init"] == want["init"], "quotient has the wrong initial class")
    require(sorted(got["states"]) == want["states"],
            f"quotient classes {sorted(got['states'])} != {want['states']}")
    require(sorted(got["upd"]) == want["upd"], "quotient transitions differ")
    require(report["states"] == len(want["states"]), "state count differs")


def check_residual_report(a: Machine, w1, w2, report: dict, code: int):
    require(code == 0, f"residuals exited {code}")
    want = residual_relation(a, a.run(w1), a.run(w2))
    require(report["relation"] == want, f"relation {report['relation']!r} != {want!r}")


def dpa_language_mismatch(out: Machine, source: Machine) -> bool:
    win_lose, lose_win = parity_flags(out, out.init, source, source.init)
    return win_lose or lose_win


def all_supports_small(m: Machine) -> list:
    """Every strongly connected subset of a small machine's transitions."""
    out = []
    for r in range(1, len(m.edges) + 1):
        for subset in itertools.combinations(m.edges, r):
            if is_strongly_connected(subset):
                out.append(frozenset((s, c) for s, c, _ in subset))
    return out


def muller_language_mismatch(out: Machine, skeleton: Machine, winning) -> bool:
    """Does some cycle of ``out x skeleton`` get different values from the
    automaton's priorities and from the Muller table ``winning``?"""
    nodes, product_arcs = product(out, out.init, skeleton, skeleton.init)
    arcs = [(u, v, out.prio[(u[0], c)], (u[1], c)) for u, c, v in product_arcs]
    priorities = sorted({p for _, _, p, _ in arcs})
    for support in all_supports_small(skeleton):
        value = WIN if support in winning else LOSE
        for p in priorities:
            if (p % 2 == 0) == (value == WIN):
                continue
            kept = [(u, v, x, t) for u, v, x, t in arcs if x <= p and t in support]
            comp = _components(nodes, [(u, v) for u, v, _, _ in kept])
            seen: dict = {}
            tops = set()
            for u, v, x, t in kept:
                if comp[u] == comp[v]:
                    seen.setdefault(comp[u], set()).add(t)
                    if x == p:
                        tops.add(comp[u])
            if any(seen[k] == support for k in tops):
                return True
    return False


# -- discounted sums ---------------------------------------------------------------


_DS_TABLES: dict = {}


def ds_lasso_table(lam: Fraction, k: int, max_prefix: int, max_period: int) -> list:
    """[(prefix, period, value)] for every lasso up to the given lengths,
    valued by the exact closed form of the discounted sum."""
    key = (lam, k, max_prefix, max_period)
    if key not in _DS_TABLES:
        colors = range(-k, k + 1)

        def words(n):
            return [w for r in range(n + 1) for w in itertools.product(colors, repeat=r)]

        def ds(w):
            return sum((Fraction(c) * lam**i for i, c in enumerate(w)), Fraction(0))

        prefixes = [(w, ds(w), lam ** len(w)) for w in words(max_prefix)]
        periods = [(w, ds(w) / (1 - lam ** len(w))) for w in words(max_period) if w]
        _DS_TABLES[key] = [
            (u, v, WIN if su + scale * sv >= 0 else LOSE)
            for u, su, scale in prefixes
            for v, sv in periods
        ]
    return _DS_TABLES[key]


def ds_language_mismatch(out: Machine, lam: Fraction, k: int, max_prefix=2, max_period=3):
    for prefix, period, want in ds_lasso_table(lam, k, max_prefix, max_period):
        if out.lasso_parity_value(prefix, period) != want:
            return {"prefix": list(prefix), "period": list(period), "oracle": want}
    return None


# -- condition documents -------------------------------------------------------------


def language_mismatch(automaton_doc: dict, condition_doc: dict):
    """None when the automaton recognizes the condition, else a description."""
    out = Machine(automaton_doc)
    kind = condition_doc["kind"]
    if kind == "dpa":
        if dpa_language_mismatch(out, Machine(condition_doc["automaton"])):
            return "language differs from the source automaton"
        return None
    if kind == "muller":
        sk = Machine(condition_doc["skeleton"])
        winning = {frozenset((s, c) for s, c in rows) for rows in condition_doc["winning_supports"]}
        if muller_language_mismatch(out, sk, winning):
            return "language differs from the Muller table"
        return None
    if kind == "discounted-sum":
        lam = Fraction(*condition_doc["lambda"])
        return ds_language_mismatch(out, lam, condition_doc["k"])
    raise OracleMismatch(f"no language oracle for condition kind {kind!r}")
