"""Word-level references for witnesses, each its own search.

``reference_closed_walk`` finds each leg of a covering walk with a private
first-in-first-out search over the support's transitions and a ``prev``
map, reversed at the end.  ``reference_prefix_pair`` searches the product
of a skeleton and the right-congruence automaton with its own queue and
rebuilds the two witness prefixes by walking parents.  Both are the
references for the words that ``skeletons.word_to`` reads off ``bfs``.
``reference_mp_report`` is the mean-payoff counterexample built from the
whole word and the set of its zero positions, the reference for the
block-by-block check of ``consistency.mp_counterexample_report``.
"""

from collections import deque
from fractions import Fraction

from skelparity.conditions import right_congruence_automaton
from skelparity.consistency import ConsistencyReport
from skelparity.errors import InputError, InternalConsistencyError
from skelparity.skeletons import support_transitions


def reference_closed_walk(m, support: int, anchor) -> list:
    trans = support_transitions(m, support)
    if not trans:
        raise InputError("empty support has no covering walk")
    out_edges: dict = {}
    for t in trans:
        out_edges.setdefault(t[0], []).append(t)
    if anchor not in out_edges:
        raise InputError(f"anchor {anchor!r} is not on the support")

    def path_colors(src, dst) -> list:
        if src == dst:
            return []
        prev: dict = {}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for s, c in out_edges.get(v, ()):
                w = m.step(s, c)
                if w not in prev and w != src:
                    prev[w] = (s, c)
                    if w == dst:
                        queue.clear()
                        break
                    queue.append(w)
        if dst not in prev:
            raise InputError("support is not strongly connected")
        rev = []
        v = dst
        while v != src:
            s, c = prev[v]
            rev.append(c)
            v = s
        return rev[::-1]

    walk: list = []
    current = anchor
    uncovered = set(trans)

    def traverse(colors):
        nonlocal current
        for c in colors:
            uncovered.discard((current, c))
            walk.append(c)
            current = m.step(current, c)

    for target in trans:
        if target in uncovered:
            traverse(path_colors(current, target[0]))
            traverse([target[1]])
    traverse(path_colors(current, anchor))
    return walk


def reference_prefix_pair(cond, m):
    """The prefix-pair witness of ``check_prefix_independence``, or None."""
    rc = right_congruence_automaton(cond)
    start = (m.init, rc.init)
    parent = {start: (None, None)}
    first_pair = {m.init: start}
    queue = deque([start])

    def word(pair) -> list:
        colors = []
        while parent[pair][0] is not None:
            pair, c = parent[pair]
            colors.append(c)
        return colors[::-1]

    while queue:
        p = queue.popleft()
        for c in m.alphabet:
            pair = (m.step(p[0], c), rc.step(p[1], c))
            if pair in parent:
                continue
            parent[pair] = (p, c)
            queue.append(pair)
            first = first_pair.setdefault(pair[0], pair)
            if first != pair:
                return {"kind": "prefix-pair", "state": pair[0], "w1": word(first), "w2": word(pair)}
    return None


def reference_mp_report(n_max: int) -> ConsistencyReport:
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    rows = []
    for n in range(n_max + 1):
        period = (1,) * n + (-1,) * (n + 1)
        mp = Fraction(sum(period), len(period))
        if mp != Fraction(-1, 2 * n + 1):
            raise InputError(f"mean payoff mismatch at n={n}")
        rows.append({"n": n, "period_length": len(period), "mean_payoff": str(mp)})
    word: list = []
    for n in range(n_max + 1):
        word += [1] * n + [-1] * (n + 1)
    running = 0
    zero_positions = set()
    for i, c in enumerate(word, start=1):
        running += c
        if running == 0:
            zero_positions.add(i)
    checked = []
    for n in range(1, n_max + 1):
        pos = n * n + n
        if pos not in zero_positions:
            raise InternalConsistencyError(f"running sum not zero at position {pos}")
        checked.append(pos)
    return ConsistencyReport(
        verdict="fail",
        witness={
            "kind": "word-family",
            "family": "w_n = 1^n (-1)^(n+1)",
            "losing_periods_verified": n_max + 1,
            "zero_positions": checked,
            "statement": (
                "every (w_n)^omega is losing, but the concatenation "
                "w_0 w_1 w_2 ... attains mean payoff 0 and wins"
            ),
        },
        details={"table": rows},
    )
