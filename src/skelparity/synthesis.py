"""Parity-automaton synthesis via the cycle-competition preorder.

Pipeline: classify every cycle support of the skeleton as winning or losing,
compute the competition and domination relations between opposite-value
supports, extend the induced strict preorder to same-value supports through
an intermediate opposite-value support, quotient by equal (value,
competition set, domination set), pick a parity-respecting strictly
monotone numbering of the classes, and transfer it to transitions by
minimizing over the inclusion-minimal supports through each transition.

The final automaton is verified both exhaustively (max priority parity of
every support equals its value) and against the condition on random
lassos of color indices.  Each lasso is walked while it is drawn
(:func:`walk_lassos`), on the support analysis' product of the automaton's
skeleton and the condition's automaton, whose cells carry both weights
side by side; a discounted sum is judged instead by its exact integer
judge (:func:`~skelparity.conditions.lasso_judge`).

:func:`synthesize` builds the right-congruence automaton once, forms
``base`` = (congruence automaton x skeleton), and builds one
:class:`~skelparity.consistency.SupportAnalysis` on ``base``: its
cycle-consistency check, the support values of the classification and the
support-parity half of the verification all read that one analysis.  Every
state of ``base`` fixes its congruence class, so there is no
prefix-independence stage.  The class table relies on the
cycle-consistency checked first: only opposite-value supports need their
union looked up, once per pair.

The class table and the priority transfer read the supports through a
:class:`~skelparity.skeletons.SupportIndex`, their transposed form: per
transition, the bitset of the supports holding it.  The class table is
built from one support analysis, in :func:`synthesize` and in
:func:`build_cycle_preorder` alike, and reads the index that the
analysis built for its cycle-consistency check; the table carries that
index on to :func:`assign_priorities`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, reduce
from operator import or_
from typing import Callable, Optional, Sequence

from .conditions import (
    Condition,
    DiscountedSumCondition,
    DpaCondition,
    WIN,
    LOSE,
    _close_cycle,
    lasso_judge,
    right_congruence_automaton,
    support_automaton,
)
from .consistency import SupportAnalysis, check_prefix_independence
from .errors import (
    InputError,
    InternalConsistencyError,
    PreconditionError,
    TransientTransitionError,
)
from .skeletons import (
    DEFAULT_SUPPORT_CAP,
    ParityAutomaton,
    Skeleton,
    SupportIndex,
    bfs,
    bit_indices,
    mask_map,
    out_masks,
    product,
    support_label,
    support_transitions,
)


@dataclass(frozen=True)
class ClassEntry:
    class_id: str
    representative: int  # the canonically least member
    value: str
    members: tuple[int, ...]  # support masks, in canonical order


@dataclass(frozen=True, eq=False)
class CycleClassTable:
    """Classified supports with competition, domination and the preorder,
    quotiented into equivalence classes."""

    skeleton: Skeleton
    supports: tuple[tuple[int, str], ...]  # (support mask, value), canonical order
    index: SupportIndex  # the transposed form of the supports
    classes: tuple[ClassEntry, ...]  # canonical order of the representatives
    class_of: dict  # support mask -> class id
    competes: frozenset  # unordered competition, stored as both (a,b),(b,a)
    dominates: frozenset  # (dominator, dominated)
    order: frozenset  # (lower, higher): lower is below higher

    def hasse_edges(self) -> list[tuple[str, str]]:
        """Cover pairs of the strict order on classes, canonically sorted."""
        edges = []
        for lo, hi in self.order:
            if any(
                (lo, mid) in self.order and (mid, hi) in self.order
                for mid in (e.class_id for e in self.classes)
            ):
                continue
            edges.append((lo, hi))
        return sorted(edges)


def _checked_analysis(m: Skeleton, cond: Condition, cap: int) -> SupportAnalysis:
    """The support analysis of ``m``, once the preconditions that
    :func:`classify_supports` names hold."""
    pi = check_prefix_independence(cond, m, cap=cap)
    if not pi.passed:
        raise PreconditionError(
            "cycle classification requires prefix-independence relative to "
            f"the skeleton; the check failed with witness {pi.witness}"
        )
    analysis = SupportAnalysis(cond, m, cap=cap)
    cc = analysis.cycle_consistency()
    if not cc.passed:
        raise PreconditionError(
            "cycle classification requires cycle-consistency relative to "
            f"the skeleton; the check failed with witness {cc.witness}"
        )
    return analysis


def classify_supports(
    m: Skeleton,
    cond: Condition,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> list[tuple[int, str]]:
    """Label every cycle support mask of ``m`` as winning or losing, in
    canonical order.

    Values are read off the condition's automaton by the support analysis
    of ``m``; cycle-consistency of the pair (condition, skeleton) gives
    every support one value.  Both preconditions are checked first:
    prefix-independence relative to ``m``, then cycle-consistency on the
    support analysis that the values are read from.
    """
    return _checked_analysis(m, cond, cap).classified()


def build_cycle_preorder(
    m: Skeleton,
    cond: Condition,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> CycleClassTable:
    """Full competition/domination analysis quotiented by equivalence.

    The preconditions are checked as by :func:`classify_supports`.  The
    strict order on classes is verified to be irreflexive and transitive; a
    violation falsifies the consistency preconditions and raises an
    internal-consistency error naming the offending classes.
    """
    return _class_table(_checked_analysis(m, cond, cap))


def _class_table(analysis: SupportAnalysis) -> CycleClassTable:
    """The class table of :func:`build_cycle_preorder` from the support
    analysis of a skeleton ``m``: its supports, classified in canonical
    order by :meth:`~skelparity.consistency.SupportAnalysis.classified`,
    and their :class:`~skelparity.skeletons.SupportIndex`, which the table
    keeps for the priority transfer.

    Precondition: the pair (condition, ``m``) that classified them is
    cycle-consistent, as both callers check first.  So the union of two
    same-value supports sharing a state keeps their value, and only the
    opposite-value pairs need their union looked up.  That union is a
    support of one of the two values, so one lookup per pair decides for
    both supports whether the other keeps its value.

    Supports are numbered by their position and every relation is a bitset
    over these numbers.  The supports sharing a state with support ``g``
    are read off the index as ``holding`` of the transitions leaving the
    states of ``g``.  Two opposite-value supports g1, g2 compete when
    some support zeta sharing a state with each keeps both values in
    g1 | zeta and g2 | zeta; the least such zeta decides domination by the
    value of g1 | g2 | zeta.  A support is below every support that
    dominates it, and below every support that dominates one of those.
    """
    m = analysis.skeleton
    classified = analysis.classified()
    index = analysis.index
    masks = [g for g, _ in classified]
    index_of = {g: i for i, g in enumerate(masks)}
    wins = [value == WIN for _, value in classified]
    win = sum(1 << i for i, w in enumerate(wins) if w)
    lose = (1 << len(masks)) - 1 & ~win
    # leaving_states(g): the transitions leaving the states of support g
    leaving_states = mask_map([out for out in out_masks(m) for _ in m.alphabet])
    # touch[i]: the supports sharing a state with support i
    touch = [index.holding(leaving_states(g)) for g in masks]
    # keep[i]: the supports in touch[i] whose union with support i keeps its
    # value, all those of its own value by cycle-consistency; the competition
    # witnesses of supports i and j are keep[i] & keep[j]
    keep = [t & (win if w else lose) for t, w in zip(touch, wins)]
    for i, g in enumerate(masks):
        for k in bit_indices((touch[i] & (lose if wins[i] else win)) >> i + 1):
            k += i + 1
            if wins[index_of[g | masks[k]]] == wins[i]:
                keep[i] |= 1 << k
            else:
                keep[k] |= 1 << i
    compar = [0] * len(masks)
    dom = [0] * len(masks)
    for i, g in enumerate(masks):
        for j in bit_indices((lose if wins[i] else win) >> i + 1):
            j += i + 1
            witnesses = keep[i] & keep[j]
            if witnesses:
                compar[i] |= 1 << j
                compar[j] |= 1 << i
                zeta = masks[(witnesses & -witnesses).bit_length() - 1]
                if wins[index_of[g | masks[j] | zeta]] == wins[i]:
                    dom[i] |= 1 << j
                else:
                    dom[j] |= 1 << i
    # domination runs between opposite values and one way per pair, so the
    # two-step part of below[i] holds supports of i's own value, never i
    below = [reduce(or_, (dom[mid] for mid in bit_indices(d)), d) for d in dom]

    groups: dict = {}
    for i in range(len(masks)):
        groups.setdefault((wins[i], compar[i], dom[i]), []).append(i)
    # members of a class share their competition and domination sets, so
    # every relation between classes is read off the representatives
    classes = list(groups.values())
    reps = [members[0] for members in classes]
    ids = [support_label(m, masks[r]) for r in reps]
    class_index = {i: c for c, members in enumerate(classes) for i in members}

    def lift(rel: list) -> frozenset:
        return frozenset(
            (ids[c], ids[class_index[k]]) for c, r in enumerate(reps) for k in bit_indices(rel[r])
        )

    above = [0] * len(classes)  # above[c]: the classes strictly above class c
    for c, r in enumerate(reps):
        for d in {class_index[k] for k in bit_indices(below[r])}:
            if any(not below[r] >> i & 1 for i in classes[d]):
                raise InternalConsistencyError(
                    f"order between classes {ids[d]} and {ids[c]} is not uniform "
                    "across members; the consistency preconditions are falsified"
                )
            above[d] |= 1 << c
    for a, up in enumerate(above):
        if up >> a & 1:
            raise InternalConsistencyError(f"class {ids[a]} compares below itself")
        for b in bit_indices(up):
            for d in bit_indices(above[b] & ~up):
                raise InternalConsistencyError(
                    f"order not transitive: {ids[a]} < {ids[b]} < {ids[d]} "
                    f"but not {ids[a]} < {ids[d]}"
                )

    return CycleClassTable(
        skeleton=m,
        supports=tuple(classified),
        index=index,
        classes=tuple(
            ClassEntry(ids[c], masks[r], classified[r][1], tuple(masks[i] for i in classes[c]))
            for c, r in enumerate(reps)
        ),
        class_of={masks[i]: ids[c] for i, c in class_index.items()},
        competes=lift(compar),
        dominates=lift(dom),
        order=frozenset((ids[d], ids[c]) for d, up in enumerate(above) for c in bit_indices(up)),
    )


# ---------------------------------------------------------------------------
# priorities
# ---------------------------------------------------------------------------


def _parity_of(value: str) -> int:
    return 0 if value == WIN else 1


def linear_extension(table: CycleClassTable) -> dict:
    """Greedy layered numbering: topological order on the class preorder,
    smallest number of the right parity strictly above everything below."""
    ids = [e.class_id for e in table.classes]
    preds: dict = {cid: set() for cid in ids}
    for lo, hi in table.order:
        preds[hi].add(lo)
    assigned: dict = {}
    pending = set(ids)
    value = {e.class_id: e.value for e in table.classes}
    while pending:
        ready = [cid for cid in ids if cid in pending and preds[cid] <= set(assigned)]
        if not ready:
            raise InternalConsistencyError("class order contains a cycle")
        cid = ready[0]
        floor = max((assigned[p] for p in preds[cid]), default=-1)
        n = floor + 1
        if n % 2 != _parity_of(value[cid]):
            n += 1
        assigned[cid] = n
        pending.discard(cid)
    return assigned


def validate_extension(table: CycleClassTable, pgamma: dict) -> None:
    """Accept any parity-correct strictly monotone numbering of the classes."""
    ids = {e.class_id for e in table.classes}
    if set(pgamma) != ids:
        raise InputError("numbering must cover exactly the classes of the table")
    for e in table.classes:
        n = pgamma[e.class_id]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InputError(f"class {e.class_id} got a non-natural number")
        if n % 2 != _parity_of(e.value):
            raise InputError(
                f"class {e.class_id} has value {e.value} but number {n}"
            )
    for lo, hi in table.order:
        if not pgamma[lo] < pgamma[hi]:
            raise InputError(
                f"numbering not strictly monotone: {lo} < {hi} in the order "
                f"but {pgamma[lo]} >= {pgamma[hi]}"
            )


def assign_priorities(
    m: Skeleton,
    table: CycleClassTable,
    pgamma: dict,
    allow_transient: bool = False,
) -> ParityAutomaton:
    """Transfer class numbers to transitions.

    A transition receives the least class number among the
    inclusion-minimal supports through it.  Transitions on no support are
    transient; by default they are an error, with ``allow_transient`` they
    receive the least class number reachable from their target (their
    priority never matters in the limit since they occur finitely often).

    Read off ``table.index``, the
    :class:`~skelparity.skeletons.SupportIndex` of the table's supports:
    the supports strictly inside support ``k`` are
    ``~not_inside(k)`` without ``k``, and ``k`` is minimal for a transition
    ``t`` of it iff none of them is in ``col[t]``.
    """
    validate_extension(table, pgamma)
    index = table.index
    transitions = [(s, c) for s, c, _ in m.transitions]
    transient = tuple(t for t, col in zip(transitions, index.col) if not col)
    if transient and not allow_transient:
        raise TransientTransitionError(
            "transitions on no cycle cannot receive a priority from the "
            "class numbering; prune them or pass allow_transient="
            f"True (offending: {transient})",
            transient,
        )

    least: dict = {}  # transition index -> least number of its minimal supports
    for k, (g, _) in enumerate(table.supports):
        smaller = index.everyone ^ index.not_inside(k) ^ 1 << k
        n = pgamma[table.class_of[g]]
        for i in bit_indices(g):
            if not smaller & index.col[i]:
                least[i] = min(n, least.get(i, n))
    leaving, n, targets = out_masks(m), len(m.alphabet), m.targets
    class_cover = {e.class_id: reduce(or_, e.members) for e in table.classes}
    priority: dict = {}
    for i, t in enumerate(transitions):
        if i in least:
            priority[t] = least[i]
        else:
            # a class is reachable when one of its supports leaves a reachable state
            reachable = bfs(targets[i], range(n), lambda j, c: targets[j * n + c])
            after = reduce(or_, (leaving[j] for j, _, _ in reachable))
            candidates = [
                pgamma[e.class_id]
                for e in table.classes
                if class_cover[e.class_id] & after
            ]
            priority[t] = min(candidates)
    return ParityAutomaton.make(m, priority)


# ---------------------------------------------------------------------------
# verification and the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    supports_checked: int
    lassos_checked: int
    support_mismatch: Optional[dict] = None
    lasso_mismatch: Optional[dict] = None


def walk_lassos(
    rng: random.Random, nxt: Sequence[int], w: Sequence[int], init: int,
    alphabet: Sequence, samples: int, judge: Callable[[int, list, list], tuple],
) -> tuple[int, Optional[dict]]:
    """Draw ``samples`` lassos of color indices into ``alphabet``, each a
    prefix of 0 to 6 indices and a period of 1 to 6, walking flat tables
    ``nxt`` and ``w`` like those of :func:`~skelparity.conditions._walk_tables`,
    read off integer forms (:attr:`~skelparity.skeletons.Skeleton.targets`),
    from row ``init`` as each color comes: a prefix color moves the run, a
    period color extends the first block, and only when that block does not
    end where it began is the period read again
    (:func:`~skelparity.conditions._close_cycle`).  ``judge(mask, prefix,
    period)`` gives the (automaton, oracle) values of a lasso whose cycle
    ORs ``w`` to ``mask``.  Returns the lassos judged and the first
    disagreement, or None.

    Each draw below a bound reads ``rng.getrandbits`` as
    ``random.Random._randbelow`` does, until a number falls below it (3 bits
    for either length, ``n.bit_length()`` for a color), so the stream is that
    of the reference sampler ``random_lasso`` of ``tests/lasso_oracle.py``
    and ``rng`` ends in the same state; index ``i`` stands for ``alphabet[i]``.
    """
    getrandbits = rng.getrandbits
    n = len(alphabet)
    k = n.bit_length()
    for count in range(1, samples + 1):
        r = getrandbits(3)
        while r == 7:
            r = getrandbits(3)
        s = init
        prefix = []
        for _ in range(r):
            c = getrandbits(k)
            while c >= n:
                c = getrandbits(k)
            prefix.append(c)
            s = nxt[s + c]
        r = getrandbits(3)
        while r >= 6:
            r = getrandbits(3)
        start, mask = s, 0
        period = []
        for _ in range(r + 1):
            c = getrandbits(k)
            while c >= n:
                c = getrandbits(k)
            period.append(c)
            c += s
            mask |= w[c]
            s = nxt[c]
        if s != start:
            mask = _close_cycle(nxt, w, period, s, [start], [mask])
        got, want = judge(mask, prefix, period)
        if got != want:
            return count, {
                "prefix": [alphabet[c] for c in prefix],
                "period": [alphabet[c] for c in period],
                "automaton": got,
                "oracle": want,
            }
    return samples, None


def verify_synthesis(
    out: ParityAutomaton,
    cond: Condition,
    samples: int = 1000,
    seed: int = 0,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> VerifyReport:
    """Exhaustive support-parity check plus randomized lasso agreement.

    Every cycle support of the output automaton must have an even maximal
    priority exactly when the condition declares it winning, its values
    read off the condition's automaton by the support analysis, and the
    automaton must agree with the condition on ``samples`` ultimately
    periodic words.  The words are drawn as color indices into the
    skeleton's alphabet by :func:`walk_lassos`, seeded by ``seed``: the
    same stream as the reference sampler ``random_lasso`` of
    ``tests/lasso_oracle.py``.  Each word is walked while it is drawn, on
    the product of the automaton's skeleton and the condition's automaton
    ``D`` that the support analysis built once (the skeleton renamed, when
    ``D``'s state is a function of the automaton's).  Its cells carry the
    weights of both in disjoint bit fields, so the OR over the cycle the
    word repeats gives the top priority and ``D``'s value at once.  A
    discounted sum is judged instead by its exact integer judge
    (:func:`~skelparity.conditions.lasso_judge`).  Colors are built only
    for a mismatch.  The first discrepancy of each kind is reported.  A negative
    ``samples`` raises :class:`InputError`; conditions without such an
    automaton raise :class:`PreconditionError` (mean and total payoff) or
    :class:`InfiniteIndexError` (discounted sums of infinite index).
    """
    if samples < 0:
        raise InputError("samples must be a natural number")
    analysis = SupportAnalysis(cond, out.skeleton, cap=cap)
    return _verify(out, cond, analysis, samples, seed)


def _verify(
    out: ParityAutomaton,
    cond: Condition,
    analysis: SupportAnalysis,
    samples: int,
    seed: int,
) -> VerifyReport:
    """:func:`verify_synthesis` given the support analysis of the
    automaton's skeleton, whose ``D`` valuation and product it reads:
    it builds no automaton of the condition and no product of its own.  A
    support of two values is a mismatch, reported with the value that the
    top priority's parity contradicts.  :func:`walk_lassos` draws, walks
    and judges the lassos, asking the pair of values once per OR."""
    sk = out.skeleton
    _, weights, parity_of = support_automaton(DpaCondition(out))
    to_parity = mask_map(weights)
    support_mismatch = None
    n_supports = 0
    for sup, values in zip(analysis.supports, analysis.value_sets):
        n_supports += 1
        parity = parity_of(to_parity(sup))
        if values != {parity}:
            transitions = support_transitions(sk, sup)
            support_mismatch = {
                "support": [list(t) for t in transitions],
                "max_priority": out.max_support_priority(transitions),
                "oracle": LOSE if parity == WIN else WIN,
            }
            break

    # the analysis' product reads exactly the condition's colors, so the
    # words need no color check.  The OR of a walk on its cells holds the
    # rank bits of ``out`` below ``shift`` and D's above; pair 0 is initial
    alphabet = sk.alphabet
    shift = max(weights).bit_length()
    low = (1 << shift) - 1
    nxt = [k * len(alphabet) for k in analysis.succ]
    run = [weights[i] | d << shift for i, d in zip(analysis.images, analysis.d_weights)]
    if isinstance(cond, DiscountedSumCondition):
        # the sum's exact integer judge: the one run-time check of its gap automaton
        parity = cache(lambda mask: parity_of(mask & low))
        oracle = lasso_judge(cond, alphabet)
        judge = lambda mask, prefix, period: (parity(mask), oracle(prefix, period))
    else:
        values = cache(lambda mask: (parity_of(mask & low), analysis.value(mask >> shift)))
        judge = lambda mask, prefix, period: values(mask)
    n_lassos, lasso_mismatch = walk_lassos(
        random.Random(seed), nxt, run, 0, alphabet, samples, judge
    )

    return VerifyReport(
        passed=support_mismatch is None and lasso_mismatch is None,
        supports_checked=n_supports,
        lassos_checked=n_lassos,
        support_mismatch=support_mismatch,
        lasso_mismatch=lasso_mismatch,
    )


class SynthesisStageError(RuntimeError):
    def __init__(self, stage: str, witness):
        super().__init__(f"synthesis stage {stage!r} failed: {witness}")
        self.stage = stage
        self.witness = witness


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    automaton: ParityAutomaton
    table: CycleClassTable
    pgamma: dict
    verify: VerifyReport
    base: Skeleton


def synthesize(
    cond: Condition,
    m: Skeleton,
    cap: int = DEFAULT_SUPPORT_CAP,
    samples: int = 1000,
    seed: int = 0,
    allow_transient: bool = False,
) -> SynthesisResult:
    """End-to-end synthesis of a deterministic parity automaton for the
    condition on top of (right-congruence automaton x given skeleton)."""
    if samples < 0:
        raise InputError("samples must be a natural number")
    base = product(right_congruence_automaton(cond, cap=cap), m)
    analysis = SupportAnalysis(cond, base, cap=cap)
    cc = analysis.cycle_consistency()
    if not cc.passed:
        raise SynthesisStageError("cycle-consistency", cc.witness)
    table = _class_table(analysis)
    pgamma = linear_extension(table)
    automaton = assign_priorities(base, table, pgamma, allow_transient=allow_transient)
    # the automaton's skeleton is ``base``, the skeleton of the analysis
    report = _verify(automaton, cond, analysis, samples, seed)
    if not report.passed:
        raise SynthesisStageError(
            "verification", report.support_mismatch or report.lasso_mismatch
        )
    return SynthesisResult(
        automaton=automaton,
        table=table,
        pgamma=pgamma,
        verify=report,
        base=base,
    )
