"""Parity-automaton synthesis via the cycle-competition preorder.

Pipeline: classify every cycle support of the skeleton as winning or losing,
compute the competition and domination relations between opposite-value
supports, extend the induced strict preorder to same-value supports through
an intermediate opposite-value support, quotient by equal (value,
competition set, domination set), pick a parity-respecting strictly
monotone numbering of the classes, and transfer it to transitions by
minimizing over the inclusion-minimal supports through each transition.

The final automaton is verified both exhaustively (max priority parity of
every support equals its value) and against the condition's word oracle on
random lassos.

:func:`synthesize` builds the right-congruence automaton once, forms
``base`` = (congruence automaton x skeleton), and builds one
:class:`~skelparity.consistency.SupportAnalysis` on ``base``: its
cycle-consistency check, the support values of the classification and the
support-parity half of the verification all read that one analysis.  Every
state of ``base`` fixes its congruence class, so there is no
prefix-independence stage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .conditions import (
    Condition,
    DpaCondition,
    Lasso,
    WIN,
    LOSE,
    lasso_value,
    right_congruence_automaton,
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
    Color,
    ParityAutomaton,
    Skeleton,
    State,
    product,
    sorted_support,
    support_key,
    support_label,
    support_states,
)

Support = frozenset  # of Transition


@dataclass(frozen=True)
class ClassEntry:
    class_id: str
    representative: Support
    value: str
    members: tuple[Support, ...]


@dataclass(frozen=True, eq=False)
class CycleClassTable:
    """Classified supports with competition, domination and the preorder,
    quotiented into equivalence classes."""

    skeleton: Skeleton
    supports: tuple[tuple[Support, str], ...]
    classes: tuple[ClassEntry, ...]
    class_of: dict
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


def classify_supports(
    m: Skeleton,
    cond: Condition,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> list[tuple[Support, str]]:
    """Label every cycle support of ``m`` as winning or losing.

    Values are obtained from the word oracle on a lasso realizing the
    support; consistency of the pair (condition, skeleton) makes the value
    independent of the realizing walk and anchor.  Both preconditions are
    checked first: prefix-independence relative to ``m``, then
    cycle-consistency on the support analysis of ``m`` that the values are
    read from.
    """
    if not cond.union_invariant:
        raise PreconditionError(
            "support classification is only meaningful for conditions whose "
            "cycle values depend on the transition set alone"
        )
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
    return list(analysis.least_state_values())


def competing_witness(
    g1: Support,
    g2: Support,
    values: Mapping[Support, str],
) -> Optional[Support]:
    """Canonically least support linking two opposite-value supports while
    preserving both their values, or None if the two do not compete.

    ``values`` maps every classified support to its value, in canonical
    support order."""
    if g1 not in values or g2 not in values:
        raise InputError("both supports must come from the classified table")
    if values[g1] == values[g2]:
        raise InputError("competition is defined for opposite-value supports")
    s1, s2 = support_states(g1), support_states(g2)
    for zeta in values:
        zs = support_states(zeta)
        if not (zs & s1) or not (zs & s2):
            continue
        if values[g1 | zeta] == values[g1] and values[g2 | zeta] == values[g2]:
            return zeta
    return None


def dominates(
    g1: Support,
    g2: Support,
    zeta: Support,
    values: Mapping[Support, str],
) -> Support:
    """Which of two competing supports keeps its value in the combined cycle."""
    if values[g1] == values[g2]:
        raise InputError("domination is defined for opposite-value supports")
    zs = support_states(zeta)
    if (
        not (zs & support_states(g1))
        or not (zs & support_states(g2))
        or values[g1 | zeta] != values[g1]
        or values[g2 | zeta] != values[g2]
    ):
        raise InputError("zeta is not a valid witness for this pair")
    combined = values[g1 | g2 | zeta]
    return g1 if combined == values[g1] else g2


def build_cycle_preorder(
    m: Skeleton,
    cond: Condition,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> CycleClassTable:
    """Full competition/domination analysis quotiented by equivalence.

    The strict order on classes is verified to be irreflexive and
    transitive; a violation falsifies the consistency preconditions and
    raises an internal-consistency error naming the offending classes.
    """
    return _class_table(m, classify_supports(m, cond, cap=cap))


def _class_table(
    m: Skeleton, classified: Sequence[tuple[Support, str]]
) -> CycleClassTable:
    """The class table of :func:`build_cycle_preorder` from supports of ``m``
    already classified, in canonical order."""
    values = dict(classified)
    supports = list(values)

    compar: dict = {g: set() for g in supports}
    dom: dict = {g: set() for g in supports}
    for i, g1 in enumerate(supports):
        for g2 in supports[i + 1 :]:
            if values[g1] == values[g2]:
                continue
            zeta = competing_witness(g1, g2, values)
            if zeta is None:
                continue
            compar[g1].add(g2)
            compar[g2].add(g1)
            winner = dominates(g1, g2, zeta, values)
            loser = g2 if winner == g1 else g1
            dom[winner].add(loser)

    below: dict = {g: set() for g in supports}  # below[g] = supports under g
    for g in supports:
        below[g] |= dom[g]
    for g1 in supports:
        for g2 in supports:
            if g1 == g2 or values[g1] != values[g2]:
                continue
            # g2 below g1 via an intermediate opposite-value support
            if any(g2 in dom[mid] and mid in dom[g1] for mid in compar[g1]):
                below[g1].add(g2)

    sig: dict = {}
    for g in supports:
        sig[g] = (values[g], frozenset(compar[g]), frozenset(dom[g]))
    groups: dict = {}
    for g in supports:
        groups.setdefault(sig[g], []).append(g)
    entries = []
    class_of = {}
    for members in groups.values():
        members.sort(key=support_key)
        rep = members[0]
        cid = support_label(rep)
        entries.append(
            ClassEntry(
                class_id=cid,
                representative=rep,
                value=values[rep],
                members=tuple(members),
            )
        )
        for g in members:
            class_of[g] = cid
    entries.sort(key=lambda e: support_key(e.representative))

    def lift(rel: dict) -> frozenset:
        pairs = set()
        for a in supports:
            for b in rel[a]:
                pairs.add((class_of[a], class_of[b]))
        return frozenset(pairs)

    competes_pairs = set()
    for a in supports:
        for b in compar[a]:
            competes_pairs.add((class_of[a], class_of[b]))
    dominates_pairs = lift(dom)
    order_pairs = {(class_of[b], class_of[a]) for a in supports for b in below[a]}

    # the order must be uniform across members of each class
    by_id = {e.class_id: e for e in entries}
    for a_cls, b_cls in order_pairs:
        for ga in by_id[a_cls].members:
            for gb in by_id[b_cls].members:
                if ga not in below[gb]:
                    raise InternalConsistencyError(
                        f"order between classes {a_cls} and {b_cls} is not "
                        "uniform across members; the consistency "
                        "preconditions are falsified"
                    )

    for cid in (e.class_id for e in entries):
        if (cid, cid) in order_pairs:
            raise InternalConsistencyError(f"class {cid} compares below itself")
    for a, b in order_pairs:
        for c, d in order_pairs:
            if b == c and (a, d) not in order_pairs:
                raise InternalConsistencyError(
                    f"order not transitive: {a} < {b} < {d} but not {a} < {d}"
                )

    return CycleClassTable(
        skeleton=m,
        supports=tuple(values.items()),
        classes=tuple(entries),
        class_of=class_of,
        competes=frozenset(competes_pairs),
        dominates=frozenset(dominates_pairs),
        order=frozenset(order_pairs),
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
    key = {e.class_id: support_key(e.representative) for e in table.classes}
    value = {e.class_id: e.value for e in table.classes}
    while pending:
        ready = sorted(
            (cid for cid in pending if preds[cid] <= set(assigned)),
            key=key.__getitem__,
        )
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
    """
    validate_extension(table, pgamma)
    supports = [g for g, _ in table.supports]
    by_transition: dict = {}
    for g in supports:
        for t in g:
            by_transition.setdefault(t, []).append(g)

    transitions = [(s, c) for s, c, _ in m.transitions]
    transient = [t for t in transitions if t not in by_transition]
    if transient and not allow_transient:
        raise TransientTransitionError(
            "transitions on no cycle cannot receive a priority from the "
            "class numbering; prune them or pass allow_transient="
            f"True (offending: {sorted_support(transient)})",
            tuple(sorted_support(transient)),
        )

    reach_cache: dict = {}

    def reachable(state: State) -> frozenset:
        if state not in reach_cache:
            seen = {state}
            stack = [state]
            while stack:
                s = stack.pop()
                for c in m.alphabet:
                    t = m.step(s, c)
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            reach_cache[state] = frozenset(seen)
        return reach_cache[state]

    class_states = {
        e.class_id: frozenset().union(*(support_states(g) for g in e.members))
        for e in table.classes
    }
    priority: dict = {}
    for t in transitions:
        containing = by_transition.get(t)
        if containing:
            minimal = [
                g for g in containing if not any(g2 < g for g2 in containing)
            ]
            priority[t] = min(pgamma[table.class_of[g]] for g in minimal)
        else:
            targets = reachable(m.step(*t))
            candidates = [
                pgamma[e.class_id]
                for e in table.classes
                if class_states[e.class_id] & targets
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
    seed: int = 0


def random_lasso(rng: random.Random, alphabet: Sequence[Color], max_len: int = 6) -> Lasso:
    prefix = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
    period = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
    return Lasso(prefix, period)


def verify_synthesis(
    out: ParityAutomaton,
    cond: Condition,
    samples: int = 1000,
    seed: int = 0,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> VerifyReport:
    """Exhaustive support-parity check plus randomized lasso agreement.

    Every cycle support of the output automaton must have an even maximal
    priority exactly when the condition's oracle declares it winning, and
    the automaton must agree with the oracle on random ultimately periodic
    words.  The first discrepancy of each kind is reported.
    """
    analysis = SupportAnalysis(cond, out.skeleton, cap=cap)
    return _verify(out, cond, analysis.least_state_values(), samples, seed)


def _verify(
    out: ParityAutomaton,
    cond: Condition,
    classified: Iterable[tuple[Support, str]],
    samples: int,
    seed: int,
) -> VerifyReport:
    """:func:`verify_synthesis` given the oracle value of every support of
    the automaton's skeleton, in canonical order."""
    support_mismatch = None
    n_supports = 0
    for sup, oracle in classified:
        n_supports += 1
        automaton = WIN if out.max_support_priority(sup) % 2 == 0 else LOSE
        if oracle != automaton:
            support_mismatch = {
                "support": [list(t) for t in sorted_support(sup)],
                "max_priority": out.max_support_priority(sup),
                "oracle": oracle,
            }
            break

    rng = random.Random(seed)
    out_cond = DpaCondition(out)
    lasso_mismatch = None
    n_lassos = 0
    alphabet = out.skeleton.alphabet
    for _ in range(samples):
        n_lassos += 1
        lasso = random_lasso(rng, alphabet)
        got = lasso_value(out_cond, lasso)
        want = lasso_value(cond, lasso)
        if got != want:
            lasso_mismatch = {
                "prefix": list(lasso.prefix),
                "period": list(lasso.period),
                "automaton": got,
                "oracle": want,
            }
            break

    return VerifyReport(
        passed=support_mismatch is None and lasso_mismatch is None,
        supports_checked=n_supports,
        lassos_checked=n_lassos,
        support_mismatch=support_mismatch,
        lasso_mismatch=lasso_mismatch,
        seed=seed,
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
    congruence: Skeleton
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
    if not cond.union_invariant:
        raise PreconditionError(
            "synthesis requires a condition whose cycle values depend on "
            "transition sets alone"
        )
    rc = right_congruence_automaton(cond, cap=cap)
    base = product(rc, m)
    analysis = SupportAnalysis(cond, base, cap=cap)
    cc = analysis.cycle_consistency()
    if not cc.passed:
        raise SynthesisStageError("cycle-consistency", cc.witness)
    classified = list(analysis.least_state_values())
    table = _class_table(base, classified)
    pgamma = linear_extension(table)
    automaton = assign_priorities(base, table, pgamma, allow_transient=allow_transient)
    # the automaton's skeleton is ``base``: its supports and their values
    # are the classified ones
    report = _verify(automaton, cond, classified, samples, seed)
    if not report.passed:
        raise SynthesisStageError(
            "verification", report.support_mismatch or report.lasso_mismatch
        )
    return SynthesisResult(
        automaton=automaton,
        table=table,
        pgamma=pgamma,
        verify=report,
        congruence=rc,
        base=base,
    )
