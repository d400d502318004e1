"""JSON formats and DOT export for skeletons, automata, arenas, conditions.

Every document carries ``"format": 1`` and a ``"type"`` tag.  Serialization
is canonical (sorted keys, canonical row order, trailing newline) so emitted
files are byte-stable across runs.  DOT export follows the drawing
convention used throughout: rhombuses for skeleton states, circles for
states of player 1, boxes for states of player 2.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .conditions import (
    Condition,
    DiscountedSumCondition,
    DpaCondition,
    MeanPayoffCondition,
    MullerCondition,
    TotalPayoffCondition,
)
from .errors import InputError
from .games import Arena
from .skeletons import (
    ParityAutomaton,
    Skeleton,
    bit_indices,
    color_key,
    cut_cycles,
    support_transitions,
)

FORMAT = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _list(doc: Mapping, key: str) -> list:
    # a string or an object iterates too, into letters or keys
    value = doc[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


def _rows(rows: list, width: int, what: str) -> list:
    # a row of the right length given as a string would unpack into letters;
    # each row's color, its second item, is tested: true would stand for 1
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise InputError(f"bad {what} {row!r}")
        color_key(row[1])
    return rows


def _by_transition(rows: list, what: str) -> dict:
    """``{(state, color): x}`` of the rows ``[state, color, x]``.  A repeated
    (state, color) is refused: a dict would keep its last row unseen."""
    out = {}
    for s, c, x in _rows(rows, 3, what):
        key = (s, c)
        if key in out:
            raise InputError(f"duplicate {what} for ({s!r},{c!r})")
        out[key] = x
    return out


# -- skeletons and automata -------------------------------------------------


def skeleton_to_dict(sk: Skeleton) -> dict:
    return {
        "format": FORMAT,
        "type": "skeleton",
        "alphabet": list(sk.alphabet),
        "states": list(sk.states),
        "init": sk.init,
        "upd": [[s, c, t] for s, c, t in sk.transitions],
    }


def skeleton_from_dict(doc: Mapping) -> Skeleton:
    _expect(doc, "skeleton")
    upd = _by_transition(_list(doc, "upd"), "update row")
    return Skeleton.make(_list(doc, "states"), doc["init"], _list(doc, "alphabet"), upd)


def automaton_to_dict(aut: ParityAutomaton) -> dict:
    doc = skeleton_to_dict(aut.skeleton)
    doc["type"] = "parity-automaton"
    doc["priority"] = [[s, c, p] for s, c, p in aut.priorities]
    return doc


def automaton_from_dict(doc: Mapping) -> ParityAutomaton:
    _expect(doc, "parity-automaton")
    sk = skeleton_from_dict({**doc, "type": "skeleton"})
    return ParityAutomaton.make(sk, _by_transition(_list(doc, "priority"), "priority row"))


# -- arenas -------------------------------------------------------------------


def arena_to_dict(arena: Arena) -> dict:
    return {
        "format": FORMAT,
        "type": "arena",
        "states": list(arena.states),
        "owner": {s: p for s, p in arena.owners},
        "edges": [[s, c, t] for s, c, t in arena.edges],
    }


def arena_from_dict(doc: Mapping) -> Arena:
    _expect(doc, "arena")
    edges = _rows(_list(doc, "edges"), 3, "edge row")
    return Arena.make(_list(doc, "states"), doc["owner"], edges)


# -- conditions ---------------------------------------------------------------


def fraction_to_pair(q: Fraction) -> list:
    return [q.numerator, q.denominator]


def fraction_from_pair(pair) -> Fraction:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InputError(f"fractions are encoded as [numerator, denominator], got {pair!r}")
    for part in pair:
        if not isinstance(part, int) or isinstance(part, bool):
            raise TypeError(f"fraction parts must be integers, got {part!r}")
    return Fraction(pair[0], pair[1])


def condition_to_dict(cond: Condition) -> dict:
    base = {"format": FORMAT, "type": "condition"}
    if isinstance(cond, DpaCondition):
        return {**base, "kind": "dpa", "automaton": automaton_to_dict(cond.automaton)}
    if isinstance(cond, MullerCondition):
        sk = cond.skeleton
        table = sorted(cond.winning_supports, key=lambda g: (g.bit_count(), tuple(bit_indices(g))))
        return {
            **base,
            "kind": "muller",
            "skeleton": skeleton_to_dict(sk),
            "winning_supports": [[[s, c] for s, c in support_transitions(sk, g)] for g in table],
        }
    if isinstance(cond, DiscountedSumCondition):
        return {**base, "kind": "discounted-sum", "lambda": fraction_to_pair(cond.lam), "k": cond.k}
    if isinstance(cond, MeanPayoffCondition):
        return {**base, "kind": "mean-payoff"}
    if isinstance(cond, TotalPayoffCondition):
        return {**base, "kind": "total-payoff"}
    raise InputError(f"unknown condition type {type(cond).__name__}")


def condition_from_dict(doc: Mapping) -> Condition:
    _expect(doc, "condition")
    kind = doc.get("kind")
    if kind == "dpa":
        return DpaCondition(automaton_from_dict(doc["automaton"]))
    if kind == "muller":
        sk = skeleton_from_dict(doc["skeleton"])
        m = len(sk.alphabet)
        arcs = [(i // m, t, 1 << i) for i, t in enumerate(sk.targets)]
        bit = {(s, c): 1 << i for i, (s, c, _) in enumerate(sk.transitions)}
        table = set()
        for rows in _list(doc, "winning_supports"):
            if not isinstance(rows, list):
                raise InputError(f"bad winning support {rows!r}")
            pairs = {(s, c) for s, c in _rows(rows, 2, "winning support pair")}
            if not pairs <= bit.keys():
                raise InputError(f"winning support {rows!r} names a transition the skeleton lacks")
            g = sum(bit[t] for t in pairs)
            # a cycle support: one component of its arcs holds every one of them
            if not cut_cycles(len(sk.states), arcs, g, g):
                raise InputError(f"winning support {rows!r} is not a cycle support")
            table.add(g)
        return MullerCondition(skeleton=sk, winning_supports=frozenset(table))
    if kind == "discounted-sum":
        return DiscountedSumCondition(fraction_from_pair(doc["lambda"]), doc["k"])
    if kind == "mean-payoff":
        return MeanPayoffCondition()
    if kind == "total-payoff":
        return TotalPayoffCondition()
    raise InputError(f"unknown condition kind {kind!r}")


def _expect(doc: Mapping, typ: str):
    if not isinstance(doc, Mapping):
        raise InputError("document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise InputError(f"unsupported format {doc.get('format')!r}")
    if doc.get("type") != typ:
        raise InputError(f"expected a {typ} document, got {doc.get('type')!r}")


def _object(pairs: list) -> dict:
    """A JSON object, refused when a key repeats: a dict keeps its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise InputError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_object)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc})") from None
        except ValueError as exc:  # an integer too long to convert from text
            raise InputError(f"{path}: number too long to read ({exc})") from None
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply to read") from None
    loaders = {
        "skeleton": skeleton_from_dict,
        "parity-automaton": automaton_from_dict,
        "arena": arena_from_dict,
        "condition": condition_from_dict,
    }
    typ = doc.get("type") if isinstance(doc, dict) else None
    if not isinstance(typ, str) or typ not in loaders:
        raise InputError(f"{path}: unknown document type {typ!r}")
    try:
        return loaders[typ](doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (AttributeError, LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        # a missing field, a wrong type or a bad value deep in the document
        raise InputError(
            f"{path}: malformed {typ} document ({type(exc).__name__}: {exc})"
        ) from None


def load_typed(path: str, expected: type):
    obj = load_document(path)
    if not isinstance(obj, expected):
        raise InputError(f"{path}: expected {getattr(expected, '__name__', expected)}")
    return obj


# -- DOT export ---------------------------------------------------------------


def _quote(name) -> str:
    """``name`` as a quoted DOT string: backslashes escaped first, then quotes."""
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'


def skeleton_to_dot(sk: Skeleton, priorities: Mapping | None = None) -> str:
    lines = ["digraph {", "  rankdir=LR;", "  node [shape=diamond];"]
    lines.append("  __init__ [shape=point, style=invis];")
    lines.append(f"  __init__ -> {_quote(sk.init)};")
    by_pair: dict = {}
    for s, c, t in sk.transitions:
        label = str(c)
        if priorities is not None:
            label += f" | {priorities[(s, c)]}"
        by_pair.setdefault((s, t), []).append(label)
    for (s, t), labels in sorted(by_pair.items()):
        lines.append(f"  {_quote(s)} -> {_quote(t)} [label={_quote(', '.join(labels))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def automaton_to_dot(aut: ParityAutomaton) -> str:
    return skeleton_to_dot(aut.skeleton, priorities=aut._pri)


def arena_to_dot(arena: Arena) -> str:
    lines = ["digraph {", "  rankdir=LR;"]
    for s in arena.states:
        shape = "circle" if arena.owner[s] == 1 else "box"
        lines.append(f"  {_quote(s)} [shape={shape}];")
    by_pair: dict = {}
    for s, c, t in arena.edges:
        by_pair.setdefault((s, t), []).append(str(c))
    for (s, t), labels in sorted(by_pair.items()):
        lines.append(f"  {_quote(s)} -> {_quote(t)} [label={_quote(', '.join(labels))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
