"""The benchmark's oracles on small cases checked by hand.

    python3 -m pytest bench/test_oracles.py
"""

from fractions import Fraction

import pytest

import oracles as O
import workloads as W


def ab_prefix() -> O.Machine:
    return O.Machine(W.AB_PREFIX["automaton"])


def contrast_automaton(priorities=W.CONTRAST_PRIORITIES) -> O.Machine:
    doc = dict(W.CONTRAST_SKELETON)
    doc["priority"] = [[s, c, priorities[(s, c)]] for s, c, _ in doc["upd"]]
    return O.Machine(doc)


def test_support_counts():
    assert len(O.cycle_supports(O.Machine(W.trivial_doc(W.ABC)).edges)) == 7
    # contrast: each state has 2 self-loops (3 non-empty subsets each) plus the
    # a-cycle, which combines with any subset of the 4 self-loops
    assert len(O.cycle_supports(O.Machine(W.CONTRAST_SKELETON).edges)) == 3 + 3 + 16
    with pytest.raises(O.TooManySupports):
        O.cycle_supports(O.Machine(W.CONTRAST_SKELETON).edges, limit=10)


def test_ab_prefix_residuals():
    m = ab_prefix()
    # [ab]: every continuation wins; [b]: none does; [a] wins iff it reads b next
    assert O.residual_relation(m, "[ab]", "[b]") == "greater"
    assert O.residual_relation(m, "[b]", "[a]") == "less"
    assert O.residual_relation(m, "[ε]", "[a]") == "incomparable"
    assert O.residual_relation(m, "[ab]", "[ab]") == "equal"


def test_rc_quotient_merges_equal_states():
    # two states, both only ever see priority 0: one class
    doc = W.automaton_doc(["q0", "q1"], "q0", ["a", "b"],
                          {("q0", "a"): "q1", ("q0", "b"): "q0",
                           ("q1", "a"): "q0", ("q1", "b"): "q1"},
                          {("q0", "a"): 0, ("q0", "b"): 0, ("q1", "a"): 0, ("q1", "b"): 0})
    want = O.expected_rc_skeleton(O.Machine(doc))
    assert want == {"init": "[ε]", "states": ["[ε]"],
                    "upd": [["[ε]", "a", "[ε]"], ["[ε]", "b", "[ε]"]]}
    # ab-prefix is already minimal; its classes are named by shortest words
    want = O.expected_rc_skeleton(ab_prefix())
    assert want["states"] == ["[a]", "[ab]", "[b]", "[ε]"]
    assert ["[a]", "a", "[b]"] in want["upd"]


def test_gen_buchi_conflicts():
    assert O.gen_buchi_conflict_states(O.Machine(W.trivial_doc(W.ABC))) == ["m0"]
    assert O.gen_buchi_conflict_states(O.Machine(W.SWITCH)) == []


def test_gen_buchi_witness_check():
    m = O.Machine(W.trivial_doc(W.ABC))
    report = {
        "verdict": "fail",
        "witness": {
            "kind": "support-pair",
            "state": "m0|[ε]",
            "support1": [["m0|[ε]", "a"]],
            "support2": [["m0|[ε]", "b"]],
            "family_value": "lose",
            "union_value": "win",
        },
    }
    O.check_gen_buchi_consistency(m, report, 1)
    report["witness"]["support2"] = [["m0|[ε]", "c"]]  # a + c still loses
    with pytest.raises(O.OracleMismatch):
        O.check_gen_buchi_consistency(m, report, 1)
    with pytest.raises(O.OracleMismatch):
        O.check_gen_buchi_consistency(m, {"verdict": "pass"}, 0)
    O.check_gen_buchi_consistency(O.Machine(W.SWITCH), {"verdict": "pass"}, 0)


def test_contrast_language_against_muller_table():
    sk = O.Machine(W.CONTRAST_SKELETON)
    winning = {frozenset(map(tuple, rows)) for rows in W.CONTRAST["winning_supports"]}
    assert not O.muller_language_mismatch(contrast_automaton(), sk, winning)
    mutated = dict(W.CONTRAST_PRIORITIES)
    mutated[("m1", "c")] = 2  # c^omega at m1 would now win
    assert O.muller_language_mismatch(contrast_automaton(mutated), sk, winning)


def test_dpa_language_equality():
    m = ab_prefix()
    assert not O.dpa_language_mismatch(m, m)
    doc = dict(W.AB_PREFIX["automaton"])
    doc["priority"] = [[s, c, 0 if s == "[b]" else p] for s, c, p in doc["priority"]]
    assert O.dpa_language_mismatch(O.Machine(doc), m)


def test_lasso_values():
    m = contrast_automaton()
    assert m.lasso_parity_value([], ["c"]) == "lose"
    assert m.lasso_parity_value(["a"], ["b"]) == "win"
    assert m.lasso_parity_value([], ["a"]) == "win"


def test_discounted_sum_closed_forms():
    table = {(u, v): value for u, v, value in O.ds_lasso_table(Fraction(1, 2), 2, 1, 1)}
    # 1 + 1/2 * (-1) / (1 - 1/2) = 0: wins at the threshold
    assert table[((1,), (-1,))] == "win"
    # -1 + 1/2 * 1 / (1 - 1/2) = 0 as well
    assert table[((-1,), (1,))] == "win"
    # -2 + 1/2 * 1 / (1 - 1/2) = -1
    assert table[((-2,), (1,))] == "lose"
    # an automaton that accepts everything is refuted on a short lasso
    doc = W.automaton_doc(["m0"], "m0", [-2, -1, 0, 1, 2],
                          {("m0", c): "m0" for c in range(-2, 3)},
                          {("m0", c): 0 for c in range(-2, 3)})
    assert O.ds_language_mismatch(O.Machine(doc), Fraction(1, 2), 2) is not None
