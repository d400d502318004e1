"""Serialization round-trips and the command-line surface."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import skelparity
from skelparity import (
    DiscountedSumCondition,
    DpaCondition,
    MullerCondition,
    ParityAutomaton,
    Skeleton,
    consistency,
    enumerate_cycle_supports,
    trivial_skeleton,
)
from skelparity.cli import main, parse_fraction, parse_word
from skelparity.conditions import (
    Condition,
    MeanPayoffCondition,
    TotalPayoffCondition,
    compare_states,
    residual_compare,
)
from skelparity.errors import InputError, InternalConsistencyError
from skelparity.games import Arena
from skelparity.serialize import (
    arena_from_dict,
    arena_to_dict,
    arena_to_dot,
    automaton_from_dict,
    automaton_to_dot,
    automaton_to_dict,
    canonical_json,
    condition_from_dict,
    condition_to_dict,
    load_typed,
    skeleton_from_dict,
    skeleton_to_dict,
    skeleton_to_dot,
)

from conftest import build_colliding_pair, build_two_valued_dpa
from gap_oracle import gap_direct

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv) -> tuple[str, int]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return buf.getvalue(), code


@pytest.fixture
def files(tmp_path, switch_skeleton, contrast_automaton, trivial_abc, gen_buchi):
    paths = {}
    docs = {
        "switch.json": skeleton_to_dict(switch_skeleton),
        "trivial.json": skeleton_to_dict(trivial_abc),
        "contrast.json": automaton_to_dict(contrast_automaton),
        "genbuchi.json": condition_to_dict(gen_buchi),
        "contrast_cond.json": condition_to_dict(DpaCondition(contrast_automaton)),
        "ds.json": condition_to_dict(DiscountedSumCondition(Fraction(1, 2), 2)),
        "arena.json": arena_to_dict(
            Arena.make(
                ["s"], {"s": 1}, [("s", "a", "s"), ("s", "b", "s"), ("s", "c", "s")]
            )
        ),
    }
    for name, doc in docs.items():
        p = tmp_path / name
        p.write_text(canonical_json(doc), encoding="utf-8")
        paths[name] = str(p)
    return paths


# -- parsing helpers ----------------------------------------------------------


def test_parse_word_mixed():
    assert parse_word("a,b,c") == ("a", "b", "c")
    assert parse_word("1,-2,0") == (1, -2, 0)
    assert parse_word("") == ()


def test_parse_fraction():
    assert parse_fraction("1/2") == Fraction(1, 2)
    with pytest.raises(InputError):
        parse_fraction("x")
    # exponents beyond the digit limit are refused before Fraction spends
    # seconds on them; the limit itself is read
    for text in ("1e-10000000", "2.5E+4301", "1e-" + "9" * 5000, "1e-4_301"):
        with pytest.raises(InputError, match="--x too large: its exponent is beyond 4300"):
            parse_fraction(text, "--x")
    assert parse_fraction("1e-4300", "--x") == Fraction(1, 10**4300)
    assert parse_fraction("-0.5e+00001") == -5


# -- round trips -----------------------------------------------------------------


def test_skeleton_round_trip(switch_skeleton):
    doc = skeleton_to_dict(switch_skeleton)
    again = skeleton_from_dict(json.loads(canonical_json(doc)))
    assert again == switch_skeleton


def test_automaton_round_trip(contrast_automaton):
    doc = automaton_to_dict(contrast_automaton)
    assert automaton_from_dict(json.loads(canonical_json(doc))) == contrast_automaton


def test_arena_round_trip():
    arena = Arena.make(
        ["s", "t"], {"s": 1, "t": 2}, [("s", "a", "t"), ("t", "b", "s")]
    )
    doc = arena_to_dict(arena)
    again = arena_from_dict(json.loads(canonical_json(doc)))
    assert again.states == arena.states and again.edges == arena.edges


def test_condition_round_trips(ds_half_two, contrast_automaton):
    for cond in (
        ds_half_two,
        DpaCondition(contrast_automaton),
    ):
        doc = condition_to_dict(cond)
        again = condition_from_dict(json.loads(canonical_json(doc)))
        assert type(again) is type(cond)


def test_muller_table_round_trip(trivial_abc):
    winning = frozenset(enumerate_cycle_supports(trivial_abc)[::2])
    cond = MullerCondition(skeleton=trivial_abc, winning_supports=winning)
    doc = condition_to_dict(cond)
    again = condition_from_dict(json.loads(canonical_json(doc)))
    assert again.winning_supports == winning


def test_tabulated_conditions_round_trip_as_equal_tables(gen_buchi, contrast_muller):
    # a condition tabulated from a predicate has a file form like any other
    for cond in (gen_buchi, contrast_muller):
        again = condition_from_dict(json.loads(canonical_json(condition_to_dict(cond))))
        assert again == cond


def test_muller_tables_refuse_transition_sets(trivial_abc):
    # the old table form, sets of transitions, would match no support mask
    with pytest.raises(InputError, match="int masks"):
        MullerCondition(trivial_abc, frozenset({frozenset({("m0", "a")})}))


_DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dot_exports_escape_backslashes_and_quotes():
    x, y, a = "x\\", 'y"', 'a"b'
    sk = Skeleton.make([x, y], x, [a], {(x, a): y, (y, a): x})
    aut = ParityAutomaton.make(sk, {(x, a): 0, (y, a): 0})
    arena = Arena.make([x, y], {x: 1, y: 2}, [(x, a, y), (y, a, x)])
    for dot, label in ((skeleton_to_dot(sk), a), (automaton_to_dot(aut), a + " | 0"),
                       (arena_to_dot(arena), a)):
        for line in dot.splitlines():
            # every quote opens or closes a well-formed string
            assert '"' not in _DOT_STRING.sub("", line), line
        strings = {re.sub(r"\\(.)", r"\1", m[1:-1]) for m in _DOT_STRING.findall(dot)}
        assert strings == {x, y, label}


def test_dot_exports_of_plain_names_are_unchanged(contrast_automaton):
    assert automaton_to_dot(contrast_automaton) == """digraph {
  rankdir=LR;
  node [shape=diamond];
  __init__ [shape=point, style=invis];
  __init__ -> "m1";
  "m1" -> "m1" [label="b | 1, c | 3"];
  "m1" -> "m2" [label="a | 2"];
  "m2" -> "m1" [label="a | 2"];
  "m2" -> "m2" [label="b | 0, c | 0"];
}
"""
    edges = [("s", "a", "t"), ("s", "b", "t"), ("t", "b", "s")]
    arena = Arena.make(["s", "t"], {"s": 1, "t": 2}, edges)
    assert arena_to_dot(arena) == """digraph {
  rankdir=LR;
  "s" [shape=circle];
  "t" [shape=box];
  "s" -> "t" [label="a, b"];
  "t" -> "s" [label="b"];
}
"""


def test_dot_exports_mention_shapes(switch_skeleton):
    dot = skeleton_to_dot(switch_skeleton)
    assert "diamond" in dot
    arena = Arena.make(["s", "t"], {"s": 1, "t": 2}, [("s", "a", "t"), ("t", "b", "s")])
    dot2 = arena_to_dot(arena)
    assert "circle" in dot2 and "box" in dot2


# -- CLI ------------------------------------------------------------------------------


def test_cli_gap_automaton_matches_golden():
    out, code = run_cli("ds", "gap-automaton", "--lambda", "1/2", "--k", "2")
    assert code == 0
    assert out == (GOLDEN / "gap_automaton_half_k2.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden, argv, code",
    [
        (
            "synthesize_gen_buchi_switch.json",
            ("--condition", "inputs/gen_buchi.json", "--skeleton", "inputs/switch.json"),
            0,
        ),
        (
            "synthesize_ds_half_k2.json",
            ("--condition", "inputs/ds_half_k2.json", "--skeleton", "inputs/trivial_k2.json",
             "--allow-transient"),
            0,
        ),
        (
            "synthesize_gen_buchi_trivial.json",
            ("--condition", "inputs/gen_buchi.json", "--skeleton", "inputs/trivial_abc.json"),
            1,
        ),
    ],
)
def test_cli_synthesize_matches_golden(monkeypatch, golden, argv, code):
    # relative input paths keep the digests' keys in the report fixed
    monkeypatch.chdir(GOLDEN)
    out, got = run_cli("synthesize", *argv)
    assert got == code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden, argv, code",
    [
        (
            "prefix_independence_first_letter.json",
            ("check", "prefix-independence", "--condition", "inputs/ab_prefix.json",
             "--skeleton", "inputs/first_letter.json"),
            1,
        ),
        (
            "cycle_consistency_two_valued.json",
            ("check", "cycle-consistency", "--condition", "inputs/two_valued_dpa.json",
             "--skeleton", "inputs/trivial_ab.json"),
            1,
        ),
        (
            "rc_automaton_contrast_muller.json",
            ("cond", "rc-automaton", "--condition", "inputs/contrast_muller.json"),
            0,
        ),
        (
            "game_solve_ds_half_k2.json",
            ("game", "solve", "--arena", "inputs/random_arena_6.json",
             "--automaton", "inputs/ds_half_k2_dpa.json"),
            0,
        ),
        (
            "game_verify_ds_half_k2.json",
            ("game", "verify", "--arena", "inputs/random_arena_6.json",
             "--automaton", "inputs/ds_half_k2_dpa.json"),
            0,
        ),
    ],
)
def test_cli_search_order_reports_match_golden(monkeypatch, golden, argv, code):
    # breadth-first search order fixes the prefix-pair words (here w2 = ab),
    # the support-values lassos (aab)^omega / (abb)^omega and the rc labels;
    # the solver's node order fixes the game strategies; the arena is
    # random_arena(Random("golden:16"), 6, ...) over the alphabet of the DPA
    # that `synthesize` writes for ds 1/2, k = 2 on the trivial skeleton
    monkeypatch.chdir(GOLDEN)
    out, got = run_cli(*argv)
    assert got == code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_load_typed_accepts_every_condition_kind(tmp_path, files):
    conditions = {
        "dpa": files["contrast_cond.json"],
        "muller": files["genbuchi.json"],
        "discounted-sum": files["ds.json"],
    }
    for kind, cond in (("mean-payoff", MeanPayoffCondition()),
                       ("total-payoff", TotalPayoffCondition())):
        path = tmp_path / f"{kind}.json"
        path.write_text(canonical_json(condition_to_dict(cond)), encoding="utf-8")
        conditions[kind] = str(path)
    for kind, path in conditions.items():
        assert condition_to_dict(load_typed(path, Condition))["kind"] == kind


def test_cli_skeleton_given_as_condition_exits_2(files):
    out, code = run_cli(
        "check", "cycle-consistency",
        "--condition", files["switch.json"], "--skeleton", files["switch.json"],
    )
    assert code == 2
    assert json.loads(out)["error"] == (
        f"{files['switch.json']}: expected skelparity.conditions.DpaCondition | "
        "skelparity.conditions.MullerCondition | "
        "skelparity.conditions.DiscountedSumCondition | "
        "skelparity.conditions.MeanPayoffCondition | "
        "skelparity.conditions.TotalPayoffCondition"
    )


def test_cli_reports_are_idempotent(files):
    args = (
        "check",
        "cycle-consistency",
        "--condition",
        files["genbuchi.json"],
        "--skeleton",
        files["trivial.json"],
    )
    out1, code1 = run_cli(*args)
    out2, code2 = run_cli(*args)
    assert (out1, code1) == (out2, code2)
    assert code1 == 1


def test_cli_cycle_consistency_witness(files):
    out, code = run_cli(
        "check",
        "cycle-consistency",
        "--condition",
        files["genbuchi.json"],
        "--skeleton",
        files["trivial.json"],
    )
    assert code == 1
    doc = json.loads(out)
    assert [row[1] for row in doc["witness"]["support1"]] == ["a"]
    assert [row[1] for row in doc["witness"]["support2"]] == ["b"]


def test_cli_check_passes_on_switch(files):
    out, code = run_cli(
        "check",
        "cycle-consistency",
        "--condition",
        files["genbuchi.json"],
        "--skeleton",
        files["switch.json"],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_cli_unknown_color_is_usage_error(files):
    out, code = run_cli(
        "skel", "run", "--skeleton", files["switch.json"], "--word", "a,z"
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_cli_word_letter_too_long_to_read_exits_2(files, capsys):
    # the interpreter reads no integer of more than 4,300 digits
    out, code = run_cli(
        "skel", "run", "--skeleton", files["switch.json"], "--word", "a," + "7" * 5000
    )
    assert code == 2
    assert json.loads(out) == {
        "format": 1, "error": "a letter of the word has more than 4300 digits"
    }
    assert "Traceback" not in capsys.readouterr().err


def test_cli_run_and_supports(files):
    out, code = run_cli(
        "skel", "run", "--skeleton", files["switch.json"], "--word", "a,c,b"
    )
    assert code == 0
    assert json.loads(out)["states"] == ["init", "init", "init", "m2"]
    out, code = run_cli("skel", "supports", "--skeleton", files["switch.json"])
    assert json.loads(out)["count"] == 22


def test_cli_supports_cap_exit_code(files, tmp_path):
    out, code = run_cli(
        "skel", "supports", "--skeleton", files["switch.json"], "--cap", "3"
    )
    assert code == 3
    # one branching level per transition: 1,200 self-loops must not overflow
    loops = tmp_path / "loops.json"
    loops.write_text(canonical_json(skeleton_to_dict(trivial_skeleton(range(1200)))))
    out, code = run_cli("skel", "supports", "--skeleton", str(loops), "--cap", "10")
    assert code == 3
    assert json.loads(out)["cap"] == 10
    assert json.loads(out)["stage"] == "skel supports"


@pytest.mark.parametrize(
    "argv, stage",
    [
        (("cond", "rc-automaton", "--condition", "contrast_muller.json"), "right-congruence"),
        (("check", "cycle-consistency", "--condition", "genbuchi.json",
          "--skeleton", "switch.json"), "cycle-supports"),
        # the automaton's state is not a function of the skeleton state, so
        # the supports of the lift are enumerated
        (("check", "cycle-consistency", "--condition", "two_valued.json",
          "--skeleton", "ab.json"), "lifted-supports"),
        (("verify", "--automaton", "contrast.json", "--condition", "contrast_cond.json"),
         "cycle-supports"),
        (("cond", "residuals", "--condition", "contrast_muller.json", "--w1", "a",
          "--w2", "b"), "right-congruence"),
    ],
)
def test_cli_cap_exit_names_its_stage(files, tmp_path, argv, stage, contrast_muller):
    docs = {
        "contrast_muller.json": condition_to_dict(contrast_muller),
        "two_valued.json": condition_to_dict(build_two_valued_dpa()),
        "ab.json": skeleton_to_dict(trivial_skeleton("ab")),
    }
    for name, doc in docs.items():
        files[name] = str(tmp_path / name)
        Path(files[name]).write_text(canonical_json(doc), encoding="utf-8")
    out, code = run_cli(*(files.get(a, a) for a in argv), "--cap", "2")
    assert code == 3
    assert json.loads(out) == {
        "format": 1,
        "error": "cycle-support enumeration exceeded cap 2",
        "cap": 2,
        "stage": stage,
    }


NO_SUPPORT_AUTOMATON = "no automaton values the cycle supports"
INFINITE_INDEX = "the right congruence of this discounted-sum condition has infinite index"


@pytest.mark.parametrize(
    "condition",
    [
        {"kind": "mean-payoff"},
        {"kind": "total-payoff"},
        {"kind": "discounted-sum", "lambda": [2, 5], "k": 2},
    ],
    ids=["mean-payoff", "total-payoff", "ds-2-5-k2"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "cycle-consistency", "--condition", "cond.json", "--skeleton", "loops.json"),
        ("check", "prefix-independence", "--condition", "cond.json", "--skeleton", "loops.json"),
        ("synthesize", "--condition", "cond.json", "--skeleton", "loops.json"),
        ("game", "lift-experiment", "--condition", "cond.json", "--skeleton", "loops.json"),
        ("cond", "rc-automaton", "--condition", "cond.json"),
        ("verify", "--automaton", "aut.json", "--condition", "cond.json"),
        ("cond", "residuals", "--condition", "cond.json", "--w1", "0", "--w2", "1"),
    ],
    ids=["cycle-consistency", "prefix-independence", "synthesize", "lift-experiment",
         "rc-automaton", "verify", "residuals"],
)
def test_cli_refuses_conditions_without_automaton(tmp_path, capsys, argv, condition):
    # no automaton values their cycle supports: the gap search refuses a
    # discounted sum of infinite index wherever the condition's automaton
    # is built, and support_automaton every other such condition
    loops = trivial_skeleton([-1, 0, 1])
    docs = {
        "loops.json": skeleton_to_dict(loops),
        "aut.json": automaton_to_dict(
            ParityAutomaton.make(loops, {("m0", -1): 1, ("m0", 0): 0, ("m0", 1): 0})
        ),
        "cond.json": {"format": 1, "type": "condition", **condition},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(canonical_json(doc), encoding="utf-8")
    out, code = run_cli(*(str(tmp_path / a) if a in docs else a for a in argv))
    assert code == 2
    infinite = condition["kind"] == "discounted-sum"
    assert (INFINITE_INDEX if infinite else NO_SUPPORT_AUTOMATON) in json.loads(out)["error"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("cond", "rc-automaton", "--condition", "huge_k.json", "--cap", "1000"), 1000),
        (("ds", "gap-automaton", "--lambda", "1/2", "--k", str(10**22)), 100_000),
        (("verify", "--automaton", "aut.json", "--condition", "huge_k.json", "--cap", "10"), 10),
        (("cond", "residuals", "--condition", "huge_k.json", "--w1", "0", "--w2", "1",
          "--cap", "100"), 100),
    ],
    ids=["rc-automaton", "gap-automaton", "verify", "residuals"],
)
def test_cli_gap_search_exit_names_its_stage(tmp_path, argv, cap):
    # lambda = 1/2 has finite index for every k, but k = 10**22 gives about
    # 4 * 10**22 gaps: the search stops at its cap instead of running on,
    # and at the cap given, where the command takes one
    doc = {"format": 1, "type": "condition", "kind": "discounted-sum", "lambda": [1, 2],
           "k": 10**22}
    loops = trivial_skeleton([-1, 0, 1])
    docs = {
        "huge_k.json": doc,
        "aut.json": automaton_to_dict(ParityAutomaton.make(loops, {("m0", c): 0 for c in (-1, 0, 1)})),
    }
    for name, d in docs.items():
        (tmp_path / name).write_text(canonical_json(d), encoding="utf-8")
    out, code = run_cli(*(str(tmp_path / a) if a in docs else a for a in argv))
    assert code == 3
    assert json.loads(out) == {
        "format": 1,
        "error": f"gap search exceeded cap {cap}",
        "cap": cap,
        "stage": "gap-automaton",
    }


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ("skel", "supports", "--skeleton", "switch.json"),
        ("cond", "residuals", "--condition", "contrast_cond.json", "--w1", "a", "--w2", "b"),
        ("cond", "rc-automaton", "--condition", "contrast_cond.json"),
        ("cond", "rc-automaton", "--condition", "ds.json"),
        ("check", "prefix-independence", "--condition", "genbuchi.json", "--skeleton", "switch.json"),
        ("check", "cycle-consistency", "--condition", "genbuchi.json", "--skeleton", "switch.json"),
        ("synthesize", "--condition", "genbuchi.json", "--skeleton", "switch.json"),
        ("verify", "--automaton", "contrast.json", "--condition", "contrast_cond.json"),
    ],
    ids=["skel-supports", "residuals", "rc-automaton-dpa", "rc-automaton-ds",
         "prefix-independence", "cycle-consistency", "synthesize", "verify"],
)
def test_cli_cap_below_one_exits_2(files, capsys, argv, cap):
    # the parser refuses it for every command that takes a cap, before
    # any stage could read it as a cap that is exceeded or never reached
    out, code = run_cli(*(files.get(a, a) for a in argv), "--cap", cap)
    assert code == 2 and out == ""
    assert f"argument --cap: cap must be positive, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "synthesize"])
def test_cli_negative_samples_exit_2(files, capsys, command):
    inputs = {
        "verify": ("--automaton", files["contrast.json"],
                   "--condition", files["contrast_cond.json"]),
        "synthesize": ("--condition", files["genbuchi.json"], "--skeleton", files["switch.json"]),
    }[command]
    out, code = run_cli(command, *inputs, "--samples", "-1")
    assert code == 2
    assert json.loads(out) == {"format": 1, "error": "samples must be a natural number"}
    assert "Traceback" not in capsys.readouterr().err
    out, code = run_cli(command, *inputs, "--samples", "0")
    assert code == 0
    report = json.loads(out)
    lassos = report["lassos_checked"] if command == "verify" else report["verified"]["lassos"]
    assert lassos == 0


def test_cli_product(files, tmp_path):
    out_path = str(tmp_path / "prod.json")
    out, code = run_cli(
        "skel",
        "product",
        "--left",
        files["switch.json"],
        "--right",
        files["trivial.json"],
        "--out",
        out_path,
    )
    assert code == 0
    assert json.loads(out)["states"] == 2
    saved = json.loads(Path(out_path).read_text())
    assert saved["type"] == "skeleton"


def test_cli_product_colliding_names_exit_2(tmp_path):
    paths = []
    for i, sk in enumerate(build_colliding_pair()):
        path = tmp_path / f"m{i}.json"
        path.write_text(canonical_json(skeleton_to_dict(sk)))
        paths.append(str(path))
    out_path = tmp_path / "prod.json"
    out, code = run_cli(
        "skel", "product", "--left", paths[0], "--right", paths[1], "--out", str(out_path)
    )
    assert code == 2
    assert "are both named 'a|b|c'" in json.loads(out)["error"]
    assert not out_path.exists()


def test_cli_residuals(files):
    out, code = run_cli(
        "cond",
        "residuals",
        "--condition",
        files["contrast_cond.json"],
        "--w1",
        "a",
        "--w2",
        "a,b",
    )
    assert code == 0
    assert json.loads(out)["relation"] in {"equal", "less", "greater", "incomparable"}


@pytest.mark.parametrize(
    "w1, w2",
    [("", "-1"), ("-1", ""), ("1", "2"), ("-2", "-2,1"), ("2,-2", "0"), ("1,-1", "0,0"),
     ("-2,-2", "-2,-1,2"), ("2", "2,2")],
)
def test_cli_ds_residuals_follow_the_gap_order(files, w1, w2):
    # the word-level gaps of tests/gap_oracle.py: bot < finite gaps < top
    out, code = run_cli("cond", "residuals", "--condition", files["ds.json"],
                        f"--w1={w1}", f"--w2={w2}")
    assert code == 0

    def rank(word):
        g = gap_direct(parse_word(word), Fraction(1, 2), 2)
        return {"bot": (0, 0), "top": (2, 0)}.get(g.kind, (1, g.value))

    a, b = rank(w1), rank(w2)
    assert json.loads(out)["relation"] == {-1: "less", 0: "equal", 1: "greater"}[(a > b) - (a < b)]


@pytest.mark.parametrize("w1, w2", [("", "a"), ("a", "b"), ("a,b", "b,b"), ("c", "a,a")])
def test_cli_muller_residuals_match_compare_states(contrast_automaton, w1, w2):
    path = str(GOLDEN / "inputs" / "contrast_muller.json")
    out, code = run_cli("cond", "residuals", "--condition", path, "--w1", w1, "--w2", w2)
    assert code == 0
    cond = load_typed(path, Condition)
    ends = (cond.skeleton.run_end(parse_word(w)) for w in (w1, w2))
    relation = json.loads(out)["relation"]
    assert relation == compare_states(cond, *ends)
    # the same language as a parity automaton, decided without supports
    dpa = DpaCondition(contrast_automaton)
    assert relation == residual_compare(dpa, parse_word(w1), parse_word(w2))


def test_cli_rc_automaton(files):
    out, code = run_cli("cond", "rc-automaton", "--condition", files["ds.json"])
    assert code == 0
    assert json.loads(out)["states"] == 6
    # parity residuals enumerate no supports, so the cap cannot bind
    rc = ("cond", "rc-automaton", "--condition", files["contrast_cond.json"])
    out, code = run_cli(*rc, "--cap", "1")
    assert code == 0
    assert (out, code) == run_cli(*rc)


def test_cli_lift_experiment_on_inconsistent_pair_exits_4(files):
    out, code = run_cli(
        "game",
        "lift-experiment",
        "--condition",
        files["genbuchi.json"],
        "--skeleton",
        files["trivial.json"],
        "--arenas",
        "2",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["format"] == 1
    assert "'cycle-consistency' failed" in doc["error"]


def test_cli_lift_experiment_rejects_empty_arenas(files):
    lift = ("game", "lift-experiment", "--condition", files["genbuchi.json"],
            "--skeleton", files["switch.json"])
    for bad in (("--max-states", "0"), ("--arenas", "-1")):
        out, code = run_cli(*lift, *bad)
        assert code == 2
        assert "error" in json.loads(out)


_TRIVIAL_A = {"format": 1, "type": "skeleton", "alphabet": ["a"], "states": ["m0"],
              "init": "m0", "upd": [["m0", "a", "m0"]]}
_CONDITION = {"format": 1, "type": "condition"}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("cond", {**_CONDITION, "kind": "muller", "skeleton": _TRIVIAL_A,
                  "winning_supports": [[["m0", "a", "x"]]]}),
        ("cond", {**_CONDITION, "kind": "muller", "winning_supports": []}),
        ("cond", {**_CONDITION, "kind": "discounted-sum", "lambda": [1, 0], "k": 2}),
        ("cond", {**_CONDITION, "kind": "discounted-sum", "lambda": [1, 2], "k": "2"}),
        ("skel", {k: v for k, v in _TRIVIAL_A.items() if k != "upd"}),
        ("skel", {**_TRIVIAL_A, "states": [["m0"]], "init": ["m0"],
                  "upd": [[["m0"], "a", ["m0"]]]}),
        # booleans are refused as colors and priorities, and so as numbers here
        ("cond", {**_CONDITION, "kind": "discounted-sum", "lambda": [1, 2], "k": 1.5}),
        ("cond", {**_CONDITION, "kind": "discounted-sum", "lambda": [1, 2], "k": True}),
        ("cond", {**_CONDITION, "kind": "discounted-sum", "lambda": [True, 2], "k": 1}),
    ],
    ids=["muller-row", "no-skeleton", "zero-denominator", "string-k", "no-upd",
         "list-state", "float-k", "bool-k", "bool-numerator"],
)
def test_cli_malformed_documents_exit_2(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "cond":
        out, code = run_cli("cond", "rc-automaton", "--condition", str(path))
    else:
        out, code = run_cli("skel", "supports", "--skeleton", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["format"] == 1 and "malformed" in report["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("skel", "supports", "--skeleton", "{dir}"),
        ("ds", "gap-automaton", "--lambda", "1/2", "--k", "1", "--out", "{dir}"),
        ("skel", "supports", "--skeleton", "{bytes}"),
        ("skel", "supports", "--skeleton", "{missing}"),
        ("skel", "supports", "--skeleton", "{huge}"),
    ],
    ids=["directory-input", "directory-out", "not-utf8", "missing-file", "oversized-integer"],
)
def test_cli_unreadable_paths_exit_2(tmp_path, capsys, argv):
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe")
    # json.load refuses an integer of more than 4,300 digits, and so does
    # json.dumps: the color is written out by hand
    (tmp_path / "huge.json").write_text(
        json.dumps({**_TRIVIAL_A, "alphabet": ["C"], "upd": [["m0", "C", "m0"]]})
        .replace('"C"', "9" * 5000)
    )
    paths = {"dir": tmp_path, "bytes": tmp_path / "bytes.json", "missing": tmp_path / "none.json",
             "huge": tmp_path / "huge.json"}
    out, code = run_cli(*(a.format(**paths) for a in argv))
    assert code == 2
    report = json.loads(out)
    assert set(report) == {"format", "error"}
    assert "Traceback" not in capsys.readouterr().err


_TRIVIAL_AB = {**_TRIVIAL_A, "alphabet": ["a", "b"],
               "upd": [["m0", "a", "m0"], ["m0", "b", "m0"]]}
_TWO_STATE_AB = {**_TRIVIAL_AB, "states": ["m0", "m1"],
                 "upd": [["m0", "a", "m1"], ["m0", "b", "m0"], ["m1", "a", "m0"], ["m1", "b", "m1"]]}
_LOOP_M = {**_TRIVIAL_AB, "states": ["m"], "init": "m", "upd": [["m", "a", "m"], ["m", "b", "m"]]}


@pytest.mark.parametrize(
    "skeleton, rows, named",
    [
        (_TRIVIAL_AB, [[["m0", "z"]]], "[['m0', 'z']]"),
        (_TRIVIAL_AB, [[]], "[]"),
        (_TWO_STATE_AB, [[["m0", "b"]], [["m0", "a"]]], "[['m0', 'a']]"),
        (_TWO_STATE_AB, [[["m0", "b"], ["m1", "b"]]], "[['m0', 'b'], ['m1', 'b']]"),
        # a two-letter string unpacks like a pair, into its letters
        (_LOOP_M, [["ma"]], "bad winning support pair 'ma'"),
        (_LOOP_M, [["m", "a"]], "bad winning support pair 'm'"),
        (_LOOP_M, [[["m", "a", "m"]]], "bad winning support pair ['m', 'a', 'm']"),
        (_LOOP_M, ["ma"], "bad winning support 'ma'"),
        (_LOOP_M, [{"ma": 0}], "bad winning support {'ma': 0}"),
    ],
    ids=["unknown-transition", "empty-row", "not-strongly-connected", "disjoint-self-loops",
         "pair-string", "pair-of-letters", "pair-triple", "support-string", "support-object"],
)
def test_cli_muller_rows_must_be_cycle_supports(tmp_path, capsys, skeleton, rows, named):
    cond = tmp_path / "cond.json"
    cond.write_text(json.dumps({**_CONDITION, "kind": "muller", "skeleton": skeleton,
                                "winning_supports": rows}))
    sk = tmp_path / "sk.json"
    sk.write_text(json.dumps(_TRIVIAL_AB))
    out, code = run_cli("check", "cycle-consistency", "--condition", str(cond),
                        "--skeleton", str(sk))
    assert code == 2
    assert named in json.loads(out)["error"]
    assert "Traceback" not in capsys.readouterr().err


_ARENA_M = {"format": 1, "type": "arena", "states": ["m"], "owner": {"m": 1},
            "edges": [["m", "a", "m"], ["m", "b", "m"]]}


@pytest.mark.parametrize(
    "doc, fault",
    [
        ({**_LOOP_M, "alphabet": "ab"}, "'alphabet' must be a list"),
        ({**_LOOP_M, "alphabet": {"a": 0, "b": 1}}, "'alphabet' must be a list"),
        ({**_LOOP_M, "states": "m"}, "'states' must be a list"),
        ({**_LOOP_M, "upd": ["mam", "mbm"]}, "bad update row 'mam'"),
        ({**_ARENA_M, "states": "m"}, "'states' must be a list"),
        ({**_ARENA_M, "states": {"m": 0}}, "'states' must be a list"),
        ({**_ARENA_M, "edges": ["mam", "mbm"]}, "bad edge row 'mam'"),
        # true and 1.0 equal 1, yet name no player
        ({**_ARENA_M, "owner": {"m": True}}, "owners must be player 1 or player 2"),
        ({**_ARENA_M, "owner": {"m": 1.0}}, "owners must be player 1 or player 2"),
    ],
    ids=["alphabet-string", "alphabet-object", "states-string", "update-row-string",
         "arena-states-string", "arena-states-object", "edge-row-string", "owner-true",
         "owner-float"],
)
def test_cli_lists_given_as_strings_or_objects_exit_2(tmp_path, capsys, doc, fault):
    # a string or an object iterates like a list, into its letters or keys
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if doc["type"] == "skeleton":
        out, code = run_cli("skel", "supports", "--skeleton", str(path))
    else:
        aut = tmp_path / "aut.json"
        aut.write_text(canonical_json(automaton_to_dict(
            ParityAutomaton.make(trivial_skeleton(["a", "b"]), {("m0", "a"): 0, ("m0", "b"): 1})
        )))
        out, code = run_cli("game", "solve", "--arena", str(path), "--automaton", str(aut))
    assert code == 2
    error = json.loads(out)["error"]
    assert fault in error
    assert error.startswith(f"{path}: ")
    assert "Traceback" not in capsys.readouterr().err


def test_cli_deeply_nested_document_exits_2(tmp_path, capsys):
    # the JSON decoder recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    out, code = run_cli("skel", "supports", "--skeleton", str(path))
    assert code == 2
    assert json.loads(out) == {"format": 1, "error": f"{path}: JSON nested too deeply to read"}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc",
    [InternalConsistencyError("law violated"), RecursionError("too deep"), MemoryError()],
)
def test_cli_unfinished_run_exits_4(monkeypatch, exc):
    def fail(n_max):
        raise exc

    monkeypatch.setattr(consistency, "mp_counterexample_report", fail)
    out, code = run_cli("demo", "mp", "--n-max", "3")
    assert code == 4
    assert json.loads(out) == {"format": 1, "error": f"{type(exc).__name__}: {exc}"}


def test_cli_game_too_deep_to_solve_exits_4(tmp_path):
    # one self-loop arena state against a 1,500-state chain with priorities
    # 1499, 1498, ..., 0: every priority level peels off one memory state, so
    # the recursive solver goes deeper than the interpreter allows
    n = 1500
    chain = Skeleton.make(
        [f"m{i}" for i in range(n)], "m0", ["a"],
        {(f"m{i}", "a"): f"m{min(i + 1, n - 1)}" for i in range(n)},
    )
    aut = ParityAutomaton.make(chain, {(f"m{i}", "a"): n - 1 - i for i in range(n)})
    arena = Arena.make(["s"], {"s": 1}, [("s", "a", "s")])
    paths = {"arena": arena_to_dict(arena), "automaton": automaton_to_dict(aut)}
    for name, doc in paths.items():
        (tmp_path / f"{name}.json").write_text(canonical_json(doc), encoding="utf-8")
    out, code = run_cli("game", "solve", "--arena", str(tmp_path / "arena.json"),
                        "--automaton", str(tmp_path / "automaton.json"))
    assert code == 4
    report = json.loads(out)
    assert set(report) == {"format", "error"}
    assert report["error"].startswith("RecursionError: ")


def test_cli_synthesize_verify_game(files, tmp_path):
    dpa = str(tmp_path / "dpa.json")
    out, code = run_cli(
        "synthesize",
        "--condition",
        files["genbuchi.json"],
        "--skeleton",
        files["switch.json"],
        "--out",
        dpa,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert len(doc["classes"]) >= 2

    out, code = run_cli(
        "verify", "--automaton", dpa, "--condition", files["genbuchi.json"]
    )
    assert code == 0

    out, code = run_cli(
        "game", "solve", "--arena", files["arena.json"], "--automaton", dpa
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regions"]["1"]

    out, code = run_cli(
        "game", "verify", "--arena", files["arena.json"], "--automaton", dpa
    )
    assert code == 0

    out, code = run_cli(
        "game",
        "lift-experiment",
        "--condition",
        files["genbuchi.json"],
        "--skeleton",
        files["switch.json"],
        "--arenas",
        "5",
        "--max-states",
        "5",
    )
    assert code == 0
    assert json.loads(out)["passes"] == 10


def test_cli_ds_commands():
    out, code = run_cli("ds", "classify", "--lambda", "2/5", "--k", "1")
    assert code == 0 and json.loads(out)["verdict"] == "three-class"
    out, code = run_cli(
        "ds", "greedy", "--lambda", "1/2", "--k", "1", "--x", "1/3", "--digits", "6"
    )
    doc = json.loads(out)
    assert doc["digits"] == [0, 0, 1, 0, 1, 0] and doc["remainder"] == "1/48"
    out, code = run_cli("ds", "gaps", "--lambda", "2/3", "--terms", "5")
    assert code == 0 and json.loads(out)["gaps"][0] == "3/2"
    out, code = run_cli(
        "ds", "demo-cc", "--lambda", "1/2", "--k", "2", "--samples", "20"
    )
    assert code == 0 and json.loads(out)["consistent"] == 20


def test_cli_ds_demo_cc_draws_colors_of_a_huge_k():
    # the colors in [-k, k] are drawn, never listed, so k = 10**22 runs as
    # quickly as k = 2
    out, code = run_cli(
        "ds", "demo-cc", "--lambda", "1/2", "--k", str(10**22), "--samples", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["k"] == 10**22
    assert (report["consistent"], report["failures"]) == (1, [])


@pytest.mark.parametrize("lam", ["0", "1", "3/2", "-1/2"])
@pytest.mark.parametrize(
    "argv",
    [
        ("ds", "classify", "--k", "1"),
        ("ds", "gap-automaton", "--k", "1"),
        ("ds", "greedy", "--k", "1", "--x", "0", "--digits", "2"),
        ("ds", "demo-cc", "--k", "1", "--samples", "2"),
    ],
    ids=["classify", "gap-automaton", "greedy", "demo-cc"],
)
def test_cli_ds_lambda_out_of_range_exits_2(capsys, lam, argv):
    # gap-automaton at lambda = 0 used to divide by zero, and at 3/2 or
    # -1/2 to report infinitely many gap values
    out, code = run_cli(*argv, f"--lambda={lam}")
    assert code == 2
    assert json.loads(out) == {
        "format": 1, "error": "discount factor must satisfy 0 < lambda < 1"
    }
    assert "Traceback" not in capsys.readouterr().err


def test_cli_infinite_index_has_one_text(tmp_path):
    cond = tmp_path / "cond.json"
    cond.write_text(canonical_json(condition_to_dict(DiscountedSumCondition(Fraction(2, 3), 1))))
    rc, rc_code = run_cli("cond", "rc-automaton", "--condition", str(cond))
    gap, gap_code = run_cli("ds", "gap-automaton", "--lambda", "2/3", "--k", "1")
    assert rc_code == gap_code == 2
    assert rc == gap
    assert "infinite index" in json.loads(rc)["error"]


def test_cli_three_class_discounted_sums_verify(tmp_path):
    # below the frontier the gap automaton values cycle supports too
    cond = tmp_path / "cond.json"
    cond.write_text(canonical_json(condition_to_dict(DiscountedSumCondition(Fraction(2, 5), 1))))
    sk = tmp_path / "sk.json"
    sk.write_text(canonical_json(skeleton_to_dict(trivial_skeleton([-1, 0, 1]))))
    aut = tmp_path / "aut.json"
    out, code = run_cli("synthesize", "--condition", str(cond), "--skeleton", str(sk),
                        "--allow-transient", "--samples", "200", "--out", str(aut))
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    out, code = run_cli("verify", "--automaton", str(aut), "--condition", str(cond))
    assert code == 0 and json.loads(out)["lassos_checked"] == 1000


# lambda = (10**100 - 1) / 10**100: the i-th gap has the denominator
# (10**100 - 1)**i, which has 100 * i digits
_SLOW_DISCOUNT = f"{10**100 - 1}/{10**100}"


@pytest.mark.parametrize(
    "argv, option",
    [
        (("ds", "gaps", "--lambda", _SLOW_DISCOUNT, "--terms", "{n}"), "--terms"),
        (("ds", "greedy", "--lambda", "1/2", "--k", "1", "--x", "1/3", "--digits", "{n}"),
         "--digits"),
        (("ds", "greedy", "--lambda", "1/2", "--k", "1", "--x", "1e-{n}", "--digits", "1"),
         "--x"),
    ],
    ids=["gaps", "greedy-digits", "greedy-x"],
)
def test_cli_ds_results_too_long_to_write_exit_2(capsys, argv, option):
    # the last count whose result the interpreter still writes out, and
    # the first whose result it does not (4,300 digits at most)
    last, first = {"--terms": (43, 44), "--digits": (14284, 14285), "--x": (4299, 4300)}[option]
    out, code = run_cli(*(a.format(n=last) for a in argv))
    assert code == 0
    out, code = run_cli(*(a.format(n=first) for a in argv))
    assert code == 2
    assert json.loads(out) == {
        "format": 1,
        "error": f"{option} too large: the result has an integer of more than 4300 digits",
    }
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("ds", "classify", "--k", "0"),
        ("ds", "gap-automaton", "--k", "0"),
        ("ds", "greedy", "--k", "1", "--x", "1/3", "--digits", "1"),
        ("ds", "gaps", "--terms", "1"),
        ("ds", "demo-cc", "--k", "0", "--samples", "1"),
    ],
    ids=["classify", "gap-automaton", "greedy", "gaps", "demo-cc"],
)
def test_cli_ds_lambda_too_long_to_write_exits_2(capsys, argv):
    # 1e-4300 is read, but its denominator has 4,301 digits, one more than
    # the report could echo; 1e-5000 is refused while it is parsed
    out, code = run_cli(*argv, "--lambda", "1e-4300")
    assert code == 2
    assert json.loads(out) == {
        "format": 1,
        "error": "--lambda too large: the result has an integer of more than 4300 digits",
    }
    out, code = run_cli(*argv, "--lambda", "1e-5000")
    assert code == 2 and out == ""
    assert "argument --lambda" in capsys.readouterr().err


def test_cli_ds_x_exponent_beyond_the_digit_limit_exits_2(capsys):
    out, code = run_cli(
        "ds", "greedy", "--lambda", "1/2", "--k", "1", "--x", "1e-10000000", "--digits", "1"
    )
    assert code == 2
    assert json.loads(out)["error"] == "--x too large: its exponent is beyond 4300"
    assert "Traceback" not in capsys.readouterr().err


def test_cli_demo_mp():
    out, code = run_cli("demo", "mp", "--n-max", "5")
    assert code == 1  # confirmed counterexample: the property fails
    doc = json.loads(out)
    assert doc["witness"]["zero_positions"] == [2, 6, 12, 20, 30]


def test_cli_export_dot(files, tmp_path):
    target = str(tmp_path / "out.dot")
    out, code = run_cli("export", "dot", "--skeleton", files["switch.json"], "--out", target)
    assert code == 0
    assert "diamond" in Path(target).read_text()


def _run_child(*args):
    # the child finds the package where this process imported it from
    package_root = str(Path(skelparity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_entry_point_installed():
    proc = _run_child("-m", "skelparity.cli", "ds", "classify", "--lambda", "1/2", "--k", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "three-class"


def test_cli_import_needs_no_numpy():
    proc = _run_child("-c", "import skelparity.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr
