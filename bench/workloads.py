"""Workload inputs and operations.

A workload's ``setup(seed, workdir)`` writes the seeded input files and
returns its operations: command lines for ``skelparity.cli.main`` together
with the oracle check of each report.  Inputs are plain JSON documents built
here, from the seed and from the instance pools in ``pools.json``, without
using the program.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles
from oracles import Machine, require

HERE = Path(__file__).resolve().parent
POOLS = HERE / "pools.json"

ABC = ["a", "b", "c"]
RC_CAP = 2000
LIFT_ARENAS = 40
LIFT_MAX_STATES = 8
LIFT_SEED = 0
SAMPLES = 1000


@dataclass(frozen=True)
class Op:
    """One command line plus the check of its report.

    ``check(report, exit_code)`` raises :class:`oracles.OracleMismatch`
    when the report is wrong.  Exit codes 2 and 3 and escaping exceptions
    never reach it: they are failed operations.  ``known_failure`` is the
    exit code of an operation kept in a workload although a known fault of
    the program makes it fail every time; any other failure makes the run
    incorrect.
    """

    name: str
    argv: tuple
    check: Callable[[dict, int], None]
    known_failure: int | None = None


# -- documents -----------------------------------------------------------------


def skeleton_doc(states, init, alphabet, delta) -> dict:
    return {
        "format": 1,
        "type": "skeleton",
        "alphabet": list(alphabet),
        "states": sorted(states),
        "init": init,
        "upd": [[s, c, delta[(s, c)]] for s in sorted(states) for c in alphabet],
    }


def automaton_doc(states, init, alphabet, delta, prio) -> dict:
    doc = skeleton_doc(states, init, alphabet, delta)
    doc["type"] = "parity-automaton"
    doc["priority"] = [[s, c, prio[(s, c)]] for s in sorted(states) for c in alphabet]
    return doc


def table_skeleton(n: int, alphabet, targets, prefix: str) -> tuple:
    """States, init and transition map of a complete table ``targets[i*|A|+j]``."""
    states = [f"{prefix}{i}" for i in range(n)]
    delta = {
        (states[i], c): states[targets[i * len(alphabet) + j]]
        for i in range(n)
        for j, c in enumerate(alphabet)
    }
    return states, states[0], delta


def reachable_from_init(n: int, alphabet, targets) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(len(alphabet)):
            t = targets[i * len(alphabet) + j]
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen) == n


def product_doc(left: dict, right: dict) -> dict:
    """Reachable product of two skeleton documents; states ``s1|s2``."""
    a, b = Machine(left), Machine(right)
    nodes, arcs = oracles.product(a, a.init, b, b.init)
    name = "{0[0]}|{0[1]}".format
    delta = {(name(u), c): name(v) for u, c, v in arcs}
    return skeleton_doc([name(p) for p in nodes], name((a.init, b.init)), a.alphabet, delta)


SWITCH = skeleton_doc(
    ["init", "m2"],
    "init",
    ABC,
    {
        ("init", "a"): "init",
        ("init", "b"): "m2",
        ("init", "c"): "init",
        ("m2", "a"): "init",
        ("m2", "b"): "m2",
        ("m2", "c"): "m2",
    },
)


def trivial_doc(alphabet) -> dict:
    return skeleton_doc(["m0"], "m0", alphabet, {("m0", c): "m0" for c in alphabet})


def muller_doc(skeleton: dict, winning) -> dict:
    rows = [sorted([s, c] for s, c in g) for g in winning]
    return {
        "format": 1,
        "type": "condition",
        "kind": "muller",
        "skeleton": skeleton,
        "winning_supports": sorted(rows, key=lambda r: (len(r), r)),
    }


def tabulated_muller(skeleton: dict, is_winning) -> dict:
    sk = Machine(skeleton)
    return muller_doc(skeleton, [g for g in oracles.all_supports_small(sk) if is_winning(g)])


# gen-Buechi ("see a and b infinitely often") tabulated on the trivial skeleton
GEN_BUCHI = tabulated_muller(
    trivial_doc(ABC), lambda g: {"a", "b"} <= {c for _, c in g}
)

CONTRAST_PRIORITIES = {
    ("m1", "a"): 2,
    ("m1", "b"): 1,
    ("m1", "c"): 3,
    ("m2", "a"): 2,
    ("m2", "b"): 0,
    ("m2", "c"): 0,
}
CONTRAST_SKELETON = skeleton_doc(
    ["m1", "m2"],
    "m1",
    ABC,
    {
        ("m1", "a"): "m2",
        ("m1", "b"): "m1",
        ("m1", "c"): "m1",
        ("m2", "a"): "m1",
        ("m2", "b"): "m2",
        ("m2", "c"): "m2",
    },
)
CONTRAST = tabulated_muller(
    CONTRAST_SKELETON, lambda g: max(CONTRAST_PRIORITIES[t] for t in g) % 2 == 0
)

AB_PREFIX = {
    "format": 1,
    "type": "condition",
    "kind": "dpa",
    "automaton": automaton_doc(
        ["[ε]", "[a]", "[ab]", "[b]"],
        "[ε]",
        ["a", "b"],
        {
            ("[ε]", "a"): "[a]",
            ("[ε]", "b"): "[b]",
            ("[a]", "a"): "[b]",
            ("[a]", "b"): "[ab]",
            ("[ab]", "a"): "[ab]",
            ("[ab]", "b"): "[ab]",
            ("[b]", "a"): "[b]",
            ("[b]", "b"): "[b]",
        },
        {
            ("[ε]", "a"): 1,
            ("[ε]", "b"): 1,
            ("[a]", "a"): 1,
            ("[a]", "b"): 0,
            ("[ab]", "a"): 0,
            ("[ab]", "b"): 0,
            ("[b]", "a"): 1,
            ("[b]", "b"): 1,
        },
    ),
}


def ds_doc(lam: Fraction, k: int) -> dict:
    return {
        "format": 1,
        "type": "condition",
        "kind": "discounted-sum",
        "lambda": [lam.numerator, lam.denominator],
        "k": k,
    }


def dpa_from_pool(entry: dict) -> dict:
    n = entry["states"]
    states, init, delta = table_skeleton(n, ["a", "b"], entry["targets"], "q")
    prio = {
        (states[i], c): entry["priorities"][i * 2 + j]
        for i in range(n)
        for j, c in enumerate(["a", "b"])
    }
    return automaton_doc(states, init, ["a", "b"], delta, prio)


def r_from_pool(entry: dict) -> dict:
    states, init, delta = table_skeleton(entry["states"], ABC, entry["targets"], "r")
    return skeleton_doc(states, init, ABC, delta)


def load_pools() -> dict:
    with open(POOLS, encoding="utf-8") as fh:
        return json.load(fh)


class Files:
    """Writes documents into the run's working directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1, ensure_ascii=False)
        return str(path)

    def path(self, name: str) -> str:
        return str(self.workdir / name)


# -- checks ----------------------------------------------------------------------


def check_prefix_independent(report: dict, code: int):
    # generalized Buechi is prefix-independent, and its congruence has one class
    require(code == 0 and report.get("verdict") == "pass", "prefix-independence must pass")
    require(report["details"]["congruence_states"] == 1, "congruence must have one class")


def check_cc(skeleton: dict):
    m = Machine(skeleton)
    return lambda report, code: oracles.check_gen_buchi_consistency(m, report, code)


def check_rc(automaton: dict):
    m = Machine(automaton)
    return lambda report, code: oracles.check_rc_report(m, report, code)


def check_residual(automaton: dict, w1, w2):
    m = Machine(automaton)
    return lambda report, code: oracles.check_residual_report(m, w1, w2, report, code)


def check_synthesis(condition: dict, out_path: str):
    def check(report: dict, code: int):
        require(code == 0 and report.get("verdict") == "pass",
                f"synthesize failed: {report.get('stage')!r} {report.get('witness')!r}")
        with open(out_path, encoding="utf-8") as fh:
            written = json.load(fh)
        require(written == report["automaton"], "--out file differs from the report")
        mismatch = oracles.language_mismatch(report["automaton"], condition)
        require(mismatch is None, f"synthesized automaton is wrong: {mismatch}")

    return check


def check_verify(report: dict, code: int):
    require(code == 0 and report.get("verdict") == "pass", "verify must pass on a correct automaton")
    require(report["lassos_checked"] == SAMPLES, "verify must check every sampled lasso")


def check_lift(report: dict, code: int):
    require(code == 0 and report.get("verdict") == "pass", "lift experiment must pass")
    arenas = report["arenas"]
    require(arenas == LIFT_ARENAS, "arena count echoed wrongly")
    require(report["checks"] == report["passes"] == 2 * arenas, "lift checks != passes != 2 x arenas")
    require(report["failures"] == [], "lift experiment reports failures")


# -- workloads -------------------------------------------------------------------


def word_arg(word) -> str:
    return ",".join(str(c) for c in word)


def shortest_words(m: Machine) -> dict:
    words = {m.init: ()}
    queue = deque([m.init])
    while queue:
        s = queue.popleft()
        for c in m.alphabet:
            t = m.delta[(s, c)]
            if t not in words:
                words[t] = words[s] + (c,)
                queue.append(t)
    return words


def setup_cc_ladder(seed: int, workdir: Path) -> list:
    """Both consistency checks of generalized Buechi on switch x R and on R."""
    rng = random.Random(f"cc-ladder:{seed}")
    pools = load_pools()
    files = Files(workdir)
    cond = files.write("gen_buchi.json", GEN_BUCHI)
    chosen = [(1, {"states": 1, "targets": [0, 0, 0]})]
    chosen += [(2, e) for e in rng.sample(pools["cc_r2"], 6)]
    chosen += [(3, e) for e in rng.sample(pools["cc_r3"], 8)]
    ops = []
    for i, (size, entry) in enumerate(chosen):
        r = r_from_pool(entry)
        for label, sk in (("switchxR", product_doc(SWITCH, r)), ("R", r)):
            path = files.write(f"r{i}_{label}.json", sk)
            common = ("--condition", cond, "--skeleton", path)
            ops.append(Op(f"pi/{size}/{label}", ("check", "prefix-independence") + common,
                          check_prefix_independent))
            ops.append(Op(f"cc/{size}/{label}", ("check", "cycle-consistency") + common,
                          check_cc(sk)))
    return ops


def setup_rc_dpa(seed: int, workdir: Path) -> list:
    """rc-automaton and residual queries on random two-letter DPAs."""
    rng = random.Random(f"rc-dpa:{seed}")
    pools = load_pools()
    files = Files(workdir)
    cap = ("--cap", str(RC_CAP))
    exceeded = pools["rc_cap_exceeded"]
    if (any(e["largest_pair_supports"] > RC_CAP for e in pools["rc_d3"] + pools["rc_d4"])
            or exceeded["largest_pair_supports"] <= RC_CAP):
        raise ValueError(f"pools.json was not screened at --cap {RC_CAP}; "
                         "rebuild it with make_pools.py")
    ops = []
    picks = [("3", e) for e in rng.sample(pools["rc_d3"], 8)]
    picks += [("4", e) for e in rng.sample(pools["rc_d4"], 8)]
    for i, (size, entry) in enumerate(picks):
        aut = dpa_from_pool(entry)
        path = files.write(f"dpa{i}.json", {"format": 1, "type": "condition", "kind": "dpa",
                                             "automaton": aut})
        ops.append(Op(f"rc/{size}", ("cond", "rc-automaton", "--condition", path) + cap,
                      check_rc(aut)))
        if size == "4":
            # the pair with the largest pair product: the costliest comparison
            words = shortest_words(Machine(aut))
            w1, w2 = (words[aut["states"][k]] for k in entry["largest_pair"])
            ops.append(Op("residuals/4", ("cond", "residuals", "--condition", path,
                                          "--w1", word_arg(w1), "--w2", word_arg(w2)) + cap,
                          check_residual(aut, w1, w2)))
    # seed-independent instance whose pair product exceeds the cap (exit 3)
    aut = dpa_from_pool(exceeded)
    path = files.write("dpa_cap.json", {"format": 1, "type": "condition", "kind": "dpa",
                                         "automaton": aut})
    ops.append(Op("rc/cap-exceeded", ("cond", "rc-automaton", "--condition", path) + cap,
                  check_rc(aut), known_failure=3))
    return ops


def _synth_ops(files: Files, tag: str, cond_doc: dict, skeleton: dict, transient: bool,
               seed: int) -> list:
    cond = files.write(f"{tag}_cond.json", cond_doc)
    sk = files.write(f"{tag}_skel.json", skeleton)
    out = files.path(f"{tag}_dpa.json")
    argv = ("synthesize", "--condition", cond, "--skeleton", sk, "--out", out,
            "--seed", str(seed))
    if transient:
        argv += ("--allow-transient",)
    return [
        Op(f"synthesize/{tag}", argv, check_synthesis(cond_doc, out)),
        Op(f"verify/{tag}", ("verify", "--automaton", out, "--condition", cond,
                             "--seed", str(seed)), check_verify),
    ]


def setup_synth_lift(seed: int, workdir: Path) -> list:
    """synthesize + verify on fixed and seeded pairs, then two lift experiments."""
    rng = random.Random(f"synth-lift:{seed}")
    pools = load_pools()
    files = Files(workdir)
    sampling = rng.randrange(1 << 30)
    trivial_ab = trivial_doc(["a", "b"])
    trivial_k2 = trivial_doc([-2, -1, 0, 1, 2])
    ops = []
    ops += _synth_ops(files, "gen-buchi-switch", GEN_BUCHI, SWITCH, False, sampling)
    ops += _synth_ops(files, "ab-prefix", AB_PREFIX, trivial_ab, True, sampling)
    ops += _synth_ops(files, "contrast", CONTRAST, CONTRAST_SKELETON, False, sampling)
    for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
        tag = f"ds-{lam.denominator}-k2"
        ops += _synth_ops(files, tag, ds_doc(lam, 2), trivial_k2, True, sampling)
    for i, entry in enumerate(rng.sample(pools["synth_r2"], 3)):
        sk = product_doc(SWITCH, r_from_pool(entry))
        ops += _synth_ops(files, f"gen-buchi-R{i}", GEN_BUCHI, sk, True, sampling)
    lift = ("--arenas", str(LIFT_ARENAS), "--max-states", str(LIFT_MAX_STATES),
            "--seed", str(LIFT_SEED))
    for tag in ("gen-buchi-switch", "ds-2-k2"):
        ops.append(Op(f"lift/{tag}", ("game", "lift-experiment",
                                      "--condition", files.path(f"{tag}_cond.json"),
                                      "--skeleton", files.path(f"{tag}_skel.json")) + lift,
                      check_lift))
    return ops


WORKLOADS = {
    "cc-ladder": setup_cc_ladder,
    "rc-dpa": setup_rc_dpa,
    "synth-lift": setup_synth_lift,
}
