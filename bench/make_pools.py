"""Regenerate ``pools.json``, the instance pools the workloads sample from.

    python3 bench/make_pools.py            # all pools, about 25 minutes
    python3 bench/make_pools.py rc_d4      # only the named pools

Random skeletons and parity automata have costs spread over several orders
of magnitude (the support count of a 3-state switch x R product ranges from
23 to over 20,000), so a plain random draw per seed would make the
benchmark's totals vary more from seed to seed than any change it should
detect.  Each pool therefore keeps the candidates, drawn from its own fixed
random stream, whose commands each take a drift-corrected time inside a
fixed band (median of three runs; see refclock.py).  A run then samples
its instances from the pools by its own seed.  The oracle's support counts
screen out huge candidates before anything is timed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import refclock  # noqa: E402
import workloads as W  # noqa: E402
from skelparity.cli import main  # noqa: E402

WORK = ROOT / ".bench_work" / "pools"
POOL_SIZE = 24
# drift-corrected seconds per command, median of three runs
BANDS = {
    "cc_r2": {"switchxR": (0.17, 0.27)},
    "cc_r3": {"switchxR": (0.25, 0.35), "R": (0.01, 0.03)},
    "synth_r2": {"synthesize": (0.6, 1.0)},
    "rc_d3": {"rc": (0.025, 0.05)},
    "rc_d4": {"rc": (0.22, 0.28), "residuals": (0.06, 0.1)},
    "rc_cap_exceeded": {"rc": (0.6, 1.5)},
}
# support counts of switch x R outside these ranges are never in the band
SUPPORT_SCREEN = {"cc_r2": (250, 800), "cc_r3": (350, 1000), "synth_r2": (0, 1000)}


def command_time(argv, band) -> tuple[float, int]:
    """Median drift-corrected seconds of three runs; a first run far
    outside the band stops early."""
    lo, hi = band
    times, code = [], None

    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(list(argv))

    for _ in range(3):
        t, code = refclock.timed(call)
        times.append(t.corrected)
        if times[0] > 2 * hi or times[0] < lo / 2:
            break
    return statistics.median(times), code


def timed_in_bands(key: str, commands: dict, codes: dict | None = None):
    """{name: seconds} when every command exits with an expected code
    (default 0) inside its band, else None."""
    seconds = {}
    for name, argv in commands.items():
        band = BANDS[key][name]
        t, code = command_time(argv, band)
        if code not in (codes or {}).get(name, (0,)) or not band[0] <= t <= band[1]:
            return None
        seconds[name] = round(t, 3)
    return seconds


def r_tables(rng: random.Random, n: int):
    """All reachable complete n-state tables over {a,b,c} for n <= 2, else a random stream."""
    if n <= 2:
        for targets in itertools.product(range(n), repeat=3 * n):
            if W.reachable_from_init(n, W.ABC, targets):
                yield list(targets)
        return
    while True:
        targets = [rng.randrange(n) for _ in range(3 * n)]
        if W.reachable_from_init(n, W.ABC, targets):
            yield targets


def dpa_stream(rng: random.Random, n: int):
    while True:
        targets = [rng.randrange(n) for _ in range(2 * n)]
        if W.reachable_from_init(n, ["a", "b"], targets):
            yield {"states": n, "targets": targets,
                   "priorities": [rng.randint(0, 2) for _ in range(2 * n)]}


def skeleton_pool(key: str, n: int) -> list:
    """R tables whose gen-Buechi commands on switch x R (and R) land in the bands."""
    rng = random.Random(f"pools:{key}")
    files = W.Files(WORK)
    cond = files.write("gen_buchi.json", W.GEN_BUCHI)
    lo, hi = SUPPORT_SCREEN[key]
    pool = []
    for targets in r_tables(rng, n):
        entry = {"states": n, "targets": targets}
        r = W.r_from_pool(entry)
        sk = W.product_doc(W.SWITCH, r)
        try:
            supports = len(oracles.cycle_supports(oracles.Machine(sk).edges, limit=hi))
        except oracles.TooManySupports:
            continue
        if supports < lo:
            continue
        paths = {"switchxR": files.write("sk.json", sk), "R": files.write("r.json", r)}
        if key == "synth_r2":
            commands = {"synthesize": ["synthesize", "--condition", cond, "--skeleton",
                                       paths["switchxR"], "--allow-transient"]}
        else:
            commands = {
                name: ["check", "cycle-consistency", "--condition", cond, "--skeleton", path]
                for name, path in paths.items()
                if name in BANDS[key]
            }
        # on R alone the check passes or fails with a witness
        seconds = timed_in_bands(key, commands, {"R": (0, 1)})
        if seconds is not None:
            pool.append({**entry, "supports": supports, "seconds": seconds})
            print(key, len(pool), file=sys.stderr, flush=True)
            if len(pool) == POOL_SIZE:
                break
    return pool


def largest_pair(aut: dict, limit: int) -> tuple[int, list]:
    """Largest support count over the pair products of all state pairs,
    and the first pair of state indices that reaches it."""
    m = oracles.Machine(aut)
    most, pair = -1, None
    for (i, q1), (j, q2) in itertools.combinations(enumerate(m.states), 2):
        _, arcs = oracles.pair_product(m, q1, m, q2)
        edges = [(u, None, v) for u, v, _, _ in arcs]
        count = len(oracles.cycle_supports(edges, limit=limit))
        if count > most:
            most, pair = count, [i, j]
    return most, pair


def dpa_pool(key: str, n: int, exceed: bool = False):
    """DPAs whose rc-automaton (and largest-pair residual query) land in the
    bands at the workload's cap; with ``exceed``, the first that exits 3."""
    rng = random.Random(f"pools:{key}")
    files = W.Files(WORK)
    cap = ["--cap", str(W.RC_CAP)]
    pool = []
    for entry in dpa_stream(rng, n):
        aut = W.dpa_from_pool(entry)
        try:
            most, pair = largest_pair(aut, limit=20000 if exceed else W.RC_CAP)
        except oracles.TooManySupports:
            continue
        if exceed != (most > W.RC_CAP):
            continue
        path = files.write("dpa.json", {"format": 1, "type": "condition", "kind": "dpa",
                                  "automaton": aut})
        commands = {"rc": ["cond", "rc-automaton", "--condition", path] + cap}
        if "residuals" in BANDS[key]:
            words = W.shortest_words(oracles.Machine(aut))
            w1, w2 = (W.word_arg(words[aut["states"][i]]) for i in pair)
            commands["residuals"] = ["cond", "residuals", "--condition", path,
                                     "--w1", w1, "--w2", w2] + cap
        seconds = timed_in_bands(key, commands, {"rc": (3,)} if exceed else None)
        if seconds is None:
            continue
        found = {**entry, "largest_pair": pair, "largest_pair_supports": most,
                 "seconds": seconds}
        if exceed:
            return found
        pool.append(found)
        print(key, len(pool), file=sys.stderr, flush=True)
        if len(pool) == POOL_SIZE:
            return pool


BUILDERS = {
    "cc_r2": lambda: skeleton_pool("cc_r2", 2),
    "cc_r3": lambda: skeleton_pool("cc_r3", 3),
    "synth_r2": lambda: skeleton_pool("synth_r2", 2),
    "rc_d3": lambda: dpa_pool("rc_d3", 3),
    "rc_d4": lambda: dpa_pool("rc_d4", 4),
    "rc_cap_exceeded": lambda: dpa_pool("rc_cap_exceeded", 4, exceed=True),
}


def main_pools(keys):
    refclock.warm_up()
    pools = json.loads(W.POOLS.read_text(encoding="utf-8")) if W.POOLS.exists() else {}
    try:
        for key in keys or BUILDERS:
            pools[key] = BUILDERS[key]()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    W.POOLS.write_text(json.dumps(pools, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main_pools(sys.argv[1:])
