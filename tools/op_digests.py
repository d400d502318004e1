"""Digest every operation of one benchmark workload.

Usage::

    python tools/op_digests.py WORKLOAD SEED WORKDIR

Writes the inputs of WORKLOAD (``cc-ladder``, ``rc-dpa`` or ``synth-lift``)
for SEED into WORKDIR with ``bench/workloads.py``, runs each of its
operations once, in order, through ``skelparity.cli.main`` of the ``src/``
next to this script, and prints one line per operation: its name, its exit
code, the sha256 of its stdout and the sha256 of its ``--out`` file (``-``
when it has no ``--out`` or wrote none).  An exception escaping ``main``
prints its type in place of the exit code, and its traceback on stderr.

The workload ``witnesses`` is built here, not in ``bench/``: seeded random
pairs of a DPA condition and a skeleton, each through ``check
prefix-independence`` and ``check cycle-consistency``, so that failing
checks print their ``prefix-pair`` and ``support-values`` witness words,
which no benchmark operation does.  The script runs in a checkout that
predates this workload when copied into its ``tools/``.

Reports name their input files, so two checkouts compare only with the same
WORKDIR: run the script in each, with the same arguments, and diff the two
outputs.  Identical lines mean byte-identical reports, exit codes and output
files.  The bench directory is only read: no bytecode is written there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(main, argv: tuple) -> str:
    """``exit stdout-digest out-digest`` of one run of ``main(argv)``."""
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None:
        out.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = str(main(list(argv)))
        except Exception as exc:  # report it, and go on with the next operation
            code = type(exc).__name__
            traceback.print_exc(file=sys.__stderr__)
    written = sha256(out.read_bytes()) if out is not None and out.is_file() else "-"
    return f"{code} {sha256(buf.getvalue().encode())} {written}"


WITNESS_PAIRS = 100


def random_table(rng: random.Random, prefix: str, max_states: int) -> dict:
    """A skeleton document over {a, b} on 1 to ``max_states`` states, cut
    to the states reachable from the first one."""
    states = [f"{prefix}{i}" for i in range(rng.randint(1, max_states))]
    upd = {(s, c): rng.choice(states) for s in states for c in "ab"}
    reach, work = [states[0]], [states[0]]
    while work:
        s = work.pop()
        for c in "ab":
            if upd[s, c] not in reach:
                reach.append(upd[s, c])
                work.append(upd[s, c])
    kept = sorted(reach)
    return {"format": 1, "type": "skeleton", "alphabet": ["a", "b"], "states": kept,
            "init": states[0], "upd": [[s, c, upd[s, c]] for s in kept for c in "ab"]}


def witness_ops(seed: int, workdir: Path) -> list[tuple[str, tuple]]:
    """``WITNESS_PAIRS`` pairs of a DPA on 1 to 4 states with priorities 0
    to 3 and a skeleton on 1 or 2 states, both over {a, b}, each through
    both ``check`` commands: (name, argv) per operation."""
    rng = random.Random(f"witnesses:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(WITNESS_PAIRS):
        aut = {**random_table(rng, "q", 4), "type": "parity-automaton"}
        aut["priority"] = [[s, c, rng.randint(0, 3)] for s, c, _ in aut["upd"]]
        docs = {"dpa": {"format": 1, "type": "condition", "kind": "dpa", "automaton": aut},
                "sk": random_table(rng, "m", 2)}
        paths = {}
        for key, doc in docs.items():
            paths[key] = workdir / f"w{i}_{key}.json"
            paths[key].write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        for which in ("prefix-independence", "cycle-consistency"):
            argv = ("check", which, "--condition", str(paths["dpa"]), "--skeleton", str(paths["sk"]))
            ops.append((f"{which}/{i}", argv))
    return ops


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: op_digests.py WORKLOAD SEED WORKDIR", file=sys.stderr)
        return 2
    workload, seed, workdir = args[0], int(args[1]), Path(args[2]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from skelparity.cli import main as cli_main

    if workload == "witnesses":
        ops = witness_ops(seed, workdir)
    elif workload in workloads.WORKLOADS:
        ops = [(op.name, op.argv) for op in workloads.WORKLOADS[workload](seed, workdir)]
    else:
        choices = sorted(workloads.WORKLOADS) + ["witnesses"]
        print(f"unknown workload {workload!r}; choose from {choices}", file=sys.stderr)
        return 2
    for name, argv in ops:
        print(name, digest(cli_main, argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
