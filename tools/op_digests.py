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

Reports name their input files, so two checkouts compare only with the same
WORKDIR: run the script in each, with the same arguments, and diff the two
outputs.  Identical lines mean byte-identical reports, exit codes and output
files.  The bench directory is only read: no bytecode is written there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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

    if workload not in workloads.WORKLOADS:
        print(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    for op in workloads.WORKLOADS[workload](seed, workdir):
        print(op.name, digest(cli_main, op.argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
