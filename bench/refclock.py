"""Drift correction by a fixed pure-Python reference slice.

The speed of a small shared machine drifts with load from outside the
process: the same loop can take twice as long from one second to the next.
Each timed phase is therefore bracketed by a reference measurement taken
just before and just after it.  The phase's seconds are scaled by
``NOMINAL_REF_S / measured reference``, which gives its time at a fixed
nominal speed.  The raw seconds are kept next to the corrected ones.
"""

from __future__ import annotations

import statistics
import time

# Work of one reference sub-slice: small frozensets of pairs, tuples,
# sorting and a dict of lists, the same kind of interpreter work as the
# program's support handling.  It tracks the program's speed better than a
# plain integer loop does.
SLICE_ITEMS = 120
SUBSLICES = 5
# Median reference measurement (seconds) at nominal speed; see README.md.
NOMINAL_REF_S = 0.00058


# Import work that corrects the import phase of set-up, which follows the
# speed of the import machinery more than that of the slice: a fixed set of
# standard modules, each time loaded by a fresh interpreter of its own next
# to the one that imports the program.  Median seconds at nominal speed;
# see README.md.
REFERENCE_IMPORTS = ("email.parser, http.client, xml.etree.ElementTree, tarfile, csv, "
                     "logging, configparser, difflib, calendar, uuid, optparse, shlex, "
                     "plistlib, pprint, glob")
NOMINAL_IMPORT_REF_S = 0.067


def _slice(n: int = SLICE_ITEMS) -> int:
    items = []
    for i in range(n):
        pairs = frozenset(((i * 7) % 50, (i * 13 + j) % 50) for j in range(6))
        items.append((len(pairs), tuple(sorted(pairs))))
    items.sort()
    groups: dict = {}
    for size, pairs in items:
        groups.setdefault(size, []).append(pairs)
    return len(groups)


def reference() -> float:
    """Seconds of one reference sub-slice now: the median of several."""
    times = []
    for _ in range(SUBSLICES):
        start = time.perf_counter()
        _slice()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def warm_up():
    """Run the slice for 50 ms, until the interpreter's first-call costs are paid."""
    end = time.perf_counter() + 0.05
    while time.perf_counter() < end:
        reference()


class Timed:
    """Raw and corrected seconds of one bracketed phase."""

    __slots__ = ("raw", "ref", "nominal")

    def __init__(self, raw: float, ref: float, nominal: float = NOMINAL_REF_S):
        self.raw = raw
        self.ref = ref
        self.nominal = nominal

    @property
    def speed(self) -> float:
        """Measured speed relative to nominal (1.0 = nominal, <1 = slower)."""
        return self.nominal / self.ref

    @property
    def corrected(self) -> float:
        return self.raw * self.speed


def timed(fn, *args, **kwargs) -> tuple[Timed, object]:
    """Run ``fn`` between two reference measurements."""
    before = reference()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    raw = time.perf_counter() - start
    after = reference()
    return Timed(raw, (before + after) / 2), result
