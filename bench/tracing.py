"""Per-layer spans, recorded from outside the program.

:class:`Tracer` replaces the program's layer functions (``LAYERS``) by
wrappers that record a span per call: name, start, end, parent span and
operation id.  Modules import each other's functions by name
(``from .skeletons import closed_walk``), so every module-level binding of
a wrapped function is replaced, not only the defining one.  ``uninstall``
puts the originals back.

Self time of a span is its duration minus the time its child spans cover.
Helpers that are not layers (sort keys, the competition witness search,
JSON decoding steps) stay unwrapped, so their time counts in the layer
that calls them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

LAYERS = {
    "skeletons": ("product", "enumerate_cycle_supports", "closed_walk"),
    "conditions": ("lasso_value", "compare_states", "right_congruence_automaton"),
    "consistency": ("check_prefix_independence", "check_cycle_consistency"),
    "synthesis": ("classify_supports", "build_cycle_preorder", "assign_priorities",
                  "verify_synthesis"),
    "games": ("product_game", "solve_parity", "verify_strategy"),
    "serialize": ("load_typed", "canonical_json"),
}
BINDERS = tuple(LAYERS) + ("cli",)
# layers whose returned list length is summed as a size count
SIZED = {"skeletons.enumerate_cycle_supports": "supports"}
ROOT_SPAN = "cli.main"


def layer_functions() -> dict:
    """{"module.name": function} for every wrapped layer function."""
    out = {}
    for short, names in LAYERS.items():
        module = importlib.import_module(f"skelparity.{short}")
        for name in names:
            out[f"{short}.{name}"] = getattr(module, name)
    return out


class Tracer:
    """Records spans of wrapped calls and per-layer totals for one round."""

    def __init__(self):
        self.keep_spans = True  # spans of the first traced round only
        self.originals = layer_functions()
        self.wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}
        self._patched: list = []
        self.spans: list = []  # (id, name, start, end, parent id, op id)
        self.op_id = -1
        self._stack: list = []  # [span id, start, child seconds]
        self._next_id = 0
        self.reset_totals()

    def reset_totals(self):
        self.self_raw: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()

    def install(self):
        by_id = {id(fn): self.wrappers[name] for name, fn in self.originals.items()}
        for short in BINDERS:
            module = importlib.import_module(f"skelparity.{short}")
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.self_raw[name] += duration - frame[2]
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if self.keep_spans:
            self.spans.append((frame[0], name, frame[1], end,
                               parent[0] if parent else None, self.op_id))

    def _wrap(self, name: str, fn):
        size_key = SIZED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if size_key is not None:
                self.sizes[f"{name}.{size_key}"] += len(result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span."""
        self.op_id = op_id
        frame = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(ROOT_SPAN, frame)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{'' if parent is None else parent}\t{op}\n")
