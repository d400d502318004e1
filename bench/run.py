"""Benchmark of the skelparity command line.

    python3 bench/run.py --workload cc-ladder --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: after set-up, every
operation of the workload is fed to ``skelparity.cli.main`` in process, one
after another, and the whole list (a round) is repeated until the time is
up.  Each report is checked against an oracle computed apart from the
program (``oracles.py``).  Every timed phase is bracketed by the reference
slice of ``refclock.py`` and scaled to the nominal reference speed; raw
seconds are printed beside the corrected ones.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced rounds, which alternate with untraced rounds to give the tracing
overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 7
FAILED_EXIT_CODES = (2, 3)
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import {}; print(time.perf_counter() - start)")

# layers of the traced run: call counts, sizes and self times
LAYER_CALLS = (
    "skeletons.enumerate_cycle_supports",
    "skeletons.closed_walk",
    "skeletons.product",
    "conditions.lasso_value",
    "conditions.compare_states",
    "conditions.right_congruence_automaton",
    "consistency.check_cycle_consistency",
    "consistency.check_prefix_independence",
    "games.product_game",
    "games.solve_parity",
)
LAYER_SELF = LAYER_CALLS + (
    "synthesis.classify_supports",
    "synthesis.build_cycle_preorder",
    "synthesis.assign_priorities",
    "synthesis.verify_synthesis",
    "games.verify_strategy",
    "serialize.load_typed",
    "serialize.canonical_json",
    "cli.main",
)
LAYER_SIZES = ("skeletons.enumerate_cycle_supports.supports",)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def call(cli_main, argv) -> tuple:
    """(exit code, stdout, exception) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    except Exception as exc:  # an escaping exception is a failed operation
        return None, out.getvalue(), exc
    return code, out.getvalue(), None


class Runner:
    """Runs rounds of operations and keeps every measurement."""

    def __init__(self, cli_main, ops, tracer=None):
        self.cli_main = cli_main
        self.ops = ops
        self.tracer = tracer
        self.wrong: list = []
        self.verified: set = set()
        self.reported: set = set()
        self.failed_rounds: list = []  # per round: indices of the failed operations
        self.untraced: list = []  # per round: [Timed per op]
        self.traced: list = []
        self.layer_rounds: list = []  # per traced round: (self_s, calls, sizes)

    def round(self, traced: bool):
        timings = []
        self_s: dict = {}
        calls: dict = {}
        sizes: dict = {}
        failed = []
        if traced:
            self.tracer.install()
        try:
            for i, op in enumerate(self.ops):
                if traced:
                    self.tracer.reset_totals()
                    t, result = refclock.timed(self.tracer.run_op, i, call, self.cli_main, op.argv)
                    for name, seconds in self.tracer.self_raw.items():
                        self_s[name] = self_s.get(name, 0.0) + seconds * t.speed
                    for name, n in self.tracer.calls.items():
                        calls[name] = calls.get(name, 0) + n
                    for name, n in self.tracer.sizes.items():
                        sizes[name] = sizes.get(name, 0) + n
                else:
                    t, result = refclock.timed(call, self.cli_main, op.argv)
                timings.append(t)
                if self._account(i, op, *result):
                    failed.append(i)
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.keep_spans = False
        self.failed_rounds.append(failed)
        (self.traced if traced else self.untraced).append(timings)
        if traced:
            self.layer_rounds.append((self_s, calls, sizes))

    def _account(self, i, op, code, out, exc) -> bool:
        """Check one operation's result; True when the operation failed."""
        if exc is not None or code in FAILED_EXIT_CODES:
            if (i, code) not in self.reported:
                self.reported.add((i, code))
                what = "".join(traceback.format_exception(exc)) if exc else out.strip()
                print(f"failed operation {op.name} (exit {code}): {what[:400]}", file=sys.stderr)
                if exc is not None or code != op.known_failure:
                    self.wrong.append(op.name)
            return True
        key = (i, code, out)
        if key in self.verified:
            return False
        try:
            op.check(json.loads(out), code)
        except Exception as exc:  # any check error means the report is wrong
            self.wrong.append(op.name)
            print(f"wrong report from {op.name}: {exc!r}", file=sys.stderr)
            return False
        self.verified.add(key)
        return False

    def failed_per_round(self) -> int:
        """Failed operations in one round; every round must fail the same ones."""
        first = self.failed_rounds[0]
        if any(failed != first for failed in self.failed_rounds):
            self.wrong.append("failures differ between rounds")
            print(f"failed operations differ between rounds: {self.failed_rounds}",
                  file=sys.stderr)
        return len(first)


def per_op_medians(rounds, attr: str) -> list:
    return [statistics.median(getattr(r[i], attr) for r in rounds) for i in range(len(rounds[0]))]


def round_totals(rounds) -> list:
    return [sum(t.corrected for t in r) for r in rounds]


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def child_import(modules: str, src: Path) -> float:
    """Seconds a fresh interpreter takes to import ``modules``, measured by the child."""
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(modules), str(src)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(child.stdout)


def cold_import(src: Path) -> refclock.Timed:
    """Import time of ``skelparity.cli`` in a fresh interpreter, as every
    command-line invocation pays it, corrected by the reference imports
    timed in other fresh interpreters just before and just after.  They are
    not run in the program's interpreter: they load standard modules the
    program imports too, which would then leave its own import unmeasured."""
    before = child_import(refclock.REFERENCE_IMPORTS, src)
    raw = child_import("skelparity.cli", src)
    after = child_import(refclock.REFERENCE_IMPORTS, src)
    return refclock.Timed(raw, (before + after) / 2, refclock.NOMINAL_IMPORT_REF_S)


def run(args, cli, workloads) -> int:
    setup = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        imports, inputs = [], []
        for _ in range(SETUP_REPS):
            imports.append(cold_import(ROOT / "src"))
            t, ops = refclock.timed(setup, args.seed, workdir)
            inputs.append(t)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        runner = Runner(cli.main, ops, tracer)
        start = time.perf_counter()
        walls = []
        while True:
            traced = bool(args.trace) and len(walls) % 2 == 1
            began = time.perf_counter()
            runner.round(traced)
            walls.append(time.perf_counter() - began)
            if args.trace and len(walls) < 2:
                continue
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speeds = [t.speed for r in runner.untraced + runner.traced for t in r]
    speeds += [t.speed for t in imports + inputs]
    n_ops = len(runner.ops)
    failed = runner.failed_per_round()
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} rounds of {n_ops} "
          f"operations, {failed} failed in each")
    print(f"reference speed: median {statistics.median(speeds):.3f} of nominal "
          f"(min {min(speeds):.3f}, max {max(speeds):.3f}; nominal slice "
          f"{refclock.NOMINAL_REF_S * 1e3:.3f} ms)")

    if args.trace:
        metrics = layer_metrics(runner, tracer, args)
    else:
        metrics = end_to_end_metrics(runner, imports, inputs)
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": n_ops,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(runner, imports, inputs) -> dict:
    corrected = per_op_medians(runner.untraced, "corrected")
    raw = per_op_medians(runner.untraced, "raw")
    setup_c = statistics.median(a.corrected + b.corrected for a, b in zip(imports, inputs))
    setup_r = statistics.median(a.raw + b.raw for a, b in zip(imports, inputs))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"set-up, median of {len(inputs)}: import "
          f"{statistics.median(t.corrected for t in imports):.6g} s, inputs "
          f"{statistics.median(t.corrected for t in inputs):.6g} s")
    rows = [
        ("setup_s", setup_c, setup_r, "s"),
        ("wall_s", sum(corrected), sum(raw), "s"),
        ("op_gmean_ms", gmean(corrected) * 1e3, gmean(raw) * 1e3, "ms"),
        ("peak_rss_mb", rss_mb, None, "MB"),
    ]
    for name, value, raw_value, unit in rows:
        beside = ""
        if raw_value is not None:  # corrected = raw x the speed its phases measured
            beside = f"   raw {raw_value:.6g} {unit}   reference speed {value / raw_value:.3f}"
        print(f"{name:<12} {value:.6g} {unit}{beside}")
    return {name: {"value": value, "unit": unit} for name, value, _, unit in rows}


def layer_metrics(runner, tracer, args) -> dict:
    self_s = {}
    for name in LAYER_SELF:
        self_s[name] = statistics.median(r[0].get(name, 0.0) for r in runner.layer_rounds)
    first_calls, first_sizes = runner.layer_rounds[0][1], runner.layer_rounds[0][2]
    for _, calls, sizes in runner.layer_rounds[1:]:
        if calls != first_calls or sizes != first_sizes:
            print("warning: call counts differ between traced rounds", file=sys.stderr)
    overhead = (statistics.median(round_totals(runner.traced))
                - statistics.median(round_totals(runner.untraced)))
    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = {"value": first_calls.get(name, 0), "unit": "count"}
    for name in LAYER_SIZES:
        metrics[name] = {"value": first_sizes.get(name, 0), "unit": "count"}
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = {"value": self_s[name], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:.6g} {m['unit']}")
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(traces / f"{args.workload}-seed{args.seed}.tsv")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "skelparity" / "cli.py").is_file():
        print(f"error: no program source at {src / 'skelparity'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    refclock.warm_up()
    cli = importlib.import_module("skelparity.cli")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run(args, cli, workloads)


if __name__ == "__main__":
    sys.exit(main())
