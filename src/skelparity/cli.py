"""Command-line entry point.

Every command prints exactly one canonical JSON report to stdout; wall-clock
timing goes to stderr so reruns with the same inputs and seed are
byte-identical.  Exit codes: 0 success / property holds, 1 property fails
(with witness; still a correct run), 2 input or usage error, 3 resource cap
exceeded (the report names the stage that hit the cap), 4 the run could not
complete (an inconsistent pair handed to a command that needs synthesis, a
violated internal law, recursion too deep, or memory exhausted).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import re
import sys
import time
from fractions import Fraction

from . import consistency, discounting, games, synthesis
from .conditions import (
    Condition,
    residual_compare,
    right_congruence_automaton,
)
from .errors import CapExceeded, InputError, InternalConsistencyError, cap_stage
from .games import Arena
from .serialize import (
    arena_to_dot,
    automaton_to_dict,
    automaton_to_dot,
    canonical_json,
    load_typed,
    skeleton_to_dict,
    skeleton_to_dot,
)
from .skeletons import (
    DEFAULT_SUPPORT_CAP,
    ParityAutomaton,
    Skeleton,
    enumerate_cycle_supports,
    product,
    support_transitions,
)

_INT_RE = re.compile(r"-?\d+")
_EXPONENT_RE = re.compile(r"\A\s*[-+]?[\d_.]+[eE][-+]?([\d_]+)\s*\Z")


def parse_fraction(text: str, option: str = "--lambda") -> Fraction:
    """``text`` as a fraction, or an :class:`InputError`.  A text whose
    exponent is beyond ``sys.get_int_max_str_digits()`` is refused, naming
    the ``option``, before ``Fraction`` spends seconds building an integer
    too long to write."""
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT_RE.match(text)
    if exponent and limit:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or "0") > limit:
            raise InputError(f"{option} too large: its exponent is beyond {limit}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a fraction: {text!r}") from None


def _fraction_text(q: Fraction, option: str) -> str:
    """``q`` as text, or an :class:`InputError` naming the ``option`` that
    made it too long: the interpreter writes out no integer of more than
    ``sys.get_int_max_str_digits()`` digits."""
    try:
        return str(q)
    except ValueError:
        raise InputError(
            f"{option} too large: the result has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _lambda_echo(lam: Fraction) -> dict:
    """The report's ``lambda`` field, taken before any work is done: an
    :class:`InputError` naming ``--lambda`` if its numerator or denominator
    is too long to write."""
    _fraction_text(lam, "--lambda")
    return {"lambda": [lam.numerator, lam.denominator]}


def parse_word(text: str) -> tuple:
    """Comma-separated letters; those written as integers become ints, or
    an :class:`InputError` if one has too many digits to read."""
    if text == "":
        return ()
    out = []
    try:
        for token in text.split(","):
            token = token.strip()
            out.append(int(token) if _INT_RE.fullmatch(token) else token)
    except ValueError:
        raise InputError(
            f"a letter of the word has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return tuple(out)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _support_rows(m: Skeleton, mask: int) -> list:
    return [[s, c] for s, c in support_transitions(m, mask)]


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class _Reporter:
    """Collects the command echo and input digests for the final report."""

    def __init__(self, command: str):
        self.report = {"format": 1, "command": command, "inputs": {}}

    def load(self, path: str, expected):
        obj = load_typed(path, expected)
        self.report["inputs"][path] = _digest(path)
        return obj

    def done(self, exit_code: int = 0, **fields) -> tuple[dict, int]:
        self.report.update(fields)
        return self.report, exit_code


# -- command handlers ---------------------------------------------------------


def _cmd_skel_product(args):
    rep = _Reporter("skel product")
    left = rep.load(args.left, Skeleton)
    right = rep.load(args.right, Skeleton)
    out = product(left, right)
    doc = skeleton_to_dict(out)
    if args.out:
        _write(args.out, canonical_json(doc))
    return rep.done(skeleton=doc, states=len(out.states), out=args.out)


def _cmd_skel_run(args):
    rep = _Reporter("skel run")
    sk = rep.load(args.skeleton, Skeleton)
    word = parse_word(args.word)
    states = sk.run(word)
    return rep.done(word=list(word), states=states)


def _cmd_skel_supports(args):
    rep = _Reporter("skel supports")
    sk = rep.load(args.skeleton, Skeleton)
    with cap_stage("skel supports"):
        sups = enumerate_cycle_supports(sk, cap=args.cap)
    return rep.done(count=len(sups), supports=[_support_rows(sk, g) for g in sups])


def _cmd_cond_residuals(args):
    rep = _Reporter("cond residuals")
    cond = rep.load(args.condition, Condition)
    w1, w2 = parse_word(args.w1), parse_word(args.w2)
    verdict = residual_compare(cond, w1, w2, cap=args.cap)
    return rep.done(w1=list(w1), w2=list(w2), relation=verdict)


def _cmd_cond_rc(args):
    rep = _Reporter("cond rc-automaton")
    cond = rep.load(args.condition, Condition)
    rc = right_congruence_automaton(cond, cap=args.cap)
    doc = skeleton_to_dict(rc)
    if args.out:
        _write(args.out, canonical_json(doc))
    return rep.done(skeleton=doc, states=len(rc.states), out=args.out)


def _cmd_check(args, which: str):
    rep = _Reporter(f"check {which}")
    cond = rep.load(args.condition, Condition)
    sk = rep.load(args.skeleton, Skeleton)
    if which == "prefix-independence":
        result = consistency.check_prefix_independence(cond, sk, cap=args.cap)
    else:
        result = consistency.check_cycle_consistency(cond, sk, cap=args.cap)
    code = 0 if result.passed else 1
    return rep.done(
        exit_code=code,
        verdict=result.verdict,
        witness=result.witness,
        details=result.details,
    )


def _cmd_synthesize(args):
    rep = _Reporter("synthesize")
    cond = rep.load(args.condition, Condition)
    sk = rep.load(args.skeleton, Skeleton)
    try:
        result = synthesis.synthesize(
            cond,
            sk,
            cap=args.cap,
            samples=args.samples,
            seed=args.seed,
            allow_transient=args.allow_transient,
        )
    except synthesis.SynthesisStageError as exc:
        return rep.done(exit_code=1, verdict="fail", stage=exc.stage, witness=exc.witness)
    doc = automaton_to_dict(result.automaton)
    if args.out:
        _write(args.out, canonical_json(doc))
    table = result.table
    return rep.done(
        verdict="pass",
        automaton=doc,
        out=args.out,
        seed=args.seed,
        classes=[
            {
                "id": e.class_id,
                "value": e.value,
                "representative": _support_rows(result.base, e.representative),
                "members": len(e.members),
                "number": result.pgamma[e.class_id],
            }
            for e in table.classes
        ],
        hasse=[list(edge) for edge in table.hasse_edges()],
        verified={
            "supports": result.verify.supports_checked,
            "lassos": result.verify.lassos_checked,
        },
    )


def _cmd_verify(args):
    rep = _Reporter("verify")
    aut = rep.load(args.automaton, ParityAutomaton)
    cond = rep.load(args.condition, Condition)
    result = synthesis.verify_synthesis(
        aut, cond, samples=args.samples, seed=args.seed, cap=args.cap
    )
    code = 0 if result.passed else 1
    return rep.done(
        exit_code=code,
        verdict="pass" if result.passed else "fail",
        seed=args.seed,
        supports_checked=result.supports_checked,
        lassos_checked=result.lassos_checked,
        support_mismatch=result.support_mismatch,
        lasso_mismatch=result.lasso_mismatch,
    )


def _cmd_game_solve(args):
    rep = _Reporter("game solve")
    arena = rep.load(args.arena, Arena)
    aut = rep.load(args.automaton, ParityAutomaton)
    game = games.product_game(arena, aut)
    sol = games.solve_parity(game)
    regions = {
        str(p): sorted([s, m] for (s, m) in sol.regions[p]) for p in (1, 2)
    }
    strategy = {
        str(p): sorted(
            [[s, m], [e[0], e[1], e[2][0]]] for (s, m), e in sol.strategy[p].items()
        )
        for p in (1, 2)
    }
    return rep.done(
        states=len(game.states), regions=regions, strategy=strategy
    )


def _cmd_game_verify(args):
    rep = _Reporter("game verify")
    arena = rep.load(args.arena, Arena)
    aut = rep.load(args.automaton, ParityAutomaton)
    game = games.product_game(arena, aut)
    sol = games.solve_parity(game)
    results = {}
    ok = True
    for player in (1, 2):
        strat = games.strategy_project(arena, aut, sol.strategy[player])
        check = games.verify_strategy(game, sol, strat, player)
        ok = ok and check.passed
        results[str(player)] = {
            "passed": check.passed,
            "region": check.region_size,
            "witness": check.witness,
        }
    return rep.done(exit_code=0 if ok else 1, verdict="pass" if ok else "fail", players=results)


def _cmd_game_lift(args):
    rep = _Reporter("game lift-experiment")
    cond = rep.load(args.condition, Condition)
    sk = rep.load(args.skeleton, Skeleton)
    result = games.lift_experiment(
        cond, sk, args.arenas, args.max_states, seed=args.seed
    )
    code = 0 if result.all_passed else 1
    return rep.done(
        exit_code=code,
        verdict="pass" if result.all_passed else "fail",
        seed=args.seed,
        arenas=result.arenas,
        checks=result.checks,
        passes=result.passes,
        failures=list(result.failures),
    )


def _cmd_ds_classify(args):
    rep = _Reporter("ds classify")
    echo = _lambda_echo(args.lam)
    cls = discounting.classify_ds(args.lam, args.k)
    return rep.done(
        **echo,
        k=args.k,
        verdict=cls.verdict,
        states=cls.states,
    )


def _cmd_ds_gap_automaton(args):
    rep = _Reporter("ds gap-automaton")
    echo = _lambda_echo(args.lam)
    ga = discounting.gap_automaton(args.lam, args.k)
    doc = skeleton_to_dict(ga.skeleton)
    if args.out:
        _write(args.out, canonical_json(doc))
    return rep.done(
        **echo,
        k=args.k,
        automaton=doc,
        states=len(ga.skeleton.states),
        bot_state=ga.bot_state,
        acceptance="win iff the run never reaches the bot state",
        out=args.out,
    )


def _cmd_ds_greedy(args):
    rep = _Reporter("ds greedy")
    echo = _lambda_echo(args.lam)
    x = parse_fraction(args.x, "--x")
    digits, remainder = discounting.greedy_expansion(x, args.lam, args.k, args.digits)
    return rep.done(
        **echo,
        k=args.k,
        x=_fraction_text(x, "--x"),
        digits=list(digits),
        remainder=_fraction_text(remainder, "--digits"),
    )


def _cmd_ds_gaps(args):
    rep = _Reporter("ds gaps")
    echo = _lambda_echo(args.lam)
    seq = discounting.infinite_gap_sequence(args.lam, args.terms)
    ok = (
        seq["denominators_are_powers"]
        and seq["pairwise_distinct"]
        and seq["in_range"]
    )
    return rep.done(
        exit_code=0 if ok else 1,
        **echo,
        terms=args.terms,
        gaps=[_fraction_text(g, "--terms") for g in seq["gaps"]],
        colors=seq["colors"],
        checks={
            "denominators_are_powers": seq["denominators_are_powers"],
            "pairwise_distinct": seq["pairwise_distinct"],
            "in_range": seq["in_range"],
        },
    )


def _cmd_ds_demo_cc(args):
    rep = _Reporter("ds demo-cc")
    echo = _lambda_echo(args.lam)
    result = discounting.ds_cycle_consistency_demo(
        args.lam, args.k, args.samples, seed=args.seed
    )
    code = 0 if result.all_consistent else 1
    return rep.done(
        exit_code=code,
        **echo,
        k=args.k,
        seed=args.seed,
        samples=result.samples,
        consistent=result.consistent,
        strict_resolved=result.strict_resolved,
        unrefuted_at_depth=result.unrefuted_at_depth,
        failures=list(result.failures),
    )


def _cmd_demo_mp(args):
    rep = _Reporter("demo mp")
    result = consistency.mp_counterexample_report(args.n_max)
    # the demonstrated property (cycle-consistency of the mean-payoff
    # threshold) fails by design; exit 1 signals the confirmed witness
    return rep.done(
        exit_code=1,
        verdict=result.verdict,
        witness=result.witness,
        details=result.details,
    )


def _cmd_export_dot(args):
    rep = _Reporter("export dot")
    given = [p for p in (args.skeleton, args.automaton, args.arena) if p]
    if len(given) != 1:
        raise InputError("give exactly one of --skeleton/--automaton/--arena")
    if args.skeleton:
        text = skeleton_to_dot(rep.load(args.skeleton, Skeleton))
    elif args.automaton:
        text = automaton_to_dot(rep.load(args.automaton, ParityAutomaton))
    else:
        text = arena_to_dot(rep.load(args.arena, Arena))
    if args.out:
        _write(args.out, text)
        return rep.done(out=args.out)
    return rep.done(dot=text)


# -- parser -------------------------------------------------------------------


def positive_int(text: str) -> int:
    """A ``--cap``: the parser refuses one below 1 for every command."""
    cap = int(text)
    if cap <= 0:
        raise argparse.ArgumentTypeError(f"cap must be positive, got {cap}")
    return cap


def _add_cap(p):
    p.add_argument("--cap", type=positive_int, default=DEFAULT_SUPPORT_CAP)


def _add_seeded(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)


def _add_lambda_k(p):
    p.add_argument("--lambda", dest="lam", type=parse_fraction, required=True)
    p.add_argument("--k", type=int, required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    was, and the handlers look up the library functions when they run."""
    top = argparse.ArgumentParser(
        prog="skelparity",
        description="skeleton-relative analysis and synthesis for omega-regular conditions",
    )
    sub = top.add_subparsers(dest="group", required=True)

    skel = sub.add_parser("skel").add_subparsers(dest="sub", required=True)
    p = skel.add_parser("product")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_skel_product)
    p = skel.add_parser("run")
    p.add_argument("--skeleton", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_skel_run)
    p = skel.add_parser("supports")
    p.add_argument("--skeleton", required=True)
    _add_cap(p)
    p.set_defaults(handler=_cmd_skel_supports)

    cond = sub.add_parser("cond").add_subparsers(dest="sub", required=True)
    p = cond.add_parser("residuals")
    p.add_argument("--condition", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    _add_cap(p)
    p.set_defaults(handler=_cmd_cond_residuals)
    p = cond.add_parser("rc-automaton")
    p.add_argument("--condition", required=True)
    p.add_argument("--out")
    _add_cap(p)
    p.set_defaults(handler=_cmd_cond_rc)

    check = sub.add_parser("check").add_subparsers(dest="sub", required=True)
    for which in ("prefix-independence", "cycle-consistency"):
        p = check.add_parser(which)
        p.add_argument("--condition", required=True)
        p.add_argument("--skeleton", required=True)
        _add_cap(p)
        p.set_defaults(handler=lambda a, w=which: _cmd_check(a, w))

    p = sub.add_parser("synthesize")
    p.add_argument("--condition", required=True)
    p.add_argument("--skeleton", required=True)
    p.add_argument("--out")
    p.add_argument("--allow-transient", action="store_true")
    _add_cap(p)
    _add_seeded(p)
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("verify")
    p.add_argument("--automaton", required=True)
    p.add_argument("--condition", required=True)
    _add_cap(p)
    _add_seeded(p)
    p.set_defaults(handler=_cmd_verify)

    game = sub.add_parser("game").add_subparsers(dest="sub", required=True)
    p = game.add_parser("solve")
    p.add_argument("--arena", required=True)
    p.add_argument("--automaton", required=True)
    p.set_defaults(handler=_cmd_game_solve)
    p = game.add_parser("verify")
    p.add_argument("--arena", required=True)
    p.add_argument("--automaton", required=True)
    p.set_defaults(handler=_cmd_game_verify)
    p = game.add_parser("lift-experiment")
    p.add_argument("--condition", required=True)
    p.add_argument("--skeleton", required=True)
    p.add_argument("--arenas", type=int, default=100)
    p.add_argument("--max-states", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_game_lift)

    ds = sub.add_parser("ds").add_subparsers(dest="sub", required=True)
    p = ds.add_parser("classify")
    _add_lambda_k(p)
    p.set_defaults(handler=_cmd_ds_classify)
    p = ds.add_parser("gap-automaton")
    _add_lambda_k(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_ds_gap_automaton)
    p = ds.add_parser("greedy")
    _add_lambda_k(p)
    p.add_argument("--x", required=True)
    p.add_argument("--digits", type=int, required=True)
    p.set_defaults(handler=_cmd_ds_greedy)
    p = ds.add_parser("gaps")
    p.add_argument("--lambda", dest="lam", type=parse_fraction, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(handler=_cmd_ds_gaps)
    p = ds.add_parser("demo-cc")
    _add_lambda_k(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_ds_demo_cc)

    demo = sub.add_parser("demo").add_subparsers(dest="sub", required=True)
    p = demo.add_parser("mp")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(handler=_cmd_demo_mp)

    export = sub.add_parser("export").add_subparsers(dest="sub", required=True)
    p = export.add_parser("dot")
    p.add_argument("--skeleton")
    p.add_argument("--automaton")
    p.add_argument("--arena")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_export_dot)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        report, code = args.handler(args)
    except InputError as exc:
        report, code = {"format": 1, "error": str(exc)}, 2
    except CapExceeded as exc:
        report = {"format": 1, "error": str(exc), "cap": exc.cap, "stage": exc.stage}
        code = 3
    except OSError as exc:
        # a missing file, a directory, or a path that cannot be read or written
        report, code = {"format": 1, "error": str(exc)}, 2
    except (
        synthesis.SynthesisStageError,
        InternalConsistencyError,
        RecursionError,
        MemoryError,
    ) as exc:
        report, code = {"format": 1, "error": f"{type(exc).__name__}: {exc}"}, 4
    sys.stdout.write(canonical_json(report))
    print(f"[{time.monotonic() - started:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
