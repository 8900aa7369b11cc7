"""Command-line front end.

Commands
    calc FILE              calculate and print a program's contract
    refine SPEC IMPL       discharge the refinement obligations
    refine IMPL --peri P [--post Q]
                           refine an invariant-style specification
    refine IMPL --invariant I [--peri P]
                           prove a loop invariant, then that it implies P
    dlf FILE               deadlock-freedom check
    inv-check FILE         loop-invariant check (requires --invariant)
    oracle FILE            dump the bounded enumerator's observations
    crosscheck FILE|--random N [--loops] [--seed S]
                           compare calculus against the enumerator
    laws [--seed S]        run the relational and iteration law suites

The refine forms exclude each other: SPEC (a program file, or dlf) goes
with none of --peri, --post and --invariant, and --invariant with no --post.

Every command but oracle, which prints only JSON, takes --format text|json.
Each takes the bounds it reads:
--trace-bound (default 4) for every command but calc and laws, and
--wp-bound (default 16) for calc, refine, dlf, inv-check and crosscheck.

Exit codes: 0 verified/ok, 1 refuted/differences, 2 inconclusive or error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import contracts, dsl, laws, oracle, randgen
from .verify import (
    Config,
    InvariantRel,
    Obligation,
    check_deadlock_free,
    check_rrel_refine,
    deadlock_free_spec,
    inv_check_program,
    refine_check,
)
from .relalg import TRUE_PRE, TRUE_R
from .state import StateSpaceTooLarge


def _add_bounds(p: argparse.ArgumentParser, trace=True, wp=True,
                fmt=True) -> None:
    """The bound flags the command reads, and --format if it has a text
    form."""
    defaults = Config()
    if trace:
        p.add_argument("--trace-bound", type=int,
                       default=defaults.trace_bound)
    if wp:
        p.add_argument("--wp-bound", type=int, default=defaults.wp_bound)
    if fmt:
        p.add_argument("--format", choices=["text", "json"], default="text")


# What malformed input raises while it is read
INPUT_ERRORS = (
    dsl.ParseError,
    dsl.TypeMismatchError,
    dsl.DuplicateNameError,
    dsl.UnboundNameError,
    dsl.InfiniteDomainError,
    dsl.NestingTooDeepError,
)


# The least value of each numeric option
LEAST = {"trace_bound": 1, "wp_bound": 1, "random": 1, "per_law": 0,
         "terms": 0, "depth": 0}


def _config(args) -> Config:
    for name, least in LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            print(f"error: --{name.replace('_', '-')} must be >= {least}",
                  file=sys.stderr)
            raise SystemExit(2)
    bounds = {name: getattr(args, name)
              for name in ("trace_bound", "wp_bound") if hasattr(args, name)}
    return Config(**bounds)


def _load(path: str) -> dsl.TypedProgram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        return dsl.load_program(source)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(2)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2)
    except (UnicodeDecodeError, *INPUT_ERRORS) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _invariant(flag: str, source: str, tp: dsl.TypedProgram, cfg: Config):
    """The body of the invariant given to `flag`.  A program the calculator
    rejects is reported before a malformed invariant."""
    try:
        kind = "post" if flag == "--post" else "peri"
        return dsl.parse_invariant(source, tp.symtab, kind)
    except INPUT_ERRORS as exc:
        _calculate(tp, cfg)
        print(f"error: {flag}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _calculating(f, *args):
    """f(*args), with what it raises printed as one `error:` line, exit 2.
    The calculator rejects a program by `NotProductiveError`,
    `WpNotConvergedError` or `NormalizationIncomplete`, and one that loads
    but nests deeper than its recursion reaches as the loader does."""
    try:
        return f(*args)
    except contracts.NotProductiveError as exc:
        print(f"error: NotProductive: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except RecursionError:
        print("error: program is nested too deeply", file=sys.stderr)
        raise SystemExit(2)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _calculate(tp: dsl.TypedProgram, cfg: Config) -> contracts.Contract:
    return _calculating(contracts.calculate, tp, cfg.wp_bound)


def _emit_verdict(verdict, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(verdict.to_json(), indent=2))
    else:
        print(f"verdict: {verdict.kind}")
        print(f"bounds: {verdict.bounds}")
        if verdict.witness:
            print(f"witness: {verdict.witness}")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
    return verdict.exit_code()


def cmd_calc(args) -> int:
    cfg = _config(args)
    tp = _load(args.file)
    c = _calculate(tp, cfg)
    if args.format == "json":
        print(json.dumps(c.to_json(), indent=2))
    else:
        print(c)
    return 0


def _spec_for(args, cfg: Config, tp: dsl.TypedProgram):
    """Resolve the specification side of a refinement."""
    if args.peri or args.post:
        peri = post = TRUE_R
        if args.peri:
            peri = InvariantRel("peri", _invariant("--peri", args.peri, tp,
                                                   cfg))
        if args.post:
            post = InvariantRel("post", _invariant("--post", args.post, tp,
                                                   cfg))
        return contracts.Contract(TRUE_PRE, peri, post)
    if args.spec == "dlf":
        return deadlock_free_spec()
    spec_tp = _load(args.spec)
    _check_declared(args.spec, spec_tp.symtab, args.impl, tp.symtab)
    return _calculate(spec_tp, cfg)


def _check_declared(spec_path: str, spec, impl_path: str, impl) -> None:
    """Both programs are read over the implementation's declarations, so it
    must declare every variable and data-carrying channel of the
    specification, with the same type."""
    for word, mine, theirs in (("var", spec.variables, impl.variables),
                               ("channel", spec.channels, impl.channels)):
        for name, t in sorted(mine.items()):
            if t is None or theirs.get(name) == t:
                continue
            if name not in theirs:
                instead = "does not declare it"
            elif theirs[name] is None:
                instead = f"declares {word} {name}"
            else:
                instead = f"declares {word} {name} : {theirs[name]}"
            print(f"error: {spec_path} declares {word} {name} : {t}, "
                  f"but {impl_path} {instead}", file=sys.stderr)
            raise SystemExit(2)


def cmd_refine(args) -> int:
    cfg = _config(args)
    tp = _load(args.impl)
    if args.invariant:
        verdict, _ = _loop_rule(tp, cfg, args.invariant, args.peri)
        return _emit_verdict(verdict, args.format)
    impl = _calculate(tp, cfg)
    spec = _spec_for(args, cfg, tp)
    verdict = refine_check(spec, impl, tp.symtab, cfg)
    return _emit_verdict(verdict, args.format)


def _loop_rule(tp: dsl.TypedProgram, cfg: Config, invariant: str,
               peri=None) -> tuple:
    """(verdict, reduced invariant) of the loop rule for `invariant` on
    `assignments ; while`: discharge the loop conditions, distribute the
    leading assignments in and, given `peri`, check that the reduced
    invariant implies it.  The rule calculates the loop once, and reports
    what the calculator rejects as `_calculate` does."""
    inv_body = _invariant("--invariant", invariant, tp, cfg)
    if peri:
        spec = InvariantRel("peri", _invariant("--peri", peri, tp, cfg))
    verdict, reduced = _calculating(inv_check_program, tp, inv_body, cfg)
    if verdict.verified and peri:
        ob = Obligation(
            spec, reduced.peri, "peri",
            "reduced invariant implies specification",
        )
        implied = check_rrel_refine(ob, tp.symtab, cfg)
        verdict = implied._replace(
            obligations=verdict.obligations + ((ob, implied),))
    return verdict, reduced


def cmd_dlf(args) -> int:
    cfg = _config(args)
    tp = _load(args.file)
    c = _calculate(tp, cfg)
    verdict = check_deadlock_free(c, tp.symtab, cfg)
    return _emit_verdict(verdict, args.format)


def cmd_inv_check(args) -> int:
    cfg = _config(args)
    verdict, reduced = _loop_rule(_load(args.file), cfg, args.invariant)
    code = _emit_verdict(verdict, args.format)
    if reduced is not None and args.format == "text":
        print(f"reduced spec pericondition: {reduced.peri}")
    return code


def cmd_oracle(args) -> int:
    cfg = _config(args)
    tp = _load(args.file)
    dump = oracle.observations_json(tp, cfg)
    text = json.dumps(dump, indent=2)
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: --emit: {exc.strerror}", file=sys.stderr)
            raise SystemExit(2)
        print(f"wrote {args.emit}")
    else:
        print(text)
    return 0


def cmd_crosscheck(args) -> int:
    cfg = _config(args)
    if args.random is not None:
        rng = randgen.rng_for(args.seed or 0)
        make = (randgen.random_loop_program if args.loops
                else randgen.random_program)
        programs = [make(rng) for _ in range(args.random)]
        reports = [
            oracle.cross_check(tp, contracts.calculate(tp, cfg.wp_bound), cfg)
            for tp in programs
        ]
    else:
        if not args.file:
            print("error: give a file or --random N", file=sys.stderr)
            return 2
        tp = _load(args.file)
        c = _calculate(tp, cfg)
        reports = [oracle.cross_check(tp, c, cfg)]
    diffs = [d for r in reports for d in r["diffs"]]
    summary = {
        "programs": len(reports),
        "initial_states": sum(r["initial_states"] for r in reports),
        "classes": sum(r["classes"] for r in reports),
        "traces": sum(r["traces"] for r in reports),
        "differences": len(diffs),
        "diffs": diffs[:50],
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"programs checked: {summary['programs']}")
        print(f"differences: {summary['differences']}")
        for d in summary["diffs"][:10]:
            print(f"  {d}")
    return 0 if not diffs else 1


def _checked_something(suite: str, checked: int) -> None:
    """A law suite that checked nothing has shown nothing: exit 2."""
    if not checked:
        print(f"error: {suite} checked nothing", file=sys.stderr)
        raise SystemExit(2)


def cmd_laws(args) -> int:
    _config(args)  # rejects a negative count
    rel = laws.run_law_suite(seed=args.seed, per_law=args.per_law)
    _checked_something("relational laws", rel["instances"])
    ka = laws.run_ka_suite(
        seed=args.seed, terms=args.terms, depth=args.depth
    )
    _checked_something("iteration laws", ka["terms"])
    summary = {
        "relational": {
            "instances": rel["instances"],
            "failures": rel["failures"][:20],
        },
        "iteration": {
            "terms": ka["terms"],
            "failures": ka["failures"][:20],
        },
        "ok": rel["ok"] and ka["ok"],
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"relational laws: {rel['instances']} instances, "
            f"{len(rel['failures'])} failures"
        )
        print(
            f"iteration laws: {ka['terms']} terms, "
            f"{len(ka['failures'])} failures"
        )
        for f in (rel["failures"] + ka["failures"])[:10]:
            print(f"  {f}")
    return 0 if summary["ok"] else 1


def _calc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    _add_bounds(p, trace=False)
    p.set_defaults(func=cmd_calc)


def _refine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", nargs="?", default=None,
                   help="spec program file, or 'dlf'")
    p.add_argument("impl")
    p.add_argument("--peri", help="pericondition invariant of the spec")
    p.add_argument("--post", help="postcondition invariant of the spec")
    p.add_argument("--invariant", help="loop invariant for while programs")
    _add_bounds(p)
    p.set_defaults(func=cmd_refine)


def _dlf_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    _add_bounds(p)
    p.set_defaults(func=cmd_dlf)


def _inv_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--invariant", required=True)
    _add_bounds(p)
    p.set_defaults(func=cmd_inv_check)


def _oracle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--emit", help="write observations JSON to a file")
    _add_bounds(p, wp=False, fmt=False)
    p.set_defaults(func=cmd_oracle)


def _crosscheck_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--loops", action="store_true",
                   help="generate loop programs instead of star-free ones")
    p.add_argument("--seed", type=int,
                   help="seed of the --random programs")
    _add_bounds(p)
    p.set_defaults(func=cmd_crosscheck)


def _laws_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--per-law", type=int, default=50)
    p.add_argument("--terms", type=int, default=200)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_bounds(p, trace=False, wp=False)
    p.set_defaults(func=cmd_laws)


# command -> (help, what adds its arguments to its subparser)
COMMANDS = {
    "calc": ("calculate a program's contract", _calc_args),
    "refine": ("check spec ⊑ impl", _refine_args),
    "dlf": ("deadlock-freedom check", _dlf_args),
    "inv-check": ("loop invariant check", _inv_check_args),
    "oracle": ("dump enumerated observations", _oracle_args),
    "crosscheck": ("calculus vs enumerator", _crosscheck_args),
    "laws": ("run the law suites", _laws_args),
}


class _Parser(argparse.ArgumentParser):
    """The top-level parser.  It may hold the subparser of one command
    alone, but its usage lists every command, so it reports an error of
    its own through a parser that holds them all."""

    def error(self, message):
        _parser().error(message)


def _parser(command=None) -> argparse.ArgumentParser:
    """The argument parser with the subparser of `command` alone, or of
    every command if `command` is None."""
    parser = (argparse.ArgumentParser if command is None else _Parser)(
        prog="rdes",
        description="Contract calculator and verifier for reactive programs",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    for name, (text, add_args) in COMMANDS.items():
        if command in (None, name):
            add_args(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # building a subparser costs as much as a short command, so only the
    # named command's is built
    parser = _parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command == "refine":
        # exactly one form of refine, so that no input is ignored
        flags = [f"--{name}" for name in ("peri", "post", "invariant")
                 if getattr(args, name)]
        if args.spec is None and not flags:
            parser.error(
                "refine needs a spec file, 'dlf', --peri/--post or --invariant"
            )
        if args.spec is not None and flags:
            parser.error(f"refine reads no spec with {flags[0]}, "
                         f"so {args.spec} would be ignored")
        if args.invariant and args.post:
            parser.error("refine --invariant proves no postcondition, "
                         "so --post would be ignored")
    if args.command == "crosscheck":
        # a file, or --random N with what generates its programs
        if args.random is not None and args.file is not None:
            parser.error(f"crosscheck reads no file with --random, "
                         f"so {args.file} would be ignored")
        for flag, given in (("--loops", args.loops),
                            ("--seed", args.seed is not None)):
            if given and args.random is None:
                parser.error(f"crosscheck generates no programs without "
                             f"--random, so {flag} would be ignored")
    # A check keeps millions of small tuples and sets alive until it ends,
    # and every collection of the oldest generation traverses all of them.
    # What a command builds holds no reference cycles, so it runs without
    # the cyclic collector and leaves reference counting to free it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except StateSpaceTooLarge as exc:
        print(f"error: StateSpaceTooLarge: {exc}", file=sys.stderr)
        raise SystemExit(2)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
