"""One pass: run a workload's case list once, in this process.

    python perfbench/worker.py --workload refine --seed 0 --pass 0 [--trace]

The cases run one after another (a closed loop with one client), each
through `rdes.cli.main(argv)` with `--format json`, or, for a generated
batch, through `contracts.calculate` + `oracle.cross_check` exactly as
`crosscheck --random` does.  Generated programs are built before any case
is timed.  The last line of standard output is a JSON object with each
case's answer and time, the pass's wall time (the sum of the case times,
as measured and at nominal speed, see `speed.py`), its peak resident
memory and, with `--trace`, the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
from pathlib import Path

import cases as bench_cases
import speed
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
CASE_CAP_S = 60.0


class CaseTimeout(BaseException):
    """The per-case cap ran out.  A BaseException, so that the program's
    own `except Exception` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_cli(argv: list):
    """Exit code and witness of one CLI call."""
    from rdes import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            code = cli.main(list(argv) + ["--format", "json"])
        except SystemExit as exc:
            code = _exit_code(exc)
    witness = None
    if code == 1:
        try:
            witness = json.loads(out.getvalue()).get("witness")
        except ValueError:
            pass
    return code, witness


def generate(spec: dict, rng) -> list:
    from rdes import randgen

    make = getattr(randgen, spec["generator"])
    return [make(rng) for _ in range(spec["count"])]


def run_generated(programs: list, trace_bound: int):
    """Exit code of `crosscheck --random` over the given programs."""
    from rdes import contracts, oracle
    from rdes.verify import Config

    cfg = Config(trace_bound=trace_bound)
    differences = 0
    for tp in programs:
        calc = contracts.calculate(tp, cfg.wp_bound)
        differences += len(oracle.cross_check(tp, calc, cfg)["diffs"])
    return (1 if differences else 0), None


def prepare(cases: list, seed: int) -> list:
    """(case, call) pairs; the random programs are generated here, from
    the pass seed, in the file's case order."""
    from rdes import randgen

    rng = randgen.rng_for(seed)
    calls = {}
    for case in cases:
        spec = case.get("random")
        if spec is None:
            calls[case["id"]] = (run_cli, (case["argv"],))
        else:
            calls[case["id"]] = (
                run_generated,
                (generate(spec, rng), spec["trace_bound"]),
            )
    return [(case, calls[case["id"]]) for case in bench_cases.ordered(cases, seed)]


def run_cases(prepared: list, tracer=None) -> list:
    """Run each case once, timing it; one result row per case.  `seconds`
    is the case's wall time, `nominal_s` the same at nominal speed.  A
    traced pass takes no speed samples inside cases, which would land in
    the layers' self times."""
    bench_cases.check_unique([case for case, _ in prepared])
    rows = []
    signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.install()
    try:
        for case, (fn, args) in prepared:
            code, witness, detail = None, None, None
            with speed.Stopwatch(sample=tracer is None) as clock:
                signal.setitimer(signal.ITIMER_REAL, CASE_CAP_S)
                try:
                    code, witness = fn(*args)
                except CaseTimeout:
                    detail = f"timed out after {CASE_CAP_S:g} s"
                except Exception as exc:
                    detail = f"{type(exc).__name__}: {exc}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            status = "failed" if detail else bench_cases.judge(case, code, witness)
            rows.append(
                {
                    "id": case["id"],
                    "seconds": clock.seconds,
                    "nominal_s": clock.nominal_s,
                    "exit": code,
                    "witness": witness,
                    "status": status,
                    "detail": detail,
                }
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rows


def run_pass(workload: str, seed: int, index: int, trace: bool) -> dict:
    import rdes.cli  # noqa: F401  (loads every module the tracer patches)

    cases = bench_cases.load_workloads()[workload]["cases"]
    prepared = prepare(cases, bench_cases.pass_seed(seed, index))
    tracer = Tracer() if trace else None
    rows = run_cases(prepared, tracer)
    return {
        "cases": rows,
        "wall_s": sum(r["seconds"] for r in rows),
        "nominal_wall_s": sum(r["nominal_s"] for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.report() if tracer else None,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="index", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run_pass(args.workload, args.seed, args.index, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
