"""The rdes benchmark: time to verdict and reachable trace bound.

    python3 perfbench/run.py --workload refine --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  With `--trace 0` it measures the
end-to-end metrics: fresh worker processes each run the workload's case list
once (`worker.py`) until `--seconds` have passed, the headline case climbs
the trace-bound ladder, and fresh interpreters time `import rdes.cli`.
With `--trace 1` it runs one untraced and two traced passes and reports the
per-layer metrics.  Every answer is checked against `cases.json`.  Human-
readable rows go first; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases as bench_cases
import speed
from tracer import COUNTERS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
RUNG_CAP_S = 40.0
SETUP_SAMPLES_PER_PASS = 2
RUNG_MEMORY_BYTES = 2 << 30
TRACE_RESIDUAL_SHARE = 0.05


def _env(seed: int = 0) -> dict:
    """Child environment.  The hash seed is fixed from the run's seed, so
    that set iteration order, and with it the work done, repeats."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _cap_memory():
    resource.setrlimit(
        resource.RLIMIT_AS, (RUNG_MEMORY_BYTES, RUNG_MEMORY_BYTES)
    )


def measure_setup(samples: list) -> None:
    """Append the seconds, at nominal speed, that fresh interpreters take
    to finish `import rdes.cli`."""
    for _ in range(SETUP_SAMPLES_PER_PASS):
        with speed.Stopwatch(sample=False) as clock:
            subprocess.run(
                [sys.executable, "-c", "import rdes.cli"],
                cwd=ROOT, env=_env(), check=True, capture_output=True,
                timeout=60,
            )
        samples.append(clock.nominal_s)


def run_worker(workload: str, cases: list, seed: int, index: int,
               trace: bool, deadline: float) -> dict:
    """One pass in a fresh process.  A pass that crashes or runs past the
    run's deadline counts every case of the list as failed."""
    timeout = max(1.0, deadline - time.monotonic())
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--pass", str(index),
    ] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_env(bench_cases.pass_seed(seed, index)),
            capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        detail = f"worker exited {proc.returncode}: {proc.stderr[-500:]}"
    except subprocess.TimeoutExpired:
        detail = f"worker overran {timeout:.0f} s"
    print(f"pass {index}: {detail}", file=sys.stderr)
    return {
        "cases": [
            {"id": c["id"], "seconds": None, "nominal_s": None, "exit": None,
             "witness": None, "status": "failed", "detail": detail}
            for c in cases
        ],
        "wall_s": None,
        "nominal_wall_s": None,
        "peak_rss_mb": None,
        "trace": None,
    }


def climb(head: dict, seed: int, deadline: float) -> tuple:
    """Highest trace bound at which the headline case gives its expected
    answer within the per-rung budget; each rung is a fresh `python -m
    rdes`.  The budget is in nominal seconds: the wall-clock limit of a
    rung is scaled by the reference time taken just before it.  A rung
    stopped at the budget (or the memory cap) ends the ladder and is not a
    failure; a wrong answer ends it and is wrong."""
    budget = head["budget_s"]
    best, rungs, wrong = 0, [], False
    bound = 1
    while True:
        slowdown = speed.reference() / speed.NOMINAL_S
        limit = min(budget * slowdown, RUNG_CAP_S)
        if time.monotonic() + limit > deadline:
            break
        argv = [sys.executable, "-m", "rdes", *head["argv"],
                "--trace-bound", str(bound), "--format", "json"]
        try:
            with speed.Stopwatch(sample=False) as clock:
                proc = subprocess.run(
                    argv, cwd=ROOT, env=_env(seed), capture_output=True,
                    text=True, timeout=limit, preexec_fn=_cap_memory,
                )
        except subprocess.TimeoutExpired:
            rungs.append((bound, budget, "stopped"))
            break
        seconds = clock.nominal_s
        if "MemoryError" in proc.stderr:
            rungs.append((bound, seconds, "stopped (memory cap)"))
            break
        witness = None
        if proc.returncode == 1:
            try:
                witness = json.loads(proc.stdout).get("witness")
            except ValueError:
                pass
        status = bench_cases.judge(head, proc.returncode, witness)
        rungs.append((bound, seconds, status))
        if status != "ok":
            wrong = True
            break
        best = bound
        bound += 1
    return best, rungs, wrong


def _print_rows(passes: list) -> None:
    by_id = {}
    for p in passes:
        for row in p["cases"]:
            by_id.setdefault(row["id"], []).append(row)
    print(f"{'case':40s} {'median_s':>9s} {'raw_s':>9s} {'runs':>5s} "
          f"{'exit':>5s}  status")
    for case_id, rows in by_id.items():
        meds = []
        for key in ("nominal_s", "seconds"):
            times = [r[key] for r in rows if r[key] is not None]
            meds.append(f"{statistics.median(times):9.4f}" if times
                        else f"{'-':>9s}")
        exits = sorted({str(r["exit"]) for r in rows})
        statuses = sorted({r["status"] for r in rows})
        print(f"{case_id:40s} {' '.join(meds)} {len(rows):5d} "
              f"{','.join(exits):>5s}  {','.join(statuses)}")
        for r in rows:
            if r["status"] != "ok":
                print(f"    {r['status']}: exit {r['exit']} witness "
                      f"{r['witness']} {r['detail'] or ''}")


def _tally(passes: list) -> tuple:
    rows = [r for p in passes for r in p["cases"]]
    wrong = sum(r["status"] == "wrong" for r in rows)
    failed = sum(r["status"] == "failed" for r in rows)
    return len(rows), wrong, failed


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, spec: dict, seed: int, seconds: int,
               start: float) -> dict:
    setup, passes = [], []
    while not passes or time.monotonic() - start < seconds:
        measure_setup(setup)
        passes.append(run_worker(workload, spec["cases"], seed, len(passes),
                                 False, start + DEADLINE_S))
    best, rungs, ladder_wrong = climb(spec["ladder"], seed, start + DEADLINE_S)

    attempted, wrong, failed = _tally(passes)
    walls = [p["nominal_wall_s"] for p in passes
             if p["nominal_wall_s"] is not None]
    raw = [p["wall_s"] for p in passes if p["wall_s"] is not None]
    rss = [p["peak_rss_mb"] for p in passes if p["peak_rss_mb"] is not None]
    if not walls:
        raise SystemExit("error: no pass of the case list completed")
    print(f"workload {workload}  seed {seed}  passes {len(passes)} "
          "(closed loop, one client, one fresh process per pass)")
    _print_rows(passes)
    print("ladder: " + "  ".join(
        f"b{b} {s:.2f}s {status}" for b, s, status in rungs))
    print(f"wall_s per pass: {', '.join(f'{w:.3f}' for w in walls)}  "
          f"(as measured: {', '.join(f'{w:.3f}' for w in raw)})")
    print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}")
    print(f"wrong_frac {wrong / attempted:.4f}  "
          f"failed_frac {failed / attempted:.4f}")
    return {
        "correct": wrong == 0 and not ladder_wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": _metric(statistics.median(walls), "s"),
            "max_trace_bound": _metric(best, "bound"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(statistics.median(rss), "MB"),
            "correct_frac": _metric((attempted - wrong - failed) / attempted,
                                    "ratio"),
            "completed_frac": _metric((attempted - failed) / attempted,
                                      "ratio"),
        },
    }


def per_layer(workload: str, spec: dict, seed: int, start: float) -> dict:
    deadline = start + DEADLINE_S
    plain = run_worker(workload, spec["cases"], seed, 0, False, deadline)
    traced = [
        run_worker(workload, spec["cases"], seed, 0, True, deadline)
        for _ in range(2)
    ]
    passes = [plain] + traced
    attempted, wrong, failed = _tally(passes)
    _print_rows(passes)
    correct = wrong == 0
    reports = [p["trace"] for p in traced if p["trace"] is not None]
    if len(reports) < 2 or plain["wall_s"] is None:
        raise SystemExit("error: a pass of the traced run did not complete")

    first, second = ({k: r[k] for k in COUNTERS} for r in reports)
    if first != second:
        correct = False
        print("traced counts differ between two passes: " + str(
            {k: (first[k], second[k]) for k in COUNTERS
             if first[k] != second[k]}), file=sys.stderr)

    def mean(key):
        return statistics.fmean(r[key] for r in reports)

    metrics = {k: _metric(first[k], "count") for k in COUNTERS}
    queries = first["ground.queries"]
    metrics["ground.instances_per_query"] = _metric(
        first["ground.instances"] / queries if queries else 0.0, "ratio")
    layer_s = 0.0
    for layer in LAYERS:
        value = mean(layer + "_s")
        layer_s += value
        metrics[layer + "_s"] = _metric(value, "s")
    wall = statistics.fmean(p["wall_s"] for p in traced)
    residual = wall - layer_s
    metrics["trace.wall_s"] = _metric(wall, "s")
    metrics["trace.residual_s"] = _metric(residual, "s")
    metrics["trace.overhead_s"] = _metric(wall - plain["wall_s"], "s")
    if abs(residual) > TRACE_RESIDUAL_SHARE * wall:
        correct = False
        print(f"layer self times leave {residual:.4f} s of {wall:.4f} s "
              "unaccounted", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    for needed in (ROOT / "src" / "rdes" / "cli.py", ROOT / "corpus"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from "
                  "the root of an rdes checkout", file=sys.stderr)
            return 2
    workloads = bench_cases.load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    if args.trace:
        result = per_layer(args.workload, spec, args.seed, start)
    else:
        result = end_to_end(args.workload, spec, args.seed, args.seconds,
                            start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
