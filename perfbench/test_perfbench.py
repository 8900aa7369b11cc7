"""Smoke tests of the benchmark itself: case definitions, the one-run-per-
process guard, and the tracer's patching, counts and time accounting."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases as bench_cases  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

CHEAP = (
    "dlf-skip", "dlf-stop", "dlf-a_stop", "dlf-while_bad",
    "refine-ex2-rhs-lhs", "refine-a_stop-extchoice",
    "crosscheck-while_chaos-b6",
)


def _cheap_cases() -> list:
    all_cases = [
        c for w in bench_cases.load_workloads().values() for c in w["cases"]
    ]
    picked = [c for c in all_cases if c["id"] in CHEAP]
    picked.append(
        {
            "id": "crosscheck-random-few",
            "random": {"generator": "random_loop_program", "count": 3,
                       "trace_bound": 3},
            "exit": 0,
            "why": "the oracle is the independent reference",
        }
    )
    return picked


def _bindings() -> dict:
    """Every function and class bound in an rdes module.  (Plain values
    such as the program's own module-level counters may change.)"""
    return {
        (m.__name__, attr): value
        for m in tracer.rdes_modules()
        for attr, value in vars(m).items()
        if callable(value)
    }


def test_cases_have_expected_answers_and_allowed_flags():
    workloads = bench_cases.load_workloads()
    assert set(workloads) == {"refine", "deadlock", "crosscheck"}
    for w in workloads.values():
        for case in w["cases"] + [w["ladder"]]:
            assert case["exit"] in (0, 1, 2)
            assert case["why"] and "\n" not in case["why"]
            if case["exit"] == 1:
                assert set(case["witness"]) == set(bench_cases.WITNESS_FIELDS)
            for arg in case.get("argv", ()):
                assert arg not in ("--star-bound", "--jobs")


def test_a_case_id_never_runs_twice_in_one_process():
    calls = []
    case = {"id": "x", "exit": 0, "why": "-"}
    prepared = [(case, (lambda: calls.append(1) or (0, None), ()))] * 2
    with pytest.raises(bench_cases.DuplicateCase):
        worker.run_cases(prepared)
    assert calls == []
    for w in bench_cases.load_workloads().values():
        ids = [c["id"] for c in bench_cases.ordered(w["cases"], 7)]
        assert len(ids) == len(set(ids))


def test_judge_compares_exit_code_and_witness_only():
    case = {"id": "x", "exit": 1, "why": "-",
            "witness": {"state": "{}", "trace": "<a>"}}
    assert bench_cases.judge(
        case, 1, {"state": "{}", "trace": "<a>", "accept": "{b}"}
    ) == "ok"
    assert bench_cases.judge(case, 1, {"state": "{}", "trace": "<>"}) == "wrong"
    assert bench_cases.judge(case, 0, None) == "wrong"
    assert bench_cases.judge(case, 2, None) == "failed"
    assert bench_cases.judge({"id": "y", "exit": 2, "why": "-"}, 2, None) == "ok"


def test_generated_inputs_follow_the_seed():
    cases = [c for c in _cheap_cases() if "random" in c]
    a = worker.prepare(cases, 5)[0][1][1][0]
    b = worker.prepare(cases, 5)[0][1][1][0]
    c = worker.prepare(cases, 6)[0][1][1][0]
    assert [str(p.body) for p in a] == [str(p.body) for p in b]
    assert [str(p.body) for p in a] != [str(p.body) for p in c]


def test_untraced_pass_leaves_every_rdes_attribute_unpatched():
    import rdes.cli  # noqa: F401

    before = _bindings()
    rows = worker.run_cases(worker.prepare(_cheap_cases(), 1))
    assert all(r["status"] == "ok" for r in rows), rows
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_and_self_times_cover_the_wall():
    import rdes.cli  # noqa: F401

    before = _bindings()
    reports = []
    for _ in range(2):
        t = tracer.Tracer()
        rows = worker.run_cases(worker.prepare(_cheap_cases(), 1), t)
        assert all(r["status"] == "ok" for r in rows), rows
        wall = sum(r["seconds"] for r in rows)
        layer_s = sum(t.self_s.values())
        assert 0 <= wall - layer_s <= 0.05 * wall + 0.005
        reports.append(dict(t.counts))
    assert reports[0] == reports[1]
    counts = reports[0]
    assert counts["verify.obligations"] > 0
    assert counts["oracle.enumerate_calls"] > 0
    assert counts["kleene.star_wp_calls"] > 0
    assert counts["dsl.load_calls"] == sum(
        arg.endswith(".rp") for c in _cheap_cases() for arg in c.get("argv", ())
    )
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = (
        set(tracer.COUNTERS)
        | {layer + "_s" for layer in tracer.LAYERS}
        | {"ground.instances_per_query", "trace.wall_s", "trace.residual_s",
           "trace.overhead_s"}
    )
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(
        bench_cases.load_workloads()
    )


def test_stopwatch_samples_only_inside_and_restores_the_signal():
    import signal

    import speed

    with speed.Stopwatch() as clock:
        speed._run(speed.ITERATIONS * 8)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert len(clock._refs) > 2
    assert 0 < clock.seconds and 0 < clock.nominal_s
