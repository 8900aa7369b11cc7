"""Workload case lists and their expected answers.

`cases.json` holds, per workload, a fixed list of cases and one headline
case for the trace-bound ladder.  A case is either a CLI argument list
(driven through `rdes.cli.main`) or a batch of generated programs
(`random`), checked as `crosscheck --random` checks them.  Each case records
the expected exit code with a one-line hand reason and, for refutations, the
witness `state` and `trace`.  Nothing else in a verdict is compared.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CASES_FILE = Path(__file__).resolve().parent / "cases.json"

# The CLI flags a case may pass: the ones kept by the planned removal of
# dead knobs.  `--star-bound` and `--jobs` are deliberately absent.
ALLOWED_FLAGS = frozenset(
    {"--trace-bound", "--wp-bound", "--format", "--invariant", "--peri", "--seed"}
)

WITNESS_FIELDS = ("state", "trace")


class DuplicateCase(Exception):
    """A case id would run twice in one process."""


def load_workloads() -> dict:
    """Read and validate the workload definitions."""
    data = json.loads(CASES_FILE.read_text(encoding="utf-8"))
    for name, workload in data.items():
        check_unique(workload["cases"])
        for case in workload["cases"] + [workload["ladder"]]:
            for arg in case.get("argv", ()):
                if arg.startswith("--") and arg not in ALLOWED_FLAGS:
                    raise ValueError(f"{name}: flag {arg} is not allowed")
    return data


def check_unique(cases: list) -> None:
    """Refuse a case list that repeats an id.

    A case runs at most once per process, so a cache that outlives a
    single check cannot make a case look faster than a fresh CLI call.
    """
    seen = set()
    for case in cases:
        if case["id"] in seen:
            raise DuplicateCase(case["id"])
        seen.add(case["id"])


def pass_seed(seed: int, index: int) -> int:
    """Seed of the inputs of pass `index` of a run with seed `seed`."""
    if not 0 <= index < 1000:
        raise ValueError("pass index out of range")
    return seed * 1000 + index


def ordered(cases: list, seed: int) -> list:
    """The case list in the seeded order of one pass."""
    out = list(cases)
    random.Random(seed).shuffle(out)
    return out


def judge(case: dict, code, witness) -> str:
    """'ok', 'wrong' or 'failed' for one completed case.

    Exit 2 where 2 was not expected is a failure (error or inconclusive);
    any other difference in the exit code or the witness is a wrong answer.
    """
    if code == 2 and case["exit"] != 2:
        return "failed"
    if code != case["exit"]:
        return "wrong"
    expected = case.get("witness")
    if expected is not None:
        got = witness or {}
        if any(got.get(k) != expected[k] for k in WITNESS_FIELDS):
            return "wrong"
    return "ok"
