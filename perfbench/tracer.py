"""Per-layer counters and self times, taken from outside the program.

`Tracer.install` replaces each traced `rdes` function under every name a
module of the package binds it to (`rdes.ground.quiet_instances`,
`rdes.verify.star_wp`, `rdes.cli.refine_check`, ...), so calls made through
a module attribute, a `from ... import` binding or recursion all pass
through the wrapper.  `uninstall` puts the original objects back.  No file
of the program changes.

Self time: the clock always runs for the innermost active layer.  Entering
a wrapped function of another layer charges the time so far to the caller's
layer; leaving charges the callee's.  Time in the benchmark's own code
inside a case belongs to no layer and shows as the residual.

Counters: a function's counters move only on its outermost call within
its group, so recursion and the nested builds inside one ground instance
set count once.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _instances(counts, result):
    counts["ground.instances"] += len(result)


def _verdict(counts, verdict):
    counts["verify.obligations"] += 1
    if verdict.kind == "refuted":
        counts["verify.refuted_obligations"] += 1
    elif verdict.kind == "inconclusive":
        counts["verify.inconclusive_obligations"] += 1


def _observations(counts, obs):
    counts["oracle.observations"] += len(obs)
    counts["oracle.budget_cuts"] += sum(
        type(o).__name__ == "BudgetCut" for o in obs
    )


def _differences(counts, report):
    counts["oracle.differences"] += len(report["diffs"])


def _saturation(counts, res):
    counts["kleene.star_wp_iterations"] += res.iterations
    counts["kleene.star_wp_unconverged"] += not res.converged


# (module, function, layer, group, call counter, result hook).  The layer
# names the self-time metric `<layer>_s`; the group decides which calls
# are outermost.
TRACED = (
    ("ground", "final_instances", "ground.self", "ground.build",
     "ground.final_instances_calls", _instances),
    ("ground", "quiet_instances", "ground.self", "ground.build",
     "ground.quiet_instances_calls", _instances),
    ("ground", "holds_quiet", "ground.self", "ground.query",
     "ground.queries", None),
    ("ground", "holds_term", "ground.self", "ground.query",
     "ground.queries", None),
    ("ground", "holds_pre_clause", "ground.self", "ground.query",
     "ground.queries", None),
    ("verify", "refine_check", "verify.self", "verify.refine_check",
     None, None),
    ("verify", "check_deadlock_free", "verify.self", "verify.dlf", None, None),
    ("verify", "inv_check_program", "verify.self", "verify.inv", None, None),
    ("verify", "check_invariant_loop", "verify.self", "verify.loop",
     None, None),
    ("verify", "check_rrel_refine", "verify.self", "verify.obligation",
     None, _verdict),
    ("verify", "assign_then_contract_reduction", "verify.self",
     "verify.reduction", None, None),
    ("oracle", "enumerate_program", "oracle.enumerate", "oracle.enumerate",
     "oracle.enumerate_calls", _observations),
    ("oracle", "contract_obs", "oracle.contract_obs", "oracle.contract_obs",
     None, None),
    ("oracle", "cross_check", "oracle.compare", "oracle.cross_check",
     None, _differences),
    ("contracts", "calculate", "contracts.calculate", "contracts.calculate",
     "contracts.calculate_calls", None),
    ("relalg", "normalize", "relalg.normalize", "relalg.normalize",
     "relalg.normalize_calls", None),
    ("kleene", "star_wp", "kleene.star_wp", "kleene.star_wp",
     "kleene.star_wp_calls", _saturation),
    ("state", "eval_expr", "state.eval", "state.eval",
     "state.eval_calls", None),
    ("dsl", "load_program", "dsl.load", "dsl.load", "dsl.load_calls", None),
    ("dsl", "parse_invariant", "dsl.load", "dsl.invariant", None, None),
    ("cli", "main", "cli.self", "cli.main", None, None),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TRACED))
COUNTERS = (
    "ground.final_instances_calls",
    "ground.quiet_instances_calls",
    "ground.instances",
    "ground.queries",
    "verify.obligations",
    "verify.refuted_obligations",
    "verify.inconclusive_obligations",
    "oracle.enumerate_calls",
    "oracle.observations",
    "oracle.budget_cuts",
    "oracle.differences",
    "contracts.calculate_calls",
    "relalg.normalize_calls",
    "kleene.star_wp_calls",
    "kleene.star_wp_iterations",
    "kleene.star_wp_unconverged",
    "state.eval_calls",
    "dsl.load_calls",
)


def rdes_modules() -> list:
    """Every loaded module of the `rdes` package."""
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "rdes" or name.startswith("rdes."))
    ]


class Tracer:
    """Counts and self times of the traced layers while installed."""

    def __init__(self):
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.self_s = Counter({layer: 0.0 for layer in LAYERS})
        self._stack = [None]
        self._depth = Counter()
        self._mark = time.perf_counter()
        self._patched = []

    def install(self) -> None:
        modules = rdes_modules()
        by_name = {m.__name__: m for m in modules}
        for mod_name, fn_name, layer, group, counter, hook in TRACED:
            original = getattr(by_name["rdes." + mod_name], fn_name)
            wrapper = self._wrap(original, layer, group, counter, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))
        self._mark = time.perf_counter()

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, fn, layer, group, counter, hook):
        stack = self._stack
        depth = self._depth
        counts = self.counts

        def traced(*args, **kwargs):
            outer = depth[group] == 0
            switch = stack[-1] != layer
            if not (outer or switch):
                return fn(*args, **kwargs)
            if switch:
                self._enter(layer)
            depth[group] += 1
            try:
                if outer and counter:
                    counts[counter] += 1
                result = fn(*args, **kwargs)
                if outer and hook:
                    hook(counts, result)
                return result
            finally:
                depth[group] -= 1
                if switch:
                    self._leave()

        return traced

    def _enter(self, layer: str) -> None:
        now = time.perf_counter()
        top = self._stack[-1]
        if top is not None:
            self.self_s[top] += now - self._mark
        self._stack.append(layer)
        self._mark = now

    def _leave(self) -> None:
        now = time.perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    def report(self) -> dict:
        """Counters and per-layer self times (`<layer>_s`)."""
        out = dict(self.counts)
        for layer, seconds in self.self_s.items():
            out[layer + "_s"] = seconds
        return out
