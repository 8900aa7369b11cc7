"""Independent bounded enumerator of ground observations.

`enumerate_program` reads the core program forms directly, by structural
recursion over states, and never consults the contract calculus: agreement
between the two (`cross_check`) is evidence for the calculated contracts,
not a restatement of them.

Observations are relative to an initial state:

* ``Quiet``: paused after a trace, accepting a set of events;
* ``Term``: terminated after a trace in a final state;
* ``Div``: divergence reached after a trace (anything may follow);
* ``BudgetCut``: the unfold budget ran out (never conflated with
  divergence; everything beyond it is simply unknown).

Restriction: the observations at trace bound k are the observations at any
bound K >= k whose trace has length at most k.  Trace lengths add under
sequencing and iteration, and no form looks at the traces of its parts
beyond whether they are empty, so this holds for every program.  The
enumerator therefore builds only what fits.  Each action is enumerated with
the room left, the trace bound minus the length of the prefix before it:

* an event with no room left only pauses, offering itself;
* a sequence, and a loop unfolding, follow a termination after t1 with
  the rest enumerated in room - len(t1);

so every observation built has a trace within the bound, and none is built
only to be dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import dsl, ground
from .contracts import Contract
from .relalg import ground_trace, pp_trace
from .state import SymbolTable, Valuation, eval_expr, pp_value


@dataclass(frozen=True)
class Quiet:
    st: Valuation
    tt: tuple
    acc: frozenset


@dataclass(frozen=True)
class Term:
    st: Valuation
    tt: tuple
    st2: Valuation


@dataclass(frozen=True)
class Div:
    st: Valuation
    tt: tuple


@dataclass(frozen=True)
class BudgetCut:
    st: Valuation
    tt: tuple


# internal observation tuples: ("q", tt, acc) | ("t", tt, s2)
#                            | ("div", tt) | ("cut", tt)


def enumerate_program(
    tp: dsl.TypedProgram,
    s0: Valuation,
    depth: int,
    trace_bound: int,
) -> frozenset:
    """All observations from s0, with loops unfolded at most `depth` times
    and traces pruned beyond `trace_bound`."""
    symtab = tp.symtab
    # keyed by the action's identity: every action is a node of `tp.body`,
    # alive for the whole call, and hashing a node would walk its subtree
    memo: dict = {}

    def go(a: dsl.Action, s: Valuation, d: int, room: int) -> frozenset:
        key = (id(a), s, d, room)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _enum(a, s, d, room)
        return out

    def _then(
        first: frozenset, second: dsl.Action, d: int, room: int
    ) -> frozenset:
        """`first`, with each termination (t1, s1) followed by what
        `second(s1)` does in the room t1 leaves."""
        out = set()
        for o in first:
            if o[0] != "t":
                out.add(o)
                continue
            _, t1, s1 = o
            rest = go(second, s1, d, room - len(t1))
            if t1:
                out.update((o2[0], t1 + o2[1]) + o2[2:] for o2 in rest)
            else:
                out |= rest
        return frozenset(out)

    def _enum(a: dsl.Action, s: Valuation, d: int, room: int) -> frozenset:
        if isinstance(a, dsl.Skip):
            return frozenset({("t", (), s)})
        if isinstance(a, dsl.Stop):
            return frozenset({("q", (), frozenset())})
        if isinstance(a, dsl.Chaos):
            return frozenset({("div", ())})
        if isinstance(a, dsl.Miracle):
            return frozenset()
        if isinstance(a, dsl.Assign):
            v = eval_expr(a.expr, s)
            return frozenset(
                {("t", (), s.set(a.var, v, symtab.variables[a.var]))}
            )
        if isinstance(a, dsl.DoEvent):
            data = None if a.data is None else eval_expr(a.data, s)
            ev = symtab.ground_event(a.chan, data)
            quiet = ("q", (), frozenset({ev}))
            if room < 1:
                return frozenset({quiet})
            return frozenset({quiet, ("t", (ev,), s)})
        if isinstance(a, dsl.Seq):
            return _then(go(a.first, s, d, room), a.second, d, room)
        if isinstance(a, dsl.IntChoice):
            out = set()
            for b in a.branches:
                out |= go(b, s, d, room)
            return frozenset(out)
        if isinstance(a, dsl.ExtChoice):
            branch_obs = [go(b, s, d, room) for b in a.branches]
            out = set()
            empty_quiets = []
            for obs in branch_obs:
                eq = [o for o in obs if o[0] == "q" and not o[1]]
                empty_quiets.append(eq)
                for o in obs:
                    if o[0] == "q" and not o[1]:
                        continue  # merged below, if every branch offers
                    out.add(o)
            if all(empty_quiets):
                for combo in itertools.product(*empty_quiets):
                    acc = frozenset().union(*(o[2] for o in combo))
                    out.add(("q", (), acc))
            return frozenset(out)
        if isinstance(a, dsl.Cond):
            branch = a.then if eval_expr(a.cond, s) else a.other
            return go(branch, s, d, room)
        if isinstance(a, dsl.While):
            if not eval_expr(a.cond, s):
                return frozenset({("t", (), s)})
            if d <= 0:
                return frozenset({("cut", ())})
            return _then(go(a.body, s, d, room), a, d - 1, room)
        raise TypeError(f"not a core action: {a!r}")

    raw = go(tp.body, s0, depth, trace_bound)
    # `go`, `_then` and `_enum` refer to each other, so only a full
    # collection would free the closures; emptying the table lets reference
    # counting free it
    memo.clear()
    out = set()
    for o in raw:
        if o[0] == "q":
            out.add(Quiet(s0, o[1], o[2]))
        elif o[0] == "t":
            out.add(Term(s0, o[1], o[2]))
        elif o[0] == "div":
            out.add(Div(s0, o[1]))
        else:
            out.add(BudgetCut(s0, o[1]))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Contract-side observations


def contract_obs(
    c: Contract,
    s0: Valuation,
    symtab: SymbolTable,
    trace_bound: int,
) -> frozenset:
    """Ground observations a calculated contract denotes from s0."""
    out = set()
    for clause in c.pre.clauses:
        if eval_expr(clause.cond, s0):
            tt = ground_trace(clause.trace, symtab, s0)
            if len(tt) <= trace_bound:
                out.add(Div(s0, tt))
    for tt, acc in ground.quiet_instances(c.peri, s0, symtab, trace_bound):
        out.add(Quiet(s0, tt, acc))
    for tt, s2 in ground.final_instances(c.post, s0, symtab, trace_bound):
        out.add(Term(s0, tt, s2))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Cross-checking


def _antichain(traces: set) -> set:
    """Prefix-minimal elements."""
    out = set()
    for t in sorted(traces, key=len):
        if not any(t[: len(p)] == p for p in out):
            out.add(t)
    return out


def _shadowed(tt: tuple, cuts: set) -> bool:
    return any(tt[: len(ct)] == ct for ct in cuts)


def compare_observations(
    oracle_obs: frozenset, calc_obs: frozenset
) -> list:
    """Differences between the two observation sets, with budget-cut
    shadowing excluded on both sides and divergences compared as
    prefix-minimal sets.  Equal sets have no differences, since both
    readings below are functions of the set."""
    if oracle_obs == calc_obs:
        return []
    cuts = {o.tt for o in oracle_obs if isinstance(o, BudgetCut)}
    cuts |= {o.tt for o in calc_obs if isinstance(o, BudgetCut)}
    diffs = []

    def visible(obs):
        quiets, terms, divs = set(), set(), set()
        for o in obs:
            if isinstance(o, BudgetCut) or (cuts and _shadowed(o.tt, cuts)):
                continue
            if isinstance(o, Quiet):
                quiets.add((o.tt, o.acc))
            elif isinstance(o, Term):
                terms.add((o.tt, o.st2))
            elif isinstance(o, Div):
                divs.add(o.tt)
        return quiets, terms, _antichain(divs)

    oq, ot, od = visible(oracle_obs)
    cq, ct, cd = visible(calc_obs)
    for kind, left, right in (
        ("quiet", oq, cq),
        ("term", ot, ct),
        ("divergence", od, cd),
    ):
        for only_in, missing in (("oracle", left - right),
                                 ("calculus", right - left)):
            diffs.extend(
                {"kind": kind, "only_in": only_in, "obs": _fmt_obs(kind, o)}
                for o in sorted(missing, key=str)
            )
    return diffs


def _fmt_obs(kind: str, o) -> str:
    if kind == "quiet":
        return f"({pp_trace(o[0])}, accepts {pp_value(o[1])})"
    if kind == "term":
        return f"({pp_trace(o[0])}, {o[1]})"
    return pp_trace(o)


def cross_check(tp: dsl.TypedProgram, calc: Contract, cfg) -> dict:
    """Compare enumerated and calculated observations from every initial
    state; the oracle depth exceeds the trace bound so that budget cuts
    cannot hide in-bound behaviour of productive loops."""
    symtab = tp.symtab
    depth = cfg.trace_bound + 2
    all_diffs = []
    for s0 in symtab.valuations():
        oracle_obs = enumerate_program(tp, s0, depth, cfg.trace_bound)
        calc_side = contract_obs(calc, s0, symtab, cfg.trace_bound)
        diffs = compare_observations(oracle_obs, calc_side)
        for d in diffs:
            d["state"] = str(s0)
        all_diffs.extend(diffs)
    return {"ok": not all_diffs, "diffs": all_diffs}


def observations_json(tp: dsl.TypedProgram, cfg, s0=None) -> dict:
    """Ground-observation dump of the oracle's enumeration."""
    symtab = tp.symtab
    if s0 is None:
        s0 = symtab.default_valuation()
    obs = enumerate_program(tp, s0, cfg.trace_bound + 2, cfg.trace_bound)
    quiets, terms, divs, cuts = [], [], [], []
    for o in sorted(obs, key=str):
        if isinstance(o, Quiet):
            quiets.append(
                {
                    "state": str(o.st),
                    "trace": pp_trace(o.tt),
                    "accepts": sorted(str(e) for e in o.acc),
                }
            )
        elif isinstance(o, Term):
            terms.append(
                {
                    "state": str(o.st),
                    "trace": pp_trace(o.tt),
                    "state'": str(o.st2),
                }
            )
        elif isinstance(o, Div):
            divs.append({"state": str(o.st), "trace": pp_trace(o.tt)})
        else:
            cuts.append({"state": str(o.st), "trace": pp_trace(o.tt)})
    out = {"quiets": quiets, "terms": terms}
    if divs:
        out["divergences"] = divs
    if cuts:
        out["budget_cuts"] = cuts
    return out
