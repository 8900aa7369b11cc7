"""Independent bounded enumerator of ground observations.

`enumerate_program` reads the core program forms directly, by structural
recursion over states, and never consults the contract calculus: agreement
between the two (`cross_check`) is evidence for the calculated contracts,
not a restatement of them.

Observations are relative to an initial state:

* ``Quiet``: paused after a trace, accepting a set of events;
* ``Term``: terminated after a trace in a final state;
* ``Div``: divergence reached after a trace (anything may follow).

Restriction: the observations at trace bound k are the observations at any
bound K >= k whose trace has length at most k.  Trace lengths add under
sequencing and iteration, and no form looks at the traces of its parts
beyond whether they are empty, so this holds for every program.  The
enumerator therefore builds only what fits.  Each action is enumerated with
the room left, the trace bound minus the length of the prefix before it:

* an event with no room left only pauses, offering itself;
* a sequence, and a loop pass, follow a termination after t1 with the rest
  enumerated in room - len(t1);

so every observation built has a trace within the bound, and none is built
only to be dropped.

A loop is read from a state s by its silent closure: the states that passes
of the body ending without an event reach from s.  A closure state where the
guard fails terminates there; every other one contributes each observation
of a pass from it, a pass that ends after a non-empty trace continuing with
the loop in the room that trace leaves.  A loop that can repeat silently
forever is divergence, the bottom of the lattice, as the calculator's
`while_contract` reads it (chaos): so if the closure's silent passes form a
cycle, the loop diverges at the empty trace.  A silent pass that does not
recur is just a pass.  So every recursion either shortens the room or stays
within a finite closure, and the bound on traces is the only bound.

`cross_check` reads both sides from one initial state per class of states
that neither side can tell apart.  Each side has its own def-use rule: the
oracle's is `_reads_writes`, over the program's core actions as the
enumerator reads them, and the contract's is `relalg.depends`, over its
three relations as `ground` reads them.  A class is the states that agree
on every variable that either rule names: what the side reads, and what a
termination may leave unwritten, since final states carry it.  Each rule is
a fact about its own side's reading alone: from the states of one class,
that reading gives the same observations with `st` replaced.  So the two
sides differ at a state exactly where they differ at the first state of its
class, and comparing there decides the whole class.  A wrong calculus shows
at that state as it would at any other.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import dsl, ground
from .contracts import Contract
from .relalg import depends, ground_trace, pp_trace
from .state import SymbolTable, Valuation, eval_expr, free_vars, pp_value


# Named tuples, so that building, hashing and comparing observations runs in
# C.  Observations of different kinds never compare equal: a `Div` has two
# fields, and a `Quiet`'s accepted set is never equal to a `Term`'s state.
class Quiet(NamedTuple):
    st: Valuation
    tt: tuple
    acc: frozenset


class Term(NamedTuple):
    st: Valuation
    tt: tuple
    st2: Valuation


class Div(NamedTuple):
    st: Valuation
    tt: tuple


# internal observation tuples: ("q", tt, acc) | ("t", tt, s2) | ("div", tt)


def enumerate_program(
    tp: dsl.TypedProgram, s0: Valuation, trace_bound: int
) -> frozenset:
    """All observations from s0 with traces within `trace_bound`."""
    out = set()
    for o in _Enumeration(tp.symtab).go(tp.body, s0, trace_bound):
        if o[0] == "q":
            out.add(Quiet(s0, o[1], o[2]))
        elif o[0] == "t":
            out.add(Term(s0, o[1], o[2]))
        else:
            out.add(Div(s0, o[1]))
    return frozenset(out)


class _Enumeration:
    """One enumeration's memo of internal observations.  Its methods refer
    to each other through the instance, which holds no reference back to
    them, so reference counting frees it when the enumeration ends."""

    def __init__(self, symtab: SymbolTable):
        self.symtab = symtab
        # keyed by the action's identity: every action is a node of the
        # program's body, alive for the whole enumeration, and hashing a
        # node would walk its subtree
        self.memo: dict = {}

    def go(self, a: dsl.Action, s: Valuation, room: int) -> frozenset:
        key = (id(a), s, room)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self.enum(a, s, room)
        return out

    def then(self, first, second: dsl.Action, room: int, out: set,
             silent=None) -> set:
        """`out` with `first` added, each termination (t1, s1) of `first`
        followed by what `second(s1)` does in the room t1 leaves.  Given a
        set `silent`, a termination with t1 empty only adds s1 to it."""
        for o in first:
            if o[0] != "t":
                out.add(o)
                continue
            _, t1, s1 = o
            if silent is not None and not t1:
                silent.add(s1)
                continue
            rest = self.go(second, s1, room - len(t1))
            if t1:
                out.update((o2[0], t1 + o2[1]) + o2[2:] for o2 in rest)
            else:
                out |= rest
        return out

    def loop(self, a: dsl.While, s: Valuation, room: int) -> frozenset:
        """The loop from s, read by its silent closure."""
        out = set()
        silent: dict = {}  # closure state -> states its silent passes reach
        frontier = [s]
        while frontier:
            s1 = frontier.pop()
            if s1 in silent:
                continue
            if not eval_expr(a.cond, s1):
                silent[s1] = frozenset()
                out.add(("t", (), s1))
                continue
            nxt = silent[s1] = set()
            self.then(self.go(a.body, s1, room), a, room, out, nxt)
            frontier.extend(nxt)
        # prune each state none of whose silent passes leads to a state
        # still unpruned; what remains lies on or leads to a silent cycle
        live = {s1 for s1, nxt in silent.items() if nxt}
        while True:
            dead = {s1 for s1 in live if not silent[s1] & live}
            if not dead:
                break
            live -= dead
        if live:
            out.add(("div", ()))
        return frozenset(out)

    def enum(self, a: dsl.Action, s: Valuation, room: int) -> frozenset:
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
                {("t", (), s.set(a.var, v, self.symtab.variables[a.var]))}
            )
        if isinstance(a, dsl.DoEvent):
            data = None if a.data is None else eval_expr(a.data, s)
            ev = self.symtab.ground_event(a.chan, data)
            quiet = ("q", (), frozenset({ev}))
            if room < 1:
                return frozenset({quiet})
            return frozenset({quiet, ("t", (ev,), s)})
        if isinstance(a, dsl.Seq):
            return frozenset(self.then(self.go(a.first, s, room), a.second,
                                       room, set()))
        if isinstance(a, dsl.IntChoice):
            out = set()
            for b in a.branches:
                out |= self.go(b, s, room)
            return frozenset(out)
        if isinstance(a, dsl.ExtChoice):
            branch_obs = [self.go(b, s, room) for b in a.branches]
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
            return self.go(branch, s, room)
        if isinstance(a, dsl.While):
            return self.loop(a, s, room)
        raise TypeError(f"not a core action: {a!r}")


def _reads_writes(a: dsl.Action, variables: frozenset) -> tuple:
    """(reads, writes) of a core action over `variables`, read off the
    program text as the enumerator reads it: runs from initial states that
    agree on `reads` make the same choices and give the same events, pauses
    and divergences, and each termination writes every variable in
    `writes`, as a function of `reads`.  An action that never terminates
    writes every variable."""
    if isinstance(a, dsl.Skip):
        return frozenset(), frozenset()
    if isinstance(a, (dsl.Stop, dsl.Chaos, dsl.Miracle)):
        return frozenset(), variables
    if isinstance(a, dsl.Assign):
        return free_vars(a.expr), frozenset({a.var})
    if isinstance(a, dsl.DoEvent):
        if a.data is None:
            return frozenset(), frozenset()
        return free_vars(a.data), frozenset()
    if isinstance(a, dsl.Seq):
        r1, w1 = _reads_writes(a.first, variables)
        r2, w2 = _reads_writes(a.second, variables)
        return r1 | (r2 - w1), w1 | w2
    if isinstance(a, (dsl.Cond, dsl.IntChoice, dsl.ExtChoice)):
        if isinstance(a, dsl.Cond):
            reads, branches = free_vars(a.cond), (a.then, a.other)
        else:
            reads, branches = frozenset(), a.branches
        writes = variables
        for b in branches:
            rb, wb = _reads_writes(b, variables)
            reads, writes = reads | rb, writes & wb
        return reads, writes
    if isinstance(a, dsl.While):
        # every pass starts where the states agree on what passes read, as
        # the first does; no pass may run, so the loop writes nothing
        body_reads = _reads_writes(a.body, variables)[0]
        return free_vars(a.cond) | body_reads, frozenset()
    raise TypeError(f"not a core action: {a!r}")


def _program_depends(tp: dsl.TypedProgram) -> frozenset:
    """The variables whose initial value can change the oracle's
    observations of `tp`: what it reads, and what a termination may leave
    unwritten."""
    variables = frozenset(tp.symtab.variables)
    reads, writes = _reads_writes(tp.body, variables)
    return reads | (variables - writes)


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


def _contract_depends(c: Contract, symtab: SymbolTable) -> frozenset:
    """The variables whose initial value can change `contract_obs` of c."""
    variables = frozenset(symtab.variables)
    return (depends(c.pre, "pre", variables)
            | depends(c.peri, "peri", variables)
            | depends(c.post, "post", variables))


# ---------------------------------------------------------------------------
# Cross-checking


def _antichain(traces: set) -> set:
    """Prefix-minimal elements."""
    out = set()
    for t in sorted(traces, key=len):
        if not any(t[: len(p)] == p for p in out):
            out.add(t)
    return out


def compare_observations(
    oracle_obs: frozenset, calc_obs: frozenset
) -> list:
    """Differences between the two observation sets, with divergences
    compared as prefix-minimal sets.  Equal sets have no differences, since
    both readings below are functions of the set."""
    if oracle_obs == calc_obs:
        return []
    diffs = []

    def visible(obs):
        quiets, terms, divs = set(), set(), set()
        for o in obs:
            if isinstance(o, Quiet):
                quiets.add((o.tt, o.acc))
            elif isinstance(o, Term):
                terms.add((o.tt, o.st2))
            else:
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
    state, once per class of states that neither reading can tell apart
    (see the module docstring).  The differences from a class's first state
    are reported for each of its states, in valuation order."""
    symtab = tp.symtab
    key_vars = _program_depends(tp) | _contract_depends(calc, symtab)

    def key(s: Valuation) -> tuple:
        return tuple(v for n, v in s.items if n in key_vars)

    diffs_of: dict = {}  # class key -> the differences from its first state
    for s0 in symtab.valuations():
        k = key(s0)
        if k not in diffs_of:
            diffs_of[k] = compare_observations(
                enumerate_program(tp, s0, cfg.trace_bound),
                contract_obs(calc, s0, symtab, cfg.trace_bound),
            )
    diffs = [dict(d, state=str(s0))
             for s0 in symtab.valuations() for d in diffs_of[key(s0)]]
    return {"ok": not diffs, "diffs": diffs,
            "initial_states": len(symtab.valuations()),
            "classes": len(diffs_of)}


def observations_json(tp: dsl.TypedProgram, cfg) -> dict:
    """Ground-observation dump of the oracle's enumeration from the default
    initial state."""
    s0 = tp.symtab.default_valuation()
    obs = enumerate_program(tp, s0, cfg.trace_bound)
    quiets, terms, divs = [], [], []
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
        else:
            divs.append({"state": str(o.st), "trace": pp_trace(o.tt)})
    out = {"quiets": quiets, "terms": terms}
    if divs:
        out["divergences"] = divs
    return out
