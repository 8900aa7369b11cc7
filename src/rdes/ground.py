"""Ground semantics of reactive relations over finite domains.

Relations denote sets of observations from an initial valuation:

* terminated instances ``(trace, final valuation)``
* quiescent instances ``(trace, accepted event set)``

The two readers differ on atoms, sequences and iterations.  The empty,
universal and disjunctive relations read alike in both (`_shared`): no
instance, no instance set, and the union of the arguments' sets, each
argument read by the caller's own reader.

Sequencing steps through intermediate states, so evaluating an *unnormalised*
term here is an independent reading of relational composition; comparing it
with the normalised term exercises the rewrite rules.  Iteration is evaluated
as a reached-set fixpoint pruned at the trace bound, which is exhaustive for
all observations within the bound.

Restriction: the instances at bound k are the instances at any bound K >= k
whose trace has length at most k.  Trace lengths add under sequencing and
every constructor is monotone in the bound, so this holds for every term.
Sequencing and iteration rely on it to build what follows an intermediate
state once per state rather than once per (trace, state) pair reached:

* an iteration builds its body's terminated instances once per reached
  state, at the star's own bound, while it explores the reached states;
* a sequence, and an iteration's pauses after the reached states, build
  what follows once per intermediate state, at the most room any trace
  reaching that state leaves;

and from a state reached by trace t1 both keep the instances (t2, _) with
len(t1) + len(t2) <= bound.
"""

from __future__ import annotations

from .relalg import (
    FinalAtom,
    QuiescentAtom,
    RAtom,
    RFalse,
    ROr,
    RRel,
    RSeq,
    RStar,
    RTrue,
    ground_set,
    ground_trace,
)
from .state import (
    SymbolTable,
    Valuation,
    apply_to_valuation,
    eval_expr,
)


class NotGroundEvaluable(Exception):
    """The relation has no instance-level reading (e.g. the universal one)."""


def final_instances(
    r: RRel, s: Valuation, symtab: SymbolTable, bound: int
) -> frozenset:
    """All terminated observations (trace, state') with trace length <= bound."""
    if isinstance(r, RAtom):
        a = r.atom
        if isinstance(a, FinalAtom):
            if not eval_expr(a.cond, s):
                return frozenset()
            tt = ground_trace(a.trace, symtab, s)
            if len(tt) > bound:
                return frozenset()
            return frozenset({(tt, apply_to_valuation(a.subst, s, symtab))})
        return frozenset()
    if isinstance(r, RSeq):
        firsts = final_instances(r.first, s, symtab, bound)
        return _then(final_instances, r.second, firsts, symtab, bound)
    if isinstance(r, RStar):
        return _star_states(r.body, s, symtab, bound)
    return _shared(final_instances, r, s, symtab, bound)


def _shared(instances, r: RRel, s: Valuation, symtab: SymbolTable,
            bound: int) -> frozenset:
    """The instances of a form that both readers read alike, each argument
    read by `instances`."""
    if isinstance(r, RFalse):
        return frozenset()
    if isinstance(r, RTrue):
        raise NotGroundEvaluable("the universal relation has no instance set")
    if isinstance(r, ROr):
        return frozenset().union(
            *[instances(x, s, symtab, bound) for x in r.args])
    raise TypeError(f"not a reactive relation: {r!r}")


def _star_states(
    body: RRel, s: Valuation, symtab: SymbolTable, bound: int
) -> frozenset:
    """Reached (trace, state) pairs of an iteration, pruned at the bound.
    The body's instances are built once per reached state."""
    steps: dict = {}
    seen = {((), s)}
    frontier = [((), s)]
    while frontier:
        t1, s1 = frontier.pop()
        if s1 not in steps:
            steps[s1] = final_instances(body, s1, symtab, bound)
        room = bound - len(t1)
        for t2, s2 in steps[s1]:
            nxt = (t1 + t2, s2)
            if len(t2) <= room and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def _then(instances, second: RRel, firsts, symtab: SymbolTable, bound: int):
    """(t1 + t2, x) within the bound for each (t1, s1) of `firsts` and each
    instance (t2, x) of `second` from s1.  The second relation is built
    once per intermediate state, at the most room any t1 leaves it."""
    room: dict = {}
    for t1, s1 in firsts:
        room[s1] = max(room.get(s1, 0), bound - len(t1))
    after = {s1: instances(second, s1, symtab, k) for s1, k in room.items()}
    return frozenset(
        (t1 + t2, x)
        for t1, s1 in firsts
        for t2, x in after[s1]
        if len(t1) + len(t2) <= bound
    )


def quiet_instances(
    r: RRel, s: Valuation, symtab: SymbolTable, bound: int
) -> frozenset:
    """All quiescent observations (trace, accepted set), trace <= bound.

    The accepted set is the atom's evaluated acceptance: the observation
    admits any refusal disjoint from it.
    """
    if isinstance(r, RAtom):
        a = r.atom
        if isinstance(a, QuiescentAtom):
            if not eval_expr(a.cond, s):
                return frozenset()
            tt = ground_trace(a.trace, symtab, s)
            if len(tt) > bound:
                return frozenset()
            return frozenset({(tt, ground_set(a.accept, symtab, s))})
        return frozenset()
    if isinstance(r, RSeq):
        firsts = final_instances(r.first, s, symtab, bound)
        if isinstance(r.first, RStar):
            # an iteration's terminated instances are its reached pairs
            pauses = _then(quiet_instances, r.first.body, firsts, symtab, bound)
        else:
            pauses = quiet_instances(r.first, s, symtab, bound)
        return pauses | _then(quiet_instances, r.second, firsts, symtab, bound)
    if isinstance(r, RStar):
        reached = _star_states(r.body, s, symtab, bound)
        return _then(quiet_instances, r.body, reached, symtab, bound)
    return _shared(quiet_instances, r, s, symtab, bound)


def observations(instances, r: RRel, symtab: SymbolTable, bound: int):
    """(s, trace, x) for each state s and each instance (trace, x) of `r`
    from s within `bound`, as `instances` (final or quiet) gives them."""
    return frozenset((s, t, x) for s in symtab.valuations()
                     for t, x in instances(r, s, symtab, bound))


def holds_term(
    r: RRel, s: Valuation, tt: tuple, s2: Valuation, symtab: SymbolTable
) -> bool:
    """Does the terminated observation (s, tt, s2) satisfy the relation?"""
    if isinstance(r, RTrue):
        return True
    return (tt, s2) in final_instances(r, s, symtab, len(tt))


def holds_quiet(
    r: RRel, s: Valuation, tt: tuple, acc: frozenset, symtab: SymbolTable
) -> bool:
    """Does the quiescent observation (s, tt, acc) satisfy the relation?

    An instance with accepted set E admits every acceptance superset of E.
    """
    if isinstance(r, RTrue):
        return True
    return any(
        t == tt and e <= acc
        for t, e in quiet_instances(r, s, symtab, len(tt))
    )


def holds_pre_clause(cond, trace, s: Valuation, tt: tuple, symtab) -> bool:
    """Does the negated-init clause hold at (s, tt)?"""
    if not eval_expr(cond, s):
        return True
    t = ground_trace(trace, symtab, s)
    return t != tt[: len(t)]
