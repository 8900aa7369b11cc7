"""Reactive-relation term algebra and its normaliser.

Two atom kinds describe the building blocks of reactive behaviour:

* ``QuiescentAtom(b, t, E)`` -- a quiescent observation: under ``b`` the
  trace contribution is exactly ``t`` and every event in ``E`` is accepted.
* ``FinalAtom(b, s, t)`` -- a terminated observation: under ``b`` the state
  is updated by substitution ``s`` and the trace contribution is ``t``.

Relations are disjunctions, sequences and iterations of atoms; the
normaliser pushes sequencing into atoms, yielding disjunctive atom form
(possibly interrupted by symbolic iteration nodes).  A relation holds only
what a normal form can hold: a state test [b] is the terminated atom
Phi(b | id | <>) (`state_test`), and the conjunction of quiescent offers
that external choice needs is distributed into atoms where it is built
(`conj_offers`).

Preconditions are not relations here: they live only in ``PreNF``, a
conjunction of negated initial conditions (``NegClause``).
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Optional, Union

from .state import (
    Expr,
    IDENTITY,
    IfE,
    Lit,
    Subst,
    SymbolTable,
    TRUE,
    Valuation,
    apply_subst,
    compose_subst,
    cond_is_false,
    cond_is_true,
    conj,
    disj,
    eval_expr,
    exprs_equiv,
    fold,
    free_vars,
    negate,
    node,
    pp_expr,
    subst_of,
    substs_equiv,
)
from .state import Event  # re-exported for ground consumers


class NormalizationIncomplete(Exception):
    """A relation would not reduce to the atom form the caller required."""


class KindMismatchError(Exception):
    pass


class TraceMismatchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Event terms, trace expressions, acceptance-set expressions


@node
class EventTerm:
    chan: str
    data: Optional[Expr] = None

    def ground(self, symtab: SymbolTable, val: Valuation) -> Event:
        if self.data is None:
            return Event(self.chan)
        return symtab.ground_event(self.chan, eval_expr(self.data, val))

    def __str__(self) -> str:
        if self.data is None:
            return self.chan
        return f"{self.chan}.{pp_expr(self.data, 8)}"


TraceExpr = tuple  # of EventTerm; literal form only

# The key that sorts (printed form, part) pairs in printed order
_FIRST = itemgetter(0)


def subst_event(s: Subst, e: EventTerm) -> EventTerm:
    if e.data is None:
        return e
    return EventTerm(e.chan, apply_subst(s, e.data))


def subst_trace(s: Subst, t: TraceExpr) -> TraceExpr:
    return tuple(subst_event(s, e) for e in t)


def fold_trace(t: TraceExpr) -> TraceExpr:
    return tuple(
        EventTerm(e.chan, fold(e.data) if e.data is not None else None)
        for e in t
    )


def fold_event(e: EventTerm, symtab: SymbolTable) -> EventTerm:
    """e with its payload folded, and a literal payload saturated into the
    channel's carrier, as grounding saturates it: `out!head(<>)` over
    `out : int[1..2]` is the event out.1."""
    if e.data is None:
        return e
    data = fold(e.data)
    if isinstance(data, Lit):
        data = Lit(symtab.channels[e.chan].clamp(data.value))
    return EventTerm(e.chan, data)


def carry_trace(t: TraceExpr, symtab: SymbolTable) -> TraceExpr:
    """`fold_event` of each event of t."""
    return tuple(fold_event(e, symtab) for e in t)


def ground_trace(t: TraceExpr, symtab: SymbolTable, val: Valuation) -> tuple:
    return tuple(e.ground(symtab, val) for e in t)


def traces_equiv(t1: TraceExpr, t2: TraceExpr, symtab: SymbolTable) -> bool:
    if len(t1) != len(t2):
        return False
    for a, b in zip(t1, t2):
        if a.chan != b.chan:
            return False
        if (a.data is None) != (b.data is None):
            return False
        if a.data is not None and not exprs_equiv(a.data, b.data, symtab):
            return False
    return True


def pp_trace(t: TraceExpr) -> str:
    return "<" + ", ".join(str(e) for e in t) + ">"


@node
class SingletonPart:
    """One event, offered when the guard holds (guard None = always)."""

    guard: Optional[Expr]
    term: EventTerm

    def __str__(self) -> str:
        if self.guard is None:
            return str(self.term)
        return f"{self.term} if {pp_expr(self.guard)}"


@node
class ImagePart:
    """Every event of one channel, offered when the guard holds."""

    guard: Optional[Expr]
    chan: str

    def __str__(self) -> str:
        if self.guard is None:
            return f"{self.chan}.*"
        return f"{self.chan}.* if {pp_expr(self.guard)}"


@node
class EventSetExpr:
    """Finite union of guarded singletons and channel images."""

    parts: tuple

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.parts) + "}"


EMPTY_SET = EventSetExpr(())


def event_set(*terms: EventTerm) -> EventSetExpr:
    return EventSetExpr(tuple(SingletonPart(None, t) for t in terms))


def channel_image(chan: str) -> EventSetExpr:
    return EventSetExpr((ImagePart(None, chan),))


def guarded_set(guard: Expr, inner: EventSetExpr) -> EventSetExpr:
    guard = fold(guard)
    if guard == TRUE:
        return inner
    if isinstance(guard, Lit) and not guard.value:
        return EMPTY_SET
    parts = []
    for p in inner.parts:
        g = guard if p.guard is None else conj(guard, p.guard)
        if isinstance(p, SingletonPart):
            parts.append(SingletonPart(g, p.term))
        else:
            parts.append(ImagePart(g, p.chan))
    return EventSetExpr(tuple(parts))


def union_sets(*sets: EventSetExpr) -> EventSetExpr:
    parts = []
    for s in sets:
        parts.extend(s.parts)
    return EventSetExpr(tuple(parts))


def conditional_set(c: Expr, s1: EventSetExpr, s2: EventSetExpr) -> EventSetExpr:
    return union_sets(guarded_set(c, s1), guarded_set(negate(c), s2))


def subst_set(s: Subst, es: EventSetExpr) -> EventSetExpr:
    parts = []
    for p in es.parts:
        g = apply_subst(s, p.guard) if p.guard is not None else None
        if isinstance(p, SingletonPart):
            parts.append(SingletonPart(g, subst_event(s, p.term)))
        else:
            parts.append(ImagePart(g, p.chan))
    return EventSetExpr(tuple(parts))


def canon_set(es: EventSetExpr, symtab: SymbolTable) -> EventSetExpr:
    """Canonical form: dead parts dropped, duplicates merged, literal
    singletons covering a whole channel collapsed to its image, sorted."""
    parts = []
    for p in es.parts:
        g = fold(p.guard) if p.guard is not None else None
        if g is not None:
            if cond_is_false(g, symtab):
                continue
            if cond_is_true(g, symtab):
                g = None
        if isinstance(p, SingletonPart):
            parts.append(SingletonPart(g, fold_event(p.term, symtab)))
        else:
            parts.append(ImagePart(g, p.chan))
    # collapse literal unguarded singletons over a full channel domain
    by_chan: dict = {}
    for p in parts:
        if (
            isinstance(p, SingletonPart)
            and p.guard is None
            and p.term.data is not None
            and isinstance(p.term.data, Lit)
        ):
            by_chan.setdefault(p.term.chan, set()).add(p.term.data.value)
    collapsed = set()
    for chan, seen in by_chan.items():
        t = symtab.channels.get(chan)
        if t is not None and seen >= set(t.values()):
            collapsed.add(chan)
    out = []
    for p in parts:
        if (
            isinstance(p, SingletonPart)
            and p.guard is None
            and p.term.chan in collapsed
            and isinstance(p.term.data, Lit)
        ):
            continue
        out.append(p)
    out.extend(ImagePart(None, c) for c in sorted(collapsed))
    # drop duplicates and parts shadowed by an unguarded image
    images = {p.chan for p in out if isinstance(p, ImagePart) and p.guard is None}
    dedup = []
    last = None
    for key, p in sorted(zip(map(str, out), out), key=_FIRST):
        if key == last:
            continue
        if (
            isinstance(p, SingletonPart)
            and p.term.chan in images
        ):
            continue
        if isinstance(p, ImagePart) and p.guard is not None and p.chan in images:
            continue
        dedup.append(p)
        last = key
    return EventSetExpr(tuple(dedup))


def ground_set(
    es: EventSetExpr, symtab: SymbolTable, val: Valuation
) -> frozenset:
    events = set()
    for p in es.parts:
        if p.guard is not None and not eval_expr(p.guard, val):
            continue
        if isinstance(p, SingletonPart):
            events.add(p.term.ground(symtab, val))
        else:
            t = symtab.channels[p.chan]
            if t is None:
                events.add(Event(p.chan))
            else:
                events.update(Event(p.chan, v) for v in t.values())
    return frozenset(events)


def sets_equiv(a: EventSetExpr, b: EventSetExpr, symtab: SymbolTable) -> bool:
    if a == b:
        return True
    return all(
        ground_set(a, symtab, v) == ground_set(b, symtab, v)
        for v in symtab.valuations()
    )


# ---------------------------------------------------------------------------
# Atoms


@node
class QuiescentAtom:
    cond: Expr
    trace: TraceExpr
    accept: EventSetExpr

    def __str__(self) -> str:
        return (
            f"E({pp_expr(self.cond)} | {pp_trace(self.trace)} | {self.accept})"
        )


@node
class FinalAtom:
    cond: Expr
    subst: Subst
    trace: TraceExpr

    def __str__(self) -> str:
        return f"Phi({pp_expr(self.cond)} | {self.subst} | {pp_trace(self.trace)})"


Atom = Union[QuiescentAtom, FinalAtom]


def quiescent(cond: Expr, trace: TraceExpr, accept: EventSetExpr) -> QuiescentAtom:
    return QuiescentAtom(fold(cond), fold_trace(trace), accept)


def final(cond: Expr, subst: Subst, trace: TraceExpr) -> FinalAtom:
    return FinalAtom(fold(cond), subst, fold_trace(trace))


UNIT_FINAL = FinalAtom(TRUE, IDENTITY, ())


def is_unit_final(a: Atom) -> bool:
    return (
        isinstance(a, FinalAtom)
        and a.cond == TRUE
        and a.subst.is_identity()
        and not a.trace
    )


# ---------------------------------------------------------------------------
# Relation nodes


@node
class RFalse:
    def __str__(self) -> str:
        return "false"


@node
class RTrue:
    def __str__(self) -> str:
        return "true_r"


@node
class RAtom:
    atom: Atom

    def __str__(self) -> str:
        return str(self.atom)


@node
class ROr:
    args: tuple

    def __str__(self) -> str:
        return " \\/ ".join(
            f"({a})" if isinstance(a, RSeq) else str(a)
            for a in self.args
        )


@node
class RSeq:
    first: "RRel"
    second: "RRel"

    def __str__(self) -> str:
        parts = [
            f"({p})" if isinstance(p, ROr) else str(p)
            for p in seq_items(self)
        ]
        return " ; ".join(parts)


@node
class RStar:
    body: "RRel"

    def __str__(self) -> str:
        return f"({self.body})star"


RRel = Union[RFalse, RTrue, RAtom, ROr, RSeq, RStar]

FALSE_R = RFalse()
TRUE_R = RTrue()
UNIT_R = RAtom(UNIT_FINAL)


def seq_items(r: RRel) -> list:
    if isinstance(r, RSeq):
        return seq_items(r.first) + seq_items(r.second)
    return [r]


def seq_of(items: list) -> RRel:
    if not items:
        return UNIT_R
    out = items[-1]
    for x in reversed(items[:-1]):
        out = RSeq(x, out)
    return out


def or_of(args: list) -> RRel:
    if not args:
        return FALSE_R
    if len(args) == 1:
        return args[0]
    return ROr(tuple(args))


def disjuncts(r: RRel) -> list:
    if isinstance(r, ROr):
        return list(r.args)
    if isinstance(r, RFalse):
        return []
    return [r]


# ---------------------------------------------------------------------------
# Composition rules


def atom_cond(cond: Expr, symtab: SymbolTable) -> Optional[Expr]:
    """The condition an atom carries in normal form.

    None when ``cond`` holds in no state (the atom denotes nothing),
    ``TRUE`` when it holds in every state, and the folded condition
    otherwise.  One pass over the valuations decides both extremes.
    """
    cond = fold(cond)
    if isinstance(cond, Lit):
        return TRUE if cond.value else None
    seen_true = seen_false = False
    for v in symtab.valuations():
        if eval_expr(cond, v):
            seen_true = True
        else:
            seen_false = True
        if seen_true and seen_false:
            return cond
    return TRUE if seen_true else None


def seq_final_final(
    f1: FinalAtom, f2: FinalAtom, symtab: SymbolTable
) -> Optional[FinalAtom]:
    """Compose two terminated observations; None when the result is empty."""
    cond = atom_cond(conj(f1.cond, apply_subst(f1.subst, f2.cond)), symtab)
    if cond is None:
        return None
    return FinalAtom(
        cond,
        compose_subst(f1.subst, f2.subst),
        f1.trace + carry_trace(subst_trace(f1.subst, f2.trace), symtab),
    )


def seq_final_quiescent(
    f: FinalAtom, q: QuiescentAtom, symtab: SymbolTable
) -> Optional[QuiescentAtom]:
    """Compose a terminated observation with a following quiescent one."""
    cond = atom_cond(conj(f.cond, apply_subst(f.subst, q.cond)), symtab)
    if cond is None:
        return None
    return QuiescentAtom(
        cond,
        f.trace + carry_trace(subst_trace(f.subst, q.trace), symtab),
        canon_set(subst_set(f.subst, q.accept), symtab),
    )


def merge_cond(r1: RRel, c: Expr, r2: RRel, symtab: SymbolTable) -> RRel:
    """Conditional of two relations in normal form: pointwise for two
    same-kind atoms whose traces align, and the guarded disjunction
    otherwise.  Atoms of two kinds do not merge (`KindMismatchError`).
    """
    c = fold(c)
    if cond_is_true(c, symtab):
        return r1
    if cond_is_false(c, symtab):
        return r2
    a1 = r1.atom if isinstance(r1, RAtom) else None
    a2 = r2.atom if isinstance(r2, RAtom) else None
    if a1 is not None and a2 is not None and type(a1) is not type(a2):
        raise KindMismatchError(f"cannot merge {a1} with {a2}")
    if (
        a1 is not None
        and a2 is not None
        and len(a1.trace) == len(a2.trace)
        and all(x.chan == y.chan for x, y in zip(a1.trace, a2.trace))
    ):
        cond = fold(IfE(c, a1.cond, a2.cond))
        trace = tuple(
            EventTerm(x.chan, _cond_data(c, x.data, y.data))
            for x, y in zip(a1.trace, a2.trace)
        )
        if isinstance(a1, FinalAtom):
            mapping = {}
            for n in a1.subst.domain() | a2.subst.domain():
                mapping[n] = fold(IfE(c, a1.subst.get(n), a2.subst.get(n)))
            return normalize(
                RAtom(final(cond, subst_of(mapping), trace)), symtab
            )
        if isinstance(a1, QuiescentAtom):
            accept = canon_set(
                conditional_set(c, a1.accept, a2.accept), symtab
            )
            return normalize(RAtom(quiescent(cond, trace, accept)), symtab)
    return join_or(
        [guard_rrel(c, r1, symtab), guard_rrel(negate(c), r2, symtab)],
        symtab,
    )


def _cond_data(c: Expr, d1: Optional[Expr], d2: Optional[Expr]) -> Optional[Expr]:
    if d1 is None and d2 is None:
        return None
    return fold(IfE(c, d1, d2))


def state_test(cond: Expr) -> RAtom:
    """The test [b]: the terminated atom Phi(b | id | <>)."""
    return RAtom(final(cond, IDENTITY, ()))


def guard_rrel(cond: Expr, r: RRel, symtab: SymbolTable) -> RRel:
    """Conjoin an initial-state condition: b /\\ P as a reactive relation,
    of P in normal form."""
    return join_seq([normalize(state_test(cond), symtab), r], symtab)


def conj_quiescent(atoms: list, symtab: SymbolTable) -> QuiescentAtom:
    """Conjunction of quiescent observations sharing one trace expression."""
    if not atoms:
        raise TraceMismatchError("empty conjunction of quiescent observations")
    base = atoms[0]
    for a in atoms[1:]:
        if not traces_equiv(base.trace, a.trace, symtab):
            raise TraceMismatchError(
                f"traces differ: {pp_trace(base.trace)} vs {pp_trace(a.trace)}"
            )
    cond = conj(*(a.cond for a in atoms))
    accept = canon_set(union_sets(*(a.accept for a in atoms)), symtab)
    return quiescent(cond, base.trace, accept)


def conj_offers(offers: list, symtab: SymbolTable) -> RRel:
    """Conjunction of offers, each a disjunction of quiescent observations,
    all on one trace expression: one `conj_quiescent` atom per combination
    of the offers' atoms, which raises `TraceMismatchError` where the
    traces differ."""
    combos = itertools.product(*(disjuncts(o) for o in offers))
    return normalize(or_of([
        RAtom(conj_quiescent([d.atom for d in combo], symtab))
        for combo in combos
    ]), symtab)


# ---------------------------------------------------------------------------
# Trace filters (strictly-increasing / unchanged trace), which split a
# pericondition for external choice


def filter_r4(r: RRel) -> RRel:
    """Keep only the observations of a normal form that strictly extend
    the trace."""
    return _filter(r, keep_empty=False)


def filter_r5(r: RRel) -> RRel:
    """Keep only the observations of a normal form that leave the trace
    unchanged."""
    return _filter(r, keep_empty=True)


def _filter(r: RRel, keep_empty: bool) -> RRel:
    if isinstance(r, RFalse):
        return FALSE_R
    if isinstance(r, ROr):
        out = [_filter(a, keep_empty) for a in r.args]
        return or_of([a for a in out if not isinstance(a, RFalse)])
    if isinstance(r, RAtom):
        empty = len(r.atom.trace) == 0
        if empty == keep_empty:
            return r
        return FALSE_R
    raise NormalizationIncomplete(
        "external choice over a non-literal pericondition"
    )


# ---------------------------------------------------------------------------
# Preconditions: conjunctions of negated initial conditions


@node
class NegClause:
    cond: Expr
    trace: TraceExpr

    def __str__(self) -> str:
        return f"not I({pp_expr(self.cond)} | {pp_trace(self.trace)})"


@node
class PreNF:
    """Precondition normal form: a conjunction of negated-init clauses.

    The empty conjunction is the true (divergence-free) precondition; the
    false precondition is the single clause over the empty trace.
    """

    clauses: tuple

    def is_true(self) -> bool:
        return not self.clauses

    def __str__(self) -> str:
        if not self.clauses:
            return "true_r"
        return " /\\ ".join(str(c) for c in self.clauses)


TRUE_PRE = PreNF(())


def pre_of(clauses: list, symtab: SymbolTable) -> PreNF:
    out = []
    for c in clauses:
        cond = fold(c.cond)
        if cond_is_false(cond, symtab):
            continue
        clause = NegClause(cond, carry_trace(c.trace, symtab))
        if not any(
            _clauses_equiv(clause, seen, symtab) for seen in out
        ):
            out.append(clause)
    return PreNF(tuple(sorted(out, key=str)))


def _clauses_equiv(a: NegClause, b: NegClause, symtab: SymbolTable) -> bool:
    return exprs_equiv(a.cond, b.cond, symtab) and traces_equiv(
        a.trace, b.trace, symtab
    )


def and_pre(p1: PreNF, p2: PreNF, symtab: SymbolTable) -> PreNF:
    return pre_of(list(p1.clauses) + list(p2.clauses), symtab)


def guard_pre(cond: Expr, p: PreNF, symtab: SymbolTable) -> PreNF:
    """The precondition b => P: the guard joins every clause's condition."""
    return pre_of(
        [NegClause(conj(cond, c.cond), c.trace) for c in p.clauses], symtab
    )


def wp_final(f: FinalAtom, p: PreNF, symtab: SymbolTable) -> PreNF:
    """Weakest precondition of one terminated observation against a
    precondition in clause form; closed under the clause representation."""
    clauses = []
    for c in p.clauses:
        cond = conj(f.cond, apply_subst(f.subst, c.cond))
        trace = f.trace + subst_trace(f.subst, c.trace)
        clauses.append(NegClause(cond, trace))
    return pre_of(clauses, symtab)


def wp_or_final(r: RRel, p: PreNF, symtab: SymbolTable) -> PreNF:
    """wp of a disjunction of terminated observations: the conjunction of
    the member weakest preconditions."""
    if p.is_true():
        return TRUE_PRE
    out = TRUE_PRE
    for d in disjuncts(r):
        if isinstance(d, RAtom) and isinstance(d.atom, FinalAtom):
            out = and_pre(out, wp_final(d.atom, p, symtab), symtab)
        else:
            raise NormalizationIncomplete(
                f"weakest precondition over a non-terminated disjunct: {d}"
            )
    return out


# ---------------------------------------------------------------------------
# Normaliser


def normalize(r: RRel, symtab: SymbolTable) -> RRel:
    """Reduce a raw term to disjunctive atom form where possible.

    This is the entry for terms built from raw parts: it normalises every
    atom and sub-term, then joins them (`join_or`, `join_seq`,
    `join_star`), which take parts already in normal form.

    Idempotent: a second pass returns its input unchanged.  What makes the
    form canonical: an atom's condition is never a non-literal that holds
    in every state or in none (``atom_cond``), and no two atoms of one
    disjunction differ only in their condition.  Iteration nodes are
    preserved as explicit barriers rather than guessed at.
    """
    if isinstance(r, (RFalse, RTrue)):
        return r
    if isinstance(r, RAtom):
        a = r.atom
        cond = atom_cond(a.cond, symtab)
        if cond is None:
            return FALSE_R
        trace = carry_trace(a.trace, symtab)
        if isinstance(a, QuiescentAtom):
            return RAtom(
                QuiescentAtom(cond, trace, canon_set(a.accept, symtab))
            )
        return RAtom(FinalAtom(cond, a.subst, trace))
    if isinstance(r, ROr):
        parts = []
        for a in r.args:
            n = normalize(a, symtab)
            if isinstance(n, RTrue):
                return TRUE_R
            parts.append(n)
        return join_or(parts, symtab)
    if isinstance(r, RSeq):
        parts = []
        for x in seq_items(r):
            n = normalize(x, symtab)
            if isinstance(n, RFalse):
                return FALSE_R
            parts.append(n)
        return join_seq(parts, symtab)
    if isinstance(r, RStar):
        return join_star(normalize(r.body, symtab), symtab)
    raise TypeError(f"not a reactive relation: {r!r}")


def join_or(parts: list, symtab: SymbolTable) -> RRel:
    """The normal form of the disjunction of `parts`, each already in
    normal form; `normalize` of an `ROr` of them, without normalising
    them again."""
    flat = []
    for n in parts:
        if isinstance(n, RTrue):
            return TRUE_R
        flat.extend(disjuncts(n))
    return _merge_disjuncts([(str(d), d) for d in flat], symtab)


def _merge_disjuncts(ds: list, symtab: SymbolTable) -> RRel:
    """Disjoin normal-form disjuncts, each given with its printed form,
    merging atoms that differ at most in their condition, in the order
    given: an atom whose condition is equivalent to that of an earlier atom
    of the same shape is dropped, and otherwise the two conditions are
    disjoined.  The result is in printed order."""
    merged: list = []
    for key, d in ds:
        if isinstance(d, RAtom):
            for i, (_, seen) in enumerate(merged):
                if isinstance(seen, RAtom) and _same_shape(
                        seen.atom, d.atom, symtab):
                    a, b = seen.atom, d.atom
                    if exprs_equiv(a.cond, b.cond, symtab):
                        break
                    # both disjuncts are normal, so satisfiable: atom_cond
                    # is never None
                    cond = atom_cond(disj(a.cond, b.cond), symtab)
                    m = RAtom(
                        final(cond, a.subst, a.trace)
                        if isinstance(a, FinalAtom)
                        else quiescent(cond, a.trace, a.accept))
                    merged[i] = (str(m), m)
                    break
            else:
                merged.append((key, d))
        elif not any(d == seen for _, seen in merged):
            merged.append((key, d))
    merged.sort(key=_FIRST)
    return or_of([d for _, d in merged])


def _same_shape(a: Atom, b: Atom, symtab: SymbolTable) -> bool:
    """Do two atoms coincide in everything but their condition?"""
    if type(a) is not type(b) or not traces_equiv(a.trace, b.trace, symtab):
        return False
    if isinstance(a, FinalAtom):
        return substs_equiv(a.subst, b.subst, symtab)
    return sets_equiv(a.accept, b.accept, symtab)


def join_seq(parts: list, symtab: SymbolTable) -> RRel:
    """The normal form of the sequential composition of `parts`, each
    already in normal form; `normalize` of an `RSeq` of them, without
    normalising them again."""
    items = []
    for n in parts:
        if isinstance(n, RFalse):
            return FALSE_R
        items.extend(seq_items(n))

    out: list = []
    acc: Optional[list] = None  # pending disjunction of FinalAtoms

    def flush():
        nonlocal acc
        if acc is not None:
            out.append(_merge_atoms(acc, symtab))
            acc = None

    for item in items:
        if _ends_quiescent(out) and acc is None:
            raise NormalizationIncomplete(
                "quiescent observation on the left of a composition"
            )
        kinds = _disjunct_kinds(item)
        if kinds == "final":
            finals = [d.atom for d in disjuncts(item)]
            if acc is None:
                acc = finals
            else:
                acc = [
                    c
                    for f1 in acc
                    for f2 in finals
                    if (c := _then_final(f1, f2, symtab)) is not None
                ]
                if not acc:
                    return FALSE_R
        elif kinds == "quiescent":
            if acc is None:
                out.append(item)
            else:
                composed = [
                    c
                    for f in acc
                    for d in disjuncts(item)
                    if (c := _then_quiescent(f, d.atom, symtab)) is not None
                ]
                acc = None
                if not composed:
                    return FALSE_R
                out.append(_merge_atoms(composed, symtab))
        else:
            flush()
            out.append(item)

    flush()
    if not out:
        return UNIT_R
    # a unit relation composed around barriers disappears
    out = [
        x
        for x in out
        if not (isinstance(x, RAtom) and is_unit_final(x.atom))
        or len(out) == 1
    ]
    if len(out) == 1:
        return out[0]
    return seq_of(out)


def _merge_atoms(atoms: list, symtab: SymbolTable) -> RRel:
    # merge in printed order, the order a second pass sees them in
    keyed = [(str(d), d) for d in map(RAtom, atoms)]
    keyed.sort(key=_FIRST)
    return _merge_disjuncts(keyed, symtab)


def _then_cond(c1: Expr, c2: Expr, symtab: SymbolTable) -> Optional[Expr]:
    """The normal condition of c1 and then, with the state unchanged, c2,
    both normal conditions; None when no state satisfies both."""
    if c1 == TRUE:
        return c2
    if c2 == TRUE:
        return c1
    return atom_cond(conj(c1, c2), symtab)


def _then_final(
    f1: FinalAtom, f2: FinalAtom, symtab: SymbolTable
) -> Optional[FinalAtom]:
    """`seq_final_final` of two atoms in normal form.  After an identity
    update the second atom's update and carried trace stay as they are."""
    if not f1.subst.is_identity():
        return seq_final_final(f1, f2, symtab)
    cond = _then_cond(f1.cond, f2.cond, symtab)
    if cond is None:
        return None
    return FinalAtom(cond, f2.subst, f1.trace + f2.trace)


def _then_quiescent(
    f: FinalAtom, q: QuiescentAtom, symtab: SymbolTable
) -> Optional[QuiescentAtom]:
    """`seq_final_quiescent` of two atoms in normal form.  After an
    identity update the quiescent atom's carried trace and canonical
    accepted set stay as they are."""
    if not f.subst.is_identity():
        return seq_final_quiescent(f, q, symtab)
    cond = _then_cond(f.cond, q.cond, symtab)
    if cond is None:
        return None
    return QuiescentAtom(cond, f.trace + q.trace, q.accept)


def _ends_quiescent(out: list) -> bool:
    if not out:
        return False
    last = out[-1]
    return _disjunct_kinds(last) == "quiescent"


def _disjunct_kinds(r: RRel) -> str:
    ds = disjuncts(r)
    if ds and all(
        isinstance(d, RAtom) and isinstance(d.atom, FinalAtom) for d in ds
    ):
        return "final"
    if ds and all(
        isinstance(d, RAtom) and isinstance(d.atom, QuiescentAtom) for d in ds
    ):
        return "quiescent"
    return "other"


def join_star(body: RRel, symtab: SymbolTable) -> RRel:
    """The normal form of the iteration of `body`, already in normal form;
    `normalize` of an `RStar` of it, without normalising it again."""
    if isinstance(body, RFalse):
        return UNIT_R
    # state tests and the unit are absorbed by the implicit unit of iteration
    ds = [
        d
        for d in disjuncts(body)
        if not (
            isinstance(d, RAtom)
            and isinstance(d.atom, FinalAtom)
            and d.atom.subst.is_identity()
            and not d.atom.trace
        )
    ]
    if not ds:
        return UNIT_R
    if len(ds) != len(disjuncts(body)):
        body = or_of(ds)
    if isinstance(body, RStar):
        return body
    return RStar(body)


# ---------------------------------------------------------------------------
# Substitution over relations (assignment distribution)


def subst_rrel(s: Subst, r: RRel, symtab: SymbolTable) -> RRel:
    """Distribute a state update into a relation's initial state."""
    if s.is_identity():
        return normalize(r, symtab)
    return normalize(RSeq(RAtom(final(TRUE, s, ())), r), symtab)


def subst_pre(s: Subst, p: PreNF, symtab: SymbolTable) -> PreNF:
    return pre_of(
        [
            NegClause(apply_subst(s, c.cond), subst_trace(s, c.trace))
            for c in p.clauses
        ],
        symtab,
    )


# ---------------------------------------------------------------------------
# Reads and writes: a def-use analysis over relations


def trace_vars(t: TraceExpr) -> frozenset:
    """The state variables a trace expression's event data read."""
    return frozenset().union(
        *(free_vars(e.data) for e in t if e.data is not None))


def set_vars(es: EventSetExpr) -> frozenset:
    """The state variables an event-set expression's guards and singleton
    data read."""
    guards = [p.guard for p in es.parts if p.guard is not None]
    terms = tuple(p.term for p in es.parts if isinstance(p, SingletonPart))
    return trace_vars(terms).union(*map(free_vars, guards))


def reads_writes(r: RRel, variables: frozenset) -> tuple:
    """(reads, writes) of a relation over `variables`: from initial states
    that agree on `reads` it has the same quiescent instances, and from
    states that also agree on variables X outside `writes` its terminated
    instances agree on X.  With no terminated instance it writes every
    variable."""
    if isinstance(r, RFalse):
        return frozenset(), variables
    if isinstance(r, RTrue):
        return variables, frozenset()
    if isinstance(r, RAtom):
        a = r.atom
        reads = free_vars(a.cond) | trace_vars(a.trace)
        if isinstance(a, QuiescentAtom):
            return reads | set_vars(a.accept), variables
        reads = reads.union(*(free_vars(x) for _, x in a.subst.entries))
        return reads, a.subst.domain()
    if isinstance(r, RSeq):
        r1, w1 = reads_writes(r.first, variables)
        r2, w2 = reads_writes(r.second, variables)
        return r1 | (r2 - w1), w1 | w2
    if isinstance(r, RStar):
        return reads_writes(r.body, variables)[0], frozenset()
    if isinstance(r, ROr):
        reads, writes = frozenset(), variables
        for x in r.args:
            rx, wx = reads_writes(x, variables)
            reads, writes = reads | rx, writes & wx
        return reads, writes
    raise TypeError(f"not a reactive relation: {r!r}")


def depends(r, kind: str, variables: frozenset) -> frozenset:
    """The variables whose initial value can change what `r`, a precondition
    or a relation on a `kind` side, gives or allows: a precondition's
    conditions and trace data, a relation's reads, and on a post side also
    what the relation leaves unwritten, since its final states carry it."""
    if isinstance(r, PreNF):
        return frozenset().union(
            *(free_vars(c.cond) | trace_vars(c.trace) for c in r.clauses))
    reads, writes = reads_writes(r, variables)
    return reads if kind == "peri" else reads | (variables - writes)


# ---------------------------------------------------------------------------
# Trace growth: what every terminated observation does to the trace


def productive(r: RRel) -> bool:
    """Does every terminated observation of `r` extend the trace?  Read off
    the structure: an iteration (zero passes), an atom with an empty trace
    or the universal relation may keep it."""
    return _every_final(r, extends=True)


def silent(r: RRel) -> bool:
    """Does every terminated observation of `r` keep the trace?"""
    return _every_final(r, extends=False)


def _every_final(r: RRel, extends: bool) -> bool:
    """Does every terminated observation of `r` extend (or keep) the trace?
    A relation with none, such as a quiescent atom, does both."""
    if isinstance(r, RFalse):
        return True
    if isinstance(r, RTrue):
        return False
    if isinstance(r, RAtom):
        a = r.atom
        return isinstance(a, QuiescentAtom) or bool(a.trace) == extends
    if isinstance(r, RStar):
        return not extends and _every_final(r.body, extends)
    if isinstance(r, RSeq):
        # one extending part extends the whole; keeping it takes both
        parts = (_every_final(r.first, extends),
                 _every_final(r.second, extends))
        return any(parts) if extends else all(parts)
    if isinstance(r, ROr):
        return all(_every_final(x, extends) for x in r.args)
    raise TypeError(f"not a reactive relation: {r!r}")


# ---------------------------------------------------------------------------
# JSON views


def rrel_to_json(r: RRel):
    if isinstance(r, RFalse):
        return {"kind": "false"}
    if isinstance(r, RTrue):
        return {"kind": "true"}
    if isinstance(r, RAtom):
        return atom_to_json(r.atom)
    if isinstance(r, ROr):
        return {"kind": "or", "args": [rrel_to_json(a) for a in r.args]}
    if isinstance(r, RSeq):
        return {"kind": "seq", "items": [rrel_to_json(x) for x in seq_items(r)]}
    if isinstance(r, RStar):
        return {"kind": "star", "body": rrel_to_json(r.body)}
    raise TypeError(f"not a reactive relation: {r!r}")


def atom_to_json(a: Atom):
    if isinstance(a, QuiescentAtom):
        return {
            "kind": "quiescent",
            "cond": pp_expr(a.cond),
            "trace": pp_trace(a.trace),
            "accept": str(a.accept),
        }
    return {
        "kind": "final",
        "cond": pp_expr(a.cond),
        "subst": str(a.subst),
        "trace": pp_trace(a.trace),
    }


def pre_to_json(p: PreNF):
    return [
        {"cond": pp_expr(c.cond), "trace": pp_trace(c.trace)}
        for c in p.clauses
    ]
