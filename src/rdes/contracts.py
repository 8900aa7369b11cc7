"""Reactive contracts ⦗pre | peri | post⦘ and their calculus.

A contract is a triple of reactive relations: the precondition (a
conjunction of negated initial conditions, characterising divergence
freedom), the pericondition (quiescent observations), and the postcondition
(terminated observations).  Programs denote contracts; the constructors and
combinators here calculate that denotation bottom-up, keeping everything in
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import dsl
from .kleene import WpNotConvergedError, star_wp
from .relalg import (
    EMPTY_SET,
    EventTerm,
    FALSE_R,
    FinalAtom,
    KindMismatchError,
    NegClause,
    PreNF,
    RAnd,
    RAtom,
    ROr,
    RRel,
    RSeq,
    RStar,
    RTest,
    TRUE_PRE,
    and_pre,
    canon_set,
    disjuncts,
    event_set,
    filter_r4,
    filter_r5,
    final,
    guard_pre,
    guard_rrel,
    merge_cond,
    normalize,
    or_of,
    pre_of,
    pre_to_json,
    quiescent,
    rrel_to_json,
    seq_items,
    wp_or_final,
)
from .state import (
    Expr,
    IDENTITY,
    Subst,
    SymbolTable,
    TRUE,
    assignment_subst,
    cond_is_false,
    cond_is_true,
    negate,
)

_EMPTY_TAB = SymbolTable({}, {})


class EmptyIndexError(Exception):
    pass


class NotProductiveError(Exception):
    pass


@dataclass(frozen=True)
class Contract:
    pre: PreNF
    peri: RRel
    post: RRel
    productive: Optional[bool] = None  # None = unknown
    instantaneous: Optional[bool] = None

    def __str__(self) -> str:
        return f"⦗{self.pre} | {self.peri} | {self.post}⦘"

    def to_json(self):
        return {
            "pre": pre_to_json(self.pre),
            "peri": rrel_to_json(self.peri),
            "post": rrel_to_json(self.post),
            "productive": self.productive,
            "instantaneous": self.instantaneous,
        }


def contracts_equal(a: Contract, b: Contract) -> bool:
    """Structural equality of the normalised triples (flags are derived)."""
    return a.pre == b.pre and a.peri == b.peri and a.post == b.post


# ---------------------------------------------------------------------------
# Basic constructors


def skip_c() -> Contract:
    return Contract(
        TRUE_PRE,
        FALSE_R,
        RAtom(final(TRUE, IDENTITY, ())),
        productive=False,
        instantaneous=True,
    )


def stop_c() -> Contract:
    """Deadlock: quiescent with nothing accepted, no termination."""
    return Contract(
        TRUE_PRE,
        RAtom(quiescent(TRUE, (), EMPTY_SET)),
        FALSE_R,
        productive=True,
        instantaneous=False,
    )


def chaos_c() -> Contract:
    """Divergence from the start: the bottom of the contract lattice."""
    return Contract(
        pre_of([NegClause(TRUE, ())], _EMPTY_TAB),
        FALSE_R,
        FALSE_R,
        productive=True,
        instantaneous=True,
    )


def miracle_c() -> Contract:
    """The infeasible top: refines everything, never observed."""
    return Contract(
        TRUE_PRE, FALSE_R, FALSE_R, productive=True, instantaneous=True
    )


def assign_c(s: Subst) -> Contract:
    return Contract(
        TRUE_PRE,
        FALSE_R,
        RAtom(final(TRUE, s, ())),
        productive=False,
        instantaneous=True,
    )


def do_c(e: EventTerm, symtab: SymbolTable) -> Contract:
    return Contract(
        TRUE_PRE,
        RAtom(quiescent(TRUE, (), canon_set(event_set(e), symtab))),
        RAtom(final(TRUE, IDENTITY, (e,))),
        productive=True,
        instantaneous=False,
    )


# ---------------------------------------------------------------------------
# Combinators


def seq_contract(c1: Contract, c2: Contract, symtab: SymbolTable) -> Contract:
    """Sequential composition: the first must not violate the second's
    precondition; quiescence comes from either side."""
    pre = and_pre(c1.pre, _wp_rrel(c1.post, c2.pre, symtab), symtab)
    peri = normalize(ROr((c1.peri, RSeq(c1.post, c2.peri))), symtab)
    post = normalize(RSeq(c1.post, c2.post), symtab)
    productive = True if (c1.productive or c2.productive) else None
    instantaneous = (
        True if (c1.instantaneous and c2.instantaneous) else None
    )
    return classify(
        Contract(pre, peri, post, productive, instantaneous), symtab
    )


def _wp_rrel(post: RRel, pre: PreNF, symtab: SymbolTable) -> PreNF:
    """Weakest precondition of a normalised postcondition (which may be a
    chain around iteration nodes) against a clause set."""
    if pre.is_true():
        return TRUE_PRE
    post = normalize(post, symtab)
    if isinstance(post, RSeq):
        out = pre
        for item in reversed(seq_items(post)):
            out = _wp_rrel(item, out, symtab)
        return out
    if isinstance(post, RStar):
        res = star_wp(post.body, pre, symtab)
        if not res.converged:
            raise WpNotConvergedError(
                f"precondition saturation did not converge for {post}"
            )
        return res.clauses
    return wp_or_final(post, pre, symtab)


def intchoice_contract(cs: list, symtab: SymbolTable) -> Contract:
    if not cs:
        raise EmptyIndexError("internal choice over an empty index")
    pre = TRUE_PRE
    for c in cs:
        pre = and_pre(pre, c.pre, symtab)
    peri = normalize(or_of([c.peri for c in cs]), symtab)
    post = normalize(or_of([c.post for c in cs]), symtab)
    productive = True if all(c.productive for c in cs) else None
    return classify(Contract(pre, peri, post, productive), symtab)


def extchoice_contract(cs: list, symtab: SymbolTable) -> Contract:
    """External choice: while unresolved, every branch's quiescent offers
    combine; any trace-extending observation resolves the choice."""
    if not cs:
        raise EmptyIndexError("external choice over an empty index")
    pre = TRUE_PRE
    for c in cs:
        pre = and_pre(pre, c.pre, symtab)
    unresolved_parts = [filter_r5(c.peri, symtab) for c in cs]
    resolved_parts = [filter_r4(c.peri, symtab) for c in cs]
    unresolved = normalize(RAnd(tuple(unresolved_parts)), symtab)
    peri = normalize(or_of([unresolved] + resolved_parts), symtab)
    post = normalize(or_of([c.post for c in cs]), symtab)
    productive = True if all(c.productive for c in cs) else None
    return classify(Contract(pre, peri, post, productive), symtab)


def cond_contract(
    b: Expr, c1: Contract, c2: Contract, symtab: SymbolTable
) -> Contract:
    """Conditional: componentwise guarded combination, compacted to
    pointwise-conditional atoms where the shapes align."""
    if cond_is_true(b, symtab):
        return c1
    if cond_is_false(b, symtab):
        return c2
    pre = and_pre(
        guard_pre(b, c1.pre, symtab),
        guard_pre(negate(b), c2.pre, symtab),
        symtab,
    )
    peri = _cond_rrel(b, c1.peri, c2.peri, symtab)
    post = _cond_rrel(b, c1.post, c2.post, symtab)
    productive = (
        True if (c1.productive is True and c2.productive is True) else None
    )
    return classify(Contract(pre, peri, post, productive), symtab)


def _cond_rrel(b: Expr, r1: RRel, r2: RRel, symtab: SymbolTable) -> RRel:
    n1 = normalize(r1, symtab)
    n2 = normalize(r2, symtab)
    if isinstance(n1, RAtom) and isinstance(n2, RAtom):
        try:
            return merge_cond(n1, b, n2, symtab)
        except KindMismatchError:
            pass
    return normalize(
        ROr((guard_rrel(b, n1, symtab), guard_rrel(negate(b), n2, symtab))),
        symtab,
    )


def while_contract(
    b: Expr, body: Contract, symtab: SymbolTable, wp_bound: int = 16
) -> Contract:
    """Loop calculation.

    Requires a productive body so the fixed point is guarded.  A vacuously
    false guard yields the identity; an always-true guard over an
    instantaneous body runs forever without any observation, which is
    divergence.
    """
    if cond_is_false(b, symtab):
        return skip_c()
    body = classify(body, symtab)
    if body.productive is not True:
        if cond_is_true(b, symtab) and body.instantaneous is True:
            return chaos_c()
        raise NotProductiveError(
            "loop body admits a terminated observation without events"
        )
    step = normalize(RSeq(RTest(b), body.post), symtab)
    res = star_wp(step, guard_pre(b, body.pre, symtab), symtab, wp_bound)
    if not res.converged:
        raise WpNotConvergedError("loop precondition did not converge")
    star = normalize(RStar(step), symtab)
    peri = normalize(
        RSeq(star, normalize(RSeq(RTest(b), body.peri), symtab)), symtab
    )
    post = normalize(RSeq(star, RTest(negate(b))), symtab)
    return classify(Contract(res.clauses, peri, post), symtab)


# ---------------------------------------------------------------------------
# Classification


def classify(c: Contract, symtab: SymbolTable) -> Contract:
    """Derive productivity/instantaneity from the normal forms.

    Productive: every terminated observation strictly extends the trace.
    Instantaneous: no quiescent observations and trace-preserving
    termination.  Where the normal form is symbolic the structural flags
    carried by the combinators are kept; unknown stays unknown.
    """
    post = normalize(c.post, symtab)
    peri = normalize(c.peri, symtab)
    productive = c.productive
    instantaneous = c.instantaneous
    ds = disjuncts(post)
    literal_post = all(
        isinstance(d, RAtom) and isinstance(d.atom, FinalAtom) for d in ds
    )
    if literal_post:
        productive = all(len(d.atom.trace) > 0 for d in ds)
        if peri == FALSE_R:
            instantaneous = all(len(d.atom.trace) == 0 for d in ds)
        else:
            instantaneous = False
    elif peri != FALSE_R:
        instantaneous = False
    return Contract(c.pre, peri, post, productive, instantaneous)


# ---------------------------------------------------------------------------
# Program denotation


def calculate(tp: dsl.TypedProgram, wp_bound: int = 16) -> Contract:
    """Contract of a typechecked program by structural folding."""
    return _calc(tp.body, tp.symtab, wp_bound)


def _calc(a: dsl.Action, symtab: SymbolTable, wp_bound: int) -> Contract:
    if isinstance(a, dsl.Skip):
        return skip_c()
    if isinstance(a, dsl.Stop):
        return stop_c()
    if isinstance(a, dsl.Chaos):
        return chaos_c()
    if isinstance(a, dsl.Miracle):
        return miracle_c()
    if isinstance(a, dsl.Assign):
        return assign_c(assignment_subst({a.var: a.expr}, symtab))
    if isinstance(a, dsl.DoEvent):
        return do_c(EventTerm(a.chan, a.data), symtab)
    if isinstance(a, dsl.Seq):
        return seq_contract(
            _calc(a.first, symtab, wp_bound),
            _calc(a.second, symtab, wp_bound),
            symtab,
        )
    if isinstance(a, dsl.ExtChoice):
        return extchoice_contract(
            [_calc(b, symtab, wp_bound) for b in a.branches], symtab
        )
    if isinstance(a, dsl.IntChoice):
        return intchoice_contract(
            [_calc(b, symtab, wp_bound) for b in a.branches], symtab
        )
    if isinstance(a, dsl.Cond):
        return cond_contract(
            a.cond,
            _calc(a.then, symtab, wp_bound),
            _calc(a.other, symtab, wp_bound),
            symtab,
        )
    if isinstance(a, dsl.While):
        return while_contract(
            a.cond, _calc(a.body, symtab, wp_bound), symtab, wp_bound
        )
    if isinstance(a, (dsl.Guard, dsl.InputPrefix)):
        raise TypeError(
            "guards and input prefixes are desugared before calculation"
        )
    raise TypeError(f"not an action: {a!r}")
