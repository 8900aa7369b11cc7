"""Reactive contracts ⦗pre | peri | post⦘ and their calculus.

A contract is a triple of reactive relations: the precondition (a
conjunction of negated initial conditions, characterising divergence
freedom), the pericondition (quiescent observations), and the postcondition
(terminated observations).  Programs denote contracts; the constructors and
combinators here calculate that denotation bottom-up, and a relation taken
from a contract is already in normal form.  The constructors build atoms
that are normal as they stand.  The combinators join their operands'
relations with `relalg.join_or`, `join_seq` and `join_star`, which take
parts already in normal form and do not normalise them again; only what a
combinator builds raw, such as a state test or the combined offers of
`conj_offers`, goes through `relalg.normalize`.

Nothing else is stored.  Whether a contract is productive (every
terminated observation extends the trace) or instantaneous (no quiescent
observation, and every terminated one keeps the trace) is read off its
relations (`relalg.productive`, `relalg.silent`).  `loop_parts` is the one
loop calculation: it decides whether a loop's fixed point is guarded (its
body is productive), and it gives the loop's precondition, guarded step
and guarded pause to both the calculator and the loop-invariant rule.
"""

from __future__ import annotations

from . import dsl
from .kleene import WP_BOUND, WpNotConvergedError, star_wp
from .relalg import (
    EMPTY_SET,
    EventTerm,
    FALSE_R,
    NegClause,
    PreNF,
    RAtom,
    RRel,
    RSeq,
    RStar,
    TRUE_PRE,
    and_pre,
    canon_set,
    conj_offers,
    event_set,
    filter_r4,
    filter_r5,
    final,
    fold_event,
    guard_pre,
    guard_rrel,
    join_or,
    join_seq,
    join_star,
    merge_cond,
    normalize,
    pre_of,
    pre_to_json,
    productive,
    quiescent,
    rrel_to_json,
    seq_items,
    silent,
    state_test,
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
    node,
)

_EMPTY_TAB = SymbolTable({}, {})


class EmptyIndexError(Exception):
    pass


class NotProductiveError(Exception):
    pass


@node
class Contract:
    """A contract, or a specification whose peri- or postcondition may be
    an invariant (`verify.InvariantRel`) instead of a relation."""

    pre: PreNF
    peri: RRel
    post: RRel

    @property
    def productive(self) -> bool:
        return productive(self.post)

    @property
    def instantaneous(self) -> bool:
        return self.peri == FALSE_R and silent(self.post)

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


# ---------------------------------------------------------------------------
# Basic constructors


def skip_c() -> Contract:
    return Contract(TRUE_PRE, FALSE_R, RAtom(final(TRUE, IDENTITY, ())))


def stop_c() -> Contract:
    """Deadlock: quiescent with nothing accepted, no termination."""
    return Contract(TRUE_PRE, RAtom(quiescent(TRUE, (), EMPTY_SET)), FALSE_R)


def chaos_c() -> Contract:
    """Divergence from the start: the bottom of the contract lattice."""
    return Contract(
        pre_of([NegClause(TRUE, ())], _EMPTY_TAB), FALSE_R, FALSE_R
    )


def miracle_c() -> Contract:
    """The infeasible top: refines everything, never observed."""
    return Contract(TRUE_PRE, FALSE_R, FALSE_R)


def assign_c(s: Subst) -> Contract:
    return Contract(TRUE_PRE, FALSE_R, RAtom(final(TRUE, s, ())))


def do_c(e: EventTerm, symtab: SymbolTable) -> Contract:
    e = fold_event(e, symtab)
    return Contract(
        TRUE_PRE,
        RAtom(quiescent(TRUE, (), canon_set(event_set(e), symtab))),
        RAtom(final(TRUE, IDENTITY, (e,))),
    )


# ---------------------------------------------------------------------------
# Combinators


def seq_contract(
    c1: Contract, c2: Contract, symtab: SymbolTable, wp_bound: int = WP_BOUND
) -> Contract:
    """Sequential composition: the first must not violate the second's
    precondition; quiescence comes from either side."""
    pre = and_pre(c1.pre, _wp_rrel(c1.post, c2.pre, symtab, wp_bound), symtab)
    peri = join_or([c1.peri, join_seq([c1.post, c2.peri], symtab)], symtab)
    post = join_seq([c1.post, c2.post], symtab)
    return Contract(pre, peri, post)


def _wp_rrel(
    post: RRel, pre: PreNF, symtab: SymbolTable, wp_bound: int
) -> PreNF:
    """Weakest precondition of a normalised postcondition (which may be a
    chain around iteration nodes) against a clause set."""
    if pre.is_true():
        return TRUE_PRE
    if isinstance(post, RSeq):
        out = pre
        for item in reversed(seq_items(post)):
            out = _wp_rrel(item, out, symtab, wp_bound)
        return out
    if isinstance(post, RStar):
        res = star_wp(post.body, pre, symtab, wp_bound)
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
    peri = join_or([c.peri for c in cs], symtab)
    post = join_or([c.post for c in cs], symtab)
    return Contract(pre, peri, post)


def extchoice_contract(cs: list, symtab: SymbolTable) -> Contract:
    """External choice: while unresolved, every branch's quiescent offers
    combine; any trace-extending observation resolves the choice."""
    if not cs:
        raise EmptyIndexError("external choice over an empty index")
    pre = TRUE_PRE
    for c in cs:
        pre = and_pre(pre, c.pre, symtab)
    unresolved = conj_offers([filter_r5(c.peri) for c in cs], symtab)
    resolved = [filter_r4(c.peri) for c in cs]
    peri = join_or([unresolved] + resolved, symtab)
    post = join_or([c.post for c in cs], symtab)
    return Contract(pre, peri, post)


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
    peri = merge_cond(c1.peri, b, c2.peri, symtab)
    post = merge_cond(c1.post, b, c2.post, symtab)
    return Contract(pre, peri, post)


def while_contract(
    b: Expr, body: Contract, symtab: SymbolTable, wp_bound: int = WP_BOUND
) -> Contract:
    """Loop calculation.

    A vacuously false guard yields the identity; an always-true guard over
    an instantaneous, unproductive body runs forever without any
    observation, which is divergence.  Every other loop is the star of its
    guarded step (`loop_parts`).
    """
    if cond_is_false(b, symtab):
        return skip_c()
    if not body.productive and body.instantaneous and cond_is_true(b, symtab):
        return chaos_c()
    pre, step, pause = loop_parts(b, body, symtab, wp_bound)
    star = join_star(step, symtab)
    peri = join_seq([star, pause], symtab)
    post = join_seq([star, normalize(state_test(negate(b)), symtab)], symtab)
    return Contract(pre, peri, post)


def loop_parts(
    b: Expr, body: Contract, symtab: SymbolTable, wp_bound: int
) -> tuple:
    """(precondition, guarded step [b] ; body.post, guarded pause
    [b] ; body.peri) of `while b do body`.

    Unless the guard holds nowhere, the body must be productive, so that
    the fixed point is guarded; otherwise this raises `NotProductiveError`.
    The precondition is the body's under the guard, saturated over every
    number of steps; it raises `WpNotConvergedError` when `wp_bound`
    saturation steps do not settle it."""
    if not body.productive and not cond_is_false(b, symtab):
        raise NotProductiveError(
            "loop body admits a terminated observation without events"
        )
    step = guard_rrel(b, body.post, symtab)
    res = star_wp(step, guard_pre(b, body.pre, symtab), symtab, wp_bound)
    if not res.converged:
        raise WpNotConvergedError("loop precondition did not converge")
    return res.clauses, step, guard_rrel(b, body.peri, symtab)


# ---------------------------------------------------------------------------
# Program denotation


def calculate(tp: dsl.TypedProgram, wp_bound: int = WP_BOUND) -> Contract:
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
            wp_bound,
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
