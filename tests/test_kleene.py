"""Saturation, unfolding, and the iteration identities.

`unfold_star` is the reference for `star_wp`: a star's first powers,
written out."""

from rdes import ground
from rdes.kleene import star_wp
from rdes.laws import ka_laws_check
from rdes.relalg import (
    FALSE_R,
    NegClause,
    RAtom,
    ROr,
    RSeq,
    RStar,
    TRUE_PRE,
    UNIT_R,
    final,
    normalize,
    or_of,
    pre_of,
    wp_or_final,
)
from rdes.state import (
    BinOp,
    IDENTITY,
    IntType,
    Lit,
    SymbolTable,
    TRUE,
    Var,
    assignment_subst,
)


def unfold_star(r, k, symtab):
    """Disjunction of the first k+1 powers of the starred relations in r."""
    if isinstance(r, RStar):
        body = unfold_star(r.body, k, symtab)
        powers = [UNIT_R]
        for _ in range(k):
            powers.append(normalize(RSeq(powers[-1], body), symtab))
        return normalize(or_of(powers), symtab)
    if isinstance(r, RSeq):
        return normalize(
            RSeq(
                unfold_star(r.first, k, symtab),
                unfold_star(r.second, k, symtab),
            ),
            symtab,
        )
    if isinstance(r, ROr):
        return normalize(
            or_of([unfold_star(a, k, symtab) for a in r.args]), symtab
        )
    return normalize(r, symtab)


ATAB = SymbolTable({}, {"a": None})
XTAB = SymbolTable({"x": IntType(0, 3)}, {"a": None})


def aev():
    from rdes.relalg import EventTerm

    return EventTerm("a")


def phi_a():
    return RAtom(final(TRUE, IDENTITY, (aev(),)))


def test_star_wp_true_is_immediate():
    res = star_wp(phi_a(), TRUE_PRE, ATAB)
    assert res.converged and res.iterations == 0
    assert res.clauses == TRUE_PRE


def test_star_wp_subsumption_closes_uniform_clause():
    # the clause over the shorter trace forbids every extension, so the
    # saturation closes on it; enumeration over traces <= 4 agrees
    p = pre_of([NegClause(TRUE, (aev(), aev()))], ATAB)
    res = star_wp(phi_a(), p, ATAB)
    assert res.converged
    assert res.clauses == p
    # independent reading: wp fails exactly where the clause fails
    for n in range(5):
        tt = tuple([ATAB.alphabet()[0]] * n)
        got = all(
            ground.holds_pre_clause(c.cond, c.trace, ATAB.valuations()[0], tt, ATAB)
            for c in res.clauses.clauses
        )
        expect = not any(
            tt[k:][:2] == (ATAB.alphabet()[0],) * 2 for k in range(n + 1)
        )
        assert got == expect


def test_star_wp_state_dependent_saturation():
    # decrementing update: each step weakens the guarded clause until the
    # carrier floor makes it uniform, then subsumption closes the set
    dec = assignment_subst(
        {"x": BinOp("-", Var("x"), Lit(1))}, XTAB
    )
    body = RAtom(final(TRUE, dec, (aev(),)))
    p = pre_of([NegClause(BinOp("=", Var("x"), Lit(0)), ())], XTAB)
    res = star_wp(body, p, XTAB)
    assert res.converged
    assert len(res.clauses.clauses) == 4
    lengths = sorted(len(c.trace) for c in res.clauses.clauses)
    assert lengths == [0, 1, 2, 3]


def test_star_wp_nonconvergence_reported_at_small_bound():
    dec = assignment_subst({"x": BinOp("-", Var("x"), Lit(1))}, XTAB)
    body = RAtom(final(TRUE, dec, (aev(),)))
    p = pre_of([NegClause(BinOp("=", Var("x"), Lit(0)), ())], XTAB)
    res = star_wp(body, p, XTAB, bound=2)
    assert not res.converged
    assert res.iterations == 2


def test_star_wp_agrees_with_bounded_unfold():
    dec = assignment_subst({"x": BinOp("-", Var("x"), Lit(1))}, XTAB)
    body = RAtom(final(TRUE, dec, (aev(),)))
    p = pre_of([NegClause(BinOp("=", Var("x"), Lit(0)), ())], XTAB)
    saturated = star_wp(body, p, XTAB)
    assert saturated.converged
    bounded = wp_or_final(unfold_star(RStar(body), 4, XTAB), p, XTAB)
    for s in XTAB.valuations():
        for n in range(4):
            tt = tuple([XTAB.alphabet()[0]] * n)
            sat = all(
                ground.holds_pre_clause(c.cond, c.trace, s, tt, XTAB)
                for c in saturated.clauses.clauses
            )
            unf = all(
                ground.holds_pre_clause(c.cond, c.trace, s, tt, XTAB)
                for c in bounded.clauses
            )
            assert sat == unf


def test_subsumption_preserves_denotation():
    # dropping the subsumed clause leaves the conjunction unchanged
    strong = NegClause(TRUE, (aev(),))
    weak = NegClause(TRUE, (aev(), aev()))
    both = pre_of([strong, weak], ATAB)
    reduced = star_wp(FALSE_R, both, ATAB).clauses
    assert reduced.clauses == (strong,)
    s = ATAB.valuations()[0]
    for n in range(4):
        tt = tuple([ATAB.alphabet()[0]] * n)
        lhs = all(
            ground.holds_pre_clause(c.cond, c.trace, s, tt, ATAB)
            for c in both.clauses
        )
        rhs = all(
            ground.holds_pre_clause(c.cond, c.trace, s, tt, ATAB)
            for c in reduced.clauses
        )
        assert lhs == rhs


def test_unfold_star_powers():
    out = unfold_star(RStar(phi_a()), 2, ATAB)
    assert isinstance(out, ROr)
    traces = sorted(len(d.atom.trace) for d in out.args)
    assert traces == [0, 1, 2]


def test_unfold_star_of_false_is_unit():
    out = unfold_star(RStar(FALSE_R), 3, ATAB)
    assert out == RAtom(final(TRUE, IDENTITY, ()))


def test_unfold_matches_ground_iteration():
    dec = assignment_subst({"x": BinOp("-", Var("x"), Lit(1))}, XTAB)
    body = RAtom(final(TRUE, dec, (aev(),)))
    star = RStar(body)
    for s in XTAB.valuations():
        unfolded = unfold_star(star, 3, XTAB)
        lhs = ground.final_instances(unfolded, s, XTAB, 3)
        rhs = ground.final_instances(star, s, XTAB, 3)
        assert lhs == rhs


def test_ka_identities_on_event_atom():
    results = ka_laws_check(phi_a(), phi_a(), ATAB, depth=4)
    assert all(r["ok"] for r in results), results


def test_ka_identities_on_false():
    results = ka_laws_check(FALSE_R, phi_a(), ATAB, depth=3)
    assert all(r["ok"] for r in results), results


def test_ka_identities_on_mixed_terms():
    from rdes.state import SeqType

    tab = SymbolTable(
        {"bf": SeqType(IntType(0, 1), 2)},
        {"inp": IntType(0, 1), "out": IntType(0, 1)},
    )
    from rdes.relalg import EventTerm
    from rdes.state import Head, Len, Tail

    grow = assignment_subst(
        {"bf": BinOp("++", Var("bf"), Lit((1,)))}, tab
    )
    shrink = assignment_subst({"bf": Tail(Var("bf"))}, tab)
    x = or_of(
        [
            RAtom(final(TRUE, grow, (EventTerm("inp", Lit(1)),))),
            RAtom(
                final(
                    BinOp("<", Lit(0), Len(Var("bf"))),
                    shrink,
                    (EventTerm("out", Head(Var("bf"))),),
                )
            ),
        ]
    )
    y = RAtom(final(TRUE, IDENTITY, (EventTerm("inp", Lit(0)),)))
    results = ka_laws_check(x, y, tab, depth=3)
    assert all(r["ok"] for r in results), results
