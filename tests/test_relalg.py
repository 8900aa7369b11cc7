"""Atom composition rules, trace filters, wp, and the normaliser."""

import itertools
import typing

import pytest

from rdes.relalg import (
    EventTerm,
    FALSE_R,
    KindMismatchError,
    NegClause,
    NormalizationIncomplete,
    RAtom,
    RFalse,
    ROr,
    RRel,
    RSeq,
    RStar,
    RTrue,
    TRUE_PRE,
    TRUE_R,
    TraceMismatchError,
    UNIT_R,
    channel_image,
    conj_quiescent,
    event_set,
    filter_r4,
    filter_r5,
    final,
    ground_set,
    ground_trace,
    merge_cond,
    normalize,
    pre_of,
    productive,
    quiescent,
    reads_writes,
    seq_final_final,
    seq_final_quiescent,
    silent,
    state_test,
    subst_rrel,
    union_sets,
    guard_rrel,
    guarded_set,
    wp_final,
    wp_or_final,
)
from rdes.state import (
    BinOp,
    Head,
    IDENTITY,
    IntType,
    Len,
    Lit,
    SeqType,
    SymbolTable,
    Tail,
    TRUE,
    Var,
    assignment_subst,
    eval_expr,
    subst_of,
)

XTAB = SymbolTable({"x": IntType(0, 3)}, {"a": IntType(0, 3), "b": None})
BFTAB = SymbolTable(
    {"bf": SeqType(IntType(0, 1), 2)},
    {"inp": IntType(0, 1), "out": IntType(0, 1)},
)

NONEMPTY = BinOp("<", Lit(0), Len(Var("bf")))

X = Var("x")
INC = assignment_subst({"x": BinOp("+", X, Lit(1))}, XTAB)
AT_LEAST_1 = BinOp("<=", Lit(1), X)  # holds after INC in every state


def ev(chan, data=None):
    return EventTerm(chan, Lit(data) if data is not None else None)


def test_seq_final_final_threads_state_through_trace():
    f1 = final(TRUE, subst_of({"x": Lit(1)}), ())
    f2 = final(TRUE, IDENTITY, (EventTerm("a", Var("x")),))
    out = seq_final_final(f1, f2, XTAB)
    assert out == final(TRUE, subst_of({"x": Lit(1)}), (ev("a", 1),))


def test_seq_final_final_identity_units():
    f = final(NONEMPTY, IDENTITY, ())
    unit = final(TRUE, IDENTITY, ())
    assert seq_final_final(f, unit, BFTAB) == f
    assert seq_final_final(unit, f, BFTAB) == f


def test_seq_final_final_unsatisfiable_merge_is_none():
    # emptying the buffer and then requiring it non-empty denotes nothing
    f1 = final(TRUE, assignment_subst({"bf": Lit(())}, BFTAB), ())
    f2 = final(
        NONEMPTY,
        assignment_subst({"bf": Tail(Var("bf"))}, BFTAB),
        (EventTerm("out", Head(Var("bf"))),),
    )
    assert seq_final_final(f1, f2, BFTAB) is None


def test_seq_final_final_true_condition_becomes_literal():
    out = seq_final_final(
        final(TRUE, INC, ()), final(AT_LEAST_1, IDENTITY, ()), XTAB
    )
    assert out == final(TRUE, INC, ())


def test_seq_final_quiescent_substitutes_acceptance():
    f = final(TRUE, subst_of({"x": Lit(1)}), ())
    q = quiescent(TRUE, (), event_set(EventTerm("a", Var("x"))))
    out = seq_final_quiescent(f, q, XTAB)
    assert out == quiescent(TRUE, (), event_set(ev("a", 1)))


def test_seq_final_quiescent_keeps_symbolic_acceptance():
    f = final(
        TRUE,
        assignment_subst(
            {"bf": BinOp("++", Var("bf"), Lit((0,)))}, BFTAB
        ),
        (ev("inp", 0),),
    )
    q = quiescent(TRUE, (), event_set(EventTerm("out", Head(Var("bf")))))
    out = seq_final_quiescent(f, q, BFTAB)
    assert out.trace == (ev("inp", 0),)
    # acceptance now reads the extended buffer: check it on the ground
    for val in BFTAB.valuations():
        got = ground_set(out.accept, BFTAB, val)
        bf = val.get("bf")
        expected_head = (bf + (0,))[:2][0] if (bf + (0,))[:2] else 0
        assert got == frozenset(
            {BFTAB.ground_event("out", expected_head)}
        )


def test_seq_final_quiescent_true_condition_becomes_literal():
    q = quiescent(AT_LEAST_1, (ev("b"),), event_set(ev("a", 0)))
    out = seq_final_quiescent(final(TRUE, INC, ()), q, XTAB)
    assert out == quiescent(TRUE, (ev("b"),), event_set(ev("a", 0)))


def test_guard_rrel_unit_and_zero():
    p = RAtom(final(TRUE, IDENTITY, (ev("a", 1),)))
    assert guard_rrel(TRUE, p, XTAB) == p
    assert guard_rrel(Lit(False), p, XTAB) == FALSE_R


def test_guard_rrel_pushes_condition_into_atom():
    body = RAtom(
        final(
            TRUE,
            assignment_subst({"bf": Tail(Var("bf"))}, BFTAB),
            (EventTerm("out", Head(Var("bf"))),),
        )
    )
    out = guard_rrel(NONEMPTY, body, BFTAB)
    assert isinstance(out, RAtom)
    assert out.atom.cond == NONEMPTY
    assert out.atom.trace == (EventTerm("out", Head(Var("bf"))),)


def test_merge_cond_final_atoms():
    c = BinOp("=", Var("x"), Lit(0))
    r1 = RAtom(final(TRUE, subst_of({"x": Lit(1)}), ()))
    r2 = RAtom(final(TRUE, subst_of({"x": Lit(2)}), ()))
    out = merge_cond(r1, c, r2, XTAB)
    assert isinstance(out, RAtom)
    a = out.atom
    assert a.cond == TRUE
    # pointwise conditional on the update
    for val in XTAB.valuations():
        expect = 1 if val.get("x") == 0 else 2
        assert eval_expr(a.subst.get("x"), val) == expect


def test_merge_cond_trivial_guards():
    r1 = RAtom(final(TRUE, subst_of({"x": Lit(1)}), ()))
    r2 = RAtom(final(TRUE, subst_of({"x": Lit(2)}), ()))
    assert merge_cond(r1, TRUE, r2, XTAB) == r1
    assert merge_cond(r1, Lit(False), r2, XTAB) == r2


def test_merge_cond_quiescent_acceptance_becomes_conditional():
    c = NONEMPTY
    r1 = RAtom(
        quiescent(TRUE, (), event_set(EventTerm("out", Head(Var("bf")))))
    )
    r2 = RAtom(quiescent(TRUE, (), event_set()))
    out = merge_cond(r1, c, r2, BFTAB)
    assert isinstance(out, RAtom)
    a = out.atom
    assert a.cond == TRUE and a.trace == ()
    assert len(a.accept.parts) == 1
    assert a.accept.parts[0].guard == c
    for val in BFTAB.valuations():
        got = ground_set(a.accept, BFTAB, val)
        if val.get("bf"):
            assert got == frozenset(
                {BFTAB.ground_event("out", val.get("bf")[0])}
            )
        else:
            assert got == frozenset()


def test_merge_cond_kind_mismatch_rejected():
    r1 = RAtom(final(TRUE, IDENTITY, ()))
    r2 = RAtom(quiescent(TRUE, (), event_set()))
    with pytest.raises(KindMismatchError):
        merge_cond(r1, Var("x"), r2, XTAB)


def test_conj_quiescent_unions_acceptances():
    a1 = quiescent(TRUE, (), event_set(EventTerm("a", None)))
    a2 = quiescent(TRUE, (), event_set(EventTerm("c", None)))
    tab = SymbolTable({}, {"a": None, "c": None})
    out = conj_quiescent([a1, a2], tab)
    assert out == quiescent(
        TRUE, (), event_set(EventTerm("a"), EventTerm("c"))
    )


def test_conj_quiescent_singleton_and_empty_set():
    tab = SymbolTable({"x": IntType(0, 1)}, {"a": None})
    b = BinOp("=", Var("x"), Lit(1))
    a1 = quiescent(b, (), event_set())
    a2 = quiescent(TRUE, (), event_set(EventTerm("a")))
    out = conj_quiescent([a1, a2], tab)
    assert out.cond == b
    assert out.accept == event_set(EventTerm("a"))
    # both readings agree as predicates over (state, trace, acceptance)
    for val in tab.valuations():
        for acc in [frozenset(), frozenset(tab.alphabet())]:
            lhs = eval_expr(out.cond, val) and ground_set(
                out.accept, tab, val
            ) <= acc
            rhs = all(
                eval_expr(a.cond, val)
                and ground_set(a.accept, tab, val) <= acc
                for a in (a1, a2)
            )
            assert lhs == rhs


def test_conj_quiescent_trace_mismatch():
    a1 = quiescent(TRUE, (ev("a"),), event_set())
    a2 = quiescent(TRUE, (), event_set())
    with pytest.raises(TraceMismatchError):
        conj_quiescent([a1, a2], SymbolTable({}, {"a": None}))


def test_filters_on_atoms():
    tab = SymbolTable({"x": IntType(0, 1)}, {"a": None})
    empty_final = RAtom(final(TRUE, IDENTITY, ()))
    assert filter_r4(empty_final) == FALSE_R
    q0 = RAtom(quiescent(TRUE, (), event_set(EventTerm("a"))))
    assert filter_r5(q0) == q0


def test_filter_r5_keeps_unchanged_trace_disjunct():
    tab = SymbolTable({}, {"a": None, "b": None})
    q1 = RAtom(quiescent(TRUE, (ev("a"),), event_set(EventTerm("b"))))
    q2 = RAtom(quiescent(TRUE, (), event_set(EventTerm("a"))))
    r = ROr((q1, q2))
    assert filter_r5(r) == q2
    assert filter_r4(r) == q1


def test_filters_partition_literal_relations():
    tab = SymbolTable({"x": IntType(0, 1)}, {"a": IntType(0, 1)})
    atoms = [
        RAtom(final(TRUE, IDENTITY, ())),
        RAtom(final(TRUE, IDENTITY, (ev("a", 0),))),
        RAtom(quiescent(TRUE, (ev("a", 1),), event_set())),
    ]
    for n in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, n):
            r = ROr(tuple(combo))
            both = set()
            for part in (filter_r4(r), filter_r5(r)):
                if part == FALSE_R:
                    continue
                if isinstance(part, ROr):
                    both.update(part.args)
                else:
                    both.add(part)
            assert both == set(normalize(r, tab).args if isinstance(normalize(r, tab), ROr) else [normalize(r, tab)])


def test_wp_final_against_true_is_true():
    f = final(TRUE, subst_of({"x": Lit(1)}), ())
    assert wp_final(f, TRUE_PRE, XTAB) == TRUE_PRE


def test_wp_final_false_clause():
    # brute-force shadow: not (exists split of tt with the atom before a
    # violation) over traces of length <= 3
    f = final(TRUE, IDENTITY, (ev("a", 1),))
    out = wp_final(f, pre_of([NegClause(TRUE, ())], XTAB), XTAB)
    assert out.clauses == (NegClause(TRUE, (ev("a", 1),)),)
    alphabet = XTAB.alphabet()
    for val in XTAB.valuations():
        for n in range(0, 3):
            for tt in itertools.product(alphabet, repeat=n):
                holds = not any(
                    ground_trace(f.trace, XTAB, val) == tt[:k]
                    for k in range(len(tt) + 1)
                )
                clause = out.clauses[0]
                claim = not (
                    eval_expr(clause.cond, val)
                    and ground_trace(clause.trace, XTAB, val)
                    == tt[: len(clause.trace)]
                )
                assert claim == holds


def test_wp_final_vacuous_by_substitution():
    f = final(TRUE, subst_of({"x": Lit(1)}), ())
    p = pre_of([NegClause(BinOp("=", Var("x"), Lit(0)), (ev("b"),))], XTAB)
    tab = SymbolTable({"x": IntType(0, 3)}, {"b": None})
    assert wp_final(f, p, tab) == TRUE_PRE


def test_wp_distributes_over_disjunction():
    f1 = final(TRUE, IDENTITY, (ev("a", 0),))
    f2 = final(TRUE, IDENTITY, (ev("a", 1),))
    p = pre_of([NegClause(TRUE, ())], XTAB)
    out = wp_or_final(ROr((RAtom(f1), RAtom(f2))), p, XTAB)
    assert set(out.clauses) == {
        NegClause(TRUE, (ev("a", 0),)),
        NegClause(TRUE, (ev("a", 1),)),
    }


def test_normalize_example_chain():
    r = RSeq(
        RAtom(final(TRUE, subst_of({"x": Lit(1)}), ())),
        RSeq(
            RAtom(final(TRUE, IDENTITY, (EventTerm("a", Var("x")),))),
            RAtom(
                final(
                    TRUE,
                    subst_of({"x": BinOp("+", Var("x"), Lit(2))}),
                    (),
                )
            ),
        ),
    )
    out = normalize(r, XTAB)
    assert out == RAtom(final(TRUE, subst_of({"x": Lit(3)}), (ev("a", 1),)))


def test_normalize_idempotent():
    rels = [
        ROr((RAtom(final(TRUE, IDENTITY, ())), FALSE_R)),
        RSeq(state_test(NONEMPTY),
             RAtom(final(TRUE, IDENTITY, (ev("inp", 0),)))),
        RStar(RAtom(final(TRUE, IDENTITY, (ev("inp", 1),)))),
    ]
    for r in rels:
        once = normalize(r, BFTAB)
        assert normalize(once, BFTAB) == once
    # every path that builds an atom or a disjunction of atoms
    rels = [
        # seq_final_final: 1 <= clamp(x + 1) holds in every state
        RSeq(
            RAtom(final(TRUE, INC, ())),
            RAtom(final(AT_LEAST_1, IDENTITY, ())),
        ),
        # seq_final_quiescent: the same condition on a quiescent atom
        RSeq(
            RAtom(final(TRUE, INC, ())),
            RAtom(quiescent(AT_LEAST_1, (), event_set(ev("a", 0)))),
        ),
        # _merge_same_shape: x < 2 or 2 <= x holds in every state
        ROr(
            (
                RAtom(final(BinOp("<", X, Lit(2)), IDENTITY, ())),
                RAtom(final(BinOp("<=", Lit(2), X), IDENTITY, ())),
            )
        ),
        # two compositions that land on the same atom
        RSeq(
            ROr(
                (
                    RAtom(final(TRUE, subst_of({"x": Lit(1)}), ())),
                    RAtom(final(TRUE, subst_of({"x": Lit(2)}), ())),
                )
            ),
            RAtom(final(TRUE, subst_of({"x": Lit(0)}), ())),
        ),
        # an iteration whose body is an iteration once the unit is absorbed
        RStar(
            ROr(
                (
                    RStar(RAtom(final(TRUE, IDENTITY, (ev("a", 0),)))),
                    RAtom(final(TRUE, IDENTITY, ())),
                )
            )
        ),
    ]
    for r in rels:
        once = normalize(r, XTAB)
        assert normalize(once, XTAB) == once, str(r)


def test_normalize_or_units():
    a = RAtom(final(TRUE, IDENTITY, (ev("a", 0),)))
    assert normalize(ROr((FALSE_R, a)), XTAB) == a
    assert normalize(ROr((a, a)), XTAB) == a
    assert normalize(ROr((TRUE_R, a)), XTAB) == TRUE_R


def test_normalize_star_unit_collapse():
    assert normalize(RStar(FALSE_R), XTAB) == UNIT_R
    assert normalize(RStar(RAtom(final(TRUE, IDENTITY, ()))), XTAB) == UNIT_R


def test_normalize_seq_annihilation():
    a = RAtom(final(TRUE, IDENTITY, (ev("a", 0),)))
    assert normalize(RSeq(a, FALSE_R), XTAB) == FALSE_R
    assert normalize(RSeq(FALSE_R, a), XTAB) == FALSE_R
    assert normalize(RSeq(RStar(a), FALSE_R), XTAB) == FALSE_R


def test_normalize_quiescent_left_composition_rejected():
    q = RAtom(quiescent(TRUE, (), event_set(ev("a", 0))))
    f = RAtom(final(TRUE, IDENTITY, ()))
    with pytest.raises(NormalizationIncomplete):
        normalize(RSeq(q, f), XTAB)


def test_star_absorbs_state_tests():
    a = RAtom(final(TRUE, IDENTITY, (ev("inp", 0),)))
    t = RAtom(final(NONEMPTY, IDENTITY, ()))
    out = normalize(RStar(ROr((a, t))), BFTAB)
    assert out == RStar(normalize(a, BFTAB))


def test_subst_rrel_distributes_into_chain():
    star = RStar(RAtom(final(TRUE, IDENTITY, (ev("inp", 0),))))
    q = RAtom(quiescent(TRUE, (), channel_image("inp")))
    s = assignment_subst({"bf": Lit(())}, BFTAB)
    out = subst_rrel(s, RSeq(star, q), BFTAB)
    items = [out.first, out.second] if isinstance(out, RSeq) else [out]
    assert isinstance(out, RSeq)
    first = out.first
    assert isinstance(first, RAtom)
    assert first.atom.subst == s


def test_canonical_image_collapse():
    parts = union_sets(
        event_set(ev("inp", 0)), event_set(ev("inp", 1))
    )
    q = quiescent(TRUE, (), parts)
    out = normalize(RAtom(q), BFTAB)
    assert out.atom.accept == channel_image("inp")


def test_guarded_empty_set_drops():
    s = guarded_set(Lit(False), event_set(ev("inp", 0)))
    assert s.parts == ()


# ---------------------------------------------------------------------------
# Reads and writes


# One relation of each constructor
ONE_OF_EACH_FORM = {
    RFalse: FALSE_R,
    RTrue: TRUE_R,
    RAtom: UNIT_R,
    ROr: ROr((UNIT_R, FALSE_R)),
    RSeq: RSeq(UNIT_R, UNIT_R),
    RStar: RStar(UNIT_R),
}


def test_reads_writes_covers_every_relation_form():
    """A new relation constructor cannot fall outside the analysis."""
    xs = frozenset({"x"})
    samples = ONE_OF_EACH_FORM
    assert set(samples) == set(typing.get_args(RRel))
    for r in samples.values():
        reads, writes = reads_writes(r, xs)
        assert reads <= xs and writes <= xs
    for other in (X, UNIT_R.atom, None):
        with pytest.raises(TypeError):
            reads_writes(other, xs)


def test_reads_writes_examples():
    xs = frozenset({"x"})
    zero = RAtom(final(TRUE, assignment_subst({"x": Lit(0)}, XTAB), ()))
    send = RAtom(final(TRUE, IDENTITY, (EventTerm("a", X),)))
    pause = RAtom(quiescent(TRUE, (), event_set(EventTerm("a", X))))
    cases = [
        (zero, (set(), {"x"})),
        (RAtom(final(TRUE, INC, ())), ({"x"}, {"x"})),
        (send, ({"x"}, set())),
        (pause, ({"x"}, {"x"})),  # no terminated instance
        (RSeq(zero, send), (set(), {"x"})),  # written before it is read
        (RSeq(send, zero), ({"x"}, {"x"})),
        (RStar(zero), (set(), set())),  # zero iterations write nothing
        (ROr((zero, UNIT_R)), (set(), set())),
        (state_test(AT_LEAST_1), ({"x"}, set())),
        (RTrue(), ({"x"}, set())),
        (FALSE_R, (set(), {"x"})),
    ]
    for r, (reads, writes) in cases:
        assert reads_writes(r, xs) == (reads, writes), r


# ---------------------------------------------------------------------------
# Trace growth


def test_trace_growth_covers_every_relation_form():
    """A new relation constructor cannot fall outside the two readings."""
    assert set(ONE_OF_EACH_FORM) == set(typing.get_args(RRel))
    # (productive, silent) of each sample: only the empty relation both
    # extends and keeps the trace, and the universal one does neither
    expected = {
        RFalse: (True, True),
        RTrue: (False, False),
        RAtom: (False, True),
        ROr: (False, True),
        RSeq: (False, True),
        RStar: (False, True),
    }
    for form, r in ONE_OF_EACH_FORM.items():
        assert (productive(r), silent(r)) == expected[form], form
    for other in (X, UNIT_R.atom, None):
        with pytest.raises(TypeError):
            productive(other)
        with pytest.raises(TypeError):
            silent(other)


def test_trace_growth_examples():
    send = RAtom(final(TRUE, IDENTITY, (EventTerm("a", X),)))
    pause = RAtom(quiescent(TRUE, (), event_set(EventTerm("a", X))))
    cases = [
        (send, (True, False)),
        (pause, (True, True)),  # no terminated instance
        (RSeq(send, UNIT_R), (True, False)),
        (RSeq(UNIT_R, send), (True, False)),
        (RStar(send), (False, False)),  # zero passes keep the trace
        (ROr((send, UNIT_R)), (False, False)),
        (ROr((send, pause)), (True, False)),
        (RSeq(state_test(AT_LEAST_1), send), (True, False)),
    ]
    for r, facts in cases:
        assert (productive(r), silent(r)) == facts, r
