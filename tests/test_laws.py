"""Randomised law suites at unit-test scale (the acceptance suite reruns
them at full counts)."""

from rdes import randgen
from rdes.laws import (
    ALL_LAWS,
    run_ka_suite,
    run_law_suite,
)
from rdes.relalg import (
    EventSetExpr,
    EventTerm,
    FinalAtom,
    ImagePart,
    QuiescentAtom,
    RAtom,
    RSeq,
    SingletonPart,
    normalize,
    seq_final_final,
    seq_final_quiescent,
)
from rdes.state import (
    BinOp,
    IDENTITY,
    IntType,
    Lit,
    SymbolTable,
    TRUE,
    Var,
)


def test_each_law_passes_on_fresh_instances():
    rng = randgen.rng_for(123)
    for law in ALL_LAWS:
        for _ in range(8):
            assert law(rng) == [], law.__name__


def test_law_suite_runner_reports_counts():
    rep = run_law_suite(seed=5, per_law=3)
    assert rep["instances"] == 3 * len(ALL_LAWS)
    assert rep["ok"] and rep["failures"] == []


def test_ka_suite_runner():
    rep = run_ka_suite(seed=5, terms=15, depth=3)
    assert rep["terms"] == 15
    assert rep["ok"], rep["failures"][:3]


def test_composition_rules_carry_raw_atoms_after_an_identity_update():
    # the law suites compose atoms that are not normal: here a condition
    # that holds in every state, a payload outside its channel's carrier
    # and an accepted set that is neither sorted nor collapsed.  After an
    # identity update the composed atom is still carried and canonical.
    tab = SymbolTable({"x": IntType(0, 3)}, {"a": IntType(0, 1)})
    always = BinOp("<=", Var("x"), Lit(3))
    raw_trace = (EventTerm("a", Lit(5)),)
    carried = (EventTerm("a", Lit(1)),)
    unit = FinalAtom(TRUE, IDENTITY, ())
    f = FinalAtom(always, IDENTITY, raw_trace)
    q = QuiescentAtom(always, raw_trace, EventSetExpr((
        SingletonPart(always, EventTerm("a", Lit(1))),
        SingletonPart(None, EventTerm("a", Lit(0))),
    )))
    cases = [
        (seq_final_final(unit, f, tab), FinalAtom(TRUE, IDENTITY, carried),
         f),
        (seq_final_quiescent(unit, q, tab),
         QuiescentAtom(TRUE, carried, EventSetExpr((ImagePart(None, "a"),))),
         q),
    ]
    for got, expect, raw in cases:
        assert got == expect and str(got) == str(expect)
        assert normalize(RSeq(RAtom(unit), RAtom(raw)), tab) == RAtom(got)
