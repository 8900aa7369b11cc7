"""Value, expression, and substitution semantics."""

import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdes import contracts, dsl, kleene, relalg, state, verify
from rdes.dsl import Chaos, DoEvent, Miracle, Skip, Stop
from rdes.kleene import WP_BOUND
from rdes.relalg import TRUE_PRE, TRUE_R, EventTerm, RFalse, RTrue
from rdes.state import (
    Acc,
    BinOp,
    Clamp,
    Event,
    Expr,
    Head,
    IfE,
    IntType,
    Len,
    Lit,
    Node,
    Not,
    Primed,
    Proj,
    SeqDisplay,
    SeqType,
    StateSpaceTooLarge,
    SymbolTable,
    Tail,
    Var,
    apply_subst,
    apply_to_valuation,
    assignment_subst,
    children,
    compose_subst,
    cond_implies,
    cond_is_false,
    cond_is_true,
    eval_expr,
    exprs_equiv,
    fold,
    pp_expr,
    rebuild,
    subst_of,
    subterms,
    valuation_of,
)

SYMTAB = SymbolTable(
    {"bf": SeqType(IntType(0, 1), 2), "v": IntType(0, 1)},
    {"inp": IntType(0, 1), "out": IntType(0, 1)},
)


def val(**kw):
    base = {"bf": (), "v": 0}
    base.update(kw)
    return valuation_of(base)


def test_eval_head_of_literal():
    assert eval_expr(Head(Lit((1, 0))), val()) == 1


def test_eval_totalisation_defaults():
    assert eval_expr(Tail(Lit(())), val()) == ()
    assert eval_expr(Head(Lit(())), val()) == 0


def test_eval_concat_with_state():
    e = BinOp("++", Var("bf"), BinOp("++", Lit(()), Lit((0,))))
    assert eval_expr(e, val(bf=(1,))) == (1, 0)


def test_eval_prefix_on_sequences():
    assert eval_expr(BinOp("<=", Lit((1,)), Lit((1, 0))), val())
    assert not eval_expr(BinOp("<=", Lit((0,)), Lit((1, 0))), val())


def test_apply_subst_example():
    s = subst_of({"x": Lit(1)})
    assert apply_subst(s, BinOp("+", Var("x"), Lit(2))) == Lit(3)


def test_apply_subst_identity():
    e = BinOp("<", Lit(0), Len(Var("bf")))
    assert apply_subst(subst_of({}), e) == e


def test_compose_subst_folds_constants():
    s = compose_subst(subst_of({"x": Lit(1)}), subst_of({"x": BinOp("+", Var("x"), Lit(2))}))
    assert s == subst_of({"x": Lit(3)})


def test_compose_subst_units():
    s = subst_of({"bf": Tail(Var("bf"))})
    assert compose_subst(s, subst_of({})) == s
    assert compose_subst(subst_of({}), s) == s


def test_compose_subst_pointwise_semantics():
    # oracle: pointwise composition over the whole finite domain; assignment
    # substitutions record their saturation so both routes agree at the
    # carrier boundaries
    s1 = assignment_subst({"bf": BinOp("++", Var("bf"), Lit((0,)))}, SYMTAB)
    s2 = assignment_subst({"bf": Tail(Var("bf"))}, SYMTAB)
    composed = compose_subst(s1, s2)
    for v in SYMTAB.valuations():
        step = apply_to_valuation(s2, apply_to_valuation(s1, v, SYMTAB), SYMTAB)
        assert apply_to_valuation(composed, v, SYMTAB) == step


def test_subst_drops_identity_entries():
    assert subst_of({"x": Var("x")}).is_identity()


def test_valuation_clamps_on_update():
    v = val()
    out = v.set("v", 7, SYMTAB.variables["v"])
    assert out.get("v") == 1
    out = v.set("bf", (1, 0, 1), SYMTAB.variables["bf"])
    assert out.get("bf") == (1, 0)


def test_cond_decisions():
    c = BinOp("<=", Lit(0), Len(Var("bf")))
    assert cond_is_true(c, SYMTAB)
    assert cond_is_false(BinOp("<", Len(Var("bf")), Lit(0)), SYMTAB)
    assert cond_implies(
        BinOp("=", Var("v"), Lit(1)), BinOp("<", Lit(0), Var("v")), SYMTAB
    )


def test_exprs_equiv_semantic():
    a = BinOp("and", BinOp("<", Lit(0), Var("v")), Lit(True))
    b = BinOp("=", Var("v"), Lit(1))
    assert exprs_equiv(a, b, SYMTAB)


# -- randomised properties ---------------------------------------------------

_INT_EXPR = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=-1, max_value=2).map(Lit),
        st.just(Var("v")),
        st.just(Head(Var("bf"))),
        st.just(Len(Var("bf"))),
        st.tuples(_INT_EXPR, _INT_EXPR).map(lambda t: BinOp("+", *t)),
        st.tuples(_INT_EXPR, _INT_EXPR).map(lambda t: BinOp("-", *t)),
    )
)

_SEQ_EXPR = st.deferred(
    lambda: st.one_of(
        st.lists(
            st.integers(min_value=0, max_value=1), max_size=2
        ).map(lambda xs: Lit(tuple(xs))),
        st.just(Var("bf")),
        st.just(Tail(Var("bf"))),
        st.tuples(_SEQ_EXPR, _SEQ_EXPR).map(lambda t: BinOp("++", *t)),
    )
)

_BOOL_EXPR = st.deferred(
    lambda: st.one_of(
        st.booleans().map(Lit),
        st.tuples(_INT_EXPR, _INT_EXPR).map(lambda t: BinOp("<", *t)),
        st.tuples(_SEQ_EXPR, _SEQ_EXPR).map(lambda t: BinOp("<=", *t)),
        st.tuples(_SEQ_EXPR, _SEQ_EXPR).map(lambda t: BinOp("=", *t)),
        _BOOL_EXPR.map(Not),
        st.tuples(_BOOL_EXPR, _BOOL_EXPR).map(lambda t: BinOp("and", *t)),
        st.tuples(_BOOL_EXPR, _BOOL_EXPR, _BOOL_EXPR).map(lambda t: IfE(*t)),
    )
)

_ANY_EXPR = st.one_of(_INT_EXPR, _SEQ_EXPR, _BOOL_EXPR)

_SUBSTS = st.fixed_dictionaries(
    {},
    optional={
        "v": _INT_EXPR,
        "bf": _SEQ_EXPR,
    },
).map(subst_of)


@settings(max_examples=200, deadline=None)
@given(_ANY_EXPR)
def test_fold_preserves_eval(e):
    folded = fold(e)
    for v in SYMTAB.valuations():
        assert eval_expr(folded, v) == eval_expr(e, v)


@settings(max_examples=200, deadline=None)
@given(_SUBSTS, _ANY_EXPR)
def test_subst_then_eval_is_eval_after_update(s, e):
    # clamping applies on both routes: substituted expressions evaluate over
    # the raw state, so compare against unclamped pointwise updates
    out = apply_subst(s, e)
    for v in SYMTAB.valuations():
        updated = valuation_of(
            {n: eval_expr(s.get(n), v) for n, _ in v.items}
        )
        assert eval_expr(out, v) == eval_expr(e, updated)


@settings(max_examples=100, deadline=None)
@given(_SUBSTS, _SUBSTS, _SUBSTS)
def test_compose_subst_associative(s1, s2, s3):
    left = compose_subst(compose_subst(s1, s2), s3)
    right = compose_subst(s1, compose_subst(s2, s3))
    for n in left.domain() | right.domain():
        assert exprs_equiv(left.get(n), right.get(n), SYMTAB)


@settings(max_examples=100, deadline=None)
@given(_ANY_EXPR)
def test_pp_expr_is_stable(e):
    # printing is deterministic and total on all generated expressions
    assert pp_expr(e) == pp_expr(e)


def test_symtab_valuations_cover_product():
    count = sum(1 for _ in SYMTAB.valuations())
    assert count == 7 * 2  # bf: 1+2+4 sequences, v: 2 values


def test_alphabet_sorted_and_ground():
    names = [str(e) for e in SYMTAB.alphabet()]
    assert names == ["inp.0", "inp.1", "out.0", "out.1"]


def test_events_and_valuations_keep_their_forms():
    # witness keys sort on str() of traces, which prints events by repr,
    # and set iteration order follows the hash: both are the field tuple's
    ev = Event("inp", (0, 1))
    assert str(ev) == "inp.<0, 1>" and str(Event("a")) == "a"
    assert repr(ev) == "Event(chan='inp', data=(0, 1))"
    assert hash(ev) == hash(("inp", (0, 1)))
    s = val(bf=(1,), v=1)
    assert str(s) == "{bf=<1>, v=1}"
    assert hash(s) == hash((s.items,))
    assert s.set("v", 5, IntType(0, 1)) == val(bf=(1,), v=1)


def _node_classes() -> list:
    """Every node class the package defines."""
    modules = (state, dsl, relalg, contracts, kleene, verify)
    return [c for m in modules for c in vars(m).values()
            if isinstance(c, type) and issubclass(c, Node) and c is not Node
            and c.__module__ == m.__name__]


def test_nodes_keep_the_forms_of_frozen_dataclasses():
    # witness keys sort on str() of traces, which prints nodes by repr, and
    # set iteration order follows the hash: the tag and the fields tuple's
    classes = _node_classes()
    assert {Skip, Stop, Chaos, Miracle, RFalse, RTrue, Head,
            Tail, Len, Not, verify.Config, verify.Verdict} <= set(classes)
    for cls in classes:
        values = tuple(f"<{f}>" for f in cls._fields)
        x = cls(*values)
        assert repr(x) == f"{cls.__qualname__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(cls._fields, values)) + ")"
        assert x == cls(**dict(zip(cls._fields, values)))
        assert hash(x) == hash(cls(*values)) == hash(
            (f"{cls.__module__}.{cls.__qualname__}",) + values)
        assert x  # never empty: the tag is element 0
        for f in cls._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
        # nodes of different classes never compare equal, even with equal
        # fields, as the normaliser's `t == o` and `d == seen` assume
        assert [other for other in classes
                if other is not cls and len(other._fields) == len(values)
                and other(*values) == x] == []
    assert len({Skip(), Stop(), Chaos(), Miracle(), RFalse(), RTrue()}) == 6
    assert len({Head(W), Tail(W), Len(W), Not(W)}) == 4
    assert repr(BinOp("+", V, Lit(1))) == (
        "BinOp(op='+', left=Var(name='v'), right=Lit(value=1))")
    assert repr(Acc()) == "Acc()" and str(V) == "Var(name='v')"
    assert str(IntType(0, 1)) == "int[0..1]"
    # defaults, keyword construction and replacement
    assert EventTerm("a") == EventTerm(chan="a", data=None)
    assert DoEvent("a").data is None
    assert verify.Config() == verify.Config(trace_bound=4, wp_bound=WP_BOUND)
    v = verify.Verdict("verified", {})
    assert (v.witness, v.reason, v.obligations, v.scope, v.traces) == (
        None, None, (), "bounded", 0)
    assert v._replace(traces=3) == verify.Verdict("verified", {}, traces=3)
    ob = verify.Obligation(TRUE_R, TRUE_R, "peri", "o")
    assert ob.assume == TRUE_PRE


V, W = Var("v"), Var("bf")

# One sample of each expression form, with the expressions directly inside it
ONE_OF_EACH_FORM = {
    Var: (V, ()),
    Primed: (Primed("v"), ()),
    Lit: (Lit((0, 1)), ()),
    BinOp: (BinOp("+", V, Lit(1)), (V, Lit(1))),
    Not: (Not(V), (V,)),
    Head: (Head(W), (W,)),
    Tail: (Tail(W), (W,)),
    Len: (Len(W), (W,)),
    IfE: (IfE(V, W, Lit(())), (V, W, Lit(()))),
    SeqDisplay: (SeqDisplay((V, Lit(1), W)), (V, Lit(1), W)),
    Clamp: (Clamp(V, IntType(0, 1)), (V,)),
    Proj: (Proj("inp"), ()),
    Acc: (Acc(), ()),
}


def test_rebuild_covers_every_expression_form():
    """A new expression constructor cannot fall outside the walks."""
    assert set(ONE_OF_EACH_FORM) == set(typing.get_args(Expr))
    for e, inner in ONE_OF_EACH_FORM.values():
        seen = []
        assert rebuild(e, lambda x: seen.append(x) or x) == e
        assert seen == list(inner)
        # each direct sub-expression is replaced in place, the rest is kept
        replaced = rebuild(e, lambda x: Lit(7))
        assert children(replaced) == (Lit(7),) * len(inner)
        assert rebuild(replaced, lambda x: seen.pop(0)) == e
    for other in (None, Event("inp", 0), IntType(0, 1), (V,)):
        with pytest.raises(TypeError):
            rebuild(other, lambda x: x)
        with pytest.raises(TypeError):
            children(other)


# What each sample above evaluates to from {bf=<1, 0>, v=1}, with final
# state {bf=<>, v=0}, trace <inp.1, out.0, inp.0> and accepted set {out.1}
EVALUATED = {
    Var: 1,
    Primed: 0,
    Lit: (0, 1),
    BinOp: 2,
    Not: False,
    Head: 1,
    Tail: (0,),
    Len: 2,
    IfE: (1, 0),
    SeqDisplay: (1, 1, (1, 0)),
    Clamp: 1,
    Proj: (1, 0),
    Acc: frozenset({Event("out", 1)}),
}


def test_eval_dispatches_on_every_expression_form():
    assert set(state._EVAL) == set(typing.get_args(Expr))
    s, after = val(bf=(1, 0), v=1), val()
    tt = (Event("inp", 1), Event("out", 0), Event("inp", 0))
    acc = frozenset({Event("out", 1)})
    for form, (e, _) in ONE_OF_EACH_FORM.items():
        got = eval_expr(e, s, tt=tt, acc=acc, primed=after)
        # a bool must not pass for an int, nor an int for a bool
        assert (type(got), got) == (type(EVALUATED[form]), EVALUATED[form])
    for other in (None, Event("inp", 0), IntType(0, 1), (V,)):
        with pytest.raises(TypeError, match="not an expression"):
            eval_expr(other, s)


def test_eval_reads_a_trace_only_through_its_projections():
    """The class sweep in `verify` rests on this: an expression cannot tell
    apart traces with equal projections on every channel, and one without a
    projection cannot tell apart any traces.  Each sample is also taken with
    projections in place of the expressions directly inside it."""
    s, after = val(bf=(1, 0), v=1), val()
    acc = frozenset({Event("out", 1)})
    inp1, inp0, out0 = Event("inp", 1), Event("inp", 0), Event("out", 0)
    interleavings = [(inp1, out0, inp0), (out0, inp1, inp0),
                     (inp1, inp0, out0)]
    others = [(), (Event("out", 1),), (inp0, inp1)]
    for e, _ in ONE_OF_EACH_FORM.values():
        for sample in (e, rebuild(e, lambda x: Proj("inp")),
                       rebuild(e, lambda x: Proj("out"))):
            def values(traces):
                out = set()
                for tt in traces:
                    v = eval_expr(sample, s, tt=tt, acc=acc, primed=after)
                    out.add((type(v), v))
                return out

            assert len(values(interleavings)) == 1, sample
            if not any(isinstance(x, Proj) for x in subterms(sample)):
                assert len(values(interleavings + others)) == 1, sample


def test_too_many_valuations_are_a_named_error():
    big = SymbolTable({"x": SeqType(IntType(0, 3), 12)}, {})
    with pytest.raises(StateSpaceTooLarge):
        big.valuations()
