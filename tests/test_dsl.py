"""Parser, typechecker, and desugarer tests."""

import pytest

from rdes import dsl
from rdes.dsl import (
    Assign,
    Cond,
    DoEvent,
    DuplicateNameError,
    ExtChoice,
    InfiniteDomainError,
    ParseError,
    Seq,
    Skip,
    Stop,
    TypeMismatchError,
    UnboundNameError,
    While,
    parse,
    pp_program,
    typecheck,
)
from rdes.state import BinOp, Len, Lit, Proj, Var

BUFFER_SRC = """\
channel inp : int[0..1]
channel out : int[0..1]
var bf : seq int[0..1] maxlen 2

bf := <> ;
while true do (
  inp?v -> bf := bf ++ <v>
  [] #bf > 0 & out!head(bf) -> bf := tail(bf)
)
"""


def test_parse_skip():
    p = parse("skip")
    assert p.body == Skip()
    assert p.decls == ()


def test_parse_choice_of_prefixes():
    p = parse("channel a\na -> skip [] a -> skip")
    assert isinstance(p.body, ExtChoice)
    assert len(p.body.branches) == 2
    assert p.body.branches[0] == p.body.branches[1]
    assert p.body.branches[0] == Seq(DoEvent("a"), Skip())


def test_parse_buffer_shape():
    p = parse(BUFFER_SRC)
    assert isinstance(p.body, Seq)
    assert p.body.first == Assign("bf", Lit(()))
    loop = p.body.second
    assert isinstance(loop, While)
    assert loop.cond == Lit(True)
    assert isinstance(loop.body, ExtChoice)
    assert len(loop.body.branches) == 2


def test_parse_guard_binds_condition():
    p = parse("channel a\nvar x : int[0..3]\nx > 0 & a -> skip")
    g = p.body
    assert isinstance(g, dsl.Guard)
    assert g.cond == BinOp("<", Lit(0), Var("x"))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("skip ;")
    assert exc.value.line == 1


@pytest.mark.parametrize("source, where", [
    ("var x : int[3..0]\nskip", "1:12: empty integer range"),
    ("channel a : int[0..1]\nvar x : bool\nx := proj(t, a) = <>",
     "3:11: projection applies to the trace variable tt"),
    ("channel a : int[0..1]\nvar x : bool\nx := as(x) = <>",
     "3:9: projection shorthand applies to tt"),
], ids=["range", "proj", "shorthand"])
def test_a_rejected_token_is_reported_where_it_stands(source, where):
    # not at the token after it: the range at its `[`, a projection at the
    # name that should have been tt
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert str(exc.value) == where


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse("channel a\na -> $")


def test_roundtrip_buffer():
    p = parse(BUFFER_SRC)
    assert parse(pp_program(p)) == p


def test_roundtrip_nested_choices():
    src = "channel a\nchannel b\n(a -> skip [] b -> stop) ; (skip |~| chaos)"
    p = parse(src)
    assert parse(pp_program(p)) == p


@pytest.mark.parametrize(
    "body",
    ["c!(#s) -> skip", "c!(-1) -> skip", "b := x = (not b)",
     "b := not b and (not x = 1)"],
)
def test_roundtrip_operators_in_tight_and_comparison_position(body):
    src = "channel c : int[-1..2]\nvar s : seq int[0..1] maxlen 2\n"
    src += "var b : bool\nvar x : int[0..2]\n" + body
    p = parse(src)
    assert parse(pp_program(p)) == p


def test_typecheck_buffer_accepted():
    tp = typecheck(parse(BUFFER_SRC))
    assert set(tp.symtab.variables) == {"bf"}
    assert set(tp.symtab.channels) == {"inp", "out"}


def test_typecheck_desugars_input_prefix():
    tp = typecheck(parse(BUFFER_SRC))
    loop = tp.body.second
    body = loop.body
    assert isinstance(body, ExtChoice)
    left, right = body.branches
    # input prefix expands to a choice over the channel domain
    assert isinstance(left, ExtChoice)
    assert len(left.branches) == 2
    b0 = left.branches[0]
    assert b0 == Seq(
        DoEvent("inp", Lit(0)),
        Assign("bf", BinOp("++", Var("bf"), Lit((0,)))),
    )
    # guard becomes a conditional with a deadlocked else-branch
    assert isinstance(right, Cond)
    assert right.other == Stop()


NESTED_SRC = """\
channel c : int[0..1]
channel d : int[0..1]
var x : int[0..3]
x < 1 + 1 & c?v -> d?w -> (v > 0 & x := v + w ; d!(v*w) -> skip)
"""


def test_typecheck_desugars_nested_input_prefixes():
    # both input values reach every expression under the inner prefix,
    # folded; the guard outside both prefixes stays as written
    def after(v, w):
        guarded = Cond(Lit(v > 0), Assign("x", Lit(v + w)), Stop())
        return Seq(DoEvent("d", Lit(w)),
                   Seq(guarded, Seq(DoEvent("d", Lit(v * w)), Skip())))

    inputs = ExtChoice(tuple(
        Seq(DoEvent("c", Lit(v)), ExtChoice(tuple(after(v, w)
                                                  for w in (0, 1))))
        for v in (0, 1)))
    outer = BinOp("<", Var("x"), BinOp("+", Lit(1), Lit(1)))
    assert typecheck(parse(NESTED_SRC)).body == Cond(outer, inputs, Stop())
    # so nested input variables never shadow one another
    with pytest.raises(DuplicateNameError):
        typecheck(parse("channel c : int[0..1]\nc?v -> c?v -> skip"))


def test_typecheck_payload_mismatch():
    src = "channel inp : int[0..1]\ninp!true"
    with pytest.raises(TypeMismatchError):
        typecheck(parse(src))


def test_typecheck_unbounded_int_rejected():
    with pytest.raises(InfiniteDomainError):
        typecheck(parse("var x : int\nskip"))


def test_typecheck_seq_without_maxlen_rejected():
    with pytest.raises(InfiniteDomainError):
        typecheck(parse("var s : seq int[0..1]\nskip"))


def test_duplicate_declaration_rejected():
    with pytest.raises(DuplicateNameError):
        typecheck(parse("channel a\nvar a : bool\nskip"))


def test_unbound_name_rejected():
    with pytest.raises(UnboundNameError):
        typecheck(parse("x := 1"))


def test_undeclared_channel_rejected():
    with pytest.raises(UnboundNameError):
        typecheck(parse("a -> skip"))


def test_guard_requires_bool():
    with pytest.raises(TypeMismatchError):
        typecheck(parse("channel a\nvar x : int[0..1]\nx & a -> skip"))


def test_input_prefix_value_restriction():
    src = "channel inp : int[0..3]\ninp?v:{1, 2} -> skip"
    tp = typecheck(parse(src))
    assert isinstance(tp.body, ExtChoice)
    assert [b.first.data for b in tp.body.branches] == [Lit(1), Lit(2)]


def test_input_prefix_value_outside_domain():
    with pytest.raises(TypeMismatchError):
        typecheck(parse("channel inp : int[0..1]\ninp?v:{5} -> skip"))


def test_input_var_shadowing_rejected():
    src = "channel inp : int[0..1]\nvar v : bool\ninp?v -> skip"
    with pytest.raises(DuplicateNameError):
        typecheck(parse(src))


def test_invariant_parsing_with_projection_sugar():
    tp = typecheck(parse(BUFFER_SRC))
    inv = dsl.parse_invariant("outps(tt) <= bf ++ inps(tt)", tp.symtab)
    assert inv == BinOp(
        "<=", Proj("out"), BinOp("++", Var("bf"), Proj("inp"))
    )
    same = dsl.parse_invariant(
        "proj(tt, out) <= bf ++ proj(tt, inp)", tp.symtab
    )
    assert same == inv


def test_invariant_rejects_unknown_names():
    tp = typecheck(parse(BUFFER_SRC))
    with pytest.raises(UnboundNameError):
        dsl.parse_invariant("zork(tt) <= bf", tp.symtab)
    with pytest.raises(UnboundNameError):
        dsl.parse_invariant("mystery = 1", tp.symtab)


@pytest.mark.parametrize("source", [
    "acc != {}", "acc = {} or #outps(tt) < #inps(tt)", "bf' = bf",
    "if acc = {} then bf = <> else true", "outps(tt) <= <>",
    "head(outps(tt)) = 1",
])
def test_invariants_of_every_shape_type_as_conditions(source):
    tp = typecheck(parse(BUFFER_SRC))
    dsl.parse_invariant(source, tp.symtab)


@pytest.mark.parametrize("source", [
    "bf + 1", "#bf", "bf", "acc", "acc <= {}", "acc = bf", "{} = <>",
    "outps(tt) = acc", "bf' = 1",
])
def test_invariants_that_are_no_condition_are_rejected(source):
    tp = typecheck(parse(BUFFER_SRC))
    with pytest.raises(TypeMismatchError):
        dsl.parse_invariant(source, tp.symtab)


@pytest.mark.parametrize("source, kind", [
    ("bf' = bf", "peri"), ("acc != {} or bf' = <>", "peri"),
    ("acc = {}", "post"), ("if acc = {} then bf' = bf else true", "post"),
])
def test_invariants_read_only_what_their_kind_observes(source, kind):
    tp = typecheck(parse(BUFFER_SRC))
    with pytest.raises(TypeMismatchError, match="only for"):
        dsl.parse_invariant(source, tp.symtab, kind)


def test_invariants_of_their_own_kind_are_accepted():
    tp = typecheck(parse(BUFFER_SRC))
    dsl.parse_invariant("acc != {} or #bf = 0", tp.symtab, "peri")
    dsl.parse_invariant("bf' = bf or #outps(tt) > 0", tp.symtab, "post")


def test_expression_precedence():
    p = parse("var x : int[0..5]\nvar b : bool\nif b and x + 1 * 2 <= 4 then skip else stop")
    cond = p.body.cond
    assert cond == BinOp(
        "and",
        Var("b"),
        BinOp("<=", BinOp("+", Var("x"), BinOp("*", Lit(1), Lit(2))), Lit(4)),
    )


def test_length_binds_tighter_than_comparison():
    p = parse("var s : seq bool maxlen 2\n#s > 0 & skip")
    assert p.body.cond == BinOp("<", Lit(0), Len(Var("s")))


def test_roundtrip_random_programs():
    # pretty-print then re-parse is the identity on random core programs
    from rdes import randgen
    from rdes.dsl import Program, pp_program

    rng = randgen.rng_for(99)
    for _ in range(150):
        tp = randgen.random_program(rng)
        decls = []
        for n, t in sorted(tp.symtab.variables.items()):
            decls.append(dsl.Declaration("var", n, t))
        for n, t in sorted(tp.symtab.channels.items()):
            decls.append(dsl.Declaration("channel", n, t))
        program = Program(tuple(decls), tp.body)
        assert parse(pp_program(program)) == program
