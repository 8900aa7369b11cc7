"""Parser, typechecker, and desugarer tests."""

import pytest

from rdes import dsl
from rdes.contracts import calculate
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
from rdes.state import (
    PREC,
    BinOp,
    Head,
    IfE,
    Len,
    Lit,
    Not,
    Primed,
    Proj,
    SeqDisplay,
    Var,
    pp_expr,
)

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


a, b, c, d, s, x, y = (Var(n) for n in "abcdsxy")


@pytest.mark.parametrize("source, parsed", [
    # comparisons: > and >= read as < and <= with their operands swapped
    ("x > y", BinOp("<", y, x)),
    ("x >= y", BinOp("<=", y, x)),
    ("a != b", BinOp("!=", a, b)),
    ("(a = b) = c", BinOp("=", BinOp("=", a, b), c)),
    ("a + b = c * d", BinOp("=", BinOp("+", a, b), BinOp("*", c, d))),
    ("a and b = c", BinOp("and", a, BinOp("=", b, c))),
    # the rest associate to the left, each level below the next
    ("a - b + c", BinOp("+", BinOp("-", a, b), c)),
    ("a ++ b + c", BinOp("++", a, BinOp("+", b, c))),
    ("a or b and c", BinOp("or", a, BinOp("and", b, c))),
    ("a and b or c", BinOp("or", BinOp("and", a, b), c)),
    # prefix operators: `not` below the comparisons, # and - above them all
    ("not not a and b", BinOp("and", Not(Not(a)), b)),
    ("not a = b", Not(BinOp("=", a, b))),
    ("not (a) = b", Not(BinOp("=", a, b))),
    ("a and not b or c", BinOp("or", BinOp("and", a, Not(b)), c)),
    ("- 3 * x", BinOp("*", Lit(-3), x)),
    ("- - 1", Lit(1)),
    ("-x * y", BinOp("*", BinOp("-", Lit(0), x), y)),
    ("#s + 1", BinOp("+", Len(s), Lit(1))),
    # atoms
    ("<a + 1, b> ++ s", BinOp("++", SeqDisplay((BinOp("+", a, Lit(1)), b)),
                              s)),
    ("<1, true> ++ <>", BinOp("++", Lit((1, True)), Lit(()))),
    ("head(if a then s else <>)", Head(IfE(a, s, Lit(())))),
    ("x' = proj(tt, c)", BinOp("=", Primed("x"), Proj("c"))),
    ("cs(tt) = {}", BinOp("=", Proj("?cs"), Lit(frozenset()))),
    # `if` only at the top, its branches reaching as far as they can
    ("if c then 1 else 2 + 3", IfE(c, Lit(1), BinOp("+", Lit(2), Lit(3)))),
    ("(if a then b else c) = d", BinOp("=", IfE(a, b, c), d)),
    ("1 + if c then 1 else 2", "1:5: expected an expression"),
    ("not if a then b else c", "1:5: expected an expression"),
    ("<if a then b else c>", "1:2: expected an expression"),
    # comparisons do not chain, also below `not` and `and`
    ("a = b = c", "1:7: expected end of input, found '='"),
    ("a < b < c", "1:7: expected end of input, found '<'"),
    ("x > y > z", "1:7: expected end of input, found '>'"),
    ("a = b < c", "1:7: expected end of input, found '<'"),
    ("not a = b = c", "1:11: expected end of input, found '='"),
    ("a and b = c = d", "1:13: expected end of input, found '='"),
    ("not a or b = c = d", "1:16: expected end of input, found '='"),
    # `not` is no operand of a tighter operator
    ("a = not b", "1:5: expected an expression"),
    ("a * not b", "1:5: expected an expression"),
    ("- not a", "1:3: expected an expression"),
    ("# not a", "1:3: expected an expression"),
    ("<not a>", "1:2: expected an expression"),
    # sequence-display elements sit above comparison level
    ("<a, b = c>", "1:7: expected '>', found '='"),
    # and what is left unfinished
    ("a +", "1:4: expected an expression"),
    ("not", "1:4: expected an expression"),
    ("(a", "1:3: expected ')', found 'end of input'"),
    ("head(s", "1:7: expected ')', found 'end of input'"),
    ("a b", "1:3: expected end of input, found 'b'"),
    ("a <> b", "1:3: expected end of input, found '<>'"),
])
def test_the_expression_language(source, parsed):
    # each source with the tree it reads as, or the error it is rejected
    # with at its position; nodes compare as tuples, so repr tells 1 from true
    if isinstance(parsed, str):
        with pytest.raises(ParseError) as exc:
            dsl.parse_expression(source)
        assert str(exc.value) == parsed
    else:
        assert repr(dsl.parse_expression(source)) == repr(parsed)


def _apply(op, left, right):
    return Not(right) if op == "not" else BinOp(op, left, right)


def test_every_nesting_of_two_operators_prints_and_parses_back():
    # > and >= print as < and <= swapped, so the table's operators and
    # `not` are every operator a tree can hold
    for outer in [*PREC, "not"]:
        for inner in [*PREC, "not"]:
            for e in (_apply(outer, _apply(inner, a, b), c),
                      _apply(outer, a, _apply(inner, b, c))):
                assert repr(dsl.parse_expression(pp_expr(e))) == repr(e)


@pytest.mark.parametrize("source, flat", [
    ("var x : int[0..3]\nx := " + "(" * 200 + "1" + ")" * 200,
     "var x : int[0..3]\nx := 1"),
    ("channel a\na -> " + "(" * 200 + "skip" + ")" * 200,
     "channel a\na -> skip"),
], ids=["expression", "action"])
def test_two_hundred_parentheses_load_and_calculate(source, flat):
    tp = dsl.load_program(source)
    assert tp.body == dsl.load_program(flat).body
    assert calculate(tp) == calculate(dsl.load_program(flat))


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
