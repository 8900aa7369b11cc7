"""Contract constructors, combinators, derived facts, and calculation."""

from pathlib import Path

import pytest

from rdes import dsl, ground, randgen
from rdes.contracts import (
    Contract,
    EmptyIndexError,
    NotProductiveError,
    assign_c,
    calculate,
    chaos_c,
    cond_contract,
    do_c,
    extchoice_contract,
    intchoice_contract,
    loop_parts,
    miracle_c,
    seq_contract,
    skip_c,
    stop_c,
    while_contract,
)
from rdes.relalg import (
    EventTerm,
    FALSE_R,
    NegClause,
    RAtom,
    RFalse,
    ROr,
    RSeq,
    RStar,
    TRUE_PRE,
    NormalizationIncomplete,
    channel_image,
    disjuncts,
    event_set,
    final,
    guarded_set,
    normalize,
    quiescent,
    silent,
    union_sets,
)
from rdes.state import (
    BinOp,
    Head,
    IDENTITY,
    IntType,
    Len,
    Lit,
    Node,
    SeqType,
    SymbolTable,
    TRUE,
    Tail,
    Var,
    assignment_subst,
    subst_of,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

XTAB = SymbolTable({"x": IntType(0, 3)}, {"a": IntType(0, 3)})
ABC = SymbolTable({}, {"a": None, "b": None, "c": None})
BFTAB = SymbolTable(
    {"bf": SeqType(IntType(0, 1), 2)},
    {"inp": IntType(0, 1), "out": IntType(0, 1)},
)
NONEMPTY = BinOp("<", Lit(0), Len(Var("bf")))


def ev(chan, data=None):
    return EventTerm(chan, Lit(data) if data is not None else None)


def calc_src(src):
    tp = dsl.load_program(src)
    return calculate(tp), tp.symtab


def test_example_assign_prefix_assign():
    lhs, tab = calc_src(
        "channel a : int[0..3]\nvar x : int[0..3]\nx := 1 ; a!x -> x := x + 2"
    )
    rhs, _ = calc_src(
        "channel a : int[0..3]\nvar x : int[0..3]\na!1 -> x := 3"
    )
    expected = Contract(
        TRUE_PRE,
        RAtom(quiescent(TRUE, (), event_set(ev("a", 1)))),
        RAtom(final(TRUE, subst_of({"x": Lit(3)}), (ev("a", 1),))),
    )
    assert lhs == rhs
    assert lhs == expected


def test_skip_is_seq_unit():
    c = do_c(ev("a", 2), XTAB)
    assert seq_contract(skip_c(), c, XTAB) == c
    assert seq_contract(c, skip_c(), XTAB) == c


def test_stop_left_annihilates():
    c = do_c(ev("a", 1), XTAB)
    assert seq_contract(stop_c(), c, XTAB) == stop_c()


def test_chaos_left_annihilates():
    c = seq_contract(chaos_c(), do_c(ev("a", 1), XTAB), XTAB)
    assert c == chaos_c()


def test_miracle_left_annihilates():
    c = seq_contract(miracle_c(), do_c(ev("a", 1), XTAB), XTAB)
    assert c == miracle_c()


def test_assign_composition():
    s1 = assignment_subst({"x": Lit(1)}, XTAB)
    s2 = assignment_subst({"x": BinOp("+", Var("x"), Lit(1))}, XTAB)
    lhs = seq_contract(assign_c(s1), assign_c(s2), XTAB)
    assert lhs == assign_c(subst_of({"x": Lit(2)}))


def test_assign_identity_is_skip():
    assert assign_c(IDENTITY) == skip_c()


def test_assign_commutes_with_event():
    s = assignment_subst({"x": Lit(1)}, XTAB)
    lhs = seq_contract(assign_c(s), do_c(EventTerm("a", Var("x")), XTAB), XTAB)
    rhs = seq_contract(do_c(ev("a", 1), XTAB), assign_c(s), XTAB)
    assert lhs == rhs


def test_do_then_chaos_precondition():
    c = seq_contract(do_c(ev("a", 1), XTAB), chaos_c(), XTAB)
    assert c.pre.clauses == (NegClause(TRUE, (ev("a", 1),)),)
    assert c.peri == RAtom(quiescent(TRUE, (), event_set(ev("a", 1))))
    assert c.post == FALSE_R


def test_intchoice_units():
    c = do_c(ev("a", 1), XTAB)
    assert intchoice_contract([c], XTAB) == c
    assert intchoice_contract([c, c], XTAB) == c
    with pytest.raises(EmptyIndexError):
        intchoice_contract([], XTAB)


def test_prefix_distributes_over_intchoice():
    p = do_c(EventTerm("b"), ABC)
    q = stop_c()
    lhs = seq_contract(
        do_c(EventTerm("a"), ABC), intchoice_contract([p, q], ABC), ABC
    )
    rhs = intchoice_contract(
        [
            seq_contract(do_c(EventTerm("a"), ABC), p, ABC),
            seq_contract(do_c(EventTerm("a"), ABC), q, ABC),
        ],
        ABC,
    )
    assert lhs == rhs


def test_extchoice_example_pericondition():
    c, tab = calc_src(
        "channel a\nchannel b\nchannel c\na -> b -> skip [] c -> skip"
    )
    expected_peri = normalize(
        ROr(
            (
                RAtom(
                    quiescent(
                        TRUE, (), event_set(EventTerm("a"), EventTerm("c"))
                    )
                ),
                RAtom(
                    quiescent(
                        TRUE,
                        (EventTerm("a"),),
                        event_set(EventTerm("b")),
                    )
                ),
            )
        ),
        tab,
    )
    assert c.peri == expected_peri
    assert c.pre == TRUE_PRE


def test_extchoice_stop_is_unit():
    p = seq_contract(do_c(EventTerm("a"), ABC), skip_c(), ABC)
    assert extchoice_contract([p, stop_c()], ABC) == p


def test_extchoice_commutative_idempotent():
    p = seq_contract(do_c(EventTerm("a"), ABC), skip_c(), ABC)
    q = seq_contract(do_c(EventTerm("b"), ABC), stop_c(), ABC)
    assert (extchoice_contract([p, q], ABC)
            == extchoice_contract([q, p], ABC))
    assert extchoice_contract([p, p], ABC) == p


def test_extchoice_associative_on_examples():
    p = do_c(EventTerm("a"), ABC)
    q = do_c(EventTerm("b"), ABC)
    r = do_c(EventTerm("c"), ABC)
    lhs = extchoice_contract([extchoice_contract([p, q], ABC), r], ABC)
    rhs = extchoice_contract([p, extchoice_contract([q, r], ABC)], ABC)
    assert lhs == rhs


def test_guard_false_is_stop_and_true_is_identity():
    p = do_c(EventTerm("a"), ABC)
    assert cond_contract(Lit(False), p, stop_c(), ABC) == stop_c()
    assert cond_contract(Lit(True), p, stop_c(), ABC) == p


def test_buffer_body_contract():
    body_src = """\
channel inp : int[0..1]
channel out : int[0..1]
var bf : seq int[0..1] maxlen 2
inp?v -> bf := bf ++ <v>
[] #bf > 0 & out!head(bf) -> bf := tail(bf)
"""
    c, tab = calc_src(body_src)
    assert c.pre == TRUE_PRE
    # quiescent offers: every input event plus the head output if non-empty
    expected_accept = union_sets(
        channel_image("inp"),
        guarded_set(NONEMPTY, event_set(EventTerm("out", Head(Var("bf"))))),
    )
    expected_peri = normalize(
        RAtom(quiescent(TRUE, (), expected_accept)), tab
    )
    assert c.peri == expected_peri
    # terminated: one disjunct per input value plus the guarded output
    expected_post = normalize(
        ROr(
            (
                RAtom(
                    final(
                        TRUE,
                        assignment_subst(
                            {"bf": BinOp("++", Var("bf"), Lit((0,)))}, tab
                        ),
                        (ev("inp", 0),),
                    )
                ),
                RAtom(
                    final(
                        TRUE,
                        assignment_subst(
                            {"bf": BinOp("++", Var("bf"), Lit((1,)))}, tab
                        ),
                        (ev("inp", 1),),
                    )
                ),
                RAtom(
                    final(
                        NONEMPTY,
                        assignment_subst({"bf": Tail(Var("bf"))}, tab),
                        (EventTerm("out", Head(Var("bf"))),),
                    )
                ),
            )
        ),
        tab,
    )
    assert c.post == expected_post
    assert c.productive is True


def test_buffer_overall_contract():
    src = """\
channel inp : int[0..1]
channel out : int[0..1]
var bf : seq int[0..1] maxlen 2
bf := <> ;
while true do (
  inp?v -> bf := bf ++ <v>
  [] #bf > 0 & out!head(bf) -> bf := tail(bf)
)
"""
    c, tab = calc_src(src)
    assert c.pre == TRUE_PRE
    assert c.post == FALSE_R
    # peri: set the buffer empty, iterate the body, then pause in its offers
    assert isinstance(c.peri, RSeq)
    first, rest = c.peri.first, c.peri.second
    assert isinstance(first, RAtom)
    assert first.atom.subst == assignment_subst({"bf": Lit(())}, tab)
    assert first.atom.trace == ()
    assert isinstance(rest, RSeq)
    assert isinstance(rest.first, RStar)


def test_while_false_is_skip():
    body = do_c(ev("a", 1), XTAB)
    assert while_contract(Lit(False), body, XTAB) == skip_c()


def test_while_true_instantaneous_is_chaos():
    body = assign_c(
        assignment_subst({"x": BinOp("+", Var("x"), Lit(1))}, XTAB)
    )
    c = while_contract(Lit(True), body, XTAB)
    assert c == chaos_c()


def test_while_nonproductive_rejected():
    body = assign_c(
        assignment_subst({"x": BinOp("+", Var("x"), Lit(1))}, XTAB)
    )
    with pytest.raises(NotProductiveError):
        while_contract(BinOp("<", Var("x"), Lit(2)), body, XTAB)


def test_loop_parts_decide_productivity():
    body = assign_c(
        assignment_subst({"x": BinOp("+", Var("x"), Lit(1))}, XTAB)
    )
    # no guarded fixed point, also where the calculator gives chaos instead
    for b in (BinOp("<", Var("x"), Lit(2)), Lit(True)):
        with pytest.raises(NotProductiveError):
            loop_parts(b, body, XTAB, 16)
    # a guard that holds nowhere never runs the body
    never = BinOp("<", Lit(5), Var("x"))
    assert loop_parts(never, body, XTAB, 16) == (TRUE_PRE, FALSE_R, FALSE_R)
    # a miracle is instantaneous, yet productive: no terminated observation
    miracle = miracle_c()
    assert loop_parts(Lit(True), miracle, XTAB, 16) == (
        TRUE_PRE, FALSE_R, FALSE_R)
    assert while_contract(Lit(True), miracle, XTAB) == miracle


def test_while_true_of_prefix_shape():
    c, tab = calc_src("channel a\nwhile true do a -> skip")
    assert c.pre == TRUE_PRE
    assert c.post == FALSE_R
    assert isinstance(c.peri, RSeq)
    assert isinstance(c.peri.first, RStar)


def test_classification_base_cases():
    assert do_c(ev("a", 1), XTAB).productive is True
    s = skip_c()
    assert s.productive is False and s.instantaneous is True
    c = chaos_c()
    assert c.productive is True and c.instantaneous is True


def test_classification_seq_rule():
    c = seq_contract(
        do_c(ev("a", 1), XTAB),
        assign_c(assignment_subst({"x": Lit(2)}, XTAB)),
        XTAB,
    )
    assert c.productive is True
    assert c.instantaneous is False


def test_calculate_skip_and_echo_choice():
    c, _ = calc_src("skip")
    assert c == skip_c()
    c1, tab = calc_src("channel a\na -> skip [] a -> skip")
    c2, _ = calc_src("channel a\na -> skip")
    assert c1 == c2


def test_extchoice_distributes_into_seq_for_productive_branches():
    src_lhs = "channel a\nchannel b\nchannel c\n(a -> skip [] b -> skip) ; c -> skip"
    src_rhs = "channel a\nchannel b\nchannel c\n(a -> skip ; c -> skip) [] (b -> skip ; c -> skip)"
    lhs, _ = calc_src(src_lhs)
    rhs, _ = calc_src(src_rhs)
    assert lhs == rhs


def test_instantaneous_distributes_from_left():
    src_lhs = "channel a\nchannel b\nvar x : int[0..1]\nx := 1 ; (a -> skip [] b -> skip)"
    src_rhs = "channel a\nchannel b\nvar x : int[0..1]\n(x := 1 ; a -> skip) [] (x := 1 ; b -> skip)"
    lhs, _ = calc_src(src_lhs)
    rhs, _ = calc_src(src_rhs)
    assert lhs == rhs


def test_calculated_relations_are_normal_forms():
    # the combinators join parts already in normal form without normalising
    # them again, so a full `normalize` of each calculated relation, called
    # from outside any calculation, must give it back, printed alike: over
    # the corpus, an external choice whose offers hold under contradicting
    # conditions (`conj_offers` must drop their conjunction),
    # `random_program` seeds 0-399 and `random_loop_program` seeds 0-99
    programs = [(p.stem, dsl.load_program(p.read_text()))
                for p in sorted(CORPUS.glob("*.rp")) if p.stem != "while_bad"]
    programs.append(("contradicting offers", dsl.load_program(
        "channel a\nchannel b\nchannel c\nvar x : int[0..1]\n"
        "(if x = 0 then a -> skip else (b -> c -> skip))\n"
        "  [] (if x = 1 then c -> skip else (a -> b -> skip))\n")))
    programs += [(seed, randgen.random_program(randgen.rng_for(seed)))
                 for seed in range(400)]
    programs += [(f"loop {seed}",
                  randgen.random_loop_program(randgen.rng_for(seed)))
                 for seed in range(100)]
    for name, tp in programs:
        c = calculate(tp)
        for r in (c.peri, c.post):
            again = normalize(r, tp.symtab)
            assert again == r and str(again) == str(r), name


def _relation_nodes(r):
    """r and every relation inside it."""
    yield r
    if isinstance(r, ROr):
        for a in r.args:
            yield from _relation_nodes(a)
    elif isinstance(r, RSeq):
        yield from _relation_nodes(r.first)
        yield from _relation_nodes(r.second)
    elif isinstance(r, RStar):
        yield from _relation_nodes(r.body)


def test_calculated_relations_hold_only_normal_form_nodes():
    """A calculated peri- or postcondition is built of the empty relation,
    atoms, disjunctions, sequences and iterations, and of nothing else: over
    the corpus and the batches `crosscheck --random 300 [--loops]` checks,
    at seeds 0-2 (100 loop programs a seed)."""
    programs = [dsl.load_program(p.read_text())
                for p in sorted(CORPUS.glob("*.rp")) if p.stem != "while_bad"]
    for seed in range(3):
        for make, count in ((randgen.random_program, 300),
                            (randgen.random_loop_program, 100)):
            rng = randgen.rng_for(seed)
            programs += [make(rng) for _ in range(count)]
    forms = set()
    for tp in programs:
        c = calculate(tp)
        for r in (c.peri, c.post):
            forms.update(type(n) for n in _relation_nodes(r))
    assert forms == {RFalse, RAtom, ROr, RSeq, RStar}


# ---------------------------------------------------------------------------
# Derived facts against the ground reading


def _calculated_contracts():
    """(symbol table, contract) of every corpus program the calculator
    accepts, of `random_program` seeds 0-199 and of `random_loop_program`
    seeds 0-49."""
    programs = [dsl.load_program(p.read_text())
                for p in sorted(CORPUS.glob("*.rp"))]
    programs += [randgen.random_program(randgen.rng_for(seed))
                 for seed in range(200)]
    programs += [randgen.random_loop_program(randgen.rng_for(seed))
                 for seed in range(50)]
    for tp in programs:
        try:
            yield tp.symtab, calculate(tp)
        except (NotProductiveError, NormalizationIncomplete):
            continue


def _trace_growth(c, symtab, bound):
    """Whether some terminated instance within `bound` extends the trace,
    and whether some keeps it."""
    grows = {bool(tt) for s in symtab.valuations()
             for tt, _ in ground.final_instances(c.post, s, symtab, bound)}
    return True in grows, False in grows


def test_derived_facts_hold_on_the_ground():
    told = 0
    for symtab, c in _calculated_contracts():
        extends, keeps = _trace_growth(c, symtab, 3)
        if c.productive:
            assert not keeps, c
        if silent(c.post):
            assert not extends, c
        if c.instantaneous:
            assert c.peri == FALSE_R and not extends, c
        told += c.productive or silent(c.post)
    assert told > 200


def test_a_literal_payload_is_saturated_into_its_carrier():
    # head(<>) evaluates to 0, outside out's carrier; the oracle and the
    # ground reading saturate the event to out.1, and so does the calculator
    source = ("channel out : int[1..2]\nvar bf : seq int[1..2] maxlen 2\n"
              "bf := <> ; out!head(bf) -> ")
    assert str(calc_src(source + "skip")[0]) == (
        "⦗true_r | E(true | <> | {out.1}) "
        "| Phi(true | {bf |-> <>} | <out.1>)⦘")
    assert str(calc_src(source + "chaos")[0]) == (
        "⦗not I(true | <out.1>) | E(true | <> | {out.1}) | false⦘")


def _event_terms(x):
    """The event terms anywhere inside a contract, relation or atom."""
    if isinstance(x, EventTerm):
        yield x
    elif isinstance(x, Node):
        for f in x._fields:
            yield from _event_terms(getattr(x, f))
    elif isinstance(x, tuple):
        for y in x:
            yield from _event_terms(y)


def test_every_literal_payload_lies_in_its_carrier():
    checked = 0
    for symtab, c in _calculated_contracts():
        for term in _event_terms(c):
            if isinstance(term.data, Lit):
                carrier = symtab.channels[term.chan].values()
                assert term.data.value in list(carrier), (term, c)
                checked += 1
    # 493 literal payloads
    assert checked > 400


def test_derived_facts_are_exact_on_star_free_postconditions():
    # a star-free postcondition in normal form is a disjunction of
    # terminated atoms whose conditions hold somewhere: each has an instance
    # as long as its trace
    checked = 0
    for symtab, c in _calculated_contracts():
        atoms = disjuncts(c.post)
        if not all(isinstance(d, RAtom) for d in atoms):
            continue
        longest = max((len(d.atom.trace) for d in atoms), default=0)
        extends, keeps = _trace_growth(c, symtab, longest)
        assert (c.productive, silent(c.post)) == (not keeps, not extends), c
        checked += 1
    assert checked > 200
