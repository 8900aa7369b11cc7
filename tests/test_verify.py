"""Refinement discharge, loop invariants, and deadlock freedom."""

import json
from pathlib import Path

import pytest

from rdes import cli, dsl, ground
from rdes.contracts import calculate, chaos_c, miracle_c, while_contract
from rdes.relalg import (
    EventTerm,
    RAtom,
    RSeq,
    RTest,
    TRUE_PRE,
    TRUE_R,
    event_set,
    normalize,
    quiescent,
)
from rdes.state import (
    Acc,
    BinOp,
    Lit,
    Primed,
    Proj,
    TRUE,
    Var,
    valuation_of,
)
from rdes.verify import (
    Config,
    InvariantRel,
    Obligation,
    SeqInv,
    SpecTriple,
    assign_then_contract_reduction,
    check_deadlock_free,
    check_invariant_loop,
    check_rrel_refine,
    deadlock_free_spec,
    inv_check_program,
    refine_check,
    refine_obligations,
)

CFG = Config()

BUFFER = """\
channel inp : int[0..1]
channel out : int[0..1]
var bf : seq int[0..1] maxlen 2
bf := <> ;
while true do (
  inp?v -> bf := bf ++ <v>
  [] #bf > 0 & out!head(bf) -> bf := tail(bf)
)
"""


@pytest.fixture(scope="module")
def buffer():
    tp = dsl.load_program(BUFFER)
    return tp, calculate(tp)


def test_reflexive_refinement(buffer):
    tp, c = buffer
    v = refine_check(c, c, tp.symtab, CFG)
    assert v.verified


def test_obligation_shapes(buffer):
    tp, c = buffer
    obs = refine_obligations(c, c)
    assert [o.kind for o in obs] == ["pre", "peri", "post"]
    # implementation precondition on the left of the weakening obligation
    assert obs[0].lhs is c.pre and obs[0].rhs is c.pre


def test_chaos_refined_by_everything(buffer):
    tp, c = buffer
    for impl in (c, calculate(dsl.load_program("skip"))):
        v = refine_check(chaos_c(), impl, tp.symtab, CFG)
        assert v.verified


def test_miracle_refines_everything(buffer):
    tp, c = buffer
    v = refine_check(c, miracle_c(), tp.symtab, CFG)
    assert v.verified


def test_choice_does_not_refine_single_prefix():
    tp = dsl.load_program("channel a\nchannel c\na -> skip")
    narrow = calculate(tp)
    wide = calculate(
        dsl.load_program("channel a\nchannel c\na -> skip [] c -> skip")
    )
    # the choice can perform c, which the spec forbids
    v = refine_check(narrow, wide, tp.symtab, CFG)
    assert v.kind == "refuted"
    assert v.witness["trace"] == "<c>"


def test_refusal_narrowing_refuted():
    tp = dsl.load_program("channel a\nchannel c\na -> skip")
    narrow = calculate(tp)
    wide = calculate(
        dsl.load_program("channel a\nchannel c\na -> skip [] c -> skip")
    )
    # the single prefix may refuse c at quiescence; the choice may not
    v = refine_check(wide, narrow, tp.symtab, CFG)
    assert v.kind == "refuted"
    assert v.witness["trace"] == "<>"
    assert "c" not in v.witness["accept"]


def test_witness_replay(buffer):
    tp, c = buffer
    stop = calculate(dsl.load_program("stop"))
    spec = SpecTriple(
        TRUE_PRE,
        InvariantRel("peri", BinOp("!=", Acc(), Lit(frozenset()))),
        TRUE_R,
    )
    v = refine_check(spec, stop, SpecTripleTab(), CFG)
    assert v.kind == "refuted"
    # replay: the witness satisfies the implementation side and fails the
    # invariant
    s = valuation_of({})
    assert ground.holds_quiet(stop.peri, s, (), frozenset(), SpecTripleTab())


def SpecTripleTab():
    from rdes.state import SymbolTable

    return SymbolTable({}, {})


def test_deadlock_freedom_of_buffer(buffer):
    tp, c = buffer
    v = check_deadlock_free(c, tp.symtab, CFG)
    assert v.verified
    assert v.bounds["trace"] == 4


def test_deadlock_witnesses_minimal():
    tp = dsl.load_program("channel a\na -> stop")
    v = check_deadlock_free(calculate(tp), tp.symtab, CFG)
    assert v.kind == "refuted"
    assert v.witness["trace"] == "<a>"
    tp0 = dsl.load_program("stop")
    v0 = check_deadlock_free(calculate(tp0), tp0.symtab, CFG)
    assert v0.witness["trace"] == "<>"


def test_invariant_loop_on_buffer(buffer):
    tp, _ = buffer
    inv = dsl.parse_invariant("outps(tt) <= bf ++ inps(tt)", tp.symtab)
    verdict, reduced = inv_check_program(tp, inv, CFG)
    assert verdict.verified
    assert reduced.peri.body == BinOp("<=", Proj("out"), Proj("inp"))


def test_invariant_loop_top_invariants(buffer):
    tp, _ = buffer
    loop = tp.body.second
    body_c = calculate(dsl.TypedProgram(tp.symtab, loop.body))
    v = check_invariant_loop(
        loop.cond,
        body_c,
        (TRUE_PRE, InvariantRel("peri", TRUE), TRUE_R),
        tp.symtab,
        CFG,
    )
    assert v.verified


def test_wrong_invariant_refuted_with_input_witness(buffer):
    tp, _ = buffer
    wrong = dsl.parse_invariant("inps(tt) <= outps(tt)", tp.symtab)
    verdict, _ = inv_check_program(tp, wrong, CFG)
    assert verdict.kind == "refuted"
    assert "inp" in verdict.witness["trace"]


def test_invariant_rule_agrees_with_direct_refinement(buffer):
    # soundness shadow: when the single-step conditions verify, so does the
    # direct bounded refinement against the calculated loop
    tp, _ = buffer
    loop = tp.body.second
    body_c = calculate(dsl.TypedProgram(tp.symtab, loop.body))
    i2 = InvariantRel(
        "peri", dsl.parse_invariant("outps(tt) <= bf ++ inps(tt)", tp.symtab)
    )
    stepwise = check_invariant_loop(
        loop.cond, body_c, (TRUE_PRE, i2, TRUE_R), tp.symtab, CFG
    )
    assert stepwise.verified
    whole = while_contract(loop.cond, body_c, tp.symtab)
    direct = refine_check(
        SpecTriple(TRUE_PRE, i2, TRUE_R), whole, tp.symtab, CFG
    )
    assert direct.verified


def test_verified_is_monotonic_in_bounds(buffer):
    tp, c = buffer
    for tb in (1, 2, 3):
        v = check_deadlock_free(c, tp.symtab, Config(trace_bound=tb))
        assert v.verified


def test_assign_reduction_examples(buffer):
    tp, _ = buffer
    from rdes.state import assignment_subst

    s = assignment_subst({"bf": Lit(())}, tp.symtab)
    spec = SpecTriple(
        TRUE_PRE,
        InvariantRel(
            "peri",
            dsl.parse_invariant("outps(tt) <= bf ++ inps(tt)", tp.symtab),
        ),
        TRUE_R,
    )
    reduced = assign_then_contract_reduction(s, spec, tp.symtab)
    assert reduced.peri.body == BinOp("<=", Proj("out"), Proj("inp"))
    # identity leaves the spec alone
    from rdes.state import IDENTITY

    same = assign_then_contract_reduction(IDENTITY, spec, tp.symtab)
    assert same.peri.body == spec.peri.body


def test_assign_reduction_on_atoms():
    from rdes.state import IntType, SymbolTable, assignment_subst

    tab = SymbolTable({"x": IntType(0, 3)}, {"a": IntType(0, 3)})
    s = assignment_subst({"x": Lit(1)}, tab)
    spec = SpecTriple(
        TRUE_PRE,
        RAtom(
            quiescent(
                BinOp("=", Var("x"), Lit(1)),
                (),
                event_set(EventTerm("a", Var("x"))),
            )
        ),
        TRUE_R,
    )
    reduced = assign_then_contract_reduction(s, spec, tab)
    from rdes.relalg import EventTerm as ET

    assert reduced.peri == RAtom(
        quiescent(TRUE, (), event_set(ET("a", Lit(1))))
    )


def test_inconclusive_on_wrong_shape():
    tp = dsl.load_program("channel a\na -> skip")
    v, reduced = inv_check_program(tp, TRUE, CFG)
    assert v.kind == "inconclusive"
    assert reduced is None


def test_pre_obligation_refuted():
    # an implementation that diverges after `a` does not weaken a true
    # precondition
    tp = dsl.load_program("channel a\na -> chaos")
    impl = calculate(tp)
    spec = calculate(dsl.load_program("channel a\na -> skip"))
    v = refine_check(spec, impl, tp.symtab, CFG)
    assert v.kind == "refuted"
    assert v.witness["trace"] == "<a>"


# ---------------------------------------------------------------------------
# Pinned witnesses: one refuted obligation per observation source and kind

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _corpus(name):
    tp = dsl.load_program((CORPUS / f"{name}.rp").read_text())
    return tp, calculate(tp)


def _inline(source):
    tp = dsl.load_program(source)
    return tp, calculate(tp)


def _loop_step(tp):
    loop = tp.body if isinstance(tp.body, dsl.While) else tp.body.second
    body = calculate(dsl.TypedProgram(tp.symtab, loop.body))
    return normalize(RSeq(RTest(loop.cond), body.post), tp.symtab)


def _pre_sweep():
    tp, impl = _inline("channel a\na -> chaos")
    _, spec = _inline("channel a\na -> skip")
    return refine_obligations(spec, impl)[0], tp.symtab


def _peri_instances_widened():
    tp, c = _corpus("a_stop")
    return refine_obligations(deadlock_free_spec(), c)[1], tp.symtab


def _peri_instances():
    tp, spec = _corpus("extchoice")
    _, impl = _corpus("a_stop")
    return refine_obligations(spec, impl)[1], tp.symtab


def _peri_sweep():
    tp, _ = _corpus("buffer")
    i2 = InvariantRel(
        "peri", dsl.parse_invariant("outps(tt)<=bf++inps(tt)", tp.symtab)
    )
    ob = Obligation(i2, SeqInv(_loop_step(tp), i2), "peri", "step")
    return ob, tp.symtab


def _post_instances():
    tp, spec = _corpus("a_stop")
    _, impl = _corpus("extchoice")
    return refine_obligations(spec, impl)[2], tp.symtab


def _post_sweep():
    tp, _ = _inline(
        "var x : int[0..2]\nchannel a\nwhile x < 2 do a -> x := x + 1"
    )
    i3 = InvariantRel("post", BinOp("=", Primed("x"), Var("x")))
    ob = Obligation(i3, SeqInv(_loop_step(tp), i3), "post", "step")
    return ob, tp.symtab


@pytest.mark.parametrize(
    "build, bound, witness",
    [
        (_pre_sweep, 4, {"state": "{}", "trace": "<a>",
                         "violates": "precondition weakening"}),
        (_peri_instances_widened, 4,
         {"state": "{}", "trace": "<a>", "accept": "{}"}),
        (_peri_instances, 4, {"state": "{}", "trace": "<>", "accept": "{a}"}),
        (_peri_sweep, 5, {"state": "{bf=<0, 0>}",
                          "trace": "<inp.0, inp.1, out.0, out.0, out.1>",
                          "accept": "{}"}),
        (_post_instances, 4,
         {"state": "{}", "trace": "<c>", "state_after": "{}"}),
        (_post_sweep, 4,
         {"state": "{x=0}", "trace": "<a>", "state_after": "{x=1}"}),
    ],
    ids=["pre-sweep", "peri-instances-widened", "peri-instances",
         "peri-sweep", "post-instances", "post-sweep"],
)
def test_least_witness_per_source_and_kind(build, bound, witness):
    ob, symtab = build()
    v = check_rrel_refine(ob, symtab, Config(trace_bound=bound))
    assert v.kind == "refuted"
    assert v.witness == witness


def test_invariant_implies_spec_gives_least_witness(capsys):
    # bf := <> reduces the invariant to outps(tt) <= inps(tt), which allows
    # one input from any state; the spec allows none from a non-empty buffer
    code = cli.main([
        "refine", str(CORPUS / "buffer.rp"),
        "--invariant", "outps(tt)<=bf++inps(tt)",
        "--peri", "(#bf = 0 and #inps(tt) < 3) or (#bf > 0 and #inps(tt) < 1)",
        "--trace-bound", "4", "--format", "json",
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["witness"] == {
        "state": "{bf=<0, 0>}", "trace": "<inp.0>", "accept": "{}",
    }


# Bounds that an instance index per obligation brings within seconds

BUFFER_INV = "outps(tt)<=bf++inps(tt)"
DROPPED_INPUT = {"state": "{bf=<0, 0>}",
                 "trace": "<inp.0, inp.1, out.0, out.0, out.1>",
                 "accept": "{}"}


def _json_verdict(capsys, *argv):
    code = cli.main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_buffer_self_refinement_at_bound_six(capsys):
    buffer = str(CORPUS / "buffer.rp")
    code, v = _json_verdict(capsys, "refine", buffer, buffer,
                            "--trace-bound", "6")
    assert (code, v["verdict"]) == (0, "verified")


@pytest.mark.parametrize("bound, witness", [(4, None), (5, DROPPED_INPUT),
                                            (6, DROPPED_INPUT)])
def test_buffer_invariant_broken_by_saturating_append(capsys, bound, witness):
    # from the full buffer the append drops inp.0, which takes five events
    # to show; the least witness stays the same once it is in reach
    code, v = _json_verdict(capsys, "inv-check", str(CORPUS / "buffer.rp"),
                            "--invariant", BUFFER_INV,
                            "--trace-bound", str(bound))
    assert code == (0 if witness is None else 1)
    assert v.get("witness") == witness
