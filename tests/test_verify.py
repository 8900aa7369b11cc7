"""Refinement discharge, loop invariants, and deadlock freedom."""

import contextlib
import functools
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from rdes import cli, dsl, ground, randgen, verify
from rdes.contracts import (
    Contract,
    NotProductiveError,
    calculate,
    chaos_c,
    miracle_c,
    while_contract,
)
from rdes.kleene import star_wp
from rdes.view import instances
from rdes.relalg import (
    EventTerm,
    PreNF,
    RAtom,
    RSeq,
    TRUE_PRE,
    TRUE_R,
    event_set,
    ground_trace,
    guard_pre,
    normalize,
    quiescent,
    reads_writes,
    state_test,
)
from rdes.state import (
    Acc,
    BinOp,
    Lit,
    Not,
    Primed,
    Proj,
    TRUE,
    IntType,
    SymbolTable,
    Var,
    assignment_subst,
    eval_expr,
    negate,
    subterms,
    valuation_of,
)
from rdes.verify import (
    Config,
    InvariantRel,
    Obligation,
    SeqInv,
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
    spec = Contract(
        TRUE_PRE,
        InvariantRel("peri", BinOp("!=", Acc(), Lit(frozenset()))),
        TRUE_R,
    )
    v = refine_check(spec, stop, _empty_tab(), CFG)
    assert v.kind == "refuted"
    # replay: the witness satisfies the implementation side and fails the
    # invariant
    s = valuation_of({})
    assert ground.holds_quiet(stop.peri, s, (), frozenset(), _empty_tab())


def _empty_tab():
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
        Contract(TRUE_PRE, i2, TRUE_R), whole, tp.symtab, CFG
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
    spec = Contract(
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
    spec = Contract(
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


def test_the_loop_rule_reads_the_calculated_loop():
    # the calculator makes chaos of this loop, so it has no step to read
    chaos = dsl.load_program("var x : int[0..3]\nwhile true do x := x + 1")
    assert calculate(chaos) == chaos_c()
    with pytest.raises(NotProductiveError):
        inv_check_program(chaos, TRUE, CFG)
    # a guard that holds nowhere calculates as skip, and the rule holds
    never = dsl.load_program(
        "var x : int[0..3]\nx := 0 ; while x > 5 do x := x + 1")
    assert calculate(never) == calculate(
        dsl.load_program("var x : int[0..3]\nx := 0"))
    verdict, _ = inv_check_program(never, Lit(False), CFG)
    assert verdict.verified


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


def _guarded_step(symtab, loop):
    body = calculate(dsl.TypedProgram(symtab, loop.body))
    return normalize(RSeq(state_test(loop.cond), body.post), symtab)


def _loop_step(tp):
    loop = tp.body if isinstance(tp.body, dsl.While) else tp.body.second
    return _guarded_step(tp.symtab, loop)


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


def _peri_sweep_assumed():
    # the assumption tells <a, b> from <b, a>, which the sides cannot
    tp, _ = _inline("channel a\nchannel b\nskip")
    once = InvariantRel("peri", dsl.parse_invariant("#proj(tt, a) < 1",
                                                    tp.symtab))
    _, first_a = _inline("channel a\nchannel b\na -> chaos")
    ob = Obligation(once, InvariantRel("peri", TRUE), "peri", "implied",
                    assume=first_a.pre)
    return ob, tp.symtab


def _peri_sweep_after_relation():
    # the invariant reads no channel, and only the relation tells <a, a>
    # from <a>
    tp, c = _corpus("a_stop")
    full = InvariantRel("peri", BinOp("=", Acc(), Lit(frozenset(
        tp.symtab.alphabet()))))
    return Obligation(c.peri, full, "peri", "implied"), tp.symtab


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
        (_peri_sweep_assumed, 4,
         {"state": "{}", "trace": "<b, a>", "accept": "{}"}),
        (_peri_sweep_after_relation, 4,
         {"state": "{}", "trace": "<a, a>", "accept": "{a}"}),
        (_post_instances, 4,
         {"state": "{}", "trace": "<c>", "state_after": "{}"}),
        (_post_sweep, 4,
         {"state": "{x=0}", "trace": "<a>", "state_after": "{x=1}"}),
    ],
    ids=["pre-sweep", "peri-instances-widened", "peri-instances",
         "peri-sweep", "peri-sweep-assumed", "peri-sweep-after-relation",
         "post-instances", "post-sweep"],
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


# The paper's buffer: an input only while there is room, so none is dropped

GUARDED = str(CORPUS / "buffer_guarded.rp")


@pytest.mark.parametrize("bound", [4, 5, 6, 7])
def test_guarded_buffer_keeps_the_buffer_invariant(capsys, bound):
    code, v = _json_verdict(capsys, "inv-check", GUARDED,
                            "--invariant", BUFFER_INV,
                            "--trace-bound", str(bound))
    assert (code, v["verdict"]) == (0, "verified")


def test_guarded_buffer_is_deadlock_free(capsys):
    code, v = _json_verdict(capsys, "dlf", GUARDED)
    assert (code, v["verdict"]) == (0, "verified")


def test_guarded_buffer_contract_agrees_with_the_oracle(capsys):
    code, report = _json_verdict(capsys, "crosscheck", GUARDED,
                                 "--trace-bound", "5")
    assert (code, report["programs"], report["differences"]) == (0, 1, 0)


# ---------------------------------------------------------------------------
# Precondition obligations: calculation against a brute-force sweep


def _swept_pre_failure(ob, symtab, bound):
    """(trace length, witness) of the first observation in witness order
    that the right-hand side and the assumption allow and the left-hand side
    does not, found by testing every trace within the bound from every
    state; None if there is none."""
    def active(pre, s):
        return [ground_trace(c.trace, symtab, s)
                for c in pre.clauses if eval_expr(c.cond, s)]

    def holds(traces, tt):
        return not any(tt[: len(t)] == t for t in traces)

    # a state where no left-hand clause is active fails nowhere
    states = [
        (s, active(ob.lhs, s), active(ob.rhs, s) + active(ob.assume, s))
        for s in sorted(symtab.valuations(), key=str)
    ]
    states = [x for x in states if x[1]]
    alphabet = sorted(symtab.alphabet(), key=str)
    for n in range(bound + 1):
        for tt in itertools.product(alphabet, repeat=n):
            for s, lhs, rhs in states:
                if holds(rhs, tt) and not holds(lhs, tt):
                    return n, {
                        "state": str(s),
                        "trace": "<" + ", ".join(map(str, tt)) + ">",
                        "violates": ob.origin,
                    }
    return None


def _declared(spec, impl):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli._check_declared("spec", spec.symtab, "impl", impl.symtab)
    except SystemExit:
        return False
    return True


def _corpus_pre_obligations():
    programs = []
    for path in sorted(CORPUS.glob("*.rp")):
        if path.stem != "while_bad":
            programs.append(_corpus(path.stem))
    for (spec_tp, spec), (impl_tp, impl) in itertools.product(programs,
                                                              repeat=2):
        if _declared(spec_tp, impl_tp):
            yield refine_obligations(spec, impl)[0], impl_tp.symtab


def _loop_assumption(loop, symtab, assumed=None):
    """The loop rule's assumption: the body's precondition, or `assumed`
    in its place, saturated over the guarded step.  Three saturation steps
    keep the clause sets small, and a clause set that has not converged is
    a precondition all the same."""
    body = calculate(dsl.TypedProgram(symtab, loop.body))
    step = normalize(RSeq(state_test(loop.cond), body.post), symtab)
    pre = body.pre if assumed is None else assumed
    return star_wp(step, guard_pre(loop.cond, pre, symtab), symtab, 3).clauses


def _clause_subsets(pre):
    """Every subset of a precondition's clauses, or for more than three
    clauses each single clause."""
    n = len(pre.clauses)
    sizes = range(n + 1) if n <= 3 else (1,)
    return {
        PreNF(sub)
        for k in sizes
        for sub in itertools.combinations(pre.clauses, k)
    }


# The sweep's bound, and the most (trace, state) pairs it may test for one
# obligation of a random program, which keeps this test within seconds
SWEEP_BOUND = 5
SWEEP_PAIRS = 10_000


def _precondition_families():
    """(symbol table, preconditions over it): calculated preconditions and
    loop assumptions saturated by `star_wp`."""
    for name in ("buffer", "buffer_guarded", "while_chaos"):
        tp, c = _corpus(name)
        loop = tp.body if isinstance(tp.body, dsl.While) else tp.body.second
        yield tp.symtab, [c.pre, _loop_assumption(loop, tp.symtab)]
    for seed in range(120):
        rng = randgen.rng_for(seed)
        tp = randgen.random_program(rng)
        pre = calculate(tp).pre
        symtab = tp.symtab
        pairs = len(symtab.alphabet()) ** SWEEP_BOUND * len(
            symtab.valuations())
        if pre.clauses and pairs <= SWEEP_PAIRS:
            # the calculated precondition, carried back through a loop
            loop = randgen.random_while_program(rng, symtab)
            pres = [pre, _loop_assumption(loop, symtab, pre)]
            yield symtab, pres
            yield from _without_dataless_channels(symtab, pres)
    for seed in range(10):
        tp = randgen.random_loop_program(randgen.rng_for(seed))
        yield tp.symtab, [calculate(tp).pre,
                          _loop_assumption(tp.body, tp.symtab)]


def _without_dataless_channels(symtab, pres):
    """The preconditions read over a table that lacks one dataless channel
    their clauses mention, so that some clause traces leave the alphabet."""
    mentioned = {e.chan for p in pres for c in p.clauses for e in c.trace}
    for chan in sorted(mentioned):
        if symtab.channels[chan] is None:
            channels = dict(symtab.channels)
            del channels[chan]
            yield SymbolTable(symtab.variables, channels), pres


def _pre_obligations():
    """Every corpus refinement's precondition obligation, and obligations
    between each family's preconditions, `true_r` and clause subsets, each
    subset also as the assumption."""
    yield from _corpus_pre_obligations()
    for symtab, pres in _precondition_families():
        sides = set(itertools.product([TRUE_PRE, *pres], repeat=2))
        for pre in pres:
            for sub in _clause_subsets(pre):
                sides |= {(pre, sub), (sub, pre)}
                yield Obligation(pre, TRUE_PRE, "pre", "assumed",
                                 assume=sub), symtab
        for lhs, rhs in sorted(sides, key=str):
            yield Obligation(lhs, rhs, "pre", "weakening"), symtab


def test_calculated_pre_obligations_match_the_sweep():
    refuted = verified_within = bounded = 0
    for ob, symtab in _pre_obligations():
        swept = _swept_pre_failure(ob, symtab, SWEEP_BOUND)
        for bound in range(1, SWEEP_BOUND + 1):
            v = check_rrel_refine(ob, symtab, Config(trace_bound=bound))
            if swept is not None and swept[0] <= bound:
                assert (v.kind, v.witness, v.scope) == (
                    "refuted", swept[1], "unbounded"), (ob, bound)
                refuted += 1
            else:
                assert v.kind == "verified", (ob, bound)
                if swept is not None:
                    # a failure beyond this bound: never relabel as unbounded
                    assert v.scope == "bounded", (ob, bound)
                    bounded += 1
                verified_within += 1
    assert refuted > 500 and verified_within > 1000 and bounded > 100


# ---------------------------------------------------------------------------
# Enumerated obligations: the step-driven loop against a brute-force sweep


def _swept_failure(ob, symtab, bound):
    """(trace length, witness) of the first observation in witness order
    that the right-hand side and the assumption allow and the left-hand side
    does not, found by testing every trace, state and accepted set or final
    state within the bound; None if there is none.  A step followed by an
    invariant allows (s, tt, x) when some split tt = t1 + t2 has a
    terminated step instance (t1, s1) from s and the invariant holds at
    (s1, t2, x).  A pericondition relation allows (s, tt, x) when it has a
    quiescent instance (tt, e) from s with e a subset of x."""
    peri = ob.kind == "peri"
    pauses = {}  # relation's id -> state -> trace -> accepted sets
    for side in (ob.lhs, ob.rhs):
        if not isinstance(side, (InvariantRel, SeqInv)) and side != TRUE_R:
            pauses[id(side)] = {s: {} for s in symtab.valuations()}
            for s, by_trace in pauses[id(side)].items():
                for t, e in ground.quiet_instances(side, s, symtab, bound):
                    by_trace.setdefault(t, []).append(e)

    def holds(side, s, tt, x):
        if side == TRUE_R:
            return True
        if id(side) in pauses:
            return any(e <= x for e in pauses[id(side)][s].get(tt, ()))
        if peri:
            return bool(eval_expr(side.body, s, tt=tt, acc=x))
        return bool(eval_expr(side.body, s, tt=tt, primed=x))

    if isinstance(ob.rhs, SeqInv):
        steps = {}
        for s in symtab.valuations():
            steps[s] = by_trace = {}
            for t1, s1 in ground.final_instances(ob.rhs.prefix, s, symtab,
                                                 bound):
                by_trace.setdefault(t1, []).append(s1)

        def rhs(s, tt, x):
            return any(
                holds(ob.rhs.inv, s1, tt[n:], x)
                for n in range(len(tt) + 1)
                for s1 in steps[s].get(tt[:n], ())
            )
    else:
        def rhs(s, tt, x):
            return holds(ob.rhs, s, tt, x)

    def assumed(s, tt):
        return all(ground.holds_pre_clause(c.cond, c.trace, s, tt, symtab)
                   for c in ob.assume.clauses)

    states = sorted(symtab.valuations(), key=str)
    alphabet = sorted(symtab.alphabet(), key=str)
    if not peri:
        xs = states
    elif _reads_acc(ob.lhs) or _reads_acc(ob.rhs):
        xs = sorted((frozenset(c) for k in range(len(alphabet) + 1)
                     for c in itertools.combinations(alphabet, k)),
                    key=lambda x: sorted(map(str, x)))
    else:
        xs = [frozenset()]
    for n in range(bound + 1):
        for tt in itertools.product(alphabet, repeat=n):
            for s in states:
                if not assumed(s, tt):
                    continue
                for x in xs:
                    if rhs(s, tt, x) and not holds(ob.lhs, s, tt, x):
                        witness = {"state": str(s), "trace": "<" + ", ".join(
                            map(str, tt)) + ">"}
                        if peri:
                            witness["accept"] = "{" + ", ".join(
                                sorted(map(str, x))) + "}"
                        else:
                            witness["state_after"] = str(x)
                        return n, witness
    return None


def _reads_acc(side):
    if isinstance(side, SeqInv):
        side = side.inv
    return isinstance(side, InvariantRel) and "Acc()" in repr(side.body)


def _invariants(symtab, rng):
    """Peri- and postcondition invariants over a table: `acc`, a projection
    of its first channel, a primed variable and random state conditions,
    and with two channels or more, one that reads the first and last
    channel and one that reads only the last."""
    cond = randgen.random_cond(rng, symtab)
    peri = [dsl.parse_invariant("acc != {}", symtab),
            dsl.parse_invariant("acc = {}", symtab), cond]
    post = [cond]
    channels = sorted(symtab.channels)
    for chan in channels[:1]:
        count = dsl.parse_invariant(f"#proj(tt, {chan}) <= 1", symtab)
        peri += [count, BinOp("or", cond, count)]
    if len(channels) > 1:
        first, last = channels[0], channels[-1]
        peri += [dsl.parse_invariant(
            f"#proj(tt, {first}) <= #proj(tt, {last})", symtab),
            dsl.parse_invariant(f"#proj(tt, {last}) < 2 or acc = {{}}",
                                symtab)]
    for name in sorted(symtab.variables)[:1]:
        same = BinOp("=", Primed(name), Var(name))
        post += [same, BinOp("or", cond, Not(same))]
    return ([InvariantRel("peri", b) for b in peri],
            [InvariantRel("post", b) for b in post])


# The most (trace, state, accepted set or final state) triples the sweep may
# test for one obligation at SWEEP_BOUND, which keeps this test within
# seconds
SWEEP_TRIPLES = 10_000


def _loop_programs():
    """(symbol table, loop, further pericondition invariants)"""
    for name in ("buffer", "buffer_guarded", "while_chaos"):
        tp, _ = _corpus(name)
        loop = tp.body if isinstance(tp.body, dsl.While) else tp.body.second
        extra = [BUFFER_INV] if "bf" in tp.symtab.variables else []
        yield tp.symtab, loop, [
            InvariantRel("peri", dsl.parse_invariant(i, tp.symtab))
            for i in extra]
    for seed in range(20):
        tp = randgen.random_loop_program(randgen.rng_for(seed))
        yield tp.symtab, tp.body, []


def _assumption(symtab, rng):
    """A precondition that excludes every trace from one random event on."""
    if not symtab.channels:
        return TRUE_PRE
    ev = randgen.random_event(rng, symtab)
    action = dsl.Seq(dsl.DoEvent(ev.chan, ev.data), dsl.Chaos())
    return calculate(dsl.TypedProgram(symtab, action)).pre


def _enumerated_obligations():
    """Step obligations of each loop with each invariant, the pericondition
    ones also under an assumption, and ordered pairs of its pericondition
    invariants as a reduced invariant and a specification."""
    rng = randgen.rng_for(7)
    for symtab, loop, extra in _loop_programs():
        peri, post = _invariants(symtab, rng)
        peri += extra
        assumption = _assumption(symtab, rng)
        states = len(symtab.valuations())
        events = len(symtab.alphabet())
        step = _guarded_step(symtab, loop)
        for inv in peri + post:
            xs = 2 ** events if _reads_acc(inv) else 1
            if inv.kind == "post":
                xs = states
            if events ** SWEEP_BOUND * states * xs > SWEEP_TRIPLES:
                continue
            step_ob = Obligation(inv, SeqInv(step, inv), inv.kind, "step")
            yield step_ob, symtab
            if assumption.clauses and inv.kind == "peri":
                yield step_ob._replace(assume=assumption), symtab
        if events ** SWEEP_BOUND * states * 2 ** events <= SWEEP_TRIPLES:
            for spec, reduced in itertools.product(peri[:4], repeat=2):
                yield Obligation(spec, reduced, "peri", "implied"), symtab
            for spec, reduced in itertools.permutations(peri[3:], 2):
                yield Obligation(spec, reduced, "peri", "implied"), symtab
    for name in ("buffer", "buffer_guarded"):
        tp, _ = _corpus(name)
        inv = dsl.parse_invariant(BUFFER_INV, tp.symtab)
        _, reduced = inv_check_program(tp, inv, Config(trace_bound=1))
        for spec in ("(#bf = 0 and #inps(tt) < 3) or "
                     "(#bf > 0 and #inps(tt) < 1)",
                     "#outps(tt) <= #inps(tt)", "#inps(tt) < 2"):
            spec = InvariantRel("peri", dsl.parse_invariant(spec, tp.symtab))
            yield Obligation(spec, reduced.peri, "peri", "implied"), tp.symtab
    yield from _widened_obligations()


def _calculated_periconditions():
    """(symbol table, pericondition) of each corpus program and of random
    programs, those that the ground reading can enumerate."""
    programs = [_corpus(p.stem) for p in sorted(CORPUS.glob("*.rp"))
                if p.stem != "while_bad"]
    for seed in range(40):
        tp = randgen.random_program(randgen.rng_for(seed))
        symtab = tp.symtab
        events = len(symtab.alphabet())
        if (events ** SWEEP_BOUND * len(symtab.valuations()) * 2 ** events
                <= SWEEP_TRIPLES):
            programs.append((tp, calculate(tp)))
    for tp, c in programs:
        try:
            ground.quiet_instances(c.peri, tp.symtab.default_valuation(),
                                   tp.symtab, 1)
        except ground.NotGroundEvaluable:
            continue
        yield tp.symtab, c.peri


def _widened_obligations():
    """Each calculated pericondition against invariants on `acc`: the
    left-hand side can reject a superset of an instance's accepted set, and
    the least such superset of {e2} under acc != {e1, e2} prints before
    {e2} itself.  Also each pericondition on the left of invariants that
    read no channel or one: the relation tells every trace apart."""
    for symtab, peri in _calculated_periconditions():
        bodies = [dsl.parse_invariant("acc != {}", symtab),
                  dsl.parse_invariant("acc = {}", symtab)]
        events = sorted(symtab.alphabet(), key=str)
        if len(events) > 1:
            bodies.append(BinOp("!=", Acc(), Lit(frozenset(events[:2]))))
        for body in bodies:
            yield Obligation(InvariantRel("peri", body), peri, "peri",
                             "widened"), symtab
        # a trace on which the relation does not pause fails
        full = BinOp("=", Acc(), Lit(frozenset(events)))
        for chan in sorted(symtab.channels)[-1:]:
            count = dsl.parse_invariant(f"#proj(tt, {chan}) < 2", symtab)
            for body in (full, BinOp("and", count, full)):
                yield Obligation(peri, InvariantRel("peri", body), "peri",
                                 "relation on the left"), symtab


def test_enumerated_obligations_match_the_sweep():
    refuted = verified = 0
    for ob, symtab in _enumerated_obligations():
        swept = _swept_failure(ob, symtab, SWEEP_BOUND)
        for bound in range(1, SWEEP_BOUND + 1):
            v = check_rrel_refine(ob, symtab, Config(trace_bound=bound))
            if swept is not None and swept[0] <= bound:
                assert (v.kind, v.witness) == ("refuted", swept[1]), (
                    ob, bound)
                refuted += 1
            else:
                assert v.kind == "verified", (ob, bound)
                verified += 1
    assert refuted > 800 and verified > 1500


# ---------------------------------------------------------------------------
# The suffix sweep that the monitor search replaced, kept as its reference


def _sweep(ob, symtab, least, view):
    """Offer every failing observation of a right-hand invariant, alone or
    after a step (`_invariant_observations`)."""
    lhs = verify._member(ob.lhs, ob.kind, view)
    observations = _invariant_observations(ob, symtab, least, view)
    for s in verify._starts(ob, symtab):
        assumed = verify._active_traces(ob.assume.clauses, symtab, s)
        last = None
        for tt, x in observations(s):
            if len(tt) > least.longest:
                continue
            if assumed and verify._extends(tt, assumed):
                continue
            if tt != last:
                least.traces += 1
                last = tt
            if not lhs(s, tt, x):
                least.offer(s, tt, x)


def _invariant_observations(ob, symtab, least, view):
    """s -> the observations (tt, x) from s of an invariant I, alone or as
    `SeqInv(step, I)`: from ((), s), or from each terminated step instance
    (t1, s1) over the alphabet, (t1 + t2, x) for each swept suffix t2 with
    len(t1 + t2) <= least.longest and each accepted set or final state x
    with I true at (s1, t2, x).

    The swept suffixes are one per class of traces that the obligation
    cannot tell apart (`_suffixes`), by the channels both sides read.
    Assumed clauses, or a relation on the left, read the trace whole, and
    then every trace is swept.  Each reached state s1's suffixes are swept
    once per obligation, shared by every start and step instance that
    reaches s1: one length at a time, when a start first needs it, keeping
    the (t2, x) on which I holds.  So I is evaluated once per (s1, class,
    x), and no suffix longer than the least failure so far is swept."""
    inv = ob.rhs.inv if isinstance(ob.rhs, SeqInv) else ob.rhs
    holds = verify._member(inv, ob.kind, None)
    alphabet = symtab.alphabet()
    if ob.kind == "post":
        xs = symtab.valuations()
    elif verify._mentions_acc(ob.lhs) or verify._mentions_acc(inv):
        xs = verify._accepted_sets(alphabet)
    else:
        xs = (frozenset(),)
    reads = None if ob.assume.clauses else verify._reads(ob.lhs)
    if reads is not None:
        reads |= verify._reads(inv)
    traces = _suffixes(alphabet, reads)
    swept = {}  # s1 -> [the kept (t2, x) with len(t2) = m, for each m]

    def suffixes(s1, m):
        by_length = swept.setdefault(s1, [])
        while len(by_length) <= m:
            by_length.append([(t2, x) for t2 in traces(len(by_length))
                              for x in xs if holds(s1, t2, x)])
        return by_length[m]

    def observations(s):
        starts = (((), s),)
        if isinstance(ob.rhs, SeqInv):
            # in witness order, so where the first failure cuts the sweep
            # short does not depend on the set's iteration order
            starts = sorted(
                instances(view(ob.rhs.prefix, "post"), s, least.bound),
                key=lambda i: (len(i[0]), verify._order_key(i[0]),
                               str(i[1])))
        for t1, s1 in starts:
            if not set(alphabet).issuperset(t1):
                continue
            for n in itertools.count(len(t1)):
                if n > least.longest:
                    break
                yield from ((t1 + t2, x)
                            for t2, x in suffixes(s1, n - len(t1)))

    return observations


def _projections(tt, channels):
    """A trace's projection on each of `channels`, in order."""
    return tuple(tuple(e.data for e in tt if e.chan == c) for c in channels)


def _suffixes(alphabet, channels):
    """m -> the traces of length m over `alphabet` to sweep.  With
    `channels` None that is every trace.  Otherwise it is one trace per
    class of traces over the events of `channels` with equal projections on
    them: the class's least member in witness order.  A suffix with an
    event on another channel passes or fails as it does without the event,
    which is shorter, so none is swept.

    The least member is the greedy merge of the class's per-channel
    sequences, which puts first the least of their heads: events of
    different channels never print equal.  An event prints as its channel's
    name, then a dot and its payload if it has one, and a channel name is
    an identifier, whose characters all print after the dot.  So each event
    of a channel prints before every event of a channel whose name sorts
    after it, and the merge is the sequences' concatenation in channel-name
    order."""
    if channels is None:
        return lambda m: itertools.product(alphabet, repeat=m)
    events = [e for e in alphabet if e.chan in channels]
    levels = [[()]]

    def traces(m):
        while len(levels) <= m:
            levels.append([t + (e,) for t in levels[-1] for e in events
                           if not t or t[-1].chan <= e.chan])
        return levels[m]

    return traces


def _least_failing_superset(inv, symtab):
    """`verify._least_failing_superset` as it was before the monitor: the
    failing sets listed once per state and projection on the channels
    `inv` reads."""
    holds = verify._member(inv, "peri", None)
    channels = sorted(verify._reads(inv))
    accepted = []
    failing = {}  # (s, projections) -> the failing sets, in order

    def first(s, tt, x):
        key = (s, _projections(tt, channels)) if channels else s
        if key not in failing:
            if not accepted:
                accepted.extend(verify._accepted_sets(symtab.alphabet()))
            failing[key] = [a for a in accepted if not holds(s, tt, a)]
        return next((a for a in failing[key] if x <= a), None)

    return first


def _swept_least_failure(ob, symtab, bound):
    """`verify._least_failure` as it was before the monitor search: a
    right-hand invariant is swept on suffixes up to the bound, and a
    right-hand relation walked; a sweep's verdict is always bounded."""
    views = {}

    def view(r, kind=ob.kind):
        if (r, kind) not in views:
            views[r, kind] = verify.View(r, kind, symtab)
        return views[r, kind]

    least = verify._Least(ob.kind, bound)
    if isinstance(ob.rhs, (InvariantRel, SeqInv)):
        _sweep(ob, symtab, least, view)
        least.cut = True
    else:
        verify._walk(ob, symtab, least, view)
    return least.best, least.traces, "bounded" if least.cut else "unbounded"


@contextlib.contextmanager
def _swept(monkeypatch):
    """Discharge obligations by the reference sweep while inside."""
    with monkeypatch.context() as m:
        m.setattr(verify, "_least_failure", _swept_least_failure)
        m.setattr(verify, "_least_failing_superset", _least_failing_superset)
        yield


def _buffer_loop_obligations(invariants, specs=()):
    """The loop-rule obligations of both buffers with each of `invariants`,
    and the implication of each of `specs` by the reduced invariant."""
    for name in ("buffer", "buffer_guarded"):
        tp, _ = _corpus(name)
        loop = tp.body.second
        body = calculate(dsl.TypedProgram(tp.symtab, loop.body))
        for source in invariants:
            i2 = InvariantRel("peri", dsl.parse_invariant(source, tp.symtab))
            yield from ((ob, tp.symtab) for ob in verify._loop_obligations(
                loop.cond, body, (TRUE_PRE, i2, TRUE_R), tp.symtab,
                CFG.wp_bound))
            _, reduced = inv_check_program(tp, i2.body, Config(trace_bound=1))
            for spec in specs:
                spec = InvariantRel("peri", dsl.parse_invariant(spec,
                                                                tp.symtab))
                yield (Obligation(spec, reduced.peri, "peri", "implied"),
                       tp.symtab)


def _search_and_sweep(monkeypatch, ob, symtab, bounds):
    """(the monitor search's verdict, the reference sweep's) at each bound."""
    for bound in bounds:
        cfg = Config(trace_bound=bound)
        got = check_rrel_refine(ob, symtab, cfg)
        with _swept(monkeypatch):
            yield got, check_rrel_refine(ob, symtab, cfg)


def test_the_monitor_search_gives_the_verdicts_of_the_sweep(monkeypatch):
    """The step-driven and implied obligations of `_enumerated_obligations`
    and the loop rule of the buffers with the benchmark's two invariants
    give the sweep's verdict, witness and reason at bounds 1-6.  Where the
    search closes, the verdict holds at every length, so the sweep also
    verifies the obligation at bound 8, and then at every bound below."""
    obligations = [*_enumerated_obligations(), *_buffer_loop_obligations(
        [BUFFER_INV, "outps(tt)<=inps(tt)"], ["outps(tt)<=inps(tt)"])]
    refuted = closed = 0
    for ob, symtab in obligations:
        unbounded = False
        for got, want in _search_and_sweep(monkeypatch, ob, symtab,
                                           range(1, 7)):
            assert (got.kind, got.witness, got.reason) == (
                want.kind, want.witness, want.reason), ob
            refuted += got.kind == "refuted"
            unbounded = unbounded or got.scope == "unbounded"
        if unbounded and ob.kind != "pre":
            with _swept(monkeypatch):
                v = check_rrel_refine(ob, symtab, Config(trace_bound=8))
            assert v.verified, ob
            closed += 1
    assert len(obligations) == 765 and refuted == 2024 and closed == 390


def test_an_invariant_outside_the_fragment_gives_the_sweeps_verdict(
        monkeypatch):
    """Invariants with a leaf that only their projections decide: their
    residues grow with the trace, so a verified step obligation stays
    bounded."""
    outside = ["head(inps(tt)) = 0 or #inps(tt) = 0",
               "#inps(tt) = 0 or head(inps(tt)) <= 1"]
    kinds = []
    for ob, symtab in _buffer_loop_obligations(outside):
        if not isinstance(ob.rhs, SeqInv) or ob.kind != "peri":
            continue
        for got, want in _search_and_sweep(monkeypatch, ob, symtab,
                                           range(1, 7)):
            assert (got.kind, got.witness, got.scope) == (
                want.kind, want.witness, "bounded"), ob
            kinds.append(got.kind)
    assert kinds == ["refuted"] * 6 + ["verified"] * 6 + [
        "refuted"] * 6 + ["verified"] * 6


def _evaluations(monkeypatch, body) -> list:
    """The arguments of each evaluation of `body` that `verify` makes while
    the returned list is filled."""
    calls = []
    real = verify.eval_expr

    def recording(e, s, tt=None, acc=None, primed=None):
        if e == body:
            calls.append((s, tt, acc, primed))
        return real(e, s, tt, acc, primed)

    monkeypatch.setattr(verify, "eval_expr", recording)
    return calls


def _read_channels(*sides):
    return sorted({x.chan for side in sides for x in subterms(side.body)
                   if isinstance(x, Proj)})


def test_each_reached_state_is_swept_once(monkeypatch):
    """An invariant is evaluated once per class of arguments that it cannot
    tell apart: (state, the projections on the channels both sides read, or
    the whole trace under an assumption or after a relation on the left,
    accepted set or final state).  The right-hand invariant is the one
    recorded; an invariant on the left is given an equivalent body of its
    own.  Before a relation it is the left-hand invariant, which reads only
    its own channels."""
    swept = 0
    for ob, symtab in _enumerated_obligations():
        whole = bool(ob.assume.clauses)
        if not isinstance(ob.rhs, (InvariantRel, SeqInv)):
            inv = ob.lhs
            channels = _read_channels(inv)
        elif isinstance(ob.lhs, InvariantRel):
            inv = ob.rhs.inv if isinstance(ob.rhs, SeqInv) else ob.rhs
            ob = ob._replace(lhs=InvariantRel(
                ob.lhs.kind, BinOp("and", TRUE, ob.lhs.body)))
            channels = _read_channels(ob.lhs, inv)
        else:
            inv, whole = ob.rhs, True
        with _swept(monkeypatch), monkeypatch.context() as m:
            calls = _evaluations(m, inv.body)
            check_rrel_refine(ob, symtab, Config(trace_bound=SWEEP_BOUND))
        classes = {
            (s, tt if whole else _projections(tt, channels), acc, primed)
            for s, tt, acc, primed in calls}
        assert len(calls) == len(classes), ob
        swept += len(calls)
    # the step's instances are visited in witness order, so the first
    # failure cuts the sweep short at the same place under every hash seed;
    # one evaluation per argument made about 148,000 over the same
    # obligations
    assert swept == 54_551


def test_suffixes_are_the_least_member_of_each_class():
    """The swept suffixes of each length are the least member in witness
    order of each class of traces over the channels read with equal
    projections on them."""
    # a channel name that begins another, and payloads that print out of
    # numeric order
    symtab = SymbolTable({}, {"a": None, "ab": IntType(0, 1), "c": None,
                              "d": IntType(8, 11)})
    alphabet = symtab.alphabet()
    for channels in ({"a"}, {"ab"}, {"d"}, {"a", "c"}, {"ab", "d"},
                     {"a", "ab", "c", "d"}, set()):
        traces = _suffixes(alphabet, frozenset(channels))
        read = [e for e in alphabet if e.chan in channels]
        for m in range(4):
            least = {}
            for t in sorted(itertools.product(read, repeat=m),
                            key=lambda t: tuple(map(str, t))):
                least.setdefault(_projections(t, sorted(channels)), t)
            assert sorted(traces(m)) == sorted(least.values()), (channels, m)
    # the buffer's two channels at n = 9: (n + 1) * 2^n classes of 4^9
    buffer = _corpus("buffer")[0].symtab
    assert len(_suffixes(buffer.alphabet(),
                         frozenset({"inp", "out"}))(9)) == 5_120


@pytest.mark.parametrize("program, bound, evaluations", [
    # a sweep per step instance would make 9,121, and one per trace 4,688
    ("buffer.rp", 5, 1_980),
    # and 77,697 and 50,392 here
    ("buffer_guarded.rp", 7, 8_188),
])
def test_the_loop_rule_evaluates_the_invariant_once_per_argument(
        monkeypatch, capsys, program, bound, evaluations):
    # the right-hand invariant is evaluated once per class of suffixes, and
    # the left-hand one once per observation of a class
    tp = dsl.load_program((CORPUS / program).read_text())
    calls = _evaluations(monkeypatch, dsl.parse_invariant(BUFFER_INV,
                                                          tp.symtab))
    with _swept(monkeypatch):
        cli.main(["inv-check", str(CORPUS / program), "--invariant",
                  BUFFER_INV, "--trace-bound", str(bound)])
    capsys.readouterr()
    assert len(calls) == evaluations


def test_deadlock_freedom_evaluates_acc_once_per_accepted_set(monkeypatch,
                                                                capsys):
    # acc != {} reads no trace, and the buffer's states form one class, so
    # it is evaluated on each of the 2^4 sets of the alphabet once, where
    # widening each instance's accepted set made 11,272 evaluations
    calls = _evaluations(monkeypatch, deadlock_free_spec().peri.body)
    assert cli.main(["dlf", str(CORPUS / "buffer.rp"),
                     "--trace-bound", "8"]) == 0
    capsys.readouterr()
    assert len(calls) == 16


# ---------------------------------------------------------------------------
# One initial state per class of states that an obligation cannot tell apart


def _classes(symtab, depends):
    """The valuations grouped by their values on the variables `depends`."""
    groups = {}
    for s in symtab.valuations():
        key = tuple(v for n, v in s.items if n in depends)
        groups.setdefault(key, []).append(s)
    return list(groups.values())


# From y = 1 the loop leaves x as it was, and then x = 1 deadlocks
LOOP_THEN_READ = """\
var x : int[0..1]
var y : int[0..1]
channel a
channel b
(while y = 0 do (a -> x := 1 ; y := 1)) ; if x = 0 then b -> skip else stop
"""


def _analysed_relations():
    """(symbol table, relation): the peri- and postcondition of each corpus
    contract, random program and `LOOP_THEN_READ`, and each corpus and
    random loop's guarded step."""
    programs = [_corpus(p.stem) for p in sorted(CORPUS.glob("*.rp"))
                if p.stem != "while_bad"]
    for tp, c in [*programs, _inline(LOOP_THEN_READ)]:
        yield from ((tp.symtab, c.peri), (tp.symtab, c.post))
    for symtab, loop, _ in _loop_programs():
        yield symtab, _guarded_step(symtab, loop)
        c = calculate(dsl.TypedProgram(symtab, loop))
        yield from ((symtab, c.peri), (symtab, c.post))
    for seed in range(100):
        tp = randgen.random_program(randgen.rng_for(seed))
        c = calculate(tp)
        yield from ((tp.symtab, c.peri), (tp.symtab, c.post))


def _built(instances, r, s, symtab):
    try:
        return instances(r, s, symtab, 4)
    except ground.NotGroundEvaluable:
        return None


def test_states_that_agree_on_the_reads_have_the_same_instances():
    """Quiescent instances depend only on the reads, and terminated ones on
    the reads and the unwritten variables, in the ground reading at bound 4.
    """
    compared = 0
    for symtab, r in _analysed_relations():
        variables = frozenset(symtab.variables)
        reads, writes = reads_writes(r, variables)
        for instances, depends in (
            (ground.quiet_instances, reads),
            (ground.final_instances, reads | (variables - writes)),
        ):
            for first, *others in _classes(symtab, depends):
                want = _built(instances, r, first, symtab)
                for s in others:
                    assert _built(instances, r, s, symtab) == want, (
                        r, first, s)
                    compared += 1
    assert compared > 1000


def _loop_rule_obligations():
    """Each loop's pause and exit obligations with its invariants.  Its step
    obligations are `_enumerated_obligations`, whose sweep reference above
    already visits every state."""
    rng = randgen.rng_for(11)
    for symtab, loop, extra in _loop_programs():
        peri, post = _invariants(symtab, rng)
        body = calculate(dsl.TypedProgram(symtab, loop.body))
        pause = normalize(RSeq(state_test(loop.cond), body.peri), symtab)
        exit_ = normalize(state_test(negate(loop.cond)), symtab)
        for inv in peri + extra:
            yield Obligation(inv, pause, "peri", "pause"), symtab
        for inv in post:
            yield Obligation(inv, exit_, "post", "exit"), symtab


def _random_contract_obligations():
    """Peri- and postcondition obligations between two random contracts
    over one table, both ways round, under a random assumption: star-free
    programs, and a loop against a loop followed by a star-free program."""
    for seed in range(60):
        rng = randgen.rng_for(seed)
        if seed < 40:
            tp = randgen.random_program(rng)
            other = randgen.random_star_free(rng, tp.symtab)
        else:
            tp = randgen.random_loop_program(rng)
            other = dsl.Seq(randgen.random_while_program(rng, tp.symtab),
                            randgen.random_star_free(rng, tp.symtab, 2))
        symtab = tp.symtab
        pair = (calculate(tp), calculate(dsl.TypedProgram(symtab, other)))
        assume = _assumption(symtab, rng)
        for lhs, rhs in (pair, pair[::-1]):
            for kind in ("peri", "post"):
                yield Obligation(getattr(lhs, kind), getattr(rhs, kind), kind,
                                 kind, assume=assume), symtab


def _corpus_programs():
    """(name, typed program, contract) of each corpus program the
    calculator accepts."""
    return [(p.stem, *_corpus(p.stem)) for p in sorted(CORPUS.glob("*.rp"))
            if p.stem != "while_bad"]


def _program_checks(programs):
    """(label, Config -> Verdict): the refinement of each ordered pair of
    `programs` whose implementation declares what its specification does,
    and the deadlock freedom of each."""
    for (spec_name, spec_tp, spec), (name, tp, impl) in itertools.product(
            programs, repeat=2):
        if _declared(spec_tp, tp):
            yield (f"refine {spec_name} {name}",
                   functools.partial(refine_check, spec, impl, tp.symtab))
    for name, tp, c in programs:
        yield f"dlf {name}", functools.partial(check_deadlock_free, c,
                                               tp.symtab)


def _class_checks():
    """(label, Config -> Verdict): every refinement and deadlock check of
    the corpus and `LOOP_THEN_READ`, the loop-rule obligations and random
    contract obligations."""
    yield from _program_checks(
        [*_corpus_programs(),
         ("loop_then_read", *_inline(LOOP_THEN_READ))])
    for ob, symtab in itertools.chain(_loop_rule_obligations(),
                                      _random_contract_obligations()):
        yield ob, functools.partial(check_rrel_refine, ob, symtab)


# ---------------------------------------------------------------------------
# The walk over the view against the ground reading it replaced


def _ground_least_failure(ob, symtab, bound):
    """`verify._least_failure` as it read a right-hand relation before the
    view, with no trace count: each relation's ground instance set from a
    visited state, built once per obligation at its bound, is enumerated on
    the right and read on the left through an index from trace to accepted
    sets or final states."""
    assert not isinstance(ob.rhs, (InvariantRel, SeqInv))
    instances = (ground.quiet_instances if ob.kind == "peri"
                 else ground.final_instances)
    built = {}

    def instance_set(r, s):
        if (r, s) not in built:
            built[r, s] = instances(r, s, symtab, bound)
        return built[r, s]

    if not isinstance(ob.lhs, InvariantRel):
        index = {}

        def at(s):
            # trace -> accepted sets or final states of the left from s
            if s not in index:
                index[s] = {}
                for tt, x in instance_set(ob.lhs, s):
                    index[s].setdefault(tt, set()).add(x)
            return index[s]

        if ob.kind == "peri":
            # an instance with accepted set E admits every superset of E
            fails = lambda s, tt, x: None if any(
                e <= x for e in at(s).get(tt, ())) else x
        else:
            fails = lambda s, tt, x: None if x in at(s).get(tt, ()) else x
    elif ob.kind == "peri" and verify._mentions_acc(ob.lhs):
        fails = verify._least_failing_superset(ob.lhs, symtab)
    else:
        holds = verify._member(ob.lhs, ob.kind, None)
        fails = lambda s, tt, x: None if holds(s, tt, x) else x
    x_key = verify._order_key if ob.kind == "peri" else str
    best = best_key = None
    for s in verify._starts(ob, symtab):
        assumed = verify._active_traces(ob.assume.clauses, symtab, s)
        for tt, x in instance_set(ob.rhs, s):
            if best_key is not None and len(tt) > best_key[0]:
                continue
            if assumed and verify._extends(tt, assumed):
                continue
            a = fails(s, tt, x)
            if a is not None:
                key = (len(tt), verify._order_key(tt), str(s), x_key(a))
                if best is None or key < best_key:
                    best, best_key = (s, tt, a), key
    return best, 0, "bounded"


def _invariants_over_relations():
    """(label, Config -> Verdict): each calculated pericondition and
    postcondition of the corpus and of the random loops, on the right of
    the invariants `_invariants` draws, some of which read the trace."""
    rng = randgen.rng_for(13)
    contracts = [(tp.symtab, c) for _, tp, c in _corpus_programs()]
    contracts += [(symtab, calculate(dsl.TypedProgram(symtab, loop)))
                  for symtab, loop, _ in _loop_programs()]
    for symtab, c in contracts:
        peri, post = _invariants(symtab, rng)
        for inv in peri + post:
            ob = Obligation(inv, getattr(c, inv.kind), inv.kind, "implied")
            yield ob, functools.partial(check_rrel_refine, ob, symtab)


def test_the_walk_gives_the_verdicts_of_the_ground_reading(monkeypatch):
    """`dlf` of every corpus program and `refine` of every ordered pair of
    them, the relation obligations of `_class_checks`, some under an
    assumption, and invariants over calculated relations give the verdict
    and witness of each obligation that the ground instance sets give, at
    bounds 1-6.  A walk that ends every branch before the bound reports
    scope "unbounded", and then no larger bound refutes the obligation."""
    checks = [*_class_checks(), *_invariants_over_relations()]
    refuted = unbounded = 0
    settled = {}  # label -> the obligations verified "unbounded"
    for bound in range(1, 7):
        cfg = Config(trace_bound=bound)
        verdicts = [check(cfg) for _, check in checks]
        got = [_outcome(v, scope=False) for v in verdicts]
        with monkeypatch.context() as m:
            m.setattr(verify, "_least_failure", _ground_least_failure)
            want = [_outcome(check(cfg), scope=False) for _, check in checks]
        for (label, _), g, w, v in zip(checks, got, want, verdicts):
            assert g == w, (label, bound)
            for o, ov in _obligations(v):
                if o in settled.get(label, ()):
                    assert ov.kind == "verified", (label, o, bound)
                elif ov.kind == "verified" and ov.scope == "unbounded":
                    settled.setdefault(label, set()).add(o)
        refuted += sum(g[0] == "refuted" for g in got)
        unbounded += sum(len(x) for x in settled.values())
    assert len(checks) == 796 and refuted == 1743 and unbounded > 0


def _obligations(v):
    """(origin, verdict) of each obligation of a combined verdict, or of a
    single one."""
    return [(o.origin, w) for o, w in v.obligations] or [("", v)]


def _outcome(v, scope=True):
    return v.kind, v.witness, v.reason, tuple(
        (o.origin, w.kind, w.witness, w.scope if scope else None)
        for o, w in v.obligations)


def test_one_state_per_class_gives_the_verdicts_of_every_state(monkeypatch):
    checks = list(_class_checks())
    starts = verify._starts
    skipped = refuted = 0

    def counted(ob, symtab):
        nonlocal skipped
        out = starts(ob, symtab)
        skipped += len(symtab.valuations()) - len(out)
        return out

    for bound in range(1, 6):
        cfg = Config(trace_bound=bound)
        with monkeypatch.context() as m:
            m.setattr(verify, "_starts", counted)
            got = [_outcome(check(cfg)) for _, check in checks]
        with monkeypatch.context() as m:
            m.setattr(verify, "_starts", lambda _, symtab: symtab.valuations())
            want = [_outcome(check(cfg)) for _, check in checks]
        for (label, _), g, w in zip(checks, got, want):
            assert g == w, (label, bound)
        refuted += sum(g[0] == "refuted" for g in got)
    # the classes skip 8,955 state visits over the five bounds; they would
    # skip 8,535 if a sequence's first writes did not hide its second reads
    assert refuted > 800 and skipped >= 8900


def _outermost_calls(monkeypatch, capsys, argv, functions):
    """The calls of each of `functions` that one CLI run starts outside
    any call of them, through every `rdes` module that binds it."""
    counts = [0] * len(functions)
    depth = 0

    def counting(i, original):
        def counted(*args, **kwargs):
            nonlocal depth
            counts[i] += depth == 0
            depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth -= 1

        return counted

    wrappers = {id(f): counting(i, f) for i, f in enumerate(functions)}
    with monkeypatch.context() as m:
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("rdes"):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    m.setattr(module, name, wrappers[id(value)])
        cli.main(argv)
    capsys.readouterr()
    return tuple(counts)


def _views_built(monkeypatch, capsys, argv):
    """(pericondition, postcondition) views that one CLI run builds."""
    kinds = []
    real = verify.View

    def counted(r, kind, symtab):
        kinds.append(kind)
        return real(r, kind, symtab)

    with monkeypatch.context() as m:
        m.setattr(verify, "View", counted)
        cli.main(argv)
    capsys.readouterr()
    return kinds.count("peri"), kinds.count("post")


@pytest.mark.parametrize("argv, builds", [
    # both sides are the same relation, whose view serves both
    (["refine", "buffer.rp", "buffer.rp"], (1, 1)),
    # a universal postcondition allows every final state unenumerated
    (["dlf", "buffer.rp"], (1, 0)),
    # both set x before they read it, and calculate to equal relations
    (["refine", "ex2_lhs.rp", "ex2_rhs.rp"], (1, 1)),
    # the loop body reads bf, so each of its 7 states is a class of its
    # own, and one view serves every class
    (["refine", "buffer_body.rp", "buffer_body.rp"], (1, 1)),
    # a -> skip keeps x: one class per value of x for the final states
    (["refine", "keep_x", "keep_x"], (1, 1)),
])
def test_instances_are_built_once_per_class(monkeypatch, capsys, tmp_path,
                                            argv, builds):
    """One view of each relation per obligation, however many classes of
    initial states it walks from.  (The name is from when each class built
    its own ground instance set.)"""
    keep_x = tmp_path / "keep_x.rp"
    keep_x.write_text("var x : int[0..3]\nchannel a\na -> skip\n")
    argv = [str(CORPUS / a) if a.endswith(".rp") else
            str(keep_x) if a == "keep_x" else a for a in argv]
    assert _views_built(monkeypatch, capsys, argv) == builds


@pytest.mark.parametrize("argv", [
    ["inv-check", "buffer_guarded.rp", "--invariant", BUFFER_INV],
    ["refine", "buffer.rp", "--invariant", BUFFER_INV,
     "--peri", "outps(tt)<=inps(tt)"],
], ids=" ".join)
def test_the_loop_rule_calculates_the_loop_once(monkeypatch, capsys, argv):
    # one calculation of the loop body, one saturation of the loop's
    # precondition, and no calculation of the whole program
    argv = [str(CORPUS / a) if a.endswith(".rp") else a for a in argv]
    for f in (calculate, star_wp):
        assert _outermost_calls(monkeypatch, capsys, argv, (f,)) == (1,)
