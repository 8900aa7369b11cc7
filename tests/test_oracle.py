"""The oracle's operational semantics and the calculus cross-check, the
automata read against the readings they replaced (kept at the end as
references)."""

import gc
import itertools
from pathlib import Path

import pytest

from rdes import contracts, dsl, ground, oracle, randgen, relalg, state, view
from rdes.contracts import (
    Contract,
    NotProductiveError,
    calculate,
    chaos_c,
    miracle_c,
    skip_c,
    stop_c,
)
from rdes.oracle import (
    Div,
    Quiet,
    Term,
    contract_obs,
    cross_check,
    enumerate_program,
    observations_json,
)
from rdes.relalg import FALSE_R, EventTerm, NegClause, ground_trace, pre_of
from rdes.state import (
    TRUE,
    Event,
    SymbolTable,
    Valuation,
    eval_expr,
    valuation_of,
)
from rdes.verify import Config

CFG = Config()
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
TOP = 5

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


def obs_of(src, bound=4):
    tp = dsl.load_program(src)
    return tp, enumerate_program(tp, tp.symtab.default_valuation(), bound)


def test_event_primitive():
    tp, obs = obs_of("channel a\na")
    s = tp.symtab.default_valuation()
    assert obs == frozenset(
        {
            Quiet(s, (), frozenset({Event("a")})),
            Term(s, (Event("a"),), s),
        }
    )


def test_stop_and_skip_and_chaos_and_miracle():
    s = valuation_of({})
    _, obs = obs_of("stop")
    assert obs == frozenset({Quiet(s, (), frozenset())})
    _, obs = obs_of("skip")
    assert obs == frozenset({Term(s, (), s)})
    _, obs = obs_of("chaos")
    assert obs == frozenset({Div(s, ())})
    _, obs = obs_of("miracle")
    assert obs == frozenset()


def test_choice_quiets_merge_acceptances():
    tp, obs = obs_of(
        "channel a\nchannel b\nchannel c\na -> b -> skip [] c -> skip"
    )
    s = tp.symtab.default_valuation()
    quiets = {(o.tt, o.acc) for o in obs if isinstance(o, Quiet)}
    assert quiets == {
        ((), frozenset({Event("a"), Event("c")})),
        ((Event("a"),), frozenset({Event("b")})),
    }


def test_choice_with_terminating_branch_has_no_initial_quiet():
    tp, obs = obs_of("channel a\na -> skip [] skip")
    quiets = [o for o in obs if isinstance(o, Quiet) and not o.tt]
    assert quiets == []


def test_buffer_hand_simulated_acceptance():
    # from the empty buffer, after one input of 1 the process offers both
    # inputs and the output of that value
    tp = dsl.load_program(BUFFER)
    s0 = tp.symtab.default_valuation()
    obs = enumerate_program(tp, s0, 3)
    after = {
        o.acc
        for o in obs
        if isinstance(o, Quiet) and o.tt == (Event("inp", 1),)
    }
    assert after == {
        frozenset({Event("inp", 0), Event("inp", 1), Event("out", 1)})
    }


def _corpus(name):
    return dsl.load_program((CORPUS / f"{name}.rp").read_text())


def test_a_silent_cycle_is_divergence():
    # `while true do x := x + 1` repeats silently forever from every state
    tp = _corpus("while_chaos")
    for s0 in tp.symtab.valuations():
        assert enumerate_program(tp, s0, 6) == frozenset({Div(s0, ())})


def test_a_silent_pass_that_does_not_recur_is_a_pass():
    tp, obs = obs_of("var x : int[0..3]\nwhile x < 3 do x := x + 1")
    s0 = tp.symtab.default_valuation()
    assert obs == frozenset({Term(s0, (), valuation_of({"x": 3}))})


def test_a_silent_cycle_beside_an_event_branch():
    # the loop may repeat silently forever, or engage in a and go on
    tp, obs = obs_of("channel a\nwhile true do (skip |~| a -> skip)", 2)
    s, a = tp.symtab.default_valuation(), Event("a")
    assert obs == frozenset({
        Div(s, ()), Div(s, (a,)), Div(s, (a, a)),
        Quiet(s, (), frozenset({a})), Quiet(s, (a,), frozenset({a})),
        Quiet(s, (a, a), frozenset({a})),
    })


def test_cross_check_compares_a_divergent_loop():
    # the oracle's divergence at <> tells chaos from each of these
    tp = _corpus("while_chaos")
    for c in (miracle_c(), stop_c(), skip_c()):
        assert cross_check(tp, c, Config(trace_bound=6))["diffs"], c
    assert cross_check(tp, calculate(tp), Config(trace_bound=6))["ok"]


def test_contract_obs_matches_enumeration_for_do():
    tp = dsl.load_program("channel a\na")
    s = tp.symtab.default_valuation()
    c = calculate(tp)
    assert contract_obs(c, s, tp.symtab, 4) == enumerate_program(tp, s, 4)


def test_contract_obs_of_worked_example():
    src = "channel a : int[0..3]\nvar x : int[0..3]\nx := 1 ; a!x -> x := x + 2"
    tp = dsl.load_program(src)
    c = calculate(tp)
    s0 = valuation_of({"x": 0})
    obs = contract_obs(c, s0, tp.symtab, 4)
    assert obs == frozenset(
        {
            Quiet(s0, (), frozenset({Event("a", 1)})),
            Term(s0, (Event("a", 1),), valuation_of({"x": 3})),
        }
    )


def test_cross_check_primitives_and_buffer():
    for src in ["skip", "stop", "chaos", "miracle", "channel a\na -> skip"]:
        tp = dsl.load_program(src)
        rep = cross_check(tp, calculate(tp), CFG)
        assert rep["ok"], (src, rep["diffs"])
    tp = dsl.load_program(BUFFER)
    rep = cross_check(tp, calculate(tp), Config(trace_bound=3))
    assert rep["ok"], rep["diffs"][:4]


def test_cross_check_worked_example_sides():
    lhs = dsl.load_program(
        "channel a : int[0..3]\nvar x : int[0..3]\nx := 1 ; a!x -> x := x + 2"
    )
    rhs = dsl.load_program(
        "channel a : int[0..3]\nvar x : int[0..3]\na!1 -> x := 3"
    )
    c_lhs, c_rhs = calculate(lhs), calculate(rhs)
    assert cross_check(lhs, c_lhs, CFG)["ok"]
    assert cross_check(rhs, c_rhs, CFG)["ok"]
    # the two enumerations agree with each other as well
    for s0 in lhs.symtab.valuations():
        assert enumerate_program(lhs, s0, 4) == enumerate_program(
            rhs, s0, 4)


def test_acceptance_union_matches_quiescent_conjunction():
    # the enumerator's choice-merge and the calculus conjunction rule take
    # the same union of accepted events at the empty trace
    from rdes.relalg import conj_quiescent, event_set, quiescent
    from rdes.state import SymbolTable, TRUE

    tab = SymbolTable({}, {"a": None, "c": None})
    tp = dsl.load_program("channel a\nchannel c\na -> skip [] c -> skip")
    s = tp.symtab.default_valuation()
    obs = enumerate_program(tp, s, 2)
    merged_obs = {
        o.acc for o in obs if isinstance(o, Quiet) and not o.tt
    }
    merged_atom = conj_quiescent(
        [
            quiescent(TRUE, (), event_set(EventTerm("a"))),
            quiescent(TRUE, (), event_set(EventTerm("c"))),
        ],
        tab,
    )
    from rdes.relalg import ground_set

    assert merged_obs == {ground_set(merged_atom.accept, tab, s)}


def test_divergence_after_prefix():
    tp = dsl.load_program("channel a\na -> chaos")
    s = tp.symtab.default_valuation()
    obs = enumerate_program(tp, s, 4)
    assert Div(s, (Event("a"),)) in obs
    rep = cross_check(tp, calculate(tp), CFG)
    assert rep["ok"], rep["diffs"]


def test_differences_print_each_kind():
    # a divergence's trace of two events prints as a trace, not as a pair
    s, t = valuation_of({"x": 0}), valuation_of({"x": 1})
    a, b = Event("a"), Event("b", 1)
    oracle_side = frozenset({Div(s, (a, b)), Term(s, (a,), t)})
    calc_side = frozenset({Quiet(s, (b,), frozenset({b, a}))})
    assert [(d["kind"], d["only_in"], d["obs"])
            for d in compare_observations(oracle_side, calc_side)] == [
        ("quiet", "calculus", "(<b.1>, accepts {a, b.1})"),
        ("term", "oracle", "(<a>, {x=1})"),
        ("divergence", "oracle", "<a, b.1>"),
    ]


def test_observations_json_shape():
    tp = dsl.load_program(BUFFER)
    dump = observations_json(tp, Config(trace_bound=2))
    assert set(dump) >= {"quiets", "terms"}
    assert all(
        set(q) == {"state", "trace", "accepts"} for q in dump["quiets"]
    )
    assert dump["terms"] == []  # the buffer never terminates


def _programs():
    for path in sorted(CORPUS.glob("*.rp")):
        yield path.stem, dsl.load_program(path.read_text())
    rng = randgen.rng_for(0)
    for make, count in (
        (randgen.random_program, 50),
        (randgen.random_loop_program, 20),
    ):
        for i in range(count):
            yield f"{make.__name__}-{i}", make(rng)


def test_smaller_bound_is_restriction_of_larger():
    # the enumerator builds only what fits the room left, so each bound
    # must give exactly the larger bound's observations that fit it
    checked = 0
    for name, tp in _programs():
        for s0 in tp.symtab.valuations():
            at = [enumerate_program(tp, s0, k) for k in range(TOP + 1)]
            for big in range(1, TOP + 1):
                for k in range(big):
                    cut = frozenset(o for o in at[big] if len(o.tt) <= k)
                    assert at[k] == cut, (name, str(s0), k, big)
            checked += any(o.tt for o in at[TOP])
    # (program, state) pairs with an observation beyond the empty trace,
    # of about 690
    assert checked > 400


UNGUARDED_BUFFER = BUFFER.replace("#bf > 0 & ", "")


def test_cross_check_finds_differences():
    # each program is checked against the contract of a different one
    for src, other, bound in (
        ("channel a\na -> stop", "channel a\na -> skip", 4),
        (BUFFER, UNGUARDED_BUFFER, 3),
    ):
        tp = dsl.load_program(src)
        c = calculate(dsl.load_program(other))
        assert cross_check(tp, c, Config(trace_bound=bound))["diffs"], src


def test_observations_of_different_kinds_never_compare_equal():
    # named tuples compare as tuples, so the kinds must differ as tuples
    s = valuation_of({})
    q, t, d = Quiet(s, (), frozenset()), Term(s, (), s), Div(s, ())
    assert q != t and q != d and t != d
    assert len({q, t, d}) == 3


# Programs that read a variable before writing it, in each form that reads
DECLARATIONS = "channel a : int[0..1]\nchannel b\nvar x : int[0..1]\n" \
    "var y : int[0..1]\n"
READ_THEN_WRITTEN = [
    "(while x < 1 do (a!y -> x := 1)) ; y := 0",
    "(while y < 1 do a!x -> y := 1) ; x := 0 ; y := 0",
    "(if y = 0 then a!x -> skip else b -> skip) ; x := 1 ; y := 1",
    "(a!x -> skip [] b -> y := x) ; x := 0",
    "(x := y |~| a!y -> stop) ; y := 1",
]


def _class_programs(seed):
    rng = randgen.rng_for(seed)
    return ([randgen.random_program(rng) for _ in range(400)]
            + [randgen.random_loop_program(rng) for _ in range(100)])


def _readings(tp, side):
    """(`side`'s frame rule, (reads, unwritten), its reading (s, k) ->
    observations), or None where the calculator rejects the program."""
    if side == "oracle":
        return (oracle._program_frame(tp),
                lambda s, k: enumerate_program(tp, s, k))
    try:
        c = calculate(tp)
    except NotProductiveError:
        return None
    return (oracle._contract_frame(c, tp.symtab),
            lambda s, k: contract_obs(c, s, tp.symtab, k))


@pytest.mark.parametrize("seed", [None, 0, 1, 2],
                         ids=lambda s: "by-hand" if s is None else f"seed{s}")
@pytest.mark.parametrize("side", ["oracle", "contract"])
def test_a_class_of_initial_states_has_one_reading(side, seed):
    # each side's class rule against every state read on its own: from each
    # state, the side's observations are those from the first state of its
    # class with `st` replaced
    if seed is None:
        programs = [_corpus(p.stem) for p in sorted(CORPUS.glob("*.rp"))]
        programs += [dsl.load_program(DECLARATIONS + src)
                     for src in READ_THEN_WRITTEN]
    else:
        programs = _class_programs(seed)
    merged = 0
    for tp in programs:
        reading = _readings(tp, side)
        if reading is None:
            continue
        (reads, unwritten), read = reading
        key_vars = reads | unwritten
        first: dict = {}
        for s in tp.symtab.valuations():
            first.setdefault(tuple(v for n, v in s.items if n in key_vars), s)
        for k in range(1, TOP + 1):
            at_first = {s: read(s, k) for s in first.values()}
            for s in tp.symtab.valuations():
                rep = first[tuple(v for n, v in s.items if n in key_vars)]
                if rep is not s:
                    merged += 1
                    assert read(s, k) == frozenset(
                        o._replace(st=s) for o in at_first[rep]), (
                        dsl.pp_action(tp.body), str(s), k)
    assert merged > (0 if seed is None else 1_000)


def _instantiated(obs, s) -> frozenset:
    """Observations read from a marked state, as from state s: `st`
    replaced, and each `KEPT` in a final state by s's value."""
    out = set()
    for o in obs:
        if type(o) is Term:
            o = o._replace(st2=Valuation(tuple(
                (n, mine if v is oracle.KEPT else v)
                for (n, v), (_, mine) in zip(o.st2.items, s.items))))
        out.add(o._replace(st=s))
    return frozenset(out)


@pytest.mark.parametrize("batch", ["corpus", 0, 1, 2])
@pytest.mark.parametrize("side", ["oracle", "contract"])
def test_a_marked_reading_gives_every_state_of_its_class(side, batch):
    # each side's frame rule on its own: from the first state of the states
    # that agree on what the side reads, with `KEPT` for every variable it
    # does not read, the side's observations are those from each state of
    # that class, with `st` and the kept values replaced
    marked = 0
    for tp in _reference_programs(batch):
        reading = _readings(tp, side)
        if reading is None:
            continue
        (reads, _), read = reading
        unread = frozenset(tp.symtab.variables) - reads
        if not unread:
            continue
        first: dict = {}
        for s in tp.symtab.valuations():
            first.setdefault(tuple(v for n, v in s.items if n in reads),
                             oracle._marked(s, unread))
        for k in range(1, TOP + 1):
            at_marked = {m: read(m, k) for m in first.values()}
            for s in tp.symtab.valuations():
                m = first[tuple(v for n, v in s.items if n in reads)]
                assert read(s, k) == _instantiated(at_marked[m], s), (
                    dsl.pp_action(tp.body), str(s), k)
                marked += 1
    assert marked > (0 if batch == "corpus" else 1_000)


def test_a_marked_walk_never_evaluates_a_kept_value(monkeypatch):
    # `KEPT` stands for values that neither side reads: no evaluation in a
    # cross-check reads it or returns it
    real_var, real = state._EVAL[state.Var], state.eval_expr
    marked = []

    def var(e, val, *rest):
        v = real_var(e, val, *rest)
        assert v is not oracle.KEPT, (e.name, str(val))
        return v

    def checked(e, val, *rest):
        v = real(e, val, *rest)
        assert v is not oracle.KEPT, str(val)
        if oracle.KEPT in dict(val.items).values():
            marked.append(e)
        return v

    monkeypatch.setitem(state._EVAL, state.Var, var)
    for module in (state, oracle, relalg, view):
        monkeypatch.setattr(module, "eval_expr", checked)
    for batch in ("corpus", 0, 1, 2):
        for tp in _reference_programs(batch):
            try:
                c = calculate(tp)
            except NotProductiveError:
                continue
            cross_check(tp, c, Config(trace_bound=3))
    assert len(marked) > 1_000


def test_a_marked_difference_is_decided_state_by_state(monkeypatch):
    # the program keeps x and the contract writes 0 to it, so from the
    # marked state their final states differ, KEPT against 0; at x = 0 they
    # agree, so each state of the class is walked on its own
    declared = "channel a\nvar x : int[0..2]\n"
    tp = dsl.load_program(declared + "a -> skip")
    wrong = calculate(dsl.load_program(declared + "a -> x := 0"))
    per_state = [
        dict(d, state=str(s)) for s in tp.symtab.valuations()
        for d in compare_observations(enumerate_program(tp, s, 4),
                                      contract_obs(wrong, s, tp.symtab, 4))]
    enumerated = _counting(monkeypatch, "enumerate_program")
    rep = cross_check(tp, wrong, CFG)
    assert rep["diffs"] == per_state
    assert [d["state"] for d in rep["diffs"]] == [
        "{x=1}", "{x=1}", "{x=2}", "{x=2}"]
    marked = Valuation((("x", oracle.KEPT),))
    assert enumerated == [marked, *tp.symtab.valuations()]
    assert rep["classes"] == 4
    # against its own contract, the marked walk decides all three states
    enumerated.clear()
    rep = cross_check(tp, calculate(tp), CFG)
    assert rep["ok"] and enumerated == [marked] and rep["classes"] == 1


def _counting(monkeypatch, name):
    """The list of initial states `oracle.<name>` is called from."""
    calls = []
    real = getattr(oracle, name)

    def counted(x, s0, *rest):
        calls.append(s0)
        return real(x, s0, *rest)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_cross_check_reads_each_class_once(monkeypatch):
    enumerated = _counting(monkeypatch, "enumerate_program")
    denoted = _counting(monkeypatch, "contract_obs")
    # every buffer state reaches bf = <> before it reads bf
    tp = _corpus("buffer")
    rep = cross_check(tp, calculate(tp), CFG)
    assert rep["ok"] and (rep["initial_states"], rep["classes"]) == (7, 1)
    assert len(enumerated) == len(denoted) == 1
    enumerated.clear()
    denoted.clear()
    rng = randgen.rng_for(0)
    cfg = Config(trace_bound=1)
    for _ in range(600):
        tp = randgen.random_program(rng)
        cross_check(tp, calculate(tp), cfg)
    # one for each state would be 6,413, and one for each class of the
    # states that agree on every variable either rule names 5,519; these are
    # the marked walks, and the walks of those classes where one differed
    assert len(enumerated) == len(denoted) == 3_720


def test_a_class_difference_is_reported_for_each_state(monkeypatch):
    # x is written before it is read, so the three states form one class
    tp = dsl.load_program("channel a\nvar x : int[0..2]\nx := 0 ; a -> skip")
    wrong = calculate(dsl.load_program(
        "channel a\nvar x : int[0..2]\nx := 0 ; a -> stop"))
    per_state = [
        dict(d, state=str(s)) for s in tp.symtab.valuations()
        for d in compare_observations(enumerate_program(tp, s, 4),
                                      contract_obs(wrong, s, tp.symtab, 4))]
    enumerated = _counting(monkeypatch, "enumerate_program")
    rep = cross_check(tp, wrong, CFG)
    assert len(enumerated) == rep["classes"] == 1
    assert rep["diffs"] == per_state
    assert [d["state"] for d in rep["diffs"]] == [
        "{x=0}", "{x=0}", "{x=1}", "{x=1}", "{x=2}", "{x=2}"]


def _reference_programs(batch):
    """The corpus, or the programs `crosscheck --random 300 [--loops]`
    checks at one seed."""
    if batch == "corpus":
        return [_corpus(p.stem) for p in sorted(CORPUS.glob("*.rp"))]
    programs = []
    for make, count in ((randgen.random_program, 300),
                        (randgen.random_loop_program, 100)):
        rng = randgen.rng_for(batch)
        programs += [make(rng) for _ in range(count)]
    return programs


@pytest.mark.parametrize("batch", ["corpus", 0, 1, 2])
def test_the_automata_give_the_reference_observations(batch):
    # from every initial state at bounds 1-6, the operational semantics
    # gives the structural enumeration's observations, and a contract's
    # trie and views give the ground reading's
    compared = 0
    for tp in _reference_programs(batch):
        try:
            c = calculate(tp)
        except NotProductiveError:
            c = None
        for s0, k in itertools.product(tp.symtab.valuations(), range(1, 7)):
            got = enumerate_program(tp, s0, k)
            assert frozenset(got) == _enumerated(tp, s0, k), (
                dsl.pp_action(tp.body), str(s0), k)
            compared += len(got)
            if c is not None:
                got = contract_obs(c, s0, tp.symtab, k)
                assert frozenset(got) == _ground_contract_obs(
                    c, s0, tp.symtab, k), (dsl.pp_action(tp.body), str(s0), k)
    assert compared > 1_000


@pytest.mark.parametrize("collecting", [True, False])
def test_cross_check_runs_without_the_cyclic_collector(monkeypatch,
                                                       collecting):
    # as every command does, whoever calls it, and it leaves the collector
    # as it found it
    seen = []
    real = oracle._Lockstep.walk

    def spy(self, *args):
        seen.append(gc.isenabled())
        return real(self, *args)

    monkeypatch.setattr(oracle._Lockstep, "walk", spy)
    tp = _corpus("buffer")
    (gc.enable if collecting else gc.disable)()
    try:
        assert cross_check(tp, calculate(tp), Config(trace_bound=3))["ok"]
        assert gc.isenabled() == collecting
    finally:
        gc.enable()
    assert seen == [False]


def test_a_divergence_counts_only_where_no_prefix_diverged():
    # divergences are compared as prefix-minimal sets, so a side that
    # diverges again after a trace that diverged adds nothing: here both
    # sides diverge first at <>, one of them again at <a>
    a = EventTerm("a")
    chaos = dsl.load_program("channel a\nchaos")
    twice = Contract(pre_of([NegClause(TRUE, ()), NegClause(TRUE, (a,))],
                            chaos.symtab), FALSE_R, FALSE_R)
    loop = dsl.load_program("channel a\nwhile true do (skip |~| a -> skip)")
    cfg = Config(trace_bound=3)
    for tp, c in ((chaos, twice), (loop, chaos_c()), (loop, twice)):
        walked = cross_check(tp, c, cfg)["diffs"]
        assert walked == _reference_cross_check(tp, c, 3)
        assert not [d for d in walked if d["kind"] == "divergence"]


def _dropped_disjunct(ds, symtab):
    return REAL_MERGE(ds[:-1] if len(ds) > 1 else ds, symtab)


def _swapped_traces(f, q, symtab):
    out = REAL_SEQ_FINAL_QUIESCENT(f, q, symtab)
    if out is None:
        return None
    k = len(f.trace)
    return out._replace(trace=out.trace[k:] + out.trace[:k])


REAL_MERGE = relalg._merge_disjuncts
REAL_SEQ_FINAL_QUIESCENT = relalg.seq_final_quiescent
# (module, name, mutant, the least bound at which it shows): a merge that
# drops a disjunct; a terminated observation composed with a quiescent one
# after it, the traces swapped, which shows only on traces of two events;
# an external choice that takes every branch's pauses at the empty trace as
# resolving it, its guard dropped
CALCULUS_MUTANTS = {
    "dropped-disjunct": (relalg, "_merge_disjuncts", _dropped_disjunct, 1),
    "swapped-traces": (relalg, "seq_final_quiescent", _swapped_traces, 2),
    "dropped-guard": (contracts, "filter_r4", lambda r: r, 1),
}


def _reference_cross_check(tp, c, bound) -> list:
    """`cross_check`'s differences, from the reference readings compared
    as sets, once per class of initial states."""
    symtab = tp.symtab
    key_vars = frozenset().union(*oracle._program_frame(tp),
                                 *oracle._contract_frame(c, symtab))

    def key(s):
        return tuple(v for n, v in s.items if n in key_vars)

    diffs_of = {}
    for s0 in symtab.valuations():
        if key(s0) not in diffs_of:
            diffs_of[key(s0)] = compare_observations(
                _enumerated(tp, s0, bound),
                _ground_contract_obs(c, s0, symtab, bound))
    return [dict(d, state=str(s0))
            for s0 in symtab.valuations() for d in diffs_of[key(s0)]]


@pytest.mark.parametrize("mutant", list(CALCULUS_MUTANTS))
def test_the_walk_lists_the_differences_of_the_sets(monkeypatch, mutant):
    # a wrong calculus: the lockstep walk lists, in order and text, the
    # differences that comparing the reference sets lists, past the 50 the
    # command line prints
    module, name, mutated, shows = CALCULUS_MUTANTS[mutant]
    monkeypatch.setattr(module, name, mutated)
    rng = randgen.rng_for(0)
    checked = []
    for tp in ([randgen.random_program(rng) for _ in range(150)]
               + [randgen.random_loop_program(rng) for _ in range(50)]):
        try:
            checked.append((tp, calculate(tp)))
        except (NotProductiveError, relalg.NormalizationIncomplete):
            continue
    for bound in range(1, TOP + 1):
        cfg = Config(trace_bound=bound)
        walked = [d for tp, c in checked
                  for d in cross_check(tp, c, cfg)["diffs"]]
        assert walked == [d for tp, c in checked
                          for d in _reference_cross_check(tp, c, bound)], bound
        assert (len(walked) > 50) == (bound >= shows), (bound, len(walked))


# ---------------------------------------------------------------------------
# References: the readings the automata replaced, kept to check them against


def _antichain(traces: set) -> set:
    """Prefix-minimal elements."""
    out = set()
    for t in sorted(traces, key=len):
        if not any(t[: len(p)] == p for p in out):
            out.add(t)
    return out


def compare_observations(oracle_obs, calc_obs) -> list:
    """Differences between the two observation sets, with divergences
    compared as prefix-minimal sets, listed as `cross_check` lists the
    differences its walk finds.  Equal sets have no differences, since both
    readings below are functions of the set."""
    if oracle_obs == calc_obs:
        return []

    def visible(obs):
        quiets, terms, divs = set(), set(), set()
        for o in obs:
            if isinstance(o, Quiet):
                quiets.add((o.tt, o.acc))
            elif isinstance(o, Term):
                terms.add((o.tt, o.st2))
            else:
                divs.add(o.tt)
        return quiets, terms, _antichain(divs)

    left, right = visible(oracle_obs), visible(calc_obs)
    return oracle._listed({
        (kind, side): mine - theirs
        for kind, l, r in zip(oracle._KINDS, left, right)
        for side, mine, theirs in zip(oracle._SIDES, (l, r), (r, l))
    })


def _enumerated(tp, s0, bound) -> frozenset:
    """The observations from s0 within `bound`, enumerated by structural
    recursion over states, as the oracle read programs before its
    operational semantics."""
    out = set()
    for o in _Enumeration(tp.symtab).go(tp.body, s0, bound):
        if o[0] == "q":
            out.add(Quiet(s0, o[1], o[2]))
        elif o[0] == "t":
            out.add(Term(s0, o[1], o[2]))
        else:
            out.add(Div(s0, o[1]))
    return frozenset(out)


class _Enumeration:
    """One enumeration's memo of internal observations.  Its methods refer
    to each other through the instance, which holds no reference back to
    them, so reference counting frees it when the enumeration ends."""

    def __init__(self, symtab: SymbolTable):
        self.symtab = symtab
        # keyed by the action's identity: every action is a node of the
        # program's body, alive for the whole enumeration, and hashing a
        # node would walk its subtree
        self.memo: dict = {}

    def go(self, a: dsl.Action, s: Valuation, room: int) -> frozenset:
        key = (id(a), s, room)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self.enum(a, s, room)
        return out

    def then(self, first, second: dsl.Action, room: int, out: set,
             silent=None) -> set:
        """`out` with `first` added, each termination (t1, s1) of `first`
        followed by what `second(s1)` does in the room t1 leaves.  Given a
        set `silent`, a termination with t1 empty only adds s1 to it."""
        for o in first:
            if o[0] != "t":
                out.add(o)
                continue
            _, t1, s1 = o
            if silent is not None and not t1:
                silent.add(s1)
                continue
            rest = self.go(second, s1, room - len(t1))
            if t1:
                out.update((o2[0], t1 + o2[1]) + o2[2:] for o2 in rest)
            else:
                out |= rest
        return out

    def loop(self, a: dsl.While, s: Valuation, room: int) -> frozenset:
        """The loop from s, read by its silent closure."""
        out = set()
        silent: dict = {}  # closure state -> states its silent passes reach
        frontier = [s]
        while frontier:
            s1 = frontier.pop()
            if s1 in silent:
                continue
            if not eval_expr(a.cond, s1):
                silent[s1] = frozenset()
                out.add(("t", (), s1))
                continue
            nxt = silent[s1] = set()
            self.then(self.go(a.body, s1, room), a, room, out, nxt)
            frontier.extend(nxt)
        # prune each state none of whose silent passes leads to a state
        # still unpruned; what remains lies on or leads to a silent cycle
        live = {s1 for s1, nxt in silent.items() if nxt}
        while True:
            dead = {s1 for s1 in live if not silent[s1] & live}
            if not dead:
                break
            live -= dead
        if live:
            out.add(("div", ()))
        return frozenset(out)

    def enum(self, a: dsl.Action, s: Valuation, room: int) -> frozenset:
        if isinstance(a, dsl.Skip):
            return frozenset({("t", (), s)})
        if isinstance(a, dsl.Stop):
            return frozenset({("q", (), frozenset())})
        if isinstance(a, dsl.Chaos):
            return frozenset({("div", ())})
        if isinstance(a, dsl.Miracle):
            return frozenset()
        if isinstance(a, dsl.Assign):
            v = eval_expr(a.expr, s)
            return frozenset(
                {("t", (), s.set(a.var, v, self.symtab.variables[a.var]))}
            )
        if isinstance(a, dsl.DoEvent):
            data = None if a.data is None else eval_expr(a.data, s)
            ev = self.symtab.ground_event(a.chan, data)
            quiet = ("q", (), frozenset({ev}))
            if room < 1:
                return frozenset({quiet})
            return frozenset({quiet, ("t", (ev,), s)})
        if isinstance(a, dsl.Seq):
            return frozenset(self.then(self.go(a.first, s, room), a.second,
                                       room, set()))
        if isinstance(a, dsl.IntChoice):
            out = set()
            for b in a.branches:
                out |= self.go(b, s, room)
            return frozenset(out)
        if isinstance(a, dsl.ExtChoice):
            branch_obs = [self.go(b, s, room) for b in a.branches]
            out = set()
            empty_quiets = []
            for obs in branch_obs:
                eq = [o for o in obs if o[0] == "q" and not o[1]]
                empty_quiets.append(eq)
                for o in obs:
                    if o[0] == "q" and not o[1]:
                        continue  # merged below, if every branch offers
                    out.add(o)
            if all(empty_quiets):
                for combo in itertools.product(*empty_quiets):
                    acc = frozenset().union(*(o[2] for o in combo))
                    out.add(("q", (), acc))
            return frozenset(out)
        if isinstance(a, dsl.Cond):
            branch = a.then if eval_expr(a.cond, s) else a.other
            return self.go(branch, s, room)
        if isinstance(a, dsl.While):
            return self.loop(a, s, room)
        raise TypeError(f"not a core action: {a!r}")


def _ground_contract_obs(c, s0, symtab, bound) -> frozenset:
    """The observations contract c denotes from s0 within `bound`, read
    through `ground`'s instance sets."""
    out = set()
    for clause in c.pre.clauses:
        if eval_expr(clause.cond, s0):
            tt = ground_trace(clause.trace, symtab, s0)
            if len(tt) <= bound:
                out.add(Div(s0, tt))
    for tt, acc in ground.quiet_instances(c.peri, s0, symtab, bound):
        out.add(Quiet(s0, tt, acc))
    for tt, s2 in ground.final_instances(c.post, s0, symtab, bound):
        out.add(Term(s0, tt, s2))
    return frozenset(out)
