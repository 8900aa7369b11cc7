"""The monitor of an invariant against the invariant evaluated on whole
traces: the residue a trace leaves must decide the invariant on that trace,
for every accepted set or final state, and so on every extension."""

import itertools
from pathlib import Path

import pytest

from rdes import dsl, randgen, verify
from rdes.monitor import Monitor
from rdes.state import Acc, BinOp, Event, Primed, Var, eval_expr, subterms

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# Invariants over the buffers' channels and variable: the benchmark's two,
# the specifications of the reduced invariant, and some that mix leaves
BUFFER_INVARIANTS = [
    "outps(tt) <= bf ++ inps(tt)",
    "outps(tt) <= inps(tt)",
    "inps(tt) <= outps(tt)",
    "outps(tt) = bf ++ inps(tt) or acc = {}",
    "not (bf ++ outps(tt) != inps(tt))",
    "bf ++ <0> <= outps(tt) and #bf < 2",
    "(#bf = 0 and #inps(tt) < 3) or (#bf > 0 and #inps(tt) < 1)",
    "#outps(tt) <= #inps(tt)",
    "#outps(tt) + 1 - #bf < #inps(tt) - #outps(tt) + 2",
    "#inps(tt) - #inps(tt) = #bf",
    "#inps(tt) != 2",
    # outside the fragment: the projections decide them
    "head(inps(tt)) = 0 or #inps(tt) = 0",
    "tail(outps(tt)) <= inps(tt) and #bf <= 1",
]

# The most (state, trace) pairs one invariant is tested on, and the longest
# trace
PAIRS = 5_000
LONGEST = 8


def _tables():
    """(symbol table, invariant bodies of each kind) of the buffers, of
    `while_chaos` and of random loop programs."""
    for name in ("buffer", "buffer_guarded"):
        symtab = dsl.load_program((CORPUS / f"{name}.rp").read_text()).symtab
        yield symtab, [("peri", dsl.parse_invariant(i, symtab))
                       for i in BUFFER_INVARIANTS] + [
            ("post", dsl.parse_invariant(i, symtab, "post"))
            for i in ("bf' = bf ++ inps(tt)", "#bf' <= #outps(tt)")]
    rng = randgen.rng_for(3)
    for seed in range(20):
        symtab = randgen.random_loop_program(randgen.rng_for(seed)).symtab
        yield symtab, [*_random_invariants(symtab, rng)]


def _random_invariants(symtab, rng):
    """Invariants on `acc`, counts, words and a random condition, as the
    verification tests draw them, and a final-state one."""
    cond = randgen.random_cond(rng, symtab)
    channels = sorted(symtab.channels)
    peri = ["acc != {}", "acc = {}"]
    for first in channels[:1]:
        last = channels[-1]
        peri += [f"#proj(tt, {first}) <= 1",
                 f"#proj(tt, {first}) <= #proj(tt, {last})",
                 f"#proj(tt, {last}) < 2 or acc = {{}}"]
        if symtab.channels[first] == symtab.channels[last]:
            peri += [f"proj(tt, {first}) <= proj(tt, {last})",
                     f"proj(tt, {last}) != proj(tt, {first})"]
    out = [("peri", dsl.parse_invariant(i, symtab)) for i in peri]
    out += [("peri", cond), ("peri", BinOp("or", cond, out[-1][1]))]
    for name in sorted(symtab.variables)[:1]:
        out.append(("post", BinOp("=", Primed(name), Var(name))))
    return out


def _xs(symtab, kind, body):
    """The final states, or the accepted sets if `body` reads them."""
    if kind == "post":
        return symtab.valuations()
    if not any(isinstance(x, Acc) for x in subterms(body)):
        return [frozenset()]
    return verify._accepted_sets(symtab.alphabet())


@pytest.mark.parametrize("index", range(22))
def test_the_residue_decides_the_invariant_on_every_trace(index):
    symtab, bodies = next(itertools.islice(_tables(), index, None))
    states = symtab.valuations()
    alphabet = symtab.alphabet()
    longest = 0
    while (longest < LONGEST
           and len(alphabet) ** (longest + 1) * len(states) <= PAIRS):
        longest += 1
    tested = 0
    for kind, body in bodies:
        monitor = Monitor(body, kind)
        xs = _xs(symtab, kind, body)
        for s in states:
            reached = [((), monitor.start(s))]
            while reached:
                tt, r = reached.pop()
                for x in xs:
                    want = bool(eval_expr(
                        body, s, tt=tt,
                        **({"primed": x} if kind == "post" else {"acc": x})))
                    assert monitor.holds(r, x) == want, (body, s, tt, x, r)
                    tested += 1
                if len(tt) < longest:
                    reached.extend((tt + (e,), monitor.step(r, e))
                                   for e in alphabet)
    assert tested > 100


def test_the_lag_word_of_the_buffer_invariant():
    """Outputs may run ahead of inputs and be matched later; a mismatch is
    decided for good; an event on no read channel changes nothing."""
    symtab = dsl.load_program((CORPUS / "buffer.rp").read_text()).symtab
    monitor = Monitor(dsl.parse_invariant("outps(tt) <= bf ++ inps(tt)",
                                          symtab), "peri")
    s = symtab.default_valuation()  # bf = <>
    r = monitor.start(s)
    assert r == ("seq", "<=", "out", "inp", (), ())
    r = monitor.step(r, Event("out", 0))
    assert r == ("seq", "<=", "out", "inp", (0,), ())
    assert not monitor.holds(r, frozenset())
    r = monitor.step(r, Event("inp", 0))
    assert r == ("seq", "<=", "out", "inp", (), ())
    assert monitor.step(r, Event("tick")) is r
    r = monitor.step(monitor.step(r, Event("out", 1)), Event("inp", 0))
    assert r is False
