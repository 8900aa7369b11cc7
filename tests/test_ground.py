"""Ground instance sets: the restriction fact that lets one build at a top
bound answer every smaller bound, and the forms both readers read alike."""

from pathlib import Path

import pytest

from rdes import dsl, ground, randgen
from rdes.contracts import calculate
from rdes.relalg import (
    EMPTY_SET,
    FALSE_R,
    TRUE_R,
    EventTerm,
    RAtom,
    ROr,
    RStar,
    final,
    quiescent,
)
from rdes.state import IDENTITY, TRUE, IntType, SymbolTable, valuation_of

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
TOP = 5


def _corpus_contracts():
    for path in sorted(CORPUS.glob("*.rp")):
        if path.stem != "while_bad":
            tp = dsl.load_program(path.read_text())
            yield path.stem, tp.symtab, calculate(tp)


def _random_contracts(make, count):
    rng = randgen.rng_for(0)
    for i in range(count):
        tp = make(rng)
        yield f"{make.__name__}-{i}", tp.symtab, calculate(tp)


def _contracts():
    yield from _corpus_contracts()
    yield from _random_contracts(randgen.random_program, 50)
    yield from _random_contracts(randgen.random_loop_program, 20)


@pytest.mark.parametrize("kind", ["peri", "post"])
def test_smaller_bound_is_restriction_of_larger(kind):
    instances = {"peri": ground.quiet_instances,
                 "post": ground.final_instances}[kind]
    checked = 0
    for name, symtab, c in _contracts():
        # normal forms keep pauses out of iteration bodies, so also iterate
        # a body that both pauses and terminates
        for r in (getattr(c, kind), RStar(ROr((c.peri, c.post)))):
            checked += _check_restriction(instances, r, symtab, name)
    # (relation, state) pairs with at least one instance, of about 1400
    assert checked > 700


def _check_restriction(instances, r, symtab, name) -> int:
    checked = 0
    for s in symtab.valuations():
        try:
            at = [instances(r, s, symtab, k) for k in range(TOP + 1)]
        except ground.NotGroundEvaluable:
            return checked
        for big in range(1, TOP + 1):
            for k in range(big):
                cut = {i for i in at[big] if len(i[0]) <= k}
                assert at[k] == cut, (name, str(r), str(s), k, big)
        checked += bool(at[TOP])
    return checked


@pytest.mark.parametrize("kind", ["peri", "post"])
def test_both_readers_read_the_shared_forms_alike(kind):
    instances = {"peri": ground.quiet_instances,
                 "post": ground.final_instances}[kind]
    symtab = SymbolTable({"x": IntType(0, 1)}, {"a": None, "b": None})
    s = valuation_of({"x": 1})

    def atom(*chans):
        trace = tuple(EventTerm(c) for c in chans)
        if kind == "peri":
            return RAtom(quiescent(TRUE, trace, EMPTY_SET))
        return RAtom(final(TRUE, IDENTITY, trace))

    def read(r):
        return instances(r, s, symtab, 2)

    p, q = ROr((atom(), atom("a"))), ROr((atom("a"), atom("b")))
    assert len(read(p) | read(q)) == 3 and len(read(p) & read(q)) == 1
    assert read(ROr((p, q))) == read(p) | read(q)
    assert read(FALSE_R) == frozenset()
    with pytest.raises(ground.NotGroundEvaluable):
        read(TRUE_R)
