"""The transition-system view against the ground reading: two independent
readings of a relation that must give the same instance sets."""

from pathlib import Path

import pytest

from collections import Counter

from rdes import dsl, ground, randgen, view as view_module
from rdes.contracts import calculate
from rdes.relalg import (
    EMPTY_SET,
    EventTerm,
    ROr,
    RAtom,
    RSeq,
    RStar,
    TRUE_R,
    event_set,
    final,
    quiescent,
    state_test,
)
from rdes.state import (
    BinOp,
    IDENTITY,
    IntType,
    Lit,
    SymbolTable,
    TRUE,
    Var,
    assignment_subst,
)
from rdes.view import NotWalkable, View, instances

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
BOUNDS = range(1, 7)


def _programs(batch):
    """The corpus, or the programs `crosscheck --random 300 [--loops]`
    checks at one seed (100 loop programs)."""
    if batch == "corpus":
        return [dsl.load_program(p.read_text())
                for p in sorted(CORPUS.glob("*.rp")) if p.stem != "while_bad"]
    programs = []
    for make, count in ((randgen.random_program, 300),
                        (randgen.random_loop_program, 100)):
        rng = randgen.rng_for(batch)
        programs += [make(rng) for _ in range(count)]
    return programs


@pytest.mark.parametrize("batch", ["corpus", 0, 1, 2])
def test_the_view_gives_the_ground_instance_sets(batch):
    """From every state at bounds 1-6, the quiescent instances of each
    calculated pericondition and the terminated instances of each
    postcondition, read off the view, are `ground`'s."""
    compared = 0
    for tp in _programs(batch):
        c = calculate(tp)
        symtab = tp.symtab
        for kind, built in (("peri", ground.quiet_instances),
                            ("post", ground.final_instances)):
            r = getattr(c, kind)
            view = View(r, kind, symtab)
            for s in symtab.valuations():
                for bound in BOUNDS:
                    want = built(r, s, symtab, bound)
                    assert instances(view, s, bound) == want, (
                        str(tp.body), kind, str(s), bound)
                    compared += bool(want)
    # nonempty instance sets compared: 294 over the corpus, about 35,000 a
    # seed
    assert compared > (250 if batch == "corpus" else 30_000)


@pytest.mark.parametrize("kind", ["peri", "post"])
def test_the_universal_relation_has_no_view(kind):
    symtab = SymbolTable({}, {"a": None})
    s = symtab.default_valuation()
    with pytest.raises(NotWalkable):
        View(TRUE_R, kind, symtab).start(s)
    with pytest.raises(ground.NotGroundEvaluable):
        ground.quiet_instances(TRUE_R, s, symtab, 1)


def test_a_view_evaluates_each_atom_once_per_valuation(monkeypatch):
    # the buffer's pericondition is an iteration: a walk closes the loop's
    # atoms again at every node set that reaches it at a valuation, and the
    # view evaluates each atom's condition and trace there only once
    tp = dsl.load_program((CORPUS / "buffer.rp").read_text())
    peri = calculate(tp).peri
    evaluated = Counter()
    real = view_module._edge

    def counted(a, s, symtab):
        evaluated[id(a), s] += 1
        return real(a, s, symtab)

    monkeypatch.setattr(view_module, "_edge", counted)
    v = View(peri, "peri", tp.symtab)
    v.edges = _CountedDict()
    for s in tp.symtab.valuations():
        instances(v, s, 8)
    assert set(evaluated.values()) == {1}
    # 35 (atom, valuation) pairs, reached 115 times
    assert v.edges.asked > 3 * len(evaluated) > 90


class _CountedDict(dict):
    """A dict that counts its lookups."""

    asked = 0

    def get(self, key, default=None):
        self.asked += 1
        return super().get(key, default)


X_TAB = SymbolTable({"x": IntType(0, 2)}, {"a": None})
X_LESS_2 = BinOp("<", Var("x"), Lit(2))
X_PLUS_1 = assignment_subst({"x": BinOp("+", Var("x"), Lit(1))}, X_TAB)
SILENT_LOOPS = [
    # passes that count x up without an event, then a pause
    RSeq(RStar(RAtom(final(X_LESS_2, X_PLUS_1, ()))),
         RAtom(quiescent(TRUE, (), event_set(EventTerm("a"))))),
    # a silent pass that returns to its own valuation, beside an event
    RStar(ROr((state_test(TRUE),
               RAtom(final(TRUE, IDENTITY, (EventTerm("a"),)))))),
    # an iteration whose exit and whose silent pass reach the same node
    RSeq(ROr((RStar(state_test(TRUE)), state_test(TRUE))),
         RAtom(quiescent(TRUE, (EventTerm("a"),), EMPTY_SET))),
]


@pytest.mark.parametrize("r", SILENT_LOOPS, ids=str)
@pytest.mark.parametrize("kind", ["peri", "post"])
def test_silent_iterations_give_the_ground_instance_sets(r, kind):
    built = ground.quiet_instances if kind == "peri" else ground.final_instances
    v = View(r, kind, X_TAB)
    for s in X_TAB.valuations():
        for bound in BOUNDS:
            assert instances(v, s, bound) == built(r, s, X_TAB, bound), (
                str(s), bound)
