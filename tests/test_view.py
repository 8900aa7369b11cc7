"""The transition-system view against the ground reading: two independent
readings of a relation that must give the same instance sets."""

from pathlib import Path

import pytest

from rdes import dsl, ground, randgen
from rdes.contracts import calculate
from rdes.relalg import TRUE_R
from rdes.state import SymbolTable
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
