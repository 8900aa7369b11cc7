"""Randomised law suites: every rewrite rule of the calculus, and the
iteration identities, are replayed against an independent ground reading
on freshly generated atom instances.

The ground reading composes relations by stepping through intermediate
states (see `ground`), so each comparison is evidence for a rewrite rule,
not a restatement of it.
"""

from __future__ import annotations

import itertools

from . import ground, randgen
from .contracts import (
    Contract,
    assign_c,
    do_c,
    seq_contract,
    skip_c,
    stop_c,
)
from .ground import final_instances, observations, quiet_instances
from .relalg import (
    FALSE_R,
    NegClause,
    RAtom,
    ROr,
    RRel,
    RSeq,
    RStar,
    UNIT_R,
    conj_offers,
    conj_quiescent,
    disjuncts,
    filter_r4,
    filter_r5,
    ground_trace,
    merge_cond,
    normalize,
    or_of,
    pre_of,
    seq_final_final,
    seq_final_quiescent,
    state_test,
    subst_event,
    subst_pre,
    subst_rrel,
    wp_final,
)
from .state import SymbolTable, compose_subst, eval_expr


# Trace bound of the ground readings
BOUND = 4


def _fail(law, detail):
    return {"law": law, "detail": detail}


# ---------------------------------------------------------------------------
# Composition rules


def check_test_precompose(rng) -> list:
    """[b];P expressed through a unit-trace update."""
    symtab = randgen.random_symtab(rng)
    b = randgen.random_cond(rng, symtab)
    atom = RAtom(randgen.random_final_atom(rng, symtab))
    raw = RSeq(state_test(b), atom)
    rewritten = normalize(raw, symtab)
    if observations(final_instances, raw, symtab, BOUND) != observations(
            final_instances, rewritten, symtab, BOUND):
        return [_fail("test_precompose", f"[{b}];{atom}")]
    return []


def check_final_final(rng) -> list:
    symtab = randgen.random_symtab(rng)
    f1 = randgen.random_final_atom(rng, symtab)
    f2 = randgen.random_final_atom(rng, symtab)
    merged = seq_final_final(f1, f2, symtab)
    lhs = RSeq(RAtom(f1), RAtom(f2))
    rhs = FALSE_R if merged is None else RAtom(merged)
    if observations(final_instances, lhs, symtab, BOUND) != observations(
            final_instances, rhs, symtab, BOUND):
        return [_fail("final_final", f"{f1} ; {f2}")]
    return []


def check_final_quiescent(rng) -> list:
    symtab = randgen.random_symtab(rng)
    f = randgen.random_final_atom(rng, symtab)
    q = randgen.random_quiescent_atom(rng, symtab)
    merged = seq_final_quiescent(f, q, symtab)
    lhs = RSeq(RAtom(f), RAtom(q))
    rhs = FALSE_R if merged is None else RAtom(merged)
    if observations(quiet_instances, lhs, symtab, BOUND) != observations(
            quiet_instances, rhs, symtab, BOUND):
        return [_fail("final_quiescent", f"{f} ; {q}")]
    return []


def _conditional_obs(c, r1, r2, symtab, instances):
    """Ground reading of (c & r1) \\/ (not c & r2), branch chosen per state."""
    out = set()
    for s, t, x in observations(instances, r1, symtab, BOUND):
        if eval_expr(c, s):
            out.add((s, t, x))
    for s, t, x in observations(instances, r2, symtab, BOUND):
        if not eval_expr(c, s):
            out.add((s, t, x))
    return frozenset(out)


def check_cond_final(rng) -> list:
    symtab = randgen.random_symtab(rng)
    c = randgen.random_cond(rng, symtab)
    f1, f2 = (randgen.random_final_atom(rng, symtab) for _ in range(2))
    merged = merge_cond(normalize(RAtom(f1), symtab), c,
                        normalize(RAtom(f2), symtab), symtab)
    lhs = _conditional_obs(c, RAtom(f1), RAtom(f2), symtab, final_instances)
    if lhs != observations(final_instances, merged, symtab, BOUND):
        return [_fail("cond_final", f"{f1} <|{c}|> {f2}")]
    return []


def check_cond_quiescent(rng) -> list:
    symtab = randgen.random_symtab(rng)
    c = randgen.random_cond(rng, symtab)
    q1, q2 = (randgen.random_quiescent_atom(rng, symtab) for _ in range(2))
    merged = merge_cond(normalize(RAtom(q1), symtab), c,
                        normalize(RAtom(q2), symtab), symtab)
    lhs = _conditional_obs(c, RAtom(q1), RAtom(q2), symtab, quiet_instances)
    if lhs != observations(quiet_instances, merged, symtab, BOUND):
        return [_fail("cond_quiescent", f"{q1} <|{c}|> {q2}")]
    return []


def check_conj_quiescent_union(rng) -> list:
    """A conjunction of same-trace offers accepts the union, as predicates
    over (state, trace, acceptance): of one atom from each offer
    (`conj_quiescent`), and of the offers, each a disjunction of atoms
    (`conj_offers`)."""
    symtab = randgen.random_symtab(rng)
    shared = randgen.random_trace(rng, symtab)

    def offer():
        return or_of([RAtom(randgen.quiescent(
            randgen.random_cond(rng, symtab),
            shared,
            randgen.random_event_set(rng, symtab),
        )) for _ in range(rng.randint(1, 2))])

    offers = [offer() for _ in range(rng.randint(2, 3))]
    firsts = [disjuncts(o)[0] for o in offers]
    conjunctions = {
        "conj_quiescent": (
            firsts, RAtom(conj_quiescent([d.atom for d in firsts], symtab))),
        "conj_offers": (offers, conj_offers(offers, symtab)),
    }
    alphabet = list(symtab.alphabet())[:5]
    accs = [frozenset(combo) for k in range(len(alphabet) + 1)
            for combo in itertools.combinations(alphabet, k)]
    for s in symtab.valuations():
        tt = ground_trace(shared, symtab, s)
        for acc in accs:
            for law, (parts, merged) in conjunctions.items():
                lhs = all(ground.holds_quiet(p, s, tt, acc, symtab)
                          for p in parts)
                if lhs != ground.holds_quiet(merged, s, tt, acc, symtab):
                    return [_fail(law, f"{merged} at {s}, "
                                       f"acc={sorted(map(str, acc))}")]
    return []


# ---------------------------------------------------------------------------
# Weakest precondition


def check_wp_final(rng) -> list:
    """wp of one terminated observation against one clause, replayed as
    'no split of the trace reaches a violation'."""
    symtab = randgen.random_symtab(rng)
    f = randgen.random_final_atom(rng, symtab)
    clause = NegClause(
        randgen.random_cond(rng, symtab), randgen.random_trace(rng, symtab)
    )
    result = wp_final(f, pre_of([clause], symtab), symtab)
    alphabet = symtab.alphabet()
    for s in symtab.valuations():
        for n in range(0, 3):
            for tt in itertools.product(alphabet, repeat=n):
                got = all(
                    ground.holds_pre_clause(c.cond, c.trace, s, tt, symtab)
                    for c in result.clauses
                )
                expect = True
                for t1, s1 in final_instances(RAtom(f), s, symtab, len(tt)):
                    if tt[: len(t1)] != t1:
                        continue
                    if not ground.holds_pre_clause(
                        clause.cond, clause.trace, s1, tt[len(t1):], symtab
                    ):
                        expect = False
                if got != expect:
                    return [_fail("wp_final", f"{f} wp {clause} at {s} {tt}")]
    return []


# ---------------------------------------------------------------------------
# Assignment laws


def check_assign_distribution(rng) -> list:
    """Prefixing an update applies it as a substitution componentwise."""
    symtab = randgen.random_symtab(rng)
    s = randgen.random_subst(rng, symtab)
    c = Contract(
        pre_of([NegClause(randgen.random_cond(rng, symtab),
                          randgen.random_trace(rng, symtab))], symtab),
        normalize(RAtom(randgen.random_quiescent_atom(rng, symtab)), symtab),
        normalize(RAtom(randgen.random_final_atom(rng, symtab)), symtab),
    )
    lhs = seq_contract(assign_c(s), c, symtab)
    rhs_pre = subst_pre(s, c.pre, symtab)
    rhs_peri = subst_rrel(s, c.peri, symtab)
    rhs_post = subst_rrel(s, c.post, symtab)
    if (
        lhs.pre != rhs_pre
        or lhs.peri != rhs_peri
        or lhs.post != rhs_post
    ):
        return [_fail("assign_distribution", f"<{s}> ; {c}")]
    return []


def check_assign_event_swap(rng) -> list:
    symtab = randgen.random_symtab(rng)
    s = randgen.random_subst(rng, symtab)
    e = randgen.random_event(rng, symtab)
    lhs = seq_contract(assign_c(s), do_c(e, symtab), symtab)
    rhs = seq_contract(do_c(subst_event(s, e), symtab), assign_c(s), symtab)
    if lhs != rhs:
        return [_fail("assign_event_swap", f"<{s}> ; Do({e})")]
    return []


def check_assign_composition(rng) -> list:
    symtab = randgen.random_symtab(rng)
    s1 = randgen.random_subst(rng, symtab)
    s2 = randgen.random_subst(rng, symtab)
    lhs = seq_contract(assign_c(s1), assign_c(s2), symtab)
    rhs = assign_c(compose_subst(s1, s2))
    if lhs != rhs:
        return [_fail("assign_composition", f"<{s1}> ; <{s2}>")]
    # semantic shadow on the ground
    if observations(final_instances, lhs.post, symtab, BOUND) != observations(
            final_instances, rhs.post, symtab, BOUND):
        return [_fail("assign_composition_ground", f"<{s1}> ; <{s2}>")]
    return []


def check_stop_annihilates(rng) -> list:
    symtab = randgen.random_symtab(rng)
    c = seq_contract(
        do_c(randgen.random_event(rng, symtab), symtab), skip_c(), symtab
    )
    lhs = seq_contract(stop_c(), c, symtab)
    if lhs != stop_c():
        return [_fail("stop_annihilates", str(c))]
    return []


# ---------------------------------------------------------------------------
# Trace filtering


def check_filter_partition(rng) -> list:
    symtab = randgen.random_symtab(rng)
    kind = rng.choice(["final", "quiet"])
    if kind == "final":
        atoms = [
            RAtom(randgen.random_final_atom(rng, symtab))
            for _ in range(rng.randint(1, 3))
        ]
        instances = final_instances
    else:
        atoms = [
            RAtom(randgen.random_quiescent_atom(rng, symtab))
            for _ in range(rng.randint(1, 3))
        ]
        instances = quiet_instances
    r = or_of(atoms)
    grew = filter_r4(r)
    same = filter_r5(r)
    whole, got_grew, got_same = (observations(instances, x, symtab, BOUND)
                                 for x in (r, grew, same))
    expect_grew = frozenset(o for o in whole if o[1])
    expect_same = frozenset(o for o in whole if not o[1])
    if got_grew != expect_grew or got_same != expect_same:
        return [_fail("filter_partition", str(r))]
    if (got_grew | got_same) != whole or (got_grew & got_same):
        return [_fail("filter_partition_disjoint", str(r))]
    return []


# ---------------------------------------------------------------------------
# Bounded checks of the iteration identities, by the ground reading


def _law(name: str, lhs: RRel, rhs: RRel, symtab: SymbolTable, depth: int):
    left, right = (observations(final_instances, r, symtab, depth)
                   for r in (lhs, rhs))
    ok = left == right
    witness = None
    if not ok:
        diff = (left - right) | (right - left)
        witness = str(sorted(str(x) for x in diff)[0])
    return {"law": name, "ok": ok, "witness": witness}


def _leq(name: str, lhs: RRel, rhs: RRel, symtab: SymbolTable, depth: int):
    """lhs <= rhs in the refinement order: every lhs observation is an rhs one."""
    left, right = (observations(final_instances, r, symtab, depth)
                   for r in (lhs, rhs))
    ok = left <= right
    witness = None
    if not ok:
        witness = str(sorted(str(x) for x in (left - right))[0])
    return {"law": name, "ok": ok, "witness": witness}


def ka_laws_check(
    x: RRel, y: RRel, symtab: SymbolTable, depth: int = 3
) -> list:
    """Check the star identities and unfold/induction axioms on x and y by
    observation-set comparison up to trace length `depth`."""
    sx = RStar(x)
    results = [
        _law("star_idempotent", RStar(sx), sx, symtab, depth),
        _law("star_unfold_eq", sx, ROr((UNIT_R, RSeq(x, sx))), symtab, depth),
        _law(
            "denesting",
            RStar(ROr((x, y))),
            RStar(RSeq(RStar(x), RStar(y))),
            symtab,
            depth,
        ),
        _law("star_slide", RSeq(x, sx), RSeq(sx, x), symtab, depth),
        _leq(
            "unfold_axiom",
            ROr((UNIT_R, RSeq(x, sx))),
            sx,
            symtab,
            depth,
        ),
    ]
    # induction axioms, with candidate fixpoints built by unrolling;
    # the premise is re-checked at the bound so the implication is honest
    z = y
    y0: RRel = z
    for _ in range(depth):
        y0 = ROr((z, RSeq(x, y0)))
    results.append(
        _implication(
            "induction_left",
            ROr((z, RSeq(x, y0))),
            y0,
            RSeq(RStar(x), z),
            y0,
            symtab,
            depth,
        )
    )
    y1: RRel = z
    for _ in range(depth):
        y1 = ROr((z, RSeq(y1, x)))
    results.append(
        _implication(
            "induction_right",
            ROr((z, RSeq(y1, x))),
            y1,
            RSeq(z, RStar(x)),
            y1,
            symtab,
            depth,
        )
    )
    return results


def _implication(
    name: str,
    prem_lhs: RRel,
    prem_rhs: RRel,
    conc_lhs: RRel,
    conc_rhs: RRel,
    symtab: SymbolTable,
    depth: int,
):
    left, right = (observations(final_instances, r, symtab, depth)
                   for r in (prem_lhs, prem_rhs))
    if not left <= right:
        return {"law": name, "ok": True, "witness": None, "vacuous": True}
    out = _leq(name, conc_lhs, conc_rhs, symtab, depth)
    out["vacuous"] = False
    return out


# ---------------------------------------------------------------------------
# Suites


COMPOSITION_LAWS = [
    check_test_precompose,
    check_final_final,
    check_final_quiescent,
    check_cond_final,
    check_cond_quiescent,
    check_conj_quiescent_union,
]

WP_LAWS = [check_wp_final]

ASSIGN_LAWS = [
    check_assign_distribution,
    check_assign_event_swap,
    check_assign_composition,
    check_stop_annihilates,
]

FILTER_LAWS = [check_filter_partition]

ALL_LAWS = COMPOSITION_LAWS + WP_LAWS + ASSIGN_LAWS + FILTER_LAWS


def run_law_suite(seed: int = 0, per_law: int = 50) -> dict:
    """Run every relational law on `per_law` random instances each."""
    rng = randgen.rng_for(seed)
    failures = []
    instances = 0
    for law in ALL_LAWS:
        for _ in range(per_law):
            instances += 1
            failures.extend(law(rng))
    return {
        "instances": instances,
        "failures": failures,
        "ok": not failures,
    }


def run_ka_suite(seed: int = 0, terms: int = 200, depth: int = 3) -> dict:
    """Bounded-unfold checks of the iteration identities on random star-free
    relation terms."""
    rng = randgen.rng_for(seed)
    failures = []
    checked = 0
    for _ in range(terms):
        symtab = randgen.random_symtab(rng)
        x = or_of(
            [
                RAtom(randgen.random_final_atom(rng, symtab, min_trace=1))
                for _ in range(rng.randint(1, 2))
            ]
        )
        y = or_of(
            [
                RAtom(randgen.random_final_atom(rng, symtab))
                for _ in range(rng.randint(1, 2))
            ]
        )
        checked += 1
        for res in ka_laws_check(x, y, symtab, depth):
            if not res["ok"]:
                failures.append(res)
    return {"terms": checked, "failures": failures, "ok": not failures}
