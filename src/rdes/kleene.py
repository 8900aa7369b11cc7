"""Iteration support: weakest-precondition saturation and bounded checks of
the Kleene identities.

`star_wp` computes the precondition of an iterated relation against a clause
set by saturating wp steps, using clause subsumption to detect the fixpoint.
Non-convergence within the bound is reported, never guessed away.
"""

from __future__ import annotations

from .ground import final_instances, observations
from .relalg import (
    NegClause,
    PreNF,
    RRel,
    RSeq,
    RStar,
    ROr,
    UNIT_R,
    pre_of,
    traces_equiv,
    wp_or_final,
)
from .state import SymbolTable, cond_implies, node


# Default number of saturation steps a weakest precondition may take
WP_BOUND = 16


class WpNotConvergedError(Exception):
    pass


@node
class SaturationResult:
    clauses: PreNF
    converged: bool
    iterations: int


def _subsumes(c1: NegClause, c2: NegClause, symtab: SymbolTable) -> bool:
    """c1 implies c2 when c1's init trace prefixes c2's and c2's condition
    implies c1's: the shorter, weaker-guarded clause forbids more."""
    if len(c1.trace) > len(c2.trace):
        return False
    if not traces_equiv(c1.trace, c2.trace[: len(c1.trace)], symtab):
        return False
    return cond_implies(c2.cond, c1.cond, symtab)


def _reduce(clauses: list, symtab: SymbolTable) -> PreNF:
    kept = []
    for c in clauses:
        if any(_subsumes(k, c, symtab) for k in kept):
            continue
        kept = [k for k in kept if not _subsumes(c, k, symtab)]
        kept.append(c)
    return pre_of(kept, symtab)


def star_wp(
    r: RRel, p: PreNF, symtab: SymbolTable, bound: int = WP_BOUND
) -> SaturationResult:
    """Weakest precondition of the iteration of r against clause set p.

    Iterates C := C /\\ (r wp C) from C = p with subsumption until no
    unsubsumed clause appears; each step extends coverage to one more
    iteration of r.
    """
    current = _reduce(list(p.clauses), symtab)
    if current.is_true():
        return SaturationResult(current, True, 0)
    for i in range(bound):
        step = wp_or_final(r, current, symtab)
        merged = _reduce(list(current.clauses) + list(step.clauses), symtab)
        if merged == current:
            return SaturationResult(current, True, i)
        current = merged
    return SaturationResult(current, False, bound)


# ---------------------------------------------------------------------------
# Bounded checks of the iteration identities


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
