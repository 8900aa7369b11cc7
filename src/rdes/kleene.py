"""Iteration support: weakest-precondition saturation.

`star_wp` computes the precondition of an iterated relation against a clause
set by saturating wp steps, using clause subsumption to detect the fixpoint.
Non-convergence within the bound is reported, never guessed away.
"""

from __future__ import annotations

from .relalg import (
    NegClause,
    PreNF,
    RRel,
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
