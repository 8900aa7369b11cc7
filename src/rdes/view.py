"""The transition-system view of a normalised reactive relation.

A normal form is already a transition system: atoms strung together by
sequence, disjunction and iteration.  The view reads it as one, lazily.

* A node is a continuation and a valuation: the relations still to run, in
  order, from that valuation.  The empty continuation is a termination at
  its valuation.  A continuation holds the numbers the view gives the
  parts of its relation, so that a node hashes without hashing relation
  terms.
* Each atom whose condition holds at the valuation is an edge.  A final
  atom Phi(b | s | t) leads along the ground events of t to the rest of the
  continuation, from the updated valuation; a quiescent atom E(b | t | A)
  leads along t to a pause that accepts the ground set of A.  A trace of
  more than one event passes through an intermediate node per event.
* A disjunction, a sequence and an iteration move silently: to each
  disjunct; to the first part followed by the second; out of the iteration
  or into one more pass of its body.  So does a final atom with an empty
  trace.  A walk closes every node set it reaches under these silent moves
  (`_close`).
* Pauses, with their accepted sets, and terminations, with their final
  states, label the nodes.  A view reads one kind: a pericondition view
  labels pauses, and drops a final atom that only a termination follows; a
  postcondition view labels terminations, and drops quiescent atoms.

A walk reads the view determinised: the set of nodes that a trace reaches
from an initial valuation.  The view numbers each closed node set it meets,
and keeps its labels and, once asked for, its moves, the node set each
event leads to.  All of that lives as long as the view, and `verify` builds
a view for one obligation.  The view remembers node sets, not traces: a
walk still visits each trace it reaches.

The view is independent of `ground`, the other reading of a relation, and
the tests compare the instance sets the two give (`instances`).
"""

from __future__ import annotations

from .relalg import (
    FinalAtom,
    RAtom,
    RFalse,
    ROr,
    RSeq,
    RStar,
    RTrue,
    ground_set,
    ground_trace,
)
from .state import SymbolTable, Valuation, apply_to_valuation, eval_expr

# the continuation of a node that is a pause: its valuation is the
# pause's accepted set
PAUSE = None


class NotWalkable(Exception):
    """The relation has no transition-system view (the universal one)."""


class View:
    """The determinised view of relation `r` for observations of `kind`
    ("peri" or "post"), built as walks reach it.  Node set 0 is empty."""

    def __init__(self, r, kind: str, symtab: SymbolTable):
        self.relation = r
        self.quiet = kind == "peri"
        self.symtab = symtab
        self.parts: list = []  # number -> a part of relation r
        self.part_numbers: dict = {}  # id of a part of r -> its number
        self.ids: dict = {}  # (labels, pending events) -> node set number
        self.labels: list = []  # number -> labels, in witness order
        self.pending: list = []  # number -> (events, node after them)
        self.moves: list = []  # number -> {event: number}, once built
        self.starts: dict = {}  # valuation -> number
        self._number(set(), set())

    def start(self, s: Valuation) -> int:
        """The closed node set from which relation `r` runs at s."""
        if s not in self.starts:
            labels, pending = set(), set()
            self._close([((self._part(self.relation),), s)], labels,
                        pending)
            self.starts[s] = self._number(labels, pending)
        return self.starts[s]

    def successors(self, d: int) -> dict:
        """event -> the nonempty node set that it leads to from node set d,
        in witness order of the events."""
        moves = self.moves[d]
        if moves is None:
            by_event: dict = {}
            for events, after in self.pending[d]:
                by_event.setdefault(events[0], []).append((events[1:], after))
            moves = self.moves[d] = {}
            for e in sorted(by_event, key=str):
                labels, pending, reached = set(), set(), []
                for rest, after in by_event[e]:
                    if rest:
                        pending.add((rest, after))
                    else:
                        reached.append(after)
                self._close(reached, labels, pending)
                if labels or pending:
                    moves[e] = self._number(labels, pending)
        return moves

    def reach(self, s: Valuation, tt: tuple) -> int:
        """The node set that trace tt reaches from s (0 if none)."""
        d = self.start(s)
        for e in tt:
            d = self.successors(d).get(e, 0)
        return d

    def allows(self, d: int, x) -> bool:
        """Does node set d allow accepted set x (a pericondition view: some
        pause accepts a subset of x) or final state x?"""
        if not self.quiet:
            return x in self.labels[d]
        for e in self.labels[d]:
            if e <= x:
                return True
        return False

    def _part(self, r) -> int:
        """The number of r, a part of the view's relation.  `parts` keeps
        r alive, so its id names it for as long as the view lives."""
        n = self.part_numbers.get(id(r))
        if n is None:
            n = self.part_numbers[id(r)] = len(self.parts)
            self.parts.append(r)
        return n

    def _number(self, labels: set, pending: set) -> int:
        key = (frozenset(labels), frozenset(pending))
        if key not in self.ids:
            self.ids[key] = len(self.labels)
            self.labels.append(tuple(sorted(labels, key=_label_key)))
            self.pending.append(key[1])
            self.moves.append(None)
        return self.ids[key]

    def _close(self, reached: list, labels: set, pending: set) -> None:
        """Add to `labels` and `pending` what the nodes `reached` lead to by
        silent moves: the labels, and the nodes that wait on an event."""
        quiet, symtab, parts, part = (self.quiet, self.symtab, self.parts,
                                      self._part)
        seen = set()
        while reached:
            node = reached.pop()
            if node in seen:
                continue
            seen.add(node)
            cont, s = node
            if cont is PAUSE:
                labels.add(s)
                continue
            if not cont:
                if not quiet:
                    labels.add(s)
                continue
            r, rest = parts[cont[0]], cont[1:]
            if isinstance(r, RAtom):
                a = r.atom
                # a pause ends a postcondition view's walk, and a
                # termination a pericondition view's
                if isinstance(a, FinalAtom):
                    if quiet and not rest or not eval_expr(a.cond, s):
                        continue
                    after = (rest, apply_to_valuation(a.subst, s, symtab))
                else:
                    if not quiet or not eval_expr(a.cond, s):
                        continue
                    after = (PAUSE, ground_set(a.accept, symtab, s))
                events = ground_trace(a.trace, symtab, s)
                if events:
                    pending.add((events, after))
                else:
                    reached.append(after)
            elif isinstance(r, ROr):
                reached.extend(((part(x),) + rest, s) for x in r.args)
            elif isinstance(r, RSeq):
                reached.append(((part(r.first), part(r.second)) + rest, s))
            elif isinstance(r, RStar):
                reached.append((rest, s))
                reached.append(((part(r.body), cont[0]) + rest, s))
            elif isinstance(r, RTrue):
                raise NotWalkable("the universal relation has no instance set")
            elif not isinstance(r, RFalse):
                raise TypeError(f"not a reactive relation: {r!r}")


def _label_key(x) -> tuple:
    """Witness-order key of an accepted set or a final state."""
    if isinstance(x, frozenset):
        return tuple(sorted(map(str, x)))
    return (str(x),)


def instances(view: View, s: Valuation, bound: int) -> frozenset:
    """The observations (trace, accepted set or final state) of the view's
    relation from s with traces of at most `bound` events."""
    out = set()
    reached = [(view.start(s), ())]
    while reached:
        d, tt = reached.pop()
        out.update((tt, x) for x in view.labels[d])
        if len(tt) < bound:
            reached.extend((after, tt + (e,))
                           for e, after in view.successors(d).items())
    return frozenset(out)
