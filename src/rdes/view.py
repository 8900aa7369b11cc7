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
event leads to.  It evaluates an atom at a valuation once, however many
node sets reach it there (`edges`).  All of that lives as long as the
view: `verify` builds a view for one obligation, and `oracle` one for the
contract of one cross-checked program.  The view remembers node sets, not
traces: a walk still visits each trace it reaches.

The view is independent of `ground`, the other reading of a relation, and
the tests compare the instance sets the two give (`instances`).
"""

from __future__ import annotations

from .relalg import (
    FinalAtom,
    QuiescentAtom,
    RAtom,
    RFalse,
    ROr,
    RSeq,
    RStar,
    RTrue,
    ground_set,
    ground_trace,
)
from .state import (
    SymbolTable,
    Valuation,
    apply_to_valuation,
    eval_expr,
    witness_order,
)

# the continuation of a node that is a pause: its valuation is the
# pause's accepted set
PAUSE = None
_UNSET = object()
_NO_MOVES: dict = {}  # the moves of every node set that waits on nothing


class NotWalkable(Exception):
    """The relation has no transition-system view (the universal one)."""


class View:
    """The determinised view of relation `r` for observations of `kind`
    ("peri" or "post"), built as walks reach it.  Node set 0 is empty."""

    def __init__(self, r, kind: str, symtab: SymbolTable):
        self.quiet = kind == "peri"
        self.symtab = symtab
        # number -> a part of relation r, breadth-first from r, its form
        # (an atom's is FinalAtom or QuiescentAtom) and the numbers of its
        # parts; `parts` keeps each alive for as long as the view lives
        self.parts: list = [r]
        self.forms: list = []
        self.kids: list = []
        for x in self.parts:
            form = type(x)
            if form is RAtom:
                form, inside = type(x.atom), ()
            elif form is ROr:
                inside = x.args
            elif form is RSeq:
                inside = (x.first, x.second)
            elif form is RStar:
                inside = (x.body,)
            else:
                inside = ()
            first = len(self.parts)
            self.forms.append(form)
            self.kids.append(tuple(range(first, first + len(inside))))
            self.parts.extend(inside)
        # (part number, valuation) -> the edge of that atom there, or None
        self.edges: dict = {}
        self.ids: dict = {}  # (labels, pending events) -> node set number
        self.labels: list = []  # number -> frozenset of labels
        self.pending: list = []  # number -> (events, node after them)
        self.moves: list = []  # number -> {event: number}, once built
        self.starts: dict = {}  # valuation -> number
        self._number(set(), set())

    def start(self, s: Valuation) -> int:
        """The closed node set from which relation `r` runs at s."""
        d = self.starts.get(s)
        if d is None:
            if self.forms[0] is RFalse:
                return 0
            labels, pending = set(), set()
            self._close([((0,), s)], labels, pending)
            d = self.starts[s] = self._number(labels, pending)
        return d

    def successors(self, d: int) -> dict:
        """event -> the nonempty node set that it leads to from node set d,
        in witness order of the events."""
        moves = self.moves[d]
        if moves is None:
            by_event: dict = {}
            for events, after in self.pending[d]:
                by_event.setdefault(events[0], []).append((events[1:], after))
            moves = self.moves[d] = {}
            for e in witness_order(by_event):
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

    def _number(self, labels: set, pending: set) -> int:
        key = (frozenset(labels), frozenset(pending))
        n = self.ids.get(key)
        if n is None:
            n = self.ids[key] = len(self.labels)
            self.labels.append(key[0])
            self.pending.append(key[1])
            self.moves.append(None if pending else _NO_MOVES)
        return n

    def _close(self, reached: list, labels: set, pending: set) -> None:
        """Add to `labels` and `pending` what the nodes `reached` lead to by
        silent moves: the labels, and the nodes that wait on an event.  An
        atom's edge at a valuation is evaluated once (`edges`)."""
        quiet, forms, kids, edges = (self.quiet, self.forms, self.kids,
                                     self.edges)
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
            n = cont[0]
            rest = cont[1:]
            form = forms[n]
            if form is QuiescentAtom or form is FinalAtom:
                # a pause ends a postcondition view's walk, and a
                # termination a pericondition view's
                final = form is FinalAtom
                if final and quiet and not rest or not final and not quiet:
                    continue
                edge = edges.get((n, s), _UNSET)
                if edge is _UNSET:
                    edge = edges[n, s] = _edge(self.parts[n].atom, s,
                                               self.symtab)
                if edge is None:
                    continue
                events, x = edge
                after = (rest, x) if final else (PAUSE, x)
                if events:
                    pending.add((events, after))
                else:
                    reached.append(after)
            elif form is ROr:
                reached.extend([((b,) + rest, s) for b in kids[n]])
            elif form is RSeq:
                reached.append((kids[n] + rest, s))
            elif form is RStar:
                reached.append((rest, s))
                reached.append((kids[n] + cont, s))
            elif form is RTrue:
                raise NotWalkable("the universal relation has no instance set")
            elif form is not RFalse:
                raise TypeError(f"not a reactive relation: {self.parts[n]!r}")


def _edge(a, s: Valuation, symtab: SymbolTable):
    """(the ground events, then the final state or the accepted set) of
    atom a at s, or None where its condition fails."""
    if not eval_expr(a.cond, s):
        return None
    if isinstance(a, FinalAtom):
        x = apply_to_valuation(a.subst, s, symtab)
    else:
        x = ground_set(a.accept, symtab, s)
    return ground_trace(a.trace, symtab, s), x


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
