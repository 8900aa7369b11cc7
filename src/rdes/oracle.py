"""Independent operational reading of programs, and the cross-check.

The oracle reads the core program forms by their structural operational
semantics (Plotkin 1981), and never consults the contract calculus:
agreement between the two (`cross_check`) is evidence for the calculated
contracts, not a restatement of them.

Observations are relative to an initial state:

* ``Quiet``: paused after a trace, accepting a set of events;
* ``Term``: terminated after a trace in a final state;
* ``Div``: divergence reached after a trace (anything may follow).

The semantics (`_Semantics`).  A configuration is the residual action with
its continuation stack, the actions still to run after it, and a
valuation; the empty stack is a termination at its valuation.  An action
moves by its form:

* an event offers itself: the configuration pauses accepting it, and the
  event leads to the rest of the stack;
* `stop` pauses accepting nothing, `chaos` diverges, `miracle` has no move;
* `skip`, an assignment, a sequence, an internal choice, a conditional and
  a loop move silently: to the rest, to the rest from the updated
  valuation, to the first part followed by the second, to each branch, to
  the chosen branch, and into one more pass of the body or out of the loop
  as its guard says;
* an external choice closes each branch silently on its own (a branch's
  silent moves do not resolve the choice).  Every branch's pauses, its
  divergence and its events are the choice's.  A silent termination of a
  branch terminates the choice, and the choice pauses at the empty trace,
  accepting the union of one pause of each branch, only if every branch
  pauses there.

A silent cycle is divergence: a loop that can repeat silently forever is
chaos, as the calculator's `while_contract` reads it.  A silent move that
does not recur is just a move.  While-programs have finitely many
residuals, so every silent closure is finite.

The semantics is read determinised, as `view.View` reads a relation: the
set of configurations that a trace reaches from the initial state, closed
under silent moves.  Each node set is numbered once, by the configurations
it closes, with its labels (the accepted sets of its pauses, the final
states of its terminations, and whether it diverges) and, once asked for,
its moves: the node set each event leads to.  Node set 0 is empty.

`enumerate_program` and `contract_obs` return the observations within a
trace bound as a read-only set backed by such an automaton
(`Observations`): it holds a start node set, and iterating, counting or
testing membership walks the automaton to the bound.  The oracle's
automaton is the semantics above.  A contract's (`_Denotation`) is a trie
of the ground traces of the precondition clauses that hold at the initial
state, each ending in a divergence, beside the node sets of its peri- and
postcondition's `view.View`s.  The bound restricts: the observations at
bound k are those at any bound K >= k whose trace has length at most k.

`cross_check` walks the two automata in lockstep (`_Lockstep`):
depth-first from the initial state, in witness order of the events, to
each trace within the bound that either side reaches, once, as a pair of
node sets.  It compares each pair's pauses and terminations once and keeps
the result, and the pair's moves, per pair.  Divergences are compared as
prefix-minimal sets: anything may follow a divergence, so a divergence
after a trace that already diverged on the same side says nothing new.
The walk carries, per side, whether a proper prefix of the walked trace
has diverged, and a side's divergence counts only where none has.  A trace
is built as a tuple only where the two sides differ, and `_listed`
formats those few observations.

The walk visits every trace within the bound and prunes nothing across
traces.  Two traces that reach the same pair of node sets have the same
futures, so a walk that remembered the pairs it has seen could stop there
and compare the sides for every trace length.  It does not: such a closure
makes the cost stop growing with the bound, so the bound would no longer
measure anything, and an "unbounded" agreement would need a certificate of
its own (see `verify`'s docstring for the same choice).  Each report counts
the (walk, trace) nodes visited (`traces`), over the walks below.

`cross_check` reads both sides once per class of initial states, in two
tiers.  Each side has its own frame rule: what the side reads, and what a
termination may leave unwritten, which final states carry.  The oracle's
is `_reads_writes`, over the program's core actions as the semantics reads
them, and the contract's is `relalg.reads_writes`, over its three
relations.  Each rule is a fact about its own side's reading alone.

A coarse class is the states that agree on what either side reads.  A
variable that some side may leave unwritten and neither reads is only ever
copied, as the paper's final atom Phi(b | s | t) frames every variable
outside the domain of s.  So a coarse class is walked once, from its first
state with the marker `KEPT` as the value of each such variable
(`_marked`).  No evaluation on either side can read that value, so a final
state holds `KEPT` exactly where the run left the variable alone, and from
each state of the class each side gives the marked observations with `st`,
and `KEPT`, replaced by that state's values.  The replacement is the same
on both sides, so a marked walk that finds no difference decides every
state of the class.  A marked difference does not: the replacement can make
two final states equal, as where one side keeps x and the other writes
x := 0, which differ only where x is not 0.  There each fine class inside
the coarse one, the states that also agree on the marked variables, is
walked from its first state, concretely; the two sides differ at a state
exactly where they differ there.  With nothing to mark, the coarse class
is the fine one and its one walk is concrete.  A wrong calculus shows at
these states as it would at any other, and a wrong contract that reads a
variable keeps that variable concrete, since the contract's rule names it.
The classes of one program are read off one semantics, one denotation and
one table of pairs, so that a class reuses the node sets and pairs that an
earlier one reached.  Each report counts the walks (`classes`): the marked
ones, and the fine ones where a marked walk differed.
"""

from __future__ import annotations

import gc
import itertools
from collections.abc import Set
from typing import NamedTuple

from . import dsl
from .contracts import Contract
from .relalg import depends, ground_trace, pp_trace, reads_writes
from .state import (
    SymbolTable,
    Valuation,
    eval_expr,
    free_vars,
    pp_value,
    witness_order,
)
from .view import View


# Named tuples, so that building, hashing and comparing observations runs in
# C.  Observations of different kinds never compare equal: a `Div` has two
# fields, and a `Quiet`'s accepted set is never equal to a `Term`'s state.
class Quiet(NamedTuple):
    st: Valuation
    tt: tuple
    acc: frozenset


class Term(NamedTuple):
    st: Valuation
    tt: tuple
    st2: Valuation


class Div(NamedTuple):
    st: Valuation
    tt: tuple


class Observations(Set):
    """The observations from s0 with traces of at most `bound` events,
    read off an automaton from node set `start`.  The automaton names its
    node sets (a false name is the empty one); `labels[d]` is (accepted
    sets, final states, diverges), and `successors(d)` maps each event to
    the nonempty node set it leads to, in witness order."""

    def __init__(self, automaton, s0: Valuation, bound: int, start):
        self.automaton = automaton
        self.s0 = s0
        self.bound = bound
        self.start = start

    def _traces(self):
        """(trace, node set) for every trace within the bound."""
        successors, bound = self.automaton.successors, self.bound
        reached = [((), self.start)] if self.start else []
        while reached:
            tt, d = reached.pop()
            yield tt, d
            if len(tt) < bound:
                reached.extend((tt + (e,), after)
                               for e, after in successors(d).items())

    def __iter__(self):
        s0, labels = self.s0, self.automaton.labels
        for tt, d in self._traces():
            pauses, terms, diverges = labels[d]
            for acc in pauses:
                yield Quiet(s0, tt, acc)
            for s2 in terms:
                yield Term(s0, tt, s2)
            if diverges:
                yield Div(s0, tt)

    def __len__(self) -> int:
        labels = self.automaton.labels
        return sum(len(labels[d][0]) + len(labels[d][1]) + labels[d][2]
                   for _, d in self._traces())

    def __contains__(self, o) -> bool:
        kind = type(o)
        if (kind not in (Quiet, Term, Div) or o.st != self.s0
                or len(o.tt) > self.bound):
            return False
        d = self.start
        for e in o.tt:
            if not d:
                return False
            d = self.automaton.successors(d).get(e, 0)
        pauses, terms, diverges = self.automaton.labels[d]
        if kind is Quiet:
            return o.acc in pauses
        if kind is Term:
            return o.st2 in terms
        return diverges


# the core forms, as the semantics moves them
(_DoEvent, _Seq, _Skip, _Assign, _While, _ExtChoice, _Cond, _IntChoice, _Stop,
 _Chaos, _Miracle) = (dsl.DoEvent, dsl.Seq, dsl.Skip, dsl.Assign, dsl.While,
                      dsl.ExtChoice, dsl.Cond, dsl.IntChoice, dsl.Stop,
                      dsl.Chaos, dsl.Miracle)
_NOTHING = frozenset()
_NO_LABELS = (_NOTHING, _NOTHING, False)  # those of an empty node set
_NO_MOVES: dict = {}  # the moves of every node set that waits on nothing


def enumerate_program(
    tp: dsl.TypedProgram, s0: Valuation, trace_bound: int, semantics=None
) -> Observations:
    """All observations from s0 with traces within `trace_bound`, read off
    `semantics`, the program's `_Semantics` if given (`cross_check` reads
    every class of initial states off one)."""
    if semantics is None:
        semantics = _Semantics(tp.symtab, tp.body)
    return Observations(semantics, s0, trace_bound, semantics.start(s0))


class _Semantics:
    """The structural operational semantics of one program, determinised
    as walks reach it (see the module docstring).  It holds no reference
    to its own methods, so reference counting frees it."""

    def __init__(self, symtab: SymbolTable, body: dsl.Action):
        self.symtab = symtab
        # number -> an action of the body, breadth-first from it, its form
        # and the numbers of the actions inside it
        self.parts: list = [body]
        self.forms: list = []
        self.kids: list = []
        for a in self.parts:
            form = type(a)
            if form is _Seq:
                inside = (a.first, a.second)
            elif form is _Cond:
                inside = (a.then, a.other)
            elif form is _While:
                inside = (a.body,)
            elif form is _IntChoice or form is _ExtChoice:
                inside = a.branches
            else:
                inside = ()
            first = len(self.parts)
            self.forms.append(form)
            self.kids.append(tuple(range(first, first + len(inside))))
            self.parts.extend(inside)
        self.values: dict = {}  # (part, valuation) -> what the part computes
        self.branches: dict = {}  # (part, valuation) -> a branch's closure
        # the configurations a node set closes, one or a frozenset of them
        # -> its number; node set 0 is empty
        self.ids: dict = {}
        # number -> (pauses, terminations, diverges)
        self.labels: list = [_NO_LABELS]
        self.waiting: list = [()]  # number -> {(event, stack, valuation)}
        self.moves: list = [_NO_MOVES]  # number -> {event: number}, once built

    def start(self, s: Valuation) -> int:
        """The node set from which the program runs at s."""
        return self._number(((0,), s))

    def successors(self, d: int) -> dict:
        """event -> the nonempty node set it leads to from node set d, in
        witness order of the events."""
        moves = self.moves[d]
        if moves is None:
            by_event: dict = {}
            for e, stack, s in self.waiting[d]:
                by_event.setdefault(e, []).append((stack, s))
            moves = self.moves[d] = {}
            for e in witness_order(by_event):
                roots = by_event[e]
                after = self._number(roots[0] if len(roots) == 1
                                     else frozenset(roots))
                if after:
                    moves[e] = after
        return moves

    def _value(self, n: int, s: Valuation):
        """What part n computes at s, kept in `values`, where callers look
        first: the event it offers (with the set of it), the valuation it
        assigns, or its guard."""
        a = self.parts[n]
        if isinstance(a, dsl.DoEvent):
            data = None if a.data is None else eval_expr(a.data, s)
            e = self.symtab.ground_event(a.chan, data)
            v = e, frozenset({e})
        elif isinstance(a, dsl.Assign):
            v = s.set(a.var, eval_expr(a.expr, s),
                      self.symtab.variables[a.var])
        else:
            v = bool(eval_expr(a.cond, s))
        self.values[n, s] = v
        return v

    def _number(self, roots) -> int:
        """The number of the node set that closes `roots`, a configuration
        or a frozenset of them; 0 if it is empty."""
        n = self.ids.get(roots)
        if n is None:
            pauses, terms, diverges, waiting = (
                self._closed(*roots) if type(roots) is tuple
                else self._close(list(roots)))
            if pauses or terms or diverges or waiting:
                n = len(self.labels)
                self.labels.append((pauses, terms, diverges))
                self.waiting.append(waiting)
                self.moves.append(None if waiting else _NO_MOVES)
            else:
                n = 0
            self.ids[roots] = n
        return n

    def _closed(self, stack: tuple, s: Valuation) -> tuple:
        """`_close` of the one configuration (stack, s).  Into sequences,
        to a lone event or termination, it needs no general closure."""
        forms, kids = self.forms, self.kids
        while stack and forms[stack[0]] is _Seq:
            stack = kids[stack[0]] + stack[1:]
        if not stack:
            return _NOTHING, frozenset((s,)), False, ()
        n = stack[0]
        if forms[n] is _DoEvent:
            e, offer = self.values.get((n, s)) or self._value(n, s)
            return frozenset((offer,)), _NOTHING, False, ((e, stack[1:], s),)
        return self._close([(stack, s)])

    def _close(self, reached: list) -> tuple:
        """(pauses, terminations, diverges, waiting) of the configurations
        that `reached` lead to by silent moves: the accepted sets and final
        states there, whether a silent move there recurs, and each
        (event, stack, valuation) that an event leads to.  What a part
        computes at a valuation is computed once (`values`)."""
        forms, kids, values = self.forms, self.kids, self.values
        pauses, terms, waiting = set(), set(), set()
        diverges = again = False
        seen = set()
        moved = []  # (configuration, the ones its silent moves reach)
        while reached:
            node = reached.pop()
            if node in seen:
                again = True
                continue
            seen.add(node)
            stack, s = node
            if not stack:
                terms.add(s)
                continue
            n = stack[0]
            rest = stack[1:]
            form = forms[n]
            if form is _DoEvent:
                e, offer = values.get((n, s)) or self._value(n, s)
                pauses.add(offer)
                waiting.add((e, rest, s))
                continue
            if form is _Seq:
                nxt = [(kids[n] + rest, s)]
            elif form is _Skip:
                nxt = [(rest, s)]
            elif form is _Assign:
                nxt = [(rest, values.get((n, s)) or self._value(n, s))]
            elif form is _While:
                held = values.get((n, s))
                if held is None:
                    held = self._value(n, s)
                nxt = [(kids[n] + stack, s) if held else (rest, s)]
            elif form is _ExtChoice:
                nxt, stuck = self._choice(kids[n], s, rest, pauses, waiting)
                diverges = diverges or stuck
            elif form is _Cond:
                held = values.get((n, s))
                if held is None:
                    held = self._value(n, s)
                nxt = [((kids[n][0 if held else 1],) + rest, s)]
            elif form is _IntChoice:
                nxt = [((b,) + rest, s) for b in kids[n]]
            elif form is _Stop:
                pauses.add(_NOTHING)
                continue
            elif form is _Chaos:
                diverges = True
                continue
            elif form is _Miracle:
                continue
            else:
                raise TypeError(f"not a core action: {self.parts[n]!r}")
            moved.append((node, nxt))
            reached.extend(nxt)
        if again and not diverges:
            graph: dict = {}
            for node, nxt in moved:
                graph.setdefault(node, []).extend(nxt)
            diverges = _cyclic(graph)
        return pauses, terms, diverges, waiting

    def _choice(self, branches: tuple, s: Valuation, rest: tuple,
                pauses: set, waiting: set) -> tuple:
        """An external choice of the parts `branches` at s, followed by
        `rest`: add its pauses and what waits on an event, each branch
        closed on its own (once per branch and valuation, `branches`);
        (the configurations its silent terminations reach, whether a
        branch diverges)."""
        nxt, offers, diverges = [], [], False
        for b in branches:
            closed = self.branches.get((b, s))
            if closed is None:
                closed = self.branches[b, s] = self._closed((b,), s)
            b_pauses, b_terms, b_diverges, b_waiting = closed
            offers.append(b_pauses)
            diverges = diverges or b_diverges
            nxt += [(rest, s1) for s1 in b_terms]
            waiting.update([(e, stack + rest, s1)
                            for e, stack, s1 in b_waiting])
        if all(offers):
            pauses.update(frozenset().union(*combo)
                          for combo in itertools.product(*offers))
        return nxt, diverges


def _merged(first: dict, *others: dict):
    """The events of the given maps, each in witness order, merged into
    witness order."""
    if all(m.keys() <= first.keys() for m in others):
        return first
    events = first.keys() | set().union(*others)
    for m in others:
        if len(m) == len(events):
            return m
    return sorted(events, key=str)


def _cyclic(graph: dict) -> bool:
    """Does the graph, node -> successors, have a cycle?"""
    done: set = set()
    for root in graph:
        if root in done:
            continue
        on_path = {root}
        path = [(root, iter(graph[root]))]
        while path:
            node, todo = path[-1]
            for m in todo:
                if m in on_path:
                    return True
                if m not in done and m in graph:
                    on_path.add(m)
                    path.append((m, iter(graph[m])))
                    break
            else:
                path.pop()
                on_path.discard(node)
                done.add(node)
    return False


def _reads_writes(a: dsl.Action, variables: frozenset) -> tuple:
    """(reads, writes) of a core action over `variables`, read off the
    program text as the enumerator reads it: runs from initial states that
    agree on `reads` make the same choices and give the same events, pauses
    and divergences, and each termination writes every variable in
    `writes`, as a function of `reads`.  An action that never terminates
    writes every variable."""
    if isinstance(a, dsl.Skip):
        return frozenset(), frozenset()
    if isinstance(a, (dsl.Stop, dsl.Chaos, dsl.Miracle)):
        return frozenset(), variables
    if isinstance(a, dsl.Assign):
        return free_vars(a.expr), frozenset({a.var})
    if isinstance(a, dsl.DoEvent):
        if a.data is None:
            return frozenset(), frozenset()
        return free_vars(a.data), frozenset()
    if isinstance(a, dsl.Seq):
        r1, w1 = _reads_writes(a.first, variables)
        r2, w2 = _reads_writes(a.second, variables)
        return r1 | (r2 - w1), w1 | w2
    if isinstance(a, (dsl.Cond, dsl.IntChoice, dsl.ExtChoice)):
        if isinstance(a, dsl.Cond):
            reads, branches = free_vars(a.cond), (a.then, a.other)
        else:
            reads, branches = frozenset(), a.branches
        writes = variables
        for b in branches:
            rb, wb = _reads_writes(b, variables)
            reads, writes = reads | rb, writes & wb
        return reads, writes
    if isinstance(a, dsl.While):
        # every pass starts where the states agree on what passes read, as
        # the first does; no pass may run, so the loop writes nothing
        body_reads = _reads_writes(a.body, variables)[0]
        return free_vars(a.cond) | body_reads, frozenset()
    raise TypeError(f"not a core action: {a!r}")


def _program_frame(tp: dsl.TypedProgram) -> tuple:
    """(reads, unwritten) of `tp` by the oracle's rule: the variables whose
    initial value it reads, and those that a termination may leave
    unwritten, which its final states carry."""
    variables = frozenset(tp.symtab.variables)
    reads, writes = _reads_writes(tp.body, variables)
    return reads, variables - writes


class _Kept:
    """The type of `KEPT`, the value a marked state gives each carried
    variable (see the module docstring)."""

    def __repr__(self) -> str:
        return "KEPT"


KEPT = _Kept()


def _marked(s: Valuation, kept: frozenset) -> Valuation:
    """s with `KEPT` for the value of each variable in `kept`."""
    return Valuation(tuple((n, KEPT if n in kept else v) for n, v in s.items))


# ---------------------------------------------------------------------------
# Contract-side observations


def contract_obs(
    c: Contract,
    s0: Valuation,
    symtab: SymbolTable,
    trace_bound: int,
    denotation=None,
) -> Observations:
    """Ground observations a calculated contract denotes from s0, read off
    `denotation`, the contract's `_Denotation` if given."""
    if denotation is None:
        denotation = _Denotation(c, symtab)
    return Observations(denotation, s0, trace_bound,
                        denotation.start(s0, trace_bound))


class _Denotation:
    """The automaton of a contract's observations.  A node set is a triple:
    a node of the trie of the clause traces that hold at the initial state,
    a node set of the pericondition's view and one of the postcondition's.
    Each start has a trie of its own; the views number and keep their node
    sets, so the triples need no numbers of their own.  The empty node set
    is 0."""

    def __init__(self, c: Contract, symtab: SymbolTable):
        self.clauses = c.pre.clauses
        self.symtab = symtab
        self.peri = View(c.peri, "peri", symtab)
        self.post = View(c.post, "post", symtab)
        self.trie: list = [{}]  # number -> {event: number}; 0 is empty
        self.ends: set = set()  # the trie nodes where a clause trace ends
        self.labels = _Labels(self)

    def start(self, s0: Valuation, bound: int):
        """The node set from which the contract runs at s0, with the trie
        of the clause traces that hold there within `bound`."""
        root = 0
        for clause in self.clauses:
            if eval_expr(clause.cond, s0):
                tt = ground_trace(clause.trace, self.symtab, s0)
                if len(tt) <= bound:
                    if not root:
                        root = len(self.trie)
                        self.trie.append({})
                    self._insert(root, tt)
        node = (root, self.peri.start(s0), self.post.start(s0))
        return node if any(node) else 0

    def _insert(self, t: int, tt: tuple) -> None:
        for e in tt:
            after = self.trie[t].get(e)
            if after is None:
                after = self.trie[t][e] = len(self.trie)
                self.trie.append({})
            t = after
        self.ends.add(t)

    def successors(self, d) -> dict:
        """event -> the nonempty node set it leads to from node set d, in
        witness order of the events."""
        if not d:
            return {}
        t, p, q = d
        by_trie, by_peri, by_post = (self.trie[t], self.peri.successors(p),
                                     self.post.successors(q))
        if not by_trie and not by_post:
            return {e: (0, after, 0) for e, after in by_peri.items()}
        return {e: (by_trie.get(e, 0), by_peri.get(e, 0), by_post.get(e, 0))
                for e in _merged(by_peri, by_post, by_trie)}


class _Labels:
    """The labels of a contract's node sets, read off its parts."""

    def __init__(self, denotation: _Denotation):
        self.peri = denotation.peri.labels
        self.post = denotation.post.labels
        self.ends = denotation.ends

    def __getitem__(self, d) -> tuple:
        if not d:
            return _NO_LABELS
        t, p, q = d
        return self.peri[p], self.post[q], t in self.ends


def _contract_frame(c: Contract, symtab: SymbolTable) -> tuple:
    """(reads, unwritten) of c by `relalg`'s rule: the variables whose
    initial value `contract_obs` of c reads, and those that a postcondition
    instance may leave unwritten, which its final states carry."""
    variables = frozenset(symtab.variables)
    reads, writes = reads_writes(c.post, variables)
    return (reads | depends(c.pre, "pre", variables)
            | depends(c.peri, "peri", variables)), variables - writes


# ---------------------------------------------------------------------------
# Cross-checking

_KINDS = ("quiet", "term", "divergence")
_SIDES = ("oracle", "calculus")


def _listed(missing: dict) -> list:
    """The differences, given per (kind, side) the observations that only
    that side has: (trace, accepted set), (trace, final state) or a trace."""
    return [
        {"kind": kind, "only_in": side, "obs": _fmt_obs(kind, o)}
        for kind in _KINDS
        for side in _SIDES
        for o in sorted(missing.get((kind, side), ()), key=str)
    ]


def _fmt_obs(kind: str, o) -> str:
    if kind == "quiet":
        return f"({pp_trace(o[0])}, accepts {pp_value(o[1])})"
    if kind == "term":
        return f"({pp_trace(o[0])}, {o[1]})"
    return pp_trace(o)


# bits of a pair's flags: the labels differ but for divergence; each side
# diverges
_LABELS, _LEFT, _RIGHT = 1, 2, 4


class _Lockstep:
    """Two automata walked in lockstep (see the module docstring).  It
    numbers each pair of node sets that a walk reaches and keeps its flags
    and, once built, its moves, for every walk.  Pairs refer to each other
    by number, so they form no reference cycles."""

    def __init__(self, left, right):
        self.left_labels, self.left_moves = left.labels, left.successors
        self.right_labels, self.right_moves = right.labels, right.successors
        self.ids: dict = {}  # (left node set, right node set) -> number
        self.nodes: list = []  # number -> (left node set, right node set)
        self.flags: list = []  # number -> _LABELS | _LEFT | _RIGHT bits
        self.moves: list = []  # number -> [(event, number)], once built

    def _pair(self, a, b) -> int:
        p = self.ids.get((a, b))
        if p is None:
            p = self.ids[a, b] = len(self.nodes)
            pa, ta, da = self.left_labels[a]
            pb, tb, db = self.right_labels[b]
            self.nodes.append((a, b))
            self.flags.append((pa != pb or ta != tb) * _LABELS + da * _LEFT
                              + db * _RIGHT)
            self.moves.append(None)
        return p

    def _moves(self, p: int) -> list:
        """The moves of pair p, each event to the pair it leads to."""
        a, b = self.nodes[p]
        by_a, by_b = self.left_moves(a), self.right_moves(b)
        pair = self._pair
        if not by_a and not by_b:
            out = []
        elif by_a.keys() == by_b.keys():
            out = [(e, pair(after, by_b[e])) for e, after in by_a.items()]
        else:
            out = [(e, pair(by_a.get(e, 0), by_b.get(e, 0)))
                   for e in _merged(by_a, by_b)]
        self.moves[p] = out
        return out

    def walk(self, a, b, bound: int) -> tuple:
        """(the differences, the traces visited) from the pair of node
        sets (a, b), to every trace within `bound` that either side
        reaches, depth-first."""
        if not (a or b):
            return [], 0
        flags, moves, build, note = (self.flags, self.moves, self._moves,
                                     self._note)
        missing: dict = {}  # (kind, side) -> observations only it has
        path = [None] * bound  # the events walked, path[:n] at depth n
        root = self._pair(a, b)
        above = note(root, path, 0, 0, missing) if flags[root] else 0
        traces = 1
        # (pair, length n of its trace, bits of the sides on which a proper
        # prefix of it diverged, its last event) still to be extended
        todo = [(root, 0, above, None)] if bound else []
        while todo:
            p, n, above, last = todo.pop()
            if n:
                path[n - 1] = last
            out = moves[p]
            if out is None:
                out = build(p)
            traces += len(out)
            new = ~above
            if n + 1 == bound:
                # the longest traces: examined here, extended by none
                for e, q in out:
                    if flags[q] & new:
                        path[n] = e
                        note(q, path, n + 1, above, missing)
                continue
            for e, q in reversed(out):  # popped in witness order
                below = above
                if flags[q] & new:
                    path[n] = e
                    below = note(q, path, n + 1, above, missing)
                todo.append((q, n + 1, below, e))
        return (_listed(missing) if missing else []), traces

    def _note(self, p: int, path: list, n: int, above: int,
              missing: dict) -> int:
        """Record in `missing` what differs at pair p, reached by the
        trace path[:n], where `above` has a side's bit if a proper prefix
        of the trace diverged on that side; the bits for the traces that
        extend it."""
        f, (a, b) = self.flags[p], self.nodes[p]
        tt = tuple(path[:n])
        found = []
        if f & _LABELS:
            left, right = self.left_labels[a], self.right_labels[b]
            for side, mine, theirs in (("oracle", left, right),
                                       ("calculus", right, left)):
                found += [(("quiet", side), (tt, acc))
                          for acc in mine[0] if acc not in theirs[0]]
                found += [(("term", side), (tt, s2))
                          for s2 in mine[1] if s2 not in theirs[1]]
        first = f & ~above & (_LEFT | _RIGHT)
        if first == _LEFT:
            found.append((("divergence", "oracle"), tt))
        elif first == _RIGHT:
            found.append((("divergence", "calculus"), tt))
        for kind_side, o in found:
            missing.setdefault(kind_side, set()).add(o)
        return above | (f & (_LEFT | _RIGHT))


def cross_check(tp: dsl.TypedProgram, calc: Contract, cfg) -> dict:
    """Compare enumerated and calculated observations from every initial
    state: once per coarse class of states from a marked state, and where
    that walk differs, once per fine class inside it (see the module
    docstring).  The differences from a fine class's first state are
    reported for each of its states, in valuation order.

    It runs without the cyclic collector, whoever calls it, for the reason
    `cli.main` runs every command so: the automata keep many containers
    alive while the check runs, hold no reference cycles, and would only
    be traversed by each collection."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _cross_check(tp, calc, cfg)
    finally:
        if collecting:
            gc.enable()


def _cross_check(tp: dsl.TypedProgram, calc: Contract, cfg) -> dict:
    symtab, bound = tp.symtab, cfg.trace_bound
    program_reads, program_unwritten = _program_frame(tp)
    calc_reads, calc_unwritten = _contract_frame(calc, symtab)
    reads = program_reads | calc_reads
    key_vars = reads | program_unwritten | calc_unwritten
    kept = key_vars - reads  # carried by some side, read by neither
    # every class is read off one automaton per side
    semantics, denotation = _Semantics(symtab, tp.body), _Denotation(calc,
                                                                     symtab)
    lockstep = _Lockstep(semantics, denotation)

    def walk(s0: Valuation) -> tuple:
        left = enumerate_program(tp, s0, bound, semantics)
        right = contract_obs(calc, s0, symtab, bound, denotation)
        return lockstep.walk(left.start, right.start, bound)

    # each state's coarse class, its values of what either side reads, and
    # its fine class, its values of every variable either rule names
    keys = [(tuple(v for n, v in s.items if n in reads),
             tuple(v for n, v in s.items if n in key_vars))
            for s in symtab.valuations()]
    agrees: dict = {}  # coarse key -> whether its marked walk agreed
    diffs_of: dict = {}  # fine key -> the differences from its first state
    classes = traces = 0
    for s0, (coarse, fine) in zip(symtab.valuations(), keys):
        if coarse not in agrees:
            found, visited = walk(_marked(s0, kept) if kept else s0)
            agrees[coarse] = not found
            if not kept:  # that walk was the fine class's
                diffs_of[fine] = found
            classes += 1
            traces += visited
        if not agrees[coarse] and fine not in diffs_of:
            diffs_of[fine], visited = walk(s0)
            classes += 1
            traces += visited
    diffs = [dict(d, state=str(s0))
             for s0, (coarse, fine) in zip(symtab.valuations(), keys)
             if not agrees[coarse] for d in diffs_of[fine]]
    return {"ok": not diffs, "diffs": diffs,
            "initial_states": len(symtab.valuations()),
            "classes": classes, "traces": traces}


def observations_json(tp: dsl.TypedProgram, cfg) -> dict:
    """Ground-observation dump of the oracle's enumeration from the default
    initial state."""
    s0 = tp.symtab.default_valuation()
    obs = enumerate_program(tp, s0, cfg.trace_bound)
    quiets, terms, divs = [], [], []
    for o in sorted(obs, key=str):
        if isinstance(o, Quiet):
            quiets.append(
                {
                    "state": str(o.st),
                    "trace": pp_trace(o.tt),
                    "accepts": sorted(str(e) for e in o.acc),
                }
            )
        elif isinstance(o, Term):
            terms.append(
                {
                    "state": str(o.st),
                    "trace": pp_trace(o.tt),
                    "state'": str(o.st2),
                }
            )
        else:
            divs.append({"state": str(o.st), "trace": pp_trace(o.tt)})
    out = {"quiets": quiets, "terms": terms}
    if divs:
        out["divergences"] = divs
    return out
