"""Refinement obligations and their discharge.

A specification refines into an implementation when the implementation
weakens the precondition and strengthens the peri- and postconditions under
the specification's precondition.  Deadlock freedom, the loop-invariant rule
and the implication between a reduced invariant and a specification are
obligations of the same shape: every observation of the right-hand side
must be allowed by the left-hand side.

`check_rrel_refine` discharges every obligation as a search for the least
observation that the right-hand side allows and the left-hand side does
not.  The universal relation on the left allows every observation, so
there is nothing to search.  Otherwise the search has two sources:

* a precondition obligation is calculated from its clauses
  (`_pre_failure`).  A clause ¬(c ∧ t ≤ tt) fails exactly on the
  extensions of t(s) in each state s where c(s) holds.  So the least
  failing trace is a left-hand clause's own ground trace, unless a
  right-hand or assumed clause active at s has a prefix of it.  Nothing is
  enumerated: the search is states times clauses;
* every other obligation enumerates the right-hand side's observations
  (`_least_failure`).  A relation is walked through its transition-system
  view (`view.View`), trace by trace (`_walk`).  An invariant I is tested
  on the traces within the bound and every accepted set or final state;
  after a step, as `SeqInv(step, I)`, it is tested only on the suffixes
  that follow each of the step's terminated instances, which the step's
  view gives, so the step drives the enumeration (`_sweep`).  Each state
  s1 that a step instance reaches has its suffixes swept once per
  obligation, and every instance (t1, s1) puts t1 in front of the ones on
  which I holds.

An invariant reads a trace only through its projections (`state.Proj`):
the payload sequence of each channel it names.  So it cannot tell apart
traces with equal projections on those channels, however their events
interleave, and it is decided once per class of such traces:

* an invariant on the right is swept on one suffix per class of traces
  over the channels that either side reads (`_suffixes`): the class's
  least member in witness order.  That member is the greedy merge of the
  class's channel sequences, which puts first the least of their heads,
  because events of different channels never print equal.  As each
  channel's events print before those of a channel named after it, the
  merge is the sequences' concatenation in channel-name order.  An event
  on a channel that neither side reads changes no verdict and only
  lengthens the trace, so no swept suffix holds one.  Assumed clauses and
  a relation on the left read the trace whole, and then every trace is
  swept;
* an invariant on the left that reads the accepted set must reject every
  superset of an instance's accepted set on which it fails, since the
  instance admits them all.  Its failing sets are listed once per state
  and projection of the trace, in witness order
  (`_least_failing_superset`), and an instance fails with the first that
  contains its accepted set.  That is the least failing superset, which
  can print before the instance's own set: {a, b} before {b}.

An enumerated obligation is discharged from one initial state per class of
states it cannot tell apart (`_starts`): those that agree on each variable
whose initial value can change what a side gives or allows (`_depends`, by
`relalg.depends`).  They have the same failing (trace, accepted set or
final state) pairs, and the witness order below puts the state after the
trace.  So a class's least failure is at its state that prints least, the
one visited, and the witness is the one a visit of every state finds.

A relation is read through its view: the transition system that its
normal form already is, with a node per continuation and valuation, an
edge per atom, and pauses and terminations as labels.  The walk reads the
view determinised, as the set of nodes that the walked trace reaches, so
it holds one path of events and one node set per side rather than a tuple
per trace.  It goes depth-first from each visited state, with the events
of each node set in witness order, and tests the right-hand labels at each
trace against the left-hand side: a relation on the left is carried along
as the node set of its own view, and an invariant on the left is read off
the labels, given the trace only if it reads it.  Each obligation builds
one view per relation, which serves every visited state and both sides
when they are equal, and drops it when it is discharged.

The walk visits every (state, trace) pair within the bound that it reaches
and keeps nothing across traces.  Two traces that reach the same pair of
node sets have the same futures, so a walk that remembered the pairs it
has seen could stop there and settle an obligation for every trace length.
It does not: that closure would need the least witness kept per pair to
stay minimal, and a certificate for the "unbounded" verdict it would give.
Until then the walk answers what the trace bound asks, at a cost that
grows with the bound.  Each obligation's verdict counts the (state, trace)
pairs it visited (`traces`).

A refutation carries the least failing observation in witness order: trace
length, then the trace's events, then the initial state, then the accepted
set or final state, each compared by its printed form.  This is the
shortest-counterexample order that FDR3 also uses.  Every verdict carries its
bounds, and anything the bounds cannot settle is reported inconclusive
rather than guessed.  Each obligation's verdict also carries its scope: it
is "unbounded" only when calculation settles it for every trace length (a
calculated refutation, or a calculated "verified" with no failing clause at
any length), and "bounded" otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from . import dsl
from .contracts import Contract, calculate, loop_parts
from .kleene import WP_BOUND
from .relalg import (
    PreNF,
    RRel,
    RTrue,
    TRUE_PRE,
    TRUE_R,
    depends,
    ground_trace,
    normalize,
    pp_trace,
    state_test,
    subst_pre,
    subst_rrel,
)
from .state import (
    Acc,
    BinOp,
    Expr,
    Lit,
    Proj,
    Subst,
    SymbolTable,
    Valuation,
    apply_subst,
    assignment_subst,
    compose_subst,
    eval_expr,
    free_vars,
    negate,
    pp_expr,
    pp_value,
    subterms,
)
from .view import NotWalkable, View, instances


def _mentions_acc(side) -> bool:
    """Does an invariant side read the acceptance set?"""
    return isinstance(side, InvariantRel) and any(
        isinstance(x, Acc) for x in subterms(side.body))


@dataclass(frozen=True)
class Config:
    trace_bound: int = 4
    wp_bound: int = WP_BOUND

    def bounds(self) -> dict:
        return {"trace": self.trace_bound, "wp": self.wp_bound}


@dataclass(frozen=True)
class InvariantRel:
    """A reactive invariant: a condition over the initial state, the trace
    contribution (via projections), the acceptance set (quiescent kind), and
    the final state (terminated kind)."""

    kind: str  # "peri" | "post"
    body: Expr

    def __str__(self) -> str:
        return pp_expr(self.body)


@dataclass(frozen=True)
class SeqInv:
    """A relation followed by an invariant: the step shape of the loop rule,
    and only ever a right-hand side (`_invariant_observations`)."""

    prefix: RRel
    inv: InvariantRel


Side = Union[PreNF, RRel, InvariantRel, SeqInv]


@dataclass(frozen=True)
class Obligation:
    lhs: Side
    rhs: Side
    kind: str  # "pre" | "peri" | "post"
    origin: str
    assume: PreNF = TRUE_PRE


@dataclass(frozen=True)
class Verdict:
    kind: str  # "verified" | "refuted" | "inconclusive"
    bounds: dict
    witness: Optional[dict] = None
    reason: Optional[str] = None
    obligations: tuple = ()  # of (Obligation, Verdict)
    scope: str = "bounded"  # or "unbounded": no trace bound can change it
    traces: int = 0  # the (state, trace) pairs an enumeration visited

    @property
    def verified(self) -> bool:
        return self.kind == "verified"

    def exit_code(self) -> int:
        return {"verified": 0, "refuted": 1, "inconclusive": 2}[self.kind]

    def to_json(self):
        out = {"verdict": self.kind, "bounds": dict(self.bounds)}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        if self.obligations:
            out["obligations"] = [
                {"origin": o.origin, "kind": o.kind, "verdict": v.kind,
                 "scope": v.scope, "traces": v.traces}
                for o, v in self.obligations
            ]
        return out


def deadlock_free_spec() -> Contract:
    """Quiescent observations must accept at least one event."""
    return Contract(
        TRUE_PRE,
        InvariantRel("peri", BinOp("!=", Acc(), Lit(frozenset()))),
        TRUE_R,
    )


# ---------------------------------------------------------------------------
# Obligation generation


def refine_obligations(spec, impl: Contract) -> list:
    """The three refinement obligations: weaken the precondition, strengthen
    peri- and postcondition under the specification's precondition."""
    return [
        Obligation(impl.pre, spec.pre, "pre", "precondition weakening"),
        Obligation(
            spec.peri, impl.peri, "peri", "pericondition strengthening",
            assume=spec.pre,
        ),
        Obligation(
            spec.post, impl.post, "post", "postcondition strengthening",
            assume=spec.pre,
        ),
    ]


# ---------------------------------------------------------------------------
# Obligation discharge: one least-counterexample search


def check_rrel_refine(
    ob: Obligation, symtab: SymbolTable, cfg: Config
) -> Verdict:
    """Discharge one obligation: search the right-hand side's observations
    within the bounds for the least one the left-hand side does not allow.
    The universal relation on the left allows every observation."""
    if isinstance(ob.lhs, RTrue):
        return Verdict("verified", cfg.bounds())
    if ob.kind == "pre":
        hit, beyond = _pre_failure(ob, symtab, cfg.trace_bound)
        if hit is None:
            scope = "bounded" if beyond else "unbounded"
            return Verdict("verified", cfg.bounds(), scope=scope)
        return Verdict("refuted", cfg.bounds(), witness=_witness(ob, *hit),
                       scope="unbounded")
    try:
        hit, traces = _least_failure(ob, symtab, cfg.trace_bound)
    except NotWalkable as exc:
        return Verdict("inconclusive", cfg.bounds(), reason=str(exc))
    if hit is None:
        return Verdict("verified", cfg.bounds(), traces=traces)
    return Verdict("refuted", cfg.bounds(), witness=_witness(ob, *hit),
                   traces=traces)


def _pre_failure(ob: Obligation, symtab: SymbolTable, bound: int):
    """(least failing observation or None, whether a failing clause lies
    beyond the bound) of a precondition obligation, from its clauses.

    In state s the left-hand clauses whose condition holds fail exactly on
    the extensions of their ground traces, and the right-hand and assumed
    clauses whose condition holds exclude the extensions of theirs.  So the
    least failing trace from s is a left-hand ground trace that no excluded
    trace prefixes, and the least over all states is the witness a sweep of
    every trace within the bound would find first.  A trace with an event
    outside the alphabet is no observation at any length."""
    alphabet = frozenset(symtab.alphabet())
    excluding = ob.rhs.clauses + ob.assume.clauses
    best = best_key = None
    beyond = False
    for s in symtab.valuations():
        failing = _active_traces(ob.lhs.clauses, symtab, s)
        if not failing:
            continue
        excluded = _active_traces(excluding, symtab, s)
        for t in failing:
            if not alphabet.issuperset(t) or _extends(t, excluded):
                continue
            if len(t) > bound:
                beyond = True
                continue
            key = (len(t), _order_key(t), str(s))
            if best is None or key < best_key:
                best, best_key = (s, t, None), key
    return best, beyond


def _active_traces(clauses, symtab: SymbolTable, s: Valuation) -> list:
    """The ground traces at s of the clauses ¬(c ∧ t ≤ tt) with c true at s:
    the clauses exclude exactly the extensions of these traces."""
    return [ground_trace(c.trace, symtab, s)
            for c in clauses if eval_expr(c.cond, s)]


def _extends(tt: tuple, traces: list) -> bool:
    """Does one of `traces` prefix tt?"""
    return any(tt[: len(t)] == t for t in traces)


def _member(side: Side, kind: str, view):
    """The test (s, tt, x) -> bool of whether `side` allows an observation
    from state s with trace tt, where x is the accepted set (peri) or the
    final state (post).  A relation is read through its view, `view(side)`,
    from the node set that tt reaches from s."""
    if isinstance(side, InvariantRel):
        body = side.body
        if kind == "peri":
            return lambda s, tt, x: bool(eval_expr(body, s, tt=tt, acc=x))
        return lambda s, tt, x: bool(eval_expr(body, s, tt=tt, primed=x))
    v = view(side)
    return lambda s, tt, x: v.allows(v.reach(s, tt), x)


class _Least:
    """The least failing observation offered so far, in witness order, and
    the (state, trace) pairs visited to find it."""

    def __init__(self, kind: str, bound: int):
        self.x_key = _order_key if kind == "peri" else str
        self.bound = bound
        self.best = self.key = None
        # no trace longer than this can fail before the least failure
        self.longest = bound
        self.traces = 0

    def offer(self, s: Valuation, tt: tuple, x) -> None:
        key = (len(tt), _order_key(tt), str(s), self.x_key(x))
        if self.key is None or key < self.key:
            self.best, self.key = (s, tt, x), key
            self.longest = len(tt)


def _least_failure(ob: Obligation, symtab: SymbolTable, bound: int):
    """(the least observation (s, tt, x) that the right-hand side allows,
    the assumption does not exclude and the left-hand side does not allow,
    or None; the (state, trace) pairs visited) from each visited state s.
    Observations longer than the least failure so far are skipped.  Each
    relation is read through one view, built for this obligation alone, so
    equal relations on both sides share it."""
    views: dict = {}

    def view(r: RRel, kind: str = ob.kind) -> View:
        if (r, kind) not in views:
            views[r, kind] = View(r, kind, symtab)
        return views[r, kind]

    least = _Least(ob.kind, bound)
    if isinstance(ob.rhs, (InvariantRel, SeqInv)):
        _sweep(ob, symtab, least, view)
    else:
        _walk(ob, symtab, least, view)
    return least.best, least.traces


def _walk(ob: Obligation, symtab: SymbolTable, least: _Least, view) -> None:
    """Offer every failing observation of a right-hand relation: walk its
    view depth-first from each visited state, in witness order of the
    events, to each trace within `least.longest` that the assumption does
    not exclude, and test each label there.

    A relation on the left is carried along as the node set of its own view
    that the trace reaches.  An invariant on the left is given the trace,
    as a tuple of the walked events, only when it reads it; one that does
    not fails or holds alike on every trace that reaches a node set from a
    state, so it is tested once per node set."""
    rhs = view(ob.rhs)
    labels, successors = rhs.labels, rhs.successors
    lhs = None if isinstance(ob.lhs, InvariantRel) else view(ob.lhs)
    if lhs is None and ob.kind == "peri" and _mentions_acc(ob.lhs):
        # an invariant may reject an acceptance superset that an instance
        # admits
        fails = _least_failing_superset(ob.lhs, symtab)
    elif lhs is None:
        holds = _member(ob.lhs, ob.kind, None)
        fails = lambda s, tt, x: None if holds(s, tt, x) else x
    by_node_set = lhs is None and not _reads(ob.lhs)
    path = [None] * least.bound  # the events walked, path[:n] at depth n

    s = None  # the visited state
    decided: dict = {}  # node set -> its failing labels, if by_node_set

    def examine(d: int, l: int, n: int) -> None:
        """Offer each label at node set d that fails on the walked trace of
        length n from s, with the left-hand view at node set l."""
        failed = decided.get(d)
        if failed is None:
            if lhs is not None:
                failed = []
                for x in labels[d]:
                    if not lhs.allows(l, x):
                        failed.append(x)
            else:
                tt = tuple(path[:n])
                failed = [a for x in labels[d]
                          if (a := fails(s, tt, x)) is not None]
                if by_node_set:
                    decided[d] = failed
        for a in failed:
            least.offer(s, tuple(path[:n]), a)

    def extend(d: int, l: int, n: int, ahead: list) -> int:
        """Visit each trace that extends the walked one of length n, from
        node set d (l on the left); the number visited.  `ahead` holds the
        assumed traces that extend the walked one."""
        after_l = lhs.successors(l) if lhs else {}
        moves = successors(d)
        if n + 1 == least.longest and not ahead:
            # the extensions are the longest traces within reach, so each
            # is examined and none is extended
            for e, after in moves.items():
                # labels there, and undecided or with one failing
                if labels[after] and decided.get(after, True):
                    path[n] = e
                    examine(after, after_l.get(e, 0), n + 1)
            return len(moves)
        visited = 0
        for e, after in moves.items():
            if n >= least.longest:
                break
            further = ahead
            if ahead:
                further = [t for t in ahead if t[n] == e]
                if any(len(t) == n + 1 for t in further):
                    continue
            path[n] = e
            visited += 1
            l2 = after_l.get(e, 0)
            if labels[after] and decided.get(after, True):
                examine(after, l2, n + 1)
            if n + 1 < least.longest:
                visited += extend(after, l2, n + 1, further)
        return visited

    for s in _starts(ob, symtab):
        # the assumption excludes the extensions of these traces
        assumed = _active_traces(ob.assume.clauses, symtab, s)
        decided = {}
        start = rhs.start(s)
        if start and () not in assumed:
            l = lhs.start(s) if lhs else 0
            examine(start, l, 0)
            least.traces += 1 + extend(start, l, 0, assumed)
    # `extend` reaches itself through its closure: break that cycle here,
    # since commands run without the cyclic collector
    del extend


def _sweep(ob: Obligation, symtab: SymbolTable, least: _Least, view) -> None:
    """Offer every failing observation of a right-hand invariant, alone or
    after a step (`_invariant_observations`)."""
    lhs = _member(ob.lhs, ob.kind, view)
    observations = _invariant_observations(ob, symtab, least, view)
    for s in _starts(ob, symtab):
        assumed = _active_traces(ob.assume.clauses, symtab, s)
        last = None
        for tt, x in observations(s):
            if len(tt) > least.longest:
                continue
            if assumed and _extends(tt, assumed):
                continue
            if tt != last:
                least.traces += 1
                last = tt
            if not lhs(s, tt, x):
                least.offer(s, tt, x)


def _least_failing_superset(inv: InvariantRel, symtab: SymbolTable):
    """(s, tt, x) -> the accepted set that prints least among the supersets
    of x on which the pericondition invariant `inv` fails at (s, tt), or
    None.  `inv` tells traces apart only by their projections on the
    channels it reads, so its failing sets are listed once per state and
    projection, in witness order, and the answer is the first of them that
    contains x.  It can print before x itself: {a, b} before {b}."""
    holds = _member(inv, "peri", None)
    channels = sorted(_reads(inv))
    accepted: list = []
    failing: dict = {}  # (s, projections) -> the failing sets, in order

    def first(s: Valuation, tt: tuple, x: frozenset):
        key = (s, _projections(tt, channels)) if channels else s
        if key not in failing:
            if not accepted:
                accepted.extend(_accepted_sets(symtab.alphabet()))
            failing[key] = [a for a in accepted if not holds(s, tt, a)]
        return next((a for a in failing[key] if x <= a), None)

    return first


def _starts(ob: Obligation, symtab: SymbolTable) -> list:
    """The state that prints least in each class of states that agree on
    every variable the obligation's sides depend on."""
    depends = (_depends(ob.lhs, ob.kind, symtab)
               | _depends(ob.rhs, ob.kind, symtab)
               | _depends(ob.assume, "pre", symtab))
    least: dict = {}
    for s in sorted(symtab.valuations(), key=str):
        least.setdefault(tuple(v for n, v in s.items if n in depends), s)
    return list(least.values())


def _depends(side: Side, kind: str, symtab: SymbolTable) -> frozenset:
    """The variables whose initial value can change what `side` gives or
    allows on a `kind` side (`relalg.depends`); an invariant reads its free
    variables, and a relation before one is read as a post side."""
    if isinstance(side, InvariantRel):
        return free_vars(side.body)
    if isinstance(side, SeqInv):
        side, kind = side.prefix, "post"
    return depends(side, kind, frozenset(symtab.variables))


def _invariant_observations(ob: Obligation, symtab, least: _Least, view):
    """s -> the observations (tt, x) from s of an invariant I, alone or as
    `SeqInv(step, I)`: from ((), s), or from each terminated step instance
    (t1, s1) over the alphabet, (t1 + t2, x) for each swept suffix t2 with
    len(t1 + t2) <= least.longest and each accepted set or final state x
    with I true at (s1, t2, x).

    The swept suffixes are one per class of traces that the obligation
    cannot tell apart (`_suffixes`), by the channels both sides read.
    Assumed clauses, or a relation on the left, read the trace whole, and
    then every trace is swept.  Each reached state s1's suffixes are swept
    once per obligation, shared by every start and step instance that
    reaches s1: one length at a time, when a start first needs it, keeping
    the (t2, x) on which I holds.  So I is evaluated once per (s1, class,
    x), and no suffix longer than the least failure so far is swept."""
    inv = ob.rhs.inv if isinstance(ob.rhs, SeqInv) else ob.rhs
    holds = _member(inv, ob.kind, None)
    alphabet = symtab.alphabet()
    if ob.kind == "post":
        xs = symtab.valuations()
    elif _mentions_acc(ob.lhs) or _mentions_acc(inv):
        xs = _accepted_sets(alphabet)
    else:
        xs = (frozenset(),)
    reads = None if ob.assume.clauses else _reads(ob.lhs)
    if reads is not None:
        reads |= _reads(inv)
    traces = _suffixes(alphabet, reads)
    swept: dict = {}  # s1 -> [the kept (t2, x) with len(t2) = m, for each m]

    def suffixes(s1: Valuation, m: int) -> list:
        by_length = swept.setdefault(s1, [])
        while len(by_length) <= m:
            by_length.append([(t2, x) for t2 in traces(len(by_length))
                              for x in xs if holds(s1, t2, x)])
        return by_length[m]

    def observations(s: Valuation):
        starts = (((), s),)
        if isinstance(ob.rhs, SeqInv):
            # in witness order, so where the first failure cuts the sweep
            # short does not depend on the set's iteration order
            starts = sorted(
                instances(view(ob.rhs.prefix, "post"), s, least.bound),
                key=lambda i: (len(i[0]), _order_key(i[0]), str(i[1])))
        for t1, s1 in starts:
            if not set(alphabet).issuperset(t1):
                continue
            for n in itertools.count(len(t1)):
                if n > least.longest:
                    break
                yield from ((t1 + t2, x)
                            for t2, x in suffixes(s1, n - len(t1)))

    return observations


def _reads(side: Side) -> Optional[frozenset]:
    """The channels whose projections are all that an invariant side reads
    of a trace (`state.Proj`), or None for a side that reads it whole."""
    if isinstance(side, SeqInv):
        side = side.inv
    if not isinstance(side, InvariantRel):
        return None
    return frozenset(x.chan for x in subterms(side.body)
                     if isinstance(x, Proj))


def _projections(tt: tuple, channels) -> tuple:
    """A trace's projection on each of `channels`, in order."""
    return tuple(tuple(e.data for e in tt if e.chan == c) for c in channels)


def _suffixes(alphabet: tuple, channels):
    """m -> the traces of length m over `alphabet` to sweep.  With
    `channels` None that is every trace.  Otherwise it is one trace per
    class of traces over the events of `channels` with equal projections on
    them: the class's least member in witness order.  A suffix with an
    event on another channel passes or fails as it does without the event,
    which is shorter, so none is swept.

    The least member is the greedy merge of the class's per-channel
    sequences, which puts first the least of their heads: events of
    different channels never print equal.  An event prints as its channel's
    name, then a dot and its payload if it has one, and a channel name is
    an identifier, whose characters all print after the dot.  So each event
    of a channel prints before every event of a channel whose name sorts
    after it, and the merge is the sequences' concatenation in channel-name
    order."""
    if channels is None:
        return lambda m: itertools.product(alphabet, repeat=m)
    events = [e for e in alphabet if e.chan in channels]
    levels = [[()]]

    def traces(m: int) -> list:
        while len(levels) <= m:
            levels.append([t + (e,) for t in levels[-1] for e in events
                           if not t or t[-1].chan <= e.chan])
        return levels[m]

    return traces


def _accepted_sets(alphabet) -> list:
    """Every set of events of the alphabet, in witness order."""
    return sorted((frozenset(c) for k in range(len(alphabet) + 1)
                   for c in itertools.combinations(alphabet, k)),
                  key=_order_key)


def _order_key(events) -> tuple:
    """Witness-order key of a trace, or of an event set in sorted order."""
    if isinstance(events, frozenset):
        return tuple(sorted(map(str, events)))
    return tuple(map(str, events))


def _witness(ob: Obligation, s: Valuation, tt: tuple, x) -> dict:
    out = {"state": str(s), "trace": pp_trace(tt)}
    if ob.kind == "pre":
        out["violates"] = ob.origin
    elif ob.kind == "peri":
        out["accept"] = pp_value(x)
    else:
        out["state_after"] = str(x)
    return out


def _combine(checked: list, cfg: Config) -> Verdict:
    """One verdict over (obligation, verdict) pairs: the first refutation,
    else the first inconclusive one, else verified."""
    checked = tuple(checked)
    for kind in ("refuted", "inconclusive"):
        for _, v in checked:
            if v.kind == kind:
                return Verdict(kind, cfg.bounds(), witness=v.witness,
                               reason=v.reason, obligations=checked)
    return Verdict("verified", cfg.bounds(), obligations=checked)


def _check_all(obs, symtab, cfg: Config) -> list:
    return [(ob, check_rrel_refine(ob, symtab, cfg)) for ob in obs]


def refine_check(spec, impl: Contract, symtab, cfg: Config) -> Verdict:
    return _combine(_check_all(refine_obligations(spec, impl), symtab, cfg),
                    cfg)


# ---------------------------------------------------------------------------
# Deadlock freedom


def check_deadlock_free(c: Contract, symtab, cfg: Config) -> Verdict:
    """Every reachable quiescent observation accepts at least one event."""
    return refine_check(deadlock_free_spec(), c, symtab, cfg)


# ---------------------------------------------------------------------------
# The loop invariant rule


def check_invariant_loop(
    b: Expr,
    body: Contract,
    inv: tuple,
    symtab: SymbolTable,
    cfg: Config,
) -> Verdict:
    """Conditions under which ⦗I1|I2|I3⦘ is refined by the loop on `body`.

    1. the loop's calculated assumption is weaker than I1;
    2. one guarded body pause establishes I2, and a guarded body step
       preserves it;
    3. I3 holds on immediate exit, and a guarded body step preserves it.

    Conditions 2 and 3 are single-step (iteration-free) by design.  The
    assumption, step and pause are the loop calculation's (`loop_parts`),
    so this raises the calculator's errors for the loop:
    `NotProductiveError` for a body that does not guard the fixed point,
    and `WpNotConvergedError` for an assumption that does not saturate
    within the wp bound.
    """
    i1, i2, i3 = inv
    assumption, step, pause = loop_parts(b, body, symtab, cfg.wp_bound)
    exit_ = normalize(state_test(negate(b)), symtab)
    obs = [
        Obligation(assumption, i1, "pre", "assumption weakening"),
        Obligation(i2, pause, "peri", "pause establishes invariant"),
        Obligation(i2, SeqInv(step, i2), "peri",
                   "step preserves pause invariant"),
        Obligation(i3, exit_, "post", "exit establishes invariant"),
        Obligation(i3, SeqInv(step, i3), "post",
                   "step preserves exit invariant"),
    ]
    return _combine(_check_all(obs, symtab, cfg), cfg)


# ---------------------------------------------------------------------------
# Assignment-prefix reduction


def assign_then_contract_reduction(
    s: Subst, spec: Contract, symtab: SymbolTable
) -> Contract:
    """Distribute an initial assignment into a specification: composing the
    assignment before the contract applies its update as a substitution to
    all three components."""
    return Contract(
        subst_pre(s, spec.pre, symtab),
        _subst_side(s, spec.peri, symtab),
        _subst_side(s, spec.post, symtab),
    )


def _subst_side(s: Subst, side, symtab):
    if isinstance(side, InvariantRel):
        return InvariantRel(side.kind, apply_subst(s, side.body))
    if isinstance(side, RTrue):
        return side
    return subst_rrel(s, side, symtab)


# ---------------------------------------------------------------------------
# Whole-program invariant checking (assign-prefix + loop shape)


def inv_check_program(
    tp: dsl.TypedProgram, i2_body: Expr, cfg: Config
) -> tuple:
    """Check a peri-invariant against `assignments ; while b do body`.

    Returns (verdict, reduced specification) where the reduced specification
    is the invariant contract with the leading assignments distributed in.
    The loop body is calculated once and the loop once
    (`check_invariant_loop`), so this raises the calculator's errors
    (`NotProductiveError`, `WpNotConvergedError`, `NormalizationIncomplete`).
    A program of another shape is calculated whole, so that its own error is
    raised, and then the verdict is inconclusive.
    """
    symtab = tp.symtab
    prefix, loop = _split_assign_while(tp.body)
    if loop is None:
        calculate(tp, cfg.wp_bound)
        reason = "program is not of the shape assignments ; while"
        return Verdict("inconclusive", cfg.bounds(), reason=reason), None
    body = calculate(dsl.TypedProgram(symtab, loop.body), cfg.wp_bound)
    i2 = InvariantRel("peri", i2_body)
    verdict = check_invariant_loop(loop.cond, body, (TRUE_PRE, i2, TRUE_R),
                                   symtab, cfg)
    spec = Contract(TRUE_PRE, i2, TRUE_R)
    s = None
    for a in prefix:
        step = assignment_subst({a.var: a.expr}, symtab)
        s = step if s is None else compose_subst(s, step)
    if s is not None:
        spec = assign_then_contract_reduction(s, spec, symtab)
    return verdict, spec


def _split_assign_while(a: dsl.Action):
    """Split `x := e ; ... ; while b do body` into ([assigns], While)."""
    prefix = []
    node = a
    while isinstance(node, dsl.Seq):
        if not isinstance(node.first, dsl.Assign):
            return [], None
        prefix.append(node.first)
        node = node.second
    if isinstance(node, dsl.While):
        return prefix, node
    return [], None
