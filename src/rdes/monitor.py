"""Invariants as monitors: what a trace leaves of a reactive invariant.

An invariant reads a trace only through its projections, the payload
sequence of each channel (`state.Proj`), and a projection only grows at
its end.  So the truth of an invariant I at an initial state s, on every
extension of a trace t, is a function of a small residue of (s, t), and
one more event changes the residue by one step: a monitor, in the manner
of Brzozowski's derivatives of regular expressions ("Derivatives of
Regular Expressions", JACM 1964).  Zhou and Hoare read such invariants as
conditions on channel histories ("Partial Correctness of Communicating
Sequential Processes", ICDCS 1981).

The residue is I with s folded in, reduced by two laws of the sequence
calculus: `<e> ++ A <= <e> ++ B  ⟺  A <= B` and `#(A ++ <e>) = #A + 1`.
It is a Boolean combination (`and`, `or`, `not`) of leaves of four kinds:

* a leaf that reads no trace is folded at s, to its truth, or, where it
  reads `acc` or a primed variable, to itself with s substituted, which is
  evaluated at the accepted set or final state;
* `P <= Q`, `P = Q` or `P != Q` over sequences, each side a trace-free term
  followed by at most one projection, leaves the pair (L, R) of the sides'
  words with their longest common prefix cancelled.  An event on a side's
  channel appends its payload to that side.  Both sides only grow at the
  end, so when both words are non-empty they differ at their heads for
  good: a mismatch, which decides the leaf.  An output may run ahead of
  its input and be matched later, so `outps(tt) <= bf ++ inps(tt)` is not
  prefix-closed, and the pair (L, R) follows that;
* a comparison between sums of counts `#proj(tt, c)` and trace-free integer
  terms leaves the difference of its sides, which an event on c moves by
  c's coefficient.  Where all coefficients have one sign the difference
  moves one way, and a comparison that it can no longer change is decided;
* any other leaf keeps its projections on the channels it reads, which
  decide it, and an event appends to one of them.

A decided leaf folds into the Boolean structure.  So a residue determines
the invariant's truth on every extension of every trace that leaves it,
and two traces that leave equal residues cannot be told apart by it again,
whatever their lengths: `verify` searches residues instead of traces.
"""

from __future__ import annotations

import operator

from .state import (
    Acc,
    BinOp,
    Event,
    Len,
    Lit,
    Not,
    Primed,
    Proj,
    Subst,
    Valuation,
    apply_subst,
    eval_expr,
    subterms,
)

_NO_STATE = Valuation(())
_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            "!=": operator.ne}


class Monitor:
    """The monitor of one invariant body of `kind` "peri" or "post": the
    residue that an initial state leaves (`start`), the residue after one
    more event (`step`), and whether a residue allows an accepted set or a
    final state (`holds`).  A residue is a bool, once decided, or a tuple;
    equal residues have equal futures."""

    def __init__(self, body, kind: str):
        self.post = kind == "post"
        # the channels the invariant reads: an event on another leaves
        # every residue as it was
        self.channels = _channels(body)
        self.shape = _shape(body)
        self.starts: dict = {}  # valuation -> residue
        self.steps: dict = {}  # (residue, event) -> residue

    def start(self, s: Valuation):
        r = self.starts.get(s)
        if r is None:
            r = self.starts[s] = _start(self.shape, s)
        return r

    def step(self, r, e: Event):
        if e.chan not in self.channels:
            return r
        after = self.steps.get((r, e))
        if after is None:
            after = self.steps[r, e] = _step(r, e)
        return after

    def holds(self, r, x) -> bool:
        return _holds(r, x, self.post)


def _channels(e) -> frozenset:
    return frozenset(x.chan for x in subterms(e) if isinstance(x, Proj))


def _free(e) -> bool:
    """Does e read no trace?"""
    return not _channels(e)


def _fixed(e) -> bool:
    """Does e read nothing but the initial state?"""
    return not any(isinstance(x, (Proj, Acc, Primed)) for x in subterms(e))


def _shape(e):
    """The invariant body e, with its Boolean structure and the kind of
    each leaf made explicit, before any state is folded in."""
    if isinstance(e, BinOp) and e.op in ("and", "or"):
        return (e.op, _shape(e.left), _shape(e.right))
    if isinstance(e, Not):
        return ("not", _shape(e.arg))
    if _free(e):
        return ("free", e)
    if isinstance(e, BinOp) and e.op in ("<=", "=", "!="):
        p, q = _seq_side(e.left), _seq_side(e.right)
        if p and q:
            return ("seq", e.op, *p, *q)
    if isinstance(e, BinOp) and e.op in _COMPARE:
        terms: list = []
        coeffs: dict = {}
        if (_count_side(e.left, 1, terms, coeffs)
                and _count_side(e.right, -1, terms, coeffs)):
            return ("count", e.op, tuple(terms),
                    tuple(sorted((c, k) for c, k in coeffs.items() if k)))
    return ("proj", e)


def _seq_side(e):
    """(prefix or None, projected channel or None) of a sequence term of
    the form `P`, `proj(tt, c)` or `P ++ proj(tt, c)`, with P a term of
    the initial state alone; None for any other term."""
    if isinstance(e, Proj):
        return None, e.chan
    if (isinstance(e, BinOp) and e.op == "++" and isinstance(e.right, Proj)
            and _fixed(e.left)):
        return e.left, e.right.chan
    if _fixed(e):
        return e, None
    return None


def _count_side(e, sign: int, terms: list, coeffs: dict) -> bool:
    """Add `sign` times the integer term e, a sum of counts `#proj(tt, c)`
    and terms of the initial state alone, to `terms` (the latter) and
    `coeffs` (the counts, by channel); False if e is not such a sum."""
    if _fixed(e):
        terms.append((sign, e))
        return True
    if isinstance(e, Len) and isinstance(e.arg, Proj):
        coeffs[e.arg.chan] = coeffs.get(e.arg.chan, 0) + sign
        return True
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        right = sign if e.op == "+" else -sign
        return (_count_side(e.left, sign, terms, coeffs)
                and _count_side(e.right, right, terms, coeffs))
    return False


def _at(e, s: Valuation):
    """e with the values of s substituted and folded."""
    return apply_subst(Subst(tuple((n, Lit(v)) for n, v in s.items)), e)


def _start(shape, s: Valuation):
    """The residue of `shape` at initial state s and the empty trace."""
    tag = shape[0]
    if tag == "and" or tag == "or":
        return _join(tag, _start(shape[1], s), _start(shape[2], s))
    if tag == "not":
        return _negate(_start(shape[1], s))
    if tag == "free":
        e = shape[1]
        if _fixed(e):
            return bool(eval_expr(e, s))
        e = _at(e, s)
        return bool(e.value) if isinstance(e, Lit) else ("free", e)
    if tag == "seq":
        _, op, p, cl, q, cr = shape
        return _seq(op, cl, cr, _word(p, s), _word(q, s))
    if tag == "count":
        _, op, terms, coeffs = shape
        d = sum(k * eval_expr(t, s) for k, t in terms)
        return _count(op, coeffs, d)
    e = _at(shape[1], s)
    channels = tuple(sorted(_channels(e)))
    return ("proj", e, channels, ((),) * len(channels))


def _word(p, s: Valuation) -> tuple:
    return () if p is None else tuple(eval_expr(p, s))


def _seq(op: str, cl, cr, l: tuple, r: tuple):
    """The residue of `L op R` for the words l and r, whose sides grow by
    the events of channels cl and cr (None: never)."""
    n = 0
    while n < len(l) and n < len(r) and l[n] == r[n]:
        n += 1
    if n:
        l, r = l[n:], r[n:]
    prefix = op == "<="
    if l and (r or cr is None) or r and cl is None and not prefix:
        # a mismatch, or a word that can never be matched: neither equal
        # nor a prefix again
        return op == "!="
    if not l and (prefix and cl is None or not r and cl == cr):
        # a prefix for good, or equal for good
        return op != "!="
    return ("seq", op, cl, cr, l, r)


def _count(op: str, coeffs: tuple, d: int):
    """The residue of `d op 0`, where d moves by coeffs[c] on an event of
    channel c."""
    holds = _COMPARE[op](d, 0)
    if not coeffs:
        return holds
    if all(k > 0 for _, k in coeffs):
        # d only grows
        if (not holds) if op in ("<", "<=") else d > 0:
            return holds
    elif all(k < 0 for _, k in coeffs):
        if holds if op in ("<", "<=") else d < 0:
            return holds
    return ("count", op, coeffs, d)


def _join(op: str, a, b):
    """`a op b` for op "and" or "or", folded where a side is decided."""
    if a is True or a is False:
        return (b if a else False) if op == "and" else (True if a else b)
    if b is True or b is False:
        return (a if b else False) if op == "and" else (True if b else a)
    return (op, a, b)


def _negate(a):
    if a is True or a is False:
        return not a
    return ("not", a)


def _step(r, e: Event):
    """The residue r after event e: the derivative by e."""
    if r is True or r is False:
        return r
    tag = r[0]
    if tag == "and" or tag == "or":
        a, b = _step(r[1], e), _step(r[2], e)
        return r if a is r[1] and b is r[2] else _join(tag, a, b)
    if tag == "not":
        a = _step(r[1], e)
        return r if a is r[1] else _negate(a)
    if tag == "seq":
        _, op, cl, cr, l, w = r
        if e.chan != cl and e.chan != cr:
            return r
        return _seq(op, cl, cr, l + (e.data,) if e.chan == cl else l,
                    w + (e.data,) if e.chan == cr else w)
    if tag == "count":
        _, op, coeffs, d = r
        for c, k in coeffs:
            if c == e.chan:
                return _count(op, coeffs, d + k)
        return r
    if tag == "proj":
        _, body, channels, words = r
        if e.chan not in channels:
            return r
        i = channels.index(e.chan)
        words = words[:i] + (words[i] + (e.data,),) + words[i + 1:]
        return ("proj", body, channels, words)
    return r  # "free": reads no trace


def _holds(r, x, post: bool) -> bool:
    """Does residue r allow the accepted set x, or the final state x if
    `post`?"""
    if r is True or r is False:
        return r
    tag = r[0]
    if tag == "and":
        return _holds(r[1], x, post) and _holds(r[2], x, post)
    if tag == "or":
        return _holds(r[1], x, post) or _holds(r[2], x, post)
    if tag == "not":
        return not _holds(r[1], x, post)
    if tag == "seq":
        _, op, _, _, l, w = r
        if op == "<=":
            return not l
        return (not l and not w) == (op == "=")
    if tag == "count":
        return _COMPARE[r[1]](r[3], 0)
    tt = None
    if tag == "proj":
        tt = tuple(Event(c, v) for c, word in zip(r[2], r[3]) for v in word)
    if post:
        return bool(eval_expr(r[1], _NO_STATE, tt=tt, primed=x))
    return bool(eval_expr(r[1], _NO_STATE, tt=tt, acc=x))
