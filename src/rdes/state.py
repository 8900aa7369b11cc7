"""Finite-domain values, state valuations, expressions, and substitutions.

Every declared type has a finite carrier (bounded ints, bools, bounded-length
sequences), so conditions and relations can be decided by exhaustive
evaluation.  Evaluation is totalised: partial operations get defaults and
out-of-range writes saturate, so enumeration never faults.

Only `children` and `rebuild` take an expression node apart: the first gives
the expressions directly inside it, and the second puts the node back
together around new ones.  Substitution, the walk over subterms and the
DSL's name resolution go through them.  `fold` keeps its own recursion,
because it simplifies each node before it builds it.
"""

from __future__ import annotations

import itertools
import operator
from collections import _tuplegetter  # namedtuple's field getter
from typing import Iterator, NamedTuple, Optional, Union

# Runtime value representation: bool must be tested before int (bool <: int).
Value = Union[int, bool, tuple, frozenset]


# ---------------------------------------------------------------------------
# Immutable nodes


class Node(tuple):
    """An immutable term: a tuple of a tag, the module-qualified name of its
    class, followed by its fields.  Building, `==` and `hash` run in C; the
    tag keeps nodes of different classes with equal fields apart (a plain
    named tuple would make `Skip() == Stop()`), and, being a string, keeps
    hashes reproducible under a fixed `PYTHONHASHSEED`.  Never a `Value`,
    and always true, as every node holds its tag."""

    __slots__ = ()

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self[1:]))
        return f"{type(self).__qualname__}({inner})"

    def _replace(self, **changes) -> "Node":
        return type(self)(**dict(zip(self._fields, self[1:]), **changes))


def node(cls) -> type:
    """`cls` rebuilt as a `Node`, its annotated names its fields in order
    and their class-level values their defaults, as a frozen dataclass reads
    them."""
    ns = {k: v for k, v in vars(cls).items()
          if k not in ("__dict__", "__weakref__")}
    fields = tuple(ns.get("__annotations__", ()))
    first = next((i for i, f in enumerate(fields) if f in ns), len(fields))
    defaults = tuple(ns.pop(f) for f in fields[first:])
    for i, f in enumerate(fields, 1):
        ns[f] = _tuplegetter(i, None)
    params = "".join(f", {f}" for f in fields)
    new = eval(f"lambda _cls{params}: _new(_cls, (_tag{params},))",
               {"_new": tuple.__new__, "__builtins__": {},
                "_tag": f"{cls.__module__}.{cls.__qualname__}"})
    new.__defaults__ = defaults or None
    ns.update(__new__=new, __slots__=(), _fields=fields)
    return type(cls.__name__, (Node,), ns)


# ---------------------------------------------------------------------------
# Value types


@node
class IntType:
    lo: int
    hi: int

    def values(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def default(self) -> int:
        return self.clamp(0)

    def clamp(self, v: Value) -> int:
        if isinstance(v, bool):
            v = int(v)
        if not isinstance(v, int):
            return self.default()
        if v < self.lo:
            return self.lo
        if v > self.hi:
            return self.hi
        return v

    def __str__(self) -> str:
        return f"int[{self.lo}..{self.hi}]"


@node
class BoolType:
    def values(self) -> Iterator[bool]:
        return iter((False, True))

    def default(self) -> bool:
        return False

    def clamp(self, v: Value) -> bool:
        return bool(v)

    def __str__(self) -> str:
        return "bool"


@node
class SeqType:
    elem: "ValueType"
    maxlen: int

    def values(self) -> Iterator[tuple]:
        for n in range(self.maxlen + 1):
            for combo in itertools.product(tuple(self.elem.values()), repeat=n):
                yield combo

    def default(self) -> tuple:
        return ()

    def clamp(self, v: Value) -> tuple:
        if not isinstance(v, tuple):
            return ()
        if len(v) > self.maxlen:
            v = v[: self.maxlen]
        return tuple(self.elem.clamp(x) for x in v)

    def __str__(self) -> str:
        return f"seq {self.elem} maxlen {self.maxlen}"


ValueType = Union[IntType, BoolType, SeqType]


def carrier_size(t: ValueType) -> int:
    if isinstance(t, IntType):
        return t.hi - t.lo + 1
    if isinstance(t, BoolType):
        return 2
    base = carrier_size(t.elem)
    return sum(base**n for n in range(t.maxlen + 1))


# ---------------------------------------------------------------------------
# Events and symbol tables


class Event(NamedTuple):
    """A ground event.  A named tuple, so that traces and sets of events
    hash and compare in C; the enumerations hash them millions of times."""

    chan: str
    data: Optional[Value] = None

    def __str__(self) -> str:
        if self.data is None:
            return self.chan
        return f"{self.chan}.{pp_value(self.data)}"


def witness_order(events) -> list:
    """The events in witness order: by their printed form."""
    return sorted(events, key=str) if len(events) > 1 else list(events)


class StateSpaceTooLarge(Exception):
    """The declared variables have more valuations than can be enumerated."""


class SymbolTable:
    """Declared variables and channels with their finite carriers.

    Immutable by convention; valuation and alphabet enumerations are cached.
    """

    MAX_VALUATIONS = 500_000

    def __init__(self, variables: dict, channels: dict):
        self.variables = dict(variables)  # name -> ValueType
        self.channels = dict(channels)  # name -> ValueType | None (dataless)
        self._valuations: Optional[tuple] = None
        self._alphabet: Optional[tuple] = None

    def var_names(self) -> list:
        return sorted(self.variables)

    def valuations(self) -> tuple:
        if self._valuations is None:
            names = self.var_names()
            total = 1
            for n in names:
                total *= carrier_size(self.variables[n])
                if total > self.MAX_VALUATIONS:
                    raise StateSpaceTooLarge(
                        "state space too large to enumerate: more than "
                        f"{self.MAX_VALUATIONS} valuations")
            domains = [tuple(self.variables[n].values()) for n in names]
            self._valuations = tuple(
                Valuation(tuple(zip(names, combo)))
                for combo in itertools.product(*domains)
            )
        return self._valuations

    def alphabet(self) -> tuple:
        if self._alphabet is None:
            events = []
            for c in sorted(self.channels):
                t = self.channels[c]
                if t is None:
                    events.append(Event(c))
                else:
                    events.extend(Event(c, v) for v in t.values())
            self._alphabet = tuple(events)
        return self._alphabet

    def default_valuation(self) -> "Valuation":
        return Valuation(
            tuple((n, self.variables[n].default()) for n in self.var_names())
        )

    def ground_event(self, chan: str, data: Optional[Value]) -> Event:
        t = self.channels[chan]
        if t is None:
            return Event(chan)
        return Event(chan, t.clamp(data))


class Valuation(NamedTuple):
    """Total assignment of values to the declared variables (sorted by name).
    A named tuple for the same reason as `Event`."""

    items: tuple

    def get(self, name: str) -> Value:
        for n, v in self.items:
            if n == name:
                return v
        raise KeyError(name)

    def set(self, name: str, value: Value, vtype: ValueType) -> "Valuation":
        clamped = vtype.clamp(value)
        return Valuation(
            tuple((n, clamped if n == name else v) for n, v in self.items)
        )

    def __str__(self) -> str:
        return "{" + ", ".join(f"{n}={pp_value(v)}" for n, v in self.items) + "}"


def valuation_of(mapping: dict) -> Valuation:
    return Valuation(tuple(sorted(mapping.items())))


# ---------------------------------------------------------------------------
# Expressions


@node
class Var:
    name: str


@node
class Primed:
    """Final-state variable x'; only meaningful in postcondition invariants."""

    name: str


@node
class Lit:
    value: Value


@node
class BinOp:
    op: str  # + - * ++ = != < <= and or
    left: "Expr"
    right: "Expr"


@node
class Not:
    arg: "Expr"


@node
class Head:
    arg: "Expr"


@node
class Tail:
    arg: "Expr"


@node
class Len:
    arg: "Expr"


@node
class IfE:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@node
class SeqDisplay:
    """Sequence display <e1, ..., en> with non-literal elements."""

    elems: tuple


@node
class Clamp:
    """Saturation of a value into a declared carrier.

    Assignment right-hand sides are wrapped in a clamp to their target
    variable's type, so that composing substitutions symbolically agrees
    with stepwise state updates even at the carrier boundaries.
    """

    arg: "Expr"
    vtype: "ValueType"


@node
class Proj:
    """Data sequence of the events of one channel in the trace contribution."""

    chan: str


@node
class Acc:
    """The acceptance set at a quiescent observation (invariants only)."""


Expr = Union[
    Var, Primed, Lit, BinOp, Not, Head, Tail, Len, IfE, SeqDisplay, Clamp,
    Proj, Acc,
]

TRUE = Lit(True)
FALSE = Lit(False)


def eval_expr(
    e: Expr,
    val: Valuation,
    tt: Optional[tuple] = None,
    acc: Optional[frozenset] = None,
    primed: Optional[Valuation] = None,
) -> Value:
    """Totalised evaluation.

    head(<>) yields 0 (which doubles as false for bool elements), tail(<>)
    yields <>; arithmetic is unbounded here and saturates only when written
    back into a state or a ground event.

    Evaluation dispatches on the node's type: `_EVAL` maps each expression
    form to its handler.  A handler evaluates the expressions inside its
    node through this module's name `eval_expr`, so whatever is bound to
    that name sees every call.
    """
    handler = _EVAL.get(type(e))
    if handler is None:
        raise TypeError(f"not an expression: {e!r}")
    return handler(e, val, tt, acc, primed)


def _eval_lit(e, val, tt, acc, primed):
    return e.value


def _eval_var(e, val, tt, acc, primed):
    return val.get(e.name)


def _eval_primed(e, val, tt, acc, primed):
    if primed is None:
        raise ValueError("primed variable outside a postcondition context")
    return primed.get(e.name)


def _eval_proj(e, val, tt, acc, primed):
    if tt is None:
        raise ValueError("trace projection without a ground trace")
    return tuple(ev.data for ev in tt if ev.chan == e.chan)


def _eval_acc(e, val, tt, acc, primed):
    if acc is None:
        raise ValueError("acceptance reference outside a quiescent context")
    return acc


def _eval_not(e, val, tt, acc, primed):
    return not eval_expr(e.arg, val, tt, acc, primed)


def _eval_head(e, val, tt, acc, primed):
    v = eval_expr(e.arg, val, tt, acc, primed)
    return v[0] if v else 0


def _eval_tail(e, val, tt, acc, primed):
    v = eval_expr(e.arg, val, tt, acc, primed)
    return v[1:] if v else ()


def _eval_len(e, val, tt, acc, primed):
    return len(eval_expr(e.arg, val, tt, acc, primed))


def _eval_if(e, val, tt, acc, primed):
    if eval_expr(e.cond, val, tt, acc, primed):
        return eval_expr(e.then, val, tt, acc, primed)
    return eval_expr(e.other, val, tt, acc, primed)


def _eval_seq_display(e, val, tt, acc, primed):
    return tuple(eval_expr(x, val, tt, acc, primed) for x in e.elems)


def _eval_clamp(e, val, tt, acc, primed):
    return e.vtype.clamp(eval_expr(e.arg, val, tt, acc, primed))


def _eval_binop(e, val, tt, acc, primed):
    op = e.op
    l = eval_expr(e.left, val, tt, acc, primed)
    if op == "and":
        return bool(l) and bool(eval_expr(e.right, val, tt, acc, primed))
    if op == "or":
        return bool(l) or bool(eval_expr(e.right, val, tt, acc, primed))
    r = eval_expr(e.right, val, tt, acc, primed)
    f = _OPERATORS.get(op)
    if f is None:
        raise ValueError(f"unknown operator {op!r}")
    return f(l, r)


def _at_most(l, r):
    """<= on numbers; on sequences, whether l is a prefix of r."""
    if isinstance(l, tuple) or isinstance(r, tuple):
        lt, rt = tuple(l), tuple(r)
        return lt == rt[: len(lt)]
    return l <= r


_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "++": lambda l, r: tuple(l) + tuple(r),
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": _at_most,
}

_EVAL = {
    Lit: _eval_lit,
    Var: _eval_var,
    Primed: _eval_primed,
    Proj: _eval_proj,
    Acc: _eval_acc,
    Not: _eval_not,
    Head: _eval_head,
    Tail: _eval_tail,
    Len: _eval_len,
    IfE: _eval_if,
    SeqDisplay: _eval_seq_display,
    Clamp: _eval_clamp,
    BinOp: _eval_binop,
}


def children(e: Expr) -> tuple:
    """The expressions directly inside e."""
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, (Not, Head, Tail, Len, Clamp)):
        return (e.arg,)
    if isinstance(e, IfE):
        return (e.cond, e.then, e.other)
    if isinstance(e, SeqDisplay):
        return e.elems
    if isinstance(e, (Var, Primed, Lit, Proj, Acc)):
        return ()
    raise TypeError(f"not an expression: {e!r}")


def rebuild(e: Expr, go) -> Expr:
    """e with `go` applied to each expression directly inside it."""
    inner = tuple(go(x) for x in children(e))
    if isinstance(e, BinOp):
        return BinOp(e.op, *inner)
    if isinstance(e, Clamp):
        return Clamp(*inner, e.vtype)
    if isinstance(e, SeqDisplay):
        return SeqDisplay(inner)
    return type(e)(*inner) if inner else e


def subterms(e: Expr) -> Iterator[Expr]:
    """e and every expression inside it."""
    yield e
    for x in children(e):
        yield from subterms(x)


def free_vars(e: Expr) -> frozenset:
    return frozenset(x.name for x in subterms(e) if isinstance(x, Var))


def mentions_trace(e: Expr) -> bool:
    # a primed variable is treated like trace data: it blocks state-only
    # enumeration
    return any(isinstance(x, (Proj, Acc, Primed)) for x in subterms(e))


_EMPTY_VAL = Valuation(())


def fold(e: Expr) -> Expr:
    """Constant folding; never changes evaluation results.  Where nothing
    inside e folds, the result is e itself."""
    if isinstance(e, (Var, Lit, Proj, Acc, Primed)):
        return e
    if isinstance(e, Not):
        a = fold(e.arg)
        if isinstance(a, Lit):
            return Lit(not a.value)
        if isinstance(a, Not):
            return a.arg
        return e if a is e.arg else Not(a)
    if isinstance(e, Head):
        a = fold(e.arg)
        if isinstance(a, Lit):
            return Lit(a.value[0] if a.value else 0)
        return e if a is e.arg else Head(a)
    if isinstance(e, Tail):
        a = fold(e.arg)
        if isinstance(a, Lit):
            return Lit(a.value[1:] if a.value else ())
        return e if a is e.arg else Tail(a)
    if isinstance(e, Len):
        a = fold(e.arg)
        if isinstance(a, Lit):
            return Lit(len(a.value))
        return e if a is e.arg else Len(a)
    if isinstance(e, IfE):
        c = fold(e.cond)
        t = fold(e.then)
        o = fold(e.other)
        if isinstance(c, Lit):
            return t if c.value else o
        if t == o:
            return t
        if c is e.cond and t is e.then and o is e.other:
            return e
        return IfE(c, t, o)
    if isinstance(e, SeqDisplay):
        elems = tuple(fold(x) for x in e.elems)
        if all(isinstance(x, Lit) for x in elems):
            return Lit(tuple(x.value for x in elems))
        if all(x is y for x, y in zip(elems, e.elems)):
            return e
        return SeqDisplay(elems)
    if isinstance(e, Clamp):
        a = fold(e.arg)
        if isinstance(a, Lit):
            return Lit(e.vtype.clamp(a.value))
        if isinstance(a, Clamp) and a.vtype == e.vtype:
            return a
        return e if a is e.arg else Clamp(a, e.vtype)
    if isinstance(e, BinOp):
        l = fold(e.left)
        r = fold(e.right)
        if e.op == "and":
            if l == TRUE or l == r:
                return r
            if r == TRUE:
                return l
            if isinstance(l, Lit) and not l.value:
                return FALSE
            if isinstance(r, Lit) and not r.value:
                return FALSE
        elif e.op == "or":
            if isinstance(l, Lit):
                return TRUE if l.value else r
            if isinstance(r, Lit):
                return TRUE if r.value else l
            if l == r:
                return l
        elif isinstance(l, Lit) and isinstance(r, Lit):
            return Lit(eval_expr(BinOp(e.op, l, r), _EMPTY_VAL))
        elif e.op == "++":
            if l == Lit(()):
                return r
            if r == Lit(()):
                return l
        if l is e.left and r is e.right:
            return e
        return BinOp(e.op, l, r)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Substitutions


@node
class Subst:
    """Finite map from variable names to expressions; identity elsewhere."""

    entries: tuple  # sorted ((name, Expr), ...), identity entries omitted

    def get(self, name: str) -> Expr:
        for n, x in self.entries:
            if n == name:
                return x
        return Var(name)

    def domain(self) -> frozenset:
        return frozenset(n for n, _ in self.entries)

    def is_identity(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        if not self.entries:
            return "id"
        inner = ", ".join(f"{n} |-> {pp_expr(x)}" for n, x in self.entries)
        return "{" + inner + "}"


IDENTITY = Subst(())


def subst_of(mapping: dict) -> Subst:
    entries = []
    for n in sorted(mapping):
        x = fold(mapping[n])
        if x != Var(n):
            entries.append((n, x))
    return Subst(tuple(entries))


def apply_subst(s: Subst, e: Expr) -> Expr:
    """Simultaneous substitution of state variables, then constant folding.

    Trace projections and acceptance references are untouched: substitutions
    update state variables only.
    """
    if s.is_identity():
        return fold(e)
    return fold(_substitute(s, e))


def _substitute(s: Subst, e: Expr) -> Expr:
    """e with each state variable replaced by its image under s.  The
    recursion goes through a module-level function, so that no closure
    refers to itself and the result is freed by reference counting."""
    if isinstance(e, Var):
        return s.get(e.name)
    return rebuild(e, lambda x: _substitute(s, x))


def compose_subst(first: Subst, second: Subst) -> Subst:
    """The substitution applying `first` and then `second` (second o first)."""
    mapping = {}
    for n in first.domain() | second.domain():
        mapping[n] = apply_subst(first, second.get(n))
    return subst_of(mapping)


def apply_to_valuation(s: Subst, val: Valuation, symtab: SymbolTable) -> Valuation:
    """The valuation after s from val.  A variable that s leaves alone keeps
    its value, which a valuation always holds within its carrier."""
    if not s.entries:
        return val
    written = dict(s.entries)
    items = []
    for n, old in val.items:
        if n in written:
            old = symtab.variables[n].clamp(eval_expr(written[n], val))
        items.append((n, old))
    return Valuation(tuple(items))


def assignment_subst(mapping: dict, symtab: SymbolTable) -> Subst:
    """Substitution for an assignment: right-hand sides saturate into the
    target variable's carrier, so symbolic composition matches stepwise
    execution."""
    out = {}
    for n, e in mapping.items():
        e = fold(e)
        if e == Var(n):
            continue
        out[n] = Clamp(e, symtab.variables[n])
    return subst_of(out)


# ---------------------------------------------------------------------------
# Semantic helpers over finite domains


def conj(*conds: Expr) -> Expr:
    out: Expr = TRUE
    for c in conds:
        out = BinOp("and", out, c)
    return fold(out)


def disj(*conds: Expr) -> Expr:
    out: Expr = FALSE
    for c in conds:
        out = BinOp("or", out, c)
    return fold(out)


def negate(c: Expr) -> Expr:
    return fold(Not(c))


def cond_is_true(c: Expr, symtab: SymbolTable) -> bool:
    c = fold(c)
    if c == TRUE:
        return True
    if isinstance(c, Lit):
        return bool(c.value)
    return all(eval_expr(c, v) for v in symtab.valuations())


def cond_is_false(c: Expr, symtab: SymbolTable) -> bool:
    c = fold(c)
    if c == FALSE:
        return True
    if isinstance(c, Lit):
        return not c.value
    return not any(eval_expr(c, v) for v in symtab.valuations())


def exprs_equiv(a: Expr, b: Expr, symtab: SymbolTable) -> bool:
    """Semantic equality on the finite domain, with a syntactic fast path."""
    a, b = fold(a), fold(b)
    if a == b:
        return True
    if mentions_trace(a) or mentions_trace(b):
        return False  # trace-dependent terms compare syntactically only
    return all(
        eval_expr(a, v) == eval_expr(b, v) for v in symtab.valuations()
    )


def cond_implies(a: Expr, b: Expr, symtab: SymbolTable) -> bool:
    a, b = fold(a), fold(b)
    if a == b or b == TRUE or a == FALSE:
        return True
    return all(
        eval_expr(b, v) for v in symtab.valuations() if eval_expr(a, v)
    )


def substs_equiv(s1: Subst, s2: Subst, symtab: SymbolTable) -> bool:
    if s1 == s2:
        return True
    for n in s1.domain() | s2.domain():
        if not exprs_equiv(s1.get(n), s2.get(n), symtab):
            return False
    return True


# ---------------------------------------------------------------------------
# Pretty-printing (parseable by the DSL expression grammar)

# Binary operators bind by these levels; `not` sits at 3, the prefix `#` and
# unary minus at 8, and TIGHT is an operand that admits no operator at all,
# such as the payload of an event prefix `c!e`.
TIGHT = 9
_PREC = {
    "or": 1,
    "and": 2,
    "=": 4,
    "!=": 4,
    "<": 4,
    "<=": 4,
    "++": 5,
    "+": 6,
    "-": 6,
    "*": 7,
}


def pp_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "<" + ", ".join(pp_value(x) for x in v) + ">"
    if isinstance(v, frozenset):
        return "{" + ", ".join(sorted(str(x) for x in v)) + "}"
    return str(v)


def pp_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Primed):
        return e.name + "'"
    if isinstance(e, Lit):
        s = pp_value(e.value)
        return f"({s})" if s.startswith("-") and prec == TIGHT else s
    if isinstance(e, Proj):
        return f"proj(tt, {e.chan})"
    if isinstance(e, Acc):
        return "acc"
    if isinstance(e, Head):
        return f"head({pp_expr(e.arg)})"
    if isinstance(e, Tail):
        return f"tail({pp_expr(e.arg)})"
    if isinstance(e, Len):
        s = f"#{pp_expr(e.arg, 8)}"
        return f"({s})" if prec == TIGHT else s
    if isinstance(e, Not):
        s = f"not {pp_expr(e.arg, 3)}"
        return f"({s})" if prec > 3 else s
    if isinstance(e, SeqDisplay):
        return "<" + ", ".join(pp_expr(x) for x in e.elems) + ">"
    if isinstance(e, Clamp):
        return f"clamp({pp_expr(e.arg)})"
    if isinstance(e, IfE):
        s = (
            f"if {pp_expr(e.cond)} then {pp_expr(e.then)} "
            f"else {pp_expr(e.other)}"
        )
        return f"({s})"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        # comparisons are non-associative; others associate to the left
        lp, rp = p, p + 1
        if e.op in ("=", "!=", "<", "<="):
            lp = p + 1
        s = f"{pp_expr(e.left, lp)} {e.op} {pp_expr(e.right, rp)}"
        return f"({s})" if p < prec else s
    raise TypeError(f"not an expression: {e!r}")
