"""Concrete syntax, parser, and typechecker for the reactive-programming DSL.

Source files (`.rp`) declare channels and variables with finite carriers and
give one action built from skip/stop/chaos/miracle, assignment, event prefix,
input prefix, guard, sequencing, external/internal choice, conditional, and
while.  Input prefixes and guards are desugared here, so downstream modules
see only core forms.  Desugaring substitutes as it expands: one walk over
the action carries the input values bound so far and applies them to each
expression it rebuilds.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Union

from .state import (
    Acc,
    BinOp,
    BoolType,
    Clamp,
    Expr,
    Head,
    IDENTITY,
    IfE,
    IntType,
    Len,
    Lit,
    Not,
    Primed,
    Proj,
    SeqDisplay,
    SeqType,
    Subst,
    SymbolTable,
    TIGHT,
    Tail,
    ValueType,
    Var,
    apply_subst,
    compose_subst,
    fold,
    free_vars,
    node,
    pp_expr,
    pp_value,
    rebuild,
    subst_of,
    subterms,
)


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class DuplicateNameError(Exception):
    pass


class UnboundNameError(Exception):
    pass


class TypeMismatchError(Exception):
    pass


class InfiniteDomainError(Exception):
    pass


class NestingTooDeepError(Exception):
    """A program or expression nests deeper than the parser and the
    desugaring can recurse."""


# ---------------------------------------------------------------------------
# AST


@node
class Declaration:
    kind: str  # "channel" | "var"
    name: str
    vtype: Optional[ValueType]  # None only for dataless channels


@node
class Skip:
    pass


@node
class Stop:
    pass


@node
class Chaos:
    pass


@node
class Miracle:
    pass


@node
class Assign:
    var: str
    expr: Expr


@node
class DoEvent:
    chan: str
    data: Optional[Expr] = None


@node
class InputPrefix:
    chan: str
    var: str
    values: Optional[tuple]  # restriction to literal values, or None
    body: "Action"


@node
class Guard:
    cond: Expr
    body: "Action"


@node
class Seq:
    first: "Action"
    second: "Action"


@node
class ExtChoice:
    branches: tuple


@node
class IntChoice:
    branches: tuple


def ext_choice(branches) -> "ExtChoice":
    """n-ary external choice; directly nested choices flatten (canonical)."""
    flat = []
    for b in branches:
        flat.extend(b.branches if isinstance(b, ExtChoice) else [b])
    return ExtChoice(tuple(flat))


def int_choice(branches) -> "IntChoice":
    """n-ary internal choice; directly nested choices flatten (canonical)."""
    flat = []
    for b in branches:
        flat.extend(b.branches if isinstance(b, IntChoice) else [b])
    return IntChoice(tuple(flat))


@node
class Cond:
    cond: Expr
    then: "Action"
    other: "Action"


@node
class While:
    cond: Expr
    body: "Action"


Action = Union[
    Skip, Stop, Chaos, Miracle, Assign, DoEvent, InputPrefix, Guard,
    Seq, ExtChoice, IntChoice, Cond, While,
]


@node
class Program:
    decls: tuple
    body: Action


@node
class TypedProgram:
    """Typechecked program with input prefix and guard desugared away."""

    symtab: SymbolTable
    body: Action


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {
    "skip", "stop", "chaos", "miracle", "while", "do", "if", "then", "else",
    "channel", "var", "int", "bool", "seq", "maxlen", "true", "false",
    "and", "or", "not", "head", "tail", "proj",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<nl>\n)
  | (?P<num>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\|~\||\[\]|:=|->|\+\+|\.\.|<=|>=|!=|<>|[;&?!.,(){}<>=+\-*#:'\[\]])
    """,
    re.VERBOSE,
)


@node
class Token:
    kind: str  # "num" | "id" | "kw" | operator text | "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError(line, col, f"unexpected character {source[pos]!r}")
        text = m.group(0)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "id" and text in _KEYWORDS:
                tokens.append(Token("kw", text, line, col))
            elif kind == "op":
                tokens.append(Token(text, text, line, col))
            else:
                tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent with backtracking for the guard/action split)


class _Backtrack(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list):
        self.toks = tokens
        self.i = 0
        self.committed = True  # False while probing an ambiguous alternative

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, message: str, at: Optional[Token] = None):
        """Reject the input at token `at`, by default the next one."""
        t = at or self.peek()
        if self.committed:
            raise ParseError(t.line, t.col, message)
        raise _Backtrack()

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {what or kind}, found {t.text or 'end of input'!r}")
        return self.next()

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == word

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            self.fail(f"expected {word!r}")
        return self.next()

    # -- declarations and types

    def parse_program(self) -> Program:
        decls = []
        while self.at_kw("channel") or self.at_kw("var"):
            decls.append(self.parse_decl())
        body = self.parse_action()
        self.expect("eof", "end of input")
        return Program(tuple(decls), body)

    def parse_decl(self) -> Declaration:
        kw = self.next().text
        name = self.expect("id", "a name").text
        vtype = None
        if kw == "var":
            self.expect(":", "':'")
            vtype = self.parse_type()
        elif self.accept(":"):
            vtype = self.parse_type()
        return Declaration(kw, name, vtype)

    def parse_type(self) -> ValueType:
        if self.at_kw("bool"):
            self.next()
            return BoolType()
        if self.at_kw("int"):
            self.next()
            start = self.accept("[")
            if start:
                lo = self.parse_signed_int()
                self.expect("..", "'..'")
                hi = self.parse_signed_int()
                self.expect("]", "']'")
                if lo > hi:
                    self.fail("empty integer range", at=start)
                return IntType(lo, hi)
            # unbounded; rejected by the typechecker with a precise error
            return IntType(0, -1)
        if self.at_kw("seq"):
            self.next()
            elem = self.parse_type()
            if self.at_kw("maxlen"):
                self.next()
                n = self.parse_signed_int()
                return SeqType(elem, n)
            return SeqType(elem, -1)
        self.fail("expected a type")

    def parse_signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * int(self.expect("num", "an integer").text)

    # -- actions; precedence: choice < seq < prefix-like < atoms

    def parse_action(self) -> Action:
        left = self.parse_seq()
        while True:
            if self.accept("[]"):
                left = ext_choice((left, self.parse_seq()))
            elif self.accept("|~|"):
                left = int_choice((left, self.parse_seq()))
            else:
                return left

    def parse_seq(self) -> Action:
        left = self.parse_prefix()
        if self.accept(";"):
            return Seq(left, self.parse_seq())
        return left

    def parse_prefix(self) -> Action:
        t = self.peek()
        if t.kind == "kw" and t.text in ("skip", "stop", "chaos", "miracle"):
            self.next()
            return {"skip": Skip, "stop": Stop, "chaos": Chaos,
                    "miracle": Miracle}[t.text]()
        if self.at_kw("while"):
            self.next()
            cond = self.parse_expr()
            self.expect_kw("do")
            return While(cond, self.parse_prefix())
        if self.at_kw("if"):
            self.next()
            cond = self.parse_expr()
            self.expect_kw("then")
            then = self.parse_prefix()
            self.expect_kw("else")
            return Cond(cond, then, self.parse_prefix())
        if t.kind == "id":
            nxt = self.peek(1).kind
            if nxt == ":=":
                name = self.next().text
                self.next()
                return Assign(name, self.parse_expr())
            if nxt == "?":
                return self.parse_input_prefix()
            if nxt in ("!", "."):
                return self.parse_event_prefix()
            if nxt == "->":
                name = self.next().text
                self.next()
                return Seq(DoEvent(name), self.parse_prefix())
        # guard `expr & action`, a parenthesised action, or a bare event
        mark = self.i
        was_committed = self.committed
        self.committed = False
        try:
            cond = self.parse_expr()
            self.expect("&", "'&'")
            self.committed = was_committed
            return Guard(cond, self.parse_prefix())
        except _Backtrack:
            self.i = mark
            self.committed = was_committed
        if self.accept("("):
            inner = self.parse_action()
            self.expect(")", "')'")
            return inner
        if t.kind == "id":
            return DoEvent(self.next().text)
        self.fail("expected an action")

    def parse_event_prefix(self) -> Action:
        chan = self.next().text
        self.next()  # '!' or '.'
        data = self.parse_expr_tight()
        ev = DoEvent(chan, data)
        if self.accept("->"):
            return Seq(ev, self.parse_prefix())
        return ev

    def parse_input_prefix(self) -> Action:
        chan = self.next().text
        self.next()  # '?'
        var = self.expect("id", "a bound variable").text
        values = None
        if self.accept(":"):
            self.expect("{", "'{'")
            vals = [self.parse_literal_value()]
            while self.accept(","):
                vals.append(self.parse_literal_value())
            self.expect("}", "'}'")
            values = tuple(vals)
        self.expect("->", "'->'")
        return InputPrefix(chan, var, values, self.parse_prefix())

    def parse_literal_value(self):
        if self.at_kw("true"):
            self.next()
            return True
        if self.at_kw("false"):
            self.next()
            return False
        return self.parse_signed_int()

    # -- expressions; precedence mirrors state.pp_expr

    def parse_expr(self) -> Expr:
        if self.at_kw("if"):
            self.next()
            cond = self.parse_expr()
            self.expect_kw("then")
            then = self.parse_expr()
            self.expect_kw("else")
            return IfE(cond, then, self.parse_expr())
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.at_kw("or"):
            self.next()
            left = BinOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.at_kw("and"):
            self.next()
            left = BinOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.at_kw("not"):
            self.next()
            return Not(self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self) -> Expr:
        left = self.parse_concat()
        t = self.peek()
        if t.kind in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            right = self.parse_concat()
            if t.kind == ">":
                return BinOp("<", right, left)
            if t.kind == ">=":
                return BinOp("<=", right, left)
            return BinOp(t.kind, left, right)
        return left

    def parse_concat(self) -> Expr:
        left = self.parse_add()
        while self.peek().kind == "++":
            self.next()
            left = BinOp("++", left, self.parse_add())
        return left

    def parse_add(self) -> Expr:
        left = self.parse_mul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = BinOp(op, left, self.parse_mul())
        return left

    def parse_mul(self) -> Expr:
        left = self.parse_unary()
        while self.peek().kind == "*":
            self.next()
            left = BinOp("*", left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.peek().kind == "#":
            self.next()
            return Len(self.parse_unary())
        if self.peek().kind == "-":
            self.next()
            arg = self.parse_unary()
            if isinstance(arg, Lit) and isinstance(arg.value, int):
                return Lit(-arg.value)
            return BinOp("-", Lit(0), arg)
        return self.parse_expr_tight()

    def parse_expr_tight(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Lit(int(t.text))
        if self.at_kw("true"):
            self.next()
            return Lit(True)
        if self.at_kw("false"):
            self.next()
            return Lit(False)
        if self.at_kw("head") or self.at_kw("tail"):
            word = self.next().text
            self.expect("(", "'('")
            arg = self.parse_expr()
            self.expect(")", "')'")
            return Head(arg) if word == "head" else Tail(arg)
        if self.at_kw("proj"):
            self.next()
            self.expect("(", "'('")
            tok = self.expect("id", "the trace variable tt")
            if tok.text != "tt":
                self.fail("projection applies to the trace variable tt",
                          at=tok)
            self.expect(",", "','")
            chan = self.expect("id", "a channel name").text
            self.expect(")", "')'")
            return Proj(chan)
        if t.kind == "<>":
            self.next()
            return Lit(())
        if t.kind == "<":
            self.next()
            # elements parse above comparison level so '>' closes the display
            elems = [self.parse_concat()]
            while self.accept(","):
                elems.append(self.parse_concat())
            self.expect(">", "'>'")
            if all(isinstance(x, Lit) for x in elems):
                return Lit(tuple(x.value for x in elems))
            return SeqDisplay(tuple(elems))
        if t.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner
        if t.kind == "{":
            self.next()
            self.expect("}", "'}'")
            return Lit(frozenset())
        if t.kind == "id":
            name = self.next().text
            if self.accept("'"):
                return Primed(name)
            if self.peek().kind == "(":
                # projection shorthand: <chan>s(tt) / <chan>ps(tt)
                self.next()
                tok = self.expect("id", "the trace variable tt")
                if tok.text != "tt":
                    self.fail("projection shorthand applies to tt", at=tok)
                self.expect(")", "')'")
                return Proj("?" + name)  # resolved against the symbol table
            return Var(name)
        self.fail("expected an expression")


def parse(source: str) -> Program:
    """Parse a program, reporting position-annotated syntax errors."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> Expr:
    """Parse a single expression (used for invariants and specs)."""
    p = _Parser(tokenize(source))
    try:
        e = p.parse_expr()
    except RecursionError:
        raise NestingTooDeepError("expression is nested too deeply") from None
    p.expect("eof", "end of input")
    return e


# ---------------------------------------------------------------------------
# Pretty-printer (parse . pretty = identity up to whitespace)


def pp_action(a: Action) -> str:
    return _pp(a, 0)


def _pp(a: Action, level: int) -> str:
    # level: 0 choice, 1 seq, 2 prefix
    if isinstance(a, Skip):
        return "skip"
    if isinstance(a, Stop):
        return "stop"
    if isinstance(a, Chaos):
        return "chaos"
    if isinstance(a, Miracle):
        return "miracle"
    if isinstance(a, Assign):
        return f"{a.var} := {pp_expr(a.expr)}"
    if isinstance(a, DoEvent):
        if a.data is None:
            return a.chan
        return f"{a.chan}!{pp_expr(a.data, TIGHT)}"
    if isinstance(a, InputPrefix):
        vals = ""
        if a.values is not None:
            vals = ":{" + ", ".join(pp_value(v) for v in a.values) + "}"
        s = f"{a.chan}?{a.var}{vals} -> {_pp(a.body, 2)}"
        return f"({s})" if level > 2 else s
    if isinstance(a, Guard):
        s = f"{pp_expr(a.cond)} & {_pp(a.body, 2)}"
        return f"({s})" if level > 2 else s
    if isinstance(a, Seq):
        s = f"{_pp(a.first, 2)} ; {_pp(a.second, 1)}"
        return f"({s})" if level > 1 else s
    if isinstance(a, ExtChoice):
        s = " [] ".join(_pp(b, 1) for b in a.branches)
        return f"({s})" if level > 0 else s
    if isinstance(a, IntChoice):
        s = " |~| ".join(_pp(b, 1) for b in a.branches)
        return f"({s})" if level > 0 else s
    if isinstance(a, Cond):
        s = f"if {pp_expr(a.cond)} then {_pp(a.then, 2)} else {_pp(a.other, 2)}"
        return f"({s})" if level > 2 else s
    if isinstance(a, While):
        s = f"while {pp_expr(a.cond)} do {_pp(a.body, 2)}"
        return f"({s})" if level > 2 else s
    raise TypeError(f"not an action: {a!r}")


def pp_program(p: Program) -> str:
    lines = []
    for d in p.decls:
        if d.kind == "channel" and d.vtype is None:
            lines.append(f"channel {d.name}")
        else:
            lines.append(f"{d.kind} {d.name} : {d.vtype}")
    lines.append(pp_action(p.body))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Typechecker and desugarer


def build_symtab(decls: tuple) -> SymbolTable:
    variables, channels = {}, {}
    for d in decls:
        if d.name in variables or d.name in channels:
            raise DuplicateNameError(f"name {d.name!r} declared twice")
        if d.vtype is not None:
            _check_finite(d.vtype, d.name)
        if d.kind == "var":
            if d.vtype is None:
                raise InfiniteDomainError(f"variable {d.name!r} has no type")
            variables[d.name] = d.vtype
        else:
            channels[d.name] = d.vtype
    return SymbolTable(variables, channels)


def _check_finite(t: ValueType, name: str) -> None:
    if isinstance(t, IntType):
        if t.lo > t.hi:
            raise InfiniteDomainError(
                f"{name!r}: int must carry a finite range int[lo..hi]"
            )
    elif isinstance(t, SeqType):
        if t.maxlen < 0:
            raise InfiniteDomainError(
                f"{name!r}: seq must declare a maximum length"
            )
        _check_finite(t.elem, name)
    # BoolType is always finite


# The types of invariant values that only = and != compare
_EVENT_SET, _NO_DATA = "event set", "no data"


def infer_type(
    e: Expr, scope: dict, invariant: Optional[SymbolTable] = None
) -> ValueType:
    """Type of an expression over program variables.  Over the symbol table
    `invariant`, also of an invariant body: a projection is a sequence of its
    channel's payloads, x' has the type of x, and `acc` and `{}` are event
    sets, which only = and != compare."""

    def ty(x: Expr) -> ValueType:
        return infer_type(x, scope, invariant)

    if isinstance(e, Var) or (invariant and isinstance(e, Primed)):
        if e.name not in scope:
            raise UnboundNameError(f"unbound name {e.name!r}")
        return scope[e.name]
    if invariant and isinstance(e, Proj):
        payload = invariant.channels[e.chan]
        # a trace, and so a projection of it, has no maximum length
        return SeqType(_NO_DATA if payload is None else payload, math.inf)
    if invariant and (isinstance(e, Acc) or e == Lit(frozenset())):
        return _EVENT_SET
    if isinstance(e, Lit):
        return _lit_type(e.value)
    if isinstance(e, Proj):
        raise TypeMismatchError("trace projections are invariant-only")
    if isinstance(e, Primed):
        raise TypeMismatchError("primed variables are invariant-only")
    if isinstance(e, Clamp):
        return e.vtype
    if isinstance(e, SeqDisplay):
        elem = ty(e.elems[0])
        for x in e.elems[1:]:
            elem = _join(elem, ty(x), e)
        return SeqType(elem, len(e.elems))
    if isinstance(e, Not):
        _require(ty(e.arg), BoolType(), e)
        return BoolType()
    if isinstance(e, Head):
        t = ty(e.arg)
        if not isinstance(t, SeqType):
            raise TypeMismatchError(f"head applied to non-sequence {pp_expr(e)}")
        return t.elem
    if isinstance(e, Tail):
        t = ty(e.arg)
        if not isinstance(t, SeqType):
            raise TypeMismatchError(f"tail applied to non-sequence {pp_expr(e)}")
        return t
    if isinstance(e, Len):
        t = ty(e.arg)
        if not isinstance(t, SeqType):
            raise TypeMismatchError(f"# applied to non-sequence {pp_expr(e)}")
        return IntType(0, t.maxlen)
    if isinstance(e, IfE):
        _require(ty(e.cond), BoolType(), e)
        return _join(ty(e.then), ty(e.other), e)
    if isinstance(e, BinOp):
        lt = ty(e.left)
        rt = ty(e.right)
        if e.op in ("+", "-", "*"):
            for t in (lt, rt):
                if not isinstance(t, IntType):
                    raise TypeMismatchError(
                        f"{e.op} expects integers in {pp_expr(e)}"
                    )
            return _arith_type(e.op, lt, rt)
        if e.op == "++":
            if not isinstance(lt, SeqType) or not isinstance(rt, SeqType):
                raise TypeMismatchError(f"++ expects sequences in {pp_expr(e)}")
            return SeqType(_join(lt.elem, rt.elem, e), lt.maxlen + rt.maxlen)
        if e.op in ("and", "or"):
            _require(lt, BoolType(), e)
            _require(rt, BoolType(), e)
            return BoolType()
        if e.op in ("=", "!="):
            _join(lt, rt, e)
            return BoolType()
        if e.op in ("<", "<="):
            if isinstance(lt, SeqType) and isinstance(rt, SeqType):
                if e.op == "<":
                    raise TypeMismatchError("< is not defined on sequences")
                _join(lt, rt, e)
                return BoolType()
            if isinstance(lt, IntType) and isinstance(rt, IntType):
                return BoolType()
            raise TypeMismatchError(f"{e.op} mixes kinds in {pp_expr(e)}")
    raise TypeMismatchError(f"cannot type {e!r}")


def _lit_type(v) -> ValueType:
    if isinstance(v, bool):
        return BoolType()
    if isinstance(v, int):
        return IntType(v, v)
    if isinstance(v, tuple):
        if not v:
            return SeqType(IntType(0, 0), 0)
        elem = _lit_type(v[0])
        for x in v[1:]:
            elem = _join(elem, _lit_type(x), Lit(v))
        return SeqType(elem, len(v))
    raise TypeMismatchError(f"unsupported literal {v!r}")


def _arith_type(op: str, lt: IntType, rt: IntType) -> IntType:
    pairs = [(lt.lo, rt.lo), (lt.lo, rt.hi), (lt.hi, rt.lo), (lt.hi, rt.hi)]
    if op == "+":
        vals = [a + b for a, b in pairs]
    elif op == "-":
        vals = [a - b for a, b in pairs]
    else:
        vals = [a * b for a, b in pairs]
    return IntType(min(vals), max(vals))


def _join(t1: ValueType, t2: ValueType, at: Expr) -> ValueType:
    """Least common carrier of two types; error when the kinds differ."""
    if t1 == t2:
        return t1
    if isinstance(t1, IntType) and isinstance(t2, IntType):
        return IntType(min(t1.lo, t2.lo), max(t1.hi, t2.hi))
    if isinstance(t1, SeqType) and isinstance(t2, SeqType):
        if t1.maxlen == 0:
            return t2
        if t2.maxlen == 0:
            return t1
        return SeqType(
            _join(t1.elem, t2.elem, at), max(t1.maxlen, t2.maxlen)
        )
    raise TypeMismatchError(
        f"incompatible types {t1} and {t2} in {pp_expr(at)}"
    )


def _require(found: ValueType, expected: ValueType, at: Expr) -> None:
    if type(found) is not type(expected):
        raise TypeMismatchError(
            f"expected {expected}, found {found} in {pp_expr(at)}"
        )


def _compatible(payload: ValueType, declared: ValueType) -> bool:
    try:
        _join(payload, declared, Lit(0))
        return True
    except TypeMismatchError:
        return False


def typecheck(p: Program) -> TypedProgram:
    """Check declarations and the action body; desugar to core forms."""
    symtab = build_symtab(p.decls)
    _check_action(p.body, symtab, dict(symtab.variables))
    core = _desugar(p.body, symtab)
    return TypedProgram(symtab, core)


def _check_action(a: Action, symtab: SymbolTable, scope: dict) -> None:
    if isinstance(a, (Skip, Stop, Chaos, Miracle)):
        return
    if isinstance(a, Assign):
        if a.var not in symtab.variables:
            raise UnboundNameError(f"assignment to undeclared {a.var!r}")
        t = infer_type(a.expr, scope)
        if not _compatible(t, symtab.variables[a.var]):
            raise TypeMismatchError(
                f"cannot assign {t} to {a.var} : {symtab.variables[a.var]}"
            )
        return
    if isinstance(a, DoEvent):
        if a.chan not in symtab.channels:
            raise UnboundNameError(f"undeclared channel {a.chan!r}")
        declared = symtab.channels[a.chan]
        if declared is None:
            if a.data is not None:
                raise TypeMismatchError(f"channel {a.chan!r} carries no data")
            return
        if a.data is None:
            raise TypeMismatchError(f"channel {a.chan!r} requires a payload")
        t = infer_type(a.data, scope)
        if not _compatible(t, declared):
            raise TypeMismatchError(
                f"payload of {a.chan!r} has type {t}, declared {declared}"
            )
        return
    if isinstance(a, InputPrefix):
        if a.chan not in symtab.channels:
            raise UnboundNameError(f"undeclared channel {a.chan!r}")
        declared = symtab.channels[a.chan]
        if declared is None:
            raise TypeMismatchError(f"channel {a.chan!r} carries no data")
        if a.var in scope:
            raise DuplicateNameError(
                f"input variable {a.var!r} shadows a declared name"
            )
        if a.values is not None:
            for v in a.values:
                if not _value_in(v, declared):
                    raise TypeMismatchError(
                        f"value {v!r} outside the domain of {a.chan!r}"
                    )
        inner = dict(scope)
        inner[a.var] = declared
        _check_action(a.body, symtab, inner)
        return
    if isinstance(a, Guard):
        _require(infer_type(a.cond, scope), BoolType(), a.cond)
        _check_action(a.body, symtab, scope)
        return
    if isinstance(a, Seq):
        _check_action(a.first, symtab, scope)
        _check_action(a.second, symtab, scope)
        return
    if isinstance(a, (ExtChoice, IntChoice)):
        if not a.branches:
            raise TypeMismatchError("empty choice")
        for b in a.branches:
            _check_action(b, symtab, scope)
        return
    if isinstance(a, Cond):
        _require(infer_type(a.cond, scope), BoolType(), a.cond)
        _check_action(a.then, symtab, scope)
        _check_action(a.other, symtab, scope)
        return
    if isinstance(a, While):
        _require(infer_type(a.cond, scope), BoolType(), a.cond)
        _check_action(a.body, symtab, scope)
        return
    raise TypeError(f"not an action: {a!r}")


def _value_in(v, t: ValueType) -> bool:
    return any(v == x for x in t.values())


def _desugar(a: Action, symtab: SymbolTable, s: Subst = IDENTITY) -> Action:
    """Expand input prefixes over their finite domains and guards to
    conditionals, applying `s`, the input values bound by the enclosing
    prefixes, to every expression on the way.  The typechecker rejects an
    input variable that shadows another name, so the values of nested
    prefixes substitute simultaneously."""

    def sub(e: Expr) -> Expr:
        # outside every input prefix an expression stays as written
        return e if s.is_identity() else apply_subst(s, e)

    def go(b: Action) -> Action:
        return _desugar(b, symtab, s)

    if isinstance(a, (Skip, Stop, Chaos, Miracle)):
        return a
    if isinstance(a, Assign):
        return Assign(a.var, sub(a.expr))
    if isinstance(a, DoEvent):
        return a if a.data is None else DoEvent(a.chan, sub(a.data))
    if isinstance(a, InputPrefix):
        declared = symtab.channels[a.chan]
        values = a.values if a.values is not None else tuple(declared.values())
        return ExtChoice(tuple(
            Seq(DoEvent(a.chan, Lit(v)), _desugar(
                a.body, symtab, compose_subst(s, subst_of({a.var: Lit(v)}))))
            for v in values))
    if isinstance(a, Guard):
        return Cond(sub(a.cond), go(a.body), Stop())
    if isinstance(a, Seq):
        return Seq(go(a.first), go(a.second))
    if isinstance(a, ExtChoice):
        return ExtChoice(tuple(go(b) for b in a.branches))
    if isinstance(a, IntChoice):
        return IntChoice(tuple(go(b) for b in a.branches))
    if isinstance(a, Cond):
        return Cond(sub(a.cond), go(a.then), go(a.other))
    if isinstance(a, While):
        return While(sub(a.cond), go(a.body))
    raise TypeError(f"not an action: {a!r}")


def load_program(source: str) -> TypedProgram:
    """Parse, typecheck and desugar a program.  A program nested deeper
    than their recursion reaches raises `NestingTooDeepError`."""
    try:
        return typecheck(parse(source))
    except RecursionError:
        raise NestingTooDeepError("program is nested too deeply") from None


# ---------------------------------------------------------------------------
# Invariant expressions (state + trace projections + acceptance)


def parse_invariant(source: str, symtab: SymbolTable,
                    kind: Optional[str] = None) -> Expr:
    """Parse and type an invariant-relation body over st, tt projections,
    acc and primed variables.  Of `kind` "peri" it may not read primed
    variables, and of `kind` "post" it may not read acc.

    `proj(tt, c)` extracts the payload sequence of channel c; for a declared
    channel the shorthand channel-name + "s" or "ps" applied to tt is also
    accepted, e.g. `inps(tt)` and `outps(tt)` for channels inp and out.  A
    body that is not a condition is rejected.
    """
    expr = _resolve(parse_expression(source), symtab)
    for name in sorted(free_vars(expr)):
        if name not in symtab.variables:
            raise UnboundNameError(f"unbound name {name!r} in invariant")
    for x in subterms(expr):
        if isinstance(x, Acc) and kind == "post":
            raise TypeMismatchError("acc is only for periconditions")
        if isinstance(x, Primed) and kind == "peri":
            raise TypeMismatchError(
                f"primed variable {x.name}' is only for postconditions")
    _require(infer_type(expr, symtab.variables, symtab), BoolType(), expr)
    return fold(expr)


def _resolve(e: Expr, symtab: SymbolTable) -> Expr:
    """Resolve projection shorthands against the declared channels, and an
    undeclared `acc` to the acceptance set."""

    def resolve(chan: str) -> str:
        if not chan.startswith("?"):
            if chan not in symtab.channels:
                raise UnboundNameError(
                    f"projection on undeclared channel {chan!r}"
                )
            return chan
        name = chan[1:]
        candidates = [name]
        if name.endswith("s"):
            candidates.append(name[:-1])
        if name.endswith("ps"):
            candidates.append(name[:-2])
        for c in sorted(candidates, key=len, reverse=True):
            if c in symtab.channels:
                return c
        raise UnboundNameError(f"no channel matches projection {name!r}")

    def go(x: Expr) -> Expr:
        if isinstance(x, Proj):
            return Proj(resolve(x.chan))
        if x == Var("acc") and "acc" not in symtab.variables:
            return Acc()
        return rebuild(x, go)

    try:
        return go(e)
    finally:
        # `go` reaches itself through its closure: break that cycle, since
        # commands run without the cyclic collector
        del go
