"""Seeded random generators: symbol tables, core programs, atoms, and
expressions for the law suites and cross-check corpora."""

from __future__ import annotations

import random

from . import dsl
from .relalg import (
    EventSetExpr,
    EventTerm,
    FinalAtom,
    ImagePart,
    QuiescentAtom,
    SingletonPart,
    final,
    quiescent,
)
from .state import (
    BinOp,
    BoolType,
    Head,
    IntType,
    Len,
    Lit,
    Not,
    SeqType,
    Subst,
    SymbolTable,
    TRUE,
    Tail,
    Var,
    assignment_subst,
)


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def random_symtab(rng: random.Random, max_domain: int = 2) -> SymbolTable:
    variables = {}
    n_vars = rng.randint(1, 2)
    names = rng.sample(["x", "y", "s"], n_vars)
    for n in names:
        kind = rng.random()
        if n == "s" or (kind < 0.25 and "s" not in variables):
            variables[n] = SeqType(IntType(0, 1), 2)
        elif kind < 0.55:
            variables[n] = BoolType()
        else:
            variables[n] = IntType(0, rng.randint(1, max_domain))
    channels = {}
    for c in rng.sample(["a", "b", "c"], rng.randint(1, 3)):
        channels[c] = (
            None if rng.random() < 0.5 else IntType(0, rng.randint(0, 1))
        )
    return SymbolTable(variables, channels)


def random_int_expr(rng, symtab: SymbolTable, depth: int = 2):
    choices = ["lit"]
    int_vars = [
        n for n, t in symtab.variables.items() if isinstance(t, IntType)
    ]
    seq_vars = [
        n for n, t in symtab.variables.items() if isinstance(t, SeqType)
    ]
    if int_vars:
        choices += ["var", "var"]
    if seq_vars:
        choices += ["head", "len"]
    if depth > 0:
        choices += ["add", "sub"]
    pick = rng.choice(choices)
    if pick == "lit":
        return Lit(rng.randint(0, 2))
    if pick == "var":
        return Var(rng.choice(int_vars))
    if pick == "head":
        return Head(Var(rng.choice(seq_vars)))
    if pick == "len":
        return Len(Var(rng.choice(seq_vars)))
    op = "+" if pick == "add" else "-"
    return BinOp(
        op,
        random_int_expr(rng, symtab, depth - 1),
        random_int_expr(rng, symtab, depth - 1),
    )


def random_seq_expr(rng, symtab: SymbolTable, depth: int = 1):
    seq_vars = [
        n for n, t in symtab.variables.items() if isinstance(t, SeqType)
    ]
    choices = ["lit"]
    if seq_vars:
        choices += ["var", "var", "tail"]
        if depth > 0:
            choices.append("cat")
    pick = rng.choice(choices)
    if pick == "lit":
        return Lit(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2))))
    if pick == "var":
        return Var(rng.choice(seq_vars))
    if pick == "tail":
        return Tail(Var(rng.choice(seq_vars)))
    return BinOp(
        "++",
        random_seq_expr(rng, symtab, 0),
        random_seq_expr(rng, symtab, 0),
    )


def random_cond(rng, symtab: SymbolTable, depth: int = 1):
    bool_vars = [
        n for n, t in symtab.variables.items() if isinstance(t, BoolType)
    ]
    choices = ["true", "cmp"]
    if bool_vars:
        choices.append("var")
    if depth > 0:
        choices += ["and", "or", "not"]
    pick = rng.choice(choices)
    if pick == "true":
        return TRUE
    if pick == "var":
        return Var(rng.choice(bool_vars))
    if pick == "cmp":
        op = rng.choice(["=", "<", "<="])
        return BinOp(
            op,
            random_int_expr(rng, symtab, 1),
            random_int_expr(rng, symtab, 1),
        )
    if pick == "not":
        return Not(random_cond(rng, symtab, depth - 1))
    return BinOp(
        "and" if pick == "and" else "or",
        random_cond(rng, symtab, depth - 1),
        random_cond(rng, symtab, depth - 1),
    )


def random_subst(rng, symtab: SymbolTable) -> Subst:
    mapping = {}
    for n, t in symtab.variables.items():
        if rng.random() < 0.5:
            continue
        if isinstance(t, IntType):
            mapping[n] = random_int_expr(rng, symtab, 1)
        elif isinstance(t, BoolType):
            mapping[n] = random_cond(rng, symtab, 0)
        else:
            mapping[n] = random_seq_expr(rng, symtab, 1)
    return assignment_subst(mapping, symtab)


def random_event(rng, symtab: SymbolTable) -> EventTerm:
    chan = rng.choice(sorted(symtab.channels))
    t = symtab.channels[chan]
    if t is None:
        return EventTerm(chan)
    if rng.random() < 0.6:
        return EventTerm(chan, Lit(rng.choice(list(t.values()))))
    return EventTerm(chan, random_int_expr(rng, symtab, 1))


def random_trace(rng, symtab: SymbolTable, max_len: int = 2) -> tuple:
    return tuple(
        random_event(rng, symtab) for _ in range(rng.randint(0, max_len))
    )


def random_event_set(rng, symtab: SymbolTable) -> EventSetExpr:
    parts = []
    for _ in range(rng.randint(0, 2)):
        guard = None if rng.random() < 0.6 else random_cond(rng, symtab, 0)
        if rng.random() < 0.25:
            parts.append(ImagePart(guard, rng.choice(sorted(symtab.channels))))
        else:
            parts.append(SingletonPart(guard, random_event(rng, symtab)))
    return EventSetExpr(tuple(parts))


def random_final_atom(
    rng, symtab: SymbolTable, min_trace: int = 0
) -> FinalAtom:
    trace = random_trace(rng, symtab)
    while len(trace) < min_trace:
        trace = trace + (random_event(rng, symtab),)
    return final(random_cond(rng, symtab), random_subst(rng, symtab), trace)


def random_quiescent_atom(rng, symtab: SymbolTable) -> QuiescentAtom:
    return quiescent(
        random_cond(rng, symtab),
        random_trace(rng, symtab),
        random_event_set(rng, symtab),
    )


# ---------------------------------------------------------------------------
# Core programs


def random_star_free(rng, symtab: SymbolTable, depth: int = 3) -> dsl.Action:
    if depth <= 0:
        return _random_leaf(rng, symtab)
    pick = rng.random()
    if pick < 0.30:
        return _random_leaf(rng, symtab)
    if pick < 0.45:
        return dsl.Seq(
            random_star_free(rng, symtab, depth - 1),
            random_star_free(rng, symtab, depth - 1),
        )
    if pick < 0.62:
        return dsl.ext_choice(
            dsl.Seq(
                dsl.DoEvent(ev.chan, ev.data),
                random_star_free(rng, symtab, depth - 1),
            )
            for ev in [
                random_event(rng, symtab) for _ in range(rng.randint(2, 3))
            ]
        )
    if pick < 0.75:
        return dsl.int_choice(
            random_star_free(rng, symtab, depth - 1)
            for _ in range(rng.randint(2, 3))
        )
    if pick < 0.9:
        return dsl.Cond(
            random_cond(rng, symtab),
            random_star_free(rng, symtab, depth - 1),
            random_star_free(rng, symtab, depth - 1),
        )
    return dsl.Seq(
        dsl.DoEvent(*_event_fields(random_event(rng, symtab))),
        random_star_free(rng, symtab, depth - 1),
    )


def _event_fields(ev: EventTerm):
    return ev.chan, ev.data


def _random_leaf(rng, symtab: SymbolTable) -> dsl.Action:
    pick = rng.random()
    if pick < 0.3:
        return dsl.Skip()
    if pick < 0.45:
        return dsl.Stop()
    if pick < 0.52:
        return dsl.Chaos()
    if pick < 0.56:
        return dsl.Miracle()
    if pick < 0.8 and symtab.variables:
        n = rng.choice(sorted(symtab.variables))
        t = symtab.variables[n]
        if isinstance(t, IntType):
            e = random_int_expr(rng, symtab, 1)
        elif isinstance(t, BoolType):
            e = random_cond(rng, symtab, 0)
        else:
            e = random_seq_expr(rng, symtab, 1)
        return dsl.Assign(n, e)
    ev = random_event(rng, symtab)
    return dsl.DoEvent(ev.chan, ev.data)


def random_while_program(rng, symtab: SymbolTable) -> dsl.Action:
    """A loop with a productive body: an event prefix guards every pass."""
    ev = random_event(rng, symtab)
    tail_pick = rng.random()
    if tail_pick < 0.4 and symtab.variables:
        n = rng.choice(sorted(symtab.variables))
        t = symtab.variables[n]
        if isinstance(t, IntType):
            e = random_int_expr(rng, symtab, 1)
        elif isinstance(t, BoolType):
            e = random_cond(rng, symtab, 0)
        else:
            e = random_seq_expr(rng, symtab, 1)
        rest: dsl.Action = dsl.Assign(n, e)
    elif tail_pick < 0.6:
        ev2 = random_event(rng, symtab)
        rest = dsl.DoEvent(ev2.chan, ev2.data)
    else:
        rest = dsl.Skip()
    body = dsl.Seq(dsl.DoEvent(ev.chan, ev.data), rest)
    if rng.random() < 0.5:
        branch = random_event(rng, symtab)
        body = dsl.ext_choice(
            (
                body,
                dsl.Seq(dsl.DoEvent(branch.chan, branch.data), dsl.Skip()),
            )
        )
    cond = TRUE if rng.random() < 0.5 else random_cond(rng, symtab, 1)
    return dsl.While(cond, body)


def random_program(rng, depth: int = 3) -> dsl.TypedProgram:
    symtab = random_symtab(rng)
    return dsl.TypedProgram(symtab, random_star_free(rng, symtab, depth))


def random_loop_program(rng) -> dsl.TypedProgram:
    symtab = random_symtab(rng)
    return dsl.TypedProgram(symtab, random_while_program(rng, symtab))
