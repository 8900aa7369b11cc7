"""Every name a `rdes` module or a test module imports is used in it, every
`rdes` module imports only at its top level, every private module-level
function or class of `rdes` is used in `rdes`, no `rdes` module uses a
`functools` cache, the oracle's operational semantics uses nothing that
`oracle.py` imports from the calculus or the view, neither the oracle, the
transition-system view nor the calculus (`relalg`, `kleene`, `contracts`)
uses anything from `ground`, an invariant's
monitor reads only `state`, and starting the command line loads neither
`dataclasses` nor `inspect`.

Package `__init__.py` files re-export what they import, and `__future__`
imports are compiler directives, so both are skipped.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rdes"
MODULES = sorted(
    p
    for p in (*SRC.glob("*.py"), *TESTS.glob("*.py"))
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # a use is a bare name; `a.b` uses `a` through its `Name` node
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_name():
    src = "from __future__ import annotations\nimport os\nfrom x import a, b\nb()\n"
    assert unused_imports(src) == ["a (line 3)", "os (line 2)"]


def nested_imports(source: str) -> list:
    """Lines of the imports that are not statements of the module itself."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom)) and id(n) not in top
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_detector_flags_a_nested_import():
    src = ("import os\n\ndef f():\n    from x import a\n    return a\n\n"
           "class C:\n    import sys\n")
    assert nested_imports(src) == [4, 8]


def unreferenced_private_defs(sources: dict) -> list:
    """`module.name` of each module-level function or class whose name
    starts with `_` and that no code outside its own body refers to, over
    the modules `sources` maps by name to their source."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    defs = [
        (m, node)
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    ]
    used = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            name = n.id if isinstance(n, ast.Name) else (
                n.attr if isinstance(n, ast.Attribute) else None)
            if name is not None:
                used.setdefault(name, []).append(n)
    out = []
    for m, node in defs:
        inside = set(map(id, ast.walk(node)))
        if all(id(n) in inside for n in used.get(node.name, ())):
            out.append(f"{m}.{node.name}")
    return sorted(out)


def test_private_definitions_are_used():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


def test_detector_flags_an_unused_private_definition():
    sources = {
        "a": "def _used(): pass\ndef _stale(n): return _stale(n - 1)\n",
        "b": "from .a import _used\nclass _Gone: pass\n_used()\n",
    }
    assert unreferenced_private_defs(sources) == ["a._stale", "b._Gone"]


# A `functools` cache outlives the check that filled it, and the benchmark
# times each case once per process on the premise that no cache does
CACHES = frozenset({"lru_cache", "cache", "cached_property"})


def functools_caches(source: str) -> list:
    """`line: name` of each `functools` cache a module imports or uses."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for n in ast.walk(tree) if isinstance(n, ast.Import)
        for alias in n.names if alias.name == "functools"
    }
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "functools":
            found += [(n.lineno, a.name) for a in n.names if a.name in CACHES]
        elif (isinstance(n, ast.Attribute) and n.attr in CACHES
              and isinstance(n.value, ast.Name) and n.value.id in modules):
            found.append((n.lineno, n.attr))
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_cache_outlives_a_check(path):
    assert functools_caches(path.read_text()) == []


def test_detector_flags_a_functools_cache():
    src = ("import functools\nimport functools as ft\n"
           "from functools import cache, reduce\n\n"
           "@functools.lru_cache(maxsize=None)\ndef f(): pass\n\n"
           "class C:\n    @ft.cached_property\n    def g(self): pass\n\n"
           "h = functools.partial(reduce, max)\n")
    assert functools_caches(src) == [
        "3: cache", "5: lru_cache", "9: cached_property"]


# The oracle is the independent reading that the calculus is checked
# against, so its enumerator must not compute with the calculus
CALCULUS = frozenset({"relalg", "contracts", "ground", "kleene", "verify"})


def calculus_uses(source: str, function, modules=CALCULUS) -> list:
    """`name (line n)` of each use, in the body of the module-level
    function or class `function` (in the whole module if None), of a name
    that the module imports from one of `modules`, or of such a module
    itself."""
    tree = ast.parse(source)
    imported = set()
    for n in tree.body:
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            module = getattr(n, "module", None) or ""
            for alias in n.names:
                path = f"{module}.{alias.name}".split(".")
                if modules.intersection(path):
                    imported.add(alias.asname or alias.name.split(".")[0])
    fn = tree if function is None else next(
        n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef))
        and n.name == function)
    return sorted(f"{n.id} (line {n.lineno})" for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and n.id in imported)


def test_the_enumerator_is_independent_of_the_calculus():
    # the operational semantics, the sets read off it, the def-use rule
    # that says which initial states it cannot tell apart, and the marked
    # states it runs from; nor does it read a relation's view
    source = (SRC / "oracle.py").read_text()
    for function in ("enumerate_program", "Observations", "_Semantics",
                     "_cyclic", "_reads_writes", "_program_frame", "_Kept",
                     "_marked"):
        assert calculus_uses(source, function, CALCULUS | {"view"}) == [], \
            function


def test_the_oracle_does_not_read_the_ground_reading():
    # both sides of the cross-check are automata now; `ground` stays the
    # reading behind `laws` and the tests
    source = (SRC / "oracle.py").read_text()
    assert calculus_uses(source, None, frozenset({"ground"})) == []


def test_the_view_is_independent_of_the_ground_reading():
    # the tests compare the view's instance sets with `ground`'s, so the
    # view must not compute with `ground`
    source = (SRC / "view.py").read_text()
    assert calculus_uses(source, None, frozenset({"ground"})) == []


def test_the_calculus_does_not_read_the_ground_reading():
    # `laws` and the tests check the calculus against `ground`, so the
    # calculus must not compute with it
    for module in ("relalg", "kleene", "contracts"):
        source = (SRC / f"{module}.py").read_text()
        assert calculus_uses(source, None, frozenset({"ground"})) == [], \
            module


def test_the_monitor_reads_only_the_state_module():
    # an invariant's monitor is derived from the invariant alone, so that
    # the search over residues does not lean on a reading of relations
    source = (SRC / "monitor.py").read_text()
    readings = frozenset({"relalg", "contracts", "ground", "view", "oracle",
                          "kleene", "verify"})
    assert calculus_uses(source, None, readings) == []
    assert {n.module for n in ast.parse(source).body
            if isinstance(n, ast.ImportFrom)} == {"__future__", "state"}


def test_detector_flags_a_use_of_the_calculus():
    src = ("from . import dsl, ground\nfrom .relalg import pp_trace as pp\n"
           "from .state import eval_expr\nimport rdes.kleene\n\n"
           "def enumerate_program(a):\n    ground.f(pp(a), eval_expr(a))\n"
           "    return dsl.g(rdes.kleene)\n\ndef other(a):\n    return pp(a)\n"
           "\nclass Walk:\n    def go(self, a):\n        return ground.g(a)\n")
    assert calculus_uses(src, "enumerate_program") == [
        "ground (line 7)", "pp (line 7)", "rdes (line 8)"]
    assert calculus_uses(src, "Walk") == ["ground (line 15)"]
    assert calculus_uses(src, None, frozenset({"ground"})) == [
        "ground (line 15)", "ground (line 7)"]


# Every command is a fresh process, so what importing the command line
# loads is paid on each run; `dataclasses` alone brings `inspect`, `ast`,
# `dis` and `tokenize`, and each frozen dataclass execs its methods
SLOW_TO_LOAD = ("dataclasses", "inspect")


def test_the_command_line_starts_without_slow_modules():
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, rdes.cli; print([m for m in {SLOW_TO_LOAD!r} "
         "if m in sys.modules])"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.stdout.strip() == "[]"
