"""Every name a `rdes` module or a test module imports is used in it.

Package `__init__.py` files re-export what they import, and `__future__`
imports are compiler directives, so both are skipped.
"""

import ast
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
