"""Counts in the source that may only go down."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freefactor"

# internal invariants only: a precondition on input raises a typed
# FreefactorError, which unlike an assert survives ``python -O``
MAX_ASSERTS = 12


def test_assert_count():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, f"{len(found)} asserts in src/freefactor: {found}"
