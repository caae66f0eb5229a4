"""No test module defines a function name twice in one scope.

A second ``def`` of a name in the same module or class body silently
replaces the first, so pytest never collects the first test.
"""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _redefinitions(tree: ast.Module) -> list[tuple[str, str, int]]:
    # (scope, name, line) of each def whose name an earlier def in the same
    # module or class body already took.
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        seen = set()
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in seen:
                    found.append((getattr(scope, "name", "<module>"), node.name, node.lineno))
                seen.add(node.name)
    return found


def test_a_redefinition_is_found():
    source = "def f(): pass\nclass T:\n    def t(self): pass\n    def t(self): pass\ndef f(): pass\n"
    assert _redefinitions(ast.parse(source)) == [("<module>", "f", 5), ("T", "t", 4)]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_function_defined_twice_in_one_scope(path):
    assert _redefinitions(ast.parse(path.read_text(encoding="utf-8"))) == []
