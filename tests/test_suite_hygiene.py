"""Checks on the test modules themselves.

No test module defines a function name twice in one scope: a second
``def`` of a name in the same module or class body silently replaces the
first, so pytest never collects the first test.

No ``approx`` call passes ``rel=`` without ``abs=``: pytest then also
allows an absolute error of 1e-12, so the check is weaker than it reads.
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


def _rel_without_abs(tree: ast.Module) -> list[int]:
    # Lines of the approx calls that give a relative tolerance but no
    # absolute one.
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            keywords = {k.arg for k in node.keywords}
            if name == "approx" and "rel" in keywords and "abs" not in keywords:
                found.append(node.lineno)
    return found


def test_a_rel_only_approx_is_found():
    source = (
        "pytest.approx(1.0, rel=1e-9)\napprox(1.0, rel=1e-9, abs=0.0)\n"
        "approx(1.0)\napprox(2.0, rel=1e-9)\n"
    )
    assert _rel_without_abs(ast.parse(source)) == [1, 4]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_approx_takes_rel_without_abs(path):
    assert _rel_without_abs(ast.parse(path.read_text(encoding="utf-8"))) == []
