"""Checks on the test modules themselves, and on the bench scripts.

No test module or bench script defines a function name twice in one scope:
a second ``def`` of a name in the same module or class body silently
replaces the first, so pytest never collects the first test.

No ``approx`` call passes ``rel=`` without ``abs=``: pytest then also
allows an absolute error of 1e-12, so the check is weaker than it reads.

The CI workflow checks nothing that tier-1 does not, apart from what only a
CI job can check: each ``ti2kit`` command it runs is a row of the command
table with the exit code the workflow expects, and it holds no
``python -c`` guard and no printed value compared in the shell.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from test_report_cli import COMMANDS

TESTS = Path(__file__).resolve().parent
# bench/error_map.py holds the error map's rows, which tier-1 runs.
TEST_MODULES = sorted([*TESTS.glob("*.py"), *(TESTS.parent / "bench").glob("*.py")])


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


WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


# A CLI call in a workflow line: "python -m ti2kit.cli" or the installed
# "ti2kit" script, then its words up to the end of the shell command.
_CLI_CALL = re.compile(r'(?:-m ti2kit\.cli|(?<![\w./-])ti2kit)\s+([^|&;)"]*)')
_EXPECTED_CODE = re.compile(r'test "\$rc" -eq (\d+)')


def _ci_violations(workflow: str, commands: dict[tuple[str, ...], int]) -> list[str]:
    # Workflow lines that check what tier-1 does not: a CLI call that is not
    # a row of the command table, or expects another exit code than its row
    # (0 unless the line tests "$rc"), a python -c guard or a printed value
    # compared in the shell.
    found = []
    for line in map(str.strip, workflow.splitlines()):
        if line.startswith("#"):
            continue
        code = _EXPECTED_CODE.search(line)
        code = int(code.group(1)) if code else 0
        if "python -c" in line or 'test "$(' in line:
            found.append(line)
        elif any(commands.get(tuple(shlex.split(words))) != code
                 for words in _CLI_CALL.findall(line)):
            found.append(line)
    return found


def test_a_ci_violation_is_found():
    workflow = (
        "# python -m ti2kit.cli compute ti2 3\n"
        "python -m ti2kit.cli compute ti2 1\n"
        "timeout 10 ti2kit compute ti2 1\n"
        "rc=0; ti2kit compute ti2 1 2 || rc=$?; test \"$rc\" -eq 2\n"
        "rc=0; python -m ti2kit.cli compute ti2 2 || rc=$?; test \"$rc\" -eq 3\n"
        "ti2kit compute ti2 2\n"
        "rc=0; ti2kit compute ti2 1 2 || rc=$?; test \"$rc\" -eq 3\n"
        "ti2kit compute ti2 1 2\n"
        'test "$(python -m ti2kit.cli compute ti2 1)" = "0.915965594177219"\n'
        "python -c \"import ti2kit\"\n"
        "python -m pip install .\n"
    )
    commands = {("compute", "ti2", "1"): 0, ("compute", "ti2", "1", "2"): 2}
    assert _ci_violations(workflow, commands) == [
        'rc=0; python -m ti2kit.cli compute ti2 2 || rc=$?; test "$rc" -eq 3',
        "ti2kit compute ti2 2",
        'rc=0; ti2kit compute ti2 1 2 || rc=$?; test "$rc" -eq 3',
        "ti2kit compute ti2 1 2",
        'test "$(python -m ti2kit.cli compute ti2 1)" = "0.915965594177219"',
        'python -c "import ti2kit"',
    ]


def test_every_ci_command_is_a_tier1_row():
    commands = {tuple(argv.split()): code for _, argv, code, *_ in COMMANDS}
    assert _ci_violations(WORKFLOW.read_text(encoding="utf-8"), commands) == []
