"""Source hygiene: no module of the package or of its tests imports a name
it never uses; no module of the package imports another module's private
name, no function of it takes a parameter it never reads, only `syntax`
splits a file into lines, and none catches RecursionError."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "omegalogic"
TESTS = pathlib.Path(__file__).resolve().parent

# the evaluator's names that `structures` imports for its callers
REEXPORTED = {"structures": {"EvalError", "TruthAtFuel", "_eval",
                             "eval_sentence"}}

# the private names a module may import from another: only the evaluator's
# `_eval`, which `structures` imports from `evaluation` and `types_atomicity`
# from `structures`.  The benchmark's tracer names it in its layer row
# ("eval", "structures", "_eval") and wraps it where `types_atomicity`
# imports it, so the pair stays until that row moves to a public name.
PRIVATE_IMPORTS_ALLOWED = {
    "structures": {("evaluation", "_eval")},
    "types_atomicity": {("structures", "_eval")},
}

# v_top is a valuation: it takes the sentence it calls true
UNREAD_ALLOWED = {"propositional": {("v_top", "f")}}


def unused_imports(tree):
    """The names bound by the module's imports that nothing else reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.stem if p.parent == PACKAGE else f"tests/{p.stem}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) - REEXPORTED.get(path.stem, set()) == set()


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, List\n"
                     "x: List[int] = []\n")
    assert unused_imports(tree) == {"os", "Optional"}


def private_imports(tree):
    """(module, name) for each `_`-prefixed name imported from a module."""
    return {(node.module or "", alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert private_imports(tree) - PRIVATE_IMPORTS_ALLOWED.get(
        path.stem, set()) == set()


def test_the_check_sees_a_private_import():
    tree = ast.parse("from __future__ import annotations\nimport os._x\n"
                     "from .a import _b, c\nfrom x.y import _z as w\n"
                     "from . import _m\n")
    assert private_imports(tree) == {("a", "_b"), ("x.y", "_z"), ("", "_m")}


def unread_parameters(tree):
    """(function, parameter) for each parameter of a `def` that the
    function's body never reads.  A method's `self` is not counted, nor are
    lambdas, whose parameters follow the calling convention they serve."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            out |= {(node.name, p.arg) for p in params
                    if p.arg != "self" and p.arg not in read}
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unread_parameters(tree) - UNREAD_ALLOWED.get(path.stem, set()) \
        == set()


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse("def f(a, b, *rest, c=1, **kw):\n"
                     "    def g():\n        return c + len(kw)\n"
                     "    return a + g()\n"
                     "class K:\n    def m(self, x):\n        return 0\n"
                     "h = lambda u, v: u\n")
    assert unread_parameters(tree) == {("f", "b"), ("f", "rest"), ("m", "x")}


def line_splits(tree):
    """The line numbers of the calls `.splitlines()` and `.split("#", ...)`
    in the module: the file convention that `syntax.read_lines` keeps."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and (node.func.attr == "splitlines"
                 or node.func.attr == "split" and node.args
                 and isinstance(node.args[0], ast.Constant)
                 and node.args[0].value == "#")}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_syntax_reads_lines(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert path.stem == "syntax" or line_splits(tree) == set()


def test_the_check_sees_a_line_split():
    tree = ast.parse("a = text.splitlines()\nb = raw.split('#', 1)[0]\n"
                     "c = raw.split(',')\nd = raw.split()\n"
                     "e = '#'.join(a)\n")
    assert line_splits(tree) == {1, 2}


def recursion_catches(tree):
    """The line numbers of the `except` clauses that name RecursionError,
    alone or in a tuple: a walk that recurses and falls back to another
    when the stack gives out, where one walk by an explicit stack serves."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and any(isinstance(n, ast.Name) and n.id == "RecursionError"
                    for n in ast.walk(node.type))}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_module_catches_recursion_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert recursion_catches(tree) == set()


def test_the_check_sees_a_recursion_catch():
    tree = ast.parse("try:\n    f()\nexcept RecursionError:\n    g()\n"
                     "try:\n    f()\nexcept (ValueError, RecursionError):\n"
                     "    g()\nexcept KeyError:\n    h()\n"
                     "try:\n    f()\nexcept:\n    g()\n")
    assert recursion_catches(tree) == {3, 7}
