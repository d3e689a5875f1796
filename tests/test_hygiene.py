"""Source hygiene: no module of the package imports a name it never uses."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "omegalogic"

# the evaluator's names that `structures` imports for its callers
REEXPORTED = {"structures": {"EvalError", "TruthAtFuel", "_eval",
                             "_family_terms", "eval_sentence"}}


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) - REEXPORTED.get(path.stem, set()) == set()


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, List\n"
                     "x: List[int] = []\n")
    assert unused_imports(tree) == {"os", "Optional"}
