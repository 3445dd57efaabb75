"""Every name the package re-exports has a caller outside the tests.

A re-export counts as used where its name is read, as an ``ast.Name`` or
an ``ast.Attribute``, outside its own definition: in a module of
``src/gdstbc`` other than ``__init__.py``, in ``perfbench/*.py`` or
``benchmarks/*.py``, or in the Python block of README's Quickstart.
Comments and strings do not count.  A helper only the tests call belongs
in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gdstbc"


def _exports():
    """(name, defining module's stem) for every ``from .module import name``
    in the package's ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(alias.asname or alias.name, node.module) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def _defines(node, name):
    """Whether the top-level statement ``node`` defines ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _reads(tree, name):
    """Whether ``tree`` reads ``name`` outside a top-level definition of it."""
    for top in tree.body:
        if _defines(top, name):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id == name:
                return True
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
    return False


def _caller_trees():
    """(label, parsed tree) of every place a re-export may be read."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    trees = [(p.relative_to(ROOT).as_posix(), ast.parse(p.read_text())) for p in paths]
    readme = (ROOT / "README.md").read_text()
    quickstart = re.search(r"^## Quickstart\n+```python\n(.*?)^```", readme, re.S | re.M)
    return trees + [("README Quickstart", ast.parse(quickstart.group(1)))]


CALLERS = _caller_trees()


@pytest.mark.parametrize("name, module", _exports(), ids=[n for n, _ in _exports()])
def test_every_reexport_has_a_caller_outside_the_tests(name, module):
    assert (PACKAGE / f"{module}.py").is_file()
    callers = [label for label, tree in CALLERS if _reads(tree, name)]
    assert callers, f"gdstbc.{name} is read only by the tests; move it to tests/oracles.py"


def test_the_rule_ignores_comments_and_definitions():
    tree = ast.parse("def f():\n    return 1  # see g\n\n\nX = 2\n\n\ndef g():\n    return f\n")
    assert not _reads(tree, "g") and not _reads(tree, "X")
    assert _reads(tree, "f")
