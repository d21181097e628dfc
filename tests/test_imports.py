"""Every name a package module imports is used in that module, and every
module-level private function or class is used somewhere in the package."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "distatlas"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_name():
    source = "import os\nfrom json import dumps, loads\nprint(loads)\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]


def names_used(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_privates(sources: dict) -> list:
    """Module-level _private functions and classes that no code outside their own body names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and used[node.name] == names_used(node)[node.name])


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_checker_flags_an_unreferenced_private():
    sources = {"a.py": "def _used():\n    pass\n\n"
                       "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                       "class _Dead:\n    pass\n",
               "b.py": "from a import _used\n_used()\n"}
    assert unreferenced_privates(sources) == ["a.py:_Dead", "a.py:_recursive"]


def test_cli_import_leaves_scipy_submodules_unloaded():
    code = ("import sys, distatlas.cli; "
            "print(sorted(m for m in ('scipy.ndimage', 'scipy.spatial') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
