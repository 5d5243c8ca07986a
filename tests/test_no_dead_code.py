"""No private function, class or method of the package goes uncalled.

A private name (one leading underscore, not a dunder) defined at module level
or as a method of a module-level class must be named somewhere in the
package outside its own definition: as a bare name or as an attribute. Tests
do not count, so code that only tests reach fails here. Public names are
the package's interface and out of scope.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qotepolicy"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree):
    """(name, first line, last line) of each private top-level or method definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for defn in [node] + [m for m in members if isinstance(m, kinds)]:
            if isinstance(defn, kinds) and _private(defn.name):
                yield defn.name, defn.lineno, defn.end_lineno


def _uses(tree):
    """(name, line) of every bare name and attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced_private_names(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    uses = {name: list(_uses(tree)) for name, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for name, first, last in _definitions(tree):
            if not any(
                used == name and not (where == module and first <= line <= last)
                for where, found in uses.items()
                for used, line in found
            ):
                dead.append(f"{module}:{first} {name}")
    return dead


def test_every_private_definition_is_referenced_in_the_package():
    assert unreferenced_private_names() == []


def test_the_scan_finds_an_uncalled_private_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _only_itself(n):\n    return _only_itself(n - 1) if n else _used()\n\n\n"
        "class _Box:\n    def _unused(self):\n        return self\n\n    def __len__(self):\n"
        "        return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import _Box\n\nBOX = _Box()\n")
    assert unreferenced_private_names(tmp_path) == ["a.py:5 _only_itself", "a.py:10 _unused"]
