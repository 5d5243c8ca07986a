"""No function, class or method of the package goes uncalled.

A private name (one leading underscore, not a dunder) defined at module level
or as a method of a module-level class must be named somewhere in the
package outside its own definition: as a bare name or as an attribute. A
public function or class defined at module level must either be imported by
``qotepolicy/__init__.py``, whose imports are the one list of public names,
or be named in the package in the same way. Tests do not count, so code that
only tests reach fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qotepolicy"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


_KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_definitions(tree):
    """(name, first line, last line) of each private top-level or method definition."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for defn in [node] + [m for m in members if isinstance(m, _KINDS)]:
            if isinstance(defn, _KINDS) and _private(defn.name):
                yield defn.name, defn.lineno, defn.end_lineno


def _public_definitions(tree):
    """(name, first line, last line) of each public top-level function or class."""
    for node in tree.body:
        if isinstance(node, _KINDS) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno


def _uses(tree):
    """(name, line) of every bare name and attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _exports(tree):
    """(module file, name) of each name ``from .module import name`` brings in."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield f"{node.module}.py", alias.name


def _unnamed(package, definitions, exported=frozenset()):
    """'module:line name' of each definition named nowhere in the package but itself."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    uses = {name: list(_uses(tree)) for name, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for name, first, last in definitions(tree):
            if (module, name) not in exported and not any(
                used == name and not (where == module and first <= line <= last)
                for where, found in uses.items()
                for used, line in found
            ):
                dead.append(f"{module}:{first} {name}")
    return dead


def unreferenced_private_names(package=PACKAGE):
    return _unnamed(package, _private_definitions)


def unexported_public_names(package=PACKAGE):
    init = package / "__init__.py"
    exported = set(_exports(ast.parse(init.read_text()))) if init.exists() else set()
    return _unnamed(package, _public_definitions, exported)


def test_every_private_definition_is_referenced_in_the_package():
    assert unreferenced_private_names() == []


def test_every_public_definition_is_exported_or_referenced_in_the_package():
    assert unexported_public_names() == []


def test_the_scan_finds_an_uncalled_private_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _only_itself(n):\n    return _only_itself(n - 1) if n else _used()\n\n\n"
        "class _Box:\n    def _unused(self):\n        return self\n\n    def __len__(self):\n"
        "        return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import _Box\n\nBOX = _Box()\n")
    assert unreferenced_private_names(tmp_path) == ["a.py:5 _only_itself", "a.py:10 _unused"]


def test_the_scan_finds_a_public_function_neither_exported_nor_called(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Exported, exported\n")
    (tmp_path / "a.py").write_text(
        "class Exported:\n    def unused_method(self):\n        return self\n\n\n"
        "def exported():\n    return Exported()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else helper()\n\n\n"
        "def _private_and_unused():\n    return 0\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import helper\n\n\nclass Called:\n    pass\n\n\nVALUE = (Called(), helper())\n"
    )
    assert unexported_public_names(tmp_path) == ["a.py:14 orphan"]
