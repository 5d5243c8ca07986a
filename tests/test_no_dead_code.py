"""No function, class or method of the package goes uncalled.

A private name (one leading underscore, not a dunder) defined at module level
or as a method of a module-level class, and any method but a dunder of a
private class, must be named somewhere in the package outside its own
definition. A public function or class defined at module level must either
be imported by ``qotepolicy/__init__.py``, whose imports are the one list of
public names, or be named in the package in the same way. Tests do not
count, so code that only tests reach fails here.

A module-level definition counts as named only as a bare name, in its own
module or in a module that imports it from that module (under the name it
is imported as), so a name defined twice is matched per module. A method
counts as named by any attribute of that name anywhere in the package:
``obj.method`` cannot be resolved to a class without types. A bare name,
such as a local variable spelled like the method, does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qotepolicy"


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _private(name):
    return name.startswith("_") and not _dunder(name)


_KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_definitions(tree):
    """(name, first line, last line, is a method) of each private top-level or
    method definition, and of each method but a dunder of a private class."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        if isinstance(node, _KINDS) and _private(node.name):
            yield node.name, node.lineno, node.end_lineno, False
        for defn in members:
            if isinstance(defn, _KINDS) and (
                _private(defn.name) or (_private(node.name) and not _dunder(defn.name))
            ):
                yield defn.name, defn.lineno, defn.end_lineno, True


def _public_definitions(tree):
    """(name, first line, last line, False) of each public top-level function or class."""
    for node in tree.body:
        if isinstance(node, _KINDS) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno, False


def _uses(tree):
    """(name, line, is an attribute) of every bare name and attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def _imports(tree):
    """(module file, name, local name) of each ``from .module import name``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield f"{node.module}.py", alias.name, alias.asname or alias.name


def _unnamed(package, definitions, exported=frozenset()):
    """'module:line name' of each definition named nowhere in the package but itself."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    uses = {name: list(_uses(tree)) for name, tree in trees.items()}
    imports = {name: list(_imports(tree)) for name, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for name, first, last, method in definitions(tree):
            if method:
                names = {(where, name, True) for where in trees}
            else:
                names = {(module, name, False)} | {
                    (where, local, False)
                    for where, found in imports.items()
                    for source, imported, local in found
                    if (source, imported) == (module, name)
                }
            if (module, name) not in exported and not any(
                (where, used, attribute) in names
                and not (where == module and first <= line <= last)
                for where, found in uses.items()
                for used, line, attribute in found
            ):
                dead.append(f"{module}:{first} {name}")
    return dead


def unreferenced_private_names(package=PACKAGE):
    return _unnamed(package, _private_definitions)


def unexported_public_names(package=PACKAGE):
    init = package / "__init__.py"
    exported = set()
    if init.exists():
        exported = {(source, name) for source, name, _ in _imports(ast.parse(init.read_text()))}
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


def test_the_scan_finds_an_uncalled_public_method_of_a_private_class(tmp_path):
    # a private class's public-named methods are internal too: rows is named
    # by an attribute in another module and stays, matrix is named only in
    # its own body and by a bare name elsewhere, and is reported; dunders and
    # a public class's methods are not scanned
    (tmp_path / "a.py").write_text(
        "class _Program:\n    def rows(self):\n        return self\n\n"
        "    def matrix(self):\n        return self.matrix()\n\n    def __len__(self):\n"
        "        return 0\n\n\nclass Public:\n    def unused(self):\n        return self\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _Program\n\nROWS = _Program().rows()\nmatrix = ROWS\n"
    )
    assert unreferenced_private_names(tmp_path) == ["a.py:5 matrix"]


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


def test_the_scan_matches_module_level_names_per_module(tmp_path):
    # a.py names its own Exported and _helper, which does not name b.py's;
    # c.py names b.py's _renamed under the name it imports it as, and
    # b.py's method _poke by an attribute it cannot resolve to a class
    (tmp_path / "__init__.py").write_text("from .a import Exported\n")
    (tmp_path / "a.py").write_text(
        "class Exported:\n    pass\n\n\n"
        "def _helper():\n    return Exported()\n\n\nVALUE = _helper()\n"
    )
    (tmp_path / "b.py").write_text(
        "class Exported:\n    def _poke(self):\n        return self\n\n\n"
        "def _helper():\n    return 1\n\n\ndef _renamed():\n    return 2\n"
    )
    (tmp_path / "c.py").write_text(
        "from .b import _renamed as alias\n\nVALUE = alias()._poke()\n"
    )
    assert unexported_public_names(tmp_path) == ["b.py:1 Exported"]
    assert unreferenced_private_names(tmp_path) == ["b.py:6 _helper"]
