"""No module of the package but ``lpcore.py`` reaches into HiGHS.

A module other than ``lpcore.py`` may not name the HiGHS instance class
``_Highs`` or its model and run methods ``passModel``, ``setBasis``,
``changeColsCost`` and ``clearSolver``: not as a bare name, an attribute, an
imported name or a string (as ``getattr`` takes one). So every program is
passed into HiGHS and run by ``lpcore.solve_lp``, and no second model or run
path grows beside it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qotepolicy"

HIGHS_NAMES = frozenset({"_Highs", "passModel", "setBasis", "changeColsCost", "clearSolver"})


def _names(tree):
    """(name, line) of every bare name, attribute, imported name and string in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
            yield node.asname, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def highs_names_outside_lpcore(package=PACKAGE):
    """'module:line name' of each HiGHS name in a module of the package but lpcore.py."""
    return [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "lpcore.py"
        for name, line in _names(ast.parse(path.read_text()))
        if name in HIGHS_NAMES
    ]


def test_only_lpcore_names_the_highs_model_and_run_routines():
    assert highs_names_outside_lpcore() == []


def test_the_scan_finds_highs_names_in_any_module_but_lpcore(tmp_path):
    (tmp_path / "lpcore.py").write_text("def run(highs):\n    return highs.passModel()\n")
    (tmp_path / "a.py").write_text(
        '"""Docs may say passModel."""\n'
        "from .lpcore import _bindings\n\n\n"
        "def run(highs, basis):\n"
        "    highs.setBasis(basis)\n"
        "    return _bindings()._Highs(), getattr(highs, 'clearSolver')\n"
    )
    (tmp_path / "b.py").write_text("from scipy.optimize._highspy._core import _Highs as H\n")
    assert highs_names_outside_lpcore(tmp_path) == [
        "a.py:6 setBasis", "a.py:7 _Highs", "a.py:7 clearSolver", "b.py:1 _Highs"
    ]
