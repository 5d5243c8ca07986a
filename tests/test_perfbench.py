import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qotepolicy.lpcore import solve_lp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("name, module, attr", _tracing().ENTRY_POINTS)
def test_traced_entry_point_resolves(name, module, attr):
    # a renamed or removed entry point stops the traced benchmark run
    assert callable(getattr(importlib.import_module(module), attr)), name


def test_the_tracer_builds_and_reads_real_solve_lp_results():
    # the tracer resolves every entry point it wraps, and its record of a
    # solve_lp span reads the iterations and the status of what it returns
    tracing = _tracing()
    tracing.Tracer()
    record = tracing._INFO["lpcore.solve_lp"]
    # x0 + x1 >= b, 0 <= x <= 1: feasible at b = 1, infeasible at b = 3
    rows = (np.array([0, 2]), np.array([0, 1]), np.ones(2))
    for b, failed in ((1.0, 0), (3.0, 1)):
        args = ([1.0, 2.0], "minimize", rows, [b], [np.inf], np.zeros(2), np.ones(2))
        sol = solve_lp(*args)
        assert record(args, {}, sol) == {"iterations": sol.iterations, "failed": failed}


def _package_names(source):
    """(name as written, module, attribute) of each package name a source reaches.

    Those are the attributes it reads of a package module it imports with
    ``import qotepolicy... as alias``, and the names it imports with
    ``from qotepolicy... import name``.
    """
    tree = ast.parse(source)
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qotepolicy":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qotepolicy":
            found.update((alias.name, node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                found.add((f"{node.value.id}.{node.attr}", aliases[node.value.id], node.attr))
    return sorted(found)


def _unresolved(source):
    """The package names a source reaches that its package modules do not define."""
    return [
        name
        for name, module, attr in _package_names(source)
        if not hasattr(importlib.import_module(module), attr)
    ]


def test_every_package_name_the_workloads_reach_resolves():
    # a renamed or removed name stops the benchmark's workloads
    source = WORKLOADS.read_text()
    reached = {name for name, _, _ in _package_names(source)}
    assert {"qb.makarov_bounds", "qm.u_grid", "qb.CVaR", "qcli.RULES", "qcli.main"} <= reached
    assert _unresolved(source) == []


def test_a_package_name_that_is_missing_is_reported():
    source = (
        "import qotepolicy.bounds as qb\n"
        "from qotepolicy.marginals import u_grid, no_such_grid\n"
        "qb.makarov_bounds(qb.no_such_bounds, u_grid)\n"
    )
    assert _unresolved(source) == ["no_such_grid", "qb.no_such_bounds"]
