import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qotepolicy.lpcore import solve_lp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
