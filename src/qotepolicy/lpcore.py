"""The package's one linear-program backend: HiGHS (Huangfu & Hall, Math.
Prog. Comp. 2018), through the bindings scipy (1.15 or later) bundles as
``scipy.optimize._highspy._core``.

Every program takes one form, the one HiGHS takes: min or max c.x subject to
row_lower <= A x <= row_upper and lower <= x <= upper, with A given as the
arrays (indptr, indices, values) of a CSR matrix. ``solve_lp`` is the one LP
call: it checks the program, passes it into the calling thread's HiGHS
instance and runs it once, from a given start basis or from none. A run
reports how it ended and is never solved again.

Each thread keeps one HiGHS instance for as long as it lives. Every call
resets that instance's options and passes its program in afresh, so a run
does not depend on the runs before it on that thread, and any thread may
run any program.

Importing the module loads no scipy. The bindings load where they are first
used, through the cached loader ``_bindings``; without them that first use
raises an ImportError naming scipy>=1.15.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

# the calling thread's HiGHS instance, ``highs``, made on its first LP
_thread = threading.local()


@functools.cache
def _bindings():
    """scipy's HiGHS bindings, imported on the first call."""
    try:
        import scipy.optimize._highspy._core as core
    except ImportError as exc:
        raise ImportError(
            "qotepolicy needs scipy>=1.15, whose HiGHS bindings "
            "scipy.optimize._highspy._core solve every linear program"
        ) from exc
    return core


@dataclass
class LpSolution:
    """Solver result: status in {optimal, infeasible, unbounded, failed}."""

    status: str
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0
    message: str = ""


def _highs_basis(col_basic, row_basic):
    """The HiGHS basis of two boolean masks: nonbasic columns at their lower
    bound, nonbasic rows at their upper one."""
    core = _bindings()
    s = core.HighsBasisStatus
    basis = core.HighsBasis()
    basis.col_status = [s.kBasic if b else s.kLower for b in col_basic]
    basis.row_status = [s.kBasic if b else s.kUpper for b in row_basic]
    basis.valid, basis.alien = True, False
    return basis


def solve_lp(c, sense, rows, row_lower, row_upper, lower, upper, basis=None) -> LpSolution:
    """min or max c.x s.t. row_lower <= A x <= row_upper, lower <= x <= upper: one run.

    ``rows`` holds A's CSR arrays (indptr, indices, values), which HiGHS
    copies as contiguous int32 and float64 arrays, every column continuous.
    The values and costs must be finite, the lengths match, the column
    indices lie below the number of columns, each lower bound lie at or
    below its upper one, and ``sense`` be minimize or maximize; a row or
    column bound may be infinite. The program is passed into the calling
    thread's HiGHS instance, after its options are reset and its output
    turned off, which raises if HiGHS refuses it. The run starts the simplex
    from ``basis``, a ``HighsBasis``; without one, or where HiGHS refuses
    it, from no basis, so HiGHS presolves. It ends optimal, infeasible,
    unbounded, or failed for any other HiGHS model status (iteration limit,
    numerical trouble), and reports its simplex iterations. HiGHS runs
    outside the interpreter lock, so calls on several threads solve in
    parallel.
    """
    indptr, indices, values = rows
    lower, upper, row_lower, row_upper = (
        np.ascontiguousarray(v, dtype=np.float64) for v in (lower, upper, row_lower, row_upper)
    )
    n, m = lower.size, indptr.size - 1
    if upper.size != n:
        raise ValueError("bounds have wrong length")
    if row_lower.size != m or row_upper.size != m:
        raise ValueError("row bounds have wrong lengths")
    if not indices.size == values.size == indptr[-1]:
        raise ValueError("rows have wrong lengths")
    if indices.size and not (indices.min() >= 0 and indices.max() < n):
        raise ValueError("rows have wrong number of columns")
    if not (np.all(lower <= upper) and np.all(row_lower <= row_upper)):
        raise ValueError("lower bound exceeds upper bound")
    if not np.all(np.isfinite(values)):
        raise ValueError("coefficients must be finite")
    c = np.ascontiguousarray(c, dtype=np.float64)
    if c.shape != (n,):
        raise ValueError(f"costs have wrong length: {c.size}, not {n}")
    if not np.all(np.isfinite(c)):
        raise ValueError("costs must be finite")
    if sense not in ("minimize", "maximize"):
        raise ValueError("sense must be minimize or maximize")
    core = _bindings()
    highs = getattr(_thread, "highs", None)
    if highs is None:
        highs = _thread.highs = core._Highs()
    highs.resetOptions()
    highs.setOptionValue("output_flag", False)
    objective = core.ObjSense.kMinimize if sense == "minimize" else core.ObjSense.kMaximize
    status = highs.passModel(
        n, m, indices.size, int(core.MatrixFormat.kRowwise), int(objective), 0.0, c,
        lower, upper, row_lower, row_upper,
        np.ascontiguousarray(indptr, dtype=np.int32),
        np.ascontiguousarray(indices, dtype=np.int32),
        np.ascontiguousarray(values, dtype=np.float64),
        np.zeros(n, dtype=np.int32),
    )
    if status == core.HighsStatus.kError:
        raise ValueError("HiGHS refused the model")
    if basis is not None:
        highs.setBasis(basis)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    known = core.HighsModelStatus
    end = {
        known.kOptimal: "optimal",
        known.kInfeasible: "infeasible",
        known.kUnbounded: "unbounded",
    }.get(status, "failed")
    optimal = end == "optimal"
    return LpSolution(
        status=end,
        x=np.array(highs.getSolution().col_value) if optimal else None,
        objective=float(info.objective_function_value) if optimal else None,
        iterations=int(info.simplex_iteration_count),
        message=highs.modelStatusToString(status),
    )
