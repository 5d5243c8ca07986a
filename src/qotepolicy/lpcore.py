"""The package's one linear-program backend: HiGHS (Huangfu & Hall, Math.
Prog. Comp. 2018), through the bindings scipy (1.15 or later) bundles as
``scipy.optimize._highspy._core``.

Every program takes one form, the one HiGHS takes: min or max c.x subject to
row_lower <= A x <= row_upper and lower <= x <= upper, with A given as the
arrays (indptr, indices, values) of a CSR matrix. An ``LpSession`` holds one
such program, checked, and runs it once per cost change, each time from the
same given start basis or from no basis. ``solve_lp`` is one run of a fresh
session from no basis, so HiGHS presolves it. ``_run`` runs every model,
checking the costs and the sense first; a run reports how it ended and is
never solved again.

Each thread keeps one HiGHS instance for as long as it lives. A session owns
no model: its ``_highs`` passes the program into the calling thread's
instance, with every option reset, whenever that instance last held another
session's, so any thread may run any session, and a run does not depend on
the runs before it on that thread.

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

# the calling thread's HiGHS instance (``highs``) and the session whose model it holds (``held``)
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


def _run(highs, c, sense: str, basis) -> LpSolution:
    """One run of a model for costs c, from ``basis`` or, if None or refused, from none.

    It ends optimal, infeasible, unbounded, or failed for any other HiGHS
    model status (iteration limit, numerical trouble).
    """
    c = np.asarray(c, dtype=float)
    n = highs.getNumCol()
    if c.shape != (n,):
        raise ValueError(f"costs have wrong length: {c.size}, not {n}")
    if not np.all(np.isfinite(c)):
        raise ValueError("costs must be finite")
    if sense not in ("minimize", "maximize"):
        raise ValueError("sense must be minimize or maximize")
    core = _bindings()
    highs.changeObjectiveSense(
        core.ObjSense.kMinimize if sense == "minimize" else core.ObjSense.kMaximize
    )
    highs.changeColsCost(n, np.arange(n, dtype=np.int32), c)
    highs.clearSolver()  # nothing an earlier run left carries over
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


def solve_lp(c, sense, rows, row_lower, row_upper, lower, upper) -> LpSolution:
    """One run of a fresh ``LpSession`` of the program, from no basis."""
    return _run(LpSession(rows, row_lower, row_upper, lower, upper)._highs(), c, sense, None)


class LpSession:
    """min or max c.x s.t. row_lower <= A x <= row_upper, lower <= x <= upper, for many c.

    ``rows`` holds A's CSR arrays (indptr, indices, values), which HiGHS
    copies as contiguous int32 and float64 arrays, every column continuous.
    The values must be finite, the lengths match, the column indices lie
    below the number of columns, and each lower bound lie at or below its
    upper one; a row or column bound may be infinite. The session keeps the
    checked arrays and passes them to HiGHS once on construction, which
    raises if HiGHS refuses them; each ``solve`` changes only the costs and
    the objective sense. With a ``basis``, a ``HighsBasis``, every solve
    starts the simplex from it. Without one, or where HiGHS refuses it, each
    solve starts from no basis, so HiGHS presolves it afresh. Either way no
    solve depends on the ones before it. Each solve is one run that reports
    its end (optimal, infeasible, unbounded, or failed for any other, such
    as an iteration limit) and its simplex iterations, and is never solved
    again. A session owns no HiGHS model, so any thread may run it, on that
    thread's instance (``_highs``); HiGHS runs outside the interpreter lock,
    so sessions on several threads solve in parallel.
    """

    def __init__(self, rows, row_lower, row_upper, lower, upper, basis=None):
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
        self._model = (
            n, m, lower, upper, row_lower, row_upper,
            np.ascontiguousarray(indptr, dtype=np.int32),
            np.ascontiguousarray(indices, dtype=np.int32),
            np.ascontiguousarray(values, dtype=np.float64),
        )
        self._basis = basis
        self._highs()

    def _highs(self):
        """The calling thread's HiGHS instance, holding this session's model.

        The thread's instance is made on its first use. Where it last held
        another session's model, its options are reset, its output is turned
        off and this model is passed in, so what an earlier session set on
        it does not carry over.
        """
        highs = getattr(_thread, "highs", None)
        if highs is None:
            highs = _thread.highs = _bindings()._Highs()
            _thread.held = None
        if _thread.held is not self:
            core = _bindings()
            _thread.held = None
            highs.resetOptions()
            highs.setOptionValue("output_flag", False)
            n, m, lower, upper, row_lower, row_upper, indptr, indices, values = self._model
            status = highs.passModel(
                n, m, indices.size, int(core.MatrixFormat.kRowwise), int(core.ObjSense.kMinimize),
                0.0, np.zeros(n), lower, upper, row_lower, row_upper, indptr, indices, values,
                np.zeros(n, dtype=np.int32),
            )
            if status == core.HighsStatus.kError:
                raise ValueError("HiGHS refused the model")
            _thread.held = self
        return highs

    def solve(self, c, sense: str = "minimize") -> LpSolution:
        """One run for costs c, however it ends."""
        return _run(self._highs(), c, sense, self._basis)
