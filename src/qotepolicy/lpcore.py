"""The package's one linear-program backend: HiGHS (Huangfu & Hall, Math.
Prog. Comp. 2018), through the bindings scipy (1.15 or later) bundles as
``scipy.optimize._highspy._core``.

``_model`` builds every HiGHS model the package solves, and ``_run`` runs
every one of them. ``solve_lp`` is one run on a fresh model of its
``LinearProgram``, from no basis, so HiGHS presolves it. An ``LpSession``
serves a run of programs that differ only in their costs: one model built
once and run once per cost change, each time from the same given start
basis or from no basis. A run reports how it ended and is never solved
again. Constraint matrices may be dense arrays or scipy.sparse matrices;
sparse ones stay sparse, and every model gets its rows as one CSR matrix.

Importing the module loads neither scipy.sparse nor the bindings, so the
package's LP-free paths run without them. scipy.sparse loads where a
``LinearProgram`` is built, and the bindings where they are first used,
through the cached loader ``_bindings``; without them that first use raises
an ImportError naming scipy>=1.15.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LinearProgram", "LpSession", "LpSolution", "solve_lp"]


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
class LinearProgram:
    """min (or max) c.x subject to A_eq x = b_eq, A_le x <= b_le, bounds on x.

    Default variable bounds are [0, +inf). ``lower`` may contain -inf and
    ``upper`` +inf entries.
    """

    c: np.ndarray
    sense: str = "minimize"
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    A_le: Optional[np.ndarray] = None
    b_le: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        import scipy.sparse as sp  # here, so that importing the package skips scipy.sparse

        self.c = np.asarray(self.c, dtype=float)
        if self.sense not in ("minimize", "maximize"):
            raise ValueError("sense must be minimize or maximize")
        n = self.c.size
        for aname, bname in (("A_eq", "b_eq"), ("A_le", "b_le")):
            a, b = getattr(self, aname), getattr(self, bname)
            if (a is None) != (b is None):
                raise ValueError(f"{aname} and {bname} must be given together")
            if a is None:
                continue
            if not sp.issparse(a):
                a = np.atleast_2d(np.asarray(a, dtype=float))
            if a.shape[1] != n:
                raise ValueError(f"{aname} has wrong number of columns")
            b = np.asarray(b, dtype=float).ravel()
            if b.size != a.shape[0]:
                raise ValueError(f"{bname} has wrong length")
            setattr(self, aname, a)
            setattr(self, bname, b)
        self.lower = (
            np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float)
        )
        self.upper = (
            np.full(n, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=float)
        )
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bounds have wrong length")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        for arr in (self.c, self.A_eq, self.A_le, self.b_eq, self.b_le):
            if arr is None:
                continue
            values = arr.data if sp.issparse(arr) else arr
            if not np.all(np.isfinite(values)):
                raise ValueError("coefficients must be finite")


@dataclass
class LpSolution:
    """Solver result: status in {optimal, infeasible, unbounded, failed}."""

    status: str
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0
    message: str = ""


def _model(p: LinearProgram):
    """A HiGHS model of p, its rows passed row-wise as one CSR matrix.

    The rows are A_le's, then A_eq's as row_lower == row_upper. A program
    whose only rows are a CSR A_le passes that matrix as it is.
    """
    core = _bindings()
    n = p.c.size
    b_le, b_eq = (np.zeros(0) if b is None else b for b in (p.b_le, p.b_eq))
    if p.A_eq is None and getattr(p.A_le, "format", None) == "csr":
        a = p.A_le
    else:
        import scipy.sparse as sp  # here, so that importing the package skips scipy.sparse

        given = [sp.csr_matrix(m) for m in (p.A_le, p.A_eq) if m is not None]
        a = sp.vstack(given, format="csr") if given else sp.csr_matrix((0, n))
    row_lower = np.concatenate([np.full(b_le.size, -np.inf), b_eq])
    row_upper = np.concatenate([b_le, b_eq])
    lp = core.HighsLp()
    lp.num_col_, lp.num_row_ = n, a.shape[0]
    lp.col_cost_ = p.c
    lp.col_lower_, lp.col_upper_ = p.lower, p.upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    m = lp.a_matrix_
    m.format_ = core.MatrixFormat.kRowwise
    m.num_col_, m.num_row_ = n, a.shape[0]
    m.start_, m.index_, m.value_ = a.indptr, a.indices, a.data
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.passModel(lp) == core.HighsStatus.kError:
        raise ValueError("HiGHS refused the model")
    return highs


def _run(highs, c, sense: str, basis) -> LpSolution:
    """One run of a model for costs c, from ``basis`` or, if None or refused, from none.

    It ends optimal, infeasible, unbounded, or failed for any other HiGHS
    model status (iteration limit, numerical trouble).
    """
    core = _bindings()
    highs.changeObjectiveSense(
        core.ObjSense.kMinimize if sense == "minimize" else core.ObjSense.kMaximize
    )
    highs.changeColsCost(c.size, np.arange(c.size, dtype=np.int32), c)
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """One run on a fresh HiGHS model of lp, from no basis."""
    return _run(_model(lp), lp.c, lp.sense, None)


class LpSession:
    """min or max c.x s.t. A_le x <= b_le, lower <= x <= upper, for many c.

    One HiGHS model is built from the constraints and bounds once; each
    ``solve`` changes only the costs and the objective sense. With a
    ``start_basis`` (col_basic, row_basic), two boolean masks, every solve
    starts the simplex from that basis: nonbasic columns at their lower
    bound, nonbasic rows tight at b_le. Without one, or where HiGHS refuses
    it, each solve starts from no basis, so HiGHS presolves it afresh. Either
    way no solve depends on the ones before it. Each solve is one run that
    reports its end (optimal, infeasible, unbounded, or failed for any other,
    such as an iteration limit) and its simplex iterations, and is never
    solved again. A session holds one HiGHS model, so use one session per
    thread; HiGHS runs outside the interpreter lock, so sessions on several
    threads solve in parallel.
    """

    def __init__(self, A_le, b_le, lower, upper, start_basis=None):
        self._highs = _model(
            LinearProgram(
                c=np.zeros(np.shape(lower)[0]), A_le=A_le, b_le=b_le, lower=lower, upper=upper
            )
        )
        self._basis = None
        if start_basis is not None:
            col_basic, row_basic = start_basis
            core = _bindings()
            s = core.HighsBasisStatus
            self._basis = core.HighsBasis()
            self._basis.col_status = [s.kBasic if b else s.kLower for b in col_basic]
            self._basis.row_status = [s.kBasic if b else s.kUpper for b in row_basic]
            self._basis.valid, self._basis.alien = True, False

    def solve(self, c, sense: str = "minimize") -> LpSolution:
        """One run for costs c, however it ends."""
        return _run(self._highs, np.asarray(c, dtype=float), sense, self._basis)
