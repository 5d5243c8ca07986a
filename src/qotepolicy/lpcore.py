"""The package's one linear-program backend: HiGHS (Huangfu & Hall, Math.
Prog. Comp. 2018), as bundled with scipy.

One-shot programs (the Bernstein coefficient program, the Charnes-Cooper
functionals, every cold fallback) go through ``solve_lp``, a single
``linprog`` call. Per-t loops, runs of programs that differ only in their
costs, go through an ``LpSession``: one HiGHS model built once through
scipy's private bindings and run once per cost change, each time from the
same given start basis or from no basis. A run reports how it ended and is
never solved again; only where those bindings are missing does the session
hand each program to ``solve_lp``. Constraint matrices may be dense arrays
or scipy.sparse matrices; sparse ones stay sparse.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog as _linprog

__all__ = ["LinearProgram", "LpSession", "LpSolution", "solve_lp"]

# linprog status codes and HiGHS model statuses; anything else (iteration
# limit, numerical trouble) is reported as "failed"
_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
_MODEL_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded"}


def _matrix(a, n: int, name: str):
    if not sp.issparse(a):
        a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != n:
        raise ValueError(f"{name} has wrong number of columns")
    return a


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
            a = _matrix(a, n, aname)
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a linear program with HiGHS; maximization by a sign flip."""
    flip = -1.0 if lp.sense == "maximize" else 1.0
    res = _linprog(
        flip * lp.c,
        A_ub=lp.A_le,
        b_ub=lp.b_le,
        A_eq=lp.A_eq,
        b_eq=lp.b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
    )
    optimal = res.status == 0
    return LpSolution(
        status=_STATUS.get(res.status, "failed"),
        x=res.x if optimal else None,
        objective=flip * res.fun if optimal else None,
        iterations=int(res.nit),
        message=res.message,
    )


def _highs_core():
    """scipy's bundled HiGHS bindings (private), or None where scipy lacks them."""
    try:
        return importlib.import_module("scipy.optimize._highspy._core")
    except ImportError:
        return None


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
    solved again; only without scipy's private HiGHS bindings does it go to
    ``solve_lp`` instead.
    """

    def __init__(self, A_le, b_le, lower, upper, start_basis=None):
        self._program = LinearProgram(
            c=np.zeros(np.shape(lower)[0]), A_le=A_le, b_le=b_le, lower=lower, upper=upper
        )
        self._core = _highs_core()
        self._highs = None if self._core is None else self._model()
        self._basis = None
        if self._highs is not None and start_basis is not None:
            self._basis = self._highs_basis(*start_basis)

    def _model(self):
        h, p = self._core, self._program
        a = sp.csc_matrix(p.A_le)
        lp = h.HighsLp()
        lp.num_col_, lp.num_row_ = a.shape[1], a.shape[0]
        lp.col_cost_ = p.c
        lp.col_lower_, lp.col_upper_ = p.lower, p.upper
        lp.row_lower_ = np.full(a.shape[0], -np.inf)
        lp.row_upper_ = p.b_le
        m = lp.a_matrix_
        m.format_ = h.MatrixFormat.kColwise
        m.num_col_, m.num_row_ = a.shape[1], a.shape[0]
        m.start_, m.index_, m.value_ = a.indptr, a.indices, a.data
        highs = h._Highs()
        highs.setOptionValue("output_flag", False)
        if highs.passModel(lp) == h.HighsStatus.kError:
            return None
        return highs

    def _highs_basis(self, col_basic, row_basic):
        s = self._core.HighsBasisStatus
        basis = self._core.HighsBasis()
        basis.col_status = [s.kBasic if b else s.kLower for b in col_basic]
        basis.row_status = [s.kBasic if b else s.kUpper for b in row_basic]
        basis.valid, basis.alien = True, False
        return basis

    def solve(self, c, sense: str = "minimize") -> LpSolution:
        """One run for costs c, however it ends; solve_lp only without the bindings."""
        c = np.asarray(c, dtype=float)
        if self._highs is None:
            return solve_lp(replace(self._program, c=c, sense=sense))
        h, highs = self._core, self._highs
        highs.changeObjectiveSense(
            h.ObjSense.kMaximize if sense == "maximize" else h.ObjSense.kMinimize
        )
        highs.changeColsCost(c.size, np.arange(c.size, dtype=np.int32), c)
        highs.clearSolver()  # nothing the last solve left carries over
        if self._basis is not None:
            highs.setBasis(self._basis)  # where refused, the run starts from no basis
        highs.run()
        status = highs.getModelStatus()
        info = highs.getInfo()
        end = _MODEL_STATUS.get(status.name, "failed")
        optimal = end == "optimal"
        return LpSolution(
            status=end,
            x=np.array(highs.getSolution().col_value) if optimal else None,
            objective=float(info.objective_function_value) if optimal else None,
            iterations=int(info.simplex_iteration_count),
            message=highs.modelStatusToString(status),
        )
