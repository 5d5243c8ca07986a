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
sparse ones stay sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

try:
    import scipy.optimize._highspy._core as _highs
except ImportError as exc:
    raise ImportError(
        "qotepolicy needs scipy>=1.15, whose HiGHS bindings "
        "scipy.optimize._highspy._core solve every linear program"
    ) from exc

__all__ = ["LinearProgram", "LpSession", "LpSolution", "solve_lp"]

# HiGHS model statuses; anything else (iteration limit, numerical trouble)
# is reported as "failed"
_STATUS = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}
_SENSE = {"minimize": _highs.ObjSense.kMinimize, "maximize": _highs.ObjSense.kMaximize}


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


def _model(p: LinearProgram):
    """A HiGHS model of p: its A_le rows, then its A_eq rows as row_lower == row_upper."""
    n = p.c.size
    rows = [(np.zeros((0, n)), np.zeros(0), np.zeros(0))]  # so a program without rows stacks
    if p.A_le is not None:
        rows.append((p.A_le, np.full(p.b_le.size, -np.inf), p.b_le))
    if p.A_eq is not None:
        rows.append((p.A_eq, p.b_eq, p.b_eq))
    a = sp.vstack([sp.csc_matrix(r[0]) for r in rows], format="csc")
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, a.shape[0]
    lp.col_cost_ = p.c
    lp.col_lower_, lp.col_upper_ = p.lower, p.upper
    lp.row_lower_ = np.concatenate([r[1] for r in rows])
    lp.row_upper_ = np.concatenate([r[2] for r in rows])
    m = lp.a_matrix_
    m.format_ = _highs.MatrixFormat.kColwise
    m.num_col_, m.num_row_ = n, a.shape[0]
    m.start_, m.index_, m.value_ = a.indptr, a.indices, a.data
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise ValueError("HiGHS refused the model")
    return highs


def _run(highs, c, sense: str, basis) -> LpSolution:
    """One run of a model for costs c, from ``basis`` or, if None or refused, from none."""
    highs.changeObjectiveSense(_SENSE[sense])
    highs.changeColsCost(c.size, np.arange(c.size, dtype=np.int32), c)
    highs.clearSolver()  # nothing an earlier run left carries over
    if basis is not None:
        highs.setBasis(basis)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    end = _STATUS.get(status, "failed")
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
            s = _highs.HighsBasisStatus
            self._basis = _highs.HighsBasis()
            self._basis.col_status = [s.kBasic if b else s.kLower for b in col_basic]
            self._basis.row_status = [s.kBasic if b else s.kUpper for b in row_basic]
            self._basis.valid, self._basis.alien = True, False

    def solve(self, c, sense: str = "minimize") -> LpSolution:
        """One run for costs c, however it ends."""
        return _run(self._highs, np.asarray(c, dtype=float), sense, self._basis)
