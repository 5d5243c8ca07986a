"""The package's one linear-program backend.

Every LP the package solves (coupling and copula programs, Bernstein
coefficient programs, Charnes-Cooper functionals) goes through ``solve_lp``,
which hands the program to scipy's HiGHS interface (Huangfu & Hall, Math.
Prog. Comp. 2018) in a single ``linprog`` call. Constraint matrices may be
dense arrays or scipy.sparse matrices; sparse ones stay sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog as _linprog

__all__ = ["LinearProgram", "LpSolution", "solve_lp"]

# linprog status codes; anything else (iteration limit, numerical trouble)
# is reported as "failed"
_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


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
