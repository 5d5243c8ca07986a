"""Identified intervals for quantiles of treatment effects.

The treatment-effect distribution P(Y1 - Y0 <= t) is only partially identified
by the two marginal outcome distributions. This module computes sharp lower
and upper envelopes of that CDF over all couplings of the marginals, with
optional shape restrictions on the coupling (stochastic increasingness or
positive quadrant dependence), and inverts the envelopes into quantile bounds.

The unrestricted problem has a closed-form solution on the quantile grid.
Every other program is a linear program over one grid-copula program in
CDF coordinates: the SI/PQD envelopes, the Bernstein relaxation, and the
Charnes-Cooper programs of the conditional-mean functionals, whose cell
masses are second differences of the copula. ``_CopulaProgram.bound`` finds
every value of a copula program: one run on an ``lpcore.LpSession`` of the
program without its checked rows (SI's 2-increasing rows), certified against
them, or else one cold solve of the full program (``lpcore.solve_lp``, a run
on a fresh HiGHS model built the same way), the only fallback, which raises
LpSolveError, a RuntimeError naming t, the assumption tag and the grid size,
if it does not end optimal. Dense envelopes, lazy inversion, Bernstein
envelopes and the probes of ``sim`` all read one ``_Envelopes`` oracle per
(curves or linear form, tag, t grid), which holds one session, finds each
(side, t) at most once and inverts by one bisection. Every SI and PQD run
starts from the basis of the independence copula, a vertex of both
programs, so no value depends on the order of the solves.
An envelope reaches tau when its value is at least tau - 1e-12, so dense and
lazy inversion agree where an envelope is flat at tau up to rounding. SI and
PQD envelopes of two grids have closed-form brackets from the staircase and
the comonotone and independent couplings. Where a side's brackets meet, its
value is exactly theirs and no LP runs, on the dense and the lazy path alike;
lazy probes also settle from them where they clear tau, and solve only where
the brackets leave the answer open. A dense pass finds the values the brackets
leave open on up to one session per usable CPU, the calling thread on the
oracle's own, and keeps them in the order a serial pass would: HiGHS runs
outside the interpreter lock, and since every run starts from the same basis,
no value depends on the session or the thread that found it.
"""

from __future__ import annotations

import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.stats import binom as _binom

from .lpcore import LinearProgram, LpSession, LpSolution, solve_lp
from .marginals import QuantileCurve, u_grid

__all__ = [
    "AssumptionSet",
    "Coupling",
    "DeltaCdfBounds",
    "QoteBounds",
    "BernsteinCoefs",
    "Interval",
    "LpSolveError",
    "CVaR",
    "DisadvantagedGain",
    "makarov_bounds",
    "coupling_lp_bounds",
    "bernstein_lp_bounds",
    "bernstein_optimal_coefs",
    "invert_bounds",
    "rank_invariance_qote",
    "functional_bounds",
    "qote_coupling_bounds",
    "default_t_grid",
    "delta_bounds_to_csv",
]

DEFAULT_K = 50
DEFAULT_T_POINTS = 201

_VALID_TAGS = ("NoAssumption", "SI", "PQD", "RankInvariance", "Symmetry")
_UNSUPPORTED_TAGS = ("SD", "DC", "RY", "RY2")
# assumption tag -> copula-program tag, for the assumptions an LP can impose
_PROGRAM_TAGS = {"NoAssumption": "none", "SI": "SI", "PQD": "PQD"}

# LP masses on a flat stretch of an envelope sit within rounding of tau
_TAU_TOL = 1e-12
# a relaxed solution certifies the full program when no checked row is
# violated by more than this
_CERT_TOL = 1e-9


def _usable_cpus() -> int:
    """The CPUs this process may run on: a dense pass runs at most one session on each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _checked_t_grid(t_grid) -> np.ndarray:
    """A t grid as a float array: 1-d, non-empty, finite, strictly increasing."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"t_grid must be 1-d, got shape {t.shape}")
    if t.size == 0:
        raise ValueError("t_grid must not be empty")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid values must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    return t


@dataclass(frozen=True)
class AssumptionSet:
    """Identifying assumption on the (Y1, Y0) coupling; exactly one tag."""

    tag: str = "NoAssumption"

    def __post_init__(self):
        if self.tag in _UNSUPPORTED_TAGS:
            raise ValueError(f"assumption {self.tag} not supported")
        if self.tag not in _VALID_TAGS:
            raise ValueError(f"unknown assumption tag {self.tag!r}")


@dataclass(frozen=True)
class Coupling:
    """Discrete coupling of two uniform-atom marginals: k x k mass matrix."""

    k: int
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        if c.shape != (self.k, self.k):
            raise ValueError("coupling matrix must be k x k")
        if np.any(c < -1e-10):
            raise ValueError("coupling entries must be nonnegative")
        target = 1.0 / self.k
        if np.max(np.abs(c.sum(axis=1) - target)) > 1e-8:
            raise ValueError("row sums must equal 1/k")
        if np.max(np.abs(c.sum(axis=0) - target)) > 1e-8:
            raise ValueError("column sums must equal 1/k")


@dataclass(frozen=True)
class DeltaCdfBounds:
    """Pointwise envelopes of P(Delta <= t) on a t grid: lower <= upper."""

    t_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        t = _checked_t_grid(self.t_grid)
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if not t.shape == lo.shape == up.shape:
            raise ValueError("t_grid, lower, upper must be 1-d of equal length")
        for name, v in (("lower", lo), ("upper", up)):
            if not np.all((v >= -1e-9) & (v <= 1 + 1e-9)):
                raise ValueError(f"{name} envelope must lie in [0, 1]")
            if np.any(np.diff(v) < -1e-9):
                raise ValueError(f"{name} envelope must be nondecreasing")
        if np.any(lo > up + 1e-9):
            raise ValueError("lower envelope must not exceed upper envelope")


@dataclass(frozen=True)
class QoteBounds:
    """Identified interval [lower, upper] for a treatment-effect quantile."""

    lower: float
    upper: float
    truncated_lower: bool = False
    truncated_upper: bool = False

    def __post_init__(self):
        if not self.lower <= self.upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class BernsteinCoefs:
    """Copula values on the (v1/m1, v2/m2) grid defining a Bernstein copula."""

    m1: int
    m2: int
    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", b)
        if b.shape != (self.m1 + 1, self.m2 + 1):
            raise ValueError("beta must be (m1+1) x (m2+1)")
        tol = 1e-8
        if np.max(np.abs(b[0, :])) > tol or np.max(np.abs(b[:, 0])) > tol:
            raise ValueError("boundary condition beta(0,.) = beta(.,0) = 0 violated")
        v2 = np.arange(self.m2 + 1) / self.m2
        v1 = np.arange(self.m1 + 1) / self.m1
        if np.max(np.abs(b[-1, :] - v2)) > tol or np.max(np.abs(b[:, -1] - v1)) > tol:
            raise ValueError("boundary condition beta(1,v) = v violated")
        d2 = b[1:, 1:] - b[1:, :-1] - b[:-1, 1:] + b[:-1, :-1]
        if np.min(d2) < -tol:
            raise ValueError("second-order differences must be nonnegative")


class Interval(NamedTuple):
    """Closed interval of feasible values for a coupling functional."""

    lower: float
    upper: float


@dataclass(frozen=True)
class CVaR:
    """Functional E[Delta | Delta < threshold]."""

    threshold: float


@dataclass(frozen=True)
class DisadvantagedGain:
    """Functional E[Y1 - Y0 | Y0 < threshold]."""

    threshold: float


# ---------------------------------------------------------------------------
# curve plumbing


def _curve_values(q: QuantileCurve, probs: np.ndarray) -> np.ndarray:
    """Evaluate a grid curve at probabilities: smallest grid u >= p, else last."""
    idx = np.searchsorted(q.u_grid, np.asarray(probs, dtype=float) - 1e-12, side="left")
    return q.values[np.clip(idx, 0, q.u_grid.size - 1)]


def _curves_on_common_grid(q1: QuantileCurve, q0: QuantileCurve, k: Optional[int]):
    if k is None:
        if q1.u_grid.size != q0.u_grid.size:
            raise ValueError("curves must share grid resolution (or pass k)")
        k = q1.u_grid.size
    r = u_grid(k)
    return _curve_values(q1, r), _curve_values(q0, r), k


def default_t_grid(v1: np.ndarray, v0: np.ndarray, points: int = DEFAULT_T_POINTS) -> np.ndarray:
    """Equally spaced t values spanning the achievable grid differences."""
    if points < 1:
        raise ValueError(f"a t grid needs at least one point, got {points}")
    lo = float(np.min(v1) - np.max(v0))
    hi = float(np.max(v1) - np.min(v0))
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, points)


def _assemble_envelopes(t_grid, lower, upper) -> DeltaCdfBounds:
    """Clip and monotonize LP-produced envelopes (cumulative max in t)."""
    lo = np.maximum.accumulate(np.clip(lower, 0.0, 1.0))
    up = np.maximum.accumulate(np.clip(upper, 0.0, 1.0))
    up = np.maximum(up, lo)
    return DeltaCdfBounds(t_grid, lo, up)


# ---------------------------------------------------------------------------
# the unrestricted problem: closed form on the grid


def _pairs_above(v1, v0, t_grid):
    """counts[i, n] = #{j : v1[i] - v0[j] > t_grid[n]} for an increasing grid.

    Each difference is compared with t as it is computed. Locating v1[i] - t
    among v0 instead rounds v1[i] - t first, which can misplace a pair whose
    difference equals t; the ends of the default t grid are such differences.
    """
    t = np.atleast_1d(np.asarray(t_grid, float))
    k = v1.size
    # t[n] < v1[i] - v0[j]  iff  n < pos[i, j]
    pos = np.searchsorted(t, v1[:, None] - v0[None, :], side="left")
    hits = np.bincount(
        (np.arange(k)[:, None] * (t.size + 1) + pos).ravel(),
        minlength=k * (t.size + 1),
    ).reshape(k, t.size + 1)
    return v0.size - np.cumsum(hits, axis=1)[:, : t.size]


def _staircase_envelopes(v1, v0, t_grid):
    """Exact lower/upper envelopes of the coupling LP without shape constraints.

    With both marginals uniform on k sorted atoms, min/max of
    sum 1{q1_i - q0_j <= t} c(i,j) over couplings reduce to order statistics
    of the cross differences: with b_i(t) pairs of row i above t, the lower
    envelope is max_i (i - b_i)/k and the upper one (k - 1 + min_i (i - b_i))/k.
    """
    v1 = np.asarray(v1, float)
    v0 = np.asarray(v0, float)
    k = v1.size
    g = np.arange(1, k + 1)[:, None] - _pairs_above(v1, v0, t_grid)
    f_lower = np.clip(g.max(axis=0), 0, k) / k
    f_upper = np.clip(k - 1 + g.min(axis=0), 0, k) / k
    return f_lower, f_upper


def _coupling_brackets(v1, v0, t_grid):
    """{side: (floor, ceiling)} of the SI and PQD envelopes at every t.

    The comonotone copula min(i,j)/k and the independence copula ij/k^2 are
    feasible in every copula program, so the lower envelope lies between the
    staircase's and the smaller of their masses, and the upper envelope
    between the larger of their masses and the staircase's.
    """
    k = v1.size
    none_l, none_u = _staircase_envelopes(v1, v0, t_grid)
    comonotone = np.count_nonzero((v1 - v0)[:, None] <= t_grid[None, :], axis=0) / k
    independent = 1.0 - _pairs_above(v1, v0, t_grid).sum(axis=0) / (k * k)
    return {
        "min": (none_l, np.minimum(comonotone, independent)),
        "max": (np.maximum(comonotone, independent), none_u),
    }


def _staircase_qote(v1, v0, tau):
    """Exact quantile-scale optimum of the unrestricted coupling program."""
    k = v1.size
    m = int(np.ceil(k * tau - 1e-12))
    m = min(max(m, 1), k)
    lower = float(np.max(v1[:m] - v0[k - m :]))
    upper = float(np.min(v1[m - 1 :] - v0[: k - m + 1]))
    return lower, upper


def makarov_bounds(q1: QuantileCurve, q0: QuantileCurve, tau: float) -> QoteBounds:
    """Sharp grid version of the marginal-only quantile bounds.

    lower = max over grid u in (0, tau] of Q_u(Y1) - Q_{1+u-tau}(Y0) and
    upper = min over grid u in [tau, 1) of Q_u(Y1) - Q_{u-tau}(Y0), with
    partner probabilities evaluated by the generalized-inverse conventions
    under which the grid bounds coincide with the exact optimum of the
    discretized coupling program (see the no-assumption LP equivalence tests).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if q1.u_grid.size != q0.u_grid.size:
        raise ValueError("curves share grid resolution")
    v1, v0, k = _curves_on_common_grid(q1, q0, None)
    half = 1.0 / (2 * k)
    if tau < half - 1e-12 or tau > 1 - half + 1e-12:
        raise ValueError("no grid point in range (k too small)")
    lower, upper = _staircase_qote(v1, v0, tau)
    return QoteBounds(lower, upper)


# ---------------------------------------------------------------------------
# the grid-copula program


def _difference_operators(m: int):
    """(D, L, E) on x[0..m]: rows x[r+1] - x[r], x[r] - 2 x[r+1] + x[r+2], x[r+1]."""
    return (
        sp.diags([-1.0, 1.0], [0, 1], shape=(m, m + 1)),
        sp.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(m - 1, m + 1)),
        sp.eye(m - 1, m + 1, k=1),
    )


_SENSES = {"min": "minimize", "max": "maximize"}


class LpSolveError(RuntimeError):
    """An LP that did not end optimal, with the t, tag and k it was solved at."""

    def __init__(self, sol: LpSolution, t, tag, k):
        super().__init__(
            f"LP {sol.status} at t={t!r} (tag {tag}, k={k}): {sol.message}"
        )
        self.t, self.tag, self.k = t, tag, k


def _solve(lp: LinearProgram, t, tag, k) -> LpSolution:
    """Solve one program; anything but an optimal end raises LpSolveError."""
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise LpSolveError(sol, t, tag, k)
    return sol


class _CopulaProgram:
    """LP over discrete copulas on the (i/m1, j/m2) grid in CDF coordinates.

    Variables are S(i,j), the copula at interior grid points i in 1..m1-1,
    j in 1..m2-1, in row-major order. Every row is a difference operator on
    the full (m1+1) x (m2+1) grid; ``fold`` keeps its interior part and
    moves the boundary values S(0,.) = S(.,0) = 0, S(m1,j) = j/m2,
    S(i,m2) = i/m1 to the right-hand side. ``linear_form`` and the Bernstein
    objective fold their coefficients the same way. The rows, with D the
    first difference, L the second difference and E the selection of the
    interior along one axis:

    - 2-increasingness, -kron(D, D) S <= 0: every cell mass
      S(i,j) - S(i-1,j) - S(i,j-1) + S(i-1,j-1), row-major, is nonnegative;
    - SI only, coordinatewise concavity (equivalent to the partial-sum
      monotonicity of conditional survival functions): kron(E, L) S <= 0
      and kron(L, E) S <= 0, interleaved per interior (i, j), j-direction
      first.

    Positive quadrant dependence ("PQD") is a plain variable lower bound
    S(i,j) >= ij/(m1 m2); "none" adds nothing. With m1 = m2 = k, S is the
    CDF of a k x k coupling with uniform marginals; with degrees (m1, m2) it
    holds Bernstein copula coefficients. Degree 1 leaves no variable and so
    no row.

    ``bound`` finds every value of the program, by runs on a ``session()``:
    a HiGHS model without the rows in ``checked_rows`` (SI's 2-increasing
    family) that starts each run from ``start_basis`` (col_basic, row_basic,
    over the session's rows), the basis of the independence copula
    ij/(m1 m2); "none" has none and presolves each run.
    """

    def __init__(self, m1: int, m2: int, tag: str):
        if tag not in ("none", "SI", "PQD"):
            raise ValueError("copula program tag must be none, SI or PQD")
        self.m1, self.m2, self.tag = m1, m2, tag
        self.k = m1 if m1 == m2 else (m1, m2)
        n2 = m2 - 1
        self.nvar = (m1 - 1) * n2
        grid = np.arange((m1 + 1) * (m2 + 1)).reshape(m1 + 1, m2 + 1)
        self._inner, self._top, self._right = grid[1:m1, 1:m2].ravel(), grid[m1], grid[:m1, m2]

        # each row of g is a quantity the program keeps nonnegative: the cell
        # masses, then for SI minus the second differences
        (d1, l1, e1), (d2, l2, e2) = _difference_operators(m1), _difference_operators(m2)
        g = sp.kron(d1, d2, format="csr")
        if not self.nvar:
            g = g[:0]
        self.checked_rows = slice(0, g.shape[0] if tag == "SI" else 0)
        if tag == "SI":
            concave = sp.vstack(
                [sp.kron(e1, l2, format="csr"), sp.kron(l1, e2, format="csr")], format="csr"
            )
            pairs = np.arange(2 * self.nvar).reshape(2, -1).T.ravel()
            g = sp.vstack([g, -concave[pairs]], format="csr")
        # g S >= 0 over the full grid is -g_inner x <= (g's boundary constant)
        g_inner, self.b_le = self.fold(g)
        self.a_le = -g_inner
        self._checked = self.a_le[self.checked_rows], self.b_le[self.checked_rows]

        ii, jj = np.divmod(np.arange(self.nvar), max(n2, 1))
        i_idx, j_idx = ii + 1, jj + 1
        self.ub = np.minimum(i_idx / m1, j_idx / m2)
        if tag == "PQD":
            self.lb = (i_idx * j_idx) / float(m1 * m2)
        else:
            self.lb = np.zeros(self.nvar)
        # the independence copula ij/(m1 m2) is a vertex of both restricted
        # programs. SI: every S(i,j) strictly inside its bounds and basic, the
        # j-direction concavity rows (tight, one nonsingular second-difference
        # block per i) nonbasic, the i-direction ones (tight too) basic. PQD:
        # every S(i,j) at its lower bound, every 2-increasing row slack.
        if tag == "SI":
            self.start_basis = (np.ones(self.nvar, bool), np.tile([False, True], self.nvar))
        elif tag == "PQD":
            self.start_basis = (np.zeros(self.nvar, bool), np.ones(self.b_le.size, bool))
        else:
            self.start_basis = None

    def fold(self, coefs):
        """(interior coefficients, boundary constant) of coefs . S on the full grid.

        The last axis of ``coefs`` (an array or a sparse matrix of rows) runs
        over S(a, b), a in 0..m1, b in 0..m2, in row-major order. The constant
        sums the coefficients of the top edge S(m1, b) = b/m2 and then of the
        right edge S(a, m2) = a/m1, a < m1; S(0, .) = S(., 0) = 0 adds nothing.
        Summed edge by edge, the constant of each program row is rounded at
        most once.
        """
        m1, m2 = self.m1, self.m2
        top = coefs[..., self._top] @ (np.arange(m2 + 1) / m2)
        return coefs[..., self._inner], top + coefs[..., self._right] @ (np.arange(m1) / m1)

    def solve(self, coefs, sense, t) -> LpSolution:
        """min or max of coefs . S over the feasible S."""
        lp = LinearProgram(
            c=coefs,
            sense=_SENSES[sense],
            A_le=self.a_le,
            b_le=self.b_le,
            lower=self.lb,
            upper=self.ub,
        )
        return _solve(lp, t, self.tag, self.k)

    def session(self) -> LpSession:
        """A HiGHS session of the program without its checked rows."""
        kept = slice(self.checked_rows.stop, None)
        return LpSession(self.a_le[kept], self.b_le[kept], self.lb, self.ub, self.start_basis)

    def bound(self, coefs, const, sense, t, session: LpSession):
        """(value, runs): one side of const + coefs . S, a probability, over the feasible S.

        Zero costs give const in [0, 1] and no run. Else one run on ``session``,
        whose optimum stands within 1e-9 of every checked row (the full program
        is feasible there); any other end adds one cold ``solve``, run last.
        """
        if not np.any(coefs):
            return min(max(const, 0.0), 1.0), ()
        run = session.solve(coefs, _SENSES[sense])
        a, b = self._checked
        if run.status == "optimal" and np.all(a @ run.x <= b + _CERT_TOL):
            return const + run.objective, (run,)
        cold = self.solve(coefs, sense, t)
        return const + cold.objective, (run, cold)

    def objective(self, v1, v0, t):
        """Linear form (coefs, const) with const + coefs . S = P(Delta <= t)."""
        # not ``fold``: its sum order moves const by up to 6.7e-16, and so envelope bytes
        k, kk = self.m1, self.m1 - 1
        b = _pairs_above(v1, v0, t)[:, 0]
        coefs = np.zeros(self.nvar)
        const = 1.0
        for i in range(1, k + 1):
            bi = int(b[i - 1])
            if bi == 0:
                continue
            if bi == k:
                const -= 1.0 / k
                continue
            if i <= kk:
                coefs[(i - 1) * kk + (bi - 1)] -= 1.0
            else:
                const -= bi / k
            if i >= 2:
                coefs[(i - 2) * kk + (bi - 1)] += 1.0
        return coefs, const

    def linear_form(self, weight):
        """Linear form (coefs, const) with const + coefs . S = sum weight * c.

        ``weight`` is (m1, m2) over the cell masses c(i,j) = S(i,j) - S(i-1,j)
        - S(i,j-1) + S(i-1,j-1); boundary values of S are folded into const.
        """
        w = np.zeros((self.m1 + 2, self.m2 + 2))
        w[1:-1, 1:-1] = weight
        # d[a, b] is the coefficient of S(a, b), a in 0..m1, b in 0..m2
        d = w[:-1, :-1] - w[1:, :-1] - w[:-1, 1:] + w[1:, 1:]
        coefs, const = self.fold(d.ravel())
        return coefs, float(const)

    def full_beta(self, x) -> np.ndarray:
        """The (m1+1) x (m2+1) copula values with boundaries, from interior x."""
        m1, m2 = self.m1, self.m2
        beta = np.zeros((m1 + 1, m2 + 1))
        beta[m1, :] = np.arange(m2 + 1) / m2
        beta[:, m2] = np.arange(m1 + 1) / m1
        if self.nvar:
            beta[1:m1, 1:m2] = np.asarray(x).reshape(m1 - 1, m2 - 1)
        return beta


@functools.lru_cache(maxsize=32)
def _copula_program(m1: int, m2: int, tag: str) -> _CopulaProgram:
    return _CopulaProgram(m1, m2, tag)


def _program_tag(assumptions: AssumptionSet) -> str:
    """The copula-program tag of an assumption set the coupling LP can impose."""
    tag = _PROGRAM_TAGS.get(assumptions.tag)
    if tag is None:
        raise ValueError(f"assumption {assumptions.tag} not supported for the coupling LP")
    return tag


class _Envelopes:
    """min and max of P(Delta <= t) on one t grid, each value found once.

    Side "min" is the lower envelope, "max" the upper one, as found. Both are
    given arrays (closed form, built envelopes) or are solved on demand:
    ``mass(side, index)`` is ``prog.bound`` of (coefs, const) = form(t), once
    per index and in the order asked, on one session of ``prog`` that the
    oracle builds on its first value. ``dense`` finds the values it lacks on
    up to one session per usable CPU: the calling thread on the oracle's
    session, each helper thread on a session of its own. Every run starts
    from the same basis, so a value depends neither on the order in which
    values are asked for nor on the session that found it. From the runs
    ``bound`` returns, ``solves`` counts the values that took a session run,
    ``fallbacks`` the cold solves of the full program, and ``iterations``
    sums the simplex iterations of both.

    SI and PQD oracles of two grids (``of_values``) also hold closed-form
    brackets of each side, from ``_coupling_brackets``, built on first use
    per oracle. Where a side's floor and ceiling meet, ``mass`` (and so
    ``dense``) keeps that exact value and solves nothing. ``reaches`` settles
    a probe the memo lacks from them when they clear tau by more than 1e-9
    and solves it otherwise, so it decides as the LP would. ``decided``
    counts both: each value so kept, once, and each probe so settled; with
    ``solves`` it accounts for every value that did not come from the
    zero-cost shortcut of ``bound``. Oracles without brackets never meet.
    """

    def __init__(
        self,
        t_grid,
        prog=None,
        form: Optional[Callable] = None,
        sides=None,
        brackets: Optional[Callable] = None,
    ):
        self.t_grid = _checked_t_grid(t_grid)
        self.prog, self._form, self._bracket_of = prog, form, brackets
        if sides is None:
            sides = np.full((2, self.t_grid.size), np.nan)
        self._values = dict(zip(_SENSES, sides))
        self.solves = 0
        self.fallbacks = 0
        self.iterations = 0
        self.decided = 0

    @classmethod
    def of_bounds(cls, b: DeltaCdfBounds) -> "_Envelopes":
        """The oracle of envelopes that are already built: nothing is solved."""
        return cls(b.t_grid, sides=(b.lower, b.upper))

    @classmethod
    def of_values(cls, v1, v0, tag: str, t_grid=None) -> "_Envelopes":
        """Couplings of two k-atom grids, sorted, under a copula-program tag."""
        k = v1.size
        if k < 2:
            raise ValueError("k must be at least 2")
        if t_grid is None:
            t_grid = default_t_grid(v1, v0)
        if tag != "none":
            prog = _copula_program(k, k, tag)
            return cls(
                t_grid,
                prog,
                functools.partial(prog.objective, v1, v0),
                brackets=functools.partial(_coupling_brackets, v1, v0),
            )
        t = _checked_t_grid(t_grid)
        return cls.of_bounds(_assemble_envelopes(t, *_staircase_envelopes(v1, v0, t)))

    @classmethod
    def of_curves(cls, q1, q0, assumptions: AssumptionSet, k=None, t_grid=None) -> "_Envelopes":
        """``of_values`` on two quantile curves, read at k grid points."""
        tag = _program_tag(assumptions)
        v1, v0, _ = _curves_on_common_grid(q1, q0, k)
        return cls.of_values(v1, v0, tag, t_grid)

    @functools.cached_property
    def _session(self) -> LpSession:
        return self.prog.session()

    def mass(self, side: str, idx) -> float:
        """The side's value at t_grid[idx], found the first time it is asked for."""
        values = self._values[side]
        if np.isnan(values[idx]) and not self._meets(side, idx):
            self._keep(side, idx, self._bound(side, idx, self._session))
        return float(values[idx])

    def _meets(self, side: str, idx) -> bool:
        """Whether the side's brackets meet at t_grid[idx], keeping their value if so.

        Their common value is the envelope's: every bracket is a/k or
        1 - s/k^2, so two equal as floats are the same rational.
        """
        floor, ceiling = self._brackets[side]
        if floor[idx] != ceiling[idx]:
            return False
        self._values[side][idx] = floor[idx]
        self.decided += 1
        return True

    def _bound(self, side: str, idx, session: LpSession):
        """``prog.bound`` at t_grid[idx] on session: (value, runs)."""
        t = float(self.t_grid[idx])
        return self.prog.bound(*self._form(t), side, t, session)

    def _keep(self, side: str, idx, found) -> None:
        """Keep the value of a found (value, runs) and count its runs."""
        value, runs = found
        self._values[side][idx] = value
        self.solves += len(runs[:1])
        self.fallbacks += len(runs[1:])
        self.iterations += sum(run.iterations for run in runs)

    def dense(self):
        """(lower, upper) at every t.

        Keeps every missing value where the brackets meet, then finds the
        rest on ``_bound_all`` and keeps them as a serial pass would: every
        min in index order, then every max, up to the first that raised,
        which is raised.
        """
        pending = [
            (side, idx)
            for side in _SENSES
            for idx in np.flatnonzero(np.isnan(self._values[side]))
            if not self._meets(side, idx)
        ]
        for (side, idx), found in zip(pending, self._bound_all(pending)):
            if isinstance(found, Exception):
                raise found
            self._keep(side, idx, found)
        return self._values["min"].copy(), self._values["max"].copy()

    def _bound_all(self, pending) -> list:
        """``_bound`` of each pending (side, idx), in order: (value, runs) or what it raised.

        min(usable CPUs, items) workers take items from one queue: the calling
        thread on the oracle's session, each helper thread on a session of its
        own. Once an item raises, no worker takes another. Items leave the
        queue in order and each one taken is finished, so every item before
        the first that raised has its value; later ones may have none.
        """
        found = [None] * len(pending)
        if not pending:
            return found
        todo = queue.SimpleQueue()
        for item in enumerate(pending):
            todo.put(item)
        stop = threading.Event()

        def drain(session):
            while not stop.is_set():
                try:
                    i, (side, idx) = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    found[i] = self._bound(side, idx, session)
                except Exception as exc:  # raised again by the caller, in order
                    found[i] = exc
                    stop.set()

        helpers = min(_usable_cpus(), len(pending)) - 1
        if helpers < 1:
            drain(self._session)
            return found
        with ThreadPoolExecutor(helpers) as pool:
            futures = [pool.submit(lambda: drain(self.prog.session())) for _ in range(helpers)]
            try:
                drain(self._session)
            finally:
                stop.set()
        for future in futures:
            future.result()
        return found

    @functools.cached_property
    def _brackets(self):
        if self._bracket_of is None:
            # NaN brackets meet nowhere and settle no probe
            nan = np.full(self.t_grid.size, np.nan)
            return dict.fromkeys(_SENSES, (nan, nan))
        return self._bracket_of(self.t_grid)

    def reaches(self, side: str, idx, tau: float) -> bool:
        """Whether the side reaches tau at t_grid[idx], up to LP rounding."""
        if np.isnan(self._values[side][idx]):
            floor, ceiling = self._brackets[side]
            if floor[idx] >= tau - _TAU_TOL + _CERT_TOL:
                self.decided += 1
                return True
            if ceiling[idx] < tau - _TAU_TOL - _CERT_TOL:
                self.decided += 1
                return False
        return self.mass(side, idx) >= tau - _TAU_TOL

    def first_reaching(self, side: str, tau: float, hi) -> int:
        """Smallest index in [0, hi] at which the side reaches tau, given that hi does.

        Bisection probes mid = (lo + hi) // 2 with lo inclusive, so only the
        indices it visits are solved.
        """
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if self.reaches(side, mid, tau):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _inverse(self, side: str, tau: float):
        """(min{t : side reaches tau}, truncated), truncated if tau is off the side's range."""
        last = self.t_grid.size - 1
        if not self.reaches(side, last, tau):
            return float(self.t_grid[last]), True
        idx = self.first_reaching(side, tau, last)
        return float(self.t_grid[idx]), bool(idx == 0 and tau < self.mass(side, 0))

    def invert(self, tau: float) -> QoteBounds:
        """Quantile bounds: the lower envelope (searched first) gives the upper bound."""
        if not 0.0 < tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        upper, trunc_u = self._inverse("min", tau)
        lower, trunc_l = self._inverse("max", tau)
        return QoteBounds(lower, upper, truncated_lower=trunc_l, truncated_upper=trunc_u)


def coupling_lp_bounds(
    q1: QuantileCurve,
    q0: QuantileCurve,
    assumptions: AssumptionSet = AssumptionSet(),
    t_grid=None,
    k: Optional[int] = None,
) -> DeltaCdfBounds:
    """Envelopes of P(Delta <= t) over discretized couplings of the two curves.

    ``assumptions`` must be NoAssumption, SI, or PQD. Restricted cases solve
    up to two LPs per t, none where the closed-form brackets of a side meet;
    the unrestricted case uses the exact closed form.
    """
    env = _Envelopes.of_curves(q1, q0, assumptions, k, t_grid)
    return _assemble_envelopes(env.t_grid, *env.dense())


def invert_bounds(b: DeltaCdfBounds, tau: float) -> QoteBounds:
    """Quantile bounds from CDF envelopes: invert upper for the lower bound.

    Returns grid values min{t : F(t) reaches tau}; when tau falls outside the
    range an envelope spans on the grid, the corresponding endpoint is
    returned with a truncated flag.
    """
    return _Envelopes.of_bounds(b).invert(tau)


def qote_coupling_bounds(
    q1: QuantileCurve,
    q0: QuantileCurve,
    tau: float,
    assumptions: AssumptionSet = AssumptionSet(),
    k: Optional[int] = None,
    t_grid=None,
) -> QoteBounds:
    """Quantile bounds by inverting the coupling-LP envelopes.

    Identical to ``invert_bounds(coupling_lp_bounds(...), tau)`` but solves
    only the t values a bisection visits, which matters for the shape
    constrained programs.
    """
    return _Envelopes.of_curves(q1, q0, assumptions, k, t_grid).invert(tau)


# ---------------------------------------------------------------------------
# Bernstein copula programs


def _bernstein_prime(m: int, nodes: np.ndarray) -> np.ndarray:
    """Derivatives of the degree-m Bernstein basis at the nodes, rows v=0..m."""
    out = np.zeros((m + 1, nodes.size))
    pm1 = np.vstack([_binom.pmf(v, m - 1, nodes) for v in range(m)])
    for v in range(m + 1):
        hi = pm1[v - 1] if v >= 1 else 0.0
        lo = pm1[v] if v <= m - 1 else 0.0
        out[v] = m * (hi - lo)
    return out


def _bernstein_weight_data(q1, q0, m1, m2, quad_points):
    nodes = (np.arange(quad_points) + 0.5) / quad_points
    q1n = _curve_values(q1, nodes)
    q0n = _curve_values(q0, nodes)
    a1 = _bernstein_prime(m1, nodes) / quad_points
    a0 = _bernstein_prime(m2, nodes) / quad_points
    # suffix sums over nodes, one extra zero column for "no node included"
    r0 = np.hstack([np.cumsum(a0[:, ::-1], axis=1)[:, ::-1], np.zeros((m2 + 1, 1))])
    return q1n, q0n, a1, r0


def _bernstein_objective(prog, q1n, q0n, a1, r0, t):
    """Linear form (coefs, const) over the interior coefficients at one t."""
    js = _pairs_above(q1n, q0n, t)[:, 0]
    w = a1 @ r0[:, js].T  # (m1+1) x (m2+1) indicator integrals
    coefs, const = prog.fold(w.ravel())
    return coefs, float(const)


def bernstein_lp_bounds(
    q1: QuantileCurve,
    q0: QuantileCurve,
    assumptions: AssumptionSet = AssumptionSet(),
    t_grid=None,
    m1: int = 15,
    m2: int = 15,
    quad_points: int = 200,
) -> DeltaCdfBounds:
    """Envelopes of P(Delta <= t) over Bernstein copulas of degrees (m1, m2).

    The integral of the indicator against the Bernstein copula density is
    precomputed on a quad_points^2 tensor midpoint grid; the optimization over
    valid coefficient matrices (optionally shape constrained) is an LP per t.
    """
    tag = _program_tag(assumptions)
    if m1 < 1 or m2 < 1:
        raise ValueError("degrees m1, m2 must be at least 1")
    if t_grid is None:
        t_grid = default_t_grid(q1.values, q0.values)
    prog = _copula_program(m1, m2, tag)
    weights = _bernstein_weight_data(q1, q0, m1, m2, quad_points)
    env = _Envelopes(t_grid, prog, functools.partial(_bernstein_objective, prog, *weights))
    return _assemble_envelopes(env.t_grid, *env.dense())


def bernstein_optimal_coefs(
    q1: QuantileCurve,
    q0: QuantileCurve,
    assumptions: AssumptionSet,
    t: float,
    m1: int = 15,
    m2: int = 15,
    quad_points: int = 200,
    sense: str = "min",
) -> BernsteinCoefs:
    """Coefficient matrix attaining one envelope value at one t (diagnostics)."""
    tag = _program_tag(assumptions)
    if sense not in _SENSES:
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    weights = _bernstein_weight_data(q1, q0, m1, m2, quad_points)
    prog = _copula_program(m1, m2, tag)
    if prog.nvar == 0:
        return BernsteinCoefs(m1, m2, prog.full_beta(np.zeros(0)))
    coefs, _ = _bernstein_objective(prog, *weights, t)
    return BernsteinCoefs(m1, m2, prog.full_beta(prog.solve(coefs, sense, t).x))


# ---------------------------------------------------------------------------
# point-identifying assumptions


def rank_invariance_qote(q1: QuantileCurve, q0: QuantileCurve, tau: float) -> float:
    """Quantile of the comonotone-coupling effect: tau-quantile of {q1(u) - q0(u)}."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if q1.u_grid.size != q0.u_grid.size:
        raise ValueError("curves share grid resolution")
    diffs = np.sort(q1.values - q0.values)
    idx = int(np.ceil(tau * diffs.size)) - 1
    return float(diffs[max(idx, 0)])


# ---------------------------------------------------------------------------
# linear-fractional coupling functionals


def functional_bounds(
    q1: QuantileCurve,
    q0: QuantileCurve,
    assumptions: AssumptionSet,
    functional,
    k: Optional[int] = None,
) -> Interval:
    """Bounds on a conditional-mean coupling functional via Charnes-Cooper.

    ``functional`` is CVaR(threshold) for E[Delta | Delta < threshold] or
    DisadvantagedGain(threshold) for E[Y1 - Y0 | Y0 < threshold]. Both are
    linear-fractional in the coupling mass; each endpoint is one LP after the
    Charnes-Cooper change of variables. An auxiliary LP first verifies the
    conditioning event has positive mass under every feasible coupling.
    """
    tag = _program_tag(assumptions)
    v1, v0, k = _curves_on_common_grid(q1, q0, k)
    delta = v1[:, None] - v0[None, :]
    if isinstance(functional, CVaR):
        event = (delta < functional.threshold).astype(float)
        if not (delta.min() < functional.threshold <= delta.max() + 1e-12):
            raise ValueError("threshold outside the support spanned by the grids")
    elif isinstance(functional, DisadvantagedGain):
        event = np.broadcast_to(v0 < functional.threshold, (k, k)).astype(float)
        if not (v0.min() < functional.threshold <= v0.max() + 1e-12):
            raise ValueError("threshold outside the support spanned by the grids")
    else:
        raise TypeError("functional must be CVaR or DisadvantagedGain")
    prog = _copula_program(k, k, tag)
    e_coefs, e_const = prog.linear_form(event)
    a_coefs, a_const = prog.linear_form(delta * event)
    thr = functional.threshold
    if prog.bound(e_coefs, e_const, "min", thr, prog.session())[0] <= 1e-9:
        raise ValueError("conditioning event not uniformly positive")

    # Charnes-Cooper: variables (y, s) with s = 1 / P(event) and y = s * S;
    # the program's rows, caps and floors are homogenised in s.
    eye = sp.identity(prog.nvar, format="csr")
    rows = [
        sp.hstack([prog.a_le, sp.csr_matrix(-prog.b_le[:, None])]),
        sp.hstack([eye, sp.csr_matrix(-prog.ub[:, None])]),
    ]
    if np.any(prog.lb):
        rows.append(sp.hstack([-eye, sp.csr_matrix(prog.lb[:, None])]))
    a_le = sp.vstack(rows, format="csr")
    program = dict(
        c=np.append(a_coefs, a_const),
        A_eq=np.append(e_coefs, e_const)[None, :],
        b_eq=np.ones(1),
        A_le=a_le,
        b_le=np.zeros(a_le.shape[0]),
    )
    lo = _solve(LinearProgram(sense="minimize", **program), thr, assumptions.tag, k).objective
    hi = _solve(LinearProgram(sense="maximize", **program), thr, assumptions.tag, k).objective
    return Interval(float(lo), float(hi))


def delta_bounds_to_csv(b: DeltaCdfBounds) -> str:
    """Serialize CDF envelopes as ``t,lower,upper`` CSV text."""
    lines = ["t,lower,upper"]
    for t, lo, up in zip(b.t_grid, b.lower, b.upper):
        lines.append(f"{t:.10g},{lo:.10g},{up:.10g}")
    return "\n".join(lines) + "\n"
