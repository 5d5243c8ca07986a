"""Identified intervals for quantiles of treatment effects.

The two marginal outcome distributions only partially identify the
treatment-effect CDF P(Y1 - Y0 <= t). This module computes its sharp lower
and upper envelopes over the couplings of the marginals, optionally under an
``AssumptionSet``, and inverts them into quantile bounds. Which routine does
what:

- ``_staircase_envelopes``: the unrestricted envelopes in closed form, and
  ``_staircase_qote`` (``makarov_bounds``) their quantile bounds.
- ``_CopulaProgram``: every linear program, over a grid copula in CDF
  coordinates on integer breakpoints, and the proof that an SI or PQD value
  solved on the coarse grid its staircase touches is exact. It keeps its
  rows as the CSR arrays that ``lpcore.solve_lp``, the one LP call, takes;
  ``bound`` finds one value by one ``run`` of the rows it keeps, from a
  start basis made once per shape, with one cold ``solve`` of every row as
  the fallback, which raises ``LpSolveError``.
- ``_Envelopes``: one oracle per (grids, tag, t grid) of the SI or PQD
  couplings, which finds each distinct (side, staircase) at most once on
  the coarse program it touches, settles values from closed-form brackets,
  and serves dense envelopes (in one ``dense_pass`` over any number of
  oracles, largest program first), lazy ``invert`` and the probes of
  ``sim``.
- ``_envelope_rows`` and ``_point_rows``: the one routine per assumption,
  for rows of cells. The CLI calls them on all its cells, and
  ``coupling_lp_bounds`` and ``rank_invariance_qote`` on one. Under SI and
  PQD, ``_envelope_rows`` solves every cell in one pass.
- ``_inverted_rows`` (``invert_bounds``): inversion of built envelopes in one
  numpy pass; ``qote_coupling_bounds`` inverts SI and PQD lazily.
- ``functional_bounds``: the Charnes-Cooper programs of conditional-mean
  functionals, on the full grid. ``bernstein_lp_bounds`` solves the full
  program of Bernstein copula coefficients, an inner approximation of the
  envelopes.
- ``_on_workers``: runs dense passes (in a given order), the two sides of a
  lazy inversion and the replications of ``sim`` on up to one thread per
  usable CPU, with the values and counts of a serial pass, and raising the
  error it would raise first: the calling thread and helper threads started
  once per process (``_Helpers``). Every LP runs on its thread's one HiGHS
  instance (``lpcore``), so neither a thread nor a HiGHS instance is set up
  per call or per LP.

Importing the module loads no scipy, and no program is built through
scipy.sparse. An oracle, and ``sim`` before its replications, load the HiGHS
bindings (``lpcore._bindings``), and with them scipy.sparse, on the calling
thread, so no worker imports a module.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .lpcore import LpSolution, _bindings, _highs_basis, solve_lp
from .marginals import QuantileCurve, _is_positive_integer, _quantile_index, u_grid

DEFAULT_K = 50
DEFAULT_T_POINTS = 201

_VALID_TAGS = ("NoAssumption", "SI", "PQD", "RankInvariance", "Symmetry")
_UNSUPPORTED_TAGS = ("SD", "DC", "RY", "RY2")
# assumption tag -> copula-program tag, for the assumptions an LP can impose
_PROGRAM_TAGS = {"NoAssumption": "none", "SI": "SI", "PQD": "PQD"}

# an envelope reaches tau at a value of at least tau - _TAU_TOL: LP masses on a
# flat stretch sit within rounding of tau, so dense and lazy inversion agree there
_TAU_TOL = 1e-12
# a relaxed solution certifies the full program when no checked row is
# violated by more than this
_CERT_TOL = 1e-9

# ``_envelope_rows`` counts the staircases (k x T counts per row) of
# as many rows at a time as keep their counts within this (512 KiB of int64):
# larger blocks ran no faster and raised the peak memory of a 200-cell run
_BLOCK_COUNTS = 1 << 16


def _usable_cpus() -> int:
    """The CPUs this process may run on: ``_on_workers`` runs at most one worker on each.

    So a dense pass solves on at most one thread per CPU, each on its own
    HiGHS instance, a lazy inversion on two (one per side), and ``sim`` runs
    one replication per CPU.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Helpers:
    """The helper threads of ``_on_workers``: started when a call first needs
    them and kept, idle between calls, for the life of the process.

    Each takes tasks from one queue and runs them, one at a time; a task
    catches what it raises itself. A forked child has none of its parent's
    threads, so it starts with none of its own (``__init__`` runs again there).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tasks = queue.SimpleQueue()
        self.threads = []

    def run(self, count: int, task: Callable) -> None:
        """Queue ``task`` ``count`` times, with at least ``count`` threads started to take it."""
        with self._lock:
            while len(self.threads) < count:
                thread = threading.Thread(target=self._serve, name="qotepolicy-helper", daemon=True)
                thread.start()
                self.threads.append(thread)
        for _ in range(count):
            self._tasks.put(task)

    def _serve(self) -> None:
        while True:
            self._tasks.get()()


_helpers = _Helpers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helpers.__init__)


def _on_workers(items, work: Callable, _order=None) -> list:
    """What ``work(item)`` returns, per item, in item order, or what a serial pass raises.

    min(usable CPUs, items) workers take items from one queue: the calling
    thread and as many of the process's helper threads (``_Helpers``) as
    the call has further workers, started on first need and kept after it,
    so at most usable CPUs - 1 of them. The queue holds the items in item
    order, or in ``_order``, a permutation of their indices. Once an item
    raises, no worker starts an item after it in item order, while the items
    before it still run, so the call raises the exception of the earliest
    item in item order that raised, the one a serial pass would raise. One
    worker runs every item on the calling thread and queues nothing. The
    call returns or raises once no helper works on its items; a helper that
    had not begun by the time the calling thread emptied the queue never
    begins, so a call made from within ``work`` needs no free helper.
    ``work`` runs on several threads at once and must keep whatever it
    keeps per thread itself; every HiGHS run is on its thread's own
    instance (``lpcore``). HiGHS runs outside the interpreter lock, so LP
    work gains from the threads.
    """
    items = list(items)
    found = [None] * len(items)
    if not items:
        return found
    todo = queue.SimpleQueue()
    for i in range(len(items)) if _order is None else _order:
        todo.put(i)
    # the first item, in item order, that raised (-1 stops every worker), and
    # what each item that raised raised
    raised, errors, state = [len(items)], {}, threading.Condition()

    def drain():
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            if i > raised[0]:
                continue
            try:
                found[i] = work(items[i])
            except Exception as exc:  # raised again by the caller, in order
                with state:
                    errors[i] = exc
                    raised[0] = min(raised[0], i)

    # the calling thread and ``helpers`` helper threads; with none, nothing is queued
    helpers = min(_usable_cpus(), len(items)) - 1
    # helper tasks not begun, those running, and what escaped ``drain`` on a helper
    unbegun, running, escaped = [helpers], [0], []

    def helper():
        with state:
            if not unbegun[0]:
                return
            unbegun[0] -= 1
            running[0] += 1
        try:
            drain()
        except BaseException as exc:  # raised again by the caller, as an executor would
            escaped.append(exc)
        finally:
            with state:
                running[0] -= 1
                state.notify()

    _helpers.run(helpers, helper)
    try:
        drain()
    finally:
        with state:
            raised[0], unbegun[0] = -1, 0
            state.wait_for(lambda: not running[0])
    if escaped:
        raise escaped[0]
    if errors:
        raise errors[min(errors)]
    return found


def _raise_first_failure(checks) -> None:
    """Raise the first failing check of the first row that fails one, as a ValueError.

    ``checks`` are (message, failed) pairs in the order they apply, each
    ``failed`` a boolean per row, so that checking many rows at once raises
    what checking them one at a time would.
    """
    failed = np.stack([f for _, f in checks], axis=-1).reshape(-1, len(checks))
    rows = np.flatnonzero(failed.any(axis=1))
    if rows.size:
        raise ValueError(checks[int(failed[rows[0]].argmax())][0])


def _t_grid_checks(t) -> list:
    """The checks of t grids along the last axis: finite, strictly increasing."""
    return [
        ("t_grid values must be finite", ~np.isfinite(t).all(axis=-1)),
        ("t_grid must be strictly increasing", (np.diff(t, axis=-1) <= 0).any(axis=-1)),
    ]


def _checked_t_grid(t_grid) -> np.ndarray:
    """A t grid as a float array: 1-d, non-empty, finite, strictly increasing."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"t_grid must be 1-d, got shape {t.shape}")
    if t.size == 0:
        raise ValueError("t_grid must not be empty")
    _raise_first_failure(_t_grid_checks(t))
    return t


def _check_envelopes(t, lower, upper) -> None:
    """Raise unless each row of lower and upper bounds P(Delta <= t) on its row of t.

    Rows run along the last axis, which must not be empty. A row's t grid
    must be finite and strictly increasing, and its envelopes must lie in
    [0, 1], be nondecreasing and keep lower <= upper, each to 1e-9.
    """
    checks = _t_grid_checks(t)
    if not t.shape == lower.shape == upper.shape:
        _raise_first_failure(checks)
        raise ValueError("t_grid, lower, upper must be 1-d of equal length")
    for name, v in (("lower", lower), ("upper", upper)):
        checks.append((f"{name} envelope must lie in [0, 1]",
                       ~((v >= -1e-9) & (v <= 1 + 1e-9)).all(axis=-1)))
        checks.append((f"{name} envelope must be nondecreasing",
                       (np.diff(v, axis=-1) < -1e-9).any(axis=-1)))
    checks.append(("lower envelope must not exceed upper envelope",
                   (lower > upper + 1e-9).any(axis=-1)))
    _raise_first_failure(checks)


def _check_qote_bounds(lower, upper) -> None:
    """Raise unless every lower <= upper, to 1e-12, over arrays of intervals.

    ``QoteBounds`` checks its one interval the same way, without numpy.
    """
    if not np.all(lower <= upper + 1e-12):
        raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class AssumptionSet:
    """Identifying assumption on the (Y1, Y0) coupling; exactly one tag.

    "NoAssumption": any coupling; "SI": mutual stochastic increasingness,
    each outcome stochastically increasing in the other (Frandsen &
    Lefgren, Quantitative Economics 12, 2021); "PQD": positive quadrant
    dependence; "RankInvariance": a common rank in both arms, which
    point-identifies the quantile; "Symmetry": an effect distribution
    symmetric about its center, for the median only.
    """

    tag: str = "NoAssumption"

    def __post_init__(self):
        if self.tag in _UNSUPPORTED_TAGS:
            raise ValueError(f"assumption {self.tag} not supported")
        if self.tag not in _VALID_TAGS:
            raise ValueError(f"unknown assumption tag {self.tag!r}")


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
        _check_envelopes(t, lo, up)


@dataclass(frozen=True)
class QoteBounds:
    """Identified interval [lower, upper] for a treatment-effect quantile."""

    lower: float
    upper: float
    truncated_lower: bool = False
    truncated_upper: bool = False

    def __post_init__(self):
        if not self.lower <= self.upper + 1e-12:  # NaN fails too
            raise ValueError("lower bound exceeds upper bound")


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
    """Equally spaced t values spanning the achievable grid differences.

    Grids stacked along leading axes (one row per cell) give one t grid per
    row, each as that row alone would.
    """
    if points < 1:
        raise ValueError(f"a t grid needs at least one point, got {points}")
    lo = np.min(v1, axis=-1) - np.max(v0, axis=-1)
    hi = np.max(v1, axis=-1) - np.min(v0, axis=-1)
    narrow = hi - lo < 1e-12
    return np.linspace(
        np.where(narrow, lo - 0.5, lo), np.where(narrow, hi + 0.5, hi), points, axis=-1
    )


def _require_two_atoms(v1) -> None:
    """Raise unless grids of couplings, along the last axis, have k >= 2 atoms."""
    if np.shape(v1)[-1] < 2:
        raise ValueError("k must be at least 2")


def _coupling_t_grid(v1, v0, t_grid) -> np.ndarray:
    """The checked t grid of couplings of two k-atom grids, k >= 2: t_grid, or the default one."""
    _require_two_atoms(v1)
    return _checked_t_grid(default_t_grid(v1, v0) if t_grid is None else t_grid)


def _monotone_envelopes(lower, upper):
    """Clip LP-produced envelopes to [0, 1] and monotonize them along the last axis.

    (lower, upper): each a cumulative max in t, and upper at least lower.
    """
    lo = np.maximum.accumulate(np.clip(lower, 0.0, 1.0), axis=-1)
    up = np.maximum.accumulate(np.clip(upper, 0.0, 1.0), axis=-1)
    return lo, np.maximum(up, lo)


# ---------------------------------------------------------------------------
# the unrestricted problem: closed form on the grid


def _searchsorted_rows(a, v, side: str = "left") -> np.ndarray:
    """``np.searchsorted(a[r], v[r], side)`` for every row r of the leading axes.

    ``a`` is (..., T), each row sorted, and ``v`` is (..., m) with the same
    leading shape. Complex numbers sort lexicographically, so the keys
    row + 1j * value of every row form one sorted array, and one search
    places every value exactly among its own row's.
    """
    a, v = np.asarray(a, dtype=float), np.asarray(v, dtype=float)
    rows = np.arange(math.prod(a.shape[:-1])).reshape(a.shape[:-1] + (1,))
    keys, query = np.empty(a.shape, complex), np.empty(v.shape, complex)
    keys.real, keys.imag = rows, a
    query.real, query.imag = rows, v
    return np.searchsorted(keys.ravel(), query.ravel(), side).reshape(v.shape) - rows * a.shape[-1]


def _pairs_above(v1, v0, t_grid):
    """counts[..., i, n] = #{j : v1[..., i] - v0[..., j] > t_grid[..., n]} for increasing grids.

    Grids stacked along leading axes (one row per cell) count each row on
    its own t grid. Each difference is compared with t as it is computed.
    Locating v1[i] - t among v0 instead rounds v1[i] - t first, which can
    misplace a pair whose difference equals t; the ends of the default t
    grid are such differences.
    """
    t = np.atleast_1d(np.asarray(t_grid, float))
    k, size = v1.shape[-1], t.shape[-1]
    diffs = v1[..., :, None] - v0[..., None, :]
    # t[n] < v1[i] - v0[j]  iff  n < pos[i, j]
    pos = _searchsorted_rows(t, diffs.reshape(diffs.shape[:-2] + (-1,)))
    rows = pos.size // v0.shape[-1]
    hits = np.bincount(
        (np.arange(rows)[:, None] * (size + 1) + pos.reshape(rows, -1)).ravel(),
        minlength=rows * (size + 1),
    ).reshape(diffs.shape[:-2] + (k, size + 1))
    return v0.shape[-1] - np.cumsum(hits, axis=-1, out=hits)[..., :size]


def _staircase_envelopes(above):
    """Exact lower/upper envelopes of the coupling LP without shape constraints.

    With both marginals uniform on k sorted atoms, min/max of
    sum 1{q1_i - q0_j <= t} c(i,j) over couplings reduce to order statistics
    of the cross differences: with b_i(t) = ``above[i, n]`` pairs of row i
    above t = t_grid[n] (``_pairs_above(v1, v0, t_grid)``), the lower
    envelope is max_i (i - b_i)/k and the upper one (k - 1 + min_i (i - b_i))/k.
    Counts stacked along leading axes give one pair of envelopes per row.
    ``above`` is not written: an oracle keeps it as its staircases.
    """
    k = above.shape[-2]
    g = np.arange(1, k + 1)[:, None] - above
    f_lower = np.clip(g.max(axis=-2), 0, k) / k
    f_upper = np.clip(k - 1 + g.min(axis=-2), 0, k) / k
    return f_lower, f_upper


def _comonotone_cdf(v1, v0, t_grid):
    """P(Delta <= t) at every t under the comonotone coupling of two sorted k-atom grids.

    Grids stacked along leading axes give one row per row of t_grid.
    """
    return _searchsorted_rows(np.sort(v1 - v0, axis=-1), t_grid, "right") / v1.shape[-1]


def _envelope_rows(tag: str, v1, v0, t_grid):
    """(lower, upper) of P(Delta <= t) for rows of grids, under any assumption but Symmetry.

    Every row of ``v1``, ``v0`` (cells x k) on its row of ``t_grid`` (cells
    x T): the staircase closed form (k >= 2) under NoAssumption, the
    comonotone coupling under RankInvariance, and under SI or PQD one
    ``_Envelopes`` oracle per row, built in row order and solved together in
    one ``dense_pass``, the largest programs of all rows first. The rows are
    then clipped and monotonized (``_monotone_envelopes``) and checked as
    ``DeltaCdfBounds`` checks one row. Raises what the first failing row
    alone would.
    """
    if tag in ("SI", "PQD"):
        # each oracle checks its own row's grids; a row that fails there
        # fails after the rows before it are solved, as it would row by row
        oracles, failed = [], None
        try:
            for r in range(len(v1)):
                oracles.append(_Envelopes.of_values(v1[r], v0[r], tag, t_grid[r]))
        except ValueError as exc:
            failed = exc
        found = _Envelopes.dense_pass(oracles)
        if failed is not None:
            raise failed
        lower, upper = np.empty((2,) + np.shape(t_grid))
        for r, (lo, up) in enumerate(found):
            lower[r], upper[r] = lo, up
    else:
        if tag == "NoAssumption":
            _require_two_atoms(v1)
        # a grid that is not finite and increasing would misplace the searches
        _raise_first_failure(_t_grid_checks(t_grid))
        if tag == "RankInvariance":
            lower = upper = _comonotone_cdf(v1, v0, t_grid)
        else:
            step = max(_BLOCK_COUNTS // (v1.shape[-1] * t_grid.shape[-1]), 1)
            blocks = [
                _staircase_envelopes(
                    _pairs_above(v1[at : at + step], v0[at : at + step], t_grid[at : at + step])
                )
                for at in range(0, len(v1), step)
            ]
            lower, upper = (np.concatenate(side) for side in zip(*blocks))
    lower, upper = _monotone_envelopes(lower, upper)
    _check_envelopes(t_grid, lower, upper)
    return lower, upper


def _coupling_brackets(v1, v0, t_grid, above):
    """{side: (floor, ceiling)} of the SI and PQD envelopes at every t.

    ``above`` is ``_pairs_above(v1, v0, t_grid)``. The comonotone copula
    min(i,j)/k and the independence copula ij/k^2 are feasible in every
    copula program, so the lower envelope lies between the staircase's and
    the smaller of their masses, and the upper envelope between the larger
    of their masses and the staircase's.
    """
    k = v1.size
    none_l, none_u = _staircase_envelopes(above)
    comonotone = _comonotone_cdf(v1, v0, t_grid)
    independent = 1.0 - above.sum(axis=0) / (k * k)
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


_SENSES = {"min": "minimize", "max": "maximize"}


class LpSolveError(RuntimeError):
    """An LP that did not end optimal, with the t, tag and k it was solved at."""

    def __init__(self, sol: LpSolution, t, tag, k):
        super().__init__(
            f"LP {sol.status} at t={t!r} (tag {tag}, k={k}): {sol.message}"
        )
        self.t, self.tag, self.k = t, tag, k


def _solve(c, sense: str, program, t, tag, k) -> LpSolution:
    """``solve_lp(c, sense, *program)``; anything but an optimal end raises LpSolveError."""
    sol = solve_lp(c, sense, *program)
    if sol.status != "optimal":
        raise LpSolveError(sol, t, tag, k)
    return sol


class _CopulaProgram:
    """LP over discrete copulas on a breakpoint grid, in CDF coordinates.

    ``rows`` 0 = r_0 < ... < r_n1 = m1 and ``cols`` 0 = c_0 < ... < c_n2 = m2
    are integer breakpoints. The variables are S(r, c), the copula at
    (r/m1, c/m2), at the interior breakpoints, in row-major order. Every row
    of the program is a stencil on the full (n1+1) x (n2+1) breakpoint grid;
    ``fold`` keeps its interior part and moves the boundary values
    S(0,.) = S(.,0) = 0, S(m1,c) = c/m2, S(r,m2) = r/m1 to the right-hand
    side. ``linear_form`` and the Bernstein objective fold their coefficients
    the same way. The rows:

    - 2-increasingness: every cell mass S(r_{p+1},c_{q+1}) - S(r_p,c_{q+1})
      - S(r_{p+1},c_q) + S(r_p,c_q), row-major, is nonnegative;
    - SI only, concavity (equivalent to the partial-sum monotonicity of
      conditional survival functions) along every interior breakpoint row
      and column, in slope form with integer coefficients,
      (c_{q+1} - c_q)(S_q - S_{q-1}) - (c_q - c_{q-1})(S_{q+1} - S_q) >= 0,
      interleaved per interior point, the row (j) direction first. On unit
      spacing it is minus the second difference.

    Positive quadrant dependence ("PQD") is a plain variable lower bound
    S(r,c) >= rc/(m1 m2); "none" adds nothing. The breakpoints 0..m1 and
    0..m2 (``_copula_program``) give the full program: with m1 = m2 = k, S
    is the CDF of a k x k coupling with uniform marginals, and with degrees
    (m1, m2) it holds Bernstein copula coefficients. An axis of one cell
    leaves no variable and so no row.

    A coarse grid serves P(Delta <= t) (``_staircase_form``). Let b_i =
    ``_pairs_above(v1, v0, t)[i]``, nondecreasing in i. Then P(Delta <= t)
    = 1 - sum over the runs [a..e] of equal b of (S(e+1, b) - S(a, b)), on
    the (k+1) x (k+1) CDF grid, so it reads S only on the rows R = {0, k}
    and the run boundaries and the columns C = {0, k} and the b_i. The
    program on R x C has the same optimum as the full one:

    - restriction: any S feasible on the full grid, read on R x C, is
      feasible there: a coarse cell mass is a sum of fine ones, the PQD
      floor holds pointwise, and a concave row or column stays concave on
      a subset of its points;
    - extension: the bilinear interpolation of an S feasible on R x C is
      feasible on the full grid: each coarse mass spreads evenly over its
      fine cells, the independence copula rc/k^2 is bilinear so the PQD
      floor holds, and along a fine row (or column) the interpolation is a
      convex mix of two piecewise-linear concave rows (columns), so concave.

    Both maps keep the objective, so the two optima are equal (Nelsen, *An
    Introduction to Copulas*, 2nd ed., 2006, Lemma 2.3.5, for the
    interpolation), while the coarse program has (|R| - 2)(|C| - 2)
    variables against (k - 1)^2. The tests build the interpolation and check
    it against every row of the full program.

    The program keeps its rows as the CSR arrays (indptr, int32 indices,
    values) that ``lpcore.solve_lp`` takes. ``bound`` finds each value by one
    ``run``, on the calling thread: ``solve_lp`` on the arrays of the rows not
    in ``dropped_rows`` (SI's 2-increasing rows), from the basis of the
    independence copula rc/(m1 m2) (``_start_masks``), made once per shape
    (``_start_basis``); "none" has none and presolves each run. A run's
    optimum is accepted where it stands within 1e-9 of every row of the
    program, else one cold ``solve`` of the whole program's arrays runs.
    """

    def __init__(self, rows, cols, tag: str):
        if tag not in ("none", "SI", "PQD"):
            raise ValueError("copula program tag must be none, SI or PQD")
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        self.rows, self.cols, self.tag = rows, cols, tag
        m1, m2 = int(rows[-1]), int(cols[-1])
        self.m1, self.m2 = m1, m2
        self.k = m1 if m1 == m2 else (m1, m2)
        n1, n2 = rows.size - 1, cols.size - 1
        width = n2 + 1
        grid = np.arange((n1 + 1) * width).reshape(n1 + 1, width)
        self._inner, self._top, self._right = grid[1:n1, 1:n2].ravel(), grid[n1], grid[:n1, n2]
        self.nvar = self._inner.size

        # each row of g is a stencil on the full breakpoint grid, a quantity
        # the program keeps nonnegative: the cell masses, then for SI the
        # concavity rows; an axis of one cell leaves none
        masses = grid[:n1, :n2].reshape(-1, 1) + np.array([width + 1, 1, width, 0])
        masses = masses[: masses.shape[0] if self.nvar else 0]
        stencils = [(masses, np.broadcast_to([1.0, -1.0, -1.0, 1.0], masses.shape))]
        if tag == "SI" and self.nvar:
            dr, dc = np.diff(rows).astype(float), np.diff(cols).astype(float)
            i, j = np.divmod(np.arange(self.nvar), n2 - 1)
            at = self._inner[:, None]
            along_j = np.stack([-dc[j + 1], dc[j] + dc[j + 1], -dc[j]], axis=1)
            along_i = np.stack([-dr[i + 1], dr[i] + dr[i + 1], -dr[i]], axis=1)
            stencils.append((
                np.stack([at + [-1, 0, 1], at + [-width, 0, width]], axis=1).reshape(-1, 3),
                np.stack([along_j, along_i], axis=1).reshape(-1, 3),
            ))
        self.dropped_rows = slice(0, masses.shape[0] if tag == "SI" else 0)
        widths = np.concatenate([np.full(p.shape[0], p.shape[1]) for p, _ in stencils])
        nrows = widths.size
        row = np.repeat(np.arange(nrows), widths)
        points = np.concatenate([p.ravel() for p, _ in stencils])
        weights = np.concatenate([w.ravel() for _, w in stencils])
        # g S >= 0 over the full grid is -g_inner x <= (g's boundary constant),
        # summed over the top edge and then over the right edge, as ``fold`` does
        var = np.full(grid.size, -1, dtype=np.int32)
        var[self._inner] = np.arange(self.nvar)
        col = var[points]
        inside = col >= 0
        # the rows' CSR arrays (indptr, indices, values); no row is empty, as
        # every stencil on a grid with interior points touches one
        indptr = np.zeros(nrows + 1, dtype=np.int32)
        np.cumsum(np.bincount(row[inside], minlength=nrows), out=indptr[1:])
        self._csr = (indptr, col[inside], -weights[inside])
        edges = np.zeros((2, grid.size))
        edges[0, self._top], edges[1, self._right] = cols / m2, rows[:n1] / m1
        top, right = (np.bincount(row, weights * edge[points], nrows) for edge in edges)
        self.b_le = top + right

        self.ub = np.minimum.outer(rows[1:n1] / m1, cols[1:n2] / m2).ravel()
        if tag == "PQD":
            self.lb = np.multiply.outer(rows[1:n1], cols[1:n2]).ravel() / float(m1 * m2)
        else:
            self.lb = np.zeros(self.nvar)

    def fold(self, coefs):
        """(interior coefficients, boundary constant) of coefs . S on the breakpoint grid.

        The last axis of ``coefs`` runs over S(r_a, c_b), a in 0..n1, b in
        0..n2, in row-major order. The constant sums the coefficients of the
        top edge S(m1, c) = c/m2 and then of the right edge S(r, m2) = r/m1,
        r < m1; S(0, .) = S(., 0) = 0 adds nothing. Summed edge by edge, the
        constant of each program row is rounded at most once.
        """
        top = coefs[..., self._top] @ (self.cols / self.m2)
        return coefs[..., self._inner], top + coefs[..., self._right] @ (self.rows[:-1] / self.m1)

    def solve(self, coefs, sense, t) -> LpSolution:
        """min or max of coefs . S over the feasible S: one cold run of the whole program."""
        program = (self._csr, np.full(self.b_le.size, -np.inf), self.b_le, self.lb, self.ub)
        return _solve(coefs, _SENSES[sense], program, t, self.tag, self.k)

    def run(self, coefs, sense) -> LpSolution:
        """min or max of coefs . S without the dropped rows: one run from the
        start basis of the program's shape, however it ends."""
        kept = self.dropped_rows.stop
        indptr, indices, values = self._csr
        at = indptr[kept]
        b = self.b_le[kept:]
        rows = (indptr[kept:] - at, indices[at:], values[at:])
        basis = _start_basis(self.nvar, b.size, self.tag)
        return solve_lp(
            coefs, _SENSES[sense], rows, np.full(b.size, -np.inf), b, self.lb, self.ub, basis
        )

    def bound(self, coefs, const, sense, t):
        """(value, runs): one side of const + coefs . S, a probability, over the feasible S.

        Zero costs give const in [0, 1] and no run. Else one ``run`` on the
        calling thread, whose optimum stands within 1e-9 of every row of the
        program; any other end adds one cold ``solve``, run last.
        """
        if not np.any(coefs):
            return min(max(const, 0.0), 1.0), ()
        run = self.run(coefs, sense)
        if run.status == "optimal" and np.all(self._rows_at(run.x) <= self.b_le + _CERT_TOL):
            return const + run.objective, (run,)
        cold = self.solve(coefs, sense, t)
        return const + cold.objective, (run, cold)

    def _rows_at(self, x):
        """A x over every row of the program: a row holds at most 4 entries,
        which reduceat adds in order, so the sums are the CSR mat-vec's."""
        indptr, indices, values = self._csr
        return np.add.reduceat(values * x[indices], indptr[:-1])

    def objective(self, b):
        """Linear form (coefs, const) with const + coefs . S = P(Delta <= t).

        ``b`` is the staircase at t, ``_pairs_above(v1, v0, t)[:, 0]``: row i
        of the coupling has its first b_i cells above t. The breakpoints
        hold the run boundaries of b among ``rows`` and every b_i among
        ``cols``, so the weight 1{j >= b_i} of fine cell (i, j) is constant
        on each coarse cell.
        """
        return self.linear_form(self.cols[None, :-1] >= b[self.rows[:-1], None])

    def linear_form(self, weight):
        """Linear form (coefs, const) with const + coefs . S = sum weight * c.

        ``weight`` is (n1, n2) over the cell masses c(p, q) = S(r_{p+1}, c_{q+1})
        - S(r_p, c_{q+1}) - S(r_{p+1}, c_q) + S(r_p, c_q); boundary values of S
        are folded into const.
        """
        w = np.zeros((self.rows.size + 1, self.cols.size + 1))
        w[1:-1, 1:-1] = weight
        # d[a, b] is the coefficient of S(r_a, c_b), a in 0..n1, b in 0..n2
        d = w[:-1, :-1] - w[1:, :-1] - w[:-1, 1:] + w[1:, 1:]
        coefs, const = self.fold(d.ravel())
        return coefs, float(const)


def _start_masks(nvar: int, nrows: int, tag: str):
    """(col_basic, row_basic) of the independence copula rc/(m1 m2) in a
    ``run`` of ``nvar`` variables and ``nrows`` rows, or None under "none".

    It is a vertex of both restricted programs. SI: every S(r,c) strictly
    inside its bounds and basic, the j-direction concavity rows (tight, one
    nonsingular tridiagonal block per r) nonbasic, the i-direction ones
    (tight too) basic. PQD: every S(r,c) at its lower bound, every
    2-increasing row slack.
    """
    if tag == "SI":
        return np.ones(nvar, bool), np.tile([False, True], nvar)
    if tag == "PQD":
        return np.zeros(nvar, bool), np.ones(nrows, bool)
    return None


@functools.cache
def _start_basis(nvar: int, nrows: int, tag: str):
    """The ``HighsBasis`` of ``_start_masks``, or None: made once per shape and
    shared by every run of that shape, which HiGHS only reads."""
    masks = _start_masks(nvar, nrows, tag)
    return None if masks is None else _highs_basis(*masks)


def _copula_program(m1: int, m2: int, tag: str) -> _CopulaProgram:
    """The full program on the breakpoints 0..m1 and 0..m2."""
    return _CopulaProgram(np.arange(m1 + 1), np.arange(m2 + 1), tag)


def _staircase_form(tag: str, b):
    """(program, coefs, const): P(Delta <= t) of the staircase b on the coarse program it touches.

    The rows are 0, k and the run boundaries of b, the columns 0, k and the
    b_i (see ``_CopulaProgram``).
    """
    k = b.size
    rows = np.concatenate([[0], np.flatnonzero(b[1:] != b[:-1]) + 1, [k]])
    prog = _CopulaProgram(rows, np.unique(np.concatenate([[0], b, [k]])), tag)
    return (prog, *prog.objective(b))


def _staircase_sizes(staircases):
    """The variables (|R| - 2)(|C| - 2) of the coarse program of each column of staircases.

    Read off each staircase b as ``_staircase_form`` reads its breakpoints:
    |R| - 2 is the number of runs of b less one, and |C| the number of
    distinct values among 0, k and the b_i.
    """
    b = np.sort(staircases, axis=0)
    k = b.shape[0]
    cols = 1 + np.count_nonzero(np.diff(b, axis=0), axis=0) + (b[0] != 0) + (b[-1] != k)
    return np.count_nonzero(np.diff(staircases, axis=0), axis=0) * (cols - 2)


def _program_tag(assumptions: AssumptionSet) -> str:
    """The copula-program tag of an assumption set the coupling LP can impose."""
    tag = _PROGRAM_TAGS.get(assumptions.tag)
    if tag is None:
        raise ValueError(f"assumption {assumptions.tag} not supported for the coupling LP")
    return tag


class _Envelopes:
    """min and max of P(Delta <= t) on one t grid, each value found once.

    Side "min" is the lower envelope, "max" the upper one, as found, of the
    SI or PQD couplings (``tag``) of two grids, solved on demand. A value
    reads t only through ``staircases[:, idx]``, its staircase at
    t_grid[idx]: ``mass(side, idx)`` is the ``bound`` of the coarse program
    that staircase touches (``_staircase_form``), found once per distinct
    (side, staircase) and in the order asked. An index whose staircase the
    side has already solved recalls that value: an equal staircase gives the
    same program and costs, and so the same value. ``dense_pass`` finds the
    values that a list of oracles lack in one run of ``_on_workers``, the
    largest programs first (``_staircase_sizes``), and ``invert`` finds the
    two sides on ``_on_workers``. Every run is its program's ``run``, on the
    calling thread, from the program's start basis, so a value depends
    neither on the order in which values are asked for nor on the thread
    that found it. From the runs ``bound`` returns, ``solves`` counts the
    values that took a ``run``, ``fallbacks`` the cold solves, and
    ``iterations`` sums the simplex iterations of both; ``recalled`` counts
    the values kept from an equal staircase.

    ``brackets`` are closed-form floors and ceilings of each side, from
    ``_coupling_brackets``. Where a side's floor and ceiling meet, ``mass``
    (and so ``dense_pass``) keeps that exact value and solves nothing.
    ``reaches`` settles a probe the memo lacks from them when they clear tau
    by more than 1e-9 and solves it otherwise, so it decides as the LP
    would. ``decided`` counts both: each value so kept, once, and each probe
    so settled; with ``solves`` and ``recalled`` it accounts for every value
    that did not come from the zero-cost shortcut of ``bound``.
    ``first_reaching`` makes no probe that the brackets settle, so the
    settled probes are those made outside a search: the one at the last t
    that starts each side of ``invert``, and those of ``sim``.
    Each side keeps its own memo and counts, and the counts add them, min
    then max, so the two sides of ``invert`` never write the same state.
    """

    def __init__(self, t_grid, staircases, brackets: dict, tag: str):
        self.t_grid = _checked_t_grid(t_grid)
        self._staircases, self._brackets, self._tag = np.asarray(staircases), brackets, tag
        self._values = dict(zip(_SENSES, np.full((2, self.t_grid.size), np.nan)))
        # side -> {staircase bytes: value}
        self._found = {side: {} for side in _SENSES}
        self._counts = {
            side: dict.fromkeys(("solves", "fallbacks", "iterations", "decided", "recalled"), 0)
            for side in _SENSES
        }

    def _total(self, name: str) -> int:
        """A count of both sides, min then max."""
        return self._counts["min"][name] + self._counts["max"][name]

    solves = property(lambda self: self._total("solves"))
    fallbacks = property(lambda self: self._total("fallbacks"))
    iterations = property(lambda self: self._total("iterations"))
    decided = property(lambda self: self._total("decided"))
    recalled = property(lambda self: self._total("recalled"))

    @classmethod
    def of_values(cls, v1, v0, tag: str, t_grid=None) -> "_Envelopes":
        """Couplings of two k-atom grids, sorted, under SI or PQD.

        Each value is solved on the coarse program its staircase touches
        (``_staircase_form``). ``_envelope_rows`` builds the unrestricted
        envelopes by their closed form.
        """
        t = _coupling_t_grid(v1, v0, t_grid)
        _bindings()  # here, so that no worker of a dense pass imports a module
        above = _pairs_above(v1, v0, t)
        return cls(t, above, _coupling_brackets(v1, v0, t, above), tag)

    @classmethod
    def of_curves(cls, q1, q0, assumptions: AssumptionSet, k=None, t_grid=None) -> "_Envelopes":
        """``of_values`` on two quantile curves, read at k grid points."""
        tag = _program_tag(assumptions)
        v1, v0, _ = _curves_on_common_grid(q1, q0, k)
        return cls.of_values(v1, v0, tag, t_grid)

    def mass(self, side: str, idx) -> float:
        """The side's value at t_grid[idx], found the first time it is asked for."""
        values = self._values[side]
        if np.isnan(values[idx]) and not self._meets(side, idx) and not self._recalls(side, idx):
            self._keep(side, idx, self._bound(side, idx))
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
        self._counts[side]["decided"] += 1
        return True

    def _key(self, idx) -> bytes:
        """The staircase at t_grid[idx], as the key of its side's solved values."""
        return self._staircases[:, idx].tobytes()

    def _recalls(self, side: str, idx) -> bool:
        """Whether the side has solved the staircase at t_grid[idx], keeping that value if so."""
        value = self._found[side].get(self._key(idx))
        if value is None:
            return False
        self._values[side][idx] = value
        self._counts[side]["recalled"] += 1
        return True

    def _bound(self, side: str, idx):
        """The ``bound`` of the staircase at t_grid[idx]: (value, runs)."""
        prog, coefs, const = _staircase_form(self._tag, self._staircases[:, idx])
        return prog.bound(coefs, const, side, float(self.t_grid[idx]))

    def _keep(self, side: str, idx, found) -> None:
        """Keep a found (value, runs) for its index and its staircase, and count its runs."""
        value, runs = found
        self._values[side][idx] = value
        self._found[side][self._key(idx)] = value
        counts = self._counts[side]
        counts["solves"] += len(runs[:1])
        counts["fallbacks"] += len(runs[1:])
        counts["iterations"] += sum(run.iterations for run in runs)

    def _open(self):
        """(pending, solve, sizes) of a dense pass.

        It first keeps every missing value where the brackets meet. Then
        ``pending`` holds the (side, idx) still missing, every min in index
        order and then every max, ``solve`` the first of them of each
        distinct (side, staircase) the side has not solved, and ``sizes``
        the size of each one's program.
        """
        pending = [
            (side, idx)
            for side in _SENSES
            for idx in np.flatnonzero(np.isnan(self._values[side]))
            if not self._meets(side, idx)
        ]
        first = {}
        for side, idx in pending:
            if self._key(idx) not in self._found[side]:
                first.setdefault((side, self._key(idx)), (side, idx))
        solve = list(first.values())
        return pending, solve, _staircase_sizes(self._staircases[:, [idx for _, idx in solve]])

    def _close(self, pending, solve, found) -> None:
        """Keep what was found for ``solve``, in order; then every other
        pending index recalls its value."""
        for (side, idx), result in zip(solve, found):
            self._keep(side, idx, result)
        for side, idx in pending:
            if np.isnan(self._values[side][idx]):
                self._recalls(side, idx)

    @staticmethod
    def dense_pass(oracles) -> list:
        """(lower, upper) at every t of each oracle, what they lack found in one pass.

        Each oracle keeps every missing value where its brackets meet. The
        first index of each distinct (side, staircase) left open is then one
        item of ``_on_workers``, oracle by oracle, every min in index order
        and then every max, and the items run largest program first, ties in
        that order. The oracles keep them as a pass over each in turn would,
        in that order, and the other indices recall those values. Where an
        item raises, the pass raises what that serial order would raise
        first, and no oracle keeps a value the pass found.
        """
        plans = [env._open() for env in oracles]
        items = [(env, *item) for env, (_, solve, _) in zip(oracles, plans) for item in solve]
        sizes = np.concatenate([np.zeros(0)] + [sizes for _, _, sizes in plans])
        order = np.argsort(-sizes, kind="stable").tolist()
        found = _on_workers(items, lambda item: item[0]._bound(item[1], item[2]), order)
        at = 0
        for env, (pending, solve, _) in zip(oracles, plans):
            env._close(pending, solve, found[at : at + len(solve)])
            at += len(solve)
        return [(env._values["min"].copy(), env._values["max"].copy()) for env in oracles]

    def reaches(self, side: str, idx, tau: float) -> bool:
        """Whether the side reaches tau at t_grid[idx], up to LP rounding."""
        if np.isnan(self._values[side][idx]):
            floor, ceiling = self._brackets[side]
            if floor[idx] >= tau - _TAU_TOL + _CERT_TOL:
                self._counts[side]["decided"] += 1
                return True
            if ceiling[idx] < tau - _TAU_TOL - _CERT_TOL:
                self._counts[side]["decided"] += 1
                return False
        return self.mass(side, idx) >= tau - _TAU_TOL

    def first_reaching(self, side: str, tau: float, hi) -> int:
        """Smallest index in [0, hi] at which the side reaches tau, given that hi does.

        One scan of the brackets, by the margins of ``reaches``, narrows
        [0, hi] to the window [lo, hi] they leave open: every ceiling below lo
        falls short of tau, and hi becomes the first index whose floor
        reaches it. No probe outside the window is made. Inside it, each probe
        is one ``reaches`` at the first index at or past the point where the
        line between the heights of the two ends of the open window crosses
        tau. A height is the side's value where it has one, the midpoint of
        its brackets elsewhere, and 0 before the grid. The probe bisects
        instead, (lo + hi) // 2 over the open window, after the same end has
        moved twice running, once ceil(log2(hi - lo + 1)) probes are made, or
        where the end heights do not rise. So a search makes
        at most 2 ceil(log2(hi - lo + 1)) probes, and wherever reaching tau
        is monotone in the index it returns what a bisection of [0, hi] does.
        """
        floor, ceiling = self._brackets[side]
        values = self._values[side]
        hi = int(hi)
        level = tau - _TAU_TOL
        reach = np.flatnonzero(floor[:hi] >= level + _CERT_TOL)
        if reach.size:
            hi = int(reach[0])
        short = np.flatnonzero(ceiling[:hi] < level - _CERT_TOL)
        lo = int(short[-1]) + 1 if short.size else 0

        def height(idx):
            if idx < 0:
                return 0.0
            value = values[idx]
            return (floor[idx] + ceiling[idx]) / 2 if math.isnan(value) else value

        # short_end falls short of tau, reach_end reaches it
        short_end, short_at, reach_end, reach_at = lo - 1, height(lo - 1), hi, height(hi)
        guesses = (hi - lo).bit_length()
        moved, run = None, 0
        while reach_end - short_end > 1:
            if run < 2 and guesses > 0 and reach_at > short_at:
                ratio = min(max((tau - short_at) / (reach_at - short_at), 0.0), 1.0)
                idx = short_end + math.ceil(ratio * (reach_end - short_end))
                idx = min(max(idx, short_end + 1), reach_end - 1)
            else:
                idx = (short_end + 1 + reach_end) // 2
            guesses -= 1
            reached = self.reaches(side, idx, tau)
            if reached:
                reach_end, reach_at = idx, height(idx)
            else:
                short_end, short_at = idx, height(idx)
            run = run + 1 if reached == moved else 1
            moved = reached
        return reach_end

    def _inverse(self, side: str, tau: float):
        """(min{t : side reaches tau}, truncated), truncated if tau is off the side's range."""
        last = self.t_grid.size - 1
        if not self.reaches(side, last, tau):
            return float(self.t_grid[last]), True
        idx = self.first_reaching(side, tau, last)
        return float(self.t_grid[idx]), bool(idx == 0 and tau < self.mass(side, 0))

    def invert(self, tau: float) -> QoteBounds:
        """Quantile bounds: the lower envelope (searched first) gives the upper bound.

        Both sides are searched at once on ``_on_workers``; each side keeps
        its own memo and counts, so values and counts are those of a serial
        pass, and the min side's error is raised before the max side's.
        """
        if not 0.0 < tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        (upper, trunc_u), (lower, trunc_l) = _on_workers(
            _SENSES, functools.partial(self._inverse, tau=tau)
        )
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
    _program_tag(assumptions)
    v1, v0, _ = _curves_on_common_grid(q1, q0, k)
    t = _coupling_t_grid(v1, v0, t_grid)
    lower, upper = _envelope_rows(assumptions.tag, v1[None], v0[None], t[None])
    return DeltaCdfBounds(t, lower[0], upper[0])


def invert_bounds(b: DeltaCdfBounds, tau: float) -> QoteBounds:
    """Quantile bounds from CDF envelopes: invert upper for the lower bound.

    Returns grid values min{t : F(t) reaches tau}, one numpy pass over both
    envelopes; when tau falls outside the range an envelope spans on the
    grid, the corresponding endpoint is returned with a truncated flag.
    """
    lower, upper, trunc_l, trunc_u = (
        v.tolist() for v in _inverted_rows(b.t_grid, b.lower, b.upper, tau)
    )
    return QoteBounds(lower, upper, truncated_lower=trunc_l, truncated_upper=trunc_u)


def _inverted_rows(t_grid, lower, upper, tau: float):
    """``invert_bounds`` of every row of envelopes on its row of t_grid, in one pass.

    (lower, upper, truncated_lower, truncated_upper), each an array over the
    leading axes; checked as ``QoteBounds`` checks one interval.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    values = np.stack([lower, upper])
    reached = values >= tau - _TAU_TOL
    idx = reached.argmax(axis=-1)[..., None]
    found = np.take_along_axis(reached, idx, axis=-1)[..., 0]
    t = np.broadcast_to(t_grid, values.shape)
    ends = np.where(found, np.take_along_axis(t, idx, axis=-1)[..., 0], t[..., -1])
    trunc = ~found | ((idx[..., 0] == 0) & (tau < values[..., 0]))
    _check_qote_bounds(ends[1], ends[0])
    return ends[1], ends[0], trunc[1], trunc[0]


def qote_coupling_bounds(
    q1: QuantileCurve,
    q0: QuantileCurve,
    tau: float,
    assumptions: AssumptionSet = AssumptionSet(),
    k: Optional[int] = None,
    t_grid=None,
) -> QoteBounds:
    """Quantile bounds by inverting the coupling-LP envelopes.

    Identical to ``invert_bounds(coupling_lp_bounds(...), tau)``, which is
    what the unrestricted case runs; SI and PQD solve only the t values the
    search of each side probes where the closed-form brackets leave the
    answer open.
    """
    if _program_tag(assumptions) == "none":
        return invert_bounds(coupling_lp_bounds(q1, q0, assumptions, t_grid, k), tau)
    return _Envelopes.of_curves(q1, q0, assumptions, k, t_grid).invert(tau)


# ---------------------------------------------------------------------------
# Bernstein copula programs


def _bernstein_prime(m: int, nodes: np.ndarray) -> np.ndarray:
    """Derivatives of the degree-m Bernstein basis at the nodes, rows v=0..m."""
    from scipy.stats import binom  # here, so that importing the package skips scipy.stats

    out = np.zeros((m + 1, nodes.size))
    pm1 = np.vstack([binom.pmf(v, m - 1, nodes) for v in range(m)])
    for v in range(m + 1):
        hi = pm1[v - 1] if v >= 1 else 0.0
        lo = pm1[v] if v <= m - 1 else 0.0
        out[v] = m * (hi - lo)
    return out


def bernstein_lp_bounds(
    q1: QuantileCurve,
    q0: QuantileCurve,
    assumptions: AssumptionSet = AssumptionSet(),
    t_grid=None,
    m1: int = 15,
    m2: int = 15,
    quad_points: int = 200,
) -> DeltaCdfBounds:
    """Inner approximation of the envelopes of P(Delta <= t): Bernstein copulas of degrees (m1, m2).

    It optimises over the Bernstein copulas of degrees (m1, m2), optionally
    shape constrained, with the integral of the indicator against their
    density taken on a quad_points^2 tensor midpoint grid: one LP of the
    full program of coefficients per side and distinct staircase of the
    nodes. Those copulas are a subset of the couplings, so these envelopes
    lie inside the sharp ones (``coupling_lp_bounds``), and quantile bounds
    inverted from them can be narrower than the identified set. On a sample
    of 1,000 from subgroup 7 (``sim.draw_sample``, seed 7), at k = 50,
    m1 = m2 = 10 and 61 t points, the lower envelope lies up to 0.24 (SI)
    and 0.30 (PQD) above the coupling LP's.
    """
    tag = _program_tag(assumptions)
    if not (_is_positive_integer(m1) and _is_positive_integer(m2)):
        raise ValueError("degrees m1, m2 must be at least 1")
    if not _is_positive_integer(quad_points):
        raise ValueError("quad_points must be at least 1")
    t_grid = _checked_t_grid(default_t_grid(q1.values, q0.values) if t_grid is None else t_grid)
    nodes = (np.arange(quad_points) + 0.5) / quad_points
    q1n = _curve_values(q1, nodes)
    q0n = _curve_values(q0, nodes)
    a1 = _bernstein_prime(m1, nodes) / quad_points
    a0 = _bernstein_prime(m2, nodes) / quad_points
    # suffix sums over nodes, one extra zero column for "no node included"
    r0 = np.hstack([np.cumsum(a0[:, ::-1], axis=1)[:, ::-1], np.zeros((m2 + 1, 1))])
    prog = _copula_program(m1, m2, tag)
    above = _pairs_above(q1n, q0n, t_grid)
    _, first, inverse = np.unique(above, axis=1, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct staircases, in order of first appearance

    def bound(item):
        side, idx = item
        w = a1 @ r0[:, above[:, idx]].T  # (m1+1) x (m2+1) indicator integrals
        coefs, const = prog.fold(w.ravel())
        return prog.bound(coefs, float(const), side, float(t_grid[idx]))[0]

    found = np.empty((2, first.size))
    found[:, order] = np.reshape(
        _on_workers([(side, first[u]) for side in _SENSES for u in order], bound), (2, -1)
    )
    lower, upper = found[:, inverse.ravel()]
    return DeltaCdfBounds(t_grid, *_monotone_envelopes(lower, upper))


# ---------------------------------------------------------------------------
# point-identifying assumptions


def _point_rows(tag: str, v1, v0, tau: float):
    """(lower, upper, truncated_lower, truncated_upper) at tau of every row of grids, each a point.

    The rows run along the last axis. Rank invariance couples the grids
    comonotonically, so the tau-quantile of the effects is that of v1 - v0;
    symmetric effects put the median at the mean difference. Checked as
    ``QoteBounds`` checks one interval.
    """
    if tag == "RankInvariance":
        point = np.sort(v1 - v0, axis=-1)[..., _quantile_index(np.shape(v1)[-1], tau)]
    else:  # Symmetry
        point = np.mean(v1, axis=-1) - np.mean(v0, axis=-1)
    _check_qote_bounds(point, point)
    untruncated = np.zeros(np.shape(point), dtype=bool)
    return point, point, untruncated, untruncated


def rank_invariance_qote(q1: QuantileCurve, q0: QuantileCurve, tau: float) -> float:
    """Quantile of the comonotone-coupling effect: tau-quantile of {q1(u) - q0(u)}."""
    if q1.u_grid.size != q0.u_grid.size:
        raise ValueError("curves share grid resolution")
    return float(_point_rows("RankInvariance", q1.values, q0.values, tau)[0])


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
    Charnes-Cooper change of variables, whose rows are homogenised from the
    full program's CSR arrays. An auxiliary LP first verifies the conditioning
    event has positive mass under every feasible coupling.
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
    if prog.bound(e_coefs, e_const, "min", thr)[0] <= 1e-9:
        raise ValueError("conditioning event not uniformly positive")

    # Charnes-Cooper: variables (y, s) with s = 1 / P(event) and y = s * S. The
    # rows [A | -b_le], [I | -ub] and, with floors, [-I | lb] at most 0, then the
    # event row [e_coefs | e_const] equal to 1, as (row, column, value) triplets
    # stably sorted by row, so y entries come first and s last; zeros left out
    indptr, indices, values = prog._csr
    m, n, var = prog.b_le.size, prog.nvar, np.arange(prog.nvar)
    floors = np.any(prog.lb)
    blocks = [
        (np.repeat(np.arange(m), np.diff(indptr)), indices, values),
        (np.arange(m), np.full(m, n), -prog.b_le),
        (m + var, var, np.ones(n)),
        (m + var, np.full(n, n), -prog.ub),
    ]
    if floors:
        blocks += [(m + n + var, var, -np.ones(n)), (m + n + var, np.full(n, n), prog.lb)]
    le = m + (2 if floors else 1) * n  # the event row is row le
    blocks.append((np.full(n + 1, le), np.arange(n + 1), np.append(e_coefs, e_const)))
    row, col, val = (np.concatenate(part) for part in zip(*blocks))
    order = np.argsort(row, kind="stable")
    order = order[val[order] != 0]
    rows = np.append(0, np.cumsum(np.bincount(row[order], minlength=le + 1))).astype(np.int32)
    program = (
        (rows, col[order].astype(np.int32), val[order]),
        np.append(np.full(le, -np.inf), 1.0),
        np.append(np.zeros(le), 1.0),
        np.zeros(n + 1),
        np.full(n + 1, np.inf),
    )
    c = np.append(a_coefs, a_const)
    lo = _solve(c, "minimize", program, thr, prog.tag, prog.k).objective
    hi = _solve(c, "maximize", program, thr, prog.tag, prog.k).objective
    return Interval(float(lo), float(hi))


def _envelope_csvs(t_grid, lower, upper) -> list:
    """The ``t,lower,upper`` CSV text of every row of envelopes, at ``%.10g``, one ``%`` per row."""
    values = np.stack([t_grid, lower, upper], axis=-1)
    form = "t,lower,upper\n" + "%.10g,%.10g,%.10g\n" * values.shape[-2]
    return [form % tuple(row.tolist()) for row in values.reshape(-1, 3 * values.shape[-2])]
