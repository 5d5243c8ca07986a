"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: dense grids, exhaustive enumeration,
Monte Carlo, mpmath at high precision, or scipy primitives used directly.
Nothing imports the package. The test files also share three small helpers
from here: ``csr_arrays``, ``rows_matrix`` and
``assert_only_kept_threads_started``.
"""

import functools
import itertools
import threading
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.optimize
import scipy.sparse as sp
from scipy.special import ndtri


def normal_ppf(u, mu=0.0, sd=1.0):
    return mu + sd * ndtri(np.asarray(u, dtype=float))


def marginal_bounds_direct(ppf1, ppf0, tau, grid=20001, refine=3):
    """Quantile bounds from marginals only, by dense-grid optimization.

    lower = sup over u in (0, tau] of ppf1(u) - ppf0(1 + u - tau)
    upper = inf over u in [tau, 1) of ppf1(u) - ppf0(u - tau)
    """
    eps = 1e-9

    def best(lo, hi, objective, sense):
        pts = np.linspace(lo, hi, grid)
        vals = objective(pts)
        idx = int(np.argmax(vals) if sense == "max" else np.argmin(vals))
        for _ in range(refine):
            step = (hi - lo) / (grid - 1)
            lo2 = max(lo, pts[idx] - 2 * step)
            hi2 = min(hi, pts[idx] + 2 * step)
            pts = np.linspace(lo2, hi2, grid)
            vals = objective(pts)
            idx = int(np.argmax(vals) if sense == "max" else np.argmin(vals))
            lo, hi = lo2, hi2
        return float(vals[idx])

    lower = best(eps, tau, lambda u: ppf1(u) - ppf0(1 + u - tau), "max")
    upper = best(tau, 1 - eps, lambda u: ppf1(u) - ppf0(u - tau), "min")
    return lower, upper


def lp_vertices(a_eq, b_eq, tol=1e-9):
    """All basic feasible solutions of {x >= 0, Ax = b} by enumeration."""
    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    m, n = a_eq.shape
    r = np.linalg.matrix_rank(a_eq)
    seen = set()
    out = []
    for cols in itertools.combinations(range(n), r):
        sub = a_eq[:, cols]
        if np.linalg.matrix_rank(sub) < r:
            continue
        sol, *_ = np.linalg.lstsq(sub, b_eq, rcond=None)
        x = np.zeros(n)
        x[list(cols)] = sol
        if np.any(x < -tol):
            continue
        if np.max(np.abs(a_eq @ x - b_eq)) > 1e-7:
            continue
        key = tuple(np.round(x, 9))
        if key not in seen:
            seen.add(key)
            out.append(np.maximum(x, 0.0))
    return out


def polytope_vertices(a_le, b_le, lower, upper, tol=1e-9):
    """All vertices of {x : a_le x <= b_le, lower <= x <= upper} by enumeration.

    Every choice of n linearly independent constraints, held tight, fixes a
    point; the feasible ones are the vertices. Dense and exhaustive, so for
    a handful of variables only.
    """
    a_le = np.asarray(a_le, dtype=float)
    n = a_le.shape[1]
    eye = np.eye(n)
    a = np.vstack([a_le, -eye, eye])
    b = np.concatenate([np.asarray(b_le, dtype=float), -np.asarray(lower), np.asarray(upper)])
    seen, out = set(), []
    for rows in itertools.combinations(range(a.shape[0]), n):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(a @ x <= b + tol):
            key = tuple(np.round(x, 9))
            if key not in seen:
                seen.add(key)
                out.append(x)
    return out


def bilinear_refinement(s, rows, cols):
    """Values on the full grid 0..rows[-1] x 0..cols[-1] of the bilinear
    interpolation of s, given on the breakpoints rows x cols."""
    s = np.asarray(s, dtype=float)
    fine_r, fine_c = np.arange(rows[-1] + 1), np.arange(cols[-1] + 1)
    along_c = np.stack([np.interp(fine_c, cols, line) for line in s])
    return np.stack([np.interp(fine_r, rows, line) for line in along_c.T]).T


def brute_force_lp(c, a_eq, b_eq, sense="min"):
    """Optimal value of a standard-form LP by vertex enumeration."""
    vertices = lp_vertices(a_eq, b_eq)
    if not vertices:
        return None
    vals = [float(np.dot(c, v)) for v in vertices]
    return min(vals) if sense == "min" else max(vals)


def rows_matrix(prog):
    """The rows of a copula program, its CSR arrays ``prog._csr``, as one
    scipy.sparse CSR matrix over its ``prog.nvar`` variables."""
    indptr, indices, values = prog._csr
    return sp.csr_matrix((values, indices, indptr), shape=(indptr.size - 1, prog.nvar))


def charnes_cooper_program(prog, e_coefs, e_const):
    """(rows, row_lower, row_upper, lower, upper) of the Charnes-Cooper
    program of a copula program and an event form, built with scipy.sparse
    stacks: variables (y, s) with y = s * S; the rows [A | -b_le], [I | -ub]
    and, where a floor is nonzero, [-I | lb] at most 0, then the event row
    [e_coefs | e_const] equal to 1. ``csr_matrix`` of a dense block drops its
    zeros, and the stacks keep each block's entries in order."""
    eye = sp.identity(prog.nvar, format="csr")
    rows = [
        sp.hstack([rows_matrix(prog), sp.csr_matrix(-prog.b_le[:, None])]),
        sp.hstack([eye, sp.csr_matrix(-prog.ub[:, None])]),
    ]
    if np.any(prog.lb):
        rows.append(sp.hstack([-eye, sp.csr_matrix(prog.lb[:, None])]))
    a_le = sp.vstack(rows, format="csr")
    a = sp.vstack([a_le, sp.csr_matrix(np.append(e_coefs, e_const)[None, :])], format="csr")
    m, n = a_le.shape
    return (
        (a.indptr, a.indices, a.data),
        np.append(np.full(m, -np.inf), 1.0),
        np.append(np.zeros(m), 1.0),
        np.zeros(n),
        np.full(n, np.inf),
    )


def csr_arrays(a):
    """(indptr, indices, values) of a dense or scipy.sparse matrix: the rows
    as a solver that takes CSR arrays gets them."""
    m = sp.csr_matrix(a if sp.issparse(a) else np.atleast_2d(np.asarray(a, dtype=float)), dtype=float)
    return m.indptr, m.indices, m.data


def assert_only_kept_threads_started(before, kept, most):
    """Every thread alive now was alive in ``before`` or is in ``kept``, a
    pool of threads kept between calls, which holds at most ``most`` of them
    unless it held more before."""
    kept = set(kept)
    assert set(threading.enumerate()) <= set(before) | kept
    assert len(kept) <= max(most, len(kept & set(before)))


def coupling_constraints(k):
    """Equality system for k x k couplings with uniform 1/k marginals."""
    a = np.zeros((2 * k, k * k))
    for i in range(k):
        a[i, i * k : (i + 1) * k] = 1.0
        a[k + i, i::k] = 1.0
    return a, np.full(2 * k, 1.0 / k)


def raw_shape_rows(k, tag):
    """Rows (a_le, b_le) of a shape restriction on the raw masses c(i,j).

    Masses are flattened row-major, row i indexing Y1 and column j Y0. "SI"
    asks each margin to be stochastically increasing in the other: the mass
    of rows below i never falls from column j to j + 1, and the mass of
    columns right of j never falls from row i to i + 1. "PQD" asks the
    coupling CDF to dominate independence at every interior grid point.
    "NoAssumption" has no rows.
    """
    rows, rhs = [], []
    for i in range(k - 1):
        for j in range(k - 1):
            if tag == "SI":
                r = np.zeros((k, k))
                r[i + 1 :, j], r[i + 1 :, j + 1] = 1.0, -1.0
                rows.append(r.ravel())
                r = np.zeros((k, k))
                r[i, j + 1 :], r[i + 1, j + 1 :] = 1.0, -1.0
                rows.append(r.ravel())
                rhs += [0.0, 0.0]
            elif tag == "PQD":
                r = np.zeros((k, k))
                r[: i + 1, : j + 1] = -1.0
                rows.append(r.ravel())
                rhs.append(-((i + 1) * (j + 1)) / (k * k))
    return np.reshape(rows, (len(rows), k * k)), np.asarray(rhs)


def raw_coupling_lp(v1, v0, t, sense, tag="NoAssumption"):
    """min or max of P(v1_i - v0_j <= t) over k x k couplings, as one LP in c.

    Returns (value, optimal coupling). The couplings have uniform 1/k
    margins and satisfy ``raw_shape_rows(k, tag)``.
    """
    k = v1.size
    weights = ((v1[:, None] - v0[None, :]) <= t).ravel().astype(float)
    sign = 1.0 if sense == "min" else -1.0
    ones = np.ones((1, k))
    a_eq = sp.vstack([sp.kron(sp.identity(k), ones), sp.kron(ones, sp.identity(k))])
    a_le, b_le = raw_shape_rows(k, tag)
    res = scipy.optimize.linprog(
        sign * weights, A_eq=a_eq, b_eq=np.full(2 * k, 1.0 / k),
        A_ub=a_le if b_le.size else None, b_ub=b_le if b_le.size else None,
        bounds=(0, None), method="highs",
    )
    assert res.status == 0, res.message
    return sign * res.fun, res.x.reshape(k, k)


def assignment_coupling_mass(v1, v0, t, sense):
    """min or max of P(v1_i - v0_j <= t) over k x k couplings with 1/k margins.

    Those couplings form the Birkhoff polytope scaled by 1/k, whose vertices
    are the permutation couplings, so the optimum is an assignment problem on
    the 0/1 staircase matrix, solved exactly and scaled by 1/k.
    """
    weights = (v1[:, None] - v0[None, :]) <= t
    rows, cols = scipy.optimize.linear_sum_assignment(weights, maximize=sense == "max")
    return float(weights[rows, cols].sum()) / v1.size


def permutation_couplings(k):
    """The vertices of the uniform-marginal coupling polytope."""
    out = []
    for perm in itertools.permutations(range(k)):
        c = np.zeros((k, k))
        c[np.arange(k), list(perm)] = 1.0 / k
        out.append(c)
    return out


def cvar_ratio(c, v1, v0, threshold):
    """E[Delta | Delta < threshold] under coupling c, or None if P = 0."""
    diffs = v1[:, None] - v0[None, :]
    event = diffs < threshold
    p = float(np.sum(c[event]))
    if p <= 1e-12:
        return None
    return float(np.sum((c * diffs)[event]) / p)


def cvar_bounds_by_permutations(v1, v0, threshold):
    """Exact unrestricted-coupling conditional-mean bounds for small k."""
    vals = []
    for c in permutation_couplings(v1.size):
        r = cvar_ratio(c, v1, v0, threshold)
        if r is not None:
            vals.append(r)
    return min(vals), max(vals)


def random_vertex_cvar(v1, v0, threshold, a_eq, b_eq, a_le, b_le, nobj, seed):
    """Conditional-mean range over sampled vertices of a coupling polytope.

    Optimizing a random linear objective lands on a vertex; linear-fractional
    objectives attain their extrema at vertices, so evaluating the ratio at
    enough sampled vertices brackets the truth from inside. Returns the range
    and the sampled couplings for independent feasibility checks.
    """
    rng = np.random.default_rng(seed)
    k = v1.size
    lo, hi = np.inf, -np.inf
    couplings = []
    for _ in range(nobj):
        c_obj = rng.normal(size=k * k)
        res = scipy.optimize.linprog(
            c_obj, A_eq=a_eq, b_eq=b_eq, A_ub=a_le, b_ub=b_le,
            bounds=(0, None), method="highs",
        )
        assert res.status == 0
        c = res.x.reshape(k, k)
        couplings.append(c)
        r = cvar_ratio(c, v1, v0, threshold)
        if r is not None:
            lo, hi = min(lo, r), max(hi, r)
    return lo, hi, couplings


def minimax_delta_grid(lower, upper, step=0.001):
    """Brute-force minimizer of the committed-adversary cell regret."""
    grid = np.arange(0.0, 1.0 + step / 2, step)
    worst = np.maximum(
        (1 - grid) * max(upper, 0.0), grid * max(-lower, 0.0)
    )
    i = int(np.argmin(worst))
    return float(grid[i]), float(worst[i])


def joint_draws(dgp, ndraws, seed):
    """ndraws joint (Y1, Y0) of a spec with the fields of ``sim.DgpSpec``.

    Y1 = h(mu1 + sd1 z0) and Y0 = h(mu0 + sd0 (rho z0 + sqrt(1 - rho^2) z1)),
    h the identity or exp, from one (ndraws, 2) block of standard normals:
    the draws the package's samples are made of for the same seed.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((ndraws, 2))
    y1 = dgp.mu1 + np.sqrt(dgp.var1) * z[:, 0]
    y0 = dgp.mu0 + np.sqrt(dgp.var0) * (
        dgp.rho * z[:, 0] + np.sqrt(1 - dgp.rho**2) * z[:, 1]
    )
    if dgp.lognormal:
        y1, y0 = np.exp(y1), np.exp(y0)
    return y1, y0


def mp_lognormal_qote(dgp, tau, guess, dps=40):
    """The tau-quantile of Y1 - Y0 under a lognormal spec with |rho| < 1, in
    mpmath at dps digits, from the spec's fields and tau as exact binary values.

    P(Y1 - Y0 <= t) is the integral over z0 of phi(z0) P(Y0 >= Y1 - t | z0),
    which is phi(z0) where Y1 = exp(mu1 + sd1 z0) <= t: mp.quad over the real
    line with that kink as a breakpoint. mp.findroot solves the CDF = tau to
    1e-30 from guess.
    """
    with mpmath.workdps(dps):
        mu1, mu0, rho, tau = (mpmath.mpf(x) for x in (dgp.mu1, dgp.mu0, dgp.rho, tau))
        sd1, sd0 = mpmath.sqrt(mpmath.mpf(dgp.var1)), mpmath.sqrt(mpmath.mpf(dgp.var0))
        sd = sd0 * mpmath.sqrt(1 - rho**2)

        def cdf(t):
            def integrand(z):
                y1 = mpmath.exp(mu1 + sd1 * z)
                if y1 <= t:
                    return mpmath.npdf(z)
                return mpmath.npdf(z) * mpmath.ncdf((mu0 + sd0 * rho * z - mpmath.log(y1 - t)) / sd)

            kink = [(mpmath.log(t) - mu1) / sd1] if t > 0 else []
            return mpmath.quad(integrand, [-mpmath.inf, *kink, mpmath.inf])

        return mpmath.findroot(lambda t: cdf(t) - tau, mpmath.mpf(guess), tol=mpmath.mpf("1e-30"))


@functools.lru_cache(maxsize=64)
def mc_qote(dgp, tau, ndraws, seed):
    """Monte Carlo tau-quantile of Y1 - Y0 from ndraws joint draws."""
    y1, y0 = joint_draws(dgp, ndraws, seed)
    delta = y1 - y0
    idx = int(np.ceil(tau * ndraws)) - 1
    delta.partition(idx)
    return float(delta[idx])


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


def full_grid(prog, x):
    """The copula values of a grid-copula program's solution on its breakpoints.

    ``prog`` has integer breakpoints ``rows`` (0..m1) and ``cols`` (0..m2)
    and ``nvar`` interior variables; x holds S(r, c) at the interior
    breakpoints, row-major. The boundary is S(0, .) = S(., 0) = 0,
    S(m1, c) = c/m2 and S(r, m2) = r/m1.
    """
    rows, cols = np.asarray(prog.rows), np.asarray(prog.cols)
    s = np.zeros((rows.size, cols.size))
    s[-1, :] = cols / cols[-1]
    s[:, -1] = rows / rows[-1]
    if prog.nvar:
        s[1:-1, 1:-1] = np.asarray(x).reshape(rows.size - 2, cols.size - 2)
    return s


def is_two_increasing(c, tol=1e-9):
    return bool(np.all(np.asarray(c) >= -tol))


def si_partial_sums_ok(c, tol=1e-9):
    """Mutual stochastic increasingness on a k x k coupling c[i, j]: the tail
    mass of row index i' >= i given column j is nondecreasing in j, and the
    tail mass of column index j' >= j given row i is nondecreasing in i."""
    c = np.asarray(c)
    for m in (c, c.T):
        tails = np.cumsum(m[::-1, :], axis=0)[::-1, :]  # sum over i' >= i
        if np.any(np.diff(tails[1:, :], axis=1) < -tol):
            return False
    return True
