"""Bivariate (log-)normal data-generating processes with known truths, plus
the replication harness for the classification-rate and regret tables.

Each DGP plays the role of one covariate cell, so samples carry no covariate
columns and the estimated rules are scalars. The minimax rules only enter the
tables through their majority action, which lets the harness decide treat or
not by probing the CDF envelopes at a handful of t values instead of tracing
whole bound curves; the probes reproduce exactly what dense envelope
inversion over the same t grid would decide, through one SI envelope oracle
of ``bounds`` per replication. The replications run on ``bounds._on_workers``,
up to one per usable CPU, each on its own oracle; their actions, and the first
error in replication order, are those of a serial pass.

The truths the rules are scored against are exact: closed forms on the normal
specs, and on the lognormal ones closed-form QTE and ATE transforms with the
quantile of Y1 - Y0 from ``exact_qote``: one adaptive Gauss-Kronrod pass
over the shared standard normal factor z0 per CDF value, evaluated in numpy
over all its panels at once, and a Brent root find in t to full precision;
on a law too narrow for that quadrature, the quantile of its normal
linearisation, which is as accurate there. No truth comes from Monte Carlo
draws. scipy's ``ndtr``, ``brentq`` and ``ndtri`` load in the functions that
call them, so importing the module loads no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .bounds import (
    DEFAULT_K,
    DEFAULT_T_POINTS,
    AssumptionSet,
    QoteBounds,
    _Envelopes,
    _on_workers,
    _staircase_qote,
    default_t_grid,
    qote_coupling_bounds,
)
from .lpcore import _bindings
from .marginals import (
    QuantileCurve,
    Sample,
    empirical_quantile,
    make_y_grid,
    u_grid,
)
from .policy import mmr_deterministic

ESTIMATORS = (
    "mmr_stoch_SI",
    "mmr_stoch_none",
    "mmr_determ_SI",
    "mmr_determ_none",
    "qte",
    "ate",
)
CRITERIA = ("qote", "qte", "ate")

_QUAD_TOL = 1e-10  # largest error estimate accepted for one CDF integral
_Z_REACH = 10.0  # the standard normal factor beyond +-10 carries 1.5e-23 of its mass
_W_FLOOR = -50.0  # z0 within e^-50 = 2e-22 of a half-stretch's end carries under 1e-22 of chance
# first panels, narrowing towards w = 0, where z0 = end +- half e^w moves fastest;
# subgroup 8's CDF values need no bisection on them
_W_EDGES = np.array([_W_FLOOR, -24.0, -12.0, -6.0, -3.0, -1.5, -0.5, 0.0])
_PANEL_CAP = 200  # panels per half-stretch, as QUADPACK's limit=200
_INV_ROOT_2PI = math.sqrt(0.5 / math.pi)

# QUADPACK's 21-point Kronrod rule (qk21) and the 10-point Gauss rule nested in
# it, on [-1, 1] (Piessens et al., QUADPACK, Springer 1983)
_KRONROD_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_KRONROD_W = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077589519691950, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_KRONROD_W0 = 0.149445554002916905664936468389821  # at the centre
_GAUSS_W = (  # at the second, fourth, ... tenth Kronrod node
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651146,
)
_GK_NODES = np.array([*(-x for x in _KRONROD_X), 0.0, *reversed(_KRONROD_X)])
_GK_KRONROD = np.array([*_KRONROD_W, _KRONROD_W0, *reversed(_KRONROD_W)])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _GAUSS_W
_GK_GAUSS[11:] = _GK_GAUSS[9::-1]


@dataclass(frozen=True)
class DgpSpec:
    """Joint potential-outcome law: (Y1, Y0) or (log Y1, log Y0) bivariate
    normal with means (mu1, mu0), variances (var1, var0), correlation rho."""

    mu1: float
    mu0: float
    var1: float
    var0: float
    rho: float
    lognormal: bool = False
    p_treat: float = 0.5

    def __post_init__(self):
        for name in ("mu1", "mu0", "var1", "var0", "rho", "p_treat"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.var1 <= 0 or self.var0 <= 0:
            raise ValueError("variances must be positive")
        if abs(self.rho) > 1:
            raise ValueError("rho must lie in [-1, 1]")
        if not 0 < self.p_treat < 1:
            raise ValueError("p_treat must lie in (0, 1)")


@dataclass(frozen=True)
class TruthSet:
    """Population targets: tau-quantile of Y1-Y0, quantile difference, mean
    difference, and whether stochastic increasingness holds (rho >= 0)."""

    qote: float
    qte: float
    ate: float
    si_holds: bool


@dataclass(frozen=True)
class RateTable:
    """Rows of (estimator, criterion, value); value is a rate or a regret."""

    rows: Tuple[Tuple[str, str, float], ...]

    def value(self, estimator: str, criterion: str) -> float:
        for est, crit, v in self.rows:
            if est == estimator and crit == criterion:
                return v
        raise KeyError((estimator, criterion))


# Table of simulation cells: 1-4 and 7 are normal with SI, 5-6 violate SI,
# 8 is lognormal with SI. Parameters for 8 are on the log scale; its printed
# source lists var0 = 8, but every derived quantity there (quantile
# difference 4.28, log-mean gap -1.5, the SI interval, the mean-rule rates)
# requires var0 = 11, so 11 is what reproduces the tables.
SUBGROUPS: Dict[int, DgpSpec] = {
    1: DgpSpec(2.0, 3.0, 1.0, 9.0, 0.5),
    2: DgpSpec(4.0, 3.0, 1.0, 25.0, 0.5),
    3: DgpSpec(7.0, 3.0, 9.0, 25.0, 0.5),
    4: DgpSpec(3.0, 1.0, 5.0, 5.0, 0.1),
    5: DgpSpec(3.0, 2.0, 9.0, 1.0, -0.5),
    6: DgpSpec(3.0, 0.0, 25.0, 4.0, -0.5),
    7: DgpSpec(2.0, 0.0, 8.0, 4.0, 0.5),
    8: DgpSpec(3.0, 0.0, 2.0, 11.0, 0.8, lognormal=True),
}


def closed_form_truths(dgp: DgpSpec, tau: float) -> TruthSet:
    """Exact targets for a normal (non-lognormal) spec."""
    if dgp.lognormal:
        raise ValueError(
            "no closed form for the lognormal quantile of Y1 - Y0; use "
            "exact_qote's quadrature"
        )
    if not 0 < tau < 1:
        raise ValueError("tau must lie strictly between 0 and 1")
    from scipy.special import ndtri  # here, so that importing the package skips scipy

    s1, s0 = np.sqrt(dgp.var1), np.sqrt(dgp.var0)
    z = float(ndtri(tau))
    sd_delta = float(np.sqrt(dgp.var1 + dgp.var0 - 2 * dgp.rho * s1 * s0))
    return TruthSet(
        qote=dgp.mu1 - dgp.mu0 + z * sd_delta,
        qte=dgp.mu1 - dgp.mu0 + z * (s1 - s0),
        ate=dgp.mu1 - dgp.mu0,
        si_holds=dgp.rho >= 0,
    )


def truths_for(dgp: DgpSpec, tau: float) -> TruthSet:
    """Exact targets for any spec: the closed forms on a normal spec; on a
    lognormal one the QTE and ATE transforms in closed form and the quantile
    of Y1 - Y0 from ``exact_qote``'s quadrature."""
    if not dgp.lognormal:
        return closed_form_truths(dgp, tau)
    from scipy.special import ndtri  # here, so that importing the package skips scipy

    s1, s0 = np.sqrt(dgp.var1), np.sqrt(dgp.var0)
    z = float(ndtri(tau))
    return TruthSet(
        qote=exact_qote(dgp, tau),
        qte=float(np.exp(dgp.mu1 + z * s1) - np.exp(dgp.mu0 + z * s0)),
        ate=float(
            np.exp(dgp.mu1 + dgp.var1 / 2) - np.exp(dgp.mu0 + dgp.var0 / 2)
        ),
        si_holds=dgp.rho >= 0,
    )


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


def _log_sum(a: float, b: float) -> float:
    """log(e^a + e^b) without forming either exponential."""
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def _checked_brentq(f, lo: float, hi: float, what: str) -> float:
    """The root of f on [lo, hi] to full double precision (brentq's smallest rtol)."""
    from scipy.optimize import brentq  # here, so that importing the package skips scipy

    try:
        root, res = brentq(
            f, lo, hi, xtol=1e-16, rtol=4 * np.finfo(float).eps, maxiter=200,
            full_output=True, disp=False,
        )
    except ValueError as exc:  # no sign change on the bracket
        raise ValueError(f"{what}: {exc}") from None
    if not res.converged:
        raise ValueError(f"{what}: Brent's method did not converge ({res.flag})")
    return float(root)


def _gauss_kronrod(f, owner, lo, hi):
    """QUADPACK's qk21 on every panel [lo, hi] of a non-negative f(owner, w) at
    once: each panel's Kronrod value and its error estimate."""
    half = 0.5 * (hi - lo)
    fx = f(owner, (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES)
    kronrod = fx @ _GK_KRONROD
    diff = np.abs(kronrod - fx @ _GK_GAUSS)
    spread = np.abs(fx - 0.5 * kronrod[:, None]) @ _GK_KRONROD
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200 * diff / spread) ** 1.5)
    err = np.where((spread != 0) & (diff != 0), scaled, diff)
    err = np.maximum(err, 50 * np.finfo(float).eps * kronrod)  # the rounding floor
    return kronrod * half, err * half


def _adaptive_gauss_kronrod(f, n, budget):
    """The sum over s < n of the integrals of f(s, w) over [_W_FLOOR, 0], and
    the sum of their error estimates.

    One error budget covers all n integrals, as in QUADPACK's qags: each
    round bisects the fewest panels, largest error first, whose errors leave
    under half the budget on the rest, until the sum is within the budget or
    a bisection would give some integral more than _PANEL_CAP panels.
    """
    owner = np.repeat(np.arange(n), len(_W_EDGES) - 1)
    lo, hi = np.tile(_W_EDGES[:-1], n), np.tile(_W_EDGES[1:], n)
    value, err = _gauss_kronrod(f, owner, lo, hi)
    while (total := err.sum()) > budget:
        order = np.argsort(-err)
        split = order[: np.searchsorted(np.cumsum(err[order]), total - budget / 2) + 1]
        panels = np.bincount(owner, minlength=n) + np.bincount(owner[split], minlength=n)
        if panels.max() > _PANEL_CAP:
            break
        mid = 0.5 * (lo[split] + hi[split])
        children = (np.tile(owner[split], 2), np.r_[lo[split], mid], np.r_[mid, hi[split]])
        children += _gauss_kronrod(f, *children)
        keep = np.ones(len(err), bool)
        keep[split] = False
        owner, lo, hi, value, err = (
            np.concatenate([a[keep], b]) for a, b in zip((owner, lo, hi, value, err), children)
        )
    return float(value.sum()), float(err.sum())


def _delta_cdf(dgp: DgpSpec, t: float) -> float:
    """P(Y1 - Y0 <= t) as one integral over the standard normal factor z0 of Y1.

    Given z0, Y1 = h1(z0) is known and Y0 (or log Y0) is normal with mean
    m0(z0) = mu0 + sd0 rho z0 and sd sd0 sqrt(1 - rho^2), so the integrand is
    phi(z0) P(Y0 >= h1(z0) - t | z0), a normal CDF on the outcome's scale.
    On the log scale it is phi(z0) where h1(z0) <= t, and log(h1(z0) - t) is
    formed from log h1(z0) and t alone, so no variance overflows.

    The integrand steps between 0 and 1 where Y0's conditional median meets
    h1(z0) - t, as sharply as the conditional sd is small. The median
    difference g(z0) = h1(z0) - h0(m0(z0)) is linear, or a difference of two
    exponentials with at most one turning point, so it meets t at most once
    on each side of that point. Those meeting points, the turning point and
    the log scale's kink h1(z0) = t are breakpoints, and each stretch between
    two of them is integrated from both of its ends over log |z0 - end|, so
    a step of any width at a breakpoint spans a unit or so of the variable
    and no step falls between the quadrature's nodes unseen. At |rho| = 1,
    where Y1 - Y0 = g(z0), the CDF is the normal measure of
    {z0 : g(z0) <= t}, whose ends are the meeting points.

    All half-stretches are integrated together (``_adaptive_gauss_kronrod``):
    QUADPACK's 21/10-point Gauss-Kronrod pair on every panel at once, one
    error budget of _QUAD_TOL / 100 over the whole CDF value, at most
    _PANEL_CAP panels per half-stretch. Raises ValueError when the summed
    error estimate misses _QUAD_TOL.
    """
    s1, s0 = math.sqrt(dgp.var1), math.sqrt(dgp.var0)
    s0r = s0 * dgp.rho
    sd = s0 * math.sqrt(1 - dgp.rho**2)
    log_t = math.log(t) if t > 0 else None

    def slack(z):  # the sign of t - g(z), finite on the log scale too
        x1, x0 = dgp.mu1 + s1 * z, dgp.mu0 + s0r * z
        if not dgp.lognormal:
            return x0 + t - x1
        if log_t is not None:
            return _log_sum(x0, log_t) - x1
        return x0 - (_log_sum(x1, math.log(-t)) if t < 0 else x1)

    knots = [-_Z_REACH, _Z_REACH]
    if dgp.lognormal and s0r > 0 and s1 != s0r:
        turn = (dgp.mu0 - dgp.mu1 + math.log(s0r / s1)) / (s1 - s0r)
        if -_Z_REACH < turn < _Z_REACH:
            knots.insert(1, turn)
    meets = [
        _checked_brentq(slack, a, b, f"g(z0) = {t!r}")
        for a, b in zip(knots, knots[1:])
        if (slack(a) < 0) != (slack(b) < 0)
    ]
    if sd == 0:
        total, inside = 0.0, slack(-_Z_REACH) >= 0
        edges = [-math.inf, *meets, math.inf]
        for a, b in zip(edges, edges[1:]):
            if inside:
                total += _norm_cdf(b) - _norm_cdf(a)
            inside = not inside
        return total

    from scipy.special import ndtr  # here, so that importing the package skips scipy

    mu1, mu0, lognormal = dgp.mu1, dgp.mu0, dgp.lognormal
    log_neg_t = math.log(-t) if t < 0 else None

    def integrand(z):
        x1 = mu1 + s1 * z
        weight = np.exp(-0.5 * z * z) * _INV_ROOT_2PI
        if not lognormal:
            bar = x1 - t
        elif log_t is not None:
            below = x1 <= log_t
            with np.errstate(divide="ignore", invalid="ignore"):
                bar = x1 + np.log(-np.expm1(log_t - x1))
            return np.where(below, weight, weight * ndtr((mu0 + s0r * z - bar) / sd))
        else:
            bar = np.logaddexp(x1, log_neg_t) if t < 0 else x1
        return weight * ndtr((mu0 + s0r * z - bar) / sd)

    breaks = {*meets, *knots[1:-1]}
    if dgp.lognormal and log_t is not None:
        kink = (log_t - dgp.mu1) / s1
        if -_Z_REACH < kink < _Z_REACH:
            breaks.add(kink)
    ends = np.array([-_Z_REACH, *sorted(breaks), _Z_REACH])
    # each stretch from both ends: z = start + side half e^w for w in [_W_FLOOR, 0],
    # so the two halves meet at the midpoint exactly
    starts = np.concatenate([ends[:-1], ends[1:]])
    sides = np.repeat([1.0, -1.0], len(ends) - 1)
    halves = np.tile(0.5 * np.diff(ends), 2)

    def stretch(owner, w):
        e = halves[owner, None] * np.exp(w)
        return integrand(starts[owner, None] + sides[owner, None] * e) * e

    value, err = _adaptive_gauss_kronrod(stretch, len(starts), _QUAD_TOL / 100)
    if not err <= _QUAD_TOL:
        raise ValueError(
            f"P(Y1 - Y0 <= {t!r}): quadrature error estimate "
            f"{err:.3g} misses {_QUAD_TOL:g}"
        )
    return value


def _linearised_qote(dgp: DgpSpec, tau: float) -> Optional[float]:
    """The tau-quantile of Y1 - Y0 on a lognormal spec whose law is too
    narrow for the quadrature, or None on one it resolves.

    With sj = sqrt(varj), Yj = e^muj (1 + sj Zj + r(sj Zj)) and
    r(x) = e^x - 1 - x, so Y1 - Y0 is the normal law e^mu1 - e^mu0 +
    e^mu1 s1 Z1 - e^mu0 s0 Z0 plus a rest that stays below the sum over the
    arms of e^muj r(sj _Z_REACH) wherever |Z1|, |Z0| <= _Z_REACH. Where that
    bound is within _QUAD_TOL max(1, |quantile|), the accuracy
    ``exact_qote`` promises, the normal law's quantile is returned: there
    the conditional law of Y0 is a step so narrow against its O(1) terms
    that rounding swamps the quadrature's integrand.
    """
    from scipy.special import ndtri  # here, so that importing the package skips scipy

    def rest(mu, var):  # the bound on one arm's rest
        x = _Z_REACH * math.sqrt(var)
        return math.exp(mu) * (math.expm1(x) - x) if x < 1 else math.inf

    a, b = math.exp(dgp.mu1) * math.sqrt(dgp.var1), math.exp(dgp.mu0) * math.sqrt(dgp.var0)
    sd = math.hypot(a - b, math.sqrt(2 * (1 - dgp.rho) * a) * math.sqrt(b))
    linear = math.exp(dgp.mu1) - math.exp(dgp.mu0) + float(ndtri(tau)) * sd
    if rest(dgp.mu1, dgp.var1) + rest(dgp.mu0, dgp.var0) <= _QUAD_TOL * max(1.0, abs(linear)):
        return linear
    return None


@functools.lru_cache(maxsize=64)
def exact_qote(dgp: DgpSpec, tau: float) -> float:
    """Exact tau-quantile of Y1 - Y0 under any spec, to about 1e-10 times
    max(1, |quantile|); on subgroup 8 within 1e-14 times that of a 40-digit
    mpmath reference (``tests/test_sim.py``).

    Brent's method solves P(Y1 - Y0 <= t) = tau (``_delta_cdf``) in
    asinh(t), to full double precision, on the bracket
    [Q1(e) - Q0(1 - e), Q1(1 - e) - Q0(e)] with e = min(tau, 1 - tau)/4,
    where Qj are the marginal quantiles: each end misses tau by at least 2e
    in chance, so the bracket always holds the root. A lognormal law too
    narrow for the quadrature takes the quantile of its normal linearisation
    instead (``_linearised_qote``), where that is as accurate. Raises
    ValueError, which names the spec, when the bracket leaves the floating
    range or a quadrature or root find misses its tolerance, so it never
    returns NaN or inf; the CLI reports such a spec as an input error (exit 2).
    """
    if not 0 < tau < 1:
        raise ValueError("tau must lie strictly between 0 and 1")
    from scipy.special import ndtri  # here, so that importing the package skips scipy

    z = float(ndtri(min(tau, 1 - tau) / 4))

    def tails(mu, var):  # the e- and (1 - e)-quantiles of one arm
        ends = (mu + math.sqrt(var) * z, mu - math.sqrt(var) * z)
        return tuple(math.exp(v) for v in ends) if dgp.lognormal else ends

    try:
        (low1, high1), (low0, high0) = tails(dgp.mu1, dgp.var1), tails(dgp.mu0, dgp.var0)
        lo, hi = low1 - high0, high1 - low0
    except OverflowError:
        lo = hi = math.inf
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"the quantiles of Y1 - Y0 under {dgp} overflow")
    if dgp.lognormal:
        linear = _linearised_qote(dgp, tau)
        if linear is not None:
            return linear
    # searched on asinh(t): heavy lognormal tails put the ends of the bracket
    # many orders of magnitude beyond the root
    root = _checked_brentq(
        lambda u: _delta_cdf(dgp, math.sinh(u)) - tau,
        math.asinh(lo),
        math.asinh(hi),
        f"the {tau!r}-quantile under {dgp}",
    )
    return math.sinh(root)


def _joint_outcomes(dgp: DgpSpec, n: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """n joint draws (y1, y0) = (mu1 + sd1 z0, mu0 + sd0 (rho z0 + sqrt(1 - rho^2) z1)).

    Built in place, so the n x 2 normals and the two outcome arrays are the
    most kept in memory at once, and only the outcomes during the exp. Each operation
    is the one the formula does on fresh arrays, with its operands swapped at
    most, so the floats are the formula's.
    """
    z = rng.standard_normal((n, 2))
    y1 = z[:, 0] * np.sqrt(dgp.var1)
    y1 += dgp.mu1
    y0 = z[:, 0] * dgp.rho
    z1 = z[:, 1]
    z1 *= np.sqrt(1 - dgp.rho**2)
    y0 += z1
    del z, z1
    y0 *= np.sqrt(dgp.var0)
    y0 += dgp.mu0
    if dgp.lognormal:
        np.exp(y1, out=y1)
        np.exp(y0, out=y0)
    return y1, y0


def draw_sample(dgp: DgpSpec, n: int, seed) -> Sample:
    """n observed rows (Y, D) with Y = D*Y1 + (1-D)*Y0 and no covariates."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    y1, y0 = _joint_outcomes(dgp, n, rng)
    d = (rng.random(n) < dgp.p_treat).astype(int)
    y = np.where(d == 1, y1, y0)
    return Sample(y=y, d=d, x=np.zeros((n, 0)))


def _si_majority_action(v1, v0, tau, t_grid, none_bounds):
    """Majority action of the SI minimax rules, by envelope probes.

    Decides 1{L >= 0}, 0 when U <= 0, else 1{U >= -L}, where (L, U) are the
    SI bounds that dense envelope inversion over t_grid would produce. The
    unrestricted bounds nest the SI ones, which settles most draws for free.
    Each probe asks whether one side of the SI envelopes reaches tau at one
    t; the oracle settles it from its closed-form brackets where they clear
    tau, and otherwise solves that side at that t at most once.
    """
    env = _Envelopes.of_values(v1, v0, "SI", t_grid)
    lo_none, up_none = none_bounds
    if lo_none >= 0:
        return 1
    neg = np.flatnonzero(env.t_grid < 0)
    nonpos = np.flatnonzero(env.t_grid <= 0)
    if nonpos.size and up_none <= env.t_grid[nonpos[-1]]:
        return 0
    if not neg.size or not env.reaches("max", neg[-1], tau):
        return 1  # lower envelope inversion lands at or above zero
    if nonpos.size and env.reaches("min", nonpos[-1], tau):
        return 0  # upper envelope inversion lands at or below zero
    l_hat = env.t_grid[env.first_reaching("max", tau, neg[-1])]
    below = np.flatnonzero(env.t_grid < -l_hat)
    if not below.size:
        return 1
    return 0 if env.reaches("min", below[-1], tau) else 1


def _rep_actions(dgp: DgpSpec, tau: float, n: int, k: int, seed):
    """One replication: draw, estimate, and return each estimator's action."""
    sample = draw_sample(dgp, n, seed)
    y1 = sample.y[sample.d == 1]
    y0 = sample.y[sample.d == 0]
    v1 = make_y_grid(y1, k)
    v0 = make_y_grid(y0, k)
    lo_none, up_none = _staircase_qote(v1, v0, tau)
    act_none = int(mmr_deterministic(QoteBounds(lower=lo_none, upper=up_none)))
    t_grid = default_t_grid(v1, v0, DEFAULT_T_POINTS)
    act_si = _si_majority_action(v1, v0, tau, t_grid, (lo_none, up_none))
    act_qte = int(empirical_quantile(y1, tau) - empirical_quantile(y0, tau) >= 0)
    act_ate = int(float(np.mean(y1) - np.mean(y0)) >= 0)
    return {
        "mmr_stoch_SI": act_si,
        "mmr_stoch_none": act_none,
        "mmr_determ_SI": act_si,
        "mmr_determ_none": act_none,
        "qte": act_qte,
        "ate": act_ate,
    }


@functools.lru_cache(maxsize=16)
def _collected_actions(dgp: DgpSpec, tau: float, n: int, reps: int, seed: int, k: int):
    _bindings()  # here, so that no replication imports a module on a worker

    def actions_of(rep):
        return _rep_actions(dgp, tau, n, k, (seed, rep))

    found = _on_workers(range(reps), actions_of)
    return tuple((est, tuple(acts[est] for acts in found)) for est in ESTIMATORS)


def _scored(dgp: DgpSpec, tau: float, n: int, reps: int, seed: int, k: int, score) -> RateTable:
    """``score(agree, truth)`` per estimator and criterion, in table order.

    ``agree`` marks the replications whose action matches the true sign of
    the criterion (treat when it is nonnegative); ``truth`` is its value.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    actions = dict(_collected_actions(dgp, tau, n, reps, seed, k))
    truths = truths_for(dgp, tau)
    rows = []
    for est in ESTIMATORS:
        acts = np.asarray(actions[est])
        for crit in CRITERIA:
            truth = getattr(truths, crit)
            rows.append((est, crit, score(acts == int(truth >= 0), truth)))
    return RateTable(tuple(rows))


def classification_experiment(
    dgp: DgpSpec,
    tau: float,
    n: int,
    reps: int,
    seed: int = 0,
    k: int = DEFAULT_K,
) -> RateTable:
    """Mean agreement of each estimated rule's action with each true sign.

    Stochastic rules are scored by their majority action (delta >= 1/2), so
    their rows coincide with the deterministic minimax rows by construction.
    """
    return _scored(dgp, tau, n, reps, seed, k, lambda agree, truth: float(np.mean(agree)))


def regret_experiment(
    dgp: DgpSpec,
    tau: float,
    n: int,
    reps: int,
    seed: int = 0,
    k: int = DEFAULT_K,
) -> RateTable:
    """Mean of |T_j| * 1{action != sign(T_j)} per estimator and criterion."""
    return _scored(
        dgp, tau, n, reps, seed, k, lambda agree, truth: abs(truth) * float(np.mean(~agree))
    )


def vote_share_check(dgp: DgpSpec, policy, ndraws: int, seed) -> float:
    """Monte Carlo fraction strictly better off under the policy's actions.

    policy is a scalar action in {0, 1} or an array of per-draw actions.
    """
    rng = np.random.default_rng(seed)
    y1, y0 = _joint_outcomes(dgp, ndraws, rng)
    a = np.broadcast_to(np.asarray(policy, dtype=float), (ndraws,))
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("policy actions must be 0 or 1")
    delta = y1 - y0
    return float(np.mean(np.where(a == 1, delta > 0, delta < 0)))


def population_curves(dgp: DgpSpec, k: int) -> Tuple[QuantileCurve, QuantileCurve]:
    """Exact marginal quantile curves of both arms on the k grid midpoints."""
    from scipy.special import ndtri  # here, so that importing the package skips scipy

    u = u_grid(k)
    z = ndtri(u)
    v1 = dgp.mu1 + np.sqrt(dgp.var1) * z
    v0 = dgp.mu0 + np.sqrt(dgp.var0) * z
    if dgp.lognormal:
        v1, v0 = np.exp(v1), np.exp(v0)
    return QuantileCurve(u, v1), QuantileCurve(u, v0)


def subgroup_interval_rows(
    tau: float = 0.25,
    k: int = DEFAULT_K,
    subgroups: Optional[Iterable[int]] = None,
) -> Tuple[Tuple[int, str, float, float], ...]:
    """Population (lower, upper) per subgroup, unrestricted and under SI.

    Marginals enter through their exact quantiles at the k grid midpoints, so
    the rows discretize the population bounds instead of estimating them. The
    SI inversion runs on a t grid spanning the unrestricted interval, which
    nests the SI one.
    """
    chosen = sorted(subgroups) if subgroups is not None else sorted(SUBGROUPS)
    rows = []
    for sg in chosen:
        dgp = SUBGROUPS[sg]
        q1, q0 = population_curves(dgp, k)
        lo_none, up_none = _staircase_qote(q1.values, q0.values, tau)
        rows.append((sg, "none", lo_none, up_none))
        pad = 0.25 * (up_none - lo_none) + 1e-6
        t_grid = np.linspace(lo_none - pad, up_none + pad, DEFAULT_T_POINTS)
        b = qote_coupling_bounds(
            q1, q0, tau, AssumptionSet("SI"), k=k, t_grid=t_grid
        )
        rows.append((sg, "SI", b.lower, b.upper))
    return tuple(rows)
