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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np
from scipy.special import ndtri

from .bounds import (
    DEFAULT_K,
    DEFAULT_T_POINTS,
    AssumptionSet,
    QoteBounds,
    _copula_program,
    _Envelopes,
    _on_workers,
    _raise_first,
    _staircase_qote,
    default_t_grid,
    qote_coupling_bounds,
)
from .marginals import (
    QuantileCurve,
    Sample,
    _quantile_index,
    empirical_quantile,
    make_y_grid,
    u_grid,
)
from .policy import mmr_deterministic

__all__ = [
    "DgpSpec",
    "TruthSet",
    "RateTable",
    "ESTIMATORS",
    "CRITERIA",
    "SUBGROUPS",
    "closed_form_truths",
    "truths_for",
    "draw_sample",
    "mc_oracle_qote",
    "classification_experiment",
    "regret_experiment",
    "vote_share_check",
    "population_curves",
    "subgroup_interval_rows",
    "interval_rows_to_csv",
]

ESTIMATORS = (
    "mmr_stoch_SI",
    "mmr_stoch_none",
    "mmr_determ_SI",
    "mmr_determ_none",
    "qte",
    "ate",
)
CRITERIA = ("qote", "qte", "ate")

ORACLE_DRAWS = 2_000_000


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

    def to_csv(self) -> str:
        lines = ["estimator,criterion,rate"]
        for est, crit, v in self.rows:
            lines.append(f"{est},{crit},{v:.6f}")
        return "\n".join(lines) + "\n"


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
            "no closed form for the lognormal quantile of Y1 - Y0; use the "
            "Monte Carlo oracle"
        )
    if not 0 < tau < 1:
        raise ValueError("tau must lie strictly between 0 and 1")
    s1, s0 = np.sqrt(dgp.var1), np.sqrt(dgp.var0)
    z = float(ndtri(tau))
    sd_delta = float(np.sqrt(dgp.var1 + dgp.var0 - 2 * dgp.rho * s1 * s0))
    return TruthSet(
        qote=dgp.mu1 - dgp.mu0 + z * sd_delta,
        qte=dgp.mu1 - dgp.mu0 + z * (s1 - s0),
        ate=dgp.mu1 - dgp.mu0,
        si_holds=dgp.rho >= 0,
    )


def truths_for(
    dgp: DgpSpec, tau: float, oracle_draws: int = ORACLE_DRAWS, oracle_seed: int = 0
) -> TruthSet:
    """Targets for any spec; lognormal quantiles of the difference come from
    the joint-draw oracle while its QTE and ATE transforms stay exact."""
    if not dgp.lognormal:
        return closed_form_truths(dgp, tau)
    s1, s0 = np.sqrt(dgp.var1), np.sqrt(dgp.var0)
    z = float(ndtri(tau))
    return TruthSet(
        qote=mc_oracle_qote(dgp, tau, oracle_draws, oracle_seed),
        qte=float(np.exp(dgp.mu1 + z * s1) - np.exp(dgp.mu0 + z * s0)),
        ate=float(
            np.exp(dgp.mu1 + dgp.var1 / 2) - np.exp(dgp.mu0 + dgp.var0 / 2)
        ),
        si_holds=dgp.rho >= 0,
    )


def _joint_outcomes(dgp: DgpSpec, n: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """n joint draws (y1, y0) = (mu1 + sd1 z0, mu0 + sd0 (rho z0 + sqrt(1 - rho^2) z1)).

    Built in place, so the n x 2 normals and the two outcome arrays are the
    most held at once, and only the outcomes during the exp. Each operation
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


@functools.lru_cache(maxsize=64)
def mc_oracle_qote(dgp: DgpSpec, tau: float, ndraws: int, seed: int = 0) -> float:
    """Brute-force tau-quantile of Y1 - Y0 from joint draws (unobservable)."""
    if ndraws < 1000:
        raise ValueError("ndraws must be at least 1000")
    rng = np.random.default_rng(seed)
    delta, y0 = _joint_outcomes(dgp, ndraws, rng)
    delta -= y0
    del y0
    idx = _quantile_index(ndraws, tau)
    delta.partition(idx)  # in place: the value at idx is the sorted one's
    return float(delta[idx])


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
    if k >= 2:
        _copula_program(k, k, "SI")  # cached here, so no two replications build it at once

    def actions_of(rep):
        return _rep_actions(dgp, tau, n, k, (seed, rep))

    found = _raise_first(_on_workers(range(reps), lambda caller: actions_of))
    return tuple((est, tuple(acts[est] for acts in found)) for est in ESTIMATORS)


def _truth_actions(truths: TruthSet) -> Dict[str, int]:
    return {
        "qote": int(truths.qote >= 0),
        "qte": int(truths.qte >= 0),
        "ate": int(truths.ate >= 0),
    }


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
    if reps < 1:
        raise ValueError("reps must be at least 1")
    actions = dict(_collected_actions(dgp, tau, n, reps, seed, k))
    truth = _truth_actions(truths_for(dgp, tau))
    rows = []
    for est in ESTIMATORS:
        acts = np.asarray(actions[est])
        for crit in CRITERIA:
            rows.append((est, crit, float(np.mean(acts == truth[crit]))))
    return RateTable(tuple(rows))


def regret_experiment(
    dgp: DgpSpec,
    tau: float,
    n: int,
    reps: int,
    seed: int = 0,
    k: int = DEFAULT_K,
) -> RateTable:
    """Mean of |T_j| * 1{action != sign(T_j)} per estimator and criterion."""
    if reps < 1:
        raise ValueError("reps must be at least 1")
    actions = dict(_collected_actions(dgp, tau, n, reps, seed, k))
    truths = truths_for(dgp, tau)
    truth_act = _truth_actions(truths)
    magnitude = {"qote": abs(truths.qote), "qte": abs(truths.qte), "ate": abs(truths.ate)}
    rows = []
    for est in ESTIMATORS:
        acts = np.asarray(actions[est])
        for crit in CRITERIA:
            mismatch = float(np.mean(acts != truth_act[crit]))
            rows.append((est, crit, magnitude[crit] * mismatch))
    return RateTable(tuple(rows))


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


def interval_rows_to_csv(rows) -> str:
    lines = ["subgroup,assumption,lower,upper"]
    for sg, tag, lo, up in rows:
        lines.append(f"{sg},{tag},{lo:.10g},{up:.10g}")
    return "\n".join(lines) + "\n"
