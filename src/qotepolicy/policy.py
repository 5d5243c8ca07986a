"""Treatment rules from per-cell quantile bounds, and their regret calculus.

Two distinct regret functionals live here and must not be conflated. The
reported maximum regret treats a stochastic rule as a Bernoulli draw A(x)
with success probability delta(x) and takes the expectation over A as well,
which makes the straddle-cell value U*(1-delta) + (-L)*delta. The quantity
the minimax rules optimize is the pointwise worst case with delta kept fixed,
max{(1-delta)*max(U,0), delta*max(-L,0)}, whose minimizer is U/(U-L); its
minimized value is the asymptotic leading term, not the attained regret.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import Tuple

import numpy as np

from .bounds import QoteBounds


def _as_point(x) -> Tuple[float, ...]:
    if type(x) is tuple and all(type(v) is float for v in x):
        return x
    if np.isscalar(x):
        return (float(x),)
    return tuple(float(v) for v in np.atleast_1d(np.asarray(x, dtype=float)))


def _check_points(points) -> None:
    """Raise unless every coordinate of every covariate point is finite."""
    if not all(map(math.isfinite, itertools.chain.from_iterable(points))):
        raise ValueError("covariate points must be finite")


@dataclass(frozen=True)
class BoundField:
    """Per-cell quantile bounds with cell probabilities: ((x, weight, bounds), ...)."""

    cells: Tuple[Tuple[Tuple[float, ...], float, QoteBounds], ...]

    def __post_init__(self):
        cells = tuple(
            (_as_point(x), float(w), b) for (x, w, b) in self.cells
        )
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("field needs at least one cell")
        points = [x for x, _, _ in cells]
        _check_points(points)
        if len(set(points)) < len(points):
            raise ValueError("covariate points must not repeat")
        if len({len(x) for x in points}) > 1:
            raise ValueError("covariate points must have one length")
        w = np.array([c[1] for c in cells])
        if not np.all(w >= -1e-12):
            raise ValueError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-8:
            raise ValueError("weights must sum to 1")
        for _, _, b in cells:
            if not (math.isfinite(b.lower) and math.isfinite(b.upper)):
                raise ValueError("bounds must be finite")

    def points(self):
        return tuple(c[0] for c in self.cells)

    def arrays(self):
        w = np.array([c[1] for c in self.cells])
        lo = np.array([c[2].lower for c in self.cells])
        up = np.array([c[2].upper for c in self.cells])
        return w, lo, up


@dataclass(frozen=True)
class PolicyField:
    """Per-cell treatment probabilities delta(x); deterministic means {0,1}."""

    cells: Tuple[Tuple[Tuple[float, ...], float], ...]
    kind: str = "deterministic"

    def __post_init__(self):
        cells = tuple((_as_point(x), float(d)) for (x, d) in self.cells)
        object.__setattr__(self, "cells", cells)
        _check_points(x for x, _ in cells)
        if self.kind not in ("stochastic", "deterministic"):
            raise ValueError("kind must be stochastic or deterministic")
        d = np.array([c[1] for c in cells])
        if not np.all((d >= -1e-12) & (d <= 1 + 1e-12)):
            raise ValueError("delta must lie in [0, 1]")
        if self.kind == "deterministic" and not np.all((d == 0) | (d == 1)):
            raise ValueError("deterministic policy needs delta in {0, 1}")

    def points(self):
        return tuple(c[0] for c in self.cells)

    def deltas(self):
        return np.array([c[1] for c in self.cells])


@dataclass(frozen=True)
class TruthField:
    """Known per-cell quantile treatment effects (simulation settings)."""

    cells: Tuple[Tuple[Tuple[float, ...], float], ...]

    def __post_init__(self):
        cells = tuple((_as_point(x), float(q)) for (x, q) in self.cells)
        object.__setattr__(self, "cells", cells)
        _check_points(x for x, _ in cells)
        if not all(math.isfinite(q) for _, q in cells):
            raise ValueError("quantile treatment effects must be finite")

    def points(self):
        return tuple(c[0] for c in self.cells)

    def values(self):
        return np.array([c[1] for c in self.cells])


@dataclass(frozen=True)
class RegretReport:
    """Maximum regret (three equivalent expressions) plus the asymptotic terms."""

    max_regret: float
    expressions: Tuple[float, float, float]
    leading_term_stochastic: float
    leading_term_deterministic: float


@dataclass(frozen=True)
class RegretBoundReport:
    """Population check that minimax-rule regret sits under the leading terms."""

    true_regret_stochastic: float
    leading_term_stochastic: float
    true_regret_deterministic: float
    leading_term_deterministic: float

    @property
    def satisfied(self) -> bool:
        slack = 1e-9
        return (
            self.true_regret_stochastic <= self.leading_term_stochastic + slack
            and self.true_regret_deterministic
            <= self.leading_term_deterministic + slack
        )


def _check_same_cells(a, b):
    if a.points() != b.points():
        raise ValueError("cell sets do not match")


def first_best(truth_field: TruthField) -> PolicyField:
    """Oracle rule 1{Q(x) >= 0} (sign(0) = 1)."""
    cells = tuple((x, 1.0 if q >= 0 else 0.0) for x, q in truth_field.cells)
    return PolicyField(cells, kind="deterministic")


def _qbar(lo, up):
    """Elementwise qbar of bounds arrays (lower, upper); see qbar."""
    return np.where(lo >= 0, up, np.where(up <= 0, lo, up + lo))


def qbar(b: QoteBounds) -> float:
    """U when L >= 0, L when U <= 0, U + L when the bounds straddle zero."""
    return float(_qbar(b.lower, b.upper))


def mmr_stochastic(b: QoteBounds) -> float:
    """Minimax-regret randomization probability: U / (U - L) on straddles."""
    if b.lower >= 0:
        return 1.0
    if b.upper <= 0:
        return 0.0
    return float(b.upper / (b.upper - b.lower))


def mmr_deterministic(b: QoteBounds) -> float:
    """Deterministic minimax-regret rule; |L| = |U| ties treat (sign(0) = 1)."""
    if b.lower >= 0:
        return 1.0
    if b.upper <= 0:
        return 0.0
    return 1.0 if abs(b.lower) <= abs(b.upper) else 0.0


def maximin_rule(b: QoteBounds) -> float:
    """Worst-case-welfare rule: treat iff the lower bound is nonnegative."""
    return 1.0 if b.lower >= 0 else 0.0


def cell_max_regret(b: QoteBounds, delta: float) -> float:
    """Worst case over effects inside the bounds with delta kept fixed.

    max{(1 - delta) max(U, 0), delta max(-L, 0)}: the functional whose
    minimizers are the minimax rules. For the value attained when a
    stochastic rule is actually drawn, see max_regret.
    """
    return max((1.0 - delta) * max(b.upper, 0.0), delta * max(-b.lower, 0.0))


def _expression_1(w, lo, up, d):
    # expectation over the Bernoulli draw of max{(1-A)max(U,0), A max(-L,0)}
    return float(np.sum(w * ((1 - d) * np.maximum(up, 0) + d * np.maximum(-lo, 0))))


def _expression_2(w, lo, up, d):
    qb = _qbar(lo, up)
    return float(np.sum(w * (-d * qb)) + np.sum(w * np.maximum(up, 0)))


def _expression_3(w, lo, up, d):
    qb = _qbar(lo, up)
    mismatch = np.where(qb >= 0, 1 - d, d)
    straddle = (lo < 0) & (0 < up)
    return float(
        np.sum(w * np.abs(qb) * mismatch)
        + np.sum(w * np.minimum(up, -lo) * straddle)
    )


def _leading_terms(w, lo, up):
    straddle = (lo < 0) & (0 < up)
    det_cell = np.minimum(np.maximum(up, 0.0), np.maximum(-lo, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # LU/(L-U) never exceeds min(U, -L); rounding can push it one ulp over
        stoch_cell = np.where(straddle, np.minimum(lo * up / (lo - up), det_cell), 0.0)
    return float(np.sum(w * stoch_cell)), float(np.sum(w * det_cell))


def max_regret(policy: PolicyField, bound_field: BoundField) -> RegretReport:
    """Maximum regret of a rule over all effects inside the per-cell bounds.

    Evaluates the three equivalent closed forms, with the expectation taken
    over the rule's Bernoulli draw as well, and reports the asymptotic
    leading terms alongside. The forms agree up to rounding relative to the
    bounds' size, so they must agree to 1e-9 max(1, sum w max(|L|, |U|));
    a larger disagreement raises ValueError.
    """
    _check_same_cells(policy, bound_field)
    w, lo, up = bound_field.arrays()
    d = policy.deltas()
    e1 = _expression_1(w, lo, up, d)
    e2 = _expression_2(w, lo, up, d)
    e3 = _expression_3(w, lo, up, d)
    scale = max(1.0, float(np.sum(w * np.maximum(np.abs(lo), np.abs(up)))))
    if not max(abs(e1 - e2), abs(e1 - e3)) <= 1e-9 * scale:
        raise ValueError(f"max-regret expressions disagree: {e1!r}, {e2!r}, {e3!r}")
    lt_s, lt_d = _leading_terms(w, lo, up)
    return RegretReport(
        max_regret=e1,
        expressions=(e1, e2, e3),
        leading_term_stochastic=lt_s,
        leading_term_deterministic=lt_d,
    )


def true_regret(policy: PolicyField, truth_field: TruthField, weights=None) -> float:
    """E[|Q(x)| P{A(x) != sign(Q(x))}] in closed form over the Bernoulli draw."""
    _check_same_cells(policy, truth_field)
    q = truth_field.values()
    d = policy.deltas()
    n = q.size
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    if w.size != n:
        raise ValueError("weights length does not match cells")
    mismatch = np.where(q >= 0, 1 - d, d)
    return float(np.sum(w * np.abs(q) * mismatch))


def derive_policy(bound_field: BoundField, rule: str) -> PolicyField:
    """Apply a per-cell rule in {mmr_stochastic, mmr_deterministic, maximin}."""
    fns = {
        "mmr_stochastic": (mmr_stochastic, "stochastic"),
        "mmr_deterministic": (mmr_deterministic, "deterministic"),
        "maximin": (maximin_rule, "deterministic"),
    }
    if rule not in fns:
        raise ValueError(f"unknown rule {rule!r}")
    fn, kind = fns[rule]
    cells = tuple((x, fn(b)) for (x, _, b) in bound_field.cells)
    return PolicyField(cells, kind=kind)


def regret_bound_check(
    bound_field: BoundField, truth_field: TruthField
) -> RegretBoundReport:
    """Verify realized minimax-rule regret is covered by its leading-term cap.

    Requires each cell's truth to lie inside its bounds. The population-level
    slack is 1e-9; the caller treats a violated report as a failure signal.
    """
    _check_same_cells(bound_field, truth_field)
    w, lo, up = bound_field.arrays()
    q = truth_field.values()
    if np.any(q < lo - 1e-9) or np.any(q > up + 1e-9):
        raise ValueError("truth lies outside the bounds")
    lt_s, lt_d = _leading_terms(w, lo, up)
    tr_s = true_regret(derive_policy(bound_field, "mmr_stochastic"), truth_field, w)
    tr_d = true_regret(derive_policy(bound_field, "mmr_deterministic"), truth_field, w)
    return RegretBoundReport(
        true_regret_stochastic=tr_s,
        leading_term_stochastic=lt_s,
        true_regret_deterministic=tr_d,
        leading_term_deterministic=lt_d,
    )


def policy_to_json(policy: PolicyField) -> str:
    """JSON export: list of {"x": [...], "delta": value}."""
    data = {
        "kind": policy.kind,
        "cells": [{"x": list(x), "delta": d} for x, d in policy.cells],
    }
    return _json_text(data)


def _regret_report_data(report: RegretReport) -> dict:
    """The JSON object of a report, with all three expression values for auditability."""
    return {
        "max_regret": report.max_regret,
        "expressions": list(report.expressions),
        "leading_term_stochastic": report.leading_term_stochastic,
        "leading_term_deterministic": report.leading_term_deterministic,
    }


class _NotPlain(Exception):
    """A value ``_json_value`` leaves to ``json.dumps``."""


def _json_text(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2) + "\\n"``, built by joins.

    json's C encoder serves no ``indent``, so the pure-Python one would run.
    Dicts with str keys, lists, str, bool, int, None and finite floats (a
    float subclass such as numpy's float64 among them) are written here
    with json's bytes; anything else, a NaN or an infinity among them, sends
    the whole of ``data`` to ``json.dumps``.
    """
    try:
        return _json_value(data, "\n") + "\n"
    except _NotPlain:
        return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _json_value(value, newline: str) -> str:
    """One value as json writes it at the indent that ``newline`` ends in."""
    kind = type(value)
    if kind is float:
        if value - value != 0.0:  # NaN or an infinity
            raise _NotPlain
        return repr(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_json_value(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        if not all(type(key) is str for key in value):
            raise _NotPlain
        items = [_json_string(k) + ": " + _json_value(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, float):  # numpy's float64, which json writes as a float
        return _json_value(float(value), newline)
    raise _NotPlain
