"""Weighted hinge-loss policy learning in a Gaussian RKHS.

Training cells carry a covariate point, a nonnegative weight, and a label in
{-1, +1}; the learner fits f minimizing (1/n) sum_i w_i max(1 - y_i f(x_i), 0)
plus lam * ||f||^2 by deterministic full-batch subgradient descent with step
1/(lam * t) on the kernel coefficients, tracking the running average of the
iterates. Plain subgradient descent is not monotone, so the per-epoch trace
records the best averaged-iterate objective seen so far and the returned
coefficients are the averaged iterate that achieved it; stopping looks at the
raw averaged-iterate objective, which keeps oscillation from ending training
early. Training runs with numpy's overflow and invalid-value errors raised,
so iterates that would leave the floats stop it with a LearnerError instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .policy import BoundField, PolicyField, _json_text, _qbar


class LearnerError(ValueError):
    """Training gives no rule: nothing to learn, or its iterates left the floats."""


def _check_sigma(sigma) -> None:
    # the kernel scales squared distances by sigma**2
    if not 0 < sigma < np.inf or not float(sigma) * float(sigma) < np.inf:
        raise ValueError("sigma must be positive and finite with a finite square")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; lam and sigma default to n**-0.5 and the inverse
    median pairwise distance when left as None."""

    lam: Optional[float] = None
    sigma: Optional[float] = None
    max_epochs: int = 2000
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if self.sigma is not None:
            _check_sigma(self.sigma)
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")


def _as_points(xs, dim: int) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        if dim == 1:
            xs = xs.reshape(-1, 1)
        elif xs.size == dim:
            xs = xs.reshape(1, dim)
        else:
            raise ValueError("covariate dimension mismatch")
    elif xs.ndim != 2 or xs.shape[1] != dim:
        raise ValueError("covariate dimension mismatch")
    return xs


@dataclass(frozen=True)
class DecisionFunction:
    """f(x) = sum_i alpha_i exp(-sigma^2 ||x_i - x||^2), no intercept."""

    support_points: np.ndarray
    coefficients: np.ndarray
    sigma: float

    def __post_init__(self):
        pts = np.asarray(self.support_points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        coefs = np.asarray(self.coefficients, dtype=float)
        if pts.shape[0] != coefs.size:
            raise ValueError("one coefficient per support point")
        if not np.all(np.isfinite(coefs)):
            raise ValueError("coefficients must be finite")
        _check_sigma(self.sigma)
        object.__setattr__(self, "support_points", pts)
        object.__setattr__(self, "coefficients", coefs)

    def __call__(self, xs) -> np.ndarray:
        xs = _as_points(xs, self.support_points.shape[1])
        sq = _sq_distances(xs, self.support_points)
        return np.exp(-self.sigma**2 * sq) @ self.coefficients


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, floored at 0."""
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.maximum(sq, 0.0)


def _gram(points: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-sigma**2 * _sq_distances(points, points))


def _median_pairwise_distance(points: np.ndarray) -> float:
    n = points.shape[0]
    if n < 2:
        return 1.0
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(_sq_distances(points, points)[iu])))
    return med if med > 0 else 1.0


def cells_from_bound_field(field: BoundField) -> List[Tuple[Tuple[float, ...], float, float]]:
    """Training cells (x, |qbar|, sign(qbar)) from per-cell bounds."""
    _, lo, up = field.arrays()
    return [
        (x, float(abs(qb)), 1.0 if qb >= 0 else -1.0)
        for x, qb in zip(field.points(), _qbar(lo, up))
    ]


def train_owl(
    cells: Sequence[Tuple], config: TrainConfig = TrainConfig()
) -> Tuple[DecisionFunction, np.ndarray]:
    """Fit the decision function; returns (f, per-epoch objective trace).

    Each cell is (x, weight, label) with weight >= 0 and label in {-1, +1}.
    The trace is nonincreasing. Raises LearnerError("nothing to learn") when
    every weight is zero, and LearnerError when a step or an iterate would
    overflow, before the coefficients turn non-finite.
    """
    if not cells:
        raise LearnerError("nothing to learn")
    xs = np.array(
        [np.atleast_1d(np.asarray(c[0], dtype=float)) for c in cells], dtype=float
    )
    weights = np.array([float(c[1]) for c in cells])
    labels = np.array([float(c[2]) for c in cells])
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not np.any(weights > 0):
        raise LearnerError("nothing to learn")
    # zero-weight cells contribute nothing; dropping them up front keeps the
    # defaults (and hence the learned f) invariant to their presence
    keep = weights > 0
    xs, weights, labels = xs[keep], weights[keep], labels[keep]
    n = xs.shape[0]
    lam = config.lam if config.lam is not None else n**-0.5
    sigma = (
        config.sigma
        if config.sigma is not None
        else 1.0 / _median_pairwise_distance(xs)
    )
    _check_sigma(sigma)
    gram = _gram(xs, sigma)
    wbar = weights / n

    def objective(alpha: np.ndarray) -> float:
        fvals = gram @ alpha
        hinge = np.maximum(1.0 - labels * fvals, 0.0)
        return float(wbar @ hinge + lam * alpha @ gram @ alpha)

    alpha = np.zeros(n)
    avg = np.zeros(n)
    best_alpha = avg.copy()
    best_obj = objective(avg)
    prev_raw = best_obj
    trace = []
    quiet = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for t in range(1, config.max_epochs + 1):
                eta = np.divide(1.0, lam * t)
                fvals = gram @ alpha
                active = (labels * fvals) < 1.0
                grad = 2.0 * lam * alpha - wbar * labels * active
                alpha = alpha - eta * grad
                avg = avg + (alpha - avg) / t
                raw = objective(avg)
                if raw < best_obj:
                    best_obj = raw
                    best_alpha = avg.copy()
                trace.append(best_obj)
                # the first step can leave the objective exactly unchanged (the
                # hinge drop cancels the regularizer gain), so one quiet epoch
                # is not proof of convergence; require two in a row
                if abs(prev_raw - raw) < config.tolerance * max(1.0, abs(prev_raw)):
                    quiet += 1
                    if quiet >= 2:
                        break
                else:
                    quiet = 0
                prev_raw = raw
    except FloatingPointError as exc:
        raise LearnerError(f"training left the floats at epoch {t}: {exc}") from exc
    f = DecisionFunction(support_points=xs, coefficients=best_alpha, sigma=sigma)
    return f, np.asarray(trace)


def predict_policy(f: DecisionFunction, xs) -> PolicyField:
    """Deterministic rule 1{f(x) >= 0} at the given covariate points."""
    xs = _as_points(xs, f.support_points.shape[1])
    vals = f(xs)
    cells = tuple(
        (tuple(float(v) for v in row), 1.0 if fv >= 0 else 0.0)
        for row, fv in zip(xs, vals)
    )
    return PolicyField(cells, kind="deterministic")


def surrogate_regret(f: DecisionFunction, field: BoundField) -> float:
    """E[|qbar| hinge(sign(qbar) f(X))] plus the irreducible straddle term."""
    w, lo, up = field.arrays()
    qb = _qbar(lo, up)
    labels = np.where(qb >= 0, 1.0, -1.0)
    xs = np.array([list(x) for x in field.points()], dtype=float)
    fvals = f(xs)
    hinge = np.maximum(1.0 - labels * fvals, 0.0)
    straddle = (lo < 0) & (0 < up)
    return float(
        np.sum(w * np.abs(qb) * hinge)
        + np.sum(w * np.minimum(up, -lo) * straddle)
    )


def decision_function_to_json(f: DecisionFunction) -> str:
    data = {
        "support_points": f.support_points.tolist(),
        "coefficients": f.coefficients.tolist(),
        "sigma": f.sigma,
    }
    return _json_text(data)


def decision_function_from_json(text: str) -> DecisionFunction:
    data = json.loads(text)
    return DecisionFunction(
        support_points=np.asarray(data["support_points"], dtype=float),
        coefficients=np.asarray(data["coefficients"], dtype=float),
        sigma=float(data["sigma"]),
    )
