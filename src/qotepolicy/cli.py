"""Batch command line: samples or DGP presets in, bounds, policies, regret
reports, learned rules, and replication tables out.

Each subcommand takes only the flags it reads. ``bounds`` is the only one
that computes bounds: it builds each cell's envelopes on P(Y1 - Y0 <= t) once
and inverts them per tau, after every tau has been checked and before the
first file is written. ``policy`` and ``owl`` read a bounds JSON it wrote.

Exit codes: 0 ok, 2 input error, 3 unsupported assumption, 4 inconsistency
between provided pieces, 5 learner error (nothing to learn, or training that
overflowed), 6 a bounds LP that did not solve (the message names its t,
assumption tag and k). All randomness flows from
--seed; outputs are plain CSV and JSON written under --out with canonical
ordering, so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    DEFAULT_K,
    DEFAULT_T_POINTS,
    AssumptionSet,
    DeltaCdfBounds,
    LpSolveError,
    QoteBounds,
    coupling_lp_bounds,
    default_t_grid,
    delta_bounds_to_csv,
    invert_bounds,
    rank_invariance_qote,
)
from .marginals import QuantileCurve, Sample, make_y_grid, read_sample_csv, u_grid
from .owl import (
    LearnerError,
    TrainConfig,
    cells_from_bound_field,
    decision_function_to_json,
    predict_policy,
    surrogate_regret,
    train_owl,
)
from .policy import (
    BoundField,
    derive_policy,
    max_regret,
    policy_to_json,
    regret_report_to_json,
)
from .sim import (
    SUBGROUPS,
    DgpSpec,
    classification_experiment,
    draw_sample,
    regret_experiment,
)

MAX_CELLS = 200

ASSUMPTION_FLAGS = {
    "none": "NoAssumption",
    "si": "SI",
    "pqd": "PQD",
    "ri": "RankInvariance",
    "sy": "Symmetry",
}

RULES = ("mmr_stochastic", "mmr_deterministic", "maximin")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _resolve_assumption(flag: str) -> str:
    tag = ASSUMPTION_FLAGS.get(flag.lower())
    if tag is None:
        raise _CliError(3, f"assumption {flag} not supported")
    return tag


def _resolve_dgp(value: str) -> DgpSpec:
    m = re.fullmatch(r"subgroup([1-8])", value.lower())
    if m:
        return SUBGROUPS[int(m.group(1))]
    if os.path.exists(value):
        try:
            with open(value) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise TypeError("expected an object")
            unknown = sorted(set(data) - {f.name for f in dataclasses.fields(DgpSpec)})
            if unknown:
                raise TypeError(f"unknown keys {unknown}")
            return DgpSpec(
                mu1=_number(data["mu1"], "mu1"),
                mu0=_number(data["mu0"], "mu0"),
                var1=_number(data["var1"], "var1"),
                var0=_number(data["var0"], "var0"),
                rho=_number(data["rho"], "rho"),
                lognormal=_flag(data.get("lognormal", False), "lognormal"),
                p_treat=_number(data.get("p_treat", 0.5), "p_treat"),
            )
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise _CliError(2, f"bad DGP file {value}: {exc}")
    raise _CliError(2, f"unknown DGP {value!r} (preset subgroup1..8 or JSON path)")


def _parse_taus(text: str) -> List[float]:
    taus = []
    for part in text.split(","):
        try:
            tau = float(part)
        except ValueError:
            raise _CliError(2, f"bad tau {part!r}")
        if not 0 < tau < 1:
            raise _CliError(2, f"tau {tau} outside (0, 1)")
        taus.append(tau)
    return taus


def _cells_from_sample(sample: Sample) -> List[Tuple[Tuple[float, ...], float, Sample]]:
    """Split a sample into covariate cells (x, weight, cell sample)."""
    if sample.p == 0:
        return [((), 1.0, sample)]
    rows = np.asarray(sample.x)
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    if uniq.shape[0] > MAX_CELLS:
        raise _CliError(
            2,
            f"{uniq.shape[0]} distinct covariate rows exceed the {MAX_CELLS}-cell "
            "limit; bin the covariates first",
        )
    cells = []
    for idx in range(uniq.shape[0]):
        mask = inverse == idx
        cells.append(
            (
                tuple(float(v) for v in uniq[idx]),
                float(np.mean(mask)),
                Sample(y=sample.y[mask], d=sample.d[mask], x=rows[mask]),
            )
        )
    return cells


def _load_cells(args) -> List[Tuple[Tuple[float, ...], float, Sample]]:
    if args.input:
        try:
            sample = read_sample_csv(args.input)
        except (OSError, ValueError) as exc:
            raise _CliError(2, f"bad input CSV {args.input}: {exc}")
        return _cells_from_sample(sample)
    if args.dgp:
        dgp = _resolve_dgp(args.dgp)
        return [((), 1.0, draw_sample(dgp, args.n, (args.seed, 0)))]
    raise _CliError(2, "provide --input CSV or --dgp")


def _require_median(tag: str, taus: List[float]) -> None:
    if tag == "Symmetry" and any(abs(tau - 0.5) > 1e-12 for tau in taus):
        raise _CliError(2, "symmetry identifies the median only; use --tau 0.5")


class _Cell(NamedTuple):
    """One covariate cell with everything that does not depend on tau."""

    x: Tuple[float, ...]
    weight: float
    q1: QuantileCurve
    q0: QuantileCurve
    envelope: Optional[DeltaCdfBounds]  # None under Symmetry

    def bounds(self, tag: str, tau: float) -> QoteBounds:
        if tag == "RankInvariance":
            point = rank_invariance_qote(self.q1, self.q0, tau)
        elif tag == "Symmetry":
            # symmetric effects put the median at the mean difference
            point = float(np.mean(self.q1.values) - np.mean(self.q0.values))
        else:
            return invert_bounds(self.envelope, tau)
        return QoteBounds(lower=point, upper=point)


def _build_cells(args, tag: str) -> List[_Cell]:
    """Read the input, split it into cells and build each cell's envelopes."""
    cells = []
    for x, w, sample in _load_cells(args):
        y1, y0 = sample.y[sample.d == 1], sample.y[sample.d == 0]
        if y1.size == 0 or y0.size == 0:
            raise _CliError(2, f"cell {list(x)} lacks observations in one arm")
        k = args.k
        v1, v0 = make_y_grid(y1, k), make_y_grid(y0, k)
        q1, q0 = QuantileCurve(u_grid(k), v1), QuantileCurve(u_grid(k), v0)
        env = None
        if tag != "Symmetry":
            grid = default_t_grid(v1, v0, args.tgrid)
            if tag == "RankInvariance":
                cdf = np.searchsorted(np.sort(v1 - v0), grid, side="right") / k
                env = DeltaCdfBounds(t_grid=grid, lower=cdf, upper=cdf)
            else:
                env = coupling_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=grid, k=k)
        cells.append(_Cell(x, w, q1, q0, env))
    return cells


def _bounds_payload(cells: List[_Cell], tau: float, tag: str, k: int) -> dict:
    rows = []
    for cell in cells:
        b = cell.bounds(tag, tau)
        rows.append(dict(x=list(cell.x), weight=cell.weight, lower=b.lower, upper=b.upper,
                         truncated_lower=b.truncated_lower,
                         truncated_upper=b.truncated_upper))
    return {"tau": tau, "assumption": tag, "k": k, "cells": rows}


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def cmd_bounds(args) -> int:
    tag = _resolve_assumption(args.assumption)
    taus = _parse_taus(args.tau)
    _require_median(tag, taus)
    cells = _build_cells(args, tag)
    envelopes = [(i, delta_bounds_to_csv(c.envelope))
                 for i, c in enumerate(cells) if c.envelope is not None]
    for tau in taus:
        payload = _bounds_payload(cells, tau, tag, args.k)
        _write(os.path.join(args.out, f"bounds_tau{tau:g}.json"), _json_text(payload))
        for i, text in envelopes:
            _write(os.path.join(args.out, f"envelope_tau{tau:g}_cell{i}.csv"), text)
    return 0


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be true or false, got {value!r}")
    return value


def _read_bound_field(path: Optional[str], command: str) -> Tuple[float, BoundField]:
    """The tau and the per-cell bounds of a bounds JSON written by ``bounds``."""
    if not path or not path.endswith(".json"):
        raise _CliError(2, f"{command} needs --input pointing at a bounds JSON file")
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or not isinstance(payload.get("cells"), list):
            raise TypeError("expected an object with a 'cells' list")
        cells = []
        for c in payload["cells"]:
            if not isinstance(c, dict) or not isinstance(c.get("x"), list):
                raise TypeError(f"cell {c!r} needs an 'x' list")
            b = QoteBounds(
                lower=_number(c.get("lower"), "lower"),
                upper=_number(c.get("upper"), "upper"),
                truncated_lower=_flag(c.get("truncated_lower", False), "truncated_lower"),
                truncated_upper=_flag(c.get("truncated_upper", False), "truncated_upper"),
            )
            x = tuple(_number(v, "x") for v in c["x"])
            cells.append((x, _number(c.get("weight"), "weight"), b))
        tau = _number(payload.get("tau"), "tau")
        if not 0 < tau < 1:
            raise ValueError(f"tau {tau} outside (0, 1)")
        return tau, BoundField(tuple(cells))
    except (OSError, TypeError, ValueError) as exc:
        raise _CliError(2, f"bad bounds JSON {path}: {exc}")


def _apply_weights_file(field: BoundField, path: str) -> BoundField:
    try:
        raw = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    except (OSError, ValueError) as exc:
        raise _CliError(2, f"bad weights CSV {path}: {exc}")
    raw = np.atleast_1d(raw)
    names = list(raw.dtype.names or ())
    if not names or names[-1] != "weight":
        raise _CliError(2, "weights CSV needs covariate columns then 'weight'")
    given: Dict[Tuple[float, ...], float] = {}
    for row in raw:
        values = [float(row[n]) for n in names]
        if not np.all(np.isfinite(values)):
            raise _CliError(2, f"bad weights CSV {path}: row {values} is not all finite numbers")
        x = tuple(values[:-1])
        if x in given:
            raise _CliError(2, f"bad weights CSV {path}: covariate row {list(x)} repeated")
        given[x] = values[-1]
    points = field.points()
    if set(given) != set(points):
        raise _CliError(4, "weights CSV cells do not match the bounds cells")
    cells = tuple((x, given[x], b) for (x, _, b) in field.cells)
    return BoundField(cells)


def cmd_policy(args) -> int:
    file_tau, field = _read_bound_field(args.input, "policy")
    taus = [file_tau] if args.tau is None else _parse_taus(args.tau)
    for tau in taus:
        if abs(file_tau - tau) > 1e-12:
            raise _CliError(4, f"bounds file is for tau={file_tau}")
    if args.weights:
        field = _apply_weights_file(field, args.weights)
    for tau in taus:
        reports = {}
        for rule in RULES:
            policy = derive_policy(field, rule)
            _write(
                os.path.join(args.out, f"policy_{rule}_tau{tau:g}.json"),
                policy_to_json(policy),
            )
            reports[rule] = json.loads(regret_report_to_json(max_regret(policy, field)))
        _write(os.path.join(args.out, f"regret_tau{tau:g}.json"), _json_text(reports))
    return 0


def cmd_simulate(args) -> int:
    if not args.dgp:
        raise _CliError(2, "simulate needs --dgp")
    dgp = _resolve_dgp(args.dgp)
    for tau in _parse_taus(args.tau):
        rates = classification_experiment(
            dgp, tau, args.n, args.reps, seed=args.seed, k=args.k
        )
        regrets = regret_experiment(dgp, tau, args.n, args.reps, seed=args.seed, k=args.k)
        _write(
            os.path.join(args.out, f"classification_tau{tau:g}.csv"), rates.to_csv()
        )
        _write(os.path.join(args.out, f"regret_tau{tau:g}.csv"), regrets.to_csv())
    return 0


def _parse_subgroups(text: str) -> List[int]:
    out = []
    for part in text.split(","):
        try:
            sg = int(part)
        except ValueError:
            raise _CliError(2, f"bad subgroup {part!r}")
        if sg not in SUBGROUPS:
            raise _CliError(2, f"no subgroup {sg}")
        out.append(sg)
    return out


def cmd_tables(args) -> int:
    subgroups = _parse_subgroups(args.subgroups)
    for tau in _parse_taus(args.tau):
        class_lines = ["subgroup,estimator,criterion,rate"]
        regret_lines = ["subgroup,estimator,criterion,rate"]
        for sg in subgroups:
            dgp = SUBGROUPS[sg]
            rates = classification_experiment(
                dgp, tau, args.n, args.reps, seed=args.seed, k=args.k
            )
            regrets = regret_experiment(
                dgp, tau, args.n, args.reps, seed=args.seed, k=args.k
            )
            for est, crit, v in rates.rows:
                class_lines.append(f"{sg},{est},{crit},{v:.6f}")
            for est, crit, v in regrets.rows:
                regret_lines.append(f"{sg},{est},{crit},{v:.6f}")
        _write(
            os.path.join(args.out, f"tables_classification_tau{tau:g}.csv"),
            "\n".join(class_lines) + "\n",
        )
        _write(
            os.path.join(args.out, f"tables_regret_tau{tau:g}.csv"),
            "\n".join(regret_lines) + "\n",
        )
    return 0


def cmd_owl(args) -> int:
    _, field = _read_bound_field(args.input, "owl")
    cells = cells_from_bound_field(field)
    config = TrainConfig(lam=args.lam, sigma=args.sigma, max_epochs=args.max_epochs)
    try:
        f, trace = train_owl(cells, config)
    except LearnerError as exc:
        raise _CliError(5, str(exc))
    xs = np.array([list(x) for x, _, _ in cells])
    policy = predict_policy(f, xs)
    labels = np.array([lab for _, _, lab in cells])
    weights = np.array([w for _, w, _ in cells])
    preds = np.where(f(xs) >= 0, 1.0, -1.0)
    miscls = int(np.sum((preds != labels) & (weights > 0)))
    report = {
        "surrogate_regret": surrogate_regret(f, field),
        "training_misclassifications": miscls,
        "epochs": len(trace),
        "final_objective": float(trace[-1]),
    }
    _write(os.path.join(args.out, "owl_model.json"), decision_function_to_json(f))
    _write(os.path.join(args.out, "owl_policy.json"), policy_to_json(policy))
    _write(os.path.join(args.out, "owl_report.json"), _json_text(report))
    return 0


_FLAGS = {
    "--input": dict(help="CSV (y,d,x1..xp) for bounds; a bounds JSON for policy, owl"),
    "--dgp": dict(help="DGP preset subgroup1..8 or JSON path"),
    "--tau": dict(default="0.25", help="comma-separated levels"),
    "--k": dict(type=int, default=DEFAULT_K),
    "--tgrid": dict(type=int, default=DEFAULT_T_POINTS),
    "--n": dict(type=int, default=1000),
    "--seed": dict(type=int, default=0),
    "--out": dict(default="."),
    "--assumption": dict(default="none"),
    "--weights": dict(help="CSV overriding cell weights"),
    "--reps": dict(type=int, default=200),
    "--subgroups": dict(default="1,2,3,4,5,6,7,8"),
    "--lam": dict(type=float, default=None),
    "--sigma": dict(type=float, default=None),
    "--max-epochs": dict(type=int, default=2000),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qotepolicy",
        description="Bounds on quantiles of treatment effects and the "
        "treatment rules they support.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # each subcommand declares exactly the flags it reads
    for name, func, help_text, flags in (
        ("bounds", cmd_bounds, "per-cell quantile bounds",
         "--input --dgp --tau --k --tgrid --n --seed --out --assumption"),
        ("policy", cmd_policy, "minimax rules and regret report from a bounds file",
         "--input --tau --out --weights"),
        ("simulate", cmd_simulate, "classification and regret tables",
         "--dgp --tau --k --n --seed --out --reps"),
        ("tables", cmd_tables, "full replication table preset",
         "--tau --k --n --seed --out --reps --subgroups"),
        ("owl", cmd_owl, "learn a rule from a bounds file",
         "--input --out --lam --sigma --max-epochs"),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    # without --tau, policy takes the tau of the bounds file it reads
    sub.choices["policy"].set_defaults(tau=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except LpSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
