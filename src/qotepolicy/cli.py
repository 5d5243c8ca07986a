"""Batch command line: samples or DGP presets in, bounds, policies, regret
reports, learned rules, and replication tables out.

Each subcommand takes only the flags it reads. ``bounds`` is the only one
that builds distribution envelopes, and it computes no bound itself.
``_cells`` builds its one cell table, as arrays with one row per cell: one
stable sort of the sample by (cell, arm, y) splits the cells and gives every
cell's quantile grids, and the t grids are one numpy pass over the cells.
``bounds._envelope_rows`` gives every cell's envelopes on P(Y1 - Y0 <= t),
``bounds._point_rows`` every cell's points and ``bounds._inverted_rows``
each tau's inversion. Errors are those of a cell-by-cell build, the first
failing cell in sorted covariate order deciding; a cell that lacks
observations in one arm is an input error. Each cell's envelopes are built
once and inverted per tau, after every tau has been checked and before the
first file is written. ``policy`` and ``owl`` read a bounds JSON it wrote;
``policy`` derives its rules once and writes them once per distinct tau.
``simulate`` and ``tables`` write their classification and regret tables
through one writer, ``tables`` with a leading subgroup column.

Exit codes: 0 ok, 2 input error or an output that cannot be written, 3
unsupported assumption, 4 inconsistency between provided pieces, 5 learner
error (nothing to learn, or training that overflowed), 6 a bounds LP that
did not solve (the message names its t, assumption tag and k) or, on a scipy
without HiGHS bindings, could not be built (the message names the scipy it
needs). All randomness flows from --seed; outputs are plain CSV and JSON
written under --out with canonical ordering, so a rerun with the same inputs
is byte-identical. Each output path is replaced, not rewritten in place, and
the files of one run with equal bytes are hard links of one file.
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
    LpSolveError,
    QoteBounds,
    _envelope_csvs,
    _envelope_rows,
    _inverted_rows,
    _point_rows,
    default_t_grid,
)
from .marginals import Sample, _grid_positions, read_sample_csv
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
    _json_text,
    _regret_report_data,
    derive_policy,
    max_regret,
    policy_to_json,
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


def _load_sample(args) -> Sample:
    if args.input:
        try:
            return read_sample_csv(args.input)
        except (OSError, ValueError) as exc:
            raise _CliError(2, f"bad input CSV {args.input}: {exc}")
    if args.dgp:
        return draw_sample(_resolve_dgp(args.dgp), args.n, (args.seed, 0))
    raise _CliError(2, "provide --input CSV or --dgp")


def _require_median(tag: str, taus: List[float]) -> None:
    if tag == "Symmetry" and any(abs(tau - 0.5) > 1e-12 for tau in taus):
        raise _CliError(2, "symmetry identifies the median only; use --tau 0.5")


class _Cells(NamedTuple):
    """Every covariate cell, one row each, with everything that does not depend on tau.

    ``v1`` and ``v0`` are the cells' quantile grids (cells x k); ``t``,
    ``lower`` and ``upper`` their t grids and envelopes of P(Y1 - Y0 <= t)
    (cells x points), None under Symmetry.
    """

    x: List[List[float]]
    weight: np.ndarray
    v1: np.ndarray
    v0: np.ndarray
    t: Optional[np.ndarray]
    lower: Optional[np.ndarray]
    upper: Optional[np.ndarray]

    def bounds(self, tag: str, tau: float):
        """(lower, upper, truncated_lower, truncated_upper) of every cell at tau."""
        if tag in ("RankInvariance", "Symmetry"):
            return _point_rows(tag, self.v1, self.v0, tau)
        return _inverted_rows(self.t, self.lower, self.upper, tau)


def _cells(sample: Sample, tag: str, k: int, points: int) -> _Cells:
    """Split a sample into its covariate cells and build every cell's envelopes at once.

    One stable sort by (x1, ..., xp, arm, y) puts each cell's arm 0 and then
    its arm 1 in one block, each sorted; a cell starts at each sorted row
    whose covariates differ from the row before it. Errors are those of a
    cell-by-cell build: the first cell in sorted covariate order that fails
    decides. So the cells before the first one that lacks an arm are built,
    and that cell is named after them.
    """
    order = np.lexsort((sample.y, sample.d, *sample.x.T[::-1]))
    x = sample.x[order]
    starts = np.ones(sample.n, dtype=bool)
    starts[1:] = (x[1:] != x[:-1]).any(axis=1)
    ncells = int(np.count_nonzero(starts))
    if ncells > MAX_CELLS:
        raise _CliError(
            2,
            f"{ncells} distinct covariate rows exceed the {MAX_CELLS}-cell "
            "limit; bin the covariates first",
        )
    cell = np.cumsum(starts) - 1
    counts = np.bincount(2 * cell + sample.d[order], minlength=2 * ncells).reshape(-1, 2)
    lacking = np.flatnonzero((counts == 0).any(axis=1))
    built = int(lacking[0]) if lacking.size else ncells
    x, y = x[starts].tolist(), sample.y[order]
    if built:
        # make_y_grid's positions, in each (cell, arm) block of the sorted outcomes
        at = (np.cumsum(counts.ravel()).reshape(-1, 2) - counts)[:built, :, None]
        at = at + _grid_positions(counts[:built], k)
        v0, v1 = y[at[:, 0]], y[at[:, 1]]
        t = lower = upper = None
        if tag != "Symmetry":
            t = default_t_grid(v1, v0, points)
            lower, upper = _envelope_rows(tag, v1, v0, t)
    if built < ncells:
        raise _CliError(2, f"cell {x[built]} lacks observations in one arm")
    return _Cells(x, counts.sum(axis=1) / sample.n, v1, v0, t, lower, upper)


def _bounds_payload(cells: _Cells, tau: float, tag: str, k: int) -> dict:
    columns = (column.tolist() for column in cells.bounds(tag, tau))
    rows = [
        dict(x=x, weight=w, lower=lo, upper=up, truncated_lower=tl, truncated_upper=tu)
        for x, w, lo, up, tl, tu in zip(cells.x, cells.weight.tolist(), *columns)
    ]
    return {"tau": tau, "assumption": tag, "k": k, "cells": rows}


def _write(out: str, files: Dict[str, str]) -> None:
    """Write each named text in the directory ``out``, made once if it is missing.

    Each path is replaced, never rewritten in place: whatever is there (a
    file, possibly linked from elsewhere, or a symlink) is removed first and
    a new file made. The first name of each distinct text gets a write, and
    every later name with an equal text a hard link to that file, or a write
    of its own where the link fails. An output that cannot be made is an
    input error (exit 2).
    """
    path = out or "."
    try:
        os.makedirs(path, exist_ok=True)
        first: Dict[str, str] = {}
        for name, text in files.items():
            path = os.path.join(out, name)
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            source = first.setdefault(text, path)
            if source != path:
                try:
                    os.link(source, path)
                    continue
                except OSError:
                    pass
            with open(path, "x") as fh:
                fh.write(text)
    except OSError as exc:
        raise _CliError(2, f"cannot write {path}: {exc.strerror or exc}")


def cmd_bounds(args) -> int:
    tag = _resolve_assumption(args.assumption)
    taus = _parse_taus(args.tau)
    _require_median(tag, taus)
    cells = _cells(_load_sample(args), tag, args.k, args.tgrid)
    envelopes = [] if cells.t is None else _envelope_csvs(cells.t, cells.lower, cells.upper)
    files = {}
    for tau in taus:
        files[f"bounds_tau{tau:g}.json"] = _json_text(_bounds_payload(cells, tau, tag, args.k))
        files.update((f"envelope_tau{tau:g}_cell{i}.csv", text) for i, text in enumerate(envelopes))
    _write(args.out, files)
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
    # the rules and their regrets do not depend on tau: one derivation, one write per tau name
    texts, reports = {}, {}
    for rule in RULES:
        policy = derive_policy(field, rule)
        texts[f"policy_{rule}"] = policy_to_json(policy)
        reports[rule] = _regret_report_data(max_regret(policy, field))
    texts["regret"] = _json_text(reports)
    for name in dict.fromkeys(f"{tau:g}" for tau in taus):
        _write(args.out, {f"{stem}_tau{name}.json": text for stem, text in texts.items()})
    return 0


def _write_rate_tables(args, prefix: str, column: str, runs) -> None:
    """Write the classification and the regret table of (label, DGP) runs at each tau.

    Each row is a run's label, then estimator, criterion and value; ``column``
    heads the labels, and an empty label and column leave them out.
    """
    for tau in _parse_taus(args.tau):
        header = f"{column}estimator,criterion,rate\n"
        tables = {"classification": [header], "regret": [header]}
        for label, dgp in runs:
            for name, experiment in zip(tables, (classification_experiment, regret_experiment)):
                rows = experiment(dgp, tau, args.n, args.reps, seed=args.seed, k=args.k).rows
                tables[name] += (f"{label}{est},{crit},{v:.6f}\n" for est, crit, v in rows)
        _write(args.out, {
            f"{prefix}{name}_tau{tau:g}.csv": "".join(lines) for name, lines in tables.items()
        })


def cmd_simulate(args) -> int:
    if not args.dgp:
        raise _CliError(2, "simulate needs --dgp")
    _write_rate_tables(args, "", "", [("", _resolve_dgp(args.dgp))])
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
    runs = [(f"{sg},", SUBGROUPS[sg]) for sg in _parse_subgroups(args.subgroups)]
    _write_rate_tables(args, "tables_", "subgroup,", runs)
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
    preds = 2.0 * policy.deltas() - 1.0  # the rule's 1{f(x) >= 0} as +1 or -1
    miscls = int(np.sum((preds != labels) & (weights > 0)))
    report = {
        "surrogate_regret": surrogate_regret(f, field),
        "training_misclassifications": miscls,
        "epochs": len(trace),
        "final_objective": float(trace[-1]),
    }
    _write(args.out, {
        "owl_model.json": decision_function_to_json(f),
        "owl_policy.json": policy_to_json(policy),
        "owl_report.json": _json_text(report),
    })
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
    except (LpSolveError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
