"""The four workloads: seeded inputs, the operations of one round, and the
output invariants that decide whether an operation failed.

A round is one pass over a workload's operations. Round ``r`` of a run with
seed ``s`` draws its inputs from ``numpy.random.default_rng([s, salt, r])``,
so every round gets distinct inputs and the same seed gives the same rounds.
The package sees only the generated CSV files and quantile curves. CLI
operations call ``qotepolicy.cli.main`` in this process, one after another
(a closed loop with one client), as a user's batch of CLI runs would.

The invariants hold for any correct solver, so a change that fixes a wrong
number never turns into a failure:
  * lower <= upper for every interval;
  * SI and PQD intervals and envelopes lie inside the unrestricted ones
    (``makarov_bounds`` and ``coupling_lp_bounds(NoAssumption)`` on the same
    t grid); a grid interval may end one t step above the exact Makarov
    upper end, and one step above the unrestricted grid interval, because an
    LP value that equals tau may come back a rounding error below it;
  * envelopes are nondecreasing and lie in [0, 1];
  * CVaR and DisadvantagedGain intervals lie within the range of grid
    differences;
  * the three max-regret expressions in ``regret_*.json`` agree;
  * table rates lie in [0, 1] and table regrets are nonnegative.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional

import numpy as np
from scipy.special import ndtri

import qotepolicy.bounds as qb
import qotepolicy.cli as qcli
import qotepolicy.marginals as qm

TOL = 1e-9
ENV_TOL = 1e-7  # envelope values are LP optima written with 10 digits

# Bivariate normal cells (mu1, mu0, var1, var0, rho), the first two and the
# last taken from the package's subgroups 2, 7 and 1.
CELL_SUBGROUP2 = (4.0, 3.0, 1.0, 25.0, 0.5)
CELL_SUBGROUP7 = (2.0, 0.0, 8.0, 4.0, 0.5)
CELL_SUBGROUP1 = (2.0, 3.0, 1.0, 9.0, 0.5)
ENVELOPE_CELLS = (CELL_SUBGROUP2, CELL_SUBGROUP7)
LAZY_T_POINTS = 201  # the package's default t grid, which the lazy path bisects

SIZES = {
    "envelopes": {
        "full": {"rows_per_cell": 500, "taus": (0.25, 0.5),
                 "si_k": 30, "pqd_k": 50, "tgrid": 7},
        "tiny": {"rows_per_cell": 100, "taus": (0.25, 0.5),
                 "si_k": 10, "pqd_k": 10, "tgrid": 5},
    },
    "replicate": {
        "full": {"subgroups": (1, 5, 8), "tau": 0.25, "n": 1000, "tables_k": 30,
                 "reps": 2, "lazy_k": 50, "lazy_n": 1000},
        "tiny": {"subgroups": (1, 5, 8), "tau": 0.25, "n": 200, "tables_k": 10,
                 "reps": 1, "lazy_k": 10, "lazy_n": 200},
    },
    "rules": {
        "full": {"grid": (20, 10), "rows_per_cell": 60, "k": 20,
                 "taus": (0.25, 0.5, 0.75), "tgrid": 201},
        "tiny": {"grid": (4, 3), "rows_per_cell": 20, "k": 5,
                 "taus": (0.25, 0.5, 0.75), "tgrid": 21},
    },
    "small_grid": {
        "full": {"k": 8, "tgrid": 5, "tau": 0.25, "n": 200,
                 "bernstein_m": 6, "bernstein_points": 21, "functional_cells": 3,
                 "cli_limit_s": 5.0, "lib_limit_s": 3.0},
        "tiny": {"k": 4, "tgrid": 5, "tau": 0.25, "n": 100,
                 "bernstein_m": 3, "bernstein_points": 5, "functional_cells": 2,
                 "cli_limit_s": 5.0, "lib_limit_s": 3.0},
    },
}

WHY = {
    "envelopes": "Dense SI and PQD envelopes from CLI bounds on a 2-cell CSV with "
                 "two taus: HiGHS does nearly all the work, and per-tau reuse, "
                 "caching, warm starts and a cell pool can show.",
    "replicate": "CLI tables on subgroups 1, 5, 8 plus one lazy SI interval at k=50: "
                 "the lazy-probe and lazy-inversion paths, with few but large LPs.",
    "rules": "CLI bounds none and ri, policy and owl on 200-cell CSVs: no LP, so CSV "
             "parsing, the staircase closed form, regret calculus, OWL and file "
             "writing; LP changes predict no change.",
    "small_grid": "CLI SI bounds and library functional and Bernstein bounds at k<=8: "
                  "the only traffic routed to the built-in simplex (lpcore).",
}


@dataclass
class Op:
    """One timed operation and the check of its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    intervals: int = 0
    reps: int = 0
    outdir: Optional[Path] = None
    output: Callable[[Any], bytes] = repr
    limit_s: Optional[float] = None  # latency limit; the op is stopped there


def _call_cli(argv):
    # looked up on each call, so the tracer's wrapper is seen when installed
    return qcli.main(argv)


def cli_op(name, argv, outdir, check, intervals=0, reps=0, limit_s=None) -> Op:
    argv = [str(a) for a in argv] + ["--out", str(outdir)]

    def checked(code):
        if code != 0:
            return [f"exit status {code}"]
        return check()

    return Op(name, functools.partial(_call_cli, argv), checked, intervals, reps, outdir,
              limit_s=limit_s)


# ---------------------------------------------------------------------------
# inputs


def _bivariate(rng, params, n):
    mu1, mu0, var1, var0, rho = params
    z = rng.standard_normal((n, 2))
    y1 = mu1 + math.sqrt(var1) * z[:, 0]
    y0 = mu0 + math.sqrt(var0) * (rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1])
    d = np.zeros(n, dtype=int)
    d[rng.permutation(n)[: n // 2]] = 1
    return np.where(d == 1, y1, y0), d


def _write_csv(path: Path, y, d, x=None):
    cols = ["y", "d"] + ([f"x{j + 1}" for j in range(x.shape[1])] if x is not None else [])
    lines = [",".join(cols)]
    for i in range(y.size):
        row = [repr(float(y[i])), str(int(d[i]))]
        if x is not None:
            row += [repr(float(v)) for v in x[i]]
        lines.append(",".join(row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


class Cell:
    """One covariate cell's grid curves and t grid, built as the CLI builds them."""

    def __init__(self, y, d, k, tgrid):
        self.v1 = qm.make_y_grid(y[d == 1], k)
        self.v0 = qm.make_y_grid(y[d == 0], k)
        self.t = qb.default_t_grid(self.v1, self.v0, tgrid)
        u = qm.u_grid(k)
        self.q1 = qm.QuantileCurve(u, self.v1)
        self.q0 = qm.QuantileCurve(u, self.v0)

    def staircases(self):
        """(distinct searchsorted(v0, v1 - t) vectors, t points)."""
        b = np.searchsorted(self.v0, self.v1[:, None] - self.t[None, :], side="left")
        return np.unique(b, axis=1).shape[1], self.t.size


def _cells_by_key(y, d, x, k, tgrid):
    keys = np.unique(x, axis=0)
    return [Cell(y[(x == key).all(axis=1)], d[(x == key).all(axis=1)], k, tgrid) for key in keys]


# ---------------------------------------------------------------------------
# invariants


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_envelope(path: Path):
    text = path.read_text()
    fields = text.replace("\n", ",").split(",")
    if fields[:3] != ["t", "lower", "upper"]:
        raise ValueError(f"{path.name}: bad header")
    return np.array(fields[3:-1], dtype=float).reshape(-1, 3)


def _envelope_problems(name, t, lower, upper):
    out = []
    for side, v in (("lower", lower), ("upper", upper)):
        if np.any(v < -TOL) or np.any(v > 1 + TOL):
            out.append(f"{name}: {side} envelope leaves [0, 1]")
        if np.any(np.diff(v) < -TOL):
            out.append(f"{name}: {side} envelope decreases")
    if np.any(lower > upper + TOL):
        out.append(f"{name}: lower envelope above upper")
    if np.any(np.diff(t) <= 0):
        out.append(f"{name}: t grid not increasing")
    return out


def _interval_problems(name, lo, up, cell: Cell, tau, restricted):
    """Interval checks against the unrestricted bounds of the same cell."""
    out = []
    if not lo <= up + TOL:
        out.append(f"{name}: lower {lo!r} > upper {up!r}")
    tol = TOL * max(1.0, float(np.abs(cell.t).max()))
    dt = float(cell.t[1] - cell.t[0])
    mak = qb.makarov_bounds(cell.q1, cell.q0, tau)
    if lo < mak.lower - tol or up > mak.upper + dt + tol:
        out.append(
            f"{name}: [{lo!r}, {up!r}] outside unrestricted [{mak.lower!r}, {mak.upper!r}]"
        )
    if restricted:
        none_env = qb.coupling_lp_bounds(
            cell.q1, cell.q0, qb.AssumptionSet("NoAssumption"), t_grid=cell.t
        )
        grid = qb.invert_bounds(none_env, tau)
        if lo < grid.lower - tol or up > grid.upper + dt + tol:
            out.append(
                f"{name}: [{lo!r}, {up!r}] outside unrestricted grid interval "
                f"[{grid.lower!r}, {grid.upper!r}]"
            )
    return out


def check_bounds_dir(outdir: Path, cells, taus, tag) -> List[str]:
    """Invariants of a ``bounds`` output directory (JSON per tau, envelope CSVs)."""
    out = []
    restricted = tag in ("SI", "PQD")
    for tau in taus:
        payload = _read_json(outdir / f"bounds_tau{tau:g}.json")
        if len(payload["cells"]) != len(cells):
            out.append(f"bounds_tau{tau:g}.json: {len(payload['cells'])} cells, "
                       f"expected {len(cells)}")
            continue
        for i, (row, cell) in enumerate(zip(payload["cells"], cells)):
            name = f"tau {tau:g} cell {i}"
            lo, up = row["lower"], row["upper"]
            if tag == "RankInvariance":
                if lo != up:
                    out.append(f"{name}: rank-invariance interval is not a point")
                continue
            out += _interval_problems(name, lo, up, cell, tau, restricted)
            env = _read_envelope(outdir / f"envelope_tau{tau:g}_cell{i}.csv")
            t, lower, upper = env[:, 0], env[:, 1], env[:, 2]
            out += _envelope_problems(name, t, lower, upper)
            if restricted:
                base = qb.coupling_lp_bounds(
                    cell.q1, cell.q0, qb.AssumptionSet("NoAssumption"), t_grid=cell.t
                )
                if np.any(lower < base.lower - ENV_TOL) or np.any(upper > base.upper + ENV_TOL):
                    out.append(f"{name}: {tag} envelope leaves the unrestricted one")
    return out


def check_policy_dir(outdir: Path, tau, ncells) -> List[str]:
    out = []
    for rule in qcli.RULES:
        cells = _read_json(outdir / f"policy_{rule}_tau{tau:g}.json")["cells"]
        deltas = [c["delta"] for c in cells]
        if len(deltas) != ncells or any(not 0.0 <= v <= 1.0 for v in deltas):
            out.append(f"policy {rule} tau {tau:g}: bad deltas")
    for rule, report in _read_json(outdir / f"regret_tau{tau:g}.json").items():
        e = report["expressions"]
        if max(abs(e[0] - e[1]), abs(e[0] - e[2])) > TOL * max(1.0, abs(e[0])):
            out.append(f"regret {rule} tau {tau:g}: expressions disagree {e}")
    return out


def check_owl_dir(outdir: Path, ncells) -> List[str]:
    out = []
    report = _read_json(outdir / "owl_report.json")
    if not (math.isfinite(report["surrogate_regret"]) and report["surrogate_regret"] >= -TOL):
        out.append(f"owl: surrogate regret {report['surrogate_regret']!r}")
    if report["epochs"] < 1:
        out.append("owl: no epochs")
    deltas = [c["delta"] for c in _read_json(outdir / "owl_policy.json")["cells"]]
    if len(deltas) != ncells or any(v not in (0.0, 1.0) for v in deltas):
        out.append("owl: policy deltas not in {0, 1}")
    return out


def check_tables_dir(outdir: Path, tau, nrows) -> List[str]:
    out = []
    for kind in ("classification", "regret"):
        lines = (outdir / f"tables_{kind}_tau{tau:g}.csv").read_text().splitlines()
        values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        if len(values) != nrows:
            out.append(f"tables {kind}: {len(values)} rows, expected {nrows}")
        if kind == "classification" and any(not 0.0 <= v <= 1.0 for v in values):
            out.append("tables: a classification rate leaves [0, 1]")
        if kind == "regret" and any(not (math.isfinite(v) and v >= 0) for v in values):
            out.append("tables: a regret is negative or not finite")
    return out


def check_lib_interval(name, iv, cell: Cell, tau) -> List[str]:
    return _interval_problems(name, iv.lower, iv.upper, cell, tau, restricted=True)


def check_functional(name, iv, v1, v0) -> List[str]:
    diffs = v1[:, None] - v0[None, :]
    lo_lim, up_lim = float(diffs.min()), float(diffs.max())
    tol = TOL * max(1.0, abs(lo_lim), abs(up_lim))
    out = []
    if not iv.lower <= iv.upper + tol:
        out.append(f"{name}: lower {iv.lower!r} > upper {iv.upper!r}")
    if iv.lower < lo_lim - tol or iv.upper > up_lim + tol:
        out.append(
            f"{name}: [{iv.lower!r}, {iv.upper!r}] outside grid differences "
            f"[{lo_lim!r}, {up_lim!r}]"
        )
    return out


def _interval_bytes(iv):
    return repr((float(iv.lower), float(iv.upper))).encode()


def _envelope_bytes(env):
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes()
                    for a in (env.t_grid, env.lower, env.upper))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    salt = 0

    def __init__(self, name, seed, size):
        self.seed = seed
        self.cfg = SIZES[name][size]

    def rng(self, r):
        return np.random.default_rng([self.seed, self.salt, r])

    def record(self):
        raise NotImplementedError

    def round_ops(self, r, rdir: Path):
        """(operations, distinct staircases, t points) for round r."""
        raise NotImplementedError


class Envelopes(Workload):
    salt = 1

    def record(self):
        c = self.cfg
        return {"cells": len(ENVELOPE_CELLS), "k": [c["si_k"], c["pqd_k"]], "t_points": c["tgrid"],
                "taus": list(c["taus"]), "reps": 0,
                "operations": ["cli bounds si", "cli bounds pqd"]}

    def round_ops(self, r, rdir):
        c = self.cfg
        rng = self.rng(r)
        parts = [_bivariate(rng, p, c["rows_per_cell"]) for p in ENVELOPE_CELLS]
        y = np.concatenate([p[0] for p in parts])
        d = np.concatenate([p[1] for p in parts])
        x = np.repeat(np.arange(len(parts), dtype=float), c["rows_per_cell"])[:, None]
        csv = rdir / "in" / "sample.csv"
        _write_csv(csv, y, d, x)
        taus = ",".join(f"{t:g}" for t in c["taus"])
        ops, distinct, points = [], 0, 0
        for flag, tag, k in (("si", "SI", c["si_k"]), ("pqd", "PQD", c["pqd_k"])):
            cells = _cells_by_key(y, d, x, k, c["tgrid"])
            for cell in cells:
                n_d, n_t = cell.staircases()
                distinct, points = distinct + n_d, points + n_t
            out = rdir / "out" / flag
            ops.append(cli_op(
                f"cli bounds {flag} k{k}",
                ["bounds", "--input", csv, "--assumption", flag, "--k", k,
                 "--tgrid", c["tgrid"], "--tau", taus],
                out,
                functools.partial(check_bounds_dir, out, cells, c["taus"], tag),
                intervals=len(cells) * len(c["taus"]),
            ))
        return ops, distinct, points


class Replicate(Workload):
    salt = 2

    def record(self):
        c = self.cfg
        return {"cells": 1, "k": [c["tables_k"], c["lazy_k"]], "t_points": LAZY_T_POINTS,
                "taus": [c["tau"]], "reps": c["reps"], "subgroups": list(c["subgroups"]),
                "operations": ["cli tables", "qote_coupling_bounds SI"]}

    def round_ops(self, r, rdir):
        c = self.cfg
        rng = self.rng(r)
        subgroups = ",".join(str(s) for s in c["subgroups"])
        out = rdir / "out" / "tables"
        tables_seed = int(rng.integers(2**31))
        nrows = len(c["subgroups"]) * 6 * 3  # subgroups x estimators x criteria
        tables = cli_op(
            f"cli tables k{c['tables_k']}",
            ["tables", "--subgroups", subgroups, "--tau", c["tau"], "--n", c["n"],
             "--k", c["tables_k"], "--reps", c["reps"], "--seed", tables_seed],
            out,
            functools.partial(check_tables_dir, out, c["tau"], nrows),
            reps=len(c["subgroups"]) * c["reps"],
        )
        y, d = _bivariate(rng, CELL_SUBGROUP2, c["lazy_n"])
        cell = Cell(y, d, c["lazy_k"], LAZY_T_POINTS)
        tau = c["tau"]
        lazy = Op(
            f"qote_coupling_bounds SI k{c['lazy_k']}",
            lambda: qb.qote_coupling_bounds(
                cell.q1, cell.q0, tau, qb.AssumptionSet("SI"), k=c["lazy_k"], t_grid=cell.t
            ),
            lambda iv: check_lib_interval("lazy SI", iv, cell, tau),
            intervals=1,
            output=_interval_bytes,
        )
        distinct, points = cell.staircases()
        return [tables, lazy], distinct, points


class Rules(Workload):
    salt = 3

    def record(self):
        c = self.cfg
        return {"cells": c["grid"][0] * c["grid"][1], "k": [c["k"]], "t_points": c["tgrid"],
                "taus": list(c["taus"]), "reps": 0,
                "operations": ["cli bounds none", "cli bounds ri", "cli policy per tau",
                               "cli owl"]}

    def round_ops(self, r, rdir):
        c = self.cfg
        rng = self.rng(r)
        n1, n2 = c["grid"]
        ncells, per = n1 * n2, c["rows_per_cell"]
        ys, ds = [], []
        for _ in range(ncells):
            params = (rng.uniform(-1, 3), rng.uniform(-1, 3), rng.uniform(0.25, 9),
                      rng.uniform(0.25, 9), rng.uniform(-0.5, 0.9))
            y, d = _bivariate(rng, params, per)
            ys.append(y)
            ds.append(d)
        keys = np.array([(i, j) for i in range(n1) for j in range(n2)], dtype=float)
        x = np.repeat(keys, per, axis=0)
        y, d = np.concatenate(ys), np.concatenate(ds)
        order = rng.permutation(y.size)
        y, d, x = y[order], d[order], x[order]
        csv = rdir / "in" / "sample.csv"
        _write_csv(csv, y, d, x)
        cells = _cells_by_key(y, d, x, c["k"], c["tgrid"])
        distinct = points = 0
        for cell in cells:
            n_d, n_t = cell.staircases()
            distinct, points = distinct + n_d, points + n_t
        taus = ",".join(f"{t:g}" for t in c["taus"])
        intervals = ncells * len(c["taus"])
        ops = []
        for flag, tag in (("none", "NoAssumption"), ("ri", "RankInvariance")):
            out = rdir / "out" / flag
            ops.append(cli_op(
                f"cli bounds {flag}",
                ["bounds", "--input", csv, "--assumption", flag, "--k", c["k"],
                 "--tgrid", c["tgrid"], "--tau", taus],
                out,
                functools.partial(check_bounds_dir, out, cells, c["taus"], tag),
                intervals=intervals,
            ))
        for tau in c["taus"]:
            out = rdir / "out" / f"policy_tau{tau:g}"
            ops.append(cli_op(
                f"cli policy tau{tau:g}",
                ["policy", "--input", rdir / "out" / "none" / f"bounds_tau{tau:g}.json",
                 "--tau", f"{tau:g}"],
                out,
                functools.partial(check_policy_dir, out, tau, ncells),
                intervals=ncells,
            ))
        out = rdir / "out" / "owl"
        ops.append(cli_op(
            "cli owl",
            ["owl", "--input", rdir / "out" / "none" / "bounds_tau0.5.json"],
            out,
            functools.partial(check_owl_dir, out, ncells),
        ))
        return ops, distinct, points


def population_curves_subgroup1(k):
    u = qm.u_grid(k)
    z = ndtri(u)
    mu1, mu0, var1, var0, _ = CELL_SUBGROUP1
    return (qm.QuantileCurve(u, mu1 + math.sqrt(var1) * z),
            qm.QuantileCurve(u, mu0 + math.sqrt(var0) * z))


class SmallGrid(Workload):
    salt = 4

    def record(self):
        c = self.cfg
        return {"cells": 1, "k": [c["k"]], "t_points": [c["tgrid"], c["bernstein_points"]],
                "taus": [c["tau"]], "reps": 0, "bernstein_degree": c["bernstein_m"],
                "functional_cells": c["functional_cells"],
                "latency_limits_s": {"cli": c["cli_limit_s"], "library": c["lib_limit_s"]},
                "operations": ["cli bounds si",
                               "functional_bounds SI CVaR, per seeded cell",
                               "functional_bounds PQD DisadvantagedGain, per seeded cell",
                               "the same two on subgroup 1 population curves",
                               "bernstein_lp_bounds SI"]}

    def round_ops(self, r, rdir):
        c = self.cfg
        rng = self.rng(r)
        k, tau = c["k"], c["tau"]
        y, d = _bivariate(rng, CELL_SUBGROUP1, c["n"])
        csv = rdir / "in" / "sample.csv"
        _write_csv(csv, y, d)
        cell = Cell(y, d, k, c["tgrid"])
        out = rdir / "out" / "si"
        ops = [cli_op(
            f"cli bounds si k{k}",
            ["bounds", "--input", csv, "--assumption", "si", "--k", k,
             "--tgrid", c["tgrid"], "--tau", f"{tau:g}"],
            out,
            functools.partial(check_bounds_dir, out, [cell], [tau], "SI"),
            intervals=1,
            limit_s=c["cli_limit_s"],
        )]
        # The seeded functionals run on this cell and on further seeded cells:
        # about half of the SI CVaR programs at k=8 hit the simplex iteration
        # cap, so several per round leave completed ones to time.
        pop1, pop0 = population_curves_subgroup1(k)
        cases = []
        for curves in [cell] + [Cell(*_bivariate(rng, CELL_SUBGROUP1, c["n"]), k, c["tgrid"])
                                for _ in range(c["functional_cells"] - 1)]:
            # a CVaR threshold above the upper end of a median-ish quantile
            # interval keeps the conditioning event positive under every coupling
            cvar_tau = float(rng.uniform(0.3, 0.7))
            cvar_t = qb.makarov_bounds(curves.q1, curves.q0, cvar_tau).upper + 1e-6
            cvar_t = min(cvar_t, float((curves.v1[:, None] - curves.v0[None, :]).max()))
            gain_t = float(curves.v0[int(rng.integers(2, k))])
            cases += [("seeded", curves.q1, curves.q0, "SI", qb.CVaR(cvar_t)),
                      ("seeded", curves.q1, curves.q0, "PQD", qb.DisadvantagedGain(gain_t))]
        cases += [("subgroup1", pop1, pop0, "SI", qb.CVaR(-1.0)),
                  ("subgroup1", pop1, pop0, "PQD", qb.DisadvantagedGain(CELL_SUBGROUP1[1]))]
        for label, q1, q0, tag, functional in cases:
            name = f"functional_bounds {tag} {type(functional).__name__} {label}"
            ops.append(Op(
                name,
                functools.partial(_functional, q1, q0, tag, functional),
                functools.partial(check_functional, name, v1=q1.values, v0=q0.values),
                intervals=1,
                output=_interval_bytes,
                limit_s=c["lib_limit_s"],
            ))
        m, grid = c["bernstein_m"], qb.default_t_grid(cell.v1, cell.v0, c["bernstein_points"])

        def bernstein_check(env):
            return _envelope_problems("bernstein SI", env.t_grid, env.lower, env.upper)

        ops.append(Op(
            f"bernstein_lp_bounds SI m{m}",
            lambda: qb.bernstein_lp_bounds(
                cell.q1, cell.q0, qb.AssumptionSet("SI"), t_grid=grid, m1=m, m2=m
            ),
            bernstein_check,
            output=_envelope_bytes,
            limit_s=c["lib_limit_s"],
        ))
        distinct, points = cell.staircases()
        return ops, distinct, points


def _functional(q1, q0, tag, functional):
    return qb.functional_bounds(q1, q0, qb.AssumptionSet(tag), functional)


CLASSES = {"envelopes": Envelopes, "replicate": Replicate, "rules": Rules,
           "small_grid": SmallGrid}


def make(name, seed, size) -> Workload:
    return CLASSES[name](name, seed, size)


def output_digest(h, op: Op, result) -> None:
    """Feed one operation's outputs (files, or the returned value) to a hash."""
    h.update(op.name.encode() + b"\0")
    if op.outdir is not None:
        if op.outdir.is_dir():
            for path in sorted(p for p in op.outdir.rglob("*") if p.is_file()):
                h.update(str(path.relative_to(op.outdir)).encode() + b"\0")
                h.update(path.read_bytes())
    elif result is not None:
        h.update(op.output(result))
