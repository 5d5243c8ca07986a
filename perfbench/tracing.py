"""Spans around the package's entry points, recorded from outside the package.

The tracer replaces each entry point below by a timing wrapper. It patches
every attribute of every ``qotepolicy`` module that is bound to the entry
point's function object, so a call is caught at whatever name ``cli``, ``sim``
or ``bounds`` reaches it through (``bounds`` reaches scipy's ``linprog`` as
``_linprog``). Nothing under ``src/`` changes. Spans stay in memory and the
run writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (span name, defining module, attribute)
ENTRY_POINTS = (
    ("cli.main", "qotepolicy.cli", "main"),
    ("marginals.read_sample_csv", "qotepolicy.marginals", "read_sample_csv"),
    ("marginals.make_y_grid", "qotepolicy.marginals", "make_y_grid"),
    ("bounds.coupling_lp_bounds", "qotepolicy.bounds", "coupling_lp_bounds"),
    ("bounds.qote_coupling_bounds", "qotepolicy.bounds", "qote_coupling_bounds"),
    ("bounds.invert_bounds", "qotepolicy.bounds", "invert_bounds"),
    ("bounds.functional_bounds", "qotepolicy.bounds", "functional_bounds"),
    ("bounds.bernstein_lp_bounds", "qotepolicy.bounds", "bernstein_lp_bounds"),
    ("policy.derive_policy", "qotepolicy.policy", "derive_policy"),
    ("policy.max_regret", "qotepolicy.policy", "max_regret"),
    ("owl.train_owl", "qotepolicy.owl", "train_owl"),
    ("sim.draw_sample", "qotepolicy.sim", "draw_sample"),
    ("sim.truths_for", "qotepolicy.sim", "truths_for"),
    ("sim.classification_experiment", "qotepolicy.sim", "classification_experiment"),
    ("sim.regret_experiment", "qotepolicy.sim", "regret_experiment"),
    ("lpcore.solve_lp", "qotepolicy.lpcore", "solve_lp"),
    ("highs.linprog", "scipy.optimize", "linprog"),
)

SOLVERS = ("highs.linprog", "lpcore.solve_lp")
CLI_SUBCOMMANDS = ("bounds", "policy", "tables", "owl")


def _copula_shape(k: int, tag: str):
    """(variables, inequality rows) of the SI or PQD coupling program at k."""
    rows = k * k + (2 * (k - 1) ** 2 if tag == "SI" else 0)
    return (k - 1) ** 2, rows


# median seconds per HiGHS solve of these program shapes
SOLVE_SHAPES = {
    "si_k30": _copula_shape(30, "SI"),
    "pqd_k50": _copula_shape(50, "PQD"),
    "si_k50": _copula_shape(50, "SI"),
}

# per-layer metrics: name -> unit; every traced run prints all of them
PER_LAYER = {
    "highs.linprog.calls": "count",
    "highs.linprog.s": "s",
    "highs.linprog.iterations": "count",
    "highs.linprog.failed": "count",
    **{f"highs.solve_s.{label}": "s" for label in SOLVE_SHAPES},
    "lpcore.solve_lp.calls": "count",
    "lpcore.solve_lp.s": "s",
    "lpcore.solve_lp.iterations": "count",
    "lpcore.solve_lp.failed": "count",
    "bounds.lp_per_interval": "LP/interval",
    "bounds.distinct_staircase_share": "share",
    "bounds.coupling_lp_bounds.calls": "count",
    "bounds.coupling_lp_bounds.s": "s",
    "bounds.coupling_lp_bounds.self_s": "s",
    "bounds.qote_coupling_bounds.calls": "count",
    "bounds.qote_coupling_bounds.s": "s",
    "bounds.qote_coupling_bounds.self_s": "s",
    "bounds.invert_bounds.s": "s",
    "bounds.functional_bounds.s": "s",
    "bounds.bernstein_lp_bounds.s": "s",
    "marginals.read_sample_csv.calls": "count",
    "marginals.read_sample_csv.s": "s",
    "marginals.make_y_grid.calls": "count",
    "marginals.make_y_grid.s": "s",
    "policy.derive_policy.calls": "count",
    "policy.derive_policy.s": "s",
    "policy.max_regret.calls": "count",
    "policy.max_regret.s": "s",
    "owl.train_owl.calls": "count",
    "owl.train_owl.s": "s",
    "owl.train_owl.epochs": "count",
    "sim.draw_sample.calls": "count",
    "sim.draw_sample.s": "s",
    "sim.truths_for.calls": "count",
    "sim.truths_for.s": "s",
    "sim.classification_experiment.s": "s",
    "sim.regret_experiment.s": "s",
    "sim.rep_s": "s",
    **{f"cli.{sub}.{m}": u for sub in CLI_SUBCOMMANDS for m, u in (("calls", "count"), ("s", "s"))},
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class EntryPointMissing(RuntimeError):
    """An entry point the tracer wraps is gone from the package."""


def _linprog_info(args, kwargs, res):
    c = args[0] if args else kwargs["c"]
    a_ub = args[1] if len(args) > 1 else kwargs.get("A_ub")
    return {
        "shape": [len(c), 0 if a_ub is None else int(a_ub.shape[0])],
        "iterations": int(getattr(res, "nit", 0) or 0),
        "failed": int(res.status != 0),
    }


def _solve_lp_info(args, kwargs, sol):
    return {"iterations": int(sol.iterations), "failed": int(sol.status != "optimal")}


def _train_owl_info(args, kwargs, result):
    return {"epochs": len(result[1])}


_INFO = {
    "highs.linprog": _linprog_info,
    "lpcore.solve_lp": _solve_lp_info,
    "owl.train_owl": _train_owl_info,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "info", "index")

    def __init__(self, name, index, parent, rnd):
        self.name = name
        self.index = index
        self.parent = parent
        self.round = rnd
        self.start = self.end = 0.0
        self.info = {}

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "round": self.round,
            **self.info,
        }


class Tracer:
    """Records spans around the entry points while installed."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._stack = []
        self._patches = []
        self._targets = []
        for name, module, attr in ENTRY_POINTS:
            try:
                func = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                raise EntryPointMissing(
                    f"traced entry point {module}.{attr} ({name}) no longer exists; "
                    "update perfbench/tracing.py"
                ) from None
            self._targets.append((name, module, func))

    def begin(self, name, **info):
        span = Span(name, len(self.spans), self._stack[-1] if self._stack else None,
                    self.round)
        span.info.update(info)
        self._stack.append(span.index)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span):
        span.end = time.perf_counter()
        # an operation stopped at its latency limit may leave inner spans open
        if span.index in self._stack:
            pos = self._stack.index(span.index)
            for index in self._stack[pos + 1:]:
                self.spans[index].end = span.end
            del self._stack[pos:]

    def _wrap(self, name, func):
        info = _INFO.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0]}"
            span = self.begin(span_name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.end(span)
                span.info["error"] = type(exc).__name__
                span.info["failed"] = 1
                raise
            self.end(span)
            if info is not None:
                span.info.update(info(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        modules = [
            mod
            for mname, mod in list(sys.modules.items())
            if mname == "qotepolicy" or mname.startswith("qotepolicy.")
        ]
        for name, module, func in self._targets:
            wrapper = self._wrap(name, func)
            for mod in modules + [sys.modules[module]]:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patches.append((mod, attr, func))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            mod, attr, func = self._patches.pop()
            setattr(mod, attr, func)


def _self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans, rounds, intervals, reps, staircase_share, files, nbytes,
                  traced_walls, untraced_walls):
    """Per-layer metrics, per round, from the spans of ``rounds`` traced rounds."""
    self_s = _self_times(spans)
    calls, secs, selfs = {}, {}, {}
    extra = {"iterations": {}, "failed": {}, "epochs": {}}
    solve_s = {label: [] for label in SOLVE_SHAPES}
    shape_label = {shape: label for label, shape in SOLVE_SHAPES.items()}
    for span, own in zip(spans, self_s):
        n = span.name
        calls[n] = calls.get(n, 0) + 1
        secs[n] = secs.get(n, 0.0) + span.end - span.start
        selfs[n] = selfs.get(n, 0.0) + own
        for key in extra:
            if key in span.info:
                extra[key][n] = extra[key].get(n, 0) + span.info[key]
        if n == "highs.linprog" and "shape" in span.info:
            label = shape_label.get(tuple(span.info["shape"]))
            if label is not None:
                solve_s[label].append(span.end - span.start)

    def per_round(value):
        return value / rounds

    out = {}
    for solver in SOLVERS:
        out[f"{solver}.calls"] = per_round(calls.get(solver, 0))
        out[f"{solver}.s"] = per_round(secs.get(solver, 0.0))
        out[f"{solver}.iterations"] = per_round(extra["iterations"].get(solver, 0))
        out[f"{solver}.failed"] = per_round(extra["failed"].get(solver, 0))
    for label, times in solve_s.items():
        out[f"highs.solve_s.{label}"] = statistics.median(times) if times else 0.0
    # solves made by interval operations, per interval they were asked for
    lp_calls = 0
    for span in spans:
        if span.name in SOLVERS:
            root = span
            while root.parent is not None:
                root = spans[root.parent]
            lp_calls += bool(root.info.get("intervals"))
    out["bounds.lp_per_interval"] = lp_calls / intervals if intervals else 0.0
    out["bounds.distinct_staircase_share"] = staircase_share
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if metric in out or layer.startswith(("highs", "lpcore", "trace")):
            continue
        if stat == "calls":
            out[metric] = per_round(calls.get(layer, 0))
        elif stat == "s" and layer != "cli":
            out[metric] = per_round(secs.get(layer, 0.0))
        elif stat == "self_s" and layer != "cli":
            out[metric] = per_round(selfs.get(layer, 0.0))
    out["owl.train_owl.epochs"] = per_round(extra["epochs"].get("owl.train_owl", 0))
    out["sim.rep_s"] = secs.get("sim.classification_experiment", 0.0) / reps if reps else 0.0
    out["cli.self_s"] = per_round(
        sum(own for span, own in zip(spans, self_s) if span.name.startswith("cli."))
    )
    out["cli.files_written"] = per_round(files)
    out["cli.bytes_written"] = per_round(nbytes)
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_walls, untraced_walls)
    )
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics not derived: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
