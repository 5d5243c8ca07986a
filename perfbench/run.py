#!/usr/bin/env python3
"""Benchmark of the qotepolicy package, run from the root of a checkout:

    python3 perfbench/run.py --workload envelopes --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads (inputs, operations and output checks are in workloads.py):
envelopes, replicate and rules, the ones BENCHMARK.json lists, and
small_grid, which is not listed there because the package fails on it:
its k=8 programs go to the built-in simplex (``qotepolicy.lpcore``), which
returns intervals that break the output invariants (lower above upper, or
outside the grid differences) or runs into its iteration cap. small_grid
stays runnable by name and reports those failures. ``--workload all`` runs
all four, each in a fresh process, one after another, and prints one table.

A run is one process, so the package's ``lru_cache``s start cold, as they do
for a CLI user. It repeats rounds, one pass over the workload's operations
with fresh seeded inputs each, until ``--seconds`` have passed, and clears
those caches before every round so that each round pays what a fresh CLI
process pays, import aside. Every output is checked after its operation,
outside the timed region; an operation fails if it raises, exits non-zero or
breaks an invariant.

End-to-end metrics (``--trace 0``, nothing wrapped):
  setup_s               median time to import qotepolicy.cli (numpy, scipy),
                        over this process and SETUP_REPEATS - 1 fresh
                        interpreters
  norm_wall_s           time of a round whose operations all run to
                        completion: the sum over the workload's operations of
                        each one's median normalised time over the rounds in
                        which it returned (over all rounds if it never did)
  norm_intervals_per_s  (cell, tau) intervals that the bounds, policy and
                        library interval operations of such a round are asked
                        for, per normalised second of those operations' time
  peak_rss_mb           max RSS of this process and of its children
The speed a shared host gives one process drifts by half or more within
minutes, for compiled and Python code alike, and that drift would swamp any
change to the package. So each operation's time is normalised: the run times
a fixed reference task that uses none of the package (class Reference)
before the first operation and after each one, and scales the operation's
time by REF_NOMINAL_S over the mean of the two reference times around it.
That reads as the operation's time on a host on which the reference task
takes REF_NOMINAL_S. Printed beside them but not in the JSON: the same
metrics from raw times (wall_s, intervals_per_s), reps_per_s on replicate,
and failed_share (failed / attempted, also given as the JSON's ``failed``
and ``attempted``).

Some small_grid operations run into the built-in simplex's 200 000-pivot
iteration cap, which takes 10 s or more per LP. So small_grid operations have
latency limits, several times their normal time; one that reaches its limit
is stopped there and counted as failed. A stopped or raising operation is a
failure and leaves the timing metrics, which would otherwise swing with the
share of inputs that hit the cap; an operation whose output breaks an
invariant still counts with its time.

Per-layer metrics (``--trace 1``): TRACE_ROUNDS rounds, a fixed number so
that counts repeat exactly, each run once untraced and checked and once
traced. Values are per traced round; tracing.py lists them. The traced run
stops with an error if an entry point it wraps no longer exists.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The run also writes
``.perfbench/results/<workload>-seed<n>-trace<t>.json`` with the inputs, the
environment, every failure, the digest of round 0's outputs, each
operation's raw and reference times and, when traced, the spans. The digest
lets two commits be compared for byte-identical outputs on the same seed; a
changed digest is reported, not counted as a failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
TRACE_ROUNDS = 2
CHILD_TIMEOUT_S = 170

WORKLOADS = ("envelopes", "replicate", "rules")  # the ones BENCHMARK.json lists
BY_NAME_ONLY = ("small_grid",)  # the package fails on it; see the docstring
END_TO_END = {"setup_s": "s", "norm_wall_s": "s", "norm_intervals_per_s": "1/s",
              "peak_rss_mb": "MiB"}
RAW_UNITS = {"wall_s": "s", "intervals_per_s": "1/s", "reps_per_s": "1/s"}

# The reference task (class Reference) and the time it takes on a calm host
# of the kind the benchmark was tuned on (2 shared cores, Python 3.11).
REF_SEED = 20231126
REF_LOOP = 100_000
REF_REPEATS = 3
REF_NOMINAL_S = 0.02

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qotepolicy.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + BY_NAME_ONLY + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the smoke self-test")
    return p.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _import_seconds_in_fresh_interpreter():
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _clear_package_caches():
    for name, mod in list(sys.modules.items()):
        if name == "qotepolicy" or name.startswith("qotepolicy."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def _blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if unreadable."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    return int(get())
    return None


def _environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def _peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class OperationStopped(Exception):
    """Raised inside an operation that reached its latency limit."""


def _stop(signum, frame):
    raise OperationStopped()


class Reference:
    """A fixed task that uses none of the package: a HiGHS solve of one
    seeded dense LP through scipy and a pure-Python loop, in about equal
    shares. Its time, taken between operations, tracks the speed that the
    shared host gives this process at that moment."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(REF_SEED)
        n, m = 160, 120
        self.a = rng.uniform(0.0, 1.0, (m, n))
        self.b = self.a.sum(axis=1) / 2
        self.c = -rng.uniform(0.0, 1.0, n)

    def _once(self):
        from scipy.optimize import linprog

        t0 = time.perf_counter()
        res = linprog(self.c, A_ub=self.a, b_ub=self.b, bounds=(0.0, 1.0), method="highs")
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        seconds = time.perf_counter() - t0
        if res.status != 0 or acc <= 0:
            raise RuntimeError(f"reference task failed: {res.message}")
        return seconds

    def measure(self):
        """Median of REF_REPEATS timings of the task, in seconds."""
        return statistics.median(self._once() for _ in range(REF_REPEATS))


def _run_pass(ops, check, digest=None, tracer=None, reference=None):
    """Run the operations of one round in order; return one record per op.

    With a reference, its time is taken before the first operation and after
    each one, and each record gets the mean of the two around its operation.
    """
    from workloads import output_digest

    records = []
    ref_before = reference.measure() if reference is not None else None
    for op in ops:
        span = None
        if tracer is not None:
            span = tracer.begin("op", op=op.name, intervals=op.intervals)
        error, result = None, None
        if op.limit_s:
            previous = signal.signal(signal.SIGALRM, _stop)
            signal.setitimer(signal.ITIMER_REAL, op.limit_s)
        t0 = time.perf_counter()
        try:
            result = op.run()
        except OperationStopped:
            error = f"stopped at its {op.limit_s:g} s latency limit"
        except Exception as exc:  # counted as a failed operation, run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if op.limit_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t0
        if span is not None:
            tracer.end(span)
        problems = [error] if error else []
        if check and not error:
            try:
                problems = op.check(result)
            except Exception as exc:  # an unreadable output is a failed check
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if digest is not None:
            output_digest(digest, op, result if not error else None)
        record = {"op": op.name, "s": seconds, "problems": problems,
                  "completed": error is None,
                  "intervals": op.intervals, "reps": op.reps, "outdir": op.outdir}
        if reference is not None:
            ref_after = reference.measure()
            record["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        records.append(record)
    return records


def _written(records):
    files = nbytes = 0
    for rec in records:
        if rec["outdir"] is not None and rec["outdir"].is_dir():
            for path in rec["outdir"].rglob("*"):
                if path.is_file():
                    files += 1
                    nbytes += path.stat().st_size
    return files, nbytes


def _measure(wl, args, work):
    """Untraced rounds until --seconds pass. Returns the run summary."""
    rounds, failures = [], []
    attempted = 0
    digest = hashlib.sha256()
    distinct = points = 0
    reference = Reference()
    reference.measure()  # warm-up: scipy's HiGHS loads on first use
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        _clear_package_caches()
        rdir = work / f"r{r}"
        ops, n_d, n_t = wl.round_ops(r, rdir)
        distinct, points = distinct + n_d, points + n_t
        records = _run_pass(ops, check=True, digest=digest if r == 0 else None,
                            reference=reference)
        shutil.rmtree(rdir, ignore_errors=True)
        rounds.append(records)
        for rec in records:
            attempted += 1
            if rec["problems"]:
                failures.append({"round": r, "op": rec["op"], "problems": rec["problems"]})
        r += 1
    return rounds, failures, attempted, digest.hexdigest(), distinct / points


def _measure_traced(wl, tracer, work):
    """TRACE_ROUNDS rounds, each untraced and checked, then traced."""
    failures, attempted = [], 0
    digest = hashlib.sha256()
    distinct = points = intervals = reps = files = nbytes = 0
    traced_walls, untraced_walls = [], []
    for r in range(TRACE_ROUNDS):
        _clear_package_caches()
        ops, n_d, n_t = wl.round_ops(r, work / f"r{r}-plain")
        distinct, points = distinct + n_d, points + n_t
        records = _run_pass(ops, check=True, digest=digest if r == 0 else None)
        untraced_walls.append(sum(rec["s"] for rec in records))
        for rec in records:
            attempted += 1
            if rec["problems"]:
                failures.append({"round": r, "op": rec["op"], "problems": rec["problems"]})
        shutil.rmtree(work / f"r{r}-plain", ignore_errors=True)

        _clear_package_caches()
        ops, _, _ = wl.round_ops(r, work / f"r{r}-traced")
        tracer.round = r
        tracer.install()
        try:
            records = _run_pass(ops, check=False, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(sum(rec["s"] for rec in records))
        f, b = _written(records)
        files, nbytes = files + f, nbytes + b
        intervals += sum(op.intervals for op in ops)
        reps += sum(op.reps for op in ops)
        shutil.rmtree(work / f"r{r}-traced", ignore_errors=True)
    return {
        "failures": failures, "attempted": attempted, "digest": digest.hexdigest(),
        "staircase_share": distinct / points, "intervals": intervals, "reps": reps,
        "files": files, "bytes": nbytes, "traced_walls": traced_walls,
        "untraced_walls": untraced_walls,
    }


def _end_to_end(rounds, setup):
    """Metrics of a round whose operations all run to completion.

    Each operation counts with its median time over the rounds in which it
    returned, or over all rounds if it never did in this run; the normalised
    metrics take each time scaled by REF_NOMINAL_S over the reference time
    around it. Returns (the JSON's metrics, the raw ones printed beside them).
    """
    kinds = {}
    for records in rounds:
        for rec in records:
            kinds.setdefault(rec["op"], []).append(rec)
    raw_s, norm_s, per_round = {}, {}, {}
    for name, recs in kinds.items():
        done = [r for r in recs if r["completed"]] or recs
        raw_s[name] = statistics.median(r["s"] for r in done)
        norm_s[name] = statistics.median(r["s"] * REF_NOMINAL_S / r["ref_s"] for r in done)
        per_round[name] = recs[0]

    def throughput(key, seconds):
        busy = sum(seconds[name] for name, rec in per_round.items() if rec[key])
        return sum(rec[key] for rec in per_round.values()) / busy if busy else None

    metrics = {
        "setup_s": statistics.median(setup),
        "norm_wall_s": sum(norm_s.values()),
        "norm_intervals_per_s": throughput("intervals", norm_s),
        "peak_rss_mb": _peak_rss_mb(),
    }
    raw = {
        "wall_s": sum(raw_s.values()),
        "intervals_per_s": throughput("intervals", raw_s),
        "reps_per_s": throughput("reps", raw_s),
    }
    return metrics, raw


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<36} {value:>14.6g} {unit}{note}")


def _run_one(args):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qotepolicy.cli  # noqa: F401  (timed: the set-up every CLI run pays)

    own_import = time.perf_counter() - t0
    import qotepolicy

    if Path(qotepolicy.__file__).resolve().parent != SRC / "qotepolicy":
        print(f"error: imported qotepolicy from {qotepolicy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    size = "tiny" if args.tiny else "full"
    wl = workloads.make(args.workload, args.seed, size)
    tracer = None
    if args.trace:
        try:
            tracer = tracing.Tracer()
        except tracing.EntryPointMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        setup = [own_import]
    else:
        setup = [own_import] + [
            _import_seconds_in_fresh_interpreter() for _ in range(SETUP_REPEATS - 1)
        ]

    work = STATE / f"work-{os.getpid()}"
    started = time.perf_counter()
    try:
        if tracer is None:
            rounds, failures, attempted, digest, share = _measure(wl, args, work)
        else:
            traced = _measure_traced(wl, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started

    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "size": size,
        "inputs": wl.record(), "environment": _environment(),
    }
    if tracer is None:
        metrics, raw = _end_to_end(rounds, setup)
        units = END_TO_END
        record.update(rounds=len(rounds), setup_samples_s=setup,
                      round_ops_s=[{r["op"]: r["s"] for r in rec} for rec in rounds],
                      round_ref_s=[{r["op"]: r["ref_s"] for r in rec} for rec in rounds],
                      raw=raw)
    else:
        failures, attempted, digest = traced["failures"], traced["attempted"], traced["digest"]
        share = traced["staircase_share"]
        metrics = tracing.layer_metrics(
            tracer.spans, TRACE_ROUNDS, traced["intervals"], traced["reps"], share,
            traced["files"], traced["bytes"], traced["traced_walls"],
            traced["untraced_walls"],
        )
        units = tracing.PER_LAYER
        record.update(rounds=TRACE_ROUNDS, traced_walls_s=traced["traced_walls"],
                      untraced_walls_s=traced["untraced_walls"],
                      spans=[dict(s.as_dict(), start=s.start - started, end=s.end - started)
                             for s in tracer.spans])
    failed = len(failures)
    record.update(attempted=attempted, failed=failed, failures=failures,
                  distinct_staircase_share=share, outputs_sha256_round0=digest,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    inputs = ", ".join(f"{k} {v}" for k, v in record["inputs"].items() if k != "operations")
    env = ", ".join(f"{k} {v}" for k, v in record["environment"].items())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {record['rounds']}  elapsed {elapsed:.1f} s")
    print(f"  inputs: {inputs}")
    print(f"  environment: {env}")
    for name, value in metrics.items():
        _print_metric(name, value, units[name])
    if tracer is None:
        for name, value in raw.items():
            if value is not None:
                _print_metric(name, value, RAW_UNITS[name])
    _print_metric("failed_share", failed / attempted, "share",
                  f"  ({failed} failed / {attempted} attempted)")
    if tracer is None:
        _print_metric("distinct_staircase_share", share, "share")
    print(f"  outputs_sha256 (round 0): {digest}")
    print(f"  result file: {result_file.relative_to(ROOT)}")
    for failure in failures[:5]:
        print(f"  FAILED round {failure['round']} {failure['op']}: "
              f"{'; '.join(failure['problems'])[:300]}")
    if failed > 5:
        print(f"  ... {failed - 5} more failures in the result file")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def _run_all(args):
    """Each workload in a fresh process, then one table of their metrics."""
    summary, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS + BY_NAME_ONLY:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with status {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            summary[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "qotepolicy" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'qotepolicy'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
