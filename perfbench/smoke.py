#!/usr/bin/env python3
"""Smoke self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload once at tiny sizes, untraced and traced, and checks that
each end-to-end and per-layer metric of BENCHMARK.json is printed with its
unit, that failed_share with its counts and the raw wall_s and
intervals_per_s are printed on every workload and reps_per_s on replicate,
and that BENCHMARK.json's workloads and reasons match the benchmark's own.
It also checks that the benchmark exits non-zero, without a result line, in a
directory that holds only BENCHMARK.json and the benchmark. Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
TIMEOUT_S = 600

sys.path.insert(0, str(HERE))
from run import RAW_UNITS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def _sections(stdout):
    """Per-workload blocks of the human-readable report."""
    blocks, current = {}, None
    for line in stdout.splitlines():
        m = re.match(r"workload (\w+) ", line)
        if m:
            current = m.group(1)
            blocks[current] = []
        elif current is not None:
            blocks[current].append(line)
    return blocks


def _printed(lines, name, unit):
    pattern = re.compile(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}(\s|$)")
    return any(pattern.match(line) for line in lines)


def check_trace(trace, spec, problems):
    proc = _run([str(RUN), "--workload", "all", "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    if proc.returncode != 0:
        problems.append(f"trace {trace}: exit status {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.splitlines()[-1])
    blocks = _sections(proc.stdout)
    metrics = ({m["name"]: m["unit"] for m in spec["end_to_end"]} if trace == 0
               else {m["name"]: m["unit"] for m in spec["per_layer"]})
    if trace == 1 and metrics != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    for w in spec["workloads"]:
        name = w["name"]
        lines = blocks.get(name)
        if lines is None:
            problems.append(f"trace {trace}: no report for workload {name}")
            continue
        for metric, unit in metrics.items():
            entry = result["metrics"].get(f"{name}.{metric}")
            if entry is None or entry["unit"] != unit:
                problems.append(f"trace {trace} {name}: {metric} missing from the JSON")
            if not _printed(lines, metric, unit):
                problems.append(f"trace {trace} {name}: {metric} [{unit}] not printed")
        if not any(re.match(r"^\s+failed_share\s+\S+ share\s+\(\d+ failed / \d+ attempted\)",
                            line) for line in lines):
            problems.append(f"trace {trace} {name}: failed_share with counts not printed")
        raw = ("wall_s", "intervals_per_s") + (("reps_per_s",) if name == "replicate" else ())
        for metric in raw if trace == 0 else ():
            if not _printed(lines, metric, RAW_UNITS[metric]):
                problems.append(f"{name}: raw {metric} not printed")
        if not any("outputs_sha256" in line for line in lines):
            problems.append(f"trace {trace} {name}: output digest not printed")


def check_bare_directory(problems):
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run([f"{HERE.name}/run.py", "--workload", "envelopes", "--seed", "0",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark did not fail without the package source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    sys.path.insert(0, str(ROOT / "src"))
    from run import WORKLOADS
    from workloads import WHY  # imports the package from the checkout

    if {w["name"]: w["why"] for w in spec["workloads"]} != {n: WHY[n] for n in WORKLOADS}:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS and workloads.WHY")
    for trace in (0, 1):
        check_trace(trace, spec, problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
