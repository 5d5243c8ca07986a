import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qotepolicy
from oracles import assert_only_kept_threads_started, raw_coupling_lp
from qotepolicy import bounds, cli, marginals, owl, sim
from qotepolicy.cli import main
from qotepolicy.lpcore import LpSolution
from qotepolicy.marginals import QuantileCurve, Sample, make_y_grid, read_sample_csv, u_grid
from qotepolicy.sim import SUBGROUPS, draw_sample

SAMPLE_TWO_CELLS = """y,d,x1
3,1,0
4,1,0
0,0,0
1,0,0
0,1,1
1,1,1
3,0,1
4,0,1
"""


def run(*argv):
    return main([str(a) for a in argv])


def test_unsupported_assumption_exits_3(tmp_path, capsys):
    code = run("bounds", "--dgp", "subgroup1", "--assumption", "sd", "--out", tmp_path)
    assert code == 3
    assert "not supported" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path):
    assert run("bounds", "--out", tmp_path) == 2
    assert run("bounds", "--dgp", "subgroup99", "--out", tmp_path) == 2
    assert run("bounds", "--input", tmp_path / "missing.csv", "--out", tmp_path) == 2
    assert run("bounds", "--dgp", "subgroup1", "--tau", "1.5", "--out", tmp_path) == 2


DGP_SPEC = {"mu1": 1.0, "mu0": 0.0, "var1": 1.0, "var0": 1.0, "rho": 0.5}


@pytest.mark.parametrize(
    "bad",
    [
        "null value", "top-level list", "directory", "lognormal string", "boolean number",
        "unknown key",
    ],
)
def test_malformed_dgp_file_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "dgp.json"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_text(json.dumps({
            "null value": {**DGP_SPEC, "mu1": None},
            "top-level list": [DGP_SPEC],
            "lognormal string": {**DGP_SPEC, "lognormal": "false"},
            "boolean number": {**DGP_SPEC, "mu1": True},
            "unknown key": {**DGP_SPEC, "p_tret": 0.3, "log_normal": True},
        }[bad]))
    assert run("bounds", "--dgp", path, "--out", tmp_path / "out") == 2
    assert "bad DGP file" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["mu1", "mu0", "var1", "var0", "rho", "p_treat"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_dgp_field_exits_2_naming_it(tmp_path, capsys, field, value):
    # json writes and reads these as the NaN, Infinity and -Infinity tokens
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps({**DGP_SPEC, "lognormal": True, field: value}))
    args = ("--tau", "0.25", "--n", "40", "--reps", "1", "--k", "4", "--out", tmp_path / "out")
    assert run("simulate", "--dgp", path, *args) == 2
    assert f"bad DGP file {path}: {field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_truth_that_misses_its_tolerance_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sim, "_QUAD_TOL", 1e-300)
    sim.exact_qote.cache_clear()
    args = ("--tau", "0.25", "--n", "40", "--reps", "1", "--k", "4", "--out", tmp_path / "out")
    tracemalloc.start()
    try:
        assert run("simulate", "--dgp", "subgroup8", *args) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6  # the panel cap bounds a subdivision that cannot meet its budget
    assert "quadrature error estimate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_on_a_near_degenerate_lognormal_spec_runs(tmp_path):
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps({**DGP_SPEC, "var1": 1e-14, "var0": 1e-14, "lognormal": True}))
    args = ("--tau", "0.25", "--n", "40", "--reps", "1", "--k", "4", "--out", tmp_path / "out")
    assert run("simulate", "--dgp", path, *args) == 0


def _in_a_fresh_interpreter(code, *args):
    """Standard output of ``code`` run with args by a new interpreter on this package.

    pytest's own warning filters load scipy.sparse and scipy.integrate, so
    what a run loads is seen only in a process of its own.
    """
    src = str(Path(qotepolicy.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout


_SCIPY_LOADED_BY_EACH_RUN = """
import json, sys
import qotepolicy.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, sample = sys.argv[1:]
loaded = {"import": scipy_loaded()}
shared = ("--input", sample, "--tau", "0.5", "--k", "6", "--tgrid", "15")
none_json = out + "/none/bounds_tau0.5.json"
for name, argv in [
    ("bounds none", ("bounds", *shared, "--assumption", "none", "--out", out + "/none")),
    ("bounds ri", ("bounds", *shared, "--assumption", "ri", "--out", out + "/ri")),
    ("policy", ("policy", "--input", none_json, "--out", out + "/policy")),
    ("owl", ("owl", "--input", none_json, "--max-epochs", "50", "--out", out + "/owl")),
    ("bounds si", ("bounds", *shared, "--assumption", "si", "--out", out + "/si")),
]:
    assert cli.main(argv) == 0, name
    loaded[name] = scipy_loaded()
print(json.dumps(loaded))
"""


def test_only_the_lp_subcommands_load_scipy(tmp_path):
    # importing the cli and running the subcommands that solve no LP load no
    # scipy module; bounds under SI loads the HiGHS bindings
    sample = tmp_path / "sample.csv"
    sample.write_text(SAMPLE_TWO_CELLS)
    loaded = json.loads(_in_a_fresh_interpreter(_SCIPY_LOADED_BY_EACH_RUN, tmp_path, sample))
    si = loaded.pop("bounds si")
    assert loaded == dict.fromkeys(("import", "bounds none", "bounds ri", "policy", "owl"), [])
    assert "scipy.optimize._highspy._core" in si


def test_importing_the_cli_loads_no_executor_and_no_logging():
    # the worker threads of ``bounds._on_workers`` need neither, and each
    # module the import loads adds to every CLI run's start-up time
    code = "import sys, qotepolicy.cli; print(*sorted(sys.modules))"
    loaded = _in_a_fresh_interpreter(code).split()
    assert "qotepolicy.cli" in loaded
    assert not [m for m in loaded if m.split(".")[0] in ("concurrent", "logging")]


# a dense SI pass, the first LP of the process, then tables on the worker pool
_DENSE_SI_THEN_TABLES = """
def dense_si_then_tables(out):
    from pathlib import Path

    from qotepolicy import bounds, cli
    from qotepolicy.marginals import make_y_grid
    from qotepolicy.sim import SUBGROUPS, draw_sample

    sample = draw_sample(SUBGROUPS[2], 200, (1, 0))
    v1 = make_y_grid(sample.y[sample.d == 1], 10)
    v0 = make_y_grid(sample.y[sample.d == 0], 10)
    env = bounds._Envelopes.of_values(v1, v0, "SI", bounds.default_t_grid(v1, v0, 31))
    lower, upper = env.dense()
    argv = ["tables", "--subgroups", "1,8", "--tau", "0.25", "--n", "100", "--reps", "4",
            "--k", "6", "--out", out]
    assert cli.main(argv) == 0
    return {
        "envelopes": [lower.tolist(), upper.tolist()],
        "counts": [env.solves, env.fallbacks, env.iterations, env.decided],
        "tables": {path.name: path.read_text() for path in Path(out).iterdir()},
    }
"""

_FIRST_LP_ON_TWO_WORKERS = """
import json, sys, threading

first_found = {}


class Recorder:
    # finds nothing: records the name of each module looked for, and its thread
    def find_spec(self, name, path=None, target=None):
        first_found.setdefault(name, threading.current_thread().name)


sys.meta_path.insert(0, Recorder())
from qotepolicy import bounds

bounds._usable_cpus = lambda: 2
""" + _DENSE_SI_THEN_TABLES + """
got = dense_si_then_tables(sys.argv[1])
got["scipy_threads"] = {
    name: thread for name, thread in first_found.items()
    if name == "scipy" or name.startswith("scipy.")
}
got["main"] = threading.main_thread().name
print(json.dumps(got))
"""


def test_the_first_lp_of_a_process_on_two_workers(tmp_path, monkeypatch):
    # every scipy module a deferred import loads is first looked for on the
    # calling thread, and values and counts equal an in-process run's
    fresh = json.loads(_in_a_fresh_interpreter(_FIRST_LP_ON_TWO_WORKERS, tmp_path / "fresh"))
    assert fresh["counts"][0] > 0  # the pass solved LPs
    threads = fresh.pop("scipy_threads")
    assert "scipy.optimize._highspy._core" in threads and "scipy.special" in threads
    assert set(threads.values()) == {fresh.pop("main")}
    monkeypatch.setattr(bounds, "_usable_cpus", lambda: 2)
    here = {}
    exec(_DENSE_SI_THEN_TABLES, here)
    assert fresh == here["dense_si_then_tables"](str(tmp_path / "here"))


def test_cells_split_rows_as_one_boolean_mask_per_cell_does():
    rng = np.random.default_rng(3)
    for n, p, levels in ((1, 1, 1), (60, 1, 3), (400, 2, 5), (300, 3, 2)):
        x = rng.integers(0, levels, (n, p)).astype(float)
        sample = Sample(y=rng.normal(size=n), d=rng.integers(0, 2, n), x=x)
        uniq, inverse = np.unique(x, axis=0, return_inverse=True)
        arms = [[sample.y[(inverse == idx) & (sample.d == arm)] for arm in (1, 0)]
                for idx in range(uniq.shape[0])]
        lacking = [idx for idx, ys in enumerate(arms) if not (ys[0].size and ys[1].size)]
        if lacking:
            message = f"cell {uniq[lacking[0]].tolist()} lacks"
            with pytest.raises(cli._CliError, match=re.escape(message)):
                cli._cells(sample, "Symmetry", n, 1)
            continue
        # with k = n, each arm's quantile grid holds every one of its outcomes, in order
        cells = cli._cells(sample, "Symmetry", n, 1)
        assert len(cells.x) == uniq.shape[0]
        for idx, cell_x in enumerate(cells.x):
            mask = inverse == idx
            assert cell_x == list(uniq[idx]) and cells.weight[idx] == float(np.mean(mask))
            for grid, rows in zip((cells.v1[idx], cells.v0[idx]), arms[idx]):
                assert np.array_equal(grid, make_y_grid(rows, n))
                assert np.array_equal(np.unique(grid), np.unique(rows))


def _unique_rows_cells(sample):
    """The cells by ``np.unique(axis=0)``: their rows, weights and (arm 1, arm 0) outcomes."""
    if sample.p == 0:
        x, inverse = [[]], np.zeros(sample.n, dtype=int)
    else:
        uniq, inverse = np.unique(sample.x, axis=0, return_inverse=True)
        x = uniq.tolist()
    weight = np.bincount(inverse, minlength=len(x)) / sample.n
    arms = [[sample.y[(inverse == idx) & (sample.d == arm)] for arm in (1, 0)]
            for idx in range(len(x))]
    return x, weight, arms


@pytest.mark.parametrize("seed", range(6))
def test_the_sorted_cell_split_equals_the_unique_rows_split(seed):
    rng = np.random.default_rng(seed)
    for p in range(4):
        n = int(rng.integers(1, 300))
        # few levels per column, so cells and outcomes tie heavily
        x = rng.choice([-1.5, 0.0, 0.25, 2.0][: int(rng.integers(1, 5))], (n, p))
        y = np.round(rng.normal(size=n)) + 0.0
        sample = Sample(y=y, d=rng.integers(0, 2, n), x=x)
        x_ref, weight, arms = _unique_rows_cells(sample)
        lacking = [idx for idx, ys in enumerate(arms) if not (ys[0].size and ys[1].size)]
        if lacking:
            with pytest.raises(cli._CliError, match=re.escape(f"cell {x_ref[lacking[0]]} lacks")):
                cli._cells(sample, "Symmetry", n, 1)
            continue
        cells = cli._cells(sample, "Symmetry", n, 1)
        assert cells.x == x_ref
        assert cells.weight.tobytes() == weight.tobytes()
        for idx, (y1, y0) in enumerate(arms):
            assert cells.v1[idx].tobytes() == make_y_grid(y1, n).tobytes()
            assert cells.v0[idx].tobytes() == make_y_grid(y0, n).tobytes()


def test_a_covariate_mixing_signed_zeros_makes_one_cell(tmp_path):
    src = tmp_path / "sample.csv"
    src.write_text("y,d,x1\n1,1,-0\n0,0,0\n2,1,0\n-1,0,-0\n")
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--k", "2", "--tgrid", "3", "--tau", "0.5",
               "--out", out) == 0
    cells = json.loads((out / "bounds_tau0.5.json").read_text())["cells"]
    assert [cell["x"] for cell in cells] == [[0.0]]
    assert '"x": [\n        0.0\n      ]' in (out / "bounds_tau0.5.json").read_text()


def test_dgp_file_with_lognormal_false_runs(tmp_path):
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps({**DGP_SPEC, "lognormal": False}))
    assert cli._resolve_dgp(str(path)).lognormal is False
    args = ("bounds", "--n", "50", "--k", "6", "--tgrid", "11", "--assumption", "none")
    assert run(*args, "--dgp", path, "--out", tmp_path / "file") == 0
    # the same spec with lognormal left out writes the same files
    path.write_text(json.dumps(DGP_SPEC))
    assert run(*args, "--dgp", path, "--out", tmp_path / "default") == 0
    written = sorted(p.name for p in (tmp_path / "file").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "default").iterdir())
    for name in written:
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_empty_t_grid_exits_2(tmp_path, capsys):
    code = run(
        "bounds", "--dgp", "subgroup1", "--n", "50", "--k", "6", "--tgrid", "0",
        "--out", tmp_path,
    )
    assert code == 2
    assert "at least one point" in capsys.readouterr().err


def test_empty_csv_exits_2(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    assert run("bounds", "--input", src, "--out", tmp_path) == 2
    assert "empty CSV" in capsys.readouterr().err


def test_a_header_field_over_the_csv_limit_exits_2(tmp_path, capsys):
    src = tmp_path / "wide.csv"
    src.write_text("y,d," + "x" * 140_000 + "\n1,1,0\n0,0,0\n")
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--assumption", "none", "--out", out) == 2
    err = capsys.readouterr().err
    assert "bad input CSV" in err and "line 1: field larger than field limit" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_non_finite_covariate_exits_2(tmp_path, capsys, bad):
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS.replace("0,1,1\n", f"0,1,{bad}\n"))
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--assumption", "none", "--k", "2", "--out", out) == 2
    assert "covariates must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, widths", [("y,d,x1\n3,1\n0,0\n", "2 fields, the header has 3"),
                     ("y,d\n3,1,0\n0,0,0\n", "3 fields, the header has 2")]
)
def test_rows_whose_width_differs_from_the_header_exit_2(tmp_path, capsys, text, widths):
    src = tmp_path / "sample.csv"
    src.write_text(text)
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--assumption", "none", "--k", "2", "--out", out) == 2
    err = capsys.readouterr().err
    assert "bad input CSV" in err and f"line 2 has {widths}" in err
    assert not out.exists()


def test_symmetry_needs_the_median(tmp_path):
    code = run(
        "bounds", "--dgp", "subgroup1", "--assumption", "sy",
        "--tau", "0.25", "--n", "40", "--k", "5", "--out", tmp_path,
    )
    assert code == 2
    code = run(
        "bounds", "--dgp", "subgroup1", "--assumption", "sy",
        "--tau", "0.5", "--n", "40", "--k", "5", "--out", tmp_path,
    )
    assert code == 0
    payload = json.loads((tmp_path / "bounds_tau0.5.json").read_text())
    cell = payload["cells"][0]
    # symmetric effects put the median at the mean of the grid differences
    sample = draw_sample(SUBGROUPS[1], 40, (0, 0))
    v1 = make_y_grid(sample.y[sample.d == 1], 5)
    v0 = make_y_grid(sample.y[sample.d == 0], 5)
    assert cell["lower"] == cell["upper"] == float(np.mean(v1) - np.mean(v0))


def _fail_runs(monkeypatch):
    """Make every run of a copula program fail, and leave its cold solves be."""
    monkeypatch.setattr(
        bounds._CopulaProgram, "run",
        lambda prog, coefs, sense: LpSolution(status="failed", message="stalled"),
    )


def test_failed_lp_exits_6_naming_t_tag_and_k(tmp_path, capsys, monkeypatch):
    # the run and the cold full-program fallback both fail, at every
    # t, on two workers; the message names the first t a serial pass solves
    _fail_runs(monkeypatch)
    monkeypatch.setattr(
        bounds, "solve_lp", lambda *program: LpSolution(status="failed", message="stalled")
    )
    monkeypatch.setattr(bounds, "_usable_cpus", lambda: 2)
    sample = draw_sample(SUBGROUPS[1], 40, (0, 0))
    v1 = make_y_grid(sample.y[sample.d == 1], 5)
    v0 = make_y_grid(sample.y[sample.d == 0], 5)
    grid = bounds.default_t_grid(v1, v0, 5)
    above = bounds._pairs_above(v1, v0, grid)
    floor, ceiling = bounds._coupling_brackets(v1, v0, grid, above)["min"]
    first = float(grid[np.flatnonzero(floor != ceiling)[0]])
    before = set(threading.enumerate())
    out = tmp_path / "out"
    code = run(
        "bounds", "--dgp", "subgroup1", "--assumption", "si",
        "--k", "5", "--tgrid", "5", "--n", "40", "--out", out,
    )
    assert code == 6
    err = capsys.readouterr().err
    assert f"LP failed at t={first!r}" in err and "tag SI" in err and "k=5" in err
    assert not out.exists()
    assert_only_kept_threads_started(before, bounds._helpers.threads, 1)


@pytest.mark.parametrize("assumption", ["si", "pqd"])
def test_failed_session_solves_fall_back_to_the_cold_program(
    tmp_path, monkeypatch, assumption
):
    args = (
        "bounds", "--dgp", "subgroup2", "--assumption", assumption,
        "--k", "8", "--tgrid", "21", "--n", "200", "--seed", "1", "--tau", "0.25,0.5",
    )
    assert run(*args, "--out", tmp_path / "session") == 0
    _fail_runs(monkeypatch)
    assert run(*args, "--out", tmp_path / "cold") == 0
    names = sorted(p.name for p in (tmp_path / "session").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "cold").iterdir())
    for name in names:
        session = (tmp_path / "session" / name).read_text()
        cold = (tmp_path / "cold" / name).read_text()
        if name.endswith(".json"):
            assert json.loads(session) == json.loads(cold)
        else:
            assert_allclose(
                np.loadtxt(StringIO(session), delimiter=",", skiprows=1),
                np.loadtxt(StringIO(cold), delimiter=",", skiprows=1),
                rtol=0, atol=1e-9,
            )


def test_bounds_from_csv_and_frozen_staircase_values(tmp_path):
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS)
    out = tmp_path / "out"
    code = run(
        "bounds", "--input", src, "--tau", "0.5", "--assumption", "none",
        "--k", "2", "--tgrid", "11", "--out", out,
    )
    assert code == 0
    payload = json.loads((out / "bounds_tau0.5.json").read_text())
    assert payload["assumption"] == "NoAssumption" and payload["k"] == 2
    by_x = {tuple(c["x"]): c for c in payload["cells"]}
    assert by_x[(0.0,)]["lower"] == 2.0 and by_x[(0.0,)]["upper"] == 3.0
    assert by_x[(1.0,)]["lower"] == -4.0 and by_x[(1.0,)]["upper"] == -3.0
    assert by_x[(0.0,)]["weight"] == 0.5
    env = (out / "envelope_tau0.5_cell0.csv").read_text()
    assert env.startswith("t,lower,upper\n")


def test_si_bounds_frozen_small_example(tmp_path):
    code = run(
        "bounds", "--dgp", "subgroup2", "--tau", "0.25", "--assumption", "si",
        "--k", "12", "--tgrid", "41", "--n", "200", "--seed", "1", "--out", tmp_path,
    )
    assert code == 0
    payload = json.loads((tmp_path / "bounds_tau0.25.json").read_text())
    cell = payload["cells"][0]
    assert cell["lower"] == pytest.approx(-1.3397427104456963, abs=1e-9)
    assert cell["upper"] == pytest.approx(-0.06380614233872617, abs=1e-9)


def test_pqd_lower_envelope_is_exactly_zero_where_its_brackets_meet(tmp_path):
    # at the 15 smallest t the staircase floor and the independence ceiling
    # are both 0, so no LP runs; an LP run leaves 2.081668171e-16 there
    code = run(
        "bounds", "--dgp", "subgroup8", "--assumption", "pqd", "--k", "30",
        "--tgrid", "31", "--out", tmp_path,
    )
    assert code == 0
    rows = (tmp_path / "envelope_tau0.25_cell0.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows[:15]] == ["0"] * 15


def test_reruns_are_byte_identical(tmp_path):
    args = (
        "bounds", "--dgp", "subgroup1", "--tau", "0.25,0.5", "--assumption", "none",
        "--k", "6", "--n", "80", "--seed", "7",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir()) and names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _three_cell_csv(path):
    lines = ["y,d,x1"]
    for x, sg in ((0, 1), (1, 2), (2, 5)):
        sample = draw_sample(SUBGROUPS[sg], 50, (x, 3))
        lines += [f"{y:.17g},{d:g},{x}" for y, d in zip(sample.y, sample.d)]
    path.write_text("\n".join(lines) + "\n")


def test_a_multi_tau_run_makes_one_inode_per_distinct_text(tmp_path):
    src = tmp_path / "sample.csv"
    _three_cell_csv(src)
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--tau", "0.25,0.5,0.75", "--k", "6",
               "--tgrid", "15", "--out", out) == 0
    stats = [p.stat() for p in out.iterdir()]
    # three bounds JSONs, and each cell's envelope CSV once for its three taus
    assert len(stats) == 12
    assert len({s.st_ino for s in stats}) == 6
    for i in range(3):
        envelope = (out / f"envelope_tau0.25_cell{i}.csv").stat()
        assert envelope.st_nlink == 3
        assert envelope.st_ino == (out / f"envelope_tau0.75_cell{i}.csv").stat().st_ino


def test_a_rerun_replaces_only_the_files_it_writes(tmp_path):
    src = tmp_path / "sample.csv"
    _two_cell_csv(src)
    shared = ("bounds", "--input", src, "--tgrid", "15")
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run(*shared, "--tau", "0.25,0.5", "--k", "6", "--out", out) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    # the tau 0.25 envelopes the rerun replaces are links of the tau 0.5 ones
    assert (out / "envelope_tau0.5_cell0.csv").stat().st_nlink == 2
    assert run(*shared, "--tau", "0.25", "--k", "4", "--out", out) == 0
    assert run(*shared, "--tau", "0.25", "--k", "4", "--out", fresh) == 0
    second = {p.name: p.read_bytes() for p in fresh.iterdir()}
    assert sorted(second) == sorted(n for n in first if "tau0.25" in n)
    assert sorted(p.name for p in out.iterdir()) == sorted(first)
    for name, data in first.items():
        if "tau0.5" in name:
            assert (out / name).read_bytes() == data, name
        else:
            assert (out / name).read_bytes() == second[name] != data, name


def test_a_symlink_at_an_output_path_is_replaced_not_followed(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("keep me\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "envelope_tau0.5_cell0.csv").symlink_to(target)
    args = ("bounds", "--dgp", "subgroup1", "--tau", "0.25,0.5", "--k", "6", "--n", "40")
    assert run(*args, "--out", out) == 0
    assert run(*args, "--out", tmp_path / "fresh") == 0
    path = out / "envelope_tau0.5_cell0.csv"
    assert not path.is_symlink()
    assert path.read_bytes() == (tmp_path / "fresh" / path.name).read_bytes()
    assert target.read_text() == "keep me\n"


def test_a_failed_link_writes_the_file_instead(tmp_path, monkeypatch):
    src = tmp_path / "sample.csv"
    _two_cell_csv(src)
    args = ("bounds", "--input", src, "--tau", "0.25,0.5", "--k", "6", "--tgrid", "15")
    linked, written = tmp_path / "linked", tmp_path / "written"
    assert run(*args, "--out", linked) == 0

    def refuse(*_args, **_kwargs):
        raise OSError(errno.EPERM, "links refused")

    monkeypatch.setattr(os, "link", refuse)
    assert run(*args, "--out", written) == 0
    names = sorted(p.name for p in linked.iterdir())
    assert names == sorted(p.name for p in written.iterdir()) and len(names) == 6
    for name in names:
        assert (written / name).read_bytes() == (linked / name).read_bytes()
        assert (written / name).stat().st_nlink == 1


def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "out"
    code = run("bounds", "--dgp", "subgroup1", "--tau", "0.25", "--k", "6", "--n", "40",
               "--out", out)
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"
    stage = tmp_path / "stage"
    assert run("bounds", "--dgp", "subgroup1", "--tau", "0.25", "--k", "6", "--n", "40",
               "--out", stage) == 0
    assert run("policy", "--input", stage / "bounds_tau0.25.json", "--out", out) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "stage"]
    assert blocker.read_text() == "a regular file\n"


def test_negative_zero_outcomes_read_as_zero(tmp_path):
    src = tmp_path / "sample.csv"
    src.write_text("y,d\n-0,1\n-0,1\n0,0\n0,0\n")
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--assumption", "ri", "--tau", "0.5",
               "--k", "2", "--tgrid", "3", "--out", out) == 0
    cell = json.loads((out / "bounds_tau0.5.json").read_text())["cells"][0]
    assert math.copysign(1, cell["lower"]) == math.copysign(1, cell["upper"]) == 1
    for path in out.iterdir():
        numbers = re.findall(r"-?[\d.]+(?:e[-+]?\d+)?", path.read_text())
        assert not [s for s in numbers if s.startswith("-") and float(s) == 0], path.name


def test_a_cell_mixing_signed_zeros_gives_the_grid_make_y_grid_gives(tmp_path):
    y1, y0 = ["-0", "0", "-0", "1", "0", "-0"], ["0", "-0", "2", "-0", "0"]
    src = tmp_path / "sample.csv"
    src.write_text("y,d,x1\n" + "".join(f"{y},1,0\n" for y in y1)
                   + "".join(f"{y},0,0\n" for y in y0))
    cells = cli._cells(read_sample_csv(src), "NoAssumption", 5, 7)
    for got, raw in ((cells.v1[0], y1), (cells.v0[0], y0)):
        values = np.array([float(v) for v in raw])
        assert got.tobytes() == make_y_grid(values, 5).tobytes()
        assert got.tobytes() == make_y_grid(values[::-1], 5).tobytes()
        assert not np.signbit(got).any()


def test_policy_tau_mismatch_exits_4(tmp_path):
    stage = tmp_path / "stage"
    assert run(
        "bounds", "--dgp", "subgroup1", "--tau", "0.25", "--assumption", "none",
        "--k", "6", "--n", "40", "--out", stage,
    ) == 0
    code = run(
        "policy", "--input", stage / "bounds_tau0.25.json",
        "--tau", "0.5", "--out", tmp_path,
    )
    assert code == 4


def test_policy_tau_mismatch_writes_nothing(tmp_path):
    stage = tmp_path / "stage"
    assert run(
        "bounds", "--dgp", "subgroup1", "--tau", "0.25", "--assumption", "none",
        "--k", "6", "--n", "40", "--out", stage,
    ) == 0
    out = tmp_path / "out"
    out.mkdir()
    code = run(
        "policy", "--input", stage / "bounds_tau0.25.json",
        "--tau", "0.25,0.5", "--out", out,
    )
    assert code == 4
    assert list(out.iterdir()) == []


def test_policy_takes_its_tau_from_the_bounds_file(tmp_path):
    stage = tmp_path / "stage"
    assert run(
        "bounds", "--dgp", "subgroup1", "--tau", "0.5", "--assumption", "none",
        "--k", "6", "--n", "40", "--out", stage,
    ) == 0
    implicit, explicit = tmp_path / "implicit", tmp_path / "explicit"
    assert run("policy", "--input", stage / "bounds_tau0.5.json", "--out", implicit) == 0
    assert run(
        "policy", "--input", stage / "bounds_tau0.5.json", "--tau", "0.5", "--out", explicit
    ) == 0
    names = sorted(p.name for p in implicit.iterdir())
    assert "regret_tau0.5.json" in names
    assert names == sorted(p.name for p in explicit.iterdir())
    for name in names:
        assert (implicit / name).read_bytes() == (explicit / name).read_bytes()
    other = tmp_path / "other"
    other.mkdir()
    code = run(
        "policy", "--input", stage / "bounds_tau0.5.json", "--tau", "0.25", "--out", other
    )
    assert code == 4
    assert list(other.iterdir()) == []


def test_symmetry_rejects_a_later_tau_before_writing(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    code = run(
        "bounds", "--dgp", "subgroup1", "--assumption", "sy",
        "--tau", "0.5,0.25", "--n", "40", "--k", "5", "--out", out,
    )
    assert code == 2
    assert list(out.iterdir()) == []


def _two_cell_csv(path):
    lines = ["y,d,x1"]
    for x, sg in ((0, 2), (1, 5)):
        sample = draw_sample(SUBGROUPS[sg], 60, (x, 0))
        lines += [f"{y:.17g},{d:g},{x}" for y, d in zip(sample.y, sample.d)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("subcommand", ["bounds"])
def test_envelopes_are_built_once_per_cell(tmp_path, monkeypatch, subcommand):
    src = tmp_path / "sample.csv"
    _two_cell_csv(src)
    made, passes = [], []
    of_values, dense_pass = bounds._Envelopes.of_values.__func__, bounds._Envelopes.dense_pass

    def counted_oracle(cls, *args, **kwargs):
        made.append(1)
        return of_values(cls, *args, **kwargs)

    def counted_pass(oracles):
        passes.append(len(oracles))
        return dense_pass(oracles)

    # one oracle per cell, the two asked for their envelopes in one pass
    monkeypatch.setattr(bounds._Envelopes, "of_values", classmethod(counted_oracle))
    monkeypatch.setattr(bounds._Envelopes, "dense_pass", staticmethod(counted_pass))
    shared = (subcommand, "--input", src, "--assumption", "si", "--k", "6", "--tgrid", "15")
    both = tmp_path / "both"
    assert run(*shared, "--tau", "0.25,0.5", "--out", both) == 0
    assert len(made) == 2 and passes == [2]
    single = tmp_path / "single"
    for tau in ("0.25", "0.5"):
        assert run(*shared, "--tau", tau, "--out", single) == 0
    names = sorted(p.name for p in both.iterdir())
    assert names == sorted(p.name for p in single.iterdir()) and names
    for name in names:
        assert (both / name).read_bytes() == (single / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("owl", "--seed", "5"),
        ("owl", "--tau", "0.5"),
        ("simulate", "--tgrid", "41"),
        ("tables", "--dgp", "subgroup1", "--subgroups", "9"),
        ("policy", "--assumption", "si"),
        ("policy", "--dgp", "subgroup1"),
        ("policy", "--k", "8"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", tmp_path)
    assert exc.value.code == 2


def _two_cell_bounds_json(tmp_path):
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS)
    stage = tmp_path / "stage"
    assert run(
        "bounds", "--input", src, "--tau", "0.5", "--assumption", "none",
        "--k", "2", "--tgrid", "11", "--out", stage,
    ) == 0
    return stage / "bounds_tau0.5.json"


def test_policy_weights_mismatch_exits_4(tmp_path):
    weights = tmp_path / "weights.csv"
    weights.write_text("x1,weight\n0,0.5\n2,0.5\n")
    code = run(
        "policy", "--input", _two_cell_bounds_json(tmp_path), "--tau", "0.5",
        "--weights", weights, "--out", tmp_path,
    )
    assert code == 4


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1,weight\n0,abc\n1,0.5\n", "not all finite numbers"),
        ("x1,weight\n0,0.5\n1,nan\n", "not all finite numbers"),
        ("x1,weight\n0,0.5\n1,0.2\n1,0.5\n", "repeated"),
    ],
    ids=["non-numeric weight", "nan weight", "repeated row"],
)
def test_policy_weights_bad_csv_exits_2(tmp_path, capsys, text, message):
    weights = tmp_path / "weights.csv"
    weights.write_text(text)
    out = tmp_path / "out"
    code = run(
        "policy", "--input", _two_cell_bounds_json(tmp_path), "--tau", "0.5",
        "--weights", weights, "--out", out,
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_policy_weights_override(tmp_path):
    weights = tmp_path / "weights.csv"
    weights.write_text("x1,weight\n0,0.9\n1,0.1\n")
    out = tmp_path / "out"
    code = run(
        "policy", "--input", _two_cell_bounds_json(tmp_path), "--tau", "0.5",
        "--weights", weights, "--out", out,
    )
    assert code == 0
    policy = json.loads((out / "policy_mmr_deterministic_tau0.5.json").read_text())
    actions = {tuple(c["x"]): c["delta"] for c in policy["cells"]}
    assert actions[(0.0,)] == 1.0 and actions[(1.0,)] == 0.0


def test_simulate_writes_rate_multiples(tmp_path):
    code = run(
        "simulate", "--dgp", "subgroup1", "--tau", "0.25", "--n", "40",
        "--reps", "2", "--k", "10", "--out", tmp_path,
    )
    assert code == 0
    text = (tmp_path / "classification_tau0.25.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "estimator,criterion,rate"
    for line in lines[1:]:
        rate = float(line.split(",")[2])
        assert rate in (0.0, 0.5, 1.0)
    assert (tmp_path / "regret_tau0.25.csv").exists()


def test_simulate_writes_the_rate_table_csv_format(tmp_path):
    assert run("simulate", "--dgp", "subgroup1", "--tau", "0.25", "--n", "40", "--reps", "2",
               "--seed", "0", "--k", "10", "--out", tmp_path) == 0
    lines = (tmp_path / "classification_tau0.25.csv").read_text().strip().split("\n")
    assert lines[0] == "estimator,criterion,rate"
    assert len(lines) == 1 + len(sim.ESTIMATORS) * len(sim.CRITERIA)
    first = lines[1].split(",")
    assert first[0] == "mmr_stoch_SI" and first[1] == "qote"


def test_policy_writes_a_repeated_tau_once(tmp_path, monkeypatch):
    stage = tmp_path / "stage"
    assert run("bounds", "--dgp", "subgroup1", "--tau", "0.25", "--k", "6", "--n", "40",
               "--out", stage) == 0
    bounds_json = stage / "bounds_tau0.25.json"
    assert run("policy", "--input", bounds_json, "--tau", "0.25", "--out", tmp_path / "once") == 0
    writes, write = [], cli._write
    monkeypatch.setattr(cli, "_write", lambda out, files: writes.append(out) or write(out, files))
    assert run("policy", "--input", bounds_json, "--tau", "0.25,0.25",
               "--out", tmp_path / "twice") == 0
    assert len(writes) == 1
    assert _dir_digest(tmp_path / "twice") == _dir_digest(tmp_path / "once")


@pytest.mark.parametrize("subcommand", ["simulate", "tables"])
def test_one_point_grids_exit_2(tmp_path, capsys, subcommand):
    picks = ("--dgp", "subgroup1") if subcommand == "simulate" else ("--subgroups", "1")
    code = run(
        subcommand, *picks, "--tau", "0.25", "--n", "40", "--reps", "1", "--k", "1",
        "--out", tmp_path,
    )
    assert code == 2
    assert "k must be at least 2" in capsys.readouterr().err


def test_tables_with_an_empty_arm_exits_2_on_two_workers(tmp_path, capsys, monkeypatch):
    # one draw leaves an arm empty in every replication, each on the pool
    monkeypatch.setattr(bounds, "_usable_cpus", lambda: 2)
    before = set(threading.enumerate())
    out = tmp_path / "out"
    code = run(
        "tables", "--subgroups", "1", "--tau", "0.25", "--n", "1", "--reps", "4",
        "--k", "4", "--out", out,
    )
    assert code == 2
    assert "no observations" in capsys.readouterr().err
    assert not out.exists()
    assert_only_kept_threads_started(before, bounds._helpers.threads, 1)


def test_tables_smoke(tmp_path):
    code = run(
        "tables", "--subgroups", "1,4", "--tau", "0.25", "--n", "40",
        "--reps", "1", "--k", "10", "--out", tmp_path,
    )
    assert code == 0
    text = (tmp_path / "tables_classification_tau0.25.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "subgroup,estimator,criterion,rate"
    assert len(lines) == 1 + 2 * 6 * 3
    assert (tmp_path / "tables_regret_tau0.25.csv").exists()


def test_owl_end_to_end(tmp_path):
    out = tmp_path / "out"
    code = run(
        "owl", "--input", _two_cell_bounds_json(tmp_path),
        "--max-epochs", "300", "--out", out,
    )
    assert code == 0
    report = json.loads((out / "owl_report.json").read_text())
    assert report["training_misclassifications"] == 0
    assert report["epochs"] <= 300
    policy = json.loads((out / "owl_policy.json").read_text())
    actions = {tuple(c["x"]): c["delta"] for c in policy["cells"]}
    assert actions[(0.0,)] == 1.0 and actions[(1.0,)] == 0.0
    assert (out / "owl_model.json").exists()


def test_owl_counts_misclassifications_from_its_one_rule(tmp_path, monkeypatch):
    # nine cells whose signs no smooth rule fits, a zero-weight cell among them
    ends = [(-1, 3), (-3, 1), (2, 5), (-4, -1), (0.5, 0.7), (-2, 2.5), (-0.5, 0.2), (1, 1), (-6, 0)]
    cells = [
        {"x": [float(i % 3), float(i // 3)], "weight": 1 / 9, "lower": lo, "upper": up}
        for i, (lo, up) in enumerate(ends)
    ]
    src = tmp_path / "bounds_tau0.25.json"
    src.write_text(json.dumps({"tau": 0.25, "cells": cells}))
    calls = []
    evaluate = owl.DecisionFunction.__call__
    monkeypatch.setattr(
        owl.DecisionFunction, "__call__", lambda f, xs: calls.append(1) or evaluate(f, xs)
    )
    out = tmp_path / "out"
    assert run("owl", "--input", src, "--max-epochs", "3", "--out", out) == 0
    assert len(calls) == 2  # the policy, then the surrogate regret

    f = qotepolicy.decision_function_from_json((out / "owl_model.json").read_text())
    field = qotepolicy.BoundField(tuple(
        (tuple(c["x"]), c["weight"], qotepolicy.QoteBounds(c["lower"], c["upper"])) for c in cells
    ))
    train = qotepolicy.cells_from_bound_field(field)
    fx = f(np.array([x for x, _, _ in train]))
    wrong = sum((v >= 0) != (label > 0) for v, (_, w, label) in zip(fx, train) if w > 0)
    report = json.loads((out / "owl_report.json").read_text())
    assert report["training_misclassifications"] == wrong == 5


@pytest.mark.parametrize("flag", ["--lam", "--sigma"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_owl_rejects_hyperparameters_that_are_not_positive_and_finite(
    tmp_path, capsys, flag, value
):
    out = tmp_path / "out"
    assert run("owl", "--input", _two_cell_bounds_json(tmp_path), flag, value, "--out", out) == 2
    assert f"{flag[2:]} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, code, message", [
    (("--sigma", "1e200"), 2, "sigma must be positive and finite with a finite square"),
    (("--lam", "1e-320", "--max-epochs", "50"), 5, "training left the floats at epoch 1"),
])
def test_owl_exits_without_writing_when_training_cannot_run(
    tmp_path, capsys, flags, code, message
):
    out = tmp_path / "out"
    assert run("owl", "--input", _two_cell_bounds_json(tmp_path), *flags, "--out", out) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_owl_with_nothing_to_learn_exits_5(tmp_path):
    payload = {
        "tau": 0.5,
        "assumption": "NoAssumption",
        "k": 2,
        "cells": [
            {"x": [0.0], "weight": 0.5, "lower": -1.0, "upper": 1.0},
            {"x": [1.0], "weight": 0.5, "lower": -2.0, "upper": 2.0},
        ],
    }
    src = tmp_path / "bounds.json"
    src.write_text(json.dumps(payload))
    assert run("owl", "--input", src, "--out", tmp_path) == 5


_CELL = {"x": [0.0], "weight": 1.0, "lower": -1.0, "upper": 1.0}


@pytest.mark.parametrize("subcommand", ["policy", "owl"])
def test_owl_requires_bounds_json(tmp_path, capsys, subcommand):
    assert run(subcommand, "--out", tmp_path) == 2
    csv = tmp_path / "sample.csv"
    csv.write_text(SAMPLE_TWO_CELLS)
    assert run(subcommand, "--input", csv, "--out", tmp_path) == 2
    for i, payload in enumerate((
        {"tau": 0.25},
        {"tau": 0.25, "cells": [dict(_CELL, lower="-1.0")]},
        [{"tau": 0.25, "cells": [_CELL]}],
        {"tau": 0.25, "cells": [dict(_CELL, truncated_lower="false")]},
        {"tau": 0.25, "cells": [dict(_CELL, weight=float("nan"))]},
        {"tau": float("nan"), "cells": [_CELL]},
        {"tau": 1.5, "cells": [_CELL]},
        {"tau": 0.0, "cells": [_CELL]},
        {"tau": 0.25, "cells": [dict(_CELL, x=[float("nan")])]},
        {"tau": 0.25, "cells": [dict(_CELL, x=[float("inf")])]},
        {"tau": 0.25, "cells": [dict(_CELL, weight=0.5), dict(_CELL, weight=0.5)]},
        {"tau": 0.25, "cells": [dict(_CELL, weight=0.5), dict(_CELL, x=[1.0, 0.0], weight=0.5)]},
    )):
        src = tmp_path / f"bad{i}.json"
        src.write_text(json.dumps(payload))
        out = tmp_path / f"out{i}"
        assert run(subcommand, "--input", src, "--out", out) == 2
        assert f"bad bounds JSON {src}" in capsys.readouterr().err
        assert not out.exists()


def _dir_digest(path):
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


# sha256 of each output directory, recorded before the CLI computed
# tau-free envelopes once per run; every byte of every file must stay put
GOLDEN_DIGESTS = {
    "bounds_si": "9a1a523f7e67534a598122ebdfd9082ba76ce84353abb2017457c6d0f9a1f8ff",
    "bounds_pqd": "f7903ce647a117a4472ea13a5cb44bde4c7359679bb0cf653293684dd5009f60",
    "bounds_none": "67b9526da9a23c7edc6152ae3ffb5680b13307449e21bdfd3fbbf4a6ab10df2b",
    "bounds_ri": "f5f02f0da6967c818c6eb87664d1b8ad288e0efd72ada2d52bf1d46048aecaff",
    "policy_pqd": "2c48cf83e5077004b525b917be709cd273b83330ec2d4ad8e82bfbd892f10c9c",
    "policy_none_json": "83ceaecca48597a58f631ceb9938cd1128b71e67591cd914c9520d97d64b56a3",
    "owl_none_json": "da250acf5669b2f8f3c163372b37ebfb2c0334ed4414adc359a6f30de5aae49f",
    # lazy SI probes through the copula program's staircase form
    "tables": "7b82b7939a8b4ea3e32855971cccb6096d2707861982540fd85a8ce0e57a4106",
    "simulate": "0b25126941eea0072610ce1f6b73679691df1c5dc91066e773ede6913edefc55",
}


def test_outputs_match_golden_digests(tmp_path):
    shared = (
        "--dgp", "subgroup2", "--k", "12", "--tgrid", "41", "--n", "200",
        "--seed", "1", "--tau", "0.25,0.5",
    )
    none_json = tmp_path / "bounds_none" / "bounds_tau0.25.json"
    runs = [(f"bounds_{flag}", ("bounds", *shared, "--assumption", flag))
            for flag in ("si", "pqd", "none", "ri")]
    # policy_pqd holds the rules at both taus, read from the pqd bounds files
    runs += [("policy_pqd", ("policy", "--input", tmp_path / "bounds_pqd" /
                             f"bounds_tau{tau}.json", "--tau", tau))
             for tau in ("0.25", "0.5")]
    runs.append(("policy_none_json", ("policy", "--input", none_json, "--tau", "0.25")))
    runs.append(("owl_none_json", ("owl", "--input", none_json)))
    replicated = ("--k", "12", "--n", "200", "--reps", "4", "--seed", "1")
    runs.append(("tables", ("tables", "--subgroups", "1,5,8", *replicated, "--tau", "0.25,0.5")))
    runs.append(("simulate", ("simulate", "--dgp", "subgroup7", *replicated, "--tau", "0.25")))
    sim._collected_actions.cache_clear()  # every replication runs here, none is recalled
    for name, argv in runs:
        assert run(*argv, "--out", tmp_path / name) == 0, name
    assert {name: _dir_digest(tmp_path / name) for name, _ in runs} == GOLDEN_DIGESTS


def test_the_golden_json_payloads_are_written_with_json_dumps_bytes(tmp_path, monkeypatch):
    from qotepolicy import owl, policy

    payloads, write = [], policy._json_text

    def spy(data):
        payloads.append(data)
        return write(data)

    for module in (cli, owl, policy):
        monkeypatch.setattr(module, "_json_text", spy)
    shared = ("--dgp", "subgroup2", "--k", "12", "--tgrid", "41", "--n", "200",
              "--seed", "1", "--tau", "0.25,0.5")
    for flag in ("si", "pqd", "none", "ri"):
        assert run("bounds", *shared, "--assumption", flag, "--out", tmp_path / flag) == 0
    for flag in ("pqd", "none"):
        assert run("policy", "--input", tmp_path / flag / "bounds_tau0.25.json",
                   "--out", tmp_path / f"policy_{flag}") == 0
    assert run("owl", "--input", tmp_path / "none" / "bounds_tau0.25.json",
               "--out", tmp_path / "owl") == 0
    # bounds two taus a run, policy three rules and a report, owl a model, a rule and a report
    assert len(payloads) == 4 * 2 + 2 * 4 + 3
    for data in payloads:
        assert write(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"


def _multi_cell_csv(path):
    """Nine unequal cells on two covariates, rows shuffled: tied outcomes in
    three cells, one arm of a single row, and one cell of a single outcome."""
    rng = np.random.default_rng(23)
    rows = []
    for cell, (x1, x2) in enumerate((a, b) for a in (0, 1, 2) for b in (0.5, -1.5, 2.5)):
        n1, n0 = (1, 9) if cell == 4 else rng.integers(3, 25, 2)
        for d, n, loc in ((1, n1, cell % 3), (0, n0, 0.0)):
            y = rng.normal(loc, 1.0 + cell % 2, n)
            if cell % 3 == 0:
                y = np.round(2 * y) / 2
            if cell == 7:
                y = np.full(n, 1.25)
            rows += [f"{v:.17g},{d},{x1:g},{x2:g}" for v in y]
    path.write_text("y,d,x1,x2\n" + "\n".join(rng.permutation(rows)) + "\n")


# sha256 of each output directory of bounds on the nine-cell CSV above,
# recorded before the cells were built as arrays over all cells at once
GOLDEN_CSV_DIGESTS = {
    "bounds_none": "e85157d7eb271d92e564d3fe157233c977b72f4fd6ec4ed87f5116e0885ee655",
    "bounds_ri": "d5b3fe6141a21da8ef6ab769d84f518ec6610d3b9ee1e1b09ef69c45fe6ea09e",
    "bounds_sy": "5a2ba62ef9dca220bab6beda0dd43f6522fefce089c4c4cef412bd15a6852344",
    "bounds_si": "aa925bc0a5961041e58781dffb9224d114e0394f4ec27a45efaaba7d989069bc",
    "bounds_pqd": "549a7d06a6808538e5d0489f0b479e006d257005ec24b159820cdc3ba9fdd8d3",
}


def test_multi_cell_outputs_match_golden_digests(tmp_path):
    src = tmp_path / "sample.csv"
    _multi_cell_csv(src)
    shared = ("bounds", "--input", src, "--k", "6", "--tgrid", "15")
    for flag in ("none", "ri", "sy", "si", "pqd"):
        tau = "0.5" if flag == "sy" else "0.25,0.5"
        assert run(*shared, "--assumption", flag, "--tau", tau, "--out", tmp_path / flag) == 0
    got = {f"bounds_{flag}": _dir_digest(tmp_path / flag)
           for flag in ("none", "ri", "sy", "si", "pqd")}
    assert got == GOLDEN_CSV_DIGESTS


# cells [0, 0] and [1, 1] have both arms; [1, 0] and [2, 0] lack arm 0, and
# the row of [2, 0] comes first
SAMPLE_LACKING_ARMS = """y,d,x1,x2
5,1,2,0
3,1,0,0
0,0,0,0
1,1,1,0
2,1,1,1
4,0,1,1
"""


@pytest.mark.parametrize("flag", ["none", "ri", "sy", "si", "pqd"])
def test_a_cell_that_lacks_an_arm_exits_2_naming_the_first(tmp_path, capsys, flag):
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_LACKING_ARMS)
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--assumption", flag, "--tau", "0.5",
               "--k", "2", "--tgrid", "5", "--out", out) == 2
    assert capsys.readouterr().err == "error: cell [1.0, 0.0] lacks observations in one arm\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        # the first cell lacks an arm, so it is named before k is checked
        ("1,1,0\n0,1,1\n1,0,1\n", "cell [0.0] lacks observations in one arm"),
        # the first cell has both arms, so k is checked before a later cell's arms
        ("1,1,0\n0,0,0\n0,1,1\n", "k must be at least 2"),
    ],
)
def test_a_lacking_arm_and_a_short_grid_fail_in_cell_order(tmp_path, capsys, rows, message):
    src = tmp_path / "sample.csv"
    src.write_text("y,d,x1\n" + rows)
    assert run("bounds", "--input", src, "--k", "1", "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_more_than_200_cells_exit_2(tmp_path, capsys):
    src = tmp_path / "sample.csv"
    src.write_text("y,d,x1\n" + "".join(f"{i % 3},{i % 2},{i // 2}\n" for i in range(402)))
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--k", "2", "--out", out) == 2
    assert capsys.readouterr().err == (
        "error: 201 distinct covariate rows exceed the 200-cell limit; "
        "bin the covariates first\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flag, code", [("none", 2), ("si", 2), ("pqd", 2), ("ri", 0), ("sy", 0)])
def test_one_point_quantile_grids_in_bounds(tmp_path, capsys, flag, code):
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS)
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--assumption", flag, "--tau", "0.5",
               "--k", "1", "--out", out) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: k must be at least 2\n" and not out.exists()
    else:
        assert err == "" and (out / "bounds_tau0.5.json").exists()


def _random_cells_sample(rng, ncells):
    """Unequal cells on two covariates, rows shuffled: tied outcomes, arms of
    one row, a cell of one outcome and a cell of constant effects, in that
    order of their covariates."""
    ys, ds, xs = [], [], []
    for cell in range(ncells):
        n1, n0 = rng.integers(1, 30, 2)
        y1 = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), n1)
        y0 = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), n0)
        if cell % 3 == 0:
            # + 0.0 turns -0.0 into 0.0, whose order among equal values
            # np.sort leaves unspecified
            y1, y0 = np.round(4 * y1) / 4 + 0.0, np.round(4 * y0) / 4 + 0.0
        if cell == 1:
            y1, y0 = np.full(n1, 0.3), np.full(n0, 0.3)
        if cell == 2:
            y1, y0 = np.full(n1, 2.5), np.full(n0, -1.0)
        ys += [y1, y0]
        ds += [np.ones(n1, int), np.zeros(n0, int)]
        xs.append(np.tile([cell // 4, cell % 4], (n1 + n0, 1)))  # cells in sorted order
    order = rng.permutation(sum(y.size for y in ys))
    return Sample(np.concatenate(ys)[order], np.concatenate(ds)[order],
                  np.concatenate(xs).astype(float)[order])


@pytest.mark.parametrize("seed", range(4))
def test_cells_built_at_once_equal_cells_built_one_by_one(seed):
    rng = np.random.default_rng(seed)
    sample = _random_cells_sample(rng, int(rng.integers(3, 12)))
    k, points = int(rng.integers(2, 9)), int(rng.integers(1, 40))
    none = cli._cells(sample, "NoAssumption", k, points)
    ri = cli._cells(sample, "RankInvariance", k, points)
    sy = cli._cells(sample, "Symmetry", k, points)
    inverse = np.unique(sample.x, axis=0, return_inverse=True)[1]
    u = u_grid(k)
    for idx in range(len(none.x)):
        mask = inverse == idx
        v1 = make_y_grid(sample.y[mask & (sample.d == 1)], k)
        v0 = make_y_grid(sample.y[mask & (sample.d == 0)], k)
        for cells in (none, ri, sy):
            assert cells.v1[idx].tobytes() == v1.tobytes()
            assert cells.v0[idx].tobytes() == v0.tobytes()
        t = bounds.default_t_grid(v1, v0, points)
        assert none.t[idx].tobytes() == ri.t[idx].tobytes() == t.tobytes()
        if idx in (1, 2) and points > 1:
            assert t[-1] - t[0] == 1.0  # a cell of constant effects widens its grid
        # the closed forms, against each cell's own and against brute force
        above = ((v1[:, None] - v0[None, :])[:, :, None] > t).sum(axis=1)
        env = bounds.DeltaCdfBounds(
            t, *bounds._monotone_envelopes(*bounds._staircase_envelopes(above)))
        assert none.lower[idx].tobytes() == env.lower.tobytes()
        assert none.upper[idx].tobytes() == env.upper.tobytes()
        assert env.upper.tobytes() == bounds.coupling_lp_bounds(
            QuantileCurve(u, v1), QuantileCurve(u, v0), t_grid=t, k=k).upper.tobytes()
        g = np.arange(1, k + 1)[:, None] - above
        assert np.array_equal(env.lower, np.clip(g.max(axis=0), 0, k) / k)
        upper = np.maximum.accumulate(np.clip(k - 1 + g.min(axis=0), 0, k) / k)
        assert np.array_equal(env.upper, np.maximum(upper, env.lower))
        cdf = bounds._comonotone_cdf(v1, v0, t)
        assert ri.lower[idx].tobytes() == ri.upper[idx].tobytes() == cdf.tobytes()
        assert np.array_equal(cdf, (np.sort(v1 - v0)[:, None] <= t).sum(axis=0) / k)
        for tau in (0.05, 0.25, 0.5, 0.9):
            expect = bounds.invert_bounds(env, tau)
            got = [column[idx] for column in none.bounds("NoAssumption", tau)]
            assert got == [expect.lower, expect.upper,
                           expect.truncated_lower, expect.truncated_upper]
            point = bounds.rank_invariance_qote(QuantileCurve(u, v1), QuantileCurve(u, v0), tau)
            assert [column[idx] for column in ri.bounds("RankInvariance", tau)] == [
                point, point, False, False]
        mean = float(np.mean(v1) - np.mean(v0))
        assert [column[idx] for column in sy.bounds("Symmetry", 0.5)] == [
            mean, mean, False, False]


@pytest.mark.parametrize("tag", ["SI", "PQD"])
@pytest.mark.parametrize("seed", range(3))
def test_shape_restricted_cell_rows_match_the_raw_coupling_lp(seed, tag):
    # every cell's envelopes, built with the others, against one LP over its
    # raw k x k coupling masses at each t
    rng = np.random.default_rng(seed)
    sample = _random_cells_sample(rng, int(rng.integers(3, 6)))
    k, points = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    cells = cli._cells(sample, tag, k, points)
    for v1, v0, t, lower, upper in zip(cells.v1, cells.v0, cells.t, cells.lower, cells.upper):
        for side, got in (("min", lower), ("max", upper)):
            exact = [raw_coupling_lp(v1, v0, at, side, tag)[0] for at in t]
            assert_allclose(got, exact, rtol=0, atol=1e-9)


def _rules_csv(path, quoted):
    """200 cells on two covariates, 60 rows each, rows shuffled; every field
    quoted if asked, which only the csv module reads."""
    rng = np.random.default_rng(41)
    rows = []
    for i in range(20):
        for j in range(10):
            sample = draw_sample(SUBGROUPS[1 + (i + j) % 8], 60, (i, j))
            rows += [[repr(float(y)), str(int(d)), f"{i:g}", f"{j / 4:g}"]
                     for y, d in zip(sample.y, sample.d)]
    lines = [["y", "d", "x1", "x2"]] + [rows[r] for r in rng.permutation(len(rows))]
    if quoted:
        lines = [[f'"{field}"' for field in line] for line in lines]
    path.write_text("".join(",".join(line) + "\n" for line in lines))


def test_the_plain_and_the_csv_module_read_give_the_same_outputs(tmp_path):
    for name in ("plain", "quoted"):
        src = tmp_path / f"{name}.csv"
        _rules_csv(src, name == "quoted")
        out = tmp_path / name
        for flag in ("none", "ri"):
            assert run("bounds", "--input", src, "--assumption", flag, "--k", "20",
                       "--tgrid", "201", "--tau", "0.25,0.5", "--out", out / flag) == 0
        bounds_json = out / "none" / "bounds_tau0.5.json"
        assert run("policy", "--input", bounds_json, "--out", out / "policy") == 0
        assert run("owl", "--input", bounds_json, "--max-epochs", "300",
                   "--out", out / "owl") == 0
    assert marginals._plain_rows((tmp_path / "plain.csv").read_text()).shape == (12000, 4)
    assert marginals._plain_rows((tmp_path / "quoted.csv").read_text()) is None
    for step in ("none", "ri", "policy", "owl"):
        assert _dir_digest(tmp_path / "plain" / step) == _dir_digest(tmp_path / "quoted" / step)
    assert len(json.loads(bounds_json.read_text())["cells"]) == 200
