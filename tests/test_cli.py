import json

import numpy as np
import pytest

from qotepolicy import bounds
from qotepolicy.cli import main
from qotepolicy.lpcore import LpSolution
from qotepolicy.marginals import make_y_grid
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


def test_empty_csv_exits_2(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    assert run("bounds", "--input", src, "--out", tmp_path) == 2
    assert "empty CSV" in capsys.readouterr().err


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


def test_failed_lp_exits_6_naming_t_tag_and_k(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        bounds, "solve_lp", lambda lp: LpSolution(status="failed", message="stalled")
    )
    code = run(
        "bounds", "--dgp", "subgroup1", "--assumption", "si",
        "--k", "5", "--tgrid", "5", "--n", "40", "--out", tmp_path,
    )
    assert code == 6
    err = capsys.readouterr().err
    assert "LP failed at t=" in err and "tag SI" in err and "k=5" in err


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


def test_policy_from_bounds_file_matches_inline_run(tmp_path):
    shared = (
        "--dgp", "subgroup1", "--tau", "0.25", "--k", "8",
        "--n", "60", "--seed", "3", "--tgrid", "21",
    )
    stage = tmp_path / "stage"
    assert run("bounds", *shared, "--assumption", "none", "--out", stage) == 0
    piped = tmp_path / "piped"
    code = run(
        "policy", "--input", stage / "bounds_tau0.25.json",
        "--tau", "0.25", "--out", piped,
    )
    assert code == 0
    inline = tmp_path / "inline"
    assert run("policy", *shared, "--assumption", "none", "--out", inline) == 0
    for name in (
        "policy_mmr_stochastic_tau0.25.json",
        "policy_mmr_deterministic_tau0.25.json",
        "policy_maximin_tau0.25.json",
        "regret_tau0.25.json",
    ):
        assert (piped / name).read_bytes() == (inline / name).read_bytes()


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


def test_policy_weights_mismatch_exits_4(tmp_path):
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS)
    weights = tmp_path / "weights.csv"
    weights.write_text("x1,weight\n0,0.5\n2,0.5\n")
    code = run(
        "policy", "--input", src, "--tau", "0.5", "--assumption", "none",
        "--k", "2", "--tgrid", "11", "--weights", weights, "--out", tmp_path,
    )
    assert code == 4


def test_policy_weights_override(tmp_path):
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS)
    weights = tmp_path / "weights.csv"
    weights.write_text("x1,weight\n0,0.9\n1,0.1\n")
    out = tmp_path / "out"
    code = run(
        "policy", "--input", src, "--tau", "0.5", "--assumption", "none",
        "--k", "2", "--tgrid", "11", "--weights", weights, "--out", out,
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
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS)
    stage = tmp_path / "stage"
    assert run(
        "bounds", "--input", src, "--tau", "0.5", "--assumption", "none",
        "--k", "2", "--tgrid", "11", "--out", stage,
    ) == 0
    out = tmp_path / "out"
    code = run(
        "owl", "--input", stage / "bounds_tau0.5.json",
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


def test_owl_requires_bounds_json(tmp_path):
    assert run("owl", "--out", tmp_path) == 2
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS)
    assert run("owl", "--input", src, "--out", tmp_path) == 2
