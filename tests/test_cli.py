import hashlib
import json
import threading
from io import StringIO

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qotepolicy import bounds, cli, lpcore
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


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_non_finite_covariate_exits_2(tmp_path, capsys, bad):
    src = tmp_path / "sample.csv"
    src.write_text(SAMPLE_TWO_CELLS.replace("0,1,1\n", f"0,1,{bad}\n"))
    out = tmp_path / "out"
    assert run("bounds", "--input", src, "--assumption", "none", "--k", "2", "--out", out) == 2
    assert "covariates must be finite" in capsys.readouterr().err
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


def _fail_session_solves(monkeypatch):
    monkeypatch.setattr(
        lpcore.LpSession, "solve",
        lambda self, c, sense="minimize": LpSolution(status="failed", message="stalled"),
    )


def test_failed_lp_exits_6_naming_t_tag_and_k(tmp_path, capsys, monkeypatch):
    # the session solve and the cold full-program fallback both fail, at every
    # t, on two workers; the message names the first t a serial pass solves
    _fail_session_solves(monkeypatch)
    monkeypatch.setattr(
        bounds, "solve_lp", lambda lp: LpSolution(status="failed", message="stalled")
    )
    monkeypatch.setattr(bounds, "_usable_cpus", lambda: 2)
    sample = draw_sample(SUBGROUPS[1], 40, (0, 0))
    v1 = make_y_grid(sample.y[sample.d == 1], 5)
    v0 = make_y_grid(sample.y[sample.d == 0], 5)
    grid = bounds.default_t_grid(v1, v0, 5)
    floor, ceiling = bounds._coupling_brackets(v1, v0, grid)["min"]
    first = float(grid[np.flatnonzero(floor != ceiling)[0]])
    threads = threading.active_count()
    out = tmp_path / "out"
    code = run(
        "bounds", "--dgp", "subgroup1", "--assumption", "si",
        "--k", "5", "--tgrid", "5", "--n", "40", "--out", out,
    )
    assert code == 6
    err = capsys.readouterr().err
    assert f"LP failed at t={first!r}" in err and "tag SI" in err and "k=5" in err
    assert not out.exists()
    assert threading.active_count() == threads


@pytest.mark.parametrize("assumption", ["si", "pqd"])
def test_failed_session_solves_fall_back_to_the_cold_program(
    tmp_path, monkeypatch, assumption
):
    args = (
        "bounds", "--dgp", "subgroup2", "--assumption", assumption,
        "--k", "8", "--tgrid", "21", "--n", "200", "--seed", "1", "--tau", "0.25,0.5",
    )
    assert run(*args, "--out", tmp_path / "session") == 0
    _fail_session_solves(monkeypatch)
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
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return bounds.coupling_lp_bounds(*args, **kwargs)

    monkeypatch.setattr(cli, "coupling_lp_bounds", counted)
    shared = (subcommand, "--input", src, "--assumption", "si", "--k", "6", "--tgrid", "15")
    both = tmp_path / "both"
    assert run(*shared, "--tau", "0.25,0.5", "--out", both) == 0
    assert len(calls) == 2
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


@pytest.mark.parametrize("subcommand", ["simulate", "tables"])
def test_one_point_grids_exit_2(tmp_path, capsys, subcommand):
    picks = ("--dgp", "subgroup1") if subcommand == "simulate" else ("--subgroups", "1")
    code = run(
        subcommand, *picks, "--tau", "0.25", "--n", "40", "--reps", "1", "--k", "1",
        "--out", tmp_path,
    )
    assert code == 2
    assert "k must be at least 2" in capsys.readouterr().err


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
    for name, argv in runs:
        assert run(*argv, "--out", tmp_path / name) == 0, name
    assert {name: _dir_digest(tmp_path / name) for name, _ in runs} == GOLDEN_DIGESTS
