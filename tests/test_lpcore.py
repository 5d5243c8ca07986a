import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import brute_force_lp
import qotepolicy
from qotepolicy import bounds
from qotepolicy.bounds import AssumptionSet, CVaR, _copula_program, _pairs_above, functional_bounds
from qotepolicy.lpcore import LinearProgram, LpSession, solve_lp
from qotepolicy.sim import SUBGROUPS, population_curves


def test_textbook_maximization():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    lp = LinearProgram(
        c=[3.0, 5.0],
        sense="maximize",
        A_le=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
        b_le=[4.0, 12.0, 18.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(36.0)
    assert_allclose(sol.x, [2.0, 6.0], atol=1e-9)


def test_equality_constraints_and_min():
    # min x + 2y + 3z on the simplex x + y + z = 1
    lp = LinearProgram(c=[1.0, 2.0, 3.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-9)


def test_infeasible_detected():
    lp = LinearProgram(
        c=[1.0, 1.0],
        A_eq=[[1.0, 1.0]],
        b_eq=[-2.0],
    )
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(c=[-1.0], A_le=[[-1.0]], b_le=[0.0])
    assert solve_lp(lp).status == "unbounded"


def test_free_and_bounded_variables():
    # free variable pushed negative; box keeps the second in [0, 2]
    lp = LinearProgram(
        c=[1.0, -1.0],
        A_le=[[-1.0, 0.0]],
        b_le=[3.0],
        lower=[-np.inf, 0.0],
        upper=[np.inf, 2.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-5.0)
    assert_allclose(sol.x, [-3.0, 2.0], atol=1e-9)


def test_validation_errors():
    with pytest.raises(ValueError, match="sense"):
        LinearProgram(c=[1.0], sense="max")
    with pytest.raises(ValueError, match="columns"):
        LinearProgram(c=[1.0], A_le=[[1.0, 2.0]], b_le=[1.0])
    with pytest.raises(ValueError, match="together"):
        LinearProgram(c=[1.0], A_le=[[1.0]])
    with pytest.raises(ValueError, match="exceeds"):
        LinearProgram(c=[1.0], lower=[2.0], upper=[1.0])
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(c=[np.inf])


def test_degenerate_transport_does_not_cycle():
    # assignment polytope with many degenerate bases
    k = 4
    a = np.zeros((2 * k, k * k))
    for i in range(k):
        a[i, i * k : (i + 1) * k] = 1.0
        a[k + i, i::k] = 1.0
    cost = np.arange(k * k, dtype=float) % 7
    lp = LinearProgram(c=cost, A_eq=a, b_eq=np.ones(2 * k))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert brute_force_lp(cost, a, np.ones(2 * k)) == pytest.approx(sol.objective)


def test_deterministic_replay():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 10))
    b = a @ rng.uniform(0.1, 1.0, size=10)
    c = rng.normal(size=10)
    lp1 = solve_lp(LinearProgram(c=c, A_eq=a, b_eq=b))
    lp2 = solve_lp(LinearProgram(c=c, A_eq=a, b_eq=b))
    assert lp1.status == lp2.status == "optimal"
    assert lp1.objective == lp2.objective
    assert np.array_equal(lp1.x, lp2.x)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_standard_form_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 4), rng.integers(2, 6)
    a = rng.normal(size=(m, n))
    # feasible by construction
    b = a @ rng.uniform(0.0, 1.0, size=n)
    c = rng.normal(size=n)
    sol = solve_lp(LinearProgram(c=c, A_eq=a, b_eq=b))
    expected = brute_force_lp(c, a, b)
    if sol.status == "optimal":
        assert expected is not None
        assert sol.objective == pytest.approx(expected, abs=1e-7)
        assert np.all(sol.x >= -1e-9)
        assert_allclose(a @ sol.x, b, atol=1e-7)
    elif sol.status == "unbounded":
        # enumeration cannot certify unboundedness, only agree it is feasible
        assert expected is not None or not np.all(np.isfinite(b))



def test_sparse_constraints_stay_sparse():
    # the transport problem of test_degenerate_transport_does_not_cycle, sparse
    k = 4
    a = np.zeros((2 * k, k * k))
    for i in range(k):
        a[i, i * k : (i + 1) * k] = 1.0
        a[k + i, i::k] = 1.0
    cost = np.arange(k * k, dtype=float) % 7
    lp = LinearProgram(c=cost, A_le=sp.csr_matrix(a), b_le=np.ones(2 * k))
    assert sp.issparse(lp.A_le)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)
    maxed = solve_lp(
        LinearProgram(c=cost, sense="maximize", A_eq=sp.csr_matrix(a), b_eq=np.ones(2 * k))
    )
    assert maxed.status == "optimal"
    assert isinstance(maxed.iterations, int)
    assert brute_force_lp(cost, a, np.ones(2 * k), "max") == pytest.approx(maxed.objective)
    with pytest.raises(ValueError, match="columns"):
        LinearProgram(c=[1.0], A_le=sp.csr_matrix(np.ones((1, 2))), b_le=[1.0])


def _random_program(rng, m, n, sparse):
    """A_le x <= b_le in a box, feasible at a random interior point."""
    a = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.4)
    upper = rng.uniform(0.5, 2.0, size=n)
    b = a @ (upper * rng.uniform(0.2, 0.8, size=n)) + rng.uniform(0.0, 0.5, size=m)
    return (sp.csr_matrix(a) if sparse else a), b, np.zeros(n), upper


def _assert_same_optimum(got, ref, lp):
    assert got.status == ref.status == "optimal"
    assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
    assert got.x @ lp.c == pytest.approx(got.objective, rel=1e-9, abs=1e-9)
    assert np.all(lp.A_le @ got.x <= lp.b_le + 1e-7)
    assert np.all(got.x >= lp.lower - 1e-9) and np.all(got.x <= lp.upper + 1e-9)


@pytest.mark.parametrize("slack_start", [True, False])
@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_session_matches_cold_solves_over_a_run_of_costs(seed, sparse, slack_start):
    # every solve from the slack basis (every column at its lower bound, every
    # row basic), or from no basis, presolved
    rng = np.random.default_rng(seed)
    a, b, lower, upper = _random_program(rng, 30, 20, sparse)
    basis = (np.zeros(20, bool), np.ones(30, bool)) if slack_start else None
    session = LpSession(a, b, lower, upper, basis)
    # several cost changes in a row, with the sense switching now and then
    for step in range(12):
        sense = "maximize" if step % 4 >= 2 else "minimize"
        lp = LinearProgram(
            c=rng.normal(size=20), sense=sense, A_le=a, b_le=b, lower=lower, upper=upper
        )
        _assert_same_optimum(session.solve(lp.c, sense), solve_lp(lp), lp)


def test_session_reports_infeasible_and_unbounded_as_solve_lp_does():
    free = np.full(2, np.inf)
    infeasible = LpSession(np.array([[1.0, 1.0]]), np.array([-1.0]), np.zeros(2), free)
    assert infeasible.solve(np.ones(2)).status == "infeasible"
    assert infeasible.solve(-np.ones(2), "maximize").status == "infeasible"
    # x0 - x1 <= 1 with x1 free above: min -x1 is unbounded, min x0 + x1 is 0
    session = LpSession(np.array([[1.0, -1.0]]), np.array([1.0]), np.zeros(2), free)
    assert session.solve(np.array([0.0, -1.0])).status == "unbounded"
    sol = session.solve(np.array([1.0, 1.0]))
    assert sol.status == "optimal" and sol.objective == pytest.approx(0.0)
    assert session.solve(np.array([1.0, 0.0]), "maximize").status == "unbounded"
    sol = session.solve(np.array([1.0, -1.0]), "maximize")
    assert sol.status == "optimal" and sol.objective == pytest.approx(1.0)


def test_missing_highs_bindings_fail_the_first_lp(tmp_path):
    # a scipy without scipy.optimize._highspy._core: the package imports and
    # the subcommands that solve no LP run; the first LP of ``bounds`` exits 6
    # and solve_lp raises an ImportError, both naming the scipy it needs
    code = (
        "import sys\n"
        "sys.modules['scipy.optimize._highspy._core'] = None\n"
        "import qotepolicy\n"
        "from qotepolicy.cli import main\n"
        "out, sample = sys.argv[1:]\n"
        "bounds = ['bounds', '--input', sample, '--tau', '0.5', '--k', '4', '--tgrid', '11']\n"
        "assert main([*bounds, '--assumption', 'none', '--out', out]) == 0\n"
        "assert main(['policy', '--input', out + '/bounds_tau0.5.json', '--out', out]) == 0\n"
        "assert main([*bounds, '--assumption', 'si', '--out', out + '/si']) == 6\n"
        "try:\n"
        "    qotepolicy.solve_lp(qotepolicy.LinearProgram(c=[1.0]))\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    print('solved')\n"
    )
    sample = tmp_path / "sample.csv"
    sample.write_text("y,d,x1\n3,1,0\n4,1,0\n0,0,0\n1,0,0\n0,1,1\n1,1,1\n3,0,1\n4,0,1\n")
    src = str(Path(qotepolicy.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out"), str(sample)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    (raised,), (printed,) = run.stdout.splitlines(), run.stderr.splitlines()
    assert printed.startswith("error: ")
    for line in (raised, printed):
        assert "scipy>=1.15" in line and "scipy.optimize._highspy._core" in line


def _linprog(lp):
    """(objective, x, iterations) of lp by scipy's linprog, maximisation by a sign flip."""
    flip = -1.0 if lp.sense == "maximize" else 1.0
    res = scipy.optimize.linprog(
        flip * lp.c, A_ub=lp.A_le, b_ub=lp.b_le, A_eq=lp.A_eq, b_eq=lp.b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]), method="highs",
    )
    assert res.status == 0, res.message
    return flip * res.fun, res.x, res.nit


def _programs(source, monkeypatch):
    if source in ("dense", "sparse"):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            a, b, lower, upper = _random_program(rng, 30, 20, source == "sparse")
            for sense in ("minimize", "maximize"):
                yield LinearProgram(
                    c=rng.normal(size=20), sense=sense, A_le=a, b_le=b, lower=lower, upper=upper
                )
    elif source == "charnes_cooper":
        # the min and max programs of an SI CVaR interval at k = 8
        seen = []
        monkeypatch.setattr(bounds, "solve_lp", lambda lp: seen.append(lp) or solve_lp(lp))
        q1, q0 = population_curves(SUBGROUPS[1], 8)
        functional_bounds(q1, q0, AssumptionSet("SI"), CVaR(-1.0), k=8)
        assert [lp.sense for lp in seen] == ["minimize", "maximize"]
        yield from seen
    else:
        # the full SI copula program at k = 30, as a cold fallback solves it
        q1, q0 = population_curves(SUBGROUPS[2], 30)
        prog = _copula_program(30, 30, "SI")
        coefs, _ = prog.objective(_pairs_above(q1.values, q0.values, 0.5)[:, 0])
        for sense in ("minimize", "maximize"):
            yield LinearProgram(
                c=coefs, sense=sense, A_le=prog.a_le, b_le=prog.b_le, lower=prog.lb, upper=prog.ub
            )


@pytest.mark.parametrize("source", ["dense", "sparse", "charnes_cooper", "cold_si"])
def test_solve_lp_is_bit_equal_to_linprog(monkeypatch, source):
    # the same HiGHS on the same model: objective, x and simplex iterations
    # are equal to the last bit, with the sense flag against the sign flip
    for lp in _programs(source, monkeypatch):
        sol = solve_lp(lp)
        objective, x, iterations = _linprog(lp)
        assert sol.status == "optimal"
        assert np.float64(sol.objective).tobytes() == np.float64(objective).tobytes()
        assert sol.x.tobytes() == x.tobytes()
        assert sol.iterations == iterations


def test_matrix_format_does_not_change_a_solve(monkeypatch):
    # HiGHS gets every program row-wise as one CSR matrix, so the Charnes-Cooper
    # programs, with their equality row, solve to the last bit alike whether
    # their matrices are given dense, CSR or CSC
    for lp in _programs("charnes_cooper", monkeypatch):
        ends = set()
        for fmt in (np.asarray, sp.csr_matrix, sp.csc_matrix):
            sol = solve_lp(LinearProgram(
                c=lp.c, sense=lp.sense, A_le=fmt(lp.A_le.toarray()), b_le=lp.b_le,
                A_eq=fmt(lp.A_eq), b_eq=lp.b_eq, lower=lp.lower, upper=lp.upper,
            ))
            ends.add((sol.status, np.float64(sol.objective).tobytes(), sol.x.tobytes(),
                      sol.iterations))
        assert len(ends) == 1 and next(iter(ends))[0] == "optimal"
