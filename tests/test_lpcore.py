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

from oracles import brute_force_lp, csr_arrays
import qotepolicy
from qotepolicy import bounds, lpcore
from qotepolicy.bounds import AssumptionSet, CVaR, _copula_program, _pairs_above, functional_bounds
from qotepolicy.lpcore import _highs_basis, solve_lp
from qotepolicy.sim import SUBGROUPS, population_curves


def _le(a, b, lower=None, upper=None):
    """(rows, row_lower, row_upper, lower, upper) of a x <= b, x in [0, inf) unless given."""
    n = np.shape(a)[1]
    lower = np.zeros(n) if lower is None else lower
    upper = np.full(n, np.inf) if upper is None else upper
    return csr_arrays(a), np.full(len(b), -np.inf), np.asarray(b, dtype=float), lower, upper


def _eq(a, b):
    """(rows, row_lower, row_upper, lower, upper) of a x = b, x >= 0."""
    n = np.shape(a)[1]
    b = np.asarray(b, dtype=float)
    return csr_arrays(a), b, b, np.zeros(n), np.full(n, np.inf)


def test_textbook_maximization():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    program = _le([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], [4.0, 12.0, 18.0])
    sol = solve_lp([3.0, 5.0], "maximize", *program)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(36.0)
    assert_allclose(sol.x, [2.0, 6.0], atol=1e-9)


def test_equality_constraints_and_min():
    # min x + 2y + 3z on the simplex x + y + z = 1
    sol = solve_lp([1.0, 2.0, 3.0], "minimize", *_eq([[1.0, 1.0, 1.0]], [1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-9)


def test_infeasible_detected():
    assert solve_lp([1.0, 1.0], "minimize", *_eq([[1.0, 1.0]], [-2.0])).status == "infeasible"


def test_unbounded_detected():
    assert solve_lp([-1.0], "minimize", *_le([[-1.0]], [0.0])).status == "unbounded"


def test_free_and_bounded_variables():
    # free variable pushed negative; box keeps the second in [0, 2]
    program = _le([[-1.0, 0.0]], [3.0], lower=[-np.inf, 0.0], upper=[np.inf, 2.0])
    sol = solve_lp([1.0, -1.0], "minimize", *program)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-5.0)
    assert_allclose(sol.x, [-3.0, 2.0], atol=1e-9)


def test_validation_errors():
    no_rows = csr_arrays(np.zeros((0, 1)))
    with pytest.raises(ValueError, match="sense"):
        solve_lp([1.0], "max", no_rows, [], [], [0.0], [np.inf])
    with pytest.raises(ValueError, match="columns"):
        solve_lp([1.0], "minimize", *_le([[1.0, 2.0]], [1.0], lower=[0.0], upper=[np.inf]))
    with pytest.raises(ValueError, match="lengths"):
        solve_lp([1.0], "minimize", csr_arrays([[1.0]]), [], [], [0.0], [np.inf])
    with pytest.raises(ValueError, match="exceeds"):
        solve_lp([1.0], "minimize", no_rows, [], [], [2.0], [1.0])
    with pytest.raises(ValueError, match="exceeds"):
        solve_lp([1.0], "minimize", csr_arrays([[1.0]]), [2.0], [1.0], [0.0], [np.inf])
    with pytest.raises(ValueError, match="finite"):
        solve_lp([np.inf], "minimize", no_rows, [], [], [0.0], [np.inf])
    with pytest.raises(ValueError, match="finite"):
        solve_lp([1.0], "minimize", *_le([[np.nan]], [1.0]))


def test_every_solve_checks_its_costs_and_sense():
    # a cost vector of the wrong length, a NaN cost or an unknown sense is
    # refused, not solved with the costs of an earlier run or as a maximum
    program = _le([[1.0, 1.0]], [1.0])
    assert solve_lp([1.0, 2.0], "minimize", *program).status == "optimal"
    for costs in ([1.0, 2.0, 3.0], [1.0]):
        with pytest.raises(ValueError, match="length"):
            solve_lp(costs, "minimize", *program)
    with pytest.raises(ValueError, match="finite"):
        solve_lp([np.nan, 1.0], "minimize", *program)
    for sense in ("maximise", "max"):
        with pytest.raises(ValueError, match="sense"):
            solve_lp([1.0, 2.0], sense, *program)


def test_degenerate_transport_does_not_cycle():
    # assignment polytope with many degenerate bases
    k = 4
    a = np.zeros((2 * k, k * k))
    for i in range(k):
        a[i, i * k : (i + 1) * k] = 1.0
        a[k + i, i::k] = 1.0
    cost = np.arange(k * k, dtype=float) % 7
    sol = solve_lp(cost, "minimize", *_eq(a, np.ones(2 * k)))
    assert sol.status == "optimal"
    assert brute_force_lp(cost, a, np.ones(2 * k)) == pytest.approx(sol.objective)


def test_deterministic_replay():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 10))
    b = a @ rng.uniform(0.1, 1.0, size=10)
    c = rng.normal(size=10)
    lp1 = solve_lp(c, "minimize", *_eq(a, b))
    lp2 = solve_lp(c, "minimize", *_eq(a, b))
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
    sol = solve_lp(c, "minimize", *_eq(a, b))
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
    program = _le(sp.csr_matrix(a), np.ones(2 * k))
    assert program[0][1].size == np.count_nonzero(a)
    sol = solve_lp(cost, "minimize", *program)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)
    maxed = solve_lp(cost, "maximize", *_eq(sp.csr_matrix(a), np.ones(2 * k)))
    assert maxed.status == "optimal"
    assert isinstance(maxed.iterations, int)
    assert brute_force_lp(cost, a, np.ones(2 * k), "max") == pytest.approx(maxed.objective)
    wide = _le(sp.csr_matrix(np.ones((1, 2))), [1.0], lower=[0.0], upper=[np.inf])
    with pytest.raises(ValueError, match="columns"):
        solve_lp([1.0], "minimize", *wide)


def _random_program(rng, m, n, sparse):
    """(rows, row_lower, row_upper, lower, upper) of a x <= b in a box,
    feasible at a random interior point, with a given dense or CSR."""
    a = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.4)
    upper = rng.uniform(0.5, 2.0, size=n)
    b = a @ (upper * rng.uniform(0.2, 0.8, size=n)) + rng.uniform(0.0, 0.5, size=m)
    return _le(sp.csr_matrix(a) if sparse else a, b, upper=upper)


def _assert_same_optimum(got, ref, c, rows, row_lower, row_upper, lower, upper):
    a = sp.csr_matrix(rows[::-1], shape=(rows[0].size - 1, lower.size))
    assert got.status == ref.status == "optimal"
    assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
    assert got.x @ c == pytest.approx(got.objective, rel=1e-9, abs=1e-9)
    assert np.all(a @ got.x <= row_upper + 1e-7)
    assert np.all(got.x >= lower - 1e-9) and np.all(got.x <= upper + 1e-9)


@pytest.mark.parametrize("slack_start", [True, False])
@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_session_matches_cold_solves_over_a_run_of_costs(seed, sparse, slack_start):
    # every solve from the slack basis (every column at its lower bound, every
    # row basic), or from no basis, presolved
    rng = np.random.default_rng(seed)
    program = _random_program(rng, 30, 20, sparse)
    basis = _highs_basis(np.zeros(20, bool), np.ones(30, bool)) if slack_start else None
    # several cost changes in a row, with the sense switching now and then
    for step in range(12):
        sense = "maximize" if step % 4 >= 2 else "minimize"
        c = rng.normal(size=20)
        got = solve_lp(c, sense, *program, basis)
        _assert_same_optimum(got, solve_lp(c, sense, *program), c, *program)


def test_an_option_set_for_one_session_does_not_reach_the_next():
    # each call resets every option of the thread's HiGHS instance before it
    # passes its model in: an iteration limit of 0 set on the instance after
    # one run does not stop the next, which runs as the first did
    rng = np.random.default_rng(0)
    program = _random_program(rng, 30, 20, False)
    basis = _highs_basis(np.zeros(20, bool), np.ones(30, bool))
    c = rng.normal(size=20)
    sol = solve_lp(c, "minimize", *program, basis)
    assert sol.status == "optimal" and sol.iterations > 0
    lpcore._thread.highs.setOptionValue("simplex_iteration_limit", 0)
    again = solve_lp(c, "minimize", *program, basis)
    assert (again.status, again.iterations) == ("optimal", sol.iterations)
    assert again.objective == sol.objective and again.x.tobytes() == sol.x.tobytes()


def test_session_reports_infeasible_and_unbounded_as_solve_lp_does():
    # runs from the slack basis end as runs from no basis do
    free = np.full(2, np.inf)
    slack = _highs_basis(np.zeros(2, bool), np.ones(1, bool))
    for basis in (slack, None):
        infeasible = _le([[1.0, 1.0]], [-1.0], upper=free)
        assert solve_lp(np.ones(2), "minimize", *infeasible, basis).status == "infeasible"
        assert solve_lp(-np.ones(2), "maximize", *infeasible, basis).status == "infeasible"
        # x0 - x1 <= 1 with x1 free above: min -x1 is unbounded, min x0 + x1 is 0
        program = _le([[1.0, -1.0]], [1.0], upper=free)
        assert solve_lp(np.array([0.0, -1.0]), "minimize", *program, basis).status == "unbounded"
        sol = solve_lp(np.array([1.0, 1.0]), "minimize", *program, basis)
        assert sol.status == "optimal" and sol.objective == pytest.approx(0.0)
        assert solve_lp(np.array([1.0, 0.0]), "maximize", *program, basis).status == "unbounded"
        sol = solve_lp(np.array([1.0, -1.0]), "maximize", *program, basis)
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
        "import numpy as np\n"
        "from qotepolicy.lpcore import solve_lp\n"
        "no_rows = (np.zeros(1, np.int32), np.zeros(0, np.int32), np.zeros(0))\n"
        "try:\n"
        "    solve_lp([1.0], 'minimize', no_rows, [], [], [0.0], [np.inf])\n"
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


def _linprog(c, sense, rows, row_lower, row_upper, lower, upper):
    """(objective, x, iterations) of a program by scipy's linprog, its rows
    with equal bounds as equalities and the rest as <= rows, maximisation by
    a sign flip."""
    flip = -1.0 if sense == "maximize" else 1.0
    a = sp.csr_matrix(rows[::-1], shape=(rows[0].size - 1, lower.size))
    eq = row_lower == row_upper
    assert np.all(row_lower[~eq] == -np.inf)
    res = scipy.optimize.linprog(
        flip * np.asarray(c), A_ub=a[~eq] if np.any(~eq) else None, b_ub=row_upper[~eq],
        A_eq=a[eq] if np.any(eq) else None, b_eq=row_upper[eq],
        bounds=np.column_stack([lower, upper]), method="highs",
    )
    assert res.status == 0, res.message
    return flip * res.fun, res.x, res.nit


def _programs(source, monkeypatch):
    """(c, sense, rows, row_lower, row_upper, lower, upper) of each program of a source."""
    if source in ("dense", "sparse"):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            program = _random_program(rng, 30, 20, source == "sparse")
            for sense in ("minimize", "maximize"):
                yield (rng.normal(size=20), sense, *program)
        return
    # the cold solves (c, sense, *program), as ``bounds._solve`` gets them
    seen, solve = [], bounds._solve
    monkeypatch.setattr(
        bounds, "_solve", lambda c, sense, program, *where: seen.append((c, sense, *program))
        or solve(c, sense, program, *where),
    )
    if source == "charnes_cooper":
        # the min and max programs of an SI CVaR interval at k = 8
        q1, q0 = population_curves(SUBGROUPS[1], 8)
        functional_bounds(q1, q0, AssumptionSet("SI"), CVaR(-1.0), k=8)
    else:
        # the full SI copula program at k = 30, as a cold fallback solves it
        q1, q0 = population_curves(SUBGROUPS[2], 30)
        prog = _copula_program(30, 30, "SI")
        coefs, _ = prog.objective(_pairs_above(q1.values, q0.values, 0.5)[:, 0])
        for sense in ("min", "max"):
            prog.solve(coefs, sense, 0.5)
    assert [p[1] for p in seen] == ["minimize", "maximize"]
    yield from seen


@pytest.mark.parametrize("source", ["dense", "sparse", "charnes_cooper", "cold_si"])
def test_solve_lp_is_bit_equal_to_linprog(monkeypatch, source):
    # the same HiGHS on the same model: objective, x and simplex iterations
    # are equal to the last bit, with the sense flag against the sign flip
    for program in _programs(source, monkeypatch):
        sol = solve_lp(*program)
        objective, x, iterations = _linprog(*program)
        assert sol.status == "optimal"
        assert np.float64(sol.objective).tobytes() == np.float64(objective).tobytes()
        assert sol.x.tobytes() == x.tobytes()
        assert sol.iterations == iterations
