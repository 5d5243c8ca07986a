import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    Coupling,
    assert_only_kept_threads_started,
    bilinear_refinement,
    charnes_cooper_program,
    coupling_constraints,
    csr_arrays,
    cvar_bounds_by_permutations,
    full_grid,
    is_two_increasing,
    lp_vertices,
    normal_ppf,
    permutation_couplings,
    polytope_vertices,
    random_vertex_cvar,
    raw_coupling_lp,
    raw_shape_rows,
    rows_matrix,
    si_partial_sums_ok,
)
from qotepolicy import bounds, lpcore, sim
from qotepolicy.bounds import (
    AssumptionSet,
    CVaR,
    DeltaCdfBounds,
    DisadvantagedGain,
    LpSolveError,
    QoteBounds,
    _copula_program,
    _envelope_csvs,
    _Envelopes,
    _monotone_envelopes,
    _pairs_above,
    _staircase_envelopes,
    _staircase_qote,
    bernstein_lp_bounds,
    coupling_lp_bounds,
    default_t_grid,
    functional_bounds,
    invert_bounds,
    makarov_bounds,
    qote_coupling_bounds,
    rank_invariance_qote,
)
from qotepolicy.lpcore import LpSolution
from qotepolicy.marginals import QuantileCurve, make_y_grid, u_grid
from qotepolicy.sim import SUBGROUPS, classification_experiment, draw_sample, population_curves


def curve(values):
    values = np.asarray(values, dtype=float)
    return QuantileCurve(u_grid(values.size), np.sort(values))


def _dense(env):
    """(lower, upper) at every t of one oracle: a dense pass over it alone."""
    return _Envelopes.dense_pass([env])[0]


def _nan_brackets(size):
    """Brackets of both sides that meet nowhere and settle no probe."""
    nan = np.full(size, np.nan)
    return dict.fromkeys(("min", "max"), (nan, nan))


def _staircase(v1, v0, t):
    """The staircase the oracle reads of t: pairs of each row above t."""
    return _pairs_above(v1, v0, float(t))[:, 0]


def _options_after_reset(monkeypatch, applies, **options):
    """Set HiGHS ``options`` over the reset each ``solve_lp`` makes before it
    passes its model in, in the calls for which ``applies()`` holds."""
    core = lpcore._bindings()
    reset = core._Highs.resetOptions

    def reset_then_set(highs):
        status = reset(highs)
        if applies():
            for name, value in options.items():
                highs.setOptionValue(name, value)
        return status

    monkeypatch.setattr(core._Highs, "resetOptions", reset_then_set)


def _tight_cold(prog, coefs, sense):
    """One cold run of the whole program at 1e-10 primal and dual feasibility
    tolerances, through ``lpcore.solve_lp``, which tests that patch
    ``bounds.solve_lp`` or ``_CopulaProgram.run`` leave as it is."""
    with pytest.MonkeyPatch.context() as patch:
        tolerances = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
        _options_after_reset(patch, lambda: True, **dict.fromkeys(tolerances, 1e-10))
        sol = lpcore.solve_lp(
            coefs, bounds._SENSES[sense], prog._csr, np.full(prog.b_le.size, -np.inf), prog.b_le,
            prog.lb, prog.ub,
        )
    assert sol.status == "optimal"
    return sol


def brute_quantile_bounds(v1, v0, tau):
    """Sharp discrete bounds by enumerating every permutation coupling."""
    k = v1.size
    qs = []
    for c in permutation_couplings(k):
        idx = np.argwhere(c > 0)
        diffs = np.sort(v1[idx[:, 0]] - v0[idx[:, 1]])
        qs.append(diffs[int(np.ceil(tau * k)) - 1])
    return min(qs), max(qs)


# ---------------------------------------------------------------------------
# assumptions and containers


def test_assumption_set_tags():
    assert AssumptionSet().tag == "NoAssumption"
    AssumptionSet("SI")
    AssumptionSet("PQD")
    AssumptionSet("RankInvariance")
    AssumptionSet("Symmetry")
    with pytest.raises(ValueError, match="assumption SD not supported"):
        AssumptionSet("SD")
    with pytest.raises(ValueError, match="unknown assumption tag"):
        AssumptionSet("monotone")


def test_qote_bounds_ordering():
    b = QoteBounds(-1.0, 2.0)
    assert not b.truncated_lower and not b.truncated_upper
    with pytest.raises(ValueError, match="exceeds"):
        QoteBounds(2.0, -1.0)


@pytest.mark.parametrize(
    "lower, upper",
    [(2.0, -1.0), (1.0 + 2e-12, 1.0), (np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan), (np.inf, 0.0)],
)
def test_qote_bounds_refuse_what_the_row_check_refuses(lower, upper):
    with pytest.raises(ValueError, match="^lower bound exceeds upper bound$"):
        QoteBounds(lower, upper)
    with pytest.raises(ValueError, match="^lower bound exceeds upper bound$"):
        bounds._check_qote_bounds(np.array([0.0, lower]), np.array([0.0, upper]))


@pytest.mark.parametrize("lower, upper", [(1.0 + 5e-13, 1.0), (-np.inf, np.inf), (0.0, 0.0)])
def test_qote_bounds_take_what_the_row_check_takes(lower, upper):
    assert QoteBounds(lower, upper).lower == lower
    bounds._check_qote_bounds(np.array([lower]), np.array([upper]))


def test_delta_cdf_bounds_validation():
    DeltaCdfBounds([0.0, 1.0], [0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ValueError, match="increasing"):
        DeltaCdfBounds([1.0, 0.0], [0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ValueError, match="nondecreasing"):
        DeltaCdfBounds([0.0, 1.0], [0.2, 0.1], [0.3, 0.4])
    with pytest.raises(ValueError, match="not exceed"):
        DeltaCdfBounds([0.0, 1.0], [0.5, 0.5], [0.3, 0.6])
    for t in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            DeltaCdfBounds(t, [0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        DeltaCdfBounds([0.0, 1.0], [0.1, np.nan], [0.3, 0.4])


def test_coupling_validation():
    Coupling(2, np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="row sums"):
        Coupling(2, np.array([[0.5, 0.25], [0.0, 0.25]]))
    with pytest.raises(ValueError, match="nonnegative"):
        Coupling(2, np.array([[0.6, -0.1], [-0.1, 0.6]]))


# ---------------------------------------------------------------------------
# unrestricted bounds: closed form against brute force


def test_staircase_hand_case():
    v = np.array([0.0, 1.0, 2.0, 3.0])
    # tau = 0.5 picks m = 2: lower = max(v1[:2] - v0[2:]), upper = min pairs
    assert _staircase_qote(v, v, 0.5) == (-2.0, 1.0)
    assert _staircase_qote(v, v, 0.25) == (-3.0, 0.0)
    assert _staircase_qote(v, v, 0.75) == (-1.0, 2.0)


def test_makarov_bounds_wraps_staircase():
    q1, q0 = curve([0.0, 1.0, 2.0, 3.0]), curve([0.0, 1.0, 2.0, 3.0])
    b = makarov_bounds(q1, q0, 0.5)
    assert (b.lower, b.upper) == (-2.0, 1.0)


def test_makarov_bounds_errors():
    q = curve([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="tau"):
        makarov_bounds(q, q, 0.0)
    with pytest.raises(ValueError, match="k too small"):
        makarov_bounds(q, q, 0.1)
    with pytest.raises(ValueError, match="k too small"):
        makarov_bounds(q, q, 0.9)
    q5 = curve(np.arange(5.0))
    with pytest.raises(ValueError, match="share grid resolution"):
        makarov_bounds(q, q5, 0.5)


@given(st.integers(0, 2**32 - 1), st.floats(0.15, 0.85))
@settings(max_examples=25, deadline=None)
def test_staircase_matches_permutation_enumeration(seed, tau):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    v1 = np.sort(rng.normal(size=k))
    v0 = np.sort(rng.normal(size=k))
    if tau < 1 / (2 * k) or tau > 1 - 1 / (2 * k):
        return
    lo, up = _staircase_qote(v1, v0, tau)
    blo, bup = brute_quantile_bounds(v1, v0, tau)
    assert lo == pytest.approx(blo, abs=1e-12)
    assert up == pytest.approx(bup, abs=1e-12)


def test_makarov_bounds_widen_with_tau_at_the_right_end():
    q1 = curve(normal_ppf(u_grid(200), 1.0, 2.0))
    q0 = curve(normal_ppf(u_grid(200), 0.0, 1.0))
    bs = [makarov_bounds(q1, q0, t) for t in (0.25, 0.5, 0.75)]
    assert np.all(np.diff([b.lower for b in bs]) > 0)
    assert np.all(np.diff([b.upper for b in bs]) > 0)


# ---------------------------------------------------------------------------
# CDF-scale envelopes


def test_staircase_envelopes_match_forced_lp():
    rng = np.random.default_rng(11)
    v1 = np.sort(rng.normal(size=6))
    v0 = np.sort(rng.normal(size=6))
    t_grid = default_t_grid(v1, v0, 9)
    f_lo, f_up = _staircase_envelopes(_pairs_above(v1, v0, t_grid))
    for idx, t in enumerate(t_grid):
        lo, c_lo = raw_coupling_lp(v1, v0, t, "min")
        up, c_up = raw_coupling_lp(v1, v0, t, "max")
        assert f_lo[idx] == pytest.approx(lo, abs=1e-9)
        assert f_up[idx] == pytest.approx(up, abs=1e-9)
        # the attaining couplings are feasible and attain the reported mass
        for c, val in ((c_lo, lo), (c_up, up)):
            Coupling(6, c)
            mass = float(np.sum(c[(v1[:, None] - v0[None, :]) <= t]))
            assert mass == pytest.approx(val, abs=1e-9)


def test_pairs_above_counts_the_differences():
    rng = np.random.default_rng(5)
    for k in (3, 4, 7):
        v1 = np.sort(rng.normal(size=k))
        v0 = np.sort(rng.normal(size=k))
        d = v1[:, None] - v0[None, :]
        t = np.unique(np.concatenate([d.ravel(), default_t_grid(v1, v0, 9)]))
        brute = (d[:, :, None] > t[None, None, :]).sum(axis=1)
        assert np.array_equal(_pairs_above(v1, v0, t), brute)
        if k == 4:
            # the closed form equals the raw coupling LP at every grid difference
            f_lo, f_up = _staircase_envelopes(_pairs_above(v1, v0, t))
            for idx in range(t.size):
                lo, _ = raw_coupling_lp(v1, v0, t[idx], "min")
                up, _ = raw_coupling_lp(v1, v0, t[idx], "max")
                assert f_lo[idx] == pytest.approx(lo, abs=1e-9)
                assert f_up[idx] == pytest.approx(up, abs=1e-9)


def test_equal_staircases_are_the_runs_of_the_oracle():
    # every count of _pairs_above is nonincreasing along a strictly increasing
    # t grid, so equal staircases are neighbours and the oracle's runs are the
    # classes of equal staircases: on random and tied grids, grids holding
    # exact cross differences, and scales from 1e-6 to 1e8
    rng = np.random.default_rng(38)
    for trial in range(240):
        k = int(rng.integers(2, 40))
        base1, base0 = rng.normal(0.3, 1.4, size=k), rng.normal(0.0, 0.8, size=k)
        if trial % 2:
            base1, base0 = np.round(base1), np.round(base0)
        scale = 10.0 ** rng.uniform(-6, 8)
        v1, v0 = np.sort(base1) * scale, np.sort(base0) * scale
        grid = default_t_grid(v1, v0, int(rng.integers(1, 220)))
        if trial % 3 == 0:
            diffs = (v1[:, None] - v0[None, :]).ravel()
            grid = np.unique(np.concatenate([grid, rng.choice(diffs, 2 * k, replace=False)]))
        above = _pairs_above(v1, v0, grid)
        assert np.all(np.diff(above, axis=1) <= 0)
        _, first, classes = np.unique(above, axis=1, return_index=True, return_inverse=True)
        # the classes numbered in order of first appearance, as the runs are
        numbered = np.argsort(np.argsort(first))[classes.ravel()]
        env = _Envelopes.of_values(v1, v0, "SI", grid)
        assert np.array_equal(env._run, numbered), (trial, k, grid.size)


def test_envelope_ends_are_exact():
    # the ends of the default t grid are grid differences themselves: every
    # pair has Delta <= t at the top, exactly one pair at the bottom
    rng = np.random.default_rng(2)
    v1 = np.sort(rng.normal(size=12))
    v0 = np.sort(rng.normal(size=12))
    q1, q0 = QuantileCurve(u_grid(12), v1), QuantileCurve(u_grid(12), v0)
    t_grid = default_t_grid(v1, v0, 5)
    for tag in ("NoAssumption", "SI", "PQD"):
        env = coupling_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=t_grid)
        assert env.lower[-1] == 1.0
        assert not invert_bounds(env, 0.95).truncated_upper
    env = coupling_lp_bounds(q1, q0, t_grid=t_grid)
    assert env.upper[0] == 1 / 12


def test_coupling_lp_bounds_unrestricted_envelopes_are_cdf_like():
    q1 = curve(normal_ppf(u_grid(12), 0.5, 1.0))
    q0 = curve(normal_ppf(u_grid(12), 0.0, 1.5))
    env = coupling_lp_bounds(q1, q0)
    assert env.t_grid.size == 201
    assert np.all(env.lower <= env.upper + 1e-12)
    assert np.all(np.diff(env.lower) >= -1e-12)
    assert np.all(np.diff(env.upper) >= -1e-12)
    assert env.lower[0] == pytest.approx(0.0, abs=1e-12)
    assert env.upper[-1] == pytest.approx(1.0, abs=1e-12)


def test_coupling_lp_rejects_point_identifying_tags():
    q = curve(np.arange(4.0))
    for tag in ("RankInvariance", "Symmetry"):
        with pytest.raises(ValueError, match="not supported for the coupling LP"):
            coupling_lp_bounds(q, q, AssumptionSet(tag))
        with pytest.raises(ValueError, match="not supported for the coupling LP"):
            qote_coupling_bounds(q, q, 0.5, AssumptionSet(tag))


def test_k3_coupling_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(2)
    v1 = np.sort(rng.normal(size=3))
    v0 = np.sort(rng.normal(size=3))
    a_eq, b_eq = coupling_constraints(3)
    vertices = lp_vertices(a_eq, b_eq)
    assert len(vertices) == 6  # permutation couplings
    ts = np.quantile(v1[:, None] - v0[None, :], [0.2, 0.5, 0.8])
    stair_lo, stair_up = _staircase_envelopes(_pairs_above(v1, v0, ts))
    prog = _copula_program(3, 3, "none")
    for idx, t in enumerate(ts):
        weights = ((v1[:, None] - v0[None, :]) <= t).ravel().astype(float)
        masses = [float(weights @ v) for v in vertices]
        b = _staircase(v1, v0, t)
        for form in ((prog, *prog.objective(b)), bounds._staircase_form("none", b)):
            lo, up = (form[0].bound(*form[1:], sense, t)[0] for sense in ("min", "max"))
            for got, ref in ((lo, min(masses)), (up, max(masses))):
                assert got == pytest.approx(ref, abs=1e-7)
        assert stair_lo[idx] == pytest.approx(min(masses), abs=1e-7)
        assert stair_up[idx] == pytest.approx(max(masses), abs=1e-7)


# ---------------------------------------------------------------------------
# shape-constrained programs


def test_si_and_pqd_envelopes_nest_inside_unrestricted():
    q1 = curve(normal_ppf(u_grid(6), 1.0, 2.0))
    q0 = curve(normal_ppf(u_grid(6), 0.0, 1.0))
    t_grid = default_t_grid(q1.values, q0.values, 15)
    env_none = coupling_lp_bounds(q1, q0, AssumptionSet(), t_grid=t_grid)
    for tag in ("SI", "PQD"):
        env = coupling_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=t_grid)
        assert np.all(env.lower >= env_none.lower - 1e-9)
        assert np.all(env.upper <= env_none.upper + 1e-9)
        assert np.all(env.lower <= env.upper + 1e-9)


def test_independence_mass_lies_inside_every_envelope():
    rng = np.random.default_rng(4)
    v1 = np.sort(rng.normal(size=6))
    v0 = np.sort(rng.normal(size=6))
    q1, q0 = QuantileCurve(u_grid(6), v1), QuantileCurve(u_grid(6), v0)
    t_grid = default_t_grid(v1, v0, 11)
    indep = np.array(
        [np.mean((v1[:, None] - v0[None, :]) <= t) for t in t_grid]
    )
    for tag in ("NoAssumption", "SI", "PQD"):
        env = coupling_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=t_grid)
        assert np.all(env.lower <= indep + 1e-9)
        assert np.all(env.upper >= indep - 1e-9)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_comonotone_mass_and_brackets_hold_every_envelope(k):
    rng = np.random.default_rng(k)
    v1 = np.sort(rng.normal(size=k))
    v0 = np.sort(rng.normal(scale=1.5, size=k))
    t_grid = default_t_grid(v1, v0, 11)
    comonotone = np.array([np.mean(v1 - v0 <= t) for t in t_grid])
    brackets = bounds._coupling_brackets(v1, v0, t_grid, _pairs_above(v1, v0, t_grid))
    for tag in ("NoAssumption", "SI", "PQD"):
        if tag != "NoAssumption":
            dense = dict(zip(("min", "max"), _dense(_Envelopes.of_values(v1, v0, tag, t_grid))))
        for side in ("min", "max"):
            exact = np.array([raw_coupling_lp(v1, v0, t, side, tag)[0] for t in t_grid])
            if side == "min":
                assert np.all(exact <= comonotone + 1e-9)
            else:
                assert np.all(exact >= comonotone - 1e-9)
            if tag != "NoAssumption":
                floor, ceiling = brackets[side]
                assert np.all(floor <= exact + 1e-9)
                assert np.all(exact <= ceiling + 1e-9)
                _assert_pinned_where_the_brackets_meet(dense[side], exact, floor, ceiling)


@pytest.mark.parametrize("tag", ["SI", "PQD"])
def test_an_oracle_counts_the_pairs_once(monkeypatch, tag):
    # its staircases and its brackets come from one count, which the
    # brackets and the solves leave as it was
    q1, q0 = population_curves(SUBGROUPS[2], 8)
    v1, v0 = q1.values, q0.values
    grid = default_t_grid(v1, v0, 17)
    calls = []

    def counted(*args):
        calls.append(1)
        return _pairs_above(*args)

    monkeypatch.setattr(bounds, "_pairs_above", counted)
    env = _Envelopes.of_values(v1, v0, tag, grid)
    assert len(calls) == 1
    _dense(env)
    assert np.array_equal(env._staircases, _pairs_above(v1, v0, grid))


def _assert_pinned_where_the_brackets_meet(values, exact, floor, ceiling):
    """Where floor == ceiling the oracle's value is the floor, bit for bit,
    and the LP optimum lies within 1e-9 of it; returns how many met."""
    meet = floor == ceiling
    assert np.any(meet)
    assert np.array_equal(values[meet], floor[meet])
    assert_allclose(exact[meet], floor[meet], rtol=0, atol=1e-9)
    return int(np.count_nonzero(meet))


@pytest.mark.parametrize("k", [4, 6, 8, 12, 50])
def test_bracketed_lazy_inversion_equals_dense_inversion(k):
    # k = 50 on the default 201-point grid, as the CLI inverts it
    rng = np.random.default_rng(100 + k)
    v1 = np.sort(rng.normal(0.3, 1.4, size=k))
    v0 = np.sort(rng.normal(0.0, 0.8, size=k))
    t_grid = default_t_grid(v1, v0, 41 if k < 50 else 201)
    # every multiple of 1/k leaves some envelope flat at tau
    taus = np.concatenate([np.arange(1, k) / k, rng.uniform(0.02, 0.98, size=6)])
    decided = 0
    for tag in ("SI", "PQD"):
        lower, upper = _dense(_Envelopes.of_values(v1, v0, tag, t_grid))
        dense = DeltaCdfBounds(t_grid, *_monotone_envelopes(lower, upper))
        for tau in taus:
            env = _Envelopes.of_values(v1, v0, tag, t_grid)
            assert env.invert(tau) == invert_bounds(dense, tau), (tag, tau)
            decided += env.decided
    assert decided > 0


def test_lazy_quantile_inversion_matches_dense_route():
    q1 = curve(normal_ppf(u_grid(6), 0.3, 1.4))
    q0 = curve(normal_ppf(u_grid(6), 0.0, 0.8))
    t_grid = default_t_grid(q1.values, q0.values, 41)
    for tag in ("SI", "PQD"):
        dense = invert_bounds(
            coupling_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=t_grid), 0.3
        )
        lazy = qote_coupling_bounds(
            q1, q0, 0.3, AssumptionSet(tag), t_grid=t_grid
        )
        assert lazy.lower == pytest.approx(dense.lower, abs=1e-12)
        assert lazy.upper == pytest.approx(dense.upper, abs=1e-12)
        assert lazy.truncated_lower == dense.truncated_lower
        assert lazy.truncated_upper == dense.truncated_upper


def test_lazy_and_dense_inversion_agree_where_an_envelope_is_flat_at_tau():
    # LP masses on these flat stretches sit 1e-16 either side of tau; without
    # a tolerance the lazy bisection and the dense search landed apart
    cases = [
        (
            "SI", 10 / 12, (0.6971959888005008, 1.5798609289655414),
            [-1.6480751708556527, -1.1120207626922813, -0.5140063716874629,
             -0.37760500712699807, 0.10901408782154753, 0.16746474422274113,
             0.2136429974986111, 0.21732193102256359, 0.6467029962018469,
             0.6630633723762617, 2.0427716074923303, 2.1178387550510482],
            [-1.2273520542445742, -0.9447516230607774, -0.818230227390307,
             -0.6832266617805622, -0.5062916583143148, -0.09826996785221727,
             -0.07204367972722743, 0.03558623705548571, 0.09548302746945433,
             0.3208483045665637, 0.5937480717858228, 0.8911669542823284],
        ),
        (
            "PQD", 1 / 6, (-0.6211852111483697, -0.21650095632027644),
            [-0.969179511082668, -0.6475606784161285, -0.5636398464269645,
             -0.2960838149974946, -0.23931242973230216, 0.5014829311105223],
            [-1.1705426351003028, -0.43798807560230063, -0.33372600380413486,
             -0.20689292471224427, -0.13346075483629405, 0.05668995489379499],
        ),
    ]
    for tag, tau, expected, v1, v0 in cases:
        q1, q0 = curve(v1), curve(v0)
        t_grid = default_t_grid(q1.values, q0.values, 41)
        env = coupling_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=t_grid)
        dense = invert_bounds(env, tau)
        lazy = qote_coupling_bounds(q1, q0, tau, AssumptionSet(tag), t_grid=t_grid)
        assert lazy == dense
        assert (dense.lower, dense.upper) == expected


def test_copula_mass_matches_raw_coupling_lp():
    # the copula-coordinate program against the same restriction written on
    # the raw masses c(i,j), at grid differences and strictly between them
    rng = np.random.default_rng(9)
    for k in range(3, 7):
        v1 = np.sort(rng.normal(size=k))
        v0 = np.sort(rng.normal(size=k))
        diffs = np.unique(v1[:, None] - v0[None, :])
        ts = np.sort(np.concatenate([diffs, (diffs[:-1] + diffs[1:]) / 2]))
        for tag in ("SI", "PQD"):
            prog = _copula_program(k, k, tag)
            for t in ts[:: max(1, ts.size // 6)]:
                b = _staircase(v1, v0, t)
                for sense in ("min", "max"):
                    ref, _ = raw_coupling_lp(v1, v0, float(t), sense, tag)
                    for form in ((prog, *prog.objective(b)), bounds._staircase_form(tag, b)):
                        got, _ = form[0].bound(*form[1:], sense, float(t))
                        assert got == pytest.approx(ref, abs=1e-9)


def _cold_full_program(prog, v1, v0, t_grid):
    """[min, max] envelope values from cold solves of the full program at 1e-10 tolerances."""
    cold = []
    for sense in ("min", "max"):
        side = []
        for t in map(float, t_grid):
            coefs, const = prog.objective(_staircase(v1, v0, t))
            side.append(const + _tight_cold(prog, coefs, sense).objective)
        cold.append(side)
    return cold


def test_si_session_certifies_or_falls_back_to_the_full_program(monkeypatch):
    # random costs, unlike envelope objectives, often put the optimum of the
    # SI program without its 2-increasing rows outside those rows; the
    # oracle's linear form at t = step is the step-th cost vector
    prog = _copula_program(6, 6, "SI")
    rng = np.random.default_rng(0)
    costs = [rng.normal(size=prog.nvar) for _ in range(200)]
    monkeypatch.setattr(bounds, "_staircase_form", lambda tag, b: (prog, costs[b[0]], 0.0))
    env = _Envelopes(np.arange(200.0), [np.arange(200)], _nan_brackets(200), "SI")
    for step, coefs in enumerate(costs):
        sense = ("min", "max")[step % 2]
        got = env.mass(sense, step)
        assert got == pytest.approx(prog.solve(coefs, sense, 0.0).objective, abs=1e-9)
    assert env.solves == 200
    assert 0 < env.fallbacks < env.solves


@pytest.mark.parametrize("tag", ["SI", "PQD"])
def test_session_envelopes_match_cold_full_programs(tag):
    # small grids against the oracle's raw LP, larger ones against cold solves
    # of the full copula program at 1e-10 tolerances; ties among the grid
    # values included. Where the brackets meet, the oracle solves nothing and
    # holds the floor; elsewhere it solves one LP per distinct (side,
    # staircase), unless its costs are zero, and recalls that value at the
    # other indices with the same staircase
    rng = np.random.default_rng(21)
    for k in (3, 4, 5, 6, 12, 20, 50):
        v1 = np.sort(rng.normal(size=k))
        v0 = np.sort(np.round(rng.normal(0.2, 1.3, size=k), 1))
        t_grid = default_t_grid(v1, v0, 15)
        env = coupling_lp_bounds(curve(v1), curve(v0), AssumptionSet(tag), t_grid=t_grid)
        if k <= 6:
            cold = [
                [raw_coupling_lp(v1, v0, float(t), sense, tag)[0] for t in t_grid]
                for sense in ("min", "max")
            ]
        else:
            cold = _cold_full_program(_copula_program(k, k, tag), v1, v0, t_grid)
        ref = DeltaCdfBounds(t_grid, *_monotone_envelopes(*cold))
        assert_allclose(env.lower, ref.lower, rtol=0, atol=1e-9)
        assert_allclose(env.upper, ref.upper, rtol=0, atol=1e-9)
        oracle = _Envelopes.of_values(v1, v0, tag, t_grid)
        brackets = bounds._coupling_brackets(v1, v0, t_grid, _pairs_above(v1, v0, t_grid))
        met = sum(
            _assert_pinned_where_the_brackets_meet(values, np.array(exact), *brackets[side])
            for side, values, exact in zip(("min", "max"), _dense(oracle), cold)
        )
        assert oracle.decided == met
        staircases, costly = _pairs_above(v1, v0, t_grid), {}
        for side in ("min", "max"):
            for idx in np.flatnonzero(np.not_equal(*brackets[side])):
                b = staircases[:, idx]
                costly.setdefault((side, b.tobytes()), np.any(bounds._staircase_form(tag, b)[1]))
        assert oracle.solves == sum(costly.values())
        assert oracle.recalled == 2 * t_grid.size - met - len(costly)


def _grids(rng, k, tied):
    """Two sorted k-atom grids; tied ones round to integers, so both hold ties."""
    v1 = np.sort(rng.normal(0.3, 1.4, size=k))
    v0 = np.sort(rng.normal(0.0, 0.8, size=k))
    return (np.round(v1), np.round(v0)) if tied else (v1, v0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coarse_values_match_vertex_enumeration(k):
    # k = 2, 3: every vertex of the raw coupling polytope with its shape rows,
    # against the coarse program's LP value. k = 4, where that enumeration
    # runs to millions of bases: every vertex of the coarse program itself
    rng = np.random.default_rng(40 + k)
    raw = {}
    if k < 4:
        a_eq, b_eq = coupling_constraints(k)
        for tag in ("SI", "PQD"):
            a_le, b_le = raw_shape_rows(k, tag)
            a = np.block([[a_eq, np.zeros((2 * k, b_le.size))], [a_le, np.eye(b_le.size)]])
            raw[tag] = [v[: k * k] for v in lp_vertices(a, np.concatenate([b_eq, b_le]))]
    enumerated = 0
    for tied in (False, True):
        for _ in range(3):
            v1, v0 = _grids(rng, k, tied)
            for t in default_t_grid(v1, v0, 9)[1:-1]:
                b = _staircase(v1, v0, t)
                weights = ((v1[:, None] - v0[None, :]) <= t).ravel()
                for tag in ("SI", "PQD"):
                    prog, coefs, const = bounds._staircase_form(tag, b)
                    if k < 4:
                        masses = [float(weights @ v) for v in raw[tag]]
                    elif 0 < prog.nvar <= 4:
                        a = rows_matrix(prog).toarray()
                        vertices = polytope_vertices(a, prog.b_le, prog.lb, prog.ub)
                        masses = [const + float(coefs @ v) for v in vertices]
                    else:
                        continue
                    enumerated += 1
                    for side, ref in (("min", min(masses)), ("max", max(masses))):
                        assert prog.bound(coefs, const, side, t)[0] == pytest.approx(ref, abs=1e-9)
    assert enumerated >= 20


def test_coarse_values_match_cold_full_programs():
    # random and tied grids up to k = 30, SI and PQD, both sides: the coarse
    # program's value against a cold solve of the full k x k program at 1e-10
    # tolerances
    rng = np.random.default_rng(31)
    for k in (2, 3, 5, 8, 13, 21, 30):
        for tied in (False, True):
            v1, v0 = _grids(rng, k, tied)
            for t in rng.choice(default_t_grid(v1, v0, 41), 4, replace=False):
                b = _staircase(v1, v0, t)
                for tag in ("SI", "PQD"):
                    prog, coefs, const = bounds._staircase_form(tag, b)
                    full = _copula_program(k, k, tag)
                    full_coefs, full_const = full.objective(b)
                    assert prog.nvar <= full.nvar
                    for side in ("min", "max"):
                        got = prog.bound(coefs, const, side, t)[0]
                        ref = full_const
                        if np.any(full_coefs):
                            ref += _tight_cold(full, full_coefs, side).objective
                        assert got == pytest.approx(ref, abs=1e-12), (k, tied, t, tag, side)


def test_bilinear_interpolation_of_a_coarse_optimum_is_feasible_on_the_full_grid():
    # the extension half of the proof, built: the bilinear interpolation of
    # each coarse optimum satisfies every row and bound of the k x k program
    # to 1e-9 and takes the same objective value there
    rng = np.random.default_rng(32)
    checked = 0
    for k in (3, 6, 12, 30):
        for tied in (False, True):
            v1, v0 = _grids(rng, k, tied)
            for t in rng.choice(default_t_grid(v1, v0, 41), 3, replace=False):
                b = _staircase(v1, v0, t)
                for tag in ("SI", "PQD"):
                    prog, coefs, const = bounds._staircase_form(tag, b)
                    if not prog.nvar:
                        continue
                    full = _copula_program(k, k, tag)
                    full_coefs, full_const = full.objective(b)
                    for side in ("min", "max"):
                        sol = prog.solve(coefs, side, t)
                        s = bilinear_refinement(full_grid(prog, sol.x), prog.rows, prog.cols)
                        x = s[1:-1, 1:-1].ravel()
                        assert np.all(rows_matrix(full) @ x <= full.b_le + 1e-9)
                        assert np.all((full.lb - 1e-9 <= x) & (x <= full.ub + 1e-9))
                        value = full_const + full_coefs @ x
                        assert value == pytest.approx(const + sol.objective, abs=1e-9)
                        checked += 1
    assert checked > 50


def test_equal_staircases_give_bit_equal_values():
    # a dense pass solves one LP per distinct (side, staircase) and recalls
    # it elsewhere; a fresh oracle asked for one index alone solves it there
    q1, q0 = population_curves(SUBGROUPS[8], 12)
    v1, v0 = q1.values, q0.values
    grid = default_t_grid(v1, v0, 41)
    for tag in ("SI", "PQD"):
        env = _Envelopes.of_values(v1, v0, tag, grid)
        dense = np.array(_dense(env))
        assert env.recalled > 0
        alone = [
            [_Envelopes.of_values(v1, v0, tag, grid).mass(side, idx) for idx in range(grid.size)]
            for side in ("min", "max")
        ]
        assert np.array_equal(np.array(alone), dense)


def test_si_k50_envelope_where_a_session_row_broke_is_the_cold_optimum():
    # CLI ``bounds --dgp subgroup5 --assumption si --k 50`` wrote
    # 0.05999667889 for the upper envelope at this t while each value was a
    # run of the full program: the run's x broke one of its concavity rows by
    # 9.3e-8. A cold solve of the full program at 1e-10 tolerances gives
    # 0.059996676873
    sample = draw_sample(SUBGROUPS[5], 1000, (0, 0))
    v1 = make_y_grid(sample.y[sample.d == 1], 50)
    v0 = make_y_grid(sample.y[sample.d == 0], 50)
    grid = default_t_grid(v1, v0)
    idx = 49
    assert f"{grid[idx]:.10g}" == "-4.041719008"
    got = _Envelopes.of_values(v1, v0, "SI", grid).mass("max", idx)
    full = _copula_program(50, 50, "SI")
    coefs, const = full.objective(_staircase(v1, v0, grid[idx]))
    cold = const + _tight_cold(full, coefs, "max").objective
    assert got == pytest.approx(cold, abs=1e-12)
    assert f"{got:.10g}" == "0.05999667687"


@pytest.mark.parametrize("tag", ["SI", "PQD"])
def test_a_session_optimum_that_breaks_any_row_costs_one_cold_solve(monkeypatch, tag):
    # each run reports an optimum moved to break the first row the run
    # holds by 1e-7; the check over every row of the program sends each such
    # value to the cold solve, which gives the right one
    run_of = bounds._CopulaProgram.run

    def broken_run(prog, coefs, sense):
        run = run_of(prog, coefs, sense)
        row = prog.dropped_rows.stop
        a = rows_matrix(prog)[row].toarray().ravel()
        run.x = run.x + (prog.b_le[row] - a @ run.x + 1e-7) * a / (a @ a)
        return run

    q1, q0 = population_curves(SUBGROUPS[2], 12)
    v1, v0 = q1.values, q0.values
    grid = default_t_grid(v1, v0, 21)
    want = np.array(_dense(_Envelopes.of_values(v1, v0, tag, grid)))
    monkeypatch.setattr(bounds._CopulaProgram, "run", broken_run)
    env = _Envelopes.of_values(v1, v0, tag, grid)
    got = np.array(_dense(env))
    assert env.fallbacks == env.solves > 0
    assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("tag", ["none", "SI", "PQD"])
@pytest.mark.parametrize(
    "m1, m2", [(2, 2), (3, 3), (12, 12), (50, 50), (3, 5), (6, 4), (4, 9), (1, 1), (1, 4)]
)
def test_program_rows_are_cell_masses_then_second_differences(m1, m2, tag):
    # A S - b_le on a random S with the program's boundary values, row
    # by row: minus the cell masses in row-major order, then for SI the j-
    # and i-direction second differences at each interior (i, j) in turn
    prog = _copula_program(m1, m2, tag)
    s = full_grid(prog, np.random.default_rng(m1 * 100 + m2).normal(size=prog.nvar))
    masses = s[1:, 1:] - s[:-1, 1:] - s[1:, :-1] + s[:-1, :-1]
    rows = [-masses.ravel()] if prog.nvar else []
    if tag == "SI":
        d2_j = s[1:m1, :-2] - 2 * s[1:m1, 1:-1] + s[1:m1, 2:]
        d2_i = s[:-2, 1:m2] - 2 * s[1:-1, 1:m2] + s[2:, 1:m2]
        rows.append(np.stack([d2_j.ravel(), d2_i.ravel()], axis=1).ravel())
    want = np.concatenate(rows) if rows else np.zeros(0)
    assert rows_matrix(prog).shape == (want.size, prog.nvar)
    assert_allclose(rows_matrix(prog) @ s[1:m1, 1:m2].ravel() - prog.b_le, want, rtol=0, atol=1e-12)
    assert prog.dropped_rows == slice(0, masses.size if tag == "SI" and prog.nvar else 0)


# coarse breakpoint grids of k = 9, uneven spacing and one interior breakpoint on an axis
_BREAKPOINTS = [
    ((0, 2, 3, 7, 9), (0, 1, 4, 5, 9)),
    ((0, 5, 9), (0, 2, 3, 9)),
    ((0, 1, 9), (0, 8, 9)),
]


def _program(m1, m2, tag):
    """The full program of degrees (m1, m2), or the program on breakpoints m1 x m2."""
    if isinstance(m1, tuple):
        return bounds._CopulaProgram(m1, m2, tag)
    return _copula_program(m1, m2, tag)


@pytest.mark.parametrize(
    "m1, m2, tag",
    [(k, k, tag) for tag in ("SI", "PQD") for k in range(2, 9)]
    + [(3, 5, "SI"), (6, 4, "SI"), (3, 5, "PQD"), (6, 4, "PQD")]
    + [(rows, cols, tag) for tag in ("SI", "PQD") for rows, cols in _BREAKPOINTS],
)
def test_start_basis_is_a_vertex_of_the_full_program(m1, m2, tag):
    prog = _program(m1, m2, tag)
    kept = slice(prog.dropped_rows.stop, None)
    col_basic, row_basic = bounds._start_masks(prog.nvar, prog.b_le[kept].size, prog.tag)
    a, b = rows_matrix(prog)[kept].toarray(), prog.b_le[kept]
    # the independence copula, feasible in the whole program
    x = np.outer(prog.rows[1:-1], prog.cols[1:-1]).ravel() / (prog.m1 * prog.m2)
    assert np.all(rows_matrix(prog) @ x <= prog.b_le + 1e-12)
    assert np.all((prog.lb - 1e-12 <= x) & (x <= prog.ub + 1e-12))
    # nonbasic rows tight at b, nonbasic columns at their lower bound
    assert (col_basic.size, row_basic.size) == (prog.nvar, b.size)
    assert_allclose(a[~row_basic] @ x, b[~row_basic], rtol=0, atol=1e-12)
    assert_allclose(x[~col_basic], prog.lb[~col_basic], rtol=0, atol=1e-12)
    basis = np.hstack([a[:, col_basic], np.eye(b.size)[:, row_basic]])
    assert basis.shape == (b.size, b.size)
    assert np.linalg.matrix_rank(basis) == b.size


@pytest.mark.parametrize("tag", ["none", "SI", "PQD"])
@pytest.mark.parametrize("rows, cols", _BREAKPOINTS)
def test_breakpoint_rows_are_cell_masses_then_slope_form_concavity(rows, cols, tag):
    # A S - b_le on a random S with the program's boundary values, row
    # by row: minus the cell masses of consecutive breakpoints, then for SI
    # minus (c' - c)(S(c) - S(c_)) - (c - c_)(S(c') - S(c)) along the row and
    # then along the column at each interior breakpoint (r, c) in turn
    prog = bounds._CopulaProgram(rows, cols, tag)
    r, c = np.array(rows), np.array(cols)
    x = np.random.default_rng(r.size * 10 + c.size).normal(size=prog.nvar)
    s = full_grid(prog, x)
    want = [-(s[1:, 1:] - s[:-1, 1:] - s[1:, :-1] + s[:-1, :-1]).ravel()]
    if tag == "SI":
        dr, dc = np.diff(r)[:, None], np.diff(c)
        along_j = dc[1:] * (s[1:-1, 1:-1] - s[1:-1, :-2]) - dc[:-1] * (s[1:-1, 2:] - s[1:-1, 1:-1])
        along_i = dr[1:] * (s[1:-1, 1:-1] - s[:-2, 1:-1]) - dr[:-1] * (s[2:, 1:-1] - s[1:-1, 1:-1])
        want.append(-np.stack([along_j.ravel(), along_i.ravel()], axis=1).ravel())
    want = np.concatenate(want)
    assert rows_matrix(prog).shape == (want.size, prog.nvar)
    assert_allclose(rows_matrix(prog) @ x - prog.b_le, want, rtol=0, atol=1e-12)
    assert_allclose(prog.ub, np.minimum.outer(r[1:-1] / r[-1], c[1:-1] / c[-1]).ravel())
    floor = np.outer(r[1:-1], c[1:-1]).ravel() / (r[-1] * c[-1])
    assert_allclose(prog.lb, floor if tag == "PQD" else 0.0, rtol=0, atol=0)


def test_unrestricted_program_has_no_start_basis():
    prog = _copula_program(5, 5, "none")
    assert bounds._start_masks(prog.nvar, prog.b_le.size, prog.tag) is None


@pytest.mark.parametrize("tag", ["SI", "PQD"])
def test_session_values_do_not_depend_on_solve_order(tag):
    q1, q0 = population_curves(SUBGROUPS[2], 12)
    v1, v0 = q1.values, q0.values
    grid = default_t_grid(v1, v0, 41)
    pairs = [(side, idx) for side in ("min", "max") for idx in range(grid.size)]
    shuffled = np.random.default_rng(4).permutation(len(pairs))
    orders = {
        "forward": pairs,
        "reverse": pairs[::-1],
        "shuffled": [pairs[n] for n in shuffled],
    }
    dense = np.array(_dense(_Envelopes.of_values(v1, v0, tag, grid)))
    for name, order in orders.items():
        env = _Envelopes.of_values(v1, v0, tag, grid)
        got = {pair: env.mass(*pair) for pair in order}
        solved = np.array([[got[side, idx] for idx in range(grid.size)] for side in ("min", "max")])
        assert np.array_equal(solved, dense), name


@pytest.mark.parametrize("tag", ["SI", "PQD"])
def test_a_refused_start_basis_solves_from_no_basis(monkeypatch, tag):
    core = lpcore._bindings()
    refused = []
    monkeypatch.setattr(
        core._Highs, "setBasis", lambda self, *args: refused.append(1) or core.HighsStatus.kError
    )
    q1, q0 = population_curves(SUBGROUPS[2], 12)
    v1, v0 = q1.values, q0.values
    grid = default_t_grid(v1, v0, 21)
    env = _Envelopes.of_values(v1, v0, tag, grid)
    got = _dense(env)
    cold = _cold_full_program(_copula_program(12, 12, tag), v1, v0, grid)
    assert len(refused) == env.solves > 0
    assert_allclose(got, cold, rtol=0, atol=1e-9)


@pytest.mark.parametrize("tag", ["SI", "PQD"])
def test_a_session_run_that_ends_non_optimal_costs_one_cold_full_solve(monkeypatch, tag):
    # every run stops at its first iteration, so it ends optimal only where
    # the start basis already is; the cold solves run the whole program the
    # run left rows out of, and are not capped, and no LP but these runs and
    # cold solves is solved
    run_of, cold_solve, solve_lp = bounds._CopulaProgram.run, bounds._solve, bounds.solve_lp
    runs, cold, lps, lock, capped = [], [], [0], threading.Lock(), threading.local()

    def recorded_run(prog, coefs, sense):
        capped.on = True
        try:
            run = run_of(prog, coefs, sense)
        finally:
            capped.on = False
        with lock:
            runs.append((run, prog))
        return run

    def recorded_cold(c, sense, program, *where):
        sol = cold_solve(c, sense, program, *where)
        with lock:
            cold.append((program, sol))
        return sol

    def counted_lp(*program):
        with lock:
            lps[0] += 1
        return solve_lp(*program)

    _options_after_reset(
        monkeypatch, lambda: getattr(capped, "on", False), simplex_iteration_limit=0
    )
    monkeypatch.setattr(bounds._CopulaProgram, "run", recorded_run)
    monkeypatch.setattr(bounds, "_solve", recorded_cold)
    monkeypatch.setattr(bounds, "solve_lp", counted_lp)
    q1, q0 = population_curves(SUBGROUPS[2], 12)
    v1, v0 = q1.values, q0.values
    grid = default_t_grid(v1, v0, 21)
    env = _Envelopes.of_values(v1, v0, tag, grid)
    got = _dense(env)
    stopped = [prog for run, prog in runs if run.status != "optimal"]
    assert 0 < len(stopped) < len(runs) == env.solves
    assert len(cold) == len(stopped) == env.fallbacks
    assert lps[0] == len(runs) + len(cold)
    # each cold solve runs every row of the program whose run stopped
    assert sorted(id(rows) for (rows, *_), _ in cold) == sorted(id(prog._csr) for prog in stopped)
    cold_iterations = sum(sol.iterations for _, sol in cold)
    assert cold_iterations > 0
    assert env.iterations == sum(run.iterations for run, _ in runs) + cold_iterations
    full = _copula_program(12, 12, tag)
    assert_allclose(got, _cold_full_program(full, v1, v0, grid), rtol=0, atol=1e-9)


def _count_lp_solves(monkeypatch):
    """Counters of runs and cold solves, through ``_CopulaProgram.run``, the
    seam test_cli patches, and ``bounds._solve``.

    A dense pass solves on several threads, so each count takes a lock.
    """
    counts = {"run": 0, "cold": 0}
    run_of, cold_solve = bounds._CopulaProgram.run, bounds._solve
    lock = threading.Lock()

    def counted_run(prog, coefs, sense):
        with lock:
            counts["run"] += 1
        return run_of(prog, coefs, sense)

    def counted_cold(*program):
        with lock:
            counts["cold"] += 1
        return cold_solve(*program)

    monkeypatch.setattr(bounds._CopulaProgram, "run", counted_run)
    monkeypatch.setattr(bounds, "_solve", counted_cold)
    return counts


def _workers(monkeypatch, count):
    monkeypatch.setattr(bounds, "_usable_cpus", lambda: count)


def test_lp_counts_do_not_rise(monkeypatch):
    # pinned LP counts: every run starts from the independence
    # basis, so only a change of the memo, of the probes or of the programs
    # shows here; a count may fall, never rise. Each pin holds on one worker
    # and on two.
    counts = _count_lp_solves(monkeypatch)

    def solved(call):
        counts.update(run=0, cold=0)
        call()
        return counts["run"], counts["cold"]

    made = []
    of_values = _Envelopes.of_values.__func__

    def recorded(cls, *args, **kwargs):
        made.append(of_values(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(_Envelopes, "of_values", classmethod(recorded))
    si, pqd = AssumptionSet("SI"), AssumptionSet("PQD")
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        q1, q0 = population_curves(SUBGROUPS[2], 12)
        grid = default_t_grid(q1.values, q0.values, 41)
        # 80 each while every dense value took an LP, 55 while equal
        # staircases took one each
        assert solved(lambda: coupling_lp_bounds(q1, q0, si, t_grid=grid)) == (54, 0)
        assert solved(lambda: coupling_lp_bounds(q1, q0, pqd, t_grid=grid)) == (54, 0)
        # 7 and 8 while each side bisected all of [0, 40]
        assert solved(lambda: qote_coupling_bounds(q1, q0, 0.25, si, t_grid=grid)) == (4, 0)
        assert solved(lambda: qote_coupling_bounds(q1, q0, 0.25, pqd, t_grid=grid)) == (4, 0)
        # probes the closed-form brackets settle, beside the LPs solved: only
        # the one at the last t of each side, as a search probes none of them
        for tag in (si, pqd):
            env = _Envelopes.of_curves(q1, q0, tag, t_grid=grid)
            env.invert(0.25)
            assert (env.solves, env.fallbacks, env.decided) == (4, 0, 2)
        sim._collected_actions.cache_clear()
        per_subgroup = []
        for s in range(3, 8):
            made.clear()
            per_subgroup.append(
                solved(lambda: classification_experiment(SUBGROUPS[s], 0.25, 200, 8, seed=3, k=12))
                + (sum(env.decided for env in made),)
            )
        # (21, 27, 39, 41, 38) LPs while equal staircases took one each
        assert per_subgroup == [(20, 0, 12), (25, 0, 15), (35, 0, 9), (35, 0, 16), (35, 0, 22)]
        # a dense pass leaves nothing for the inversion to solve or to decide;
        # its LPs, the values where the brackets meet and the one value an
        # equal staircase recalls make up all 82 values
        env = _Envelopes.of_curves(q1, q0, si, t_grid=grid)
        assert solved(lambda: _dense(env)) == (54, 0)
        assert (env.decided, env.recalled) == (27, 1)
        assert solved(lambda: (env.invert(0.25), env.invert(0.5))) == (0, 0)
        assert (env.decided, env.recalled) == (27, 1)
        # simplex iterations of one lazy SI interval at k = 50 on the default
        # grid (5,492 when each solve started from the basis the last one
        # left, 1,194 in 10 solves while each side bisected the whole grid,
        # 767 in 7 solves of the full 49 x 49 program)
        q1, q0 = population_curves(SUBGROUPS[2], 50)
        env = _Envelopes.of_curves(q1, q0, si)
        assert solved(lambda: env.invert(0.25)) == (7, 0)
        assert (env.solves, env.fallbacks, env.iterations) == (7, 0, 185)
        # a dense SI pass at k = 50 on the default grid, the hard SI case:
        # 281 LPs and 127,508 iterations on the full program
        q1, q0 = population_curves(SUBGROUPS[5], 50)
        env = _Envelopes.of_curves(q1, q0, si)
        assert solved(lambda: _dense(env)) == (268, 0)
        assert (env.iterations, env.decided, env.recalled) == (44668, 121, 13)


@pytest.mark.parametrize("program, k", [("SI", 12), ("SI", 20), ("PQD", 12), ("PQD", 20)])
def test_dense_values_and_counts_do_not_depend_on_the_worker_count(monkeypatch, program, k):
    q1, q0 = population_curves(SUBGROUPS[2], k)
    grid = default_t_grid(q1.values, q0.values, 41)

    def call():
        return coupling_lp_bounds(q1, q0, AssumptionSet(program), t_grid=grid)

    # the dense pass of coupling_lp_bounds goes through ``dense_pass``
    passes = []
    dense_pass = _Envelopes.dense_pass

    def recorded(oracles):
        found = dense_pass(oracles)
        (env,), ((lower, upper),) = oracles, found
        passes.append((env, np.array([lower, upper])))
        return found

    monkeypatch.setattr(_Envelopes, "dense_pass", staticmethod(recorded))
    for count in (1, 2):
        _workers(monkeypatch, count)
        call()
    (serial, want), (env, got) = passes
    assert np.array_equal(got, want)
    counters = ("solves", "fallbacks", "iterations", "decided")
    assert [getattr(env, c) for c in counters] == [getattr(serial, c) for c in counters]
    assert env.solves > 0


@pytest.mark.parametrize("tag", ["SI", "PQD"])
@pytest.mark.parametrize("k", [12, 20, 50])
def test_lazy_bounds_and_counts_do_not_depend_on_the_worker_count(monkeypatch, tag, k):
    # the two sides keep their own memo and counts: a lost update between
    # them would show at a short switch interval
    q1, q0 = population_curves(SUBGROUPS[2], k)
    counters = ("solves", "fallbacks", "iterations", "decided")
    interval = sys.getswitchinterval()
    for tau in (0.25, 0.5):
        found = []
        for count in (1, 2):
            _workers(monkeypatch, count)
            env = _Envelopes.of_curves(q1, q0, AssumptionSet(tag))
            sys.setswitchinterval(1e-6 if count > 1 else interval)
            try:
                got = env.invert(tau)
            finally:
                sys.setswitchinterval(interval)
            found.append((got, [getattr(env, c) for c in counters]))
        assert found[1] == found[0]
        assert found[0][1][0] > 0


@pytest.mark.parametrize("tag", ["SI", "PQD"])
@pytest.mark.parametrize("k", [8, 12, 20])
def test_guided_search_finds_the_first_index_the_dense_values_reach(monkeypatch, tag, k):
    # multiples of 1/k leave envelopes flat at tau; each search also starts
    # from an hi short of the last index, so the window ends inside the grid
    rng = np.random.default_rng(200 + k)
    v1 = np.sort(rng.normal(0.3, 1.4, size=k))
    v0 = np.sort(rng.normal(0.0, 0.8, size=k))
    grid = default_t_grid(v1, v0, 41)
    dense = dict(zip(("min", "max"), _dense(_Envelopes.of_values(v1, v0, tag, grid))))
    taus = np.concatenate([np.arange(1, k) / k, rng.uniform(0.02, 0.98, size=4)])
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        for tau in taus:
            first = {}
            for side in ("min", "max"):
                reached = np.flatnonzero(dense[side] >= tau - bounds._TAU_TOL)
                first[side] = reached[0] if reached.size else None
                if reached.size:
                    env = _Envelopes.of_values(v1, v0, tag, grid)
                    hi = int(rng.choice(reached))
                    assert env.first_reaching(side, tau, hi) == reached[0], (side, tau, hi)
            got = _Envelopes.of_values(v1, v0, tag, grid).invert(tau)
            for side, end in (("min", got.upper), ("max", got.lower)):
                idx = grid.size - 1 if first[side] is None else first[side]
                assert end == grid[idx], (workers, side, tau)


class _TableProgram:
    """A stand-in program: the value at t = n is values[n], one counted run each."""

    def __init__(self, values):
        self.values, self.runs = values, 0

    def bound(self, coefs, const, sense, t):
        self.runs += 1
        return float(self.values[int(t)]), (LpSolution(status="optimal"),)


@pytest.mark.parametrize("shape", ["step", "convex", "concave", "staircase"])
def test_guided_search_probes_stay_within_the_safeguard_bound(monkeypatch, shape):
    # brackets 0 and 1 everywhere leave the whole grid open, so every height
    # the search has not probed is 1/2; on a step or a sharply bent curve the
    # line between the ends crosses tau far from the first index that reaches it
    n = 201
    x = np.arange(n) / (n - 1)
    rng = np.random.default_rng(5)
    curves = {
        "step": lambda at: (np.arange(n) >= at).astype(float),
        "convex": lambda at: x ** (1 + at),
        "concave": lambda at: 1 - (1 - x) ** (1 + at),
        "staircase": lambda at: np.cumsum(rng.random(n) < 0.03 + at / 400) / max(1, at),
    }
    brackets = dict.fromkeys(("min", "max"), (np.zeros(n), np.ones(n)))
    cap = 2 * int(np.ceil(np.log2(n)))
    for at in (1, 7, 30, 100, 180, 199):
        values = np.minimum(curves[shape](at), 1.0)
        for tau in (1e-6, 0.01, 0.3, 0.5, 0.97, 1 - 1e-6):
            reached = np.flatnonzero(values >= tau - bounds._TAU_TOL)
            if not reached.size:
                continue
            prog = _TableProgram(values)
            monkeypatch.setattr(bounds, "_staircase_form", lambda tag, b: (prog, None, 0.0))
            env = _Envelopes(np.arange(float(n)), [np.arange(n)], brackets, "SI")
            assert env.first_reaching("min", tau, n - 1) == reached[0], (at, tau)
            assert prog.runs <= cap, (at, tau, prog.runs)
            assert (env.solves, env.decided) == (prog.runs, 0)


def test_lps_that_fail_on_both_sides_of_a_lazy_inversion_raise_the_min_sides(monkeypatch):
    # every run fails; the min side's failing solve waits until the max
    # side's has raised, and the min side's error is still the one raised
    failed = LpSolution(status="failed", message="stalled")
    monkeypatch.setattr(bounds, "solve_lp", lambda *program: failed)
    q1, q0 = population_curves(SUBGROUPS[2], 12)
    si = AssumptionSet("SI")
    _workers(monkeypatch, 1)
    with pytest.raises(LpSolveError) as serial:
        qote_coupling_bounds(q1, q0, 0.25, si)
    solve = bounds._solve
    max_raised, raised = threading.Event(), {}

    def gated(c, sense, program, t, tag, k):
        if sense == "minimize":
            assert max_raised.wait(timeout=60)
        try:
            return solve(c, sense, program, t, tag, k)
        except LpSolveError as exc:
            raised[sense] = (exc, threading.get_ident())
            raise
        finally:
            if sense == "maximize":
                max_raised.set()

    monkeypatch.setattr(bounds, "_solve", gated)
    _workers(monkeypatch, 2)
    before = set(threading.enumerate())
    with pytest.raises(LpSolveError) as info:
        qote_coupling_bounds(q1, q0, 0.25, si)
    assert info.value is raised["minimize"][0]
    assert info.value.t == serial.value.t
    # the max side raised first, on the other thread
    assert raised["maximize"][1] != raised["minimize"][1]
    assert_only_kept_threads_started(before, bounds._helpers.threads, 1)


@pytest.mark.parametrize("side", ["minimize", "maximize"])
def test_an_lp_that_fails_on_one_side_of_a_lazy_inversion_alone_is_raised(monkeypatch, side):
    # runs fail on one side only; that side fails once the other side has
    # begun its first run, which then waits until that side has failed, so
    # the two run at once on different threads, the helper thread on one
    q1, q0 = population_curves(SUBGROUPS[2], 12)
    si = AssumptionSet("SI")
    failed = LpSolution(status="failed", message="stalled")
    run_of, cold_solve = bounds._CopulaProgram.run, bounds._solve
    other_side_began, failing_side_done, threads = threading.Event(), threading.Event(), {}

    def gated_run(prog, coefs, sense):
        threads.setdefault(sense, threading.get_ident())
        if bounds._SENSES[sense] == side:
            assert other_side_began.wait(timeout=60)
            return failed
        other_side_began.set()
        assert failing_side_done.wait(timeout=60)
        return run_of(prog, coefs, sense)

    def gated_cold(c, sense, program, t, tag, k):
        if sense == side:
            failing_side_done.set()
            raise LpSolveError(failed, t, tag, k)
        return cold_solve(c, sense, program, t, tag, k)

    monkeypatch.setattr(bounds._CopulaProgram, "run", gated_run)
    monkeypatch.setattr(bounds, "_solve", gated_cold)
    _workers(monkeypatch, 2)
    before = set(threading.enumerate())
    with pytest.raises(LpSolveError) as info:
        qote_coupling_bounds(q1, q0, 0.25, si)
    assert_only_kept_threads_started(before, bounds._helpers.threads, 1)
    assert len(threads) == 2 and len(set(threads.values())) == 2
    # a serial pass whose runs fail on that side alone raises the same t
    _workers(monkeypatch, 1)
    other_side_began.set()
    failing_side_done.set()
    with pytest.raises(LpSolveError) as serial:
        qote_coupling_bounds(q1, q0, 0.25, si)
    assert info.value.t == serial.value.t


def test_a_certificate_that_fails_on_a_helper_thread_falls_back_there(monkeypatch):
    # random costs, as in the certificate test above; the caller's first run
    # waits until a helper thread has run a cold solve of its own
    prog = _copula_program(6, 6, "SI")
    rng = np.random.default_rng(0)
    costs = [rng.normal(size=prog.nvar) for _ in range(100)]

    monkeypatch.setattr(bounds, "_staircase_form", lambda tag, b: (prog, costs[b[0]], 0.0))

    def oracle():
        return _Envelopes(np.arange(100.0), [np.arange(100)], _nan_brackets(100), "SI")

    _workers(monkeypatch, 1)
    serial = oracle()
    want = _dense(serial)
    caller, cold_elsewhere = threading.get_ident(), threading.Event()
    run_of, cold_solve = bounds._CopulaProgram.run, bounds._solve

    def gated_run(prog, coefs, sense):
        if threading.get_ident() == caller:
            assert cold_elsewhere.wait(timeout=60)
        return run_of(prog, coefs, sense)

    def recorded_cold(*program):
        if threading.get_ident() != caller:
            cold_elsewhere.set()
        return cold_solve(*program)

    monkeypatch.setattr(bounds._CopulaProgram, "run", gated_run)
    monkeypatch.setattr(bounds, "_solve", recorded_cold)
    _workers(monkeypatch, 2)
    env = oracle()
    got = _dense(env)
    assert cold_elsewhere.is_set()
    assert np.array_equal(got, want)
    assert (env.solves, env.fallbacks, env.iterations) == (
        serial.solves, serial.fallbacks, serial.iterations
    )
    assert 0 < env.fallbacks < env.solves


def test_an_lp_that_fails_on_a_helper_thread_raises_the_earliest_in_serial_order(monkeypatch):
    # every run fails; the first item in serial order waits until a later
    # one has raised, and the first is still the one reported. Items run
    # largest program first, so an item after the first may run before it
    failed = LpSolution(status="failed", message="stalled")
    monkeypatch.setattr(bounds, "solve_lp", lambda *program: failed)
    q1, q0 = population_curves(SUBGROUPS[2], 12)
    v1, v0 = q1.values, q0.values
    grid = default_t_grid(v1, v0, 21)
    floor, ceiling = bounds._coupling_brackets(v1, v0, grid, _pairs_above(v1, v0, grid))["min"]
    first = float(grid[np.flatnonzero(floor != ceiling)[0]])
    solve = bounds._solve
    events, lock, later_raised = [], threading.Lock(), threading.Event()

    def gated(c, sense, program, t, tag, k):
        is_first = t == first and sense == "minimize"
        with lock:
            events.append(("start", is_first, threading.get_ident()))
        if is_first:
            assert later_raised.wait(timeout=60)
        try:
            return solve(c, sense, program, t, tag, k)
        finally:
            with lock:
                events.append(("raised", is_first, threading.get_ident()))
            if not is_first:
                later_raised.set()

    monkeypatch.setattr(bounds, "_solve", gated)
    _workers(monkeypatch, 2)
    before = set(threading.enumerate())
    env = _Envelopes.of_values(v1, v0, "SI", grid)
    with pytest.raises(LpSolveError, match="LP failed at t=") as info:
        _dense(env)
    assert info.value.t == first
    # a later item raised first. Once the earliest failing item in item
    # order raised, no item after it starts: at most the one the other
    # worker took while that raise was being recorded. Every item that
    # started raised
    at = [kind == "raised" and is_first for kind, is_first, _ in events].index(True)
    assert any(kind == "raised" and not is_first for kind, is_first, _ in events[:at])
    late = [thread for kind, _, thread in events[at:] if kind == "start"]
    assert len(late) <= 1 and events[at][2] not in late
    starts = [thread for kind, _, thread in events if kind == "start"]
    assert sorted(starts) == sorted(thread for kind, _, thread in events if kind == "raised")
    assert_only_kept_threads_started(before, bounds._helpers.threads, 1)
    assert (env.solves, env.fallbacks) == (0, 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_on_workers_runs_items_in_the_given_order_and_raises_the_earliest(monkeypatch, workers):
    # results come back in item order whatever the run order; a raise skips
    # only the items after it in item order, so the error a serial pass
    # would raise first is the one raised
    _workers(monkeypatch, workers)
    order = [3, 5, 0, 4, 1, 2]
    errors = {1: ValueError("one"), 3: ValueError("three")}
    ran, lock = [], threading.Lock()

    def work(item):
        with lock:
            ran.append(item)
        return item * 10

    def failing(item):
        work(item)
        if item in errors:
            raise errors[item]
        return item * 10

    before = set(threading.enumerate())
    assert bounds._on_workers(range(6), work, order) == [0, 10, 20, 30, 40, 50]
    assert sorted(ran) == list(range(6))
    if workers == 1:
        assert ran == order
    ran.clear()
    with pytest.raises(ValueError) as info:
        bounds._on_workers(range(6), failing, order)
    assert info.value is errors[1]
    # every item before the earliest that raised ran, that one included
    assert {0, 1} <= set(ran)
    if workers == 1:
        # 3 raises first: 5 and 4 come after it and are skipped, 0 and 1
        # still run; 1 raises, and 2 comes after it
        assert ran == [3, 0, 1]
    assert_only_kept_threads_started(before, bounds._helpers.threads, workers - 1)


def test_a_second_call_on_workers_starts_no_thread(monkeypatch):
    # each item waits at a barrier of two, so both workers run at once:
    # the second call runs on the helper the first one started
    _workers(monkeypatch, 2)

    def met(item):
        barrier.wait()
        return threading.current_thread()

    barrier = threading.Barrier(2, timeout=60)
    first = bounds._on_workers(range(2), met)
    before = set(threading.enumerate())
    barrier = threading.Barrier(2, timeout=60)
    second = bounds._on_workers(range(2), met)
    assert set(threading.enumerate()) <= before
    assert len(set(first)) == len(set(second)) == 2
    assert set(second) - {threading.current_thread()} <= set(bounds._helpers.threads)


def test_a_call_on_workers_from_within_work_needs_no_free_helper(monkeypatch):
    # both outer items run at once, each on one of the two workers, and each
    # makes an inner call on two workers: no helper is free to begin those
    # calls' tasks, so each caller runs its inner items alone
    _workers(monkeypatch, 2)
    barrier = threading.Barrier(2, timeout=60)

    def outer(item):
        barrier.wait()
        return bounds._on_workers(range(3), lambda inner: (item, inner))

    found = []
    caller = threading.Thread(
        target=lambda: found.append(bounds._on_workers(range(2), outer)), daemon=True
    )
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert found == [[[(0, 0), (0, 1), (0, 2)], [(1, 0), (1, 1), (1, 2)]]]


_ON_WORKERS_IN_A_FORKED_CHILD = """
import os, threading
from qotepolicy import bounds

bounds._usable_cpus = lambda: 2


def met(item):
    barrier.wait()
    return threading.get_ident()


barrier = threading.Barrier(2, timeout=30)
assert len(set(bounds._on_workers(range(2), met))) == 2
assert len(bounds._helpers.threads) == 1
pid = os.fork()
if pid == 0:
    code = 1
    try:
        barrier = threading.Barrier(2, timeout=30)
        ran = bounds._on_workers(range(2), met)
        code = 0 if len(set(ran)) == 2 and len(bounds._helpers.threads) == 1 else 1
    finally:
        os._exit(code)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, status
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_runs_on_workers_on_helpers_of_its_own():
    # the parent's helper is not in the child, which starts its own
    src = str(Path(bounds.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", _ON_WORKERS_IN_A_FORKED_CHILD], check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


def _run_on_a_fresh_instance(c, sense, rows, row_lower, row_upper, lower, upper, basis=None):
    """One run of the program's model on a HiGHS instance of its own, which
    no other model has been passed into and no option set on but output.

    The model goes in with zero costs, to be minimised, and the costs and
    sense are changed after, a second way to the model ``solve_lp`` passes."""
    core = lpcore._bindings()
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    indptr, indices, values = rows
    n = lower.size
    highs.passModel(
        n, indptr.size - 1, indices.size, int(core.MatrixFormat.kRowwise),
        int(core.ObjSense.kMinimize), 0.0, np.zeros(n), lower, upper, row_lower, row_upper,
        indptr.astype(np.int32), indices.astype(np.int32), values.astype(np.float64),
        np.zeros(n, dtype=np.int32),
    )
    objective = core.ObjSense.kMinimize if sense == "minimize" else core.ObjSense.kMaximize
    highs.changeObjectiveSense(objective)
    highs.changeColsCost(n, np.arange(n, dtype=np.int32), np.asarray(c, dtype=float))
    if basis is not None:
        highs.setBasis(basis)
    highs.run()
    assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
    info = highs.getInfo()
    return LpSolution(
        "optimal", np.array(highs.getSolution().col_value), float(info.objective_function_value),
        int(info.simplex_iteration_count),
    )


@pytest.mark.parametrize("tag", ["SI", "PQD"])
def test_array_built_sessions_run_as_models_of_linear_programs(monkeypatch, tag):
    # every run of the dense envelopes of subgroups 1-8 at k = 20 and 50
    # gives the objective bits, x and simplex iterations of a run of the CSR
    # arrays of the same kept rows of the program, from the same start basis,
    # on a fresh HiGHS instance. At k = 20, after each run a cold solve of all
    # the program's rows passes another model into the thread's instance,
    # and it too runs as on a fresh instance; so does the run made again
    # after it
    run_of, runs = bounds._CopulaProgram.run, []

    def compared_run(prog, coefs, sense):
        run = run_of(prog, coefs, sense)
        c, sense_name, kept = coefs, bounds._SENSES[sense], slice(prog.dropped_rows.stop, None)
        b = prog.b_le[kept]
        basis = lpcore._highs_basis(*bounds._start_masks(prog.nvar, b.size, prog.tag))
        rows = csr_arrays(rows_matrix(prog)[kept])
        program = (rows, np.full(b.size, -np.inf), b, prog.lb, prog.ub)
        runs.append((run, _run_on_a_fresh_instance(c, sense_name, *program, basis)))
        if prog.m1 == 20:
            rhs = prog.b_le
            whole = (prog._csr, np.full(rhs.size, -np.inf), rhs, prog.lb, prog.ub)
            cold = lpcore.solve_lp(c, sense_name, *whole)
            runs.append((cold, _run_on_a_fresh_instance(c, sense_name, *whole)))
            runs.append((run_of(prog, coefs, sense), run))
        return run

    monkeypatch.setattr(bounds._CopulaProgram, "run", compared_run)
    _workers(monkeypatch, 1)
    for subgroup in range(1, 9):
        for k in (20, 50):
            q1, q0 = population_curves(SUBGROUPS[subgroup], k)
            grid = default_t_grid(q1.values, q0.values, 21)
            coupling_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=grid)
    assert len(runs) > 100
    for run, ref in runs:
        assert run.status == ref.status == "optimal"
        assert np.float64(run.objective).tobytes() == np.float64(ref.objective).tobytes()
        assert run.x.tobytes() == ref.x.tobytes()
        assert run.iterations == ref.iterations


def test_a_dense_pass_makes_at_most_one_highs_instance_per_thread(monkeypatch):
    # over a pass of many programs on two workers, each thread makes its
    # HiGHS instance at most once (none where an earlier test made it)
    core = lpcore._bindings()
    made, lock, make = [], threading.Lock(), core._Highs

    def counted():
        with lock:
            made.append(threading.get_ident())
        return make()

    monkeypatch.setattr(core, "_Highs", counted)
    _workers(monkeypatch, 2)
    oracles = []
    for subgroup in (2, 7):
        q1, q0 = population_curves(SUBGROUPS[subgroup], 20)
        grid = default_t_grid(q1.values, q0.values, 41)
        oracles += [_Envelopes.of_values(q1.values, q0.values, tag, grid) for tag in ("SI", "PQD")]
    _Envelopes.dense_pass(oracles)
    assert sum(env.solves for env in oracles) > 100
    assert len(made) == len(set(made)) <= 2


def test_staircase_sizes_are_the_variables_of_their_coarse_programs():
    # the size a pass orders its items by is read off each staircase
    # without building its program
    for subgroup in (1, 2, 7):
        q1, q0 = population_curves(SUBGROUPS[subgroup], 20)
        grid = default_t_grid(q1.values, q0.values, 41)
        above = _pairs_above(q1.values, q0.values, grid)
        sizes = bounds._staircase_sizes(above)
        want = [bounds._staircase_form("PQD", above[:, n])[0].nvar for n in range(grid.size)]
        assert sizes.tolist() == want and max(want) > 0


@pytest.mark.parametrize("tag", ["SI", "PQD"])
def test_one_pass_over_cells_equals_dense_passes_cell_by_cell(monkeypatch, tag):
    # two cells in one largest-first pass: the envelope bytes and every
    # oracle's counts of a dense pass per cell, on one worker and on two
    made = []
    of_values = _Envelopes.of_values.__func__

    def recorded(cls, *args, **kwargs):
        made.append(of_values(cls, *args, **kwargs))
        return made[-1]

    curves = [population_curves(SUBGROUPS[s], 20) for s in (2, 7)]
    v1 = np.array([q1.values for q1, _ in curves])
    v0 = np.array([q0.values for _, q0 in curves])
    grid = default_t_grid(v1, v0, 21)
    counters = ("solves", "fallbacks", "iterations", "decided", "recalled")
    counts = _count_lp_solves(monkeypatch)
    monkeypatch.setattr(_Envelopes, "of_values", classmethod(recorded))
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        cells = [_Envelopes.of_values(v1[r], v0[r], tag, grid[r]) for r in range(2)]
        want = np.array([_monotone_envelopes(*_dense(env)) for env in cells])
        made.clear()
        counts.update(run=0, cold=0)
        lower, upper = bounds._envelope_rows(tag, v1, v0, grid)
        assert np.stack([lower, upper], axis=1).tobytes() == want.tobytes()
        assert len(made) == 2
        for env, cell in zip(made, cells):
            assert [getattr(env, c) for c in counters] == [getattr(cell, c) for c in counters]
        # the pass's runs, cold solves and simplex iterations, pinned: a
        # count may fall, never rise
        iterations = sum(env.iterations for env in made)
        pins = {"SI": (49, 0, 1322), "PQD": (49, 0, 2475)}
        assert (counts["run"], counts["cold"], iterations) == pins[tag]


def test_more_workers_than_cores_keep_every_value_once(monkeypatch):
    counts = _count_lp_solves(monkeypatch)
    q1, q0 = population_curves(SUBGROUPS[2], 12)
    grid = default_t_grid(q1.values, q0.values, 41)
    _workers(monkeypatch, 1)
    serial = _Envelopes.of_curves(q1, q0, AssumptionSet("SI"), t_grid=grid)
    want = _dense(serial)
    counts.update(run=0, cold=0)
    _workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        env = _Envelopes.of_curves(q1, q0, AssumptionSet("SI"), t_grid=grid)
        got = _dense(env)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)
    # no item lost or taken twice: one run per value solved
    assert counts["run"] == env.solves == serial.solves
    # the inversions read only values the dense pass kept, so they solve nothing
    env.invert(0.25)
    env.invert(0.5)
    assert (counts["run"], counts["cold"], env.solves) == (serial.solves, 0, serial.solves)


@pytest.mark.parametrize("tag", ["NoAssumption", "SI", "PQD"])
@pytest.mark.parametrize("path", ["lazy", "dense"])
@pytest.mark.parametrize("bad", ["reversed", "shuffled", "2-d", "nan"])
def test_bad_t_grids_are_rejected_on_every_path(tag, path, bad):
    q1, q0 = population_curves(SUBGROUPS[2], 6)
    grid = default_t_grid(q1.values, q0.values, 21)
    grid = {
        "reversed": grid[::-1],
        "shuffled": np.random.default_rng(0).permutation(grid),
        "2-d": grid.reshape(3, 7),
        "nan": np.where(np.arange(21) == 5, np.nan, grid),
    }[bad]
    with pytest.raises(ValueError, match="t_grid"):
        if path == "lazy":
            qote_coupling_bounds(q1, q0, 0.3, AssumptionSet(tag), t_grid=grid)
        else:
            coupling_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=grid)


@pytest.mark.parametrize("tag", ["NoAssumption", "SI", "PQD"])
def test_lazy_and_dense_reject_the_same_k(tag):
    q = curve([1.0])
    with pytest.raises(ValueError, match="k must be at least 2"):
        qote_coupling_bounds(q, q, 0.5, AssumptionSet(tag))
    with pytest.raises(ValueError, match="k must be at least 2"):
        coupling_lp_bounds(q, q, AssumptionSet(tag))


def test_coupling_lp_bounds_takes_no_engine():
    q = curve(np.arange(5.0))
    with pytest.raises(TypeError, match="engine"):
        coupling_lp_bounds(q, q, engine="highs")


def test_si_oracle_checks_both_directions():
    # rows SI in columns (the row-tail masses 2, 2, 2 and 0, 1, 2 do not
    # fall) but not columns in rows: the column-tail mass 2, 1, 3 falls
    c = np.array([[1, 1, 1], [2, 1, 0], [0, 1, 2]]) / 9
    Coupling(3, c)
    assert not si_partial_sums_ok(c)
    assert not si_partial_sums_ok(c.T)


def test_si_vertices_satisfy_independent_shape_checks():
    # vertices of the oracle's raw SI polytope and of the package's SI
    # copula program, reached by random objectives, pass the shape checks
    a_eq, b_eq = coupling_constraints(4)
    a_le, b_le = raw_shape_rows(4, "SI")
    prog = _copula_program(4, 4, "SI")
    rng = np.random.default_rng(1)
    import scipy.optimize

    for _ in range(20):
        res = scipy.optimize.linprog(
            rng.normal(size=16), A_eq=a_eq, b_eq=b_eq, A_ub=a_le, b_ub=b_le,
            bounds=(0, None), method="highs",
        )
        assert res.status == 0
        beta = full_grid(prog, prog.solve(rng.normal(size=prog.nvar), "min", 0.0).x)
        for c in (res.x.reshape(4, 4), np.diff(np.diff(beta, axis=0), axis=1)):
            Coupling(4, c)
            assert is_two_increasing(c)
            assert si_partial_sums_ok(c)


# ---------------------------------------------------------------------------
# quantile-scale inversion


def test_invert_bounds_hand_case_and_truncation():
    env = DeltaCdfBounds(
        [0.0, 1.0, 2.0, 3.0], [0.0, 0.1, 0.4, 0.9], [0.2, 0.5, 0.8, 1.0]
    )
    b = invert_bounds(env, 0.45)
    assert b.lower == 1.0  # min t with upper >= 0.45
    assert b.upper == 3.0  # min t with lower >= 0.45
    assert not b.truncated_lower and not b.truncated_upper
    b_hi = invert_bounds(env, 0.95)
    assert b_hi.upper == 3.0 and b_hi.truncated_upper
    env_flat = DeltaCdfBounds([0.0, 1.0], [0.3, 0.4], [0.6, 0.7])
    b_lo = invert_bounds(env_flat, 0.05)
    assert b_lo.lower == 0.0 and b_lo.truncated_lower
    with pytest.raises(ValueError, match="tau"):
        invert_bounds(env, 1.0)


def test_invert_bounds_returns_the_first_t_that_reaches_tau():
    # a valid envelope may dip by up to 1e-9; the first t whose value reaches
    # tau is t = 1, not the end of the dip (a bisection lands on t = 5)
    values = [0.0, 0.5, 0.5 - 5e-10, 0.5 - 5e-10, 0.5 - 5e-10, 1.0]
    b = invert_bounds(DeltaCdfBounds(np.arange(6.0), values, values), 0.5)
    assert b == QoteBounds(1.0, 1.0)


# ---------------------------------------------------------------------------
# Bernstein relaxation


def test_bernstein_degree_one_is_independence():
    # with m1 = m2 = 1 every coefficient is a boundary value, so the copula
    # is forced to the independence copula and the envelopes collapse
    q1 = curve(normal_ppf(u_grid(8), 0.5, 1.0))
    q0 = curve(normal_ppf(u_grid(8), 0.0, 1.0))
    t_grid = default_t_grid(q1.values, q0.values, 9)
    env = bernstein_lp_bounds(q1, q0, m1=1, m2=1, t_grid=t_grid)
    assert_allclose(env.lower, env.upper, atol=1e-9)
    with pytest.raises(ValueError, match="degrees"):
        bernstein_lp_bounds(q1, q0, m1=0)
    for points in (0, -1):
        with pytest.raises(ValueError, match="^quad_points must be at least 1$"):
            bernstein_lp_bounds(q1, q0, quad_points=points)


def test_bernstein_degrees_and_quad_points_must_be_integers():
    # quad_points = 2.5 put a node at 1.0 and still gave envelopes
    q1 = curve(normal_ppf(u_grid(8), 0.5, 1.0))
    q0 = curve(normal_ppf(u_grid(8), 0.0, 1.0))
    t_grid = default_t_grid(q1.values, q0.values, 9)
    for degrees in ({"m1": 2.5}, {"m2": 2.5}, {"m1": 3.0}):
        with pytest.raises(ValueError, match="^degrees m1, m2 must be at least 1$"):
            bernstein_lp_bounds(q1, q0, t_grid=t_grid, **degrees)
    for points in (2.5, 8.0):
        with pytest.raises(ValueError, match="^quad_points must be at least 1$"):
            bernstein_lp_bounds(q1, q0, t_grid=t_grid, quad_points=points)
    want = bernstein_lp_bounds(q1, q0, t_grid=t_grid, m1=2, m2=3, quad_points=8)
    got = bernstein_lp_bounds(
        q1, q0, t_grid=t_grid, m1=np.int64(2), m2=np.int32(3), quad_points=np.int64(8)
    )
    assert got.lower.tobytes() + got.upper.tobytes() == want.lower.tobytes() + want.upper.tobytes()


@pytest.mark.parametrize(
    "entry", ["coupling_lp_bounds", "qote_coupling_bounds", "functional_bounds", "classification"]
)
def test_grid_sizes_that_are_not_integers_are_rejected(entry):
    # k = 2.5 read the curves on the grid [0.2, 0.6, 1.0], which holds u = 1
    q1, q0 = population_curves(SUBGROUPS[2], 8)
    calls = {
        "coupling_lp_bounds": lambda: coupling_lp_bounds(q1, q0, AssumptionSet("SI"), k=2.5),
        "qote_coupling_bounds": lambda: qote_coupling_bounds(q1, q0, 0.5, k=2.5),
        "functional_bounds": lambda: functional_bounds(q1, q0, AssumptionSet(), CVaR(0.0), k=2.5),
        "classification": lambda: classification_experiment(SUBGROUPS[2], 0.25, 40, 1, k=2.5),
    }
    with pytest.raises(ValueError, match="^k must be a positive integer$"):
        calls[entry]()


def test_bernstein_bytes_runs_and_iterations_are_pinned(monkeypatch):
    # every value of a Bernstein envelope is one run of the one full program
    # of degrees (10, 10), its model passed into HiGHS afresh for each, and
    # a cold solve where the run's optimum breaks a row: the sha256 of the
    # lower and upper bytes, the runs, the cold solves and the simplex
    # iterations of both, on subgroups 2 and 7 at k = 50 and 61 t values.
    # Pinned while one model served every run of the program
    run_of, cold_solve = bounds._CopulaProgram.run, bounds._solve
    counts = {}

    def counted(name, sol):
        runs, iterations = counts.get(name, (0, 0))
        counts[name] = (runs + 1, iterations + sol.iterations)
        return sol

    monkeypatch.setattr(
        bounds._CopulaProgram, "run", lambda prog, *args: counted("run", run_of(prog, *args))
    )
    monkeypatch.setattr(bounds, "_solve", lambda *args: counted("cold", cold_solve(*args)))
    _workers(monkeypatch, 1)
    pins = {
        ("SI", 2): ("0e3c1a38fd6781417c7da83b576dd0640044a81cdc5ba5dbae1c7dbb6791452e", 122, 3,
                    3488),
        ("SI", 7): ("e22a48b813fdbea5179111e04c48a7de2f12803cae4d6dc52bf33684d44909bd", 116, 2,
                    4661),
        ("PQD", 2): ("4627141bc0c367f55a2eac120a1ac6c4f813399bc3ccd9533a1a6c5d95818c03", 122, 0,
                     2048),
        ("PQD", 7): ("d6c797b9aa7e65a495aed0fce118319e2f2e7e880a5d53630eb4b65bf8161ea2", 116, 0,
                     1924),
    }
    for (tag, subgroup), pin in pins.items():
        counts.clear()
        q1, q0 = population_curves(SUBGROUPS[subgroup], 50)
        grid = default_t_grid(q1.values, q0.values, 61)
        env = bernstein_lp_bounds(q1, q0, AssumptionSet(tag), t_grid=grid, m1=10, m2=10)
        digest = hashlib.sha256(env.lower.tobytes() + env.upper.tobytes()).hexdigest()
        (runs, run_iterations), (colds, cold_iterations) = (
            counts.get(name, (0, 0)) for name in ("run", "cold")
        )
        assert (digest, runs, colds, run_iterations + cold_iterations) == pin, (tag, subgroup)


def test_bernstein_values_and_counts_do_not_depend_on_the_worker_count(monkeypatch):
    # the LPs of both sides run on ``_on_workers``: on one worker and on two,
    # bit-equal envelopes from equal runs, cold solves and simplex
    # iterations, and where every LP fails, the error of the first LP of the
    # min side, in order of first appearance, at t_grid[0]
    q1, q0 = population_curves(SUBGROUPS[2], 20)
    grid = default_t_grid(q1.values, q0.values, 41)
    run_of, cold_solve = bounds._CopulaProgram.run, bounds._solve
    counts, lock = {}, threading.Lock()

    def counted(name, sol):
        with lock:
            runs, iterations = counts.get(name, (0, 0))
            counts[name] = (runs + 1, iterations + sol.iterations)
        return sol

    def envelopes():
        return bernstein_lp_bounds(q1, q0, AssumptionSet("SI"), t_grid=grid, m1=10, m2=10)

    monkeypatch.setattr(
        bounds._CopulaProgram, "run", lambda prog, *args: counted("run", run_of(prog, *args))
    )
    monkeypatch.setattr(bounds, "_solve", lambda *args: counted("cold", cold_solve(*args)))
    found = []
    for count in (1, 2):
        _workers(monkeypatch, count)
        counts.clear()
        env = envelopes()
        found.append((env.lower.tobytes() + env.upper.tobytes(), dict(counts)))
    assert found[1] == found[0]
    assert found[0][1]["run"][0] > 0
    failed = LpSolution(status="failed", message="stalled")
    monkeypatch.setattr(bounds, "solve_lp", lambda *program: failed)
    for count in (1, 2):
        _workers(monkeypatch, count)
        with pytest.raises(LpSolveError) as info:
            envelopes()
        assert info.value.t == grid[0] == -10.759783907240324


def test_bernstein_envelopes_nest_and_stay_valid():
    q1 = curve(normal_ppf(u_grid(10), 0.5, 1.3))
    q0 = curve(normal_ppf(u_grid(10), 0.0, 0.9))
    t_grid = default_t_grid(q1.values, q0.values, 9)
    env_none = bernstein_lp_bounds(q1, q0, m1=4, m2=4, t_grid=t_grid)
    env_si = bernstein_lp_bounds(
        q1, q0, AssumptionSet("SI"), m1=4, m2=4, t_grid=t_grid
    )
    assert np.all(env_si.lower >= env_none.lower - 1e-9)
    assert np.all(env_si.upper <= env_none.upper + 1e-9)
    assert np.all(np.diff(env_none.lower) >= -1e-12)
    assert np.all(np.diff(env_none.upper) >= -1e-12)


def test_bernstein_smooths_the_coupling_envelopes():
    # the Bernstein family is a subset of all couplings, so its envelopes
    # must lie inside the unrestricted staircase envelopes
    q1 = curve(normal_ppf(u_grid(10), 0.5, 1.3))
    q0 = curve(normal_ppf(u_grid(10), 0.0, 0.9))
    t_grid = default_t_grid(q1.values, q0.values, 9)
    stair = coupling_lp_bounds(q1, q0, t_grid=t_grid, k=200)
    bern = bernstein_lp_bounds(q1, q0, m1=5, m2=5, t_grid=t_grid)
    assert np.all(bern.lower >= stair.lower - 5e-3)
    assert np.all(bern.upper <= stair.upper + 5e-3)


@pytest.mark.parametrize("m", [4, 8])
def test_full_copula_program_optima_are_copulas(m):
    # an optimum of the full SI or PQD program, completed by the copula
    # boundary, is a copula on the (i/m, j/m) grid: its cell masses are
    # nonnegative (and mutually SI under SI), and under PQD it dominates the
    # independence copula ij/m^2
    grid = np.arange(m + 1) / m
    for tag in ("SI", "PQD"):
        prog = _copula_program(m, m, tag)
        for sense in ("min", "max"):
            coefs = np.random.default_rng(m).normal(size=prog.nvar)
            s = full_grid(prog, prog.solve(coefs, sense, 0.5).x)
            masses = np.diff(np.diff(s, axis=0), axis=1)
            Coupling(m, masses)
            assert is_two_increasing(masses)
            if tag == "SI":
                assert si_partial_sums_ok(masses)
            else:
                assert np.all(s >= np.outer(grid, grid) - 1e-9)


@pytest.mark.parametrize("m", [4, 8])
def test_bernstein_envelopes_of_one_degree_nest(m):
    q1 = curve(normal_ppf(u_grid(10), 0.5, 1.3))
    q0 = curve(normal_ppf(u_grid(10), 0.0, 0.9))
    for tag in ("SI", "PQD"):
        env = bernstein_lp_bounds(
            q1, q0, AssumptionSet(tag), m1=m, m2=m, t_grid=[-0.5, 0.5], quad_points=50
        )
        assert np.all(env.lower <= env.upper + 1e-9)


# ---------------------------------------------------------------------------
# point-identifying assumptions


def test_rank_invariance_quantile_of_comonotone_differences():
    q1 = curve([1.0, 2.0, 6.0])
    q0 = curve([0.0, 3.0, 4.0])
    # comonotone differences are (1, -1, 2); sorted (-1, 1, 2)
    assert rank_invariance_qote(q1, q0, 0.3) == -1.0
    assert rank_invariance_qote(q1, q0, 0.5) == 1.0
    assert rank_invariance_qote(q1, q0, 0.9) == 2.0


def test_rank_invariance_point_lies_inside_unrestricted_bounds():
    rng = np.random.default_rng(8)
    for _ in range(10):
        v1 = np.sort(rng.normal(size=7))
        v0 = np.sort(rng.normal(size=7))
        q1, q0 = QuantileCurve(u_grid(7), v1), QuantileCurve(u_grid(7), v0)
        for tau in (0.25, 0.5, 0.75):
            point = rank_invariance_qote(q1, q0, tau)
            b = makarov_bounds(q1, q0, tau)
            assert b.lower - 1e-12 <= point <= b.upper + 1e-12


# ---------------------------------------------------------------------------
# conditional-mean functionals


def test_cvar_matches_permutation_enumeration():
    rng = np.random.default_rng(14)
    for trial in range(5):
        v1 = np.sort(rng.normal(1.0, 1.5, size=4))
        v0 = np.sort(rng.normal(size=4))
        thr = float(np.median(v1[:, None] - v0[None, :]))
        q1, q0 = QuantileCurve(u_grid(4), v1), QuantileCurve(u_grid(4), v0)
        iv = functional_bounds(q1, q0, AssumptionSet(), CVaR(thr), k=4)
        blo, bup = cvar_bounds_by_permutations(v1, v0, thr)
        assert iv.lower == pytest.approx(blo, abs=1e-9)
        assert iv.upper == pytest.approx(bup, abs=1e-9)


def test_cvar_si_interval_nests_inside_unrestricted():
    v1 = np.sort(np.array([-0.5, 0.4, 1.2, 2.5]))
    v0 = np.sort(np.array([-1.0, 0.0, 0.3, 1.1]))
    q1, q0 = QuantileCurve(u_grid(4), v1), QuantileCurve(u_grid(4), v0)
    thr = 1.0
    iv_none = functional_bounds(q1, q0, AssumptionSet(), CVaR(thr), k=4)
    iv_si = functional_bounds(q1, q0, AssumptionSet("SI"), CVaR(thr), k=4)
    assert iv_none.lower - 1e-9 <= iv_si.lower
    assert iv_si.upper <= iv_none.upper + 1e-9


def test_cvar_si_at_k8_lies_inside_the_oracle_brackets():
    # k = 8 population curves of subgroup 1: the SI interval must nest inside
    # the unrestricted permutation bounds and contain every sampled SI vertex
    q1, q0 = population_curves(SUBGROUPS[1], 8)
    iv = functional_bounds(q1, q0, AssumptionSet("SI"), CVaR(-1.0), k=8)
    perm_lo, perm_hi = cvar_bounds_by_permutations(q1.values, q0.values, -1.0)
    a_eq, b_eq = coupling_constraints(8)
    a_le, b_le = raw_shape_rows(8, "SI")
    vert_lo, vert_hi, _ = random_vertex_cvar(
        q1.values, q0.values, -1.0, a_eq, b_eq, a_le, b_le, nobj=100, seed=0
    )
    assert perm_lo - 1e-9 <= iv.lower <= vert_lo + 1e-9
    assert vert_hi - 1e-9 <= iv.upper <= perm_hi + 1e-9


# functional_bounds on seeded k <= 8 cases, as the raw c(i,j) Charnes-Cooper
# programs gave them before the functionals moved to the copula program
PINNED_FUNCTIONALS = [
    (3, 'NoAssumption', CVaR, 1.4674318936711843, 2.4261753223623925),
    (3, 'NoAssumption', DisadvantagedGain, 2.92742834511915, 3.663104145182248),
    (3, 'SI', CVaR, 2.087291476611531, 2.4261753223623925),
    (3, 'SI', DisadvantagedGain, 2.92742834511915, 3.2197986740647346),
    (3, 'PQD', CVaR, 1.9468036080167883, 2.4261753223623925),
    (3, 'PQD', DisadvantagedGain, 2.92742834511915, 3.2197986740647346),
    (5, 'NoAssumption', CVaR, -0.15859503966633948, 1.0761211331442082),
    (5, 'NoAssumption', DisadvantagedGain, 1.9088875898445476, 2.8225016735196835),
    (5, 'SI', CVaR, 0.5634573740323798, 0.9952317693299417),
    (5, 'SI', DisadvantagedGain, 1.9088875898445476, 2.3166620945382848),
    (5, 'PQD', CVaR, 0.3643921222889568, 1.0463197885810573),
    (5, 'PQD', DisadvantagedGain, 1.9088875898445476, 2.3166620945382843),
    (8, 'NoAssumption', CVaR, -1.730894487959997, -0.6713815632436321),
    (8, 'NoAssumption', DisadvantagedGain, -0.7836633063262385, 0.7223854637665362),
    (8, 'SI', CVaR, -1.0657836250396084, -0.6713815632436321),
    (8, 'SI', DisadvantagedGain, -0.7836633063262385, -0.030638921279850927),
    (8, 'PQD', CVaR, -1.2567266688463001, -0.671381563243632),
    (8, 'PQD', DisadvantagedGain, -0.7836633063262386, -0.03063892127985112),
]


def test_functional_bounds_match_pinned_values():
    rng = np.random.default_rng(2024)
    got = []
    for k in (3, 5, 8):
        v1 = np.sort(rng.normal(0.3, 1.2, size=k))
        v0 = np.sort(rng.normal(0.0, 1.0, size=k))
        q1, q0 = QuantileCurve(u_grid(k), v1), QuantileCurve(u_grid(k), v0)
        d = np.sort((v1[:, None] - v0[None, :]).ravel())
        cvar_thr = float(d[int(0.6 * d.size)])
        for tag in ("NoAssumption", "SI", "PQD"):
            for f in (CVaR(cvar_thr), DisadvantagedGain(float(v0[k // 2]))):
                iv = functional_bounds(q1, q0, AssumptionSet(tag), f, k=k)
                got.append((k, tag, type(f), iv.lower, iv.upper))
    assert [row[:3] for row in got] == [row[:3] for row in PINNED_FUNCTIONALS]
    for row, pinned in zip(got, PINNED_FUNCTIONALS):
        assert row[3] == pytest.approx(pinned[3], abs=1e-12), row[:3]
        assert row[4] == pytest.approx(pinned[4], abs=1e-12), row[:3]


def _event(functional, v1, v0):
    """The conditioning event of a functional on the k x k cells, as
    ``functional_bounds`` reads it."""
    if isinstance(functional, CVaR):
        return (v1[:, None] - v0[None, :] < functional.threshold).astype(float)
    return np.broadcast_to(v0 < functional.threshold, (v1.size, v0.size)).astype(float)


@pytest.mark.parametrize("k", [2, 3, 4, 7, 12, 20])
def test_charnes_cooper_programs_are_bit_equal_to_the_sparse_stacks(monkeypatch, k):
    # the rows functional_bounds builds from the program's CSR arrays equal,
    # array for array and dtype for dtype, those scipy.sparse stacks make of
    # the same program and event form, zeros dropped; its endpoints equal
    # runs of that reference program to the last bit
    # the cold solves (c, sense, *program), as ``bounds._solve`` gets them
    seen, solve = [], bounds._solve
    monkeypatch.setattr(
        bounds, "_solve", lambda c, sense, program, *where: seen.append((c, sense, *program))
        or solve(c, sense, program, *where),
    )
    rng = np.random.default_rng(70 + k)
    v1, v0 = np.sort(rng.normal(0.3, 1.2, size=k)), np.sort(rng.normal(size=k))
    q1, q0 = QuantileCurve(u_grid(k), v1), QuantileCurve(u_grid(k), v0)
    d = np.sort((v1[:, None] - v0[None, :]).ravel())
    functionals = [CVaR(float(d[-1])), CVaR(float(d[int(0.8 * d.size)])), DisadvantagedGain(v0[-1])]
    zeros = 0
    for tag, program_tag in bounds._PROGRAM_TAGS.items():
        prog = _copula_program(k, k, program_tag)
        for f in functionals:
            seen.clear()
            iv = functional_bounds(q1, q0, AssumptionSet(tag), f, k=k)
            event = _event(f, v1, v0)
            e_coefs, e_const = prog.linear_form(event)
            zeros += np.count_nonzero(e_coefs == 0) + (e_const == 0)
            want = charnes_cooper_program(prog, e_coefs, e_const)
            c = np.append(*prog.linear_form((v1[:, None] - v0[None, :]) * event))
            assert [p[1] for p in seen] == ["minimize", "maximize"]
            for got in seen:
                assert np.array_equal(got[0], c)
                for a, b in zip((*got[2], *got[3:]), (*want[0], *want[1:])):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (tag, f)
            assert iv.lower == lpcore.solve_lp(c, "minimize", *want).objective
            assert iv.upper == lpcore.solve_lp(c, "maximize", *want).objective
    assert zeros > 0


@pytest.mark.parametrize("tag, program_tag", [("NoAssumption", "none"), ("SI", "SI")])
@pytest.mark.parametrize("failing", ["charnes_cooper", "positivity_check"])
def test_functional_bounds_lp_errors_name_the_program_tag_t_and_k(
    monkeypatch, failing, tag, program_tag
):
    # whichever LP of the call fails, its LpSolveError names the copula
    # program's tag, the threshold and k. Every LP runs through
    # ``bounds.solve_lp``: the positivity check is a run of the program and,
    # where that fails, a cold solve; then come the Charnes-Cooper solves,
    # with one more column
    nvar = _copula_program(6, 6, program_tag).nvar
    solve, columns = bounds.solve_lp, []

    def failing_lp(c, *program):
        columns.append(np.size(c))
        if failing == "positivity_check" or np.size(c) > nvar:
            return LpSolution("failed", message="patched")
        return solve(c, *program)

    monkeypatch.setattr(bounds, "solve_lp", failing_lp)
    q1, q0 = population_curves(SUBGROUPS[1], 6)
    with pytest.raises(LpSolveError) as err:
        functional_bounds(q1, q0, AssumptionSet(tag), CVaR(-1.0), k=6)
    assert (err.value.tag, err.value.t, err.value.k) == (program_tag, -1.0, 6)
    assert f"tag {program_tag}, k=6" in str(err.value)
    assert columns == ([nvar, nvar + 1] if failing == "charnes_cooper" else [nvar, nvar])


def test_disadvantaged_gain_conditions_on_the_control_margin():
    # conditioning event Y0 < thr fixes mass 1/2; bounds respect the
    # extreme conditional means computable by hand at k = 2
    q1 = curve([0.0, 2.0])
    q0 = curve([-1.0, 1.0])
    iv = functional_bounds(q1, q0, AssumptionSet(), DisadvantagedGain(0.0), k=2)
    # Y0 = -1 is the event; Y1 is 0 or 2 against it
    assert iv.lower == pytest.approx(1.0)
    assert iv.upper == pytest.approx(3.0)


def test_functional_bounds_errors():
    q1 = curve([0.0, 2.0])
    q0 = curve([-1.0, 1.0])
    with pytest.raises(ValueError, match="threshold outside"):
        functional_bounds(q1, q0, AssumptionSet(), CVaR(-10.0), k=2)
    with pytest.raises(ValueError, match="threshold outside"):
        functional_bounds(q1, q0, AssumptionSet(), DisadvantagedGain(-5.0), k=2)
    with pytest.raises(TypeError, match="functional"):
        functional_bounds(q1, q0, AssumptionSet(), "cvar", k=2)
    with pytest.raises(ValueError, match="not supported for the coupling LP"):
        functional_bounds(q1, q0, AssumptionSet("Symmetry"), CVaR(0.0), k=2)


# ---------------------------------------------------------------------------
# serialization


def test_envelope_csv_format():
    env = DeltaCdfBounds([0.0, 0.5], [0.0, 0.25], [0.5, 1.0])
    assert _envelope_csvs(env.t_grid, env.lower, env.upper) == [
        "t,lower,upper\n0,0,0.5\n0.5,0.25,1\n"]


def test_default_t_grid_spans_the_cross_differences():
    v1 = np.array([0.0, 4.0])
    v0 = np.array([1.0, 3.0])
    grid = default_t_grid(v1, v0, 5)
    assert grid[0] == -3.0 and grid[-1] == 3.0 and grid.size == 5


def test_an_empty_t_grid_is_rejected():
    v1 = np.array([0.0, 4.0])
    v0 = np.array([1.0, 3.0])
    with pytest.raises(ValueError, match="at least one point"):
        default_t_grid(v1, v0, 0)
    with pytest.raises(ValueError, match="must not be empty"):
        DeltaCdfBounds([], [], [])
    q1, q0 = QuantileCurve(u_grid(2), v1), QuantileCurve(u_grid(2), v0)
    with pytest.raises(ValueError, match="must not be empty"):
        qote_coupling_bounds(q1, q0, 0.5, AssumptionSet("SI"), t_grid=[])


def test_searching_rows_at_once_equals_searching_each_row():
    rng = np.random.default_rng(8)
    for rows, size, m in ((1, 1, 3), (5, 9, 40), (30, 4, 7)):
        a = np.sort(np.round(rng.normal(size=(rows, size)), 1), axis=1)
        # ties with the row's own values, values of other rows, both zeros
        v = np.concatenate([a[:, rng.integers(0, size, 5)], a[::-1, :2],
                            np.round(rng.normal(size=(rows, m)), 1),
                            np.full((rows, 2), [-0.0, 0.0])], axis=1)
        for side in ("left", "right"):
            got = bounds._searchsorted_rows(a, v, side)
            for r in range(rows):
                assert np.array_equal(got[r], np.searchsorted(a[r], v[r], side)), side


def test_rows_of_envelopes_fail_as_the_first_failing_row_alone():
    t = np.tile(np.arange(3.0), (3, 1))
    lower = np.array([[0.0, 0.5, 0.5], [0.0, 0.6, 0.4], [0.0, 0.5, 1.5]])
    upper = np.ones((3, 3))
    # row 1 falls, row 2 leaves [0, 1]; row 1 decides
    with pytest.raises(ValueError, match="^lower envelope must be nondecreasing$"):
        bounds._check_envelopes(t, lower, upper)
    t[2, 1] = np.inf
    with pytest.raises(ValueError, match="^lower envelope must be nondecreasing$"):
        bounds._check_envelopes(t, lower, upper)
    lower[1, 2] = 0.6
    with pytest.raises(ValueError, match="^t_grid values must be finite$"):
        bounds._check_envelopes(t, lower, upper)
    with pytest.raises(ValueError, match="^t_grid values must be finite$"):
        DeltaCdfBounds(t[2], lower[2], upper[2])


def test_envelope_csvs_keep_ten_significant_digits():
    t = np.array([-0.0, 2.5e-7, 1 / 3, 1e16])
    env = DeltaCdfBounds(t, [0.0, 0.1, 0.2, 0.3], [1e-300, 0.5, 0.5, 1.0])
    lines = [f"{a:.10g},{b:.10g},{c:.10g}" for a, b, c in zip(t, env.lower, env.upper)]
    assert _envelope_csvs(env.t_grid, env.lower, env.upper) == [
        "\n".join(["t,lower,upper", *lines]) + "\n"]
