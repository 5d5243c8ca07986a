import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from oracles import assert_only_kept_threads_started, joint_draws, mc_qote, mp_lognormal_qote
from qotepolicy import bounds, sim
from qotepolicy.bounds import (
    DeltaCdfBounds,
    _Envelopes,
    _monotone_envelopes,
    _staircase_qote,
    default_t_grid,
    invert_bounds,
)
from qotepolicy.marginals import make_y_grid
from qotepolicy.policy import mmr_deterministic
from qotepolicy.sim import (
    CRITERIA,
    ESTIMATORS,
    SUBGROUPS,
    DgpSpec,
    _si_majority_action,
    classification_experiment,
    closed_form_truths,
    draw_sample,
    exact_qote,
    population_curves,
    regret_experiment,
    subgroup_interval_rows,
    truths_for,
    vote_share_check,
)


def test_dgp_spec_validation():
    with pytest.raises(ValueError, match="variances"):
        DgpSpec(0.0, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="rho"):
        DgpSpec(0.0, 0.0, 1.0, 1.0, 1.5)
    with pytest.raises(ValueError, match="p_treat"):
        DgpSpec(0.0, 0.0, 1.0, 1.0, 0.0, p_treat=1.0)


@pytest.mark.parametrize("field", ["mu1", "mu0", "var1", "var0", "rho", "p_treat"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dgp_spec_rejects_non_finite_fields(field, value):
    fields = {"mu1": 1.0, "mu0": 0.0, "var1": 1.0, "var0": 1.0, "rho": 0.5, "p_treat": 0.5}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DgpSpec(**{**fields, field: value})


def test_closed_form_truths_frozen_values():
    # quantile of the difference: mu-gap + z * sqrt(v1 + v0 - 2 rho s1 s0)
    cases = {
        1: (-2.784532, 0.348980, -1.0, True),
        2: (-2.090900, 3.697959, 1.0, True),
        3: (1.059967, 5.348980, 4.0, True),
        4: (-0.023469, 2.0, 2.0, True),
        5: (-1.431907, -0.348980, 1.0, False),
        6: (-1.212187, 0.976531, 3.0, False),
        7: (0.301257, 1.441234, 2.0, True),
    }
    for sg, (qote, qte, ate, si) in cases.items():
        t = closed_form_truths(SUBGROUPS[sg], 0.25)
        assert t.qote == pytest.approx(qote, abs=1e-5)
        assert t.qte == pytest.approx(qte, abs=1e-5)
        assert t.ate == pytest.approx(ate, abs=1e-12)
        assert t.si_holds == si


def test_closed_form_truths_median_case():
    t = closed_form_truths(SUBGROUPS[1], 0.5)
    assert t.qote == -1.0 and t.qte == -1.0 and t.ate == -1.0


def test_closed_form_rejects_lognormal():
    with pytest.raises(ValueError, match="exact_qote's quadrature"):
        closed_form_truths(SUBGROUPS[8], 0.25)
    with pytest.raises(ValueError, match="tau"):
        closed_form_truths(SUBGROUPS[1], 0.0)


def test_lognormal_truths_use_exact_transforms():
    t = truths_for(SUBGROUPS[8], 0.25)
    assert t.qte == pytest.approx(7.631102, abs=1e-5)
    assert t.ate == pytest.approx(-190.093782, abs=1e-5)
    assert repr(t.qote) == SUBGROUP8_QOTE[0.25]
    assert t.si_holds


# exact_qote on subgroup 8; the 2M-draw oracle reads -0.0532, 4.0920, 12.2236,
# 31.3961 and 70.3984 (test_mc_oracle_values_are_pinned)
SUBGROUP8_QOTE = {
    0.1: "-0.10945773898094872",
    0.25: "4.07617100127644",
    0.5: "12.2101298704017",
    0.75: "31.427878198114538",
    0.9: "70.41361204571267",
}
# the same from scipy's quad per stretch and a Brent search to 1e-13, before
# the vectorised Gauss-Kronrod pass: the baseline of the reference gate
SUBGROUP8_QOTE_BY_QUAD = {
    0.1: "-0.1094577389809735",
    0.25: "4.076171001276442",
    0.5: "12.210129870401508",
    0.75: "31.42787819811451",
    0.9: "70.41361204571267",
}
# oracles.mp_lognormal_qote at 40 digits
SUBGROUP8_QOTE_MPMATH = {
    0.1: "-0.1094577389809549473385047",
    0.25: "4.076171001276440727957681",
    0.5: "12.2101298704017022250493",
    0.75: "31.42787819811451400576871",
    0.9: "70.41361204571273429975714",
}


def test_exact_qote_values_are_pinned():
    got = {tau: repr(exact_qote.__wrapped__(SUBGROUPS[8], tau)) for tau in SUBGROUP8_QOTE}
    assert got == SUBGROUP8_QOTE
    for tau in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="tau must lie"):
            exact_qote(SUBGROUPS[8], tau)


def test_the_mpmath_reference_is_recomputed_live():
    got = mp_lognormal_qote(SUBGROUPS[8], 0.25, float(SUBGROUP8_QOTE[0.25]))
    assert mpmath.nstr(got, 25) == SUBGROUP8_QOTE_MPMATH[0.25]


def test_the_pins_are_as_close_to_the_mpmath_reference_as_quad_was():
    # subgroup 8's density at tau 0.25, 0.5 and 0.75 is 0.041, 0.022 and
    # 0.0075, so one ulp of the quantile needs the CDF to 3.6e-17, 4.0e-17 and
    # 2.7e-17: at or below the spacing of doubles near 0.25 and 0.75. So a
    # pin may miss by 2e-15 max(1, |ref|) where quad's missed by less, but the
    # worst relative miss may not grow.
    def miss(pins, tau):  # relative to max(1, |ref|)
        ref = mpmath.mpf(SUBGROUP8_QOTE_MPMATH[tau])
        return float(abs(mpmath.mpf(float(pins[tau])) - ref) / max(1, abs(ref)))

    for tau in SUBGROUP8_QOTE_MPMATH:
        assert miss(SUBGROUP8_QOTE, tau) <= max(miss(SUBGROUP8_QOTE_BY_QUAD, tau), 2e-15), tau
    assert max(miss(SUBGROUP8_QOTE, tau) for tau in SUBGROUP8_QOTE_MPMATH) <= max(
        miss(SUBGROUP8_QOTE_BY_QUAD, tau) for tau in SUBGROUP8_QOTE_MPMATH
    )


# |rho| = 1, and |rho| so near 1 that the integrand steps within 1e-3 in z0
NORMAL_EDGE_SPECS = [
    DgpSpec(1.0, 0.0, 1.0, 4.0, 1.0),
    DgpSpec(1.0, 0.0, 1.0, 4.0, -1.0),
    DgpSpec(1.0, 0.0, 1.0, 2.0, 1 - 1e-7),
    DgpSpec(1.0, 0.0, 1.0, 2.0, -1 + 1e-12),
]


@pytest.mark.parametrize("dgp", [SUBGROUPS[sg] for sg in range(1, 8)] + NORMAL_EDGE_SPECS)
def test_exact_qote_matches_the_closed_form_on_normal_specs(dgp):
    for tau in (0.1, 0.25, 0.5, 0.75, 0.9):
        got = exact_qote.__wrapped__(dgp, tau)
        assert got == pytest.approx(closed_form_truths(dgp, tau).qote, abs=1e-9)


def test_exact_qote_median_of_iid_lognormals_is_zero():
    assert abs(exact_qote(DgpSpec(0.5, 0.5, 2.0, 2.0, 0.0, lognormal=True), 0.5)) <= 1e-9


@pytest.mark.parametrize(
    "dgp",
    [
        SUBGROUPS[8],
        DgpSpec(1.0, 0.0, 1.0, 2.0, 1.0, lognormal=True),
        DgpSpec(1.0, 0.0, 1.0, 2.0, -1.0, lognormal=True),
        # rho = 1 with var1 > var0: Y1 - Y0 turns once, at z0 = 1 - log 2
        DgpSpec(0.0, 1.0, 4.0, 1.0, 1.0, lognormal=True),
        DgpSpec(0.0, 1.0, 4.0, 1.0, 1 - 1e-9, lognormal=True),
        DgpSpec(1.0, 0.0, 100.0, 400.0, 0.5, lognormal=True),
    ],
    ids=["subgroup8", "rho+1", "rho-1", "rho+1-turning", "rho-near-1", "large-variance"],
)
def test_exact_qote_passes_a_fresh_monte_carlo_cdf_check(dgp):
    # a CDF check, not a quantile one: it holds where the density is small
    ndraws = 400_000
    y1, y0 = joint_draws(dgp, ndraws, seed=2023)
    delta = y1 - y0
    for tau in (0.1, 0.25, 0.5, 0.75, 0.9):
        q = exact_qote.__wrapped__(dgp, tau)
        assert math.isfinite(q)
        share = float(np.mean(delta <= q))
        assert abs(share - tau) <= 4 * math.sqrt(tau * (1 - tau) / ndraws), (tau, q, share)


def test_exact_qote_raises_instead_of_returning_a_non_finite_value(monkeypatch):
    with pytest.raises(ValueError, match="overflow"):
        exact_qote(DgpSpec(0.0, 0.0, 1e6, 1.0, 0.5, lognormal=True), 0.5)
    point_mass = DgpSpec(1.0, 0.0, 1.0, 2.0, 1.0, lognormal=True)
    real = scipy.optimize.brentq
    with monkeypatch.context() as m:
        m.setattr(scipy.optimize, "brentq", lambda *a, **kw: real(*a, **{**kw, "maxiter": 2}))
        for dgp in (SUBGROUPS[8], point_mass):
            with pytest.raises(ValueError, match="did not converge"):
                exact_qote.__wrapped__(dgp, 0.25)
    monkeypatch.setattr(sim, "_QUAD_TOL", 1e-300)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="quadrature error estimate"):
            exact_qote.__wrapped__(SUBGROUPS[8], 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6  # the panel cap bounds a subdivision that cannot meet its budget


def test_exact_qote_of_a_near_degenerate_lognormal_spec_is_its_linearisation():
    # log-scale sds 1e-7: Y1 - Y0 = e - 1 + 1e-7 (e Z1 - Z0) up to 1e-13, a
    # law too narrow for the quadrature; corr(Z1, Z0) = 0.5
    from scipy.special import ndtri

    e = math.e
    linear = (e - 1) + 1e-7 * float(ndtri(0.25)) * math.sqrt(e * e - e + 1)
    got = exact_qote.__wrapped__(DgpSpec(1.0, 0.0, 1e-14, 1e-14, 0.5, lognormal=True), 0.25)
    assert abs(got - linear) <= 1e-12
    # sds 1e-6: the quadrature resolves the law and lands within 1e-12 of its
    # linearisation too
    linear = (e - 1) + 1e-6 * float(ndtri(0.25)) * math.sqrt(e * e - e + 1)
    got = exact_qote.__wrapped__(DgpSpec(1.0, 0.0, 1e-12, 1e-12, 0.5, lognormal=True), 0.25)
    assert got != linear and abs(got - linear) <= 1e-12


def test_mc_oracle_agrees_with_independent_draws():
    # the test oracle, on a spec where the closed form is exact
    d = SUBGROUPS[2]
    truth = closed_form_truths(d, 0.25).qote
    assert mc_qote(d, 0.25, 500_000, 123) == pytest.approx(truth, abs=0.02)


def test_mc_oracle_values_are_pinned():
    # the 2M-draw test oracle on subgroup 8, bit for bit
    want = {
        0.1: "-0.053204515335918856",
        0.25: "4.092011836039071",
        0.5: "12.223577313087512",
        0.75: "31.39605398321976",
        0.9: "70.39842263488299",
    }
    got = {tau: repr(mc_qote(SUBGROUPS[8], tau, 2_000_000, 0)) for tau in want}
    assert got == want


def test_draw_sample_reproducible_and_shaped():
    d = SUBGROUPS[1]
    s1 = draw_sample(d, 50, (0, 1))
    s2 = draw_sample(d, 50, (0, 1))
    assert_allclose(s1.y, s2.y)
    assert np.array_equal(s1.d, s2.d)
    assert s1.x.shape == (50, 0)
    s3 = draw_sample(d, 50, (0, 2))
    assert not np.allclose(s1.y, s3.y)
    with pytest.raises(ValueError, match="n must be"):
        draw_sample(d, 0, 0)


def test_lognormal_samples_are_positive():
    s = draw_sample(SUBGROUPS[8], 200, 0)
    assert np.all(s.y > 0)


def test_population_curves_match_the_quantile_transform():
    from scipy.special import ndtri

    q1, q0 = population_curves(SUBGROUPS[1], 9)
    u = q1.u_grid
    assert_allclose(q1.values, 2.0 + 1.0 * ndtri(u), atol=1e-12)
    assert_allclose(q0.values, 3.0 + 3.0 * ndtri(u), atol=1e-12)
    g1, _ = population_curves(SUBGROUPS[8], 9)
    assert_allclose(g1.values, np.exp(3.0 + np.sqrt(2.0) * ndtri(u)), rtol=1e-12)


def test_classification_experiment_rates_and_determinism():
    d = SUBGROUPS[1]
    table = classification_experiment(d, 0.25, n=60, reps=4, seed=3, k=12)
    again = classification_experiment(d, 0.25, n=60, reps=4, seed=3, k=12)
    assert table.rows == again.rows
    for est in ESTIMATORS:
        for crit in CRITERIA:
            v = table.value(est, crit)
            assert 0.0 <= v <= 1.0
            assert v * 4 == pytest.approx(round(v * 4))  # multiples of 1/reps
    with pytest.raises(KeyError):
        table.value("mmr_determ_none", "median")


def test_stochastic_rows_equal_deterministic_rows():
    table = classification_experiment(SUBGROUPS[4], 0.25, n=80, reps=6, seed=1, k=12)
    for crit in CRITERIA:
        assert table.value("mmr_stoch_SI", crit) == table.value("mmr_determ_SI", crit)
        assert table.value("mmr_stoch_none", crit) == table.value(
            "mmr_determ_none", crit
        )


def test_regret_experiment_is_magnitude_times_mismatch():
    d = SUBGROUPS[2]
    rates = classification_experiment(d, 0.25, n=60, reps=5, seed=2, k=12)
    regs = regret_experiment(d, 0.25, n=60, reps=5, seed=2, k=12)
    truths = closed_form_truths(d, 0.25)
    mags = {"qote": abs(truths.qote), "qte": abs(truths.qte), "ate": abs(truths.ate)}
    for est in ESTIMATORS:
        for crit in CRITERIA:
            expected = mags[crit] * (1.0 - rates.value(est, crit))
            assert regs.value(est, crit) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("subgroup", [1, 5, 8])
def test_replications_do_not_depend_on_the_worker_count(monkeypatch, subgroup):
    rows = []
    for count in (1, 2):
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: count)
        sim._collected_actions.cache_clear()
        rows.append(
            [
                experiment(SUBGROUPS[subgroup], 0.25, n=200, reps=6, seed=4, k=12).rows
                for experiment in (classification_experiment, regret_experiment)
            ]
        )
    sim._collected_actions.cache_clear()
    assert rows[1] == rows[0]


def test_the_first_failing_replication_in_order_is_raised(monkeypatch):
    # every replication fails; the first waits until a later one has raised
    # on the other thread, and the first is still the one raised
    later_raised = threading.Event()

    def failing(dgp, tau, n, k, seed):
        if seed[1] == 0:
            assert later_raised.wait(timeout=60)
        else:
            later_raised.set()
        raise ValueError(f"replication {seed[1]}")

    monkeypatch.setattr(sim, "_rep_actions", failing)
    monkeypatch.setattr(bounds, "_usable_cpus", lambda: 2)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="replication 0$"):
        classification_experiment(SUBGROUPS[1], 0.25, n=40, reps=3, seed=9, k=4)
    assert later_raised.is_set()
    assert_only_kept_threads_started(before, bounds._helpers.threads, 1)


def test_vote_share_complementary_actions():
    d = SUBGROUPS[1]
    share_treat = vote_share_check(d, 1, ndraws=20_000, seed=5)
    share_none = vote_share_check(d, 0, ndraws=20_000, seed=5)
    assert share_treat + share_none == pytest.approx(1.0, abs=1e-12)
    # delta ~ N(-1, 7): treating everyone benefits Phi(-1/sqrt(7))
    from scipy.special import ndtr

    assert share_treat == pytest.approx(float(ndtr(-1 / np.sqrt(7))), abs=0.01)
    with pytest.raises(ValueError, match="0 or 1"):
        vote_share_check(d, 0.5, ndraws=1000, seed=0)


def test_vote_share_accepts_per_draw_actions():
    d = SUBGROUPS[3]
    rng = np.random.default_rng(0)
    actions = (rng.random(5000) < 0.5).astype(float)
    v = vote_share_check(d, actions, ndraws=5000, seed=9)
    assert 0.0 <= v <= 1.0


def test_si_interval_rows_nest_and_cover_on_a_small_grid():
    rows = dict()
    for sg, tag, lo, up in subgroup_interval_rows(tau=0.25, k=20, subgroups=(1,)):
        rows[tag] = (lo, up)
    lo_n, up_n = rows["none"]
    lo_s, up_s = rows["SI"]
    assert lo_n <= lo_s <= up_s <= up_n
    truth = closed_form_truths(SUBGROUPS[1], 0.25).qote
    assert lo_s - 0.3 <= truth <= up_s + 0.3  # k = 20 discretization slack


@pytest.mark.parametrize("subgroup", [2, 3, 5, 7])
def test_si_majority_action_follows_dense_si_inversion(subgroup):
    for rep in range(6):
        sample = draw_sample(SUBGROUPS[subgroup], 120, (subgroup, rep))
        v1 = make_y_grid(sample.y[sample.d == 1], 10)
        v0 = make_y_grid(sample.y[sample.d == 0], 10)
        t_grid = default_t_grid(v1, v0, 41)
        for tau in (0.25, 0.5):
            env = _Envelopes.of_values(v1, v0, "SI", t_grid)
            lower, upper = _Envelopes.dense_pass([env])[0]
            dense = invert_bounds(DeltaCdfBounds(t_grid, *_monotone_envelopes(lower, upper)), tau)
            action = _si_majority_action(v1, v0, tau, t_grid, _staircase_qote(v1, v0, tau))
            assert action == mmr_deterministic(dense), (rep, tau)
