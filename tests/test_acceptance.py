"""End-to-end acceptance checks for the whole package.

Each test covers one quantitative guarantee at fixed seeds and tolerances and
prints a single verdict line so a full run reads as a checklist. Reference
interval and truth values quoted here are tabulated at one or two decimals;
matches use the half-width of the printed precision where that matters.
"""

import time

import numpy as np
import pytest
from scipy.special import ndtri

from oracles import (
    assignment_coupling_mass,
    coupling_constraints,
    cvar_bounds_by_permutations,
    marginal_bounds_direct,
    mc_qote,
    minimax_delta_grid,
    permutation_couplings,
    random_vertex_cvar,
    raw_coupling_lp,
    raw_shape_rows,
)
from qotepolicy.bounds import (
    AssumptionSet,
    CVaR,
    DeltaCdfBounds,
    QoteBounds,
    _monotone_envelopes,
    default_t_grid,
    functional_bounds,
    invert_bounds,
    makarov_bounds,
)
from qotepolicy.marginals import QuantileCurve, u_grid
from qotepolicy.owl import TrainConfig, cells_from_bound_field, predict_policy, train_owl
from qotepolicy.policy import (
    BoundField,
    TruthField,
    _expression_1,
    _expression_2,
    _expression_3,
    _leading_terms,
    cell_max_regret,
    first_best,
    max_regret,
    mmr_deterministic,
    mmr_stochastic,
    regret_bound_check,
)
from qotepolicy.sim import (
    SUBGROUPS,
    classification_experiment,
    closed_form_truths,
    population_curves,
    subgroup_interval_rows,
    truths_for,
    vote_share_check,
)

# Tabulated reference intervals for the eight subgroup presets at tau = 0.25,
# quoted at the precision shown; the generating grid behind them is not
# reported, so matches are to +-0.3.
REFERENCE_NONE = {
    1: (-5.1, -1.1),
    2: (-4.50, -0.17),
    3: (-4.83, 5.63),
    4: (-3.1, 3.38),
    5: (-3.1, 0.9),
    6: (-4.3, 3.5),
    7: (-3.37, 3.21),
    8: (-8.5, 7.75),
}
REFERENCE_SI = {
    1: (-3.48, -1.84),
    2: (-2.8, -1.19),
    3: (-0.74, 3.91),
    4: (-0.68, 2.54),
    5: (-1.48, 0.16),
    6: (-1.24, 1.92),
    7: (-0.86, 2.17),
    8: (0.38, 6.57),
}

SI_SUBGROUPS = (1, 2, 3, 4, 7, 8)  # presets with rho >= 0


def _verdict(capsys, label, failures, detail):
    ok = not failures
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def interval_rows():
    """Population interval rows at k = 50 shared by the table checks."""
    rows = subgroup_interval_rows(tau=0.25, k=50)
    both = {}
    for sg, tag, lo, up in rows:
        both.setdefault(sg, {})[tag] = (lo, up)
    return both


def test_01_closed_form_truth_suite(capsys):
    # quoted at one decimal -> half-width 0.05; two decimals -> 0.01
    quoted = {
        2: ((-2.09, 0.01), (3.7, 0.05), (1.0, 0.01)),
        3: ((1.1, 0.05), (5.35, 0.01), (4.0, 0.01)),
        5: ((-1.43, 0.01), (-0.35, 0.01), (1.0, 0.01)),
    }
    failures = []
    t0 = time.perf_counter()
    worst = 0.0
    for sg, specs in quoted.items():
        t = closed_form_truths(SUBGROUPS[sg], 0.25)
        for name, got, (ref, tol) in zip(
            ("qote", "qte", "ate"), (t.qote, t.qte, t.ate), specs
        ):
            dev = abs(got - ref)
            worst = max(worst, dev)
            if dev > tol:
                failures.append(f"sg{sg} {name}: {got:.4f} vs {ref} (tol {tol})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"closed forms took {elapsed:.2f} s (limit 1 s)")
    # subgroups whose quoted cells are unreliable go against the joint-draw
    # oracle instead
    for sg in (1, 4):
        c = closed_form_truths(SUBGROUPS[sg], 0.25).qote
        m = mc_qote(SUBGROUPS[sg], 0.25, 2_000_000, 0)
        if abs(c - m) > 0.01:
            failures.append(f"sg{sg} closed {c:.4f} vs oracle {m:.4f}")
    _verdict(
        capsys,
        "acceptance 01 closed-form truths",
        failures,
        f"worst table dev {worst:.4f}, closed forms {elapsed*1e3:.0f} ms",
    )


def test_02_oracle_agreement(capsys):
    failures = []
    t0 = time.perf_counter()
    worst = 0.0
    for sg in range(1, 8):
        for tau in (0.25, 0.5, 0.75):
            c = closed_form_truths(SUBGROUPS[sg], tau).qote
            m = mc_qote(SUBGROUPS[sg], tau, 2_000_000, 0)
            dev = abs(c - m)
            worst = max(worst, dev)
            if dev >= 0.01:
                failures.append(f"sg{sg} tau {tau}: dev {dev:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f} s (limit 30 s)")
    _verdict(
        capsys,
        "acceptance 02 closed form vs oracle",
        failures,
        f"21 combinations, worst dev {worst:.5f}, {elapsed:.1f} s",
    )


def test_03_quantile_bound_conformance(capsys, interval_rows):
    failures = []
    worst = 0.0
    for sg in range(1, 8):
        d = SUBGROUPS[sg]
        s1, s0 = np.sqrt(d.var1), np.sqrt(d.var0)
        q1, q0 = population_curves(d, 20_000)
        for tau in (0.25, 0.5, 0.75):
            b = makarov_bounds(q1, q0, tau)
            lo, up = marginal_bounds_direct(
                lambda u: d.mu1 + s1 * ndtri(u),
                lambda u: d.mu0 + s0 * ndtri(u),
                tau,
            )
            dev = max(abs(b.lower - lo), abs(b.upper - up))
            worst = max(worst, dev)
            if dev > 0.02:
                failures.append(f"sg{sg} tau {tau}: dev {dev:.4f}")
    worst_tab = 0.0
    for sg, (ref_lo, ref_up) in REFERENCE_NONE.items():
        lo, up = interval_rows[sg]["none"]
        dev = max(abs(lo - ref_lo), abs(up - ref_up))
        worst_tab = max(worst_tab, dev)
        if dev > 0.3:
            failures.append(f"sg{sg} table: ({lo:.2f}, {up:.2f}) vs ({ref_lo}, {ref_up})")
    _verdict(
        capsys,
        "acceptance 03 marginal-formula bounds",
        failures,
        f"worst oracle dev {worst:.2e} at k=20000, worst table dev {worst_tab:.3f}",
    )


def test_04_lp_sharpness(capsys):
    failures = []
    rng = np.random.default_rng(7)
    k = 50
    z = ndtri(u_grid(k))
    worst_steps = 0.0
    for spec in range(20):
        mu1, mu0 = rng.uniform(-2, 2, size=2)
        s1, s0 = rng.uniform(0.5, 2.0, size=2)
        tau = rng.uniform(0.1, 0.9)
        q1 = QuantileCurve(u_grid(k), mu1 + s1 * z)
        q0 = QuantileCurve(u_grid(k), mu0 + s0 * z)
        stair = makarov_bounds(q1, q0, tau)
        grid = default_t_grid(q1.values, q0.values, 61)
        step = float(grid[1] - grid[0])
        # envelopes over all couplings, each value an exact assignment
        # problem, assembled and inverted as the package assembles and
        # inverts its own
        masses = [
            [assignment_coupling_mass(q1.values, q0.values, float(t), sense) for t in grid]
            for sense in ("min", "max")
        ]
        lp = invert_bounds(DeltaCdfBounds(grid, *_monotone_envelopes(*masses)), tau)
        dev = max(abs(lp.lower - stair.lower), abs(lp.upper - stair.upper))
        worst_steps = max(worst_steps, dev / step)
        if dev > step + 1e-9:
            failures.append(f"spec {spec}: dev {dev:.4f} vs step {step:.4f}")
    # tiny-grid LP and assignment oracle against full vertex enumeration of
    # the coupling polytope
    worst_vertex = 0.0
    rng = np.random.default_rng(21)
    perms = [np.asarray(c) for c in permutation_couplings(3)]
    for trial in range(5):
        v1 = np.sort(rng.normal(0.5, 1.0, size=3))
        v0 = np.sort(rng.normal(size=3))
        diffs = v1[:, None] - v0[None, :]
        for t in np.quantile(diffs, (0.2, 0.5, 0.8)):
            masses = [float((c * (diffs <= t)).sum()) for c in perms]
            for sense, ref in (("min", min(masses)), ("max", max(masses))):
                got, _ = raw_coupling_lp(v1, v0, float(t), sense)
                worst_vertex = max(worst_vertex, abs(got - ref))
                if abs(got - ref) > 1e-7:
                    failures.append(f"k=3 {sense} at t={t:.3f}: {got} vs {ref}")
                exact = assignment_coupling_mass(v1, v0, float(t), sense)
                if abs(exact - ref) > 1e-12:
                    failures.append(f"k=3 assignment {sense} at t={t:.3f}: {exact} vs {ref}")
    _verdict(
        capsys,
        "acceptance 04 coupling-LP sharpness",
        failures,
        f"worst {worst_steps:.3f} grid steps over 20 specs, "
        f"k=3 vertex dev {worst_vertex:.1e}",
    )


def test_05_si_nesting_and_coverage(capsys, interval_rows):
    failures = []
    worst_tab = 0.0
    for sg in range(1, 9):
        lo_n, up_n = interval_rows[sg]["none"]
        lo_s, up_s = interval_rows[sg]["SI"]
        # the SI inversion snaps to a 201-point grid spanning the padded
        # unrestricted interval; one step of slack on the snapped side
        step = ((up_n - lo_n) * 1.5 + 2e-6) / 200
        if not (lo_n <= lo_s + 1e-6 and up_s <= up_n + step + 1e-6):
            failures.append(f"sg{sg}: SI ({lo_s:.3f}, {up_s:.3f}) not inside ({lo_n:.3f}, {up_n:.3f})")
        ref_lo, ref_up = REFERENCE_SI[sg]
        dev = max(abs(lo_s - ref_lo), abs(up_s - ref_up))
        worst_tab = max(worst_tab, dev)
        if dev > 0.3:
            failures.append(f"sg{sg} SI table: ({lo_s:.2f}, {up_s:.2f}) vs ({ref_lo}, {ref_up})")
        if sg in SI_SUBGROUPS:
            truth = truths_for(SUBGROUPS[sg], 0.25).qote
            if not (lo_s - step - 1e-6 <= truth <= up_s + 1e-6):
                failures.append(f"sg{sg}: truth {truth:.3f} outside SI ({lo_s:.3f}, {up_s:.3f})")
    _verdict(
        capsys,
        "acceptance 05 SI nesting and coverage",
        failures,
        f"8 subgroups at k=50, worst SI table dev {worst_tab:.3f}",
    )


def test_06_regret_expression_identity(capsys):
    failures = []
    rng = np.random.default_rng(11)
    w1 = np.ones(1)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10_000):
        if i % 97 == 0:
            width = rng.uniform(0, 10)
            lo, up = (0.0, width) if i % 2 else (-width, 0.0)
        else:
            lo = rng.uniform(-10, 10)
            up = lo + rng.uniform(0, 10)
        d = np.array([rng.uniform()])
        a, b = np.array([lo]), np.array([up])
        e1 = _expression_1(w1, a, b, d)
        e2 = _expression_2(w1, a, b, d)
        e3 = _expression_3(w1, a, b, d)
        dev = max(abs(e1 - e2), abs(e1 - e3))
        worst = max(worst, dev)
        if dev > 1e-10:
            failures.append(f"instance {i}: ({lo:.3f}, {up:.3f}) d={float(d):.3f} dev {dev:.2e}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f} s (limit 5 s)")
    _verdict(
        capsys,
        "acceptance 06 max-regret expressions",
        failures,
        f"10000 instances, worst dev {worst:.1e}, {elapsed:.1f} s",
    )


def test_07_minimax_rules_attain_grid_minimum(capsys):
    failures = []
    rng = np.random.default_rng(13)
    for i in range(10_000):
        lo = rng.uniform(-10, 10)
        up = lo + rng.uniform(0, 10)
        b = QoteBounds(lower=lo, upper=up)
        s = mmr_stochastic(b)
        dt = mmr_deterministic(b)
        arg, val = minimax_delta_grid(lo, up, 0.001)
        if cell_max_regret(b, s) > val + 1e-9:
            failures.append(f"stochastic beaten by grid at ({lo:.3f}, {up:.3f})")
            break
        best_det = min(cell_max_regret(b, 0.0), cell_max_regret(b, 1.0))
        if cell_max_regret(b, dt) > best_det + 1e-12:
            failures.append(f"deterministic suboptimal at ({lo:.3f}, {up:.3f})")
            break
        # the minimizer is unique only on strict straddles
        if lo < 0 < up and abs(s - arg) > 0.001 + 1e-12:
            failures.append(f"argmin off by {abs(s - arg):.4f} at ({lo:.3f}, {up:.3f})")
            break
    _verdict(
        capsys,
        "acceptance 07 minimax vs grid brute force",
        failures,
        "10000 bounds, delta step 0.001",
    )


def test_08_leading_term_properties(capsys):
    failures = []
    rng = np.random.default_rng(17)
    w1 = np.ones(1)
    # zero off straddles and at degenerate width
    for i in range(2_000):
        kind = i % 3
        if kind == 0:
            lo = rng.uniform(0, 5)
            up = lo + rng.uniform(0, 5)
        elif kind == 1:
            up = -rng.uniform(0, 5)
            lo = up - rng.uniform(0, 5)
        else:
            lo = up = rng.uniform(-5, 5)
        lt_s, lt_d = _leading_terms(w1, np.array([lo]), np.array([up]))
        if abs(lt_s) > 1e-12 or abs(lt_d) > 1e-12:
            failures.append(f"nonzero terms at ({lo:.3f}, {up:.3f})")
            break
    # ordering and domination by either rule's worst interior truth
    worst_gap = 0.0
    for i in range(10_000):
        lo = rng.uniform(-10, 0)
        up = rng.uniform(0, 10)
        lt_s, lt_d = _leading_terms(w1, np.array([lo]), np.array([up]))
        if lt_s > lt_d + 1e-12:
            failures.append(f"stochastic term above deterministic at ({lo:.3f}, {up:.3f})")
            break
        b = QoteBounds(lower=lo, upper=up)
        truths = np.linspace(lo, up, 201)
        for delta, term in ((mmr_stochastic(b), lt_s), (mmr_deterministic(b), lt_d)):
            regret = np.where(truths >= 0, (1 - delta) * truths, -delta * truths)
            gap = float(regret.max()) - term
            worst_gap = max(worst_gap, gap)
            if gap > 1e-9:
                failures.append(f"regret {regret.max():.6f} above term {term:.6f} at ({lo:.3f}, {up:.3f})")
                break
    # the packaged population check agrees
    for i in range(100):
        lo = rng.uniform(-5, 0)
        up = rng.uniform(0, 5)
        truth = rng.uniform(lo, up)
        report = regret_bound_check(
            BoundField((((0.0,), 1.0, QoteBounds(lower=lo, upper=up)),)),
            TruthField((((0.0,), truth),)),
        )
        if not report.satisfied:
            failures.append(f"regret_bound_check violated at ({lo:.3f}, {up:.3f}), truth {truth:.3f}")
            break
    _verdict(
        capsys,
        "acceptance 08 leading-term properties",
        failures,
        f"worst truth-grid gap {worst_gap:.1e}",
    )


def test_09_desk_scale_replication(capsys):
    failures = []
    t0 = time.perf_counter()
    sg1 = classification_experiment(SUBGROUPS[1], 0.25, n=1000, reps=200, seed=0)
    for est in ("mmr_determ_SI", "mmr_determ_none", "ate"):
        rate = sg1.value(est, "qote")
        if rate < 0.95:
            failures.append(f"sg1 {est}: {rate:.3f} < 0.95")
    qte_rate = sg1.value("qte", "qote")
    if qte_rate > 0.10:
        failures.append(f"sg1 qte: {qte_rate:.3f} > 0.10")
    sg8 = classification_experiment(SUBGROUPS[8], 0.25, n=1000, reps=200, seed=0)
    si8 = sg8.value("mmr_determ_SI", "qote")
    ate8 = sg8.value("ate", "qote")
    if si8 < 0.95:
        failures.append(f"sg8 SI rule: {si8:.3f} < 0.95")
    if ate8 > 0.10:
        failures.append(f"sg8 mean rule: {ate8:.3f} > 0.10")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        failures.append(f"took {elapsed:.0f} s (limit 600 s)")
    _verdict(
        capsys,
        "acceptance 09 replication at desk scale",
        failures,
        f"sg1 rates {sg1.value('mmr_determ_SI', 'qote'):.2f}/"
        f"{sg1.value('mmr_determ_none', 'qote'):.2f}/{sg1.value('ate', 'qote'):.2f}, "
        f"qte {qte_rate:.3f}; sg8 SI {si8:.2f}, mean {ate8:.3f}; {elapsed:.0f} s",
    )


def _sine_cells(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    q = np.sin(2 * np.pi * x)
    return tuple(
        ((float(xi),), float(abs(qi)), 1.0 if qi >= 0 else -1.0)
        for xi, qi in zip(x, q)
    )


def test_10_learner_properties(capsys):
    failures = []
    # objective trace never increases
    _, trace = train_owl(_sine_cells(100, 0), TrainConfig(max_epochs=300))
    if np.any(np.diff(trace) > 1e-9):
        failures.append("objective trace increased")
    # separable clusters are classified exactly
    rng = np.random.default_rng(3)
    xl = rng.uniform(-2.0, -1.0, size=20)
    xr = rng.uniform(1.0, 2.0, size=20)
    cells = tuple(((float(v),), 1.0, -1.0) for v in xl) + tuple(
        ((float(v),), 1.0, 1.0) for v in xr
    )
    f, _ = train_owl(cells, TrainConfig(lam=0.05, max_epochs=600))
    xs = np.array([c[0] for c in cells])
    labels = np.array([c[2] for c in cells])
    miscls = int(np.sum(np.where(f(xs) >= 0, 1.0, -1.0) != labels))
    if miscls:
        failures.append(f"{miscls} separable points misclassified")
    # hinge surrogate dominates the 0-1 regret cell by cell
    rng = np.random.default_rng(7)
    n = 30
    lo = rng.uniform(-3, 1, size=n)
    up = lo + rng.uniform(0, 3, size=n)
    field = BoundField(
        tuple(
            ((float(x),), 1.0 / n, QoteBounds(lower=float(l), upper=float(u)))
            for x, l, u in zip(np.linspace(-1, 1, n), lo, up)
        )
    )
    fcells = cells_from_bound_field(field)
    f2, _ = train_owl(fcells, TrainConfig(max_epochs=100))
    straddle_term = np.minimum(np.maximum(up, 0.0), np.maximum(-lo, 0.0)) * (
        (lo < 0) & (0 < up)
    )
    for (x, wq, label), extra, (l, u) in zip(fcells, straddle_term, zip(lo, up)):
        val = float(f2(np.array([x]))[0])
        action = 1.0 if val >= 0 else 0.0
        zero_one = cell_max_regret(QoteBounds(lower=float(l), upper=float(u)), action)
        hinge = max(1.0 - label * val, 0.0)
        if zero_one > wq * hinge + extra + 1e-10:
            failures.append(f"cell at x={x}: 0-1 {zero_one:.4f} above surrogate")
            break
    # generalization improves with the training size
    grid_x = np.linspace(-1, 1, 401)
    qgrid = np.sin(2 * np.pi * grid_x)
    eval_field = BoundField(
        tuple(
            ((float(g),), 1.0 / 401, QoteBounds(lower=float(q), upper=float(q)))
            for g, q in zip(grid_x, qgrid)
        )
    )
    medians = []
    for n_train in (100, 400, 1600):
        vals = []
        for seed in range(20):
            f3, _ = train_owl(
                _sine_cells(n_train, seed), TrainConfig(max_epochs=400)
            )
            policy = predict_policy(f3, grid_x[:, None])
            vals.append(max_regret(policy, eval_field).max_regret)
        medians.append(float(np.median(vals)))
    if not (medians[0] >= medians[1] - 1e-12 and medians[1] >= medians[2] - 1e-12):
        failures.append(f"median regret not nonincreasing: {medians}")
    _verdict(
        capsys,
        "acceptance 10 learner properties",
        failures,
        "median regret at n=100/400/1600: "
        + "/".join(f"{m:.4f}" for m in medians),
    )


def test_11_conditional_mean_functionals(capsys):
    failures = []
    rng = np.random.default_rng(42)
    a_eq, b_eq = coupling_constraints(4)
    a_le, b_le = raw_shape_rows(4, "SI")
    perms = [np.asarray(c) for c in permutation_couplings(4)]
    worst = 0.0
    for trial in range(20):
        v1 = np.sort(rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=4))
        v0 = np.sort(rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=4))
        diffs = np.sort((v1[:, None] - v0[None, :]).ravel())
        mids = (diffs[:-1] + diffs[1:]) / 2
        thr = None
        for cand in mids[6:]:
            event = (v1[:, None] - v0[None, :]) < cand
            if min(float((c * event).sum()) for c in perms) >= 0.25 - 1e-12:
                thr = float(cand)
                break
        if thr is None:
            failures.append(f"trial {trial}: no usable threshold")
            continue
        q1 = QuantileCurve(u_grid(4), v1)
        q0 = QuantileCurve(u_grid(4), v0)
        iv_n = functional_bounds(q1, q0, AssumptionSet(), CVaR(thr), k=4)
        ref_lo, ref_hi = cvar_bounds_by_permutations(v1, v0, thr)
        iv_s = functional_bounds(q1, q0, AssumptionSet("SI"), CVaR(thr), k=4)
        olo, ohi, _ = random_vertex_cvar(
            v1, v0, thr, a_eq, b_eq, a_le, b_le, nobj=200, seed=trial
        )
        dev = max(
            abs(iv_n.lower - ref_lo),
            abs(iv_n.upper - ref_hi),
            abs(iv_s.lower - olo),
            abs(iv_s.upper - ohi),
        )
        worst = max(worst, dev)
        if dev > 0.02:
            failures.append(f"trial {trial}: dev {dev:.4f}")
        if iv_s.lower < iv_n.lower - 1e-9 or iv_s.upper > iv_n.upper + 1e-9:
            failures.append(f"trial {trial}: SI interval escapes the unrestricted one")
    _verdict(
        capsys,
        "acceptance 11 tail-mean bounds",
        failures,
        f"20 instances at k=4, worst brute-force dev {worst:.1e}",
    )


def test_12_first_best_wins_the_vote(capsys):
    failures = []
    ndraws = 1_000_000
    margins = []
    for sg in (1, 2, 3, 4, 5):
        dgp = SUBGROUPS[sg]
        truth = closed_form_truths(dgp, 0.5).qote
        star = first_best(TruthField((((), truth),)))
        a_star = star.cells[0][1]
        share_star = vote_share_check(dgp, a_star, ndraws=ndraws, seed=100 + sg)
        # 500 threshold rules on a covariate independent of the effect
        rng = np.random.default_rng(200 + sg)
        z = rng.standard_normal((ndraws, 2))
        y1 = dgp.mu1 + np.sqrt(dgp.var1) * z[:, 0]
        y0 = dgp.mu0 + np.sqrt(dgp.var0) * (
            dgp.rho * z[:, 0] + np.sqrt(1 - dgp.rho**2) * z[:, 1]
        )
        delta = y1 - y0
        b1 = (delta > 0).astype(float)
        b0 = (delta < 0).astype(float)
        x = rng.standard_normal(ndraws)
        order = np.argsort(x)
        gain = (b1 - b0)[order]
        suffix = np.concatenate([np.cumsum(gain[::-1])[::-1], [0.0]])
        base0 = float(np.mean(b0))
        cuts = rng.uniform(-2.5, 2.5, size=500)
        flip = rng.random(500) < 0.5
        pos = np.searchsorted(np.sort(x), cuts)
        shares = base0 + suffix[pos] / ndraws
        shares[flip] = base0 + (suffix[0] - suffix[pos[flip]]) / ndraws
        best_rand = float(shares.max())
        margins.append(share_star - best_rand)
        if share_star < best_rand - 0.002:
            failures.append(
                f"sg{sg}: first best {share_star:.4f} below best random {best_rand:.4f}"
            )
    _verdict(
        capsys,
        "acceptance 12 first-best vote share",
        failures,
        "margins over 500 rules: "
        + ", ".join(f"{m:+.4f}" for m in margins),
    )
