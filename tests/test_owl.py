import numpy as np
import pytest
from numpy.testing import assert_allclose

from qotepolicy.bounds import QoteBounds
from qotepolicy.owl import (
    DecisionFunction,
    LearnerError,
    TrainConfig,
    cells_from_bound_field,
    decision_function_from_json,
    decision_function_to_json,
    predict_policy,
    surrogate_regret,
    train_owl,
)
from qotepolicy.policy import BoundField, max_regret


def two_point_cells():
    return [((-1.0,), 1.0, -1.0), ((1.0,), 1.0, 1.0)]


def random_cells(n, seed, effect=lambda x: x):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    q = effect(x)
    return [
        ((float(xi),), abs(float(qi)), 1.0 if qi >= 0 else -1.0)
        for xi, qi in zip(x, q)
    ]


def test_separable_pair_reaches_the_analytic_optimum():
    # symmetric two-point problem with lam = 0.1, sigma = 1: the minimizer is
    # alpha = (-a, a) with margin exactly 1, so a = 1/(1 - exp(-4)) and the
    # objective value is 0.2 / (1 - exp(-4))
    config = TrainConfig(lam=0.1, sigma=1.0, max_epochs=5000, tolerance=1e-12)
    f, trace = train_owl(two_point_cells(), config)
    j_star = 0.2 / (1.0 - np.exp(-4.0))
    assert trace[-1] >= j_star - 1e-9  # cannot beat the true optimum
    assert trace[-1] <= j_star + 1e-3
    preds = f(np.array([[-1.0], [1.0]]))
    assert preds[0] < 0 < preds[1]
    a_star = 1.0 / (1.0 - np.exp(-4.0))
    assert_allclose(f.coefficients, [-a_star, a_star], atol=0.05)


def test_trace_is_nonincreasing():
    for seed in (0, 1, 2):
        cells = random_cells(60, seed)
        _, trace = train_owl(cells)
        assert np.all(np.diff(trace) <= 1e-9)


def test_zero_weight_cells_do_not_change_the_fit():
    cells = random_cells(40, 3)
    padded = cells + [((float(v),), 0.0, 1.0) for v in np.linspace(-3, 3, 7)]
    f_base, _ = train_owl(cells)
    f_padded, _ = train_owl(padded)
    grid = np.linspace(-1, 1, 101)[:, None]
    assert np.max(np.abs(f_base(grid) - f_padded(grid))) < 1e-8


def test_nothing_to_learn():
    with pytest.raises(ValueError, match="nothing to learn"):
        train_owl([])
    with pytest.raises(ValueError, match="nothing to learn"):
        train_owl([((0.0,), 0.0, 1.0), ((1.0,), 0.0, -1.0)])


def test_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        train_owl([((0.0,), -1.0, 1.0)])
    with pytest.raises(ValueError, match="labels"):
        train_owl([((0.0,), 1.0, 0.5)])
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            TrainConfig(lam=bad)
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            TrainConfig(sigma=bad)
    # finite, but the kernel's sigma**2 is not
    for big in (1e155, 1e200):
        with pytest.raises(ValueError, match="positive and finite with a finite square"):
            TrainConfig(sigma=big)
    # the default sigma, the inverse median distance, can overflow the same way
    with pytest.raises(ValueError, match="with a finite square"):
        train_owl([((0.0,), 1.0, 1.0), ((1e-160,), 1.0, -1.0)])
    with pytest.raises(ValueError, match="max_epochs"):
        TrainConfig(max_epochs=0)


@pytest.mark.parametrize("lam, message", [
    (1e-320, "overflow encountered in divide"),  # the first step 1/lam is not finite
    (1e308, "invalid value encountered in multiply"),  # 2 lam overflows, times 0
])
def test_training_that_leaves_the_floats_raises_a_learner_error(lam, message):
    # raised at the first epoch, before a coefficient turns non-finite and
    # without a RuntimeWarning, which the test settings make an error
    with pytest.raises(LearnerError, match=f"at epoch 1: {message}"):
        train_owl(two_point_cells(), TrainConfig(lam=lam, max_epochs=50))


def test_huge_regularization_shrinks_f_to_zero():
    cells = random_cells(50, 4)
    f, _ = train_owl(cells, TrainConfig(lam=1e6))
    grid = np.linspace(-1, 1, 51)[:, None]
    assert np.max(np.abs(f(grid))) < 0.05


def test_representer_support_is_the_positive_weight_sample():
    cells = random_cells(30, 5) + [((9.0,), 0.0, 1.0)]
    f, _ = train_owl(cells)
    assert f.support_points.shape == (30, 1)
    assert f.coefficients.shape == (30,)


def test_default_bandwidth_follows_median_distance():
    near = [((x,), 1.0, 1.0 if x >= 0 else -1.0) for x in np.linspace(-0.01, 0.01, 20)]
    far = [((x,), 1.0, 1.0 if x >= 0 else -1.0) for x in np.linspace(-100, 100, 20)]
    f_near, _ = train_owl(near, TrainConfig(max_epochs=5))
    f_far, _ = train_owl(far, TrainConfig(max_epochs=5))
    assert f_near.sigma > f_far.sigma * 100


def test_point_identified_training_recovers_the_bayes_rule():
    cells = random_cells(300, 6)
    f, _ = train_owl(cells)
    xs = np.array([c[0] for c in cells])
    preds = f(xs)
    labels = np.array([c[2] for c in cells])
    weights = np.array([c[1] for c in cells])
    wrong = np.sign(preds) != labels
    assert weights[wrong].sum() / weights.sum() < 0.05


def test_surrogate_dominates_zero_one_regret_cellwise():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = 12
        lo = rng.uniform(-3, 1, size=n)
        up = lo + rng.uniform(0, 3, size=n)
        xs = np.linspace(-1, 1, n)
        field = BoundField(
            tuple(
                ((float(x),), 1.0 / n, QoteBounds(float(l), float(u)))
                for x, l, u in zip(xs, lo, up)
            )
        )
        f, _ = train_owl(cells_from_bound_field(field), TrainConfig(max_epochs=50))
        policy = predict_policy(f, [c[0] for c in field.cells])
        report = max_regret(policy, field)
        assert report.max_regret <= surrogate_regret(f, field) + 1e-10


def test_cells_from_bound_field_signs_and_weights():
    field = BoundField(
        (
            ((0.0,), 0.25, QoteBounds(-1.0, 3.0)),
            ((1.0,), 0.25, QoteBounds(-3.0, 1.0)),
            ((2.0,), 0.25, QoteBounds(2.0, 5.0)),
            ((3.0,), 0.25, QoteBounds(-4.0, -1.0)),
        )
    )
    cells = cells_from_bound_field(field)
    assert cells[0] == ((0.0,), 2.0, 1.0)
    assert cells[1] == ((1.0,), 2.0, -1.0)
    assert cells[2] == ((2.0,), 5.0, 1.0)
    assert cells[3] == ((3.0,), 4.0, -1.0)


def test_predict_policy_dimension_check():
    f, _ = train_owl(two_point_cells(), TrainConfig(max_epochs=3))
    with pytest.raises(ValueError, match="dimension"):
        predict_policy(f, [(0.0, 1.0)])


def test_predict_policy_rejects_non_finite_points():
    # a NaN point gave the cell ((nan,), 0.0)
    f, _ = train_owl(two_point_cells(), TrainConfig(max_epochs=3))
    with pytest.raises(ValueError, match="^covariate points must be finite$"):
        predict_policy(f, [[np.nan], [0.0]])


def test_decision_function_json_round_trip():
    f, _ = train_owl(random_cells(25, 8), TrainConfig(max_epochs=20))
    restored = decision_function_from_json(decision_function_to_json(f))
    grid = np.linspace(-2, 2, 41)[:, None]
    assert_allclose(restored(grid), f(grid), rtol=0, atol=0)
    assert restored.sigma == f.sigma


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_decision_functions_reject_non_finite_support_points(bad):
    # a NaN support point made predict_policy answer "do not treat" everywhere
    with pytest.raises(ValueError, match="^support points must be finite$"):
        DecisionFunction(np.array([[0.0], [bad]]), np.ones(2), 1.0)


def test_decision_function_validation():
    with pytest.raises(ValueError, match="one coefficient"):
        DecisionFunction(np.zeros((3, 1)), np.zeros(2), 1.0)
    for bad in (0.0, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            DecisionFunction(np.zeros((2, 1)), np.zeros(2), bad)
