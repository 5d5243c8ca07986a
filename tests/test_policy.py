import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import minimax_delta_grid
from qotepolicy.bounds import QoteBounds
from qotepolicy.policy import (
    BoundField,
    PolicyField,
    RegretBoundReport,
    TruthField,
    _json_text,
    _regret_report_data,
    cell_max_regret,
    derive_policy,
    first_best,
    max_regret,
    maximin_rule,
    mmr_deterministic,
    mmr_stochastic,
    policy_to_json,
    qbar,
    regret_bound_check,
    true_regret,
)

bounds_strategy = st.tuples(
    st.floats(-10, 10), st.floats(0, 10)
).map(lambda t: QoteBounds(t[0], t[0] + t[1]))


def single_cell_field(lower, upper, x=0.0):
    return BoundField((((x,), 1.0, QoteBounds(lower, upper)),))


# ---------------------------------------------------------------------------
# worked example: bounds (-1, 3), so the straddle case with U > |L|


def test_worked_example_rules():
    b = QoteBounds(-1.0, 3.0)
    assert qbar(b) == 2.0
    assert mmr_stochastic(b) == 0.75
    assert mmr_deterministic(b) == 1.0
    assert maximin_rule(b) == 0.0
    assert cell_max_regret(b, 0.75) == 0.75


def test_worked_example_drawn_regret():
    field = single_cell_field(-1.0, 3.0)
    report = max_regret(PolicyField((((0.0,), 0.75),), kind="stochastic"), field)
    # committed-adversary value is 0.75, but against a drawn action the
    # adversary reacts to the realization: 0.25 * 3 + 0.75 * 1 = 1.5
    assert report.max_regret == pytest.approx(1.5)
    assert report.expressions == pytest.approx((1.5, 1.5, 1.5))
    assert report.leading_term_stochastic == pytest.approx(0.75)
    assert report.leading_term_deterministic == pytest.approx(1.0)


def test_sign_conventions_at_zero():
    # sign(0) = 1 everywhere: ties treat
    assert mmr_deterministic(QoteBounds(-1.0, 1.0)) == 1.0
    assert maximin_rule(QoteBounds(0.0, 2.0)) == 1.0
    assert first_best(TruthField((((0.0,), 0.0),))).deltas()[0] == 1.0


def test_point_identified_cells_collapse_every_rule():
    for q in (-2.0, 0.5):
        b = QoteBounds(q, q)
        want = 1.0 if q >= 0 else 0.0
        assert mmr_stochastic(b) == want
        assert mmr_deterministic(b) == want
        assert maximin_rule(b) == want
        assert qbar(b) == q


def test_one_sided_cells():
    assert mmr_stochastic(QoteBounds(0.0, 3.0)) == 1.0
    assert mmr_stochastic(QoteBounds(-3.0, 0.0)) == 0.0
    assert maximin_rule(QoteBounds(0.5, 3.0)) == 1.0
    assert qbar(QoteBounds(-3.0, -1.0)) == -3.0


# ---------------------------------------------------------------------------
# containers


def test_bound_field_validation():
    single_cell_field(-1.0, 1.0)
    with pytest.raises(ValueError, match="at least one cell"):
        BoundField(())
    with pytest.raises(ValueError, match="sum to 1"):
        BoundField((((0.0,), 0.5, QoteBounds(0.0, 1.0)),))
    with pytest.raises(ValueError, match="nonnegative"):
        BoundField(
            (
                ((0.0,), -0.5, QoteBounds(0.0, 1.0)),
                ((1.0,), 1.5, QoteBounds(0.0, 1.0)),
            )
        )
    with pytest.raises(ValueError, match="finite"):
        BoundField((((0.0,), 1.0, QoteBounds(-np.inf, 1.0)),))
    # a NaN weight fails every comparison, so it must fail the check itself
    with pytest.raises(ValueError, match="finite"):
        BoundField((((0.0,), np.nan, QoteBounds(0.0, 1.0)),))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="points must be finite"):
            BoundField((((bad,), 1.0, QoteBounds(0.0, 1.0)),))
    # one covariate point with two cells would get two deltas
    with pytest.raises(ValueError, match="repeat"):
        BoundField(
            (
                ((0.0, 1.0), 0.5, QoteBounds(0.0, 1.0)),
                ((0.0, 1.0), 0.5, QoteBounds(-1.0, 2.0)),
            )
        )
    with pytest.raises(ValueError, match="one length"):
        BoundField(
            (
                ((0.0,), 0.5, QoteBounds(0.0, 1.0)),
                ((0.0, 1.0), 0.5, QoteBounds(-1.0, 2.0)),
            )
        )


def test_policy_field_validation():
    PolicyField((((0.0,), 0.3),), kind="stochastic")
    with pytest.raises(ValueError, match="kind"):
        PolicyField((((0.0,), 0.3),), kind="soft")
    with pytest.raises(ValueError, match="delta"):
        PolicyField((((0.0,), 1.3),), kind="stochastic")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            PolicyField((((0.0,), bad),), kind="stochastic")
    with pytest.raises(ValueError, match="deterministic"):
        PolicyField((((0.0,), 0.3),), kind="deterministic")


def test_scalar_covariates_become_points():
    field = BoundField(((1.5, 1.0, QoteBounds(0.0, 1.0)),))
    assert field.points() == ((1.5,),)


# ---------------------------------------------------------------------------
# regret calculus


@given(
    st.lists(
        st.tuples(st.floats(-5, 5), st.floats(0, 5), st.floats(0, 1)),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_three_regret_expressions_agree(rows):
    cells = []
    deltas = []
    for i, (lo, width, d) in enumerate(rows):
        cells.append(((float(i),), 1.0 / len(rows), QoteBounds(lo, lo + width)))
        deltas.append(((float(i),), d))
    field = BoundField(tuple(cells))
    policy = PolicyField(tuple(deltas), kind="stochastic")
    report = max_regret(policy, field)
    e1, e2, e3 = report.expressions
    assert e1 == pytest.approx(e2, abs=1e-10)
    assert e1 == pytest.approx(e3, abs=1e-10)
    assert report.max_regret == pytest.approx(e1, abs=1e-12)


@given(bounds_strategy)
@settings(max_examples=100, deadline=None)
def test_minimax_rules_attain_the_grid_minimum(b):
    d_star, value = minimax_delta_grid(b.lower, b.upper, step=0.001)
    # the continuous minimizer can only improve on the grid minimum
    assert cell_max_regret(b, mmr_stochastic(b)) <= value + 1e-9
    if b.lower < 0 < b.upper:
        # strict straddle: the minimizer is unique, so the grid agrees on it
        assert abs(mmr_stochastic(b) - d_star) <= 0.001 + 1e-9


@given(bounds_strategy, st.floats(0.1, 10))
@settings(max_examples=100, deadline=None)
def test_rules_are_scale_equivariant(b, scale):
    scaled = QoteBounds(scale * b.lower, scale * b.upper)
    # a subnormal endpoint scaled to a signed zero is a different input
    assume(np.sign(scaled.lower) == np.sign(b.lower))
    assume(np.sign(scaled.upper) == np.sign(b.upper))
    assert mmr_stochastic(scaled) == pytest.approx(mmr_stochastic(b), abs=1e-12)
    assert mmr_deterministic(scaled) == mmr_deterministic(b)
    assert maximin_rule(scaled) == maximin_rule(b)
    assert qbar(scaled) == pytest.approx(scale * qbar(b), abs=1e-9)


def test_scaling_a_subnormal_lower_end_to_zero_changes_the_input():
    # -5e-324 * 0.5 is -0.0, which every rule reads as a nonnegative end
    b = QoteBounds(-5e-324, 1.0)
    scaled = QoteBounds(0.5 * b.lower, 0.5 * b.upper)
    assert scaled.lower == 0.0
    assert (maximin_rule(b), maximin_rule(scaled)) == (0.0, 1.0)
    assert mmr_stochastic(b) == mmr_stochastic(scaled) == 1.0
    assert mmr_deterministic(b) == mmr_deterministic(scaled) == 1.0
    assert (qbar(b), qbar(scaled)) == (1.0, 0.5)


def test_scaling_subnormal_ends_to_zero_flips_every_rule():
    b = QoteBounds(-5e-324, -5e-324)
    scaled = QoteBounds(0.5 * b.lower, 0.5 * b.upper)
    for rule in (mmr_stochastic, mmr_deterministic, maximin_rule):
        assert (rule(b), rule(scaled)) == (0.0, 1.0)
    assert (qbar(b), qbar(scaled)) == (-5e-324, 0.0)


@given(bounds_strategy)
@settings(max_examples=100, deadline=None)
def test_leading_terms_vanish_without_a_straddle(b):
    field = BoundField((((0.0,), 1.0, b),))
    report = max_regret(derive_policy(field, "mmr_stochastic"), field)
    if not (b.lower < 0 < b.upper):
        assert report.leading_term_stochastic == 0.0
        assert report.leading_term_deterministic == 0.0
    else:
        assert report.leading_term_stochastic <= report.leading_term_deterministic


def test_stochastic_leading_term_value():
    field = single_cell_field(-1.0, 3.0)
    report = max_regret(derive_policy(field, "mmr_stochastic"), field)
    # L*U / (L - U) = (-3) / (-4)
    assert report.leading_term_stochastic == pytest.approx(0.75)
    assert report.max_regret == pytest.approx(1.5)


def test_derive_policy_rules_and_unknown_rule():
    field = BoundField(
        (
            ((0.0,), 0.5, QoteBounds(-1.0, 3.0)),
            ((1.0,), 0.5, QoteBounds(-2.0, 1.0)),
        )
    )
    stoch = derive_policy(field, "mmr_stochastic")
    assert stoch.kind == "stochastic"
    assert stoch.deltas() == pytest.approx([0.75, 1.0 / 3.0])
    determ = derive_policy(field, "mmr_deterministic")
    assert determ.kind == "deterministic"
    assert determ.deltas() == pytest.approx([1.0, 0.0])
    assert derive_policy(field, "maximin").deltas() == pytest.approx([0.0, 0.0])
    with pytest.raises(ValueError, match="unknown rule"):
        derive_policy(field, "bayes")


def test_max_regret_requires_matching_cells():
    field = single_cell_field(-1.0, 3.0)
    policy = PolicyField((((9.0,), 0.5),), kind="stochastic")
    with pytest.raises(ValueError, match="cell sets"):
        max_regret(policy, field)


def test_true_regret_weighted_mismatch():
    truth = TruthField((((0.0,), 2.0), ((1.0,), -1.0)))
    always_treat = PolicyField(
        (((0.0,), 1.0), ((1.0,), 1.0)), kind="deterministic"
    )
    # cell 1 mistreats a -1 effect; uniform weights halve it
    assert true_regret(always_treat, truth) == pytest.approx(0.5)
    assert true_regret(always_treat, truth, weights=[0.0, 1.0]) == pytest.approx(1.0)
    oracle = first_best(truth)
    assert true_regret(oracle, truth) == 0.0
    with pytest.raises(ValueError, match="length"):
        true_regret(always_treat, truth, weights=[1.0])


def test_regret_bound_check_accepts_interior_truths():
    field = BoundField(
        (
            ((0.0,), 0.5, QoteBounds(-1.0, 3.0)),
            ((1.0,), 0.5, QoteBounds(-2.0, -0.5)),
        )
    )
    truth = TruthField((((0.0,), 1.0), ((1.0,), -1.0)))
    report = regret_bound_check(field, truth)
    assert isinstance(report, RegretBoundReport)
    assert report.satisfied
    outside = TruthField((((0.0,), 5.0), ((1.0,), -1.0)))
    with pytest.raises(ValueError, match="outside the bounds"):
        regret_bound_check(field, outside)


@given(
    st.lists(
        st.tuples(st.floats(-4, 4), st.floats(0, 4), st.floats(0, 1)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_interior_truth_regret_never_beats_the_max(rows):
    cells = []
    truths = []
    for i, (lo, width, frac) in enumerate(rows):
        b = QoteBounds(lo, lo + width)
        cells.append(((float(i),), 1.0 / len(rows), b))
        truths.append(((float(i),), lo + frac * width))
    field = BoundField(tuple(cells))
    truth = TruthField(tuple(truths))
    for rule in ("mmr_stochastic", "mmr_deterministic", "maximin"):
        policy = derive_policy(field, rule)
        report = max_regret(policy, field)
        # a drawn stochastic rule can only do better on average than the
        # adversarial response accounted inside max_regret
        weights = [w for _, w, _ in field.cells]
        tr = true_regret(
            PolicyField(
                tuple(
                    (x, round(d)) for (x, d) in zip(truth.points(), policy.deltas())
                ),
                kind="deterministic",
            ),
            truth,
            weights=weights,
        )
        assert tr <= report.max_regret + 1e-9 or rule == "maximin"


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("x", [(0, 1), [0.0, 1], np.array([0, 1]), (np.float64(0), 1.0), (0.0, 1.0)])
def test_cell_points_are_tuples_of_python_floats(x):
    field = BoundField(((x, 1.0, QoteBounds(-1.0, 1.0)),))
    for cells in (field.cells, derive_policy(field, "maximin").cells):
        assert cells[0][0] == (0.0, 1.0)
        assert all(type(v) is float for v in cells[0][0])

def test_policy_json_round_trip_shape():
    policy = PolicyField((((0.0, 1.0), 0.75),), kind="stochastic")
    payload = json.loads(policy_to_json(policy))
    assert payload["kind"] == "stochastic"
    assert payload["cells"] == [{"x": [0.0, 1.0], "delta": 0.75}]
    assert policy_to_json(policy).endswith("\n")


def test_regret_report_json_fields():
    field = single_cell_field(-1.0, 3.0)
    report = max_regret(derive_policy(field, "mmr_stochastic"), field)
    payload = json.loads(_json_text(_regret_report_data(report)))
    assert payload["max_regret"] == pytest.approx(1.5)
    assert len(payload["expressions"]) == 3
    assert "true_regret" not in payload


def _json_dumps(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and the infinities go to json.dumps whole
    st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1, -2.5e-7]),
    st.text(),
    st.sampled_from(["", "é", " ", "\x00", '"quoted"', "back\\slash", "tab\t", "\ud800"]),
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=25,
)


@given(_JSON)
@settings(max_examples=300, deadline=None)
def test_the_json_writer_writes_json_dumps_bytes(data):
    assert _json_text(data) == _json_dumps(data)


@pytest.mark.parametrize(
    "data",
    [{}, [], [[]], {"a": {}}, {"b": [1, [2.5, {}]], "a": None}, [True, False, 0, -0.0],
     {"x": float("nan")}, [float("inf"), -float("inf")], np.float64(0.1),
     {"v": [np.float64(-0.0), np.float64(1e16)]}, (1, 2), {"t": (0.5,)}, {1: 2},
     {"a": np.int64(3)}, [np.float32(0.5)]],
)
def test_the_json_writer_on_edge_payloads(data):
    try:
        expect = _json_dumps(data)
    except TypeError:
        with pytest.raises(TypeError):
            _json_text(data)
    else:
        assert _json_text(data) == expect
