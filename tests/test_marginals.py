import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qotepolicy.marginals import (
    ConditionalCdf,
    QuantileCurve,
    Sample,
    curve_from_cdf,
    curve_to_csv,
    empirical_quantile,
    kernel_conditional_cdf,
    make_y_grid,
    read_sample_csv,
    scott_bandwidth,
    u_grid,
)


def test_u_grid_midpoints():
    assert_allclose(u_grid(4), [0.125, 0.375, 0.625, 0.875])
    assert_allclose(u_grid(1), [0.5])
    with pytest.raises(ValueError, match="positive"):
        u_grid(0)


def test_empirical_quantile_is_order_statistic_without_interpolation():
    v = [3.0, 1.0, 2.0, 4.0]
    # ceil(tau * 4) picks the order statistic directly
    assert empirical_quantile(v, 0.25) == 1.0
    assert empirical_quantile(v, 0.26) == 2.0
    assert empirical_quantile(v, 0.5) == 2.0
    assert empirical_quantile(v, 0.51) == 3.0
    assert empirical_quantile(v, 0.75) == 3.0
    assert empirical_quantile(v, 0.99) == 4.0


def test_empirical_quantile_errors():
    with pytest.raises(ValueError, match="no observations"):
        empirical_quantile([], 0.5)
    with pytest.raises(ValueError, match="tau"):
        empirical_quantile([1.0], 0.0)
    with pytest.raises(ValueError, match="tau"):
        empirical_quantile([1.0], 1.0)


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=50),
    st.floats(0.01, 0.99),
)
def test_empirical_quantile_matches_inf_definition(values, tau):
    q = empirical_quantile(values, tau)
    v = np.sort(np.asarray(values))
    cdf_at_q = np.mean(v <= q)
    assert q in v
    assert cdf_at_q >= tau - 1e-12
    # nothing smaller reaches tau
    smaller = v[v < q]
    if smaller.size:
        assert np.mean(v <= smaller[-1]) < tau


def test_make_y_grid_matches_pointwise_quantiles():
    rng = np.random.default_rng(0)
    v = rng.normal(size=37)
    grid = make_y_grid(v, 5)
    expected = [empirical_quantile(v, p) for p in u_grid(5)]
    assert_allclose(grid, expected)
    assert np.all(np.diff(grid) >= 0)


def test_sample_validation_and_arm_split():
    s = Sample(y=[1.0, 2.0, 3.0], d=[0, 1, 0], x=np.zeros((3, 2)))
    assert s.n == 3 and s.p == 2
    treated = s.arm(1)
    assert treated.n == 1 and treated.y[0] == 2.0
    with pytest.raises(ValueError, match="0 or 1"):
        Sample(y=[1.0], d=[2], x=np.zeros((1, 0)))
    with pytest.raises(ValueError, match="finite"):
        Sample(y=[np.nan], d=[0], x=np.zeros((1, 0)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="covariates must be finite"):
            Sample(y=[1.0, 2.0], d=[0, 1], x=[[0.0], [bad]])
    with pytest.raises(ValueError, match="same number of rows"):
        Sample(y=[1.0, 2.0], d=[0, 1], x=np.zeros((3, 1)))


def test_quantile_curve_validation():
    QuantileCurve([0.25, 0.75], [1.0, 2.0])
    with pytest.raises(ValueError, match="inside"):
        QuantileCurve([0.0, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        QuantileCurve([0.25, 0.75], [2.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        QuantileCurve([0.75, 0.25], [1.0, 2.0])


def test_conditional_cdf_validation():
    ConditionalCdf([0.0, 1.0], [0.2, 0.9])
    with pytest.raises(ValueError, match="increasing"):
        ConditionalCdf([1.0, 0.0], [0.2, 0.9])
    with pytest.raises(ValueError, match="0, 1"):
        ConditionalCdf([0.0, 1.0], [0.2, 1.5])


def test_kernel_cdf_without_covariates_is_empirical_strict_cdf():
    y = np.array([1.0, 2.0, 2.0, 3.0])
    s = Sample(y=y, d=[0, 1, 0, 1], x=np.zeros((4, 0)))
    grid = np.array([0.5, 1.0, 2.0, 2.5, 3.0, 9.0])
    cdf = kernel_conditional_cdf(s, x0=None, y_grid=grid)
    # strict indicator: mass strictly below each grid value
    assert_allclose(cdf.probs, [0.0, 0.0, 0.25, 0.75, 0.75, 1.0])


def test_kernel_cdf_weights_localize():
    rng = np.random.default_rng(3)
    n = 4000
    x = rng.uniform(-1, 1, size=(n, 1))
    y = x[:, 0] + 0.1 * rng.normal(size=n)
    s = Sample(y=y, d=np.zeros(n, dtype=int), x=x)
    grid = np.linspace(-2, 2, 101)
    at_left = kernel_conditional_cdf(s, x0=[-0.8], y_grid=grid, h=[0.1])
    at_right = kernel_conditional_cdf(s, x0=[0.8], y_grid=grid, h=[0.1])
    med_left = curve_from_cdf(at_left, [0.5]).values[0]
    med_right = curve_from_cdf(at_right, [0.5]).values[0]
    assert med_left == pytest.approx(-0.8, abs=0.15)
    assert med_right == pytest.approx(0.8, abs=0.15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kernel_cdf_probs_always_monotone(seed):
    rng = np.random.default_rng(seed)
    n = 40
    s = Sample(
        y=rng.normal(size=n),
        d=np.zeros(n, dtype=int),
        x=rng.normal(size=(n, 2)),
    )
    cdf = kernel_conditional_cdf(s, x0=[0.0, 0.0], y_grid=np.linspace(-3, 3, 25))
    assert np.all(np.diff(cdf.probs) >= -1e-12)
    assert cdf.probs.min() >= 0.0 and cdf.probs.max() <= 1.0


def test_scott_bandwidth_scaling():
    rng = np.random.default_rng(1)
    x = rng.normal(scale=[1.0, 5.0], size=(500, 2))
    h = scott_bandwidth(x)
    assert h.shape == (2,)
    assert 4 < h[1] / h[0] < 6
    with pytest.raises(ValueError, match="zero-variance"):
        scott_bandwidth(np.ones((10, 1)))


def test_curve_from_cdf_inverts_on_grid():
    cdf = ConditionalCdf([0.0, 1.0, 2.0, 3.0], [0.0, 0.3, 0.6, 1.0])
    curve = curve_from_cdf(cdf, [0.1, 0.3, 0.5, 0.95])
    assert_allclose(curve.values, [1.0, 1.0, 2.0, 3.0])


def test_quantile_curve_consistency_with_sample_size():
    # the estimated curve approaches the true normal quantiles as n grows
    from scipy.special import ndtri

    u = u_grid(9)
    truth = ndtri(u)
    errs = []
    for n in (200, 20_000):
        rng = np.random.default_rng(42)
        errs.append(np.max(np.abs(make_y_grid(rng.normal(size=n), 9) - truth)))
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def test_read_sample_csv_round_trip(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("y,d,x1,x2\n1.5,1,0.1,2.0\n-0.5,0,0.2,3.0\n")
    s = read_sample_csv(path)
    assert s.n == 2 and s.p == 2
    assert_array_equal(s.d, [1, 0])
    assert_allclose(s.x[1], [0.2, 3.0])
    # buffers work the same way
    s2 = read_sample_csv(io.StringIO(path.read_text()))
    assert_allclose(s2.y, s.y)


def test_read_sample_csv_errors():
    with pytest.raises(ValueError, match="empty CSV"):
        read_sample_csv(io.StringIO(""))
    with pytest.raises(ValueError, match="header"):
        read_sample_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(ValueError, match="no observations"):
        read_sample_csv(io.StringIO("y,d\n"))
    with pytest.raises(ValueError, match="0 or 1"):
        read_sample_csv(io.StringIO("y,d\n1.0,3\n"))
    # rows that agree with each other but not with the header
    with pytest.raises(ValueError, match="line 2 has 2 fields, the header has 3"):
        read_sample_csv(io.StringIO("y,d,x1\n1.0,1\n2.0,0\n"))
    with pytest.raises(ValueError, match="line 2 has 3 fields, the header has 2"):
        read_sample_csv(io.StringIO("y,d\n1.0,1,0\n2.0,0,0\n"))


def test_curve_to_csv_format():
    text = curve_to_csv(QuantileCurve([0.25, 0.75], [1.0, 2.5]))
    assert text == "u,value\n0.25,1\n0.75,2.5\n"
