import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qotepolicy.marginals import (
    ConditionalCdf,
    QuantileCurve,
    Sample,
    _csv_rows,
    _plain_rows,
    curve_from_cdf,
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


def test_sample_checks_the_treatment_indicator_before_it_casts():
    # the cast to int came first: flags 0.5 and 1.7 read as 0 and 1, and a NaN
    # flag raised numpy's cast warning before this message; the CSV reader
    # now leaves the check to Sample and gives the message it gave
    for d in ([0.5, 1.7, 1], [0, np.nan, 1]):
        with pytest.raises(ValueError, match="^treatment indicator must be 0 or 1$"):
            Sample([1.0, 2.0, 3.0], d, [])
    for flag in ("0.5", "nan"):
        with pytest.raises(ValueError, match="^treatment indicator must be 0 or 1$"):
            read_sample_csv(io.StringIO(f"y,d\n1.0,{flag}\n"))
    assert Sample([1.0, 2.0], [1.0, 0.0], []).d.tolist() == [1, 0]


def test_a_one_dimensional_x_is_one_covariate():
    # an x of 2n values became two covariates
    with pytest.raises(ValueError, match="same number of rows"):
        Sample([1.0, 2.0], [0, 1], [1.0, 2.0, 3.0, 4.0])
    s = Sample([1.0, 2.0], [0, 1], [3.0, 4.0])
    assert s.p == 1 and s.x.tolist() == [[3.0], [4.0]]
    assert Sample([1.0, 2.0], [0, 1], []).p == 0


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry, message",
    [
        ("QuantileCurve values", "^quantile values must be finite$"),
        ("QuantileCurve u_grid", "^u_grid must lie strictly inside"),
        ("ConditionalCdf y_grid", "^y_grid must be finite$"),
        ("ConditionalCdf probs", "^probs must lie in"),
        ("empirical_quantile", "^values must be finite$"),
        ("make_y_grid", "^values must be finite$"),
    ],
)
def test_non_finite_values_are_rejected(entry, message, bad):
    # a NaN slipped past comparisons that are False for NaN: a curve
    # [nan, 1, 2] gave quantile bounds, and the median of [nan, 1] was 1
    calls = {
        "QuantileCurve values": lambda: QuantileCurve(u_grid(3), [bad, 1.0, 2.0]),
        "QuantileCurve u_grid": lambda: QuantileCurve([bad, 0.5, 0.75], [0.0, 1.0, 2.0]),
        "ConditionalCdf y_grid": lambda: ConditionalCdf([bad, 1.0, 2.0], [0.0, 0.5, 1.0]),
        "ConditionalCdf probs": lambda: ConditionalCdf([0.0, 1.0, 2.0], [bad, 0.5, 1.0]),
        "empirical_quantile": lambda: empirical_quantile([bad, 1.0], 0.5),
        "make_y_grid": lambda: make_y_grid([bad, 1.0, 2.0], 2),
    }
    with pytest.raises(ValueError, match=message):
        calls[entry]()


@pytest.mark.parametrize("k", [2.5, 3.0, "3"])
def test_grid_sizes_that_are_not_integers_are_rejected(k):
    # u_grid(2.5) was [0.2, 0.6, 1.0], a grid holding u = 1
    for call in (lambda: u_grid(k), lambda: make_y_grid([0.0, 1.0, 2.0], k)):
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            call()


def test_numpy_integer_grid_sizes_pass():
    values = [2.0, 0.0, 1.0, 5.0]
    for k in (np.int64(3), np.int32(3), np.uint8(3)):
        assert_array_equal(u_grid(k), u_grid(3))
        assert_array_equal(make_y_grid(values, k), make_y_grid(values, 3))


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


SPELLINGS = ["+1", "-0", "0", ".5", "1e-3", "1E+300", "5e-324", "-2.25", " 7 ", "\t-0\t"]


def _read_on_both_paths(text):
    """The plain split's array, which must equal the csv module's bit for bit."""
    plain = _plain_rows(text)
    assert plain is not None
    expect = _csv_rows(text)
    assert plain.shape == expect.shape and plain.tobytes() == expect.tobytes()
    return plain


def test_the_plain_split_reads_every_spelling_as_the_csv_module_does():
    text = "y,d,x1\n" + "".join(f"{a},{i % 2},{b}\n" for i, a in enumerate(SPELLINGS)
                               for b in SPELLINGS)
    data = _read_on_both_paths(text)
    assert data[:, 0].tolist() == [float(a) for a in SPELLINGS for _ in SPELLINGS]
    assert data[-1, 2] == 0.0 and np.signbit(data[-1, 2])  # "-0" reaches the array as -0.0
    sample = read_sample_csv(io.StringIO(text))
    # and reads as 0, in y and in the covariates
    for values in (sample.y, sample.x):
        assert not np.signbit(values[values == 0]).any()
    assert sample.y.tobytes() == (data[:, 0] + 0.0).tobytes()


def test_empty_lines_and_a_missing_final_newline_stay_on_the_plain_split():
    text = "y,d,x1\n\n1.5,1,0\n\n\n-2,0,1"
    assert _read_on_both_paths(text).tolist() == [[1.5, 1.0, 0.0], [-2.0, 0.0, 1.0]]


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "-nan", " Infinity "])
@pytest.mark.parametrize("column, message", [(0, "outcomes"), (2, "covariates")])
def test_non_finite_fields_fail_as_on_the_csv_path(bad, column, message):
    fields = ["1", "1", "0"]
    fields[column] = bad
    text = "y,d,x1\n0,0,0\n" + ",".join(fields) + "\n"
    _read_on_both_paths(text)
    with pytest.raises(ValueError, match=f"^{message} must be finite$"):
        read_sample_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "text",
    [
        'y,d\n"1.5",1\n0,0\n',  # quoted
        "y,d\r\n1.5,1\r\n0,0\r\n",  # CRLF
        "y,d\n1.5,1\n0\x00,0\n",  # NUL
        "y,d,x1\n1.5,1,0\n,,\n0,0,1\n",  # a row of commas
        "y,d,x1\n1.5,1,0\n  \n0,0,1\n",  # a row of blanks
        "y,d,x1\n1.5,1,0\n , ,\t\n0,0,1\n",
    ],
)
def test_texts_the_plain_split_cannot_judge_go_to_the_csv_module(text):
    assert _plain_rows(text) is None
    try:
        expect = _csv_rows(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            read_sample_csv(io.StringIO(text))
    else:
        assert read_sample_csv(io.StringIO(text)).y.tolist() == (expect[:, 0] + 0.0).tolist()


@pytest.mark.parametrize(
    "text, line",
    [
        ("y,d\n1\r,1\n", 2),
        ("y,d\n1,1\n0," + "0" * (csv.field_size_limit() + 1) + "\n", 3),
        ("y,d," + "x" * (csv.field_size_limit() + 1) + "\n1,1,0\n", 1),
    ],
    ids=["a CR inside a line", "a field over the csv module's limit", "a header field over it"],
)
def test_texts_the_csv_module_refuses_are_left_to_it(text, line):
    # float reads every field of these, so only the checks keep them from the split
    assert _plain_rows(text) is None
    with pytest.raises(ValueError, match=f"^line {line}: ") as refused:
        _csv_rows(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        read_sample_csv(io.StringIO(text))


def test_a_ragged_row_after_blank_lines_names_its_line():
    text = "y,d,x1\n1,1,0\n\n,,\n\n2,0\n0,0,1\n"
    assert _plain_rows(text) is None
    with pytest.raises(ValueError, match="^line 6 has 2 fields, the header has 3$"):
        read_sample_csv(io.StringIO(text))


_NUMBERS = st.one_of(
    st.sampled_from(SPELLINGS + ["inf", "-nan", "1_0", "0001", "1.e5"]),
    st.floats().map(repr),
)
_FIELDS = st.one_of(
    _NUMBERS,
    st.text(alphabet="01.e+-in_ \t\x0b\x0c\x1c\x85\u2028", max_size=6),
)
# mostly rows of three numbers, the header's width; some of any width and text
_ROWS = st.one_of(
    st.lists(_NUMBERS, min_size=3, max_size=3),
    st.lists(_FIELDS, min_size=1, max_size=4),
)


@given(st.lists(_ROWS, max_size=8), st.booleans())
@settings(max_examples=400, deadline=None)
def test_the_plain_split_agrees_with_the_csv_module_on_any_rows(rows, final_newline):
    text = "y,d,x1\n" + "\n".join(",".join(row) for row in rows) + "\n" * final_newline
    plain = _plain_rows(text)
    try:
        expect = _csv_rows(text)
    except ValueError:
        assert plain is None
    else:
        assert plain is None or plain.tobytes() == expect.tobytes()
