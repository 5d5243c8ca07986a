"""Per-arm outcome distributions: empirical quantiles, kernel conditional CDFs,
and quantile curves on fixed probability grids.

Conventions used throughout the package: quantiles are inf-type (type-1)
generalized inverses with no interpolation, estimated CDFs regress the strict
indicator 1{Y < y}, and probability grids are the midpoints r_i = (2i-1)/(2k)
so curves never evaluate at 0 or 1.
"""

from __future__ import annotations

import csv
import io
import itertools
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sample:
    """Raw observations: outcome y, binary treatment d, covariates x (n by p)."""

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.d)
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:  # one covariate, or none
            x = x.reshape(-1, 1) if x.size else np.empty((len(y), 0))
        if not np.all(np.isfinite(y)):
            raise ValueError("outcomes must be finite")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        if not np.isin(d, (0, 1)).all():  # before the cast, which would truncate 0.5 or NaN
            raise ValueError("treatment indicator must be 0 or 1")
        if x.shape[0] != y.shape[0] or d.shape[0] != y.shape[0]:
            raise ValueError("y, d, x must have the same number of rows")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d.astype(int))
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def arm(self, d: int) -> "Sample":
        """Observations of one treatment arm."""
        keep = self.d == d
        return Sample(self.y[keep], self.d[keep], self.x[keep])


@dataclass(frozen=True)
class ConditionalCdf:
    """A CDF evaluated on a strictly increasing outcome grid."""

    y_grid: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y_grid", np.asarray(self.y_grid, dtype=float))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.y_grid.shape != self.probs.shape or self.y_grid.ndim != 1:
            raise ValueError("y_grid and probs must be 1-d of equal length")
        if not np.all(np.isfinite(self.y_grid)):
            raise ValueError("y_grid must be finite")
        if np.any(np.diff(self.y_grid) <= 0):
            raise ValueError("y_grid must be strictly increasing")
        if not np.all((self.probs >= -1e-12) & (self.probs <= 1 + 1e-12)):
            raise ValueError("probs must lie in [0, 1]")


@dataclass(frozen=True)
class QuantileCurve:
    """Quantile function values on a strictly increasing probability grid in (0,1)."""

    u_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_grid", np.asarray(self.u_grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.u_grid.shape != self.values.shape or self.u_grid.ndim != 1:
            raise ValueError("u_grid and values must be 1-d of equal length")
        if not np.all((self.u_grid > 0) & (self.u_grid < 1)):
            raise ValueError("u_grid must lie strictly inside (0, 1)")
        if np.any(np.diff(self.u_grid) <= 0):
            raise ValueError("u_grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("quantile values must be finite")
        if np.any(np.diff(self.values) < -1e-9):
            raise ValueError("quantile values must be nondecreasing")


def _is_positive_integer(n) -> bool:
    """Whether n is a Python or numpy integer of at least 1: a grid size or a degree."""
    return isinstance(n, numbers.Integral) and n >= 1


def u_grid(k: int) -> np.ndarray:
    """Midpoint probability grid r_i = (2i - 1) / (2k), i = 1..k."""
    if not _is_positive_integer(k):
        raise ValueError("k must be a positive integer")
    return (2.0 * np.arange(1, k + 1) - 1.0) / (2.0 * k)


def empirical_quantile(values, tau: float) -> float:
    """Inf-type empirical quantile: inf{y : F_n(y) >= tau}, no interpolation."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise ValueError("no observations")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return float(v[_quantile_index(v.size, tau)])


def _quantile_index(size: int, tau: float) -> int:
    """Sorted position of the inf-type tau-quantile among size values."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    return max(int(np.ceil(tau * size)) - 1, 0)


def make_y_grid(values, k: int) -> np.ndarray:
    """Empirical quantiles at the k midpoint probabilities (2j-1)/(2k)."""
    if not _is_positive_integer(k):
        raise ValueError("k must be a positive integer")
    # + 0.0 folds -0.0 into 0.0, whose order among equal values np.sort
    # leaves unspecified
    v = np.sort(np.asarray(values, dtype=float).ravel() + 0.0)
    if v.size == 0:
        raise ValueError("no observations")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return v[_grid_positions(np.array(v.size), k)]


def _grid_positions(sizes: np.ndarray, k: int) -> np.ndarray:
    """Sorted positions of the k midpoint quantiles among each of ``sizes`` values.

    Shape ``sizes.shape + (k,)``; every size must be at least 1.
    """
    idx = np.ceil(u_grid(k) * sizes[..., None]).astype(int) - 1
    return np.clip(idx, 0, sizes[..., None] - 1)


def scott_bandwidth(x_matrix) -> np.ndarray:
    """Scott's rule of thumb per coordinate: h_j = sd_j * n^(-1/(p+4))."""
    x = np.asarray(x_matrix, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, p = x.shape
    if n < 2:
        raise ValueError("need at least two observations for a bandwidth")
    sd = x.std(axis=0, ddof=1)
    for j, s in enumerate(sd):
        if s <= 0:
            raise ValueError(f"zero-variance covariate coordinate {j}")
    return sd * n ** (-1.0 / (p + 4))


def kernel_conditional_cdf(data: Sample, x0, y_grid, h=None) -> ConditionalCdf:
    """Kernel regression of the strict indicator 1{Y < y_j} on X at the point x0.

    Product Gaussian kernel weights; with p = 0 covariates the weights are
    uniform and the result is exactly the empirical CDF (strict inequality at
    the grid points). The fitted values are nondecreasing in y already (the
    weights do not depend on the grid point) and are clipped to [0, 1].
    """
    y_grid = np.asarray(y_grid, dtype=float)
    y = data.y
    if y.size == 0:
        raise ValueError("no observations")
    if data.p == 0:
        w = np.ones(y.size)
    else:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if h is None:
            h = scott_bandwidth(data.x)
        h = np.atleast_1d(np.asarray(h, dtype=float))
        z = (data.x - x0[None, :]) / h[None, :]
        w = np.exp(-0.5 * np.sum(z * z, axis=1))
    total = w.sum()
    if not total > 0:
        raise ValueError("x0 outside effective support")
    order = np.argsort(y, kind="stable")
    y_sorted = y[order]
    cum_w = np.concatenate([[0.0], np.cumsum(w[order])])
    # strict indicator: mass strictly below each grid point
    below = np.searchsorted(y_sorted, y_grid, side="left")
    return ConditionalCdf(y_grid, np.clip(cum_w[below] / total, 0.0, 1.0))


def curve_from_cdf(cdf: ConditionalCdf, u) -> QuantileCurve:
    """Invert a grid CDF: value at u is min{y_j : probs_j >= u}, else the last y_j."""
    u = np.asarray(u, dtype=float)
    idx = np.searchsorted(cdf.probs, u, side="left")
    idx = np.clip(idx, 0, len(cdf.y_grid) - 1)
    return QuantileCurve(u, cdf.y_grid[idx])


def read_sample_csv(path_or_buffer) -> Sample:
    """Read observations from CSV with header ``y,d,x1,...,xp``, each row as wide as the header.

    Rows of blanks and commas are skipped, fields may have spaces around
    them, and quoted fields and CRLF line ends are read as the csv module
    reads them. Every field is read with Python's ``float``, and ``-0``
    reads as ``0``, in ``y`` and in the covariates alike. Text with no
    quote, CR or NUL is split on newlines and commas and converted in one
    pass; any other text, and any text that split cannot take whole (a row
    of blanks, a ragged row, a field that is no number), is read by the csv
    module, which gives every error about the text and its line numbers.
    """
    if hasattr(path_or_buffer, "read"):
        text = path_or_buffer.read()
    else:
        with open(path_or_buffer, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = _plain_rows(text)
    if data is None:
        data = _csv_rows(text)
    return Sample(data[:, 0] + 0.0, data[:, 1], data[:, 2:] + 0.0)  # "-0" reads as 0.0


def _plain_rows(text: str):
    """The rows of a CSV text as a float array, or None where ``_csv_rows`` must read it.

    It takes only text with no quote, CR or NUL, a ``y,d`` header, at least
    one row, every line but empty ones as wide as the header, every field a
    number and no line longer than the csv module's field limit. For such
    text ``_csv_rows`` gives the same array.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    header = [c.strip() for c in lines[0].split(",")]
    rows = list(filter(None, lines[1:]))
    if header[:2] != ["y", "d"] or not rows:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    if set(map(str.count, rows, itertools.repeat(","))) != {len(header) - 1}:
        return None
    try:
        values = list(map(float, ",".join(rows).split(",")))
    except ValueError:
        return None  # a field that is no number, or a row of blanks
    return np.array(values).reshape(len(rows), len(header))


def _csv_rows(text: str) -> np.ndarray:
    """The rows of a CSV text as a float array, read by the csv module.

    Text the csv module cannot read (a field over its limit, a CR inside a
    line) raises ValueError naming the line, as every other error here does.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV")
        header = [c.strip() for c in header]
        if header[:2] != ["y", "d"]:
            raise ValueError("CSV header must start with y,d")
        rows = [(reader.line_num, r) for r in reader if r and any(c.strip() for c in r)]
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("no observations")
    for line, r in rows:
        if len(r) != len(header):
            raise ValueError(f"line {line} has {len(r)} fields, the header has {len(header)}")
    return np.array([float(c) for _, r in rows for c in r]).reshape(len(rows), len(header))
