"""Rank-level CDF grids and scalar shape statistics of a series.

A series becomes a small image: values are scaled to [0, 1], binned
along x, ranked into cumulative levels along y, and per-cell counts
are scaled so the densest cell reads 1.0. Normalized entropy and the
signed deviation of the scaled empirical CDF from the diagonal are
computed on the same scaled values, which makes every statistic
invariant to positive affine transforms of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_X_BINS = 26
DEFAULT_Y_LEVELS = 25


@dataclass(frozen=True)
class GridShape:
    """Grid dimensions: value bins along x, cumulative rank levels along y."""

    x_bins: int = DEFAULT_X_BINS
    y_levels: int = DEFAULT_Y_LEVELS

    def __post_init__(self) -> None:
        if self.x_bins < 2 or self.y_levels < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.x_bins}x{self.y_levels}")

    @property
    def n_cells(self) -> int:
        return self.x_bins * self.y_levels

    @classmethod
    def from_json(cls, record) -> GridShape:
        """Inverse of ``dataclasses.asdict``, the grid record of specs and headers."""
        return cls(int(record["x_bins"]), int(record["y_levels"]))


@dataclass
class CdfGrid:
    """Normalized cell counts; ``cells[i, j]`` is x-bin i, rank level j + 1."""

    shape: GridShape
    cells: np.ndarray

    def flat(self) -> np.ndarray:
        """x-bin-major flattening, the layout used as network input."""
        return self.cells.reshape(-1)


@dataclass(frozen=True)
class SeriesStats:
    """Scalar shape descriptors of one series.

    With d_pos and d_neg the largest deviations of the scaled empirical
    CDF above and below the diagonal, ``skewness`` is ``d_pos - d_neg``
    and ``ks_uniform`` is ``max(d_pos, d_neg)``.
    """

    entropy: float
    skewness: float
    ks_uniform: float


def _span_ratio(top, bottom, lo: float, hi: float) -> np.ndarray:
    """(top - bottom) / (hi - lo) for lo <= bottom and top <= hi.

    When hi - lo overflows to inf every term is halved first, so a range
    wider than the largest float still scales into [0, 1]; any finite
    range takes the plain quotient.
    """
    span = hi - lo
    if math.isinf(span):
        return (0.5 * top - 0.5 * bottom) / (0.5 * hi - 0.5 * lo)
    return (top - bottom) / span


def scale_to_unit(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Min-max scale to [0, 1]; a constant series maps to all zeros.

    Returns the scaled array and a flag marking the degenerate
    (max == min) case.
    """
    values = np.asarray(values, dtype=np.float64)
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        return _span_ratio(values, lo, lo, hi), False
    return np.zeros_like(values), True


def _bin_indices(u: np.ndarray, n_bins: int) -> np.ndarray:
    # u in [0, 1]; the value 1.0 is folded into the last bin
    idx = (u * n_bins).astype(np.int64)
    return np.minimum(idx, n_bins - 1)


def _normalized_entropy(counts: np.ndarray) -> float:
    """Shannon entropy of a bin histogram, divided by log2 of its bin count."""
    p = counts[counts > 0] / counts.sum()
    return float(-(p @ np.log2(p)) / np.log2(counts.size))


def _d_above(steps: np.ndarray, u_sorted: np.ndarray) -> float:
    """Largest deviation of the ECDF (its steps k / n) above the diagonal, clamped at 0."""
    return max(0.0, float((steps - u_sorted).max()))


def describe_series(values: np.ndarray, shape: GridShape) -> tuple[CdfGrid, SeriesStats]:
    """The rank-level CDF grid and the shape statistics of a series, in one pass.

    Grid: scale values to [0, 1]; bin along x; rank values (ordinal,
    ties by original order) and map rank r to level ceil(y_levels*r/n);
    count observations per (bin, level) cell; divide by the maximum
    cell count. A constant series puts all mass in x-bin 0 while the
    ranks still spread over the levels.

    Statistics: the entropy is that of the grid's per-bin totals, divided
    by log2 of x_bins (26 on the default grid) so that it lies in [0, 1]: 1.0 for
    an equal split over the bins, 0.0 when all mass falls in one. d_pos
    is the maximal excess of the scaled ECDF above the diagonal and
    d_neg the maximal shortfall below it, each evaluated at both sides
    of every step. d_neg is the d_pos of (hi - x) / (hi - lo), which is
    bit for bit what scaling the negated series gives; negating a series
    therefore swaps d_pos/d_neg exactly and negates the skewness. A
    constant series has all statistics but the entropy zero. Fewer than
    2 values raise ValueError.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations to form a CDF grid")
    # one sort: sorted position k - 1 holds the value of rank k, and every later step
    # reads the sorted values
    ordered = values[np.argsort(values, kind="stable")]
    u, degenerate = scale_to_unit(ordered)
    k = np.arange(1, n + 1)
    # rank k takes level ceil(y_levels * k / n), one of 1..y_levels; the integer floor
    # (y_levels * k - 1) // n is that level less one, exactly, and rank n takes the top level
    levels = (shape.y_levels * k - 1) // n
    # a histogram of the (bin, level) cells, whose counts do not depend on the entries' order
    counts = np.bincount(_bin_indices(u, shape.x_bins) * shape.y_levels + levels,
                         minlength=shape.n_cells).reshape(shape.x_bins, shape.y_levels)
    grid = CdfGrid(shape, counts / counts.max())
    ent = _normalized_entropy(counts.sum(axis=1))
    if degenerate:
        return grid, SeriesStats(entropy=ent, skewness=0.0, ks_uniform=0.0)
    steps = k / n
    lo, hi = float(ordered[0]), float(ordered[-1])
    d_pos = _d_above(steps, u)
    d_neg = _d_above(steps, _span_ratio(hi, ordered[::-1], lo, hi))
    return grid, SeriesStats(entropy=ent, skewness=d_pos - d_neg, ks_uniform=max(d_pos, d_neg))


def encode_cdf(values: np.ndarray) -> CdfGrid:
    """Encode a series as its rank-level CDF grid on the default grid (see describe_series)."""
    return describe_series(values, GridShape())[0]
