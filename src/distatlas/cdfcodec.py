"""Rank-level CDF grids and scalar shape statistics of a series.

A series becomes a small image: values are scaled to [0, 1], binned
along x, ranked into cumulative levels along y, and per-cell counts
are scaled so the densest cell reads 1.0. Normalized entropy and the
signed deviation of the scaled empirical CDF from the diagonal are
computed on the same scaled values, which makes every statistic
invariant to positive affine transforms of the input.

describe_block is the one encoder: it takes a list of series and
encodes them in one vectorized pass over their concatenated sorted
values, so numpy's per-call cost is paid per block, not per series.
Callers feed it the sub-blocks of sub_blocks, at most BLOCK_VALUES
values each, which bounds the pass's temporaries to a few hundred KB.
A series encodes to the same bits in any block; describe_series is the
block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

DEFAULT_X_BINS = 26
DEFAULT_Y_LEVELS = 25
# values describe_block takes in one pass (sub_blocks); bounds the pass's temporaries
BLOCK_VALUES = 4096


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
    """Scalar shape descriptors of one series (describe_series), or arrays of
    them with one entry per series (describe_block).

    With d_pos and d_neg the largest deviations of the scaled empirical
    CDF above and below the diagonal, ``skewness`` is ``d_pos - d_neg``
    and ``ks_uniform`` is ``max(d_pos, d_neg)``.
    """

    entropy: float | np.ndarray
    skewness: float | np.ndarray
    ks_uniform: float | np.ndarray


def _span_ratio(top, bottom, lo, hi) -> np.ndarray:
    """(top - bottom) / (hi - lo), entry by entry, for lo <= bottom and top <= hi.

    Where hi - lo overflows to inf every term of that entry is halved
    first, so a range wider than the largest float still scales into
    [0, 1]; any finite range takes the plain quotient. Where hi == lo (a
    constant series) the entry is top - bottom, a zero.
    """
    with np.errstate(over="ignore"):
        span = np.subtract(hi, lo)
    wide = np.isinf(span)
    if wide.any():
        half = np.where(wide, 0.5, 1.0)
        top, bottom, span = top * half, bottom * half, hi * half - lo * half
    ratio = np.subtract(top, bottom)
    return np.divide(ratio, span, out=ratio, where=span != 0)


def scale_to_unit(values: np.ndarray, lo, hi) -> np.ndarray:
    """Min-max scale each value into [0, 1] against its own bounds: (values - lo) / (hi - lo).

    lo and hi broadcast against values (a block passes one entry per
    value: the minimum and maximum of that value's series). A constant
    series (hi == lo) maps to zeros.
    """
    return _span_ratio(values, lo, lo, hi)


def sub_blocks(series: Iterable) -> Iterator[list]:
    """Group series, in order, into the lists describe_block encodes in one pass.

    A list holds at most BLOCK_VALUES values, or one longer series alone,
    which bounds the block-sized temporaries of a pass.
    """
    block, size = [], 0
    for values in series:
        if block and size + len(values) > BLOCK_VALUES:
            yield block
            block, size = [], 0
        block.append(values)
        size += len(values)
    if block:
        yield block


def describe_block(series: list, shape: GridShape) -> tuple[np.ndarray, SeriesStats]:
    """The rank-level CDF grids and the shape statistics of a list of series, in one pass.

    Returns the grids as rows (len(series), shape.n_cells), x-bin-major
    (CdfGrid.flat), and a SeriesStats of arrays, one entry per series.

    Grid: scale values to [0, 1]; bin along x; rank values and map rank r
    to level ceil(y_levels*r/n); count observations per (bin, level)
    cell; divide by the maximum cell count. A constant series puts all
    mass in x-bin 0 while the ranks still spread over the levels.

    Statistics: the entropy is that of the grid's per-bin totals, divided
    by log2 of x_bins (26 on the default grid) so that it lies in [0, 1]: 1.0 for
    an equal split over the bins, 0.0 when all mass falls in one. d_pos
    is the maximal excess of the scaled ECDF above the diagonal and
    d_neg the maximal shortfall below it, each evaluated at both sides
    of every step. d_neg is the d_pos of (hi - x) / (hi - lo), which is
    bit for bit what scaling the negated series gives; negating a series
    therefore swaps d_pos/d_neg exactly and negates the skewness. A
    constant series has all statistics but the entropy zero. A series of
    fewer than 2 values raises ValueError.

    The pass sorts each series in place in one concatenated buffer, so
    that sorted position k - 1 of a series holds its value of rank k, and
    works on that buffer with per-value row offsets: one bincount of
    (series, bin, level) cells gives every grid, and a maximum per series
    (np.maximum.reduceat, exact in any order) each of d_pos and d_neg.
    Every value and statistic is computed with the same operations as
    for the series alone, so a series encodes to the same bits in any
    block. Only the sorted values are read, so ties need no stable sort.
    """
    n = np.array([len(values) for values in series], dtype=np.int64)
    if n.size == 0 or n.min() < 2:
        raise ValueError("need at least 2 observations to form a CDF grid")
    m, x_bins, y_levels, n_cells = n.size, shape.x_bins, shape.y_levels, shape.n_cells
    ends = np.cumsum(n)
    starts = ends - n
    ordered = np.concatenate(series, dtype=np.float64)
    for a, b in zip(starts.tolist(), ends.tolist()):
        ordered[a:b].sort()
    lo, hi = ordered[starts], ordered[ends - 1]
    degenerate = ~(hi > lo)
    lo, hi = np.repeat(lo, n), np.repeat(hi, n)
    u = scale_to_unit(ordered, lo, hi)
    flipped = _span_ratio(hi, ordered, lo, hi)
    del ordered, lo, hi
    # a series' level (rank k takes level ceil(y_levels * k / n), 1..y_levels, stored less
    # one) rises by one at each sorted position floor(j * n / y_levels), j = 1 .. y_levels - 1;
    # one running sum of the rises, with series i starting at offset i * n_cells, gives each
    # value's level and its series' offset in the block's cell counts
    rises = (starts[:, None] + np.arange(1, y_levels) * n[:, None] // y_levels).ravel()
    cell = np.bincount(rises, minlength=u.size)
    cell[starts[1:]] += n_cells - (y_levels - 1)
    np.cumsum(cell, out=cell)
    # plus bin * y_levels; u = 1.0 is folded into the last bin
    bins = (u * x_bins).astype(np.int64)
    np.minimum(bins, x_bins - 1, out=bins)
    bins *= y_levels
    cell += bins
    del bins
    counts = np.bincount(cell, minlength=m * n_cells).reshape(m, n_cells)
    del cell
    grids = counts / counts.max(axis=1, keepdims=True)
    entropy = _normalized_entropy(counts.reshape(m, x_bins, y_levels).sum(axis=2), n)
    del counts
    # the ECDF's steps k / n against the scaled values, and against (hi - x) / (hi - lo)
    # read in reverse: sorted position k - 1 pairs with step (n - k + 1) / n
    rank = np.arange(1.0, u.size + 1.0)
    rank -= np.repeat(starts, n)
    size = np.repeat(n.astype(np.float64), n)
    np.subtract(rank / size, u, out=u)
    d_pos = _d_above(u, starts, degenerate)
    np.subtract(size, rank, out=rank)
    rank += 1.0
    rank /= size
    np.subtract(rank, flipped, out=flipped)
    d_neg = _d_above(flipped, starts, degenerate)
    return grids, SeriesStats(entropy=entropy, skewness=d_pos - d_neg,
                              ks_uniform=np.maximum(d_pos, d_neg))


def _normalized_entropy(totals: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per row of bin totals (each summing to its n): Shannon entropy over log2 of the bin count.

    Each row's entropy is its own dot product of its nonzero p with
    log2(p), as for one histogram alone, so a row's bits do not depend on
    the block around it.
    """
    nonzero = totals > 0
    per_row = nonzero.sum(axis=1)
    p = totals[nonzero] / np.repeat(n, per_row)
    log_p = np.log2(p)
    ends = np.cumsum(per_row).tolist()
    dots = np.array([p[a:b] @ log_p[a:b] for a, b in zip([0, *ends], ends)])
    return -dots / np.log2(totals.shape[1])


def _d_above(gaps: np.ndarray, starts: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Per series, the largest of its gaps (ECDF step less scaled value), clamped at 0;
    0 for a constant series."""
    d = np.maximum(np.maximum.reduceat(gaps, starts), 0.0)
    d[degenerate] = 0.0
    return d


def describe_series(values: np.ndarray, shape: GridShape) -> tuple[CdfGrid, SeriesStats]:
    """The rank-level CDF grid and the shape statistics of one series: describe_block of it."""
    grids, stats = describe_block([values], shape)
    return (CdfGrid(shape, grids.reshape(shape.x_bins, shape.y_levels)),
            SeriesStats(float(stats.entropy[0]), float(stats.skewness[0]),
                        float(stats.ks_uniform[0])))


def encode_cdf(values: np.ndarray) -> CdfGrid:
    """Encode a series as its rank-level CDF grid on the default grid (see describe_block)."""
    return describe_series(values, GridShape())[0]
