"""Collapse a decoded intensity grid to one CDF curve and repair it.

Decoded grids are free-form intensity images, so the implied curve can
dip. The repair is the exact least-squares projection onto the
nondecreasing cone, solved by pool-adjacent-violators, followed by a
clamp to [0, 1].
"""

from __future__ import annotations

import numpy as np

from .cdfcodec import CdfGrid

# columns carrying less total intensity than this are interpolated
WEIGHT_FLOOR = 1e-6


def grid_to_curve(grid) -> np.ndarray:
    """Reduce a grid of intensities to one cumulative level per x-bin.

    Each bin's level is the intensity-weighted mean of its occupied
    y-levels (level k contributing k/y_levels). Bins whose total
    intensity falls below WEIGHT_FLOOR are filled by linear
    interpolation from their neighbors; at the ends this extends the
    nearest resolved level.
    """
    cells = grid.cells if isinstance(grid, CdfGrid) else np.asarray(grid, dtype=np.float64)
    if cells.ndim != 2:
        raise ValueError(f"expected a 2-d intensity grid, got shape {cells.shape}")
    x_bins, y_levels = cells.shape
    levels = np.arange(1, y_levels + 1, dtype=np.float64) / y_levels
    weight = cells.sum(axis=1)
    resolved = weight >= WEIGHT_FLOOR
    if not resolved.any():
        raise ValueError("all-zero intensity grid has no curve")
    curve = np.empty(x_bins, dtype=np.float64)
    curve[resolved] = (cells[resolved] @ levels) / weight[resolved]
    if not resolved.all():
        idx = np.arange(x_bins, dtype=np.float64)
        curve[~resolved] = np.interp(idx[~resolved], idx[resolved], curve[resolved])
    return curve


def isotonic_fit(values: np.ndarray) -> np.ndarray:
    """Least-squares nondecreasing fit by pool-adjacent-violators.

    Returns the unique minimizer of sum((y - x)^2) over nondecreasing
    y. Block merging preserves the mean and the fit is idempotent.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("isotonic fit expects a 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("isotonic fit expects finite values")
    block_val: list[float] = []
    block_len: list[int] = []
    for v in x.tolist():
        block_val.append(v)
        block_len.append(1)
        while len(block_val) > 1 and block_val[-2] > block_val[-1]:
            v2 = block_val.pop()
            c2 = block_len.pop()
            c1 = block_len[-1]
            block_val[-1] = (block_val[-1] * c1 + v2 * c2) / (c1 + c2)
            block_len[-1] = c1 + c2
    return np.repeat(block_val, block_len)


def monotone_repair(curve: np.ndarray) -> np.ndarray:
    """Isotonic fit clamped into [0, 1], the valid range of a CDF level."""
    return np.clip(isotonic_fit(curve), 0.0, 1.0)
