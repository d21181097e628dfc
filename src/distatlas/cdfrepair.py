"""Collapse decoded intensity grids to CDF curves and repair them.

Decoded grids are free-form intensity images, so the implied curve can
dip. The repair is the exact least-squares projection onto the
nondecreasing cone, solved by pool-adjacent-violators, followed by a
clamp to [0, 1]. Each function takes one grid or curve, or a stack of
them (a decoded lattice) in one call, with the same result per row.
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
    nearest resolved level. ``grid`` is one (x_bins, y_levels) grid, or
    a stack (n, x_bins, y_levels) that one stacked matmul reduces to
    (n, x_bins) curves. A grid with no resolved bin raises ValueError.
    """
    cells = grid.cells if isinstance(grid, CdfGrid) else np.asarray(grid, dtype=np.float64)
    if cells.ndim not in (2, 3):
        raise ValueError(f"expected a 2-d intensity grid or a stack of them, got shape {cells.shape}")
    levels = np.arange(1, cells.shape[-1] + 1, dtype=np.float64) / cells.shape[-1]
    weight = cells.sum(axis=-1)
    curves = np.matmul(cells, levels)
    with np.errstate(divide="ignore", invalid="ignore"):
        curves /= weight
    # a grid with an unresolved bin takes the one-grid path: the matmul of its resolved
    # bins alone, whose bits can differ from the whole grid's, then the interpolation
    grids = cells.reshape(-1, *cells.shape[-2:])
    rows, weight = curves.reshape(grids.shape[:2]), weight.reshape(grids.shape[:2])
    resolved = weight >= WEIGHT_FLOOR
    idx = np.arange(rows.shape[1], dtype=np.float64)
    for k in np.flatnonzero(~resolved.all(axis=1)):
        ok = resolved[k]
        if not ok.any():
            raise ValueError("all-zero intensity grid has no curve")
        rows[k, ok] = (grids[k][ok] @ levels) / weight[k][ok]
        rows[k, ~ok] = np.interp(idx[~ok], idx[ok], rows[k, ok])
    return curves


def isotonic_fit(values: np.ndarray) -> np.ndarray:
    """Least-squares nondecreasing fit by pool-adjacent-violators, per row.

    Returns the unique minimizer of sum((y - x)^2) over nondecreasing
    y, for a 1-d sequence or for each row of a 2-d array. Block merging
    preserves the mean and the fit is idempotent. All rows run in
    lockstep: each column is pushed onto every row's stack of blocks,
    and the top two blocks of the rows where they violate the order
    merge until no row has a violation, so each row sees the merges of
    the one-row stack algorithm, in its order, bit for bit.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("isotonic fit expects a 1-d sequence or a 2-d array of rows")
    if not np.all(np.isfinite(x)):
        raise ValueError("isotonic fit expects finite values")
    rows = np.atleast_2d(x)
    n, m = rows.shape
    # per row, blocks 0..top[r] of the stack: their means and lengths
    means = np.empty_like(rows)
    sizes = np.empty_like(rows)
    top = np.full(n, -1)
    every = np.arange(n)
    for j in range(m):
        top += 1
        means[every, top] = rows[:, j]
        sizes[every, top] = 1.0
        live = every
        while live.size:
            # the rows whose top two blocks violate the order; only a merged row can again
            t = top[live]
            live, t = live[t > 0], t[t > 0]
            violated = means[live, t - 1] > means[live, t]
            live, t = live[violated], t[violated]
            c1, c2 = sizes[live, t - 1], sizes[live, t]
            means[live, t - 1] = (means[live, t - 1] * c1 + means[live, t] * c2) / (c1 + c2)
            sizes[live, t - 1] = c1 + c2
            top[live] -= 1
    kept = np.arange(m) <= top[:, None]
    return np.repeat(means[kept], sizes[kept].astype(np.intp)).reshape(x.shape)


def monotone_repair(curve: np.ndarray) -> np.ndarray:
    """Isotonic fit clamped into [0, 1], the valid range of a CDF level, per row."""
    return np.clip(isotonic_fit(curve), 0.0, 1.0)
