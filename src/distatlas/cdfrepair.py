"""Collapse decoded intensity grids to CDF curves and repair them.

Decoded grids are free-form intensity images, so the implied curve can
dip. The repair is the exact least-squares projection onto the
nondecreasing cone, solved by pool-adjacent-violators, followed by a
clamp to [0, 1]. grid_to_curve takes a stack of grids (a decoded
lattice); the repair takes one curve or a stack of them in one call,
with the same result per row.
"""

from __future__ import annotations

import numpy as np

# columns carrying less total intensity than this are interpolated
WEIGHT_FLOOR = 1e-6


def grid_to_curve(grids: np.ndarray) -> np.ndarray:
    """Reduce each grid of intensities to one cumulative level per x-bin.

    Each bin's level is the intensity-weighted mean of its occupied
    y-levels (level k contributing k/y_levels). Bins whose total
    intensity falls below WEIGHT_FLOOR are filled by linear
    interpolation from their neighbors; at the ends this extends the
    nearest resolved level. ``grids`` is a float64 stack (n, x_bins,
    y_levels) that one stacked matmul reduces to (n, x_bins) curves. A
    grid with no resolved bin raises ValueError.
    """
    if grids.ndim != 3:
        raise ValueError(f"expected a stack of 2-d intensity grids, got shape {grids.shape}")
    levels = np.arange(1, grids.shape[2] + 1, dtype=np.float64) / grids.shape[2]
    weight = grids.sum(axis=2)
    curves = np.matmul(grids, levels)
    with np.errstate(divide="ignore", invalid="ignore"):
        curves /= weight
    # a grid with an unresolved bin takes the one-grid path: the matmul of its resolved
    # bins alone, whose bits can differ from the whole grid's, then the interpolation
    resolved = weight >= WEIGHT_FLOOR
    idx = np.arange(curves.shape[1], dtype=np.float64)
    for k in np.flatnonzero(~resolved.all(axis=1)):
        ok = resolved[k]
        if not ok.any():
            raise ValueError("all-zero intensity grid has no curve")
        curves[k, ok] = (grids[k][ok] @ levels) / weight[k][ok]
        curves[k, ~ok] = np.interp(idx[~ok], idx[ok], curves[k, ok])
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
