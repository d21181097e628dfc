"""The latent plane: its lattices, density, WOE segmentation, trajectories.

Every lattice over the plane is the row-major product (lattice) of
per-dimension axes: inclusive ones (latent_axes) for the class map and
the decoded curves, cell centers for the density. The posterior density
of the encodings is estimated with a Gaussian kernel on the cell
centers and compared against the standard isotropic normal through the
weight-of-evidence log ratio. Cells where |WOE| clears a threshold at
non-negligible density are grouped into connected exceptional regions.
Per-family trajectories order the encodings by information entropy;
branch structure follows the sign of the skewness. The overlap matrix
counts each family's nearest foreign neighbors. Numpy does all of it:
the component labelling and the neighbor search are written out here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distgen import N_FAMILIES
from .neuralcore import _map_batches

DEFAULT_DENSITY_RESOLUTION = 100
DEFAULT_W_STAR = 2.5
DEFAULT_P_MIN = 0.025
DENSITY_FLOOR = 1e-12
# the fewest points estimate_density accepts
MIN_DENSITY_POINTS = 100
MINOR_BRANCH_FRAC = 0.10
BOUNDS_MARGIN = 0.10
# class_map's slice: the latent classifier's 1,024-wide hidden layer is then 4 MiB
CLASS_MAP_ROWS = 512
# overlap_matrix's nearest-neighbor search: queries per block, candidate pairs at once
NEAREST_QUERIES = 4096
NEAREST_PAIRS = 1 << 16


def default_latent_bounds(z: np.ndarray) -> list:
    """Per-dimension 1st..99th percentile box, each side padded by BOUNDS_MARGIN of its span."""
    bounds = []
    for j in range(z.shape[1]):
        lo, hi = np.percentile(z[:, j], [1.0, 99.0])
        pad = (hi - lo) * BOUNDS_MARGIN if hi > lo else 1.0
        bounds.append((float(lo - pad), float(hi + pad)))
    return bounds


def latent_axes(bounds, resolution: int) -> list:
    """Per dimension, resolution evenly spaced values from lo to hi inclusive."""
    return [np.linspace(lo, hi, resolution) for lo, hi in bounds]


def lattice(axes) -> np.ndarray:
    """Every point of the product of the axes in row-major order; shape (n, d)."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


@dataclass
class DensityField:
    """Gridded density estimate on a 1D or 2D lattice of cell centers."""

    bounds: list                 # [(lo, hi)] per dimension
    density: np.ndarray          # (nx,) or (nx, ny), nonnegative

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    def centers(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        n = self.density.shape[axis]
        step = (hi - lo) / n
        return lo + (np.arange(n) + 0.5) * step

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for axis, (lo, hi) in enumerate(self.bounds):
            vol *= (hi - lo) / self.density.shape[axis]
        return vol

    def integral(self) -> float:
        return float(self.density.sum() * self.cell_volume)


@dataclass
class WoeField(DensityField):
    """WOE over a density lattice; ``valid`` marks the cells above the floor, where it is set."""

    woe: np.ndarray
    valid: np.ndarray


def silverman_bandwidth(z: np.ndarray) -> tuple:
    """Normal-reference bandwidth per dimension: sd * (4/(d+2))^(1/(d+4)) * n^(-1/(d+4))."""
    n, d = z.shape
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    sd = z.std(axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    return tuple(float(s * factor) for s in sd)


def estimate_density(z: np.ndarray, resolution: int, bounds) -> DensityField:
    """Gaussian-kernel density of the (n, d) points z on a lattice of cell centers.

    The estimate is renormalized so it integrates to exactly 1 over the
    lattice, resolution cells per dimension. ``bounds`` is [(lo, hi)] per
    dimension, or None for the data range padded by 5 percent; the
    bandwidth is the normal-reference rule.
    """
    n, d = z.shape
    if n < MIN_DENSITY_POINTS:
        raise ValueError(f"density estimation needs at least {MIN_DENSITY_POINTS} points, got {n}")
    if d not in (1, 2):
        raise ValueError("density estimation supports 1 or 2 dimensions")
    if bounds is None:
        bounds = []
        for j in range(d):
            lo, hi = float(z[:, j].min()), float(z[:, j].max())
            pad = 0.05 * (hi - lo) if hi > lo else 1.0
            bounds.append((lo - pad, hi + pad))
    bounds = [tuple(map(float, b)) for b in bounds]
    bandwidth = silverman_bandwidth(z)
    field = DensityField(bounds=bounds, density=np.zeros((resolution,) * d))
    axes = [field.centers(j) for j in range(d)]

    def kernel(j: int, rows: slice) -> np.ndarray:
        """Unnormalized Gaussian weights, lattice centers by points, built in one buffer."""
        k = np.subtract.outer(axes[j], z[rows, j])
        k /= bandwidth[j]
        np.square(k, out=k)
        k *= -0.5
        return np.exp(k, out=k)

    if d == 1:
        total = sum(_map_batches(lambda rows: kernel(0, rows).sum(axis=1), n, 50000))
        density = total / (n * np.sqrt(2.0 * np.pi) * bandwidth[0])
    else:
        total = sum(_map_batches(lambda rows: kernel(0, rows) @ kernel(1, rows).T, n, 50000))
        density = total / (n * 2.0 * np.pi * bandwidth[0] * bandwidth[1])

    field.density = density
    mass = field.integral()
    if mass <= 0:
        raise ValueError("density estimate collapsed to zero mass")
    field.density = density / mass
    return field


def standard_normal_logpdf(field: DensityField) -> np.ndarray:
    """Log density of the standard isotropic normal at the lattice centers."""
    r2 = sum(c ** 2 for c in np.ix_(*(field.centers(j) for j in range(field.ndim))))
    return -0.5 * field.ndim * np.log(2.0 * np.pi) - 0.5 * r2


def woe_map(field: DensityField) -> WoeField:
    """Weight of evidence: log of estimated density over the standard normal.

    Cells below the density floor are flagged invalid and carry NaN
    rather than a diverging log.
    """
    valid = field.density >= DENSITY_FLOOR
    woe = np.full(field.density.shape, np.nan)
    with np.errstate(divide="ignore"):
        woe[valid] = np.log(field.density[valid]) - standard_normal_logpdf(field)[valid]
    return WoeField(bounds=field.bounds, density=field.density, woe=woe, valid=valid)


def segment(woe_field: WoeField, w_star: float, p_min: float) -> np.ndarray:
    """Label connected exceptional regions of the WOE lattice; int32, the lattice's shape.

    A cell is exceptional when |WOE| > w_star and its density is at
    least p_min; 4-connected components get labels 1..k in raster order
    of their first cell (_label) and everything else is common (0).
    """
    with np.errstate(invalid="ignore"):
        exceptional = woe_field.valid & (np.abs(woe_field.woe) > w_star) \
            & (woe_field.density >= p_min)
    return _label(exceptional)


def _label(mask: np.ndarray) -> np.ndarray:
    """Connected components of a 1-D or 2-D boolean lattice; int32, the lattice's shape.

    Cells touch their neighbours along each axis (4-connectivity in 2-D),
    and the components are numbered 1..k in raster order of their first
    cell, everything else 0: scipy.ndimage.label with its default
    structure. The nodes are the runs of set cells along each row, numbered
    in raster order; vertically adjacent cells join their runs. Each round
    hooks every root onto the smallest root it is joined to and then
    jumps pointers until every run points at its root, so a component's
    root is its first run (Hoshen & Kopelman's cluster labelling, with
    the union-find done a whole lattice at a time).
    """
    rows = mask.reshape(-1, mask.shape[-1])
    starts = rows.copy()
    starts[:, 1:] &= ~rows[:, :-1]
    # a set cell's run number, from 1; root[0] stands for no run and stays put
    run = np.cumsum(starts, axis=None).reshape(rows.shape)
    joined = rows[:-1] & rows[1:]
    upper, lower = run[:-1][joined], run[1:][joined]
    root = np.arange(run[-1, -1] + 1)
    while True:
        a, b = root[upper], root[lower]
        apart = a != b
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    first = root == np.arange(root.size)
    first[0] = False
    numbers = np.cumsum(first, dtype=np.int32)[root]
    return np.where(rows, numbers[run], 0).reshape(mask.shape)


def segment_names(labels: np.ndarray) -> np.ndarray:
    """Each cell's ``common`` or ``exceptional-k`` in row-major order; each named once."""
    labels = np.ravel(labels)
    names = ["common"] + [f"exceptional-{k}" for k in range(1, int(labels.max(initial=0)) + 1)]
    return np.array(names, dtype=object)[labels]


@dataclass(frozen=True)
class Waypoint:
    entropy: float
    z: np.ndarray
    count: int
    spread: float


@dataclass(frozen=True)
class Trajectory:
    family_id: int
    branch: str
    waypoints: list


def trajectories(points, n_entropy_bins: int, min_count: int) -> list:
    """Per-family latent paths ordered by increasing information entropy.

    Points split into branches by skewness sign; a branch holding less
    than MINOR_BRANCH_FRAC of the family folds into the dominant one.
    Within a branch, points are entropy-sorted and grouped into
    equal-count bins (at most n_entropy_bins, each at least min_count
    when possible); waypoints carry the bin's mean entropy, mean latent
    position, size, and RMS spread around the mean. Bins that do not
    strictly advance in entropy merge into their predecessor. points
    needs .z, .labels, .entropy and .skewness.
    """
    z = points.z
    labels = np.asarray(points.labels)
    ent = np.asarray(points.entropy, dtype=np.float64)
    skw = np.asarray(points.skewness, dtype=np.float64)
    out = []
    for family_id in np.unique(labels):
        fam = np.flatnonzero(labels == family_id)
        neg = fam[skw[fam] < 0]
        pos = fam[skw[fam] >= 0]
        if min(neg.size, pos.size) < MINOR_BRANCH_FRAC * fam.size:
            dominant = "skew_pos" if pos.size >= neg.size else "skew_neg"
            branches = [(dominant, fam)]
        else:
            branches = [("skew_neg", neg), ("skew_pos", pos)]
        for name, idx in branches:
            if idx.size == 0:
                continue
            order = idx[np.argsort(ent[idx], kind="stable")]
            n_bins = max(1, min(n_entropy_bins, order.size // max(1, min_count)))
            groups = [g for g in np.array_split(order, n_bins) if g.size]
            # fold bins whose mean entropy fails to strictly advance; the
            # epsilon absorbs float noise in means of tied entropy values
            merged: list[np.ndarray] = []
            for g in groups:
                merged.append(g)
                while len(merged) > 1 and (
                        ent[merged[-1]].mean() <= ent[merged[-2]].mean() + 1e-9):
                    last = merged.pop()
                    merged[-1] = np.concatenate([merged[-1], last])
            waypoints = []
            for g in merged:
                mean_z = z[g].mean(axis=0)
                spread = float(np.sqrt(np.mean(np.sum((z[g] - mean_z) ** 2, axis=1))))
                waypoints.append(Waypoint(float(ent[g].mean()), mean_z, int(g.size), spread))
            out.append(Trajectory(int(family_id), name, waypoints))
    return out


def class_map(latent_model, axes) -> np.ndarray:
    """Arg-max family id at each point of the lattice over the axes, in row-major order.

    The points go through the model CLASS_MAP_ROWS at a time, and each
    slice writes only its labels into the result.
    """
    points = lattice(axes)
    labels = np.empty(points.shape[0], dtype=np.intp)
    _map_batches(lambda rows: np.argmax(latent_model.predict_proba(points[rows]), axis=1,
                                        out=labels[rows]),
                 points.shape[0], CLASS_MAP_ROWS)
    return labels


def overlap_matrix(points) -> np.ndarray:
    """Nearest-foreign-neighbor association rates between families.

    Entry (i, j) is the fraction of family-i points whose nearest
    neighbor among all points of other families belongs to family j;
    of equally near neighbors the first in point order counts.
    Rows of present families sum to 1; absent families leave zero rows.
    points needs .z and .labels.
    """
    z = points.z
    labels = np.asarray(points.labels, dtype=np.int64)
    scores = np.zeros((N_FAMILIES, N_FAMILIES), dtype=np.float64)
    for family_id in np.unique(labels):
        own = labels == family_id
        other_idx = np.flatnonzero(~own)
        if other_idx.size == 0:
            continue
        nearest = _nearest(z[other_idx], z[own])
        counts = np.bincount(labels[other_idx[nearest]], minlength=N_FAMILIES)
        scores[family_id] = counts / own.sum()
    return scores


class _CellGrid:
    """2-D points sorted into a uniform grid over their bounding box, about one per cell.

    Cells are as near square as the box allows, at most one per point
    along each axis, and an axis the points do not spread along has one
    cell. The points are sorted by cell in row-major order, so each row's
    cells hold one run of them, and cell c's run is first[c]:first[c + 1].
    """

    def __init__(self, points: np.ndarray):
        n = points.shape[0]
        self.lo = points.min(axis=0)
        span = points.max(axis=0) - self.lo
        wide = span > 0
        side = (np.prod(span[wide]) / n) ** (1.0 / max(int(wide.sum()), 1))
        self.shape = np.where(wide, np.clip(np.ceil(span / side), 1, n), 1).astype(np.intp)
        self.scale = np.where(wide, self.shape / np.where(wide, span, 1.0), 0.0)
        # an axis of one cell never bounds a search, so its width is a placeholder
        self.width = np.where(wide, span / self.shape, 1.0)
        cells = self.cell(points) @ (self.shape[1], 1)
        self.order = np.argsort(cells, kind="stable")
        self.points = points[self.order]
        self.first = np.concatenate([[0], np.cumsum(np.bincount(cells, minlength=int(
            self.shape.prod())))])

    def cell(self, x: np.ndarray) -> np.ndarray:
        """The grid index of each point of x along each axis; outside points clip to the edge."""
        return np.clip(np.floor((x - self.lo) * self.scale), 0, self.shape - 1).astype(np.intp)


def _spans(start: np.ndarray, count: np.ndarray):
    """(which span, position) of every position start[i]..start[i] + count[i] - 1, in order;
    at least one span."""
    ends = np.cumsum(count)
    which = np.repeat(np.arange(count.size), count)
    return which, np.arange(ends[-1]) + (start - ends + count)[which]


def _nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query's nearest point among 1-D or 2-D points.

    Squared distances are summed in axis order, as scipy's cKDTree sums
    them, and of equally near points the lowest index wins. The points go
    into a _CellGrid (Bentley, Stanat & Williams' cell method for near
    neighbors). Each query searches a box of cells around its own: r = 1
    cell each way first, r doubled until the box holds a point, then each
    side moved out past the best distance so far, until no cell outside
    the box can hold a nearer point. Queries go NEAREST_QUERIES at a time,
    and at most NEAREST_PAIRS box rows or candidate points at once
    unless one query alone needs more.
    """
    if points.shape[1] == 1:
        # a leading axis of zeros adds 0.0 to every squared distance: the same bits
        points, queries = (np.column_stack([np.zeros(len(a)), a]) for a in (points, queries))
    grid = _CellGrid(points)
    edge = grid.shape - 1

    def block(rows: slice) -> np.ndarray:
        q = queries[rows]
        # positions in cell widths, whose floors, clipped, are the cells
        u = (q - grid.lo) * grid.scale
        home = grid.cell(q)
        best = np.full(q.shape[0], np.inf)
        found = np.full(q.shape[0], points.shape[0], dtype=np.intp)
        r = np.ones((q.shape[0], 1), dtype=np.intp)
        lo, hi = np.maximum(home - r, 0), np.minimum(home + r, edge)
        todo = np.arange(q.shape[0])
        while todo.size:
            _scan(grid, q, u, todo, lo[todo], hi[todo], best, found)
            # the cells outside the box start this many cell widths from the query, less a
            # slack for the rounding of the positions; a side at the grid's edge has none
            v = u[todo]
            gap = np.minimum(np.where(lo[todo] > 0, v - lo[todo], np.inf),
                             np.where(hi[todo] < edge, hi[todo] + 1 - v, np.inf)) - 1e-6
            d = np.sqrt(best[todo])[:, None]
            done = np.all(d < gap * grid.width, axis=1)
            todo, v, d = todo[~done], v[~done], d[~done]
            none = np.isinf(d[:, 0])
            # no point yet: twice the box around the query's own cell; else the cells
            # nearer than the best distance; and at least one more cell each way
            r[todo] *= 1 + none[:, None]
            reach = d / grid.width + 1e-6
            out_lo = np.where(none[:, None], home[todo] - r[todo], np.ceil(v - reach) - 1)
            out_hi = np.where(none[:, None], home[todo] + r[todo], np.floor(v + reach))
            lo[todo] = np.clip(np.minimum(out_lo, lo[todo] - 1), 0, edge)
            hi[todo] = np.clip(np.maximum(out_hi, hi[todo] + 1), 0, edge)
        return found

    return np.concatenate(_map_batches(block, queries.shape[0], NEAREST_QUERIES))


def _scan(grid: _CellGrid, q, u, who, lo, hi, best, found) -> None:
    """Fold the points in each query's box of cells lo..hi into its best and found.

    Cells of a row farther from the query than its best distance so far
    are skipped, so each row of the box is one run of columns. Queries
    whose rows or candidate points pass NEAREST_PAIRS go in two halves.
    """
    def halves() -> None:
        for part in np.array_split(np.arange(who.size), 2):
            _scan(grid, q, u, who[part], lo[part], hi[part], best, found)

    rows = hi[:, 0] - lo[:, 0] + 1
    if who.size > 1 and rows.sum() > NEAREST_PAIRS:
        return halves()
    row_of, row = _spans(lo[:, 0], rows)
    v = u[who[row_of]]
    # the row's distance from the query and the reach left along it, in cell widths;
    # a reach below zero leaves the row out
    across = np.maximum(np.maximum(row - v[:, 0], v[:, 0] - row - 1) - 1e-6, 0) * grid.width[0]
    across *= across
    bound = best[who[row_of]]
    reach = np.sqrt(np.maximum(bound - across, 0)) / grid.width[1] + 1e-6
    reach[across > bound] = -1.0
    left = np.clip(np.ceil(v[:, 1] - reach) - 1, lo[row_of, 1], hi[row_of, 1] + 1)
    right = np.clip(np.floor(v[:, 1] + reach), lo[row_of, 1] - 1, hi[row_of, 1])
    base = row * grid.shape[1]
    start = grid.first[base + left.astype(np.intp)]
    count = np.maximum(grid.first[base + right.astype(np.intp) + 1] - start, 0)
    if who.size > 1 and count.sum() > NEAREST_PAIRS:
        return halves()
    span_of, pos = _spans(start, count)
    if pos.size == 0:
        return
    # candidates come grouped by query, in query order
    owner = who[row_of[span_of]]
    d2 = np.square(q[owner, 0] - grid.points[pos, 0])
    d2 += np.square(q[owner, 1] - grid.points[pos, 1])
    heads = np.flatnonzero(np.concatenate([[True], owner[1:] != owner[:-1]]))
    near = np.minimum.reduceat(d2, heads)
    ties = d2 == np.repeat(near, np.diff(np.append(heads, owner.size)))
    first = np.minimum.reduceat(np.where(ties, grid.order[pos], grid.order.size), heads)
    owner = owner[heads]
    better = (near < best[owner]) | ((near == best[owner]) & (first < found[owner]))
    best[owner[better]] = near[better]
    found[owner[better]] = first[better]
