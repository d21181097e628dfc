"""The latent plane: its lattices, density, WOE segmentation, trajectories.

Every lattice over the plane is the row-major product (lattice) of
per-dimension axes: inclusive ones (latent_axes) for the class map and
the decoded curves, cell centers for the density. The posterior density
of the encodings is estimated with a Gaussian kernel on the cell
centers and compared against the standard isotropic normal through the
weight-of-evidence log ratio. Cells where |WOE| clears a threshold at
non-negligible density are grouped into connected exceptional regions.
Per-family trajectories order the encodings by information entropy;
branch structure follows the sign of the skewness.
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
    least p_min; 4-connected components get labels 1..k and everything
    else is common (0).
    """
    with np.errstate(invalid="ignore"):
        exceptional = woe_field.valid & (np.abs(woe_field.woe) > w_star) \
            & (woe_field.density >= p_min)
    from scipy import ndimage

    labels, _ = ndimage.label(exceptional)
    return labels.astype(np.int32)


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
    neighbor among all points of other families belongs to family j.
    Rows of present families sum to 1; absent families leave zero rows.
    points needs .z and .labels.
    """
    from scipy.spatial import cKDTree

    z = points.z
    labels = np.asarray(points.labels, dtype=np.int64)
    scores = np.zeros((N_FAMILIES, N_FAMILIES), dtype=np.float64)
    for family_id in np.unique(labels):
        own = labels == family_id
        other_idx = np.flatnonzero(~own)
        if other_idx.size == 0 or not own.any():
            continue
        tree = cKDTree(z[other_idx])
        _, nearest = tree.query(z[own], k=1)
        neighbor_labels = labels[other_idx[nearest]]
        counts = np.bincount(neighbor_labels, minlength=N_FAMILIES)
        scores[family_id] = counts / own.sum()
    return scores
