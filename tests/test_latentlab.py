import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage
from scipy.spatial import cKDTree

from distatlas.classifier import Classifier, latent_classifier_layers
from distatlas.latentlab import (
    DensityField,
    WoeField,
    _label,
    _nearest,
    estimate_density,
    class_map,
    latent_axes,
    lattice,
    overlap_matrix,
    segment,
    segment_names,
    silverman_bandwidth,
    standard_normal_logpdf,
    trajectories,
    woe_map,
)
from distatlas.neuralcore import build_nets


class FakePoints:
    def __init__(self, z, labels=None, entropy=None, skewness=None):
        self.z = np.asarray(z, dtype=float)
        n = self.z.shape[0]
        self.labels = np.zeros(n, dtype=int) if labels is None else np.asarray(labels)
        self.entropy = np.zeros(n) if entropy is None else np.asarray(entropy, dtype=float)
        self.skewness = np.zeros(n) if skewness is None else np.asarray(skewness, dtype=float)


def analytic_normal_field(bounds=((-5.0, 5.0), (-5.0, 5.0)), resolution=101):
    field = DensityField(bounds=list(bounds), density=np.zeros((resolution, resolution)))
    field.density = np.exp(standard_normal_logpdf(field))
    return field


class TestEstimateDensity:
    def test_integral_is_one(self):
        rng = np.random.default_rng(0)
        field = estimate_density(rng.standard_normal((5000, 2)), resolution=60, bounds=None)
        assert field.integral() == pytest.approx(1.0, abs=1e-6)

    def test_peak_at_tight_cluster(self):
        rng = np.random.default_rng(1)
        z = np.vstack([rng.normal((2.0, -1.0), 0.05, (900, 2)),
                       rng.uniform(-4, 4, (100, 2))])
        field = estimate_density(z, resolution=50, bounds=None)
        i, j = np.unravel_index(np.argmax(field.density), field.density.shape)
        assert abs(field.centers(0)[i] - 2.0) < 0.3
        assert abs(field.centers(1)[j] + 1.0) < 0.3

    def test_standard_normal_origin_value(self):
        # at this sample size the kernel smoothing bias stays inside 5%
        rng = np.random.default_rng(2)
        field = estimate_density(rng.standard_normal((100_000, 2)), resolution=100,
                                 bounds=None)
        i = np.argmin(np.abs(field.centers(0)))
        j = np.argmin(np.abs(field.centers(1)))
        assert field.density[i, j] == pytest.approx(1.0 / (2 * np.pi), rel=0.05)

    def test_rejects_small_sets(self):
        with pytest.raises(ValueError):
            estimate_density(np.zeros((50, 2)), resolution=100, bounds=None)

    def test_one_dimensional(self):
        rng = np.random.default_rng(3)
        field = estimate_density(rng.standard_normal((5000, 1)), resolution=80, bounds=None)
        assert field.density.shape == (80,)
        assert field.integral() == pytest.approx(1.0, abs=1e-6)
        i = np.argmin(np.abs(field.centers(0)))
        assert field.density[i] == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=0.1)

    def test_silverman_two_d(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((10_000, 2))
        h = silverman_bandwidth(z)
        expected = z.std(axis=0, ddof=1) * 10_000 ** (-1.0 / 6.0)
        np.testing.assert_allclose(h, expected, rtol=1e-12)


class TestWoe:
    def test_zero_for_analytic_standard_normal(self):
        woe = woe_map(analytic_normal_field())
        assert np.nanmax(np.abs(woe.woe[woe.valid])) < 1e-3

    def test_hand_value_at_origin(self):
        field = analytic_normal_field(resolution=5, bounds=((-1, 1), (-1, 1)))
        field.density[2, 2] = 0.3  # cell center exactly at the origin
        woe = woe_map(field)
        assert woe.woe[2, 2] == pytest.approx(np.log(0.3) + np.log(2 * np.pi), abs=1e-12)
        assert woe.woe[2, 2] == pytest.approx(0.63391, abs=1e-4)

    def test_zero_when_density_is_normal_value(self):
        field = analytic_normal_field(resolution=5, bounds=((-1, 1), (-1, 1)))
        field.density[2, 2] = 1.0 / (2 * np.pi)
        assert woe_map(field).woe[2, 2] == pytest.approx(0.0, abs=1e-12)

    def test_low_density_flagged(self):
        field = analytic_normal_field(bounds=((-1, 1), (-1, 1)), resolution=11)
        field.density[0, 0] = 0.0
        woe = woe_map(field)
        assert not woe.valid[0, 0]
        assert np.isnan(woe.woe[0, 0])


class TestSegment:
    def test_no_cells_for_zero_woe(self):
        woe = woe_map(analytic_normal_field())
        labels = segment(woe, w_star=2.5, p_min=0.025)
        assert labels.dtype == np.int32 and labels.shape == woe.woe.shape
        assert np.all(labels == 0)

    def test_single_spike_component(self):
        field = analytic_normal_field(bounds=((-5, 5), (-5, 5)), resolution=101)
        field.density = 0.95 * field.density
        # far spike well above the reference density
        field.density[85:88, 85:88] += 0.05 / (9 * 0.1 ** 2)
        labels = segment(woe_map(field), w_star=2.5, p_min=0.025)
        n_components = labels.max()
        assert n_components == 1
        spike = labels[86, 86]
        assert spike == 1
        names = segment_names(labels).reshape(labels.shape)
        assert names[86, 86] == "exceptional-1"
        assert names[50, 50] == "common"

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        field = estimate_density(
            np.vstack([rng.standard_normal((5000, 2)),
                       rng.normal((3.0, 3.0), 0.1, (500, 2))]), resolution=60, bounds=None)
        woe = woe_map(field)
        previous = None
        for w_star in (0.5, 1.5, 2.5, 4.0):
            count = int((segment(woe, w_star=w_star, p_min=0.025) > 0).sum())
            if previous is not None:
                assert count <= previous
            previous = count

    def test_requires_segments_for_names(self):
        # names come from segment's labels, one per cell in row-major order
        labels = np.array([[0, 2], [1, 0]], dtype=np.int32)
        assert segment_names(labels).tolist() == [
            "common", "exceptional-2", "exceptional-1", "common"]
        assert set(segment_names(segment(woe_map(analytic_normal_field()), w_star=2.5,
                                            p_min=0.025))) == {"common"}


def serpentine(rows: int, cols: int) -> np.ndarray:
    """Every other row set, joined at alternate ends: one component through every row."""
    mask = np.zeros((rows, cols), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def best_of(runs: int, call) -> float:
    """The fastest of runs calls, in seconds: the least disturbed by other work."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


class TestLabel:
    """The labeller against scipy.ndimage.label with its default structure, bit for bit."""

    @staticmethod
    def assert_matches_ndimage(mask):
        labels = _label(mask)
        expected, count = ndimage.label(mask)
        assert labels.dtype == expected.dtype == np.int32
        np.testing.assert_array_equal(labels, expected)
        assert labels.max(initial=0) == count

    @settings(max_examples=2000, deadline=None)
    @given(arrays(np.bool_, array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40)))
    def test_random_masks(self, mask):
        self.assert_matches_ndimage(mask)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2 ** 32))
    def test_masks_of_every_density(self, rows, cols, density, seed):
        mask = np.random.default_rng(seed).random((rows, cols)) < density
        self.assert_matches_ndimage(mask)
        self.assert_matches_ndimage(mask.ravel())

    @pytest.mark.parametrize("mask", [
        np.zeros((7, 9), dtype=bool), np.ones((7, 9), dtype=bool), np.zeros(5, dtype=bool),
        np.ones(5, dtype=bool), np.ones((1, 1), dtype=bool), np.array([True, False] * 6),
        np.array([[True, False, True, True, False, True]]), np.ones((6, 1), dtype=bool),
        np.eye(6, dtype=bool), serpentine(31, 17), serpentine(31, 17).T, serpentine(100, 100),
    ], ids=["empty", "full", "empty-1d", "full-1d", "one-cell", "alternating-1d", "one-row",
            "one-column", "diagonal", "serpentine", "serpentine-columns", "serpentine-100"])
    def test_edge_masks(self, mask):
        self.assert_matches_ndimage(mask)

    def test_numbers_components_in_raster_order_of_their_first_cell(self):
        # the right-hand component's first cell comes first, though its bulk lies lower
        mask = np.array([[0, 0, 0, 1],
                         [1, 0, 0, 1],
                         [1, 1, 0, 1],
                         [0, 0, 0, 1]], dtype=bool)
        np.testing.assert_array_equal(_label(mask), [[0, 0, 0, 1], [2, 0, 0, 1],
                                                     [2, 2, 0, 1], [0, 0, 0, 1]])

    def test_segment_labels_the_exceptional_cells(self):
        woe = np.array([[3.0, 3.0, 0.0], [0.0, np.nan, -3.0], [3.0, 0.0, -3.0]])
        field = WoeField(bounds=[(0, 1), (0, 1)], density=np.full((3, 3), 0.5), woe=woe,
                         valid=~np.isnan(woe))
        np.testing.assert_array_equal(segment(field, w_star=2.5, p_min=0.1),
                                      [[1, 1, 0], [0, 0, 2], [3, 0, 2]])
        assert not segment(field, w_star=2.5, p_min=0.6).any()

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5])
    def test_within_5_ms_on_a_100_by_100_lattice(self, density):
        mask = np.random.default_rng(14).random((100, 100)) < density
        assert best_of(5, lambda: _label(mask)) < 0.005


def brute_nearest(points, queries):
    """Lowest index among the points nearest each query, squared distances summed in axis order."""
    d2 = np.square(queries[:, None, 0] - points[None, :, 0])
    for axis in range(1, points.shape[1]):
        d2 += np.square(queries[:, None, axis] - points[None, :, axis])
    return np.argmin(d2, axis=1), d2


@st.composite
def point_sets(draw):
    """(points, queries): 1-D or 2-D, at scales far apart, with repeated points and queries
    placed on points, on rounded grids that make ties, or on one line."""
    seed = draw(st.integers(0, 2 ** 32))
    rng = np.random.default_rng(seed)
    d = draw(st.sampled_from([1, 2]))
    n, n_queries = draw(st.integers(1, 150)), draw(st.integers(1, 80))
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.sampled_from([0.0, 1e6]))
    points = rng.normal(size=(n, d)) * scale + offset
    queries = rng.normal(size=(n_queries, d)) * scale * draw(st.sampled_from([0.5, 3.0, 50.0]))
    queries += offset
    kind = draw(st.sampled_from(["plain", "repeats", "on-points", "rounded", "line"]))
    if kind == "repeats":
        points = points[rng.integers(0, n, n)]
    elif kind == "on-points":
        queries = points[rng.integers(0, n, n_queries)]
    elif kind == "rounded":
        points = np.round(points / scale * 2) * scale
        queries = np.round(queries / scale * 2) * scale
    elif kind == "line":
        points[:, 0] = offset
    return points, queries


class TestNearest:
    """The cell-grid search against cKDTree, with the lowest index among equally near points."""

    @settings(max_examples=400, deadline=None)
    @given(point_sets())
    def test_matches_ckdtree_and_breaks_ties_to_the_lowest_index(self, sets):
        points, queries = sets
        found = _nearest(points, queries)
        expected, d2 = brute_nearest(points, queries)
        np.testing.assert_array_equal(found, expected)
        distance, index = cKDTree(points).query(queries, k=1)
        rows = np.arange(len(queries))
        np.testing.assert_array_equal(d2[rows, index], d2[rows, found])
        # where one point alone is nearest, cKDTree names it too
        alone = (d2 == d2[rows, found][:, None]).sum(axis=1) == 1
        np.testing.assert_array_equal(found[alone], index[alone])

    def test_duplicate_points_go_to_the_lowest_index(self):
        points = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
        queries = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0, 0.0], [9.0, 9.0]])
        np.testing.assert_array_equal(_nearest(points, queries), [1, 0, 0, 0, 0])

    def test_a_tie_found_in_a_wider_box_goes_to_the_lower_index(self):
        # 100 points over a 30x30 box make 3-wide cells; the query sits mid-cell, so the
        # first box reaches 4.5 each way and holds point 1, (3, 4) off, but not point 0,
        # (5, 0) off at the same distance, which only the next box finds
        edge = np.linspace(0.0, 30.0, 25)
        side = np.linspace(1.2, 28.8, 24)
        filler = np.vstack([np.column_stack([edge, np.zeros(25)]),
                            np.column_stack([edge, np.full(25, 30.0)]),
                            np.column_stack([np.zeros(24), side]),
                            np.column_stack([np.full(24, 30.0), side])])
        points = np.vstack([[[21.5, 16.5], [19.5, 20.5]], filler])
        np.testing.assert_array_equal(_nearest(points, np.array([[16.5, 16.5]])), [0])

    def test_isolated_queries_far_off_the_grid(self):
        rng = np.random.default_rng(15)
        points = rng.normal(size=(3000, 2))
        queries = rng.normal(size=(200, 2)) * 0.1 + 30.0
        np.testing.assert_array_equal(_nearest(points, queries), brute_nearest(points, queries)[0])


def clustered_points(per_family: int, d: int = 2, seed: int = 16):
    """13 overlapping Gaussian families in the latent plane, family-major."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(13), per_family)
    z = (rng.normal(size=(13, d)) * 2.0)[labels] + rng.normal(size=(labels.size, d)) * 0.7
    return FakePoints(z, labels=labels)


def ckdtree_overlap(points):
    """overlap_matrix as cKDTree computes it: the reference."""
    scores = np.zeros((13, 13))
    for family_id in np.unique(points.labels):
        own = points.labels == family_id
        other_idx = np.flatnonzero(~own)
        _, nearest = cKDTree(points.z[other_idx]).query(points.z[own], k=1)
        scores[family_id] = np.bincount(points.labels[other_idx[nearest]],
                                        minlength=13) / own.sum()
    return scores


class TestTrajectories:
    def test_identical_points_single_waypoint(self):
        pts = FakePoints(np.tile([0.5, -0.5], (40, 1)),
                         entropy=np.full(40, 0.7), skewness=np.full(40, 0.2))
        trajs = trajectories(pts, n_entropy_bins=5, min_count=5)
        assert len(trajs) == 1
        assert len(trajs[0].waypoints) == 1
        assert trajs[0].waypoints[0].count == 40

    def test_positive_skew_family_has_one_branch(self):
        rng = np.random.default_rng(7)
        n = 300
        pts = FakePoints(rng.normal(size=(n, 2)), labels=np.full(n, 2),
                         entropy=rng.uniform(0.3, 0.9, n),
                         skewness=rng.uniform(0.05, 0.5, n))
        trajs = trajectories(pts, n_entropy_bins=20, min_count=20)
        assert len(trajs) == 1
        assert trajs[0].branch == "skew_pos"

    def test_mixed_skew_family_has_two_branances(self):
        rng = np.random.default_rng(8)
        n = 400
        skw = np.concatenate([rng.uniform(-0.5, -0.05, n // 2),
                              rng.uniform(0.05, 0.5, n // 2)])
        pts = FakePoints(rng.normal(size=(n, 2)), labels=np.full(n, 8),
                         entropy=rng.uniform(0.2, 0.95, n), skewness=skw)
        trajs = trajectories(pts, n_entropy_bins=20, min_count=20)
        assert {t.branch for t in trajs} == {"skew_neg", "skew_pos"}

    def test_minor_branch_merged(self):
        rng = np.random.default_rng(9)
        n = 200
        skw = np.concatenate([np.full(5, -0.3), rng.uniform(0.05, 0.5, n - 5)])
        pts = FakePoints(rng.normal(size=(n, 2)), labels=np.zeros(n, dtype=int),
                         entropy=rng.uniform(0, 1, n), skewness=skw)
        trajs = trajectories(pts, n_entropy_bins=20, min_count=20)
        assert len(trajs) == 1
        assert sum(w.count for w in trajs[0].waypoints) == n

    def test_waypoints_strictly_increase(self):
        rng = np.random.default_rng(10)
        n = 500
        pts = FakePoints(rng.normal(size=(n, 2)), labels=np.zeros(n, dtype=int),
                         entropy=rng.choice([0.1, 0.4, 0.4, 0.4, 0.8], n),
                         skewness=rng.uniform(0.1, 0.2, n))
        for traj in trajectories(pts, n_entropy_bins=10, min_count=10):
            entropies = [w.entropy for w in traj.waypoints]
            assert all(a < b for a, b in zip(entropies, entropies[1:]))

    def test_small_family_fewer_bins(self):
        rng = np.random.default_rng(11)
        n = 30
        pts = FakePoints(rng.normal(size=(n, 2)), labels=np.zeros(n, dtype=int),
                         entropy=rng.uniform(0, 1, n), skewness=np.full(n, 0.3))
        trajs = trajectories(pts, n_entropy_bins=20, min_count=20)
        assert len(trajs[0].waypoints) == 1


class TestClassMap:
    class ConstantModel:
        def predict_proba(self, z):
            probs = np.zeros((z.shape[0], 13))
            probs[:, 4] = 1.0
            return probs

    def test_constant_classifier(self):
        cmap = class_map(self.ConstantModel(), latent_axes([(-1, 1), (-1, 1)], 10))
        assert cmap.shape == (100,)
        assert np.all(cmap == 4)

    def test_two_by_two(self):
        cmap = class_map(self.ConstantModel(), latent_axes([(-1, 1), (-1, 1)], 2))
        assert cmap.size == 4

    def test_one_dimensional(self):
        cmap = class_map(self.ConstantModel(), latent_axes([(-2, 2)], 7))
        assert cmap.shape == (7,)

    def test_labels_are_the_arg_max_of_the_model(self):
        # 23x23 points: one full 512-row slice and a 17-row tail
        (net,), _, _ = build_nets([latent_classifier_layers(2)], [3])
        axes = latent_axes([(-3.0, 3.0), (-3.0, 3.0)], 23)
        cmap = class_map(Classifier(net), axes)
        assert cmap.dtype == np.intp
        np.testing.assert_array_equal(cmap, np.argmax(net(lattice(axes)), axis=1))

    def test_peak_stays_near_one_layer_output(self):
        # a 100x100 lattice is 19 full 512-row slices and a tail; one slice's 1,024-wide
        # layer (4 MiB) is the largest array, beside the 160 kB lattice and the labels
        (net,), _, _ = build_nets([latent_classifier_layers(2)], [3])
        tracemalloc.start()
        try:
            class_map(Classifier(net), latent_axes([(-3.0, 3.0), (-3.0, 3.0)], 100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestOverlap:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(400, 2))
        labels = rng.integers(0, 13, 400)
        scores = overlap_matrix(FakePoints(z, labels=labels))
        present = np.unique(labels)
        np.testing.assert_allclose(scores[present].sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(scores) == 0.0)

    def test_interleaved_pair_dominates(self):
        rng = np.random.default_rng(13)
        far_a = rng.normal((-30, -30), 0.1, (100, 2))
        far_b = rng.normal((30, 30), 0.1, (100, 2))
        mixed_a = rng.normal((0, 0), 0.5, (100, 2))
        mixed_b = rng.normal((0, 0), 0.5, (100, 2))
        z = np.vstack([far_a, far_b, mixed_a, mixed_b])
        labels = np.repeat([0, 1, 2, 3], 100)
        scores = overlap_matrix(FakePoints(z, labels=labels))
        assert scores[2, 3] > 0.9
        assert scores[3, 2] > 0.9
        # the isolated clusters are nearer the central mix than each other
        assert scores[0, 2] + scores[0, 3] > 0.9

    @pytest.mark.parametrize("per_family, d", [(100, 2), (400, 2), (230, 1)])
    def test_matches_ckdtree(self, per_family, d):
        points = clustered_points(per_family, d)
        np.testing.assert_array_equal(overlap_matrix(points), ckdtree_overlap(points))

    def test_a_neighbour_two_families_share_counts_for_the_first_in_point_order(self):
        # identical encodings in two families, as degenerate series give at paper scale
        z = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 5.0]]
        scores = overlap_matrix(FakePoints(z, labels=[0, 2, 1, 1]))
        assert scores[0, 2] == 1.0 and scores[0, 1] == 0.0

    def test_one_family_scores_nothing(self):
        scores = overlap_matrix(FakePoints(np.random.default_rng(17).normal(size=(50, 2)),
                                           labels=np.full(50, 3)))
        assert not scores.any()

    def test_within_20_ms_at_1300_points(self):
        points = clustered_points(100)
        assert best_of(5, lambda: overlap_matrix(points)) < 0.020

    def test_paper_scale_within_1_5_s_and_20_mb(self):
        # 9,000 per family, 117,000 points: queries go through the grid in blocks
        points = clustered_points(9000)
        tracemalloc.start()
        try:
            scores = overlap_matrix(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)
        assert best_of(2, lambda: overlap_matrix(points)) < 1.5
