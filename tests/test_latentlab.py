import tracemalloc

import numpy as np
import pytest

from distatlas.classifier import Classifier, latent_classifier_layers
from distatlas.latentlab import (
    DensityField,
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
