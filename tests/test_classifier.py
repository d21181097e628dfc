from dataclasses import asdict

import numpy as np
import pytest

from conftest import train_config
from distatlas import distgen
from distatlas.cdfcodec import GridShape, encode_cdf
from distatlas.classifier import (
    PARAM_COUNTS,
    confusion_from_predictions,
    default_latent_train_config,
    evaluate,
    load_classifier,
    predict,
    save_classifier,
    train_classifier,
    train_latent_classifier,
)
from distatlas.neuralcore import ShapeMismatchError, split_indices


@pytest.fixture(scope="module")
def small_dataset(corpus):
    return corpus(40, 777)


@pytest.fixture(scope="module")
def small_model(small_dataset):
    model, history = train_classifier(small_dataset, train_config(epochs=8, rng_seed=2))
    return model, history


class FakePoints:
    def __init__(self, z, labels):
        self.z = z
        self.labels = labels


class TestConfusionMatrix:
    def test_perfect_predictor(self):
        y = np.repeat(np.arange(13), 5)
        cm = confusion_from_predictions(y, y)
        assert cm.overall_accuracy == 1.0
        assert np.all(np.diag(cm.counts) == 5)
        assert np.all(cm.per_class_recall == 1.0)
        assert cm.simpler_confusion_rate == 0.0

    def test_constant_predictor(self):
        y = np.repeat(np.arange(13), 4)
        cm = confusion_from_predictions(y, np.full_like(y, 6))
        assert cm.overall_accuracy == pytest.approx(1 / 13)
        assert np.count_nonzero(cm.counts.sum(axis=0)) == 1

    def test_row_sums_match_counts(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 13, 500)
        p = rng.integers(0, 13, 500)
        cm = confusion_from_predictions(y, p)
        np.testing.assert_array_equal(cm.row_totals, np.bincount(y, minlength=13))
        assert cm.counts.sum() == 500

    def test_simpler_confusion_direction(self):
        # beta (2 varying params) predicted as normal (0) counts as simpler
        y = np.array([0, 0, 0, 0])
        p = np.array([5, 5, 0, 7])  # two simpler, one correct, one more complex
        cm = confusion_from_predictions(y, p)
        assert cm.simpler_confusion_rate == pytest.approx(2 / 3)
        assert cm.more_complex_confusion_rate == pytest.approx(1 / 3)

    def test_param_count_table(self):
        assert PARAM_COUNTS.tolist() == [2, 0, 0, 1, 1, 0, 0, 5, 1, 1, 1, 0, 0]


class TestTrainClassifier:
    def test_learns_above_chance(self, small_model):
        _, history = small_model
        assert history[-1].test_accuracy > 3 / 13

    def test_history_rows(self, small_model):
        _, history = small_model
        assert [h.epoch for h in history] == list(range(9))

    def test_deterministic(self, small_dataset):
        config = train_config(epochs=2, rng_seed=4)
        _, h1 = train_classifier(small_dataset, config)
        _, h2 = train_classifier(small_dataset, config)
        assert h1 == h2

    def test_single_family_dataset_is_trivial(self, corpus):
        ds = corpus(40, 5)
        keep = np.flatnonzero(ds.labels == 6)
        sub = distgen.LabeledDataset(
            grid_shape=ds.grid_shape, grids=ds.grids[keep], labels=ds.labels[keep],
            entropy=ds.entropy[keep], skewness=ds.skewness[keep],
            ks_uniform=ds.ks_uniform[keep], sample_sizes=ds.sample_sizes[keep],
            master_seed=5, per_family_count=40)
        _, history = train_classifier(sub, train_config(epochs=3, rng_seed=1))
        assert history[-1].test_accuracy == 1.0

    def test_empty_dataset_rejected(self, small_dataset):
        empty = distgen.LabeledDataset(
            grid_shape=small_dataset.grid_shape,
            grids=np.empty((0, 650), dtype=np.float32),
            labels=np.empty(0, dtype=np.int32), entropy=np.empty(0, dtype=np.float32),
            skewness=np.empty(0, dtype=np.float32), ks_uniform=np.empty(0, dtype=np.float32),
            sample_sizes=np.empty(0, dtype=np.int32), master_seed=0, per_family_count=0)
        with pytest.raises(ValueError):
            train_classifier(empty, train_config(epochs=50))


class TestPredict:
    def test_probabilities_sum_to_one(self, small_model):
        model, _ = small_model
        rng = np.random.default_rng(1)
        probs = model.predict_proba(rng.random((20, 650)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(20), atol=1e-12)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_accepts_cdfgrid(self, small_model):
        model, _ = small_model
        grid = encode_cdf(np.random.default_rng(2).random(300))
        probs = predict(model, grid)
        assert probs.shape == (13,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariant_prediction(self, small_model):
        model, _ = small_model
        values = np.random.default_rng(3).standard_normal(400)
        a = predict(model, encode_cdf(values))
        b = predict(model, encode_cdf(3.0 * values + 7.0))
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self, small_model):
        model, _ = small_model
        with pytest.raises(ShapeMismatchError):
            model.predict_proba(np.ones((1, 100)))


class TestEvaluate:
    def test_on_held_out(self, small_model, small_dataset):
        model, _ = small_model
        _, test_idx = split_indices(len(small_dataset), 2)
        cm = evaluate(model, small_dataset.grids, small_dataset.labels, test_idx)
        np.testing.assert_array_equal(
            cm.row_totals, np.bincount(small_dataset.labels[test_idx], minlength=13))
        assert 0.0 <= cm.overall_accuracy <= 1.0

    def test_indices_select_the_same_rows_as_a_gather(self, small_model, small_dataset):
        model, _ = small_model
        _, test_idx = split_indices(len(small_dataset), 2)
        gathered = evaluate(model, small_dataset.grids[test_idx], small_dataset.labels[test_idx],
                            np.arange(test_idx.shape[0]))
        indexed = evaluate(model, small_dataset.grids, small_dataset.labels, test_idx)
        np.testing.assert_array_equal(indexed.counts, gathered.counts)


class TestLatentClassifier:
    def test_separated_clusters(self):
        rng = np.random.default_rng(4)
        z = np.vstack([rng.normal((-5, -5), 0.2, (300, 2)),
                       rng.normal((5, 5), 0.2, (300, 2))])
        labels = np.repeat([3, 9], 300)
        model, accuracy = train_latent_classifier(
            FakePoints(z, labels), default_latent_train_config(epochs=12, seed=3))
        assert accuracy >= 0.99

    def test_probability_output(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(200, 2))
        labels = (z[:, 0] > 0).astype(int)
        model, _ = train_latent_classifier(
            FakePoints(z, labels), default_latent_train_config(epochs=2, seed=1))
        probs = model.predict_proba(np.array([[0.5, 0.0]]))
        assert probs.shape == (1, 13)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            train_latent_classifier(FakePoints(np.empty((0, 2)), np.empty(0, dtype=int)),
                                    default_latent_train_config(epochs=50, seed=0))


class TestCheckpoints:
    def test_grid_classifier_round_trip(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "clf.ckpt"
        save_classifier(path, model, train_config(epochs=8, rng_seed=2))
        clone, header = load_classifier(path)
        assert header["kind"] == "classifier"
        assert header["train_config"]["rng_seed"] == 2
        assert clone.grid_shape == GridShape() and clone.net.in_dim == 650
        x = np.random.default_rng(6).random((4, 650))
        np.testing.assert_array_equal(clone.predict_proba(x), model.predict_proba(x))

    def test_latent_classifier_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(200, 2))
        labels = rng.integers(0, 13, 200)
        config = default_latent_train_config(epochs=1, seed=1)
        model, _ = train_latent_classifier(FakePoints(z, labels), config)
        path = tmp_path / "latent.ckpt"
        save_classifier(path, model, config)
        clone, header = load_classifier(path)
        assert header["kind"] == "latent_classifier" and header["train_config"] == asdict(config)
        assert clone.grid_shape is None and clone.net.in_dim == 2
        np.testing.assert_array_equal(clone.predict_proba(z[:5]), model.predict_proba(z[:5]))
