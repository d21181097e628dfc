import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import train_config
from distatlas import betavae, classifier, distgen
from distatlas.betavae import (
    LatentPoints,
    VaeModel,
    encode_dataset,
    generate_latent_grid,
    kl_per_example,
    load_vae,
    reparameterize,
    save_vae,
    train_bvae,
    vae_grad_check,
)
from distatlas.cdfcodec import GridShape
from distatlas.classifier import (
    Classifier,
    default_latent_train_config,
    grid_classifier_layers,
    latent_classifier_layers,
    load_classifier,
    save_classifier,
)
from distatlas.latentlab import default_latent_bounds, latent_axes, lattice
from distatlas.neuralcore import ShapeMismatchError, build_nets, load_model


@pytest.fixture(scope="module")
def tiny_dataset(corpus):
    return corpus(20, 321)


@pytest.fixture(scope="module")
def tiny_model(tiny_dataset):
    model, history = train_bvae(tiny_dataset, beta=3.0, latent_dim=2,
                                config=train_config(epochs=4, rng_seed=5))
    return model, history


class TestKl:
    def test_zero_at_standard_normal(self):
        assert kl_per_example(np.zeros((1, 2)), np.zeros((1, 2))).sum() == 0.0

    def test_hand_value(self):
        # mu = (1, 0), logvar = 0: KL = 0.5 * mu^2 = 0.5
        kl = kl_per_example(np.array([[1.0, 0.0]]), np.zeros((1, 2))).sum()
        assert kl == pytest.approx(0.5, abs=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu = rng.normal(size=2)
            logvar = rng.normal(size=2)
            assert kl_per_example(mu[None], logvar[None]).sum() >= 0.0

    def test_monte_carlo_agreement(self):
        # analytic KL vs sample estimate of E_q[log q - log p]
        mu = np.array([0.5, -1.0])
        sigma = np.array([0.7, 1.3])
        logvar = 2.0 * np.log(sigma)
        rng = np.random.default_rng(42)
        z = mu + sigma * rng.standard_normal((200_000, 2))
        log_q = -0.5 * np.sum(((z - mu) / sigma) ** 2, axis=1) - np.log(sigma).sum()
        log_p = -0.5 * np.sum(z ** 2, axis=1)
        estimate = float(np.mean(log_q - log_p))
        assert kl_per_example(mu[None], logvar[None]).sum() == pytest.approx(estimate, rel=0.01)

    def test_batch_version(self):
        mu = np.array([[0.0, 0.0], [1.0, 0.0]])
        logvar = np.zeros((2, 2))
        np.testing.assert_allclose(kl_per_example(mu, logvar), [0.0, 0.5])


class TestReparameterize:
    def test_zero_eps_returns_mu(self):
        mu = np.array([[0.3, -0.7]])
        np.testing.assert_array_equal(reparameterize(mu, np.zeros((1, 2)), np.zeros((1, 2))), mu)

    def test_unit_logvar_zero(self):
        z = reparameterize(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))
        assert z[0, 0] == 2.0

    def test_empirical_mean(self):
        rng = np.random.default_rng(7)
        mu = np.array([0.4, -0.2])
        eps = rng.standard_normal((100_000, 2))
        z = reparameterize(mu, np.zeros(2), eps)
        assert np.all(np.abs(z.mean(axis=0) - mu) < 0.02)


class TestModel:
    def test_rejects_bad_latent_dim(self):
        with pytest.raises(ValueError):
            VaeModel(GridShape(), beta=3.0, latent_dim=3)

    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf")])
    def test_rejects_beta_outside_zero_to_inf(self, beta):
        with pytest.raises(ValueError):
            VaeModel(GridShape(8, 6), beta=beta, latent_dim=2)

    def test_encode_decode_shapes(self):
        model = VaeModel(GridShape(), beta=3.0, latent_dim=2, seed=1)
        grids = np.random.default_rng(0).random((5, 650))
        mu, sigma = model.encode(grids)
        assert mu.shape == (5, 2) and sigma.shape == (5, 2)
        assert np.all(sigma > 0)
        decoded = model.decode(mu)
        assert decoded.shape == (5, 650)
        assert np.all(decoded > 0) and np.all(decoded < 1)

    def test_encode_deterministic(self):
        model = VaeModel(GridShape(), beta=3.0, latent_dim=2, seed=2)
        grid = np.random.default_rng(1).random((1, 650))
        a = model.encode(grid)
        b = model.encode(grid)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_encode_matches_the_cached_forward_bit_for_bit(self):
        model = VaeModel(GridShape(), beta=3.0, latent_dim=2, seed=4)
        grids = np.random.default_rng(2).random((7, 650)).astype(np.float32)
        grids[3] = np.nan
        with np.errstate(invalid="ignore"):
            mu, sigma = model.encode(grids)
            _, _, mu_acts, _, logvar, _ = model._forward(grids, np.zeros((7, 2)))
        np.testing.assert_array_equal(mu.view(np.int64), mu_acts[-1].view(np.int64))
        np.testing.assert_array_equal(sigma.view(np.int64), np.exp(0.5 * logvar).view(np.int64))

    def test_shape_mismatch(self):
        model = VaeModel(GridShape(), beta=3.0, latent_dim=2, seed=3)
        with pytest.raises(ShapeMismatchError):
            model.encode(np.ones((2, 100)))
        with pytest.raises(ShapeMismatchError):
            model.decode(np.ones((2, 3)))

    def test_gradients_match_finite_differences(self):
        model = VaeModel(GridShape(8, 6), beta=3.0, latent_dim=2, seed=4)
        rng = np.random.default_rng(5)
        batch = rng.random((6, 48))
        eps = rng.standard_normal((6, 2))
        assert vae_grad_check(model, batch, eps, seed=6) < 1e-4

    def test_params_and_grads_are_views_of_one_vector(self):
        def assert_laid_out(vector, views, layers):
            # each view covers exactly the next slice of vector, in param_shapes order
            assert [v.shape for v in views] == [
                shape for s in layers for shape in ((s.in_dim, s.out_dim), (s.out_dim,))]
            offset = 0
            for view in views:
                assert view.flags.c_contiguous
                assert np.shares_memory(view, vector[offset:offset + view.size])
                assert not np.shares_memory(view, vector[:offset])
                assert not np.shares_memory(view, vector[offset + view.size:])
                offset += view.size
            assert offset == vector.size

        model = VaeModel(GridShape(8, 6), beta=3.0, latent_dim=2, seed=3)
        nets = (model.trunk, model.mu_head, model.logvar_head, model.decoder)
        layers = [s for net in nets for s in net.layers]
        assert_laid_out(model.flat, [p for net in nets for p in net.params], layers)
        assert_laid_out(model.grad, [g for net in nets for g in net.grads], layers)
        (net,), _, _ = build_nets([model.decoder.layers], [0])
        assert_laid_out(net.flat, net.params, net.layers)
        assert_laid_out(net.grad, net.grads, net.layers)

        # backward writes every entry of the uninitialized gradient vector
        model.grad[:] = np.nan
        rng = np.random.default_rng(4)
        model.loss_gradients(rng.random((5, 48)), rng.standard_normal((5, 2)))
        assert np.all(np.isfinite(model.grad))

        # SHA-256 of the concatenated initial params, pinned from before the flat layout
        for seed, digest in [
                (0, "31c6c0f5208c52e8fd14869129094b3e10a79250b62463da12732cf51decaf36"),
                (1, "461c50876c9ddb230c5fbae877f9c4c6f309deaee3590652fcda4f1e12fa5883")]:
            flat = VaeModel(GridShape(), beta=3.0, latent_dim=2, seed=seed).flat
            assert hashlib.sha256(flat.tobytes()).hexdigest() == digest
        # the classifiers' initial params at seed mix64(0, 1), pinned from the per-net draw
        for layers, digest in [
                (grid_classifier_layers(650),
                 "548b75d886ee8afeab13dd10ea6240a804706a2f3e6bb826d4db3e6fa2b54411"),
                (latent_classifier_layers(2),
                 "5820c3fa85f11db7a9af5546709e0c3edad52e7ebaef8cb993d708da756ea0cc")]:
            _, flat, _ = build_nets([layers], [distgen.mix64(0, 1)])
            assert hashlib.sha256(flat.tobytes()).hexdigest() == digest

    def test_gradients_latent_dim_one(self):
        model = VaeModel(GridShape(8, 6), beta=3.0, latent_dim=1, seed=7)
        rng = np.random.default_rng(8)
        batch = rng.random((6, 48))
        eps = rng.standard_normal((6, 1))
        assert vae_grad_check(model, batch, eps, seed=9) < 1e-4


class TestTraining:
    def test_history_shape_and_progress(self, tiny_model):
        _, history = tiny_model
        assert [h.epoch for h in history] == [0, 1, 2, 3, 4]
        assert history[-1].test_bce < history[0].test_bce

    def test_deterministic_history(self, tiny_dataset):
        config = train_config(epochs=2, rng_seed=9)
        _, h1 = train_bvae(tiny_dataset, beta=3.0, latent_dim=2, config=config)
        _, h2 = train_bvae(tiny_dataset, beta=3.0, latent_dim=2, config=config)
        assert h1 == h2

    def test_beta_zero_reconstructs_better(self, tiny_dataset):
        _, h_plain = train_bvae(tiny_dataset, beta=0.0, latent_dim=2,
                                config=train_config(epochs=4, rng_seed=5))
        _, h_beta = train_bvae(tiny_dataset, beta=3.0, latent_dim=2,
                               config=train_config(epochs=4, rng_seed=5))
        assert h_plain[-1].test_bce < h_beta[-1].test_bce

    def test_latent_dim_one_runs(self, tiny_dataset):
        model, history = train_bvae(tiny_dataset, beta=3.0, latent_dim=1,
                                    config=train_config(epochs=2, rng_seed=3))
        assert model.latent_dim == 1
        mu, sigma = model.encode(tiny_dataset.grids[:4].astype(np.float64))
        assert mu.shape == (4, 1)
        assert history[-1].test_bce < history[0].test_bce


def _random_corpus(n: int) -> distgen.LabeledDataset:
    """n random float32 rows on a 16x15 grid, typed like a loaded cache."""
    grid = GridShape(16, 15)
    rng = np.random.default_rng(n)
    stats = rng.random((3, n), dtype=np.float32)
    return distgen.LabeledDataset(grid, rng.random((n, grid.n_cells), dtype=np.float32),
                                  rng.integers(0, 13, n, dtype=np.int32), *stats,
                                  np.full(n, 500, dtype=np.int32), 0, n // 13)


def _evaluate_fresh_net(dataset):
    (net,), _, _ = build_nets([grid_classifier_layers(dataset.grid_shape.n_cells)], [1])
    return classifier.evaluate(Classifier(net, dataset.grid_shape), dataset.grids, dataset.labels,
                               np.arange(len(dataset)))


# each corpus reader (one epoch for the trainers) with a row count whose 33 % test
# split already fills its evaluation slice (1,024 rows for the beta-VAE, 2,048 for
# the grid classifier; evaluate reads all 2,048 rows), so that doubling the corpus
# grows only what the reader holds per row, not a slice that was still filling up
CORPUS_READERS = {
    "train_bvae": (3200, lambda dataset: train_bvae(
        dataset, beta=3.0, latent_dim=2, config=train_config(epochs=1))),
    "train_classifier": (6400, lambda dataset: classifier.train_classifier(
        dataset, train_config(epochs=1))),
    "evaluate": (2048, _evaluate_fresh_net),
}


class TestCorpusMemory:
    @pytest.mark.parametrize("reader", CORPUS_READERS)
    def test_doubling_the_corpus_adds_less_than_a_float64_copy_of_it(self, reader):
        n, read = CORPUS_READERS[reader]
        peaks = []
        for rows in (n, 2 * n):
            dataset = _random_corpus(rows)
            tracemalloc.start()
            try:
                read(dataset)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 8 * n * GridShape(16, 15).n_cells


class TestHeldOutMemory:
    def test_one_pass_over_a_full_slice_peaks_under_15_mb(self):
        # 1,024 float32 rows of the 26x25 grid: the gathered rows, the decoded output and
        # the BCE's buffer of terms; float64 rows beside three slice-sized BCE temporaries
        # peaked at 26.7 MB
        grids = np.random.default_rng(3).random((1024, 650), dtype=np.float32)
        model = VaeModel(GridShape(), beta=3.0, latent_dim=2, seed=1)
        tracemalloc.start()
        try:
            betavae._dataset_eval(model, grids, np.arange(1024))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 15_000_000


class TestEncodeDataset:
    def test_carries_stats(self, tiny_model, tiny_dataset):
        model, _ = tiny_model
        points = encode_dataset(model, tiny_dataset)
        assert len(points) == len(tiny_dataset)
        assert points.z.shape[1] == 2
        np.testing.assert_array_equal(points.labels, tiny_dataset.labels)
        np.testing.assert_allclose(points.entropy, tiny_dataset.entropy, rtol=1e-6)


class TestLatentGrid:
    def test_peak_stays_near_the_decoded_lattice(self):
        # 50x50 points decoded in one batch: the 13 MB output and its 512-wide layer (10 MB)
        model = VaeModel(GridShape(), beta=3.0, latent_dim=2, seed=1)
        axes = latent_axes([(-3.0, 3.0), (-3.0, 3.0)], 50)
        tracemalloc.start()
        try:
            generate_latent_grid(model, axes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30_000_000

    def test_two_by_two(self, tiny_model):
        model, _ = tiny_model
        decoded = generate_latent_grid(model, latent_axes([(-1, 1), (-1, 1)], 2))
        assert decoded.shape == (4, 650)

    def test_corners_match_direct_decode(self, tiny_model, tiny_dataset):
        model, _ = tiny_model
        points = encode_dataset(model, tiny_dataset)
        lo = points.z.min(axis=0)
        hi = points.z.max(axis=0)
        bounds = [(lo[0], hi[0]), (lo[1], hi[1])]
        axes = latent_axes(bounds, 5)
        decoded = generate_latent_grid(model, axes)
        points = lattice(axes)
        np.testing.assert_array_equal(points[0], [lo[0], lo[1]])
        np.testing.assert_array_equal(points[-1], [hi[0], hi[1]])
        # BLAS kernels differ per batch shape, so single-row decodes can
        # drift by a couple of ulps from the batched lattice decode
        corner = np.array([[lo[0], lo[1]]])
        np.testing.assert_allclose(decoded[0], model.decode(corner)[0], atol=1e-12)
        far_corner = np.array([[hi[0], hi[1]]])
        np.testing.assert_allclose(decoded[-1], model.decode(far_corner)[0], atol=1e-12)

    def test_row_major_order(self):
        points = lattice(latent_axes([(0.0, 1.0), (10.0, 11.0)], 2))
        np.testing.assert_allclose(points, [[0, 10], [0, 11], [1, 10], [1, 11]])

    def test_nearby_z_decode_closer_than_far(self, tiny_model):
        model, _ = tiny_model
        rng = np.random.default_rng(11)
        near_gaps = []
        far_gaps = []
        for _ in range(100):
            base = rng.normal(size=(1, 2))
            step = rng.normal(size=(1, 2))
            step /= np.linalg.norm(step)
            a = model.decode(base)
            near_gaps.append(np.linalg.norm(model.decode(base + 0.1 * step) - a))
            far_gaps.append(np.linalg.norm(model.decode(base + 3.0 * step) - a))
        assert np.mean(near_gaps) < np.mean(far_gaps)

    def test_reconstruction_beats_mismatched_pairs(self, tiny_model, tiny_dataset):
        from distatlas.neuralcore import binary_cross_entropy

        model, _ = tiny_model
        x = tiny_dataset.grids[:60].astype(np.float64)
        mu, _ = model.encode(x)
        decoded = model.decode(mu)
        matched = np.mean([binary_cross_entropy(decoded[i:i + 1], x[i:i + 1])
                           for i in range(60)])
        shuffled = np.roll(np.arange(60), 7)
        mismatched = np.mean([binary_cross_entropy(decoded[i:i + 1], x[shuffled[i]:shuffled[i] + 1])
                              for i in range(60)])
        assert matched < mismatched


class TestBounds:
    def test_percentile_box(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((10_000, 2))
        bounds = default_latent_bounds(z)
        for lo, hi in bounds:
            assert lo < -2.0 and hi > 2.0
            assert lo > -4.0 and hi < 4.0


class TestVaeCheckpoint:
    def test_round_trip(self, tiny_model, tmp_path):
        model, _ = tiny_model
        path = tmp_path / "vae.ckpt"
        save_vae(path, model, train_config(epochs=4, rng_seed=5))
        clone, header = load_vae(path)
        assert header["beta"] == 3.0 and header["latent_dim"] == 2
        grids = np.random.default_rng(0).random((3, 650))
        np.testing.assert_array_equal(clone.encode(grids)[0], model.encode(grids)[0])
        z = np.random.default_rng(1).standard_normal((3, 2))
        np.testing.assert_array_equal(clone.decode(z), model.decode(z))

    def test_loaders_adopt_the_block_without_drawing(self, tmp_path, monkeypatch):
        vae = VaeModel(GridShape(8, 6), beta=3.0, latent_dim=2, seed=2)
        (net,), _, _ = build_nets([grid_classifier_layers(48)], [3])
        save_vae(tmp_path / "vae.ckpt", vae, train_config(epochs=1))
        save_classifier(tmp_path / "clf.ckpt", Classifier(net, GridShape(8, 6)),
                        train_config(epochs=1))
        blocks = []

        def no_draws(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random numbers")

        def recorded(path, kinds):
            header, nets, block = load_model(path, kinds)
            blocks.append(block)
            return header, nets, block

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(betavae, "load_model", recorded)
        monkeypatch.setattr(classifier, "load_model", recorded)
        clone, _ = load_vae(tmp_path / "vae.ckpt")
        clf, _ = load_classifier(tmp_path / "clf.ckpt")
        # each model's vector is the block read from the file, uncopied
        assert clone.flat is blocks[0] and clf.net.flat.base is blocks[1]
        clone_params = [p for net in (clone.trunk, clone.mu_head, clone.logvar_head,
                                      clone.decoder) for p in net.params]
        for block, views, want in [(blocks[0], clone_params, vae.flat),
                                   (blocks[1], clf.net.params, net.flat)]:
            # it owns its memory, and only the model's own views share it
            assert block.base is None and block.flags.writeable
            assert all(view.base is block for view in views)
            np.testing.assert_array_equal(block.view(np.int64), want.view(np.int64))

    def test_rejects_wrong_kind(self, tmp_path):
        (net,), _, _ = build_nets([grid_classifier_layers(48)], [3])
        path = tmp_path / "other.ckpt"
        save_classifier(path, Classifier(net, GridShape(8, 6)), train_config(epochs=1))
        with pytest.raises(ValueError, match="kind"):
            load_vae(path)
        save_vae(path, VaeModel(GridShape(8, 6), beta=3.0, latent_dim=2, seed=2),
                 train_config(epochs=1))
        with pytest.raises(ValueError, match="kind"):
            load_classifier(path)

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        # SHA-256 of each file, recorded before the models shared one checkpoint writer (the
        # grid file's with this config by the writer before configs became required)
        (grid_net,), _, _ = build_nets([grid_classifier_layers(48)], [3])
        (latent_net,), _, _ = build_nets([latent_classifier_layers(1)], [4])
        save_vae(tmp_path / "vae.ckpt", VaeModel(GridShape(8, 6), beta=2.5, latent_dim=2, seed=2),
                 train_config(epochs=4, rng_seed=5))
        save_classifier(tmp_path / "grid.ckpt", Classifier(grid_net, GridShape(8, 6)),
                        train_config(epochs=8, rng_seed=2))
        save_classifier(tmp_path / "latent.ckpt", Classifier(latent_net),
                        default_latent_train_config(epochs=3, seed=6))
        for name, size, digest in [
                ("vae", 930866, "e66f78b622ec0107bde35e0db86ba1a8a220dc3abdf819e0497256d55440e57d"),
                ("grid", 123370, "3bc07da9b9d9226df3d061624245c544322bd8e8d856e7de5a643a615dee5b24"),
                ("latent", 548322,
                 "28c4c46efd1b42f6c996004eff32af1082e06c813297015d9dc1ee19a86fa603")]:
            blob = (tmp_path / f"{name}.ckpt").read_bytes()
            assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, digest)
