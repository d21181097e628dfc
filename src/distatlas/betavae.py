"""Beta-weighted variational autoencoder over CDF grid images.

Encoder trunk 650-512-64 with linear mean/log-variance heads, decoder
64-512-650 with sigmoid output. The loss is binary cross entropy
summed over the grid cells plus beta times the closed-form KL pull
toward a standard isotropic normal, both averaged over the batch.
The latent map coordinate of a grid is the encoder mean, which keeps
encoding deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cdfcodec import GridShape
from .distgen import LabeledDataset, mix64
from .neuralcore import (
    DenseNet,
    LayerSpec,
    ShapeMismatchError,
    TrainConfig,
    _map_batches,
    audit_gradients,
    binary_cross_entropy,
    binary_cross_entropy_grad,
    header_field,
    layer_specs_to_json,
    load_checkpoint,
    restore_net,
    save_checkpoint,
    split_indices,
    train_epochs,
)

LOGVAR_LIMIT = 10.0

ENCODER_WIDTHS = (512, 64)
DECODER_WIDTHS = (64, 512)


def kl_per_example(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Closed-form KL from N(mu, diag exp(logvar)) to N(0, I), one per row.

    -0.5 * sum_j (1 + logvar_j - mu_j^2 - exp(logvar_j)); zero exactly
    when mu = 0 and logvar = 0, positive otherwise.
    """
    return -0.5 * np.sum(1.0 + logvar - mu * mu - np.exp(logvar), axis=1)


def kl_term(mu: np.ndarray, logvar: np.ndarray) -> float:
    """Total KL of one latent vector, or of every row of a batch."""
    return float(np.sum(kl_per_example(np.atleast_2d(mu), np.atleast_2d(logvar))))


def reparameterize(mu: np.ndarray, logvar: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """z = mu + exp(logvar / 2) * eps with eps an external normal draw."""
    return mu + np.exp(0.5 * np.asarray(logvar, dtype=np.float64)) * eps


@dataclass
class LatentPoints:
    """Column-oriented latent encodings with the per-series statistics."""

    z: np.ndarray          # (n, latent_dim) encoder means
    sigma: np.ndarray      # (n, latent_dim)
    labels: np.ndarray     # (n,)
    entropy: np.ndarray
    skewness: np.ndarray
    ks_uniform: np.ndarray

    def __len__(self) -> int:
        return int(self.z.shape[0])

    @property
    def latent_dim(self) -> int:
        return int(self.z.shape[1])


class VaeModel:
    """Encoder/decoder pair with the beta weight and latent size."""

    def __init__(self, grid_shape: GridShape, beta: float = 3.0, latent_dim: int = 2,
                 seed: int = 0):
        if latent_dim not in (1, 2):
            raise ValueError("latent_dim must be 1 or 2")
        if beta < 0:
            raise ValueError("beta must be >= 0")
        self.grid_shape = grid_shape
        self.beta = float(beta)
        self.latent_dim = int(latent_dim)
        d = grid_shape.n_cells
        w1, w2 = ENCODER_WIDTHS
        self.trunk = DenseNet(
            [LayerSpec(d, w1, "relu"), LayerSpec(w1, w2, "relu")], seed=mix64(seed, 1))
        self.mu_head = DenseNet([LayerSpec(w2, latent_dim, "identity")], seed=mix64(seed, 2))
        self.logvar_head = DenseNet([LayerSpec(w2, latent_dim, "identity")], seed=mix64(seed, 3))
        self.decoder = DenseNet(
            [LayerSpec(latent_dim, DECODER_WIDTHS[0], "relu"),
             LayerSpec(DECODER_WIDTHS[0], DECODER_WIDTHS[1], "relu"),
             LayerSpec(DECODER_WIDTHS[1], d, "sigmoid")], seed=mix64(seed, 4))

    @property
    def params(self) -> list:
        return (self.trunk.params + self.mu_head.params
                + self.logvar_head.params + self.decoder.params)

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.grid_shape.n_cells:
            raise ShapeMismatchError(
                f"expected grids of {self.grid_shape.n_cells} cells, got {x.shape[1]}")
        return x

    def _forward(self, x: np.ndarray, eps: np.ndarray | None = None):
        """Trunk, heads and clipped log-variance, then with eps the decode of z.

        Returns (x, trunk_cache, mu_cache, logvar_cache, logvar, dec_cache)
        with dec_cache None when eps is None.
        """
        x = self._check_input(x)
        trunk_cache = self.trunk.forward(x)
        mu_cache = self.mu_head.forward(trunk_cache.output)
        logvar_cache = self.logvar_head.forward(trunk_cache.output)
        logvar = np.clip(logvar_cache.output, -LOGVAR_LIMIT, LOGVAR_LIMIT)
        dec_cache = None if eps is None else self.decoder.forward(
            reparameterize(mu_cache.output, logvar, eps))
        return x, trunk_cache, mu_cache, logvar_cache, logvar, dec_cache

    def encode(self, grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic (mu, sigma) for a batch of flattened grids."""
        _, _, mu_cache, _, logvar, _ = self._forward(grids)
        return mu_cache.output, np.exp(0.5 * logvar)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Decoded intensity grids, every cell strictly inside (0, 1)."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[1] != self.latent_dim:
            raise ShapeMismatchError(
                f"expected latent vectors of size {self.latent_dim}, got {z.shape[1]}")
        return self.decoder(z)

    def loss_parts(self, x: np.ndarray, eps: np.ndarray) -> tuple[float, float]:
        """(mean BCE, mean KL) of the batch at the given eps draw."""
        x, _, mu_cache, _, logvar, dec_cache = self._forward(x, eps)
        bce = binary_cross_entropy(dec_cache.output, x)
        kl = float(np.mean(kl_per_example(mu_cache.output, logvar)))
        return bce, kl

    def loss(self, x: np.ndarray, eps: np.ndarray) -> float:
        bce, kl = self.loss_parts(x, eps)
        return bce + self.beta * kl

    def loss_gradients(self, x: np.ndarray, eps: np.ndarray):
        """Analytic parameter gradients of loss() at fixed eps.

        Returns (grads, bce, kl) with grads ordered like ``params``.
        The clip on the log-variance head is flat outside its band, so
        its gradient mask is applied exactly.
        """
        x, trunk_cache, mu_cache, logvar_cache, logvar, dec_cache = self._forward(x, eps)
        n = x.shape[0]
        mu = mu_cache.output
        logvar_raw = logvar_cache.output
        sigma = np.exp(0.5 * logvar)
        decoded = dec_cache.output

        bce = binary_cross_entropy(decoded, x)
        kl = float(np.mean(kl_per_example(mu, logvar)))

        dec_grads, dz = self.decoder.backward(dec_cache, binary_cross_entropy_grad(decoded, x))
        dmu = dz + self.beta * mu / n
        dlogvar = dz * eps * 0.5 * sigma + self.beta * 0.5 * (np.exp(logvar) - 1.0) / n
        dlogvar_raw = dlogvar * ((logvar_raw > -LOGVAR_LIMIT) & (logvar_raw < LOGVAR_LIMIT))
        mu_grads, dh_mu = self.mu_head.backward(mu_cache, dmu)
        logvar_grads, dh_logvar = self.logvar_head.backward(logvar_cache, dlogvar_raw)
        trunk_grads, _ = self.trunk.backward(trunk_cache, dh_mu + dh_logvar)
        grads = trunk_grads + mu_grads + logvar_grads + dec_grads
        return grads, bce, kl


@dataclass(frozen=True)
class VaeEpoch:
    epoch: int
    train_loss: float
    train_bce: float
    train_kl: float
    test_bce: float
    test_kl: float


def _dataset_eval(model: VaeModel, grids: np.ndarray):
    """Mean (BCE, KL) with the decoder driven by the encoder mean."""
    def batch_sums(rows: slice):
        x = grids[rows].astype(np.float64)
        mu, sigma = model.encode(x)
        return (binary_cross_entropy(model.decode(mu), x) * x.shape[0],
                float(np.sum(kl_per_example(mu, 2.0 * np.log(sigma)))))

    n = grids.shape[0]
    bces, kls = zip(*_map_batches(batch_sums, n, 1024))
    return sum(bces) / n, sum(kls) / n


def train_bvae(dataset: LabeledDataset, beta: float = 3.0, latent_dim: int = 2,
               config: TrainConfig | None = None):
    """Train the autoencoder on a 67/33 split of the dataset.

    Returns (model, history); history row 0 is the pre-training
    evaluation, rows 1..epochs the post-epoch state. Test metrics are
    computed at the encoder mean, so they are deterministic per epoch.
    """
    config = config or TrainConfig(epochs=100)
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    model = VaeModel(dataset.grid_shape, beta=beta, latent_dim=latent_dim,
                     seed=mix64(config.rng_seed, 11))
    train_idx, test_idx = split_indices(len(dataset), config.rng_seed)
    x_train = dataset.grids[train_idx].astype(np.float64)
    x_test = dataset.grids[test_idx].astype(np.float64)
    eps_rng = np.random.default_rng(mix64(config.rng_seed, 13))

    def batch_step(rows):
        eps = eps_rng.standard_normal((rows.shape[0], model.latent_dim))
        grads, bce, kl = model.loss_gradients(x_train[rows], eps)
        return grads, (bce + model.beta * kl, bce, kl)

    def snapshot(epoch: int, loss: float, bce: float, kl: float) -> VaeEpoch:
        test_bce, test_kl = _dataset_eval(model, x_test)
        return VaeEpoch(epoch, loss, bce, kl, test_bce, test_kl)

    bce0, kl0 = _dataset_eval(model, x_train)
    history = [snapshot(0, bce0 + model.beta * kl0, bce0, kl0)]
    history += [snapshot(epoch, *parts) for epoch, parts in train_epochs(
        model.params, config, x_train.shape[0], mix64(config.rng_seed, 12), batch_step)]
    return model, history


def encode_dataset(model: VaeModel, dataset: LabeledDataset,
                   indices: np.ndarray | None = None) -> LatentPoints:
    """Encode dataset grids (optionally a subset) into LatentPoints."""
    if indices is None:
        indices = np.arange(len(dataset))
    mus, sigmas = zip(*_map_batches(
        lambda rows: model.encode(dataset.grids[indices[rows]].astype(np.float64)),
        indices.shape[0], 2048))
    return LatentPoints(
        z=np.concatenate(mus),
        sigma=np.concatenate(sigmas),
        labels=dataset.labels[indices].astype(np.int64),
        entropy=dataset.entropy[indices].astype(np.float64),
        skewness=dataset.skewness[indices].astype(np.float64),
        ks_uniform=dataset.ks_uniform[indices].astype(np.float64),
    )


def default_latent_bounds(z: np.ndarray, expand: float = 0.10) -> list:
    """Per-dimension 1st..99th percentile box expanded by a margin."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    bounds = []
    for j in range(z.shape[1]):
        lo, hi = np.percentile(z[:, j], [1.0, 99.0])
        pad = (hi - lo) * expand if hi > lo else 1.0
        bounds.append((float(lo - pad), float(hi + pad)))
    return bounds


def axes_lattice(axes) -> np.ndarray:
    """Every point of the product of the axes in row-major order; shape (n, d)."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def latent_axes(bounds, resolution: int) -> list:
    """Per dimension, resolution evenly spaced values from lo to hi inclusive."""
    return [np.linspace(lo, hi, resolution) for lo, hi in bounds]


def latent_lattice(bounds, resolution: int) -> np.ndarray:
    """Row-major inclusive lattice over the bounds; shape (res^d, d)."""
    return axes_lattice(latent_axes(bounds, resolution))


def generate_latent_grid(model: VaeModel, bounds, resolution: int = 50):
    """Decode a lattice of latent points; returns (lattice, decoded grids)."""
    lattice = latent_lattice(bounds, resolution)
    if lattice.shape[1] != model.latent_dim:
        raise ShapeMismatchError("bounds dimensionality does not match latent_dim")
    return lattice, model.decode(lattice)


def vae_grad_check(model: VaeModel, batch: np.ndarray, eps: np.ndarray,
                   h: float = 1e-5, n_samples: int = 200, seed: int = 0) -> float:
    """Finite-difference audit of the full loss, reparameterization included."""
    grads, _, _ = model.loss_gradients(batch, eps)
    return audit_gradients(model.params, lambda: model.loss(batch, eps), grads,
                           h, n_samples, seed)


# ---------------------------------------------------------------------------
# checkpoints

def save_vae(path, model: VaeModel, config: TrainConfig | None = None) -> None:
    header = {
        "kind": "bvae",
        "beta": model.beta,
        "latent_dim": model.latent_dim,
        "grid": asdict(model.grid_shape),
        "trunk": layer_specs_to_json(model.trunk.layers),
        "mu_head": layer_specs_to_json(model.mu_head.layers),
        "logvar_head": layer_specs_to_json(model.logvar_head.layers),
        "decoder": layer_specs_to_json(model.decoder.layers),
        "train_config": asdict(config) if config else None,
    }
    save_checkpoint(path, header, model.params)


def load_vae(path) -> tuple[VaeModel, dict]:
    header, arrays = load_checkpoint(path)
    if header.get("kind") != "bvae":
        raise ValueError(f"{path}: not an autoencoder checkpoint")
    model = VaeModel(header_field(header, "grid", GridShape.from_json),
                     beta=header_field(header, "beta", float),
                     latent_dim=header_field(header, "latent_dim", int), seed=0)
    offset = 0
    for attr in ("trunk", "mu_head", "logvar_head", "decoder"):
        net, offset = restore_net(header, attr, arrays, offset)
        if net.layers != getattr(model, attr).layers:
            raise ValueError(f"{path}: unexpected {attr} architecture")
        setattr(model, attr, net)
    return model, header

