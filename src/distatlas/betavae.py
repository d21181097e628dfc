"""Beta-weighted variational autoencoder over CDF grid images.

Encoder trunk 650-512-64 with linear mean/log-variance heads, decoder
64-512-650 with sigmoid output. The loss is binary cross entropy
summed over the grid cells plus beta times the closed-form KL pull
toward a standard isotropic normal, both averaged over the batch.
The latent map coordinate of a grid is the encoder mean, which keeps
encoding deterministic. The held-out evaluation gathers 1,024 float32
rows at a time and passes them as they are to the encoder and to the
BCE, both of which convert them to float64 exactly; a training step
converts its 128-row batch once, since the BCE gradient reads 1 - x too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cdfcodec import GridShape
from .distgen import LabeledDataset, mix64
from .latentlab import lattice
from .neuralcore import (
    LayerSpec,
    TrainConfig,
    _map_batches,
    audit_gradients,
    binary_cross_entropy,
    binary_cross_entropy_grad,
    build_nets,
    header_field,
    load_model,
    save_model,
    split_indices,
    train_epochs,
)

LOGVAR_LIMIT = 10.0


def vae_layers(grid_shape: GridShape, latent_dim: int) -> dict:
    """The autoencoder's four nets as LayerSpec lists, in parameter order."""
    d = grid_shape.n_cells
    return {
        "trunk": [LayerSpec(d, 512, "relu"), LayerSpec(512, 64, "relu")],
        "mu_head": [LayerSpec(64, latent_dim, "identity")],
        "logvar_head": [LayerSpec(64, latent_dim, "identity")],
        "decoder": [LayerSpec(latent_dim, 64, "relu"), LayerSpec(64, 512, "relu"),
                    LayerSpec(512, d, "sigmoid")],
    }


def kl_per_example(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Closed-form KL from N(mu, diag exp(logvar)) to N(0, I), one per row.

    -0.5 * sum_j (1 + logvar_j - mu_j^2 - exp(logvar_j)); zero exactly
    when mu = 0 and logvar = 0, positive otherwise.
    """
    return -0.5 * np.sum(1.0 + logvar - mu * mu - np.exp(logvar), axis=1)


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


class VaeModel:
    """Encoder/decoder pair with the beta weight and latent size."""

    def __init__(self, grid_shape: GridShape, beta: float, latent_dim: int,
                 seed: int = 0, block: np.ndarray | None = None):
        if latent_dim not in (1, 2):
            raise ValueError("latent_dim must be 1 or 2")
        if not 0 <= beta < np.inf:
            raise ValueError("beta must be finite and >= 0")
        self.grid_shape = grid_shape
        self.beta = float(beta)
        self.latent_dim = int(latent_dim)
        # a checkpoint block becomes flat as it is; otherwise net i draws from mix64(seed, i)
        init = [mix64(seed, i) for i in range(1, 5)] if block is None else block
        nets, self.flat, self.grad = build_nets(vae_layers(grid_shape, latent_dim).values(), init)
        self.trunk, self.mu_head, self.logvar_head, self.decoder = nets

    def _forward(self, x: np.ndarray, eps: np.ndarray):
        """Trunk, heads and clipped log-variance, then the decode of z at the eps draw.

        Returns (x, trunk_acts, mu_acts, logvar_acts, logvar, dec_acts).
        """
        # x is also the target of the BCE gradient, whose 1 - x must not round in float32
        x = np.asarray(x, dtype=np.float64)
        trunk_acts = self.trunk.forward(x)
        mu_acts = self.mu_head.forward(trunk_acts[-1])
        logvar_acts = self.logvar_head.forward(trunk_acts[-1])
        logvar = np.clip(logvar_acts[-1], -LOGVAR_LIMIT, LOGVAR_LIMIT)
        dec_acts = self.decoder.forward(reparameterize(mu_acts[-1], logvar, eps))
        return x, trunk_acts, mu_acts, logvar_acts, logvar, dec_acts

    def encode(self, grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic (mu, sigma) for a batch of flattened grids, through cache-free nets."""
        h = self.trunk(grids)
        mu = self.mu_head(h)
        return mu, np.exp(0.5 * np.clip(self.logvar_head(h), -LOGVAR_LIMIT, LOGVAR_LIMIT))

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Decoded intensity grids, every cell strictly inside (0, 1)."""
        return self.decoder(z)

    def loss(self, x: np.ndarray, eps: np.ndarray) -> float:
        """Mean BCE plus beta times mean KL of the batch at the given eps draw."""
        x, _, mu_acts, _, logvar, dec_acts = self._forward(x, eps)
        kl = float(np.mean(kl_per_example(mu_acts[-1], logvar)))
        return binary_cross_entropy(dec_acts[-1], x) + self.beta * kl

    def loss_gradients(self, x: np.ndarray, eps: np.ndarray):
        """Analytic parameter gradients of loss() at fixed eps.

        Returns (grad, bce, kl) with grad the model's gradient vector,
        laid out like ``flat``; the next call overwrites it. The clip
        on the log-variance head is flat outside its band, so its
        gradient mask is applied exactly.
        """
        x, trunk_acts, mu_acts, logvar_acts, logvar, dec_acts = self._forward(x, eps)
        n = x.shape[0]
        mu = mu_acts[-1]
        logvar_raw = logvar_acts[-1]
        sigma = np.exp(0.5 * logvar)
        decoded = dec_acts[-1]

        bce = binary_cross_entropy(decoded, x)
        kl = float(np.mean(kl_per_example(mu, logvar)))

        dz = self.decoder.backward(dec_acts, binary_cross_entropy_grad(decoded, x))
        dmu = dz + self.beta * mu / n
        dlogvar = dz * eps * 0.5 * sigma + self.beta * 0.5 * (np.exp(logvar) - 1.0) / n
        dlogvar_raw = dlogvar * ((logvar_raw > -LOGVAR_LIMIT) & (logvar_raw < LOGVAR_LIMIT))
        dh_mu = self.mu_head.backward(mu_acts, dmu)
        dh_logvar = self.logvar_head.backward(logvar_acts, dlogvar_raw)
        self.trunk.backward(trunk_acts, dh_mu + dh_logvar, input_grad=False)
        return self.grad, bce, kl


@dataclass(frozen=True)
class VaeEpoch:
    epoch: int
    train_loss: float
    train_bce: float
    train_kl: float
    test_bce: float
    test_kl: float


def _dataset_eval(model: VaeModel, grids: np.ndarray, idx: np.ndarray):
    """Mean (BCE, KL) over rows grids[idx], gathered 1024 at a time, at the encoder mean.

    The gathered rows stay in the grids' dtype: the trunk converts its input
    to float64 exactly, and so does the BCE its target, piece by piece.
    """
    def batch_sums(rows: slice):
        x = grids[idx[rows]]
        mu, sigma = model.encode(x)
        return (binary_cross_entropy(model.decode(mu), x) * x.shape[0],
                float(np.sum(kl_per_example(mu, 2.0 * np.log(sigma)))))

    n = idx.shape[0]
    bces, kls = zip(*_map_batches(batch_sums, n, 1024))
    return sum(bces) / n, sum(kls) / n


def train_bvae(dataset: LabeledDataset, beta: float, latent_dim: int, *, config: TrainConfig):
    """Train the autoencoder on a 67/33 split of the dataset.

    Returns (model, history); history row 0 is the pre-training
    evaluation, rows 1..epochs the post-epoch state. Test metrics are
    computed at the encoder mean, so they are deterministic per epoch.
    Each batch gathers its float32 rows; the grids are never copied whole.
    """
    model = VaeModel(dataset.grid_shape, beta=beta, latent_dim=latent_dim,
                     seed=mix64(config.rng_seed, 11))
    train_idx, test_idx = split_indices(len(dataset), config.rng_seed)
    eps_rng = np.random.default_rng(mix64(config.rng_seed, 13))

    def batch_step(rows):
        eps = eps_rng.standard_normal((rows.shape[0], model.latent_dim))
        grad, bce, kl = model.loss_gradients(dataset.grids[train_idx[rows]], eps)
        return grad, (bce + model.beta * kl, bce, kl)

    def snapshot(epoch: int, loss: float, bce: float, kl: float) -> VaeEpoch:
        test_bce, test_kl = _dataset_eval(model, dataset.grids, test_idx)
        return VaeEpoch(epoch, loss, bce, kl, test_bce, test_kl)

    bce0, kl0 = _dataset_eval(model, dataset.grids, train_idx)
    history = [snapshot(0, bce0 + model.beta * kl0, bce0, kl0)]
    history += [snapshot(epoch, *parts) for epoch, parts in train_epochs(
        model.flat, config, train_idx.shape[0], mix64(config.rng_seed, 12), batch_step)]
    return model, history


def encode_dataset(model: VaeModel, dataset: LabeledDataset) -> LatentPoints:
    """Encode every grid of the dataset into LatentPoints, 2048 rows at a time.

    Each batch is a slice of the float32 grids, which the trunk converts to
    float64 exactly, so nothing is gathered.
    """
    mus, sigmas = zip(*_map_batches(lambda rows: model.encode(dataset.grids[rows]),
                                    len(dataset), 2048))
    return LatentPoints(
        z=np.concatenate(mus),
        sigma=np.concatenate(sigmas),
        labels=dataset.labels.astype(np.int64),
        entropy=dataset.entropy.astype(np.float64),
        skewness=dataset.skewness.astype(np.float64),
        ks_uniform=dataset.ks_uniform.astype(np.float64),
    )


def generate_latent_grid(model: VaeModel, axes) -> np.ndarray:
    """Decode every point of the row-major lattice over the axes."""
    return model.decode(lattice(axes))


def vae_grad_check(model: VaeModel, batch: np.ndarray, eps: np.ndarray, seed: int) -> float:
    """Finite-difference audit of the full loss, reparameterization included."""
    grad, _, _ = model.loss_gradients(batch, eps)
    return audit_gradients(model.flat, lambda: model.loss(batch, eps), grad, seed)


# ---------------------------------------------------------------------------
# checkpoints

def _header_shape(header: dict) -> tuple[GridShape, int]:
    return header_field(header, "grid", GridShape.from_json), header_field(header, "latent_dim", int)


def save_vae(path, model: VaeModel, config: TrainConfig) -> None:
    header = {"kind": "bvae", "beta": model.beta, "latent_dim": model.latent_dim,
              "grid": asdict(model.grid_shape)}
    save_model(path, header, vae_layers(model.grid_shape, model.latent_dim), model.flat, config)


def load_vae(path) -> tuple[VaeModel, dict]:
    header, _, block = load_model(path, {"bvae": lambda h: vae_layers(*_header_shape(h))})
    grid, latent_dim = _header_shape(header)
    beta = header_field(header, "beta", float)
    return VaeModel(grid, beta=beta, latent_dim=latent_dim, block=block), header
