"""Family classifiers: 13-way softmax over grids and over latent vectors.

The grid model is a 650-128-64-13 stack trained with RMSprop on
categorical cross entropy; the latent model is 2-1024-64-13 trained
with Adadelta. Evaluation produces the confusion matrix, per-class
recall, and the share of errors that fall on families with fewer
randomized parameters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cdfcodec import CdfGrid, GridShape
from .distgen import FAMILIES, N_FAMILIES, LabeledDataset, mix64
from .neuralcore import (
    DenseNet,
    LayerSpec,
    ShapeMismatchError,
    TrainConfig,
    _map_batches,
    categorical_cross_entropy,
    categorical_cross_entropy_grad,
    header_field,
    layer_specs_to_json,
    load_checkpoint,
    one_hot,
    restore_net,
    save_checkpoint,
    split_indices,
    train_epochs,
)

# varying-parameter count per family id; errors toward a smaller count
# are "simpler" confusions
PARAM_COUNTS = np.array([FAMILIES[i].varying_params for i in range(N_FAMILIES)])

GRID_HIDDEN = (128, 64)
LATENT_HIDDEN = (1024, 64)


def default_latent_train_config(epochs: int = 50, seed: int = 0) -> TrainConfig:
    """Adadelta defaults; its step size is a multiplier, so lr stays 1."""
    return TrainConfig(epochs=epochs, batch_size=128, learning_rate=1.0,
                       rho=0.95, epsilon=1e-6, optimizer="adadelta", rng_seed=seed)


@dataclass
class ConfusionMatrix:
    """Generated-true rows by predicted columns, with summary rates."""

    counts: np.ndarray            # (13, 13) int64
    per_class_recall: np.ndarray  # (13,) nan for absent classes
    overall_accuracy: float
    simpler_confusion_rate: float       # errors predicting fewer parameters
    more_complex_confusion_rate: float  # errors predicting more parameters

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def confusion_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    counts = np.zeros((N_FAMILIES, N_FAMILIES), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    totals = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        recall = np.where(totals > 0, np.diag(counts) / np.where(totals > 0, totals, 1), np.nan)
    overall = float(np.trace(counts) / max(1, counts.sum()))
    wrong = y_true != y_pred
    n_wrong = int(wrong.sum())
    if n_wrong:
        simpler = float(np.sum(PARAM_COUNTS[y_pred[wrong]] < PARAM_COUNTS[y_true[wrong]]) / n_wrong)
        harder = float(np.sum(PARAM_COUNTS[y_pred[wrong]] > PARAM_COUNTS[y_true[wrong]]) / n_wrong)
    else:
        simpler = 0.0
        harder = 0.0
    return ConfusionMatrix(counts, recall, overall, simpler, harder)


@dataclass(frozen=True)
class ClassifierEpoch:
    epoch: int
    train_loss: float
    test_accuracy: float


class GridClassifier:
    """Trained grid-input model with its expected grid shape."""

    def __init__(self, net: DenseNet, grid_shape: GridShape):
        self.net = net
        self.grid_shape = grid_shape

    def predict_proba(self, grids: np.ndarray) -> np.ndarray:
        grids = np.atleast_2d(np.asarray(grids, dtype=np.float64))
        if grids.shape[1] != self.grid_shape.n_cells:
            raise ShapeMismatchError(
                f"expected {self.grid_shape.n_cells} cells, got {grids.shape[1]}")
        return self.net(grids)


class LatentClassifier:
    """Trained latent-input model."""

    def __init__(self, net: DenseNet, latent_dim: int):
        self.net = net
        self.latent_dim = latent_dim

    def predict_proba(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[1] != self.latent_dim:
            raise ShapeMismatchError(f"expected latent dim {self.latent_dim}, got {z.shape[1]}")
        return self.net(z)


def predict(model, grid) -> np.ndarray:
    """Class probabilities of one grid (CdfGrid or flat array)."""
    flat = grid.flat() if isinstance(grid, CdfGrid) else np.asarray(grid, dtype=np.float64).reshape(-1)
    return model.predict_proba(flat[None, :])[0]


def _batched_argmax(net: DenseNet, x: np.ndarray) -> np.ndarray:
    return np.concatenate(_map_batches(lambda rows: np.argmax(net(x[rows]), axis=1),
                                       x.shape[0], 2048))


def _train_softmax_net(layers, x: np.ndarray, y: np.ndarray, config: TrainConfig):
    """Train a fresh softmax net on a 67/33 split of (x, y); returns (net, history)."""
    train_idx, test_idx = split_indices(x.shape[0], config.rng_seed)
    x_train, x_test, y_test = x[train_idx], x[test_idx], y[test_idx]
    net = DenseNet(layers, seed=mix64(config.rng_seed, 1))
    onehot = one_hot(y[train_idx], net.out_dim)

    def test_accuracy() -> float:
        if x_test.shape[0] == 0:
            return float("nan")
        return float(np.mean(_batched_argmax(net, x_test) == y_test))

    def full_loss() -> float:
        return sum(_map_batches(
            lambda rows: categorical_cross_entropy(net(x_train[rows]), onehot[rows])
            * onehot[rows].shape[0], x_train.shape[0], 2048)) / x_train.shape[0]

    def batch_step(rows):
        cache, target = net.forward(x_train[rows]), onehot[rows]
        loss = categorical_cross_entropy(cache.output, target)
        grads, _ = net.backward(cache, categorical_cross_entropy_grad(cache.output, target))
        return grads, (loss,)

    history = [ClassifierEpoch(0, full_loss(), test_accuracy())]
    history += [ClassifierEpoch(epoch, loss, test_accuracy()) for epoch, (loss,) in train_epochs(
        net.params, config, x_train.shape[0], mix64(config.rng_seed, 2), batch_step)]
    return net, history


def grid_classifier_layers(n_cells: int) -> list:
    return [LayerSpec(n_cells, GRID_HIDDEN[0], "relu"),
            LayerSpec(GRID_HIDDEN[0], GRID_HIDDEN[1], "relu"),
            LayerSpec(GRID_HIDDEN[1], N_FAMILIES, "softmax")]


def latent_classifier_layers(latent_dim: int) -> list:
    return [LayerSpec(latent_dim, LATENT_HIDDEN[0], "relu"),
            LayerSpec(LATENT_HIDDEN[0], LATENT_HIDDEN[1], "relu"),
            LayerSpec(LATENT_HIDDEN[1], N_FAMILIES, "softmax")]


def train_classifier(dataset: LabeledDataset, config: TrainConfig | None = None):
    """Train the grid classifier on a 67/33 split; returns (model, history)."""
    config = config or TrainConfig(epochs=50)
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    net, history = _train_softmax_net(grid_classifier_layers(dataset.grid_shape.n_cells),
                                      dataset.grids.astype(np.float64),
                                      dataset.labels.astype(np.int64), config)
    return GridClassifier(net, dataset.grid_shape), history


def train_latent_classifier(points, config: TrainConfig | None = None):
    """Train the latent-vector classifier; points needs .z and .labels."""
    z = np.asarray(points.z, dtype=np.float64)
    labels = np.asarray(points.labels, dtype=np.int64)
    if z.shape[0] == 0:
        raise ValueError("no latent points")
    config = config or default_latent_train_config()
    net, history = _train_softmax_net(latent_classifier_layers(z.shape[1]), z, labels, config)
    return LatentClassifier(net, z.shape[1]), history


def evaluate(model, grids: np.ndarray, labels: np.ndarray) -> ConfusionMatrix:
    """Confusion matrix of the model on a held-out set."""
    x = np.asarray(grids, dtype=np.float64)
    preds = _batched_argmax(model.net, x)
    return confusion_from_predictions(np.asarray(labels, dtype=np.int64), preds)


def save_classifier(path, model, config: TrainConfig | None = None) -> None:
    header = {
        "layers": layer_specs_to_json(model.net.layers),
        "train_config": asdict(config) if config else None,
    }
    if isinstance(model, GridClassifier):
        header.update(kind="classifier", grid=asdict(model.grid_shape))
    else:
        header.update(kind="latent_classifier", latent_dim=model.latent_dim)
    save_checkpoint(path, header, model.net.params)


def load_classifier(path):
    """Load either classifier kind; returns (model, header)."""
    header, arrays = load_checkpoint(path)
    kind = header.get("kind")
    if kind not in ("classifier", "latent_classifier"):
        raise ValueError(f"{path}: not a classifier checkpoint")
    net, _ = restore_net(header, "layers", arrays)
    if kind == "classifier":
        grid = header_field(header, "grid", GridShape.from_json)
        model, expected = GridClassifier(net, grid), grid_classifier_layers(grid.n_cells)
    else:
        latent_dim = header_field(header, "latent_dim", int)
        model, expected = LatentClassifier(net, latent_dim), latent_classifier_layers(latent_dim)
    if net.layers != expected:
        raise ValueError(f"{path}: unexpected classifier architecture")
    return model, header
