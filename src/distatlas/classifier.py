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

from .cdfcodec import GridShape
from .distgen import FAMILIES, N_FAMILIES, LabeledDataset, mix64
from .neuralcore import (
    DenseNet,
    LayerSpec,
    TrainConfig,
    _map_batches,
    build_nets,
    categorical_cross_entropy,
    categorical_cross_entropy_grad,
    header_field,
    load_model,
    one_hot,
    save_model,
    split_indices,
    train_epochs,
)

# varying-parameter count per family id; errors toward a smaller count
# are "simpler" confusions
PARAM_COUNTS = np.array([FAMILIES[i].varying_params for i in range(N_FAMILIES)])


def default_latent_train_config(epochs: int, seed: int) -> TrainConfig:
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


class Classifier:
    """A trained softmax net over grids of grid_shape, or over latent vectors (None)."""

    def __init__(self, net: DenseNet, grid_shape: GridShape | None = None):
        self.net = net
        self.grid_shape = grid_shape

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)


def predict(model, grid) -> np.ndarray:
    """Class probabilities of one CdfGrid."""
    return model.predict_proba(grid.flat()[None, :])[0]


def _batched_argmax(net: DenseNet, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Predicted class of rows x[idx], gathered 2048 at a time."""
    return np.concatenate(_map_batches(lambda rows: np.argmax(net(x[idx[rows]]), axis=1),
                                       idx.shape[0], 2048))


def _train_softmax_net(layers, x: np.ndarray, y: np.ndarray, config: TrainConfig,
                       every_epoch: bool):
    """Train a fresh softmax net on a 67/33 split of (x, y).

    Returns (net, history), a ClassifierEpoch before training and after
    each epoch; with ``every_epoch`` False, (net, final test accuracy),
    skipping the loss and accuracy passes of the epochs before the last.
    Those passes read the net only, so it trains the same either way.
    x is never copied whole: each batch gathers its rows, which forward converts to float64.
    """
    train_idx, test_idx = split_indices(x.shape[0], config.rng_seed)
    y_test = y[test_idx]
    (net,), _, _ = build_nets([layers], [mix64(config.rng_seed, 1)])
    onehot = one_hot(y[train_idx], net.out_dim)

    def test_accuracy() -> float:
        if test_idx.shape[0] == 0:
            return float("nan")
        return float(np.mean(_batched_argmax(net, x, test_idx) == y_test))

    def full_loss() -> float:
        return sum(_map_batches(
            lambda rows: categorical_cross_entropy(net(x[train_idx[rows]]), onehot[rows])
            * onehot[rows].shape[0], train_idx.shape[0], 2048)) / train_idx.shape[0]

    def batch_step(rows):
        acts, target = net.forward(x[train_idx[rows]]), onehot[rows]
        loss = categorical_cross_entropy(acts[-1], target)
        net.backward(acts, categorical_cross_entropy_grad(acts[-1], target), input_grad=False)
        return net.grad, (loss,)

    epochs = train_epochs(net.flat, config, train_idx.shape[0], mix64(config.rng_seed, 2),
                          batch_step)
    if not every_epoch:
        for _ in epochs:
            pass
        return net, test_accuracy()
    history = [ClassifierEpoch(0, full_loss(), test_accuracy())]
    history += [ClassifierEpoch(epoch, loss, test_accuracy()) for epoch, (loss,) in epochs]
    return net, history


def grid_classifier_layers(n_cells: int) -> list:
    return [LayerSpec(n_cells, 128, "relu"), LayerSpec(128, 64, "relu"),
            LayerSpec(64, N_FAMILIES, "softmax")]


def latent_classifier_layers(latent_dim: int) -> list:
    return [LayerSpec(latent_dim, 1024, "relu"), LayerSpec(1024, 64, "relu"),
            LayerSpec(64, N_FAMILIES, "softmax")]


def train_classifier(dataset: LabeledDataset, config: TrainConfig):
    """Train the grid classifier on a 67/33 split; returns (model, history)."""
    net, history = _train_softmax_net(grid_classifier_layers(dataset.grid_shape.n_cells),
                                      dataset.grids, dataset.labels.astype(np.int64), config,
                                      every_epoch=True)
    return Classifier(net, dataset.grid_shape), history


def train_latent_classifier(points, config: TrainConfig):
    """Train the latent-vector classifier; returns (model, final test accuracy).

    points needs .z and .labels.
    """
    z = np.asarray(points.z, dtype=np.float64)
    labels = np.asarray(points.labels, dtype=np.int64)
    net, accuracy = _train_softmax_net(latent_classifier_layers(z.shape[1]), z, labels, config,
                                       every_epoch=False)
    return Classifier(net), accuracy


def evaluate(model, grids: np.ndarray, labels: np.ndarray, indices: np.ndarray) -> ConfusionMatrix:
    """Confusion matrix of the model on rows ``indices`` of (grids, labels)."""
    preds = _batched_argmax(model.net, grids, indices)
    return confusion_from_predictions(np.asarray(labels[indices], dtype=np.int64), preds)


# each checkpoint kind, with its nets from its header
_KINDS = {
    "classifier": lambda h: {"layers": grid_classifier_layers(
        header_field(h, "grid", GridShape.from_json).n_cells)},
    "latent_classifier": lambda h: {"layers": latent_classifier_layers(
        header_field(h, "latent_dim", int))},
}


def save_classifier(path, model: Classifier, config: TrainConfig) -> None:
    if model.grid_shape is None:
        header = {"kind": "latent_classifier", "latent_dim": model.net.in_dim}
    else:
        header = {"kind": "classifier", "grid": asdict(model.grid_shape)}
    save_model(path, header, {"layers": model.net.layers}, model.net.flat, config)


def load_classifier(path) -> tuple[Classifier, dict]:
    """Load either classifier kind; returns (model, header)."""
    header, nets, block = load_model(path, _KINDS)
    (net,), _, _ = build_nets(nets.values(), block)
    grid = GridShape.from_json(header["grid"]) if header["kind"] == "classifier" else None
    return Classifier(net, grid), header
