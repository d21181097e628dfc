"""Dense feedforward networks with exact backprop, trained in float64.

A deliberately small engine sized for the grid-image models: forward
caches that keep each layer's activation only (the ReLU and sigmoid
backward read their masks and slopes from it), analytic gradients for
every activation and loss, RMSprop and Adadelta updates, the one
shuffled minibatch loop every trainer runs, finite-difference auditing
of the whole gradient path, and bit-exact checkpoints. Everything is
deterministic given (seed, data, config).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

LOSS_EPS = 1e-7

ACTIVATIONS = ("relu", "sigmoid", "softmax", "identity")


class ShapeMismatchError(ValueError):
    """Input width does not match the network."""


class TrainingDivergedError(RuntimeError):
    """A non-finite loss or gradient appeared during training."""


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-3
    rho: float = 0.9
    epsilon: float = 1e-8
    optimizer: str = "rmsprop"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.optimizer not in ("rmsprop", "adadelta"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) without abs, which would flip a NaN's sign bit
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        # in place: z is the fresh pre-activation of DenseNet.forward, held nowhere else
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "softmax":
        return _softmax(z)
    return z


def _activation_backward(name: str, a: np.ndarray, grad_a: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pre-activation given the post-activation one.

    ReLU masks with a > 0, which is z > 0 bit for bit, NaN included.
    """
    if name == "relu":
        return grad_a * (a > 0)
    if name == "sigmoid":
        return grad_a * a * (1.0 - a)
    if name == "softmax":
        inner = (grad_a * a).sum(axis=1, keepdims=True)
        return a * (grad_a - inner)
    return grad_a


@dataclass
class ForwardCache:
    """Input plus per-layer activations."""

    x: np.ndarray
    acts: list = field(default_factory=list)

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]


class DenseNet:
    """A stack of affine layers with elementwise or softmax activations.

    Weights initialize to U(-sqrt(6/in_dim), +sqrt(6/in_dim)) and
    biases to zero, from the given seed. Parameters are float64 and
    exposed as the flat list [W0, b0, W1, b1, ...] that optimizers
    update in place.
    """

    def __init__(self, layers: Sequence[LayerSpec], seed: int = 0):
        layers = list(layers)
        if not layers:
            raise ValueError("need at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if prev.out_dim != cur.in_dim:
                raise ValueError(f"layer chain breaks: {prev.out_dim} -> {cur.in_dim}")
        for spec in layers[:-1]:
            if spec.activation == "softmax":
                raise ValueError("softmax is only valid as the final activation")
        self.layers = layers
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for spec in layers:
            limit = np.sqrt(6.0 / spec.in_dim)
            self.weights.append(rng.uniform(-limit, limit, size=(spec.in_dim, spec.out_dim)))
            self.biases.append(np.zeros(spec.out_dim, dtype=np.float64))

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def params(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x: np.ndarray) -> ForwardCache:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatchError(
                f"expected input of width {self.in_dim}, got shape {x.shape}")
        cache = ForwardCache(x=x)
        a = x
        for spec, w, b in zip(self.layers, self.weights, self.biases):
            a = _activate(spec.activation, a @ w + b)
            cache.acts.append(a)
        return cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).output

    def backward(self, cache: ForwardCache, grad_output: np.ndarray):
        """Exact gradients for every parameter plus the input gradient.

        grad_output is the loss gradient w.r.t. the network output
        (post-activation); whatever batch reduction the loss applies is
        already baked into it. Returns (grads, grad_input) with grads
        ordered like ``params``.
        """
        grad_a = np.asarray(grad_output, dtype=np.float64)
        grads: list = [None] * (2 * len(self.layers))
        for i in range(len(self.layers) - 1, -1, -1):
            a_prev = cache.x if i == 0 else cache.acts[i - 1]
            grad_z = _activation_backward(self.layers[i].activation, cache.acts[i], grad_a)
            grads[2 * i] = a_prev.T @ grad_z
            grads[2 * i + 1] = grad_z.sum(axis=0)
            grad_a = grad_z @ self.weights[i].T
        return grads, grad_a


# ---------------------------------------------------------------------------
# losses (batch mean; natural logarithms)

def categorical_cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean -sum(onehot * log probs); probs clamped to [eps, 1 - eps]."""
    p = np.clip(probs, LOSS_EPS, 1.0 - LOSS_EPS)
    return float(-(onehot * np.log(p)).sum() / probs.shape[0])


def categorical_cross_entropy_grad(probs: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    p = np.clip(probs, LOSS_EPS, 1.0 - LOSS_EPS)
    g = -(onehot / p) / probs.shape[0]
    # the clamp is flat outside its band
    g[(probs < LOSS_EPS) | (probs > 1.0 - LOSS_EPS)] = 0.0
    return g


def binary_cross_entropy(pred: np.ndarray, target: np.ndarray) -> float:
    """Binary cross entropy summed over units, averaged over the batch."""
    p = np.clip(pred, LOSS_EPS, 1.0 - LOSS_EPS)
    per_unit = target * np.log(p) + (1.0 - target) * np.log1p(-p)
    return float(-per_unit.sum() / pred.shape[0])


def binary_cross_entropy_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    p = np.clip(pred, LOSS_EPS, 1.0 - LOSS_EPS)
    g = (-target / p + (1.0 - target) / (1.0 - p)) / pred.shape[0]
    g[(pred < LOSS_EPS) | (pred > 1.0 - LOSS_EPS)] = 0.0
    return g


LOSSES = {
    "cce": (categorical_cross_entropy, categorical_cross_entropy_grad),
    "bce": (binary_cross_entropy, binary_cross_entropy_grad),
}


# ---------------------------------------------------------------------------
# optimizers

def _require_finite(grads) -> None:
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError("non-finite gradient; training aborted")


class RMSprop:
    """a <- rho*a + (1-rho)*g^2;  p <- p - lr * g / (sqrt(a) + eps)."""

    def __init__(self, params, config: TrainConfig):
        self.config = config
        self.acc = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        _require_finite(grads)
        c = self.config
        for p, g, a in zip(params, grads, self.acc):
            a *= c.rho
            a += (1.0 - c.rho) * g * g
            p -= c.learning_rate * g / (np.sqrt(a) + c.epsilon)


class Adadelta:
    """Accumulates squared gradients and squared updates; steps by their ratio."""

    def __init__(self, params, config: TrainConfig):
        self.config = config
        self.acc = [np.zeros_like(p) for p in params]
        self.delta_acc = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        _require_finite(grads)
        c = self.config
        for p, g, a, d in zip(params, grads, self.acc, self.delta_acc):
            a *= c.rho
            a += (1.0 - c.rho) * g * g
            update = g * np.sqrt(d + c.epsilon) / np.sqrt(a + c.epsilon)
            p -= c.learning_rate * update
            d *= c.rho
            d += (1.0 - c.rho) * update * update


def make_optimizer(params, config: TrainConfig):
    if config.optimizer == "rmsprop":
        return RMSprop(params, config)
    return Adadelta(params, config)


def train_epochs(params, config: TrainConfig, n: int, shuffle_seed: int, batch_step):
    """Minibatch training over rows 0..n-1; yields (epoch, mean of each loss part).

    Each of config.epochs epochs walks a fresh permutation of the rows,
    drawn from one generator seeded by shuffle_seed, in batch_size
    slices. ``batch_step(rows)`` returns (grads, parts) for those rows,
    grads ordered like ``params`` and parts[0] the loss; a non-finite
    loss raises TrainingDivergedError before the step that would use it.
    """
    optimizer = make_optimizer(params, config)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(n)
        parts_seen = []
        for start in range(0, n, config.batch_size):
            grads, parts = batch_step(perm[start:start + config.batch_size])
            if not np.isfinite(parts[0]):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            optimizer.step(params, grads)
            parts_seen.append(parts)
        yield epoch, [float(np.mean(column)) for column in zip(*parts_seen)]


# ---------------------------------------------------------------------------
# auditing and utilities

def audit_gradients(params, loss, analytic, h: float = 1e-5, n_samples: int = 200,
                    seed: int = 0) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    ``loss`` is a closure that recomputes the scalar loss from the
    current ``params``; ``analytic`` holds their gradients in the same
    order. Samples n_samples parameter entries (at least 200, all of
    them when there are fewer) and perturbs each by +-h around its value.
    """
    sizes = [p.size for p in params]
    total = int(np.sum(sizes))
    offsets = np.cumsum([0] + sizes)
    rng = np.random.default_rng(seed)
    count = min(total, max(n_samples, 200))
    worst = 0.0
    for flat in rng.choice(total, size=count, replace=False):
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        inner = int(flat - offsets[which])
        p = params[which]
        orig = p.flat[inner]
        p.flat[inner] = orig + h
        up = loss()
        p.flat[inner] = orig - h
        down = loss()
        p.flat[inner] = orig
        numeric = (up - down) / (2.0 * h)
        a = analytic[which].flat[inner]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
    return worst


def grad_check(net: DenseNet, batch: np.ndarray, targets: np.ndarray,
               loss: str = "cce", h: float = 1e-5, n_samples: int = 200,
               seed: int = 0) -> float:
    """audit_gradients of a network's backprop under one of LOSSES."""
    loss_fn, grad_fn = LOSSES[loss]
    cache = net.forward(batch)
    analytic, _ = net.backward(cache, grad_fn(cache.output, targets))
    return audit_gradients(net.params, lambda: loss_fn(net(batch), targets), analytic,
                           h, n_samples, seed)


def _map_batches(fn, n: int, rows: int) -> list:
    """fn over consecutive slices of rows 0..n, at most ``rows`` long, in order.

    A zero n still gives one empty slice, so results keep their shape.
    """
    return [fn(slice(start, start + rows)) for start in range(0, max(n, 1), rows)]


def split_indices(n: int, seed: int, train_frac: float = 0.67):
    """Deterministic shuffled train/test split; disjoint and exhaustive."""
    if n < 2:
        raise ValueError("need at least 2 entries to split")
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(round(n * train_frac))
    cut = min(max(cut, 1), n - 1)
    return perm[:cut], perm[cut:]


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# checkpoints: JSON header + flat little-endian float64 parameter block

_CKPT_MAGIC = b"NNCP"
_CKPT_VERSION = 1
_CKPT_PRELUDE = struct.Struct("<4sII")


def layer_specs_to_json(layers: Sequence[LayerSpec]) -> list:
    return [{"in": s.in_dim, "out": s.out_dim, "activation": s.activation} for s in layers]


def layer_specs_from_json(obj) -> list:
    return [LayerSpec(int(d["in"]), int(d["out"]), str(d["activation"])) for d in obj]


def save_checkpoint(path, header: dict, arrays) -> None:
    """Write a versioned JSON header plus the parameter block.

    Round-trips are bit-exact: arrays are stored as little-endian
    float64 in the order given, with shapes recorded in the header.
    """
    header = dict(header)
    header["param_shapes"] = [list(a.shape) for a in arrays]
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_PRELUDE.pack(_CKPT_MAGIC, _CKPT_VERSION, len(encoded)))
        fh.write(encoded)
        fh.write(blob)


def header_field(header: dict, key: str, convert):
    """``convert(header[key])`` for a checkpoint header.

    The one reader of header fields: a missing key or a value that
    ``convert`` rejects raises ValueError, never KeyError or TypeError.
    """
    try:
        return convert(header[key])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint header field {key!r} missing or malformed ({exc!r})") from exc


def load_checkpoint(path):
    """Read (header, arrays) from a checkpoint written by save_checkpoint."""
    with open(path, "rb") as fh:
        prelude = fh.read(_CKPT_PRELUDE.size)
        if len(prelude) < _CKPT_PRELUDE.size:
            raise ValueError(f"{path}: truncated checkpoint")
        magic, version, header_len = _CKPT_PRELUDE.unpack(prelude)
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        shapes = header_field(header, "param_shapes",
                              lambda v: [[int(n) for n in shape] for shape in v])
        arrays = []
        for shape in shapes:
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise ValueError(f"{path}: truncated parameter block")
            arrays.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
    return header, arrays


def restore_net(header: dict, key: str, arrays, offset: int = 0) -> tuple[DenseNet, int]:
    """Rebuild a DenseNet from the layer list ``header[key]`` and checkpoint arrays.

    Returns the net and the index just past its parameters, so several
    nets can share one parameter block.
    """
    layers = header_field(header, key, layer_specs_from_json)
    if len(arrays) < offset + 2 * len(layers):
        raise ValueError("checkpoint holds fewer parameter arrays than its layers need")
    net = DenseNet(layers, seed=0)
    for i in range(len(layers)):
        w = arrays[offset + 2 * i]
        b = arrays[offset + 2 * i + 1]
        if w.shape != net.weights[i].shape or b.shape != net.biases[i].shape:
            raise ValueError("checkpoint parameter shapes do not match architecture")
        net.weights[i] = w.astype(np.float64, copy=True)
        net.biases[i] = b.astype(np.float64, copy=True)
    return net, offset + 2 * len(layers)
