"""Dense feedforward networks with exact backprop, trained in float64.

A deliberately small engine sized for the grid-image models.
DenseNet.forward returns the activation list [x, a1, ..., aL], the float64
input and each layer's output and nothing more (the ReLU and sigmoid
backward read their masks and slopes from the outputs); calling a net is
the list-free forward for inference, which holds only the layer it
computes and that layer's input. forward is the one input-width check,
converts its input to float64 exactly (trainers pass the float32 rows of
a batch as they gather them) and writes each layer's output once: the bias
and the activation go into the matmul's buffer in place, the sigmoid in
STEP_CHUNK pieces. backward writes analytic gradients and skips the input
gradient no caller reads. build_nets makes one allocation per model,
whose nets are views of its parameter and gradient vectors; RMSprop and
Adadelta step those in STEP_CHUNK slices through a slice-sized scratch.
train_epochs is the one shuffled minibatch loop, audit_gradients the one
finite-difference audit. The BCE value writes each unit's term into one
buffer shaped like its input through a scratch of two pieces (the last
taking the remainder), upcasting a float32 target exactly, and sums it
once. Checkpoints are bit-exact; only save_model writes their header and
only load_model reads and checks it. The activations and the BCE value
and gradient keep the operations of their whole-expression forms in the
same order, so bit for bit. Everything is deterministic given (seed,
data, config).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

LOSS_EPS = 1e-7
AUDIT_SAMPLES = 200
# the audit's central-difference step
AUDIT_STEP = 1e-5
TRAIN_FRAC = 0.67
# optimizer slice length in entries (256 KiB of float64 per vector). An RMSprop step over
# the beta-VAE's 733,326 entries took 3.0 ms at this length, 3.6 ms at 8,192, 3.5 ms at
# 65,536, 3.8 ms at 131,072 and 4.5 ms over the whole vector (timeit, 2-core Xeon)
STEP_CHUNK = 32768

ACTIVATIONS = ("relu", "sigmoid", "softmax", "identity")


class ShapeMismatchError(ValueError):
    """Input width does not match the network."""


class TrainingDivergedError(RuntimeError):
    """A non-finite loss or gradient appeared during training."""


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    rho: float
    epsilon: float
    optimizer: str
    rng_seed: int

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
    """Logistic sigmoid, written into the C-contiguous z: the caller gives z up.

    It walks z in STEP_CHUNK pieces through a scratch of one piece, so it
    allocates nothing the size of z; every entry is computed alone, so the
    result is the whole-array expression's bit for bit.
    """
    flat = z.reshape(-1)
    e = np.empty(min(STEP_CHUNK, flat.size))
    ge = np.empty(e.size, dtype=bool)

    def sigmoid_slice(rows: slice) -> None:
        # exp(-|v|) without abs, which would flip a NaN's sign bit; then 1 / (1 + e) where
        # v >= 0 and e / (1 + e) elsewhere, as one division into the selected numerators
        v = flat[rows]
        s, g = e[:v.size], ge[:v.size]
        np.negative(v, out=s)
        np.exp(np.minimum(v, s, out=s), out=s)
        np.greater_equal(v, 0, out=g)
        np.copyto(v, s)
        np.copyto(v, 1.0, where=g)
        np.divide(v, np.add(s, 1.0, out=s), out=v)

    _map_batches(sigmoid_slice, flat.size, STEP_CHUNK)
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax, written into z: the caller gives z up."""
    np.exp(np.subtract(z, z.max(axis=1, keepdims=True), out=z), out=z)
    return np.divide(z, z.sum(axis=1, keepdims=True), out=z)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    # in place on DenseNet.forward's fresh pre-activation, so each layer's output is one buffer
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "softmax":
        return _softmax(z)
    return z


def _activation_backward(name: str, a: np.ndarray, grad_a: np.ndarray,
                         owned: bool = False) -> np.ndarray:
    """Gradient w.r.t. the pre-activation given the post-activation one.

    ReLU masks with a > 0, which is z > 0 bit for bit, NaN included, and
    masks grad_a in place when the caller owns it (``owned``).
    """
    if name == "relu":
        return np.multiply(grad_a, a > 0, out=grad_a if owned else None)
    if name == "sigmoid":
        return grad_a * a * (1.0 - a)
    if name == "softmax":
        inner = (grad_a * a).sum(axis=1, keepdims=True)
        return a * (grad_a - inner)
    return grad_a


def param_shapes(nets_layers) -> list:
    """The one parameter layout of a model: per net, [W, b] shapes per layer; nets in order."""
    return [[shape for s in layers for shape in ((s.in_dim, s.out_dim), (s.out_dim,))]
            for layers in nets_layers]


def build_nets(nets_layers, init) -> tuple[list, np.ndarray, np.ndarray]:
    """Allocate a model's two vectors once and bind its nets as views into them.

    ``init`` is one seed per net, whose weights draw layer by layer from
    default_rng(seed) as U(-sqrt(6/in_dim), +sqrt(6/in_dim)) over zero
    biases, or a parameter block in the layout, as load_model returns
    it, which becomes ``flat`` itself: no copy, no draw. Returns (nets,
    flat, grad); ``grad`` is uninitialized until a backward writes it.
    """
    sizes = [sum(map(math.prod, shapes)) for shapes in param_shapes(nets_layers)]
    fresh = not isinstance(init, np.ndarray)
    flat = np.zeros(sum(sizes)) if fresh else init
    grad = np.empty_like(flat)
    cuts = np.cumsum(sizes)[:-1]
    nets = [DenseNet(*net) for net in zip(nets_layers, np.split(flat, cuts), np.split(grad, cuts))]
    if fresh:
        for net, seed in zip(nets, init, strict=True):
            rng = np.random.default_rng(seed)
            for spec, w in zip(net.layers, net.params[0::2]):
                # rng.uniform(-limit, limit, w.shape) bit for bit: -limit + 2 * limit * u
                limit = np.sqrt(6.0 / spec.in_dim)
                rng.random(out=w)
                w *= 2.0 * limit
                w -= limit
    return nets, flat, grad


class DenseNet:
    """A stack of affine layers with elementwise or softmax activations.

    Its float64 ``params`` [W0, b0, W1, b1, ...] are views into ``flat``, which
    optimizers update in place, and its ``grads`` into ``grad``. build_nets
    allocates and initializes both vectors; a DenseNet only binds views.
    """

    def __init__(self, layers: Sequence[LayerSpec], flat: np.ndarray, grad: np.ndarray):
        layers = list(layers)
        if not layers:
            raise ValueError("need at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if prev.out_dim != cur.in_dim:
                raise ValueError(f"layer chain breaks: {prev.out_dim} -> {cur.in_dim}")
        if any(spec.activation == "softmax" for spec in layers[:-1]):
            raise ValueError("softmax is only valid as the final activation")
        self.layers, self.flat, self.grad = layers, flat, grad
        (shapes,) = param_shapes([layers])
        cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        self.params = [p.reshape(shape) for p, shape in zip(np.split(flat, cuts), shapes)]
        self.grads = [g.reshape(shape) for g, shape in zip(np.split(grad, cuts), shapes)]

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x: np.ndarray, cache: bool = True):
        """The layers over a batch: the activation list, or with ``cache`` False the output alone.

        The activation list is [x, a1, ..., aL]: the float64 copy of x,
        then each layer's output, so acts[i] is layer i's input and
        acts[-1] the net's output. Without it each layer's output is
        dropped once the next one is computed, and so is the copy of x;
        the values are the same bit for bit.
        """
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.in_dim:
            raise ShapeMismatchError(
                f"expected input of width {self.in_dim}, got shape {a.shape}")
        acts = [a] if cache else None
        for spec, w, b in zip(self.layers, self.params[0::2], self.params[1::2]):
            # a @ w + b in one buffer; added in place, a one-element z would keep b's NaN, not z's
            z = np.matmul(a, w)
            a = _activate(spec.activation, np.add(z, b, out=z if z.size > 1 else None))
            if acts is not None:
                acts.append(a)
        return a if acts is None else acts

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, cache=False)

    def backward(self, acts: list, grad_output: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Exact gradients for every parameter; returns the input gradient.

        ``acts`` is forward's activation list [x, a1, ..., aL]: layer i
        reads its input acts[i] for the weight gradient and its output
        acts[i + 1] for the activation's slope. grad_output is the loss
        gradient w.r.t. acts[-1]; whatever batch reduction the loss
        applies is already baked into it, and it is left unchanged. The
        parameter gradients are written into ``grad`` (views ``grads``,
        ordered like ``params``), which the next call overwrites. With
        ``input_grad`` False, layer 0's ``grad_z @ W0.T`` is skipped and None
        returned, for nets whose input is data rather than another net's output.
        """
        grad_a = np.asarray(grad_output, dtype=np.float64)
        last = len(self.layers) - 1
        for i in range(last, -1, -1):
            # below the top layer grad_a is the matmul result made here, so it may be overwritten
            grad_z = _activation_backward(self.layers[i].activation, acts[i + 1], grad_a,
                                          owned=i < last)
            np.matmul(acts[i].T, grad_z, out=self.grads[2 * i])
            np.sum(grad_z, axis=0, out=self.grads[2 * i + 1])
            if i == 0 and not input_grad:
                return None
            grad_a = grad_z @ self.params[2 * i].T
        return grad_a


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


def binary_cross_entropy(pred: np.ndarray, target: np.ndarray, owned: bool = False) -> float:
    """Binary cross entropy summed over units, averaged over the batch (float64 pred).

    Each unit's term goes into one float64 buffer shaped like pred, filled
    piece by piece through a scratch of two pieces, and the buffer is summed
    once; every term sees the whole-array expression's operations in the
    same order, so the value is its bit for bit. The pieces are STEP_CHUNK
    entries long and the last one takes the remainder: numpy runs a short
    array through other loops than the tail of a long one, and where two
    NaNs meet they keep the other operand's. A float32 target is upcast
    exactly, piece by piece, before its 1 - target, which therefore never
    rounds in float32. When the caller owns pred (``owned``, a C-ordered
    array), the terms go into pred itself: each piece is clipped into the
    scratch before its terms overwrite it, so the value is the same.
    """
    flat = pred.reshape(-1)
    goal = np.broadcast_to(target, pred.shape).reshape(-1)
    terms = pred if owned else np.empty(pred.shape)
    out = terms.reshape(-1)
    starts = range(0, max(flat.size - STEP_CHUNK, 0) + 1, STEP_CHUNK)
    scratch = np.empty((2, flat.size - starts[-1]))
    for rows in map(slice, starts, [*starts[1:], flat.size]):
        # target * log(p) + (1 - target) * log1p(-p) op by op, operands in that order so that
        # NaNs propagate alike, each result in its second operand: numpy adds into a
        # one-element first operand as a reduction, which keeps the other operand's NaN
        o = out[rows]
        p, t = scratch[:, :o.size]
        np.clip(flat[rows], LOSS_EPS, 1.0 - LOSS_EPS, out=p)
        np.log1p(np.negative(p, out=o), out=o)
        np.log(p, out=p)
        np.copyto(t, goal[rows])
        np.multiply(t, p, out=p)
        np.multiply(np.subtract(1.0, t, out=t), o, out=o)
        np.add(p, o, out=o)
    return float(-terms.sum() / pred.shape[0])


def binary_cross_entropy_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    # (-target / p + (1 - target) / (1 - p)) / batch, in two arrays, as the loss above
    p = np.clip(pred, LOSS_EPS, 1.0 - LOSS_EPS)
    g = np.subtract(1.0, p)
    np.divide(1.0 - target, g, out=g)
    np.add(np.divide(-target, p, out=p), g, out=g)
    g /= pred.shape[0]
    g[(pred < LOSS_EPS) | (pred > 1.0 - LOSS_EPS)] = 0.0
    return g


# ---------------------------------------------------------------------------
# optimizers

class RMSprop:
    """a <- rho*a + (1-rho)*g^2;  p <- p - lr * g / (sqrt(a) + eps).

    ``step`` walks the vectors in STEP_CHUNK slices through a two-row
    scratch of one slice each. Every entry sees the whole-vector
    expressions in the same order, so the result is the same bit for bit,
    and a step allocates nothing the size of the vector.
    """

    def __init__(self, flat: np.ndarray, config: TrainConfig):
        self.config = config
        self.acc = np.zeros_like(flat)
        self.scratch = np.empty((2, min(STEP_CHUNK, flat.size)))

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        c = self.config

        def step_slice(rows: slice) -> None:
            p, g, a = flat[rows], grad[rows], self.acc[rows]
            s, t = self.scratch[:, :g.size]
            a *= c.rho
            a += np.multiply(np.multiply(1.0 - c.rho, g, out=s), g, out=s)
            np.add(np.sqrt(a, out=s), c.epsilon, out=s)
            p -= np.divide(np.multiply(c.learning_rate, g, out=t), s, out=s)

        _map_batches(step_slice, flat.size, STEP_CHUNK)


class Adadelta:
    """Accumulates squared gradients and squared updates; steps by their ratio.

    Like RMSprop, ``step`` walks STEP_CHUNK slices through a two-row
    scratch, bit-identical to the whole-vector expressions.
    """

    def __init__(self, flat: np.ndarray, config: TrainConfig):
        self.config = config
        self.acc = np.zeros_like(flat)
        self.delta_acc = np.zeros_like(flat)
        self.scratch = np.empty((2, min(STEP_CHUNK, flat.size)))

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        c = self.config

        def step_slice(rows: slice) -> None:
            p, g, a, d = flat[rows], grad[rows], self.acc[rows], self.delta_acc[rows]
            s, update = self.scratch[:, :g.size]
            a *= c.rho
            a += np.multiply(np.multiply(1.0 - c.rho, g, out=s), g, out=s)
            np.sqrt(np.add(d, c.epsilon, out=update), out=update)
            update *= g
            update /= np.sqrt(np.add(a, c.epsilon, out=s), out=s)
            p -= np.multiply(c.learning_rate, update, out=s)
            d *= c.rho
            d += np.multiply(np.multiply(1.0 - c.rho, update, out=s), update, out=s)

        _map_batches(step_slice, flat.size, STEP_CHUNK)


def make_optimizer(flat: np.ndarray, config: TrainConfig):
    return (RMSprop if config.optimizer == "rmsprop" else Adadelta)(flat, config)


def train_epochs(flat: np.ndarray, config: TrainConfig, n: int, shuffle_seed: int, batch_step):
    """Minibatch training over rows 0..n-1; yields (epoch, mean of each loss part).

    Each of config.epochs epochs walks a fresh permutation of the rows,
    drawn from one generator seeded by shuffle_seed, in batch_size
    slices. ``batch_step(rows)`` returns (grad, parts) for those rows,
    grad laid out like ``flat`` and parts[0] the loss; a non-finite loss
    or gradient raises TrainingDivergedError before the step that would
    use it.
    """
    optimizer = make_optimizer(flat, config)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(n)
        parts_seen = []
        for start in range(0, n, config.batch_size):
            grad, parts = batch_step(perm[start:start + config.batch_size])
            if not np.isfinite(parts[0]):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            if not np.isfinite(grad).all():
                raise TrainingDivergedError(f"non-finite gradient at epoch {epoch}")
            optimizer.step(flat, grad)
            parts_seen.append(parts)
        yield epoch, [float(np.mean(column)) for column in zip(*parts_seen)]


# ---------------------------------------------------------------------------
# auditing and utilities

def audit_gradients(flat: np.ndarray, loss, analytic: np.ndarray, seed: int) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    ``loss`` is a closure that recomputes the scalar loss from the
    current parameter vector ``flat``; ``analytic`` holds its gradient
    in the same layout. Samples AUDIT_SAMPLES entries (all of them when
    there are fewer) and perturbs each by +-AUDIT_STEP around its value.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in rng.choice(flat.size, size=min(flat.size, AUDIT_SAMPLES), replace=False):
        orig = flat[i]
        flat[i] = orig + AUDIT_STEP
        up = loss()
        flat[i] = orig - AUDIT_STEP
        down = loss()
        flat[i] = orig
        numeric = (up - down) / (2.0 * AUDIT_STEP)
        a = analytic[i]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
    return worst


def grad_check(net: DenseNet, batch: np.ndarray, targets: np.ndarray, seed: int) -> float:
    """audit_gradients of a softmax network's backprop under categorical cross entropy."""
    acts = net.forward(batch)
    net.backward(acts, categorical_cross_entropy_grad(acts[-1], targets), input_grad=False)
    return audit_gradients(net.flat, lambda: categorical_cross_entropy(net(batch), targets),
                           net.grad, seed)


def _map_batches(fn, n: int, rows: int) -> list:
    """fn over consecutive slices of rows 0..n, at most ``rows`` long, in order.

    A zero n still gives one empty slice, so results keep their shape.
    """
    return [fn(slice(start, start + rows)) for start in range(0, max(n, 1), rows)]


def split_indices(n: int, seed: int):
    """Deterministic shuffled TRAIN_FRAC/rest split; disjoint and exhaustive."""
    if n < 2:
        raise ValueError("need at least 2 entries to split")
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(round(n * TRAIN_FRAC))
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


def _shapes_json(nets: dict) -> list:
    return [list(shape) for shapes in param_shapes(nets.values()) for shape in shapes]


def save_model(path, header: dict, nets: dict, flat: np.ndarray, config: TrainConfig) -> None:
    """Write a model's checkpoint: a versioned JSON header, then ``flat``.

    ``header`` holds the model's own fields (its ``kind`` among them);
    ``nets`` maps header keys to the LayerSpec lists of its nets in
    parameter order. Each list is written under its key, with
    ``train_config`` (``asdict(config)``) and the ``param_shapes``
    of the nets. ``flat`` follows as little-endian float64 in one write,
    so a round trip is bit-exact.
    """
    header = {**header, **{key: layer_specs_to_json(specs) for key, specs in nets.items()},
              "train_config": asdict(config),
              "param_shapes": _shapes_json(nets)}
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_PRELUDE.pack(_CKPT_MAGIC, _CKPT_VERSION, len(encoded)))
        fh.write(encoded)
        fh.write(np.ascontiguousarray(flat, dtype="<f8"))


def header_field(header: dict, key: str, convert):
    """``convert(header[key])`` for a checkpoint header.

    The one reader of header fields: a missing key or a value that
    ``convert`` rejects raises ValueError, never KeyError or TypeError.
    """
    try:
        return convert(header[key])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint header field {key!r} missing or malformed ({exc!r})") from exc


def load_model(path, kinds: dict) -> tuple[dict, dict, np.ndarray]:
    """Read and check a checkpoint written by save_model; returns (header, nets, block).

    ``kinds`` maps each accepted ``kind`` to a function from the header
    to that model's nets, as save_model takes them. Before the block is
    read, the header must fit in the file, its non-negative
    ``param_shapes`` must account for exactly the bytes after it, and
    each layer list and ``param_shapes`` must equal those of the nets.
    ``block`` is the flat float64 parameter vector, for build_nets to
    adopt; every value must be finite. A failed check raises ValueError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prelude = fh.read(_CKPT_PRELUDE.size)
        if len(prelude) < _CKPT_PRELUDE.size:
            raise ValueError(f"{path}: truncated checkpoint")
        magic, version, header_len = _CKPT_PRELUDE.unpack(prelude)
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if header_len > size - _CKPT_PRELUDE.size:
            raise ValueError(f"{path}: truncated checkpoint header")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        shapes = header_field(header, "param_shapes",
                              lambda v: [[int(n) for n in shape] for shape in v])
        count = sum(math.prod(shape) for shape in shapes)
        body = size - fh.tell()
        if any(n < 0 for shape in shapes for n in shape) or body != 8 * count:
            raise ValueError(f"{path}: param_shapes do not match the {body}-byte parameter block")
        nets_of = header_field(header, "kind", kinds.get)
        if nets_of is None:
            raise ValueError(f"{path}: kind {header['kind']!r} is not one of {sorted(kinds)}")
        nets = nets_of(header)
        if any(header.get(key) != layer_specs_to_json(specs) for key, specs in nets.items()):
            raise ValueError(f"{path}: checkpoint layer lists do not match the architecture")
        if header["param_shapes"] != _shapes_json(nets):
            raise ValueError(f"{path}: checkpoint parameter shapes do not match the architecture")
        block = np.fromfile(fh, dtype="<f8", count=count)
        if block.size != count:
            raise ValueError(f"{path}: parameter block ends early")
        if not np.isfinite(block).all():
            raise ValueError(f"{path}: parameter block holds a non-finite value")
        return header, nets, block
