"""Span tracing of the distatlas modules, installed from outside the program.

`Tracer.install` replaces every public function and every public method of
the package's modules with a wrapper that records a span: name, parent span,
start and end in `perf_counter_ns`. A `from x import y` binds `y` into the
importing module at import time, so the copies held by other modules (for
example `distgen.encode_cdf`, `cli.signed_ks`, `betavae.binary_cross_entropy`)
are replaced as well. Methods are wrapped on their class, which reaches every
caller. `uninstall` restores the originals.

`DenseNet.forward` and `DenseNet.backward` spans carry the role of the net
(grid classifier, VAE trunk, heads or decoder, latent classifier), and the
spans of the `cli.cmd_*` functions carry the label of the benchmark op that
ran them (`Tracer.op`), so that per-layer metrics can be read off per net and
per op. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

MODULES = ("distgen", "cdfcodec", "neuralcore", "betavae", "classifier",
           "latentlab", "cdfrepair", "cli")

NETS = ("grid_classifier", "vae_trunk", "vae_heads", "vae_decoder", "latent_classifier")

# op labels whose CLI self time and bytes written are reported; `describe_extreme`,
# the op that fails today, is left out so that its fix moves none of them
COMMANDS = ("generate", "train_classifier", "eval", "train_bvae", "map", "describe")
# per-layer metrics: name -> unit; README.md says which end-to-end figure each should move
PER_LAYER_UNITS = {
    "distgen.sample_variable_us": "us",
    "distgen.draw_spec_us": "us",
    "distgen.save_cache_s": "s",
    "distgen.load_cache_s": "s",
    "cdfcodec.encode_cdf_us": "us",
    "cdfcodec.signed_ks_us": "us",
    "cdfcodec.scale_to_unit_calls_per_series": "count",
    **{f"neuralcore.forward_ms.{net}": "ms" for net in NETS},
    **{f"neuralcore.backward_ms.{net}": "ms" for net in NETS},
    "neuralcore.bce_ms": "ms",
    "neuralcore.cce_ms": "ms",
    "neuralcore.rmsprop_step_ms": "ms",
    "neuralcore.adadelta_step_ms": "ms",
    "neuralcore.optimizer_steps": "count",
    "betavae.loss_gradients_self_ms": "ms",
    "betavae.heldout_eval_s": "s",
    "betavae.encode_dataset_s": "s",
    "betavae.generate_latent_grid_s": "s",
    "betavae.encode_us": "us",
    "classifier.train_latent_classifier_s": "s",
    "classifier.evaluate_s": "s",
    "classifier.predict_us": "us",
    "latentlab.estimate_density_s": "s",
    "latentlab.woe_map_s": "s",
    "latentlab.segment_s": "s",
    "latentlab.trajectories_s": "s",
    "latentlab.class_map_s": "s",
    "latentlab.overlap_matrix_s": "s",
    "cdfrepair.grid_to_curve_us": "us",
    "cdfrepair.monotone_repair_us": "us",
    **{f"cli.self_s.{cmd}": "s" for cmd in COMMANDS},
    **{f"cli.bytes_written.{cmd}": "bytes" for cmd in COMMANDS},
    "trace.spans_per_round": "count",
    "trace.wall_ratio": "ratio",
}

_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}

# spans of the held-out evaluation that train_bvae runs once per epoch
_HELDOUT_KINDS = {"betavae.VaeModel.encode", "betavae.VaeModel.decode",
                  "neuralcore.binary_cross_entropy", "betavae.kl_per_example"}


def net_role(net) -> str:
    """Name the role of a DenseNet from its architecture."""
    last = net.layers[-1].activation
    if last == "softmax":
        return "latent_classifier" if net.layers[0].in_dim <= 2 else "grid_classifier"
    return {"sigmoid": "vae_decoder", "identity": "vae_heads"}.get(last, "vae_trunk")


class Tracer:
    """Records spans of the wrapped package functions while installed."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans: list = []    # [name, parent index, start ns, end ns]
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.op = ""              # label of the op running now; tags the cli.cmd_* spans

    def _wrap(self, name: str, fn, tag=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if tag is None else f"{name}.{tag(args)}",
                    stack[-1] if stack else -1, time.perf_counter_ns(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    tag = (lambda a: self.op) if short == "cli" and attr.startswith("cmd_") else None
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj, tag))
                    self._patch(mod, attr, wrapped[id(obj)][1])
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        tag = (lambda a: net_role(a[0])) if obj.__name__ == "DenseNet" else None
                        self._patch(obj, meth, self._wrap(f"{short}.{obj.__name__}.{meth}", fn, tag))
        # copies bound into importing modules by `from x import y`
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")


def _median(values, unit: str) -> float:
    return statistics.median(values) / _SCALE[unit] if values else 0.0


def per_layer_metrics(spans, bytes_written: dict, n_rounds: int, series_per_round: int) -> dict:
    """Per-layer figures from the spans of `n_rounds` traced rounds.

    Per-call figures are medians over the calls; a layer the workload never
    calls reads 0. Self time is a span's duration minus its direct children.
    `bytes_written` maps an op label to the bytes each of its runs wrote, and
    `series_per_round` is the number of series a round takes in.
    """
    durations: dict = {}
    children: dict = {}
    for i, (name, parent, start, end) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        children.setdefault(parent, []).append(i)

    def dur(name):
        return durations.get(name, [])

    def self_times(wanted):
        out = []
        for i, span in enumerate(spans):
            if wanted(span[0]):
                kids = sum(spans[k][3] - spans[k][2] for k in children.get(i, ()))
                out.append(span[3] - span[2] - kids)
        return out

    def loss_pairs(value_name, grad_name):
        """Value plus gradient of one batch: each gradient call with its sibling value call."""
        out = []
        for kids in children.values():
            last_value = None
            for k in kids:
                name, _, start, end = spans[k]
                if name == value_name:
                    last_value = end - start
                elif name == grad_name and last_value is not None:
                    out.append(last_value + end - start)
                    last_value = None
        return out

    def heldout_evals():
        """Sum of each run of evaluation spans between training steps of train_bvae."""
        out = []
        for i, span in enumerate(spans):
            if span[0] != "betavae.train_bvae":
                continue
            total = 0
            for k in children.get(i, ()):
                name, _, start, end = spans[k]
                if name in _HELDOUT_KINDS:
                    total += end - start
                elif total:
                    out.append(total)
                    total = 0
            if total:
                out.append(total)
        return out

    units = PER_LAYER_UNITS
    m = {}
    for metric, fn in (("distgen.sample_variable_us", "distgen.sample_variable"),
                       ("distgen.draw_spec_us", "distgen.draw_spec"),
                       ("distgen.save_cache_s", "distgen.save_cache"),
                       ("distgen.load_cache_s", "distgen.load_cache"),
                       ("cdfcodec.encode_cdf_us", "cdfcodec.encode_cdf"),
                       ("cdfcodec.signed_ks_us", "cdfcodec.signed_ks"),
                       ("neuralcore.rmsprop_step_ms", "neuralcore.RMSprop.step"),
                       ("neuralcore.adadelta_step_ms", "neuralcore.Adadelta.step"),
                       ("betavae.encode_dataset_s", "betavae.encode_dataset"),
                       ("betavae.generate_latent_grid_s", "betavae.generate_latent_grid"),
                       ("betavae.encode_us", "betavae.VaeModel.encode"),
                       ("classifier.train_latent_classifier_s", "classifier.train_latent_classifier"),
                       ("classifier.evaluate_s", "classifier.evaluate"),
                       ("classifier.predict_us", "classifier.predict"),
                       ("latentlab.estimate_density_s", "latentlab.estimate_density"),
                       ("latentlab.woe_map_s", "latentlab.woe_map"),
                       ("latentlab.segment_s", "latentlab.segment"),
                       ("latentlab.trajectories_s", "latentlab.trajectories"),
                       ("latentlab.class_map_s", "latentlab.class_map"),
                       ("latentlab.overlap_matrix_s", "latentlab.overlap_matrix"),
                       ("cdfrepair.grid_to_curve_us", "cdfrepair.grid_to_curve"),
                       ("cdfrepair.monotone_repair_us", "cdfrepair.monotone_repair")):
        m[metric] = _median(dur(fn), units[metric])
    for net in NETS:
        m[f"neuralcore.forward_ms.{net}"] = _median(dur(f"neuralcore.DenseNet.forward.{net}"), "ms")
        m[f"neuralcore.backward_ms.{net}"] = _median(dur(f"neuralcore.DenseNet.backward.{net}"), "ms")
    m["neuralcore.bce_ms"] = _median(loss_pairs("neuralcore.binary_cross_entropy",
                                                "neuralcore.binary_cross_entropy_grad"), "ms")
    m["neuralcore.cce_ms"] = _median(loss_pairs("neuralcore.categorical_cross_entropy",
                                                "neuralcore.categorical_cross_entropy_grad"), "ms")
    n_series = series_per_round * n_rounds
    m["cdfcodec.scale_to_unit_calls_per_series"] = (
        len(dur("cdfcodec.scale_to_unit")) / n_series if n_series else 0.0)
    m["neuralcore.optimizer_steps"] = float(
        len(dur("neuralcore.RMSprop.step")) + len(dur("neuralcore.Adadelta.step"))) / n_rounds
    m["betavae.loss_gradients_self_ms"] = _median(
        self_times(lambda name: name == "betavae.VaeModel.loss_gradients"), "ms")
    m["betavae.heldout_eval_s"] = _median(heldout_evals(), "s")
    for cmd in COMMANDS:
        m[f"cli.self_s.{cmd}"] = _median(self_times(
            lambda name: name.startswith("cli.cmd_") and name.endswith("." + cmd)), "s")
        written = bytes_written.get(cmd, [])
        m[f"cli.bytes_written.{cmd}"] = float(statistics.median(written)) if written else 0.0
    m["trace.spans_per_round"] = len(spans) / n_rounds
    return m
