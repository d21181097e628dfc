"""Command-line surface of the pipeline.

Commands: generate (corpus cache + manifest), train (classifier or
autoencoder checkpoints + history CSVs), map (latent exports: points,
density, WOE, segments, class map, trajectories, associations,
generated curves), describe (per-column metadata records for a CSV),
eval (confusion report), grad-check (finite-difference audit).

Every command is reproducible from its flags and seed; each run
appends its invocation to run_log.jsonl in the output directory.
Figure-style results are emitted as data files, never rendered.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, betavae, cdfrepair, classifier, distgen, latentlab
from .cdfcodec import GridShape, describe_series
from .neuralcore import (
    ShapeMismatchError,
    TrainConfig,
    TrainingDivergedError,
    build_nets,
    grad_check,
    one_hot,
    param_shapes,
    split_indices,
)

# tokens treated as missing cells when parsing input CSVs
MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}

EXIT_BAD_SPEC = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_DIVERGED = 4
EXIT_MISMATCH = 5
EXIT_BAD_INPUT = 6

GRAD_CHECK_TOLERANCE = 1e-4

# rows formatted per write of a CSV export; bounds the strings held at once
CSV_CHUNK_ROWS = 8192

METADATA_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "variable metadata record",
    "type": "object",
    "required": ["name", "n_values", "n_missing", "low_confidence", "z", "sigma",
                 "predicted_family", "predicted_family_id", "probabilities",
                 "entropy", "skewness", "ks_uniform", "segment"],
    "properties": {
        "name": {"type": "string"},
        "n_values": {"type": "integer", "minimum": 2},
        "n_missing": {"type": "integer", "minimum": 0},
        "low_confidence": {"type": "boolean"},
        "z": {"type": "array", "items": {"type": "number"}, "minItems": 1, "maxItems": 2},
        "sigma": {"type": "array", "items": {"type": "number"}, "minItems": 1, "maxItems": 2},
        "predicted_family": {"type": "string"},
        "predicted_family_id": {"type": "integer", "minimum": 0, "maximum": 12},
        "probabilities": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0, "maximum": 1},
        },
        "entropy": {"type": "number", "minimum": 0, "maximum": 1},
        "skewness": {"type": "number", "minimum": -1, "maximum": 1},
        "ks_uniform": {"type": "number", "minimum": 0, "maximum": 1},
        "segment": {"type": "string"},
    },
}


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _out_dir(args) -> Path:
    """The output directory, made with its parents; a path that cannot be one exits 2."""
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_BAD_SPEC, f"--out-dir {out}: {exc.strerror}") from exc
    return out


def _log_invocation(out: Path, command: str, argv, **details) -> None:
    record = {
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        **details,
    }
    with open(out / "run_log.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_lines(columns, n_rows: int) -> str:
    """The columns' n_rows rows as CSV lines; each cell is str() of its Python value."""
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
    text = "\r\n".join(map(",".join, zip(*cells))) + "\r\n"
    # a cell holding ',', '"', '\r' or '\n' adds to one of these counts
    if ('"' in text or text.count(",") != n_rows * (len(columns) - 1)
            or text.count("\r") != n_rows or text.count("\n") != n_rows
            or (len(columns) == 1 and "\r\n\r\n" in "\r\n" + text)):
        raise ValueError("a CSV cell would need quoting; cells must be plain names or numbers")
    return text


def _write_csv(path: Path, header, columns) -> None:
    """Write the header and the columns as CSV, CSV_CHUNK_ROWS rows at a time.

    The bytes are those that csv.writer's excel dialect writes for rows
    of str() cells. That dialect would quote a cell holding a comma, a
    double quote or a line break, or a lone empty field; such a cell
    raises ValueError here instead, since every string the CLI writes
    is a name it defines.
    """
    n_rows = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_lines([[name] for name in header], 1))
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, n_rows)
            fh.write(_csv_lines([c[start:stop] for c in columns], stop - start))


def _write_history(path: Path, history) -> None:
    names = [f.name for f in fields(history[0])]
    _write_csv(path, names, [[getattr(epoch, name) for epoch in history] for name in names])


def _parse_grid(text: str) -> GridShape:
    try:
        xs, ys = text.lower().split("x")
        return GridShape(int(xs), int(ys))
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_BAD_SPEC, f"bad --grid {text!r}; expected like 26x25") from exc


def _load(loader, what: str, path: str, exit_code: int = EXIT_MISSING_ARTIFACT):
    """loader(path); a missing file, an OSError (a directory, say), a ValueError (text
    that is not UTF-8, say) or a csv.Error (a cell over csv's field limit) exits exit_code."""
    p = Path(path)
    if not p.exists():
        raise CliError(exit_code, f"{what} not found: {p}")
    try:
        return loader(p)
    except (OSError, ValueError, csv.Error) as exc:
        raise CliError(exit_code, f"unreadable {what}: {exc}") from exc


def _load_dataset(path: str, model=None, minimum: int = 2):
    """The dataset cache at path, by _load; a grid other than model's exits 5, then fewer
    than minimum entries (2 is the fewest a train/test split can serve) exit 6."""
    dataset = _load(distgen.load_cache, "dataset cache", path)
    if model is not None:
        _require_same_grid(model, dataset)
    if len(dataset) < minimum:
        raise CliError(EXIT_BAD_INPUT, f"{path}: too few entries ({len(dataset)}); "
                                       f"at least {minimum} are needed")
    return dataset


def _require_memory(what: str, n_bytes: int) -> None:
    """Exit 2 when what needs more bytes than the machine's physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n_bytes > memory:
        raise CliError(EXIT_BAD_SPEC, f"{what} needs {n_bytes} bytes, more than the "
                                      f"{memory} bytes of physical memory")


def _load_grid_classifier(path: str):
    model, header = _load(classifier.load_classifier, "classifier checkpoint", path)
    if model.grid_shape is None:
        raise CliError(EXIT_MISMATCH, "--classifier must be a grid-input checkpoint")
    return model, header


def _require_same_grid(model, other, other_name: str = "dataset") -> None:
    if model.grid_shape != other.grid_shape:
        raise CliError(EXIT_MISMATCH, f"checkpoint grid {model.grid_shape} != "
                                      f"{other_name} grid {other.grid_shape}")


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args, argv) -> int:
    if args.spec:
        spec_obj = _load(lambda p: json.loads(p.read_text(encoding="utf-8")), "dataset spec",
                         args.spec, EXIT_BAD_SPEC)
        try:
            master_seed, per_family, grid = distgen.parse_dataset_spec(spec_obj)
        except ValueError as exc:
            raise CliError(EXIT_BAD_SPEC, f"malformed dataset spec: {exc}") from exc
    else:
        master_seed = args.seed
        per_family = args.per_family
        grid = _parse_grid(args.grid)
        if per_family < 1:
            raise CliError(EXIT_BAD_SPEC, "--per-family must be >= 1")
    n = distgen.N_FAMILIES * per_family
    # generate writes the float32 grids block by block and never holds them, but train,
    # eval and map load them whole: a corpus they could not load is refused here
    _require_memory(f"a corpus of {n} entries on a {grid.x_bins}x{grid.y_levels} grid",
                    4 * n * grid.n_cells)

    out = _out_dir(args)
    # the worker count depends on the machine, so it goes to the run log only
    _log_invocation(out, "generate", argv, workers=distgen.worker_count(n))
    cache_path = out / "dataset.bin"
    fields = distgen.write_corpus(cache_path, per_family, grid, master_seed)

    spec_obj = {"master_seed": master_seed, "per_family_count": per_family, "grid": asdict(grid)}
    _write_json(out / "dataset_spec.json", spec_obj)

    with open(cache_path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    per_family_stats = []
    for fid in range(distgen.N_FAMILIES):
        mask = fields["labels"] == fid
        per_family_stats.append({
            "family_id": fid,
            "name": distgen.FAMILY_NAMES[fid],
            "count": int(mask.sum()),
            "mean_entropy": round(float(fields["entropy"][mask].mean()), 6),
            "mean_skewness": round(float(fields["skewness"][mask].mean()), 6),
            "mean_ks_uniform": round(float(fields["ks_uniform"][mask].mean()), 6),
            "mean_sample_size": round(float(fields["sample_sizes"][mask].mean()), 2),
        })
    manifest = {
        "kind": "cdf-dataset-manifest",
        "version": 1,
        "n_entries": n,
        "n_families": distgen.N_FAMILIES,
        "per_family_count": per_family,
        "master_seed": master_seed,
        "grid": asdict(grid),
        "sample_size_range": [distgen.MIN_SAMPLE_SIZE, distgen.MAX_SAMPLE_SIZE],
        "cache_file": cache_path.name,
        "cache_bytes": cache_path.stat().st_size,
        "cache_sha256": digest,
        "per_family": per_family_stats,
    }
    _write_json(out / "dataset_manifest.json", manifest)
    print(f"generated {n} entries -> {cache_path}")
    return 0


# ---------------------------------------------------------------------------
# train

def _train_config_from_args(args, default_epochs: int) -> TrainConfig:
    try:
        return TrainConfig(
            epochs=args.epochs if args.epochs is not None else default_epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            rho=args.rho,
            epsilon=args.epsilon,
            optimizer=args.optimizer,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(EXIT_BAD_SPEC, f"bad training config: {exc}") from exc


def cmd_train(args, argv) -> int:
    config = _train_config_from_args(args, default_epochs=50 if args.model == "classifier" else 100)
    if args.model == "bvae" and not 0 <= args.beta < math.inf:
        raise CliError(EXIT_BAD_SPEC, f"--beta must be finite and >= 0, got {args.beta}")
    dataset = _load_dataset(args.dataset)
    out = _out_dir(args)
    _log_invocation(out, "train", argv)
    if args.model == "classifier":
        model, history = classifier.train_classifier(dataset, config)
        ckpt = out / "classifier.ckpt"
        classifier.save_classifier(ckpt, model, config)
        _write_history(out / "classifier_history.csv", history)
        print(f"classifier test accuracy {history[-1].test_accuracy:.4f} -> {ckpt}")
    else:
        model, history = betavae.train_bvae(dataset, beta=args.beta,
                                            latent_dim=args.latent_dim, config=config)
        ckpt = out / "bvae.ckpt"
        betavae.save_vae(ckpt, model, config)
        _write_history(out / "bvae_history.csv", history)
        print(f"autoencoder test bce {history[-1].test_bce:.3f} "
              f"(epoch 0: {history[0].test_bce:.3f}) -> {ckpt}")
    return 0


# ---------------------------------------------------------------------------
# map

def _lattice_columns(axes):
    """Index and coordinate columns of the row-major lattice over the axes.

    Each index and each axis value is formatted once; the columns are
    object arrays of those strings, picked by the lattice's indices.
    """
    indices = np.indices([len(axis) for axis in axes]).reshape(len(axes), -1)
    index_strings = np.array([str(i) for i in range(max(map(len, axes)))], dtype=object)
    coordinates = [np.array([str(v) for v in axis.tolist()], dtype=object)[i]
                   for axis, i in zip(axes, indices)]
    return [index_strings[i] for i in indices], coordinates


def cmd_map(args, argv) -> int:
    for flag in ("density_resolution", "class_map_resolution", "curve_resolution", "latent_epochs",
                 "trajectory_bins", "trajectory_min_count"):
        if getattr(args, flag) < 1:
            raise CliError(EXIT_BAD_SPEC, f"--{flag.replace('_', '-')} must be >= 1")
    for flag in ("w_star", "p_min"):
        if not math.isfinite(getattr(args, flag)):
            raise CliError(EXIT_BAD_SPEC, f"--{flag.replace('_', '-')} must be finite")
    model, _header = _load(betavae.load_vae, "autoencoder checkpoint", args.vae)
    d = model.latent_dim
    # each lattice holds at least one float64 per point; the curves one per grid cell
    for flag, per_point in (("density_resolution", 1), ("class_map_resolution", 1),
                            ("curve_resolution", model.grid_shape.n_cells)):
        resolution = getattr(args, flag)
        _require_memory(f"--{flag.replace('_', '-')} {resolution}", 8 * resolution ** d * per_point)
    dataset = _load_dataset(args.dataset, model, latentlab.MIN_DENSITY_POINTS)
    out = _out_dir(args)
    _log_invocation(out, "map", argv)

    points = betavae.encode_dataset(model, dataset)
    z_cols = [f"z{j + 1}" for j in range(d)]
    s_cols = [f"sigma{j + 1}" for j in range(d)]
    _write_csv(out / "latent_points.csv",
               z_cols + s_cols + ["family_id", "entropy", "skewness", "ks_uniform"],
               [*points.z.T, *points.sigma.T, points.labels, points.entropy,
                points.skewness, points.ks_uniform])

    bounds = latentlab.default_latent_bounds(points.z)
    try:
        field = latentlab.estimate_density(points.z, resolution=args.density_resolution,
                                           bounds=bounds)
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"{args.dataset}: {exc}") from exc
    woe = latentlab.woe_map(field)
    labels = latentlab.segment(woe, w_star=args.w_star, p_min=args.p_min)
    index_cols = ["x_index", "y_index"][:d]
    lattice_header = index_cols + ["x_center", "y_center"][:d]
    indices, centers = _lattice_columns([field.centers(axis) for axis in range(d)])
    density, woe_values = field.density.ravel(), woe.woe.ravel()
    _write_csv(out / "density.csv", lattice_header + ["density"], [*indices, *centers, density])
    _write_csv(out / "woe.csv", lattice_header + ["density", "woe"],
               [*indices, *centers, density, woe_values])
    _write_csv(out / "segments.csv", lattice_header + ["density", "woe", "segment"],
               [*indices, *centers, density, woe_values, latentlab.segment_names(labels)])

    trajs = latentlab.trajectories(points, n_entropy_bins=args.trajectory_bins,
                                   min_count=args.trajectory_min_count)
    _write_json(out / "trajectories.json", [
        {
            "family_id": t.family_id,
            "family": distgen.FAMILY_NAMES[t.family_id],
            "branch": t.branch,
            "waypoints": [
                {"entropy": w.entropy, "z": [float(v) for v in np.atleast_1d(w.z)],
                 "count": w.count, "spread": w.spread}
                for w in t.waypoints
            ],
        }
        for t in trajs
    ])

    latent_config = classifier.default_latent_train_config(
        epochs=args.latent_epochs, seed=distgen.mix64(args.seed, 21))
    latent_model, latent_accuracy = classifier.train_latent_classifier(points, latent_config)
    classifier.save_classifier(out / "latent_classifier.ckpt", latent_model, latent_config)
    axes = latentlab.latent_axes(bounds, args.class_map_resolution)
    cmap = latentlab.class_map(latent_model, axes)
    indices, coordinates = _lattice_columns(axes)
    _write_csv(out / "class_map.csv", index_cols + z_cols + ["family_id", "family"],
               [*indices, *coordinates, cmap, np.asarray(distgen.FAMILY_NAMES)[cmap]])

    overlap = latentlab.overlap_matrix(points)
    _write_csv(out / "overlap_matrix.csv", ["family"] + distgen.FAMILY_NAMES,
               [distgen.FAMILY_NAMES, *overlap.T])

    axes = latentlab.latent_axes(bounds, args.curve_resolution)
    shape = model.grid_shape
    raw = cdfrepair.grid_to_curve(betavae.generate_latent_grid(model, axes).reshape(
        -1, shape.x_bins, shape.y_levels))
    repaired = cdfrepair.monotone_repair(raw)
    n_points = raw.shape[0]
    _, coordinates = _lattice_columns(axes)
    (point_index, bin_index), (_, bin_center) = _lattice_columns(
        [np.arange(n_points), (np.arange(shape.x_bins) + 0.5) / shape.x_bins])
    _write_csv(out / "generated_curves.csv",
               ["point_index"] + z_cols + ["bin", "bin_center", "raw_level", "repaired_level"],
               [point_index, *(np.repeat(column, shape.x_bins) for column in coordinates),
                bin_index, bin_center, raw.ravel(), repaired.ravel()])

    print(f"mapped {len(points)} points; latent classifier test accuracy "
          f"{latent_accuracy:.4f}; exports in {out}")
    return 0


# ---------------------------------------------------------------------------
# describe

def _read_numeric_columns(path: Path):
    """Parse a wide CSV into (name, float array, missing count) records in header order.

    Short rows are padded with missing cells and long rows cut to the
    header. A column is numeric when every non-missing cell parses and
    at least two finite values remain; infinities count as missing.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(EXIT_BAD_INPUT, f"{path}: empty file") from None
        width = len(header)
        pad = [""] * width
        rows = [(row + pad)[:width] for row in reader]
    parsed = []
    for name, raw in zip(header, zip(*rows)):
        values = []
        missing = 0
        for cell in raw:
            text = cell.strip()
            if text.lower() in MISSING_TOKENS:
                missing += 1
                continue
            try:
                value = float(text)
            except ValueError:
                break
            if math.isfinite(value):
                values.append(value)
            else:
                missing += 1
        else:
            if len(values) >= 2:
                parsed.append((name, np.array(values, dtype=np.float64), missing))
    return parsed


def _segments_lookup(path: Path, latent_dim: int):
    """Load a segments.csv lattice into a function from a latent point to its cell label.

    A point outside the lattice, by more than half a step past an edge
    cell, is ``common``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        position = {name: i for i, name in enumerate(next(reader, []))}
        rows = [row for row in reader if row]
    if not rows:
        raise CliError(EXIT_MISSING_ARTIFACT, f"{path}: empty segments file")
    axes = ["x", "y"][:2 if "y_index" in position else 1]
    if len(axes) != latent_dim:
        raise CliError(EXIT_MISMATCH, f"{path}: {len(axes)}-D segments for a {latent_dim}-D latent")
    try:
        centers = [np.array(sorted({float(r[i]) for r in rows}))
                   for i in (position[f"{a}_center"] for a in axes)]
        indices = zip(*([int(r[i]) for r in rows] for i in (position[f"{a}_index"] for a in axes)))
        segment = position["segment"]
        labels = dict(zip(indices, (r[segment] for r in rows)))
    except (IndexError, KeyError, ValueError) as exc:
        raise CliError(EXIT_MISSING_ARTIFACT, f"{path}: malformed segments file ({exc!r})") from exc

    def nearest(centers: np.ndarray, value: float):
        step = centers[1] - centers[0] if centers.shape[0] > 1 else 1.0
        if value < centers[0] - 0.5 * step or value > centers[-1] + 0.5 * step:
            return None
        return int(np.argmin(np.abs(centers - value)))

    def lookup(z: np.ndarray) -> str:
        return labels.get(tuple(nearest(c, float(v)) for c, v in zip(centers, z)), "common")

    return lookup


def cmd_describe(args, argv) -> int:
    grid_model, _ = _load_grid_classifier(args.classifier)
    vae_model, _ = _load(betavae.load_vae, "autoencoder checkpoint", args.vae)
    _require_same_grid(grid_model, vae_model, "autoencoder")
    lookup = _load(lambda p: _segments_lookup(p, vae_model.latent_dim), "segments file",
                   args.segments) if args.segments else None
    columns = _load(_read_numeric_columns, "input csv", args.data, EXIT_BAD_INPUT)
    if not columns:
        raise CliError(EXIT_BAD_INPUT, f"{args.data}: no numeric columns to describe")
    target = Path(args.out) if args.out else Path(args.out_dir) / "metadata.jsonl"
    # _out_dir makes the output directory and its parents, so those need not exist yet
    out_dir = Path(args.out_dir).resolve()
    if target.is_dir() or not (target.parent.is_dir()
                               or target.parent.resolve() in (out_dir, *out_dir.parents)):
        raise CliError(EXIT_BAD_SPEC, f"cannot write {target}: it is a directory "
                                      "or its parent directory is missing")

    out = _out_dir(args)
    _log_invocation(out, "describe", argv)
    shape = grid_model.grid_shape
    records = []
    for name, values, missing in columns:
        grid, stats = describe_series(values, shape)
        probs = classifier.predict(grid_model, grid)
        mu, sigma = vae_model.encode(grid.flat()[None, :])
        fid = int(np.argmax(probs))
        records.append({
            "name": name,
            "n_values": int(values.shape[0]),
            "n_missing": int(missing),
            "low_confidence": bool(values.shape[0] < distgen.MIN_SAMPLE_SIZE),
            "z": [round(float(v), 6) for v in mu[0]],
            "sigma": [round(float(v), 6) for v in sigma[0]],
            "predicted_family": distgen.FAMILY_NAMES[fid],
            "predicted_family_id": fid,
            "probabilities": {distgen.FAMILY_NAMES[i]: round(float(probs[i]), 6)
                              for i in range(distgen.N_FAMILIES)},
            "entropy": round(stats.entropy, 6),
            "skewness": round(stats.skewness, 6),
            "ks_uniform": round(stats.ks_uniform, 6),
            "segment": lookup(mu[0]) if lookup else "common",
        })
    with open(target, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"described {len(records)} columns -> {target}")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args, argv) -> int:
    model, header = _load_grid_classifier(args.classifier)
    dataset = _load_dataset(args.dataset, model)
    try:
        split_seed = int((header.get("train_config") or {}).get("rng_seed", args.seed))
        if split_seed < 0:
            raise ValueError(f"negative rng_seed {split_seed}")
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise CliError(EXIT_MISSING_ARTIFACT,
                       f"{args.classifier}: malformed train_config ({exc!r})") from exc
    out = _out_dir(args)
    _log_invocation(out, "eval", argv)
    _, test_idx = split_indices(len(dataset), split_seed)
    matrix = classifier.evaluate(model, dataset.grids, dataset.labels, test_idx)
    report = {
        "overall_accuracy": round(matrix.overall_accuracy, 6),
        "simpler_confusion_rate": round(matrix.simpler_confusion_rate, 6),
        "more_complex_confusion_rate": round(matrix.more_complex_confusion_rate, 6),
        "split_seed": split_seed,
        "n_test": int(test_idx.shape[0]),
        "per_class": [
            {"family_id": i, "family": distgen.FAMILY_NAMES[i],
             "count": int(matrix.row_totals[i]),
             "recall": None if np.isnan(matrix.per_class_recall[i])
             else round(float(matrix.per_class_recall[i]), 6)}
            for i in range(distgen.N_FAMILIES)
        ],
        "matrix": matrix.counts.tolist(),
    }
    _write_json(out / "eval_report.json", report)
    _write_csv(out / "confusion_matrix.csv", ["family"] + distgen.FAMILY_NAMES,
               [distgen.FAMILY_NAMES, *matrix.counts.T])
    print(f"test accuracy {matrix.overall_accuracy:.4f} over {test_idx.shape[0]} entries")
    return 0


# ---------------------------------------------------------------------------
# grad-check

def cmd_grad_check(args, argv) -> int:
    grid = _parse_grid(args.grid)
    layers = {"classifier": [classifier.grid_classifier_layers(grid.n_cells)],
              "bvae": list(betavae.vae_layers(grid, args.latent_dim).values())}
    archs = list(layers) if args.arch == "both" else [args.arch]
    shapes = param_shapes([net for arch in archs for net in layers[arch]])
    # a float64 parameter vector and a gradient vector of the same length
    _require_memory(f"--grid {args.grid}", 16 * sum(math.prod(s) for net in shapes for s in net))
    out = _out_dir(args)
    _log_invocation(out, "grad-check", argv)
    rng = np.random.default_rng(args.seed)
    batch = rng.random((16, grid.n_cells))
    worst = {}
    if "classifier" in archs:
        (net,), _, _ = build_nets(layers["classifier"], [distgen.mix64(args.seed, 1)])
        targets = one_hot(rng.integers(0, distgen.N_FAMILIES, size=16), distgen.N_FAMILIES)
        worst["classifier"] = grad_check(net, batch, targets, seed=args.seed)
    if "bvae" in archs:
        model = betavae.VaeModel(grid, beta=3.0, latent_dim=args.latent_dim,
                                 seed=distgen.mix64(args.seed, 2))
        eps = rng.standard_normal((16, args.latent_dim))
        worst["bvae"] = betavae.vae_grad_check(model, batch, eps, seed=args.seed)
    failed = False
    for name, err in worst.items():
        ok = err < GRAD_CHECK_TOLERANCE
        failed |= not ok
        print(f"{name}: max relative error {err:.3e} "
              f"({'ok' if ok else 'EXCEEDS ' + str(GRAD_CHECK_TOLERANCE)})")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distatlas",
        description="CDF grid corpus generation, model training, and latent-space analysis")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--out-dir", default="out", help="output directory (default ./out)")
    # only generate and grad-check build a grid of their own
    gridded = argparse.ArgumentParser(add_help=False)
    gridded.add_argument("--grid", default="26x25", help="grid as XxY (default 26x25)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common, gridded], help="build the corpus cache")
    p.add_argument("--spec", help="dataset spec JSON (overrides the flags)")
    p.add_argument("--per-family", type=int, default=1000,
                   help="variables per family (default 1000)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common], help="train a model")
    p.add_argument("model", choices=["classifier", "bvae"])
    p.add_argument("--dataset", default="out/dataset.bin")
    p.add_argument("--epochs", type=int, default=None,
                   help="default 50 for classifier, 100 for bvae")
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--optimizer", choices=["rmsprop", "adadelta"], default="rmsprop")
    p.add_argument("--beta", type=float, default=3.0)
    p.add_argument("--latent-dim", type=int, choices=[1, 2], default=2)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("map", parents=[common], help="latent-space exports")
    p.add_argument("--vae", default="out/bvae.ckpt")
    p.add_argument("--dataset", default="out/dataset.bin")
    p.add_argument("--w-star", type=float, default=latentlab.DEFAULT_W_STAR)
    p.add_argument("--p-min", type=float, default=latentlab.DEFAULT_P_MIN)
    p.add_argument("--density-resolution", type=int, default=latentlab.DEFAULT_DENSITY_RESOLUTION)
    p.add_argument("--class-map-resolution", "--resolution", dest="class_map_resolution",
                   type=int, default=75)
    p.add_argument("--curve-resolution", type=int, default=50)
    p.add_argument("--latent-epochs", type=int, default=40)
    p.add_argument("--trajectory-bins", type=int, default=20)
    p.add_argument("--trajectory-min-count", type=int, default=20)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("describe", parents=[common],
                       help="emit metadata records for a CSV's numeric columns")
    p.add_argument("--data", required=True, help="wide-format CSV with a header row")
    p.add_argument("--classifier", default="out/classifier.ckpt")
    p.add_argument("--vae", default="out/bvae.ckpt")
    p.add_argument("--segments", default=None,
                   help="segments.csv from the map command; omitted -> all common")
    p.add_argument("--out", default=None, help="output JSONL (default out-dir/metadata.jsonl)")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("eval", parents=[common], help="held-out confusion report")
    p.add_argument("--classifier", default="out/classifier.ckpt")
    p.add_argument("--dataset", default="out/dataset.bin")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", parents=[common, gridded],
                       help="finite-difference audit of the gradients")
    p.add_argument("--arch", choices=["classifier", "bvae", "both"], default="both")
    p.add_argument("--latent-dim", type=int, choices=[1, 2], default=2)
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # seeds enter mix64 and the cache header modulo 2**64, so a larger one would alias
        if not 0 <= args.seed <= distgen.M64:
            raise CliError(EXIT_BAD_SPEC, f"--seed must be in [0, 2**64), got {args.seed}")
        return args.func(args, argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (TrainingDivergedError, ShapeMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # _load maps what cannot be read, so an OSError is an output path that cannot be written
        return (EXIT_DIVERGED if isinstance(exc, TrainingDivergedError)
                else EXIT_MISMATCH if isinstance(exc, ShapeMismatchError) else EXIT_BAD_SPEC)


if __name__ == "__main__":
    sys.exit(main())
