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
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, betavae, cdfrepair, classifier, distgen, latentlab
from .cdfcodec import GridShape, describe_series
from .neuralcore import (
    DenseNet,
    ShapeMismatchError,
    TrainConfig,
    TrainingDivergedError,
    grad_check,
    one_hot,
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
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _log_invocation(out: Path, command: str, argv) -> None:
    record = {
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
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


def _load(loader, what: str, path: str):
    """loader(path), with a missing or unreadable artifact exiting 3."""
    p = Path(path)
    if not p.exists():
        raise CliError(EXIT_MISSING_ARTIFACT, f"{what} not found: {p}")
    try:
        return loader(p)
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_MISSING_ARTIFACT, f"unreadable {what}: {exc}") from exc


def _load_grid_classifier(path: str):
    model, header = _load(classifier.load_classifier, "classifier checkpoint", path)
    if not isinstance(model, classifier.GridClassifier):
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
        spec_path = Path(args.spec)
        if not spec_path.exists():
            raise CliError(EXIT_BAD_SPEC, f"spec file not found: {spec_path}")
        try:
            with open(spec_path, encoding="utf-8") as fh:
                spec_obj = json.load(fh)
            master_seed, per_family, grid = distgen.parse_dataset_spec(spec_obj)
        except (json.JSONDecodeError, ValueError) as exc:
            raise CliError(EXIT_BAD_SPEC, f"malformed dataset spec: {exc}") from exc
    else:
        master_seed = args.seed
        per_family = args.per_family
        grid = _parse_grid(args.grid)
        if per_family < 1:
            raise CliError(EXIT_BAD_SPEC, "--per-family must be >= 1")

    out = _out_dir(args)
    _log_invocation(out, "generate", argv)
    dataset = distgen.build_doe(per_family, grid, master_seed)
    cache_path = out / "dataset.bin"
    distgen.save_cache(dataset, cache_path)

    spec_obj = {"master_seed": master_seed, "per_family_count": per_family, "grid": asdict(grid)}
    _write_json(out / "dataset_spec.json", spec_obj)

    with open(cache_path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    per_family_stats = []
    for fid in range(distgen.N_FAMILIES):
        mask = dataset.labels == fid
        per_family_stats.append({
            "family_id": fid,
            "name": distgen.FAMILY_NAMES[fid],
            "count": int(mask.sum()),
            "mean_entropy": round(float(dataset.entropy[mask].mean()), 6),
            "mean_skewness": round(float(dataset.skewness[mask].mean()), 6),
            "mean_ks_uniform": round(float(dataset.ks_uniform[mask].mean()), 6),
            "mean_sample_size": round(float(dataset.sample_sizes[mask].mean()), 2),
        })
    manifest = {
        "kind": "cdf-dataset-manifest",
        "version": 1,
        "n_entries": len(dataset),
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
    print(f"generated {len(dataset)} entries -> {cache_path}")
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
    dataset = _load(distgen.load_cache, "dataset cache", args.dataset)
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
    for flag in ("density_resolution", "class_map_resolution", "curve_resolution", "latent_epochs"):
        if getattr(args, flag) < 1:
            raise CliError(EXIT_BAD_SPEC, f"--{flag.replace('_', '-')} must be >= 1")
    for flag in ("w_star", "p_min"):
        if not math.isfinite(getattr(args, flag)):
            raise CliError(EXIT_BAD_SPEC, f"--{flag.replace('_', '-')} must be finite")
    model, _header = _load(betavae.load_vae, "autoencoder checkpoint", args.vae)
    dataset = _load(distgen.load_cache, "dataset cache", args.dataset)
    _require_same_grid(model, dataset)
    out = _out_dir(args)
    _log_invocation(out, "map", argv)

    points = betavae.encode_dataset(model, dataset)
    d = model.latent_dim
    z_cols = [f"z{j + 1}" for j in range(d)]
    s_cols = [f"sigma{j + 1}" for j in range(d)]
    _write_csv(out / "latent_points.csv",
               z_cols + s_cols + ["family_id", "entropy", "skewness", "ks_uniform"],
               [*points.z.T, *points.sigma.T, points.labels, points.entropy,
                points.skewness, points.ks_uniform])

    bounds = betavae.default_latent_bounds(points.z)
    try:
        field = latentlab.estimate_density(points.z, resolution=args.density_resolution,
                                           bounds=bounds)
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"{args.dataset}: {exc}") from exc
    woe = latentlab.segment(latentlab.woe_map(field), w_star=args.w_star, p_min=args.p_min)
    index_cols = ["x_index", "y_index"][:d]
    lattice_header = index_cols + ["x_center", "y_center"][:d]
    indices, centers = _lattice_columns([field.centers(axis) for axis in range(d)])
    lattice = [*indices, *centers]
    _write_csv(out / "density.csv", lattice_header + ["density"],
               [*lattice, field.density.ravel()])
    _write_csv(out / "woe.csv", lattice_header + ["density", "woe"],
               [*lattice, woe.density.ravel(), woe.woe.ravel()])
    _write_csv(out / "segments.csv", lattice_header + ["density", "woe", "segment"],
               [*lattice, woe.density.ravel(), woe.woe.ravel(), woe.segment_names()])

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
    latent_model, latent_history = classifier.train_latent_classifier(points, latent_config)
    classifier.save_classifier(out / "latent_classifier.ckpt", latent_model, latent_config)
    cmap = latentlab.class_map(latent_model, bounds, resolution=args.class_map_resolution).ravel()
    indices, coordinates = _lattice_columns(betavae.latent_axes(bounds, args.class_map_resolution))
    _write_csv(out / "class_map.csv", index_cols + z_cols + ["family_id", "family"],
               [*indices, *coordinates, cmap, np.asarray(distgen.FAMILY_NAMES)[cmap]])

    overlap = latentlab.overlap_matrix(points)
    _write_csv(out / "overlap_matrix.csv", ["family"] + distgen.FAMILY_NAMES,
               [distgen.FAMILY_NAMES, *overlap.T])

    _, decoded = betavae.generate_latent_grid(model, bounds, resolution=args.curve_resolution)
    shape = model.grid_shape
    n_points = decoded.shape[0]
    raw = np.empty((n_points, shape.x_bins))
    repaired = np.empty_like(raw)
    for k, cells in enumerate(decoded.reshape(n_points, shape.x_bins, shape.y_levels)):
        raw[k] = cdfrepair.grid_to_curve(cells)
        repaired[k] = cdfrepair.monotone_repair(raw[k])
    _, coordinates = _lattice_columns(betavae.latent_axes(bounds, args.curve_resolution))
    point_index = np.array([str(k) for k in range(n_points)], dtype=object)
    bins = range(shape.x_bins)
    bin_columns = (np.array([str(b) for b in bins], dtype=object),
                   np.array([str((b + 0.5) / shape.x_bins) for b in bins], dtype=object))
    _write_csv(out / "generated_curves.csv",
               ["point_index"] + z_cols + ["bin", "bin_center", "raw_level", "repaired_level"],
               [np.repeat(column, shape.x_bins) for column in (point_index, *coordinates)]
               + [np.tile(column, n_points) for column in bin_columns]
               + [raw.ravel(), repaired.ravel()])

    print(f"mapped {len(points)} points; latent classifier test accuracy "
          f"{latent_history[-1].test_accuracy:.4f}; exports in {out}")
    return 0


# ---------------------------------------------------------------------------
# describe

def _read_numeric_columns(path: Path):
    """Parse a wide CSV into {column: float array}; count missing cells.

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
    parsed = {}
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
                parsed[name] = (np.array(values, dtype=np.float64), missing)
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
    lookup = _segments_lookup(Path(args.segments), vae_model.latent_dim) if args.segments else None
    data_path = Path(args.data)
    if not data_path.exists():
        raise CliError(EXIT_BAD_INPUT, f"input csv not found: {data_path}")
    columns = _read_numeric_columns(data_path)
    if not columns:
        raise CliError(EXIT_BAD_INPUT, f"{data_path}: no numeric columns to describe")

    out = _out_dir(args)
    _log_invocation(out, "describe", argv)
    shape = grid_model.grid_shape
    records = []
    for name, (values, missing) in columns.items():
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
    target = Path(args.out) if args.out else out / "metadata.jsonl"
    with open(target, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"described {len(records)} columns -> {target}")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args, argv) -> int:
    model, header = _load_grid_classifier(args.classifier)
    dataset = _load(distgen.load_cache, "dataset cache", args.dataset)
    _require_same_grid(model, dataset)
    try:
        split_seed = int((header.get("train_config") or {}).get("rng_seed", args.seed))
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise CliError(EXIT_MISSING_ARTIFACT,
                       f"{args.classifier}: malformed train_config ({exc!r})") from exc
    out = _out_dir(args)
    _log_invocation(out, "eval", argv)
    _, test_idx = split_indices(len(dataset), split_seed)
    matrix = classifier.evaluate(model, dataset.grids[test_idx], dataset.labels[test_idx])
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
    out = _out_dir(args)
    _log_invocation(out, "grad-check", argv)
    grid = _parse_grid(args.grid)
    rng = np.random.default_rng(args.seed)
    batch = rng.random((16, grid.n_cells))
    worst = {}
    if args.arch in ("classifier", "both"):
        net = DenseNet(classifier.grid_classifier_layers(grid.n_cells),
                       seed=distgen.mix64(args.seed, 1))
        targets = one_hot(rng.integers(0, distgen.N_FAMILIES, size=16), distgen.N_FAMILIES)
        worst["classifier"] = grad_check(net, batch, targets, loss="cce", seed=args.seed)
    if args.arch in ("bvae", "both"):
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
    common.add_argument("--grid", default="26x25", help="grid as XxY (default 26x25)")
    common.add_argument("--out-dir", default="out", help="output directory (default ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="build the corpus cache")
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

    p = sub.add_parser("grad-check", parents=[common],
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
        return args.func(args, argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
