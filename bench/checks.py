"""Correctness checks of the pipeline's outputs, made apart from the program.

Each check reads a file the CLI wrote with the benchmark's own reader of the
documented format and compares it with a recomputation (numpy, scipy) or
with a property the method must have. A failed check raises `CheckError`.
The program's own code is used only to regenerate raw corpus series at their
documented seeds and to read `cli.METADATA_SCHEMA`. scipy.stats,
scipy.optimize and jsonschema, which the program never loads, are imported
inside the checks, so that they are not resident while the run is measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

N_FAMILIES = 13
MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


class CheckError(AssertionError):
    """A program output failed a correctness check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def read_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def close_f32(cached, exact) -> bool:
    """True when a float32 field holds `exact` to float32 precision (one ulp)."""
    return abs(float(cached) - exact) <= float(np.spacing(np.float32(abs(exact))))


# ---------------------------------------------------------------------------
# series statistics, recomputed with numpy and scipy

def scale_unit(values: np.ndarray):
    lo, hi = values.min(), values.max()
    return ((values - lo) / (hi - lo), False) if hi > lo else (np.zeros_like(values), True)


def reference_stats(values, n_bins: int = 26) -> tuple:
    """(entropy, d_pos, d_neg) of a series: a bin histogram and one-sided scipy K-S tests.

    Bins follow the documented rule floor(n_bins * u), u = 1 in the last bin.
    `np.histogram(u)` compares u with rounded `linspace` edges instead, so an
    integer-valued column, whose scaled values sit exactly on edges, lands
    partly one bin low there.
    """
    from scipy import stats

    values = np.asarray(values, dtype=np.float64)
    u, constant = scale_unit(values)
    counts, _ = np.histogram(np.minimum(np.floor(u * n_bins), n_bins - 1),
                             bins=n_bins, range=(0, n_bins))
    p = counts[counts > 0] / values.shape[0]
    ent = float(-(p * np.log2(p)).sum() / np.log2(n_bins))
    if constant:
        return ent, 0.0, 0.0
    d_pos = stats.kstest(u, "uniform", alternative="greater").statistic
    d_neg = stats.kstest(u, "uniform", alternative="less").statistic
    return ent, float(d_pos), float(d_neg)


# ---------------------------------------------------------------------------
# corpus: dataset.bin, dataset_manifest.json

_CACHE_HEADER = struct.Struct("<4sIQIIQI")


def read_cache(path) -> dict:
    """Read dataset.bin: header, then labels, sizes (int32), entropy, skewness,
    ks_uniform (float32) and the x-bin-major grids (float32), little endian."""
    raw = Path(path).read_bytes()
    require(len(raw) >= _CACHE_HEADER.size, f"{path}: truncated header")
    magic, version, n, x_bins, y_levels, seed, per_family = _CACHE_HEADER.unpack_from(raw)
    require(magic == b"CDFC" and version == 1, f"{path}: bad magic or version")
    off = _CACHE_HEADER.size
    out = {"n": n, "x_bins": x_bins, "y_levels": y_levels, "seed": seed, "per_family": per_family}
    for key, dtype, count in (("labels", "<i4", n), ("sizes", "<i4", n), ("entropy", "<f4", n),
                              ("skewness", "<f4", n), ("ks_uniform", "<f4", n),
                              ("grids", "<f4", n * x_bins * y_levels)):
        nbytes = 4 * count
        require(off + nbytes <= len(raw), f"{path}: truncated {key} block")
        out[key] = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
        off += nbytes
    require(off == len(raw), f"{path}: {len(raw) - off} trailing bytes")
    out["grids"] = out["grids"].reshape(n, x_bins, y_levels)
    return out


def check_manifest(out_dir, per_family: int, seed: int) -> dict:
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "dataset_manifest.json").read_text())
    cache_path = out_dir / manifest["cache_file"]
    require(sha256(cache_path) == manifest["cache_sha256"],
            "dataset.bin SHA-256 does not match the manifest")
    require(cache_path.stat().st_size == manifest["cache_bytes"], "cache size differs from manifest")
    cache = read_cache(cache_path)
    require(cache["n"] == manifest["n_entries"] == N_FAMILIES * per_family,
            f"{cache['n']} entries, expected {N_FAMILIES * per_family}")
    require((cache["per_family"], cache["seed"]) == (per_family, seed), "cache header seed/count")
    counts = np.bincount(cache["labels"], minlength=N_FAMILIES)
    require(counts.shape[0] == N_FAMILIES and np.all(counts == per_family),
            f"family counts {counts.tolist()} are not 13 x {per_family}")
    require([f["count"] for f in manifest["per_family"]] == [per_family] * N_FAMILIES,
            "manifest family counts")
    return cache


def check_grid(cells: np.ndarray, label: str) -> None:
    """Max cell 1, every rank level occupied, occupied cells a nondecreasing staircase."""
    require(cells.max() == 1.0, f"{label}: max cell {cells.max()} != 1")
    occupied = cells > 0
    require(np.all(occupied.any(axis=0)), f"{label}: a rank level is empty")
    top = -1
    for row in occupied:
        levels = np.flatnonzero(row)
        if levels.size:
            require(levels[0] >= top, f"{label}: occupied cells step down (not a CDF staircase)")
            top = levels[-1]


def check_entry(cache: dict, row: int, values: np.ndarray) -> None:
    """Grid properties and statistics of one cached entry against its raw series."""
    label = f"entry {row}"
    check_grid(cache["grids"][row], label)
    require(cache["sizes"][row] == values.shape[0], f"{label}: sample size")
    ent, d_pos, d_neg = reference_stats(values, cache["x_bins"])
    require(close_f32(cache["entropy"][row], ent), f"{label}: entropy {cache['entropy'][row]} != {ent}")
    skew, ks = float(cache["skewness"][row]), float(cache["ks_uniform"][row])
    # skewness = d_pos - d_neg and ks_uniform = max(d_pos, d_neg)
    cached_pos, cached_neg = (ks, ks - skew) if skew >= 0 else (ks + skew, ks)
    require(close_f32(ks, max(d_pos, d_neg)), f"{label}: ks_uniform {ks} != {max(d_pos, d_neg)}")
    require(abs(cached_pos - d_pos) <= 4e-7 and abs(cached_neg - d_neg) <= 4e-7,
            f"{label}: d_pos/d_neg {cached_pos}/{cached_neg} != {d_pos}/{d_neg}")


# ---------------------------------------------------------------------------
# train: classifier.ckpt, histories, eval_report.json

_CKPT_PRELUDE = struct.Struct("<4sII")


def read_checkpoint(path):
    """Read a checkpoint: prelude, JSON header, float64 arrays per param_shapes."""
    raw = Path(path).read_bytes()
    magic, version, header_len = _CKPT_PRELUDE.unpack_from(raw)
    require(magic == b"NNCP" and version == 1, f"{path}: bad checkpoint prelude")
    off = _CKPT_PRELUDE.size
    header = json.loads(raw[off:off + header_len])
    off += header_len
    arrays = []
    for shape in header["param_shapes"]:
        count = int(np.prod(shape)) if shape else 1
        arrays.append(np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape))
        off += 8 * count
    require(off == len(raw), f"{path}: parameter block size")
    return header, arrays


def classifier_forward(x: np.ndarray, arrays: list) -> np.ndarray:
    """relu, relu, softmax over the three affine layers of a classifier checkpoint."""
    a = np.asarray(x, dtype=np.float64)
    for i in range(3):
        z = a @ arrays[2 * i] + arrays[2 * i + 1]
        a = np.maximum(z, 0.0) if i < 2 else np.exp(z - z.max(axis=1, keepdims=True))
    return a / a.sum(axis=1, keepdims=True)


def split_cut(n: int) -> int:
    """Training rows of the documented 67/33 split: round(0.67 n), at least 1 of each side."""
    return min(max(int(round(n * 0.67)), 1), n - 1)


def heldout_indices(n: int, seed: int) -> np.ndarray:
    """Held-out rows of the documented split: a seeded permutation cut at `split_cut`."""
    return np.random.default_rng(seed).permutation(n)[split_cut(n):]


def check_classifier(out_dir, cache: dict, seed: int) -> float:
    out_dir = Path(out_dir)
    header, arrays = read_checkpoint(out_dir / "classifier.ckpt")
    require([l["activation"] for l in header["layers"]] == ["relu", "relu", "softmax"],
            "classifier architecture")
    test = heldout_indices(cache["n"], seed)
    x = cache["grids"].reshape(cache["n"], -1)[test]
    accuracy = float(np.mean(np.argmax(classifier_forward(x, arrays), axis=1)
                             == cache["labels"][test]))
    reported = float(read_rows(out_dir / "classifier_history.csv")[-1]["test_accuracy"])
    require(accuracy == reported, f"held-out accuracy {accuracy} != reported {reported}")
    report = json.loads((out_dir / "eval_report.json").read_text())
    require(abs(report["overall_accuracy"] - accuracy) <= 5e-7,
            f"eval accuracy {report['overall_accuracy']} != {accuracy}")
    require(accuracy > 3.0 / N_FAMILIES, f"held-out accuracy {accuracy} is near chance")
    return accuracy


def check_bvae_history(path) -> None:
    rows = read_rows(path)
    first, last = float(rows[0]["test_bce"]), float(rows[-1]["test_bce"])
    require(last < first, f"beta-VAE test BCE did not fall: {first} -> {last}")


# ---------------------------------------------------------------------------
# atlas: map exports

def check_density(path) -> None:
    rows = read_rows(path)
    x = np.array(sorted({float(r["x_center"]) for r in rows}))
    y = np.array(sorted({float(r["y_center"]) for r in rows}))
    require(len(rows) == x.size * y.size, "density lattice is not complete")
    cell = (x[-1] - x[0]) / (x.size - 1) * (y[-1] - y[0]) / (y.size - 1)
    mass = sum(float(r["density"]) for r in rows) * cell
    require(abs(mass - 1.0) < 1e-9, f"density integrates to {mass}, not 1")


def check_woe(path) -> None:
    for r in read_rows(path):
        d = float(r["density"])
        if d < 1e-12:
            require(r["woe"] == "nan", "WOE set below the density floor")
            continue
        x, y = float(r["x_center"]), float(r["y_center"])
        expected = math.log(d) + math.log(2.0 * math.pi) + 0.5 * (x * x + y * y)
        require(abs(float(r["woe"]) - expected) <= 1e-9 * max(1.0, abs(expected)),
                f"WOE {r['woe']} != log density - log N(0, I) = {expected} at ({x}, {y})")


def check_segments(path, w_star: float = 2.5, p_min: float = 0.025) -> set:
    labels = set()
    for r in read_rows(path):
        woe = float(r["woe"])
        exceptional = not math.isnan(woe) and abs(woe) > w_star and float(r["density"]) >= p_min
        name = r["segment"]
        require(name.startswith("exceptional-") == exceptional,
                f"cell ({r['x_index']}, {r['y_index']}) labelled {name} "
                f"with |WOE| {abs(woe)} and density {r['density']}")
        labels.add(name)
    return labels


def check_curves(path) -> None:
    from scipy import optimize

    curves: dict = {}
    for r in read_rows(path):
        raw, fixed = curves.setdefault(r["point_index"], ([], []))
        raw.append(float(r["raw_level"]))
        fixed.append(float(r["repaired_level"]))
    for k, (raw, fixed) in curves.items():
        expected = np.clip(optimize.isotonic_regression(raw).x, 0.0, 1.0)
        require(np.allclose(fixed, expected, rtol=0, atol=1e-12),
                f"curve {k}: repaired levels are not the clipped isotonic fit")


def check_overlap(path) -> None:
    for r in read_rows(path):
        total = sum(float(v) for k, v in r.items() if k != "family")
        require(abs(total - 1.0) < 1e-9, f"overlap row {r['family']} sums to {total}")


def check_class_map(path) -> None:
    ids = {int(r["family_id"]) for r in read_rows(path)}
    require(ids <= set(range(N_FAMILIES)), f"class map ids {sorted(ids)} outside 0..12")


def check_trajectories(path) -> None:
    for t in json.loads(Path(path).read_text()):
        ent = [w["entropy"] for w in t["waypoints"]]
        require(all(a < b for a, b in zip(ent, ent[1:])),
                f"{t['family']}/{t['branch']}: waypoint entropies do not increase")


def read_csv_columns(path) -> dict:
    """Wide CSV -> {name: (values, n_missing)}, missing tokens and short rows as missing."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cells = [[] for _ in header]
        for row in reader:
            for i in range(len(header)):
                cells[i].append(row[i].strip() if i < len(row) else "")
    out = {}
    for name, col in zip(header, cells):
        values = [float(c) for c in col if c.lower() not in MISSING_TOKENS]
        out[name] = (np.array(values), len(col) - len(values))
    return out


def check_metadata_schema(path, schema) -> list:
    import jsonschema

    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    for rec in records:
        try:
            jsonschema.validate(rec, schema)
        except jsonschema.ValidationError as exc:
            raise CheckError(f"{rec.get('name')}: {exc.message}") from None
    return records


def check_metadata(path, csv_path, schema, segment_labels: set) -> int:
    columns = read_csv_columns(csv_path)
    records = check_metadata_schema(path, schema)
    require([r["name"] for r in records] == list(columns), "one record per column, in order")
    for rec in records:
        name = rec["name"]
        values, missing = columns[name]
        require((rec["n_values"], rec["n_missing"]) == (values.shape[0], missing),
                f"{name}: value/missing counts")
        require(rec["low_confidence"] == (values.shape[0] < 35), f"{name}: low_confidence")
        probs = rec["probabilities"]
        require(probs[rec["predicted_family"]] == max(probs.values()),
                f"{name}: predicted family is not the argmax")
        require(rec["segment"] in segment_labels | {"common"}, f"{name}: unknown segment")
        ent, d_pos, d_neg = reference_stats(values)
        for key, ref in (("entropy", ent), ("skewness", d_pos - d_neg), ("ks_uniform", max(d_pos, d_neg))):
            require(abs(rec[key] - ref) <= 5e-7 + 1e-12,
                    f"{name}: {key} {rec[key]} != recomputed {ref}")
    return len(records)
