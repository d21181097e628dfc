"""Each correctness check of the benchmark accepts real outputs and rejects broken ones.

A small pipeline (8 series per family, short training) runs once through the
CLI; every test then breaks one output in a copy and expects its check to fail.
"""

from __future__ import annotations

import csv
import inspect
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import tracing  # noqa: E402
from distatlas import cdfcodec, cli, distgen  # noqa: E402

SEED = 3
PER_FAMILY = 8


def run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("pipeline")
    run("generate", "--per-family", PER_FAMILY, "--seed", SEED, "--out-dir", out)
    data = ["--dataset", out / "dataset.bin", "--seed", SEED, "--out-dir", out]
    run("train", "classifier", "--epochs", 8, *data)
    run("eval", "--classifier", out / "classifier.ckpt", *data)
    run("train", "bvae", "--epochs", 3, *data)
    run("map", "--vae", out / "bvae.ckpt", *data[:2], "--seed", SEED, "--out-dir", out)
    rng = np.random.default_rng(SEED)
    columns = {"normal": rng.normal(size=60), "counts": rng.poisson(3.0, 60).astype(float),
               "short": rng.exponential(size=60)}
    with open(out / "wide.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(60):
            cells = [repr(float(v[i])) for v in columns.values()]
            if i >= 20:
                cells[2] = ""
            if i % 7 == 0:
                cells[0] = "NA"
            fh.write(",".join(cells) + "\n")
    run("describe", "--data", out / "wide.csv", "--classifier", out / "classifier.ckpt",
        "--vae", out / "bvae.ckpt", "--segments", out / "segments.csv", "--out-dir", out)
    return out


@pytest.fixture
def broken(outputs, tmp_path) -> Path:
    """A copy of the outputs that a test may damage."""
    copy = tmp_path / "copy"
    shutil.copytree(outputs, copy)
    return copy


def edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV after `edit(rows)` changed its rows in place."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fieldnames = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def edit_jsonl(path: Path, edit) -> None:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def regenerate(fid: int, index: int) -> np.ndarray:
    spec = distgen.draw_spec(fid, np.random.default_rng(distgen.mix64(SEED, fid, index, 0)))
    return distgen.sample_variable(spec, distgen.mix64(SEED, fid, index, 1)).values


def check_atlas(out: Path) -> None:
    checks.check_density(out / "density.csv")
    checks.check_woe(out / "woe.csv")
    labels = checks.check_segments(out / "segments.csv")
    checks.check_curves(out / "generated_curves.csv")
    checks.check_overlap(out / "overlap_matrix.csv")
    checks.check_class_map(out / "class_map.csv")
    checks.check_trajectories(out / "trajectories.json")
    checks.check_metadata(out / "metadata.jsonl", out / "wide.csv", cli.METADATA_SCHEMA, labels)


def test_real_outputs_pass(outputs):
    cache = checks.check_manifest(outputs, PER_FAMILY, SEED)
    for fid in range(distgen.N_FAMILIES):
        for index in (0, PER_FAMILY - 1):
            checks.check_entry(cache, fid * PER_FAMILY + index, regenerate(fid, index))
    assert checks.check_classifier(outputs, cache, SEED) > 3 / 13
    checks.check_bvae_history(outputs / "bvae_history.csv")
    check_atlas(outputs)


def test_cache_digest_mismatch_is_rejected(broken):
    raw = bytearray((broken / "dataset.bin").read_bytes())
    raw[-1] ^= 0x01
    (broken / "dataset.bin").write_bytes(bytes(raw))
    with pytest.raises(checks.CheckError, match="SHA-256"):
        checks.check_manifest(broken, PER_FAMILY, SEED)


def test_unequal_family_counts_are_rejected(broken):
    manifest = json.loads((broken / "dataset_manifest.json").read_text())
    manifest["per_family"][0]["count"] += 1
    (broken / "dataset_manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckError, match="family counts"):
        checks.check_manifest(broken, PER_FAMILY, SEED)


def empty_a_level(grid):
    grid[:, np.argmin(grid.max(axis=0))] = 0.0
    return grid


@pytest.mark.parametrize("damage, message", [
    (lambda grid: grid * 0.9, "max cell"),
    (empty_a_level, "rank level is empty"),
    (lambda grid: grid[::-1], "step down"),
])
def test_broken_grids_are_rejected(damage, message):
    grid = cdfcodec.encode_cdf(regenerate(5, 0)).cells.copy()
    checks.check_grid(grid, "normal")
    with pytest.raises(checks.CheckError, match=message):
        checks.check_grid(damage(grid), "damaged")


@pytest.mark.parametrize("field", ["entropy", "skewness", "ks_uniform"])
def test_cached_statistic_off_by_1e_3_is_rejected(outputs, field):
    cache = checks.read_cache(outputs / "dataset.bin")
    cache[field] = cache[field].copy()
    cache[field][PER_FAMILY * 4] += 1e-3
    with pytest.raises(checks.CheckError):
        checks.check_entry(cache, PER_FAMILY * 4, regenerate(4, 0))


def test_misreported_accuracy_is_rejected(broken):
    def edit(rows):
        rows[-1]["test_accuracy"] = str(float(rows[-1]["test_accuracy"]) + 0.01)
    edit_csv(broken / "classifier_history.csv", edit)
    cache = checks.read_cache(broken / "dataset.bin")
    with pytest.raises(checks.CheckError, match="held-out accuracy"):
        checks.check_classifier(broken, cache, SEED)


def test_bce_that_does_not_fall_is_rejected(broken):
    def edit(rows):
        rows[-1]["test_bce"] = rows[0]["test_bce"]
    edit_csv(broken / "bvae_history.csv", edit)
    with pytest.raises(checks.CheckError, match="did not fall"):
        checks.check_bvae_history(broken / "bvae_history.csv")


def scale_density(rows):
    for r in rows:
        r["density"] = repr(float(r["density"]) * 0.9)


def bump_first_woe(rows):
    r = next(r for r in rows if r["woe"] != "nan")
    r["woe"] = repr(float(r["woe"]) + 1e-6)


def mislabel_thin_cell(rows):
    next(r for r in rows if float(r["density"]) < 0.025)["segment"] = "exceptional-1"


def dent_first_curve(rows):
    rows[1]["repaired_level"] = repr(float(rows[0]["repaired_level"]) - 0.01)


def unbalance_overlap(rows):
    rows[0]["beta"] = repr(float(rows[0]["beta"]) + 0.01)


def bad_class_id(rows):
    rows[0]["family_id"] = "13"


@pytest.mark.parametrize("name, edit, check", [
    ("density.csv", scale_density, checks.check_density),
    ("woe.csv", bump_first_woe, checks.check_woe),
    ("segments.csv", mislabel_thin_cell, checks.check_segments),
    ("generated_curves.csv", dent_first_curve, checks.check_curves),
    ("overlap_matrix.csv", unbalance_overlap, checks.check_overlap),
    ("class_map.csv", bad_class_id, checks.check_class_map),
])
def test_broken_map_exports_are_rejected(broken, name, edit, check):
    edit_csv(broken / name, edit)
    with pytest.raises(checks.CheckError):
        check(broken / name)


def test_entropy_that_falls_along_a_trajectory_is_rejected(broken):
    trajs = json.loads((broken / "trajectories.json").read_text())
    last = trajs[0]["waypoints"][-1]
    trajs[0]["waypoints"].append(dict(last, entropy=last["entropy"] - 0.01))
    (broken / "trajectories.json").write_text(json.dumps(trajs))
    with pytest.raises(checks.CheckError, match="do not increase"):
        checks.check_trajectories(broken / "trajectories.json")


def shift_ks(records):
    records[0]["ks_uniform"] += 1e-3


def pick_runner_up(records):
    probs = records[0]["probabilities"]
    records[0]["predicted_family"] = sorted(probs, key=probs.get)[-2]


def count_one_less(records):
    records[1]["n_values"] -= 1


def break_schema(records):
    records[2]["entropy"] = 1.5


@pytest.mark.parametrize("edit", [shift_ks, pick_runner_up, count_one_less, break_schema])
def test_broken_metadata_is_rejected(broken, edit):
    edit_jsonl(broken / "metadata.jsonl", edit)
    with pytest.raises(checks.CheckError):
        checks.check_metadata(broken / "metadata.jsonl", broken / "wide.csv",
                              cli.METADATA_SCHEMA, {"common"})


def module_bindings(package) -> dict:
    return {(name, attr): obj for name in tracing.MODULES
            for attr, obj in vars(getattr(package, name)).items()}


def test_tracer_reaches_imported_copies_and_restores_them():
    import distatlas

    before = module_bindings(distatlas)
    modules = {getattr(distatlas, name).__name__ for name in tracing.MODULES}
    # every public package function, in its own module or bound by `from x import y`
    public = {key for key, obj in before.items()
              if inspect.isfunction(obj) and obj.__module__ in modules
              and not obj.__name__.startswith("_")}
    assert any(before[key].__module__.split(".")[-1] != key[0] for key in public)
    tracer = tracing.Tracer(distatlas)
    tracer.install()
    try:
        during = module_bindings(distatlas)
        distgen.build_doe(1)
    finally:
        tracer.uninstall()
    assert all(during[key] is not before[key] for key in public)
    assert module_bindings(distatlas) == before
    assert tracer.spans
    for name, parent, start, end in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][2] <= start and end <= tracer.spans[parent][3]
    metrics = tracing.per_layer_metrics(tracer.spans, {}, 1, distgen.N_FAMILIES)
    calls = sum(span[0] == "cdfcodec.scale_to_unit" for span in tracer.spans)
    assert metrics["cdfcodec.scale_to_unit_calls_per_series"] == calls / distgen.N_FAMILIES > 0
    assert set(metrics) == set(tracing.PER_LAYER_UNITS) - {"trace.wall_ratio"}


def test_benchmark_json_names_every_metric_the_run_prints():
    import run
    import workloads

    form = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in form["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in form["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in form["workloads"]] == list(workloads.WORKLOADS)
