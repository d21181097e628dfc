import csv
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distatlas import distgen
from distatlas.betavae import axes_lattice
from distatlas.cli import (
    CSV_CHUNK_ROWS,
    EXIT_BAD_INPUT,
    EXIT_BAD_SPEC,
    EXIT_DIVERGED,
    EXIT_MISMATCH,
    EXIT_MISSING_ARTIFACT,
    METADATA_SCHEMA,
    CliError,
    _lattice_columns,
    _read_numeric_columns,
    _segments_lookup,
    _write_csv,
    main,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny end-to-end pipeline the command tests share."""
    root = tmp_path_factory.mktemp("pipeline")
    out = str(root / "run")
    assert main(["generate", "--per-family", "12", "--seed", "3", "--out-dir", out]) == 0
    assert main(["train", "classifier", "--dataset", f"{out}/dataset.bin",
                 "--epochs", "3", "--seed", "3", "--out-dir", out]) == 0
    assert main(["train", "bvae", "--dataset", f"{out}/dataset.bin",
                 "--epochs", "3", "--seed", "3", "--out-dir", out]) == 0
    assert main(["map", "--vae", f"{out}/bvae.ckpt", "--dataset", f"{out}/dataset.bin",
                 "--seed", "3", "--out-dir", out,
                 "--density-resolution", "40", "--class-map-resolution", "8",
                 "--curve-resolution", "4", "--latent-epochs", "2",
                 "--trajectory-bins", "4", "--trajectory-min-count", "4"]) == 0
    return Path(out)


class TestGenerate:
    def test_writes_cache_and_manifest(self, workspace):
        manifest = json.loads((workspace / "dataset_manifest.json").read_text())
        assert manifest["n_entries"] == 12 * 13
        assert manifest["grid"] == {"x_bins": 26, "y_levels": 25}
        assert len(manifest["per_family"]) == 13
        assert (workspace / "dataset.bin").exists()
        assert len(manifest["cache_sha256"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["generate", "--per-family", "5", "--seed", "9",
                         "--out-dir", str(out)]) == 0
        assert (out_a / "dataset_manifest.json").read_bytes() == \
            (out_b / "dataset_manifest.json").read_bytes()
        assert (out_a / "dataset.bin").read_bytes() == (out_b / "dataset.bin").read_bytes()

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"master_seed": 4, "per_family_count": 2,
                                    "grid": {"x_bins": 16, "y_levels": 15}}))
        out = tmp_path / "out"
        assert main(["generate", "--spec", str(spec), "--out-dir", str(out)]) == 0
        ds = distgen.load_cache(out / "dataset.bin")
        assert ds.grids.shape == (26, 240)

    def test_malformed_spec_exits_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not valid json")
        assert main(["generate", "--spec", str(spec),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_BAD_SPEC
        spec.write_text(json.dumps({"master_seed": 1}))
        assert main(["generate", "--spec", str(spec),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_BAD_SPEC

    def test_malformed_spec_message_has_one_prefix(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"master_seed": 1, "per_family_count": 2, "grid": []}))
        assert main(["generate", "--spec", str(spec),
                     "--out-dir", str(tmp_path / "x")]) == EXIT_BAD_SPEC
        err = capsys.readouterr().err
        assert err.count("malformed dataset spec") == 1
        assert err == "error: malformed dataset spec: 'list' object is not a mapping\n"

    def test_bad_grid_flag_exits_2(self, tmp_path):
        assert main(["generate", "--per-family", "2", "--grid", "26by25",
                     "--out-dir", str(tmp_path / "x")]) == EXIT_BAD_SPEC


class TestTrain:
    def test_missing_dataset_exits_3(self, tmp_path):
        assert main(["train", "classifier", "--dataset", str(tmp_path / "none.bin"),
                     "--out-dir", str(tmp_path)]) == EXIT_MISSING_ARTIFACT

    def test_history_files(self, workspace):
        rows = list(csv.DictReader(open(workspace / "classifier_history.csv")))
        assert [r["epoch"] for r in rows] == ["0", "1", "2", "3"]
        vrows = list(csv.DictReader(open(workspace / "bvae_history.csv")))
        assert set(vrows[0]) == {"epoch", "train_loss", "train_bce", "train_kl",
                                 "test_bce", "test_kl"}
        assert float(vrows[-1]["test_bce"]) < float(vrows[0]["test_bce"])

    def test_rerun_history_byte_identical(self, tmp_path, workspace):
        out_b = tmp_path / "again"
        assert main(["train", "classifier", "--dataset", str(workspace / "dataset.bin"),
                     "--epochs", "3", "--seed", "3", "--out-dir", str(out_b)]) == 0
        assert (workspace / "classifier_history.csv").read_bytes() == \
            (out_b / "classifier_history.csv").read_bytes()

    def test_vae_header_records_flags(self, workspace):
        from distatlas.betavae import load_vae

        _, header = load_vae(workspace / "bvae.ckpt")
        assert header["beta"] == 3.0
        assert header["latent_dim"] == 2

    def test_latent_dim_one_pipeline(self, tmp_path, workspace):
        out = tmp_path / "one_d"
        assert main(["train", "bvae", "--dataset", str(workspace / "dataset.bin"),
                     "--epochs", "2", "--latent-dim", "1", "--seed", "5",
                     "--out-dir", str(out)]) == 0
        assert main(["map", "--vae", str(out / "bvae.ckpt"),
                     "--dataset", str(workspace / "dataset.bin"),
                     "--out-dir", str(out), "--density-resolution", "30",
                     "--class-map-resolution", "6", "--curve-resolution", "3",
                     "--latent-epochs", "1", "--trajectory-bins", "3",
                     "--trajectory-min-count", "3"]) == 0
        rows = list(csv.DictReader(open(out / "class_map.csv")))
        assert len(rows) == 6
        headers = {name: next(csv.reader(open(out / name)))
                   for name in ("density.csv", "woe.csv", "segments.csv", "class_map.csv")}
        assert headers == {
            "density.csv": ["x_index", "x_center", "density"],
            "woe.csv": ["x_index", "x_center", "density", "woe"],
            "segments.csv": ["x_index", "x_center", "density", "woe", "segment"],
            "class_map.csv": ["x_index", "z1", "family_id", "family"],
        }

        import jsonschema

        data = out / "data.csv"
        TestDescribe().write_csv(data)
        assert main(["describe", "--data", str(data),
                     "--classifier", str(workspace / "classifier.ckpt"),
                     "--vae", str(out / "bvae.ckpt"), "--segments", str(out / "segments.csv"),
                     "--out-dir", str(out)]) == 0
        records = [json.loads(line) for line in (out / "metadata.jsonl").read_text().splitlines()]
        assert len(records) == 4
        for r in records:
            jsonschema.validate(r, METADATA_SCHEMA)
            assert len(r["z"]) == 1


@pytest.mark.parametrize("command, flags", [
    ("train bvae", ["--beta", "-1"]),
    ("train classifier", ["--epochs", "-3"]),
    ("map", ["--density-resolution", "0"]),
    ("map", ["--class-map-resolution", "0"]),
    ("map", ["--curve-resolution", "0"]),
    ("map", ["--latent-epochs", "0"]),
    ("train bvae", ["--beta", "inf"]),
    ("train classifier", ["--learning-rate", "nan"]),
    ("train bvae", ["--learning-rate", "inf"]),
    ("train bvae", ["--epsilon", "-1"]),
    ("train bvae", ["--epsilon", "0"]),
    ("train classifier", ["--epsilon", "nan"]),
    ("map", ["--w-star", "nan"]),
    ("map", ["--w-star", "inf"]),
    ("map", ["--p-min", "nan"]),
    ("map", ["--p-min=-inf"]),
])
def test_bad_flag_exits_2_and_writes_nothing(workspace, tmp_path, command, flags):
    out = tmp_path / "bad"
    models = ["--vae", str(workspace / "bvae.ckpt")] if command == "map" else []
    assert main([*command.split(), "--dataset", str(workspace / "dataset.bin"), *models,
                 *flags, "--out-dir", str(out)]) == EXIT_BAD_SPEC
    assert not any(p.suffix in (".ckpt", ".csv") for p in out.glob("*"))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("model", ["classifier", "bvae"])
def test_diverged_training_exits_4_and_writes_no_model(workspace, tmp_path, capsys, model):
    out = tmp_path / "diverged"
    assert main(["train", model, "--dataset", str(workspace / "dataset.bin"),
                 "--learning-rate", "1e300", "--epochs", "2", "--out-dir", str(out)]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not any(p.suffix in (".ckpt", ".csv") for p in out.glob("*"))


class TestMap:
    def test_too_few_points_exits_6(self, workspace, tmp_path):
        small = tmp_path / "small"
        assert main(["generate", "--per-family", "5", "--seed", "3",
                     "--out-dir", str(small)]) == 0
        assert main(["map", "--vae", str(workspace / "bvae.ckpt"),
                     "--dataset", str(small / "dataset.bin"),
                     "--out-dir", str(small)]) == EXIT_BAD_INPUT

    def test_all_exports_present(self, workspace):
        for name in ["latent_points.csv", "density.csv", "woe.csv", "segments.csv",
                     "class_map.csv", "trajectories.json", "overlap_matrix.csv",
                     "generated_curves.csv", "latent_classifier.ckpt"]:
            assert (workspace / name).exists(), name

    def test_latent_points_schema(self, workspace):
        rows = list(csv.DictReader(open(workspace / "latent_points.csv")))
        assert len(rows) == 12 * 13
        assert set(rows[0]) == {"z1", "z2", "sigma1", "sigma2", "family_id",
                                "entropy", "skewness", "ks_uniform"}

    def test_class_map_rows(self, workspace):
        rows = list(csv.DictReader(open(workspace / "class_map.csv")))
        assert len(rows) == 8 * 8
        assert all(r["family"] in distgen.FAMILY_NAMES for r in rows)

    def test_segments_schema(self, workspace):
        rows = list(csv.DictReader(open(workspace / "segments.csv")))
        assert len(rows) == 40 * 40
        labels = {r["segment"] for r in rows}
        assert "common" in labels
        for label in labels:
            assert label == "common" or label.startswith("exceptional-")

    def test_generated_curves(self, workspace):
        rows = list(csv.DictReader(open(workspace / "generated_curves.csv")))
        assert len(rows) == 4 * 4 * 26
        by_point = {}
        for r in rows:
            by_point.setdefault(r["point_index"], []).append(float(r["repaired_level"]))
        for levels in by_point.values():
            assert all(a <= b + 1e-12 for a, b in zip(levels, levels[1:]))

    def test_overlap_matrix_rows_sum_to_one(self, workspace):
        rows = list(csv.reader(open(workspace / "overlap_matrix.csv")))
        for row in rows[1:]:
            assert sum(float(v) for v in row[1:]) == pytest.approx(1.0, abs=1e-9)

    def test_trajectories_json(self, workspace):
        trajs = json.loads((workspace / "trajectories.json").read_text())
        families = {t["family_id"] for t in trajs}
        assert families == set(range(13))
        for t in trajs:
            entropies = [w["entropy"] for w in t["waypoints"]]
            assert all(a < b for a, b in zip(entropies, entropies[1:]))

    def test_grid_mismatch_exits_5(self, workspace, tmp_path):
        out = tmp_path / "other"
        assert main(["generate", "--per-family", "2", "--grid", "16x15",
                     "--seed", "1", "--out-dir", str(out)]) == 0
        assert main(["map", "--vae", str(workspace / "bvae.ckpt"),
                     "--dataset", str(out / "dataset.bin"),
                     "--out-dir", str(out)]) == EXIT_MISMATCH


def _rewrite_header(src: Path, dst: Path, edit) -> Path:
    """Copy a checkpoint with its JSON header passed through edit()."""
    blob = src.read_bytes()
    magic, version, size = struct.unpack("<4sII", blob[:12])
    header = json.loads(blob[12:12 + size])
    edit(header)
    encoded = json.dumps(header).encode("utf-8")
    dst.write_bytes(struct.pack("<4sII", magic, version, len(encoded)) + encoded + blob[12 + size:])
    return dst


def _corrupt_cache(src: Path, dst: Path, how: str) -> Path:
    blob = bytearray(src.read_bytes())
    if how == "label 99":
        blob[36:40] = struct.pack("<i", 99)  # first label, just past the 36-byte header
    else:
        blob += b"\0\0\0\0"
    dst.write_bytes(bytes(blob))
    return dst


@pytest.mark.parametrize("command, artifact, edit", [
    ("map", "bvae.ckpt", lambda h: h.pop("grid")),
    ("map", "bvae.ckpt", lambda h: h.update(param_shapes="x")),
    ("map", "bvae.ckpt", lambda h: h.update(latent_dim=float("inf"))),
    ("eval", "classifier.ckpt", lambda h: h.pop("layers")),
    ("describe", "classifier.ckpt", lambda h: h.pop("layers")),
    ("eval", "classifier.ckpt", lambda h: h.update(train_config="x")),
    ("eval", "classifier.ckpt", lambda h: h.update(layers=[
        *h["layers"][:-1], {**h["layers"][-1], "activation": "relu"},
        {"in": 13, "out": 13, "activation": "softmax"}])),
    ("eval", "dataset.bin", "label 99"),
    ("map", "dataset.bin", "label 99"),
    ("eval", "dataset.bin", "trailing bytes"),
], ids=["map-no-grid", "map-param-shapes", "map-latent-dim-inf", "eval-no-layers",
        "describe-no-layers", "eval-train-config", "eval-extra-layer", "eval-label-99",
        "map-label-99", "eval-trailing-bytes"])
def test_malformed_artifact_exits_3(workspace, tmp_path, capsys, command, artifact, edit):
    paths = {name: workspace / name for name in ("bvae.ckpt", "classifier.ckpt", "dataset.bin")}
    bad = tmp_path / artifact
    if artifact == "dataset.bin":
        paths[artifact] = _corrupt_cache(paths[artifact], bad, edit)
    else:
        paths[artifact] = _rewrite_header(paths[artifact], bad, edit)
    data = tmp_path / "data.csv"
    TestDescribe().write_csv(data)
    flags = {
        "map": ["--vae", paths["bvae.ckpt"], "--dataset", paths["dataset.bin"]],
        "eval": ["--classifier", paths["classifier.ckpt"], "--dataset", paths["dataset.bin"]],
        "describe": ["--data", data, "--classifier", paths["classifier.ckpt"],
                     "--vae", paths["bvae.ckpt"]],
    }[command]
    out = tmp_path / "out"
    assert main([command, *map(str, flags), "--out-dir", str(out)]) == EXIT_MISSING_ARTIFACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not any(p.suffix in (".ckpt", ".csv", ".json", ".jsonl") for p in out.glob("*"))


EDGE_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e-5,
               0.1, -2.5e-7, 1.7976931348623157e308]
NAMES = st.sampled_from(["common", "exceptional-12", "gumbel_l", "x_center", "z1"])


@st.composite
def csv_tables(draw):
    """A header and columns of float64, int64 and name strings, all of one length."""
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "name"]), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "float":
            values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True))
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)),
                                    dtype=np.float64))
        elif kind == "int":
            ints = st.integers(-2 ** 63, 2 ** 63 - 1)
            columns.append(np.array(draw(st.lists(ints, min_size=n, max_size=n)),
                                    dtype=np.int64))
        else:
            columns.append(draw(st.lists(NAMES, min_size=n, max_size=n)))
    header = [f"c{j}" for j in range(len(columns))]
    return header, columns


def csv_writer_bytes(header, columns) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    return buffer.getvalue().encode("utf-8")


class TestCsvExport:
    @settings(max_examples=200, deadline=None)
    @given(csv_tables())
    def test_write_csv_matches_csv_writer(self, tmp_path_factory, table):
        header, columns = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        _write_csv(path, header, columns)
        assert path.read_bytes() == csv_writer_bytes(header, columns)

    def test_write_csv_across_chunks(self, tmp_path):
        n = 2 * CSV_CHUNK_ROWS + 3
        columns = [np.arange(n), np.linspace(-1.0, 1.0, n), ["common"] * n]
        _write_csv(tmp_path / "t.csv", ["i", "x", "name"], columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_writer_bytes(["i", "x", "name"], columns)

    @pytest.mark.parametrize("header, columns", [
        (["a,b"], [[1.0]]),
        (['a"b'], [[1.0]]),
        (["a\nb"], [[1.0]]),
        (["a", "b"], [["x,y"], [1.0]]),
        (["a", "b"], [['say "x"'], [1.0]]),
        (["a"], [["x", ""]]),                 # csv.writer writes a lone empty field as ""
    ])
    def test_write_csv_rejects_cells_that_need_quoting(self, tmp_path, header, columns):
        with pytest.raises(ValueError, match="quoting"):
            _write_csv(tmp_path / "t.csv", header, columns)

    @pytest.mark.parametrize("axes", [
        [np.linspace(-1.3, 2.9, 7)],
        [np.linspace(-1.3, 2.9, 4), np.linspace(0.1, 1e-5, 3)],
    ])
    def test_lattice_columns_match_the_lattice_walk(self, axes):
        shape = tuple(len(a) for a in axes)
        walk = [(*map(str, index), *map(str, point))
                for index, point in zip(np.ndindex(shape), axes_lattice(axes))]
        indices, coordinates = _lattice_columns(axes)
        assert list(zip(*(c.tolist() for c in (*indices, *coordinates)))) == walk


def test_read_numeric_columns_pins_values_and_missing_counts(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(
        "a,b,text,c,few\n"
        "1.5,inf,x,1,2\n"
        "NA,-inf,y, N/A ,\n"
        " null ,nan,z,None\n"
        "2.5,4\n"
        "NaN,5,w,2,,extra\n"
        "\n"
        "  ,6\n"
        "none,\n"
        "-3e2\n", encoding="utf-8")
    parsed = _read_numeric_columns(path)
    assert sorted(parsed) == ["a", "b", "c"]
    values = {name: (column.tolist(), missing) for name, (column, missing) in parsed.items()}
    assert values == {
        "a": ([1.5, 2.5, -300.0], 6),
        "b": ([4.0, 5.0, 6.0], 6),
        "c": ([1.0, 2.0], 7),
    }


@pytest.mark.parametrize("dims", [1, 2])
def test_segments_lookup_labels_points_by_nearest_cell(tmp_path, dims):
    # centers 0.5, 1.5, 2.5 on each axis (step 1); cell 2 (or (2, 1)) is exceptional
    path = tmp_path / "segments.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_index", "y_index"][:dims] + ["x_center", "y_center"][:dims]
                        + ["density", "woe", "segment"])
        for index in np.ndindex((3,) * dims):
            label = "exceptional-1" if index == (2, 1)[:dims] else "common"
            writer.writerow([*index, *(i + 0.5 for i in index), 0.1, 0.0, label])
    lookup = _segments_lookup(path, dims)
    inside = np.array([2.4, 1.3])[:dims]
    past_edge = np.array([2.9, 1.6])[:dims]    # within half a step past the last x cell
    beyond = np.array([3.1, 1.5])[:dims]       # more than half a step past it
    assert lookup(inside) == "exceptional-1"
    assert lookup(past_edge) == "exceptional-1"
    assert lookup(beyond) == "common"
    assert lookup(np.array([0.2, 1.5])[:dims]) == "common"
    with pytest.raises(CliError) as info:
        _segments_lookup(path, 3 - dims)
    assert info.value.exit_code == EXIT_MISMATCH


class TestDescribe:
    def write_csv(self, path, n=60):
        rng = np.random.default_rng(0)
        x = rng.random(n)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["uniform_col", "scaled_col", "constant", "label", "sparse"])
            for i in range(n):
                writer.writerow([
                    x[i],
                    3.0 * x[i] + 7.0,
                    4.5,
                    f"row{i}",
                    x[i] if i % 2 == 0 else "",
                ])

    def test_records(self, workspace, tmp_path):
        data = tmp_path / "data.csv"
        self.write_csv(data)
        out_file = tmp_path / "meta.jsonl"
        assert main(["describe", "--data", str(data),
                     "--classifier", str(workspace / "classifier.ckpt"),
                     "--vae", str(workspace / "bvae.ckpt"),
                     "--segments", str(workspace / "segments.csv"),
                     "--out", str(out_file), "--out-dir", str(tmp_path)]) == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert names == {"uniform_col", "scaled_col", "constant", "sparse"}
        by_name = {r["name"]: r for r in records}

        import jsonschema

        for r in records:
            jsonschema.validate(r, METADATA_SCHEMA)
            assert sum(r["probabilities"].values()) == pytest.approx(1.0, abs=1e-4)

        # affine pair gives identical records apart from the name
        a = dict(by_name["uniform_col"])
        b = dict(by_name["scaled_col"])
        a.pop("name")
        b.pop("name")
        assert a == b

        constant = by_name["constant"]
        assert constant["entropy"] == 0.0
        assert constant["skewness"] == 0.0

        sparse = by_name["sparse"]
        assert sparse["n_missing"] == 30
        assert sparse["low_confidence"] is True

    def test_extreme_magnitudes_are_described(self, workspace, tmp_path):
        import jsonschema

        values = [repr(float(v)) for v in np.linspace(-3.0, 3.0, 38)]
        values[5], values[30] = "-1e308", "1e308"
        data = tmp_path / "extreme.csv"
        data.write_text("extreme\n" + "\n".join(values) + "\n")
        out_file = tmp_path / "meta.jsonl"
        assert main(["describe", "--data", str(data),
                     "--classifier", str(workspace / "classifier.ckpt"),
                     "--vae", str(workspace / "bvae.ckpt"),
                     "--out", str(out_file), "--out-dir", str(tmp_path)]) == 0
        (record,) = [json.loads(line) for line in out_file.read_text().splitlines()]
        jsonschema.validate(record, METADATA_SCHEMA)
        assert record["n_values"] == 38

    def test_segments_without_a_read_column_exits_3(self, workspace, tmp_path):
        data = tmp_path / "data.csv"
        self.write_csv(data)
        rows = list(csv.DictReader(open(workspace / "segments.csv")))
        segments = tmp_path / "segments.csv"
        with open(segments, "w", newline="") as fh:
            fields = [f for f in rows[0] if f != "x_center"]
            writer = csv.DictWriter(fh, fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["describe", "--data", str(data),
                     "--classifier", str(workspace / "classifier.ckpt"),
                     "--vae", str(workspace / "bvae.ckpt"),
                     "--segments", str(segments),
                     "--out-dir", str(tmp_path)]) == EXIT_MISSING_ARTIFACT

    def test_no_numeric_columns_exits_6(self, workspace, tmp_path):
        data = tmp_path / "text.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b"])
            writer.writerow(["x", "y"])
            writer.writerow(["z", "w"])
        assert main(["describe", "--data", str(data),
                     "--classifier", str(workspace / "classifier.ckpt"),
                     "--vae", str(workspace / "bvae.ckpt"),
                     "--out-dir", str(tmp_path)]) == EXIT_BAD_INPUT

    def test_missing_checkpoint_exits_3(self, tmp_path):
        data = tmp_path / "data.csv"
        self.write_csv(data)
        assert main(["describe", "--data", str(data),
                     "--classifier", str(tmp_path / "no.ckpt"),
                     "--vae", str(tmp_path / "no2.ckpt"),
                     "--out-dir", str(tmp_path)]) == EXIT_MISSING_ARTIFACT


class TestEval:
    def test_report(self, workspace):
        assert main(["eval", "--classifier", str(workspace / "classifier.ckpt"),
                     "--dataset", str(workspace / "dataset.bin"),
                     "--out-dir", str(workspace)]) == 0
        report = json.loads((workspace / "eval_report.json").read_text())
        assert 0.0 <= report["overall_accuracy"] <= 1.0
        assert len(report["per_class"]) == 13
        assert len(report["matrix"]) == 13
        rows = list(csv.reader(open(workspace / "confusion_matrix.csv")))
        assert len(rows) == 14  # header + 13 families


class TestGradCheckCommand:
    def test_passes_on_small_grid(self, tmp_path):
        assert main(["grad-check", "--grid", "10x8", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0


class TestRunLog:
    def test_invocations_logged(self, workspace):
        lines = (workspace / "run_log.jsonl").read_text().splitlines()
        commands = [json.loads(line)["command"] for line in lines]
        assert commands[:4] == ["generate", "train", "train", "map"]
