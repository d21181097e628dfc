import csv
import io
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distatlas import distgen
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
from distatlas.latentlab import lattice


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

    def test_one_cpu_writes_the_same_cache(self, tmp_path):
        # 481 rows: a partial last block, and unequal shares on two or more CPUs
        cpu = min(os.sched_getaffinity(0))
        env = dict(os.environ, PYTHONPATH=str(Path(distgen.__file__).resolve().parents[1]))

        def generate(out: Path, preexec_fn=None) -> int:
            subprocess.run([sys.executable, "-m", "distatlas.cli", "generate", "--per-family",
                            "37", "--seed", "5", "--out-dir", str(out)], env=env,
                           preexec_fn=preexec_fn, check=True, capture_output=True, timeout=300)
            return json.loads((out / "run_log.jsonl").read_text())["workers"]

        assert generate(tmp_path / "one", lambda: os.sched_setaffinity(0, {cpu})) == 1
        assert generate(tmp_path / "all") == distgen.worker_count(481)
        assert (tmp_path / "one" / "dataset.bin").read_bytes() == \
            (tmp_path / "all" / "dataset.bin").read_bytes()

    def test_a_failing_worker_fails_generate_and_writes_no_cache(self, tmp_path, monkeypatch):
        parent = os.getpid()
        describe_series = distgen.describe_series

        def fails_in_a_worker(values, shape):
            if os.getpid() != parent:
                raise RuntimeError("row failure in a worker")
            return describe_series(values, shape)

        monkeypatch.setattr(distgen, "describe_series", fails_in_a_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="corpus workers failed: pid [0-9]+ exit code 1"):
            main(["generate", "--per-family", "37", "--seed", "5", "--out-dir", str(out)])
        # neither the cache nor its temporary file
        assert [p.name for p in out.iterdir()] == ["run_log.jsonl"]
        # no worker is left behind
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one worker forks no child")
    def test_killed_generate_stops_its_workers_and_removes_the_temporary_file(self, tmp_path):
        # 26,000 rows: several seconds of encoding left in each worker when the parent dies
        env = dict(os.environ, PYTHONPATH=str(Path(distgen.__file__).resolve().parents[1]))
        out = tmp_path / "out"
        run = subprocess.Popen([sys.executable, "-m", "distatlas.cli", "generate",
                                "--per-family", "2000", "--out-dir", str(out)], env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        def wait_until(condition, seconds: float) -> bool:
            deadline = time.monotonic() + seconds
            while not condition():
                if time.monotonic() > deadline:
                    return False
                time.sleep(0.01)
            return True

        try:
            assert wait_until(lambda: list(out.glob("dataset.bin.*.tmp")), 60)
            (tmp,) = out.glob("dataset.bin.*.tmp")
            assert wait_until(lambda: tmp.stat().st_size > 0, 60)
        finally:
            run.send_signal(signal.SIGKILL)
            run.wait(timeout=60)
        assert wait_until(lambda: not tmp.exists(), 10)
        assert [p.name for p in out.iterdir()] == ["run_log.jsonl"]

    def test_generate_holds_one_block_of_grids(self, tmp_path):
        # a 500-per-family corpus after a 10-per-family one must not lift this process's
        # peak RSS by a quarter of its 16.9 MB grid block; holding the block lifts it whole
        code = ("import resource, sys\n"
                "from distatlas.cli import main\n"
                "def peak():\n"
                "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
                "for per_family in ('10', '500'):\n"
                "    before = peak()\n"
                "    main(['generate', '--per-family', per_family, '--out-dir', sys.argv[1]])\n"
                "print(peak() - before)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(distgen.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env,
                              check=True, capture_output=True, text=True, timeout=300)
        grid_block = 4 * 13 * 500 * (26 * 25)
        assert int(done.stdout.split()[-1]) < grid_block / 4


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
    ("generate", ["--seed", "-1"]),
    ("train classifier", ["--seed", "-1"]),
    ("train bvae", ["--seed", "-1"]),
    ("map", ["--seed", "-1"]),
    ("eval", ["--seed", "-1"]),
    ("grad-check", ["--seed", "-1"]),
    ("map", ["--trajectory-bins", "0"]),
    ("map", ["--trajectory-min-count", "-5"]),
    # lattices larger than physical memory
    ("map", ["--class-map-resolution", "200000"]),
    ("map", ["--density-resolution", "100000"]),
    ("map", ["--curve-resolution", "20000"]),
    # a corpus or nets larger than physical memory; a dict is written as a --spec file
    ("generate", ["--per-family", "1000000000"]),
    ("generate", ["--grid", "100000x100000", "--per-family", "1"]),
    ("generate", ["--spec", {"master_seed": 0, "per_family_count": 10 ** 9}]),
    ("generate", ["--spec", {"master_seed": 0, "per_family_count": 1,
                             "grid": {"x_bins": 100000, "y_levels": 100000}}]),
    ("grad-check", ["--grid", "100000x100000"]),
    ("grad-check", ["--grid", "1x5"]),
    # output paths that cannot be written; {tmp} is the test's directory, which holds a file
    *[(command, ["--out-dir", "{tmp}/a_file"]) for command in (
        "generate", "train classifier", "train bvae", "map", "describe", "eval", "grad-check")],
    ("map", ["--out-dir", "{tmp}/a_file/sub"]),
    ("describe", ["--out", "{tmp}"]),
    ("describe", ["--out", "{tmp}/missing/metadata.jsonl"]),
    # seeds of 2**64 and above, which would alias a seed below 2**64
    ("generate", ["--seed", str(2 ** 64)]),
    ("generate", ["--spec", {"master_seed": 2 ** 64, "per_family_count": 1}]),
])
def test_bad_flag_exits_2_and_writes_nothing(workspace, tmp_path, command, flags):
    out = tmp_path / "bad"
    spec = tmp_path / "spec.json"
    if any(isinstance(flag, dict) for flag in flags):
        spec.write_text(json.dumps(next(f for f in flags if isinstance(f, dict))))
    flags = [str(spec) if isinstance(flag, dict) else flag.format(tmp=tmp_path) for flag in flags]
    (tmp_path / "a_file").write_text("kept\n")
    data = tmp_path / "data.csv"
    TestDescribe().write_csv(data)
    dataset = ["--dataset", str(workspace / "dataset.bin")]
    classifier = ["--classifier", str(workspace / "classifier.ckpt")]
    vae = ["--vae", str(workspace / "bvae.ckpt")]
    inputs = {"train": dataset, "map": [*dataset, *vae], "eval": [*dataset, *classifier],
              "describe": ["--data", str(data), *classifier, *vae]}
    # the case's own --out-dir, if any, comes last and wins
    assert main([*command.split(), *inputs.get(command.split()[0], []),
                 "--out-dir", str(out), *flags]) == EXIT_BAD_SPEC
    assert not out.exists()
    assert {p.name for p in tmp_path.iterdir()} <= {"a_file", "data.csv", "spec.json"}
    assert (tmp_path / "a_file").read_text() == "kept\n"


@pytest.mark.parametrize("command, n_entries", [
    *[(command, n) for command in ("train classifier", "train bvae", "eval", "map") for n in (0, 1)],
    # map's density estimate needs latentlab.MIN_DENSITY_POINTS (100) points
    ("map", 2), ("map", 99)])
def test_too_few_entries_exit_6_and_write_nothing(workspace, tmp_path, capsys, command, n_entries):
    # a cache load_cache accepts but no train/test split, or no density estimate, can serve
    full = distgen.load_cache(workspace / "dataset.bin")
    path = tmp_path / "small.bin"
    with open(path, "wb") as fh:
        # the header with n_entries, then the first n_entries of each block
        fh.write(distgen._CACHE_HEADER.pack(
            distgen._CACHE_MAGIC, distgen._CACHE_VERSION, n_entries, full.grid_shape.x_bins,
            full.grid_shape.y_levels, full.master_seed, full.per_family_count))
        for field, dtype in distgen._CACHE_BLOCKS:
            fh.write(getattr(full, field)[:n_entries].astype(dtype).tobytes())
    out = tmp_path / "out"
    inputs = {"eval": ["--classifier", str(workspace / "classifier.ckpt")],
              "map": ["--vae", str(workspace / "bvae.ckpt")]}
    assert main([*command.split(), "--dataset", str(path), *inputs.get(command, []),
                 "--out-dir", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, content, code", [
    ("describe", "--segments", None, EXIT_MISSING_ARTIFACT),
    ("describe", "--segments", b"x_index,x_center,segment\n0,\xff,common\n", EXIT_MISSING_ARTIFACT),
    ("describe", "--data", b"a,b\n1,\xff\n", EXIT_BAD_INPUT),
    ("describe", "--data", "directory", EXIT_BAD_INPUT),
    ("generate", "--spec", "directory", EXIT_BAD_SPEC),
    # one cell longer than csv's default field limit of 131,072 characters
    ("describe", "--data", b"a\n" + b"1" * 131073 + b"\n2\n3\n", EXIT_BAD_INPUT),
    ("describe", "--segments", b"x_index,x_center,segment\n0," + b"1" * 131073 + b",common\n",
     EXIT_MISSING_ARTIFACT),
], ids=["segments-missing", "segments-not-utf8", "data-not-utf8", "data-directory",
        "spec-directory", "data-long-cell", "segments-long-cell"])
def test_unreadable_input_file_exits_and_writes_nothing(workspace, tmp_path, capsys, command,
                                                        flag, content, code):
    path = tmp_path / "input"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    data = tmp_path / "data.csv"
    TestDescribe().write_csv(data)
    inputs = {"describe": ["--data", str(data), "--classifier", str(workspace / "classifier.ckpt"),
                           "--vae", str(workspace / "bvae.ckpt")]}
    out = tmp_path / "out"
    # the flag under test comes last and wins over an input of the same name
    assert main([command, *inputs.get(command, []), flag, str(path),
                 "--out-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_grid_flag_is_rejected_where_no_grid_is_built(workspace, tmp_path, capsys):
    # --grid belongs to generate and grad-check; eval reads its grid from the checkpoint
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--classifier", str(workspace / "classifier.ckpt"),
              "--dataset", str(workspace / "dataset.bin"), "--grid", "16x15",
              "--out-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --grid 16x15" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, artifact", [
    ("generate", "dataset.bin"), ("train classifier", "classifier.ckpt"),
    ("map", "latent_points.csv"), ("eval", "eval_report.json")])
def test_artifact_path_that_is_a_directory_exits_2(workspace, tmp_path, capsys, command,
                                                   artifact):
    out = tmp_path / "out"
    out.mkdir()
    dataset = out / "dataset.bin"
    if command != "generate":
        shutil.copyfile(workspace / "dataset.bin", dataset)
    (out / artifact).mkdir(exist_ok=True)
    kept = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    flags = {"generate": ["--per-family", "2"],
             "train classifier": ["--dataset", str(dataset), "--epochs", "1"],
             "map": ["--dataset", str(dataset), "--vae", str(workspace / "bvae.ckpt")],
             "eval": ["--dataset", str(dataset), "--classifier", str(workspace / "classifier.ckpt")]}
    assert main([*command.split(), *flags[command], "--out-dir", str(out)]) == EXIT_BAD_SPEC
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # the input cache keeps its bytes, and generate leaves no temporary file
    assert {p.name: p.read_bytes() for p in out.iterdir()
            if p.is_file() and p.name != "run_log.jsonl"} == kept
    assert list((out / artifact).iterdir()) == []


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


def _corrupt(src: Path, dst: Path, how: str) -> Path:
    blob = bytearray(src.read_bytes())
    if how == "label 99":
        blob[36:40] = struct.pack("<i", 99)  # first label, just past the cache's 36-byte header
    elif how == "trailing bytes":
        blob += b"\0\0\0\0"
    elif how == "entropy nan":  # the whole entropy block, after n labels and n sample sizes
        (n,) = struct.unpack("<Q", blob[8:16])
        blob[36 + 8 * n:36 + 12 * n] = np.full(n, np.nan, dtype="<f4").tobytes()
    elif how.startswith(("nan ", "inf ")):  # one parameter of a checkpoint, "first" or "last"
        value, position = how.split()
        (header_len,) = struct.unpack("<I", blob[8:12])
        at = 12 + header_len if position == "first" else len(blob) - 8
        blob[at:at + 8] = struct.pack("<d", float(value))
    else:  # one extra float64
        blob += b"\0" * 8
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
    ("map", "dataset.bin", "entropy nan"),
    ("eval", "dataset.bin", "trailing bytes"),
    ("map", "bvae.ckpt", lambda h: h.update(grid={"x_bins": 10 ** 6, "y_levels": 10 ** 6})),
    ("map", "bvae.ckpt", lambda h: h["param_shapes"].__setitem__(0, [10 ** 15])),
    ("map", "bvae.ckpt", "trailing float"),
    ("eval", "classifier.ckpt", "trailing float"),
    ("map", "bvae.ckpt", lambda h: h.update(beta=float("nan"))),
    ("eval", "classifier.ckpt", lambda h: h["train_config"].update(rng_seed=-1)),
    ("map", "bvae.ckpt", "nan first"),
    ("map", "bvae.ckpt", "inf last"),
    ("describe", "bvae.ckpt", "inf first"),
    ("describe", "bvae.ckpt", "nan last"),
    ("eval", "classifier.ckpt", "nan first"),
    ("eval", "classifier.ckpt", "inf last"),
    ("describe", "classifier.ckpt", "inf first"),
    ("describe", "classifier.ckpt", "nan last"),
], ids=["map-no-grid", "map-param-shapes", "map-latent-dim-inf", "eval-no-layers",
        "describe-no-layers", "eval-train-config", "eval-extra-layer", "eval-label-99",
        "map-label-99", "map-entropy-nan", "eval-trailing-bytes", "map-huge-grid",
        "map-huge-param-shape", "map-ckpt-trailing-float", "eval-ckpt-trailing-float",
        "map-beta-nan", "eval-negative-split-seed", "map-vae-nan-first", "map-vae-inf-last",
        "describe-vae-inf-first", "describe-vae-nan-last", "eval-nan-first", "eval-inf-last",
        "describe-classifier-inf-first", "describe-classifier-nan-last"])
def test_malformed_artifact_exits_3(workspace, tmp_path, capsys, command, artifact, edit):
    paths = {name: workspace / name for name in ("bvae.ckpt", "classifier.ckpt", "dataset.bin")}
    bad = tmp_path / artifact
    if isinstance(edit, str):
        paths[artifact] = _corrupt(paths[artifact], bad, edit)
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
                for index, point in zip(np.ndindex(shape), lattice(axes))]
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
    assert [(name, column.tolist(), missing) for name, column, missing in parsed] == [
        ("a", [1.5, 2.5, -300.0], 6),
        ("b", [4.0, 5.0, 6.0], 6),
        ("c", [1.0, 2.0], 7),
    ]


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

    def test_repeated_column_names_are_all_described(self, workspace, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(2)
        rows = rng.random((40, 3))
        data.write_text("a,a,b\n" + "".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
        out_file = tmp_path / "meta.jsonl"
        assert main(["describe", "--data", str(data),
                     "--classifier", str(workspace / "classifier.ckpt"),
                     "--vae", str(workspace / "bvae.ckpt"),
                     "--out", str(out_file), "--out-dir", str(tmp_path)]) == 0
        assert "described 3 columns" in capsys.readouterr().out
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [r["name"] for r in records] == ["a", "a", "b"]
        assert records[0]["z"] != records[1]["z"]

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

    @pytest.mark.parametrize("edit", [lambda h: h.update(train_config=None),
                                      lambda h: h.pop("train_config")], ids=["null", "missing"])
    def test_checkpoint_without_train_config_splits_by_seed(self, workspace, tmp_path, edit):
        # the program always writes a train_config, but a checkpoint is input from outside
        ckpt = _rewrite_header(workspace / "classifier.ckpt", tmp_path / "classifier.ckpt", edit)
        assert main(["eval", "--classifier", str(ckpt), "--dataset", str(workspace / "dataset.bin"),
                     "--seed", "7", "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "eval_report.json").read_text())["split_seed"] == 7


class TestGradCheckCommand:
    def test_passes_on_small_grid(self, tmp_path):
        assert main(["grad-check", "--grid", "10x8", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0


class TestRunLog:
    def test_invocations_logged(self, workspace):
        lines = (workspace / "run_log.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["command"] for r in records[:4]] == ["generate", "train", "train", "map"]
        # only generate forks workers, and the count is logged next to its argv
        assert records[0]["workers"] == distgen.worker_count(12 * 13)
        assert all("workers" not in r for r in records[1:4])
