"""The three benchmark workloads: inputs, one round of CLI commands, checks.

Every workload is a closed loop with one client: the benchmark issues one
`distatlas` command at a time through `cli.main`, in the benchmark's own
process, and starts the next when the previous one returns. A round is the same list of
commands every time, so the share of failed commands is the same in every
run whatever its length. Inputs derive from the run's seed; their shapes
(counts, epochs, column lengths, missing cells) are fixed, so the work per
round does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

N_FAMILIES = 13


@dataclass(frozen=True)
class Op:
    """One CLI command of a round. Only an op marked `known_fault` may fail."""

    label: str
    argv: list
    known_fault: bool = False


class Workload:
    """Set-up, the commands of one round, stage figures and checks of one workload."""

    name = ""
    outputs: tuple = ()   # subdirectories whose files must be identical after every round
    SERIES_PER_ROUND = 0  # series a round's commands take in to encode: the input size

    def __init__(self, work: Path, seed: int, run_cli, program):
        self.work = work
        self.seed = seed
        self.run_cli = run_cli
        self.program = program

    def cli(self, *argv) -> None:
        """Run a set-up command; set-up must not fail."""
        ok, _, message = self.run_cli([str(a) for a in argv])
        if not ok:
            raise RuntimeError(f"set-up command {' '.join(map(str, argv))} failed: {message}")

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self) -> list:
        raise NotImplementedError

    def stage_metrics(self, times: dict) -> dict:
        """Per-stage figures from the per-op times of all rounds: name -> (value, unit)."""
        raise NotImplementedError

    def check(self) -> str:
        raise NotImplementedError


def _median(values) -> float:
    return float(np.median(values))


class Corpus(Workload):
    """`generate` at a fixed per-family count: distgen samplers and cdfcodec encoding."""

    name = "corpus"
    PER_FAMILY = 400
    WARMUP_PER_FAMILY = 50
    SAMPLED_PER_FAMILY = 6
    SERIES_PER_ROUND = N_FAMILIES * PER_FAMILY
    outputs = ("corpus",)

    def setup(self) -> None:
        # lazy first-call costs are paid here, not in the first timed round
        self.cli("generate", "--per-family", self.WARMUP_PER_FAMILY, "--seed", self.seed,
                 "--out-dir", self.work / "warmup")

    def round_ops(self) -> list:
        return [Op("generate", ["generate", "--per-family", str(self.PER_FAMILY),
                                "--seed", str(self.seed), "--out-dir", str(self.work / "corpus")])]

    def stage_metrics(self, times: dict) -> dict:
        n = N_FAMILIES * self.PER_FAMILY
        return {"generate_series_per_s": (_median([n / t for t in times["generate"]]), "series/s")}

    def check(self) -> str:
        distgen = self.program.distgen
        cache = checks.check_manifest(self.work / "corpus", self.PER_FAMILY, self.seed)
        rng = np.random.default_rng(self.seed)
        n = 0
        for fid in range(N_FAMILIES):
            for index in rng.choice(self.PER_FAMILY, self.SAMPLED_PER_FAMILY, replace=False):
                row = fid * self.PER_FAMILY + int(index)
                checks.require(cache["labels"][row] == fid, f"entry {row}: label")
                spec = distgen.draw_spec(fid, np.random.default_rng(
                    distgen.mix64(self.seed, fid, int(index), 0)))
                values = distgen.sample_variable(
                    spec, distgen.mix64(self.seed, fid, int(index), 1)).values
                checks.check_entry(cache, row, values)
                n += 1
        return f"cache digest, 13 x {self.PER_FAMILY} entries, {n} regenerated entries"


class Train(Workload):
    """`train classifier`, `eval` and `train bvae` on a corpus built during set-up."""

    name = "train"
    PER_FAMILY = 300
    CLASSIFIER_EPOCHS = 10
    BVAE_EPOCHS = 4
    outputs = ("train",)

    @property
    def dataset(self) -> Path:
        return self.work / "data" / "dataset.bin"

    def setup(self) -> None:
        self.cli("generate", "--per-family", self.PER_FAMILY, "--seed", self.seed,
                 "--out-dir", self.work / "data")

    def round_ops(self) -> list:
        out = ["--seed", str(self.seed), "--out-dir", str(self.work / "train")]
        data = ["--dataset", str(self.dataset)]
        return [
            Op("train_classifier", ["train", "classifier", *data,
                                    "--epochs", str(self.CLASSIFIER_EPOCHS), *out]),
            Op("eval", ["eval", "--classifier", str(self.work / "train" / "classifier.ckpt"),
                        *data, *out]),
            Op("train_bvae", ["train", "bvae", *data, "--epochs", str(self.BVAE_EPOCHS), *out]),
        ]

    def stage_metrics(self, times: dict) -> dict:
        rows = checks.split_cut(N_FAMILIES * self.PER_FAMILY)
        return {
            "classifier_rows_per_s": (_median([rows * self.CLASSIFIER_EPOCHS / t
                                               for t in times["train_classifier"]]), "rows/s"),
            "bvae_rows_per_s": (_median([rows * self.BVAE_EPOCHS / t
                                         for t in times["train_bvae"]]), "rows/s"),
        }

    def check(self) -> str:
        cache = checks.check_manifest(self.work / "data", self.PER_FAMILY, self.seed)
        accuracy = checks.check_classifier(self.work / "train", cache, self.seed)
        checks.check_bvae_history(self.work / "train" / "bvae_history.csv")
        return f"own forward pass: held-out accuracy {accuracy:.4f}; beta-VAE test BCE falls"


# ---------------------------------------------------------------------------
# describe inputs

CSV_FILES = 3
CSV_COLUMNS = 100
CSV_MISSING_SHARE = (0.0, 0.05, 0.15)
MISSING_WRITTEN = ("", "NA", "nan", "null")
KINDS = ("normal", "uniform", "exponential", "lognormal", "gamma", "beta", "student_t3",
         "poisson", "bimodal")


def _column(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "normal":
        v = rng.normal(size=n)
    elif kind == "uniform":
        v = rng.uniform(size=n)
    elif kind == "exponential":
        v = rng.exponential(size=n)
    elif kind == "lognormal":
        v = rng.lognormal(sigma=rng.uniform(0.2, 2.0), size=n)
    elif kind == "gamma":
        v = rng.gamma(rng.uniform(0.3, 8.0), size=n)
    elif kind == "beta":
        v = rng.beta(rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0), size=n)
    elif kind == "student_t3":
        v = rng.standard_t(3, size=n)
    elif kind == "poisson":
        v = rng.poisson(rng.uniform(0.5, 20.0), size=n).astype(np.float64)
    elif kind == "bimodal":
        v = np.where(rng.uniform(size=n) < 0.4, rng.normal(-2.0, 0.5, n), rng.normal(1.5, 1.0, n))
    else:
        v = np.full(n, rng.normal())  # a constant column
    return v * 10.0 ** rng.uniform(-3, 3) + rng.normal(0.0, 100.0)


def write_wide_csvs(directory: Path, seed: int) -> list:
    """Three wide CSVs of 100 columns each, with lengths spread over [35, 1000].

    Column j has length 35 + round(965 j / 99) in every file and cycles
    through nine shapes (normal to bimodal; the last column is constant),
    with seeded parameters, scale and shift. File k blanks a fixed share
    (0, 5, 15 %) of each column's cells with missing tokens at seeded
    positions, and shorter columns leave empty cells at the end.
    """
    lengths = 35 + np.round(np.arange(CSV_COLUMNS) * 965 / (CSV_COLUMNS - 1)).astype(int)
    paths = []
    for k in range(CSV_FILES):
        rng = np.random.default_rng([seed, k])
        cells = [[""] * CSV_COLUMNS for _ in range(lengths.max())]
        for j, n in enumerate(lengths):
            kind = KINDS[j % len(KINDS)] if j < CSV_COLUMNS - 1 else "constant"
            values = _column(rng, kind, int(n))
            blank = set(rng.choice(n, int(round(CSV_MISSING_SHARE[k] * n)), replace=False).tolist())
            for i, v in enumerate(values):
                cells[i][j] = MISSING_WRITTEN[i % 4] if i in blank else repr(float(v))
        path = directory / f"wide_{k + 1}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"c{k + 1}_{j:03d}" for j in range(CSV_COLUMNS)) + "\n")
            fh.writelines(",".join(row) + "\n" for row in cells)
        paths.append(path)
    return paths


def write_extreme_csv(directory: Path) -> Path:
    """One column holding -1e308 and 1e308 among ordinary values; the same for every seed."""
    values = [repr(float(v)) for v in np.linspace(-3.0, 3.0, 38)]
    values[5], values[30] = "-1e308", "1e308"
    path = directory / "extreme.csv"
    path.write_text("extreme\n" + "\n".join(values) + "\n", encoding="utf-8")
    return path


class Atlas(Workload):
    """`map` with default flags, then `describe` on wide CSVs, with models trained in set-up."""

    name = "atlas"
    PER_FAMILY = 100
    CLASSIFIER_EPOCHS = 10
    BVAE_EPOCHS = 6
    SERIES_PER_ROUND = CSV_FILES * CSV_COLUMNS + 1  # the wide columns and the extreme one
    outputs = ("atlas",)

    def setup(self) -> None:
        data, models, inputs = (self.work / d for d in ("data", "models", "inputs"))
        inputs.mkdir(parents=True, exist_ok=True)
        self.cli("generate", "--per-family", self.PER_FAMILY, "--seed", self.seed, "--out-dir", data)
        for model, epochs in (("classifier", self.CLASSIFIER_EPOCHS), ("bvae", self.BVAE_EPOCHS)):
            self.cli("train", model, "--dataset", data / "dataset.bin", "--epochs", epochs,
                     "--seed", self.seed, "--out-dir", models)
        self.csvs = write_wide_csvs(inputs, self.seed)
        self.extreme = write_extreme_csv(inputs)

    def _describe(self, label: str, csv_path: Path, known_fault: bool = False) -> Op:
        atlas, models = self.work / "atlas", self.work / "models"
        return Op(label, ["describe", "--data", str(csv_path),
                          "--classifier", str(models / "classifier.ckpt"),
                          "--vae", str(models / "bvae.ckpt"),
                          "--segments", str(atlas / "segments.csv"),
                          "--out", str(atlas / f"metadata_{csv_path.stem}.jsonl"),
                          "--out-dir", str(atlas)], known_fault)

    def round_ops(self) -> list:
        return [
            Op("map", ["map", "--vae", str(self.work / "models" / "bvae.ckpt"),
                       "--dataset", str(self.work / "data" / "dataset.bin"),
                       "--seed", str(self.seed), "--out-dir", str(self.work / "atlas")]),
            *(self._describe("describe", p) for p in self.csvs),
            # fails until scale_to_unit survives hi - lo overflowing to inf
            self._describe("describe_extreme", self.extreme, known_fault=True),
        ]

    def stage_metrics(self, times: dict) -> dict:
        per_round = np.add.reduceat(times["describe"],
                                    np.arange(0, len(times["describe"]), CSV_FILES))
        return {
            "map_s": (_median(times["map"]), "s"),
            "describe_columns_per_s": (_median(CSV_FILES * CSV_COLUMNS / per_round), "columns/s"),
        }

    def check(self) -> str:
        atlas = self.work / "atlas"
        checks.check_density(atlas / "density.csv")
        checks.check_woe(atlas / "woe.csv")
        labels = checks.check_segments(atlas / "segments.csv")
        checks.check_curves(atlas / "generated_curves.csv")
        checks.check_overlap(atlas / "overlap_matrix.csv")
        checks.check_class_map(atlas / "class_map.csv")
        checks.check_trajectories(atlas / "trajectories.json")
        schema = self.program.cli.METADATA_SCHEMA
        n = sum(checks.check_metadata(atlas / f"metadata_{p.stem}.jsonl", p, schema, labels)
                for p in self.csvs)
        extreme = atlas / "metadata_extreme.jsonl"
        if extreme.exists():
            checks.check_metadata_schema(extreme, schema)
        n_exceptional = len(labels - {"common"})
        return f"map exports ({n_exceptional} exceptional regions); {n} metadata records"


WORKLOADS = {w.name: w for w in (Corpus, Train, Atlas)}
