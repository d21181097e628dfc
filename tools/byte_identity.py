"""Check that every CLI output of the working tree matches a base revision, byte for byte.

    python3 tools/byte_identity.py [--base REV]

Exports REV (default HEAD) with `git archive` into a temporary directory, then
runs the same seeded command list on the base and on the working tree, each in
its own subprocess with one BLAS thread:

    generate -> train classifier -> eval -> train bvae -> map -> describe --segments

once with a 2-D latent and once with `train bvae --latent-dim 1` (which reuses
the 2-D run's corpus and classifier). Three more 2-D `map` runs, each in its
own directory, compare the lattices at their edges: one-point lattices (every
resolution 1), a 23x23 class map, one full 512-row slice of `class_map` plus
a 17-row tail, and a 300x300 class map, 175 full slices plus a 400-row tail,
each beside a 7x7 density and a 3x3 curve lattice. Then
`grad-check --arch both`, which
builds fresh nets outside training, and, in its own directory, `grad-check
--arch bvae --latent-dim 1 --grid 8x6`, which audits the 1-D latent on a
small non-default grid; then `train classifier` and `train bvae`
with `--optimizer adadelta`, so that both optimizers step the grid
classifier's vector (3 STEP_CHUNK slices) and the beta-VAE's (23, the last one
short); Adadelta also steps the latent classifier's (3) in `map`. A `train
classifier` with `--batch-size 50 --learning-rate 2e-3 --rho 0.8 --epsilon
1e-7` pins the one mapping from the training flags to TrainConfig. Last,
`generate --spec` reads SPEC, which each side writes into its run
directory as `spec.json`: another master seed and a 16x15 grid, so the
family table and the cache block list are compared on a second seed,
through the spec parser, on a non-default grid, and `generate --per-family
37` (481 rows), whose last block of rows is partial and whose workers get
unequal shares on any CPU count, `generate --per-family 64` (832 rows, 13
full blocks), and `generate --per-family 120` (1,560
rows) with `train bvae --epochs 1`: the first held-out evaluation reads
the 1,045 training rows as two 1,024-row slices, so the BCE of float32
rows is compared over a slice edge and over a last piece longer than
STEP_CHUNK entries. Each command's stdout is
kept as one more output file, `stdout_<index>_<command>.txt`, so `eval` and
`grad-check`, which report only there, are compared too. Prints one line per
output file and exits 1 when a command fails or any file differs or exists on
one side only. `run_log.jsonl` is skipped: it records the wall-clock time of
each run; so is the input `spec.json`.
`run_argvs` runs the commands for this tool and for tools/paper_scale.py.
Needs only numpy and scipy, and runs in well under a minute on 2 cores.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# run_log.jsonl records the wall-clock time of each run; spec.json is an input
IGNORED = {"run_log.jsonl", "spec.json"}
SPEC = {"master_seed": 123, "per_family_count": 10, "grid": {"x_bins": 16, "y_levels": 15}}

# (output directory, argv); {data} is the describe input CSV, spec.json is SPEC
COMMANDS = [
    ("two_d", ["generate", "--per-family", "30", "--seed", "7"]),
    ("two_d", ["train", "classifier", "--dataset", "two_d/dataset.bin",
               "--epochs", "3", "--seed", "7"]),
    ("two_d", ["eval", "--classifier", "two_d/classifier.ckpt",
               "--dataset", "two_d/dataset.bin"]),
    ("two_d", ["train", "bvae", "--dataset", "two_d/dataset.bin", "--epochs", "3",
               "--seed", "7"]),
    ("two_d", ["map", "--vae", "two_d/bvae.ckpt", "--dataset", "two_d/dataset.bin",
               "--latent-epochs", "5", "--seed", "7"]),
    ("two_d", ["describe", "--data", "{data}", "--classifier", "two_d/classifier.ckpt",
               "--vae", "two_d/bvae.ckpt", "--segments", "two_d/segments.csv"]),
    ("one_d", ["train", "bvae", "--dataset", "two_d/dataset.bin", "--epochs", "3",
               "--latent-dim", "1", "--seed", "7"]),
    # a lower WOE threshold than the default, so that 1-D describe meets labelled cells
    ("one_d", ["map", "--vae", "one_d/bvae.ckpt", "--dataset", "two_d/dataset.bin",
               "--latent-epochs", "5", "--seed", "7", "--w-star", "1.0", "--p-min", "0.01"]),
    ("one_d", ["describe", "--data", "{data}", "--classifier", "two_d/classifier.ckpt",
               "--vae", "one_d/bvae.ckpt", "--segments", "one_d/segments.csv"]),
    # lattices of one point; class maps of one full 512-row slice plus a 17-row tail,
    # and of 175 full slices plus a 400-row tail
    ("map_res_1", ["map", "--vae", "two_d/bvae.ckpt", "--dataset", "two_d/dataset.bin",
                   "--latent-epochs", "5", "--seed", "7", "--density-resolution", "1",
                   "--class-map-resolution", "1", "--curve-resolution", "1"]),
    ("map_res_23", ["map", "--vae", "two_d/bvae.ckpt", "--dataset", "two_d/dataset.bin",
                    "--latent-epochs", "5", "--seed", "7", "--density-resolution", "7",
                    "--class-map-resolution", "23", "--curve-resolution", "3"]),
    ("map_res_300", ["map", "--vae", "two_d/bvae.ckpt", "--dataset", "two_d/dataset.bin",
                     "--latent-epochs", "5", "--seed", "7", "--density-resolution", "7",
                     "--class-map-resolution", "300", "--curve-resolution", "3"]),
    ("grad_check", ["grad-check", "--arch", "both", "--seed", "7"]),
    ("grad_check_1d", ["grad-check", "--arch", "bvae", "--latent-dim", "1", "--grid", "8x6",
                       "--seed", "3"]),
    # Adadelta on the grid classifier (3 optimizer slices) and the beta-VAE (23, with a tail)
    ("adadelta", ["train", "classifier", "--dataset", "two_d/dataset.bin", "--epochs", "3",
                  "--optimizer", "adadelta", "--seed", "7"]),
    ("adadelta", ["train", "bvae", "--dataset", "two_d/dataset.bin", "--epochs", "2",
                  "--optimizer", "adadelta", "--seed", "7"]),
    # every RMSprop flag off its default: the parser -> TrainConfig mapping, which alone
    # holds the grid models' settings, and the checkpoint's train_config that records it
    ("flags", ["train", "classifier", "--dataset", "two_d/dataset.bin", "--epochs", "3",
               "--batch-size", "50", "--learning-rate", "2e-3", "--rho", "0.8",
               "--epsilon", "1e-7", "--seed", "7"]),
    ("spec", ["generate", "--spec", "spec.json"]),
    # 481 rows: 7 full ROW_BLOCK blocks and a partial one, dealt unequally among the workers
    ("partial_block", ["generate", "--per-family", "37", "--seed", "5"]),
    # 832 rows: 13 full ROW_BLOCK blocks, which 2 to 12 workers get in unequal shares
    ("full_blocks", ["generate", "--per-family", "64", "--seed", "5"]),
    # 1,045 training rows: a held-out evaluation of a full 1,024-row slice and a 21-row one
    ("heldout", ["generate", "--per-family", "120", "--seed", "9"]),
    ("heldout", ["train", "bvae", "--dataset", "heldout/dataset.bin", "--epochs", "1",
                 "--seed", "9"]),
]

# runs inside the subprocess: argv[1] is the src directory, argv[2] the index of the
# first command, argv[3] the JSON command list; prints one JSON line per command
RUNNER = """
import contextlib, io, json, pathlib, resource, sys, time
sys.path.insert(0, sys.argv[1])
import distatlas
from distatlas.cli import main
assert distatlas.__file__.startswith(sys.argv[1]), distatlas.__file__
for index, argv in enumerate(json.loads(sys.argv[3]), int(sys.argv[2])):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    pathlib.Path(f"stdout_{index:02d}_{argv[0]}.txt").write_text(stdout.getvalue())
    peak, children = (resource.getrusage(who).ru_maxrss / 1024.0
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({"wall_s": wall, "peak_rss_mb": peak, "children_peak_rss_mb": children}))
    if code != 0:
        sys.exit(f"exit {code}: distatlas {' '.join(argv)}")
"""


def write_describe_input(path: Path) -> None:
    """A seeded wide CSV: skewed, flat, heavy-tailed, two-valued and sparse columns.

    The sparse column's gaps cycle through the missing-cell tokens, the
    uniform column holds some `inf` cells, a text column is never numeric,
    and the last rows are shorter than the header.
    """
    import numpy as np

    rng = np.random.default_rng(11)
    n = 200
    columns = {
        "lognormal": rng.lognormal(0.0, 1.0, n),
        "uniform": np.where(np.arange(n) % 37 == 5, np.inf, rng.random(n)),
        "cauchy": rng.standard_cauchy(n),
        "coin": rng.integers(0, 2, n).astype(float),
        "sparse_normal": np.where(rng.random(n) < 0.3, np.nan, rng.normal(size=n)),
    }
    gaps = ["", "NA", "null", " n/a ", "None"]
    lines = [",".join([*columns, "site"])]
    for i in range(n):
        cells = [gaps[i % len(gaps)] if np.isnan(c[i]) else repr(float(c[i]))
                 for c in columns.values()]
        cells.append(f"site-{i % 3}")
        lines.append(",".join(cells[:2 + i % 4] if i >= n - 20 else cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_base(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_argvs(src: Path, work: Path, argvs: list, first: int = 0) -> list:
    """Run CLI argvs in order in one subprocess in work, on the package in src.

    The subprocess has one BLAS thread. Each command's stdout goes to
    ``stdout_<index>_<command>.txt`` in work, indices counting from first.
    Returns per command its wall_s (of `distatlas.cli.main`, imports
    excluded), its peak_rss_mb (ru_maxrss of RUSAGE_SELF, so far in the
    process) and children_peak_rss_mb (the largest of the processes it
    forked, RUSAGE_CHILDREN). A failed command ends the run with SystemExit.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH="")
    done = subprocess.run([sys.executable, "-c", RUNNER, str(src), str(first), json.dumps(argvs)],
                          cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{work.name}: {(done.stderr.strip().splitlines() or ['no output'])[-1]}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def run_side(src: Path, work: Path, data: Path) -> None:
    argvs = [[*(str(data) if a == "{data}" else a for a in argv), "--out-dir", out]
             for out, argv in COMMANDS]
    work.mkdir(parents=True)
    (work / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    run_argvs(src, work, argvs)


def digests(work: Path) -> dict:
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file() and p.name not in IGNORED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        tmp = Path(tmp)
        export_base(args.base, tmp / "base_tree")
        data = tmp / "describe_input.csv"
        write_describe_input(data)
        run_side(tmp / "base_tree" / "src", tmp / "base", data)
        run_side(ROOT / "src", tmp / "head", data)
        base, head = digests(tmp / "base"), digests(tmp / "head")
    mismatches = 0
    for name in sorted(base.keys() | head.keys()):
        a, b = base.get(name), head.get(name)
        if a == b:
            print(f"identical  {name}  {a[:16]}")
        else:
            mismatches += 1
            print(f"DIFFERS    {name}  base={a and a[:16]} head={b and b[:16]}")
    print(f"{len(base.keys() | head.keys()) - mismatches} identical, {mismatches} differ "
          f"(base {args.base}, {' and '.join(sorted(IGNORED))} ignored)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
