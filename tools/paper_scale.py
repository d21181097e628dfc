"""Time the pipeline at the paper's corpus size on a base revision and on the working tree.

    python3 tools/paper_scale.py --out BENCH_paper_<n>.json [--base REV] [--per-family N]
                                 [--work-dir DIR]

The paper trains on 9,000 series per family (117,000 in all). This runs, at
--per-family N (default 9000), the stages

    generate -> train classifier --epochs 1 -> train bvae --epochs 1 -> map

at --seed 1, each in its own subprocess with one BLAS thread
(byte_identity.run_argvs, shared with that tool), which reports its own
wall time (of `distatlas.cli.main`, imports excluded), its own peak RSS
(`ru_maxrss` of RUSAGE_SELF) and the largest peak RSS among the processes it
forked (RUSAGE_CHILDREN: `generate`'s corpus workers, whose pages of the
shared corpus mapping the stage's own figure does not count). REV (default
HEAD) is exported with `git archive`, as tools/byte_identity.py does, and each
stage runs on the base, then on the working tree, before the next stage
starts, so that both sides see the machine in the same state. rows/s is the
corpus size over the stage's wall time. The output files of the two sides,
each stage's stdout among them, are compared by digest (`run_log.jsonl`
skipped). Writes one JSON file (--out, relative to the root of the repo): the
environment, both revisions, and per stage its argv and each side's wall_s,
rows_per_s, peak_rss_mb and children_peak_rss_mb, with the head/base ratios of
wall_s and peak_rss_mb.
Exits 1 when a stage fails.

At the default size both sides need about 650 MB of disk in --work-dir
(default: the system temporary directory), `map` peaks near 450 MB, and
the run takes about 7 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from byte_identity import ROOT, digests, export_base, run_argvs  # noqa: E402

SEED = 1
# (stage name, argv before --seed and --out-dir); every stage writes into out/
STAGES = [
    ("generate", ["generate", "--per-family", "{n}"]),
    ("train_classifier", ["train", "classifier", "--dataset", "out/dataset.bin", "--epochs", "1"]),
    ("train_bvae", ["train", "bvae", "--dataset", "out/dataset.bin", "--epochs", "1"]),
    ("map", ["map", "--vae", "out/bvae.ckpt", "--dataset", "out/dataset.bin"]),
]

def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write, under the repo root")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--per-family", type=int, default=9000)
    parser.add_argument("--work-dir", default=None, help="where both sides' outputs go")
    args = parser.parse_args(argv)
    rows = 13 * args.per_family
    stages = []
    with tempfile.TemporaryDirectory(prefix="paper_scale_", dir=args.work_dir) as tmp:
        tmp = Path(tmp)
        export_base(args.base, tmp / "base_tree")
        sides = {"base": tmp / "base_tree" / "src", "head": ROOT / "src"}
        for side in sides:
            (tmp / side).mkdir()
        for index, (name, stage_argv) in enumerate(STAGES):
            argv = [a.replace("{n}", str(args.per_family)) for a in stage_argv]
            argv += ["--seed", str(SEED), "--out-dir", "out"]
            record = {"stage": name, "argv": argv}
            for side, src in sides.items():
                (result,) = run_argvs(src, tmp / side, [argv], index)
                record[side] = {"wall_s": round(result["wall_s"], 3),
                                "rows_per_s": round(rows / result["wall_s"], 1),
                                "peak_rss_mb": round(result["peak_rss_mb"], 1),
                                "children_peak_rss_mb": round(result["children_peak_rss_mb"], 1)}
                print(f"{name:<17} {side}  {result['wall_s']:8.1f} s  "
                      f"{result['peak_rss_mb']:7.0f} MB  "
                      f"children {result['children_peak_rss_mb']:5.0f} MB", flush=True)
            record["ratios"] = {key: round(record["head"][key] / record["base"][key], 4)
                                for key in ("wall_s", "peak_rss_mb")}
            stages.append(record)
        base, head = digests(tmp / "base"), digests(tmp / "head")
    differing = sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))
    report = {
        "what": "paper-scale pipeline stages, base against working tree, one process per stage",
        "per_family": args.per_family,
        "rows": rows,
        "seed": SEED,
        "environment": environment(),
        "base": {"rev": args.base, "sha": git("rev-parse", args.base)},
        "head": {"sha": git("rev-parse", "HEAD"),
                 "src_modified": bool(git("status", "--porcelain", "src"))},
        "stages": stages,
        "outputs_identical": not differing,
        "outputs_differing": differing,
    }
    (ROOT / args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"outputs {'identical' if not differing else 'differ: ' + ', '.join(differing)}; "
          f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
