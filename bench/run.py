"""Benchmark of the distatlas pipeline, driven through `distatlas.cli.main`.

    python3 bench/run.py --workload {corpus,train,atlas} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from `src/`.
The run sets its workload up, then runs whole rounds of CLI commands until
`--seconds` of command time have passed, setting up again at a third and at
two thirds of that time (the median set-up is `setup_s`). It checks the
outputs and prints one JSON object as its last line: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Work files go to `.bench_out/<workload>/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 2
NPROC = len(os.sched_getaffinity(0))
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def set_blas_threads() -> None:
    """One BLAS thread per core this process may run on, whatever the caller set; call
    before numpy loads, so that every run measures the same configuration."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(NPROC)


def import_program():
    """Import distatlas from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "distatlas" / "cli.py").is_file():
        raise ImportError(f"no distatlas sources under {src}")
    sys.path.insert(0, str(src))
    import distatlas
    # the tracer and the workloads reach every module as an attribute of the package
    from distatlas import (betavae, cdfcodec, cdfrepair, classifier, cli, distgen,  # noqa: F401
                           latentlab, neuralcore)
    if Path(distatlas.__file__).resolve().parent != (src / "distatlas").resolve():
        raise ImportError(f"distatlas was imported from {distatlas.__file__}, not {src}")
    return distatlas


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Runner:
    """Calls the CLI in this process, output captured, and times each call."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
                message = sink.getvalue().strip()
            except Exception:  # a traceback from the program counts as a failed command
                rc = None
                message = traceback.format_exc(limit=-3)
            seconds = time.perf_counter() - start
        return rc == 0, seconds, (message if rc == 0 else f"exit {rc}: {message}")


def snapshot(directory: Path) -> dict:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.rglob("*") if p.is_file()}


def bytes_written(before: dict, after: dict) -> int:
    """Bytes of the files a command wrote; the append-only run log counts its growth."""
    total = 0
    for path, (size, mtime) in after.items():
        old = before.get(path)
        if old is None or old[1] != mtime:
            total += size - old[0] if path.name == "run_log.jsonl" and old else size
    return total


def digest(workload) -> dict:
    """SHA-256 of every output file except the run log, which grows every round."""
    out = {}
    for sub in workload.outputs:
        for path in sorted((workload.work / sub).rglob("*")):
            if path.is_file() and path.name != "run_log.jsonl":
                with open(path, "rb") as fh:
                    out[str(path.relative_to(workload.work))] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def run_round(workload, runner, tracer=None) -> dict:
    """One round of the workload's commands; with a tracer, installed for the round."""
    ops = []
    written: dict = {}
    if tracer:
        tracer.install()
    try:
        for op in workload.round_ops():
            before = snapshot(workload.work) if tracer else None
            if tracer:
                tracer.op = op.label
            ok, seconds, message = runner(op.argv)
            if tracer:
                written.setdefault(op.label, []).append(bytes_written(before, snapshot(workload.work)))
            ops.append({"label": op.label, "ok": ok, "seconds": seconds,
                        "known_fault": op.known_fault, "message": message[-2000:]})
    finally:
        if tracer:
            tracer.uninstall()
    return {"traced": tracer is not None, "wall": sum(o["seconds"] for o in ops),
            "ops": ops, "bytes_written": written}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    set_blas_threads()
    try:
        package = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads
    # peak memory of the imports alone (program and benchmark), before any command ran;
    # the checks import scipy.stats, scipy.optimize and jsonschema only after the run
    baseline_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(package.cli)
    workload = workloads.WORKLOADS[args.workload](work, args.seed, runner, package)

    setup_times = []

    def set_up() -> None:
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    set_up()
    tracer = tracing.Tracer(package) if args.trace else None
    rounds, digests = [], []
    measured = 0.0
    while len(rounds) < MIN_ROUNDS or measured < args.seconds:
        # a traced run alternates untraced and traced rounds to measure the overhead
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(workload, runner, tracer if traced else None))
        measured += rounds[-1]["wall"]
        digests.append(digest(workload))
        # set-up is repeated at even shares of the run, so that its median samples
        # the machine's speed over the whole run, as the rounds do
        if len(setup_times) < SETUP_REPEATS and measured >= args.seconds * len(setup_times) / SETUP_REPEATS:
            set_up()
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    problems = [f"{op['label']} failed unexpectedly: {op['message']}"
                for op in failed if not op["known_fault"]]
    if any(d != digests[0] for d in digests):
        changed = sorted(k for d in digests for k in d if d.get(k) != digests[0].get(k))
        problems.append(f"outputs differ between rounds of the same seed: {changed}")
    try:
        summary = workload.check()
    except Exception as exc:  # any malformed output fails the run's correctness
        problems.append(f"check failed: {type(exc).__name__}: {exc}")
        summary = ""

    times: dict = {}
    for r in rounds:
        if not r["traced"]:
            for op in r["ops"]:
                times.setdefault(op["label"], []).append(op["seconds"])
    stages = workload.stage_metrics(times)
    untraced = [r["wall"] for r in rounds if not r["traced"]]
    if tracer:
        traced_rounds = [r for r in rounds if r["traced"]]
        written: dict = {}
        for r in traced_rounds:
            for command, sizes in r["bytes_written"].items():
                written.setdefault(command, []).extend(sizes)
        values = tracing.per_layer_metrics(tracer.spans, written, len(traced_rounds),
                                           workload.SERIES_PER_ROUND)
        values["trace.wall_ratio"] = (statistics.median(r["wall"] for r in traced_rounds)
                                      / statistics.median(untraced))
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in values.items()}
        tracer.write_spans(work / "spans.tsv")
    else:
        values = {"setup_s": statistics.median(setup_times), "wall_s": statistics.median(untraced),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "baseline_rss_mb": baseline_rss_mb,
              "setup_s": setup_times,
              "rounds": rounds, "stages": stages, "checks": summary, "problems": problems,
              "metrics": metrics}
    (work / "run.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{len(ops)} commands, {len(failed)} failed")
    for op in failed:
        print(f"  failed {op['label']}: {op['message'].splitlines()[-1] if op['message'] else ''}")
    for name, (value, unit) in stages.items():
        print(f"  stage {name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"  checks: {summary if not problems else 'FAILED'}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
