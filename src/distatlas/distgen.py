"""Seeded synthesis of the 13-family labeled training corpus.

FAMILIES is the one family table: per family a parameter box (each
parameter's name, range and draw), which draw_params and validate_params
walk, and a sampler on the uniform stream of a seeded generator:
inverse-CDF transforms where a closed form exists, Box-Muller normals,
and Marsaglia-Tsang gammas (alpha < 1 by the power boost) for the
gamma/beta/chi group. A (spec, seed) pair always reproduces the same
series, and a corpus is a pure function of one master seed. One block
list, _CACHE_BLOCKS, fixes the order and dtypes of the cache body.

write_corpus encodes the corpus on every CPU of the process's affinity
mask (os.sched_getaffinity) and writes it straight into the cache file:
each forked worker writes its finished blocks of grid rows with
os.pwrite, so no process holds more than one block of them. No row
depends on another, so the cache is the same, byte for byte, whatever the
number of workers; `taskset -c 0 distatlas generate ...` builds it on one
core. build_doe is the same corpus held in memory, read back from a
temporary file.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
import tempfile
import traceback
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .cdfcodec import GridShape, describe_series

M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

MIN_SAMPLE_SIZE = 35
MAX_SAMPLE_SIZE = 1000


class InvalidFamilyError(ValueError):
    """Raised for a family id outside 0..12."""


class InvalidParameterError(ValueError):
    """Raised when parameters fall outside their family's ranges."""


def mix64(*parts: int) -> int:
    """Mix integers into one 64-bit child seed.

    Absorbs each part with a golden-ratio increment and applies the
    splitmix64 finalizer, so nearby (seed, family, index) tuples land
    on unrelated streams without storing per-entry seeds.
    """
    h = 0
    for part in parts:
        h = (h + _GOLDEN + (int(part) & M64)) & M64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & M64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & M64
        h ^= h >> 31
    return h


# ---------------------------------------------------------------------------
# primitive draws (all reduce to rng.random / rng.integers)

def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1); safe under log and tan."""
    u = rng.random(n)
    return np.maximum(u, 2.0 ** -53)


def _standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller pairs from the uniform stream."""
    m = (n + 1) // 2
    u1 = _uniform_open(rng, m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    t = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(t), r * np.sin(t)])[:n]


def _standard_gamma(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """Marsaglia-Tsang rejection sampler; alpha < 1 via the power boost."""
    if alpha <= 0:
        raise InvalidParameterError(f"gamma shape must be positive, got {alpha}")
    if alpha < 1.0:
        g = _standard_gamma(rng, alpha + 1.0, n)
        u = _uniform_open(rng, n)
        return g * u ** (1.0 / alpha)
    d = alpha - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    pending = np.arange(n)
    while pending.size:
        z = _standard_normal(rng, pending.size)
        u = _uniform_open(rng, pending.size)
        v = (1.0 + c * z) ** 3
        with np.errstate(invalid="ignore", divide="ignore"):
            ok = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * np.log(v))
        out[pending[ok]] = d * v[ok]
        pending = pending[~ok]
    return out


# ---------------------------------------------------------------------------
# family samplers; params are the dicts produced by draw_params

def _sample_beta(rng, p, n):
    g1 = _standard_gamma(rng, p["alpha"], n)
    g2 = _standard_gamma(rng, p["beta"], n)
    s = g1 + g2
    r = np.where(s > 0.0, g1 / np.where(s > 0.0, s, 1.0), 0.5)
    # keep the open (0, 1) support; only values indistinguishable at
    # float precision from the endpoints are nudged
    return np.clip(r, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))


def _sample_cauchy(rng, p, n):
    u = _uniform_open(rng, n)
    return p["loc"] + p["scale"] * np.tan(np.pi * (u - 0.5))


def _sample_exponential(rng, p, n):
    u = rng.random(n)
    return p["loc"] + p["scale"] * -np.log1p(-u)


def _sample_gamma(rng, p, n):
    return _standard_gamma(rng, p["alpha"], n)


def _sample_lognormal(rng, p, n):
    return np.exp(p["s"] * _standard_normal(rng, n))


def _sample_normal(rng, p, n):
    return p["loc"] + p["scale"] * _standard_normal(rng, n)


def _sample_uniform(rng, p, n):
    return p["loc"] + p["scale"] * rng.random(n)


def _sample_supnormal(rng, p, n):
    pick = rng.random(n) < p["w"]
    z = _standard_normal(rng, n)
    first = p["loc1"] + p["scale1"] * z
    second = p["loc2"] + p["scale2"] * z
    return np.where(pick, first, second)


def _sample_weibull(rng, p, n):
    u = rng.random(n)
    return (-np.log1p(-u)) ** (1.0 / p["alpha"])


def _sample_chi(rng, p, n):
    return np.sqrt(2.0 * _standard_gamma(rng, p["df"] / 2.0, n))


def _sample_bernoulli(rng, p, n):
    return (rng.random(n) < p["p"]).astype(np.float64)


def _sample_gumbel_l(rng, p, n):
    u = rng.random(n)
    return p["loc"] + p["scale"] * np.log(-np.log1p(-u))


def _sample_gumbel_r(rng, p, n):
    u = _uniform_open(rng, n)
    return p["loc"] - p["scale"] * np.log(-np.log(u))


# ---------------------------------------------------------------------------
# the family table: each family's parameter box and sampler

@dataclass(frozen=True)
class Param:
    """A box entry: a name, a closed range [low, high] and a draw.

    low == high fixes the value. Otherwise draw is "uniform" on [low, high],
    "integer" in low..high, or "reciprocal": 1 / uniform on [1/high, 1/low].
    """

    name: str
    low: float
    high: float
    draw: str = "uniform"


_LOC_SCALE = (Param("loc", 0.0, 0.0), Param("scale", 1.0, 1.0))
_ALPHA = (Param("alpha", 0.1, 9.0),)


@dataclass(frozen=True)
class Family:
    family_id: int
    name: str
    # count of randomized parameters, used to order families by simplicity
    varying_params: int
    # the parameter box, in draw order
    box: tuple[Param, ...]
    sample: Callable[[np.random.Generator, dict, int], np.ndarray]


FAMILIES: dict[int, Family] = {
    f.family_id: f
    for f in [
        Family(0, "beta", 2, (*_ALPHA, Param("beta", 0.1, 9.0)), _sample_beta),
        Family(1, "cauchy", 0, _LOC_SCALE, _sample_cauchy),
        Family(2, "exponential", 0, _LOC_SCALE, _sample_exponential),
        Family(3, "gamma", 1, _ALPHA, _sample_gamma),
        Family(4, "lognormal", 1, (Param("s", 1 / 9.0, 1 / 0.1, "reciprocal"),), _sample_lognormal),
        Family(5, "normal", 0, _LOC_SCALE, _sample_normal),
        Family(6, "uniform", 0, _LOC_SCALE, _sample_uniform),
        # varying_params counts the two fixed entries too
        Family(7, "supnormal", 5, (Param("loc1", 0.0, 0.0), Param("scale1", 1.0, 1.0),
                                   Param("loc2", 0.0, 1.0), Param("scale2", 0.1, 9.0),
                                   Param("w", 0.1, 0.9)), _sample_supnormal),
        Family(8, "weibull", 1, _ALPHA, _sample_weibull),
        Family(9, "chi", 1, (Param("df", 1, 9, "integer"),), _sample_chi),
        Family(10, "bernoulli", 1, (Param("p", 0.001, 0.999),), _sample_bernoulli),
        Family(11, "gumbel_l", 0, _LOC_SCALE, _sample_gumbel_l),
        Family(12, "gumbel_r", 0, _LOC_SCALE, _sample_gumbel_r),
    ]
}

N_FAMILIES = len(FAMILIES)
FAMILY_NAMES = [FAMILIES[i].name for i in range(N_FAMILIES)]


def _require_family(family_id: int) -> Family:
    try:
        return FAMILIES[int(family_id)]
    except (KeyError, TypeError, ValueError):
        raise InvalidFamilyError(f"unknown family id {family_id!r}") from None


def validate_params(family_id: int, params: dict) -> None:
    """Raise InvalidParameterError unless each box entry of params is in its range."""
    family = _require_family(family_id)
    for p in family.box:
        value = params.get(p.name)
        if p.draw == "integer":
            ok, kind = value in range(p.low, p.high + 1), "an integer in"
        else:
            ok, kind = value is not None and p.low <= value <= p.high, "in"
        if not ok:
            raise InvalidParameterError(
                f"{family.name}: {p.name}={value!r} not {kind} [{p.low}, {p.high}]")


@dataclass(frozen=True)
class DistSpec:
    """One generation recipe: family, parameters, and draw count."""

    family_id: int
    params: dict
    sample_size: int

    def __post_init__(self) -> None:
        validate_params(self.family_id, self.params)
        if not (MIN_SAMPLE_SIZE <= self.sample_size <= MAX_SAMPLE_SIZE):
            raise InvalidParameterError(
                f"sample_size={self.sample_size} outside [{MIN_SAMPLE_SIZE}, {MAX_SAMPLE_SIZE}]"
            )


@dataclass(frozen=True)
class RawSeries:
    """A sampled series."""

    values: np.ndarray


def draw_params(family_id: int, rng: np.random.Generator) -> dict:
    """Draw one parameter set inside the family's box, one entry at a time."""
    params = {}
    for p in _require_family(family_id).box:
        if p.low == p.high:
            params[p.name] = p.low
        elif p.draw == "integer":
            params[p.name] = int(rng.integers(p.low, p.high + 1))
        elif p.draw == "reciprocal":
            params[p.name] = 1.0 / rng.uniform(1.0 / p.high, 1.0 / p.low)
        else:
            params[p.name] = rng.uniform(p.low, p.high)
    return params


def draw_spec(family_id: int, rng: np.random.Generator) -> DistSpec:
    """Draw parameters, then a sample size uniform on [35, 1000]."""
    params = draw_params(family_id, rng)
    size = int(rng.integers(MIN_SAMPLE_SIZE, MAX_SAMPLE_SIZE + 1))
    return DistSpec(family_id=int(family_id), params=params, sample_size=size)


def sample_variable(spec: DistSpec, seed: int) -> RawSeries:
    """Sample spec.sample_size values; pure in (spec, seed)."""
    family = _require_family(spec.family_id)
    validate_params(spec.family_id, spec.params)
    rng = np.random.default_rng(int(seed) & M64)
    return RawSeries(family.sample(rng, spec.params, spec.sample_size))


# ---------------------------------------------------------------------------
# corpus construction and cache

@dataclass
class LabeledDataset:
    """Column-oriented corpus of encoded grids with labels and statistics.

    ``grids`` rows are x-bin-major flattened CDF grids. Every array has
    the dtype of its cache block (_CACHE_BLOCKS): the grids are float32,
    the storage precision of the binary cache; training code upcasts.
    """

    grid_shape: GridShape
    grids: np.ndarray        # (n, x_bins * y_levels)
    labels: np.ndarray       # (n,) family ids
    entropy: np.ndarray      # (n,)
    skewness: np.ndarray     # (n,)
    ks_uniform: np.ndarray   # (n,)
    sample_sizes: np.ndarray  # (n,)
    master_seed: int
    per_family_count: int

    def __len__(self) -> int:
        return int(self.grids.shape[0])


_CACHE_MAGIC = b"CDFC"
_CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<4sIQIIQI")
# the body after the header, in file order: LabeledDataset field, little-endian dtype
_CACHE_BLOCKS = (("labels", "<i4"), ("sample_sizes", "<i4"), ("entropy", "<f4"),
                 ("skewness", "<f4"), ("ks_uniform", "<f4"), ("grids", "<f4"))
# the closed range of each float block's values: the statistics and the grid cells
_CACHE_RANGES = {"entropy": (0.0, 1.0), "skewness": (-1.0, 1.0), "ks_uniform": (0.0, 1.0),
                 "grids": (0.0, 1.0)}


# rows a worker encodes and writes in one stretch; write_corpus deals the rows out in
# blocks of this many
ROW_BLOCK = 64


def _blocks(n: int, grid_shape: GridShape) -> list[tuple[str, np.dtype, tuple[int, ...]]]:
    """The body's blocks for n entries, in file order: field, dtype and shape.

    A block holds one grid row per entry for the grids, else one item per entry.
    """
    return [(field, np.dtype(dtype), (n, grid_shape.n_cells) if field == "grids" else (n,))
            for field, dtype in _CACHE_BLOCKS]


def worker_count(n: int) -> int:
    """The processes write_corpus encodes n rows in: one per CPU of the affinity
    mask, but no more than there are ROW_BLOCK blocks of rows."""
    return max(1, min(len(os.sched_getaffinity(0)), -(-n // ROW_BLOCK)))


def _fill_rows(fields: dict, grids: np.ndarray, start: int, per_family_count: int,
               master_seed: int, grid_shape: GridShape) -> None:
    """Generate and encode rows start .. start + len(grids) - 1; the one per-row path.

    Row start + i writes its grid into grids[i] and its per-row fields
    (the other _CACHE_BLOCKS) at index start + i of fields. Row
    family_id * per_family_count + index holds entry index of that family,
    drawn from mix64(master_seed, family_id, index, 0) and sampled from
    mix64(master_seed, family_id, index, 1).
    """
    for i in range(len(grids)):
        row = start + i
        family_id, index = divmod(row, per_family_count)
        spec_rng = np.random.default_rng(mix64(master_seed, family_id, index, 0))
        spec = draw_spec(family_id, spec_rng)
        series = sample_variable(spec, mix64(master_seed, family_id, index, 1))
        grid, stats = describe_series(series.values, grid_shape)
        grids[i] = grid.flat()
        fields["labels"][row] = family_id
        fields["entropy"][row] = stats.entropy
        fields["skewness"][row] = stats.skewness
        fields["ks_uniform"][row] = stats.ks_uniform
        fields["sample_sizes"][row] = spec.sample_size


def _pwrite_all(fd: int, buffer, offset: int) -> None:
    """os.pwrite all of buffer at offset, looping on short writes."""
    view = memoryview(buffer).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _run_workers(workers: int, run: Callable[[int], None]) -> None:
    """run(0) in this process and run(1) .. run(workers - 1) in forked children.

    A child leaves through os._exit on every path, never returning into
    the caller. Each child is waited for, even when this process's own
    run raised, and a child that fails raises RuntimeError.
    """
    children = []
    try:
        for worker in range(1, workers):
            pid = os.fork()
            if pid == 0:  # a child: its run, then os._exit on every path
                status = 1
                try:
                    run(worker)
                    status = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(status)
            children.append(pid)
        run(0)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in children]
    failed = [f"pid {pid} exit code {os.waitstatus_to_exitcode(status)}"
              for pid, status in zip(children, statuses) if status]
    if failed:
        # a negative exit code is the signal that ended the worker
        raise RuntimeError(f"corpus workers failed: {', '.join(failed)}")


def write_corpus(path, per_family_count: int, grid_shape: GridShape,
                 master_seed: int) -> dict[str, np.ndarray]:
    """Generate per_family_count variables per family, encode them and write
    the binary cache to path; returns the per-row fields, every block but the grids.

    The cache is the header, then the _CACHE_BLOCKS in file order, all
    little-endian. Entry seeds derive from (master_seed, family_id, index)
    through mix64 with separate sub-streams for the parameter draw and the
    sampling, so any entry can be regenerated in isolation.

    The rows are dealt out to worker_count(n) processes in ROW_BLOCK
    blocks, block b to worker b % workers (_run_workers: worker 0 is this
    process, the others forked children). Each worker encodes a block
    into its own ROW_BLOCK-row grid buffer and writes it into the file
    with os.pwrite, so no process holds more than one block of grids. The
    per-row fields go into one small anonymous shared mapping, which this
    process writes after the header once every worker has succeeded. The
    children call numpy only on single series; OpenBLAS stops its thread
    pool before a fork and starts it again on its next call.

    The file is written under a temporary name beside path and renamed
    onto it last, so a run that fails leaves path as it was and no
    temporary file behind. When this process is killed, each child finds
    its parent gone before its next block, removes the temporary file and
    exits.
    """
    if per_family_count < 1:
        raise ValueError("per_family_count must be >= 1")
    n = N_FAMILIES * per_family_count
    # the grids are the last block; the per-row fields come before them
    *per_row, (_, grid_dtype, (_, n_cells)) = _blocks(n, grid_shape)
    body = mmap.mmap(-1, sum(dtype.itemsize * n for _, dtype, _ in per_row))
    fields, offset = {}, 0
    for field, dtype, _ in per_row:
        fields[field] = np.frombuffer(body, dtype, n, offset)
        offset += fields[field].nbytes
    grids_at = _CACHE_HEADER.size + offset
    workers = worker_count(n)
    starts = range(0, n, ROW_BLOCK)

    def write_share(worker: int) -> None:
        grids = np.empty((ROW_BLOCK, n_cells), grid_dtype)
        for start in starts[worker::workers]:
            if worker and os.getppid() != parent:
                # the parent was killed, so nothing will rename or read the file
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
                os._exit(1)
            block = grids[:min(ROW_BLOCK, n - start)]
            _fill_rows(fields, block, start, per_family_count, master_seed, grid_shape)
            _pwrite_all(fh.fileno(), block, grids_at + start * grids[0].nbytes)

    parent = os.getpid()
    tmp = f"{os.fspath(path)}.{parent}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            _run_workers(workers, write_share)
            _pwrite_all(fh.fileno(), _CACHE_HEADER.pack(
                _CACHE_MAGIC, _CACHE_VERSION, n, grid_shape.x_bins, grid_shape.y_levels,
                master_seed & M64, per_family_count), 0)
            _pwrite_all(fh.fileno(), body, _CACHE_HEADER.size)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return fields


def build_doe(per_family_count: int) -> LabeledDataset:
    """The corpus `distatlas generate --per-family per_family_count` writes
    (master seed 0, the default grid), held in memory: write_corpus writes
    it into a temporary directory and load_cache reads it back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dataset.bin")
        write_corpus(path, per_family_count, GridShape(), 0)
        return load_cache(path)


def load_cache(path) -> LabeledDataset:
    """Read a binary cache written by write_corpus, checking what it holds.

    The body must end where the header says it does, labels must be
    family ids, sample sizes at least 1, and the entropy, skewness,
    ks_uniform and grid cells finite in their _CACHE_RANGES.
    Each block is read straight into its array (np.fromfile), so a load
    holds the corpus once; a block that ends early raises ValueError.
    """
    with open(path, "rb") as fh:
        head = fh.read(_CACHE_HEADER.size)
        if len(head) < _CACHE_HEADER.size:
            raise ValueError(f"{path}: truncated cache header")
        magic, version, n, x_bins, y_levels, master_seed, per_family = _CACHE_HEADER.unpack(head)
        if magic != _CACHE_MAGIC:
            raise ValueError(f"{path}: not a dataset cache")
        if version != _CACHE_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        shape = GridShape(x_bins, y_levels)
        blocks = _blocks(n, shape)
        body = os.fstat(fh.fileno()).st_size - _CACHE_HEADER.size
        expected = sum(dtype.itemsize * math.prod(dims) for _, dtype, dims in blocks)
        if body != expected:
            raise ValueError(f"{path}: cache body is {body} bytes; its header implies {expected}")
        arrays = {}
        for field, dtype, dims in blocks:
            block = np.fromfile(fh, dtype, math.prod(dims))
            if block.size != math.prod(dims):
                raise ValueError(f"{path}: cache block {field!r} ends early")
            arrays[field] = block.reshape(dims)
    if np.any((arrays["labels"] < 0) | (arrays["labels"] >= N_FAMILIES)):
        raise ValueError(f"{path}: cache labels outside 0..{N_FAMILIES - 1}")
    if np.any(arrays["sample_sizes"] < 1):
        raise ValueError(f"{path}: cache sample sizes below 1")
    for field, (lo, hi) in _CACHE_RANGES.items():
        # min and max are NaN when any value is, so this also rejects NaN
        if n and not (arrays[field].min() >= lo and arrays[field].max() <= hi):
            raise ValueError(f"{path}: cache {field} not finite in [{lo:g}, {hi:g}]")
    return LabeledDataset(grid_shape=shape, master_seed=int(master_seed),
                          per_family_count=int(per_family), **arrays)


def parse_dataset_spec(obj: dict) -> tuple[int, int, GridShape]:
    """Validate a dataset spec dict -> (master_seed, per_family_count, grid)."""
    if not isinstance(obj, dict):
        raise ValueError("dataset spec must be a JSON object")
    try:
        master_seed = int(obj["master_seed"])
        per_family = int(obj["per_family_count"])
        shape = GridShape.from_json({**asdict(GridShape()), **obj.get("grid", {})})
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(str(exc)) from exc
    if per_family < 1:
        raise ValueError("per_family_count must be >= 1")
    if not 0 <= master_seed <= M64:
        raise ValueError("master_seed must be in [0, 2**64)")
    return master_seed, per_family, shape
