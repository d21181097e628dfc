import math
import os
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from distatlas import distgen
from distatlas.cdfcodec import GridShape, describe_series
from distatlas.distgen import (
    FAMILIES,
    FAMILY_NAMES,
    N_FAMILIES,
    DistSpec,
    InvalidFamilyError,
    InvalidParameterError,
    build_doe,
    draw_params,
    draw_spec,
    load_cache,
    mix64,
    parse_dataset_spec,
    sample_variable,
    write_corpus,
)

# critical K-S value at alpha = 0.001: sqrt(-ln(alpha/2) / 2) / sqrt(n)
KS_ALPHA_001 = math.sqrt(-math.log(0.0005) / 2.0)


def ks_statistic(values, cdf):
    """One-sample K-S distance against a theoretical CDF, computed inline."""
    x = np.sort(values)
    n = x.shape[0]
    f = cdf(x)
    steps = np.arange(1, n + 1) / n
    return max(np.max(steps - f), np.max(f - (steps - 1.0 / n)))


def make_series(family_id, params, n, seed):
    """Draw directly from the family sampler; n may exceed the spec cap."""
    rng = np.random.default_rng(seed)
    return FAMILIES[family_id].sample(rng, params, n)


class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)

    def test_distinct_inputs_rarely_collide(self):
        seen = {mix64(s, f, i, t) for s in range(3) for f in range(13)
                for i in range(20) for t in range(2)}
        assert len(seen) == 3 * 13 * 20 * 2

    def test_zero_is_not_fixed_point(self):
        assert mix64(0) != 0


class TestDrawParams:
    def test_unknown_family(self):
        with pytest.raises(InvalidFamilyError):
            draw_params(13, np.random.default_rng(0))

    def test_normal_is_fixed(self):
        for seed in range(20):
            assert draw_params(5, np.random.default_rng(seed)) == {"loc": 0.0, "scale": 1.0}

    def test_bernoulli_range(self):
        for seed in range(200):
            p = draw_params(10, np.random.default_rng(seed))["p"]
            assert 0.001 <= p <= 0.999

    def test_chi_df_values(self):
        dfs = {draw_params(9, np.random.default_rng(seed))["df"] for seed in range(500)}
        assert dfs == set(range(1, 10))

    def test_all_families_validate(self):
        for fid in range(N_FAMILIES):
            for seed in range(50):
                params = draw_params(fid, np.random.default_rng(seed))
                distgen.validate_params(fid, params)  # must not raise

    def test_supnormal_ranges(self):
        for seed in range(100):
            p = draw_params(7, np.random.default_rng(seed))
            assert p["loc1"] == 0.0 and p["scale1"] == 1.0
            assert 0.0 <= p["loc2"] <= 1.0
            assert 0.1 <= p["scale2"] <= 9.0
            assert 0.1 <= p["w"] <= 0.9


_FIXED = {"loc": 0.0, "scale": 1.0}

# draw_params(fid, default_rng(seed)) for seeds 0, 1 and 2, as the per-family
# draw functions that preceded the parameter boxes returned them
PINNED_DRAWS = {
    0: [{"alpha": 5.7689590171609435, "beta": 2.501101752498446},
        {"alpha": 4.655212459832285, "beta": 8.559126897300825},
        {"alpha": 2.428347994818916, "beta": 2.7565711763856977}],
    1: [_FIXED] * 3,
    2: [_FIXED] * 3,
    3: [{"alpha": 5.7689590171609435}, {"alpha": 4.655212459832285},
        {"alpha": 2.428347994818916}],
    4: [{"s": 0.1733414983579007}, {"s": 0.21481296689002835}, {"s": 0.41180259259940655}],
    5: [_FIXED] * 3,
    6: [_FIXED] * 3,
    7: [{"loc1": 0.0, "scale1": 1.0, "loc2": 0.6369616873214543, "scale2": 2.501101752498446,
         "w": 0.13277881914895576},
        {"loc1": 0.0, "scale1": 1.0, "loc2": 0.5118216247002567, "scale2": 8.559126897300825,
         "w": 0.215327690175707},
        {"loc1": 0.0, "scale1": 1.0, "loc2": 0.2616121342493164, "scale2": 2.7565711763856977,
         "w": 0.7513805924754243}],
    8: [{"alpha": 5.7689590171609435}, {"alpha": 4.655212459832285},
        {"alpha": 2.428347994818916}],
    9: [{"df": 8}, {"df": 5}, {"df": 8}],
    10: [{"p": 0.6366877639468114}, {"p": 0.5117979814508562}, {"p": 0.26208890998081774}],
    11: [_FIXED] * 3,
    12: [_FIXED] * 3,
}


@pytest.mark.parametrize("fid", range(N_FAMILIES))
def test_draw_params_are_pinned(fid):
    for seed, expected in enumerate(PINNED_DRAWS[fid]):
        drawn = draw_params(fid, np.random.default_rng(seed))
        # keys in the same order, values equal and of the same Python type
        assert [(k, type(v), v) for k, v in drawn.items()] == \
            [(k, type(v), v) for k, v in expected.items()]


# one valid parameter set per family, on which single entries are varied
BASE_PARAMS = {fid: PINNED_DRAWS[fid][0] for fid in range(N_FAMILIES)}
# values outside the box written out, independent of the table
MORE_REJECTED = {9: {"df": [0, 3.5, 10]},
                 4: {"s": [float(np.nextafter(1 / 9, 0.0)), float(np.nextafter(10.0, np.inf))]}}


@pytest.mark.parametrize("fid", range(N_FAMILIES))
def test_validate_params_accepts_each_bound_and_rejects_one_ulp_outside(fid):
    def rejects(params):
        with pytest.raises(InvalidParameterError):
            distgen.validate_params(fid, params)

    for p in FAMILIES[fid].box:
        for bound, outward in ((p.low, -np.inf), (p.high, np.inf)):
            distgen.validate_params(fid, {**BASE_PARAMS[fid], p.name: bound})
            rejects({**BASE_PARAMS[fid], p.name: float(np.nextafter(bound, outward))})
        rejects({k: v for k, v in BASE_PARAMS[fid].items() if k != p.name})
    for name, values in MORE_REJECTED.get(fid, {}).items():
        for value in values:
            rejects({**BASE_PARAMS[fid], name: value})


class TestSpecValidation:
    def test_bad_sample_size(self):
        with pytest.raises(InvalidParameterError):
            DistSpec(family_id=5, params={"loc": 0.0, "scale": 1.0}, sample_size=10)

    def test_bad_params(self):
        with pytest.raises(InvalidParameterError):
            DistSpec(family_id=0, params={"alpha": 50.0, "beta": 1.0}, sample_size=100)


class TestSamplerDeterminism:
    @pytest.mark.parametrize("fid", range(N_FAMILIES))
    def test_same_spec_same_seed(self, fid):
        spec = draw_spec(fid, np.random.default_rng(99))
        a = sample_variable(spec, 1234).values
        b = sample_variable(spec, 1234).values
        np.testing.assert_array_equal(a, b)
        assert a.shape[0] == spec.sample_size

    def test_different_seed_differs(self):
        spec = DistSpec(family_id=5, params={"loc": 0.0, "scale": 1.0}, sample_size=100)
        a = sample_variable(spec, 1).values
        b = sample_variable(spec, 2).values
        assert not np.array_equal(a, b)


class TestSamplerDomains:
    def test_beta_open_unit_interval(self):
        for alpha, beta in [(0.1, 0.1), (9.0, 0.1), (0.1, 9.0), (2.0, 5.0)]:
            v = make_series(0, {"alpha": alpha, "beta": beta}, 1000, seed=42)
            assert np.all(v > 0.0) and np.all(v < 1.0)

    def test_bernoulli_binary(self):
        v = make_series(10, {"p": 0.4}, 1000, seed=7)
        assert set(np.unique(v)) <= {0.0, 1.0}

    def test_uniform_support(self):
        v = make_series(6, {"loc": 0.0, "scale": 1.0}, 1000, seed=7)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_nonnegative_families(self):
        assert np.all(make_series(2, {"loc": 0.0, "scale": 1.0}, 1000, 3) >= 0.0)
        assert np.all(make_series(8, {"alpha": 0.5}, 1000, 3) >= 0.0)
        assert np.all(make_series(9, {"df": 1}, 1000, 3) >= 0.0)
        assert np.all(make_series(3, {"alpha": 0.2}, 1000, 3) > 0.0)
        assert np.all(make_series(4, {"s": 2.0}, 1000, 3) > 0.0)

    def test_all_samplers_finite(self):
        for fid in range(N_FAMILIES):
            spec = draw_spec(fid, np.random.default_rng(fid))
            assert np.all(np.isfinite(sample_variable(spec, 55).values))


class TestSamplerGoodnessOfFit:
    """K-S tests at alpha = 0.001 against closed-form CDFs, n = 10000."""

    N = 10000
    CRIT = KS_ALPHA_001 / math.sqrt(10000)

    def check(self, family_id, params, cdf, seed=101):
        values = make_series(family_id, params, self.N, seed)
        assert ks_statistic(values, cdf) < self.CRIT

    def test_uniform(self):
        self.check(6, {"loc": 0.0, "scale": 1.0}, lambda x: np.clip(x, 0, 1))

    def test_exponential(self):
        self.check(2, {"loc": 0.0, "scale": 1.0}, lambda x: 1.0 - np.exp(-x))

    def test_cauchy(self):
        self.check(1, {"loc": 0.0, "scale": 1.0}, lambda x: 0.5 + np.arctan(x) / np.pi)

    def test_normal(self):
        from math import erf
        self.check(5, {"loc": 0.0, "scale": 1.0},
                   lambda x: 0.5 * (1.0 + np.vectorize(erf)(x / math.sqrt(2))))

    def test_weibull(self):
        for alpha in (0.5, 1.0, 4.0):
            self.check(8, {"alpha": alpha}, lambda x, a=alpha: 1.0 - np.exp(-x ** a))

    def test_gumbel_r(self):
        self.check(12, {"loc": 0.0, "scale": 1.0}, lambda x: np.exp(-np.exp(-x)))

    def test_gumbel_l(self):
        self.check(11, {"loc": 0.0, "scale": 1.0}, lambda x: 1.0 - np.exp(-np.exp(x)))

    def test_gamma(self):
        from scipy.special import gammainc
        for alpha in (0.3, 1.0, 2.5, 8.0):
            self.check(3, {"alpha": alpha}, lambda x, a=alpha: gammainc(a, x))

    def test_beta(self):
        from scipy.special import betainc
        for a, b in [(0.2, 0.7), (2.0, 5.0), (8.0, 8.0)]:
            self.check(0, {"alpha": a, "beta": b},
                       lambda x, a=a, b=b: betainc(a, b, np.clip(x, 0, 1)))

    def test_chi(self):
        from scipy.special import gammainc
        for df in (1, 3, 9):
            self.check(9, {"df": df}, lambda x, d=df: gammainc(d / 2.0, x * x / 2.0))

    def test_lognormal(self):
        from math import erf
        s = 0.5
        self.check(4, {"s": s},
                   lambda x: 0.5 * (1.0 + np.vectorize(erf)(np.log(x) / (s * math.sqrt(2)))))


class TestSamplerMoments:
    """CLT bands around known means (about 4.7 sigma at n = 1000)."""

    def test_exponential_mean(self):
        v = make_series(2, {"loc": 0.0, "scale": 1.0}, 1000, seed=5)
        assert 0.85 <= v.mean() <= 1.15

    def test_bernoulli_high_p(self):
        v = make_series(10, {"p": 0.999}, 1000, seed=5)
        assert 0.97 <= v.mean() <= 1.0

    def test_gamma_mean_var(self):
        for alpha in (0.5, 3.0):
            v = make_series(3, {"alpha": alpha}, 100000, seed=8)
            assert abs(v.mean() - alpha) < 5 * math.sqrt(alpha / 100000)
            assert abs(v.var() - alpha) < 0.1 * alpha

    def test_beta_mean(self):
        a, b = 2.0, 5.0
        v = make_series(0, {"alpha": a, "beta": b}, 100000, seed=8)
        expected = a / (a + b)
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        assert abs(v.mean() - expected) < 5 * sd / math.sqrt(100000)

    def test_chi_mean(self):
        for df in (1, 4, 9):
            v = make_series(9, {"df": df}, 100000, seed=8)
            expected = math.sqrt(2) * math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2))
            assert abs(v.mean() - expected) < 0.02

    def test_supnormal_mean(self):
        params = {"loc1": 0.0, "scale1": 1.0, "loc2": 0.8, "scale2": 2.0, "w": 0.3}
        v = make_series(7, params, 100000, seed=8)
        expected = 0.3 * 0.0 + 0.7 * 0.8
        assert abs(v.mean() - expected) < 0.05


class TestBuildDoe:
    def test_counts_per_family(self):
        ds = build_doe(2)
        assert len(ds) == 2 * N_FAMILIES
        assert np.all(np.bincount(ds.labels, minlength=N_FAMILIES) == 2)
        assert (ds.master_seed, ds.per_family_count, ds.grid_shape) == (0, 2, GridShape())

    def test_single_per_family(self):
        ds = build_doe(1)
        assert len(ds) == N_FAMILIES
        assert sorted(ds.labels.tolist()) == list(range(N_FAMILIES))

    def test_deterministic(self, corpus):
        a = corpus(3, 7)
        b = corpus(3, 7)
        np.testing.assert_array_equal(a.grids, b.grids)
        np.testing.assert_array_equal(a.entropy, b.entropy)

    def test_seed_changes_output(self, corpus):
        a = corpus(2, 1)
        b = corpus(2, 2)
        assert not np.array_equal(a.grids, b.grids)

    def test_sample_sizes_in_range(self):
        ds = build_doe(5)
        assert ds.sample_sizes.min() >= 35 and ds.sample_sizes.max() <= 1000

    def test_grids_normalized(self, corpus):
        ds = corpus(2, 3)
        assert ds.grids.min() >= 0.0 and ds.grids.max() <= 1.0
        assert np.all(ds.grids.max(axis=1) == 1.0)

    def test_rejects_zero(self, tmp_path):
        with pytest.raises(ValueError):
            build_doe(0)
        with pytest.raises(ValueError):
            write_corpus(tmp_path / "corpus.bin", 0, GridShape(), 0)
        assert list(tmp_path.iterdir()) == []

    def test_custom_grid(self, corpus):
        ds = corpus(1, 1, GridShape(16, 15))
        assert ds.grids.shape == (N_FAMILIES, 240)

    def test_worker_count(self, monkeypatch):
        # one worker per CPU of the affinity mask, at most one per ROW_BLOCK rows
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert [distgen.worker_count(n) for n in (13, 64, 65, 481, 10**6)] == [1, 1, 2, 4, 4]

    def test_more_workers_than_cores_write_the_same_rows(self, tmp_path, monkeypatch):
        # 481 rows are 7 full blocks and one of 33, dealt unequally to five workers;
        # 832 rows are 13 full blocks, which five workers get in unequal shares too
        for per_family in (37, 64):
            files = []
            for cpus in (1, 5):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
                assert distgen.worker_count(N_FAMILIES * per_family) == cpus
                path = tmp_path / f"corpus_{per_family}_{cpus}.bin"
                fields = write_corpus(path, per_family, GridShape(), 5)
                files.append(path.read_bytes())
                loaded = load_cache(path)
                for field in fields:
                    np.testing.assert_array_equal(fields[field], getattr(loaded, field))
            assert files[0] == files[1]
        # every worker was waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_failing_worker_leaves_the_previous_cache(self, tmp_path, monkeypatch, where):
        path = tmp_path / "dataset.bin"
        write_corpus(path, 1, GridShape(), 3)
        previous = path.read_bytes()
        parent = os.getpid()
        uniform = FAMILIES[6]

        def sample(rng, params, n):
            if (os.getpid() == parent) == (where == "parent"):
                raise ArithmeticError(f"uniform sampler failure in the {where}")
            return uniform.sample(rng, params, n)

        # set before the fork, so the children inherit the failing sampler
        monkeypatch.setitem(FAMILIES, 6, replace(uniform, sample=sample))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        # 13 x 37 rows: the uniform family's rows fall in both workers' shares
        error, message = {"child": (RuntimeError, "corpus workers failed: pid [0-9]+ exit code 1"),
                          "parent": (ArithmeticError, "in the parent")}[where]
        with pytest.raises(error, match=message):
            write_corpus(path, 37, GridShape(), 5)
        with pytest.raises(error, match=message):
            build_doe(37)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.bin"]


def regenerated_row(master_seed: int, per_family: int, row: int, shape: GridShape):
    """Row `row` of a corpus, drawn and encoded on its own from its two mix64 seeds."""
    family_id, index = divmod(row, per_family)
    spec = draw_spec(family_id, np.random.default_rng(mix64(master_seed, family_id, index, 0)))
    series = sample_variable(spec, mix64(master_seed, family_id, index, 1))
    grid, stats = describe_series(series.values, shape)
    return family_id, spec.sample_size, grid.flat().astype(np.float32), stats


class TestCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.bin"
        fields = write_corpus(path, 4, GridShape(16, 15), 9)
        loaded = load_cache(path)
        assert loaded.grid_shape == GridShape(16, 15)
        assert loaded.master_seed == 9
        assert loaded.per_family_count == 4
        assert set(fields) == {field for field, _ in distgen._CACHE_BLOCKS} - {"grids"}
        for field, values in fields.items():
            np.testing.assert_array_equal(getattr(loaded, field), values)
        for row in (0, 17, len(loaded) - 1):
            label, size, grid, stats = regenerated_row(9, 4, row, GridShape(16, 15))
            assert (loaded.labels[row], loaded.sample_sizes[row]) == (label, size)
            np.testing.assert_array_equal(loaded.grids[row], grid)
            assert loaded.entropy[row] == np.float32(stats.entropy)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache at all, far too short to matter")
        with pytest.raises(ValueError):
            load_cache(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "corpus.bin"
        write_corpus(path, 2, GridShape(), 9)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            load_cache(path)

    def test_load_holds_each_block_once(self, tmp_path):
        path = tmp_path / "corpus.bin"
        fields = write_corpus(path, 400, GridShape(), 8)
        tracemalloc.start()
        try:
            loaded = load_cache(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * path.stat().st_size
        np.testing.assert_array_equal(loaded.labels, fields["labels"])
        assert loaded.grids.tobytes() == path.read_bytes()[-loaded.grids.nbytes:]

    @pytest.mark.parametrize("block", ["labels", "grids"])
    def test_a_block_that_ends_early_is_named(self, tmp_path, monkeypatch, block):
        # a file cut after its size was checked: the read of that block comes up short
        path = tmp_path / "corpus.bin"
        write_corpus(path, 1, GridShape(), 9)
        blob = path.read_bytes()
        cut = 36 + 2 if block == "labels" else len(blob) - 4
        real_fstat = os.fstat
        monkeypatch.setattr(distgen.os, "fstat", lambda fd: SimpleNamespace(
            st_size=real_fstat(fd).st_size + len(blob) - cut))
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=f"block '{block}' ends early"):
            load_cache(path)

    @pytest.mark.parametrize("offset, packed", [
        (0, struct.pack("<i", 99)),           # first label
        (0, struct.pack("<i", -1)),
        (1, struct.pack("<i", 0)),            # first sample size
        (2, struct.pack("<f", float("nan"))),  # first entropy
        (2, struct.pack("<f", 1.5)),
        (2, struct.pack("<f", -0.5)),
        (3, struct.pack("<f", float("nan"))),  # first skewness
        (3, struct.pack("<f", 1.5)),
        (3, struct.pack("<f", -1.5)),
        (4, struct.pack("<f", float("nan"))),  # first K-S statistic
        (4, struct.pack("<f", 1.5)),
        (4, struct.pack("<f", -0.5)),
        (5, struct.pack("<f", float("nan"))),  # first grid cell
        (5, struct.pack("<f", 1.5)),
        (None, b"\0\0\0\0"),                # trailing bytes
    ], ids=["label-99", "label-negative", "sample-size-0", "entropy-nan", "entropy-above-1",
            "entropy-negative", "skewness-nan", "skewness-above-1", "skewness-below-minus-1",
            "ks-nan", "ks-above-1", "ks-negative", "cell-nan", "cell-above-1",
            "trailing-bytes"])
    def test_rejects_bad_contents(self, tmp_path, offset, packed):
        path = tmp_path / "corpus.bin"
        write_corpus(path, 1, GridShape(), 9)
        blob = path.read_bytes()
        # blocks after the 36-byte header: labels, sizes, entropy, skewness, K-S, grids
        at = len(blob) if offset is None else 36 + 4 * N_FAMILIES * offset
        path.write_bytes(blob[:at] + packed + blob[at + (0 if offset is None else 4):])
        with pytest.raises(ValueError):
            load_cache(path)


class TestDatasetSpec:
    def test_parse(self):
        seed, count, grid = parse_dataset_spec(
            {"master_seed": 5, "per_family_count": 10, "grid": {"x_bins": 16, "y_levels": 15}})
        assert (seed, count, grid.x_bins, grid.y_levels) == (5, 10, 16, 15)

    def test_defaults_grid(self):
        _, _, grid = parse_dataset_spec({"master_seed": 0, "per_family_count": 1})
        assert (grid.x_bins, grid.y_levels) == (26, 25)

    @pytest.mark.parametrize("obj", [
        [], {"master_seed": 0}, {"per_family_count": 3},
        {"master_seed": 0, "per_family_count": 0},
        {"master_seed": -1, "per_family_count": 1},
        {"master_seed": 0, "per_family_count": 1, "grid": {"x_bins": 1}},
        {"master_seed": 0, "per_family_count": 1, "grid": []},
        {"master_seed": float("inf"), "per_family_count": 1},
    ])
    def test_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            parse_dataset_spec(obj)


def test_family_table_is_complete():
    assert len(FAMILY_NAMES) == 13
    assert FAMILY_NAMES[0] == "beta" and FAMILY_NAMES[10] == "bernoulli"
    assert [FAMILIES[i].varying_params for i in range(13)] == [2, 0, 0, 1, 1, 0, 0, 5, 1, 1, 1, 0, 0]
