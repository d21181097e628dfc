import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distatlas import cdfcodec
from distatlas.cdfcodec import (
    CdfGrid,
    GridShape,
    describe_block,
    describe_series,
    encode_cdf,
    scale_to_unit,
    sub_blocks,
)

finite_series = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=200,
).map(np.array)

# a finite column whose range overflows: max - min is inf
EXTREME = np.linspace(-3.0, 3.0, 38)
EXTREME[5], EXTREME[30] = -1e308, 1e308


class TestGridShape:
    def test_defaults(self):
        shape = GridShape()
        assert (shape.x_bins, shape.y_levels, shape.n_cells) == (26, 25, 650)

    @pytest.mark.parametrize("x,y", [(1, 25), (26, 1), (0, 0)])
    def test_too_small(self, x, y):
        with pytest.raises(ValueError):
            GridShape(x, y)


class TestEncodeCdf:
    def test_two_point_series(self):
        # hand trace: u = (0, 1); bins (0, 25); ranks (1, 2);
        # levels ceil(25*1/2) = 13 and ceil(25*2/2) = 25
        grid = encode_cdf(np.array([0.0, 1.0]))
        occupied = {tuple(ij) for ij in np.argwhere(grid.cells > 0)}
        assert occupied == {(0, 12), (25, 24)}
        assert grid.cells[0, 12] == 1.0 and grid.cells[25, 24] == 1.0

    def test_uniform_staircase(self):
        # 26 equally spaced distinct values: each occupies its own bin
        # and the level of value i is ceil(25 * (i + 1) / 26)
        values = np.arange(26) / 25.0
        grid = encode_cdf(values)
        expected = set()
        for i in range(26):
            level = -((-25 * (i + 1)) // 26)  # independent integer ceil
            expected.add((i, level - 1))
        occupied = {tuple(ij) for ij in np.argwhere(grid.cells > 0)}
        assert occupied == expected
        assert np.all(grid.cells[grid.cells > 0] == 1.0)

    def test_staircase_is_monotone(self):
        values = np.arange(26) / 25.0
        grid = encode_cdf(values)
        levels = [np.flatnonzero(grid.cells[i] > 0) for i in range(26)]
        mins = [lv.min() for lv in levels if lv.size]
        assert all(a <= b for a, b in zip(mins, mins[1:]))

    @given(finite_series)
    @settings(max_examples=100, deadline=None)
    def test_cells_in_unit_interval(self, values):
        grid = encode_cdf(values)
        assert np.all(grid.cells >= 0.0) and np.all(grid.cells <= 1.0)
        assert grid.cells.max() == 1.0

    @given(finite_series)
    @settings(max_examples=100, deadline=None)
    def test_occupied_cells_bounded_by_sample_size(self, values):
        grid = encode_cdf(values)
        assert np.count_nonzero(grid.cells) <= values.shape[0]

    @pytest.mark.parametrize("shape", [GridShape(), GridShape(16, 15)], ids=["26x25", "16x15"])
    @pytest.mark.parametrize("size", ["2", "y_levels", "1000"])
    @given(seed=st.integers(0, 2**32 - 1), constant=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_levels_lie_in_one_to_y_levels(self, shape, size, seed, constant):
        # reference loop: rank r of n takes level ceil(y_levels * r / n) in exact
        # fractions, which lies in 1..y_levels; the grid holds exactly those
        # cells, so no rank falls below level 1 or wraps round to the top
        n = {"2": 2, "y_levels": shape.y_levels, "1000": 1000}[size]
        values = np.full(n, 2.5) if constant else np.random.default_rng(seed).standard_normal(n)
        u = scale_to_unit(values, values.min(), values.max())
        bins = np.minimum((u * shape.x_bins).astype(np.int64), shape.x_bins - 1)
        ranks = np.empty(n, dtype=np.int64)
        ranks[np.argsort(values, kind="stable")] = np.arange(1, n + 1)
        counts = np.zeros((shape.x_bins, shape.y_levels + 1))
        for b, r in zip(bins.tolist(), ranks.tolist()):
            counts[b, math.ceil(Fraction(shape.y_levels * r, n))] += 1
        assert not counts[:, 0].any()
        cells = describe_series(values, shape)[0].cells
        np.testing.assert_array_equal(cells, counts[:, 1:] / counts.max())

    def test_min_level_never_decreases_across_bins(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.standard_normal(rng.integers(10, 400))
            grid = encode_cdf(values)
            mins = [np.flatnonzero(col > 0).min() for col in grid.cells
                    if np.any(col > 0)]
            assert all(a <= b for a, b in zip(mins, mins[1:]))

    def test_affine_invariance(self):
        # exact for data that keeps scaled values away from bin edges
        rng = np.random.default_rng(11)
        for _ in range(25):
            values = rng.standard_normal(200)
            base = encode_cdf(values)
            moved = encode_cdf(3.0 * values + 7.0)
            np.testing.assert_array_equal(base.cells, moved.cells)

    def test_degenerate_series_uses_first_bin(self):
        grid = encode_cdf(np.full(50, 3.25))
        assert np.all(grid.cells[1:] == 0.0)
        assert np.count_nonzero(grid.cells[0]) > 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            encode_cdf(np.array([1.0]))

    def test_custom_shape(self):
        grid = describe_series(np.linspace(0, 1, 40), GridShape(16, 15))[0]
        assert grid.cells.shape == (16, 15)
        assert grid.flat().shape == (240,)


class TestEntropy:
    def test_equal_mass_over_all_bins_is_one(self):
        values = np.arange(26) / 25.0  # one value per bin
        assert describe_series(values, GridShape())[1].entropy == pytest.approx(1.0, abs=1e-12)

    def test_repeated_equal_mass_is_one(self):
        values = np.repeat(np.arange(26) / 25.0, 7)
        assert describe_series(values, GridShape())[1].entropy == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_is_zero(self):
        assert describe_series(np.full(100, 2.5), GridShape())[1].entropy == 0.0

    def test_two_equal_bins(self):
        # mass split between bins 0 and 25 only
        values = np.array([0.0, 0.0, 1.0, 1.0])
        assert describe_series(values, GridShape())[1].entropy == pytest.approx(1.0 / np.log2(26),
                                                                        abs=1e-12)

    def test_one_value_raises(self):
        with pytest.raises(ValueError):
            describe_series(np.array([2.5]), GridShape())

    @given(finite_series)
    @settings(max_examples=100, deadline=None)
    def test_range(self, values):
        e = describe_series(values, GridShape())[1].entropy
        assert 0.0 <= e <= 1.0 + 1e-12


class TestSignedKs:
    def test_diagonal_crossings_have_tiny_skew(self):
        for n in (10, 100, 1000):
            values = (np.arange(1, n + 1) - 0.5) / n
            stats = describe_series(values, GridShape())[1]
            assert abs(stats.skewness) <= 1.0 / (2 * n)

    @given(finite_series)
    @example(EXTREME)
    @settings(max_examples=150, deadline=None)
    def test_mirror_negates_exactly(self, values):
        fwd = describe_series(values, GridShape())[1]
        rev = describe_series(-values, GridShape())[1]
        assert rev.skewness == -fwd.skewness
        assert rev.ks_uniform == fwd.ks_uniform

    @given(finite_series)
    @settings(max_examples=100, deadline=None)
    def test_ks_bounds_skew(self, values):
        stats = describe_series(values, GridShape())[1]
        assert stats.ks_uniform >= abs(stats.skewness) - 1e-15
        assert -1.0 <= stats.skewness <= 1.0
        assert 0.0 <= stats.ks_uniform <= 1.0

    def test_exponential_samples_skew_positive(self):
        rng = np.random.default_rng(3)
        hits = sum(describe_series(-np.log1p(-rng.random(1000)), GridShape())[1].skewness > 0
                   for _ in range(50))
        assert hits >= 49

    def test_degenerate_series(self):
        stats = describe_series(np.full(40, 1.25), GridShape())[1]
        assert stats.skewness == 0.0 and stats.ks_uniform == 0.0
        assert stats.entropy == 0.0

    def test_carries_entropy(self):
        values = np.arange(26) / 25.0
        assert describe_series(values, GridShape())[1].entropy == pytest.approx(1.0, abs=1e-12)


class TestDescribeSeries:
    @given(finite_series)
    @settings(max_examples=100, deadline=None)
    def test_grid_bin_totals_give_the_histogram_entropy(self, values):
        # reference: the normalized entropy of a bincount over the grid's x-bins
        u = scale_to_unit(values, values.min(), values.max())
        counts = np.bincount(np.minimum((u * 26).astype(np.int64), 25), minlength=26)
        p = counts[counts > 0] / counts.sum()
        want = float(-(p @ np.log2(p)) / np.log2(26))
        assert describe_series(values, GridShape())[1].entropy == want


def _reference_span_ratio(top, bottom, lo: float, hi: float) -> np.ndarray:
    span = hi - lo
    if math.isinf(span):
        return (0.5 * top - 0.5 * bottom) / (0.5 * hi - 0.5 * lo)
    return (top - bottom) / span


def _reference_scale(values):
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        return _reference_span_ratio(values, lo, lo, hi), False
    return np.zeros_like(values), True


def _per_series_describe(values, shape):
    """describe_series as it encoded one series at a time, kept as the block pass's reference.

    Returns the grid cells and the three statistics in SeriesStats order.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    ordered = values[np.argsort(values, kind="stable")]
    u, degenerate = _reference_scale(ordered)
    k = np.arange(1, n + 1)
    levels = (shape.y_levels * k - 1) // n
    bins = np.minimum((u * shape.x_bins).astype(np.int64), shape.x_bins - 1)
    counts = np.bincount(bins * shape.y_levels + levels,
                         minlength=shape.n_cells).reshape(shape.x_bins, shape.y_levels)
    totals = counts.sum(axis=1)
    p = totals[totals > 0] / totals.sum()
    ent = float(-(p @ np.log2(p)) / np.log2(totals.size))
    if degenerate:
        return counts / counts.max(), (ent, 0.0, 0.0)
    steps = k / n
    lo, hi = float(ordered[0]), float(ordered[-1])
    d_pos = max(0.0, float((steps - u).max()))
    d_neg = max(0.0, float((steps - _reference_span_ratio(hi, ordered[::-1], lo, hi)).max()))
    return counts / counts.max(), (ent, d_pos - d_neg, max(d_pos, d_neg))


def _ranked_describe_series(values, shape):
    """describe_series as it ranked, scattered and added at, kept as the one-sort pass's reference.

    Returns the grid cells and the three statistics in SeriesStats order.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    u, degenerate = _reference_scale(values)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    levels = (shape.y_levels * ranks + n - 1) // n
    counts = np.zeros((shape.x_bins, shape.y_levels), dtype=np.float64)
    bins = np.minimum((u * shape.x_bins).astype(np.int64), shape.x_bins - 1)
    np.add.at(counts, (bins, levels - 1), 1.0)
    totals = counts.sum(axis=1)
    p = totals[totals > 0] / totals.sum()
    ent = float(-(p @ np.log2(p)) / np.log2(totals.size))
    if degenerate:
        return counts / counts.max(), (ent, 0.0, 0.0)
    lo, hi = float(values.min()), float(values.max())
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    mirrored = values[order[::-1]]
    if math.isinf(hi - lo):
        flipped = (0.5 * hi - 0.5 * mirrored) / (0.5 * hi - 0.5 * lo)
    else:
        flipped = (hi - mirrored) / (hi - lo)
    d_pos = max(0.0, float(np.max(steps - u[order])))
    d_neg = max(0.0, float(np.max(steps - flipped)))
    return counts / counts.max(), (ent, d_pos - d_neg, max(d_pos, d_neg))


# a few values drawn with repeats: ties, signed zeros, a range that overflows, constants
TRICKY = [0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 5e-324]


@st.composite
def tricky_series(draw):
    n = draw(st.sampled_from([2, 1000]) | st.integers(2, 1000))
    pool = np.array(draw(st.lists(
        st.sampled_from(TRICKY) | st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6)))
    return pool[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, pool.size, n)]


class TestOneSortedPass:
    @pytest.mark.parametrize("shape", [GridShape(), GridShape(16, 15)], ids=["26x25", "16x15"])
    @given(values=tricky_series() | finite_series)
    @example(values=np.array([0.0, -0.0]))
    @example(values=np.array([-0.0, 0.0, 0.0, -0.0, 1.0]))
    @example(values=np.full(1000, 3.5))
    @example(values=np.array([1e308, -1e308]))
    @example(values=EXTREME)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_ranked_reference_bit_for_bit(self, shape, values):
        grid, stats = describe_series(values, shape)
        cells, expected = _ranked_describe_series(values, shape)
        assert grid.cells.dtype == np.float64 and grid.cells.shape == cells.shape
        assert grid.cells.tobytes() == cells.tobytes()
        got = (stats.entropy, stats.skewness, stats.ks_uniform)
        assert np.array(got).view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


def _bits(*arrays) -> list:
    return [np.asarray(a, dtype=np.float64).view(np.int64).tolist() for a in arrays]


def assert_block_matches_reference(series, shape):
    grids, stats = describe_block(series, shape)
    assert grids.dtype == np.float64 and grids.shape == (len(series), shape.n_cells)
    for i, values in enumerate(series):
        cells, expected = _per_series_describe(values, shape)
        assert grids[i].tobytes() == cells.tobytes(), i
        got = (stats.entropy[i], stats.skewness[i], stats.ks_uniform[i])
        assert _bits(got) == _bits(expected), (i, got, expected)


def ordinary_rows(rng, count):
    return [rng.standard_normal(int(rng.integers(2, 1001))) * rng.choice([1e-3, 1.0, 1e6])
            for _ in range(count)]


class TestDescribeBlock:
    @pytest.mark.parametrize("shape", [GridShape(), GridShape(16, 15)], ids=["26x25", "16x15"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_blocks_match_the_per_series_reference_bit_for_bit(self, shape, seed):
        # blocks of mixed lengths 2..1000: ordinary, heavy-tailed and discrete rows
        rng = np.random.default_rng(seed)
        kinds = [lambda n: rng.standard_normal(n), lambda n: rng.standard_cauchy(n),
                 lambda n: rng.lognormal(0.0, 3.0, n), lambda n: rng.integers(0, 5, n) * 1.0,
                 lambda n: (rng.random(n) < 0.05) * 1.0]
        for _ in range(5):
            lengths = rng.integers(2, 1001, int(rng.integers(1, 16)))
            series = [kinds[rng.integers(len(kinds))](int(n)) for n in lengths]
            assert_block_matches_reference(series, shape)

    @pytest.mark.parametrize("shape", [GridShape(), GridShape(16, 15)], ids=["26x25", "16x15"])
    def test_corner_rows_among_ordinary_rows_match_the_reference(self, shape):
        rng = np.random.default_rng(7)
        zeros = rng.choice([0.0, -0.0, 1.0], 300)
        corner = [
            np.full(64, 3.25),                               # constant
            np.array([2.0, 5.0] * 20),                       # two values
            (rng.random(500) < 0.01) * 1.0,                  # Bernoulli: one long tie
            np.where(rng.random(90) < 0.5, 0.0, -0.0),       # only signed zeros
            zeros,                                           # +0.0 and -0.0 tied, then 1.0
            -zeros,                                          # and with hi a signed zero
            EXTREME,                                         # hi - lo overflows to inf
            np.array([1e308, -1e308]),
            np.array([5e-324, 0.0, -0.0, 5e-324]),           # the smallest span
        ]
        series = ordinary_rows(rng, 6)
        for i, row in enumerate(corner):
            series.insert(int(rng.integers(0, len(series) + 1)), row)
        assert_block_matches_reference(series, shape)
        # every row encodes the same alone, and in a block of any order
        order = rng.permutation(len(series))
        grids, stats = describe_block([series[i] for i in order], shape)
        alone, _ = describe_block(series, shape)
        assert grids.tobytes() == alone[order].tobytes()

    def test_signed_zero_ties_give_the_same_bits_in_any_order(self):
        # np.sort may order tied -0.0 and +0.0 either way; only sorted values are read
        rng = np.random.default_rng(3)
        base = np.array([0.0, -0.0] * 20 + [1.0, -1.0, 0.5])
        for values in (base, -base, np.array([0.0, -0.0] * 20 + [-1.0])):
            first = describe_block([values], GridShape())
            for _ in range(20):
                again = describe_block([rng.permutation(values)], GridShape())
                assert again[0].tobytes() == first[0].tobytes()
                assert _bits(*vars(again[1]).values()) == _bits(*vars(first[1]).values())

    def test_inputs_are_left_unsorted(self):
        values = np.array([3.0, 1.0, 2.0])
        describe_block([values, values[::-1].copy()], GridShape())
        assert values.tolist() == [3.0, 1.0, 2.0]

    def test_a_short_series_in_a_block_raises(self):
        with pytest.raises(ValueError, match="at least 2"):
            describe_block([np.arange(5.0), np.array([1.0])], GridShape())

    def test_describe_series_is_the_block_of_one(self):
        values = np.random.default_rng(4).standard_normal(77)
        grid, stats = describe_series(values, GridShape())
        grids, block_stats = describe_block([values], GridShape())
        assert grid.flat().tobytes() == grids[0].tobytes()
        one_row = [v[0] for v in vars(block_stats).values()]
        assert _bits(list(vars(stats).values())) == _bits(one_row)


class TestSubBlocks:
    def test_blocks_keep_order_and_stay_within_the_bound(self):
        rng = np.random.default_rng(1)
        series = [np.zeros(int(n)) for n in rng.integers(35, 1001, 200)]
        blocks = list(sub_blocks(iter(series)))
        assert [s for block in blocks for s in block] == series
        assert all(sum(map(len, block)) <= cdfcodec.BLOCK_VALUES for block in blocks)
        # a block closes only when the next series would not fit
        assert all(sum(map(len, block)) + len(after[0]) > cdfcodec.BLOCK_VALUES
                   for block, after in zip(blocks, blocks[1:]))

    def test_a_longer_series_goes_alone(self):
        big = np.zeros(cdfcodec.BLOCK_VALUES + 1)
        small = np.zeros(10)
        assert [len(b) for b in sub_blocks([small, big, small])] == [1, 1, 1]


class TestScaleToUnit:
    def test_basic(self):
        u = scale_to_unit(np.array([2.0, 4.0, 6.0]), 2.0, 6.0)
        np.testing.assert_allclose(u, [0.0, 0.5, 1.0])

    def test_degenerate(self):
        assert np.all(scale_to_unit(np.full(5, 9.0), 9.0, 9.0) == 0.0)

    def test_overflowing_range(self):
        u = scale_to_unit(np.array([-1e308, 0.0, 1e308]), -1e308, 1e308)
        np.testing.assert_array_equal(u, [0.0, 0.5, 1.0])

    def test_per_entry_bounds_scale_each_series_on_its_own(self):
        # a block of three series: an ordinary one, a constant one and one whose range overflows
        values = np.array([2.0, 4.0, 6.0, 9.0, 9.0, -1e308, 0.0, 1e308])
        lo = np.repeat([2.0, 9.0, -1e308], [3, 2, 3])
        hi = np.repeat([6.0, 9.0, 1e308], [3, 2, 3])
        np.testing.assert_array_equal(scale_to_unit(values, lo, hi),
                                      [0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.5, 1.0])


def test_grid_flat_is_x_bin_major():
    grid = CdfGrid(GridShape(3, 2), np.arange(6, dtype=float).reshape(3, 2))
    np.testing.assert_array_equal(grid.flat(), np.arange(6))

