import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distatlas.cdfcodec import (
    CdfGrid,
    GridShape,
    describe_series,
    encode_cdf,
    scale_to_unit,
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
        u, _ = scale_to_unit(values)
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
        u, _ = scale_to_unit(values)
        counts = np.bincount(np.minimum((u * 26).astype(np.int64), 25), minlength=26)
        p = counts[counts > 0] / counts.sum()
        want = float(-(p @ np.log2(p)) / np.log2(26))
        assert describe_series(values, GridShape())[1].entropy == want


def _ranked_describe_series(values, shape):
    """describe_series as it ranked, scattered and added at, kept as the one-sort pass's reference.

    Returns the grid cells and the three statistics in SeriesStats order.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    u, degenerate = scale_to_unit(values)
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


class TestScaleToUnit:
    def test_basic(self):
        u, degenerate = scale_to_unit(np.array([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(u, [0.0, 0.5, 1.0])
        assert not degenerate

    def test_degenerate(self):
        u, degenerate = scale_to_unit(np.full(5, 9.0))
        assert degenerate and np.all(u == 0.0)

    def test_overflowing_range(self):
        u, degenerate = scale_to_unit(np.array([-1e308, 0.0, 1e308]))
        np.testing.assert_array_equal(u, [0.0, 0.5, 1.0])
        assert not degenerate


def test_grid_flat_is_x_bin_major():
    grid = CdfGrid(GridShape(3, 2), np.arange(6, dtype=float).reshape(3, 2))
    np.testing.assert_array_equal(grid.flat(), np.arange(6))

