import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distatlas.cdfcodec import encode_cdf
from distatlas.cdfrepair import WEIGHT_FLOOR, grid_to_curve, isotonic_fit, monotone_repair


# the one-grid and one-curve loops that the batched forms replaced, kept as their reference
def reference_curve(cells):
    levels = np.arange(1, cells.shape[1] + 1, dtype=np.float64) / cells.shape[1]
    weight = cells.sum(axis=1)
    resolved = weight >= WEIGHT_FLOOR
    if not resolved.any():
        raise ValueError("all-zero intensity grid has no curve")
    curve = np.empty(cells.shape[0])
    curve[resolved] = (cells[resolved] @ levels) / weight[resolved]
    idx = np.arange(cells.shape[0], dtype=np.float64)
    curve[~resolved] = np.interp(idx[~resolved], idx[resolved], curve[resolved])
    return curve


def reference_isotonic(values):
    block_val, block_len = [], []
    for v in values.tolist():
        block_val.append(v)
        block_len.append(1)
        while len(block_val) > 1 and block_val[-2] > block_val[-1]:
            v2, c2 = block_val.pop(), block_len.pop()
            c1 = block_len[-1]
            block_val[-1] = (block_val[-1] * c1 + v2 * c2) / (c1 + c2)
            block_len[-1] = c1 + c2
    return np.repeat(block_val, block_len)


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def brute_force_isotonic(y):
    """Exhaustive search over consecutive-block partitions.

    The least-squares nondecreasing fit is piecewise constant on
    consecutive blocks at their means; enumerating every partition and
    keeping the best feasible candidate recovers it exactly for small n.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    best = None
    best_sse = np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        edges = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        candidate = np.empty(n)
        for a, b in zip(edges, edges[1:]):
            candidate[a:b] = y[a:b].mean()
        if np.any(np.diff(candidate) < 0):
            continue
        sse = float(np.sum((candidate - y) ** 2))
        if sse < best_sse:
            best_sse = sse
            best = candidate
    return best


class TestIsotonicFit:
    def test_already_monotone_unchanged(self):
        y = np.array([0.1, 0.2, 0.2, 0.9])
        np.testing.assert_array_equal(isotonic_fit(y), y)

    def test_two_point_swap(self):
        np.testing.assert_allclose(isotonic_fit(np.array([1.0, 0.0])), [0.5, 0.5])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = rng.random(8)
            np.testing.assert_allclose(isotonic_fit(y), brute_force_isotonic(y), atol=1e-6)

    def test_output_nondecreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            fit = isotonic_fit(rng.normal(size=rng.integers(2, 40)))
            assert np.all(np.diff(fit) >= 0.0)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            fit = isotonic_fit(rng.random(26))
            np.testing.assert_array_equal(isotonic_fit(fit), fit)

    def test_mean_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.normal(size=20)
            assert isotonic_fit(y).mean() == pytest.approx(y.mean(), abs=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=12).map(np.array))
    @settings(max_examples=150, deadline=None)
    def test_projection_beats_feasible_points(self, y):
        # the fit is the closest nondecreasing vector: any other feasible
        # vector is at least as far from the input
        fit = isotonic_fit(y)
        sse_fit = np.sum((fit - y) ** 2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = np.cumsum(rng.random(y.shape[0]))
            assert sse_fit <= np.sum((w - y) ** 2) + 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            isotonic_fit(np.array([0.0, np.nan]))


class TestMonotoneRepair:
    def test_clamps_to_unit_interval(self):
        out = monotone_repair(np.array([-0.5, 0.2, 1.7]))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.diff(out) >= 0.0)

    def test_identity_on_valid_curve(self):
        y = np.linspace(0.0, 1.0, 26)
        np.testing.assert_array_equal(monotone_repair(y), y)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            out = monotone_repair(rng.normal(0.5, 0.5, size=26))
            np.testing.assert_array_equal(monotone_repair(out), out)


class TestGridToCurve:
    def test_single_intensity(self):
        cells = np.zeros((26, 25))
        cells[4, 12] = 1.0  # level 13 -> 13/25
        curve = grid_to_curve(cells[None])[0]
        assert curve[4] == pytest.approx(13 / 25)

    def test_equal_intensities_average(self):
        cells = np.zeros((26, 25))
        cells[0, 9] = 0.5   # level 10
        cells[0, 19] = 0.5  # level 20
        assert grid_to_curve(cells[None])[0, 0] == pytest.approx(15 / 25)

    def test_empty_bins_interpolated(self):
        cells = np.zeros((26, 25))
        cells[0, 0] = 1.0   # level 1 -> 0.04
        cells[25, 24] = 1.0  # level 25 -> 1.0
        curve = grid_to_curve(cells[None])[0]
        expected = np.interp(np.arange(26), [0, 25], [1 / 25, 1.0])
        np.testing.assert_allclose(curve, expected)

    def test_all_zero_grid_raises(self):
        with pytest.raises(ValueError):
            grid_to_curve(np.zeros((1, 26, 25)))

    def test_encoded_staircase_needs_no_repair(self):
        grid = encode_cdf(np.arange(26) / 25.0)
        curve = grid_to_curve(grid.cells[None])[0]
        np.testing.assert_array_equal(monotone_repair(curve), curve)

    def test_sorted_sample_curve_monotone(self):
        rng = np.random.default_rng(6)
        grid = encode_cdf(np.sort(rng.random(400)))
        curve = grid_to_curve(grid.cells[None])[0]
        assert np.all(np.diff(curve) >= 0.0)


class TestBatched:
    """A stack of grids or curves in one call equals the one-row path per row, bit for bit."""

    @pytest.mark.parametrize("shape", [(300, 26, 25), (40, 16, 15), (30, 1, 9), (30, 7, 1)])
    def test_curves_match_the_per_grid_reference(self, shape):
        rng = np.random.default_rng(shape[1])
        cells = rng.random(shape)
        # unresolved bins in some grids, interpolated inside and extended at the ends
        cells[rng.random(shape[:2]) < 0.15] = 0.0
        cells[np.arange(shape[0]), rng.integers(0, shape[1], shape[0])] += 0.5
        cells[5, :-1] = 0.0
        want = np.array([reference_curve(c) for c in cells])
        assert_bits_equal(grid_to_curve(cells), want)

    def test_a_decoder_lattice_matches_the_per_grid_reference(self):
        # strictly positive sigmoid outputs: every bin resolved, the whole stack in one matmul
        rng = np.random.default_rng(7)
        cells = 1.0 / (1.0 + np.exp(-rng.normal(scale=3.0, size=(2500, 26, 25))))
        assert_bits_equal(grid_to_curve(cells), np.array([reference_curve(c) for c in cells]))

    def test_an_all_zero_grid_in_a_stack_raises(self):
        cells = np.random.default_rng(8).random((4, 26, 25))
        cells[2] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            grid_to_curve(cells)

    def test_rejects_other_ranks(self):
        for bad in (np.ones(5), np.ones((2, 3, 4, 5))):
            with pytest.raises(ValueError):
                grid_to_curve(bad)

    @pytest.mark.parametrize("m", [26, 5, 1])
    def test_isotonic_rows_match_the_one_row_reference(self, m):
        rng = np.random.default_rng(m)
        rows = np.vstack([
            rng.normal(size=(200, m)),
            rng.integers(0, 4, size=(100, m)) / 4.0,          # ties
            np.sort(rng.random((50, m)), axis=1),              # already nondecreasing
            np.sort(rng.random((50, m)), axis=1)[:, ::-1],     # one block
            np.full((5, m), 0.25),
        ])
        want = np.array([reference_isotonic(r) for r in rows])
        assert_bits_equal(isotonic_fit(rows), want)
        assert_bits_equal(monotone_repair(rows), np.clip(want, 0.0, 1.0))
        for k in (0, 250, 399):
            assert_bits_equal(isotonic_fit(rows[k]), want[k])

    def test_isotonic_keeps_empty_shapes(self):
        assert isotonic_fit(np.empty(0)).shape == (0,)
        assert isotonic_fit(np.empty((3, 0))).shape == (3, 0)
        assert isotonic_fit(np.empty((0, 4))).shape == (0, 4)

    def test_isotonic_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            isotonic_fit(np.ones((2, 2, 2)))
