import math
import tracemalloc
from fractions import Fraction
from itertools import product
from math import isqrt

import numpy as np
import pytest

from fockroof import (
    GridCapacityError,
    GridResolutionWarning,
    build_grid,
    count_grid_points,
    refine,
    truncated_thermal,
)
from fockroof import grid as grid_module
from fockroof import roof, simplex
from fockroof.grid import DEFAULT_MAX_POINTS, AmplitudeGrid, neighborhood_grid


def brute_force_lattice(rank, delta):
    """Reference enumeration by scanning the full integer box."""
    top = int(np.floor((1.0 + 1e-12) / delta)) + 1
    limit = int((1.0 + 1e-12) / (delta * delta) + 1e-9)
    pts = [
        ls
        for ls in product(range(top + 1), repeat=rank - 1)
        if sum(l * l for l in ls) <= limit
    ]
    return sorted(pts)


def recursive_lattice(budget, dims):
    """The lattice as it was first enumerated: one recursive call per
    leading coordinate value, blocks stacked in order."""
    if dims == 1:
        return np.arange(isqrt(budget) + 1, dtype=np.int32)[:, None]
    blocks = []
    for l in range(isqrt(budget) + 1):
        sub = recursive_lattice(budget - l * l, dims - 1)
        lead = np.full((sub.shape[0], 1), l, dtype=np.int32)
        blocks.append(np.hstack([lead, sub]))
    return np.vstack(blocks)


def amplitudes_of(grid):
    """Every point's amplitude vector (x0, l_1*delta, ...), one per column."""
    return grid.amplitudes(np.arange(grid.n_points))


def lattice_of(grid):
    """The integer rows a grid was built from."""
    return np.rint(amplitudes_of(grid)[1:].T / grid.delta).astype(np.int32)


def radius_sq(delta):
    return int((1.0 + 1e-12) / (delta * delta) + 1e-9)


def reference_count(rank, delta):
    """Lattice points by an int64 convolution: ``ways[j]`` points of sum of
    squares exactly j, one coordinate at a time."""
    limit = radius_sq(delta)
    squares = np.arange(isqrt(limit) + 1, dtype=np.int64) ** 2
    ways = np.zeros(limit + 1, dtype=np.int64)
    ways[squares] = 1
    for _ in range(rank - 2):
        acc = np.zeros_like(ways)
        for sq in squares:
            acc[sq:] += ways[: limit + 1 - sq]
        ways = acc
    return int(ways.sum())


def reference_neighborhood(delta, centers, center_delta, radius):
    """Every box point by itertools, deduplicated with np.unique(axis=0)."""
    limit = radius_sq(delta)
    steps = int(round(radius / delta))
    rows = []
    for center in centers:
        mids = [int(round(c * center_delta / delta)) for c in center]
        ranges = [range(max(0, m - steps), m + steps + 1) for m in mids]
        rows += [p for p in product(*ranges) if sum(l * l for l in p) <= limit]
    return np.unique(np.array(rows, dtype=np.int64), axis=0)


class TestCounts:
    def test_rank2_half_spacing(self):
        grid = build_grid(2, 0.5)
        assert grid.n_points == 3
        np.testing.assert_allclose(
            amplitudes_of(grid)[1:].T.ravel(), [0.0, 0.5, 1.0], atol=1e-15
        )

    def test_rank3_half_spacing(self):
        grid = build_grid(3, 0.5)
        assert grid.n_points == 6
        expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        assert sorted(map(tuple, lattice_of(grid).tolist())) == expected

    def test_rank2_percent_spacing_keeps_endpoint(self):
        grid = build_grid(2, 0.01)
        assert grid.n_points == 101
        assert amplitudes_of(grid)[1:].T[-1, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rank,delta", [(2, 0.07), (3, 0.11), (4, 0.26)])
    def test_matches_brute_force(self, rank, delta):
        grid = build_grid(rank, delta)
        expected = brute_force_lattice(rank, delta)
        assert grid.n_points == len(expected)
        assert sorted(map(tuple, lattice_of(grid).tolist())) == expected

    @pytest.mark.parametrize("delta", [0.3, 0.05, 0.01])
    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_matches_recursive_enumeration(self, rank, delta):
        count = count_grid_points(rank, delta)
        if count > DEFAULT_MAX_POINTS:
            with pytest.raises(GridCapacityError) as err:
                build_grid(rank, delta)
            assert err.value.requested == count
            return
        grid = build_grid(rank, delta)
        expected = recursive_lattice(radius_sq(delta), rank - 1)
        assert grid.n_points == count
        np.testing.assert_array_equal(amplitudes_of(grid)[1:].T, expected * delta)
        np.testing.assert_array_equal(lattice_of(grid), expected)

    def test_count_without_materializing(self):
        for rank, delta in [(2, 0.03), (3, 0.05), (4, 0.1), (5, 0.2)]:
            assert count_grid_points(rank, delta) == build_grid(rank, delta).n_points

    @pytest.mark.parametrize("rank,count", [(2, 1001), (3, 786388), (4, 524_776_511)])
    def test_fine_spacing_pins(self, rank, count):
        # a radius range of 10^6 squared units, counted without building
        assert count_grid_points(rank, 0.001) == count
        if count > DEFAULT_MAX_POINTS:
            with pytest.raises(GridCapacityError) as err:
                build_grid(rank, 0.001)
            assert err.value.requested == count

    @pytest.mark.parametrize("rank", [5, 6, 7])
    @pytest.mark.parametrize("delta", [0.05, 0.003])
    def test_high_ranks_match_an_int64_count(self, rank, delta):
        # the coordinates are uint8 at 0.05, where l_1² reaches 400, and
        # uint16 at 0.003
        assert count_grid_points(rank, delta) == reference_count(rank, delta)

    def test_paper_scale_pin(self):
        # the published rank-4 instance: 537052 columns at spacing 0.00999
        assert count_grid_points(4, 0.00999) == 537052

    def test_nearby_spacing_differs(self):
        # spacing 0.0099 genuinely yields a different lattice (see notes)
        assert count_grid_points(4, 0.0099) == 551639


class TestGridGeometry:
    def test_lexicographic_order(self):
        grid = build_grid(3, 0.3)
        laced = list(map(tuple, lattice_of(grid).tolist()))
        assert laced == sorted(laced)

    def test_points_satisfy_ball_and_normalization(self):
        grid = build_grid(4, 0.17)
        sq = np.sum(amplitudes_of(grid)[1:].T**2, axis=1)
        assert np.all(sq <= 1.0 + 1e-12)
        total = amplitudes_of(grid)[0]**2 + sq
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_point_view(self):
        grid = build_grid(2, 0.5)
        assert grid.n_points == 3
        assert amplitudes_of(grid)[1:].T.tolist() == [[0.0], [0.5], [1.0]]
        assert amplitudes_of(grid)[0][0] == pytest.approx(1.0)
        assert amplitudes_of(grid)[0][2] == pytest.approx(0.0)
        # the LP's row matrix, read-only, and nothing else but its pricing
        # caches: rank 2 is one run with the implicit ones row and no
        # prefix, and one code per point into the table of squares
        assert sorted(vars(grid)) == [
            "_last", "_spans", "codes", "delta", "rank", "run_codes", "squares", "starts"
        ]
        for arr in (grid.starts, grid.run_codes, grid.codes, grid.squares):
            assert arr.flags.c_contiguous
            assert not arr.flags.writeable
        assert grid.shape == (2, 3)
        assert grid.run_codes.shape == (0, 1)
        assert grid.starts.tolist() == [0]
        assert grid.codes.dtype == np.uint8
        assert grid.codes.tolist() == [0, 1, 2]
        assert grid.squares.tolist() == [0.0, 0.25, 1.0]
        assert grid.steps([0, 2]).tolist() == [[0, 2]]
        np.testing.assert_array_equal(grid.columns(np.arange(3)), [[1.0] * 3, [0.0, 0.25, 1.0]])

    @pytest.mark.parametrize("block", [512, 2 * simplex._PRICING_BLOCK])
    def test_pricing_caches_follow_the_solver_block(self, block, monkeypatch):
        # a pricing block keeps its span whatever the solver's width
        grid = build_grid(4, 0.02)
        assert grid.n_points > 2 * block
        monkeypatch.setattr(simplex, "_PRICING_BLOCK", block)
        y = np.arange(1.0, 5.0)
        grid.dot(y, block, 2 * block)
        assert list(grid._spans) == [(block, 2 * block)]

    @pytest.mark.parametrize("delta", [0.0, 1.0, math.inf, math.nan])
    def test_rejects_a_spacing_outside_the_unit_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            AmplitudeGrid(2, delta, [], 0, np.array([3]))

    def test_rejects_a_non_integer_column(self):
        # an integer column times a spacing in (0, 1) has a finite square
        with pytest.raises(ValueError, match="integer"):
            AmplitudeGrid(3, 0.5, [np.array([0.0, np.nan])], 0, np.array([2, 1]))
        with pytest.raises(ValueError, match="integer"):
            AmplitudeGrid(2, 0.5, [], np.array([0.5]), np.array([2]))

    def test_objective_coeff_binding(self):
        grid = build_grid(3, 0.5)
        idx = [tuple(l) for l in lattice_of(grid).tolist()].index((1, 1))
        assert grid.objective_coeffs(0)[idx] == pytest.approx(0.5, abs=1e-12)

    def test_objective_coeffs_vectorized(self):
        grid = build_grid(3, 0.25)
        coeffs = grid.objective_coeffs(1)
        for i in (0, 5, grid.n_points - 1):
            x0, (x1, x2) = amplitudes_of(grid)[0][i], amplitudes_of(grid)[1:].T[i]
            alpha = x0 * x1 * np.sqrt(2.0) + x1 * x2 * np.sqrt(3.0)
            assert coeffs[i] == pytest.approx(alpha**2, abs=1e-14)


class TestRuns:
    @pytest.mark.parametrize("dtype,top", [(np.uint8, 255), (np.uint16, 500)])
    def test_narrow_runs_equal_the_int64_runs(self, dtype, top):
        # first values fall from one run to the next, as in a neighbourhood,
        # so the narrow jumps wrap; top 500 is isqrt(L) at delta = 0.002
        rng = np.random.default_rng(7)
        first = rng.integers(0, top + 1, size=300)
        counts = rng.integers(1, top + 2 - first)
        assert np.any(first[1:] < first[:-1])
        assert (first + counts - 1).max() <= top
        runs = grid_module._runs(first, counts, dtype=dtype)
        assert runs.dtype == dtype
        np.testing.assert_array_equal(runs, grid_module._runs(first, counts))

    def test_codes_outside_the_table_are_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            AmplitudeGrid(2, 0.5, [], 1, np.array([3]))
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            AmplitudeGrid(3, 0.5, [np.array([0, 1])], np.array([0, -1]), np.array([2, 2]))
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            AmplitudeGrid(3, 0.5, [np.array([0, 3])], np.array([0, 0]), np.array([2, 2]))
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            AmplitudeGrid(3, 0.5, [np.array([0, -1])], 0, np.array([2, 2]))

    @pytest.mark.parametrize(
        "dtype,delta,top", [(np.uint8, 1 / 255.5, 255), (np.uint16, 0.002, 500)]
    )
    def test_narrow_coordinates_are_checked_without_wrapping(self, dtype, delta, top):
        # a run's last coordinate, first + count - 1, is past the table even
        # where first + count wraps in the coordinates' own dtype
        limit = np.iinfo(dtype).max
        assert isqrt(radius_sq(delta)) == top
        for first, count in ((limit - 5, 10), (top - 5, 7)):
            with pytest.raises(ValueError, match=rf"\[0, {top}\]"):
                AmplitudeGrid(2, delta, [], np.array([first], dtype), np.array([count], dtype))
            with pytest.raises(ValueError, match=rf"\[0, {top}\]"):
                AmplitudeGrid(
                    3, delta, [np.array([0, 1], dtype)],
                    np.array([0, first], dtype), np.array([2, count], dtype),
                )
        with pytest.raises(ValueError, match=rf"\[0, {top}\]"):
            AmplitudeGrid(3, delta, [np.array([top + 1], np.uint16)], 0, np.array([1], dtype))
        # the last run that fits ends at the table's last entry
        grid = AmplitudeGrid(
            3, delta, [np.array([0, top], dtype)], np.array([0, top - 5], dtype),
            np.array([2, 6], dtype),
        )
        assert grid.codes.tolist() == [0, 1, *range(top - 5, top + 1)]
        assert grid.run_codes.tolist() == [[0, top]]
        assert grid.codes.dtype == grid.run_codes.dtype == dtype


def stored_amplitudes(lattice, delta):
    """Amplitude vectors as a grid once stored them: l*delta, and x0 from
    their squares summed left to right from zero."""
    free = lattice.T * delta
    norm_sq = np.zeros(free.shape[1])
    for x in free:
        norm_sq += x * x
    return np.vstack([np.sqrt(np.clip(1.0 - norm_sq, 0.0, None)), free])


def stored_objective(amplitudes, offset):
    """The squared coherence kernel as it was computed from stored amplitudes."""
    x = amplitudes
    alpha = np.zeros(x.shape[1])
    for k in range(x.shape[0] - 1):
        alpha += x[k] * x[k + 1] * np.sqrt(offset + k + 1.0)
    return alpha**2


EXACT_CASES = [
    (rank, delta)
    for rank in range(2, 8)
    for delta in (0.5, 0.3, 0.1, 0.05, 0.02, 0.00999)
    if count_grid_points(rank, delta) <= DEFAULT_MAX_POINTS
]


class TestExactness:
    """A grid keeps only the squares; what is recomputed from them is the
    same bits as what was computed from the amplitudes."""

    @pytest.mark.parametrize("rank,delta", EXACT_CASES)
    def test_amplitudes_and_objective_are_the_stored_bits(self, rank, delta):
        grid = build_grid(rank, delta)
        lattice = recursive_lattice(radius_sq(delta), rank - 1)
        objectives = {n: grid.objective_coeffs(n) for n in (0, 3)}
        for lo in range(0, grid.n_points, 1 << 18):
            cols = np.arange(lo, min(lo + (1 << 18), grid.n_points))
            expected = stored_amplitudes(lattice[cols], delta)
            np.testing.assert_array_equal(grid.amplitudes(cols), expected)
            for n, objective in objectives.items():
                np.testing.assert_array_equal(
                    objective[cols], stored_objective(expected, n)
                )


def traced_peak(call):
    """(result, peak traced bytes) of one call."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # traced peaks were 0.0455 and 0.0832 of the dense matrix's bytes
    BUILD_PEAK = {(4, 0.00999): 0.054, (6, 0.05): 0.099}

    @pytest.mark.parametrize("rank,delta", [(4, 0.00999), (6, 0.05)])
    def test_build_holds_one_coordinate_beside_the_rows(self, rank, delta):
        # every coordinate is a one-byte code, and the enumeration holds
        # narrow arrays: bounded by a fraction of the dense (M, N) matrix's
        # bytes
        grid, peak = traced_peak(lambda: build_grid(rank, delta))
        assert peak <= self.BUILD_PEAK[rank, delta] * 8 * rank * grid.n_points

    def test_refinement_peak(self):
        full = 8 * 6 * build_grid(6, 0.05).n_points  # the dense row matrix
        assert full == 8 * 6 * 662_629
        with pytest.warns(GridResolutionWarning):
            _, peak = traced_peak(lambda: refine(truncated_thermal(0.5, 6), 0.05, 3))
        # one grid at a time: the previous level's grid is freed before the
        # next is built; the traced peak was 0.2423 of the dense matrix
        assert peak <= 0.28 * full


class TestCapacity:
    def test_capacity_error(self, monkeypatch):
        # the 101 squares of delta = 0.01 fit the budget, its 7,900 points not
        monkeypatch.setattr(grid_module, "DEFAULT_MAX_POINTS", 1000)
        with pytest.raises(GridCapacityError) as err:
            build_grid(3, 0.01)
        assert err.value.requested == count_grid_points(3, 0.01)
        assert err.value.budget == 1000

    def test_fine_rank3_spacing_rejected_before_allocating(self):
        # an exact count at rank 3 reads one budget per first coordinate,
        # never a table of the L + 1 = 10^8 + 1 budgets
        _, peak = traced_peak(lambda: pytest.raises(GridCapacityError, build_grid, 3, 1e-4))
        assert peak < 2**20

    def test_fine_spacing_rejected_before_allocating(self):
        # an exact rank-4 count at delta = 1e-4 would hold arrays of 10^8 + 1
        # int64 entries
        tracemalloc.start()
        try:
            with pytest.raises(GridCapacityError, match="at least") as err:
                build_grid(4, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # an eighth of the volume of the 3-ball of radius sqrt(L)
        limit = radius_sq(1e-4)
        assert err.value.requested == pytest.approx(math.pi / 6 * limit**1.5, rel=1e-8)

    @pytest.mark.parametrize("rank", [4, 5, 6, 7])
    @pytest.mark.parametrize("delta", [0.3, 0.11, 0.05])
    def test_volume_bound_is_a_lower_bound(self, rank, delta, monkeypatch):
        # a budget that the table of squares just fits
        monkeypatch.setattr(grid_module, "DEFAULT_MAX_POINTS", isqrt(radius_sq(delta)) + 1)
        with pytest.raises(GridCapacityError, match="at least") as err:
            build_grid(rank, delta)
        assert isqrt(radius_sq(delta)) + 1 < err.value.requested
        assert err.value.requested <= count_grid_points(rank, delta)

    def test_fine_table_of_squares_rejected_before_allocating(self):
        # a count at rank 3 and delta = 1e-9 would start from one run of
        # 10^9 + 1 first coordinates
        err, peak = traced_peak(lambda: pytest.raises(GridCapacityError, build_grid, 3, 1e-9))
        assert peak < 2**20
        err.match("at least")
        assert 10**9 - 1 <= err.value.requested <= 10**9 + 1

    @pytest.mark.parametrize("delta", [1e-300, 1e-160, 1e-150, 5e-324])
    def test_spacing_finer_than_the_budget_is_refused(self, delta):
        # floor(1/delta) + 1 squares, a lower bound on every lattice, decided
        # before L = 1/delta^2 underflows, overflows or outgrows numpy's
        # integer types
        with pytest.raises(GridCapacityError, match="at least") as err:
            count_grid_points(2, delta)
        assert err.value.requested == int(1 / Fraction(delta)) + 1
        for rank in (2, 3, 4):
            with pytest.raises(GridCapacityError, match="at least"):
                build_grid(rank, delta)

    def test_table_of_squares_is_checked_exactly(self, monkeypatch):
        # floor(1/0.01) = 99 < 100, but the slack keeps the endpoint: 101
        # squares against a budget of 100
        monkeypatch.setattr(grid_module, "DEFAULT_MAX_POINTS", 100)
        with pytest.raises(GridCapacityError) as err:
            count_grid_points(2, 0.01)
        assert err.value.requested == 101
        monkeypatch.setattr(grid_module, "DEFAULT_MAX_POINTS", 101)
        assert count_grid_points(2, 0.01) == 101

    def test_fine_neighbourhood_is_refused(self):
        # a neighbourhood of a few points would still hold the spacing's
        # whole table of squares, 10^7 + 1 at delta = 1e-7
        with pytest.raises(GridCapacityError, match="at least"):
            neighborhood_grid(2, 1e-7, np.array([[0.5]]), radius=1e-6)
        with pytest.raises(GridCapacityError, match="at least"):
            neighborhood_grid(3, 1e-300, np.array([[0.5, 0.5]]), radius=1e-299)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_grid(1, 0.1)
        with pytest.raises(ValueError):
            build_grid(3, 0.0)
        with pytest.raises(ValueError):
            build_grid(3, 1.0)


class TestNeighborhood:
    def test_centers_are_kept_and_ball_respected(self):
        coarse = build_grid(3, 0.1)
        centers = lattice_of(coarse)[[0, 10, coarse.n_points - 1]]
        fine = neighborhood_grid(3, 0.05, centers * 0.1, radius=0.2)
        fine_set = {tuple(l) for l in lattice_of(fine).tolist()}
        for c in centers:
            assert (2 * c[0], 2 * c[1]) in fine_set
        sq = np.sum(amplitudes_of(fine)[1:].T**2, axis=1)
        assert np.all(sq <= 1.0 + 1e-12)
        # every point is within the per-coordinate radius of some center
        dist = np.abs(
            lattice_of(fine)[:, None, :] * 0.05 - centers[None, :, :] * 0.1
        ).max(axis=2)
        assert np.all(dist.min(axis=1) <= 0.2 + 1e-12)

    def test_sorted_and_unique(self):
        coarse = build_grid(2, 0.2)
        fine = neighborhood_grid(2, 0.1, amplitudes_of(coarse)[1:].T, radius=0.4)
        rows = list(map(tuple, lattice_of(fine).tolist()))
        assert rows == sorted(set(rows))

    @pytest.mark.parametrize(
        "rank,delta,center_delta,picks",
        [
            (3, 0.05, 0.1, [0, 10, -1]),
            (4, 0.05, 0.1, [3, 40, 41, 200, -1]),
            (6, 0.025, 0.05, [0, 1000, 333333, -1]),
        ],
    )
    def test_matches_unique_rows(self, rank, delta, center_delta, picks):
        coarse = build_grid(rank, center_delta)
        centers = lattice_of(coarse)[picks]
        radius = 2.0 * center_delta
        fine = neighborhood_grid(rank, delta, centers * center_delta, radius)
        expected = reference_neighborhood(delta, centers, center_delta, radius)
        np.testing.assert_array_equal(lattice_of(fine), expected)

    def test_matches_unique_rows_past_int64_key(self):
        # 2001 values per coordinate: a 6-digit key in that radix overflows int64
        delta, center_delta = 5e-4, 1e-3
        assert (isqrt(radius_sq(delta)) + 1) ** 6 > np.iinfo(np.int64).max
        centers = np.array([[100, 200, 0, 50, 300, 10]])
        fine = neighborhood_grid(7, delta, centers * center_delta, radius=center_delta)
        expected = reference_neighborhood(delta, centers, center_delta, center_delta)
        assert fine.n_points == 5**5 * 3
        np.testing.assert_array_equal(lattice_of(fine), expected)

    def test_refinement_centers_are_support_amplitudes(self, monkeypatch):
        # refine passes the float support rows of the previous level; each
        # is l * (2 * delta) for integers l, and rounds back to exactly 2l
        calls = []
        real = roof.neighborhood_grid

        def recorded(rank, delta, centers, radius):
            grid = real(rank, delta, centers, radius)
            calls.append((delta, centers, radius, grid))
            return grid

        monkeypatch.setattr(roof, "neighborhood_grid", recorded)
        with pytest.warns(GridResolutionWarning):
            refine(truncated_thermal(0.5, 6), 0.05, 3)
        assert [delta for delta, *_ in calls] == [0.025, 0.0125]
        for delta, centers, radius, grid in calls:
            center_delta = 2.0 * delta
            ints = np.rint(centers / center_delta).astype(np.int64)
            np.testing.assert_array_equal(centers, ints * center_delta)
            expected = reference_neighborhood(delta, ints, center_delta, radius)
            np.testing.assert_array_equal(lattice_of(grid), expected)

    def test_boxes_outside_the_ball(self):
        # the first box lies wholly outside the ball, the second straddles it
        centers = np.array([[1.0, 1.0], [0.7, 0.7]])
        fine = neighborhood_grid(3, 0.1, centers, radius=0.2)
        expected = reference_neighborhood(0.1, np.rint(centers / 0.1), 0.1, 0.2)
        np.testing.assert_array_equal(lattice_of(fine), expected)
        # the first box alone holds no point
        assert neighborhood_grid(3, 0.1, centers[:1], radius=0.2).n_points == 0

    def test_boxes_are_not_materialized_whole(self, monkeypatch):
        # each box is enumerated inside the ball only, so the transient
        # memory of a refinement neighbourhood stays near the grid's own
        calls = []
        real = roof.neighborhood_grid

        def measured(rank, delta, centers, radius):
            tracemalloc.start()
            try:
                grid = real(rank, delta, centers, radius)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            calls.append((delta, centers, radius, grid, peak))
            return grid

        monkeypatch.setattr(roof, "neighborhood_grid", measured)
        with pytest.warns(GridResolutionWarning):
            refine(truncated_thermal(0.5, 6), 0.05, 3)
        assert len(calls) == 2
        for delta, centers, radius, grid, peak in calls:
            assert peak <= 3 * 8 * grid.rank * grid.n_points
            ints = np.rint(centers / (2.0 * delta)).astype(np.int64)
            expected = reference_neighborhood(delta, ints, 2.0 * delta, radius)
            np.testing.assert_array_equal(lattice_of(grid), expected)

    @pytest.mark.parametrize(
        "rank,delta,mids,steps",
        [
            (2, 0.05, [[3], [12]], 2),  # a gap between the boxes
            (2, 0.1, [[10], [4]], 1),  # one box on the ball's edge
            (3, 0.05, [[3, 2], [3, 12]], 2),  # shared prefixes, a gap in l_2
            (3, 0.05, [[3, 2], [3, 7]], 2),  # shared prefixes, touching runs
            (3, 0.05, [[3, 2], [4, 5]], 2),  # overlapping runs
            (3, 0.1, [[6, 8], [10, 0], [0, 10]], 1),  # on the ball's edge
            (4, 0.05, [[2, 3, 1], [2, 3, 9], [3, 4, 5]], 2),
            (4, 0.1, [[0, 6, 8], [2, 4, 4]], 1),
            (5, 0.1, [[1, 1, 1, 1], [1, 1, 1, 6], [5, 5, 5, 5]], 1),
            (5, 0.2, [[2, 2, 2, 2], [0, 0, 0, 5]], 1),
        ],
    )
    def test_matches_brute_force(self, rank, delta, mids, steps):
        mids = np.array(mids)
        fine = neighborhood_grid(rank, delta, mids * delta, radius=steps * delta)
        limit = radius_sq(delta)
        points = [
            p
            for m in mids
            for p in product(*(range(max(0, c - steps), c + steps + 1) for c in m))
            if sum(l * l for l in p) <= limit
        ]
        assert lattice_of(fine).tolist() == [list(p) for p in sorted(set(points))]
        # runs of one prefix that touch or overlap are one run
        ints = lattice_of(fine)
        heads = fine.starts[1:]
        same_prefix = np.all(ints[heads, :-1] == ints[heads - 1, :-1], axis=1)
        assert np.all(ints[heads, -1][same_prefix] > ints[heads - 1, -1][same_prefix] + 1)

    def test_float_centers_past_int64_key(self):
        delta, center_delta = 5e-4, 1e-3
        ls = np.arange(1000)
        assert np.array_equal(np.rint(ls * center_delta / delta), 2 * ls)
        centers = np.array([[999, 0, 0, 0, 0, 0], [3, 998, 1, 0, 2, 0]])
        fine = neighborhood_grid(7, delta, centers * center_delta, radius=center_delta)
        expected = reference_neighborhood(delta, centers, center_delta, center_delta)
        np.testing.assert_array_equal(lattice_of(fine), expected)
