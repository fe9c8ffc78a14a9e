import numpy as np
import pytest

from fockroof import (
    DegenerateStateError,
    FockDiagonalState,
    PhaseLabel,
    classify,
    classify_many,
    classify_rank3,
    classify_rank4,
    estimate_nonclassicality,
    mean_photon,
    rank2_nonclassicality,
    rank3_lower_pair,
    rank3_triplet,
    rank3_upper_pair,
    rank4_pair,
    rank4_triplet,
    real_alpha,
    simple_bound,
)

from conftest import random_trimmed_state


def state(offset, pops):
    return FockDiagonalState(offset, np.asarray(pops, float))


def upper_boundary_point(n, span):
    """Rank-3 populations on the upper-pair feasibility boundary.

    Parametrized by the total paired population span = p1 + p2; on the
    boundary the invested fraction equals span exactly.
    """
    p2 = (1.0 + n) * span**2 / ((2.0 + n) * (1.0 - span))
    p1 = span - p2
    return np.array([1.0 - span, p1, p2])


def lower_boundary_point(n, remainder):
    """Rank-3 populations on the lower-pair feasibility boundary.

    Parametrized by the population outside the top level, remainder = 1 - p2.
    """
    r = remainder
    p1 = r * ((3.0 + 2.0 * n) * r - (1.0 + n)) / ((1.0 + n) * (r - 1.0))
    return np.array([r - p1, p1, 1.0 - r])


class TestRank3Triplet:
    def test_boundary_state(self):
        assert rank3_triplet(state(0, [0.5, 0.25, 0.25])) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_corners(self):
        assert rank3_triplet(state(0, [1.0, 0.0, 0.0])) == pytest.approx(0.0)
        assert rank3_triplet(state(0, [0.0, 0.0, 1.0])) == pytest.approx(2.0)

    def test_equals_simple_bound(self, rng):
        for _ in range(50):
            s = random_trimmed_state(rng, max_rank=3)
            if s.rank != 3:
                continue
            assert rank3_triplet(s) == pytest.approx(simple_bound(s), abs=1e-12)


class TestRank3UpperPair:
    def test_worked_example(self):
        result = rank3_upper_pair(state(0, [0.6, 0.2, 0.2]))
        assert result.fraction == pytest.approx(0.5, abs=1e-12)
        assert result.feasible
        assert result.value == pytest.approx(0.2, abs=1e-12)

    def test_boundary_coincides_with_triplet(self):
        s = state(0, [0.5, 0.25, 0.25])
        result = rank3_upper_pair(s)
        assert result.fraction == pytest.approx(0.5, abs=1e-12)
        assert result.feasible  # boundary counts as feasible
        assert result.value == pytest.approx(rank3_triplet(s), abs=1e-10)

    def test_pure_top_fock_is_infeasible(self):
        result = rank3_upper_pair(state(0, [0.0, 0.0, 1.0]))
        assert result.fraction == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert not result.feasible

    def test_degenerate_error(self):
        with pytest.raises(DegenerateStateError):
            rank3_upper_pair(state(0, [1.0, 0.0, 0.0]))


class TestRank3LowerPair:
    def test_worked_example(self):
        result = rank3_lower_pair(state(0, [0.1, 0.1, 0.8]))
        assert result.fraction == pytest.approx(0.2, abs=1e-12)
        assert result.feasible  # 1 - p2 = 0.2 = g, boundary

    def test_feasibility_threshold_at_zero_middle(self):
        # with p1 = 0 the phase opens at p2 = (2+n)/(3+2n)
        for n in (0, 1):
            threshold = (2.0 + n) / (3.0 + 2.0 * n)
            above = state(n, [1.0 - threshold - 1e-6, 0.0, threshold + 1e-6])
            below = state(n, [1.0 - threshold + 1e-6, 0.0, threshold - 1e-6])
            assert rank3_lower_pair(above).feasible
            assert not rank3_lower_pair(below).feasible

    def test_degenerate_error(self):
        with pytest.raises(DegenerateStateError):
            rank3_lower_pair(state(0, [0.0, 0.0, 1.0]))


class TestClassifyRank3:
    def test_upper_pair_region(self):
        result = classify_rank3(state(0, [0.6, 0.2, 0.2]))
        assert result.label is PhaseLabel.UPPER_PAIR
        assert result.value == pytest.approx(0.2, abs=1e-12)
        assert result.params["f"] == pytest.approx(0.5, abs=1e-12)
        assert not result.upper_bound_only

    def test_deep_triplet_interior(self):
        s = state(0, [0.2, 0.4, 0.4])
        assert not rank3_upper_pair(s).feasible
        assert not rank3_lower_pair(s).feasible
        result = classify_rank3(s)
        assert result.label is PhaseLabel.TRIPLET

    def test_lower_pair_region(self):
        result = classify_rank3(state(0, [0.05, 0.05, 0.9]))
        assert result.label is PhaseLabel.LOWER_PAIR

    def test_corner_values(self):
        assert classify_rank3(state(0, [1.0, 0.0, 0.0])).value == pytest.approx(0.0)
        assert classify_rank3(state(0, [0.0, 1.0, 0.0])).value == pytest.approx(1.0)
        assert classify_rank3(state(0, [0.0, 0.0, 1.0])).value == pytest.approx(2.0)

    def test_boundary_tie_prefers_triplet(self):
        result = classify_rank3(state(0, [0.5, 0.25, 0.25]))
        assert result.label is PhaseLabel.TRIPLET

    def test_continuity_across_boundaries(self):
        # march straight through the upper-pair boundary and across the
        # lower-pair boundary; values move smoothly even as labels switch
        for path in (
            [state(0, [1 - 0.2 - p2, 0.2, p2]) for p2 in np.arange(0.05, 0.75, 1e-3)],
            [state(0, [0.3 - p1, p1, 0.7]) for p1 in np.arange(1e-3, 0.299, 1e-3)],
        ):
            values = np.array([classify_rank3(s).value for s in path])
            assert np.abs(np.diff(values)).max() <= 1e-2

    def test_value_between_lp_and_simple_bound(self, rng):
        for _ in range(12):
            s = random_trimmed_state(rng, max_rank=3)
            if s.rank != 3:
                continue
            result = classify_rank3(s)
            assert 0.0 <= result.value <= simple_bound(s) + 1e-12
            lp, _ = estimate_nonclassicality(s, 0.02)
            assert result.value >= lp - 5e-3


class TestBoundaryCoincidence:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_upper_boundary(self, n):
        smax = (2.0 + n) / (3.0 + 2.0 * n)
        for span in np.linspace(0.05, smax, 25):
            s = state(n, upper_boundary_point(n, span))
            up = rank3_upper_pair(s)
            assert up.fraction == pytest.approx(span, abs=1e-10)
            assert up.value == pytest.approx(rank3_triplet(s), abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_lower_boundary(self, n):
        rmax = (1.0 + n) / (3.0 + 2.0 * n)
        for r in np.linspace(0.02, rmax, 25):
            s = state(n, lower_boundary_point(n, r))
            low = rank3_lower_pair(s)
            assert low.fraction == pytest.approx(r, abs=1e-10)
            assert low.value == pytest.approx(rank3_triplet(s), abs=1e-10)


class TestRank4Quartet:
    def test_equal_populations(self):
        value = simple_bound(state(0, [0.25, 0.25, 0.25, 0.25]))
        cross = 0.25 + 0.25 * np.sqrt(2.0) + 0.25 * np.sqrt(3.0)
        assert value == pytest.approx(1.5 - cross**2, abs=1e-12)
        assert value == pytest.approx(0.4255307, abs=1e-7)

    def test_corner_values(self):
        assert simple_bound(state(0, [1.0, 0, 0, 0])) == pytest.approx(0.0)
        assert simple_bound(state(0, [0, 0, 0, 1.0])) == pytest.approx(3.0)


class TestRank4Triplet:
    def test_exception_state_pin(self):
        result = rank4_triplet(state(0, [0.92, 0.06, 0.01, 0.01]), 0)
        assert result.feasible
        assert result.fraction == pytest.approx(0.36, abs=1e-8)
        assert result.value == pytest.approx(0.01625, abs=1e-10)

    def test_reduces_to_upper_pair_on_bottom_face(self, rng):
        # p3 = 0 embeds the three-level window [n, n+2]
        for _ in range(15):
            n = int(rng.integers(0, 3))
            p = rng.dirichlet(np.ones(3))
            p = np.maximum(p, 0.05)
            p /= p.sum()
            four = state(n, [p[0], p[1], p[2], 0.0])
            three = state(n, p)
            t0 = rank4_triplet(four, 0)
            up = rank3_upper_pair(three)
            assert t0.fraction == pytest.approx(up.fraction, abs=1e-9)
            assert t0.value == pytest.approx(up.value, abs=1e-10)
            assert t0.feasible == up.feasible

    def test_reduces_to_lower_pair_on_top_face(self, rng):
        # p0 = 0 embeds the three-level window [n+1, n+3]
        for _ in range(15):
            n = int(rng.integers(0, 3))
            p = rng.dirichlet(np.ones(3))
            p = np.maximum(p, 0.05)
            p /= p.sum()
            four = state(n, [0.0, p[0], p[1], p[2]])
            three = state(n + 1, p)
            t3 = rank4_triplet(four, 3)
            low = rank3_lower_pair(three)
            assert t3.fraction == pytest.approx(low.fraction, abs=1e-9)
            assert t3.value == pytest.approx(low.value, abs=1e-10)
            assert t3.feasible == low.feasible

    def test_degenerate_error(self):
        with pytest.raises(DegenerateStateError):
            rank4_triplet(state(0, [0.0, 1.0, 0.0, 0.0]), 1)

    def test_golden_section_beats_sampling(self, rng):
        for _ in range(8):
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            n = s.offset
            p = s.populations
            for k in range(4):
                result = rank4_triplet(s, k)
                rest = 1.0 - p[k]

                def objective(f):
                    x = np.sqrt(f * p / rest)
                    x[k] = np.sqrt(1.0 - f)
                    return rest / f * real_alpha(x, n) ** 2

                samples = np.linspace(1e-6, 1.0 - 1e-9, 1000)
                best_sample = max(objective(f) for f in samples)
                assert objective(result.fraction) >= best_sample - 1e-12


class TestRank4Pair:
    def test_split_closed_form(self):
        s = state(0, [0.58, 0.05, 0.05, 0.32])
        result = rank4_pair(s)
        n, p1, p2 = 0, 0.05, 0.05
        expected_g = (3.0 + n) * p2 / ((1.0 + n) * p1 + (3.0 + n) * p2)
        assert result.split == pytest.approx(expected_g, abs=1e-12)

    def test_fraction_and_split_ignore_outer_populations(self):
        a = rank4_pair(state(0, [0.58, 0.05, 0.05, 0.32]))
        b = rank4_pair(state(0, [0.70, 0.05, 0.05, 0.20]))
        assert a.fraction == pytest.approx(b.fraction, abs=1e-9)
        assert a.split == pytest.approx(b.split, abs=1e-12)

    def test_beats_triplets_in_pair_region(self):
        s = state(0, [0.54, 0.05, 0.05, 0.36])
        pair = rank4_pair(s)
        assert pair.feasible
        assert pair.value < rank4_triplet(s, 0).value - 1e-9
        assert pair.value < rank4_triplet(s, 3).value - 1e-9
        assert classify_rank4(s).label is PhaseLabel.PAIR21

    def test_middle_only_state_reduces_to_rank2(self):
        # zero outer populations force the pair fraction to one, which is
        # never the maximizer: the phase is infeasible and the quartet value
        # takes over with exactly the two-level closed form
        s = state(0, [0.0, 0.7, 0.3, 0.0])
        assert not rank4_pair(s).feasible
        result = classify_rank4(s)
        assert result.value == pytest.approx(rank2_nonclassicality(1, 0.3), abs=1e-12)

    def test_degenerate_error(self):
        with pytest.raises(DegenerateStateError):
            rank4_pair(state(0, [0.5, 0.0, 0.0, 0.5]))

    def test_golden_section_beats_sampling(self, rng):
        for _ in range(10):
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            n = s.offset
            p0, p1, p2, p3 = s.populations
            sm = p1 + p2
            result = rank4_pair(s)
            g = result.split

            def objective(f):
                x = np.array(
                    [
                        np.sqrt((1 - f) * (1 - g)),
                        np.sqrt(f * p1 / sm),
                        np.sqrt(f * p2 / sm),
                        np.sqrt((1 - f) * g),
                    ]
                )
                return sm / f * real_alpha(x, n) ** 2

            samples = np.linspace(1e-6, 1.0 - 1e-9, 1000)
            best_sample = max(objective(f) for f in samples)
            assert objective(result.fraction) >= best_sample - 1e-12


class TestClassifyRank4:
    def test_exception_state_triplet0(self):
        result = classify_rank4(state(0, [0.92, 0.06, 0.01, 0.01]))
        assert result.label is PhaseLabel.TRIPLET0
        assert result.value == pytest.approx(0.01625, abs=1e-10)
        assert result.upper_bound_only

    def test_exception_state_quartet(self):
        result = classify_rank4(state(0, [0.83, 0.15, 0.01, 0.01]))
        assert result.label is PhaseLabel.QUARTET
        assert result.value == pytest.approx(0.0194274, abs=1e-7)
        assert result.upper_bound_only

    def test_pyramid_vertices(self):
        for k, expected in enumerate([0.0, 1.0, 2.0, 3.0]):
            pops = np.zeros(4)
            pops[k] = 1.0
            result = classify_rank4(state(0, pops))
            assert result.value == pytest.approx(expected, abs=1e-12)

    def test_values_sandwiched(self, rng):
        for _ in range(8):
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            result = classify_rank4(s)
            assert 0.0 <= result.value <= simple_bound(s) + 1e-12
            lp, _ = estimate_nonclassicality(s, 0.02)
            assert result.value >= lp - 5e-3

    def test_dispatch(self):
        assert classify(state(0, [0.6, 0.2, 0.2])).label is PhaseLabel.UPPER_PAIR
        with pytest.raises(ValueError, match="rank"):
            classify(state(0, [0.5, 0.5]))


def link_sums(amplitudes, offset):
    """(A, B) of a fraction family whose coherence is f*A + sqrt(f(1-f))*B.

    Read off the family's own amplitude vectors: <a> is A at f = 1 and
    (A + B)/2 at f = 1/2.
    """
    a = real_alpha(amplitudes(1.0), offset)
    b = 2.0 * real_alpha(amplitudes(0.5), offset) - a
    return a, b


class TestFractionClosedForms:
    """Every fraction objective is s*(A*sqrt(f) + B*sqrt(1-f))²: the fraction
    is A²/(A²+B²) and the value mean_photon - s*(A²+B²)."""

    def test_triplet_fraction_and_value(self, rng):
        checked = 0
        while checked < 40:
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            checked += 1
            p = s.populations
            for k in range(4):
                rest = 1.0 - p[k]

                def amplitudes(f):
                    x = np.sqrt(f * p / rest)
                    x[k] = np.sqrt(1.0 - f)
                    return x

                a, b = link_sums(amplitudes, s.offset)
                result = rank4_triplet(s, k)
                assert result.fraction == pytest.approx(a * a / (a * a + b * b), abs=1e-12)
                expected = mean_photon(s) - rest * (a * a + b * b)
                assert result.value == pytest.approx(expected, abs=1e-12)

    def test_pair_fraction_and_value(self, rng):
        checked = 0
        while checked < 40:
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            checked += 1
            n = s.offset
            p0, p1, p2, p3 = s.populations
            sm = p1 + p2
            g = (3.0 + n) * p2 / ((1.0 + n) * p1 + (3.0 + n) * p2)

            def amplitudes(f):
                return np.array(
                    [
                        np.sqrt((1 - f) * (1 - g)),
                        np.sqrt(f * p1 / sm),
                        np.sqrt(f * p2 / sm),
                        np.sqrt((1 - f) * g),
                    ]
                )

            a, b = link_sums(amplitudes, n)
            result = rank4_pair(s)
            assert result.fraction == pytest.approx(a * a / (a * a + b * b), abs=1e-12)
            expected = mean_photon(s) - sm * (a * a + b * b)
            assert result.value == pytest.approx(expected, abs=1e-12)

    def test_vanishing_coherence_keeps_quartet(self):
        # outer levels only: every triplet link vanishes (A = B = 0), the
        # objective is zero for every f and the fraction is pinned to one
        s = state(0, [0.5, 0.0, 0.0, 0.5])
        for k in (0, 3):
            result = rank4_triplet(s, k)
            assert result.fraction == 1.0
            assert result.feasible
            assert result.value == pytest.approx(1.5, abs=1e-12)
        best = classify_rank4(s)
        assert best.label is PhaseLabel.QUARTET
        assert best.value == pytest.approx(1.5, abs=1e-12)


class TestClassifyMany:
    """The array kernels score a stack of states exactly as one-row calls do."""

    @pytest.mark.parametrize(
        "rank, rows",
        [
            (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0, 0.5], [0.6, 0.2, 0.2]]),
            (
                4,
                [
                    [1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 1],
                    [0.5, 0, 0, 0.5],
                    [0.92, 0.06, 0.01, 0.01],
                ],
            ),
        ],
    )
    def test_vertices_and_degenerate_rows(self, rank, rows):
        pops = np.asarray(rows, float)
        labels, values = classify_many(1, pops)
        for row, label, value in zip(pops, labels, values):
            expected = classify(state(1, row))
            assert label is expected.label
            assert value == expected.value

    def test_degenerate_rows_raise_in_one_row_calls(self):
        with pytest.raises(DegenerateStateError, match="p1 \\+ p2 > 0"):
            rank3_upper_pair(state(0, [1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateStateError, match="p2 < 1"):
            rank3_lower_pair(state(0, [0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateStateError, match="p1 \\+ p2 > 0"):
            rank4_pair(state(0, [0.5, 0.0, 0.0, 0.5]))
        for k in range(4):
            pops = np.zeros(4)
            pops[k] = 1.0
            with pytest.raises(DegenerateStateError, match=f"triplet-{k}"):
                rank4_triplet(state(0, pops), k)

    def test_random_stack_matches_one_row_calls(self, rng):
        for rank in (3, 4):
            pops = rng.dirichlet(np.ones(rank), size=200)
            pops[:, 0] = 1.0 - pops[:, 1:].sum(axis=1)
            pops = pops[pops[:, 0] >= 0.0]
            labels, values = classify_many(2, pops)
            for row, label, value in zip(pops, labels, values):
                expected = classify(state(2, row))
                assert (label, value) == (expected.label, expected.value)

    def test_rank_without_catalogue(self):
        with pytest.raises(ValueError, match="rank 5"):
            classify_many(0, np.full((2, 5), 0.2))
