import itertools

import numpy as np
import pytest

from fockroof import (
    Estimate,
    FockDiagonalState,
    PhaseLabel,
    classify,
    classify_many,
    estimate_nonclassicality,
    expand_histogram,
    mean_photon,
    rank2_nonclassicality,
    simple_bound,
)

from conftest import (
    assert_catalogue_supports,
    ensemble_alpha_stats,
    kernel_ansatz,
    random_trimmed_state,
    real_alpha,
    reconstruct_density,
    window_alpha,
)


def state(offset, pops):
    return FockDiagonalState(offset, np.asarray(pops, float))


def triplet3(s):
    """Value of the rank-3 triplet ansatz (the simple bound)."""
    return kernel_ansatz(s, PhaseLabel.TRIPLET).value


def upper_pair(s):
    return kernel_ansatz(s, PhaseLabel.UPPER_PAIR)


def lower_pair(s):
    return kernel_ansatz(s, PhaseLabel.LOWER_PAIR)


def triplet4(s, k):
    """Rank-4 triplet-k ansatz; its fraction is ``fraction(result, k)``."""
    return kernel_ansatz(s, PhaseLabel[f"TRIPLET{k}"])


def pair21(s):
    return kernel_ansatz(s, PhaseLabel.PAIR21)


def fraction(result, k):
    """Fraction invested in the atoms of an ansatz that singles out level k,
    1 - x_k²: k = 0 for the upper pair, 2 for the lower pair, k for triplet-k."""
    return 1.0 - result.atom[k] ** 2


def pair_fraction(result):
    """Pair21's fraction f = x1² + x2²."""
    return result.atom[1] ** 2 + result.atom[2] ** 2


def pair_split(result):
    """Pair21's split g = x3² / (x0² + x3²) of the outer levels."""
    x = result.atom
    return x[3] ** 2 / (x[0] ** 2 + x[3] ** 2)


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
        assert triplet3(state(0, [0.5, 0.25, 0.25])) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_corners(self):
        assert triplet3(state(0, [1.0, 0.0, 0.0])) == pytest.approx(0.0)
        assert triplet3(state(0, [0.0, 0.0, 1.0])) == pytest.approx(2.0)

    def test_equals_simple_bound(self, rng):
        for _ in range(50):
            s = random_trimmed_state(rng, max_rank=3)
            if s.rank != 3:
                continue
            assert triplet3(s) == pytest.approx(simple_bound(s), abs=1e-12)


class TestRank3UpperPair:
    def test_worked_example(self):
        result = upper_pair(state(0, [0.6, 0.2, 0.2]))
        assert fraction(result, 0) == pytest.approx(0.5, abs=1e-12)
        assert result.feasible
        assert result.value == pytest.approx(0.2, abs=1e-12)

    def test_boundary_coincides_with_triplet(self):
        s = state(0, [0.5, 0.25, 0.25])
        result = upper_pair(s)
        assert fraction(result, 0) == pytest.approx(0.5, abs=1e-12)
        assert result.weight == pytest.approx(1.0, abs=1e-12)  # the atoms hold everything
        assert result.feasible  # boundary counts as feasible
        assert result.value == pytest.approx(triplet3(s), abs=1e-10)

    def test_pure_top_fock_is_infeasible(self):
        result = upper_pair(state(0, [0.0, 0.0, 1.0]))
        assert fraction(result, 0) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert not result.feasible


class TestRank3LowerPair:
    def test_worked_example(self):
        result = lower_pair(state(0, [0.1, 0.1, 0.8]))
        assert fraction(result, 2) == pytest.approx(0.2, abs=1e-12)
        assert result.feasible  # 1 - p2 = 0.2 = g, boundary

    def test_feasibility_threshold_at_zero_middle(self):
        # with p1 = 0 the phase opens at p2 = (2+n)/(3+2n)
        for n in (0, 1):
            threshold = (2.0 + n) / (3.0 + 2.0 * n)
            above = state(n, [1.0 - threshold - 1e-6, 0.0, threshold + 1e-6])
            below = state(n, [1.0 - threshold + 1e-6, 0.0, threshold - 1e-6])
            assert lower_pair(above).feasible
            assert not lower_pair(below).feasible


class TestClassifyRank3:
    def test_upper_pair_region(self):
        label, value, weights, amplitudes = classify(state(0, [0.6, 0.2, 0.2]))
        assert label is PhaseLabel.UPPER_PAIR
        assert value == pytest.approx(0.2, abs=1e-12)
        assert 1.0 - amplitudes[0, 0] ** 2 == pytest.approx(0.5, abs=1e-12)
        # 0.8 of the boundary state's atom plus 0.2 of the vacuum
        np.testing.assert_allclose(weights, [0.8, 0.2, 0.0, 0.0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(amplitudes[1:], np.eye(3))

    def test_deep_triplet_interior(self):
        s = state(0, [0.2, 0.4, 0.4])
        assert not upper_pair(s).feasible
        assert not lower_pair(s).feasible
        assert classify(s)[0] is PhaseLabel.TRIPLET

    def test_lower_pair_region(self):
        assert classify(state(0, [0.05, 0.05, 0.9]))[0] is PhaseLabel.LOWER_PAIR

    def test_corner_values(self):
        assert classify(state(0, [1.0, 0.0, 0.0]))[1] == pytest.approx(0.0)
        assert classify(state(0, [0.0, 1.0, 0.0]))[1] == pytest.approx(1.0)
        assert classify(state(0, [0.0, 0.0, 1.0]))[1] == pytest.approx(2.0)

    def test_boundary_tie_prefers_triplet(self):
        assert classify(state(0, [0.5, 0.25, 0.25]))[0] is PhaseLabel.TRIPLET

    def test_continuity_across_boundaries(self):
        # march straight through the upper-pair boundary and across the
        # lower-pair boundary; values move smoothly even as labels switch
        for path in (
            [state(0, [1 - 0.2 - p2, 0.2, p2]) for p2 in np.arange(0.05, 0.75, 1e-3)],
            [state(0, [0.3 - p1, p1, 0.7]) for p1 in np.arange(1e-3, 0.299, 1e-3)],
        ):
            values = np.array([classify(s)[1] for s in path])
            assert np.abs(np.diff(values)).max() <= 1e-2

    def test_value_between_lp_and_simple_bound(self, rng):
        for _ in range(12):
            s = random_trimmed_state(rng, max_rank=3)
            if s.rank != 3:
                continue
            value = classify(s)[1]
            assert 0.0 <= value <= simple_bound(s) + 1e-12
            lp = estimate_nonclassicality(s, 0.02).value
            assert value >= lp - 5e-3


class TestBoundaryCoincidence:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_upper_boundary(self, n):
        smax = (2.0 + n) / (3.0 + 2.0 * n)
        for span in np.linspace(0.05, smax, 25):
            s = state(n, upper_boundary_point(n, span))
            up = upper_pair(s)
            assert fraction(up, 0) == pytest.approx(span, abs=1e-10)
            assert up.value == pytest.approx(triplet3(s), abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_lower_boundary(self, n):
        rmax = (1.0 + n) / (3.0 + 2.0 * n)
        for r in np.linspace(0.02, rmax, 25):
            s = state(n, lower_boundary_point(n, r))
            low = lower_pair(s)
            assert fraction(low, 2) == pytest.approx(r, abs=1e-10)
            assert low.value == pytest.approx(triplet3(s), abs=1e-10)


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
        result = triplet4(state(0, [0.92, 0.06, 0.01, 0.01]), 0)
        assert result.feasible
        assert fraction(result, 0) == pytest.approx(0.36, abs=1e-8)
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
            t0 = triplet4(four, 0)
            up = upper_pair(three)
            assert fraction(t0, 0) == pytest.approx(fraction(up, 0), abs=1e-9)
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
            t3 = triplet4(four, 3)
            low = lower_pair(three)
            assert fraction(t3, 3) == pytest.approx(fraction(low, 2), abs=1e-9)
            assert t3.value == pytest.approx(low.value, abs=1e-10)
            assert t3.feasible == low.feasible

    def test_golden_section_beats_sampling(self, rng):
        for _ in range(8):
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            n = s.offset
            p = s.populations
            for k in range(4):
                f_k = fraction(triplet4(s, k), k)
                rest = 1.0 - p[k]

                def objective(f):
                    x = np.sqrt(f * p / rest)
                    x[k] = np.sqrt(1.0 - f)
                    return rest / f * real_alpha(x, n) ** 2

                samples = np.linspace(1e-6, 1.0 - 1e-9, 1000)
                best_sample = max(objective(f) for f in samples)
                assert objective(f_k) >= best_sample - 1e-12


class TestRank4Pair:
    def test_split_closed_form(self):
        s = state(0, [0.58, 0.05, 0.05, 0.32])
        result = pair21(s)
        n, p1, p2 = 0, 0.05, 0.05
        expected_g = (3.0 + n) * p2 / ((1.0 + n) * p1 + (3.0 + n) * p2)
        assert pair_split(result) == pytest.approx(expected_g, abs=1e-12)

    def test_fraction_and_split_ignore_outer_populations(self):
        a = pair21(state(0, [0.58, 0.05, 0.05, 0.32]))
        b = pair21(state(0, [0.70, 0.05, 0.05, 0.20]))
        assert pair_fraction(a) == pytest.approx(pair_fraction(b), abs=1e-9)
        assert pair_split(a) == pytest.approx(pair_split(b), abs=1e-12)

    def test_beats_triplets_in_pair_region(self):
        s = state(0, [0.54, 0.05, 0.05, 0.36])
        pair = pair21(s)
        assert pair.feasible
        assert pair.value < triplet4(s, 0).value - 1e-9
        assert pair.value < triplet4(s, 3).value - 1e-9
        assert classify(s)[0] is PhaseLabel.PAIR21

    def test_middle_only_state_reduces_to_rank2(self):
        # zero outer populations force the pair fraction to one, which is
        # never the maximizer: the phase is infeasible and the quartet value
        # takes over with exactly the two-level closed form
        s = state(0, [0.0, 0.7, 0.3, 0.0])
        assert not pair21(s).feasible
        assert classify(s)[1] == pytest.approx(rank2_nonclassicality(1, 0.3), abs=1e-12)

    def test_golden_section_beats_sampling(self, rng):
        for _ in range(10):
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            n = s.offset
            p0, p1, p2, p3 = s.populations
            sm = p1 + p2
            result = pair21(s)
            g = pair_split(result)

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
            assert objective(pair_fraction(result)) >= best_sample - 1e-12


class TestClassifyRank4:
    def test_exception_state_triplet0(self):
        label, value, *_ = classify(state(0, [0.92, 0.06, 0.01, 0.01]))
        assert label is PhaseLabel.TRIPLET0
        assert value == pytest.approx(0.01625, abs=1e-10)

    def test_exception_state_quartet(self):
        label, value, *_ = classify(state(0, [0.83, 0.15, 0.01, 0.01]))
        assert label is PhaseLabel.QUARTET
        assert value == pytest.approx(0.0194274, abs=1e-7)

    def test_pyramid_vertices(self):
        for k, expected in enumerate([0.0, 1.0, 2.0, 3.0]):
            pops = np.zeros(4)
            pops[k] = 1.0
            assert classify(state(0, pops))[1] == pytest.approx(expected, abs=1e-12)

    def test_values_sandwiched(self, rng):
        for _ in range(8):
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            value = classify(s)[1]
            assert 0.0 <= value <= simple_bound(s) + 1e-12
            lp = estimate_nonclassicality(s, 0.02).value
            assert value >= lp - 5e-3

    def test_dispatch(self):
        assert classify(state(0, [0.6, 0.2, 0.2]))[0] is PhaseLabel.UPPER_PAIR
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
                result = triplet4(s, k)
                assert fraction(result, k) == pytest.approx(a * a / (a * a + b * b), abs=1e-12)
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
            result = pair21(s)
            assert pair_fraction(result) == pytest.approx(a * a / (a * a + b * b), abs=1e-12)
            expected = mean_photon(s) - sm * (a * a + b * b)
            assert result.value == pytest.approx(expected, abs=1e-12)

    def test_vanishing_coherence_keeps_quartet(self):
        # outer levels only: every triplet link vanishes (A = B = 0), the
        # objective is zero for every f and the fraction is pinned to one
        s = state(0, [0.5, 0.0, 0.0, 0.5])
        for k in (0, 3):
            result = triplet4(s, k)
            assert result.atom[k] == 0.0
            assert result.feasible
            assert result.value == pytest.approx(1.5, abs=1e-12)
        label, value, *_ = classify(s)
        assert label is PhaseLabel.QUARTET
        assert value == pytest.approx(1.5, abs=1e-12)


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
        # with every face of the simplex: each zero pattern, on a step-0.1
        # lattice, where some ansatzes are undefined
        faces = [c for c in itertools.product(range(11), repeat=rank) if sum(c) == 10 and 0 in c]
        pops = np.concatenate([np.asarray(rows, float), np.asarray(faces) / 10.0])
        for n in (0, 1, 2):
            labels, values, weights, amplitudes = classify_many(n, pops)
            for i, (row, label, value) in enumerate(zip(pops, labels, values)):
                expected = classify(state(n, row))
                assert label is expected[0]
                assert value == expected[1]
                np.testing.assert_array_equal(weights[i], expected[2])
                np.testing.assert_array_equal(amplitudes[i], expected[3])
                assert np.isfinite(value)
                assert kernel_ansatz(state(n, row), label).feasible

    def test_degenerate_ansatzes_are_infeasible(self):
        # an ansatz is undefined where its fraction is NaN or the level it
        # singles out holds the whole population; it is infeasible there
        assert not upper_pair(state(0, [1.0, 0.0, 0.0])).feasible
        assert not lower_pair(state(0, [0.0, 0.0, 1.0])).feasible
        assert not pair21(state(0, [0.5, 0.0, 0.0, 0.5])).feasible
        for k in range(4):
            pops = np.zeros(4)
            pops[k] = 1.0
            assert not triplet4(state(0, pops), k).feasible

    def test_random_stack_matches_one_row_calls(self, rng):
        for rank in (3, 4):
            pops = rng.dirichlet(np.ones(rank), size=200)
            pops[:, 0] = 1.0 - pops[:, 1:].sum(axis=1)
            pops = pops[pops[:, 0] >= 0.0]
            labels, values, _, _ = classify_many(2, pops)
            for row, label, value in zip(pops, labels, values):
                assert (label, value) == classify(state(2, row))[:2]

    def test_rank_without_catalogue(self):
        with pytest.raises(ValueError, match="rank 5"):
            classify_many(0, np.full((2, 5), 0.2))


class TestCatalogueSupports:
    """Each winner's decomposition, one coherent atom plus single Fock
    states, reproduces its state and its value."""

    @pytest.mark.parametrize(
        "label, pops",
        [
            (PhaseLabel.TRIPLET, [0.2, 0.4, 0.4]),
            (PhaseLabel.UPPER_PAIR, [0.6, 0.2, 0.2]),
            (PhaseLabel.LOWER_PAIR, [0.05, 0.05, 0.9]),
            (PhaseLabel.QUARTET, [0.83, 0.15, 0.01, 0.01]),
            (PhaseLabel.TRIPLET0, [0.92, 0.06, 0.01, 0.01]),
            (PhaseLabel.TRIPLET1, [0.02, 0.77, 0.09, 0.12]),
            (PhaseLabel.TRIPLET2, [0.05, 0.02, 0.92, 0.01]),
            (PhaseLabel.TRIPLET3, [0.11, 0.25, 0.06, 0.58]),
            (PhaseLabel.PAIR21, [0.54, 0.05, 0.05, 0.36]),
        ],
    )
    def test_ensembles_rebuild_the_state(self, label, pops):
        s = state(0, pops)
        winner, value, weights, amplitudes = classify(s)
        assert winner is label
        # the catalogue has no lattice: delta is 0
        decomposition = expand_histogram(s, Estimate(value, 0.0, amplitudes, weights))
        np.testing.assert_allclose(
            reconstruct_density(decomposition), np.diag(pops), rtol=0, atol=1e-12
        )
        alpha = window_alpha(decomposition.atoms, 0)
        assert abs(np.sum(decomposition.probabilities * alpha)) <= 1e-12
        mean_square, mean_modulus = ensemble_alpha_stats(decomposition)
        assert abs(mean_square) <= 1e-12
        assert mean_modulus == pytest.approx(mean_photon(s) - value, abs=1e-12)

    @pytest.mark.parametrize("n", [10**6, 2**53 - 3])
    def test_identities_at_large_offsets(self, n):
        # the rank-4 step-0.05 simplex; the top level of 2**53 - 3 is 2**53
        counts = [c for c in itertools.product(range(21), repeat=4) if sum(c) == 20]
        pops = np.asarray(counts) / 20.0
        _, values, weights, amplitudes = classify_many(n, pops)
        mean = pops @ (n + np.arange(4.0))
        assert_catalogue_supports(
            n, pops, values, weights, amplitudes, value_tol=1e-12 * np.maximum(1.0, mean)
        )
