import itertools

import numpy as np
import pytest

from fockroof import (
    FockDiagonalState,
    PhaseLabel,
    classify,
    classify_many,
    estimate_nonclassicality,
    mean_photon,
    rank2_nonclassicality,
    simple_bound,
)

from conftest import kernel_ansatz, random_trimmed_state, real_alpha


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
    """Rank-4 triplet-k ansatz; its fraction is ``params[f"f{k}"]``."""
    return kernel_ansatz(s, PhaseLabel[f"TRIPLET{k}"])


def pair21(s):
    return kernel_ansatz(s, PhaseLabel.PAIR21)


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
        assert result.params["f"] == pytest.approx(0.5, abs=1e-12)
        assert result.feasible
        assert result.value == pytest.approx(0.2, abs=1e-12)

    def test_boundary_coincides_with_triplet(self):
        s = state(0, [0.5, 0.25, 0.25])
        result = upper_pair(s)
        assert result.params["f"] == pytest.approx(0.5, abs=1e-12)
        assert result.feasible  # boundary counts as feasible
        assert result.value == pytest.approx(triplet3(s), abs=1e-10)

    def test_pure_top_fock_is_infeasible(self):
        result = upper_pair(state(0, [0.0, 0.0, 1.0]))
        assert result.params["f"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert not result.feasible


class TestRank3LowerPair:
    def test_worked_example(self):
        result = lower_pair(state(0, [0.1, 0.1, 0.8]))
        assert result.params["g"] == pytest.approx(0.2, abs=1e-12)
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
        result = classify(state(0, [0.6, 0.2, 0.2]))
        assert result.label is PhaseLabel.UPPER_PAIR
        assert result.value == pytest.approx(0.2, abs=1e-12)
        assert result.params["f"] == pytest.approx(0.5, abs=1e-12)
        assert not result.upper_bound_only

    def test_deep_triplet_interior(self):
        s = state(0, [0.2, 0.4, 0.4])
        assert not upper_pair(s).feasible
        assert not lower_pair(s).feasible
        result = classify(s)
        assert result.label is PhaseLabel.TRIPLET

    def test_lower_pair_region(self):
        result = classify(state(0, [0.05, 0.05, 0.9]))
        assert result.label is PhaseLabel.LOWER_PAIR

    def test_corner_values(self):
        assert classify(state(0, [1.0, 0.0, 0.0])).value == pytest.approx(0.0)
        assert classify(state(0, [0.0, 1.0, 0.0])).value == pytest.approx(1.0)
        assert classify(state(0, [0.0, 0.0, 1.0])).value == pytest.approx(2.0)

    def test_boundary_tie_prefers_triplet(self):
        result = classify(state(0, [0.5, 0.25, 0.25]))
        assert result.label is PhaseLabel.TRIPLET

    def test_continuity_across_boundaries(self):
        # march straight through the upper-pair boundary and across the
        # lower-pair boundary; values move smoothly even as labels switch
        for path in (
            [state(0, [1 - 0.2 - p2, 0.2, p2]) for p2 in np.arange(0.05, 0.75, 1e-3)],
            [state(0, [0.3 - p1, p1, 0.7]) for p1 in np.arange(1e-3, 0.299, 1e-3)],
        ):
            values = np.array([classify(s).value for s in path])
            assert np.abs(np.diff(values)).max() <= 1e-2

    def test_value_between_lp_and_simple_bound(self, rng):
        for _ in range(12):
            s = random_trimmed_state(rng, max_rank=3)
            if s.rank != 3:
                continue
            result = classify(s)
            assert 0.0 <= result.value <= simple_bound(s) + 1e-12
            lp = estimate_nonclassicality(s, 0.02).value
            assert result.value >= lp - 5e-3


class TestBoundaryCoincidence:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_upper_boundary(self, n):
        smax = (2.0 + n) / (3.0 + 2.0 * n)
        for span in np.linspace(0.05, smax, 25):
            s = state(n, upper_boundary_point(n, span))
            up = upper_pair(s)
            assert up.params["f"] == pytest.approx(span, abs=1e-10)
            assert up.value == pytest.approx(triplet3(s), abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_lower_boundary(self, n):
        rmax = (1.0 + n) / (3.0 + 2.0 * n)
        for r in np.linspace(0.02, rmax, 25):
            s = state(n, lower_boundary_point(n, r))
            low = lower_pair(s)
            assert low.params["g"] == pytest.approx(r, abs=1e-10)
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
        assert result.params["f0"] == pytest.approx(0.36, abs=1e-8)
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
            assert t0.params["f0"] == pytest.approx(up.params["f"], abs=1e-9)
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
            assert t3.params["f3"] == pytest.approx(low.params["g"], abs=1e-9)
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
                fraction = triplet4(s, k).params[f"f{k}"]
                rest = 1.0 - p[k]

                def objective(f):
                    x = np.sqrt(f * p / rest)
                    x[k] = np.sqrt(1.0 - f)
                    return rest / f * real_alpha(x, n) ** 2

                samples = np.linspace(1e-6, 1.0 - 1e-9, 1000)
                best_sample = max(objective(f) for f in samples)
                assert objective(fraction) >= best_sample - 1e-12


class TestRank4Pair:
    def test_split_closed_form(self):
        s = state(0, [0.58, 0.05, 0.05, 0.32])
        result = pair21(s)
        n, p1, p2 = 0, 0.05, 0.05
        expected_g = (3.0 + n) * p2 / ((1.0 + n) * p1 + (3.0 + n) * p2)
        assert result.params["g"] == pytest.approx(expected_g, abs=1e-12)

    def test_fraction_and_split_ignore_outer_populations(self):
        a = pair21(state(0, [0.58, 0.05, 0.05, 0.32]))
        b = pair21(state(0, [0.70, 0.05, 0.05, 0.20]))
        assert a.params["f"] == pytest.approx(b.params["f"], abs=1e-9)
        assert a.params["g"] == pytest.approx(b.params["g"], abs=1e-12)

    def test_beats_triplets_in_pair_region(self):
        s = state(0, [0.54, 0.05, 0.05, 0.36])
        pair = pair21(s)
        assert pair.feasible
        assert pair.value < triplet4(s, 0).value - 1e-9
        assert pair.value < triplet4(s, 3).value - 1e-9
        assert classify(s).label is PhaseLabel.PAIR21

    def test_middle_only_state_reduces_to_rank2(self):
        # zero outer populations force the pair fraction to one, which is
        # never the maximizer: the phase is infeasible and the quartet value
        # takes over with exactly the two-level closed form
        s = state(0, [0.0, 0.7, 0.3, 0.0])
        assert not pair21(s).feasible
        result = classify(s)
        assert result.value == pytest.approx(rank2_nonclassicality(1, 0.3), abs=1e-12)

    def test_golden_section_beats_sampling(self, rng):
        for _ in range(10):
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            n = s.offset
            p0, p1, p2, p3 = s.populations
            sm = p1 + p2
            result = pair21(s)
            g = result.params["g"]

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
            assert objective(result.params["f"]) >= best_sample - 1e-12


class TestClassifyRank4:
    def test_exception_state_triplet0(self):
        result = classify(state(0, [0.92, 0.06, 0.01, 0.01]))
        assert result.label is PhaseLabel.TRIPLET0
        assert result.value == pytest.approx(0.01625, abs=1e-10)
        assert result.upper_bound_only

    def test_exception_state_quartet(self):
        result = classify(state(0, [0.83, 0.15, 0.01, 0.01]))
        assert result.label is PhaseLabel.QUARTET
        assert result.value == pytest.approx(0.0194274, abs=1e-7)
        assert result.upper_bound_only

    def test_pyramid_vertices(self):
        for k, expected in enumerate([0.0, 1.0, 2.0, 3.0]):
            pops = np.zeros(4)
            pops[k] = 1.0
            result = classify(state(0, pops))
            assert result.value == pytest.approx(expected, abs=1e-12)

    def test_values_sandwiched(self, rng):
        for _ in range(8):
            s = random_trimmed_state(rng, max_rank=4)
            if s.rank != 4:
                continue
            result = classify(s)
            assert 0.0 <= result.value <= simple_bound(s) + 1e-12
            lp = estimate_nonclassicality(s, 0.02).value
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
                result = triplet4(s, k)
                assert result.params[f"f{k}"] == pytest.approx(a * a / (a * a + b * b), abs=1e-12)
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
            assert result.params["f"] == pytest.approx(a * a / (a * a + b * b), abs=1e-12)
            expected = mean_photon(s) - sm * (a * a + b * b)
            assert result.value == pytest.approx(expected, abs=1e-12)

    def test_vanishing_coherence_keeps_quartet(self):
        # outer levels only: every triplet link vanishes (A = B = 0), the
        # objective is zero for every f and the fraction is pinned to one
        s = state(0, [0.5, 0.0, 0.0, 0.5])
        for k in (0, 3):
            result = triplet4(s, k)
            assert result.params[f"f{k}"] == 1.0
            assert result.feasible
            assert result.value == pytest.approx(1.5, abs=1e-12)
        best = classify(s)
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
        # with every face of the simplex: each zero pattern, on a step-0.1
        # lattice, where some ansatzes are undefined
        faces = [c for c in itertools.product(range(11), repeat=rank) if sum(c) == 10 and 0 in c]
        pops = np.concatenate([np.asarray(rows, float), np.asarray(faces) / 10.0])
        for n in (0, 1, 2):
            labels, values = classify_many(n, pops)
            for row, label, value in zip(pops, labels, values):
                expected = classify(state(n, row))
                assert label is expected.label
                assert value == expected.value
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
            labels, values = classify_many(2, pops)
            for row, label, value in zip(pops, labels, values):
                expected = classify(state(2, row))
                assert (label, value) == (expected.label, expected.value)

    def test_rank_without_catalogue(self):
        with pytest.raises(ValueError, match="rank 5"):
            classify_many(0, np.full((2, 5), 0.2))
