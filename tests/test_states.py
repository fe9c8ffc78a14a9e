import math

import numpy as np
import pytest

from fockroof import (
    FockDiagonalState,
    PureFockWindowState,
    mean_photon,
    rank2_nonclassicality,
    simple_bound,
    truncated_thermal,
)

from fockroof.states import MAX_PHOTON_NUMBER, check_populations

from conftest import random_trimmed_state, real_alpha, window_alpha


class TestFockDiagonalState:
    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FockDiagonalState(0, [1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FockDiagonalState(0, [0.5, 0.4])

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError, match="offset"):
            FockDiagonalState(-1, [1.0])

    @pytest.mark.parametrize(
        "cls,values", [(FockDiagonalState, [0.5, 0.5]), (PureFockWindowState, [0.6, 0.8])]
    )
    def test_top_photon_number_is_an_exact_double(self, cls, values):
        # the top photon number offset + M - 1 may reach 2**53, not pass it
        assert MAX_PHOTON_NUMBER == 2**53
        assert cls(2**53 - 1, values).offset == 2**53 - 1
        assert cls(2**53, [1.0]).offset == 2**53
        for offset in (2**53, 2**63 - 1, 2**63, np.int64(2**63 - 1)):
            with pytest.raises(ValueError, match=r"2\*\*53"):
                cls(offset, values)

    def test_sum_tolerance_is_tight(self):
        FockDiagonalState(0, [0.5, 0.5 + 5e-13])  # inside 1e-12
        with pytest.raises(ValueError):
            FockDiagonalState(0, [0.5, 0.5 + 5e-12])

    def test_populations_are_immutable(self):
        state = FockDiagonalState(0, [0.5, 0.5])
        with pytest.raises(ValueError):
            state.populations[0] = 0.3

    def test_trimmed_strips_zero_edges(self):
        state = FockDiagonalState(1, [0.0, 0.7, 0.3, 0.0])
        t = state.trimmed()
        assert t.offset == 2
        assert t.rank == 2
        assert t.is_trimmed
        np.testing.assert_allclose(t.populations, [0.7, 0.3])

    def test_trimmed_keeps_interior_zeros(self):
        state = FockDiagonalState(0, [0.5, 0.0, 0.5])
        t = state.trimmed()
        assert t is state


class TestCheckPopulations:
    """The array check raises the dataclass's message for the first bad row."""

    @pytest.mark.parametrize(
        "bad",
        [[0.6, -0.1, 0.5], [0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [0.5, 0.4, 0.2]],
        ids=["negative", "nan", "inf", "off-sum"],
    )
    def test_array_row_message_matches_dataclass(self, bad):
        good = [0.2, 0.3, 0.5]
        with pytest.raises(ValueError) as from_state:
            FockDiagonalState(0, bad)
        with pytest.raises(ValueError) as from_array:
            check_populations(np.asarray([good, bad, good], float))
        assert str(from_array.value) == str(from_state.value)

    def test_first_offending_row_is_named(self):
        pops = np.asarray([[0.5, 0.5], [0.7, 0.4], [0.6, 0.2]])
        with pytest.raises(ValueError, match=r"\(got 1\.1\)"):
            check_populations(pops)

    def test_valid_stack_passes(self):
        check_populations(np.asarray([[1.0, 0.0], [0.5, 0.5 + 5e-13]]))


class TestMeanPhoton:
    def test_vacuum(self):
        assert mean_photon(FockDiagonalState(0, [1.0])) == 0.0

    def test_weighted_sum(self):
        state = FockDiagonalState(0, [0.92, 0.06, 0.01, 0.01])
        assert mean_photon(state) == pytest.approx(0.11, abs=1e-15)

    def test_offset_window(self):
        assert mean_photon(FockDiagonalState(2, [0.5, 0.5])) == pytest.approx(2.5)

    def test_is_the_dot_with_the_photon_numbers(self, rng):
        # bit for bit, with offsets up to 2**40 and interior zeros
        for _ in range(500):
            rank = int(rng.integers(1, 9))
            offset = int(rng.integers(0, 2 ** int(rng.integers(1, 41)) + 1))
            pops = rng.dirichlet(np.ones(rank))
            if rank > 2 and rng.random() < 0.5:
                pops[rng.integers(1, rank - 1)] = 0.0
            state = FockDiagonalState(offset, pops / pops.sum())
            expected = float(np.dot(state.offset + np.arange(state.rank), state.populations))
            assert mean_photon(state) == expected


class TestMoments:
    """The pure window state, the atom of an explicit decomposition."""

    def test_requires_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            PureFockWindowState(0, [0.5, 0.5])


class TestRealAlpha:
    def test_single_component(self):
        assert real_alpha([1.0], 5) == 0.0
        assert real_alpha([1.0, 0.0], 0) == 0.0

    def test_two_level(self):
        value = real_alpha([np.sqrt(0.84), np.sqrt(0.16)], 0)
        assert value == pytest.approx(0.36661, abs=5e-6)

    def test_three_level(self):
        value = real_alpha([np.sqrt(0.5), 0.5, 0.5], 0)
        assert value == pytest.approx(0.70711, abs=5e-6)

    def test_matches_moments(self, rng):
        for _ in range(50):
            rank = int(rng.integers(2, 6))
            offset = int(rng.integers(0, 4))
            x = np.abs(rng.normal(size=rank))
            x /= np.linalg.norm(x)
            psi = PureFockWindowState(offset, x.astype(complex))
            assert real_alpha(x, offset) == pytest.approx(
                window_alpha(psi).real, abs=1e-12
            )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit norm"):
            real_alpha([0.5, 0.5], 0)


class TestRank2ClosedForm:
    def test_endpoints(self):
        assert rank2_nonclassicality(0, 0.0) == 0.0
        assert rank2_nonclassicality(0, 1.0) == 1.0

    def test_interior(self):
        assert rank2_nonclassicality(0, 0.16) == pytest.approx(0.0256, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rank2_nonclassicality(0, 1.2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_convex_in_population(self, n):
        p = np.linspace(0.0, 1.0, 201)
        values = np.array([rank2_nonclassicality(n, pi) for pi in p])
        second_diff = values[2:] - 2 * values[1:-1] + values[:-2]
        assert second_diff.min() >= -1e-12


class TestSimpleBound:
    def test_gapped_state_saturates_mean_photon(self):
        state = FockDiagonalState(0, [0.5, 0.0, 0.5])
        assert simple_bound(state) == pytest.approx(1.0, abs=1e-15)
        assert simple_bound(state) == pytest.approx(mean_photon(state))

    def test_boundary_state(self):
        state = FockDiagonalState(0, [0.5, 0.25, 0.25])
        assert simple_bound(state) == pytest.approx(0.25, abs=1e-14)

    def test_matches_rank2_closed_form(self):
        state = FockDiagonalState(0, [0.84, 0.16])
        assert simple_bound(state) == pytest.approx(
            rank2_nonclassicality(0, 0.16), abs=1e-14
        )

    def test_never_exceeds_mean_photon(self, rng):
        for _ in range(100):
            state = random_trimmed_state(rng)
            assert simple_bound(state) <= mean_photon(state) + 1e-12

    def test_equality_without_neighboring_pairs(self, rng):
        for _ in range(20):
            n_levels = int(rng.integers(2, 4))
            pops = np.zeros(2 * n_levels - 1)
            raw = rng.dirichlet(np.ones(n_levels))
            pops[::2] = raw  # every second level populated: no adjacent pairs
            state = FockDiagonalState(0, pops)
            assert simple_bound(state) == pytest.approx(mean_photon(state), abs=1e-12)


class TestTruncatedThermal:
    def test_two_level_populations(self):
        state = truncated_thermal(0.5, 2)
        np.testing.assert_allclose(state.populations, [0.75, 0.25], atol=1e-15)

    def test_single_level_is_vacuum(self):
        state = truncated_thermal(0.5, 1)
        np.testing.assert_allclose(state.populations, [1.0])
        assert state.offset == 0

    def test_six_level_mean_photon(self):
        assert mean_photon(truncated_thermal(0.5, 6)) == pytest.approx(
            0.491758, abs=5e-7
        )

    @pytest.mark.parametrize("n_th", [0.1, 0.5, 2.0, 10.0])
    def test_populations_decrease_and_normalize(self, n_th):
        for rank in (2, 4, 7):
            pops = truncated_thermal(n_th, rank).populations
            assert np.all(np.diff(pops) < 0.0)
            assert abs(pops.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n_th", [1e16, 1e17, 1e20])
    def test_ratio_rounding_to_one(self, n_th):
        # n_th / (1 + n_th) rounds to 1, so 1 - q**rank is 0
        assert n_th / (1.0 + n_th) == 1.0
        for rank in (1, 2, 3, 4):
            pops = truncated_thermal(n_th, rank).populations
            np.testing.assert_allclose(pops, np.full(rank, 1.0 / rank), rtol=1e-12)

    @pytest.mark.parametrize("n_th", [1e-100, 0.1, 0.5, 2.0, 10.0, 1e15])
    def test_closed_form_normalizer_where_it_is_defined(self, n_th):
        for rank in (1, 2, 4, 7):
            q = n_th / (1.0 + n_th)
            k = np.arange(rank)
            pops = 1.0 / (1.0 - q**rank) * n_th**k / (1.0 + n_th) ** (k + 1.0)
            expected = pops / pops.sum()
            np.testing.assert_array_equal(truncated_thermal(n_th, rank).populations, expected)

    @pytest.mark.parametrize("n_th,rank", [(1e300, 3), (1e200, 2), (1e15, 21), (1e30, 11)])
    def test_overflowing_powers_give_the_ratio_powers(self, n_th, rank):
        # (1 + n_th)^rank overflows; no overflow warning, and the populations
        # are the powers of q = n_th / (1 + n_th), normalized
        assert rank * math.log10(1.0 + n_th) > math.log10(np.finfo(float).max)
        q = n_th / (1.0 + n_th)
        pops = truncated_thermal(n_th, rank).populations
        expected = q ** np.arange(rank)
        np.testing.assert_array_equal(pops, expected / expected.sum())

    def test_rejects_bad_arguments(self):
        for n_th in (math.inf, math.nan):
            with pytest.raises(ValueError, match="n_th must be positive and finite"):
                truncated_thermal(n_th, 3)
        with pytest.raises(ValueError):
            truncated_thermal(0.0, 3)
        with pytest.raises(ValueError):
            truncated_thermal(0.5, 0)
