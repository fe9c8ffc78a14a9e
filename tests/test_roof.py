import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fockroof import (
    FockDiagonalState,
    GridResolutionWarning,
    PhaseLabel,
    SolverFailure,
    assemble_lp,
    build_grid,
    classify,
    count_grid_points,
    estimate_nonclassicality,
    expand_histogram,
    mean_photon,
    quadrature_qfi,
    rank2_nonclassicality,
    refine,
    simple_bound,
    truncated_thermal,
)

from fockroof import roof, simplex
from fockroof.grid import AmplitudeGrid, neighborhood_grid
from fockroof.roof import LatticeLps
from fockroof.states import CONSTRUCTION_TOL

from conftest import ensemble_alpha_stats, random_trimmed_state, reconstruct_density


def state(offset, pops):
    return FockDiagonalState(offset, np.asarray(pops, float))


class TestAssemble:
    def test_rank2_structure(self):
        s = state(0, [0.84, 0.16])
        grid = build_grid(2, 0.01)
        lp = assemble_lp(s, grid)
        assert lp.n_rows == 2
        assert lp.n_cols == grid.n_points
        np.testing.assert_allclose(lp.rhs, [1.0, 0.16])
        np.testing.assert_allclose(lp.row_matrix.columns(np.arange(lp.n_cols))[0], 1.0)
        # the column at x1 = 0.4 carries kernel 0.16 * 0.84
        x1 = grid.amplitudes(np.arange(grid.n_points))[1]
        j = int(np.argmin(np.abs(x1 - 0.4)))
        assert lp.objective[j] == pytest.approx(0.1344, abs=1e-12)

    def test_rank3_coefficient(self):
        s = state(0, [0.5, 0.25, 0.25])
        grid = build_grid(3, 0.5)
        lp = assemble_lp(s, grid)
        free = grid.amplitudes(np.arange(grid.n_points))[1:]
        idx = free.T.tolist().index([0.5, 0.5])
        assert lp.objective[idx] == pytest.approx(0.5, abs=1e-12)

    def test_row_matrix_is_row_major_squares(self):
        # the row matrix is the grid itself: the implicit ones row, the
        # prefix steps coded once per run, the last coordinate's step coded
        # per point
        grid = build_grid(4, 0.1)
        rows = assemble_lp(state(0, [0.4, 0.3, 0.2, 0.1]), grid).row_matrix
        assert rows is grid
        assert rows.shape == (4, grid.n_points)
        assert rows.run_codes.shape == (2, count_grid_points(3, 0.1))
        assert rows.codes.shape == (grid.n_points,)
        free = grid.amplitudes(np.arange(grid.n_points))[1:]
        expected = np.vstack([np.ones(grid.n_points), free**2])
        assert np.array_equal(rows.columns(np.arange(grid.n_points)), expected)

    def test_row_matrix_is_shared_not_copied(self):
        grid = build_grid(4, 0.1)
        lp = assemble_lp(state(0, [0.4, 0.3, 0.2, 0.1]), grid)
        assert lp.row_matrix is grid
        for name in ("starts", "run_codes", "codes", "squares"):
            assert not getattr(grid, name).flags.writeable

    def test_lattice_lps_share_one_matrix_per_rank(self):
        s0, s2 = state(0, [0.5, 0.3, 0.2]), state(2, [0.3, 0.45, 0.25])
        lattices = LatticeLps(0.05)
        assert not lattices._grids and not lattices._lps
        lattices.estimate(s0)
        lattices.estimate(s2)
        lp0, lp2 = lattices._lps[(3, 0)], lattices._lps[(3, 2)]
        assert list(lattices._grids) == [3]
        assert lp0.row_matrix is lp2.row_matrix is lattices._grids[3]

    @pytest.mark.parametrize("pops", [[0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]])
    def test_shared_matrix_solves_as_a_copy(self, pops):
        s = state(1, pops)
        grid = build_grid(s.rank, 0.05)
        shared = assemble_lp(s, grid)
        copied = simplex.StandardFormLp(
            shared.objective, shared.row_matrix.columns(np.arange(shared.n_cols)), shared.rhs
        )
        assert not np.shares_memory(copied.row_matrix, grid.codes)
        # the estimate is read off the solution alone
        start = roof._kuhn_start(s, grid)
        sol, sol_copy = simplex.solve(shared, start=start), simplex.solve(copied, start=start)
        assert sol.objective_value == sol_copy.objective_value
        np.testing.assert_array_equal(sol.indices, sol_copy.indices)
        np.testing.assert_array_equal(sol.values, sol_copy.values)

    @pytest.mark.parametrize("rank,delta", [(4, 0.00999), (6, 0.05)])
    def test_assembly_allocates_no_matrix(self, rank, delta):
        grid = build_grid(rank, delta)
        s = state(0, np.full(rank, 1.0 / rank))
        tracemalloc.start()
        try:
            assemble_lp(s, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the objective, plus one block's temporaries
        assert peak <= 1.25 * 8 * grid.n_points

    def test_requires_matching_rank(self):
        with pytest.raises(ValueError, match="rank"):
            assemble_lp(state(0, [0.84, 0.16]), build_grid(3, 0.1))

    def test_requires_trimmed(self):
        with pytest.raises(ValueError, match="trimmed"):
            estimate_nonclassicality(state(0, [0.8, 0.2, 0.0]), 0.1)


class TestEstimate:
    def test_fig1_pin(self):
        est = estimate_nonclassicality(state(0, [0.84, 0.16]), 0.01)
        assert est.value == pytest.approx(0.0256, abs=1e-9)
        assert est.delta == 0.01
        assert est.weights.size == 1
        assert est.amplitudes[0, 1] == pytest.approx(0.4)
        assert est.weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_composite_state(self):
        est = estimate_nonclassicality(state(0, [0.6, 0.2, 0.2]), 0.01)
        assert est.value == pytest.approx(0.2, abs=1e-3)
        lattice = np.rint(est.amplitudes[:, 1:] / 0.01)
        support = {tuple(r) for r in lattice.astype(int).tolist()}
        assert support == {(0, 0), (50, 50)}

    def test_gapped_state_saturates_mean(self):
        value = estimate_nonclassicality(state(0, [0.5, 0.0, 0.5]), 0.1).value
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_histogram_feasibility(self):
        s = state(1, [0.3, 0.45, 0.25])
        est = estimate_nonclassicality(s, 0.05)
        assert est.weights.sum() == pytest.approx(1.0, abs=1e-9)
        amp_sq = est.amplitudes[:, 1:] ** 2
        recon = est.weights @ amp_sq
        np.testing.assert_allclose(recon, s.populations[1:], atol=1e-9)
        assert est.weights.size <= s.rank

    def test_rank1_rejected(self):
        with pytest.raises(ValueError, match="two Fock levels"):
            estimate_nonclassicality(state(0, [1.0]), 0.1)

    def test_tiny_population_warns(self):
        with pytest.warns(GridResolutionWarning):
            estimate_nonclassicality(state(0, [0.995, 0.004, 0.001]), 0.05)

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda s: estimate_nonclassicality(s, 0.05),
            lambda s: refine(s, 0.05, 2),
        ],
        ids=["estimate_nonclassicality", "refine"],
    )
    def test_warning_points_at_caller(self, estimate):
        with pytest.warns(GridResolutionWarning) as record:
            estimate(state(0, [0.995, 0.004, 0.001]))
        assert [w.filename for w in record] == [__file__]

    def test_shared_lattice_matches_single_state(self):
        states = [
            state(0, [0.6, 0.2, 0.2]),
            state(1, [0.3, 0.45, 0.25]),
            state(0, [0.5, 0.25, 0.25]),
            state(2, [0.7, 0.3]),
        ]
        lattices = LatticeLps(0.05)
        # the last state's window (3, 3) is new after its rank's grid
        for s in states + [state(3, [0.6, 0.2, 0.2])]:
            shared = lattices.estimate(s)
            alone = estimate_nonclassicality(s, 0.05)
            assert (shared.value, shared.delta) == (alone.value, alone.delta)
            np.testing.assert_array_equal(shared.amplitudes, alone.amplitudes)
            np.testing.assert_array_equal(shared.weights, alone.weights)

    def test_solver_failure_propagates(self, monkeypatch):
        monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(SolverFailure, match="IterationLimit"):
            estimate_nonclassicality(state(0, [0.6, 0.2, 0.2]), 0.05)

    @pytest.mark.parametrize("shift", [1e-6, -1.0])
    def test_histogram_residuals_are_checked(self, monkeypatch, shift):
        real_solve = simplex.solve

        def perturbed_solve(lp, **kwargs):
            sol = real_solve(lp, **kwargs)
            values = sol.values.copy()
            values[0] += shift
            return replace(sol, values=values)

        monkeypatch.setattr(simplex, "solve", perturbed_solve)
        with pytest.raises(SolverFailure, match="residuals"):
            estimate_nonclassicality(state(0, [0.6, 0.2, 0.2]), 0.05)


class TestOneSidedness:
    def test_sandwich_on_random_states(self, rng):
        delta = 0.05
        for _ in range(60):
            s = random_trimmed_state(rng)
            value = estimate_nonclassicality(s, delta).value
            power = quadrature_qfi(s).power
            assert value >= power - 1e-9
            # the lattice can overshoot the simple bound by its resolution slack
            slack = 10.0 * delta * delta * (s.offset + s.rank)
            assert value <= simple_bound(s) + slack

    def test_estimate_never_below_closed_form_rank2(self, rng):
        for _ in range(40):
            n = int(rng.integers(0, 3))
            p = float(rng.uniform(0.02, 0.98))
            value = estimate_nonclassicality(state(n, [1 - p, p]), 0.02).value
            assert value >= rank2_nonclassicality(n, p) - 1e-9


class TestMonotonicity:
    def test_halving_on_shared_lattice_never_worsens(self, rng):
        for _ in range(10):
            s = random_trimmed_state(rng, max_rank=3)
            coarse = estimate_nonclassicality(s, 0.1).value
            fine = estimate_nonclassicality(s, 0.05).value
            assert fine <= coarse + 1e-12

    def test_convexity_under_mixing(self, rng):
        delta = 0.05
        for _ in range(20):
            rank = int(rng.integers(2, 5))
            n = int(rng.integers(0, 3))
            pa = np.maximum(rng.dirichlet(np.ones(rank)), 0.05)
            pa /= pa.sum()
            pb = np.maximum(rng.dirichlet(np.ones(rank)), 0.05)
            pb /= pb.sum()
            lam = float(rng.uniform(0.1, 0.9))
            mix = lam * pa + (1 - lam) * pb
            mix /= mix.sum()
            ea = estimate_nonclassicality(state(n, pa), delta).value
            eb = estimate_nonclassicality(state(n, pb), delta).value
            em = estimate_nonclassicality(state(n, mix), delta).value
            assert em <= lam * ea + (1 - lam) * eb + 1e-8


class TestColumnIndex:
    @pytest.mark.parametrize(
        "grid",
        [
            build_grid(2, 0.1),
            build_grid(2, 0.002),
            build_grid(3, 0.1),
            build_grid(4, 0.2),
            neighborhood_grid(3, 0.05, np.array([[3, 2], [3, 12], [7, 0]]) * 0.05, 0.1),
            neighborhood_grid(4, 0.1, np.array([[0, 6, 8], [2, 4, 0], [2, 4, 6]]) * 0.1, 0.1),
        ],
    )
    def test_every_column_and_nothing_else(self, grid):
        steps = grid.steps(np.arange(grid.n_points))
        # the steps are the columns' integer coordinates
        free = grid.amplitudes(np.arange(grid.n_points))[1:]
        np.testing.assert_array_equal(steps * grid.delta, free)
        on_grid = set()
        for j, key in enumerate(map(tuple, steps.T.tolist())):
            assert grid.column_index(key) == j
            on_grid.add(key)
        # every point of the full lattice at this spacing that the grid lacks
        full = build_grid(grid.rank, grid.delta)
        for key in map(tuple, full.steps(np.arange(full.n_points)).T.tolist()):
            if key not in on_grid:
                assert grid.column_index(key) == -1
        # past the table in the last or every coordinate, and before the
        # first run
        top, zeros = grid.squares.size - 1, (0,) * (grid.rank - 2)
        for key in (zeros + (top + 1,), (top + 1,) * (grid.rank - 1), zeros + (-1,)):
            assert grid.column_index(key) == -1


class TestRefine:
    def test_single_level_equals_estimate(self):
        s = state(0, [0.7, 0.2, 0.1])
        (step,) = refine(s, 0.05, 1)
        direct = estimate_nonclassicality(s, 0.05)
        assert (step.delta, step.value) == (0.05, direct.value)
        np.testing.assert_array_equal(step.amplitudes, direct.amplitudes)
        np.testing.assert_array_equal(step.weights, direct.weights)

    def test_rank2_converges_to_closed_form(self):
        steps = refine(state(0, [0.84, 0.16]), 0.1, 3)
        assert [step.delta for step in steps] == [0.1, 0.05, 0.025]
        assert steps[-1].value == pytest.approx(0.0256, abs=1e-6)

    def test_rank3_converges_to_ansatz(self):
        steps = refine(state(0, [0.6, 0.2, 0.2]), 0.05, 3)
        assert steps[-1].value == pytest.approx(0.2, abs=1e-4)

    def test_sequence_never_increases(self, rng):
        for _ in range(10):
            s = random_trimmed_state(rng, max_rank=3)
            steps = refine(s, 0.1, 3)
            values = [step.value for step in steps]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_capacity_error_propagates(self):
        from fockroof import GridCapacityError

        with pytest.raises(GridCapacityError):
            # the rank-3 lattice at this spacing has about 8.7M points
            refine(state(0, [0.6, 0.2, 0.2]), 3e-4, 2)

    @pytest.mark.parametrize("levels", [0, -1])
    def test_rejects_fewer_than_one_level(self, levels):
        with pytest.raises(ValueError, match="levels must be >= 1"):
            refine(state(0, [0.6, 0.2, 0.2]), 0.05, levels)


def _start_from_phase_one(monkeypatch):
    # no start column is found on any grid
    monkeypatch.setattr(AmplitudeGrid, "column_index", lambda grid, key: -1)


def _recorded_solves(monkeypatch) -> list[simplex.LpSolution]:
    """Every solution that ``simplex.solve`` returns from now on, in order."""
    solutions = []
    solve = simplex.solve

    def recorded(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(simplex, "solve", recorded)
    return solutions


# The paper's two rank-4 exception states and the five windows that
# `sweep4 --n 0 --step 0.05 --lp-check 300` solves, all at delta = 0.00999.
REFERENCE_PROGRAMS = [
    (0, [0.92, 0.06, 0.01, 0.01]),
    (0, [0.83, 0.15, 0.01, 0.01]),
    (0, [0.19999999999999984, 0.6000000000000001, 0.15000000000000002, 0.05]),
    (0, [0.09999999999999998, 0.25, 0.55, 0.1]),
    (0, [0.45, 0.0, 0.35000000000000003, 0.2]),
    (1, [0.2, 0.5, 0.30000000000000004]),
    (0, [0.25, 0.2, 0.05, 0.5]),
]


class TestCrashStart:
    """Lattice solves start from the Kuhn simplex around sqrt(p) and fall
    back to phase 1 when a vertex is off the grid."""

    STATES = [
        (0, [0.84, 0.16]),
        (2, [0.35, 0.65]),
        (0, [0.6, 0.2, 0.2]),
        (1, [0.3, 0.45, 0.25]),
        (0, [0.6, 0.2, 0.15, 0.05]),
        (2, [0.1, 0.4, 0.3, 0.2]),
        (0, [0.5, 0.2, 0.15, 0.1, 0.05]),
        (1, [0.3, 0.25, 0.2, 0.15, 0.1]),
    ]

    @pytest.mark.parametrize("delta", [0.05, 0.02])
    def test_same_value_as_phase_one(self, monkeypatch, delta):
        states = [state(n, p) for n, p in self.STATES]
        lattices = LatticeLps(delta)
        crashed = [lattices.estimate(s).value for s in states]
        _start_from_phase_one(monkeypatch)
        plain = [lattices.estimate(s).value for s in states]
        np.testing.assert_allclose(crashed, plain, rtol=0.0, atol=1e-12)

    def test_start_is_a_feasible_basis(self):
        for n, pops in self.STATES:
            s = state(n, pops)
            grid = build_grid(s.rank, 0.05)
            start = roof._kuhn_start(s, grid)
            assert start is not None and len(start) == s.rank
            sol = simplex.solve(assemble_lp(s, grid), start=start)
            assert sol.phase1_iterations == 0

    @pytest.mark.parametrize(
        "pops,delta,started",
        [
            ([0.001, 0.5, 0.499], 0.00999, False),  # top vertex outside the ball
            ([0.5, 0.25, 0.25], 0.05, True),  # exact squares: a zero-weight vertex
            ([0.4, 0.5, 0.0, 0.1], 0.05, True),  # the stalling state
            ([0.4, 0.5, 0.0, 0.1], 0.00999, True),
        ],
    )
    def test_edge_cases(self, monkeypatch, pops, delta, started):
        s = state(0, pops)
        grid = build_grid(s.rank, delta)
        assert (roof._kuhn_start(s, grid) is not None) == started
        crashed = estimate_nonclassicality(s, delta)
        _start_from_phase_one(monkeypatch)
        plain = estimate_nonclassicality(s, delta)
        assert crashed.value == pytest.approx(plain.value, abs=1e-12)
        np.testing.assert_array_equal(crashed.amplitudes, plain.amplitudes)

    def test_refinement_neighbourhood_without_the_simplex(self, monkeypatch):
        s = truncated_thermal(0.5, 4)
        kuhn = []
        kuhn_start = roof._kuhn_start

        def recorded(st, grid):
            kuhn.append(kuhn_start(st, grid))
            return kuhn[-1]

        monkeypatch.setattr(roof, "_kuhn_start", recorded)
        solutions = _recorded_solves(monkeypatch)
        carried = refine(s, 0.05, 3)
        # the level-3 neighbourhood lacks the Kuhn simplex; both refined
        # levels start from the carried basis and never ask for it
        assert len(kuhn) == 1 and kuhn[0] is not None
        assert [sol.phase1_iterations for sol in solutions] == [0, 0, 0]
        _start_from_phase_one(monkeypatch)
        plain = refine(s, 0.05, 3)
        assert [e.delta for e in carried] == [e.delta for e in plain]
        np.testing.assert_allclose(
            [e.value for e in carried], [e.value for e in plain], rtol=0.0, atol=1e-12
        )

    def test_carried_column_off_the_grid_falls_back(self, monkeypatch):
        s = truncated_thermal(0.5, 4)
        kuhn = []
        kuhn_start = roof._kuhn_start
        solve_on_grid = roof._solve_on_grid

        def recorded(st, grid):
            kuhn.append(kuhn_start(st, grid))
            return kuhn[-1]

        def missing_column(st, lp, carried=None):
            if carried is not None:
                # a point outside the ball is on no grid
                carried = [[lp.row_matrix.squares.size] * (st.rank - 1)] + carried[1:]
            return solve_on_grid(st, lp, carried)

        monkeypatch.setattr(roof, "_kuhn_start", recorded)
        monkeypatch.setattr(roof, "_solve_on_grid", missing_column)
        solutions = _recorded_solves(monkeypatch)
        fallen_back = refine(s, 0.05, 3)
        # the Kuhn simplex on every level, phase 1 where it misses the grid
        assert [start is None for start in kuhn] == [False, False, True]
        assert [sol.phase1_iterations > 0 for sol in solutions] == [False, False, True]
        _start_from_phase_one(monkeypatch)
        plain = refine(s, 0.05, 3)
        np.testing.assert_allclose(
            [e.value for e in fallen_back], [e.value for e in plain], rtol=0.0, atol=1e-12
        )

    def test_refined_levels_skip_phase_one(self, monkeypatch):
        solutions = _recorded_solves(monkeypatch)
        with pytest.warns(GridResolutionWarning):
            for rank in range(2, 7):
                refine(truncated_thermal(0.5, rank), 0.05, 3)
        assert [sol.phase1_iterations for sol in solutions] == [0] * 15
        # rank 6, levels 2 and 3: 271 pivots from the Kuhn simplex or phase 1
        assert sum(sol.iterations for sol in solutions[-2:]) <= 80

    def test_reference_programs_skip_phase_one(self):
        grids = {rank: build_grid(rank, 0.00999) for rank in (3, 4)}
        for n, pops in REFERENCE_PROGRAMS:
            s = state(n, pops).trimmed()
            grid = grids[s.rank]
            lp = assemble_lp(s, grid)
            crashed = simplex.solve(lp, start=roof._kuhn_start(s, grid))
            plain = simplex.solve(lp)
            assert crashed.phase1_iterations == 0
            assert plain.phase1_iterations > 0
            assert crashed.iterations < plain.iterations
            assert crashed.objective_value == pytest.approx(
                plain.objective_value, abs=1e-12
            )


class TestExpansion:
    def test_rank2_four_prong(self):
        s = state(0, [0.84, 0.16])
        est = estimate_nonclassicality(s, 0.01)
        dec = expand_histogram(s, est)
        assert dec.atoms.shape == (4, 2)
        np.testing.assert_allclose(dec.probabilities, 0.25, atol=1e-9)
        np.testing.assert_allclose(np.abs(dec.atoms[:, 1]), 0.4, atol=1e-12)

    def test_rank3_cube_roots(self):
        s = state(0, [0.5, 0.25, 0.25])
        est = estimate_nonclassicality(s, 0.05)
        dec = expand_histogram(s, est)
        # P = max(4, M): quartic roots, though any P >= max(3, M) cancels <a>²
        assert dec.phase_order == 4
        sq, _ = ensemble_alpha_stats(dec)
        assert abs(sq) <= 1e-10

    def test_rank4_reconstruction(self):
        s = state(0, [0.4, 0.3, 0.2, 0.1])
        est = estimate_nonclassicality(s, 0.05)
        dec = expand_histogram(s, est)
        assert len(dec.atoms) == 4 * est.weights.size
        rho = reconstruct_density(dec)
        np.testing.assert_allclose(np.diag(rho).real, s.populations, atol=1e-9)
        off = rho - np.diag(np.diag(rho))
        assert np.abs(off).max() <= 1e-10

    def test_rank5_pipeline(self):
        # the machinery is rank-generic: thermal rank-5 estimate, refinement
        # and explicit decomposition all go through
        from fockroof import truncated_thermal

        s = truncated_thermal(0.5, 5)
        # p_4 = 0.0083 is below 4*delta^2 = 0.01
        with pytest.warns(GridResolutionWarning):
            steps = refine(s, 0.05, 2)
        assert steps[-1].value <= steps[0].value + 1e-12
        with pytest.warns(GridResolutionWarning):
            est = estimate_nonclassicality(s, 0.05)
        dec = expand_histogram(s, est)
        assert dec.phase_order == 5
        rho = reconstruct_density(dec)
        np.testing.assert_allclose(np.diag(rho).real, s.populations, atol=1e-9)
        assert np.abs(rho - np.diag(np.diag(rho))).max() <= 1e-10

    def test_roundtrip_random_states(self, rng):
        for _ in range(12):
            s = random_trimmed_state(rng, max_rank=4)
            est = estimate_nonclassicality(s, 0.05)
            dec = expand_histogram(s, est)
            rho = reconstruct_density(dec)
            np.testing.assert_allclose(np.diag(rho).real, s.populations, atol=1e-9)
            assert np.abs(rho - np.diag(np.diag(rho))).max() <= 1e-10
            sq, mag = ensemble_alpha_stats(dec)
            assert abs(sq) <= 1e-10
            # the ensemble coherence reproduces the LP objective
            assert mag == pytest.approx(mean_photon(s) - est.value, abs=1e-9)
            assert dec.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(dec.probabilities > 0)

    def test_atoms_are_normalized_phase_groups(self, rng):
        lattices = LatticeLps(0.05)
        for _ in range(20):
            s = random_trimmed_state(rng, max_rank=6, max_offset=10**6)
            est = lattices.estimate(s)
            dec = expand_histogram(s, est)
            assert dec.offset == s.offset
            assert dec.phase_order == max(4, s.rank)
            assert dec.atoms.shape == (dec.phase_order * est.weights.size, s.rank)
            norms = np.sum(np.abs(dec.atoms) ** 2, axis=1)
            assert np.abs(norms - 1.0).max() <= CONSTRUCTION_TOL
            assert dec.probabilities.sum() == pytest.approx(1.0, abs=CONSTRUCTION_TOL)
            # the broadcast repeats the arithmetic of one atom at a time
            p, m, ks = dec.phase_order, s.rank, np.arange(s.rank)
            looped = [
                row * np.exp(2j * np.pi * j * (m - 1 - ks) / p)
                for row in est.amplitudes
                for j in range(p)
            ]
            assert np.array_equal(dec.atoms, looped)
            repeated = [w / p for w in est.weights.tolist() for _ in range(p)]
            assert dec.probabilities.tolist() == repeated


def simply_decomposed(s, delta):
    """Whether the lattice estimate reaches the simple bound, within the
    lattice's own resolution error, which scales with delta²."""
    value = estimate_nonclassicality(s, delta).value
    return simple_bound(s) - value <= 1e-6 + 10.0 * delta * delta


class TestClassification:
    def test_rank2_always_simple(self, rng):
        for _ in range(10):
            p = float(rng.uniform(0.05, 0.95))
            assert simply_decomposed(state(0, [1 - p, p]), 0.01)

    def test_composite_example(self):
        assert not simply_decomposed(state(0, [0.6, 0.2, 0.2]), 0.01)

    def test_boundary_state_is_simple(self):
        assert simply_decomposed(state(0, [0.5, 0.25, 0.25]), 0.01)


class TestCompositeIdentity:
    def test_convex_split_of_composite_state(self):
        # 0.8 * (0.5, 0.25, 0.25) + 0.2 * vacuum reproduces (0.6, 0.2, 0.2)
        whole = estimate_nonclassicality(state(0, [0.6, 0.2, 0.2]), 0.01).value
        part = estimate_nonclassicality(state(0, [0.5, 0.25, 0.25]), 0.01).value
        assert whole == pytest.approx(0.2, abs=1e-3)
        assert whole == pytest.approx(0.8 * part, abs=2e-3)
        assert classify(state(0, [0.6, 0.2, 0.2])).label is PhaseLabel.UPPER_PAIR
        assert classify(state(0, [0.5, 0.25, 0.25])).label is PhaseLabel.TRIPLET


class TestExports:
    def test_histogram_in_lattice_order(self):
        est = estimate_nonclassicality(state(0, [0.6, 0.2, 0.2]), 0.05)
        assert est.amplitudes.shape == (est.weights.size, 3)
        free = est.amplitudes[:, 1:].tolist()
        assert free == sorted(free)

    def test_decomposition_json(self):
        s = state(0, [0.84, 0.16])
        est = estimate_nonclassicality(s, 0.01)
        atoms = expand_histogram(s, est).to_jsonable()
        assert len(atoms) == 4
        for atom in atoms:
            assert set(atom) == {"probability", "amplitudes"}
            assert len(atom["amplitudes"]) == 2
            assert set(atom["amplitudes"][0]) == {"re", "im"}
        total = sum(a["probability"] for a in atoms)
        assert total == pytest.approx(1.0, abs=1e-9)
