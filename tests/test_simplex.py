import tracemalloc
from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
import pytest

import fockroof
from fockroof import (
    FockDiagonalState,
    LpStatus,
    StandardFormLp,
    assemble_lp,
    build_grid,
    mean_photon,
    solve,
    truncated_thermal,
    write_lp,
)
from fockroof import roof, simplex
from fockroof.grid import AmplitudeGrid, neighborhood_grid

from conftest import parse_dump, singular_on_second_refactor


def residuals(lp, sol):
    """(inf-norm of A·q - b, most negative primal entry clamped to <= 0)."""
    ax = lp.row_matrix[:, sol.indices] @ sol.values
    neg = float(sol.values.min(initial=0.0))
    return float(np.max(np.abs(ax - lp.rhs))), neg


def make_lp(c, a, b):
    return StandardFormLp(
        objective=np.asarray(c, float),
        row_matrix=np.asarray(a, float),
        rhs=np.asarray(b, float),
    )


def bounded_random_lp(rng, rows, cols):
    """Random feasible LP whose feasible set is bounded by a ones row."""
    a = rng.normal(size=(rows - 1, cols))
    a = np.vstack([np.ones(cols), a])
    x0 = np.zeros(cols)
    support = rng.choice(cols, size=rows, replace=False)
    x0[support] = rng.uniform(0.2, 1.0, size=rows)
    b = a @ x0
    c = rng.normal(size=cols)
    return make_lp(c, a, b)


def signed_random_lp(rng):
    """Random feasible program, degenerate when its support is smaller than
    its rows, with at least one row negated, so that some rhs is negative."""
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(rows + 1, 60))
    a = np.vstack([np.ones(cols), rng.normal(size=(rows - 1, cols))])
    x0 = np.zeros(cols)
    support = rng.choice(cols, size=int(rng.integers(1, rows + 1)), replace=False)
    x0[support] = rng.uniform(0.2, 1.0, size=support.size)
    b = a @ x0
    signs = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
    r = rng.integers(rows)
    signs[r] = -np.sign(b[r])
    return make_lp(rng.normal(size=cols), a * signs[:, None], b * signs)


def brute_force_optimum(lp, tol=1e-9):
    """Enumerate every basic solution and return the best feasible objective."""
    rows, cols = lp.n_rows, lp.n_cols
    best = None
    for basis in combinations(range(cols), rows):
        sub = lp.row_matrix[:, basis]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, lp.rhs)
        if np.any(x < -tol):
            continue
        value = float(lp.objective[list(basis)] @ x)
        if best is None or value > best:
            best = value
    return best


class TestBasics:
    def test_single_variable(self):
        lp = make_lp([1.0], [[1.0]], [1.0])
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
        assert sol.indices.tolist() == [0]
        assert sol.values == pytest.approx([1.0])
        assert residuals(lp, sol) == (pytest.approx(0.0, abs=1e-12), 0.0)

    def test_infeasible_system(self):
        lp = make_lp([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 3.0])
        sol = solve(lp)
        assert sol.status is LpStatus.INFEASIBLE

    def test_unbounded_ray(self):
        lp = make_lp([1.0, 0.0], [[1.0, -1.0]], [1.0])
        sol = solve(lp)
        assert sol.status is LpStatus.UNBOUNDED

    def test_iteration_limit(self, monkeypatch):
        rng = np.random.default_rng(3)
        lp = bounded_random_lp(rng, 4, 30)
        monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1)
        sol = solve(lp)
        assert sol.status is LpStatus.ITERATION_LIMIT
        assert sol.iterations == 1

    def test_singular_refactorization_is_numerical(self, monkeypatch):
        singular_on_second_refactor(monkeypatch)
        rng = np.random.default_rng(3)
        sol = solve(bounded_random_lp(rng, 4, 30))
        assert sol.status is LpStatus.NUMERICAL
        assert np.isnan(sol.objective_value)
        assert sol.indices.size == sol.values.size == 0

    def test_negative_rhs_rows_are_flipped(self):
        lp = make_lp([1.0, 2.0], [[-1.0, -1.0]], [-1.0])
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-12)

    def test_arrays_are_read_only_views(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        lp = make_lp([1.0, 1.0], a, [1.0, 2.0])
        assert np.shares_memory(lp.row_matrix, a)
        with pytest.raises(ValueError, match="read-only"):
            lp.row_matrix[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            lp.rhs[0] = 5.0
        assert a.flags.writeable

    @pytest.mark.parametrize(
        "c,a,b",
        [
            ([1.0, 2.0], [[-1.0, -1.0]], [-1.0]),
            ([1.0, 1.0, 0.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 2.0]], [1.0, 0.5]),
        ],
    )
    def test_solve_leaves_the_program_unchanged(self, c, a, b):
        lp = make_lp(c, a, b)
        before = [arr.tobytes() for arr in (lp.objective, lp.row_matrix, lp.rhs)]
        assert solve(lp).status is LpStatus.OPTIMAL
        assert [arr.tobytes() for arr in (lp.objective, lp.row_matrix, lp.rhs)] == before

    @pytest.mark.parametrize("seed", range(8))
    def test_negative_rhs_solves_as_its_flipped_program(self, seed):
        # the same status, objective bits, primal, basis and pivots as the
        # program with every row of negative rhs negated by hand
        rng = np.random.default_rng(3000 + seed)
        for _ in range(20):
            lp = signed_random_lp(rng)
            signs = np.where(lp.rhs < 0, -1.0, 1.0)
            assert signs.min() < 0
            flipped = make_lp(lp.objective, lp.row_matrix * signs[:, None], lp.rhs * signs)
            sol, ref = solve(lp), solve(flipped)
            assert sol.status is ref.status
            assert sol.objective_value.hex() == ref.objective_value.hex()
            assert sol.indices.tolist() == ref.indices.tolist()
            assert sol.values.tobytes() == ref.values.tobytes()
            assert sol.basis == ref.basis
            assert (sol.iterations, sol.phase1_iterations) == (
                ref.iterations,
                ref.phase1_iterations,
            )

    def test_redundant_row_is_tolerated(self):
        # second row is twice the first: phase 1 must not fail on it, and
        # the primal reproduces both rows
        lp = make_lp([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
        assert residuals(lp, sol) == (pytest.approx(0.0, abs=simplex.FEAS_TOL), 0.0)
        # a row that is a combination of two others, in a larger program
        base = bounded_random_lp(np.random.default_rng(8), 4, 30)
        lp = redundant_program()
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(solve(base).objective_value, abs=1e-9)
        eq, neg = residuals(lp, sol)
        assert eq <= simplex.FEAS_TOL
        assert neg == 0.0

    def test_with_rhs_checks_only_the_new_rhs(self):
        # a new rhs goes through dataclasses.replace, which checks it
        lp = make_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])
        other = replace(lp, rhs=[3.0, 4.0])
        assert other.rhs.tolist() == [3.0, 4.0]
        assert lp.rhs.tolist() == [1.0, 2.0]
        assert np.shares_memory(other.row_matrix, lp.row_matrix)
        assert np.shares_memory(other.objective, lp.objective)
        with pytest.raises(ValueError, match="read-only"):
            other.rhs[0] = 5.0
        with pytest.raises(ValueError, match="finite"):
            replace(lp, rhs=[np.nan, 1.0])
        with pytest.raises(ValueError, match="shape"):
            replace(lp, rhs=[1.0, 2.0, 3.0])

    def test_grid_program_is_checked_but_its_grid_is_kept(self):
        lp = lattice_program()
        grid = lp.row_matrix
        assert isinstance(grid, AmplitudeGrid)
        other = replace(lp, rhs=np.flip(lp.rhs))
        assert other.row_matrix is grid
        assert np.shares_memory(other.objective, lp.objective)
        for name in ("objective", "rhs"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(other, name)[0] = 5.0
        for bad in (np.nan, np.inf):
            objective = lp.objective.copy()
            objective[-1] = bad
            with pytest.raises(ValueError, match="objective contains non-finite"):
                StandardFormLp(objective, grid, lp.rhs)
        with pytest.raises(ValueError, match="shape"):
            StandardFormLp(lp.objective[:-1], grid, lp.rhs)
        with pytest.raises(ValueError, match="shape"):
            replace(lp, rhs=lp.rhs[:-1])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            make_lp([1.0], [[1.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="columns as rows"):
            make_lp([1.0], [[1.0], [1.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            make_lp([np.inf], [[1.0]], [1.0])
        with pytest.raises(ValueError, match="objective contains non-finite"):
            make_lp([np.nan, 1.0], [[1.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="row_matrix contains non-finite"):
            make_lp([1.0, 1.0], [[1.0, np.nan]], [1.0])


def dense_program():
    return bounded_random_lp(np.random.default_rng(7), 3, 40)


def lattice_program():
    state = FockDiagonalState(0, np.array([0.6, 0.2, 0.15, 0.05]))
    return assemble_lp(state, build_grid(4, 0.05))


def unbounded_program():
    """Three random rows through a feasible point and no ones row."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 40))
    x0 = np.zeros(40)
    x0[[3, 9, 30]] = 0.5
    return make_lp(rng.normal(size=40), a, a @ x0)


def infeasible_rhs(lp):
    # the lattice's populations cannot sum past the weight; the dense
    # program's ones row cannot reach a negative weight
    if isinstance(lp.row_matrix, AmplitudeGrid):
        return np.append(1.0, np.full(lp.n_rows - 1, 0.9))
    return lp.rhs * np.append(-1.0, np.ones(lp.n_rows - 1))


PRICING_BLOCKS = (7, 512, simplex._PRICING_BLOCK)


class TestSolutionFields:
    """What a solution holds, on a dense and a lattice program, at several
    pricing blocks."""

    @pytest.fixture(params=PRICING_BLOCKS)
    def block(self, request, monkeypatch):
        monkeypatch.setattr(simplex, "_PRICING_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("program", [dense_program, lattice_program])
    @pytest.mark.parametrize("limit", [None, 2])
    def test_primal_is_the_sorted_structural_basis(self, program, limit, block, monkeypatch):
        lp = program()
        if limit is not None:
            # stopped in phase 1, with an artificial still basic
            monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", limit)
        sol = solve(lp)
        assert sol.status is (LpStatus.OPTIMAL if limit is None else LpStatus.ITERATION_LIMIT)
        idx, values = sol.indices, sol.values
        assert idx.dtype == np.intp and idx.shape == values.shape
        assert np.all(np.diff(idx) > 0)
        assert idx.tolist() == sorted(j for j in sol.basis if j < lp.n_cols)
        if limit is not None:
            assert max(sol.basis) >= lp.n_cols
            assert (sol.iterations, sol.phase1_iterations) == (2, 2)
        assert sol.objective_value == float(lp.objective[idx] @ values)

    @pytest.mark.parametrize(
        "program,pinned",
        [
            (dense_program, {7: ([40, 18, 9], 4), 512: ([40, 18, 9], 3)}),
            (lattice_program, {7: ([248, 4663, 4664, 20], 40), 512: ([334, 4663, 4664, 20], 2)}),
        ],
        ids=["dense", "lattice"],
    )
    def test_infeasible_fields(self, program, pinned, block):
        lp = program()
        sol = solve(replace(lp, rhs=infeasible_rhs(lp)))
        basis, pivots = pinned[min(block, 512)]
        assert sol.status is LpStatus.INFEASIBLE
        assert np.isnan(sol.objective_value)
        assert sol.indices.size == sol.values.size == 0
        assert sol.basis == basis
        assert (sol.iterations, sol.phase1_iterations) == (pivots, pivots)

    @pytest.mark.parametrize("start", [None, [3, 9, 30]])
    def test_unbounded_fields(self, start, block):
        # a lattice program is bounded by its ones row, so only a dense one
        sol = solve(unbounded_program(), start=start)
        pinned = {7: ([2, 0, 3], 4, 3), 512: ([11, 8, 3], 5, 3)}[min(block, 512)]
        if start is not None:
            pinned = (start, 0, 0)
        assert sol.status is LpStatus.UNBOUNDED
        assert sol.objective_value == float("inf")
        assert sol.indices.size == sol.values.size == 0
        assert (sol.basis, sol.iterations, sol.phase1_iterations) == pinned

    @pytest.mark.parametrize("program", [dense_program, lattice_program])
    def test_numerical_fields(self, program, block, monkeypatch):
        lp = program()
        singular_on_second_refactor(monkeypatch)
        sol = solve(lp)
        assert sol.status is LpStatus.NUMERICAL
        assert np.isnan(sol.objective_value)
        assert sol.indices.size == sol.values.size == 0
        assert (sol.basis, sol.iterations, sol.phase1_iterations) == ([], 0, 0)


def test_every_exported_name_resolves():
    assert len(set(fockroof.__all__)) == len(fockroof.__all__)
    for name in fockroof.__all__:
        assert getattr(fockroof, name) is not None


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 4))
        cols = int(rng.integers(rows + 2, 10))
        lp = bounded_random_lp(rng, rows, cols)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        expected = brute_force_optimum(lp)
        assert expected is not None
        assert sol.objective_value == pytest.approx(expected, abs=1e-8)


class TestVertexProperty:
    @pytest.mark.parametrize("seed", range(10))
    def test_support_at_most_rows(self, seed):
        rng = np.random.default_rng(1000 + seed)
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(10, 201))
        lp = bounded_random_lp(rng, rows, cols)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert np.count_nonzero(sol.values > 1e-10) <= rows
        eq, neg = residuals(lp, sol)
        assert eq <= 1e-9
        assert neg >= -1e-9

    def test_partial_pricing_blocks(self, monkeypatch):
        rng = np.random.default_rng(99)
        lp = bounded_random_lp(rng, 3, 50)
        full = solve(lp)
        monkeypatch.setattr(simplex, "_PRICING_BLOCK", 7)
        blocked = solve(lp)
        assert blocked.status is LpStatus.OPTIMAL
        assert blocked.objective_value == pytest.approx(
            full.objective_value, abs=1e-9
        )


class TestDegeneracy:
    def test_classic_cycling_instance(self):
        # textbook degenerate program that cycles under naive most-negative
        # pivoting; the lexicographic ratio test must terminate at 1/20
        a = [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
        c = [0.75, -150.0, 1.0 / 50.0, -6.0, 0.0, 0.0, 0.0]
        sol = solve(make_lp(c, a, [0.0, 0.0, 1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.05, abs=1e-10)

    def test_blands_rule_in_both_phases(self, monkeypatch):
        # Bland's rule from the first degenerate pivot; the zero rhs entries
        # make phase 1 degenerate from its first pivot, so Bland pricing runs
        # while the phase-1 objective also covers the implicit artificials
        state = FockDiagonalState(0, np.array([0.4, 0.5, 0.0, 0.1]))
        lp = assemble_lp(state, build_grid(4, 0.05))
        expected = solve(lp).objective_value
        monkeypatch.setattr(simplex, "_BLAND_AFTER_STALLS", 1)
        self.test_classic_cycling_instance()
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_degenerate_vertices_still_terminate(self, seed):
        # rhs built from fewer positives than rows guarantees degenerate bases
        rng = np.random.default_rng(2000 + seed)
        rows = int(rng.integers(3, 6))
        cols = int(rng.integers(rows + 3, 15))
        a = np.vstack([np.ones(cols), rng.normal(size=(rows - 1, cols))])
        x0 = np.zeros(cols)
        support = rng.choice(cols, size=max(1, rows - 2), replace=False)
        x0[support] = rng.uniform(0.2, 1.0, size=support.size)
        lp = make_lp(rng.normal(size=cols), a, a @ x0)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(
            brute_force_optimum(lp), abs=1e-8
        )

    def test_blands_rule_ends_with_the_degenerate_run(self):
        # a long degenerate run on the 537,052-column lattice; keeping Bland's
        # full-column pricing for the rest of the phase took 7,849 pivots
        state = FockDiagonalState(0, np.array([0.4, 0.5, 0.0, 0.1]))
        lp = assemble_lp(state, build_grid(4, 0.00999))
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations < 1000
        assert mean_photon(state) - sol.objective_value == pytest.approx(
            0.5778693086369322, abs=1e-9
        )


def redundant_program():
    """A bounded random program with a fifth row that combines two others."""
    base = bounded_random_lp(np.random.default_rng(8), 4, 30)
    a = np.vstack([base.row_matrix, base.row_matrix[1] - 2.0 * base.row_matrix[2]])
    return make_lp(base.objective, a, np.append(base.rhs, base.rhs[1] - 2.0 * base.rhs[2]))


def zero_row_program():
    """A program whose phase 1 ends with two artificials basic at zero: row
    2 (rhs 0, entries 0 on columns 0-19 and negative on 20-39) is driven out
    by column 20, and row 3, the sum of rows 0 and 1, keeps one of them."""
    rng = np.random.default_rng(0)
    a = np.vstack([np.ones(40), rng.normal(size=40), np.zeros(40)])
    a[2, 20:] = -rng.uniform(0.5, 1.0, size=20)
    x0 = np.zeros(40)
    x0[[2, 5, 11]] = [0.3, 0.3, 0.4]
    b = a @ x0
    return make_lp(
        rng.normal(size=40), np.vstack([a, a[0] + a[1]]), np.append(b, b[0] + b[1])
    )


def lattice(pops, rank, delta):
    state = truncated_thermal(0.5, rank) if pops is None else FockDiagonalState(0, np.array(pops))
    return lambda: assemble_lp(state, build_grid(rank, delta))


class TestBlandsRule:
    """Solves with Bland's rule from the first degenerate pivot, from phase
    1.  The pins were taken with Bland's rule and the drive-out each
    scanning the whole column range at once; block by block, they must
    pick the same columns."""

    @pytest.mark.parametrize(
        "program,block,pinned",
        [
            (lattice([0.4, 0.5, 0.0, 0.1], 4, 0.05), None,
             (26, 4, "0x1.c645a1cac082dp-3", [20, 4007, 4182, 4199])),
            (lattice([0.4, 0.5, 0.0, 0.1], 4, 0.05), 512,
             (99, 52, "0x1.c645a1cac082dp-3", [20, 4007, 4182, 4199])),
            (lattice([0.6, 0.2, 0.15, 0.05], 4, 0.05), None,
             (20, 4, "0x1.2cd8122cae7ecp-1", [0, 3527, 3754, 3755])),
            (lattice([0.6, 0.2, 0.15, 0.05], 4, 0.05), 512,
             (71, 26, "0x1.2cd8122cae7ecp-1", [0, 3527, 3754, 3755])),
            (lattice([0.5, 0.3, 0.2], 3, 0.05), 512,
             (12, 3, "0x1.137f94675ee99p-1", [205, 223, 224])),
            (lattice(None, 5, 0.1), None,
             (24, 5, "0x1.ddd43ea362908p-2", [648, 2553, 3667, 3675, 3723])),
            (lattice(None, 5, 0.1), 512,
             (89, 27, "0x1.ddd43ea362908p-2", [648, 2553, 3667, 3675, 3723])),
            (lattice([0.3, 0.2, 0.0, 0.25, 0.25], 5, 0.1), None,
             (21, 7, "0x1.3b3b286ef16e9p-1", [722, 808, 2048, 3432, 3776])),
            (lattice([0.3, 0.2, 0.0, 0.25, 0.25], 5, 0.1), 512,
             (69, 34, "0x1.3b3b286ef16e9p-1", [722, 808, 2048, 3432, 3776])),
            (redundant_program, None,
             (8, 5, "0x1.5facea33ae1a5p+1", [2, 9, 19, 27], [9, 31, 27, 2, 19])),
            (redundant_program, 7,
             (9, 5, "0x1.5facea33ae1a5p+1", [2, 9, 19, 27], [2, 31, 9, 27, 19])),
            (zero_row_program, None,
             (6, 2, "0x1.f1f9ab5acb1bap+0", [14, 19, 29], [40, 19, 29, 14])),
            (zero_row_program, 7,
             (8, 2, "0x1.f1f9ab5acb1bap+0", [14, 19, 29], [40, 19, 29, 14])),
        ],
    )
    def test_pinned_solves(self, program, block, pinned, monkeypatch):
        lp = program()
        monkeypatch.setattr(simplex, "_BLAND_AFTER_STALLS", 1)
        if block is not None:
            monkeypatch.setattr(simplex, "_PRICING_BLOCK", block)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        got = (sol.iterations, sol.phase1_iterations, sol.objective_value.hex(), sol.indices.tolist())
        assert got == pinned[:4]
        if len(pinned) > 4:
            assert sol.basis == pinned[4]

    def test_ratio_tie_leaves_by_smallest_basis_index(self, monkeypatch):
        # a degenerate integer program whose ratio test ties between the
        # basic columns 1 and 4 while Bland's rule is on
        lp = make_lp(
            [0, 3, -2, 2, 1], [[1, 1, 1, 1, 1], [-2, -2, 2, 1, 2], [0, 1, 2, 1, 1]], [1, 2, 2]
        )
        ties = []
        choose = simplex._choose_leaving

        def spy(tab, w, bland):
            eligible = w > simplex._PIVOT_TOL
            ratios = np.full(w.size, np.inf)
            ratios[eligible] = tab.x_b[eligible] / w[eligible]
            tied = np.flatnonzero(ratios <= ratios.min() + 1e-12)
            row = choose(tab, w, bland)
            if bland and tied.size > 1:
                ties.append(([tab.basis[r] for r in tied], tab.basis[row]))
            return row

        monkeypatch.setattr(simplex, "_choose_leaving", spy)
        monkeypatch.setattr(simplex, "_BLAND_AFTER_STALLS", 1)
        sol = solve(lp)
        assert ties == [([1, 4], 1)]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(brute_force_optimum(lp), abs=1e-12)

    def test_drive_out_replaces_the_artificial_of_a_dependent_zero_row(self, monkeypatch):
        # column 20 is in the third block of 7
        replaced = []
        drive_out_artificials = simplex._drive_out_artificials

        def drive_out(tab):
            before = list(tab.basis)
            drive_out_artificials(tab)
            replaced.extend((r, j) for r, (i, j) in enumerate(zip(before, tab.basis)) if i != j)

        monkeypatch.setattr(simplex, "_drive_out_artificials", drive_out)
        monkeypatch.setattr(simplex, "_PRICING_BLOCK", 7)
        sol = solve(zero_row_program())
        assert replaced == [(2, 20)]
        assert sol.basis[0] == 40  # row 0's artificial, at zero for good

    @pytest.mark.parametrize(
        "program,block",
        [(lattice([0.4, 0.5, 0.0, 0.1], 4, 0.05), 512), (zero_row_program, 7)],
        ids=["lattice", "dense-redundant"],
    )
    def test_no_pricing_spans_more_than_a_block(self, program, block, monkeypatch):
        lp = program()
        spans = []
        monkeypatch.setattr(simplex, "_BLAND_AFTER_STALLS", 1)
        monkeypatch.setattr(simplex, "_PRICING_BLOCK", block)
        if isinstance(lp.row_matrix, AmplitudeGrid):
            owner, dot = lp.row_matrix, lp.row_matrix.dot
            wrapped = lambda y, lo, hi: spans.append(hi - lo) or dot(y, lo, hi)
        else:
            owner, dot = simplex._DenseRows, simplex._DenseRows.dot
            wrapped = lambda self, y, lo, hi: spans.append(hi - lo) or dot(self, y, lo, hi)
        monkeypatch.setattr(owner, "dot", wrapped)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL and sol.phase1_iterations > 0
        assert lp.n_cols > block and len(spans) > sol.iterations
        assert max(spans) <= block


class TestLatticeProgram:
    """A rank-4 lattice program at delta = 0.02: 68,393 columns, several
    pricing blocks even at the default block size."""

    @pytest.fixture(scope="class")
    def lp(self):
        state = FockDiagonalState(0, np.array([0.6, 0.2, 0.15, 0.05]))
        return assemble_lp(state, build_grid(4, 0.02))

    def test_pricing_blocks_agree(self, lp, monkeypatch):
        sols = []
        for block in (512, 4096, simplex._PRICING_BLOCK):
            monkeypatch.setattr(simplex, "_PRICING_BLOCK", block)
            sols.append(solve(lp))
        for sol in sols:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.indices.tolist() == [0, 53214, 53215, 53248]
            assert sol.objective_value == pytest.approx(
                sols[0].objective_value, abs=1e-12
            )

    @pytest.fixture(scope="class")
    def thermal_lp(self):
        return assemble_lp(truncated_thermal(0.5, 6), build_grid(6, 0.05))

    @pytest.mark.parametrize("program", ["lp", "thermal_lp"])
    def test_row_major_and_column_major_agree(self, program, request):
        # the layout changes how pricing rounds, and so may move pivots,
        # but not the optimal vertex
        # (here: the run form against the dense matrix in both layouts)
        lp = request.getfixturevalue(program)
        dense = lp.row_matrix.columns(np.arange(lp.n_cols))
        sol = solve(lp)
        for matrix in (dense, np.asfortranarray(dense)):
            ref = solve(StandardFormLp(lp.objective, matrix, lp.rhs))
            assert sol.status is ref.status is LpStatus.OPTIMAL
            assert sol.indices.tolist() == ref.indices.tolist()
            assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-12)

    def test_solve_makes_no_copy_of_the_matrix(self, lp):
        tracemalloc.start()
        try:
            solve(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * lp.n_rows * lp.n_cols  # the dense matrix's bytes


class TestRunMatrix:
    """The row matrices the solver reads: a dense array's adapter and a
    lattice's coded grid."""

    def test_dense_pricing_is_c_minus_y_a(self):
        rng = np.random.default_rng(3)
        a, c, y = rng.normal(size=(5, 40000)), rng.normal(size=40000), rng.normal(size=5)
        dense, one_row = simplex._DenseRows(a), simplex._DenseRows(a[:1])
        for lo, hi in ((0, 16384), (16384, 32768), (32768, 40000), (0, 40000)):
            got = simplex._price_block(c, dense, y, lo, hi)
            assert got.tobytes() == (c[lo:hi] - y @ a[:, lo:hi]).tobytes()
            # a single row too
            got = simplex._price_block(c, one_row, y[:1], lo, hi)
            assert got.tobytes() == (c[lo:hi] - y[:1] @ a[:1, lo:hi]).tobytes()
        idx = np.array([3, 39999, 0])
        assert dense.columns(idx).tobytes() == a[:, idx].tobytes()
        assert dense.columns(7).tobytes() == a[:, 7].copy().tobytes()

    @pytest.mark.parametrize("rank,delta", [(2, 0.01), (4, 0.05), (6, 0.1)])
    def test_run_form_reads_as_its_dense_matrix(self, rank, delta):
        grid = build_grid(rank, delta)
        n = grid.shape[1]
        dense = grid.columns(np.arange(n))
        assert dense.shape == grid.shape == (rank, n)
        np.testing.assert_array_equal(dense[0], 1.0)
        np.testing.assert_array_equal(dense[1:], (grid.steps(np.arange(n)) * delta) ** 2)
        idx = np.random.default_rng(0).integers(0, n, size=50)
        np.testing.assert_array_equal(grid.columns(idx), dense[:, idx])
        for j in idx[:5]:
            np.testing.assert_array_equal(grid.columns(j), dense[:, j])
        y = np.random.default_rng(1).normal(size=rank)
        for lo, hi in ((0, n), (n // 3, n // 3 + 1), (n // 3, 2 * n // 3)):
            np.testing.assert_allclose(
                grid.dot(y, lo, hi), y @ dense[:, lo:hi], rtol=1e-14, atol=1e-15
            )


    @pytest.mark.parametrize(
        "grid",
        [
            build_grid(4, 0.05),
            build_grid(2, 0.002),
            build_grid(3, 0.003),
            neighborhood_grid(4, 0.002, np.array([[0.3, 0.5, 0.1], [0.31, 0.2, 0.4]]), 0.01),
        ],
        ids=["uint8", "uint16", "uint16-rank3", "uint16-neighbourhood"],
    )
    def test_coded_row_reads_as_its_expansion(self, grid):
        # every coded row against the same run form with its rows stored as
        # floats, bit for bit
        assert grid.codes.dtype == grid.run_codes.dtype
        assert grid.codes.dtype == (np.uint8 if grid.delta == 0.05 else np.uint16)
        floats = FloatRunForm.of(grid)
        assert grid.shape == floats.shape
        n, m = grid.shape[1], grid.rank
        rng = np.random.default_rng(2)
        y, y2 = rng.normal(size=m), rng.normal(size=m)
        idx = rng.integers(0, n, size=50)
        assert grid.columns(idx).tobytes() == floats.columns(idx).tobytes()
        assert grid.columns(idx[0]).tobytes() == floats.columns(idx[0]).tobytes()
        for lo, hi in [(0, n), (n // 3, n // 3 + 1), (n // 3, 2 * n // 3), (n - 7, n)]:
            block = np.arange(lo, hi)
            assert grid.columns(block).tobytes() == floats.columns(block).tobytes()
            # the second product reads the block's run rows kept from the first
            for yk in (y, y2):
                assert grid.dot(yk, lo, hi).tobytes() == floats.dot(yk, lo, hi).tobytes()

    def test_coded_matrix_checks_its_codes(self):
        # the codes are the grid's coordinates, checked once as the grid is
        # made: runs (1, 0..1) and (2, 1..2) at delta = 0.5
        prefix, first = [np.array([1, 2], dtype=np.uint8)], np.array([0, 1], dtype=np.uint8)
        counts = np.array([2, 2], dtype=np.uint8)
        grid = AmplitudeGrid(3, 0.5, prefix, first, counts)
        assert grid.shape == (3, 4)
        assert grid.columns(np.arange(4)).tolist() == [
            [1.0] * 4, [0.25] * 2 + [1.0] * 2, [0.0, 0.25, 0.25, 1.0]
        ]
        for arr in (grid.starts, grid.run_codes, grid.codes, grid.squares):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            AmplitudeGrid(3, 0.5, [prefix[0] + 1], first, counts)
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            AmplitudeGrid(3, 0.5, [prefix[0].astype(np.int64) - 2], first, counts)
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            AmplitudeGrid(3, 0.5, prefix, first + 1, counts)
        with pytest.raises(ValueError, match="not integer"):
            AmplitudeGrid(3, 0.5, [prefix[0].astype(float)], first, counts)
        with pytest.raises(ValueError, match="not integer"):
            AmplitudeGrid(3, 0.5, prefix, first.astype(float), counts)
        # a code past the table in the narrow dtypes themselves
        for dtype, delta, top in ((np.uint8, 0.5, 2), (np.uint16, 0.002, 500)):
            big = np.array([top + 1], dtype=dtype)
            one, zero = np.ones(1, dtype=dtype), np.zeros(1, dtype=dtype)
            with pytest.raises(ValueError, match=rf"\[0, {top}\]"):
                AmplitudeGrid(3, delta, [big], zero, one)
            with pytest.raises(ValueError, match=rf"\[0, {top}\]"):
                AmplitudeGrid(3, delta, [zero], big, one)

    @pytest.mark.parametrize(
        "pops,rank,delta,pivots",
        [
            ([0.6, 0.2, 0.15, 0.05], 4, 0.02, 71),
            (None, 6, 0.05, 366),
            ([0.4, 0.5, 0.0, 0.1], 4, 0.05, 14),
        ],
        ids=["rank4", "thermal-rank6", "stalling-rank4"],
    )
    def test_solver_reads_any_row_matrix(self, pops, rank, delta, pivots):
        # a lattice program solves through any object with the three
        # members exactly as through the grid itself
        s = truncated_thermal(0.5, 6) if pops is None else FockDiagonalState(0, np.array(pops))
        lp = assemble_lp(s, build_grid(rank, delta))
        duck = StandardFormLp(lp.objective, FloatRunForm.of(lp.row_matrix), lp.rhs)
        sol, ref = solve(duck), solve(lp)
        assert sol.status is ref.status is LpStatus.OPTIMAL
        assert sol.iterations == ref.iterations == pivots
        assert sol.basis == ref.basis
        assert sol.objective_value.hex() == ref.objective_value.hex()


class FloatRunForm:
    """A run form whose run rows and column rows are stored as floats, read
    as a grid read them before its rows were coded."""

    def __init__(self, run_rows, starts, col_rows):
        self.run_rows, self.starts, self.col_rows = run_rows, starts, col_rows
        self.shape = (len(run_rows) + len(col_rows), col_rows.shape[1])

    @classmethod
    def of(cls, grid):
        runs = np.vstack([np.ones(grid.starts.size), grid.squares[grid.run_codes]])
        return cls(runs, grid.starts, grid.squares[grid.codes][None, :])

    def _span(self, lo, hi):
        # a slice, so that run_rows[:, runs] is a view with rows of unit
        # stride, as pricing read it (a fancy index gives another layout,
        # which matmul sums in another order)
        counts = np.diff(np.clip(np.append(self.starts, self.shape[1]), lo, hi))
        runs = np.flatnonzero(counts)
        return slice(runs[0], runs[-1] + 1), counts[runs]

    def dot(self, y, lo, hi):
        p = len(self.run_rows)
        out = y[p] * self.col_rows[0, lo:hi] if len(self.col_rows) else np.zeros(hi - lo)
        if p:
            runs, counts = self._span(lo, hi)
            out += np.repeat(y[:p] @ self.run_rows[:, runs], counts)
        return out

    def columns(self, idx):
        runs = self.starts.searchsorted(idx, side="right") - 1
        return np.concatenate((self.run_rows[:, runs], self.col_rows[:, idx]))


class TestStart:
    """A starting basis of structural columns skips phase 1 when it is
    feasible; a singular or infeasible one changes nothing."""

    @pytest.fixture
    def lp(self):
        return bounded_random_lp(np.random.default_rng(7), 3, 12)

    @staticmethod
    def assert_same_solution(sol, ref):
        assert sol.status is ref.status
        assert sol.basis == ref.basis
        assert (sol.iterations, sol.phase1_iterations) == (
            ref.iterations,
            ref.phase1_iterations,
        )
        np.testing.assert_array_equal(sol.indices, ref.indices)
        np.testing.assert_array_equal(sol.values, ref.values)

    @pytest.mark.parametrize(
        "start,match",
        [
            ([0, 1], "one column index per row"),
            ([0, 1, 2, 3], "one column index per row"),
            ([0, 1, 1], "repeats"),
            ([0, 1, 12], "must lie in"),
            ([-1, 0, 1], "must lie in"),
        ],
    )
    def test_rejects_malformed_start(self, lp, start, match):
        with pytest.raises(ValueError, match=match):
            solve(lp, start=start)

    def test_optimal_start_needs_no_pivot(self, lp):
        plain = solve(lp)
        assert plain.phase1_iterations > 0
        started = solve(lp, start=plain.basis)
        assert (started.iterations, started.phase1_iterations) == (0, 0)
        assert started.objective_value == pytest.approx(plain.objective_value, abs=1e-12)

    def test_singular_start_is_ignored(self, lp):
        a = lp.row_matrix.copy()
        a[:, 1] = 2.0 * a[:, 0]
        singular = make_lp(lp.objective, a, lp.rhs)
        self.assert_same_solution(solve(singular, start=[0, 1, 2]), solve(singular))

    def test_ill_conditioned_start_is_ignored(self):
        # two nearly parallel columns: the start's basic solution is
        # nonnegative, but its condition number is past 1/(rows * eps)
        a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0, 1.0]])
        lp = make_lp([1.0, 2.0, 0.5, 0.3], a, [1.0, 1.0])
        assert np.all(np.linalg.inv(a[:, :2]) @ lp.rhs >= 0.0)
        sol, ref = solve(lp, start=[0, 1]), solve(lp)
        assert sol.phase1_iterations > 0
        assert sol.objective_value == ref.objective_value
        self.assert_same_solution(sol, ref)

    def test_infeasible_start_is_ignored(self, lp):
        infeasible = next(
            list(cols)
            for cols in combinations(range(lp.n_cols), lp.n_rows)
            if abs(np.linalg.det(lp.row_matrix[:, cols])) > 1e-6
            and np.linalg.solve(lp.row_matrix[:, cols], lp.rhs).min() < -1e-3
        )
        self.assert_same_solution(solve(lp, start=infeasible), solve(lp))

    def test_blands_rule_from_a_start(self, monkeypatch):
        # the stalling lattice program, degenerate from its crash basis on
        state = FockDiagonalState(0, np.array([0.4, 0.5, 0.0, 0.1]))
        grid = build_grid(4, 0.05)
        lp = assemble_lp(state, grid)
        start = roof._kuhn_start(state, grid)
        expected = solve(lp).objective_value
        monkeypatch.setattr(simplex, "_BLAND_AFTER_STALLS", 1)
        sol = solve(lp, start=start)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.phase1_iterations == 0
        assert sol.objective_value == pytest.approx(expected, abs=1e-12)


class TestDeterminism:
    def test_identical_runs_identical_bases(self):
        rng = np.random.default_rng(42)
        lp = bounded_random_lp(rng, 4, 120)
        first = solve(lp)
        second = solve(lp)
        assert first.basis == second.basis
        assert first.iterations == second.iterations
        np.testing.assert_array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(first.values, second.values)

    def test_basis_order_does_not_move_the_solution(self):
        # one optimal basis set reached in every pivot order gives the same
        # bits; the reported basis keeps the order it was reached in
        lp = assemble_lp(FockDiagonalState(0, np.array([0.5, 0.3, 0.2])), build_grid(3, 0.05))
        ref = solve(lp)
        for order in permutations(ref.basis):
            sol = solve(lp, start=order)
            assert sol.iterations == 0
            assert sol.basis == list(order)
            assert sol.objective_value.hex() == ref.objective_value.hex()
            assert sol.indices.tolist() == ref.indices.tolist()
            assert sol.values.tobytes() == ref.values.tobytes()


class TestResiduals:
    def test_perturbed_primal_raises_residual(self):
        rng = np.random.default_rng(5)
        lp = bounded_random_lp(rng, 3, 20)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        j = int(sol.indices[0])
        bumped = replace(sol, values=sol.values + np.where(sol.indices == j, 1e-3, 0.0))
        eq, _ = residuals(lp, bumped)
        column_norm = np.abs(lp.row_matrix[:, j]).max()
        assert eq >= 1e-3 * column_norm - 1e-12


class TestDumpFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        lp = bounded_random_lp(rng, 3, 12)
        path = tmp_path / "program.lp"
        write_lp(lp, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rows=3 cols=12"
        assert len(lines) == 1 + 1 + 3
        assert len(lines[1].split()) == 12
        assert all(len(line.split()) == 13 for line in lines[2:])
        objective, row_matrix, rhs = parse_dump(path)
        np.testing.assert_array_equal(objective, lp.objective)
        np.testing.assert_array_equal(row_matrix, lp.row_matrix)
        np.testing.assert_array_equal(rhs, lp.rhs)

    def test_lattice_dump_reads_three_members(self, tmp_path):
        # the dump reads a row matrix through the solver's members alone
        grid = build_grid(4, 0.05)
        lp = assemble_lp(FockDiagonalState(0, np.array([0.5, 0.3, 0.1, 0.1])), grid)
        duck = StandardFormLp(lp.objective, FloatRunForm.of(grid), lp.rhs)
        write_lp(lp, tmp_path / "grid.lp")
        write_lp(duck, tmp_path / "duck.lp")
        assert (tmp_path / "grid.lp").read_bytes() == (tmp_path / "duck.lp").read_bytes()
