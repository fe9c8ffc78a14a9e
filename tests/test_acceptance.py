"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the assertions make the suite fail if any criterion fails.
"""

import numpy as np
import pytest

from fockroof import (
    FockDiagonalState,
    GridResolutionWarning,
    PhaseLabel,
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
    solve,
    truncated_thermal,
)
from fockroof.cli import main

from conftest import (
    ensemble_alpha_stats,
    kernel_ansatz,
    random_trimmed_state,
    reconstruct_density,
)
from test_simplex import bounded_random_lp

# Spacing of the reference rank-4 instance.  A nominal 0.0099 is sometimes
# quoted for it, but only 0.00999 reproduces the known 537052-column
# dimension (and the optima pinned below); 0.0099 gives 551639 columns.
REFERENCE_DELTA = 0.00999

EXCEPTION_STATE_A = [0.92, 0.06, 0.01, 0.01]
EXCEPTION_STATE_B = [0.83, 0.15, 0.01, 0.01]


def state(offset, pops):
    return FockDiagonalState(offset, np.asarray(pops, float))


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Root of fn on a sign-changing bracket [lo, hi], to within tol."""
    flo = fn(lo)
    if (flo > 0) == (fn(hi) > 0):
        raise ValueError("fn must change sign on [lo, hi]")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2.0


def report(num: int, description: str, ok: bool, detail: str = ""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}{detail}")
    assert ok, f"criterion {num} failed: {description}{detail}"


def test_criterion_1_rank2_closed_form_vs_lp():
    worst = 0.0
    support_ok = True
    for n in (0, 1, 2):
        for k in range(1, 20):
            p = 0.05 * k
            est = estimate_nonclassicality(state(n, [1.0 - p, p]), 0.01)
            worst = max(worst, abs(est.value - rank2_nonclassicality(n, p)))
            xs = est.amplitudes[:, 1]
            target = np.sqrt(p)
            nearest = round(target / 0.01) * 0.01
            dominant = xs[int(np.argmax(est.weights))]
            if abs(dominant - nearest) > 1e-9:
                support_ok = False
            if np.any(np.abs(xs - target) > 0.01 + 1e-9):
                support_ok = False
    report(
        1,
        "rank-2 closed form vs LP on the 0.05 population grid",
        worst <= 1e-3 and support_ok,
        f" (max gap {worst:.2e}, support concentrated at sqrt(p): {support_ok})",
    )


def test_criterion_2_single_spike_pin():
    est = estimate_nonclassicality(state(0, [0.84, 0.16]), 0.01)
    xs = est.amplitudes[:, 1]
    ok = (
        abs(est.value - 0.0256) <= 1e-9
        and est.weights.size == 1
        and abs(xs[0] - 0.4) <= 1e-12
        and abs(est.weights[0] - 1.0) <= 1e-9
    )
    report(2, "p=0.16 spike at x=0.4 with unit weight", ok, f" (value {est.value!r})")


def test_criterion_3_grid_count_pin():
    published = count_grid_points(4, REFERENCE_DELTA)
    materialized = build_grid(4, REFERENCE_DELTA).n_points
    literal = count_grid_points(4, 0.0099)
    ok = published == 537052 and materialized == 537052 and literal == 551639
    report(
        3,
        "rank-4 grid dimension matches the published 537052",
        ok,
        f" (0.00999 -> {published}, literal 0.0099 -> {literal})",
    )


@pytest.mark.slow
def test_criterion_4_exception_state_pins():
    label_a, value_a, *_ = classify(state(0, EXCEPTION_STATE_A))
    label_b, value_b, *_ = classify(state(0, EXCEPTION_STATE_B))
    lp_a = estimate_nonclassicality(state(0, EXCEPTION_STATE_A), REFERENCE_DELTA).value
    lp_b = estimate_nonclassicality(state(0, EXCEPTION_STATE_B), REFERENCE_DELTA).value
    ok = (
        label_a is PhaseLabel.TRIPLET0
        and abs(value_a - 0.01625) <= 1e-6
        and abs(lp_a - 0.0153096) <= 5e-6
        and label_b is PhaseLabel.QUARTET
        and abs(value_b - 0.0194274) <= 1e-6
        and abs(lp_b - 0.0190649) <= 5e-6
    )
    report(
        4,
        "exception states: ansatz and 537k-column LP pins",
        ok,
        f" (ansatz {value_a:.7f}/{value_b:.7f}, lp {lp_a:.7f}/{lp_b:.7f})",
    )


def test_criterion_5_metrological_power_pins():
    power_a = quadrature_qfi(state(0, EXCEPTION_STATE_A)).power
    power_b = quadrature_qfi(state(0, EXCEPTION_STATE_B)).power
    fock_ok = all(
        quadrature_qfi(state(m, [1.0])).power == float(m) for m in range(6)
    )
    ok = power_a == 0.0 and power_b == 0.0 and fock_ok
    report(
        5,
        "metrological power: zero for exception states, m for Fock states",
        ok,
        f" (W_a={power_a}, W_b={power_b})",
    )


def test_criterion_6_rank3_phase_geometry():
    threshold_ok = True
    for n in (0, 1, 2, 3):
        expected = (2.0 + n) / (3.0 + 2.0 * n)

        # each pair's invested fraction is 1 - x_k² of the level it leaves out
        def upper_margin(p2):
            s = state(n, [1.0 - p2, 0.0, p2])
            return p2 - (1.0 - kernel_ansatz(s, PhaseLabel.UPPER_PAIR).atom[0] ** 2)

        def lower_margin(p2):
            s = state(n, [1.0 - p2, 0.0, p2])
            return (1.0 - p2) - (1.0 - kernel_ansatz(s, PhaseLabel.LOWER_PAIR).atom[2] ** 2)

        up_root = bisect_root(upper_margin, 1e-6, 1.0 - 1e-6)
        low_root = bisect_root(lower_margin, 1e-6, 1.0 - 1e-6)
        if abs(up_root - expected) > 1e-12 or abs(low_root - expected) > 1e-12:
            threshold_ok = False

    coincidence = 0.0
    for n in (0, 1):
        smax = (2.0 + n) / (3.0 + 2.0 * n)
        for span in np.linspace(0.05, smax, 25):
            p2 = (1.0 + n) * span**2 / ((2.0 + n) * (1.0 - span))
            s = state(n, [1.0 - span, span - p2, p2])
            up = kernel_ansatz(s, PhaseLabel.UPPER_PAIR).value
            coincidence = max(coincidence, abs(up - kernel_ansatz(s, PhaseLabel.TRIPLET).value))
        rmax = (1.0 + n) / (3.0 + 2.0 * n)
        for r in np.linspace(0.02, rmax, 25):
            p1 = r * ((3.0 + 2.0 * n) * r - (1.0 + n)) / ((1.0 + n) * (r - 1.0))
            s = state(n, [r - p1, p1, 1.0 - r])
            low = kernel_ansatz(s, PhaseLabel.LOWER_PAIR).value
            coincidence = max(coincidence, abs(low - kernel_ansatz(s, PhaseLabel.TRIPLET).value))
    ok = threshold_ok and coincidence <= 1e-10
    report(
        6,
        "rank-3 thresholds (2+n)/(3+2n) and boundary value coincidence",
        ok,
        f" (thresholds exact: {threshold_ok}, max boundary gap {coincidence:.2e})",
    )


@pytest.mark.slow
def test_criterion_7_rank3_lattice_agreement():
    worst = 0.0
    for i in range(21):
        for j in range(21 - i):
            p2, p1 = 0.05 * i, 0.05 * j
            p0 = max(1.0 - p2 - p1, 0.0)
            full = state(0, [p0, p1, p2])
            ansatz = classify(full)[1]
            work = full.trimmed()
            if work.rank == 1:
                lp = float(work.offset)
            else:
                lp = estimate_nonclassicality(work, 0.01).value
            worst = max(worst, abs(lp - ansatz))
    report(
        7,
        "rank-3 LP vs ansatz on the 0.05 triangular lattice",
        worst <= 2e-3,
        f" (max gap {worst:.2e})",
    )


def test_criterion_8_composite_identity():
    whole = estimate_nonclassicality(state(0, [0.6, 0.2, 0.2]), 0.01).value
    part = estimate_nonclassicality(state(0, [0.5, 0.25, 0.25]), 0.01).value
    label_whole = classify(state(0, [0.6, 0.2, 0.2]))[0]
    label_part = classify(state(0, [0.5, 0.25, 0.25]))[0]
    ok = (
        abs(whole - 0.2) <= 1e-3
        and abs(whole - 0.8 * part) <= 2e-3
        and label_whole is PhaseLabel.UPPER_PAIR
        and label_part is PhaseLabel.TRIPLET
    )
    report(
        8,
        "composite state splits into 0.8 x boundary state + vacuum",
        ok,
        f" (N={whole:.6f}, 0.8*N_part={0.8 * part:.6f})",
    )


@pytest.mark.slow
def test_criterion_9_truncated_thermal_experiment():
    ratios = {}
    mean6 = None
    # the top populations of ranks 5 and 6 are below 4*delta^2 = 0.01
    with pytest.warns(GridResolutionWarning) as record:
        for m in range(2, 7):
            thermal = truncated_thermal(0.5, m)
            n_m = mean_photon(thermal)
            steps = refine(thermal, 0.05, 3)
            ratios[m] = steps[-1].value / n_m
            if m == 6:
                mean6 = n_m
    assert len(record) == 2
    decreasing = all(ratios[m + 1] < ratios[m] for m in range(2, 6))
    ok = (
        abs(ratios[2] - 0.25) <= 1e-6
        and abs(mean6 - 0.491758) <= 1e-6
        and ratios[6] <= 0.011 + 1e-3
        and decreasing
    )
    report(
        9,
        "truncated thermal: N per unit energy decays from 0.25 below 0.011",
        ok,
        f" (ratios {['%.4f' % ratios[m] for m in range(2, 7)]}, n_6 {mean6:.6f})",
    )


def test_criterion_10_property_suites(rng):
    failures = []

    # LP vertex property on random programs
    for seed in range(25):
        local = np.random.default_rng(seed)
        rows = int(local.integers(2, 7))
        cols = int(local.integers(10, 201))
        lp = bounded_random_lp(local, rows, cols)
        sol = solve(lp)
        if np.count_nonzero(sol.values > 1e-10) > rows:
            failures.append(f"vertex support > rows at seed {seed}")

    # decomposition roundtrip and sandwich on random states
    for i in range(200):
        s = random_trimmed_state(rng)
        est = estimate_nonclassicality(s, 0.05)
        power = quadrature_qfi(s).power
        slack = 10.0 * 0.05**2 * (s.offset + s.rank)
        if not (power - 1e-9 <= est.value <= simple_bound(s) + slack):
            failures.append(f"sandwich violated on state {i}")
        if i % 10 == 0:
            dec = expand_histogram(s, est)
            rho = reconstruct_density(dec)
            off = np.abs(rho - np.diag(np.diag(rho))).max()
            diag_err = np.abs(np.diag(rho).real - s.populations).max()
            alpha_sq, _ = ensemble_alpha_stats(dec)
            if off > 1e-10 or diag_err > 1e-9 or abs(alpha_sq) > 1e-10:
                failures.append(f"roundtrip violated on state {i}")

    # convexity of the estimate under mixing on a shared window
    for i in range(20):
        rank = int(rng.integers(2, 5))
        n = int(rng.integers(0, 3))
        pa = np.maximum(rng.dirichlet(np.ones(rank)), 0.05)
        pa /= pa.sum()
        pb = np.maximum(rng.dirichlet(np.ones(rank)), 0.05)
        pb /= pb.sum()
        lam = float(rng.uniform(0.1, 0.9))
        mix = lam * pa + (1.0 - lam) * pb
        mix /= mix.sum()
        ea = estimate_nonclassicality(state(n, pa), 0.05).value
        eb = estimate_nonclassicality(state(n, pb), 0.05).value
        em = estimate_nonclassicality(state(n, mix), 0.05).value
        if em > lam * ea + (1.0 - lam) * eb + 1e-8:
            failures.append(f"convexity violated on pair {i}")

    # determinism: repeated solves and repeated CLI runs agree bitwise
    lp = bounded_random_lp(np.random.default_rng(77), 4, 150)
    if solve(lp).basis != solve(lp).basis:
        failures.append("solver basis not reproducible")
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        a = pathlib.Path(tmp) / "a.json"
        b = pathlib.Path(tmp) / "b.json"
        args = ["eval", "--p", "0.6,0.2,0.2", "--delta", "0.02", "--format", "json"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        if a.read_bytes() != b.read_bytes():
            failures.append("cli output not byte-identical")

    # classification sanity rides along with the property suite: the LP
    # estimate of a compositely decomposed state lies below the simple bound
    # by more than the lattice's resolution error
    composite = state(0, [0.6, 0.2, 0.2])
    value = estimate_nonclassicality(composite, 0.01).value
    if simple_bound(composite) - value <= 1e-6 + 10.0 * 0.01**2:
        failures.append("composite state misclassified")

    report(
        10,
        "property suites: vertex, roundtrip, sandwich, convexity, determinism",
        not failures,
        f" ({len(failures)} failures{': ' + '; '.join(failures[:3]) if failures else ''})",
    )
