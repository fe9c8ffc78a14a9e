"""Output checks for the benchmark workloads.

Every check recomputes what it compares against from the physics of the
problem (closed forms, density-matrix reconstruction, the QFI lower bound)
or from properties the method guarantees (one-sided estimates, support size,
monotone energy efficiency).  Nothing here reads a stored copy of earlier
output.  Each check returns a list of error strings; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

KNOWN_RANK4_LABELS = {"Quartet", "Triplet0", "Triplet1", "Triplet2", "Triplet3", "Pair21"}


def lattice_slack(delta: float, offset: int, rank: int) -> float:
    """Resolution slack of a lattice estimate above a continuum value."""
    return 10.0 * delta * delta * (offset + rank)


def mean_photon(offset: int, pops) -> float:
    return sum((offset + k) * p for k, p in enumerate(pops))


def coherence(offset: int, amps) -> float:
    """<a> of a window state with real nonnegative amplitudes."""
    return sum(
        amps[k] * amps[k + 1] * math.sqrt(offset + k + 1) for k in range(len(amps) - 1)
    )


def simple_bound(offset: int, pops) -> float:
    """Value of the single-point decomposition with amplitudes sqrt(p)."""
    return mean_photon(offset, pops) - coherence(offset, [math.sqrt(p) for p in pops]) ** 2


def qfi_power(offset: int, pops) -> float:
    """Metrological power W = max(F - 1/2, 0), a lower bound on the roof.

    F sums (p_{m+1} - p_m)^2 / (p_{m+1} + p_m) * (m+1)/2 over adjacent photon
    numbers, with populations outside the window taken as zero.
    """
    full = dict((offset + k, p) for k, p in enumerate(pops))
    fisher = 0.0
    for m in range(max(offset - 1, 0), offset + len(pops)):
        lo, hi = full.get(m, 0.0), full.get(m + 1, 0.0)
        if lo + hi > 0.0:
            fisher += (hi - lo) ** 2 / (lo + hi) * (m + 1) / 2.0
    return max(fisher - 0.5, 0.0)


def rank2_roof(offset: int, p_upper: float) -> float:
    """Exact nonclassicality of (1-p)|n><n| + p|n+1><n+1|."""
    return offset + p_upper - (offset + 1) * p_upper * (1.0 - p_upper)


def thermal_populations(nth: float, rank: int) -> list[float]:
    """Thermal populations n^k/(1+n)^(k+1), renormalized on levels 0..rank-1."""
    raw = [nth**k / (1.0 + nth) ** (k + 1) for k in range(rank)]
    total = sum(raw)
    return [p / total for p in raw]


def trimmed_window(pops) -> tuple[int, int]:
    """(first, last) index of the nonzero populations."""
    nz = [k for k, p in enumerate(pops) if p > 0.0]
    return nz[0], nz[-1]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# eval


def check_eval(offset: int, pops: list[float], delta: float, ceiling: float, out: dict) -> list[str]:
    """Check one ``fockroof eval`` report on a rank-M window.

    ``ceiling`` is the best lattice optimum known for the state; the estimate
    may not be higher than it by more than the pin tolerance.
    """
    errors = []
    (row,) = out["rows"]
    m = len(pops)
    n_bar = mean_photon(offset, pops)
    n_lp = row["n_lp"]
    if not _close(row["mean_photon"], n_bar, 1e-12):
        errors.append(f"mean_photon {row['mean_photon']} != {n_bar}")
    if not _close(row["simple_bound"], simple_bound(offset, pops), 1e-12):
        errors.append("simple_bound differs from sqrt-population decomposition")
    if not _close(row["metrological_power"], qfi_power(offset, pops), 1e-12):
        errors.append("metrological_power differs from the QFI formula")

    # The histogram: at most M support points reproducing the populations,
    # and the estimate equals n_bar minus the weighted squared coherence.
    support = row["support"]
    if not 1 <= len(support) <= m:
        errors.append(f"support size {len(support)} not in 1..{m}")
    weights = np.array([s["weight"] for s in support])
    free = np.array([s["x"] for s in support])
    x0 = np.sqrt(np.clip(1.0 - np.sum(free * free, axis=1), 0.0, None))
    amps = np.hstack([x0[:, None], free])
    if np.any(weights < 0.0) or not _close(weights.sum(), 1.0, 1e-9):
        errors.append("support weights are not a probability vector")
    placed = weights @ (amps * amps)
    if np.max(np.abs(placed - np.asarray(pops))) > 1e-9:
        errors.append(f"support reproduces populations only to {np.max(np.abs(placed - pops)):.2e}")
    recomputed = n_bar - sum(w * coherence(offset, a) ** 2 for w, a in zip(weights, amps))
    if not _close(n_lp, recomputed, 1e-9):
        errors.append(f"n_lp {n_lp} != n_bar - sum w alpha^2 = {recomputed}")

    # The explicit ensemble rebuilds the diagonal state and cancels <a>^2.
    rho = np.zeros((m, m), dtype=complex)
    a_sq = 0.0j
    for atom in row["decomposition"]:
        c = np.array([z["re"] + 1j * z["im"] for z in atom["amplitudes"]])
        q = atom["probability"]
        rho += q * np.outer(c, c.conj())
        a = sum(c[k].conjugate() * c[k + 1] * math.sqrt(offset + k + 1) for k in range(m - 1))
        a_sq += q * a * a
    if np.max(np.abs(np.diag(rho).real - np.asarray(pops))) > 1e-9:
        errors.append("decomposition diagonal differs from the populations")
    off = rho - np.diag(np.diag(rho))
    if np.max(np.abs(off)) > 1e-10:
        errors.append(f"decomposition coherence {np.max(np.abs(off)):.2e} above 1e-10")
    if abs(a_sq) > 1e-10:
        errors.append(f"ensemble sum q<a>^2 = {abs(a_sq):.2e} above 1e-10")

    # Sandwich: QFI power <= estimate <= every known decomposition + slack.
    slack = lattice_slack(delta, offset, m)
    upper = min(row["simple_bound"], row["ansatz_value"]) + slack
    if not row["metrological_power"] <= n_lp <= upper:
        errors.append(f"n_lp {n_lp} outside [{row['metrological_power']}, {upper}]")
    if n_lp > ceiling + 5e-6:
        errors.append(f"n_lp {n_lp} above the lattice optimum {ceiling} + 5e-6")
    if row["ansatz_label"] not in KNOWN_RANK4_LABELS:
        errors.append(f"unknown ansatz label {row['ansatz_label']!r}")
    return errors


def check_grid_info(expected_points: int, out: dict) -> list[str]:
    points = out["rows"][0]["points"]
    if points != expected_points:
        return [f"grid-info reports {points} columns, expected {expected_points}"]
    return []


# ---------------------------------------------------------------------------
# thermal


def check_thermal(nth: float, lo: int, hi: int, delta: float, mean_top: float, out: dict) -> list[str]:
    errors = []
    rows = out["rows"]
    if [r["rank"] for r in rows] != list(range(lo, hi + 1)):
        return [f"thermal ranks {[r['rank'] for r in rows]} != {lo}..{hi}"]
    ratios = {}
    for r in rows:
        m = r["rank"]
        pops = thermal_populations(nth, m)
        if max(abs(a - b) for a, b in zip(r["populations"], pops)) > 1e-12:
            errors.append(f"rank {m}: populations differ from the geometric formula")
        n_bar = mean_photon(0, pops)
        if not _close(r["mean_photon"], n_bar, 1e-12):
            errors.append(f"rank {m}: mean_photon {r['mean_photon']} != {n_bar}")
        n_lp = r["n_lp"]
        if m == 1:
            if n_lp != 0.0 or r["ratio"] != 0.0:
                errors.append("rank 1 (vacuum) must report zero estimate and ratio")
            continue
        if not _close(r["ratio"], n_lp / n_bar, 1e-12):
            errors.append(f"rank {m}: ratio is not n_lp / mean_photon")
        ratios[m] = r["ratio"]
        lower = qfi_power(0, pops)
        upper = simple_bound(0, pops) + lattice_slack(delta, 0, m)
        if not lower <= n_lp <= upper:
            errors.append(f"rank {m}: n_lp {n_lp} outside [{lower}, {upper}]")
        if m == 2 and not (
            _close(n_lp, rank2_roof(0, pops[1]), 1e-6) and _close(r["ratio"], pops[1], 1e-6)
        ):
            errors.append(f"rank 2: n_lp {n_lp} != closed form {rank2_roof(0, pops[1])}")
    if hi == 6 and not _close(rows[-1]["mean_photon"], mean_top, 1e-6):
        errors.append(f"rank 6 mean photon {rows[-1]['mean_photon']} != {mean_top}")
    ranks = sorted(ratios)
    if any(ratios[a] <= ratios[b] for a, b in zip(ranks, ranks[1:])):
        errors.append(f"ratio does not fall strictly with rank: {ratios}")
    return errors


# ---------------------------------------------------------------------------
# sweep4


def sweep4_points(step: float) -> list[tuple[float, float, float, float]]:
    """(p0, p1, p2, p3) of the sweep lattice, in the order the sweep emits."""
    count = int(round(1.0 / step))
    pts = []
    for i in range(count + 1):
        for j in range(count + 1 - i):
            for k in range(count + 1 - i - j):
                p3, p2, p1 = i * step, j * step, k * step
                pts.append((max(1.0 - p3 - p2 - p1, 0.0), p1, p2, p3))
    return pts


def check_sweep4(offset: int, step: float, stride: int, delta: float, out: dict) -> list[str]:
    errors = []
    rows = out["rows"]
    points = sweep4_points(step)
    if len(rows) != len(points):
        return [f"sweep has {len(rows)} rows, expected {len(points)}"]
    slack = lattice_slack(delta, offset, 4)
    for idx, (row, pops) in enumerate(zip(rows, points)):
        where = f"row {idx} {[round(p, 4) for p in pops]}"
        if (row["p1"], row["p2"], row["p3"]) != pops[1:]:
            errors.append(f"{where}: emitted populations out of lattice order")
            continue
        if row["label"] not in KNOWN_RANK4_LABELS:
            errors.append(f"{where}: unknown label {row['label']!r}")
        value = row["value"]
        lower = qfi_power(offset, pops)
        # Every ansatz is a decomposition, so it lies between the QFI lower
        # bound and the sqrt-population (quartet) decomposition.
        if not lower - 1e-9 <= value <= simple_bound(offset, pops) + 1e-9:
            errors.append(f"{where}: ansatz value {value} outside [W, simple bound]")
        first, last = trimmed_window(pops)
        if last - first == 1:
            exact = rank2_roof(offset + first, pops[last])
            if not _close(value, exact, 1e-9):
                errors.append(f"{where}: rank-2 ansatz {value} != closed form {exact}")
        checked = stride > 0 and idx % stride == 0
        n_lp = row["n_lp"]
        if (n_lp is not None) != checked:
            errors.append(f"{where}: n_lp present={n_lp is not None}, expected {checked}")
            continue
        if n_lp is None:
            continue
        if not lower - 1e-9 <= n_lp <= value + slack:
            errors.append(f"{where}: n_lp {n_lp} outside [W={lower}, ansatz+slack={value + slack}]")
        if last - first == 1:
            exact = rank2_roof(offset + first, pops[last])
            if not exact - 1e-9 <= n_lp <= exact + lattice_slack(delta, offset + first, 2):
                errors.append(f"{where}: rank-2 n_lp {n_lp} != closed form {exact}")
        if last - first == 2 and abs(n_lp - value) > 2e-3:
            errors.append(f"{where}: rank-3 n_lp {n_lp} differs from ansatz {value} by > 2e-3")
    return errors
