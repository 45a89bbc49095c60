"""Correctness checks on the files each benchmark operation writes.

Every check reads the operation's output directory and returns a list of
failure messages, empty when the output is correct.  The reference values
are closed forms and invariants computed here, apart from vfsim: the exact
collision profile, the quadrature of the reduced run's initial energy, the
rigid rotation of the point-vortex square, and the energy scaling of the
travelling waves.  Nothing is compared with a stored copy of an earlier
output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# collision preset: centre vortex plus the unit square, threshold 2 % of
# the backbone spacing (1), grid L = 20, M = 512, dt = 2.5e-4
COLLISION_L, COLLISION_M, COLLISION_DT, COLLISION_THRESHOLD = 20.0, 512, 2.5e-4, 0.02
# reduced preset: profile 1 + 0.05 exp(-sigma^2), omega = 1, L = 128, M = 4096
REDUCED_L, REDUCED_M, REDUCED_OMEGA, REDUCED_AMP = 128.0, 4096, 1.0, 0.05
REDUCED_FLOOR = 0.05
# point-vortex preset: unit square, unit circulations, T = 10
SQUARE_OMEGA = 1.5


def _status(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "status.json"), encoding="ascii") as fh:
        return json.load(fh)


def _columns(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, i] for i, name in enumerate(header)}


def _nodes(half_length: float, num_points: int) -> np.ndarray:
    h = 2.0 * half_length / num_points
    return -half_length + h * np.arange(num_points)


def collision_phi(t: float, sigma: np.ndarray) -> np.ndarray:
    """1 - exp(-sigma^2/(1-4i(1-t)))/sqrt(1-4i(1-t)), the exact profile."""
    d = 1.0 - 4j * (1.0 - t)
    return 1.0 - np.exp(-(sigma**2) / d) / np.sqrt(d)


def collision_crossing_time() -> float:
    """First t at which min over the preset grid of |Phi(t)| hits the threshold."""
    sigma = _nodes(COLLISION_L, COLLISION_M)
    lo, hi = 0.75, 1.0  # |Phi| > threshold at lo, = 0 at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.abs(collision_phi(mid, sigma)).min() > COLLISION_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return hi


def check_collision(out_dir: str) -> list[str]:
    fails = []
    status = _status(out_dir)
    if status["status"] != "CollisionDetected":
        return [f"status {status['status']}, expected CollisionDetected"]
    hit = status["hitting_times"]
    if abs(hit["sigma_star"]) > 2.0 * COLLISION_L / COLLISION_M:
        fails.append(f"sigma* = {hit['sigma_star']} is more than a grid step off 0")
    j, k = hit["pair"]
    if j != 0 or k not in (1, 2, 3, 4):
        fails.append(f"pair ({j}, {k}) is not the centre and an outer filament")
    halt = hit["collision_time"]
    if not 0.75 < halt <= collision_crossing_time() + COLLISION_DT:
        fails.append(f"halt at t = {halt} outside (0.75, crossing + dt]")
    cols = _columns(os.path.join(out_dir, "energies.csv"))
    sigma = _nodes(COLLISION_L, COLLISION_M)
    for t in (0.0, 0.25, 0.5, 0.75):
        rows = np.flatnonzero(np.abs(cols["t"] - t) < 1e-9)
        if rows.size != 1:
            fails.append(f"no single energies.csv row at t = {t}")
            continue
        exact = float(np.abs(collision_phi(t, sigma)).min())
        err = abs(cols["min_sep"][rows[0]] - exact)
        if not err <= 1e-8:
            fails.append(f"min_sep at t = {t} off the closed form by {err:.3e}")
    return fails


def check_hexagon(out_dir: str) -> list[str]:
    status = _status(out_dir)
    if status["status"] != "Completed":
        return [f"status {status['status']}, expected Completed"]
    cols = _columns(os.path.join(out_dir, "energies.csv"))
    fails = []
    # H(0) changes sign from seed to seed (seed 1729: |H(0)| = 1.1e-4, and
    # the drift relative to it is 6.9e-6), so the drift is taken relative to
    # |H(0)| + E(0): E >= 0 is the perturbation's coercive energy
    h = cols["H"]
    drift_h = float(np.max(np.abs(h - h[0]))) / (abs(h[0]) + cols["E"][0])
    if not drift_h < 1e-6:
        fails.append(f"drift of H relative to |H(0)| + E(0) {drift_h:.3e} >= 1e-6")
    a = cols["A"]
    drift_a = float(np.max(np.abs(a - a[0])))
    if not drift_a <= 1e-10:
        fails.append(f"drift of A {drift_a:.3e} > 1e-10")
    if not math.isclose(cols["t"][-1], 1.0, abs_tol=1e-12):
        fails.append(f"last sample at t = {cols['t'][-1]}, expected 1")
    return fails


def reduced_initial_energy() -> float:
    """E(0) of 1 + a exp(-sigma^2) by the trapezoid rule on the preset grid.

    E = (1/2) int |Phi'|^2 + (omega/2) int (|Phi|^2 - 1 - ln |Phi|^2), with
    the derivative taken in closed form.
    """
    sigma = _nodes(REDUCED_L, REDUCED_M)
    h = 2.0 * REDUCED_L / REDUCED_M
    bump = REDUCED_AMP * np.exp(-(sigma**2))
    mod_sq = (1.0 + bump) ** 2
    kinetic = 0.5 * np.sum((2.0 * sigma * bump) ** 2)
    potential = 0.5 * REDUCED_OMEGA * np.sum(mod_sq - 1.0 - np.log(mod_sq))
    return float(h * (kinetic + potential))


def check_reduced(out_dir: str) -> list[str]:
    status = _status(out_dir)
    if status["status"] != "Completed":
        return [f"status {status['status']}, expected Completed"]
    cols = _columns(os.path.join(out_dir, "energies.csv"))
    fails = []
    e = cols["E"]
    drift = float(np.max(np.abs(e - e[0]))) / abs(e[0])
    if not drift < 1e-6:
        fails.append(f"relative drift of E {drift:.3e} >= 1e-6")
    low = float(cols["min_mod"].min())
    if not low > REDUCED_FLOOR:
        fails.append(f"min_mod {low} below the floor {REDUCED_FLOOR}")
    err = abs(e[0] - reduced_initial_energy())
    if not err <= 1e-10:
        fails.append(f"E(0) off the quadrature by {err:.3e}")
    if not math.isclose(cols["t"][-1], 5.0, abs_tol=1e-9):
        fails.append(f"last sample at t = {cols['t'][-1]}, expected 5")
    return fails


def check_point_vortex(out_dir: str) -> list[str]:
    status = _status(out_dir)
    if status["status"] != "Completed":
        return [f"status {status['status']}, expected Completed"]
    cols = _columns(os.path.join(out_dir, "trajectory.csv"))
    x = np.stack([cols[f"re_X{j}"] + 1j * cols[f"im_X{j}"] for j in range(4)], axis=1)
    fails = []
    # unit circulations: centre of inertia, angular momentum, and the log and
    # quadratic pair sums
    j, k = np.triu_indices(4, 1)
    sq = np.abs(x[:, j] - x[:, k]) ** 2
    series = {
        "center": np.abs(x.sum(axis=1) - x[0].sum()),
        "ang_mom": np.abs(x) ** 2 @ np.ones(4),
        "log_sum": np.log(sq).sum(axis=1),
        "quad_sum": sq.sum(axis=1),
    }
    for name, s in series.items():
        drift = float(np.max(np.abs(s - s[0])))
        if not drift <= 1e-8:
            fails.append(f"{name} drifts by {drift:.3e}")
    t_end = cols["t"][-1]
    if not math.isclose(t_end, 10.0, abs_tol=1e-9):
        fails.append(f"last row at t = {t_end}, expected 10")
    rotated = np.exp(1j * SQUARE_OMEGA * t_end) * x[0]
    err = float(np.max(np.abs(x[-1] - rotated)))
    if not err <= 1e-8:
        fails.append(f"final positions off the rigid rotation by {err:.3e}")
    return fails


def check_sweep(out_dir: str) -> list[str]:
    status = _status(out_dir)
    if status["status"] != "Completed":
        return [f"status {status['status']}, expected Completed"]
    cols = _columns(os.path.join(out_dir, "sweep.csv"))
    fails = []
    if not np.allclose(cols["c2"], np.linspace(1.99, 1.90, 10), rtol=0, atol=1e-12):
        fails.append("sweep.csv does not hold c2 = 1.99 ... 1.90 in 10 steps")
    worst = float(np.max(cols["residual"]))
    if not worst < 1e-6:
        fails.append(f"max residual {worst:.3e} >= 1e-6")
    slope = float(np.polyfit(np.log(2.0 - cols["c2"]), np.log(cols["energy"]), 1)[0])
    if not abs(slope - 1.5) <= 0.1:
        fails.append(f"energy exponent {slope:.4f} outside 1.5 +- 0.1")
    return fails


def check_helix(out_dir: str) -> list[str]:
    status = _status(out_dir)
    if status["status"] != "Completed":
        return [f"status {status['status']}, expected Completed"]
    fails = []
    residual = status["constants"]["residual"]
    if not residual < 1e-6:
        fails.append(f"helix residual {residual:.3e} >= 1e-6")
    # the three filaments are one field turned by 2 pi j / 3
    for name in ("helix_t0.csv", "helix_t1.csv"):
        cols = _columns(os.path.join(out_dir, name))
        base = cols["re_0"] + 1j * cols["im_0"]
        for j in (1, 2):
            turned = base * np.exp(2j * np.pi * j / 3)
            err = float(np.max(np.abs(cols[f"re_{j}"] + 1j * cols[f"im_{j}"] - turned)))
            if not err <= 1e-12:
                fails.append(f"{name}: filament {j} off the turned filament 0 by {err:.3e}")
    return fails


CHECKS = {
    "collision": check_collision,
    "hexagon": check_hexagon,
    "reduced": check_reduced,
    "point_vortex": check_point_vortex,
    "sweep": check_sweep,
    "helix": check_helix,
}


def check(label: str, out_dir: str) -> list[str]:
    """Run the check of operation ``label``; a check that raises fails."""
    try:
        return CHECKS[label](out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{label}: unreadable output ({type(exc).__name__}: {exc})"]
