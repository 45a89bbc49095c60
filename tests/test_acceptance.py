"""Acceptance suite: the eleven shipped guarantees, one test each.

Each test pins one end-to-end guarantee of the package with its tolerance
and (where stated) its runtime budget:

   1. point-vortex invariant drift on the square backbone,
   2. the polygon stability threshold at N = 8,
   3. the exact linear propagator against the Gaussian closed form,
   4. the four-filament collision scenario,
   5. energy conservation and second-order convergence of the reduced
      integrator,
   6. the travelling-wave branch: residual, first integral, propagation,
      energy scaling, modulus band and tail rate,
   7. the square energy identity and vanishing linear parts,
   8. the parallelogram preset staying on its invariant set for T = 10,
   9. the energy cap holding up to the predicted existence time,
  10. equivalence of the dilation ansatz with the reduced single-profile
      evolution,
  11. the convexity constants behind the coercivity estimate.

Tolerances are part of the contract; do not loosen them here.  Test 4's
detection-time window is met at its lower edge, through the symmetry-
tagged engine; the comment above that subclause explains why.
"""

import time

import numpy as np
import pytest

from vfsim.config import parse_config_dict
from vfsim.filaments import (
    check_Lv_vanishes,
    coercivity_check,
    collision_initial_state,
    dilation_state,
    energies,
    evolve,
    max_pair_norm,
    predicted_T,
    square_energy_identity,
    tilde_E0,
)
from vfsim.grid import derivative, make_field, make_grid
from vfsim.point_vortex import integrate, linear_stability, polygon_config
from vfsim.reduced import (
    PhiState,
    analytic_collision_phi,
    collision_modulus_bound,
    evolve_bm,
)
from vfsim.runner import build_filament_state, run
from vfsim.traveling_wave import WaveParams, a_of, build_wave, residual_tw, sweep_waves


def random_square_state(grid, scale, seed):
    """Small decaying perturbation of the unit square: three bumps each."""
    square = polygon_config(4, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(4):
        vals = np.zeros(grid.num_points, dtype=np.complex128)
        for _ in range(3):
            a = scale * rng.uniform(0.3, 1.0)
            w = rng.uniform(0.7, 1.6)
            c = rng.uniform(-2.0, 2.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            k = rng.uniform(-1.0, 1.0)
            vals += (
                a
                * np.exp(1j * phase)
                * np.exp(-(((grid.nodes - c) / w) ** 2) + 1j * k * grid.nodes)
            )
        fields.append(make_field(grid, vals))
    from vfsim.filaments import filament_state

    return filament_state(fields, square)


def test_01_point_vortex_invariants():
    cfg = polygon_config(4, 1.0, 1.0)
    start = time.perf_counter()
    traj = integrate(cfg, T=10.0, dt=1e-3)
    elapsed = time.perf_counter() - start
    for name, series in traj.invariant_series.items():
        scale = max(abs(series[0]), 1.0)
        drift = np.max(np.abs(series - series[0])) / scale
        assert drift <= 1e-8, f"{name} drift {drift:.3g}"
    assert elapsed < 1.0, f"integration took {elapsed:.2f} s"


def test_02_polygon_stability_threshold():
    start = time.perf_counter()
    spectra = {n: linear_stability(n, 1.0) for n in range(3, 11)}
    elapsed = time.perf_counter() - start
    for n, (eigenvalues, verdict) in spectra.items():
        expected = "stable" if n <= 7 else "unstable"
        assert verdict == expected, f"N={n} came out {verdict}"
        if n == 8:
            assert eigenvalues.real.max() > 1e-3
    assert elapsed < 1.0, f"stability sweep took {elapsed:.2f} s"


def test_03_linear_propagator():
    from vfsim.grid import linear_propagate

    grid = make_grid(40.0, 2048)
    f = make_field(grid, np.exp(-grid.nodes**2).astype(np.complex128))
    out = linear_propagate(f, gamma=1.0, t=1.0)
    denom = 1.0 + 4j
    exact = np.exp(-grid.nodes**2 / denom) / np.sqrt(denom)
    sup = np.abs(out.values - exact).max()
    assert sup <= 1e-10, f"propagator error {sup:.3g}"


def test_04_collision_scenario():
    grid = make_grid(20.0, 512)
    state = collision_initial_state(4, grid)
    start = time.perf_counter()
    result = evolve(
        state,
        T=1.05,
        dt=2.5e-4,
        sample_every=1000,
        delta_min=0.02,
        boundary_tol=1e-6,
    )
    elapsed = time.perf_counter() - start

    assert result.status == "CollisionDetected"
    assert abs(result.collision_sigma) <= grid.spacing, (
        f"collision at sigma={result.collision_sigma}"
    )

    positions = state.cfg.positions
    for snap in result.states:
        if snap.time > 0.76:
            continue  # the sampled times 0, 0.25, 0.5, 0.75
        exact = analytic_collision_phi(snap.time, grid.nodes)
        bound = collision_modulus_bound(snap.time)
        numeric_phi = 1.0 + snap.u[1].values / positions[1]
        assert np.abs(numeric_phi).min() > bound
        assert np.abs(exact).min() > bound
        worst = max(
            np.abs(snap.u[j].values - positions[j] * (exact - 1.0)).max()
            for j in range(1, 5)
        )
        assert worst <= 1e-8, f"t={snap.time}: analytic mismatch {worst:.3g}"

    assert elapsed < 10.0, f"collision run took {elapsed:.2f} s"

    # The exact profile crosses the separation threshold at t ~ 0.98999.
    # The data carry the C4+center tag, so the outer filaments stay exact
    # rotations of one another and the detector trips at the stage time
    # t = 0.99, the window's lower edge.  Untagged, the transverse
    # instability of the collapsing profile (local growth rate
    # ~ 0.49/(1-t)^2) amplifies the roundoff differences between the
    # filaments and trips it early, at t = 0.986125 (see
    # test_filaments.py::TestSymmetryTag).
    assert 0.99 <= result.halt_time <= 1.01, (
        f"collision detected at t={result.halt_time:.4f}, outside [0.99, 1.01]; "
        "every other subclause of this scenario (sigma* on the axis, strict "
        "modulus bound, 1e-8 match with the analytic profile, runtime) passed"
    )


def test_05_reduced_energy_conservation():
    # box sized so the dispersing bump's tail stays below the boundary
    # guard for the whole T = 5 window (this is the reduced preset grid)
    grid = make_grid(128.0, 4096)
    vals = 1.0 + 0.05 * np.exp(-grid.nodes**2)
    phi0 = make_field(grid, vals.astype(np.complex128), background=1.0)

    drifts = {}
    for dt in (1e-3, 5e-4):
        _, samples = evolve_bm(
            PhiState(phi0, omega=1.0), T=5.0, dt=dt, sample_every=100
        )
        e0 = samples[0].E
        drifts[dt] = max(abs(s.E - e0) for s in samples) / abs(e0)

    assert drifts[1e-3] < 1e-6, f"relative E drift {drifts[1e-3]:.3g}"
    order = np.log2(drifts[1e-3] / drifts[5e-4])
    assert abs(order - 2.0) <= 0.2, f"observed order {order:.2f}"


def test_06_traveling_waves():
    params = WaveParams(omega=1.0, c=float(np.sqrt(1.9)))
    grid = make_grid(400.0, 65536)
    wave = build_wave(params, grid)

    res = residual_tw(wave.v, params)
    assert res < 1e-6, f"equation residual {res:.3g}"

    deta = derivative(make_field(grid, wave.eta.astype(np.complex128))).values.real
    first_integral = np.abs(deta**2 - np.asarray(a_of(wave.eta, params))).max()
    assert first_integral < 1e-10, f"first integral off by {first_integral:.3g}"

    # modulus band: 1 - |v|^2 = eta stays under 3*(2*omega - c^2)/(2*omega)
    assert wave.eta.max() < 3.0 * params.gap / (2.0 * params.omega)

    # tail rate, fitted where eta is far above the solver floor
    mask = (grid.nodes >= 20.0) & (grid.nodes <= 60.0)
    rate = -np.polyfit(grid.nodes[mask], np.log(wave.eta[mask]), 1)[0]
    assert rate >= 0.9 * np.sqrt(params.gap), f"tail rate {rate:.4f}"

    # propagation: the profile translates at speed c under the reduced flow.
    # The long box keeps the twist-induced periodic slop inside tolerance.
    from vfsim.grid import shift_field

    big = make_grid(2048.0, 65536)
    prof = build_wave(params, big)
    startf = make_field(big, prof.periodic_part.values, background=0.0j)
    states, _ = evolve_bm(
        PhiState(startf, params.omega), T=1.0, dt=2e-3, sample_every=10**9
    )
    evolved = states[-1].phi.values * np.exp(1j * prof.twist * big.nodes)
    expected = shift_field(prof.periodic_part, -params.c).values * np.exp(
        1j * prof.twist * (big.nodes + params.c)
    )
    prop_err = np.abs(evolved - expected).max()
    assert prop_err < 1e-4, f"propagation error {prop_err:.3g}"

    # energy scaling over the sweep c^2 in {1.99, ..., 1.90}
    start = time.perf_counter()
    cs = [float(np.sqrt(c2)) for c2 in np.linspace(1.99, 1.90, 10)]
    records = sweep_waves([WaveParams(omega=1.0, c=c) for c in cs], grid)
    sweep_elapsed = time.perf_counter() - start
    gaps = np.array([2.0 - r["c2"] for r in records])
    energies_swept = np.array([r["energy"] for r in records])
    slope = np.polyfit(np.log(gaps), np.log(energies_swept), 1)[0]
    assert abs(slope - 1.5) < 0.1, f"energy exponent {slope:.4f}"
    assert sweep_elapsed < 30.0, f"sweep took {sweep_elapsed:.1f} s"


def test_07_square_identities():
    grid = make_grid(30.0, 1024)
    for seed in range(100):
        state = random_square_state(grid, scale=0.01, seed=seed)
        residual = square_energy_identity(state)
        assert residual < 1e-10, f"seed {seed}: identity residual {residual:.3g}"
        sup_v, sup_w = check_Lv_vanishes(state)
        assert sup_v < 1e-12 and sup_w < 1e-12, (
            f"seed {seed}: linear parts {sup_v:.3g}, {sup_w:.3g}"
        )


def test_08_parallelogram_preset(tmp_path):
    cfg = parse_config_dict(
        {
            "scenario": "square",
            "grid": {"L": 100, "M": 1024},
            "perturbation": {
                "kind": "parallelogram",
                "amp": 0.02,
                "width": 3.0,
                "seed": 1,
            },
            "time": {"T": 10, "dt": 1e-3, "sample_every": 500},
        }
    )
    report = run(cfg, tmp_path)
    assert report.status == "Completed", f"run ended {report.status}"
    assert report.constants["max_vw"] < 1e-10, (
        f"diagonal sums grew to {report.constants['max_vw']:.3g}"
    )
    assert report.constants["rel_drift_E"] < 1e-6, (
        f"relative E drift {report.constants['rel_drift_E']:.3g}"
    )


def test_09_energy_cap_window():
    cfg = parse_config_dict(
        {
            "scenario": "square",
            "grid": {"L": 40, "M": 1024},
            "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": 0},
            "time": {"T": 1.1, "dt": 1e-3, "sample_every": 100},
        }
    )
    grid = make_grid(cfg.L, cfg.M)
    state = build_filament_state(cfg, grid)

    te0 = tilde_E0(state)
    assert 2e-4 < te0 < 5e-3  # the "about 1e-3" regime
    horizon = predicted_T(te0, max_pair_norm(state))
    assert horizon < cfg.T  # the run actually covers the predicted window

    cap = 10.0 * te0
    result = evolve(state, T=cfg.T, dt=cfg.dt, sample_every=100, energy_cap=cap)
    for report in result.reports:
        if report.time <= horizon:
            assert report.E < cap, (
                f"E={report.E:.3g} breached 10*tilde_E0 at t={report.time}"
                f" < predicted {horizon:.3f}"
            )
    if result.status == "EnergyCapExceeded":
        assert result.halt_time >= horizon, (
            f"cap hit at {result.halt_time:.3f}, before predicted {horizon:.3f}"
        )
    else:
        assert result.status == "Completed"


def test_10_product_ansatz():
    grid = make_grid(30.0, 1024)
    triangle = polygon_config(3, 1.0, 1.0)
    vals = 1.0 + 0.05 * np.exp(-grid.nodes**2)
    phi0 = make_field(grid, vals.astype(np.complex128), background=1.0)

    filaments = evolve(dilation_state(triangle, phi0), T=1.0, dt=1e-3, sample_every=1000)
    profiles, _ = evolve_bm(
        PhiState(phi0, omega=triangle.omega), T=1.0, dt=1e-3, sample_every=10**9
    )

    phi_final = profiles[-1].phi.values
    rotation = np.exp(1j * triangle.omega * 1.0)
    worst = 0.0
    for j, x in enumerate(triangle.positions):
        expected = rotation * x * (phi_final - 1.0)
        worst = max(worst, np.abs(filaments.states[-1].u[j].values - expected).max())
    assert worst <= 1e-6, f"ansatz mismatch {worst:.3g}"


def test_11_convexity_and_coercivity():
    xs = np.linspace(0.75, 1.25, 50001)
    d = xs - 1.0
    f = np.full_like(xs, 0.5)
    nz = d != 0.0
    f[nz] = (d[nz] - np.log1p(d[nz])) / d[nz] ** 2

    assert 0.42 <= f.min() <= 0.44, f"minimum {f.min():.5f}"
    assert xs[np.argmin(f)] == pytest.approx(1.25)  # decreasing on the window
    assert f.max() <= 10.0, f"maximum {f.max():.5f}"

    grid = make_grid(30.0, 1024)
    for seed in range(100):
        state = random_square_state(grid, scale=0.01, seed=seed)
        margin = coercivity_check(energies(state), state, c=0.21)
        assert margin > 0.0, f"seed {seed}: margin {margin:.3g}"
