"""Reduced-profile tests: energies, splitting integrator, boost, collision.

Hand oracles:
  * constant profile r: E = (omega/2)*2L*(r^2-1-ln r^2),
    E_GP = (omega/4)*2L*(r^2-1)^2, so E/E_GP = 2*(x-1-ln x)/(x-1)^2 at x=r^2;
    at x = 5/4 that ratio is 0.85940... (the convexity ratio is 0.42970...);
  * the collision profile solves the free Schrodinger equation, so its time
    derivative can be checked by central differences against the spectral
    second derivative;
  * a modulus-1 field evolves by the exact linear propagator (the nonlinear
    term vanishes), so boosted constants are plane waves.
"""

import numpy as np
import pytest

from vfsim import reduced
from vfsim.errors import (
    BoundViolated,
    BoundaryContaminated,
    GinzburgViolated,
    IncompatibleWavenumber,
    PreconditionViolated,
    ZeroModulus,
)
from vfsim.grid import (
    DEFAULT_BOUNDARY_TOL,
    boundary_deviation,
    constant_field,
    derivative,
    make_field,
    make_grid,
)
from vfsim.point_vortex import polygon_config
from vfsim.reduced import (
    EnergySample,
    PhiState,
    analytic_collision_phi,
    boost_trajectory,
    check_ginzburg,
    collision_modulus_bound,
    collision_state,
    compare_energies,
    convexity_ratio,
    energy_bm,
    energy_gp,
    energy_sample,
    evolve_bm,
    galilean_boost,
    modulus_deviation,
    reconstruct_filaments,
    step_bm,
    write_energy_csv,
)


def bump_state(grid, amplitude=0.05, omega=1.0) -> PhiState:
    phi = make_field(
        grid, 1.0 + amplitude * np.exp(-grid.nodes**2), background=1.0
    )
    return PhiState(phi=phi, omega=omega, time=0.0)


class TestEnergies:
    def test_unit_profile_zero(self):
        g = make_grid(20.0, 256)
        assert energy_bm(constant_field(g, 1.0), 1.0) == 0.0
        assert energy_gp(constant_field(g, 1.0), 1.0) == 0.0

    def test_constant_phase_zero(self):
        g = make_grid(20.0, 256)
        f = constant_field(g, np.exp(0.3j))
        assert energy_bm(f, 2.0) == pytest.approx(0.0, abs=1e-13)

    def test_constant_modulus_closed_form(self):
        g = make_grid(20.0, 512)
        r = 1.1
        f = constant_field(g, r)
        # box length 2L = 40, omega = 2
        assert energy_bm(f, 2.0) == pytest.approx(
            (2.0 / 2.0) * 40.0 * (r**2 - 1.0 - np.log(r**2)), rel=1e-12
        )
        assert energy_gp(f, 2.0) == pytest.approx(
            (2.0 / 4.0) * 40.0 * (r**2 - 1.0) ** 2, rel=1e-12
        )

    def test_gauge_covariance(self):
        g = make_grid(20.0, 512)
        base = 1.0 + 0.1 * np.exp(-g.nodes**2)
        f0 = make_field(g, base, background=1.0)
        f1 = make_field(g, np.exp(0.7j) * base, background=np.exp(0.7j))
        assert energy_bm(f1, 1.0) == pytest.approx(energy_bm(f0, 1.0), rel=1e-13)

    def test_zero_modulus_rejected(self):
        g = make_grid(20.0, 256)
        values = 1.0 - np.exp(-g.nodes**2)  # vanishes at sigma = 0
        f = make_field(g, values, background=1.0)
        with pytest.raises(ZeroModulus):
            energy_bm(f, 1.0)
        # with omega = 0 the singular term is absent
        assert energy_bm(f, 0.0) > 0.0


class TestConvexityRatio:
    def test_interval_extremes(self):
        assert convexity_ratio(np.array([1.25]))[0] == pytest.approx(
            (0.25 - np.log(1.25)) / 0.0625, rel=1e-13
        )
        assert convexity_ratio(np.array([0.75]))[0] == pytest.approx(
            (-0.25 - np.log(0.75)) / 0.0625, rel=1e-13
        )

    def test_limit_at_one(self):
        assert convexity_ratio(np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-14)

    def test_series_matches_direct_at_switch(self):
        # continuity across the |x-1| = 1e-3 switchover
        xs = np.array([1.0 - 2e-3, 1.0 - 5e-4, 1.0 + 5e-4, 1.0 + 2e-3])
        r = convexity_ratio(xs)
        direct = (xs - 1.0 - np.log(xs)) / (xs - 1.0) ** 2
        np.testing.assert_allclose(r, direct, rtol=1e-10)

    def test_scan_extremes_on_comparison_interval(self):
        xs = np.linspace(0.75, 1.25, 100001)
        r = convexity_ratio(xs)
        assert 0.42 < r.min() < 0.44
        assert r[np.argmin(r)] == r[-1]  # minimum sits at x = 5/4
        assert r.max() == r[0]  # maximum at x = 3/4
        assert r.max() < 0.61


class TestCompareEnergies:
    def test_constant_five_quarters(self):
        g = make_grid(20.0, 256)
        lo, hi = compare_energies(constant_field(g, np.sqrt(1.25)), 1.0)
        assert lo == pytest.approx(0.8594063579452875, rel=1e-12)
        assert hi == pytest.approx(lo, rel=1e-14)

    def test_vacuous_for_unit_profile(self):
        g = make_grid(20.0, 256)
        assert compare_energies(constant_field(g, 1.0), 1.0) is None

    def test_rejects_large_deviation(self):
        g = make_grid(20.0, 256)
        with pytest.raises(PreconditionViolated):
            compare_energies(constant_field(g, 1.2), 1.0)  # |Phi|^2 = 1.44

    def test_random_fields_stay_in_band(self):
        g = make_grid(30.0, 512)
        rng = np.random.default_rng(31)
        for trial in range(25):
            amp = rng.uniform(0.01, 0.11)
            width = rng.uniform(1.0, 4.0)
            values = 1.0 + amp * np.exp(-((g.nodes / width) ** 2)) * np.exp(
                1j * rng.uniform(0, 2 * np.pi)
            )
            f = make_field(g, values, background=1.0)
            out = compare_energies(f, rng.uniform(0.5, 2.0))
            assert out is not None
            lo, hi = out
            assert 0.84 <= lo <= hi <= 1.21, f"trial {trial}: ({lo}, {hi})"


def nan_profile():
    g = make_grid(20.0, 256)
    values = 1.0 + 0.05 * np.exp(-g.nodes**2)
    values[128] = np.nan
    return make_field(g, values, background=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNanProfile:
    def test_energy_bm(self):
        with pytest.raises(ZeroModulus):
            energy_bm(nan_profile(), 1.0)

    def test_check_ginzburg(self):
        with pytest.raises(ZeroModulus):
            check_ginzburg(nan_profile(), 1.0)

    def test_compare_energies(self):
        with pytest.raises(PreconditionViolated):
            compare_energies(nan_profile(), 1.0)


def test_compare_energies_band_is_raised(monkeypatch):
    """The verified band is a raised check, which ``python -O`` keeps."""
    g = make_grid(20.0, 256)
    phi = make_field(g, 1.0 + 0.05 * np.exp(-g.nodes**2), background=1.0)
    monkeypatch.setattr(reduced, "energy_bm", lambda f, omega: 10.0 * energy_gp(f, omega))
    with pytest.raises(BoundViolated, match="energy comparison failed"):
        compare_energies(phi, 1.0)


class TestCheckGinzburg:
    def test_unit_profile_trivial(self):
        g = make_grid(20.0, 256)
        report = check_ginzburg(constant_field(g, 1.0), 1.0)
        assert report.triggered and report.sup_dev == 0.0

    def test_large_bump_not_triggered(self):
        g = make_grid(20.0, 1024)
        f = make_field(g, 1.0 + 0.6 * np.exp(-g.nodes**2), background=1.0)
        report = check_ginzburg(f, 1.0)
        assert not report.triggered
        assert report.energy > 0.01

    def test_small_bump_passes(self):
        g = make_grid(20.0, 1024)
        f = make_field(g, 1.0 + 0.02 * np.exp(-g.nodes**2), background=1.0)
        report = check_ginzburg(f, 1.0)
        assert report.triggered
        assert report.sup_dev <= 0.25

    def test_violation_detected(self):
        # omega = 0 removes the potential term, so a wide O(1) bump has tiny
        # energy yet large modulus deviation: the check must flag it
        g = make_grid(128.0, 1024)
        f = make_field(
            g, 1.0 + 0.6 * np.exp(-((g.nodes / 30.0) ** 2)), background=1.0
        )
        with pytest.raises(GinzburgViolated):
            check_ginzburg(f, 0.0)


class TestStepAndEvolve:
    def test_unit_profile_fixed_point(self):
        g = make_grid(20.0, 256)
        s = PhiState(constant_field(g, 1.0), omega=1.5, time=0.0)
        out = step_bm(s, 1e-2)
        np.testing.assert_allclose(out.phi.values, 1.0, atol=1e-14)
        assert out.time == pytest.approx(1e-2)

    def test_constant_phase_fixed_point(self):
        g = make_grid(20.0, 256)
        s = PhiState(constant_field(g, np.exp(0.4j)), omega=1.5, time=0.0)
        out = step_bm(s, 1e-2)
        np.testing.assert_allclose(out.phi.values, np.exp(0.4j), atol=1e-14)

    def test_modulus_floor_raises(self):
        g = make_grid(20.0, 512)
        f = make_field(g, 1.0 - 0.96 * np.exp(-g.nodes**2), background=1.0)
        with pytest.raises(ZeroModulus):
            step_bm(PhiState(f, omega=1.0, time=0.0), 1e-3)

    def test_zero_time_returns_input(self):
        g = make_grid(128.0, 1024)
        s = bump_state(g)
        states, samples = evolve_bm(s, 0.0, 1e-3)
        assert len(states) == 1 and len(samples) == 1
        assert samples[0].time == 0.0

    def test_energy_conserved(self):
        g = make_grid(128.0, 4096)
        s = bump_state(g)
        _, samples = evolve_bm(s, 1.0, 1e-3, sample_every=100)
        e0 = samples[0].E
        drift = max(abs(x.E - e0) for x in samples)
        assert drift / e0 < 1e-6, f"relative drift {drift / e0:.3e}"
        for x in samples:
            assert x.E >= 0.0 and x.E_GP >= 0.0

    def test_second_order_in_dt(self):
        g = make_grid(128.0, 2048)
        s = bump_state(g)
        drifts = []
        for dt in (2e-3, 1e-3):
            _, samples = evolve_bm(s, 0.5, dt, sample_every=50)
            e0 = samples[0].E
            drifts.append(max(abs(x.E - e0) for x in samples))
        order = np.log2(drifts[0] / drifts[1])
        assert 1.8 < order < 2.2, f"observed order {order:.2f}"

    def test_boundary_contamination_detected(self):
        g = make_grid(20.0, 256)
        # field that is not flat at the ends while claiming background 1
        f = make_field(g, 1.0 + 0.1 * np.cos(np.pi * g.nodes / 20.0), background=1.0)
        with pytest.raises(BoundaryContaminated):
            evolve_bm(PhiState(f, omega=1.0, time=0.0), 0.1, 1e-3)

    def test_blocks_match_single_steps(self):
        # samples split the 30 steps into blocks of 7, 7, 7, 7 and 2, whose
        # inner half steps are fused; step_bm never fuses
        g = make_grid(20.0, 512)
        s = bump_state(g, amplitude=0.2)
        dt = 2.0**-7  # so that T / n_steps is exactly dt
        states, _ = evolve_bm(s, 30 * dt, dt, sample_every=7)
        ref, current = [s], s
        for n in range(30):
            current = step_bm(current, dt)
            if (n + 1) % 7 == 0 or n + 1 == 30:
                ref.append(current)
        assert [x.time for x in states] == [x.time for x in ref]
        assert [x.time / dt for x in states] == [0, 7, 14, 21, 28, 30]
        for a, b in zip(states, ref):
            assert np.max(np.abs(a.phi.values - b.phi.values)) <= 1e-13

    @pytest.mark.parametrize("center, steps", [(0.0, 50), (2.0, 37)])
    def test_boundary_guard_fires_between_samples(self, center, steps):
        # the dispersive tail reaches the ends of this short box inside the
        # single sample block: at node 0 for the centred bump (deviation
        # 1.4e-10 at step 50, 8.7e-11 at step 49), at node M-1 for the bump
        # at sigma = 2 (1.1e-10 at step 37, node 0 still at 8.4e-11)
        g = make_grid(10.0, 256)
        phi = make_field(
            g, 1.0 + 0.05 * np.exp(-((g.nodes - center) ** 2)), background=1.0
        )
        s = PhiState(phi, omega=1.0, time=0.0)
        with pytest.raises(BoundaryContaminated) as info:
            evolve_bm(s, 2.0, 1e-2, sample_every=1000)
        current, n = s, 0
        while boundary_deviation(current.phi) <= DEFAULT_BOUNDARY_TOL:
            current = step_bm(current, 1e-2)
            n += 1
        assert n == steps
        assert info.value.time == pytest.approx(current.time, abs=1e-12)

    def test_modulus_floor_fires_at_midpoint_inside_block(self):
        # with omega = 1/2 the collision profile's dip still deepens, from
        # min |Phi| = 0.183 at t = 0.9 to about 0.10 near t = 0.95; with a
        # single sample block only the midpoints of the steps are checked
        g = make_grid(40.0, 1024)
        s = PhiState(collision_state(g, 0.9).phi, omega=0.5, time=0.9)
        with pytest.raises(ZeroModulus) as info:
            evolve_bm(
                s, 0.1, 1e-3, sample_every=1000, delta_mod=0.12,
                boundary_tol=1e-6,
            )
        assert info.value.min_mod < 0.12
        # the step-by-step run crosses the floor at the same step
        current = s
        with pytest.raises(ZeroModulus) as stepwise:
            while True:
                current = step_bm(current, 1e-3, delta_mod=0.12)
        assert info.value.time == pytest.approx(stepwise.value.time, abs=1e-12)
        assert info.value.time == pytest.approx(0.937, abs=1e-12)

    def test_nan_trips_modulus_guard(self):
        g = make_grid(20.0, 256)
        values = 1.0 + 0.05 * np.exp(-g.nodes**2)
        values[128] = np.nan
        for omega in (1.0, 0.0):
            s = PhiState(make_field(g, values, background=1.0), omega, 0.0)
            with pytest.raises(ZeroModulus):
                evolve_bm(s, 0.01, 1e-3)

    def test_energy_csv_header(self, tmp_path):
        g = make_grid(128.0, 1024)
        _, samples = evolve_bm(bump_state(g), 0.01, 1e-3)
        path = tmp_path / "energies.csv"
        write_energy_csv(path, samples)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,E,E_GP,sup_dev,min_mod"
        assert len(lines) == 1 + len(samples)


class TestGalileanBoost:
    def test_zero_boost_identity(self):
        g = make_grid(128.0, 1024)
        s = bump_state(g)
        assert galilean_boost(s.phi, 0.0) is s.phi

    def test_rejects_off_lattice(self):
        g = make_grid(128.0, 1024)
        s = bump_state(g)
        with pytest.raises(IncompatibleWavenumber):
            galilean_boost(s.phi, 0.1)

    def test_boosted_constant_is_plane_wave(self):
        g = make_grid(128.0, 1024)
        nu = 8.0 * np.pi / 128.0
        f = galilean_boost(constant_field(g, 1.0), nu)
        s = PhiState(f, omega=1.0, time=0.0)
        states, _ = evolve_bm(s, 0.5, 1e-3, sample_every=100)
        final = states[-1]
        expected = np.exp(-1j * final.time * nu**2 + 1j * nu * g.nodes)
        err = np.max(np.abs(final.phi.values - expected))
        assert err < 1e-12, f"plane-wave deviation {err:.3e}"

    def test_covariance_with_evolution(self):
        g = make_grid(128.0, 2048)
        nu = 8.0 * np.pi / 128.0
        s = bump_state(g)
        direct, _ = evolve_bm(
            PhiState(galilean_boost(s.phi, nu), 1.0, 0.0), 0.5, 1e-3, sample_every=100
        )
        boosted = boost_trajectory(evolve_bm(s, 0.5, 1e-3, sample_every=100)[0], nu)
        err = max(
            np.max(np.abs(a.phi.values - b.phi.values))
            for a, b in zip(direct, boosted)
        )
        assert err < 1e-10, f"covariance error {err:.3e}"


class TestCollisionProfile:
    def test_terminal_profile(self):
        sigma = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(
            analytic_collision_phi(1.0, sigma), 1.0 - np.exp(-(sigma**2)), atol=1e-14
        )
        assert analytic_collision_phi(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75])
    def test_modulus_bound_strict(self, t):
        sigma = np.linspace(-40.0, 40.0, 20001)
        low = np.min(np.abs(analytic_collision_phi(t, sigma)))
        bound = collision_modulus_bound(t)
        assert low > bound, f"t={t}: min modulus {low:.5f} <= bound {bound:.5f}"

    def test_solves_free_schrodinger(self):
        g = make_grid(40.0, 2048)
        eps = 1e-5
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 5):
            dphi_dt = (
                analytic_collision_phi(t + eps, g.nodes)
                - analytic_collision_phi(t - eps, g.nodes)
            ) / (2.0 * eps)
            f = make_field(g, analytic_collision_phi(t, g.nodes), background=1.0)
            resid = np.max(np.abs(1j * dphi_dt + derivative(f, order=2).values))
            worst = max(worst, resid)
        assert worst < 1e-8, f"PDE residual {worst:.3e}"

    def test_numerical_evolution_matches_closed_form(self):
        g = make_grid(40.0, 2048)
        s0 = collision_state(g, 0.0)
        states, _ = evolve_bm(s0, 0.75, 5e-3, sample_every=50)
        worst = 0.0
        for s in states:
            expected = analytic_collision_phi(s.time, g.nodes)
            worst = max(worst, np.max(np.abs(s.phi.values - expected)))
        assert worst < 1e-10, f"numeric vs analytic sup {worst:.3e}"

    def test_energy_sample_fields(self):
        g = make_grid(40.0, 1024)
        s = collision_state(g, 1.0)
        sample = energy_sample(s)
        assert isinstance(sample, EnergySample)
        assert sample.min_mod == pytest.approx(0.0, abs=1e-12)
        assert sample.E > 0.0

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_energy_sample_matches_energies(self, omega):
        # the sample shares one derivative between E and E_GP; the values
        # must be those of the standalone functions, bit for bit
        g = make_grid(40.0, 1024)
        s = PhiState(collision_state(g, 0.5).phi, omega=omega, time=0.5)
        sample = energy_sample(s)
        assert sample.E == energy_bm(s.phi, omega)
        assert sample.E_GP == energy_gp(s.phi, omega)
        assert (sample.sup_dev, sample.min_mod) == modulus_deviation(s.phi)


class TestReconstructFilaments:
    def test_unit_profile_gives_backbone(self):
        g = make_grid(20.0, 256)
        cfg = polygon_config(4, 1.0, 1.0)
        s = PhiState(constant_field(g, 1.0), omega=cfg.omega, time=0.3)
        fields = reconstruct_filaments([s], cfg)[0]
        for j, f in enumerate(fields):
            x = np.exp(1j * cfg.omega * 0.3) * cfg.positions[j]
            np.testing.assert_allclose(f.values, x, atol=1e-14)
            assert f.background == pytest.approx(x)

    def test_distance_ratio_band(self):
        g = make_grid(20.0, 512)
        cfg = polygon_config(4, 1.0, 1.0)
        phi = make_field(g, 1.0 + 0.1 * np.exp(-g.nodes**2), background=1.0)
        sup_dev, _ = modulus_deviation(phi)
        assert sup_dev <= 0.25
        s = PhiState(phi, omega=cfg.omega, time=0.0)
        fields = reconstruct_filaments([s], cfg)[0]
        for j in range(4):
            for k in range(j + 1, 4):
                ratio = np.abs(fields[j].values - fields[k].values) / np.abs(
                    cfg.positions[j] - cfg.positions[k]
                )
                assert np.all(ratio >= 0.75) and np.all(ratio <= 1.25)

    def test_collision_distances_vanish(self):
        g = make_grid(40.0, 1024)
        cfg = polygon_config(4, 1.0, 1.0, center_circulation=-1.5)  # omega = 0
        s = collision_state(g, 1.0)
        fields = reconstruct_filaments([s], cfg)[0]
        # vertex pair (1, 2): separation collapses at sigma = 0
        sep = np.abs(fields[1].values - fields[2].values)
        assert sep.min() == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_rotation_rejected(self):
        g = make_grid(20.0, 256)
        cfg = polygon_config(4, 1.0, 1.0)
        s = PhiState(constant_field(g, 1.0), omega=0.5, time=0.0)
        with pytest.raises(PreconditionViolated):
            reconstruct_filaments([s], cfg)
