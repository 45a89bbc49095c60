"""Point-vortex tests: equilibria, conserved quantities, RK4, Kelvin stability.

Hand-computed oracles used below:
  * two equal vortices at +-1 rotate rigidly at omega = 1/2
    (dX_1/dt = i * 2/4 = 0.5i), so X_1(t) = exp(i t / 2);
  * square R=1, Gamma=1: ordered-pair sums over |X_jk|^2 in {2, 2, 4} per
    vertex give quad_sum = 4*(2+2+4) = 32 and log_sum = 16 ln 2;
  * polygon rotation rates: (N-1)/2 for unit gamma and radius, shifted by
    Gamma_0/R^2 when a center vortex is present.
"""

import numpy as np
import pytest

from vfsim.errors import InvalidPolygon, NearCollision, NumericalGuard
from vfsim.point_vortex import (
    VortexConfig,
    _spectrum_with_deflated_kernel,
    config_rhs,
    integrate,
    invariants,
    linear_stability,
    min_separation,
    polygon_config,
    rhs,
    write_trajectory_csv,
)


def generic_triple() -> VortexConfig:
    """A non-equilibrium three-vortex state with O(1) invariants."""
    return VortexConfig(
        positions=np.array([0.3 + 0.1j, -0.8 + 0.5j, 0.2 - 0.9j]),
        circulations=np.array([1.0, 0.7, 0.4]),
    )


class TestPolygonConfig:
    @pytest.mark.parametrize(
        "N,gamma,center,omega",
        [
            (4, 1.0, None, 1.5),
            (3, 1.0, None, 1.0),
            (4, 1.0, -1.5, 0.0),
            (6, 1.0, None, 2.5),
            (2, 1.0, 1.0, 1.5),  # collinear segment: two vortices plus center
        ],
    )
    def test_rotation_rate(self, N, gamma, center, omega):
        cfg = polygon_config(N, 1.0, gamma, center)
        assert cfg.omega == pytest.approx(omega, abs=1e-15)

    def test_vertices_on_circle(self):
        cfg = polygon_config(5, 2.0, 1.0)
        np.testing.assert_allclose(np.abs(cfg.positions), 2.0, atol=1e-14)
        assert not cfg.has_center

    def test_center_at_origin(self):
        cfg = polygon_config(4, 1.0, 1.0, center_circulation=0.5)
        assert cfg.has_center
        assert cfg.positions[0] == 0.0
        assert cfg.circulations[0] == 0.5
        assert cfg.count == 5

    @pytest.mark.parametrize("N,R", [(1, 1.0), (4, 0.0), (4, -2.0)])
    def test_rejects_bad_polygon(self, N, R):
        with pytest.raises(InvalidPolygon):
            polygon_config(N, R, 1.0)


class TestRhs:
    def test_single_vortex_is_steady(self):
        v = rhs(np.array([0.3 + 0.4j]), np.array([2.0]))
        assert v[0] == 0.0

    def test_two_vortex_velocity(self):
        v = rhs(np.array([1.0 + 0.0j, -1.0 + 0.0j]), np.array([1.0, 1.0]))
        assert v[0] == pytest.approx(0.5j, abs=1e-15)
        assert v[1] == pytest.approx(-0.5j, abs=1e-15)

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
    def test_polygon_rotates_rigidly(self, N):
        cfg = polygon_config(N, 1.0, 1.0)
        resid = np.max(np.abs(config_rhs(cfg) - 1j * cfg.omega * cfg.positions))
        assert resid <= 1e-12, f"N={N}: rigid rotation residual {resid:.2e}"

    def test_centered_square_rotates_rigidly(self):
        cfg = polygon_config(4, 1.0, 1.0, center_circulation=0.75)
        resid = np.max(np.abs(config_rhs(cfg) - 1j * cfg.omega * cfg.positions))
        assert resid <= 1e-12

    def test_near_collision_guard(self):
        with pytest.raises(NearCollision):
            rhs(np.array([0.0j, 1e-9 + 0.0j]), np.array([1.0, 1.0]))


class TestInvariants:
    def test_square_values(self):
        cfg = polygon_config(4, 1.0, 1.0)
        center, ang_mom, log_sum, quad_sum = invariants(cfg)
        assert abs(center) < 1e-14
        assert ang_mom == pytest.approx(4.0, abs=1e-14)
        assert log_sum == pytest.approx(16.0 * np.log(2.0), abs=1e-12)
        assert quad_sum == pytest.approx(32.0, abs=1e-12)

    def test_centered_polygon_center_of_inertia(self):
        cfg = polygon_config(6, 1.5, 0.8, center_circulation=-1.0)
        center, _, _, _ = invariants(cfg)
        assert abs(center) < 1e-13


class TestIntegrate:
    def test_zero_time_returns_input(self):
        cfg = generic_triple()
        traj = integrate(cfg, 0.0, 1e-3)
        assert traj.times.size == 1
        np.testing.assert_array_equal(traj.states[0].positions, cfg.positions)

    def test_equilibrium_square_rotates(self):
        cfg = polygon_config(4, 1.0, 1.0)
        traj = integrate(cfg, 1.0, 1e-3)
        worst = 0.0
        for t, state in zip(traj.times, traj.states):
            expected = np.exp(1.5j * t) * cfg.positions
            worst = max(worst, np.max(np.abs(state.positions - expected)))
        assert worst <= 1e-8, f"sup deviation from rigid rotation {worst:.2e}"

    def test_two_vortex_closed_form(self):
        cfg = VortexConfig(
            positions=np.array([1.0 + 0.0j, -1.0 + 0.0j]),
            circulations=np.array([1.0, 1.0]),
        )
        traj = integrate(cfg, 2.0 * np.pi, 1e-3)
        worst = 0.0
        for t, state in zip(traj.times, traj.states):
            worst = max(worst, abs(state.positions[0] - np.exp(0.5j * t)))
        assert worst <= 1e-9, f"two-vortex circle deviation {worst:.2e}"
        # half a revolution for omega = 1/2 (full period is 4 pi)
        assert traj.states[-1].positions[0] == pytest.approx(-1.0 + 0.0j, abs=1e-9)

    def test_two_vortex_distance_invariance(self):
        cfg = VortexConfig(
            positions=np.array([0.7 + 0.2j, -0.5 - 0.1j]),
            circulations=np.array([1.0, -0.6]),
        )
        d0 = min_separation(cfg)
        traj = integrate(cfg, 10.0, 1e-3)
        drift = max(abs(min_separation(s) - d0) for s in traj.states)
        assert drift <= 1e-10, f"distance drift {drift:.2e}"

    def test_invariant_drift(self):
        cfg = generic_triple()
        traj = integrate(cfg, 10.0, 1e-3)
        for key, series in traj.invariant_series.items():
            ref = series[0]
            drift = np.max(np.abs(series - ref)) / abs(ref)
            assert drift <= 1e-8, f"{key}: relative drift {drift:.2e}"

    def test_step_guard(self):
        cfg = generic_triple()
        with pytest.raises(NumericalGuard):
            integrate(cfg, 1.0, 1.0)  # dt far above d^2/10

    def test_step_guard_scales_with_circulation(self):
        """The cap is d^2/(10 max|Gamma|), d^2 = 2 on the unit square."""
        fast = polygon_config(4, 1.0, -1e3)
        with pytest.raises(NumericalGuard, match=r"d\^2/\(10 max\|Gamma\|\) = 2.000e-04"):
            integrate(fast, 1e-3, 1e-3)
        assert integrate(fast, 1e-3, 1e-4).positions.shape == (11, 4)
        still = VortexConfig(positions=fast.positions, circulations=np.zeros(4))
        assert np.array_equal(integrate(still, 1.0, 1.0).positions[-1], fast.positions)

    def test_collision_reports_time(self):
        # the generic triple's minimal separation first dips below 0.8
        # near t = 2.66, so a raised guard distance must trip about there
        cfg = generic_triple()
        with pytest.raises(NearCollision) as excinfo:
            integrate(cfg, 10.0, 1e-3, delta_min=0.8)
        assert 2.0 < excinfo.value.time < 3.0
        assert excinfo.value.distance < 0.8


def plain_rk4(cfg, T, steps):
    """RK4 as plain expressions with fresh temporaries, one row per step."""
    dt = T / steps
    x = cfg.positions.astype(complex)
    path = [x]
    for _ in range(steps):
        k1 = rhs(x, cfg.circulations)
        k2 = rhs(x + 0.5 * dt * k1, cfg.circulations)
        k3 = rhs(x + 0.5 * dt * k2, cfg.circulations)
        k4 = rhs(x + dt * k3, cfg.circulations)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path.append(x)
    return np.array(path)


class TestSharedStepper:
    @pytest.mark.parametrize(
        "cfg",
        [
            polygon_config(4, 1.0, 1.0),
            VortexConfig(
                positions=np.array([0.9 + 0.1j, -0.4 + 0.8j, -0.7 - 0.5j, 0.3 - 0.9j, 0.05j]),
                circulations=np.array([1.0, -0.6, 0.8, -1.3, 0.5]),
            ),
        ],
        ids=["square", "mixed-sign-5"],
    )
    def test_bitwise_equal_to_fresh_temporaries(self, cfg):
        traj = integrate(cfg, 0.2, 1e-3)
        assert traj.positions.shape == (201, cfg.count)
        assert np.array_equal(traj.positions, plain_rk4(cfg, 0.2, 200))


class TestTrajectoryCsv:
    def test_header_and_shape(self, tmp_path):
        cfg = generic_triple()
        traj = integrate(cfg, 0.01, 1e-3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,re_X0,im_X0,re_X1,im_X1,re_X2,im_X2,"
            "center_re,center_im,ang_mom,log_sum,quad_sum"
        )
        assert len(lines) == 1 + traj.times.size


class TestLinearStability:
    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
    def test_small_polygons_stable(self, N):
        eig, verdict = linear_stability(N, 1.0)
        assert verdict == "stable", f"N={N}: max Re = {eig.real.max():.3e}"

    @pytest.mark.parametrize("N", [8, 9, 10])
    def test_large_polygons_unstable(self, N):
        eig, verdict = linear_stability(N, 1.0)
        assert verdict == "unstable"
        assert eig.real.max() > 1e-3, f"N={N}: max Re = {eig.real.max():.3e}"

    def test_spectrum_size(self):
        eig, _ = linear_stability(5, 1.0)
        assert eig.size == 10

    def test_heptagon_neutral_modes(self):
        # the marginal heptagon carries six exact neutral directions
        # (scaling/rotation pair plus two marginal mode pairs)
        eig, _ = linear_stability(7, 1.0)
        assert int(np.sum(eig == 0.0)) == 6
        eig4, _ = linear_stability(4, 1.0)
        assert int(np.sum(eig4 == 0.0)) == 2

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_quadruple_symmetry(self, N):
        eig, _ = linear_stability(N, 1.0)
        for lam in eig:
            for mate in (-lam, np.conj(lam), -np.conj(lam)):
                gap = np.min(np.abs(eig - mate))
                assert gap <= 1e-10, f"N={N}: no mate for {lam} (gap {gap:.2e})"

    def test_rejects_small_n(self):
        with pytest.raises(InvalidPolygon):
            linear_stability(2, 1.0)

    def test_zero_matrix_spectrum_is_exact_zeros(self):
        eig = _spectrum_with_deflated_kernel(np.zeros((6, 6)))
        assert eig.shape == (6,) and np.all(eig == 0.0)

    def test_spectrum_without_kernel(self):
        # no kernel to split off: the rotation block gives +-2i, the rest 1, 3
        jac = np.zeros((4, 4))
        jac[:2, :2] = [[0.0, -2.0], [2.0, 0.0]]
        jac[2:, 2:] = np.diag([1.0, 3.0])
        eig = _spectrum_with_deflated_kernel(jac)
        expected = np.array([-2j, 2j, 1.0, 3.0])
        assert eig.shape == (4,)
        for lam in expected:
            assert np.min(np.abs(eig - lam)) <= 1e-12, f"no eigenvalue near {lam}"
