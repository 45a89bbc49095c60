"""Spectral core tests: grid construction, exact propagation, quadrature.

The free-Schrodinger Gaussian is the main oracle here: for
i u_t + gamma u_ss = 0 with u(0) = -exp(-sigma^2),

    u(t, sigma) = -exp(-sigma^2 / (1 + 4i*gamma*t)) / sqrt(1 + 4i*gamma*t)

(principal branch; Re(1 + 4i*gamma*t) > 0 so the root is unambiguous).
"""

import tracemalloc

import numpy as np
import pytest

from vfsim.errors import InvalidGrid
from vfsim.grid import (
    MAX_POINTS,
    ComplexField,
    boundary_deviation,
    constant_field,
    derivative,
    linear_propagate,
    make_field,
    make_grid,
    quad_trapezoid,
    read_fields_csv,
    shift_field,
    write_fields_csv,
)


def gaussian_free_evolution(sigma, gamma, t):
    """Closed-form linear evolution of -exp(-sigma^2) (test oracle)."""
    denom = 1.0 + 4j * gamma * t
    return -np.exp(-(sigma**2) / denom) / np.sqrt(denom)


def l2_norm(f):
    """Discrete L2 norm of f - background by the trapezoid rule."""
    return float(np.sqrt(quad_trapezoid(f.grid, np.abs(f.values - f.background) ** 2)))


def random_band_limited(grid, rng, max_mode=40, scale=1.0):
    """Random smooth periodic field with decaying spectrum, background 0."""
    m = grid.num_points
    spec = np.zeros(m, dtype=complex)
    k = np.arange(-max_mode, max_mode + 1)
    amps = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) / (
        1.0 + np.abs(k) ** 1.5
    )
    spec[k % m] = amps * scale
    values = np.fft.ifft(spec) * m
    return make_field(grid, values, background=0.0)


class TestMakeGrid:
    def test_node_placement(self):
        g = make_grid(10.0, 8)
        assert g.spacing == pytest.approx(2.5)
        np.testing.assert_allclose(
            g.nodes, [-10, -7.5, -5, -2.5, 0, 2.5, 5, 7.5], rtol=0, atol=0
        )

    def test_default_spacing(self):
        g = make_grid(128.0, 4096)
        assert g.spacing == pytest.approx(0.0625)

    def test_wavenumber_layout(self):
        g = make_grid(16.0, 16)
        # FFT order: 0, pi/L, 2pi/L, ..., then the negative half.
        assert g.wavenumbers[0] == 0.0
        assert g.wavenumbers[1] == pytest.approx(np.pi / 16.0)
        assert g.wavenumbers[8] == pytest.approx(-8 * np.pi / 16.0)
        assert g.wavenumbers[-1] == pytest.approx(-np.pi / 16.0)

    @pytest.mark.parametrize("L,M", [(1.0, 7), (-1.0, 16), (0.0, 16), (1.0, 4)])
    def test_rejects_bad_parameters(self, L, M):
        with pytest.raises(InvalidGrid):
            make_grid(L, M)

    def test_rejects_too_many_points_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidGrid, match=str(MAX_POINTS)):
                make_grid(1.0, 2**40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_equality_by_defining_parameters(self):
        """Grids built separately compare by (half_length, num_points)."""
        assert make_grid(20.0, 256) == make_grid(20.0, 256)
        assert make_grid(20.0, 256) != make_grid(20.0, 512)
        assert make_grid(20.0, 256) != make_grid(10.0, 256)


class TestLinearPropagate:
    def test_time_zero_is_identity(self):
        g = make_grid(20.0, 256)
        f = make_field(g, np.exp(-g.nodes**2), background=0.0)
        out = linear_propagate(f, 1.0, 0.0)
        np.testing.assert_allclose(out.values, f.values, atol=1e-14)

    def test_plane_wave_dispersion(self):
        g = make_grid(10.0, 64)
        k = 3 * np.pi / 10.0  # a grid wavenumber
        f = make_field(g, np.exp(1j * k * g.nodes), background=0.0)
        t = 0.7
        out = linear_propagate(f, 1.0, t)
        expected = np.exp(-1j * k**2 * t) * f.values
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    @pytest.mark.parametrize("gamma,t", [(1.0, 1.0), (1.0, 0.5), (2.0, 0.25), (-1.5, 1.0)])
    def test_gaussian_closed_form(self, gamma, t):
        g = make_grid(40.0, 2048)
        f = make_field(g, -np.exp(-g.nodes**2), background=0.0)
        out = linear_propagate(f, gamma, t)
        expected = gaussian_free_evolution(g.nodes, gamma, t)
        err = np.max(np.abs(out.values - expected))
        assert err < 1e-10, f"gamma={gamma}, t={t}: sup error {err:.3e}"

    def test_background_is_preserved(self):
        g = make_grid(40.0, 512)
        f = make_field(g, 1.0 + 0.1 * np.exp(-g.nodes**2), background=1.0)
        out = linear_propagate(f, 1.0, 2.0)
        assert out.background == 1.0
        # background itself is a steady state
        steady = constant_field(g, 1.0)
        out2 = linear_propagate(steady, 1.0, 3.0)
        np.testing.assert_allclose(out2.values, steady.values, atol=1e-14)

    def test_l2_preservation(self):
        g = make_grid(30.0, 512)
        rng = np.random.default_rng(7)
        f = random_band_limited(g, rng)
        n0 = l2_norm(f)
        for t in (0.1, 1.0, 10.0, 100.0):
            nt = l2_norm(linear_propagate(f, 1.0, t))
            assert abs(nt - n0) <= 1e-12 * n0, f"t={t}: L2 drift {abs(nt-n0):.3e}"

    def test_semigroup_property(self):
        g = make_grid(30.0, 256)
        rng = np.random.default_rng(11)
        f = random_band_limited(g, rng)
        a = linear_propagate(linear_propagate(f, 1.3, 0.4), 1.3, 0.6)
        b = linear_propagate(f, 1.3, 1.0)
        np.testing.assert_allclose(a.values, b.values, atol=1e-13)

    def test_commutes_with_derivative(self):
        g = make_grid(30.0, 256)
        rng = np.random.default_rng(13)
        f = random_band_limited(g, rng)
        a = derivative(linear_propagate(f, 1.0, 0.8))
        b = linear_propagate(derivative(f), 1.0, 0.8)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_h1_growth_bound(self):
        # || e^{it d^2} f - f ||_{H1} <= C (1 + sqrt(t)) ||f'||_{L2}, C <= 2
        g = make_grid(30.0, 512)
        rng = np.random.default_rng(17)
        for trial in range(20):
            f = random_band_limited(g, rng)
            s = l2_norm(derivative(f))
            for t in (0.01, 0.1, 1.0, 10.0):
                moved = linear_propagate(f, 1.0, t)
                diff = make_field(g, moved.values - f.values, background=0.0)
                h1 = np.hypot(l2_norm(diff), l2_norm(derivative(diff)))
                bound = 2.0 * (1.0 + np.sqrt(t)) * s
                assert h1 <= bound, (
                    f"trial {trial}, t={t}: H1 diff {h1:.4e} > bound {bound:.4e}"
                )


class TestDerivativeAndQuadrature:
    def test_constant_derivative_is_zero(self):
        g = make_grid(10.0, 64)
        f = constant_field(g, 2.0 - 1.0j)
        out = derivative(f)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)
        assert out.background == 0.0

    def test_plane_wave_derivative(self):
        g = make_grid(10.0, 128)
        k = 5 * np.pi / 10.0
        f = make_field(g, np.exp(1j * k * g.nodes))
        out = derivative(f)
        np.testing.assert_allclose(out.values, 1j * k * f.values, atol=1e-12)

    def test_gaussian_derivative(self):
        g = make_grid(20.0, 1024)
        f = make_field(g, np.exp(-g.nodes**2))
        out = derivative(f)
        expected = -2.0 * g.nodes * np.exp(-g.nodes**2)
        err = np.max(np.abs(out.values - expected))
        assert err < 1e-10, f"sup error {err:.3e}"

    def test_second_derivative(self):
        g = make_grid(20.0, 1024)
        f = make_field(g, np.exp(-g.nodes**2))
        out = derivative(f, order=2)
        expected = (4.0 * g.nodes**2 - 2.0) * np.exp(-g.nodes**2)
        err = np.max(np.abs(out.values - expected))
        assert err < 1e-9, f"sup error {err:.3e}"

    def test_quadrature_constant(self):
        g = make_grid(10.0, 64)
        assert quad_trapezoid(g, np.ones(64)) == pytest.approx(20.0)

    def test_quadrature_zero(self):
        g = make_grid(10.0, 64)
        assert quad_trapezoid(g, np.zeros(64)) == 0.0

    def test_quadrature_gaussian(self):
        g = make_grid(20.0, 1024)
        val = quad_trapezoid(g, np.exp(-g.nodes**2))
        assert abs(val - np.sqrt(np.pi)) < 1e-12


class TestNorms:
    def test_boundary_deviation(self):
        g = make_grid(20.0, 256)
        f = make_field(g, np.exp(-((g.nodes / 4.0) ** 2)), background=0.0)
        # the right end node sits at L - h, so it dominates the deviation
        expected = np.exp(-(((20.0 - g.spacing) / 4.0) ** 2))
        assert boundary_deviation(f) == pytest.approx(expected, rel=1e-12)

    def test_boundary_deviation_constant(self):
        g = make_grid(20.0, 256)
        assert boundary_deviation(constant_field(g, 1.0 + 2.0j)) == 0.0


class TestShift:
    def test_gaussian_shift(self):
        g = make_grid(30.0, 1024)
        f = make_field(g, np.exp(-g.nodes**2))
        out = shift_field(f, 2.5)
        expected = np.exp(-((g.nodes - 2.5) ** 2))
        np.testing.assert_allclose(out.values, expected, atol=1e-10)


class TestDumps:
    def test_csv_roundtrip(self, tmp_path):
        g = make_grid(5.0, 16)
        rng = np.random.default_rng(3)
        f1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        f2 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        path = tmp_path / "fields.csv"
        write_fields_csv(path, g, [f1, f2])
        header = path.read_text().splitlines()[0]
        assert header == "sigma,re_0,im_0,re_1,im_1"
        sigma, arrays = read_fields_csv(path)
        np.testing.assert_allclose(sigma, g.nodes, rtol=0, atol=0)
        # 17 significant digits give exact float64 roundtrip
        np.testing.assert_array_equal(arrays[0], f1)
        np.testing.assert_array_equal(arrays[1], f2)

    def test_rewrite_is_byte_identical(self, tmp_path):
        g = make_grid(5.0, 16)
        rng = np.random.default_rng(9)
        f1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_fields_csv(p1, g, [f1])
        write_fields_csv(p2, g, [f1])
        assert p1.read_bytes() == p2.read_bytes()
