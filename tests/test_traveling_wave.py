"""Tests for travelling-wave construction and diagnostics.

Verified here:
  * parameter validation of the admissible speed window,
  * the potential a and its normalized form b (series/direct consistency),
  * the turning point sigma1 against an independent bisection oracle, and
    the bisection that finds it and the shot's event,
  * the amplitude shot: evenness, monotonicity, positivity, first integral,
    exponential tail with the predicted rate,
  * the private Dormand-Prince shooter against closed forms (decay, the
    oscillator and its downward event), and the amplitude and phase against
    scipy's solve_ivp and cumulative_trapezoid when scipy is installed,
  * phase gauge and oddness, the assembled profile's certified bounds,
  * the travelling-wave equation residual (and a Gross-Pitaevskii soliton as
    a near-miss negative control) against the two-derivative form it
    replaced, and its guards on NaN and inf input,
  * Madelung identities, propagation under the time integrator, the energy
    scaling law over a speed sweep, and helical multi-filament fields,
  * the traced memory peak of a speed sweep at the preset size.
"""

import tracemalloc

import numpy as np
import pytest

from vfsim.errors import (
    BoundViolated,
    DomainError,
    IncompatibleWavenumber,
    NumericalGuard,
    ZeroModulus,
)
from vfsim.grid import derivative, make_field, make_grid, shift_field
from vfsim.reduced import PhiState, evolve_bm
from vfsim.traveling_wave import (
    SWITCH_FRACTION,
    WaveParams,
    _b_scalar,
    _bisect,
    _dormand_prince,
    a_of,
    b_of,
    build_wave,
    find_sigma1,
    gp_soliton,
    helix_filaments,
    residual_tw,
    solve_eta,
    solve_theta,
    sweep_waves,
    wronskian,
)
from vfsim.traveling_wave import _detwist, _Shot

# The reference wave used throughout: omega = 1, c^2 = 1.9.
OMEGA = 1.0
C = float(np.sqrt(1.9))

# Frozen from an independent bisection of b (201-point bracket scan plus
# interval halving, run at build time of this suite): the smallest positive
# root of a for omega = 1, c^2 = 1.9.
SIGMA1_REF = 0.13938898806276276


def reference_params() -> WaveParams:
    return WaveParams(omega=OMEGA, c=C)


def oracle_residual_tw(v, params):
    """The residual as two spectral derivatives (four transforms), kept as
    the reference for residual_tw's single FFT pair."""
    values = v.values
    jump = float(np.angle(values[-1] * np.conj(values[0])))
    twist = jump / (2.0 * v.grid.half_length)
    w = make_field(
        v.grid,
        values * np.exp(-1j * twist * v.grid.nodes),
        background=values[0] * np.exp(1j * twist * v.grid.half_length),
    )
    mod2 = np.abs(v.values) ** 2
    dw = derivative(w).values
    ddw = derivative(w, order=2).values
    phase = np.exp(1j * twist * v.grid.nodes)
    dv = (dw + 1j * twist * w.values) * phase
    ddv = (ddw + 2j * twist * dw - twist**2 * w.values) * phase
    resid = 1j * params.c * dv + ddv + params.omega * (v.values / mod2) * (1.0 - mod2)
    return float(np.max(np.abs(resid)))


def twisted_random_field(seed):
    """A smooth random field with |v| -> 1 and unequal asymptotic phases."""
    grid = make_grid(32.0, 1024)
    rng = np.random.default_rng(seed)
    s = grid.nodes[:, None]
    bumps = np.exp(-(((s - rng.uniform(-5.0, 5.0, 4)) / rng.uniform(0.5, 2.0, 4)) ** 2))
    modulus = 1.0 + bumps @ rng.uniform(-0.15, 0.15, 4)
    phase = 0.8 * np.tanh(grid.nodes) + bumps @ rng.uniform(-1.0, 1.0, 4)
    return make_field(grid, modulus * np.exp(1j * phase), background=np.exp(0.8j))


@pytest.fixture(scope="module")
def wave():
    grid = make_grid(256.0, 65536)
    return build_wave(reference_params(), grid)


@pytest.fixture(scope="module")
def fine_wave():
    # the phase quadrature error scales like h^2; this spacing puts the
    # Madelung identities safely below 1e-8
    return build_wave(reference_params(), make_grid(256.0, 262144))


@pytest.fixture(scope="module")
def sweep_records():
    grid = make_grid(256.0, 65536)
    cs = [float(np.sqrt(c2)) for c2 in np.linspace(1.99, 1.90, 10)]
    return sweep_waves([WaveParams(omega=1.0, c=c) for c in cs], grid)


class TestWaveParams:
    def test_gap_and_bracket_end(self):
        p = reference_params()
        assert abs(p.gap - 0.1) < 1e-12
        assert abs(p.sigma0 - 0.15) < 1e-12
        assert abs(p.eta3 - 0.2) < 1e-15

    @pytest.mark.parametrize(
        "omega, c",
        [
            (0.0, 1.0),
            (-1.0, 1.0),
            (1.0, 0.0),
            (1.0, -1.3),
            (1.0, float(np.sqrt(2.0))),  # gap closes
            (1.0, 1.5),  # gap exceeds the slow-speed window
            (1.0, 0.5),
        ],
    )
    def test_rejects_bad_parameters(self, omega, c):
        with pytest.raises(DomainError):
            WaveParams(omega=omega, c=c)

    def test_custom_window_admits_faster_gap(self):
        p = WaveParams(omega=1.0, c=1.2, eta3=0.7)
        assert abs(p.gap - 0.56) < 1e-12


class TestPotential:
    def test_domain_guards(self):
        p = reference_params()
        for bad in (-1e-9, 1.0, 1.5):
            with pytest.raises(DomainError):
                a_of(bad, p)
            with pytest.raises(DomainError):
                b_of(bad, p)

    def test_b_at_zero_is_gap(self):
        p = reference_params()
        assert b_of(0.0, p) == pytest.approx(p.gap, abs=0.0)

    def test_series_direct_consistency_at_switch(self):
        # one ulp apart, so any visible difference is the branch mismatch,
        # not the genuine slope of b
        p = reference_params()
        hi = 1e-4
        lo = np.nextafter(hi, 0.0)
        assert abs(b_of(hi, p) - b_of(lo, p)) < 1e-10, (
            f"b jumps across the series switch: {b_of(lo, p)!r} vs {b_of(hi, p)!r}"
        )

    def test_a_vanishes_quadratically_at_zero(self):
        p = reference_params()
        eta = np.array([1e-6, 1e-5])
        ratio = np.asarray(a_of(eta, p)) / eta**2
        assert np.allclose(ratio, p.gap, rtol=1e-4)

    def test_sign_change_on_bracket(self):
        p = reference_params()
        assert b_of(0.01, p) > 0.0
        assert b_of(p.sigma0, p) < 0.0


class TestFindSigma1:
    def test_reference_root(self):
        s1 = find_sigma1(reference_params())
        assert abs(s1 - SIGMA1_REF) < 1e-9, f"sigma1 = {s1!r}"
        assert abs(b_of(s1, reference_params())) < 1e-13

    def test_root_below_bracket_end(self):
        p = reference_params()
        s1 = find_sigma1(p)
        assert 0.0 < s1 < p.sigma0

    def test_center_modulus_stays_large(self):
        s1 = find_sigma1(reference_params())
        assert 1.0 - s1 >= 0.85

    def test_sigma1_grows_with_gap(self):
        roots = [
            find_sigma1(WaveParams(omega=1.0, c=float(np.sqrt(c2))))
            for c2 in (1.98, 1.94, 1.90)
        ]
        assert roots[0] < roots[1] < roots[2], f"sigma1 not increasing: {roots}"

    @pytest.mark.parametrize(
        "omega, c2",
        [(1.0, 1.9992), (1.0, 1.9994), (1.0, 1.9996), (1.0, 1.9997), (1.0, 1.9998),
         (1.0, 1.9999), (2.0, 3.988), (2.0, 3.994), (7.0, 13.909)],
    )
    def test_sign_change_when_no_midpoint_meets_the_tolerance(self, omega, c2):
        """Near c^2 = 2 omega the computed b is too noisy for |b| < 1e-14 at
        any midpoint; sigma1 is then where the computed b changes sign."""
        p = WaveParams(omega=omega, c=float(np.sqrt(c2)))
        s1 = find_sigma1(p)
        assert 0.0 < s1 < p.sigma0
        assert _b_scalar(s1, p) <= 0.0 < _b_scalar(float(np.nextafter(s1, 0.0)), p)


class TestBisect:
    def test_positive_func_returns_hi(self):
        # the crossing the step's end saw is lost on the interpolant
        assert _bisect(lambda x: 1.0, 0.0, 3.0) == 3.0

    def test_first_float_at_or_below_zero(self):
        root = _bisect(lambda x: 0.7 - x, 0.0, 1.0)
        assert 0.7 - root <= 0.0 < 0.7 - float(np.nextafter(root, 0.0))

    def test_first_midpoint_within_tol(self):
        mids = []

        def func(x):
            mids.append(x)
            return 0.3 - x

        assert _bisect(func, 0.0, 1.0, tol=0.01) == mids[-1] == 0.296875
        assert [abs(0.3 - x) < 0.01 for x in mids] == [False] * (len(mids) - 1) + [True]


class TestAmplitudeShot:
    def test_even_monotone_positive(self, wave):
        grid = wave.grid
        mid = grid.num_points // 2
        eta = wave.eta
        assert eta[mid] == pytest.approx(wave.sigma1, abs=1e-13)
        assert np.all(eta > 0.0)
        # evenness: eta(-sigma) = eta(sigma) for the interior reflection
        assert np.allclose(eta[1:mid], eta[-1:mid:-1], rtol=0.0, atol=1e-14)
        right = eta[mid:]
        assert np.all(np.diff(right) <= 0.0)

    def test_first_integral(self, wave):
        deta = derivative(make_field(wave.grid, wave.eta.astype(complex))).values.real
        residual = np.abs(deta**2 - np.asarray(a_of(wave.eta, wave.params)))
        assert residual.max() < 1e-10, f"first integral off by {residual.max():.3g}"

    def test_exponential_tail_rate(self, wave):
        grid = wave.grid
        mask = grid.nodes >= grid.half_length / 2
        slope = np.polyfit(grid.nodes[mask], np.log(wave.eta[mask]), 1)[0]
        rate = -slope
        target = np.sqrt(wave.params.gap)
        assert rate >= 0.9 * target, f"tail rate {rate:.4f} below 0.9*sqrt(gap)"
        assert rate <= 1.01 * target

    def test_tail_dominated_by_reference_envelope(self, wave):
        grid = wave.grid
        mask = grid.nodes >= grid.half_length / 2
        sigma = grid.nodes[mask]
        ref = wave.eta[grid.nodes.searchsorted(grid.half_length / 2)]
        envelope = 3.0 * ref * np.exp(
            -0.9 * np.sqrt(wave.params.gap) * (sigma - grid.half_length / 2)
        )
        assert np.all(wave.eta[mask] <= envelope)

    def test_short_box_falls_back_to_single_segment(self):
        # A box shorter than the core never reaches the hand-off threshold.
        p = reference_params()
        grid = make_grid(1.0, 64)
        eta = solve_eta(p, grid)
        assert eta.max() == pytest.approx(find_sigma1(p), abs=1e-13)
        assert eta.min() > 0.4 * find_sigma1(p)


def scipy_eta(params, grid, sigma1):
    """The two amplitude shots with scipy's solve_ivp (RK45, brentq events)."""
    integrate = pytest.importorskip("scipy.integrate")
    om, c2 = params.omega, params.c**2
    half = SWITCH_FRACTION * sigma1

    def crossing(_s, y):
        return y[0] - half

    crossing.terminal = True
    crossing.direction = -1.0
    L = grid.half_length
    sol1 = integrate.solve_ivp(
        lambda _s, y: (y[1], 2.0 * om * np.log1p(-y[0]) + (4.0 * om - c2) * y[0]),
        (0.0, L), (sigma1, 0.0), rtol=1e-12, atol=1e-14, dense_output=True,
        events=crossing,
    )
    abs_nodes = np.abs(grid.nodes)
    if sol1.t_events[0].size == 0:
        return np.clip(sol1.sol(abs_nodes)[0], 0.0, sigma1)
    s_switch = float(sol1.t_events[0][0])
    sol2 = integrate.solve_ivp(
        lambda _s, u: (-np.sqrt(b_of(min(float(np.exp(u[0])), sigma1), params)),),
        (s_switch, L), (np.log(float(sol1.sol(s_switch)[0])),),
        rtol=1e-12, atol=1e-12, dense_output=True,
    )
    near = abs_nodes <= s_switch
    eta = np.empty_like(abs_nodes)
    eta[near] = sol1.sol(abs_nodes[near])[0]
    eta[~near] = np.exp(sol2.sol(abs_nodes[~near])[0])
    return np.clip(eta, 0.0, sigma1)


def oscillator(_s, y):
    return (y[1], -y[0])


class TestShooter:
    """The private Dormand-Prince integrator at the shot tolerances."""

    def test_decay_dense_output(self):
        shot = _dormand_prince(lambda _s, y: -y, 0.0, (1.0,), 5.0, 1e-12, 1e-14)
        assert shot.ok and shot.t_event is None and shot.edges[-1] == 5.0
        nodes = np.random.default_rng(0).uniform(0.0, 5.0, 257)  # unsorted
        assert np.abs(shot(nodes)[0] - np.exp(-nodes)).max() <= 1e-10
        assert abs(shot(2.5)[0] - np.exp(-2.5)) <= 1e-10

    def test_oscillator_event(self):
        shot = _dormand_prince(
            oscillator, 0.0, (1.0, 0.0), 10.0, 1e-12, 1e-14,
            event=lambda _s, y: y[0] - 0.5,
        )
        assert abs(shot.t_event - np.pi / 3.0) <= 1e-10
        assert shot.edges[-1] == shot.t_event
        nodes = np.random.default_rng(1).uniform(0.0, shot.t_event, 257)
        y = shot(nodes)
        assert np.abs(y[0] - np.cos(nodes)).max() <= 1e-10
        assert np.abs(y[1] + np.sin(nodes)).max() <= 1e-10

    def test_event_fires_only_downward(self):
        # 0.5 - cos s rises through 0 at pi/3 and falls through it at 5 pi/3
        shot = _dormand_prince(
            oscillator, 0.0, (1.0, 0.0), 10.0, 1e-12, 1e-14,
            event=lambda _s, y: 0.5 - y[0],
        )
        assert abs(shot.t_event - 5.0 * np.pi / 3.0) <= 1e-10

    def test_blow_up_collapses_the_step(self):
        # y' = y^2, y(0) = 1 blows up at s = 1
        shot = _dormand_prince(lambda _s, y: y**2, 0.0, (1.0,), 2.0, 1e-12, 1e-14)
        assert not shot.ok
        assert 0.99 < shot.t < 1.0 and shot.y[0] > 100.0

    def test_array_nodes_equal_scalar_nodes(self):
        shot = _dormand_prince(oscillator, 0.0, (1.0, 0.0), 10.0, 1e-12, 1e-14)
        rng = np.random.default_rng(3)
        # unsorted nodes, every edge, and nodes beyond both ends
        nodes = np.concatenate([rng.uniform(-0.5, 10.5, 300), shot.edges])
        rng.shuffle(nodes)
        y = shot(nodes)
        assert y.shape == (2, nodes.size)
        for i, s in enumerate(nodes):
            assert np.array_equal(y[:, i], shot(float(s)))

    def test_edge_node_takes_the_earlier_piece(self):
        """Two hand-made pieces that disagree at their shared edge s = 1."""
        shot = _Shot(0.0, np.array([0.0]))
        shot.pieces = [
            (0.0, 1.0, np.array([0.0]), np.array([[1.0, 0.0, 0.0, 0.0]])),  # y = s
            (1.0, 2.0, np.array([5.0]), np.array([[0.0, 1.0, 0.0, 0.0]])),  # 5 + 2 x^2
        ]
        shot.edges = [0.0, 1.0, 3.0]
        nodes = np.array([1.0, 0.0, 0.5, 3.0, 2.0, -1.0, 5.0])
        expected = [1.0, 0.0, 0.5, 7.0, 5.5, -1.0, 13.0]
        assert np.array_equal(shot(nodes)[0], expected)
        assert [float(shot(s)[0]) for s in nodes] == expected

    def test_scalar_b_is_b_of(self):
        params = reference_params()
        rng = np.random.default_rng(2)
        points = np.concatenate(
            [rng.uniform(0.0, 1.0, 500), 10.0 ** rng.uniform(-300.0, 0.0, 500), [0.0, 1e-4]]
        )
        points = points[points < 1.0]
        assert all(_b_scalar(float(x), params) == b_of(float(x), params) for x in points)

    @pytest.mark.parametrize("c2", [1.9, 1.99])
    def test_eta_matches_solve_ivp(self, c2):
        params = WaveParams(omega=OMEGA, c=float(np.sqrt(c2)))
        grid = make_grid(256.0, 65536)
        sigma1 = find_sigma1(params)
        gap = np.abs(solve_eta(params, grid, sigma1) - scipy_eta(params, grid, sigma1))
        assert gap.max() <= 1e-13, f"c^2 = {c2}: eta differs by {gap.max():.3g}"

    def test_single_shot_matches_solve_ivp(self):
        params = reference_params()
        grid = make_grid(1.0, 64)  # shorter than the core: no hand-off
        sigma1 = find_sigma1(params)
        gap = np.abs(solve_eta(params, grid, sigma1) - scipy_eta(params, grid, sigma1))
        assert gap.max() <= 1e-13


class TestPhase:
    def test_gauge_and_oddness(self, wave):
        grid = wave.grid
        mid = grid.num_points // 2
        assert wave.theta[mid] == 0.0
        assert np.allclose(
            wave.theta[1:mid], -wave.theta[-1:mid:-1], rtol=0.0, atol=1e-12
        )

    def test_nondecreasing(self, wave):
        assert np.all(np.diff(wave.theta) >= 0.0)

    def test_jump_matches_quadrature_of_rate(self, wave):
        # theta climbs from -jump/2 to +jump/2 across the box
        assert wave.theta[-1] - wave.theta[0] == pytest.approx(
            wave.phase_jump, abs=1e-6
        )
        assert wave.phase_jump == pytest.approx(1.30924177, abs=1e-6)

    def test_theta_solver_matches_profile(self, wave):
        theta = solve_theta(wave.eta, wave.params, wave.grid)
        assert np.array_equal(theta, wave.theta)

    def test_cumsum_is_cumulative_trapezoid(self, wave):
        integrate = pytest.importorskip("scipy.integrate")
        rate = wave.params.c * wave.eta / (2.0 * (1.0 - wave.eta))
        ref = integrate.cumulative_trapezoid(rate, dx=wave.grid.spacing, initial=0.0)
        ref -= ref[wave.grid.num_points // 2]
        assert np.array_equal(wave.theta, ref)


class TestAssembledProfile:
    def test_modulus_identity(self, wave):
        mod2 = np.abs(wave.v.values) ** 2
        assert np.abs(mod2 - (1.0 - wave.eta)).max() < 1e-12

    def test_never_vanishes(self, wave):
        assert np.abs(wave.v.values).min() ** 2 > 0.85

    def test_defect_stays_inside_certified_window(self, wave):
        # the certified window is a statement about eta; the recomputed
        # modulus defect only reproduces it up to roundoff in |e^{i theta}|^2
        assert np.all(wave.eta > 0.0)
        assert np.all(wave.eta < wave.params.sigma0)
        defect = 1.0 - np.abs(wave.v.values) ** 2
        assert np.all(defect > -1e-15)
        assert np.all(defect < wave.params.sigma0)

    def test_background_is_right_asymptotic_phase(self, wave):
        assert wave.v.background == pytest.approx(
            np.exp(0.5j * wave.phase_jump), abs=1e-12
        )

    def test_periodic_part_wraps_cleanly(self, wave):
        w = wave.periodic_part
        assert abs(w.values[0] - 1.0) < 1e-10
        # right end node sits one spacing short of L, so the twist leaves a
        # phase of twist*h there, nothing larger
        assert abs(w.values[-1] - 1.0) < 2.0 * wave.twist * wave.grid.spacing

    def test_energy_positive_and_frozen(self, wave):
        assert wave.energy == pytest.approx(0.08602313, rel=1e-5)

    def test_assemble_rejects_escaped_amplitude(self, wave):
        from vfsim.traveling_wave import assemble_wave

        bad = np.full_like(wave.eta, 0.9)
        with pytest.raises(BoundViolated):
            assemble_wave(wave.params, wave.grid, wave.sigma1, bad, wave.theta)


class TestResidual:
    def test_constant_background_is_exact(self):
        grid = make_grid(64.0, 512)
        ones = make_field(grid, np.ones(grid.num_points, dtype=complex), background=1.0)
        assert residual_tw(ones, reference_params()) == 0.0

    def test_wave_solves_equation(self, wave):
        assert residual_tw(wave.v, wave.params) < 1e-6

    def test_gp_soliton_is_near_miss(self, wave):
        control = gp_soliton(wave.params, wave.grid)
        res = residual_tw(control, wave.params)
        assert 1e-3 < res < 1e-2, f"negative control residual {res:.3g}"

    def test_wave_matches_oracle(self, wave):
        new, ref = residual_tw(wave.v, wave.params), oracle_residual_tw(wave.v, wave.params)
        assert abs(new - ref) <= 1e-12, f"{new!r} vs oracle {ref!r}"

    def test_gp_soliton_matches_oracle(self, wave):
        control = gp_soliton(wave.params, wave.grid)
        new, ref = residual_tw(control, wave.params), oracle_residual_tw(control, wave.params)
        assert abs(new - ref) <= 1e-12, f"{new!r} vs oracle {ref!r}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_twisted_random_field_matches_oracle(self, seed):
        field = twisted_random_field(seed)
        assert abs(_detwist(field)[2]) > 1e-3  # the de-twist is exercised
        params = reference_params()
        new, ref = residual_tw(field, params), oracle_residual_tw(field, params)
        assert abs(new - ref) <= 1e-12, f"{new!r} vs oracle {ref!r}"

    @pytest.mark.parametrize(
        "index, bad, error",
        [
            (200, np.nan, ZeroModulus),  # a NaN modulus fails the floor
            (200, np.inf, NumericalGuard),  # the residual is not finite
            (-1, np.nan, ZeroModulus),
        ],
        ids=["nan-inside", "inf-inside", "nan-at-end"],
    )
    def test_non_finite_field_is_guarded(self, index, bad, error):
        grid = make_grid(64.0, 512)
        values = np.ones(grid.num_points, dtype=complex)
        values[index] = bad
        with pytest.raises(error):
            residual_tw(make_field(grid, values, background=1.0), reference_params())

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_wronskian_rejects_non_finite_inside(self, bad):
        grid = make_grid(64.0, 512)
        values = np.ones(grid.num_points, dtype=complex)
        values[200] = bad
        with pytest.raises(NumericalGuard):
            wronskian(make_field(grid, values, background=1.0))

    def test_wronskian_rejects_nan_end(self):
        grid = make_grid(64.0, 512)
        values = np.ones(grid.num_points, dtype=complex)
        values[0] = np.nan
        with pytest.raises(ZeroModulus):
            wronskian(make_field(grid, values, background=1.0))


class TestGpSoliton:
    def test_center_modulus(self):
        p = reference_params()
        grid = make_grid(256.0, 4096)
        sol = gp_soliton(p, grid)
        center = np.abs(sol.values[grid.num_points // 2]) ** 2
        assert center == pytest.approx(p.c**2 / (2.0 * p.omega), abs=1e-12)

    def test_asymptotic_phase_jump(self):
        p = reference_params()
        grid = make_grid(256.0, 4096)
        sol = gp_soliton(p, grid)
        jump = float(np.angle(sol.values[-1] * np.conj(sol.values[0])))
        assert jump == pytest.approx(0.45102681, abs=1e-6)

    def test_modulus_returns_to_one(self):
        p = reference_params()
        grid = make_grid(256.0, 4096)
        sol = gp_soliton(p, grid)
        assert abs(np.abs(sol.values[0]) - 1.0) < 1e-12
        assert abs(np.abs(sol.values[-1]) - 1.0) < 1e-12

    def test_proximity_to_wave_shrinks_with_gap(self):
        grid = make_grid(256.0, 16384)
        gaps, dists = [], []
        for c2 in (1.98, 1.94, 1.90):
            p = WaveParams(omega=1.0, c=float(np.sqrt(c2)))
            prof = build_wave(p, grid)
            sol = gp_soliton(p, grid)
            gaps.append(p.gap)
            dists.append(np.abs(np.abs(prof.v.values) - np.abs(sol.values)).max())
        assert dists[0] < dists[1] < dists[2], (
            f"GP distance not monotone in the gap: {dists}"
        )


class TestMadelung:
    def test_wronskian_identity(self, fine_wave):
        target = fine_wave.params.c * fine_wave.eta / 2.0
        err = np.abs(wronskian(fine_wave.v) - target).max()
        assert err < 1e-8, f"wronskian identity off by {err:.3g}"

    def test_gradient_identity(self, fine_wave):
        w, spec, twist = _detwist(fine_wave.v)
        dw = np.fft.ifft(1j * fine_wave.grid.wavenumbers * spec)
        dv = (dw + 1j * twist * w) * np.exp(1j * twist * fine_wave.grid.nodes)
        om = fine_wave.params.omega
        target = -om * np.log1p(-fine_wave.eta) - om * fine_wave.eta
        err = np.abs(np.abs(dv) ** 2 - target).max()
        assert err < 1e-8, f"gradient identity off by {err:.3g}"


class TestPropagation:
    def test_wave_translates_at_speed_c(self):
        # The twist leaks a shift of 2*twist*t into the periodic part, so the
        # box is taken long to keep that slop inside the tolerance.
        p = reference_params()
        grid = make_grid(2048.0, 65536)
        prof = build_wave(p, grid)
        lam = prof.twist
        start = make_field(grid, prof.periodic_part.values, background=0.0j)
        states, _ = evolve_bm(
            PhiState(start, p.omega), T=1.0, dt=2e-3, sample_every=10**9
        )
        evolved = states[-1].phi.values * np.exp(1j * lam * grid.nodes)
        expected = shift_field(prof.periodic_part, -p.c).values * np.exp(
            1j * lam * (grid.nodes + p.c)
        )
        err = np.abs(evolved - expected).max()
        assert err < 1e-4, f"propagation error {err:.3g}"


class TestHelix:
    def test_rejects_bad_count(self, wave):
        with pytest.raises(DomainError):
            helix_filaments(wave, 0, 0.0)

    def test_rejects_off_lattice_wavenumber(self, wave):
        with pytest.raises(IncompatibleWavenumber):
            helix_filaments(wave, 3, 0.1)

    def test_initial_time_matches_direct_formula(self, wave):
        grid = wave.grid
        nu = 56.0 * np.pi / grid.half_length
        fields = helix_filaments(wave, 3, nu)
        for j, f in enumerate(fields):
            direct = wave.v.values * np.exp(
                1j * nu * grid.nodes + 2j * np.pi * j / 3.0
            )
            assert np.abs(f.values - direct).max() < 1e-12
            assert f.background == 0.0

    def test_lattice_time_shift_is_a_roll(self, wave):
        grid = wave.grid
        t = grid.spacing / wave.params.c
        fields = helix_filaments(wave, 1, 0.0, time=t)
        rolled = np.roll(wave.periodic_part.values, -1)
        expected = (
            rolled
            * np.exp(1j * wave.twist * (grid.nodes + grid.spacing))
            * np.exp(1j * t * wave.params.omega)
        )
        assert np.abs(fields[0].values - expected).max() < 1e-12

    def test_filaments_share_modulus(self, wave):
        fields = helix_filaments(wave, 4, 0.0, time=0.3)
        mods = [np.abs(f.values) for f in fields]
        for other in mods[1:]:
            assert np.abs(other - mods[0]).max() < 1e-13


class TestSweep:
    def test_every_wave_solves_equation(self, sweep_records):
        worst = max(r["residual"] for r in sweep_records)
        assert worst < 1e-6, f"worst sweep residual {worst:.3g}"

    def test_sigma1_monotone_in_gap(self, sweep_records):
        roots = [r["sigma1"] for r in sweep_records]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_energy_scaling_exponent(self, sweep_records):
        gaps = np.array([2.0 - r["c2"] for r in sweep_records])
        energies = np.array([r["energy"] for r in sweep_records])
        slope = np.polyfit(np.log(gaps), np.log(energies), 1)[0]
        assert abs(slope - 1.5) < 0.1, f"energy exponent {slope:.4f}"

    def test_phase_jump_monotone_in_gap(self, sweep_records):
        jumps = [r["phase_jump"] for r in sweep_records]
        assert all(a < b for a, b in zip(jumps, jumps[1:]))

    def test_traced_peak_holds_one_profile(self):
        # one profile is three full-grid complex arrays' worth (v, w, and the
        # real eta and theta), and building it and its residual needs a few
        # more; measured 6.6 such arrays, the bound leaves about 25 % on top
        grid = make_grid(400.0, 65536)
        params = [WaveParams(omega=1.0, c=float(np.sqrt(c2))) for c2 in (1.99, 1.95, 1.90)]
        tracemalloc.start()
        try:
            sweep_waves(params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids = peak / (16 * grid.num_points)
        assert grids < 8.0, f"sweep peak {grids:.2f} full-grid complex arrays"
