"""Tests for the coupled filament perturbation system.

Covered here:
  * the interaction term: exact vanishing on unperturbed and identically
    perturbed data, the closure property on shared-profile (dilation)
    data, and a near-miss variant of that closure as a negative control;
    property tests: bit-for-bit equality with an ordered double loop,
    relabelling equivariance and pair antisymmetry,
  * energy bookkeeping: agreement with N copies of the single-profile
    energy on dilation data, the rotation identity 2I = omega A, and the
    square / segment / hexagon energy identities together with a
    wrong-coefficient variant, and their BoundViolated check under python -O,
  * the assembled linear parts L_v, L_w: vanishing on the unit square,
    nonvanishing on a stretched rectangle,
  * coercivity of the renormalized energy on the admissible ratio band,
    including the failure of the bound at the band edge for c = 0.25,
  * the existence-time prediction: formula, scaling in the data size,
    zero-data sentinel,
  * evolution: exact zero preservation, energy conservation for the
    triangle and the two-vortex pair, parallelogram invariance with its
    identity and diagonal-sum bounds, the product-ansatz conjugacy with
    the single-profile integrator, the self-similar collision scenario
    (field accuracy and detection geometry), the run guards, and
    restart chaining,
  * the run's reused buffers: evolve equals Strang steps written with
    fresh temporaries bit for bit, repeated runs agree, returned states
    and fields own their memory, and a collision halt keeps the state at
    the start of the failing step,
  * the symmetry tag: which constructors set it, ConfigError for a tag on
    an irregular backbone, on unequal circulations or on fields off the
    orbit, the untagged collision's early trip (the transverse
    instability), tagged against untagged runs for the triangle
    dilation, the collision and the parallelogram, chained runs keeping
    the tag, and a property test of one tagged step on N-gons with and
    without a centre, whose snapshot lies on the orbit bit for bit,
  * the free flow of a single orbit over a stationary backbone: the
    collision data never build the pair kernel, the centred N = 3 and
    N = 5 collision data halt on pair (0, 1) at sigma = 0 within a step
    of the closed-form crossing, a dispersing dilation bump on a short
    box flags the boundary at the same step as the untagged RK4 run, and
    a rotating orbit keeps the kernel,
  * the free flow in blocks of steps: evolve equals a per-step reference
    flow with fresh temporaries bit for bit (states, status, halt time,
    pair and sigma) on random stationary orbits, and on a collision halt
    and a boundary halt inside a block; the first failing step of a block
    wins, a NaN separation before a collision; the guard checks only the
    pair rows nearest on the backbone (1 of 4 on the collision data, 3 of
    6 on the centred hexagon) and the centred 7- and 8-gons, whose side
    pairs are the nearest, halt on the all-rows reference's pair,
  * a property test: evolve commutes with a rotation of the backbone and
    the fields by exp(i theta), on generic and on free-flow data,
  * NaN and inf data end as NumericalGuard in the kernel, in energies()
    (also under python -O) and in evolve(),
  * the unordered pair layout of the snapshot quantities: energies(),
    max_pair_norm and the pair-norm growth constant agree with ordered
    double-loop references, a lone filament has min_sep = inf and
    sup_ratio_dev = 0, and equal grids built separately are accepted.
"""

import dataclasses

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vfsim
from vfsim.config import ScenarioConfig
from vfsim.errors import (
    CollisionDetected,
    ConfigError,
    NumericalGuard,
    WrongConfig,
    WrongN,
)
from vfsim.filaments import (
    DELTA_MIN,
    FilamentState,
    _separation_halt,
    backbone,
    check_Lv_vanishes,
    coercivity_check,
    collision_initial_state,
    default_energy_cap,
    dilation_state,
    energies,
    evolve,
    filament_state,
    growth_monitors,
    hexagon_energy_identity,
    interaction_rhs,
    max_pair_norm,
    min_separation_field,
    predicted_T,
    segment_energy_identity,
    square_energy_identity,
    tilde_E0,
    vw_decompose,
    zero_perturbations,
)
from vfsim.grid import _BLOCK_ELEMENTS, derivative, make_field, make_grid, quad_trapezoid
from vfsim.point_vortex import VortexConfig, min_separation, polygon_config
from vfsim.reduced import PhiState, analytic_collision_phi, energy_bm, evolve_bm
from vfsim.runner import build_filament_state
from vfsim.symmetry import Orbits, pair_rows, point_reflection, rotation_symmetry

GRID = make_grid(30.0, 1024)
SQUARE = polygon_config(4, 1.0, 1.0)
TRIANGLE = polygon_config(3, 1.0, 1.0)


def random_state(vortex, grid, scale, seed, kinds=None):
    """Decaying random data: three modulated bumps per filament."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(vortex.count):
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
    return filament_state(fields, vortex)


def gaussian_profile(grid, amp=0.05, width=1.0):
    vals = 1.0 + amp * np.exp(-((grid.nodes / width) ** 2))
    return make_field(grid, vals.astype(np.complex128), background=1.0)


# ---------------------------------------------------------------------------
# interaction term
# ---------------------------------------------------------------------------

class TestInteractionRhs:
    def test_vanishes_on_unperturbed_data(self):
        state = zero_perturbations(SQUARE, GRID)
        for f in interaction_rhs(state):
            assert np.all(f.values == 0.0)

    def test_vanishes_on_identical_perturbations(self):
        vals = 0.1 * np.exp(-(GRID.nodes**2) + 0.3j * GRID.nodes)
        fields = [make_field(GRID, vals.copy()) for _ in range(4)]
        state = filament_state(fields, SQUARE)
        for f in interaction_rhs(state):
            assert np.all(f.values == 0.0)

    @pytest.mark.parametrize("vortex", [TRIANGLE, SQUARE], ids=["N3", "N4"])
    def test_dilation_closure(self, vortex):
        """On u_j = X_j (phi - 1) the sum collapses to a shared profile.

        Every filament feels omega * X_j * (phi / |phi|^2 - 1), which is
        what makes the product ansatz consistent.
        """
        phi = gaussian_profile(GRID)
        state = dilation_state(vortex, phi, time=0.3)
        rhs = interaction_rhs(state)
        xs = backbone(state)
        pv = phi.values
        expected = pv / np.abs(pv) ** 2 - 1.0
        worst = 0.0
        for j, f in enumerate(rhs):
            target = vortex.omega * xs[j] * expected
            worst = max(worst, float(np.max(np.abs(f.values - target))))
        assert worst < 1e-13, f"dilation closure off by {worst:.3e}"

    def test_dilation_closure_wrong_variant(self):
        """The similar-looking omega X_j (phi/|phi|^2)(1 - |phi|^2) is not
        the collapsed interaction; it differs by omega u_j."""
        phi = gaussian_profile(GRID)
        state = dilation_state(SQUARE, phi)
        rhs = interaction_rhs(state)
        xs = backbone(state)
        pv = phi.values
        wrong = pv / np.abs(pv) ** 2 * (1.0 - np.abs(pv) ** 2)
        gap = max(
            float(np.max(np.abs(f.values - SQUARE.omega * xs[j] * wrong)))
            for j, f in enumerate(rhs)
        )
        assert gap > 1e-2, f"negative control too close: {gap:.3e}"

    def test_coincident_filaments_rejected(self):
        phi_vals = np.zeros(GRID.num_points, dtype=np.complex128)
        phi = make_field(GRID, phi_vals, background=1.0)
        # a vanishing profile puts all filaments on top of each other
        with pytest.raises(CollisionDetected):
            dilation_state(SQUARE, phi)


def naive_rhs(state, orbits=None):
    """The interaction as an ordered double loop, and each row's sum of |terms|.

    Row j accumulates acc = acc + Gamma_k (1/conj(X_jk + (u_j - u_k))
    - 1/conj(X_jk)) for k ascending, every operation on arrays.  With a
    symmetry's ``orbits`` the rows are the representatives' and the pair
    differences are the shared rows p of ``pair_rows``, psi_p = X_p + the
    combination ``coeffs`` of the representatives' fields: representative
    i accumulates acc = acc + w (1/conj(psi_p) - 1/conj(X_p)) for the row p
    and signed weight w = +-Gamma_k of each k != r, k ascending.
    """
    xs = backbone(state)
    g = state.cfg.circulations
    u = [f.values for f in state.u]
    rows, sizes = [], []
    if orbits is not None:
        (j, k), gather, weights, coeffs = pair_rows(state.cfg, orbits)
        xp = xs[j] - xs[k]
        psi = xp[:, None] + coeffs @ np.array(u)[orbits.reps]
        for row_ids, row_weights in zip(gather, weights[..., 0]):
            acc = np.zeros_like(u[0])
            size = np.zeros(u[0].shape)
            for p, w in zip(row_ids, row_weights):
                term = w * (1.0 / np.conj(psi[p]) - 1.0 / np.conj(xp[p:p + 1]))
                acc = acc + term
                size += np.abs(term)
            rows.append(acc)
            sizes.append(size)
        return np.array(rows), np.array(sizes)
    for j in range(state.count):
        acc = np.zeros_like(u[j])
        size = np.zeros(u[j].shape)
        for k in range(state.count):
            if k == j:
                continue
            xjk = xs[j:j + 1] - xs[k:k + 1]
            term = g[k] * (1.0 / np.conj(xjk + (u[j] - u[k])) - 1.0 / np.conj(xjk))
            acc = acc + term
            size += np.abs(term)
        rows.append(acc)
        sizes.append(size)
    return np.array(rows), np.array(sizes)


KERNEL_GRID = make_grid(10.0, 64)


@st.composite
def kernel_states(draw):
    """2 to 7 filaments with mixed-sign circulations on a rotated backbone.

    Each perturbation stays within 0.3 of the smallest backbone spacing, so
    no pair comes near the collision threshold.
    """
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    omega = draw(st.floats(-2.0, 2.0))
    time = draw(st.floats(0.0, 3.0))
    turns = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    positions = np.exp(1j * angle) * rng.uniform(0.5, 2.0, n) * np.exp(
        2j * np.pi * turns
    )
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    vortex = VortexConfig(
        positions=positions,
        circulations=signs * rng.uniform(0.2, 2.0, n),
        omega=omega,
    )
    shape = (n, KERNEL_GRID.num_points)
    radius = 0.3 * min_separation(vortex) * np.sqrt(rng.uniform(0.0, 1.0, shape))
    u = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, radius.shape))
    fields = [make_field(KERNEL_GRID, row) for row in u]
    return filament_state(fields, vortex, time=time)


def rhs_matrix(state):
    return np.array([f.values for f in interaction_rhs(state)])


class TestKernelProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kernel_states())
    def test_bitwise_equal_to_ordered_loop(self, state):
        expected, _ = naive_rhs(state)
        assert np.array_equal(rhs_matrix(state), expected)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(kernel_states(), st.randoms(use_true_random=False))
    def test_relabelling_equivariance(self, state, random):
        perm = list(range(state.count))
        random.shuffle(perm)
        cfg = state.cfg
        relabelled = filament_state(
            [state.u[p] for p in perm],
            VortexConfig(
                positions=cfg.positions[perm],
                circulations=cfg.circulations[perm],
                omega=cfg.omega,
            ),
            time=state.time,
        )
        rhs = rhs_matrix(state)
        _, sizes = naive_rhs(state)
        gap = np.abs(rhs_matrix(relabelled) - rhs[perm])
        assert np.all(gap <= 1e-12 * sizes[perm])

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(kernel_states())
    def test_pair_antisymmetry(self, state):
        """Each pair enters with Gamma_j Gamma_k (term_jk + term_kj) = 0."""
        g = state.cfg.circulations
        _, sizes = naive_rhs(state)
        total = np.abs(g @ rhs_matrix(state))
        assert np.all(total <= 1e-12 * (np.abs(g) @ sizes))


def ordered_energies(state):
    """EnergyReport fields from the ordered (N, N, M) pair table.

    The diagonal is masked with |X_jj|^2 = inf and every ordered sum is
    halved to count each unordered pair once.
    """
    grid = state.grid
    g = state.cfg.circulations
    xs = backbone(state)
    u_vals = np.array([f.values for f in state.u])
    kinetic = 0.0
    for j, f in enumerate(state.u):
        du = derivative(f).values
        kinetic += 0.5 * g[j] ** 2 * float(quad_trapezoid(grid, np.abs(du) ** 2))
    self_dens = 2.0 * (np.conj(xs)[:, None] * u_vals).real + np.abs(u_vals) ** 2
    a_quant = float(quad_trapezoid(grid, np.sum(g[:, None] * self_dens, axis=0)))
    xd = xs[:, None] - xs[None, :]
    ud = u_vals[:, None, :] - u_vals[None, :, :]
    pair_dens = 2.0 * (np.conj(xd)[:, :, None] * ud).real + np.abs(ud) ** 2
    xd_sq = np.abs(xd) ** 2
    np.fill_diagonal(xd_sq, np.inf)
    rel = pair_dens / xd_sq[:, :, None]
    dist = np.sqrt(np.maximum(xd_sq[:, :, None] + pair_dens, 0.0))
    gg = (g[:, None] * g[None, :])[:, :, None]

    def ordered_integral(dens):
        return float(quad_trapezoid(grid, np.sum(gg * dens, axis=(0, 1))))

    h_quant = kinetic - 0.25 * ordered_integral(np.log1p(rel))
    i_quant = 0.25 * ordered_integral(rel)
    vw_norms = None
    if state.count == 4 and not state.cfg.has_center:
        vw_norms = tuple(
            math.sqrt(float(quad_trapezoid(grid, np.abs(s) ** 2)))
            for s in (u_vals[0] + u_vals[2], u_vals[1] + u_vals[3])
        )
    return {
        "time": state.time,
        "H": h_quant,
        "A": a_quant,
        "T_quant": 0.5 * ordered_integral(pair_dens),
        "I": i_quant,
        "E": h_quant + i_quant,
        "sup_ratio_dev": float(np.max(np.abs(rel))),
        "min_sep": float(dist.min()),
        "vw_norms": vw_norms,
    }


def loop_pair_norms(state):
    """(largest ||u_j - u_k|| over j < k, sum of ||u_j - u_k|| over j != k)."""
    u = [f.values for f in state.u]
    best, total = 0.0, 0.0
    for j in range(state.count):
        for k in range(state.count):
            if j != k:
                sq = quad_trapezoid(state.grid, np.abs(u[j] - u[k]) ** 2)
                norm = math.sqrt(float(sq))
                total += norm
                if j < k:
                    best = max(best, norm)
    return best, total


def loop_pair_norm_C(states, reports):
    """The pair-norm growth constant fitted with the double-loop pair sums."""
    sums = [loop_pair_norms(s)[1] for s in states]
    pair_c, sup_e = 0.0, 0.0
    for s, total, r in zip(states, sums, reports):
        sup_e = max(sup_e, max(r.E, 0.0))
        denom = sums[0] + (s.time - states[0].time) * math.sqrt(sup_e)
        if denom > 0.0:
            pair_c = max(pair_c, total / denom)
    return pair_c


def assert_close(got, want, what):
    assert got == want or abs(got - want) <= 1e-13 * max(1.0, abs(want)), (
        f"{what}: {got!r} vs {want!r}"
    )


def assert_report_matches_ordered(state):
    rep = energies(state)
    for name, want in ordered_energies(state).items():
        got = getattr(rep, name)
        if name == "vw_norms" and want is not None:
            assert got is not None
            for a, b in zip(got, want):
                assert_close(a, b, name)
        else:
            assert_close(got, want, name)
    return rep


class TestPairLayout:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(kernel_states())
    def test_energies_match_ordered_table(self, state):
        assert_report_matches_ordered(state)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(kernel_states())
    def test_pair_norms_match_loops(self, state):
        # a short fake trajectory: the state, then rescaled copies later on
        states = [state] + [
            filament_state(
                [make_field(f.grid, scale * f.values) for f in state.u],
                state.cfg,
                time=state.time + dt,
            )
            for scale, dt in ((0.5, 0.1), (1.2, 0.3))
        ]
        reports = [energies(s) for s in states]
        for s in states:
            assert_close(max_pair_norm(s), loop_pair_norms(s)[0], "max_pair_norm")
        growth = growth_monitors(states, reports)
        assert_close(
            growth.pair_norm_C, loop_pair_norm_C(states, reports), "pair_norm_C"
        )

    def test_lone_filament(self):
        cfg = VortexConfig(
            positions=np.array([0.5 + 0.2j]),
            circulations=np.array([1.5]),
            omega=0.0,
        )
        vals = 0.1 * np.exp(-(KERNEL_GRID.nodes**2) + 0.7j * KERNEL_GRID.nodes)
        state = filament_state([make_field(KERNEL_GRID, vals)], cfg)
        rep = assert_report_matches_ordered(state)
        assert rep.min_sep == math.inf
        assert rep.sup_ratio_dev == 0.0
        assert rep.I == rep.T_quant == 0.0
        assert max_pair_norm(state) == 0.0
        assert growth_monitors([state]).pair_norm_C == 0.0


class TestStateValidation:
    def test_equal_grids_built_separately_accepted(self):
        grid = make_grid(20.0, 256)
        rows = [0.01 * np.exp(-((grid.nodes - c) ** 2)) for c in range(5)]
        fields = [make_field(grid, r) for r in rows[:4]]
        fields.append(make_field(make_grid(20.0, 256), rows[4]))
        state = filament_state(fields, polygon_config(5, 1.0, 1.0))
        assert state.count == 5

    @pytest.mark.parametrize("other", [(20.0, 512), (10.0, 256)])
    def test_different_grid_rejected(self, other):
        grid = make_grid(20.0, 256)
        odd = make_grid(*other)
        fields = [make_field(grid, np.zeros(grid.num_points)) for _ in range(3)]
        fields.append(make_field(odd, np.zeros(odd.num_points)))
        with pytest.raises(ConfigError, match="different grid"):
            filament_state(fields, SQUARE)

    def test_nan_node_is_numerical_guard(self):
        grid = make_grid(20.0, 256)
        rows = [0.01 * np.exp(-((grid.nodes - c) ** 2)) + 0j for c in range(4)]
        rows[1][100] = np.nan
        with pytest.raises(NumericalGuard, match="NaN filament separation"):
            filament_state([make_field(grid, r) for r in rows], SQUARE)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

class TestEnergies:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_matches_profile_energy_on_dilation(self, n):
        """E of dilation data is N times the single-profile energy."""
        vortex = polygon_config(n, 1.0, 1.0)
        phi = gaussian_profile(GRID)
        rep = energies(dilation_state(vortex, phi))
        target = n * energy_bm(phi, vortex.omega)
        rel = abs(rep.E - target) / abs(target)
        assert rel < 1e-12, f"N={n}: E={rep.E!r} vs N*E_profile={target!r}"

    def test_rotation_identity(self):
        """On dilation data 2I = omega A; the unhalved version fails."""
        phi = gaussian_profile(GRID)
        rep = energies(dilation_state(TRIANGLE, phi))
        omega_a = TRIANGLE.omega * rep.A
        assert abs(2.0 * rep.I - omega_a) < 1e-12, (
            f"2I={2 * rep.I!r} vs omega*A={omega_a!r}"
        )
        assert abs(rep.I - omega_a) > 0.1

    def test_report_consistency_on_generic_data(self):
        """The expanded grouping and the single-integrand form agree (the
        computation itself asserts this); pair quantities are finite."""
        state = random_state(SQUARE, GRID, 0.05, seed=11)
        rep = energies(state)
        for value in (rep.H, rep.A, rep.T_quant, rep.I, rep.E):
            assert math.isfinite(value)
        assert rep.min_sep > 0.0
        assert rep.vw_norms is not None

    def test_vw_norms_only_for_plain_four(self):
        phi = gaussian_profile(GRID)
        assert energies(dilation_state(TRIANGLE, phi)).vw_norms is None
        assert energies(dilation_state(SQUARE, phi)).vw_norms is not None


class TestSquareIdentity:
    @pytest.mark.parametrize("seed", range(10))
    def test_residual_vanishes(self, seed):
        state = random_state(SQUARE, GRID, 0.05, seed)
        res = square_energy_identity(state)
        assert res < 1e-12, f"seed {seed}: residual {res:.3e}"

    @pytest.mark.parametrize("seed", [0, 5])
    def test_doubled_area_variant_fails(self, seed):
        """Doubling the area coefficient (a plausible transcription slip)
        breaks the identity by an O(1) relative amount."""
        state = random_state(SQUARE, GRID, 0.05, seed)
        rep = energies(state)
        v, w = vw_decompose(state)
        vsq = quad_trapezoid(GRID, np.abs(v.values) ** 2)
        wsq = quad_trapezoid(GRID, np.abs(w.values) ** 2)
        wrong = rep.H + rep.T_quant / 4.0 - rep.A / 2.0 + (vsq + wsq) / 8.0
        scale = max(abs(rep.E), abs(wrong), 1e-30)
        assert abs(rep.E - wrong) / scale > 1e-3

    def test_requires_unit_square(self):
        state = random_state(TRIANGLE, GRID, 0.05, 0)
        with pytest.raises(WrongConfig):
            square_energy_identity(state)

    def test_segment_identity(self):
        seg = polygon_config(2, 1.0, 1.0, center_circulation=1.0)
        for seed in range(5):
            state = random_state(seg, GRID, 0.05, seed)
            res = segment_energy_identity(state)
            assert res < 1e-12, f"seed {seed}: residual {res:.3e}"

    def test_hexagon_identity(self):
        hexagon = polygon_config(6, 1.0, 1.0)
        for seed in range(5):
            state = random_state(hexagon, GRID, 0.05, seed)
            res = hexagon_energy_identity(state)
            assert res < 1e-12, f"seed {seed}: residual {res:.3e}"

    def test_identity_holds_along_evolution(self):
        state = random_state(SQUARE, GRID, 0.02, seed=4)
        result = evolve(state, 0.5, 1e-3, sample_every=125)
        assert result.status == "Completed"
        for st in result.states:
            res = square_energy_identity(st)
            assert res < 1e-12, f"t={st.time}: residual {res:.3e}"

    def test_broken_identities_raise_under_optimize_flag(self):
        """With E shifted by 1, each identity raises BoundViolated; no assert."""
        code = (
            "import dataclasses\n"
            "from test_filaments import GRID, SQUARE, random_state\n"
            "from vfsim import filaments\n"
            "from vfsim.errors import BoundViolated\n"
            "from vfsim.point_vortex import polygon_config\n"
            "exact = filaments.energies\n"
            "filaments.energies = lambda s: dataclasses.replace(exact(s), E=exact(s).E + 1.0)\n"
            "cases = [\n"
            "    (filaments.square_energy_identity, SQUARE),\n"
            "    (filaments.segment_energy_identity,\n"
            "     polygon_config(2, 1.0, 1.0, center_circulation=1.0)),\n"
            "    (filaments.hexagon_energy_identity, polygon_config(6, 1.0, 1.0)),\n"
            "]\n"
            "for identity, vortex in cases:\n"
            "    try:\n"
            "        identity(random_state(vortex, GRID, 0.05, 0))\n"
            "    except BoundViolated:\n"
            "        print('raised')\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(vfsim.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.split() == ["raised"] * 3


class TestLinearParts:
    @pytest.mark.parametrize("seed", range(5))
    def test_vanish_on_unit_square(self, seed):
        state = random_state(SQUARE, GRID, 0.05, seed)
        sup_v, sup_w = check_Lv_vanishes(state)
        assert sup_v < 1e-12 and sup_w < 1e-12, (
            f"seed {seed}: L_v={sup_v:.3e}, L_w={sup_w:.3e}"
        )

    def test_nonzero_on_stretched_rectangle(self):
        from vfsim.point_vortex import VortexConfig

        stretched = VortexConfig(
            positions=np.array([1.1, 1j, -1.1, -1j]),
            circulations=np.ones(4),
            has_center=False,
            omega=0.0,
        )
        state = random_state(stretched, GRID, 0.05, seed=0)
        sup_v, sup_w = check_Lv_vanishes(state)
        assert max(sup_v, sup_w) > 1e-3, (
            f"stretched backbone should break the cancellation, got "
            f"{sup_v:.3e}, {sup_w:.3e}"
        )


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

class TestCoercivity:
    @pytest.mark.parametrize("seed", range(10))
    def test_margin_positive_on_random_data(self, seed):
        state = random_state(SQUARE, GRID, 0.05, seed)
        rep = energies(state)
        margin = coercivity_check(rep, state, c=0.21)
        assert margin > 0.0, f"seed {seed}: margin {margin:.3e}"

    def _band_edge_state(self):
        """Data driving every squared-modulus ratio to the band edge 5/4."""
        # u_jk = eps * X_jk makes |Psi_jk|^2 / |X_jk|^2 = (1 + eps)^2
        eps = math.sqrt(1.25) - 1.0
        xs = SQUARE.positions
        window = np.exp(-((GRID.nodes / 8.0) ** 2) ** 4)
        fields = [make_field(GRID, eps * x * window) for x in xs]
        return filament_state(fields, SQUARE)

    def test_band_edge_separates_constants(self):
        """c = 0.21 still passes at ratio 5/4; c = 0.25 fails there, which
        pins the constant between the two."""
        state = self._band_edge_state()
        rep = energies(state)
        assert rep.sup_ratio_dev > 0.2
        margin = coercivity_check(rep, state, c=0.21)
        assert margin > 0.0
        with pytest.raises(AssertionError):
            coercivity_check(rep, state, c=0.25)

    def test_out_of_band_rejected(self):
        from vfsim.errors import PreconditionViolated

        state = random_state(SQUARE, GRID, 0.6, seed=1)
        rep = energies(state)
        if rep.sup_ratio_dev <= 0.25:
            pytest.skip("data landed inside the band")
        with pytest.raises(PreconditionViolated):
            coercivity_check(rep, state)


# ---------------------------------------------------------------------------
# existence-time prediction
# ---------------------------------------------------------------------------

class TestExistenceTime:
    def test_formula(self):
        # hand-evaluated: 0.1 * min(1e-4^(-1/4) * 0.01^(-1/2), 1e-4^(-1/3))
        first = 1e-4 ** (-0.25) * 0.01 ** (-0.5)
        second = 1e-4 ** (-1.0 / 3.0)
        assert predicted_T(1e-4, 0.01) == pytest.approx(0.1 * min(first, second))

    def test_zero_data_sentinel(self):
        state = zero_perturbations(SQUARE, GRID)
        assert tilde_E0(state) == 0.0
        assert predicted_T(0.0, 0.0) == math.inf

    def test_prediction_grows_as_data_shrinks(self):
        base = random_state(SQUARE, GRID, 0.02, seed=7)
        times = []
        for factor in (1.0, 0.5, 0.25, 0.125):
            fields = [
                make_field(GRID, factor * f.values.copy()) for f in base.u
            ]
            state = filament_state(fields, SQUARE)
            times.append(predicted_T(tilde_E0(state), max_pair_norm(state)))
        assert all(b > a for a, b in zip(times, times[1:])), times

    def test_needs_plain_four(self):
        state = zero_perturbations(TRIANGLE, GRID)
        with pytest.raises(WrongN):
            tilde_E0(state)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

class TestEvolve:
    def test_zero_data_stays_zero(self):
        state = zero_perturbations(SQUARE, GRID)
        result = evolve(state, 0.2, 1e-3, sample_every=50)
        assert result.status == "Completed"
        for st in result.states:
            for f in st.u:
                assert np.all(f.values == 0.0)

    @pytest.mark.parametrize(
        "vortex",
        [TRIANGLE, polygon_config(2, 1.0, 1.0)],
        ids=["triangle", "pair"],
    )
    def test_energy_conserved(self, vortex):
        state = random_state(vortex, GRID, 0.05, seed=2)
        result = evolve(state, 1.0, 1e-3, sample_every=100)
        assert result.status == "Completed"
        e = [r.E for r in result.reports]
        rel = max(abs(x - e[0]) for x in e) / abs(e[0])
        assert rel < 1e-6, f"relative energy drift {rel:.3e}"

    def test_parallelogram_structure_preserved(self):
        """Antisymmetric square data (g, h, -g, -h) keeps its shape, its
        diagonal sums stay at rounding level, and energy is conserved."""
        rng = np.random.default_rng(3)

        def bump():
            vals = np.zeros(GRID.num_points, dtype=np.complex128)
            for _ in range(3):
                a = 0.02 * rng.uniform(0.3, 1.0)
                w = 2.0 * rng.uniform(0.7, 1.6)
                c = rng.uniform(-2.0, 2.0)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                k = rng.uniform(-1.0, 1.0) / w
                vals += a * np.exp(1j * phase) * np.exp(
                    -(((GRID.nodes - c) / w) ** 2) + 1j * k * GRID.nodes
                )
            return vals

        ga, gb = bump(), bump()
        state = filament_state(
            [make_field(GRID, v) for v in (ga, gb, -ga, -gb)], SQUARE
        )
        result = evolve(state, 1.5, 1e-3, sample_every=250)
        assert result.status == "Completed"
        for st in result.states:
            u = [f.values for f in st.u]
            anti = max(
                float(np.max(np.abs(u[0] + u[2]))),
                float(np.max(np.abs(u[1] + u[3]))),
            )
            assert anti < 1e-12, f"t={st.time}: antisymmetry broken by {anti:.3e}"
        assert max(max(r.vw_norms) for r in result.reports) < 1e-12
        e = [r.E for r in result.reports]
        assert max(abs(x - e[0]) for x in e) / abs(e[0]) < 1e-6
        growth = growth_monitors(result.states, result.reports)
        assert growth.vw_C is not None and growth.vw_C < 1e-9

    def test_product_ansatz_conjugacy(self):
        """Dilation data evolved by the full system stays a dilation of the
        single-profile evolution: u_j(t) = X_j(t) (Phi(t) - 1)."""
        phi0 = gaussian_profile(GRID)
        state = dilation_state(TRIANGLE, phi0)
        result = evolve(state, 1.0, 1e-3, sample_every=1000)
        assert result.status == "Completed"

        profile_states, _ = evolve_bm(
            PhiState(phi=phi0, omega=TRIANGLE.omega, time=0.0),
            1.0,
            1e-3,
            sample_every=1000,
        )
        phi_final = profile_states[-1].phi.values
        xs = backbone(result.states[-1])
        worst = max(
            float(np.max(np.abs(result.states[-1].u[j].values - x * (phi_final - 1.0))))
            for j, x in enumerate(xs)
        )
        assert worst < 1e-10, f"conjugacy gap {worst:.3e}"

    def test_restart_chaining_matches_single_run(self):
        state = random_state(SQUARE, GRID, 0.02, seed=9)
        once = evolve(state, 0.2, 1e-3, sample_every=200)
        first = evolve(state, 0.1, 1e-3, sample_every=100)
        second = evolve(first.states[-1], 0.1, 1e-3, sample_every=100)
        assert second.states[-1].time == pytest.approx(0.2)
        gap = max(
            float(np.max(np.abs(a.values - b.values)))
            for a, b in zip(once.states[-1].u, second.states[-1].u)
        )
        assert gap < 1e-13, f"chained restart deviates by {gap:.3e}"

    def test_energy_cap_guard(self):
        state = random_state(TRIANGLE, GRID, 0.05, seed=2)
        scale = energies(state).E
        result = evolve(state, 0.2, 1e-3, sample_every=10, energy_cap=scale / 2)
        assert result.status == "EnergyCapExceeded"
        assert result.halt_time is not None
        assert result.energy_cap == pytest.approx(scale / 2)

    def test_default_energy_cap_factor(self):
        square = random_state(SQUARE, GRID, 0.05, seed=2)
        assert default_energy_cap(square, 3.0) == 3.0 * tilde_E0(square)
        triangle = random_state(TRIANGLE, GRID, 0.05, seed=2)
        assert default_energy_cap(triangle) == 10.0 * energies(triangle).E
        mixed = collision_initial_state(4, GRID)
        assert default_energy_cap(mixed, 3.0) is None

    def test_boundary_guard(self):
        narrow = make_grid(10.0, 256)
        vals = 0.05 * np.exp(-((narrow.nodes / 3.0) ** 2))
        fields = [
            make_field(narrow, vals.astype(np.complex128)) for _ in range(4)
        ]
        state = filament_state(fields, SQUARE)
        result = evolve(state, 0.2, 1e-3, sample_every=10)
        assert result.status == "BoundaryContaminated"
        assert result.halt_time is not None and result.halt_time < 0.1


@pytest.fixture(scope="module")
def collision_run():
    grid = make_grid(20.0, 512)
    state = collision_initial_state(4, grid)
    return grid, evolve(
        state,
        1.05,
        2.5e-4,
        sample_every=1000,
        delta_min=0.02,
        boundary_tol=1e-6,
    )


class TestCollisionScenario:
    def test_initial_data_geometry(self):
        grid = make_grid(20.0, 512)
        state = collision_initial_state(4, grid)
        assert state.cfg.has_center
        assert state.cfg.omega == pytest.approx(0.0)
        # the center filament carries no perturbation
        assert np.all(state.u[0].values == 0.0)
        # at t = 0 the closest approach is off-axis (the profile dips
        # below 1 away from the origin before the contraction localizes)
        sep, sigma, _pair = min_separation_field(state)
        assert 0.5 < sep < 0.7
        assert 1.0 < abs(sigma) < 2.5

    def test_detection(self, collision_run):
        _grid, result = collision_run
        assert result.status == "CollisionDetected"
        assert result.collision_pair == (0, 1)
        assert result.collision_sigma == pytest.approx(0.0, abs=1e-12)
        assert 0.97 <= result.halt_time <= 1.01, (
            f"detection at t={result.halt_time}"
        )

    def test_field_tracks_analytic_profile(self, collision_run):
        """Away from the blow-up the numeric run reproduces the exact
        self-similar profile pointwise on every outer filament."""
        grid, result = collision_run
        xs = np.exp(0.0) * collision_initial_state(4, grid).cfg.positions
        worst = 0.0
        for st in result.states:
            if st.time > 0.76:
                continue
            target = analytic_collision_phi(st.time, grid.nodes) - 1.0
            for j in range(1, 5):
                err = float(np.max(np.abs(st.u[j].values - xs[j] * target)))
                worst = max(worst, err)
        assert worst < 1e-10, f"profile deviation {worst:.3e}"

    def test_min_separation_shrinks_with_profile(self, collision_run):
        _grid, result = collision_run
        seps = [r.min_sep for r in result.reports]
        assert seps[0] > 0.3
        assert min(seps) < 0.05
        # monotone in time at the sample resolution until the halt
        assert all(b <= a + 1e-9 for a, b in zip(seps, seps[1:])), seps


# ---------------------------------------------------------------------------
# the symmetry-tagged engine
# ---------------------------------------------------------------------------

def untagged(state):
    """The same fields and backbone through plain filament_state."""
    return filament_state(list(state.u), state.cfg, time=state.time)


def max_gap(first, second):
    return max(
        float(np.max(np.abs(a.values - b.values)))
        for a, b in zip(first.u, second.u)
    )


def orbit_coefficients(sym, n):
    """(representative, a_j) of every filament, walking each orbit with
    a_m = a_(m-1) * factor; a filament whose orbit never returns the
    factor to 1 gets (None, 0)."""
    out = [None] * n
    for r in range(n):
        if out[r] is not None:
            continue
        orbit, powers = [r], [1.0 + 0.0j]
        while sym.perm[orbit[-1]] != r:
            orbit.append(sym.perm[orbit[-1]])
            powers.append(powers[-1] * sym.factor)
        closed = abs(powers[-1] * sym.factor - 1.0) <= 1e-9
        for j, a in zip(orbit, powers):
            out[j] = (r, a) if closed else (None, 0.0)
    return out


def assert_on_orbit(state):
    """u_j == a_j u_r bit for bit on every filament of a tagged state."""
    for j, (r, a) in enumerate(orbit_coefficients(state.symmetry, state.count)):
        if r is None:
            assert np.all(state.u[j].values == 0.0)
        else:
            assert np.array_equal(state.u[j].values, a * state.u[r].values)


@pytest.fixture(scope="module")
def untagged_collision_run():
    grid = make_grid(20.0, 512)
    state = untagged(collision_initial_state(4, grid))
    return evolve(
        state,
        1.05,
        2.5e-4,
        sample_every=1000,
        delta_min=0.02,
        boundary_tol=1e-6,
    )


def parallelogram_state(grid):
    cfg = ScenarioConfig(
        scenario="square", pert_kind="parallelogram", amp=0.02, width=3.0, seed=1
    )
    return build_filament_state(cfg, grid)


@st.composite
def polygon_orbit_states(draw):
    """Dilation data on an N-gon, N = 2..6, with or without a centre.

    A single C_N orbit is the dilation ansatz for a random complex
    profile, so this covers every C_N-symmetric datum.
    """
    n = draw(st.integers(2, 6))
    center = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = rng.uniform(0.5, 2.0)
    gamma = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    gamma0 = rng.uniform(-2.0, 2.0) if center else None
    cfg = polygon_config(n, radius, gamma, center_circulation=gamma0)
    bump = np.exp(-((KERNEL_GRID.nodes - rng.uniform(-1.0, 1.0)) ** 2))
    amp = 0.2 * complex(*rng.uniform(-1.0, 1.0, 2))
    phi = make_field(KERNEL_GRID, 1.0 + amp * bump, background=1.0)
    return dilation_state(cfg, phi, time=draw(st.floats(0.0, 3.0)))


class TestSymmetryTag:
    def test_constructors_set_the_tag(self):
        assert collision_initial_state(4, GRID).symmetry.name == "C4+center"
        assert dilation_state(TRIANGLE, gaussian_profile(GRID)).symmetry.name == "C3"
        assert parallelogram_state(GRID).symmetry == point_reflection()
        assert random_state(SQUARE, GRID, 0.01, seed=1).symmetry is None

    def test_no_tag_on_an_irregular_backbone(self):
        kite = VortexConfig(
            positions=np.array([1.0, 1j, -1.0, -0.5j]),
            circulations=np.ones(4),
        )
        assert rotation_symmetry(kite) is None
        assert dilation_state(kite, gaussian_profile(GRID)).symmetry is None

    def test_irregular_backbone_rejected(self):
        stretched = VortexConfig(
            positions=SQUARE.positions * np.array([1.0, 1.1, 1.0, 1.1]),
            circulations=np.ones(4),
        )
        state = dilation_state(stretched, gaussian_profile(GRID))
        with pytest.raises(ConfigError, match="backbone"):
            filament_state(list(state.u), stretched, symmetry=rotation_symmetry(SQUARE))

    def test_unequal_circulations_rejected(self):
        uneven = VortexConfig(
            positions=SQUARE.positions, circulations=np.array([1.0, 1.0, 1.0, 2.0])
        )
        assert rotation_symmetry(uneven) is None
        state = dilation_state(SQUARE, gaussian_profile(GRID))
        with pytest.raises(ConfigError, match="circulations"):
            filament_state(list(state.u), uneven, symmetry=rotation_symmetry(SQUARE))

    @pytest.mark.parametrize("sym", ["rotation", "reflection"])
    def test_fields_off_the_orbit_rejected(self, sym):
        state = random_state(SQUARE, GRID, 0.01, seed=3)
        tag = rotation_symmetry(SQUARE) if sym == "rotation" else point_reflection()
        with pytest.raises(ConfigError, match="off the"):
            filament_state(list(state.u), SQUARE, symmetry=tag)

    def test_centre_field_must_vanish(self):
        state = collision_initial_state(4, GRID)
        fields = list(state.u)
        fields[0] = make_field(GRID, 1e-3 * np.exp(-GRID.nodes**2))
        with pytest.raises(ConfigError, match="off the"):
            filament_state(fields, state.cfg, symmetry=state.symmetry)

    def test_untagged_collision_trips_early(self, untagged_collision_run):
        """Off the exact orbit, roundoff seeds the transverse instability
        of the collapsing profile, and the detector trips before the
        closed form crosses the threshold (t = 0.98999)."""
        result = untagged_collision_run
        assert result.status == "CollisionDetected"
        assert result.halt_time < 0.99
        j, k = result.collision_pair
        assert j == 0 and 1 <= k <= 4

    def test_collision_tagged_matches_untagged(
        self, collision_run, untagged_collision_run
    ):
        _grid, tagged_result = collision_run
        pairs = [
            (a, b)
            for a in tagged_result.states
            for b in untagged_collision_run.states
            if a.time == b.time and a.time <= 0.75
        ]
        assert [a.time for a, _ in pairs] == [0.0, 0.25, 0.5, 0.75]
        for a, b in pairs:
            assert max_gap(a, b) <= 1e-10, f"t={a.time}"

    def test_triangle_dilation_tagged_matches_untagged(self):
        state = dilation_state(TRIANGLE, gaussian_profile(GRID))
        tagged_end = evolve(state, 0.5, 1e-3, sample_every=500).states[-1]
        plain_end = evolve(untagged(state), 0.5, 1e-3, sample_every=500).states[-1]
        assert tagged_end.time == plain_end.time == pytest.approx(0.5)
        assert max_gap(tagged_end, plain_end) <= 1e-10
        assert_on_orbit(tagged_end)

    def test_parallelogram_tagged_matches_untagged(self):
        grid = make_grid(50.0, 1024)
        state = parallelogram_state(grid)
        tagged_result = evolve(state, 0.2, 1e-3, sample_every=100)
        plain_result = evolve(untagged(state), 0.2, 1e-3, sample_every=100)
        for a, b in zip(tagged_result.states, plain_result.states):
            assert max_gap(a, b) <= 1e-10
            assert_on_orbit(a)
        # the diagonal sums vanish exactly on the tagged path
        assert all(r.vw_norms == (0.0, 0.0) for r in tagged_result.reports)

    def test_snapshots_keep_the_tag(self):
        state = collision_initial_state(4, GRID)
        first = evolve(state, 0.02, 1e-3, sample_every=10)
        assert all(s.symmetry == state.symmetry for s in first.states)
        chained = evolve(first.states[-1], 0.02, 1e-3, sample_every=10)
        once = evolve(state, 0.04, 1e-3, sample_every=20)
        assert chained.states[-1].symmetry == state.symmetry
        assert max_gap(chained.states[-1], once.states[-1]) < 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(polygon_orbit_states())
    def test_one_step_matches_untagged(self, state):
        assert_on_orbit(state)
        dt = 1e-3
        tagged_end = evolve(state, dt, dt, sample_every=1).states[-1]
        plain_end = evolve(untagged(state), dt, dt, sample_every=1).states[-1]
        assert tagged_end.symmetry == state.symmetry
        assert plain_end.symmetry is None
        assert max_gap(tagged_end, plain_end) <= 1e-13
        assert_on_orbit(tagged_end)


def tagged_kernel_sums(state):
    """The representatives' sums as the tagged pair kernel forms them."""
    orbits = Orbits(state.symmetry, state.count)
    rhs = vfsim.filaments._pair_kernel(state.cfg, 0.0, state.grid.nodes, orbits)
    u = np.array([f.values for f in state.u])[orbits.reps]
    return rhs(u, backbone(state), state.time, np.empty_like(u)), orbits


class TestTaggedKernel:
    """The tagged kernel sums like the untagged one: ascending k, in order."""

    @pytest.mark.parametrize(
        "state",
        [
            parallelogram_state(GRID),
            dilation_state(
                polygon_config(4, 1.0, 1.0, center_circulation=0.5),
                make_field(GRID, 1.0 + (0.1 + 0.05j) * np.exp(-GRID.nodes**2), background=1.0),
                time=0.3,
            ),
        ],
        ids=["point-reflection", "C4+center"],
    )
    def test_bitwise_equal_to_ordered_loop(self, state):
        got, orbits = tagged_kernel_sums(state)
        assert not orbits.trivial
        expected, sizes = naive_rhs(state, orbits)
        assert np.max(sizes) > 0.0
        assert np.array_equal(got, expected)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(polygon_orbit_states())
    def test_every_orbit_bitwise_equal_to_ordered_loop(self, state):
        got, orbits = tagged_kernel_sums(state)
        assert np.array_equal(got, naive_rhs(state, orbits)[0])


# ---------------------------------------------------------------------------
# the free flow of a single orbit over a stationary backbone
# ---------------------------------------------------------------------------

def stationary_polygon(n):
    """The centred n-gon with Gamma_0 = -(n-1)/2: omega = 0."""
    return polygon_config(n, 1.0, 1.0, center_circulation=-(n - 1) / 2.0)


def crossing_time(grid, threshold):
    """First t at which min over the nodes of |Phi(t)| of the closed-form
    collision profile falls to the threshold (bisection)."""
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.abs(analytic_collision_phi(mid, grid.nodes)).min() > threshold:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.fixture
def counted_kernel(monkeypatch):
    """Count the runs that build the pair kernel; the kernel still works."""
    built = []
    exact = vfsim.filaments._pair_kernel

    def counted(*args, **kwargs):
        built.append(args[0].count)
        return exact(*args, **kwargs)

    monkeypatch.setattr(vfsim.filaments, "_pair_kernel", counted)
    return built


class TestFreeFlow:
    def test_collision_never_calls_the_pair_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the pair kernel was built")

        monkeypatch.setattr(vfsim.filaments, "_pair_kernel", refuse)
        grid = make_grid(20.0, 512)
        state = collision_initial_state(4, grid)
        result = evolve(
            state, 1.05, 2.5e-4, sample_every=1000, delta_min=0.02, boundary_tol=1e-6
        )
        assert result.status == "CollisionDetected"
        assert result.halt_time == 0.99 and result.collision_pair == (0, 1)
        # the same data off the orbit need the kernel
        with pytest.raises(AssertionError, match="pair kernel"):
            evolve(untagged(state), 0.01, 2.5e-4)

    @pytest.mark.parametrize("n", [3, 5])
    def test_centred_polygons_halt_at_the_closed_form_crossing(self, n, counted_kernel):
        grid = make_grid(20.0, 512)
        state = collision_initial_state(n, grid)
        assert state.cfg.circulations[0] == -(n - 1) / 2.0
        dt, delta_min = 2.5e-4, 0.02
        result = evolve(
            state, 1.05, dt, sample_every=1000, delta_min=delta_min, boundary_tol=1e-6
        )
        assert counted_kernel == []
        assert result.status == "CollisionDetected"
        assert result.collision_pair == (0, 1)
        assert abs(result.collision_sigma) <= grid.spacing
        crossing = crossing_time(grid, delta_min * min_separation(state.cfg))
        assert crossing - dt <= result.halt_time <= crossing + dt, (
            f"halt at t={result.halt_time}, closed-form crossing at {crossing}"
        )

    def test_boundary_halt_matches_untagged(self, counted_kernel):
        """A dispersing dilation bump on a short box: the free flow and the
        RK4 run of the same data untagged flag the same step."""
        grid = make_grid(10.0, 128)
        state = dilation_state(stationary_polygon(4), gaussian_profile(grid))
        assert state.symmetry.name == "C4+center"
        free = evolve(state, 1.0, 1e-3, sample_every=100)
        assert counted_kernel == []
        plain = evolve(untagged(state), 1.0, 1e-3, sample_every=100)
        assert counted_kernel == [5]
        assert free.status == plain.status == "BoundaryContaminated"
        assert 0.0 < free.halt_time == plain.halt_time < 1.0
        assert free.states[-1].time == free.halt_time
        assert max_gap(free.states[-1], plain.states[-1]) <= 1e-10
        assert_on_orbit(free.states[-1])

    def test_rotating_orbit_keeps_the_kernel(self, counted_kernel):
        """omega != 0: the interaction does not vanish on the orbit."""
        state = dilation_state(TRIANGLE, gaussian_profile(GRID))
        evolve(state, 0.01, 1e-3)
        assert counted_kernel == [3]


def rotated(state, angle):
    """The state turned by exp(i angle): the backbone and every field."""
    turn = np.exp(1j * angle)
    cfg = dataclasses.replace(state.cfg, positions=turn * state.cfg.positions)
    fields = [make_field(state.grid, turn * f.values) for f in state.u]
    tag = rotation_symmetry(cfg) if state.symmetry is not None else None
    return filament_state(fields, cfg, time=state.time, symmetry=tag)


@st.composite
def stationary_orbit_states(draw):
    """Random dilation data on a centred N-gon with omega = 0: the free flow."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bump = np.exp(-((KERNEL_GRID.nodes - rng.uniform(-1.0, 1.0)) ** 2))
    amp = 0.2 * complex(*rng.uniform(-1.0, 1.0, 2))
    phi = make_field(KERNEL_GRID, 1.0 + amp * bump, background=1.0)
    return dilation_state(stationary_polygon(n), phi)


class TestRotationEquivariance:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(kernel_states(), stationary_orbit_states()),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_evolve_commutes_with_a_backbone_rotation(self, state, angle):
        guards = dict(sample_every=2, boundary_tol=math.inf, energy_cap=0.0)
        base = evolve(state, 4e-3, 1e-3, **guards)
        turned = evolve(rotated(state, angle), 4e-3, 1e-3, **guards)
        assert turned.status == base.status == "Completed"
        turn = np.exp(1j * angle)
        for a, b in zip(base.states, turned.states, strict=True):
            assert a.time == b.time
            scale = max(1.0, max(float(np.max(np.abs(f.values))) for f in a.u))
            for fa, fb in zip(a.u, b.u):
                assert np.max(np.abs(fb.values - turn * fa.values)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# the free flow advances in blocks of steps, bit for bit the per-step flow
# ---------------------------------------------------------------------------

def reference_free_flow(state, T, dt, sample_every, delta_min, boundary_tol):
    """The free flow one step at a time, with fresh temporaries.

    A step opens as fft(u) L(h/2) after a sample and as m L(h) otherwise,
    guards the separation of the midpoint ifft(m) at its start time, and
    then the end nodes of u = ifft(m L(h/2)).  Returns the representatives'
    rows at every recorded time, the status, the halt time, the pair and
    sigma.
    """
    grid, cfg = state.grid, state.cfg
    orbits = Orbits(state.symmetry, state.count)
    (j, k), _, _, coeffs = pair_rows(cfg, orbits)
    xd = (cfg.positions[j] - cfg.positions[k])[:, None]
    threshold = delta_min * min_separation(cfg)
    n_steps = round(T / dt)
    h = T / n_steps
    dispersion = -1j * np.outer(cfg.circulations[orbits.reps], grid.wavenumbers**2)
    half, full = np.exp(dispersion * (0.5 * h)), np.exp(dispersion * h)
    u = np.array([f.values for f in state.u])[orbits.reps]
    kept, m = [u], None
    for n in range(n_steps):
        t = state.time + n * h
        after_sample = m is None
        m = np.fft.fft(u, axis=1) * half if after_sample else m * full
        dist = np.abs(coeffs * np.fft.ifft(m, axis=1) + xd)
        assert not np.isnan(dist.min())
        if dist.min() < threshold:
            if not after_sample:
                kept.append(u)
            p, i = np.unravel_index(np.argmin(dist), dist.shape)
            return kept, "CollisionDetected", t, (int(j[p]), int(k[p])), float(grid.nodes[i])
        u = np.fft.ifft(m * half, axis=1)
        if np.abs(u[:, [0, -1]]).max() > boundary_tol:
            return kept + [u], "BoundaryContaminated", state.time + (n + 1) * h, None, None
        if (n + 1) % sample_every == 0 or n + 1 == n_steps:
            kept.append(u)
            m = None
    return kept, "Completed", None, None, None


def block_offset(state, step, sample_every):
    """Where the step with index ``step`` falls in its block of the free flow."""
    orbits = Orbits(state.symmetry, state.count)
    (j, _), *_ = pair_rows(state.cfg, orbits)
    width = max(orbits.reps.size, j.size) * state.grid.num_points
    return step % sample_every % max(1, _BLOCK_ELEMENTS // width)


def assert_matches_reference(state, T, dt, **guards):
    result = evolve(state, T, dt, energy_cap=0.0, **guards)
    rows, status, halt_time, pair, sigma = reference_free_flow(state, T, dt, **guards)
    assert result.status == status
    assert result.halt_time == halt_time
    assert result.collision_pair == pair and result.collision_sigma == sigma
    orbits = Orbits(state.symmetry, state.count)
    got = state_arrays(result.states)
    assert len(got) == len(rows)
    for a, b in zip(got, rows):
        assert np.array_equal(a, orbits.expand(b))
    return result


class TestFreeFlowBlocks:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        stationary_orbit_states(),
        st.integers(1, 300),
        st.integers(1, 150),
        st.floats(0.7, 0.99),
        st.sampled_from([1e-8, 1e-4, math.inf]),
    )
    def test_equals_the_per_step_flow(self, state, steps, every, delta_min, tol):
        assert_matches_reference(
            state, steps * 1e-2, 1e-2,
            sample_every=every, delta_min=delta_min, boundary_tol=tol,
        )

    def test_collision_halt_inside_a_block(self):
        state = collision_initial_state(4, make_grid(20.0, 512))
        dt, every = 2.5e-4, 999
        result = assert_matches_reference(
            state, 1.05, dt, sample_every=every, delta_min=0.02, boundary_tol=1e-6
        )
        assert result.status == "CollisionDetected" and result.halt_time == 0.99
        assert block_offset(state, round(0.99 / dt), every) == 3

    def test_boundary_halt_inside_a_block(self):
        state = dilation_state(stationary_polygon(4), gaussian_profile(make_grid(10.0, 128)))
        dt, every = 1e-3, 100
        result = assert_matches_reference(
            state, 1.0, dt, sample_every=every, delta_min=DELTA_MIN, boundary_tol=1e-10
        )
        assert result.status == "BoundaryContaminated" and result.halt_time == 0.495
        # the step that ends at the halt time
        assert block_offset(state, round(0.495 / dt) - 1, every) == 30

    def test_first_failing_step_wins(self):
        pairs, nodes = (np.array([0]), np.array([1])), np.arange(4.0)
        psi = np.ones((3, 1, 4), dtype=np.complex128)
        psi[1, 0, 2] = 1e-3
        psi[2, 0, 0] = np.nan
        times = [0.0, 0.5, 1.0]
        i, halt = _separation_halt(psi, np.empty(psi.shape), 0.01, times, nodes, pairs)
        assert i == 1 and isinstance(halt, CollisionDetected)
        assert (halt.time, halt.sigma, halt.pair) == (0.5, 2.0, (0, 1))
        psi[0, 0, 3] = np.nan
        i, halt = _separation_halt(psi, np.empty(psi.shape), 0.01, times, nodes, pairs)
        assert i == 0 and isinstance(halt, NumericalGuard)
        assert _separation_halt(psi[:0], np.empty((0, 1, 4)), 0.01, [], nodes, pairs) is None

    @pytest.mark.parametrize("n,pair", [(7, (1, 2)), (8, (1, 8))])
    def test_side_pairs_halt_as_the_all_rows_reference(self, n, pair):
        """N >= 7: the side pairs are nearer than the centre pair, and the
        8-gon's two side pairs tie; the reference guards every row."""
        state = collision_initial_state(n, make_grid(20.0, 512))
        result = assert_matches_reference(
            state, 1.05, 2.5e-4, sample_every=1000, delta_min=0.02, boundary_tol=1e-6
        )
        assert result.status == "CollisionDetected" and result.halt_time == 0.99
        assert result.collision_pair == pair

    @pytest.mark.parametrize("n,rows", [(4, 1), (6, 3)])
    def test_guard_checks_the_nearest_rows_only(self, n, rows, monkeypatch):
        """The collision preset guards its centre pair alone, the centred
        hexagon its centre pair and its two side pairs."""
        seen = []

        def counted(psi, *args):
            seen.append(psi.shape[1])
            return _separation_halt(psi, *args)

        monkeypatch.setattr(vfsim.filaments, "_separation_halt", counted)
        state = collision_initial_state(n, make_grid(20.0, 512))
        result = evolve(
            state, 1.05, 2.5e-4, sample_every=1000, delta_min=0.02, boundary_tol=1e-6
        )
        assert result.status == "CollisionDetected"
        assert seen and set(seen) == {rows}


# ---------------------------------------------------------------------------
# the run's reused buffers never leak into what it returns
# ---------------------------------------------------------------------------

def state_arrays(states):
    return [np.array([f.values for f in st.u]) for st in states]


def reference_states(state, steps, dt):
    """Strang steps written as plain expressions with fresh temporaries,
    on the ordered-loop interaction."""
    grid, cfg = state.grid, state.cfg
    phase = np.exp(
        -1j * np.outer(cfg.circulations, grid.wavenumbers**2) * (0.5 * dt)
    )

    def half(vals):
        return np.fft.ifft(np.fft.fft(vals, axis=1) * phase, axis=1)

    def rate(vals, t):
        fields = tuple(make_field(grid, row) for row in vals)
        return 1j * naive_rhs(FilamentState(u=fields, cfg=cfg, time=t))[0]

    u = np.array([f.values for f in state.u])
    out = []
    for n in range(steps):
        t = state.time + n * dt
        v = half(u)
        k1 = rate(v, t)
        k2 = rate(v + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rate(v + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rate(v + dt * k3, t + dt)
        u = half(v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out.append(u)
    return out


class TestWorkspaceSafety:
    def test_bitwise_equal_to_fresh_temporaries(self):
        rng = np.random.default_rng(8)
        vortex = VortexConfig(
            positions=np.array([0.0, 1.5, 1j, -1.2 + 0.3j, -0.5j]),
            circulations=np.array([1.0, -0.7, 2.0, 0.4, -1.1]),
            omega=0.3,
        )
        grid = make_grid(20.0, 256)
        fields = [
            make_field(
                grid,
                0.05 * complex(*rng.standard_normal(2))
                * np.exp(-((grid.nodes - rng.uniform(-2.0, 2.0)) ** 2)),
            )
            for _ in range(vortex.count)
        ]
        state = filament_state(fields, vortex, time=0.2)
        dt = 2.0**-8
        result = evolve(state, 6 * dt, dt, sample_every=1)
        expected = reference_states(state, 6, dt)
        assert len(result.states) == 7
        for got, want in zip(state_arrays(result.states[1:]), expected):
            assert np.array_equal(got, want)

    def test_repeated_runs_identical(self):
        state = random_state(TRIANGLE, GRID, 0.05, seed=4)
        first = evolve(state, 0.05, 1e-3, sample_every=20)
        second = evolve(state, 0.05, 1e-3, sample_every=20)
        assert first.reports == second.reports
        for a, b in zip(state_arrays(first.states), state_arrays(second.states)):
            assert np.array_equal(a, b)

    def test_mutating_outputs_changes_no_later_result(self):
        state = random_state(SQUARE, GRID, 0.05, seed=5)
        first = evolve(state, 0.05, 1e-3, sample_every=20)
        kept = state_arrays(first.states)
        for st_ in first.states[1:]:
            for f in st_.u:
                f.values[:] = 7.0
        again = evolve(state, 0.05, 1e-3, sample_every=20)
        for a, b in zip(kept, state_arrays(again.states)):
            assert np.array_equal(a, b)

        rhs = interaction_rhs(state)
        kept_rhs = np.array([f.values for f in rhs])
        for f in rhs:
            f.values[:] = 7.0
        assert np.array_equal(
            np.array([f.values for f in interaction_rhs(state)]), kept_rhs
        )

    def test_returned_states_share_no_memory(self):
        state = random_state(TRIANGLE, GRID, 0.05, seed=6)
        result = evolve(state, 0.03, 1e-3, sample_every=10)
        values = [f.values for st_ in result.states for f in st_.u]
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_collision_keeps_state_at_start_of_failing_step(self):
        """The kept snapshot equals a run that stops exactly there.

        dt = 2^-8 makes every step time exact, so the shorter run takes
        the same steps.
        """
        grid = make_grid(20.0, 256)
        state = collision_initial_state(4, grid)
        dt = 2.0**-8
        guards = dict(sample_every=1000, delta_min=0.02, boundary_tol=1e-6)
        result = evolve(state, 1.25, dt, **guards)
        assert result.status == "CollisionDetected"
        kept = result.states[-1]
        # the halt is a stage time of the step that starts at kept.time
        assert result.halt_time - kept.time in (0.0, dt / 2, dt)
        shorter = evolve(state, kept.time, dt, **guards)
        assert shorter.status == "Completed"
        assert shorter.states[-1].time == kept.time
        assert np.array_equal(
            state_arrays([kept])[0], state_arrays([shorter.states[-1]])[0]
        )
        assert result.reports[-1] == shorter.reports[-1]


# ---------------------------------------------------------------------------
# NaN and inf end as NumericalGuard
# ---------------------------------------------------------------------------

def poisoned_state(value):
    grid = make_grid(20.0, 256)
    rows = [
        0.01 * np.exp(-((grid.nodes - c) ** 2)) + 0j for c in (0.0, 1.0, -1.0, 0.5)
    ]
    rows[2][100] = value
    return filament_state([make_field(grid, r) for r in rows], SQUARE)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteGuard:
    @pytest.mark.parametrize("value", [np.nan, complex(np.inf, 0.0)])
    def test_energies(self, value):
        with pytest.raises(NumericalGuard):
            energies(poisoned_state(value))

    def test_kernel(self):
        with pytest.raises(NumericalGuard, match="NaN filament separation"):
            interaction_rhs(poisoned_state(np.nan))

    @pytest.mark.parametrize("value", [np.nan, complex(np.inf, 0.0)])
    def test_evolve(self, value):
        with pytest.raises(NumericalGuard):
            evolve(poisoned_state(value), 0.01, 1e-3, energy_cap=0.0)

    def test_energies_guard_survives_optimize_flag(self):
        code = (
            "import numpy as np\n"
            "from test_filaments import poisoned_state\n"
            "from vfsim.errors import NumericalGuard\n"
            "from vfsim.filaments import energies\n"
            "try:\n"
            "    energies(poisoned_state(np.nan))\n"
            "except NumericalGuard:\n"
            "    print('guarded')\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(vfsim.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "guarded"
