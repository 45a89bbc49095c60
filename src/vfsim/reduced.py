"""Reduced single-profile dynamics around a rotating vortex polygon.

All filaments share one profile Phi(t, sigma) with background 1, governed by

    i dPhi/dt + d^2Phi/dsigma^2 + omega * (Phi/|Phi|^2) * (1 - |Phi|^2) = 0.

The module provides the conserved energy, its Gross-Pitaevskii companion and
the comparison between them, a Strang splitting integrator with exact
sub-flows, the Galilean boost, and the closed-form profile that drives
polygon filaments into a collision at time 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolated,
    GinzburgViolated,
    IncompatibleWavenumber,
    PreconditionViolated,
    ZeroModulus,
)
from .grid import (
    DEFAULT_BOUNDARY_TOL,
    ComplexField,
    _split_steps,
    _step_plan,
    derivative,
    make_field,
    quad_trapezoid,
    shift_field,
    write_csv,
)
from .point_vortex import VortexConfig

DELTA_MOD = 0.05  # modulus floor; the equation divides by |Phi|^2
ETA1_DEFAULT = 0.01  # small-energy threshold for the modulus control check


@dataclass(frozen=True)
class PhiState:
    """Profile snapshot: field with background 1, rotation rate, time."""

    phi: ComplexField
    omega: float
    time: float = 0.0


@dataclass(frozen=True)
class EnergySample:
    """Per-time diagnostics recorded along an evolution."""

    time: float
    E: float
    E_GP: float
    sup_dev: float  # max over sigma of | |Phi|^2 - 1 |
    min_mod: float  # min over sigma of |Phi|


# ---------------------------------------------------------------------------
# energies and modulus diagnostics
# ---------------------------------------------------------------------------

def _kinetic(phi: ComplexField) -> float:
    grad = derivative(phi)
    return 0.5 * quad_trapezoid(phi.grid, np.abs(grad.values) ** 2)


def _energy_bm(phi: ComplexField, omega: float, kinetic: float, mod_sq) -> float:
    low = float(np.sqrt(mod_sq.min()))
    if not low >= 0.0:  # a NaN minimum, also at omega = 0
        raise ZeroModulus(low, 0.0)
    if omega == 0.0:
        return float(kinetic)
    if low == 0.0:
        raise ZeroModulus(low, 0.0)
    potential = 0.5 * omega * quad_trapezoid(phi.grid, mod_sq - 1.0 - np.log(mod_sq))
    return float(kinetic + potential)


def _energy_gp(phi: ComplexField, omega: float, kinetic: float, mod_sq) -> float:
    return float(kinetic + 0.25 * omega * quad_trapezoid(phi.grid, (mod_sq - 1.0) ** 2))


def energy_bm(phi: ComplexField, omega: float) -> float:
    """Conserved energy (1/2) int |dPhi|^2 + (omega/2) int (|Phi|^2-1-ln|Phi|^2).

    The potential integrand vanishes where |Phi| = 1, so the truncated-domain
    quadrature matches the line integral for boundary-compatible fields.  For
    omega = 0 the potential term is absent and a vanishing modulus is allowed.
    """
    return _energy_bm(phi, omega, _kinetic(phi), np.abs(phi.values) ** 2)


def energy_gp(phi: ComplexField, omega: float) -> float:
    """Gross-Pitaevskii energy (1/2) int |dPhi|^2 + (omega/4) int (|Phi|^2-1)^2."""
    return _energy_gp(phi, omega, _kinetic(phi), np.abs(phi.values) ** 2)


def convexity_ratio(x: np.ndarray) -> np.ndarray:
    """(x - 1 - ln x) / (x - 1)^2, with its Taylor series used near x = 1.

    The expansion in delta = x - 1 is 1/2 - delta/3 + delta^2/4 - delta^3/5;
    on [3/4, 5/4] the exact minimum is about 0.4297 (at x = 5/4), which is why
    the energy comparison uses the constant 0.42 rather than 1/2.
    """
    x = np.asarray(x, dtype=float)
    delta = x - 1.0
    near = np.abs(delta) < 1e-3
    safe = np.where(near, 2.0, x)  # dummy away from the singular quotient
    direct = (safe - 1.0 - np.log(safe)) / (safe - 1.0) ** 2
    series = 0.5 - delta / 3.0 + delta**2 / 4.0 - delta**3 / 5.0
    return np.where(near, series, direct)


def modulus_deviation(phi: ComplexField) -> tuple[float, float]:
    """(sup over sigma of | |Phi|^2 - 1 |, min over sigma of |Phi|)."""
    mod = np.abs(phi.values)
    return float(np.max(np.abs(mod**2 - 1.0))), float(mod.min())


def compare_energies(
    phi: ComplexField, omega: float
) -> tuple[float, float] | None:
    """Certified pointwise bounds for the potential-energy ratio E / E_GP.

    Requires the modulus deviation sup | |Phi|^2 - 1 | <= 1/4.  Returns
    (2 min r, 2 max r) with r the convexity ratio over the field's modulus
    values, or None when both energies vanish and the comparison is vacuous.
    Raises BoundViolated outside the verified band 0.84 E_GP <= E <= 5 E_GP.
    """
    sup_dev, _ = modulus_deviation(phi)
    if not sup_dev <= 0.25 * (1.0 + 1e-9):  # cushion for the exact boundary case
        raise PreconditionViolated(
            f"modulus deviation {sup_dev:.3e} exceeds 1/4; "
            "the energy comparison only holds near unit modulus"
        )
    e = energy_bm(phi, omega)
    e_gp = energy_gp(phi, omega)
    if e_gp < 1e-15:
        return None
    ratios = 2.0 * convexity_ratio(np.abs(phi.values) ** 2)
    if not (0.84 * e_gp <= e * (1.0 + 1e-12) and e <= 5.0 * e_gp * (1.0 + 1e-12)):
        raise BoundViolated(f"energy comparison failed: E={e:.6e}, E_GP={e_gp:.6e}")
    return float(ratios.min()), float(ratios.max())


@dataclass(frozen=True)
class GinzburgReport:
    """Outcome of the small-energy modulus control check."""

    energy: float
    sup_dev: float
    triggered: bool  # whether energy <= eta1, i.e. the assertion applied


def check_ginzburg(phi: ComplexField, omega: float) -> GinzburgReport:
    """Below the energy ETA1_DEFAULT, assert the modulus stays within 1/4 of 1."""
    e = energy_bm(phi, omega)
    sup_dev, _ = modulus_deviation(phi)
    triggered = e <= ETA1_DEFAULT
    if triggered and sup_dev > 0.25:
        raise GinzburgViolated(e, sup_dev, ETA1_DEFAULT)
    return GinzburgReport(energy=e, sup_dev=sup_dev, triggered=triggered)


def energy_sample(state: PhiState) -> EnergySample:
    """E, E_GP and the modulus diagnostics, from one derivative of the field."""
    phi, omega = state.phi, state.omega
    mod_sq = np.abs(phi.values) ** 2
    kinetic = _kinetic(phi)
    return EnergySample(
        state.time, _energy_bm(phi, omega, kinetic, mod_sq),
        _energy_gp(phi, omega, kinetic, mod_sq), *modulus_deviation(phi),
    )


def write_energy_csv(path, samples: list[EnergySample]) -> None:
    """Dump EnergySamples, one row per sample (see grid.write_csv)."""
    names = ("time", "E", "E_GP", "sup_dev", "min_mod")
    write_csv(
        path, ["t", "E", "E_GP", "sup_dev", "min_mod"],
        [[getattr(s, a) for s in samples] for a in names],
    )


# ---------------------------------------------------------------------------
# Strang splitting integrator
# ---------------------------------------------------------------------------

def _require_floor(mod_sq: np.ndarray, floor: float, time: float) -> None:
    low = float(np.sqrt(mod_sq.min()))
    if not low >= floor:  # a NaN minimum fails too
        raise ZeroModulus(low, floor, time)


def step_bm(state: PhiState, dt: float, delta_mod: float = DELTA_MOD) -> PhiState:
    """One Strang step of the evolve_bm loop, without the boundary guard."""
    *_, (last, _) = evolve_bm_samples(state, dt, dt, 1, delta_mod, np.inf)
    return last


def evolve_bm_samples(
    state: PhiState,
    T: float,
    dt: float,
    sample_every: int = 10,
    delta_mod: float = DELTA_MOD,
    boundary_tol: float = DEFAULT_BOUNDARY_TOL,
):
    """Yield (state, energy_sample(state)) at each sample of ``evolve_bm``.

    Each step is L(h/2) N(h) L(h/2), run by the split-step loop
    ``grid._split_steps``: L the exact Fourier propagator, N the exact
    nonlinear flow Phi -> Phi exp(i omega h (1/|Phi|^2 - 1)), which keeps
    |Phi| fixed.  Between samples the L(h/2) closing a step and the one
    opening the next are fused into one L(h), so the field leaves Fourier
    space only at the midpoints N acts on and at the samples.  The samples
    arrive one at a time as the loop reaches them, so a caller that keeps
    only what it needs of each holds one state at a time, whatever the
    number of samples.  A guard raises as in ``evolve_bm``, after the
    samples before it have been yielded.  Raises ValueError for dt <= 0 or
    sample_every < 1.
    """
    n_steps, h = _step_plan(T, dt, sample_every)
    phi, omega = state.phi, state.omega
    grid, bg = phi.grid, phi.background
    floor = delta_mod if omega != 0.0 else 0.0
    _require_floor(np.abs(phi.values) ** 2, floor, state.time)
    rotation = np.empty((1, grid.num_points), dtype=np.complex128)

    def rotate(v: np.ndarray, time: float) -> None:
        # the exact flow Phi -> Phi exp(i omega h (1/|Phi|^2 - 1))
        v += bg
        mod_sq = v.real**2 + v.imag**2
        _require_floor(mod_sq, floor, time)
        theta = omega * h * (1.0 / mod_sq - 1.0)
        # the bits of np.exp(1j * theta), without the complex exponential
        np.cos(theta, out=rotation.real)
        np.sin(theta, out=rotation.imag)
        v *= rotation
        v -= bg

    yield state, energy_sample(state)
    for time, rows, halt in _split_steps(
        grid, (phi.values - bg)[None, :], -1j * grid.wavenumbers[None, :] ** 2,
        state.time, n_steps, h, sample_every, boundary_tol if bg != 0.0 else np.inf,
        # omega = 0: N is the identity, and the midpoints need no check
        substep=rotate if omega != 0.0 else None,
    ):
        v = rows[0] + bg
        _require_floor(v.real**2 + v.imag**2, floor, time)
        if halt is not None:
            raise halt
        rows[0] = v - bg  # the next step opens from the stored field
        sample = PhiState(ComplexField(grid, v, bg), omega, time)
        yield sample, energy_sample(sample)


def evolve_bm(
    state: PhiState,
    T: float,
    dt: float,
    sample_every: int = 10,
    delta_mod: float = DELTA_MOD,
    boundary_tol: float = DEFAULT_BOUNDARY_TOL,
) -> tuple[list[PhiState], list[EnergySample]]:
    """Evolve for time T by Strang splitting, recording states and energies.

    This collects ``evolve_bm_samples``, whose split-step loop samples t = 0,
    every ``sample_every`` steps and the final time.  The run raises ZeroModulus
    when a midpoint or a sample falls below the modulus floor or holds a NaN
    (omega = 0 has no floor), and BoundaryContaminated when the end nodes,
    read off the spectrum after every step, leave the background (skipped
    for background-0 fields such as boosted profiles).
    """
    samples = list(evolve_bm_samples(state, T, dt, sample_every, delta_mod, boundary_tol))
    return [s for s, _ in samples], [e for _, e in samples]


# ---------------------------------------------------------------------------
# Galilean boost
# ---------------------------------------------------------------------------

def lattice_wavenumber(grid, nu: float) -> float:
    """Snap nu to the grid's wavenumber lattice pi*k/L, or raise."""
    k = nu * grid.half_length / np.pi
    k_round = round(k)
    if abs(k - k_round) > 1e-8:
        raise IncompatibleWavenumber(
            f"boost velocity {nu!r} is not a grid wavenumber: "
            f"nu*L/pi = {k:.12g} is not an integer"
        )
    return np.pi * k_round / grid.half_length


def galilean_boost(phi0: ComplexField, nu: float) -> ComplexField:
    """Multiply by exp(i nu sigma), the t = 0 slice of the boosted solution.

    The boosted field oscillates at the domain ends, so it is returned with
    background 0 (it is grid-periodic because nu sits on the wavenumber
    lattice; other nu raise IncompatibleWavenumber).
    """
    if nu == 0.0:
        return phi0
    nu = lattice_wavenumber(phi0.grid, nu)
    values = np.exp(1j * nu * phi0.grid.nodes) * phi0.values
    return make_field(phi0.grid, values, background=0.0)


def boost_trajectory(states: list[PhiState], nu: float) -> list[PhiState]:
    """Apply Phi_nu(t, s) = exp(-i t nu^2 + i nu s) Phi(t, s - 2 t nu).

    Boosting a solution trajectory yields a solution trajectory of the same
    equation (Galilean covariance).
    """
    if nu == 0.0:
        return list(states)
    out = []
    for s in states:
        nu_l = lattice_wavenumber(s.phi.grid, nu)
        shifted = shift_field(s.phi, 2.0 * s.time * nu_l)
        phase = np.exp(
            -1j * s.time * nu_l**2 + 1j * nu_l * s.phi.grid.nodes
        )
        f = make_field(s.phi.grid, phase * shifted.values, background=0.0)
        out.append(PhiState(phi=f, omega=s.omega, time=s.time))
    return out


# ---------------------------------------------------------------------------
# exact collision profile
# ---------------------------------------------------------------------------

def analytic_collision_phi(t, sigma):
    """Closed-form profile 1 - exp(-s^2/(1-4i(1-t)))/sqrt(1-4i(1-t)).

    Principal square root; the argument has positive real part for all t, so
    the expression is continuous.  At t = 1 the profile is 1 - exp(-s^2) and
    vanishes at s = 0, which is the synchronized filament collision.
    """
    denom = 1.0 - 4j * (1.0 - np.asarray(t, dtype=float))
    return 1.0 - np.exp(-np.asarray(sigma) ** 2 / denom) / np.sqrt(denom)


def collision_modulus_bound(t: float) -> float:
    """Strict lower bound 1 - (1+16(1-t)^2)^(-1/4) for |Phi| before t = 1."""
    return 1.0 - (1.0 + 16.0 * (1.0 - t) ** 2) ** (-0.25)


def collision_state(grid, t: float = 0.0) -> PhiState:
    """The collision profile sampled on a grid, as a PhiState with omega 0."""
    values = analytic_collision_phi(t, grid.nodes)
    return PhiState(
        phi=make_field(grid, values, background=1.0), omega=0.0, time=t
    )


# ---------------------------------------------------------------------------
# filament reconstruction from the shared profile
# ---------------------------------------------------------------------------

def reconstruct_filaments(
    states: list[PhiState], cfg: VortexConfig
) -> list[list[ComplexField]]:
    """Per-time filament fields Psi_j(t, sigma) = X_j(t) * Phi(t, sigma).

    The backbone positions rotate rigidly, X_j(t) = exp(i omega t) X_j(0), so
    each filament field carries background X_j(t).  Requires the profile's
    rotation rate to match the configuration's.
    """
    out = []
    for s in states:
        if cfg.omega is None or abs(cfg.omega - s.omega) > 1e-12:
            raise PreconditionViolated(
                "filament reconstruction needs a rotating equilibrium whose "
                f"rate matches the profile: {cfg.omega!r} vs {s.omega!r}"
            )
        xs = np.exp(1j * s.omega * s.time) * cfg.positions
        fields = [
            make_field(s.phi.grid, x * s.phi.values, background=x) for x in xs
        ]
        out.append(fields)
    return out
