"""N-filament dynamics in perturbation form around a rotating backbone.

Each filament is Psi_j(t, sigma) = X_j(t) + u_j(t, sigma), where the backbone
X_j(t) = exp(i omega t) X_j(0) is an exact rotating point-vortex equilibrium
(kept analytic, never integrated) and u_j is a decaying perturbation.  The
perturbations obey

    i du_j/dt + Gamma_j d^2u_j/dsigma^2
        + sum_{k != j} Gamma_k [ (X_jk + u_jk)/|X_jk + u_jk|^2
                                 - X_jk/|X_jk|^2 ] = 0

with u_jk = u_j - u_k and X_jk = X_j - X_k.  The module provides this
interaction term, a Strang splitting integrator with collision, energy-cap
and boundary guards, the renormalized quantities H, A, T, I and E = H + I,
the coercivity check, the square-configuration identities built on
v = u_1 + u_3 and w = u_2 + u_4, the analogous segment and hexagon
identities, the existence-time prediction, and the exact synchronized
collision scenario.

Symmetric data carry a tag, ``vfsim.symmetry.Symmetry``: a permutation
pi of the filaments and a unit factor rho with Psi_pi(j) = rho Psi_j.
Only constructors set it, after checking it against the positions, the
circulations and the fields: ``dilation_state`` and
``collision_initial_state`` tag C_N (rho = exp(2 pi i / N), a centre
vortex fixed with u_0 = 0) on a regular polygon with equal outer
circulations, and ``filament_state(..., symmetry=point_reflection())``
tags u_{j+2} = -u_j (the runner's parallelogram data).  ``evolve`` then
integrates the orbit representatives alone, on the distinct pair rows
their sums need, and expands every snapshot to u_j = a_j u_r exactly;
on a single orbit over a stationary backbone (the collision data) the
interaction vanishes identically and the run is the free linear flow.
Untagged data run through the same loop with every filament its own
orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolated,
    CollisionDetected,
    ConfigError,
    EnergyCapExceeded,
    NumericalGuard,
    PreconditionViolated,
    WrongConfig,
    WrongN,
)
from .grid import (
    DEFAULT_BOUNDARY_TOL,
    ComplexField,
    Grid1D,
    _rk4,
    _split_steps,
    _step_plan,
    derivative,
    make_field,
    quad_trapezoid,
    write_csv,
)
from .point_vortex import (
    VortexConfig,
    min_separation,
    pair_indices,
    polygon_config,
)
from .reduced import collision_state
from .symmetry import (
    SYMMETRY_TOL,
    Orbits,
    Symmetry,
    backbone_mismatch,
    pair_rows,
    rotation_symmetry,
)

DELTA_MIN = 1e-3  # collision threshold as a fraction of the backbone spacing
COERCIVITY_C = 0.21  # verified lower convexity constant on the ratio band
ENERGY_CAP_FACTOR = 10.0  # run is trusted while E(t) <= factor * initial scale


# ---------------------------------------------------------------------------
# state type and constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilamentState:
    """Perturbations of all filaments at one time.

    ``u`` holds one background-0 field per vortex of ``cfg`` (center
    included when the configuration has one, in the configuration's own
    index order).  The backbone at this time is ``backbone(state)``.
    ``symmetry`` is set only by the constructors that check it; a tagged
    state lies on the orbit bit for bit, and ``evolve`` then integrates
    the orbit representatives alone.
    """

    u: tuple[ComplexField, ...]
    cfg: VortexConfig
    time: float = 0.0
    symmetry: Symmetry | None = None

    @property
    def grid(self) -> Grid1D:
        return self.u[0].grid

    @property
    def count(self) -> int:
        return len(self.u)


def backbone(state: FilamentState) -> np.ndarray:
    """Exact backbone positions X_j(t) = exp(i omega t) X_j(0)."""
    omega = state.cfg.omega if state.cfg.omega is not None else 0.0
    return np.exp(1j * omega * state.time) * state.cfg.positions


def filament_state(
    u: list[ComplexField],
    cfg: VortexConfig,
    time: float = 0.0,
    symmetry: Symmetry | None = None,
) -> FilamentState:
    """Validate and assemble a FilamentState.

    Checks the field count against the configuration, a common grid,
    background 0, finite nodes (NumericalGuard naming the field), and the
    no-coincidence invariant min |Psi_jk| > 0 (CollisionDetected).  A
    ``symmetry`` must map the positions and the circulations onto
    themselves, and the fields onto their orbit to SYMMETRY_TOL relative,
    or ConfigError is raised; the state then holds the fields expanded
    from the representatives, exactly on the orbit.
    """
    if len(u) != cfg.count:
        raise ConfigError(
            "u", f"{len(u)} perturbation fields for {cfg.count} vortices"
        )
    grid = u[0].grid
    for j, f in enumerate(u):
        if f.grid != grid:
            raise ConfigError("u", f"field {j} lives on a different grid")
        if f.background != 0.0:
            raise ConfigError(
                "u", f"field {j} has background {f.background!r}, expected 0"
            )
        if not np.isfinite(f.values).all():
            kind = "NaN" if np.isnan(f.values).any() else "infinite"
            raise NumericalGuard(
                f"{kind} filament separation at t={time:.6g}: field {j} is not finite"
            )
    if symmetry is not None:
        reason = backbone_mismatch(symmetry, cfg)
        if reason is not None:
            raise ConfigError("symmetry", reason)
        vals = np.stack([f.values for f in u])
        orbits = Orbits(symmetry, cfg.count)
        exact = orbits.expand(vals[orbits.reps])
        if np.max(np.abs(exact - vals)) > SYMMETRY_TOL * np.max(np.abs(vals)):
            raise ConfigError("u", f"the fields are off the {symmetry.name} orbit")
        u = [make_field(grid, row) for row in exact]
    state = FilamentState(u=tuple(u), cfg=cfg, time=float(time), symmetry=symmetry)
    sep, sigma, pair = min_separation_field(state)
    if sep <= 0.0:
        raise CollisionDetected(time, sigma, pair)
    return state


def zero_perturbations(cfg: VortexConfig, grid: Grid1D) -> FilamentState:
    """The unperturbed state u_j = 0 at time 0."""
    zeros = np.zeros(grid.num_points, dtype=np.complex128)
    fields = [make_field(grid, zeros.copy()) for _ in range(cfg.count)]
    return FilamentState(u=tuple(fields), cfg=cfg, time=0.0)


def dilation_state(
    cfg: VortexConfig, phi: ComplexField, time: float = 0.0
) -> FilamentState:
    """Dilation data u_j = X_j(t) (phi - 1), the shared-profile ansatz.

    Requires a profile with background 1 so the perturbations decay, and
    finite nodes (NumericalGuard otherwise).  On a regular polygon with
    equal outer circulations the state carries the C_N tag of
    ``rotation_symmetry``.
    """
    if phi.background != 1.0:
        raise ConfigError(
            "phi", f"dilation profile needs background 1, got {phi.background!r}"
        )
    if not np.isfinite(phi.values).all():
        raise NumericalGuard(f"the dilation profile phi is not finite at t={time:.6g}")
    omega = cfg.omega if cfg.omega is not None else 0.0
    xs = np.exp(1j * omega * time) * cfg.positions
    dev = phi.values - 1.0
    fields = [make_field(phi.grid, x * dev) for x in xs]
    return filament_state(fields, cfg, time=time, symmetry=rotation_symmetry(cfg))


def collision_initial_state(N: int, grid: Grid1D) -> FilamentState:
    """Exact-collision data: centered N-polygon with Gamma_0 = -(N-1)/2 (so
    the backbone is stationary) carrying the inverted-Gaussian dilation
    profile whose free evolution vanishes at t = 1, sigma = 0."""
    cfg = polygon_config(N, 1.0, 1.0, center_circulation=-(N - 1) / 2.0)
    return dilation_state(cfg, collision_state(grid).phi)


# ---------------------------------------------------------------------------
# pairwise geometry and the interaction term
# ---------------------------------------------------------------------------

def _values_matrix(state: FilamentState) -> np.ndarray:
    return np.stack([f.values for f in state.u])


def _pair_differences(
    state: FilamentState,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """(pairs, X_jk, u_jk) over the unordered pairs j < k in row-major order.

    This is the one pair layout of every snapshot quantity: X_jk comes as a
    (P, 1) column and u_jk as (P, M) rows.  X_jk + u_jk, not Psi_j - Psi_k,
    keeps full relative accuracy for small u.
    """
    pairs = j, k = pair_indices(state.count)
    xs, u_vals = backbone(state), _values_matrix(state)
    return pairs, (xs[j] - xs[k])[:, None], u_vals[j] - u_vals[k]


def _closest(
    dist: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> tuple[int, int, int]:
    """(j, k, sigma index) of the first minimum of a (pair, sigma) array.

    With pairs in row-major order this is the minimum that an argmin over
    the ordered (j, k, sigma) array would report first.
    """
    p, i = np.unravel_index(int(np.argmin(dist)), dist.shape)
    return int(pairs[0][p]), int(pairs[1][p]), int(i)


def min_separation_field(
    state: FilamentState,
) -> tuple[float, float, tuple[int, int]]:
    """(min over sigma and pairs of |Psi_jk|, its sigma, its (j, k)).

    A lone filament has no pairs and reports (inf, first node, (0, 0)).
    """
    pairs, xd, ud = _pair_differences(state)
    dist = np.abs(xd + ud)
    if not dist.size:
        return math.inf, float(state.grid.nodes[0]), (0, 0)
    j, k, i = _closest(dist, pairs)
    return float(dist.min()), float(state.grid.nodes[i]), (j, k)


def _separation_halt(
    psi: np.ndarray,
    dist: np.ndarray,
    threshold: float,
    times: list[float],
    nodes: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
) -> tuple[int, NumericalGuard | CollisionDetected] | None:
    """Write |psi| into ``dist`` and find the first step whose separation
    halts the run: psi holds Psi_j - Psi_k on the rows of ``pairs``, one
    (P, M) block per start time in ``times``.  Returns (i, NumericalGuard) for a NaN separation at step
    i, (i, CollisionDetected) at the first minimum of step i below the
    threshold, for the first such step i, or None."""
    np.abs(psi, out=dist)
    if not dist.size or dist.min() >= threshold:
        return None
    low = dist.reshape(len(times), -1).min(axis=1)
    i = int(np.flatnonzero(~(low >= threshold))[0])
    if math.isnan(low[i]):
        return i, NumericalGuard(f"NaN filament separation at t={times[i]:.6g}")
    a, b, s = _closest(dist[i], pairs)
    return i, CollisionDetected(times[i], float(nodes[s]), (a, b))


def _pair_kernel(
    cfg: VortexConfig, threshold: float, nodes: np.ndarray, orbits: Orbits
):
    """The interaction term on raw arrays, with its buffers allocated once.

    The returned rhs(rep_vals, xs, time, out) takes the rows of the orbit
    representatives (all filaments without a symmetry) and writes their
    interaction sums into ``out``.  It raises CollisionDetected below the
    separation threshold and NumericalGuard on a NaN separation.  Only the
    distinct pair rows of ``pair_rows`` are evaluated, each once; a row
    enters a sum with its sign (term_kj = -term_jk, exact under negation).
    Every representative's sum runs over k in ascending order: at a
    symmetric collapse several pairs tie up to roundoff, and this order
    decides which of them trips the detector.
    """
    pairs, gather, weights, coeffs = pair_rows(cfg, orbits)
    j, k = pairs
    n, m = cfg.count, nodes.size
    term = np.empty((j.size, m), dtype=np.complex128)
    dist = np.empty((j.size, m))
    terms = np.empty(gather.shape + (m,), dtype=np.complex128)
    # every row serves at least one term, and psi is dead once term is
    # formed, so psi lives in the terms buffer
    psi = terms.reshape(-1, m)[:j.size]
    # without a symmetry the rows are all pairs in row-major order, and the
    # pairs (a, a+1..n-1) are rows[a]:rows[a+1]
    rows = [a * (2 * n - 1 - a) // 2 for a in range(n + 1)]

    def rhs(rep_vals, xs, time, out):
        if orbits.trivial:
            for a in range(n - 1):
                np.subtract(rep_vals[a], rep_vals[a + 1:], out=psi[rows[a]:rows[a + 1]])
        else:
            np.matmul(coeffs, rep_vals, out=psi)
        xd = xs[j] - xs[k]
        np.add(xd[:, None], psi, out=psi)
        halt = _separation_halt(psi[None], dist[None], threshold, [time], nodes, pairs)
        if halt is not None:
            raise halt[1]
        # z/|z|^2 == 1/conj(z)
        np.conjugate(psi, out=term)
        np.divide(1.0, term, out=term)
        np.subtract(term, (1.0 / np.conj(xd))[:, None], out=term)
        # +-Gamma_k term_rk for each representative r and k != r (the
        # indices are in range; mode "raise" would buffer the output), then
        # the sum over ascending k: a reduction over an axis that is not
        # the contiguous one adds its slices one after another, in order
        term.take(gather, axis=0, out=terms, mode="clip")
        np.multiply(weights, terms, out=terms)
        return np.add.reduce(terms, axis=1, out=out)

    return rhs


def interaction_rhs(
    state: FilamentState, delta_min: float = DELTA_MIN
) -> list[ComplexField]:
    """The N pointwise interaction fields of the perturbation system.

    The linear dispersion Gamma_j d^2/dsigma^2 is handled separately by the
    splitting integrator; this is only the pair-interaction sum.  Raises
    CollisionDetected when two filaments approach within delta_min times the
    backbone spacing, and NumericalGuard on a NaN separation.
    """
    rhs = _pair_kernel(
        state.cfg,
        delta_min * min_separation(state.cfg),
        state.grid.nodes,
        Orbits(None, state.count),
    )
    u_vals = _values_matrix(state)
    vals = rhs(u_vals, backbone(state), state.time, np.empty_like(u_vals))
    return [make_field(state.grid, row) for row in vals]


# ---------------------------------------------------------------------------
# renormalized energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Renormalized diagnostics of one filament snapshot.

    All pair quantities sum over unordered pairs {j,k}, each pair counted
    once.  ``T_quant`` is the quadratic pair moment sum Gamma_j Gamma_k
    int (|Psi_jk|^2 - |X_jk|^2); ``I`` is half the same sum weighted by
    1/|X_jk|^2; ``E = H + I``.  H is conserved by the flow.  E is
    conserved only where I is, for example when all |X_jk| are equal (then
    I is a multiple of T), not for generic data.  Counting each pair once
    is what makes E land exactly on N * energy_bm for dilation data; the
    price is that the dilation identity for I reads 2I = omega * A.
    ``vw_norms`` holds (||u_1+u_3||, ||u_2+u_4||) for plain 4-filament
    configurations and None otherwise.  ``pair_norm_sum`` sums ||u_j - u_k||
    over the ordered pairs j != k and ``pair_norm_max`` is its largest term;
    ``growth_constants`` fits the growth bounds from them.
    """

    time: float
    H: float
    A: float
    T_quant: float
    I: float
    E: float
    sup_ratio_dev: float
    min_sep: float
    vw_norms: tuple[float, float] | None = None
    pair_norm_sum: float = 0.0
    pair_norm_max: float = 0.0


def _log_ratio(rel: np.ndarray) -> np.ndarray:
    """ln(1 + rel) with rel = |Psi_jk|^2/|X_jk|^2 - 1, safe on both ends.

    Uses log1p for full accuracy near ratio 1; ratios at or below zero are
    clamped at 1e-300, which only ever matters for reports taken after a
    collision flag.
    """
    ratio = 1.0 + rel
    good = ratio > 0.5
    return np.where(
        good,
        np.log1p(np.where(good, rel, 0.0)),
        np.log(np.maximum(ratio, 1e-300)),
    )


def _sq_norms(grid: Grid1D, rows: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row of a (rows, M) array."""
    return grid.spacing * np.sum(np.abs(rows) ** 2, axis=-1)


def _pair_terms(
    state: FilamentState,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(kinetic, Gamma_j Gamma_k, |X_jk|^2, density, ||u_jk||) of a snapshot.

    kinetic = (1/2) sum_j Gamma_j^2 ||d u_j/dsigma||^2.  The pair terms are
    (P, 1), (P, 1), (P, M) and (P,) rows in the layout of
    ``_pair_differences``; the density |Psi_jk|^2 - |X_jk|^2 is expanded
    around the backbone as 2 Re(conj(X_jk) u_jk) + |u_jk|^2 so small
    perturbations are not lost to cancellation.
    """
    g = state.cfg.circulations
    du = np.stack([derivative(f).values for f in state.u])
    kinetic = 0.5 * float(g**2 @ _sq_norms(state.grid, du))
    (j, k), xd, ud = _pair_differences(state)
    density = 2.0 * (np.conj(xd) * ud).real
    ud_sq = np.abs(ud) ** 2
    density += ud_sq
    norms = np.sqrt(state.grid.spacing * np.sum(ud_sq, axis=-1))
    return kinetic, (g[j] * g[k])[:, None], np.abs(xd) ** 2, density, norms


@np.errstate(over="ignore", invalid="ignore")
def energies(state: FilamentState) -> EnergyReport:
    """Compute the full EnergyReport of a snapshot.

    The grouping E = H + I is cross-checked against the single-integrand
    form kinetic + (1/2) sum_{pairs} Gamma_j Gamma_k int (ratio - 1 -
    ln ratio), the sum running over unordered pairs.  A disagreement, NaN
    included, raises NumericalGuard.  A lone filament has no pairs and
    reports min_sep = inf and sup_ratio_dev = 0.  ``vw_norms`` is set
    exactly for the plain four-filament class.  A blown-up snapshot
    overflows without a warning, and the grouping check turns its inf or
    NaN E into NumericalGuard.
    """
    grid = state.grid
    g = state.cfg.circulations
    xs = backbone(state)
    u_vals = _values_matrix(state)
    kinetic, gg, xd_sq, pair_dens, pair_norms = _pair_terms(state)

    # per-filament density |Psi_j|^2 - |X_j|^2
    self_dens = 2.0 * (np.conj(xs)[:, None] * u_vals).real + np.abs(u_vals) ** 2
    a_quant = float(quad_trapezoid(grid, np.sum(g[:, None] * self_dens, axis=0)))

    rel = pair_dens / xd_sq
    dist = np.sqrt(np.maximum(xd_sq + pair_dens, 0.0))
    min_sep = float(dist.min(initial=math.inf))
    if min_sep <= 0.0:
        jm, km, im = _closest(dist, pair_indices(state.count))
        raise CollisionDetected(state.time, float(grid.nodes[im]), (jm, km))

    def pair_integral(dens: np.ndarray) -> float:
        return float(quad_trapezoid(grid, np.sum(gg * dens, axis=0)))

    log_ratio = _log_ratio(rel)
    h_quant = kinetic - 0.5 * pair_integral(log_ratio)
    t_quant = pair_integral(pair_dens)
    i_quant = 0.5 * pair_integral(rel)
    e_quant = h_quant + i_quant

    direct = kinetic + 0.5 * pair_integral(rel - log_ratio)
    if not abs(e_quant - direct) <= 1e-12 * max(1.0, abs(e_quant)):
        raise NumericalGuard(
            f"energy groupings disagree at t={state.time:.6g}: "
            f"{e_quant:.17g} vs {direct:.17g}"
        )

    vw_norms = None
    if state.count == 4 and not state.cfg.has_center:
        v, w = np.sqrt(_sq_norms(grid, u_vals[[0, 1]] + u_vals[[2, 3]]))
        vw_norms = (float(v), float(w))

    return EnergyReport(
        time=state.time,
        H=h_quant,
        A=a_quant,
        T_quant=t_quant,
        I=i_quant,
        E=e_quant,
        sup_ratio_dev=float(np.max(np.abs(rel), initial=0.0)),
        min_sep=min_sep,
        vw_norms=vw_norms,
        pair_norm_sum=2.0 * float(np.sum(pair_norms)),
        pair_norm_max=float(np.max(pair_norms, initial=0.0)),
    )


def write_reports_csv(path, reports: list[EnergyReport]) -> None:
    """Dump EnergyReports, one row per sample (see grid.write_csv)."""
    names = ("time", "H", "A", "T_quant", "I", "E", "sup_ratio_dev", "min_sep")
    vw = [r.vw_norms if r.vw_norms is not None else (math.nan, math.nan) for r in reports]
    write_csv(
        path,
        ["t", "H", "A", "T", "I", "E", "sup_ratio_dev", "min_sep", "v_norm", "w_norm"],
        [[getattr(r, a) for r in reports] for a in names]
        + [[v for v, _ in vw], [w for _, w in vw]],
    )


# ---------------------------------------------------------------------------
# Strang splitting integrator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of a filament run: status, sampled states and reports.

    ``halt_time`` is None for a completed run; for a collision it carries the
    detection time together with ``collision_sigma`` and ``collision_pair``;
    for the boundary guard it is the end of the failing step, and for the
    energy cap the first sample above the cap.
    """

    status: str
    states: list[FilamentState]
    reports: list[EnergyReport]
    halt_time: float | None = None
    collision_sigma: float | None = None
    collision_pair: tuple[int, int] | None = None
    energy_cap: float | None = None


def default_energy_cap(
    state: FilamentState,
    factor: float = ENERGY_CAP_FACTOR,
    report: EnergyReport | None = None,
) -> float | None:
    """``factor`` times the initial energy scale, armed only for positive
    circulations.

    For a plain 4-filament configuration the scale is tilde_E0 (which also
    sees the diagonal sums v, w); otherwise it is E(0).  ``report`` is
    energies(state) when the caller already has it.
    Mixed-sign circulations sit outside the energy framework (the collision
    scenario runs there), so the cap is disarmed.
    """
    if np.any(state.cfg.circulations <= 0.0):
        return None
    if report is None:
        report = energies(state)
    if report.vw_norms is not None:
        scale = tilde_E0(state, report)
    else:
        scale = report.E
    if scale <= 0.0:
        return None
    return factor * scale


def _armed_cap(state: FilamentState, report: EnergyReport, energy_cap: float | None,
               factor: float) -> float | None:
    """``energy_cap``, else the default cap; None unless positive and finite."""
    if energy_cap is None:
        energy_cap = default_energy_cap(state, factor, report)
    if energy_cap is not None and not 0.0 < energy_cap < math.inf:
        return None
    return energy_cap


def evolve_samples(
    state: FilamentState,
    T: float,
    dt: float = 1e-3,
    sample_every: int = 10,
    delta_min: float = DELTA_MIN,
    energy_cap: float | None = None,
    boundary_tol: float = DEFAULT_BOUNDARY_TOL,
    energy_cap_factor: float = ENERGY_CAP_FACTOR,
):
    """Evolve the perturbation system for time T by Strang splitting,
    yielding each sample as (snapshot, report, halt) when the loop reaches it.

    Each step is L(dt/2) N(dt) L(dt/2), run by ``grid._split_steps``: L the
    per-filament exact Fourier propagator with gamma = Gamma_j, N a full
    RK4 step on the pointwise interaction, with the backbone at the stage
    times t, t+dt/2, t+dt.  A tagged state evolves only its orbit
    representatives, on the distinct pair rows their sums need, and every
    snapshot expands them to u_j = a_j u_r and keeps the tag.  On a single
    orbit every filament is Psi_j = X_j Phi, the interaction sum of r is
    (1/conj(Phi) - 1) sum_{k != r} Gamma_k / conj(X_r - X_k), and that sum
    is omega X_r on the rigidly rotating backbone, so when it declares
    omega == 0 N is the identity: the loop advances the free flow in
    blocks of steps and guards the separation of a block's midpoints at
    once, halting at the step a step-by-step check would.  Every
    separation there is |X_jk| |Phi|, so the guard checks only the pair
    rows nearest on the backbone, which hold the first minimum.  The free
    flow keeps |fft(u_r)|, so a guarded row psi_jk = X_jk + c_jk v moves at
    most at rate = max|c_jk| speed, speed = |Gamma_r| sum_xi xi^2
    |fft(u_r)(xi)| / M, set once per run.  After each guard call no step
    that starts before the horizon t_1 + (min|psi(t_1)| - threshold -
    slack) / rate, t_1 the last step checked, can reach the threshold, so
    the loop neither transforms nor guards it, and the run halts where a
    guard on every step would.  The slack, (1e-8 + 8 eps n sqrt(M) log2 M)
    (max|X_jk| + max|c_jk| ||fft(u_r)||_1 / M) for n steps, bounds the
    roundoff of a computed |psi|: a few eps of |X_jk| + |c_jk| |v| for the
    sum, with |v| <= ||fft(u_r)||_1 / M; at most 5 eps of each mode per
    product with L(h); and per transform O(eps log2 M) in norm, at most
    eps sqrt(M) log2 M of ||fft(u_r)||_1 / M at a node.  The 1e-8 covers
    the sum and the last transform for M <= grid.MAX_POINTS, and the
    second term one product and two transforms per step.  A margin, rate
    or slack that is not finite sets the horizon to -inf: every step is
    checked.  The kernel's buffers and the
    RK4 stages (``grid._rk4``) are allocated once per run and written
    through ``out=``, so a run sampled at every step is bit for bit that of
    fresh temporaries.

    Samples fall at t = 0, every ``sample_every`` steps, at the final time
    and at the halt; a caller that keeps only what it needs of each holds
    one snapshot at a time.  halt is None but in the last yield of a run
    that halts: CollisionDetected below delta_min times the backbone
    spacing, with the state at the start of the failing step;
    BoundaryContaminated when a perturbation leaves the background at the
    domain ends, with the state at the end of the step; EnergyCapExceeded
    when a sampled E(t) exceeds the cap (default_energy_cap with
    energy_cap_factor; energy_cap overrides it, 0 or inf disarm).  A halt
    right after a sample keeps that sample and yields (None, None, halt).
    A NaN state raises NumericalGuard; dt <= 0 or sample_every < 1 raise
    ValueError.
    """
    n_steps, h = _step_plan(T, dt, sample_every)
    report = energies(state)
    energy_cap = _armed_cap(state, report, energy_cap, energy_cap_factor)

    cfg = state.cfg
    grid = state.grid
    x0 = cfg.positions
    orbits = Orbits(state.symmetry, state.count)
    u_vals = _values_matrix(state)[orbits.reps]
    threshold = delta_min * min_separation(cfg)

    if not orbits.trivial and orbits.reps.size == 1 and cfg.omega == 0.0:
        pairs, _, _, coeffs = pair_rows(cfg, orbits)
        guard_rows = pairs[0].size  # the blocks stay sized for every row
        # every row is X_jk Phi, so only the rows nearest on the backbone
        # can hold the first minimum: a row 1e-6 further out exceeds them by
        # 1e-6 |X_jk| |Phi|, near the threshold far above the roundoff
        # eps |X_jk| of |X_jk + c_jk v| unless delta_min is below ~1e-9
        x_jk = x0[pairs[0]] - x0[pairs[1]]
        gaps = np.abs(x_jk)
        near = gaps <= (1.0 + 1e-6) * gaps.min()
        pairs, coeffs = (pairs[0][near], pairs[1][near]), coeffs[near]
        x_jk = x_jk[near, None]
        # the speed bound and the roundoff slack of the horizon (see above)
        m = grid.num_points
        spectrum = np.abs(np.fft.fft(u_vals, axis=1))
        gap, reach = float(gaps[near].max()), float(np.abs(coeffs).max())
        speed = abs(float(cfg.circulations[orbits.reps[0]])) * float(
            np.sum(grid.wavenumbers**2 * spectrum)) / m
        rate = reach * speed
        drift = 8.0 * math.ulp(1.0) * n_steps * math.sqrt(m) * math.log2(m)
        slack = (1e-8 + drift) * (gap + reach * float(spectrum.sum()) / m)
        safe = -math.inf  # no step before this time can reach the threshold

        def guard(v: np.ndarray, times: list[float]):
            # the free flow: N is the identity, so only guard the midpoints
            nonlocal safe
            psi = x_jk + coeffs * v
            dist = np.empty(psi.shape)
            halt = _separation_halt(psi, dist, threshold, times, grid.nodes, pairs)
            safe = -math.inf
            if halt is None and math.isfinite(rate):
                margin = float(dist[-1].min()) - threshold - slack
                if 0.0 < margin < math.inf:
                    safe = times[-1] + margin / rate if rate > 0.0 else math.inf
            return halt

        flow = dict(guard=guard, guard_rows=guard_rows, horizon=lambda: safe)
    else:
        rhs = _pair_kernel(cfg, threshold, grid.nodes, orbits)
        omega = cfg.omega if cfg.omega is not None else 0.0

        def rate(vals: np.ndarray, t: float, out: np.ndarray) -> None:
            xs = np.exp(1j * omega * t) * x0
            np.multiply(1j, rhs(vals, xs, t, out), out=out)

        flow = dict(substep=_rk4(rate, u_vals, h))

    dispersion = -1j * np.outer(cfg.circulations[orbits.reps], grid.wavenumbers**2)
    last = state.time
    yield state, report, None
    for t, rows, halt in _split_steps(
        grid, u_vals, dispersion, state.time, n_steps, h, sample_every, boundary_tol,
        **flow,
    ):
        if isinstance(halt, NumericalGuard):
            raise halt
        snap = report = None
        if t != last:  # a halt right after a sample keeps that sample
            snap = FilamentState(
                u=tuple(make_field(grid, row) for row in orbits.expand(rows)),
                cfg=cfg, time=t, symmetry=state.symmetry,
            )
            report, last = energies(snap), t
            if halt is None and energy_cap is not None and report.E > energy_cap:
                halt = EnergyCapExceeded(t, report.E, energy_cap)
        yield snap, report, halt
        if halt is not None:
            return


def evolve(
    state: FilamentState,
    T: float,
    dt: float = 1e-3,
    sample_every: int = 10,
    delta_min: float = DELTA_MIN,
    energy_cap: float | None = None,
    boundary_tol: float = DEFAULT_BOUNDARY_TOL,
    energy_cap_factor: float = ENERGY_CAP_FACTOR,
) -> EvolutionResult:
    """``evolve_samples`` collected: every state and report, and the halt as
    the status (its class name, or Completed) and hitting time."""
    states, reports, halt = [], [], None
    for snap, report, halt in evolve_samples(
        state, T, dt, sample_every, delta_min, energy_cap, boundary_tol, energy_cap_factor,
    ):
        if snap is not None:
            states.append(snap)
            reports.append(report)
    return EvolutionResult(
        status="Completed" if halt is None else type(halt).__name__,
        states=states,
        reports=reports,
        halt_time=None if halt is None else halt.time,
        collision_sigma=getattr(halt, "sigma", None),
        collision_pair=getattr(halt, "pair", None),
        energy_cap=_armed_cap(state, reports[0], energy_cap, energy_cap_factor),
    )


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

def coercivity_check(
    report: EnergyReport, state: FilamentState, c: float = COERCIVITY_C
) -> float:
    """Assert kinetic + c * sum ||ratio - 1||^2 <= E on the ratio band.

    Valid while every squared-modulus ratio stays within [3/4, 5/4]
    (PreconditionViolated otherwise); there the integrand comparison
    2c (x-1)^2 <= x - 1 - ln x holds for c = 0.21 but fails at the band edge
    for c = 0.25.  Returns the margin E - lhs.
    """
    if report.sup_ratio_dev > 0.25 * (1.0 + 1e-9):
        raise PreconditionViolated(
            f"ratio deviation {report.sup_ratio_dev:.3e} exceeds 1/4; "
            "the coercivity bound only holds on the band [3/4, 5/4]"
        )
    kinetic, gg, xd_sq, pair_dens, _ = _pair_terms(state)
    rel = pair_dens / xd_sq
    quad = float(quad_trapezoid(state.grid, np.sum(gg * rel**2, axis=0)))

    lhs = kinetic + c * quad
    margin = report.E - lhs
    assert lhs <= report.E + 1e-12 * max(1.0, abs(report.E)), (
        f"coercivity failed with c={c}: lhs={lhs:.6e} > E={report.E:.6e}"
    )
    return margin


# ---------------------------------------------------------------------------
# exact energy identities on the unit polygons
# ---------------------------------------------------------------------------

def _require_plain_four(state: FilamentState) -> None:
    if state.count != 4 or state.cfg.has_center:
        raise WrongN(
            f"needs exactly 4 filaments without a center, got "
            f"{state.count} (has_center={state.cfg.has_center})"
        )


def _require_unit_polygon(state: FilamentState, n: int, centre: bool, name: str) -> None:
    """The precondition of the exact energy identities: n vertices at
    X_0 exp(2 pi i k / n) on the unit circle, around a centre vortex at the
    origin when ``centre``, and every circulation 1, each to 1e-12 absolute.
    WrongN for the wrong filament count, WrongConfig otherwise."""
    cfg = state.cfg
    if state.count != n + centre or cfg.has_center != centre:
        raise WrongN(f"the {name} identity needs {n} vertices{' and a centre' * centre}, "
                     f"got {state.count} filaments (has_center={cfg.has_center})")
    x = cfg.positions
    ring = x[1:] if centre else x
    for values, target, what in (
        (x[:centre], 0.0, "the centre at the origin"),
        (np.abs(ring), 1.0, "radius 1"),
        (ring, ring[0] * np.exp(2j * np.pi * np.arange(n) / n), f"a regular {name}"),
        (cfg.circulations, 1.0, "unit circulations"),
    ):
        if not np.allclose(values, target, rtol=0.0, atol=1e-12):
            raise WrongConfig(f"the {name} identity needs {what}")


def vw_decompose(state: FilamentState) -> tuple[ComplexField, ComplexField]:
    """Diagonal sums v = u_1 + u_3 and w = u_2 + u_4 of a 4-filament state.

    The diagonal backbone positions cancel (X_1 + X_3 = X_2 + X_4 = 0), so
    these are also the sums of the full filament fields.
    """
    _require_plain_four(state)
    grid = state.grid
    v = make_field(grid, state.u[0].values + state.u[2].values)
    w = make_field(grid, state.u[1].values + state.u[3].values)
    return v, w


# E = H + t T + a A + sum over groups of c sum_rows ||sum_j row_j u_j||^2
# on the unit polygons with unit circulations, by identity: (vertices,
# centre, t, a, ((c, rows), ...)), each row's 0/1 weights in the filaments'
# index order (a centre first)
_IDENTITIES = {
    "square": (4, False, 1 / 4, -1 / 4, ((1 / 8, ((1, 0, 1, 0), (0, 1, 0, 1))),)),
    "segment": (2, True, 1 / 2, -3 / 4, ((3 / 4, ((1, 0, 0),)), (3 / 8, ((0, 1, 1),)))),
    "hexagon": (6, False, 1 / 2, -7 / 4, (
        (1 / 3, ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1))),
        (3 / 8, ((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1))),
    )),
}


def _energy_identity(name: str, state: FilamentState) -> float:
    """|E - combination| of the ``_IDENTITIES`` entry ``name`` on a state
    that meets its polygon precondition; BoundViolated above
    1e-10 * max(1, |E|) or if NaN.

    A raised check rather than an assert, so ``python -O`` keeps it.
    """
    n, centre, t, a, groups = _IDENTITIES[name]
    _require_unit_polygon(state, n, centre, name)
    rep = energies(state)
    u_vals = _values_matrix(state)
    combination = rep.H + t * rep.T_quant + a * rep.A + sum(
        c * float(np.sum(_sq_norms(state.grid, np.array(rows) @ u_vals)))
        for c, rows in groups
    )
    residual = abs(rep.E - combination)
    if not residual <= 1e-10 * max(1.0, abs(rep.E)):
        raise BoundViolated(
            f"{name} energy identity failed: E={rep.E!r}, combination={combination!r}"
        )
    return residual


def square_energy_identity(state: FilamentState) -> float:
    """Residual of the square identity

        E = H + T/4 - A/4 + (||v||^2 + ||w||^2)/8,

    checked below 1e-10 * max(1, |E|).  The coefficients follow from
    |X_jk|^2 = 2 on sides and 4 on diagonals together with the
    parallelogram law; doubling any of them breaks the identity (see the
    tests).
    """
    return _energy_identity("square", state)


def segment_energy_identity(state: FilamentState) -> float:
    """Residual of the collinear three-filament identity

        E = H + T/2 - (3/4) A + (3/4) ||u_mid||^2 + (3/8) ||u_+ + u_-||^2,

    for the segment backbone (center vortex at the midpoint, index 0, and
    the two ends at +-1), all circulations 1.  Checked below
    1e-10 * max(1, |E|).
    """
    return _energy_identity("segment", state)


def hexagon_energy_identity(state: FilamentState) -> float:
    """Residual of the hexagon identity

        E = H + T/2 - (7/4) A
            + (1/3) (||u_1+u_3+u_5||^2 + ||u_2+u_4+u_6||^2)
            + (3/8) sum_j ||u_j + u_(j+3)||^2,

    for the plain unit hexagon with circulations 1; the triangle sums run
    over the two inscribed equilateral triangles and the last sum over the
    three antipodal pairs.  Checked below 1e-10 * max(1, |E|).
    """
    return _energy_identity("hexagon", state)


def check_Lv_vanishes(state: FilamentState) -> tuple[float, float]:
    """Sup-norms of the assembled linear parts L_v and L_w.

    L_v collects the first-order terms of the interaction felt by the
    diagonal pair (1, 3) from the other pair:

        L_v(u) = 2 sum_{k=2,4} [ X_1k Re(conj(u_1k) X_1k)/|X_1k|^4
                                 + X_3k Re(conj(u_3k) X_3k)/|X_3k|^4 ]
                 - sum_{k=2,4} [ u_1k/|X_1k|^2 + u_3k/|X_3k|^2 ]

    and L_w swaps the roles of the pairs.  On the unit square both vanish
    identically (the geometry turns the projections into plain sums); on a
    distorted backbone they do not, which is what makes this a usable check.
    """
    _require_plain_four(state)
    xs = backbone(state)
    u_vals = _values_matrix(state)

    def assemble(js: tuple[int, int], ks: tuple[int, int]) -> float:
        total = np.zeros(u_vals.shape[1], dtype=np.complex128)
        for j in js:
            for k in ks:
                xjk = xs[j] - xs[k]
                ujk = u_vals[j] - u_vals[k]
                sq = abs(xjk) ** 2
                total += 2.0 * xjk * (np.conj(ujk) * xjk).real / sq**2
                total -= ujk / sq
        return float(np.max(np.abs(total)))

    return assemble((0, 2), (1, 3)), assemble((1, 3), (0, 2))


# ---------------------------------------------------------------------------
# existence-time prediction and growth monitors
# ---------------------------------------------------------------------------

def tilde_E0(state: FilamentState, report: EnergyReport | None = None) -> float:
    """max(E(0), (||u_1+u_3||^2 + ||u_2+u_4||^2)/2) for 4-filament data.

    ``report`` is energies(state) when the caller already has it.
    """
    _require_plain_four(state)
    rep = energies(state) if report is None else report
    v, w = rep.vw_norms
    return max(rep.E, 0.5 * (v**2 + w**2))


def max_pair_norm(state: FilamentState) -> float:
    """Largest L2 norm of a pair difference u_j - u_k."""
    return energies(state).pair_norm_max


def predicted_T(tilde_e0: float, max_jk_norm: float) -> float:
    """Guaranteed existence time 0.1 min(tE0^(-1/4) d0^(-1/2), tE0^(-1/3)).

    tilde_e0 = 0 (unperturbed data) returns inf as a sentinel.
    """
    if tilde_e0 <= 0.0:
        return math.inf
    first = math.inf
    if max_jk_norm > 0.0:
        first = tilde_e0 ** (-0.25) * max_jk_norm ** (-0.5)
    return 0.1 * min(first, tilde_e0 ** (-1.0 / 3.0))


@dataclass(frozen=True)
class GrowthConstants:
    """Smallest constants making the a-priori growth bounds hold on a run.

    ``pair_norm_C`` fits sum ||u_jk(t)|| <= C (sum ||u_jk(0)|| +
    t sup E^(1/2)); ``vw_C`` fits the diagonal-sum bound
    ||v(t)|| + ||w(t)|| <= ||v(0)|| + ||w(0)|| + C t sup G(s) with
    G = max ||u_jk||^(1/2) E^(1/4) (||v|| + ||w|| + E^(1/2)), and is None
    for non-4-filament runs.  Monitoring output, not assertions.
    """

    pair_norm_C: float
    vw_C: float | None


def growth_monitors(
    states: list[FilamentState],
    reports: list[EnergyReport] | None = None,
) -> GrowthConstants:
    """Fit the growth-bound constants over a sampled trajectory."""
    if reports is None:
        reports = [energies(s) for s in states]
    return growth_constants(reports)


def growth_constants(reports: list[EnergyReport]) -> GrowthConstants:
    """Fit the growth-bound constants from each sample's EnergyReport.
    The diagonal-sum constant is fitted when the reports carry vw_norms."""
    sums = [r.pair_norm_sum for r in reports]
    maxima = [r.pair_norm_max for r in reports]
    times = [r.time for r in reports]
    t0 = times[0]
    energies_pos = [max(r.E, 0.0) for r in reports]

    pair_c = 0.0
    sup_e = 0.0
    for i, t in enumerate(times):
        sup_e = max(sup_e, energies_pos[i])
        denom = sums[0] + (t - t0) * math.sqrt(sup_e)
        if denom > 0.0:
            pair_c = max(pair_c, sums[i] / denom)

    vw_c = None
    if reports[0].vw_norms is not None:
        vw = [r.vw_norms[0] + r.vw_norms[1] for r in reports]
        vw_c = 0.0
        sup_g = 0.0
        for i, t in enumerate(times):
            e = energies_pos[i]
            sup_g = max(
                sup_g,
                math.sqrt(maxima[i]) * e**0.25 * (vw[i] + math.sqrt(e)),
            )
            denom = (t - t0) * sup_g
            if denom > 0.0:
                vw_c = max(vw_c, (vw[i] - vw[0]) / denom)
    return GrowthConstants(pair_norm_C=pair_c, vw_C=vw_c)
