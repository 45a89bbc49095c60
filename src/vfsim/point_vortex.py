"""Planar point-vortex system: equilibria, integration, invariants, stability.

Positions are complex numbers X_j, circulations real Gamma_j, and the motion is

    dX_j/dt = i * sum_{k != j} Gamma_k (X_j - X_k) / |X_j - X_k|^2.

Regular polygons (optionally with a center vortex) rotate rigidly at a rate
omega fixed by the circulations; those configurations are the backbones of the
filament model, so this module also provides their linear stability in the
co-rotating frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidPolygon, NearCollision, NumericalGuard
from .grid import _rk4, _step_plan, write_csv

DELTA_MIN = 1e-8  # coincidence guard for the singular interaction kernel


# ---------------------------------------------------------------------------
# configuration type and constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VortexConfig:
    """A snapshot of N point vortices.

    ``omega`` is the rigid rotation rate when the configuration was built as a
    relative equilibrium (None otherwise).  When ``has_center`` is set, index 0
    holds the center vortex.
    """

    positions: np.ndarray
    circulations: np.ndarray
    has_center: bool = False
    omega: float | None = None

    @property
    def count(self) -> int:
        return self.positions.size


def min_separation(cfg: VortexConfig) -> float:
    """Smallest pairwise distance d > 0 of the configuration (inf alone)."""
    j, k = pair_indices(cfg.count)
    return float(np.abs(cfg.positions[j] - cfg.positions[k]).min(initial=np.inf))


def polygon_config(
    N: int,
    R: float,
    gamma: float,
    center_circulation: float | None = None,
) -> VortexConfig:
    """Regular N-gon of radius R, circulation gamma, optional center vortex.

    The rotation rate is gamma*(N-1)/(2 R^2) for the plain polygon and
    [gamma*(N-1) + 2*Gamma_0]/(2 R^2) with a center vortex of circulation
    Gamma_0; the choice Gamma_0 = -gamma*(N-1)/2 makes the configuration
    stationary.
    """
    if N < 2:
        raise InvalidPolygon(f"need at least 2 vertices, got N={N}")
    if R <= 0:
        raise InvalidPolygon(f"polygon radius must be positive, got R={R}")
    vertices = R * np.exp(2j * np.pi * np.arange(N) / N)
    if center_circulation is None:
        positions = vertices
        circulations = np.full(N, gamma, dtype=float)
        omega = gamma * (N - 1) / (2.0 * R**2)
        has_center = False
    else:
        positions = np.concatenate(([0.0 + 0.0j], vertices))
        circulations = np.concatenate(([center_circulation], np.full(N, gamma)))
        omega = (gamma * (N - 1) + 2.0 * center_circulation) / (2.0 * R**2)
        has_center = True
    return VortexConfig(
        positions=positions,
        circulations=circulations,
        has_center=has_center,
        omega=omega,
    )


# ---------------------------------------------------------------------------
# vector field and conserved quantities
# ---------------------------------------------------------------------------

def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (j, k) of the unordered pairs j < k, in row-major order."""
    return np.triu_indices(n, 1)


def _velocity_matrix(
    circulations: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Complex N x P matrix mapping the pair terms X_jk/|X_jk|^2 to dX/dt.

    Pair p = (j, k) pushes j with i Gamma_k and, by antisymmetry, k with
    -i Gamma_j.
    """
    j, k = pairs
    cols = np.arange(j.size)
    mat = np.zeros((circulations.size, j.size), dtype=complex)
    mat[j, cols] = 1j * circulations[k]
    mat[k, cols] = -1j * circulations[j]
    return mat


def _pair_velocity(
    positions: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    vmat: np.ndarray,
    delta_min: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Velocities from the pair terms, written into ``out`` if given; vmat
    comes from _velocity_matrix."""
    diff = positions[pairs[0]] - positions[pairs[1]]
    sq = diff.real**2 + diff.imag**2
    if sq.size and sq.min() < delta_min**2:
        raise NearCollision(float(np.sqrt(sq.min())))
    return np.matmul(vmat, diff / sq, out=out)


def rhs(
    positions: np.ndarray,
    circulations: np.ndarray,
    delta_min: float = DELTA_MIN,
) -> np.ndarray:
    """Velocities dX_j/dt of the point-vortex system."""
    pairs = pair_indices(positions.size)
    vmat = _velocity_matrix(circulations, pairs)
    return _pair_velocity(positions, pairs, vmat, delta_min)


def config_rhs(cfg: VortexConfig, delta_min: float = DELTA_MIN) -> np.ndarray:
    return rhs(cfg.positions, cfg.circulations, delta_min)


def _invariant_series(
    positions: np.ndarray, circulations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four conserved quantities of each row of a (samples, N) array."""
    x, g = positions, circulations
    j, k = pair_indices(g.size)
    diff = x[:, j] - x[:, k]
    sq = diff.real**2 + diff.imag**2
    if sq.size and sq.min() <= 0.0:
        raise NearCollision(0.0)
    gg = g[j] * g[k]
    center = x @ g
    ang_mom = (x.real**2 + x.imag**2) @ g
    # each unordered pair stands for both of its ordered copies
    log_sum = 2.0 * (np.log(sq) @ gg)
    quad_sum = 2.0 * (sq @ gg)
    return center, ang_mom, log_sum, quad_sum


def invariants(cfg: VortexConfig) -> tuple[complex, float, float, float]:
    """The four conserved quantities of the motion.

    Returns (center of inertia sum Gamma_j X_j, angular momentum
    sum Gamma_j |X_j|^2, sum_{j != k} Gamma_j Gamma_k ln|X_jk|^2, and
    sum_{j != k} Gamma_j Gamma_k |X_jk|^2), the last two over ordered pairs.
    """
    center, ang_mom, log_sum, quad_sum = _invariant_series(
        cfg.positions[None, :], cfg.circulations
    )
    return (
        complex(center[0]),
        float(ang_mom[0]),
        float(log_sum[0]),
        float(quad_sum[0]),
    )


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

_INVARIANT_KEYS = ("center_of_inertia", "angular_momentum", "log_sum", "quad_sum")


@dataclass
class VortexTrajectory:
    """RK4 trajectory with the conserved quantities sampled every step.

    ``positions`` holds one row per sample; ``states`` presents the same
    rows as VortexConfig snapshots.
    """

    times: np.ndarray
    positions: np.ndarray
    initial: VortexConfig
    invariant_series: dict[str, np.ndarray] = field(default_factory=dict)

    @cached_property
    def states(self) -> list[VortexConfig]:
        cfg = self.initial
        return [
            VortexConfig(
                positions=row,
                circulations=cfg.circulations,
                has_center=cfg.has_center,
                omega=cfg.omega,
            )
            for row in self.positions
        ]


def integrate(
    cfg: VortexConfig,
    T: float,
    dt: float,
    delta_min: float = DELTA_MIN,
) -> VortexTrajectory:
    """Classical fixed-step RK4 (``grid._rk4``) on the point-vortex equations.

    The step is capped at d^2/10 (d = initial minimal separation) because the
    velocity varies on the scale of the separation; NearCollision is raised
    with the offending time if vortices approach within delta_min, and
    ValueError for dt <= 0.
    """
    n_steps, h = _step_plan(T, dt, 1)
    d = min_separation(cfg)
    if dt > d**2 / 10.0:
        raise NumericalGuard(
            f"dt={dt:.3e} exceeds the stability guard d^2/10 = {d**2 / 10.0:.3e}"
        )
    g = cfg.circulations
    pairs = pair_indices(cfg.count)
    vmat = _velocity_matrix(g, pairs)

    def velocity(x: np.ndarray, _t: float, out: np.ndarray) -> None:
        _pair_velocity(x, pairs, vmat, delta_min, out)

    times = h * np.arange(n_steps + 1)
    path = np.empty((n_steps + 1, cfg.count), dtype=complex)
    x = cfg.positions.astype(complex)
    path[0] = x
    step = _rk4(velocity, x, h)
    for n in range(n_steps):
        try:
            step(x, n * h)
        except NearCollision as exc:
            raise NearCollision(exc.distance, time=n * h) from None
        path[n + 1] = x

    series = dict(zip(_INVARIANT_KEYS, _invariant_series(path, g)))
    return VortexTrajectory(
        times=times, positions=path, initial=cfg, invariant_series=series
    )


def write_trajectory_csv(path, traj: VortexTrajectory) -> None:
    """Dump a trajectory, one row per sample (see grid.write_csv)."""
    x, inv = traj.positions, traj.invariant_series
    center = inv["center_of_inertia"]
    header, columns = ["t"], [traj.times]
    for j in range(x.shape[1]):
        header += [f"re_X{j}", f"im_X{j}"]
        columns += [x[:, j].real, x[:, j].imag]
    header += ["center_re", "center_im", "ang_mom", "log_sum", "quad_sum"]
    columns += [center.real, center.imag, inv["angular_momentum"], inv["log_sum"],
                inv["quad_sum"]]
    write_csv(path, header, columns)


# ---------------------------------------------------------------------------
# linear stability of polygon equilibria
# ---------------------------------------------------------------------------

def _corotating_jacobian(cfg: VortexConfig) -> np.ndarray:
    """Real 2M x 2M Jacobian of the co-rotating vector field at cfg.

    In the frame rotating at omega the field is
    F_j(Y) = i sum_k Gamma_k / conj(Y_j - Y_k) - i omega Y_j, so the Wirtinger
    derivatives are A_jl = dF_j/dY_l = -i omega delta_jl and
    B_jl = dF_j/d conj(Y_l) = i Gamma_l / conj(Y_jl)^2 for l != j,
    B_jj = -i sum_k Gamma_k / conj(Y_jk)^2.  Each (j, l) pair becomes the real
    block [[Re(A+B), -Im(A-B)], [Im(A+B), Re(A-B)]].
    """
    x, g = cfg.positions, cfg.circulations
    omega = cfg.omega if cfg.omega is not None else 0.0
    m = x.size
    diff = x[:, None] - x[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_conj_sq = 1.0 / np.conj(diff) ** 2
    np.fill_diagonal(inv_conj_sq, 0.0)

    B = 1j * g[None, :] * inv_conj_sq
    np.fill_diagonal(B, -1j * np.sum(g[None, :] * inv_conj_sq, axis=1))
    A = np.diag(np.full(m, -1j * omega))

    jac = np.empty((2 * m, 2 * m))
    s, dmat = A + B, A - B
    jac[0::2, 0::2] = s.real
    jac[0::2, 1::2] = -dmat.imag
    jac[1::2, 0::2] = s.imag
    jac[1::2, 1::2] = dmat.real
    return jac


STABILITY_TOL = 1e-8  # separates rounding noise from genuine growth rates


def _spectrum_with_deflated_kernel(jac: np.ndarray) -> np.ndarray:
    """Eigenvalues of jac with the generalized kernel removed analytically.

    The linearization at a relative equilibrium always carries a defective
    zero eigenvalue (the scaling mode X feeds the rotation mode iX), and the
    marginal heptagon has four more neutral modes.  A dense eigenvalue routine
    scatters a defective zero by sqrt(eps)*||J||, which is larger than
    STABILITY_TOL and would misclassify every stable polygon.  The generalized
    kernel ker(J^2) is exactly invariant and its rank is decided by a singular
    value gap (observed ~1e-16 against O(1)), so we split it off, count its
    eigenvalues as exact zeros, and diagonalize the complement, where all
    eigenvalues are simple and come out at rounding accuracy.
    """
    n = jac.shape[0]
    sq = jac @ jac
    u_all, s, vt = np.linalg.svd(sq)
    del u_all
    smax = s[0]
    if smax == 0.0:
        return np.zeros(n, dtype=complex)
    ker_dim = int(np.sum(s < 1e-8 * smax))
    if ker_dim == 0:
        return np.linalg.eigvals(jac)
    kernel = vt[n - ker_dim:].T
    q, _ = np.linalg.qr(np.column_stack([kernel, np.eye(n)]))
    w = q[:, ker_dim:n]
    rest = np.linalg.eigvals(w.T @ jac @ w)
    return np.concatenate([np.zeros(ker_dim, dtype=complex), rest])


def linear_stability(
    N: int,
    gamma: float,
    center_circulation: float | None = None,
) -> tuple[np.ndarray, str]:
    """Spectrum of the linearized co-rotating dynamics at the polygon.

    Returns the eigenvalues and the verdict "stable" when no eigenvalue has
    real part above STABILITY_TOL, "unstable" otherwise.
    """
    if N < 3:
        raise InvalidPolygon(f"stability analysis needs N >= 3, got N={N}")
    cfg = polygon_config(N, 1.0, gamma, center_circulation)
    eigenvalues = _spectrum_with_deflated_kernel(_corotating_jacobian(cfg))
    verdict = "stable" if eigenvalues.real.max() <= STABILITY_TOL else "unstable"
    return eigenvalues, verdict
