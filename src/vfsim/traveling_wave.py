"""Travelling-wave profiles of the reduced filament equation.

Builds the even, real-amplitude travelling waves v(sigma) = sqrt(1 - eta) e^{i theta}
whose amplitude solves the planar Hamiltonian system

    eta'' = 2 omega ln(1 - eta) - (c^2 - 4 omega) eta,   eta(0) = sigma1, eta'(0) = 0,

with first integral (eta')^2 = a(eta), and whose phase obeys the Madelung relation
(1 - eta) theta' = c eta / 2.  b = a / eta^2 has one evaluator: below a cut at
0.3 it sums its series, whose terms are all positive, and above it the closed
form, each within a few ulp of 4 omega of the exact b.  The turning point
sigma1, the smallest positive root of a, is the float where b changes sign.
The amplitude is shot with a private Dormand-Prince 5(4) integrator (Dormand
& Prince, J. Comput. Appl. Math. 6, 1980) with RK45 step control, Shampine's
quartic dense output and one terminal event, so the module needs numpy only.
The module also provides the explicit Gross-Pitaevskii soliton with the same
speed (a near-miss control) and helical multi-filament fields built from a profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolated,
    DomainError,
    EtaEscaped,
    NoRoot,
    NumericalGuard,
    ZeroModulus,
)
from .grid import ComplexField, Grid1D, derivative, make_field, quad_trapezoid, shift_field
from .reduced import lattice_wavenumber

# b sums its series below the cut (sigma0 < 0.3 under the default window, so
# find_sigma1 and the shot sum only the series) with the coefficients
# 1 / ((m + 1)(m + 2)), m = 32 down to 1: at the cut the rest is 1e-20 of the sum.
_SERIES_CUT = 0.3
_SERIES_COEFFS = tuple(1.0 / ((m + 1) * (m + 2)) for m in range(32, 0, -1))

# The amplitude equation switches from the second-order form to the
# first-integral form once eta falls below this fraction of sigma1.  Past the
# turning point the first-order form is contraction-stable, while the
# second-order form would amplify roundoff along e^{+sqrt(2 omega - c^2) sigma}
# over a long box.
SWITCH_FRACTION = 0.5

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14


@dataclass(frozen=True)
class WaveParams:
    """Speed and rotation parameters of a travelling wave.

    Requires omega > 0 and 0 < 2 omega - c^2 < eta3, with eta3 defaulting to
    0.2 omega.  Violations raise DomainError.
    """

    omega: float
    c: float
    eta3: float = 0.0

    def __post_init__(self):
        if self.omega <= 0.0:
            raise DomainError(f"omega = {self.omega:.6g} must be positive")
        if self.eta3 == 0.0:
            object.__setattr__(self, "eta3", 0.2 * self.omega)
        if self.c <= 0.0:
            raise DomainError(f"wave speed c = {self.c:.6g} must be positive")
        gap = 2.0 * self.omega - self.c**2
        if not 0.0 < gap < self.eta3:
            raise DomainError(
                f"2*omega - c^2 = {gap:.6g} must lie in (0, {self.eta3:.6g})"
            )

    @property
    def gap(self) -> float:
        """The slow-speed parameter 2 omega - c^2."""
        return 2.0 * self.omega - self.c**2

    @property
    def sigma0(self) -> float:
        """Upper end 3 (2 omega - c^2) / (2 omega) of the root bracket."""
        return 1.5 * self.gap / self.omega


@dataclass(frozen=True)
class WaveProfile:
    """A fully assembled travelling wave on a grid.

    eta and theta are node samples of amplitude defect and phase; v is the
    complex profile with background e^{i jump/2} (the right asymptotic phase,
    theta being odd).  periodic_part is the de-twisted field
    w = v e^{-i twist sigma}, which has background 1 and is the representation
    safe for spectral work; twist = phase_jump / (2 L).
    """

    params: WaveParams
    grid: Grid1D
    sigma1: float
    eta: np.ndarray
    theta: np.ndarray
    v: ComplexField
    periodic_part: ComplexField
    twist: float
    energy: float
    phase_jump: float


def a_of(eta, params: WaveParams):
    """Potential a(eta) = -(c^2 - 4 omega) eta^2 + 4 omega ((eta - 1) ln(1 - eta) - eta),
    vectorized, as eta^2 b(eta); arguments must lie in [0, 1)."""
    out = np.square(eta, dtype=float) * b_of(eta, params)
    return out if out.ndim else float(out)


def _b_series(eta, params: WaveParams):
    """b = (2 omega - c^2) - 4 omega sum_{m >= 1} eta^m / ((m + 1)(m + 2)),
    summed by Horner's rule on a float or an array."""
    total = 0.0
    for coeff in _SERIES_COEFFS:
        total = (total + coeff) * eta
    return params.gap - 4.0 * params.omega * total


def _b_closed(eta, params: WaveParams):
    """b = a / eta^2 with a in closed form, for eta > 0."""
    om, sq = params.omega, eta * eta
    a = (4.0 * om - params.c**2) * sq + 4.0 * om * ((eta - 1.0) * np.log1p(-eta) - eta)
    return a / sq


def b_of(eta, params: WaveParams):
    """b(eta) = a(eta) / eta^2, extended by continuity to b(0) = 2 omega - c^2."""
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0.0) or np.any(eta >= 1.0):
        raise DomainError("b(eta) requires 0 <= eta < 1")
    small = eta < _SERIES_CUT
    out = np.where(small, _b_series(eta, params), _b_closed(np.where(small, 0.5, eta), params))
    return out if out.ndim else float(out)


def _b_scalar(eta: float, params: WaveParams) -> float:
    """b_of at one float in [0, 1), by b_of's operations: the shot and find_sigma1
    call b on floats, and b_of's 0-d arrays were half the shot's time."""
    return _b_series(eta, params) if eta < _SERIES_CUT else float(_b_closed(eta, params))


def _bisect(func, lo: float, hi: float, tol: float = 0.0) -> float:
    """Bisect func, taken positive at lo and <= 0 at hi (neither is evaluated):
    the first midpoint with |func| < tol, else hi once lo and hi are adjacent."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        value = func(mid)
        if abs(value) < tol:
            return mid
        if value > 0.0:
            lo = mid
        else:
            hi = mid


def find_sigma1(params: WaveParams) -> float:
    """Smallest positive root of a: the float where b changes sign,
    b(sigma1) <= 0 < b(the float below sigma1), bisected on (0, sigma0].

    b = (2 omega - c^2) - 4 omega sum_{m>=1} eta^m / ((m+1)(m+2)) starts at
    b(0) = 2 omega - c^2 > 0, and with omega > 0 every series term it takes
    away grows with eta, so b strictly decreases on [0, 1) and has at most
    one root there.  b must be <= 0 at sigma0 (NoRoot otherwise).
    """
    s0 = params.sigma0
    b_end = b_of(s0, params)
    if b_end > 0.0:
        raise NoRoot(f"b({s0:.6g}) = {b_end:.6g} > 0: no bracketed root")
    return _bisect(lambda eta: _b_scalar(eta, params), 0.0, s0)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) shooter
# ---------------------------------------------------------------------------

# The Dormand & Prince (1980) tableau with Shampine's quartic dense-output
# matrix (Math. Comp. 46, 1986).  The step control is the RK45 rule of
# Hairer, Norsett & Wanner (Solving ODEs I, Sec. II.4): RMS error norm,
# safety 0.9, step factors in [0.2, 10].  Constants and operation order follow
# scipy's RK45 line for line, so a shot takes solve_ivp's steps bit for bit; its
# dense output adds the four terms in order, not through np.dot as scipy does,
# and its event is bisected on the step's quartic, not located by brentq.
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([
    -71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_ERROR_EXPONENT = -1 / 5  # -1 / (order of the embedded error estimate + 1)


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / math.sqrt(x.size)


class _Shot:
    """Dense output of one Dormand-Prince run.

    Step i serves [edges[i], edges[i + 1]] with the quartic
    pieces[i] = (t_old, h, y_old, Q); after a terminal event the last edge is
    the event time.  ok is False when the step size collapsed, and t, y are
    the last accepted state.
    """

    def __init__(self, t0: float, y0: np.ndarray):
        self.edges = [t0]
        self.pieces = []
        self.t_event = None
        self.ok = True
        self.t, self.y = t0, y0

    def __call__(self, t):
        """The solution at t, shape (n,) for a scalar and (n, len(t)) for an array.

        Each node is evaluated on its own step's piece, all nodes at once; a
        node on an edge belongs to the earlier step.
        """
        step = np.clip(np.searchsorted(self.edges, t) - 1, 0, len(self.pieces) - 1)
        return _quartic(t, *(np.array(part)[step] for part in zip(*self.pieces))).T


def _quartic(t, t_old, h, y_old, q):
    """The dense output at t of the piece (t_old, h, y_old, q), or of one piece per node."""
    x = np.expand_dims((t - t_old) / h, -1)
    power = x
    y = q[..., 0] * power
    for i in range(1, 4):
        power = power * x
        y += q[..., i] * power
    return np.expand_dims(h, -1) * y + y_old


def _dormand_prince(fun, t0: float, y0, t_bound: float, rtol: float, atol: float,
                    event=None) -> _Shot:
    """Integrate y' = fun(t, y) from t0 up to t_bound, keeping dense output.

    Each step's local error estimate is held below atol + rtol |y| in the RMS
    norm.  With an event function the run stops at the first step where
    event(t, y) falls from >= 0 to <= 0, and t_event is the first float where
    it is <= 0 on that step's interpolant.  A step shorter than 10 ulp of
    t ends the run with ok = False.
    """
    def f(t, y):
        return np.asarray(fun(t, y), dtype=float)

    t, y = t0, np.asarray(y0, dtype=float)
    shot = _Shot(t, y)
    if not t < t_bound:  # an event right at the far end leaves nothing to do
        return shot
    fy = f(t, y)
    g = event(t, y) if event is not None else None

    # starting step of Hairer, Norsett & Wanner (II.4) for an order-4 estimate
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    d2 = _rms((f(t + h0, y + h0 * fy) - fy) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound - t)

    k = np.empty((7, y.size))
    while t < t_bound:
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                shot.ok = False
                return shot
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            k[0] = fy
            for s in range(1, 6):
                k[s] = f(t + _DP_C[s] * h, y + np.dot(k[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _DP_B)
            f_new = k[-1] = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(k.T, _DP_E) * h / scale)
            if error < 1:
                factor = 10.0 if error == 0 else min(10.0, 0.9 * error**_ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error**_ERROR_EXPONENT)
            rejected = True
        shot.pieces.append((t, h, y, k.T.dot(_DP_P)))
        t, y, fy = t_new, y_new, f_new
        shot.t, shot.y = t, y
        if event is not None:
            g_new = event(t, y)
            if g >= 0 and g_new <= 0:
                piece = shot.pieces[-1]
                shot.t_event = _bisect(lambda s: event(s, _quartic(s, *piece)), piece[0], t)
                shot.edges.append(shot.t_event)
                return shot
            g = g_new
        shot.edges.append(t)
    return shot


def solve_eta(params: WaveParams, grid: Grid1D, sigma1: float | None = None) -> np.ndarray:
    """Amplitude defect eta sampled on the grid nodes.

    Integrates the second-order equation from the turning point (eta(0) = sigma1,
    eta'(0) = 0) outward until eta has halved, then follows the first-integral
    form eta' = -sqrt(a(eta)), in the logarithmic variable ln(eta), to the
    boundary; the solution is extended to negative sigma by evenness.  The
    hand-off keeps the shot stable: the second-order form would amplify
    roundoff exponentially over a long box, while the first-order form cannot
    resolve the turning point.  Raises EtaEscaped if the trajectory leaves
    [0, sigma1] beyond tolerance.
    """
    if sigma1 is None:
        sigma1 = find_sigma1(params)
    om, c2 = params.omega, params.c**2
    half = SWITCH_FRACTION * sigma1

    def second_order(_s, y):
        return (y[1], 2.0 * om * np.log1p(-y[0]) + (4.0 * om - c2) * y[0])

    def crossing(_s, y):
        return y[0] - half

    L = grid.half_length
    shot1 = _dormand_prince(
        second_order, 0.0, (sigma1, 0.0), L, _ODE_RTOL, _ODE_ATOL, event=crossing
    )
    if not shot1.ok:
        raise EtaEscaped(float(shot1.t), float(shot1.y[0]), sigma1)

    abs_nodes = np.abs(grid.nodes)
    if shot1.t_event is None:
        eta_abs = shot1(abs_nodes)[0]
    else:
        s_switch = float(shot1.t_event)
        eta_switch = float(shot1(s_switch)[0])

        # Past the turning point, track u = ln(eta): u' = -sqrt(b(e^u)) is a
        # slowly varying slope, so the integrator takes long steps, eta stays
        # positive by construction, and the deep tail never underflows inside
        # the equation (b(0+) = 2 omega - c^2 is finite).
        def log_first_order(_s, u):
            return (-np.sqrt(_b_scalar(min(float(np.exp(u[0])), sigma1), params)),)

        shot2 = _dormand_prince(
            log_first_order, s_switch, (np.log(eta_switch),), L, _ODE_RTOL, 1e-12
        )
        if not shot2.ok:
            raise EtaEscaped(float(shot2.t), float(np.exp(shot2.y[0])), sigma1)
        near = abs_nodes <= s_switch
        eta_abs = np.empty_like(abs_nodes)
        eta_abs[near] = shot1(abs_nodes[near])[0]
        eta_abs[~near] = np.exp(shot2(abs_nodes[~near])[0])

    slack = 1e-10 * sigma1
    if np.any(eta_abs < -slack) or np.any(eta_abs > sigma1 + slack):
        bad = int(np.argmax(np.abs(eta_abs - 0.5 * sigma1)))
        raise EtaEscaped(float(grid.nodes[bad]), float(eta_abs[bad]), sigma1)
    return np.clip(eta_abs, 0.0, sigma1)


def solve_theta(eta: np.ndarray, params: WaveParams, grid: Grid1D) -> np.ndarray:
    """Phase theta on the grid nodes, gauge theta(0) = 0.

    Cumulative trapezoid of theta' = c eta / (2 (1 - eta)); the grid node at
    sigma = 0 anchors the gauge, which makes theta odd when eta is even.
    """
    rate = params.c * eta / (2.0 * (1.0 - eta))
    panels = grid.spacing * (rate[1:] + rate[:-1]) / 2.0
    theta = np.concatenate(([0.0], np.cumsum(panels)))
    return theta - theta[grid.num_points // 2]


def assemble_wave(
    params: WaveParams,
    grid: Grid1D,
    sigma1: float,
    eta: np.ndarray,
    theta: np.ndarray,
) -> WaveProfile:
    """Assemble v = sqrt(1 - eta) e^{i theta} and its certified bounds.

    Raises BoundViolated if the amplitude defect leaves (0, sigma0) anywhere,
    the pointwise bound every admissible wave satisfies; the energy and the
    total phase jump are recorded on the profile.
    """
    if np.any(eta <= 0.0) or np.any(eta >= params.sigma0):
        raise BoundViolated(
            f"1 - |v|^2 must stay inside (0, {params.sigma0:.6g}); "
            f"range [{eta.min():.3g}, {eta.max():.3g}]"
        )
    rate = params.c * eta / (2.0 * (1.0 - eta))
    jump = quad_trapezoid(grid, rate)
    twist = jump / (2.0 * grid.half_length)

    values = np.sqrt(1.0 - eta) * np.exp(1j * theta)
    v = make_field(grid, values, background=np.exp(0.5j * jump))
    w = make_field(grid, values * np.exp(-1j * twist * grid.nodes), background=1.0 + 0.0j)

    dw = derivative(w).values
    kinetic = 0.5 * quad_trapezoid(grid, np.abs(dw + 1j * twist * w.values) ** 2)
    potential = 0.5 * params.omega * quad_trapezoid(grid, -eta - np.log1p(-eta))
    return WaveProfile(
        params=params,
        grid=grid,
        sigma1=sigma1,
        eta=eta,
        theta=theta,
        v=v,
        periodic_part=w,
        twist=twist,
        energy=kinetic + potential,
        phase_jump=jump,
    )


def build_wave(params: WaveParams, grid: Grid1D) -> WaveProfile:
    """Run the full pipeline: locate sigma1, integrate eta, integrate theta, assemble."""
    sigma1 = find_sigma1(params)
    eta = solve_eta(params, grid, sigma1)
    theta = solve_theta(eta, params, grid)
    return assemble_wave(params, grid, sigma1, eta, theta)


def _detwist(field: ComplexField):
    """Split a field with asymptotically constant phases into (w, spec, twist).

    twist is the linear phase rate lambda = jump / (2 L) with jump read off the
    two end nodes, w = field * e^{-i lambda sigma} is periodic up to the
    field's tail decay, and spec = fft(w - w(-L)) is its spectrum about the
    left-end value.  Exact for any lambda; the choice only controls how smooth
    w is across the wrap.  Raises ZeroModulus if an end node is zero or NaN,
    and NumericalGuard if any other node is not finite.
    """
    values = field.values
    low = np.abs(values[[0, -1]]).min()
    if not low > 0.0:  # a NaN fails too
        raise ZeroModulus(float(low), 0.0)
    if not np.isfinite(values).all():
        raise NumericalGuard("the field has a node that is not finite")
    jump = float(np.angle(values[-1] * np.conj(values[0])))
    twist = jump / (2.0 * field.grid.half_length)
    w = values * np.exp(-1j * twist * field.grid.nodes)
    spec = w - values[0] * np.exp(1j * twist * field.grid.half_length)
    return w, np.fft.fft(spec, out=spec), twist


def residual_tw(v: ComplexField, params: WaveParams) -> float:
    """Sup norm of the travelling-wave equation residual i c v' + v'' + omega (v / |v|^2)(1 - |v|^2).

    Taken in the de-twisted frame v = w e^{i lambda sigma}, where

        e^{-i lambda sigma} (i c v' + v'') = ifft(spec (-(c + 2 lambda) xi - xi^2))
                                             - lambda (c + lambda) w,

    so one FFT pair differentiates a profile with unequal asymptotic phases
    without wrap artifacts.  The profile must be bounded away from zero
    (ZeroModulus otherwise, also for a NaN), and a residual that is not finite
    raises NumericalGuard.
    """
    mod2 = np.abs(v.values) ** 2
    low = mod2.min()
    if not low > 0.0:  # a NaN minimum fails too
        raise ZeroModulus(float(np.sqrt(low)), 0.0)
    w, resid, twist = _detwist(v)
    xi = v.grid.wavenumbers
    resid *= xi * (-(params.c + 2.0 * twist) - xi)
    np.fft.ifft(resid, out=resid)
    # the terms without derivatives, the nonlinear one included, are multiples of w
    gain = np.reciprocal(mod2, out=mod2)
    gain -= 1.0
    gain *= params.omega
    gain -= twist * (params.c + twist)
    w *= gain
    resid += w
    sup = float(np.max(np.abs(resid)))
    if not math.isfinite(sup):
        raise NumericalGuard(f"travelling-wave residual is {sup}")
    return sup


def wronskian(v: ComplexField) -> np.ndarray:
    """Pointwise v1 v2' - v1' v2 = Im(conj(v) v'), spectrally.

    For a travelling wave this equals c eta / 2; computed through the
    de-twisted representation, where Im(conj(v) v') = Im(conj(w) (w' + i lambda w)).
    Raises ZeroModulus on a zero or NaN end node and NumericalGuard on any
    other node that is not finite.
    """
    w, spec, twist = _detwist(v)
    spec *= 1j * v.grid.wavenumbers
    dw = np.fft.ifft(spec, out=spec)
    return np.imag(np.conj(w) * (dw + 1j * twist * w))


def gp_soliton(params: WaveParams, grid: Grid1D) -> ComplexField:
    """The explicit Gross-Pitaevskii dark soliton with speed c and rotation omega.

    Modulus dips to |v_c(0)|^2 = c^2 / (2 omega); the phase is the closed
    arctan form, gauged to 0 at sigma = -infinity and carrying the full
    asymptotic jump on the right.  Used as a near-miss control: it does not
    solve the travelling-wave equation of the filament model.
    """
    om, c = params.omega, params.c
    root = np.sqrt(params.gap)
    sech2 = 1.0 / np.cosh(0.5 * root * grid.nodes) ** 2
    modulus = np.sqrt(1.0 - params.gap / (2.0 * om) * sech2)
    phase = np.arctan(
        (om * np.exp(root * grid.nodes) + c**2 - om) / (c * root)
    ) - np.arctan((c**2 - om) / (c * root))
    values = modulus * np.exp(1j * phase)
    background = np.exp(1j * (0.5 * np.pi - np.arctan((c**2 - om) / (c * root))))
    return make_field(grid, values, background=background)


def helix_filaments(
    profile: WaveProfile, count: int, nu: float, time: float = 0.0
) -> list[ComplexField]:
    """The count-filament helical solution built on a travelling wave.

    Filament j is e^{i time (omega - nu^2) + i nu sigma + 2 pi i j / count}
    v(sigma + time (c - 2 nu)); nu must be a grid wavenumber so the sampled
    fields wrap cleanly.  The profile shift acts on the periodic part
    spectrally.  Returned fields have background 0 (they oscillate at the
    ends).
    """
    if count < 1:
        raise DomainError(f"count = {count} must be at least 1")
    grid = profile.grid
    nu = lattice_wavenumber(grid, nu)
    shift = time * (profile.params.c - 2.0 * nu)
    w = shift_field(profile.periodic_part, -shift).values
    # the twist factor stays the left operand, which fixes the helix files'
    # last bits: numpy's complex product can round the imaginary part
    # differently when the operands swap
    base = np.exp(1j * profile.twist * (grid.nodes + shift))
    base *= w
    del w
    base *= np.exp(1j * time * (profile.params.omega - nu**2) + 1j * nu * grid.nodes)
    return [
        make_field(grid, base * np.exp(2j * np.pi * j / count), background=0.0j)
        for j in range(count)
    ]


def _wave_record(profile: WaveProfile) -> dict:
    """What a run reports of one wave: sigma1, energy, phase_jump, residual_tw
    and box_margin, the tail's decay length 1/sqrt(2 omega - c^2) over the
    half-box L (where it is not small, the box cuts the tail)."""
    return {
        "sigma1": profile.sigma1,
        "energy": profile.energy,
        "phase_jump": profile.phase_jump,
        "residual": residual_tw(profile.v, profile.params),
        "box_margin": 1.0 / (math.sqrt(profile.params.gap) * profile.grid.half_length),
    }


def sweep_waves(params_list: list[WaveParams], grid: Grid1D) -> list[dict]:
    """Build each wave and collect its c^2 and its ``_wave_record``.

    One profile is alive at a time: each is dropped once its record is made,
    before the next one is built.
    """
    return [{"c2": p.c**2, **_wave_record(build_wave(p, grid))} for p in params_list]
