"""Scenario runners behind the command line interface.

Each runner builds its initial data from a validated ScenarioConfig,
integrates, writes the scenario's output files into a directory, and
returns a RunReport.  The report is also serialized to ``status.json``
so a run can be inspected (and diffed) after the fact.

Guarantees shared by every scenario:

* deterministic output: all randomness flows through
  ``numpy.random.default_rng(cfg.seed)``, every CSV is written by
  ``grid.write_csv`` (ASCII, ``\\n`` line ends, floats with 17 significant
  digits), and nothing time- or host-dependent enters the files, so a
  rerun with the same config is byte identical;
* on success every file listed in the report exists and is non-empty;
* a guard exception that halts a run maps, by its class name, to a stable
  status string and exit code (see EXIT_CODES) instead of a traceback.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
from dataclasses import dataclass, field
from importlib import metadata

import numpy as np

from . import __version__
from .config import ScenarioConfig, config_echo
from .errors import (
    BoundaryContaminated,
    CollisionDetected,
    ConfigError,
    EnergyCapExceeded,
    VfsimError,
)
from .filaments import (
    FilamentState,
    collision_initial_state,
    dilation_state,
    evolve_samples,
    filament_state,
    growth_constants,
    predicted_T,
    tilde_E0,
    write_reports_csv,
)
from .grid import Grid1D, make_field, make_grid, read_fields_csv, write_csv, write_fields_csv
from .point_vortex import (
    VortexConfig,
    integrate,
    linear_stability,
    polygon_config,
    write_trajectory_csv,
)
from .reduced import PhiState, evolve_bm_samples, lattice_wavenumber, write_energy_csv
from .symmetry import point_reflection
from .traveling_wave import (
    WaveParams,
    build_wave,
    helix_filaments,
    residual_tw,
    sweep_waves,
)

__all__ = [
    "RunReport",
    "EXIT_CODES",
    "run",
    "build_backbone",
    "build_filament_state",
]


# Exit code for each terminal status.  A guard exception is looked up by
# its class name; those not listed here (modulus floor, escaped amplitude,
# step-size refusals) are grouped under NumericalGuard.  EnergyCapExceeded
# is a halt that evolve_samples yields, never raises.
EXIT_CODES = {
    "Completed": 0,
    "ConfigError": 2,
    "CollisionDetected": 3,
    "EnergyCapExceeded": 4,
    "BoundaryContaminated": 5,
    "NumericalGuard": 6,
}

# Which acceptance test each scenario (or scenario + perturbation)
# exercises; recorded in the report so a run points back at the check
# that pins its expected behaviour.
_ACCEPTANCE = {
    "point_vortex": "test_01_point_vortex_invariants",
    "stability": "test_02_polygon_stability_threshold",
    "reduced": "test_05_reduced_energy_conservation",
    "collision": "test_04_collision_scenario",
    "traveling_wave": "test_06_traveling_waves",
    "helix": "test_06_traveling_waves",
    ("square", "gaussian"): "test_09_energy_cap_window",
    ("square", "dilation"): "test_10_product_ansatz",
    ("square", "parallelogram"): "test_08_parallelogram_preset",
    ("square", "file"): "test_07_square_identities",
}


@dataclass
class RunReport:
    """Outcome of one scenario run.

    ``hitting_times`` records when guards fired (collision time, cap
    crossing); ``constants`` holds fitted or measured quantities (drifts,
    growth constants, slopes) that are reported but only ever asserted
    through their exponents, never their prefactors.  ``symmetry`` names
    the symmetry tag of a filament run's initial state (e.g. "C4+center"),
    so the report says whether the symmetry-reduced engine ran; it is None
    for untagged data and for the other scenarios.
    """

    status: str
    exit_code: int
    scenario: str
    hitting_times: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    acceptance: str = ""
    symmetry: str | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "exit_code": self.exit_code,
            "scenario": self.scenario,
            "hitting_times": self.hitting_times,
            "constants": self.constants,
            "files": self.files,
            "config": self.config_echo,
            "versions": self.versions,
            "acceptance": self.acceptance,
            "symmetry": self.symmetry,
        }


@functools.cache
def _scipy_version() -> str | None:
    # No run imports scipy: its installed version is read from the metadata,
    # once per process (the lookup scans the import path).
    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "vfsim": __version__,
    }


def _acceptance_for(cfg: ScenarioConfig) -> str:
    key = (cfg.scenario, cfg.pert_kind)
    if key in _ACCEPTANCE:
        return _ACCEPTANCE[key]
    return _ACCEPTANCE.get(cfg.scenario, "")


def _base_report(cfg: ScenarioConfig, status: str,
                 state: FilamentState | None = None) -> RunReport:
    symmetry = state.symmetry if state is not None else None
    return RunReport(
        status=status,
        exit_code=EXIT_CODES[status],
        scenario=cfg.scenario,
        config_echo=config_echo(cfg),
        versions=_versions(),
        acceptance=_acceptance_for(cfg),
        symmetry=symmetry.name if symmetry is not None else None,
    )


def _check_files(out_dir, names: list) -> None:
    for name in names:
        full = os.path.join(out_dir, name)
        if not os.path.isfile(full) or os.path.getsize(full) == 0:
            raise VfsimError(f"output file {name} missing or empty")


def write_status(out_dir, report: RunReport) -> str:
    path = os.path.join(out_dir, "status.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# initial data builders
# ---------------------------------------------------------------------------

def build_backbone(cfg: ScenarioConfig) -> VortexConfig:
    """The point-vortex configuration described by the config section."""
    if cfg.kind == "square":
        return polygon_config(4, cfg.R, cfg.gamma)
    if cfg.kind == "polygon":
        return polygon_config(cfg.N, cfg.R, cfg.gamma)
    if cfg.kind == "hexagon":
        return polygon_config(6, cfg.R, cfg.gamma)
    if cfg.kind == "polygon_center":
        gamma0 = cfg.gamma0
        if gamma0 is None:
            # the choice that freezes the backbone (omega = 0)
            gamma0 = -(cfg.N - 1) / 2.0 * cfg.gamma
        return polygon_config(cfg.N, cfg.R, cfg.gamma, center_circulation=gamma0)
    if cfg.kind == "segment":
        gamma0 = cfg.gamma if cfg.gamma0 is None else cfg.gamma0
        return polygon_config(2, cfg.R, cfg.gamma, center_circulation=gamma0)
    raise ConfigError("config.kind", f"unknown backbone kind {cfg.kind!r}")


def _random_bump(rng: np.random.Generator, grid: Grid1D, amp: float,
                 width: float) -> np.ndarray:
    """A decaying complex profile: three modulated Gaussian bumps.

    The modulation wavenumber is kept inside each bump's own bandwidth
    (|k| <= 1/w) so the group transport over a long run stays bounded by
    2 gamma t / w and the tails cannot race to the domain ends.
    """
    vals = np.zeros(grid.num_points, dtype=np.complex128)
    for _ in range(3):
        a = amp * rng.uniform(0.3, 1.0)
        w = width * rng.uniform(0.7, 1.6)
        c = rng.uniform(-2.0, 2.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        k = rng.uniform(-1.0, 1.0) / w
        vals += (
            a
            * np.exp(1j * phase)
            * np.exp(-(((grid.nodes - c) / w) ** 2) + 1j * k * grid.nodes)
        )
    return vals


def _read_field_file(path, grid: Grid1D) -> list[np.ndarray]:
    """The field arrays of the ``perturbation.path`` CSV, checked against
    the grid; any failure is a ConfigError on that path."""
    try:
        sigma, arrays = read_fields_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError("perturbation.path", f"cannot read: {exc}") from exc
    if len(sigma) != grid.num_points or abs(sigma[0] - grid.nodes[0]) > 1e-12:
        raise ConfigError(
            "perturbation.path",
            f"fields in {path} do not match the configured grid",
        )
    return arrays


def _gaussian_profile(cfg: ScenarioConfig, grid: Grid1D) -> np.ndarray:
    return cfg.amp * np.exp(-(((grid.nodes - cfg.center) / cfg.width) ** 2))


def build_filament_state(cfg: ScenarioConfig, grid: Grid1D) -> FilamentState:
    """Initial perturbations for the full N-filament system.

    ``gaussian`` draws an independent random bump profile per filament
    (generic data, scale ``amp``); ``dilation`` is the shared-profile
    ansatz u_j = X_j (phi - 1) with phi a Gaussian bump on background 1
    (tagged C_N on a regular polygon, see ``dilation_state``);
    ``parallelogram`` seeds the antisymmetric square pattern
    (g_a, g_b, -g_a, -g_b), tagged with the point reflection
    u_{j+2} = -u_j; ``file`` reads previously dumped fields.
    """
    vortex = build_backbone(cfg)
    if cfg.pert_kind == "gaussian":
        rng = np.random.default_rng(cfg.seed)
        fields = [
            make_field(grid, _random_bump(rng, grid, cfg.amp, cfg.width))
            for _ in range(vortex.count)
        ]
        return filament_state(fields, vortex)
    if cfg.pert_kind == "dilation":
        phi = make_field(grid, 1.0 + _gaussian_profile(cfg, grid), background=1.0)
        return dilation_state(vortex, phi)
    if cfg.pert_kind == "parallelogram":
        rng = np.random.default_rng(cfg.seed)
        ga = _random_bump(rng, grid, cfg.amp, cfg.width)
        gb = _random_bump(rng, grid, cfg.amp, cfg.width)
        fields = [make_field(grid, v) for v in (ga, gb, -ga, -gb)]
        return filament_state(fields, vortex, symmetry=point_reflection())
    if cfg.pert_kind == "file":
        fields = [make_field(grid, a) for a in _read_field_file(cfg.path, grid)]
        return filament_state(fields, vortex)
    raise ConfigError("perturbation.kind", f"unknown kind {cfg.pert_kind!r}")


# ---------------------------------------------------------------------------
# per-scenario runners
# ---------------------------------------------------------------------------

def _run_point_vortex(cfg: ScenarioConfig, out_dir, dump_fields: bool) -> RunReport:
    vortex = build_backbone(cfg)
    traj = integrate(vortex, cfg.T, cfg.dt)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)

    report = _base_report(cfg, "Completed")
    inv = traj.invariant_series
    for key in ("center_of_inertia", "angular_momentum", "log_sum", "quad_sum"):
        series = inv[key]
        drift = float(np.max(np.abs(series - series[0])))
        report.constants[f"drift_{key}"] = drift
    report.files = ["trajectory.csv"]
    return report


def _run_stability(cfg: ScenarioConfig, out_dir, dump_fields: bool) -> RunReport:
    rows = []
    for n in range(3, 11):
        eigs, verdict = linear_stability(n, cfg.gamma)
        rows.append((n, float(np.max(eigs.real)), verdict))
    write_csv(os.path.join(out_dir, "stability.csv"),
              ["N", "max_re_lambda", "verdict"], list(zip(*rows)))

    report = _base_report(cfg, "Completed")
    for n, lam, verdict in rows:
        if n == cfg.N:
            report.constants["max_re_lambda"] = lam
            report.constants["verdict"] = verdict
    report.files = ["stability.csv"]
    return report


def _run_reduced(cfg: ScenarioConfig, out_dir, dump_fields: bool) -> RunReport:
    grid = make_grid(cfg.L, cfg.M)
    if cfg.pert_kind in ("gaussian", "dilation"):
        values = 1.0 + _gaussian_profile(cfg, grid)
        phi = make_field(grid, values.astype(np.complex128), background=1.0)
    elif cfg.pert_kind == "file":
        arrays = _read_field_file(cfg.path, grid)
        if len(arrays) != 1:
            raise ConfigError(
                "perturbation.path", f"{cfg.path} does not hold a single profile"
            )
        phi = make_field(grid, arrays[0], background=1.0)
    else:
        raise ConfigError(
            "perturbation.kind",
            f"{cfg.pert_kind!r} data needs the square scenario",
        )
    state = PhiState(phi=phi, omega=cfg.omega, time=0.0)
    samples, files = [], ["energies.csv"]
    try:
        for st, sample in evolve_bm_samples(
            state, cfg.T, cfg.dt,
            sample_every=cfg.sample_every,
            boundary_tol=cfg.boundary_tol,
        ):
            if dump_fields:
                files.append(_dump_fields(out_dir, len(samples), grid, [st.phi]))
            samples.append(sample)
    except VfsimError as exc:
        if not samples:
            raise
        # a raised guard keeps the samples before it
        write_energy_csv(os.path.join(out_dir, "energies.csv"), samples)
        report = _error_report(cfg, exc)
        report.files = files
        return report
    write_energy_csv(os.path.join(out_dir, "energies.csv"), samples)

    report = _base_report(cfg, "Completed")
    e0 = samples[0].E
    drift = max(abs(s.E - e0) for s in samples)
    report.constants["drift_E"] = drift
    if e0 != 0.0:
        report.constants["rel_drift_E"] = drift / abs(e0)
    report.constants["min_mod"] = min(s.min_mod for s in samples)
    report.files = files
    return report


def _dump_fields(out_dir, index: int, grid: Grid1D, fields) -> str:
    """Write sample ``index``'s fields to fields_tNNNN.csv; return the name."""
    name = f"fields_t{index:04d}.csv"
    write_fields_csv(os.path.join(out_dir, name), grid, fields)
    return name


def _stream_filaments(cfg: ScenarioConfig, state: FilamentState, out_dir,
                      dump_fields: bool, **guards):
    """Run ``evolve_samples`` on the config's time and guard settings,
    writing each snapshot's field dump as it arrives, then dropping it;
    then write energies.csv.  Returns (reports, halt, files)."""
    reports, files, halt = [], ["energies.csv"], None
    for snap, rep, halt in evolve_samples(
        state, cfg.T, cfg.dt,
        sample_every=cfg.sample_every,
        delta_min=cfg.delta_min,
        boundary_tol=cfg.boundary_tol,
        **guards,
    ):
        if snap is None:
            continue
        if dump_fields:
            files.append(_dump_fields(out_dir, len(reports), snap.grid, list(snap.u)))
        reports.append(rep)
    write_reports_csv(os.path.join(out_dir, "energies.csv"), reports)
    return reports, halt, files


def _conserved_drifts(reports) -> dict:
    """drift_H and drift_A: max |Q(t) - Q(0)| over the sampled reports of
    the two quantities the filament flow conserves for any data."""
    first = reports[0]
    return {
        "drift_H": max(abs(r.H - first.H) for r in reports),
        "drift_A": max(abs(r.A - first.A) for r in reports),
    }


def _record_collision(report: RunReport, time: float, sigma: float,
                      pair: tuple[int, int]) -> None:
    """Write a collision halt into the report's hitting times."""
    report.hitting_times.update(collision_time=time, sigma_star=sigma, pair=list(pair))


def _record_halt(report: RunReport, halt: VfsimError | None) -> None:
    """Write the hitting time of the guard that ended a filament run."""
    if isinstance(halt, CollisionDetected):
        _record_collision(report, halt.time, halt.sigma, halt.pair)
    elif isinstance(halt, EnergyCapExceeded):
        report.hitting_times["cap_time"] = halt.time
        report.constants["energy_cap"] = halt.cap
    elif isinstance(halt, BoundaryContaminated):
        report.hitting_times["boundary_time"] = halt.time


def _halt_status(halt: VfsimError | None) -> str:
    return "Completed" if halt is None else type(halt).__name__


def _run_square(cfg: ScenarioConfig, out_dir, dump_fields: bool) -> RunReport:
    grid = make_grid(cfg.L, cfg.M)
    state = build_filament_state(cfg, grid)
    reports, halt, files = _stream_filaments(
        cfg, state, out_dir, dump_fields,
        energy_cap_factor=cfg.energy_cap_factor,
    )

    report = _base_report(cfg, _halt_status(halt), state)
    if state.count == 4 and not state.cfg.has_center:
        te0 = tilde_E0(state, reports[0])
        report.constants["tilde_E0"] = te0
        report.constants["predicted_T"] = predicted_T(te0, reports[0].pair_norm_max)
    report.constants.update(_conserved_drifts(reports))
    e0 = reports[0].E
    drift = max(abs(r.E - e0) for r in reports)
    report.constants["drift_E"] = drift
    if e0 != 0.0:
        report.constants["rel_drift_E"] = drift / abs(e0)
    if all(r.vw_norms is not None for r in reports):
        report.constants["max_vw"] = max(max(r.vw_norms) for r in reports)
    growth = growth_constants(reports)
    report.constants["pair_norm_C"] = growth.pair_norm_C
    if growth.vw_C is not None:
        report.constants["vw_C"] = growth.vw_C
    _record_halt(report, halt)
    report.files = files
    return report


def _run_collision(cfg: ScenarioConfig, out_dir, dump_fields: bool) -> RunReport:
    grid = make_grid(cfg.L, cfg.M)
    state = collision_initial_state(cfg.N, grid)
    reports, halt, files = _stream_filaments(cfg, state, out_dir, dump_fields)

    report = _base_report(cfg, _halt_status(halt), state)
    report.constants.update(_conserved_drifts(reports))
    report.constants["min_sep"] = min(r.min_sep for r in reports)
    _record_halt(report, halt)
    report.files = files
    return report


def _parse_sweep(text: str) -> list:
    """Parse ``c2=START:STOP:COUNT`` into a list of c2 values."""
    try:
        name, rest = text.split("=", 1)
        start_s, stop_s, count_s = rest.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ConfigError("sweep", f"expected c2=START:STOP:COUNT, got {text!r}")
    if name != "c2":
        raise ConfigError("sweep", f"only c2 sweeps are supported, got {name!r}")
    if count < 2:
        raise ConfigError("sweep", "sweep needs at least 2 points")
    return [float(v) for v in np.linspace(start, stop, count)]


def _run_traveling_wave(cfg: ScenarioConfig, out_dir, dump_fields: bool,
                        sweep: str | None = None,
                        out_name: str | None = None) -> RunReport:
    grid = make_grid(cfg.L, cfg.M)
    report = _base_report(cfg, "Completed")
    name = out_name or ("sweep.csv" if sweep else "profile.csv")

    if sweep is None:
        params = WaveParams(omega=cfg.omega, c=math.sqrt(cfg.c2))
        profile = build_wave(params, grid)
        v = profile.v.values
        write_csv(os.path.join(out_dir, name), ["sigma", "eta", "theta", "re_v", "im_v"],
                  [grid.nodes, profile.eta, profile.theta, v.real, v.imag])
        report.constants["sigma1"] = profile.sigma1
        report.constants["phase_jump"] = profile.phase_jump
        report.constants["energy"] = profile.energy
        report.constants["residual"] = residual_tw(profile.v, params)
        report.files = [name]
        return report

    c2_values = _parse_sweep(sweep)
    params_list = [WaveParams(omega=cfg.omega, c=math.sqrt(c2)) for c2 in c2_values]
    rows = sweep_waves(params_list, grid)
    names = ["c2", "sigma1", "energy", "phase_jump", "residual"]
    write_csv(os.path.join(out_dir, name), names,
              [[row[key] for row in rows] for key in names])
    # fitted exponents against the subsonic gap 2 omega - c^2: the wave
    # energy closes the gap like gap^(3/2), the tail onset sigma1 like gap
    gaps = np.array([2.0 * cfg.omega - row["c2"] for row in rows])
    log_gaps = np.log(gaps)
    energy = np.array([row["energy"] for row in rows])
    sig1 = np.array([row["sigma1"] for row in rows])
    report.constants["energy_slope"] = float(
        np.polyfit(log_gaps, np.log(energy), 1)[0]
    )
    report.constants["sigma1_slope"] = float(
        np.polyfit(log_gaps, np.log(sig1), 1)[0]
    )
    report.constants["max_residual"] = max(row["residual"] for row in rows)
    report.files = [name]
    return report


def _run_helix(cfg: ScenarioConfig, out_dir, dump_fields: bool) -> RunReport:
    grid = make_grid(cfg.L, cfg.M)
    params = WaveParams(omega=cfg.omega, c=math.sqrt(cfg.c2))
    profile = build_wave(params, grid)
    # nearest lattice wavenumber to sqrt(omega), the stationary-helix pitch
    k_idx = max(round(math.sqrt(cfg.omega) * grid.half_length / math.pi), 1)
    nu = lattice_wavenumber(grid, math.pi * k_idx / grid.half_length)
    files = ["helix_t0.csv", "helix_t1.csv"]
    for name, t in zip(files, (0.0, cfg.T)):
        # one time's fields are alive at a time, and none under residual_tw
        write_fields_csv(os.path.join(out_dir, name), grid,
                         helix_filaments(profile, cfg.N, nu, time=t))

    report = _base_report(cfg, "Completed")
    report.constants["nu"] = nu
    report.constants["sigma1"] = profile.sigma1
    report.constants["phase_jump"] = profile.phase_jump
    report.constants["residual"] = residual_tw(profile.v, params)
    report.files = files
    return report


_DISPATCH = {
    "point_vortex": _run_point_vortex,
    "stability": _run_stability,
    "reduced": _run_reduced,
    "square": _run_square,
    "collision": _run_collision,
    "helix": _run_helix,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _error_report(cfg: ScenarioConfig, exc: VfsimError) -> RunReport:
    """The report of a run that a raised guard or error ended."""
    name = type(exc).__name__
    report = _base_report(cfg, name if name in EXIT_CODES else "NumericalGuard")
    report.constants["error"] = str(exc)
    if isinstance(exc, CollisionDetected):
        _record_collision(report, exc.time, exc.sigma, exc.pair)
    elif isinstance(exc, BoundaryContaminated):
        report.hitting_times["halt_time"] = exc.time
    return report


def run(cfg: ScenarioConfig, out_dir, dump_fields: bool = False,
        sweep: str | None = None, out_name: str | None = None) -> RunReport:
    """Run one scenario, write its files and status.json, return the report.

    Guard exceptions are converted into a report with the matching status
    and exit code rather than propagating; the caller turns
    ``report.exit_code`` into the process exit status.
    """
    os.makedirs(out_dir, exist_ok=True)
    try:
        if cfg.scenario == "traveling_wave":
            report = _run_traveling_wave(
                cfg, out_dir, dump_fields, sweep=sweep, out_name=out_name,
            )
        else:
            report = _DISPATCH[cfg.scenario](cfg, out_dir, dump_fields)
        _check_files(out_dir, report.files)
    except VfsimError as exc:
        report = _error_report(cfg, exc)
    write_status(out_dir, report)
    return report
