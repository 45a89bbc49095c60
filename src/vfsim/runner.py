"""Scenario runners behind the command line interface.

Each runner builds its initial data from a validated ScenarioConfig,
integrates, writes the scenario's output files into a directory, and
fills the one RunReport that ``run`` creates; ``_end`` alone ends it with
a guard.  The report is also serialized to ``status.json`` so a run can be
inspected (and diffed) after the fact.

Guarantees shared by every scenario:

* deterministic output: the only random draws are those of
  ``numpy.random.default_rng(cfg.seed).uniform``, reproduced bit for bit
  without numpy.random by ``_pcg64.SeededUniform`` (pinned by
  ``tests/test_runner.py::TestSeededStream``); every CSV is written by
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
from dataclasses import asdict, dataclass, field, replace
from importlib import metadata
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import (BACKBONE_KINDS, SCENARIOS, SCHEMA, ScenarioConfig, _require_subsonic,
                     config_echo)
from .errors import (
    BoundaryContaminated,
    CollisionDetected,
    ConfigError,
    EnergyCapExceeded,
    VfsimError,
)
from .filaments import (
    FilamentState,
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
from .reduced import PhiState, evolve_bm_samples, write_energy_csv
from .symmetry import point_reflection
from .traveling_wave import (
    WaveParams,
    _wave_record,
    build_wave,
    helix_filaments,
    sweep_waves,
)

if TYPE_CHECKING:
    from ._pcg64 import SeededUniform

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
    config: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    acceptance: str = ""
    symmetry: str | None = None


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


def _base_report(cfg: ScenarioConfig) -> RunReport:
    acceptance = SCENARIOS[cfg.scenario].acceptance
    if isinstance(acceptance, dict):
        acceptance = acceptance.get(cfg.pert_kind, "")
    return RunReport(
        status="Completed",
        exit_code=EXIT_CODES["Completed"],
        scenario=cfg.scenario,
        config=config_echo(cfg),
        versions=_versions(),
        acceptance=acceptance,
    )


def _check_files(out_dir, names: list) -> None:
    for name in names:
        full = os.path.join(out_dir, name)
        if not os.path.isfile(full) or os.path.getsize(full) == 0:
            raise VfsimError(f"output file {name} missing or empty")


def write_status(out_dir, report: RunReport) -> None:
    with open(os.path.join(out_dir, "status.json"), "w", encoding="ascii", newline="\n") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# initial data builders
# ---------------------------------------------------------------------------

def build_backbone(cfg: ScenarioConfig) -> VortexConfig:
    """The point-vortex configuration described by the config section; the
    vertex count and centre of each kind come from ``config.BACKBONE_KINDS``."""
    if cfg.kind not in BACKBONE_KINDS:
        raise ConfigError("config.kind", f"unknown backbone kind {cfg.kind!r}")
    fixed, center = BACKBONE_KINDS[cfg.kind]
    n = cfg.N if fixed is None else fixed
    if not center:
        return polygon_config(n, cfg.R, cfg.gamma)
    gamma0 = cfg.gamma0
    if gamma0 is None:
        # a segment's centre is one more equal filament; a polygon's takes the
        # choice that freezes the backbone (omega = 0)
        gamma0 = cfg.gamma if cfg.kind == "segment" else -(n - 1) / 2.0 * cfg.gamma
    return polygon_config(n, cfg.R, cfg.gamma, center_circulation=gamma0)


@np.errstate(over="ignore")
def _random_bump(rng: SeededUniform, grid: Grid1D, amp: float,
                 width: float) -> np.ndarray:
    """A decaying complex profile: three modulated Gaussian bumps.

    The modulation wavenumber is kept inside each bump's own bandwidth
    (|k| <= 1/w) so the group transport over a long run stays bounded by
    2 gamma t / w and the tails cannot race to the domain ends.  An exponent
    past the float range gives exp(-inf) = 0, the bump's exact limit.
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


def _read_field_file(path, grid: Grid1D, count: int) -> list[np.ndarray]:
    """The count field arrays of the ``perturbation.path`` CSV, checked
    against the grid; any failure is a ConfigError on that path."""
    try:
        sigma, arrays = read_fields_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError("perturbation.path", f"cannot read: {exc}") from exc
    if len(sigma) != grid.num_points or abs(sigma[0] - grid.nodes[0]) > 1e-12:
        raise ConfigError(
            "perturbation.path",
            f"fields in {path} do not match the configured grid",
        )
    if len(arrays) != count:
        raise ConfigError("perturbation.path", f"{path} holds {len(arrays)} fields, not {count}")
    return arrays


@np.errstate(over="ignore")  # as in _random_bump: a too-large exponent gives 0
def _gaussian_profile(cfg: ScenarioConfig, grid: Grid1D) -> np.ndarray:
    return cfg.amp * np.exp(-(((grid.nodes - cfg.center) / cfg.width) ** 2))


def build_filament_state(cfg: ScenarioConfig, grid: Grid1D) -> FilamentState:
    """Initial perturbations for the full N-filament system.

    A scenario whose record holds a closed form (the collision's
    ``reduced.collision_state`` at t = 0) carries its profile as dilation
    data on the config's backbone.  Otherwise ``gaussian`` draws an
    independent random bump profile per filament (generic data, scale
    ``amp``); ``dilation`` is the shared-profile ansatz u_j = X_j (phi - 1)
    with phi a Gaussian bump on background 1 (tagged C_N on a regular
    polygon, see ``dilation_state``); ``parallelogram`` seeds the
    antisymmetric square pattern (g_a, g_b, -g_a, -g_b), tagged with the
    point reflection u_{j+2} = -u_j; ``file`` reads previously dumped fields.
    """
    vortex = build_backbone(cfg)
    closed_form = SCENARIOS[cfg.scenario].closed_form
    if closed_form is not None:
        return dilation_state(vortex, closed_form(grid).phi)
    if cfg.pert_kind in ("gaussian", "parallelogram"):
        # imported on use: only the seeded kinds compile the stream
        from ._pcg64 import SeededUniform

        rng = SeededUniform(cfg.seed)
        if cfg.pert_kind == "parallelogram":
            ga = _random_bump(rng, grid, cfg.amp, cfg.width)
            gb = _random_bump(rng, grid, cfg.amp, cfg.width)
            fields = [make_field(grid, v) for v in (ga, gb, -ga, -gb)]
            return filament_state(fields, vortex, symmetry=point_reflection())
        fields = [
            make_field(grid, _random_bump(rng, grid, cfg.amp, cfg.width))
            for _ in range(vortex.count)
        ]
        return filament_state(fields, vortex)
    if cfg.pert_kind == "dilation":
        phi = make_field(grid, 1.0 + _gaussian_profile(cfg, grid), background=1.0)
        return dilation_state(vortex, phi)
    if cfg.pert_kind == "file":
        arrays = _read_field_file(cfg.path, grid, vortex.count)
        fields = [make_field(grid, a) for a in arrays]
        return filament_state(fields, vortex)
    raise ConfigError("perturbation.kind", f"unknown kind {cfg.pert_kind!r}")


# ---------------------------------------------------------------------------
# per-scenario runners
# ---------------------------------------------------------------------------

def _run_point_vortex(cfg: ScenarioConfig, out_dir, report: RunReport) -> None:
    vortex = build_backbone(cfg)
    traj = integrate(vortex, cfg.T, cfg.dt)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    report.files.append("trajectory.csv")

    for key, series in traj.invariant_series.items():
        report.constants[f"drift_{key}"] = _drift(series)


def _run_stability(cfg: ScenarioConfig, out_dir, report: RunReport) -> None:
    rows = []
    for n in SCENARIOS[cfg.scenario].N_range:
        eigs, verdict = linear_stability(n, cfg.gamma)
        rows.append((n, float(np.max(eigs.real)), verdict))
    write_csv(os.path.join(out_dir, "stability.csv"),
              ["N", "max_re_lambda", "verdict"], list(zip(*rows)))
    report.files.append("stability.csv")

    for n, lam, verdict in rows:
        if n == cfg.N:
            report.constants.update(max_re_lambda=lam, verdict=verdict)


def _run_reduced(cfg: ScenarioConfig, out_dir, report: RunReport, dump_fields: bool) -> None:
    grid = make_grid(cfg.L, cfg.M)
    if cfg.pert_kind in ("gaussian", "dilation"):
        values = 1.0 + _gaussian_profile(cfg, grid)
        phi = make_field(grid, values.astype(np.complex128), background=1.0)
    elif cfg.pert_kind == "file":
        phi = make_field(grid, _read_field_file(cfg.path, grid, 1)[0], background=1.0)
    else:
        raise ConfigError("perturbation.kind",
                          f"{cfg.pert_kind!r} data needs the square scenario")
    samples = evolve_bm_samples(
        PhiState(phi=phi, omega=cfg.omega, time=0.0), cfg.T, cfg.dt,
        sample_every=cfg.sample_every,
        boundary_tol=cfg.boundary_tol,
    )
    rows, _ = _stream(out_dir, report, dump_fields,
                      (([st.phi], sample, None) for st, sample in samples),
                      write_energy_csv)
    report.constants.update(_energy_drift([s.E for s in rows]))
    report.constants["min_mod"] = min(s.min_mod for s in rows)


def _stream(out_dir, report: RunReport, dump_fields: bool, samples,
            write_rows) -> tuple[list, VfsimError | None]:
    """Consume a run's (fields, row, halt) samples, fields None for a halt
    that keeps the sample before it: dump each sample's fields as they
    arrive if asked, then drop them, and write the rows to energies.csv once
    with ``write_rows``, listed before the dumps.  Returns the rows and the
    last yielded halt; a guard raised after the first sample ends ``report``
    through ``_end`` (one raised before it propagates)."""
    rows, halt = [], None
    try:
        for fields, row, halt in samples:
            if fields is None:
                continue
            if dump_fields:
                name = f"fields_t{len(rows):04d}.csv"
                write_fields_csv(os.path.join(out_dir, name), fields[0].grid, fields)
                report.files.append(name)
            rows.append(row)
    except VfsimError as exc:
        if not rows:
            raise
        _end(report, exc, raised=True)
    write_rows(os.path.join(out_dir, "energies.csv"), rows)
    report.files.insert(0, "energies.csv")
    return rows, halt


def _drift(values) -> float:
    """max |Q(t) - Q(0)| over the samples Q of a run."""
    values = np.asarray(values)
    return float(np.max(np.abs(values - values[0])))


def _energy_drift(energies: list[float]) -> dict:
    """drift_E, and rel_drift_E = drift_E / |E(0)| unless E(0) = 0."""
    drift = {"drift_E": _drift(energies)}
    if energies[0] != 0.0:
        drift["rel_drift_E"] = drift["drift_E"] / abs(energies[0])
    return drift


def _end(report: RunReport, halt: VfsimError, raised: bool) -> None:
    """End ``report`` with the guard ``halt``: its status (NumericalGuard for
    a class not in EXIT_CODES) and exit code, ``constants.error`` if it was
    raised, and its hitting time.  A boundary halt is ``halt_time`` when
    raised (by a reduced run) and ``boundary_time`` when yielded (by a
    filament run)."""
    name = type(halt).__name__
    report.status = name if name in EXIT_CODES else "NumericalGuard"
    report.exit_code = EXIT_CODES[report.status]
    if raised:
        report.constants["error"] = str(halt)
    if isinstance(halt, CollisionDetected):
        report.hitting_times.update(
            collision_time=halt.time, sigma_star=halt.sigma, pair=list(halt.pair))
    elif isinstance(halt, EnergyCapExceeded):
        report.hitting_times["cap_time"] = halt.time
        report.constants["energy_cap"] = halt.cap
    elif isinstance(halt, BoundaryContaminated):
        report.hitting_times["halt_time" if raised else "boundary_time"] = halt.time


def _run_filaments(cfg: ScenarioConfig, out_dir, report: RunReport, dump_fields: bool) -> None:
    """The square and collision scenarios: ``evolve_samples`` on the state of
    ``build_filament_state`` with the config's time and guard settings."""
    state = build_filament_state(cfg, make_grid(cfg.L, cfg.M))
    samples = evolve_samples(
        state, cfg.T, cfg.dt,
        sample_every=cfg.sample_every,
        delta_min=cfg.delta_min,
        boundary_tol=cfg.boundary_tol,
        energy_cap_factor=cfg.energy_cap_factor,
    )
    reports, halt = _stream(out_dir, report, dump_fields,
                            ((None if snap is None else snap.u, rep, halt)
                             for snap, rep, halt in samples),
                            write_reports_csv)
    report.symmetry = getattr(state.symmetry, "name", None)
    if reports[0].vw_norms is not None:  # the plain four-filament class
        te0 = tilde_E0(state, reports[0])
        report.constants["tilde_E0"] = te0
        report.constants["predicted_T"] = predicted_T(te0, reports[0].pair_norm_max)
        report.constants["max_vw"] = max(max(r.vw_norms) for r in reports)
    # H and A are conserved by the filament flow for any data, E is not
    report.constants["drift_H"] = _drift([r.H for r in reports])
    report.constants["drift_A"] = _drift([r.A for r in reports])
    report.constants.update(_energy_drift([r.E for r in reports]))
    report.constants["min_sep"] = min(r.min_sep for r in reports)
    growth = growth_constants(reports)
    report.constants["pair_norm_C"] = growth.pair_norm_C
    if growth.vw_C is not None:
        report.constants["vw_C"] = growth.vw_C
    if halt is not None:
        _end(report, halt, raised=False)


# the most c2 values a sweep takes: each one solves a wave on the full grid
_MAX_SWEEP = 10_000


def _parse_sweep(text: str, omega: float) -> list:
    """Parse ``c2=START:STOP:COUNT`` into a list of c2 values.

    START and STOP must pass the ``config.c2`` parser and its subsonic rule
    and differ, and COUNT lie in [2, _MAX_SWEEP], before any value is made.
    """
    try:
        name, rest = text.split("=", 1)
        start_s, stop_s, count_s = rest.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ConfigError("sweep", f"expected c2=START:STOP:COUNT, got {text!r}")
    if name != "c2":
        raise ConfigError("sweep", f"only c2 sweeps are supported, got {name!r}")
    if not 2 <= count <= _MAX_SWEEP:
        raise ConfigError("sweep", f"COUNT must lie in [2, {_MAX_SWEEP}], got {count}")
    parse_c2 = SCHEMA["config"]["c2"][1]
    for value in (start, stop):
        _require_subsonic(parse_c2(value, "sweep"), omega, "sweep")
    if start == stop:
        raise ConfigError("sweep", "START and STOP must differ")
    return [float(v) for v in np.linspace(start, stop, count)]


def _run_traveling_wave(cfg: ScenarioConfig, out_dir, report: RunReport,
                        sweep: str | None, out_name: str | None) -> None:
    c2_values = None if sweep is None else _parse_sweep(sweep, cfg.omega)
    grid = make_grid(cfg.L, cfg.M)
    name = out_name or ("sweep.csv" if sweep else "profile.csv")

    if c2_values is None:
        profile = build_wave(WaveParams(omega=cfg.omega, c=math.sqrt(cfg.c2)), grid)
        v = profile.v.values
        write_csv(os.path.join(out_dir, name), ["sigma", "eta", "theta", "re_v", "im_v"],
                  [grid.nodes, profile.eta, profile.theta, v.real, v.imag])
        report.files.append(name)
        report.constants.update(_wave_record(profile))
        return

    params_list = [WaveParams(omega=cfg.omega, c=math.sqrt(c2)) for c2 in c2_values]
    rows = sweep_waves(params_list, grid)
    for row, c2 in zip(rows, c2_values):
        row["c2"] = c2  # the requested value: sqrt(c2)**2 may be an ulp off
    names = ["c2", "sigma1", "energy", "phase_jump", "residual"]
    write_csv(os.path.join(out_dir, name), names,
              [[row[key] for row in rows] for key in names])
    report.files.append(name)
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
    report.constants["max_box_margin"] = max(row["box_margin"] for row in rows)


def _run_helix(cfg: ScenarioConfig, out_dir, report: RunReport) -> None:
    grid = make_grid(cfg.L, cfg.M)
    profile = build_wave(WaveParams(omega=cfg.omega, c=math.sqrt(cfg.c2)), grid)
    # nearest lattice wavenumber to sqrt(omega), the stationary-helix pitch
    k_idx = max(round(math.sqrt(cfg.omega) * grid.half_length / math.pi), 1)
    nu = math.pi * k_idx / grid.half_length
    for name, t in (("helix_t0.csv", 0.0), ("helix_t1.csv", cfg.T)):
        # one time's fields are alive at a time, and none under residual_tw
        write_fields_csv(os.path.join(out_dir, name), grid,
                         helix_filaments(profile, cfg.N, nu, time=t))
        report.files.append(name)

    report.constants["nu"] = nu
    report.constants.update(_wave_record(profile))


# Each scenario's runner; it takes the run options its record lists as keywords.
_DISPATCH = {
    "point_vortex": _run_point_vortex,
    "stability": _run_stability,
    "reduced": _run_reduced,
    "square": _run_filaments,
    "collision": _run_filaments,
    "traveling_wave": _run_traveling_wave,
    "helix": _run_helix,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(cfg: ScenarioConfig, out_dir, dump_fields: bool = False,
        sweep: str | None = None, out_name: str | None = None) -> RunReport:
    """Run one scenario, write its files and status.json, return the report.

    The scenario runner fills the report made here, listing each file once
    written.  An option that the scenario's record does not list
    (``dump_fields`` on a helix, say) ends the run ConfigError before the
    runner starts.  A guard or error that reaches this function is converted
    into a fresh report with the matching status and exit code and the files
    written so far, rather than propagating; the caller turns
    ``report.exit_code`` into the process exit status.
    """
    os.makedirs(out_dir, exist_ok=True)
    report = _base_report(cfg)
    listed = SCENARIOS[cfg.scenario].options
    options = {"dump_fields": dump_fields, "sweep": sweep, "out_name": out_name}
    try:
        for name, value in options.items():
            if name not in listed and value not in (None, False):
                raise ConfigError(name, f"the {cfg.scenario} scenario does not read it")
        _DISPATCH[cfg.scenario](cfg, out_dir, report, **{name: options[name] for name in listed})
        _check_files(out_dir, report.files)
    except VfsimError as exc:
        report = replace(_base_report(cfg), files=report.files)
        _end(report, exc, raised=True)
    write_status(out_dir, report)
    return report
