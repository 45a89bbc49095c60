"""Scenario configuration: JSON ingestion, validation and the scenario table.

A scenario file is a JSON object with a ``scenario`` tag and up to five
sections::

    {"scenario": "square",
     "config":       {"kind": "square", "N": 4, "R": 1.0, "gamma": 1.0},
     "grid":         {"L": 128.0, "M": 4096},
     "perturbation": {"kind": "gaussian", "amp": 0.05, "width": 1.0,
                      "seed": 0},
     "time":         {"T": 1.0, "dt": 1e-3, "sample_every": 10},
     "guards":       {"delta_min": 1e-3, "energy_cap_factor": 10.0}}

Every key is optional (scenario presets fill the rest), unknown keys are
rejected, and every violation raises ConfigError carrying the dotted field
path.  Every number must be finite, except the two guard levels
``energy_cap_factor`` and ``boundary_tol``, where +inf turns the guard off,
and the scales ``R``, ``gamma``, ``omega``, ``c2``, ``L`` and ``width`` lie
in [1e-100, 1e100] and ``|gamma0|`` <= 1e100.  The reduced, traveling_wave
and helix scenarios use the ``config`` section for their wave parameters
(``omega``, ``c2``) instead of a backbone.
Each scenario's own rules (the collision's closed-form profile, which
refuses any ``perturbation`` value off its preset's, say) live in its
``SCENARIOS`` record, with its preset, CLI flags and run options.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .errors import ConfigError, DomainError
from .grid import DEFAULT_BOUNDARY_TOL, MAX_POINTS, MIN_POINTS
from .filaments import DELTA_MIN, ENERGY_CAP_FACTOR
from .reduced import collision_state
from .traveling_wave import WaveParams


class Scenario(NamedTuple):
    """One scenario's record: every rule that depends on its name."""

    preset: dict  # the ScenarioConfig values it changes
    acceptance: str | dict  # the acceptance test of its run (by perturbation kind)
    options: tuple[str, ...] = ()  # the runner.run keywords the run reads
    flags: tuple[str, ...] = ()  # the file keys a CLI flag sets
    closed_form: Callable | None = None  # grid -> a state whose phi replaces the perturbation
    N_range: range | None = None  # the N the run admits
    tables: Callable | None = None  # (cfg, n, pairs) -> {field that sets it: table size}
    subsonic: bool = False  # the travelling-wave window on c2
    max_steps: int | None = None  # the steps a stored path may hold


# The scenario table.  The collision preset pins the exact synchronized-
# collapse setup: the centered square with opposite center circulation
# (stationary backbone), the analytic dilation data, a grid just wide enough
# for the Gaussian profile, and a step small enough to stay faithful until
# the collision threshold (2 percent of the backbone spacing) is crossed.
# A table is pair rows or helix fields of M points, or point-vortex terms; n counts a centre.
SCENARIOS = {
    "point_vortex": Scenario(
        dict(T=10.0, dt=1e-3), "test_01_point_vortex_invariants", max_steps=MAX_POINTS,
        tables=lambda cfg, n, pairs: {"config.N": n * pairs,
                                      "time.T": cfg.T / cfg.dt * max(n, pairs)}),
    "stability": Scenario(dict(kind="polygon", N=8), "test_02_polygon_stability_threshold",
                          N_range=range(3, 11)),
    "reduced": Scenario(dict(T=5.0), "test_05_reduced_energy_conservation",
                        options=("dump_fields",)),
    "square": Scenario(
        {}, {"gaussian": "test_09_energy_cap_window", "dilation": "test_10_product_ansatz",
             "parallelogram": "test_08_parallelogram_preset", "file": "test_07_square_identities"},
        options=("dump_fields",), flags=("perturbation.seed",),
        tables=lambda cfg, n, pairs: {"config.N": pairs * cfg.M}),
    "collision": Scenario(
        dict(kind="polygon_center", N=4, gamma0=-1.5, pert_kind="dilation",
             L=20.0, M=512, T=1.05, dt=2.5e-4, sample_every=1000,
             delta_min=0.02, boundary_tol=1e-6),
        "test_04_collision_scenario", options=("dump_fields",), flags=("perturbation.seed",),
        closed_form=collision_state, tables=lambda cfg, n, pairs: {"config.N": pairs * cfg.M}),
    "traveling_wave": Scenario(dict(L=400.0, M=65536), "test_06_traveling_waves",
                               options=("sweep", "out_name"), subsonic=True,
                               flags=("config.omega", "config.c2", "grid.L", "grid.M")),
    # the helices sit on an N-gon
    "helix": Scenario(dict(L=400.0, M=65536, kind="polygon", N=3), "test_06_traveling_waves",
                      subsonic=True, tables=lambda cfg, n, pairs: {"config.N": cfg.N * cfg.M}),
}

# Each backbone kind: the vertex count it fixes (None: config.N sets it) and
# whether a centre filament joins the vertices.
BACKBONE_KINDS = {
    "square": (4, False),
    "polygon": (None, False),
    "polygon_center": (None, True),
    "segment": (2, True),
    "hexagon": (6, False),
}
PERTURBATION_KINDS = ("gaussian", "dilation", "parallelogram", "file")


def _reject_unknown(section: dict, known, where: str) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"{where}.{key}" if where else key, "unknown key")


def _number(positive: bool = True, finite: bool = True, optional: bool = False,
            scale: tuple[float, float] | None = None):
    def parse(value, where: str) -> float | None:
        if optional and value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(where, f"expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(where, "must be finite, got an integer beyond float range") from None
        if math.isnan(value) or (finite and math.isinf(value)):
            raise ConfigError(where, f"must be finite, got {value}")
        if positive and not value > 0:
            raise ConfigError(where, f"must be positive, got {value}")
        if scale is not None and not scale[0] <= abs(value) <= scale[1]:
            raise ConfigError(where, f"|value| must lie in [{scale[0]:g}, {scale[1]:g}], got {value}")
        return value
    return parse


def _path(value, where: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(where, f"expected a string, got {value!r}")
    return value


def _integer(minimum: int, maximum: int | None = None):
    def parse(value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(where, f"expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(where, f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(where, f"must be <= {maximum}, got {value}")
        return value
    return parse


def _choice(allowed: tuple[str, ...]):
    def parse(value, where: str) -> str:
        if value not in allowed:
            raise ConfigError(where, f"must be one of {allowed}, got {value!r}")
        return value
    return parse


_POSITIVE = _number()
# Backbone, wave, box and bump scales: at 1e-100 and 1e100 every scenario still
# ends with its own status, while 1e-200 and 1e200 end in a division by zero, an
# overflow, NaN grid nodes or an SVD that does not converge.
_SCALE = _number(scale=(1e-100, 1e100))


def _setting(key: str, parse, default):
    """A ScenarioConfig field, read from the file key ``section.key`` by ``parse``."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass
class ScenarioConfig:
    """Validated scenario description with every default filled in."""

    scenario: str
    # backbone
    kind: str = _setting("config.kind", _choice(tuple(BACKBONE_KINDS)), "square")
    # the N(N - 1)/2 filament pairs stay within MAX_POINTS rows
    N: int = _setting("config.N", _integer(2, (1 + math.isqrt(1 + 8 * MAX_POINTS)) // 2), 4)
    R: float = _setting("config.R", _SCALE, 1.0)
    gamma: float = _setting("config.gamma", _SCALE, 1.0)
    gamma0: float | None = _setting(
        "config.gamma0", _number(positive=False, optional=True, scale=(0.0, 1e100)), None)
    # wave parameters (reduced / traveling_wave / helix)
    omega: float = _setting("config.omega", _SCALE, 1.0)
    c2: float = _setting("config.c2", _SCALE, 1.9)
    # grid
    L: float = _setting("grid.L", _SCALE, 128.0)
    M: int = _setting("grid.M", _integer(MIN_POINTS, MAX_POINTS), 4096)
    # perturbation
    pert_kind: str = _setting("perturbation.kind", _choice(PERTURBATION_KINDS), "gaussian")
    amp: float = _setting("perturbation.amp", _POSITIVE, 0.05)
    width: float = _setting("perturbation.width", _SCALE, 1.0)
    center: float = _setting("perturbation.center", _number(positive=False), 0.0)
    seed: int = _setting("perturbation.seed", _integer(0), 0)
    path: str | None = _setting("perturbation.path", _path, None)
    # time
    T: float = _setting("time.T", _POSITIVE, 1.0)
    dt: float = _setting("time.dt", _POSITIVE, 1e-3)
    sample_every: int = _setting("time.sample_every", _integer(1), 10)
    # guards, at the solvers' own levels; +inf turns a guard off (see evolve_samples)
    delta_min: float = _setting("guards.delta_min", _POSITIVE, DELTA_MIN)
    energy_cap_factor: float = _setting(
        "guards.energy_cap_factor", _number(finite=False), ENERGY_CAP_FACTOR)
    boundary_tol: float = _setting(
        "guards.boundary_tol", _number(finite=False), DEFAULT_BOUNDARY_TOL)
    # bookkeeping
    raw: dict = field(default_factory=dict)


def _schema() -> dict:
    """The run-input schema, section -> key -> (ScenarioConfig attribute,
    parser) in field order: parse_config_dict reads files through it and
    config_echo writes it back."""
    schema = {}
    for setting in fields(ScenarioConfig):
        if "key" in setting.metadata:
            section, key = setting.metadata["key"].split(".")
            schema.setdefault(section, {})[key] = (setting.name, setting.metadata["parse"])
    return schema


SCHEMA = _schema()


def scenario_defaults(scenario: str) -> ScenarioConfig:
    """The preset configuration each scenario starts from."""
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {tuple(SCENARIOS)}, got {scenario!r}")
    return ScenarioConfig(scenario=scenario, **SCENARIOS[scenario].preset)


def parse_config_dict(data: dict, scenario: str | None = None) -> ScenarioConfig:
    """Validate a parsed JSON object and fill scenario defaults.

    Each key goes through its SCHEMA parser; the rules that tie fields
    together, the scenario's own from its record, are checked after that.
    """
    if not isinstance(data, dict):
        raise ConfigError("", f"top level must be a JSON object, got {type(data).__name__}")
    _reject_unknown(data, ("scenario", *SCHEMA), "")
    tag = data.get("scenario", scenario)
    if tag is None:
        raise ConfigError("scenario", "missing (and no subcommand default)")
    if scenario is not None and tag != scenario:
        raise ConfigError(
            "scenario", f"file says {tag!r} but the subcommand implies {scenario!r}"
        )
    cfg = scenario_defaults(tag)
    record = SCENARIOS[tag]
    cfg.raw = data
    for name, keys in SCHEMA.items():
        sec = data.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigError(name, "must be an object")
        _reject_unknown(sec, keys, name)
        for key, value in sec.items():
            attr, parse = keys[key]
            setattr(cfg, attr, parse(value, f"{name}.{key}"))

    if record.closed_form is not None:
        # the run carries its closed-form profile; its echo restates the
        # preset's perturbation, which reads back unchanged
        preset = scenario_defaults(tag)
        for key, (attr, _) in SCHEMA["perturbation"].items():
            if getattr(cfg, attr) != getattr(preset, attr):
                raise ConfigError("perturbation", f"the {tag} scenario runs the closed-form "
                                  f"{tag} profile and takes no perturbation, got "
                                  f"{key}={getattr(cfg, attr)!r}")
    fixed, center = BACKBONE_KINDS[cfg.kind]
    if fixed is not None:
        if "N" not in data.get("config", {}):
            cfg.N = fixed
        elif cfg.N != fixed:
            raise ConfigError("config.N", f"kind {cfg.kind!r} fixes N={fixed}, got {cfg.N}")
    if record.N_range and cfg.N not in record.N_range:
        raise ConfigError("config.N", f"the {tag} sweep covers N = {record.N_range[0]}.."
                          f"{record.N_range[-1]}, got {cfg.N}")
    if record.subsonic:
        _require_subsonic(cfg.c2, cfg.omega, "config.c2")
    if cfg.M % 2 != 0:
        raise ConfigError("grid.M", f"must be even, got {cfg.M}")
    if cfg.pert_kind == "file" and not cfg.path:
        raise ConfigError("perturbation.path", "required for kind 'file'")
    if cfg.pert_kind == "parallelogram" and (cfg.kind != "square" or cfg.N != 4):
        raise ConfigError(
            "perturbation.kind",
            "parallelogram data needs the plain square backbone",
        )
    if cfg.dt > cfg.T:
        raise ConfigError("time.dt", f"dt={cfg.dt} exceeds T={cfg.T}")
    if record.max_steps is not None and not cfg.T / cfg.dt <= record.max_steps:
        raise ConfigError("time.T", f"T/dt = {cfg.T / cfg.dt:.6g} steps, more than the "
                          f"{record.max_steps} a {tag} path may store")
    # every table stays within the largest the grid bound admits, the
    # square's 6 pair rows at M = MAX_POINTS
    n = cfg.N + center
    pairs = n * (n - 1) // 2
    for where, size in (record.tables(cfg, n, pairs) if record.tables else {}).items():
        if not size <= 6 * MAX_POINTS:
            raise ConfigError(where, f"N = {cfg.N}, M = {cfg.M} and T/dt = {cfg.T / cfg.dt:.6g} "
                              f"make a {tag} table of {size:.6g} entries; it must be <= "
                              f"{6 * MAX_POINTS}")
    return cfg


def _require_subsonic(c2: float, omega: float, where: str) -> None:
    """The travelling-wave window on a parsed c2, 1.8*omega < c2 < 2*omega:
    subsonic, and the slow-speed gap 2*omega - c2 that
    ``traveling_wave.WaveParams`` admits for the wave speed sqrt(c2)."""
    if not c2 < 2.0 * omega:
        raise ConfigError(
            where,
            f"needs 0 < c2 < 2*omega (subsonic regime), got c2={c2}, omega={omega}",
        )
    try:
        WaveParams(omega=omega, c=math.sqrt(c2))
    except DomainError as exc:
        raise ConfigError(where, f"c2={c2}, omega={omega}: {exc}") from None


def config_echo(cfg: ScenarioConfig) -> dict:
    """The config with every default filled in, laid out as a scenario file."""
    echo = {
        name: {key: getattr(cfg, attr) for key, (attr, _) in keys.items()}
        for name, keys in SCHEMA.items()
    }
    echo["scenario"] = cfg.scenario
    return echo


def read_config_json(path):
    """The JSON object of a scenario file, unvalidated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an overlong integer
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc


def parse_config(path, scenario: str | None = None) -> ScenarioConfig:
    """Read and validate a JSON scenario file.

    ``scenario`` (from the subcommand) fills the tag when the file omits it
    and must agree with the file when both are present.
    """
    return parse_config_dict(read_config_json(path), scenario)
