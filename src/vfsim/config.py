"""Scenario configuration: JSON ingestion, validation and presets.

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
``energy_cap_factor`` and ``boundary_tol``, where +inf turns the guard off.  The reduced, traveling_wave and helix scenarios use the ``config``
section for their wave parameters (``omega``, ``c2``) instead of a backbone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .grid import MAX_POINTS, MIN_POINTS

SCENARIOS = (
    "point_vortex",
    "stability",
    "reduced",
    "square",
    "collision",
    "traveling_wave",
    "helix",
)

BACKBONE_KINDS = ("square", "polygon", "polygon_center", "segment", "hexagon")
PERTURBATION_KINDS = ("gaussian", "dilation", "parallelogram", "file")

# filament count implied by the fixed-shape kinds
_FIXED_N = {"square": 4, "segment": 2, "hexagon": 6}


@dataclass
class ScenarioConfig:
    """Validated scenario description with every default filled in."""

    scenario: str
    # backbone
    kind: str = "square"
    N: int = 4
    R: float = 1.0
    gamma: float = 1.0
    gamma0: float | None = None
    # wave parameters (reduced / traveling_wave / helix)
    omega: float = 1.0
    c2: float = 1.9
    # grid
    L: float = 128.0
    M: int = 4096
    # perturbation
    pert_kind: str = "gaussian"
    amp: float = 0.05
    width: float = 1.0
    center: float = 0.0
    seed: int = 0
    path: str | None = None
    # time
    T: float = 1.0
    dt: float = 1e-3
    sample_every: int = 10
    # guards
    delta_min: float = 1e-3
    energy_cap_factor: float = 10.0
    boundary_tol: float = 1e-10
    # bookkeeping
    raw: dict = field(default_factory=dict)


def _reject_unknown(section: dict, known, where: str) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"{where}.{key}" if where else key, "unknown key")


def _number(positive: bool = True, finite: bool = True, optional: bool = False):
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
_REAL = _number(positive=False)

# The run-input schema: section -> key -> (ScenarioConfig attribute, parser).
# parse_config_dict reads files through it and config_echo writes it back.
# The guard levels may be +inf, which turns the guard off (see evolve_samples).
SCHEMA = {
    "config": {
        "kind": ("kind", _choice(BACKBONE_KINDS)),
        "N": ("N", _integer(2)),
        "R": ("R", _POSITIVE),
        "gamma": ("gamma", _POSITIVE),
        "gamma0": ("gamma0", _number(positive=False, optional=True)),
        "omega": ("omega", _POSITIVE),
        "c2": ("c2", _POSITIVE),
    },
    "grid": {
        "L": ("L", _POSITIVE),
        "M": ("M", _integer(MIN_POINTS, MAX_POINTS)),
    },
    "perturbation": {
        "kind": ("pert_kind", _choice(PERTURBATION_KINDS)),
        "amp": ("amp", _POSITIVE),
        "width": ("width", _POSITIVE),
        "center": ("center", _REAL),
        "seed": ("seed", _integer(0)),
        "path": ("path", _path),
    },
    "time": {
        "T": ("T", _POSITIVE),
        "dt": ("dt", _POSITIVE),
        "sample_every": ("sample_every", _integer(1)),
    },
    "guards": {
        "delta_min": ("delta_min", _POSITIVE),
        "energy_cap_factor": ("energy_cap_factor", _number(finite=False)),
        "boundary_tol": ("boundary_tol", _number(finite=False)),
    },
}


def scenario_defaults(scenario: str) -> ScenarioConfig:
    """The preset configuration each scenario starts from.

    The collision preset pins the exact synchronized-collapse setup: the
    centered square with opposite center circulation (stationary backbone),
    the analytic dilation data, a grid just wide enough for the Gaussian
    profile, and a step small enough to stay faithful until the collision
    threshold (2 percent of the backbone spacing) is crossed.
    """
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {SCENARIOS}, got {scenario!r}")
    cfg = ScenarioConfig(scenario=scenario)
    if scenario == "point_vortex":
        cfg.T, cfg.dt = 10.0, 1e-3
    elif scenario == "stability":
        cfg.kind, cfg.N = "polygon", 8
    elif scenario == "reduced":
        cfg.T = 5.0
    elif scenario == "collision":
        cfg.kind = "polygon_center"
        cfg.N = 4
        cfg.gamma0 = -1.5
        cfg.pert_kind = "dilation"
        cfg.L, cfg.M = 20.0, 512
        cfg.T, cfg.dt = 1.05, 2.5e-4
        cfg.sample_every = 1000
        cfg.delta_min = 0.02
        cfg.boundary_tol = 1e-6
    elif scenario == "traveling_wave":
        cfg.L, cfg.M = 400.0, 65536
    elif scenario == "helix":
        cfg.L, cfg.M = 400.0, 65536
        cfg.kind, cfg.N = "polygon", 3  # the helices sit on an N-gon
    return cfg


def parse_config_dict(data: dict, scenario: str | None = None) -> ScenarioConfig:
    """Validate a parsed JSON object and fill scenario defaults.

    Each key goes through its SCHEMA parser; the rules that tie fields
    together are checked after that pass.
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
    cfg.raw = data
    for name, keys in SCHEMA.items():
        sec = data.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigError(name, "must be an object")
        _reject_unknown(sec, keys, name)
        for key, value in sec.items():
            attr, parse = keys[key]
            setattr(cfg, attr, parse(value, f"{name}.{key}"))

    if cfg.kind in _FIXED_N:
        fixed = _FIXED_N[cfg.kind]
        if "N" not in data.get("config", {}):
            cfg.N = fixed
        elif cfg.N != fixed:
            raise ConfigError("config.N", f"kind {cfg.kind!r} fixes N={fixed}, got {cfg.N}")
    if tag in ("traveling_wave", "helix") and not cfg.c2 < 2.0 * cfg.omega:
        raise ConfigError(
            "config.c2",
            f"needs 0 < c2 < 2*omega (subsonic regime), got c2={cfg.c2}, "
            f"omega={cfg.omega}",
        )
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
    return cfg


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
