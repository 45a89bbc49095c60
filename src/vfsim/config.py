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
path.  The reduced, traveling_wave and helix scenarios use the ``config``
section for their wave parameters (``omega``, ``c2``) instead of a backbone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError

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


def _reject_unknown(section: dict, known: tuple[str, ...], where: str) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"{where}.{key}" if where else key, "unknown key")


def _number(section: dict, where: str, key: str, default, positive=True):
    value = section.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}", f"expected a number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{where}.{key}", f"must be positive, got {value}")
    return float(value)


def _integer(section: dict, where: str, key: str, default, minimum=1) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}", f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _choice(section: dict, where: str, key: str, default: str,
            allowed: tuple[str, ...]) -> str:
    value = section.get(key, default)
    if value not in allowed:
        raise ConfigError(
            f"{where}.{key}", f"must be one of {allowed}, got {value!r}"
        )
    return value


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
    """Validate a parsed JSON object and fill scenario defaults."""
    if not isinstance(data, dict):
        raise ConfigError("", f"top level must be a JSON object, got {type(data).__name__}")
    _reject_unknown(
        data,
        ("scenario", "config", "grid", "perturbation", "time", "guards"),
        "",
    )
    tag = data.get("scenario", scenario)
    if tag is None:
        raise ConfigError("scenario", "missing (and no subcommand default)")
    if scenario is not None and tag != scenario:
        raise ConfigError(
            "scenario", f"file says {tag!r} but the subcommand implies {scenario!r}"
        )
    cfg = scenario_defaults(tag)
    cfg.raw = data

    sec = data.get("config", {})
    if not isinstance(sec, dict):
        raise ConfigError("config", "must be an object")
    _reject_unknown(
        sec, ("kind", "N", "R", "gamma", "gamma0", "omega", "c2"), "config"
    )
    cfg.kind = _choice(sec, "config", "kind", cfg.kind, BACKBONE_KINDS)
    if cfg.kind in _FIXED_N:
        cfg.N = _integer(sec, "config", "N", _FIXED_N[cfg.kind], minimum=2)
        if cfg.N != _FIXED_N[cfg.kind]:
            raise ConfigError(
                "config.N", f"kind {cfg.kind!r} fixes N={_FIXED_N[cfg.kind]}, got {cfg.N}"
            )
    else:
        cfg.N = _integer(sec, "config", "N", cfg.N, minimum=2)
    cfg.R = _number(sec, "config", "R", cfg.R)
    cfg.gamma = _number(sec, "config", "gamma", cfg.gamma)
    cfg.gamma0 = _number(sec, "config", "gamma0", cfg.gamma0, positive=False)
    cfg.omega = _number(sec, "config", "omega", cfg.omega)
    cfg.c2 = _number(sec, "config", "c2", cfg.c2)
    if tag in ("traveling_wave", "helix") and not cfg.c2 < 2.0 * cfg.omega:
        raise ConfigError(
            "config.c2",
            f"needs 0 < c2 < 2*omega (subsonic regime), got c2={cfg.c2}, "
            f"omega={cfg.omega}",
        )

    sec = data.get("grid", {})
    if not isinstance(sec, dict):
        raise ConfigError("grid", "must be an object")
    _reject_unknown(sec, ("L", "M"), "grid")
    cfg.L = _number(sec, "grid", "L", cfg.L)
    cfg.M = _integer(sec, "grid", "M", cfg.M, minimum=2)
    if cfg.M % 2 != 0:
        raise ConfigError("grid.M", f"must be even, got {cfg.M}")

    sec = data.get("perturbation", {})
    if not isinstance(sec, dict):
        raise ConfigError("perturbation", "must be an object")
    _reject_unknown(
        sec, ("kind", "amp", "width", "center", "seed", "path"), "perturbation"
    )
    cfg.pert_kind = _choice(
        sec, "perturbation", "kind", cfg.pert_kind, PERTURBATION_KINDS
    )
    cfg.amp = _number(sec, "perturbation", "amp", cfg.amp)
    cfg.width = _number(sec, "perturbation", "width", cfg.width)
    cfg.center = _number(sec, "perturbation", "center", cfg.center, positive=False)
    cfg.seed = _integer(sec, "perturbation", "seed", cfg.seed, minimum=0)
    cfg.path = sec.get("path", cfg.path)
    if cfg.pert_kind == "file" and not cfg.path:
        raise ConfigError("perturbation.path", "required for kind 'file'")
    if cfg.pert_kind == "parallelogram" and (cfg.kind != "square" or cfg.N != 4):
        raise ConfigError(
            "perturbation.kind",
            "parallelogram data needs the plain square backbone",
        )

    sec = data.get("time", {})
    if not isinstance(sec, dict):
        raise ConfigError("time", "must be an object")
    _reject_unknown(sec, ("T", "dt", "sample_every"), "time")
    cfg.T = _number(sec, "time", "T", cfg.T)
    cfg.dt = _number(sec, "time", "dt", cfg.dt)
    cfg.sample_every = _integer(sec, "time", "sample_every", cfg.sample_every)
    if cfg.dt > cfg.T:
        raise ConfigError("time.dt", f"dt={cfg.dt} exceeds T={cfg.T}")

    sec = data.get("guards", {})
    if not isinstance(sec, dict):
        raise ConfigError("guards", "must be an object")
    _reject_unknown(
        sec, ("delta_min", "energy_cap_factor", "boundary_tol"), "guards"
    )
    cfg.delta_min = _number(sec, "guards", "delta_min", cfg.delta_min)
    cfg.energy_cap_factor = _number(
        sec, "guards", "energy_cap_factor", cfg.energy_cap_factor
    )
    cfg.boundary_tol = _number(sec, "guards", "boundary_tol", cfg.boundary_tol)

    return cfg


def parse_config(path, scenario: str | None = None) -> ScenarioConfig:
    """Read and validate a JSON scenario file.

    ``scenario`` (from the subcommand) fills the tag when the file omits it
    and must agree with the file when both are present.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return parse_config_dict(data, scenario)
