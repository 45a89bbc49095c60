"""Tests for scenario configuration parsing and validation.

Covered here:
  * defaults: the minimal square config fills L=128, M=4096, dt=1e-3;
    each scenario preset pins its own grid, step and guard values,
  * the scenario tag: subcommand fill-in, mismatch rejection, unknown
    scenario names,
  * strictness: unknown keys at the top level and inside every section
    are rejected with the dotted path of the offender,
  * field validation: evenness of M, positivity, integer and boolean
    type checks, the subsonic speed window for wave scenarios, fixed-N
    backbones, perturbation cross-requirements (file path, square-only
    parallelogram), dt versus T,
  * file handling: JSON round trip, unreadable paths, invalid JSON,
  * the schema: the empty file is each scenario's preset, every number
    is finite except the two guard levels (+inf turns them off), the
    backbone and wave scales, the half length L and the bump width lie
    in [1e-100, 1e100], M has
    make_grid's lower bound, a collision refuses any perturbation value
    other than its preset's, the echo reads back as the same config, every
    field but scenario and raw is a file key that round-trips, and the
    guard defaults are the solvers' own levels.
"""

import dataclasses
import json
import math

import pytest

from vfsim import filaments, grid
from vfsim.config import (
    SCENARIOS,
    SCHEMA,
    ScenarioConfig,
    config_echo,
    parse_config,
    parse_config_dict,
    scenario_defaults,
)
from vfsim.errors import ConfigError
from vfsim.grid import MAX_POINTS, MIN_POINTS


# each setting: a scenario, and an admissible value off that scenario's preset
SETTINGS = {
    "kind": ("square", "polygon"),
    "N": ("stability", 5),
    "R": ("square", 2.0),
    "gamma": ("square", 0.5),
    "gamma0": ("square", -1.5),
    "omega": ("reduced", 1.5),
    "c2": ("traveling_wave", 1.95),
    "L": ("square", 64.0),
    "M": ("square", 2048),
    "pert_kind": ("square", "dilation"),
    "amp": ("square", 0.1),
    "width": ("square", 2.0),
    "center": ("square", -1.0),
    "seed": ("square", 7),
    "path": ("square", "fields.csv"),
    "T": ("square", 2.0),
    "dt": ("square", 5e-4),
    "sample_every": ("square", 5),
    "delta_min": ("square", 0.01),
    "energy_cap_factor": ("square", 20.0),
    "boundary_tol": ("square", 1e-8),
}


def err(data, scenario=None) -> ConfigError:
    with pytest.raises(ConfigError) as info:
        parse_config_dict(data, scenario)
    return info.value


class TestDefaults:
    def test_minimal_square(self):
        cfg = parse_config_dict({"scenario": "square"})
        assert cfg.scenario == "square"
        assert cfg.kind == "square" and cfg.N == 4
        assert cfg.L == 128.0 and cfg.M == 4096
        assert cfg.dt == 1e-3 and cfg.T == 1.0
        assert cfg.pert_kind == "gaussian" and cfg.amp == 0.05
        assert cfg.energy_cap_factor == 10.0

    def test_collision_preset(self):
        cfg = scenario_defaults("collision")
        assert cfg.kind == "polygon_center" and cfg.N == 4
        assert cfg.gamma0 == -1.5
        assert cfg.pert_kind == "dilation"
        assert (cfg.L, cfg.M) == (20.0, 512)
        assert (cfg.T, cfg.dt, cfg.sample_every) == (1.05, 2.5e-4, 1000)
        assert cfg.delta_min == 0.02
        assert cfg.boundary_tol == 1e-6

    def test_wave_presets_use_long_domain(self):
        for scenario in ("traveling_wave", "helix"):
            cfg = scenario_defaults(scenario)
            assert (cfg.L, cfg.M) == (400.0, 65536)
        assert scenario_defaults("helix").N == 3

    def test_helix_config_matches_preset(self):
        cfg = parse_config_dict({"scenario": "helix"})
        preset = scenario_defaults("helix")
        assert (cfg.kind, cfg.N) == (preset.kind, preset.N) == ("polygon", 3)

    def test_stability_preset(self):
        cfg = scenario_defaults("stability")
        assert cfg.kind == "polygon" and cfg.N == 8

    def test_point_vortex_preset(self):
        cfg = scenario_defaults("point_vortex")
        assert cfg.T == 10.0 and cfg.dt == 1e-3

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError) as info:
            scenario_defaults("vortex_sheet")
        assert info.value.field == "scenario"


class TestScenarioTag:
    def test_subcommand_fills_tag(self):
        cfg = parse_config_dict({}, scenario="reduced")
        assert cfg.scenario == "reduced" and cfg.T == 5.0

    def test_mismatch_rejected(self):
        e = err({"scenario": "square"}, scenario="collision")
        assert e.field == "scenario"
        assert "square" in e.reason and "collision" in e.reason

    def test_missing_everywhere(self):
        assert err({}).field == "scenario"

    def test_agreeing_tags_fine(self):
        cfg = parse_config_dict({"scenario": "square"}, scenario="square")
        assert cfg.scenario == "square"


class TestStrictness:
    def test_unknown_top_level_key(self):
        assert err({"scenario": "square", "output": {}}).field == "output"

    @pytest.mark.parametrize(
        "section,key",
        [
            ("config", "radius"),
            ("grid", "dx"),
            ("perturbation", "amplitude"),
            ("time", "steps"),
            ("guards", "cap"),
        ],
    )
    def test_unknown_section_key(self, section, key):
        e = err({"scenario": "square", section: {key: 1}})
        assert e.field == f"{section}.{key}"
        assert "unknown" in e.reason

    def test_section_must_be_object(self):
        assert err({"scenario": "square", "grid": [128, 4096]}).field == "grid"


class TestFieldValidation:
    def test_odd_m_rejected(self):
        e = err({"scenario": "square", "grid": {"M": 4095}})
        assert e.field == "grid.M"
        assert "even" in e.reason

    def test_supersonic_speed_rejected_for_waves(self):
        e = err({"scenario": "traveling_wave", "config": {"c2": 2.5}})
        assert e.field == "config.c2"
        assert "subsonic" in e.reason
        # the same speed is not consulted by non-wave scenarios
        cfg = parse_config_dict({"scenario": "square", "config": {"c2": 2.5}})
        assert cfg.c2 == 2.5

    def test_sonic_boundary_rejected(self):
        e = err({"scenario": "helix", "config": {"c2": 2.0, "omega": 1.0}})
        assert e.field == "config.c2"

    @pytest.mark.parametrize("kind,n", [("square", 4), ("segment", 2), ("hexagon", 6)])
    def test_fixed_backbone_sizes(self, kind, n):
        cfg = parse_config_dict({"scenario": "square", "config": {"kind": kind}})
        assert cfg.N == n
        e = err({"scenario": "square", "config": {"kind": kind, "N": n + 1}})
        assert e.field == "config.N"

    def test_polygon_n_free(self):
        cfg = parse_config_dict(
            {"scenario": "square", "config": {"kind": "polygon", "N": 7}}
        )
        assert cfg.N == 7

    @pytest.mark.parametrize(
        "scenario,config,largest",
        [("square", {"kind": "polygon"}, 4), ("collision", {}, 3), ("helix", {}, 6)],
        ids=["square", "collision-with-centre", "helix"],
    )
    def test_table_bound_at_the_largest_grid(self, scenario, config, largest):
        """At M = MAX_POINTS a run may hold the square's 6 pair rows: 4
        filaments, 3 around a centre, or 6 helix fields."""
        data = {"scenario": scenario, "grid": {"M": MAX_POINTS}}
        ok = parse_config_dict({**data, "config": {**config, "N": largest}})
        assert ok.N == largest and ok.M == MAX_POINTS
        e = err({**data, "config": {**config, "N": largest + 1}})
        assert e.field == "config.N" and "<=" in e.reason

    @pytest.mark.parametrize("outside,edge", [(2, 3), (11, 10)])
    def test_stability_n_is_the_sweeps(self, outside, edge):
        """The stability run sweeps N = 3..10 and reports the config's N."""
        assert err({"scenario": "stability", "config": {"N": outside}}).field == "config.N"
        assert parse_config_dict({"scenario": "stability", "config": {"N": edge}}).N == edge

    def test_unknown_backbone_kind(self):
        assert err({"scenario": "square", "config": {"kind": "star"}}).field == "config.kind"

    def test_negative_gamma0_allowed(self):
        cfg = parse_config_dict(
            {
                "scenario": "square",
                "config": {"kind": "polygon_center", "N": 4, "gamma0": -1.5},
            }
        )
        assert cfg.gamma0 == -1.5

    def test_file_kind_needs_path(self):
        e = err({"scenario": "square", "perturbation": {"kind": "file"}})
        assert e.field == "perturbation.path"

    def test_parallelogram_needs_square(self):
        e = err(
            {
                "scenario": "square",
                "config": {"kind": "polygon", "N": 5},
                "perturbation": {"kind": "parallelogram"},
            }
        )
        assert e.field == "perturbation.kind"

    def test_negative_dt_rejected(self):
        e = err({"scenario": "square", "time": {"dt": -1e-3}})
        assert e.field == "time.dt"

    def test_dt_exceeding_t_rejected(self):
        e = err({"scenario": "square", "time": {"T": 0.5, "dt": 1.0}})
        assert e.field == "time.dt"

    def test_boolean_not_a_number(self):
        e = err({"scenario": "square", "grid": {"L": True}})
        assert e.field == "grid.L"

    def test_non_integer_m(self):
        e = err({"scenario": "square", "grid": {"M": 2048.5}})
        assert e.field == "grid.M"

    def test_negative_seed_rejected(self):
        e = err({"scenario": "square", "perturbation": {"seed": -1}})
        assert e.field == "perturbation.seed"

    def test_zero_guard_rejected(self):
        e = err({"scenario": "square", "guards": {"delta_min": 0}})
        assert e.field == "guards.delta_min"


class TestFileHandling:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "scenario": "reduced",
                    "grid": {"L": 40, "M": 2048},
                    "time": {"T": 2.0, "dt": 1e-3},
                }
            )
        )
        cfg = parse_config(path, scenario="reduced")
        assert cfg.L == 40.0 and cfg.M == 2048 and cfg.T == 2.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(tmp_path / "nope.json")
        assert "cannot read" in info.value.reason

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert "invalid JSON" in info.value.reason

    def test_raw_dict_kept(self):
        data = {"scenario": "square", "grid": {"L": 30, "M": 1024}}
        cfg = parse_config_dict(data)
        assert cfg.raw is data


class TestDataclass:
    def test_plain_construction_usable(self):
        cfg = ScenarioConfig(scenario="square")
        assert cfg.kind == "square"
        assert cfg.sample_every == 10


class TestSchema:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_empty_file_is_the_preset(self, scenario):
        parsed = dataclasses.replace(parse_config_dict({}, scenario), raw={})
        assert parsed == scenario_defaults(scenario)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("grid", "L", math.inf),
            ("config", "R", math.inf),
            ("config", "gamma0", math.nan),
            ("perturbation", "amp", math.inf),
            ("perturbation", "center", math.nan),
            ("perturbation", "center", -math.inf),
            ("time", "T", math.inf),
            ("guards", "delta_min", math.inf),
            ("guards", "energy_cap_factor", math.nan),
            ("config", "R", 10**400),
        ],
    )
    def test_numbers_must_be_finite(self, section, key, value):
        e = err({"scenario": "square", section: {key: value}})
        assert e.field == f"{section}.{key}"
        assert "finite" in e.reason

    @pytest.mark.parametrize("key", ["energy_cap_factor", "boundary_tol"])
    def test_infinite_guard_level_turns_the_guard_off(self, key):
        cfg = parse_config_dict({"scenario": "square", "guards": {key: math.inf}})
        assert getattr(cfg, key) == math.inf
        assert err({"scenario": "square", "guards": {key: -math.inf}}).field == f"guards.{key}"

    def test_m_lower_bound_is_make_grids(self):
        e = err({"scenario": "square", "grid": {"M": MIN_POINTS - 2}})
        assert e.field == "grid.M" and str(MIN_POINTS) in e.reason
        assert parse_config_dict({"scenario": "square", "grid": {"M": MIN_POINTS}}).M == MIN_POINTS

    def test_m_upper_bound_is_make_grids(self):
        e = err({"scenario": "square", "grid": {"M": 2**40}})
        assert e.field == "grid.M" and str(MAX_POINTS) in e.reason
        assert parse_config_dict({"scenario": "square", "grid": {"M": MAX_POINTS}}).M == MAX_POINTS

    @pytest.mark.parametrize(
        "key,value",
        [("R", 1e-101), ("R", 2e100), ("gamma", 1e-300), ("gamma", 1e308),
         ("omega", 1e-200), ("omega", 1e300), ("c2", 1e101), ("gamma0", -1.5e100)],
    )
    def test_scales_outside_their_bounds(self, key, value):
        e = err({"scenario": "square", "config": {key: value}})
        assert e.field == f"config.{key}" and "1e+100" in e.reason

    def test_scales_at_their_bounds(self):
        for value in (1e-100, 1e100):
            config = {"R": value, "gamma": value, "omega": value, "c2": value}
            cfg = parse_config_dict({"scenario": "square", "config": config})
            assert (cfg.R, cfg.gamma, cfg.omega, cfg.c2) == (value,) * 4
        for gamma0 in (0.0, -1e100, 1e100):
            assert parse_config_dict({"config": {"gamma0": gamma0}}, "collision").gamma0 == gamma0

    @pytest.mark.parametrize(
        "section,key,value",
        [("grid", "L", 1e101), ("grid", "L", 1e200), ("grid", "L", 1e308),
         ("grid", "L", 9e-101), ("perturbation", "width", 1e-101),
         ("perturbation", "width", 1e-300), ("perturbation", "width", 2e100)],
    )
    def test_grid_and_width_scales_outside_their_bounds(self, section, key, value):
        e = err({"scenario": "square", section: {key: value}})
        assert e.field == f"{section}.{key}" and "1e+100" in e.reason

    def test_grid_and_width_scales_at_their_bounds(self):
        for value in (1e-100, 1e100):
            cfg = parse_config_dict({"grid": {"L": value}, "perturbation": {"width": value}},
                                    "square")
            assert (cfg.L, cfg.width) == (value, value)

    def test_null_only_where_the_default_is(self):
        assert err({"scenario": "square", "config": {"R": None}}).field == "config.R"
        assert err({"scenario": "square", "perturbation": {"path": 3}}).field == "perturbation.path"

    @pytest.mark.parametrize(
        "key,value",
        [("kind", "gaussian"), ("amp", 0.1), ("width", 2.0), ("center", 1.0),
         ("seed", 1), ("path", "fields.csv")],
    )
    def test_collision_takes_no_perturbation(self, key, value):
        e = err({"scenario": "collision", "perturbation": {key: value}})
        assert e.field == "perturbation" and key in e.reason

    def test_echo_reads_back_as_the_same_config(self):
        echo = config_echo(scenario_defaults("collision"))
        again = dataclasses.replace(parse_config_dict(echo), raw={})
        assert again == scenario_defaults("collision")

    def test_every_setting_round_trips(self):
        """Each ScenarioConfig field but scenario and raw is a file key: a
        file that sets only it to a value off its preset holds that value,
        and its echo reads back as the same config."""
        where = {attr: (section, key)
                 for section, keys in SCHEMA.items() for key, (attr, _) in keys.items()}
        settings = [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert settings[0] == "scenario" and settings[-1] == "raw"
        assert list(where) == settings[1:-1] == list(SETTINGS)
        for attr, (scenario, value) in SETTINGS.items():
            section, key = where[attr]
            cfg = parse_config_dict({"scenario": scenario, section: {key: value}})
            assert getattr(cfg, attr) == value != getattr(scenario_defaults(scenario), attr)
            again = parse_config_dict(config_echo(cfg))
            assert dataclasses.replace(again, raw={}) == dataclasses.replace(cfg, raw={})

    def test_guard_defaults_are_the_solvers(self):
        cfg = scenario_defaults("square")
        assert (cfg.delta_min, cfg.energy_cap_factor, cfg.boundary_tol) == (
            filaments.DELTA_MIN, filaments.ENERGY_CAP_FACTOR, grid.DEFAULT_BOUNDARY_TOL)

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert "invalid JSON" in info.value.reason
