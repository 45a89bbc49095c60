"""Tests for the scenario runners and the command line front end.

Covered here:
  * builders: backbone kinds (including default center circulations, the
    count of a fixed-shape kind whatever the field N, each kind's
    ``BACKBONE_KINDS`` row, and a hand-built unknown kind),
    perturbation kinds with determinism, antisymmetry and file round
    trip, grid mismatch rejection, the collision preset's state equal to
    ``collision_initial_state``,
  * the seeded stream: ``SeededUniform`` draws numpy's
    ``default_rng(seed).uniform`` bit for bit, the seeded states are the
    numpy-drawn ones, and a seeded CLI run loads neither numpy.random,
    OpenSSL's ``_hashlib`` nor scipy,
  * per-scenario runs on small grids: emitted files, status.json
    structure (status, constants, versions, acceptance tag, symmetry
    tag), exit codes, the scipy version read once per process, the drifts
    of H and A in every filament run's constants, one point-vortex drift
    per invariant, and one wave record (a profile run's constants equal
    to the sweep's row, the helix's energy equal to the profile run's),
    a sweep's c2 column equal to the requested values, each wave run's box
    margin (a sweep's largest),
  * guard mapping: one table of how a run ends (its status, its
    hitting-time keys, constants.error for a raised guard only, and no
    partial constants once a raised guard reaches ``run``, which keeps the
    files already written listed),
    a collision maps to exit code 3 with hitting times,
    a collision run that leaves its box to exit code 5 with its boundary
    time, a reduced run that leaves its box to exit code 5 with the
    samples before the halt in energies.csv, a collision halt right after
    a sample keeps that sample once, a NumericalGuard raised inside a
    filament step keeps the samples and dumps before it and reports their
    symmetry tag and drifts, coincident
    field data exit 3 at t = 0, the collision runs its config's backbone
    (R, N, gamma0),
    a travelling-wave shot whose step size collapsed ends NumericalGuard
    with status.json its only file and says so, a run option that the
    scenario's record does not list ends ConfigError with status.json its
    only file,
    config problems discovered at run time map to exit code 2, NaN data
    map to exit code 6, runs at the scale ends (R = 1e-100, Gamma = 1e100)
    end NumericalGuard without a RuntimeWarning, the point-vortex step cap
    scales with max|Gamma|, and the configured energy-cap factor sets the cap,
  * determinism: rerunning a config gives byte-identical outputs,
  * the traced memory peak of the helix preset,
  * the CLI: exit codes, flag overrides, stderr diagnostics, the
    traveling-wave file-style --out; each subcommand offers exactly the
    flags of its scenario record, and a flag its run would not read exits 2
    with no file; flags are validated like file values,
    and every bad number, flag or field file exits 2 naming its field; a
    supersonic, NaN, oversized or too slow sweep or c2, an oversized
    point-vortex run and an oversized config.N exit 2 before they allocate,
    a bad sweep and a bad c2 exit 2 alike with no status.json, so does a
    sweep with equal ends, a scale
    beyond [1e-100, 1e100] (grid.L and perturbation.width included) exits 2
    with no file while Gaussian bumps inside it warn nothing, a collision
    refuses a perturbation, a reduced run refuses two profiles and
    parallelogram data, and a square refuses a file of three fields,
  * cold start: importing the CLI and running a travelling wave load no
    scipy module,
  * the scenario table: its keys, the runner map and the subcommands are
    one set, and each runner takes its record's options,
  * the source: no module guards with an assert statement (one pinned
    exception), no module outside the scenario table and the runner map
    compares a scenario tag with a literal or keys by a scenario name,
    every import of a package module is read there,
    every module-level constant is read somewhere, every error class is
    raised and every field it stores read, every default of a
    module-level function is overridden at some call, and the public
    functions no package module loads stay within a frozen list.
"""

import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vfsim
from vfsim import _pcg64, cli, filaments, point_vortex, runner, traveling_wave
from vfsim._pcg64 import SeededUniform
from vfsim.cli import main
from vfsim.config import (
    BACKBONE_KINDS,
    SCENARIOS,
    SCHEMA,
    ScenarioConfig,
    parse_config_dict,
    scenario_defaults,
)
from vfsim.errors import ConfigError, NumericalGuard
from vfsim.grid import MAX_POINTS, make_grid, write_fields_csv
from vfsim.runner import (
    EXIT_CODES,
    build_backbone,
    build_filament_state,
    run,
)

GRID = make_grid(30.0, 1024)


def load_status(out_dir):
    with open(os.path.join(out_dir, "status.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

class TestBuildBackbone:
    def test_square(self):
        vortex = build_backbone(ScenarioConfig(scenario="square"))
        assert vortex.count == 4 and not vortex.has_center

    def test_polygon_center_default_is_stationary(self):
        cfg = ScenarioConfig(scenario="square", kind="polygon_center", N=4)
        vortex = build_backbone(cfg)
        assert vortex.count == 5 and vortex.has_center
        assert vortex.omega == pytest.approx(0.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 12), st.floats(1e-100, 1e100), st.floats(1e-100, 1e100))
    def test_polygon_center_default_is_exactly_stationary(self, n, gamma, radius):
        """The default centre -(N-1) gamma/2 cancels the vertices' rate bit
        for bit over the schema's scales, so such a run takes the free flow."""
        cfg = ScenarioConfig(scenario="square", kind="polygon_center", N=n,
                             gamma=gamma, R=radius)
        assert build_backbone(cfg).omega == 0.0

    def test_polygon_center_explicit_gamma0(self):
        cfg = ScenarioConfig(
            scenario="square", kind="polygon_center", N=4, gamma0=-1.5
        )
        vortex = build_backbone(cfg)
        assert vortex.circulations[0] == -1.5

    def test_segment_defaults_center_to_gamma(self):
        cfg = ScenarioConfig(scenario="square", kind="segment", N=2, gamma=2.0)
        vortex = build_backbone(cfg)
        assert vortex.count == 3
        assert vortex.circulations[0] == 2.0

    def test_hexagon(self):
        cfg = ScenarioConfig(scenario="square", kind="hexagon", N=6)
        assert build_backbone(cfg).count == 6

    @pytest.mark.parametrize("kind,count", [("hexagon", 6), ("segment", 3)])
    def test_fixed_shape_kind_sets_the_count(self, kind, count):
        """The kind, not the field N (left at its default 4), sets the count."""
        assert build_backbone(ScenarioConfig(scenario="square", kind=kind)).count == count

    @pytest.mark.parametrize("kind", BACKBONE_KINDS)
    def test_each_kind_builds_its_table_row(self, kind):
        """A kind's vertex count (N where it fixes none) and centre are its
        ``BACKBONE_KINDS`` row."""
        fixed, center = BACKBONE_KINDS[kind]
        vortex = build_backbone(ScenarioConfig(scenario="square", kind=kind, N=5))
        assert vortex.count == (5 if fixed is None else fixed) + center
        assert vortex.has_center == center

    def test_unknown_kind_of_a_hand_built_config(self):
        with pytest.raises(ConfigError) as info:
            build_backbone(ScenarioConfig(scenario="square", kind="circle"))
        assert info.value.field == "config.kind"


class TestBuildFilamentState:
    def test_gaussian_deterministic(self):
        cfg = ScenarioConfig(scenario="square", pert_kind="gaussian", seed=5)
        a = build_filament_state(cfg, GRID)
        b = build_filament_state(cfg, GRID)
        for fa, fb in zip(a.u, b.u):
            assert np.array_equal(fa.values, fb.values)
        other = build_filament_state(
            ScenarioConfig(scenario="square", pert_kind="gaussian", seed=6), GRID
        )
        assert not np.array_equal(a.u[0].values, other.u[0].values)

    def test_gaussian_fields_decay(self):
        cfg = ScenarioConfig(scenario="square", pert_kind="gaussian", seed=0)
        state = build_filament_state(cfg, GRID)
        for f in state.u:
            assert f.background == 0.0
            assert np.max(np.abs(f.values[[0, -1]])) < 1e-10

    def test_dilation_shares_profile(self):
        cfg = ScenarioConfig(scenario="square", pert_kind="dilation", amp=0.05)
        state = build_filament_state(cfg, GRID)
        xs = state.cfg.positions
        ratios = [f.values / x for f, x in zip(state.u, xs)]
        for r in ratios[1:]:
            assert np.max(np.abs(r - ratios[0])) < 1e-15

    def test_parallelogram_antisymmetry(self):
        cfg = ScenarioConfig(
            scenario="square", pert_kind="parallelogram", amp=0.02, seed=1
        )
        state = build_filament_state(cfg, GRID)
        u = [f.values for f in state.u]
        assert np.array_equal(u[0], -u[2])
        assert np.array_equal(u[1], -u[3])
        assert not np.array_equal(u[0], u[1])

    def test_file_round_trip(self, tmp_path):
        source = build_filament_state(
            ScenarioConfig(scenario="square", pert_kind="gaussian", seed=2), GRID
        )
        path = tmp_path / "fields.csv"
        write_fields_csv(path, GRID, list(source.u))
        cfg = ScenarioConfig(
            scenario="square", pert_kind="file", path=str(path)
        )
        loaded = build_filament_state(cfg, GRID)
        for fa, fb in zip(source.u, loaded.u):
            assert np.array_equal(fa.values, fb.values)

    def test_collision_preset_is_the_collision_initial_state(self):
        grid = make_grid(20.0, 512)
        state = build_filament_state(scenario_defaults("collision"), grid)
        exact = filaments.collision_initial_state(4, grid)
        assert state.symmetry.name == exact.symmetry.name == "C4+center"
        assert np.array_equal(state.cfg.positions, exact.cfg.positions)
        assert np.array_equal(state.cfg.circulations, exact.cfg.circulations)
        for fa, fb in zip(state.u, exact.u):
            assert np.array_equal(fa.values, fb.values)

    def test_file_grid_mismatch(self, tmp_path):
        other = make_grid(20.0, 256)
        source = build_filament_state(
            ScenarioConfig(scenario="square", pert_kind="gaussian", seed=2), other
        )
        path = tmp_path / "fields.csv"
        write_fields_csv(path, other, list(source.u))
        cfg = ScenarioConfig(scenario="square", pert_kind="file", path=str(path))
        with pytest.raises(ConfigError):
            build_filament_state(cfg, GRID)


class TestSeededStream:
    """``SeededUniform`` is ``numpy.random.default_rng(seed).uniform``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**200 - 1), st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
    def test_draws_are_numpys(self, seed, a, b):
        assume(a != b)
        lo, hi = min(a, b), max(a, b)
        ours, theirs = SeededUniform(seed), np.random.default_rng(seed)
        drawn = [ours.uniform(lo, hi).hex() for _ in range(20)]
        assert drawn == [theirs.uniform(lo, hi).hex() for _ in range(20)]

    @pytest.mark.parametrize("seed", [0, 5, 2**64 + 1])
    @pytest.mark.parametrize("kind", ["gaussian", "parallelogram"])
    def test_state_is_the_numpy_drawn_state(self, monkeypatch, kind, seed):
        backbone = "hexagon" if kind == "gaussian" else "square"
        cfg = parse_config_dict({"scenario": "square", "config": {"kind": backbone},
                                 "perturbation": {"kind": kind, "seed": seed}})
        state = build_filament_state(cfg, GRID)
        monkeypatch.setattr(_pcg64, "SeededUniform", np.random.default_rng)
        drawn = build_filament_state(cfg, GRID)
        assert state.symmetry == drawn.symmetry
        assert len(state.u) == len(drawn.u) == (6 if kind == "gaussian" else 4)
        for ours, theirs in zip(state.u, drawn.u):
            assert ours.values.tobytes() == theirs.values.tobytes()

    def test_seeded_cli_run_loads_no_numpy_random(self, tmp_path):
        path = tmp_path / "hexagon.json"
        path.write_text(json.dumps({
            "scenario": "square", "config": {"kind": "hexagon"},
            "grid": {"L": 20.0, "M": 256},
            "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": 3},
            "time": {"T": 0.01, "dt": 1e-3},
        }))
        code = (
            "import sys\n"
            "import vfsim.cli\n"
            "code = vfsim.cli.main(['square', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, [m for m in ('numpy.random', '_hashlib', 'scipy') if m in sys.modules])\n"
        )
        src = os.path.dirname(os.path.dirname(vfsim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code, str(path), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.splitlines()[-1] == "0 []"


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

class TestScenarioRuns:
    def test_point_vortex(self, tmp_path):
        cfg = scenario_defaults("point_vortex")
        cfg.T = 1.0
        report = run(cfg, tmp_path)
        assert report.status == "Completed" and report.exit_code == 0
        assert (tmp_path / "trajectory.csv").stat().st_size > 0
        assert all(v < 1e-10 for v in report.constants.values())
        status = load_status(tmp_path)
        assert status["acceptance"] == "test_01_point_vortex_invariants"
        assert set(status["versions"]) == {"python", "numpy", "scipy", "vfsim"}

    def test_point_vortex_drifts_one_per_invariant(self, tmp_path):
        cfg = scenario_defaults("point_vortex")
        cfg.T = 0.1
        report = run(cfg, tmp_path)
        assert list(report.constants) == [
            f"drift_{key}" for key in point_vortex._INVARIANT_KEYS
        ]

    def test_stability(self, tmp_path):
        report = run(scenario_defaults("stability"), tmp_path)
        assert report.constants["verdict"] == "unstable"
        rows = (tmp_path / "stability.csv").read_text().strip().splitlines()
        assert rows[0] == "N,max_re_lambda,verdict"
        assert len(rows) == 9
        verdicts = {int(r.split(",")[0]): r.split(",")[2] for r in rows[1:]}
        assert all(verdicts[n] == "stable" for n in range(3, 8))
        assert all(verdicts[n] == "unstable" for n in range(8, 11))

    def test_reduced(self, tmp_path):
        cfg = scenario_defaults("reduced")
        cfg.L, cfg.M, cfg.T = 30.0, 1024, 1.0
        report = run(cfg, tmp_path)
        assert report.status == "Completed"
        assert report.constants["rel_drift_E"] < 1e-6
        header = (tmp_path / "energies.csv").read_text().splitlines()[0]
        assert header == "t,E,E_GP,sup_dev,min_mod"

    def test_reduced_nan_profile_is_guarded(self, tmp_path):
        cfg = scenario_defaults("reduced")
        cfg.L, cfg.M, cfg.T = 30.0, 1024, 0.1
        grid = make_grid(cfg.L, cfg.M)
        values = 1.0 + 0.05 * np.exp(-grid.nodes**2) + 0j
        values[cfg.M // 2] = np.nan
        path = tmp_path / "profile.csv"
        write_fields_csv(path, grid, [values])
        cfg.pert_kind, cfg.path = "file", str(path)
        out = tmp_path / "out"
        report = run(cfg, out)
        assert report.status == "NumericalGuard"
        assert report.exit_code == EXIT_CODES["NumericalGuard"] == 6
        assert load_status(out)["exit_code"] == 6

    def test_reduced_halt_keeps_its_samples(self, tmp_path):
        """A reduced run that a raised guard ends writes the samples before it."""
        cfg = parse_config_dict(
            {"scenario": "reduced", "grid": {"L": 4, "M": 128},
             "time": {"T": 2.0, "dt": 1e-3, "sample_every": 50}}
        )
        report = run(cfg, tmp_path)
        assert report.status == "BoundaryContaminated"
        assert report.exit_code == EXIT_CODES["BoundaryContaminated"] == 5
        status = load_status(tmp_path)
        assert status["hitting_times"] == {"halt_time": 0.001}
        assert status["files"] == ["energies.csv"]
        rows = (tmp_path / "energies.csv").read_text().splitlines()
        assert rows[0] == "t,E,E_GP,sup_dev,min_mod"
        assert [r.split(",")[0] for r in rows[1:]] == ["0"]

    def test_halt_right_after_a_sample_keeps_it_once(self, tmp_path):
        """At dt = 0.01 the collision preset trips in the step that opens
        from its sample at t = 0.99: energies.csv keeps that sample once."""
        cfg = parse_config_dict(
            {"scenario": "collision", "time": {"dt": 0.01, "sample_every": 1}}
        )
        report = run(cfg, tmp_path)
        assert report.exit_code == EXIT_CODES["CollisionDetected"] == 3
        assert report.hitting_times["collision_time"] == 0.99
        assert report.hitting_times["pair"] == [0, 1]
        rows = (tmp_path / "energies.csv").read_text().splitlines()[1:]
        times = [float(r.split(",")[0]) for r in rows]
        assert len(times) == len(set(rows)) == 100
        assert times[-1] == 0.99

    def test_square_nan_field_is_guarded(self, tmp_path):
        grid = make_grid(20.0, 256)
        rows = [
            0.01 * np.exp(-((grid.nodes - c) ** 2)) + 0j
            for c in (0.0, 1.0, -1.0, 0.5)
        ]
        rows[2][100] = np.nan
        path = tmp_path / "fields.csv"
        write_fields_csv(path, grid, rows)
        cfg = parse_config_dict(
            {
                "scenario": "square",
                "grid": {"L": 20.0, "M": 256},
                "perturbation": {"kind": "file", "path": str(path)},
                "time": {"T": 0.05, "dt": 1e-3},
            }
        )
        out = tmp_path / "out"
        report = run(cfg, out)
        assert report.status == "NumericalGuard"
        assert report.exit_code == EXIT_CODES["NumericalGuard"] == 6
        assert load_status(out)["exit_code"] == 6

    @pytest.mark.parametrize(
        "scenario,config",
        [("square", {"R": 1e-100}), ("square", {"gamma": 1e100}),
         ("collision", {"gamma": 1e100})],
        ids=["square-R-small", "square-gamma-large", "collision-gamma-large"],
    )
    def test_scale_ends_end_on_their_guard(self, tmp_path, scenario, config):
        """Runs at the schema's scale ends blow up in their first step and
        end NumericalGuard, with no RuntimeWarning on the way."""
        report = run(parse_config_dict({"config": config}, scenario), tmp_path)
        assert (report.status, report.exit_code) == ("NumericalGuard", 6)
        assert "energy groupings disagree" in report.constants["error"]

    def test_point_vortex_step_guard_scales_with_gamma(self, tmp_path):
        """The step cap is d^2/(10 max|Gamma|): at Gamma = 1e100 the preset's
        dt = 1e-3 is refused before any step."""
        report = run(parse_config_dict({"config": {"gamma": 1e100}}, "point_vortex"), tmp_path)
        assert (report.status, report.exit_code) == ("NumericalGuard", 6)
        assert report.constants["error"] == (
            "dt=1.000e-03 exceeds the stability guard d^2/(10 max|Gamma|) = 2.000e-101"
        )

    @pytest.mark.parametrize("factor", [0.5, 1.0])
    def test_energy_cap_factor_sets_cap(self, tmp_path, factor):
        cfg = parse_config_dict(
            {
                "scenario": "square",
                "grid": {"L": 20.0, "M": 256},
                "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": 0},
                "guards": {"energy_cap_factor": factor},
                "time": {"T": 0.05, "dt": 1e-3, "sample_every": 10},
            }
        )
        report = run(cfg, tmp_path)
        assert report.status == "EnergyCapExceeded"
        assert report.constants["energy_cap"] == pytest.approx(
            factor * report.constants["tilde_E0"], rel=1e-15
        )

    @pytest.mark.parametrize("kind", ["square", "hexagon"])
    def test_square_energies_once_per_report(self, tmp_path, monkeypatch, kind):
        """The t = 0 report also sets the energy cap and tilde_E0."""
        times = []
        exact = filaments.energies

        def counted(state):
            times.append(state.time)
            return exact(state)

        monkeypatch.setattr(filaments, "energies", counted)
        cfg = parse_config_dict(
            {
                "scenario": "square",
                "config": {"kind": kind},
                "grid": {"L": 20.0, "M": 256},
                "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": 0},
                "time": {"T": 0.05, "dt": 1e-3, "sample_every": 10},
            }
        )
        report = run(cfg, tmp_path)
        assert report.status == "Completed"
        assert ("tilde_E0" in report.constants) == (kind == "square")
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])

    def test_square_with_field_dump(self, tmp_path):
        cfg = parse_config_dict(
            {
                "scenario": "square",
                "grid": {"L": 30, "M": 1024},
                "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": 0},
                "time": {"T": 0.2, "dt": 1e-3, "sample_every": 100},
            }
        )
        report = run(cfg, tmp_path, dump_fields=True)
        assert report.status == "Completed"
        assert "tilde_E0" in report.constants
        assert "predicted_T" in report.constants
        dumps = [f for f in report.files if f.startswith("fields_t")]
        assert len(dumps) == 3  # t = 0, 0.1, 0.2
        for name in report.files:
            assert (tmp_path / name).stat().st_size > 0

    def test_collision_off_stationary_runs_the_pair_kernel(self, tmp_path, monkeypatch):
        """A centre circulation 2^-40 off -3/2 rotates the backbone at
        omega ~ 9e-13: the run steps the pair kernel, not the free flow,
        and still collides where the preset does."""
        exact, built = filaments._pair_kernel, []

        def recording(*args):
            built.append(1)
            return exact(*args)

        monkeypatch.setattr(filaments, "_pair_kernel", recording)
        cfg = parse_config_dict({"config": {"gamma0": -1.5 + 2.0**-40}}, "collision")
        assert 0.0 < build_backbone(cfg).omega < 1e-12
        report = run(cfg, tmp_path)
        assert built == [1]
        assert report.status == "CollisionDetected"
        hit = report.hitting_times
        assert (hit["collision_time"], tuple(hit["pair"]), hit["sigma_star"]) == (
            0.99, (0, 1), 0.0)

    def test_collision_exit_code(self, tmp_path):
        cfg = scenario_defaults("collision")
        cfg.M, cfg.dt, cfg.delta_min = 256, 1e-3, 0.05
        report = run(cfg, tmp_path)
        assert report.status == "CollisionDetected"
        assert report.exit_code == EXIT_CODES["CollisionDetected"] == 3
        assert 0.95 <= report.hitting_times["collision_time"] <= 0.99
        assert report.hitting_times["sigma_star"] == pytest.approx(0.0)
        # the four outer filaments reach the central one (index 0) together,
        # so the reported pair is whichever of (0, 1) ... (0, 4) crossed first
        pair = report.hitting_times["pair"]
        assert len(pair) == 2
        assert pair[0] == 0 and 1 <= pair[1] <= 4
        assert load_status(tmp_path)["exit_code"] == 3

    def test_collision_boundary_halt_records_its_time(self, tmp_path):
        """The collision data on a box too short for them leave it first."""
        cfg = parse_config_dict({"scenario": "collision", "grid": {"L": 6.0, "M": 128}})
        report = run(cfg, tmp_path)
        assert report.status == "BoundaryContaminated"
        assert report.exit_code == EXIT_CODES["BoundaryContaminated"] == 5
        status = load_status(tmp_path)
        assert status["exit_code"] == 5
        assert set(status["hitting_times"]) == {"boundary_time"}
        assert 0.0 < status["hitting_times"]["boundary_time"] < cfg.T

    @pytest.mark.parametrize(
        "config,status,times,error",
        [
            ({"scenario": "collision"}, "CollisionDetected",
             {"collision_time", "sigma_star", "pair"}, False),
            ({"scenario": "square", "grid": {"L": 20, "M": 256},
              "time": {"T": 0.02, "dt": 1e-3, "sample_every": 2},
              "guards": {"energy_cap_factor": 0.5}},
             "EnergyCapExceeded", {"cap_time"}, False),
            ({"scenario": "collision", "grid": {"L": 6.0, "M": 128}},
             "BoundaryContaminated", {"boundary_time"}, False),
            ({"scenario": "reduced", "grid": {"L": 4, "M": 128},
              "time": {"T": 2.0, "dt": 1e-3, "sample_every": 50}},
             "BoundaryContaminated", {"halt_time"}, True),
            ({"scenario": "helix", "grid": {"L": 30.0, "M": 1024}},
             "NumericalGuard", set(), True),
        ],
        ids=["collision", "energy-cap", "yielded-boundary", "raised-boundary",
             "raised-after-constants"],
    )
    def test_how_a_run_ends(self, tmp_path, monkeypatch, config, status, times, error):
        """Each way a run ends sets its status, its hitting-time keys and, for
        a raised guard only, constants.error.  A guard raised after a helix
        run wrote its files and its ``nu`` leaves only the error in a report
        without a symmetry tag."""
        def raising(profile):
            raise NumericalGuard("raised after the files")

        if config["scenario"] == "helix":
            monkeypatch.setattr(runner, "_wave_record", raising)
        report = run(parse_config_dict(config), tmp_path)
        assert (report.status, report.exit_code) == (status, EXIT_CODES[status])
        saved = load_status(tmp_path)
        assert set(saved["hitting_times"]) == times
        assert ("error" in saved["constants"]) == error
        assert ("energy_cap" in saved["constants"]) == (status == "EnergyCapExceeded")
        if config["scenario"] == "helix":
            assert set(saved["constants"]) == {"error"} and saved["symmetry"] is None

    def test_a_raised_run_lists_the_files_it_wrote(self, tmp_path, monkeypatch):
        """A guard raised after a helix wrote its two files leaves both listed
        in status.json, exactly the files beside it."""
        def raising(profile):
            raise NumericalGuard("raised after the files")

        monkeypatch.setattr(runner, "_wave_record", raising)
        cfg = scenario_defaults("helix")
        cfg.L, cfg.M = 30.0, 1024
        report = run(cfg, tmp_path)
        assert report.status == "NumericalGuard"
        assert load_status(tmp_path)["files"] == report.files == ["helix_t0.csv", "helix_t1.csv"]
        assert sorted(os.listdir(tmp_path)) == sorted(report.files + ["status.json"])

    def test_collapsed_wave_shot_ends_the_run(self, tmp_path, monkeypatch):
        """A shot whose step size collapsed raises EtaEscaped: the run ends
        NumericalGuard with the message in constants.error and no file but
        status.json."""
        def collapsed(fun, t0, y0, t_bound, rtol, atol, event=None):
            shot = traveling_wave._Shot(t0, np.asarray(y0, dtype=float))
            shot.ok = False
            return shot

        monkeypatch.setattr(traveling_wave, "_dormand_prince", collapsed)
        cfg = parse_config_dict({"scenario": "traveling_wave", "grid": {"L": 30.0, "M": 1024}})
        report = run(cfg, tmp_path)
        assert (report.status, report.exit_code) == ("NumericalGuard", 6)
        saved = load_status(tmp_path)
        assert saved["constants"]["error"].startswith("eta = ")
        assert saved["constants"]["error"].endswith(": the step size collapsed")
        assert saved["files"] == report.files == []
        assert os.listdir(tmp_path) == ["status.json"]

    @pytest.mark.parametrize(
        "scenario,option",
        [("helix", {"dump_fields": True}), ("stability", {"sweep": "c2=1.99:1.90:10"}),
         ("point_vortex", {"out_name": "p.csv"})],
    )
    def test_option_the_run_does_not_read_ends_config_error(self, tmp_path, scenario, option):
        report = run(scenario_defaults(scenario), tmp_path, **option)
        assert (report.status, report.exit_code, report.files) == ("ConfigError", 2, [])
        (name,) = option
        assert report.constants["error"] == f"{name}: the {scenario} scenario does not read it"
        assert os.listdir(tmp_path) == ["status.json"]

    @pytest.mark.parametrize(
        "kind,name",
        [("parallelogram", "point_reflection"), ("dilation", "C4"), ("gaussian", None)],
    )
    def test_status_records_symmetry(self, tmp_path, kind, name):
        cfg = parse_config_dict(
            {
                "scenario": "square",
                "grid": {"L": 30, "M": 256},
                "perturbation": {"kind": kind, "amp": 0.02, "seed": 1},
                "time": {"T": 0.05, "dt": 1e-3, "sample_every": 25},
            }
        )
        report = run(cfg, tmp_path)
        assert report.status == "Completed"
        assert load_status(tmp_path)["symmetry"] == report.symmetry == name
        if kind == "parallelogram":
            assert report.constants["max_vw"] == 0.0

    def test_collision_status_records_symmetry(self, tmp_path):
        cfg = scenario_defaults("collision")
        cfg.M, cfg.dt, cfg.T = 256, 1e-3, 0.1
        report = run(cfg, tmp_path)
        assert report.status == "Completed"
        assert load_status(tmp_path)["symmetry"] == "C4+center"

    def test_hexagon_bumps_report_conserved_drifts(self, tmp_path):
        """drift_H and drift_A in status.json match energies.csv, and H and A
        are conserved on generic data (E is not)."""
        cfg = parse_config_dict(
            {
                "scenario": "square",
                "config": {"kind": "hexagon"},
                "grid": {"L": 40.0, "M": 1024},
                "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": 3},
                "time": {"T": 0.1, "dt": 1e-3},
            }
        )
        assert run(cfg, tmp_path).status == "Completed"
        constants = load_status(tmp_path)["constants"]
        rows = np.genfromtxt(tmp_path / "energies.csv", delimiter=",", names=True)
        h, a, e = rows["H"], rows["A"], rows["E"]
        assert constants["drift_H"] == np.max(np.abs(h - h[0]))
        assert constants["drift_A"] == np.max(np.abs(a - a[0]))
        assert constants["drift_H"] <= 1e-6 * (abs(h[0]) + e[0])
        assert constants["drift_A"] <= 1e-10

    def test_collision_reports_conserved_drifts(self, tmp_path):
        cfg = scenario_defaults("collision")
        cfg.M, cfg.dt, cfg.T = 256, 1e-3, 0.1
        run(cfg, tmp_path)
        constants = load_status(tmp_path)["constants"]
        assert 0.0 <= constants["drift_H"] <= 1e-10
        assert 0.0 <= constants["drift_A"] <= 1e-10

    def test_collision_runs_the_backbone_of_its_config(self, tmp_path):
        """Doubling R doubles every separation, so the run halts where the
        preset does with min_sep doubled, bit for bit."""
        preset = run(scenario_defaults("collision"), tmp_path / "preset")
        wide = run(parse_config_dict({"scenario": "collision", "config": {"R": 2.0}}),
                   tmp_path / "wide")
        for report in (preset, wide):
            assert report.exit_code == EXIT_CODES["CollisionDetected"]
            assert report.hitting_times["collision_time"] == 0.99
            assert report.hitting_times["pair"] == [0, 1]
        assert wide.constants["min_sep"] == 2.0 * preset.constants["min_sep"]
        assert load_status(tmp_path / "wide")["config"]["config"]["R"] == 2.0

    def test_collision_gamma0_null_freezes_the_backbone(self, tmp_path):
        cfg = parse_config_dict({"scenario": "collision", "config": {"N": 6, "gamma0": None}})
        report = run(cfg, tmp_path)
        assert report.status == "CollisionDetected" and report.symmetry == "C6+center"
        assert report.hitting_times == {"collision_time": 0.99, "sigma_star": 0.0,
                                        "pair": [1, 2]}

    def test_collision_keeps_the_configured_centre(self, tmp_path):
        """The preset's centre circulation -1.5 sets a hexagon rotating, and
        its data leave the box before they collide."""
        cfg = parse_config_dict({"scenario": "collision", "config": {"N": 6}})
        report = run(cfg, tmp_path)
        assert report.status == "BoundaryContaminated" and report.symmetry == "C6+center"
        assert 0.0 < report.hitting_times["boundary_time"] < cfg.T

    def test_filament_guard_keeps_its_samples(self, tmp_path, monkeypatch):
        """A NumericalGuard raised inside a step of a filament run keeps the
        samples and the field dumps before it, listed in status.json."""
        exact = filaments._rk4

        def poisoning(rate, like, h):
            step, calls = exact(rate, like, h), []

            def poisoned(v, t):
                if len(calls) == 5:  # before the sixth step
                    v[0, 100] = np.nan
                calls.append(t)
                step(v, t)
            return poisoned

        monkeypatch.setattr(filaments, "_rk4", poisoning)
        cfg = parse_config_dict(
            {"scenario": "square", "grid": {"L": 20, "M": 256},
             "time": {"T": 0.02, "dt": 1e-3, "sample_every": 2}}
        )
        report = run(cfg, tmp_path, dump_fields=True)
        assert report.exit_code == EXIT_CODES["NumericalGuard"] == 6
        dumps = ["fields_t0000.csv", "fields_t0001.csv", "fields_t0002.csv"]
        assert load_status(tmp_path)["files"] == ["energies.csv", *dumps]
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["energies.csv", "status.json", *dumps])
        rows = (tmp_path / "energies.csv").read_text().splitlines()[1:]
        times = [float(r.split(",")[0]) for r in rows]
        assert times == pytest.approx([0.0, 0.002, 0.004], abs=1e-15)

    def test_filament_guard_reports_its_samples(self, tmp_path, monkeypatch):
        """The report of a run that a raised guard ends after its first
        sample is the run's own report of the kept rows, with the guard's
        status: the symmetry tag and the drifts of H and A over those rows."""
        exact = filaments._rk4

        def poisoning(rate, like, h):
            step, calls = exact(rate, like, h), []

            def poisoned(v, t):
                if len(calls) == 5:  # before the sixth step
                    v[0, 100] = np.nan
                calls.append(t)
                step(v, t)
            return poisoned

        monkeypatch.setattr(filaments, "_rk4", poisoning)
        cfg = parse_config_dict(
            {"scenario": "square", "grid": {"L": 20, "M": 256},
             "perturbation": {"kind": "parallelogram"},
             "time": {"T": 0.02, "dt": 1e-3, "sample_every": 2}}
        )
        report = run(cfg, tmp_path)
        assert (report.status, report.exit_code) == ("NumericalGuard", 6)
        status = load_status(tmp_path)
        assert status["symmetry"] == "point_reflection"
        assert status["hitting_times"] == {}
        assert status["constants"]["error"]
        rows = [[float(x) for x in r.split(",")]
                for r in (tmp_path / "energies.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3
        for name, col in (("drift_H", 1), ("drift_A", 2)):
            assert status["constants"][name] == max(abs(r[col] - rows[0][col]) for r in rows)

    def test_coincident_filaments_exit_3_at_time_0(self, tmp_path):
        """Field data that put filament 0 on filament 1 at sigma = 0 are a
        collision before the first step."""
        cfg = parse_config_dict({"scenario": "square", "grid": {"L": 20.0, "M": 256}})
        grid = make_grid(cfg.L, cfg.M)
        x = build_backbone(cfg).positions
        rows = [np.zeros(grid.num_points, dtype=complex) for _ in range(4)]
        rows[0][grid.num_points // 2] = x[1] - x[0]  # the node at sigma = 0
        path = tmp_path / "fields.csv"
        write_fields_csv(path, grid, rows)
        cfg.pert_kind, cfg.path = "file", str(path)
        report = run(cfg, tmp_path / "out")
        assert report.exit_code == EXIT_CODES["CollisionDetected"] == 3
        status = load_status(tmp_path / "out")
        assert status["hitting_times"] == {
            "collision_time": 0.0, "sigma_star": 0.0, "pair": [0, 1]}

    def test_polygon_backbone_runs(self, tmp_path):
        cfg = parse_config_dict(
            {"scenario": "square", "config": {"kind": "polygon", "N": 5},
             "grid": {"L": 20.0, "M": 256}, "time": {"T": 0.02, "dt": 1e-3}}
        )
        report = run(cfg, tmp_path)
        assert report.status == "Completed"
        assert report.symmetry is None and "tilde_E0" not in report.constants

    def test_versions_read_once_per_process(self, monkeypatch):
        calls = []
        version = runner.metadata.version
        monkeypatch.setattr(
            runner.metadata, "version", lambda name: calls.append(name) or version(name)
        )
        runner._scipy_version.cache_clear()
        first, second = runner._versions(), runner._versions()
        assert first == second and first is not second
        assert calls == ["scipy"]

    def test_traveling_wave_profile(self, tmp_path):
        cfg = scenario_defaults("traveling_wave")
        cfg.L, cfg.M = 30.0, 1024
        report = run(cfg, tmp_path)
        assert report.status == "Completed"
        # the turning point comes from shooting and is grid independent
        assert report.constants["sigma1"] == pytest.approx(
            0.13938898806276276, rel=1e-9
        )
        header = (tmp_path / "profile.csv").read_text().splitlines()[0]
        assert header == "sigma,eta,theta,re_v,im_v"

    @pytest.mark.parametrize(
        "sweep", ["c3=1:2:3", "c2=1:2", "c2=a:b:3", "c2=1.99:1.90:1"]
    )
    def test_bad_sweep_is_config_error(self, tmp_path, sweep):
        cfg = scenario_defaults("traveling_wave")
        cfg.L, cfg.M = 30.0, 1024
        report = run(cfg, tmp_path, sweep=sweep)
        assert report.status == "ConfigError" and report.exit_code == 2

    def test_profile_reports_the_sweep_record(self, tmp_path):
        cfg = scenario_defaults("traveling_wave")
        cfg.L, cfg.M, cfg.c2 = 30.0, 1024, 1.95
        profile = run(cfg, tmp_path / "profile")
        run(cfg, tmp_path / "sweep", sweep="c2=1.95:1.93:2")
        with open(tmp_path / "sweep" / "sweep.csv") as fh:
            header, first = fh.readline().strip(), fh.readline().strip()
        row = dict(zip(header.split(","), map(float, first.split(","))))
        assert row.pop("c2") == 1.95
        assert {key: profile.constants[key] for key in row} == row

    def test_sweep_reports_the_requested_c2(self, tmp_path):
        """The c2 column holds the values asked for, not sqrt(c2)**2, which
        is an ulp or two off for six of these ten."""
        cfg = scenario_defaults("traveling_wave")
        cfg.L, cfg.M = 30.0, 1024
        run(cfg, tmp_path, sweep="c2=1.99:1.90:10")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == list(np.linspace(1.99, 1.90, 10))

    def test_bad_sweep_equal_ends_is_config_error(self, tmp_path):
        cfg = scenario_defaults("traveling_wave")
        cfg.L, cfg.M = 30.0, 1024
        report = run(cfg, tmp_path, sweep="c2=1.95:1.95:3")
        assert report.status == "ConfigError" and report.exit_code == 2
        assert "START and STOP must differ" in report.constants["error"]
        assert not (tmp_path / "sweep.csv").exists()

    def test_helix_reports_the_wave_energy(self, tmp_path):
        wave, helix = scenario_defaults("traveling_wave"), scenario_defaults("helix")
        wave.L = helix.L = 30.0
        wave.M = helix.M = 1024
        energy = run(wave, tmp_path / "wave").constants["energy"]
        run(helix, tmp_path / "helix")
        assert load_status(tmp_path / "helix")["constants"]["energy"] == energy

    def test_wave_runs_report_their_box_margin(self, tmp_path):
        """A profile and a helix report their tail's decay length over the
        half-box, 1/(sqrt(2 omega - c2) L); a sweep reports its waves' largest."""
        wave, helix = scenario_defaults("traveling_wave"), scenario_defaults("helix")
        wave.L = helix.L = 30.0
        wave.M = helix.M = 1024
        margin = 1.0 / (math.sqrt(2.0 * wave.omega - wave.c2) * wave.L)
        for cfg in (wave, helix):
            run(cfg, tmp_path / cfg.scenario)
            saved = load_status(tmp_path / cfg.scenario)["constants"]["box_margin"]
            assert saved == pytest.approx(margin, rel=1e-12)
        run(wave, tmp_path / "sweep", sweep="c2=1.99:1.90:4")
        margins = [1.0 / (math.sqrt(2.0 * wave.omega - c2) * wave.L)
                   for c2 in np.linspace(1.99, 1.90, 4)]
        saved = load_status(tmp_path / "sweep")["constants"]["max_box_margin"]
        assert saved == pytest.approx(max(margins), rel=1e-12)

    def test_helix(self, tmp_path):
        cfg = scenario_defaults("helix")
        cfg.L, cfg.M = 30.0, 1024
        report = run(cfg, tmp_path)
        assert report.status == "Completed"
        assert set(report.files) == {"helix_t0.csv", "helix_t1.csv"}
        # the pitch sits on the wavenumber lattice pi k / L
        ratio = report.constants["nu"] * cfg.L / np.pi
        assert ratio == pytest.approx(round(ratio))

    def test_helix_traced_peak(self, tmp_path):
        # the profile (three full-grid complex arrays' worth), one time's
        # three fields and the temporaries that build them; measured 8.1
        # such arrays at the preset's M = 65536, the bound leaves about 25 %
        cfg = scenario_defaults("helix")
        tracemalloc.start()
        try:
            report = run(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "Completed"
        grids = peak / (16 * cfg.M)
        assert grids < 10.0, f"helix peak {grids:.2f} full-grid complex arrays"

    def test_helix_from_config_writes_three_filaments(self, tmp_path):
        cfg = parse_config_dict({"scenario": "helix", "grid": {"L": 30.0, "M": 1024}})
        report = run(cfg, tmp_path)
        assert report.status == "Completed"
        for name in report.files:
            header = (tmp_path / name).read_text().splitlines()[0]
            assert header == "sigma,re_0,im_0,re_1,im_1,re_2,im_2"
        assert load_status(tmp_path)["config"]["config"]["N"] == 3

    def test_runtime_config_error_writes_status(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="square", pert_kind="file", path=str(tmp_path / "none.csv")
        )
        report = run(cfg, tmp_path)
        assert report.status == "ConfigError" and report.exit_code == 2
        status = load_status(tmp_path)
        assert status["status"] == "ConfigError"
        assert "error" in status["constants"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config_dict(
            {
                "scenario": "square",
                "grid": {"L": 30, "M": 1024},
                "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": 4},
                "time": {"T": 0.1, "dt": 1e-3, "sample_every": 50},
            }
        )
        first = tmp_path / "a"
        second = tmp_path / "b"
        run(cfg, first)
        run(cfg, second)
        for name in ("energies.csv", "status.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class TestLengthScales:
    """grid.L and perturbation.width share the schema's scale range
    [1e-100, 1e100]: beyond it a run exits 2 naming the field, and inside
    it a Gaussian exponent past the float range is a zero sample, not a
    RuntimeWarning (which the suite turns into a failure)."""

    @pytest.mark.parametrize(
        "command,section,value",
        [("collision", {"grid": {"L": 1e200}}, "grid.L"),
         ("reduced", {"grid": {"L": 1e308}}, "grid.L"),
         ("square", {"grid": {"L": 1e101}}, "grid.L"),
         ("square", {"perturbation": {"width": 1e-300}}, "perturbation.width"),
         ("reduced", {"perturbation": {"width": 1e-101}}, "perturbation.width")],
        ids=["collision-L", "reduced-L-max", "square-L", "square-width", "reduced-width"],
    )
    def test_beyond_the_bounds_exits_2(self, tmp_path, capsys, command, section, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(section))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert f"config error at {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario,data,status",
        [("reduced", {"perturbation": {"center": 1e300}}, "Completed"),
         ("reduced", {"perturbation": {"center": -1e100, "width": 1e-100}}, "Completed"),
         ("reduced", {"perturbation": {"kind": "dilation", "center": -1e100, "width": 1e-100}},
          "Completed"),
         ("square", {"perturbation": {"kind": "dilation", "center": -1e100, "width": 1e-100}},
          "Completed"),
         ("square", {"grid": {"L": 1e100}, "perturbation": {"width": 1e-100}}, "Completed"),
         ("square", {"grid": {"L": 1e100}, "perturbation": {"kind": "parallelogram",
                                                           "width": 1e-100}}, "Completed"),
         ("reduced", {"grid": {"L": 1e100}}, "Completed"),
         ("reduced", {"grid": {"L": 1e-100}}, "BoundaryContaminated"),
         ("square", {"grid": {"L": 1e-100}}, "BoundaryContaminated"),
         ("collision", {"grid": {"L": 1e-100}}, "BoundaryContaminated"),
         ("helix", {"grid": {"L": 1e-100}}, "Completed"),
         ("helix", {"grid": {"L": 1e100}}, "NumericalGuard")],
        ids=["reduced-far-center", "reduced-narrow", "reduced-narrow-dilation",
             "square-narrow-dilation", "square-narrow-wide-box", "parallelogram-narrow-wide-box",
             "reduced-L-max", "reduced-L-min", "square-L-min", "collision-L-min", "helix-L-min", "helix-L-max"],
    )
    def test_inside_the_bounds_ends_on_its_own_status(self, tmp_path, scenario, data, status):
        data = {**data, "grid": {"M": 256, **data.get("grid", {})}, "time": {"T": 0.05}}
        report = run(parse_config_dict(data, scenario), tmp_path)
        assert report.status == status
        assert report.exit_code == EXIT_CODES[status]


class TestCli:
    def test_stability_exit_zero(self, tmp_path):
        assert main(["stability", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "stability.csv").exists()

    def test_infinite_node_in_a_field_file_exits_6(self, tmp_path):
        """The state refuses the field before any product with it, so the
        run warns nothing."""
        grid = make_grid(20.0, 256)
        rows = [0.01 * np.exp(-((grid.nodes - c) ** 2)) + 0j for c in (0.0, 1.0, -1.0, 0.5)]
        rows[2][100] = np.inf
        path = tmp_path / "fields.csv"
        write_fields_csv(path, grid, rows)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"L": 20, "M": 256},
            "time": {"T": 0.01, "dt": 1e-3},
            "perturbation": {"kind": "file", "path": str(path)},
        }))
        code = "import sys\nfrom vfsim.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        src = os.path.dirname(os.path.dirname(vfsim.__file__))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code, "square",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 6, out.stderr
        assert "field 2 is not finite" in out.stderr
        assert "Warning" not in out.stderr
        assert load_status(tmp_path / "o")["status"] == "NumericalGuard"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["square", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_scenario_tag_mismatch(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "square"}))
        code = main(["reduced", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "scenario" in capsys.readouterr().err

    def test_supersonic_flag_rejected(self, tmp_path, capsys):
        code = main(
            ["traveling-wave", "--c2", "2.5", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "subsonic" in capsys.readouterr().err

    def test_odd_m_flag_rejected(self, tmp_path, capsys):
        code = main(
            ["traveling-wave", "--M", "1025", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_traveling_wave_csv_out(self, tmp_path):
        target = tmp_path / "prof.csv"
        code = main(
            [
                "traveling-wave",
                "--L", "30",
                "--M", "1024",
                "--out", str(target),
            ]
        )
        assert code == 0
        assert target.stat().st_size > 0
        assert (tmp_path / "status.json").exists()

    def test_sweep_via_cli(self, tmp_path):
        target = tmp_path / "sweep.csv"
        code = main(
            [
                "traveling-wave",
                "--L", "30",
                "--M", "1024",
                "--sweep", "c2=1.99:1.90:4",
                "--out", str(target),
            ]
        )
        assert code == 0
        rows = target.read_text().strip().splitlines()
        assert rows[0] == "c2,sigma1,energy,phase_jump,residual"
        assert len(rows) == 5

    def test_seed_override_echoed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "scenario": "square",
                    "grid": {"L": 30, "M": 1024},
                    "perturbation": {"kind": "gaussian", "amp": 0.01},
                    "time": {"T": 0.05, "dt": 1e-3},
                }
            )
        )
        code = main(
            [
                "square",
                "--config", str(path),
                "--out", str(tmp_path / "o"),
                "--seed", "42",
            ]
        )
        assert code == 0
        status = load_status(tmp_path / "o")
        assert status["config"]["perturbation"]["seed"] == 42

    def test_collision_preset_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "scenario": "collision",
                    "grid": {"L": 20, "M": 256},
                    "time": {"T": 1.05, "dt": 1e-3, "sample_every": 1000},
                    "guards": {"delta_min": 0.05, "boundary_tol": 1e-6},
                }
            )
        )
        code = main(
            ["collision", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "args,data,field",
        [
            (["square", "--seed", "-1"], None, "perturbation.seed"),
            (["square"], {"time": {"T": math.inf}}, "time.T"),
            (["point-vortex"], {"time": {"T": math.inf}}, "time.T"),
            (["traveling-wave", "--M", "-4"], None, "grid.M"),
            (["traveling-wave", "--M", "6"], None, "grid.M"),
            (["traveling-wave", "--L", "-5"], None, "grid.L"),
            (["square"], {"grid": {"M": 4}}, "grid.M"),
            (["square"], {"grid": {"L": math.inf}}, "grid.L"),
            (["square"], {"config": {"R": math.inf}}, "config.R"),
            (["square"], {"perturbation": {"amp": math.inf}}, "perturbation.amp"),
            (["square"], {"config": {"kind": "polygon_center", "gamma0": math.nan}},
             "config.gamma0"),
            (["reduced"], {"perturbation": {"center": math.nan}}, "perturbation.center"),
        ],
        ids=["seed-negative", "square-T-inf", "point-vortex-T-inf", "M-negative",
             "M-below-8", "L-negative", "file-M-4", "L-inf", "R-inf", "amp-inf",
             "gamma0-nan", "center-nan"],
    )
    def test_bad_input_exits_2_naming_its_field(self, tmp_path, capsys, args, data,
                                                field):
        argv = args + ["--out", str(tmp_path / "o")]
        if data is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(data))  # as Infinity and NaN
            argv += ["--config", str(path)]
        assert main(argv) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--sweep", "c2=1.7:1.9:3", "sweep"), ("--c2", "1.5", "config.c2")],
    )
    def test_bad_sweep_and_bad_c2_end_alike(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "d"
        assert main(["traveling-wave", flag, value, "--out", str(out / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"vfsim: config error at {field}: ")
        assert not out.exists()

    def test_sweep_with_equal_ends_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d"
        argv = ["traveling-wave", "--sweep", "c2=1.95:1.95:3", "--L", "30", "--M", "1024",
                "--out", str(out / "s.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "vfsim: config error at sweep: START and STOP must differ\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,data",
        [(["collision", "--seed", "3"], None),
         (["collision"], {"perturbation": {"amp": 0.1}})],
        ids=["seed-flag", "amp"],
    )
    def test_collision_perturbation_exits_2(self, tmp_path, capsys, args, data):
        argv = args + ["--out", str(tmp_path / "o")]
        if data is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(data))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("vfsim: config error at perturbation: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args",
        [[command, "--dump-fields"]
         for command in ("helix", "point-vortex", "stability", "traveling-wave")]
        + [[command, "--seed", "1"]
           for command in ("point-vortex", "stability", "reduced", "traveling-wave", "helix")],
        ids=lambda args: "-".join(args[:2]),
    )
    def test_flag_the_run_does_not_read_exits_2(self, tmp_path, capsys, args):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as info:
            main(args + ["--out", str(out)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {args[1]}" in capsys.readouterr().err
        assert not out.exists()

    def test_waves_where_no_midpoint_meets_the_root_tolerance_complete(self, tmp_path):
        out = tmp_path / "w"
        assert main(["traveling-wave", "--omega", "2", "--c2", "3.988", "--out", str(out)]) == 0
        assert load_status(out)["constants"]["residual"] < 1e-6
        sweep = tmp_path / "d" / "s.csv"
        assert main(["traveling-wave", "--sweep", "c2=1.9999:1.99:5", "--out", str(sweep)]) == 0
        assert len(sweep.read_text().splitlines()) == 6

    @pytest.mark.parametrize("n", [2, 12])
    def test_stability_n_outside_the_sweep_exits_2(self, tmp_path, capsys, n):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"config": {"kind": "polygon", "N": n}}))
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("vfsim: config error at config.N: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,out", [(["stability"], "F"), (["traveling-wave"], "F/p.csv")],
    )
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, args, out):
        blocker = tmp_path / "F"
        blocker.write_text("keep\n")
        assert main(args + ["--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith("vfsim: config error at out: ")
        assert blocker.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]

    @pytest.mark.parametrize(
        "args,data,field,reason",
        [
            (["traveling-wave", "--sweep", "c2=2.5:1.9:3"], None, "sweep", "subsonic"),
            (["traveling-wave", "--sweep", "c2=nan:1.9:3"], None, "sweep", "finite"),
            (["traveling-wave", "--sweep", "c2=1.99:1.90:10000000000000"], None, "sweep",
             "COUNT"),
            (["point-vortex"], {"scenario": "point_vortex", "time": {"T": 1e9}}, "time.T",
             "steps"),
            (["traveling-wave", "--c2", "1.5"], None, "config.c2", "must lie in"),
            (["traveling-wave", "--sweep", "c2=1.7:1.9:3"], None, "sweep", "must lie in"),
            (["square"], {"config": {"kind": "polygon", "N": 10**13}}, "config.N", "<="),
        ],
        ids=["sweep-supersonic", "sweep-nan", "sweep-count", "point-vortex-steps",
             "c2-below-window", "sweep-below-window", "N-pair-rows"],
    )
    def test_oversized_or_supersonic_run_exits_2_before_allocating(
            self, tmp_path, capsys, args, data, field, reason):
        argv = args + ["--out", str(tmp_path / "o" / "p.csv")]
        if data is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(data))
            argv += ["--config", str(path)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert field in err and reason in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "args,data",
        [(["square"], {"config": {"kind": "polygon", "N": 3000}}),
         (["collision"], {"config": {"N": 3000}}),
         (["helix"], {"config": {"N": 5000}})],
        ids=["square", "collision-with-centre", "helix"],
    )
    def test_pair_table_beyond_the_grid_bound_exits_2_before_allocating(
            self, tmp_path, capsys, args, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(args + ["--config", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "config.N" in err and "<=" in err
        assert peak < 2**20
        assert not out.exists()

    @pytest.mark.parametrize(
        "data,field",
        [({"config": {"kind": "polygon", "N": 600}}, "config.N"),
         ({"config": {"kind": "polygon", "N": 20}, "time": {"T": 1e4, "dt": 1e-3}},
          "time.T")],
        ids=["velocity-matrix", "path-table"],
    )
    def test_point_vortex_table_beyond_the_grid_bound_exits_2_before_allocating(
            self, tmp_path, capsys, data, field):
        data = {"scenario": "point_vortex", "time": {"T": 1e-7, "dt": 1e-7}} | data
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["point-vortex", "--config", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert field in err and str(6 * MAX_POINTS) in err
        assert peak < 2**20
        assert not out.exists()

    def test_grid_too_large_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"M": 2**40}}))
        assert main(["square", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "grid.M" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "", "not,a\nfield,file\n", "sigma,re_0,im_0\n"])
    def test_bad_field_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "fields.csv"
        if content is not None:
            path.write_text(content)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"L": 10, "M": 64},
            "time": {"T": 0.01, "dt": 1e-3},
            "perturbation": {"kind": "file", "path": str(path)},
        }))
        code = main(["reduced", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "perturbation.path" in capsys.readouterr().err
        assert load_status(tmp_path / "o")["status"] == "ConfigError"

    def test_reduced_field_file_off_the_grid_exits_2(self, tmp_path, capsys):
        # the right number of nodes, but on [-20, 20) instead of [-10, 10)
        wide = make_grid(20.0, 64)
        path = tmp_path / "fields.csv"
        write_fields_csv(path, wide, [np.ones(64, dtype=complex)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"L": 10, "M": 64},
            "time": {"T": 0.01, "dt": 1e-3},
            "perturbation": {"kind": "file", "path": str(path)},
        }))
        code = main(["reduced", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "perturbation.path" in capsys.readouterr().err

    def test_square_field_file_of_three_fields_exits_2(self, tmp_path, capsys):
        path = tmp_path / "fields.csv"
        write_fields_csv(path, make_grid(10.0, 64), [np.zeros(64, dtype=complex)] * 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"L": 10, "M": 64},
            "time": {"T": 0.01, "dt": 1e-3},
            "perturbation": {"kind": "file", "path": str(path)},
        }))
        code = main(["square", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "perturbation.path" in err and "holds 3 fields, not 4" in err
        assert load_status(tmp_path / "o")["status"] == "ConfigError"

    @pytest.mark.parametrize(
        "command,config,flags,field",
        [
            ("square", {"R": 1e-200}, [], "config.R"),
            ("point-vortex", {"R": 1e-200}, [], "config.R"),
            ("square", {"R": 1e200}, [], "config.R"),
            ("stability", {"gamma": 1e308}, [], "config.gamma"),
            ("collision", {"gamma0": -1e101}, [], "config.gamma0"),
            ("traveling-wave", {}, ["--omega", "1e300", "--c2", "1.9e300"], "config.omega"),
        ],
        ids=["square-R-small", "point-vortex-R-small", "square-R-large",
             "stability-gamma", "collision-gamma0", "traveling-wave-omega"],
    )
    def test_scale_beyond_bounds_exits_2(self, tmp_path, capsys, command, config, flags, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"config": config}))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), *flags, "--out", str(out)]) == 2
        assert f"config error at {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,field", [("file", "perturbation.path"), ("parallelogram", "perturbation.kind")],
        ids=["two-profiles", "parallelogram"],
    )
    def test_reduced_needs_one_profile(self, tmp_path, capsys, kind, field):
        path = tmp_path / "fields.csv"
        write_fields_csv(path, make_grid(10.0, 64), [np.ones(64, dtype=complex)] * 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"L": 10, "M": 64},
            "time": {"T": 0.01, "dt": 1e-3},
            "perturbation": {"kind": kind, "path": str(path)},
        }))
        code = main(["reduced", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert field in capsys.readouterr().err
        assert load_status(tmp_path / "o")["status"] == "ConfigError"

    @pytest.mark.parametrize("content,field", [([1, 2], "top level"),
                                               ({"grid": [1]}, "grid")])
    def test_flag_on_a_malformed_file_exits_2(self, tmp_path, capsys, content, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(content))
        code = main(["traveling-wave", "--config", str(path), "--M", "1024",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_wave_flags_override_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"config": {"c2": 1.8}, "grid": {"L": 100.0, "M": 4096}}
        ))
        code = main(["traveling-wave", "--config", str(path), "--c2", "1.9",
                     "--L", "30", "--M", "1024", "--out", str(tmp_path / "p.csv")])
        assert code == 0
        echo = load_status(tmp_path)["config"]
        assert echo["config"]["c2"] == 1.9
        assert echo["grid"] == {"L": 30.0, "M": 1024}

    def test_status_echo_has_the_schema_keys(self, tmp_path):
        assert main(["stability", "--out", str(tmp_path)]) == 0
        echo = load_status(tmp_path)["config"]
        assert set(echo) == {"scenario", *SCHEMA}
        for section, keys in SCHEMA.items():
            assert set(echo[section]) == set(keys)

    def test_cold_start_imports_no_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "import vfsim.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "code = vfsim.cli.main(['traveling-wave', '--L', '30', '--M', '1024',"
            " '--out', sys.argv[1]])\n"
            "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(code, sorted(set(loaded)))\n"
        )
        src = os.path.dirname(os.path.dirname(vfsim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.splitlines()[-1] == "0 []"
        assert load_status(tmp_path)["versions"]["scipy"]


def test_no_guard_depends_on_assert():
    """Bad input surfaces under ``python -O`` too: no module of the package
    checks with an assert statement, except ``coercivity_check``, whose
    AssertionError ``test_band_edge_separates_constants`` pins."""
    package = os.path.dirname(vfsim.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        allowed = {
            id(node)
            for func in ast.walk(tree)
            if name == "filaments.py" and isinstance(func, ast.FunctionDef)
            and func.name == "coercivity_check"
            for node in ast.walk(func)
        }
        found += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert) and id(node) not in allowed
        ]
    assert found == []


def test_scenario_table_runners_and_subcommands_are_one_set():
    """The scenario records, ``runner._DISPATCH`` and the CLI subcommands
    share one set of names; each subcommand offers exactly its record's
    flags, and each runner takes exactly its record's run options."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(SCENARIOS) == set(runner._DISPATCH)
    assert set(SCENARIOS) == {command.replace("-", "_") for command in sub.choices}
    offered = {
        command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for command, p in sub.choices.items()
    }
    common = {"--config", "--out"}
    assert offered == {
        "point-vortex": common, "stability": common, "helix": common,
        "reduced": common | {"--dump-fields"},
        "square": common | {"--dump-fields", "--seed"},
        "collision": common | {"--dump-fields", "--seed"},
        "traveling-wave": common | {"--omega", "--c2", "--L", "--M", "--sweep"},
    }
    for name, record in SCENARIOS.items():
        params = list(inspect.signature(runner._DISPATCH[name]).parameters)
        assert params == ["cfg", "out_dir", "report", *record.options]


def test_no_scenario_tag_outside_the_table():
    """Outside ``config.SCENARIOS`` and ``runner._DISPATCH``, no package
    module compares a scenario tag (``cfg.scenario``, ``tag``, ``scenario``)
    with a string literal, or keys a dict or a lookup by a scenario name.
    ``BACKBONE_KINDS`` and ``filaments._IDENTITIES`` key shapes, such as the
    backbone kind "square", not scenarios."""
    exempt = {"SCENARIOS", "_DISPATCH", "BACKBONE_KINDS", "_IDENTITIES"}

    def is_tag(node):
        return ((isinstance(node, ast.Name) and node.id in ("tag", "scenario"))
                or (isinstance(node, ast.Attribute) and node.attr == "scenario"))

    def literals(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return {value for elt in node.elts for value in literals(elt)}
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {node.value}
        return set()

    found = []
    for path, tree in _source_trees(os.path.dirname(vfsim.__file__)):
        skipped = {
            id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) in exempt for t in stmt.targets)
            for node in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                bad = any(map(is_tag, operands)) and any(map(literals, operands))
            elif isinstance(node, ast.Dict):
                bad = any(key is not None and literals(key) & set(SCENARIOS)
                          for key in node.keys)
            elif isinstance(node, ast.Subscript):
                bad = bool(literals(node.slice) & set(SCENARIOS))
            else:
                continue
            if bad:
                found.append(f"{os.path.basename(path)}:{node.lineno}")
    assert found == []


def _source_trees(*dirs):
    """(path, ast) of every Python file under the given directories."""
    for top in dirs:
        for base, _, names in sorted(os.walk(top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def test_every_import_is_used():
    """Each name a package module imports is read in that module or listed
    in its ``__all__`` (a docstring mention does not count)."""
    unused = []
    for path, tree in _source_trees(os.path.dirname(vfsim.__file__)):
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                read |= set(ast.literal_eval(node.value))
        unused += [f"{os.path.basename(path)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []


def test_every_constant_is_read():
    """Each module-level UPPER_CASE constant of the package is read somewhere
    in ``src``, ``tests`` or ``perfbench`` besides its own assignment."""
    package = os.path.dirname(vfsim.__file__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    constants, reads = {}, set()
    for path, tree in _source_trees(package):
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                name = getattr(target, "id", "")
                if name.strip("_").replace("_", "").isupper():
                    constants[name] = f"{os.path.basename(path)}:{node.lineno}"
    dirs = [os.path.join(root, name) for name in ("tests", "perfbench")]
    for _, tree in _source_trees(os.path.dirname(package), *dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    assert sorted(f"{where} {name}" for name, where in constants.items()
                  if name not in reads) == []


def test_every_error_is_raised_and_read():
    """Each class of ``errors.py`` is called in another package module or is
    the base of one that is, and each attribute an error stores on ``self``
    is loaded somewhere in ``src``, ``tests`` or ``perfbench`` outside
    ``errors.py``; a message keeps what no caller reads."""
    package = os.path.dirname(vfsim.__file__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    errors_py = os.path.join(package, "errors.py")
    with open(errors_py, encoding="utf-8") as fh:
        classes = [n for n in ast.parse(fh.read()).body if isinstance(n, ast.ClassDef)]
    bases = {node.name: {getattr(b, "id", None) for b in node.bases} for node in classes}
    stores = {
        sub.attr: f"{node.name}.{sub.attr}" for node in classes for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
        and getattr(sub.value, "id", None) == "self"
    }
    called, loaded = set(), set()
    dirs = [os.path.join(root, name) for name in ("tests", "perfbench")]
    for path, tree in _source_trees(os.path.dirname(package), *dirs):
        if path == errors_py:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and path.startswith(package):
                called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    used = called & set(bases)
    for name in reversed(list(bases)):  # each subclass before its bases
        if name in used:
            used |= bases[name]
    assert sorted(set(bases) - used) == []
    assert sorted(where for attr, where in stores.items() if attr not in loaded) == []


def test_every_default_is_set():
    """Each defaulted parameter of a module-level package function is passed,
    by position, by keyword or through ``**``, at some call of that name in
    ``src``, ``tests`` or ``perfbench``; a default nothing overrides is a
    fixed value, not an option."""
    package = os.path.dirname(vfsim.__file__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    defaults = {}
    for path, tree in _source_trees(package):
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in named:
                index = positional.index(arg) if arg in positional else None
                defaults[(node.name, arg.arg)] = (index, f"{os.path.basename(path)}:{node.lineno}")
    passed = set()
    dirs = [os.path.join(root, name) for name in ("tests", "perfbench")]
    for _, tree in _source_trees(os.path.dirname(package), *dirs):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            spread = any(k.arg is None for k in node.keywords)
            for (fn, arg), (index, _) in defaults.items():
                if fn == name and (
                    spread or any(k.arg == arg for k in node.keywords)
                    or (index is not None and (starred or index < len(node.args)))
                ):
                    passed.add((fn, arg))
    assert sorted(f"{where} {fn}({arg}=)" for (fn, arg), (_, where) in defaults.items()
                  if (fn, arg) not in passed) == []


def test_test_only_api_only_shrinks():
    """The module-level public functions of the package whose name no module
    of the package loads are reached only from tests or perfbench.  That
    set may lose members (a run that reports an identity takes its helper
    off the list) but never gain one."""
    frozen = {
        "config.parse_config",
        "filaments.check_Lv_vanishes", "filaments.coercivity_check",
        "filaments.collision_initial_state", "filaments.evolve",
        "filaments.growth_monitors", "filaments.hexagon_energy_identity",
        "filaments.interaction_rhs", "filaments.max_pair_norm",
        "filaments.segment_energy_identity", "filaments.square_energy_identity",
        "filaments.vw_decompose", "filaments.zero_perturbations",
        "grid.boundary_deviation", "grid.constant_field", "grid.linear_propagate",
        "point_vortex.config_rhs", "point_vortex.invariants",
        "reduced.boost_trajectory", "reduced.check_ginzburg",
        "reduced.collision_modulus_bound", "reduced.compare_energies",
        "reduced.evolve_bm", "reduced.galilean_boost",
        "reduced.reconstruct_filaments", "reduced.step_bm",
        "traveling_wave.a_of", "traveling_wave.gp_soliton", "traveling_wave.wronskian",
    }
    public, loaded = set(), set()
    for path, tree in _source_trees(os.path.dirname(vfsim.__file__)):
        module = os.path.basename(path)[:-3]
        public |= {(module, node.name) for node in tree.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    found = {f"{module}.{name}" for module, name in public if name not in loaded}
    assert sorted(found - frozen) == []
