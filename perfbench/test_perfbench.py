"""Tests of the benchmark itself: its checks, seeds, tracer and exit codes.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest perfbench -q

One real round of every workload is made first (about 25 s); each check
must pass on that output and fail once a single value in it is corrupted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import spans
from workloads import WORKLOADS, hexagon_config, operations

import vfsim.runner as runner
from vfsim.config import parse_config_dict, scenario_defaults
from vfsim.grid import make_grid

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    """label -> output directory of one real round of every workload."""
    root = tmp_path_factory.mktemp("round")
    dirs = {}
    for workload in WORKLOADS:
        for label, scenario, data, kwargs in operations(workload, 0):
            cfg = scenario_defaults(scenario) if data is None else parse_config_dict(data)
            dirs[label] = str(root / label)
            runner.run(cfg, dirs[label], **kwargs)
    return dirs


@pytest.fixture
def copy_of(outputs, tmp_path):
    def make(label: str) -> str:
        dest = str(tmp_path / label)
        shutil.copytree(outputs[label], dest)
        return dest
    return make


def edit_csv(path: str, column: str, row: int, change) -> None:
    """Replace one cell of a CSV by ``change(old value)``."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row if row >= 0 else row].split(",")
    cells[header.index(column)] = repr(change(float(cells[header.index(column)])))
    lines[1 + row if row >= 0 else row] = ",".join(cells)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def edit_status(path: str, change) -> None:
    name = os.path.join(path, "status.json")
    with open(name, encoding="ascii") as fh:
        status = json.load(fh)
    change(status)
    with open(name, "w", encoding="ascii") as fh:
        json.dump(status, fh)


@pytest.mark.parametrize("label", sorted(checks.CHECKS))
def test_check_passes_on_real_output(outputs, label):
    assert checks.check(label, outputs[label]) == []


def _set(key, value, section="hitting_times"):
    return lambda status: status[section].__setitem__(key, value)


CORRUPTIONS = {
    "collision": [
        ("status", lambda d: edit_status(d, lambda s: s.__setitem__("status", "Completed"))),
        ("sigma_star", lambda d: edit_status(d, _set("sigma_star", 0.1))),
        ("pair", lambda d: edit_status(d, _set("pair", [1, 2]))),
        ("halt_early", lambda d: edit_status(d, _set("collision_time", 0.7))),
        ("halt_late", lambda d: edit_status(d, _set("collision_time", 0.9905))),
        ("min_sep", lambda d: edit_csv(os.path.join(d, "energies.csv"), "min_sep", 2,
                                       lambda v: v + 1e-7)),
    ],
    "hexagon": [
        ("status", lambda d: edit_status(d, lambda s: s.__setitem__("status", "EnergyCapExceeded"))),
        ("H", lambda d: edit_csv(os.path.join(d, "energies.csv"), "H", 50,
                                 lambda v: v * (1 + 2e-6))),
        ("A", lambda d: edit_csv(os.path.join(d, "energies.csv"), "A", 50,
                                 lambda v: v + 1e-9)),
    ],
    "reduced": [
        ("E_drift", lambda d: edit_csv(os.path.join(d, "energies.csv"), "E", 200,
                                       lambda v: v * (1 + 2e-6))),
        ("E0", lambda d: edit_csv(os.path.join(d, "energies.csv"), "E", 0,
                                  lambda v: v + 1e-9)),
        ("min_mod", lambda d: edit_csv(os.path.join(d, "energies.csv"), "min_mod", 100,
                                       lambda v: 0.04)),
    ],
    "point_vortex": [
        ("invariant", lambda d: edit_csv(os.path.join(d, "trajectory.csv"), "re_X1", 5000,
                                         lambda v: v + 1e-7)),
        ("rotation", lambda d: edit_csv(os.path.join(d, "trajectory.csv"), "im_X2", -1,
                                        lambda v: v + 1e-7)),
    ],
    "sweep": [
        ("residual", lambda d: edit_csv(os.path.join(d, "sweep.csv"), "residual", 3,
                                        lambda v: 2e-6)),
        ("exponent", lambda d: edit_csv(os.path.join(d, "sweep.csv"), "energy", 0,
                                        lambda v: v * 3.0)),
    ],
    "helix": [
        ("residual", lambda d: edit_status(d, _set("residual", 2e-6, "constants"))),
        ("turn", lambda d: edit_csv(os.path.join(d, "helix_t1.csv"), "im_2", 777,
                                    lambda v: v + 1e-9)),
    ],
}


@pytest.mark.parametrize(
    "label,what,corrupt",
    [pytest.param(label, what, corrupt, id=f"{label}-{what}")
     for label, cases in CORRUPTIONS.items() for what, corrupt in cases],
)
def test_check_fails_on_corrupted_output(copy_of, label, what, corrupt):
    path = copy_of(label)
    corrupt(path)
    assert checks.check(label, path), f"{label} check missed a corrupted {what}"


@pytest.mark.parametrize("label", sorted(checks.CHECKS))
def test_check_fails_on_missing_output(copy_of, label):
    path = copy_of(label)
    for name in os.listdir(path):
        if name != "status.json":
            os.remove(os.path.join(path, name))
    assert checks.check(label, path)


def test_collision_crossing_time_is_the_closed_form_edge():
    # the exact profile crosses the 2 % threshold just before t = 0.99
    assert 0.989 < checks.collision_crossing_time() < 0.99


def test_seed_changes_hexagon_inputs():
    def initial(seed):
        cfg = parse_config_dict(hexagon_config(seed))
        state = runner.build_filament_state(cfg, make_grid(cfg.L, cfg.M))
        return np.stack([f.values for f in state.u])

    assert np.array_equal(initial(3), initial(3))
    assert not np.allclose(initial(3), initial(4))
    assert all(operations(w, 3) == operations(w, 4)
               for w in WORKLOADS if w != "hexagon-bumps")


def test_tracer_self_times_partition_the_root():
    import vfsim.grid as grid
    import vfsim.runner as vr

    tracer = spans.Tracer()
    original = grid.make_grid
    tracer.install()
    try:
        assert vr.make_grid is grid.make_grid is not original
        g = vr.make_grid(10.0, 64)
        grid.derivative(grid.make_field(g, np.exp(-g.nodes**2) + 0j))
    finally:
        tracer.uninstall()
    assert grid.make_grid is original and vr.make_grid is original
    agg = spans.summarize(tracer.spans)
    assert agg["grid.make_grid"]["calls"] == 1
    assert agg["grid.derivative"]["calls"] == 1
    # make_grid's fftfreq is not fft/ifft; derivative makes one fft and one ifft
    assert agg["grid.fft"]["calls"] == 2
    d = agg["grid.derivative"]
    assert d["self_s"] == pytest.approx(d["s"] - agg["grid.fft"]["s"], abs=1e-9)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collision",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
