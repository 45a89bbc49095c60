"""The benchmark's workloads: which scenario configs each one runs.

Every workload is a list of operations, one ``vfsim.runner.run`` call each.
An operation is ``(label, scenario, config dict or None, run keyword
arguments)``.  As in the CLI, None takes ``vfsim.config.scenario_defaults``
(the preset) and a dict goes through ``vfsim.config.parse_config_dict``, as a
``--config`` file would.  The worker writes the run's files into
``<round dir>/<label>``.  This module imports nothing outside the standard
library, so the worker can time the import of vfsim from a clean start.
"""

from __future__ import annotations

WORKLOADS = ("collision", "hexagon-bumps", "reduced", "backbone-waves")


def operations(workload: str, seed: int) -> list[tuple[str, str, dict | None, dict]]:
    """The operations of one round of ``workload`` for benchmark seed ``seed``.

    Only ``hexagon-bumps`` depends on the seed: it becomes the perturbation
    seed of its independent random bumps.  The other workloads are the CLI
    presets, unchanged.
    """
    if workload == "collision":
        return [("collision", "collision", None, {})]
    if workload == "hexagon-bumps":
        return [("hexagon", "square", hexagon_config(seed), {})]
    if workload == "reduced":
        return [("reduced", "reduced", None, {})]
    if workload == "backbone-waves":
        return [
            ("point_vortex", "point_vortex", None, {}),
            ("sweep", "traveling_wave", None,
             {"sweep": "c2=1.99:1.90:10", "out_name": "sweep.csv"}),
            ("helix", "helix", None, {}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def hexagon_config(seed: int) -> dict:
    """Six unit-circulation filaments on a hexagon with random Gaussian bumps."""
    return {
        "scenario": "square",
        "config": {"kind": "hexagon"},
        "grid": {"L": 40.0, "M": 1024},
        "perturbation": {"kind": "gaussian", "amp": 0.01, "seed": seed},
        "time": {"T": 1.0, "dt": 1e-3},
    }
