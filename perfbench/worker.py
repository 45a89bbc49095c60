"""One round of a workload in a fresh process.

Usage (run.py starts it; PYTHONPATH must hold the checkout's ``src``)::

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR T0 TRACE

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, the import of
``vfsim.runner`` and config parsing, up to the first ``runner.run`` call.
The round then makes the workload's ``runner.run`` calls (``solve_s``),
checks every output, and prints one JSON line.  With TRACE = 1 the layer
functions are wrapped first and the per-layer metrics are added.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import operations


def main(argv: list[str]) -> dict:
    workload, seed, out_dir, t0, trace = argv
    started = time.perf_counter()
    import vfsim.runner as runner
    from vfsim.config import parse_config_dict, scenario_defaults
    import_s = time.perf_counter() - started

    ops = [
        (label,
         scenario_defaults(scenario) if data is None else parse_config_dict(data),
         kwargs,
         os.path.join(out_dir, label))
        for label, scenario, data, kwargs in operations(workload, int(seed))
    ]
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - float(t0)
    crashed = {}
    start = time.perf_counter()
    for label, cfg, kwargs, path in ops:
        try:
            runner.run(cfg, path, **kwargs)
        except Exception as exc:  # counted as a failed operation
            crashed[label] = [f"runner.run raised {type(exc).__name__}: {exc}"]
    solve_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    failures = {label: crashed.get(label) or checks.check(label, path)
                for label, _, _, path in ops}
    result = {
        "ops": len(ops),
        "failures": failures,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = traced_layers(tracer, ops, import_s, solve_s, out_dir)
    return result


def traced_layers(tracer, ops, import_s: float, solve_s: float, out_dir: str) -> dict:
    from spans import layer_metrics

    steps = 0
    for label, cfg, _, path in ops:
        if label in ("collision", "hexagon"):
            # the last report sits at the end of the last completed step
            with open(os.path.join(path, "energies.csv"), encoding="ascii") as fh:
                last_t = float(fh.read().splitlines()[-1].split(",")[0])
            steps += round(last_t / cfg.dt)
    layers = layer_metrics(tracer.spans, steps)
    layers["setup.import_s"] = import_s
    layers["trace.solve_s"] = solve_s
    layers["filaments.interaction_rhs.call_us"] = interaction_rhs_us(ops)
    layers["runner.write.bytes"] = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(out_dir) for name in names
    )
    with open(os.path.join(out_dir, "spans.jsonl"), "w", encoding="ascii") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return layers


def interaction_rhs_us(ops) -> float:
    """Median microseconds of ``filaments.interaction_rhs`` on the initial state."""
    import statistics

    from vfsim.filaments import collision_initial_state, interaction_rhs
    from vfsim.grid import make_grid
    from vfsim.runner import build_filament_state

    for label, cfg, _, _ in ops:
        if label not in ("collision", "hexagon"):
            continue
        grid = make_grid(cfg.L, cfg.M)
        if label == "collision":
            state = collision_initial_state(cfg.N, grid)
        else:
            state = build_filament_state(cfg, grid)
        times = []
        for _ in range(200):
            start = time.perf_counter()
            interaction_rhs(state, cfg.delta_min)
            times.append(time.perf_counter() - start)
        return 1e6 * statistics.median(times)
    return 0.0


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
