"""Benchmark of vfsim's scenarios, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload collision --seed 0 --seconds 20 --trace 0

A run repeats whole rounds of the workload for as long as another round,
as long as the last one, still ends within ``--seconds`` (at least one).  Each round is a fresh worker process that imports
vfsim from the checkout's ``src``, makes the workload's ``runner.run``
calls and checks every output (see worker.py, workloads.py, checks.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the medians over rounds of ``setup_s``, ``solve_s`` and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced rounds alternate, and the object
holds the medians of the per-layer metrics of the traced rounds (see
spans.py) plus ``trace.overhead_s``, the traced minus the untraced median
``solve_s``.  Either way it also holds ``attempted`` and ``failed``, which
count ``runner.run`` calls and those whose output failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, operations

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
DEADLINE_S = 170.0  # a run ends, worker killed if need be, within this


def run_round(workload: str, seed: int, out_dir: str, trace: bool,
              timeout: float) -> dict:
    """One worker process; a worker that dies fails every operation."""
    src = os.path.join(os.getcwd(), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), out_dir]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [repr(t0), "1" if trace else "0"],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        reason = f"worker killed after {timeout:.0f} s"
    else:
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            reason = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    labels = [op[0] for op in operations(workload, seed)]
    return {"ops": len(labels), "failures": {label: [reason] for label in labels}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.monotonic()
    if not os.path.isfile(os.path.join("src", "vfsim", "runner.py")):
        print("run.py: no src/vfsim here; run from the root of a vfsim checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("run.py: --seed must be >= 0", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    rounds: list[dict] = []
    traced: list[dict] = []
    last = 0.0  # duration of the latest round; the next one would take as long
    while not rounds or (
        time.monotonic() - began + last <= min(args.seconds, DEADLINE_S)
    ):
        start = time.monotonic()
        for trace in ((False, True) if args.trace else (False,)):
            out_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
            shutil.rmtree(out_dir, ignore_errors=True)
            remaining = DEADLINE_S - (time.monotonic() - began)
            result = run_round(args.workload, args.seed, out_dir, trace, remaining)
            if trace and os.path.isfile(os.path.join(out_dir, "spans.jsonl")):
                os.replace(os.path.join(out_dir, "spans.jsonl"),
                           os.path.join(WORK, f"spans-{args.workload}.jsonl"))
            shutil.rmtree(out_dir, ignore_errors=True)
            (traced if trace else rounds).append(result)
            for label, fails in result["failures"].items():
                for msg in fails:
                    print(f"FAIL {label}: {msg}", file=sys.stderr)
            print(
                f"round {len(rounds)}{' traced' if trace else ''}: "
                + ", ".join(f"{key} {result[key]:.4f}"
                            for key in ("setup_s", "solve_s", "peak_rss_mb")
                            if key in result),
                flush=True,
            )
        last = time.monotonic() - start

    everything = rounds + traced
    attempted = sum(r["ops"] for r in everything)
    failed = sum(1 for r in everything for f in r["failures"].values() if f)
    ok = [r for r in rounds if "solve_s" in r]
    if args.trace:
        ok_traced = [r for r in traced if "layers" in r]
        metrics = {}
        if ok_traced:
            for name in ok_traced[0]["layers"]:
                value = statistics.median(r["layers"][name] for r in ok_traced)
                metrics[name] = {"value": value, "unit": unit_of(name)}
        if ok and ok_traced:
            overhead = (statistics.median(r["solve_s"] for r in ok_traced)
                        - statistics.median(r["solve_s"] for r in ok))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        units = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}
        metrics = {
            name: {"value": statistics.median(r[name] for r in ok), "unit": unit}
            for name, unit in units.items()
        } if ok else {}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".spans")):
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith(".bytes"):
        return "B"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
