"""Command line interface.

One subcommand per scenario::

    vfsim point-vortex   --config cfg.json --out results/
    vfsim stability      --out results/
    vfsim reduced        --config cfg.json --out results/ --dump-fields
    vfsim square         --config cfg.json --out results/ --dump-fields --seed 7
    vfsim collision      --out results/
    vfsim traveling-wave --omega 1 --c2 1.9 --L 400 --M 65536 --out profile.csv
    vfsim traveling-wave --sweep c2=1.99:1.90:10 --out sweep.csv
    vfsim helix          --out results/

Every run writes ``status.json`` describing the outcome; the process
exit code mirrors the terminal status (0 completed, 2 config error,
3 collision, 4 energy cap, 5 boundary contamination, 6 numerical
guard).  Without ``--config`` the scenario's preset defaults are used.
A subcommand takes only the flags its ``config.SCENARIOS`` record lists:
``--dump-fields`` (reduced, square, collision), ``--seed`` (square, and
collision, which refuses any seed off its preset), and ``--omega``,
``--c2``, ``--L``, ``--M``, ``--sweep`` and a ``.csv`` ``--out`` naming
the file (traveling-wave).  ``--seed`` and the wave flags set the
config-file value of the same name; a bad or unknown flag, a bad
``--sweep`` or an ``--out`` that cannot be created exits 2 before any
file is written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import SCENARIOS, parse_config_dict, read_config_json
from .errors import ConfigError
from .runner import _parse_sweep, run

# Each flag a scenario record may list: a run option or the file key it sets.
_FLAGS = {
    "dump_fields": dict(action="store_true", help="also dump sampled fields as fields_t*.csv"),
    "sweep": dict(metavar="c2=START:STOP:COUNT", help="sweep c2 instead of building one profile"),
    "perturbation.seed": dict(type=int, metavar="S", help="override the perturbation seed"),
    "config.omega": dict(type=float, metavar="OMEGA",
                         help="rotation rate of the background square"),
    "config.c2": dict(type=float, metavar="C2", help="squared wave speed (0 < c2 < 2*omega)"),
    "grid.L": dict(type=float, metavar="L", help="domain half-length"),
    "grid.M": dict(type=int, metavar="M", help="number of grid points (even, from 8 to 2**24)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vfsim",
                                     description="simulate nearly parallel vortex filaments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, record in SCENARIOS.items():
        command = name.replace("_", "-")
        p = sub.add_parser(command, help=f"run the {command} scenario")
        p.add_argument("--config", metavar="PATH", help="JSON scenario config (default: preset)")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: out)")
        for dest in record.options + record.flags:
            if dest in _FLAGS:  # out_name is the .csv form of --out
                flag = "--" + dest.rpartition(".")[2].replace("_", "-")
                p.add_argument(flag, dest=dest, **_FLAGS[dest])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    scenario = args.command.replace("-", "_")
    try:
        data = {} if args.config is None else read_config_json(args.config)
        for dest, value in vars(args).items():
            section, _, key = dest.partition(".")
            sec = data.get(section, {}) if isinstance(data, dict) else None
            if key and value is not None and isinstance(sec, dict):
                data[section] = {**sec, key: value}
        cfg = parse_config_dict(data, scenario)
        sweep = getattr(args, "sweep", None)
        if sweep is not None:  # checked here too, so a bad sweep writes no file
            _parse_sweep(sweep, cfg.omega)
        out, out_name = args.out, None
        if "out_name" in SCENARIOS[scenario].options and out.endswith(".csv"):
            out_name = os.path.basename(out)
            out = os.path.dirname(out) or "."
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out", f"cannot create the output directory: {exc}") from None
    except ConfigError as exc:
        print(f"vfsim: config error at {exc.field}: {exc.reason}", file=sys.stderr)
        return 2

    report = run(cfg, out, dump_fields=getattr(args, "dump_fields", False), sweep=sweep,
                 out_name=out_name)
    if "error" in report.constants:
        print(f"vfsim: {report.status}: {report.constants['error']}", file=sys.stderr)
    print(f"vfsim: {report.status} (exit {report.exit_code}), "
          f"wrote {len(report.files)} file(s) + status.json to {out}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
