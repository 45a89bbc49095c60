"""Command line interface.

One subcommand per scenario::

    vfsim point-vortex   --config cfg.json --out results/
    vfsim stability      --out results/
    vfsim reduced        --config cfg.json --out results/
    vfsim square         --config cfg.json --out results/ --dump-fields
    vfsim collision      --out results/
    vfsim traveling-wave --omega 1 --c2 1.9 --L 400 --M 65536 --out profile.csv
    vfsim traveling-wave --sweep c2=1.99:1.90:10 --out sweep.csv
    vfsim helix          --out results/

Every run writes ``status.json`` describing the outcome; the process
exit code mirrors the terminal status (0 completed, 2 config error,
3 collision, 4 energy cap, 5 boundary contamination, 6 numerical
guard).  Without ``--config`` the scenario's preset defaults are used.
``--seed``, ``--omega``, ``--c2``, ``--L`` and ``--M`` set the matching
config-file value and are validated like it.
The traveling-wave ``--out`` may name the CSV file directly; for every
other scenario it names the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import SCENARIOS, parse_config_dict, read_config_json
from .errors import ConfigError
from .runner import run

_SUBCOMMANDS = tuple(name.replace("_", "-") for name in SCENARIOS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfsim",
        description="simulate nearly parallel vortex filaments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _SUBCOMMANDS:
        p = sub.add_parser(command, help=f"run the {command} scenario")
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON scenario config (default: scenario preset)")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: out)")
        p.add_argument("--dump-fields", action="store_true",
                       help="also dump sampled fields as fields_t*.csv")
        # a flag whose dest is "section.key" sets that config-file value
        p.add_argument("--seed", metavar="S", type=int, dest="perturbation.seed",
                       help="override the perturbation seed")
        if command == "traveling-wave":
            p.add_argument("--omega", type=float, dest="config.omega", metavar="OMEGA",
                           help="rotation rate of the background square")
            p.add_argument("--c2", type=float, dest="config.c2", metavar="C2",
                           help="squared wave speed (0 < c2 < 2*omega)")
            p.add_argument("--L", type=float, dest="grid.L", metavar="L",
                           help="domain half-length")
            p.add_argument("--M", type=int, dest="grid.M", metavar="M",
                           help="number of grid points (even, from 8 to 2**24)")
            p.add_argument("--sweep", metavar="c2=START:STOP:COUNT",
                           default=None,
                           help="sweep c2 instead of building one profile")
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
    except ConfigError as exc:
        print(f"vfsim: config error at {exc.field}: {exc.reason}",
              file=sys.stderr)
        return 2

    out = args.out
    out_name = None
    if scenario == "traveling_wave" and out.endswith(".csv"):
        out_name = os.path.basename(out)
        out = os.path.dirname(out) or "."

    report = run(
        cfg, out,
        dump_fields=args.dump_fields,
        sweep=getattr(args, "sweep", None),
        out_name=out_name,
    )
    if "error" in report.constants:
        print(f"vfsim: {report.status}: {report.constants['error']}", file=sys.stderr)
    print(f"vfsim: {report.status} (exit {report.exit_code}), "
          f"wrote {len(report.files)} file(s) + status.json to {out}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
