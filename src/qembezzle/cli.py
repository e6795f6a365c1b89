"""Command-line entry point: one subcommand per experiment, plus replay.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, QEmbezzleError
from .experiments import EXPERIMENTS, config_from_dict, replay_manifest, run_experiment


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="64-bit master seed")
    parser.add_argument("--out", type=str, help="CSV output path")
    parser.add_argument("--threads", type=int, help="ignored; accepted so older commands still run")
    parser.add_argument("--d", type=int, help="local dimension")
    parser.add_argument("--epsilon", type=float, help="single error budget")
    parser.add_argument(
        "--epsilon-grid", type=float, nargs="+", dest="epsilon_grid", help="error budget grid"
    )
    parser.add_argument("--candidates", type=int, help="random full-rank candidates (N)")
    parser.add_argument("--samples", type=int, help="Monte Carlo sample count (S)")
    parser.add_argument("--state-source", type=str, dest="state_source",
                        help="fixture:<table>[:<row>] | file:<path> | random")
    parser.add_argument("--resolution", type=int, help="simplex raster resolution")
    parser.add_argument("--threshold", type=float, help="fidelity threshold for the region map")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qembezzle",
        description="Catalytic teleportation and distillation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common(p)
    rp = sub.add_parser("replay", help="re-run a manifest and verify the CSV digest")
    rp.add_argument("--manifest", type=str, required=True)
    rp.add_argument("--out", type=str, help="write the replayed CSV here instead")
    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    doc: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError("config", f"no such file: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config", "top level must be an object")
    doc["experiment"] = args.command
    # Every other flag of _add_common is named after the config field it overrides.
    for name, value in vars(args).items():
        if name not in ("command", "config", "out") and value is not None:
            doc[name] = value
    if args.out:
        doc["output_path"] = args.out
    return doc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            result = replay_manifest(args.manifest, args.out)
            print(f"replayed {result.csv_path} ({len(result.table.rows)} rows, digest verified)")
            return 0
        cfg = config_from_dict(_config_from_args(args))
        result = run_experiment(cfg)
        print(
            f"wrote {result.csv_path} ({len(result.table.rows)} rows) "
            f"and {result.manifest_path} in {result.manifest['wall_time_s']:.2f}s"
        )
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QEmbezzleError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
