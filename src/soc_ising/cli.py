"""Command-line entry point: soc-ising <command> [flags].

Flags override the config file, which overrides per-command defaults.
--print-config shows the effective flat config and exits.  On success the
exit code is 0 and the last stdout line is a JSON object with the output
paths; on failure the exit code is nonzero and stderr carries a single
JSON error line."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

from .experiments import (COMMANDS, ExperimentConfig, build_config,
                          parse_config_file, run)

# one --flag per config key, in declaration order
_KEYS = [f.name for f in fields(ExperimentConfig) if f.name != "command"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="soc-ising",
        description="Run one experiment command and write its records.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective config and exit")
    for key in _KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            metavar=key.upper())
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {key: getattr(args, key) for key in _KEYS
                     if getattr(args, key) is not None}
        cfg = build_config(args.command, file_values, overrides)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 2
    if args.print_config:
        for key, value in cfg.as_flat().items():
            print(f"{key} = {value}")
        return 0
    try:
        result = run(cfg)
    except Exception as exc:
        print(json.dumps({"error": "runtime", "message": str(exc)}),
              file=sys.stderr)
        return 1
    print(json.dumps({"ok": True, "paths": result["paths"],
                      "n_rows": result["n_rows"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
