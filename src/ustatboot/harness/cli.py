"""Command-line entry point.

    ustat-boot <experiment> --config cfg.json [--seed S] [--out out.csv]
               [--workers N]
    ustat-boot --dump-defaults <experiment>

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .. import __version__
from ..lp import SimplexError
from ..matstat import NotPositiveDefiniteError
from .config import EXPERIMENT_NAMES, ConfigError, default_config, load_config
from .experiments import run_experiment

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ustat-boot",
        description="Bootstrap experiments for sup-norms of matrix U-statistics.",
    )
    parser.add_argument(
        "--dump-defaults",
        metavar="EXPERIMENT",
        choices=EXPERIMENT_NAMES,
        help="print the default JSON config for an experiment and exit",
    )
    sub = parser.add_subparsers(dest="experiment")
    for name in EXPERIMENT_NAMES:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
        sp.add_argument(
            "--workers", type=int, default=None, help="process count override"
        )
    return parser


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(stream, columns, rows) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])


def _unwritable(out: Path) -> str | None:
    """Why the CSV at ``out`` or its sidecar cannot be written, found
    without creating either; None when both can be."""
    if not out.parent.is_dir():
        return f"cannot write {out}: {out.parent} is not a directory"
    for path in (out, out.with_name(out.name + ".meta.json")):
        if path.is_dir():
            return f"cannot write {path}: it is a directory"
        if not os.access(path if path.exists() else path.parent, os.W_OK):
            return f"cannot write {path}: permission denied"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.dump_defaults is not None:
        cfg = default_config(args.dump_defaults)
        json.dump(cfg.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK

    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print("error: an experiment name or --dump-defaults is required", file=sys.stderr)
        return EXIT_CONFIG

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers

    try:
        cfg = load_config(args.config, args.experiment, **overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # an output that cannot be written fails now, not after the run
    out = None if args.out is None else Path(args.out)
    if out is not None and (problem := _unwritable(out)):
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG

    start = time.monotonic()
    try:
        result = run_experiment(cfg)
    except (
        NotPositiveDefiniteError,
        SimplexError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    elapsed = time.monotonic() - start

    if out is None:
        _write_csv(sys.stdout, result.columns, result.rows)
        return EXIT_OK

    with out.open("w", newline="") as fh:
        _write_csv(fh, result.columns, result.rows)
    meta = {
        "experiment": cfg.experiment,
        "config": _json_safe(cfg.to_dict()),
        "version": __version__,
        "rows": len(result.rows),
        "columns": result.columns,
        "wall_time_seconds": round(elapsed, 3),
        "summary": _json_safe(result.summary),
    }
    with out.with_name(out.name + ".meta.json").open("w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
