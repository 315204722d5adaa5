"""Command-line surface.

Subcommands: simulate, fixed-points, flow, shadow, scan, localize, validate.
Global flags: --config, --seed, --out, --threads, --quiet.
Exit codes: 0 success, 1 a validate self-check failed, 2 configuration
error, 3 I/O error, 4 a run or sweep failed (a run raised NumericError or
RunawayRateError, or more than 10% of a scan's rows failed: SweepError).

`run` is the program's entry point (`python -m sivjp`, `python -m
sivjp.cli`, the `sivjp` script): it calls `main` and ends the process
without tearing the interpreter down. `main` returns the exit code, for
callers in the same process.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from dataclasses import replace
from typing import NoReturn

from .errors import ConfigError, DomainError, NumericError, RunawayRateError, SweepError
from .geometry import THRESHOLD_GRID
from .harness import (ExperimentConfig, cmd_fixed_points, cmd_flow, cmd_localize,
                      cmd_scan, cmd_shadow, cmd_simulate, cmd_validate)
from .rng import SeedSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUN_FAILED = 4

# most worker processes a command may start: each peaks near 33 MB resident
# (scan, simulate and localize at --threads 2), so 64 need at most 2.1 GB
MAX_THREADS = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sivjp",
        description="Self-interacting velocity jump process experiments")
    parser.add_argument("--config", help="path to an experiment config (JSON)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides the config)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for seed sweeps")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="seeded self-interacting runs")
    sub.add_parser("fixed-points", help="fixed-point census and thresholds")
    sub.add_parser("flow", help="integrate the limiting moment flow")
    sub.add_parser("shadow", help="how closely one run's moments shadow the flow")
    sub.add_parser("scan", help="rho sweep producing bifurcation data")
    sub.add_parser("localize", help="multi-well localization experiment")
    val = sub.add_parser("validate", help="run the self-check suite")
    val.add_argument("--quad-n", type=int, default=16,
                     help="grid size for the quadrature exactness check")
    return parser


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError(f"{args.command} requires --config")
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:  # SeedSpec range-checks the override
        cfg = replace(cfg, master_seed=SeedSpec(args.seed).master_seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 1 <= args.threads <= MAX_THREADS:
            raise ConfigError(f"--threads must be in [1, {MAX_THREADS}], got {args.threads}")
        if args.command == "validate":
            # the finest grid the package integrates on bounds the check's grid
            if not 4 <= args.quad_n <= THRESHOLD_GRID.n or args.quad_n % 2:
                raise ConfigError(f"--quad-n must be even and in [4, {THRESHOLD_GRID.n}], "
                                  f"got {args.quad_n}")
            master = SeedSpec(args.seed).master_seed if args.seed is not None else 0
            report = cmd_validate(out_dir=args.out, master_seed=master,
                                  quad_n=args.quad_n, quiet=args.quiet)
            return EXIT_OK if report["all_passed"] else 1
        cfg = _load_config(args)
        out = args.out or cfg.output_dir or "out"
        if args.command == "simulate":
            cmd_simulate(cfg, out, threads=args.threads, quiet=args.quiet)
        elif args.command == "fixed-points":
            cmd_fixed_points(cfg, out, quiet=args.quiet)
        elif args.command == "flow":
            cmd_flow(cfg, out, quiet=args.quiet)
        elif args.command == "shadow":
            cmd_shadow(cfg, out, quiet=args.quiet)
        elif args.command == "scan":
            cmd_scan(cfg, out, threads=args.threads, quiet=args.quiet)
        else:
            cmd_localize(cfg, out, threads=args.threads, quiet=args.quiet)
        return EXIT_OK
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, RunawayRateError, SweepError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED


def run(argv: list[str] | None = None) -> NoReturn:
    """Run `main` and exit with its code, skipping the interpreter's
    teardown (its last garbage collections and module clean-up).

    Every output is closed by a `with` and every pool joined before `main`
    returns, so nothing is lost. What finalization would still do comes
    first, in its order: wait for threads (and their exit hooks), run the
    `atexit` handlers, flush stdout and stderr. A `SystemExit` or an error
    raised in `main`, or a failed flush, takes the normal exit instead,
    which re-flushes and reports the failure with exit code 120.
    """
    code = main(argv)
    if "threading" in sys.modules:
        sys.modules["threading"]._shutdown()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None and not stream.closed:
                stream.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
