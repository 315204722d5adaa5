"""Command-line surface.

Subcommands: simulate, fixed-points, flow, scan, localize, validate.
Global flags: --config, --seed, --out, --threads, --quiet.
Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 a run or sweep
failed (a run raised NumericError or RunawayRateError, or more than 10% of
a scan's rows failed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, DomainError, NumericError, RunawayRateError
from .harness import (ExperimentConfig, cmd_fixed_points, cmd_flow,
                      cmd_localize, cmd_scan, cmd_simulate, cmd_validate)
from .rng import SeedSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUN_FAILED = 4


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


def _out_dir(args, cfg: ExperimentConfig | None) -> str:
    if args.out:
        return args.out
    if cfg is not None and cfg.output_dir:
        return cfg.output_dir
    return "out"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "validate":
            if args.quad_n < 4 or args.quad_n % 2:
                raise ConfigError(f"--quad-n must be even and >= 4, got {args.quad_n}")
            master = args.seed if args.seed is not None else 0
            report = cmd_validate(out_dir=args.out, master_seed=master,
                                  quad_n=args.quad_n, quiet=args.quiet)
            return EXIT_OK if report["all_passed"] else 1
        cfg = _load_config(args)
        out = _out_dir(args, cfg)
        if args.command == "simulate":
            cmd_simulate(cfg, out, threads=args.threads, quiet=args.quiet)
            return EXIT_OK
        if args.command == "fixed-points":
            cmd_fixed_points(cfg, out, quiet=args.quiet)
            return EXIT_OK
        if args.command == "flow":
            cmd_flow(cfg, out, quiet=args.quiet)
            return EXIT_OK
        if args.command == "scan":
            code, _ = cmd_scan(cfg, out, threads=args.threads, quiet=args.quiet)
            return code
        if args.command == "localize":
            cmd_localize(cfg, out, threads=args.threads, quiet=args.quiet)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, RunawayRateError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED


if __name__ == "__main__":
    sys.exit(main())
