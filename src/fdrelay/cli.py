"""Command-line entry points.

Subcommands: ``sweep`` (grid Monte Carlo with CSV/JSON emission),
``trajectory`` (single operating point, per-slot series), ``select-memory``
(stability search for the design memory) and ``validate`` (oracle suite).

Grids accept comma lists ("-10,0,10") or inclusive ranges ("start:stop:step").
Values from a ``--config`` JSON file override command-line flags; the default
seed can be set through the FDRELAY_SEED environment variable.

Exit codes: 0 when every grid point (or oracle check) succeeds, 1 when one
fails (the others are still run and written), 2 for a usage error such as an
unknown flag or an invalid sweep value, which stops before anything runs and
prints one error line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from .harness import SweepSpec, emit_results, memory_from_str, run_sweep
from .memory_select import select_memory
from .validation import run_oracle_suite

SEED_ENV_VAR = "FDRELAY_SEED"


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse '0,5,10' or '-10:20:5' (inclusive range) into a value tuple."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("range step must be positive")
        values = []
        v = start
        while v <= stop + 1e-9:
            values.append(round(v, 9))
            v += step
        return tuple(values)
    return tuple(float(p) for p in text.split(",") if p.strip())


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _add_common_flags(parser: argparse.ArgumentParser, single_point: bool):
    grid_kind = "value" if single_point else "list or start:stop:step range"
    parser.add_argument("--snr-db", type=parse_grid, default=(0.0,), help=f"SNR grid in dB ({grid_kind})")
    parser.add_argument("--inr-db", type=parse_grid, default=(0.0,), help=f"INR grid in dB ({grid_kind})")
    parser.add_argument("--ns", type=int, default=2, help="antennas per source")
    parser.add_argument("--nr", type=int, default=5, help="relay antennas")
    parser.add_argument("--realizations", type=int, default=100, help="channel realizations")
    parser.add_argument("--iterations", type=int, default=30, help="alternating iterations per slot")
    parser.add_argument("--tol", type=float, default=1e-8, help="relative convergence tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base seed (default: ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--config", default=None,
                        help="JSON file with sweep fields; overrides flags")


def _add_run_flags(parser: argparse.ArgumentParser):
    """Flags of the commands that run trajectories and write their records."""
    parser.add_argument("--slots", type=int, default=10, help="full-duplex slots per trajectory")
    parser.add_argument("--memory", type=memory_from_str, default="inf",
                        help="design memory: positive integer, 'inf', or 'auto'")
    parser.add_argument("--scheme", default="proposed",
                        help="comma list from proposed,conventional,relay_only,half_duplex")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes")


def _usage_error(args, message: str) -> NoReturn:
    """Stop with exit code 2 and one error line on stderr."""
    print(f"fdrelay {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _spec_from_args(args) -> SweepSpec:
    try:
        values = {
            "snr_db": args.snr_db,
            "inr_db": args.inr_db,
            "n_s": args.ns,
            "n_r": args.nr,
            "realizations": args.realizations,
            "iterations": args.iterations,
            "convergence_tol": args.tol,
            "seed": _default_seed() if args.seed is None else args.seed,
        }
        if hasattr(args, "scheme"):  # select-memory has no scheme, slot count or memory to set
            values.update(schemes=tuple(s.strip() for s in args.scheme.split(",") if s.strip()),
                          slots=args.slots, memory=args.memory)
        if args.config:
            with open(args.config) as handle:
                overrides = json.load(handle)
            for key, value in overrides.items():
                if key not in values:
                    raise ValueError(f"unknown config key {key!r}")
                values[key] = memory_from_str(str(value)) if key == "memory" else value
        return SweepSpec(**values)
    except (TypeError, ValueError) as exc:
        _usage_error(args, str(exc))


def _single_point_spec(args) -> SweepSpec:
    spec = _spec_from_args(args)
    if len(spec.snr_db) != 1 or len(spec.inr_db) != 1:
        _usage_error(args, "takes a single SNR and a single INR value")
    return spec


def _run_sweep_command(args) -> int:
    return _sweep(args, _spec_from_args(args))


def _sweep(args, spec: SweepSpec) -> int:
    result = run_sweep(spec, jobs=args.jobs)
    emit_results(result, args.format, args.out)
    print(f"wrote {len(result.records)} records to {args.out}")
    for failure in result.failures:
        print(
            f"FAILED grid point snr={failure['snr_db']} inr={failure['inr_db']} "
            f"scheme={failure['scheme']}: {failure['error']}",
            file=sys.stderr,
        )
    return 0 if result.ok() else 1


def _run_trajectory_command(args) -> int:
    return _sweep(args, _single_point_spec(args))


def _run_select_memory_command(args) -> int:
    spec = _single_point_spec(args)
    cfg = spec.config(spec.snr_db[0], spec.inr_db[0])
    selection = select_memory(cfg, seed=spec.seed, realizations=spec.realizations)
    for probe in selection.probes:
        print(
            f"memory {probe.candidate}: averaged MSE {probe.j_at_m_plus_1:.6g} -> "
            f"{probe.j_at_m_plus_2:.6g} ({'stable' if probe.stable else 'unstable'})"
        )
    print(f"selected memory: {selection.m_hat}")
    return 0


def _run_validate_command(args) -> int:
    checks = run_oracle_suite(seed=_default_seed() if args.seed is None else args.seed,
                              draws=args.draws)
    for check in checks:
        print(check.describe())
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} oracle checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Full-duplex two-way AF MIMO relay beamforming simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a (SNR, INR, scheme) grid and emit records")
    _add_common_flags(sweep, single_point=False)
    _add_run_flags(sweep)
    sweep.set_defaults(func=_run_sweep_command)

    trajectory = sub.add_parser("trajectory", help="per-slot series at one operating point")
    _add_common_flags(trajectory, single_point=True)
    _add_run_flags(trajectory)
    trajectory.set_defaults(func=_run_trajectory_command)

    select = sub.add_parser("select-memory", help="stability search for the design memory")
    _add_common_flags(select, single_point=True)
    select.set_defaults(func=_run_select_memory_command)

    validate = sub.add_parser("validate", help="run the sampling-oracle suite")
    validate.add_argument("--draws", type=int, default=20000, help="Monte Carlo draws per check")
    validate.add_argument("--seed", type=int, default=None)
    validate.set_defaults(func=_run_validate_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
