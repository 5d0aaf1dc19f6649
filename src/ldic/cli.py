"""Command-line surface: region, metrics, sweep, and simulate subcommands.

Exit status is 0 on success and 2 on any usage or validation problem;
results go to stdout as JSON (default) or CSV where supported.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import capacity_region
from .metrics import compute_metrics, feedback_threshold, feedback_useless, sweep
from .output import (
    metrics_document,
    region_csv,
    region_document,
    session_document,
    surface_document,
    sweep_csv,
)
from .params import ChannelParams
from .sim import SCHEMES, derive_config, draw_messages, run_scheme


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _add_channel_flags(parser: argparse.ArgumentParser, feedback: bool = True) -> None:
    parser.add_argument("--n11", type=_nonneg_int, required=True,
                        help="forward exponent of pair 1")
    parser.add_argument("--n22", type=_nonneg_int, required=True,
                        help="forward exponent of pair 2")
    parser.add_argument("--n12", type=_nonneg_int, required=True,
                        help="interference exponent at receiver 1")
    parser.add_argument("--n21", type=_nonneg_int, required=True,
                        help="interference exponent at receiver 2")
    if feedback:
        parser.add_argument("--fb11", type=_nonneg_int, default=0,
                            help="feedback exponent of pair 1 (default 0)")
        parser.add_argument("--fb22", type=_nonneg_int, default=0,
                            help="feedback exponent of pair 2 (default 0)")


def _channel_params(args, feedback: bool = True) -> ChannelParams:
    return ChannelParams(
        fwd11=args.n11,
        fwd22=args.n22,
        inr12=args.n12,
        inr21=args.n21,
        fb11=args.fb11 if feedback else 0,
        fb22=args.fb22 if feedback else 0,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldic",
        description="Capacity regions and feedback metrics of the "
                    "two-user linear deterministic interference channel",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    region = commands.add_parser("region", help="bounds and vertices of the capacity region")
    _add_channel_flags(region)
    region.add_argument("--format", choices=("json", "csv"), default="json")

    metrics = commands.add_parser("metrics", help="feedback improvement metrics and thresholds")
    _add_channel_flags(metrics)

    surface = commands.add_parser("sweep", help="metrics over the whole feedback grid")
    _add_channel_flags(surface, feedback=False)
    surface.add_argument("--format", choices=("json", "csv"), default="json")

    simulate = commands.add_parser("simulate", help="run a bit-level channel session")
    _add_channel_flags(simulate)
    simulate.add_argument("--delay", type=_nonneg_int, default=1,
                          help="feedback delay in channel uses (default 1)")
    simulate.add_argument("--block-length", type=_nonneg_int, default=4,
                          help="number of channel uses (default 4)")
    simulate.add_argument("--scheme", choices=sorted(SCHEMES), default="point-to-point")
    simulate.add_argument("--seed", type=int, default=0,
                          help="seed for message generation only")
    simulate.add_argument("--trace", action="store_true",
                          help="include the per-use bit trace in the output")
    return parser


def _cmd_region(args) -> str:
    params = _channel_params(args)
    poly = capacity_region(params)
    if args.format == "csv":
        return region_csv(poly)
    return json.dumps(region_document(params, poly), indent=2) + "\n"


def _cmd_metrics(args) -> str:
    params = _channel_params(args)
    thresholds = (feedback_threshold(params, 1), feedback_threshold(params, 2))
    doc = metrics_document(params, compute_metrics(params), thresholds, feedback_useless(params))
    return json.dumps(doc, indent=2) + "\n"


def _cmd_sweep(args) -> str:
    params = _channel_params(args, feedback=False)
    surface = sweep(params)
    if args.format == "csv":
        return sweep_csv(surface)
    return json.dumps(surface_document(params, surface), indent=2) + "\n"


def _cmd_simulate(args) -> str:
    params = _channel_params(args)
    cfg = derive_config(params, delay=args.delay, block_length=args.block_length)
    scheme = SCHEMES[args.scheme]
    messages = draw_messages(scheme.message_lengths(cfg), args.seed)
    result = run_scheme(cfg, scheme, messages)
    doc = session_document(cfg, scheme.name, args.seed, result, include_trace=args.trace)
    return json.dumps(doc, indent=2) + "\n"


_COMMANDS = {
    "region": _cmd_region,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
