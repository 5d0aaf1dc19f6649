"""Command-line surface: region, metrics, sweep, and simulate subcommands.

Exit status is 0 on success and 2 on any usage or validation problem;
results go to stdout as JSON (default) or CSV where supported.

Each channel flag is declared once, in ``_CHANNEL_FLAGS``. ``main`` builds
the ChannelParams from them (an absent feedback flag reads 0) and hands it to
the subcommand's handler, which returns a document dict or CSV text; ``main``
alone turns a document into JSON and writes stdout.

``json_text`` writes a document exactly as ``json.dumps(document, indent=2)``
does, without the pure-Python encoder that an indent selects.
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


# (flag, ChannelParams field, help) of every channel flag; the first four
# are required, and sweep takes only those (its grid covers every feedback level).
_CHANNEL_FLAGS = (
    ("--n11", "fwd11", "forward exponent of pair 1"),
    ("--n22", "fwd22", "forward exponent of pair 2"),
    ("--n12", "inr12", "interference exponent at receiver 1"),
    ("--n21", "inr21", "interference exponent at receiver 2"),
    ("--fb11", "fb11", "feedback exponent of pair 1 (default 0)"),
    ("--fb22", "fb22", "feedback exponent of pair 2 (default 0)"),
)


def _add_channel_flags(parser: argparse.ArgumentParser, rows=_CHANNEL_FLAGS) -> None:
    for i, (flag, _, text) in enumerate(rows):
        parser.add_argument(flag, type=_nonneg_int, required=i < 4, default=0, help=text)


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
    _add_channel_flags(surface, _CHANNEL_FLAGS[:4])
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


def _cmd_region(params: ChannelParams, args):
    poly = capacity_region(params)
    return region_csv(poly) if args.format == "csv" else region_document(params, poly)


def _cmd_metrics(params: ChannelParams, args) -> dict:
    thresholds = (feedback_threshold(params, 1), feedback_threshold(params, 2))
    return metrics_document(params, compute_metrics(params), thresholds, feedback_useless(params))


def _cmd_sweep(params: ChannelParams, args):
    surface = sweep(params)
    return sweep_csv(surface) if args.format == "csv" else surface_document(params, surface)


def _cmd_simulate(params: ChannelParams, args) -> dict:
    cfg = derive_config(params, delay=args.delay, block_length=args.block_length)
    scheme = SCHEMES[args.scheme]
    messages = draw_messages(scheme.message_lengths(cfg), args.seed)
    result = run_scheme(cfg, scheme, messages)
    return session_document(cfg, scheme.name, args.seed, result, include_trace=args.trace)


_COMMANDS = {
    "region": _cmd_region,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
}


_quote = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses
_LITERALS = {None: "null", True: "true", False: "false"}


def _write_json(value, out: list, indent: str) -> None:
    """Append the pieces of json.dumps(value, indent=2) to out, nested under indent."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict and value:
        inner, sep = indent + "  ", "{"
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"a document key must be a str, not a {type(key).__name__}")
            out.append(sep + inner + _quote(key) + ": ")
            _write_json(item, out, inner)
            sep = ","
        out.append(indent + "}")
    elif kind is list and value:
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, out, inner)
            sep = ","
        out.append(indent + "]")
    elif kind is dict or kind is list:
        out.append("{}" if kind is dict else "[]")
    elif kind is bool or value is None:
        out.append(_LITERALS[value])
    else:
        raise TypeError(f"a {kind.__name__} is not a document value")


def json_text(document) -> str:
    """json.dumps(document, indent=2), for dicts with str keys, lists, str, int, bool
    and None; any other type raises TypeError."""
    out = []
    _write_json(document, out, "\n")
    return "".join(out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = ChannelParams(**{field: getattr(args, flag[2:], 0)
                                  for flag, field, _ in _CHANNEL_FLAGS})
        out = _COMMANDS[args.command](params, args)
        text = out if isinstance(out, str) else json_text(out) + "\n"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
