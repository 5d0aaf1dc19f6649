"""Output checks for every benchmark request, run outside the timed loop.

Each check takes the argv a request was sent with and the text it wrote to
stdout, and returns None when the output is right or a one-line reason when
it is not. Region geometry is checked with the benchmark's own exact
arithmetic; sweep cells are spot-checked against ``compute_metrics`` at the
cell's own parameters; simulation error rates are recomputed from the bit
strings.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from ldic import ChannelParams, compute_metrics
from ldic.output import parse_region_document

SWEEP_SAMPLES = 2  # cells per sweep output compared with compute_metrics


def _flags(argv: list) -> dict:
    flags, i = {}, 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            flags[argv[i]] = argv[i + 1]
            i += 2
        else:
            flags[argv[i]] = True
            i += 1
    return flags


def _channel(flags: dict) -> dict:
    return {
        "fwd11": int(flags["--n11"]), "fwd22": int(flags["--n22"]),
        "inr12": int(flags["--n12"]), "inr21": int(flags["--n21"]),
        "fb11": int(flags.get("--fb11", 0)), "fb22": int(flags.get("--fb22", 0)),
    }


def _saturations(ch: dict) -> tuple:
    return max(ch["fwd11"], ch["inr12"]), max(ch["fwd22"], ch["inr21"])


def _rational(fields: dict, name: str) -> Fraction:
    """The exact value of a rational field, after checking its decimal companion."""
    value = Fraction(fields[name])
    if abs(Fraction(fields[f"{name}_decimal"]) - value) > Fraction(1, 2 * 10**6):
        raise ValueError(f"{name}_decimal {fields[f'{name}_decimal']} does not round {value}")
    return value


def _check_geometry(constraints: list, vertices: list) -> None:
    """Every vertex satisfies every constraint and lies on at least two of them."""
    if len(constraints) != 7:
        raise ValueError(f"expected 7 constraints, got {len(constraints)}")
    if not vertices:
        raise ValueError("region has no vertices")
    for r1, r2 in vertices:
        slack = [rhs - (a * r1 + b * r2) for a, b, rhs in constraints]
        if min(slack) < 0:
            raise ValueError(f"vertex ({r1}, {r2}) violates a constraint")
        if sum(1 for s in slack if s == 0) < 2:
            raise ValueError(f"vertex ({r1}, {r2}) is tight on fewer than two constraints")


def _check_region(flags: dict, text: str) -> None:
    if flags.get("--format") == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        constraints = [
            (int(r["r1_coeff"]), int(r["r2_coeff"]), int(r["rhs"]))
            for r in rows if r["kind"] == "bound"
        ]
        vertices = [(_rational(r, "r1"), _rational(r, "r2")) for r in rows if r["kind"] == "vertex"]
    else:
        document = json.loads(text)
        params, bounds, points = parse_region_document(document)
        if params != ChannelParams(**_channel(flags)):
            raise ValueError(f"document is for {params}, not the requested channel")
        constraints = [(c.r1_coeff, c.r2_coeff, c.rhs) for c in bounds.constraints]
        vertices = [(v.r1, v.r2) for v in points]
        for row, (r1, r2) in zip(document["region"]["vertices"], vertices):
            if (_rational(row, "r1"), _rational(row, "r2")) != (r1, r2):
                raise ValueError("vertex does not round-trip")
    _check_geometry(constraints, vertices)


def _check_metrics(flags: dict, text: str) -> None:
    document = json.loads(text)
    ch = _channel(flags)
    if document["params"] != ch:
        raise ValueError("document params differ from the request")
    payload = document["metrics"]
    for name in ("delta1", "delta2", "sigma"):
        if _rational(payload, name) < 0:
            raise ValueError(f"{name} is negative")
    for link, (report, saturation) in enumerate(zip(payload["thresholds"], _saturations(ch)), 1):
        if report["link"] != link or report["saturation"] != saturation:
            raise ValueError(f"threshold report {report} does not match link {link}")
        level = report["threshold"]
        if level is not None and not 0 <= level < saturation:
            raise ValueError(f"threshold {level} outside [0, {saturation})")
    if not isinstance(payload["feedback_useless"], bool):
        raise ValueError("feedback_useless is not a boolean")


def _check_sweep(flags: dict, text: str, rng: random.Random) -> None:
    ch = _channel(flags)
    if flags.get("--format") == "csv":
        cells = list(csv.DictReader(io.StringIO(text)))
    else:
        document = json.loads(text)
        if document["params"] != ch:
            raise ValueError("document params differ from the request")
        cells = document["surface"]["cells"]
    sat1, sat2 = _saturations(ch)
    grid = [(fb11, fb22) for fb11 in range(sat1 + 1) for fb22 in range(sat2 + 1)]
    if [(int(c["fb11"]), int(c["fb22"])) for c in cells] != grid:
        raise ValueError(f"cells do not cover the {sat1 + 1}x{sat2 + 1} grid in order")
    for cell in rng.sample(cells, min(SWEEP_SAMPLES, len(cells))):
        expected = compute_metrics(ChannelParams(**{**ch, "fb11": int(cell["fb11"]),
                                                     "fb22": int(cell["fb22"])}))
        for name in ("delta1", "delta2", "sigma"):
            if _rational(cell, name) != getattr(expected, name):
                raise ValueError(f"cell ({cell['fb11']}, {cell['fb22']}) {name} differs "
                                 f"from compute_metrics")


def _check_simulate(flags: dict, text: str) -> None:
    document = json.loads(text)
    ch = _channel(flags)
    if document["params"] != ch:
        raise ValueError("document params differ from the request")
    s = document["session"]
    q = max(ch["fwd11"], ch["fwd22"], ch["inr12"], ch["inr21"])
    expected = {"scheme": flags["--scheme"], "block_length": int(flags["--block-length"]),
                "delay": int(flags["--delay"]), "seed": int(flags["--seed"]), "q": q}
    if {k: s[k] for k in expected} != expected:
        raise ValueError(f"session header {dict((k, s[k]) for k in expected)} != {expected}")
    for user, (sent, estimate) in enumerate(zip(s["messages"], s["estimates"]), 1):
        if len(sent) != len(estimate) or set(sent + estimate) - {"0", "1"}:
            raise ValueError(f"message/estimate {user} are not equal-length bit strings")
        wrong = sum(1 for a, b in zip(sent, estimate) if a != b)
        p = Fraction(wrong, len(sent)) if sent else Fraction(0)
        if _rational(s, f"p{user}") != p:
            raise ValueError(f"p{user} is {s[f'p{user}']}, recomputed {p}")
    if "--trace" in flags:
        if len(s["trace"]) != expected["block_length"]:
            raise ValueError("trace length differs from the block length")
        if any(len(bits) != q for step in s["trace"] for bits in step.values()):
            raise ValueError("trace vector of the wrong width")
    elif "trace" in s:
        raise ValueError("trace present without --trace")


def check_output(argv: list, text: str, rng: random.Random):
    """None if `text` is a correct answer to `argv`, else the reason it is not."""
    flags = _flags(argv)
    try:
        if argv[0] == "region":
            _check_region(flags, text)
        elif argv[0] == "metrics":
            _check_metrics(flags, text)
        elif argv[0] == "sweep":
            _check_sweep(flags, text, rng)
        elif argv[0] == "simulate":
            _check_simulate(flags, text)
        else:
            return f"no check for command {argv[0]!r}"
    except (ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
