"""Seeded request decks for the three benchmark workloads.

A deck is a list of rounds and a round is a list of argv lists for
``ldic.cli.main``. Every round of a workload has the same composition, and
the properties that set a request's cost (grid size, block length, q,
interference ratio) follow a Kronecker low-discrepancy sequence over the
rounds: knob (role r, slot i) of round k sits at ``frac(c + k * a_r)``,
where the offset c comes from the seed and each role rotates by its own
irrational a_r. A few rounds then cover each knob's range, and the joint
range of one request's knobs, evenly, so the work in a run barely depends
on the seed while the inputs still do. The runner measures whole rounds
only.

Exponents stay far below ``ldic.params.MAX_EXPONENT``. Near the cap a
``sweep`` never finishes and ``metrics`` takes 12-17 s; those cliffs belong
to a robustness workload of their own, not to these.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1
# One rotation per knob role. 1 and these three are linearly independent
# over the rationals, so knobs of different roles never move in lockstep:
# with one shared rotation every knob would sit at a seed-fixed offset from
# the others, and the seed would then set the cost mix.
ROTATIONS = ((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1, math.sqrt(3) - 1)
SLOTS = 16  # knobs per role


class Knobs:
    """Positions in [0, 1) for round k of a deck."""

    def __init__(self, offsets: list, k: int):
        self.offsets, self.k = offsets, k

    def __call__(self, role: int, slot: int) -> float:
        return (self.offsets[role * SLOTS + slot] + self.k * ROTATIONS[role]) % 1.0


def _channel_flags(n11, n22, n12, n21, fb11=None, fb22=None) -> list:
    flags = ["--n11", str(n11), "--n22", str(n22), "--n12", str(n12), "--n21", str(n21)]
    if fb11 is not None:
        flags += ["--fb11", str(fb11), "--fb22", str(fb22)]
    return flags


# --- channel-mix ---------------------------------------------------------

def _small_channel(rng: random.Random) -> list:
    """Paper-scale channel: every exponent at most 12."""
    return _channel_flags(
        rng.randint(2, 12), rng.randint(2, 12), rng.randint(0, 12), rng.randint(0, 12),
        rng.randint(0, 12), rng.randint(0, 12),
    )


def _large_channel(rng: random.Random, alpha1: float, alpha2: float) -> list:
    """Direct links of 112-124 levels, cross links at alpha times that.

    For alpha in [1.1, 1.9] each link's feedback threshold lies at 110-125,
    so ``feedback_threshold`` scans over a hundred region builds per link.
    """
    n11, n22 = rng.randint(112, 124), rng.randint(112, 124)
    n12, n21 = round(n11 * alpha1), round(n22 * alpha2)
    return _channel_flags(
        n11, n22, n12, n21, rng.randint(0, max(n11, n12)), rng.randint(0, max(n22, n21)),
    )


def _strong_alpha(u: float) -> float:
    return 1.1 + 0.8 * u


def channel_mix_round(rng: random.Random, knobs: Knobs) -> list:
    # Per 20 requests: 14 region requests put the median in the middle of the
    # region cluster; 2 large metrics requests put the tail among the scans.
    requests = (
        [["region", *_small_channel(rng)] for _ in range(9)]
        + [["region", *_small_channel(rng), "--format", "csv"] for _ in range(4)]
        + [["region", *_large_channel(rng, 2 * knobs(0, 0), 2 * knobs(1, 0))]]
        + [["metrics", *_small_channel(rng)] for _ in range(4)]
        + [["metrics", *_large_channel(rng, _strong_alpha(knobs(0, i)), _strong_alpha(knobs(1, i)))]
           for i in (1, 2)]
    )
    rng.shuffle(requests)
    return requests


# --- sweep-grid ----------------------------------------------------------

SWEEP_STRATA = 8
SWEEP_MIN_CELLS, SWEEP_MAX_CELLS = 49, 900  # saturation levels 6..29


def _sweep_channel(sat: int, strong: bool, alpha1: float, alpha2: float) -> list:
    """A channel with both feedback saturation levels at `sat`.

    Weak interference: each cross link is alpha (at most 1/2) of its direct
    link. Strong: each direct link is alpha (1/3 to 1) of its cross link,
    which then sets saturation.
    """
    def link(alpha):
        other = min(sat - 1, round(sat * alpha))
        return (other, sat) if strong else (sat, other)

    n11, n12 = link(alpha1)
    n22, n21 = link(alpha2)
    return _channel_flags(n11, n22, n12, n21)


def sweep_grid_round(rng: random.Random, knobs: Knobs) -> list:
    # Grid sizes from 49 to 900 cells, one per stratum, skewed toward small
    # grids (median about 100 cells, mean about 200) so a run holds enough
    # requests for a tail. Strata alternate weak and strong interference,
    # and formats alternate from round to round.
    requests = []
    for stratum in range(SWEEP_STRATA):
        u = (stratum + knobs(0, stratum)) / SWEEP_STRATA
        cells = SWEEP_MIN_CELLS * (SWEEP_MAX_CELLS / SWEEP_MIN_CELLS) ** (u * u)
        sat = round(math.sqrt(cells)) - 1
        strong = stratum % 2 == 1
        low, high = (1 / 3, 1.0) if strong else (0.0, 0.5)
        alpha1 = low + (high - low) * knobs(1, stratum)
        alpha2 = low + (high - low) * knobs(2, stratum)
        fmt = ["--format", "csv"] if (stratum // 2 + knobs.k) % 2 else []
        requests.append(["sweep", *_sweep_channel(sat, strong, alpha1, alpha2), *fmt])
    rng.shuffle(requests)
    return requests


# --- simulate-long -------------------------------------------------------

SIM_STRATA = 8
SIM_MIN_BLOCK, SIM_MAX_BLOCK = 250, 4000
SIM_MIN_Q, SIM_MAX_Q = 4, 32
SIM_COMBOS = tuple((scheme, trace) for trace in (True, False)
                   for scheme in ("echo", "point-to-point"))


def _sim_channel(rng: random.Random, q: int) -> list:
    levels = [rng.randint(1, q) for _ in range(4)]
    levels[rng.randrange(4)] = q
    n11, n22, n12, n21 = levels
    return _channel_flags(n11, n22, n12, n21, rng.randint(0, q), rng.randint(0, q))


def simulate_long_round(rng: random.Random, knobs: Knobs) -> list:
    # Block lengths log-uniform over 250..4000, one per lower stratum; each
    # lower stratum cycles through the four scheme/trace combinations over
    # four rounds. The top stratum is always the heaviest request (4000
    # uses, q = 32, full trace), which sets the latency tail and the memory
    # peak.
    requests = []
    for stratum in range(SIM_STRATA):
        if stratum == SIM_STRATA - 1:
            q, block, (scheme, trace) = SIM_MAX_Q, SIM_MAX_BLOCK, ("point-to-point", True)
        else:
            u = (stratum + knobs(0, stratum)) / (SIM_STRATA - 1)
            block = round(SIM_MIN_BLOCK * (SIM_MAX_BLOCK / SIM_MIN_BLOCK) ** u)
            q = SIM_MIN_Q + round((SIM_MAX_Q - SIM_MIN_Q) * knobs(1, stratum))
            scheme, trace = SIM_COMBOS[(stratum + knobs.k) % len(SIM_COMBOS)]
        argv = [
            "simulate", *_sim_channel(rng, q),
            "--scheme", scheme, "--block-length", str(block),
            "--delay", str(rng.randint(1, 3)), "--seed", str(rng.randrange(10**6)),
        ]
        if trace:
            argv.append("--trace")
        requests.append(argv)
    rng.shuffle(requests)
    return requests


# --- registry ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, Knobs], list]
    round_s: float      # approximate seconds per round on the reference machine
    prefix_rounds: int  # rounds covered by the stdout digest and the traced run
    digest: str         # SHA-256 of the prefix's stdout at DEFAULT_SEED

    def deck(self, seed: int, rounds: int) -> list:
        """Every round of the run, generated before any timing starts.

        Round k depends only on (workload, seed, k), so a longer deck keeps
        the rounds of a shorter one.
        """
        offsets = random.Random(f"{self.name}:{seed}")
        offsets = [offsets.random() for _ in range(len(ROTATIONS) * SLOTS)]
        deck = [self.make_round(random.Random(f"{self.name}:{seed}:{k}"), Knobs(offsets, k))
                for k in range(rounds)]
        # The first request is also the set-up probe: make it the cheapest kind.
        first = deck[0]
        first.insert(0, first.pop(min(range(len(first)), key=lambda i: _cost_rank(first[i]))))
        return deck

    def rounds_for(self, seconds: float) -> int:
        """Enough rounds that a run at up to six times today's speed never repeats one."""
        return self.prefix_rounds + math.ceil(6 * seconds / self.round_s)


def _cost_rank(argv: list) -> tuple:
    """Rough request cost from its arguments alone, for picking the set-up probe."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    exponents = [int(flags[k]) for k in ("--n11", "--n22", "--n12", "--n21")]
    kind = ("region", "metrics", "sweep", "simulate").index(argv[0])
    return kind, int(flags.get("--block-length", 0)), max(exponents), "--trace" in argv


# Digests of the prefix rounds' stdout at DEFAULT_SEED, recorded with the
# seed version of ldic; the CLI promises byte-identical output.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("channel-mix", channel_mix_round, round_s=0.85, prefix_rounds=5,
                 digest="f9b386b394196bafa9dfa37b3f24d1a1f4941c93ec7667af5a4950755db9696c"),
        Workload("sweep-grid", sweep_grid_round, round_s=3.2, prefix_rounds=1,
                 digest="6ec126f71d551d27942579b80aad51f29944312b9525ebb8a3c49c89fddfe2b8"),
        Workload("simulate-long", simulate_long_round, round_s=1.1, prefix_rounds=4,
                 digest="f3d2bd41099b73a39389632276c6a1218aa966461d160c927248e200076e864d"),
    )
}
