"""Seeded request decks for the subchains benchmark.

A workload is a deck: a fixed list of slots, each one CLI request of a known
cost class. A run replays whole decks. The seed picks, for every slot of every
deck, the choices that leave its cost class alone: which bases a `verify`
request checks and in what order, a rank jitter of one step where a step costs
a few percent, the output format where formats cost the same, and the order of
the deck. Keeping the multiset of cost classes fixed keeps the per-run median
and tail comparable from one seed to the next.

Each deck has 16 slots. Sorted by cost they form four groups: five cheap
slots, five middle slots of similar cost, five upper slots of similar cost
and one heavy slot. The median falls in the middle group and p75 in the
upper group, so both are read inside a group of similar requests rather than
at the edge between two cost classes, where one noisy request would move
them. Decks are sized so a 30 s run holds 40 to 99
work requests, which keeps the tail at p75 (see run.py). Seed-commit costs
are in README.md.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

# Setup probe: a request that does no counting work. Interleaved with the
# work requests, its median wall time is the cost of starting the CLI.
PROBE = ("count", "--p", "2", "--n", "0")

# count-deep: (subcommand, base, rank), by cost group. Ranks jitter by one
# step either way; a step costs 2-5%.
COUNT_SLOTS = (
    ("table", 1000003, 45),
    ("table", 7, 92),
    ("table", 10, 88),
    ("count", 1000003, 48),
    ("count", 2, 135),
    ("count", 3, 130),
    ("count", 7, 108),
    ("count", 10, 103),
    ("count", 1000003, 57),
    ("count", 2, 148),
    ("count", 2, 175),
    ("table", 2, 170),
    ("table", 3, 145),
    ("count", 3, 150),
    ("count", 7, 125),
    ("count", 2, 200),
)
COUNT_JITTER = 1

# poly-deep: ranks, by cost group. Cost about doubles every four ranks.
POLY_SLOTS = (24, 24, 25, 25, 26, 28, 28, 28, 28, 28, 30, 30, 30, 30, 30, 40)
POLY_FORMATS = ("json", "text")

# verify-grid: bases for the closed-form check, and lattice grid points.
VERIFY_BASES = (2, 3, 5, 7, 11, 13)
ORACLE_GRID = ((2, 5), (3, 4), (5, 3), (7, 3), (11, 3), (13, 3))
# `verify` slots: (max_n, number of bases, oracle points), by cost group. The
# closed-form cost doubles per rank, so max_n is fixed per slot and the bases
# are the seeded part. The standalone `oracle` requests, one per grid point,
# are the cheap group and one middle slot.
VERIFY_SLOTS = (
    (14, 2, ((3, 4),)),
    (14, 2, ((11, 3),)),
    (15, 2, ((5, 3),)),
    (15, 2, ((7, 3),)),
    (16, 2, ((5, 3),)),
    (16, 2, ((7, 3),)),
    (16, 2, ((3, 4),)),
    (16, 2, ((11, 3),)),
    (15, 3, ((13, 3),)),
    (16, 3, ((2, 5), (13, 3))),
)


def _count_deck(rng: random.Random) -> list[tuple[str, ...]]:
    deck = []
    for command, p, n in COUNT_SLOTS:
        n += rng.randint(-COUNT_JITTER, COUNT_JITTER)
        if command == "count":
            deck.append(("count", "--p", str(p), "--n", str(n), "--format", "json"))
        else:
            deck.append(("table", "--p", str(p), "--max-n", str(n), "--format", "csv"))
    return deck


def _poly_deck(rng: random.Random) -> list[tuple[str, ...]]:
    return [("poly", "--n", str(n), "--format", rng.choice(POLY_FORMATS)) for n in POLY_SLOTS]


def _verify_deck(rng: random.Random) -> list[tuple[str, ...]]:
    deck = []
    for max_n, nbases, points in VERIFY_SLOTS:
        bases = rng.sample(VERIFY_BASES, nbases)
        points = rng.sample(points, len(points))
        deck.append(
            (
                "verify",
                "--p",
                ",".join(map(str, bases)),
                "--max-n",
                str(max_n),
                "--oracle",
                ",".join(f"{p}:{n}" for p, n in points),
            )
        )
    for p, n in ORACLE_GRID:
        deck.append(("oracle", "--p", str(p), "--n", str(n), "--format", "json"))
    return deck


# name -> (why it is in the benchmark, deck builder); the reasons match BENCHMARK.json.
WORKLOADS = {
    "count-deep": (
        "count/table at p in {2,3,7,10,1000003}, ranks 45-200: filling the big-integer Gaussian-binomial "
        "cache is ~70% of time, recurrence products ~23%; no polynomial or lattice work",
        _count_deck,
    ),
    "poly-deep": (
        "poly --n 24..40: ~94% of time is schoolbook IntPolynomial products under "
        "chains.bounded_chains_poly; no integer binomials or lattice work",
        _poly_deck,
    ),
    "verify-grid": (
        "verify and oracle on the small grid: the closed form reads the binomial cache ~4x10^5 times "
        "per request, and lattice containment is 96% of every oracle request",
        _verify_deck,
    ),
}


def decks(workload: str, seed: int) -> Iterator[list[tuple[str, ...]]]:
    """Endless sequence of shuffled decks; one seed always gives the same sequence."""
    build = WORKLOADS[workload][1]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        deck = build(rng)
        rng.shuffle(deck)
        yield deck
