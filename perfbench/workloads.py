"""Seeded inputs for the three benchmark workloads.

Nothing here imports the package under test, so run.py can self-test the
generators before it starts a single worker.  The seed alone picks the
inputs, so every pass of a run does the same ops.

Why each workload exists, and which layer metric should move on which of
them, is recorded in NOTES.md beside this file.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import NamedTuple

WORKLOADS = ("deep", "lemmas")

# deep: bands near the limit of what the seed code finishes in a few seconds.
# Where the cost grows with the drawn size, a draw comes with its mirror in
# the band (a, lo + hi - a), so the work of a pass barely depends on the seed.
DP_BAND = (36, 42)           # signed DP on (m-1) x 14, and count DP on (m-1) x 12
DET_BAND = (45, 60)          # det at n = 15 for m, at n = 17 for det_partner(m)
# Bareiss elimination at dimension d = (m-1)(n-1)/2 costs about d^3 steps.
# A plain mirror (m, 15) and (105 - m, 17) left the pair's summed d^3 varying
# by 18% with the seed, and det_s spread by 0.09 over ten seeds, so the
# n = 17 case is the m that brings the pair's summed d^3 nearest DET_WORK.
DET_WORK = 1.24e8
RF_N = 17
RF_BASE = 39                 # every m = 39 mod 17 reduces to the window m = 39,
                             # so every draw costs the same
RF_DRAWS = 10                # m in 39, 56, ..., 192
SPECTRAL_LOW = (800, 1200)
SPECTRAL_HIGH = (1400, 2000)  # norm_product underflows here (ROADMAP item 5)

# lemmas: the six calls of acceptance criterion 9 with its exact arguments.
LEMMA_CALLS = {
    "l_closed_form": {"arms": 3, "length": 4},
    "decomposition": {},
    "periodicity": {"m_max": 10, "n_max": 10},
    "coprime_vanishing": {"bound": 15},
    "y_decomposition": {"m_max": 11},
    "parity": {"m_max": 11, "limit": 64},
}

# Calls that take under a second on the seed code.  One or two samples of
# so short a call are too noisy, so every set-up-only worker of a lemmas run
# also runs them once (in a fresh interpreter, like a pass).
SHORT_LEMMAS = ("l_closed_form", "decomposition", "periodicity", "y_decomposition")

# The lemmas workload calls no route in its timed part, so there dp_s, det_s,
# rf_s and spectral_s time one small case per route instead, PROBE_REPS times
# in every set-up-only worker.  Each case takes about 0.1 s on the seed code.
# Samples of one case vary by about 10% within a run, so the median needs
# many of them: with 0.3 to 0.5 s cases run once per worker (seven samples a
# run), ten runs spread dp_s and rf_s by 0.11 to 0.12.
ROUTE_PROBE = (("dp", 16, 13), ("det", 30, 13), ("rf", 29, 13), ("spectral", 560, 279))
PROBE_REPS = 4


class Op(NamedTuple):
    """One unit of work.  ``band`` names the size band the draw came from."""

    band: str
    route: str  # "dp", "count", "det", "rf", "spectral" or "lemma"
    m: int = 0
    n: int = 0
    known_defect: bool = False


def generate(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep":
        return _deep(rng)
    if workload == "lemmas":
        return [Op(name, "lemma") for name in _permutation(list(LEMMA_CALLS), seed)]
    raise ValueError(f"unknown workload {workload!r}")


def _permutation(items: list, seed: int) -> list:
    """Permutation number seed * 277 mod len(items)! of items.  277 is prime
    to 6! = 720, so neighbouring seeds always give different call orders."""
    index = seed * 277 % math.factorial(len(items))
    out = []
    while items:
        pick, index = divmod(index, math.factorial(len(items) - 1))
        out.append(items.pop(pick))
    return out


def _mirrored(rng: random.Random, band: tuple[int, int]) -> tuple[int, int]:
    a = rng.randint(*band)
    return a, band[0] + band[1] - a


def near_half(m: int) -> int:
    """The odd n coprime to m closest to m/2 (the smaller one on a tie)."""
    half = m // 2
    for d in range(half):
        for n in (half - d, half + d):
            if n > 1 and n % 2 and math.gcd(m, n) == 1:
                return n
    raise ValueError(f"no odd coprime n near {m}/2")


def det_partner(m15: int) -> int:
    """The m for which det at (m, 17) brings the summed d^3 of the pair with
    (m15, 15) nearest DET_WORK.  It lies in DET_BAND for every m15 there."""
    d15 = (m15 - 1) * 7
    return round((DET_WORK - d15**3) ** (1 / 3) / 8) + 1


def _deep(rng: random.Random) -> list[Op]:
    ops = [Op("dp-h14", "dp", m, 15) for m in _mirrored(rng, DP_BAND)]
    ops.append(Op("count-h12", "count", rng.randint(*DP_BAND), 13))
    m15 = rng.randint(*DET_BAND)
    m17 = det_partner(m15)
    ops += [Op("det", "det", m15, 15), Op("det", "det", m17, 17)]
    ops.append(Op("rf-n17", "rf", RF_BASE + RF_N * rng.randrange(RF_DRAWS), RF_N))
    for m in _mirrored(rng, SPECTRAL_LOW):
        ops.append(Op("spectral-low", "spectral", m, near_half(m)))
    for m in _mirrored(rng, SPECTRAL_HIGH):
        ops.append(Op("spectral-high", "spectral", m, near_half(m), known_defect=True))
    rng.shuffle(ops)
    return ops


def self_test(workload: str, seed: int) -> None:
    """The same seed gives identical inputs; another seed gives other draws
    with the same number of draws in every size band.  Raises on failure."""
    mine = generate(workload, seed)
    if mine != generate(workload, seed):
        raise RuntimeError(f"{workload}: seed {seed} does not reproduce its inputs")
    theirs = generate(workload, seed + 1)
    if theirs == mine:
        raise RuntimeError(f"{workload}: seeds {seed} and {seed + 1} draw the same inputs")
    if Counter(op.band for op in mine) != Counter(op.band for op in theirs):
        raise RuntimeError(f"{workload}: band counts depend on the seed")
