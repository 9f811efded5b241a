"""Seeded inputs for the benchmark, independent of the test suite.

The braid and front generators follow the logic of the test fixtures but
live here, so that editing a test never changes what the benchmark runs.
Nothing here uses knotpoly, not even to count components or format a
word, so a change to the program cannot change its inputs.

The deep closures and the fronts come from fixed pools recorded in
`reference.json` together with their reference outputs.  A pass visits
every entry of a pool once, in an order shuffled by the run seed, so every
seed sees the same cost profile, the heavy multi-component fronts and deep
closures included.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WITNESS_BRAID = "braid 5: 3 2 1 -2 3 -4 -1 2 3 -4 -3 -2 3 -1 2 -1 4 3 2 1"
POOL_SEED = 20260917          # draws the pools in record.py; never the run seed
DEEP_POOL_SIZE = 10
FRONT_POOL_SIZE = 10
# About 3 % of criterion-04 fronts have 6-7 components; they are the slow
# tail.  A pool of 10 would miss them, so it holds two more, drawn after it.
TAIL_FRONTS = 2
TAIL_COMPONENTS = (6, 7)

SEARCH_CONFIG = {"max_strands": 4, "max_letters": 7, "dedup": "cyclic+inverse",
                 "predicate": "ep_lt_ey"}


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- generators (same logic as the test fixtures) ------------------------------


def braid_letters(rng: random.Random, strands: int, length: int) -> list[int]:
    gens = [i for i in range(-(strands - 1), strands) if i != 0]
    return [rng.choice(gens) for _ in range(length)]


def knot_permutation_cycles(strands: int, letters) -> int:
    perm = list(range(strands))
    for l in letters:
        i = abs(l) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * strands
    cycles = 0
    for i in range(strands):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def deep_closure_text(rng: random.Random) -> str:
    """A 5-strand knot closure with 18 to 20 letters."""
    while True:
        letters = braid_letters(rng, 5, rng.randint(18, 20))
        if knot_permutation_cycles(5, letters) == 1:
            return "braid 5: " + " ".join(map(str, letters))


def statesum_closure_text(rng: random.Random) -> str:
    """A 4-letter closure on 4 or 5 strands, links allowed (criterion-02 shape)."""
    n = rng.choice((4, 5))
    return f"braid {n}: " + " ".join(map(str, braid_letters(rng, n, 4)))


def random_front_events(rng: random.Random, max_crossings: int = 6) -> list:
    """Front events in the criterion-04 shape: links allowed."""
    events = []
    k = 0
    nx = 0
    while True:
        moves = ["L"]
        if k >= 2:
            moves += ["R", "R"]
            if nx < max_crossings:
                moves += ["X", "X", "X", "X"]
        if k > 4:
            moves += ["R", "R", "R"]
        mv = rng.choice(moves)
        if mv == "L":
            events.append(("L", rng.randint(0, k)))
            k += 2
        elif mv == "R":
            events.append(("R", rng.randint(0, k - 2)))
            k -= 2
            if k == 0 and (nx >= max_crossings or rng.random() < 0.5
                           or len(events) > 20):
                return events
        else:
            events.append(("X", rng.randint(0, k - 2)))
            nx += 1


def front_text(events) -> str:
    return "front: " + "; ".join(f"{k} {i + 1}" for k, i in events)

