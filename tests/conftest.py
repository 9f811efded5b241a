import random

import pytest

from knotpoly.laurent import LaurentPoly
from knotpoly.diagram import (MorseDiagram, parse_braid, braid_closure,
                              crossing_surgery)
from knotpoly.front import FrontWord
from knotpoly.skein import SkeinCache, full_invariants, DELTA, DELTA_D

A = LaurentPoly.monomial(1, 0, 1)
AINV = LaurentPoly.monomial(1, 0, -1)
ZVAR = LaurentPoly.monomial(1, 1, 0)

# golden expansions for the reference trefoil
P_TREFOIL = (DELTA * (2 * A - AINV + A * ZVAR * ZVAR)).shift(0, -3)
Y_TREFOIL = (DELTA_D * (2 * A - AINV + ZVAR - AINV * AINV * ZVAR
                        + A * ZVAR * ZVAR - AINV * ZVAR * ZVAR)).shift(0, -3)

# validated decoding of the ten-crossing example braid (e_P = 3)
EP3_BRAID = "braid 4: -2 -2 -3 -3 -1 -1 -2 3 1 1 1"
# recorded metadata, not computed: switching the first letter unknots the
# closure, so the slice genus is at most 1 (and in fact equals 1)
EP3_SLICE_GENUS_BOUND = 1
# validated decoding of the twelve-crossing witness braid (e_P < e_Y)
WITNESS_BRAID = "braid 5: 3 2 1 -2 3 -4 -1 2 3 -4 -3 -2 3 -1 2 -1 4 3 2 1"
# maximal-tb front of the reference trefoil, found by bounded search
TREFOIL_TB6_FRONT = (("L", 0), ("L", 0), ("L", 0), ("X", 1), ("X", 3),
                     ("R", 2), ("X", 1), ("R", 0), ("R", 0))

# structurally invalid event sequences
INVALID_EVENTS = (
    [("cup", 0)],                             # not closed
    [("cap", 0)],                             # nothing to cap
    [("cup", 3)],                             # level out of range
    [("cup", 0), ("x", 0, 2), ("cap", 0)],    # crossing sign not +-1
)


@pytest.fixture(scope="session")
def cache():
    return SkeinCache()


@pytest.fixture(scope="session")
def paper_trefoil(cache):
    """The closure among sigma^3 / sigma^-3 matching the printed expansions."""
    matches = []
    for word in ("braid 2: 1 1 1", "braid 2: -1 -1 -1"):
        d = braid_closure(parse_braid(word))
        res = full_invariants(d, cache)
        if res.P == P_TREFOIL and res.Y == Y_TREFOIL:
            matches.append(d)
    assert len(matches) == 1, "exactly one chirality matches the golden values"
    return matches[0]


def random_braid(rng: random.Random, max_strands=4, max_letters=8,
                 knot_only=False):
    while True:
        n = rng.randint(1, max_strands)
        length = rng.randint(0, max_letters) if n > 1 else 0
        letters = [rng.choice([i for i in range(-(n - 1), n) if i != 0])
                   for _ in range(length)]
        b = parse_braid(f"braid {n}: " + " ".join(map(str, letters)))
        if not knot_only or b.component_count() == 1:
            return b


def random_surgered_closure(rng: random.Random) -> MorseDiagram:
    """A random braid closure after up to four random crossing surgeries."""
    d = braid_closure(random_braid(rng))
    for _ in range(rng.randint(0, 4)):
        if not d.cross_info:
            break
        c = rng.randrange(len(d.cross_info))
        act = rng.choice(["switch", "smooth_horizontal", "smooth_vertical"])
        d = crossing_surgery(d, c, act)
    return d


def random_front(rng: random.Random, max_crossings=6, knot_only=False):
    while True:
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
                    break
            else:
                events.append(("X", rng.randint(0, k - 2)))
                nx += 1
        f = FrontWord(events)
        if not knot_only or f.component_count() == 1:
            return f
