"""R and D of braid closures against the Kauffman bracket of `oracles.py`,
which shares no code with the engines: the skein engines and the algebra
engines of `algebra.py` share `diagram.scan`, the descending walk and the
planar reduction, so their agreement does not check that code."""

import random

from knotpoly.algebra import bmw_D, hecke_R
from knotpoly.diagram import BraidWord, braid_closure
from knotpoly.skein import SkeinCache, homfly_R, kauffman_D

from conftest import random_braid
from oracles import bracket, closure, mul, power, specialize

Z_D = {1: 1, -1: -1}   # z = A - A^-1, with a = -A^3
Z_R = {-2: 1, 2: -1}   # z = A^-2 - A^2, with a = A^4


def _corpus() -> list:
    """Braid closures with at most 12 crossings: the first braids of
    criterion 07's and criterion 11's corpora and seeded longer words."""
    rng7, rng11, rng = random.Random(77), random.Random(811), random.Random(2026)
    braids = [random_braid(rng7, max_strands=5, max_letters=10) for _ in range(30)]
    for _ in range(20):
        b = random_braid(rng11, max_strands=4, max_letters=8)
        braids += [b, BraidWord(b.strands + 1, b.letters + (-b.strands,))]
    while len(braids) < 90:
        b = random_braid(rng, max_strands=5, max_letters=12)
        if len(b.letters) >= 9:
            braids.append(b)
    return braids


def _clearing(*polys) -> int:
    """The power of z that clears every negative z power of `polys`."""
    return max(0, *(-ez for p in polys for ez, _ea in p.terms))


def test_engines_against_the_bracket():
    tables: dict = {}
    cache = SkeinCache()
    for b in _corpus():
        events = closure(b.strands, b.letters)
        K = bracket(events)
        d = braid_closure(b)
        Ds = (bmw_D(b, tables), kauffman_D(d, cache))
        m = _clearing(*Ds)
        for D in Ds:
            # D(z = A - A^-1, a = -A^3) = <K>
            assert specialize(D.terms, Z_D, (-1, 3), m) == \
                mul(K, power(Z_D, m)), b.text()
        w = sum(1 if ev[2] > 0 else -1 for ev in events if ev[0] == "x")
        # P = a^-w R at a = A^4, z = A^-2 - A^2 equals (-A^3)^-w <K>
        jones = mul(K, {-3 * w: (-1) ** (w % 2)})
        Rs = (hecke_R(b, tables), homfly_R(d, cache))
        m = _clearing(*Rs)
        for R in Rs:
            P = mul(specialize(R.terms, Z_R, (1, 4), m), {-4 * w: 1})
            assert P == mul(jones, power(Z_R, m)), b.text()
