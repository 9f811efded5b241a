"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The whole module is designed to finish in a few minutes on
commodity hardware; the budgeted limits are asserted where stated.
"""

import itertools
import random
import time

import pytest

from knotpoly.algebra import braid_invariants
from knotpoly.laurent import LaurentPoly, DeltaFraction, TAU
from knotpoly.diagram import (BraidWord, MorseDiagram, parse_braid,
                              braid_closure, connected_sum)
from knotpoly.front import FrontWord, saucer_front, crossed_saucer_front
from knotpoly.skein import (SkeinCache, SkeinStats, homfly_R, kauffman_D,
                            full_invariants)
from knotpoly.jaeger import jaeger_both_sides, lj_both_sides, lemma_check, \
    proof_chain_check
from knotpoly.inequalities import check_front_bounds, mfw_check

from conftest import (A, AINV, ZVAR, DELTA, P_TREFOIL, Y_TREFOIL, EP3_BRAID,
                      WITNESS_BRAID, SHORT_WITNESS_BRAID, random_braid,
                      random_front)

ONE = LaurentPoly.one()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def front_corpus(cache):
    """1000 seeded knot fronts with up to 8 crossings."""
    rng = random.Random(2026)
    fronts = []
    for _ in range(1000):
        cap = rng.choice([0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7, 8])
        fronts.append(random_front(rng, max_crossings=cap, knot_only=True))
    assert max(f.crossing_count() for f in fronts) == 8
    return fronts


def test_criterion_01_trefoil_goldens(cache):
    t0 = time.time()
    values = {}
    for word in ("braid 2: 1 1 1", "braid 2: -1 -1 -1"):
        res = full_invariants(braid_closure(parse_braid(word)), cache)
        values[word] = (res.P == P_TREFOIL and res.Y == Y_TREFOIL,
                        res.e_P, res.e_Y)
    matching = [w for w, v in values.items() if v[0]]
    elapsed = time.time() - t0
    ok = (len(matching) == 1
          and values[matching[0]][1:] == (-5, -6)
          and elapsed < 1.0)
    _report(1, ok, f"one chirality matches exactly, e_P=-5 e_Y=-6, {elapsed:.3f}s")


def test_criterion_02_jaeger_sweep(cache):
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        gens = [i for i in range(-(n - 1), n) if i != 0]
        for length in range(0, 5):
            for letters in itertools.product(gens, repeat=length):
                d = braid_closure(BraidWord(n, letters))
                assert jaeger_both_sides(d, cache).equal, (n, letters)
                checked += 1
    rng = random.Random(88)
    randoms = 0
    while randoms < 100:
        b = random_braid(rng, max_strands=4, max_letters=8)
        if len(b.letters) <= 4:
            continue
        assert jaeger_both_sides(braid_closure(b), cache).equal, b.text()
        randoms += 1
    elapsed = time.time() - t0
    ok = checked == 6609 and randoms == 100 and elapsed < 600
    _report(2, ok, f"{checked} exhaustive + {randoms} random closures, {elapsed:.0f}s")


def test_criterion_03_lj_examples(cache):
    cert1 = lj_both_sides(saucer_front(), cache)
    aa1 = A * A - ONE
    want1 = {DeltaFraction(aa1, 1),
             DeltaFraction(aa1 * LaurentPoly.monomial(1, -2, 2), 1)}
    got1 = {c[2] for c in cert1.contributions}
    ok1 = cert1.equal and len(cert1.contributions) == 2 and got1 == want1

    cert2 = lj_both_sides(crossed_saucer_front(), cache)
    a3a = A ** 3 - A
    term_u = DeltaFraction(a3a * LaurentPoly.monomial(1, -1, 1), 1)
    term_h = DeltaFraction(-TAU * aa1 * LaurentPoly.monomial(1, -2, 2), 1)
    term_c = DeltaFraction(TAU * aa1 * aa1 * LaurentPoly.monomial(1, -3, 2), 2)
    got2 = [c[2] for c in cert2.contributions]
    ok2 = (cert2.equal and len(got2) == 4
           and sum(1 for g in got2 if g == term_u) == 2
           and sum(1 for g in got2 if g == term_h) == 1
           and sum(1 for g in got2 if g == term_c) == 1)
    _report(3, ok1 and ok2, "both examples reproduce term by term")


def test_criterion_04_proof_chain(cache):
    rng = random.Random(404)
    fronts = [saucer_front(), crossed_saucer_front()]
    while len(fronts) < 100:
        fronts.append(random_front(rng, max_crossings=6))
    states = 0
    for f in fronts:
        assert lj_both_sides(f, cache).equal, f.events
        pc = proof_chain_check(f, cache)
        assert pc["weight_ok"] and pc["nu_ok"] and pc["rot_ok"], f.events
        assert pc["r_factor_ok"] and pc["master_ok"], f.events
        states += pc["states"]
    _report(4, True,
            f"100 fronts, {states} states, identity and all relations exact")


def test_criterion_05_lemma(cache, front_corpus):
    t0 = time.time()
    states = 0
    for f in front_corpus:
        rows = lemma_check(f, cache)
        states += len(rows)
        for r in rows:
            assert r.nonnegative, (f.events, r)
            assert r.respects_bound, (f.events, r)
    _report(5, states > 0,
            f"1000 fronts, {states} state terms all genuine and bounded, "
            f"{time.time() - t0:.0f}s")


def test_criterion_06_front_bounds(cache, front_corpus):
    for f in front_corpus:
        rep = check_front_bounds(f, cache)
        assert rep.bound_b_slack >= 0, f.events
        assert rep.bound_c_slack >= 0, f.events
    tight = check_front_bounds(saucer_front(), cache)
    ok = tight.bound_b_slack == 0 and tight.bound_c_slack == 0
    _report(6, ok, "1000 knot fronts nonnegative; two-cusp front tight on both")


def test_criterion_07_mfw(cache):
    rng = random.Random(77)
    for _ in range(1000):
        b = random_braid(rng, max_strands=5, max_letters=10)
        rep = mfw_check(b, cache)
        assert rep.mfw_slack >= 0, b.text()
    _report(7, True, "1000 braids, slack always nonnegative")


def _stacked(b1: BraidWord, b2: BraidWord) -> BraidWord:
    """b2 above b1, shifted up by b1's strands less one: its closure is the
    connected sum of theirs, with their writhes added."""
    up = b1.strands - 1
    return BraidWord(up + b2.strands,
                     b1.letters + tuple(l + up if l > 0 else l - up for l in b2.letters))


def test_criterion_08_additivity(cache):
    """The skein split's R and D of each connected sum equal the algebra
    engines' R and D of the stacked braid, which no split formula makes,
    and e_P + 1 and e_Y + 1 add on those."""
    t0 = time.time()
    rng = random.Random(808)
    algebra_cache = SkeinCache()  # a memo that only the algebra engines write
    pairs = 0
    while pairs < 20:
        b1 = random_braid(rng, max_strands=3, max_letters=8, knot_only=True)
        b2 = random_braid(rng, max_strands=3, max_letters=8, knot_only=True)
        d1, d2 = braid_closure(b1), braid_closure(b2)
        s1, s2 = full_invariants(d1, cache), full_invariants(d2, cache)
        split = full_invariants(connected_sum(d1, d2), cache)
        assert split.e_P + 1 == (s1.e_P + 1) + (s2.e_P + 1)
        assert split.e_Y + 1 == (s1.e_Y + 1) + (s2.e_Y + 1)
        r1, r2, rs = (braid_invariants(b, algebra_cache)
                      for b in (b1, b2, _stacked(b1, b2)))
        assert (rs.R, rs.D, rs.w) == (split.R, split.D, split.w)
        assert rs.e_P + 1 == (r1.e_P + 1) + (r2.e_P + 1)
        assert rs.e_Y + 1 == (r1.e_Y + 1) + (r2.e_Y + 1)
        pairs += 1

    base = braid_closure(parse_braid(EP3_BRAID))
    d = base
    eps = []
    for copies in (1, 2, 3):
        if copies > 1:
            d = connected_sum(d, base)
        eps.append(full_invariants(d, cache).e_P)
    elapsed = time.time() - t0
    ok = eps == [3, 7, 11] and elapsed < 600
    _report(8, ok, f"20 pairs additive, split equal to stacked braid; "
                   f"e_P over d=1,2,3 is {eps}, {elapsed:.0f}s")


def test_criterion_09_ep3_fixture(cache):
    b = parse_braid(EP3_BRAID)
    knot = b.component_count() == 1
    res = full_invariants(braid_closure(b), cache)

    switched = list(b.letters)
    switched[0] = -switched[0]
    bsw = BraidWord(b.strands, switched)
    dsw = braid_closure(bsw)
    cert = homfly_R(dsw, cache) == DELTA.shift(0, dsw.writhe)
    ok = knot and res.e_P == 3 and cert
    _report(9, ok, f"knot={knot}, e_P={res.e_P}, unknot certificate={cert}")


def test_criterion_10_witness(cache):
    b = parse_braid(WITNESS_BRAID)
    knot = b.component_count() == 1
    t0 = time.time()
    res = full_invariants(braid_closure(b), cache)
    ok = knot and res.e_P < res.e_Y
    _report(10, ok, f"e_P={res.e_P} < e_Y={res.e_Y}, "
                    f"{time.time() - t0:.0f}s")


def test_criterion_10_short_witness():
    """The 12-letter witness: both engines give e_P = -9 < e_Y = -8 and the
    same R and D, each on a cache of its own so that neither reads the
    other's memo, and the braid bound is sharp on it."""
    b = parse_braid(SHORT_WITNESS_BRAID)
    t0 = time.time()
    algebra_cache = SkeinCache()
    alg = braid_invariants(b, algebra_cache)
    res = full_invariants(braid_closure(b), SkeinCache())
    rep = mfw_check(b, algebra_cache)
    ok = (b.component_count() == 1
          and (alg.e_P, alg.e_Y) == (res.e_P, res.e_Y) == (-9, -8)
          and (alg.R, alg.D) == (res.R, res.D)
          and rep.mfw_slack == 0 and rep.witness)
    _report(10, ok, f"12 letters: e_P={res.e_P} < e_Y={res.e_Y}, "
                    f"slack_mfw={rep.mfw_slack}, {time.time() - t0:.1f}s")


def test_criterion_11_markov(cache):
    rng = random.Random(811)
    conj = stab = orient = 0
    while conj < 200:
        b = random_braid(rng, max_strands=4, max_letters=8)
        if not b.letters:
            continue
        k = rng.randrange(len(b.letters))
        rotated = BraidWord(b.strands, b.letters[k:] + b.letters[:k])
        assert homfly_R(braid_closure(b), cache) == \
            homfly_R(braid_closure(rotated), cache)
        conj += 1
    while stab < 100:
        b = random_braid(rng, max_strands=4, max_letters=7)
        sgn = rng.choice([1, -1])
        wide = BraidWord(b.strands + 1, list(b.letters) + [sgn * b.strands])
        assert homfly_R(braid_closure(wide), cache) == \
            homfly_R(braid_closure(b), cache).shift(0, sgn)
        stab += 1
    while orient < 100:
        b = random_braid(rng, max_strands=4, max_letters=8, knot_only=True)
        d = braid_closure(b)
        reversed_d = MorseDiagram(d.events, tuple(-x for x in d.dirs))
        assert homfly_R(d, cache) == homfly_R(reversed_d, cache)
        orient += 1
    _report(11, True, f"{conj} conjugations, {stab} stabilizations, "
                      f"{orient} reversals")


def test_criterion_12_performance():
    word = "braid 4: 1 2 3 1 2 3 1 -2 3 1 2 -3"
    b = parse_braid(word)
    assert len(b.letters) == 12
    d = braid_closure(b)
    stats = SkeinStats()
    t0 = time.time()
    res = full_invariants(d, SkeinCache(), stats)
    elapsed = time.time() - t0
    ok = elapsed < 60
    lookups = stats.cache_hits + stats.cache_misses
    hit_rate = stats.cache_hits / lookups if lookups else 0.0
    _report(12, ok, f"12-crossing diagram in {elapsed:.2f}s, "
                    f"{stats.nodes} nodes, cache hit rate {hit_rate:.2f}")
