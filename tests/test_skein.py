import collections
import hashlib
import itertools
import inspect
import os
import random
from types import SimpleNamespace

import pytest

from knotpoly.laurent import DeltaFraction, LaurentPoly
from knotpoly.diagram import (DiagramError, MorseDiagram, parse_braid,
                              braid_closure, connected_sum, find_split,
                              reduce_diagram, _switch_events, _smooth_h_events,
                              _smooth_v_events, _cups_before)
from knotpoly import jaeger, skein
from knotpoly.skein import (Oriented, SkeinCache, SkeinStats, homfly_R,
                            kauffman_D, full_invariants, memo_value, descend)

from conftest import (A, AINV, ZVAR, DELTA, DELTA_D, P_TREFOIL, Y_TREFOIL,
                      INVALID_EVENTS, FRONT_KINDS, DIAGRAM_KINDS, assert_scan_rejects,
                      front_twin, random_braid, random_front,
                      random_surgered_closure, reference_descend,
                      reference_flip, reference_walk)

ONE = LaurentPoly.one()


def test_unknot_axioms(cache):
    unknot = braid_closure(parse_braid("braid 1:"))
    assert homfly_R(unknot, cache) == DELTA
    assert kauffman_D(unknot, cache) == DELTA_D


def test_one_curl_values(cache):
    inf = MorseDiagram([("cup", 0), ("x", 0, -1), ("cap", 0)])
    assert homfly_R(inf, cache) == (A * A - ONE).shift(-1, 0)
    assert kauffman_D(inf, cache) == A + (A * A - ONE).shift(-1, 0)
    # the curl encoding built into morsification satisfies D(curl) = a D(o)
    assert kauffman_D(inf, cache) == A * DELTA_D


def test_trefoil_goldens(cache, paper_trefoil):
    res = full_invariants(paper_trefoil, cache)
    assert res.P == P_TREFOIL
    assert res.Y == Y_TREFOIL
    assert res.e_P == -5 and res.e_Y == -6
    assert res.P == res.R.shift(0, -res.w)
    assert res.Y == res.D.shift(0, -res.w)


def test_skein_relations_hold_everywhere(cache):
    rng = random.Random(81)
    for _ in range(25):
        d = braid_closure(random_braid(rng, max_strands=4, max_letters=6))
        for cn in range(len(d.cross_info)):
            ev_idx, lo, hi, s = d.cross_info[cn]
            eps = s * d.dirs[lo] * d.dirs[hi]
            switched = MorseDiagram(_switch_events(d.events, ev_idx), d.dirs)
            if d.dirs[lo] * d.dirs[hi] == 1:
                smoothed = MorseDiagram(_smooth_h_events(d.events, ev_idx), d.dirs)
            else:
                # vertical smoothing; the new cup's threads inherit the dirs
                pos = 2 * _cups_before(d.events, ev_idx)
                smoothed = MorseDiagram(
                    _smooth_v_events(d.events, ev_idx),
                    d.dirs[:pos] + (d.dirs[hi], d.dirs[lo]) + d.dirs[pos:])
            assert homfly_R(d, cache) - homfly_R(switched, cache) == \
                (homfly_R(smoothed, cache) * eps).shift(1, 0)
            par = MorseDiagram(_smooth_h_events(d.events, ev_idx))
            turn = MorseDiagram(_smooth_v_events(d.events, ev_idx))
            assert kauffman_D(d, cache) - kauffman_D(switched, cache) == \
                ((kauffman_D(par, cache) - kauffman_D(turn, cache)) * s).shift(1, 0)


def test_markov_conjugation(cache):
    rng = random.Random(82)
    for _ in range(200):
        b = random_braid(rng, max_strands=4, max_letters=7)
        if not b.letters:
            continue
        k = rng.randrange(len(b.letters))
        rotated = b.letters[k:] + b.letters[:k]
        d1 = braid_closure(parse_braid(f"braid {b.strands}: " + " ".join(map(str, b.letters))))
        d2 = braid_closure(parse_braid(f"braid {b.strands}: " + " ".join(map(str, rotated))))
        assert homfly_R(d1, cache) == homfly_R(d2, cache)


def test_markov_stabilization(cache):
    rng = random.Random(83)
    for _ in range(100):
        b = random_braid(rng, max_strands=4, max_letters=6)
        n = b.strands
        sgn = rng.choice([1, -1])
        stabilized = parse_braid(
            f"braid {n + 1}: " + " ".join(map(str, list(b.letters) + [sgn * n])))
        R = homfly_R(braid_closure(b), cache)
        Rst = homfly_R(braid_closure(stabilized), cache)
        assert Rst == R.shift(0, sgn)
        # hence P is invariant
        assert Rst.shift(0, -(b.exponent_sum() + sgn)) == R.shift(0, -b.exponent_sum())


def test_orientation_independence_of_R_on_knots(cache):
    rng = random.Random(84)
    for _ in range(60):
        b = random_braid(rng, knot_only=True, max_strands=4, max_letters=7)
        d = braid_closure(b)
        reversed_d = MorseDiagram(d.events, tuple(-x for x in d.dirs))
        assert homfly_R(d, cache) == homfly_R(reversed_d, cache)


def test_connected_sum_invariants(cache, paper_trefoil):
    # summing with unknot diagrams leaves P and Y unchanged
    r0 = full_invariants(paper_trefoil, cache)
    for unknot_word in ("braid 1:", "braid 2: 1"):
        s = connected_sum(paper_trefoil, braid_closure(parse_braid(unknot_word)))
        r1 = full_invariants(s, cache)
        assert r0.P == r1.P and r0.Y == r1.Y

    s2 = connected_sum(paper_trefoil, paper_trefoil)
    r2 = full_invariants(s2, cache)
    assert r2.e_P == -9 and r2.e_Y == -11


def test_split_optimization_matches_plain_recursion(cache):
    rng = random.Random(85)
    for _ in range(10):
        b1 = random_braid(rng, max_strands=3, max_letters=5, knot_only=True)
        b2 = random_braid(rng, max_strands=3, max_letters=5, knot_only=True)
        d = connected_sum(braid_closure(b1), braid_closure(b2))
        fast = full_invariants(d, cache)
        slow = full_invariants(d, SkeinCache(), allow_split=False)
        assert fast.R == slow.R and fast.D == slow.D


def test_disjoint_union_splits_into_its_parts():
    """Two knot closures as consecutive event blocks.

    find_split offers the connected-sum slice before the first block's last
    cap, one event before the zero-strand junction, and the connected-sum
    rule then gives R(A u B) = R(A) R(B), with dirs (R) and without (D).
    """
    d1 = braid_closure(parse_braid("braid 2: 1 1 1"))
    fig8 = braid_closure(parse_braid("braid 3: 1 -2 1 -2"))
    d2 = MorseDiagram(fig8.events, tuple(-x for x in fig8.dirs))
    union = MorseDiagram(d1.events + d2.events, d1.dirs + d2.dirs)
    junction = len(d1.events)
    assert find_split(union.events) == junction - 1
    assert reduce_diagram(union.events, union.dirs) == (union.events, union.dirs, 0, 0)
    for engine in (homfly_R, kauffman_D):
        value = engine(union, SkeinCache())
        assert value == engine(union, SkeinCache(), allow_split=False)
        assert value == engine(d1, SkeinCache()) * engine(d2, SkeinCache())


def _crossingless_block(rng, max_cups=4):
    """Random cups and caps from no strands back to none."""
    events, strands, cups = [], 0, 0
    while True:
        if strands and (cups == max_cups or rng.random() < 0.5):
            events.append(("cap", rng.randint(0, strands - 2)))
            strands -= 2
            if not strands:
                return events
        else:
            events.append(("cup", rng.randint(0, strands)))
            strands += 2
            cups += 1


def test_reduced_diagrams_split_before_any_zero_strand_slice():
    """Why find_split needs no disjoint-union rule.

    Seeded unions of 2-4 blocks (braid closures and crossingless blocks) are
    reduced with and without dirs.  Wherever a reduced diagram has an
    interior zero-strand slice, find_split returns a connected-sum slice
    before it; and R and D of every union equal the split-free recursion.
    """
    rng = random.Random(91)
    split_cache, plain_cache = SkeinCache(), SkeinCache()
    zero_slices = 0
    for _ in range(1000):
        blocks = [braid_closure(random_braid(rng, max_strands=4, max_letters=7))
                  if rng.random() < 0.6 else MorseDiagram(_crossingless_block(rng))
                  for _ in range(rng.randint(2, 4))]
        events = sum((b.events for b in blocks), ())
        dirs = sum((b.dirs for b in blocks), ())
        for ev, _dirs, _a, _c in (reduce_diagram(events, dirs), reduce_diagram(events)):
            strands = itertools.accumulate({"cup": 2, "cap": -2}.get(e[0], 0)
                                           for e in ev[:-1])
            zero = next((i + 1 for i, s in enumerate(strands) if s == 0), None)
            if zero is not None:
                zero_slices += 1
                pos = find_split(ev)
                assert pos is not None and pos < zero, ev
        union = MorseDiagram(events, dirs)
        assert homfly_R(union, split_cache) == \
            homfly_R(union, plain_cache, allow_split=False)
        assert kauffman_D(union, split_cache) == \
            kauffman_D(union, plain_cache, allow_split=False)
    assert zero_slices > 200


def test_cache_consistency_and_stats(cache):
    d = braid_closure(parse_braid("braid 3: 1 -2 1 -2"))
    fresh = SkeinCache()
    stats = SkeinStats()
    r1 = homfly_R(d, fresh, stats)
    assert stats.cache_misses > 0
    again = SkeinStats()
    r2 = homfly_R(d, fresh, again)
    assert r1 == r2
    assert again.cache_hits >= 1
    assert homfly_R(d, cache) == r1


def test_engine_entry_checks_the_orientation(cache):
    """An orientation must give two entries of +-1 per cup: a long, a short
    or a non-unit vector is a `DiagramError`, with a cold or a warm memo."""
    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    homfly_R(tref, cache)
    for dirs in (tref.dirs + (1, -1), tref.dirs + (5,), tref.dirs[:-1] + (5,),
                 tref.dirs[:-1] + (0,), tref.dirs[:-1], tref.dirs[:-2], ()):
        bad = SimpleNamespace(events=tref.events, dirs=dirs)
        for memo in (SkeinCache(), cache):
            for call in (lambda: homfly_R(bad, memo),
                         lambda: memo_value(bad, memo, lambda: ONE,
                                            kauffman=False)):
                with pytest.raises(DiagramError,
                                   match="orientation vector has wrong shape"):
                    call()
    assert kauffman_D(SimpleNamespace(events=tref.events, dirs=()), cache) \
        == kauffman_D(tref, cache)


@pytest.mark.parametrize("kauffman", [False, True])
def test_memo_value_returns_the_computed_value(kauffman):
    """On a miss `memo_value` returns the very value `compute()` gave, and
    stores the reduced diagram's share: the record times the reduction
    factor is that value.  The closure of `braid 3: 1 1` loses its third
    strand's circle to reduction."""
    d = braid_closure(parse_braid("braid 3: 1 1"))
    value = (kauffman_D if kauffman else homfly_R)(d, SkeinCache())
    memo = SkeinCache()
    _events, _dirs, a_pow, circles, key = skein._entry_reduced(d, kauffman, memo)
    assert circles == 1
    assert memo_value(d, memo, lambda: value, kauffman=kauffman) is value
    assert memo.mem[key] * skein._factor(kauffman, a_pow, circles) == value


@pytest.mark.parametrize("kauffman", [False, True])
def test_memo_value_refuses_a_value_the_factor_does_not_divide(kauffman):
    """A computed value that is no multiple of the reduction factor is an
    internal error, and nothing is stored.  The closure of `braid 3: 1 1`
    loses one circle, so the factor has the unknot numerator once."""
    d = braid_closure(parse_braid("braid 3: 1 1"))
    memo = SkeinCache()
    with pytest.raises(AssertionError, match="not divisible by the reduction factor"):
        memo_value(d, memo, LaurentPoly.one, kauffman=kauffman)
    assert not memo.mem


def test_entry_reduces_each_event_list_once(monkeypatch):
    """R then D of one closure reduce its event list once; on a warm memo
    nothing else is reduced.  The empty event list is reduced on a fresh
    cache, not taken for its empty slot."""
    d = braid_closure(parse_braid("braid 3: 1 -2 1 -2 -2"))
    warm = SkeinCache()
    want = full_invariants(d, warm)
    memo = SkeinCache()
    memo.mem.update(warm.mem)
    seen = []  # the event lists `skein` reduces, in order

    def counted(events, dirs=None):
        seen.append(tuple(events))
        return reduce_diagram(events, dirs)
    monkeypatch.setattr(skein, "reduce_diagram", counted)
    assert full_invariants(d, memo) == want
    assert seen == [d.events]

    cold = SkeinCache()
    seen.clear()
    assert full_invariants(d, cold) == want
    assert seen.count(d.events) == 1 and len(seen) > 1

    seen.clear()
    empty = SimpleNamespace(events=(), dirs=())
    assert homfly_R(empty, SkeinCache()) == ONE
    assert kauffman_D(empty, SkeinCache()) == ONE
    assert seen == [(), ()]


def test_persistent_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.txt")
    d = braid_closure(parse_braid("braid 2: 1 1 1"))
    c1 = SkeinCache(path)
    r1 = homfly_R(d, c1)
    c1.close()
    assert os.path.getsize(path) > 0
    c2 = SkeinCache(path)
    stats = SkeinStats()
    r2 = homfly_R(d, c2, stats)
    c2.close()
    assert r1 == r2
    assert stats.cache_hits >= 1


def test_library_calls_take_their_cache():
    """No engine or checker finds a memo on its own: `cache` has no default,
    so only the CLI picks a cache file."""
    from knotpoly import algebra, inequalities, jaeger, selection
    entry_points = (homfly_R, kauffman_D, full_invariants,
                    jaeger.jaeger_both_sides, jaeger.lj_both_sides,
                    jaeger.lemma_check, jaeger.proof_chain_check,
                    selection.selection_sweep, inequalities.check_front_bounds,
                    inequalities.mfw_check, algebra.braid_invariants)
    for fn in entry_points:
        param = inspect.signature(fn).parameters["cache"]
        assert param.default is inspect.Parameter.empty, fn.__name__


def test_persistent_cache_appends_after_torn_line(tmp_path):
    """Records appended after a torn last line load on the next open."""
    path = tmp_path / "cache.txt"
    trefoil = braid_closure(parse_braid("braid 2: 1 1 1"))
    fig8 = braid_closure(parse_braid("braid 3: 1 -2 1 -2"))
    c1 = SkeinCache(str(path))
    homfly_R(trefoil, c1)
    c1.close()
    with open(path, "a", encoding="ascii") as fh:
        fh.write("52\t[{")
    c2 = SkeinCache(str(path))
    r = homfly_R(fig8, c2)
    c2.close()
    c3 = SkeinCache(str(path))
    c3.close()
    assert c3.mem == c2.mem and homfly_R(fig8, c3) == r


def test_scan_matches_reference_walk_random():
    rng = random.Random(17)
    scanned = 0
    for _ in range(400):
        d = random_surgered_closure(rng)
        flips = [rng.random() < 0.5 for _ in d.components]
        ev, dd, _a, _c = reduce_diagram(d.events, d.dirs)
        cases = [(d.events, None), (d.events, d.dirs),
                 (d.events, reference_flip(d, flips))]
        if ev:
            cases += [(ev, None), (ev, dd)]
        for events, dirs in cases:
            sc, viols, writhe = descend(events, dirs)
            assert (len(sc.components), sc.dirs, writhe, viols) == \
                reference_descend(events, dirs)
            scanned += 1
    assert scanned >= 3 * 400


def test_scan_matches_morse_diagram_random():
    """`descend` agrees with the MorseDiagrams of the same events and dirs
    and of the descending diagram."""
    rng = random.Random(17)
    scanned = 0
    for _ in range(400):
        d = random_surgered_closure(rng)
        flips = [rng.random() < 0.5 for _ in d.components]
        ev, dd, _a, _c = reduce_diagram(d.events, d.dirs)
        cases = [(d.events, None), (d.events, d.dirs),
                 (d.events, reference_flip(d, flips))]
        if ev:
            cases += [(ev, None), (ev, dd)]
        for events, dirs in cases:
            ref = MorseDiagram(events, dirs)
            sc, viols, writhe = descend(events, dirs)
            assert (len(sc.components), sc.dirs) == (len(ref.components), ref.dirs)
            assert len({v[0] for v in viols}) == len(viols)
            switched = events
            for ev_idx, lo, hi, s, eps in viols:
                assert (ev_idx, lo, hi, s) in ref.cross_info
                assert eps == s * ref.dirs[lo] * ref.dirs[hi]
                switched = _switch_events(switched, ev_idx)
            assert writhe == MorseDiagram(switched, sc.dirs).writhe
            assert writhe == ref.writhe - 2 * sum(v[4] for v in viols)
            scanned += 1
    assert scanned >= 3 * 400


@pytest.mark.parametrize("events", INVALID_EVENTS + (
    [("cup", 1), ("cap", 0)],                 # levels one past the end
    [("cup", 0), ("cap", 1)],
    [("cup", 0), ("x", 1, 1), ("cap", 0)],
    [("cup", 0), ("y", 0), ("cap", 0)],       # unknown kind
    [("cup", 0), ("x", 0), ("cap", 0)],       # a crossing without a sign
))
def test_scan_rejects_invalid_events(events):
    with pytest.raises(DiagramError):
        MorseDiagram(events)
    with pytest.raises(DiagramError):
        descend(tuple(events))
    assert_scan_rejects(events, DIAGRAM_KINDS)
    assert_scan_rejects(front_twin(events), FRONT_KINDS)


def test_scan_rejects_bad_orientation():
    d = braid_closure(parse_braid("braid 2: 1 1"))
    with pytest.raises(DiagramError):
        descend(d.events, d.dirs[:-1])                # wrong shape
    with pytest.raises(DiagramError):
        descend(d.events, (1, 1, 1, 1))               # cup mates agree
    with pytest.raises(DiagramError):
        MorseDiagram(d.events, (1, 1, 1, 1))
    # the trefoil's cups pair threads (0, 1), (2, 3) and its caps (0, 3), (1, 2)
    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    for dirs in ((1, 1, -1, -1),                      # only cup mates agree
                 (1, -1, -1, 1)):                     # only cap mates agree
        for check in (lambda: reference_walk(tref.events, dirs=dirs),
                      lambda: MorseDiagram(tref.events, dirs),
                      lambda: descend(tref.events, dirs)):
            with pytest.raises(DiagramError):
                check()


# sha256 of the sorted memo keys (hex, one per line) and of the cache file
# written by full_invariants over MEMO_CORPUS on one fresh file-backed cache.
# Recorded before the event-scan kernel; a change here re-keys or reorders
# the persistent cache files users already have.
MEMO_CORPUS = ("braid 2: 1 1 1",                        # trefoil
               "braid 3: -1 2 -1 2",                    # figure-eight
               "braid 3: 1 -2 1 -2",                    # its mirror word
               "braid 5: 1 -2 3 -4 2 1 -3 2 4 -1 3 -2")  # a 12-letter knot
MEMO_KEYS_SHA256 = \
    "6a3fd8fc9e46d617407ec176793eb37115adbc9ad745bbe696c6ef39106c493b"
CACHE_FILE_SHA256 = \
    "e09e1ad6ac949c1ba92e704847d3975ea7d0b427174efdf9cc967f2811992c74"


def test_memo_keys_and_cache_file_golden(tmp_path):
    path = tmp_path / "cache.txt"
    cache = SkeinCache(str(path))
    stats = SkeinStats()
    for word in MEMO_CORPUS:
        full_invariants(braid_closure(parse_braid(word)), cache, stats)
    cache.close()
    keys = "\n".join(k.hex() for k in sorted(cache.mem)).encode()
    assert (stats.nodes, stats.cache_hits, stats.cache_misses) == (1631, 172, 1459)
    assert hashlib.sha256(keys).hexdigest() == MEMO_KEYS_SHA256
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_FILE_SHA256


# two 5-strand knot closures whose cold skein recursion takes 4,744 and
# 2,069 nodes
DEEP_CLOSURES = ("braid 5: -2 -3 1 -3 -3 -2 3 -2 -2 -1 2 1 1 -3 -4 -2",
                 "braid 5: 3 -1 -3 3 -4 3 -3 3 -4 -2 -1 2 3 -2")


def test_circled_store_forms_one_product_per_memo_value(monkeypatch):
    """On one shared cache, seeded diagram and front state sums and two
    deep closures read each memo value times delta^c from the `circled`
    store: each (memo key, c) is formed and stored once, later memo hits
    read it, and every `homfly_R` and `kauffman_D` value equals the one on
    a fresh cache."""
    shared = SkeinCache()
    writes, reads = collections.Counter(), collections.Counter()

    class Counted(dict):
        def __setitem__(self, key, value):
            writes[key] += 1
            super().__setitem__(key, value)

        def get(self, key, default=None):
            reads[key] += 1
            return super().get(key, default)
    shared.circled = Counted()
    values = []
    engines = {name: getattr(skein, name) for name in ("homfly_R", "kauffman_D")}
    for module in (skein, jaeger):
        for name, engine in engines.items():
            def recorded(d, cache, *args, _engine=engine, **kw):
                value = _engine(d, cache, *args, **kw)
                values.append((_engine, Oriented(tuple(d.events),
                                                 tuple(d.dirs)), value))
                return value
            monkeypatch.setattr(module, name, recorded)
    rng = random.Random(2020)
    for _ in range(25):
        d = braid_closure(random_braid(rng, max_strands=4, max_letters=5))
        assert jaeger.jaeger_both_sides(d, shared).equal
    for _ in range(25):
        f = random_front(rng, max_crossings=4)
        assert jaeger.lj_both_sides(f, shared).equal
        assert jaeger.proof_chain_check(f, shared)["r_factor_ok"]
    for word in DEEP_CLOSURES:
        full_invariants(braid_closure(parse_braid(word)), shared)
    assert len(values) > 1000
    for engine, d, value in values:
        assert engine(d, SkeinCache()) == value, d
    assert writes and set(writes.values()) == {1}
    assert sum(reads.values()) > 2 * len(writes)
    for (key, c), times in shared.circled.items():
        assert c > 0
        assert times == shared.mem[key] * skein._factor(key[:1] == b"D", 0, c)


def _polys(x):
    """Every LaurentPoly in x: a polynomial, a DeltaFraction, a certificate,
    a result, lemma rows, or a container of these."""
    if isinstance(x, LaurentPoly):
        yield x
    elif isinstance(x, dict):
        for item in x.items():
            yield from _polys(item)
    elif isinstance(x, (list, tuple)):
        for item in x:
            yield from _polys(item)
    elif isinstance(x, DeltaFraction):
        yield x.numerator
    elif hasattr(x, "__dataclass_fields__"):
        yield from _polys(list(vars(x).values()))


def test_no_engine_mutates_a_polynomial():
    """A memo hit whose reduction factor is 1 hands out the memo's own
    polynomial, so no engine or state sum may change a polynomial it was
    given or returned.  Two rounds on one cache, the second all hits: the
    terms of every value returned, stored in the cache's stores or
    interned in the module stay as they were."""
    from knotpoly.algebra import braid_invariants
    cache = SkeinCache()
    words = ("braid 1:", "braid 2: 1 1 1", "braid 3: 1 -2 1 -2",
             "braid 3: 1 1 2 -1 2", "braid 4: 1 -2 3 -2 1", "braid 2: 1 -1")
    closures = [braid_closure(parse_braid(w)) for w in words]
    closures.append(connected_sum(closures[1], closures[2]))
    fronts = [random_front(random.Random(seed), max_crossings=4) for seed in range(6)]

    def round_():
        out = []
        for d in closures:
            out += [homfly_R(d, cache), kauffman_D(d, cache),
                    full_invariants(d, cache), jaeger.jaeger_both_sides(d, cache)]
        for w in words:
            out.append(braid_invariants(parse_braid(w), cache))
        for f in fronts:
            out += [jaeger.lj_both_sides(f, cache), jaeger.proof_chain_check(f, cache),
                    jaeger.lemma_check(f, cache)]
        return out

    first = round_()
    kept = [first, cache.mem, cache.circled, cache.tables["substituted"],
            cache.tables["front_states"],
            DELTA, DELTA_D, skein._DELTA_NUM, skein._DELTA_D_NUM,
            [skein._unknot_power(k, c) for k in (False, True) for c in range(8)]]
    terms = [(p, dict(p.terms)) for p in _polys(kept)]
    assert len(terms) > 500
    second = round_()
    assert second == first
    changed = [p for p, t in terms if p.terms != t]
    assert not changed
