import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

from knotpoly.laurent import LaurentPoly
from knotpoly.diagram import (DiagramError, MorseDiagram, parse_braid,
                              braid_closure, connected_sum, find_split,
                              reduce_diagram, _switch_events, _smooth_h_events,
                              _smooth_v_events, _cups_before)
from knotpoly.skein import (SkeinCache, SkeinStats, homfly_R, kauffman_D,
                            full_invariants, DELTA, DELTA_D, CACHE_ENV_VAR,
                            _scan)

from conftest import (A, AINV, ZVAR, P_TREFOIL, Y_TREFOIL, INVALID_EVENTS,
                      FRONT_KINDS, DIAGRAM_KINDS, assert_scan_rejects,
                      front_twin, random_braid, random_surgered_closure,
                      reference_walk)

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
        assert homfly_R(d, cache) == homfly_R(d.reversed(), cache)


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
    d2 = braid_closure(parse_braid("braid 3: 1 -2 1 -2")).reversed()
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


def test_cache_env_var(tmp_path, monkeypatch):
    path = str(tmp_path / "envcache.txt")
    monkeypatch.setenv(CACHE_ENV_VAR, path)
    d = braid_closure(parse_braid("braid 2: 1 1"))
    r = full_invariants(d)
    assert os.path.exists(path)
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert full_invariants(d).R == r.R


def test_cache_env_var_file_opened_once_and_closed(tmp_path):
    """cache=None calls share one cache per file; it is closed at exit."""
    import knotpoly
    path = tmp_path / "envcache.txt"
    code = "\n".join([
        "from knotpoly.diagram import parse_braid, braid_closure",
        "from knotpoly.inequalities import mfw_check",
        "from knotpoly.skein import SkeinCache, SkeinStats, full_invariants, homfly_R",
        "b = parse_braid('braid 2: 1 1 1')",
        "full_invariants(braid_closure(b))",
        "later = SkeinStats()",
        "homfly_R(braid_closure(b), stats=later)",
        "mfw_check(b)",
        "full_invariants(braid_closure(b), stats=later)",
        "cache = SkeinCache.from_env()",
        "assert cache is SkeinCache.from_env() and cache._fh is not None",
        "assert later.cache_hits >= 2, later  # later calls read the first's memo",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(knotpoly.__file__)))
    env = {**os.environ, CACHE_ENV_VAR: str(path), "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-X", "dev", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    fresh = SkeinCache()
    full_invariants(braid_closure(parse_braid("braid 2: 1 1 1")), fresh)
    assert len(path.read_text().splitlines()) == len(fresh.mem)


def _reference_scan(events, dirs):
    """`_scan` recomputed from the reference walk, thread by thread."""
    ref = reference_walk(events, dirs=dirs)
    cross_at = {ci[0]: ci for ci in ref.cross_info}
    seen = set()
    viols = []
    for start in ref.components:  # a component's id is its first-born thread
        t = start
        while True:
            east = ref.dirs[t] == 1
            plist = ref.thread_passes[t]
            for ev_idx, entered_lower in (plist if east else reversed(plist)):
                if ev_idx in seen:
                    continue
                seen.add(ev_idx)
                _, lo, hi, s = cross_at[ev_idx]
                over = (s == 1) if entered_lower else (s == -1)
                if not over:
                    viols.append((ev_idx, lo, hi, s, s * ref.dirs[lo] * ref.dirs[hi]))
            t = ref.cap_pair[t] if east else ref.cup_pair[t]
            if t == start:
                break
    return len(ref.components), ref.dirs, ref.writhe, viols


def test_scan_matches_reference_walk_random():
    rng = random.Random(17)
    scanned = 0
    for _ in range(400):
        d = random_surgered_closure(rng)
        flips = [rng.random() < 0.5 for _ in d.components]
        flipped = d.with_orientation(flips)
        ev, dd, _a, _c = reduce_diagram(d.events, d.dirs)
        cases = [(d.events, None), (d.events, d.dirs),
                 (flipped.events, flipped.dirs)]
        if ev:
            cases += [(ev, None), (ev, dd)]
        for events, dirs in cases:
            assert _scan(events, dirs) == _reference_scan(events, dirs)
            scanned += 1
    assert scanned >= 3 * 400


def test_scan_matches_morse_diagram_random():
    """`_scan` agrees with the MorseDiagram of the same events and dirs."""
    rng = random.Random(17)
    scanned = 0
    for _ in range(400):
        d = random_surgered_closure(rng)
        flips = [rng.random() < 0.5 for _ in d.components]
        flipped = d.with_orientation(flips)
        ev, dd, _a, _c = reduce_diagram(d.events, d.dirs)
        cases = [(d.events, None), (d.events, d.dirs),
                 (flipped.events, flipped.dirs)]
        if ev:
            cases += [(ev, None), (ev, dd)]
        for events, dirs in cases:
            ref = MorseDiagram(events, dirs)
            ncomp, got_dirs, writhe, viols = _scan(events, dirs)
            assert (ncomp, got_dirs, writhe) == \
                (len(ref.components), ref.dirs, ref.writhe)
            assert len({v[0] for v in viols}) == len(viols)
            for ev_idx, lo, hi, s, eps in viols:
                assert (ev_idx, lo, hi, s) in ref.cross_info
                assert eps == s * ref.dirs[lo] * ref.dirs[hi]
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
        _scan(tuple(events), None)
    assert_scan_rejects(events, DIAGRAM_KINDS)
    assert_scan_rejects(front_twin(events), FRONT_KINDS)


def test_scan_rejects_bad_orientation():
    d = braid_closure(parse_braid("braid 2: 1 1"))
    with pytest.raises(DiagramError):
        _scan(d.events, d.dirs[:-1])                  # wrong shape
    with pytest.raises(DiagramError):
        _scan(d.events, (1, 1, 1, 1))                 # cup mates agree
    with pytest.raises(DiagramError):
        MorseDiagram(d.events, (1, 1, 1, 1))
    # the trefoil's cups pair threads (0, 1), (2, 3) and its caps (0, 3), (1, 2)
    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    for dirs in ((1, 1, -1, -1),                      # only cup mates agree
                 (1, -1, -1, 1)):                     # only cap mates agree
        for check in (lambda: reference_walk(tref.events, dirs=dirs),
                      lambda: MorseDiagram(tref.events, dirs),
                      lambda: _scan(tref.events, dirs)):
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
