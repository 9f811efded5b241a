import itertools
import random

import pytest

from knotpoly.diagram import (MorseDiagram, BraidWord, DiagramError, ParseError,
                              parse_braid, braid_closure, crossing_surgery,
                              connected_sum, encode_events, find_split,
                              reduce_diagram, _normalize_pass, _swap_adjacent)
from knotpoly.front import FrontWord

from conftest import (INVALID_EVENTS, random_braid, random_front,
                      random_surgered_closure)


def test_parse_braid_examples():
    b = parse_braid("braid 2: 1 1 1")
    assert b.strands == 2 and b.letters == (1, 1, 1) and b.exponent_sum() == 3

    b7 = parse_braid("braid 4: 2 2 3 3 1 1 2 -3 1 1 1")
    assert b7.exponent_sum() == 9 and len(b7.letters) == 11


@pytest.mark.parametrize("bad", [
    "braid 2: 0 1",
    "braid 2: x",
    "braid 2: 5",
    "braid 0:",
    "no colon here",
])
def test_parse_braid_errors(bad):
    with pytest.raises(ParseError):
        parse_braid(bad)


def test_closure_examples():
    assert braid_closure(parse_braid("braid 1:")).stats() == (0, 1, 1)

    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    assert tref.writhe == 3 and abs(tref.rotation) == 2
    assert len(tref.components) == 1

    curl = braid_closure(parse_braid("braid 2: 1"))
    assert curl.writhe == 1


def test_stats_examples():
    inf = MorseDiagram([("cup", 0), ("x", 0, -1), ("cap", 0)])
    assert inf.stats() == (1, 0, 1)

    unlink = MorseDiagram([("cup", 0), ("cap", 0), ("cup", 0), ("cap", 0)])
    assert unlink.writhe == 0 and len(unlink.components) == 2
    rotations = {unlink.with_orientation(f).rotation
                 for f in itertools.product((False, True), repeat=2)}
    assert rotations == {-2, 0, 2}


@pytest.mark.parametrize("flip_count", [1, 3], ids=["too_few", "too_many"])
@pytest.mark.parametrize("two_component", [
    lambda: braid_closure(parse_braid("braid 2: 1 1")),
    lambda: FrontWord([("L", 0), ("R", 0), ("L", 0), ("R", 0)]),
], ids=["diagram", "front"])
def test_with_orientation_needs_one_flip_per_component(two_component, flip_count):
    obj = two_component()
    assert len(obj.components) == 2
    with pytest.raises(DiagramError):
        obj.with_orientation([True] * flip_count)


def test_closure_invariants_random():
    rng = random.Random(101)
    for _ in range(300):
        b = random_braid(rng)
        d = braid_closure(b)
        assert d.writhe == b.exponent_sum()
        assert len(d.components) == b.component_count()
        assert d.rotation == b.strands


def test_switch_involution_and_example():
    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    sw = crossing_surgery(tref, 0, "switch")
    assert sw.writhe == 1
    assert crossing_surgery(sw, 0, "switch").events == tref.events


def test_smooth_oriented_examples():
    d1 = braid_closure(parse_braid("braid 2: 1"))
    assert len(crossing_surgery(d1, 0, "smooth_oriented").components) == 2

    # antiparallel crossing: the parallel-type smoothing is refused
    inf = MorseDiagram([("cup", 0), ("x", 0, -1), ("cap", 0)])
    with pytest.raises(DiagramError):
        crossing_surgery(inf, 0, "smooth_oriented")


def test_resolutions_of_two_crossing_diagrams():
    # a self-crossing: the two resolutions differ in component count
    plat = MorseDiagram([("cup", 0), ("x", 0, -1), ("x", 0, -1), ("cap", 0)])
    kv = len(crossing_surgery(plat, 0, "smooth_vertical").components)
    kh = len(crossing_surgery(plat, 0, "smooth_horizontal").components)
    assert {kv, kh} == {1, 2}

    # a crossing between two components merges them either way
    hopf = braid_closure(parse_braid("braid 2: 1 1"))
    assert len(crossing_surgery(hopf, 0, "smooth_vertical").components) == 1
    assert len(crossing_surgery(hopf, 0, "smooth_horizontal").components) == 1


def test_surgery_bad_index():
    d = braid_closure(parse_braid("braid 2: 1"))
    with pytest.raises(DiagramError):
        crossing_surgery(d, 5, "switch")
    with pytest.raises(DiagramError):
        crossing_surgery(d, 0, "frob")


def test_connected_sum_structure():
    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    s = connected_sum(tref, tref)
    assert s.writhe == 6
    assert len(s.cross_info) == 6
    assert len(s.components) == 1

    hopf = braid_closure(parse_braid("braid 2: 1 1"))
    with pytest.raises(DiagramError):
        connected_sum(tref, hopf)


def test_connected_sum_writhe_additive_random():
    rng = random.Random(55)
    for _ in range(40):
        b1 = random_braid(rng, knot_only=True)
        b2 = random_braid(rng, knot_only=True)
        d1, d2 = braid_closure(b1), braid_closure(b2)
        assert connected_sum(d1, d2).writhe == d1.writhe + d2.writhe


def _code(d, dirs=None):
    """Byte code of the level-normalized events, as the memo keys encode them."""
    ev = list(d.events)
    it = iter(dirs or ())
    pairs = [(next(it), next(it)) if dirs and e[0] == "cup" else None for e in ev]
    while _normalize_pass(ev, pairs):
        pass
    return encode_events(ev, None if dirs is None else [x for p in pairs if p for x in p])


def test_canonical_code_examples():
    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    again = braid_closure(parse_braid("braid 2: 1 1 1"))
    other = braid_closure(parse_braid("braid 2: 1 1 -1"))
    assert _code(tref) == _code(again)
    assert _code(tref) != _code(other)
    # determinism across calls, including orientation bits
    assert _code(tref, tref.dirs) == _code(again, again.dirs)


def test_validation_errors():
    for events in INVALID_EVENTS:
        with pytest.raises(DiagramError):
            MorseDiagram(events)


@pytest.mark.parametrize("strands, letters, message", [
    (0, [], "braid needs at least one strand"),
    (2, [1, 3], "letter 2: generator 3 out of range"),
    (3, [2, -1, 0], "letter 3: generator 0 out of range"),
])
def test_braid_word_errors_count_letters_from_one(strands, letters, message):
    with pytest.raises(DiagramError) as info:
        BraidWord(strands, letters)
    assert str(info.value) == message


def test_reduction_ledger_random():
    """Reduction must preserve writhe (ledgered), components, orientation."""
    rng = random.Random(7)
    for _ in range(400):
        d = random_surgered_closure(rng)
        ev, dd, a_pow, circles = reduce_diagram(d.events, d.dirs)
        if ev:
            d2 = MorseDiagram(ev, dd)
            assert d2.writhe + a_pow == d.writhe
            assert len(d2.components) + circles == len(d.components)
        else:
            assert circles == len(d.components)
            assert a_pow == d.writhe


def _split_reference(events):
    """Leftmost interior slice with two strands and crossings on both sides;
    by counting each prefix afresh."""
    for pos in range(1, len(events)):
        left, right = events[:pos], events[pos:]
        strands = 2 * (sum(e[0] == "cup" for e in left) - sum(e[0] == "cap" for e in left))
        crossed = [any(e[0] == "x" for e in side) for side in (left, right)]
        if strands == 2 and all(crossed):
            return pos
    return None


def test_find_split_matches_reference():
    """Seeded closures, their reductions, disjoint unions and connected sums."""
    rng = random.Random(29)
    inputs = []
    for _ in range(150):
        d1 = braid_closure(random_braid(rng, knot_only=True))
        d2 = braid_closure(random_braid(rng, knot_only=True))
        inputs += [d1.events, reduce_diagram(d1.events)[0], d1.events + d2.events,
                   connected_sum(d1, d2).events,
                   reduce_diagram(connected_sum(d1, d2).events)[0]]
    found = set()
    for events in inputs:
        got = find_split(events)
        assert got == _split_reference(events), events
        found.add(got is not None)
    assert found == {False, True}


def _simulate(events):
    """Oracle semantics: events on named strands, or None when invalid."""
    active, fresh, sem = [], [0], []
    for ev in events:
        k = len(active)
        i = ev[1]
        if ev[0] == "cup":
            if not 0 <= i <= k:
                return None
            a, b = ("n", fresh[0]), ("n", fresh[0] + 1)
            fresh[0] += 2
            active[i:i] = [a, b]
            sem.append(("cup", a, b))
        elif ev[0] == "cap":
            if k < 2 or not 0 <= i <= k - 2:
                return None
            sem.append(("cap", active[i], active[i + 1]))
            del active[i:i + 2]
        else:
            if k < 2 or not 0 <= i <= k - 2:
                return None
            sem.append(("x", active[i], active[i + 1], ev[2]))
            active[i], active[i + 1] = active[i + 1], active[i]
    return sem, tuple(active)


def _same_up_to_window_names(base, other, k0):
    """Equal simulations, up to the order in which the two window events
    minted their fresh cup names."""
    lo = 2 * k0
    swap = {("n", lo): ("n", lo + 2), ("n", lo + 1): ("n", lo + 3),
            ("n", lo + 2): ("n", lo), ("n", lo + 3): ("n", lo + 1)}

    def apply(sim, m):
        sem, act = sim
        sub = lambda x: m.get(x, x)
        out = [(op[0],) + tuple(sub(x) for x in op[1:3]) + tuple(op[3:])
               for op in sem]
        return sorted(out), tuple(sub(x) for x in act)
    return any(apply(base, {}) == apply(other, m) for m in ({}, swap))


def test_commutation_rules_against_simulation():
    """Every event pair with levels 0-6, after 0-6 prefix cups.

    A swap that `_swap_adjacent` returns must simulate equal (sound).  Where
    normalization takes no swap (none returned, or not lexicographically
    decreasing), no reorder (e2', e1') with levels within 2 of the originals
    and e2' < e1 may simulate equal (complete), so that a swap the
    normalization would take cannot be missing.
    """
    events = [(k, l) + s for k, s in (("cup", ()), ("cap", ()), ("x", (1,)), ("x", (-1,)))
              for l in range(7)]
    swaps = reorders = 0
    for k0, e1, e2 in itertools.product(range(7), events, events):
        prefix = [("cup", 0)] * k0
        base = _simulate(prefix + [e1, e2])
        if base is None:
            continue
        res = _swap_adjacent(e1, e2)
        if res is not None:
            swaps += 1
            other = _simulate(prefix + list(res))
            assert other is not None, (e1, e2, res)
            assert _same_up_to_window_names(base, other, k0), (e1, e2, res)
            if res[0] < e1:
                continue
        for d1, d2 in itertools.product(range(-2, 3), repeat=2):
            e1n = (e1[0], e1[1] + d1) + e1[2:]
            e2n = (e2[0], e2[1] + d2) + e2[2:]
            if e1n[1] < 0 or e2n[1] < 0 or not e2n < e1:
                continue
            other = _simulate(prefix + [e2n, e1n])
            reorders += 1
            assert other is None or not _same_up_to_window_names(base, other, k0), \
                (e1, e2, e2n, e1n)
    assert swaps > 500 and reorders > 5000


def test_json_dump_shape():
    d = braid_closure(parse_braid("braid 2: 1 -1"))
    blob = d.to_json()
    assert blob["events"][0] == ["cup", 0]
    assert ["x", 0, 1] in blob["events"] and ["x", 0, -1] in blob["events"]
