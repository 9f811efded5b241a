import itertools
import random

import pytest

from knotpoly.diagram import (MorseDiagram, BraidWord, DiagramError, ParseError,
                              parse_braid, braid_closure, closure_events,
                              connected_sum, encode_dirs, encode_events, find_split,
                              reduce_diagram, scan, _normalize_pass, _swap_adjacent,
                              _smooth_h_events, _smooth_v_events, _switch_events)
from knotpoly.jaeger import DIAGRAM_ALPHABET, nonzero_states

from conftest import (DIAGRAM_KINDS, FRONT_KINDS, INVALID_EVENTS, random_braid,
                      random_front, random_surgered_closure, random_tangle,
                      reference_flip, reference_flow, reference_splice,
                      reference_walk)


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
    unknot = braid_closure(parse_braid("braid 1:"))
    assert (unknot.writhe, unknot.rotation, len(unknot.components)) == (0, 1, 1)

    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    assert tref.writhe == 3 and abs(tref.rotation) == 2
    assert len(tref.components) == 1

    curl = braid_closure(parse_braid("braid 2: 1"))
    assert curl.writhe == 1


def test_stats_examples():
    inf = MorseDiagram([("cup", 0), ("x", 0, -1), ("cap", 0)])
    assert (inf.writhe, inf.rotation, len(inf.components)) == (1, 0, 1)

    unlink = MorseDiagram([("cup", 0), ("cap", 0), ("cup", 0), ("cap", 0)])
    assert unlink.writhe == 0 and len(unlink.components) == 2
    rotations = {MorseDiagram(st.events, st.dirs).rotation
                 for st in nonzero_states(unlink.events, DIAGRAM_ALPHABET, {})}
    assert rotations == {-2, 0, 2}


def test_closure_invariants_random():
    rng = random.Random(101)
    for _ in range(300):
        b = random_braid(rng)
        d = braid_closure(b)
        assert d.writhe == b.exponent_sum()
        assert len(d.components) == b.component_count()
        assert d.rotation == b.strands


def test_closure_events_carry_the_default_orientation():
    """`algebra.braid_invariants` hands the memo `closure_events(b)` with
    dirs (1, -1) per strand, unscanned: on seeded words on 1-8 strands,
    links included, those are `braid_closure(b)`'s events and dirs."""
    rng = random.Random(2020)
    strands, components = set(), set()
    for _ in range(400):
        b = random_braid(rng, max_strands=8, max_letters=12)
        d = braid_closure(b)
        assert d.events == closure_events(b), b
        assert d.dirs == (1, -1) * b.strands, b
        strands.add(b.strands)
        components.add(b.component_count())
    assert strands == set(range(1, 9)) and max(components) >= 3


def _first_crossing(d: MorseDiagram) -> int:
    return d.cross_info[0][0]


def test_switch_involution_and_example():
    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    sw = MorseDiagram(_switch_events(tref.events, _first_crossing(tref)), tref.dirs)
    assert sw.writhe == 1
    assert _switch_events(sw.events, _first_crossing(sw)) == tref.events


def test_resolutions_of_two_crossing_diagrams():
    def resolutions(d):
        ev_idx = _first_crossing(d)
        return [len(MorseDiagram(smooth(d.events, ev_idx)).components)
                for smooth in (_smooth_v_events, _smooth_h_events)]

    # a self-crossing: the two resolutions differ in component count
    plat = MorseDiagram([("cup", 0), ("x", 0, -1), ("x", 0, -1), ("cap", 0)])
    assert set(resolutions(plat)) == {1, 2}

    # a crossing between two components merges them either way
    hopf = braid_closure(parse_braid("braid 2: 1 1"))
    assert resolutions(hopf) == [1, 1]


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
    if dirs is None:
        return encode_events(ev)
    return encode_events(ev) + encode_dirs([x for p in pairs if p for x in p])


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


def _assert_flow(sc, ref):
    """`sc.flow` is the reference walk's order, and lists every thread once,
    each component as one run, in `components` order, from its named thread."""
    assert sc.dirs == ref.dirs
    assert sc.flow == reference_flow(ref)
    assert sorted(sc.flow) == list(range(len(sc.dirs)))
    heads = [t for i, t in enumerate(sc.flow)
             if not i or sc.component_of[t] != sc.component_of[sc.flow[i - 1]]]
    assert heads == list(sc.components)


def test_scan_flow_follows_the_reference_walk():
    """Closed diagrams and fronts under every orientation, spliced states
    with and without given dirs, and open tangles on 1-5 strands with their
    loops flipped."""
    rng = random.Random(29)
    checked = 0
    for _ in range(80):
        d = random_surgered_closure(rng)
        f = random_front(rng, max_crossings=5)
        for events, kinds in ((d.events, DIAGRAM_KINDS), (f.events, FRONT_KINDS)):
            ref = reference_walk(events, kinds)
            _assert_flow(scan(events, kinds), ref)
            for flips in itertools.product((False, True),
                                           repeat=len(ref.components)):
                dirs = reference_flip(ref, flips)
                _assert_flow(scan(events, kinds, dirs),
                             reference_walk(events, kinds, dirs))
            choices = tuple(rng.randint(0, 2) for ev in events if ev[0] == kinds[2])
            spliced, _probes, ref = reference_splice(events, choices, kinds)
            _assert_flow(scan(events, kinds, choices=choices), ref)
            dirs = reference_flip(ref, [rng.random() < 0.5 for _ in ref.components])
            _assert_flow(scan(spliced, kinds, dirs),
                         reference_walk(spliced, kinds, dirs))
            checked += 1
    for _ in range(200):
        n = rng.randint(1, 5)
        events = random_tangle(rng, n, rng.randint(0, 12))
        ref = reference_walk(events, ends=n)
        _assert_flow(scan(events, DIAGRAM_KINDS, ends=n), ref)
        arcs = len(ref.components) - ref.loops
        flips = [False] * arcs + [rng.random() < 0.5 for _ in range(ref.loops)]
        dirs = reference_flip(ref, flips)
        _assert_flow(scan(events, DIAGRAM_KINDS, dirs, ends=n),
                     reference_walk(events, dirs=dirs, ends=n))
        checked += 1
    assert checked == 2 * 80 + 200


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


def _decorated(d: MorseDiagram, rng: random.Random) -> MorseDiagram:
    """d with a free circle in front, a curl after a random cup and an R2
    pair at a random slice, randomly oriented."""
    events = list(d.events)
    cups = [i for i, e in enumerate(events) if e[0] == "cup"]
    if cups:
        i = rng.choice(cups)
        events.insert(i + 1, ("x", events[i][1], rng.choice((1, -1))))
    widths = list(itertools.accumulate(
        (2 if e[0] == "cup" else -2 if e[0] == "cap" else 0 for e in events),
        initial=0))
    slices = [i for i, w in enumerate(widths) if w >= 2]
    if slices:
        i = rng.choice(slices)
        level, s = rng.randrange(widths[i] - 1), rng.choice((1, -1))
        events[i:i] = [("x", level, s), ("x", level, -s)]
    m = MorseDiagram([("cup", 0), ("cap", 0)] + events)
    return MorseDiagram(m.events, reference_flip(
        m, [rng.random() < 0.5 for _ in m.components]))


def test_thread_map_carries_the_orientation():
    """Reducing thread numbers in place of the dirs and reading the dirs
    through the resulting thread map equals reducing the dirs: the events,
    dirs, a-power and circle count all match, on oriented closures and
    morsified fronts with curls, zigzags, R2 pairs and free circles."""
    rng = random.Random(15)
    diagrams = [_decorated(braid_closure(parse_braid("braid 2: 1 1 1")), rng)]
    for _ in range(150):
        diagrams.append(_decorated(random_surgered_closure(rng), rng))
        diagrams.append(_decorated(random_front(rng, max_crossings=4).morsify(), rng))
    reversed_pairs = 0
    for d in diagrams:
        want = reduce_diagram(d.events, d.dirs)
        ev, tmap, a_pow, circles = reduce_diagram(d.events, tuple(range(len(d.dirs))))
        assert (ev, tuple(d.dirs[t] for t in tmap), a_pow, circles) == want
        reversed_pairs += any(tmap[k] > tmap[k + 1] for k in range(0, len(tmap), 2))
    assert reversed_pairs > 0  # a curl reversed a kept cup's pair

    # a curl right after the trefoil's second cup swaps that cup's threads
    tref = braid_closure(parse_braid("braid 2: 1 1 1"))
    curled = MorseDiagram(tref.events[:2] + (("x", 1, 1),) + tref.events[2:])
    ev, tmap, a_pow, circles = reduce_diagram(curled.events, (0, 1, 2, 3))
    assert (ev, tmap, a_pow, circles) == (tref.events, (0, 1, 3, 2), -1, 0)
    assert reduce_diagram(curled.events, curled.dirs)[1] == tuple(
        curled.dirs[t] for t in tmap)


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
