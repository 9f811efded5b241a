import random
from types import SimpleNamespace

import pytest

from knotpoly.laurent import LaurentPoly
from knotpoly.diagram import (DiagramError, MorseDiagram, parse_braid,
                              braid_closure, scan, _switch_events,
                              _smooth_h_events, _smooth_v_events)
from knotpoly.front import FrontWord
from knotpoly.cli import CACHE_ENV_VAR
from knotpoly.skein import SkeinCache, full_invariants

# unknot values
DELTA = LaurentPoly({(-1, 1): 1, (-1, -1): -1})            # (a - a^-1)/z
DELTA_D = LaurentPoly({(-1, 1): 1, (-1, -1): -1, (0, 0): 1})

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
# a 12-letter witness, found by deleting letter pairs from the one above
SHORT_WITNESS_BRAID = "braid 5: -4 2 3 -4 3 -1 2 -1 3 2 3 2"
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


@pytest.fixture(autouse=True)
def no_env_cache(monkeypatch):
    """The suite ignores the user's cache file; tests that need one set it."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)


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


def matchings(points):
    """Every perfect matching of `points`, as {point: partner}."""
    if not points:
        yield {}
        return
    first = points[0]
    for j in range(1, len(points)):
        rest = points[1:j] + points[j + 1:]
        for m in matchings(rest):
            yield {**m, first: points[j], points[j]: first}


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
        ev_idx = d.cross_info[rng.randrange(len(d.cross_info))][0]
        act = rng.choice(["switch", "smooth_horizontal", "smooth_vertical"])
        if act == "switch":
            d = MorseDiagram(_switch_events(d.events, ev_idx), d.dirs)
        else:
            smooth = {"smooth_horizontal": _smooth_h_events,
                      "smooth_vertical": _smooth_v_events}[act]
            d = MorseDiagram(smooth(d.events, ev_idx))
    return d


def random_tangle(rng: random.Random, n: int, length: int) -> tuple:
    """Random events on a stack of n strands, closed back to n strands."""
    events, k = [], n
    for _ in range(length):
        kind = rng.choice(("cup", "cap", "x", "x") if k >= 2 else ("cup",))
        if kind == "x":
            events.append(("x", rng.randint(0, k - 2), rng.choice((1, -1))))
        else:
            events.append((kind, rng.randint(0, k if kind == "cup" else k - 2)))
            k += 2 if kind == "cup" else -2
    for k in range(k, n, -2):
        events.append(("cap", rng.randint(0, k - 2)))
    for k in range(k, n, 2):
        events.append(("cup", rng.randint(0, k)))
    return tuple(events)


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


DIAGRAM_KINDS = ("cup", "cap", "x", 1)
FRONT_KINDS = ("L", "R", "X", -1)


def reference_walk(events, kinds=DIAGRAM_KINDS, dirs=None, ends=0):
    """A reference for `diagram.scan` that shares none of its code.

    Dict mates, union-find components and orientation by propagation from
    each component's seed thread, or a check of the given dirs.  A loop is
    named by its least thread and seeded with the kinds' seed dir.  An open
    tangle (`ends` strands at each side) starts with threads 0 .. ends-1; its
    arcs come first, in the order of their first end points (`points[e]` is
    the thread at end point e: S_0.., then E_0..), each named by and seeded
    from the thread there, +1 at a left end and -1 at a right end.
    `brauer[e]` is the end point matched to e and `loops` the loop count.
    `before[p]` is the strand stack just before event p; `thread_passes[t]`
    lists (ev_idx, entered at the lower level).  Crossings without a sign
    (front ones) get sign 0.
    """
    birth, death, cross, seed = kinds
    events = tuple(events)
    active, before, parent = list(range(ends)), [], list(range(ends))
    cup_pair, cap_pair = {}, {}
    passes = {t: [] for t in range(ends)}
    cross_info, cup_events, cap_events = [], [], []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for idx, ev in enumerate(events):
        before.append(list(active))
        kind, i = ev[0], ev[1]
        k = len(active)
        if kind == birth:
            if not 0 <= i <= k:
                raise DiagramError("birth level out of range")
            lo, hi = len(parent), len(parent) + 1
            parent.extend((lo, hi))
            union(lo, hi)
            cup_pair[lo], cup_pair[hi] = hi, lo
            passes[lo], passes[hi] = [], []
            active[i:i] = [lo, hi]
            cup_events.append((idx, lo, hi))
        elif kind in (death, cross):
            if k < 2 or not 0 <= i <= k - 2:
                raise DiagramError("level out of range")
            lo, hi = active[i], active[i + 1]
            if kind == death:
                cap_pair[lo], cap_pair[hi] = hi, lo
                union(lo, hi)
                del active[i:i + 2]
                cap_events.append((idx, lo, hi))
                continue
            s = ev[2] if len(ev) > 2 else 0
            if len(ev) > 2 and s not in (1, -1):
                raise DiagramError("crossing sign must be +-1")
            cross_info.append((idx, lo, hi, s))
            passes[lo].append((idx, True))
            passes[hi].append((idx, False))
            active[i], active[i + 1] = hi, lo
        else:
            raise DiagramError("unknown kind")
    if len(active) != ends:
        raise DiagramError("wrong number of strands at the end")

    n = len(parent)
    points = list(range(ends)) + active
    arcs = {}  # root -> its first end point
    for e, t in enumerate(points):
        arcs.setdefault(find(t), e)
    brauer = [0] * len(points)
    for root, e in arcs.items():
        f = next(f for f in range(len(points) - 1, -1, -1)
                 if find(points[f]) == root)
        brauer[e], brauer[f] = f, e
    loops = sorted({find(t) for t in range(n)} - set(arcs))
    name = {root: points[e] for root, e in arcs.items()}
    name.update((root, root) for root in loops)
    component_of = tuple(name[find(t)] for t in range(n))
    components = tuple(points[e] for e in sorted(arcs.values())) + tuple(loops)
    seeds = [(points[e], 1 if e < ends else -1) for e in arcs.values()]
    seeds += [(c, seed) for c in loops]
    if dirs is None:
        d = [0] * n
        stack = [t for t, _dir in seeds]
        for t, dir_ in seeds:
            d[t] = dir_
        while stack:
            t = stack.pop()
            for mates in (cup_pair, cap_pair):
                m = mates.get(t)
                if m is not None and d[m] == 0:
                    d[m] = -d[t]
                    stack.append(m)
        dirs = tuple(d)
    else:
        dirs = tuple(dirs)
        if len(dirs) != n or any(x not in (1, -1) for x in dirs):
            raise DiagramError("orientation vector has wrong shape")
        for mates in (cup_pair, cap_pair):
            if any(dirs[t] != -dirs[m] for t, m in mates.items()):
                raise DiagramError("inconsistent orientation assignment")
        if any(dirs[t] != dir_ for t, dir_ in seeds[:len(arcs)]):
            raise DiagramError("an arc not oriented from its first end point")
    rot2 = sum(dirs[lo] for _i, lo, _hi in cup_events + cap_events)
    return SimpleNamespace(
        events=events, dirs=dirs, before=before, cup_pair=cup_pair,
        cap_pair=cap_pair, cross_info=tuple(cross_info),
        thread_passes=passes, cup_events=cup_events, cap_events=cap_events,
        component_of=component_of, components=components, points=points,
        brauer=tuple(brauer), loops=len(loops),
        writhe=sum(s * dirs[lo] * dirs[hi] for _i, lo, hi, s in cross_info),
        rotation=rot2 // 2)


def reference_flow(ref):
    """The threads of a reference walk `ref`, in the order `reference_descend`
    visits them: each component in turn, from its named thread along the
    flow, east to the cap mate and west to the birth mate."""
    order = []
    for start in ref.components:  # arcs from their first end, then loops
        t = start
        while t is not None:
            order.append(t)
            t = (ref.cap_pair if ref.dirs[t] == 1 else ref.cup_pair).get(t)
            if t == start:
                break
    return order


def reference_descend(events, dirs=None, ends=0):
    """`skein.descend` recomputed from the reference walk, thread by thread:
    (component count, dirs, writhe, violations).

    The writhe is read off a reference walk of the descending diagram (the
    violations switched): all its crossings for a closed diagram, its
    self-crossings for a tangle.
    """
    ref = reference_walk(events, dirs=dirs, ends=ends)
    cross_at = {ci[0]: ci for ci in ref.cross_info}
    seen = set()
    viols = []
    for t in reference_flow(ref):
        plist = ref.thread_passes[t]
        for ev_idx, entered_lower in (plist if ref.dirs[t] == 1 else reversed(plist)):
            if ev_idx in seen:
                continue
            seen.add(ev_idx)
            _, lo, hi, s = cross_at[ev_idx]
            over = (s == 1) if entered_lower else (s == -1)
            if not over:
                viols.append((ev_idx, lo, hi, s, s * ref.dirs[lo] * ref.dirs[hi]))
    switched = {v[0] for v in viols}
    desc = reference_walk([("x", ev[1], -ev[2]) if idx in switched else ev
                           for idx, ev in enumerate(events)], dirs=ref.dirs, ends=ends)
    writhe = desc.writhe if not ends else \
        sum(s * desc.dirs[lo] * desc.dirs[hi] for _i, lo, hi, s in desc.cross_info
            if desc.component_of[lo] == desc.component_of[hi])
    return len(ref.components), ref.dirs, writhe, viols


def reference_flip(ref, flips):
    """`ref.dirs` with the components whose flip bit is set reversed."""
    flip_of = dict(zip(ref.components, flips))
    return tuple(-d if flip_of[c] else d
                 for d, c in zip(ref.dirs, ref.component_of))


def reference_splice(events, choices, kinds=DIAGRAM_KINDS):
    """Splice by `choices`, then walk: (spliced events, probes, walk).

    Choice 1 drops a crossing and probes the two threads at its levels;
    choice 2 puts a death and a birth in its place and probes the thread
    into the death and the lower thread out of the birth.
    """
    birth, death, cross, _seed = kinds
    out, sites = [], []
    per_crossing = iter(choices)
    for ev in events:
        c = next(per_crossing) if ev[0] == cross else 0
        if not c:
            out.append(ev)
            continue
        sites.append((c, len(out), ev[1]))
        if c == 2:
            out += [(death, ev[1]), (birth, ev[1])]
    ref = reference_walk(out, kinds)
    born = {idx: lo for idx, lo, _hi in ref.cup_events}
    probes = []
    for c, pos, i in sites:
        stack = ref.before[pos]
        probes.append((c, stack[i], stack[i + 1] if c == 1 else born[pos + 1]))
    return tuple(out), probes, ref


def front_twin(events):
    """A diagram's events as front events: cup -> L, cap -> R, x -> X.

    A crossing whose sign is not +-1 and an unknown kind stay as they are,
    so they are unknown kinds to a front.
    """
    twin = {"cup": "L", "cap": "R"}
    out = []
    for ev in events:
        if ev[0] in twin:
            out.append((twin[ev[0]], ev[1]))
        elif ev[0] == "x" and ev[2:] in ((1,), (-1,)):
            out.append(("X", ev[1]))
        else:
            out.append(ev)
    return out


def assert_scan_rejects(events, kinds):
    """`scan` raises DiagramError with every crossing kept, opened or walled."""
    nx = sum(1 for ev in events if ev[0] == kinds[2])
    for c in (0, 1, 2):
        with pytest.raises(DiagramError):
            scan(events, kinds, choices=(c,) * nx)
