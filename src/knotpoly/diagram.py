"""Closed planar link diagrams in Morse (slice) form.

A diagram is a left-to-right sequence of events acting on a stack of strands:

    ("cup", i)      birth of two adjacent strands at levels i, i+1
    ("cap", i)      death of the adjacent strands at levels i, i+1
    ("x", i, s)     crossing of the strands at levels i, i+1, sign s = +-1

The sign convention: s = +1 means the strand entering at the lower level
passes over.  With both strands oriented left-to-right this is the positive
crossing of the braid generator, so braid closures satisfy writhe = exponent
sum.

Threads are the maximal strand runs from a cup endpoint to a cap endpoint;
they are numbered 2*k and 2*k+1 (lower, upper) for the k-th cup.  A thread is
monotone in the time direction, so its orientation is a single bit: dir = +1
when oriented left-to-right, -1 otherwise.

Derived quantities:
    writhe    = sum over crossings of s * dir(bottom thread) * dir(top thread)
    rotation  = half-sum over cups and caps of dir(lower thread)

Rotation counts the turning of the underlying plane curve (the Whitney
index); crossings contribute nothing to it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

Event = tuple  # ("cup", i) | ("cap", i) | ("x", i, s)


class DiagramError(ValueError):
    """Raised for structurally invalid event sequences."""


def cup(i: int) -> Event:
    return ("cup", i)


def cap(i: int) -> Event:
    return ("cap", i)


def crossing(i: int, sign: int) -> Event:
    return ("x", i, sign)


class MorseDiagram:
    """A validated closed diagram with a chosen orientation.

    Orientation is stored as one bit per thread.  If none is supplied, the
    first-born thread of each component is oriented left-to-right and the
    rest follow by propagation.
    """

    __slots__ = ("events", "dirs", "n_threads", "cup_pair", "cap_pair",
                 "cross_info", "thread_passes", "component_of", "components",
                 "writhe", "rotation", "_cup_events", "_cap_events")

    def __init__(self, events: Iterable[Event],
                 dirs: Optional[Sequence[int]] = None):
        self.events = tuple(events)
        active: list[int] = []
        next_tid = 0
        cup_pair: dict[int, int] = {}
        cap_pair: dict[int, int] = {}
        cross_info: list[tuple[int, int, int, int]] = []  # ev_idx, lo_tid, hi_tid, sign
        passes: dict[int, list[tuple[int, bool]]] = {}
        cup_events: list[tuple[int, int, int]] = []  # ev_idx, lo, hi
        cap_events: list[tuple[int, int, int]] = []
        parent: list[int] = []

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                if rx < ry:
                    parent[ry] = rx
                else:
                    parent[rx] = ry

        for idx, ev in enumerate(self.events):
            kind = ev[0]
            i = ev[1]
            k = len(active)
            if kind == "cup":
                if not 0 <= i <= k:
                    raise DiagramError(f"event {idx}: cup level {i} out of range 0..{k}")
                lo, hi = next_tid, next_tid + 1
                next_tid += 2
                parent.extend((lo, hi))
                union(lo, hi)
                cup_pair[lo] = hi
                cup_pair[hi] = lo
                passes[lo] = []
                passes[hi] = []
                active[i:i] = [lo, hi]
                cup_events.append((idx, lo, hi))
            elif kind == "cap":
                if k < 2 or not 0 <= i <= k - 2:
                    raise DiagramError(f"event {idx}: cap level {i} out of range")
                lo, hi = active[i], active[i + 1]
                cap_pair[lo] = hi
                cap_pair[hi] = lo
                union(lo, hi)
                del active[i:i + 2]
                cap_events.append((idx, lo, hi))
            elif kind == "x":
                s = ev[2]
                if s not in (1, -1):
                    raise DiagramError(f"event {idx}: crossing sign must be +-1")
                if k < 2 or not 0 <= i <= k - 2:
                    raise DiagramError(f"event {idx}: crossing level {i} out of range")
                lo, hi = active[i], active[i + 1]
                cross_info.append((idx, lo, hi, s))
                passes[lo].append((idx, True))
                passes[hi].append((idx, False))
                active[i], active[i + 1] = hi, lo
            else:
                raise DiagramError(f"event {idx}: unknown kind {kind!r}")
        if active:
            raise DiagramError("diagram is not closed: strands remain")

        self.n_threads = next_tid
        self.cup_pair = cup_pair
        self.cap_pair = cap_pair
        self.cross_info = tuple(cross_info)
        self.thread_passes = {t: tuple(p) for t, p in passes.items()}
        self._cup_events = tuple(cup_events)
        self._cap_events = tuple(cap_events)

        comp_of = [find(t) for t in range(next_tid)]
        self.component_of = tuple(comp_of)
        self.components = tuple(sorted(set(comp_of)))

        if dirs is None:
            self.dirs = self._propagate({c: 1 for c in self.components})
        else:
            dirs = tuple(dirs)
            if len(dirs) != next_tid or any(d not in (1, -1) for d in dirs):
                raise DiagramError("orientation vector has wrong shape")
            self._check_dirs(dirs)
            self.dirs = dirs

        w = 0
        d = self.dirs
        for _, lo, hi, s in self.cross_info:
            w += s * d[lo] * d[hi]
        self.writhe = w
        rot2 = 0
        for _, lo, _hi in self._cup_events:
            rot2 += d[lo]
        for _, lo, _hi in self._cap_events:
            rot2 += d[lo]
        if rot2 % 2:
            raise DiagramError("odd rotation sum; invalid diagram")
        self.rotation = rot2 // 2

    # -- orientation machinery ---------------------------------------------

    def _propagate(self, seed_by_comp: dict[int, int]) -> tuple[int, ...]:
        dirs = [0] * self.n_threads
        for comp, seed in seed_by_comp.items():
            dirs[comp] = seed
        stack = [c for c in seed_by_comp]
        while stack:
            t = stack.pop()
            for mate_map in (self.cup_pair, self.cap_pair):
                m = mate_map.get(t)
                if m is not None and dirs[m] == 0:
                    dirs[m] = -dirs[t]
                    stack.append(m)
        if any(d == 0 for d in dirs):
            raise DiagramError("orientation propagation failed")
        return tuple(dirs)

    def _check_dirs(self, dirs: Sequence[int]) -> None:
        for mate_map in (self.cup_pair, self.cap_pair):
            for t, m in mate_map.items():
                if dirs[t] != -dirs[m]:
                    raise DiagramError("inconsistent orientation assignment")

    def with_orientation(self, flips: Sequence[bool]) -> "MorseDiagram":
        """Same diagram with components flipped; flips follows self.components order."""
        if len(flips) != len(self.components):
            raise DiagramError("one flip bit per component required")
        flip_of = dict(zip(self.components, flips))
        new_dirs = tuple(-d if flip_of[self.component_of[t]] else d
                         for t, d in enumerate(self.dirs))
        return MorseDiagram(self.events, new_dirs)

    def reversed(self) -> "MorseDiagram":
        return MorseDiagram(self.events, tuple(-d for d in self.dirs))

    # -- queries -------------------------------------------------------------

    @property
    def crossings(self) -> tuple[int, ...]:
        """Event indices of the crossings, in event order."""
        return tuple(ci[0] for ci in self.cross_info)

    def component_count(self) -> int:
        return len(self.components)

    def stats(self) -> tuple[int, int, int]:
        return (self.writhe, self.rotation, len(self.components))

    def oriented_sign(self, cross_number: int) -> int:
        _, lo, hi, s = self.cross_info[cross_number]
        return s * self.dirs[lo] * self.dirs[hi]

    def to_json(self) -> dict:
        return {"events": [list(ev) for ev in self.events]}

    def __repr__(self) -> str:
        return f"MorseDiagram({len(self.events)} events, w={self.writhe}, " \
               f"r={self.rotation}, k={len(self.components)})"


# -- braid words -------------------------------------------------------------


class BraidWord:
    """Strand count plus signed Artin generator letters."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Iterable[int]):
        if strands < 1:
            raise DiagramError("braid needs at least one strand")
        self.strands = strands
        self.letters = tuple(letters)
        for pos, l in enumerate(self.letters):
            if l == 0 or abs(l) > strands - 1:
                raise DiagramError(f"letter {pos}: generator {l} out of range")

    def exponent_sum(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    def permutation(self) -> list[int]:
        perm = list(range(self.strands))
        for l in self.letters:
            i = abs(l) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return perm

    def component_count(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        cycles = 0
        for i in range(self.strands):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return cycles

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {list(self.letters)})"

    def text(self) -> str:
        return f"braid {self.strands}: " + " ".join(str(l) for l in self.letters)


class ParseError(ValueError):
    """Raised on malformed braid or front input."""


def parse_braid(text: str) -> BraidWord:
    """Parse `braid <n> : <int>+`; nonzero k means generator |k| with sign(k)."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError("missing ':' in braid input")
    head_parts = head.split()
    if len(head_parts) != 2 or head_parts[0] != "braid":
        raise ParseError(f"expected 'braid <n>:', got {head.strip()!r}")
    try:
        n = int(head_parts[1])
    except ValueError:
        raise ParseError(f"strand count {head_parts[1]!r} is not an integer") from None
    if n < 1:
        raise ParseError("strand count must be positive")
    letters = []
    for pos, tok in enumerate(rest.split()):
        try:
            l = int(tok)
        except ValueError:
            raise ParseError(f"token {pos}: {tok!r} is not an integer") from None
        if l == 0:
            raise ParseError(f"token {pos}: generator index must be nonzero")
        if abs(l) > n - 1:
            raise ParseError(f"token {pos}: generator {l} out of range for {n} strands")
        letters.append(l)
    return BraidWord(n, letters)


def braid_closure(b: BraidWord) -> MorseDiagram:
    """Standard closure: braid strands at the bottom, nested return strands above."""
    n = b.strands
    events: list[Event] = [("cup", i) for i in range(n)]
    for l in b.letters:
        events.append(("x", abs(l) - 1, 1 if l > 0 else -1))
    events.extend(("cap", i) for i in range(n - 1, -1, -1))
    return MorseDiagram(events)


# -- crossing surgery ---------------------------------------------------------


def _switch_events(events: tuple, ev_idx: int) -> tuple:
    ev = events[ev_idx]
    return events[:ev_idx] + (("x", ev[1], -ev[2]),) + events[ev_idx + 1:]


def _smooth_h_events(events: tuple, ev_idx: int) -> tuple:
    return events[:ev_idx] + events[ev_idx + 1:]


def _smooth_v_events(events: tuple, ev_idx: int) -> tuple:
    i = events[ev_idx][1]
    return events[:ev_idx] + (("cap", i), ("cup", i)) + events[ev_idx + 1:]


def _cups_before(events: tuple, ev_idx: int) -> int:
    return sum(1 for ev in events[:ev_idx] if ev[0] == "cup")


def smooth_vertical_dirs(d: MorseDiagram, cross_number: int) -> tuple[tuple, tuple]:
    """Vertical smoothing with inherited orientation (antiparallel crossings)."""
    ev_idx, lo, hi, _s = d.cross_info[cross_number]
    if d.dirs[lo] * d.dirs[hi] != -1:
        raise DiagramError("vertical smoothing does not respect parallel orientations")
    events = _smooth_v_events(d.events, ev_idx)
    pos = 2 * (_cups_before(d.events, ev_idx))
    new_dirs = d.dirs[:pos] + (d.dirs[hi], d.dirs[lo]) + d.dirs[pos:]
    return events, new_dirs


def crossing_surgery(d: MorseDiagram, cross_number: int, action: str) -> MorseDiagram:
    """switch | smooth_oriented | smooth_horizontal | smooth_vertical."""
    if not 0 <= cross_number < len(d.cross_info):
        raise DiagramError(f"no crossing {cross_number}")
    ev_idx, lo, hi, s = d.cross_info[cross_number]
    if action == "switch":
        return MorseDiagram(_switch_events(d.events, ev_idx), d.dirs)
    if action == "smooth_horizontal":
        return MorseDiagram(_smooth_h_events(d.events, ev_idx))
    if action == "smooth_vertical":
        return MorseDiagram(_smooth_v_events(d.events, ev_idx))
    if action == "smooth_oriented":
        if d.dirs[lo] * d.dirs[hi] == 1:
            return MorseDiagram(_smooth_h_events(d.events, ev_idx), d.dirs)
        raise DiagramError("oriented smoothing requires parallel strands here")
    raise DiagramError(f"unknown surgery action {action!r}")


def connected_sum(d1: MorseDiagram, d2: MorseDiagram) -> MorseDiagram:
    """Join two knot diagrams; writhe and crossing count add."""
    if len(d1.components) != 1 or len(d2.components) != 1:
        raise DiagramError("connected sum requires knot diagrams")
    e1, e2 = d1.events, d2.events
    if e1[-1] != ("cap", 0) or e2[0] != ("cup", 0):
        raise DiagramError("diagrams must end with cap 0 / start with cup 0")
    return MorseDiagram(e1[:-1] + e2[1:])


# -- reduction ---------------------------------------------------------------


def _reduce_pass(events: list, dirs: Optional[list]) -> tuple[int, int, bool]:
    """One scan of adjacent-pair reductions. Returns (a_power, circles, changed)."""
    a_pow = 0
    circles = 0
    changed = False
    i = 0
    while i + 1 < len(events):
        e1, e2 = events[i], events[i + 1]
        k1, l1 = e1[0], e1[1]
        k2, l2 = e2[0], e2[1]
        if k1 == "cup" and k2 == "cap" and l2 == l1:
            circles += 1
            if dirs is not None:
                pos = 2 * sum(1 for ev in events[:i] if ev[0] == "cup")
                del dirs[pos:pos + 2]
            del events[i:i + 2]
            changed = True
            i = max(i - 1, 0)
            continue
        if k1 == "cup" and k2 == "cap" and l2 in (l1 - 1, l1 + 1):
            if dirs is not None:
                pos = 2 * sum(1 for ev in events[:i] if ev[0] == "cup")
                del dirs[pos:pos + 2]
            del events[i:i + 2]
            changed = True
            i = max(i - 1, 0)
            continue
        if k1 == "x" and k2 == "cap" and l2 == l1:
            a_pow += -e1[2]
            del events[i]
            changed = True
            i = max(i - 1, 0)
            continue
        if k1 == "cup" and k2 == "x" and l2 == l1:
            a_pow += -e2[2]
            if dirs is not None:
                # unwinding the curl swaps the cup's thread roles downstream
                pos = 2 * sum(1 for ev in events[:i] if ev[0] == "cup")
                dirs[pos], dirs[pos + 1] = dirs[pos + 1], dirs[pos]
            del events[i + 1]
            changed = True
            continue
        if k1 == "x" and k2 == "x" and l1 == l2 and e1[2] == -e2[2]:
            del events[i:i + 2]
            changed = True
            i = max(i - 1, 0)
            continue
        if (k1 == "cup" and k2 == "x" and l2 in (l1 - 1, l1 + 1)
                and i + 2 < len(events) and events[i + 2] == ("cap", l1)):
            # a strand threads through a loop: kink of writhe +s
            a_pow += e2[2]
            if dirs is not None:
                pos = 2 * sum(1 for ev in events[:i] if ev[0] == "cup")
                del dirs[pos:pos + 2]
            del events[i:i + 3]
            changed = True
            i = max(i - 1, 0)
            continue
        i += 1
    return a_pow, circles, changed


_SHIFT = {"cup": 2, "cap": -2, "x": 0}


def _swap_adjacent(e1: Event, e2: Event) -> Optional[tuple[Event, Event]]:
    """If e1 then e2 equals e2' then e1' on disjoint strands, return (e2', e1')."""
    k1, l1 = e1[0], e1[1]
    k2, l2 = e2[0], e2[1]
    if k1 == "cup":
        if k2 == "cup":
            if l2 <= l1:
                return e2, ("cup", l1 + 2)
            if l2 >= l1 + 2:
                return ("cup", l2 - 2), e1
            return None
        if l2 + 1 < l1:
            return e2, ("cup", l1 + _SHIFT[k2])
        if l2 > l1 + 1:
            return (k2, l2 - 2) + e2[2:], e1
        return None
    if k1 == "cap":
        if k2 == "cup":
            if l2 < l1:
                return e2, ("cap", l1 + 2)
            if l2 > l1:
                return ("cup", l2 + 2), e1
            return None
        if l2 + 1 < l1:
            return e2, ("cap", l1 + _SHIFT[k2])
        if l2 >= l1:
            return (k2, l2 + 2) + e2[2:], e1
        return None
    # k1 == "x": no level shift
    if k2 == "cup":
        if l2 <= l1:
            return e2, ("x", l1 + 2, e1[2])
        if l2 >= l1 + 2:
            return e2, e1
        return None
    if l2 + 1 < l1:
        return e2, ("x", l1 + _SHIFT[k2], e1[2])
    if l2 > l1 + 1:
        return e2, e1
    return None


# (e1, e2) -> (e2', e1') when the pair commutes toward lexicographic order,
# else None; filled on first use, keys are pairs of events
_SWAP_TABLE: dict[tuple[Event, Event], Optional[tuple[Event, Event]]] = {}


def _ordered_swap(e1: Event, e2: Event) -> Optional[tuple[Event, Event]]:
    swapped = _swap_adjacent(e1, e2)
    if swapped is None or not swapped[0] < e1:
        return None
    return swapped


def _normalize_pass(events: list, pairs: Optional[list]) -> bool:
    """Bubble adjacent independent events toward lexicographic order.

    pairs, when given, runs parallel to events and holds each cup's dir pair
    (None elsewhere); a pair travels with its cup.
    """
    changed = False
    table = _SWAP_TABLE
    for i in range(len(events) - 1):
        key = (events[i], events[i + 1])
        try:
            swapped = table[key]
        except KeyError:
            swapped = table[key] = _ordered_swap(*key)
        if swapped is None:
            continue
        events[i], events[i + 1] = swapped
        if pairs is not None:
            pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
        changed = True
    return changed


def _normalize(events: list, dirs: Optional[list]) -> tuple[Optional[list], bool]:
    """Level-normalize events in place; returns (dirs, changed)."""
    pairs = None
    if dirs is not None:
        pairs = []
        di = 0
        for e in events:
            if e[0] == "cup":
                pairs.append((dirs[di], dirs[di + 1]))
                di += 2
            else:
                pairs.append(None)
    changed = False
    while _normalize_pass(events, pairs):
        changed = True
    if changed and pairs is not None:
        dirs = [x for pair in pairs if pair is not None for x in pair]
    return dirs, changed


def reduce_diagram(events: Sequence[Event],
                   dirs: Optional[Sequence[int]] = None,
                   normalize: bool = True) -> tuple[tuple, Optional[tuple], int, int]:
    """Planar reduction: kill zigzags, curls, R2 pairs, and free circles.

    Returns (events, dirs, a_power, circles): the diagram equals the reduced
    one times a**a_power with `circles` split unknot components removed.
    Orientation data, when given, is carried through (removed circles drop
    their two threads).
    """
    ev = list(events)
    dd = list(dirs) if dirs is not None else None
    a_pow = 0
    circles = 0
    while True:
        p, c, changed1 = _reduce_pass(ev, dd)
        a_pow += p
        circles += c
        changed2 = False
        if normalize:
            dd, changed2 = _normalize(ev, dd)
        if not changed1 and not changed2:
            break
    return tuple(ev), (tuple(dd) if dd is not None else None), a_pow, circles


def strand_profile(events: Sequence[Event]) -> list[int]:
    """Strand count after each event."""
    out = []
    k = 0
    for e in events:
        k += _SHIFT[e[0]]
        out.append(k)
    return out


def find_split(events: Sequence[Event]) -> Optional[tuple[int, int]]:
    """Leftmost interior slice where the diagram splits.

    Returns (index, kind) with kind 0 for a disjoint union slice (no strands)
    or 2 for a connected-sum slice (exactly two strands), or None.  A
    connected-sum slice must leave crossings on both sides, otherwise the
    factorization makes no progress.
    """
    prof = strand_profile(events)
    total_x = sum(1 for e in events if e[0] == "x")
    xs = 0
    for i in range(len(events) - 1):
        if events[i][0] == "x":
            xs += 1
        if prof[i] == 0:
            return i + 1, 0
        if prof[i] == 2 and 0 < xs < total_x:
            return i + 1, 2
    return None


def canonical_code(d: "MorseDiagram | Sequence[Event]",
                   dirs: Optional[Sequence[int]] = None) -> bytes:
    """Deterministic byte encoding of the level-normalized event sequence.

    Equal event sequences yield equal codes; no canonical form up to isotopy
    is attempted.  Orientation bits are appended when supplied.
    """
    ev = list(d.events if isinstance(d, MorseDiagram) else d)
    dd, _ = _normalize(ev, list(dirs) if dirs is not None else None)
    return encode_events(ev, dd)


_KIND_BYTE = {"cup": 0, "cap": 1, "x": 2}
# event -> its 4-byte code; filled on first use
_CODE_TABLE: dict[Event, bytes] = {}


def _event_code(e: Event) -> bytes:
    level = e[1]
    return bytes((_KIND_BYTE[e[0]], level & 0xFF, (level >> 8) & 0xFF,
                  0 if len(e) < 3 else (1 if e[2] > 0 else 2)))


def encode_events(events: Sequence[Event],
                  dirs: Optional[Sequence[int]] = None) -> bytes:
    table = _CODE_TABLE
    codes = []
    for e in events:
        code = table.get(e)
        if code is None:
            code = table[e] = _event_code(e)
        codes.append(code)
    if dirs is not None:
        codes.append(b"\xff")
        codes.append(bytes([1 if d > 0 else 0 for d in dirs]))
    return b"".join(codes)
