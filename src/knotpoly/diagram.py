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
they are numbered 2*k and 2*k+1 (lower, upper) for the k-th cup, so a
thread's birth mate is t ^ 1.  A thread is monotone in the time direction,
so its orientation is a single bit: dir = +1 when oriented left-to-right,
-1 otherwise.

Derived quantities:
    writhe    = sum over crossings of s * dir(bottom thread) * dir(top thread)
    rotation  = half-sum over cups and caps of dir(lower thread)

Rotation counts the turning of the underlying plane curve (the Whitney
index); crossings contribute nothing to it.

`scan` is the one walk of the strand stack, for diagrams and fronts alike
(a kinds tuple names the birth, death and crossing kinds and the seed dir).
It can splice crossings on the way, validates the events (levels, crossing
signs, closedness, kinds) and orients the threads: given dirs are checked,
else each component's first-born thread gets the seed dir and the rest
alternate along the loop.  Its `Scan` holds the spliced events, the dirs,
each thread's cap mate, the components (named by their first-born threads)
and each thread's component, the lower threads of the births and deaths,
the kept crossings, each thread's passes and the splice probes.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

Event = tuple  # ("cup", i) | ("cap", i) | ("x", i, s)


class DiagramError(ValueError):
    """Raised for structurally invalid event sequences."""


class LevelError(DiagramError):
    """An event level outside 0..top; args are (index, kind, level, top)."""

    def describe(self, name: str = "event", base: int = 0) -> str:
        """The message, naming the event `name`; positions and levels count from `base`."""
        idx, kind, level, top = self.args
        span = f" {base}..{top + base}" if top >= 0 else ""
        return f"{name} {idx + base}: {kind} level {level + base} out of range{span}"

    __str__ = describe


# birth, death and crossing kinds, and the dir of each component's
# first-born thread
DIAGRAM_KINDS = ("cup", "cap", "x", 1)


class Scan(NamedTuple):
    """What one walk of the strand stack finds."""

    events: tuple         # the spliced events (the input if none is spliced)
    dirs: tuple           # per thread, +-1
    cap_mate: list        # per thread, the thread it dies with
    components: list      # each component's first-born thread, in birth order
    component_of: list    # per thread, its component
    cup_lows: range       # the lower thread of each birth: 2k for the k-th
    cap_lows: list        # the lower thread of each death, in event order
    crossings: list       # kept: (ev_idx in events, lo, hi, sign or 0 unsigned)
    passes: list          # per thread, the numbers of the crossings it passes
    probes: list          # per spliced crossing, (choice, a, b): the threads its weight reads


def scan(events: Iterable[Event], alphabet: tuple,
         dirs: Optional[Sequence[int]] = None,
         choices: Optional[Sequence[int]] = None) -> Scan:
    """Walk the strand stack once: splice, validate and orient.

    `alphabet` is a kinds tuple, or any tuple that starts with one.
    With `choices` (one per crossing), choice 0 keeps a crossing, 1 opens it
    horizontally and 2 replaces it by a death-birth wall; the wall's birth
    mints the next two threads.
    """
    birth, death, cross, seed = alphabet[:4]
    events = tuple(events)
    out: Optional[list] = [] if choices else None  # built only when splicing
    probes: list = []
    active: list[int] = []
    cap_mate: list[int] = []
    passes: list[list[int]] = []
    crossings: list = []
    cap_lows: list[int] = []
    for idx, ev in enumerate(events):
        kind = ev[0]
        i = ev[1]
        k = len(active)
        if kind != birth:
            if kind != death and kind != cross:
                raise DiagramError(f"event {idx}: unknown kind {kind!r}")
            if not 0 <= i <= k - 2:
                raise LevelError(idx, kind, i, k - 2)
            lo, hi = active[i], active[i + 1]
            if kind == cross:
                s = ev[2] if len(ev) > 2 else 0  # front crossings carry no sign
                if s != 1 and s != -1 and (len(ev) > 2 or kind == "x"):
                    raise DiagramError(f"event {idx}: crossing sign must be +-1")
                c = choices[len(crossings) + len(probes)] if choices else 0
                if not c:
                    cn = len(crossings)
                    crossings.append((idx if out is None else len(out), lo, hi, s))
                    passes[lo].append(cn)
                    passes[hi].append(cn)
                    active[i] = hi
                    active[i + 1] = lo
                    if out is not None:
                        out.append(ev)
                    continue
                if c == 1:
                    probes.append((1, lo, hi))
                    continue
                probes.append((2, lo, len(cap_mate)))
            cap_mate[lo] = hi
            cap_mate[hi] = lo
            cap_lows.append(lo)
            del active[i:i + 2]
            if kind == death:
                if out is not None:
                    out.append(ev)
                continue
            # the wall: a death, then a birth at the same level
            out.append((death, i))
            ev = (birth, i)
        elif not 0 <= i <= k:
            raise LevelError(idx, kind, i, k)
        t = len(cap_mate)
        active[i:i] = (t, t + 1)
        cap_mate += (-1, -1)
        passes += ([], [])
        if out is not None:
            out.append(ev)
    if active:
        raise DiagramError("diagram is not closed: strands remain")

    n = len(cap_mate)
    if dirs is None:
        d = [0] * n
    else:
        d = tuple(dirs)
        if len(d) != n or any(x != 1 and x != -1 for x in d):
            raise DiagramError("orientation vector has wrong shape")
    component_of = [-1] * n
    components = []
    for start in range(n):
        if component_of[start] >= 0:
            continue
        components.append(start)
        t = start
        while True:  # cap mate, then birth mate, back to start
            m = cap_mate[t]
            component_of[t] = component_of[m] = start
            if dirs is None:
                d[t] = seed
                d[m] = -seed
            elif d[m] == d[t] or d[m ^ 1] == d[m]:
                raise DiagramError("inconsistent orientation assignment")
            t = m ^ 1
            if t == start:
                break
    return Scan(events if out is None else tuple(out), tuple(d), cap_mate,
                components, component_of, range(0, n, 2), cap_lows, crossings,
                passes, probes)


def flipped_dirs(sc, flips: Sequence[bool]) -> tuple:
    """`sc.dirs` with the components whose flip bit is set reversed.

    `sc` has a Scan's dirs, components and component_of; one flip per component.
    """
    if len(flips) != len(sc.components):
        raise DiagramError("one flip bit per component required")
    flip_of = dict(zip(sc.components, flips))
    return tuple(-d if flip_of[c] else d for d, c in zip(sc.dirs, sc.component_of))


class MorseDiagram:
    """A validated closed diagram with a chosen orientation.

    Orientation is stored as one bit per thread.  If none is supplied, the
    first-born thread of each component is oriented left-to-right and the
    rest follow along the loop.
    """

    __slots__ = ("events", "dirs", "cross_info", "component_of", "components",
                 "cup_lows", "cap_lows", "writhe", "rotation")

    def __init__(self, events: Iterable[Event],
                 dirs: Optional[Sequence[int]] = None):
        sc = scan(events, DIAGRAM_KINDS, dirs)
        self.events = sc.events
        d = self.dirs = sc.dirs
        self.cross_info = tuple(sc.crossings)  # ev_idx, lo_tid, hi_tid, sign
        self.component_of = tuple(sc.component_of)
        self.components = tuple(sc.components)
        self.cup_lows = tuple(sc.cup_lows)
        self.cap_lows = tuple(sc.cap_lows)
        self.writhe = sum(s * d[lo] * d[hi] for _, lo, hi, s in sc.crossings)
        self.rotation = sum(d[lo] for lo in self.cup_lows + self.cap_lows) // 2

    def with_orientation(self, flips: Sequence[bool]) -> "MorseDiagram":
        """Same diagram with components flipped; flips follows self.components order."""
        return MorseDiagram(self.events, flipped_dirs(self, flips))

    def reversed(self) -> "MorseDiagram":
        return MorseDiagram(self.events, tuple(-d for d in self.dirs))

    # -- queries -------------------------------------------------------------

    def stats(self) -> tuple[int, int, int]:
        return (self.writhe, self.rotation, len(self.components))

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
        for pos, l in enumerate(self.letters, 1):
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
    for pos, tok in enumerate(rest.split(), 1):
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


def _reduce_pass(events: list, pairs: list) -> tuple[int, int, bool]:
    """One scan of adjacent-pair reductions. Returns (a_power, circles, changed).

    pairs runs parallel to events (see `_normalize_pass`); a removed event
    takes its entry along.
    """
    a_pow = 0
    circles = 0
    changed = False
    i = 0
    while i + 1 < len(events):
        e1, e2 = events[i], events[i + 1]
        k1, l1 = e1[0], e1[1]
        k2, l2 = e2[0], e2[1]
        start = stop = i  # the events to remove
        if k1 == "cup":
            if k2 == "cap" and -1 <= l2 - l1 <= 1:
                # a free circle at the same level, else a zigzag
                circles += l2 == l1
                stop = i + 2
            elif k2 == "x" and l2 == l1:
                a_pow -= e2[2]
                # unwinding the curl swaps the cup's thread roles downstream
                if pairs[i] is not None:
                    pairs[i] = pairs[i][::-1]
                start, stop = i + 1, i + 2
            elif (k2 == "x" and (l2 == l1 - 1 or l2 == l1 + 1)
                    and i + 2 < len(events) and events[i + 2] == ("cap", l1)):
                # a strand threads through a loop: kink of writhe +s
                a_pow += e2[2]
                stop = i + 3
        elif k1 == "x" and l2 == l1:
            if k2 == "cap":
                a_pow -= e1[2]
                stop = i + 1
            elif k2 == "x" and e1[2] == -e2[2]:
                stop = i + 2
        if stop > start:
            # stepping back past a curl's kept cup is safe: no rule ends in a cup
            del events[start:stop], pairs[start:stop]
            changed = True
            i = max(i - 1, 0)
        else:
            i += 1
    return a_pow, circles, changed


_SHIFT = {"cup": 2, "cap": -2, "x": 0}


def _swap_adjacent(e1: Event, e2: Event) -> Optional[tuple[Event, Event]]:
    """If e1 then e2 equals e2' then e1' on disjoint strands, return (e2', e1').

    Levels count in half-steps: strand j sits at 2j+1 and the gap below it at
    2j.  A cap's output and a cup's input is its gap; every other footprint
    covers two strands.  The pair commutes when e2's input footprint lies
    wholly below or wholly above e1's output footprint.  The lower event keeps
    its level; the upper one moves by the other's strand change.
    """
    k1, l1 = e1[0], e1[1]
    k2, l2 = e2[0], e2[1]
    lo1, hi1 = (2 * l1, 2 * l1) if k1 == "cap" else (2 * l1 + 1, 2 * l1 + 3)
    lo2, hi2 = (2 * l2, 2 * l2) if k2 == "cup" else (2 * l2 + 1, 2 * l2 + 3)
    if hi2 < lo1:
        return e2, (k1, l1 + _SHIFT[k2]) + e1[2:]
    if lo2 > hi1:
        return (k2, l2 - _SHIFT[k1]) + e2[2:], e1
    return None


# (e1, e2) -> (e2', e1') when the pair commutes toward lexicographic order,
# else None; filled on first use, keys are pairs of events
_SWAP_TABLE: dict[tuple[Event, Event], Optional[tuple[Event, Event]]] = {}


def _normalize_pass(events: list, pairs: list) -> bool:
    """Bubble adjacent independent events toward lexicographic order.

    pairs runs parallel to events and holds each cup's dir pair (None
    elsewhere, and for every event when the diagram has no dirs); a pair
    travels with its cup.
    """
    changed = False
    table = _SWAP_TABLE
    for i in range(len(events) - 1):
        key = (events[i], events[i + 1])
        try:
            swapped = table[key]
        except KeyError:
            swapped = _swap_adjacent(*key)
            if swapped is not None and not swapped[0] < key[0]:
                swapped = None
            table[key] = swapped
        if swapped is None:
            continue
        events[i], events[i + 1] = swapped
        pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
        changed = True
    return changed


def reduce_diagram(events: Sequence[Event], dirs: Optional[Sequence[int]] = None
                   ) -> tuple[tuple, Optional[tuple], int, int]:
    """Planar reduction: kill zigzags, curls, R2 pairs, and free circles.

    Returns (events, dirs, a_power, circles): the diagram equals the reduced
    one times a**a_power with `circles` split unknot components removed.
    Orientation data, when given, is carried through (removed circles drop
    their two threads).  The result is level-normalized.
    """
    ev = list(events)
    cup_pairs = iter(()) if dirs is None else zip(dirs[::2], dirs[1::2])
    pairs = [next(cup_pairs, None) if e[0] == "cup" else None for e in ev]
    a_pow = 0
    circles = 0
    while True:
        p, c, changed = _reduce_pass(ev, pairs)
        a_pow += p
        circles += c
        while _normalize_pass(ev, pairs):
            changed = True
        if not changed:
            break
    if dirs is not None:
        dirs = tuple(d for pair in pairs if pair is not None for d in pair)
    return tuple(ev), dirs, a_pow, circles


def find_split(events: Sequence[Event]) -> Optional[int]:
    """Leftmost interior connected-sum slice, or None.

    A connected-sum slice has exactly two strands and crossings on both
    sides, so that the factorization makes progress.  Zero-strand slices
    are not split: in a reduced diagram every closed block has a crossing,
    so the two-strand slice before its last cap comes first.
    """
    total_x = sum(1 for e in events if e[0] == "x")
    strands = 0
    xs = 0
    for i in range(len(events) - 1):
        kind = events[i][0]
        strands += _SHIFT[kind]
        xs += kind == "x"
        if strands == 2 and 0 < xs < total_x:
            return i + 1
    return None


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
