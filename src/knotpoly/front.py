"""Legendrian fronts as combinatorial words.

A front is a closed sequence of events on a strand stack, read left to right:

    ("L", i)   left cusp: birth of two adjacent strands at levels i, i+1
    ("R", i)   right cusp: death of the adjacent strands at levels i, i+1
    ("X", i)   transverse crossing of the strands at levels i, i+1

Two planar resolutions of the cusps matter:

  * rounding     L -> cup, R -> cap, X -> negative crossing.  This is the
    underlying plane-curve diagram; its cups and caps keep the cusp
    combinatorics.
  * morsification  as rounding, but each right cusp becomes a curl followed
    by a cap, so every right cusp contributes +1 to the writhe.  The curl
    handedness is pinned by requiring D(curl) = a * D(strand) in the skein
    engine.

Front crossings resolve to the crossing type for which the two printed
state-sum examples reproduce term by term; in the event encoding used here
that is sign -1.

The classical invariants are read off the morsification M:

    tb = -writhe(M)        maslov = -rotation(M)

A cusp is oriented upward when the traversal passes through it moving up;
for a left cusp this means the lower branch points into the cusp, for a
right cusp that the lower branch points into the cusp from the left.  In
terms of thread directions: left cusp up iff dir(lower) = -1, right cusp up
iff dir(lower) = +1.

A FrontWord is one `diagram.scan` of its events: each component's
first-born thread runs right to left by default.  The rounding and the
morsification are built on demand with the front's dirs.

Every orientation of a front, with its left-up and right-down cusp tallies,
is a state of `jaeger.nonzero_states(f.events, FRONT_ALPHABET, {})`: under
the empty weight table only the unspliced choice survives, and its states
run over every flips vector in `itertools.product` order, the all-False one
with the front's default dirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .diagram import MorseDiagram, DiagramError, LevelError, ParseError, scan

FrontEvent = tuple

FRONT_CROSS_SIGN = -1
CURL_SIGN = -1
FRONT_KINDS = ("L", "R", "X", -1)  # as diagram.DIAGRAM_KINDS


def diagram_events_of(events: Sequence[FrontEvent], morsified: bool = False) -> list:
    """Diagram events of the rounding: L -> cup, R -> cap, X -> crossing.

    morsified=True gives the morsification instead: each R is a curl, then
    a cap.  Both keep the front's threads.
    """
    out = []
    for kind, i in events:
        if kind == "L":
            out.append(("cup", i))
        elif kind == "X":
            out.append(("x", i, FRONT_CROSS_SIGN))
        else:
            if morsified:
                out.append(("x", i, CURL_SIGN))
            out.append(("cap", i))
    return out


class FrontWord:
    """A validated closed front with a chosen orientation."""

    __slots__ = ("events", "dirs", "_scan")

    def __init__(self, events: Iterable[FrontEvent],
                 dirs: Optional[Sequence[int]] = None):
        self.events = tuple(events)
        for idx, ev in enumerate(self.events):
            if len(ev) != 2:
                raise DiagramError(f"event {idx}: bad front event {ev!r}")
        self._scan = scan(self.events, FRONT_KINDS, dirs)
        self.dirs = self._scan.dirs

    # -- resolutions ---------------------------------------------------------

    def rounded(self) -> MorseDiagram:
        """Plane-curve diagram with cusps rounded to plain turns."""
        return MorseDiagram(diagram_events_of(self.events), self.dirs)

    def morsify(self) -> MorseDiagram:
        """Regular diagram with curled right cusps; same threads, same dirs."""
        return MorseDiagram(diagram_events_of(self.events, morsified=True), self.dirs)

    # -- structure -----------------------------------------------------------

    def component_count(self) -> int:
        return len(self._scan.components)

    def cusp_count(self) -> int:
        return 2 * len(self._scan.cup_lows)

    def crossing_count(self) -> int:
        return len(self._scan.crossings)

    def to_json(self) -> dict:
        return {"events": [list(ev) for ev in self.events]}

    def __repr__(self) -> str:
        return f"FrontWord({self.cusp_count()} cusps, {self.crossing_count()} crossings)"


@dataclass
class LegendrianInvariants:
    """tb, maslov and the basic front counts."""

    tb: int
    maslov: int
    cusp_count: int
    crossing_count: int

    def to_json(self) -> dict:
        return {"tb": self.tb, "maslov": self.maslov,
                "cusps": self.cusp_count, "crossings": self.crossing_count}


def classical_invariants(f: FrontWord) -> LegendrianInvariants:
    """tb = -w and maslov = -r of the morsification."""
    m = f.morsify()
    return LegendrianInvariants(tb=-m.writhe, maslov=-m.rotation,
                                cusp_count=f.cusp_count(),
                                crossing_count=f.crossing_count())


def parse_front(text: str) -> FrontWord:
    """Parse `front: (L <i> | R <i> | X <i>)(';' ...)*` with 1-based levels."""
    head, sep, rest = text.partition(":")
    if not sep or head.strip() != "front":
        raise ParseError("expected 'front:' prefix")
    events = []
    rest = rest.strip()
    chunks = [c for c in (piece.strip() for piece in rest.split(";")) if c] if rest else []
    for pos, chunk in enumerate(chunks, 1):
        parts = chunk.split()
        if len(parts) != 2 or parts[0] not in ("L", "R", "X"):
            raise ParseError(f"item {pos}: expected 'L|R|X <level>', got {chunk!r}")
        try:
            level = int(parts[1])
        except ValueError:
            raise ParseError(f"item {pos}: level {parts[1]!r} is not an integer") from None
        if level < 1:
            raise ParseError(f"item {pos}: levels are 1-based")
        events.append((parts[0], level - 1))
    try:
        return FrontWord(events)
    except LevelError as exc:  # its event index is the item's, less 1
        raise ParseError(f"invalid front: {exc.describe('item', 1)}") from exc
    except DiagramError as exc:
        raise ParseError(f"invalid front: {exc}") from exc


def saucer_front() -> FrontWord:
    """The two-cusp unknot front (tb = -1, maslov = 0)."""
    return FrontWord([("L", 0), ("R", 0)])


def crossed_saucer_front() -> FrontWord:
    """Two cusps around one crossing (tb = -2, |maslov| = 1).

    Selected by the documented search over fronts with at most four cusps and
    two crossings: it is the one whose morsification has R = (a^3 - a)/z and
    whose state expansion has exactly four nonvanishing terms.
    """
    return FrontWord([("L", 0), ("X", 0), ("R", 0)])
