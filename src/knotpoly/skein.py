"""Skein-recursion engines for the regular-isotopy polynomials R and D.

R is the regular-isotopy HOMFLY polynomial:

    R(unknot)             = (a - a^-1) / z
    R(L+) - R(L-)         = z * R(L0)          (oriented smoothing)
    R(positive curl)      = a * R(strand)

D is the Dubrovnik form of the Kauffman polynomial:

    D(unknot)             = (a - a^-1) / z + 1
    D(L+) - D(L-)         = z * (D(L_par) - D(L_turn))
    D(positive curl)      = a * D(strand)

where L_par keeps the strands at their levels and L_turn replaces the
crossing by a cap-cup wall.  Both are computed by resolving crossings toward
a descending diagram: along a fixed traversal every crossing met first on the
under strand is switched (collected in one telescoping pass) and the
smoothed remainders recurse with one crossing fewer.  A descending diagram
with writhe w and k components is an unlink with curls and evaluates to
a^w * delta^k (delta the unknot value).  The skein step `smoothings` holds
the two relations' smoothings, the one place they are written; the BMW
engine of `algebra.py` runs its tangle recursion through it too.

Each memo miss makes one `descend`: a `diagram.scan` of the events, which
validates the diagram, orients it and lists its threads along the flow,
and one pass over that flow order, which yields the violations and the
writhe of the descending diagram.  The descending diagram is not built:
switching keeps the components, so its value follows from that writhe.
`descend` takes open tangles too, for the BMW engine of `algebra.py`.

Diagrams are planar-reduced and level-normalized before memoization.
Reduction reads only the events, so an engine entry (`homfly_R`,
`kauffman_D`, `memo_value`) reduces its event list with thread numbers in
place of dirs and reads the orientation through the returned thread map;
the cache keeps that last reduction and its event encoding in memory,
never persisted, so the orientations of one event list, and R then D of
one diagram, reduce and encode it once.  The entry also checks that the
orientation has two entries of +-1 per cup.  A memo hit on a diagram
that lost c > 0 circles to reduction reads the memo value times delta^c
(delta_D^c for D) from the cache's `circled` store, formed on the first
such hit, and applies a^a_pow as a shift.  When the factor is 1 the
stored polynomial itself is returned, so no polynomial is changed once
made.  Connected-sum slices are split off and recombined multiplicatively
(R(A # B) = R(A) R(B) / delta);
zero-strand slices need no rule of their own, since in a reduced diagram
a connected-sum slice always comes first.
The splitter can be disabled to keep an independent computation path.

The writhe-normalized knot invariants are P = a^-w R and Y = a^-w D, with
e_P and e_Y their least a-degrees.

Braid closures have a second path: `algebra.py` computes R in the Hecke
algebra and D in the BMW algebra, one basis update per letter.  `poly
--braid`, `check --braid` and the `search` rows use it, reading and writing
the memo under this module's keys (`memo_value`), and `search` re-verifies
its flagged rows with this module's `full_invariants`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Protocol

from .laurent import LaurentPoly, exact_divide
from .diagram import (DIAGRAM_KINDS, DiagramError, MorseDiagram, Scan,
                      reduce_diagram, encode_events, encode_dirs, find_split, scan,
                      _switch_events, _smooth_h_events, _smooth_v_events,
                      _cups_before)

# the unknot values with denominators cleared: delta = (a - a^-1)/z,
# delta_D = (z + a - a^-1)/z
_DELTA_NUM = LaurentPoly({(0, 1): 1, (0, -1): -1})
_DELTA_D_NUM = LaurentPoly({(1, 0): 1, (0, 1): 1, (0, -1): -1})


class ClosedDiagram(Protocol):
    """What the engines read of a closed diagram, such as a `MorseDiagram`
    or a state of a state sum."""

    events: tuple
    dirs: tuple


class Oriented(NamedTuple):
    """A closed diagram as its events and the dirs of its threads, handed
    to the engines with no scan (a `ClosedDiagram`)."""

    events: tuple
    dirs: tuple


class SkeinCache:
    """Memo store for computed polynomials, optionally file-backed.

    The persistent file is append-only, one `hexkey<TAB>json` line per record;
    concurrent appends of identical records are harmless.  A malformed record
    is an `OSError` naming `path:line`.  A last line with no newline is an
    append cut short: it is skipped, and cut off the file before this cache
    appends to it.

    Three stores are kept in memory only.  They are never persisted and
    change no memo key:

    - `tables`, the named tables of the algebra engines (`algebra.py`) and
      the state sums (`jaeger.py`), each built on demand and documented
      where it is filled;
    - `last_reduction`, the planar reduction of the last event list an
      engine entry saw (`_entry_reduced`), with its thread map and the
      reduced events' encoding; None before the first entry;
    - `circled`, each memo value that a memo hit with c > 0 removed
      circles read, times delta^c (delta_D^c for D), keyed by (memo key,
      c) and formed on the first such hit (`_eval_reduced`).
    """

    def __init__(self, path: Optional[str] = None):
        self.mem: dict[bytes, LaurentPoly] = {}
        self.tables: dict[str, object] = {}
        self.last_reduction: Optional[tuple] = None
        self.circled: dict[tuple[bytes, int], LaurentPoly] = {}
        self.path = path
        self._fh = None
        if path:
            if os.path.exists(path):
                self._load(path)
            self._fh = open(path, "a", encoding="ascii")

    def _load(self, path: str) -> None:
        end = 0
        try:
            with open(path, "rb") as fh:
                for lineno, raw in enumerate(fh, 1):
                    start, end = end, end + len(raw)
                    if not raw.endswith(b"\n"):
                        os.truncate(path, start)
                        break
                    line = raw.decode("ascii").strip()
                    if not line:
                        continue
                    keyhex, _, payload = line.partition("\t")
                    try:
                        value = LaurentPoly.from_json(json.loads(payload))
                        self.mem[bytes.fromhex(keyhex)] = value
                    # JSONDecodeError is a ValueError; a deep nesting
                    # overflows the decoder's recursion
                    except (ValueError, RecursionError):
                        raise OSError(f"cache file {path}:{lineno}: "
                                      "malformed record") from None
        except UnicodeDecodeError as exc:
            raise OSError(f"cache file {path} is not ASCII "
                          f"({exc.reason})") from None

    def get(self, key: bytes) -> Optional[LaurentPoly]:
        return self.mem.get(key)

    def put(self, key: bytes, value: LaurentPoly) -> None:
        self.mem[key] = value
        if self._fh is not None:
            self._fh.write(f"{key.hex()}\t{json.dumps(value.to_json())}\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@lru_cache(maxsize=None)
def _unknot_power(kauffman: bool, k: int) -> LaurentPoly:
    """(z delta)^k, the numerator of delta^k (delta_D^k for D).

    Shared: callers must not mutate it.
    """
    return (_DELTA_D_NUM if kauffman else _DELTA_NUM) ** k


def descend(events: tuple, dirs: Optional[tuple] = None,
            ends: int = 0) -> tuple[Scan, list, int]:
    """Walk a diagram, or a tangle with `ends` end points on each side, to
    its descending form: (`diagram.scan` of it, violations, writhe).

    One pass over the scan's flow order meets each thread's crossings along
    the flow.  Violations are the crossings first met on the under strand,
    as (ev_idx, lo_thread, hi_thread, sign, oriented_sign), in the order
    met.  Switching them all gives the descending diagram, and `writhe` is
    the writhe of its self-crossings: in a closed diagram the crossings of
    two layered components cancel, so that is its writhe.
    """
    sc = scan(events, DIAGRAM_KINDS, dirs, ends=ends)
    d = sc.dirs
    cross = sc.crossings
    passes = sc.passes
    component_of = sc.component_of
    seen = bytearray(len(cross))
    writhe = 0
    viols = []
    for t in sc.flow:
        plist = passes[t]
        for cn in (plist if d[t] == 1 else reversed(plist)):
            if seen[cn]:
                continue
            seen[cn] = 1
            ev_idx, lo, hi, s = cross[cn]
            eps = s * d[lo] * d[hi]
            # s = +1: the strand entering at the lower level passes over
            if (t == lo) == (s == -1):
                viols.append((ev_idx, lo, hi, s, eps))
                eps = -eps
            if component_of[lo] == component_of[hi]:
                writhe += eps
    return sc, viols, writhe


def smoothings(events: tuple, dirs: Optional[tuple], viols: list):
    """The skein step: for the violations `descend` found, each smoothing
    as (events, dirs, coefficient), on the events with the earlier
    violations switched.  The value is the descending diagram's plus z
    times the sum of the smoothings' values times their coefficients.

    With `dirs`, R's oriented smoothing, coefficient the oriented sign;
    with None, D's L_par and L_turn, coefficients s and -s.
    """
    cur = events
    for ev_idx, lo, hi, s, eps in viols:
        if dirs is None:
            yield _smooth_h_events(cur, ev_idx), None, s
            yield _smooth_v_events(cur, ev_idx), None, -s
        elif dirs[lo] * dirs[hi] == 1:
            yield _smooth_h_events(cur, ev_idx), dirs, eps
        else:
            pos = 2 * _cups_before(cur, ev_idx)
            yield (_smooth_v_events(cur, ev_idx),
                   dirs[:pos] + (dirs[hi], dirs[lo]) + dirs[pos:], eps)
        cur = _switch_events(cur, ev_idx)


@dataclass
class SkeinStats:
    nodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def _split_dirs(events: tuple, dirs: Optional[tuple], pos: int):
    """Split events (and orientation) at a connected-sum slice: close the
    prefix with a cap and reopen the rest with a cup."""
    e1 = events[:pos] + (("cap", 0),)
    e2 = (("cup", 0),) + events[pos:]
    if dirs is None:
        return e1, None, e2, None
    # prefix threads come first; its closing cap takes the two at the slice
    prefix = scan(e1, DIAGRAM_KINDS)
    n1 = len(prefix.dirs)
    lo = prefix.cap_lows[-1]
    d2 = (dirs[lo], dirs[prefix.cap_mate[lo]]) + dirs[n1:]
    return e1, dirs[:n1], e2, d2


def _keyed(events: tuple, code: bytes, dirs: Optional[tuple], a_pow: int,
           circles: int, kauffman: bool):
    """(events, dirs, a_pow, circles, memo key) of a reduction's result;
    the key is None when nothing is left.  `code` is `encode_events(events)`."""
    if not events:
        return events, dirs, a_pow, circles, None
    key = (b"D" if kauffman else b"R") + code
    if dirs is not None:
        key += encode_dirs(dirs)
    return events, dirs, a_pow, circles, key


def _factor(kauffman: bool, a_pow: int, circles: int) -> LaurentPoly:
    """The reduction factor a^a_pow delta^circles (delta_D^circles for D)."""
    return _unknot_power(kauffman, circles).shift(-circles, a_pow)


def _scaled(p: LaurentPoly, kauffman: bool, a_pow: int,
            circles: int) -> LaurentPoly:
    """p times the reduction factor; a shift when no circle was removed,
    and p itself when the factor is 1."""
    if not circles:
        return p.shift(0, a_pow) if a_pow else p
    return p * _factor(kauffman, a_pow, circles)


_UNITS = frozenset((1, -1))


def _entry_reduced(d: ClosedDiagram, kauffman: bool, cache: SkeinCache):
    """`_keyed` of an engine entry's reduced diagram, its event list
    reduced once.

    Planar reduction never reads the dirs, so it runs on thread numbers in
    their place and returns a thread map, through which each orientation
    is read.  The cache keeps the last event list's reduction and the
    reduced events' encoding: consecutive entries on one event list (the
    orientations of one splice choice, R then D of one diagram) reduce and
    encode it once, and each memo key appends only its dir bytes.
    """
    events = tuple(d.events)
    slot = cache.last_reduction
    if slot is None or slot[0] != events:
        threads = tuple(range(2 * sum(e[0] == "cup" for e in events)))
        reduced, tmap, a_pow, circles = reduce_diagram(events, threads)
        slot = (events, threads, reduced, tmap, a_pow, circles,
                encode_events(reduced))
        cache.last_reduction = slot
    _events, threads, reduced, tmap, a_pow, circles, code = slot
    dirs = None
    if not kauffman:
        dirs = d.dirs
        if len(dirs) != len(threads) or not _UNITS.issuperset(dirs):
            raise DiagramError("orientation vector has wrong shape")
        dirs = tuple(map(dirs.__getitem__, tmap))
    return _keyed(reduced, code, dirs, a_pow, circles, kauffman)


def _skein_eval(events: tuple, dirs: Optional[tuple], *, kauffman: bool,
                cache: SkeinCache, stats: SkeinStats,
                allow_split: bool) -> LaurentPoly:
    reduced, dirs, a_pow, circles = reduce_diagram(events, dirs)
    return _eval_reduced(*_keyed(reduced, encode_events(reduced), dirs, a_pow,
                                 circles, kauffman),
                         kauffman=kauffman, cache=cache, stats=stats,
                         allow_split=allow_split)


def _eval_reduced(events: tuple, dirs: Optional[tuple], a_pow: int,
                  circles: int, key: Optional[bytes], *, kauffman: bool,
                  cache: SkeinCache, stats: SkeinStats,
                  allow_split: bool) -> LaurentPoly:
    """The value of a reduced diagram given as `_keyed` returns it."""
    if key is None:
        return _factor(kauffman, a_pow, circles)
    stats.nodes += 1
    cached = cache.get(key)
    if cached is not None:
        stats.cache_hits += 1
        if circles:
            # one product per (memo value, circles); a^a_pow is a shift
            times = cache.circled.get((key, circles))
            if times is None:
                times = cache.circled[key, circles] = _scaled(
                    cached, kauffman, 0, circles)
            cached = times
        return _scaled(cached, kauffman, a_pow, 0)
    stats.cache_misses += 1

    pos = find_split(events) if allow_split else None
    if pos is not None:
        e1, d1, e2, d2 = _split_dirs(events, dirs, pos)
        v1 = _skein_eval(e1, d1, kauffman=kauffman, cache=cache,
                         stats=stats, allow_split=allow_split)
        v2 = _skein_eval(e2, d2, kauffman=kauffman, cache=cache,
                         stats=stats, allow_split=allow_split)
        unknot_num = _DELTA_D_NUM if kauffman else _DELTA_NUM
        val = exact_divide((v1 * v2).shift(1, 0), unknot_num, "second")
        if val is None:
            raise AssertionError("connected-sum factor not divisible")
    else:
        sc, viols, writhe = descend(events, dirs)
        acc = LaurentPoly()
        for sm_ev, sm_dirs, c in smoothings(events, dirs, viols):
            acc = acc + _skein_eval(sm_ev, sm_dirs, kauffman=kauffman,
                                    cache=cache, stats=stats,
                                    allow_split=allow_split) * c
        # all violations switched: a descending diagram, a^w * delta^k
        val = _factor(kauffman, writhe, len(sc.components)) + acc.shift(1, 0)

    cache.put(key, val)
    return _scaled(val, kauffman, a_pow, circles)


def homfly_R(d: ClosedDiagram, cache: SkeinCache,
             stats: Optional[SkeinStats] = None,
             allow_split: bool = True) -> LaurentPoly:
    """Regular-isotopy HOMFLY polynomial of an oriented closed diagram."""
    return _eval_reduced(*_entry_reduced(d, False, cache), kauffman=False,
                         cache=cache, stats=stats or SkeinStats(),
                         allow_split=allow_split)


def kauffman_D(d: ClosedDiagram, cache: SkeinCache,
               stats: Optional[SkeinStats] = None,
               allow_split: bool = True) -> LaurentPoly:
    """Regular-isotopy Dubrovnik polynomial of a closed diagram; orientation
    is ignored."""
    return _eval_reduced(*_entry_reduced(d, True, cache), kauffman=True,
                         cache=cache, stats=stats or SkeinStats(),
                         allow_split=allow_split)


def memo_value(d: ClosedDiagram, cache: SkeinCache, compute, *,
               kauffman: bool) -> LaurentPoly:
    """R (D when `kauffman`) of `d` from the memo, under the key the skein
    engine uses for the reduced diagram.  On a miss `compute()` gives the
    value of `d`, which is returned, and the reduced diagram's share of it
    is stored."""
    _events, _dirs, a_pow, circles, key = _entry_reduced(d, kauffman, cache)
    if key is None:
        return _factor(kauffman, a_pow, circles)
    cached = cache.get(key)
    if cached is not None:
        return _scaled(cached, kauffman, a_pow, circles)
    value = compute()
    if circles:
        share = exact_divide(value, _factor(kauffman, a_pow, circles), "second")
        if share is None:
            raise AssertionError("value not divisible by the reduction factor")
    else:
        share = _scaled(value, kauffman, -a_pow, 0)
    cache.put(key, share)
    return value


@dataclass
class SkeinResult:
    R: LaurentPoly
    D: LaurentPoly
    P: LaurentPoly
    Y: LaurentPoly
    e_P: int
    e_Y: int
    w: int

    @staticmethod
    def of(R: LaurentPoly, D: LaurentPoly, w: int) -> "SkeinResult":
        """The result for R and D of a diagram with writhe w."""
        P = R.shift(0, -w)
        Y = D.shift(0, -w)
        return SkeinResult(R=R, D=D, P=P, Y=Y, e_P=P.min_degree("second"),
                           e_Y=Y.min_degree("second"), w=w)

    def to_json(self) -> dict:
        return {"w": self.w, "e_P": self.e_P, "e_Y": self.e_Y,
                "R": self.R.to_json(), "D": self.D.to_json(),
                "P": self.P.to_json(), "Y": self.Y.to_json()}


def full_invariants(d: MorseDiagram, cache: SkeinCache,
                    stats: Optional[SkeinStats] = None,
                    allow_split: bool = True) -> SkeinResult:
    """R, D and the writhe-normalized P, Y with their least a-degrees, of a
    closed diagram with `events`, `dirs` and `writhe` (a `MorseDiagram`)."""
    return SkeinResult.of(homfly_R(d, cache, stats, allow_split),
                          kauffman_D(d, cache, stats, allow_split), d.writhe)
