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
a^w * delta^k (delta the unknot value).

Each memo miss makes one `diagram.scan` of the events, which validates the
diagram and orients it, and one walk of its threads (`_scan`), which yields
the writhe and the violations.  The descending diagram is not built:
switching keeps the components, and each switched crossing of oriented sign
eps lowers the writhe by 2 eps, so its value follows from that ledger.

Diagrams are planar-reduced and level-normalized before memoization.
Connected-sum slices are split off and recombined multiplicatively
(R(A # B) = R(A) R(B) / delta); zero-strand slices need no rule of their
own, since in a reduced diagram a connected-sum slice always comes first.
The splitter can be disabled to keep an independent computation path.

The writhe-normalized knot invariants are P = a^-w R and Y = a^-w D, with
e_P and e_Y their least a-degrees.
"""

from __future__ import annotations

import atexit
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .laurent import LaurentPoly, exact_divide
from .diagram import (DIAGRAM_KINDS, MorseDiagram, reduce_diagram,
                      encode_events, find_split, scan, _switch_events,
                      _smooth_h_events, _smooth_v_events, _cups_before)

# unknot values
DELTA = LaurentPoly({(-1, 1): 1, (-1, -1): -1})            # (a - a^-1)/z
DELTA_D = LaurentPoly({(-1, 1): 1, (-1, -1): -1, (0, 0): 1})
# denominators cleared: delta = (a - a^-1)/z, delta_D = (z + a - a^-1)/z
_DELTA_NUM = LaurentPoly({(0, 1): 1, (0, -1): -1})
_DELTA_D_NUM = LaurentPoly({(1, 0): 1, (0, 1): 1, (0, -1): -1})

CACHE_ENV_VAR = "KNOTPOLY_CACHE"


class SkeinCache:
    """Memo store for computed polynomials, optionally file-backed.

    The persistent file is append-only, one `hexkey<TAB>json` line per record;
    concurrent appends of identical records are harmless.
    """

    def __init__(self, path: Optional[str] = None):
        self.mem: dict[bytes, LaurentPoly] = {}
        self.path = path
        self._fh = None
        if path:
            if os.path.exists(path):
                try:
                    with open(path, "r", encoding="ascii") as fh:
                        for line in fh:
                            line = line.strip()
                            if not line:
                                continue
                            keyhex, _, payload = line.partition("\t")
                            try:
                                self.mem[bytes.fromhex(keyhex)] = \
                                    LaurentPoly.from_json(json.loads(payload))
                            except (ValueError, json.JSONDecodeError):
                                continue  # torn write; ignore the record
                except UnicodeDecodeError as exc:
                    raise OSError(f"cache file {path} is not ASCII "
                                  f"({exc.reason})") from None
            self._fh = open(path, "a", encoding="ascii")

    @staticmethod
    def from_env() -> "SkeinCache":
        """The cache behind `cache=None`: the `KNOTPOLY_CACHE` file or memory.

        Each file is opened once per process and closed at exit; without
        the variable every call gets a fresh in-memory cache.
        """
        path = os.environ.get(CACHE_ENV_VAR) or None
        if path is None:
            return SkeinCache()
        cache = _ENV_CACHES.get(path)
        if cache is None:
            cache = _ENV_CACHES[path] = SkeinCache(path)
            atexit.register(cache.close)
        return cache

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


_ENV_CACHES: dict[str, SkeinCache] = {}


@lru_cache(maxsize=None)
def _unknot_power(kauffman: bool, k: int) -> LaurentPoly:
    """(z delta)^k, the numerator of delta^k (delta_D^k for D).

    Shared: callers must not mutate it.
    """
    return (_DELTA_D_NUM if kauffman else _DELTA_NUM) ** k


def _scan(events: tuple,
          dirs: Optional[tuple]) -> tuple[int, tuple, int, list]:
    """Scan a closed diagram: (components, dirs, writhe, violations).

    `diagram.scan` validates the events and the orientation, or orients the
    diagram when `dirs` is None.  Violations are the crossings first met on
    the under strand, as (ev_idx, lo_thread, hi_thread, sign,
    oriented_sign), along the traversal that takes components in birth
    order, starts each at its first-born thread and follows the flow.
    """
    sc = scan(events, DIAGRAM_KINDS, dirs)
    d = sc.dirs
    cross = sc.crossings
    passes = sc.passes
    cap_mate = sc.cap_mate
    seen = bytearray(len(cross))
    writhe = 0
    viols = []
    for start in sc.components:
        t = start
        while True:
            east = d[t] == 1
            plist = passes[t]
            for cn in (plist if east else reversed(plist)):
                if seen[cn]:
                    continue
                seen[cn] = 1
                ev_idx, lo, hi, s = cross[cn]
                eps = s * d[lo] * d[hi]
                writhe += eps
                # s = +1: the strand entering at the lower level passes over
                if (t == lo) == (s == -1):
                    viols.append((ev_idx, lo, hi, s, eps))
            t = cap_mate[t] if east else t ^ 1
            if t == start:
                break
    return len(sc.components), d, writhe, viols


@dataclass
class SkeinStats:
    nodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def _split_dirs(events: tuple, dirs: Optional[tuple], pos: int):
    """Split events (and orientation) at a connected-sum slice: close the
    prefix with a cap and reopen the rest with a cup."""
    e1 = events[:pos] + (("cap", 0),)
    e2 = (("cup", 0),) + events[pos:]
    if dirs is None:
        return e1, None, e2, None
    # the closing cap takes the two threads at the slice
    ncups1 = sum(1 for e in events[:pos] if e[0] == "cup")
    prefix = scan(e1, DIAGRAM_KINDS)
    lo = prefix.cap_lows[-1]
    d2 = (dirs[lo], dirs[prefix.cap_mate[lo]]) + dirs[2 * ncups1:]
    return e1, dirs[:2 * ncups1], e2, d2


def _skein_eval(events: tuple, dirs: Optional[tuple], *, kauffman: bool,
                cache: SkeinCache, stats: SkeinStats,
                allow_split: bool) -> LaurentPoly:
    events, dirs, a_pow, circles = reduce_diagram(events, dirs)
    mult = _unknot_power(kauffman, circles).shift(-circles, a_pow)
    if not events:
        return mult
    stats.nodes += 1
    key = (b"D" if kauffman else b"R") + encode_events(events, dirs)
    cached = cache.get(key)
    if cached is not None:
        stats.cache_hits += 1
        return mult * cached
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
        k, use_dirs, writhe, viols = _scan(events, dirs)
        cur = events
        acc = LaurentPoly()
        for ev_idx, lo, hi, s, eps in viols:
            if kauffman:
                h = _skein_eval(_smooth_h_events(cur, ev_idx), None,
                                kauffman=True, cache=cache, stats=stats,
                                allow_split=allow_split)
                v = _skein_eval(_smooth_v_events(cur, ev_idx), None,
                                kauffman=True, cache=cache, stats=stats,
                                allow_split=allow_split)
                acc = acc + (h - v).shift(1, 0) * s
            else:
                if use_dirs[lo] * use_dirs[hi] == 1:
                    sm_ev, sm_dirs = _smooth_h_events(cur, ev_idx), dirs
                else:
                    sm_ev = _smooth_v_events(cur, ev_idx)
                    pos = 2 * _cups_before(cur, ev_idx)
                    sm_dirs = dirs[:pos] + (use_dirs[hi], use_dirs[lo]) + dirs[pos:]
                sm = _skein_eval(sm_ev, sm_dirs, kauffman=False, cache=cache,
                                 stats=stats, allow_split=allow_split)
                acc = acc + sm.shift(1, 0) * eps
            cur = _switch_events(cur, ev_idx)
            writhe -= 2 * eps
        # all violations switched: a descending diagram, a^w * delta^k
        val = _unknot_power(kauffman, k).shift(-k, writhe) + acc

    cache.put(key, val)
    return mult * val


def homfly_R(d: MorseDiagram, cache: Optional[SkeinCache] = None,
             stats: Optional[SkeinStats] = None,
             allow_split: bool = True) -> LaurentPoly:
    """Regular-isotopy HOMFLY polynomial of an oriented closed diagram."""
    if cache is None:
        cache = SkeinCache.from_env()
    return _skein_eval(d.events, d.dirs, kauffman=False, cache=cache,
                       stats=stats or SkeinStats(), allow_split=allow_split)


def kauffman_D(d: MorseDiagram, cache: Optional[SkeinCache] = None,
               stats: Optional[SkeinStats] = None,
               allow_split: bool = True) -> LaurentPoly:
    """Regular-isotopy Dubrovnik polynomial; orientation is ignored."""
    if cache is None:
        cache = SkeinCache.from_env()
    return _skein_eval(d.events, None, kauffman=True, cache=cache,
                       stats=stats or SkeinStats(), allow_split=allow_split)


@dataclass
class SkeinResult:
    R: LaurentPoly
    D: LaurentPoly
    P: LaurentPoly
    Y: LaurentPoly
    e_P: int
    e_Y: int
    w: int

    def to_json(self) -> dict:
        return {"w": self.w, "e_P": self.e_P, "e_Y": self.e_Y,
                "R": self.R.to_json(), "D": self.D.to_json(),
                "P": self.P.to_json(), "Y": self.Y.to_json()}


def full_invariants(d: MorseDiagram, cache: Optional[SkeinCache] = None,
                    stats: Optional[SkeinStats] = None,
                    allow_split: bool = True) -> SkeinResult:
    """R, D and the writhe-normalized P, Y with their least a-degrees."""
    if cache is None:
        cache = SkeinCache.from_env()
    R = homfly_R(d, cache, stats, allow_split)
    D = kauffman_D(d, cache, stats, allow_split)
    w = d.writhe
    P = R.shift(0, -w)
    Y = D.shift(0, -w)
    return SkeinResult(R=R, D=D, P=P, Y=Y,
                       e_P=P.min_degree("second"), e_Y=Y.min_degree("second"),
                       w=w)
