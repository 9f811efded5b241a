"""Algebra engines for braid closures: R in the Hecke algebra, D in the BMW
algebra.

A braid word on n strands is multiplied out letter by letter in an algebra
with a finite basis, and the closure's polynomial is a trace of the product.
A long word then costs one basis update per letter, where the skein engines
expand a recursion over the whole diagram.

R (Morton-Short, "Calculating the 2-variable polynomial for knots presented
as closed braids", J. Algorithms 11, 1990).  The Hecke algebra H_n has the
basis T_w, w in S_n, with g_i = T_(s_i) the positive crossing of strands i
and i+1 (counted from 0):

    T_w g_i    = T_(w s_i)              if l(w s_i) > l(w)
               = T_(w s_i) + z T_w      otherwise
    g_i^-1     = g_i - z

The closure is the Ocneanu trace in this repository's conventions:
tr(x) = delta tr_(n-1)(x) for x in H_(n-1), and tr(x g_(n-2) y) =
a tr_(n-1)(x y) for x, y in H_(n-1) (a positive curl), so tr_n(1) =
delta^n.  A permutation w that moves the last strand is w = u s_(n-2) ...
s_p with u in S_(n-1) and the lengths adding, which gives
tr(T_w) = a tr_(n-1)(T_u g_(n-3) ... g_p).

D (Birman-Wenzl, Trans. AMS 313, 1989; Murakami, Osaka J. Math. 24, 1987)
on the basis of totally descending tangles (Morton-Wassermann, "A basis for
the Birman-Wenzl algebra", arXiv:1012.3116).  An open tangle here is an
event list on a strand stack that starts and ends with n strands, and it
is traversed as `diagram.scan` orders its components: the arcs from their
first end points (S_0 ... S_(n-1), then E_0 ... E_(n-1)), then the loops.
The tangle is descending when each crossing is first met on its over
strand.  A descending tangle is its Brauer diagram b (the matching of the
end points) with each arc lying above the later ones and the loops split
off below, so it equals a^w delta_D^k R_b, with w the writhe of its
self-crossings and k its loops.  R_b is the descending tangle of b whose
arcs do not cross themselves.

The structure constants R_b g_i^+-1 are read off the matching b
(`_step`).  A and B, the arcs through E_i and E_(i+1), cross in just
one of R_b and R_b', b' being b with E_i and E_(i+1) swapped.  When the
letter's crossing passes the earlier of the two over, as that crossing
does, the constant is R_b'; when A = B it closes a curl, a^-+1 R_b.
Otherwise the opposite sign gives that one term, and the Dubrovnik
relation g_i - g_i^-1 = z (1 - e_i) (Birman-Wenzl) leaves R_b e_i to
expand.  On the witness 1,709 of the 3,035 constants are one term.

R_b e_i joins A and B by a cap at E_i and E_(i+1), under a new arc from a
cup there.  Where that tangle is descending it is one term, a^w delta_D^k
R_b'', read off the matching too (`_join`): C, the arc that A and B join
into, keeps their crossings, so the tangle descends when each crossing of
C is still first met on its over strand, and A x B, if the arcs
interleaved, is C's self-crossing of writhe w.  On the witness 1,013 of
the 1,326 R_b e_i are one term.  The others come from the descending
recursion of the skein engine, run on open tangles: the crossings first
met on their under strand are switched, and each smoothing of D's
relation, from the skein step `skein.smoothings`, recurses with one
crossing fewer.  Tangles are planar-reduced with `diagram.reduce_diagram`
before they are memoized: the reduction rules are local, so they hold on
open tangles too.

Both engines trace by closing the last strand, tr_n = tr_(n-1) E_n
(Birman-Wenzl), in one memoized recursion (`_trace`): each engine only
closes the last strand of a basis element, giving its expansion on the
basis of one strand fewer, which is traced in turn.  For T_w that is the
Ocneanu step above (`_hecke_close`).  E_n of R_b, on n strands, is R_b
with its last strand closed, an (n-1)-strand tangle (`_bmw_close`).
Closing joins the arcs through S_(n-1) and E_(n-1), so `_join` reads the
expansion off the matching where the closed tangle descends (480 of the
664 traces on the witness), and the recursion gives the others.  The
traces are memoized per basis element, so each basis element of fewer
strands is traced once.

So the BMW path shares `diagram.scan` (with `ends` = n), the descending
traversal `skein.descend`, the skein step `skein.smoothings` and
`diagram.reduce_diagram` with the skein engine, and its agreement with
`kauffman_D` does not check that code.  Its checks that share none of it
are the Kauffman-bracket oracle of the tests, D at the SO(4) point a = q^3,
z = q - q^-1 (there q^-w times the square of the Jones polynomial, which
the bracket oracle gives), the T(2,n) closed forms, and, for each tangle
`_join` reads off the matching up to 4 strands, the operators of U_q(so_3).
The tests also compare each constant with the recursion on R_b followed by
the crossing, for every (b, letter) up to 5 strands, each trace with the
recursion on the closure of R_b, every strand closed at once, for every b
up to 5 strands, and `_join` with the recursion on every R_b e_i and
closed R_b up to 5 strands.  The Hecke path shares none of the skein code;
the tests also check it against the Burau matrix and against Jones's
formula for the torus knots T(p,q), each constant T_w g_i^+-1 against a
letter product of their own, and each trace tr(T_w) up to 5 strands
against `skein.homfly_R` of the closure of a reduced word of w.

One vector format serves the products, the expansions and the tangle
memo: a flat vector {(basis, ez, ea): k}, one integer per basis element
and monomial k z^ez a^ea, with w in H_n (ez alone, the a-degree being 0
until the trace) and the matching b in BMW_n.  A structure constant,
T_w g_i^+-1 (`_hecke_step`) or R_b g_i^+-1 (`_step`), is a tuple of
(basis', dz, da, k) entries, one per term, and a trace a tuple of
(dz, da, k) entries, so a letter update (`_mul`) and a trace (`_traced`)
are integer multiply-adds on shifted keys, whatever the number of terms:
no Laurent product is formed per letter.

Both engines run one product-and-trace loop, `_closure_poly`, and differ
only in the identity, the constants and the closure they hand it; the
loop owns the traces.  The last letter is not multiplied out.  The
product of the head (all letters but the last) is contracted with the
traced steps tr(T_w g_i^+-1) and tr(R_b g_i^+-1), one table entry per
(basis element, letter), each the sum of its structure constant's terms
times their traces.  A traced step reads the trace of every basis element
its constant reaches, also of those whose coefficient then cancels in the
product: on the witness, 526 traced steps reach 540 traces of 5 strands,
where tracing the product reached 466.  `_closure_poly` keeps the last
head it multiplied out, with its product, and reuses that product when
the next word has the same strands and head: `search` visits its words in
lexicographic order, so words that differ only in the last letter come
one after the other.

Tables are built on demand in a dict the caller passes, in memory only.
`_closure_poly` keeps each engine's structure constants (`hecke_step`,
`bmw_step`), traces (`hecke_trace`, `bmw_trace`), traced steps
(`hecke_step_trace`, `bmw_step_trace`) and last head (`hecke_head`,
`bmw_head`); D keeps its tangle memo (`bmw_memo`) and basis tangles
(`bmw_basis`).  A head entry holds one product vector, replaced,
never changed, by the next head.  On the cold witness the Hecke tables
hold 478 constants, 100 traces and 67 traced steps; the BMW tables hold
1,474 memo tangles, 386 basis tangles (for the R_b e_i and closures that do
not descend), 3,035 constants, 664 traces (the 540 of 5 strands and all
124 matchings on 1-4 strands) and 526 traced steps.
`braid_invariants` passes its `SkeinCache`'s `tables`, so that callers
sharing a cache share its tables.  Nothing is built at import.

`poly --braid`, `check --braid` (`inequalities.mfw_check`) and the `search`
rows take R and D from here; `search` re-verifies its flagged rows on the
skein engines.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .diagram import BraidWord, closure_events, reduce_diagram
from . import skein
from .skein import (Oriented, SkeinCache, SkeinResult, descend, memo_value,
                    smoothings)


def _entries(p: LaurentPoly) -> tuple:
    """p as (dz, da, k) entries, one per term k z^dz a^da."""
    return tuple((ez, ea, k) for (ez, ea), k in p.terms.items())


def _mul(x: dict, step, letter: int) -> dict:
    """x times one letter, on the flat vector {(basis, ez, ea): k}, with
    `step(basis, letter)` the (basis', dz, da, k) entries of basis * letter."""
    out: dict = {}
    get = out.get
    for (b, ez, ea), c in x.items():
        for b2, dz, da, k in step(b, letter):
            key = (b2, ez + dz, ea + da)
            out[key] = get(key, 0) + c * k
    return {key: c for key, c in out.items() if c}


def _traced(x: dict, trace) -> LaurentPoly:
    """The trace of a flat vector {(basis, ez, ea): k}, with `trace(basis)`
    the (dz, da, k) entries of tr(basis)."""
    acc: dict = {}
    get = acc.get
    for (b, ez, ea), c in x.items():
        for dz, da, k in trace(b):
            key = (ez + dz, ea + da)
            acc[key] = get(key, 0) + c * k
    return LaurentPoly(acc)


def _factor(x: dict, kauffman: bool, w: int, k: int) -> dict:
    """x times a^w delta^k (delta_D^k for D), a factor that keeps each basis
    element, on the flat vector; x itself when the factor is 1."""
    if not k:
        return {(b, ez, ea + w): c for (b, ez, ea), c in x.items()} if w else x
    f = _entries(skein._factor(kauffman, w, k))
    return _mul(x, lambda b, _: [(b, dz, da, c) for dz, da, c in f], 0)


def _trace(x: tuple, close, traces: dict) -> tuple:
    """tr(x) as (dz, da, k) entries, memoized per basis element in `traces`.

    `close(x)` is x with its last strand closed, a flat vector on the basis
    of one strand fewer, whose trace is tr(x) (tr_n = tr_(n-1) E_n); the
    basis element of no strands is 1.
    """
    val = traces.get(x)
    if val is None:
        if not x:
            return ((0, 0, 1),)
        val = traces[x] = _entries(_traced(close(x),
                                           lambda y: _trace(y, close, traces)))
    return val


def _head_product(b: BraidWord, tables: dict, name: str, x: dict, step) -> dict:
    """The product of the identity `x` and every letter of `b` but the last.

    `tables[name]` keeps the last head (strands and letters) with its
    product, which is reused when the next word has the same head: `search`
    visits the words in lexicographic order, so siblings that differ in
    their last letter come one after the other.  The kept vector is never
    changed, only replaced.
    """
    head = (b.strands, b.letters[:-1])
    kept = tables.get(name)
    if kept is not None and kept[0] == head:
        return kept[1]
    for l in head[1]:
        x = _mul(x, step, l)
    tables[name] = (head, x)
    return x


def _closure_poly(b: BraidWord, tables: dict, engine: str, identity: tuple,
                  constant, close) -> LaurentPoly:
    """The trace of the product of the letters of `b`, from the structure
    constants `constant(basis, letter)` and the closures `close(basis)`
    (`_trace`).  `tables` keeps the constants, the traces, the traced steps
    and the last head's product under `engine` + "_step", "_trace",
    "_step_trace" and "_head"."""
    steps, traces, step_traces = (tables.setdefault(engine + name, {}) for name
                                  in ("_step", "_trace", "_step_trace"))

    def trace(basis: tuple) -> tuple:
        return _trace(basis, close, traces)

    def step(basis: tuple, l: int) -> tuple:
        st = steps.get((basis, l))
        if st is None:
            st = steps[basis, l] = constant(basis, l)
        return st

    x = _head_product(b, tables, engine + "_head", {(identity, 0, 0): 1}, step)
    if not b.letters:
        return _traced(x, trace)
    last = b.letters[-1]

    def step_trace(basis: tuple) -> tuple:
        """tr(basis * last), memoized per (basis, letter)."""
        st = step_traces.get((basis, last))
        if st is None:
            st = step_traces[basis, last] = _entries(
                _traced(_mul({(basis, 0, 0): 1}, step, last), trace))
        return st

    return _traced(x, step_trace)


# -- R in the Hecke algebra ---------------------------------------------------


def _hecke_step(w: tuple, l: int) -> tuple:
    """T_w g_i^+-1 of the letter l as (w', dz, 0, k) entries: T_(w s_i), and
    z T_w (g_i) or -z T_w (g_i^-1 = g_i - z) at a descent of g_i or an
    ascent of g_i^-1."""
    i = abs(l) - 1
    lo, hi = w[i], w[i + 1]
    swapped = (w[:i] + (hi, lo) + w[i + 2:], 0, 0, 1)
    if (lo > hi) != (l > 0):
        return (swapped,)
    return (swapped, (w, 1, 0, 1 if l > 0 else -1))


def _hecke_close(w: tuple) -> dict:
    """T_w with its last strand closed, on the basis of one strand fewer:
    delta T_u when w fixes the last strand, else a T_u g_(n-3) ... g_p."""
    n = len(w)
    p = w.index(n - 1)
    y = {(w[:p] + w[p + 1:], 0, 0): 1}
    for i in range(n - 2, p, -1):
        y = _mul(y, _hecke_step, i)
    return _factor(y, False, 0, 1) if p == n - 1 else _factor(y, False, 1, 0)


def hecke_R(b: BraidWord, tables: dict) -> LaurentPoly:
    """R of the closure of `b`, from the product of its letters in H_n, on
    the tables kept for later calls in `tables` (a `SkeinCache`'s)."""
    return _closure_poly(b, tables, "hecke", tuple(range(b.strands)), _hecke_step,
                         _hecke_close)


# -- D in the BMW algebra -----------------------------------------------------


def _term(b: tuple, w: int, k: int) -> dict:
    """a^w delta_D^k R_b on the flat vector."""
    return _factor({(b, 0, 0): 1}, True, w, k)


def _eval(n: int, events: tuple, memo: dict) -> dict:
    """The tangle on the R_b basis: {(brauer, ez, ea): k}."""
    events, _, a_pow, circles = reduce_diagram(events)
    val = memo.get((n, events))
    if val is None:
        val = memo[n, events] = _expand(n, events, memo)
    return _factor(val, True, a_pow, circles)


def _expand(n: int, events: tuple, memo: dict) -> dict:
    """The descending recursion on a reduced tangle."""
    sc, viols, writhe = descend(events, ends=n)
    # the descending tangle: the arcs' matching of the end points (S_e is e,
    # E_e is n + e), and loops, the components after the n arcs
    brauer = [0] * (2 * n)
    first: dict = {}  # per arc, its first end point
    for e, t in enumerate([*range(n), *sc.right_ends]):
        f = first.setdefault(sc.component_of[t], e)
        brauer[e], brauer[f] = f, e
    acc = _term(tuple(brauer), writhe, len(sc.components) - n)
    get = acc.get
    for smoothed, _dirs, sign in smoothings(events, None, viols):
        for (b, ez, ea), c in _eval(n, smoothed, memo).items():
            key = (b, ez + 1, ea)
            acc[key] = get(key, 0) + sign * c
    return {key: c for key, c in acc.items() if c}


def _cap_pairs(n: int, pairs: list, events: list, sign) -> list:
    """Cap the pairs of end points (0..n-1), innermost first; return the
    stack of end points left.

    Each pair's upper strand moves down to its partner, crossing exactly
    the strands between them, whose arcs must cross the pair's arc.  Each
    crossing's sign is `sign(lower, upper)` of the end points on the two
    levels it swaps.
    """
    stack = list(range(n))
    for j, k in sorted(pairs, key=lambda p: p[1] - p[0]):
        p, q = stack.index(j), stack.index(k)
        for pos in range(q - 1, p, -1):
            events.append(("x", pos, sign(stack[pos], stack[pos + 1])))
            stack[pos], stack[pos + 1] = stack[pos + 1], stack[pos]
        events.append(("cap", p))
        del stack[p:p + 2]
    return stack


def _basis_tangle(n: int, b: tuple) -> tuple:
    """R_b: the descending tangle of the matching b with the fewest crossings.

    The left pairs are capped innermost first, then a permutation braid
    takes the through strands to the order of their right ends, then the
    right pairs are cupped (the mirror image of capping them).  Two arcs
    cross at most once, and only when their end points interleave around
    the boundary, so no arc crosses itself.  Each crossing is +1, the
    strand entering at the lower level passing over, when that strand's arc
    is the earlier one (the one with the first end point), so that each
    crossing is first met on its over strand; the cups read the levels
    mirrored, since their events run in the opposite order.
    """
    first = [min(e, f) for e, f in enumerate(b)]  # each end point's arc
    events: list = []
    left = _cap_pairs(n, [(e, b[e]) for e in range(n) if e < b[e] < n], events,
                      lambda lo, hi: 1 if first[lo] < first[hi] else -1)
    right_events: list = []
    right = _cap_pairs(n, [(e - n, b[e] - n) for e in range(n, 2 * n) if e < b[e]],
                       right_events,
                       lambda lo, hi: 1 if first[n + hi] < first[n + lo] else -1)
    rank = {e: r for r, e in enumerate(right)}
    stack = left  # the through strands, by their left end points
    for top in range(len(stack) - 1, 0, -1):  # bubble sort: one crossing per inversion
        for i in range(top):
            lo, hi = stack[i], stack[i + 1]
            if rank[b[lo] - n] > rank[b[hi] - n]:
                stack[i], stack[i + 1] = hi, lo
                events.append(("x", i, 1 if lo < hi else -1))
    events += [("cup",) + ev[1:] if ev[0] == "cap" else ev
               for ev in reversed(right_events)]
    return tuple(events)


def _tangle(n: int, b: tuple, basis: dict) -> tuple:
    """R_b, memoized per matching in `basis`."""
    events = basis.get(b)
    if events is None:
        events = basis[b] = _basis_tangle(n, b)
    return events


def _positions(n: int) -> list:
    """Each end point's place around the boundary: S_0 ... S_(n-1) up the
    left side, then E_(n-1) ... E_0 down the right."""
    return [*range(n), *range(2 * n - 1, n - 1, -1)]


def _join(n: int, b: tuple, u: int, v: int):
    """R_b with its arcs through u and v, end points adjacent around the
    boundary, joined there: (b'', w, k) when that tangle is the descending
    a^w delta_D^k R_b'', else None.

    Let A and B be the arcs through u and v, and C the arc they join into,
    from A's other end to B's.  b'' is b with C's ends and u and v matched.
    If A = B, no end point lies between u and v, so A crosses nothing and
    closes into a loop: k = 1.  Otherwise each crossing of R_b stays, where
    the earlier arc (the one with the first end point) passes over; the
    tangle descends when each crossing of C is still first met on its over
    strand, in the new arc order and, for the A x B crossing, along C.  That
    crossing, if the arcs interleaved, is C's self-crossing, of writhe w.
    """
    pa, pb = b[u], b[v]
    if pa == v:
        return b, 0, 1
    pos = _positions(n)

    def interleave(e: int, f: int, g: int, h: int) -> bool:
        lo, hi = sorted((pos[e], pos[f]))
        return (lo < pos[g] < hi) != (lo < pos[h] < hi)

    fa, fb, fc = min(pa, u), min(pb, v), min(pa, pb)  # first ends of A, B, C
    # another arc, from x, crossing A changes sides over it exactly when x
    # lies between the first ends of A and C; alike for B
    for f, p, q in ((fa, pa, u), (fb, pb, v)):
        for x in range(min(f, fc), max(f, fc)):
            if x < b[x] and x != fa and x != fb and interleave(x, b[x], p, q):
                return None
    w = 0
    if interleave(pa, u, pb, v):
        if (fa < fb) != (pa < pb):  # C runs first along its under strand
            return None
        # the sign of the crossing of the arc x1 -> x2 over the arc from y1:
        # +1 when y1 lies on the way round from x1 to x2 in position order
        x1, x2, y1 = (pa, u, v) if fa < fb else (v, pb, pa)
        w = 1 if (pos[y1] - pos[x1]) % (2 * n) < (pos[x2] - pos[x1]) % (2 * n) else -1
    joined = list(b)
    joined[pa], joined[pb], joined[u], joined[v] = pb, pa, v, u
    return tuple(joined), w, 0


def _step(n: int, b: tuple, l: int, basis: dict, memo: dict) -> tuple:
    """The structure constant R_b g_i^s of the letter l, flattened.

    Let A and B be the arcs of b through E_i and E_(i+1); the crossing
    passes A over B when s = +1.  If A = B, the crossing closes A into a
    curl of writhe -s, so the step is a^-s R_b.  Otherwise let b' be b with
    E_i and E_(i+1) swapped.  Swapping two adjacent end points makes two
    arcs interleave around the boundary exactly when they did not, so A
    and B cross in just one of R_b and R_b', and there the earlier of the
    two (the one with the first end point) passes over.  If the new
    crossing passes that arc over too, the step is R_b': the new crossing
    is R_b''s crossing of A and B, or it cancels R_b's by a Reidemeister II
    move.  If not, the opposite sign does, and the Dubrovnik relation
    g_i - g_i^-1 = z (1 - e_i) gives

        R_b g_i^s = R_b' + s z R_b - s z R_b e_i,

    so only R_b e_i, the tangle R_b with a cap and a cup at E_i, is left.
    It is read off the matching when it descends (`_join`), and runs the
    descending recursion when not.  For each (b, i) at most one sign needs
    it, so the step table is its memo.
    """
    i, s = abs(l) - 1, 1 if l > 0 else -1
    e, f = n + i, n + i + 1
    pa, pb = b[e], b[f]  # the other end points of A and B
    if pa == f:
        return ((b, 0, -s, 1),)
    pos = _positions(n)
    lo, hi = sorted((pos[e], pos[pa]))
    if (lo < pos[f] < hi) != (lo < pos[pb] < hi):
        first_a = min(e, pa) < min(f, pb)  # they cross in R_b
    else:
        first_a = min(f, pa) < min(e, pb)  # they cross in R_b'
    swapped = list(b)
    swapped[pa], swapped[f], swapped[pb], swapped[e] = f, pa, e, pb
    swapped = tuple(swapped)
    if first_a == (s == 1):
        return ((swapped, 0, 0, 1),)
    acc = {(swapped, 0, 0): 1, (b, 1, 0): s}
    joined = _join(n, b, e, f)
    capped = (_term(*joined) if joined else
              _eval(n, _tangle(n, b, basis) + (("cap", i), ("cup", i)), memo))
    for (b2, dz, da), k in capped.items():
        key = (b2, dz + 1, da)
        acc[key] = acc.get(key, 0) - s * k
    return tuple((b2, dz, da, k) for (b2, dz, da), k in acc.items() if k)


def _bmw_close(b: tuple, basis: dict, memo: dict) -> dict:
    """R_b, on m strands, with its last strand closed, on the (m-1)-strand
    basis: one term read off the matching when the closed tangle descends
    (`_join`), else the descending recursion."""
    m = len(b) // 2
    joined = _join(m, b, m - 1, 2 * m - 1)
    if joined:  # S_(m-1) and E_(m-1) leave the matching
        b2, w, k = joined
        return _term(tuple(e - (e >= m) for e in b2[:m - 1] + b2[m:-1]), w, k)
    return _eval(m - 1, (("cup", m - 1),) + _tangle(m, b, basis) + (("cap", m - 1),),
                 memo)


def bmw_D(b: BraidWord, tables: dict) -> LaurentPoly:
    """D of the closure of `b`, from the product of its letters in BMW_n, on
    the tables kept for later calls in `tables` (a `SkeinCache`'s)."""
    memo, basis = (tables.setdefault(name, {}) for name in ("bmw_memo", "bmw_basis"))
    n = b.strands
    return _closure_poly(b, tables, "bmw", tuple(range(n, 2 * n)) + tuple(range(n)),
                         lambda br, l: _step(n, br, l, basis, memo),
                         lambda br: _bmw_close(br, basis, memo))


def braid_invariants(b: BraidWord, cache: SkeinCache) -> SkeinResult:
    """The invariants of the closure of `b` from the algebra engines.

    R and D are looked up in the cache under the skein engines' keys for the
    reduced closure; on a miss the algebra values are stored there.  w is
    the exponent sum, the closure's writhe.  The closure reaches the memo
    unscanned, with its default orientation (`diagram.closure_events`).
    """
    d = Oriented(closure_events(b), (1, -1) * b.strands)
    R = memo_value(d, cache, lambda: hecke_R(b, cache.tables), kauffman=False)
    D = memo_value(d, cache, lambda: bmw_D(b, cache.tables), kauffman=True)
    return SkeinResult.of(R, D, b.exponent_sum())
