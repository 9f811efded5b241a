"""The algebra engines against the skein engines, closed forms and the
mirror property, and how `poly --braid` and `search` use them."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from knotpoly import algebra, harness, skein
from knotpoly.algebra import (bmw_D, hecke_R, braid_invariants, _basis_tangle,
                              _bmw_close, _eval, _hecke_close, _hecke_step,
                              _join, _step, _trace, _traced)
from knotpoly.cli import main
from knotpoly.diagram import (DIAGRAM_KINDS, MAX_LETTERS, MAX_STRANDS, BraidWord,
                              DiagramError, ParseError, braid_closure, parse_braid,
                              scan, _switch_events)
from knotpoly.harness import SearchConfig
from knotpoly.laurent import LaurentPoly
from knotpoly.skein import (SkeinCache, descend, full_invariants, homfly_R,
                            kauffman_D)

from conftest import (A, ZVAR, DELTA, DELTA_D, WITNESS_BRAID, matchings,
                      random_braid, random_tangle, reference_descend,
                      reference_walk)

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("n", range(5))
def test_basis_tangles_expand_to_themselves(n):
    """Each R_b is descending with no self-crossing: its expansion is R_b."""
    count = 0
    for m in matchings(list(range(2 * n))):
        b = tuple(m[e] for e in range(2 * n))
        assert _eval(n, _basis_tangle(n, b), {}) == {(b, 0, 0): 1}, b
        count += 1
    assert count == [1, 1, 3, 15, 105][n]  # (2n-1)!!


@pytest.mark.parametrize("n", range(6))
def test_basis_tangle_signs_match_the_descending_switch(n):
    """The signs `_basis_tangle` reads off the matching are the ones of the
    construction that emits every crossing +1 and then switches each one
    that `descend` finds first met on its under strand."""
    for m in matchings(list(range(2 * n))):
        tangle = _basis_tangle(n, tuple(m[e] for e in range(2 * n)))
        switched = tuple(("x", ev[1], 1) if ev[0] == "x" else ev for ev in tangle)
        for ev_idx, *_ in descend(switched, ends=n)[1]:
            switched = _switch_events(switched, ev_idx)
        assert tangle == switched, m


def _recursion_step(n: int, b: tuple, l: int, memo: dict) -> tuple:
    """R_b g_i^+-1 by the descending recursion on R_b followed by the
    crossing: the reference for `_step`."""
    crossing = ("x", abs(l) - 1, 1 if l > 0 else -1)
    return tuple((b2, dz, da, k) for (b2, dz, da), k
                 in _eval(n, _basis_tangle(n, b) + (crossing,), memo).items())


def test_structure_constants_match_the_recursion():
    """Every (b, letter) of BMW_n, n <= 5, term by term: the descending
    rule and the Dubrovnik relation against the recursion."""
    counts = []
    for n in range(1, 6):
        basis, memo, ref_memo = {}, {}, {}
        one_term = 0
        for m in matchings(list(range(2 * n))):
            b = tuple(m[e] for e in range(2 * n))
            for l in [*range(1, n), *range(-1, -n, -1)]:
                step = _step(n, b, l, basis, memo)
                assert sorted(step) == sorted(_recursion_step(n, b, l, ref_memo)), (b, l)
                one_term += len(step) == 1
        counts.append((len(basis), one_term))
    # (basis tangles built, one-term constants): 945 basis elements at 5
    # strands, 8 letters each.  A curl is one term under either sign, any
    # other (b, i) under exactly one.  Only a b with some R_b e_i that does
    # not descend builds its tangle: 558 of the 945 at 5 strands.
    assert counts == [(0, 0), (0, 4), (2, 36), (44, 360), (558, 4200)]


def _descending_term(b: tuple, w: int, k: int) -> dict:
    """a^w delta_D^k R_b on the flat vector, from the tests' own delta_D."""
    return {(b, ez, ea): c for (ez, ea), c in (DELTA_D ** k).shift(0, w).terms.items()}


def test_join_reads_every_descending_tangle():
    """Every R_b e_i and every R_b with its last strand closed, of BMW_n,
    n <= 5: `_join` answers exactly when `descend` finds no violation on the
    literal tangle, and its term is the recursion's expansion."""
    counts = []
    for n in range(1, 6):
        memo = {}
        tally = [0, 0, 0, 0]  # R_b e_i: tangles, descending; closures: alike
        for m in matchings(list(range(2 * n))):
            b = tuple(m[e] for e in range(2 * n))
            tangle = _basis_tangle(n, b)
            cases = [(0, n, tangle + (("cap", i), ("cup", i)), n + i, n + i + 1)
                     for i in range(n - 1)]
            cases.append((2, n - 1, (("cup", n - 1),) + tangle + (("cap", n - 1),),
                          n - 1, 2 * n - 1))
            for slot, ends, events, u, v in cases:
                joined = _join(n, b, u, v)
                assert (joined is not None) == (not descend(events, ends=ends)[1]), \
                    (b, events)
                tally[slot] += 1
                if joined is None:
                    continue
                tally[slot + 1] += 1
                b2, w, k = joined
                if slot:  # S_(n-1) and E_(n-1) leave the matching
                    b2 = tuple(e - (e >= n) for e in b2[:n - 1] + b2[n:-1])
                assert _descending_term(b2, w, k) == _eval(ends, events, memo), \
                    (b, events)
        counts.append(tuple(tally))
    # with A = B, (n - 1) (2n - 3)!! of the R_b e_i, a loop; of the other
    # 3,656 at n <= 5, 2,756 descend, and 735 of the 1,069 closures
    assert counts == [(0, 0, 1, 1), (3, 3, 3, 3), (30, 28, 15, 12),
                      (315, 265, 105, 79), (3780, 2932, 945, 640)]


def _closure_trace(n: int, b: tuple, memo: dict) -> tuple:
    """tr(R_b) by the descending recursion on the closure of R_b, every
    strand closed at once: the reference for `_trace` with `_bmw_close`."""
    closure = (tuple(("cup", i) for i in range(n)) + _basis_tangle(n, b)
               + tuple(("cap", i) for i in range(n - 1, -1, -1)))
    return tuple(sorted((dz, da, k)
                        for (_, dz, da), k in _eval(0, closure, memo).items()))


def test_traces_match_the_closure():
    """Every matching of BMW_n, n <= 5: the trace by closing the last strand
    and tracing the expansion on the (n-1)-strand basis against the
    recursion on the full closure."""
    basis, memo, traces, ref_memo = {}, {}, {}, {}
    count = 0
    for n in range(6):
        for m in matchings(list(range(2 * n))):
            b = tuple(m[e] for e in range(2 * n))
            trace = _trace(b, lambda x: _bmw_close(x, basis, memo), traces)
            assert tuple(sorted(trace)) == _closure_trace(n, b, ref_memo), b
            count += 1
    assert (count, len(traces)) == (1070, 1069)  # the empty matching is not kept


def _hecke_mul(x: dict, i: int, positive: bool) -> dict:
    """x g_i, or x g_i^-1 = x g_i - z x, on the flat vector {(w, ez, 0): k}:
    the reference for `_hecke_step`, and the product of
    `_reference_invariants`."""
    out: dict = {}
    get = out.get
    for (w, ez, _), c in x.items():
        lo, hi = w[i], w[i + 1]
        key = (w[:i] + (hi, lo) + w[i + 2:], ez, 0)
        out[key] = get(key, 0) + c
        if (lo > hi) == positive:  # a descent for g_i, an ascent for g_i^-1
            key = (w, ez + 1, 0)
            out[key] = get(key, 0) + (c if positive else -c)
    return {key: c for key, c in out.items() if c}


def test_hecke_constants_match_the_reference():
    """Every (w, letter) of H_n, n <= 5: `_hecke_step` against `_hecke_mul`
    on the basis element T_w."""
    count = 0
    for n in range(1, 6):
        for w in itertools.permutations(range(n)):
            for l in [*range(1, n), *range(-1, -n, -1)]:
                step = _hecke_step(w, l)
                assert ({(w2, dz, da): k for w2, dz, da, k in step}
                        == _hecke_mul({(w, 0, 0): 1}, abs(l) - 1, l > 0)), (w, l)
                assert len(step) == len({e[:3] for e in step}), (w, l)
                count += 1
    assert count == 2 * 2 + 6 * 4 + 24 * 6 + 120 * 8


def test_hecke_traces_match_skein(cache):
    """Every permutation w of n <= 5 strands: tr(T_w) by closing the last
    strand against `homfly_R` of the closure of a reduced word of w, which
    shares no algebra code.  Bubble-sorting w to the identity swaps one
    descent per letter, so the swaps, last first, spell a reduced word."""
    count = 0
    for n in range(1, 6):
        for w in itertools.permutations(range(n)):
            x, letters = list(w), []
            for top in range(n - 1, 0, -1):
                for i in range(top):
                    if x[i] > x[i + 1]:
                        x[i], x[i + 1] = x[i + 1], x[i]
                        letters.insert(0, i + 1)
            closure = braid_closure(BraidWord(n, tuple(letters)))
            trace = LaurentPoly({(dz, da): k for dz, da, k in _trace(w, _hecke_close, {})})
            assert trace == homfly_R(closure, cache), w
            count += 1
    assert count == 153


def _check_tangle_scan(events: tuple, n: int) -> None:
    """`scan(ends=n)` and `descend` against the reference walk."""
    sc = scan(events, DIAGRAM_KINDS, ends=n)
    ref = reference_walk(events, ends=n)
    assert sc.dirs == ref.dirs
    assert (tuple(sc.components), tuple(sc.component_of)) == \
        (ref.components, ref.component_of)
    assert sc.right_ends == ref.points[n:]
    assert list(sc.cup_lows) == [lo for _i, lo, _hi in ref.cup_events]
    assert all(sc.cap_mate[t] == m for t, m in ref.cap_pair.items())
    assert tuple(sc.crossings) == ref.cross_info
    # the Brauer matching and the loop count, read off the scan's components
    points = [*range(n), *sc.right_ends]
    brauer = tuple(next(f for f, u in enumerate(points)
                        if f != e and sc.component_of[u] == sc.component_of[t])
                   for e, t in enumerate(points))
    assert brauer == ref.brauer
    assert len(sc.components) - n == ref.loops
    got, viols, writhe = descend(events, ends=n)
    assert (len(got.components), got.dirs, writhe, viols) == \
        reference_descend(events, ends=n)
    # given dirs must orient each arc from its first end point
    assert scan(events, DIAGRAM_KINDS, sc.dirs, ends=n).dirs == sc.dirs
    if n:
        arc = sc.components[0]
        flipped = tuple(-d if c == arc else d for d, c in zip(sc.dirs, sc.component_of))
        for check in (lambda: scan(events, DIAGRAM_KINDS, flipped, ends=n),
                      lambda: reference_walk(events, dirs=flipped, ends=n)):
            with pytest.raises(DiagramError):
                check()


@pytest.mark.parametrize("n", range(5))
def test_tangle_scan_matches_reference_on_basis_tangles(n):
    for m in matchings(list(range(2 * n))):
        tangle = _basis_tangle(n, tuple(m[e] for e in range(2 * n)))
        _check_tangle_scan(tangle, n)
        if n > 1:  # and the tangles of the structure constants
            _check_tangle_scan(tangle + (("x", n - 2, -1),), n)


def test_tangle_scan_matches_reference_on_random_tangles():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(0, 4)
        _check_tangle_scan(random_tangle(rng, n, rng.randint(0, 12)), n)


def test_tangle_scan_rejects_wrong_end_width():
    tangle = _basis_tangle(2, (1, 0, 3, 2))
    for events, n in ((tangle + (("cup", 0),), 2), ((("cap", 0),), 2)):
        for check in (lambda: scan(events, DIAGRAM_KINDS, ends=n),
                      lambda: reference_walk(events, ends=n)):
            with pytest.raises(DiagramError):
                check()


def _check_agreement(b: BraidWord, cache: SkeinCache, tables: dict) -> None:
    d = braid_closure(b)
    assert hecke_R(b, tables) == homfly_R(d, cache), b.text()
    assert bmw_D(b, tables) == kauffman_D(d, cache), b.text()


def test_witness_agrees_with_skein(cache):
    _check_agreement(parse_braid(WITNESS_BRAID), cache, {})


def test_witness_table_sizes():
    """The cold witness build.  R: a Hecke constant per (permutation,
    letter) the product reads, 100 traces and 67 traced steps.  D: a
    structure constant per (basis element, letter) the product reads; 1,326
    of them need R_b e_i.  The last letter is traced per basis element: 526
    traced steps, whose constants reach 540 traces on 5 strands, and closing
    the last strand reaches all 124 matchings on 1-4 strands.  Of the 1,326
    R_b e_i and the 664 closures, 1,013 and 480 descend and are read off
    the matching; only the other 313 and 184 run the recursion, whose memo
    holds 1,474 tangles (2,182 when every one ran it).  They build 386
    basis tangles, 246 for the steps and 184 for the traces, 44 shared."""
    tables = {}
    hecke_R(parse_braid(WITNESS_BRAID), tables)
    assert (len(tables["hecke_step"]), len(tables["hecke_trace"]),
            len(tables["hecke_step_trace"])) == (478, 100, 67)
    bmw_D(parse_braid(WITNESS_BRAID), tables)
    assert len(tables["bmw_step"]) == 3035
    assert len(tables["bmw_memo"]) == 1474
    assert len(tables["bmw_basis"]) == 386
    traces = tables["bmw_trace"]
    assert (sum(len(b) == 10 for b in traces), sum(len(b) < 10 for b in traces),
            len(tables["bmw_step_trace"])) == (540, 124, 526)


def _reference_invariants(b: BraidWord, ref: dict) -> tuple:
    """R and D of the closure of `b` with every letter multiplied out and
    the product traced term by term, on tables of the test's own (`ref`),
    which the engines never see.  R is multiplied out with the test's
    `_hecke_mul`, D on a dict of LaurentPoly coefficients, so neither
    shares the engines' product code."""
    n = b.strands
    x = {(tuple(range(n)), 0, 0): 1}
    for l in b.letters:
        x = _hecke_mul(x, abs(l) - 1, l > 0)
    hecke_traces = ref.setdefault("hecke_trace", {})
    R = _traced(x, lambda w: _trace(w, _hecke_close, hecke_traces))
    basis, memo = ref.setdefault("basis", {}), ref.setdefault("memo", {})
    y = {tuple(range(n, 2 * n)) + tuple(range(n)): LaurentPoly.one()}
    for l in b.letters:
        out = {}
        for br, c in y.items():
            for br2, dz, da, k in _step(n, br, l, basis, memo):
                out[br2] = out.get(br2, LaurentPoly()) + c * LaurentPoly.monomial(k, dz, da)
        y = {br: c for br, c in out.items() if c}
    D = LaurentPoly()
    for br, c in y.items():
        closure = (tuple(("cup", i) for i in range(n)) + _basis_tangle(n, br)
                   + tuple(("cap", i) for i in range(n - 1, -1, -1)))
        for (_, dz, da), k in _eval(0, closure, memo).items():  # the empty matching
            D = D + c * LaurentPoly.monomial(k, dz, da)
    return R, D


def _reference_corpus() -> list:
    """Seeded words on 1-5 strands with 0-14 letters, each with its siblings
    (the same head, every last letter) in a row, then all of them again on
    one strand more; and the empty and one-letter words."""
    rng = random.Random(2222)
    words = [BraidWord(n, ()) for n in range(1, 6)]
    words += [BraidWord(n, (l,)) for n in range(2, 6) for l in (1 - n, n - 1)]
    for n in range(1, 6):
        gens = [i for i in range(1 - n, n) if i]
        for length in ([14] + [rng.randint(0, 14) for _ in range(4)]) if gens else [0]:
            head = tuple(rng.choice(gens) for _ in range(length - 1)) if length else ()
            family = [head + (l,) for l in gens] if length else [()]
            words += [BraidWord(n, letters) for letters in family]
            if n < 5:  # the head again, on a wider basis
                words += [BraidWord(n + 1, letters) for letters in family]
    return words


def test_traced_last_step_and_head_reuse_match_the_full_product():
    """On one shared `tables`, each R and D equals the reference; a later
    call leaves every returned value and every kept head product as it
    was."""
    tables, refs = {}, {}
    returned, kept = [], []
    reused = 0
    for b in _reference_corpus():
        before = {name: tables.get(name) for name in ("hecke_head", "bmw_head")}
        R, D = hecke_R(b, tables), bmw_D(b, tables)
        assert (R, D) == _reference_invariants(b, refs.setdefault(b.strands, {})), b
        returned += [(R, dict(R.terms)), (D, dict(D.terms))]
        for name, prev in before.items():
            head, x = tables[name]
            assert head == (b.strands, b.letters[:-1])
            reused += prev is not None and prev[1] is x
            kept.append((x, dict(x)))
    assert all(p.terms == terms for p, terms in returned)
    assert all(x == copy for x, copy in kept)
    assert (len(returned), reused) == (2 * 159, 2 * 113)


def test_criterion_07_sample_agrees_with_skein(cache):
    """The first 150 braids of criterion 07's corpus, links included."""
    rng = random.Random(77)
    tables = {}
    for _ in range(150):
        _check_agreement(random_braid(rng, max_strands=5, max_letters=10),
                         cache, tables)


def test_criterion_11_sample_agrees_with_skein(cache):
    """The first 150 braids of criterion 11's corpus and their
    stabilizations, links included."""
    rng = random.Random(811)
    tables = {}
    for _ in range(150):
        b = random_braid(rng, max_strands=4, max_letters=8)
        _check_agreement(b, cache, tables)
        for sgn in (1, -1):
            wide = BraidWord(b.strands + 1, b.letters + (sgn * b.strands,))
            _check_agreement(wide, cache, tables)


def _torus_2(count: int):
    """R and D of the closures of sigma_1^n, n < count, from the skein
    relations alone: R_n = R_(n-2) + z R_(n-1), and
    D_n = D_(n-2) + z (D_(n-1) - a^-(n-1) delta_D)."""
    R = [DELTA * DELTA, A * DELTA]
    D = [DELTA_D * DELTA_D, A * DELTA_D]
    for n in range(2, count):
        R.append(R[n - 2] + ZVAR * R[n - 1])
        D.append(D[n - 2] + ZVAR * (D[n - 1] - DELTA_D.shift(0, -(n - 1))))
    return R, D


def test_torus_2_closed_forms():
    R, D = _torus_2(16)
    tables = {}
    for n in range(16):
        b = BraidWord(2, [1] * n)
        d = braid_closure(b)
        assert hecke_R(b, tables) == R[n] == homfly_R(d, SkeinCache()), n
        assert bmw_D(b, tables) == D[n] == kauffman_D(d, SkeinCache()), n


def _hook_sum(p: int, q: int) -> tuple:
    """R of T(p, q) from Jones's torus-knot formula (Ann. Math. 126, 1987),
    a sum over the hook representations (p - k, 1^k) of H_p, in this
    repository's variables with z = s - s^-1 (s in the first slot):

        R = sum_k (-1)^k s^(q (p - 1 - 2k))
              prod_(cells (i, j)) (a s^(j - i) - a^-1 s^(i - j)) / (s^h - s^-h)

    with h the cell's hook length: the hook's quantum dimension under the
    unknot a - a^-1 over s - s^-1, and s^(q (p - 1 - 2k)) the q/p-th power
    of the full twist's eigenvalue on it, after the a^q of the torus
    framing is traded for the writhe (p - 1) q of the braid.  Returned as
    numerator and denominator over the common denominator of the hooks."""
    def mono(c, es=0, ea=0):
        return LaurentPoly.monomial(c, es, ea)
    terms = []
    for k in range(p):
        num, den = mono((-1) ** k, q * (p - 1 - 2 * k)), LaurentPoly.one()
        for i, j in [(0, j) for j in range(p - k)] + [(i, 0) for i in range(1, k + 1)]:
            arm = p - k - 1 - j if i == 0 else 0
            leg = k - i if j == 0 else 0
            h = arm + leg + 1
            num = num * (mono(1, j - i, 1) - mono(1, i - j, -1))
            den = den * (mono(1, h) - mono(1, -h))
        terms.append((num, den))
    total_num, total_den = LaurentPoly(), LaurentPoly.one()
    for num, den in terms:
        total_num = total_num * den + num * total_den
        total_den = total_den * den
    return total_num, total_den


_Z_AT_S = LaurentPoly({(1, 0): 1, (-1, 0): -1})  # s - s^-1


def _at_s(R: LaurentPoly, m: int) -> LaurentPoly:
    """z^m R at z = s - s^-1, for m at least R's least power of z."""
    out = LaurentPoly()
    for (ez, ea), c in R.terms.items():
        out = out + _Z_AT_S ** (ez + m) * LaurentPoly.monomial(c, 0, ea)
    return out


@pytest.mark.parametrize("p", [2, 3, 4])
def test_torus_knots_match_jones_formula(p):
    """hecke_R on the closure of (sigma_1 ... sigma_(p-1))^q, coprime |q| <= 11."""
    tables = {}
    checked = 0
    for q in range(-11, 12):
        if math.gcd(p, q) != 1:
            continue
        sign = 1 if q > 0 else -1
        R = hecke_R(BraidWord(p, [sign * i for i in range(1, p)] * abs(q)), tables)
        num, den = _hook_sum(p, q)
        m = max(0, -R.min_degree("first"))
        assert _at_s(R, m) * den == num * _Z_AT_S ** m, (p, q)
        checked += 1
    assert checked == {2: 12, 3: 16, 4: 12}[p]


def _poly_product(b: BraidWord, tables: dict) -> LaurentPoly:
    """bmw_D's product and trace from the same tables, on a dict of
    LaurentPoly coefficients with the general product."""
    n = b.strands
    steps, traces = tables["bmw_step"], tables["bmw_trace"]
    x = {tuple(range(n, 2 * n)) + tuple(range(n)): LaurentPoly.one()}
    for l in b.letters:
        out = {}
        for br, c in x.items():
            for br2, dz, da, k in steps[br, l]:
                term = c * LaurentPoly.monomial(k, dz, da)
                out[br2] = out.get(br2, LaurentPoly()) + term
        x = {br: c for br, c in out.items() if c}
    total = LaurentPoly()
    for br, c in x.items():
        total = total + c * LaurentPoly({(dz, da): k for dz, da, k in traces[br]})
    return total


def test_flat_kernel_handles_non_monomial_constants():
    """Every structure constant built so far is a signed monomial; the flat
    product must not depend on it.  A step made two-term per entry gives
    the dict-of-LaurentPoly product of the same tables."""
    b = BraidWord(3, (1, -2, 1, 2, -1, -2))
    tables = {}
    plain = bmw_D(b, tables)
    assert _poly_product(b, tables) == plain
    steps = tables["bmw_step"]
    identity = (3, 4, 5, 0, 1, 2)
    key = next(k for k in steps if k[0] != identity and k[1] == -1)
    steps[key] = tuple(e for br2, dz, da, k in steps[key]
                       for e in ((br2, dz, da, k), (br2, dz + 1, da - 1, 2 * k)))
    # the kept head product and the traced steps were read off the old constant
    del tables["bmw_head"], tables["bmw_step_trace"]
    injected = bmw_D(b, tables)
    assert injected != plain
    assert injected == _poly_product(b, tables)


def _mirrored(p: LaurentPoly) -> LaurentPoly:
    """p(-z, a^-1)."""
    return LaurentPoly({(ez, -ea): -c if ez % 2 else c
                        for (ez, ea), c in p.terms.items()})


def test_mirror_property():
    """Switching every crossing takes R(z, a) to R(-z, a^-1), and D alike."""
    rng = random.Random(12)
    tables = {}
    for k in range(60):
        b = random_braid(rng, max_strands=4, max_letters=8)
        m = BraidWord(b.strands, [-l for l in b.letters])
        assert hecke_R(m, tables) == _mirrored(hecke_R(b, tables)), b.text()
        assert bmw_D(m, tables) == _mirrored(bmw_D(b, tables)), b.text()
        if k < 20:  # the skein engines, on a share of the same closures
            cache = SkeinCache()
            d, dm = braid_closure(b), braid_closure(m)
            assert homfly_R(dm, cache) == _mirrored(homfly_R(d, cache))
            assert kauffman_D(dm, cache) == _mirrored(kauffman_D(d, cache))


def test_braid_invariants_match_full_invariants(cache):
    rng = random.Random(5)
    for _ in range(40):
        b = random_braid(rng, max_strands=5, max_letters=9)
        assert braid_invariants(b, SkeinCache()) == \
            full_invariants(braid_closure(b), cache)


def test_package_import_leaves_algebra_out():
    """Importing every other package module, the CLI entry point among
    them, does not compile or run `algebra.py`: a process that runs no
    algebra engine does not pay for it at start-up."""
    code = ("import importlib, pkgutil, sys, knotpoly\n"
            "for m in pkgutil.iter_modules(knotpoly.__path__):\n"
            "    if m.name != 'algebra':\n"
            "        importlib.import_module('knotpoly.' + m.name)\n"
            "sys.exit('knotpoly.cli' not in sys.modules\n"
            "         or 'knotpoly.algebra' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(algebra.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- the cache file ----------------------------------------------------------


def _records(path) -> dict:
    lines = Path(path).read_text().splitlines()
    return dict(line.split("\t", 1) for line in lines)


@pytest.mark.parametrize("word", ["braid 2: 1 1 1", "braid 4: 1 1 -2 1 3 -2 3",
                                  "braid 3: 1 -2 1 -2 2 2",
                                  # one and two free circles lost to reduction
                                  "braid 3: 1 1", "braid 4: 1 1 1"])
def test_poly_cache_records_are_skein_records(tmp_path, monkeypatch, capsys, word):
    """`poly --braid --cache F` writes R and D under the skein engines' keys
    for the reduced closure, with the skein values; a second run reads them
    and builds no algebra table, and `check --braid` then hits them."""
    algebra_file = tmp_path / "algebra.txt"
    assert main(["poly", "--braid", word, "--cache", str(algebra_file)]) == 0
    first = capsys.readouterr().out
    written = _records(algebra_file)
    assert len(written) == 2

    skein_file = tmp_path / "skein.txt"
    skein_cache = SkeinCache(str(skein_file))
    try:
        full_invariants(braid_closure(parse_braid(word)), skein_cache)
    finally:
        skein_cache.close()
    skein_records = _records(skein_file)
    assert {k: skein_records[k] for k in written} == written

    import knotpoly.cli as cli
    opened = []

    class Recorded(SkeinCache):
        def __init__(self, path=None):
            super().__init__(path)
            opened.append(self)
    monkeypatch.setattr(cli, "SkeinCache", Recorded)
    before = algebra_file.read_bytes()
    assert main(["poly", "--braid", word, "--cache", str(algebra_file)]) == 0
    assert capsys.readouterr().out == first
    assert len(opened) == 1 and opened[0].tables == {}
    assert main(["check", "--braid", word, "--cache", str(algebra_file)]) == 0
    assert algebra_file.read_bytes() == before


# -- search re-verification ---------------------------------------------------


def _inject(monkeypatch, word: str) -> None:
    """Make the search enumerate exactly one word."""
    b = parse_braid(word)
    monkeypatch.setattr(harness, "enumerate_braids", lambda cfg: iter([b]))


def test_search_reverifies_injected_witness(monkeypatch, cache):
    _inject(monkeypatch, WITNESS_BRAID)
    # the row comes from the algebra engines on the search's memo
    calls = []
    for name in ("hecke_R", "bmw_D"):
        engine = getattr(algebra, name)
        monkeypatch.setattr(algebra, name,
                            lambda b, tables, engine=engine: calls.append(b) or engine(b, tables))
    # the flagged row is re-verified on the skein engines, with a memo of its
    # own (empty when it is handed over); the suite's shared memo stands in
    verified = []

    def skein_full(d, own):
        verified.append((d.events, dict(own.mem)))
        return full_invariants(d, cache)
    monkeypatch.setattr(harness, "full_invariants", skein_full)
    reports = harness.search(SearchConfig(max_strands=5, max_letters=20))
    assert len(reports) == 1 and reports[0].witness
    assert [b.text() for b in calls] == [WITNESS_BRAID] * 2
    assert verified == [(braid_closure(parse_braid(WITNESS_BRAID)).events, {})]


def test_search_disagreeing_engine_is_verification_failure(monkeypatch, capsys,
                                                           tmp_path):
    _inject(monkeypatch, "braid 2: 1 1 1")
    monkeypatch.setattr(skein, "kauffman_D",
                        lambda d, cache, *args: kauffman_D(d, cache, *args).shift(0, 1))
    out = tmp_path / "r.csv"
    assert main(["search", "--max-strands", "2", "--max-letters", "3",
                 "--predicate", "all", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("verification failed: re-verification failed for "
                            "braid 2: 1 1 1\n")
    assert not out.exists()


# -- the strand ceiling -------------------------------------------------------


def test_strand_ceiling_in_parse_and_config():
    parse_braid(f"braid {MAX_STRANDS}: 1")
    with pytest.raises(ParseError, match=f"ceiling of {MAX_STRANDS}"):
        parse_braid(f"braid {MAX_STRANDS + 1}: 1")
    with pytest.raises(ParseError, match=f"ceiling of {MAX_STRANDS}"):
        parse_braid("braid 99999999: 1")
    SearchConfig(max_strands=MAX_STRANDS).validate()
    with pytest.raises(ParseError, match=f"ceiling of {MAX_STRANDS}"):
        SearchConfig(max_strands=MAX_STRANDS + 1).validate()


def test_strand_ceiling_is_usage_error_before_any_closure(monkeypatch, capsys):
    import knotpoly.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a closure was built")
    monkeypatch.setattr(cli, "braid_closure", refuse)
    monkeypatch.setattr(algebra, "braid_invariants", refuse)
    wide = f"braid {MAX_STRANDS + 1}: 1"
    for argv in (["poly", "--braid", wide], ["check", "--braid", wide],
                 ["search", "--max-strands", str(MAX_STRANDS + 1)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"ceiling of {MAX_STRANDS}" in err


def test_strand_ceiling_admits_documented_inputs():
    """Every strand count in the tests (but this file's refused ones), README
    and the benchmark inputs."""
    counts = []
    for path in [*(ROOT / "tests").glob("*.py"), ROOT / "README.md",
                 *(ROOT / "perfbench").glob("*.py")]:
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        counts += re.findall(r"braid (\d+):", text)
        counts += re.findall(r"max[_-]strands\W+(\d+)", text)
    assert counts and max(map(int, counts)) <= MAX_STRANDS


# -- the letter ceiling -------------------------------------------------------


def test_letter_ceiling_in_parse():
    assert len(parse_braid("braid 2: " + "1 " * MAX_LETTERS).letters) == MAX_LETTERS
    long = "braid 2: " + "1 " * (MAX_LETTERS + 1)
    with pytest.raises(ParseError, match=f"braid of {MAX_LETTERS + 1} letters "
                                         f"is above the ceiling of {MAX_LETTERS}"):
        parse_braid(long)
    # the count comes before the tokens are read
    with pytest.raises(ParseError, match="1500 letters"):
        parse_braid("braid 2: x " + "1 " * 1499)


def test_letter_ceiling_is_usage_error_before_any_closure(monkeypatch, capsys):
    import knotpoly.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a closure was built")
    monkeypatch.setattr(cli, "braid_closure", refuse)
    monkeypatch.setattr(algebra, "closure_events", refuse)
    monkeypatch.setattr(algebra, "braid_invariants", refuse)
    long = "braid 2: " + " ".join(["1"] * 1500)
    for argv in (["poly", "--braid", long], ["check", "--braid", long],
                 ["jaeger", "--braid", long], ["sum", "--braid", long]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: braid of 1500 letters is above the "
                                f"ceiling of {MAX_LETTERS}\n")


def test_letter_ceiling_admits_documented_inputs():
    """Every literal braid word in the tests, README and the benchmark
    inputs and references."""
    lengths = []
    for path in [*(ROOT / "tests").glob("*.py"), ROOT / "README.md",
                 *(ROOT / "perfbench").glob("*.py"),
                 ROOT / "perfbench" / "reference.json"]:
        text = path.read_text(encoding="utf-8")
        lengths += [len(w.split()) for w in re.findall(r"braid \d+:([ \d-]*)", text)]
    assert lengths and max(lengths) <= MAX_LETTERS


# -- the two engines on the search rows ---------------------------------------


@pytest.mark.parametrize("strands, letters, rows", [(3, 7, 2856), (5, 5, 384)])
def test_search_report_bytes_match_skein_rows(monkeypatch, tmp_path, strands,
                                              letters, rows):
    """The report from the algebra engines' rows equals the one from the
    skein engines' rows, byte for byte."""
    cfg = dict(max_strands=strands, max_letters=letters)
    algebra_out = tmp_path / "algebra.csv"
    harness.search(SearchConfig(out=str(algebra_out), **cfg))
    monkeypatch.setattr(algebra, "braid_invariants",
                        lambda b, cache: full_invariants(braid_closure(b), cache))
    skein_out = tmp_path / "skein.csv"
    harness.search(SearchConfig(out=str(skein_out), **cfg))
    assert algebra_out.read_bytes() == skein_out.read_bytes()
    assert len(algebra_out.read_bytes().splitlines()) == 1 + rows
