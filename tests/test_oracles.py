"""R and D against oracles of `oracles.py`, which share no code with the
engines: the skein engines and the algebra engines of `algebra.py` share
`diagram.scan`, the descending walk, the skein step and the planar
reduction, so their agreement does not check that code.

The Kauffman bracket checks D and R on braid closures, on the
morsifications of fronts and on spliced diagram states.  It checks D
again at the SO(4) point, where D is q^-w times the square of the Jones
polynomial: on the same diagrams, and on links under every orientation
of their components.  The Alexander polynomial of the reduced Burau
matrix checks R on braid closures through the Conway polynomial.  The
operators of U_q(so_N) check the tangles that `algebra._join` reads off
the Brauer matching, as identities of operators."""

import random
from functools import lru_cache

import pytest

from knotpoly import skein
from knotpoly.algebra import bmw_D, hecke_R, _basis_tangle, _join
from knotpoly.diagram import (BraidWord, MorseDiagram, braid_closure, parse_braid,
                              _smooth_h_events, _smooth_v_events)
from knotpoly.harness import SearchConfig, enumerate_braids
from knotpoly.jaeger import DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS, nonzero_states
from knotpoly.skein import SkeinCache, homfly_R, kauffman_D

from conftest import (DELTA_D, WITNESS_BRAID, matchings, random_braid,
                      random_front, reference_walk)
from oracles import (add, add_vectors, alexander, bracket, centred, closure,
                     components, conway, jones, mul, power, scaled, so4,
                     so_events, so_operator, specialize)

Z_D = {1: 1, -1: -1}   # z = A - A^-1, with a = -A^3
Z_R = {-2: 1, 2: -1}   # z = A^-2 - A^2, with a = A^4
Z_Q = {1: 1, -1: -1}   # z = q - q^-1, with a = q^2 (R) or q^3 (D)
# the Alexander polynomial of the witness closure
WITNESS_ALEXANDER = {4: 1, 3: -5, 2: 8, 1: -4, 0: 1, -1: -4, -2: 8, -3: -5,
                     -4: 1}


@lru_cache(maxsize=None)
def _corpus() -> tuple:
    """Braid closures with at most 12 crossings: the first braids of
    criterion 07's and criterion 11's corpora and seeded longer words,
    each as (braid, closure events, bracket)."""
    rng7, rng11, rng = random.Random(77), random.Random(811), random.Random(2026)
    braids = [random_braid(rng7, max_strands=5, max_letters=10) for _ in range(30)]
    for _ in range(20):
        b = random_braid(rng11, max_strands=4, max_letters=8)
        braids += [b, BraidWord(b.strands + 1, b.letters + (-b.strands,))]
    while len(braids) < 90:
        b = random_braid(rng, max_strands=5, max_letters=12)
        if len(b.letters) >= 9:
            braids.append(b)
    out = []
    for b in braids:
        events = closure(b.strands, b.letters)
        out.append((b, events, bracket(events)))
    return tuple(out)


def _clearing(p) -> int:
    """The power of z that clears every negative z power of `p`."""
    return max(0, *(-ez for ez, _ea in p.terms))


def _d_holds(K: dict, D, eps: int = 1, eta: int = 1) -> bool:
    """D(z = eps (A - A^-1), a = -A^(3 eta)) = <K>; negative z powers are
    cleared by z^m on both sides."""
    z = {e: eps * c for e, c in Z_D.items()}
    m = _clearing(D)
    return specialize(D.terms, z, (-1, 3 * eta), m) == mul(K, power(z, m))


def _r_holds(K: dict, w: int, R, eps: int = 1, eta: int = 1,
             omega: int = 1) -> bool:
    """P = a^-w R at a = A^(4 eta), z = eps (A^-2 - A^2) equals
    (-A^3)^-w <K>, with the writhe w read as omega w."""
    z = {e: eps * c for e, c in Z_R.items()}
    m = _clearing(R)
    w *= omega
    P = mul(specialize(R.terms, z, (1, 4 * eta), m), {-4 * eta * w: 1})
    return P == mul(mul(K, {-3 * w: (-1) ** (w % 2)}), power(z, m))


def _at_q(p, a_power: int, target: dict) -> bool:
    """p(z = q - q^-1, a = q^a_power) = target; negative z powers are
    cleared by z^m on both sides."""
    m = _clearing(p)
    return specialize(p.terms, Z_Q, (1, a_power), m) == mul(target, power(Z_Q, m))


def _closure_writhe(events) -> int:
    """The writhe of a braid closure: its strands all run one way."""
    return sum(ev[2] for ev in events if ev[0] == "x")


def test_engines_against_the_bracket():
    """D and R from both engines of each closure, and D at the SO(4)
    point."""
    tables: dict = {}
    cache = SkeinCache()
    for b, events, K in _corpus():
        d = braid_closure(b)
        w = _closure_writhe(events)
        so4_point = so4(K, components(events), w)
        for D in (bmw_D(b, tables), kauffman_D(d, cache)):
            assert _d_holds(K, D), b.text()
            assert _at_q(D, 3, so4_point), b.text()
        for R in (hecke_R(b, tables), homfly_R(d, cache)):
            assert _r_holds(K, w, R), b.text()


def test_front_morsifications_against_the_bracket():
    """Knots and links; the writhe comes from the reference walk of the
    tests, not from `diagram.scan`."""
    rng = random.Random(404)
    cache = SkeinCache()
    checked = 0
    while checked < 40:
        m = random_front(rng, max_crossings=5).morsify()
        if sum(ev[0] == "x" for ev in m.events) > 10:
            continue
        K = bracket(list(m.events))
        D = kauffman_D(m, cache)
        assert _d_holds(K, D), m.events
        w = reference_walk(m.events, dirs=m.dirs).writhe
        assert _r_holds(K, w, homfly_R(m, cache)), m.events
        assert _at_q(D, 3, so4(K, components(m.events), w)), m.events
        checked += 1


def test_spliced_states_against_the_bracket():
    cache = SkeinCache()
    states = 0
    for word in ("braid 2: 1 1 1", "braid 3: 1 -2 1 -2", "braid 3: 1 1 2 -1 2",
                 "braid 4: 1 -2 3 -2 1"):
        d = braid_closure(parse_braid(word))
        for st in nonzero_states(d.events, DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS):
            K = bracket(list(st.events))
            D = kauffman_D(st, cache)
            assert _d_holds(K, D), (word, st.choices)
            w = reference_walk(st.events, dirs=st.dirs).writhe
            assert _r_holds(K, w, homfly_R(st, cache)), (word, st.choices)
            assert _at_q(D, 3, so4(K, components(st.events), w)), (word, st.choices)
            states += 1
    assert states > 100


def _orientations(events):
    """Each orientation of the components of a closed event list, as
    (dirs, writhe) from the reference walk."""
    ref = reference_walk(events)
    comps = ref.components
    for mask in range(1 << len(comps)):
        flip = {c for k, c in enumerate(comps) if mask >> k & 1}
        dirs = tuple(-d if c in flip else d for d, c in zip(ref.dirs, ref.component_of))
        yield dirs, reference_walk(events, dirs=dirs).writhe


def test_so4_point_on_links_under_every_orientation():
    """R depends on the orientation and D does not: under each
    orientation of a link's components, R at a = q^2 is the oracle's J and
    D at the SO(4) point is q^-w J^2, with w that orientation's writhe."""
    tables: dict = {}
    cache = SkeinCache()
    orientations = 0
    for b, events, K in _corpus():
        r = components(events)
        if r == 1:
            continue
        D = bmw_D(b, tables)
        for dirs, w in _orientations(events):
            J = jones(K, r, w)
            assert _at_q(homfly_R(MorseDiagram(events, dirs), cache), 2, J), b.text()
            assert _at_q(D, 3, so4(K, r, w)), b.text()
            orientations += 1
    assert orientations == 360


@pytest.mark.parametrize("word, constants", [("braid 3: 1 -2 1 -2 2 2", (21, 9)),
                                              ("braid 4: 1 -2 3 -2 1 -3 2 2", (55, 19))])
def test_so4_point_fails_a_flipped_structure_constant(word, constants):
    """Flipping the sign of any one BMW structure constant that a product
    reads, one term or many, breaks the SO(4) identity of its closure."""
    b = parse_braid(word)
    events = closure(b.strands, b.letters)
    expected = so4(bracket(events), components(events), _closure_writhe(events))
    tables: dict = {}
    assert _at_q(bmw_D(b, tables), 3, expected)
    steps = tables["bmw_step"]
    assert (len(steps), sum(len(step) > 1 for step in steps.values())) == constants
    for key, step in list(steps.items()):
        steps[key] = tuple((br, dz, da, -k) for br, dz, da, k in step)
        # the kept head product and the traced steps read the constant too
        del tables["bmw_head"], tables["bmw_step_trace"]
        assert not _at_q(bmw_D(b, tables), 3, expected), key
        steps[key] = step


def test_so4_point_fails_a_flipped_smoothing_sign(monkeypatch):
    """`kauffman_D` and `bmw_D`, whose tangle recursion takes the same skein
    step, with its smoothing term of the wrong sign, (D(L_turn) - D(L_par))
    for (D(L_par) - D(L_turn)), each fail the SO(4) identity on the bracket
    corpus."""
    monkeypatch.setattr(skein, "_smooth_h_events", _smooth_v_events)
    monkeypatch.setattr(skein, "_smooth_v_events", _smooth_h_events)
    cache, tables = SkeinCache(), {}
    for engine in (lambda b: kauffman_D(braid_closure(b), cache),
                   lambda b: bmw_D(b, tables)):
        failed = [b.text() for b, events, K in _corpus()
                  if not _at_q(engine(b), 3,
                               so4(K, components(events), _closure_writhe(events)))]
        assert failed


def test_conventions_pinned():
    """Of the 4 sign conventions for D (the signs of z and of a's
    exponent) and the 8 for R (those and the writhe's sign), exactly one
    of each holds on a small seeded corpus: the one the oracle tests use."""
    rng = random.Random(31)
    corpus = [parse_braid("braid 2: 1 1 1")]
    while len(corpus) < 12:
        b = random_braid(rng, max_strands=4, max_letters=7)
        if len(b.letters) >= 4:
            corpus.append(b)
    signs = (1, -1)
    d_ok = {(eps, eta) for eps in signs for eta in signs}
    r_ok = {(eps, eta, omega) for eps in signs for eta in signs for omega in signs}
    cache = SkeinCache()
    for b in corpus:
        events = closure(b.strands, b.letters)
        K, w, d = bracket(events), _closure_writhe(events), braid_closure(b)
        D, R = kauffman_D(d, cache), homfly_R(d, cache)
        d_ok = {c for c in d_ok if _d_holds(K, D, *c)}
        r_ok = {c for c in r_ok if _r_holds(K, w, R, *c)}
    assert d_ok == {(1, 1)}
    assert r_ok == {(1, 1, 1)}


def _matches_burau(b: BraidWord, R) -> bool:
    """Delta(s^2) = Conway(s - s^-1) for the knot `b`, with Delta from its
    Burau matrix, known up to a unit +-s^k and so centred, and Conway from
    its R.  The value at s = 1 is Conway(0) = 1, which pins R's sign."""
    w = b.exponent_sum()
    nabla: dict = {}
    for k, c in conway({(ez, ea - w): c for (ez, ea), c in R.terms.items()}).items():
        assert k >= 0, "a knot's Conway polynomial has no negative z powers"
        nabla = add(nabla, {e: c * c2 for e, c2 in power(Z_D, k).items()})
    at_s2 = {2 * e: c for e, c in alexander(b.strands, b.letters).items()}
    return centred(at_s2) == nabla


def test_witness_alexander():
    b = parse_braid(WITNESS_BRAID)
    assert centred(alexander(b.strands, b.letters)) == WITNESS_ALEXANDER
    assert _matches_burau(b, hecke_R(b, {}))
    assert _matches_burau(b, homfly_R(braid_closure(b), SkeinCache()))


def test_search_knots_against_burau():
    """Every knot row of `search --max-strands 3 --max-letters 6`."""
    tables: dict = {}
    cache = SkeinCache()
    knots = [b for b in enumerate_braids(SearchConfig(max_strands=3, max_letters=6))
             if b.component_count() == 1]
    for b in knots:
        assert _matches_burau(b, hecke_R(b, tables)), b.text()
        assert _matches_burau(b, homfly_R(braid_closure(b), cache)), b.text()
    assert len(knots) == 2856


def test_five_strand_search_rows_against_the_oracles():
    """The algebra engines, which make every `search` row, on the knot rows
    of `search --max-strands 5 --max-letters 6 --dedup cyclic+inverse`."""
    tables: dict = {}
    knots = [b for b in enumerate_braids(SearchConfig(max_strands=5, max_letters=6,
                                                      dedup="cyclic+inverse"))
             if b.component_count() == 1]
    for b in knots:
        events = closure(b.strands, b.letters)
        K = bracket(events)
        R = hecke_R(b, tables)
        assert _d_holds(K, bmw_D(b, tables)), b.text()
        assert _r_holds(K, _closure_writhe(events), R), b.text()
        assert _matches_burau(b, R), b.text()
    assert len(knots) == 3568


# -- the so(N) operators ------------------------------------------------------


def _so_unit(N: int) -> dict:
    """The so(N) loop, a cup then a cap, as a polynomial in s."""
    return so_events(N, [("cup", 0), ("cap", 0)], {(): {0: 1}})[()]


@pytest.mark.parametrize("N", [3, 4])
def test_so_operators(N):
    """The braid relation, Ř Ř^-1 = 1 both ways and the cubic; and the
    conventions that make the oracle's value D at z = q - q^-1, a =
    q^(N-1): a curl is a, the loop is delta_D, and Ř - Ř^-1 = z (1 - e)."""
    def op(strands, events):
        return so_operator(N, strands, events)
    assert (op(3, [("x", 0, 1), ("x", 1, 1), ("x", 0, 1)])
            == op(3, [("x", 1, 1), ("x", 0, 1), ("x", 1, 1)]))
    pairs = [(a, b) for a in range(N) for b in range(N)]
    one = {(t, t): {0: 1} for t in pairs}
    assert op(2, [("x", 0, 1), ("x", 0, -1)]) == one
    assert op(2, [("x", 0, -1), ("x", 0, 1)]) == one
    for t in pairs:  # (Ř - q)(Ř + q^-1)(Ř - q^(1 - N)) e_t = 0
        x = {t: {0: 1}}
        for c in ({2 - 2 * N: -1}, {-2: 1}, {2: -1}):
            x = add_vectors(so_events(N, [("x", 0, 1)], x), scaled(x, c))
        assert x == {}, t
    z, a = {2: 1, -2: -1}, {2 * N - 2: 1}
    for events in ([("cup", 1), ("x", 0, 1), ("cap", 1)],
                   [("cup", 0), ("x", 1, 1), ("cap", 0)]):
        assert op(1, events) == {((c,), (c,)): a for c in range(N)}
    assert mul(_so_unit(N), z) == specialize(DELTA_D.terms, z, (1, 2 * N - 2), 1)
    e = op(2, [("cap", 0), ("cup", 0)])
    assert (add_vectors(op(2, [("x", 0, 1)]), scaled(op(2, [("x", 0, -1)]), {0: -1}))
            == scaled(add_vectors(one, scaled(e, {0: -1})), z))


def test_join_terms_are_so3_operator_identities():
    """Each R_b e_i and each R_b with its last strand closed that `_join`
    reads off the matching, up to 4 strands, as an operator identity at
    so(3): the tangle's operator is a^w delta_D^k times that of R_b''."""
    N = 3
    unit = _so_unit(N)
    basis_ops: dict = {}
    checked, curled = 0, 0
    for n in range(1, 5):
        for m in matchings(list(range(2 * n))):
            b = tuple(m[e] for e in range(2 * n))
            tangle = _basis_tangle(n, b)
            cases = [(n, tangle + (("cap", i), ("cup", i)), n + i, n + i + 1)
                     for i in range(n - 1)]
            cases.append((n - 1, (("cup", n - 1),) + tangle + (("cap", n - 1),),
                          n - 1, 2 * n - 1))
            for ends, events, u, v in cases:
                joined = _join(n, b, u, v)
                if joined is None:
                    continue
                b2, w, k = joined
                if ends < n:  # S_(n-1) and E_(n-1) leave the matching
                    b2 = tuple(e - (e >= n) for e in b2[:n - 1] + b2[n:-1])
                if b2 not in basis_ops:
                    basis_ops[b2] = so_operator(N, ends, _basis_tangle(ends, b2))
                scale = mul({(2 * N - 2) * w: 1}, power(unit, k))
                assert so_operator(N, ends, events) == scaled(basis_ops[b2], scale), \
                    (b, u, joined)
                checked += 1
                curled += w != 0
    assert (checked, curled) == (391, 156)  # 156 with a self-crossing
