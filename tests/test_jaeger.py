import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import knotpoly
from knotpoly.laurent import LaurentPoly, DeltaFraction, TAU, substitute_jaeger
from knotpoly.diagram import MorseDiagram, parse_braid, braid_closure, scan
from knotpoly.front import FrontWord, saucer_front, crossed_saucer_front
from knotpoly.skein import CACHE_ENV_VAR, SkeinCache, kauffman_D
from knotpoly.jaeger import (SpliceState, nonzero_states, jaeger_both_sides,
                             lj_both_sides, lemma_check, proof_chain_check,
                             DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS, FRONT_ALPHABET,
                             FRONT_WEIGHTS)
from knotpoly.selection import selection_sweep

from conftest import (A, INVALID_EVENTS, assert_scan_rejects, random_braid,
                      random_front, reference_flip, reference_splice,
                      reference_walk)

ONE = LaurentPoly.one()
INF_NEG = (("cup", 0), ("x", 0, -1), ("cap", 0))


def all_states(events, alphabet):
    """Every state, zero-weight ones included, by brute force.

    The reference for `nonzero_states`: all splice choices times all flips,
    each local sign looked up in the frozen table, and the splicing, the
    orientation and the cusp tallies taken from the tests' reference walk
    rather than from `diagram.scan`.
    """
    front = alphabet is FRONT_ALPHABET
    weights, labels = (FRONT_WEIGHTS, "hc") if front else (DIAGRAM_WEIGHTS, "hv")
    kinds = tuple(alphabet[:4])
    cups = sum(1 for ev in events if ev[0] == alphabet.birth)
    crossings = [ev for ev in events if ev[0] == alphabet.cross]
    for choices in itertools.product((0, 1, 2), repeat=len(crossings)):
        spliced, probes, skeleton = reference_splice(events, choices, kinds)
        keys = [(labels[c - 1],) if front else (ev[2], labels[c - 1])
                for ev, c in zip(crossings, choices) if c]
        v_count, h_count = choices.count(2), choices.count(1)
        for flips in itertools.product((False, True),
                                       repeat=len(skeleton.components)):
            oriented = reference_walk(spliced, kinds,
                                      reference_flip(skeleton, flips))
            dirs = oriented.dirs
            sign = 1
            for key, (_c, ta, tb) in zip(keys, probes):
                sign *= weights.get(key + ((dirs[ta], dirs[tb]),), 0)
            left_up = sum(1 for _i, lo, _hi in oriented.cup_events if dirs[lo] == -1)
            right_down = sum(1 for _i, lo, _hi in oriented.cap_events if dirs[lo] == -1)
            cups_sigma = len(oriented.cup_events)
            # structural state invariants
            assert cups == cups_sigma - v_count, "cusp count bookkeeping broke"
            assert cups_sigma - oriented.rotation == left_up + right_down, \
                "cusp-class / rotation relation broke"
            yield SpliceState(choices=choices, flips=flips,
                              v_count=v_count, h_count=h_count,
                              spliced_events=spliced, spliced_dirs=dirs,
                              cups=cups_sigma, left_up=left_up,
                              right_down=right_down, sign=sign)


def test_zero_crossing_unknot_states():
    unknot = braid_closure(parse_braid("braid 1:"))
    states = list(all_states(unknot.events, DIAGRAM_ALPHABET))
    assert len(states) == 2
    assert all(st.sign == 1 and st.v_count + st.h_count == 0 for st in states)
    assert {st.r_sigma for st in states} == {1, -1}


def test_one_curl_state_census():
    inf = MorseDiagram(INF_NEG)
    states = [st for st in all_states(inf.events, DIAGRAM_ALPHABET) if st.sign]
    # a diagram state weighs sign * tau^(V+H)
    census = sorted((st.choices[0], st.r_sigma,
                     (TAU ** (st.v_count + st.h_count) * st.sign).format(("t", "a")))
                    for st in states)
    assert census == [
        (0, 0, "1"), (0, 0, "1"),
        (1, -1, "t^-1 - t"),
        (2, -2, "-t^-1 + t"),
    ]
    total = len(list(all_states(inf.events, DIAGRAM_ALPHABET)))
    # 3 splices; unspliced and parallel-opened have 1 component, wall has 2
    assert total == 2 + 2 + 4


def test_states_match_brute_force():
    """nonzero_states is the reference's nonzero states, in order, field by field.

    150 closures and 100 fronts of at most five components (the reference
    visits 3^crossings * 2^components states per front).
    """
    rng = random.Random(309)
    cases = [(braid_closure(random_braid(rng, max_strands=4, max_letters=5)).events,
              DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS) for _ in range(150)]
    while len(cases) < 250:
        f = random_front(rng, max_crossings=4)
        if f.component_count() <= 5:
            cases.append((f.events, FRONT_ALPHABET, FRONT_WEIGHTS))
    counts = {DIAGRAM_ALPHABET: 0, FRONT_ALPHABET: 0}
    for events, alphabet, weights in cases:
        want = [st for st in all_states(events, alphabet) if st.sign]
        got = list(nonzero_states(events, alphabet, weights))
        assert got == want, events
        counts[alphabet] += len(got)
    assert all(counts.values())


def test_jaeger_identity_examples(cache):
    unknot = braid_closure(parse_braid("braid 1:"))
    cert = jaeger_both_sides(unknot, cache)
    expect = DeltaFraction(TAU + LaurentPoly({(-1, 2): 1})
                           - LaurentPoly({(1, -2): 1}), 1)
    assert cert.equal and cert.lhs == expect and cert.rhs == expect

    inf = MorseDiagram(INF_NEG)
    cert = jaeger_both_sides(inf, cache)
    assert cert.equal
    assert cert.lhs == expect * LaurentPoly.monomial(1, -1, 2)


def test_jaeger_identity_trefoil(cache, paper_trefoil):
    assert jaeger_both_sides(paper_trefoil, cache).equal


def test_jaeger_identity_random_closures(cache):
    rng = random.Random(301)
    for _ in range(25):
        b = random_braid(rng, max_strands=4, max_letters=5)
        assert jaeger_both_sides(braid_closure(b), cache).equal, b.text()


def test_lj_example_one(cache):
    cert = lj_both_sides(saucer_front(), cache)
    assert cert.equal
    assert len(cert.contributions) == 2
    aa1 = A * A - ONE
    terms = {cert.contributions[0][2], cert.contributions[1][2]}
    assert terms == {
        DeltaFraction(aa1, 1),
        DeltaFraction(aa1 * LaurentPoly.monomial(1, -2, 2), 1),
    }


def test_lj_example_two_term_by_term(cache):
    cert = lj_both_sides(crossed_saucer_front(), cache)
    assert cert.equal
    assert len(cert.contributions) == 4
    aa1 = A * A - ONE
    a3a = A ** 3 - A
    term_unspliced = DeltaFraction(a3a * LaurentPoly.monomial(1, -1, 1), 1)
    term_h = DeltaFraction(-TAU * aa1 * LaurentPoly.monomial(1, -2, 2), 1)
    term_cusp = DeltaFraction(TAU * aa1 * aa1 * LaurentPoly.monomial(1, -3, 2), 2)
    got = [c[2] for c in cert.contributions]
    for expected, times in ((term_unspliced, 2), (term_h, 1), (term_cusp, 1)):
        assert sum(1 for g in got if g == expected) == times


def test_lj_zero_crossing_front_reduces_to_orientation_sum(cache):
    f = FrontWord([("L", 0), ("L", 1), ("R", 1), ("R", 0)])
    cert = lj_both_sides(f, cache)
    assert cert.equal
    assert len(cert.contributions) == 4  # two components, four orientations


def test_lj_random_fronts(cache):
    rng = random.Random(303)
    for _ in range(30):
        f = random_front(rng, max_crossings=4)
        assert lj_both_sides(f, cache).equal, f.events


def test_lemma_examples(cache):
    degrees = sorted(r.min_a_degree for r in lemma_check(saucer_front(), cache))
    assert degrees == [0, 2]

    rows = lemma_check(crossed_saucer_front(), cache)
    assert all(r.nonnegative and r.respects_bound for r in rows)
    cusp_rows = [r for r in rows if r.choices == (2,)]
    assert len(cusp_rows) == 1
    # the printed cusp-pair term is a^2 t^-3 (a^2-1)^2 / tau: least a-degree 2,
    # tight against the proof bound
    assert cusp_rows[0].min_a_degree == 2 and cusp_rows[0].bound == 2


def test_lemma_random_fronts(cache):
    rng = random.Random(304)
    for _ in range(40):
        f = random_front(rng, max_crossings=4)
        for row in lemma_check(f, cache):
            assert row.nonnegative, (f.events, row)
            assert row.respects_bound, (f.events, row)


def test_v_count_bounded_by_left_up(cache):
    rng = random.Random(305)
    for _ in range(40):
        f = random_front(rng, max_crossings=4)
        for st in nonzero_states(f.events, FRONT_ALPHABET, FRONT_WEIGHTS):
            assert st.v_count <= st.left_up, (f.events, st.choices, st.flips)


def test_proof_chain_relations(cache):
    rng = random.Random(306)
    fronts = [saucer_front(), crossed_saucer_front()]
    fronts += [random_front(rng, max_crossings=3) for _ in range(25)]
    for f in fronts:
        pc = proof_chain_check(f, cache)
        assert pc["weight_ok"] and pc["nu_ok"] and pc["rot_ok"], f.events
        assert pc["r_factor_ok"] and pc["master_ok"], f.events


def test_rhs_summation_order_invariant(cache):
    """The state sum is a commutative reduction; order must not matter."""
    f = crossed_saucer_front()
    cert = lj_both_sides(f, cache)
    rng = random.Random(307)
    terms = [c[2] for c in cert.contributions]
    for _ in range(5):
        rng.shuffle(terms)
        total = DeltaFraction.zero()
        for t in terms:
            total = total + t
        assert total == cert.rhs


def test_selection_sweep_unique_and_frozen(cache):
    diagrams = [
        MorseDiagram(INF_NEG),
        MorseDiagram([("cup", 0), ("x", 0, 1), ("cap", 0)]),
        braid_closure(parse_braid("braid 2: 1 1")),
        braid_closure(parse_braid("braid 2: -1 -1")),
        MorseDiagram([("cup", 0), ("x", 0, -1), ("x", 0, -1), ("cap", 0)]),
        MorseDiagram([("cup", 0), ("x", 0, 1), ("x", 0, 1), ("cap", 0)]),
    ]
    fronts = [saucer_front(), crossed_saucer_front(),
              FrontWord([("L", 0), ("X", 0), ("X", 0), ("R", 0)]),
              FrontWord([("L", 0), ("L", 1), ("X", 1), ("R", 1), ("R", 0)])]
    rep = selection_sweep(diagrams, fronts, cache)
    assert rep["diagram_unique"] and rep["diagram_matches_frozen"]
    assert rep["front_unique"] and rep["front_matches_frozen"]


def test_frozen_tables_shape():
    assert len(DIAGRAM_WEIGHTS) == 4
    assert set(v for v in DIAGRAM_WEIGHTS.values()) == {1, -1}
    assert len(FRONT_WEIGHTS) == 2


# sha256 of the certificates' JSON (terms of every state included) over the
# corpora below, recorded before the state-sum kernel was rewritten
DIAGRAM_CERTS_SHA256 = "22ec4c0737b1674025faab95ef493aee053455c9fc2352d34cfadf7cc2c1ec4b"
FRONT_CERTS_SHA256 = "b6c1918678c625ec66a1e9261af4d372b547ffe3f69dd6ca42693f3758896ccc"


def golden_closures():
    rng = random.Random(3030)
    return [braid_closure(random_braid(rng, max_strands=4, max_letters=6))
            for _ in range(40)]


def golden_fronts():
    """Twelve seeded fronts, then the stream's first 6- and 7-component ones."""
    rng = random.Random(3030)
    fronts = [random_front(rng, max_crossings=4) for _ in range(12)]
    wanted = {6, 7}
    while wanted:
        f = random_front(rng, max_crossings=4)
        if f.component_count() in wanted:
            wanted.discard(f.component_count())
            fronts.append(f)
    return fronts


def certs_sha256(certs) -> str:
    data = json.dumps([c.to_json() for c in certs], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def test_certificates_golden():
    cache = SkeinCache()
    dcerts = [jaeger_both_sides(d, cache) for d in golden_closures()]
    fcerts = [lj_both_sides(f, cache) for f in golden_fronts()]
    assert all(c.equal for c in dcerts + fcerts)
    assert certs_sha256(dcerts) == DIAGRAM_CERTS_SHA256
    assert certs_sha256(fcerts) == FRONT_CERTS_SHA256


def test_splice_scan_matches_morse_diagram_and_front_word():
    """scan() with splice choices against MorseDiagram and
    FrontWord(...).rounded() of the spliced events."""
    rng = random.Random(308)
    cases = []
    for _ in range(150):
        d = braid_closure(random_braid(rng, max_strands=4, max_letters=6))
        cases.append((d.events, len(d.cross_info), DIAGRAM_ALPHABET))
        f = random_front(rng, max_crossings=5)
        cases.append((f.events, f.crossing_count(), FRONT_ALPHABET))
    for events, nx, alphabet in cases:
        choices = tuple(rng.randint(0, 2) for _ in range(nx))
        sp = scan(events, alphabet, choices=choices)
        if alphabet is DIAGRAM_ALPHABET:
            ref = MorseDiagram(sp.events)
        else:
            ref = FrontWord(sp.events).rounded()
        assert sp.dirs == ref.dirs
        assert tuple(sp.component_of) == ref.component_of
        assert tuple(sp.components) == ref.components
        assert tuple(sp.cup_lows) == ref.cup_lows
        assert tuple(sp.cap_lows) == ref.cap_lows
        assert [c[:3] for c in sp.crossings] == [c[:3] for c in ref.cross_info]
        assert len(sp.probes) == sum(1 for c in choices if c)
        # per-component rotation tallies, as the diagram states read them
        for c in ref.components:
            assert (sum(sp.dirs[t] for t in list(sp.cup_lows) + sp.cap_lows
                        if sp.component_of[t] == c)
                    == sum(ref.dirs[t] for t in ref.cup_lows + ref.cap_lows
                           if ref.component_of[t] == c))


def test_splice_scan_matches_reference_walk():
    """scan() with splice choices, and with given dirs, against the reference."""
    rng = random.Random(308)
    cases = []
    for _ in range(150):
        d = braid_closure(random_braid(rng, max_strands=4, max_letters=6))
        cases.append((d.events, len(d.cross_info), DIAGRAM_ALPHABET))
        f = random_front(rng, max_crossings=5)
        cases.append((f.events, f.crossing_count(), FRONT_ALPHABET))
    for events, nx, alphabet in cases:
        choices = tuple(rng.randint(0, 2) for _ in range(nx))
        sp = scan(events, alphabet, choices=choices)
        spliced, probes, ref = reference_splice(events, choices, alphabet[:4])
        flips = [rng.random() < 0.5 for _ in ref.components]
        oriented = reference_walk(spliced, alphabet[:4], reference_flip(ref, flips))
        for got, want in ((sp, ref),
                          (scan(spliced, alphabet, oriented.dirs), oriented)):
            assert got.events == want.events
            assert got.dirs == want.dirs
            assert tuple(got.component_of) == want.component_of
            assert tuple(got.components) == want.components
            assert list(got.cup_lows) == [lo for _i, lo, _hi in want.cup_events]
            assert got.cap_lows == [lo for _i, lo, _hi in want.cap_events]
            assert all(got.cap_mate[t] == m for t, m in want.cap_pair.items())
            assert tuple(got.crossings) == want.cross_info
            assert [[got.crossings[cn][0] for cn in p] for p in got.passes] == \
                [[ev_idx for ev_idx, _lower in want.thread_passes[t]]
                 for t in range(len(got.dirs))]
        assert sp.probes == probes


@pytest.mark.parametrize("events", INVALID_EVENTS + (
    [("cup", 1), ("cap", 0)],                 # levels one past the end
    [("cup", 0), ("cap", 1)],
    [("cup", 0), ("x", 1, 1), ("cap", 0)],
    [("cup", 0), ("X", 0), ("cap", 0)],       # a front event in a diagram
))
def test_splice_scan_rejects_invalid_events(events):
    assert_scan_rejects(events, DIAGRAM_ALPHABET)


@pytest.mark.parametrize("events", (
    [("L", 0)],                               # not closed
    [("R", 0)],                               # nothing to close
    [("L", 3)],                               # level out of range
    [("L", 1), ("R", 0)],                     # levels one past the end
    [("L", 0), ("R", 1)],
    [("L", 0), ("X", 1), ("R", 0)],
    [("L", 0), ("cap", 0)],                   # a diagram event in a front
))
def test_splice_scan_rejects_invalid_fronts(events):
    assert_scan_rejects(events, FRONT_ALPHABET)


def test_selection_report_matches_committed_file():
    """`python -m knotpoly.selection` reproduces docs/jaeger-table-selection.json.

    Anything on stderr fails the test, warnings included.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(knotpoly.__file__)))
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-m", "knotpoly.selection"], env=env,
                          capture_output=True, timeout=600)
    assert proc.stderr == b""
    assert proc.returncode == 0
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "jaeger-table-selection.json")
    with open(path, "rb") as fh:
        assert proc.stdout == fh.read()
