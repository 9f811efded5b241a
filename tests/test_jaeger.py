import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import knotpoly
from knotpoly.laurent import LaurentPoly, DeltaFraction, TAU, substitute_jaeger
from knotpoly.diagram import (DIAGRAM_KINDS, DiagramError, MorseDiagram,
                              parse_braid, braid_closure, reduce_diagram, scan)
from knotpoly.front import (FrontWord, classical_invariants, diagram_events_of,
                            saucer_front, crossed_saucer_front)
from knotpoly.cli import CACHE_ENV_VAR
from knotpoly.skein import Oriented, SkeinCache, homfly_R, kauffman_D
from knotpoly.jaeger import (SpliceState, nonzero_states, jaeger_both_sides,
                             lj_both_sides, lemma_check, proof_chain_check,
                             DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS, FRONT_ALPHABET,
                             FRONT_WEIGHTS)
from knotpoly.selection import (_candidate_diagram_tables,
                                _candidate_front_tables, selection_sweep)

from conftest import (A, INVALID_EVENTS, assert_scan_rejects, random_braid,
                      random_front, random_surgered_closure, reference_flip,
                      reference_splice, reference_walk)

ONE = LaurentPoly.one()
PROOF_FLAGS = ("weight_ok", "nu_ok", "rot_ok", "r_factor_ok", "master_ok")
INF_NEG = (("cup", 0), ("x", 0, -1), ("cap", 0))


def all_states(events, alphabet, weights=None):
    """Every state, zero-weight ones included, by brute force.

    The reference for `nonzero_states`: all splice choices times all flips,
    each local sign looked up in `weights` (the frozen table by default),
    and the splicing, the orientation and the cusp tallies taken from the
    tests' reference walk rather than from `diagram.scan`.
    """
    front = alphabet is FRONT_ALPHABET
    frozen, labels = (FRONT_WEIGHTS, "hc") if front else (DIAGRAM_WEIGHTS, "hv")
    weights = frozen if weights is None else weights
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
                              events=spliced, dirs=dirs, left_up=left_up,
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
    census = sorted(((st.choices[0], st.r_sigma,
                      TAU ** (st.v_count + st.h_count) * st.sign)
                     for st in states), key=lambda row: row[:2])
    assert census == [
        (0, 0, ONE), (0, 0, ONE),
        (1, -1, -TAU),   # t^-1 - t
        (2, -2, TAU),    # -t^-1 + t
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


def test_states_match_brute_force_on_candidate_tables():
    """As above, under the candidate weight tables of `selection`.

    A seeded sample of 64 of the 1,024 candidate diagram tables, each on
    two seeded closures, and all 16 candidate front tables, each on three
    seeded fronts of at most five components.  The tables pin other
    patterns than the frozen ones, so other splice choices are pruned.
    """
    rng = random.Random(1616)
    cases = []
    for table in rng.sample(list(_candidate_diagram_tables()), 64):
        for _ in range(2):
            d = braid_closure(random_braid(rng, max_strands=4, max_letters=5))
            cases.append((d.events, DIAGRAM_ALPHABET, table))
    for table in _candidate_front_tables():
        fronts = 0
        while fronts < 3:
            f = random_front(rng, max_crossings=4)
            if f.component_count() <= 5:
                cases.append((f.events, FRONT_ALPHABET, table))
                fronts += 1
    states = 0
    for events, alphabet, table in cases:
        want = [st for st in all_states(events, alphabet, table) if st.sign]
        got = list(nonzero_states(events, alphabet, table))
        assert got == want, (events, table)
        states += len(got)
    assert states > len(cases)


def test_every_splice_scan_yields_a_state(monkeypatch):
    """`nonzero_states` scans only the splice choices that carry a state.

    On 150 seeded closures and 100 seeded fronts, the calls to `scan` in
    `jaeger` number the distinct splice choices of the yielded states: no
    choice is spliced and then dropped.
    """
    import knotpoly.jaeger as jaeger
    scans = []

    def counted(events, *args, **kw):
        scans.append(events)
        return scan(events, *args, **kw)
    monkeypatch.setattr(jaeger, "scan", counted)
    rng = random.Random(1617)
    cases = [(braid_closure(random_braid(rng, max_strands=5, max_letters=6)).events,
              DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS) for _ in range(150)]
    cases += [(random_front(rng, max_crossings=5).events,
               FRONT_ALPHABET, FRONT_WEIGHTS) for _ in range(100)]
    total = 0
    for events, alphabet, weights in cases:
        scans.clear()
        choices = {st.choices for st in nonzero_states(events, alphabet, weights)}
        assert len(scans) == len(choices), events
        total += len(scans)
    assert total > len(cases)


def test_pin_rejecting_a_survivor_is_an_invariant_failure(monkeypatch):
    """A full splice choice that the parity forest keeps cannot fail
    `_pin`; if it does, the enumerator raises rather than skip it."""
    import knotpoly.jaeger as jaeger
    monkeypatch.setattr(jaeger, "_pin", lambda sp, patterns: None)
    d = braid_closure(parse_braid("braid 2: 1 1 1"))
    with pytest.raises(AssertionError):
        next(nonzero_states(d.events, DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS))


def test_diagram_states_are_closed_diagrams():
    """A diagram state is an oriented closed diagram as it stands.

    On 120 seeded closures, every state's dirs orient its events, its
    r_sigma is that diagram's rotation, and R of the state equals R of the
    `MorseDiagram` rebuilt from it, each on its own cache.
    """
    rng = random.Random(1010)
    c1, c2 = SkeinCache(), SkeinCache()
    states = 0
    for _ in range(120):
        d = braid_closure(random_braid(rng, max_strands=4, max_letters=5))
        for st in nonzero_states(d.events, DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS):
            rebuilt = MorseDiagram(st.events, st.dirs)
            assert rebuilt.rotation == st.r_sigma, st
            assert homfly_R(st, c1) == homfly_R(rebuilt, c2), st
            states += 1
    assert states > 1000


def test_empty_table_yields_every_orientation():
    """Under an empty weight table only the unspliced choice survives, and
    its states are every orientation: 2^components of them, by flips in
    product order, each a valid orientation of the object with its
    rotation and cusp tallies."""
    rng = random.Random(1019)
    for _ in range(150):
        d = MorseDiagram(random_surgered_closure(rng).events)
        states = list(nonzero_states(d.events, DIAGRAM_ALPHABET, {}))
        assert [st.flips for st in states] == list(
            itertools.product((False, True), repeat=len(d.components)))
        for st in states:
            assert st.choices == (0,) * len(d.cross_info) and st.sign == 1
            assert st.dirs == reference_flip(d, st.flips)
            assert MorseDiagram(st.events, st.dirs).rotation == st.r_sigma
    for _ in range(150):
        f = random_front(rng)
        states = list(nonzero_states(f.events, FRONT_ALPHABET, {}))
        assert [st.flips for st in states] == list(
            itertools.product((False, True), repeat=f.component_count()))
        for st in states:
            assert FrontWord(st.events, st.dirs).rounded().rotation == st.r_sigma
        plain, flipped = states[0], states[-1]
        reversed_f = FrontWord(f.events, tuple(-x for x in f.dirs))
        assert (plain.dirs, flipped.dirs) == (f.dirs, reversed_f.dirs)
        assert plain.left_up - plain.right_down == classical_invariants(f).maslov
        # reversal swaps left-up with left-down, right-down with right-up
        half = f.cusp_count() // 2
        assert (flipped.left_up, flipped.right_down) == (
            half - plain.left_up, half - plain.right_down)


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


def reference_proof_chain_check(f, cache):
    """`proof_chain_check` with a `MorseDiagram` built per state.

    The reference for the checks' one scan per splice choice: each state's
    K_sigma is validated, oriented and measured by its own build from the
    rounded events and the state's dirs, and R(l_sigma) and D of the
    morsified front are evaluated here, not read from the state table.
    """
    nu = f.cusp_count() // 2
    out = {"states": 0, "weight_ok": True, "nu_ok": True, "rot_ok": True,
           "r_factor_ok": True, "master_ok": None}
    for st in nonzero_states(f.events, FRONT_ALPHABET, FRONT_WEIGHTS):
        out["states"] += 1
        ksig = MorseDiagram(diagram_events_of(st.events), st.dirs)
        nu_sig = len(ksig.cup_lows)
        if nu != nu_sig - st.v_count:
            out["nu_ok"] = False
        if nu_sig - ksig.rotation != st.left_up + st.right_down:
            out["rot_ok"] = False
        if st.sign != (-1) ** st.h_count:
            out["weight_ok"] = False
        r_l = homfly_R(FrontWord(st.events, st.dirs).morsify(), cache)
        if homfly_R(ksig, cache) != r_l.shift(0, -nu_sig):
            out["r_factor_ok"] = False
    lhs = substitute_jaeger(kauffman_D(f.morsify(), cache), "kauffman_lhs")
    d_k = substitute_jaeger(kauffman_D(f.rounded(), cache), "kauffman_lhs")
    pre = LaurentPoly.monomial(1, -nu, 2 * nu)  # (a^2 t^-1)^nu
    out["master_ok"] = lhs == d_k.scaled(pre, 0)
    return out


def test_proof_chain_matches_the_per_state_build():
    """On 100 seeded fronts and the 6- and 7-component ones of
    `shared_table_fronts`, `proof_chain_check` gives the reference's dict,
    on a fresh cache and on one shared cache."""
    rng = random.Random(2121)
    fronts = [random_front(rng, max_crossings=4) for _ in range(100)]
    fronts += shared_table_fronts()[-2:]
    assert {6, 7} <= {f.component_count() for f in fronts}
    shared = SkeinCache()
    for f in fronts:
        want = reference_proof_chain_check(f, SkeinCache())
        assert want["states"] > 0 and all(want[k] for k in want), f.events
        assert proof_chain_check(f, SkeinCache()) == want, f.events
        assert proof_chain_check(f, shared) == want, f.events


def test_proof_chain_refuses_a_state_off_its_k_sigma():
    """A state table in which one state has one thread's dir flipped, or a
    dir missing, is a `DiagramError`: each state's dirs must orient its
    K_sigma.  The fronts include the saucers, whose K_sigma reduce to
    circles that the engine's memo never scans."""
    rng = random.Random(2222)
    fronts = [saucer_front(), crossed_saucer_front()]
    fronts += [random_front(rng, max_crossings=3) for _ in range(15)]
    import knotpoly.jaeger as jaeger
    tampered = 0
    for f in fronts:
        cache = SkeinCache()
        table = jaeger._front_states(f, cache, FRONT_WEIGHTS)
        assert all(proof_chain_check(f, cache)[k] for k in PROOF_FLAGS)
        picks = rng.sample(range(len(table.states)), min(3, len(table.states)))
        for i in picks:
            st = table.states[i]
            t = rng.randrange(len(st.dirs))
            flipped = st.dirs[:t] + (-st.dirs[t],) + st.dirs[t + 1:]
            for dirs, match in ((flipped, "inconsistent orientation"),
                                (st.dirs[:-1], "wrong shape")):
                table.states[i] = replace(st, dirs=dirs)
                with pytest.raises(DiagramError, match=match):
                    proof_chain_check(f, cache)
                tampered += 1
            table.states[i] = st
        assert cache.tables["front_states"] is table
        assert all(proof_chain_check(f, cache)[k] for k in PROOF_FLAGS)
    assert tampered >= 2 * len(fronts)


def test_proof_chain_flags_each_fail_on_their_own_tamper():
    """Each proof-chain flag turns False when the cached front state table
    is tampered where that flag reads it, and the other four stay True:
    one state's V or #left-up one larger, its sign flipped, its R(l_sigma)
    doubled, or the front's D replaced."""
    rng = random.Random(2929)
    fronts = [crossed_saucer_front()]
    fronts += [random_front(rng, max_crossings=3) for _ in range(10)]
    import knotpoly.jaeger as jaeger
    for f in fronts:
        cache = SkeinCache()
        table = jaeger._front_states(f, cache, FRONT_WEIGHTS)
        i = rng.randrange(len(table.states))
        st = table.states[i]

        def with_state(**changes):
            states = list(table.states)
            states[i] = replace(st, **changes)
            return table._replace(states=states)
        r_values = list(table.r_values)
        r_values[i] = r_values[i] * 2
        tampered = {"nu_ok": with_state(v_count=st.v_count + 1),
                    "rot_ok": with_state(left_up=st.left_up + 1),
                    "weight_ok": with_state(sign=-st.sign),
                    "r_factor_ok": table._replace(r_values=r_values),
                    "master_ok": table._replace(lhs=table.lhs.scaled(A, 0))}
        for flag, bad in tampered.items():
            cache.tables["front_states"] = bad
            out = proof_chain_check(f, cache)
            assert {k for k in PROOF_FLAGS if not out[k]} == {flag}, flag
        cache.tables["front_states"] = table
        assert all(proof_chain_check(f, cache)[k] for k in PROOF_FLAGS)


def test_front_states_reach_the_engine_as_they_are(monkeypatch):
    """The front sums hand `homfly_R` each state with its events morsified,
    and `proof_chain_check` each state's K_sigma with its events rounded.

    On 50 seeded fronts, each check on a fresh cache hands over, once per
    state, a `SpliceState` with the events and dirs of
    `FrontWord(st.events, st.dirs).morsify()`, and builds no `FrontWord`;
    `lj_both_sides` and `lemma_check` build one `MorseDiagram` (the front's
    morsification), `proof_chain_check` two (the front's morsification and
    rounding).  `proof_chain_check` also scans one K_sigma per splice
    choice, the rounding of the choice's events, and hands over once per
    state an `Oriented` with the events and dirs of
    `FrontWord(st.events, st.dirs).rounded()`.  On one shared cache the
    three checks together hand each state over exactly once.
    """
    import knotpoly.jaeger as jaeger
    rng = random.Random(1111)
    fronts = [random_front(rng, max_crossings=3) for _ in range(50)]
    per_front = [list(nonzero_states(f.events, FRONT_ALPHABET, FRONT_WEIGHTS))
                 for f in fronts]
    morsified = [[FrontWord(st.events, st.dirs).morsify() for st in states]
                 for states in per_front]
    rounded = [[FrontWord(st.events, st.dirs).rounded() for st in states]
               for states in per_front]
    builds = {}
    for cls in (MorseDiagram, FrontWord):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            builds[_name] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counted)
    k_scans = []

    def counted_scan(events, alphabet, *args, **kw):
        if alphabet[:4] == DIAGRAM_KINDS:
            k_scans.append(tuple(events))
        return scan(events, alphabet, *args, **kw)
    monkeypatch.setattr(jaeger, "scan", counted_scan)
    handed = []

    def recorded(d, *args, **kw):
        handed.append(d)
        return homfly_R(d, *args, **kw)
    monkeypatch.setattr(jaeger, "homfly_R", recorded)

    def assert_handed_once(states, want, what):
        got = [d for d in handed if type(d) is SpliceState]
        assert len(got) == len(states), what
        for d, st, m in zip(got, states, want):
            assert (d.choices, d.flips) == (st.choices, st.flips), what
            assert (d.events, d.dirs) == (m.events, m.dirs), what

    def assert_k_sigmas(states, want, what):
        """One scan per splice choice and one hand-over per state."""
        per_choice = [next(group)[1].events for _c, group in itertools.groupby(
            zip((st.choices for st in states), want), key=lambda p: p[0])]
        assert k_scans == per_choice, what
        assert len(k_scans) == len({st.choices for st in states}), what
        got = [d for d in handed if type(d) is Oriented]
        assert len(got) == len(states), what
        for d, m in zip(got, want):
            assert (d.events, d.dirs) == (m.events, m.dirs), what

    checks = (lj_both_sides, proof_chain_check, lemma_check)
    shared = SkeinCache()
    last = None
    for f, states, want, k_want in zip(fronts, per_front, morsified, rounded):
        for check in checks:
            builds.update(MorseDiagram=0, FrontWord=0)
            handed.clear()
            k_scans.clear()
            check(f, SkeinCache())
            what = (check.__name__, f.events)
            assert builds["FrontWord"] == 0, what
            rounding = 1 if check is proof_chain_check else 0
            assert builds["MorseDiagram"] == 1 + rounding, what
            assert_handed_once(states, want, what)
            if rounding:
                assert_k_sigmas(states, k_want, what)
            else:
                assert_k_sigmas([], [], what)
        builds.update(MorseDiagram=0, FrontWord=0)
        handed.clear()
        k_scans.clear()
        for check in checks:
            check(f, shared)
        assert_k_sigmas(states, k_want, ("shared", f.events))
        if f.events == last:  # the table of the front before serves
            assert_handed_once([], [], ("shared", f.events))
            continue
        last = f.events
        assert builds == {"MorseDiagram": 2, "FrontWord": 0}
        assert_handed_once(states, want, ("shared", f.events))


def test_front_sums_reduce_once_per_spliced_event_list(monkeypatch):
    """On a warm memo, the front sums reduce each run of engine entries on
    one event list once: once per spliced event list, not once per state,
    in `lj_both_sides`, and twice in `proof_chain_check` (l_sigma, then
    K_sigma), plus the front's own D.  R's image under the substitution is
    computed once per distinct R."""
    import knotpoly.jaeger as jaeger
    import knotpoly.skein as skein
    rng = random.Random(1515)
    fronts = [f for f in (random_front(rng, max_crossings=3) for _ in range(80))
              if f.component_count() >= 2][:8]
    reductions, entries, images = [], [], []

    def counted_reduce(events, dirs=None):
        reductions.append(tuple(events))
        return reduce_diagram(events, dirs)
    monkeypatch.setattr(skein, "reduce_diagram", counted_reduce)
    for name in ("homfly_R", "kauffman_D"):
        def entry(d, *args, _engine=getattr(jaeger, name), **kw):
            entries.append(tuple(d.events))
            return _engine(d, *args, **kw)
        monkeypatch.setattr(jaeger, name, entry)

    def counted_substitute(p, side):
        images.append((p, side))
        return substitute_jaeger(p, side)
    monkeypatch.setattr(jaeger, "substitute_jaeger", counted_substitute)
    states = choices = runs = 0
    for f in fronts:
        front_states = list(nonzero_states(f.events, FRONT_ALPHABET,
                                           FRONT_WEIGHTS))
        n_choices = len({st.choices for st in front_states})
        warm = SkeinCache()
        lj_both_sides(f, warm)
        proof_chain_check(f, warm)
        for check, per_choice, own_d in ((lj_both_sides, 1, 1),
                                         (proof_chain_check, 2, 2)):
            memo = SkeinCache()
            memo.mem.update(warm.mem)
            for seen in (reductions, entries, images):
                seen.clear()
            check(f, memo)
            assert reductions == [k for k, _run in itertools.groupby(entries)]
            assert len(reductions) <= per_choice * n_choices + own_d, f.events
            rhs = [p for p, side in images if side == "homfly_rhs"]
            assert len(rhs) == len(set(rhs)), f.events
            runs += len(reductions)
        states += len(front_states)
        choices += n_choices
    assert states > choices  # several orientations per splice choice
    assert runs < states  # the two checks evaluate R on 3 * states entries


def shared_table_fronts():
    """60 seeded fronts, then the first 6- and 7-component fronts of the
    benchmark pool's shape (up to six crossings)."""
    rng = random.Random(1821)
    fronts = [random_front(rng, max_crossings=3) for _ in range(60)]
    wanted = {6, 7}
    while wanted:
        f = random_front(rng, max_crossings=6)
        if f.component_count() in wanted:
            wanted.discard(f.component_count())
            fronts.append(f)
    return fronts


def sharing_memo(warm: SkeinCache) -> SkeinCache:
    """A fresh cache whose memo is `warm`'s: its other stores start empty."""
    cache = SkeinCache()
    cache.mem = warm.mem
    return cache


def front_check_output(check, f, cache, weights=None):
    if check is lj_both_sides:
        return check(f, cache, weights).to_json()
    return check(f, cache)


def test_front_checks_on_a_shared_cache_match_fresh_ones():
    """The three front checks read one state table per front and cache; in
    every order, on one cache across all fronts, each result equals the
    same check's on a fresh cache (the memo is prewarmed in both)."""
    fronts = shared_table_fronts()
    assert {6, 7} <= {f.component_count() for f in fronts}
    checks = (lj_both_sides, proof_chain_check, lemma_check)
    warm = SkeinCache()
    fresh = [{check: front_check_output(check, f, sharing_memo(warm))
              for check in checks} for f in fronts]
    for order in itertools.permutations(checks):
        shared = sharing_memo(warm)
        for f, want in zip(fronts, fresh):
            for check in order:
                got = front_check_output(check, f, shared)
                assert got == want[check], (check.__name__, f.events)


def test_front_states_are_enumerated_once_per_front_and_table(monkeypatch):
    """On a shared cache a front's splice choices are scanned once per
    (front, weight table), and each l_sigma reaches `homfly_R` once.

    Only the front-alphabet scans are counted: `proof_chain_check` scans
    each choice's K_sigma, a diagram, once per call
    (`test_front_states_reach_the_engine_as_they_are`)."""
    import knotpoly.jaeger as jaeger
    scans, handed = [], []

    def counted_scan(events, alphabet, *args, **kw):
        if alphabet == FRONT_ALPHABET:
            scans.append(kw.get("choices"))
        return scan(events, alphabet, *args, **kw)
    monkeypatch.setattr(jaeger, "scan", counted_scan)

    def recorded(d, *args, **kw):
        if type(d) is SpliceState:
            handed.append((d.events, d.dirs))
        return homfly_R(d, *args, **kw)
    monkeypatch.setattr(jaeger, "homfly_R", recorded)

    def one_pass(f, table):
        """(scans, l_sigmas) of one enumeration of the front's states."""
        scans.clear()
        l_sigmas = [(FrontWord(st.events, st.dirs).morsify().events, st.dirs)
                    for st in nonzero_states(f.events, FRONT_ALPHABET, table)]
        return list(scans), l_sigmas

    def run(*calls):
        scans.clear()
        handed.clear()
        for call in calls:
            call()
        return list(scans), list(handed)
    rng = random.Random(1919)
    fronts = {}
    for _ in range(30):
        f = random_front(rng, max_crossings=4)
        fronts[f.events] = f
    other = next(t for t in _candidate_front_tables() if t != FRONT_WEIGHTS)
    shared = SkeinCache()
    spliced = 0
    for f in fronts.values():
        frozen, candidate = one_pass(f, FRONT_WEIGHTS), one_pass(f, other)
        three = [functools.partial(check, f, shared) for check in
                 (lj_both_sides, lemma_check, proof_chain_check)]
        assert run(*three) == frozen, f.events
        assert run(*reversed(three)) == ([], []), f.events
        assert run(lambda: lj_both_sides(f, shared, other)) == candidate, f.events
        assert run(*three[1:]) == frozen, f.events
        spliced += len(frozen[0]) - 1
    assert spliced > len(fronts)


def test_candidate_tables_interleaved_on_one_cache():
    """A candidate front table from `selection` and the frozen one take
    turns on one front and cache; each certificate equals its fresh-cache
    one, also after the caller edits the table it passed."""
    rng = random.Random(2020)
    fronts = [crossed_saucer_front()]
    fronts += [random_front(rng, max_crossings=3) for _ in range(3)]
    candidates = list(_candidate_front_tables())
    warm = SkeinCache()
    shared = sharing_memo(warm)
    differs = 0
    for f in fronts:
        frozen = front_check_output(lj_both_sides, f, sharing_memo(warm))
        for table in candidates:
            want = front_check_output(lj_both_sides, f, sharing_memo(warm),
                                      table)
            differs += want != frozen
            assert front_check_output(lj_both_sides, f, shared, table) == want
            assert front_check_output(lj_both_sides, f, shared) == frozen
            edited = dict(table)
            assert front_check_output(lj_both_sides, f, shared, edited) == want
            edited.update(FRONT_WEIGHTS)
            assert front_check_output(lj_both_sides, f, shared, edited) == frozen
    assert differs > 0


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


INVALID_DIAGRAMS = INVALID_EVENTS + (
    [("cup", 1), ("cap", 0)],                 # levels one past the end
    [("cup", 0), ("cap", 1)],
    [("cup", 0), ("x", 1, 1), ("cap", 0)],
    [("cup", 0), ("X", 0), ("cap", 0)],       # a front event in a diagram
)
INVALID_FRONTS = (
    [("L", 0)],                               # not closed
    [("R", 0)],                               # nothing to close
    [("L", 3)],                               # level out of range
    [("L", 1), ("R", 0)],                     # levels one past the end
    [("L", 0), ("R", 1)],
    [("L", 0), ("X", 1), ("R", 0)],
    [("L", 0), ("cap", 0)],                   # a diagram event in a front
)


@pytest.mark.parametrize("events", INVALID_DIAGRAMS)
def test_splice_scan_rejects_invalid_events(events):
    assert_scan_rejects(events, DIAGRAM_ALPHABET)


@pytest.mark.parametrize("events", INVALID_FRONTS)
def test_splice_scan_rejects_invalid_fronts(events):
    assert_scan_rejects(events, FRONT_ALPHABET)


@pytest.mark.parametrize("events, alphabet, weights", [
    *((ev, DIAGRAM_ALPHABET, DIAGRAM_WEIGHTS) for ev in INVALID_DIAGRAMS),
    *((ev, FRONT_ALPHABET, FRONT_WEIGHTS) for ev in INVALID_FRONTS)])
def test_nonzero_states_rejects_invalid_events_before_any_state(
        events, alphabet, weights):
    states = nonzero_states(events, alphabet, weights)
    with pytest.raises(DiagramError):
        next(states)


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
