import random

import pytest

from knotpoly.diagram import DiagramError, parse_braid, braid_closure, connected_sum
from knotpoly.front import FrontWord, saucer_front, crossed_saucer_front, classical_invariants
from knotpoly.inequalities import BoundReport, check_front_bounds, mfw_check, CSV_HEADER
from knotpoly.skein import full_invariants, SkeinCache

from conftest import (P_TREFOIL, TREFOIL_TB6_FRONT, random_braid, random_front)


def test_saucer_bounds_tight(cache):
    rep = check_front_bounds(saucer_front(), cache)
    assert (rep.tb, rep.maslov) == (-1, 0)
    assert (rep.e_P, rep.e_Y) == (-1, -1)
    assert rep.bound_b_slack == 0 and rep.bound_c_slack == 0
    assert rep.ok() and not rep.witness


def test_crossed_saucer_bounds(cache):
    rep = check_front_bounds(crossed_saucer_front(), cache)
    assert (rep.tb, abs(rep.maslov)) == (-2, 1)
    assert (rep.e_P, rep.e_Y) == (-1, -1)
    assert rep.bound_b_slack == 0 and rep.bound_c_slack == 1


def test_trefoil_front_bound_c_tight(cache):
    f = FrontWord(TREFOIL_TB6_FRONT)
    res = full_invariants(f.morsify(), cache)
    assert res.P == P_TREFOIL, "fixture front is the reference trefoil"
    rep = check_front_bounds(f, cache)
    assert rep.tb == -6
    assert rep.e_Y == -6 and rep.bound_c_slack == 0


def test_multi_component_front_rejected(cache):
    two = FrontWord([("L", 0), ("R", 0), ("L", 0), ("R", 0)])
    with pytest.raises(DiagramError):
        check_front_bounds(two, cache)


def test_mfw_examples(cache):
    rep = mfw_check(parse_braid("braid 2: 1 1 1"), cache)
    assert rep.e_P == -5 and rep.mfw_slack == 0

    rep = mfw_check(parse_braid("braid 1:"), cache)
    assert rep.e_P == -1 and rep.mfw_slack == 0

    rng = random.Random(401)
    for _ in range(30):
        b = random_braid(rng, max_strands=4, max_letters=8)
        rep = mfw_check(b, cache)
        assert rep.mfw_slack >= 0, b.text()


def _summands_and_sum(d1, d2, cache):
    """full_invariants of d1, d2 and their connected sum."""
    return (full_invariants(d, cache) for d in (d1, d2, connected_sum(d1, d2)))


def _additive(r1, r2, rs) -> bool:
    """e_P + 1 and e_Y + 1 of the sum are those of the summands added."""
    return (rs.e_P + 1 == (r1.e_P + 1) + (r2.e_P + 1)
            and rs.e_Y + 1 == (r1.e_Y + 1) + (r2.e_Y + 1))


def test_additivity_examples(cache, paper_trefoil):
    r1, r2, rs = _summands_and_sum(paper_trefoil, paper_trefoil, cache)
    assert _additive(r1, r2, rs)
    assert rs.e_P == -9 and rs.e_Y == -11

    unknot = braid_closure(parse_braid("braid 1:"))
    _r1, _r2, rs = _summands_and_sum(paper_trefoil, unknot, cache)
    assert rs.e_P == -5 and rs.e_Y == -6


def test_additivity_random_pairs(cache):
    rng = random.Random(402)
    for _ in range(8):
        d1 = braid_closure(random_braid(rng, max_strands=3, max_letters=6, knot_only=True))
        d2 = braid_closure(random_braid(rng, max_strands=3, max_letters=6, knot_only=True))
        assert _additive(*_summands_and_sum(d1, d2, cache))


def test_ep_ey_compare(cache, paper_trefoil):
    res = full_invariants(paper_trefoil, cache)
    assert (res.e_P, res.e_Y, res.e_P < res.e_Y) == (-5, -6, False)
    res = full_invariants(braid_closure(parse_braid("braid 1:")), cache)
    assert (res.e_P, res.e_Y, res.e_P < res.e_Y) == (-1, -1, False)


def test_front_bounds_random(cache):
    rng = random.Random(403)
    for _ in range(60):
        f = random_front(rng, max_crossings=4, knot_only=True)
        rep = check_front_bounds(f, cache)
        assert rep.bound_b_slack >= 0, f.events
        assert rep.bound_c_slack >= 0, f.events


def test_lemma_nonnegativity_implies_bound_c(cache):
    """When every state term is a genuine polynomial in a, e_Y >= tb."""
    from knotpoly.jaeger import lemma_check
    rng = random.Random(404)
    for _ in range(20):
        f = random_front(rng, max_crossings=3, knot_only=True)
        rows = lemma_check(f, cache)
        if all(r.nonnegative for r in rows):
            rep = check_front_bounds(f, cache)
            assert rep.bound_c_slack >= 0


def test_ep3_fixture_beats_genus_bound(cache):
    """Documented relation on the e_P = 3 fixture: e_P exceeds 2 g_4 - 1.

    The genus itself is recorded metadata (an unknotting-number argument),
    not a computation; this pins the recorded values together.
    """
    from conftest import EP3_BRAID, EP3_SLICE_GENUS_BOUND
    res = full_invariants(braid_closure(parse_braid(EP3_BRAID)), cache)
    assert res.e_P == 3
    assert res.e_P > 2 * EP3_SLICE_GENUS_BOUND - 1


def test_csv_row_shape():
    rep = BoundReport(subject="x", kind="front", tb=-1, maslov=0, e_P=-1,
                      e_Y=-1, bound_b_slack=0, bound_c_slack=0)
    row = rep.csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert row.endswith(",0")


def test_witness_row_cells():
    rep = BoundReport(subject="braid 3: 1,2", kind="braid", e_P=-9, e_Y=-8,
                      mfw_slack=0, witness=True)
    assert rep.csv_row() == "braid 3: 1 2,braid,,,-9,-8,,,0,1"
    assert rep.to_json() == {"id": "braid 3: 1,2", "kind": "braid", "tb": None,
                             "mu": None, "eP": -9, "eY": -8, "slack_b": None,
                             "slack_c": None, "slack_mfw": 0, "witness": True}
