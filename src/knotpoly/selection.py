"""Selection of the frozen state-sum weight tables.

`selection_sweep` keeps the candidate tables under which the state-sum
identities hold on a corpus.  Regenerate the committed report with
`python -m knotpoly.selection > docs/jaeger-table-selection.json`; the
package does not import this module, so it runs as `__main__` only once.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .diagram import MorseDiagram, braid_closure, parse_braid
from .front import FrontWord, crossed_saucer_front, saucer_front
from .jaeger import (DIAGRAM_WEIGHTS, FRONT_WEIGHTS, jaeger_both_sides,
                     lj_both_sides)
from .skein import SkeinCache


def _candidate_diagram_tables() -> Iterator[dict]:
    pats = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for vp_pos, hp_pos, vp_neg, hp_neg, wpos, wneg in itertools.product(
            pats, pats, pats, pats, (1, -1), (1, -1)):
        yield {(1, "v", vp_pos): wpos, (1, "h", hp_pos): -wpos,
               (-1, "v", vp_neg): wneg, (-1, "h", hp_neg): -wneg}


def _candidate_front_tables() -> Iterator[dict]:
    pats = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for hp, cp in itertools.product(pats, pats):
        yield {("h", hp): -1, ("c", cp): 1}


def selection_sweep(diagrams: Sequence[MorseDiagram],
                    fronts: Sequence[FrontWord],
                    cache: SkeinCache) -> dict:
    """Filter all candidate weight tables against the identities.

    Returns the survivors and whether each matches the frozen tables.  The
    corpus should contain crossings of both signs and both parallel and
    antiparallel splice sites, otherwise several tables may survive.
    """
    diagram_survivors = []
    for table in _candidate_diagram_tables():
        if all(jaeger_both_sides(d, cache, weights=table).equal for d in diagrams):
            diagram_survivors.append(table)
    front_survivors = []
    for table in _candidate_front_tables():
        if all(lj_both_sides(f, cache, weights=table).equal for f in fronts):
            front_survivors.append(table)
    return {
        "diagram_candidates": 1024,
        "diagram_survivors": [sorted(str(k) for k in t) for t in diagram_survivors],
        "diagram_unique": len(diagram_survivors) == 1,
        "diagram_matches_frozen": diagram_survivors == [DIAGRAM_WEIGHTS],
        "front_candidates": 16,
        "front_survivors": [sorted(str(k) for k in t) for t in front_survivors],
        "front_unique": len(front_survivors) == 1,
        "front_matches_frozen": front_survivors == [FRONT_WEIGHTS],
    }


def standard_selection_corpus():
    """Small diagrams and fronts that pin the weight tables uniquely."""
    diagrams = [
        MorseDiagram([("cup", 0), ("x", 0, -1), ("cap", 0)]),
        MorseDiagram([("cup", 0), ("x", 0, 1), ("cap", 0)]),
        braid_closure(parse_braid("braid 2: 1 1")),
        braid_closure(parse_braid("braid 2: -1 -1")),
        MorseDiagram([("cup", 0), ("x", 0, -1), ("x", 0, -1), ("cap", 0)]),
        MorseDiagram([("cup", 0), ("x", 0, 1), ("x", 0, 1), ("cap", 0)]),
        braid_closure(parse_braid("braid 2: 1 1 1")),
        braid_closure(parse_braid("braid 3: 1 -2 1")),
    ]
    fronts = [saucer_front(), crossed_saucer_front(),
              FrontWord([("L", 0), ("X", 0), ("X", 0), ("R", 0)]),
              FrontWord([("L", 0), ("L", 1), ("X", 1), ("R", 1), ("R", 0)]),
              FrontWord([("L", 0), ("L", 0), ("X", 1), ("R", 0), ("R", 0)])]
    return diagrams, fronts


def _main() -> int:
    """Regenerate the weight-table selection report (JSON on stdout)."""
    import json
    import sys
    diagrams, fronts = standard_selection_corpus()
    rep = selection_sweep(diagrams, fronts, SkeinCache())
    rep["corpus"] = {
        "diagrams": [d.to_json() for d in diagrams],
        "fronts": [f.to_json() for f in fronts],
    }
    rep["frozen_diagram_table"] = sorted(str(k) + f" -> {v}*tau"
                                         for k, v in DIAGRAM_WEIGHTS.items())
    rep["frozen_front_table"] = sorted(
        str(k) + (" -> t^-1 - t" if v == -1 else " -> t a^-2 (t - t^-1)")
        for k, v in FRONT_WEIGHTS.items())
    json.dump(rep, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if rep["diagram_matches_frozen"] and rep["front_matches_frozen"] else 1


if __name__ == "__main__":
    raise SystemExit(_main())
