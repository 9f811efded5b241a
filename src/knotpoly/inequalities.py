"""Checkers for the bound claims tying contact invariants to polynomial degrees.

For a Legendrian knot front with invariants tb and mu and writhe-normalized
polynomials P, Y of its morsification:

    bound b:   tb + |mu| <= e_P        slack_b = e_P - tb - |mu|
    bound c:   tb        <= e_Y        slack_c = e_Y - tb

For a braid word s with n strands and exponent sum c, the braid-positivity
bound on the closure:

    -c - n <= e_P                      slack_mfw = e_P + c + n

The slacks being nonnegative is the claim under test; reports record them,
they are never assumed.  Bound b has an equivalent reading: a^(-|mu|) R has
no negative powers of a.  Both forms are computed and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import MorseDiagram, BraidWord, braid_closure, connected_sum, DiagramError
from .front import FrontWord, classical_invariants
from .skein import SkeinCache, full_invariants

# report column -> BoundReport field, in report order
COLUMNS = (("id", "subject"), ("kind", "kind"), ("tb", "tb"), ("mu", "maslov"),
           ("eP", "e_P"), ("eY", "e_Y"), ("slack_b", "bound_b_slack"),
           ("slack_c", "bound_c_slack"), ("slack_mfw", "mfw_slack"),
           ("witness", "witness"))
CSV_HEADER = ",".join(column for column, _ in COLUMNS)


@dataclass
class BoundReport:
    subject: str
    kind: str                      # "front" | "braid" | "diagram"
    tb: Optional[int] = None
    maslov: Optional[int] = None
    e_P: Optional[int] = None
    e_Y: Optional[int] = None
    bound_b_slack: Optional[int] = None
    bound_c_slack: Optional[int] = None
    mfw_slack: Optional[int] = None
    witness: bool = False          # e_P < e_Y

    def ok(self) -> bool:
        """All recorded slacks nonnegative."""
        return all(s is None or s >= 0
                   for s in (self.bound_b_slack, self.bound_c_slack, self.mfw_slack))

    def csv_row(self) -> str:
        cells = self.to_json()
        cells["id"] = self.subject.replace(",", " ")
        cells["witness"] = int(self.witness)
        return ",".join("" if v is None else str(v) for v in cells.values())

    def to_json(self) -> dict:
        return {column: getattr(self, field) for column, field in COLUMNS}


def check_front_bounds(f: FrontWord,
                       cache: Optional[SkeinCache] = None) -> BoundReport:
    """Bounds b and c for a knot front."""
    if f.component_count() != 1:
        raise DiagramError("bound report requires a knot front")
    if cache is None:
        cache = SkeinCache.from_env()
    inv = classical_invariants(f)
    res = full_invariants(f.morsify(), cache)
    slack_b = res.e_P - (inv.tb + abs(inv.maslov))
    slack_c = res.e_Y - inv.tb
    # equivalent form of bound b: least a-degree of a^-|mu| R
    alt = res.R.shift(0, -abs(inv.maslov)).min_degree("second")
    if alt != slack_b:
        raise AssertionError("bound-b reformulation mismatch")
    return BoundReport(subject="front", kind="front", tb=inv.tb,
                       maslov=inv.maslov, e_P=res.e_P, e_Y=res.e_Y,
                       bound_b_slack=slack_b, bound_c_slack=slack_c,
                       witness=res.e_P < res.e_Y)


def mfw_check(b: BraidWord, cache: Optional[SkeinCache] = None) -> BoundReport:
    """Braid bound for a closure (knot or link)."""
    if cache is None:
        cache = SkeinCache.from_env()
    d = braid_closure(b)
    res = full_invariants(d, cache)
    slack = res.e_P + b.exponent_sum() + b.strands
    return BoundReport(subject=b.text(), kind="braid",
                       e_P=res.e_P, e_Y=res.e_Y, mfw_slack=slack,
                       witness=res.e_P < res.e_Y)


def additivity_audit(d1: MorseDiagram, d2: MorseDiagram,
                     cache: Optional[SkeinCache] = None) -> dict:
    """Check that e_P + 1 and e_Y + 1 add under connected sum."""
    if cache is None:
        cache = SkeinCache.from_env()
    r1 = full_invariants(d1, cache)
    r2 = full_invariants(d2, cache)
    rs = full_invariants(connected_sum(d1, d2), cache)
    return {
        "e_P": (r1.e_P, r2.e_P, rs.e_P),
        "e_Y": (r1.e_Y, r2.e_Y, rs.e_Y),
        "e_P_additive": rs.e_P + 1 == (r1.e_P + 1) + (r2.e_P + 1),
        "e_Y_additive": rs.e_Y + 1 == (r1.e_Y + 1) + (r2.e_Y + 1),
    }


def ep_ey_compare(d: MorseDiagram, cache: Optional[SkeinCache] = None) -> dict:
    """e_P versus e_Y; witness means e_P < e_Y."""
    if cache is None:
        cache = SkeinCache.from_env()
    res = full_invariants(d, cache)
    return {"e_P": res.e_P, "e_Y": res.e_Y, "witness": res.e_P < res.e_Y}
