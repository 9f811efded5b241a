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

The braid bound takes R and D of the closure from the algebra engines
(`algebra.braid_invariants`), which multiply the word out one letter at a
time; the front bounds take morsified fronts, which are not braid
closures, and stay on the skein engines.
`algebra` is imported on first use: where no bytecode cache is written,
compiling it is about 5 ms, 13 % of the package import, and a process that
checks no braid need not pay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import BraidWord, DiagramError
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
    kind: str                      # "front" | "braid"
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


def check_front_bounds(f: FrontWord, cache: SkeinCache) -> BoundReport:
    """Bounds b and c for a knot front."""
    if f.component_count() != 1:
        raise DiagramError("bound report requires a knot front")
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


def mfw_check(b: BraidWord, cache: SkeinCache) -> BoundReport:
    """Braid bound for a closure (knot or link), on the algebra engines."""
    from . import algebra  # on first use: see the module docstring
    res = algebra.braid_invariants(b, cache)
    slack = res.e_P + res.w + b.strands
    return BoundReport(subject=b.text(), kind="braid",
                       e_P=res.e_P, e_Y=res.e_Y, mfw_slack=slack,
                       witness=res.e_P < res.e_Y)

