"""Exact bivariate Laurent polynomial arithmetic.

A polynomial is a sparse map {(e1, e2): coefficient} with arbitrary-precision
integer coefficients and possibly negative exponents.  By convention the first
exponent slot holds the skein variable (z before the state-sum substitution,
t after it) and the second slot holds the framing variable a.

Three divisors ever occur, all of the form x - x^-1 + c with c = 0 or z:
t - t^-1 (DeltaFraction), and the unknot numerators a - a^-1 of R and
z + a - a^-1 of D (the skein engines' reduction factor).  One synthetic
divider, exact_divide, serves them all, row by row; no general long
division is built.

The module also provides DeltaFraction, the quotient type

    numerator / (t - t^-1)^denom_power

needed to evaluate polynomials at z = t - t^-1.  Only that single denominator
ever occurs, so no general rational-function field is built.

A DeltaFraction is normalized when it is constructed: while denom_power > 0
and the numerator is divisible by t - t^-1, one factor is divided out with
exact_divide_delta.  Every +, - and * constructs, so it normalizes too.  Two
operations skip the divisibility test because their result is normalized by
construction: scaled() multiplies by a unit monomial and a power of
t - t^-1 (it lowers the denominator power, no division), and sum() adds many
fractions at their common denominator and normalizes once.  The state-sum
certificates form each state term with scaled() and the right-hand side with
sum().
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Optional


_JSON_KEYS = {"ez", "ea", "c"}  # of one term in `LaurentPoly.to_json`


class LaurentPoly:
    """Sparse two-variable Laurent polynomial over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[tuple[int, int], int]] = None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({(0, 0): 1})

    @staticmethod
    def monomial(coeff: int, e1: int = 0, e2: int = 0) -> "LaurentPoly":
        return LaurentPoly({(e1, e2): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (e1, e2, coeff), sorted by (e2, e1) ascending."""
        return [(e1, e2, self.terms[(e1, e2)])
                for (e1, e2) in sorted(self.terms, key=lambda e: (e[1], e[0]))]

    def min_degree(self, var: str) -> int:
        """Least exponent of the chosen variable ("first" or "second")."""
        if not self.terms:
            raise ValueError("undefined degree: zero polynomial")
        idx = _var_index(var)
        return min(e[idx] for e in self.terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = out
        return p

    def __neg__(self) -> "LaurentPoly":
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            p = LaurentPoly.__new__(LaurentPoly)
            p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        out: dict[tuple[int, int], int] = {}
        for (a1, a2), ca in self.terms.items():
            for (b1, b2), cb in other.terms.items():
                e = (a1 + b1, a2 + b2)
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:  # the loop below would not end
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, d1: int, d2: int) -> "LaurentPoly":
        """Multiply by the monomial x1^d1 * x2^d2."""
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = {(e1 + d1, e2 + d2): c for (e1, e2), c in self.terms.items()}
        return p

    # -- formatting and serialization ----------------------------------------

    def __repr__(self) -> str:
        terms = {(e1, e2): c for e1, e2, c in self.sorted_terms()}
        return f"LaurentPoly({terms!r})"

    def to_json(self) -> list[dict]:
        """Stable serialization: sorted by (ea, ez), coefficients as strings."""
        return [{"ez": e1, "ea": e2, "c": str(c)} for e1, e2, c in self.sorted_terms()]

    @staticmethod
    def from_json(data: list[dict]) -> "LaurentPoly":
        """Inverse of `to_json`; ValueError on any other shape, a repeated
        term or a zero coefficient among them."""
        if type(data) is not list:
            raise ValueError("terms are not a list")
        terms = {}
        for d in data:
            if type(d) is not dict or d.keys() != _JSON_KEYS:
                raise ValueError(f"bad term {d!r}")
            ez, ea, c = d["ez"], d["ea"], d["c"]
            if type(ez) is not int or type(ea) is not int or type(c) is not str:
                raise ValueError(f"bad term {d!r}")
            if (ez, ea) in terms:
                raise ValueError(f"repeated term {d!r}")
            terms[ez, ea] = int(c)
            if not terms[ez, ea]:
                raise ValueError(f"zero coefficient {d!r}")
        return LaurentPoly(terms)


def _var_index(var: str) -> int:
    if var == "first":
        return 0
    if var == "second":
        return 1
    raise ValueError(f"unknown variable selector: {var!r}")


# x - x^-1 in the first variable
TAU = LaurentPoly({(1, 0): 1, (-1, 0): -1})


@lru_cache(maxsize=None)
def tau_power(k: int) -> LaurentPoly:
    """(t - t^-1)^k, shared: callers must not mutate it."""
    return TAU ** k


def exact_divide(p: LaurentPoly, var: str,
                 middle: bool = False) -> Optional[LaurentPoly]:
    """q with q * (x - x^-1 + [middle] y) = p, or None when p is not
    divisible; x is the variable `var` selects and y the other one.

    Row k of p, its y^k terms, is (x - x^-1) q_k + [middle] q_(k-1), so
    the rows run lowest first, each less q's row below when `middle` is
    set, and each divides synthetically from its top x-degree down:
    r_j = q_(j-1) - q_(j+1), so q_(j-1) = r_j + q_(j+1).  A row that
    leaves q_lo or q_(lo-1) over is a remainder, and so is a nonzero last
    q row.
    """
    x = _var_index(var)
    rows: dict[int, dict[int, int]] = {}
    for e, c in p.terms.items():
        row = rows.get(e[1 - x])
        if row is None:
            rows[e[1 - x]] = {e[x]: c}
        else:
            row[e[x]] = c
    out: dict[tuple[int, int], int] = {}
    below: dict[int, int] = {}  # q_(k-1), while `middle`
    for k in range(min(rows), max(rows) + 1) if middle and rows else rows:
        row = rows.get(k, {})
        if below:
            for j, c in below.items():
                row[j] = row.get(j, 0) - c
            below = {}
        if row:
            lo = min(row)
            q_above = q_at = 0  # q_(j+1) and q_j
            for j in range(max(row), lo - 1, -1):
                q_below = row.get(j, 0) + q_above
                if q_below:
                    out[(j - 1, k)] = q_below
                    if middle:
                        below[j - 1] = q_below
                q_above, q_at = q_at, q_below
            if q_above or q_at:  # q_lo or q_(lo-1) left over: a remainder
                return None
    if below:
        return None
    q = LaurentPoly.__new__(LaurentPoly)
    q.terms = {(e2, e1): c for (e1, e2), c in out.items()} if x else out
    return q


def exact_divide_delta(p: LaurentPoly) -> Optional[LaurentPoly]:
    """q with q * (t - t^-1) = p, or None when p is not divisible."""
    return exact_divide(p, "first")


class DeltaFraction:
    """A Laurent polynomial in (t, a) divided by a power of (t - t^-1).

    Instances are normalized: the numerator of a nonzero fraction with
    denom_power > 0 is not divisible by (t - t^-1).
    """

    __slots__ = ("numerator", "denom_power")

    def __init__(self, numerator: LaurentPoly, denom_power: int = 0):
        if denom_power < 0:
            raise ValueError("denom_power must be nonnegative")
        if numerator.is_zero():
            denom_power = 0
        else:
            while denom_power > 0:
                q = exact_divide_delta(numerator)
                if q is None:
                    break
                numerator = q
                denom_power -= 1
        self.numerator = numerator
        self.denom_power = denom_power

    def scaled(self, unit: LaurentPoly, k: int) -> "DeltaFraction":
        """self * unit * (t - t^-1)^k for a unit monomial and k >= 0.

        A unit keeps the numerator's divisibility, so the power of
        t - t^-1 only lowers the denominator power; nothing is divided.
        The unit multiplies the numerator term by term.
        """
        [((d1, d2), u)] = unit.terms.items()
        num = LaurentPoly.__new__(LaurentPoly)
        num.terms = {(e1 + d1, e2 + d2): c * u
                     for (e1, e2), c in self.numerator.terms.items()}
        if k > self.denom_power:
            num = num * tau_power(k - self.denom_power)
        f = DeltaFraction.__new__(DeltaFraction)
        f.numerator = num
        f.denom_power = max(self.denom_power - k, 0) if num.terms else 0
        return f

    @staticmethod
    def sum(fractions: Iterable["DeltaFraction"]) -> "DeltaFraction":
        """The sum, formed at the common denominator and normalized once."""
        rows: dict[int, dict[tuple[int, int], int]] = {}
        for f in fractions:
            row = rows.setdefault(f.denom_power, {})
            for e, c in f.numerator.terms.items():
                row[e] = row.get(e, 0) + c
        if not rows:
            return DeltaFraction.zero()
        top = max(rows)
        num = LaurentPoly()
        for power in range(top + 1):  # Horner: rows[p] gets tau^(top - p)
            num = num * TAU + LaurentPoly(rows.get(power))
        return DeltaFraction(num, top)

    @staticmethod
    def zero() -> "DeltaFraction":
        return DeltaFraction(LaurentPoly(), 0)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __add__(self, other: "DeltaFraction") -> "DeltaFraction":
        if not isinstance(other, DeltaFraction):
            return NotImplemented
        return DeltaFraction.sum((self, other))

    def __sub__(self, other: "DeltaFraction") -> "DeltaFraction":
        return self + -other

    def __neg__(self) -> "DeltaFraction":
        return DeltaFraction(-self.numerator, self.denom_power)

    def __mul__(self, other: "DeltaFraction | LaurentPoly | int") -> "DeltaFraction":
        if isinstance(other, DeltaFraction):
            return DeltaFraction(self.numerator * other.numerator,
                                 self.denom_power + other.denom_power)
        return DeltaFraction(self.numerator * other, self.denom_power)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaFraction):
            return NotImplemented
        return (self.denom_power == other.denom_power
                and self.numerator == other.numerator)

    def __hash__(self) -> int:
        return hash((self.numerator, self.denom_power))

    def __repr__(self) -> str:
        return f"DeltaFraction({self.numerator!r}, {self.denom_power})"

    def to_json(self) -> dict:
        return {"numerator": self.numerator.to_json(),
                "denom_power": self.denom_power}


def substitute_jaeger(p: LaurentPoly, side: str) -> DeltaFraction:
    """Image of p(z, a) under the state-sum substitution.

    side "kauffman_lhs" sends z to t - t^-1 and a to a^2 t^-1; side
    "homfly_rhs" sends z to t - t^-1 and keeps a.  Negative powers of z
    become denominator powers of (t - t^-1).
    """
    if side not in ("kauffman_lhs", "homfly_rhs"):
        raise ValueError(f"unknown substitution side: {side!r}")
    if p.is_zero():
        return DeltaFraction.zero()
    denom = max(0, -p.min_degree("first"))
    lhs = side == "kauffman_lhs"
    num: dict[tuple[int, int], int] = {}
    for (ez, ea), c in p.terms.items():
        dt, da = (-ea, 2 * ea) if lhs else (0, ea)
        for (et, _), tc in tau_power(ez + denom).terms.items():
            e = (et + dt, da)
            num[e] = num.get(e, 0) + c * tc
    return DeltaFraction(LaurentPoly(num), denom)
