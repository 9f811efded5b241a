"""State sums relating the Kauffman and HOMFLY polynomials.

For a closed diagram K, a state splices each crossing (leave it, open it
horizontally, or replace it by a cap-cup wall) and orients the resulting
link.  With tau = t - t^-1, the identity checked here is

    D(K)(tau, a^2 t^-1)  =  sum over states of
        (t a^-1)^(rotation of the spliced, oriented diagram)
        * [K, state] * R(K_state)(tau, a)

where [K, state] is a product of local weights.  An unspliced crossing
weighs 1 for every orientation; a spliced crossing weighs +-tau for exactly
one oriented local picture per splice type and 0 otherwise.  The weight
table below is pinned computationally: it is the unique assignment (among
all candidate pattern tables) under which the identity holds on a corpus of
small diagrams; see `knotpoly.selection`.

The Legendrian version replaces diagrams by fronts.  Front crossings splice
to the horizontal opening (weight t^-1 - t) or to a right-left cusp pair
(weight t a^-2 (t - t^-1)), the prefactor becomes
(a t^-1)^(#left-up cusps + #right-down cusps), and R is evaluated on the
morsification of the spliced front.

Local patterns are encoded by thread directions (+1 east, -1 west):

  horizontal splice   (dir of bottom strand, dir of top strand)
  cap-cup wall        (dir of lower strand into the cap,
                       dir of lower strand out of the cup)
  cusp pair           the same two slots; (-1, -1) means the new right cusp
                      is oriented downward and the new left cusp upward.

One enumerator, `nonzero_states`, serves both sums; an `Alphabet` holds
what differs (the event kinds, the seed dir and the splice labels of the
weight keys).  A state carries its weight's sign; the sums build the tau
powers and the front's (t a^-2)^V factor from its splice counts.  Each
weight table gives a spliced site one oriented pattern, so a splice choice
is dropped when a site has no entry, and the patterns pin the orientation
flips of the components they touch; zero-weight states are never formed.
One `diagram.scan` per choice splices and orients (each component's
first-born thread at the alphabet's seed dir); its probes name the threads
each site's pattern reads.  Both sums read the same two tallies of a state,
left-up (cups whose lower thread runs west) and right-down (caps whose lower
thread runs west); the diagram's rotation is #cups - left-up - right-down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .laurent import LaurentPoly, DeltaFraction, substitute_jaeger
from .diagram import DIAGRAM_KINDS, MorseDiagram, Scan, flipped_dirs, scan
from .front import FRONT_KINDS, FrontWord, diagram_events_of
from .skein import SkeinCache, homfly_R, kauffman_D

# weight = coeff * tau at the listed oriented pattern; all others vanish
DIAGRAM_WEIGHTS: dict[tuple[int, str, tuple[int, int]], int] = {
    (1, "v", (1, 1)): -1,
    (1, "h", (1, -1)): 1,
    (-1, "v", (-1, -1)): 1,
    (-1, "h", (-1, 1)): -1,
}

# front splices: "h" carries coeff * tau, "c" carries coeff * t a^-2 tau
FRONT_WEIGHTS: dict[tuple[str, tuple[int, int]], int] = {
    ("h", (-1, 1)): -1,
    ("c", (-1, -1)): 1,
}


class Alphabet(NamedTuple):
    """What differs between diagram and front states.

    A spliced site's key in a weight table is the crossing event's fields
    after its level (the sign in a diagram, none in a front), then the
    label of its splice, then the oriented pattern.
    """

    birth: str            # event kinds
    death: str
    cross: str
    seed: int             # dir of each component's first-born thread
    labels: tuple         # splice labels of choices 1 and 2


DIAGRAM_ALPHABET = Alphabet(*DIAGRAM_KINDS, ("h", "v"))
FRONT_ALPHABET = Alphabet(*FRONT_KINDS, ("h", "c"))


@dataclass
class SpliceState:
    """One splice pattern plus an orientation of the spliced object."""

    choices: tuple[int, ...]          # per crossing: 0 none, 1 horizontal, 2 wall/cusp pair
    flips: tuple[bool, ...]           # per component of the spliced object
    v_count: int
    h_count: int
    spliced_events: tuple
    spliced_dirs: tuple
    cups: int                         # cups (left cusps) of the spliced object
    left_up: int                      # cups whose lower thread runs west
    right_down: int                   # caps whose lower thread runs west
    sign: int                         # product of the local weights' signs

    @property
    def r_sigma(self) -> int:
        """Rotation of the spliced, oriented object (as many caps as cups)."""
        return self.cups - self.left_up - self.right_down


def _pin(sp: Scan, patterns: list) -> Optional[dict]:
    """Component -> flip bit that the spliced sites' patterns force.

    Each probe's two threads must run as its pattern says, which fixes the
    flip bit of their components; None when two sites disagree.
    """
    pinned: dict[int, bool] = {}
    for (_c, ta, tb), (pa, pb) in zip(sp.probes, patterns):
        for thread, want in ((ta, pa), (tb, pb)):
            need = sp.dirs[thread] != want
            if pinned.setdefault(sp.component_of[thread], need) != need:
                return None
    return pinned


def nonzero_states(events: Sequence, alphabet: Alphabet,
                   weights: dict) -> Iterator[SpliceState]:
    """The states of nonzero weight, by splice choices, then by flips.

    Choices run over (0, 1, 2)^crossings and flips over one bit per
    component of the spliced object, both in `itertools.product` order.  A
    table gives each site key one weighted pattern, so a choice whose sites
    have no entry is skipped before splicing, the sites pin the flips of
    their components (`_pin`), and only the unpinned components run over
    both bits.
    """
    pattern_of = {key[:-1]: (key[-1], coeff)
                  for key, coeff in weights.items() if coeff}
    sites = [ev[2:] for ev in events if ev[0] == alphabet.cross]
    for choices in itertools.product((0, 1, 2), repeat=len(sites)):
        patterns = []
        sign = 1
        for site, c in zip(sites, choices):
            if c:
                entry = pattern_of.get(site + (alphabet.labels[c - 1],))
                if entry is None:
                    break
                patterns.append(entry[0])
                sign *= entry[1]
        else:
            sp = scan(events, alphabet, choices=choices)
            pinned = _pin(sp, patterns)
            if pinned is None:
                continue
            free = [c for c in sp.components if c not in pinned]
            for bits in itertools.product((False, True), repeat=len(free)):
                flip_of = dict(pinned)
                flip_of.update(zip(free, bits))
                flips = tuple(flip_of[c] for c in sp.components)
                dirs = flipped_dirs(sp, flips)
                yield SpliceState(
                    choices=choices, flips=flips,
                    v_count=choices.count(2), h_count=choices.count(1),
                    spliced_events=sp.events, spliced_dirs=dirs,
                    cups=len(sp.cup_lows),
                    left_up=sum(dirs[lo] < 0 for lo in sp.cup_lows),
                    right_down=sum(dirs[lo] < 0 for lo in sp.cap_lows),
                    sign=sign)


@dataclass
class Certificate:
    lhs: DeltaFraction
    rhs: DeltaFraction
    equal: bool
    contributions: list

    def to_json(self) -> dict:
        return {"lhs": self.lhs.to_json(), "rhs": self.rhs.to_json(),
                "equal": self.equal,
                "states": [{"choices": list(c), "flips": list(f),
                            "term": t.to_json()}
                           for c, f, t in self.contributions]}


def jaeger_both_sides(d: MorseDiagram, cache: Optional[SkeinCache] = None,
                      weights: Optional[dict] = None) -> Certificate:
    """Evaluate both sides of the state-sum identity for a diagram."""
    if cache is None:
        cache = SkeinCache.from_env()
    lhs = substitute_jaeger(kauffman_D(d, cache), "kauffman_lhs")
    contributions = []
    table = DIAGRAM_WEIGHTS if weights is None else weights
    for st in nonzero_states(d.events, DIAGRAM_ALPHABET, table):
        kd = MorseDiagram(st.spliced_events, st.spliced_dirs)
        rsub = substitute_jaeger(homfly_R(kd, cache), "homfly_rhs")
        # [K, state] (t a^-1)^r = sign (t a^-1)^r tau^(V+H)
        unit = LaurentPoly.monomial(st.sign, st.r_sigma, -st.r_sigma)
        term = rsub.scaled(unit, st.v_count + st.h_count)
        contributions.append((st.choices, st.flips, term))
    rhs = DeltaFraction.sum(t for _c, _f, t in contributions)
    return Certificate(lhs=lhs, rhs=rhs, equal=lhs == rhs,
                       contributions=contributions)


# -- front states --------------------------------------------------------------


def _front_term(st: SpliceState, cache: SkeinCache) -> DeltaFraction:
    """(a t^-1)^(#left-up + #right-down) [L, state] R(morsified spliced front)."""
    m = MorseDiagram(diagram_events_of(st.spliced_events, morsified=True),
                     st.spliced_dirs)
    rsub = substitute_jaeger(homfly_R(m, cache), "homfly_rhs")
    e = st.left_up + st.right_down
    v = st.v_count
    # sign (a t^-1)^e (t a^-2)^V tau^(V+H)
    unit = LaurentPoly.monomial(st.sign, v - e, e - 2 * v)
    return rsub.scaled(unit, v + st.h_count)


def lj_both_sides(f: FrontWord, cache: Optional[SkeinCache] = None,
                  weights: Optional[dict] = None) -> Certificate:
    """Evaluate both sides of the front version of the state sum."""
    if cache is None:
        cache = SkeinCache.from_env()
    lhs = substitute_jaeger(kauffman_D(f.morsify(), cache), "kauffman_lhs")
    table = FRONT_WEIGHTS if weights is None else weights
    contributions = [(st.choices, st.flips, _front_term(st, cache))
                     for st in nonzero_states(f.events, FRONT_ALPHABET, table)]
    rhs = DeltaFraction.sum(t for _c, _f, t in contributions)
    return Certificate(lhs=lhs, rhs=rhs, equal=lhs == rhs,
                       contributions=contributions)


@dataclass
class LemmaRow:
    choices: tuple[int, ...]
    flips: tuple[bool, ...]
    min_a_degree: int
    bound: int
    nonnegative: bool
    respects_bound: bool


def lemma_check(f: FrontWord, cache: Optional[SkeinCache] = None) -> list[LemmaRow]:
    """Per-state least a-degrees of the front state-sum contributions.

    Each nonvanishing contribution should be a genuine polynomial in a, with
    least degree at least 2(#left-up - V) + |mu| - mu for the state's mu.
    """
    if cache is None:
        cache = SkeinCache.from_env()
    rows = []
    for st in nonzero_states(f.events, FRONT_ALPHABET, FRONT_WEIGHTS):
        term = _front_term(st, cache)
        if term.is_zero():
            continue
        ea = term.numerator.min_degree("second")
        mu = st.left_up - st.right_down
        bound = 2 * (st.left_up - st.v_count) + abs(mu) - mu
        rows.append(LemmaRow(choices=st.choices, flips=st.flips,
                             min_a_degree=ea, bound=bound,
                             nonnegative=ea >= 0,
                             respects_bound=ea >= bound))
    return rows


def proof_chain_check(f: FrontWord, cache: Optional[SkeinCache] = None) -> dict:
    """The per-state relations tying front states to diagram states.

    Checks, for every state: R(K_sigma) = a^-nu_sigma R(l_sigma),
    [K, sigma] = (-1)^H tau^(V+H), nu = nu_sigma - V, and
    nu_sigma - r(K_sigma) = #left-up + #right-down; plus the cusp-rounding
    relation D(l)(tau, a^2 t^-1) = (a^2 t^-1)^nu D(K)(tau, a^2 t^-1).
    """
    if cache is None:
        cache = SkeinCache.from_env()
    nu = f.cusp_count() // 2
    out = {"states": 0, "weight_ok": True, "nu_ok": True, "rot_ok": True,
           "r_factor_ok": True, "master_ok": None}
    for st in nonzero_states(f.events, FRONT_ALPHABET, FRONT_WEIGHTS):
        out["states"] += 1
        lsig = FrontWord(st.spliced_events, st.spliced_dirs)
        ksig = lsig.rounded()
        nu_sig = lsig.cusp_count() // 2
        if nu != nu_sig - st.v_count:
            out["nu_ok"] = False
        if nu_sig - ksig.rotation != st.left_up + st.right_down:
            out["rot_ok"] = False
        # front weight sign (t a^-2)^V tau^(V+H) = (t a^-2)^V (-1)^H tau^(V+H)
        if st.sign != (-1) ** st.h_count:
            out["weight_ok"] = False
        r_l = homfly_R(lsig.morsify(), cache)
        r_k = homfly_R(ksig, cache)
        if r_k != r_l.shift(0, -nu_sig):
            out["r_factor_ok"] = False
    d_l = substitute_jaeger(kauffman_D(f.morsify(), cache), "kauffman_lhs")
    d_k = substitute_jaeger(kauffman_D(f.rounded(), cache), "kauffman_lhs")
    pre = LaurentPoly.monomial(1, -nu, 2 * nu)  # (a^2 t^-1)^nu
    out["master_ok"] = d_l == d_k * pre
    return out
