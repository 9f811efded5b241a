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
is dropped when a site has no entry or when its patterns cannot all hold.
The choices are walked site by site on a parity union-find over the strand
segments, which finds a contradictory prefix before anything is spliced
and drops its whole subtree.  One `diagram.scan` per surviving choice
splices and orients (each component's first-born thread at the alphabet's
seed dir); its probes name the threads each site's pattern reads, and the
patterns pin the orientation flips of the components they touch, so
zero-weight states are never formed.  Under an empty weight table only the
unspliced choice survives, so the states are every orientation of the
object, with their rotations and cusp tallies.  A state is the spliced,
oriented object, with `events` and `dirs` as on any closed diagram here:
it reaches `homfly_R` as it is, a front state with its events morsified.
The states of one splice choice share one event list, which the engine
then reduces once, and R's image under the substitution is computed once
per distinct R on a cache.  The proof chain's object per state is the
rounding K_sigma: the choice's rounded events, scanned once per choice,
with the state's dirs, which must be the scan's flipped on whole
components.

The three front checks, `lj_both_sides`, `proof_chain_check` and
`lemma_check`, read one state table per front and weight table
(`_front_states`): the states are enumerated, each l_sigma's R evaluated
and each term formed once, and the table stays on the `SkeinCache` until
another front or table comes.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional, Sequence

from .laurent import LaurentPoly, DeltaFraction, substitute_jaeger
from .diagram import DIAGRAM_KINDS, DiagramError, Scan, check_dirs, scan
from .front import FRONT_KINDS, FrontWord, diagram_events_of
from .skein import ClosedDiagram, Oriented, SkeinCache, homfly_R, kauffman_D

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
    """One state: the spliced, oriented object and how it was spliced."""

    choices: tuple[int, ...]          # per crossing: 0 none, 1 horizontal, 2 wall/cusp pair
    flips: tuple[bool, ...]           # per component of the spliced object
    v_count: int
    h_count: int
    events: tuple                     # spliced events
    dirs: tuple                       # per thread of the spliced object, +-1
    left_up: int                      # cups whose lower thread runs west
    right_down: int                   # caps whose lower thread runs west
    sign: int                         # product of the local weights' signs

    @property
    def r_sigma(self) -> int:
        """Rotation of the spliced, oriented object; two threads per cup."""
        return len(self.dirs) // 2 - self.left_up - self.right_down


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


class _ParityForest:
    """Union-find with a parity bit from each node to its parent (Tarjan,
    J. ACM 22, 1975): two nodes joined at parity 0 run the same way, at
    parity 1 opposite ways.

    Union by size and no path compression, so `rollback` undoes unions
    last first by detaching the roots they attached.
    """

    __slots__ = ("parent", "parity", "size", "history")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n
        self.size = [1] * n
        self.history: list[int] = []  # the attached roots, in order

    def join(self, unions) -> bool:
        """Join each (x, y, p) of `unions` at parity p, or nothing: False
        when one of them closes an odd cycle, a pair joined already at the
        other parity."""
        parent, parity, size, history = (self.parent, self.parity,
                                          self.size, self.history)
        mark = len(history)
        for x, y, p in unions:
            while parent[x] != x:
                p ^= parity[x]
                x = parent[x]
            while parent[y] != y:
                p ^= parity[y]
                y = parent[y]
            if x == y:
                if p:
                    self.rollback(mark)
                    return False
                continue
            if size[x] < size[y]:
                x, y = y, x
            parent[y] = x
            parity[y] = p
            size[x] += size[y]
            history.append(y)
        return True

    def rollback(self, mark: int) -> None:
        """Undo the unions made since `history` had `mark` entries (a
        root's parity is never read, so it is left as it was)."""
        history = self.history
        while len(history) > mark:
            ry = history.pop()
            self.size[self.parent[ry]] -= self.size[ry]
            self.parent[ry] = ry


def _surviving_choices(base: Scan, alphabet: Alphabet,
                       pattern_of: dict) -> list:
    """(choices, patterns, sign) of each full splice choice of the
    unspliced scan `base` whose patterns can all hold, in
    `itertools.product` order.

    The choices are walked depth first on a parity forest of the strand
    segments, the stretches of `base`'s threads between the crossings they
    pass, plus a node `east` for the east direction.  Cups and caps make
    their two segments opposite for every choice.  At a crossing with
    segments a, b before it (lower, upper) and c, d after it, choice 0
    joins a to d and b to c, choice 1 joins a to c and b to d, and choice 2
    makes a, b opposite and c, d opposite; a pattern pins the two segments
    its probe reads (a and b for choice 1, a and c for choice 2) to `east`,
    at parity 1 for a westward dir.  A choice with no table entry is
    skipped, and one whose unions close an odd cycle is pruned with its
    whole subtree.
    """
    first, into = [], {}
    n = 0
    for t, plist in enumerate(base.passes):
        first.append(n)
        for cn in plist:
            into[cn, t] = n  # n + 1 leaves crossing cn
            n += 1
        n += 1
    east = n
    forest = _ParityForest(n + 1)
    last = [f + len(plist) for f, plist in zip(first, base.passes)]
    forest.join([(first[lo], first[lo + 1], 1) for lo in base.cup_lows])
    forest.join([(last[lo], last[base.cap_mate[lo]], 1) for lo in base.cap_lows])
    forest.history.clear()  # these are never undone
    options = []  # per crossing: (choice, pattern, coeff, unions)
    for cn, (idx, lo, hi, _s) in enumerate(base.crossings):
        a, b = into[cn, lo], into[cn, hi]
        c, d = b + 1, a + 1
        opts = [(0, None, 1, ((a, d, 0), (b, c, 0)))]
        for choice, joins, pinned in ((1, ((a, c, 0), (b, d, 0)), (a, b)),
                                      (2, ((a, b, 1), (c, d, 1)), (a, c))):
            entry = pattern_of.get(base.events[idx][2:]
                                   + (alphabet.labels[choice - 1],))
            if entry is not None:
                pattern, coeff = entry
                pins = tuple((x, east, int(want < 0))
                             for x, want in zip(pinned, pattern))
                opts.append((choice, pattern, coeff, joins + pins))
        options.append(opts)

    out: list = []
    choices: list = []
    patterns: list = []

    def walk(sign: int) -> None:
        k = len(choices)
        if k == len(options):
            out.append((tuple(choices), patterns[:], sign))
            return
        for choice, pattern, coeff, unions in options[k]:
            mark = len(forest.history)
            if forest.join(unions):
                choices.append(choice)
                if pattern:
                    patterns.append(pattern)
                walk(sign * coeff)
                if pattern:
                    patterns.pop()
                choices.pop()
                forest.rollback(mark)

    walk(1)
    return out


def nonzero_states(events: Sequence, alphabet: Alphabet,
                   weights: dict) -> Iterator[SpliceState]:
    """The states of nonzero weight, by splice choices, then by flips.

    Choices run over (0, 1, 2)^crossings and flips over one bit per
    component of the spliced object, both in `itertools.product` order.
    A table gives each site key one weighted pattern, and only the choices
    whose patterns can all hold are spliced (`_surviving_choices`), each by
    one `scan`.  Its probes pin the flips of the components they touch
    (`_pin`), and only the unpinned components run over both bits.  The
    scan of the unspliced events, which is choice 0 everywhere, validates
    them before anything is yielded.  With `weights` empty, that choice is
    the only one, and its states run over every flips vector.
    """
    pattern_of = {key[:-1]: (key[-1], coeff)
                  for key, coeff in weights.items() if coeff}
    base = scan(events, alphabet)
    for chosen, patterns, sign in _surviving_choices(base, alphabet, pattern_of):
        sp = scan(events, alphabet, choices=chosen) if any(chosen) else base
        pinned = _pin(sp, patterns)
        if pinned is None:
            raise AssertionError(f"splice choice {chosen} passed the parity "
                                 "forest but its patterns disagree")
        comps = sp.components
        at = {c: i for i, c in enumerate(comps)}
        comp_at = [at[c] for c in sp.component_of]  # per thread
        flips = [pinned.get(c, False) for c in comps]  # free bits set below
        free = [i for i, c in enumerate(comps) if c not in pinned]
        v_count, h_count = chosen.count(2), chosen.count(1)
        for bits in itertools.product((False, True), repeat=len(free)):
            for i, bit in zip(free, bits):
                flips[i] = bit
            dirs = tuple([-d if flips[i] else d
                          for d, i in zip(sp.dirs, comp_at)])
            yield SpliceState(
                choices=chosen, flips=tuple(flips),
                v_count=v_count, h_count=h_count,
                events=sp.events, dirs=dirs,
                left_up=sum([dirs[lo] < 0 for lo in sp.cup_lows]),
                right_down=sum([dirs[lo] < 0 for lo in sp.cap_lows]),
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


def _rhs_image(r: LaurentPoly, cache: SkeinCache) -> tuple[LaurentPoly,
                                                           DeltaFraction]:
    """(R, R's image under the right-hand side's substitution), computed
    once per distinct R on a cache and kept, keyed by R, in its table
    `substituted`; the R returned is the first one stored, so equal values
    are one object."""
    images = cache.tables.setdefault("substituted", {})
    entry = images.get(r)
    if entry is None:
        entry = images[r] = (r, substitute_jaeger(r, "homfly_rhs"))
    return entry


def jaeger_both_sides(d: ClosedDiagram, cache: SkeinCache,
                      weights: Optional[dict] = None) -> Certificate:
    """Evaluate both sides of the state-sum identity for a diagram."""
    lhs = substitute_jaeger(kauffman_D(d, cache), "kauffman_lhs")
    contributions = []
    table = DIAGRAM_WEIGHTS if weights is None else weights
    for st in nonzero_states(d.events, DIAGRAM_ALPHABET, table):
        _r, rsub = _rhs_image(homfly_R(st, cache), cache)
        # [K, state] (t a^-1)^r = sign (t a^-1)^r tau^(V+H)
        unit = LaurentPoly.monomial(st.sign, st.r_sigma, -st.r_sigma)
        term = rsub.scaled(unit, st.v_count + st.h_count)
        contributions.append((st.choices, st.flips, term))
    rhs = DeltaFraction.sum(t for _c, _f, t in contributions)
    return Certificate(lhs=lhs, rhs=rhs, equal=lhs == rhs,
                       contributions=contributions)


# -- front states --------------------------------------------------------------


class _FrontStates(NamedTuple):
    """One front's state table under one weight table (`_front_states`).

    Per state, in `nonzero_states` order: the state as enumerated (its
    events unmorsified), R(l_sigma) of its morsification, and its term
    (a t^-1)^(#left-up + #right-down) [L, state] R(l_sigma).
    """

    events: tuple                     # the front's
    weights: dict                     # a copy of the weight table
    lhs: DeltaFraction                # D of the morsified front, substituted
    states: list
    r_values: list
    terms: list


def _front_states(f: FrontWord, cache: SkeinCache,
                  table: dict) -> _FrontStates:
    """The front's state table, enumerated once per front and weight table
    on a cache.

    The table sits in the cache's table `front_states` until another front
    or table comes, and is dropped before the next one is built.  Each splice
    choice is morsified once (its states share their event list), and each
    state reaches `homfly_R` once, with its events morsified.
    """
    slot = cache.tables.get("front_states")
    if slot is not None and slot.events == f.events and slot.weights == table:
        return slot
    cache.tables.pop("front_states", None)
    lhs = substitute_jaeger(kauffman_D(f.morsify(), cache), "kauffman_lhs")
    states, r_values, terms = [], [], []
    events = morse = None
    # equal terms are kept as one object; R is interned by `_rhs_image`,
    # so its id names its value here
    term_of = {}
    for st in nonzero_states(f.events, FRONT_ALPHABET, table):
        if st.events is not events:
            events = st.events
            morse = tuple(diagram_events_of(events, morsified=True))
        r, rsub = _rhs_image(homfly_R(replace(st, events=morse), cache), cache)
        e = st.left_up + st.right_down
        v = st.v_count
        # sign (a t^-1)^e (t a^-2)^V tau^(V+H)
        key = (id(r), st.sign, v - e, e - 2 * v, v + st.h_count)
        term = term_of.get(key)
        if term is None:
            unit = LaurentPoly.monomial(st.sign, v - e, e - 2 * v)
            term = term_of[key] = rsub.scaled(unit, v + st.h_count)
        states.append(st)
        r_values.append(r)
        terms.append(term)
    slot = cache.tables["front_states"] = _FrontStates(
        f.events, dict(table), lhs, states, r_values, terms)
    return slot


def lj_both_sides(f: FrontWord, cache: SkeinCache,
                  weights: Optional[dict] = None) -> Certificate:
    """Evaluate both sides of the front version of the state sum."""
    table = FRONT_WEIGHTS if weights is None else weights
    fs = _front_states(f, cache, table)
    contributions = [(st.choices, st.flips, term)
                     for st, term in zip(fs.states, fs.terms)]
    rhs = DeltaFraction.sum(fs.terms)
    return Certificate(lhs=fs.lhs, rhs=rhs, equal=fs.lhs == rhs,
                       contributions=contributions)


@dataclass
class LemmaRow:
    choices: tuple[int, ...]
    flips: tuple[bool, ...]
    min_a_degree: int
    bound: int
    nonnegative: bool
    respects_bound: bool


def lemma_check(f: FrontWord, cache: SkeinCache) -> list[LemmaRow]:
    """Per-state least a-degrees of the front state-sum contributions.

    Each nonvanishing contribution should be a genuine polynomial in a, with
    least degree at least 2(#left-up - V) + |mu| - mu for the state's mu.
    The terms and tallies are read off the front's state table.
    """
    fs = _front_states(f, cache, FRONT_WEIGHTS)
    rows = []
    for st, term in zip(fs.states, fs.terms):
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


def _check_flips(k_sigma: Scan, dirs: tuple) -> None:
    """Check that `dirs` are `k_sigma`'s dirs flipped on whole components:
    the orientations `scan` accepts, each thread's dir +-1 and opposite to
    its cap mate's and its birth mate's."""
    check_dirs(dirs, len(k_sigma.dirs))
    flip = list(map(operator.mul, dirs, k_sigma.dirs))
    # a component is named by one of its threads
    if flip != [flip[c] for c in k_sigma.component_of]:
        raise DiagramError("inconsistent orientation assignment")


def proof_chain_check(f: FrontWord, cache: SkeinCache) -> dict:
    """The per-state relations tying front states to diagram states.

    Checks, for every state: R(K_sigma) = a^-nu_sigma R(l_sigma),
    [K, sigma] = (-1)^H tau^(V+H), nu = nu_sigma - V, and
    nu_sigma - r(K_sigma) = #left-up + #right-down; plus the cusp-rounding
    relation D(l)(tau, a^2 t^-1) = (a^2 t^-1)^nu D(K)(tau, a^2 t^-1).
    K_sigma is read from its own events and dirs, not from the state's
    tallies: each splice choice is rounded and scanned once, which
    validates the rounded events and gives their cups, caps and
    components; each state's dirs must be the scan's flipped on whole
    components (else `DiagramError`), and nu_sigma and r(K_sigma) are read
    from the cups and caps with those dirs.  R(l_sigma) and D of the
    morsified front come from the front's state table, and the K_sigma
    values of one choice meet the engine in one run.
    """
    nu = f.cusp_count() // 2
    out = {"states": 0, "weight_ok": True, "nu_ok": True, "rot_ok": True,
           "r_factor_ok": True, "master_ok": None}
    fs = _front_states(f, cache, FRONT_WEIGHTS)
    events = None
    for st, r_l in zip(fs.states, fs.r_values):
        if st.events is not events:  # the states of one choice share theirs
            events = st.events
            rounded = tuple(diagram_events_of(events))
            k_sigma = scan(rounded, DIAGRAM_KINDS)
            lows = (*k_sigma.cup_lows, *k_sigma.cap_lows)
            nu_sig = len(k_sigma.cup_lows)  # l_sigma: two cusps per cup
        out["states"] += 1
        dirs = st.dirs
        _check_flips(k_sigma, dirs)
        if nu != nu_sig - st.v_count:
            out["nu_ok"] = False
        rotation = sum([dirs[lo] for lo in lows]) // 2
        if nu_sig - rotation != st.left_up + st.right_down:
            out["rot_ok"] = False
        # front weight sign (t a^-2)^V tau^(V+H) = (t a^-2)^V (-1)^H tau^(V+H)
        if st.sign != (-1) ** st.h_count:
            out["weight_ok"] = False
        if homfly_R(Oriented(rounded, dirs), cache) != r_l.shift(0, -nu_sig):
            out["r_factor_ok"] = False
    d_k = substitute_jaeger(kauffman_D(f.rounded(), cache), "kauffman_lhs")
    pre = LaurentPoly.monomial(1, -nu, 2 * nu)  # (a^2 t^-1)^nu
    out["master_ok"] = fs.lhs == d_k.scaled(pre, 0)
    return out
