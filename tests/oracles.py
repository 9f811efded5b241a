"""The Kauffman bracket computed directly: an oracle that shares no code with the
knotpoly engines.

A diagram is an event list on a stack of strands, as in `diagram.py`:
("cup", i), ("cap", i) and ("x", i, s), where s = +1 means the strand
entering at the lower level passes over.  The bracket sums over the 2^c
states that open each crossing horizontally (the strands keep their levels)
or vertically (a cap, then a cup), with the loops of each state counted by
union-find:

    <K> = sum over states of A^(#horizontal s - #vertical s) d^(loops),
    d = -A^2 - A^-2,

so the horizontal opening is the A-smoothing of a crossing of sign +1 and
the empty diagram has bracket 1.  With z = A - A^-1 and a = -A^3 this is D:
D(L+) - D(L-) = z (D(L_par) - D(L_turn)) holds term by term, and
delta_D = d.  With a = A^4 and z = A^-2 - A^2, P = a^-w R is the Jones
polynomial (-A^3)^-w <K>.

The SO(4) point of D (Turaev, "The Yang-Baxter equation and invariants of
links", Invent. Math. 92, 1988; so(4) = sl(2) + sl(2)) is a second
specialization, read off the first: D(z = q - q^-1, a = q^3) = q^-w J(q)^2
for a diagram of writhe w, with J = R(z = q - q^-1, a = q^2).  J comes
from the bracket: R(z = A^-2 - A^2, a = A^4) = (-1)^w A^w <K> by the
conventions above, every z exponent of R has the parity of r for r
components (R(unknot) = (a - a^-1) / z), and q = A^2 turns z = q - q^-1 into -(A^-2 - A^2).

The so(N) point of D (Turaev, same paper) comes from the braid operator of
the vector representation of U_q(so_N) (`so_events`): D(z = q - q^-1,
a = q^(N-1)) is the value of the event list with Ř, Ř^-1, cups and caps
read as operators on tensor powers of V = C^N.  On an open tangle the same
reading gives an operator, so an identity of tangles in the BMW algebra is
an identity of operators.

Polynomials in A (or q) are dicts {exponent: coefficient}; those of the
so(N) oracle are in s = q^(1/2), since rho is half-integral for odd N.  A
knotpoly polynomial enters as its terms {(z exponent, a exponent):
coefficient}.
"""

from functools import lru_cache
from itertools import product


def closure(strands: int, letters) -> list:
    """The events of a braid word's closure: the strands at the bottom, the
    return strands nested above them."""
    events = [("cup", i) for i in range(strands)]
    events += [("x", abs(l) - 1, 1 if l > 0 else -1) for l in letters]
    return events + [("cap", i) for i in range(strands - 1, -1, -1)]


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(p: dict, k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = mul(out, p)
    return out


LOOP = {2: -1, -2: -1}  # d = -A^2 - A^-2


def _loops(events: list, vertical: list) -> int:
    """The loops of the state that opens the crossing j vertically when
    vertical[j], else horizontally."""
    parent: list = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack: list = []
    j = 0
    for ev in events:
        kind, i = ev[0], ev[1]
        if kind == "x":
            j += 1
            if not vertical[j - 1]:
                continue
        if kind != "cup":  # a cap, or the cap of a vertical opening
            parent[find(stack[i])] = find(stack[i + 1])
            del stack[i:i + 2]
            if kind == "cap":
                continue
        parent.append(len(parent))
        stack[i:i] = [parent[-1]] * 2
    return sum(1 for x in range(len(parent)) if find(x) == x)


def bracket(events: list) -> dict:
    """<K> of a closed event list, by its 2^c states."""
    signs = [ev[2] for ev in events if ev[0] == "x"]
    tally: dict = {}  # (A exponent, loops) -> states
    for state in range(1 << len(signs)):
        vertical = [state >> j & 1 for j in range(len(signs))]
        exp = sum(-s if v else s for s, v in zip(signs, vertical))
        key = (exp, _loops(events, vertical))
        tally[key] = tally.get(key, 0) + 1
    out: dict = {}
    for (exp, loops), count in tally.items():
        for e, c in power(LOOP, loops).items():
            out[e + exp] = out.get(e + exp, 0) + count * c
    return {e: c for e, c in out.items() if c}


def components(events: list) -> int:
    """The components of a closed event list, by union-find."""
    parent: list = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack: list = []
    for ev in events:
        kind, i = ev[0], ev[1]
        if kind == "cup":
            parent.append(len(parent))
            stack[i:i] = [parent[-1]] * 2
        elif kind == "cap":
            parent[find(stack[i])] = find(stack[i + 1])
            del stack[i:i + 2]
        else:
            stack[i], stack[i + 1] = stack[i + 1], stack[i]
    return sum(1 for x in range(len(parent)) if find(x) == x)


def jones(K: dict, r: int, w: int) -> dict:
    """J(q) = R(z = q - q^-1, a = q^2) of a closed diagram with bracket K,
    r components and writhe w: (-1)^(r + w) A^w <K> at A = q^(1/2)."""
    sign = (-1) ** ((r + w) % 2)
    out = {}
    for e, c in K.items():
        assert (e + w) % 2 == 0, "A^w <K> has an odd power of A"
        out[(e + w) // 2] = sign * c
    return out


def so4(K: dict, r: int, w: int) -> dict:
    """D(z = q - q^-1, a = q^3) of a closed diagram with bracket K and r
    components: q^-w J(q)^2, under any orientation, with w its writhe."""
    J = jones(K, r, w)
    return mul({-w: 1}, mul(J, J))


def specialize(terms: dict, z: dict, a: tuple, m: int) -> dict:
    """z^m p(z, a) for p = sum of c z^ez a^ea over `terms`, with a = sign
    A^k given as (sign, k); m must clear the negative powers of z."""
    sign, k = a
    out: dict = {}
    for (ez, ea), c in terms.items():
        assert ez + m >= 0, "m does not clear the negative powers of z"
        for e, c2 in power(z, ez + m).items():
            e += k * ea
            out[e] = out.get(e, 0) + c * c2 * sign ** (ea % 2)
    return {e: c for e, c in out.items() if c}


# -- Alexander polynomial from the reduced Burau matrix ------------------------


def add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def divide(p: dict, q: dict) -> dict:
    """p / q for Laurent polynomials; asserts that q divides p."""
    p = dict(p)
    out: dict = {}
    top_q, floor = max(q), (min(p) - min(q) if p else 0)
    while p:
        top = max(p)
        c, r = divmod(p[top], q[top_q])
        assert r == 0 and top - top_q >= floor, "not divisible"
        out[top - top_q] = c
        p = add(p, {e + top - top_q: c * c2 for e, c2 in q.items()}, -1)
    return out


def determinant(rows: list) -> dict:
    """det of a square matrix of Laurent polynomials, by fraction-free
    Bareiss elimination: each division by the last pivot is exact."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, {0: 1}
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return {}
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = divide(add(mul(m[i][j], m[k][k]),
                                     mul(m[i][k], m[k][j]), -1), prev)
        prev = m[k][k]
    return {e: sign * c for e, c in m[-1][-1].items()} if n else {0: 1}


def alexander(strands: int, letters) -> dict:
    """Delta(t) of a braid closure, up to a unit +-t^k:
    det(I - psi(b)) / (1 + t + ... + t^(n-1)) for the reduced Burau matrix
    psi(b), the product of psi(s_i) = I but for row i - 1, which is
    (t, -t, 1) at columns i - 2, i - 1, i (those that exist), and of
    psi(s_i^-1) = I but for row i - 1, (1, -t^-1, t^-1)."""
    m = strands - 1
    psi = [[{0: 1} if r == c else {} for c in range(m)] for r in range(m)]
    for l in reversed(letters):  # psi(b) = psi(l_1) ... psi(l_k)
        i = abs(l) - 1
        row = ({i - 1: {1: 1}, i: {1: -1}, i + 1: {0: 1}} if l > 0 else
               {i - 1: {0: 1}, i: {-1: -1}, i + 1: {-1: 1}})
        new = {}
        for k, g in row.items():
            if 0 <= k < m:
                for c in range(m):
                    new[c] = add(new.get(c, {}), mul(g, psi[k][c]))
        psi[i] = [new.get(c, {}) for c in range(m)]
    eye_minus = [[add({0: 1} if r == c else {}, psi[r][c], -1)
                  for c in range(m)] for r in range(m)]
    return divide(determinant(eye_minus), {e: 1 for e in range(strands)})


def conway(p_terms: dict) -> dict:
    """The Conway polynomial {z exponent: coefficient} of a HOMFLY P given
    by its terms: P / delta at a = 1, with delta = (a - a^-1) / z.  Each
    z-slice of z P is divided by a - a^-1 exactly, then summed at a = 1."""
    slices: dict = {}
    for (ez, ea), c in p_terms.items():
        slices.setdefault(ez, {})[ea] = c
    out = {}
    for ez, p in slices.items():
        c = sum(divide(p, {1: 1, -1: -1}).values())
        if c:
            out[ez + 1] = c
    return out


def centred(p: dict) -> dict:
    """p times the unit +-s^k that centres its exponents on 0 and makes its
    value at s = 1 positive: the Conway normalization of a knot's Delta(s^2),
    which is symmetric with value +-1 at s = 1."""
    shift = (min(p) + max(p)) // 2
    sign = 1 if sum(p.values()) > 0 else -1
    return {e - shift: sign * c for e, c in p.items()}


# -- D at the so(N) point, from the R-matrix of U_q(so_N) ----------------------


@lru_cache(maxsize=None)
def so_tables(N: int) -> tuple:
    """(Ř, Ř^-1, cup weights, cap weights) of the vector representation of
    U_q(so_N), polynomials in s = q^(1/2); Ř and Ř^-1 as {(a, b): {(c, d):
    coefficient}} on e_a (x) e_b.

    The basis is 0..N-1 with a' = N - 1 - a; q^rho_a = s^(N - 2 - 2a) on the
    first half, q^rho_a' = q^-rho_a, and rho = 0 on the middle index of odd
    N.  Ř = P R with P the flip and R in the form of Faddeev, Reshetikhin
    and Takhtajan (Leningrad Math. J. 1, 1990):

        R = q sum_(a != a') E_aa (x) E_aa + sum_(b != a, a') E_aa (x) E_bb
            + q^-1 sum_(a != a') E_a'a' (x) E_aa + E_mm (x) E_mm (odd N)
            + (q - q^-1) sum_(a > b) E_ab (x) E_ba
            - (q - q^-1) sum_(a > b) q^(rho_a - rho_b) E_ab (x) E_a'b'.

    Ř^-1 comes from the cubic (Ř - q)(Ř + q^-1)(Ř - lambda) = 0, lambda =
    q^(1 - N), with no matrix inverted.  A cup inserts sum_a u_a e_a (x)
    e_a', u_a = q^-rho_a, and a cap takes e_a (x) e_a' to 1 / u_a'.
    """
    # 2 rho_a, the exponent of s in q^rho_a
    rho = [N - 2 - 2 * a if 2 * a < N - 1 else 0 if 2 * a == N - 1
           else N - 2 * a for a in range(N)]
    q, qinv, z = {2: 1}, {-2: 1}, {2: 1, -2: -1}
    R = {}
    for a in range(N):
        for b in range(N):
            out: dict = {}

            def put(c, d, coef):  # R's term e_c (x) e_d, flipped by P
                out[d, c] = add(out.get((d, c), {}), coef)
            if a == b:
                put(a, b, q if a != N - 1 - a else {0: 1})
            elif b != N - 1 - a:
                put(a, b, {0: 1})
            else:
                put(a, b, qinv)
            if b > a:
                put(b, a, z)
            if b == N - 1 - a:
                for c in range(a + 1, N):
                    put(c, N - 1 - c, mul({rho[c] - rho[a]: -1}, z))
            R[a, b] = {k: v for k, v in out.items() if v}
    lam = {2 - 2 * N: 1}
    # Ř^-1 = lambda^-1 (-Ř^2 + (q - q^-1 + lambda) Ř + 1 - lambda (q - q^-1))
    c1, c0 = add(z, lam), add({0: 1}, mul(lam, z), -1)
    R_inv = {}
    for pair in R:
        x = {pair: {0: 1}}
        once = _apply_pairs(R, x)
        total = add_vectors(add_vectors(scaled(_apply_pairs(R, once), {0: -1}),
                                        scaled(once, c1)), scaled(x, c0))
        R_inv[pair] = scaled(total, {2 * N - 2: 1})
    cup = [{-rho[a]: 1} for a in range(N)]
    cap = [{rho[N - 1 - a]: 1} for a in range(N)]  # 1 / u_a', on e_a (x) e_a'
    return R, R_inv, cup, cap


def add_vectors(x: dict, y: dict) -> dict:
    """x + y for vectors {basis tuple: polynomial}."""
    out = dict(x)
    for k, v in y.items():
        out[k] = add(out.get(k, {}), v)
    return {k: v for k, v in out.items() if v}


def scaled(x: dict, p: dict) -> dict:
    """p x for a vector {basis tuple: polynomial}."""
    return {k: mul(v, p) for k, v in x.items() if v}


def _apply_pairs(table: dict, x: dict, i: int = 0) -> dict:
    """The two-factor operator `table` applied at factors i and i + 1."""
    out: dict = {}
    for t, p in x.items():
        for (c, d), coef in table[t[i], t[i + 1]].items():
            key = t[:i] + (c, d) + t[i + 2:]
            out[key] = add(out.get(key, {}), mul(p, coef))
    return {k: v for k, v in out.items() if v}


def so_events(N: int, events, x: dict) -> dict:
    """The event list applied to the vector x {basis tuple: polynomial} of
    a tensor power of V, in list order: ("x", i, +-1) is Ř^+-1 at factors
    i and i + 1, a cup or a cap at i inserts or pairs factors i and i + 1."""
    R, R_inv, cup, cap = so_tables(N)
    for ev in events:
        kind, i = ev[0], ev[1]
        if kind == "x":
            x = _apply_pairs(R if ev[2] == 1 else R_inv, x, i)
        elif kind == "cup":
            x = {t[:i] + (a, N - 1 - a) + t[i:]: mul(p, cup[a])
                 for t, p in x.items() for a in range(N)}
        else:
            out: dict = {}
            for t, p in x.items():
                if t[i + 1] == N - 1 - t[i]:
                    key = t[:i] + t[i + 2:]
                    out[key] = add(out.get(key, {}), mul(p, cap[t[i]]))
            x = {k: v for k, v in out.items() if v}
    return x


def so_operator(N: int, strands: int, events) -> dict:
    """The operator of an event list from `strands` strands, as
    {(input tuple, output tuple): polynomial}."""
    out = {}
    for t in product(range(N), repeat=strands):
        for t2, p in so_events(N, events, {t: {0: 1}}).items():
            out[t, t2] = p
    return out
