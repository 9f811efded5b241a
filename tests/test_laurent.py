import random

import pytest

from knotpoly.laurent import (LaurentPoly, DeltaFraction, TAU, exact_divide,
                              exact_divide_delta, substitute_jaeger)

from conftest import A, AINV, ZVAR, P_TREFOIL

ONE = LaurentPoly.one()
T = LaurentPoly.monomial(1, 1, 0)
TINV = LaurentPoly.monomial(1, -1, 0)


def rand_poly(rng, span=4, terms=6):
    return LaurentPoly({(rng.randint(-span, span), rng.randint(-span, span)):
                        rng.randint(-5, 5) for _ in range(rng.randint(0, terms))})


def test_difference_of_squares():
    assert (A - AINV) * (A + AINV) == A * A - AINV * AINV


def test_power_matches_repeated_product_and_rejects_negative_exponents():
    rng = random.Random(3)
    for _ in range(10):
        p, prod = rand_poly(rng, terms=3), ONE
        for n in range(5):
            assert p ** n == prod
            prod = prod * p
    for p in (A, -AINV, TAU, LaurentPoly()):
        with pytest.raises(ValueError):
            p ** -1


def test_additive_identity():
    rng = random.Random(0)
    for _ in range(20):
        p = rand_poly(rng)
        assert p + LaurentPoly() == p


def test_trefoil_expansion_product():
    prod = (A - AINV).shift(-1, 0) * (2 * A - AINV + A * ZVAR * ZVAR)
    assert prod.shift(0, -3) == P_TREFOIL
    assert P_TREFOIL.min_degree("second") == -5


def test_min_degree_examples():
    assert P_TREFOIL.min_degree("second") == -5
    assert ONE.min_degree("second") == 0
    assert ONE.min_degree("first") == 0
    with pytest.raises(ValueError):
        LaurentPoly().min_degree("second")


def test_exact_divide_delta_examples():
    assert exact_divide_delta(T * T - TINV * TINV) == T + TINV
    assert exact_divide_delta(A - AINV) is None
    assert exact_divide_delta(TAU * TAU) == TAU
    assert exact_divide_delta(LaurentPoly()) == LaurentPoly()


def test_exact_divide_refuses_a_non_unit_leading_coefficient():
    """The divisor's leading coefficient in the divided variable must be
    +-1 times one monomial in the other."""
    for divisor in (A + A, A + T * A):
        with pytest.raises(ValueError, match="divisor leading coefficient "
                                             "must be a unit monomial"):
            exact_divide(A * A, divisor, "second")


def test_delta_fraction_refuses_a_negative_denom_power():
    with pytest.raises(ValueError, match="denom_power must be nonnegative"):
        DeltaFraction(ONE, -1)


def test_exact_divide_random_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        p = rand_poly(rng)
        assert exact_divide_delta(p * TAU) == p
        assert exact_divide(p * (A - AINV), A - AINV, "second") == p
        if not p.is_zero():
            q = exact_divide_delta(p * TAU + ONE)
            # the added 1 breaks divisibility unless it cancels a term
            if q is not None:
                assert q * TAU == p * TAU + ONE


def test_substitute_examples():
    delta = (A - AINV).shift(-1, 0)
    df = substitute_jaeger(delta, "homfly_rhs")
    assert df.denom_power == 1 and df.numerator == A - AINV

    d_unknot = ONE + delta
    lhs = substitute_jaeger(d_unknot, "kauffman_lhs")
    expected = DeltaFraction(TAU + LaurentPoly({(-1, 2): 1})
                             - LaurentPoly({(1, -2): 1}), 1)
    assert lhs == expected

    for side in ("kauffman_lhs", "homfly_rhs"):
        assert substitute_jaeger(ZVAR * ZVAR, side) == DeltaFraction(TAU * TAU, 0)

    with pytest.raises(ValueError):
        substitute_jaeger(ONE, "nope")


def test_frac_ops_examples():
    x = DeltaFraction(A * A - ONE, 1)
    zero = x + DeltaFraction(-(A * A - ONE), 1)
    assert zero.is_zero() and zero.denom_power == 0
    assert x * DeltaFraction(ONE, 0) == x

    # the two-term sum from the first printed state expansion
    aa1 = A * A - ONE
    rhs = DeltaFraction(aa1, 1) + DeltaFraction(aa1 * LaurentPoly.monomial(1, -2, 2), 1)
    d_unknot = ONE + (A - AINV).shift(-1, 0)
    lhs = substitute_jaeger(d_unknot * A.shift(0, 1), "kauffman_lhs")
    # lhs = (a^2 t^-1) * substituted unknot value
    lhs2 = substitute_jaeger(d_unknot, "kauffman_lhs") * LaurentPoly.monomial(1, -1, 2)
    assert lhs2 == rhs


def test_ring_axioms_random():
    rng = random.Random(2)
    for _ in range(200):
        p, q, r = (rand_poly(rng, 3, 5) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_min_degree_multiplicative_on_monomial_products():
    rng = random.Random(3)
    for _ in range(200):
        p = rand_poly(rng)
        if p.is_zero():
            continue
        mono = LaurentPoly.monomial(rng.choice([1, -1, 2]),
                                    rng.randint(-3, 3), rng.randint(-3, 3))
        prod = mono * p
        assert prod.min_degree("second") == mono.min_degree("second") + p.min_degree("second")
        assert prod.min_degree("first") == mono.min_degree("first") + p.min_degree("first")


def test_substitution_is_ring_homomorphism():
    rng = random.Random(4)
    for _ in range(200):
        p = rand_poly(rng, 3, 5)
        q = rand_poly(rng, 3, 5)
        for side in ("kauffman_lhs", "homfly_rhs"):
            assert substitute_jaeger(p * q, side) == \
                substitute_jaeger(p, side) * substitute_jaeger(q, side)
            assert substitute_jaeger(p + q, side) == \
                substitute_jaeger(p, side) + substitute_jaeger(q, side)


def test_normalization_idempotent():
    rng = random.Random(5)
    for _ in range(100):
        p = rand_poly(rng)
        k = rng.randint(0, 3)
        f = DeltaFraction(p * TAU ** k, k + rng.randint(0, 2))
        g = DeltaFraction(f.numerator, f.denom_power)
        assert f == g
        assert f + DeltaFraction.zero() == f
        assert (f + f) == f * LaurentPoly.monomial(2, 0, 0)


def test_json_round_trip_and_sorting():
    p = LaurentPoly({(2, -1): 3, (-1, 2): -4, (0, 0): 7})
    blob = p.to_json()
    assert blob == sorted(blob, key=lambda d: (d["ea"], d["ez"]))
    assert all(isinstance(d["c"], str) for d in blob)
    assert LaurentPoly.from_json(blob) == p


@pytest.mark.parametrize("blob", [
    {"ez": 0, "ea": 0, "c": "1"},                # not a list
    [{"ez": 0}],                                 # keys missing
    [{"ez": 0, "ea": 0, "c": "1", "x": 0}],      # a key too many
    [{"ez": "0", "ea": 0, "c": "1"}],            # exponent not an integer
    [{"ez": True, "ea": 0, "c": "1"}],
    [{"ez": 0, "ea": 0, "c": 1}],                # coefficient not a string
    [{"ez": 0, "ea": 0, "c": "1.5"}],
    [{"ez": 0, "ea": 0, "c": ""}],
    [[0, 0, "1"]],
])
def test_from_json_rejects_other_shapes(blob):
    with pytest.raises(ValueError):
        LaurentPoly.from_json(blob)


@pytest.mark.parametrize("blob", [
    [{"ez": 0, "ea": 0, "c": "1"}, {"ez": 0, "ea": 0, "c": "2"}],  # repeated term
    [{"ez": 1, "ea": 0, "c": "1"}, {"ez": 1, "ea": 0, "c": "-1"}],
    [{"ez": 0, "ea": 0, "c": "0"}],                                # zero coefficient
    [{"ez": 1, "ea": 2, "c": "3"}, {"ez": 0, "ea": 0, "c": "-0"}],
])
def test_from_json_rejects_terms_to_json_never_writes(blob):
    with pytest.raises(ValueError):
        LaurentPoly.from_json(blob)


def test_exact_divide_delta_matches_generic_division():
    """The synthetic t - t^-1 kernel against the generic long division."""
    rng = random.Random(3)
    inputs = [LaurentPoly()]
    for _ in range(300):
        row = rng.randint(-3, 3)
        inputs.append(LaurentPoly({(rng.randint(-6, 6), row): rng.randint(-9, 9)
                                   for _ in range(rng.randint(1, 6))}))
        inputs.append(rand_poly(rng, span=6, terms=10))
    divisible = 0
    for p in inputs:
        for k in range(4):
            for q in (p * TAU ** k, p * TAU ** k + rand_poly(rng, span=2, terms=2)):
                got = exact_divide_delta(q)
                assert got == exact_divide(q, TAU, "first"), q
                divisible += got is not None and not q.is_zero()
                if got is not None:
                    assert got * TAU == q
    assert divisible > 1000


def test_delta_fraction_sum_and_scaled_match_operators():
    rng = random.Random(4)
    for _ in range(100):
        fracs = [DeltaFraction(rand_poly(rng), rng.randint(0, 3))
                 for _ in range(rng.randint(0, 6))]
        total = DeltaFraction.zero()
        for f in fracs:
            total = total + f
        assert DeltaFraction.sum(fracs) == total
        for f in fracs:
            unit = LaurentPoly.monomial(rng.choice((1, -1)), rng.randint(-3, 3),
                                        rng.randint(-3, 3))
            k = rng.randint(0, 4)
            assert f.scaled(unit, k) == f * (unit * TAU ** k)
