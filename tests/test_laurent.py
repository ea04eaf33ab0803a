import random

import pytest

from clusterforge.laurent import (
    Context,
    ContextMismatch,
    LaurentPoly,
    NotDivisible,
    RatFunc,
    minkowski_sum,
    newton_polytope,
    point_in_hull,
)


CTX3 = Context(("x1", "x2", "x3"))


def x(i, ctx=CTX3):
    return ctx.var(i)


def rand_poly(rng, ctx, nterms=4, deg=3, coeff=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-deg, deg) for _ in range(ctx.nvars))
        terms[e] = rng.randint(-coeff, coeff)
    return LaurentPoly(ctx, terms)


def test_add_cancellation():
    assert x(0) + x(1) + (-x(1)) == x(0)


def test_product_difference_of_squares():
    lhs = (x(0) + x(1)) * (x(0) - x(1))
    assert lhs == x(0) * x(0) - x(1) * x(1)


def test_laurent_unit():
    one = CTX3.one()
    assert CTX3.monomial({0: -1}) * x(0) == one


def test_zero_terms_dropped():
    p = LaurentPoly(CTX3, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert p.terms == {(0, 1, 0): 2}


def test_context_mismatch():
    other = Context(("y1", "y2", "y3"))
    with pytest.raises(ContextMismatch):
        x(0) + other.var(0)


def test_divide_exact_difference_of_squares():
    num = x(0) ** 2 - x(1) ** 2
    assert num.divide_exact(x(0) - x(1)) == x(0) + x(1)


def test_divide_by_unit_monomial():
    # monomials are units of the Laurent ring, so this division is exact
    q = (x(1) + x(2)).divide_exact(x(0))
    assert q * x(0) == x(1) + x(2)


def test_divide_not_divisible():
    with pytest.raises(NotDivisible):
        (x(0) + x(1)).divide_exact(x(0) - x(1))
    with pytest.raises(NotDivisible):
        (x(0) + x(1)).divide_exact(CTX3.const(2))
    # x2 (x2^2 - x1^3) / (x1 (x2^2 - x1)): every leading term divides, but a
    # quotient term leaves the exponent box an exact quotient would stay in
    with pytest.raises(NotDivisible):
        (x(1) ** 3 - x(0) ** 3 * x(1)).divide_exact(x(0) * x(1) ** 2 - x(0) ** 2)
    with pytest.raises(NotDivisible):
        x(0).divide_exact(x(1) + CTX3.one())


def test_divide_by_monomial_factor():
    ctx = Context(("a", "b", "c", "d"))
    p = (ctx.var(0) * ctx.var(1) + ctx.var(2) * ctx.var(3)) * ctx.var(3)
    assert p.divide_exact(ctx.var(3)) == ctx.var(0) * ctx.var(1) + ctx.var(2) * ctx.var(3)


def test_divide_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a = rand_poly(rng, CTX3)
        b = rand_poly(rng, CTX3)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).divide_exact(b) == a


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (rand_poly(rng, CTX3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_expand_in_variable_basic():
    p = x(0) ** 2 * x(1) + x(1)
    pairs = p.expand_in(0)
    assert [q for q, _ in pairs] == [0, 2]
    assert pairs[0][1] == x(1) and pairs[1][1] == x(1)


def test_expand_in_variable_negative_powers():
    p = CTX3.monomial({0: -1, 2: 1}) + x(0)
    pairs = p.expand_in(0)
    assert [q for q, _ in pairs] == [-1, 1]
    assert pairs[0][1] == x(2)
    assert pairs[1][1] == CTX3.one()


def test_expand_reassembles():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng, CTX3)
        for j in range(3):
            total = CTX3.zero()
            for power, coeff in p.expand_in(j):
                total = total + coeff * CTX3.monomial({j: power})
            assert total == p


def test_leading_term_min_power():
    p = (
        CTX3.monomial({0: -2, 1: 1})
        + CTX3.monomial({0: -2, 2: 1})
        + x(0)
    )
    lt = p.leading_term_in(0)
    assert lt == CTX3.monomial({0: -2, 1: 1}) + CTX3.monomial({0: -2, 2: 1})


def test_leading_term_constant():
    assert CTX3.const(5).leading_term_in(0) == CTX3.const(5)


def test_newton_polytope_simplex():
    np_ = newton_polytope(x(0) + x(1))
    assert np_.vertices == frozenset({(1, 0, 0), (0, 1, 0)})


def test_newton_polytope_drops_interior_point():
    p = (x(0) + x(1)) ** 2  # support (2,0),(1,1),(0,2); middle not a vertex
    np_ = newton_polytope(p)
    assert np_.vertices == frozenset({(2, 0, 0), (0, 2, 0)})


def test_minkowski_sum_of_product():
    rng = random.Random(5)
    ctx = Context(("u", "v"))
    for _ in range(15):
        a = rand_poly(rng, ctx, nterms=3, deg=2, coeff=3)
        b = rand_poly(rng, ctx, nterms=3, deg=2, coeff=3)
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        if prod.is_zero():
            continue
        assert newton_polytope(prod).vertices == minkowski_sum(
            newton_polytope(a), newton_polytope(b)
        ).vertices


def test_point_in_hull_exact():
    pts = [(0, 0), (4, 0), (0, 4)]
    assert point_in_hull((1, 1), pts)
    assert point_in_hull((2, 2), pts)
    assert not point_in_hull((3, 3), pts)


def test_json_roundtrip_bit_exact():
    big = 10 ** 40 + 7
    p = LaurentPoly(CTX3, {(1, -2, 0): big, (0, 0, 0): -3})
    q = LaurentPoly.from_json(p.to_json())
    assert q == p
    assert q.terms[(1, -2, 0)] == big


def test_ratfunc_equality_cross_multiplied():
    a = RatFunc(x(0) ** 2 - x(1) ** 2, x(0) - x(1))
    b = RatFunc(x(0) + x(1), CTX3.one())
    assert a == b


def test_ratfunc_normalization():
    r = RatFunc(x(0).scale(2), x(1).scale(-4))
    # joint content removed, denominator leading sign positive
    assert r.den.terms[max(r.den.terms)] > 0
    assert r.num == x(0).scale(-1) and r.den == x(1).scale(2)


def test_ratfunc_reduce_to_laurent():
    r = RatFunc((x(0) + x(1)) * x(2), x(2))
    assert r.reduce_to_laurent() == x(0) + x(1)
    with pytest.raises(NotDivisible):
        RatFunc(x(0) + x(1), x(0) + x(2)).reduce_to_laurent()


def test_pow_negative_monomial():
    m = CTX3.monomial({0: 2, 1: -1})
    assert m ** -2 == CTX3.monomial({0: -4, 1: 2})


def test_pow_one_is_the_base_without_multiplying(monkeypatch):
    p = x(0) + x(1)
    monkeypatch.setattr(LaurentPoly, "__mul__", None)
    assert p ** 1 is p


@pytest.mark.parametrize(
    "terms, why",
    [
        ([{"exp": [1], "coef": "1"}], "entries"),
        ([{"exp": [1, 0, 0, 0], "coef": "1"}], "entries"),
        ([{"exp": [1, 0.5, 0], "coef": "1"}], "non-integer"),
        ([{"exp": [1, "0", 0], "coef": "1"}], "non-integer"),
        (
            [{"exp": [1, 0, 0], "coef": "2"}, {"exp": [1, 0, 0], "coef": "-2"}],
            "repeated",
        ),
    ],
)
def test_from_json_rejects_malformed_terms(terms, why):
    with pytest.raises(ValueError, match=why):
        LaurentPoly.from_json({"vars": list(CTX3.names), "terms": terms})
