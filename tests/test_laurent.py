import random
from operator import add
from fractions import Fraction

import pytest

from clusterforge.laurent import (
    Context,
    ContextMismatch,
    LaurentPoly,
    NotDivisible,
    _box,
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


def test_divide_cancelled_term_created_again():
    # the x^2 term cancels after the first step and returns after the second
    num = x(0) ** 4 + x(0) ** 2 + CTX3.one()
    den = x(0) ** 2 - x(0) + CTX3.one()
    assert num.divide_exact(den) == x(0) ** 2 + x(0) + CTX3.one()
    assert (num * x(1) - num).divide_exact(den * (x(1) - CTX3.one())) == num.divide_exact(den)


def test_divide_fails_on_a_term_only_the_division_creates():
    # 2x^2 + 1 by 2x + 3: the first step leaves -3x, an exponent num lacks
    num = x(0) ** 2 * CTX3.const(2) + CTX3.one()
    with pytest.raises(NotDivisible, match="leading term"):
        num.divide_exact(x(0) * CTX3.const(2) + CTX3.const(3))


def test_divide_roundtrip_large_product():
    rng = random.Random(11)
    a = rand_poly(rng, CTX3, nterms=45, deg=6, coeff=9)
    b = rand_poly(rng, CTX3, nterms=45, deg=6, coeff=9)
    product = a * b
    assert len(product.terms) > 1000
    assert product.divide_exact(b) == a
    assert product.divide_exact(a) == b
    with pytest.raises(NotDivisible):
        (product + x(2) ** 20).divide_exact(b)


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


# -- packed kernel results against an eager tuple reference ------------------


def eager_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def eager_pow(a, n):
    if n < 0:
        ((e, c),) = a.items()
        a, n = {tuple(-v for v in e): c}, -n
    out = {(0,) * len(next(iter(a))): 1}
    for _ in range(n):
        out = eager_mul(out, a)
    return out


def eager_compose(terms, values):
    out = {}
    for e, c in terms.items():
        term = {(0,) * len(next(iter(values[0]))): c}
        for v, p in zip(values, e):
            term = eager_mul(term, eager_pow(v, p))
        for f, v in term.items():
            out[f] = out.get(f, 0) + v
    return {e: c for e, c in out.items() if c}


def assert_kernel_result(p, reference, packed=True):
    """p still holds its packing, its cached box is exact, and it unpacks
    to the reference terms."""
    if packed:
        assert p._terms is None and p._packed[0] % 8 == 0
        assert p._bounds == _box(reference)
    assert p.terms == reference
    assert p._exponent_box() == _box(reference)


def test_packed_results_match_eager_reference():
    rng = random.Random(13)
    ctx = Context(("u", "v"))
    for trial in range(80):
        # mixed exponent ranges, so operands packed at 8 bits meet 16-bit calls
        deg = 3 if trial % 3 else 90
        a, b, c = (rand_poly(rng, ctx, nterms=4, deg=deg) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        ab = a * b
        assert_kernel_result(ab, eager_mul(a.terms, b.terms))
        abc = ab * c
        assert_kernel_result(abc, eager_mul(ab.terms, c.terms))
        assert_kernel_result(abc.divide_exact(c), ab.terms)
        assert_kernel_result((a * c).divide_exact(a), c.terms)
        assert_kernel_result(ab**2, eager_pow(ab.terms, 2))
        assert_kernel_result(a**3, eager_pow(a.terms, 3))
        # negative powers only of the unit monomial argument
        f = LaurentPoly(ctx, {(rng.randint(0, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                              for _ in range(3)})
        m = ctx.monomial({0: rng.randint(-3, 3), 1: rng.randint(-3, 3)}, rng.choice((1, -1)))
        if not f.is_zero():
            ref = eager_compose(f.terms, [ab.terms, m.terms])
            got = f.compose([ab, m])
            assert_kernel_result(got, ref, packed=got._terms is None)


def test_packed_product_with_inner_cancellation():
    u, v = Context(("u", "v")).var(0), Context(("u", "v")).var(1)
    p = (u + v) * (u - v)  # the uv terms cancel
    assert_kernel_result(p, {(2, 0): 1, (0, 2): -1})
    assert 0 not in p._packed[1].values()
    assert_kernel_result(p.divide_exact(u - v), (u + v).terms)


def test_compose_with_cancelling_monomials():
    ctx = Context(("u", "v"))
    u, v = ctx.var(0), ctx.var(1)
    a, b = u * v, u + v
    # x1 + x2 - x3 at (uv, u + v, uv): the two uv terms cancel, so the box
    # shrinks from [0, 1]^2 to that of u + v
    p = (x(0) + x(1) - x(2)).compose([a, b, a])
    assert_kernel_result(p, {(1, 0): 1, (0, 1): 1}, packed=False)
    assert (x(0) - x(2)).compose([a, b, a]).is_zero()
    assert_kernel_result((x(0) + x(2)).compose([a, b, a]), {(1, 1): 2})


def test_negative_powers_of_unit_monomials():
    m = CTX3.monomial({0: 2, 1: -3}, coeff=-1)
    for n in (-1, -2, -5):
        p = m**n
        assert_kernel_result(p, eager_pow(m.terms, n), packed=n < -1)
        assert (p * m ** (-n)).terms == {(0, 0, 0): 1}


@pytest.mark.parametrize("span", [127, 128, 255, 256])
def test_slot_widths_round_to_whole_bytes(span):
    ctx = Context(("u", "v"))
    u, v, one = ctx.var(0), ctx.var(1), ctx.one()
    prod = (one + u**span) * (one + v)
    assert prod._packed[0] == {127: 8, 128: 8, 255: 8, 256: 16}[span]
    assert_kernel_result(prod, eager_mul((one + u**span).terms, (one + v).terms))
    # division keeps a guard bit above each slot of the numerator's span
    q = prod.divide_exact(one + v)
    assert q._packed[0] == {127: 8, 128: 16, 255: 16, 256: 16}[span]
    assert_kernel_result(q, (one + u**span).terms)
    # u v^span by u: the leading quotient exponent v^span passes every
    # guard but exceeds the span the quotient may have in v
    with pytest.raises(NotDivisible, match="outside the exponent box"):
        (u * v**span + one).divide_exact(u + v)
    # u + v^span by u + v: after u / u the remainder leads with v^span,
    # which u does not divide
    with pytest.raises(NotDivisible, match="leading term not divisible"):
        (u + v**span).divide_exact(u + v)


def test_json_roundtrip_bit_exact():
    big = 10 ** 40 + 7
    p = LaurentPoly(CTX3, {(1, -2, 0): big, (0, 0, 0): -3})
    q = LaurentPoly.from_json(p.to_json())
    assert q == p
    assert q.terms[(1, -2, 0)] == big


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


def test_evaluate_is_exact_for_int_values():
    ctx = Context(("x", "y"))
    p = ctx.var(0) ** -1 + ctx.var(1)
    at_ints = p.evaluate([2, 3])
    assert type(at_ints) is Fraction and at_ints == Fraction(7, 2)
    assert p.evaluate([Fraction(2), Fraction(3)]) == at_ints
    q = (ctx.var(0) ** 3 - ctx.var(1) ** -2) * ctx.var(0) ** -1
    assert q.evaluate([-2, 5]) == q.evaluate([Fraction(-2), Fraction(5)]) == Fraction(
        4 * 50 + 1, 50
    )
