"""Cross-check the Laurent kernel against sympy on seeded random inputs.

The inputs cover negative exponents, exponents of 2**40 and more (far past
any fixed slot width), coefficients of 2**100 and more, and contexts of
1, 6 and 14 variables.  Divisibility of small-exponent inputs is decided by
sympy's ``cancel``; large-exponent inputs are expanded only, never turned
into dense sympy polynomials.
"""

import random

import pytest

from clusterforge.laurent import Context, LaurentPoly, NotDivisible

sympy = pytest.importorskip("sympy")

SIZES = (1, 6, 14)
HUGE = 2**40
BIG_COEF = 2**100


def symbols(ctx):
    return sympy.symbols(ctx.names)


def to_sympy(p, syms):
    return sympy.Add(
        *(
            sympy.Integer(c) * sympy.Mul(*(s**x for s, x in zip(syms, e)))
            for e, c in p.terms.items()
        )
    )


def from_sympy(expr, syms):
    terms = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        coef, rest = term.as_coeff_Mul()
        if coef == 0:
            continue
        powers = rest.as_powers_dict()
        assert set(powers) <= set(syms) | {sympy.Integer(1)}
        e = tuple(int(powers.get(s, 0)) for s in syms)
        assert e not in terms and coef.is_Integer
        terms[e] = int(coef)
    return terms


def rand_poly(rng, ctx, nterms, low, high, huge=False):
    """Random terms, each with at most three nonzero exponents."""
    terms = {}
    for _ in range(nterms):
        e = [0] * ctx.nvars
        for i in rng.sample(range(ctx.nvars), min(3, ctx.nvars)):
            e[i] = rng.randint(low, high)
        if huge:
            i = rng.randrange(ctx.nvars)
            e[i] += rng.choice((-1, 1)) * (HUGE + rng.randrange(HUGE))
        c = rng.choice((rng.randint(-9, 9), rng.randint(-BIG_COEF, BIG_COEF)))
        terms[tuple(e)] = c
    p = LaurentPoly(ctx, terms)
    return p if not p.is_zero() else ctx.const(rng.choice((1, -1)) * BIG_COEF)


def sympy_divides(num_s, den_s, syms):
    """Laurent divisibility over Z: the reduced denominator is a unit monomial."""
    n, d = sympy.fraction(sympy.cancel(num_s / den_s))
    dpoly = sympy.Poly(d, *syms)
    npoly = sympy.Poly(n, *syms)
    return (
        dpoly.is_monomial
        and abs(dpoly.LC()) == 1
        and all(c.is_Integer for c in npoly.coeffs())
    )


@pytest.mark.parametrize("nvars", SIZES)
@pytest.mark.parametrize("huge", (False, True))
def test_mul_matches_sympy(nvars, huge):
    rng = random.Random(f"mul/{nvars}/{huge}")
    ctx = Context(tuple(f"x{i + 1}" for i in range(nvars)))
    syms = symbols(ctx)
    for _ in range(6):
        a = rand_poly(rng, ctx, rng.randint(1, 6), -3, 3, huge)
        b = rand_poly(rng, ctx, rng.randint(1, 6), -3, 3, huge)
        assert (a * b).terms == from_sympy(to_sympy(a, syms) * to_sympy(b, syms), syms)


@pytest.mark.parametrize("nvars", SIZES)
@pytest.mark.parametrize("huge", (False, True))
def test_exact_quotient_matches_sympy(nvars, huge):
    rng = random.Random(f"quotient/{nvars}/{huge}")
    ctx = Context(tuple(f"x{i + 1}" for i in range(nvars)))
    syms = symbols(ctx)
    for _ in range(6):
        q = rand_poly(rng, ctx, rng.randint(1, 5), -3, 3, huge)
        den = rand_poly(rng, ctx, rng.randint(1, 4), -2, 2, huge)
        num = LaurentPoly(
            ctx, from_sympy(to_sympy(q, syms) * to_sympy(den, syms), syms)
        )
        assert num.divide_exact(den) == q


@pytest.mark.parametrize("nvars", SIZES)
def test_divisibility_matches_sympy(nvars):
    rng = random.Random(f"divides/{nvars}")
    ctx = Context(tuple(f"x{i + 1}" for i in range(nvars)))
    syms = symbols(ctx)
    seen = set()
    for _ in range(12):
        den = rand_poly(rng, ctx, rng.randint(1, 3), -2, 2)
        num = rand_poly(rng, ctx, rng.randint(1, 3), -2, 2) * den
        if rng.random() < 0.5:
            num = num + rand_poly(rng, ctx, 1, -3, 3)
        num_s, den_s = to_sympy(num, syms), to_sympy(den, syms)
        divisible = sympy_divides(num_s, den_s, syms)
        seen.add(divisible)
        if divisible:
            q = num.divide_exact(den)
            assert q.terms == from_sympy(sympy.cancel(num_s / den_s), syms)
        else:
            with pytest.raises(NotDivisible):
                num.divide_exact(den)
    assert seen == {True, False}


@pytest.mark.parametrize("nvars", SIZES)
def test_not_divisible_with_huge_exponents(nvars):
    """num = q*den + r with den(1,...,1) not dividing num(1,...,1) in Z.

    A Laurent quotient would take an integer value at the all-ones point,
    so sympy's values there certify that no quotient exists.
    """
    rng = random.Random(f"huge-remainder/{nvars}")
    ctx = Context(tuple(f"x{i + 1}" for i in range(nvars)))
    syms = symbols(ctx)
    ones = {s: 1 for s in syms}
    checked = 0
    for _ in range(12):
        q = rand_poly(rng, ctx, rng.randint(1, 4), -3, 3, True)
        den = rand_poly(rng, ctx, rng.randint(2, 4), -2, 2, True)
        r = rand_poly(rng, ctx, 1, -3, 3, rng.random() < 0.5)
        num_s = sympy.expand(
            to_sympy(q, syms) * to_sympy(den, syms) + to_sympy(r, syms)
        )
        dval = to_sympy(den, syms).subs(ones)
        if dval == 0 or num_s.subs(ones) % dval == 0:
            continue
        checked += 1
        with pytest.raises(NotDivisible):
            LaurentPoly(ctx, from_sympy(num_s, syms)).divide_exact(den)
    assert checked >= 6


@pytest.mark.parametrize("nvars", SIZES)
def test_compose_matches_sympy(nvars):
    rng = random.Random(f"compose/{nvars}")
    src = Context(tuple(f"y{i + 1}" for i in range(nvars)))
    tgt = Context(tuple(f"x{i + 1}" for i in range(nvars)))
    ssyms, tsyms = symbols(src), symbols(tgt)
    for _ in range(4):
        p = rand_poly(rng, src, rng.randint(1, 4), -2, 2)
        low = p.min_exponents()
        values = []
        for i in range(nvars):
            if low[i] < 0:  # negative powers need a unit monomial argument
                e = {j: rng.randint(-3, 3) for j in range(nvars)}
                e[i] += rng.choice((-1, 1)) * HUGE
                values.append(tgt.monomial(e, rng.choice((1, -1))))
            else:
                values.append(rand_poly(rng, tgt, rng.randint(1, 3), -2, 2, True))
        expected = to_sympy(p, ssyms).subs(
            {s: to_sympy(v, tsyms) for s, v in zip(ssyms, values)}, simultaneous=True
        )
        assert p.compose(values).terms == from_sympy(expected, tsyms)
