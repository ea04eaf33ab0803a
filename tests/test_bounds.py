import random
from math import prod

import pytest

from clusterforge.bounds import (
    Membership,
    NotAcyclic,
    check_independence,
    cycle_dependency,
    diffcomb_check,
    generator_context,
    generator_value,
    is_standard,
    leading_exponent,
    sorted_acyclic_seed,
    standard_monomial_to_laurent,
    straighten,
    upper_bound_member,
)
from clusterforge.laurent import LaurentPoly
from clusterforge.seeds import (
    ExchangeMatrix,
    exchange_polynomial,
    general_seed,
    initial_seed,
    matrix_mutate,
    seed_mutate,
)

from conftest import SL3_PRINCIPAL
from test_upper_bound_oracle import membership_from_adjacent


def markov_y(seed):
    """(p1+ p2+ x1^2 + p1- p2- x2^2 + p1+ p2- x3^2) / (x1 x2)."""
    ctx = seed.ctx
    i = ctx.index
    return (
        ctx.monomial({0: 1, 1: -1, i("p1+"): 1, i("p2+"): 1})
        + ctx.monomial({0: -1, 1: 1, i("p1-"): 1, i("p2-"): 1})
        + ctx.monomial({0: -1, 1: -1, 2: 2, i("p1+"): 1, i("p2-"): 1})
    )


def test_straighten_single_product(markov_seed):
    gctx = generator_context(markov_seed)
    n = markov_seed.n
    p = gctx.monomial({0: 1, n + 0: 1})  # x1 * x'_1
    out = straighten(p, markov_seed)
    assert is_standard(out, n)
    # value equals P_1
    P1 = exchange_polynomial(markov_seed, 0)
    assert generator_value(out, markov_seed) == P1


def test_straighten_fixed_point(markov_seed):
    gctx = generator_context(markov_seed)
    n = markov_seed.n
    p = gctx.monomial({0: 2, n + 1: 1})  # x1^2 * x'_2 is standard already
    assert straighten(p, markov_seed) == p


def test_straighten_preserves_value_randomized(markov_seed):
    rng = random.Random(19)
    gctx = generator_context(markov_seed)
    n = markov_seed.n
    for _ in range(10):
        terms = {}
        for _ in range(4):
            e = [0] * gctx.nvars
            for j in range(n):
                e[j] = rng.randint(0, 2)
                e[n + j] = rng.randint(0, 1)
            terms[tuple(e)] = rng.randint(-3, 3)
        p = LaurentPoly(gctx, terms)
        out = straighten(p, markov_seed)
        assert is_standard(out, n)
        assert generator_value(out, markov_seed) == generator_value(p, markov_seed)


def test_cycle_dependency_markov(markov_seed):
    dep = cycle_dependency(markov_seed, (0, 1, 2))
    ctx = markov_seed.ctx
    i = ctx.index
    pieces = dep["pieces"]
    # coefficient of x'_3 after the exchange x'_1 x'_2 x'_3 is p1- p2+ x1 x2
    assert pieces[(2,)] == ctx.monomial({0: 1, 1: 1, i("p1-"): 1, i("p2+"): 1})
    assert pieces[(0,)] == ctx.monomial({1: 1, 2: 1, i("p2-"): 1, i("p3+"): 1})
    assert pieces[(1,)] == ctx.monomial({0: 1, 2: 1, i("p3-"): 1, i("p1+"): 1})
    const = pieces[()]
    assert const == ctx.monomial(
        {0: 1, 1: 1, 2: 1, i("p1-"): 1, i("p2-"): 1, i("p3-"): 1}
    ) + ctx.monomial({0: 1, 1: 1, 2: 1, i("p1+"): 1, i("p2+"): 1, i("p3+"): 1})


def test_cycle_dependency_oriented_four_cycle():
    # 0 -> 1 -> 2 -> 3 -> 0
    seed = general_seed(
        [[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]]
    )
    ctx = seed.ctx
    i = ctx.index

    def p(*names):
        return ctx.monomial({i(s): 1 for s in names})

    pieces = cycle_dependency(seed, (0, 1, 2, 3))["pieces"]
    assert set(pieces) == {(), (2, 3), (0, 3), (0, 1), (1, 2)}
    assert pieces[(2, 3)] == p("p2+", "p1-")
    assert pieces[(0, 3)] == p("p3+", "p2-")
    assert pieces[(0, 1)] == p("p4+", "p3-")
    assert pieces[(1, 2)] == p("p1+", "p4-")
    assert pieces[()] == (
        p("p1-", "p2-", "p3-", "p4-") - p("p2+", "p4+", "p1-", "p3-")
        - p("p1+", "p3+", "p2-", "p4-") + p("p1+", "p2+", "p3+", "p4+")
    )


def test_check_independence_acyclic_box_one():
    mutated = matrix_mutate(ExchangeMatrix.make(SL3_PRINCIPAL), 1)
    seed = general_seed([list(r) for r in mutated.principal()])
    assert check_independence(seed, 1) is True


def test_check_independence_markov_dependent(markov_seed):
    assert check_independence(markov_seed, 1) is False


def test_check_independence_rank_one():
    seed = general_seed([[0]])
    assert check_independence(seed, 3) is True


def test_standard_monomial_basics(markov_seed):
    ctx = markov_seed.ctx
    assert standard_monomial_to_laurent((1, 0, 0), markov_seed) == ctx.var(0)
    assert standard_monomial_to_laurent((0, 0, 0), markov_seed) == ctx.one()


def test_leading_exponent_rank_two():
    # P_1 = p1+ x2^3 + p1-, exchange matrix [[0, -1], [3, 0]]
    seed = general_seed([[0, -1], [3, 0]])
    lead = leading_exponent((-1, 0), seed)
    assert lead[:2] == (-1, 0)


def test_leading_exponent_requires_sorted_acyclic(markov_seed):
    with pytest.raises(NotAcyclic):
        leading_exponent((1, 0, 0), markov_seed)


def test_leading_exponents_distinct_sampled():
    mutated = matrix_mutate(ExchangeMatrix.make(SL3_PRINCIPAL), 1)
    seed = sorted_acyclic_seed(general_seed([list(r) for r in mutated.principal()]))
    rng = random.Random(29)
    seen = {}
    for _ in range(120):
        exps = tuple(rng.randint(-2, 2) for _ in range(4))
        lead = leading_exponent(exps, seed)
        assert seen.setdefault(lead, exps) == exps
    assert len(seen) > 60


def test_sorted_general_seed_refuses_a_second_mutation():
    # the formal coefficients survive relabelling, and so does the guard
    unsorted = general_seed([[0, 1], [-1, 0]])
    seed = sorted_acyclic_seed(unsorted)
    assert seed.general and seed.matrix != unsorted.matrix
    once = seed_mutate(seed, 0)
    with pytest.raises(ValueError, match="single mutations only"):
        seed_mutate(once, 1)


@pytest.mark.parametrize(
    "seed, general",
    [(initial_seed(ExchangeMatrix.make([[0, 1], [-1, 0]])), False),
     (general_seed([[0, 1], [-1, 0]]), True)],
    ids=["initial", "general"],
)
def test_sorted_acyclic_seed_keeps_the_general_flag(seed, general):
    assert sorted_acyclic_seed(seed).general is general


def test_diffcomb_small_sizes():
    for size in range(1, 9):
        assert diffcomb_check(size) is True


def test_upper_bound_member_adjacent_variable(markov_seed):
    ctx = markov_seed.ctx
    P1 = exchange_polynomial(markov_seed, 0)
    y = P1 * ctx.monomial({0: -1})  # x'_1
    res = upper_bound_member(y, markov_seed)
    assert res.member
    assert len(res.certificates[0]) == 1


def test_upper_bound_member_markov_element(markov_seed):
    res = upper_bound_member(markov_y(markov_seed), markov_seed)
    assert res.member
    assert set(res.certificates) == {0, 1, 2}
    assert len(res.certificates[0]) == 1
    assert len(res.certificates[1]) == 1
    assert res.certificates[2] == []


def test_upper_bound_member_rejects_inverse_variable(markov_seed):
    ctx = markov_seed.ctx
    res = upper_bound_member(ctx.monomial({0: -1}), markov_seed)
    assert not res.member


def test_upper_bound_member_ratfunc_reduction(markov_seed):
    ctx = markov_seed.ctx
    y = markov_y(markov_seed) * ctx.var(2)
    assert upper_bound_member(y, markov_seed, den=ctx.var(2)).member
    bad = upper_bound_member(ctx.one(), markov_seed, den=ctx.var(0) + ctx.var(1))
    assert not bad.member


def random_generator_poly(rng, seed):
    gctx = generator_context(seed)
    n = seed.n
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * gctx.nvars
        for j in range(n):
            if rng.random() < 0.5:
                e[j] = rng.randint(1, 2)
            elif rng.random() < 0.5:
                e[n + j] = rng.randint(1, 2)
        terms[tuple(e)] = rng.randint(-4, 4)
    return LaurentPoly(gctx, terms)


def test_lower_bound_inside_upper_bound_sampled():
    rng = random.Random(33)
    rank2 = general_seed([[0, 2], [-1, 0]])
    rank3 = general_seed([[0, 1, 1], [-1, 0, 2], [-1, -2, 0]])
    for seed in (rank2, rank3):
        for _ in range(20):
            p = random_generator_poly(rng, seed)
            y = generator_value(p, seed)
            if y.is_zero():
                continue
            assert upper_bound_member(y, seed).member


def test_membership_invariant_under_mutation(sl3_seed):
    # cluster variables at distance <= 3 belong to every upper bound
    rng = random.Random(35)
    s = sl3_seed
    samples = [s.exprs[0]]
    for _ in range(3):
        s = seed_mutate(s, rng.randrange(4))
        samples.append(s.exprs[rng.randrange(4)])
    for y in samples:
        assert upper_bound_member(y, sl3_seed).member
        for k in range(4):
            assert membership_from_adjacent(y, sl3_seed, k).member


def test_membership_negative_invariant_under_mutation(sl3_seed):
    ctx = sl3_seed.ctx
    bad = ctx.monomial({0: -1})
    assert not upper_bound_member(bad, sl3_seed).member
    for k in range(4):
        assert not membership_from_adjacent(bad, sl3_seed, k).member


def test_membership_is_truthy_only_for_a_member(markov_seed):
    # a record with fields is never empty, so bool() must read member
    assert bool(Membership(False, "not a member", {})) is False
    assert bool(Membership(True, "member", {})) is True
    ctx = markov_seed.ctx
    assert not upper_bound_member(ctx.monomial({0: -1}), markov_seed)
    assert upper_bound_member(markov_y(markov_seed), markov_seed)


def test_membership_json(markov_seed):
    res = upper_bound_member(markov_y(markov_seed), markov_seed)
    data = res.to_json()
    assert data["member"] is True
    assert data["certificates"]["1"][0]["power"] == 1


def test_certificates_reassemble_the_negative_part(sl3_seed, markov_seed):
    """For a member, sum_m q_m * P_j^m * x_j^(-m) over direction j's
    certificates is the part of y with a negative power of x_j, for every j,
    and the powers m come largest first."""
    rng = random.Random(37)
    s, members = sl3_seed, [(markov_y(markov_seed), markov_seed)]
    for _ in range(8):  # the product of each cluster along a mutation walk
        s = seed_mutate(s, rng.randrange(4))
        members.append((prod(s.exprs, start=sl3_seed.ctx.one()), sl3_seed))
    powers = set()
    for y, seed in members:
        res = upper_bound_member(y, seed)
        assert res.member and sorted(res.certificates) == list(range(seed.n))
        ctx = seed.ctx
        for j, certs in res.certificates.items():
            P = exchange_polynomial(seed, j)
            total = ctx.zero()
            for m, q in certs:
                total = total + q * P ** m * ctx.monomial({j: -m})
            negative = {e: c for e, c in y.terms.items() if e[j] < 0}
            assert total == LaurentPoly(ctx, negative)
            assert [m for m, _ in certs] == sorted({-e[j] for e in negative}, reverse=True)
            powers.update(m for m, _ in certs)
    assert powers == {1, 2, 3}


def test_a_non_member_failing_in_direction_1_divides_once(sl3_seed, monkeypatch):
    calls = []
    divide_exact = LaurentPoly.divide_exact

    def counting_divide(self, den):
        calls.append(den)
        return divide_exact(self, den)

    monkeypatch.setattr(LaurentPoly, "divide_exact", counting_divide)
    ctx = sl3_seed.ctx
    # every direction has a negative power, and direction 1 fails at m = 2
    y = ctx.monomial({0: -2, 1: -1}) + ctx.monomial({0: -1, 2: -1}) + ctx.monomial({3: -1})
    res = upper_bound_member(y, sl3_seed)
    assert res == (False, "direction 1: coefficient of power -2 not divisible", {})
    assert calls == [exchange_polynomial(sl3_seed, 0) ** 2]


def test_generator_value_term_by_term(sl3_seed):
    """Each term x^a x'^b f^c maps to x^a (P_j / x_j)^b f^c, frozen c of any sign."""
    seed = sl3_seed
    n, m = seed.n, seed.m
    gctx = generator_context(seed)
    rng = random.Random(41)
    P = [exchange_polynomial(seed, j) for j in range(n)]
    for _ in range(15):
        terms = {}
        for _ in range(3):
            e = [rng.randint(0, 2) for _ in range(2 * n)]
            e += [rng.randint(-2, 2) for _ in range(m - n)]
            terms[tuple(e)] = rng.randint(-3, 3)
        p = LaurentPoly(gctx, terms)
        expected = seed.ctx.zero()
        for e, c in p.terms.items():
            term = seed.ctx.monomial(
                {**dict(enumerate(e[:n])), **{n + i: f for i, f in enumerate(e[2 * n:])}}, c
            )
            for j in range(n):
                term = term * P[j] ** e[n + j] * seed.ctx.monomial({j: -e[n + j]})
            expected = expected + term
        assert generator_value(p, seed) == expected


@pytest.mark.parametrize("slot", [0, 5])  # x_1 and x'_2 of the four-direction seed
def test_generator_value_rejects_negative_exponents(sl3_seed, slot):
    gctx = generator_context(sl3_seed)
    with pytest.raises(ValueError, match="nonnegative"):
        generator_value(gctx.monomial({slot: -1}), sl3_seed)
