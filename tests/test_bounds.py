import hashlib
import json
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
    leading_exponent,
    shortest_oriented_cycle,
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

from conftest import MARKOV, SL3_PRINCIPAL
from test_upper_bound_oracle import membership_from_adjacent


def is_standard(p, n):
    """No term of p carries a product x_j * x'_j."""
    return all(not (e[j] > 0 and e[n + j] > 0) for e in p.terms for j in range(n))


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


FOUR_CYCLE = [[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]]
CHORDED_FOUR_CYCLE = [[0, 1, 0, -1], [-1, 0, 1, 1], [0, -1, 0, 1], [1, -1, -1, 0]]
STRAIGHTEN_MATRICES = (
    MARKOV,
    [[0, 1], [-1, 0]],  # A2
    [[0, 1], [-2, 0]],  # B2
    [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],  # A3
    [[0, 1], [-3, 0]],  # G2
    [[0, 2], [-2, 0]],  # Kronecker
    FOUR_CYCLE,
)


def straighten_inputs(rng_seed):
    """42 generator polynomials over the matrices above in turn: one to three
    terms, x and x' exponents in 0..2, frozen exponents in -1..2."""
    rng = random.Random(rng_seed)
    seeds = [general_seed(B) for B in STRAIGHTEN_MATRICES]
    for t in range(42):
        seed = seeds[t % len(seeds)]
        n = seed.n
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [rng.randint(0, 2) for _ in range(2 * n)]
            e += [rng.randint(-1, 2) for _ in range(seed.m - n)]
            terms[tuple(e)] = rng.randint(-3, 3)
        yield LaurentPoly(generator_context(seed), terms), seed


# sha256 of the JSON list of straighten(p).to_json() over straighten_inputs,
# recorded from the rewrite-one-term-and-rescan straightening
STRAIGHTEN_DIGESTS = {
    0: "6b03694e672fbac7f3b95164b50e09cd30df570bbff03b53649564db63b961d1",
    1: "0fa6d8269d5ebc783f81116a2e3a1f49ec22b711ead30a04bb392ac5961f7bab",
    2: "74e034f042b688e70444f99732ec00ec0a2e42f095f05e7baee4a318123e7939",
    3: "e61d5f3f0ad88e45f7ff4d551b421b53484d306bde49ddc2f358df0aa7f5d476",
    4: "15e7ef1bb3bb1d7efb5301a9b90af0b7ec9417079e2368fda67641a7cd1edc13",
    5: "3eb0d5eafc137af6a27e2a3a111788f091ba806736b50b201fc0b8325701a2aa",
    6: "bb0b7eb733c6eac839271c838d74dcb646b7d9f147825faa0156ddd74b1ad1de",
}


@pytest.mark.parametrize("rng_seed", sorted(STRAIGHTEN_DIGESTS))
def test_straighten_digest(rng_seed):
    outs = [straighten(p, seed).to_json() for p, seed in straighten_inputs(rng_seed)]
    assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == (
        STRAIGHTEN_DIGESTS[rng_seed]
    )


def test_straighten_is_standard_and_keeps_the_value():
    for p, seed in straighten_inputs(7):
        out = straighten(p, seed)
        assert is_standard(out, seed.n)
        assert generator_value(out, seed) == generator_value(p, seed)


def test_straighten_markov_power_has_no_primes_left(markov_seed):
    # (x1 x2 x3 x1' x2' x3')^k = (P_1 P_2 P_3)^k: each round strips one prime
    gctx = generator_context(markov_seed)
    n = markov_seed.n
    P = [exchange_polynomial(markov_seed, j) for j in range(n)]
    for k in (1, 3):
        out = straighten(gctx.monomial({j: k for j in range(2 * n)}), markov_seed)
        assert all(e[n : 2 * n] == (0,) * n for e in out.terms)
        assert generator_value(out, markov_seed) == (P[0] * P[1] * P[2]) ** k


@pytest.mark.parametrize("slot", [0, 4, 5])  # x_1, x'_2 and x'_3 of Markov
def test_straighten_rejects_negative_exponents(markov_seed, slot):
    gctx = generator_context(markov_seed)
    p = gctx.monomial({slot: -1, 3: 1})
    with pytest.raises(ValueError, match="nonnegative"):
        straighten(p, markov_seed)


def test_straighten_leaves_frozen_exponents_free(markov_seed):
    gctx = generator_context(markov_seed)
    # x1 x1' / p1+ = (p1+ x3^2 + p1- x2^2) / p1+
    out = straighten(gctx.monomial({0: 1, 3: 1, 6: -1}), markov_seed)
    assert out == gctx.monomial({2: 2}) + gctx.monomial({1: 2, 6: -1, 9: 1})


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
    seed = general_seed(FOUR_CYCLE)
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


def _pieces_are_standard(dep):
    """Each piece is a coefficient times the primes that survive, and the
    coefficient carries no x_j whose x'_j survives."""
    return all(
        e[j] == 0 for kept, coeff in dep["pieces"].items() for e in coeff.terms for j in kept
    )


@pytest.mark.parametrize(
    "B, cycle",
    [
        (MARKOV, (0, 1, 2)),
        (FOUR_CYCLE, (0, 1, 2, 3)),
        # the same 4-cycle reversed: 0 -> 3 -> 2 -> 1 -> 0
        ([[-x for x in row] for row in FOUR_CYCLE], (0, 3, 2, 1)),
        # the 4-cycle with the chord 1 -> 3 has the 3-cycle 0 -> 1 -> 3 -> 0
        (CHORDED_FOUR_CYCLE, (0, 1, 3)),
        # an oriented 5-cycle
        ([[0, 1, 0, 0, -1], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1],
          [1, 0, 0, -1, 0]], (0, 1, 2, 3, 4)),
        ([[0, 1], [-1, 0]], None),
        (SL3_PRINCIPAL, (0, 2, 1)),
    ],
)
def test_shortest_oriented_cycle(B, cycle):
    seed = general_seed(B)
    assert shortest_oriented_cycle(seed) == cycle
    if cycle is not None:
        assert _pieces_are_standard(cycle_dependency(seed, cycle))


def test_check_independence_any_oriented_cycle():
    # no oriented 3-cycle: the dependency runs along the 4-cycle
    assert check_independence(general_seed(FOUR_CYCLE), 1) is False
    # along a cycle with a chord some piece is not standard, hence the shortest
    chorded = cycle_dependency(general_seed(CHORDED_FOUR_CYCLE), (0, 1, 2, 3))
    assert not _pieces_are_standard(chorded)


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


WEIGHT_9_CYCLE = [[0, 3, -3], [-3, 0, 3], [3, -3, 0]]


@pytest.mark.parametrize(
    "B, box, least",
    [(MARKOV, 0, 1), (WEIGHT_9_CYCLE, 1, 2), (FOUR_CYCLE, 0, 1)],
    ids=["markov-box-0", "weights-3-box-1", "four-cycle-box-0"],
)
def test_check_independence_refuses_a_box_without_the_dependency(B, box, least):
    # Markov's box-0 family is {1}, which is independent; every piece of the
    # weights-3 cycle's dependency carries an x exponent 2
    with pytest.raises(ValueError, match=f"needs box {least}, so box {box} decides nothing"):
        check_independence(general_seed(B), box)
    assert check_independence(general_seed(B), least) is False
