"""The upper bound does not depend on the seed: an oracle for upper_bound_member.

BFZ III, Theorem 1.5: for a coprime seed, U(Sigma) = U(mu_k Sigma) for
every direction k.  So an element passes upper_bound_member from the seed
exactly when, rewritten in the k-mutated cluster, it passes the same test
from the mutated seed.  The rewrite substitutes x_k = P_k / x'_k with its
own split of y into powers of x_k, not the grouping inside
upper_bound_member.
"""

import itertools
import random

import pytest

from clusterforge.bounds import Membership, upper_bound_member
from clusterforge.graphs import exchange_seeds
from clusterforge.laurent import LaurentPoly, NotDivisible
from clusterforge.seeds import (
    adjacent_variable,
    exchange_polynomial,
    general_seed,
    initial_seed,
    is_coprime,
    seed_mutate,
)

from conftest import MARKOV
from test_graphs import cell_seed
from test_seeds import rand_symmetrizable


def split_powers(y: LaurentPoly, k: int) -> dict:
    """{p: coefficient of x_k^p}, each coefficient free of x_k."""
    parts: dict[int, dict] = {}
    for e, c in y.terms.items():
        reduced = list(e)
        reduced[k] = 0
        parts.setdefault(e[k], {})[tuple(reduced)] = c
    return {p: LaurentPoly(y.ctx, terms) for p, terms in parts.items()}


def rewrite_in_adjacent_cluster(y: LaurentPoly, seed, k: int) -> LaurentPoly:
    """Rewrite y (Laurent in seed's cluster) as Laurent in the k-mutated cluster.

    Substitutes x_k = P_k / x'_k; the variable slot k of the result means
    x'_k.  Negative x_k powers require the divisibility of their
    coefficients by the matching power of P_k, and NotDivisible signals
    that y does not lie in the adjacent Laurent ring.
    """
    P = exchange_polynomial(seed, k)
    out = y.ctx.zero()
    for power, coeff in split_powers(y, k).items():
        zk = y.ctx.monomial({k: -power})
        if power >= 0:
            out = out + coeff * P ** power * zk
        else:
            out = out + coeff.divide_exact(P ** -power) * zk
    return out


def membership_from_adjacent(y, seed, k, member=upper_bound_member) -> Membership:
    """Membership tested from the k-mutated seed (same element, new cluster)."""
    try:
        moved = rewrite_in_adjacent_cluster(y, seed, k)
    except NotDivisible:
        return Membership(False, f"not Laurent in the {k + 1}-adjacent cluster", {})
    return member(moved, initial_seed(seed_mutate(seed, k).matrix))


def agreements(elements, seed, member=upper_bound_member) -> tuple[int, int]:
    """(agreeing (element, k) pairs, non-members) of member against the oracle."""
    agree = non_members = 0
    for y in elements:
        verdict = member(y, seed).member
        non_members += not verdict
        agree += sum(
            membership_from_adjacent(y, seed, k, member).member == verdict
            for k in range(seed.n)
        )
    return agree, non_members


def products_of_two(variables, seed, rng, count):
    """count seeded products of two variables, every second one divided by
    a randomly chosen initial cluster variable."""
    out = []
    for i in range(count):
        y = rng.choice(variables) * rng.choice(variables)
        if i % 2:
            y = y * seed.ctx.monomial({rng.randrange(seed.n): -1})
        out.append(y)
    return out


def a3_open_cell_elements():
    """The A3 open cell (coprime, n = 9) and 60 seeded elements: products
    of two cluster variables of its first 60 clusters, half of them divided
    by an initial variable."""
    seed = cell_seed("A3", "open")
    variables = list(dict.fromkeys(
        e for s, _ in itertools.islice(exchange_seeds(seed), 60) for e in s.exprs
    ))
    return seed, products_of_two(variables, seed, random.Random(41), 60)


@pytest.fixture(scope="module")
def a3_open():
    return a3_open_cell_elements()


def test_a3_open_cell_oracle_agrees_on_every_pair(a3_open):
    seed, elements = a3_open
    assert is_coprime(seed.matrix) and seed.n == 9
    assert agreements(elements, seed) == (60 * 9, 29)


def _random_walk_variables(seed, rng, walks, steps):
    """The cluster variables met along seeded random mutation walks."""
    out = list(seed.exprs)
    for _ in range(walks):
        s = seed
        for _ in range(steps):
            s = seed_mutate(s, rng.randrange(seed.n))
            out.append(s.exprs[s.history[-1]])
    return out


def _coprime_seeds(rng, n, count):
    found = []
    while len(found) < count:
        B = rand_symmetrizable(rng, n, frozen=n)
        if is_coprime(B):
            found.append(initial_seed(B))
    return found


@pytest.mark.parametrize("n", [3, 4])
def test_random_coprime_seeds_agree_with_the_oracle(n):
    rng = random.Random(50 + n)
    for seed in _coprime_seeds(rng, n, 3):
        variables = _random_walk_variables(seed, rng, walks=3, steps=2)
        elements = products_of_two(variables, seed, rng, 10)
        agree, non_members = agreements(elements, seed)
        assert agree == len(elements) * n and 0 < non_members < len(elements)


def test_markov_seed_agrees_with_the_oracle():
    # formal coefficients allow single mutations: the initial cluster and
    # the n adjacent variables
    seed = general_seed(MARKOV)
    assert is_coprime(seed.matrix)
    variables = list(seed.exprs) + [adjacent_variable(seed, k) for k in range(seed.n)]
    elements = products_of_two(variables, seed, random.Random(43), 20)
    agree, non_members = agreements(elements, seed)
    assert agree == 20 * 3 and 0 < non_members < 20


def _planted(power, skip_last):
    """upper_bound_member's criterion with one planted error: the
    coefficient of x_j^(-m) is divided by P_j ** power(m), and with
    skip_last the last direction is never tested."""

    def member(y, seed):
        for j in range(seed.n - skip_last):
            P = exchange_polynomial(seed, j)
            for p, coeff in split_powers(y, j).items():
                if p < 0:
                    try:
                        coeff.divide_exact(P ** power(-p))
                    except NotDivisible:
                        return Membership(False, "", {})
        return Membership(True, "", {})

    return member


def test_the_planted_criterion_without_an_error_is_upper_bound_member(a3_open):
    seed, elements = a3_open
    planted = _planted(lambda m: m, False)
    assert [planted(y, seed).member for y in elements] == [
        upper_bound_member(y, seed).member for y in elements
    ]


@pytest.mark.parametrize(
    "power, skip_last, agree",
    [(lambda m: m - 1, False, 511), (lambda m: m, True, 537)],
    ids=["divide-by-one-power-less", "skip-last-direction"],
)
def test_the_oracle_catches_a_planted_error(a3_open, power, skip_last, agree):
    seed, elements = a3_open
    assert agreements(elements, seed, _planted(power, skip_last))[0] == agree
