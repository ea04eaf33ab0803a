"""Lower and upper bound machinery: standard monomials and membership.

The lower bound of a seed is generated by the cluster variables together
with their exchange partners.  Monomials in those 2n symbols live in an
extended context (x block, primed block, frozen block); straightening
rewrites every product x_j * x'_j via the exchange polynomial until the
result is a combination of standard monomials, and termination follows
because each rewrite strictly lowers the primed degree.

Upper bound membership is decided through the two-cluster criterion: an
element is in the bound iff it is Laurent in the initial extended cluster
and, for every direction j, each coefficient of a negative power of x_j
is exactly divisible by the matching power of the exchange polynomial.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .graphs import acyclic_order, relabel_matrix
from .laurent import Context, LaurentPoly, NotDivisible
from .seeds import Seed, diagram_of, exchange_polynomial, initial_seed


class NotAcyclic(ValueError):
    """Standard-monomial leading exponents need an acyclic seed."""


# -- generator polynomials -----------------------------------------------------


def generator_context(seed: Seed) -> Context:
    """Context for polynomials in x_1..x_n, x'_1..x'_n and the frozen block."""
    n = seed.n
    names = (
        list(seed.ctx.names[:n])
        + [f"{seed.ctx.names[j]}'" for j in range(n)]
        + list(seed.ctx.names[n:])
    )
    return Context(tuple(names))


def _check_generator_exponents(p: LaurentPoly, n: int) -> None:
    """Refuse a negative exponent on any x_j or x'_j; frozen ones are free."""
    if any(x < 0 for e in p.terms for x in e[: 2 * n]):
        raise ValueError("generator polynomials have nonnegative exponents")


def generator_value(p: LaurentPoly, seed: Seed) -> LaurentPoly:
    """Evaluate a generator polynomial in the seed's ambient field.

    Substitutes x'_j = P_j / x_j exactly; the result is Laurent in the
    initial extended cluster.
    """
    n, ctx = seed.n, seed.ctx
    _check_generator_exponents(p, n)
    xs = [ctx.var(i) for i in range(seed.m)]
    primed = [exchange_polynomial(seed, j) * ctx.monomial({j: -1}) for j in range(n)]
    return p.compose(xs[:n] + primed + xs[n:])


def straighten(p: LaurentPoly, seed: Seed) -> LaurentPoly:
    """Rewrite away every x_j * x'_j product; the value is preserved.

    Rounds over one term table: a standard term goes to the output, any
    other is replaced, for its least j with x_j x'_j, by the terms of
    (term / x_j x'_j) * P_j.  P_j has no primed symbol, so each round lowers
    the primed degree by one.  The rewrites commute, so the output is the
    unique standard form.  A negative x_j or x'_j exponent is a ValueError.
    """
    n, gctx = seed.n, p.ctx
    _check_generator_exponents(p, n)
    # the ambient variables inside the generator context: x block, then frozen
    ambient = [gctx.var(i if i < n else n + i) for i in range(seed.m)]
    P = [exchange_polynomial(seed, j).compose(ambient) for j in range(n)]
    rewrite = [(P[j] * gctx.monomial({j: -1, n + j: -1})).terms for j in range(n)]
    out: dict[tuple, int] = {}
    pending = p.terms
    while pending:
        nxt: dict[tuple, int] = {}
        for e, c in pending.items():
            j = next((j for j in range(n) if e[j] > 0 and e[n + j] > 0), None)
            if j is None:
                out[e] = out.get(e, 0) + c
                continue
            for f, d in rewrite[j].items():
                g = tuple(map(add, e, f))
                nxt[g] = nxt.get(g, 0) + c * d
        pending = {e: c for e, c in nxt.items() if c}
    return LaurentPoly(gctx, out)


# -- standard monomials and leading exponents -----------------------------------


def standard_monomial_to_laurent(
    exponents: Sequence[int], seed: Seed
) -> LaurentPoly:
    """Exact Laurent expansion of x^<m>: positive entries use x_j, negative x'_j."""
    n = seed.n
    powers = {j if mj >= 0 else n + j: abs(mj) for j, mj in enumerate(exponents)}
    return generator_value(generator_context(seed).monomial(powers), seed)


def leading_exponent(exponents: Sequence[int], seed: Seed) -> tuple:
    """Lexicographically first support exponent of the expansion.

    Requires the seed's principal part to satisfy b_ij >= 0 for i > j,
    i.e. an acyclic seed already relabeled by acyclic_order.
    """
    P = seed.matrix.principal()
    n = seed.n
    if any(P[i][j] < 0 for i in range(n) for j in range(i)):
        raise NotAcyclic("relabel the seed with acyclic_order first")
    return standard_monomial_to_laurent(exponents, seed).leading_exponent()


def sorted_acyclic_seed(seed: Seed) -> Seed:
    """Relabel an acyclic seed so that b_ij >= 0 for i > j."""
    sigma = acyclic_order(seed.matrix)
    if sigma is None:
        raise NotAcyclic("seed has an oriented cycle")
    # a formal-coefficient seed stays single-use after relabelling
    sorted_seed = initial_seed(relabel_matrix(seed.matrix, sigma))
    return sorted_seed._replace(general=seed.general)


def _cyclic_terms(u: Sequence[LaurentPoly], v: Sequence[LaurentPoly]) -> Iterator:
    """Terms c * rest of the cyclic subset identity, which sum to prod u + prod v.

    For each J with J and J+ = {t + 1 mod l} disjoint, yields (outside, c,
    rest): the positions outside J and J+, c = (-1)^|J| prod_J u_t v_{t+1}
    and rest = prod_outside (u_t + v_t).
    """
    l = len(u)
    ctx = u[0].ctx
    for bits in itertools.product((0, 1), repeat=l):
        J = [t for t in range(l) if bits[t]]
        Jplus = {(t + 1) % l for t in J}
        if any(t in Jplus for t in J):
            continue
        outside = [t for t in range(l) if t not in J and t not in Jplus]
        c = prod((u[t] * v[(t + 1) % l] for t in J), start=ctx.const((-1) ** len(J)))
        rest = prod((u[t] + v[t] for t in outside), start=ctx.one())
        yield outside, c, rest


def cycle_dependency(seed: Seed, cycle: Sequence[int]) -> dict:
    """The standard-monomial linear dependency forced by an oriented cycle.

    For a cycle j0 -> j1 -> ... -> j_{l-1} -> j0 of the sign graph, the
    product of the primed generators along the cycle equals a combination
    of standard monomials in which no term carries all l primes.  Returns
    {tuple of surviving primed coordinates: polynomial coefficient}, with
    the identity verified exactly before returning.
    """
    ctx = seed.ctx
    u = []
    v = []
    for j in cycle:
        col = seed.matrix.column(j)
        minus = {i: -b for i, b in enumerate(col) if b < 0}
        plus = {i: b for i, b in enumerate(col) if b > 0}
        u.append(ctx.monomial({**minus, j: minus.get(j, 0) - 1}))
        v.append(ctx.monomial({**plus, j: plus.get(j, 0) - 1}))
    # u_t + v_t = x'_{cycle[t]}; J = {} gives the product of the primes
    pieces: dict[tuple, LaurentPoly] = {}
    total = ctx.zero()
    for outside, c, rest in _cyclic_terms(u, v):
        if any(x < 0 for e in c.terms for x in e):
            raise AssertionError("cycle rewriting produced a non-regular monomial")
        total = total + c * rest
        if len(outside) < len(cycle):
            key = tuple(cycle[t] for t in outside)
            pieces[key] = pieces.get(key, ctx.zero()) - c
    ends = prod(u, start=ctx.one()) + prod(v, start=ctx.one())
    pieces[()] = pieces.get((), ctx.zero()) + ends
    if total != ends:
        raise AssertionError("cycle identity failed to verify")
    return {"cycle": tuple(cycle), "pieces": pieces}


def shortest_oriented_cycle(seed: Seed) -> tuple | None:
    """A shortest oriented cycle (j0, ..., j_{l-1}) of Gamma(B), or None;
    a shortest cycle has no chord."""
    E = diagram_of(seed.matrix.entries).keys()
    paths = [(j,) for j in range(seed.n)]
    seen = {(j, j) for j in range(seed.n)}  # (start, end) of each path
    for path in paths:  # breadth first: the list grows while it is read
        if (path[-1], path[0]) in E:
            return path
        for v in range(seed.n):
            if (path[-1], v) in E and (path[0], v) not in seen:
                seen.add((path[0], v))
                paths.append(path + (v,))
    return None


def check_independence(seed: Seed, box: int) -> bool:
    """Linear independence of standard monomials with entries in [-box, box].

    For an acyclic seed this certifies independence of the finite family
    by pairwise-distinct leading exponents.  For a seed with an oriented
    cycle the dependency along a shortest one is exhibited (and verified
    exactly).  Its standard monomials are the product of the primes along
    the cycle, with entries -1, and each term x^e of a piece times the
    primes it keeps, with entries -1 there and e_j elsewhere, as a
    shortest cycle's pieces are standard.  The answer is False when all of
    them lie in the box, which takes entries of size up to the largest
    e_j and 1; otherwise the dependency says nothing about this family,
    and ValueError names the least box that holds it.
    """
    cycle = shortest_oriented_cycle(seed)
    if cycle is not None:
        # raises if the dependency fails to verify
        pieces = cycle_dependency(seed, cycle)["pieces"]
        least = max([1] + [x for p in pieces.values() for e in p.terms for x in e[:seed.n]])
        if least > box:
            raise ValueError(
                f"the cycle dependency needs box {least}, so box {box} decides nothing")
        return False
    sorted_seed = sorted_acyclic_seed(seed)
    seen = set()
    for exps in itertools.product(range(-box, box + 1), repeat=seed.n):
        lead = leading_exponent(exps, sorted_seed)
        if lead in seen:
            return False
        seen.add(lead)
    return True


# -- the subset identity ---------------------------------------------------------


def diffcomb_check(size: int) -> bool:
    """Symbolic verification of the cyclic inclusion-exclusion identity.

    Over 2*size indeterminates u_i, v_i with the cyclic successor i -> i+1:
    the signed sum over subsets J with J and J+ disjoint of
    prod_{i not in J u J+} (u_i + v_i) * prod_{j in J} u_j v_{j+} equals
    prod u_i + prod v_i.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    names = [f"u{i}" for i in range(size)] + [f"v{i}" for i in range(size)]
    ctx = Context(tuple(names))
    u = [ctx.var(i) for i in range(size)]
    v = [ctx.var(size + i) for i in range(size)]
    total = ctx.zero()
    for _, c, rest in _cyclic_terms(u, v):
        total = total + c * rest
    return total == prod(u, start=ctx.one()) + prod(v, start=ctx.one())


# -- upper bound membership -------------------------------------------------------


class Membership(NamedTuple):
    member: bool
    reason: str
    certificates: dict  # direction -> list of (power m, exact quotient)

    def __bool__(self) -> bool:
        return self.member

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "reason": self.reason,
            "certificates": {
                str(j + 1): [
                    {"power": m, "quotient": q.to_json()} for m, q in certs
                ]
                for j, certs in self.certificates.items()
            },
        }


def upper_bound_member(
    y: LaurentPoly, seed: Seed, den: LaurentPoly | None = None
) -> Membership:
    """Two-cluster membership test with per-direction divisibility certificates.

    With ``den`` the element tested is y / den, which is first divided out
    exactly; if the quotient is not Laurent, that already refutes
    membership.  For every direction j and every power m >= 1, the
    coefficient of x_j^(-m) must be divisible by P_j^m; each exact quotient
    is returned as a certificate.
    """
    if den is not None:
        try:
            y = y.divide_exact(den)
        except NotDivisible:
            return Membership(
                False, "not Laurent in the initial extended cluster", {}
            )
    certificates: dict[int, list] = {}
    for j in range(seed.n):
        # the coefficient of x_j^(-m), m >= 1, as terms with x_j's exponent 0;
        # one direction at a time, so that a failing direction returns early
        negative: dict[int, dict] = {}
        for e, c in y.terms.items():
            if e[j] < 0:
                negative.setdefault(-e[j], {})[e[:j] + (0,) + e[j + 1 :]] = c
        P = exchange_polynomial(seed, j)
        certs = []
        for m in sorted(negative, reverse=True):
            try:
                q = LaurentPoly(y.ctx, negative[m]).divide_exact(P ** m)
            except NotDivisible:
                return Membership(
                    False,
                    f"direction {j + 1}: coefficient of power {-m} not divisible",
                    certificates,
                )
            certs.append((m, q))
        certificates[j] = certs
    return Membership(True, "member of all adjacent Laurent rings", certificates)
