"""Min-plus valuations, tree propagation and non-membership certificates.

A valuation assigns rational weights to the ambient variables and sends a
Laurent polynomial to the minimum weighted degree over its support; that
map is additive on products and super-additive on sums, with equality on
sums of polynomials with positive coefficients.

On a rank-3 seed whose whole mutation class is cyclic, every exchange
relation is binomial in the other two cluster variables, so valuations
propagate along the 3-regular tree of mutation directions by an explicit
min-plus recursion.  A renormalized form of the same recursion (the delta
values below) divides by the square roots of the exchange-weight products,
which leaves edge weights u + u' = 1 (1/2 and 1/2 on the Markov seed).
Mutation keeps the skew-symmetrizer, so each ratio of two of those roots is
a ratio of two matrix entries, and the recursion needs no square roots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .laurent import LaurentPoly
from .seeds import ExchangeMatrix, Seed, exchange_polynomial, matrix_mutate, skew_symmetrizer
from .util import exact_rationals


class NotCyclicEverywhere(ValueError):
    """An acyclic matrix appeared where the cyclic recursion was assumed."""


class Valuation(NamedTuple):
    """Rational weights, one per ambient variable (frozen weights usually 0)."""

    weights: tuple

    @staticmethod
    def on_cluster(seed: Seed, values: Sequence) -> "Valuation":
        if len(values) != seed.n:
            raise ValueError("one weight per cluster variable")
        w = exact_rationals(values) + [Fraction(0)] * (seed.m - seed.n)
        return Valuation(tuple(w))


def _degrees(y: LaurentPoly, v: Valuation) -> set:
    """The weighted exponent sums of y's terms, its degrees under v; exact."""
    if y.is_zero():
        raise ValueError("the zero polynomial has no valuation")
    if len(v.weights) != y.ctx.nvars:
        raise ValueError("weight count does not match the context")
    return {
        sum((Fraction(e_i) * w_i for e_i, w_i in zip(e, v.weights)), Fraction(0))
        for e in y.terms
    }


def valuate(y: LaurentPoly, v: Valuation) -> Fraction:
    """min over the support of the weighted exponent sum; exact."""
    return min(_degrees(y, v))


def _principal3(B: ExchangeMatrix) -> tuple:
    if B.n != 3:
        raise ValueError("rank-3 matrices only")
    return B.principal()


def _is_cyclic3(P: tuple) -> bool:
    """Each column carries exactly one positive and one negative entry."""
    for j in range(3):
        col = [P[i][j] for i in range(3) if i != j]
        if not (min(col) < 0 < max(col)):
            return False
    return True


def _others(j: int) -> tuple[int, int]:
    return tuple(i for i in range(3) if i != j)


class TreeAssignment(NamedTuple):
    """Values on the 3-regular tree, addressed by direction strings.

    Addresses use 1-based direction digits with no immediate repetition
    ("" is the root, "2" its neighbor across direction 2, and so on).
    """

    values: dict

    def to_json(self) -> dict:
        return {
            a: [str(x) for x in triple] for a, triple in sorted(self.values.items())
        }


def _mutation_tree(P0: tuple, depth: int):
    """Walk the mutation tree of the 3x3 matrix P0 breadth first, to depth.

    Yields (addr, P, children) for each vertex of radius below depth, with
    P the vertex's entries and children the list of (j, child_addr, P2),
    P2 the entries of matrix_mutate at j, over every direction but the one
    that led to addr.  The children are made before the caller checks P,
    which changes no error: mutating an acyclic sign-skew-symmetric 3x3
    matrix keeps it sign-skew-symmetric, so only a cyclic P can make
    matrix_mutate raise.  A mutation and its sign-skew-symmetry check are
    a function of the pair (entries, j), so matrix_mutate runs once per
    distinct pair, which keys its cache, and every edge is still checked:
    Markov's tree, with two matrices, mutates 6 times.  The cache keeps
    each distinct matrix, so a tree without repeats holds them all.
    """
    root = ExchangeMatrix.make(P0)
    mutated: dict = {}  # (entries, j) -> entries of matrix_mutate at j
    layer = [("", root.entries)]
    for _ in range(depth):
        nxt = []
        for addr, P in layer:
            children = []
            for j, digit in enumerate("123"):
                if addr[-1:] == digit:
                    continue
                P2 = mutated.get((P, j))
                if P2 is None:
                    P2 = mutated[P, j] = matrix_mutate(root._replace(entries=P), j).entries
                children.append((j, addr + digit, P2))
            yield addr, P, children
            nxt += [(child, P2) for _, child, P2 in children]
        layer = nxt


def propagate_valuation(seed: Seed, v0: Valuation, depth: int) -> TreeAssignment:
    """Propagate cluster-variable valuations along the mutation tree.

    Requires a rank-3 seed whose matrix stays cyclic at every visited
    vertex; each step replaces the mutated variable's value by
    min(|b_ij| nu_i, |b_kj| nu_k) - nu_j.
    """
    P0 = _principal3(seed.matrix)
    if not _is_cyclic3(P0):
        raise NotCyclicEverywhere("the initial matrix is not cyclic")
    values = {"": tuple(v0.weights[:3])}
    for addr, P, children in _mutation_tree(P0, depth):
        if not _is_cyclic3(P):
            raise NotCyclicEverywhere(f"acyclic matrix at address {addr!r}")
        nu = values[addr]
        for j, child, _ in children:
            i, k = _others(j)
            new_j = min(abs(P[i][j]) * nu[i], abs(P[k][j]) * nu[k]) - nu[j]
            values[child] = tuple(new_j if t == j else nu[t] for t in range(3))
    return TreeAssignment(values)


# -- the renormalized recursion -----------------------------------------------


class DeltaWitness(NamedTuple):
    """Finite-radius certificate produced by the renormalized recursion.

    ``sequence`` is the per-radius minimum of the raw delta values, which
    must be strictly decreasing; ``shifted`` subtracts the radius-r value,
    giving an assignment nonnegative inside radius r and negative at some
    vertex of radius r+1 (recorded in ``negative_at``).  The raw values
    are ``shifted`` plus ``sequence[radius]``.
    """

    sequence: tuple
    shifted: dict
    radius: int
    strictly_decreasing: bool
    nonnegative_inside: bool
    negative_at: tuple | None

    @property
    def valid(self) -> bool:
        return (
            self.strictly_decreasing
            and self.nonnegative_inside
            and self.negative_at is not None
        )

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "sequence": [str(x) for x in self.sequence],
            "strictly_decreasing": self.strictly_decreasing,
            "negative_at": list(self.negative_at) if self.negative_at else None,
            "shifted": {
                a: [str(x) for x in t] for a, t in sorted(self.shifted.items())
            },
        }


def _exact(x: Fraction) -> int | Fraction:
    """x, as an int when its denominator is 1."""
    return x.numerator if x.denominator == 1 else x


def delta_witness(
    B: ExchangeMatrix, radius: int, delta0: Sequence = (0, 0, 1)
) -> DeltaWitness:
    """Run the delta recursion to radius+1 and package the certificate.

    Across the edge in direction j from M to M2 = mu_j(M), with (i, k) the
    other two directions, the recursion is
    delta_j' = p min(delta_i, delta_k) - r delta_j, where r = s_j / s_j'
    and p = 1 + r for s_j = sqrt|b_ik b_ki|.  Mutation keeps the
    skew-symmetrizer D (d_i |b_ik| = d_k |b_ki|), so s_j = |b_ik| sqrt(d_i/d_k)
    and the root cancels: r = |b_ik(M)| / |b_ik(M2)|, a ratio of matrix
    entries.  The root recursion s_i s_k = s_j + s_j' is checked at every
    edge as the entry identity |b_ij b_jk| = |b_ik(M)| + |b_ik(M2)|.
    The cyclicity and recursion checks and the pair (p, r) are functions
    of the edge's (entries, j), so one edge table runs them once per
    distinct pair and still checks every edge; only the deltas run once
    per edge, each child's triple a copy of its parent's with entry j
    replaced.  So the children of a vertex hold all its values, and the
    least value of each radius is the least of the radius below and of
    the new entries made at it.
    Integral values are ints, equal to and printed as the same Fractions.
    """
    if len(delta0) != 3:
        raise ValueError(f"delta0 needs 3 entries, got {len(delta0)}")
    P0 = _principal3(B)
    if not _is_cyclic3(P0):
        raise NotCyclicEverywhere("the initial matrix is not cyclic")
    if skew_symmetrizer(B) is None:
        raise ValueError("delta recursion requires a skew-symmetrizable matrix")
    edges: dict = {}  # (entries, j) -> (p, r, i, k) of a checked edge
    deltas = {"": list(map(_exact, exact_rationals(delta0)))}
    sequence = [min(deltas[""])]  # radius -> least delta value there
    for addr, P, children in _mutation_tree(P0, radius + 1):
        dl = deltas[addr]
        if len(sequence) == len(addr) + 1:  # the first vertex of its radius
            sequence.append(sequence[-1])
        for j, child, P2 in children:
            edge = edges.get((P, j))
            if edge is None:
                if not _is_cyclic3(P2):
                    raise NotCyclicEverywhere(f"acyclic matrix at address {child!r}")
                i, k = _others(j)
                old, new = abs(P[i][k]), abs(P2[i][k])
                if abs(P[i][j] * P[j][k]) != old + new:
                    raise AssertionError("square-root recursion mismatch")
                r = Fraction(old, new)
                edge = edges[P, j] = (_exact(1 + r), _exact(r), i, k)
            p, r, i, k = edge
            t = dl.copy()
            t[j] = new_j = p * min(dl[i], dl[k]) - r * dl[j]
            deltas[child] = t
            if new_j < sequence[-1]:
                sequence[-1] = new_j

    strict = all(a > b for a, b in zip(sequence, sequence[1:]))
    shift = sequence[radius]
    shifted = deltas  # each triple is replaced in place, so one table is alive
    for a, t in shifted.items():
        shifted[a] = tuple([x - shift for x in t])
    # the least address of the outer radius with a negative value, if any
    outer = min((a for a, t in shifted.items() if len(a) == radius + 1 and min(t) < 0),
                default=None)
    negative_at = None if outer is None else (
        outer, next(idx + 1 for idx, x in enumerate(shifted[outer]) if x < 0))
    ok_inside = all(
        x >= 0 for a, t in shifted.items() if len(a) <= radius for x in t
    )
    return DeltaWitness(
        sequence=tuple(sequence),
        shifted=shifted,
        radius=radius,
        strictly_decreasing=strict,
        nonnegative_inside=ok_inside,
        negative_at=negative_at,
    )


# -- non-membership certificates -------------------------------------------------


class LowerBoundCertificate(NamedTuple):
    """Grading certificate that an element avoids the lower bound.

    Valid when the valuation makes every exchange polynomial homogeneous,
    every generator strictly positive, and the element homogeneous,
    non-constant and of value strictly below every generator: then the
    lower bound's graded piece at that value contains only coefficients,
    which the element is not.  A negative value with nonnegative
    generators certifies on its own.
    """

    valid: bool
    reason: str
    value: Fraction | None
    generator_values: tuple
    valuation: Valuation

    def __bool__(self) -> bool:
        return self.valid

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "reason": self.reason,
            "value": None if self.value is None else str(self.value),
            "generator_values": [
                [str(a), str(b)] for a, b in self.generator_values
            ],
            "weights": [str(w) for w in self.valuation.weights],
        }


def not_in_lower_bound_certificate(
    y: LaurentPoly, seed: Seed, v: Valuation
) -> LowerBoundCertificate:
    if y.is_zero():
        return LowerBoundCertificate(False, "zero element", None, (), v)
    if any(w != 0 for w in v.weights[seed.n :]):
        return LowerBoundCertificate(
            False, "frozen variables must have weight zero", None, (), v
        )
    n = seed.n
    degrees = [_degrees(exchange_polynomial(seed, j), v) for j in range(n)]
    gen_vals = [(v.weights[j], min(d) - v.weights[j]) for j, d in enumerate(degrees)]
    y_degrees = _degrees(y, v)
    value = min(y_degrees)
    homogeneous = all(len(d) == 1 for d in degrees + [y_degrees])
    all_gens = [x for pair in gen_vals for x in pair]
    if value < 0 and all(g >= 0 for g in all_gens):
        return LowerBoundCertificate(
            True, "negative value with nonnegative generators", value,
            tuple(gen_vals), v,
        )
    nonconstant = any(any(e[:n]) for e in y.terms)
    g_min = min(all_gens)
    if (
        homogeneous
        and nonconstant
        and all(g > 0 for g in all_gens)
        and value < g_min
    ):
        return LowerBoundCertificate(
            True, "homogeneous of value below every generator", value,
            tuple(gen_vals), v,
        )
    if not nonconstant:
        reason = "element is constant over the coefficients"
    elif value >= g_min:
        reason = "value does not separate from the generators"
    elif not homogeneous:
        reason = "grading argument needs homogeneity"
    else:
        reason = "generators not strictly positive"
    return LowerBoundCertificate(False, reason, value, tuple(gen_vals), v)
