"""Exact Laurent polynomial and rational function arithmetic over Z.

A Laurent polynomial in m variables is a finitely supported map from
exponent vectors (tuples of m ints, negative entries allowed) to nonzero
Python ints.  All arithmetic is exact: integer coefficients are arbitrary
precision and no floating point is used anywhere in this package.

Exponent vectors are ordered so that ``a`` precedes ``b`` when the first
nonzero entry of ``b - a`` is positive.  That is exactly Python's tuple
order, so ``min(support)`` is the leading exponent and sorting the term
dict gives the canonical form.

Multiplication and exact division run on packed exponents (Kronecker
substitution, after Monagan and Pearce): each vector, shifted so that its
entries are nonnegative, becomes one int with a slot per variable and the
first variable in the most significant slot.  Exponent addition is then
one int addition and int order is tuple order.  The slot width is derived
from the operands' exponent ranges on every call, so no slot can overflow;
the packed form never leaves the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from operator import mul
from typing import Iterator, Mapping, Sequence

from .util import decimal_int


class ContextMismatch(ValueError):
    """Operands live over different variable contexts."""


class NotDivisible(ArithmeticError):
    """Exact division failed; the quotient is not a Laurent polynomial."""


class NotInvertible(ArithmeticError):
    """Only monomials with coefficient +-1 are units of the Laurent ring."""


@dataclass(frozen=True)
class Context:
    """An ordered tuple of variable names fixing the ambient Laurent ring."""

    names: tuple[str, ...]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def const(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly(self, {})
        return LaurentPoly(self, {(0,) * self.nvars: int(c)})

    def var(self, i: int) -> "LaurentPoly":
        return self.monomial({i: 1})

    def monomial(self, powers: Mapping[int, int], coeff: int = 1) -> "LaurentPoly":
        if coeff == 0:
            return LaurentPoly(self, {})
        exp = [0] * self.nvars
        for i, e in powers.items():
            exp[i] = e
        return LaurentPoly(self, {tuple(exp): int(coeff)})


def _check_ctx(a: "LaurentPoly", b: "LaurentPoly") -> None:
    if a.ctx.names != b.ctx.names:
        raise ContextMismatch(f"{a.ctx.names} vs {b.ctx.names}")


# -- packed exponents ---------------------------------------------------------


def _box(terms: Mapping[tuple[int, ...], int]) -> tuple[list[int], list[int]]:
    """Per-variable minimum and maximum exponent over a nonempty support."""
    cols = list(zip(*terms))
    return [min(c) for c in cols], [max(c) for c in cols]


def _weights(nvars: int, width: int) -> list[int]:
    """Place values of the slots, first variable most significant."""
    return [1 << (width * (nvars - 1 - i)) for i in range(nvars)]


def _pack(
    terms: Mapping[tuple[int, ...], int], low: Sequence[int], weights: list[int]
) -> dict[int, int]:
    """Terms keyed by the packed exponent ``e - low`` (every slot >= 0)."""
    off = sum(map(mul, low, weights))
    return {sum(map(mul, e, weights)) - off: c for e, c in terms.items()}


def _unpack(
    packed: Mapping[int, int], low: Sequence[int], width: int
) -> dict[tuple[int, ...], int]:
    """Inverse of _pack, dropping zero coefficients."""
    slots = [(width * (len(low) - 1 - i), m) for i, m in enumerate(low)]
    mask = (1 << width) - 1
    return {
        tuple([(k >> s & mask) + m for s, m in slots]): c
        for k, c in packed.items()
        if c
    }


class LaurentPoly:
    """Immutable Laurent polynomial; ``terms`` maps exponent tuples to ints.

    Zero coefficients are never stored; the zero polynomial has an empty
    term dict.  Instances are hashable and compare by exact term equality.
    """

    __slots__ = ("ctx", "terms", "_key")

    def __init__(self, ctx: Context, terms: Mapping[tuple[int, ...], int]):
        self.ctx = ctx
        self.terms = {e: int(c) for e, c in terms.items() if c != 0}
        self._key = None

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g

    def min_exponents(self) -> tuple[int, ...]:
        """Per-variable minimum exponent over the support (zero poly: all 0)."""
        if not self.terms:
            return (0,) * self.ctx.nvars
        return tuple(_box(self.terms)[0])

    def leading_exponent(self) -> tuple[int, ...]:
        """The lexicographically first exponent of the support."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading exponent")
        return min(self.terms)

    def key(self) -> tuple:
        """Canonical hashable form (terms in the fixed lexicographic order)."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_ctx(self, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentPoly(self.ctx, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_ctx(self, other)
        if not self.terms or not other.terms:
            return self.ctx.zero()
        alow, ahigh = _box(self.terms)
        blow, bhigh = _box(other.terms)
        span = max(
            (ah - al + bh - bl for al, ah, bl, bh in zip(alow, ahigh, blow, bhigh)),
            default=0,
        )
        width = span.bit_length()
        weights = _weights(self.ctx.nvars, width)
        pb = list(_pack(other.terms, blow, weights).items())
        out: dict[int, int] = {}
        get = out.get
        for ea, ca in _pack(self.terms, alow, weights).items():
            for eb, cb in pb:
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        low = [a + b for a, b in zip(alow, blow)]
        return LaurentPoly(self.ctx, _unpack(out, low, width))

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return self.ctx.zero()
        return LaurentPoly(self.ctx, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ctx.one()
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise NotInvertible("only monomials are invertible")
        ((e, c),) = self.terms.items()
        if c not in (1, -1):
            raise NotInvertible(f"coefficient {c} is not a unit of Z")
        return LaurentPoly(self.ctx, {tuple(-x for x in e): c})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx.names == other.ctx.names and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx.names, self.key()))

    # -- division and expansion -------------------------------------------

    def divide_exact(self, den: "LaurentPoly") -> "LaurentPoly":
        """Return q with q*den == self, or raise NotDivisible.

        Division is performed in the Laurent ring: num and den are shifted
        to honest polynomials with per-variable minimum exponent 0, where
        exact divisibility is equivalent, and the quotient is shifted back.
        An exact quotient's exponents lie in the box [0, nspan - dspan],
        so every quotient term is checked against that box; each slot has
        a guard bit on top, and one subtraction checks all slots at once.
        The leading remainder term is popped from a max-heap of remainder
        exponents (Monagan and Pearce), each pushed when it first enters;
        a cancelled term stays as a zero until popped.  A step adds only
        exponents below the one it pops, so none is ever pushed twice.
        """
        _check_ctx(self, den)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self.ctx.zero()
        nlow, nhigh = _box(self.terms)
        dlow, dhigh = _box(den.terms)
        qmax = [nh - nl - dh + dl for nl, nh, dl, dh in zip(nlow, nhigh, dlow, dhigh)]
        if any(x < 0 for x in qmax):
            raise NotDivisible("denominator spans more degrees than numerator")
        nspan = max((nh - nl for nl, nh in zip(nlow, nhigh)), default=0)
        width = nspan.bit_length() + 1
        weights = _weights(self.ctx.nvars, width)
        guards = sum(weights) << (width - 1)
        qtop = sum(map(mul, qmax, weights)) | guards
        rem = _pack(self.terms, nlow, weights)
        dhat = _pack(den.terms, dlow, weights)
        dlead = max(dhat)
        dlc = dhat.pop(dlead)
        dtail = list(dhat.items())
        heap = [-e for e in rem]
        heapify(heap)
        get = rem.get
        quot: dict[int, int] = {}
        while heap:
            lead = -heappop(heap)
            c = rem.pop(lead)
            if not c:
                continue
            t = (lead | guards) - dlead
            if t & guards != guards or c % dlc:
                raise NotDivisible("leading term not divisible")
            t ^= guards
            if (qtop - t) & guards != guards:
                raise NotDivisible("quotient term outside the exponent box")
            qc = c // dlc
            quot[t] = qc
            for e, dc in dtail:
                ne = t + e
                v = get(ne)
                if v is None:
                    rem[ne] = -qc * dc
                    heappush(heap, -ne)
                else:
                    rem[ne] = v - qc * dc
        shift = [a - b for a, b in zip(nlow, dlow)]
        return LaurentPoly(self.ctx, _unpack(quot, shift, width))

    def divides(self, num: "LaurentPoly") -> bool:
        try:
            num.divide_exact(self)
            return True
        except NotDivisible:
            return False

    def expand_in(self, j: int) -> list[tuple[int, "LaurentPoly"]]:
        """Write self as sum_p coeff_p * x_j^p with coefficients free of x_j.

        Returns (power, coefficient) pairs with strictly increasing powers.
        """
        buckets: dict[int, dict[tuple[int, ...], int]] = {}
        for e, c in self.terms.items():
            p = e[j]
            reduced = e[:j] + (0,) + e[j + 1 :]
            buckets.setdefault(p, {})[reduced] = c
        return [
            (p, LaurentPoly(self.ctx, buckets[p])) for p in sorted(buckets)
        ]

    def leading_term_in(self, j: int) -> "LaurentPoly":
        """Sum of the terms carrying the smallest power of variable j."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        m = min(e[j] for e in self.terms)
        return LaurentPoly(
            self.ctx, {e: c for e, c in self.terms.items() if e[j] == m}
        )

    # -- evaluation --------------------------------------------------------

    def compose(self, values: Sequence["LaurentPoly"]) -> "LaurentPoly":
        """Evaluate at Laurent polynomial arguments (exact substitution).

        Negative powers are only taken of monomial arguments with unit
        coefficient; anything else raises NotInvertible.
        """
        if len(values) != self.ctx.nvars:
            raise ContextMismatch("wrong number of substitution values")
        if not self.terms:
            return values[0].ctx.zero() if values else self.ctx.zero()
        tgt = values[0].ctx
        if any(v.ctx.names != tgt.names for v in values):
            raise ContextMismatch("substitution values over different contexts")
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            factors = [values[i] ** p for i, p in enumerate(e) if p]
            term = reduce(mul, factors) if factors else tgt.one()
            for f, v in term.terms.items():
                out[f] = out.get(f, 0) + c * v
        return LaurentPoly(tgt, out)

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        """Exact numeric evaluation at rationals, over one common denominator.

        With x_i = p_i / q_i and the support in the exponent box
        [low, high], x^e = p^(e - low) q^(high - e) * p^low / q^high, so
        the sum of the terms is an integer sum with nonnegative powers
        times one fixed factor.  Exact for int and Fraction values, and
        always a Fraction; a zero value at a negative exponent raises
        ZeroDivisionError.
        """
        if not self.terms:
            return Fraction(0)
        low, high = _box(self.terms)
        num = den = 1
        active = []
        for i, (lo, hi) in enumerate(zip(low, high)):
            p, q = values[i].numerator, values[i].denominator
            if lo < 0:
                den *= p**-lo
            else:
                num *= p**lo
            if hi < 0:
                num *= q**-hi
            else:
                den *= q**hi
            if lo < hi:
                ks = range(hi - lo + 1)
                active.append((i, lo, hi, [p**k for k in ks], [q**k for k in ks]))
        total = 0
        for e, c in self.terms.items():
            for i, lo, hi, ppow, qpow in active:
                c *= ppow[e[i] - lo] * qpow[hi - e[i]]
            total += c
        return Fraction(total * num, den)

    # -- serialization and display ------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.ctx.names),
            "terms": [
                {"exp": list(e), "coef": str(c)} for e, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: Mapping, ctx: Context | None = None) -> "LaurentPoly":
        names = tuple(data["vars"])
        if ctx is None:
            ctx = Context(names)
        elif ctx.names != names:
            raise ContextMismatch(f"{ctx.names} vs {names}")
        terms: dict[tuple[int, ...], int] = {}
        for t in data["terms"]:
            exp, coef = t["exp"], t["coef"]
            if not isinstance(exp, (list, tuple)) or len(exp) != ctx.nvars:
                raise ValueError(f"exponent {exp!r} needs {ctx.nvars} entries")
            if not all(type(x) is int for x in exp):
                raise ValueError(f"exponent {exp!r} has a non-integer entry")
            if type(coef) not in (int, str):
                raise ValueError(f"coefficient {coef!r} is not an integer")
            e = tuple(exp)
            if e in terms:
                raise ValueError(f"exponent {exp!r} is repeated")
            terms[e] = decimal_int(coef) if type(coef) is str else coef
        return LaurentPoly(ctx, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = [
                f"{self.ctx.names[i]}^{p}" if p != 1 else self.ctx.names[i]
                for i, p in enumerate(e)
                if p
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out


# -- rational functions ----------------------------------------------------


class RatFunc:
    """A fraction of Laurent polynomials, lightly normalized.

    The pair is scaled by the gcd of the two contents and the sign of the
    lexicographically leading denominator term is made positive.  Equality
    is decided by cross multiplication; no polynomial gcd is computed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        _check_ctx(num, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = gcd(num.content(), den.content())
        if g > 1:
            num = LaurentPoly(num.ctx, {e: c // g for e, c in num.terms.items()})
            den = LaurentPoly(den.ctx, {e: c // g for e, c in den.terms.items()})
        if den.terms[max(den.terms)] < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        raise TypeError("RatFunc is not hashable; compare via cross multiplication")

    def reduce_to_laurent(self) -> LaurentPoly:
        """Exact reduction to a Laurent polynomial; NotDivisible if impossible."""
        return self.num.divide_exact(self.den)

    def __repr__(self) -> str:
        return f"({self.num!r}) / ({self.den!r})"


# -- Newton polytopes --------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolytope:
    """Extreme points of the convex hull of a support, as exponent tuples."""

    vertices: frozenset

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(sorted(self.vertices))


def _solve_convex_combination(
    pts: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> bool:
    """Does target lie in the convex hull of pts, with pts affinely independent?

    Solves sum(l_i * p_i) = target, sum(l_i) = 1 exactly over Q and checks
    nonnegativity.  Underdetermined systems (affinely dependent pts) return
    False; Caratheodory guarantees an independent witness subset exists.
    """
    k = len(pts)
    dim = len(target)
    rows = [[Fraction(p[c]) for p in pts] + [Fraction(target[c])] for c in range(dim)]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            return False  # dependent column: some smaller subset covers this case
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return False  # inconsistent
    lams = [rows[i][-1] for i in range(len(pivots))]
    return all(l >= 0 for l in lams)


def point_in_hull(target: tuple[int, ...], pts: Sequence[tuple[int, ...]]) -> bool:
    """Exact rational membership test: target in conv(pts)."""
    if not pts:
        return False
    if target in pts:
        return True
    dim = len(target)
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in combinations(pts, size):
            if _solve_convex_combination(subset, target):
                return True
    return False


def newton_polytope(p: LaurentPoly) -> NewtonPolytope:
    """Extreme points of the convex hull of the support, exactly over Q.

    Brute force by design: supports of exchange polynomials are binomials
    and every other use keeps supports tiny.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no Newton polytope")
    pts = p.support()
    if len(pts) > 24:
        raise ValueError("support too large for the brute-force hull")
    verts = [
        q for q in pts if not point_in_hull(q, [r for r in pts if r != q])
    ]
    return NewtonPolytope(frozenset(verts))


def minkowski_sum(a: NewtonPolytope, b: NewtonPolytope) -> NewtonPolytope:
    """Vertices of the Minkowski sum of two polytopes given by vertices."""
    pts = sorted(
        {tuple(x + y for x, y in zip(p, q)) for p in a.vertices for q in b.vertices}
    )
    verts = [q for q in pts if not point_in_hull(q, [r for r in pts if r != q])]
    return NewtonPolytope(frozenset(verts))
