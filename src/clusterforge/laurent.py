"""Exact Laurent polynomial arithmetic over Z.

A Laurent polynomial in m variables is a finitely supported map from
exponent vectors (tuples of m ints, negative entries allowed) to nonzero
Python ints.  All arithmetic is exact: integer coefficients are arbitrary
precision and no floating point is used anywhere in this package.

Exponent vectors are ordered so that ``a`` precedes ``b`` when the first
nonzero entry of ``b - a`` is positive.  That is exactly Python's tuple
order, so ``min(support)`` is the leading exponent and sorting the term
dict gives the canonical form.

Multiplication, exact division and composition run on packed exponents
(Kronecker substitution, after Monagan and Pearce): each vector, shifted by
the exponent box's lower corner so that its entries are nonnegative,
becomes one int with a slot per variable and the first variable in the
most significant slot.  Exponent addition is then one int addition and int
order is tuple order.  Each call sizes its slots from the operands'
exponent boxes, so no slot can overflow, and rounds the width up to a
multiple of 8 bits so that consecutive calls agree on it.  A result keeps
its packed terms and its exact exponent box; the next call reuses that
packing when the widths agree, and the exponent tuples of ``terms`` are
built only when something reads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from math import prod
from operator import mul, sub
from typing import Mapping, NamedTuple, Sequence

from .util import check_keys, decimal_int, exact_rationals


class ContextMismatch(ValueError):
    """Operands live over different variable contexts."""


class NotDivisible(ArithmeticError):
    """Exact division failed; the quotient is not a Laurent polynomial."""


class NotInvertible(ArithmeticError):
    """Only monomials with coefficient +-1 are units of the Laurent ring."""


class Context(NamedTuple):
    """An ordered tuple of variable names fixing the ambient Laurent ring."""

    names: tuple[str, ...]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:  # the variable's position, not tuple.index
        return self.names.index(name)

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def const(self, c: int) -> "LaurentPoly":
        """The constant c; an int, checked as every coefficient is."""
        return LaurentPoly(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "LaurentPoly":
        return self.monomial({i: 1})

    def monomial(self, powers: Mapping[int, int], coeff: int = 1) -> "LaurentPoly":
        """coeff * prod x_i^e over powers' items (i, e): an index outside
        0..nvars-1 raises IndexError and a non-int exponent TypeError."""
        exp = [0] * self.nvars
        for i, e in powers.items():
            if type(i) is not int or not 0 <= i < self.nvars:
                raise IndexError(f"variable index {i!r} is not in 0..{self.nvars - 1}")
            if type(e) is not int:
                raise TypeError(f"exponent {e!r} is not an int")
            exp[i] = e
        return LaurentPoly(self, {tuple(exp): coeff})


def _check_ctx(a: "LaurentPoly", b: "LaurentPoly") -> None:
    if a.ctx.names != b.ctx.names:
        raise ContextMismatch(f"{a.ctx.names} vs {b.ctx.names}")


# -- packed exponents ---------------------------------------------------------


def _box(terms: Mapping[tuple[int, ...], int]) -> tuple[list[int], list[int]]:
    """Per-variable minimum and maximum exponent over a nonempty support."""
    cols = list(zip(*terms))
    return [min(c) for c in cols], [max(c) for c in cols]


def _width(bits: int) -> int:
    """Slot width for values of ``bits`` bits: a multiple of 8, at least 8."""
    return max(8, -(-bits // 8) * 8)


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


def _packed_result(
    ctx: Context, width: int, packed: dict[int, int], box: tuple
) -> "LaurentPoly":
    """A nonzero kernel result: its nonzero terms keyed by packed ``e - low``.

    ``box`` must be the exact (low, high) exponent box of the terms.
    """
    p = object.__new__(LaurentPoly)
    p.ctx, p._terms, p._key = ctx, None, None
    p._packed, p._bounds = (width, packed), box
    return p


class LaurentPoly:
    """Immutable Laurent polynomial; ``terms`` maps exponent tuples to ints.

    A coefficient that is not an int raises TypeError and a zero one is
    dropped, so the zero polynomial has an empty term dict.  An exponent
    vector of the wrong length raises ValueError, and one with an entry
    that is not an int TypeError.  Instances are hashable and compare by
    exact term equality.  A kernel result holds its packed terms and
    exponent box, and builds ``terms`` on first read.
    """

    __slots__ = ("ctx", "_terms", "_key", "_packed", "_bounds")

    def __init__(self, ctx: Context, terms: Mapping[tuple[int, ...], int]):
        for c in terms.values():
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an int")
        if set(map(len, terms)) - {ctx.nvars}:
            e = next(e for e in terms if len(e) != ctx.nvars)
            raise ValueError(f"exponent {e!r} needs {ctx.nvars} entries")
        if set(map(type, chain.from_iterable(terms))) - {int}:
            e = next(e for e in terms if any(type(x) is not int for x in e))
            raise TypeError(f"exponent {e!r} has a non-int entry")
        self.ctx = ctx
        self._terms = {e: c for e, c in terms.items() if c}
        self._key = self._packed = self._bounds = None

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        if self._terms is None:
            width, packed = self._packed
            self._terms = _unpack(packed, self._bounds[0], width)
        return self._terms

    def _exponent_box(self) -> tuple[list[int], list[int]]:
        """Per-variable minimum and maximum exponent (nonzero poly), cached."""
        if self._bounds is None:
            self._bounds = _box(self.terms)
        return self._bounds

    def _packing(self, width: int) -> dict[int, int]:
        """Terms keyed by packed ``e - low`` at this slot width (do not mutate)."""
        if self._packed is not None and self._packed[0] == width:
            return self._packed[1]
        weights = _weights(self.ctx.nvars, width)
        return _pack(self.terms, self._exponent_box()[0], weights)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._terms is not None and not self._terms

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
        if self.is_zero() or other.is_zero():
            return self.ctx.zero()
        # the box of a product over Z is the sum of the boxes: the terms
        # at each extreme exponent of a variable cannot all cancel
        alow, ahigh = self._exponent_box()
        blow, bhigh = other._exponent_box()
        low = [a + b for a, b in zip(alow, blow)]
        high = [a + b for a, b in zip(ahigh, bhigh)]
        width = _width(max(map(sub, high, low), default=0).bit_length())
        pb = list(other._packing(width).items())
        out: dict[int, int] = {}
        get = out.get
        for ea, ca in self._packing(width).items():
            for eb, cb in pb:
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return _packed_result(self.ctx, width, out, (low, high))

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

    # -- division ---------------------------------------------------------

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
        nlow, nhigh = self._exponent_box()
        dlow, dhigh = den._exponent_box()
        qmax = [nh - nl - dh + dl for nl, nh, dl, dh in zip(nlow, nhigh, dlow, dhigh)]
        if any(x < 0 for x in qmax):
            raise NotDivisible("denominator spans more degrees than numerator")
        nspan = max(map(sub, nhigh, nlow), default=0)
        width = _width(nspan.bit_length() + 1)
        weights = _weights(self.ctx.nvars, width)
        guards = sum(weights) << (width - 1)
        qtop = sum(map(mul, qmax, weights)) | guards
        rem = dict(self._packing(width))
        dhat = den._packing(width)
        dlead = max(dhat)
        dlc = dhat[dlead]
        dtail = [(e, c) for e, c in dhat.items() if e != dlead]
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
        # exact: q * den == self, so the box of self is q's box plus den's
        box = list(map(sub, nlow, dlow)), list(map(sub, nhigh, dhigh))
        return _packed_result(self.ctx, width, quot, box)

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
        parts = []
        for e, c in self.terms.items():
            factors = [values[i] ** p for i, p in enumerate(e) if p]
            parts.append((c, reduce(mul, factors) if factors else tgt.one()))
        boxes = [term._exponent_box() for _, term in parts]
        low = [min(col) for col in zip(*(lo for lo, _ in boxes))]
        high = [max(col) for col in zip(*(hi for _, hi in boxes))]
        width = _width(max(map(sub, high, low), default=0).bit_length())
        weights = _weights(tgt.nvars, width)
        out: dict[int, int] = {}
        get = out.get
        for (c, term), (tlow, _) in zip(parts, boxes):
            off = sum(map(mul, map(sub, tlow, low), weights))
            for f, v in term._packing(width).items():
                f += off
                out[f] = get(f, 0) + c * v
        if 0 in out.values():
            # a cancellation can shrink the box, so rebuild it from the terms
            return LaurentPoly(tgt, _unpack(out, low, width))
        return _packed_result(tgt, width, out, (low, high))

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        """Exact numeric value, the sum of c * prod x_i^e_i, as a Fraction.

        A value that is not an int or a Fraction raises TypeError, a zero
        value at a negative exponent raises ZeroDivisionError, and fewer
        values than the context's variables raise IndexError.
        """
        if len(values) < self.ctx.nvars:
            raise IndexError(f"{len(values)} values for {self.ctx.nvars} variables")
        xs = exact_rationals(values)
        return sum(
            (c * prod(x**p for x, p in zip(xs, e) if p) for e, c in self.terms.items()),
            Fraction(0),
        )

    # -- serialization and display ------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.ctx.names),
            "terms": [
                {"exp": list(e), "coef": str(c)} for e, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: dict, ctx: Context | None = None) -> "LaurentPoly":
        check_keys(data, ("vars", "terms"), "Laurent JSON")
        names, rows = data["vars"], data["terms"]
        # a string is not read as its characters
        if type(names) is not list or any(type(x) is not str for x in names):
            raise ValueError(f"vars {names!r} is not a list of strings")
        if type(rows) is not list:
            raise ValueError(f"terms {rows!r} is not a list")
        names = tuple(names)
        if ctx is None:
            ctx = Context(names)
        elif ctx.names != names:
            raise ContextMismatch(f"{ctx.names} vs {names}")
        terms: dict[tuple[int, ...], int] = {}
        for t in rows:
            check_keys(t, ("exp", "coef"), "term")
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
        return " + ".join(parts).replace("+ -", "- ")
