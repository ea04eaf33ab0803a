"""The small exact core shared by the modules: decimal integer parsing,
exact values, JSON key checks, symmetrizers, fraction-free elimination,
integer determinants and matrix products, all over Z or Q."""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence


def decimal_int(text: str) -> int:
    """int() of an ASCII -?[0-9]+ string; refuses "1_0", " 7 " and "١"."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def exact_rationals(values: Sequence) -> list[Fraction]:
    """values as Fractions; anything but an int or a Fraction raises TypeError."""
    for x in values:
        if type(x) not in (int, Fraction):
            raise TypeError(f"value {x!r} is not an int or a Fraction")
    return [Fraction(x) for x in values]


def check_keys(data, required: tuple, what: str, optional: tuple = ()) -> None:
    """ValueError unless data is a JSON object with every key of required
    and no key outside required and optional: an unknown key is an error,
    never ignored, and a missing one is named."""
    if type(data) is not dict:
        raise ValueError(f"{what} {data!r} is not a JSON object")
    keys = required + optional
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; it takes {list(keys)}")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"{what} is missing required keys {missing}")


def parallel_map(fn: Callable, items: Sequence) -> list:
    """Order-preserving map over independent per-sample checks."""
    return [fn(x) for x in items]


def symmetrizer(P: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Reduced positive integer d with d_i |p_ij| = d_j |p_ji| off the diagonal.

    The ratios |p_ij| / |p_ji| are propagated along a spanning forest of
    the nonzero pattern and every non-forest edge is verified; None if the
    pattern is not symmetric or the ratios disagree.  Each component's
    smallest index starts at 1 before the common scaling.
    """
    n = len(P)
    d: list[Fraction | None] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or P[i][j] == 0:
                    continue
                if P[j][i] == 0:
                    return None
                if d[j] is None:
                    d[j] = d[i] * Fraction(abs(P[i][j]), abs(P[j][i]))
                    stack.append(j)
                elif d[i] * abs(P[i][j]) != d[j] * abs(P[j][i]):
                    return None
    scale = lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) echelon form of an integer matrix.

    Returns the rank and the last pivot, signed by the row swaps.  Every
    pivot is a minor of the input, so all divisions are exact; for a
    square matrix of full rank the signed last pivot is the determinant.
    """
    a = [list(row) for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    r, prev, sign = 0, 1, 1
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for i in range(r + 1, m):
            row = a[i]
            f = row[col]
            for c in range(col + 1, n):
                row[c] = (row[c] * p - f * top[c]) // prev
            row[col] = 0
        prev = p
        r += 1
        if r == m:
            break
    return r, sign * prev


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix: closed forms up to
    3 x 3 (cofactors along the first row), Bareiss from 4 x 4 up."""
    k = len(m)
    if k > 3:
        rank, pivot = bareiss(m)
        return pivot if rank == k else 0
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if k == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    return m[0][0] if k else 1


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    """Exact matrix product as a tuple of row tuples, so it can be hashed."""
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )
