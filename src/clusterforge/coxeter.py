"""Cartan matrices, finite root systems, Weyl groups and reduced words.

Weyl elements act on simple-root coordinates as integer matrices, so every
length is computed exactly by counting positive roots sent negative.
Conventions: the Cartan matrix entry a_ij pairs the j-th simple root with
the i-th coroot, and the reflection acts by
s_i(alpha_j) = alpha_j - a_ij * alpha_i.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple, Sequence

from .util import mat_mul


class NotFiniteType(ValueError):
    """Root closure exceeded its safety cap; the input is not finite type."""


class NotBipartiteTree(ValueError):
    """The Dynkin graph is not a connected tree, so no bipartite word exists."""


_ROOT_CAP = 512


def cartan_entries(family: str, r: int) -> list[list[int]]:
    """Cartan matrix of the Dynkin diagram family + r; ValueError if none exists."""
    A = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        A[i][j] = aij
        A[j][i] = aji

    if family == "A":
        if r < 1:
            raise ValueError("A requires rank >= 1")
        for i in range(r - 1):
            bond(i, i + 1)
    elif family == "B":
        if r < 2:
            raise ValueError("B requires rank >= 2")
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 2, r - 1, -2, -1)
    elif family == "C":
        if r < 2:
            raise ValueError("C requires rank >= 2")
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 2, r - 1, -1, -2)
    elif family == "D":
        if r < 3:
            raise ValueError("D requires rank >= 3")
        for i in range(r - 3):
            bond(i, i + 1)
        bond(r - 3, r - 2)
        bond(r - 3, r - 1)
    elif family == "E":
        if r not in (6, 7, 8):
            raise ValueError("E requires rank 6, 7 or 8")
        pairs = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
        for i, j in pairs:
            if i < r and j < r:
                bond(i, j)
    elif family == "F":
        if r != 4:
            raise ValueError("F requires rank 4")
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif family == "G":
        if r != 2:
            raise ValueError("G requires rank 2")
        bond(0, 1, -1, -3)
    else:
        raise ValueError(f"unknown family {family!r}")
    return A


class CartanData(NamedTuple):
    """A finite-type Cartan matrix with its positive roots."""

    name: str
    rank: int
    A: tuple  # rows a_ij
    positive_roots: tuple  # integer vectors in simple-root coordinates

    @property
    def family(self) -> str:
        return self.name[0]

    def simple_reflection_matrix(self, i: int) -> tuple:
        r = self.rank
        return tuple(
            tuple(
                (1 if row == col else 0) - (self.A[i][col] if row == i else 0)
                for col in range(r)
            )
            for row in range(r)
        )


def _positive_roots(A: Sequence[Sequence[int]], cap: int = _ROOT_CAP) -> tuple:
    r = len(A)
    simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(r):
            pairing = sum(A[i][j] * beta[j] for j in range(r))
            new = tuple(
                beta[j] - (pairing if j == i else 0) for j in range(r)
            )
            if all(x >= 0 for x in new) and new not in roots:
                roots.add(new)
                frontier.append(new)
                if len(roots) > cap:
                    raise NotFiniteType("root closure exceeded the safety cap")
    return tuple(sorted(roots))


@lru_cache(maxsize=None)
def cartan_data(type_name: str) -> CartanData:
    """Build CartanData from its exact name, like "A2", "B3", "D4", "G2": the
    rank in ASCII digits, no leading zero, at most A31, B22, C22 or D23."""
    m = re.fullmatch(r"([A-G])(0|[1-9][0-9]*)", type_name)
    if not m:
        raise ValueError(f"bad type descriptor {type_name!r}")
    family, r = m.group(1), int(m.group(2))
    A = cartan_entries(family, r)
    try:
        roots = _positive_roots(A)
    except NotFiniteType:
        raise ValueError(f"{type_name} is over the {_ROOT_CAP}-root limit") from None
    return CartanData(
        name=type_name,
        rank=r,
        A=tuple(tuple(row) for row in A),
        positive_roots=roots,
    )


# -- Weyl elements -------------------------------------------------------------


def word_product(cartan: CartanData, word: Sequence[int]) -> tuple:
    """Product of simple reflections as its matrix on simple-root
    coordinates; letters are 1-based indices."""
    r = cartan.rank
    w = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    for letter in word:
        w = mat_mul(w, cartan.simple_reflection_matrix(abs(letter) - 1))
    return w


def length(cartan: CartanData, w: Sequence[Sequence[int]]) -> int:
    """Number of positive roots the Weyl matrix w sends to negative roots."""
    return sum(
        all(sum(x * b for x, b in zip(row, beta)) <= 0 for row in w)
        for beta in cartan.positive_roots
    )


def is_reduced(word: Sequence[int], cartan: CartanData) -> bool:
    """A word is reduced iff the product's length equals the word length."""
    return length(cartan, word_product(cartan, word)) == len(word)


def coxeter_number(cartan: CartanData) -> int:
    """The order h of a Coxeter element, as 2|Phi+| / r: an irreducible
    root system of rank r has |Phi| = r h roots (Bourbaki, *Lie groups and
    Lie algebras*, Ch. VI, Sec. 1.11, Prop. 33)."""
    return 2 * len(cartan.positive_roots) // cartan.rank


def dynkin_bipartition(cartan: CartanData) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two-color the Dynkin graph; the side of vertex 1 comes first.

    Requires the graph to be a connected tree (true for every
    indecomposable finite type); raises NotBipartiteTree otherwise.
    """
    r = cartan.rank
    edges = [
        (i, j) for i in range(r) for j in range(i + 1, r) if cartan.A[i][j] != 0
    ]
    if len(edges) != r - 1:
        raise NotBipartiteTree("Dynkin graph is not a connected tree")
    color = [None] * r
    color[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for a, b in edges:
            if v in (a, b):
                u = b if v == a else a
                if color[u] is None:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    raise NotBipartiteTree("odd cycle in the Dynkin graph")
    if any(c is None for c in color):
        raise NotBipartiteTree("Dynkin graph is disconnected")
    minus = tuple(i + 1 for i in range(r) if color[i] == 0)
    plus = tuple(i + 1 for i in range(r) if color[i] == 1)
    return minus, plus


def bipartite_longest_word(cartan: CartanData) -> tuple[int, ...]:
    """The h-segment alternating word for the longest element.

    Concatenates h blocks, alternating the two sides of the bipartition
    starting with the side of vertex 1; the result is verified reduced
    with exactly l(w_0) letters.
    """
    minus, plus = dynkin_bipartition(cartan)
    h = coxeter_number(cartan)
    word: list[int] = []
    for seg in range(h):
        word.extend(minus if seg % 2 == 0 else plus)
    if len(word) != len(cartan.positive_roots) or not is_reduced(word, cartan):
        raise AssertionError("bipartite word failed verification")
    return tuple(word)


def longest_element(cartan: CartanData) -> tuple[tuple, tuple[int, ...]]:
    """The matrix of w_0 and its bipartite reduced word; w_0 is unique, so
    any reduced word with |Phi+| letters gives it."""
    word = bipartite_longest_word(cartan)
    return word_product(cartan, word), word
