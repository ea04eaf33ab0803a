"""Shared fixtures: the standard worked seeds used across the suite."""

import pytest

from clusterforge.seeds import ExchangeMatrix, general_seed, initial_seed


# Extended exchange matrix of the open double Bruhat cell of SL3 for the
# word (1, 2, 1, -1, -2, -1): rows ordered cluster-first as
# x1, x2, x3, x4, x-2, x-1, x5, x6.
SL3_LABELS = ("x1", "x2", "x3", "x4", "x-2", "x-1", "x5", "x6")
SL3_ROWS = (
    (0, -1, 1, 0),
    (1, 0, -1, 1),
    (-1, 1, 0, -1),
    (0, -1, 1, 0),
    (-1, 1, 0, 0),
    (1, 0, 0, 0),
    (0, 1, 0, -1),
    (0, 0, 0, 1),
)

# Principal part alone (the 4x4 block above).
SL3_PRINCIPAL = tuple(row for row in SL3_ROWS[:4])

# The rank-3 cyclic matrix with all exchange exponents equal to 2
# (the Markov quiver).
MARKOV = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


@pytest.fixture
def sl3_seed():
    return initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS))


@pytest.fixture
def sl3_matrix():
    return ExchangeMatrix.make(SL3_ROWS, SL3_LABELS)


@pytest.fixture
def markov_seed():
    return general_seed(MARKOV)


def type_a_permutation(w):
    """The images (w(1), ..., w(r+1)) of a type A Weyl element, read off its
    matrix w: column j is w(alpha_j) = e_{w(j)} - e_{w(j+1)}, a run of equal
    signs on the simple-root coordinates [a, b], which gives the pair
    (w(j), w(j+1)) = (a, b + 1) when positive and (b + 1, a) when negative."""
    r = len(w)
    perm = []
    for j in range(r):
        col = [w[i][j] for i in range(r)]
        run = [i + 1 for i in range(r) if col[i]]
        a, b = run[0], run[-1]
        sign = col[a - 1]
        assert run == list(range(a, b + 1)) and {col[i - 1] for i in run} == {sign}
        assert sign in (1, -1)
        first, second = (a, b + 1) if sign > 0 else (b + 1, a)
        perm = perm or [first]
        assert perm[-1] == first
        perm.append(second)
    return tuple(perm)
