import random

import pytest

from clusterforge.coxeter import (
    NotFiniteType,
    bipartite_longest_word,
    cartan_data,
    coxeter_number,
    is_reduced,
    length,
    longest_element,
    word_product,
)
from clusterforge.util import mat_mul, symmetrizer

from conftest import type_a_permutation


def test_positive_root_counts():
    assert len(cartan_data("A2").positive_roots) == 3
    assert len(cartan_data("B2").positive_roots) == 4
    assert len(cartan_data("D4").positive_roots) == 12
    assert len(cartan_data("A3").positive_roots) == 6
    assert len(cartan_data("G2").positive_roots) == 6
    assert len(cartan_data("F4").positive_roots) == 24


def test_symmetrizers():
    assert symmetrizer(cartan_data("A3").A) == (1, 1, 1)
    assert symmetrizer(cartan_data("B2").A) == (1, 2)
    assert symmetrizer(cartan_data("G2").A) == (3, 1)
    assert symmetrizer(cartan_data("C3").A) == (2, 2, 1)
    assert symmetrizer(cartan_data("D4").A) == (1, 1, 1, 1)
    assert symmetrizer(cartan_data("F4").A) == (1, 1, 2, 2)


def test_reduced_words_a2():
    A = cartan_data("A2")
    assert is_reduced((1, 2, 1), A)
    assert not is_reduced((1, 1), A)
    assert word_product(A, (1, 2, 1)) == word_product(A, (2, 1, 2))


def test_longest_element():
    for name in ("A2", "A3", "B2", "D4"):
        A = cartan_data(name)
        w0, word = longest_element(A)
        assert length(A, w0) == len(A.positive_roots) == len(word)
        assert mat_mul(w0, w0) == word_product(A, ())
        assert is_reduced(word, A)


LONGEST_ELEMENT_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", LONGEST_ELEMENT_TYPES)
def test_longest_element_is_the_bipartite_word(name):
    A = cartan_data(name)
    word = bipartite_longest_word(A)
    w0 = word_product(A, word)
    assert longest_element(A) == (w0, word)
    # w0 sends every positive root to a negative one, and it is an involution
    assert length(A, w0) == len(A.positive_roots)
    assert mat_mul(w0, w0) == word_product(A, ())


def test_longest_element_a4_length_ten():
    A = cartan_data("A4")
    assert length(A, longest_element(A)[0]) == 10
    assert len(bipartite_longest_word(A)) == 10


def test_coxeter_numbers():
    assert coxeter_number(cartan_data("A2")) == 3
    assert coxeter_number(cartan_data("A3")) == 4
    assert coxeter_number(cartan_data("A4")) == 5
    assert coxeter_number(cartan_data("B2")) == 4
    assert coxeter_number(cartan_data("D4")) == 6


COXETER_ORACLE_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 7)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", COXETER_ORACLE_TYPES)
def test_coxeter_number_is_order_of_coxeter_element(name):
    # oracle: power the matrix of s_1 ... s_r until it is the identity
    A = cartan_data(name)
    c = word_product(A, range(1, A.rank + 1))
    identity = word_product(A, ())
    power, order = c, 1
    while power != identity:
        power, order = mat_mul(power, c), order + 1
        assert order <= 2 * len(A.positive_roots)
    assert coxeter_number(A) == order
    word = bipartite_longest_word(A)
    assert len(word) == len(A.positive_roots) and is_reduced(word, A)


def test_bipartite_words_golden():
    assert bipartite_longest_word(cartan_data("A4")) == (1, 3, 2, 4, 1, 3, 2, 4, 1, 3)
    assert bipartite_longest_word(cartan_data("A5")) == (
        1, 3, 5, 2, 4, 1, 3, 5, 2, 4, 1, 3, 5, 2, 4,
    )
    assert bipartite_longest_word(cartan_data("D4")) == (
        1, 3, 4, 2, 1, 3, 4, 2, 1, 3, 4, 2,
    )
    assert bipartite_longest_word(cartan_data("A2")) == (1, 2, 1)


def test_matrix_and_permutation_lengths_agree():
    A = cartan_data("A3")
    rng = random.Random(17)
    for _ in range(1000):
        word = [rng.randint(1, 3) for _ in range(rng.randint(0, 8))]
        w = word_product(A, word)
        perm = type_a_permutation(w)
        inversions = sum(
            1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b]
        )
        assert length(A, w) == inversions


def test_length_subadditive():
    A = cartan_data("A3")
    rng = random.Random(23)
    for _ in range(200):
        u = word_product(A, [rng.randint(1, 3) for _ in range(rng.randint(0, 5))])
        v = word_product(A, [rng.randint(1, 3) for _ in range(rng.randint(0, 5))])
        assert length(A, mat_mul(u, v)) <= length(A, u) + length(A, v)


def test_root_closure_rejects_non_finite():
    from clusterforge.coxeter import _positive_roots

    affine = [[2, -2], [-2, 2]]  # affine A1: closure never terminates
    with pytest.raises(NotFiniteType):
        _positive_roots(affine, cap=64)
