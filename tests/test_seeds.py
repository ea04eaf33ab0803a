import random
from fractions import Fraction

import pytest

from clusterforge.laurent import NotDivisible
from clusterforge.seeds import (
    ExchangeMatrix,
    SignSkewSymmetryLost,
    adjacent_variable,
    diagram_of,
    exchange_polynomial,
    general_seed,
    initial_seed,
    is_coprime,
    matrix_mutate,
    rank,
    rewrite_in_adjacent_cluster,
    seed_mutate,
    skew_symmetrizer,
)

from conftest import SL3_PRINCIPAL


B219 = ExchangeMatrix.make(SL3_PRINCIPAL)


def raw_matrix(rows):
    """An ExchangeMatrix built field by field, without make's checks:
    rank and mutation are tested on integer matrices of any sign pattern."""
    entries = tuple(tuple(r) for r in rows)
    return ExchangeMatrix(entries, len(entries[0]), tuple(f"x{i + 1}" for i in range(len(entries))))


def fraction_gauss_rank(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def rand_symmetrizable(rng, n, frozen=0, dmax=2):
    """Random skew-symmetrizable principal part with optional frozen rows."""
    d = [rng.randint(1, dmax) for _ in range(n)]
    rows = [[0] * n for _ in range(n + frozen)]
    for i in range(n):
        for j in range(i + 1, n):
            s = rng.randint(-2, 2)
            if s == 0:
                continue
            # d_i * b_ij = -d_j * b_ji with integer entries
            from math import gcd

            g = gcd(d[i], d[j])
            rows[i][j] = s * (d[j] // g)
            rows[j][i] = -s * (d[i] // g)
    for i in range(n, n + frozen):
        for j in range(n):
            rows[i][j] = rng.randint(-2, 2)
    return ExchangeMatrix.make(rows)


def test_mutation_direction_two():
    out = matrix_mutate(B219, 1)
    assert out.entries == (
        (0, 1, 0, 0),
        (-1, 0, 1, -1),
        (0, -1, 0, 0),
        (0, 1, 0, 0),
    )


def test_mutation_involutive_random():
    rng = random.Random(2)
    for _ in range(25):
        B = rand_symmetrizable(rng, 4, frozen=2)
        for k in range(B.n):
            assert matrix_mutate(matrix_mutate(B, k), k).entries == B.entries


def test_mutation_preserves_rank(sl3_matrix):
    assert rank(sl3_matrix) == 4
    rng = random.Random(9)
    B = sl3_matrix
    for _ in range(50):
        B = matrix_mutate(B, rng.randrange(4))
        assert rank(B) == 4


def test_rank_against_fraction_gauss():
    rng = random.Random(13)
    for _ in range(40):
        rows = [
            [rng.randint(-4, 4) for _ in range(3)]
            for _ in range(rng.randint(3, 6))
        ]
        assert rank(raw_matrix(rows)) == fraction_gauss_rank(rows)


def test_rank_with_zero_columns_against_fraction_gauss():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(3, 7)
        n = rng.randint(2, m - 1)
        zero = set(rng.sample(range(n), rng.randint(1, n - 1)))
        rows = [
            [0 if j in zero else rng.randint(-3, 3) for j in range(n)]
            for _ in range(m)
        ]
        assert rank(raw_matrix(rows)) == fraction_gauss_rank(rows)
    rows = [[0, 2, 0], [0, 0, 0], [0, 1, 0], [0, 3, 0]]
    assert rank(raw_matrix(rows)) == fraction_gauss_rank(rows) == 1


def test_rank_zero_matrix():
    assert rank(ExchangeMatrix.make([[0, 0], [0, 0]])) == 0


def test_sign_skew_symmetry_checks():
    assert diagram_of([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]) == {(0, 1): 4, (2, 0): 4, (1, 2): 4}
    assert diagram_of([[0, 1], [-3, 0], [7, 7]]) == {(0, 1): 3}
    # make checks the principal part and names the first bad entry
    # from 1, as the CLI types them
    with pytest.raises(SignSkewSymmetryLost, match=r"b\[1\]\[2\] = 1 and b\[2\]\[1\] = 1"):
        ExchangeMatrix.make([[0, 1], [1, 0]])
    with pytest.raises(SignSkewSymmetryLost, match=r"diagonal entry b\[2\]\[2\] = -2"):
        ExchangeMatrix.make([[0, 0], [0, -2], [5, 5]])
    # the frozen rows are not part of the check
    assert ExchangeMatrix.make([[0, 0], [0, 0], [3, 3]]).n == 2


def test_skew_symmetrizer_values():
    assert skew_symmetrizer(B219) == (1, 1, 1, 1)
    B = ExchangeMatrix.make([[0, 2], [-1, 0]])
    assert skew_symmetrizer(B) == (1, 2)
    # sign-skew-symmetric, but the cycle of ratios gives d1 = d2 = d3 = 2 d3
    B = ExchangeMatrix.make([[0, 1, -1], [-1, 0, 1], [2, -1, 0]])
    assert skew_symmetrizer(B) is None


def test_symmetrized_mutation_stays_skew_symmetric():
    # FZ I Prop. 4.5: if D*B is skew-symmetric, so is D*mu_k(B), with the
    # same D; graphs.gvector_seeds relies on it to mutate its rows with the
    # unchecked mutate_rows
    rng = random.Random(21)
    for _ in range(500):
        n = rng.randint(2, 5)
        B = rand_symmetrizable(rng, n, frozen=rng.randint(0, 2), dmax=3)
        d = skew_symmetrizer(B)
        assert d is not None
        for _ in range(8):
            B = matrix_mutate(B, rng.randrange(n))
            assert skew_symmetrizer(B) == d
        P = B.principal()
        assert all(d[i] * P[i][j] == -d[j] * P[j][i] for i in range(n) for j in range(n))


def test_single_mutation_can_lose_sign_skew_symmetry():
    B = ExchangeMatrix.make([[0, 1, -1], [-1, 0, 1], [2, -1, 0]])
    # k = 0 is named direction 1, and the entries are named from 1 too
    with pytest.raises(SignSkewSymmetryLost,
                       match=r"direction 1: entries b\[2\]\[3\] = 0 and b\[3\]\[2\] = 1"):
        matrix_mutate(B, 0)


def _textbook_mutate(rows, n, k):
    """b'_ij = -b_ij if k is i or j, else b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    return tuple(
        tuple(
            -rows[i][j] if k in (i, j)
            else rows[i][j] + (abs(rows[i][k]) * rows[k][j] + rows[i][k] * abs(rows[k][j])) // 2
            for j in range(n)
        )
        for i in range(len(rows))
    )


def test_matrix_mutate_matches_textbook_formula():
    rng = random.Random(71)
    for _ in range(500):
        n = rng.randint(1, 6)
        B = rand_symmetrizable(rng, n, frozen=rng.randint(1, 3), dmax=3)
        for k in [rng.randrange(n) for _ in range(3)]:
            M = matrix_mutate(B, k)
            assert M.entries == _textbook_mutate(B.entries, n, k)
            assert (M.n, M.labels) == (B.n, B.labels)
            B = M
    # not sign-skew-symmetric: the textbook formula puts 1 on the diagonal
    bad = raw_matrix([[0, 1], [1, 0], [1, -1]])
    assert _textbook_mutate(bad.entries, 2, 0)[1][1] == 1
    with pytest.raises(SignSkewSymmetryLost):
        matrix_mutate(bad, 0)


def test_coprime_checks(sl3_matrix):
    assert is_coprime(sl3_matrix)
    # columns (0,0,1,2) and (0,0,3,6): ratio 3 is odd/odd
    cols = ExchangeMatrix.make([[0, 0], [0, 0], [1, 3], [2, 6]])
    assert not is_coprime(cols)
    doubled = ExchangeMatrix.make([[0, 0], [0, 0], [1, 2], [2, 4]])
    assert is_coprime(doubled)  # ratio 2 is not odd/odd


def test_exchange_polynomials_sl3(sl3_seed):
    ctx = sl3_seed.ctx
    x = {name: ctx.var(i) for i, name in enumerate(ctx.names)}
    assert exchange_polynomial(sl3_seed, 0) == x["x-1"] * x["x2"] + x["x-2"] * x["x3"]
    assert exchange_polynomial(sl3_seed, 1) == x["x-2"] * x["x3"] * x["x5"] + x["x1"] * x["x4"]
    assert exchange_polynomial(sl3_seed, 2) == x["x1"] * x["x4"] + x["x2"]
    assert exchange_polynomial(sl3_seed, 3) == x["x2"] * x["x6"] + x["x3"] * x["x5"]


def test_exchange_polynomial_zero_column():
    seed = initial_seed(ExchangeMatrix.make([[0, 0], [0, 0]]))
    assert exchange_polynomial(seed, 0) == seed.ctx.const(2)


def test_seed_mutation_first_direction(sl3_seed):
    ctx = sl3_seed.ctx
    s1 = seed_mutate(sl3_seed, 0)
    expected = (
        ctx.monomial({ctx.index("x-1"): 1, ctx.index("x2"): 1, 0: -1})
        + ctx.monomial({ctx.index("x-2"): 1, ctx.index("x3"): 1, 0: -1})
    )
    assert s1.exprs[0] == expected


def test_seed_mutation_involutive(sl3_seed):
    for k in range(4):
        back = seed_mutate(seed_mutate(sl3_seed, k), k)
        assert back.exprs == sl3_seed.exprs
        assert back.matrix.entries == sl3_seed.matrix.entries


def test_seed_mutations_stay_laurent(sl3_seed):
    rng = random.Random(4)
    s = sl3_seed
    for _ in range(25):
        s = seed_mutate(s, rng.randrange(4))  # NotDivisible would raise


def test_general_seed_exchange_polynomials(markov_seed):
    ctx = markov_seed.ctx
    p = exchange_polynomial(markov_seed, 0)
    expected = ctx.monomial({ctx.index("p1+"): 1, 2: 2}) + ctx.monomial(
        {ctx.index("p1-"): 1, 1: 2}
    )
    assert p == expected


def test_seed_defaults_to_no_history_and_geometric_coefficients():
    seed = initial_seed(ExchangeMatrix.make([[0, 1], [-1, 0]]))
    assert seed.history == () and seed.general is False


def test_general_seed_refuses_repeated_mutation(markov_seed):
    once = seed_mutate(markov_seed, 0)
    with pytest.raises(ValueError):
        seed_mutate(once, 1)


def test_rewrite_in_adjacent_cluster_roundtrip(sl3_seed):
    ctx = sl3_seed.ctx
    # x1 = P_1 / x'_1 in the mutated cluster
    moved = rewrite_in_adjacent_cluster(ctx.var(0), sl3_seed, 0)
    P = exchange_polynomial(sl3_seed, 0)
    assert moved == P * ctx.monomial({0: -1})
    with pytest.raises(NotDivisible):
        rewrite_in_adjacent_cluster(ctx.monomial({0: -1}), sl3_seed, 0)


def test_adjacent_variable_matches_mutation(sl3_seed):
    for k in range(4):
        assert adjacent_variable(sl3_seed, k) == seed_mutate(sl3_seed, k).exprs[k]


def test_seed_json_roundtrip(sl3_matrix):
    again = ExchangeMatrix.from_json(sl3_matrix.to_json())
    assert again == sl3_matrix


def test_expand_exchange_polynomial_in_first_variable(sl3_seed):
    ctx = sl3_seed.ctx
    pairs = exchange_polynomial(sl3_seed, 1).expand_in(0)
    assert [p for p, _ in pairs] == [0, 1]
    i = ctx.index
    assert pairs[0][1] == ctx.monomial({i("x-2"): 1, 2: 1, i("x5"): 1})
    assert pairs[1][1] == ctx.var(3)


def test_leading_term_of_adjacent_variable(sl3_seed):
    y = adjacent_variable(sl3_seed, 0)  # (x-1 x2 + x-2 x3) / x1
    assert y.terms and all(e[0] == -1 for e in y.terms)  # every term carries x1^-1


def test_newton_polytope_of_binomial_parallel_to_column(sl3_matrix):
    from clusterforge.seeds import initial_seed

    seed = initial_seed(sl3_matrix)
    for j in range(4):
        P = exchange_polynomial(seed, j)
        # a binomial's Newton polytope is the segment between its two exponents
        verts = sorted(P.terms)
        assert len(verts) == 2 and set(P.terms.values()) == {1}
        diff = [a - b for a, b in zip(verts[0], verts[1])]
        col = sl3_matrix.column(j)
        # the support segment is the column itself up to sign
        assert diff == list(col) or diff == [-x for x in col]


def test_matrix_json_accepts_decimal_strings():
    data = {"n": 2, "m": 3, "labels": ["x1", "x2", "f"],
            "btilde": [["0", "1"], ["-1", "0"], ["100000000000000000000", "0"]]}
    B = ExchangeMatrix.from_json(data)
    assert B.entries[2][0] == 10 ** 20


def test_matrix_json_rejects_inconsistent_shape():
    data = {"n": 3, "m": 2, "labels": ["a", "b"], "btilde": [[0, 1], [-1, 0]]}
    with pytest.raises(ValueError):
        ExchangeMatrix.from_json(data)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, None, [1]])
def test_matrix_rejects_non_integer_entries(bad):
    # no entry is truncated or coerced: 1.5 is not 1, True is not 1
    with pytest.raises(ValueError, match="not an integer"):
        ExchangeMatrix.make([[0, bad], [-1, 0]])
    with pytest.raises(ValueError, match="not an integer"):
        ExchangeMatrix.from_json({"btilde": [[0, bad], [-1, 0]]})


def test_matrix_json_rejects_non_integer_decimal_string():
    with pytest.raises(ValueError):
        ExchangeMatrix.from_json({"btilde": [[0, "1.5"], [-1, 0]]})


@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"], []])
def test_matrix_rejects_wrong_label_count(labels):
    with pytest.raises(ValueError, match="labels for 2 rows"):
        ExchangeMatrix.make([[0, 1], [-1, 0]], labels)
    with pytest.raises(ValueError, match="labels for 2 rows"):
        ExchangeMatrix.from_json({"btilde": [[0, 1], [-1, 0]], "labels": labels})


@pytest.mark.parametrize("labels", ["ab", {"a": 0, "b": 1}, ["a", 2], ["a", "a"]])
def test_matrix_rejects_malformed_labels(labels):
    # a string is not split into characters, and no label may repeat
    with pytest.raises(ValueError, match="labels"):
        ExchangeMatrix.from_json({"btilde": [[0, 1], [-1, 0]], "labels": labels})
