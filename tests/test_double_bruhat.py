import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from math import lcm, prod

import pytest

from clusterforge.coxeter import (
    cartan_data,
    is_reduced,
    length,
    longest_element,
    word_product,
)
from clusterforge.double_bruhat import (
    InvalidWord,
    PositivityReport,
    build_btilde,
    build_gamma_tilde,
    btilde_direct,
    coxeter_cell_closed_forms,
    coxeter_cell_word,
    det,
    evaluate_minor,
    gamma_tilde_dot,
    indexed_word,
    integer_minors,
    minor_spec,
    open_cell_a2_closed_forms,
    sample_cell,
    sample_totally_positive,
    seed_from_btilde,
    tp_criterion_check,
    verify_cell_identities,
)
import clusterforge
from clusterforge import double_bruhat, graphs, util
from clusterforge.cli import main
from clusterforge.graphs import explore_exchange_graph
from clusterforge.seeds import rank, seed_mutate, skew_symmetrizer
from clusterforge.util import bareiss, int_det, mat_mul, symmetrizer

from conftest import SL3_ROWS, type_a_permutation
from test_graphs import cell_seed


A2 = cartan_data("A2")
A3 = cartan_data("A3")
OPEN_CELL_A2 = (1, 2, 1, -1, -2, -1)

GOLDEN_A2 = (
    (-1, 1, 0, 0),
    (1, 0, 0, 0),
    (0, -1, 1, 0),
    (1, 0, -1, 1),
    (-1, 1, 0, -1),
    (0, -1, 1, 0),
    (0, 1, 0, -1),
    (0, 0, 0, 1),
)


def all_reduced_words(cartan, w):
    """Every reduced word of the Weyl matrix w, by peeling right descents
    recursively."""
    if w == word_product(cartan, ()):
        return [()]
    out = []
    for i in range(cartan.rank):
        shorter = mat_mul(w, cartan.simple_reflection_matrix(i))
        if length(cartan, shorter) == length(cartan, w) - 1:
            out.extend(word + (i + 1,) for word in all_reduced_words(cartan, shorter))
    return out


def double_words(neg_word, pos_word):
    n, p = len(neg_word), len(pos_word)
    for positions in itertools.combinations(range(n + p), n):
        word = []
        ni = pi = 0
        for t in range(n + p):
            if t in positions:
                word.append(-neg_word[ni])
                ni += 1
            else:
                word.append(pos_word[pi])
                pi += 1
        yield tuple(word)


def test_golden_matrix_both_constructions():
    iw = indexed_word(A2, OPEN_CELL_A2)
    assert build_btilde(iw, A2).rows == GOLDEN_A2
    assert btilde_direct(iw, A2).rows == GOLDEN_A2


def test_exchangeable_set_and_labels():
    iw = indexed_word(A2, OPEN_CELL_A2)
    assert iw.exchangeable() == [1, 2, 3, 4]
    bt = build_btilde(iw, A2)
    assert bt.row_labels == (-2, -1, 1, 2, 3, 4, 5, 6)


def test_gamma_tilde_spot_edges():
    iw = indexed_word(A2, OPEN_CELL_A2)
    g = build_gamma_tilde(iw, A2)
    edges = {(s, d) for s, d, _ in g}
    assert (-1, 1) in edges  # horizontal, positive later letter
    assert (3, 2) in edges  # inclined edge of the middle square
    assert (4, 5) in edges  # inclined, negative later letter
    horizontal = {(s, d) for s, d, h in g if h}
    assert (-1, 1) in horizontal and (3, 2) not in horizontal


def test_single_letter_word_has_no_exchangeable_indices():
    A1 = cartan_data("A1")
    iw = indexed_word(A1, (1,))
    assert iw.exchangeable() == []
    assert build_gamma_tilde(iw, A1) == ()  # no endpoint is exchangeable, so no edges at all
    bt = build_btilde(iw, A1)
    assert bt.col_labels == ()


def test_coxeter_pair_words():
    # (c, c): zero principal part
    word = coxeter_cell_word(A3)
    iw = indexed_word(A3, word)
    bt = build_btilde(iw, A3)
    seed = seed_from_btilde(bt)
    P = seed.matrix.principal()
    assert all(x == 0 for row in P for x in row)
    # (c, c^{-1}): b_ij = -a_ij above the diagonal, a_ij below
    r = A3.rank
    word = tuple([-(i + 1) for i in range(r)] + [r - i for i in range(r)])
    iw = indexed_word(A3, word)
    seed = seed_from_btilde(build_btilde(iw, A3))
    P = seed.matrix.principal()
    labels = [int(l[1:]) for l in seed.matrix.labels[: seed.n]]
    for a in range(r):
        for b in range(r):
            if a == b:
                continue
            i, j = labels[a], labels[b]
            expected = -A3.A[i - 1][j - 1] if i < j else A3.A[i - 1][j - 1]
            assert P[a][b] == expected


def test_invalid_word_rejected():
    with pytest.raises(InvalidWord):
        indexed_word(A2, (1, 1, -2))
    with pytest.raises(InvalidWord):
        indexed_word(A2, (3,))


@pytest.mark.parametrize(
    "word", [(1.7, 2.2, -1.9), (1.0, 2, 1), (True, 2), ("2", 1), (Fraction(1), 2)]
)
def test_indexed_word_refuses_letters_that_are_not_ints(word):
    # no letter is converted: int(1.7) would read the float as the letter 1
    with pytest.raises(InvalidWord, match="ints"):
        indexed_word(A2, word)


def test_construction_crosscheck_exhaustive_a2():
    w0, _ = longest_element(A2)
    words = all_reduced_words(A2, w0)
    assert len(words) == 2
    count = 0
    for neg in words:
        for pos in words:
            for word in double_words(neg, pos):
                iw = indexed_word(A2, word)
                assert build_btilde(iw, A2).rows == btilde_direct(iw, A2).rows
                count += 1
    assert count == 80


def test_construction_crosscheck_random_a3():
    rng = random.Random(51)
    w0, _ = longest_element(A3)
    words = all_reduced_words(A3, w0)
    for _ in range(40):
        neg = rng.choice(words)
        pos = rng.choice(words)
        positions = sorted(rng.sample(range(12), 6))
        word = []
        ni = pi = 0
        for t in range(12):
            if ni < 6 and t == positions[ni]:
                word.append(-neg[ni])
                ni += 1
            else:
                word.append(pos[pi])
                pi += 1
        iw = indexed_word(A3, tuple(word))
        bt = build_btilde(iw, A3)
        assert bt.rows == btilde_direct(iw, A3).rows
        seed = seed_from_btilde(bt)
        assert rank(seed.matrix) == seed.n
        d = skew_symmetrizer(seed.matrix)
        assert d is not None


def test_symmetrizer_from_cartan_data():
    iw = indexed_word(A3, (1, -2, 2, 3, -1, 1, -3, 2))
    bt = build_btilde(iw, A3)

    def entry(k, l):
        return bt.rows[bt.row_labels.index(k)][bt.col_labels.index(l)]

    # d_{|i_k|} |b_kl| = d_{|i_l|} |b_lk| on exchangeable pairs
    d = symmetrizer(A3.A)
    for k in bt.col_labels:
        for l in bt.col_labels:
            dk = d[abs(iw.letter(k)) - 1]
            dl = d[abs(iw.letter(l)) - 1]
            assert dk * abs(entry(k, l)) == dl * abs(entry(l, k))


def test_minor_specs_running_word():
    iw = indexed_word(A2, OPEN_CELL_A2)
    expected = {
        -2: ((1, 2), (2, 3)),
        -1: ((1,), (3,)),
        1: ((1,), (2,)),
        2: ((1, 2), (1, 2)),
        3: ((1,), (1,)),
        4: ((2,), (1,)),
        5: ((2, 3), (1, 2)),
        6: ((3,), (1,)),
    }
    for k, spec in expected.items():
        assert minor_spec(iw, A2, k) == spec


def random_double_word(cartan, rng):
    """Two reduced words of random length, each grown by random ascents,
    shuffled together as a double word."""
    subwords = []
    for _ in range(2):
        w, word = word_product(cartan, ()), []
        for _ in range(rng.randint(0, len(cartan.positive_roots))):
            steps = [mat_mul(w, cartan.simple_reflection_matrix(i)) for i in range(cartan.rank)]
            up = [i for i, x in enumerate(steps) if length(cartan, x) > length(cartan, w)]
            i = rng.choice(up)
            w, word = steps[i], word + [i + 1]
        subwords.append(word)
    neg, pos = subwords
    slots = [True] * len(neg) + [False] * len(pos)
    rng.shuffle(slots)
    negs, poss = iter(neg), iter(pos)
    return tuple(-next(negs) if s else next(poss) for s in slots)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_minor_specs_match_weyl_matrices(r):
    # oracle: the row and column sets read off the Weyl matrices of u_{<=k}
    # and of v_{>k}^{-1} = the positive letters after k, right end first
    cartan = cartan_data(f"A{r}")
    rng = random.Random(r)
    for _ in range(150):
        iw = indexed_word(cartan, random_double_word(cartan, rng))
        for k in iw.positions():
            cut = max(k, 0)
            before, after = iw.word[:cut], iw.word[cut:]
            u = word_product(cartan, [-x for x in before if x < 0])
            v = word_product(cartan, [x for x in reversed(after) if x > 0])
            i = abs(iw.letter(k))
            expected = (
                tuple(sorted(type_a_permutation(u)[:i])),
                tuple(sorted(type_a_permutation(v)[:i])),
            )
            assert minor_spec(iw, cartan, k) == expected, (iw.word, k)


def test_evaluate_minor_identity_matrix():
    g = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert evaluate_minor(((1, 2), (1, 2)), g) == 1
    assert evaluate_minor(((1,), (3,)), g) == 0


def test_det_exact():
    g = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(0), Fraction(1), Fraction(4)],
        [Fraction(5), Fraction(6), Fraction(0)],
    ]
    assert det(g) == 1


def leibniz_det(rows):
    """Oracle: sum over permutations of the signed diagonal products."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_det_matches_leibniz_oracle():
    rng = random.Random(83)
    cases = [
        [[Fraction(-7, 3)]],  # 1 x 1
        [[Fraction(0), Fraction(2)], [Fraction(3, 5), Fraction(1)]],  # needs a swap
        [
            [Fraction(0), Fraction(0), Fraction(1, 2)],
            [Fraction(0), Fraction(4, 3), Fraction(1)],
            [Fraction(5), Fraction(1), Fraction(-2)],
        ],  # swaps at two steps
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]],  # singular
        [
            [Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2, 7), Fraction(4, 7), Fraction(6, 7)],
            [Fraction(0), Fraction(1), Fraction(-1)],
        ],  # singular, proportional rows
    ]
    for _ in range(60):
        n = rng.randint(1, 5)
        cases.append([
            [
                Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                if rng.random() < 0.7 else Fraction(0)
                for _ in range(n)
            ]
            for _ in range(n)
        ])
    singular = 0
    for rows in cases:
        expected = leibniz_det(rows)
        singular += expected == 0
        assert det(rows) == expected
    assert singular >= 3


def test_integer_minors_match_det():
    # every square submatrix of seeded random integer matrices, some of
    # them singular and some with a zero leading entry, against the
    # Leibniz oracle; sizes 4 to 6 reach the Bareiss branch of int_det
    rng = random.Random(89)
    singular = zero_lead = large = 0
    for t in range(40):
        n = rng.randint(1, 6)
        h = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(n)]
        if t % 4 == 0 and n > 1:
            h[-1] = [2 * x for x in h[0]]
        if t % 4 == 1:
            h[0][0] = 0
        specs = [
            (rows, cols)
            for k in range(1, n + 1)
            for rows in itertools.combinations(range(1, n + 1), k)
            for cols in itertools.combinations(range(1, n + 1), k)
        ]
        expected = [
            leibniz_det([[h[i - 1][j - 1] for j in cols] for i in rows])
            for rows, cols in specs
        ]
        assert list(integer_minors(specs, h)) == expected
        singular += expected[-1] == 0
        zero_lead += h[0][0] == 0
        large += n >= 4
    assert singular >= 10 and zero_lead >= 10 and large >= 10


def test_int_det_matches_leibniz_oracle():
    # sizes 0 to 6 cover both closed forms, the 1 x 1 and empty cases and
    # the Bareiss branch; entries run up to 10^40 in absolute value
    rng = random.Random(97)
    cases = [
        [],
        [[0]],
        [[0, 5], [7, 0]],  # zero leading entry
        [[0, 0, 2], [0, 3, 1], [4, 1, 1]],  # zero leading row prefix
        [[1, 2, 3], [2, 4, 6], [0, 1, -1]],  # singular, proportional rows
        [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]],
        [[10**40, -(10**40)], [10**40 - 1, 10**40 + 1]],
    ]
    for t in range(120):
        n = t % 7
        bound = 10**40 if t % 3 == 0 else 5
        m = [[rng.randint(-bound, bound) if rng.random() < 0.8 else 0
              for _ in range(n)] for _ in range(n)]
        if t % 5 == 0 and n > 1:
            m[-1] = [3 * x for x in m[0]]
        if t % 5 == 1 and n:
            m[0][0] = 0
        cases.append(m)
    singular = zero_lead = 0
    for m in cases:
        expected = leibniz_det(m)
        singular += expected == 0
        zero_lead += bool(m) and m[0][0] == 0
        got = int_det(m)
        assert type(got) is int and got == expected
    assert singular >= 20 and zero_lead >= 20


def test_family_minors_take_no_elimination(monkeypatch):
    # A3's family minors are at most 3 x 3 and all closed forms, so each
    # draw's only Bareiss call is its 4 x 4 determinant-one check
    calls = []
    bareiss_ = util.bareiss

    def counted(rows):
        calls.append(len(rows))
        return bareiss_(rows)

    monkeypatch.setattr(util, "bareiss", counted)
    rep = verify_cell_identities(A3, OPEN_CELL_A3, samples=5)
    assert rep.ok and calls == [4] * 5


def _family(cartan, word):
    """The minor specs of a double word at every position, as the cell checks
    use them."""
    return double_bruhat._cell_setup(cartan, word)[2]


def nonvanishing_conditions(cartan, word):
    """The 2r open-cell conditions of the word's cell (u, v): the minors at
    (u w_i, w_i) and (w_i, v^{-1} w_i), with u and v^{-1} multiplied out."""
    u = type_a_permutation(word_product(cartan, [-x for x in word if x < 0]))
    vinv = type_a_permutation(word_product(cartan, [x for x in reversed(word) if x > 0]))
    specs = []
    for i in range(1, cartan.rank + 1):
        e = tuple(range(1, i + 1))
        specs.append((tuple(sorted(u[:i])), e))
        specs.append((e, tuple(sorted(vinv[:i]))))
    return specs


def reduced_words(cartan):
    """Every reduced word of every Weyl group element, shortest first."""
    letters = range(1, cartan.rank + 1)
    return [
        w
        for k in range(len(cartan.positive_roots) + 1)
        for w in itertools.product(letters, repeat=k)
        if is_reduced(w, cartan)
    ]


def test_open_cell_minors_are_family_minors():
    # every double reduced word of A1 and A2, and 300 random ones of A3
    words = [
        (cartan, word)
        for cartan in (cartan_data("A1"), A2)
        for neg in reduced_words(cartan)
        for pos in reduced_words(cartan)
        for word in double_words(neg, pos)
    ]
    rng = random.Random(2)
    reduced = reduced_words(A3)
    for _ in range(300):
        neg, pos = rng.choice(reduced), rng.choice(reduced)
        slots = [True] * len(neg) + [False] * len(pos)
        rng.shuffle(slots)
        negs, poss = iter(neg), iter(pos)
        words.append((A3, tuple(-next(negs) if s else next(poss) for s in slots)))
    assert len(words) > 500
    for cartan, word in words:
        family = set(_family(cartan, word))
        assert set(nonvanishing_conditions(cartan, word)) <= family, word


def _over_den(specs, minors, den):
    """The minors of h / den from the minors of h: each k x k one over den^k."""
    return [Fraction(m, den ** len(rows)) for (rows, _), m in zip(specs, minors)]


def _longest_word_cell(cartan):
    _, reduced = longest_element(cartan)
    return tuple(-x for x in reduced) + tuple(reduced)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("cell", ["longest", "coxeter"])
def test_sample_cell_hands_back_family_minors(r, cell):
    cartan = cartan_data(f"A{r}")
    word = _longest_word_cell(cartan) if cell == "longest" else coxeter_cell_word(cartan)
    specs = _family(cartan, word)
    rng = random.Random(1)
    for _ in range(10):
        h, den, minors = sample_cell(cartan, word, specs, rng)
        assert all(type(x) is int for row in h for x in row) and type(den) is int
        assert all(type(m) is int and m > 0 for m in minors)
        g = _divided(h, den)
        assert _over_den(specs, minors, den) == [evaluate_minor(spec, g) for spec in specs]


def test_sample_cell_determinant_check_survives_python_O():
    # a factored point that is off by a factor 2 has determinant 8 on A2;
    # under -O an assert would let it through
    code = "\n".join([
        "import random, sys",
        "from clusterforge import double_bruhat",
        "from clusterforge.coxeter import cartan_data",
        "if not sys.flags.optimize: sys.exit('not run under -O')",
        "factor = double_bruhat.sample_totally_positive",
        "def doubled(cartan, word, rng):",
        "    h, den = factor(cartan, word, rng)",
        "    return tuple(tuple(2 * x for x in row) for row in h), den",
        "double_bruhat.sample_totally_positive = doubled",
        "double_bruhat.sample_cell(cartan_data('A2'), (), (), random.Random(1))",
    ])
    src = os.path.dirname(os.path.dirname(clusterforge.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert run.stderr.rstrip().endswith(
        "ArithmeticError: cell sample has determinant 8, not 1"
    )


def test_sample_cell_open_cell_conditions():
    rng = random.Random(61)
    g = _divided(*sample_cell(A2, OPEN_CELL_A2, _family(A2, OPEN_CELL_A2), rng)[:2])
    assert det(g) == 1
    for spec in nonvanishing_conditions(A2, OPEN_CELL_A2):
        assert evaluate_minor(spec, g) != 0
    # the four open-cell conditions include x13 and x31
    assert g[0][2] != 0 and g[2][0] != 0


def _verify_draws(monkeypatch, cartan, word, samples, rng_seed):
    """The samples verify_cell_identities draws for the word, with its report."""
    draw, drawn = double_bruhat.sample_cell, []

    def recorded(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(double_bruhat, "sample_cell", recorded)
    rep = verify_cell_identities(cartan, word, samples=samples, rng_seed=rng_seed)
    monkeypatch.setattr(double_bruhat, "sample_cell", draw)
    return rep, drawn


def _permutation_matrix(size, letters):
    """The permutation matrix of s_{a_1} ... s_{a_k}, s_a swapping a and a + 1:
    each letter, applied on the right, swaps columns a and a + 1."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for a in letters:
        for row in m:
            row[a - 1], row[a] = row[a], row[a - 1]
    return m


def _corner_ranks(m, lower):
    """The rank of the bottom k rows x first l columns of m (lower) or of its
    top k rows x last l columns, for each k and l."""
    size = len(m)
    return [
        [
            bareiss([row[:l] for row in m[size - k:]] if lower
                    else [row[size - l:] for row in m[:k]])[0]
            for l in range(1, size + 1)
        ]
        for k in range(1, size + 1)
    ]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cell_samples_lie_in_the_cell(monkeypatch, r):
    # g lies in B+ u B+ iff its lower-left corner ranks are those of u's
    # permutation matrix, and in B- v B- iff its upper-right ones are v's;
    # u is read from the negative letters, v from the positive ones.  Only
    # cells with u != v: on u = v = w0 every generic matrix passes.
    cartan = cartan_data(f"A{r}")
    rng = random.Random(40 + r)
    cells = []
    for word in dict.fromkeys(random_double_word(cartan, rng) for _ in range(40)):
        u = _permutation_matrix(r + 1, [-x for x in word if x < 0])
        v = _permutation_matrix(r + 1, [x for x in word if x > 0])
        if u == v:
            continue
        cells.append(word)
        rep, drawn = _verify_draws(monkeypatch, cartan, word, 3, len(cells))
        assert rep.ok and len(drawn) == 3
        for h, _, _ in drawn:
            assert _corner_ranks(h, lower=True) == _corner_ranks(u, lower=True), word
            assert _corner_ranks(h, lower=False) == _corner_ranks(v, lower=False), word
        assert tp_criterion_check(cartan, word, samples=2, clusters=5,
                                  rng_seed=len(cells)).ok, word
    assert len(cells) >= min(12, 2 * r)


def test_coxeter_cell_samples_vanish_below_the_subdiagonal(monkeypatch):
    # u = s1 s2 s3: the A3 Coxeter cell's points are zero at (3, 1), (4, 1)
    # and (4, 2), and a generic matrix is not
    rep, drawn = _verify_draws(monkeypatch, A3, coxeter_cell_word(A3), 10, 4)
    assert rep.ok and len(drawn) == 10
    for h, _, _ in drawn:
        assert h[2][0] == h[3][0] == h[3][1] == 0
        assert h[1][0] and h[2][1] and h[3][2]


@pytest.mark.parametrize("closed_forms", [None, open_cell_a2_closed_forms()],
                         ids=["no-forms", "open-cell-forms"])
def test_verify_reports_a_non_positive_family_minor(monkeypatch, closed_forms):
    # the family minors' positivity is checked, not assumed: a zero minor
    # fails its sample, and no comparison divides by it
    draw, drawn = double_bruhat.sample_cell, []

    def zero_on_second(*args):
        h, den, minors = draw(*args)
        drawn.append(1)
        if len(drawn) == 2:
            minors[1] = 0
        return h, den, minors

    monkeypatch.setattr(double_bruhat, "sample_cell", zero_on_second)
    rep = verify_cell_identities(A2, OPEN_CELL_A2, samples=3, rng_seed=3,
                                 closed_forms=closed_forms)
    assert rep.failures == ("sample 1: a family minor is not positive",)


def test_sample_cell_identity_for_trivial_pair():
    # the cell of (u, v) = (e, e), drawn along the empty word, is the torus
    specs = _family(A2, ())
    assert set(nonvanishing_conditions(A2, ())) <= set(specs)
    for seed in range(5):
        h, den, minors = sample_cell(A2, (), specs, random.Random(seed))
        assert all(h[i][j] == 0 for i in range(3) for j in range(3) if i != j)
        assert det(h) == den ** 3
        assert len(minors) == len(specs) and all(m > 0 for m in minors)


def test_degenerate_matrix_rejected_by_det():
    ones = [[Fraction(1)] * 3 for _ in range(3)]
    assert det(ones) == 0


def test_verify_open_cell_identities_small():
    rep = verify_cell_identities(
        A2, OPEN_CELL_A2, samples=10, rng_seed=3,
        closed_forms=open_cell_a2_closed_forms(),
    )
    assert rep.ok
    assert rep.closed_forms_checked == 40


def test_closed_forms_checked_counts_only_compared_forms():
    # position 6 of the open cell word is frozen, so its form is never compared
    rep = verify_cell_identities(
        A2, OPEN_CELL_A2, samples=3, closed_forms={6: (0, lambda h: 12345)}
    )
    assert rep.ok
    assert rep.closed_forms_checked == 0


def test_verify_coxeter_cell_identities_small():
    for cartan in (A2, A3):
        rep = verify_cell_identities(
            cartan,
            coxeter_cell_word(cartan),
            samples=10,
            rng_seed=9,
            closed_forms=coxeter_cell_closed_forms(cartan),
        )
        assert rep.ok


def test_verify_detects_wrong_closed_form():
    rep = verify_cell_identities(
        A2, OPEN_CELL_A2, samples=3, rng_seed=3,
        closed_forms={3: (1, lambda h: h[0][0])},  # wrong on purpose
    )
    assert not rep.ok and len(rep.failures) == 3


def test_verify_reports_each_wrong_closed_form():
    rep = verify_cell_identities(
        A2, OPEN_CELL_A2, samples=3, rng_seed=3,
        # off by 1 / den from g[1][1] on every sample
        closed_forms={3: (1, lambda h: h[1][1] + 1)},
    )
    assert rep.failures == tuple(
        f"sample {i}: position 3: quotient != closed form" for i in range(3)
    )


def _counted_forms(closed_forms, evaluations):
    """closed_forms with each evaluation of a form appended to evaluations."""
    def counted(d, f):
        return d, lambda h: evaluations.append(1) or f(h)
    return {l: counted(*form) for l, form in (closed_forms or {}).items()}


@pytest.mark.parametrize(
    "word, closed_forms, evaluations",
    [
        # no closed form: no exchange relation and no form is evaluated
        ((-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2), None, 0),
        # the three Coxeter positions, on each of 5 samples
        (coxeter_cell_word(A3), coxeter_cell_closed_forms(A3), 15),
    ],
)
def test_verify_evaluates_only_compared_relations(
    monkeypatch, word, closed_forms, evaluations
):
    relations, forms, draws = [], [], []
    exchange, factor = double_bruhat.exchange_values, double_bruhat.sample_totally_positive

    def counted(plan, p, q):
        relations.append(len(plan))
        return exchange(plan, p, q)

    def counted_draw(*args):
        draws.append(1)
        return factor(*args)

    monkeypatch.setattr(double_bruhat, "exchange_values", counted)
    monkeypatch.setattr(double_bruhat, "sample_totally_positive", counted_draw)
    rep = verify_cell_identities(A3, word, samples=5, rng_seed=11,
                                 closed_forms=_counted_forms(closed_forms, forms))
    assert rep.ok and rep.relations_checked == 5 * (len(word) - 3)
    assert sum(relations) == evaluations
    assert len(forms) == evaluations
    assert len(draws) == 5  # one draw per sample, never a redraw


def test_verify_compares_on_integers(monkeypatch):
    # the sampler's minors are handed back and the Coxeter forms take
    # util.int_det of the integer matrix, so the check calls neither det
    # nor evaluate_minor and constructs no Fraction
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)

    class CountedFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            calls.append("Fraction")
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(double_bruhat, "det", counted("det", double_bruhat.det))
    monkeypatch.setattr(double_bruhat, "evaluate_minor",
                        counted("evaluate_minor", double_bruhat.evaluate_minor))
    monkeypatch.setattr(double_bruhat, "Fraction", CountedFraction)
    for cartan in (A2, A3, cartan_data("A4")):
        rep = verify_cell_identities(cartan, coxeter_cell_word(cartan), samples=5,
                                     rng_seed=11,
                                     closed_forms=coxeter_cell_closed_forms(cartan))
        assert rep.ok and rep.closed_forms_checked == 5 * cartan.rank
    assert calls == []
    # the counters count: the determinant check's message builds a Fraction
    assert double_bruhat.det([[1, 2], [3, 4]]) == -2 and calls == ["det", "Fraction"]


def _cubic(g):
    """The A2 open cell's closed form at position 2, on the rational g."""
    return (g[0][1] * g[1][0] * g[2][2] - g[0][1] * g[1][2] * g[2][0]
            - g[0][2] * g[1][0] * g[2][1] + g[0][2] * g[1][1] * g[2][0])


@pytest.mark.parametrize("cartan, word, old", [
    (A2, OPEN_CELL_A2, {
        1: lambda g: evaluate_minor(((1, 2), (1, 3)), g),
        2: _cubic,
        3: lambda g: g[1][1],
        4: lambda g: evaluate_minor(((1, 3), (1, 2)), g),
    }),
    *[(cartan, coxeter_cell_word(cartan), {
        j: (lambda g, s=tuple(range(1, j + 1)): evaluate_minor((s, s), g))
        for j in range(1, cartan.rank + 1)
    }) for cartan in (A3, cartan_data("A4"))],
], ids=["A2-open", "A3-coxeter", "A4-coxeter"])
def test_integer_forms_match_the_rational_route(monkeypatch, cartan, word, old):
    # every compared quotient equals the closed form taken on the rational
    # matrix g = h / den, by evaluate_minor or the cubic on g, and the
    # integer form f(h) / den^d gives the same value
    forms = (open_cell_a2_closed_forms() if word == OPEN_CELL_A2
             else coxeter_cell_closed_forms(cartan))
    assert set(forms) == set(old)
    draws, quotients = [], []
    draw, exchange = double_bruhat.sample_cell, double_bruhat.exchange_values

    def recorded_draw(*args):
        draws.append(draw(*args))
        return draws[-1]

    def recorded(plan, p, q):
        exchange(plan, p, q)
        quotients.append([Fraction(x, y) for x, y in zip(p[-len(plan):], q[-len(plan):])])

    monkeypatch.setattr(double_bruhat, "sample_cell", recorded_draw)
    monkeypatch.setattr(double_bruhat, "exchange_values", recorded)
    rep = verify_cell_identities(cartan, word, samples=50, rng_seed=23, closed_forms=forms)
    assert rep.ok and rep.closed_forms_checked == 50 * len(forms)
    assert len(draws) == len(quotients) == 50
    positions = sorted(forms)  # compared in seed order, which is word order here
    for (h, den, _), values in zip(draws, quotients):
        g = _divided(h, den)
        for l, value in zip(positions, values):
            d, f = forms[l]
            assert value == old[l](g) == Fraction(f(h), den ** d)
    # a form given the wrong degree fails on every sample
    l = positions[-1]
    d, f = forms[l]
    monkeypatch.setattr(double_bruhat, "exchange_values", exchange)
    rep = verify_cell_identities(cartan, word, samples=50, rng_seed=23,
                                 closed_forms={l: (d + 1, f)})
    assert rep.failures == tuple(
        f"sample {i}: position {l}: quotient != closed form" for i in range(50))


def _divided(h, den):
    """The rational matrix h / den."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in h)


def test_tp_samples_all_minors_positive():
    rng = random.Random(71)
    iw = indexed_word(A2, OPEN_CELL_A2)
    for _ in range(5):
        g = _divided(*sample_totally_positive(A2, OPEN_CELL_A2, rng))
        assert det(g) > 0
        for k in iw.positions():
            assert evaluate_minor(minor_spec(iw, A2, k), g) > 0


def test_tp_criterion_check_report():
    rep = tp_criterion_check(A2, OPEN_CELL_A2, samples=5, clusters=4, rng_seed=5)
    assert rep.ok
    assert rep.clusters_checked == 4


OPEN_CELL_A3 = (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)


def test_tp_criterion_check_a3_forty_clusters(monkeypatch):
    # the census runs on integers and mutates no seed; each sample evaluates
    # one relation per distinct new variable of the 40 clusters: 17, the
    # variables explore counts beyond the initial 9
    calls, plans = [], []
    exchange = double_bruhat.exchange_values

    def counting_mutate(seed, k):
        calls.append(k)
        return seed_mutate(seed, k)

    def recording(plan, p, q):
        plans.append(len(plan))
        return exchange(plan, p, q)

    monkeypatch.setattr(graphs, "seed_mutate", counting_mutate)
    monkeypatch.setattr(double_bruhat, "exchange_values", recording)
    rep = tp_criterion_check(A3, OPEN_CELL_A3, samples=3, clusters=40, rng_seed=7)
    assert rep == PositivityReport(3, 45, 40, ())
    assert calls == [] and plans == [17] * 3
    seed, _, _ = double_bruhat._cell_setup(A3, OPEN_CELL_A3)
    assert explore_exchange_graph(seed, max_seeds=40).variables == seed.n + 17


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_tp_criterion_check_raises_on_a_zero_exchanged_value(flags):
    # the first relation exchanges the initial variable at position 0; a
    # minor of 0 there is an explicit ArithmeticError, never a silent q = 0,
    # and no assert that -O would strip
    code = "\n".join([
        "import sys",
        "from clusterforge import double_bruhat",
        "from clusterforge.coxeter import cartan_data",
        f"if sys.flags.optimize != {len(flags)}: sys.exit('wrong -O flag')",
        "draw = double_bruhat.sample_cell",
        "def zero_first(*args):",
        "    h, den, minors = draw(*args)",
        "    return h, den, [0] + minors[1:]",
        "double_bruhat.sample_cell = zero_first",
        f"double_bruhat.tp_criterion_check(cartan_data('A3'), {OPEN_CELL_A3}, 1, 2, 7)",
    ])
    src = os.path.dirname(os.path.dirname(clusterforge.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert run.stderr.rstrip().endswith("ArithmeticError: exchanged value 0 is 0")


CELL_SEEDS = [f"{t} {cell}" for t in ("A2", "A3", "A4", "B2", "C3", "G2")
              for cell in ("open", "Coxeter", "base-affine")]


def _plan_values(plan, point):
    """The rationals point, then the value of each relation of plan."""
    p, q = [x.numerator for x in point], [x.denominator for x in point]
    double_bruhat.exchange_values(plan, p, q)
    return [Fraction(a, b) for a, b in zip(p, q)]


@pytest.mark.parametrize("name", CELL_SEEDS)
def test_relation_plan_matches_the_laurent_census(name):
    # at random rational points of both signs, each cluster's values by the
    # relation plan are its Laurent expressions in the initial extended
    # cluster, evaluated; one frozen entry of B-tilde with its sign flipped
    # (its factor moved to the other monomial) gives other values
    seed = cell_seed(*name.split(" "))
    plan, found = double_bruhat._relation_plan(seed, 60)
    laurent = [s.exprs for s, _ in islice(graphs.exchange_seeds(seed), 60)]
    assert len(found) == len(laurent) > 1
    t, (k, plus, minus) = next((t, rel) for t, rel in enumerate(plan)
                               if any(i >= seed.n for i in rel[1] + rel[2]))
    f = next(i for i in plus + minus if i >= seed.n)
    flipped = list(plan)
    flipped[t] = (k, tuple(i for i in plus if i != f) + (f,) * minus.count(f),
                  tuple(i for i in minus if i != f) + (f,) * plus.count(f))
    rng = random.Random(name)
    compared = caught = 0
    for _ in range(6):
        point = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
                 for _ in range(seed.m)]
        expected = {e: e.evaluate(point) for exprs in laurent for e in exprs}
        try:
            values = _plan_values(plan, point)
        except ArithmeticError:  # only a variable that is 0 can stop the plan
            assert 0 in expected.values()
            continue
        for idx, exprs in zip(found, laurent):
            assert [values[i] for i in idx] == [expected[e] for e in exprs]
        compared += 1
        try:
            caught += _plan_values(flipped, point) != values
        except ArithmeticError:
            caught += 1
    assert compared >= 4 and caught > 0


def test_check_reports_print_their_counts_failures_and_verdict():
    wrong = {1: (2, lambda h: 0)}  # position 1 fails on every sample
    rep = verify_cell_identities(A2, OPEN_CELL_A2, samples=2, rng_seed=1, closed_forms=wrong)
    assert rep.to_json() == {
        "samples": 2, "relations_checked": 8, "closed_forms_checked": 2,
        "failures": ["sample 0: position 1: quotient != closed form",
                     "sample 1: position 1: quotient != closed form"],
        "ok": False,
    }
    rep = tp_criterion_check(A2, OPEN_CELL_A2, samples=2, clusters=3, rng_seed=1)
    assert rep.to_json() == {
        "samples": 2, "minors_checked": 16, "clusters_checked": 3, "failures": [], "ok": True,
    }


def reference_tp_failures(cartan, word, gs, clusters):
    """The per-(cluster, variable) loop: one evaluation per variable per cluster.

    The frozen minors are family minors, so a non-positive one is reported
    as a family minor, once; the sampler itself checks the determinant."""
    seed, _, specs = double_bruhat._cell_setup(cartan, word)
    found = [s.exprs for s, _ in islice(graphs.exchange_seeds(seed), clusters)]
    out = []
    for i, g in enumerate(gs):
        values = [evaluate_minor(spec, g) for spec in specs]
        local = []
        if any(v <= 0 for v in values):
            local.append("a family minor is not positive")
        for ci, exprs in enumerate(found):
            for e in exprs:
                if e.evaluate(values) <= 0:
                    local.append(f"cluster {ci}: variable not positive")
        out += [f"sample {i}: {msg}" for msg in local]
    return tuple(out)


def _integer_form(g):
    """(h, den) with h = den * g an integer matrix."""
    den = lcm(*(x.denominator for row in g for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in g), den


def test_tp_criterion_check_messages_match_per_cluster_loop(monkeypatch):
    # det-one matrices with nonzero family minors, some of them negative:
    # lower x diagonal x upper draws, which are not totally positive
    specs = _family(A3, OPEN_CELL_A3)
    rng = random.Random(5)
    gs = [reference_sample_cell(A3, OPEN_CELL_A3, rng, extra_nonzero=specs)
          for _ in range(4)]
    for g in gs:
        minors = [evaluate_minor(spec, g) for spec in specs]
        assert 0 not in minors and any(v < 0 for v in minors)

    draws = iter([_integer_form(g) for g in gs])
    monkeypatch.setattr(
        double_bruhat, "sample_totally_positive", lambda cartan, word, rng: next(draws)
    )
    rep = tp_criterion_check(A3, OPEN_CELL_A3, samples=4, clusters=40, rng_seed=1)
    expected = reference_tp_failures(A3, OPEN_CELL_A3, gs, 40)
    assert rep.failures == expected
    variable_failures = [f for f in expected if "variable" in f]
    assert 0 < len(variable_failures) < 4 * 40 * 9


@pytest.mark.parametrize("clusters", [0, 40])
def test_tp_criterion_check_reports_a_non_positive_frozen_minor(monkeypatch, clusters):
    # a frozen position is a family minor: negating the first frozen minor
    # of sample 1 is reported once for that sample, and sample 0 passes
    seed, _, _ = double_bruhat._cell_setup(A3, OPEN_CELL_A3)
    draw, drawn = double_bruhat.sample_cell, []

    def negated_on_second(*args):
        h, den, minors = draw(*args)
        drawn.append(1)
        if len(drawn) == 2:
            minors[seed.n] = -minors[seed.n]
        return h, den, minors

    monkeypatch.setattr(double_bruhat, "sample_cell", negated_on_second)
    rep = tp_criterion_check(A3, OPEN_CELL_A3, samples=2, clusters=clusters, rng_seed=7)
    family = [f for f in rep.failures if "family" in f]
    assert family == ["sample 1: a family minor is not positive"]
    assert all(f.startswith("sample 1: cluster ") for f in rep.failures if f not in family)
    assert (len(rep.failures) > 1) == (clusters > 0)


def test_tp_criterion_check_zero_clusters_keeps_initial():
    rep = tp_criterion_check(A3, OPEN_CELL_A3, samples=2, clusters=0, rng_seed=7)
    assert rep == PositivityReport(2, 30, 1, ())


def test_negative_entry_breaks_positivity():
    iw = indexed_word(A2, OPEN_CELL_A2)
    g = [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0)],
    ]
    assert det(g) == 1
    minors = [evaluate_minor(minor_spec(iw, A2, k), g) for k in iw.positions()]
    assert any(v <= 0 for v in minors)


def test_seed_from_btilde_matches_fixture():
    iw = indexed_word(A2, OPEN_CELL_A2)
    seed = seed_from_btilde(build_btilde(iw, A2))
    assert seed.matrix.entries == SL3_ROWS
    rep = explore_exchange_graph(seed, max_seeds=60)
    assert rep.clusters == 50 and rep.variables == 16


def test_gamma_tilde_dot_output():
    iw = indexed_word(A2, OPEN_CELL_A2)
    assert "->" in gamma_tilde_dot(iw, build_gamma_tilde(iw, A2))


def test_gamma_tilde_dot_text():
    iw = indexed_word(A2, OPEN_CELL_A2)
    edges = [("-2", "2", "solid"), ("-1", "1", "solid"), ("1", "-2", "dashed"),
             ("1", "3", "solid"), ("2", "1", "dashed"), ("2", "4", "dashed"),
             ("3", "2", "dashed"), ("4", "3", "solid"), ("4", "5", "dashed"),
             ("5", "2", "solid"), ("6", "4", "solid")]
    assert gamma_tilde_dot(iw, build_gamma_tilde(iw, A2)).split("\n") == (
        ["digraph G {"]
        + [f'  "{v}";' for v in ("-2", "-1", "1", "2", "3", "4", "5", "6")]
        + [f'  "{s}" -> "{d}" [style={style}];' for s, d, style in edges]
        + ["}"]
    )


def test_btilde_non_simply_laced_magnitudes():
    B2 = cartan_data("B2")
    # (c, c^{-1}) word: principal part has the negated Cartan entries above
    # the diagonal and the plain ones below
    word = (-1, -2, 2, 1)
    iw = indexed_word(B2, word)
    bt = build_btilde(iw, B2)
    assert bt.rows == btilde_direct(iw, B2).rows
    seed = seed_from_btilde(bt)
    P = seed.matrix.principal()
    assert abs(P[0][1] * P[1][0]) == abs(B2.A[0][1] * B2.A[1][0]) == 2
    G2 = cartan_data("G2")
    word = (-1, -2, 2, 1)
    iw = indexed_word(G2, word)
    bt = build_btilde(iw, G2)
    assert bt.rows == btilde_direct(iw, G2).rows
    P = seed_from_btilde(bt).matrix.principal()
    assert abs(P[0][1] * P[1][0]) == 3


def test_btilde_crosscheck_random_b3():
    rng = random.Random(81)
    B3 = cartan_data("B3")
    w0, _ = longest_element(B3)
    words = all_reduced_words(B3, w0)
    for _ in range(25):
        neg = rng.choice(words)
        pos = rng.choice(words)
        size = len(neg) + len(pos)
        positions = set(rng.sample(range(size), len(neg)))
        word = []
        ni = pi = 0
        for t in range(size):
            if t in positions:
                word.append(-neg[ni])
                ni += 1
            else:
                word.append(pos[pi])
                pi += 1
        iw = indexed_word(B3, tuple(word))
        bt = build_btilde(iw, B3)
        assert bt.rows == btilde_direct(iw, B3).rows
        seed = seed_from_btilde(bt)
        assert rank(seed.matrix) == seed.n
        assert skew_symmetrizer(seed.matrix) is not None


def test_minor_specs_refused_outside_type_a():
    B2 = cartan_data("B2")
    iw = indexed_word(B2, (-1, -2, 2, 1))
    with pytest.raises(Exception) as exc:
        minor_spec(iw, B2, 1)
    assert "type A" in str(exc.value)


# -- the samplers against the full-matrix-product construction ------------------


def diagonal_matrix(diag):
    return [[diag[i] if i == j else Fraction(0) for j in range(len(diag))]
            for i in range(len(diag))]


def elementary_matrix(size, i, t, upper):
    """The Jacobi factor x_i(t) (upper) or y_i(t) as a full matrix."""
    m = [[Fraction(int(a == b)) for b in range(size)] for a in range(size)]
    if upper:
        m[i - 1][i] = t
    else:
        m[i][i - 1] = t
    return m


def reference_sample_cell(cartan, word, rng, extra_nonzero=(), tries=200):
    """lower-unitriangular x diagonal x upper-unitriangular, multiplied out,
    until the word's open-cell minors and ``extra_nonzero`` are nonzero: a
    generic determinant-one matrix, in the open cell but in no smaller one,
    and not totally positive."""
    size = cartan.rank + 1
    conditions = nonvanishing_conditions(cartan, word) + list(extra_nonzero)
    for _ in range(tries):
        lo, up = (
            [
                [
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    if ((i > j) if lower else (i < j)) else Fraction(int(i == j))
                    for j in range(size)
                ]
                for i in range(size)
            ]
            for lower in (True, False)
        )
        diag = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(size - 1)]
        diag.append(1 / prod(diag, start=Fraction(1)))
        g = mat_mul(mat_mul(lo, diagonal_matrix(diag)), up)
        if all(evaluate_minor(s, g) != 0 for s in conditions):
            return g
    raise AssertionError(f"no sample in {tries} tries")


def reference_sample_totally_positive(cartan, word, rng):
    """A det-one positive diagonal times the elementary matrices of the word."""
    size = cartan.rank + 1
    diag = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(size - 1)]
    diag.append(1 / prod(diag, start=Fraction(1)))
    g = diagonal_matrix(diag)
    for letter in word:
        t = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        g = mat_mul(g, elementary_matrix(size, abs(letter), t, upper=letter > 0))
    return g


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_samplers_match_full_matrix_products(r):
    cartan = cartan_data(f"A{r}")
    _, reduced = longest_element(cartan)
    word = tuple(-x for x in reduced) + tuple(reduced)
    iw = indexed_word(cartan, word)
    specs = [minor_spec(iw, cartan, k) for k in iw.positions()]
    for s in range(20):
        rng, ref = random.Random(s), random.Random(s)
        h, den, minors = sample_cell(cartan, word, specs, rng)
        g = reference_sample_totally_positive(cartan, word, ref)
        assert _divided(h, den) == g
        assert _over_den(specs, minors, den) == [evaluate_minor(spec, g) for spec in specs]
        assert _divided(*sample_totally_positive(cartan, word, rng)) == (
            reference_sample_totally_positive(cartan, word, ref)
        )
        assert rng.getstate() == ref.getstate()  # the same draws, in the same order


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_sampler_matches_full_matrix_products_on_arbitrary_words(r):
    # any word, reduced or not, with repeated letters of both signs
    cartan = cartan_data(f"A{r}")
    words = random.Random(f"words/A{r}")
    repeated = set()
    for s in range(40):
        length = words.randint(0, 20) if s else 0
        word = tuple(words.choice((-1, 1)) * words.randint(1, r) for _ in range(length))
        repeated |= {x > 0 for x in word if word.count(x) > 1}
        rng, ref = random.Random(s), random.Random(s)
        h, den = sample_totally_positive(cartan, word, rng)
        assert all(type(x) is int for row in h for x in row) and type(den) is int
        g = reference_sample_totally_positive(cartan, word, ref)
        assert _divided(h, den) == tuple(map(tuple, g))  # g is a list for word ()
        assert rng.getstate() == ref.getstate()  # the same draws, in the same order
        assert det(h) == den ** (r + 1)
    assert repeated == {False, True}


OPEN_CELL_A3_WORD = "-1 -3 -2 -1 -3 -2 1 3 2 1 3 2"

# stdout of the three cell-numerics benchmark calls, as recorded before the
# samplers and the exchange-relation check were rewritten
CELL_NUMERICS_CALLS = [
    (
        ["verify-cell", "--type", "A3", "--word", OPEN_CELL_A3_WORD,
         "--samples", "200", "--rng-seed", "11"],
        {"closed_forms_checked": 0, "failures": [], "ok": True,
         "relations_checked": 1800, "samples": 200},
    ),
    (
        ["verify-cell", "--type", "A3", "--word", "-1 -2 -3 1 2 3",
         "--samples", "200", "--closed-forms", "coxeter", "--rng-seed", "12"],
        {"closed_forms_checked": 600, "failures": [], "ok": True,
         "relations_checked": 600, "samples": 200},
    ),
    (
        ["tp-check", "--type", "A3", "--word", OPEN_CELL_A3_WORD,
         "--samples", "100", "--clusters", "40", "--rng-seed", "13"],
        {"clusters_checked": 40, "failures": [], "minors_checked": 1500,
         "ok": True, "samples": 100},
    ),
]


@pytest.mark.parametrize(
    "argv, expected", CELL_NUMERICS_CALLS, ids=["open-cell", "coxeter", "tp-check"]
)
def test_cell_numerics_stdout_unchanged(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
