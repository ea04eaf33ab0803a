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
    WeylElement,
    cartan_data,
    fundamental_subset,
    longest_element,
    word_product,
)
from clusterforge.double_bruhat import (
    InvalidWord,
    MinorSpec,
    PositivityReport,
    SamplingExhausted,
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
    nonvanishing_conditions,
    open_cell_a2_closed_forms,
    partial_products,
    sample_cell,
    sample_totally_positive,
    seed_from_btilde,
    tp_criterion_check,
    verify_cell_identities,
)
import clusterforge
from clusterforge import double_bruhat, graphs
from clusterforge.cli import main
from clusterforge.graphs import explore_exchange_graph
from clusterforge.laurent import LaurentPoly
from clusterforge.seeds import rank, seed_mutate, skew_symmetrizer
from clusterforge.util import mat_mul

from conftest import SL3_ROWS


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
    """Every reduced word, by peeling right descents recursively."""
    if w.is_identity():
        return [()]
    out = []
    for i in range(cartan.rank):
        s = WeylElement.simple(cartan, i)
        shorter = w * s
        if shorter.length() == w.length() - 1:
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
    edges = {(s, d) for s, d, _ in g.edges}
    assert (-1, 1) in edges  # horizontal, positive later letter
    assert (3, 2) in edges  # inclined edge of the middle square
    assert (4, 5) in edges  # inclined, negative later letter
    horizontal = {(s, d) for s, d, h in g.edges if h}
    assert (-1, 1) in horizontal and (3, 2) not in horizontal


def test_single_letter_word_has_no_exchangeable_indices():
    A1 = cartan_data("A1")
    iw = indexed_word(A1, (1,))
    assert iw.exchangeable() == []
    g = build_gamma_tilde(iw, A1)
    assert g.edges == ()  # no endpoint is exchangeable, so no edges at all
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
    for k in bt.col_labels:
        for l in bt.col_labels:
            dk = A3.d[abs(iw.letter(k)) - 1]
            dl = A3.d[abs(iw.letter(l)) - 1]
            assert dk * abs(entry(k, l)) == dl * abs(entry(l, k))


def test_partial_products_running_word():
    iw = indexed_word(A2, OPEN_CELL_A2)
    u4, v4 = partial_products(iw, A2, 4)
    assert u4.matrix == WeylElement.simple(A2, 0).matrix
    assert v4.is_identity()
    um2, vm2 = partial_products(iw, A2, -2)
    assert um2.is_identity()
    w0, _ = longest_element(A2)
    assert vm2.matrix == w0.matrix


def test_minor_specs_running_word():
    iw = indexed_word(A2, OPEN_CELL_A2)
    expected = {
        -2: ({1, 2}, {2, 3}),
        -1: ({1}, {3}),
        1: ({1}, {2}),
        2: ({1, 2}, {1, 2}),
        3: ({1}, {1}),
        4: ({2}, {1}),
        5: ({2, 3}, {1, 2}),
        6: ({3}, {1}),
    }
    for k, (rows, cols) in expected.items():
        spec = minor_spec(iw, A2, k)
        assert (set(spec.rows), set(spec.cols)) == (rows, cols)


def test_evaluate_minor_identity_matrix():
    g = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    spec = MinorSpec(frozenset({1, 2}), frozenset({1, 2}))
    assert evaluate_minor(spec, g) == 1
    assert evaluate_minor(MinorSpec(frozenset({1}), frozenset({3})), g) == 0


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
    # them singular and some with a zero leading entry
    rng = random.Random(89)
    singular = zero_lead = 0
    for t in range(40):
        n = rng.randint(1, 4)
        h = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(n)]
        if t % 4 == 0 and n > 1:
            h[-1] = [2 * x for x in h[0]]
        if t % 4 == 1:
            h[0][0] = 0
        specs = [
            MinorSpec(frozenset(rows), frozenset(cols))
            for k in range(1, n + 1)
            for rows in itertools.combinations(range(1, n + 1), k)
            for cols in itertools.combinations(range(1, n + 1), k)
        ]
        assert list(integer_minors(specs, h)) == [evaluate_minor(s, h) for s in specs]
        singular += det(h) == 0
        zero_lead += h[0][0] == 0
    assert singular >= 10 and zero_lead >= 10


def _cell(cartan, word):
    """(u, v, family specs) of a double word, as the cell checks use them."""
    u = word_product(cartan, [-x for x in word if x < 0])
    v = word_product(cartan, [x for x in word if x > 0])
    return u, v, double_bruhat._cell_setup(cartan, word)[2]


def _longest_word_cell(cartan):
    _, reduced = longest_element(cartan)
    return tuple(-x for x in reduced) + tuple(reduced)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("cell", ["longest", "coxeter"])
def test_sample_cell_hands_back_family_minors(r, cell):
    cartan = cartan_data(f"A{r}")
    word = _longest_word_cell(cartan) if cell == "longest" else coxeter_cell_word(cartan)
    u, v, specs = _cell(cartan, word)
    for s in range(10):
        rng, plain = random.Random(s), random.Random(s)
        minors = []
        g = sample_cell(cartan, u, v, rng, extra_nonzero=specs, minors=minors)
        assert minors == [evaluate_minor(spec, g) for spec in specs]
        assert all(type(m) is Fraction for m in minors)
        # asking for the minors changes neither the sample nor the draws
        assert sample_cell(cartan, u, v, plain, extra_nonzero=specs) == g
        assert plain.getstate() == rng.getstate()


def test_sample_cell_determinant_check_survives_python_O():
    # a product that is off by a factor 2 has determinant 8 on A2; under -O
    # an assert would let it through
    code = "\n".join([
        "import random, sys",
        "from clusterforge import double_bruhat",
        "from clusterforge.coxeter import cartan_data, longest_element",
        "from clusterforge.util import mat_mul",
        "if not sys.flags.optimize: sys.exit('not run under -O')",
        "double_bruhat.mat_mul = lambda a, b: tuple(",
        "    tuple(2 * x for x in row) for row in mat_mul(a, b))",
        "A2 = cartan_data('A2')",
        "w0, _ = longest_element(A2)",
        "double_bruhat.sample_cell(A2, w0, w0, random.Random(1))",
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
    w0, _ = longest_element(A2)
    g = sample_cell(A2, w0, w0, rng)
    assert det(g) == 1
    for spec in nonvanishing_conditions(A2, w0, w0):
        assert evaluate_minor(spec, g) != 0
    # the four open-cell conditions include x13 and x31
    assert g[0][2] != 0 and g[2][0] != 0


def test_sample_cell_identity_for_trivial_pair():
    e = WeylElement.identity(A2)
    ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for spec in nonvanishing_conditions(A2, e, e):
        assert evaluate_minor(spec, ident) != 0


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
        A2, OPEN_CELL_A2, samples=3, closed_forms={6: lambda g: 12345}
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
        closed_forms={3: lambda g: g[0][0]},  # wrong on purpose
    )
    assert not rep.ok


def test_verify_reports_each_wrong_closed_form():
    rep = verify_cell_identities(
        A2, OPEN_CELL_A2, samples=3, rng_seed=3,
        closed_forms={3: lambda g: g[1][1] + 1},  # off by one on every sample
    )
    assert rep.failures == tuple(
        f"sample {i}: position 3: quotient != closed form" for i in range(3)
    )


@pytest.mark.parametrize(
    "word, closed_forms, evaluations",
    [
        # no closed form: no exchange relation and no minor is evaluated
        ((-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2), None, 0),
        # the three Coxeter positions, on each of 5 samples; the minors
        # evaluated are the closed forms' only
        (coxeter_cell_word(A3), coxeter_cell_closed_forms(A3), 15),
    ],
)
def test_verify_evaluates_only_compared_relations(
    monkeypatch, word, closed_forms, evaluations
):
    calls = []
    evaluate = LaurentPoly.evaluate

    def counted(self, values):
        calls.append(1)
        return evaluate(self, values)

    # the sampler's minors are handed back, so the only det call a try makes
    # is its determinant check, and only the closed forms evaluate minors
    dets, minors, factors = [], [], []
    det_, evaluate_minor_, unitriangular = (
        double_bruhat.det, double_bruhat.evaluate_minor, double_bruhat._unitriangular
    )

    def counted_det(rows):
        dets.append(sys._getframe(1).f_code.co_name)
        return det_(rows)

    def counted_minor(spec, g):
        minors.append(1)
        return evaluate_minor_(spec, g)

    def counted_factor(*args, **kwargs):
        factors.append(1)
        return unitriangular(*args, **kwargs)

    monkeypatch.setattr(LaurentPoly, "evaluate", counted)
    monkeypatch.setattr(double_bruhat, "det", counted_det)
    monkeypatch.setattr(double_bruhat, "evaluate_minor", counted_minor)
    monkeypatch.setattr(double_bruhat, "_unitriangular", counted_factor)
    rep = verify_cell_identities(A3, word, samples=5, rng_seed=11,
                                 closed_forms=closed_forms)
    assert rep.ok and rep.relations_checked == 5 * (len(word) - 3)
    assert len(calls) == evaluations
    assert len(minors) == evaluations
    tries = len(factors) // 2  # two unitriangular factors per try
    assert tries >= 5
    assert sorted(dets) == ["evaluate_minor"] * evaluations + ["sample_cell"] * tries


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
    calls = []

    def counting_mutate(seed, k):
        calls.append(k)
        return seed_mutate(seed, k)

    monkeypatch.setattr(graphs, "seed_mutate", counting_mutate)
    rep = tp_criterion_check(A3, OPEN_CELL_A3, samples=3, clusters=40, rng_seed=7)
    assert rep == PositivityReport(3, 45, 40, ())
    # one division per exchange relation met while reaching 40 clusters
    assert len(calls) == 21


def reference_tp_failures(cartan, word, gs, clusters):
    """The per-(cluster, variable) loop: one evaluation per variable per cluster."""
    seed, _, specs = double_bruhat._cell_setup(cartan, word)
    found = [s.exprs for s, _ in islice(graphs.exchange_seeds(seed), clusters)]
    out = []
    for i, g in enumerate(gs):
        values = [evaluate_minor(spec, g) for spec in specs]
        local = []
        if any(v <= 0 for v in values):
            local.append("a family minor is not positive")
        if det(g) <= 0:
            local.append("determinant is not positive")
        for ci, exprs in enumerate(found):
            for e in exprs:
                if e.evaluate(values) <= 0:
                    local.append(f"cluster {ci}: variable not positive")
        for j in range(seed.n, seed.m):
            if values[j] <= 0:
                local.append("frozen minor not positive")
        out += [f"sample {i}: {msg}" for msg in local]
    return tuple(out)


def test_tp_criterion_check_messages_match_per_cluster_loop(monkeypatch):
    # det-one matrices with nonzero family minors, some of them negative:
    # cell samples for the family, which are not totally positive
    specs = double_bruhat._cell_setup(A3, OPEN_CELL_A3)[2]
    w0, _ = longest_element(A3)
    rng = random.Random(5)
    gs = [sample_cell(A3, w0, w0, rng, extra_nonzero=specs) for _ in range(4)]
    for g in gs:
        minors = [evaluate_minor(spec, g) for spec in specs]
        assert 0 not in minors and any(v < 0 for v in minors)

    def integral(g):
        """g as an integer matrix and the denominator it is to be divided by."""
        den = lcm(*(x.denominator for row in g for x in row))
        return [[int(x * den) for x in row] for row in g], den

    draws = map(integral, gs)
    monkeypatch.setattr(
        double_bruhat, "sample_totally_positive", lambda cartan, word, rng: next(draws)
    )
    rep = tp_criterion_check(A3, OPEN_CELL_A3, samples=4, clusters=40, rng_seed=1)
    expected = reference_tp_failures(A3, OPEN_CELL_A3, gs, 40)
    assert rep.failures == expected
    variable_failures = [f for f in expected if "variable" in f]
    assert 0 < len(variable_failures) < 4 * 40 * 9


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
    assert "->" in gamma_tilde_dot(build_gamma_tilde(iw, A2))


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


def reference_sample_cell(cartan, u, v, rng, extra_nonzero=(), tries=200):
    """lower-unitriangular x diagonal x upper-unitriangular, multiplied out."""
    size = cartan.rank + 1
    conditions = nonvanishing_conditions(cartan, u, v) + list(extra_nonzero)
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
    raise SamplingExhausted


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
    w0, reduced = longest_element(cartan)
    word = tuple(-x for x in reduced) + tuple(reduced)
    iw = indexed_word(cartan, word)
    specs = [minor_spec(iw, cartan, k) for k in iw.positions()]
    for s in range(20):
        rng, ref = random.Random(s), random.Random(s)
        assert sample_cell(cartan, w0, w0, rng, extra_nonzero=specs) == (
            reference_sample_cell(cartan, w0, w0, ref, extra_nonzero=specs)
        )
        assert _divided(*sample_totally_positive(cartan, word, rng)) == (
            reference_sample_totally_positive(cartan, word, ref)
        )
        assert rng.getstate() == ref.getstate()  # the same draws, in the same order


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
