import random

import pytest

from clusterforge import graphs
from clusterforge.coxeter import cartan_data, dynkin_bipartition
from clusterforge.graphs import (
    Diagram,
    ExplorationReport,
    acyclic_order,
    canonical_key,
    classify_finite_type,
    diagram_dot,
    diagram_mutate,
    diagram_of,
    dynkin_name,
    explore_exchange_graph,
    gamma,
    is_acyclic,
    realize_diagram,
    relabel_matrix,
    seed_permutation,
    sign_graph_dot,
)
from clusterforge.seeds import (
    ExchangeMatrix,
    Seed,
    initial_seed,
    matrix_mutate,
    seed_mutate,
)

from conftest import MARKOV, SL3_LABELS, SL3_PRINCIPAL, SL3_ROWS
from test_seeds import rand_symmetrizable


B219 = ExchangeMatrix.make(SL3_PRINCIPAL)


def test_gamma_cycle_detection():
    g = gamma(B219)
    # the triangle 1 -> 3 -> 2 -> 1 sits inside (0-based: 0->2->1->0)
    assert (0, 2) in g.edges and (2, 1) in g.edges and (1, 0) in g.edges
    assert not is_acyclic(B219)


def test_mutated_matrix_becomes_acyclic():
    assert is_acyclic(matrix_mutate(B219, 1))
    assert is_acyclic(matrix_mutate(B219, 2))


def test_zero_matrix_acyclic_identity_order():
    Z = ExchangeMatrix.make([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert acyclic_order(Z) == (2, 1, 0) or is_acyclic(Z)


def test_acyclic_order_realizes_sign_condition():
    rng = random.Random(31)
    found = 0
    for _ in range(60):
        B = rand_symmetrizable(rng, 4)
        sigma = acyclic_order(B)
        if sigma is None:
            continue
        found += 1
        P = relabel_matrix(B, sigma).principal()
        assert all(P[i][j] >= 0 for i in range(4) for j in range(i))
    assert found > 10


def test_orientation_reversal_preserves_acyclicity():
    rng = random.Random(37)
    for _ in range(40):
        B = rand_symmetrizable(rng, 4)
        neg = ExchangeMatrix.make([[-x for x in row] for row in B.entries])
        assert is_acyclic(B) == is_acyclic(neg)


def test_diagram_weights():
    d = diagram_of(ExchangeMatrix.make(MARKOV))
    assert all(w == 4 for _, _, w in d.arrows)
    assert d.max_weight() == 4


def test_diagram_mutation_matches_matrix_mutation():
    rng = random.Random(41)
    for _ in range(30):
        B = rand_symmetrizable(rng, 4)
        P = ExchangeMatrix.make([list(r) for r in B.principal()])
        k = rng.randrange(4)
        lhs = canonical_key(diagram_of(matrix_mutate(P, k)))
        rhs = canonical_key(diagram_mutate(diagram_of(P), k))
        assert lhs == rhs


def test_single_edge_diagram_mutation_reverses():
    d = Diagram(2, ((0, 1, 1),))
    for k in (0, 1):
        assert diagram_mutate(d, k).arrows == ((1, 0, 1),)


def test_realize_markov_diagram():
    d = diagram_of(ExchangeMatrix.make(MARKOV))
    M = realize_diagram(d)
    assert canonical_key(diagram_of(M)) == canonical_key(d)


def test_star_after_one_mutation():
    # mutating the cyclic 4-vertex matrix at direction 2 yields a 3-leaf star
    d = diagram_of(matrix_mutate(B219, 1))
    und = d.undirected()
    degrees = sorted(
        sum(1 for e in und if v in e) for v in range(4)
    )
    assert degrees == [1, 1, 1, 3]
    assert dynkin_name(d) == "D4"


def test_canonical_key_permutation_invariant():
    rng = random.Random(43)
    for _ in range(30):
        B = rand_symmetrizable(rng, 5)
        P = ExchangeMatrix.make([list(r) for r in B.principal()])
        d = diagram_of(P)
        perm = list(range(5))
        rng.shuffle(perm)
        Pp = relabel_matrix(P, tuple(perm))
        assert canonical_key(diagram_of(Pp)) == canonical_key(d)


def test_canonical_key_edgeless_fast():
    d = Diagram(10, ())
    assert canonical_key(d) == (10, (0,) * 100)


def test_classify_d4():
    out = classify_finite_type(B219)
    assert out.verdict == "finite"
    assert out.type_name == "D4"


def test_classify_markov_infinite_at_depth_zero():
    out = classify_finite_type(ExchangeMatrix.make(MARKOV))
    assert out.verdict == "infinite"
    assert out.witness_weight == 4
    assert out.witness_depth == 0


def test_classify_zero_matrices():
    for r in (2, 3):
        Z = ExchangeMatrix.make([[0] * r for _ in range(r)])
        out = classify_finite_type(Z)
        assert out.verdict == "finite"
        assert out.type_name == f"A1^{r}"


def test_classify_mutation_invariant():
    rng = random.Random(47)
    base = classify_finite_type(B219)
    for _ in range(3):
        k = rng.randrange(4)
        out = classify_finite_type(matrix_mutate(B219, k))
        assert (out.verdict, out.type_name) == (base.verdict, base.type_name)


def test_classify_node_cap_inconclusive():
    # a wild matrix whose class cannot close within two nodes, weights all <= 3
    B = ExchangeMatrix.make(
        [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
    )
    out = classify_finite_type(B, node_cap=2)
    assert out.verdict in ("inconclusive", "finite")


def test_dynkin_names():
    path = Diagram(3, ((0, 1, 1), (1, 2, 1)))
    assert dynkin_name(path) == "A3"
    b2 = Diagram(2, ((0, 1, 2),))
    assert dynkin_name(b2) == "B2"
    g2 = Diagram(2, ((0, 1, 3),))
    assert dynkin_name(g2) == "G2"
    f4 = Diagram(4, ((0, 1, 1), (1, 2, 2), (2, 3, 1)))
    assert dynkin_name(f4) == "F4"
    mixed = Diagram(3, ((0, 1, 1),))
    assert dynkin_name(mixed) == "A2 x A1"


def test_explore_rank_one():
    seed = initial_seed(ExchangeMatrix.make([[0], [1]], ("x1", "y1")))
    rep = explore_exchange_graph(seed)
    assert rep.clusters == 2 and rep.variables == 2 and rep.exhausted


def test_explore_two_disconnected_directions():
    seed = initial_seed(ExchangeMatrix.make([[0, 0], [0, 0], [1, 0], [0, 1]]))
    rep = explore_exchange_graph(seed)
    assert rep.clusters == 4 and rep.variables == 4 and rep.exhausted


def test_explore_cap():
    seed = initial_seed(ExchangeMatrix.make(list(SL3_PRINCIPAL)))
    rep = explore_exchange_graph(seed, max_seeds=5)
    assert not rep.exhausted
    assert rep.clusters == 5
    assert rep == ExplorationReport(5, 8, 20, False, 1)


def test_explore_sl3_full_report():
    seed = initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS))
    rep = explore_exchange_graph(seed)
    assert rep == ExplorationReport(50, 16, 200, True, 5)


def bipartite_seed(type_name):
    """Initial seed of the bipartite orientation of a Dynkin tree."""
    cartan = cartan_data(type_name)
    minus, _ = dynkin_bipartition(cartan)
    r = cartan.rank
    sign = [1 if i + 1 in minus else -1 for i in range(r)]
    rows = [
        [0 if i == j else sign[i] * cartan.A[i][j] for j in range(r)] for i in range(r)
    ]
    return initial_seed(ExchangeMatrix.make(rows))


def test_explore_divides_once_per_edge(monkeypatch):
    calls = []

    def counting_mutate(seed, k):
        calls.append(k)
        return seed_mutate(seed, k)

    monkeypatch.setattr(graphs, "seed_mutate", counting_mutate)
    rep = explore_exchange_graph(bipartite_seed("A3"))
    assert rep == ExplorationReport(14, 9, 42, True, 4)
    assert len(calls) == 21  # one per edge of the A3 associahedron


def test_seed_permutation_accepts_relabelled_copy_only():
    seed = seed_mutate(initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS)), 1)
    p = [2, 0, 3, 1]  # position j of the copy holds seed variable p[j]
    rows = [
        [seed.matrix.entries[r][p[j]] for j in range(4)]
        for r in p + list(range(4, seed.m))
    ]
    copy = Seed(
        ExchangeMatrix(tuple(map(tuple, rows)), 4, seed.matrix.labels),
        seed.ctx,
        tuple(seed.exprs[i] for i in p),
    )
    assert seed_permutation(seed, copy) == p
    assert seed_permutation(seed, seed) == [0, 1, 2, 3]
    for r, c in ((0, 1), (5, 2)):  # one principal, one frozen entry
        changed = [list(row) for row in rows]
        changed[r][c] += 1
        bad = Seed(
            ExchangeMatrix(tuple(map(tuple, changed)), 4, seed.matrix.labels),
            seed.ctx,
            copy.exprs,
        )
        assert seed_permutation(seed, bad) is None
    other = seed_mutate(seed, 0)
    assert seed_permutation(seed, other) is None  # a different cluster


@pytest.mark.slow
def test_explore_e7_census():
    rep = explore_exchange_graph(bipartite_seed("E7"))
    assert rep == ExplorationReport(4160, 70, 29120, True, 14)


def test_dot_outputs():
    g = gamma(B219)
    assert "digraph" in sign_graph_dot(g)
    assert '[label="4"]' in diagram_dot(diagram_of(ExchangeMatrix.make(MARKOV)))


def test_census_independent_of_start_seed():
    from clusterforge.seeds import ExchangeMatrix, initial_seed, seed_mutate
    from conftest import SL3_ROWS, SL3_LABELS

    seed = initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS))
    base = explore_exchange_graph(seed)
    for k in (1, 3):
        rep = explore_exchange_graph(seed_mutate(seed, k))
        assert (rep.clusters, rep.variables) == (base.clusters, base.variables)


def test_base_affine_a4_diagram_mutates_to_d6_tree():
    from clusterforge.coxeter import bipartite_longest_word, cartan_data
    from clusterforge.double_bruhat import build_btilde, indexed_word, seed_from_btilde

    A4 = cartan_data("A4")
    iw = indexed_word(A4, bipartite_longest_word(A4))
    seed = seed_from_btilde(build_btilde(iw, A4))
    d = diagram_of(seed.matrix)
    assert dynkin_name(d) is None  # cyclic start
    # mutating at the columns of the first two word positions reaches an
    # acyclic orientation of the D6 tree
    cols = list(seed.matrix.labels[: seed.n])
    k1, k2 = cols.index("x1"), cols.index("x2")
    M = matrix_mutate(matrix_mutate(seed.matrix, k1), k2)
    assert is_acyclic(M)
    assert dynkin_name(diagram_of(M)) == "D6"
    assert canonical_key(diagram_of(M)) == canonical_key(
        diagram_mutate(diagram_mutate(diagram_of(seed.matrix), k1), k2)
    )


def test_realize_diagram_roundtrip_randomized():
    rng = random.Random(53)
    for _ in range(25):
        B = rand_symmetrizable(rng, 4)
        P = ExchangeMatrix.make([list(r) for r in B.principal()])
        d = diagram_of(P)
        M = realize_diagram(d)
        assert canonical_key(diagram_of(M)) == canonical_key(d)
        from clusterforge.seeds import skew_symmetrizer

        assert skew_symmetrizer(M) is not None


def test_classification_agrees_across_the_whole_class():
    # every representative of the finite class reports the same type
    reps = [ExchangeMatrix.make(SL3_PRINCIPAL)]
    seen = {canonical_key(diagram_of(reps[0]))}
    idx = 0
    while idx < len(reps):
        M = reps[idx]
        idx += 1
        for k in range(4):
            M2 = matrix_mutate(M, k)
            key = canonical_key(diagram_of(M2))
            if key not in seen:
                seen.add(key)
                reps.append(M2)
    assert len(reps) > 3
    results = {
        (classify_finite_type(M).verdict, classify_finite_type(M).type_name)
        for M in reps
    }
    assert results == {("finite", "D4")}
