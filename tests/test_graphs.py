import random
import time
from collections import Counter, deque
from itertools import permutations
from math import comb, gcd

import pytest

from clusterforge import graphs
from clusterforge.coxeter import bipartite_longest_word, cartan_data, dynkin_bipartition
from clusterforge.double_bruhat import build_btilde, indexed_word, seed_from_btilde
from clusterforge.graphs import (
    Classification,
    Diagram,
    ExplorationReport,
    acyclic_order,
    canonical_key,
    classify_finite_type,
    diagram_mutate,
    diagram_of,
    dynkin_name,
    exchange_seeds,
    explore_exchange_graph,
    is_acyclic,
    realize_diagram,
    relabel_matrix,
)
from clusterforge.seeds import (
    ExchangeMatrix,
    SignSkewSymmetryLost,
    general_seed,
    initial_seed,
    is_sign_skew_symmetric,
    is_skew_symmetrizable,
    matrix_mutate,
    seed_mutate,
)

from conftest import MARKOV, SL3_LABELS, SL3_PRINCIPAL, SL3_ROWS
from test_seeds import rand_symmetrizable


B219 = ExchangeMatrix.make(SL3_PRINCIPAL)


def test_gamma_cycle_detection():
    edges = diagram_of(B219).weights
    # the triangle 1 -> 3 -> 2 -> 1 sits inside (0-based: 0->2->1->0)
    assert (0, 2) in edges and (2, 1) in edges and (1, 0) in edges
    assert not is_acyclic(B219)


def test_mutated_matrix_becomes_acyclic():
    assert is_acyclic(matrix_mutate(B219, 1))
    assert is_acyclic(matrix_mutate(B219, 2))


def test_zero_matrix_acyclic_identity_order():
    Z = ExchangeMatrix.make([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert acyclic_order(Z) == (2, 1, 0)


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
    assert d.weights == {(0, 1): 4, (1, 2): 4, (2, 0): 4}


def test_diagram_mutation_matches_matrix_mutation():
    rng = random.Random(41)
    for _ in range(30):
        B = rand_symmetrizable(rng, 4)
        P = ExchangeMatrix.make([list(r) for r in B.principal()])
        k = rng.randrange(4)
        lhs = diagram_of(matrix_mutate(P, k)).weights
        rhs = diagram_mutate(diagram_of(P), k).weights
        assert canonical_key(lhs, 4) == canonical_key(rhs, 4)


def test_single_edge_diagram_mutation_reverses():
    d = Diagram(2, {(0, 1): 1})
    for k in (0, 1):
        assert diagram_mutate(d, k).weights == {(1, 0): 1}


def test_realize_markov_diagram():
    d = diagram_of(ExchangeMatrix.make(MARKOV))
    M = realize_diagram(d)
    assert diagram_of(M) == d


@pytest.mark.parametrize(
    "weights",
    [
        {(0, 1): 2, (1, 2): 2, (2, 0): 2},  # symmetrizer ratios 2 or 1/2 around a 3-cycle
        {(0, 1): 0},  # a weight-0 edge of Gamma(B) in the spanning forest
        {(0, 1): 1, (0, 2): 1, (1, 2): 0},  # and off it
    ],
    ids=["odd-cycle-of-twos", "weight-0-forest-edge", "weight-0-cycle-edge"],
)
def test_realize_diagram_rejects_unrealizable(weights):
    with pytest.raises(graphs.UnrealizableDiagram):
        realize_diagram(Diagram(3, weights))


def test_star_after_one_mutation():
    # mutating the cyclic 4-vertex matrix at direction 2 yields a 3-leaf star
    d = diagram_of(matrix_mutate(B219, 1))
    degrees = sorted(sum(v in a for a in d.weights) for v in range(4))
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
        assert canonical_key(diagram_of(Pp).weights, 5) == canonical_key(d.weights, 5)


def test_canonical_key_edgeless_fast():
    assert canonical_key({}, 10) == (10, (0,) * 100)


def _relabelled(d, rng):
    p = list(range(d.n))
    rng.shuffle(p)
    return Diagram(d.n, {(p[i], p[j]): w for (i, j), w in d.weights.items()})


@pytest.mark.parametrize(
    "weights, other",
    [
        ({(i, (i + 1) % 10): 1 for i in range(10)},
         {(i, (i + 1) % 5 + 5 * (i // 5)): 1 for i in range(10)}),
        ({(2 * i, 2 * i + 1): 1 for i in range(5)},
         {(0, 1): 1, (1, 2): 1, **{(2 * i + 1, 2 * i + 2): 1 for i in range(1, 4)}}),
    ],
    ids=["oriented-10-cycle", "five-arrows"],
)
def test_canonical_key_symmetric_ten_vertices(weights, other):
    start = time.perf_counter()
    key = canonical_key(weights, 10)
    assert time.perf_counter() - start < 1.0
    moved = _relabelled(Diagram(10, weights), random.Random(59))
    assert canonical_key(moved.weights, 10) == key
    assert canonical_key(other, 10) != key


@pytest.mark.parametrize(
    "weights, name",
    [
        ({(i, i + 1): 1 for i in range(39)}, "A40"),
        ({**{(i, i + 1): 1 for i in range(38)}, (39, 37): 1}, "D40"),
        ({(i + 1, i): 1 for i in range(59)}, "A60"),
    ],
    ids=["A40", "D40", "A60"],
)
def test_dynkin_name_past_rank_31(weights, name):
    n = int(name[1:])
    d = _relabelled(Diagram(n, weights), random.Random(name))
    start = time.perf_counter()
    assert dynkin_name(d) == name
    assert time.perf_counter() - start < 1.0


def _oracle_key(d):
    """Least adjacency serialization over all n! vertex orders."""
    adj = [[0] * d.n for _ in range(d.n)]
    for (i, j), w in d.weights.items():
        adj[i][j] = w
    orders = permutations(range(d.n))
    return (d.n, min(tuple(adj[a][b] for a in p for b in p) for p in orders))


def test_canonical_key_agrees_with_brute_force_oracle():
    rng = random.Random(61)
    diagrams = []
    for _ in range(200):
        n = rng.choice((2, 3, 4, 5, 5, 6, 6, 6))
        density = rng.choice((0.2, 0.4, 0.6))
        weights = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    w = rng.choice((1, 1, 1, 2, 3))
                    weights[(i, j) if rng.random() < 0.5 else (j, i)] = w
        d = Diagram(n, weights)
        diagrams += [d, _relabelled(d, rng)]
    # Oriented 3- and 4-cycles side by side, and a 7-cycle: refinement
    # leaves one cell of 7, whose vertices lie in different orbits.
    c3c4 = Diagram(7, {(0, 1): 1, (1, 2): 1, (2, 0): 1,
                       (3, 4): 1, (4, 5): 1, (5, 6): 1, (6, 3): 1})
    c7 = Diagram(7, {(i, (i + 1) % 7): 1 for i in range(7)})
    diagrams += [_relabelled(d, rng) for d in (c3c4, c7) for _ in range(4)]
    keys = [canonical_key(d.weights, d.n) for d in diagrams]
    oracle = [_oracle_key(d) for d in diagrams]
    # the two invariants partition the sample into the same classes
    assert len(set(keys)) == len(set(oracle)) == len(set(zip(keys, oracle)))
    assert len(set(oracle)) < 200  # some independent draws are isomorphic


def _dense_refine(adj, colors):
    """Colour refinement that scans every vertex pair and compares triples."""
    n = len(adj)
    cells = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted(
                (adj[v][u], adj[u][v], colors[u])
                for u in range(n)
                if adj[v][u] or adj[u][v]
            )))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) in (cells, n):
            return colors
        cells = len(rank)


def _dense_key(d):
    """The search tree of canonical_key on a dense matrix, pruned by twins only."""
    n = d.n
    adj = [[0] * n for _ in range(n)]
    for (i, j), w in d.weights.items():
        adj[i][j] = w

    def twins(u, v):
        return adj[u][v] == adj[v][u] and all(
            adj[u][x] == adj[v][x] and adj[x][u] == adj[x][v]
            for x in range(n) if x not in (u, v)
        )

    twin = [next(u for u in range(v + 1) if twins(u, v)) for v in range(n)]
    leaves = []

    def search(colors):
        c = min((c for c, size in Counter(colors).items() if size > 1), default=None)
        if c is None:
            order = sorted(range(n), key=colors.__getitem__)
            leaves.append(tuple(adj[a][b] for a in order for b in order))
            return
        branched = set()
        for v in range(n):
            if colors[v] == c and twin[v] not in branched:
                branched.add(twin[v])
                split = [2 * x + (x == c and u != v) for u, x in enumerate(colors)]
                search(_dense_refine(adj, split))

    search(_dense_refine(adj, [0] * n))
    return (n, min(leaves))


def _random_diagram(rng, n):
    """Weights 1-4; some pairs get the symmetric double arrow of _component_name."""
    weights = {}
    density = rng.choice((0.15, 0.3, 0.5, 0.8))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = rng.randint(1, 4)
                kind = rng.random()
                if kind < 0.2:
                    weights[(i, j)] = weights[(j, i)] = w
                else:
                    weights[(i, j) if kind < 0.6 else (j, i)] = w
    return weights


def test_canonical_key_equals_dense_search():
    rng = random.Random(67)
    for _ in range(2000):
        if rng.random() < 0.2:
            # copies of one small diagram: the automorphism pruning works here
            size, copies = rng.randint(1, 3), rng.randint(2, 3)
            part = _random_diagram(rng, size)
            n = size * copies
            weights = {(i + t * size, j + t * size): w
                       for t in range(copies) for (i, j), w in part.items()}
        else:
            n = rng.randint(1, 9)
            weights = _random_diagram(rng, n)
        p = list(range(n))
        rng.shuffle(p)
        d = Diagram(n, {(p[i], p[j]): w for (i, j), w in weights.items()})
        assert canonical_key(d.weights, n) == _dense_key(d), d
    six = Diagram(12, {(2 * i, 2 * i + 1): 1 for i in range(6)})
    assert canonical_key(six.weights, 12) == _dense_key(six)
    # oriented C3 + C4 + C4: refinement keeps all 11 vertices in one cell,
    # and a search that ends a subtree too early misses the least leaf
    cycles = {(i, (i + 1) % 3): 1 for i in range(3)} | {
        (3 + 4 * t + i, 3 + 4 * t + (i + 1) % 4): 1 for t in range(2) for i in range(4)
    }
    for _ in range(30):
        d = _relabelled(Diagram(11, cycles), rng)
        assert canonical_key(d.weights, 11) == _dense_key(d), d


def test_canonical_key_eight_disjoint_arrows():
    d = Diagram(16, {(2 * i, 2 * i + 1): 1 for i in range(8)})
    start = time.perf_counter()
    key = canonical_key(d.weights, 16)
    assert time.perf_counter() - start < 1.0
    assert canonical_key(_relabelled(d, random.Random(73)).weights, 16) == key
    seven = {**{(2 * i, 2 * i + 1): 1 for i in range(7)}, (14, 15): 2}
    assert canonical_key(seven, 16) != key


def test_canonical_key_leaf_relabels_to_the_key():
    rng = random.Random(79)
    diagrams = [Diagram(n, _random_diagram(rng, n))
                for n in (rng.randint(1, 8) for _ in range(300))]
    diagrams += [
        Diagram(10, {(i, (i + 1) % 10): 1 for i in range(10)}),
        Diagram(10, {(2 * i, 2 * i + 1): 1 for i in range(5)}),
        Diagram(16, {(2 * i, 2 * i + 1): 1 for i in range(8)}),
    ]
    for d in diagrams + [_relabelled(d, rng) for d in diagrams]:
        leaf = []
        key = canonical_key(d.weights, d.n, leaf)
        assert sorted(leaf) == list(range(d.n))
        ser = [0] * (d.n * d.n)
        for (i, j), w in d.weights.items():
            ser[leaf[i] * d.n + leaf[j]] = w
        assert key == (d.n, tuple(ser)), d


def test_canonical_key_repeated_arrow_keeps_the_last_weight():
    # 1-3 arrows are given a last weight of 0-4, and a weight of 0 keys
    # like no arrow: a weight-0 edge of Gamma(B) is no edge of the diagram
    rng = random.Random(83)
    for _ in range(500):
        n = rng.randint(2, 7)
        last = _random_diagram(rng, n)
        for i, j in (rng.sample(range(n), 2) for _ in range(rng.randint(1, 3))):
            last[(i, j)] = rng.randint(0, 4)
        nonzero = {a: w for a, w in last.items() if w}
        leaf, want = [], []
        assert canonical_key(last, n, leaf) == canonical_key(nonzero, n, want)
        assert leaf == want


@pytest.mark.parametrize(
    "make, cap",
    [
        (lambda: bipartite_seed("E7").matrix, 100_000),
        (lambda: _cell_matrix("A3", (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)), 100_000),
        (lambda: _cell_matrix("A5"), 300),
    ],
    ids=["bipartite-E7", "open-cell-A3", "base-affine-A5-node-cap"],
)
def test_canonical_key_equals_dense_search_on_classify_inputs(monkeypatch, make, cap):
    keyed = []

    def recording_canonical_key(weights, n, leaf=None):
        keyed.append(Diagram(n, weights))
        return canonical_key(weights, n, leaf)

    monkeypatch.setattr(graphs, "canonical_key", recording_canonical_key)
    classify_finite_type(make(), node_cap=cap)
    discrete_roots = 0
    for d in keyed:
        leaf = []
        key = canonical_key(d.weights, d.n, leaf)
        assert key == _dense_key(d), d
        ser = [0] * (d.n * d.n)
        adj = [[0] * d.n for _ in range(d.n)]
        for (i, j), w in d.weights.items():
            ser[leaf[i] * d.n + leaf[j]] = w
            adj[i][j] = w
        assert key == (d.n, tuple(ser)), d
        discrete_roots += len(set(_dense_refine(adj, [0] * d.n))) == d.n
    # keys returned at the root and keys found by a search both occur
    assert 0 < discrete_roots < len(keyed)


def test_checked_weights_raise_exactly_off_sign_skew_symmetry():
    # sign-skew-symmetric matrices with 0-2 entries overwritten, the
    # diagonal included: the fused loop of classify_finite_type raises
    # exactly where is_sign_skew_symmetric is False, else weighs the
    # weights of diagram_of
    rng = random.Random(89)
    outcomes = Counter()
    for _ in range(2000):
        n = rng.randint(1, 6)
        E = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a = E[i][j] = rng.randint(-3, 3)
                if a:
                    E[j][i] = (-1 if a > 0 else 1) * rng.randint(1, 3)
        for _ in range(rng.choice((0, 1, 1, 2))):
            E[rng.randrange(n)][rng.randrange(n)] = rng.randint(-3, 3)
        M = ExchangeMatrix.make(E)
        if is_sign_skew_symmetric(M):
            assert graphs._checked_weights(M.entries) == diagram_of(M).weights, E
        else:
            with pytest.raises(SignSkewSymmetryLost):
                graphs._checked_weights(M.entries)
        outcomes[is_sign_skew_symmetric(M)] += 1
    assert min(outcomes.values()) > 500


def _classify_keying_every_matrix(B, node_cap=100_000, made=None):
    """classify_finite_type's search with every mutated matrix keyed.

    made, if given, receives (depth, entries) for each mutated matrix.
    """
    assert is_skew_symmetrizable(B)
    P = ExchangeMatrix.make([list(r) for r in B.principal()])
    d0 = diagram_of(P)
    top = max(d0.weights.values(), default=0)
    if top >= 4:
        return Classification("infinite", None, d0, top, 0, 1)
    reps = {canonical_key(d0.weights, P.n): P}
    queue = deque([(P, 0, None)])
    while queue:
        M, depth, back = queue.popleft()
        for k in range(M.n):
            if k == back:
                continue
            M2 = matrix_mutate(M, k)
            if made is not None:
                made.append((depth + 1, M2.entries))
            d2 = diagram_of(M2)
            top = max(d2.weights.values(), default=0)
            if top >= 4:
                return Classification("infinite", None, d2, top, depth + 1, len(reps))
            key = canonical_key(d2.weights, M2.n)
            if key not in reps:
                if len(reps) >= node_cap:
                    return Classification("inconclusive", None, None, None, None, len(reps))
                reps[key] = M2
                queue.append((M2, depth + 1, k))
    for M in reps.values():
        if is_acyclic(M):
            name = dynkin_name(diagram_of(M))
            if name is not None:
                return Classification("finite", name, None, None, None, len(reps))
    return Classification("finite", "unrecognized", None, None, None, len(reps))


def _cell_matrix(type_name, word=None):
    cartan = cartan_data(type_name)
    iw = indexed_word(cartan, word or bipartite_longest_word(cartan))
    return seed_from_btilde(build_btilde(iw, cartan)).matrix


@pytest.mark.parametrize(
    "make, cap, summary",
    [
        (lambda: _cell_matrix("A5"), 100_000, ("infinite", 2385, 6)),
        (lambda: _cell_matrix("A5"), 1000, ("inconclusive", 1000, None)),
        (lambda: _cell_matrix("A3", (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)),
         100_000, ("infinite", 398, 5)),
        (lambda: bipartite_seed("E7").matrix, 100_000, ("finite", 416, None)),
    ] + [(lambda n=n: _oriented_cycle(n), 100_000, ("finite", c, None))
         for n, c in ((5, 26), (6, 80), (7, 246), (8, 810))],
    ids=["base-affine-A5", "base-affine-A5-node-cap", "open-cell-A3", "bipartite-E7",
         "cycle-5", "cycle-6", "cycle-7", "cycle-8"],
)
def test_classify_equals_search_keying_every_matrix(make, cap, summary):
    B = make()
    out = classify_finite_type(B, node_cap=cap)
    assert out == _classify_keying_every_matrix(B, node_cap=cap)
    assert (out.verdict, out.nodes, out.witness_depth) == summary


@pytest.mark.parametrize(
    "make, cap",
    [
        (lambda: _cell_matrix("A3", (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)), 100_000),
        (lambda: _cell_matrix("A5"), 1000),
    ],
    ids=["open-cell-A3", "base-affine-A5-node-cap"],
)
def test_classify_builds_each_matrix_once_per_layer(monkeypatch, make, cap):
    B = make()
    made = []
    _classify_keying_every_matrix(B, node_cap=cap, made=made)
    first = list(dict.fromkeys(made))  # first copy of each within its layer
    popped, built = [], []

    class RecordingQueue(deque):
        def popleft(self):
            item = super().popleft()
            popped.append(item[-1])  # the depth of the rep being expanded
            return item

    def recording_checked_weights(rows):
        built.append((popped[-1] + 1 if popped else 0, rows))
        return checked_weights(rows)

    checked_weights = graphs._checked_weights
    monkeypatch.setattr(graphs, "deque", RecordingQueue)
    monkeypatch.setattr(graphs, "_checked_weights", recording_checked_weights)
    classify_finite_type(B, node_cap=cap)
    # the first rows weighed are the input's; both searches stop before naming a
    # type.  The search mutates the reference's reps in the reference's
    # order but skips known directions and repeats, so it builds a
    # subsequence of the reference's mutated matrices.  That is not always
    # a subsequence of the first copies: a matrix whose first copy came
    # from a skipped direction is built at its next copy in the layer.
    rest = iter(made)
    assert all(x in rest for x in built[1:])
    assert len(set(built)) == len(built)
    assert len(built) - 1 < len(first) < len(made)


@pytest.mark.parametrize(
    "make, keys",
    [
        (lambda: _cell_matrix("A5"), 6184),
        (lambda: _cell_matrix("A3", (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)), 1155),
        (lambda: bipartite_seed("E7").matrix, 1318),
    ],
    ids=["base-affine-A5", "open-cell-A3", "bipartite-E7"],
)
def test_classify_skips_known_directions(monkeypatch, make, keys):
    # keying every child but the way back takes 7,943, 1,454 and 1,795 keys
    calls = []

    def counting_canonical_key(weights, n, leaf=None):
        calls.append(n)
        return canonical_key(weights, n, leaf)

    monkeypatch.setattr(graphs, "canonical_key", counting_canonical_key)
    classify_finite_type(make())
    assert len(calls) <= keys


def _oriented_cycle(n):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        B[i][(i + 1) % n], B[(i + 1) % n][i] = 1, -1
    return ExchangeMatrix.make(B)


@pytest.mark.parametrize("n, count", [(5, 26), (6, 80), (7, 246), (8, 810)])
def test_oriented_cycle_class_has_buan_torkildsen_count(n, count):
    # quivers in the mutation class of D_n, n >= 5, up to isomorphism:
    # sum over d | n of phi(n/d) * C(2d, d), divided by 2n
    phi = [sum(gcd(k, m) == 1 for k in range(1, m + 1)) for m in range(n + 1)]
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert sum(phi[n // d] * comb(2 * d, d) for d in divisors) == 2 * n * count
    out = classify_finite_type(_oriented_cycle(n))
    assert (out.verdict, out.type_name, out.nodes) == ("finite", f"D{n}", count)


@pytest.mark.slow
def test_classify_oriented_ten_cycle():
    out = classify_finite_type(_oriented_cycle(10))
    assert (out.verdict, out.type_name, out.nodes) == ("finite", "D10", 9252)


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
    path = Diagram(3, {(0, 1): 1, (1, 2): 1})
    assert dynkin_name(path) == "A3"
    b2 = Diagram(2, {(0, 1): 2})
    assert dynkin_name(b2) == "B2"
    g2 = Diagram(2, {(0, 1): 3})
    assert dynkin_name(g2) == "G2"
    f4 = Diagram(4, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    assert dynkin_name(f4) == "F4"
    mixed = Diagram(3, {(0, 1): 1})
    assert dynkin_name(mixed) == "A2 x A1"


CATALOG = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", CATALOG)
def test_dynkin_catalog_named_under_orientation_and_relabelling(name):
    rng = random.Random(name)
    A = cartan_data(name).A
    n = len(A)
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if A[i][j]:
                s = rng.choice((1, -1))
                B[i][j], B[j][i] = s * abs(A[i][j]), -s * abs(A[j][i])
    p = list(range(n))
    rng.shuffle(p)
    M = ExchangeMatrix.make([[B[p[i]][p[j]] for j in range(n)] for i in range(n)])
    assert dynkin_name(diagram_of(M)) == name.replace("C", "B")


def _path(weights):
    return {(i, i + 1): w for i, w in enumerate(weights)}


def _star(*arms):
    edges, nxt = {}, 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges[(prev, nxt)] = 1
            prev, nxt = nxt, nxt + 1
    return edges


@pytest.mark.parametrize(
    "edges",
    [
        _star(1, 1, 1, 1),
        _star(2, 2, 2),
        _star(1, 2, 5),
        _path([1, 2, 1, 1]),
        _path([1, 3]),
    ],
    ids=["D4-affine", "E6-affine", "T125", "rank5-middle-double", "rank3-triple"],
)
def test_non_dynkin_trees_have_no_name(edges):
    n = 1 + max(map(max, edges))
    assert dynkin_name(Diagram(n, edges)) is None


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


def test_explore_keeps_initial_seed_under_tiny_caps():
    a3 = initial_seed(ExchangeMatrix.make([[0, 1, 0], [-1, 0, -1], [0, 1, 0]]))
    sl3 = initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS))
    for max_seeds in (0, 1):
        assert explore_exchange_graph(a3, max_seeds) == ExplorationReport(
            1, 3, 3, False, 0
        )
        assert explore_exchange_graph(sl3, max_seeds) == ExplorationReport(
            1, 4, 4, False, 0
        )
    assert explore_exchange_graph(sl3, 2) == ExplorationReport(2, 5, 8, False, 1)


def test_exchange_seeds_discovery_order():
    seed = bipartite_seed("A3")
    found = list(exchange_seeds(seed))
    assert found[0] == (seed, 0)
    depths = [d for _, d in found]
    assert depths == sorted(depths) and depths[-1] == 4
    assert len({frozenset(e.key() for e in s.exprs) for s, _ in found}) == len(found) == 14


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


def test_explore_divides_once_per_relation(monkeypatch):
    calls = []

    def counting_mutate(seed, k):
        calls.append(k)
        return seed_mutate(seed, k)

    monkeypatch.setattr(graphs, "seed_mutate", counting_mutate)
    rep = explore_exchange_graph(bipartite_seed("A3"))
    assert rep == ExplorationReport(14, 9, 42, True, 4)
    # 21 edges of the A3 associahedron, but 15 exchange relations: one per
    # exchangeable pair, a pair of crossing diagonals of the hexagon
    assert len(calls) == 15


def _seed_permutation(a, b):
    """p with a.exprs[p[j]] == b.exprs[j] and a's matrix b's under p, or None."""
    where = {e.key(): i for i, e in enumerate(a.exprs)}
    p = [where.get(e.key(), -1) for e in b.exprs]
    if sorted(p) != list(range(b.n)):
        return None
    rows = p + list(range(b.n, b.m))
    A, B = a.matrix.entries, b.matrix.entries
    for i, r in enumerate(rows):
        if any(A[r][p[j]] != B[i][j] for j in range(b.n)):
            return None
    return p


def _edge_memo_seeds(seed):
    """Reference BFS: divide every edge except the known ways back.

    Each seed skips the direction it came from and the directions that a
    confirmed relabelled revisit proves to lead back.
    """
    skip = set()
    visited = {frozenset(e.key() for e in seed.exprs): (seed, skip)}
    queue = deque([(seed, 0, skip)])
    yield seed, 0
    while queue:
        s, depth, skip = queue.popleft()
        for k in range(s.n):
            if k in skip:
                continue
            s2 = seed_mutate(s, k)
            key = frozenset(e.key() for e in s2.exprs)
            if key in visited:
                stored, stored_skip = visited[key]
                p = _seed_permutation(stored, s2)
                if p is not None:
                    stored_skip.add(p[k])
                continue
            back = {k}
            visited[key] = (s2, back)
            queue.append((s2, depth + 1, back))
            yield s2, depth + 1


def _first(search, count):
    """The first count (cluster, depth, exprs, matrix, history) items, and
    the type of the exception that ended the search early, if any."""
    out = []
    try:
        for s, depth in search:
            if len(out) == count:
                break
            out.append((frozenset(e.key() for e in s.exprs), depth, s.exprs, s.matrix, s.history))
    except ValueError as exc:
        return out, type(exc)
    return out, None


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "E6", "SL3",
                                  "A3 open cell", "Markov", "general A1",
                                  "general A1 x A1", "general Markov"])
def test_exchange_seeds_equals_edge_memo_bfs(name):
    count = {"A3 open cell": 40, "Markov": 150}.get(name, 10_000)
    if name == "SL3":
        seed = initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS))
    elif name == "A3 open cell":
        a3 = cartan_data("A3")
        word = (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)
        seed = seed_from_btilde(build_btilde(indexed_word(a3, word), a3))
    elif name == "Markov":
        seed = initial_seed(ExchangeMatrix.make(MARKOV))
    elif name.startswith("general"):
        seed = general_seed({"A1": [[0]], "A1 x A1": [[0, 0], [0, 0]],
                             "Markov": MARKOV}[name.split(" ", 1)[1]])
    else:
        seed = bipartite_seed(name)
    got = _first(exchange_seeds(seed), count)
    assert got == _first(_edge_memo_seeds(seed), count)
    if name in ("E6", "A3 open cell", "Markov", "general Markov"):
        assert len(got[0]) == {"E6": 833, "general Markov": 4}.get(name, count)


def test_explore_e6_census():
    rep = explore_exchange_graph(bipartite_seed("E6"))
    assert rep == ExplorationReport(833, 42, 4998, True, 11)


def test_e6_census_unpacks_only_quotients_and_interns_expressions(monkeypatch):
    from clusterforge import laurent

    unpacks = []
    unpack = laurent._unpack

    def counting_unpack(*args):
        unpacks.append(1)
        return unpack(*args)

    monkeypatch.setattr(laurent, "_unpack", counting_unpack)
    found = list(exchange_seeds(bipartite_seed("E6")))
    assert len(found) == 833
    # one unpack per exact division (the quotient's key); no product or
    # composed numerator ever leaves the packed form
    assert len(unpacks) == 385
    assert len({id(e) for s, _ in found for e in s.exprs}) == 42


def test_explore_refuses_second_mutation_of_general_seed():
    with pytest.raises(ValueError, match="single mutations"):
        explore_exchange_graph(general_seed(MARKOV))
    # the only seed after the first mutation is the way back, which is known
    assert explore_exchange_graph(general_seed([[0]])) == ExplorationReport(
        2, 2, 2, True, 1
    )


@pytest.mark.slow
def test_explore_e7_census():
    rep = explore_exchange_graph(bipartite_seed("E7"))
    assert rep == ExplorationReport(4160, 70, 29120, True, 14)


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
    moved = diagram_mutate(diagram_mutate(diagram_of(seed.matrix), k1), k2)
    assert canonical_key(diagram_of(M).weights, M.n) == canonical_key(moved.weights, M.n)


def test_realize_diagram_roundtrip_randomized():
    rng = random.Random(53)
    for _ in range(25):
        B = rand_symmetrizable(rng, 4)
        P = ExchangeMatrix.make([list(r) for r in B.principal()])
        d = diagram_of(P)
        M = realize_diagram(d)
        assert diagram_of(M) == d
        from clusterforge.seeds import skew_symmetrizer

        assert skew_symmetrizer(M) is not None


def test_classification_agrees_across_the_whole_class():
    # every representative of the finite class reports the same type
    reps = [ExchangeMatrix.make(SL3_PRINCIPAL)]
    seen = {canonical_key(diagram_of(reps[0]).weights, 4)}
    idx = 0
    while idx < len(reps):
        M = reps[idx]
        idx += 1
        for k in range(4):
            M2 = matrix_mutate(M, k)
            key = canonical_key(diagram_of(M2).weights, 4)
            if key not in seen:
                seen.add(key)
                reps.append(M2)
    assert len(reps) > 3
    results = {
        (classify_finite_type(M).verdict, classify_finite_type(M).type_name)
        for M in reps
    }
    assert results == {("finite", "D4")}
