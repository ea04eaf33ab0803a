import random
import time
from collections import Counter, deque
from itertools import islice, permutations, zip_longest
from math import comb, gcd, prod

import pytest

from clusterforge import graphs
from clusterforge.coxeter import bipartite_longest_word, cartan_data, dynkin_bipartition
from clusterforge.double_bruhat import (
    build_btilde,
    coxeter_cell_word,
    indexed_word,
    seed_from_btilde,
)
from clusterforge.graphs import (
    Classification,
    ExplorationReport,
    acyclic_order,
    canonical_key,
    classify_finite_type,
    dynkin_name,
    exchange_seeds,
    explore_exchange_graph,
    gvector_seeds,
    is_acyclic,
    relabel_matrix,
)
from clusterforge.seeds import (
    ExchangeMatrix,
    SignSkewSymmetryLost,
    diagram_of,
    general_seed,
    initial_seed,
    is_skew_symmetrizable,
    matrix_mutate,
    seed_mutate,
)

from conftest import MARKOV, SL3_LABELS, SL3_PRINCIPAL, SL3_ROWS
from test_seeds import rand_symmetrizable


B219 = ExchangeMatrix.make(SL3_PRINCIPAL)


def test_gamma_cycle_detection():
    edges = diagram_of(B219.entries)
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
    d = diagram_of(MARKOV)
    assert d == {(0, 1): 4, (1, 2): 4, (2, 0): 4}


def test_diagram_mutation_matches_matrix_mutation():
    # FZ II Prop. 8.1: the diagram of mu_k(B) depends only on the diagram
    # of B and on k.  With D the symmetrizer, D B D^-1 = -B^T realizes the
    # same diagram, and mutation commutes with diagonal conjugation.
    rng = random.Random(41)
    conjugates = 0
    for _ in range(30):
        B = rand_symmetrizable(rng, 4)
        P = ExchangeMatrix.make([list(r) for r in B.principal()])
        Q = ExchangeMatrix.make([[-P.entries[j][i] for j in range(4)] for i in range(4)])
        assert diagram_of(Q.entries) == diagram_of(P.entries)
        conjugates += Q != P
        k = rng.randrange(4)
        assert diagram_of(matrix_mutate(P, k).entries) == diagram_of(matrix_mutate(Q, k).entries)
    assert conjugates > 10


def test_single_edge_diagram_mutation_reverses():
    B = ExchangeMatrix.make([[0, 1], [-1, 0]])
    for k in (0, 1):
        assert diagram_of(matrix_mutate(B, k).entries) == {(1, 0): 1}


def test_star_after_one_mutation():
    # mutating the cyclic 4-vertex matrix at direction 2 yields a 3-leaf star
    d = diagram_of(matrix_mutate(B219, 1).entries)
    degrees = sorted(sum(v in a for a in d) for v in range(4))
    assert degrees == [1, 1, 1, 3]
    assert dynkin_name(d, 4) == "D4"


def test_canonical_key_permutation_invariant():
    rng = random.Random(43)
    for _ in range(30):
        B = rand_symmetrizable(rng, 5)
        P = ExchangeMatrix.make([list(r) for r in B.principal()])
        d = diagram_of(P.entries)
        perm = list(range(5))
        rng.shuffle(perm)
        Pp = relabel_matrix(P, tuple(perm))
        assert canonical_key(diagram_of(Pp.entries), 5) == canonical_key(d, 5)


def test_canonical_key_edgeless_fast():
    assert canonical_key({}, 10) == (10, (0,) * 100)


def _relabelled(d, rng):
    """The diagram d = (weights, n) with its vertices shuffled."""
    weights, n = d
    p = list(range(n))
    rng.shuffle(p)
    return {(p[i], p[j]): w for (i, j), w in weights.items()}, n


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
    moved, _ = _relabelled((weights, 10), random.Random(59))
    assert canonical_key(moved, 10) == key
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
    d = _relabelled((weights, n), random.Random(name))
    start = time.perf_counter()
    assert dynkin_name(*d) == name
    assert time.perf_counter() - start < 1.0


def _oracle_key(d):
    """Least adjacency serialization over all n! vertex orders."""
    weights, n = d
    adj = [[0] * n for _ in range(n)]
    for (i, j), w in weights.items():
        adj[i][j] = w
    orders = permutations(range(n))
    return (n, min(tuple(adj[a][b] for a in p for b in p) for p in orders))


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
        d = (weights, n)
        diagrams += [d, _relabelled(d, rng)]
    # Oriented 3- and 4-cycles side by side, and a 7-cycle: refinement
    # leaves one cell of 7, whose vertices lie in different orbits.
    c3c4 = ({(0, 1): 1, (1, 2): 1, (2, 0): 1,
             (3, 4): 1, (4, 5): 1, (5, 6): 1, (6, 3): 1}, 7)
    c7 = ({(i, (i + 1) % 7): 1 for i in range(7)}, 7)
    diagrams += [_relabelled(d, rng) for d in (c3c4, c7) for _ in range(4)]
    keys = [canonical_key(*d) for d in diagrams]
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
    weights, n = d
    adj = [[0] * n for _ in range(n)]
    for (i, j), w in weights.items():
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
        d = ({(p[i], p[j]): w for (i, j), w in weights.items()}, n)
        assert canonical_key(*d) == _dense_key(d), d
    six = ({(2 * i, 2 * i + 1): 1 for i in range(6)}, 12)
    assert canonical_key(*six) == _dense_key(six)
    # oriented C3 + C4 + C4: refinement keeps all 11 vertices in one cell,
    # and a search that ends a subtree too early misses the least leaf
    cycles = {(i, (i + 1) % 3): 1 for i in range(3)} | {
        (3 + 4 * t + i, 3 + 4 * t + (i + 1) % 4): 1 for t in range(2) for i in range(4)
    }
    for _ in range(30):
        d = _relabelled((cycles, 11), rng)
        assert canonical_key(*d) == _dense_key(d), d


def test_canonical_key_eight_disjoint_arrows():
    d = ({(2 * i, 2 * i + 1): 1 for i in range(8)}, 16)
    start = time.perf_counter()
    key = canonical_key(*d)
    assert time.perf_counter() - start < 1.0
    assert canonical_key(*_relabelled(d, random.Random(73))) == key
    seven = {**{(2 * i, 2 * i + 1): 1 for i in range(7)}, (14, 15): 2}
    assert canonical_key(seven, 16) != key


@pytest.mark.parametrize(
    "weights, n",
    [({(0, v): 1 for v in range(1, 49)}, 49), ({}, 32)],
    ids=["star-48-leaves", "32-isolated-vertices"],
)
def test_canonical_key_branches_once_per_twin_class(weights, n):
    # orbit pruning alone takes over a second on the star and about 0.2 s
    # on the isolated vertices; one branch per twin class takes milliseconds
    start = time.perf_counter()
    key = canonical_key(weights, n)
    assert time.perf_counter() - start < 0.25
    assert canonical_key(*_relabelled((weights, n), random.Random(79))) == key


def test_canonical_key_leaf_relabels_to_the_key():
    rng = random.Random(79)
    diagrams = [(_random_diagram(rng, n), n)
                for n in (rng.randint(1, 8) for _ in range(300))]
    diagrams += [
        ({(i, (i + 1) % 10): 1 for i in range(10)}, 10),
        ({(2 * i, 2 * i + 1): 1 for i in range(5)}, 10),
        ({(2 * i, 2 * i + 1): 1 for i in range(8)}, 16),
    ]
    for weights, n in diagrams + [_relabelled(d, rng) for d in diagrams]:
        leaf = []
        key = canonical_key(weights, n, leaf)
        assert sorted(leaf) == list(range(n))
        ser = [0] * (n * n)
        for (i, j), w in weights.items():
            ser[leaf[i] * n + leaf[j]] = w
        assert key == (n, tuple(ser)), weights


def test_canonical_key_repeated_arrow_keeps_the_last_weight():
    # 1-3 arrows are given a last weight of 1-4, which may differ from the
    # weight of the arrow back: the key is the dense search's on the last
    # weights, and the leaf relabels them to it
    rng = random.Random(83)
    for _ in range(500):
        n = rng.randint(2, 7)
        last = _random_diagram(rng, n)
        for i, j in (rng.sample(range(n), 2) for _ in range(rng.randint(1, 3))):
            last[(i, j)] = rng.randint(1, 4)
        leaf = []
        key = canonical_key(last, n, leaf)
        assert key == _dense_key((last, n)), last
        ser = [0] * (n * n)
        for (i, j), w in last.items():
            ser[leaf[i] * n + leaf[j]] = w
        assert key == (n, tuple(ser)), last


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
        keyed.append((weights, n))
        return canonical_key(weights, n, leaf)

    monkeypatch.setattr(graphs, "canonical_key", recording_canonical_key)
    classify_finite_type(make(), node_cap=cap)
    discrete_roots = 0
    for weights, n in keyed:
        leaf = []
        key = canonical_key(weights, n, leaf)
        assert key == _dense_key((weights, n)), weights
        ser = [0] * (n * n)
        adj = [[0] * n for _ in range(n)]
        for (i, j), w in weights.items():
            ser[leaf[i] * n + leaf[j]] = w
            adj[i][j] = w
        assert key == (n, tuple(ser)), weights
        discrete_roots += len(set(_dense_refine(adj, [0] * n))) == n
    # keys returned at the root and keys found by a search both occur
    assert 0 < discrete_roots < len(keyed)


def _first_sign_skew_fault(E):
    """The first (i, j), i <= j in row order, where the square E breaks
    sign-skew-symmetry (FZ I, Section 4): b_ii != 0, or b_ij or b_ji
    nonzero with b_ij b_ji >= 0.  None if E is sign-skew-symmetric."""
    n = len(E)
    return next(((i, j) for i in range(n) for j in range(i, n)
                 if (E[i][j] if i == j else (E[i][j] or E[j][i]) and E[i][j] * E[j][i] >= 0)),
                None)


def test_diagram_of_raises_exactly_off_sign_skew_symmetry():
    # sign-skew-symmetric matrices with 0-2 entries overwritten, the
    # diagonal included: diagram_of raises, naming the first bad entry,
    # exactly where the definition fails, and else weighs every b_ij > 0
    # with |b_ij b_ji|; make refuses the same matrices
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
        fault = _first_sign_skew_fault(E)
        if fault is None:
            want = {(i, j): abs(x * E[j][i]) for i in range(n) for j, x in enumerate(E[i]) if x > 0}
            assert diagram_of(E) == want, E
            assert 0 not in want.values()
            assert ExchangeMatrix.make(E).entries == tuple(map(tuple, E))
        else:
            i, j = fault
            # named from 1
            with pytest.raises(SignSkewSymmetryLost,
                               match=rf"b\[{i + 1}\]\[{j + 1}\] = {E[i][j]}\b"):
                diagram_of(E)
            with pytest.raises(SignSkewSymmetryLost):
                ExchangeMatrix.make(E)
        outcomes[fault is None] += 1
    assert min(outcomes.values()) > 500


def _classify_keying_every_matrix(B, node_cap=100_000, made=None):
    """classify_finite_type's search with every mutated matrix keyed.

    made, if given, receives (depth, entries) for each mutated matrix.
    """
    assert is_skew_symmetrizable(B)
    P = ExchangeMatrix.make([list(r) for r in B.principal()])
    d0 = diagram_of(P.entries)
    top = max(d0.values(), default=0)
    if top >= 4:
        return Classification("infinite", None, top, 0, 1)
    reps = {canonical_key(d0, P.n): P}
    queue = deque([(P, 0, None)])
    while queue:
        M, depth, back = queue.popleft()
        for k in range(M.n):
            if k == back:
                continue
            M2 = matrix_mutate(M, k)
            if made is not None:
                made.append((depth + 1, M2.entries))
            d2 = diagram_of(M2.entries)
            top = max(d2.values(), default=0)
            if top >= 4:
                return Classification("infinite", None, top, depth + 1, len(reps))
            key = canonical_key(d2, M2.n)
            if key not in reps:
                if len(reps) >= node_cap:
                    return Classification("inconclusive", None, None, None, len(reps))
                reps[key] = M2
                queue.append((M2, depth + 1, k))
    for M in reps.values():
        if is_acyclic(M):
            name = dynkin_name(diagram_of(M.entries), M.n)
            if name is not None:
                return Classification("finite", name, None, None, len(reps))
    return Classification("finite", "unrecognized", None, None, len(reps))


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


def _symmetrizable_tree_mutant(rng, n):
    """A random skew-symmetrizable tree on n vertices, with symmetrizer
    entries in 1..3 and arrows of multiplicity one, after up to four random
    mutations."""
    d = [rng.choice((1, 1, 2, 2, 3)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for j in range(1, n):
        i, s = rng.randrange(j), rng.choice((-1, 1))
        g = gcd(d[i], d[j])
        rows[i][j], rows[j][i] = s * d[j] // g, -s * d[i] // g
    B = ExchangeMatrix.make(rows)
    for _ in range(rng.randint(0, 4)):
        B = matrix_mutate(B, rng.randrange(n))
    return B


def test_classify_equals_search_keying_every_matrix_symmetrizable():
    # skew-symmetrizable, not skew-symmetric inputs: seeded mutants of the
    # bipartite B4, C4, F4 and G2, and random ranks 2 to 7 with no weight
    # above 3, some under a node cap small enough to end the search
    # inconclusive.  The trees reach classes of a few hundred diagrams, where
    # a wrong vertex map shows.
    cases = [(ExchangeMatrix.make(_randomly_mutated(name, r)), 100_000)
             for name in ("B4", "C4", "F4", "G2") for r in range(4)]
    rng = random.Random(26)
    while len(cases) < 150:
        B = _symmetrizable_tree_mutant(rng, rng.randint(2, 7))
        E = B.entries
        if (all(E[i][j] == -E[j][i] for i in range(B.n) for j in range(i))
                or max(diagram_of(E).values(), default=0) >= 4):
            continue
        cases.append((B, rng.choice((3, 20, 100_000, 100_000))))
    verdicts = Counter()
    for B, cap in cases:
        out = classify_finite_type(B, node_cap=cap)
        assert out == _classify_keying_every_matrix(B, node_cap=cap), (B.entries, cap)
        verdicts[out.verdict] += 1
    assert min(verdicts[v] for v in ("finite", "infinite", "inconclusive")) >= 20, verdicts


@pytest.mark.parametrize(
    "make, cap",
    [
        (lambda: _cell_matrix("A3", (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)), 100_000),
        (lambda: _cell_matrix("A5"), 1000),
    ],
    ids=["open-cell-A3", "base-affine-A5-node-cap"],
)
def test_classify_builds_each_matrix_once_per_layer(monkeypatch, make, cap):
    """classify builds a subsequence of the reference's mutated matrices,
    each matrix at most once, and fewer than the reference's first copies.

    The queue is recorded to tag each built matrix with its depth, read as
    the last element of the popped queue item.
    """
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

    def recording_diagram_of(rows):
        built.append((popped[-1] + 1 if popped else 0, rows))
        return diagram_of(rows)

    monkeypatch.setattr(graphs, "deque", RecordingQueue)
    monkeypatch.setattr(graphs, "diagram_of", recording_diagram_of)
    classify_finite_type(B, node_cap=cap)
    # the first rows weighed are the input's; both searches stop before naming a
    # type.  The search mutates the reference's reps in the reference's
    # order but skips every direction whose class it knows or infers, so it
    # builds a subsequence of the reference's mutated matrices.  Nothing
    # drops a repeat, yet on these inputs no matrix is built twice.
    # That is not always a subsequence of the first copies: a matrix whose
    # first copy came from a skipped direction is built at a later copy.
    rest = iter(made)
    assert all(x in rest for x in built[1:])
    assert len(set(built)) == len(built)
    assert len(built) - 1 < len(first) < len(made)


@pytest.mark.parametrize(
    "make, keys",
    [
        (lambda: _cell_matrix("A5"), 2837),
        (lambda: _cell_matrix("A3", (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)), 552),
        (lambda: bipartite_seed("E7").matrix, 573),
    ],
    ids=["base-affine-A5", "open-cell-A3", "bipartite-E7"],
)
def test_classify_infers_commuting_squares(monkeypatch, make, keys):
    # keying every child but the way back takes 7,943, 1,454 and 1,795 keys,
    # and skipping only the ways back found by keying 6,184, 1,155 and 1,304
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


def _class_size(family, n):
    """Quivers in the mutation class of A_n or D_n (n >= 5) up to isomorphism."""
    if family == "A":
        # triangulations of an (n+3)-gon up to rotation (Caldero-Chapoton-
        # Schiffler; Torkildsen), counted by Burnside over the rotations
        N = n + 3

        def catalan(k):
            return comb(2 * k, k) // (k + 1)

        total = (catalan(N - 2) + (N % 2 == 0) * (N // 2) * catalan(N // 2 - 1)
                 + (N % 3 == 0) * 2 * (N // 3) * catalan(N // 3 - 1))
        assert total % N == 0
        return total // N
    # Buan-Torkildsen: sum over d | n of phi(n/d) * C(2d, d), divided by 2n
    phi = [sum(gcd(k, m) == 1 for k in range(1, m + 1)) for m in range(n + 1)]
    total = sum(phi[n // d] * comb(2 * d, d) for d in range(1, n + 1) if n % d == 0)
    assert total % (2 * n) == 0
    return total // (2 * n)


@pytest.mark.parametrize("n, count", [(5, 26), (6, 80), (7, 246), (8, 810)])
def test_oriented_cycle_class_has_buan_torkildsen_count(n, count):
    assert _class_size("D", n) == count
    out = classify_finite_type(_oriented_cycle(n))
    assert (out.verdict, out.type_name, out.nodes) == ("finite", f"D{n}", count)


@pytest.mark.parametrize(
    "family, n, count",
    [("A", n, c) for n, c in zip(range(3, 10), (4, 6, 19, 49, 150, 442, 1424))]
    + [("D", n, c) for n, c in zip(range(5, 9), (26, 80, 246, 810))],
)
def test_classify_relabelled_class_has_closed_form_size(family, n, count):
    # a finite-type search exhausts the class, whatever the labelling
    assert _class_size(family, n) == count
    sigma = list(range(n))
    random.Random(f"{family}{n}").shuffle(sigma)
    B = relabel_matrix(bipartite_seed(f"{family}{n}").matrix, sigma)
    out = classify_finite_type(B)
    assert (out.verdict, out.type_name, out.nodes) == ("finite", f"{family}{n}", count)


@pytest.mark.slow
def test_classify_oriented_ten_cycle():
    out = classify_finite_type(_oriented_cycle(10))
    assert (out.verdict, out.type_name, out.nodes) == ("finite", "D10", 9252)


def test_classify_d4():
    out = classify_finite_type(B219)
    assert out.verdict == "finite"
    assert out.type_name == "D4"


# Regression pins with no outside source: the number of diagram classes the
# search keeps on each bipartite matrix.  C4 has the diagram of B4, so it
# is reported as B4.
@pytest.mark.parametrize(
    "name, summary",
    [
        ("E6", ("finite", "E6", 67)),
        ("E8", ("finite", "E8", 1574)),
        ("B3", ("finite", "B3", 5)),
        ("B4", ("finite", "B4", 14)),
        ("C4", ("finite", "B4", 14)),
        ("F4", ("finite", "F4", 8)),
        ("G2", ("finite", "G2", 1)),
    ],
)
def test_classify_bipartite_pins(name, summary):
    out = classify_finite_type(bipartite_seed(name).matrix)
    assert (out.verdict, out.type_name, out.nodes) == summary


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
    assert dynkin_name({(0, 1): 1, (1, 2): 1}, 3) == "A3"
    assert dynkin_name({(0, 1): 2}, 2) == "B2"
    assert dynkin_name({(0, 1): 3}, 2) == "G2"
    assert dynkin_name({(0, 1): 1, (1, 2): 2, (2, 3): 1}, 4) == "F4"
    # n is the only source of the isolated vertex
    assert dynkin_name({(0, 1): 1}, 3) == "A2 x A1"


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
    assert dynkin_name(diagram_of(M.entries), n) == name.replace("C", "B")


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
    assert dynkin_name(edges, n) is None


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


def test_census_and_classification_json():
    a3 = ExchangeMatrix.make([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    assert explore_exchange_graph(initial_seed(a3)).to_json() == {
        "clusters": 14, "variables": 9, "mutations": 42, "exhausted": True, "max_depth": 3,
    }
    assert classify_finite_type(a3).to_json() == {"verdict": "finite", "nodes": 4, "type": "A3"}
    assert classify_finite_type(ExchangeMatrix.make(MARKOV)).to_json() == {
        "verdict": "infinite", "nodes": 1, "witness_weight": 4, "witness_depth": 0,
    }


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


def test_exchange_seeds_divides_once_per_edge_end(monkeypatch):
    # exchange_seeds itself: explore counts this seed by g-vectors, with no division
    calls = []

    def counting_mutate(seed, k):
        calls.append(k)
        return seed_mutate(seed, k)

    monkeypatch.setattr(graphs, "seed_mutate", counting_mutate)
    found = list(exchange_seeds(bipartite_seed("A3")))
    assert len(found) == 14
    assert len({e.key() for s, _ in found for e in s.exprs}) == 9
    # the plain BFS mutates every seed in every direction: 14 clusters x 3,
    # both ends of each of the 21 edges of the A3 associahedron
    assert len(calls) == 42


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
    except (ValueError, SignSkewSymmetryLost) as exc:
        return out, type(exc)
    return out, None


GENERAL = {"A1": [[0]], "A1 x A1": [[0, 0], [0, 0]], "Markov": MARKOV}

# sign-skew-symmetric but not skew-symmetrizable: the first loses
# sign-skew-symmetry at its first mutation, the second keeps it for 40 seeds
UNSYMMETRIZABLE = {"lossy": ((0, 1, -1), (-2, 0, 1), (1, -1, 0)),
                   "unsymmetrizable": ((0, -1, -1), (1, 0, -1), (2, 1, 0))}


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "E6", "SL3",
                                  "A3 open cell", "Markov", "general A1",
                                  "general A1 x A1", "general Markov",
                                  "lossy", "unsymmetrizable"])
def test_exchange_seeds_equals_edge_memo_bfs(name):
    count = {"A3 open cell": 40, "Markov": 150, "unsymmetrizable": 40}.get(name, 10_000)
    if name in UNSYMMETRIZABLE:
        seed = initial_seed(ExchangeMatrix.make(UNSYMMETRIZABLE[name]))
        assert not is_skew_symmetrizable(seed.matrix)
    elif name == "SL3":
        seed = initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS))
    elif name == "A3 open cell":
        a3 = cartan_data("A3")
        word = (-1, -3, -2, -1, -3, -2, 1, 3, 2, 1, 3, 2)
        seed = seed_from_btilde(build_btilde(indexed_word(a3, word), a3))
    elif name == "Markov":
        seed = initial_seed(ExchangeMatrix.make(MARKOV))
    elif name.startswith("general"):
        # the Laurent census refuses a formal-coefficient seed before its
        # first cluster: geometric mutation would reinterpret the symbols
        seed = general_seed(GENERAL[name.split(" ", 1)[1]])
        with pytest.raises(ValueError, match="single mutations"):
            next(exchange_seeds(seed))
        return
    else:
        seed = bipartite_seed(name)
    got = _first(exchange_seeds(seed), count)
    assert got == _first(_edge_memo_seeds(seed), count)
    if name in ("E6", "A3 open cell", "Markov", "unsymmetrizable"):
        assert len(got[0]) == {"E6": 833}.get(name, count)
    if name == "lossy":
        assert (len(got[0]), got[1]) == (1, SignSkewSymmetryLost)


def test_exchange_seeds_mutates_the_matrix_on_every_edge(monkeypatch):
    # input that is not skew-symmetrizable keeps sign-skew-symmetry only as
    # far as the check of matrix_mutate confirms it, and every edge runs it
    from clusterforge import seeds

    calls = []

    def counting_matrix_mutate(B, k):
        calls.append(k)
        return matrix_mutate(B, k)

    monkeypatch.setattr(seeds, "matrix_mutate", counting_matrix_mutate)
    seed = initial_seed(ExchangeMatrix.make(UNSYMMETRIZABLE["unsymmetrizable"]))
    found = [s for s, _ in islice(exchange_seeds(seed), 40)]
    # seeds are expanded in the order they are yielded, and the search
    # stops at the edge that reached the last seed read
    last = found[-1]
    parent = [s.history for s in found].index(last.history[:-1])
    assert len(calls) == parent * seed.n + last.history[-1] + 1


@pytest.mark.parametrize("name", ["A3", "B3", "B4", "C3", "C4", "D4", "F4", "G2", "E6",
                                  pytest.param("E7", marks=pytest.mark.slow)])
def test_explore_denominators_are_the_positive_roots(name):
    # FZ II Thm 1.9: on a bipartite seed with b_ij = +-a_ij, each non-initial
    # cluster variable is N(x) / x^d with d a positive root, each root once;
    # by positivity every coefficient is positive
    seed = bipartite_seed(name)
    initial = {e.key() for e in seed.exprs}
    found = {e.key(): e for s, _ in exchange_seeds(seed) for e in s.exprs}
    denominators = sorted(tuple(-x for x in e.min_exponents())
                          for key, e in found.items() if key not in initial)
    assert denominators == sorted(cartan_data(name).positive_roots)
    assert all(c > 0 for e in found.values() for c in e.terms.values())


CATALAN_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "C4",
                 "D4", "D5", "D6", "F4", "G2", "E6"]


@pytest.mark.parametrize("name", CATALAN_TYPES + ["E7", "E8"])
def test_explore_counts_match_the_generalized_catalan_numbers(name):
    # FZ, Y-systems and generalized associahedra: a finite type of rank n
    # with Coxeter number h and exponents e_i has prod (h + e_i + 1)/(e_i + 1)
    # clusters and n(h + 2)/2 cluster variables.  h - 1 is the largest root
    # height, and the exponents are the partition dual to the multiplicities
    # of the heights (Kostant).
    cartan = cartan_data(name)
    heights = [sum(beta) for beta in cartan.positive_roots]
    h = max(heights) + 1
    mult = [heights.count(k) for k in range(h + 1)]
    exponents = [k for k in range(1, h) for _ in range(mult[k] - mult[k + 1])]
    assert len(exponents) == cartan.rank
    top, bottom = prod(h + e + 1 for e in exponents), prod(e + 1 for e in exponents)
    assert top % bottom == 0
    clusters = top // bottom
    rep = explore_exchange_graph(bipartite_seed(name), max_seeds=30_000)
    assert rep.exhausted
    assert (rep.clusters, rep.variables) == (clusters, cartan.rank * (h + 2) // 2)
    if name == "E8":
        assert (rep.clusters, rep.variables, rep.max_depth) == (25_080, 128, 19)


def test_explore_e6_census(monkeypatch):
    calls = []

    def counting_mutate(seed, k):
        calls.append(k)
        return seed_mutate(seed, k)

    monkeypatch.setattr(graphs, "seed_mutate", counting_mutate)
    rep = explore_exchange_graph(bipartite_seed("E6"))
    assert rep == ExplorationReport(833, 42, 4998, True, 11)
    assert calls == []  # counted by g-vectors


def test_e6_laurent_census_unpacks_each_quotient_once(monkeypatch):
    from clusterforge import laurent

    unpacks, divisions = [], []
    unpack, mutate = laurent._unpack, graphs.seed_mutate

    def counting_unpack(*args):
        unpacks.append(1)
        return unpack(*args)

    def counting_mutate(*args):
        divisions.append(1)
        return mutate(*args)

    monkeypatch.setattr(laurent, "_unpack", counting_unpack)
    monkeypatch.setattr(graphs, "seed_mutate", counting_mutate)
    found = list(exchange_seeds(bipartite_seed("E6")))
    assert len(found) == 833
    # one division per edge end, as many as the report's mutations, and each
    # quotient is unpacked once, when its key() is hashed; no product or
    # composed numerator ever leaves the packed form
    assert len(divisions) == len(found) * 6 == 4998
    assert len(unpacks) == 4998


@pytest.mark.parametrize("name", [*GENERAL, "A3"])
def test_explore_counts_a_general_seed_as_its_principal_part(name):
    # the g-vector census ignores the 2n formal-coefficient rows, and the
    # exchange graph does not depend on the coefficients (FZ IV, Conj. 4.3;
    # Cao-Li for skew-symmetrizable B); Markov is capped
    P = bipartite_seed(name).matrix.entries if name == "A3" else GENERAL[name]
    cap = 500 if name == "Markov" else 10_000
    rep = explore_exchange_graph(general_seed(P), max_seeds=cap)
    assert rep == explore_exchange_graph(initial_seed(ExchangeMatrix.make(P)), max_seeds=cap)
    assert rep.exhausted == (name != "Markov")


def test_explore_e7_census():
    rep = explore_exchange_graph(bipartite_seed("E7"))
    assert rep == ExplorationReport(4160, 70, 29120, True, 14)


def _lockstep(seed, count, names=None):
    """Zip the first count clusters of exchange_seeds and gvector_seeds.

    Asserts that both searches end together, that each pair of clusters
    has one depth, and that "position k holds the expression key e and the
    g-vector g" is a bijection between keys and g-vectors.  Returns the
    number of clusters compared; a names dict is filled with key -> g.
    """
    relation = set()
    pairs = list(islice(zip_longest(exchange_seeds(seed), gvector_seeds(seed)), count))
    for laurent, integer in pairs:
        assert laurent is not None and integer is not None
        (s, depth), (gs, g_depth) = laurent, integer
        assert depth == g_depth
        relation |= {(e.key(), g) for e, g in zip(s.exprs, gs, strict=True)}
    assert len(relation) == len({e for e, _ in relation}) == len({g for _, g in relation})
    if names is not None:
        names.update(relation)
    return len(pairs)


def principal_coefficient_seed(type_name):
    """The bipartite seed of a Dynkin type over n frozen rows holding the identity."""
    B = bipartite_seed(type_name).matrix
    identity = tuple(tuple(int(i == j) for j in range(B.n)) for i in range(B.n))
    return initial_seed(ExchangeMatrix.make(B.entries + identity))


def cell_seed(type_name, cell):
    """The seed of the open, Coxeter or base-affine double Bruhat cell of a type.

    The open cell is (w0, w0) on the bipartite word, the Coxeter cell
    (c, c) and the base-affine cell (e, w0).
    """
    cartan = cartan_data(type_name)
    w0 = bipartite_longest_word(cartan)
    word = {"open": tuple(-x for x in w0) + w0, "Coxeter": coxeter_cell_word(cartan),
            "base-affine": w0}[cell]
    return seed_from_btilde(build_btilde(indexed_word(cartan, word), cartan))


def _randomly_mutated(name, rng_seed):
    """The bipartite matrix of type name after 4 to 8 seeded random mutations."""
    rng = random.Random(rng_seed)
    B = bipartite_seed(name).matrix
    for _ in range(rng.randint(4, 8)):
        B = matrix_mutate(B, rng.randrange(B.n))
    return B.entries


INFINITE = {"Kronecker": ((0, 2), (-2, 0)), "A1(1,4)": ((0, 1), (-4, 0)),
            "Markov": MARKOV, "acyclic triangle": ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))}


@pytest.mark.parametrize("name", CATALAN_TYPES + [
    # E7's Laurent side takes seconds, and E8's is out of reach
    pytest.param("E7", marks=pytest.mark.slow),
    *(f"{t} mutated {r}" for t in ("B3", "C4", "F4", "G2") for r in range(3)),
    *INFINITE,
    *(f"{t} {cell} cell" for t in ("A2", "A3", "A4", "B2", "C3", "G2")
      for cell in ("open", "Coxeter", "base-affine")),
    *(f"principal {t}" for t in ("A3", "B3", "C3", "G2", "D4", "F4", "E6")),
    pytest.param("principal E7", marks=pytest.mark.slow),
])
def test_gvector_census_matches_the_laurent_census(name):
    # under any geometric coefficients a cluster variable is determined by
    # its g-vector for the principal part B (FZ IV, Thm 3.7 and Cor 6.3),
    # c-vectors are sign-coherent (Gross-Hacking-Keel-Kontsevich, arXiv
    # 1411.1394), and the exchange graph does not depend on the frozen rows
    # (FZ IV, Conj. 4.3; Cao-Li for skew-symmetrizable B)
    if name in INFINITE:
        assert _lockstep(initial_seed(ExchangeMatrix.make(INFINITE[name])), 60) == 60
    elif " mutated " in name:
        t, _, r = name.split(" ")
        rows = _randomly_mutated(t, int(r))
        count = _lockstep(initial_seed(ExchangeMatrix.make(rows)), 100_000)
        assert count == explore_exchange_graph(bipartite_seed(t)).clusters
    elif name.endswith(" cell"):
        t, cell, _ = name.split(" ")
        _lockstep(cell_seed(t, cell), 400)
    elif name.startswith("principal "):
        t, names = name.split(" ")[1], {}
        seed = principal_coefficient_seed(t)
        count = _lockstep(seed, 100_000, names)
        assert count == explore_exchange_graph(bipartite_seed(t)).clusters
        _assert_principal_grading(seed, names)
    else:
        _lockstep(bipartite_seed(name), 100_000)


def _assert_principal_grading(seed, names):
    """The grading oracle of principal coefficients (FZ IV, Section 6).

    With y_j the frozen variable of row n + j, a term x^a y^e has degree
    g_i = a_i - sum_j b_ij e_j.  Every term of a census expression must
    have the one degree that is the g-vector gvector_seeds holds at its
    position; names maps each distinct expression key to that g-vector,
    so each expression is graded once.
    """
    n, B = seed.n, seed.matrix.principal()
    for key, g in names.items():
        degrees = {tuple(exp[i] - sum(B[i][j] * exp[n + j] for j in range(n))
                         for i in range(n)) for exp, _ in key}
        assert degrees == {g}


@pytest.mark.parametrize("name", ["SL3", "general A1", "unsymmetrizable",
                                  "general unsymmetrizable"])
def test_census_is_chosen_by_skew_symmetrizability(monkeypatch, name):
    # frozen rows and formal coefficients take the g-vector census, with no
    # division; only a matrix that is not skew-symmetrizable is divided
    calls = []

    def counting_mutate(seed, k):
        calls.append(k)
        return seed_mutate(seed, k)

    monkeypatch.setattr(graphs, "seed_mutate", counting_mutate)
    if name == "SL3":
        seed = initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS))
        rep = ExplorationReport(50, 16, 200, True, 5)
    elif name == "general A1":
        seed, rep = general_seed([[0]]), ExplorationReport(2, 2, 2, True, 1)
    elif name == "unsymmetrizable":
        seed = initial_seed(ExchangeMatrix.make(UNSYMMETRIZABLE[name]))
        rep = ExplorationReport(40, 32, 120, False, 6)
    else:  # the Laurent census refuses formal coefficients before any division
        with pytest.raises(ValueError, match="single mutations"):
            explore_exchange_graph(general_seed(UNSYMMETRIZABLE["unsymmetrizable"]))
        assert calls == []
        return
    assert explore_exchange_graph(seed, max_seeds=rep.clusters) == rep
    assert bool(calls) == (name == "unsymmetrizable")


@pytest.mark.parametrize("make", [lambda: initial_seed(ExchangeMatrix.make([])),
                                  lambda: general_seed([])], ids=["plain", "general"])
def test_rank_zero_census_is_one_cluster(make):
    # the empty matrix is skew-symmetrizable, so the g-vector census reports
    # the one empty cluster; the Laurent census refuses formal coefficients
    seed = make()
    rep = ExplorationReport(1, 0, 0, True, 0)
    assert explore_exchange_graph(seed) == rep
    assert list(gvector_seeds(seed)) == [((), 0)]
    if seed.general:
        with pytest.raises(ValueError, match="single mutations"):
            next(exchange_seeds(seed))
    else:
        assert [(s.exprs, depth) for s, depth in exchange_seeds(seed)] == [((), 0)]


def reference_gvector_seeds(seed, hits=None):
    """gvector_seeds as it was before the one-end skip: every edge from both ends.

    A test-only oracle.  When hits is a list, each edge A ->k B that
    reaches a stored cluster B appends (c_k(A), the c-vector of B's stored
    seed at the variable the edge brings in).
    """
    n = seed.n
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    ids = {g: i for i, g in enumerate(identity)}
    cids = tuple(range(n))
    start = ExchangeMatrix.make(seed.matrix.entries + identity)
    stored = {frozenset(cids): (start, cids)}
    queue = deque([(start, identity, cids, 0)])
    yield identity, 0
    while queue:
        M, cluster, cids, depth = queue.popleft()
        for k, column in enumerate(zip(*M.entries)):
            c = column[n:]
            positive = max(c) > 0
            if positive and min(c) < 0:
                raise graphs.NotSignCoherent(f"c-vector {c} at direction {k}")
            g = [-x for x in cluster[k]]
            for b, gi in zip([-b for b in column] if positive else column, cluster):
                if b > 0:
                    g = [x + b * y for x, y in zip(g, gi)]
            g = tuple(g)
            gid = ids.setdefault(g, len(ids))
            reached_ids = cids[:k] + (gid,) + cids[k + 1:]
            key = frozenset(reached_ids)
            if key in stored:
                if hits is not None:
                    N, stored_ids = stored[key]
                    hits.append((c, tuple(zip(*N.entries))[stored_ids.index(gid)][n:]))
                continue
            N = matrix_mutate(M, k)
            stored[key] = (N, reached_ids)
            reached = cluster[:k] + (g,) + cluster[k + 1:]
            queue.append((N, reached, reached_ids, depth + 1))
            yield reached, depth + 1


@pytest.mark.parametrize("name", CATALAN_TYPES + [
    "E7", "E6 relabelled",
    *(f"{t} mutated {r}" for t in ("B3", "C4", "F4", "G2", "E6") for r in range(5)),
    *INFINITE,
])
def test_gvector_seeds_matches_the_both_ends_search(name):
    # each edge is computed from the first end the search reaches; a
    # cluster may store its variables in another order than the edge that
    # reaches it again, which a skip by direction instead of by variable
    # id gets wrong
    cap = 1_500 if name in INFINITE else None
    if name in INFINITE:
        seed = initial_seed(ExchangeMatrix.make(INFINITE[name]))
    elif name == "E6 relabelled":
        sigma = list(range(6))
        random.Random(28).shuffle(sigma)
        seed = initial_seed(relabel_matrix(bipartite_seed("E6").matrix, sigma))
    elif " mutated " in name:
        t, _, r = name.split(" ")
        seed = initial_seed(ExchangeMatrix.make(_randomly_mutated(t, int(r))))
    else:
        seed = bipartite_seed(name)
    # zip_longest pads the search that ends first with None
    for new, old in zip_longest(islice(gvector_seeds(seed), cap),
                                islice(reference_gvector_seeds(seed), cap)):
        assert new == old


@pytest.mark.parametrize("name, count", [
    ("A4", 127), ("B3", 41), ("C4", 211), ("D5", 729), ("E6", 4_166), ("F4", 316), ("G2", 9)])
def test_an_edge_reached_again_arrives_with_the_negated_c_vector(name, count):
    # a seed's c-vectors are determined by its g-vectors and mutation at k
    # negates c_k (FZ IV, math/0602259; Nakanishi-Zelevinsky, arXiv
    # 1101.3736), so the far end of an edge needs no sign-coherence check
    # of its own: it stores -c_k(A) at the variable the edge brings in
    seed, hits = bipartite_seed(name), []
    clusters = sum(1 for _ in reference_gvector_seeds(seed, hits))
    assert len(hits) == count == clusters * seed.n - (clusters - 1)
    assert all(stored == tuple(-x for x in c) for c, stored in hits)


def _narayana(name):
    """h-vector of the cluster complex of a finite type: the generalized
    Narayana numbers (Fomin-Reading, *Generalized cluster complexes and
    Coxeter combinatorics*, math/0505085)."""
    family, n = name[0], int(name[1:])
    if family == "A":
        return [comb(n + 1, k) * comb(n + 1, k + 1) // (n + 1) for k in range(n + 1)]
    if family in "BC":
        return [comb(n, k) ** 2 for k in range(n + 1)]
    if family == "D":
        return [comb(n, k) ** 2 - n * comb(n - 1, k) * comb(n - 1, k - 1) // (n - 1)
                if k else 1 for k in range(n + 1)]
    return {
        "G2": [1, 6, 1],
        "F4": [1, 24, 55, 24, 1],
        "E6": [1, 36, 204, 351, 204, 36, 1],
        "E7": [1, 63, 546, 1470, 1470, 546, 63, 1],
        "E8": [1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1],
    }[name]


@pytest.mark.parametrize("name", [
    "A3", "B3", "C3", "D4", "G2", "F4", "E6",
    pytest.param("E7", marks=pytest.mark.slow), pytest.param("E8", marks=pytest.mark.slow),
])
def test_gvector_census_is_the_cluster_complex(name):
    # a face-level oracle: the faces are all subsets of the census clusters,
    # each variable named by its g-vector, held as bitmasks over variable ids
    seed = bipartite_seed(name)  # b_ij = +-a_ij
    n, ids, clusters = seed.n, {}, []
    for gs, _ in gvector_seeds(seed):
        mask = 0
        for g in gs:
            mask |= 1 << ids.setdefault(g, len(ids))
        clusters.append(mask)
    assert len(set(clusters)) == len(clusters)
    faces = {0}
    for mask in clusters:
        sub = mask
        while sub:  # every nonempty submask, in decreasing order
            faces.add(sub)
            sub = (sub - 1) & mask
    f = Counter(bin(face).count("1") for face in faces)  # f[i] faces of size i
    h = [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1))
         for k in range(n + 1)]
    assert h == _narayana(name)
    # a pseudomanifold: every ridge lies in exactly two clusters
    ridges = Counter(mask & ~(1 << b) for mask in clusters for b in range(len(ids))
                     if mask >> b & 1)
    assert set(ridges.values()) == {2}
    assert len(ridges) == n * len(clusters) // 2


def test_explore_loses_sign_skew_symmetry_on_the_first_edge():
    seed = initial_seed(ExchangeMatrix.make(UNSYMMETRIZABLE["lossy"]))
    with pytest.raises(SignSkewSymmetryLost, match="direction 1: entries b"):
        explore_exchange_graph(seed)


def test_census_independent_of_start_seed():
    from clusterforge.seeds import ExchangeMatrix, initial_seed, seed_mutate
    from conftest import SL3_ROWS, SL3_LABELS

    seed = initial_seed(ExchangeMatrix.make(SL3_ROWS, SL3_LABELS))
    base = explore_exchange_graph(seed)
    for k in (1, 3):
        rep = explore_exchange_graph(seed_mutate(seed, k))
        assert (rep.clusters, rep.variables) == (base.clusters, base.variables)


def test_base_affine_a4_matrix_mutates_to_d6_tree():
    from clusterforge.coxeter import bipartite_longest_word, cartan_data
    from clusterforge.double_bruhat import build_btilde, indexed_word, seed_from_btilde

    A4 = cartan_data("A4")
    iw = indexed_word(A4, bipartite_longest_word(A4))
    seed = seed_from_btilde(build_btilde(iw, A4))
    assert dynkin_name(diagram_of(seed.matrix.entries), seed.n) is None  # cyclic start
    # mutating at the columns of the first two word positions reaches an
    # acyclic orientation of the D6 tree
    cols = list(seed.matrix.labels[: seed.n])
    k1, k2 = cols.index("x1"), cols.index("x2")
    M = matrix_mutate(matrix_mutate(seed.matrix, k1), k2)
    assert is_acyclic(M)
    assert dynkin_name(diagram_of(M.entries), M.n) == "D6"


def test_classification_agrees_across_the_whole_class():
    # every representative of the finite class reports the same type
    reps = [ExchangeMatrix.make(SL3_PRINCIPAL)]
    seen = {canonical_key(diagram_of(reps[0].entries), 4)}
    idx = 0
    while idx < len(reps):
        M = reps[idx]
        idx += 1
        for k in range(4):
            M2 = matrix_mutate(M, k)
            key = canonical_key(diagram_of(M2.entries), 4)
            if key not in seen:
                seen.add(key)
                reps.append(M2)
    assert len(reps) > 3
    results = {
        (classify_finite_type(M).verdict, classify_finite_type(M).type_name)
        for M in reps
    }
    assert results == {("finite", "D4")}
