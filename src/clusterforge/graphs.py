"""Weighted diagrams, mutation classes and the exchange graph.

The directed graph Gamma(B) of an exchange matrix has an edge (i, j)
whenever b_ij > 0; its diagram assigns that edge the weight |b_ij * b_ji|.
A diagram is the plain dict {(i, j): weight} over the edges of Gamma(B),
passed with the vertex count n; seeds.diagram_of builds it, checking
sign-skew-symmetry, and canonical_key reads it.  The
diagram of mu_k(B) depends only on the diagram of B and on k (Fomin-
Zelevinsky, *Cluster algebras II*, Prop. 8.1): two skew-symmetrizable matrices with one
diagram differ by a positive diagonal conjugation T B T^-1, and mutation
commutes with it.  So diagrams are mutated as matrices.  Finite
type is decided by breadth-first search over the diagram mutation class
with canonical-form deduplication: a class that closes with all weights
at most 3 is 2-finite (hence of finite cluster type, named from an
acyclic representative), a weight >= 4 anywhere certifies infinite type
and is reported as its weight and depth, and hitting the node cap is
reported honestly as inconclusive.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice
from operator import add, neg
from typing import Iterator, NamedTuple, Sequence

from .coxeter import cartan_entries
from .seeds import (
    ExchangeMatrix,
    Seed,
    diagram_of,
    is_skew_symmetrizable,
    mutate_rows,
    seed_mutate,
)


def is_acyclic(B: ExchangeMatrix) -> bool:
    return acyclic_order(B) is not None


def acyclic_order(B: ExchangeMatrix) -> tuple[int, ...] | None:
    """Permutation s with B[s[i]][s[j]] >= 0 for i > j, or None if cyclic.

    Equivalently: a reversed topological order of Gamma(B), so that
    every directed edge points from a later position to an earlier one.
    """
    n = B.n
    out = {i: set() for i in range(n)}
    indeg = [0] * n
    for i, j in diagram_of(B.entries):
        out[i].add(j)
        indeg[j] += 1
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    topo = []
    while ready:
        v = ready.pop(0)
        topo.append(v)
        for w in sorted(out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(topo) != n:
        return None
    return tuple(reversed(topo))


def relabel_matrix(B: ExchangeMatrix, sigma: Sequence[int]) -> ExchangeMatrix:
    """Principal-part relabeling B'[i][j] = B[s[i]][s[j]] (frozen rows follow)."""
    n = B.n
    perm = list(sigma) + list(range(n, B.m))
    rows = tuple(
        tuple(B.entries[perm[i]][sigma[j]] for j in range(n)) for i in range(B.m)
    )
    labels = tuple(B.labels[perm[i]] for i in range(B.m))
    return ExchangeMatrix(rows, n, labels)


# -- canonical forms ----------------------------------------------------------


def _refine_colors(nbrs: list[dict], colors: list[int]) -> list[int]:
    """Coarsest equitable refinement of colors, numbered by signature rank.

    nbrs[v] maps each neighbour u of v to a code (out weight * top + in
    weight) * span, where top exceeds every weight and span every colour,
    so that code + colour orders like the triple (out weight, in weight,
    colour).  A vertex's signature is the flat tuple of its colour and the
    sorted code + colour of its neighbours.  Each round recolours every
    vertex by the rank of its signature among the distinct ones, which
    refines the colouring and keeps the order of the colours, until the
    number of cells stops growing.  A round ranks by one sort of the
    vertices by signature and one pass that counts where the signature
    changes.  A uniform colouring adds one colour to every code, so its
    round sorts the codes alone.
    """
    n = len(nbrs)
    cells = len(set(colors))
    while True:
        get = colors.__getitem__
        sigs = [
            (colors[v], *sorted(map(add, nv.values(), map(get, nv))))
            for v, nv in enumerate(nbrs)
        ] if cells > 1 else [(0, *sorted(nv.values())) for nv in nbrs]
        colors = [0] * n
        rank, last = -1, None
        for v in sorted(range(n), key=sigs.__getitem__):
            if sigs[v] != last:
                rank, last = rank + 1, sigs[v]
            colors[v] = rank
        if rank + 1 in (cells, n):
            return colors
        cells = rank + 1


def _twin_classes(weights: dict, colors: list[int]) -> list[int]:
    """The least twin of each vertex.

    Twins are vertices whose transposition is a weight-preserving
    automorphism; being twins is an equivalence relation.  Such an
    automorphism keeps the colours of an equitable refinement, so only
    pairs inside one cell of colors are tested, and a vertex only against
    the least vertex of each class found so far in its cell.
    """
    n = len(colors)
    rows = [[0] * n for _ in range(n)]
    for (i, j), w in weights.items():
        rows[i][j] = w
    cols = list(zip(*rows))

    def twins(u: int, v: int) -> bool:  # u < v; rows and columns agree off u, v
        ru, rv, cu, cv = rows[u], rows[v], cols[u], cols[v]
        return (ru[v] == rv[u]
                and ru[:u] == rv[:u] and ru[u + 1:v] == rv[u + 1:v] and ru[v + 1:] == rv[v + 1:]
                and cu[:u] == cv[:u] and cu[u + 1:v] == cv[u + 1:v] and cu[v + 1:] == cv[v + 1:])

    twin = list(range(n))
    least: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        reps = least.setdefault(c, [])
        for u in reps:
            if twins(u, v):
                twin[v] = u
                break
        else:
            reps.append(v)
    return twin


def _serialize(weights: dict, colors: list[int], n: int) -> list[int]:
    """The weighted adjacency matrix, row by row, vertices in colour order."""
    ser = [0] * (n * n)
    for (i, j), w in weights.items():
        ser[colors[i] * n + colors[j]] = w
    return ser


def canonical_key(weights: dict, n: int, leaf: list | None = None) -> tuple:
    """Complete isomorphism invariant: (n, least serialization of a leaf).

    weights maps each arrow (i, j) of a diagram on [0, n) to its positive
    weight.  An individualization-refinement search (McKay-Piperno,
    *Practical graph isomorphism, II*, arXiv 1301.1493).  Each node refines
    its colouring to an equitable one, then individualizes in turn each
    vertex of the first cell with more than one vertex: the vertex gets
    colour 2c, the rest of its cell 2c + 1.  A discrete leaf serializes the
    weighted adjacency matrix with the vertices in colour order.
    Refinement commutes with relabelling, so the set of leaf serializations
    is an invariant, and each one is the diagram relabelled, so equal keys
    mean isomorphic diagrams.

    Two rules skip subtrees that an automorphism maps onto explored ones.
    A cell branches on one vertex per twin class, as swapping two twins is
    an automorphism that fixes the colouring.  A leaf equal to the least so
    far reveals an automorphism that maps its individualization sequence
    onto the least leaf's (a leaf's colouring determines its sequence), and
    so the explored subtree where the two part onto the current one: the
    search returns to that node.  This keeps disjoint unions polynomial:
    sixteen disjoint arrows or ten oriented 3-cycles take tens of ms.
    A discrete root colouring is the only leaf: its key needs no search.
    A list passed as leaf receives the least leaf's colouring: relabelling
    the weights by v -> leaf[v] reproduces the key.
    """
    top = max(weights.values(), default=0) + 1
    span = 2 * n + 2
    nbrs: list[dict] = [{} for _ in range(n)]
    for (i, j), w in weights.items():
        nbrs[i][j] = nbrs[i].get(j, 0) + w * top * span
        nbrs[j][i] = nbrs[j].get(i, 0) + w * span
    colors = _refine_colors(nbrs, [0] * n)
    if max(colors, default=-1) == n - 1:  # colours are ranks: discrete
        if leaf is not None:
            leaf[:] = colors
        return (n, tuple(_serialize(weights, colors, n)))
    best: list[int] | None = None
    best_colors: list[int] = []
    best_path: tuple = ()
    twin = _twin_classes(weights, colors)  # the root is not discrete

    def search(colors: list[int], path: tuple) -> int:
        """Explore below path; return the depth of the node to resume at."""
        nonlocal best, best_colors, best_path
        depth = len(path)
        if max(colors, default=-1) == n - 1:  # colours are ranks: discrete
            ser = _serialize(weights, colors, n)
            if best is None or ser < best:
                best, best_colors, best_path = ser, colors, path
            elif ser == best:
                return next(t for t, (a, b) in enumerate(zip(path, best_path)) if a != b)
            return depth - 1
        c = min(c for c, size in Counter(colors).items() if size > 1)
        branched: set = set()
        for v in range(n):
            if colors[v] != c or twin[v] in branched:
                continue
            branched.add(twin[v])
            split = [2 * x + (x == c and u != v) for u, x in enumerate(colors)]
            resume = search(_refine_colors(nbrs, split), path + (v,))
            if resume < depth:
                return resume
        return depth - 1

    search(colors, ())
    assert best is not None
    if leaf is not None:
        leaf[:] = best_colors
    return (n, tuple(best))


# -- finite type classification -----------------------------------------------


class Classification(NamedTuple):
    verdict: str  # "finite" | "infinite" | "inconclusive"
    type_name: str | None
    witness_weight: int | None
    witness_depth: int | None
    nodes: int

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "nodes": self.nodes}
        if self.type_name:
            out["type"] = self.type_name
        if self.witness_weight is not None:
            out["witness_weight"] = self.witness_weight
            out["witness_depth"] = self.witness_depth
        return out


def _component_name(verts: list[int], adj: list[dict]) -> str | None:
    """The first diagram of coxeter's catalog with this weighted graph, or None.

    verts is a connected component of the neighbours adj.  Graphs compare
    by the canonical_key of their symmetric arrows, and the catalog bond
    i - j weighs |a_ij * a_ji|.  The families are tried in the order
    ABDEFG, skipping a rank that cartan_entries rejects, so C_n is named
    B_n and D3 is named A3.
    """
    n = len(verts)
    index = {v: t for t, v in enumerate(verts)}
    own = None
    for family in "ABDEFG":
        try:
            A = cartan_entries(family, n)
        except ValueError:
            continue
        if own is None:
            own = canonical_key({(index[v], index[u]): w
                                 for v in verts for u, w in adj[v].items()}, n)
        bonds = {(i, j): abs(A[i][j] * A[j][i])
                 for i in range(n) for j in range(n) if i != j and A[i][j]}
        if canonical_key(bonds, n) == own:
            return f"{family}{n}"
    return None


def dynkin_name(weights: dict, n: int) -> str | None:
    """Name each connected component of the diagram weights on [0, n)
    from the Dynkin catalog, or None.

    B_n and C_n share one weighted diagram and are reported as B_n.
    Products of components are named like "A1^3" or "D4 x A1".
    """
    adj: list[dict] = [{} for _ in range(n)]
    for (i, j), w in weights.items():
        adj[i][j] = adj[j][i] = w
    names = []
    left = set(range(n))
    while left:
        comp, stack = set(), [min(left)]
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack += adj[v]
        left -= comp
        name = _component_name(sorted(comp), adj)
        if name is None:
            return None
        names.append(name)
    counts = sorted(Counter(names).items(), key=lambda t: (-int(t[0][1:]), t[0]))
    return " x ".join(f"{nm}^{c}" if c > 1 else nm for nm, c in counts)


def classify_finite_type(B: ExchangeMatrix, node_cap: int = 100_000) -> Classification:
    """Explore the diagram mutation class; see the module docstring.

    The search mutates principal rows with mutate_rows (by Prop. 8.1 the
    realization mutated does not change the mutated diagram) and
    deduplicates by canonical diagram form.  diagram_of weighs the root
    and each child, checking its sign-skew-symmetry as matrix_mutate
    would, and canonical_key reads those weights; a weight >= 4 is a
    witness before any key, reported as its weight and depth.
    Class c keeps its first rows as rows[c], with pos[c], the map from
    canonical positions to their vertices, and targets[c]: at direction
    d, the class of rows[c] mutated at d and a vertex map that sends that
    mutation onto the class's rows as diagrams, or None while unknown.
    Expanding class c with rows M, a keyed child mu_k(M) lies in class y
    by f: v -> pos[y][leaf[v]], leaf being the colouring canonical_key
    hands back.  The diagram of a mutation is a function of the diagram
    and the direction (Fomin-Zelevinsky, *Cluster algebras II*, Prop.
    8.1) and mutation is an involution, so rows[y] mutated at f[k] maps
    onto M by the inverse of f: that way back is recorded with the child.
    Mutations in directions j and k with b_jk = 0 commute, so
    mu_k(M) = mu_j(mu_k(mu_j(M))).  Before keying mu_k(M), the search
    looks for such a j whose three steps are all in targets, and reads
    the class of mu_k(M) and its map off them, with no mutation and no
    key.  Expanding a class skips every direction already in its
    targets.  That is exact: a skipped child lies in a class already
    found, with all weights below 4, so it changes neither the classes,
    their order, nor the witness.
    """
    if not is_skew_symmetrizable(B):
        raise ValueError("classification requires a skew-symmetrizable matrix")
    P, n = B.principal(), B.n
    weights = diagram_of(P)
    top = max(weights.values(), default=0)
    if top >= 4:
        return Classification("infinite", None, top, 0, 1)
    backwards = range(n - 1, -1, -1)

    def inverse(f: Sequence[int]) -> list[int]:
        """The inverse of the permutation f of [0, n), in one pass."""
        g = [0] * n
        for v, x in enumerate(f):
            g[x] = v
        return g

    leaf: list = []
    ids = {canonical_key(weights, n, leaf): 0}
    rows, pos, targets = [P], [inverse(leaf)], [[None] * n]
    maps: dict = {}  # each vertex map once: most are the identity

    def record(c: int, k: int, y: int, f: tuple) -> None:
        """f maps mu_k(rows[c]) onto rows[y]; its inverse is the way back."""
        f = maps.setdefault(f, f)
        back = tuple(inverse(f))
        targets[c][k] = (y, f)
        targets[y][f[k]] = (c, maps.setdefault(back, back))

    queue = deque([(0, 0)])
    while queue:
        c, depth = queue.popleft()
        M, here = rows[c], targets[c]
        for k in range(n):
            if here[k] is not None:
                continue
            # directions after k first: ways back, to classes already expanded
            for j in backwards:
                step = here[j]
                if step is None or M[j][k]:
                    continue
                q, chi = step
                step = targets[q][chi[k]]
                if step is None:
                    continue
                y, phi = step
                step = targets[y][phi[chi[j]]]
                if step is not None:
                    z, psi = step
                    record(c, k, z, tuple([psi[phi[x]] for x in chi]))
                    break
            else:
                M2 = mutate_rows(M, k)
                weights = diagram_of(M2)
                top = max(weights.values(), default=0)
                if top >= 4:
                    return Classification("infinite", None, top, depth + 1, len(rows))
                key = canonical_key(weights, n, leaf)
                y = ids.get(key)
                if y is None:
                    if len(rows) >= node_cap:
                        return Classification("inconclusive", None, None, None, len(rows))
                    y = ids[key] = len(rows)
                    rows.append(M2)
                    pos.append(inverse(leaf))
                    targets.append([None] * n)
                    queue.append((y, depth + 1))
                p = pos[y]
                record(c, k, y, tuple([p[x] for x in leaf]))
    for X in rows:
        if is_acyclic(ExchangeMatrix.make(X)):
            name = dynkin_name(diagram_of(X), n)
            if name is not None:
                return Classification("finite", name, None, None, len(rows))
    return Classification("finite", "unrecognized", None, None, len(rows))


# -- exchange graph exploration ------------------------------------------------


class ExplorationReport(NamedTuple):
    """Census of the exchange graph reachable from a seed.

    ``mutations`` is clusters * n by definition: the edge ends of the
    counted clusters, n per cluster, whichever of them a search computes.
    """

    clusters: int
    variables: int
    mutations: int
    exhausted: bool
    max_depth: int

    def to_json(self) -> dict:
        return self._asdict()


def exchange_seeds(seed: Seed) -> Iterator[tuple[Seed, int]]:
    """BFS over seeds: yield (seed, depth) per newly reached cluster, in order.

    The Laurent census: each cluster variable is named by its expression in
    the initial extended cluster.  It serves explore on a matrix that is not
    skew-symmetrizable.  A formal-coefficient seed is refused at entry, with
    seed_mutate's error.
    Starting with the initial seed at depth 0, each seed is expanded in the
    directions 0..n-1 in turn, and clusters are deduplicated as unordered
    sets of expressions (a LaurentPoly hashes by its key()).  Every edge end
    runs seed_mutate: the exact division, which raises NotDivisible on a
    Laurent failure, and the checked matrix_mutate, which raises
    SignSkewSymmetryLost on the first edge that loses sign-skew-symmetry.
    No theorem is assumed.  Seeds are mutated only as far as the consumer
    reads.
    """
    if seed.general:
        raise ValueError("formal-coefficient seeds support single mutations only")
    visited = {frozenset(seed.exprs)}
    queue = deque([(seed, 0)])
    yield seed, 0
    while queue:
        s, depth = queue.popleft()
        for k in range(s.n):
            s2 = seed_mutate(s, k)
            key = frozenset(s2.exprs)
            if key not in visited:
                visited.add(key)
                queue.append((s2, depth + 1))
                yield s2, depth + 1


class NotSignCoherent(ArithmeticError):
    """A c-vector with a positive and a negative entry."""


def gvector_seeds(rows: Sequence[Sequence[int]]) -> Iterator[tuple]:
    """The BFS of exchange_seeds on integers, over the rows of a
    skew-symmetrizable B-tilde, cluster rows first: yield (g-vectors,
    depth, ids, relation) per newly reached cluster, in order.

    Each cluster is the tuple of the g-vectors of its variables, position
    by position, in the initial seed's basis (Fomin-Zelevinsky, *Cluster
    algebras IV*, math/0602259, Section 6); ids numbers them, 0..n-1 the
    initial ones and then each new g-vector as it is first computed.
    relation is None for the initial cluster, else (k, out, column): the
    parent's mutation at k exchanged id out for the variable now at k, by
    x'_k x_out = M+ + M- with the monomials of column k of the parent's
    B-tilde (row i < n is the variable at position i).  A new id comes
    only with a new cluster, so the first relation to reach it is its own.
    A seed is held as the rows of [B-tilde; C], C starting as the identity,
    whose columns are the c-vectors; frozen rows only ride along, so a
    caller that reads no relation passes the principal part.  Mutation in
    direction k takes g'_k = -g_k + sum_i [-e b_ik]_+ g_i, with e the sign
    of c_k (Nakanishi-Zelevinsky, arXiv 1101.3736, Prop. 1.3), and
    mutate_rows mutates [B-tilde; C].  Both formulas need c_k to be
    sign-coherent, so every edge checks it at the end it is computed from
    and raises NotSignCoherent otherwise, naming the direction from 1.

    Under any geometric coefficients a cluster variable is determined by its
    g-vector for B (FZ IV, Thm 3.7 and Cor 6.3), c-vectors are sign-coherent
    (Gross-Hacking-Keel-Kontsevich, arXiv 1411.1394) and the exchange graph
    does not depend on the coefficients (FZ IV, Conj. 4.3, proved for
    skew-symmetrizable B by Cao-Li), so sets of g-vectors name clusters
    exactly and no Laurent polynomial is needed.  Seeds are expanded in
    the order of exchange_seeds, so the clusters arrive in its order, at
    its depths, with each position's g-vector naming the variable that
    exchange_seeds holds there.  g'_k is computed and looked up first,
    and the rows are mutated, unchecked, only when the cluster is new: by
    FZ I, Prop. 4.5, sign-skew-symmetry holds on skew-symmetrizable input.

    Each edge is computed once, from the first end the search reaches:
    bipartite E6 computes 2,499 g-vectors for its 4,998 edge ends.  Each
    reached cluster keeps the ids of its variables already exchanged
    across a known edge, and its expansion skips the positions holding
    them.  The skip goes by variable id, not by direction, because a
    cluster's stored seed may order its variables differently from the
    edge that reaches it again.  The far end's check is implied: a seed's
    c-vectors are determined by its g-vectors and mutation at k negates
    c_k (FZ IV; Nakanishi-Zelevinsky), so the far end holds -c_k there.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    ids = {g: i for i, g in enumerate(identity)}
    cids = tuple(range(n))
    # cluster key -> ids of its variables already exchanged across a known edge
    skip = set()
    exchanged = {frozenset(cids): skip}
    queue = deque([(tuple(rows) + identity, identity, cids, skip, 0)])
    yield identity, 0, cids, None
    while queue:
        M, cluster, cids, skip, depth = queue.popleft()
        for k, column in enumerate(zip(*M)):
            if cids[k] in skip:
                continue
            c = column[m:]
            positive = max(c) > 0
            if positive and min(c) < 0:
                raise NotSignCoherent(f"c-vector {c} at direction {k + 1}")
            g = [-x for x in cluster[k]]
            # -e b_ik over the n cluster rows, where zip stops
            for b, gi in zip(map(neg, column) if positive else column, cluster):
                if b > 0:
                    g = [x + b * y for x, y in zip(g, gi)]
            g = tuple(g)
            gid = ids.setdefault(g, len(ids))
            reached_ids = cids[:k] + (gid,) + cids[k + 1:]
            key = frozenset(reached_ids)
            known = exchanged.get(key)
            if known is not None:
                known.add(gid)
            else:
                exchanged[key] = known = {gid}
                reached = cluster[:k] + (g,) + cluster[k + 1:]
                queue.append((mutate_rows(M, k), reached, reached_ids, known, depth + 1))
                yield reached, depth + 1, reached_ids, (k, cids[k], column[:m])


def explore_exchange_graph(seed: Seed, max_seeds: int = 10_000) -> ExplorationReport:
    """Census of the first max_seeds clusters of the seed BFS (at least one).

    A skew-symmetrizable seed, frozen rows or not, is counted on integers by
    gvector_seeds on its principal part (the exchange graph does not depend
    on the frozen rows), with each variable named by its g-vector; any other
    seed by exchange_seeds, with each variable named by its Laurent
    expression.  Both searches reach the same clusters in the same order,
    so the report is the same either way.  ``variables`` counts the
    distinct names.  ``exhausted`` says that no further cluster exists.
    Every counted seed has all n directions, so ``mutations`` is clusters * n.
    """
    if is_skew_symmetrizable(seed.matrix):
        search = gvector_seeds(seed.matrix.principal())
    else:
        search = ((tuple(e.key() for e in s.exprs), depth)
                  for s, depth in exchange_seeds(seed))
    names, depths = set(), []
    for step in islice(search, max(1, max_seeds)):
        names.update(step[0])
        depths.append(step[1])
    return ExplorationReport(
        clusters=len(depths),
        variables=len(names),
        mutations=len(depths) * seed.n,
        exhausted=next(search, None) is None,
        max_depth=max(depths),
    )
