"""Weighted diagrams, mutation classes and the exchange graph.

The directed graph Gamma(B) of an exchange matrix has an edge (i, j)
whenever b_ij > 0; its diagram assigns that edge the weight |b_ij * b_ji|.
One type, Diagram, holds both: its weights map each edge of Gamma(B) to
its weight, and canonical_key reads that map.  Finite
type is decided by breadth-first search over the diagram mutation class
with canonical-form deduplication: a class that closes with all weights
at most 3 is 2-finite (hence of finite cluster type, named from an
acyclic representative), a weight >= 4 anywhere certifies infinite type,
and hitting the node cap is reported honestly as inconclusive.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from operator import add
from typing import Iterable, Iterator, Sequence

from .coxeter import cartan_entries
from .seeds import (
    ExchangeMatrix,
    Seed,
    SignSkewSymmetryLost,
    is_skew_symmetrizable,
    matrix_mutate,
    mutate_rows,
    seed_mutate,
)
from .util import sqrt_fraction


class UnrealizableDiagram(ValueError):
    """No skew-symmetrizable matrix has this weighted diagram."""


@dataclass(frozen=True)
class Diagram:
    """Directed graph on [0, n) with weights: {(i, j): w} per arrow."""

    n: int
    weights: dict


def diagram_of(B: ExchangeMatrix) -> Diagram:
    """The diagram of B's principal part, unchecked: the weight
    |b_ij b_ji| on each arrow (i, j) with b_ij > 0, in row order.  Off
    sign-skew-symmetry an arrow may weigh 0; it is still an edge of Gamma(B)."""
    E, n = B.entries, B.n
    return Diagram(n, {
        (i, j): abs(x * E[j][i])
        for i in range(n)
        for j, x in enumerate(E[i][:n])
        if x > 0
    })


def _neighbours(d: Diagram) -> list[dict]:
    """Each vertex's neighbours, with the weight of the arrow either way."""
    adj: list[dict] = [{} for _ in range(d.n)]
    for (i, j), w in d.weights.items():
        adj[i][j] = adj[j][i] = w
    return adj


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
    for i, j in diagram_of(B).weights:
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


# -- diagram realization and mutation ----------------------------------------


def realize_diagram(d: Diagram) -> ExchangeMatrix:
    """Some skew-symmetrizable matrix whose diagram is d, or raise.

    Searches weight factorizations w = p*q along a spanning forest so that
    the induced symmetrizer ratios d_j/d_i = p/q are globally consistent;
    rejects if no assignment works on the non-forest edges.
    """
    n = d.n
    adj = _neighbours(d)
    t: list[Fraction | None] = [None] * n
    tree_edges: list[tuple[int, int, int]] = []
    for root in range(n):
        if t[root] is not None:
            continue
        t[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j, w in adj[i].items():
                if t[j] is None:
                    t[j] = Fraction(0)  # placeholder, fixed by the search
                    tree_edges.append((i, j, w))
                    stack.append(j)

    def factorizations(w: int) -> list[tuple[int, int]]:
        return [(p, w // p) for p in range(1, w + 1) if w % p == 0]

    def consistent() -> bool:
        for (i, j), w in d.weights.items():
            p = sqrt_fraction(Fraction(w) * t[j] / t[i])
            if not p or p.denominator != 1 or w % p.numerator:
                return False
        return True

    def search(idx: int) -> bool:
        if idx == len(tree_edges):
            return consistent()
        i, j, w = tree_edges[idx]
        for p, q in factorizations(w):
            t[j] = t[i] * Fraction(p, q)
            if search(idx + 1):
                return True
        t[j] = Fraction(0)
        return False

    if not search(0):
        raise UnrealizableDiagram(f"no consistent symmetrizer for {d}")

    entries = [[0] * n for _ in range(n)]
    for (i, j), w in d.weights.items():
        p = int(sqrt_fraction(Fraction(w) * t[j] / t[i]))
        entries[i][j] = p
        entries[j][i] = -(w // p)
    return ExchangeMatrix.make(entries)


def diagram_mutate(d: Diagram, k: int) -> Diagram:
    """Diagram mutation, implemented by realizing and mutating a matrix."""
    return diagram_of(matrix_mutate(realize_diagram(d), k))


# -- canonical forms ----------------------------------------------------------


def _refine_colors(nbrs: list[dict], colors: list[int]) -> list[int]:
    """Coarsest equitable refinement of colors, numbered by signature rank.

    nbrs[v] maps each neighbour u of v to a code (out weight * top + in
    weight) * span, where top exceeds every weight and span every colour,
    so that code + colour orders like the triple (out weight, in weight,
    colour).  A vertex's signature is its colour and the sorted code +
    colour of its neighbours.  Each round recolours every vertex by the
    rank of its signature, which refines the colouring and keeps the order
    of the colours, until the number of cells stops growing.  A uniform
    colouring adds one colour to every code, so its round sorts the codes alone.
    """
    n = len(nbrs)
    cells = len(set(colors))
    while True:
        get = colors.__getitem__
        sigs = [
            (colors[v], tuple(sorted(map(add, nv.values(), map(get, nv)))))
            for v, nv in enumerate(nbrs)
        ] if cells > 1 else [tuple(sorted(nv.values())) for nv in nbrs]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) in (cells, n):
            return colors
        cells = len(rank)


def _twin_classes(weights: dict, n: int) -> list[int]:
    """The least twin of each vertex.

    Twins are vertices whose transposition is a weight-preserving
    automorphism; being twins is an equivalence relation.
    """
    adj = [[0] * n for _ in range(n)]
    for (i, j), w in weights.items():
        adj[i][j] = w

    def twins(u: int, v: int) -> bool:
        return adj[u][v] == adj[v][u] and all(
            adj[u][x] == adj[v][x] and adj[x][u] == adj[x][v]
            for x in range(n)
            if x not in (u, v)
        )

    return [next(u for u in range(v + 1) if twins(u, v)) for v in range(n)]


def _orbits(n: int, gens: list) -> list[int]:
    """The least vertex of each vertex's orbit under the group gens generate."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for g in gens:
        for x in range(n):
            a, b = find(x), find(g[x])
            root[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def _serialize(weights: dict, colors: list[int], n: int) -> list[int]:
    """The weighted adjacency matrix, row by row, vertices in colour order."""
    ser = [0] * (n * n)
    for (i, j), w in weights.items():
        ser[colors[i] * n + colors[j]] = w
    return ser


def canonical_key(weights: dict, n: int, leaf: list | None = None) -> tuple:
    """Complete isomorphism invariant: (n, least serialization of a leaf).

    weights maps each arrow (i, j) of a diagram on [0, n) to its weight; a
    weight of 0 keys like no arrow.  An individualization-refinement search
    (McKay-Piperno, *Practical graph isomorphism, II*, arXiv 1301.1493).  Each node refines its
    colouring to an equitable one, then individualizes in turn each vertex
    of the first cell with more than one vertex: the vertex gets colour 2c,
    the rest of its cell 2c + 1.  A discrete leaf serializes the weighted
    adjacency matrix with the vertices in colour order.  Refinement
    commutes with relabelling, so the set of leaf serializations is an
    invariant, and each one is the diagram relabelled, so equal keys mean
    isomorphic diagrams.

    Subtrees that an automorphism maps onto explored ones give the same
    leaves and are skipped.  A cell branches on one vertex per twin class,
    since swapping two twins is an automorphism that fixes the colouring.
    A leaf equal to the least one so far reveals the automorphism between
    the two; it maps the one individualization sequence onto the other,
    because a leaf's colouring determines its sequence.  It therefore maps
    the explored subtree where the two sequences part onto the current
    one, so the search returns to that node.  A node also skips a vertex
    in the orbit of an explored one under the automorphisms found so far
    that fix the node's individualized vertices.
    A discrete root colouring is the only leaf: its key needs no search.
    A list passed as leaf receives the least leaf's colouring: relabelling
    the weights by v -> leaf[v] reproduces the key.
    """
    top = max(weights.values(), default=0) + 1
    span = 2 * n + 2
    nbrs: list[dict] = [{} for _ in range(n)]
    for (i, j), w in weights.items():
        if w:
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
    autos: list[list[int]] = []
    twin = _twin_classes(weights, n)  # the root is not discrete

    def search(colors: list[int], path: tuple) -> int:
        """Explore below path; return the depth of the node to resume at."""
        nonlocal best, best_colors, best_path
        depth = len(path)
        if max(colors, default=-1) == n - 1:  # colours are ranks: discrete
            ser = _serialize(weights, colors, n)
            if best is None or ser < best:
                best, best_colors, best_path = ser, colors, path
            elif ser == best:
                order = sorted(range(n), key=colors.__getitem__)
                autos.append([order[p] for p in best_colors])
                return next(t for t, (a, b) in enumerate(zip(path, best_path)) if a != b)
            return depth - 1
        c = min(c for c, size in Counter(colors).items() if size > 1)
        branched: set = set()
        tried: list[int] = []
        known = 0
        for v in range(n):
            if colors[v] != c or twin[v] in branched:
                continue
            branched.add(twin[v])
            if len(autos) > known:
                known = len(autos)
                orbit = _orbits(n, [g for g in autos if all(g[x] == x for x in path)])
            if known and any(orbit[v] == orbit[u] for u in tried):
                continue
            tried.append(v)
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


@dataclass(frozen=True)
class Classification:
    verdict: str  # "finite" | "infinite" | "inconclusive"
    type_name: str | None
    witness: Diagram | None
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


def dynkin_name(d: Diagram) -> str | None:
    """Name each connected component from the Dynkin catalog, or None.

    B_n and C_n share one weighted diagram and are reported as B_n.
    Products of components are named like "A1^3" or "D4 x A1".
    """
    adj = _neighbours(d)
    names = []
    left = set(range(d.n))
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


def _checked_weights(E: tuple) -> dict:
    """diagram_of(E).weights for the square matrix E, in one loop over the
    pairs i < j with a = b_ij, b = b_ji.  Raises SignSkewSymmetryLost
    where is_sign_skew_symmetric is False: b_ii != 0, or a or b nonzero
    with a * b >= 0; so no weight is 0."""
    n = len(E)
    weights = {}
    for i, row in enumerate(E):
        if row[i]:
            raise SignSkewSymmetryLost(f"nonzero diagonal entry {i}")
        for j in range(i + 1, n):
            a, b = row[j], E[j][i]
            if a or b:
                w = -a * b
                if w <= 0:
                    raise SignSkewSymmetryLost(f"entries ({i}, {j}) and ({j}, {i})")
                weights[(i, j) if a > 0 else (j, i)] = w
    return weights


def classify_finite_type(B: ExchangeMatrix, node_cap: int = 100_000) -> Classification:
    """Explore the diagram mutation class; see the module docstring.

    The search mutates principal rows with mutate_rows (any realization
    determines the mutated diagram) and deduplicates by canonical diagram
    form.  One more walk over each child, _checked_weights, checks its
    sign-skew-symmetry and builds the weights canonical_key reads; a
    weight >= 4 is a witness before any key, kept as Diagram(n, weights).
    No Diagram is built per child.  Each class keeps its first
    rows X as rep, with pos, the map from canonical positions to X's
    vertices, and a set of known directions.
    A child mu_k(M) keyed to X's class maps onto X by v -> pos[leaf[v]],
    leaf being the colouring canonical_key hands back.  The diagram of a
    mutation is a function of the diagram and the direction (Fomin-
    Zelevinsky, *Cluster algebras II*, Prop. 8.1) and mutation is an
    involution, so X mutated at pos[leaf[k]] has M's diagram up to
    isomorphism: that direction of X is known (for a new rep, the way
    back).  Expanding a rep skips its known directions.  That is exact: a
    skipped child lies in a class already in the reps, with all weights
    below 4, so it changes neither the reps nor the witness.  Mutations in
    directions i and j with b_ij = 0 commute, so one layer of the search
    often makes the same rows twice; the rows made while mutating the
    current layer are kept, and a repeat is dropped before it is checked
    or weighed.  That is exact too: the first copy had the same diagram
    and, as the search went on, passed both checks and left its key in
    the reps, so the repeat would change nothing.
    """
    if not is_skew_symmetrizable(B):
        raise ValueError("classification requires a skew-symmetrizable matrix")
    P, n = B.principal(), B.n
    weights = _checked_weights(P)
    top = max(weights.values(), default=0)
    if top >= 4:
        return Classification("infinite", None, Diagram(n, weights), top, 0, 1)
    leaf: list = []
    key = canonical_key(weights, n, leaf)
    reps = {key: (P, sorted(range(n), key=leaf.__getitem__), set())}
    queue = deque([(reps[key], 0)])
    layer, made = 0, set()
    while queue:
        (M, _, known), depth = queue.popleft()
        if depth != layer:
            layer, made = depth, set()
        for k in range(n):
            if k in known:
                continue
            M2 = mutate_rows(M, k)
            if M2 in made:
                continue
            made.add(M2)
            weights = _checked_weights(M2)
            top = max(weights.values(), default=0)
            if top >= 4:
                return Classification(
                    "infinite", None, Diagram(n, weights), top, depth + 1, len(reps)
                )
            key = canonical_key(weights, n, leaf)
            X = reps.get(key)
            if X is None:
                if len(reps) >= node_cap:
                    return Classification(
                        "inconclusive", None, None, None, None, len(reps)
                    )
                X = reps[key] = (M2, sorted(range(n), key=leaf.__getitem__), set())
                queue.append((X, depth + 1))
            X[2].add(X[1][leaf[k]])
    for rows, _, _ in reps.values():
        M = ExchangeMatrix.make(rows)
        if is_acyclic(M):
            name = dynkin_name(diagram_of(M))
            if name is not None:
                return Classification("finite", name, None, None, None, len(reps))
    return Classification("finite", "unrecognized", None, None, None, len(reps))


# -- exchange graph exploration ------------------------------------------------


@dataclass(frozen=True)
class ExplorationReport:
    """Census of the exchange graph reachable from a seed.

    ``mutations`` is clusters * n: the edge traversals, from both ends, of
    a BFS that mutates every counted seed in every direction.  Each
    distinct exchange relation is divided once (see exchange_seeds).
    """

    clusters: int
    variables: int
    mutations: int
    exhausted: bool
    max_depth: int

    def to_json(self) -> dict:
        return asdict(self)


def exchange_seeds(seed: Seed) -> Iterator[tuple[Seed, int]]:
    """BFS over seeds: yield (seed, depth) per newly reached cluster, in order.

    Clusters are deduplicated as unordered sets of expression ids, starting
    with the initial seed at depth 0.  Every edge runs matrix_mutate (and
    its sign-skew-symmetry check), but each exchange relation is divided
    once: x'_k = P_k / x_k, and P_k is the sum of the products of the other
    ambient variables over the positive and over the negative entries of
    column k, so x'_k is a function of x_k and that unordered pair of
    factor sets; no theorem is assumed.  A miss runs seed_mutate (the exact
    division, which raises NotDivisible on a Laurent failure) and stores
    x'_k under (x_k, pair) and x_k under (x'_k, pair), exact as
    P_k / x'_k = x_k; mutating back at k negates column k and keeps the
    pair, so back edges hit.  Seeds are mutated only as far as the
    consumer reads.  Expressions are interned: every yielded seed holds the
    first object found for each distinct expression, so a quotient equal to
    a known variable is dropped with its packed form.
    """
    ids: dict[tuple, tuple] = {}

    def intern(e) -> tuple:
        """(first object with e's key, its id)."""
        return ids.setdefault(e.key(), (e, len(ids)))

    rows = tuple(intern(e)[1] for e in seed.all_exprs())
    frozen, cluster = rows[seed.n:], rows[: seed.n]
    memo: dict[tuple, tuple] = {}
    visited = {frozenset(cluster)}
    queue = deque([(seed, 0, cluster)])
    yield seed, 0
    while queue:
        s, depth, cluster = queue.popleft()
        rows = cluster + frozen
        for k in range(s.n):
            col = [(r, row[k]) for r, row in zip(rows, s.matrix.entries) if row[k]]
            pair = frozenset((frozenset((r, b) for r, b in col if b > 0),
                              frozenset((r, -b) for r, b in col if b < 0)))
            hit = memo.get((cluster[k], pair))
            # seed_mutate refuses to mutate a formal-coefficient seed twice;
            # only the way back, which needs no division, comes from the memo
            if hit is None or s.general and s.history[-1:] != (k,):
                s2 = seed_mutate(s, k)
                matrix = s2.matrix
                x, xid = hit = intern(s2.exprs[k])
                memo[cluster[k], pair] = hit
                memo[xid, pair] = s.exprs[k], cluster[k]
            else:
                x, xid = hit
                matrix = matrix_mutate(s.matrix, k)
            s2 = Seed(matrix, s.ctx, s.exprs[:k] + (x,) + s.exprs[k + 1:],
                      s.history + (k,), s.general)
            reached = cluster[:k] + (xid,) + cluster[k + 1:]
            key = frozenset(reached)
            if key not in visited:
                visited.add(key)
                queue.append((s2, depth + 1, reached))
                yield s2, depth + 1


def explore_exchange_graph(seed: Seed, max_seeds: int = 10_000) -> ExplorationReport:
    """Census of the first max_seeds clusters of exchange_seeds (at least one).

    ``exhausted`` says that no further cluster exists.  Every counted seed
    has all n directions, so ``mutations`` is clusters * n.
    """
    search = exchange_seeds(seed)
    found = list(islice(search, max(1, max_seeds)))
    return ExplorationReport(
        clusters=len(found),
        variables=len({e.key() for s, _ in found for e in s.exprs}),
        mutations=len(found) * seed.n,
        exhausted=next(search, None) is None,
        max_depth=max(depth for _, depth in found),
    )


# -- DOT export ----------------------------------------------------------------


def dot(names: Iterable, edges: Iterable[tuple]) -> str:
    """Graphviz digraph with one line per vertex and one per (src, dst, attrs).

    attrs is the text inside the edge's brackets, or empty for none.
    """
    lines = ["digraph G {"] + [f'  "{v}";' for v in names]
    for src, dst, attrs in edges:
        lines.append(f'  "{src}" -> "{dst}"' + (f" [{attrs}];" if attrs else ";"))
    return "\n".join(lines + ["}"])
