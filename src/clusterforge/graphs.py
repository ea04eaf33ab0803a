"""Sign graphs, weighted diagrams, mutation classes and the exchange graph.

The directed graph of an exchange matrix has an edge (i, j) whenever
b_ij > 0; its diagram assigns that edge the weight |b_ij * b_ji|.  Finite
type is decided by breadth-first search over the diagram mutation class
with canonical-form deduplication: a class that closes with all weights
at most 3 is 2-finite (hence of finite cluster type, named from an
acyclic representative), a weight >= 4 anywhere certifies infinite type,
and hitting the node cap is reported honestly as inconclusive.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .seeds import (
    ExchangeMatrix,
    Seed,
    is_sign_skew_symmetric,
    is_skew_symmetrizable,
    matrix_mutate,
    seed_mutate,
)


class UnrealizableDiagram(ValueError):
    """No skew-symmetrizable matrix has this weighted diagram."""


class CanonicalizationBlowup(RuntimeError):
    """Too many candidate orderings survived refinement and twin pruning."""


@dataclass(frozen=True)
class SignGraph:
    """Directed graph on [0, n) with an edge (i, j) for each b_ij > 0."""

    n: int
    edges: frozenset


@dataclass(frozen=True)
class Diagram:
    """Directed graph with positive integer edge weights |b_ij * b_ji|."""

    n: int
    arrows: tuple  # sorted tuples (i, j, w), one per directed edge

    def weight_map(self) -> dict:
        return {(i, j): w for i, j, w in self.arrows}

    def max_weight(self) -> int:
        return max((w for _, _, w in self.arrows), default=0)

    def undirected(self) -> dict:
        return {frozenset((i, j)): w for i, j, w in self.arrows}


def gamma(B: ExchangeMatrix) -> SignGraph:
    P = B.principal()
    n = B.n
    return SignGraph(
        n, frozenset((i, j) for i in range(n) for j in range(n) if P[i][j] > 0)
    )


def diagram_of(B: ExchangeMatrix) -> Diagram:
    P = B.principal()
    n = B.n
    arrows = sorted(
        (i, j, abs(P[i][j] * P[j][i]))
        for i in range(n)
        for j in range(n)
        if P[i][j] > 0
    )
    return Diagram(n, tuple(arrows))


def is_acyclic(B: ExchangeMatrix) -> bool:
    return acyclic_order(B) is not None


def acyclic_order(B: ExchangeMatrix) -> tuple[int, ...] | None:
    """Permutation s with B[s[i]][s[j]] >= 0 for i > j, or None if cyclic.

    Equivalently: a reversed topological order of the sign graph, so that
    every directed edge points from a later position to an earlier one.
    """
    g = gamma(B)
    n = g.n
    out = {i: set() for i in range(n)}
    indeg = [0] * n
    for i, j in g.edges:
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


def _is_square(fr: Fraction) -> bool:
    return isqrt(fr.numerator) ** 2 == fr.numerator and (
        isqrt(fr.denominator) ** 2 == fr.denominator
    )


def _sqrt_fraction(fr: Fraction) -> Fraction:
    return Fraction(isqrt(fr.numerator), isqrt(fr.denominator))


def realize_diagram(d: Diagram) -> ExchangeMatrix:
    """Some skew-symmetrizable matrix whose diagram is d, or raise.

    Searches weight factorizations w = p*q along a spanning forest so that
    the induced symmetrizer ratios d_j/d_i = p/q are globally consistent;
    rejects if no assignment works on the non-forest edges.
    """
    n = d.n
    und = d.undirected()
    adj = {i: [] for i in range(n)}
    for e, w in und.items():
        i, j = sorted(e)
        adj[i].append((j, w))
        adj[j].append((i, w))

    t: list[Fraction | None] = [None] * n
    tree_edges: list[tuple[int, int, int]] = []
    for root in range(n):
        if t[root] is not None:
            continue
        t[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j, w in adj[i]:
                if t[j] is None:
                    t[j] = Fraction(0)  # placeholder, fixed by the search
                    tree_edges.append((i, j, w))
                    stack.append(j)

    def factorizations(w: int) -> list[tuple[int, int]]:
        return [(p, w // p) for p in range(1, w + 1) if w % p == 0]

    def consistent() -> bool:
        for e, w in und.items():
            i, j = sorted(e)
            ratio = Fraction(w) * t[j] / t[i]
            if not _is_square(ratio):
                return False
            p = _sqrt_fraction(ratio)
            if p.denominator != 1 or w % p.numerator:
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
    for i, j, w in d.arrows:
        p = int(_sqrt_fraction(Fraction(w) * t[j] / t[i]))
        entries[i][j] = p
        entries[j][i] = -(w // p)
    return ExchangeMatrix.make(entries)


def diagram_mutate(d: Diagram, k: int) -> Diagram:
    """Diagram mutation, implemented by realizing and mutating a matrix."""
    return diagram_of(matrix_mutate(realize_diagram(d), k))


# -- canonical forms ----------------------------------------------------------


def _refine_colors(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    colors = [0] * n
    for _ in range(n):
        sigs = []
        for v in range(n):
            outs = tuple(sorted((adj[v][u], colors[u]) for u in range(n) if adj[v][u]))
            ins = tuple(sorted((adj[u][v], colors[u]) for u in range(n) if adj[u][v]))
            sigs.append((colors[v], outs, ins))
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _twin_classes(adj: list[list[int]], colors: list[int]) -> list[int]:
    """Union vertices whose transposition is a weight-preserving automorphism."""
    n = len(adj)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            if colors[u] != colors[v]:
                continue
            if adj[u][v] != adj[v][u]:
                continue
            ok = all(
                adj[u][x] == adj[v][x] and adj[x][u] == adj[x][v]
                for x in range(n)
                if x not in (u, v)
            )
            if ok:
                parent[find(u)] = find(v)
    return [find(v) for v in range(n)]


def _orderings(cls: list[int], twin: list[int], cap: list[int]) -> Iterable[list[int]]:
    """Distinct orderings of a color class up to permuting twins."""
    if len(cls) == 1:
        yield list(cls)
        return
    groups: dict[int, list[int]] = {}
    for v in cls:
        groups.setdefault(twin[v], []).append(v)
    ids = sorted(groups)
    counts = Counter(twin[v] for v in cls)

    def rec(remaining: Counter, acc: list[int]):
        if not remaining:
            yield list(acc)
            return
        for g in sorted(remaining):
            cap[0] -= 1
            if cap[0] < 0:
                raise CanonicalizationBlowup("ordering cap exceeded")
            nxt = remaining.copy()
            nxt[g] -= 1
            if not nxt[g]:
                del nxt[g]
            acc.append(groups[g][sum(1 for x in acc if twin[x] == g)])
            yield from rec(nxt, acc)
            acc.pop()

    yield from rec(counts, [])


def canonical_key(d: Diagram) -> tuple:
    """Complete isomorphism invariant for small weighted digraphs.

    Color refinement, then twin collapsing, then minimization of the
    serialized adjacency matrix over the surviving orderings.  Brute force
    by design: every instance here has n <= 10.
    """
    n = d.n
    adj = [[0] * n for _ in range(n)]
    for i, j, w in d.arrows:
        adj[i][j] = w
    colors = _refine_colors(adj)
    twin = _twin_classes(adj, colors)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    cap = [2_000_000]
    best: tuple | None = None
    class_orders = [sorted(classes[c]) for c in sorted(classes)]

    def rec(idx: int, perm: list[int]):
        nonlocal best
        if idx == len(class_orders):
            ser = tuple(adj[perm[i]][perm[j]] for i in range(n) for j in range(n))
            if best is None or ser < best:
                best = ser
            return
        for ordering in _orderings(class_orders[idx], twin, cap):
            rec(idx + 1, perm + ordering)

    rec(0, [])
    assert best is not None
    return (n, best)


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


def _component_name(verts: list[int], edges: dict) -> str | None:
    nc = len(verts)
    if nc == 1:
        return "A1"
    inc = {v: [] for v in verts}
    for e, w in edges.items():
        a, b = sorted(e)
        inc[a].append((b, w))
        inc[b].append((a, w))
    if len(edges) != nc - 1:
        return None  # not a tree
    weights = sorted(edges.values())
    degrees = sorted((len(inc[v]) for v in verts), reverse=True)
    if weights[-1] == 1:
        if degrees[0] <= 2:
            return f"A{nc}"
        if degrees[0] == 3 and degrees[1] <= 2:
            center = next(v for v in verts if len(inc[v]) == 3)
            lengths = []
            for start, _ in inc[center]:
                ln, prev, cur = 1, center, start
                while len(inc[cur]) == 2:
                    nxt = next(u for u, _ in inc[cur] if u != prev)
                    prev, cur = cur, nxt
                    ln += 1
                lengths.append(ln)
            a, b, c = sorted(lengths)
            if (a, b) == (1, 1):
                return f"D{nc}"
            if (a, b, c) == (1, 2, 2):
                return "E6"
            if (a, b, c) == (1, 2, 3):
                return "E7"
            if (a, b, c) == (1, 2, 4):
                return "E8"
        return None
    if weights == [1] * (nc - 2) + [2] and degrees[0] <= 2:
        heavy = next(e for e, w in edges.items() if w == 2)
        ends = [v for v in verts if len(inc[v]) == 1]
        if any(v in heavy for v in ends):
            return f"B{nc}"  # same weighted tree as C_nc
        if nc == 4:
            return "F4"
        return None
    if weights == [3] and nc == 2:
        return "G2"
    return None


def dynkin_name(d: Diagram) -> str | None:
    """Match the underlying weighted tree against the Dynkin catalog.

    B_n and C_n share one weighted diagram and are reported as B_n.
    Products of components are named like "A1^3" or "D4 x A1".
    """
    und = d.undirected()
    seen = set()
    names = []
    for root in range(d.n):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for e in und:
                if v in e:
                    (u,) = e - {v}
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
        seen |= comp
        cedges = {e: w for e, w in und.items() if e <= comp}
        name = _component_name(sorted(comp), cedges)
        if name is None:
            return None
        names.append(name)
    counts = Counter(names)

    def rank_of(nm: str) -> int:
        return int(nm[1:])

    parts = []
    for nm in sorted(counts, key=lambda s: (-rank_of(s), s)):
        c = counts[nm]
        parts.append(f"{nm}^{c}" if c > 1 else nm)
    return " x ".join(parts)


def classify_finite_type(B: ExchangeMatrix, node_cap: int = 100_000) -> Classification:
    """Explore the diagram mutation class; see the module docstring.

    The search mutates matrices (any realization determines the mutated
    diagram) and deduplicates by canonical diagram form.  Weight checks
    happen before canonicalization so infinite-type witnesses are cheap.
    """
    if not is_skew_symmetrizable(B):
        raise ValueError("classification requires a skew-symmetrizable matrix")
    P = ExchangeMatrix.make([list(r) for r in B.principal()])
    d0 = diagram_of(P)
    if d0.max_weight() >= 4:
        return Classification("infinite", None, d0, d0.max_weight(), 0, 1)
    reps = {canonical_key(d0): P}
    queue = deque([(P, 0)])
    while queue:
        M, depth = queue.popleft()
        for k in range(M.n):
            M2 = matrix_mutate(M, k)
            d2 = diagram_of(M2)
            if d2.max_weight() >= 4:
                return Classification(
                    "infinite", None, d2, d2.max_weight(), depth + 1, len(reps)
                )
            key = canonical_key(d2)
            if key not in reps:
                if len(reps) >= node_cap:
                    return Classification(
                        "inconclusive", None, None, None, None, len(reps)
                    )
                reps[key] = M2
                queue.append((M2, depth + 1))
    for M in reps.values():
        if is_acyclic(M):
            name = dynkin_name(diagram_of(M))
            if name is not None:
                return Classification("finite", name, None, None, None, len(reps))
    return Classification("finite", "unrecognized", None, None, None, len(reps))


# -- exchange graph exploration ------------------------------------------------


@dataclass(frozen=True)
class ExplorationReport:
    """Census of the exchange graph reachable from a seed.

    ``mutations`` counts edge traversals from both ends, as a BFS that
    mutates every seed in every direction would; the exchange division of
    each edge is computed once, from the end the search reaches first.
    """

    clusters: int
    variables: int
    mutations: int
    exhausted: bool
    max_depth: int

    def to_json(self) -> dict:
        return {
            "clusters": self.clusters,
            "variables": self.variables,
            "mutations": self.mutations,
            "exhausted": self.exhausted,
            "max_depth": self.max_depth,
        }


def seed_permutation(a: Seed, b: Seed) -> list[int] | None:
    """p with a.exprs[p[j]] == b.exprs[j] and a's matrix equal to b's under p.

    None if the clusters differ or the matrices disagree anywhere: the
    principal part is compared as a[p[i]][p[j]] == b[i][j], frozen rows
    keep their place.  A match means a is b relabelled, so mutating a at
    p[k] gives the seed of mutating b at k, relabelled.
    """
    if a.ctx != b.ctx or (a.n, a.m) != (b.n, b.m):
        return None
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


def explore_exchange_graph(seed: Seed, max_seeds: int = 10_000) -> ExplorationReport:
    """BFS over seeds, deduplicating by the unordered cluster of expressions.

    Mutation is an involution, so each seed remembers the directions known
    to lead back into the visited set and skips their exchange division.
    A new seed knows the direction it came from; a seed reached again
    learns the reverse direction only when seed_permutation confirms that
    the stored seed is the reached one relabelled.  Every other mutation
    goes through the exact exchange-relation division, so a Laurent
    failure anywhere aborts the census with NotDivisible.
    """
    skip: set[int] = set()
    visited = {seed.cluster_key(): (seed, skip)}
    vars_seen = {e.key() for e in seed.exprs}
    queue = deque([(seed, 0, skip)])
    mutations = 0
    max_depth = 0
    exhausted = True
    while queue:
        s, depth, skip = queue.popleft()
        max_depth = max(max_depth, depth)
        for k in range(s.n):
            mutations += 1
            if k in skip:
                continue
            s2 = seed_mutate(s, k)
            key = s2.cluster_key()
            if key in visited:
                stored, stored_skip = visited[key]
                p = seed_permutation(stored, s2)
                if p is not None:
                    stored_skip.add(p[k])
                continue
            if len(visited) >= max_seeds:
                exhausted = False
                continue
            back = {k}
            visited[key] = (s2, back)
            vars_seen.update(e.key() for e in s2.exprs)
            queue.append((s2, depth + 1, back))
    return ExplorationReport(
        clusters=len(visited),
        variables=len(vars_seen),
        mutations=mutations,
        exhausted=exhausted,
        max_depth=max_depth,
    )


# -- DOT export ----------------------------------------------------------------


def sign_graph_dot(g: SignGraph, labels: Sequence[str] | None = None) -> str:
    names = labels or [str(i + 1) for i in range(g.n)]
    lines = ["digraph G {"]
    for i in range(g.n):
        lines.append(f'  "{names[i]}";')
    for i, j in sorted(g.edges):
        lines.append(f'  "{names[i]}" -> "{names[j]}";')
    lines.append("}")
    return "\n".join(lines)


def diagram_dot(d: Diagram, labels: Sequence[str] | None = None) -> str:
    names = labels or [str(i + 1) for i in range(d.n)]
    lines = ["digraph G {"]
    for i in range(d.n):
        lines.append(f'  "{names[i]}";')
    for i, j, w in d.arrows:
        lines.append(f'  "{names[i]}" -> "{names[j]}" [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)
