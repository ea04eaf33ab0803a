"""The Barot-Geiss-Zelevinsky criterion as an outside oracle for classify.

Barot, Geiss and Zelevinsky (*Cluster algebras of finite type and positive
symmetrizable matrices*, math/0411341) decide finite type without any
mutation: a skew-symmetrizable B is of finite type iff every chordless cycle
of its diagram is cyclically oriented and an admissible quasi-Cartan
companion A of B is positive definite.  A companion has a_ii = 2 and
|a_ij| = |b_ij|, with a_ij and a_ji of one sign; it is admissible when every
chordless cycle has an odd number of edges with a_ij > 0, a linear system
over GF(2) in the edge signs.  Admissible companions differ by simultaneous
sign changes of rows and columns, so one of them decides.
"""

import random
from itertools import combinations
from math import gcd

from clusterforge.graphs import classify_finite_type
from clusterforge.seeds import ExchangeMatrix, matrix_mutate
from clusterforge.util import bareiss, symmetrizer

from test_graphs import bipartite_seed


def chordless_cycles(B):
    """Vertex sets whose induced subgraph is a cycle, with its edges."""
    n = len(B)
    for size in range(3, n + 1):
        for verts in combinations(range(n), size):
            edges = [(i, j) for i, j in combinations(verts, 2) if B[i][j]]
            if len(edges) != size or any(
                sum(v in e for e in edges) != 2 for v in verts
            ):
                continue
            # size edges and every degree 2: a cycle iff connected
            seen, stack = set(), [verts[0]]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack += [u for e in edges if v in e for u in e]
            if len(seen) == size:
                yield verts, edges


def bgz_finite(B):
    """BGZ's verdict: True iff B is of finite type."""
    n = len(B)
    cycles = list(chordless_cycles(B))
    for verts, edges in cycles:
        # cyclically oriented: every vertex has one arrow out along the cycle
        if any(sum(B[v][u] > 0 for u in verts) != 1 for v in verts):
            return False
    bit = {e: 1 << t for t, e in enumerate(
        (i, j) for i, j in combinations(range(n), 2) if B[i][j])}
    # rows (mask, rhs) over GF(2): sum of x_e over the cycle's edges is 1,
    # x_e = 1 meaning a_ij > 0 on the edge e
    pivots = {}
    for _, edges in cycles:
        mask, rhs = sum(bit[e] for e in edges), 1
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, rhs)
                break
            pm, pr = pivots[top]
            mask, rhs = mask ^ pm, rhs ^ pr
        else:
            assert rhs == 0, "no admissible companion, against BGZ"
    positive = 0
    for top in sorted(pivots):  # back-substitute, free edges negative
        mask, rhs = pivots[top]
        rest = mask & ~(1 << top) & positive
        if rhs ^ (bin(rest).count("1") & 1):
            positive |= 1 << top
    d = symmetrizer(B)
    DA = [[2 * d[i] if i == j else
           (1 if bit[min(i, j), max(i, j)] & positive else -1) * d[i] * abs(B[i][j])
           if B[i][j] else 0 for j in range(n)] for i in range(n)]
    # Sylvester: positive definite iff every leading principal minor is > 0
    for k in range(1, n + 1):
        rank, pivot = bareiss([row[:k] for row in DA[:k]])
        if rank < k or pivot <= 0:
            return False
    return True


def random_matrix(rng, n):
    """A skew-symmetrizable n x n matrix with small entries: d_i in 1..3."""
    d = [rng.choice((1, 1, 1, 2, 3)) for _ in range(n)]
    density = rng.choice((0.3, 0.5, 0.8))
    B = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            s = rng.choice((-1, 1)) * rng.choice((1, 1, 1, 2))
            g = gcd(d[i], d[j])  # d_i b_ij = -d_j b_ji
            B[i][j], B[j][i] = s * d[j] // g, -s * d[i] // g
    return tuple(map(tuple, B))


def _agrees(B):
    verdict = classify_finite_type(ExchangeMatrix.make(B)).verdict
    assert verdict in ("finite", "infinite"), B
    assert (verdict == "finite") == bgz_finite(B), B
    return verdict == "finite"


def test_bgz_agrees_on_random_matrices():
    rng = random.Random(29)
    finite = sum(_agrees(random_matrix(rng, rng.randint(2, 7))) for _ in range(300))
    assert 30 < finite < 270  # both verdicts are well represented


def test_bgz_agrees_on_mutated_and_sign_flipped_finite_types():
    rng = random.Random(31)
    finite = 0
    for name in ("A4", "B3", "C4", "D5", "E6", "E7", "F4", "G2", "A6"):
        B = bipartite_seed(name).matrix
        for _ in range(4):
            for _ in range(rng.randint(1, 8)):
                B = matrix_mutate(B, rng.randrange(B.n))
            assert _agrees(B.entries)
            # negating one arrow pair keeps B skew-symmetrizable, not its type
            rows = [list(r) for r in B.entries]
            i, j = rng.sample(range(B.n), 2)
            rows[i][j], rows[j][i] = -rows[i][j], -rows[j][i]
            finite += _agrees(tuple(map(tuple, rows)))
    assert 0 < finite < 36
