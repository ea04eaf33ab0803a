"""Combinatorics and exact numerics of double Bruhat cells.

From a double reduced word this module builds the interaction graph, the
extended exchange matrix (two independent code paths) and the minor row
and column sets, and verifies the induced cluster structure numerically
on random points of the cell, each drawn by factoring along the cell's
own double word.  All evaluation is exact over Q.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import lcm, prod
from typing import Callable, Iterator, NamedTuple, Sequence

from .coxeter import CartanData, is_reduced
from .graphs import exchange_seeds
from .laurent import evaluate_all
from .seeds import ExchangeMatrix, Seed, exchange_polynomial, initial_seed
from .util import int_det, parallel_map


class InvalidWord(ValueError):
    """The negative or positive subword is not reduced."""


class SubsetFormOnlyTypeA(TypeError):
    """Row/column subsets of fundamental weights exist only in type A here."""


class IndexedWord(NamedTuple):
    """A double reduced word with the prepended sentinel letters.

    Positions are -r..-1 (carrying letters -1..-r set to i_{-j} = -j) and
    1..N for the word itself.  ``k_plus`` maps each position to the next
    position carrying the same letter absolute value, with N+1 meaning
    "none"; positions with k and k_plus both inside [1, N] are the
    exchangeable ones and label matrix columns.
    """

    r: int
    word: tuple

    @property
    def N(self) -> int:
        return len(self.word)

    def positions(self) -> list[int]:
        return list(range(-self.r, 0)) + list(range(1, self.N + 1))

    def letter(self, k: int) -> int:
        return k if k < 0 else self.word[k - 1]

    def k_plus(self, k: int) -> int:
        a = abs(self.letter(k))
        for l in range(max(1, k + 1), self.N + 1):
            if abs(self.word[l - 1]) == a:
                return l
        return self.N + 1

    def exchangeable(self) -> list[int]:
        return [k for k in range(1, self.N + 1) if self.k_plus(k) <= self.N]


def indexed_word(cartan: CartanData, word: Sequence[int]) -> IndexedWord:
    """Validate the two subwords and attach position bookkeeping."""
    w = tuple(int(x) for x in word)
    if any(x == 0 or abs(x) > cartan.rank for x in w):
        raise InvalidWord("letters must lie in +-[1, r]")
    neg = [-x for x in w if x < 0]
    pos = [x for x in w if x > 0]
    if not is_reduced(neg, cartan):
        raise InvalidWord("negative subword is not reduced")
    if not is_reduced(pos, cartan):
        raise InvalidWord("positive subword is not reduced")
    return IndexedWord(cartan.rank, w)


# -- the interaction graph and matrix ------------------------------------------


def build_gamma_tilde(iw: IndexedWord, cartan: CartanData) -> tuple:
    """The sorted edges (src, dst, horizontal) of the directed interaction
    graph on iw.positions(), by the three adjacency rules, directed by the
    sign of the later letter.

    A pair k < l is connected only if one of them is exchangeable; the edge
    is horizontal when l is the next occurrence of k's letter, inclined
    otherwise, and an inclined edge needs a negative Cartan entry between
    the two letters.
    """
    ex = set(iw.exchangeable())
    sgn = lambda x: 1 if x > 0 else -1
    edges = []
    positions = iw.positions()
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            k, l = positions[a], positions[b]
            if k not in ex and l not in ex:
                continue
            ik, il = iw.letter(k), iw.letter(l)
            kp, lp = iw.k_plus(k), iw.k_plus(l)
            horizontal = l == kp
            inclined = False
            if not horizontal and cartan.A[abs(ik) - 1][abs(il) - 1] < 0:
                if l < kp < lp:  # kp <= N since kp < lp <= N+1
                    inclined = sgn(il) == sgn(iw.letter(kp))
                elif l < lp < kp:  # lp <= N likewise
                    inclined = sgn(il) == -sgn(iw.letter(lp))
            if not horizontal and not inclined:
                continue
            if horizontal:
                src, dst = (k, l) if sgn(il) == 1 else (l, k)
            else:
                src, dst = (k, l) if sgn(il) == -1 else (l, k)
            edges.append((src, dst, horizontal))
    return tuple(sorted(edges))


class BtildeMatrix(NamedTuple):
    """Extended exchange matrix in natural row order (-r..-1, 1..N)."""

    row_labels: tuple
    col_labels: tuple
    rows: tuple

    def to_json(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "btilde": [list(r) for r in self.rows],
        }


def build_btilde(iw: IndexedWord, cartan: CartanData) -> BtildeMatrix:
    """Matrix from the graph: signs from edge directions, sizes from Cartan entries."""
    positions = iw.positions()
    ex = iw.exchangeable()
    index = {k: i for i, k in enumerate(positions)}
    entries = [[0] * len(ex) for _ in positions]
    colpos = {l: j for j, l in enumerate(ex)}
    for src, dst, horizontal in build_gamma_tilde(iw, cartan):
        for k, l, sign in ((src, dst, 1), (dst, src, -1)):
            if l in colpos:
                mag = (
                    1
                    if horizontal
                    else -cartan.A[abs(iw.letter(k)) - 1][abs(iw.letter(l)) - 1]
                )
                entries[index[k]][colpos[l]] = sign * mag
    return BtildeMatrix(
        tuple(positions), tuple(ex), tuple(tuple(r) for r in entries)
    )


def btilde_direct(iw: IndexedWord, cartan: CartanData) -> BtildeMatrix:
    """Independent closed-form construction of the same matrix.

    For row k and column l set p = max(k, l), q = min(k+, l+); the entry is
    a signed Cartan magnitude when p = q or when p < q with matching sign
    data, and zero otherwise.
    """
    ex = iw.exchangeable()
    sgn = lambda x: (x > 0) - (x < 0)
    rows = []
    for k in iw.positions():
        row = []
        for l in ex:
            if k == l:
                row.append(0)
                continue
            p = max(k, l)
            q = min(iw.k_plus(k), iw.k_plus(l))
            if p == q:
                row.append(-sgn(k - l) * sgn(iw.letter(p)))
            elif p < q <= iw.N and (
                sgn(iw.letter(p))
                * sgn(iw.letter(q))
                * sgn(k - l)
                * sgn(iw.k_plus(k) - iw.k_plus(l))
                > 0
            ):
                row.append(
                    -sgn(k - l)
                    * sgn(iw.letter(p))
                    * cartan.A[abs(iw.letter(k)) - 1][abs(iw.letter(l)) - 1]
                )
            else:
                row.append(0)
        rows.append(tuple(row))
    return BtildeMatrix(tuple(iw.positions()), tuple(ex), tuple(rows))


def _seed_order(bt: BtildeMatrix) -> tuple:
    """Word positions in seed order: the exchangeable ones, then the frozen ones."""
    ex = set(bt.col_labels)
    return bt.col_labels + tuple(k for k in bt.row_labels if k not in ex)


def seed_from_btilde(bt: BtildeMatrix) -> Seed:
    """Reorder rows cluster-first and wrap as a seed (labels keep positions)."""
    order = _seed_order(bt)
    rows = [bt.rows[bt.row_labels.index(k)] for k in order]
    return initial_seed(ExchangeMatrix.make(rows, [f"x{k}" for k in order]))


def gamma_tilde_dot(iw: IndexedWord, edges: Sequence[tuple]) -> str:
    """Graphviz digraph on iw's positions: horizontal edges solid, inclined
    edges dashed."""
    lines = ["digraph G {"] + [f'  "{v}";' for v in iw.positions()]
    for s, d, h in edges:
        lines.append(f'  "{s}" -> "{d}" [style={"solid" if h else "dashed"}];')
    return "\n".join(lines + ["}"])


# -- minors -------------------------------------------------------------------


def minor_spec(iw: IndexedWord, cartan: CartanData, k: int) -> tuple:
    """Rows u([1, i]) and columns v([1, i]) of the minor at position k, as
    a pair of sorted tuples, for i = |i_k| and the permutations
    u = u_{<=k}, v = v_{>k}^{-1} of 1..r+1.

    Letter a applied on the right swaps entries a and a + 1.  u takes the
    negated negative letters up to k in word order, v the positive letters
    after k from the right end; a sentinel k < 0 reads as k = 0.
    """
    if cartan.family != "A":
        raise SubsetFormOnlyTypeA("minor row/column sets exist in type A only")
    i = abs(iw.letter(k))
    k = max(k, 0)
    u, v = list(range(1, iw.r + 2)), list(range(1, iw.r + 2))
    for perm, letters in (
        (u, [-x for x in iw.word[:k] if x < 0]),
        (v, [x for x in reversed(iw.word[k:]) if x > 0]),
    ):
        for a in letters:
            perm[a - 1], perm[a] = perm[a], perm[a - 1]
    return tuple(sorted(u[:i])), tuple(sorted(v[:i]))


def det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant of a rational or integer matrix: clear each row's
    denominators, then take ``util.int_det`` of the integer rows (closed
    forms up to 3 x 3, Bareiss from 4 x 4 up)."""
    scale = 1
    ints = []
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        scale *= s
        ints.append([x.numerator * (s // x.denominator) for x in row])
    return Fraction(int_det(ints), scale)


def evaluate_minor(spec: tuple, g: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """The minor of g on the sorted 1-based (rows, cols) of spec."""
    rows, cols = spec
    return det([[g[i - 1][j - 1] for j in cols] for i in rows])


def integer_minors(specs: Sequence[tuple], h: Sequence[Sequence[int]]) -> Iterator[int]:
    """The minor of the integer matrix h at each spec (rows, cols), in order
    and lazily: ``util.int_det`` of its submatrix, a closed form up to
    3 x 3 and Bareiss from 4 x 4 up."""
    for rows, cols in specs:
        yield int_det([[h[i - 1][j - 1] for j in cols] for i in rows])


# -- sampling -------------------------------------------------------------------


def sample_totally_positive(
    cartan: CartanData, word: Sequence[int], rng: random.Random
) -> tuple[tuple, int]:
    """Totally positive determinant-one sample g = h / den via positive
    elementary factors, as the integer matrix h and the denominator den.

    Multiplies a determinant-one diagonal of size - 1 random entries in
    [1, 3] / [1, 2] and the entry that makes their product 1 by the
    elementary Jacobi matrices x_i(t) (letter i > 0) and y_i(t) (letter -i)
    of any double word, with parameters t in [1, 4] / [1, 4].  Each factor
    acts on the right as one column operation: x_i(t) adds t times column
    i-1 to column i, y_i(t) adds t times column i to column i-1 (columns
    0-based).  So the matrix is kept as columns, each an integer vector
    col_j over the denominator at_j at which it was last written; the
    diagonal's columns start over their own denominators, and den is the
    running common multiple.  For t = a/b only the destination column is
    rewritten: it becomes b (den / at_dst) col_dst + a (den / at_src)
    col_src over b den, which is the new den.  At the end every column is
    scaled to den and the columns are transposed to the rows of h.  den is
    handed back as it is, not reduced: it may be a multiple of the least
    common denominator of g.
    """
    if cartan.family != "A":
        raise SubsetFormOnlyTypeA("total positivity sampling is type A only")
    size = cartan.rank + 1
    diag = [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(size - 1)]
    # the last entry makes the product 1
    diag.append((prod(d for _, d in diag), prod(n for n, _ in diag)))
    cols = [[n if i == j else 0 for i in range(size)] for j, (n, _) in enumerate(diag)]
    at = [d for _, d in diag]
    den = lcm(*at)
    for letter in word:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        i = abs(letter)
        dst, src = (i, i - 1) if letter > 0 else (i - 1, i)
        fd, fs = b * (den // at[dst]), a * (den // at[src])
        cols[dst] = [fd * x + fs * y for x, y in zip(cols[dst], cols[src])]
        den *= b
        at[dst] = den
    scaled = [[x * (den // d) for x in col] for col, d in zip(cols, at)]
    return tuple(zip(*scaled)), den


def sample_cell(
    cartan: CartanData, word: Sequence[int], specs: Sequence[tuple], rng: random.Random
) -> tuple[tuple, int, list]:
    """A point g = h / den of the double Bruhat cell of ``word``, as the
    integer matrix h, the denominator den and the integer minors of h at
    ``specs``, in order.

    The point is ``sample_totally_positive`` on the cell's own double word:
    a torus element times one elementary factor per letter, which lies in
    the cell (Fomin-Zelevinsky, Double Bruhat cells and total positivity,
    Thm 1.2).  ``util.int_det(h)`` must be den^size, else
    ``ArithmeticError``, also under ``python -O``.  The minors come from
    ``integer_minors``, closed forms up to 3 x 3 and Bareiss from 4 x 4 up.
    The minor of g at a k x k spec is the returned minor over den^k; the
    family minors of the word are positive on such a point, which the cell
    checks verify rather than assume.
    """
    h, den = sample_totally_positive(cartan, word, rng)
    d = int_det(h)
    if d != den ** len(h):
        raise ArithmeticError(
            f"cell sample has determinant {Fraction(d, den ** len(h))}, not 1")
    return h, den, list(integer_minors(specs, h))


# -- the shared check pipeline ----------------------------------------------------


def _cell_setup(cartan: CartanData, word: Sequence[int]) -> tuple[Seed, tuple, tuple]:
    """The seed of a double word, with the word position and the minor of
    each ambient variable, both in the seed's order."""
    iw = indexed_word(cartan, word)
    bt = build_btilde(iw, cartan)
    positions = _seed_order(bt)
    specs = tuple(minor_spec(iw, cartan, k) for k in positions)
    return seed_from_btilde(bt), positions, specs


_NOT_POSITIVE = "a family minor is not positive"


def _failures(check: Callable, gs: Sequence) -> tuple:
    """Run a per-sample check; each message it returns is tagged with its sample."""
    return tuple(
        f"sample {i}: {msg}"
        for i, messages in enumerate(parallel_map(check, gs))
        for msg in messages
    )


# Shared by the two check reports: the counts of one check run and its
# per-sample failure messages.
def _report_ok(self) -> bool:
    return not self.failures


def _report_to_json(self) -> dict:
    return {**self._asdict(), "failures": list(self.failures), "ok": self.ok}


# -- identity verification -------------------------------------------------------


class CellCheckReport(NamedTuple):
    samples: int
    relations_checked: int
    closed_forms_checked: int
    failures: tuple

    ok = property(_report_ok)
    to_json = _report_to_json


def verify_cell_identities(
    cartan: CartanData,
    word: Sequence[int],
    samples: int = 100,
    rng_seed: int = 1,
    closed_forms: dict | None = None,
) -> CellCheckReport:
    """Check the exchange structure on random cell samples, exactly.

    Samples are points of the cell from ``sample_cell``, which checks
    determinant one and hands back the family minors.  Every family minor
    must be positive, else the sample fails with no comparison.  At each
    exchangeable position l with a closed form (a callable g ->
    Fraction), the exchange polynomial is evaluated in the sample's minors
    and divided by the minor at l, and must equal the closed form; other
    positions are not evaluated.  g and the rational minors are built
    only when a position is compared.  ``relations_checked`` is samples x
    exchangeable positions regardless; ``closed_forms_checked`` is samples
    x compared positions, so a form keyed by a position that is not
    exchangeable is not counted.
    """
    seed, positions, specs = _cell_setup(cartan, word)
    closed_forms = closed_forms or {}
    compared = [
        (j, l, exchange_polynomial(seed, j))
        for j, l in enumerate(positions[: seed.n])
        if l in closed_forms
    ]
    rng = random.Random(rng_seed)
    draws = [sample_cell(cartan, word, specs, rng) for _ in range(samples)]

    def check(draw) -> list[str]:
        h, den, minors = draw
        if any(m <= 0 for m in minors):
            return [_NOT_POSITIVE]
        if not compared:
            return []
        g = [[Fraction(x, den) for x in row] for row in h]
        values = [Fraction(m, den ** len(rows)) for (rows, _), m in zip(specs, minors)]
        return [
            f"position {l}: quotient != closed form"
            for j, l, P in compared
            if P.evaluate(values) / values[j] != closed_forms[l](g)
        ]

    return CellCheckReport(
        samples=samples,
        relations_checked=samples * seed.n,
        closed_forms_checked=samples * len(compared),
        failures=_failures(check, draws),
    )


def _minor(rows: Sequence[int], cols: Sequence[int]) -> Callable:
    spec = tuple(rows), tuple(cols)
    return lambda g: evaluate_minor(spec, g)


def open_cell_a2_closed_forms() -> dict:
    """Exchange partners of the initial cluster for the A2 open cell word.

    Positions follow the word (1, 2, 1, -1, -2, -1).
    """
    return {
        1: _minor([1, 2], [1, 3]),
        2: lambda g: (
            g[0][1] * g[1][0] * g[2][2]
            - g[0][1] * g[1][2] * g[2][0]
            - g[0][2] * g[1][0] * g[2][1]
            + g[0][2] * g[1][1] * g[2][0]
        ),
        3: lambda g: g[1][1],
        4: _minor([1, 3], [1, 2]),
    }


def coxeter_cell_word(cartan: CartanData) -> tuple:
    """The double word (-1..-r, 1..r) for the pair (c, c)."""
    r = cartan.rank
    return tuple([-(i + 1) for i in range(r)] + [i + 1 for i in range(r)])


def coxeter_cell_closed_forms(cartan: CartanData) -> dict:
    """For the (c, c) cell the exchange partner at j is the principal minor."""
    return {
        j: _minor(range(1, j + 1), range(1, j + 1))
        for j in range(1, cartan.rank + 1)
    }


# -- total positivity -------------------------------------------------------------


class PositivityReport(NamedTuple):
    samples: int
    minors_checked: int
    clusters_checked: int
    failures: tuple

    ok = property(_report_ok)
    to_json = _report_to_json


def tp_criterion_check(
    cartan: CartanData,
    word: Sequence[int],
    samples: int = 50,
    clusters: int = 10,
    rng_seed: int = 1,
) -> PositivityReport:
    """Positivity of the minor family and of explored clusters on TP samples.

    Each totally positive sample from ``sample_cell`` must make every minor
    of the family positive, the frozen ones included; additionally, for
    ``clusters`` explored clusters, the cluster variables (as Laurent
    polynomials in the initial minors) must all evaluate positively.  The
    family minors are the integer ones the sampler hands back; it has
    already checked determinant one.  The distinct cluster variables are
    evaluated together at each sample, by one ``evaluate_all`` call.
    """
    seed, _, specs = _cell_setup(cartan, word)
    found = [s.exprs for s, _ in islice(exchange_seeds(seed), max(1, clusters))]
    # clusters share variables: evaluate each distinct one once per sample
    index: dict = {}
    found_idx = [[index.setdefault(e, len(index)) for e in exprs] for exprs in found]
    variables = list(index)

    rng = random.Random(rng_seed)
    draws = [sample_cell(cartan, word, specs, rng) for _ in range(samples)]

    def check(draw) -> list[str]:
        _, den, minors = draw
        local = [_NOT_POSITIVE] if any(m <= 0 for m in minors) else []
        values = [Fraction(m, den ** len(rows)) for (rows, _), m in zip(specs, minors)]
        positive = [v > 0 for v in evaluate_all(variables, values)]
        for ci, idx in enumerate(found_idx):
            for i in idx:
                if not positive[i]:
                    local.append(f"cluster {ci}: variable not positive")
        return local

    return PositivityReport(
        samples=samples,
        minors_checked=samples * len(specs),
        clusters_checked=len(found),
        failures=_failures(check, draws),
    )
