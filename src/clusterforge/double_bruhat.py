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
from math import gcd, lcm, prod
from typing import Callable, Iterator, NamedTuple, Sequence

from .coxeter import CartanData, is_reduced
from .graphs import gvector_seeds
from .seeds import ExchangeMatrix, Seed, initial_seed, rank
from .util import int_det, parallel_map


class InvalidWord(ValueError):
    """A letter is not an int in +-[1, r], or a subword is not reduced."""


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
    w = tuple(word)  # a letter is an int, never converted to one
    if any(type(x) is not int or x == 0 or abs(x) > cartan.rank for x in w):
        raise InvalidWord(f"letters must be ints in +-[1, r], got {w!r}")
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
    and lazily.  A 1 x 1 minor is the entry itself and a 2 x 2 minor is
    ad - bc, both read straight off the rows of h; a larger one is
    ``util.int_det`` of its submatrix (a closed form at 3 x 3, Bareiss from
    4 x 4 up)."""
    for rows, cols in specs:
        k = len(rows)
        if k == 1:
            yield h[rows[0] - 1][cols[0] - 1]
        elif k == 2:
            top, bottom = h[rows[0] - 1], h[rows[1] - 1]
            a, b = cols[0] - 1, cols[1] - 1
            yield top[a] * bottom[b] - top[b] * bottom[a]
        else:
            yield int_det([[h[i - 1][j - 1] for j in cols] for i in rows])


# -- sampling -------------------------------------------------------------------


def _draw(getrandbits: Callable[[int], int], b: int) -> int:
    """``rng.randint(1, b)`` for b >= 1, given ``rng.getrandbits``: the
    same calls of b's bit length, redrawn while r >= b, as ``randint`` ->
    ``randrange`` -> ``_randbelow`` make them, without those three Python
    frames.  So the value and the state of rng afterwards are randint's."""
    k = b.bit_length()
    r = getrandbits(k)
    while r >= b:
        r = getrandbits(k)
    return 1 + r


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
    common denominator of g.  Each entry of the diagonal is drawn as
    numerator then denominator, each letter's t as a then b, and every
    draw is ``rng.randint(1, b)``'s, made by ``_draw``: the samples and the
    state of rng afterwards are those of the same draws through randint.
    """
    if cartan.family != "A":
        raise SubsetFormOnlyTypeA("total positivity sampling is type A only")
    size = cartan.rank + 1
    bits = rng.getrandbits
    diag = [(_draw(bits, 3), _draw(bits, 2)) for _ in range(size - 1)]
    # the last entry makes the product 1
    diag.append((prod(d for _, d in diag), prod(n for n, _ in diag)))
    cols = [[n if i == j else 0 for i in range(size)] for j, (n, _) in enumerate(diag)]
    at = [d for _, d in diag]
    den = lcm(*at)
    for letter in word:
        a, b = _draw(bits, 4), _draw(bits, 4)
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
    ``integer_minors``.  The minor of g at a k x k spec is the returned
    minor over den^k; the family minors of the word are positive on such a
    point, which the cell checks verify rather than assume.
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
    each ambient variable, both in the seed's order.

    B-tilde(i) has full rank n (BFZ III), which makes every seed of its
    class coprime; a matrix of lower rank is an ArithmeticError, a
    cross-check on build_btilde that correct code cannot trigger."""
    iw = indexed_word(cartan, word)
    bt = build_btilde(iw, cartan)
    seed = seed_from_btilde(bt)
    r = rank(seed.matrix)
    if r != seed.n:
        raise ArithmeticError(f"B-tilde of the word has rank {r}, not n = {seed.n}")
    positions = _seed_order(bt)
    specs = tuple(minor_spec(iw, cartan, k) for k in positions)
    return seed, positions, specs


def _monomials(column: Sequence[int], index: Sequence[int]) -> tuple:
    """M+ and M- of a B-tilde column as tuples of value indices: row i is
    read as index[i], repeated by its exponent."""
    return (tuple(index[i] for i, b in enumerate(column) for _ in range(b)),
            tuple(index[i] for i, b in enumerate(column) for _ in range(-b)))


def exchange_values(plan: Sequence[tuple], p: list, q: list) -> None:
    """Append to the values p[i] / q[i], q[i] > 0, that of each exchange
    relation (k, M+, M-) of plan in turn: x' = (M+ + M-) / x_k as one
    integer pair, cut by one gcd and with q > 0, so x' > 0 when its p is.
    An x_k of 0 raises ArithmeticError, also under ``python -O``."""
    for k, plus, minus in plan:
        if not p[k]:
            raise ArithmeticError(f"exchanged value {k} is 0")
        a = b = c = d = 1  # M+ = a / b, M- = c / d
        for i in plus:
            a *= p[i]
            b *= q[i]
        for i in minus:
            c *= p[i]
            d *= q[i]
        num, den = (a * d + c * b) * q[k], b * d * p[k]
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        p.append(num // g)
        q.append(den // g)


def _relation_plan(seed: Seed, clusters: int) -> tuple[list, list]:
    """The plan of ``exchange_values`` for the first ``clusters`` clusters
    of ``gvector_seeds`` (at least one), and each cluster's value indices.

    Values are the seed's ambient variables, then the new variables in the
    census's order (census id v >= n is value v + m - n), each planned by
    the relation that first reaches it."""
    n, shift = seed.n, seed.m - seed.n
    plan, found = [], []
    for _, _, ids, relation in islice(gvector_seeds(seed.matrix.entries), max(1, clusters)):
        index = [v if v < n else v + shift for v in ids] + list(range(n, seed.m))
        if relation and index[relation[0]] == seed.m + len(plan):  # a new variable
            k, out, column = relation
            plan.append((out if out < n else out + shift, *_monomials(column, index)))
        found.append(index[:n])
    return plan, found


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

    Samples are points g = h / den of the cell from ``sample_cell``, which
    checks determinant one and hands back the family minors.  Every family
    minor must be positive, else the sample fails with no comparison.  A
    closed form is a pair (d, f): f maps the integer matrix h (0-based
    rows) to an integer and is a homogeneous integer polynomial of degree
    d in its entries, so its value at g is f(h) / den^d.  At each
    exchangeable position l with a closed form, ``exchange_values``
    evaluates the initial seed's relation at l in the sample's minors, and
    its quotient p / q must satisfy p den^d == q f(h); other positions are
    not evaluated, and no rational matrix is built.  ``relations_checked``
    is samples x exchangeable positions regardless; ``closed_forms_checked``
    is samples x compared positions, so a form keyed by a position that is
    not exchangeable is not counted.
    """
    seed, positions, specs = _cell_setup(cartan, word)
    closed_forms = closed_forms or {}
    compared = [(j, l) for j, l in enumerate(positions[: seed.n]) if l in closed_forms]
    plan = [(j, *_monomials(seed.matrix.column(j), range(seed.m))) for j, _ in compared]
    forms = [(l, *closed_forms[l]) for _, l in compared]
    sizes = [len(rows) for rows, _ in specs]
    rng = random.Random(rng_seed)
    draws = [sample_cell(cartan, word, specs, rng) for _ in range(samples)]

    def check(draw) -> list[str]:
        h, den, minors = draw
        if any(m <= 0 for m in minors):
            return [_NOT_POSITIVE]
        if not compared:
            return []
        p, q = list(minors), [den ** s for s in sizes]
        exchange_values(plan, p, q)
        return [
            f"position {l}: quotient != closed form"
            for (l, d, f), x, y in zip(forms, p[seed.m:], q[seed.m:])
            if x * den ** d != y * f(h)
        ]

    return CellCheckReport(
        samples=samples,
        relations_checked=samples * seed.n,
        closed_forms_checked=samples * len(compared),
        failures=_failures(check, draws),
    )


def _minor(rows: Sequence[int], cols: Sequence[int]) -> tuple:
    """The closed form (k, f) of the k x k minor on the 1-based rows and
    cols: f is ``util.int_det`` of that submatrix of h, equal to the
    minor ``integer_minors`` gives."""
    rows, cols = [i - 1 for i in rows], [j - 1 for j in cols]
    return len(rows), lambda h: int_det([[h[i][j] for j in cols] for i in rows])


def open_cell_a2_closed_forms() -> dict:
    """Exchange partners of the initial cluster for the A2 open cell word,
    as closed forms (degree, h -> integer) in the entries of h.

    Positions follow the word (1, 2, 1, -1, -2, -1).
    """
    return {
        1: _minor([1, 2], [1, 3]),
        2: (3, lambda h: (
            h[0][1] * h[1][0] * h[2][2]
            - h[0][1] * h[1][2] * h[2][0]
            - h[0][2] * h[1][0] * h[2][1]
            + h[0][2] * h[1][1] * h[2][0]
        )),
        3: (1, lambda h: h[1][1]),
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
    of the family positive, the frozen ones included; additionally the
    variables of the first ``clusters`` clusters of ``gvector_seeds`` on
    the cell's B-tilde must all be positive there.  The family minors are
    the sampler's integer ones over den^k for a k x k minor, and a sample
    evaluates each distinct variable once, by the relation of
    ``_relation_plan`` that first reaches it, with ``exchange_values``.
    """
    seed, _, specs = _cell_setup(cartan, word)
    plan, found = _relation_plan(seed, clusters)
    sizes = [len(rows) for rows, _ in specs]

    rng = random.Random(rng_seed)
    draws = [sample_cell(cartan, word, specs, rng) for _ in range(samples)]

    def check(draw) -> list[str]:
        _, den, minors = draw
        local = [_NOT_POSITIVE] if any(m <= 0 for m in minors) else []
        p, q = list(minors), [den ** s for s in sizes]
        exchange_values(plan, p, q)
        return local + [f"cluster {ci}: variable not positive"
                        for ci, idx in enumerate(found) for i in idx if p[i] <= 0]

    return PositivityReport(
        samples=samples,
        minors_checked=samples * len(specs),
        clusters_checked=len(found),
        failures=_failures(check, draws),
    )
