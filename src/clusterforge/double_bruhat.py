"""Combinatorics and exact numerics of double Bruhat cells.

From a double reduced word this module builds the interaction graph and
the extended exchange matrix (two independent code paths), the partial
Weyl products and minor specifications, and verifies the induced cluster
structure numerically on random rational matrices of determinant one.
All evaluation is exact over Q.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice, takewhile
from math import lcm, prod
from typing import Callable, Iterator, Sequence

from .coxeter import (
    CartanData,
    SubsetFormOnlyTypeA,
    WeylElement,
    fundamental_subset,
    is_reduced,
    word_product,
)
from .graphs import dot, exchange_seeds
from .seeds import ExchangeMatrix, Seed, exchange_polynomial, initial_seed
from .util import bareiss, mat_mul, parallel_map


class InvalidWord(ValueError):
    """The negative or positive subword is not reduced."""


class SamplingExhausted(RuntimeError):
    """Retry budget spent without meeting the nonvanishing conditions."""


@dataclass(frozen=True)
class IndexedWord:
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


@dataclass(frozen=True)
class GammaTilde:
    """Directed interaction graph; an edge remembers whether it is horizontal."""

    vertices: tuple
    edges: tuple  # (src, dst, horizontal: bool)


def build_gamma_tilde(iw: IndexedWord, cartan: CartanData) -> GammaTilde:
    """Edges by the three adjacency rules, directed by the sign of the later letter.

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
    return GammaTilde(tuple(positions), tuple(sorted(edges)))


@dataclass(frozen=True)
class BtildeMatrix:
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
    g = build_gamma_tilde(iw, cartan)
    ex = iw.exchangeable()
    index = {k: i for i, k in enumerate(g.vertices)}
    entries = [[0] * len(ex) for _ in g.vertices]
    colpos = {l: j for j, l in enumerate(ex)}
    for src, dst, horizontal in g.edges:
        for k, l, sign in ((src, dst, 1), (dst, src, -1)):
            if l in colpos:
                mag = (
                    1
                    if horizontal
                    else -cartan.A[abs(iw.letter(k)) - 1][abs(iw.letter(l)) - 1]
                )
                entries[index[k]][colpos[l]] = sign * mag
    return BtildeMatrix(
        tuple(g.vertices), tuple(ex), tuple(tuple(r) for r in entries)
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


def gamma_tilde_dot(g: GammaTilde) -> str:
    return dot(
        g.vertices,
        ((s, d, f"style={'solid' if h else 'dashed'}") for s, d, h in g.edges),
    )


# -- partial products and minors -----------------------------------------------


def partial_products(
    iw: IndexedWord, cartan: CartanData, k: int
) -> tuple[WeylElement, WeylElement]:
    """The pair (u_{<=k}, v_{>k}); for sentinel positions (e, v^{-1})."""
    if k < 0:
        v_full = word_product(cartan, [x for x in iw.word if x > 0])
        return WeylElement.identity(cartan), v_full.inverse()
    u = WeylElement.identity(cartan)
    for l in range(1, k + 1):
        if iw.word[l - 1] < 0:
            u = u * WeylElement.simple(cartan, -iw.word[l - 1] - 1)
    v = WeylElement.identity(cartan)
    for l in range(iw.N, k, -1):
        if iw.word[l - 1] > 0:
            v = v * WeylElement.simple(cartan, iw.word[l - 1] - 1)
    return u, v


@dataclass(frozen=True)
class MinorSpec:
    """Row and column index sets of a type A generalized minor."""

    rows: frozenset
    cols: frozenset


def minor_spec(iw: IndexedWord, cartan: CartanData, k: int) -> MinorSpec:
    if cartan.family != "A":
        raise SubsetFormOnlyTypeA("minor row/column sets exist in type A only")
    u, v = partial_products(iw, cartan, k)
    i = abs(iw.letter(k))
    return MinorSpec(fundamental_subset(u, i), fundamental_subset(v, i))


def det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant of a rational or integer matrix: clear each row's
    denominators, then eliminate over Z."""
    scale = 1
    ints = []
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        scale *= s
        ints.append([x.numerator * (s // x.denominator) for x in row])
    rank, pivot = bareiss(ints)
    return Fraction(pivot, scale) if rank == len(rows) else Fraction(0)


def evaluate_minor(spec: MinorSpec, g: Sequence[Sequence[Fraction | int]]) -> Fraction:
    rows = sorted(spec.rows)
    cols = sorted(spec.cols)
    return det([[g[i - 1][j - 1] for j in cols] for i in rows])


def integer_minors(specs: Sequence[MinorSpec], h: Sequence[Sequence[int]]) -> Iterator[int]:
    """The minor of the integer matrix h at each spec, in order and lazily:
    a 1x1 minor is read off, a larger one is Bareiss on its submatrix."""
    for spec in specs:
        rows, cols = sorted(spec.rows), sorted(spec.cols)
        if len(rows) == 1:
            yield h[rows[0] - 1][cols[0] - 1]
        else:
            rank, pivot = bareiss([[h[i - 1][j - 1] for j in cols] for i in rows])
            yield pivot if rank == len(rows) else 0


# -- sampling -------------------------------------------------------------------


def _unitriangular(rng: random.Random, size: int, lower: bool) -> tuple[list, int]:
    """A random unitriangular factor with entries in [-3, 3] / [1, 3], as an
    integer matrix and the denominator it is to be divided by."""
    draws = [
        (i, j, rng.randint(-3, 3), rng.randint(1, 3))
        for i in range(size)
        for j in range(size)
        if ((i > j) if lower else (i < j))
    ]
    den = lcm(*(b for *_, b in draws))
    m = [[den * (i == j) for j in range(size)] for i in range(size)]
    for i, j, a, b in draws:
        m[i][j] = a * (den // b)
    return m, den


def _det_one_diagonal(rng: random.Random, size: int, den_max: int) -> tuple[list, int]:
    """size - 1 random positive rationals and the entry that makes their
    product 1, as integers and the common denominator they are over."""
    diag = [Fraction(rng.randint(1, 3), rng.randint(1, den_max)) for _ in range(size - 1)]
    diag.append(1 / prod(diag, start=Fraction(1)))
    den = lcm(*(d.denominator for d in diag))
    return [d.numerator * (den // d.denominator) for d in diag], den


def nonvanishing_conditions(
    cartan: CartanData, u: WeylElement, v: WeylElement
) -> list[MinorSpec]:
    """The 2r open-cell conditions: minors at (u w_i, w_i) and (w_i, v^{-1} w_i)."""
    specs = []
    vinv = v.inverse()
    e = WeylElement.identity(cartan)
    for i in range(1, cartan.rank + 1):
        specs.append(MinorSpec(fundamental_subset(u, i), fundamental_subset(e, i)))
        specs.append(MinorSpec(fundamental_subset(e, i), fundamental_subset(vinv, i)))
    return specs


def sample_cell(
    cartan: CartanData,
    u: WeylElement,
    v: WeylElement,
    rng: random.Random,
    extra_nonzero: Sequence[MinorSpec] = (),
    tries: int = 200,
    minors: list | None = None,
) -> Sequence[Sequence[Fraction]]:
    """Random rational determinant-one matrix meeting the nonvanishing minors.

    Built as lower-unitriangular x diagonal(det 1) x upper-unitriangular
    with small random rational entries, resampled until every required
    minor (the open-cell ones and ``extra_nonzero``, each distinct one
    once) is nonzero.  Each try clears the denominators of the three
    factors, so it works on the integer matrix h = den * g: one integer
    matrix product, one determinant, which must be den^size (else
    ``ArithmeticError``, also under ``python -O``), and integer minors
    until one vanishes.  Only the accepted h is divided into Fractions.
    A list ``minors`` is extended with the minors of g at
    ``extra_nonzero``, as Fraction(m, den^k) for each k x k minor m of h;
    the draws are the same without it.
    """
    if cartan.family != "A":
        raise SubsetFormOnlyTypeA("cell sampling implemented for type A only")
    size = cartan.rank + 1
    conditions = list(
        dict.fromkeys([*nonvanishing_conditions(cartan, u, v), *extra_nonzero])
    )
    for _ in range(tries):
        lo, lo_den = _unitriangular(rng, size, lower=True)
        up, up_den = _unitriangular(rng, size, lower=False)
        ints, diag_den = _det_one_diagonal(rng, size, 3)
        h = mat_mul(lo, [[d * x for x in row] for d, row in zip(ints, up)])
        den = lo_den * diag_den * up_den
        d = det(h)
        if d != den**size:
            raise ArithmeticError(f"cell sample has determinant {d / den**size}, not 1")
        values = list(takewhile(bool, integer_minors(conditions, h)))
        if len(values) == len(conditions):
            if minors is not None:
                value = dict(zip(conditions, values))
                minors.extend(Fraction(value[s], den ** len(s.rows)) for s in extra_nonzero)
            return tuple(tuple(Fraction(x, den) for x in row) for row in h)
    raise SamplingExhausted(f"no valid sample in {tries} tries")


def sample_totally_positive(
    cartan: CartanData, word: Sequence[int], rng: random.Random
) -> tuple[tuple, int]:
    """Totally positive determinant-one sample g = h / den via positive
    elementary factors, as the integer matrix h and the denominator den.

    Multiplies a positive determinant-one diagonal by the elementary Jacobi
    matrices x_i(t) (letter i > 0) and y_i(t) (letter -i) of any double
    word, with positive parameters.  Each factor acts on the right
    as one column operation: x_i(t) adds t times column i-1 to column i,
    y_i(t) adds t times column i to column i-1 (columns 0-based).  The
    product is an integer matrix over one running denominator: for
    t = a/b, the matrix is scaled by b and a times the old source column
    is added to the destination column.  The running denominator is
    handed back as it is, not reduced.
    """
    if cartan.family != "A":
        raise SubsetFormOnlyTypeA("total positivity sampling is type A only")
    size = cartan.rank + 1
    ints, den = _det_one_diagonal(rng, size, 2)
    h = [[ints[i] if i == j else 0 for j in range(size)] for i in range(size)]
    for letter in word:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        i = abs(letter)
        dst, src = (i, i - 1) if letter > 0 else (i - 1, i)
        den *= b
        for row in h:
            add = a * row[src]
            row[:] = [b * x for x in row]
            row[dst] += add
    return tuple(map(tuple, h)), den


# -- the shared check pipeline ----------------------------------------------------


def _cell_setup(cartan: CartanData, word: Sequence[int]) -> tuple[Seed, tuple, tuple]:
    """The seed of a double word, with the word position and the minor of
    each ambient variable, both in the seed's order."""
    iw = indexed_word(cartan, word)
    bt = build_btilde(iw, cartan)
    positions = _seed_order(bt)
    specs = tuple(minor_spec(iw, cartan, k) for k in positions)
    return seed_from_btilde(bt), positions, specs


def _failures(check: Callable, gs: Sequence) -> tuple:
    """Run a per-sample check; each message it returns is tagged with its sample."""
    return tuple(
        f"sample {i}: {msg}"
        for i, messages in enumerate(parallel_map(check, gs))
        for msg in messages
    )


class _Report:
    """Counts of one check run and its per-sample failure messages."""

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {**asdict(self), "failures": list(self.failures), "ok": self.ok}


# -- identity verification -------------------------------------------------------


@dataclass(frozen=True)
class CellCheckReport(_Report):
    samples: int
    relations_checked: int
    closed_forms_checked: int
    failures: tuple


def verify_cell_identities(
    cartan: CartanData,
    word: Sequence[int],
    samples: int = 100,
    rng_seed: int = 1,
    closed_forms: dict | None = None,
) -> CellCheckReport:
    """Check the exchange structure on random cell samples, exactly.

    Samples come from ``sample_cell``, which checks determinant one and
    keeps every minor of the family nonzero.  At each exchangeable position
    l with a closed form (a callable g -> Fraction), the exchange polynomial
    is evaluated in the sample's minors and divided by the minor at l, and
    must equal the closed form; other positions are not evaluated.  The
    minors are those the sampler computed to accept the sample, asked for
    only when a position is compared.  ``relations_checked`` is samples x
    exchangeable positions regardless; ``closed_forms_checked`` is samples
    x compared positions, so a form keyed by a position that is not
    exchangeable is not counted.
    """
    seed, positions, specs = _cell_setup(cartan, word)
    u = word_product(cartan, [-x for x in word if x < 0])
    v = word_product(cartan, [x for x in word if x > 0])
    closed_forms = closed_forms or {}
    compared = [
        (j, l, exchange_polynomial(seed, j))
        for j, l in enumerate(positions[: seed.n])
        if l in closed_forms
    ]
    rng = random.Random(rng_seed)
    draws = []
    for _ in range(samples):
        values = [] if compared else None
        draws.append((sample_cell(cartan, u, v, rng, specs, minors=values), values))

    def check(draw) -> list[str]:
        g, values = draw
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
    spec = MinorSpec(frozenset(rows), frozenset(cols))
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


@dataclass(frozen=True)
class PositivityReport(_Report):
    samples: int
    minors_checked: int
    clusters_checked: int
    failures: tuple


def tp_criterion_check(
    cartan: CartanData,
    word: Sequence[int],
    samples: int = 50,
    clusters: int = 10,
    rng_seed: int = 1,
) -> PositivityReport:
    """Positivity of the minor family and of explored clusters on TP samples.

    Each totally positive sample must make every minor of the family
    positive; additionally, for ``clusters`` explored clusters, the cluster
    variables (as Laurent polynomials in the initial minors), the frozen
    minors and the determinant must all evaluate positively.  A sample's
    family minors and determinant are read from the integer matrix that
    sample_totally_positive hands back with its denominator.
    """
    seed, _, specs = _cell_setup(cartan, word)
    found = [s.exprs for s, _ in islice(exchange_seeds(seed), max(1, clusters))]
    # clusters share variables: evaluate each distinct one once per sample
    index: dict = {}
    found_idx = [[index.setdefault(e, len(index)) for e in exprs] for exprs in found]
    variables = list(index)

    rng = random.Random(rng_seed)
    gs = [sample_totally_positive(cartan, word, rng) for _ in range(samples)]
    frozen_idx = range(seed.n, seed.m)

    def check(sample) -> list[str]:
        local = []
        h, den = sample
        ms = integer_minors(specs, h)
        values = [Fraction(m, den ** len(s.rows)) for s, m in zip(specs, ms)]
        if any(v <= 0 for v in values):
            local.append("a family minor is not positive")
        if det(h) <= 0:  # det(g) = det(h) / den^size, den > 0
            local.append("determinant is not positive")
        positive = [e.evaluate(values) > 0 for e in variables]
        for ci, idx in enumerate(found_idx):
            for i in idx:
                if not positive[i]:
                    local.append(f"cluster {ci}: variable not positive")
        for i in frozen_idx:
            if values[i] <= 0:
                local.append("frozen minor not positive")
        return local

    return PositivityReport(
        samples=samples,
        minors_checked=samples * len(specs),
        clusters_checked=len(found),
        failures=_failures(check, gs),
    )
