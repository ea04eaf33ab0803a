"""Exchange matrices and seeds of geometric type, with exact mutation.

An extended exchange matrix is an m x n integer matrix whose rows are
labeled by all ambient variables (the first n rows are the cluster part,
rows n..m-1 are frozen) and whose columns are the n mutable directions.
A seed carries such a matrix together with the Laurent expressions of its
cluster variables in the initial extended cluster; every mutation performs
the exchange-relation division exactly, so a failed division (which would
contradict Laurent behavior) raises NotDivisible instead of approximating.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg
from typing import NamedTuple, Sequence

from .laurent import Context, LaurentPoly
from .util import bareiss, check_keys, decimal_int, symmetrizer


class SignSkewSymmetryLost(ArithmeticError):
    """A principal part that is not sign-skew-symmetric, given or mutated."""


def diagram_of(rows: Sequence[Sequence[int]]) -> dict:
    """The diagram of the principal part of rows, checked.

    rows are those of an m x n matrix B with n <= m; the first n make its
    principal part.  Returns {(i, j): |b_ij b_ji|} over the arrows (i, j)
    of Gamma(B), those with b_ij > 0, taking the pairs i < j in order.
    B must be sign-skew-symmetric (Fomin-Zelevinsky, *Cluster algebras I*,
    Section 4): b_ii = 0, and b_ij = b_ji = 0 or b_ij b_ji < 0, so no weight
    is 0.  Otherwise SignSkewSymmetryLost names the first bad diagonal
    entry or entry pair in that order.  Every message of this module
    counts rows, columns and directions from 1, as the CLI types them.
    """
    n = len(rows[0]) if rows else 0
    weights = {}
    for i in range(n):
        row = rows[i]
        if row[i]:
            raise SignSkewSymmetryLost(
                f"diagonal entry b[{i + 1}][{i + 1}] = {row[i]} is not 0")
        for j in range(i + 1, n):
            a, b = row[j], rows[j][i]
            if a or b:
                w = -a * b
                if w <= 0:
                    raise SignSkewSymmetryLost(
                        f"entries b[{i + 1}][{j + 1}] = {a} and b[{j + 1}][{i + 1}] = {b} "
                        "are not of opposite signs")
                weights[(i, j) if a > 0 else (j, i)] = w
    return weights


class ExchangeMatrix(NamedTuple):
    """m x n integer matrix with cluster rows first; immutable.

    make checks the principal part with diagram_of and matrix_mutate
    checks every mutation, so every matrix they return is
    sign-skew-symmetric.
    """

    entries: tuple[tuple[int, ...], ...]
    n: int
    labels: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.entries)

    @staticmethod
    def make(rows: Sequence[Sequence[int]], labels: Sequence[str] | None = None
             ) -> "ExchangeMatrix":
        entries = tuple(tuple(row) for row in rows)
        m = len(entries)
        n = len(entries[0]) if entries else 0
        if any(len(r) != n for r in entries):
            raise ValueError("ragged matrix")
        if n > m:
            raise ValueError("need at least as many rows as columns")
        bad = [x for r in entries for x in r if type(x) is not int]
        if bad:
            raise ValueError(f"matrix entry {bad[0]!r} is not an integer")
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(m))
        if not isinstance(labels, (list, tuple)) or any(type(x) is not str for x in labels):
            raise ValueError(f"labels {labels!r} are not a list of strings")
        if len(labels) != m:
            raise ValueError(f"{len(labels)} labels for {m} rows")
        if len(set(labels)) != m:
            raise ValueError(f"labels {list(labels)!r} repeat")
        diagram_of(entries)
        return ExchangeMatrix(entries, n, tuple(labels))

    def principal(self) -> tuple[tuple[int, ...], ...]:
        return tuple(row[: self.n] for row in self.entries[: self.n])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "labels": list(self.labels),
            "btilde": [list(r) for r in self.entries],
        }

    @staticmethod
    def from_json(data) -> "ExchangeMatrix":
        check_keys(data, ("btilde",), "seed JSON", ("labels", "n", "m"))
        # a string row is not read as its characters
        btilde = data["btilde"]
        if type(btilde) is not list or any(type(r) is not list for r in btilde):
            raise ValueError(f"btilde {btilde!r} is not a list of lists")
        # decimal strings carry integers up to CPython's int-str digit limit
        rows = [[decimal_int(x) if type(x) is str else x for x in r] for r in btilde]
        # a labels key must hold a list: null is not read as "no labels"
        labels = data.get("labels")
        if "labels" in data and type(labels) is not list:
            raise ValueError(f"labels {labels!r} are not a list of strings")
        mat = ExchangeMatrix.make(rows, labels)
        for key, size in (("n", mat.n), ("m", mat.m)):
            given = data.get(key, size)
            if type(given) is not int or given != size:
                raise ValueError(f"seed JSON {key} = {given!r} is not the integer {size}")
        return mat


def skew_symmetrizer(B: ExchangeMatrix) -> tuple[int, ...] | None:
    """Positive integer diagonal D with d_i b_ij = -d_j b_ji, or None.

    B is sign-skew-symmetric, so d_i |b_ij| = d_j |b_ji| is the same condition.
    """
    return symmetrizer(B.principal())


def is_skew_symmetrizable(B: ExchangeMatrix) -> bool:
    return skew_symmetrizer(B) is not None


def mutate_rows(entries: tuple, k: int) -> tuple:
    """The rows of matrix mutation in direction k, with no check.

    b'_ij = -b_ij if i = k or j = k, and otherwise b_ij + |b_ik| b_kj
    where b_ik b_kj > 0, else b_ij.  So row k is negated, a row with
    b_ik = 0 is kept as it is, and any other row changes only in column k
    and where b_kj has the sign of b_ik.
    """
    pivot = entries[k]
    plus = [(j, x) for j, x in enumerate(pivot) if x > 0]
    minus = [(j, x) for j, x in enumerate(pivot) if x < 0]
    new_rows = []
    for i, row in enumerate(entries):
        bik = row[k]
        if i == k:
            row = tuple(map(neg, row))
        elif bik:
            new = list(row)
            for j, x in plus if bik > 0 else minus:
                new[j] += abs(bik) * x
            new[k] = -bik
            row = tuple(new)
        new_rows.append(row)
    return tuple(new_rows)


def matrix_mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (0-based, named from 1), on all m rows.

    The rows are mutate_rows(B.entries, k); IndexError refuses any other k
    than 0..n-1 first.  Raises SignSkewSymmetryLost, naming the direction
    and the entries, if diagram_of finds the mutated principal part is not
    sign-skew-symmetric: a non-totally-mutable input is reported, not run on.
    """
    if not 0 <= k < B.n:
        raise IndexError(f"direction {k + 1} out of range 1..{B.n}")
    rows = mutate_rows(B.entries, k)
    try:
        diagram_of(rows)
    except SignSkewSymmetryLost as exc:
        raise SignSkewSymmetryLost(f"mutation at direction {k + 1}: {exc}") from None
    return ExchangeMatrix(rows, B.n, B.labels)


def rank(B: ExchangeMatrix) -> int:
    """Exact rank by fraction-free (Bareiss) elimination over Z."""
    return bareiss(B.entries)[0]


def _proportional_odd_ratio(ci: tuple[int, ...], cj: tuple[int, ...]) -> bool:
    """True iff cj = r*ci with |r| a ratio of two odd integers."""
    if all(x == 0 for x in ci) and all(x == 0 for x in cj):
        return True  # ratio 1
    t = next((t for t in range(len(ci)) if ci[t] != 0 or cj[t] != 0), None)
    if t is None or ci[t] == 0 or cj[t] == 0:
        return False
    r = Fraction(cj[t], ci[t])
    if any(Fraction(y) != r * x for x, y in zip(ci, cj)):
        return False
    return r.numerator % 2 != 0 and r.denominator % 2 != 0


def is_coprime(B: ExchangeMatrix) -> bool:
    """Pairwise coprimality of the exchange polynomials.

    Two columns spoil coprimality exactly when they are proportional with
    the proportionality coefficient an odd/odd rational.
    """
    cols = [B.column(j) for j in range(B.n)]
    for i in range(B.n):
        for j in range(i + 1, B.n):
            if _proportional_odd_ratio(cols[i], cols[j]):
                return False
    return True


# -- seeds -------------------------------------------------------------------


class Seed(NamedTuple):
    """A seed of geometric type with exact initial-cluster expressions.

    ``exprs`` holds the n current cluster variables as Laurent polynomials
    in the initial extended cluster; frozen variables are the generators
    themselves and never change.  ``general`` marks single-use seeds whose
    frozen block encodes formal coefficient symbols; those must not be
    mutated repeatedly, since the geometric-type coefficient rule would
    silently reinterpret the symbols.
    """

    matrix: ExchangeMatrix
    ctx: Context
    exprs: tuple[LaurentPoly, ...]
    history: tuple[int, ...] = ()
    general: bool = False

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def m(self) -> int:
        return self.matrix.m

    def all_exprs(self) -> list[LaurentPoly]:
        """Expressions of all m ambient variables (frozen ones are generators)."""
        return list(self.exprs) + [self.ctx.var(i) for i in range(self.n, self.m)]


def initial_seed(B: ExchangeMatrix) -> Seed:
    ctx = Context(B.labels)
    exprs = tuple(ctx.var(j) for j in range(B.n))
    return Seed(B, ctx, exprs)


def general_seed(principal: Sequence[Sequence[int]]) -> Seed:
    """Seed over a principal matrix with formal coefficients p_j^+,p_j^-.

    The 2n coefficient symbols are realized as frozen rows (+1 and -1 in
    column j respectively), which reproduces the exchange polynomials
    P_j = p_j^+ prod x^(b+) + p_j^- prod x^(b-).  Intended for single-seed
    computations (bounds, straightening); repeated mutation is refused.
    """
    n = len(principal)
    rows = [list(row) for row in principal]  # make refuses a non-int entry
    for j in range(n):
        rows.append([1 if i == j else 0 for i in range(n)])
    for j in range(n):
        rows.append([-1 if i == j else 0 for i in range(n)])
    labels = (
        [f"x{i + 1}" for i in range(n)]
        + [f"p{i + 1}+" for i in range(n)]
        + [f"p{i + 1}-" for i in range(n)]
    )
    B = ExchangeMatrix.make(rows, labels)
    seed = initial_seed(B)
    return Seed(seed.matrix, seed.ctx, seed.exprs, (), True)


def exchange_polynomial(seed: Seed, j: int) -> LaurentPoly:
    """P_j = prod_{b_ij>0} x_i^{b_ij} + prod_{b_ij<0} x_i^{-b_ij}.

    The product runs over all m rows, so frozen rows contribute the
    geometric-type coefficient monomials.  Expressed in the seed's own
    formal ambient variables, not composed with the current expressions.
    """
    col = seed.matrix.column(j)
    plus = {i: b for i, b in enumerate(col) if b > 0}
    minus = {i: -b for i, b in enumerate(col) if b < 0}
    return seed.ctx.monomial(plus) + seed.ctx.monomial(minus)


def adjacent_variable(seed: Seed, j: int) -> LaurentPoly:
    """The exchange partner x'_j of the seed, in initial-cluster coordinates."""
    value = exchange_polynomial(seed, j).compose(seed.all_exprs())
    return value.divide_exact(seed.exprs[j])


def seed_mutate(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k: exact exchange-relation division.

    NotDivisible propagates if the new cluster variable fails to be a
    Laurent polynomial in the initial extended cluster, which would mean
    the input was not totally mutable (or a bug upstream).
    """
    if seed.general and seed.history:
        raise ValueError("formal-coefficient seeds support single mutations only")
    new_expr = adjacent_variable(seed, k)
    new_matrix = matrix_mutate(seed.matrix, k)
    exprs = tuple(
        new_expr if j == k else seed.exprs[j] for j in range(seed.n)
    )
    return Seed(new_matrix, seed.ctx, exprs, seed.history + (k,), seed.general)
