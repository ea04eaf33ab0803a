import random
from fractions import Fraction

import pytest

from clusterforge import tropical
from clusterforge.laurent import LaurentPoly
from clusterforge.seeds import (
    ExchangeMatrix,
    exchange_polynomial,
    general_seed,
    matrix_mutate,
    skew_symmetrizer,
)
from clusterforge.tropical import (
    AcyclicSeedFound,
    NotCyclicEverywhere,
    Valuation,
    delta_witness,
    not_in_lower_bound_certificate,
    propagate_valuation,
    valuate,
)

from clusterforge.util import sqrt_fraction

from conftest import MARKOV
from test_bounds import markov_y


def w(seed, values):
    return Valuation.on_cluster(seed, values)


def test_valuate_examples(markov_seed):
    ctx = markov_seed.ctx
    v = w(markov_seed, (1, 1, 1))
    y = ctx.monomial({0: 2, 1: 1}) + ctx.var(2)
    assert valuate(y, v) == 1
    frozen = ctx.monomial({ctx.index("p1+"): 3, ctx.index("p2-"): -1})
    assert valuate(frozen, v) == 0
    assert valuate(markov_y(markov_seed), v) == 0


def test_valuation_axioms_sampled(markov_seed):
    rng = random.Random(3)
    ctx = markov_seed.ctx
    v = w(markov_seed, (1, 2, Fraction(1, 2)))

    def rand(positive):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * ctx.nvars
            for i in range(3):
                e[i] = rng.randint(-2, 2)
            c = rng.randint(1, 4) if positive else rng.choice((-2, -1, 1, 2))
            terms[tuple(e)] = c
        return LaurentPoly(ctx, terms)

    for _ in range(60):
        a, b = rand(False), rand(False)
        assert valuate(a * b, v) == valuate(a, v) + valuate(b, v)
        if not (a + b).is_zero():
            assert valuate(a + b, v) >= min(valuate(a, v), valuate(b, v))
        ap, bp = rand(True), rand(True)
        assert valuate(ap + bp, v) == min(valuate(ap, v), valuate(bp, v))


def test_propagate_constant_one_markov(markov_seed):
    out = propagate_valuation(markov_seed, w(markov_seed, (1, 1, 1)), depth=5)
    assert len(out.values) == 1 + 3 * (2 ** 5 - 1)
    assert all(t == (1, 1, 1) for t in out.values.values())


def test_propagate_depth_zero(markov_seed):
    v0 = w(markov_seed, (2, 3, 5))
    out = propagate_valuation(markov_seed, v0, depth=0)
    assert out.values == {"": (2, 3, 5)}


def oracle_propagation(B_rows, nu0, depth):
    """Independent plain recursion used as the test oracle."""
    from clusterforge.seeds import ExchangeMatrix, matrix_mutate

    out = {"": tuple(Fraction(x) for x in nu0)}
    mats = {"": ExchangeMatrix.make([list(r) for r in B_rows])}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for addr in frontier:
            for j in range(3):
                if addr and int(addr[-1]) - 1 == j:
                    continue
                child = addr + str(j + 1)
                P = mats[addr].principal()
                i, k = [t for t in range(3) if t != j]
                nu = out[addr]
                val = min(abs(P[i][j]) * nu[i], abs(P[k][j]) * nu[k]) - nu[j]
                out[child] = tuple(val if t == j else nu[t] for t in range(3))
                mats[child] = matrix_mutate(mats[addr], j)
                nxt.append(child)
        frontier = nxt
    return out


def test_propagate_against_oracle(markov_seed):
    v0 = w(markov_seed, (1, 1, 2))
    got = propagate_valuation(markov_seed, v0, depth=3)
    expected = oracle_propagation(MARKOV, (1, 1, 2), 3)
    assert got.values == expected


def test_propagate_rejects_acyclic():
    seed = general_seed([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
    with pytest.raises(NotCyclicEverywhere):
        propagate_valuation(seed, w(seed, (1, 1, 1)), depth=2)


def test_delta_witness_markov_strictly_decreasing():
    B = ExchangeMatrix.make(MARKOV)
    out = delta_witness(B, radius=4)
    assert out.valid
    assert out.sequence[:4] == (0, -1, -2, -4)
    assert all(a > b for a, b in zip(out.sequence, out.sequence[1:]))
    # shifted assignment: nonnegative inside, negative witness outside
    addr, idx = out.negative_at
    assert len(addr) == 5
    assert out.shifted[addr][idx - 1] < 0


def test_delta_witness_radius_zero():
    out = delta_witness(ExchangeMatrix.make(MARKOV), radius=0)
    assert out.valid
    assert out.sequence[0] == 0 > out.sequence[1]


def test_delta_witness_edge_weights_are_halves():
    out = delta_witness(ExchangeMatrix.make(MARKOV), radius=2)
    assert all(
        e["u_parent"] == Fraction(1, 2) and e["u_child"] == Fraction(1, 2)
        for e in out.assignment.edge_data.values()
    )


def test_delta_matches_renormalized_valuation(markov_seed):
    # nu_j = h_j s_j delta_j with h = 1 and s = 2 on this matrix
    depth = 3
    deltas = delta_witness(ExchangeMatrix.make(MARKOV), radius=depth).assignment
    nus = propagate_valuation(markov_seed, w(markov_seed, (0, 0, 2)), depth=depth + 1)
    for addr, triple in nus.values.items():
        if len(addr) > depth:
            continue
        assert triple == tuple(2 * x for x in deltas.values[addr])


def test_delta_witness_rejects_acyclic_matrix():
    with pytest.raises(AcyclicSeedFound):
        delta_witness(
            ExchangeMatrix.make([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]), radius=2
        )


def test_delta_witness_skew_symmetrizable_weight_two():
    # symmetrizer (1, 1, 2): the square roots leave Q but stay exact, and
    # s1^2 + s2^2 + s3^2 - s1 s2 s3 = 0 keeps the whole class cyclic
    B = ExchangeMatrix.make([[0, 4, -4], [-4, 0, 4], [2, -2, 0]])
    out = delta_witness(B, radius=3)
    assert out.valid
    assert all(a > b for a, b in zip(out.sequence, out.sequence[1:]))


def test_certificate_markov_valid(markov_seed):
    v = w(markov_seed, (1, 1, 1))
    cert = not_in_lower_bound_certificate(markov_y(markov_seed), markov_seed, v)
    assert cert.valid
    assert cert.value == 0
    assert all(a == 1 and b == 1 for a, b in cert.generator_values)


def test_certificate_cluster_variable_invalid(markov_seed):
    v = w(markov_seed, (1, 1, 1))
    cert = not_in_lower_bound_certificate(markov_seed.ctx.var(0), markov_seed, v)
    assert not cert.valid


def test_certificate_constant_invalid(markov_seed):
    v = w(markov_seed, (1, 1, 1))
    cert = not_in_lower_bound_certificate(markov_seed.ctx.const(3), markov_seed, v)
    assert not cert.valid


def test_certificate_negative_value_path(markov_seed):
    v = w(markov_seed, (1, 1, 1))
    ctx = markov_seed.ctx
    cert = not_in_lower_bound_certificate(ctx.monomial({0: -1}), markov_seed, v)
    assert cert.valid
    assert cert.value == -1


@pytest.mark.parametrize("delta0", [(0, 0), (0, 0, 1, 5)])
def test_delta_witness_needs_a_triple(delta0):
    with pytest.raises(ValueError, match="3 entries"):
        delta_witness(ExchangeMatrix.make(MARKOV), radius=1, delta0=delta0)


# -- the one tree walk and degree map against separately kept references ------


def reference_tree_walk(depth):
    """(parent_address, direction) pairs in breadth-first order."""
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for addr in frontier:
            last = int(addr[-1]) - 1 if addr else None
            for j in range(3):
                if j == last:
                    continue
                nxt.append((addr, j))
        yield from nxt
        frontier = [a + str(j + 1) for a, j in nxt]


def reference_propagate_valuation(seed, v0, depth):
    """Reference propagation: a separate walk and a dict of every tree matrix."""
    P0 = tropical._principal3(seed.matrix)
    if not tropical._is_cyclic3(P0):
        raise NotCyclicEverywhere("the initial matrix is not cyclic")
    nu0 = tuple(v0.weights[:3])
    matrices = {"": ExchangeMatrix.make([list(r) for r in P0])}
    values = {"": nu0}
    for addr, j in reference_tree_walk(depth):
        child = addr + str(j + 1)
        M = matrices[addr]
        P = M.principal()
        if not tropical._is_cyclic3(P):
            raise NotCyclicEverywhere(f"acyclic matrix at address {addr!r}")
        i, k = tropical._others(j)
        nu = values[addr]
        new_j = min(abs(P[i][j]) * nu[i], abs(P[k][j]) * nu[k]) - nu[j]
        values[child] = tuple(new_j if t == j else nu[t] for t in range(3))
        matrices[child] = matrix_mutate(M, j)
    return tropical.TreeAssignment(values, {})


def reference_delta_witness(B, radius, delta0=(0, 0, 1)):
    """Reference delta recursion: a separate walk and its own bookkeeping of
    unexpanded matrices."""
    if len(delta0) != 3:
        raise ValueError(f"delta0 needs 3 entries, got {len(delta0)}")
    P0 = tropical._principal3(B)
    if not tropical._is_cyclic3(P0):
        raise AcyclicSeedFound("the initial matrix is not cyclic")
    d = skew_symmetrizer(B)
    if d is None:
        raise ValueError("delta recursion requires a skew-symmetrizable matrix")
    pairs = [tropical._others(j) for j in range(3)]
    rad = [tropical._squarefree(d[i] * d[k]) for i, k in pairs]

    def root_over(w, j):
        q = sqrt_fraction(Fraction(w, rad[j]))
        if q is None:
            raise ArithmeticError(f"{w}/{rad[j]} is not a rational square")
        return q

    def roots(P):
        return tuple(
            root_over(abs(P[i][k] * P[k][i]), j) for j, (i, k) in enumerate(pairs)
        )

    cross = [root_over(rad[i] * rad[k], j) for j, (i, k) in enumerate(pairs)]
    M0 = ExchangeMatrix.make([list(r) for r in P0])
    unexpanded = {"": (M0, roots(P0))}
    deltas = {"": tuple(Fraction(x) for x in delta0)}
    edge_data = {}
    parent = None
    for addr, j in reference_tree_walk(radius + 1):
        child = addr + str(j + 1)
        if addr != parent:
            parent, (M, s) = addr, unexpanded.pop(addr)
        i, k = pairs[j]
        M2 = matrix_mutate(M, j)
        P2 = M2.principal()
        if not tropical._is_cyclic3(P2):
            raise AcyclicSeedFound(f"acyclic matrix at address {child!r}")
        s2 = roots(P2)
        total = s[j] + s2[j]
        if s[i] * s[k] * cross[j] != total:
            raise AssertionError("square-root recursion mismatch")
        u_par, u_child = s[j] / total, s2[j] / total
        dl = deltas[addr]
        new_j = (min(dl[i], dl[k]) - u_par * dl[j]) / u_child
        deltas[child] = tuple(new_j if t == j else dl[t] for t in range(3))
        unexpanded[child] = (M2, s2)
        edge_data[child] = {"direction": j + 1, "u_parent": u_par, "u_child": u_child}

    sequence = []
    for r in range(radius + 2):
        layer = [min(t) for a, t in deltas.items() if len(a) == r]
        sequence.append(min(layer))
    strict = all(a > b for a, b in zip(sequence, sequence[1:]))
    shift = sequence[radius]
    shifted = {a: tuple(x - shift for x in t) for a, t in deltas.items()}
    negative_at = None
    for a, t in sorted(shifted.items()):
        if len(a) == radius + 1:
            for idx, x in enumerate(t):
                if x < 0:
                    negative_at = (a, idx + 1)
                    break
        if negative_at:
            break
    ok_inside = all(
        x >= 0 for a, t in shifted.items() if len(a) <= radius for x in t
    )
    return tropical.DeltaWitness(
        assignment=tropical.TreeAssignment(deltas, edge_data),
        sequence=tuple(sequence),
        shifted=shifted,
        radius=radius,
        strictly_decreasing=strict,
        nonnegative_inside=ok_inside,
        negative_at=negative_at,
    )


def reference_homogeneous_value(y, v):
    vals = {
        sum((Fraction(e_i) * w_i for e_i, w_i in zip(e, v.weights)), Fraction(0))
        for e in y.terms
    }
    return vals.pop() if len(vals) == 1 else None


def reference_certificate(y, seed, v):
    """Reference certificate with a separate homogeneous-value function."""
    Cert = tropical.LowerBoundCertificate
    if y.is_zero():
        return Cert(False, "zero element", None, (), v)
    if any(w != 0 for w in v.weights[seed.n :]):
        return Cert(False, "frozen variables must have weight zero", None, (), v)
    n = seed.n
    gen_vals = []
    homogeneous = True
    for j in range(n):
        P = exchange_polynomial(seed, j)
        pv = reference_homogeneous_value(P, v)
        if pv is None:
            homogeneous = False
            pv = valuate(P, v)
        gen_vals.append((v.weights[j], pv - v.weights[j]))
    value = valuate(y, v)
    all_gens = [x for pair in gen_vals for x in pair]
    if value < 0 and all(g >= 0 for g in all_gens):
        return Cert(True, "negative value with nonnegative generators", value,
                    tuple(gen_vals), v)
    nonconstant = any(any(e[:n]) for e in y.terms)
    y_hom = reference_homogeneous_value(y, v)
    g_min = min(all_gens)
    if (homogeneous and y_hom is not None and nonconstant
            and all(g > 0 for g in all_gens) and value < g_min):
        return Cert(True, "homogeneous of value below every generator", value,
                    tuple(gen_vals), v)
    if not nonconstant:
        reason = "element is constant over the coefficients"
    elif value >= g_min:
        reason = "value does not separate from the generators"
    elif not homogeneous or y_hom is None:
        reason = "grading argument needs homogeneity"
    else:
        reason = "generators not strictly positive"
    return Cert(False, reason, value, tuple(gen_vals), v)


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def random_rank3(rng):
    """A sign-skew-symmetric 3x3 matrix, mostly cyclic: arbitrary,
    skew-symmetric or skew-symmetrized by a diagonal of 1s and 2s."""
    kind = rng.randrange(3)
    d = [rng.choice((1, 2)) for _ in range(3)] if kind == 2 else [1, 1, 1]
    cyclic = rng.random() < 0.85
    sign = rng.choice((1, -1))
    P = [[0] * 3 for _ in range(3)]
    for i, k in ((0, 1), (1, 2), (2, 0)):
        c = sign * rng.randint(1, 3) if cyclic else rng.randint(-3, 3)
        b = rng.randint(1, 3) if kind == 0 else abs(c)
        P[i][k], P[k][i] = c * d[k], -(b if c > 0 else -b if c else 0) * d[i]
    return P


def random_weight(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def test_mutation_tree_walk_matches_reference_propagation():
    rng = random.Random(2024)
    for case in range(1500):
        P = random_rank3(rng)
        seed = general_seed(P)
        v0 = w(seed, [random_weight(rng) for _ in range(3)])
        depth = rng.randint(0, 4)
        assert outcome(propagate_valuation, seed, v0, depth) == outcome(
            reference_propagate_valuation, seed, v0, depth
        ), (case, P, depth)


def _witness_values(witness):
    """Every number a delta witness holds."""
    out = list(witness.sequence)
    for table in (witness.assignment.values, witness.shifted):
        out += [x for t in table.values() for x in t]
    for e in witness.assignment.edge_data.values():
        out += [e["u_parent"], e["u_child"]]
    return out


def test_mutation_tree_walk_matches_reference_delta_witness():
    rng = random.Random(2025)
    kinds = set()
    cases = []
    for _ in range(1500):
        B = ExchangeMatrix.make(random_rank3(rng))
        radius = rng.randint(0, 3)
        cases.append((B, radius, [random_weight(rng) for _ in range(3)]))
    # Markov's edge ratios are all integers and the weight-9 cycle's are not,
    # so the recursion runs in ints and in Fractions from each kind of start
    for P in (MARKOV, [[0, 3, -3], [-3, 0, 3], [3, -3, 0]]):
        for delta0 in ((0, 0, 1), (0, 1 / 2, 1), (0, Fraction("0.5"), 1)):
            cases.append((ExchangeMatrix.make(P), 5, delta0))
    for case, (B, radius, delta0) in enumerate(cases):
        got = outcome(delta_witness, B, radius, delta0)
        want = outcome(reference_delta_witness, B, radius, delta0)
        assert got == want, (case, B)
        if got[0] == "value":
            assert got[1].to_json() == want[1].to_json(), (case, B)
            assert not any(isinstance(x, float) for x in _witness_values(got[1]))
        kinds.add(got[0] if got[0] == "value" else got[1])
    # the cases reach a witness and each way the recursion can stop
    assert {"value", AcyclicSeedFound, ValueError}.issubset(kinds)


def test_markov_tree_mutates_each_distinct_pair_once(monkeypatch):
    # 6,141 tree edges at radius 10, but only M and -M occur in the tree
    calls = []

    def counting_matrix_mutate(M, j):
        calls.append(j)
        return matrix_mutate(M, j)

    monkeypatch.setattr(tropical, "matrix_mutate", counting_matrix_mutate)
    B = ExchangeMatrix.make(MARKOV)
    got = delta_witness(B, 10)
    assert len(calls) <= 6
    assert got == reference_delta_witness(B, 10)
    seed = general_seed(MARKOV)
    v0 = w(seed, (1, 2, 3))
    calls.clear()
    assert propagate_valuation(seed, v0, 6) == reference_propagate_valuation(seed, v0, 6)
    assert len(calls) <= 6


def test_one_degree_map_matches_reference_certificate():
    rng = random.Random(2026)
    reasons = set()
    for case in range(1000):
        seed = general_seed(random_rank3(rng))
        if rng.random() < 0.5:  # a common weight makes relations homogeneous
            cluster = [random_weight(rng)] * 3
        else:
            cluster = [random_weight(rng) for _ in range(3)]
        frozen = [0 if rng.random() < 0.95 else 1 for _ in range(seed.m - 3)]
        v = Valuation(tuple(cluster + [Fraction(x) for x in frozen]))
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = [0] * seed.m
            for i in rng.sample(range(seed.m), rng.randint(0, 2)):
                e[i] = rng.randint(-2, 2)
            terms[tuple(e)] = rng.choice((-2, -1, 1, 3))
        y = LaurentPoly(seed.ctx, terms)
        got = not_in_lower_bound_certificate(y, seed, v)
        assert got == reference_certificate(y, seed, v), (case, terms, v)
        reasons.add(got.reason)
    assert len(reasons) >= 6
