import random
from fractions import Fraction

import pytest

from clusterforge.laurent import LaurentPoly
from clusterforge.seeds import ExchangeMatrix, general_seed, matrix_mutate
from clusterforge.tropical import (
    AcyclicSeedFound,
    NotCyclicEverywhere,
    Valuation,
    delta_witness,
    not_in_lower_bound_certificate,
    propagate_valuation,
    valuate,
)

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
