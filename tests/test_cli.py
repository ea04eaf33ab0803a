import argparse
import hashlib
import json
import os
import subprocess
import sys
from itertools import islice

import pytest

from clusterforge import cli, graphs, seeds
from clusterforge.cli import main
from clusterforge.laurent import LaurentPoly
from clusterforge.seeds import ExchangeMatrix

from conftest import MARKOV, SL3_ROWS, SL3_LABELS
from test_graphs import cell_seed, principal_coefficient_seed
from test_upper_bound_oracle import a3_open_cell_elements


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def seed_json():
    return json.dumps(
        {
            "n": 4,
            "m": 8,
            "labels": list(SL3_LABELS),
            "btilde": [list(r) for r in SL3_ROWS],
        }
    )


def test_btilde_golden(capsys):
    code, data = run(
        capsys, "btilde", "--type", "A2", "--word", "1 2 1 -1 -2 -1"
    )
    assert code == 0
    assert data["btilde"][0] == [-1, 1, 0, 0]
    assert data["rows"] == [-2, -1, 1, 2, 3, 4, 5, 6]
    assert data["direct_construction_agrees"] is True
    assert "digraph" in data["gamma_dot"]


def test_classify_markov(capsys):
    code, data = run(capsys, "classify", "--matrix", json.dumps(MARKOV))
    assert code == 0
    assert data["verdict"] == "infinite"
    assert data["witness_weight"] == 4


def test_explore_sl3(capsys):
    code, data = run(capsys, "explore", "--seed", seed_json())
    assert code == 0
    assert data["clusters"] == 50 and data["variables"] == 16


@pytest.mark.parametrize("name, max_seeds, clusters", [("A3 open cell", 400, 400),
                                                       ("principal E6", 10_000, 833)],
                         ids=["A3 open cell", "principal E6"])
def test_explore_prints_the_laurent_census_report(capsys, name, max_seeds, clusters):
    # explore counts these frozen-row seeds by g-vectors; its stdout is the
    # report of the Laurent census, built here from exchange_seeds, byte for byte
    seed = cell_seed("A3", "open") if name == "A3 open cell" else principal_coefficient_seed("E6")
    search = ((tuple(e.key() for e in s.exprs), depth)
              for s, depth in graphs.exchange_seeds(seed))
    found = list(islice(search, max_seeds))
    rep = graphs.ExplorationReport(
        clusters=len(found),
        variables=len({v for cluster, _ in found for v in cluster}),
        mutations=len(found) * seed.n,
        exhausted=next(search, None) is None,
        max_depth=max(depth for _, depth in found),
    )
    assert rep.clusters == clusters
    cli._emit(rep.to_json())
    expected = capsys.readouterr().out
    code = main(["explore", "--seed", json.dumps(seed.matrix.to_json()),
                 "--max-seeds", str(max_seeds)])
    assert capsys.readouterr().out == expected
    assert code == (0 if rep.exhausted else 1)


def test_mutate_roundtrip(capsys):
    code, data = run(
        capsys, "mutate", "--matrix", seed_json(), "--directions", "2 2"
    )
    assert code == 0
    assert data["btilde"] == [list(r) for r in SL3_ROWS]


def test_acyclic_exit_codes(capsys):
    code, data = run(capsys, "acyclic", "--matrix", json.dumps(MARKOV))
    assert code == 1 and data["acyclic"] is False
    code, data = run(capsys, "acyclic", "--matrix", "[[0, 1], [-1, 0]]")
    assert code == 0 and data["acyclic"] is True
    code, data = run(capsys, "acyclic", "--matrix", "[[0,1,-1],[-1,0,1],[1,-1,0]]")
    assert code == 1 and data == {"acyclic": False, "order": None}
    # an oriented 3-cycle with b_ji = 0 on every arrow is not sign-skew-symmetric:
    # an error, not "verified false"
    code, data = run(capsys, "acyclic", "--matrix", "[[0,1,0],[0,0,1],[1,0,0]]")
    assert code == 2 and data is None


def test_diffcomb(capsys):
    code, data = run(capsys, "diffcomb", "--size", "3")
    assert code == 0 and data["holds"] is True


def test_roots(capsys):
    code, data = run(capsys, "roots", "--type", "D4")
    assert code == 0 and data["count"] == 12


def test_verify_cell(capsys):
    code, data = run(
        capsys,
        "verify-cell", "--type", "A2", "--word", "1 2 1 -1 -2 -1",
        "--samples", "5", "--rng-seed", "2",
    )
    assert code == 0 and data["ok"] is True
    assert data["closed_forms_checked"] == 20


def test_tp_check(capsys):
    code, data = run(
        capsys,
        "tp-check", "--type", "A2", "--word", "1 2 1 -1 -2 -1",
        "--samples", "3", "--clusters", "3", "--rng-seed", "2",
    )
    assert code == 0 and data["ok"] is True


def test_upper_member_true_and_false(capsys):
    seed = seed_json()
    x2 = {"vars": list(SL3_LABELS), "terms": [{"exp": [0, 1, 0, 0, 0, 0, 0, 0], "coef": "1"}]}
    code, data = run(capsys, "upper-member", "--seed", seed, "--num", json.dumps(x2))
    assert code == 0 and data["member"] is True
    inv = {"vars": list(SL3_LABELS), "terms": [{"exp": [-1, 0, 0, 0, 0, 0, 0, 0], "coef": "1"}]}
    code, data = run(capsys, "upper-member", "--seed", seed, "--num", json.dumps(inv))
    assert code == 1 and data["member"] is False


def test_upper_member_short_exponent_exits_2(capsys):
    short = {"vars": list(SL3_LABELS), "terms": [{"exp": [0, 1], "coef": "1"}]}
    code = main(["upper-member", "--seed", seed_json(), "--num", json.dumps(short)])
    assert code == 2
    assert "entries" in capsys.readouterr().err


def test_upper_member_stdout_on_a3_open_cell_elements(capsys):
    """The oracle's 60 seeded A3 open-cell elements, 29 of them non-members:
    the stdout of upper-member, certificates and reasons included, hashes to
    the digest recorded when membership expanded y in every power of each
    variable."""
    seed, elements = a3_open_cell_elements()
    matrix = json.dumps(seed.matrix.to_json())
    digest, codes = hashlib.sha256(), []
    for y in elements:
        codes.append(main(["upper-member", "--seed", matrix, "--num", json.dumps(y.to_json())]))
        digest.update(capsys.readouterr().out.encode())
    assert (codes.count(0), codes.count(1)) == (31, 29)
    assert digest.hexdigest() == (
        "14d459ef758397fff0c525036d975662d9a58b1cfe7bf16398c5f6fa4cbe28d2"
    )


def _a1xa1_poly(*terms, names=("x1", "x2")):
    return json.dumps(
        {"vars": list(names), "terms": [{"exp": list(e), "coef": str(c)} for e, c in terms]}
    )


_A1XA1_NUM = _a1xa1_poly(((1, 0), 1), ((0, 1), 1))  # x1 + x2


def _upper_member_den(den):
    return ["upper-member", "--seed", "[[0, 1], [-1, 0]]", "--num", _A1XA1_NUM, "--den", den]


@pytest.mark.parametrize(
    "den, code, reason",
    [
        (_a1xa1_poly(((0, 1), 1)), 1, "direction 2: coefficient of power -1 not divisible"),
        (_a1xa1_poly(((1, 0), 1), ((0, 0), 1)), 1, "not Laurent in the initial extended cluster"),
        (_a1xa1_poly(((1, 0), 2), ((0, 1), 2)), 1, "not Laurent in the initial extended cluster"),
        (_A1XA1_NUM, 0, "member of all adjacent Laurent rings"),
    ],
    ids=["x2", "x1+1", "2x1+2x2-quotient-1/2", "x1+x2-quotient-1"],
)
def test_upper_member_den(capsys, den, code, reason):
    got, data = run(capsys, *_upper_member_den(den))
    assert got == code and data["member"] is (code == 0)
    assert data["reason"] == reason
    if reason.startswith("not Laurent"):
        assert data["certificates"] == {}
    if code == 0:  # the quotient is 1: nothing has a negative power
        assert data["certificates"] == {"1": [], "2": []}


@pytest.mark.parametrize(
    "den, error",
    [
        (json.dumps({"vars": ["x1", "x2"], "terms": []}), "ZeroDivisionError"),
        (_a1xa1_poly(((1, 0), 1), names=("a", "b")), "ContextMismatch"),
    ],
    ids=["zero", "other-vars"],
)
def test_upper_member_bad_den_exits_2(capsys, den, error):
    code = main(_upper_member_den(den))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {error}: ")


# CPython's limit on int <-> decimal string conversion (0: no limit)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="no int digit limit")


def _c_over_x1(digits):
    """C/x1 + C*x2/x1 with a coefficient C of this many digits, built as
    text, since C may be past the limit."""
    c = "9" * digits
    return json.dumps({"vars": ["x1", "x2"], "terms": [
        {"exp": [-1, 0], "coef": c}, {"exp": [-1, 1], "coef": c}]})


@needs_int_limit
def test_coefficient_at_the_digit_limit_round_trips(capsys):
    # the certificate in direction 1 is x1 * num = C + C*x2, so its quotient is C
    code, data = run(capsys, "upper-member", "--seed", "[[0, 1], [-1, 0]]",
                     "--num", _c_over_x1(INT_DIGITS))
    assert code == 0 and data["member"] is True
    (cert,) = data["certificates"]["1"]
    assert cert["quotient"]["terms"] == [{"exp": [0, 0], "coef": "9" * INT_DIGITS}]


@needs_int_limit
@pytest.mark.parametrize(
    "argv",
    [
        ["upper-member", "--seed", "[[0, 1], [-1, 0]]", "--num", _c_over_x1(INT_DIGITS + 1)],
        ["explore", "--seed", '{"btilde": [[0, "%s"], [-1, 0]]}' % ("1" * (INT_DIGITS + 1))],
        ["explore", "--seed", "[[0, %s], [-1, 0]]" % ("1" * (INT_DIGITS + 1))],
        # entries within the limit whose mutated products are not
        ["mutate", "--matrix", "[[0, {c}, 0], [-{c}, 0, {c}], [0, -{c}, 0]]".format(
            c="9" * (INT_DIGITS // 2 + 1)), "--directions", "2"],
    ],
    ids=["coefficient", "entry-string", "entry-literal", "printed-entry"],
)
def test_integer_past_the_digit_limit_exits_2(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: Exceeds the limit")
    # the user's lever is the interpreter's -X option, not a Python call
    assert err.endswith("; use python -X int_max_str_digits=N to increase the limit\n")
    assert "sys.set_int_max_str_digits" not in err


def test_upper_member_empty_den_is_an_error(capsys):
    # 1/x1 alone exits 1, so exit 2 shows the empty --den was parsed, not dropped
    argv = _upper_member_den("")
    argv[argv.index("--num") + 1] = _a1xa1_poly(((-1, 0), 1))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: not valid JSON and not a file: ''")


def test_straighten_cli(capsys):
    vars_ = ["x1", "x2", "x3", "x1'", "x2'", "x3'", "p1+", "p2+", "p3+", "p1-", "p2-", "p3-"]
    poly = {
        "vars": vars_,
        "terms": [{"exp": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0], "coef": "1"}],
    }
    code, data = run(
        capsys, "straighten", "--matrix", json.dumps(MARKOV), "--poly", json.dumps(poly)
    )
    assert code == 0
    # x1 x1' -> P_1, which carries no primed symbols
    assert all(all(t["exp"][3:6] == [0, 0, 0] for t in data["terms"]) for _ in [0])


@pytest.mark.parametrize("slot", [0, 2])  # x1 and x1'
def test_straighten_cli_refuses_negative_generator_exponents(capsys, slot):
    exp = [0, 0, 1, 0, 0, 0, 0, 0]
    exp[slot] = -1
    poly = {"vars": ["x1", "x2", "x1'", "x2'", "p1+", "p2+", "p1-", "p2-"],
            "terms": [{"exp": exp, "coef": "1"}]}
    code = main(["straighten", "--matrix", "[[0,1],[-1,0]]", "--poly", json.dumps(poly)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: ValueError: generator polynomials have nonnegative exponents\n"


def test_tropical_propagation(capsys):
    markov_seed = json.dumps({"n": 3, "m": 3, "labels": ["x1", "x2", "x3"],
                              "btilde": [list(r) for r in MARKOV]})
    code, data = run(
        capsys, "tropical", "--seed", markov_seed, "--nu", "1,1,1", "--depth", "3"
    )
    assert code == 0
    assert data[""] == ["1", "1", "1"]
    assert data["213"] == ["1", "1", "1"]


def test_tropical_delta_witness(capsys):
    markov_seed = json.dumps({"n": 3, "m": 3, "labels": ["x1", "x2", "x3"],
                              "btilde": [list(r) for r in MARKOV]})
    code, data = run(
        capsys, "tropical", "--seed", markov_seed, "--delta", "0,0,1", "--radius", "3"
    )
    assert code == 0
    assert data["sequence"] == ["0", "-1", "-2", "-4", "-7"]


@pytest.mark.parametrize(
    "mode, message",
    [(["--delta", "0,0,1", "--nu", "1,1,1"], "one of --nu and --delta"),
     (["--delta", "0,0,1", "--depth", "2"], "--delta with --radius"),
     (["--nu", "1,1,1", "--radius", "2"], "--nu goes with --depth")],
    ids=["nu-with-delta", "depth-with-delta", "radius-with-nu"],
)
def test_tropical_mixed_modes_are_usage_errors(capsys, mode, message):
    with pytest.raises(SystemExit) as exc:
        main(["tropical", "--seed", json.dumps(MARKOV), *mode])
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert message in err


def test_tropical_defaults_per_mode(capsys):
    code, data = run(capsys, "tropical", "--seed", json.dumps(MARKOV), "--delta", "0,0,1")
    assert code == 0 and data["radius"] == 4 and len(data["sequence"]) == 6
    code, data = run(capsys, "tropical", "--seed", json.dumps(MARKOV), "--nu", "1,1,1")
    assert code == 0 and max(map(len, data)) == 3


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mutate"])  # missing required flags
    assert exc.value.code == 64
    capsys.readouterr()


def test_error_exit_2(capsys):
    code = main(["roots", "--type", "Z9"])
    assert code == 2
    capsys.readouterr()


def test_out_of_range_direction_exits_2(capsys):
    # the direction as typed, and the 1-based range of a 2-column matrix
    for directions, bad in (("3", 3), ("0", 0), ("-1", -1), ("1 3", 3)):
        code = main(["mutate", "--matrix", "[[0,1],[-1,0]]", "--directions", directions])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: IndexError: direction {bad} out of range 1..2\n"


@pytest.mark.parametrize("matrix, directions, message", [
    ("[[0,1,-1],[-1,0,1],[2,-1,0]]", "1",
     "mutation at direction 1: entries b[2][3] = 0 and b[3][2] = 1"),
    # the second typed direction loses it: the mutation at 2 keeps it
    ("[[0,-2,1],[1,0,-2],[-1,2,0]]", "2 1",
     "mutation at direction 1: entries b[2][3] = -1 and b[3][2] = 0"),
])
def test_lost_sign_skew_symmetry_is_named_as_typed(capsys, matrix, directions, message):
    # the direction and the entries count from 1, as --directions does
    code = main(["mutate", "--matrix", matrix, "--directions", directions])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: SignSkewSymmetryLost: {message} are not of opposite signs\n"


@pytest.mark.parametrize("command", [
    ["explore", "--seed"],
    ["tropical", "--nu", "1,1,1", "--seed"],
    ["mutate", "--directions", "1", "--matrix"],
], ids=["explore", "tropical-nu", "mutate"])
def test_lost_sign_skew_symmetry_is_named_alike_by_every_command(capsys, command):
    # explore and tropical mutate at direction 1 themselves, and name the
    # direction and the entries from 1 as mutate does
    code = main([*command, "[[0,1,-1],[-1,0,1],[2,-1,0]]"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: SignSkewSymmetryLost: mutation at direction 1: entries "
                   "b[2][3] = 0 and b[3][2] = 1 are not of opposite signs\n")


@pytest.mark.parametrize("matrix, report", [
    ([[0, 2], [-2, 0]], {"clusters": 10_000, "variables": 10_001, "max_depth": 5_000}),
    (MARKOV, {"clusters": 10_000, "variables": 10_002, "max_depth": 12}),
])
def test_infinite_types_reach_the_default_cap(capsys, monkeypatch, matrix, report):
    # on integers only: one mutation of plain rows per cluster after the
    # first and one for the cluster past the cap, no checked matrix
    # mutation and no Laurent mutation
    calls = {"mutate_rows": 0, "matrix_mutate": 0, "seed_mutate": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    # the checked matrix mutation is counted where seed_mutate looks it up
    for module, name in ((graphs, "mutate_rows"), (seeds, "matrix_mutate"),
                         (graphs, "seed_mutate")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, data = run(capsys, "explore", "--seed", json.dumps(matrix))
    assert code == 1 and not data["exhausted"]
    assert {key: data[key] for key in report} == report
    assert calls == {"mutate_rows": report["clusters"], "matrix_mutate": 0, "seed_mutate": 0}


def test_c_vector_without_sign_coherence_exits_2(capsys, monkeypatch):
    # a mutation that negates the entry of the first frozen row in column 2:
    # after the first mutation at direction 1, c_2 = (1, 1) reads (-1, 1)
    def corrupted(rows, k):
        out = [list(r) for r in seeds.mutate_rows(rows, k)]
        out[2][1] = -out[2][1]
        return tuple(map(tuple, out))

    monkeypatch.setattr(graphs, "mutate_rows", corrupted)
    code = main(["explore", "--seed", "[[0,1],[-1,0]]"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: NotSignCoherent: ")


def test_non_type_a_cell_exits_2(capsys):
    code = main(["verify-cell", "--type", "B2", "--word", "-1 -2 1 2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: SubsetFormOnlyTypeA: ")


def test_json_roundtrip_mutate_explore(capsys):
    code, data = run(capsys, "mutate", "--matrix", seed_json(), "--directions", "1")
    assert code == 0
    code2, data2 = run(capsys, "explore", "--seed", json.dumps(data))
    assert code2 == 0 and data2["clusters"] == 50


def _printed(data, key):
    """Every JSON object inside data that has the given key."""
    if isinstance(data, dict):
        if key in data:
            yield data
        data = list(data.values())
    if isinstance(data, list):
        for x in data:
            yield from _printed(x, key)


def test_printed_matrices_and_polynomials_round_trip(capsys):
    big = '{"btilde": [[0, "-100000000000000000000"], [1, 0], [-2, 3]], "labels": ["a", "b", "c"]}'
    gen = ["x1", "x2", "x1'", "x2'", "p1+", "p2+", "p1-", "p2-"]
    calls = [
        ["mutate", "--matrix", seed_json(), "--directions", "1 3"],
        ["mutate", "--matrix", big, "--directions", "2"],
        ["mutate", "--matrix", json.dumps(MARKOV), "--directions", ""],
        ["straighten", "--matrix", "[[0, 1], [-1, 0]]", "--poly", json.dumps(
            {"vars": gen, "terms": [{"exp": [2, 1, 1, 0, 0, 0, 0, 0], "coef": "-7"}]})],
        # (b + 1) / a and (b + 1)^2 / a^2 are in U: one quotient each
        _ab_member('{"vars": ["a", "b"], "terms": [{"exp": [-1, 1], "coef": 1}, '
                   '{"exp": [-1, 0], "coef": 1}]}'),
        _ab_member('{"vars": ["a", "b"], "terms": [{"exp": [-2, 2], "coef": 1}, '
                   '{"exp": [-2, 1], "coef": 2}, {"exp": [-2, 0], "coef": 1}]}'),
    ]
    matrices, polys = [], []
    for argv in calls:
        code, data = run(capsys, *argv)
        assert code == 0
        matrices += _printed(data, "btilde")
        polys += _printed(data, "vars")
    assert len(matrices) == 3 and len(polys) == 3
    for obj in matrices:
        x = ExchangeMatrix.from_json(obj)
        assert x.to_json() == obj and ExchangeMatrix.from_json(x.to_json()) == x
    for obj in polys:
        x = LaurentPoly.from_json(obj)
        assert x.to_json() == obj and LaurentPoly.from_json(x.to_json()) == x


def _ab_member(num):
    seed = '{"btilde": [[0, 1], [-1, 0]], "labels": ["a", "b"]}'
    return ["upper-member", "--seed", seed, "--num", num]


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--seed", "[[0, 1.5], [-1, 0]]"],
        ["explore", "--seed", "[[0, true], [-1, 0]]"],
        ["mutate", "--matrix", '{"btilde": [[0, 1], [-1, 0]], "labels": ["a"]}',
         "--directions", "1"],
        # a string row is not read as its digits, and n/m must be JSON integers
        ["mutate", "--matrix", '{"btilde": ["0", "0"]}', "--directions", "1"],
        ["acyclic", "--matrix", '{"btilde": ["01", "00"]}'],
        ["acyclic", "--matrix", '{"btilde": "00"}'],
        ["acyclic", "--matrix", '{"btilde": [[0], [0]], "n": true}'],
        ["acyclic", "--matrix", '{"btilde": [[0], [0]], "m": 2.0}'],
        # nor is a polynomial's string of one-letter names, and terms is a list
        _ab_member('{"vars": "ab", "terms": [{"exp": [1, 0], "coef": 1}]}'),
        _ab_member('{"vars": ["a", 2], "terms": []}'),
        _ab_member('{"vars": ["a", "b"], "terms": "[]"}'),
        _ab_member('{"vars": ["a", "b"], "terms": {"exp": [1, 0], "coef": 1}}'),
        # an unknown key is an error, not dropped: a misspelt labels, a den
        # nested in --num (else the verdict is on x1, not 1/x1), a term key
        ["mutate", "--matrix", '{"btilde": [[0,1],[-1,0]], "lables": ["a","b"]}',
         "--directions", "1"],
        # a labels key that is not a list is an error, not "no labels"
        ["mutate", "--matrix", '{"btilde": [[0,1],[-1,0]], "labels": null}',
         "--directions", "1"],
        _ab_member('{"vars": ["a", "b"], "terms": [{"exp": [1, 0], "coef": 1}], '
                   '"den": {"vars": ["a", "b"], "terms": [{"exp": [2, 0], "coef": 1}]}}'),
        _ab_member('{"vars": ["a", "b"], "terms": [{"exp": [1, 0], "coef": 1, "junk": 0}]}'),
        # the stdout of btilde --type A1 --word 1 is not a seed
        ["explore", "--seed", json.dumps({
            "btilde": [[], []], "cols": [], "direct_construction_agrees": True,
            "gamma_dot": 'digraph G {\n  "-1";\n  "1";\n}', "rows": [-1, 1]})],
        # straighten supplies the coefficient rows; frozen rows are not dropped
        ["straighten", "--matrix", '{"btilde": [[0,1],[-1,0],[1,1]]}', "--poly",
         json.dumps({"vars": ["x1", "x2", "x1'", "x2'", "p1+", "p2+", "p1-", "p2-"],
                     "terms": []})],
    ],
    ids=["float-entry", "bool-entry", "label-count", "string-rows-mutate",
         "string-rows-acyclic", "string-btilde", "bool-n", "float-m",
         "string-vars", "int-var", "string-terms", "object-terms",
         "misspelt-labels", "null-labels", "nested-den", "term-key",
         "btilde-output-seed", "straighten-frozen-rows"],
)
def test_malformed_matrix_exits_2(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["explore", "--seed", '{"n": 2}'], "seed JSON is missing required keys ['btilde']"),
        (_ab_member('{"terms": []}'), "Laurent JSON is missing required keys ['vars']"),
        (_ab_member('{"vars": ["a", "b"]}'), "Laurent JSON is missing required keys ['terms']"),
        (_ab_member('{"vars": ["a", "b"], "terms": [{"coef": 1}]}'),
         "term is missing required keys ['exp']"),
        (_ab_member('{"vars": ["a", "b"], "terms": [{"exp": [1, 0]}]}'),
         "term is missing required keys ['coef']"),
    ],
    ids=["seed-btilde", "laurent-vars", "laurent-terms", "term-exp", "term-coef"],
)
def test_missing_required_key_is_named(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: ValueError: {message}\n"


def test_cli_import_skips_dataclasses_inspect_and_pathlib():
    # every command is a fresh process that pays this import first; -I -S
    # leaves only the standard library on sys.path, with no site start-up
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import clusterforge.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cell", "--type", "A2", "--word", "1 2 1 -1 -2 -1", "--samples", "-5"],
        ["tp-check", "--type", "A2", "--word", "1 2 1 -1 -2 -1", "--clusters", "-3"],
        ["explore", "--seed", "[[0, 1], [-1, 0]]", "--max-seeds", "-4"],
        ["classify", "--matrix", "[[0, 1], [-1, 0]]", "--node-cap", "-1"],
        ["tropical", "--seed", json.dumps(MARKOV), "--delta", "0,0,1", "--radius", "-1"],
        ["tropical", "--seed", json.dumps(MARKOV), "--nu", "1,1,1", "--depth", "-2"],
        ["verify-cell", "--type", "A2", "--word", "1 2 1 -1 -2 -1", "--rng-seed", "-1"],
        ["tp-check", "--type", "A2", "--word", "1 2 1 -1 -2 -1", "--rng-seed", "1_0"],
        ["diffcomb", "--size", "1_0"],
        ["diffcomb", "--size", " 1 "],
        ["diffcomb", "--size", "-1"],
    ],
    ids=["samples", "clusters", "max-seeds", "node-cap", "radius", "depth",
         "verify-cell-rng-seed", "tp-check-rng-seed", "size-underscore",
         "size-spaces", "size-negative"],
)
def test_negative_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert "expected an integer >= 0" in err


@pytest.mark.parametrize("option", ["--radius", "--depth"])
def test_tropical_tree_size_is_bounded(capsys, option):
    triple = "--delta" if option == "--radius" else "--nu"
    with pytest.raises(SystemExit) as exc:
        main(["tropical", "--seed", json.dumps(MARKOV), triple, "0,0,1", option, "15"])
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert "expected at most 14" in err
    # 14 is accepted; running it would build about 98,000 tree vertices
    assert cli._radius("14") == 14


def test_diffcomb_size_is_bounded(capsys):
    for size, message in (("17", "expected at most 16"), ("0", "expected at least 1")):
        with pytest.raises(SystemExit) as exc:
            main(["diffcomb", "--size", size])
        out, err = capsys.readouterr()
        assert exc.value.code == 64 and out == ""
        assert message in err
    # 16 is accepted; running it walks 65,536 subsets
    assert cli.build_parser().parse_args(["diffcomb", "--size", "16"]).size == 16


@pytest.mark.parametrize("command", ["verify-cell", "tp-check"])
def test_cell_check_without_samples_is_usage_error(capsys, command):
    # a check that draws no sample verifies nothing, so it must not exit 0
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "A2", "--word", "1 2 1 -1 -2 -1", "--samples", "0"])
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert "expected at least 1" in err


def test_every_typed_option_validates_in_cli():
    # README: integer options take ASCII integers >= 0, which the builtin
    # int (it reads "-1", " 7 " and "1_0") would not enforce
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    typed = []
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.type is not None:
                typed.append((command, action.option_strings[0]))
                assert action.type not in (int, float), typed[-1]
                assert action.type.__module__ == cli.__name__, typed[-1]
    assert ("verify-cell", "--samples") in typed and ("diffcomb", "--size") in typed


@pytest.mark.parametrize(
    "option, value",
    [
        ("--delta", "0,0"),
        ("--delta", "0,0,1,5"),
        ("--delta", "0,x,1"),
        ("--nu", "1/0,1,1"),
        ("--nu", "1_0,1,1"),
        ("--nu", "1, 1,1"),
        ("--nu", "١,1,1"),
        ("--nu", "1e3,1,1"),
        ("--nu", "1,,1"),
        ("--nu", "1,1"),
        ("--nu", "1,1,1,1"),
    ],
    ids=["delta-pair", "delta-four", "delta-letter", "zero-denominator",
         "underscore", "space", "arabic-digit", "exponent", "empty-entry",
         "nu-pair", "nu-four"],
)
def test_malformed_rationals_are_usage_errors(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["tropical", "--seed", json.dumps(MARKOV), option, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert option in err


def test_exact_rationals_are_read_exactly(capsys):
    code, data = run(
        capsys, "tropical", "--seed", json.dumps(MARKOV), "--nu", "1/2,-3,0.25",
        "--depth", "0",
    )
    assert code == 0 and data[""] == ["1/2", "-3", "1/4"]


@pytest.mark.parametrize("text", ["1_0", " 7 ", "١", ""],
                         ids=["underscore", "spaces", "arabic-digit", "empty"])
@pytest.mark.parametrize("command", ["mutate", "upper-member"])
def test_malformed_decimal_string_exits_2(capsys, command, text):
    if command == "mutate":
        matrix = {"btilde": [["0", text], ["-1", "0"]]}
        argv = ["mutate", "--matrix", json.dumps(matrix), "--directions", "1"]
    else:
        num = {"vars": ["x1", "x2"], "terms": [{"exp": [1, 0], "coef": text}]}
        argv = ["upper-member", "--seed", "[[0, 1], [-1, 0]]", "--num", json.dumps(num)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: ") and "decimal integer" in err


_A2_OPEN = ("--type", "A2", "--word")


@pytest.mark.parametrize(
    "argv",
    [
        ["btilde", *_A2_OPEN, "١ ٢ ١ -١ -٢ -١"],
        ["btilde", *_A2_OPEN, "1_0"],
        ["verify-cell", *_A2_OPEN, "١ ٢ ١ -١ -٢ -١", "--samples", "2"],
        ["verify-cell", *_A2_OPEN, "1 2 1 -1 -2 +1", "--samples", "2"],
        ["tp-check", *_A2_OPEN, "1 2 1_0", "--samples", "2"],
        ["tp-check", *_A2_OPEN, "1 2 x", "--samples", "2"],
        ["tp-check", *_A2_OPEN, "1\u20032 1", "--samples", "2"],
        ["mutate", "--matrix", "[[0, 1], [-1, 0]]", "--directions", "1_0"],
        ["mutate", "--matrix", "[[0, 1], [-1, 0]]", "--directions", "١"],
        ["mutate", "--matrix", "[[0, 1], [-1, 0]]", "--directions", "1,2"],
    ],
    ids=["btilde-arabic-digits", "btilde-underscore", "verify-cell-arabic-digits",
         "verify-cell-plus-sign", "tp-check-underscore", "tp-check-letter", "tp-check-em-space",
         "mutate-underscore", "mutate-arabic-digit", "mutate-comma"],
)
def test_malformed_word_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert "expected integer letters" in err


@pytest.mark.parametrize(
    "type_name, word, choice, owner",
    [
        ("A2", "-1 -2 1 2", "open-cell-a2", "--type A2 --word '1 2 1 -1 -2 -1'"),
        ("A1", "-1 1", "open-cell-a2", "--type A2 --word '1 2 1 -1 -2 -1'"),
        ("A2", "1 2 1 -1 -2 -1", "coxeter", "--type A2 --word '-1 -2 1 2'"),
        ("A1", "1", "coxeter", "--type A1 --word '-1 1'"),
    ],
    ids=["open-cell-on-coxeter", "open-cell-on-a1", "coxeter-on-open-cell",
         "coxeter-on-a1"],
)
def test_closed_forms_for_another_word_is_usage_error(
    capsys, type_name, word, choice, owner
):
    with pytest.raises(SystemExit) as exc:
        main(["verify-cell", "--type", type_name, "--word", word,
              "--samples", "2", "--closed-forms", choice])
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert f"--closed-forms {choice} describes only {owner}" in err


@pytest.mark.parametrize(
    "word, choice, checked",
    [
        ("-1 -2 1 2", "coxeter", 4),
        ("-1 -2 1 2", "auto", 4),
        ("1 2 1 -1 -2 -1", "open-cell-a2", 8),
        ("2 1 -2 -1 2", "auto", 0),
        ("-1 -2 1 2", "none", 0),
    ],
)
def test_closed_forms_on_their_word(capsys, word, choice, checked):
    code, data = run(capsys, "verify-cell", "--type", "A2", "--word", word,
                     "--samples", "2", "--closed-forms", choice)
    assert code == 0 and data["ok"] is True
    assert data["closed_forms_checked"] == checked


@pytest.mark.parametrize("type_name", ["A٢", "A02", " A2 ", "A2\n", "a2", "A+2"])
@pytest.mark.parametrize(
    "command", [["roots"], ["btilde", "--word", "1 2"], ["verify-cell", "--word", "1 2"]]
)
def test_type_is_read_only_as_its_exact_name(capsys, command, type_name):
    code = main([command[0], "--type", type_name, *command[1:]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: ValueError: bad type descriptor {type_name!r}\n"


@pytest.mark.parametrize(
    "type_name, count", [("A31", 496), ("B22", 484), ("C22", 484), ("D23", 506)]
)
def test_largest_supported_types(capsys, type_name, count):
    code, data = run(capsys, "roots", "--type", type_name)
    assert code == 0 and data["type"] == type_name and data["count"] == count


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--type", "A32"],
        ["roots", "--type", "B23"],
        ["roots", "--type", "C23"],
        ["roots", "--type", "D24"],
        ["tp-check", "--type", "A32", "--word", "1"],
    ],
)
def test_types_over_the_root_limit_exit_2(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: ValueError: {argv[2]} is over the 512-root limit\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["roots", "--type", "A0"], "A requires rank >= 1"),
        (["btilde", "--type", "A0", "--word", ""], "A requires rank >= 1"),
        (["roots", "--type", "B1"], "B requires rank >= 2"),
        (["roots", "--type", "D2"], "D requires rank >= 3"),
        (["btilde", "--type", "E5", "--word", ""], "E requires rank 6, 7 or 8"),
    ],
)
def test_types_below_their_family_rank_exit_2(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: ValueError: {message}\n"


_RANK_ZERO = ['[]', '[[]]', '{"btilde": []}', '{"btilde": [[], []], "n": 0, "m": 2}']


@pytest.mark.parametrize("matrix", _RANK_ZERO, ids=["empty", "one-empty-row",
                                                    "object", "object-frozen-rows"])
@pytest.mark.parametrize(
    "command",
    [
        ["classify", "--matrix"],
        ["explore", "--seed"],
        ["acyclic", "--matrix"],
        ["mutate", "--directions", "", "--matrix"],
        ["straighten", "--poly", '{"vars": [], "terms": []}', "--matrix"],
        ["upper-member", "--num", '{"vars": [], "terms": []}', "--seed"],
        ["tropical", "--nu", "1,1,1", "--seed"],
    ],
    ids=lambda c: c[0],
)
def test_rank_zero_matrices_exit_2(capsys, command, matrix):
    # like --type A0, a matrix or seed with no mutable column is refused
    code = main([*command, matrix])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: ValueError: an exchange matrix needs rank n >= 1, got n = 0\n"


@pytest.mark.parametrize(
    "matrix, directions, fault",
    [
        ("[[0,1],[1,0]]", "1", "entries b[1][2] = 1 and b[2][1] = 1"),
        ("[[1,0],[0,0]]", "1", "diagonal entry b[1][1] = 1"),
        # the mutation at 3 of this matrix is sign-skew-symmetric again
        ("[[0,1,1],[1,0,-1],[-2,1,0]]", "3", "entries b[1][2] = 1 and b[2][1] = 1"),
    ],
    ids=["symmetric-pair", "diagonal", "pair-mended-by-mutation"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["mutate", "--directions", "", "--matrix"],
        ["mutate", "--directions", None, "--matrix"],
        ["acyclic", "--matrix"],
        ["classify", "--matrix"],
        ["explore", "--seed"],
        ["upper-member", "--num", '{"vars": [], "terms": []}', "--seed"],
        ["straighten", "--poly", '{"vars": [], "terms": []}', "--matrix"],
        ["tropical", "--nu", "1,1,1", "--seed"],
        ["tropical", "--delta", "0,0,1", "--seed"],
    ],
    ids=["mutate-no-directions", "mutate", "acyclic", "classify", "explore",
         "upper-member", "straighten", "tropical-nu", "tropical-delta"],
)
def test_principal_part_off_sign_skew_symmetry_exits_2(capsys, command, matrix,
                                                       directions, fault):
    # every command that reads a matrix refuses it before any answer
    argv = [directions if x is None else x for x in command] + [matrix]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: SignSkewSymmetryLost: {fault}")
