import json

import pytest

from clusterforge import cli
from clusterforge.cli import main

from conftest import MARKOV, SL3_ROWS, SL3_LABELS


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
    # an oriented 3-cycle with b_ji = 0 on every arrow: each diagram weight
    # is 0, but each arrow is still an edge of Gamma(B)
    code, data = run(capsys, "acyclic", "--matrix", "[[0,1,0],[0,0,1],[1,0,0]]")
    assert code == 1 and data == {"acyclic": False, "order": None}


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
    code = main(["mutate", "--matrix", "[[0,1],[-1,0]]", "--directions", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: IndexError: ")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--seed", "[[0, 1.5], [-1, 0]]"],
        ["explore", "--seed", "[[0, true], [-1, 0]]"],
        ["mutate", "--matrix", '{"btilde": [[0, 1], [-1, 0]], "labels": ["a"]}',
         "--directions", "1"],
    ],
    ids=["float-entry", "bool-entry", "label-count"],
)
def test_malformed_matrix_exits_2(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: ")


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
    ],
    ids=["delta-pair", "delta-four", "delta-letter", "zero-denominator",
         "underscore", "space", "arabic-digit", "exponent", "empty-entry"],
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
