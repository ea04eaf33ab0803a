import json

import pytest

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


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mutate"])  # missing required flags
    assert exc.value.code == 64
    capsys.readouterr()


def test_error_exit_2(capsys):
    code = main(["roots", "--type", "Z9"])
    assert code == 2
    capsys.readouterr()


def test_json_roundtrip_mutate_explore(capsys):
    code, data = run(capsys, "mutate", "--matrix", seed_json(), "--directions", "1")
    assert code == 0
    code2, data2 = run(capsys, "explore", "--seed", json.dumps(data))
    assert code2 == 0 and data2["clusters"] == 50
