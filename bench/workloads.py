"""The three workloads: seeded CLI inputs, output checks and work units.

``make_calls`` builds the argv lists a pass hands to ``clusterforge.cli.main``
and imports the library to derive the matrices; everything else here is
plain data handling, so the parent process can check outputs without
importing the program under test.

Every call's stdout is invariant under the workload seed: the seed only
relabels vertices or draws ``--rng-seed`` values, and the outputs report
counts and verdicts that do not depend on either.  That is why one
digest per call, recorded from seeds 0 and 1, is checked on every seed.
"""

from __future__ import annotations

import hashlib
import json
import random

# The calls of one pass of each workload, in the order they run.
CALLS = {
    "census-e6": ("explore E6",),
    "mutation-class": ("classify A5", "classify A3-open-cell", "classify E7",
                       "tropical-delta Markov"),
    "cell-numerics": ("verify-cell A3-open-cell", "verify-cell A3-coxeter",
                      "tp-check A3-open-cell"),
}

OPEN_CELL_A3 = "-1 -3 -2 -1 -3 -2 1 3 2 1 3 2"
COXETER_CELL_A3 = "-1 -2 -3 1 2 3"
MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
DELTA_RADIUS = 10


def _bipartite_matrix(type_name: str) -> list[list[int]]:
    """Skew-symmetric exchange matrix of the bipartite orientation of a Dynkin tree."""
    from clusterforge.coxeter import cartan_data, dynkin_bipartition

    cartan = cartan_data(type_name)
    minus, _ = dynkin_bipartition(cartan)
    sign = [1 if i + 1 in minus else -1 for i in range(cartan.rank)]
    return [
        [0 if i == j else sign[i] * cartan.A[i][j] for j in range(cartan.rank)]
        for i in range(cartan.rank)
    ]


def _cell_principal(type_name: str, word) -> list[list[int]]:
    """Principal part of the extended exchange matrix of a double word."""
    from clusterforge.coxeter import cartan_data
    from clusterforge.double_bruhat import build_btilde, indexed_word, seed_from_btilde

    cartan = cartan_data(type_name)
    seed = seed_from_btilde(build_btilde(indexed_word(cartan, tuple(word)), cartan))
    return [list(row) for row in seed.matrix.principal()]


def _relabel(rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(len(rows))] for i in range(len(rows))]


def make_calls(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(call name, CLI argv) pairs for one pass; the same seed gives the same argv."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "census-e6":
        matrix = _relabel(_bipartite_matrix("E6"), rng)
        return [("explore E6", ["explore", "--seed", json.dumps(matrix)])]
    if workload == "mutation-class":
        from clusterforge.coxeter import bipartite_longest_word, cartan_data

        # The two infinite searches stop at the first weight-4 diagram, so
        # their node count depends on the labelling (1,408 to 2,437 nodes
        # for A5 over 23 relabellings); they keep the labelling that
        # build_btilde gives, so every seed does the same work.
        base_affine_a5 = _cell_principal(
            "A5", bipartite_longest_word(cartan_data("A5"))
        )
        open_cell_a3 = _cell_principal("A3", [int(x) for x in OPEN_CELL_A3.split()])
        e7 = _relabel(_bipartite_matrix("E7"), rng)
        markov = _relabel(MARKOV, rng)
        return [
            ("classify A5", ["classify", "--matrix", json.dumps(base_affine_a5)]),
            ("classify A3-open-cell", ["classify", "--matrix", json.dumps(open_cell_a3)]),
            ("classify E7", ["classify", "--matrix", json.dumps(e7)]),
            (
                "tropical-delta Markov",
                ["tropical", "--seed", json.dumps(markov), "--delta", "0,0,1",
                 "--radius", str(DELTA_RADIUS)],
            ),
        ]
    if workload == "cell-numerics":
        s1, s2, s3 = (str(rng.randrange(1, 2**31)) for _ in range(3))
        return [
            ("verify-cell A3-open-cell",
             ["verify-cell", "--type", "A3", "--word", OPEN_CELL_A3,
              "--samples", "200", "--rng-seed", s1]),
            ("verify-cell A3-coxeter",
             ["verify-cell", "--type", "A3", "--word", COXETER_CELL_A3,
              "--samples", "200", "--closed-forms", "coxeter", "--rng-seed", s2]),
            ("tp-check A3-open-cell",
             ["tp-check", "--type", "A3", "--word", OPEN_CELL_A3,
              "--samples", "100", "--clusters", "40", "--rng-seed", s3]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Expected fields per call.  Classification `nodes` of the infinite searches
# depends on the order of exploration, so only verdicts, types and witness
# data are invariants there.
_EXPECTED = {
    "explore E6": {"clusters": 833, "variables": 42, "mutations": 4998,
                   "exhausted": True, "max_depth": 11},
    "classify A5": {"verdict": "infinite", "witness_depth": 6},
    "classify A3-open-cell": {"verdict": "infinite", "witness_depth": 5},
    "classify E7": {"verdict": "finite", "type": "E7", "nodes": 416},
    "tropical-delta Markov": {"radius": DELTA_RADIUS, "strictly_decreasing": True},
    "verify-cell A3-open-cell": {"ok": True, "samples": 200, "relations_checked": 1800,
                                 "closed_forms_checked": 0, "failures": []},
    "verify-cell A3-coxeter": {"ok": True, "samples": 200, "relations_checked": 600,
                               "closed_forms_checked": 600, "failures": []},
    "tp-check A3-open-cell": {"ok": True, "samples": 100, "clusters_checked": 40,
                              "minors_checked": 1500, "failures": []},
}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def check_call(name: str, rc: int, stdout: str, expected_digest: str | None) -> str | None:
    """Return why a call's exit code or stdout is wrong, or None if it is right."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not isinstance(out, dict):
        return "stdout is not a JSON object"
    for key, want in _EXPECTED[name].items():
        if out.get(key) != want:
            return f"{key} is {out.get(key)!r}, expected {want!r}"
    if name.startswith("classify") and out["verdict"] == "infinite":
        if not isinstance(out.get("witness_weight"), int) or out["witness_weight"] < 4:
            return f"witness_weight is {out.get('witness_weight')!r}, expected >= 4"
        if "type" in out:
            return "an infinite verdict reports a type"
    if name.startswith("tropical"):
        seq = out.get("sequence")
        if not isinstance(seq, list) or len(seq) != DELTA_RADIUS + 2:
            return f"sequence has {len(seq) if isinstance(seq, list) else 'no'} entries"
        if out.get("negative_at") is None:
            return "negative_at is null"
    if expected_digest is not None and digest(stdout) != expected_digest:
        return "stdout differs from the recorded digest"
    return None


def work_units(name: str, stdout: str) -> int:
    """Units of work a correct call did: the numerator of `throughput`."""
    out = json.loads(stdout)
    if name.startswith("explore"):
        return out["mutations"]
    if name.startswith("classify"):
        return out["nodes"]
    if name.startswith("tropical"):
        return len(out["shifted"])
    return out["samples"]


def new_clusters(name: str, stdout: str) -> int:
    """Clusters a call found beyond its initial one (explore and tp-check)."""
    out = json.loads(stdout)
    if name.startswith("explore"):
        return out["clusters"] - 1
    if name.startswith("tp-check"):
        return out["clusters_checked"] - 1
    return 0


def class_nodes(name: str, stdout: str) -> int:
    return json.loads(stdout)["nodes"] if name.startswith("classify") else 0
