"""The bench's view of the program holds without running the bench.

``bench/spans.py`` patches each target by module and attribute path at
run time, so a renamed or deleted target would only fail traced bench
passes; the first test makes it fail the suite instead.  The others run
one pass of each workload and check each call's exit code and stdout as
the bench does, digest included.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

from clusterforge.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str) -> types.ModuleType:
    """Execute bench/<name>.py from its source, writing nothing next to it."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


SPANS = load_bench("spans")
WORKLOADS = load_bench("workloads")
# Seed 2 was not used to record the digests: every call's stdout must not
# depend on the relabelling or the --rng-seed values the seed draws.
MUTATION_CLASS = WORKLOADS.make_calls("mutation-class", 2)
OTHER_CALLS = [(workload, *call) for workload in ("census-e6", "cell-numerics")
               for call in WORKLOADS.make_calls(workload, 2)]


def check_call(capsys, workload, name, argv):
    """The bench's check of one call: exit code, expected fields and digest."""
    digests = json.loads((BENCH / "digests.json").read_text())["digests"]
    rc = main(argv)
    out = capsys.readouterr().out
    assert WORKLOADS.check_call(name, rc, out, digests[workload][name]) is None


@pytest.mark.parametrize("name, module, attr", [t[:3] for t in SPANS.TARGETS])
def test_traced_target_resolves(name, module, attr):
    owner = importlib.import_module(f"clusterforge.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


@pytest.mark.parametrize(
    "name, argv", [pytest.param(*call, id=call[0]) for call in MUTATION_CLASS]
)
def test_mutation_class_stdout_matches_recorded_digest(capsys, name, argv):
    check_call(capsys, "mutation-class", name, argv)


@pytest.mark.parametrize(
    "workload, name, argv", [pytest.param(*call, id=call[1]) for call in OTHER_CALLS]
)
def test_census_and_cell_stdout_matches_recorded_digest(capsys, workload, name, argv):
    check_call(capsys, workload, name, argv)
