"""The bench's view of the program holds without running the bench.

``bench/spans.py`` patches each target by module and attribute path at
run time, so a renamed or deleted target would only fail traced bench
passes; the first test makes it fail the suite instead.  The second runs
one pass of the ``mutation-class`` workload and checks each call's stdout
against the digest the bench checks.
"""

import hashlib
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
# Seed 2 was not used to record the digests: every call's stdout must not
# depend on the relabelling the seed draws.
MUTATION_CLASS = load_bench("workloads").make_calls("mutation-class", 2)


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
    digests = json.loads((BENCH / "digests.json").read_text())["digests"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests["mutation-class"][name]
