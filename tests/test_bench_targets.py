"""Every function the bench traces exists under the name it is traced by.

``bench/spans.py`` patches each target by module and attribute path at
run time, so a renamed or deleted target would only fail traced bench
passes; this test makes it fail the suite instead.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    """Execute spans.py from its source, writing nothing next to it."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name, module, attr", [t[:3] for t in load_spans().TARGETS])
def test_traced_target_resolves(name, module, attr):
    owner = importlib.import_module(f"clusterforge.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
