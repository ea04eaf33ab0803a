import ast
import sys
from fractions import Fraction
from pathlib import Path

from clusterforge.util import mat_mul, symmetrizer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clusterforge"

# Top-level definitions that only tests reach: the lower bound and
# coprimality results the CLI does not show yet.
TESTS_ONLY = {
    "is_standard",
    "membership_from_adjacent",
    "rewrite_in_adjacent_cluster",
    "is_coprime",
    "_proportional_odd_ratio",
    "valuate",
}


def test_symmetrizer_values():
    assert symmetrizer([[0, 2], [-1, 0]]) == (1, 2)
    assert symmetrizer([[2, -1], [-3, 2]]) == (3, 1)  # G2 Cartan matrix
    assert symmetrizer([[0, 0], [0, 0]]) == (1, 1)
    assert symmetrizer([]) == ()
    assert symmetrizer([[0, 1], [0, 0]]) is None  # nonzero pattern not symmetric
    # the ratios 1/2, 1/2 and 1/1 around a triangle cannot all hold
    assert symmetrizer([[0, 1, 1], [-2, 0, 1], [-1, -1, 0]]) is None


def test_mat_mul_returns_hashable_product():
    a = ((1, 2), (3, 4))
    b = [[Fraction(1, 2), 0], [0, 1]]
    prod = mat_mul(a, b)
    assert prod == ((Fraction(1, 2), 2), (Fraction(3, 2), 4))
    assert hash(prod) == hash(mat_mul(a, b))
    assert mat_mul([[1, 2, 3]], [[1], [1], [1]]) == ((6,),)


def test_no_module_reads_the_environment():
    """Behaviour depends on arguments only: no module reads os.environ or os.getenv."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv", "environb", "getenvb")
            ):
                offenders.append(f"{path.name}:{node.lineno} os.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                if names & {"environ", "getenv", "environb", "getenvb"}:
                    offenders.append(f"{path.name}:{node.lineno} from os import")
    assert offenders == []


def test_modules_use_the_standard_library_and_no_floats():
    """Imports are relative or standard library; no float literal or float()."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                tops = []
            offenders += [
                f"{where} import {t}" for t in tops if t not in sys.stdlib_module_names
            ]
            if isinstance(node, ast.Constant) and type(node.value) is float:
                offenders.append(f"{where} float literal {node.value!r}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                offenders.append(f"{where} float()")
    assert offenders == []


def _names(node) -> set:
    """Every name node mentions: identifiers, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def test_every_definition_is_reached():
    """Each top-level function and class in src/ is reached by name from
    cli.main, from the names bench/*.py uses or from the imports of
    tests/test_acceptance.py, through the names each reached top-level
    definition or assignment mentions; TESTS_ONLY lists the exceptions."""
    uses, defs = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.add(node.name)
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in bound:
                uses.setdefault(name, set()).update(_names(node))
    roots = {"main"}
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= _names(ast.parse(path.read_text(), str(path)))
    acceptance = ROOT / "tests" / "test_acceptance.py"
    for node in ast.walk(ast.parse(acceptance.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("clusterforge"):
            roots |= {alias.name for alias in node.names}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += uses.get(name, ())
    assert sorted(defs - reached - TESTS_ONLY) == []


def test_every_module_level_import_is_read():
    """Each name a module of src/ imports at its top level is read somewhere
    in that module, so a dead import fails here; __future__ imports are
    directives, not names."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unread == []


def test_only_laurent_reads_the_storage_of_a_laurent_poly():
    """How a LaurentPoly is stored, packed exponents included, is private to
    laurent.py: no other module of src/ reads an attribute named in
    LaurentPoly.__slots__ or with "packed" in its name.  The one public
    slot, ctx, is the polynomial's variable context, not its storage."""
    from clusterforge.laurent import LaurentPoly

    slots = set(LaurentPoly.__slots__)
    assert {s for s in slots if not s.startswith("_")} == {"ctx"}
    private = {s for s in slots if s.startswith("_")}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and (
                node.attr in private or "packed" in node.attr
            ):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []
