import ast
import sys
from fractions import Fraction
from pathlib import Path

from clusterforge.util import mat_mul, symmetrizer

SRC = Path(__file__).resolve().parent.parent / "src" / "clusterforge"


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
