"""The number format: every matrix entry and algebra coefficient is an
exact rational held as an int when integral and a Fraction otherwise.
Values enter through linalg.exact, and the pivot scaling of rref is the
package's only true division, so no float can arise."""
import ast
from fractions import Fraction
from pathlib import Path

import pytest

import quiverhom
from quiverhom import linalg
from quiverhom.algebra import Quiver, Relation, nakayama_from_kupisch
from quiverhom.homology import ext_dims
from quiverhom.invariants import canonical_test_set
from quiverhom.linalg import Matrix, exact, rref
from quiverhom.verify import verify_paper_example

PACKAGE = Path(quiverhom.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owners(predicate):
    """(file, innermost enclosing function or None) of every node the
    predicate accepts."""
    found = []

    def walk(node, path, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, DEFS) else owner
            if predicate(child):
                found.append((path.name, inner))
            walk(child, path, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path, None)
    return found


def test_the_pivot_helper_is_the_only_true_division():
    def is_div(node):
        return (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div))
    assert _owners(is_div) == [("linalg.py", "_divide")]


def test_no_float_conversion():
    def is_float_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float")
    assert _owners(is_float_call) == []


def test_exact_normalizes():
    assert [type(exact(x)) for x in (3, Fraction(4, 2), True)] == [int] * 3
    assert exact(Fraction(4, 2)) == 2
    assert exact(Fraction(1, 3)) == Fraction(1, 3)
    assert type(exact(Fraction(1, 3))) is Fraction
    assert linalg._divide(6, -3) == -2 and type(linalg._divide(6, -3)) is int
    assert linalg._divide(-3, 2) == Fraction(-3, 2)
    assert linalg._divide(Fraction(3, 2), Fraction(1, 2)) == 3
    assert type(linalg._divide(Fraction(3, 2), Fraction(1, 2))) is int


def test_values_enter_as_ints():
    m = Matrix.from_rows([[Fraction(2), 1]])
    assert [type(x) for x in m.data[0]] == [int, int]
    assert [type(x) for x in m.scale(Fraction(3)).data[0]] == [int, int]
    assert all(type(x) is int for r in Matrix.identity(3).data for x in r)
    assert all(type(x) is int for r in Matrix.zeros(2, 2).data for x in r)
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    rel = Relation([(Fraction(1), q.path_from_names(["a", "b"]))])
    assert [type(c) for c, _ in rel.terms] == [int]


def test_integral_rref_with_unit_pivots_stays_integral():
    R, piv = rref(Matrix.from_rows([[1, 2, 0, -1], [0, 1, 3, 2],
                                    [2, 5, 3, 0]]))
    assert piv == (0, 1)
    assert R.data == [[1, 0, -6, -5], [0, 1, 3, 2], [0, 0, 0, 0]]
    assert all(type(x) is int for r in R.data for x in r)
    # a pivot of 2 that does not divide its row gives a Fraction
    R2, _ = rref(Matrix.from_rows([[2, 1]]))
    assert R2.data == [[1, Fraction(1, 2)]]
    assert [type(x) for x in R2.data[0]] == [int, Fraction]


@pytest.fixture
def checked_matrices(monkeypatch):
    """Patch Matrix.__init__ to reject any entry that is not an int or a
    Fraction; yields the list of offending types."""
    bad = []
    init = Matrix.__init__

    def checking_init(self, data, nrows=None, ncols=None):
        bad.extend(type(x) for r in data for x in r
                   if type(x) not in (int, Fraction))
        init(self, data, nrows, ncols)

    monkeypatch.setattr(Matrix, "__init__", checking_init)
    return bad


@pytest.mark.parametrize("example_id", ["ex3.2", "thm4.7-n3", "props-core"])
def test_registry_builds_only_exact_entries(checked_matrices, example_id):
    assert verify_paper_example(example_id)["pass"]
    assert checked_matrices == []


def test_ext_table_builds_only_exact_entries(checked_matrices):
    a = nakayama_from_kupisch([2, 2, 3])
    mods = [m for _, m in canonical_test_set(a)]
    table = [ext_dims(m, n, 3) for m in mods for n in mods]
    assert len(table) == len(mods) ** 2
    assert checked_matrices == []
