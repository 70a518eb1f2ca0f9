"""Every module-level function and class in the package is named somewhere
in the package: code that only tests reach, or nothing at all, is not kept."""
import ast
from pathlib import Path

import quiverhom

PACKAGE = Path(quiverhom.__file__).parent


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            # an import names the imported definition, alias or not
            yield node.name.rsplit(".", 1)[-1]


def test_every_top_level_definition_is_referenced():
    defined = []
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))]
        referenced.update(_names(tree))
    assert [d for d in defined if d[1] not in referenced] == []
