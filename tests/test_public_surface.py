"""No public symbol of the package exists only for its own tests.

Every public function and class in src/pognac, and every public method of
a public class, must be referenced somewhere in the package outside its
own definition and the ``__init__`` re-exports, or from the acceptance
suite. References are matched by name (``f(...)``, ``obj.f``); an import
alone is not a use.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pognac

PACKAGE = Path(pognac.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    those classes, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _references(tree):
    """(name, line) of every name read or attribute taken in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced_public_symbols():
    sources = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = defaultdict(list)
    for path, tree in [*sources.items(), (ACCEPTANCE, ast.parse(ACCEPTANCE.read_text()))]:
        if path.name != "__init__.py":
            for name, line in _references(tree):
                refs[name].append((path, line))
    unused = []
    for path, tree in sources.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if all(user == path and node.lineno <= line <= node.end_lineno for user, line in refs[name]):
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_public_symbol_has_a_user_outside_its_tests():
    assert unreferenced_public_symbols() == []
