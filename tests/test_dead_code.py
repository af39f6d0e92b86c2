"""Dead-code guard: every function, class and method in the package has a user.

A definition counts as used when its name appears in src/, scripts/ or
perfbench/ outside the definition itself: as an identifier, an attribute, or
a part of an identifier-like string such as the tracer's "Class.method"
targets.  A method is reached only through an attribute or a dotted string,
so a bare identifier of the same name (a function elsewhere) does not count
for it.  Import lines alone do not count, and neither do tests.  Dunder
methods are exempt; Python calls them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hassecheck"
SEARCHED = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]
DOTTED_NAME = re.compile(r"[A-Za-z_][\w.]*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree):
    """(line, name, dotted) for every use of a name in one module.

    dotted is true for an attribute and for a part of a dotted string, the
    uses that can reach a method.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr, True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_NAME.fullmatch(node.value):
                dotted = "." in node.value
                for part in node.value.split("."):
                    yield node.lineno, part, dotted


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions():
    trees = {path: ast.parse(path.read_text()) for root in SEARCHED for path in sorted(root.rglob("*.py"))}
    uses = {}  # name -> [(path, line, dotted)]
    for path, tree in trees.items():
        for line, name, dotted in _references(tree):
            uses.setdefault(name, []).append((path, line, dotted))
    out = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, DEFINITIONS)
        }
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or _is_dunder(node.name):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            method = id(node) in methods
            if not any(
                (p != path or line not in inside) and (dotted or not method)
                for p, line, dotted in uses.get(node.name, [])
            ):
                out.append(f"{path.stem}.{node.name}")
    return sorted(out)


def test_every_definition_has_a_user_outside_tests():
    assert unreferenced_definitions() == []
