"""The public API carries no function or class that only tests call: every
function or class that `ballq/__init__.py` exports is referenced by some
module of the package outside its own definition.  The report re-checker
in `tests/recheck.py` imports nothing but json and fractions."""

import ast
import inspect
from pathlib import Path

import ballq

PACKAGE = Path(ballq.__file__).parent
RECHECK = Path(__file__).resolve().parent / "recheck.py"

# Exported ahead of its caller: the report's fibration section will call it.
EXEMPT = {"fibration_sequence_report"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def references_outside_definition(tree, name):
    """Name and attribute uses of name in tree, skipping the body of the
    function or class that defines it."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            count += 1
        stack.extend(ast.iter_child_nodes(node))
    return count


def test_every_exported_function_or_class_has_a_caller_in_the_package():
    modules = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    exported = [name for name in exported_names()
                if inspect.isfunction(getattr(ballq, name))
                or inspect.isclass(getattr(ballq, name))]
    assert "intersect_graphs" in exported and "Lattice" in exported
    unused = [name for name in exported if name not in EXEMPT
              and not any(references_outside_definition(tree, name) for tree in modules)]
    assert unused == []


def test_recheck_imports_only_json_and_fractions():
    imported = set()
    for node in ast.walk(ast.parse(RECHECK.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Name) and node.id == "__import__":
            imported.add("__import__")
    assert imported == {"json", "fractions"}
