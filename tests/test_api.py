"""The public API carries no function, class or method that only tests
call: every module-level function or class of the package, private ones
included, and every public method and property of an exported class, is
referenced by some module of the package outside its own definition.
Every name a module imports is used there.  The one exception class is
the CLI's usage error: a level's build reports a failure in its returned
report, not through an exception of its own.  A torus point is its key
inside the package: a key is read back into Q(rho), by Lattice.value,
only where a point is printed.  The report re-checker in
`tests/recheck.py` imports nothing but json and fractions."""

import ast
import importlib
import inspect
from pathlib import Path

import ballq

PACKAGE = Path(ballq.__file__).parent
RECHECK = Path(__file__).resolve().parent / "recheck.py"
# {file name: syntax tree} of every module but `__init__.py`.
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
           if path.name != "__init__.py"}

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


def unreferenced(names):
    return [name for name in names if not any(references_outside_definition(tree, name)
                                              for tree in MODULES.values())]


def test_every_exported_function_or_class_has_a_caller_in_the_package():
    exported = [name for name in exported_names()
                if inspect.isfunction(getattr(ballq, name))
                or inspect.isclass(getattr(ballq, name))]
    assert "intersect_graphs" in exported and "Lattice" in exported
    assert unreferenced([name for name in exported if name not in EXEMPT]) == []


def test_every_module_level_function_or_class_has_a_caller_in_the_package():
    # Private helpers too: a helper that no stage or command calls any more
    # is deleted rather than left behind for tests.
    defined = [node.name for tree in MODULES.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert "_plain" in defined and "build_family" in defined
    assert unreferenced([name for name in defined if name not in EXEMPT]) == []


def test_every_public_method_of_an_exported_class_has_a_caller_in_the_package():
    # Dunders are exempt: syntax calls them, not their names.
    classes = {name for name in exported_names() if inspect.isclass(getattr(ballq, name))}
    methods = {item.name: node.name for tree in MODULES.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name in classes
               for item in node.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    assert methods["from_matrix"] == "GraphCurve" and methods["value"] == "Lattice"
    assert [f"{methods[name]}.{name}" for name in unreferenced(methods)] == []


def test_the_only_exception_class_is_the_usage_error():
    # __main__ defines nothing, and importing it would run the CLI.
    defined = []
    for file_name in sorted(MODULES.keys() - {"__main__.py"}):
        module = importlib.import_module(f"ballq.{file_name[:-3]}")
        defined += [f"{file_name[:-3]}.{name}" for name, value in vars(module).items()
                    if inspect.isclass(value) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__]
    assert defined == ["cli.UsageError"]


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for file_name, tree in MODULES.items():
        imported = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{file_name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def enclosing_functions_of_method_calls(tree, name):
    """The innermost enclosing function (None at module level) of each
    call of a method called name, such as lattice.value(key)."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == name):
            yield function
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


def test_torus_points_are_built_only_to_print():
    # Curves, fibers, maps and solvers carry keys; a key is read back into
    # Q(rho) only for a printed intersection point or Albanese base point,
    # and no code unwraps a stored point to reach its key.
    sites = {(file_name, function) for file_name, tree in MODULES.items()
             for function in enclosing_functions_of_method_calls(tree, "value")}
    assert sites == {("curves.py", "points"), ("families.py", "albanese_data")}
    unwrapped = [f"{file_name}: .{node.value.attr}.key" for file_name, tree in MODULES.items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "key"
                 and isinstance(node.value, ast.Attribute) and node.value.attr in ("offset", "z0")]
    assert unwrapped == []


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
