"""The package's public surface."""

import ast
from pathlib import Path

import odegate

# the only functions that open a file for writing; every other output goes
# through one of them
FILE_WRITERS = {"errors.write_json", "errors.write_csv", "cli.write_resolved"}
WRITE_CALLS = {"write_text", "write_bytes", "save", "savez", "savez_compressed",
               "savetxt", "tofile"}
# the only functions that read an input file's text; every CSV and JSON input
# is parsed by the first two
TEXT_READERS = {"errors.read_csv", "errors.read_json", "cli.parse_config_file"}


def test_every_exported_name_resolves():
    assert [name for name in odegate.__all__ if not hasattr(odegate, name)] == []


def _opens_for_writing(call: ast.Call) -> bool:
    name = _call_name(call)
    if name in WRITE_CALLS:
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    # a mode that is not a literal may write
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def _call_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _scopes(tree: ast.Module, module: str, matches):
    """The function (or module) scope of every call that `matches`."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Call) and matches(child):
                    yield scope
                yield from visit(child, scope)
    return visit(tree, module)


def _package_trees():
    package = Path(odegate.__file__).parent
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]


def test_only_the_shared_writers_open_files_for_writing():
    found = set()
    for module, tree in _package_trees():
        found.update(_scopes(tree, module, _opens_for_writing))
    assert found == FILE_WRITERS


def _parses_text(node) -> bool:
    """An `import csv`, or a call of `json.load` or `json.loads`."""
    if isinstance(node, ast.Import):
        return any(alias.name == "csv" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv" or (
            node.module == "json" and any(a.name in ("load", "loads") for a in node.names))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")


def test_only_the_shared_readers_parse_input_files():
    readers, parsers = set(), set()
    for module, tree in _package_trees():
        readers.update(_scopes(tree, module, lambda call: _call_name(call) == "read_text"))
        if any(_parses_text(node) for node in ast.walk(tree)):
            parsers.add(module)
    assert readers == TEXT_READERS
    assert parsers == {"errors"}


def _referenced_names(node) -> set:
    """Every name `node` reads: a Name, an Attribute, or an imported name."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def test_every_top_level_definition_has_a_caller():
    # a function or class that is not exported must be read somewhere in the
    # package or the demos other than in its own definition
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    package = _package_trees()
    demos = Path(__file__).resolve().parent.parent / "demos"
    trees = package + [(path.stem, ast.parse(path.read_text()))
                       for path in sorted(demos.glob("*.py"))]
    referenced = set()
    for _, tree in trees:
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, defs) else None
            referenced |= _referenced_names(stmt) - {own}
    unused = [f"{module}.{stmt.name}" for module, tree in package for stmt in tree.body
              if isinstance(stmt, defs) and stmt.name not in odegate.__all__
              and stmt.name not in referenced]
    assert unused == []
