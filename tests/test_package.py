"""The package's public surface."""

import ast
from pathlib import Path

import odegate

# the only functions that open a file for writing; every other output goes
# through one of them
FILE_WRITERS = {"errors.write_json", "errors.write_csv", "cli.write_resolved"}
WRITE_CALLS = {"write_text", "write_bytes", "save", "savez", "savez_compressed",
               "savetxt", "tofile"}


def test_every_exported_name_resolves():
    assert [name for name in odegate.__all__ if not hasattr(odegate, name)] == []


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
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


def _writers(tree: ast.Module, module: str):
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Call) and _opens_for_writing(child):
                    yield scope
                yield from visit(child, scope)
    return visit(tree, module)


def test_only_the_shared_writers_open_files_for_writing():
    package = Path(odegate.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found.update(_writers(ast.parse(path.read_text()), path.stem))
    assert found == FILE_WRITERS
