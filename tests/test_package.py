"""The public surface: the exports are the package imports, and README's example runs."""

import ast
import re
from pathlib import Path
from types import ModuleType

import dualitysim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_readme_library_example_runs():
    tree = ast.parse(Path(dualitysim.__file__).read_text())
    imported = sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    )
    assert dualitysim.__all__ == imported
    section = README.read_text().split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S)[1]
    exec(compile(example, "README.md (Library example)", "exec"), {})


def test_star_import_binds_exactly_the_exports_and_no_module():
    namespace = {}
    exec("from dualitysim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == dualitysim.__all__
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


def test_every_public_definition_is_exported_or_called():
    # A top-level public function or class that no __all__ entry exports and no
    # package code names outside its own definition has no caller.
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(dualitysim.__file__).parent.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    uncalled = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef | ast.ClassDef) and not node.name.startswith("_")
        and node.name not in dualitysim.__all__ and node.name not in named
    ]
    assert not uncalled


# Calls that write a file whatever their arguments, and calls named ``open`` that read
# only when they name a mode of r, b and t alone or take no mode: ``open(path)`` and
# ``path.open()``.
WRITING_CALLS = {"write_text", "write_bytes", "fdopen", "tofile", "save", "savez", "savetxt"}


def _opens_for_writing(call):
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in WRITING_CALLS:
        return True
    if name != "open":
        return False
    modes = [arg.value for arg in (*call.args, *(k.value for k in call.keywords))
             if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    if modes:
        return not set(modes[-1]) <= set("rbt")
    return len(call.args) + len(call.keywords) > isinstance(call.func, ast.Name)


def test_only_the_private_writer_opens_a_file_for_writing():
    # optics._write_file owns how an output file is opened; reading a file is free.
    writes, owners = [], []
    for path in sorted(Path(dualitysim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = [top for top in tree.body if isinstance(top, ast.FunctionDef)
                 and (path.name, top.name) == ("optics.py", "_write_file")]
        inside = {id(node) for top in owner for node in ast.walk(top)}
        owners += owner
        writes += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in inside
                   and _opens_for_writing(node)]
    assert len(owners) == 1 and not writes, writes
