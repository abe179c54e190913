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
