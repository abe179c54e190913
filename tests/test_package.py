"""The public surface: every exported name resolves and README's example runs."""

import re
from pathlib import Path

import dualitysim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_readme_library_example_runs():
    missing = [name for name in dualitysim.__all__ if not hasattr(dualitysim, name)]
    assert not missing, f"__all__ names with no binding: {missing}"
    section = README.read_text().split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S)[1]
    exec(compile(example, "README.md (Library example)", "exec"), {})
