"""The package's public surface: the README's examples and each ``__all__``."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinmtc"


def test_readme_python_examples_run():
    # one namespace, in order: a later block may use an earlier block's names
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


_WITH_ALL = sorted("spinmtc" if p.stem == "__init__" else f"spinmtc.{p.stem}"
                   for p in PACKAGE.glob("*.py") if re.search(r"^__all__ =", p.read_text(), re.M))


@pytest.mark.parametrize("name", _WITH_ALL)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    listed = module.__all__  # the first read executes a lazily loaded module
    assert [n for n in listed if not hasattr(module, n)] == []
    public = {n for n, obj in vars(module).items()
              if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == name}
    assert sorted(public - set(listed)) == []
