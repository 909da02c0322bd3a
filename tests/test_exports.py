import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gradedlie

MODULES = sorted(info.name for info in pkgutil.iter_modules(gradedlie.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"gradedlie.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(gradedlie.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gradedlie.{node.module}")
        missing = [alias.name for alias in node.names
                   if alias.name not in getattr(module, "__all__", [])]
        assert missing == [], node.module


def test_the_readme_quick_start_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```",
                        readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
    assert "{0: 1, 1: 2, 2: 1}" in capsys.readouterr().out
