import ast
import importlib
import importlib.util
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


def test_every_name_the_benchmark_traces_resolves():
    # bench/tracing.py imports no gradedlie code: load it by path and look
    # up each name it wraps, so a deletion that breaks the traced
    # benchmark fails here too
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    core = importlib.import_module("gradedlie.core")
    missing = [f"{module}.{fn}" for module, fns in tracing.SPANNED.items()
               for fn in fns
               if not hasattr(importlib.import_module(f"gradedlie.{module}"),
                              fn)]
    missing += [f"core.{fn}" for fn in
                tracing.COUNTED_FUNCTIONS + ["parallel_map", "worker_count"]
                if not hasattr(core, fn)]
    missing += [f"core.{cls}.{method}"
                for cls, method in tracing.COUNTED_METHODS
                if not hasattr(getattr(core, cls, None), method)]
    assert tracing.SPANNED and missing == []
