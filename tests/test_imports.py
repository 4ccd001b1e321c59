"""Every name a semiphase module imports is used in that module, and
every name it exports exists."""

import ast
import importlib
from pathlib import Path

import pytest

import semiphase

_MODULES = sorted(p for p in Path(semiphase.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")  # __init__ imports to re-export


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_detector():
    src = "import os\nfrom json import dumps, loads\nprint(loads(os.sep))\n"
    assert _unused_imports(src) == ["dumps (line 2)"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_all_names_exist(path):
    # tracing wraps each layer by getattr over its __all__: a stale entry
    # would break every traced run
    mod = importlib.import_module(f"semiphase.{path.stem}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
