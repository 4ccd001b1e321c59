"""Every warnings.warn call in semiphase names SemiphaseWarning.

Experiment manifests record SemiphaseWarning only, so a warning raised
with any other category would be shown but never reach the manifest.
"""

import ast
from pathlib import Path

import pytest

import semiphase

_MODULES = sorted(Path(semiphase.__file__).parent.glob("*.py"))


def _is_warnings_warn(func: ast.expr) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "warn"
            and isinstance(func.value, ast.Name) and func.value.id == "warnings")


def _uncategorized_warns(source: str) -> list[int]:
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _is_warnings_warn(node.func):
            category = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "category"), None)
            if not (isinstance(category, ast.Name)
                    and category.id == "SemiphaseWarning"):
                bad.append(node.lineno)
    return bad


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_warn_calls_use_semiphase_category(path):
    assert _uncategorized_warns(path.read_text()) == []


def test_uncategorized_warn_detector():
    src = ("import warnings\n"
           "warnings.warn('a', SemiphaseWarning)\n"
           "warnings.warn('b')\n"
           "warnings.warn('c', category=SemiphaseWarning)\n"
           "warnings.warn('d', RuntimeWarning)\n")
    assert _uncategorized_warns(src) == [3, 5]
