"""Every name a semiphase module imports is used in that module, every
name it exports exists, and some module references it; the names that the
benchmark's tracer reads from outside the package stay put."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
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


# exports that no semiphase module references, kept on purpose
_UNREACHED_OK = {
    "potentials.custom_potential",  # the test oracles' route to sampled fields
}


def _unreached_exports(modules) -> set[str]:
    used, exports = set(), {}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "__all__"):
                exports[path.stem] = ast.literal_eval(node.value)
    return {f"{mod}.{name}" for mod, names in exports.items()
            for name in names if name not in used}


def test_every_export_is_reached():
    # an exported name that nothing in the package calls is API that no
    # experiment, CLI path or diagnostic reaches
    assert _unreached_exports(_MODULES) == _UNREACHED_OK


def test_import_leaves_heavy_scipy_unloaded():
    # the package runs on numpy alone (numpy.fft, math.erfc): a fresh
    # interpreter must load no scipy module at all on `import semiphase`
    code = ("import sys, semiphase; print(','.join(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ)
    src = str(Path(semiphase.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_package_line_budget():
    # src/semiphase stays under 3,000 lines: a change that adds lines
    # deletes as many elsewhere
    total = sum(len(p.read_text().splitlines())
                for p in Path(semiphase.__file__).parent.glob("*.py"))
    assert total < 3000, total


# bench/tracer.py counts work from these bound argument names (the first
# comes first), and reads these classes and the ensemble's members: a
# rename breaks every traced benchmark run, and nothing else would notice
_TRACED_ARGS = {
    "quantum.propagate": ("state", "cfg"),
    "metrics.char_function": ("obj",),
    "classical.transport_particles": ("cloud", "dt", "t_final"),
    "phasespace.wigner": ("state",),
}


@pytest.mark.parametrize("qualname", sorted(_TRACED_ARGS))
def test_traced_argument_names(qualname):
    layer, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"semiphase.{layer}"), name)
    params = list(inspect.signature(fn).parameters)
    first, *others = _TRACED_ARGS[qualname]
    assert params[0] == first
    assert set(others) <= set(params)


def test_traced_representations():
    for name in ("AtomicMeasure", "DensityEnsemble", "GridDensity",
                 "WaveFunction"):
        assert inspect.isclass(getattr(semiphase, name)), name
    fields = {f.name for f in dataclasses.fields(semiphase.DensityEnsemble)}
    assert "members" in fields
