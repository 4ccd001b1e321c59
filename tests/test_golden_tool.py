"""tools/golden.py: capture writes only the experiments it is given."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


@pytest.fixture
def golden(monkeypatch, tmp_path):
    # the script pins thread variables and extends sys.path on import
    monkeypatch.setattr(sys, "path", sys.path[:])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location("golden_tool", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "GOLDEN_DIR", tmp_path / "golden")
    monkeypatch.setattr(module, "run_default", lambda name: {"experiment": name})
    return module


def test_capture_writes_only_the_named_experiments(golden):
    assert golden.main(["capture", "WeakConvergence", "BranchAtlas"]) == 0
    assert sorted(p.name for p in golden.GOLDEN_DIR.iterdir()) == [
        "BranchAtlas.json", "WeakConvergence.json"]
    assert json.loads((golden.GOLDEN_DIR / "BranchAtlas.json").read_text()) == {
        "experiment": "BranchAtlas"}


def test_capture_without_names_writes_all_seven(golden):
    assert golden.main(["capture"]) == 0
    assert sorted(p.stem for p in golden.GOLDEN_DIR.iterdir()) == sorted(golden.EXPERIMENTS)


@pytest.mark.parametrize("argv", [["capture", "Nope"], ["check", "WeakConvergence"]])
def test_capture_refuses_unknown_names_and_check_takes_none(golden, argv):
    with pytest.raises(SystemExit) as exc:
        golden.main(argv)
    assert exc.value.code == 2
    assert not golden.GOLDEN_DIR.exists()
