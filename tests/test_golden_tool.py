"""tools/golden.py: capture and check act only on the experiments they are given."""

import importlib.util
import json
import os
import resource
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


@pytest.mark.parametrize("argv", [["capture", "Nope"], ["check", "WeakConvergence", "Nope"]])
def test_capture_and_check_refuse_unknown_names(golden, argv):
    with pytest.raises(SystemExit) as exc:
        golden.main(argv)
    assert exc.value.code == 2
    assert not golden.GOLDEN_DIR.exists()


def test_check_runs_only_the_named_experiments_with_peak_rss(golden, monkeypatch, capsys):
    runs = []
    record = {"passed": True, "warnings": ["w"], "records": {"d": 1.0}}
    monkeypatch.setattr(golden, "run_default",
                        lambda name: runs.append(name) or dict(record, experiment=name))
    monkeypatch.setattr(golden, "peak_rss_mib", lambda: 63.6)
    assert golden.main(["capture", "BranchAtlas", "HarmonicExact"]) == 0
    capsys.readouterr()
    runs.clear()
    assert golden.main(["check", "HarmonicExact"]) == 0
    assert runs == ["HarmonicExact"]
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("HarmonicExact: max_rel_dev 0 in ")
    assert "s, peak RSS 63.6 MiB, warnings identical, passed identical" in line
    # a moved record fails the check, and says so on its line
    record["records"] = {"d": 1.5}
    assert golden.main(["check", "BranchAtlas"]) == 1
    assert capsys.readouterr().out.rstrip().endswith("<-- FAIL")


def test_check_names_the_warnings_that_changed(golden, monkeypatch, capsys):
    record = {"passed": True, "warnings": ["kept", "gone"], "records": {}}
    monkeypatch.setattr(golden, "run_default", lambda name: dict(record, experiment=name))
    assert golden.main(["capture", "BranchAtlas"]) == 0
    capsys.readouterr()
    record["warnings"] = ["new", "kept"]
    assert golden.main(["check", "BranchAtlas"]) == 1
    head, *changes = capsys.readouterr().out.splitlines()
    assert "warnings DIFFER" in head and head.endswith("<-- FAIL")
    assert changes == ["  - gone", "  + new"]
    # identical warnings keep the check to its one line
    record["warnings"] = ["kept", "gone"]
    assert golden.main(["check", "BranchAtlas"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    # the same messages in another order still differ, and say so
    record["warnings"] = ["gone", "kept"]
    assert golden.main(["check", "BranchAtlas"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  (same messages, in another order)"]


def test_peak_rss_is_this_process_in_mib(golden):
    # ru_maxrss is in KiB on Linux, and a peak never falls
    kib = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    before = kib()
    got = golden.peak_rss_mib()
    assert before / 1024.0 <= got <= kib() / 1024.0
