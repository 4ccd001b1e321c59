"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from records import max_rel_dev  # noqa: E402
from tracer import COUNTERS, METRIC_UNITS  # noqa: E402

# 9-member mixtures on N=256, 50 Strang steps per member and rung
TINY_WEAK = {"grid_n": 256, "datum_k": 3, "sample_times": [0.05]}
# two Liouville steps per rung; grid_n stays at the smallest size the
# Fourier-condition check accepts
TINY_LIOUVILLE = {"sample_times": [0.01]}


def _run_once(tmp_path: Path, workload: str, overrides: dict, trace: bool,
              tag: str) -> dict:
    request = run.make_request(workload, 0, tmp_path, tag, trace=trace,
                               overrides=overrides)
    res = run.run_child(request, timeout=120.0)
    assert res is not None and "error" not in res, res
    return res


@pytest.mark.parametrize("workload, overrides", [
    ("weak-ensemble", TINY_WEAK), ("liouville-rate", TINY_LIOUVILLE)])
def test_tracing_leaves_records_bit_identical(tmp_path, workload, overrides):
    plain = _run_once(tmp_path, workload, overrides, False, "plain")
    traced = _run_once(tmp_path, workload, overrides, True, "traced")
    assert traced["records"] == plain["records"]
    assert max_rel_dev(traced["records"], plain["records"]) == 0.0
    assert traced["layers"]["experiments.calls"] >= 1
    assert "layers" not in plain


def test_work_counts_repeat_exactly(tmp_path):
    first = _run_once(tmp_path, "weak-ensemble", TINY_WEAK, True, "a")
    second = _run_once(tmp_path, "weak-ensemble", TINY_WEAK, True, "b")
    counts = {c: first["layers"][c] for c in COUNTERS}
    assert counts == {c: second["layers"][c] for c in COUNTERS}
    # 3 rungs x 9 members x 50 steps x 256 points
    assert counts["quantum.point_steps"] == 3 * 9 * 50 * 256
    assert counts["quantum.grid_n_max"] == 256
    assert counts["classical.liouville_cell_steps"] == 0
    assert counts["phasespace.wigner_cells"] == 0
    spans = [json.loads(line)
             for line in (tmp_path / "a.spans.jsonl").read_text().splitlines()]
    assert spans[0]["name"] == "experiments.run_experiment"
    assert spans[0]["parent"] == -1
    # propagate_ensemble reaches quantum.propagate through its own binding
    assert sum(s["name"] == "quantum.propagate" for s in spans) == 3 * 9


def test_configuration_error_counts_as_one_failed_run(tmp_path):
    # check_fourier_conditions refuses grid_n=512 inside the run
    result = run.measure("liouville-rate", 0, 0.0, False,
                         overrides={"grid_n": 512}, out_dir=tmp_path)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False


def test_record_deviation():
    ref = {"a": [1.0, 2.0], "ok": True, "name": "x"}
    assert max_rel_dev(ref, ref) == 0.0
    assert max_rel_dev({"a": [1.0, 2.2], "ok": True, "name": "x"},
                       ref) == pytest.approx(0.1)
    assert max_rel_dev({"a": [1.0, 2.0], "ok": False, "name": "x"}, ref) == 1.0
    assert max_rel_dev({"a": [1.0], "ok": True, "name": "x"}, ref) == 1.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END_UNITS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**METRIC_UNITS,
                         "experiments.records_max_rel_dev": "ratio",
                         "trace.overhead_s": "s"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
