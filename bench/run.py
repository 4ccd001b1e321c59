"""Benchmark entry point for `semiphase`.

Usage (from the repository root):

    python3 bench/run.py --workload weak-ensemble --seed 0 --seconds 42 --trace 0

Runs the workload's experiment again and again, one fresh interpreter
per run (closed loop, one run at a time), with BLAS and OpenMP pinned to
one thread, until the next run would not fit in ``--seconds``. A few
set-up-only interpreters run first. Every run is checked: it fails if it
raises, misses its experiment's gate, yields non-finite records or
leaves an output unwritten.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
the runs). With ``--trace 1`` untraced and traced runs alternate and
the result holds the per-layer metrics (medians over the traced runs),
``experiments.records_max_rel_dev`` and ``trace.overhead_s``. The last
line of standard output is the JSON result; the lines before it are the
environment block, one line per run and a summary. Experiment outputs
and spans go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

from records import all_finite, load_reference, max_rel_dev  # noqa: E402
from tracer import METRIC_UNITS  # noqa: E402
from workloads import WORKLOADS, variant_index  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4
# every child is killed once the whole invocation reaches this age, so
# the benchmark always exits well inside three minutes
HARD_LIMIT_S = 165.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _git_sha() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod) -> str | None:
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("version")

    env = child_env()
    return {
        "threads": {v: env[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "git_sha": _git_sha(),
    }


def make_request(workload: str, seed: int, run_dir: Path, tag: str, *,
                 setup_only: bool = False, trace: bool = False,
                 overrides: dict | None = None) -> dict:
    """A worker request whose files are named `tag` under `run_dir`."""
    return {"workload": workload, "seed": seed, "setup_only": setup_only,
            "trace": trace, "overrides": overrides or {},
            "out_dir": str(run_dir / tag),
            "result_path": str(run_dir / f"{tag}.result.json"),
            "spans_path": str(run_dir / f"{tag}.spans.jsonl")}


def run_child(request: dict, timeout: float) -> dict | None:
    """Run worker.py once; None when it crashed or timed out."""
    result_path = Path(request["result_path"])
    result_path.unlink(missing_ok=True)
    request = dict(request, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(request)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def failure_reason(res: dict | None) -> str | None:
    if res is None:
        return "worker crashed"
    if "error" in res:
        return res["error"].strip().splitlines()[-1]
    if not res["passed"]:
        return "gate missed"
    if not all_finite(res["records"]):
        return "non-finite records"
    if not res["outputs_written"]:
        return "outputs missing"
    return None


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            overrides: dict | None = None, out_dir: Path = OUT_DIR) -> dict | None:
    """Run the workload for `seconds`; the result object, or None when
    set-up itself fails (the package is missing or does not import)."""
    t_start = time.monotonic()
    run_root = out_dir / workload / f"seed{seed}"
    shutil.rmtree(run_root, ignore_errors=True)
    run_root.mkdir(parents=True)
    variant = variant_index(workload, seed)
    reference = load_reference(workload, variant)

    def request(tag: str, setup_only: bool, traced: bool) -> dict:
        return make_request(workload, seed, run_root, tag, setup_only=setup_only,
                            trace=traced, overrides=overrides)

    def time_left() -> float:
        return HARD_LIMIT_S - (time.monotonic() - t_start)

    setups = []
    for k in range(SETUP_PROBES):
        res = run_child(request(f"setup{k}", True, False), time_left())
        if res is None or "setup_s" not in res:
            if res is not None:
                print(res["error"], file=sys.stderr)
            return None
        setups.append(res["setup_s"])

    runs = []
    longest = 0.0
    while (not runs or (trace and len(runs) < 2)
           or time.monotonic() + 1.1 * longest <= t_start + seconds):
        if time_left() <= 0:
            break
        traced = trace and len(runs) % 2 == 1
        load_before = os.getloadavg()[0]
        t0 = time.monotonic()
        res = run_child(request(f"run{len(runs)}", False, traced), time_left())
        longest = max(longest, time.monotonic() - t0)
        reason = failure_reason(res)
        dev = (max_rel_dev(res["records"], reference)
               if reference is not None and res and "records" in res else None)
        run = {"traced": traced, "failed": reason is not None, "reason": reason,
               "records_max_rel_dev": dev, "loadavg_before": load_before,
               "loadavg_after": os.getloadavg()[0], **(res or {})}
        run.pop("records", None)
        runs.append(run)
        print("run " + json.dumps({k: v for k, v in run.items()
                                   if k not in ("layers", "error")}))
        if res is not None and "setup_s" in res:
            setups.append(res["setup_s"])

    timed = [r for r in runs if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    if not timed:
        return None
    summary = {"setup_s": setups}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        summary[key] = [r[key] for r in plain]
    for key, values in summary.items():
        unit = END_TO_END_UNITS[key]
        print(f"{workload} {key} median {_median(values):.4f} {unit} "
              f"({_spread(values)})")
    devs = [r["records_max_rel_dev"] for r in runs
            if r["records_max_rel_dev"] is not None]
    failed = sum(r["failed"] for r in runs)
    print(f"{workload} runs attempted {len(runs)} failed {failed}; "
          f"records_max_rel_dev {max(devs) if devs else 'n/a'} "
          f"(reference variant {variant})")

    if trace:
        traced_runs = [r for r in timed if r["traced"] and "layers" in r]
        metrics = {name: {"value": _median([r["layers"][name]
                                            for r in traced_runs]),
                          "unit": unit}
                   for name, unit in METRIC_UNITS.items()}
        metrics["experiments.records_max_rel_dev"] = {
            "value": max(devs) if devs else 1.0, "unit": "ratio"}
        metrics["trace.overhead_s"] = {
            "value": (_median([r["wall_s"] for r in traced_runs])
                      - _median([r["wall_s"] for r in plain])),
            "unit": "s"}
        for name, m in metrics.items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {key: {"value": _median(values),
                         "unit": END_TO_END_UNITS[key]}
                   for key, values in summary.items()}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semiphase" / "__init__.py").is_file():
        print(f"no semiphase package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("set-up failed; no result", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
