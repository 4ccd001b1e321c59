"""One benchmark run in a fresh interpreter.

Usage: python3 bench/worker.py '<request JSON>'

The request names the workload, seed, experiment output directory and
result file, whether to trace, whether to stop once the config is
built, optional config overrides, and ``spawned_at``: the parent's
time.monotonic() just before it started this process, so that setup_s
covers interpreter start-up, ``import semiphase`` and ``defaults_for``.
The result file gets setup_s and, for a full run, wall_s, cpu_s,
peak_rss_mb, the gate verdict, the records, whether every output was
written, and the layer metrics when traced. An exception in the run is
reported in the result, never raised.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _outputs_written(out_dir: Path, outputs) -> bool:
    names = ["manifest.json", *outputs]
    return all((out_dir / n).is_file() and (out_dir / n).stat().st_size > 0
               for n in names)


def _run(cfg, trace: bool, spans_path: str | None) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import semiphase

    out: dict = {}
    manifest = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        manifest = semiphase.run_experiment(cfg)
    except Exception:  # a run that raises is a failed run, not a crash
        out["error"] = traceback.format_exc()
    out["wall_s"] = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = ((after.ru_utime - before.ru_utime)
                    + (after.ru_stime - before.ru_stime))
    out["peak_rss_mb"] = after.ru_maxrss / 1024.0
    if manifest is not None:
        out["passed"] = bool(manifest.passed)
        out["records"] = json.loads(manifest.to_json())["records"]
        out["outputs_written"] = _outputs_written(Path(cfg.out_dir),
                                                  manifest.outputs)
    if tracer is not None:
        tracer.write(spans_path)
        out["layers"] = tracer.layer_metrics()
    return out


def main(argv) -> int:
    req = json.loads(argv[1])
    result: dict = {}
    try:
        import semiphase  # noqa: F401  (timed as part of set-up)
        from workloads import build_config

        cfg = build_config(req["workload"], req["seed"], out_dir=req["out_dir"],
                           **req.get("overrides", {}))
    except Exception:
        result["error"] = traceback.format_exc()
    else:
        result["setup_s"] = time.monotonic() - req["spawned_at"]
        if not req["setup_only"]:
            result.update(_run(cfg, req["trace"], req.get("spans_path")))
    Path(req["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
