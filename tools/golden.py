"""Golden records of the seven default runs: capture them, or check against them.

Usage (from the repository root):

    python3 tools/golden.py capture [NAME ...]
    python3 tools/golden.py check [NAME ...]

``capture`` runs each named experiment's default config (all seven when
none is named; ``defaults_for(name)``, no output directory) and writes
``golden/<name>.json`` with its records, warnings and verdict. ``check``
re-runs the named configs (all seven when none is named) and prints, per
experiment, ``bench/records.py::max_rel_dev`` of the records against the
golden file, whether the warnings and verdict are identical, the run's
wall seconds (the occasional full-defaults timing) and the process's
peak RSS so far (``ru_maxrss``; one name per process measures that run
alone). When the warnings differ, the lines under that run's line list
the golden messages the run no longer raises (``-``) and the new ones
(``+``). It exits 1 when a
warning list or verdict differs or a deviation exceeds TOL, the
tolerance for a refactor. A change that moves the numerics on purpose
re-captures only the experiments it moved and lists what moved.

BLAS and OpenMP are pinned to one thread, as in the benchmark. The seven
runs take about half a minute, twice the test suite, so this script is
not part of it.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "golden"
TOL = 1e-10
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from records import max_rel_dev  # noqa: E402
from semiphase.experiments import (EXPERIMENTS, defaults_for,  # noqa: E402
                                   run_experiment)


def run_default(name: str) -> dict:
    """Records, warnings and verdict of one default run, after a JSON round trip."""
    manifest = json.loads(run_experiment(defaults_for(name)).to_json())
    return {key: manifest[key] for key in ("experiment", "config_hash", "passed",
                                           "warnings", "records")}


def capture(names) -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or EXPERIMENTS:
        result = run_default(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"{name}: wrote {path.relative_to(ROOT)}", flush=True)
    return 0


def peak_rss_mib() -> float:
    """This process's peak resident set so far; Linux reports KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warning_changes(golden: list, now: list) -> list:
    """Lines naming the removed (-) and the added (+) warning messages."""
    lines = ([f"  - {w}" for w in golden if w not in now]
             + [f"  + {w}" for w in now if w not in golden])
    return lines or ["  (same messages, in another order)"]


def check(names) -> int:
    status = 0
    for name in names or EXPERIMENTS:
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        start = time.perf_counter()
        result = run_default(name)
        wall = time.perf_counter() - start
        dev = max_rel_dev(result["records"], golden["records"])
        same = {key: result[key] == golden[key] for key in ("warnings", "passed")}
        ok = dev <= TOL and all(same.values())
        status = status or (0 if ok else 1)
        print(f"{name}: max_rel_dev {dev:.3g} in {wall:.1f} s, peak RSS "
              f"{peak_rss_mib():.1f} MiB, warnings "
              f"{'identical' if same['warnings'] else 'DIFFER'}, passed "
              f"{'identical' if same['passed'] else 'DIFFERS'}"
              f"{'' if ok else '  <-- FAIL'}", flush=True)
        if not same["warnings"]:
            print("\n".join(warning_changes(golden["warnings"], result["warnings"])),
                  flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("capture", "check"))
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="experiments to capture or check (default: all seven)")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(EXPERIMENTS)}")
    return (capture if args.command == "capture" else check)(args.names)


if __name__ == "__main__":
    sys.exit(main())
