"""Capture the reference records of every workload variant.

Usage (from the repository root): python3 bench/capture_reference.py [workload ...]

Runs each variant once, untraced, and writes its manifest records to
``bench/reference/<workload>.json``, keyed by variant index. A variant
whose run fails is not written. Re-capture only for an intended change
to the numerics, and say so in CHANGES.md.
"""
from __future__ import annotations

import json
import sys

from records import reference_path
from run import HARD_LIMIT_S, OUT_DIR, make_request, run_child
from workloads import WORKLOADS


def capture(workload: str) -> dict:
    refs = {}
    run_root = OUT_DIR / "reference" / workload
    run_root.mkdir(parents=True, exist_ok=True)
    for variant in range(len(WORKLOADS[workload].variants)):
        res = run_child(make_request(workload, variant, run_root,
                                     f"variant{variant}"), HARD_LIMIT_S)
        if res is None or "error" in res or not res["passed"]:
            raise SystemExit(f"{workload} variant {variant} failed: "
                             f"{(res or {}).get('error', 'gate missed')}")
        refs[str(variant)] = res["records"]
        print(f"{workload} variant {variant}: {res['wall_s']:.2f} s")
    return refs


def main(argv) -> int:
    for workload in argv[1:] or sorted(WORKLOADS):
        path = reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(capture(workload), indent=1,
                                   sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
