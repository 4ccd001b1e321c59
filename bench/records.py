"""Reference records and their comparison.

A run's ``records`` (from its manifest, after a JSON round trip) are
flattened to leaves keyed by path. The deviation of a numeric leaf is
|a - b| / |b| (|a| when b is 0). A leaf that is missing on either side,
a changed non-numeric leaf, and a non-finite leaf that differs count as
a deviation of 1.0.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            out.update(flatten(val, f"{prefix}/{key}"))
        return out
    if isinstance(obj, list):
        out = {}
        for i, val in enumerate(obj):
            out.update(flatten(val, f"{prefix}[{i}]"))
        return out
    return {prefix: obj}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def all_finite(records: dict) -> bool:
    return all(math.isfinite(v) for v in flatten(records).values()
               if _is_number(v))


def _leaf_dev(a, b) -> float:
    if a == b:
        return 0.0
    if not (_is_number(a) and _is_number(b)
            and math.isfinite(a) and math.isfinite(b)):
        return 1.0
    return abs(a - b) / abs(b) if b else abs(a)


def max_rel_dev(records: dict, reference: dict) -> float:
    got, ref = flatten(records), flatten(reference)
    if got.keys() != ref.keys():
        return max([1.0] + [_leaf_dev(got[k], ref[k])
                            for k in got.keys() & ref.keys()])
    return max((_leaf_dev(got[k], ref[k]) for k in ref), default=0.0)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, variant: int) -> dict | None:
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(variant))
