"""Deterministic CSV emission for experiment tables."""
from __future__ import annotations

import numpy as np

__all__ = ["write_csv"]


def write_csv(path, header: list[str], rows) -> None:
    """Deterministic CSV: %.17g floats, no timestamps, LF endings."""
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")
        return str(v)

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
