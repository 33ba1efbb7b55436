"""Metric catalogue and the small statistics rules the benchmark reports by.

The names and units come from `BENCHMARK.json`, the one place they are
written down. End-to-end metrics are reported by every workload with tracing
off; per-layer metrics only by the traced run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}   # name -> unit
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}     # name -> unit

MIN_TAIL_SAMPLES = 10
# The tail metric is named p99, so no higher percentile is ever reported.
TAIL_CANDIDATES = (99, 90, 50)


def tail_percentile(n: int) -> float | None:
    """Highest of TAIL_CANDIDATES that leaves at least 10 of n samples beyond it."""
    for p in TAIL_CANDIDATES:
        # the share beyond p, in whole samples; the epsilon absorbs float error
        if math.floor(n * (100 - p) / 100 + 1e-9) >= MIN_TAIL_SAMPLES:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
