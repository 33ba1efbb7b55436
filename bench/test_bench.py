"""Tests of the benchmark's own rules: self time, the tail percentile, metric names.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import re
from pathlib import Path

import pytest

from metrics import PER_LAYER, percentile, tail_percentile
from tracing import Profile, per_layer_metrics, self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def span(name, start, end, parent, op=0):
    return (name, start, end, parent, op)


def test_self_time_subtracts_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("a.child", 2.0, 3.5, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 4.0, 1.5])


def test_self_times_sum_to_root_duration():
    spans = [span("root", 0.0, 5.0, -1), span("a", 0.5, 2.0, 0),
             span("b", 1.0, 1.5, 1), span("c", 3.0, 4.5, 0)]
    assert sum(self_times(spans)) == pytest.approx(5.0)


@pytest.mark.parametrize("n, expected", [
    (10000, 99), (1000, 99), (999, 90), (100, 90), (99, 50),
    (20, 50), (19, None), (0, None),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates():
    assert percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert percentile(range(101), 99) == pytest.approx(99)


def test_metric_names_and_units_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    assert all(valid_unit(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert not valid_name("_leading") and not valid_name("a" * 65) and not valid_name("a b")


def test_traced_run_computes_every_listed_per_layer_metric():
    assert list(per_layer_metrics(Profile(), 0.0)) == list(PER_LAYER)


def test_setup_s_has_the_largest_bound():
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               and m["bound"] == max(b["bound"] for b in SPEC["end_to_end"])
               for m in SPEC["end_to_end"])
